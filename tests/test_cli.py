"""Tests for the command-line surface: behavior, formats, and exit codes."""

import contextlib
import csv
import io
import math
import os
import signal
import struct
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import chdtri

import quantlab
import quantlab.blockquant as bq
import quantlab.cli as cli
import quantlab.codebook as qc
import quantlab.distributions as qd
import quantlab.montecarlo as qmc
from quantlab.cli import main
from quantlab.errors import (ConstructionError, DataError, DomainError,
                             FormatError, NumericalError)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestCodeGen:
    def test_nf4_prints_16_values(self, capsys):
        code, out, _ = run(capsys, "code", "gen", "--kind", "nf4")
        values = [float(line) for line in out.splitlines()]
        assert code == 0
        assert len(values) == 16
        assert values[0] == -1.0 and values[7] == 0.0 and values[15] == 1.0

    def test_out_file_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "nf4.json"
        code, out, _ = run(capsys, "code", "gen", "--kind", "nf4", "--out", str(path))
        assert code == 0
        loaded = qc.code_read(path)
        np.testing.assert_array_equal(loaded.values, qc.nf4_code().values)

    def test_variant_flag(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "code", "gen", "--kind", "nf4",
            "--variant", "quantile-of-average", "--out", str(p1))
        run(capsys, "code", "gen", "--kind", "nf4",
            "--variant", "average-of-quantile", "--out", str(p2))
        a, b = qc.code_read(p1), qc.code_read(p2)
        diff = np.abs(a.values - b.values)
        assert 0 < diff.max() < 1e-3

    @pytest.mark.parametrize("kind", ["af4", "balanced", "balanced-endpoints"])
    def test_variant_with_another_kind_is_usage_error(self, capsys, kind):
        code, out, err = run(capsys, "code", "gen", "--kind", kind, "--block-size",
                             "64", "--variant", "average-of-quantile")
        assert code == 1 and out == ""
        assert err == "--variant goes only with --kind nf4\n"

    def test_af4_interior_shrinks_with_block_size(self, capsys, tmp_path):
        p64, p4096 = tmp_path / "64.json", tmp_path / "4096.json"
        assert run(capsys, "code", "gen", "--kind", "af4", "--block-size", "64",
                   "--out", str(p64))[0] == 0
        assert run(capsys, "code", "gen", "--kind", "af4", "--block-size", "4096",
                   "--out", str(p4096))[0] == 0
        small = qc.code_read(p64).values
        large = qc.code_read(p4096).values
        interior = list(range(1, 7)) + list(range(8, 15))
        assert all(abs(large[j]) < abs(small[j]) for j in interior)

    def test_balanced_small_block_is_usage_error(self, capsys):
        code, _, err = run(capsys, "code", "gen", "--kind", "balanced",
                           "--block-size", "4")
        assert code == 1
        assert ">= 12" in err

    @pytest.mark.parametrize("kind", ["nf4", "af4", "balanced"])
    @pytest.mark.parametrize("block_size", ["-3", "0"])
    def test_bad_block_size_is_usage_error_for_every_kind(self, capsys, kind,
                                                          block_size):
        code, out, err = run(capsys, "code", "gen", "--kind", kind,
                             "--block-size", block_size)
        assert code == 1 and out == ""
        assert err == f"error: block size must be >= 1, got {block_size}\n"

    @staticmethod
    def _balanced_seed_bounds(B):
        """Bounds on the seed of a balanced code: the reflection makes
        q_k = (-1)^k seed + r_k, and each q_k must lie in its bin."""
        e = qc.uniform_bins(B).edges
        lo, hi, r = -np.inf, np.inf, 0.0
        for k in range(16):
            r = 2.0 * e[k] - r if k else 0.0
            sign = 1.0 if k % 2 == 0 else -1.0
            a, b = sorted((sign * (e[k] - r), sign * (e[k + 1] - r)))
            lo, hi = max(lo, a), min(hi, b)
        return lo, hi

    def test_balanced_seed_interval_opens_at_block_size_12(self):
        for B, gap in ((9, 0.083), (10, 0.041), (11, 0.006)):
            lo, hi = self._balanced_seed_bounds(B)
            assert lo - hi == pytest.approx(gap, abs=5e-4)
        lo, hi = self._balanced_seed_bounds(12)
        assert -1.0 < lo < hi == pytest.approx(-0.97727, abs=5e-6)

    @pytest.mark.parametrize("kind", ["balanced", "balanced-endpoints"])
    def test_balanced_needs_block_size_12(self, capsys, kind):
        for argv in (("code", "gen"), ("validate", "usage", "--n", "2")):
            for B in (9, 11):
                code, out, err = run(capsys, *argv, "--kind", kind,
                                     "--block-size", str(B))
                assert code == 1 and out == ""
                assert err == ("error: balanced codes require block size >= 12, "
                               "below which no seed keeps every value inside its "
                               f"bin; got {B}\n")
        code, out, err = run(capsys, "code", "gen", "--kind", kind, "--block-size", "12")
        assert code == 0 and err == ""
        assert len(out.split()) == 16

    def test_af4_requires_block_size(self, capsys):
        for kind in ("af4", "balanced", "balanced-endpoints"):
            code, out, err = run(capsys, "code", "gen", "--kind", kind)
            assert code == 1 and out == ""
            assert err == f"--block-size is required for kind {kind!r}\n"

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "code", "gen", "--kind", "nf4", "--csv")
        header, rows = parse_csv(out)
        assert header == ["index", "value"]
        assert len(rows) == 16


@pytest.fixture
def tensor_file(tmp_path):
    rng = np.random.default_rng(123)
    path = tmp_path / "w.fqt"
    bq.tensor_write(rng.standard_normal((64, 96)).astype(np.float32), path)
    return path


@pytest.fixture
def nf4_file(tmp_path, capsys):
    path = tmp_path / "nf4.json"
    qc.code_write(qc.nf4_code(), path)
    return path


class TestQuantizeDequantize:
    def test_roundtrip_with_report(self, capsys, tmp_path, tensor_file, nf4_file):
        out_q = tmp_path / "w.fqz"
        out_t = tmp_path / "w2.fqt"
        code, out, _ = run(capsys, "quantize", str(tensor_file), str(out_q),
                           "--code", str(nf4_file), "--block-size", "64",
                           "--report", "--csv")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["metric", "value"]
        reported = {r[0]: float(r[1]) for r in rows}
        assert set(reported) == {"mean_abs", "mean_sq", "max_abs"}

        assert run(capsys, "dequantize", str(out_q), str(out_t))[0] == 0
        original = bq.tensor_read(tensor_file)
        recon = bq.tensor_read(out_t)
        # reported errors match a numpy recomputation from the two files
        diff = np.abs(original.astype(np.float64) - recon.astype(np.float64))
        oracle = {"mean_abs": diff.mean(), "mean_sq": (diff ** 2).mean(),
                  "max_abs": diff.max()}
        for metric, again in oracle.items():
            assert reported[metric] == pytest.approx(again, rel=1e-9)

    def test_lattice_exact_zero_error(self, capsys, tmp_path, nf4_file):
        code16 = qc.nf4_code()
        rng = np.random.default_rng(7)
        idx = rng.integers(0, 16, size=(4, 64))
        idx[:, 0] = 15
        w = (code16.values[idx].astype(np.float32) * np.float32(2.0))
        src = tmp_path / "lattice.fqt"
        bq.tensor_write(w, src)
        out_q = tmp_path / "l.fqz"
        code, out, _ = run(capsys, "quantize", str(src), str(out_q),
                           "--code", str(nf4_file), "--block-size", "64",
                           "--axis", "1", "--report", "--csv")
        assert code == 0
        _, rows = parse_csv(out)
        assert all(float(r[1]) == 0.0 for r in rows)

    def test_af4_beats_nf4_large_blocks(self, capsys, tmp_path, nf4_file):
        rng = np.random.default_rng(31)
        w = rng.standard_normal((256, 4096)).astype(np.float32)
        src = tmp_path / "big.fqt"
        bq.tensor_write(w, src)
        af4_file = tmp_path / "af4.json"
        qc.code_write(qc.af4_code(4096), af4_file)

        def mean_abs(code_path):
            _, out, _ = run(capsys, "quantize", str(src),
                            str(tmp_path / "o.fqz"), "--code", str(code_path),
                            "--block-size", "4096", "--axis", "1",
                            "--report", "--csv")
            _, rows = parse_csv(out)
            return {r[0]: float(r[1]) for r in rows}["mean_abs"]

        assert mean_abs(af4_file) < mean_abs(nf4_file)

    def test_zero_block_size_is_usage_error(self, capsys, tmp_path,
                                            tensor_file, nf4_file):
        code, _, err = run(capsys, "quantize", str(tensor_file),
                           str(tmp_path / "o.fqz"), "--code", str(nf4_file),
                           "--block-size", "0")
        assert code == 1
        assert err.startswith("error:") and "block size" in err

    def test_block_size_overflowing_header_is_data_error(
            self, capsys, tmp_path, tensor_file, nf4_file):
        out_q = tmp_path / "o.fqz"
        code, _, err = run(capsys, "quantize", str(tensor_file), str(out_q),
                           "--code", str(nf4_file), "--block-size", str(1 << 32))
        assert code == 2
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not out_q.exists()

    @pytest.mark.parametrize("where", ["option", "code file"])
    def test_header_block_size_is_checked_before_the_tensor_is_read(
            self, capsys, monkeypatch, tmp_path, nf4_file, where):
        monkeypatch.setattr(bq, "_read_header", fail_to_open)
        if where == "option":
            extra = ["--code", str(nf4_file), "--block-size", str(1 << 32)]
        else:
            code16 = tmp_path / "big.json"
            qc.code_write(qc.Code16(qc.nf4_code().values, block_size=1 << 32), code16)
            extra = ["--code", str(code16)]
        out_q = tmp_path / "o.fqz"
        code, out, err = run(capsys, "quantize", str(tmp_path / "w.fqt"), str(out_q),
                             *extra)
        assert code == 2 and out == ""
        assert err == "error: block size 4294967296 overflows the 32-bit header\n"
        assert not out_q.exists()

    @pytest.mark.parametrize("block_size", ["0", "-3"])
    def test_bad_block_size_is_checked_before_the_tensor_is_read(
            self, capsys, monkeypatch, tmp_path, nf4_file, block_size):
        monkeypatch.setattr(bq, "_read_header", fail_to_open)
        out_q = tmp_path / "o.fqz"
        code, out, err = run(capsys, "quantize", str(tmp_path / "nope.fqt"),
                             str(out_q), "--code", str(nf4_file),
                             "--block-size", block_size)
        assert code == 1 and out == ""
        assert err == f"error: block size must be >= 1, got {block_size}\n"
        assert not out_q.exists()

    @pytest.mark.parametrize("axis", ["2", "-3"])
    def test_axis_is_checked_against_the_header(self, capsys, monkeypatch, tmp_path,
                                                tensor_file, nf4_file, axis):
        # checked before the first pass reads an element
        real = bq._quantize

        def no_elements(dims, elements, *args):
            return real(dims, fail_to_open, *args)

        monkeypatch.setattr(bq, "_quantize", no_elements)
        out_q = tmp_path / "o.fqz"
        code, out, err = run(capsys, "quantize", str(tensor_file), str(out_q),
                             "--code", str(nf4_file), "--axis", axis)
        assert code == 1 and out == ""
        assert err == f"error: axis {axis} out of range for (64, 96)\n"
        assert not out_q.exists()

    def test_output_may_be_the_input(self, capsys, tmp_path, tensor_file, nf4_file):
        argv = ("--code", str(nf4_file), "--block-size", "16", "--report", "--csv")
        code, report, _ = run(capsys, "quantize", str(tensor_file),
                              str(tmp_path / "o.fqz"), *argv)
        assert code == 0
        assert run(capsys, "quantize", str(tensor_file), str(tensor_file),
                   *argv) == (0, report, "")
        assert tensor_file.read_bytes() == (tmp_path / "o.fqz").read_bytes()

    def test_dequantize_output_may_be_the_input(self, capsys, monkeypatch, tmp_path,
                                                tensor_file, nf4_file):
        # Small chunks make 16 slabs of one 4-row block group each, so the
        # input is still being read while the output is written.
        monkeypatch.setattr(bq, "_CHUNK", 256)
        fqz, fresh = tmp_path / "w.fqz", tmp_path / "back.fqt"
        assert run(capsys, "quantize", str(tensor_file), str(fqz), "--code",
                   str(nf4_file), "--block-size", "4")[0] == 0
        assert run(capsys, "dequantize", str(fqz), str(fresh)) == (0, "", "")
        assert run(capsys, "dequantize", str(fqz), str(fqz)) == (0, "", "")
        assert fqz.read_bytes() == fresh.read_bytes()

    def test_input_truncated_between_the_passes(self, capsys, monkeypatch, tmp_path,
                                                nf4_file):
        # Rows longer than the chunk make several reads per pass; the file
        # loses its last byte once the second pass has read its first range.
        monkeypatch.setattr(bq, "_CHUNK", 1 << 10)
        src, out_q = tmp_path / "w.fqt", tmp_path / "o.fqz"
        real = bq._encode

        def truncating(qt, start, values, *out):
            if start == 0:
                with open(src, "r+b") as fh:
                    fh.truncate(src.stat().st_size - 1)
            return real(qt, start, values, *out)

        monkeypatch.setattr(bq, "_encode", truncating)
        for report in ((), ("--report",)):
            bq.tensor_write(np.ones((8, 3000), dtype=np.float32), src)
            code, out, err = run(capsys, "quantize", str(src), str(out_q),
                                 "--code", str(nf4_file), *report)
            assert code == 2 and out == ""
            assert err == (f"error: {src}: truncated payload: expected 96000 bytes, "
                           "got 95999\n")
            assert not out_q.exists()

    def test_block_longer_than_axis_roundtrips(self, capsys, tmp_path, nf4_file):
        w = np.random.default_rng(8).standard_normal((1000, 1)).astype(np.float32)
        src, out_q, out_t = (tmp_path / n for n in ("w.fqt", "w.fqz", "w2.fqt"))
        bq.tensor_write(w, src)
        assert run(capsys, "quantize", str(src), str(out_q), "--code",
                   str(nf4_file), "--block-size", str(1 << 31),
                   "--axis", "1")[0] == 0
        assert run(capsys, "dequantize", str(out_q), str(out_t))[0] == 0
        np.testing.assert_array_equal(bq.tensor_read(out_t),
                                      bq.dequantize(bq.qtensor_read(out_q)))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_files_are_the_librarys_bytes(self, tmp_path_factory, data):
        # Tail blocks, odd block sizes, blocks longer than the axis and
        # chunks of one element up to several rows; the report's chunk is at
        # least numpy's 128-element pairwise block, as _CHUNK's is.
        shape = tuple(data.draw(st.lists(st.integers(1, 11), min_size=1, max_size=3)))
        axis = data.draw(st.integers(0, len(shape) - 1))
        B = data.draw(st.integers(1, shape[axis] + 3))
        report = data.draw(st.booleans())
        w = np.random.default_rng(data.draw(st.integers(0, 99))).standard_normal(
            shape).astype(np.float32)
        code = qc.af4_code(64)
        qt = bq.quantize(w, code, B, axis=axis)
        d = tmp_path_factory.mktemp("files")
        src, fqz, fqt = d / "w.fqt", d / "w.fqz", d / "w2.fqt"
        bq.tensor_write(w, src)
        bq.qtensor_write(qt, d / "lib.fqz")
        bq.tensor_write(bq.dequantize(qt), d / "lib.fqt")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bq, "_CHUNK", data.draw(st.integers(128 if report else 1, 300)))
            got = bq._quantize_file(src, fqz, code, B, axis, report)
            bq._dequantize_file(fqz, fqt)
        assert fqz.read_bytes() == (d / "lib.fqz").read_bytes()
        assert fqt.read_bytes() == (d / "lib.fqt").read_bytes()
        if report:
            expected = bq.reconstruction_errors(w, bq.dequantize(qt))
            assert {k: v.hex() for k, v in got.items()} == {
                k: v.hex() for k, v in expected.items()}
        else:
            assert got is None

    def test_dequantize_ignores_nonzero_pad_nibbles(self, capsys, tmp_path):
        # Blocks of 5 along 13 elements: every record ends in a pad nibble.
        w = np.random.default_rng(14).standard_normal((4, 13)).astype(np.float32)
        qt = bq.quantize(w, qc.nf4_code(), 5, axis=1)
        bq.qtensor_write(qt, tmp_path / "zero.fqz")
        for *_, pk in bq._parts(qt):
            pk[..., -1] |= 0xF0
        bq.qtensor_write(qt, tmp_path / "pad.fqz")
        assert ((tmp_path / "zero.fqz").read_bytes()
                != (tmp_path / "pad.fqz").read_bytes())
        for name in ("zero", "pad"):
            assert run(capsys, "dequantize", str(tmp_path / f"{name}.fqz"),
                       str(tmp_path / f"{name}.fqt")) == (0, "", "")
        assert ((tmp_path / "zero.fqt").read_bytes()
                == (tmp_path / "pad.fqt").read_bytes())

    def test_missing_input_is_data_error(self, capsys, tmp_path, nf4_file):
        code, _, err = run(capsys, "quantize", str(tmp_path / "nope.fqt"),
                           str(tmp_path / "o.fqz"), "--code", str(nf4_file))
        assert code == 2

    def test_bad_format_is_data_error(self, capsys, tmp_path, nf4_file):
        bad = tmp_path / "bad.fqt"
        bad.write_bytes(b"JUNKJUNKJUNK")
        code, _, err = run(capsys, "quantize", str(bad),
                           str(tmp_path / "o.fqz"), "--code", str(nf4_file))
        assert code == 2
        assert "magic" in err

    def test_zero_dimensional_fqt1_is_data_error(self, capsys, tmp_path,
                                                 nf4_file):
        # FQT1, dtype tag 0, ndim 0, then one float32: tensor_write never
        # writes a 0-d header
        bad = tmp_path / "scalar.fqt"
        bad.write_bytes(b"FQT1" + struct.pack("<BBf", 0, 0, 1.5))
        out_q = tmp_path / "o.fqz"
        code, _, err = run(capsys, "quantize", str(bad), str(out_q),
                           "--code", str(nf4_file))
        assert code == 2
        assert err.startswith("error:") and "no dimensions" in err
        assert not out_q.exists()


    def test_lying_fqz1_header_is_data_error(self, capsys, tmp_path):
        # header of a 2^31 x 2^31 tensor, no block data
        src = tmp_path / "lie.fqz"
        src.write_bytes(b"FQZ1" + struct.pack("<BB2IIBB", 1, 2, 1 << 31, 1 << 31,
                                              64, 0, 16)
                        + np.linspace(-1, 1, 16).astype("<f4").tobytes())
        code, _, err = run(capsys, "dequantize", str(src), str(tmp_path / "o.fqt"))
        assert code == 2
        assert "truncated" in err

    @pytest.mark.parametrize("option", [["--block-size", "7"], ["--csv"]])
    def test_dequantize_rejects_unused_options(self, capsys, tmp_path, option):
        src = tmp_path / "w.fqz"
        w = np.linspace(-2, 2, 64, dtype=np.float32).reshape(8, 8)
        bq.qtensor_write(bq.quantize(w, qc.nf4_code(), 8), src)
        out_t = tmp_path / "w.fqt"
        code, out, err = run(capsys, "dequantize", str(src), str(out_t), *option)
        assert code == 1 and out == ""
        assert "unrecognized arguments" in err
        assert not out_t.exists()


def fail_to_open(*args):
    raise AssertionError("the input tensor was read")


def traced_run(capsys, *argv):
    """(exit code, stdout, peak traced bytes) of one in-process CLI run."""
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, out, peak


class TestTensorPathMemory:
    """Neither command holds a tensor-sized array or the FQZ1 body: both
    walk the tensor slab by slab, and a slab holds at most a chunk of
    elements or one block group.  Beyond that, ``quantize --report`` peaks
    at the scales of its first pass (4 bytes per block), 24 bytes per chunk
    element (3 MiB) and the slabs a leaf reaches, here at most two;
    ``dequantize`` at 16 bytes per chunk element (2 MiB) and one slab,
    against 16 MiB of tensor.  Blocks of 64 down axis 0 leave no tail, and
    a slab is one block group of 147,456 bytes; blocks of 4000 along axis 1
    leave a tail of 96, whose record is 52 bytes against the full block's
    2,004, and a slab is 32 rows.  A block longer than its axis makes each
    row one group of 1 MiB of records, and the report leaf that ends 3
    elements before the first row does reaches both."""

    GEOMETRIES = [pytest.param((1024, 4096), 64, 0, id="64-0"),
                  pytest.param((1024, 4096), 4000, 1, id="4000-1"),
                  pytest.param((2, (1 << 21) + 3), 1 << 22, 1, id="4194304-1")]

    @staticmethod
    def tensor(shape):
        w = np.random.default_rng(6).standard_normal(shape, dtype=np.float32)
        assert w.size >= 1 << 22
        return w

    @staticmethod
    def slab_bytes(dims, B, axis):
        return max(part.stop - part.start
                   for *_, part in bq._slab_layout(dims, axis, B))

    @pytest.mark.parametrize("shape, B, axis", GEOMETRIES)
    def test_quantize_report(self, capsys, tmp_path, nf4_file, shape, B, axis):
        src, fqz = tmp_path / "w.fqt", tmp_path / "w.fqz"
        bq.tensor_write(self.tensor(shape), src)
        code, out, peak = traced_run(capsys, "quantize", str(src), str(fqz),
                                     "--code", str(nf4_file), "--block-size", str(B),
                                     "--axis", str(axis), "--report")
        assert code == 0 and "mean_abs" in out
        assert peak < (4 * bq.qtensor_read(fqz).num_blocks + 24 * bq._CHUNK
                       + 2 * self.slab_bytes(shape, B, axis))

    @pytest.mark.parametrize("shape, B, axis", GEOMETRIES)
    def test_dequantize(self, capsys, tmp_path, shape, B, axis):
        fqz, out = tmp_path / "w.fqz", tmp_path / "back.fqt"
        qt = bq.quantize(self.tensor(shape), qc.nf4_code(), B, axis=axis)
        bq.qtensor_write(qt, fqz)
        code, _, peak = traced_run(capsys, "dequantize", str(fqz), str(out))
        assert code == 0
        assert peak < 16 * bq._CHUNK + self.slab_bytes(shape, B, axis)
        np.testing.assert_array_equal(bq.tensor_read(out), bq.dequantize(qt))

    @pytest.mark.parametrize("command", ["quantize", "dequantize"])
    def test_twice_the_rows_add_only_their_scales(self, capsys, tmp_path, nf4_file,
                                                  command):
        # B=64 down axis 0: the body grows by 2.25 MiB, the scales by
        # 256 KiB.  The 64 KiB allow for Python objects that the report
        # keeps per leaf, such as its list of leaf maxima: 10-20 KiB here.
        peaks, blocks = [], []
        for rows in (1024, 2048):
            w = np.random.default_rng(6).standard_normal((rows, 4096),
                                                         dtype=np.float32)
            src, fqz = tmp_path / "w.fqt", tmp_path / "w.fqz"
            bq.tensor_write(w, src)
            bq.qtensor_write(bq.quantize(w, qc.nf4_code(), 64), fqz)
            del w
            if command == "quantize":
                argv = ("quantize", str(src), str(tmp_path / "o.fqz"),
                        "--code", str(nf4_file), "--report")
            else:
                argv = ("dequantize", str(fqz), str(tmp_path / "back.fqt"))
            code, _, peak = traced_run(capsys, *argv)
            assert code == 0
            peaks.append(peak)
            blocks.append(rows * 4096 // 64)
        assert peaks[1] - peaks[0] <= 4 * (blocks[1] - blocks[0]) + (64 << 10)


class TestDist:
    def test_absmax_median(self, capsys):
        code, out, _ = run(capsys, "dist", "absmax-median", "--block-size", "4096")
        assert code == 0
        assert float(out) == pytest.approx(3.76, abs=0.01)

    def test_approx_cdf(self, capsys):
        code, out, _ = run(capsys, "dist", "approx-cdf", "--block-size", "32",
                           "--x", "0.5")
        assert float(out) == pytest.approx(0.8712, abs=5e-4)

    def test_cdf_at_atom(self, capsys):
        code, out, _ = run(capsys, "dist", "cdf", "--block-size", "32",
                           "--x", "-1")
        assert float(out) == 0.015625

    def test_quantile(self, capsys):
        code, out, _ = run(capsys, "dist", "quantile", "--block-size", "32",
                           "--p", "0.8728")
        assert float(out) == pytest.approx(0.5, abs=1e-3)

    def test_quantile_in_atom_is_usage_error(self, capsys):
        code, _, err = run(capsys, "dist", "quantile", "--block-size", "32",
                           "--p", "0.001")
        assert code == 1
        assert "atom" in err

    def test_missing_arg(self, capsys):
        code, _, err = run(capsys, "dist", "cdf", "--block-size", "32")
        assert code == 1

    @pytest.mark.parametrize("query, flag", [
        ("cdf", "--x"), ("approx-cdf", "--x"), ("quantile", "--p")])
    def test_missing_option_is_usage_error(self, capsys, query, flag):
        code, out, err = run(capsys, "dist", query, "--block-size", "32")
        assert code == 1 and out == ""
        assert err == (f"quantlab dist {query}: the following arguments are "
                       f"required: {flag}\n")

    @pytest.mark.parametrize("argv, unread", [
        (("cdf", "--x", "0.5", "--p", "0.3"), "--p 0.3"),
        (("approx-cdf", "--x", "0.5", "--p", "0.3"), "--p 0.3"),
        (("quantile", "--p", "0.3", "--x", "0.5"), "--x 0.5"),
        (("absmax-median", "--x", "0.5"), "--x 0.5"),
    ])
    def test_option_the_query_does_not_read_is_usage_error(self, capsys, argv,
                                                           unread):
        code, out, err = run(capsys, "dist", *argv)
        assert code == 1 and out == ""
        assert err == f"quantlab: unrecognized arguments: {unread}\n"

    @pytest.mark.parametrize("argv, arg, value", [
        (("cdf", "--x", "0.5"), "0.5", lambda: qd.fx_cdf(0.5, 32)),
        (("approx-cdf", "--x", "-0.25"), "-0.25",
         lambda: qd.fx_cdf_approx(-0.25, 32)),
        (("quantile", "--p", "0.3"), "0.3", lambda: qd.fx_quantile(0.3, 32)),
        (("absmax-median",), "", lambda: qd.absmax_median(32)),
    ])
    def test_csv(self, capsys, argv, arg, value):
        code, out, err = run(capsys, "dist", *argv, "--block-size", "32", "--csv")
        assert code == 0 and err == ""
        assert parse_csv(out) == (["query", "B", "arg", "value"],
                                  [[argv[0], "32", arg, format(value(), ".10g")]])

    @pytest.mark.parametrize("query, flag, B", [
        ("quantile", "--p", "32"), ("approx-cdf", "--x", "32"),
        ("cdf", "--x", "1"), ("cdf", "--x", "32"),
    ])
    def test_nan_argument_is_usage_error(self, capsys, query, flag, B):
        code, out, err = run(capsys, "dist", query, "--block-size", B, flag, "nan")
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("x, expected", [
        ("-1e-05", 0.4999906839), ("-inf", 0.0), ("-0.5", 0.1272210111)])
    def test_negative_value_as_separate_token(self, capsys, x, expected):
        code, out, err = run(capsys, "dist", "cdf", "--block-size", "32", "--x", x)
        assert code == 0 and err == ""
        assert float(out) == expected

    @settings(max_examples=200, deadline=None)
    @given(query=st.sampled_from(["cdf", "approx-cdf", "quantile"]),
           value=st.floats(), B=st.sampled_from([1, 2, 32, 4096]))
    def test_any_float_gives_exit_0_or_1(self, query, value, B):
        flag = "--p" if query == "quantile" else "--x"
        results = []
        for args in ([f"{flag}={value!r}"], [flag, repr(value)]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["dist", query, "--block-size", str(B), *args])
            results.append((code, out.getvalue(), err.getvalue()))
        assert results[0] == results[1]
        code, out, _ = results[0]
        assert code in (0, 1)
        if code == 0:
            assert math.isfinite(float(out))


class TestValidate:
    def test_usage_csv_shape(self, capsys):
        code, out, _ = run(capsys, "validate", "usage", "--kind", "nf4",
                           "--block-size", "64", "--n", "4096", "--seed", "1",
                           "--csv")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["quantity", "B", "n", "estimate", "stderr",
                          "analytic", "abs_diff"]
        assert len(rows) == 16
        props = np.array([float(r[3]) for r in rows])
        assert props.sum() == pytest.approx(1.0)
        assert props.min() < 0.04 and props.max() > 0.07

    def test_usage_assert_passes(self, capsys):
        code, _, _ = run(capsys, "validate", "usage", "--kind", "nf4",
                         "--block-size", "64", "--n", "8192", "--seed", "2",
                         "--csv", "--assert")
        assert code == 0

    def test_assert_catches_biased_estimator(self, capsys, monkeypatch):
        # simulate a broken estimator: shift every proportion well past the
        # 4-sigma gate and expect exit code 3
        import quantlab.cli as cli
        import quantlab.montecarlo as qmc

        real = qmc.usage_statistics

        def biased(cfg, code):
            props, _ = real(cfg, code)
            return props, np.full(16, 1e-6)

        monkeypatch.setattr(cli.montecarlo, "usage_statistics", biased)
        code, out, err = run(capsys, "validate", "usage", "--kind", "nf4",
                             "--block-size", "64", "--n", "256",
                             "--seed", "3", "--csv", "--assert")
        assert code == 3
        assert "ASSERT FAILED" not in out  # diagnostics go to stderr
        assert "ASSERT FAILED" in err

    def test_cdf_assert_without_hits_passes(self, capsys):
        # P[X <= -1] = 1/8192, so no hit in 100 blocks is the likeliest
        # outcome; its plug-in stderr is 0, but the test uses the binomial
        # error of the analytic value
        code, out, err = run(capsys, "validate", "cdf", "--block-size", "4096",
                             "--n", "100", "--csv", "--assert")
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert rows[0][:6] == ["cdf[x=-1]", "4096", "100", "0", "0", "0.0001220703125"]

    def test_cdf_assert_catches_biased_estimator(self, capsys, monkeypatch):
        import quantlab.cli as cli

        real = cli.montecarlo.empirical_cdf_stream

        def biased(cfg, xs):
            p, stderr = real(cfg, xs)
            return np.minimum(p + 0.05, 1.0), stderr

        monkeypatch.setattr(cli.montecarlo, "empirical_cdf_stream", biased)
        code, _, err = run(capsys, "validate", "cdf", "--block-size", "32",
                           "--n", "4096", "--csv", "--assert")
        assert code == 3
        assert err.startswith("ASSERT FAILED: cdf[x=-1]: ")

    @pytest.mark.parametrize("report, row", [("usage", "usage[7]"),
                                             ("l1", "expected_l1")])
    def test_zero_stderr_under_assert_is_usage_error(self, capsys, monkeypatch,
                                                     report, row):
        if report == "l1":
            # two blocks never share a mean distance; force the zero spread
            import quantlab.cli as cli

            real = cli.montecarlo.l1_statistics
            monkeypatch.setattr(cli.montecarlo, "l1_statistics",
                                lambda cfg, code: (real(cfg, code)[0], 0.0))
        code, out, err = run(capsys, "validate", report, "--kind", "nf4",
                             "--block-size", "64", "--n", "2", "--csv", "--assert")
        assert code == 1
        assert err == f"too few blocks to test {row}: its standard error is 0\n"
        assert parse_csv(out)[0][0] == "quantity"  # the table is still printed

    def test_cdf_grid(self, capsys):
        code, out, _ = run(capsys, "validate", "cdf", "--block-size", "32",
                           "--n", "16384", "--seed", "4", "--csv", "--assert")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 33
        for r in rows:
            assert abs(float(r[3]) - float(r[5])) <= 4 * max(float(r[4]), 1e-9)

    def test_l1_af4_below_nf4(self, capsys, tmp_path):
        results = {}
        for kind in ("nf4", "af4"):
            code, out, _ = run(capsys, "validate", "l1", "--kind", kind,
                               "--block-size", "4096", "--n", "256",
                               "--seed", "5", "--csv")
            assert code == 0
            _, rows = parse_csv(out)
            results[kind] = (float(rows[0][3]), float(rows[0][5]))
        assert results["af4"][0] < results["nf4"][0]  # MC estimate
        assert results["af4"][1] < results["nf4"][1]  # analytic

    @pytest.mark.parametrize("report", ["usage", "cdf", "l1"])
    @pytest.mark.parametrize("n", ["1", "0"])
    def test_fewer_than_two_blocks_is_usage_error(self, capsys, report, n):
        kind = () if report == "cdf" else ("--kind", "nf4")
        code, out, err = run(capsys, "validate", report, *kind,
                             "--n", n, "--csv", "--assert")
        assert code == 1 and out == ""
        assert err == f"validate needs --n >= 2 blocks for a standard error, got {n}\n"

    @pytest.mark.parametrize("report, rows, n", [
        ("cdf", 33, 5), ("usage", 16, 5 * 3), ("l1", 1, 5 * 3)])
    def test_n_column(self, capsys, report, rows, n):
        # cdf keeps entry 0 of each block; usage and l1 count every entry
        kind = () if report == "cdf" else ("--kind", "nf4")
        code, out, _ = run(capsys, "validate", report, *kind,
                           "--block-size", "3", "--n", "5", "--csv")
        assert code == 0
        _, body = parse_csv(out)
        assert len(body) == rows
        assert {(r[1], r[2]) for r in body} == {("3", str(n))}

    @pytest.mark.parametrize("option", [
        ("--code", "/nonexistent"), ("--kind", "af4"),
        ("--variant", "average-of-quantile")])
    def test_cdf_takes_no_code_options(self, capsys, option):
        code, out, err = run(capsys, "validate", "cdf", *option, "--n", "4",
                             "--block-size", "4", "--csv")
        assert code == 1 and out == ""
        assert err == "validate cdf takes no --code, --kind or --variant\n"

    def test_requires_code_or_kind(self, capsys):
        code, _, err = run(capsys, "validate", "usage", "--block-size", "64")
        assert code == 1

    @pytest.mark.parametrize("report", ["usage", "l1"])
    @pytest.mark.parametrize("source", ["--code", "--kind af4"])
    def test_variant_without_kind_nf4_is_usage_error(self, capsys, tmp_path,
                                                     nf4_file, report, source):
        code_args = (["--code", str(nf4_file)] if source == "--code"
                     else ["--kind", "af4"])
        code, out, err = run(capsys, "validate", report, *code_args, "--n", "2",
                             "--variant", "average-of-quantile")
        assert code == 1 and out == ""
        assert err == "--variant goes only with --kind nf4\n"

    @pytest.mark.parametrize("report", ["usage", "l1"])
    def test_code_with_kind_is_usage_error(self, capsys, nf4_file, report):
        assert run(capsys, "validate", report, "--code", str(nf4_file), "--kind",
                   "af4", "--block-size", "64", "--n", "2") == (
            1, "", "give --code or --kind, not both\n")


@pytest.mark.parametrize("argv", [
    ("validate", "cdf", "--n", "2"),
    ("mc", "sample", "--n", "2"),
])
def test_unsampleable_block_size_is_usage_error(capsys, argv):
    # 2^40 entries per block would ask for terabytes before the first draw
    code, out, err = run(capsys, *argv, "--block-size", str(1 << 40))
    assert code == 1 and out == ""
    assert err.startswith("error: block size must be <=")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("dist", "cdf", "--x", "0.5"), ("dist", "approx-cdf", "--x", "0.5"),
    ("dist", "quantile", "--p", "0.3"), ("dist", "absmax-median"),
    ("code", "gen", "--kind", "af4"),
])
def test_largest_block_size_is_two_to_the_53(capsys, argv):
    # Beyond 2^53, 0.5 ** (1/B) rounds to 1: the absmax median is infinite.
    code, out, err = run(capsys, *argv, "--block-size", str(1 << 53))
    assert code == 0 and err == ""
    assert all(math.isfinite(float(v)) for v in out.split())
    code, out, err = run(capsys, *argv, "--block-size", str((1 << 53) + 1))
    assert code == 1 and out == ""
    assert err == f"error: block size must be <= {1 << 53}, got {(1 << 53) + 1}\n"


def fresh_python(script):
    """Run ``script`` in a new interpreter that imports this quantlab;
    return its stdout lines."""
    src = os.path.dirname(os.path.dirname(quantlab.__file__))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=src),
                            timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_scipy_optimize_is_never_imported():
    # The root finder is the package's own; scipy.optimize would add about
    # 0.25 s and 23 MiB to every command's start.
    assert fresh_python("""if True:
        import contextlib, io, sys
        loaded = lambda: sorted(m for m in sys.modules if m.startswith("scipy.optimize"))
        import quantlab
        print("import quantlab", loaded())
        import quantlab.cli
        print("import quantlab.cli", loaded())
        for argv in (["code", "gen", "--kind", "af4", "--block-size", "64"],
                     ["dist", "quantile", "--p", "0.3"]):
            with contextlib.redirect_stdout(io.StringIO()):
                code = quantlab.cli.main(argv)
            print(" ".join(argv), code, loaded())
    """) == ["import quantlab []", "import quantlab.cli []",
             "code gen --kind af4 --block-size 64 0 []", "dist quantile --p 0.3 0 []"]


PUBLIC_NAMES = [
    "BinEdges", "Code16", "ConstructionError", "DataError", "DomainError",
    "FormatError", "McConfig", "NumericalError", "QuantLabError",
    "QuantizedTensor", "ScaledMaxDistribution", "absmax_median", "absmax_pdf",
    "af4_code", "balanced_code", "balanced_code_with_endpoints",
    "code_bin_masses", "code_read", "code_write", "dequantize",
    "empirical_cdf_stream", "expected_l1", "feasible_seed_interval", "fx_cdf",
    "fx_cdf_approx", "fx_quantile", "halfnormal_quantile", "l1_statistics",
    "median_condition_residuals", "nf4_code", "normal_quantile", "qtensor_read",
    "qtensor_write", "quantize", "reconstruction_errors", "sample_block_values",
    "scaled_max_distribution", "stationarity_step", "tensor_read", "tensor_write",
    "trunc_normal_cdf", "uniform_bins", "usage_histogram", "usage_statistics",
]


def test_import_contract():
    """``import quantlab`` loads no other module: each public name imports
    its module on first use, and is that module's own object."""
    assert fresh_python("""if True:
        import sys
        import quantlab
        print("import quantlab", sorted(m for m in sys.modules if m.startswith(
            ("scipy", "quantlab."))))
        print("dir", set(quantlab.__all__) <= set(dir(quantlab)))
        try:
            quantlab.no_such_name
        except AttributeError as exc:
            print(exc)
        star = {}
        exec("from quantlab import *", star)
        star.pop("__builtins__")
        print("star", sorted(star) == quantlab.__all__)
        print(" ".join(quantlab.__all__))
        for name in quantlab.__all__:
            obj = getattr(quantlab, name)
            module = "quantlab." + quantlab._OWNER[name]
            if star[name] is not obj or obj.__module__ != module:
                print("not its module's object:", name)
    """) == ["import quantlab []", "dir True",
             "module 'quantlab' has no attribute 'no_such_name'", "star True",
             " ".join(PUBLIC_NAMES)]


class TestFailedWrites:
    """An output that cannot be written whole is not written at all: under a
    1 MiB RLIMIT_FSIZE a command exits 2 with one error line, leaves no
    partial file and keeps an existing target as it was."""

    @pytest.fixture
    def commands(self, tmp_path):
        w = np.random.default_rng(5).standard_normal((1024, 512), dtype=np.float32)
        fqz = tmp_path / "w.fqz"
        bq.qtensor_write(bq.quantize(w, qc.nf4_code(), 64), fqz)
        return {  # each output is 2 MiB or more
            "mc sample": ["mc", "sample", "--block-size", "64", "--n", "20000",
                          "--out"],
            "dequantize": ["dequantize", str(fqz)],
        }

    @pytest.mark.parametrize("command", ["mc sample", "dequantize"])
    @pytest.mark.parametrize("existing", [None, b"an earlier, good file"])
    def test_nothing_half_written(self, tmp_path, commands, command, existing):
        pytest.importorskip("resource")
        target = tmp_path / "out.fqt"
        if existing is not None:
            target.write_bytes(existing)
        before = sorted(tmp_path.iterdir())
        script = """if True:
            import resource, signal, sys
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 20, 1 << 20))
            from quantlab.cli import main
            sys.exit(main(sys.argv[1:]))
        """
        src = os.path.dirname(os.path.dirname(quantlab.__file__))
        result = subprocess.run(
            [sys.executable, "-c", script, *commands[command], str(target)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"))
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == before
        if existing is not None:
            assert target.read_bytes() == existing

    @pytest.mark.parametrize("mode", [0o600, 0o640], ids=["0600", "0640"])
    def test_rewritten_output_keeps_its_permissions(self, capsys, tmp_path,
                                                    commands, mode):
        target = tmp_path / "out.fqt"
        target.write_bytes(b"an earlier file")
        target.chmod(mode)
        old_umask = os.umask(0o022)
        try:
            assert run(capsys, *commands["dequantize"], str(target))[0] == 0
        finally:
            os.umask(old_umask)
        assert bq.tensor_read(target).shape == (1024, 512)
        assert os.stat(target).st_mode & 0o7777 == mode

    @pytest.mark.parametrize("command", ["mc sample", "dequantize"])
    def test_same_command_unlimited_writes_the_file(self, capsys, tmp_path,
                                                    commands, command):
        target = tmp_path / "out.fqt"
        target.write_bytes(b"an earlier file")
        assert run(capsys, *commands[command], str(target))[0] == 0
        assert bq.tensor_read(target).nbytes >= 2 << 20
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.fqt", "w.fqz"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("command", ["quantize", "dequantize"])
def test_lying_header_on_a_pipe_is_a_format_error(capsys, tmp_path, command):
    # The header declares 256 MiB (FQT1) or 144 MiB (FQZ1) of payload, the
    # pipe holds 8 bytes of it.  A pipe has no size to check up front, so
    # the reader takes it in bounded pieces.
    code_path = tmp_path / "nf4.json"
    qc.code_write(qc.nf4_code(), code_path)
    if command == "quantize":
        data = b"FQT1" + struct.pack("<BBI", 0, 1, 1 << 26)
        options = ("--code", str(code_path))
    else:
        data = (b"FQZ1" + struct.pack("<BBIIBB", 1, 1, 1 << 28, 64, 0, 16)
                + qc.nf4_code().values.astype("<f4").tobytes())
        options = ()
    fifo = tmp_path / "input"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data + bytes(8),),
                              daemon=True)
    writer.start()
    tracemalloc.start()
    try:
        code, out, err = run(capsys, command, str(fifo), str(tmp_path / "out"),
                             *options)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "truncated" in err
    assert err.count("\n") == 1
    assert peak < 8 << 20


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("command", ["quantize", "dequantize"])
def test_input_on_a_pipe_gives_the_same_output(capsys, monkeypatch, tmp_path,
                                               command):
    # A pipe is read whole and then walked slab by slab like a file; small
    # chunks make many slabs.
    monkeypatch.setattr(bq, "_CHUNK", 256)
    w = np.random.default_rng(4).standard_normal((30, 50)).astype(np.float32)
    code_path, src = tmp_path / "nf4.json", tmp_path / "input"
    qc.code_write(qc.nf4_code(), code_path)
    if command == "quantize":
        bq.tensor_write(w, src)
        options = ("--code", str(code_path), "--block-size", "7", "--report")
    else:
        bq.qtensor_write(bq.quantize(w, qc.nf4_code(), 7, axis=1), src)
        options = ()
    expected = run(capsys, command, str(src), str(tmp_path / "from-file"), *options)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(src.read_bytes(),),
                              daemon=True)
    writer.start()
    try:
        got = run(capsys, command, str(fifo), str(tmp_path / "from-pipe"), *options)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert got == expected and got[0] == 0
    assert ((tmp_path / "from-pipe").read_bytes()
            == (tmp_path / "from-file").read_bytes())


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("case", ["nan last", "negative last scale",
                                  "body one byte short"])
def test_no_output_byte_on_a_data_or_format_error(capsys, monkeypatch, tmp_path,
                                                  case):
    # An output that is a pipe is written in place, so every check must run
    # before the first byte.  Small chunks make many slabs, and the fault is
    # in the last one.  The reader end is opened first, without blocking,
    # so that opening the output would not block either.
    monkeypatch.setattr(bq, "_CHUNK", 256)
    w = np.random.default_rng(3).standard_normal((32, 40)).astype(np.float32)
    code_path, src = tmp_path / "nf4.json", tmp_path / "input"
    qc.code_write(qc.nf4_code(), code_path)
    if case == "nan last":
        w[-1, -1] = np.nan
        bq.tensor_write(w, src)
        argv = ("quantize", str(src), "--code", str(code_path), "--block-size", "8")
    else:
        bq.qtensor_write(bq.quantize(w, qc.nf4_code(), 8), src)
        data = bytearray(src.read_bytes())
        if case == "negative last scale":
            # B=8 down axis 0: every record is a scale and 4 index bytes
            data[-8:-4] = struct.pack("<f", -1.0)
        else:
            del data[-1]
        src.write_bytes(bytes(data))
        argv = ("dequantize", str(src))
    fifo = tmp_path / "out"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        code, out, err = run(capsys, *argv[:2], str(fifo), *argv[2:])
        try:
            received = os.read(reader, 1 << 16)
        except BlockingIOError:
            received = b""
    finally:
        os.close(reader)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert received == b""


def test_scales_changed_between_the_passes(capsys, monkeypatch, tmp_path):
    # dequantize checks every scale before it opens the output, and each
    # slab's scales again as it reads the slab back: a scale made negative
    # in between fails the run, and a regular output is left as it was.
    monkeypatch.setattr(bq, "_CHUNK", 256)
    w = np.random.default_rng(3).standard_normal((32, 40)).astype(np.float32)
    src, out = tmp_path / "w.fqz", tmp_path / "back.fqt"
    bq.qtensor_write(bq.quantize(w, qc.nf4_code(), 8), src)
    real = bq.tensor_writer

    def corrupting(dims, path):
        data = bytearray(src.read_bytes())
        data[-8:-4] = struct.pack("<f", -1.0)  # the last record's scale
        src.write_bytes(bytes(data))
        return real(dims, path)

    monkeypatch.setattr(bq, "tensor_writer", corrupting)
    assert run(capsys, "dequantize", str(src), str(out)) == (
        2, "", f"error: {src}: block scales must be finite and nonnegative\n")
    assert not out.exists()


def test_colliding_code_fails_before_the_tensor_is_read(capsys, monkeypatch,
                                                        tmp_path):
    # quantize builds the FQZ1 header before its first pass, so a code the
    # header cannot hold fails ahead of the NaN in the tensor, and no
    # element is read.
    values = np.linspace(-1, 1, 16)
    values[3] = np.nextafter(values[4], -2.0)  # distinct only in float64
    code_path, src, dst = tmp_path / "c.json", tmp_path / "w.fqt", tmp_path / "w.fqz"
    qc.code_write(qc.Code16(values), code_path)
    bq.tensor_write(np.full((4, 8), np.nan, dtype=np.float32), src)
    real, calls = bq._payload, []

    def counted(*args):
        read = real(*args)
        return lambda offset, out: calls.append(offset) or read(offset, out)

    monkeypatch.setattr(bq, "_payload", counted)
    assert run(capsys, "quantize", str(src), str(dst), "--code", str(code_path),
               "--block-size", "8") == (
        2, "", "error: code values collide after float32 rounding; cannot serialize\n")
    assert calls == [] and not dst.exists()


class TestMcSample:
    def test_summary_and_out(self, capsys, tmp_path):
        out_path = tmp_path / "samples.fqt"
        code, out, _ = run(capsys, "mc", "sample", "--block-size", "32",
                           "--n", "2048", "--seed", "6", "--csv",
                           "--out", str(out_path))
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["quantity", "B", "n", "estimate", "stderr"]
        quantities = {r[0]: float(r[3]) for r in rows}
        assert quantities["abs_extreme_frac"] == pytest.approx(1 / 32, abs=1e-12)
        values = bq.tensor_read(out_path)
        assert values.shape == (2048, 32)
        assert np.all(np.abs(values).max(axis=1) == 1.0)

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "mc", "sample", "--n", "128", "--seed", "9",
                         "--csv")
        _, out2, _ = run(capsys, "mc", "sample", "--n", "128", "--seed", "9",
                         "--csv")
        assert out1 == out2

    def test_chunks_do_not_change_the_output(self, capsys, tmp_path, monkeypatch):
        # Drawn, written and counted chunk by chunk: uneven chunks of 7
        # blocks give the bytes and the summary of one chunk.
        argv = ("mc", "sample", "--block-size", "32", "--n", "100", "--seed", "3",
                "--csv", "--out")
        _, whole, _ = run(capsys, *argv, str(tmp_path / "whole.fqt"))
        monkeypatch.setattr(qmc, "CHUNK_ELEMENTS", 7 * 32)
        _, chunked, _ = run(capsys, *argv, str(tmp_path / "chunked.fqt"))
        assert chunked == whole
        assert ((tmp_path / "chunked.fqt").read_bytes()
                == (tmp_path / "whole.fqt").read_bytes())

    @pytest.mark.parametrize("B", [5, 32])
    def test_batches_do_not_change_the_output(self, B, capsys, tmp_path, monkeypatch):
        # Batches of 1, 3 and 7 blocks in chunks of 50 write the bytes and
        # print the summary of one batch per chunk.
        argv = ("mc", "sample", "--block-size", str(B), "--n", "230", "--seed", "3",
                "--csv", "--out")
        monkeypatch.setattr(qmc, "CHUNK_ELEMENTS", 50 * B)
        monkeypatch.setattr(qmc, "_BATCH_ELEMENTS", 50 * B)
        _, whole, _ = run(capsys, *argv, str(tmp_path / "whole.fqt"))
        for blocks in (1, 3, 7):
            monkeypatch.setattr(qmc, "_BATCH_ELEMENTS", blocks * B)
            path = tmp_path / f"batch{blocks}.fqt"
            _, out, _ = run(capsys, *argv, str(path))
            assert out == whole
            assert path.read_bytes() == (tmp_path / "whole.fqt").read_bytes()

    @pytest.mark.parametrize("B", [1, 5, 32, 4096])
    def test_threads_do_not_change_the_output(self, B, capsys, tmp_path, monkeypatch):
        # Batches of 7 blocks shared among one, two and three threads, in
        # chunks of 50, write the same bytes and print the same summary.
        argv = ("mc", "sample", "--block-size", str(B), "--n", "230", "--seed", "3",
                "--csv", "--out")
        monkeypatch.setattr(qmc, "CHUNK_ELEMENTS", 50 * B)
        monkeypatch.setattr(qmc, "_BATCH_ELEMENTS", 7 * B)
        monkeypatch.setattr(qmc, "_THREADS", 1)
        _, one, _ = run(capsys, *argv, str(tmp_path / "one.fqt"))
        for threads in (2, 3):
            monkeypatch.setattr(qmc, "_THREADS", threads)
            path = tmp_path / f"threads{threads}.fqt"
            _, out, _ = run(capsys, *argv, str(path))
            assert out == one
            assert path.read_bytes() == (tmp_path / "one.fqt").read_bytes()

    def test_stderr_is_clustered_by_block(self, capsys):
        # Over K seeds, (K-1) var(estimates) / mean(stderr^2) follows
        # chi2(K-1) when the printed stderr is the true one.  Entries of a
        # block share its absmax, so counting them as independent (p(1-p)
        # over n*B entries) overstates the atom fractions' error and falls
        # below the lower bound.
        K = 200
        est, se = [], []
        for seed in range(K):
            code, out, _ = run(capsys, "mc", "sample", "--block-size", "32",
                               "--n", "1024", "--seed", str(seed), "--csv")
            assert code == 0
            _, rows = parse_csv(out)
            est.append([float(r[3]) for r in rows])
            se.append([float(r[4]) for r in rows])
        est, se = np.array(est), np.array(se)
        # Exactly one entry per block has |x| = 1: no error at all.
        assert np.all(est[:, 0] == 1 / 32) and np.all(se[:, 0] == 0.0)
        lo, hi = chdtri(K - 1, 0.9995), chdtri(K - 1, 0.0005)
        for j in (1, 2):  # atom_neg_frac, atom_pos_frac
            stat = (K - 1) * est[:, j].var(ddof=1) / np.mean(se[:, j] ** 2)
            assert lo < stat < hi, (j, stat, lo, hi)

    def test_one_block_is_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "samples.fqt"
        code, out, err = run(capsys, "mc", "sample", "--n", "1",
                             "--out", str(out_path))
        assert code == 1 and out == ""
        assert err == "mc sample needs --n >= 2 blocks for a standard error, got 1\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("n", [1 << 32, 10 ** 11])
    def test_run_the_header_cannot_hold_fails_before_any_draw(self, tmp_path, n):
        # 2^32 blocks of 32 would be 1 TiB of draws; under a 1 GiB address
        # space limit the header check must come first.
        resource = pytest.importorskip("resource")
        out_path = tmp_path / "samples.fqt"
        src = os.path.dirname(os.path.dirname(quantlab.__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        result = subprocess.run(
            [sys.executable, "-m", "quantlab.cli", "mc", "sample", "--block-size",
             "32", "--n", str(n), "--out", str(out_path)],
            capture_output=True, text=True, env=env, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (1 << 30, 1 << 30)))
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr == f"error: extent {n} overflows the 32-bit header\n"
        assert not out_path.exists()


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_unknown_flag(self, capsys):
        assert run(capsys, "dist", "cdf", "--frobnicate", "1")[0] == 1

    @pytest.mark.parametrize("error, expected", [
        (DomainError, 1), (DataError, 2), (FormatError, 2), (OSError, 2),
        (NumericalError, 3), (ConstructionError, 3)])
    def test_library_error_maps_to_exit_code(self, capsys, monkeypatch, error,
                                             expected):
        def fail(args):
            raise error("boom")

        monkeypatch.setattr(cli, "cmd_dist", fail)
        code, out, err = run(capsys, "dist", "absmax-median")
        assert code == expected and out == ""
        assert err == "error: boom\n"

    def test_interrupt_exits_130(self, capsys, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_dist", interrupted)
        assert run(capsys, "dist", "absmax-median") == (130, "", "error: interrupted\n")

    def test_sigint_during_a_run_exits_130(self, tmp_path):
        # The run announces its first Monte Carlo batch on stderr; SIGINT
        # follows it, a billion blocks before the run could end.
        script = """import sys
from quantlab import cli, montecarlo
run = montecarlo._in_order
def announced(fn, ranges):
    for i, result in enumerate(run(fn, ranges)):
        if i == 0:
            print("first batch", file=sys.stderr, flush=True)
        yield result
montecarlo._in_order = announced
sys.exit(cli.main(sys.argv[1:]))
"""
        src = os.path.dirname(os.path.dirname(quantlab.__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        with subprocess.Popen(
                [sys.executable, "-c", script, "validate", "cdf", "--n", "1000000000"],
                cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True) as proc:
            try:
                assert proc.stderr.readline() == "first batch\n"
                proc.send_signal(signal.SIGINT)
                out, err = proc.communicate(timeout=60)
            finally:
                proc.kill()
        assert (proc.returncode, out, err) == (130, "", "error: interrupted\n")
        assert list(tmp_path.iterdir()) == []
