"""Tests for the command-line surface: behavior, formats, and exit codes."""

import contextlib
import csv
import io
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quantlab.blockquant as bq
import quantlab.codebook as qc
from quantlab.cli import main


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
        assert ">= 9" in err

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
        assert err.startswith("error:") and "block_size" in err

    def test_block_size_overflowing_header_is_data_error(
            self, capsys, tmp_path, tensor_file, nf4_file):
        out_q = tmp_path / "o.fqz"
        code, _, err = run(capsys, "quantize", str(tensor_file), str(out_q),
                           "--code", str(nf4_file), "--block-size", str(1 << 32))
        assert code == 2
        assert err.startswith("error:") and len(err.splitlines()) == 1
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

        def biased(code, B, num_blocks, seed):
            stats = real(code, B, num_blocks, seed)
            return qmc.UsageStats(
                histogram=stats.histogram,
                stderr=np.full(16, 1e-6),
                num_blocks=stats.num_blocks,
            )

        monkeypatch.setattr(cli.montecarlo, "usage_statistics", biased)
        code, out, err = run(capsys, "validate", "usage", "--kind", "nf4",
                             "--block-size", "64", "--n", "256",
                             "--seed", "3", "--csv", "--assert")
        assert code == 3
        assert "ASSERT FAILED" not in out  # diagnostics go to stderr
        assert "ASSERT FAILED" in err

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
        code, out, err = run(capsys, "validate", report, "--kind", "nf4",
                             "--n", n, "--csv", "--assert")
        assert code == 1 and out == ""
        assert err == f"validate needs --n >= 2 blocks for a standard error, got {n}\n"

    def test_requires_code_or_kind(self, capsys):
        code, _, err = run(capsys, "validate", "usage", "--block-size", "64")
        assert code == 1


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


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_unknown_flag(self, capsys):
        assert run(capsys, "dist", "cdf", "--frobnicate", "1")[0] == 1

    def test_quad_tol_env_round_trips(self, capsys, monkeypatch):
        monkeypatch.setenv("QUANTLAB_QUAD_TOL", "1e-6")
        code, out, _ = run(capsys, "dist", "cdf", "--block-size", "32",
                           "--x", "0.5")
        assert code == 0
        assert float(out) == pytest.approx(0.87278, abs=1e-4)
        monkeypatch.setenv("QUANTLAB_QUAD_TOL", "not-a-number")
        assert run(capsys, "dist", "cdf", "--block-size", "32",
                   "--x", "0.5")[0] == 1
