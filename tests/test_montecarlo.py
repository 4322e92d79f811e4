"""Tests for the deterministic sampling process and its estimators."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import quantlab.blockquant as bq
import quantlab.codebook as qc
import quantlab.distributions as qd
import quantlab.montecarlo as qmc
from quantlab.errors import DomainError


class TestReproducibility:
    def test_identical_config_identical_values(self):
        cfg = qmc.McConfig(seed=123, block_size=32, num_blocks=2048)
        a = qmc.sample_block_values(cfg)
        b = qmc.sample_block_values(cfg)
        assert np.array_equal(a, b)

    def test_chunking_never_changes_values(self):
        cfg = qmc.McConfig(seed=7, block_size=16, num_blocks=1000)
        whole = qmc.sample_block_values(cfg)
        for blocks_per_chunk in (1, 7, 128, 999, 1000):
            parts = [qmc.sample_block_values(cfg, a, min(a + blocks_per_chunk, 1000))
                     for a in range(0, 1000, blocks_per_chunk)]
            assert len(parts) == -(-1000 // blocks_per_chunk)
            assert np.array_equal(np.concatenate(parts), whole)

    @pytest.mark.parametrize("B", [1, 3, 5, 8, 33])
    def test_sub_ranges_reproduce(self, B):
        cfg = qmc.McConfig(seed=99, block_size=B, num_blocks=100)
        whole = qmc.sample_block_values(cfg)
        for a, b in ((0, 100), (37, 47), (0, 1), (99, 100), (50, 50), (1, 98)):
            sub = qmc.sample_block_values(cfg, a, b)
            assert sub.shape == (b - a, B)
            np.testing.assert_array_equal(sub, whole[a:b])

    def test_invalid_range(self):
        cfg = qmc.McConfig(seed=99, block_size=8, num_blocks=10)
        for a, b in ((-1, 5), (5, 4), (0, 11)):
            with pytest.raises(DomainError, match="invalid block range"):
                qmc.sample_block_values(cfg, a, b)

    def test_block_bounds_are_integers(self):
        # numpy integers are the same bounds as Python's; a float or a bool
        # is no block number
        cfg = qmc.McConfig(seed=0, block_size=4, num_blocks=4)
        whole = qmc.sample_block_values(cfg)
        np.testing.assert_array_equal(
            qmc.sample_block_values(cfg, np.int64(1), np.uint8(3)), whole[1:3])
        np.testing.assert_array_equal(qmc.sample_block_values(cfg, np.int32(2)),
                                      whole[2:])
        for a, b in ((1.0, 3), (True, 3), (0, 3.0), (0, np.True_)):
            with pytest.raises(DomainError, match="must be an integer"):
                qmc.sample_block_values(cfg, a, b)

    def test_different_seeds_differ(self):
        a = qmc.sample_block_values(qmc.McConfig(seed=1, block_size=8, num_blocks=4))
        b = qmc.sample_block_values(qmc.McConfig(seed=2, block_size=8, num_blocks=4))
        assert not np.array_equal(a, b)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            qmc.McConfig(seed=0, block_size=0, num_blocks=1)
        with pytest.raises(DomainError):
            qmc.McConfig(seed=0, block_size=4, num_blocks=0)

    @pytest.mark.parametrize("block_size", [2.5, True, "8", -3])
    def test_block_size_must_be_positive_int(self, block_size):
        with pytest.raises(DomainError, match="block size must be"):
            qmc.McConfig(seed=0, block_size=block_size, num_blocks=3)

    def test_numpy_integer_block_size_is_stored_as_int(self):
        cfg = qmc.McConfig(seed=0, block_size=np.int64(64), num_blocks=2)
        assert cfg.block_size == 64 and type(cfg.block_size) is int

    def test_numpy_integer_seed_and_num_blocks_are_stored_as_int(self):
        cfg = qmc.McConfig(seed=np.uint64(5), block_size=8, num_blocks=np.int32(2))
        assert (cfg.seed, cfg.num_blocks) == (5, 2)
        assert type(cfg.seed) is int and type(cfg.num_blocks) is int

    @pytest.mark.parametrize("field, value", [
        ("num_blocks", 2.5), ("num_blocks", "3"), ("num_blocks", True),
        ("num_blocks", None), ("num_blocks", -2),
        ("seed", 2.5), ("seed", "3"), ("seed", True), ("seed", None)])
    def test_seed_and_num_blocks_must_be_integers(self, field, value):
        args = {"seed": 0, "block_size": 8, "num_blocks": 3, field: value}
        with pytest.raises(DomainError, match=f"{field} must be"):
            qmc.McConfig(**args)

    def test_block_size_capped_at_one_chunk(self):
        cap = qmc.MAX_BLOCK_SIZE
        assert cap == qmc.CHUNK_ELEMENTS
        assert qmc.McConfig(seed=0, block_size=cap, num_blocks=1).block_size == cap
        for block_size in (cap + 1, 1 << 40):
            with pytest.raises(DomainError, match=f"<= {cap}"):
                qmc.McConfig(seed=0, block_size=block_size, num_blocks=2)


class TestGenerativeProcess:
    def test_block_size_one_is_signs(self):
        cfg = qmc.McConfig(seed=5, block_size=1, num_blocks=4096)
        v = qmc.sample_block_values(cfg)
        assert set(np.unique(v)) == {-1.0, 1.0}
        p = np.mean(v == 1.0)
        assert abs(p - 0.5) <= 4 * math.sqrt(0.5 * 0.5 / v.size)

    def test_exactly_one_extreme_per_block(self):
        cfg = qmc.McConfig(seed=6, block_size=32, num_blocks=1 << 14)
        v = qmc.sample_block_values(cfg)
        assert np.all(np.abs(v).max(axis=1) == 1.0)
        assert np.all((np.abs(v) == 1.0).sum(axis=1) == 1)

    def test_extreme_fraction(self):
        B = 64
        cfg = qmc.McConfig(seed=8, block_size=B, num_blocks=1 << 14)
        v = qmc.sample_block_values(cfg)
        frac = np.mean(np.abs(v) == 1.0)
        se = np.sqrt((1 / B) * (1 - 1 / B) / cfg.num_blocks)  # one per block
        assert frac == 1 / B  # exact: always exactly one extreme per block
        for sign, expected in ((-1.0, 1 / (2 * B)), (1.0, 1 / (2 * B))):
            p = np.mean(v == sign)
            assert abs(p - expected) <= 4 * se

    def test_dependence_witness(self):
        cfg = qmc.McConfig(seed=9, block_size=16, num_blocks=1 << 16)
        v = qmc.sample_block_values(cfg)
        both = np.abs(v[:, 0] == 1.0) & (v[:, 1] == 1.0)
        assert not both.any()
        p = np.mean(v[:, 0] == 1.0)
        se = math.sqrt((1 / 32) * (1 - 1 / 32) / cfg.num_blocks)
        assert abs(p - 1 / 32) <= 4 * se


class TestEmpiricalCdf:
    def test_support_bound(self):
        cfg = qmc.McConfig(seed=10, block_size=8, num_blocks=64)
        (p,), (se,) = qmc.empirical_cdf_stream(cfg, 1.0)
        assert p == 1.0 and se == 0.0

    def test_symmetry_at_zero(self):
        cfg = qmc.McConfig(seed=12, block_size=32, num_blocks=1 << 14)
        (p,), (se,) = qmc.empirical_cdf_stream(cfg, 0.0)
        assert abs(p - 0.5) <= 4 * se

    def test_matches_exact_cdf_at_anchor(self):
        cfg = qmc.McConfig(seed=13, block_size=32, num_blocks=1 << 18)
        (p,), (se,) = qmc.empirical_cdf_stream(cfg, [0.5])
        assert abs(p - qd.fx_cdf(0.5, 32)) <= 4 * se
        assert p == pytest.approx(0.8728, abs=4 * se + 2e-5)

    def test_stream_matches_batch(self, monkeypatch):
        # 999-block chunks against the whole run held at once: entry 0 of
        # every block, counted once.
        xs = np.array([-1.0, -0.5, 0.0, 0.25, 0.9, 1.0])
        for B in (1, 3, 16, 100):
            cfg = qmc.McConfig(seed=14, block_size=B, num_blocks=5000)
            first = qmc.sample_block_values(cfg)[:, 0]
            monkeypatch.setattr(qmc, "CHUNK_ELEMENTS", B * 999)
            ps, ses = qmc.empirical_cdf_stream(cfg, xs)
            for x, p, se in zip(xs, ps, ses):
                pb = np.count_nonzero(first <= x) / first.size
                assert p == pb and se == math.sqrt(pb * (1.0 - pb) / first.size)

    def test_nan_x_is_rejected(self):
        cfg = qmc.McConfig(seed=14, block_size=8, num_blocks=10)
        with pytest.raises(DomainError, match="NaN"):
            qmc.empirical_cdf_stream(cfg, [0.0, np.nan])

    @pytest.mark.parametrize("B", [16, 64, 1024])
    def test_cdf_agreement_on_grid(self, B):
        cfg = qmc.McConfig(seed=15, block_size=B, num_blocks=1 << 15)
        xs = np.linspace(-0.9, 0.9, 13)
        for x, p, se in zip(xs, *qmc.empirical_cdf_stream(cfg, xs)):
            assert abs(p - qd.fx_cdf(x, B)) <= 4 * max(se, 1e-9)

    @pytest.mark.parametrize("B", [16, 64, 1024])
    def test_kolmogorov_smirnov(self, B):
        n = 1 << 15
        cfg = qmc.McConfig(seed=16, block_size=B, num_blocks=n)
        x = np.sort(qmc.sample_block_values(cfg)[:, 0])
        interior = (x > -1.0) & (x < 1.0)
        xi = x[interior]
        # exact CDF at every interior sample point; ECDF counts all samples
        lo = np.searchsorted(x, xi, side="left") / n
        hi = np.searchsorted(x, xi, side="right") / n
        f = np.array([qd.fx_cdf(v, B) for v in xi])
        ks = max(np.max(np.abs(f - lo)), np.max(np.abs(f - hi)))
        assert ks < 1.628 / np.sqrt(n)  # 99% critical value


# Adjacent raw draws whose u are adjacent doubles and where ndtri decreases
# (scipy's ndtri is monotone only up to rounding): near u = 0.9 and 1e-5.
_HI_PAIR = (16602069666351685632, 16602069666351685632 + 2048)
_LO_PAIR = (184467440738317, 184467440738318)


class TestFirstValues:
    """The CDF estimator's sampler: ndtri on entry 0 and the two extreme
    draws of each block, equal bit for bit to sample_block_values[:, 0]."""

    @staticmethod
    def _oracle(raw):
        z = ndtri(qmc._uniform(raw))
        return z[:, 0] / np.abs(z).max(axis=1)

    @pytest.mark.parametrize("B", [1, 2, 3, 5, 32, 64, 100])
    def test_matches_sample_block_values(self, B):
        n = 20000 // B + 50
        for seed in range(12):
            cfg = qmc.McConfig(seed=seed, block_size=B, num_blocks=n)
            for a, b in ((0, n), (37, 47), (n - 1, n), (1, n - 1)):
                raw = qmc._raw_block_range(cfg.seed, B, a, b)
                got = qmc._first_values(raw)
                want = qmc.sample_block_values(cfg, a, b)[:, 0]
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_natural_tie_takes_the_whole_block(self):
        # Block 16855 of seed 1 at B=64 has its two largest draws 8.1e9
        # raw units apart, inside the window.
        cfg = qmc.McConfig(seed=1, block_size=64, num_blocks=16860)
        raw = qmc._raw_block_range(cfg.seed, 64, 16850, 16860)
        tied = qmc._tied_extremes(raw, raw.min(axis=1), raw.max(axis=1))
        assert np.flatnonzero(tied).tolist() == [5]
        want = qmc.sample_block_values(cfg, 16850, 16860)[:, 0]
        assert np.array_equal(qmc._first_values(raw).view(np.int64),
                              want.view(np.int64))

    @pytest.mark.parametrize("pair, sign", [(_HI_PAIR, 1.0), (_LO_PAIR, -1.0)])
    def test_near_tie_blocks(self, pair, sign):
        inner, outer = pair if sign > 0 else pair[::-1]
        z_inner, z_outer = ndtri(qmc._uniform(np.array([inner, outer], np.uint64)))
        # The draw nearer the middle has the larger |z|.
        assert abs(z_inner) > abs(z_outer)
        mids = [2**62, 2**63, 3 * 2**62]
        rows = np.array([[inner, outer] + mids, [inner] + mids + [outer],
                         mids + [outer, inner]], dtype=np.uint64)
        lo, hi = rows.min(axis=1), rows.max(axis=1)
        assert qmc._tied_extremes(rows, lo, hi).all()
        got = qmc._first_values(rows)
        assert np.array_equal(got.view(np.int64), self._oracle(rows).view(np.int64))
        assert got[:2].tolist() == [sign, sign]
        # Without the window, the extremes alone would give |entry 0| > 1.
        ends = ndtri(qmc._uniform(np.stack([lo, hi], axis=1)))
        naive = ndtri(qmc._uniform(rows[:, 0])) / np.abs(ends).max(axis=1)
        assert np.all(np.abs(naive[:2]) > 1.0)

    def test_window_saturates_at_both_ends(self):
        w, top = int(qmc._TIE_WINDOW), 2**64 - 1
        rows, tied = zip(
            ([0, w], True), ([0, w + 1], False), ([3, 5], True),
            ([top, top - w], True), ([top, top - w - 1], False),
            ([top - 7, top], True), ([0, top], False),
            ([0, 2**63, top], False), ([top, 2**63, top - 1], True),
            ([1, 2**63, 0], True))
        for row, want in zip(rows, tied):
            raw = np.array([row], dtype=np.uint64)
            got = qmc._tied_extremes(raw, raw.min(axis=1), raw.max(axis=1))
            assert got.tolist() == [want], row
        for v in (0, 5, 2**62, top):  # a block of one draw is never tied
            raw = np.array([[v]], dtype=np.uint64)
            assert not qmc._tied_extremes(raw, raw[:, 0], raw[:, 0]).any()
            assert abs(qmc._first_values(raw)[0]) == 1.0

    def test_ndtri_decreases_only_inside_the_window(self):
        # Pins the measured non-monotonicity of ndtri that _TIE_WINDOW
        # relies on, over adjacent doubles (finer than the raw grid).
        starts = [1e-13, 1e-3, 0.05, 0.9] + [
            qmc._uniform(np.array([p[0]], np.uint64))[0] for p in (_HI_PAIR, _LO_PAIR)]
        drop = span = 0.0
        for c in starts:
            u = c + np.arange(-(1 << 14), 1 << 14) * np.spacing(c)
            z = ndtri(u)
            top = np.maximum.accumulate(z)
            j = np.flatnonzero(top[:-1] > z[1:]) + 1
            i = np.searchsorted(top, z[j], side="right")  # first larger z
            drop = max(drop, (top[j - 1] - z[j]).max(initial=0.0))
            span = max(span, (u[j] - u[i]).max(initial=0.0))
        assert drop <= 2.0**-50
        assert span * 2.0**64 < 2**13
        window_u = float(qmc._TIE_WINDOW) * 2.0**-64
        assert 2**13 * 2**20 <= int(qmc._TIE_WINDOW)
        assert math.sqrt(2 * math.pi) * window_u > 2**20 * drop


class TestUniform:
    def test_top_draws_stay_below_one(self):
        top = 2**64
        raw = np.array([0, 1, 2**53, 2**63, top - 2**11 - 1, top - 2**11,
                        top - 2**10 - 1, top - 2**10, top - 1], dtype=np.uint64)
        u = qmc._uniform(raw)
        below_one = np.nextafter(1.0, 0.0)
        assert u[-4:].tolist() == [below_one] * 4
        assert np.all(np.diff(u) >= 0) and u[0] > 0.0
        # Below the clamp, u is (raw + 0.5) * 2^-64, which at the top gives 1.
        plain = (raw.astype(np.float64) + 0.5) * 2.0**-64
        assert np.array_equal(u[:-2], plain[:-2]) and plain[-1] == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = ndtri(u)
            first = qmc._first_values(raw[:-6:-1].reshape(1, -1))
        assert np.isfinite(z).all() and first[0] == 1.0


def _uniform_reference(raw):
    """u through numpy's uint64 -> float64 cast: the oracle of the
    two-halves conversion in _uniform."""
    u = np.minimum(raw, qmc._RAW_CLAMP)
    u += 0.5
    u *= 2.0**-64
    return u


def _assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestUniformOracle:
    """_uniform converts each draw through its two 32-bit halves; every u is
    bit for bit what the plain cast gives."""

    def test_rounding_edges(self):
        clamp = int(qmc._RAW_CLAMP)
        edges = {0, 1, 2**53 - 1, 2**53, 2**53 + 1, clamp - 1, clamp, clamp + 1,
                 2**64 - 2**10, 2**64 - 1}
        for k in range(53, 64):
            half = 2 ** (k - 53)  # half the spacing of doubles in [2^k, 2^(k+1))
            # ties that round half to even down, up, and up to 2^(k+1)
            for odd in (1, 3, 2**53 - 1):
                tie = 2**k + odd * half
                edges |= {tie - 1, tie, tie + 1}
        raw = np.array(sorted(edges), dtype=np.uint64)
        _assert_same_bits(qmc._uniform(raw), _uniform_reference(raw))
        # the ties really are ties: the cast rounds them to even
        ties = np.array([2**k + half for k, half in ((53, 1), (63, 2**10))], np.uint64)
        assert ties.astype(np.float64).tolist() == [2.0**53, 2.0**63]

    @pytest.mark.parametrize("B", [1, 2, 3, 5, 7, 64])
    def test_draw_layouts(self, B):
        # (n, B) views of Philox rows padded to a multiple of 4 draws, as
        # _raw_block_range returns them, and strided columns and blocks.
        raw = qmc._raw_block_range(31, B, 1000, 1400)
        assert raw.flags.c_contiguous == (B % 4 == 0)
        for view in (raw, raw[:, 0], raw[::3, ::2], raw.T):
            _assert_same_bits(qmc._uniform(view), _uniform_reference(view))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.integers(0, 2**64 - 1),
        # near a power of two, where the spacing of doubles changes
        st.tuples(st.integers(0, 64), st.integers(-2**12, 2**12)).map(
            lambda kd: min(max(2**kd[0] + kd[1], 0), 2**64 - 1))),
        min_size=1, max_size=40))
    def test_matches_the_cast(self, values):
        raw = np.array(values, dtype=np.uint64)
        _assert_same_bits(qmc._uniform(raw), _uniform_reference(raw))


class TestBlocksAtOneHalf:
    """A block whose every draw maps to u = 0.5 has z == 0 throughout; it
    normalizes to all +1.0 instead of 0/0."""

    HALF = [2**63 - 2**9, 2**63, 2**63 + 2**10]  # the ends of u == 0.5

    @pytest.mark.parametrize("B", [1, 3])
    def test_half_blocks_are_all_plus_one(self, B, monkeypatch):
        raw = np.random.default_rng(B).integers(0, 2**64, (9, B), dtype=np.uint64)
        half = np.isin(np.arange(9), [1, 3, 6])
        raw[half] = [np.resize(self.HALF[k:] + self.HALF[:k], B) for k in range(3)]
        raw[8] = 2**63
        raw[8, -1] = 2**62  # one draw off u = 0.5
        assert np.all(qmc._uniform(raw[half]) == 0.5)
        monkeypatch.setattr(qmc, "_raw_block_range",
                            lambda seed, b, start, stop: raw[start:stop])
        cfg = qmc.McConfig(0, B, len(raw))

        values = qmc.sample_block_values(cfg)
        assert np.all(values[half] == 1.0)
        # every other row as the plain division gives it
        z = ndtri(qmc._uniform(raw[~half]))
        expected = z / np.abs(z).max(axis=1)[:, None]
        assert np.array_equal(values[~half].view(np.int64), expected.view(np.int64))

        for start, stop in [(0, 9), (1, 2), (3, 7)]:
            got = qmc._first_values(raw[start:stop])
            assert np.array_equal(got.view(np.int64),
                                  values[start:stop, 0].view(np.int64))
        xs = np.array([-1.0, 0.0, np.nextafter(1.0, 0.0), 1.0])
        p, stderr = qmc.empirical_cdf_stream(cfg, xs)
        counts = (values[:, :1] <= xs).sum(axis=0)
        assert np.array_equal(p, counts / 9) and p[-1] == 1.0
        assert np.all(np.isfinite(stderr))


class TestUsage:
    def test_determinism(self):
        code = qc.nf4_code()
        cfg = qmc.McConfig(seed=21, block_size=64, num_blocks=512)
        props_a, se_a = qmc.usage_statistics(cfg, code)
        props_b, se_b = qmc.usage_statistics(cfg, code)
        assert np.array_equal(props_a, props_b)
        assert np.array_equal(se_a, se_b)

    def test_nf4_band_at_64(self):
        cfg = qmc.McConfig(seed=22, block_size=64, num_blocks=1 << 14)
        props, _ = qmc.usage_statistics(cfg, qc.nf4_code())
        assert 0.01 < props.min() < 0.04
        assert 0.07 < props.max() < 0.11

    def test_balanced_uniform_at_4096(self):
        B = 4096
        cfg = qmc.McConfig(seed=23, block_size=B, num_blocks=1 << 9)
        props, stderr = qmc.usage_statistics(cfg, _balanced(B))
        dev = np.abs(props - 1 / 16)
        assert np.all(dev <= 4 * stderr)

    def test_outermost_usage_covers_extremes(self):
        code = qc.nf4_code()  # contains +/-1
        B = 64
        nblocks = 1 << 12
        cfg = qmc.McConfig(seed=24, block_size=B, num_blocks=nblocks)
        props, _ = qmc.usage_statistics(cfg, code)
        combined = props[0] + props[15]
        assert combined >= 1 / B

    def test_usage_matches_analytic_masses(self):
        B = 64
        code = qc.nf4_code()
        cfg = qmc.McConfig(seed=25, block_size=B, num_blocks=1 << 14)
        props, stderr = qmc.usage_statistics(cfg, code)
        analytic = qc.code_bin_masses(code, B)
        dev = np.abs(props - analytic)
        assert np.all(dev <= 4 * np.maximum(stderr, 1e-9))


    @pytest.mark.parametrize("B", [5, 64, 100])
    def test_statistics_match_quantize_oracle(self, B, monkeypatch):
        code = qc.nf4_code()
        cfg = qmc.McConfig(seed=26, block_size=B, num_blocks=300)
        values = qmc.sample_block_values(cfg)
        qt = bq.quantize(values, code, B, axis=1)
        monkeypatch.setattr(qmc, "CHUNK_ELEMENTS", 77 * B)
        usage, stderr = qmc.usage_statistics(cfg, code)
        counts = bq.usage_histogram(qt)
        assert np.array_equal(usage, counts / counts.sum())
        idx = bq.unpack_nibbles(qt.packed, B)
        props = np.array([np.bincount(row, minlength=16) for row in idx]) / B
        oracle = np.std(props, axis=0, ddof=1) / np.sqrt(300)
        np.testing.assert_allclose(stderr, oracle, rtol=1e-12, atol=0)

    def test_single_block_has_nan_stderr(self):
        cfg = qmc.McConfig(seed=27, block_size=64, num_blocks=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            props, stderr = qmc.usage_statistics(cfg, qc.nf4_code())
            mean, se = qmc.l1_statistics(cfg, qc.nf4_code())
        assert (props * 64).sum() == 64
        assert np.isnan(stderr).all() and math.isnan(se)
        assert 0.0 < mean < 1.0


class TestChunkBoundaries:
    """CHUNK_ELEMENTS only groups the sums: chunks of one block (also when
    a block exceeds CHUNK_ELEMENTS), an uneven last chunk and a single chunk
    give the same estimates."""

    @pytest.mark.parametrize("B", [1, 5, 32])
    def test_estimates_do_not_depend_on_chunking(self, B, monkeypatch):
        code = qc.nf4_code()
        xs = np.linspace(-1.0, 1.0, 9)
        nb = 50

        def estimates():
            cfg = qmc.McConfig(seed=28, block_size=B, num_blocks=nb)
            return (qmc.empirical_cdf_stream(cfg, xs),
                    qmc.usage_statistics(cfg, code),
                    qmc.l1_statistics(cfg, code))

        (p, se), (u, u_se), l1 = estimates()
        for elements in (1, B, 7 * B + 1, nb * B):
            monkeypatch.setattr(qmc, "CHUNK_ELEMENTS", elements)
            (p2, se2), (u2, u_se2), l1_2 = estimates()
            # Counts are exact integers, so these match bit for bit.
            assert np.array_equal(p2, p) and np.array_equal(se2, se)
            assert np.array_equal(u2, u) and np.array_equal(u_se2, u_se)
            # Block means are floats: where chunks split their sum, the
            # last bits round differently.
            assert l1_2 == pytest.approx(l1, rel=1e-12, abs=0)


class TestBatches:
    """_BATCH_ELEMENTS only sets the working set: batches of one, three and
    seven blocks, in chunks they do not divide, give the estimates of one
    batch per chunk bit for bit (also l1's float sums, which round by
    chunk)."""

    @pytest.mark.parametrize("B", [1, 5, 32])
    def test_estimates_do_not_depend_on_batches(self, B, monkeypatch):
        code = qc.nf4_code()
        xs = np.linspace(-1.0, 1.0, 9)
        cfg = qmc.McConfig(seed=29, block_size=B, num_blocks=230)
        # five chunks, the last of 30 blocks
        monkeypatch.setattr(qmc, "CHUNK_ELEMENTS", 50 * B)

        def estimates():
            results = (qmc.empirical_cdf_stream(cfg, xs),
                       qmc.usage_statistics(cfg, code),
                       qmc.l1_statistics(cfg, code))
            return [float(v).hex() for pair in results for part in pair
                    for v in np.ravel(part)]

        monkeypatch.setattr(qmc, "_BATCH_ELEMENTS", 50 * B)
        whole = estimates()
        for blocks in (1, 3, 7):
            monkeypatch.setattr(qmc, "_BATCH_ELEMENTS", blocks * B)
            assert estimates() == whole


def _traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(params=[1, 2, 4], ids=lambda t: f"threads{t}")
def threads(request, monkeypatch):
    monkeypatch.setattr(qmc, "_THREADS", request.param)
    return request.param


@pytest.mark.usefixtures("threads")
class TestBatchMemory:
    """Every estimator holds a fixed number of batches of float64, plus
    l1_statistics' per-block means of one chunk, however many blocks the
    run has, whatever the block size, at one, two and four threads (the
    module takes at most two; TestThreads checks sixteen).  Counts per
    block are int64 and never copied to float: at B = 1 usage_statistics'
    (blocks, 16) table and its square take 32 batches, where a chunk-sized
    table took 631 MiB."""

    @pytest.mark.parametrize("B", [1, 4, 64])
    def test_peaks_are_batches_not_chunks(self, B):
        unit = qmc._BATCH_ELEMENTS * 8
        assert unit <= 1 << 20  # a batch of float64 fits in a 1 MiB L2 cache
        code = qc.nf4_code()
        xs = np.linspace(-1.0, 1.0, 33)
        chunk_blocks = qmc.CHUNK_ELEMENTS // B
        for n in (chunk_blocks // 4, chunk_blocks):
            cfg = qmc.McConfig(seed=30, block_size=B, num_blocks=n)
            means = 8 * n
            assert _traced_peak(lambda: qmc.empirical_cdf_stream(cfg, xs)) <= 16 * unit
            assert _traced_peak(lambda: qmc.usage_statistics(cfg, code)) <= 40 * unit
            assert _traced_peak(lambda: qmc.l1_statistics(cfg, code)) <= 16 * unit + means

    @pytest.mark.parametrize("B", [1, 4, 64])
    def test_usage_table_fits_in_a_batch(self, B):
        # A batch holds at most _BATCH_ELEMENTS // 16 blocks, so the (blocks,
        # 16) int64 count table and its square take no more than the batch;
        # with _BATCH_ELEMENTS // B blocks they took 32 units at B = 1.
        unit = qmc._BATCH_ELEMENTS * 8
        cfg = qmc.McConfig(seed=30, block_size=B, num_blocks=qmc.CHUNK_ELEMENTS // B)
        assert _traced_peak(lambda: qmc.usage_statistics(cfg, qc.nf4_code())) <= 3 * unit


class TestThreads:
    """The pool only changes which thread runs a batch: every estimate is
    bit for bit the same at one, two and three threads, in chunks and
    batches that do not divide the run, and an error inside a batch
    reaches the caller as raised, with the pool's threads gone."""

    @pytest.mark.parametrize("B", [1, 5, 32, 4096])
    def test_estimates_do_not_depend_on_threads(self, B, monkeypatch):
        code = qc.nf4_code()
        xs = np.linspace(-1.0, 1.0, 9)
        cfg = qmc.McConfig(seed=31, block_size=B, num_blocks=230)
        monkeypatch.setattr(qmc, "CHUNK_ELEMENTS", 50 * B)
        monkeypatch.setattr(qmc, "_BATCH_ELEMENTS", 7 * B)

        def estimates(threads):
            monkeypatch.setattr(qmc, "_THREADS", threads)
            results = (qmc.empirical_cdf_stream(cfg, xs),
                       qmc.usage_statistics(cfg, code),
                       qmc.l1_statistics(cfg, code))
            return [float(v).hex() for pair in results for part in pair
                    for v in np.ravel(part)]

        one = estimates(1)
        assert estimates(2) == one
        assert estimates(3) == one

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("estimator", ["cdf", "usage", "l1"])
    def test_error_in_a_batch_propagates(self, estimator, threads, monkeypatch):
        cfg = qmc.McConfig(seed=32, block_size=16, num_blocks=400)
        monkeypatch.setattr(qmc, "_BATCH_ELEMENTS", 16 * 16)
        monkeypatch.setattr(qmc, "_THREADS", threads)
        error = RuntimeError("batch failed")
        draw = qmc._raw_block_range

        def failing(seed, block_size, start, stop):
            if start <= 100 < stop:
                raise error
            return draw(seed, block_size, start, stop)

        monkeypatch.setattr(qmc, "_raw_block_range", failing)
        run = {"cdf": lambda: qmc.empirical_cdf_stream(cfg, [0.0]),
               "usage": lambda: qmc.usage_statistics(cfg, qc.nf4_code()),
               "l1": lambda: qmc.l1_statistics(cfg, qc.nf4_code())}[estimator]
        baseline = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            run()
        assert info.value is error
        assert threading.active_count() == baseline

    def test_threads_leave_a_thread_two_to_the_fifteen_elements(self):
        # On 64 CPUs the pool still has _BATCH_ELEMENTS >> 15 threads.
        script = ("import os; os.sched_getaffinity = lambda pid: set(range(64))\n"
                  "from quantlab import montecarlo; print(montecarlo._THREADS)")
        src = os.path.dirname(os.path.dirname(qmc.__file__))
        result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                text=True, env=dict(os.environ, PYTHONPATH=src),
                                timeout=120)
        assert result.stdout == f"{qmc._BATCH_ELEMENTS >> 15}\n"

    @pytest.mark.parametrize("B", [1, 64])
    def test_memory_at_sixteen_threads(self, B, monkeypatch):
        # Past the module's own thread count the calls alive still share a
        # fixed number of batches, so TestBatchMemory's bounds hold.
        monkeypatch.setattr(qmc, "_THREADS", 16)
        unit = qmc._BATCH_ELEMENTS * 8
        n = qmc.CHUNK_ELEMENTS // B
        cfg = qmc.McConfig(seed=34, block_size=B, num_blocks=n)
        xs = np.linspace(-1.0, 1.0, 33)
        assert _traced_peak(lambda: qmc.empirical_cdf_stream(cfg, xs)) <= 16 * unit
        if B >= 16:  # smaller blocks split a batch 16 ways into too many calls
            code = qc.nf4_code()
            assert _traced_peak(lambda: qmc.usage_statistics(cfg, code)) <= 40 * unit
            assert _traced_peak(lambda: qmc.l1_statistics(cfg, code)) <= 16 * unit + 8 * n

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_error_in_per_block_propagates(self, threads, monkeypatch):
        cfg = qmc.McConfig(seed=33, block_size=16, num_blocks=400)
        monkeypatch.setattr(qmc, "_BATCH_ELEMENTS", 16 * 16)
        monkeypatch.setattr(qmc, "_THREADS", threads)
        error = RuntimeError("per_block failed")
        seen = []

        def per_block(values):
            seen.append(len(values))
            if len(seen) == 3:
                raise error
            return np.ones(len(values), dtype=np.int64)

        baseline = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            qmc.block_moments(cfg, per_block)
        assert info.value is error
        assert threading.active_count() == baseline


def _balanced(B):
    bins = qc.uniform_bins(B)
    lo, hi = qc.feasible_seed_interval(bins)
    return qc.balanced_code(0.5 * (lo + hi), bins, block_size=B)
