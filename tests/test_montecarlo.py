"""Tests for the deterministic sampling process and its estimators."""

import math
import warnings

import numpy as np
import pytest

import quantlab.blockquant as bq
import quantlab.codebook as qc
import quantlab.distributions as qd
import quantlab.montecarlo as qmc
from quantlab.errors import DomainError


class TestReproducibility:
    def test_identical_config_identical_values(self):
        cfg = qmc.McConfig(seed=123, block_size=32, num_blocks=2048)
        a = qmc.sample_blocks(cfg)
        b = qmc.sample_blocks(cfg)
        assert np.array_equal(a.values, b.values)

    def test_chunking_never_changes_values(self):
        base = qmc.McConfig(seed=7, block_size=16, num_blocks=1000, chunk_size=1000)
        whole = qmc.sample_blocks(base).values
        for chunk_size in (1, 7, 128, 999):
            cfg = qmc.McConfig(seed=7, block_size=16, num_blocks=1000,
                               chunk_size=chunk_size)
            parts = [c.values for c in qmc.iter_sample_chunks(cfg)]
            assert np.array_equal(np.concatenate(parts), whole)

    def test_block_offset_reproduces_sub_ranges(self):
        cfg = qmc.McConfig(seed=99, block_size=8, num_blocks=100)
        whole = qmc.sample_blocks(cfg).values
        sub = qmc.McConfig(seed=99, block_size=8, num_blocks=10, block_offset=37)
        np.testing.assert_array_equal(qmc.sample_blocks(sub).values, whole[37:47])

    def test_different_seeds_differ(self):
        a = qmc.sample_blocks(qmc.McConfig(seed=1, block_size=8, num_blocks=4))
        b = qmc.sample_blocks(qmc.McConfig(seed=2, block_size=8, num_blocks=4))
        assert not np.array_equal(a.values, b.values)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            qmc.McConfig(seed=0, block_size=0, num_blocks=1)
        with pytest.raises(DomainError):
            qmc.McConfig(seed=0, block_size=4, num_blocks=0)
        with pytest.raises(DomainError):
            qmc.McConfig(seed=0, block_size=4, num_blocks=1, chunk_size=0)


class TestGenerativeProcess:
    def test_block_size_one_is_signs(self):
        cfg = qmc.McConfig(seed=5, block_size=1, num_blocks=4096)
        v = qmc.sample_blocks(cfg).values
        assert set(np.unique(v)) == {-1.0, 1.0}
        p = np.mean(v == 1.0)
        assert abs(p - 0.5) <= 4 * qmc.ci_halfwidth(0.5, v.size, z=1.0)

    def test_exactly_one_extreme_per_block(self):
        cfg = qmc.McConfig(seed=6, block_size=32, num_blocks=1 << 14)
        v = qmc.sample_blocks(cfg).values
        assert np.all(np.abs(v).max(axis=1) == 1.0)
        assert np.all((np.abs(v) == 1.0).sum(axis=1) == 1)

    def test_extreme_fraction(self):
        B = 64
        cfg = qmc.McConfig(seed=8, block_size=B, num_blocks=1 << 14)
        v = qmc.sample_blocks(cfg).values
        frac = np.mean(np.abs(v) == 1.0)
        se = np.sqrt((1 / B) * (1 - 1 / B) / cfg.num_blocks)  # one per block
        assert frac == 1 / B  # exact: always exactly one extreme per block
        for sign, expected in ((-1.0, 1 / (2 * B)), (1.0, 1 / (2 * B))):
            p = np.mean(v == sign)
            assert abs(p - expected) <= 4 * se

    def test_dependence_witness(self):
        cfg = qmc.McConfig(seed=9, block_size=16, num_blocks=1 << 16)
        v = qmc.sample_blocks(cfg).values
        both = np.abs(v[:, 0] == 1.0) & (v[:, 1] == 1.0)
        assert not both.any()
        p = np.mean(v[:, 0] == 1.0)
        se = qmc.ci_halfwidth(1 / 32, cfg.num_blocks, z=1.0)
        assert abs(p - 1 / 32) <= 4 * se


class TestEmpiricalCdf:
    def test_support_bound(self):
        batch = qmc.sample_blocks(qmc.McConfig(seed=10, block_size=8, num_blocks=64))
        p, _ = qmc.empirical_cdf(batch, 1.0, independent_only=False)
        assert p == 1.0

    def test_symmetry_at_zero(self):
        batch = qmc.sample_blocks(
            qmc.McConfig(seed=12, block_size=32, num_blocks=1 << 14)
        )
        p, se = qmc.empirical_cdf(batch, 0.0)
        assert abs(p - 0.5) <= 4 * se

    def test_matches_exact_cdf_at_anchor(self):
        cfg = qmc.McConfig(seed=13, block_size=32, num_blocks=1 << 18)
        batch = qmc.sample_blocks(cfg)
        p, se = qmc.empirical_cdf(batch, 0.5, independent_only=True)
        assert abs(p - qd.fx_cdf(0.5, 32)) <= 4 * se
        assert p == pytest.approx(0.8728, abs=4 * se + 2e-5)

    def test_stream_matches_batch(self):
        cfg = qmc.McConfig(seed=14, block_size=16, num_blocks=5000, chunk_size=999)
        batch = qmc.sample_blocks(cfg)
        xs = np.array([-0.5, 0.0, 0.25, 0.9])
        ps, ses = qmc.empirical_cdf_stream(cfg, xs)
        for x, p, se in zip(xs, ps, ses):
            pb, seb = qmc.empirical_cdf(batch, x)
            assert p == pb and se == seb

    @pytest.mark.parametrize("B", [16, 64, 1024])
    def test_cdf_agreement_on_grid(self, B):
        cfg = qmc.McConfig(seed=15, block_size=B, num_blocks=1 << 15)
        batch = qmc.sample_blocks(cfg)
        for x in np.linspace(-0.9, 0.9, 13):
            p, se = qmc.empirical_cdf(batch, x)
            assert abs(p - qd.fx_cdf(x, B)) <= 4 * max(se, 1e-9)

    @pytest.mark.parametrize("B", [16, 64, 1024])
    def test_kolmogorov_smirnov(self, B):
        n = 1 << 15
        cfg = qmc.McConfig(seed=16, block_size=B, num_blocks=n)
        x = np.sort(qmc.sample_blocks(cfg).independent_samples)
        interior = (x > -1.0) & (x < 1.0)
        xi = x[interior]
        # exact CDF at every interior sample point; ECDF counts all samples
        lo = np.searchsorted(x, xi, side="left") / n
        hi = np.searchsorted(x, xi, side="right") / n
        f = np.array([qd.fx_cdf(v, B) for v in xi])
        ks = max(np.max(np.abs(f - lo)), np.max(np.abs(f - hi)))
        assert ks < 1.628 / np.sqrt(n)  # 99% critical value

    def test_dependent_mode_uses_all_samples(self):
        batch = qmc.sample_blocks(qmc.McConfig(seed=17, block_size=8, num_blocks=100))
        p_all, se_all = qmc.empirical_cdf(batch, 0.3, independent_only=False)
        p_ind, se_ind = qmc.empirical_cdf(batch, 0.3, independent_only=True)
        assert se_all < se_ind  # larger n in the denominator


class TestUsage:
    def test_determinism(self):
        code = qc.nf4_code()
        a = qmc.estimate_usage(code, 64, 512, seed=21)
        b = qmc.estimate_usage(code, 64, 512, seed=21)
        assert a.counts == b.counts

    def test_nf4_band_at_64(self):
        hist = qmc.estimate_usage(qc.nf4_code(), 64, 1 << 14, seed=22)
        props = hist.proportions
        assert 0.01 < props.min() < 0.04
        assert 0.07 < props.max() < 0.11

    def test_balanced_uniform_at_4096(self):
        B = 4096
        stats = qmc.usage_statistics(_balanced(B), B, 1 << 9, seed=23)
        dev = np.abs(stats.proportions - 1 / 16)
        assert np.all(dev <= 4 * stats.stderr)

    def test_outermost_usage_covers_extremes(self):
        code = qc.nf4_code()  # contains +/-1
        B = 64
        nblocks = 1 << 12
        hist = qmc.estimate_usage(code, B, nblocks, seed=24)
        combined = hist.proportions[0] + hist.proportions[15]
        assert combined >= 1 / B

    def test_usage_matches_analytic_masses(self):
        B = 64
        code = qc.nf4_code()
        stats = qmc.usage_statistics(code, B, 1 << 14, seed=25)
        analytic = qc.code_bin_masses(code, B)
        dev = np.abs(stats.proportions - analytic)
        assert np.all(dev <= 4 * np.maximum(stats.stderr, 1e-9))


    @pytest.mark.parametrize("B", [5, 64, 100])
    def test_statistics_match_quantize_oracle(self, B):
        code = qc.nf4_code()
        cfg = qmc.McConfig(seed=26, block_size=B, num_blocks=300, chunk_size=77)
        values = qmc.sample_blocks(cfg).values
        qt = bq.quantize(values, code, B, axis=1)
        stats = qmc.usage_statistics(code, B, 300, seed=26, chunk_size=77)
        assert stats.histogram.counts == bq.usage_histogram(qt).counts
        idx = bq.unpack_nibbles(qt.packed, B)
        props = np.array([np.bincount(row, minlength=16) for row in idx]) / B
        oracle = np.std(props, axis=0, ddof=1) / np.sqrt(300)
        np.testing.assert_allclose(stats.stderr, oracle, rtol=1e-12, atol=0)

    def test_single_block_has_nan_stderr(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = qmc.usage_statistics(qc.nf4_code(), 64, 1, seed=27)
            mean, se = qmc.l1_statistics(qc.nf4_code(), 64, 1, seed=27)
            hist = qmc.estimate_usage(qc.nf4_code(), 64, 1, seed=27)
        assert hist.total == 64 and stats.histogram.counts == hist.counts
        assert np.isnan(stats.stderr).all() and math.isnan(se)
        assert 0.0 < mean < 1.0


def _balanced(B):
    bins = qc.uniform_bins(B)
    lo, hi = qc.feasible_seed_interval(bins)
    return qc.balanced_code(0.5 * (lo + hi), bins, block_size=B)


class TestCiHalfwidth:
    def test_closed_form(self):
        assert qmc.ci_halfwidth(0.5, 10**4) == pytest.approx(0.0098)

    def test_reproduces_reported_interval(self):
        # +-2e-5 at p=0.8728 pins the sample size at 2^30
        assert qmc.ci_halfwidth(0.8728, 2**30) == pytest.approx(2.0e-5, rel=0.01)

    def test_degenerate(self):
        assert qmc.ci_halfwidth(0.0, 100) == 0.0
        assert qmc.ci_halfwidth(1.0, 100) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            qmc.ci_halfwidth(0.5, 0)
        with pytest.raises(DomainError):
            qmc.ci_halfwidth(1.5, 10)
