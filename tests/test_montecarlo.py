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
        a = qmc.sample_block_values(cfg)
        b = qmc.sample_block_values(cfg)
        assert np.array_equal(a, b)

    def test_chunking_never_changes_values(self, monkeypatch):
        cfg = qmc.McConfig(seed=7, block_size=16, num_blocks=1000)
        whole = qmc.sample_block_values(cfg)
        for blocks_per_chunk in (1, 7, 128, 999, 1000):
            monkeypatch.setattr(qmc, "CHUNK_ELEMENTS", 16 * blocks_per_chunk)
            parts = list(qmc.iter_sample_chunks(cfg))
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
        assert abs(p - 0.5) <= 4 * qmc.ci_halfwidth(0.5, v.size, z=1.0)

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
        se = qmc.ci_halfwidth(1 / 32, cfg.num_blocks, z=1.0)
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
        cfg = qmc.McConfig(seed=14, block_size=16, num_blocks=5000)
        first = qmc.sample_block_values(cfg)[:, 0]
        monkeypatch.setattr(qmc, "CHUNK_ELEMENTS", 16 * 999)
        xs = np.array([-0.5, 0.0, 0.25, 0.9])
        ps, ses = qmc.empirical_cdf_stream(cfg, xs)
        for x, p, se in zip(xs, ps, ses):
            pb = np.count_nonzero(first <= x) / first.size
            assert p == pb and se == math.sqrt(pb * (1.0 - pb) / first.size)

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


class TestUsage:
    def test_determinism(self):
        code = qc.nf4_code()
        a = qmc.usage_statistics(code, 64, 512, seed=21)
        b = qmc.usage_statistics(code, 64, 512, seed=21)
        assert a.histogram.counts == b.histogram.counts
        assert np.array_equal(a.stderr, b.stderr)

    def test_nf4_band_at_64(self):
        hist = qmc.usage_statistics(qc.nf4_code(), 64, 1 << 14, seed=22).histogram
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
        hist = qmc.usage_statistics(code, B, nblocks, seed=24).histogram
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
    def test_statistics_match_quantize_oracle(self, B, monkeypatch):
        code = qc.nf4_code()
        cfg = qmc.McConfig(seed=26, block_size=B, num_blocks=300)
        values = qmc.sample_block_values(cfg)
        qt = bq.quantize(values, code, B, axis=1)
        monkeypatch.setattr(qmc, "CHUNK_ELEMENTS", 77 * B)
        stats = qmc.usage_statistics(code, B, 300, seed=26)
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
        assert stats.histogram.total == 64
        assert np.isnan(stats.stderr).all() and math.isnan(se)
        assert 0.0 < mean < 1.0


class TestChunkBoundaries:
    """CHUNK_ELEMENTS only batches the draws: chunks of one block (also when
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
                    qmc.usage_statistics(code, B, nb, seed=28),
                    qmc.l1_statistics(code, B, nb, seed=28))

        (p, se), usage, l1 = estimates()
        for elements in (1, B, 7 * B + 1, nb * B):
            monkeypatch.setattr(qmc, "CHUNK_ELEMENTS", elements)
            (p2, se2), usage2, l1_2 = estimates()
            # Counts are exact integers, so these match bit for bit.
            assert np.array_equal(p2, p) and np.array_equal(se2, se)
            assert usage2.histogram.counts == usage.histogram.counts
            assert np.array_equal(usage2.stderr, usage.stderr)
            # Block means are floats: where chunks split their sum, the
            # last bits round differently.
            assert l1_2 == pytest.approx(l1, rel=1e-12, abs=0)


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
