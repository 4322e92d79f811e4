"""Tests for the special-function and mixed-distribution numerics.

High-precision expected values were frozen from an independent mpmath
oracle (40 decimal digits, tanh-sinh quadrature over [0, inf)); Monte Carlo
expected values carry the oracle run's 4-sigma halfwidth.
"""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize
from scipy.special import erf, ndtr

import quantlab.distributions as qd
from quantlab.codebook import nf4_code
from quantlab.errors import DomainError, NumericalError

# frozen from an independent high-precision (mpmath) oracle run
NF4_EXTREME_QUANTILE = 1.8481314207079737      # Phi^-1(1 - (1/32 + 1/30)/2)
HALFNORMAL_Q_2_POW_M1_32 = 2.3003581469830879  # thorn^-1(2^(-1/32))
ABSMAX_MEDIAN_4096 = 3.7610360059902476
ABSMAX_MEDIAN_1 = 0.67448975019608174
TRUNC_CDF_115 = 0.88313791992280329            # Psi(1.15; thorn^-1(2^(-1/32)))
TAIL_ABOVE_065 = 0.007178976394824918          # 1 - Psi(0.65*3.76; 3.76)
GB_CDF_ORACLE = {
    (0.5, 2): 0.79516723530086655,
    (0.5, 32): 0.88480411756986629,
    (0.5, 64): 0.90402604025473646,
    (-0.25, 32): 0.27387189656713648,
    (0.85, 1024): 0.99816037941553255,
}
FX_CDF_05_32 = 0.87277898889580797
FX_CDF_03_64 = 0.77967235833898549
FX_APPROX_05_32 = 0.87120136374606468
# Monte Carlo oracle (2^20 blocks of 32, non-extreme entries, clustered SE)
GB_CDF_05_32_MC = 0.884772
GB_CDF_05_32_MC_4SE = 2.6e-4
# golden-section oracle on the negative log absmax density
ABSMAX_MODE_4096 = 3.68451386614


class TestNormal:
    def test_nf4_extreme_quantile(self):
        delta = 0.5 * (1 / 32 + 1 / 30)
        value = qd.normal_quantile(1.0 - delta)
        assert value == pytest.approx(1.848, abs=1e-3)
        assert value == pytest.approx(NF4_EXTREME_QUANTILE, abs=1e-12)

    def test_quantile_roundtrip(self):
        # beyond |x| ~ 4.5 the probability itself cannot hold enough
        # resolution in a double for a 1e-10 roundtrip
        rng = np.random.default_rng(1)
        for x in rng.uniform(-4.5, 4.5, size=50):
            assert qd.normal_quantile(ndtr(x)) == pytest.approx(
                x, abs=qd.DEFAULT_ROOT_TOL
            )

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_quantile_domain(self, p):
        with pytest.raises(DomainError):
            qd.normal_quantile(p)


class TestHalfNormal:
    def test_quantile_anchor_block_4096(self):
        value = qd.halfnormal_quantile(0.5 ** (1 / 4096))
        assert value == pytest.approx(3.76, abs=0.01)
        assert value == pytest.approx(ABSMAX_MEDIAN_4096, abs=1e-12)

    def test_quantile_anchor_block_32(self):
        value = qd.halfnormal_quantile(2.0 ** (-1 / 32))
        assert value == pytest.approx(HALFNORMAL_Q_2_POW_M1_32, abs=1e-12)

    def test_roundtrip(self):
        for m in (0.1, 0.5, 1.0, 2.3, 4.0):
            p = erf(m / math.sqrt(2))
            assert qd.halfnormal_quantile(p) == pytest.approx(
                m, abs=qd.DEFAULT_ROOT_TOL
            )

    def test_quantile_domain(self):
        with pytest.raises(DomainError):
            qd.halfnormal_quantile(1.0)
        with pytest.raises(DomainError):
            qd.halfnormal_quantile(-1e-9)


class TestTruncNormal:
    @pytest.mark.parametrize("m", [0.3, 1.0, 3.76, 8.0])
    def test_symmetry_at_zero(self, m):
        assert qd.trunc_normal_cdf(0.0, m) == pytest.approx(0.5, abs=1e-14)

    def test_endpoints(self):
        assert qd.trunc_normal_cdf(-2.5, 2.5) == pytest.approx(0.0, abs=1e-15)
        assert qd.trunc_normal_cdf(2.5, 2.5) == pytest.approx(1.0, abs=1e-15)
        # clamping beyond the limits
        assert qd.trunc_normal_cdf(-9.0, 2.5) == pytest.approx(0.0, abs=1e-15)
        assert qd.trunc_normal_cdf(9.0, 2.5) == 1.0

    def test_tail_fraction_anchor(self):
        tail = 1.0 - qd.trunc_normal_cdf(0.65 * 3.76, 3.76)
        assert tail == pytest.approx(0.007, abs=5e-4)
        assert tail == pytest.approx(TAIL_ABOVE_065, abs=1e-12)

    def test_oracle_value(self):
        assert qd.trunc_normal_cdf(1.15, HALFNORMAL_Q_2_POW_M1_32) == pytest.approx(
            TRUNC_CDF_115, abs=1e-13
        )

    def test_nondecreasing(self):
        x = np.linspace(-1.5, 1.5, 201)
        vals = qd.trunc_normal_cdf(x, 1.2)
        assert np.all(np.diff(vals) >= 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            qd.trunc_normal_cdf(0.0, 0.0)
        with pytest.raises(DomainError):
            qd.trunc_normal_cdf(0.0, -1.0)


class TestAbsmaxLaw:
    def test_median_anchors(self):
        assert qd.absmax_median(4096) == pytest.approx(3.76, abs=0.01)
        assert qd.absmax_median(1) == pytest.approx(ABSMAX_MEDIAN_1, abs=1e-12)
        assert qd.absmax_median(32) == pytest.approx(
            HALFNORMAL_Q_2_POW_M1_32, abs=1e-12
        )

    @pytest.mark.parametrize("B", [1, 2, 32, 4096])
    def test_median_defining_property(self, B):
        m = qd.absmax_median(B)
        assert erf(m / math.sqrt(2)) ** B == pytest.approx(
            0.5, abs=qd.DEFAULT_ROOT_TOL
        )

    def test_median_domain(self):
        with pytest.raises(DomainError):
            qd.absmax_median(0)
        with pytest.raises(DomainError):
            qd.absmax_median(2.5)

    def test_pdf_zero_at_origin(self):
        assert qd.absmax_pdf(0.0, 2) == 0.0
        assert qd.absmax_pdf(0.0, 64) == 0.0

    @pytest.mark.parametrize("B", [1, 2, 64])
    def test_pdf_normalization(self, B):
        total, err = integrate.quad(
            lambda m: qd.absmax_pdf(m, B), 0.0, 40.0, limit=200
        )
        assert total == pytest.approx(1.0, abs=qd.DEFAULT_ABS_TOL)

    def test_pdf_nonnegative(self):
        m = np.linspace(0, 10, 400)
        assert np.all(qd.absmax_pdf(m, 128) >= 0)

    def test_mode_for_large_block(self):
        # golden-section oracle on -log pdf; close to (just below) the median
        m = np.linspace(3.0, 4.5, 20001)
        pdf = qd.absmax_pdf(m, 4096)
        mode = m[np.argmax(pdf)]
        assert mode == pytest.approx(ABSMAX_MODE_4096, abs=1e-3)
        assert abs(mode - qd.absmax_median(4096)) < 0.1

    def test_pdf_domain(self):
        with pytest.raises(DomainError):
            qd.absmax_pdf(-0.1, 4)


class TestGbCdf:
    @pytest.mark.parametrize("B", [2, 16, 64, 512])
    def test_symmetry_point(self, B):
        gb_cdf = qd.scaled_max_distribution(B).gb_cdf
        assert gb_cdf(0.0) == pytest.approx(0.5, abs=qd.DEFAULT_ABS_TOL)

    @pytest.mark.parametrize("B", [2, 32, 64, 1024, 4096])
    def test_normalization(self, B):
        gb_cdf = qd.scaled_max_distribution(B).gb_cdf
        assert abs(gb_cdf(1.0) - 1.0) <= qd.DEFAULT_ABS_TOL
        assert abs(gb_cdf(-1.0)) <= qd.DEFAULT_ABS_TOL

    def test_oracle_values(self):
        for (x, B), expected in GB_CDF_ORACLE.items():
            assert qd.scaled_max_distribution(B).gb_cdf(x) == pytest.approx(
                expected, abs=1e-9)

    def test_against_monte_carlo_oracle(self):
        assert qd.scaled_max_distribution(32).gb_cdf(0.5) == pytest.approx(
            GB_CDF_05_32_MC, abs=GB_CDF_05_32_MC_4SE
        )

    def test_against_scipy_adaptive_quadrature(self):
        # independent quadrature route for the same integral
        for x, B in [(0.3, 16), (-0.6, 64), (0.9, 256)]:
            dist = qd.scaled_max_distribution(B)

            def integrand(m):
                psi = (erf(m * x / math.sqrt(2)) + erf(m / math.sqrt(2))) / (
                    2 * erf(m / math.sqrt(2))
                )
                return qd.absmax_pdf(m, B) * psi

            ref, err = integrate.quad(
                integrand, dist.m_lo, dist.m_hi, epsabs=1e-12, limit=200
            )
            assert dist.gb_cdf(x) == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("B", [2, 32, 1024])
    def test_symmetry_identity(self, B):
        gb_cdf = qd.scaled_max_distribution(B).gb_cdf
        for x in np.linspace(0.0, 1.0, 9):
            assert gb_cdf(-x) == pytest.approx(1.0 - gb_cdf(x),
                                               abs=2 * qd.DEFAULT_ABS_TOL)

    def test_monotone_on_random_pairs(self):
        gb_cdf = qd.scaled_max_distribution(48).gb_cdf
        rng = np.random.default_rng(3)
        for _ in range(40):
            x1, x2 = np.sort(rng.uniform(-1, 1, size=2))
            assert gb_cdf(x1) <= gb_cdf(x2) + 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            qd.scaled_max_distribution(32).gb_cdf(1.5)
        with pytest.raises(DomainError):
            qd.scaled_max_distribution(1).gb_cdf(0.0)  # no continuous part

    def test_non_convergence_reports(self, monkeypatch):
        monkeypatch.setattr(qd, "DEFAULT_ABS_TOL", 1e-16)
        monkeypatch.setattr(qd, "MAX_REFINEMENTS", 1)
        dist = qd.ScaledMaxDistribution(32)
        with pytest.raises(NumericalError, match="did not converge"):
            dist.gb_cdf(0.37)


class TestFxCdf:
    def test_below_support(self):
        assert qd.fx_cdf(-1.5, 32) == 0.0

    def test_atom_at_minus_one(self):
        assert qd.fx_cdf(-1.0, 64) == pytest.approx(1 / 128, abs=1e-16)

    def test_cdf_anchor_at_half(self):
        value = qd.fx_cdf(0.5, 32)
        assert value == pytest.approx(0.8728, abs=2.5e-5)
        assert value == pytest.approx(FX_CDF_05_32, abs=1e-9)

    def test_oracle_value_b64(self):
        assert qd.fx_cdf(0.3, 64) == pytest.approx(FX_CDF_03_64, abs=1e-9)

    def test_boundary_structure(self):
        B = 32
        assert qd.fx_cdf(1.0, B) == 1.0
        near_one = qd.fx_cdf(1.0 - 1e-9, B)
        assert near_one == pytest.approx(1.0 - 1 / (2 * B), abs=1e-6)
        assert qd.fx_cdf(2.0, B) == 1.0

    def test_block_size_one_is_two_atoms(self):
        assert qd.fx_cdf(-1.0, 1) == 0.5
        assert qd.fx_cdf(0.0, 1) == 0.5
        assert qd.fx_cdf(1.0, 1) == 1.0
        assert qd.fx_cdf(-1.0000001, 1) == 0.0


class TestFxQuantile:
    def test_median(self):
        assert qd.fx_quantile(0.5, 64) == pytest.approx(0.0, abs=1e-8)

    def test_cdf_anchor_inverts_to_half(self):
        assert qd.fx_quantile(0.8728, 32) == pytest.approx(0.5, abs=1e-3)

    def test_roundtrip(self):
        assert qd.fx_quantile(qd.fx_cdf(0.3, 64), 64) == pytest.approx(
            0.3, abs=qd.DEFAULT_ROOT_TOL * 10
        )

    def test_inverse_consistency_grid(self):
        B = 32
        tol = qd.DEFAULT_ROOT_TOL + qd.DEFAULT_ABS_TOL
        for p in np.linspace(0.05, 0.95, 13):
            x = qd.fx_quantile(p, B)
            assert -1.0 < x < 1.0
            assert abs(qd.fx_cdf(x, B) - p) <= tol * 10

    def test_atom_rejection(self):
        with pytest.raises(DomainError, match="atom at -1"):
            qd.fx_quantile(1 / 128, 64)
        with pytest.raises(DomainError, match="atom at \\+1"):
            qd.fx_quantile(1.0 - 1 / 200, 64)


class TestBrentq:
    """``_brentq`` is scipy's ``brentq`` ported step for step: the same roots
    to the bit, and NumericalError where scipy would raise."""

    @settings(max_examples=60, deadline=None)
    @given(B=st.integers(2, 1 << 20), u=st.floats(0.0, 1.0))
    def test_roots_match_scipy_bit_for_bit(self, B, u):
        dist = qd.ScaledMaxDistribution(B)
        p = dist.atom_mass + u * (1.0 - 2.0 * dist.atom_mass)
        if not dist.atom_mass < p < 1.0 - dist.atom_mass:
            return
        f = lambda x: dist.fx_cdf(x) - p  # noqa: E731
        expected = optimize.brentq(f, -1.0, 1.0, xtol=qd.DEFAULT_ROOT_TOL)
        assert qd._brentq(f, -1.0, 1.0, qd.DEFAULT_ROOT_TOL).hex() == expected.hex()
        assert dist.fx_quantile(p).hex() == expected.hex()

    def test_no_convergence_is_numerical_error(self):
        # A step at 1e-200 asks for about 700 halvings to reach xtol.
        f = lambda x: -1.0 if x < 1e-200 else 1.0  # noqa: E731
        with pytest.raises(RuntimeError):
            optimize.brentq(f, -1.0, 1.0, xtol=1e-300)
        with pytest.raises(NumericalError, match="did not converge in 100 iterations"):
            qd._brentq(f, -1.0, 1.0, 1e-300)

    @pytest.mark.parametrize("f", [lambda x: math.nan,
                                   lambda x: math.nan if x == 0.0 else x])
    def test_nan_value_is_numerical_error(self, f):
        with pytest.raises(ValueError, match="NaN"):
            optimize.brentq(f, -1.0, 1.0)
        with pytest.raises(NumericalError, match="nan"):
            qd._brentq(f, -1.0, 1.0, qd.DEFAULT_ROOT_TOL)


    @pytest.mark.parametrize("f, root", [
        (lambda x: x + 1.0, -1.0), (lambda x: x - 1.0, 1.0)])
    def test_root_at_an_endpoint_is_returned_as_is(self, f, root):
        assert qd._brentq(f, -1.0, 1.0, qd.DEFAULT_ROOT_TOL) == root


class TestExpectedMinAbsDistance:
    @pytest.mark.parametrize("points, message", [
        ([], "non-empty 1-D"), ([[0.0]], "non-empty 1-D"),
        ([0.0, 0.0], "strictly increasing"), ([-1.5, 0.0], "within"),
        ([0.0, 1.5], "within")])
    def test_rejected(self, points, message):
        with pytest.raises(DomainError, match=message):
            qd.scaled_max_distribution(32).expected_min_abs_distance(points)

    @pytest.mark.parametrize("points, expected", [
        ([0.0], 1.0), ([-1.0, 1.0], 0.0), ([-0.5, 0.25], 0.625)])
    def test_block_size_one_is_the_two_atoms(self, points, expected):
        # each atom has mass 1/2 and sits at distance min|+-1 - a| from the points
        assert qd.scaled_max_distribution(1).expected_min_abs_distance(points) == expected


def per_level(dist, node_values, lo):
    """(integral, final node count) by the per-level algorithm that
    ``_integrate`` fused: each rule runs the integrand on its own nodes and
    takes its weighted sum with ``@``, from 64 nodes, doubling until two
    estimates agree within DEFAULT_ABS_TOL."""
    def level(n):
        x, w = qd._leggauss(n)
        half = 0.5 * (dist.m_hi - lo)
        m = half * x + 0.5 * (dist.m_hi + lo)
        weights = half * w * qd.absmax_pdf(m, dist.block_size)
        return float(weights @ node_values(m, erf(m / math.sqrt(2.0))))

    n, prev, deltas = 64, level(64), []
    for _ in range(qd.MAX_REFINEMENTS):
        n *= 2
        cur = level(n)
        deltas.append(abs(cur - prev))
        if deltas[-1] <= qd.DEFAULT_ABS_TOL:
            return cur, n
        prev = cur
    raise NumericalError(
        f"quadrature did not converge to abs_tol={qd.DEFAULT_ABS_TOL:g} "
        f"within {qd.MAX_REFINEMENTS} refinements "
        f"(final {n} nodes, successive deltas {deltas})"
    )


def per_level_gb_cdf(dist, x):
    def psi(m, thorn):
        return (erf(m * (x / math.sqrt(2.0))) + thorn) / (2.0 * thorn)
    return per_level(dist, psi, dist.m_lo)


def per_level_expected_min_abs_distance(dist, points):
    a = np.asarray(points, dtype=float)
    c = np.concatenate(([-1.0], 0.5 * (a[:-1] + a[1:]), [1.0]))

    def expected(m, thorn):
        mc, ystar = m[:, None] * c[None, :], m[:, None] * a[None, :]
        cdf_c, pdf_c = ndtr(mc), qd.normal_pdf(mc)
        cdf_s, pdf_s = ndtr(ystar), qd.normal_pdf(ystar)
        piece = a[None, :] * (2.0 * cdf_s - cdf_c[:, :-1] - cdf_c[:, 1:])
        piece += (2.0 * pdf_s - pdf_c[:, :-1] - pdf_c[:, 1:]) / m[:, None]
        return piece.sum(axis=1) / thorn

    atom = dist.atom_mass * (np.min(np.abs(-1.0 - a)) + np.min(np.abs(1.0 - a)))
    cont, n = per_level(dist, expected, dist._m_lo_expect)
    return float(atom + (1.0 - 1.0 / dist.block_size) * cont), n


FUSED_BLOCK_SIZES = [2, 3, 32, 64, 4096, 1 << 20, 1 << 53]
NF4_VALUES = nf4_code().values


class TestFusedQuadrature:
    """``_integrate`` runs the integrand once on the 64- and 128-node rules'
    192 nodes and takes each level's sum with ``ndarray.dot``.  Every value
    must equal, to the bit, the per-level algorithm rebuilt above from
    ``_leggauss`` and ``absmax_pdf``."""

    @pytest.mark.parametrize("B", FUSED_BLOCK_SIZES)
    @settings(max_examples=40, deadline=None)
    @given(x=st.floats(-1.0, 1.0))
    def test_cdfs_match_the_per_level_algorithm(self, B, x):
        dist = qd.scaled_max_distribution(B)
        expected, n = per_level_gb_cdf(dist, x)
        assert n == 128
        assert dist.gb_cdf(x).hex() == expected.hex()
        if -1.0 < x < 1.0:
            fx = dist.atom_mass + (1.0 - 1.0 / B) * expected
            assert dist.fx_cdf(x).hex() == fx.hex()

    @pytest.mark.parametrize("B", FUSED_BLOCK_SIZES)
    @settings(max_examples=20, deadline=None)
    @given(points=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=16,
                           unique=True).map(sorted))
    def test_expected_min_abs_distance_matches(self, B, points):
        dist = qd.scaled_max_distribution(B)
        expected, n = per_level_expected_min_abs_distance(dist, points)
        assert n == 128
        assert dist.expected_min_abs_distance(points).hex() == expected.hex()

    # At 64 -> 128 -> 256 -> 512 nodes, gb_cdf(0.5) at B=2 moves by 6.0e-15,
    # 2.7e-15 and 2.5e-15, and NF4's expected distance at B=3 by 5.2e-16,
    # 2.8e-16 and 1.3e-16; each tolerance falls between two of them.
    @pytest.mark.parametrize("integral, tol, stop", [
        ("gb_cdf", 3e-15, 256), ("gb_cdf", 2.6e-15, 512),
        ("expected", 3e-16, 256), ("expected", 2e-16, 512)])
    def test_refinements_after_the_pair(self, monkeypatch, integral, tol, stop):
        monkeypatch.setattr(qd, "DEFAULT_ABS_TOL", tol)
        if integral == "gb_cdf":
            dist = qd.ScaledMaxDistribution(2)
            expected, n = per_level_gb_cdf(dist, 0.5)
            got = dist.gb_cdf(0.5)
        else:
            dist = qd.ScaledMaxDistribution(3)
            expected, n = per_level_expected_min_abs_distance(dist, NF4_VALUES)
            got = dist.expected_min_abs_distance(NF4_VALUES)
        assert n == stop
        assert got.hex() == expected.hex()

    @pytest.mark.parametrize("refinements", [1, 2])
    def test_non_convergence_message(self, monkeypatch, refinements):
        monkeypatch.setattr(qd, "DEFAULT_ABS_TOL", 1e-16)
        monkeypatch.setattr(qd, "MAX_REFINEMENTS", refinements)
        dist = qd.ScaledMaxDistribution(32)
        with pytest.raises(NumericalError) as expected:
            per_level_gb_cdf(dist, 0.37)
        with pytest.raises(NumericalError) as got:
            dist.gb_cdf(0.37)
        assert f"final {64 << refinements} nodes" in str(expected.value)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("n", [64, 128, 256, 512, 1024])
    def test_dot_sums_as_matmul_does(self, n):
        # the per-level sums use ndarray.dot; it must give @'s bits
        rng = np.random.default_rng(n)
        for B in (2, 4096, 1 << 53):
            dist = qd.scaled_max_distribution(B)
            w = qd._rule(B, dist.m_hi, n, dist.m_lo)[1]
            for v in rng.standard_normal((50, n)):
                assert w.dot(v) == w @ v


class TestLargestBlockSize:
    """Beyond 2^53, 0.5 ** (1/B) rounds to 1 and the absmax law has no
    representable median; the distribution layer says so."""

    def test_two_to_the_53_works(self):
        dist = qd.scaled_max_distribution(1 << 53)
        assert 0.5 < dist.fx_cdf(0.5) < 1.0
        assert -1.0 < dist.fx_quantile(0.3) < 0.0
        assert qd.absmax_median(1 << 53) == pytest.approx(8.292, abs=1e-3)

    @pytest.mark.parametrize("fn", [qd.scaled_max_distribution, qd.absmax_median,
                                    lambda B: qd.absmax_pdf(1.0, B)])
    def test_beyond_is_domain_error(self, fn):
        message = f"block size must be <= {1 << 53}, got {(1 << 53) + 1}$"
        with pytest.raises(DomainError, match=message):
            fn((1 << 53) + 1)


class TestFxCdfApprox:
    def test_symmetry_point(self):
        assert qd.fx_cdf_approx(0.0, 32) == pytest.approx(0.5, abs=1e-12)

    def test_cdf_anchor_at_half(self):
        value = qd.fx_cdf_approx(0.5, 32)
        assert value == pytest.approx(0.8712, abs=5e-4)
        assert value == pytest.approx(FX_APPROX_05_32, abs=1e-12)

    def test_gap_to_exact_cdf(self):
        gap = abs(qd.fx_cdf_approx(0.5, 32) - qd.fx_cdf(0.5, 32))
        assert gap == pytest.approx(0.0016, abs=2e-4)

    def test_sup_gap_small_and_shrinking(self):
        xs = np.linspace(-0.999, 0.999, 81)
        sups = []
        for B in (32, 256, 4096):
            gaps = [abs(qd.fx_cdf_approx(x, B) - qd.fx_cdf(x, B)) for x in xs]
            sups.append(max(gaps))
        assert sups[0] <= 0.005
        assert sups[0] > sups[1] > sups[2]


@pytest.mark.parametrize("fn, B", [
    (qd.fx_cdf, 1), (qd.fx_cdf, 32), (qd.fx_cdf_approx, 1),
    (qd.fx_cdf_approx, 32), (qd.fx_quantile, 1), (qd.fx_quantile, 32),
])
def test_nan_argument_is_domain_error(fn, B):
    with pytest.raises(DomainError, match="nan"):
        fn(math.nan, B)


@pytest.mark.parametrize("call", [
    lambda nan: qd.normal_quantile(nan),
    lambda nan: qd.halfnormal_quantile(nan),
    lambda nan: qd.trunc_normal_cdf(nan, 1.0),
    lambda nan: qd.absmax_pdf(nan, 64),
    lambda nan: qd.scaled_max_distribution(64).expected_min_abs_distance(nan),
], ids=["normal_quantile", "halfnormal_quantile", "trunc_normal_cdf", "absmax_pdf",
        "expected_min_abs_distance"])
@pytest.mark.parametrize("nan", [math.nan, [math.nan, 0.5], [0.25, math.nan, 0.5]],
                         ids=["scalar", "first", "middle"])
def test_nan_in_a_helper_is_domain_error(call, nan):
    # a NaN fails an in-domain test, so it raises instead of passing through
    with pytest.raises(DomainError):
        call(nan)


class TestSettingsAndConcurrency:
    def test_concurrent_calls_agree(self):
        dist = qd.ScaledMaxDistribution(128)
        xs = np.linspace(-0.9, 0.9, 16)
        expected = [dist.gb_cdf(x) for x in xs]
        results = [None] * 8
        errors = []

        def worker(i):
            try:
                results[i] = [dist.gb_cdf(x) for x in xs]
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        fresh = qd.ScaledMaxDistribution(128)
        results_fresh = [None] * 8

        def worker_fresh(i):
            results_fresh[i] = [fresh.gb_cdf(x) for x in xs]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        threads += [threading.Thread(target=worker_fresh, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for r in results[:4]:
            assert r == expected
        for r in results_fresh[:4]:
            assert r == expected
