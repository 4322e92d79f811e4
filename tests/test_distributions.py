"""Tests for the special-function and mixed-distribution numerics.

High-precision expected values were frozen from an independent mpmath
oracle (40 decimal digits, tanh-sinh quadrature over [0, inf)); Monte Carlo
expected values carry the oracle run's 4-sigma halfwidth.
"""

import math
import threading

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erf

import quantlab.distributions as qd
from quantlab.errors import DomainError, NumericalError

# frozen from an independent high-precision (mpmath) oracle run
NORMAL_CDF_115 = 0.87492806436284974
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
    def test_cdf_at_zero(self):
        assert qd.normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_cdf_matches_erf_oracle(self):
        assert qd.normal_cdf(1.15) == pytest.approx(NORMAL_CDF_115, abs=1e-14)

    def test_nf4_extreme_quantile(self):
        delta = 0.5 * (1 / 32 + 1 / 30)
        value = qd.normal_quantile(1.0 - delta)
        assert value == pytest.approx(1.848, abs=1e-3)
        assert value == pytest.approx(NF4_EXTREME_QUANTILE, abs=1e-12)

    def test_strictly_increasing(self):
        rng = np.random.default_rng(42)
        x = np.sort(rng.uniform(-8, 8, size=500))
        cdf = qd.normal_cdf(x)
        assert np.all(np.diff(cdf) > 0)

    def test_quantile_roundtrip(self):
        # beyond |x| ~ 4.5 the probability itself cannot hold enough
        # resolution in a double for a 1e-10 roundtrip
        rng = np.random.default_rng(1)
        for x in rng.uniform(-4.5, 4.5, size=50):
            assert qd.normal_quantile(qd.normal_cdf(x)) == pytest.approx(
                x, abs=qd.DEFAULT_ROOT_TOL
            )

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_quantile_domain(self, p):
        with pytest.raises(DomainError):
            qd.normal_quantile(p)

    def test_accuracy_against_quad(self):
        # absolute error <= 1e-10 over |x| <= 8, checked against direct
        # integration of the density
        for x in (-8.0, -3.5, -1.0, 0.3, 2.0, 8.0):
            ref, _ = integrate.quad(lambda t: qd.normal_pdf(t), -30, x)
            assert abs(qd.normal_cdf(x) - ref) < 1e-10


class TestHalfNormal:
    def test_cdf_at_zero(self):
        assert qd.halfnormal_cdf(0.0) == 0.0

    def test_quantile_anchor_block_4096(self):
        value = qd.halfnormal_quantile(0.5 ** (1 / 4096))
        assert value == pytest.approx(3.76, abs=0.01)
        assert value == pytest.approx(ABSMAX_MEDIAN_4096, abs=1e-12)

    def test_quantile_anchor_block_32(self):
        value = qd.halfnormal_quantile(2.0 ** (-1 / 32))
        assert value == pytest.approx(HALFNORMAL_Q_2_POW_M1_32, abs=1e-12)

    def test_roundtrip(self):
        for m in (0.1, 0.5, 1.0, 2.3, 4.0):
            p = qd.halfnormal_cdf(m)
            assert qd.halfnormal_quantile(p) == pytest.approx(
                m, abs=qd.DEFAULT_ROOT_TOL
            )

    def test_negative_m_rejected(self):
        with pytest.raises(DomainError):
            qd.halfnormal_cdf(-0.5)

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
        assert qd.halfnormal_cdf(m) ** B == pytest.approx(
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
        assert qd.gb_cdf(0.0, B) == pytest.approx(0.5, abs=qd.DEFAULT_ABS_TOL)

    @pytest.mark.parametrize("B", [2, 32, 64, 1024, 4096])
    def test_normalization(self, B):
        assert abs(qd.gb_cdf(1.0, B) - 1.0) <= qd.DEFAULT_ABS_TOL
        assert abs(qd.gb_cdf(-1.0, B)) <= qd.DEFAULT_ABS_TOL

    def test_oracle_values(self):
        for (x, B), expected in GB_CDF_ORACLE.items():
            assert qd.gb_cdf(x, B) == pytest.approx(expected, abs=1e-9)

    def test_against_monte_carlo_oracle(self):
        assert qd.gb_cdf(0.5, 32) == pytest.approx(
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
            assert qd.gb_cdf(x, B) == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("B", [2, 32, 1024])
    def test_symmetry_identity(self, B):
        for x in np.linspace(0.0, 1.0, 9):
            lhs = qd.gb_cdf(-x, B)
            rhs = 1.0 - qd.gb_cdf(x, B)
            assert lhs == pytest.approx(rhs, abs=2 * qd.DEFAULT_ABS_TOL)

    def test_monotone_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            x1, x2 = np.sort(rng.uniform(-1, 1, size=2))
            assert qd.gb_cdf(x1, 48) <= qd.gb_cdf(x2, 48) + 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            qd.gb_cdf(1.5, 32)
        with pytest.raises(DomainError):
            qd.gb_cdf(0.0, 1)  # degenerate: no continuous part

    def test_non_convergence_reports(self, monkeypatch):
        monkeypatch.setenv(qd.QUAD_TOL_ENV, "1e-16")
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


class TestSettingsAndConcurrency:
    def test_settings_validation(self, monkeypatch):
        for bad in ("0", "-1e-9", "nan"):
            monkeypatch.setenv(qd.QUAD_TOL_ENV, bad)
            with pytest.raises(DomainError, match="must be > 0"):
                qd.quad_tol()
            with pytest.raises(DomainError):
                qd.ScaledMaxDistribution(32)

    def test_env_override(self, monkeypatch):
        monkeypatch.delenv(qd.QUAD_TOL_ENV, raising=False)
        assert qd.quad_tol() == qd.DEFAULT_ABS_TOL
        default = qd.scaled_max_distribution(64)
        monkeypatch.setenv(qd.QUAD_TOL_ENV, "1e-6")
        assert qd.quad_tol() == 1e-6
        loose = qd.scaled_max_distribution(64)
        assert loose.abs_tol == 1e-6 and loose is not default
        monkeypatch.setenv(qd.QUAD_TOL_ENV, "bogus")
        with pytest.raises(DomainError):
            qd.quad_tol()

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
