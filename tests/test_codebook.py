"""Tests for code construction, stationarity, balanced codes, and scoring."""

import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import quantlab.blockquant as bq
import quantlab.codebook as qc
import quantlab.distributions as qd
import quantlab.montecarlo as qmc
from quantlab.errors import ConstructionError, DomainError, FormatError

# Straight-line re-derivation of the quantile construction, frozen from a
# separate scratch script (float64).
NF4_DERIVED = np.array([
    -1.0,
    -0.696192805632343,
    -0.5250729594465005,
    -0.3949174259199069,
    -0.28444130892108205,
    -0.18477340280045573,
    -0.09104997598578049,
    0.0,
    0.07958031495840909,
    0.1609301443802907,
    0.2461122513474594,
    0.3379151367131279,
    0.44070973186421625,
    0.5626168879699849,
    0.7229566441594734,
    1.0,
])

# Reference table from the public create_normal_map implementation (float32).
NF4_REFERENCE_F32 = np.array([
    -1.0, -0.6961928009986877, -0.5250730514526367, -0.39491748809814453,
    -0.28444138169288635, -0.18477343022823334, -0.09105003625154495, 0.0,
    0.07958029955625534, 0.16093020141124725, 0.24611230194568634,
    0.33791524171829224, 0.44070982933044434, 0.5626170039176941,
    0.7229568362236023, 1.0,
], dtype=np.float32)

# Brute-force bisection on the equal-mass condition (independent of the
# quantile-based recurrence).
STATIONARITY_ORACLE = (-1.0, -0.7, 64, -0.520380041254427)


class TestCode16Validation:
    def test_requires_16_values(self):
        with pytest.raises(DomainError, match="16"):
            qc.Code16(np.linspace(-1, 1, 15))

    def test_monotonicity_enforced(self):
        vals = np.linspace(-1, 1, 16)
        vals[5], vals[6] = vals[6], vals[5]
        with pytest.raises(DomainError, match="value 6"):
            qc.Code16(vals)

    def test_bounds_enforced(self):
        with pytest.raises(DomainError, match="within"):
            qc.Code16(np.linspace(-1.2, 1.0, 16))

    def test_anchored_kinds_need_exact_points(self):
        vals = np.array(NF4_DERIVED)
        vals[7] = 1e-9
        with pytest.raises(DomainError, match="positions"):
            qc.Code16(vals, kind="af4", block_size=64)

    def test_block_size_required_for_af4_and_balanced(self):
        with pytest.raises(DomainError, match="block_size"):
            qc.Code16(NF4_DERIVED, kind="af4")

    @pytest.mark.parametrize("block_size", [-5, 0, 2.5, True])
    def test_block_size_must_be_positive_int(self, block_size):
        # code_write would write a file code_read rejects (2.5 as "2")
        with pytest.raises(DomainError, match="block size must be"):
            qc.Code16(np.linspace(-1, 1, 16), block_size=block_size)

    def test_block_size_one_is_valid(self):
        assert qc.Code16(np.linspace(-1, 1, 16), block_size=1).block_size == 1

    def test_numpy_integer_block_size_is_stored_as_int(self):
        code = qc.Code16(np.linspace(-1, 1, 16), block_size=np.int64(64))
        assert code.block_size == 64 and type(code.block_size) is int

    @pytest.mark.parametrize("values, params, message", [
        (np.linspace(-1, 1, 16).astype(complex), {}, "16 real numbers"),
        (["a"] * 16, {}, "16 real numbers"),
        ([[-1.0], [0.0, 1.0]], {}, "16 real numbers"),
        ([True] * 16, {}, "16 real numbers"),
        (np.linspace(-1, 1, 16), [1, 2], "params must be a mapping"),
        # a bool among numbers once read as 1.0 or 0.0
        (np.linspace(-1, 1, 16).tolist()[:-1] + [True], {},
         "16 real numbers, got a bool"),
        (tuple(NF4_DERIVED[:7]) + (np.False_,) + tuple(NF4_DERIVED[8:]), {},
         "16 real numbers, got a bool"),
    ])
    def test_bad_fields_are_domain_errors_without_warnings(self, values, params,
                                                           message):
        # numpy would drop the imaginary parts with a ComplexWarning, or
        # raise its own ValueError or TypeError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                qc.Code16(values, params=params)

    @pytest.mark.parametrize("number", [Fraction, Decimal])
    def test_number_objects_are_taken_as_floats(self, number):
        vals = np.linspace(-1, 1, 16)
        code = qc.Code16([number(v) for v in vals])
        assert code.values.dtype == np.float64 and code.values.tolist() == vals.tolist()

    def test_values_read_only(self):
        code = qc.nf4_code()
        with pytest.raises(ValueError):
            code.values[0] = 0.5


class TestBinEdges:
    @pytest.mark.parametrize("edges, message", [
        (np.linspace(-1, 1, 16), r"expected 17 bin edges, got shape \(16,\)"),
        (np.linspace(-0.9, 1, 17), "must start at -1 and end at 1"),
        (np.linspace(-1, 0.9, 17), "must start at -1 and end at 1"),
        (np.r_[-1.0, 0.5, np.linspace(0, 1, 15)], "must be nondecreasing"),
    ])
    def test_rejected(self, edges, message):
        with pytest.raises(DomainError, match=message):
            qc.BinEdges(edges)

    @pytest.mark.parametrize("edges, message", [
        (np.linspace(-1, 1, 17).astype(complex), "17 real numbers"),
        (["a"] * 17, "17 real numbers"),
        ([[-1.0], [0.0, 1.0]], "17 real numbers"),
        ([True] * 17, "17 real numbers"),
        (np.r_[-1.0, np.nan, np.linspace(0, 1, 15)], "must be nondecreasing"),
        ([-1.0] + [0.0] * 15 + [True], "17 real numbers, got a bool"),
        ((-1.0,) + (0.0,) * 7 + (np.False_,) + (0.0,) * 7 + (1.0,),
         "17 real numbers, got a bool"),
    ])
    def test_bad_edges_are_domain_errors_without_warnings(self, edges, message):
        # as for Code16: no ComplexWarning, no numpy ValueError, no NaN edge
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                qc.BinEdges(edges)

    @pytest.mark.parametrize("number", [Fraction, Decimal, int])
    def test_number_objects_are_taken_as_floats(self, number):
        edges = qc.BinEdges([number(-1)] + [number(0)] * 15 + [number(1)]).edges
        assert edges.dtype == np.float64 and edges.tolist() == [-1.0] + [0.0] * 15 + [1.0]

    def test_stored_read_only(self):
        edges = qc.BinEdges(np.r_[-1.0, np.zeros(15), 1.0]).edges
        assert edges.shape == (17,) and not edges.flags.writeable

    def test_stored_copy(self):
        given = np.linspace(-1, 1, 17)
        edges = qc.BinEdges(given).edges
        given[1] = 0.5
        assert edges[1] == -0.875


class TestNf4:
    def test_anchor_values(self):
        for variant in ("quantile_of_average", "average_of_quantile"):
            code = qc.nf4_code(variant)
            assert code.values[0] == -1.0
            assert code.values[7] == 0.0
            assert code.values[15] == 1.0

    def test_matches_independent_derivation(self):
        code = qc.nf4_code("quantile_of_average")
        np.testing.assert_allclose(code.values, NF4_DERIVED, atol=1e-14)

    def test_matches_reference_implementation_table(self):
        code = qc.nf4_code("quantile_of_average")
        np.testing.assert_allclose(
            code.values.astype(np.float32), NF4_REFERENCE_F32, atol=2.5e-7
        )

    def test_variants_differ_but_barely(self):
        a = qc.nf4_code("quantile_of_average").values
        b = qc.nf4_code("average_of_quantile").values
        diff = np.abs(a - b)
        assert diff.max() < 1e-3
        assert diff.max() > 0.0

    def test_extreme_raw_quantile(self):
        delta = 0.5 * (1 / 32 + 1 / 30)
        extreme = qd.normal_quantile(1 - delta)
        # the second-largest code value times the extreme quantile recovers
        # the unnormalized grid point at the next probability down
        code = qc.nf4_code()
        p_next = np.linspace(0.5, 1 - delta, 9)[-2]
        assert code.values[14] * extreme == pytest.approx(
            qd.normal_quantile(p_next), abs=1e-12
        )

    def test_unknown_variant(self):
        with pytest.raises(DomainError):
            qc.nf4_code("midpoint_of_quantile")


class TestStationarityStep:
    def test_symmetric_step_through_zero(self):
        # by symmetry of the law, the bin [(a-0)/2 mass] repeats on the right
        for a in (0.2, 0.35, 0.5):
            out = qc.stationarity_step(-a, 0.0, 64)
            assert out == pytest.approx(a, abs=1e-6)

    def test_median_condition_enforced(self):
        B = 256
        a_prev, a_cur = -0.62, -0.41
        a_next = qc.stationarity_step(a_prev, a_cur, B)
        assert a_next > a_cur
        f = lambda x: qd.fx_cdf(x, B)
        left = f(a_cur) - f(0.5 * (a_prev + a_cur))
        right = f(0.5 * (a_cur + a_next)) - f(a_cur)
        assert abs(left - right) < 1e-9

    def test_matches_bisection_oracle(self):
        a_prev, a_cur, B, expected = STATIONARITY_ORACLE
        assert qc.stationarity_step(a_prev, a_cur, B) == pytest.approx(
            expected, abs=1e-8
        )

    def test_escape_error(self):
        with pytest.raises(qc.EscapedSupportError, match="escaped"):
            qc.stationarity_step(0.2, 0.98, 16)

    def test_ordering_violation(self):
        with pytest.raises(DomainError):
            qc.stationarity_step(0.5, 0.4, 64)

    def test_midpoint_domain(self):
        with pytest.raises(DomainError):
            qc.stationarity_step(-1.5, -0.9, 64)


class TestAf4:
    @pytest.mark.parametrize("B", [16, 64, 256])
    def test_invariants_and_residuals(self, B):
        code = qc.af4_code(B)
        assert code.values[0] == -1.0
        assert code.values[7] == 0.0
        assert code.values[15] == 1.0
        assert np.all(np.diff(code.values) > 0)
        residuals = qc.median_condition_residuals(code, B)
        assert residuals.shape == (13,)
        assert residuals.max() < qc.DEFAULT_MASS_TOL

    def test_coincides_with_nf4_at_64(self):
        af4 = qc.af4_code(64)
        nf4 = qc.nf4_code()
        assert abs(af4.values[1] - nf4.values[1]) <= 0.05
        assert abs(af4.values[14] - nf4.values[14]) <= 0.05

    def test_interior_shrinks_with_block_size(self):
        small = qc.af4_code(64).values
        large = qc.af4_code(4096).values
        interior = list(range(1, 7)) + list(range(8, 15))
        for j in interior:
            assert abs(large[j]) < abs(small[j])

    def test_local_optimality(self):
        B = 64
        code = qc.af4_code(B)
        base = qc.expected_l1(code, B)
        interior = list(range(1, 7)) + list(range(8, 15))
        for j in interior:
            for eps in (-1e-3, 1e-3):
                vals = np.array(code.values)
                vals[j] += eps
                perturbed = qc.Code16(vals)
                assert qc.expected_l1(perturbed, B) >= base - 1e-9

    def test_block_size_domain(self):
        with pytest.raises(DomainError):
            qc.af4_code(1)


# _shoot_side's two problems: (left, lo, hi, num_steps, target).
SHOOTING_SIDES = {"negative": (-1.0, -1.0, 0.0, 6, 0.0),
                  "positive": (0.0, 0.0, 1.0, 7, 1.0)}
SHOOTING_BLOCK_SIZES = [1 << k for k in range(1, 25)] + [3, 5, 100, 1000]


def _grid(lo, hi):
    return np.linspace(lo, hi, qc.SEED_SCAN_POINTS + 2)[1:-1]


def _grid_residuals(left, lo, hi, num_steps, target, B):
    """The shooting residual at every seed of _shoot_side's grid, +inf where
    the trajectory escapes the support."""
    r = []
    for seed in _grid(lo, hi):
        a, b = left, seed
        try:
            for _ in range(num_steps):
                a, b = b, qc.stationarity_step(a, b, B)
        except qc.EscapedSupportError:
            b = np.inf
        r.append(b - target)
    return np.array(r)


class TestShootingGrid:
    """_shoot_side bisects over its grid's indices, which finds the bracket
    a full scan would find only if the grid holds one sign change.  These
    scans are the evidence that it does."""

    @pytest.mark.parametrize("side", SHOOTING_SIDES)
    @pytest.mark.parametrize("B", SHOOTING_BLOCK_SIZES)
    def test_one_bracket_and_rising_residuals(self, B, side):
        r = _grid_residuals(*SHOOTING_SIDES[side], B)
        assert not np.isnan(r).any()
        brackets = np.flatnonzero((r[:-1] < 0.0) & (r[1:] >= 0.0))
        assert brackets.size == 1, r
        escaped = np.flatnonzero(r == np.inf)
        top = escaped[0] if escaped.size else r.size
        assert np.all(r[top:] == np.inf), r
        assert np.all(np.diff(r[:top]) >= 0.0), r

    def test_no_sign_change_when_every_seed_escapes(self, monkeypatch):
        def escape(a_prev, a_cur, block_size):
            raise qc.EscapedSupportError("escaped")

        monkeypatch.setattr(qc, "stationarity_step", escape)
        with pytest.raises(ConstructionError, match="no sign change"):
            qc.af4_code(64)

    @pytest.mark.parametrize("B", [2, 64, 4096])
    def test_at_most_eight_grid_seeds_per_side(self, B, monkeypatch):
        step = qc.stationarity_step
        calls = []

        def counted(a_prev, a_cur, block_size):
            calls.append((a_prev, a_cur))
            return step(a_prev, a_cur, block_size)

        monkeypatch.setattr(qc, "stationarity_step", counted)
        qc.af4_code(B)
        # A trajectory's first step starts from the side's left value.
        for left, lo, hi, *_ in SHOOTING_SIDES.values():
            grid = set(_grid(lo, hi))
            seeds = [a_cur for a_prev, a_cur in calls
                     if a_prev == left and a_cur in grid]
            assert 2 <= len(seeds) <= 8


@pytest.mark.parametrize("build", [qc.af4_code, qc.uniform_bins,
                                   qc._midpoint_balanced_code,
                                   qc.balanced_code_with_endpoints])
@pytest.mark.parametrize("block_size", [None, "64", True])
def test_constructors_check_the_block_size_first(build, block_size):
    with pytest.raises(DomainError, match="block size must be an integer"):
        build(block_size)


class TestUniformBins:
    def test_median_edge_is_zero(self):
        bins = qc.uniform_bins(64)
        assert bins.edges[8] == pytest.approx(0.0, abs=1e-8)

    def test_equal_mass_bins(self):
        B = 64
        bins = qc.uniform_bins(B)
        cdf_vals = [qd.fx_cdf(e, B) for e in bins.edges[1:-1]]
        masses = np.diff(np.concatenate(([0.0], cdf_vals, [1.0])))
        np.testing.assert_allclose(masses, 1 / 16, atol=1e-7)

    def test_small_block_rejected(self):
        with pytest.raises(DomainError, match=">= 9"):
            qc.uniform_bins(4)
        # boundary: atom mass exactly fits below 1/16 at B = 9
        qc.uniform_bins(9)

    def test_edges_match_empirical_quantiles(self):
        B = 64
        bins = qc.uniform_bins(B)
        cfg = qmc.McConfig(seed=99, block_size=B, num_blocks=1 << 15)
        ks = np.array([1, 4, 8, 12, 15])
        for k, p, se in zip(ks, *qmc.empirical_cdf_stream(cfg, bins.edges[ks])):
            assert abs(p - k / 16) <= 4 * se


def _evenly_spaced_bins():
    return qc.BinEdges(np.linspace(-1, 1, 17))


class TestBalanced:
    def test_even_bins_centered_seed_gives_even_code(self):
        bins = _evenly_spaced_bins()
        seed = -1.0 + 1 / 16  # center of the first bin
        code = qc.balanced_code(seed, bins)
        np.testing.assert_allclose(np.diff(code.values), 1 / 8, atol=1e-15)

    def test_midpoint_identity(self):
        bins = qc.uniform_bins(64)
        lo, hi = qc.feasible_seed_interval(bins)
        code = qc.balanced_code(0.5 * (lo + hi), bins, block_size=64)
        mids = 0.5 * (code.values[:-1] + code.values[1:])
        np.testing.assert_allclose(mids, bins.edges[1:-1], atol=1e-15)

    def test_infeasible_seed_names_index(self):
        bins = qc.uniform_bins(64)
        with pytest.raises(ConstructionError, match="value 2"):
            qc.balanced_code(bins.edges[0], bins, block_size=64)

    def test_seed_outside_first_bin(self):
        bins = qc.uniform_bins(64)
        with pytest.raises(DomainError, match="first bin"):
            qc.balanced_code(0.5, bins, block_size=64)

    def test_no_feasible_seed_names_the_scanned_interval(self):
        # Every seed's second value lands in the wide second bin, and its
        # third is reflected past 1 by the narrow bins above it.
        bins = qc.BinEdges(np.concatenate([[-1.0, -0.99], np.linspace(0.9, 1.0, 15)]))
        with pytest.raises(ConstructionError, match=r"no feasible balanced-code seed "
                           r"among 1024 scanned values in \[-1, -0\.99\]"):
            qc.feasible_seed_interval(bins)

    def test_feasible_interval_inside_first_bin(self):
        bins = qc.uniform_bins(256)
        lo, hi = qc.feasible_seed_interval(bins)
        assert bins.edges[0] <= lo < hi <= bins.edges[1]
        # both extremes actually construct
        qc.balanced_code(lo, bins, block_size=256)
        qc.balanced_code(hi, bins, block_size=256)

    def test_equal_analytic_masses(self):
        B = 4096
        bins = qc.uniform_bins(B)
        lo, hi = qc.feasible_seed_interval(bins)
        code = qc.balanced_code(0.5 * (lo + hi), bins, block_size=B)
        masses = qc.code_bin_masses(code, B)
        np.testing.assert_allclose(masses, 1 / 16, atol=1e-7)


def _reflect_one(seed, edges):
    """The reflection recurrence for one seed, value by value."""
    q = np.empty(16)
    q[0] = seed
    for k in range(1, 16):
        q[k] = 2.0 * edges[k] - q[k - 1]
    return q


def _first_violation(q, edges):
    """Index (1-based) of the first value outside its bin or not above the
    value before it, or None."""
    for k in range(16):
        if not (edges[k] <= q[k] <= edges[k + 1]):
            return k + 1
        if k and q[k] <= q[k - 1]:
            return k + 1
    return None


class TestBalancedScanOracle:
    """The array scan against the per-seed scan, seed by seed."""

    @pytest.mark.parametrize("B", [12, 13, 64, 4096, 1 << 20])
    def test_matches_the_per_seed_scan(self, B):
        bins = qc.uniform_bins(B)
        edges = bins.edges
        scan = np.linspace(edges[0], edges[1], qc.BALANCED_SCAN_POINTS)
        feasible = [s for s in scan
                    if _first_violation(_reflect_one(s, edges), edges) is None]
        lo, hi = qc.feasible_seed_interval(bins)
        assert (lo, hi) == (float(feasible[0]), float(feasible[-1]))
        rng = np.random.default_rng(B)
        seeds = np.concatenate([scan, rng.uniform(edges[0], edges[1], 64),
                                np.nextafter([lo, lo, hi, hi], [-2, 2, -2, 2])])
        seeds = seeds[(edges[0] <= seeds) & (seeds <= edges[1])]
        for seed in seeds:
            q = _reflect_one(seed, edges)
            bad = _first_violation(q, edges)
            if bad is None:
                code = qc.balanced_code(seed, bins, block_size=B)
                assert np.array_equal(code.values, q)
            else:
                with pytest.raises(ConstructionError, match=rf": code value {bad} \("):
                    qc.balanced_code(seed, bins, block_size=B)


class TestBalancedWithEndpoints:
    def test_contains_endpoints(self):
        code = qc.balanced_code_with_endpoints(4096)
        for target in (-1.0, 0.0, 1.0):
            assert target in code.values

    def test_other_values_unchanged(self):
        B = 4096
        code = qc.balanced_code_with_endpoints(B)
        bins = qc.uniform_bins(B)
        base = qc.balanced_code(code.params["q1_seed"], bins, block_size=B)
        replaced = set(code.params["replaced_positions"].values())
        assert len(replaced) == 3
        for j in range(16):
            if j + 1 not in replaced:
                assert code.values[j] == base.values[j]

    def test_usage_less_uniform_than_balanced(self):
        B = 4096
        nblocks = 1 << 9
        bins = qc.uniform_bins(B)
        lo, hi = qc.feasible_seed_interval(bins)
        balanced = qc.balanced_code(0.5 * (lo + hi), bins, block_size=B)
        endpoints = qc.balanced_code_with_endpoints(B)
        cfg = qmc.McConfig(seed=5, block_size=B, num_blocks=nblocks)
        props_bal, _ = qmc.usage_statistics(cfg, balanced)
        props_end, _ = qmc.usage_statistics(cfg, endpoints)
        dev_bal = np.abs(props_bal - 1 / 16).max()
        dev_end = np.abs(props_end - 1 / 16).max()
        assert dev_end > dev_bal


class TestExpectedL1:
    def test_af4_beats_nf4_at_large_blocks(self):
        nf4 = qc.nf4_code()
        af4 = qc.af4_code(4096)
        assert qc.expected_l1(af4, 4096) < qc.expected_l1(nf4, 4096)

    @staticmethod
    def _quadrature_oracle(values, B):
        """Independent route: atoms by hand plus scipy quadrature of the
        nearest-value distance against a finite-difference density."""
        from scipy import integrate

        atom = (1 / (2 * B)) * (
            np.abs(values + 1.0).min() + np.abs(values - 1.0).min()
        )
        h = 1e-5
        gb_cdf = qd.scaled_max_distribution(B).gb_cdf

        def density(x):
            lo, hi = max(x - h, -1.0), min(x + h, 1.0)
            return (gb_cdf(hi) - gb_cdf(lo)) / (hi - lo)

        edges = np.concatenate(([-1.0], 0.5 * (values[:-1] + values[1:]), [1.0]))
        cont = 0.0
        for j in range(16):
            part, _ = integrate.quad(
                lambda x, a=values[j]: abs(x - a) * density(x),
                edges[j], edges[j + 1], limit=100,
            )
            cont += part
        return atom + (1 - 1 / B) * cont

    def test_matches_independent_quadrature_with_endpoints(self):
        # atoms coincide with the +/-1 code values, so only the continuous
        # integral contributes
        B = 32
        code = qc.nf4_code()
        oracle = self._quadrature_oracle(code.values, B)
        assert qc.expected_l1(code, B) == pytest.approx(oracle, abs=5e-6)

    def test_matches_independent_quadrature_without_endpoints(self):
        # a code missing +/-1 pays the atoms' distance explicitly
        B = 32
        values = np.linspace(-0.8, 0.8, 16)
        oracle = self._quadrature_oracle(values, B)
        assert oracle > 2 * (1 / (2 * B)) * 0.19  # atom contribution present
        assert qc.expected_l1(qc.Code16(values), B) == pytest.approx(
            oracle, abs=5e-6
        )

    def test_monte_carlo_agreement(self):
        B = 64
        code = qc.af4_code(B)
        analytic = qc.expected_l1(code, B)
        cfg = qmc.McConfig(seed=11, block_size=B, num_blocks=1 << 16)
        q = code.values
        means = []
        for start in range(0, cfg.num_blocks, 1 << 12):
            chunk = qmc.sample_block_values(cfg, start, start + (1 << 12))
            idx = bq.nearest_index(chunk, code)
            d = np.abs(chunk - q[idx])
            means.append(d.mean(axis=1))
        means = np.concatenate(means)
        est = means.mean()
        stderr = means.std(ddof=1) / np.sqrt(means.size)
        assert abs(est - analytic) <= 4 * stderr
        mc_est, mc_stderr = qmc.l1_statistics(cfg, code)
        assert mc_est == pytest.approx(est, rel=1e-12, abs=0)
        assert mc_stderr == pytest.approx(stderr, rel=1e-12, abs=0)

    def test_rejects_bad_points(self):
        dist = qd.ScaledMaxDistribution(32)
        with pytest.raises(DomainError):
            dist.expected_min_abs_distance([0.5, 0.5])
        with pytest.raises(DomainError):
            dist.expected_min_abs_distance([-2.0, 0.0])


def json_list(vals):
    return "[" + ", ".join(str(v) for v in vals) + "]"


class TestCodeFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        code = qc.af4_code(64)
        path = tmp_path / "af4.json"
        qc.code_write(code, path)
        back = qc.code_read(path)
        assert back.kind == code.kind
        assert back.block_size == code.block_size
        assert np.array_equal(back.values, code.values)

    def test_roundtrip_all_kinds(self, tmp_path):
        bins = qc.uniform_bins(64)
        lo, hi = qc.feasible_seed_interval(bins)
        codes = [
            qc.nf4_code(),
            qc.nf4_code("average_of_quantile"),
            qc.balanced_code(0.5 * (lo + hi), bins, block_size=64),
            qc.balanced_code_with_endpoints(64),
            qc.Code16(np.linspace(-1, 1, 16), kind="custom"),
        ]
        for i, code in enumerate(codes):
            path = tmp_path / f"code{i}.json"
            qc.code_write(code, path)
            assert np.array_equal(qc.code_read(path).values, code.values)

    def test_wrong_count(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"format": "code16/v1", "kind": "custom", "block_size": null, '
            f'"values": {np.linspace(-1, 1, 15).tolist()}, "params": {{}}}}'
        )
        with pytest.raises(FormatError, match=r"code values must be 16 real numbers, "
                           r"got shape \(15,\)"):
            qc.code_read(path)

    def test_non_monotone_names_index(self, tmp_path):
        vals = np.linspace(-1, 1, 16).tolist()
        vals[4], vals[5] = vals[5], vals[4]
        path = tmp_path / "bad.json"
        path.write_text(
            '{"format": "code16/v1", "kind": "custom", "block_size": null, '
            f'"values": {vals}, "params": {{}}}}'
        )
        with pytest.raises(FormatError, match=r": code values must be strictly "
                           r"increasing; value 5 >= value 6$"):
            qc.code_read(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(FormatError):
            qc.code_read(path)

    def test_wrong_marker(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "code16/v2", "values": []}')
        with pytest.raises(FormatError, match="code16/v1"):
            qc.code_read(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"format": "code16/v1", "kind": "mystery", "block_size": null, '
            f'"values": {np.linspace(-1, 1, 16).tolist()}, "params": {{}}}}'
        )
        with pytest.raises(FormatError, match="unknown kind"):
            qc.code_read(path)

    def test_booleans_rejected(self, tmp_path):
        vals = np.linspace(-1, 1, 16).tolist()
        vals[3] = "true"
        path = tmp_path / "bad.json"
        path.write_text(
            '{"format": "code16/v1", "kind": "custom", "block_size": null, '
            f'"values": {json_list(vals)}, "params": {{}}}}'
        )
        with pytest.raises(FormatError, match="numbers"):
            qc.code_read(path)

    @pytest.mark.parametrize("field, text", [
        ("values", "[" * 100000 + "]" * 100000),
        ("values", json_list([10**400] + np.linspace(-1, 1, 16).tolist()[1:])),
        ("values", json_list(["NaN"] + np.linspace(-1, 1, 16).tolist()[1:])),
        ("values", json_list(np.linspace(-1, 1, 16).tolist()[:-1] + ["1e999"])),
        ("values", json_list(['"-1"'] + np.linspace(-1, 1, 16).tolist()[1:])),
        ("values", json_list(["[-1]"] + np.linspace(-1, 1, 16).tolist()[1:])),
        ("values", json_list(["null"] + np.linspace(-1, 1, 16).tolist()[1:])),
        ("values", json_list(np.linspace(-1, 1, 16).tolist()[:-1] + ["true"])),
        ("values", json_list(np.linspace(-1, 1, 16).tolist()[:7] + ["false"]
                             + np.linspace(-1, 1, 16).tolist()[8:])),
        ("block_size", "-5"),
        ("block_size", "0"),
        ("block_size", "2.5"),
        ("block_size", "true"),
        ("kind", '["custom"]'),
        ("params", "[1, 2]"),
        ("params", "null"),
    ], ids=["deep-nesting", "int-overflow", "nan", "inf", "string", "nested", "null",
            "true", "false", "block-size-negative", "block-size-zero",
            "block-size-float", "block-size-bool", "kind-list", "params-list",
            "params-null"])
    def test_malformed_fields_are_format_errors(self, tmp_path, field, text):
        doc = {"format": '"code16/v1"', "kind": '"custom"', "block_size": "null",
               "values": json_list(np.linspace(-1, 1, 16).tolist()),
               "params": "{}", field: text}
        path = tmp_path / "bad.json"
        path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in doc.items())
                        + "}")
        with pytest.raises(FormatError):
            qc.code_read(path)


CODE_TAKERS = {
    "expected_l1": lambda c, tmp: qc.expected_l1(c, 64),
    "code_bin_masses": lambda c, tmp: qc.code_bin_masses(c, 64),
    "median_condition_residuals": lambda c, tmp: qc.median_condition_residuals(c, 64),
    "code_write": lambda c, tmp: qc.code_write(c, tmp / "c.json"),
    "nearest_index": lambda c, tmp: bq.nearest_index([0.25, -0.5], c),
    "quantize": lambda c, tmp: bq.quantize(np.ones(4, np.float32), c, 2),
    "QuantizedTensor": lambda c, tmp: bq.QuantizedTensor(
        (4,), 0, 2, c, np.zeros(bq._fqz1_body_length((4,), 0, 2), np.uint8)),
    "usage_statistics": lambda c, tmp: qmc.usage_statistics(qmc.McConfig(1, 16, 4), c),
    "l1_statistics": lambda c, tmp: qmc.l1_statistics(qmc.McConfig(1, 16, 4), c),
}


@pytest.mark.parametrize("take", CODE_TAKERS.values(), ids=CODE_TAKERS.keys())
def test_functions_that_take_a_code_reject_a_bare_array(tmp_path, take):
    # a code's values alone are not a code: several of these once raised
    # AttributeError, and the array's values were never checked
    take(qc.nf4_code(), tmp_path)
    bare = tmp_path / "bare"
    bare.mkdir()
    with pytest.raises(DomainError, match="^code must be a Code16, got ndarray$"):
        take(qc.nf4_code().values, bare)
    assert list(bare.iterdir()) == []


class TestCodeInvariantsAcrossBlockSizes:
    @pytest.mark.parametrize("B", [16, 32, 64, 256, 1024, 4096])
    def test_constructed_codes_valid(self, B):
        codes = [qc.nf4_code(), qc.balanced_code_with_endpoints(B)]
        if B >= 9:
            bins = qc.uniform_bins(B)
            lo, hi = qc.feasible_seed_interval(bins)
            codes.append(qc.balanced_code(0.5 * (lo + hi), bins, block_size=B))
        for code in codes:
            v = code.values
            assert np.all(np.diff(v) > 0)
            assert v[0] >= -1.0 and v[-1] <= 1.0
