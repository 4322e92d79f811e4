"""Distribution numerics for absmax-normalized Gaussian blocks.

A block of B i.i.d. standard normal draws, divided by the largest absolute
value in the block, produces entries in [-1, 1] whose law is mixed: discrete
atoms of mass 1/(2B) at -1 and +1 (the extreme entry itself) plus a
continuous part supported on (-1, 1).  This module provides the standard
normal / half-normal / truncated-normal building blocks, the law of the
block absmax, and the exact and approximate CDFs of the normalized entries,
all with controlled absolute accuracy.

The continuous part is an average of scaled truncated normals: conditioning
on the absmax equalling m, a non-extreme entry is a standard normal
truncated to (-m, m) and divided by m.  Averaging over the absmax density
gives

    gb_cdf(x) = integral over m of absmax_pdf(m) * Psi(m*x; m)

where Psi(.; m) is the CDF of a standard normal truncated to [-m, m].
The integral is evaluated by adaptive Gauss-Legendre quadrature: the node
count is doubled until two successive estimates agree within the requested
absolute tolerance.  Tail truncation of the m-range is chosen so that the
omitted absmax mass is far below the quadrature tolerance.

Accuracy is decided in this module alone, and no function or class takes
an accuracy argument.  ``quad_tol()`` is the one quadrature tolerance:
DEFAULT_ABS_TOL, or the QUANTLAB_QUAD_TOL environment variable when set.
Refinement stops after MAX_REFINEMENTS node doublings, and quantiles are
bracketed to DEFAULT_ROOT_TOL.
"""

from __future__ import annotations

import math
import os
import threading
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq
from scipy.special import erf, erfc, erfinv, ndtr, ndtri

from .errors import DomainError, NumericalError

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

DEFAULT_ABS_TOL = 1e-8
DEFAULT_ROOT_TOL = 1e-10
DEFAULT_TAIL_CUT = 1e-12
#: Node doublings the adaptive quadrature may try before giving up.
MAX_REFINEMENTS = 6

#: Environment variable that overrides the default quadrature tolerance.
QUAD_TOL_ENV = "QUANTLAB_QUAD_TOL"


def _check_block_size(block_size):
    if isinstance(block_size, bool) or not isinstance(block_size, (int, np.integer)):
        raise DomainError(f"block size must be an integer, got {block_size!r}")
    if block_size < 1:
        raise DomainError(f"block size must be >= 1, got {block_size}")
    return int(block_size)


def _not_nan(name, value):
    if math.isnan(value := float(value)):
        raise DomainError(f"{name} must be a number, got nan")
    return value


def quad_tol():
    """The quadrature tolerance: QUANTLAB_QUAD_TOL if set, else DEFAULT_ABS_TOL."""
    env = os.environ.get(QUAD_TOL_ENV)
    if env is None:
        return DEFAULT_ABS_TOL
    try:
        abs_tol = float(env)
    except ValueError:
        raise DomainError(f"{QUAD_TOL_ENV} must be a number, got {env!r}") from None
    if not (abs_tol > 0):
        raise DomainError(f"{QUAD_TOL_ENV} must be > 0, got {env!r}")
    return abs_tol


def normal_cdf(x):
    """Standard normal CDF (complementary-error-function based)."""
    return ndtr(x)


def normal_quantile(p):
    """Inverse standard normal CDF; requires 0 < p < 1."""
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr <= 0.0) or np.any(p_arr >= 1.0):
        raise DomainError(f"normal_quantile requires 0 < p < 1, got {p}")
    return ndtri(p)


def normal_pdf(x):
    """Standard normal density."""
    x = np.asarray(x, dtype=float)
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def halfnormal_cdf(m):
    """CDF of |Z| for Z standard normal; requires m >= 0."""
    m_arr = np.asarray(m, dtype=float)
    if np.any(m_arr < 0.0):
        raise DomainError(f"halfnormal_cdf requires m >= 0, got {m}")
    return erf(m_arr / _SQRT2) if m_arr.ndim else float(erf(m_arr / _SQRT2))


def halfnormal_quantile(p):
    """Inverse half-normal CDF; requires 0 <= p < 1."""
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr < 0.0) or np.any(p_arr >= 1.0):
        raise DomainError(f"halfnormal_quantile requires 0 <= p < 1, got {p}")
    out = _SQRT2 * erfinv(p_arr)
    return out if p_arr.ndim else float(out)


def trunc_normal_cdf(x, m):
    """CDF of a standard normal truncated to [-m, m], evaluated at x.

    Values of x outside [-m, m] clamp to 0/1.  Requires m > 0.
    """
    if not (m > 0):
        raise DomainError(f"trunc_normal_cdf requires m > 0, got m={m}")
    x_arr = np.asarray(x, dtype=float)
    xc = np.clip(x_arr, -m, m)
    # (Phi(x) - Phi(-m)) / (Phi(m) - Phi(-m)), written with erf so the
    # m -> 0 limit stays finite.
    denom = erf(m / _SQRT2)
    out = (erf(xc / _SQRT2) + denom) / (2.0 * denom)
    return out if x_arr.ndim else float(out)


def absmax_median(block_size):
    """Median of max(|Z_1|, ..., |Z_B|) for i.i.d. standard normals."""
    B = _check_block_size(block_size)
    return halfnormal_quantile(0.5 ** (1.0 / B))


def _halfnormal_log_cdf(m):
    # log(erf(m/sqrt(2))) evaluated as log1p(-erfc(.)) so powers with huge
    # exponents stay accurate near the upper tail.
    with np.errstate(divide="ignore"):
        return np.log1p(-erfc(np.asarray(m, dtype=float) / _SQRT2))


def absmax_pdf(m, block_size):
    """Density of the block absmax: 2B * halfnormal_cdf(m)^(B-1) * phi(m)."""
    B = _check_block_size(block_size)
    m_arr = np.asarray(m, dtype=float)
    if np.any(m_arr < 0.0):
        raise DomainError(f"absmax_pdf requires m >= 0, got {m}")
    if B == 1:
        out = 2.0 * normal_pdf(m_arr)
    else:
        log_pow = (B - 1) * _halfnormal_log_cdf(m_arr)
        out = 2.0 * B * _INV_SQRT_2PI * np.exp(log_pow - 0.5 * m_arr * m_arr)
    return out if m_arr.ndim else float(out)


@lru_cache(maxsize=64)
def _leggauss(n):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


class ScaledMaxDistribution:
    """The mixed law of one entry of an absmax-normalized normal block.

    Atoms of mass 1/(2B) sit at -1 and +1; the remaining 1 - 1/B of the
    mass is continuous on (-1, 1) with CDF ``gb_cdf``.  block_size = 1 is
    the degenerate two-atom case: ``fx_cdf`` still works but ``gb_cdf``
    raises, since there is no continuous part to describe.

    The quadrature tolerance is ``quad_tol()`` at construction.  Instances
    precompute quadrature rules lazily and are safe to share across threads.
    """

    def __init__(self, block_size):
        self.block_size = _check_block_size(block_size)
        self.abs_tol = quad_tol()
        self.atom_mass = 1.0 / (2.0 * self.block_size)
        # Constant stand-in for the absmax used by the closed-form
        # approximation: the median of the absmax law.
        self.m_typical = absmax_median(self.block_size)
        B = self.block_size
        if B >= 2:
            # m-range outside of which the absmax mass is below ~DEFAULT_TAIL_CUT;
            # the integrand is then evaluated only on [m_lo, m_hi].
            self.m_lo = halfnormal_quantile(DEFAULT_TAIL_CUT ** (1.0 / (B - 1)))
            self.m_hi = -float(ndtri(DEFAULT_TAIL_CUT / (2.0 * B)))
            # For expectation integrals 1/thorn(m) appears in the integrand, so
            # the lower cut keeps thorn(m)^B (not ^(B-1)) below DEFAULT_TAIL_CUT.
            self._m_lo_expect = halfnormal_quantile(DEFAULT_TAIL_CUT ** (1.0 / B))
        else:
            self.m_lo = self.m_hi = self._m_lo_expect = None
        self._rules = {}
        self._lock = threading.Lock()

    # -- quadrature machinery -------------------------------------------

    _BASE_NODES = 64

    def _rule(self, n, lo):
        key = (n, lo)
        rule = self._rules.get(key)
        if rule is None:
            with self._lock:
                rule = self._rules.get(key)
                if rule is None:
                    x, w = _leggauss(n)
                    half = 0.5 * (self.m_hi - lo)
                    m = half * x + 0.5 * (self.m_hi + lo)
                    weights = half * w * absmax_pdf(m, self.block_size)
                    thorn = erf(m / _SQRT2)
                    rule = (m, weights, thorn)
                    self._rules[key] = rule
        return rule

    def _integrate(self, node_func, lo):
        """Adaptive refinement: double the node count until two successive
        Gauss-Legendre estimates agree within abs_tol."""
        n = self._BASE_NODES
        prev = node_func(*self._rule(n, lo))
        deltas = []
        for _ in range(MAX_REFINEMENTS):
            n *= 2
            cur = node_func(*self._rule(n, lo))
            deltas.append(abs(cur - prev))
            if deltas[-1] <= self.abs_tol:
                return cur
            prev = cur
        raise NumericalError(
            f"quadrature did not converge to abs_tol={self.abs_tol:g} "
            f"within {MAX_REFINEMENTS} refinements "
            f"(final {n} nodes, successive deltas {deltas})"
        )

    # -- CDFs and quantiles ----------------------------------------------

    def gb_cdf(self, x):
        """CDF of the continuous part on [-1, 1]."""
        if self.block_size < 2:
            raise DomainError(
                "block size 1 has no continuous part: the law is two atoms at +/-1"
            )
        x = float(x)
        if not (-1.0 <= x <= 1.0):
            raise DomainError(f"gb_cdf requires -1 <= x <= 1, got {x}")

        def node_func(m, weights, thorn):
            # Psi(m*x; m) = (erf(m*x/sqrt2) + erf(m/sqrt2)) / (2 erf(m/sqrt2))
            psi = (erf(m * (x / _SQRT2)) + thorn) / (2.0 * thorn)
            return float(weights @ psi)

        return self._integrate(node_func, self.m_lo)

    def _with_atoms(self, x, continuous_cdf):
        """Mixed-law CDF at x, right-continuous, given the CDF of the
        continuous part on (-1, 1)."""
        x = _not_nan("x", x)
        if x < -1.0:
            return 0.0
        if x >= 1.0:
            return 1.0
        if self.block_size == 1 or x == -1.0:
            return self.atom_mass
        return self.atom_mass + (1.0 - 1.0 / self.block_size) * continuous_cdf(x)

    def fx_cdf(self, x):
        """CDF of the full mixed law (atoms included), right-continuous."""
        return self._with_atoms(x, self.gb_cdf)

    def fx_quantile(self, p):
        """Inverse of fx_cdf on the continuous region.

        Only probabilities strictly between the atom masses are invertible;
        anything else, and NaN, raises DomainError.
        """
        p = _not_nan("p", p)
        if p <= self.atom_mass:
            raise DomainError(
                f"p={p:g} falls in the atom at -1 (mass {self.atom_mass:g}); "
                "no unique quantile exists there"
            )
        if p >= 1.0 - self.atom_mass:
            raise DomainError(
                f"p={p:g} falls in the atom at +1 (mass {self.atom_mass:g}); "
                "no unique quantile exists there"
            )
        return float(brentq(lambda x: self.fx_cdf(x) - p, -1.0, 1.0,
                            xtol=DEFAULT_ROOT_TOL))

    def fx_cdf_approx(self, x):
        """Closed-form CDF that freezes the absmax at its median.

        Same atoms and normalization as fx_cdf, but the continuous part is a
        single truncated normal instead of an average over the absmax law.
        """
        m0 = self.m_typical
        return self._with_atoms(x, lambda t: trunc_normal_cdf(t * m0, m0))

    # -- expectations ------------------------------------------------------

    def expected_min_abs_distance(self, points):
        """E[min_j |X - points_j|] for X following this mixed law.

        The continuous part is integrated in closed form per truncated
        normal (conditioning on the absmax), leaving a single outer
        quadrature over the absmax density.
        """
        a = np.asarray(points, dtype=float)
        if a.ndim != 1 or a.size == 0:
            raise DomainError("points must be a non-empty 1-D array")
        if np.any(np.diff(a) <= 0):
            raise DomainError("points must be strictly increasing")
        if a[0] < -1.0 or a[-1] > 1.0:
            raise DomainError("points must lie within [-1, 1]")
        atom = self.atom_mass * (
            np.min(np.abs(-1.0 - a)) + np.min(np.abs(1.0 - a))
        )
        B = self.block_size
        if B == 1:
            return float(atom)

        # Nearest-point region boundaries in normalized coordinates.
        c = np.concatenate(([-1.0], 0.5 * (a[:-1] + a[1:]), [1.0]))

        def node_func(m, weights, thorn):
            mc = m[:, None] * c[None, :]          # region edges, y-space
            ystar = m[:, None] * a[None, :]       # kink locations, y-space
            cdf_c = ndtr(mc)
            pdf_c = normal_pdf(mc)
            cdf_s = ndtr(ystar)
            pdf_s = normal_pdf(ystar)
            # integral over one region of |y/m - a| against phi(y)
            piece = a[None, :] * (2.0 * cdf_s - cdf_c[:, :-1] - cdf_c[:, 1:])
            piece += (2.0 * pdf_s - pdf_c[:, :-1] - pdf_c[:, 1:]) / m[:, None]
            e = piece.sum(axis=1) / thorn
            return float(weights @ e)

        cont = self._integrate(node_func, self._m_lo_expect)
        return float(atom + (1.0 - 1.0 / B) * cont)


@lru_cache(maxsize=None)
def _cached_dist(block_size, abs_tol):
    return ScaledMaxDistribution(block_size)


def scaled_max_distribution(block_size):
    """Shared, cached ScaledMaxDistribution for a block size, at the
    accuracy of ``quad_tol()`` (read on every call)."""
    # The tolerance is in the key so that a changed override gets a new instance.
    return _cached_dist(block_size, quad_tol())


def gb_cdf(x, block_size):
    """CDF of the continuous part of the normalized-entry law."""
    return scaled_max_distribution(block_size).gb_cdf(x)


def fx_cdf(x, block_size):
    """CDF of the normalized-entry law (atoms at +/-1 included)."""
    return scaled_max_distribution(block_size).fx_cdf(x)


def fx_quantile(p, block_size):
    """Inverse CDF on the continuous region; atoms raise DomainError."""
    return scaled_max_distribution(block_size).fx_quantile(p)


def fx_cdf_approx(x, block_size):
    """Closed-form approximation of fx_cdf with the absmax held at its median."""
    return scaled_max_distribution(block_size).fx_cdf_approx(x)
