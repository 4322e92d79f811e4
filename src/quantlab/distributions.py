"""Distribution numerics for absmax-normalized Gaussian blocks.

A block of B i.i.d. standard normal draws, divided by the largest absolute
value in the block, produces entries in [-1, 1] whose law is mixed: discrete
atoms of mass 1/(2B) at -1 and +1 (the extreme entry itself) plus a
continuous part supported on (-1, 1).  This module provides the standard
normal / half-normal / truncated-normal building blocks, the law of the
block absmax, and the exact and approximate CDFs of the normalized entries,
all with controlled absolute accuracy.  Block sizes above MAX_BLOCK_SIZE
(2^53) raise DomainError: from about 1.25e16 on, ``0.5 ** (1/B)`` rounds to
1 and the absmax law has no representable median.

The continuous part is an average of scaled truncated normals: conditioning
on the absmax equalling m, a non-extreme entry is a standard normal
truncated to (-m, m) and divided by m.  Averaging over the absmax density
gives

    gb_cdf(x) = integral over m of absmax_pdf(m) * Psi(m*x; m)

where Psi(.; m) is the CDF of a standard normal truncated to [-m, m].
The integral is evaluated by adaptive Gauss-Legendre quadrature: the node
count is doubled from 64 until two successive estimates agree within the
quadrature tolerance.  The 64- and 128-node rules share one integrand call
on their 192 nodes, so an integral that stops at 128 nodes, as every one
measured does, costs one call.  Tail truncation of the m-range is chosen so that the
omitted absmax mass is far below the quadrature tolerance.

Accuracy is decided in this module alone, by constants: no function, class
or environment variable takes an accuracy setting.  DEFAULT_ABS_TOL is the
one quadrature tolerance, refinement stops after MAX_REFINEMENTS node
doublings, and quantiles are bracketed to DEFAULT_ROOT_TOL by ``_brentq``,
a port of scipy's ``brentq`` that gives the same roots, so no command
imports ``scipy.optimize``.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np
from scipy.special import erf, erfc, erfinv, ndtr, ndtri

from .errors import DomainError, NumericalError, check_block_size

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# The defaults of scipy's brentq, which _brentq keeps.
_ROOT_RTOL = 4 * sys.float_info.epsilon
_ROOT_ITER = 100

DEFAULT_ABS_TOL = 1e-8
DEFAULT_ROOT_TOL = 1e-10
DEFAULT_TAIL_CUT = 1e-12
#: Node doublings the adaptive quadrature may try before giving up.
MAX_REFINEMENTS = 6
#: Largest block size the distribution layer accepts.
MAX_BLOCK_SIZE = 1 << 53


def _not_nan(name, value):
    if math.isnan(value := float(value)):
        raise DomainError(f"{name} must be a number, got nan")
    return value


def _brentq(f, xa, xb, xtol):
    """Root of f in [xa, xb], given f(xa) and f(xb) of opposite signs.

    Brent's method, step for step as in scipy's ``optimize/Zeros/brentq.c``
    with rtol = 4 eps and at most 100 iterations, so it returns the floats
    scipy's ``brentq`` returns.  A NaN value of f, or no convergence,
    raises NumericalError.
    """
    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise NumericalError(f"root finder: f({x!r}) is nan")
        return fx

    xpre, xcur = xa, xb
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_ITER):
        if (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise NumericalError(f"root finder did not converge in {_ROOT_ITER} iterations "
                         f"(last bracket [{min(xcur, xblk)!r}, {max(xcur, xblk)!r}])")


def normal_quantile(p):
    """Inverse standard normal CDF; requires 0 < p < 1."""
    p_arr = np.asarray(p, dtype=float)
    if not np.all((p_arr > 0.0) & (p_arr < 1.0)):
        raise DomainError(f"normal_quantile requires 0 < p < 1, got {p}")
    return ndtri(p)


def normal_pdf(x):
    """Standard normal density."""
    x = np.asarray(x, dtype=float)
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def halfnormal_quantile(p):
    """Inverse half-normal CDF; requires 0 <= p < 1."""
    p_arr = np.asarray(p, dtype=float)
    if not np.all((p_arr >= 0.0) & (p_arr < 1.0)):
        raise DomainError(f"halfnormal_quantile requires 0 <= p < 1, got {p}")
    out = _SQRT2 * erfinv(p_arr)
    return out if p_arr.ndim else float(out)


def trunc_normal_cdf(x, m):
    """CDF of a standard normal truncated to [-m, m], evaluated at x.

    Values of x outside [-m, m] clamp to 0/1.  Requires m > 0 and x not NaN.
    """
    if not (m > 0):
        raise DomainError(f"trunc_normal_cdf requires m > 0, got m={m}")
    x_arr = np.asarray(x, dtype=float)
    if np.isnan(x_arr).any():
        raise DomainError(f"trunc_normal_cdf requires x to be a number, got {x}")
    xc = np.clip(x_arr, -m, m)
    # (Phi(x) - Phi(-m)) / (Phi(m) - Phi(-m)), written with erf so the
    # m -> 0 limit stays finite.
    denom = erf(m / _SQRT2)
    out = (erf(xc / _SQRT2) + denom) / (2.0 * denom)
    return out if x_arr.ndim else float(out)


def absmax_median(block_size):
    """Median of max(|Z_1|, ..., |Z_B|) for i.i.d. standard normals."""
    B = check_block_size(block_size, MAX_BLOCK_SIZE)
    return halfnormal_quantile(0.5 ** (1.0 / B))


def _halfnormal_log_cdf(m):
    # log(erf(m/sqrt(2))) evaluated as log1p(-erfc(.)) so powers with huge
    # exponents stay accurate near the upper tail.
    with np.errstate(divide="ignore"):
        return np.log1p(-erfc(np.asarray(m, dtype=float) / _SQRT2))


def absmax_pdf(m, block_size):
    """Density of the block absmax: 2B * erf(m/sqrt2)^(B-1) * phi(m)."""
    B = check_block_size(block_size, MAX_BLOCK_SIZE)
    m_arr = np.asarray(m, dtype=float)
    if not np.all(m_arr >= 0.0):
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


# A block size uses at most 14 rules (7 node counts times 2 lower cuts) and 2
# pair rules (one per lower cut): each cache holds 18 block sizes.
@lru_cache(maxsize=256)
def _rule(block_size, m_hi, n, lo):
    """The n-node Gauss-Legendre rule on [lo, m_hi] against the absmax
    density: nodes m, weights times the density, erf(m / sqrt2) and twice
    that."""
    x, w = _leggauss(n)
    half = 0.5 * (m_hi - lo)
    m = half * x + 0.5 * (m_hi + lo)
    thorn = erf(m / _SQRT2)
    return m, half * w * absmax_pdf(m, block_size), thorn, 2.0 * thorn


@lru_cache(maxsize=36)
def _pair_rule(block_size, m_hi, lo):
    """The 64- and 128-node rules of ``_rule`` joined, so that one integrand
    call serves both: the 192 nodes, erf(m / sqrt2) and twice that, with
    the 64-node rule's part first, then each rule's weights."""
    r64, r128 = _rule(block_size, m_hi, 64, lo), _rule(block_size, m_hi, 128, lo)
    m, thorn, twice = (np.concatenate((r64[i], r128[i])) for i in (0, 2, 3))
    return m, thorn, twice, r64[1], r128[1]


class ScaledMaxDistribution:
    """The mixed law of one entry of an absmax-normalized normal block.

    Atoms of mass 1/(2B) sit at -1 and +1; the remaining 1 - 1/B of the
    mass is continuous on (-1, 1) with CDF ``gb_cdf``.  block_size = 1 is
    the degenerate two-atom case: ``fx_cdf`` still works but ``gb_cdf``
    raises, since there is no continuous part to describe.

    Instances are safe to share across threads: what they share is the
    quadrature rules, built lazily into module-level caches (``_rule`` and
    the joined first two rules, ``_pair_rule``), which are never written
    after they are built.
    """

    def __init__(self, block_size):
        self.block_size = check_block_size(block_size, MAX_BLOCK_SIZE)
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

    # -- quadrature machinery -------------------------------------------

    def _integrate(self, values, lo):
        """Adaptive refinement: double the node count from 64 until two
        successive Gauss-Legendre estimates agree within DEFAULT_ABS_TOL.

        ``values(m, thorn, twice)`` gives the integrand at nodes m, without
        the weights.  The 64- and 128-node estimates come from one call on
        ``_pair_rule``'s 192 nodes; each later level is a call of its own.
        """
        B, hi = self.block_size, self.m_hi
        m, thorn, twice, w64, w128 = _pair_rule(B, hi, lo)
        v = values(m, thorn, twice)
        prev, cur = float(w64.dot(v[:64])), float(w128.dot(v[64:]))
        n, deltas = 128, [abs(cur - prev)]
        while deltas[-1] > DEFAULT_ABS_TOL:
            if len(deltas) >= MAX_REFINEMENTS:
                raise NumericalError(
                    f"quadrature did not converge to abs_tol={DEFAULT_ABS_TOL:g} "
                    f"within {MAX_REFINEMENTS} refinements "
                    f"(final {n} nodes, successive deltas {deltas})"
                )
            n *= 2
            m, w, thorn, twice = _rule(B, hi, n, lo)
            prev, cur = cur, float(w.dot(values(m, thorn, twice)))
            deltas.append(abs(cur - prev))
        return cur

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

        def psi(m, thorn, twice):
            # Psi(m*x; m) = (erf(m*x/sqrt2) + erf(m/sqrt2)) / (2 erf(m/sqrt2))
            out = erf(m * (x / _SQRT2))
            out += thorn
            out /= twice
            return out

        return self._integrate(psi, self.m_lo)

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
        return _brentq(lambda x: self.fx_cdf(x) - p, -1.0, 1.0, DEFAULT_ROOT_TOL)

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
        if not np.all(np.diff(a) > 0):
            raise DomainError("points must be strictly increasing")
        if not (a[0] >= -1.0 and a[-1] <= 1.0):
            raise DomainError("points must lie within [-1, 1]")
        atom = self.atom_mass * (
            np.min(np.abs(-1.0 - a)) + np.min(np.abs(1.0 - a))
        )
        B = self.block_size
        if B == 1:
            return float(atom)

        # Nearest-point region boundaries in normalized coordinates.
        c = np.concatenate(([-1.0], 0.5 * (a[:-1] + a[1:]), [1.0]))

        def expected(m, thorn, twice):
            mc = m[:, None] * c[None, :]          # region edges, y-space
            ystar = m[:, None] * a[None, :]       # kink locations, y-space
            cdf_c = ndtr(mc)
            pdf_c = normal_pdf(mc)
            cdf_s = ndtr(ystar)
            pdf_s = normal_pdf(ystar)
            # integral over one region of |y/m - a| against phi(y)
            piece = a[None, :] * (2.0 * cdf_s - cdf_c[:, :-1] - cdf_c[:, 1:])
            piece += (2.0 * pdf_s - pdf_c[:, :-1] - pdf_c[:, 1:]) / m[:, None]
            return piece.sum(axis=1) / thorn

        cont = self._integrate(expected, self._m_lo_expect)
        return float(atom + (1.0 - 1.0 / B) * cont)


_cached_dist = lru_cache(maxsize=None)(ScaledMaxDistribution)


def scaled_max_distribution(block_size):
    """Shared, cached ScaledMaxDistribution for a block size."""
    return _cached_dist(block_size)


def fx_cdf(x, block_size):
    """CDF of the normalized-entry law (atoms at +/-1 included)."""
    return scaled_max_distribution(block_size).fx_cdf(x)


def fx_quantile(p, block_size):
    """Inverse CDF on the continuous region; atoms raise DomainError."""
    return scaled_max_distribution(block_size).fx_quantile(p)


def fx_cdf_approx(x, block_size):
    """Closed-form approximation of fx_cdf with the absmax held at its median."""
    return scaled_max_distribution(block_size).fx_cdf_approx(x)
