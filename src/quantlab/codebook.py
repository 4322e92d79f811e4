"""Construction and analysis of 16-value quantization codes on [-1, 1].

Four families are provided:

* ``nf4_code`` -- Gaussian-quantile codes built from two asymmetric evenly
  spaced probability grids, in both of the circulating variants (quantile of
  averaged probabilities vs. average of quantiles), whose values differ by
  6.03e-05 at the widest (demo 02 prints this gap).
* ``af4_code`` -- the expected-L1-optimal code for a given block size,
  constrained to contain -1, 0 and 1, found by a shooting method on the
  median/stationarity recurrence.
* ``balanced_code`` -- codes whose sixteen values each receive exactly 1/16
  of the probability mass, built by reflecting an initial value through the
  1/16-quantile bin edges; ``feasible_seed_interval`` reflects a grid of
  seeds as one array and keeps those whose values all stay in their bins.
* ``balanced_code_with_endpoints`` -- a balanced code with the values
  nearest to -1, 0 and 1 snapped onto those points.

``KINDS`` is the table of code16 ``kind`` labels and the rules each one
imposes on a ``Code16``; ``CODE_KINDS`` maps the command-line kind names
onto those kinds and their constructors.
``expected_l1`` scores any code by its expected absolute reconstruction
error under the block-size-dependent law of the normalized inputs.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from .distributions import scaled_max_distribution
from .errors import (ConstructionError, DomainError, FormatError, _check_real, _real,
                     check_block_size, output_file)

# code16 kind -> (needs a block size, holds -1, 0, 1 at positions 1, 8, 16).
KINDS = {
    "nf4_quantile_of_average": (False, True),
    "nf4_average_of_quantile": (False, True),
    "af4": (True, True),
    "balanced": (True, False),
    "balanced_with_endpoints": (True, False),
    "custom": (False, False),
}

DEFAULT_SHOOTING_TOL = 1e-9
DEFAULT_MASS_TOL = 1e-6
SEED_SCAN_POINTS = 64
BALANCED_SCAN_POINTS = 1024


def _reals(values, requirement):
    """values as a new float64 array, else DomainError(requirement): what
    ``errors._real`` takes, or a list of numbers (Fraction, Decimal); no bools."""
    if isinstance(values, (list, tuple)):
        values = [v if isinstance(v, (bool, np.bool_, float))
                  else _check_real(v, requirement) for v in values]
    vals = _real(values, requirement)
    if vals.dtype.kind == "b":
        raise DomainError(f"{requirement}, got {vals.dtype}")
    return vals.astype(float)


@dataclass(frozen=True, eq=False)
class Code16:
    """An ordered 16-value codebook in [-1, 1] plus provenance metadata."""

    values: np.ndarray
    kind: str = "custom"
    block_size: int | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = _reals(self.values, "code values must be 16 real numbers")
        if vals.shape != (16,):
            raise DomainError(
                f"code values must be 16 real numbers, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise DomainError("code values must be finite")
        if np.any(np.diff(vals) <= 0):
            bad = int(np.flatnonzero(np.diff(vals) <= 0)[0]) + 1
            raise DomainError(
                f"code values must be strictly increasing; "
                f"value {bad} >= value {bad + 1}"
            )
        if vals[0] < -1.0 or vals[-1] > 1.0:
            raise DomainError("code values must lie within [-1, 1]")
        if not isinstance(self.kind, str) or self.kind not in KINDS:
            raise DomainError(
                f"unknown kind {self.kind!r}; expected one of {sorted(KINDS)}")
        needs_block_size, anchored = KINDS[self.kind]
        if self.block_size is not None:
            object.__setattr__(self, "block_size", check_block_size(self.block_size))
        if needs_block_size and self.block_size is None:
            raise DomainError(f"kind {self.kind!r} requires a block_size")
        if anchored and (vals[0] != -1.0 or vals[7] != 0.0 or vals[15] != 1.0):
            raise DomainError(
                f"kind {self.kind!r} must contain -1, 0, 1 at positions 1, 8, 16")
        if not isinstance(self.params, Mapping):
            raise DomainError(
                f"params must be a mapping, got {type(self.params).__name__}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "params", dict(self.params))


@dataclass(frozen=True, eq=False)
class BinEdges:
    """17 bin edges partitioning [-1, 1]."""

    edges: np.ndarray

    def __post_init__(self):
        e = _reals(self.edges, "bin edges must be 17 real numbers")
        if e.shape != (17,):
            raise DomainError(f"expected 17 bin edges, got shape {e.shape}")
        if e[0] != -1.0 or e[-1] != 1.0:
            raise DomainError("bin edges must start at -1 and end at 1")
        if not np.all(np.diff(e) >= 0):  # also false for a NaN edge
            raise DomainError("bin edges must be nondecreasing")
        e.setflags(write=False)
        object.__setattr__(self, "edges", e)


# ---------------------------------------------------------------------------
# NF4
# ---------------------------------------------------------------------------

def nf4_code(variant="quantile_of_average"):
    """The 16-value Gaussian-quantile code.

    Probabilities run over two evenly spaced grids: 8 points from delta to
    1/2 for the non-positive half, 9 points from 1/2 to 1-delta for the
    non-negative half (1/2 shared, mapping to the code value 0), with
    delta = (1/32 + 1/30) / 2.  Each grid probability is the midpoint of a
    narrow pair spanning 1/32..1/30; the two variants differ in whether the
    quantile is taken at the midpoint (``quantile_of_average``) or the two
    pair quantiles are averaged (``average_of_quantile``).  The result is
    normalized so the largest magnitude is exactly 1.
    """
    if variant not in ("quantile_of_average", "average_of_quantile"):
        raise DomainError(
            f"variant must be 'quantile_of_average' or 'average_of_quantile', "
            f"got {variant!r}"
        )
    delta = 0.5 * (1.0 / 32.0 + 1.0 / 30.0)
    neg_probs = np.linspace(delta, 0.5, 8)[:-1]       # strictly below 1/2
    pos_probs = np.linspace(0.5, 1.0 - delta, 9)[1:]  # strictly above 1/2

    if variant == "quantile_of_average":
        quantile = ndtri
    else:
        halfgap = 0.5 * (1.0 / 30.0 - 1.0 / 32.0)

        def quantile(p):
            return 0.5 * (ndtri(p - halfgap) + ndtri(p + halfgap))

    # Mirror the negative half off the positive quantiles so the symmetry
    # (and hence the -1 endpoint after normalization) is exact in floats.
    neg = -quantile(1.0 - neg_probs)
    pos = quantile(pos_probs)
    raw = np.concatenate([neg, [0.0], pos])
    values = raw / raw[-1]
    return Code16(values, kind=f"nf4_{variant}", params={"variant": variant})


# ---------------------------------------------------------------------------
# AF4 (expected-L1 stationarity shooting)
# ---------------------------------------------------------------------------

class EscapedSupportError(ConstructionError):
    """A stationarity step demanded a quantile inside the +1 atom.

    Raised when the target bin mass cannot fit below the upper endpoint,
    which signals a shooting seed that was too aggressive.
    """


def stationarity_step(a_prev, a_cur, block_size):
    """Advance the median-condition recurrence by one code value.

    Given consecutive code values a_prev < a_cur, returns the unique a_next
    such that a_cur carries equal probability mass on both sides of its
    nearest-value bin:

        F(a_cur) - F((a_prev + a_cur)/2) = F((a_cur + a_next)/2) - F(a_cur)

    solved as a_next = 2 * F^-1(rho) - a_cur with
    rho = 2 F(a_cur) - F((a_prev + a_cur)/2).
    """
    a_prev, a_cur = _check_real(a_prev, "a_prev"), _check_real(a_cur, "a_cur")
    if not a_prev < a_cur:
        raise DomainError(f"need a_prev < a_cur, got {a_prev} >= {a_cur}")
    mid = 0.5 * (a_prev + a_cur)
    if not mid > -1.0:
        raise DomainError(f"midpoint {mid} must lie above the support point -1")
    dist = scaled_max_distribution(block_size)
    rho = 2.0 * dist.fx_cdf(a_cur) - dist.fx_cdf(mid)
    if rho >= 1.0 - dist.atom_mass:
        raise EscapedSupportError(
            f"stationarity step escaped the support: rho={rho:.6g} >= "
            f"1 - 1/(2B) = {1.0 - dist.atom_mass:.6g} (seed too large or small)"
        )
    return 2.0 * dist.fx_quantile(rho) - a_cur


def _shoot_side(left, lo, hi, num_steps, target, block_size):
    """Find the seed in (lo, hi) whose trajectory endpoint hits target.

    The residual endpoint - target must be negative at the first of
    SEED_SCAN_POINTS evenly spaced seeds in (lo, hi) and not at the last.  A
    bisection over the grid's indices narrows that to two adjacent seeds (8
    trajectories, not 64), then a bisection on the seed runs inside them
    until |residual| < DEFAULT_SHOOTING_TOL.  Escaping trajectories
    overshoot: residual +inf.  The grid's one sign change, which makes the
    index bisection find the bracket a full scan would, was measured, not
    proven (``tests/test_codebook.py::TestShootingGrid``).
    """

    def residual(seed):
        vals = [left, seed]
        try:
            for _ in range(num_steps):
                vals.append(stationarity_step(vals[-2], vals[-1], block_size))
        except EscapedSupportError:
            return np.inf, None
        return vals[-1] - target, vals

    seeds = np.linspace(lo, hi, SEED_SCAN_POINTS + 2)[1:-1]
    i, j = 0, SEED_SCAN_POINTS - 1
    if not residual(seeds[i])[0] < 0.0 <= residual(seeds[j])[0]:
        raise ConstructionError(
            f"no sign change of the shooting residual between the ends of "
            f"the {SEED_SCAN_POINTS}-seed grid in ({lo:.6g}, {hi:.6g}) for "
            f"block size {block_size}"
        )
    while j - i > 1:
        k = (i + j) // 2
        if residual(seeds[k])[0] < 0.0:
            i = k
        else:
            j = k

    s_lo, s_hi = seeds[i], seeds[j]
    for _ in range(200):
        s_mid = 0.5 * (s_lo + s_hi)
        r_mid, vals = residual(s_mid)
        if abs(r_mid) < DEFAULT_SHOOTING_TOL:
            return s_mid, vals
        if r_mid > 0.0:
            s_hi = s_mid
        else:
            s_lo = s_mid
        if s_hi - s_lo < 1e-16:
            break
    raise ConstructionError(
        f"shooting bisection stalled in [{s_lo!r}, {s_hi!r}] without reaching "
        f"|residual| < {DEFAULT_SHOOTING_TOL:g}"
    )


def af4_code(block_size):
    """Expected-L1 stationary code containing -1, 0 and 1, for one block size.

    The values between the fixed points are pinned down by requiring every
    interior value to be the median of its nearest-value bin.  Two shooting
    problems solve for the free values: the seed next to -1 must make the
    recurrence land exactly on 0 six steps later, and the seed next to 0
    must land on 1 seven steps later.  Each side brackets its seed by
    bisecting over a 64-seed grid's indices, which rests on a measured, not
    proven, monotonicity (``_shoot_side``, ``TestShootingGrid``).

    Runs in pure Python and is interruptible at any iteration.
    """
    block_size = check_block_size(block_size)
    if block_size < 2:
        raise DomainError("af4 requires block size >= 2")
    seed_neg, neg_vals = _shoot_side(-1.0, -1.0, 0.0, 6, 0.0, block_size)
    seed_pos, pos_vals = _shoot_side(0.0, 0.0, 1.0, 7, 1.0, block_size)
    values = np.concatenate([
        [-1.0], neg_vals[1:7], [0.0], pos_vals[1:8], [1.0],
    ])
    code = Code16(
        values,
        kind="af4",
        block_size=block_size,
        params={
            "seed_negative": seed_neg,
            "seed_positive": seed_pos,
            "shooting_tol": DEFAULT_SHOOTING_TOL,
            "mass_tol": DEFAULT_MASS_TOL,
        },
    )
    residuals = median_condition_residuals(code, block_size)
    if np.max(residuals) >= DEFAULT_MASS_TOL:
        raise ConstructionError(
            f"af4 construction left a median-condition residual of "
            f"{np.max(residuals):.3g} >= {DEFAULT_MASS_TOL:g} "
            f"for block size {block_size}"
        )
    return code


def median_condition_residuals(code, block_size):
    """|left bin mass - right bin mass| for each of the 13 interior values.

    Interior means positions 2..7 and 9..15; the fixed values -1, 0, 1 carry
    no stationarity condition.
    """
    dist = scaled_max_distribution(block_size)
    v = code.values
    residuals = []
    for j in list(range(1, 7)) + list(range(8, 15)):
        f_cur = dist.fx_cdf(v[j])
        left = f_cur - dist.fx_cdf(0.5 * (v[j - 1] + v[j]))
        right = dist.fx_cdf(0.5 * (v[j] + v[j + 1])) - f_cur
        residuals.append(abs(left - right))
    return np.array(residuals)


# ---------------------------------------------------------------------------
# Balanced (uniform-usage) codes
# ---------------------------------------------------------------------------

def uniform_bins(block_size):
    """Bin edges holding exactly 1/16 of the mixed law's mass each.

    The outer edges are pinned to +/-1 so the atoms fall inside the
    outermost bins; this needs the atom mass 1/(2B) to be below 1/16,
    i.e. block size >= 9.
    """
    block_size = check_block_size(block_size)
    if block_size < 9:
        raise DomainError(
            f"uniform bins require block size >= 9 so the atoms fit inside "
            f"the outer bins; got {block_size}"
        )
    dist = scaled_max_distribution(block_size)
    edges = np.empty(17)
    edges[0], edges[16] = -1.0, 1.0
    for k in range(1, 16):
        edges[k] = dist.fx_quantile(k / 16.0)
    return BinEdges(edges)


def _reflect(seeds, edges):
    """q_k = 2 b_k - q_{k-1} from q_0 = each of ``seeds``, shape seeds' +
    (16,): each edge becomes the midpoint of a code pair."""
    q = np.empty(np.shape(seeds) + (16,))
    q[..., 0] = seeds
    for k in range(1, 16):
        q[..., k] = 2.0 * edges[k] - q[..., k - 1]
    return q


def _escaped(q, edges):
    """Mask of the values of codes q (..., 16) that lie outside their bin
    or not above the value before them."""
    bad = ~((edges[:-1] <= q) & (q <= edges[1:]))
    bad[..., 1:] |= q[..., 1:] <= q[..., :-1]
    return bad


def balanced_code(q1_seed, bins, *, block_size=None):
    """Uniform-usage code from a seed value in the first bin.

    The reflection recurrence makes every interior bin edge the midpoint of
    two consecutive code values, so each value receives exactly 1/16 of the
    mass.  Only a sub-interval of seeds is feasible; infeasible seeds raise
    ConstructionError naming the first value that escapes its bin.

    block_size records which distribution the bins came from; without it
    the result is labeled "custom", since "balanced" only means something
    relative to a block size.
    """
    q1_seed = _check_real(q1_seed, "q1 seed")
    edges = bins.edges
    if not (edges[0] <= q1_seed <= edges[1]):
        raise DomainError(
            f"q1 seed {q1_seed:.6g} must lie in the first bin "
            f"[{edges[0]:.6g}, {edges[1]:.6g}]"
        )
    q = _reflect(q1_seed, edges)
    bad = np.flatnonzero(_escaped(q, edges))
    if bad.size:
        k = bad[0]
        raise ConstructionError(
            f"infeasible q1 seed {q1_seed:.6g}: code value {k + 1} "
            f"({q[k]:.6g}) escapes its bin [{edges[k]:.6g}, {edges[k + 1]:.6g}]"
        )
    return Code16(
        q,
        kind="balanced" if block_size is not None else "custom",
        block_size=block_size,
        params={"q1_seed": q1_seed, "construction": "balanced_reflection"},
    )


def feasible_seed_interval(bins):
    """Scan the first bin for seeds that produce a feasible balanced code.

    Returns (lo, hi), the extremes of the feasible seeds found.
    """
    edges = bins.edges
    seeds = np.linspace(edges[0], edges[1], BALANCED_SCAN_POINTS)
    feasible = seeds[~_escaped(_reflect(seeds, edges), edges).any(axis=1)]
    if not feasible.size:
        raise ConstructionError(
            f"no feasible balanced-code seed among {BALANCED_SCAN_POINTS} "
            f"scanned values in [{edges[0]:.6g}, {edges[1]:.6g}]"
        )
    return float(feasible[0]), float(feasible[-1])


def _midpoint_balanced_code(block_size):
    """Balanced code seeded at the midpoint of the feasible seed interval.

    Below block size 12 the interval is empty: the lower bound that the 16
    bins put on the seed exceeds their upper bound.
    """
    block_size = check_block_size(block_size)
    if block_size < 12:
        raise DomainError(
            "balanced codes require block size >= 12, below which no seed "
            f"keeps every value inside its bin; got {block_size}"
        )
    bins = uniform_bins(block_size)
    lo, hi = feasible_seed_interval(bins)
    return balanced_code(0.5 * (lo + hi), bins, block_size=block_size)


def balanced_code_with_endpoints(block_size):
    """Balanced code with the values nearest -1, 0, +1 snapped onto them.

    Uses the midpoint of the feasible seed interval, then replaces three
    values.  The replacement trades away exact uniformity of usage for the
    presence of the endpoints in the code.
    """
    base = _midpoint_balanced_code(block_size)
    seed = base.params["q1_seed"]
    values = np.array(base.values)
    replaced = {}
    for target in (-1.0, 0.0, 1.0):
        idx = int(np.argmin(np.abs(values - target)))
        replaced[str(target)] = idx + 1
        values[idx] = target
    return Code16(
        values,
        kind="balanced_with_endpoints",
        block_size=block_size,
        params={"q1_seed": seed, "replaced_positions": replaced},
    )


# Command-line kind name -> (code16 kind in KINDS, build(block_size, variant)).
CODE_KINDS = {
    "nf4": ("nf4_quantile_of_average", lambda B, variant: nf4_code(variant)),
    "af4": ("af4", lambda B, variant: af4_code(B)),
    "balanced": ("balanced", lambda B, variant: _midpoint_balanced_code(B)),
    "balanced-endpoints": ("balanced_with_endpoints",
                           lambda B, variant: balanced_code_with_endpoints(B)),
}


# ---------------------------------------------------------------------------
# Scoring and analytic usage
# ---------------------------------------------------------------------------

def expected_l1(code, block_size):
    """E[min_j |X - q_j|] under the mixed law for the given block size."""
    return scaled_max_distribution(block_size).expected_min_abs_distance(code.values)


def code_bin_masses(code, block_size):
    """Probability of each code value being selected, under the mixed law."""
    dist = scaled_max_distribution(block_size)
    v = code.values
    cdf_at = np.array([dist.fx_cdf(m) for m in 0.5 * (v[:-1] + v[1:])])
    return np.diff(np.concatenate(([0.0], cdf_at, [1.0])))


# ---------------------------------------------------------------------------
# File format: code16/v1
# ---------------------------------------------------------------------------

def code_write(code, path):
    """Write a code to a code16/v1 JSON document.

    Values are serialized with 17 significant digits, which round-trips
    IEEE doubles exactly.
    """
    vals = ",\n    ".join(format(float(v), ".17g") for v in code.values)
    bs = "null" if code.block_size is None else str(code.block_size)
    text = (
        "{\n"
        '  "format": "code16/v1",\n'
        f'  "kind": {json.dumps(code.kind)},\n'
        f'  "block_size": {bs},\n'
        f'  "values": [\n    {vals}\n  ],\n'
        f'  "params": {json.dumps(code.params, sort_keys=True, default=str)}\n'
        "}\n"
    )
    with output_file(path) as fh:
        fh.write(text.encode("utf-8"))


def code_read(path):
    """Read a code16/v1 JSON document; Code16 checks the values' order."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON, bad UTF-8 and over-long integers;
        # deeply nested arrays exhaust the decoder's recursion limit.
        raise FormatError(f"{path}: not a valid code16/v1 document: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "code16/v1":
        raise FormatError(f"{path}: missing or wrong format marker 'code16/v1'")
    values = doc.get("values")
    if not isinstance(values, list) or len(values) != 16:
        n = len(values) if isinstance(values, list) else "none"
        raise FormatError(f"{path}: expected 16 code values, got {n}")
    if any(isinstance(v, bool) for v in values):  # Code16 checks the rest
        raise FormatError(f"{path}: code values must be numbers, not true or false")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise FormatError(f"{path}: params must be an object")
    try:
        return Code16(values, kind=doc.get("kind"), block_size=doc.get("block_size"),
                      params=params)
    except DomainError as exc:
        raise FormatError(f"{path}: {exc}") from exc
