"""Correctness gates and output digests.

The first repetition of a run is checked in full against independent numpy
recomputations; every later repetition (traced ones included) must then
reproduce the first one's output digests bit for bit.  A gate that fails
marks its operation as failed.

Gates per workload:

* tensor   -- a seeded sample of FQZ1 blocks (always including short tail
  blocks) matches the exhaustive argmin oracle, with indices read through
  ``qtensor_read`` and ``unpack_nibbles``; re-reading and re-writing the
  FQZ1 file reproduces its bytes; the report's three metrics match a numpy
  recomputation over the whole tensor; the dequantized FQT1 file equals an
  independent reconstruction.
* validate -- exit code 0 under ``--assert`` and a well-formed CSV with the
  expected rows, each within four standard errors of its analytic value.
* codes    -- every code16 file is well formed and agrees with the CSV the
  command printed; AF4 codes hold -1, 0, 1 and every AF4 code's
  median-condition residuals stay below 1e-6.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os

import numpy as np

import workloads

AF4_RESIDUAL_LIMIT = 1e-6
# The report prints 10 significant digits.
REPORT_RTOL = 2e-9


def op_digest(op, stdout):
    """sha256 over an operation's stdout and its output files."""
    h = hashlib.sha256(op["name"].encode() + b"\0" + stdout.encode() + b"\0")
    for path in op["outputs"]:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 22), b""):
                h.update(chunk)
    return h.hexdigest()


def outputs_sha256(op_digests):
    return hashlib.sha256("".join(op_digests).encode()).hexdigest()


def _csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


def _code_values(path):
    with open(path) as fh:
        return np.array(json.load(fh)["values"], dtype=np.float64)


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------

def block_rows(x, axis, block_size):
    """(num_blocks, B) rows in row-major block order (zero padded) and the
    effective length of each block, following the documented FQZ1 layout."""
    moved = np.moveaxis(x, axis, -1)
    length = moved.shape[-1]
    nb_axis = -(-length // block_size)
    pad = nb_axis * block_size - length
    if pad:
        moved = np.pad(moved, [(0, 0)] * (moved.ndim - 1) + [(0, pad)])
    split = moved.reshape(moved.shape[:-1] + (nb_axis, block_size))
    rows = np.moveaxis(split, -2, axis).reshape(-1, block_size)
    bshape = list(x.shape)
    bshape[axis] = nb_axis
    k = np.unravel_index(np.arange(rows.shape[0]), bshape)[axis]
    effective = np.minimum(block_size, length - k * block_size)
    return rows, effective


def _argv_value(argv, flag):
    return argv[argv.index(flag) + 1]


def check_quantize(op, stdout, inputs, seed, size, state):
    """Gates of one quantize operation; leaves the reconstruction in state."""
    from quantlab import blockquant

    argv = op["argv"]
    fqz = argv[2]
    B = int(_argv_value(argv, "--block-size"))
    axis = int(_argv_value(argv, "--axis"))
    code = _code_values(_argv_value(argv, "--code"))
    x = workloads.read_fqt1(inputs["tensor"])
    fails = []

    qt = blockquant.qtensor_read(fqz)
    rows, eff = block_rows(x, axis, B)
    del x
    nb = rows.shape[0]
    if qt.dims != tuple(workloads.SIZES[size]["tensor_shape"]) or qt.scales.shape != (nb,):
        return [f"FQZ1 header: dims {qt.dims}, {qt.scales.shape[0]} scales, "
                f"expected {nb}"]
    if not np.array_equal(qt.code.values, code.astype(np.float32)):
        fails.append("FQZ1 code values differ from the float32-rounded code file")
    idx = blockquant.unpack_nibbles(qt.packed, B)

    # Exhaustive argmin oracle on a seeded sample of blocks plus tail blocks.
    rng = np.random.default_rng(seed + 1)
    k = min(nb, max(8, workloads.SIZES[size]["oracle_elements"] // B))
    tails = np.flatnonzero(eff < B)
    sample = np.union1d(rng.choice(nb, k, replace=False), tails[:8])
    xs = rows[sample]
    absmax = np.abs(xs).max(axis=1)
    if not np.array_equal(qt.scales[sample], absmax):
        fails.append("sampled block scales differ from the block absmax")
    safe = np.where(absmax > 0, absmax, np.float32(1.0))
    norm = (xs / safe[:, None]).astype(np.float64)
    oracle = np.abs(norm[:, :, None] - code[None, None, :]).argmin(axis=2)
    valid = np.arange(B)[None, :] < eff[sample][:, None]
    got = idx[sample]
    if not np.array_equal(got[valid], oracle[valid]):
        bad = int(np.count_nonzero(got[valid] != oracle[valid]))
        fails.append(f"{bad} sampled indices disagree with the argmin oracle")
    if np.any(got[~valid]):
        fails.append("non-zero pad nibbles in tail blocks")

    # Re-reading and re-writing reproduces the file.
    again = fqz + ".rewrite"
    blockquant.qtensor_write(qt, again)
    with open(fqz, "rb") as a, open(again, "rb") as b:
        if a.read() != b.read():
            fails.append("FQZ1 re-read and re-write changed the bytes")
    os.remove(again)

    # Independent reconstruction and the report's three metrics.
    recon = code.astype(np.float32)[idx] * qt.scales[:, None]
    del idx
    valid = np.arange(B)[None, :] < eff[:, None]
    abs_sum, sq_sum, max_abs = 0.0, 0.0, 0.0
    step = max(1, (1 << 20) // B)
    for lo in range(0, nb, step):
        d = np.abs(rows[lo:lo + step].astype(np.float64)
                   - recon[lo:lo + step].astype(np.float64))[valid[lo:lo + step]]
        abs_sum += float(d.sum())
        sq_sum += float((d * d).sum())
        max_abs = max(max_abs, float(d.max()))
    n = int(eff.sum())
    expected = {"mean_abs": abs_sum / n, "mean_sq": sq_sum / n, "max_abs": max_abs}
    rows_csv = _csv_rows(stdout)
    reported = {r[0]: float(r[1]) for r in rows_csv[1:] if len(r) == 2}
    if rows_csv[:1] != [["metric", "value"]] or set(reported) != set(expected):
        fails.append(f"malformed report: {stdout[:200]!r}")
    else:
        for name, want in expected.items():
            if abs(reported[name] - want) > REPORT_RTOL * abs(want):
                fails.append(f"report {name}={reported[name]!r}, numpy gives {want!r}")
    state[fqz] = (recon, valid, axis, B)
    return fails


def check_dequantize(op, state):
    fqz, fqt = op["argv"][1], op["argv"][2]
    if fqz not in state:
        return ["no checked quantize output to compare against"]
    recon, valid, axis, B = state.pop(fqz)
    rows, _ = block_rows(workloads.read_fqt1(fqt), axis, B)
    if rows.shape != recon.shape or not np.array_equal(rows[valid], recon[valid]):
        return ["dequantized tensor differs from the independent reconstruction"]
    return []


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

_VALIDATE_ROWS = {"validate_cdf": 33, "validate_usage": 16, "validate_l1": 1}


def check_validate(op, stdout):
    rows = _csv_rows(stdout)
    header = ["quantity", "B", "n", "estimate", "stderr", "analytic", "abs_diff"]
    if not rows or rows[0] != header or len(rows) - 1 != _VALIDATE_ROWS[op["name"]]:
        return [f"malformed CSV: {stdout[:200]!r}"]
    fails = []
    for row in rows[1:]:
        est, se, analytic = (float(v) for v in row[3:6])
        if not all(np.isfinite([est, se, analytic])):
            fails.append(f"{row[0]}: non-finite value")
        elif abs(est - analytic) > 4.0 * se:
            fails.append(f"{row[0]}: |{est} - {analytic}| > 4 * {se}")
    return fails


# ---------------------------------------------------------------------------
# codes
# ---------------------------------------------------------------------------

_CODE16_KIND = {"af4": "af4", "balanced-endpoints": "balanced_with_endpoints"}


def check_code_gen(op, stdout):
    path = op["outputs"][0]
    kind = _CODE16_KIND[_argv_value(op["argv"], "--kind")]
    B = int(_argv_value(op["argv"], "--block-size"))
    with open(path) as fh:
        doc = json.load(fh)
    values = doc.get("values")
    fails = []
    if (doc.get("format") != "code16/v1" or doc.get("kind") != kind
            or doc.get("block_size") != B or not isinstance(values, list)
            or len(values) != 16):
        return [f"malformed code16 file {os.path.basename(path)}"]
    v = np.array(values, dtype=np.float64)
    if np.any(np.diff(v) <= 0) or v[0] < -1.0 or v[-1] > 1.0:
        fails.append("code values not strictly increasing within [-1, 1]")
    if kind == "af4" and (v[0], v[7], v[15]) != (-1.0, 0.0, 1.0):
        fails.append("AF4 code lacks -1, 0, 1 at positions 1, 8, 16")
    printed = [r[1] for r in _csv_rows(stdout)[1:]]
    if printed != [format(x, ".17g") for x in values]:
        fails.append("printed values differ from the code16 file")
    return fails


def check_score(stdout):
    scores = json.loads(stdout)
    fails = []
    for s in scores:
        if not (s["expected_l1"] > 0 and s["expected_l1_nf4"] > 0):
            fails.append(f"{s['file']}: non-positive expected L1")
        if s["kind"] == "af4" and not s["max_residual"] < AF4_RESIDUAL_LIMIT:
            fails.append(f"{s['file']}: median-condition residual "
                         f"{s['max_residual']:.3g} >= {AF4_RESIDUAL_LIMIT:g}")
    return fails


# ---------------------------------------------------------------------------

def check_rep(workload, size, seed, inputs, ops, results):
    """Full gates for one repetition: {op name: [failure reasons]}."""
    failures = {}
    state = {}
    for op, res in zip(ops, results):
        if res["rc"] != 0:
            fails = [f"exit code {res['rc']}: {res['stderr'].strip()[-300:]}"]
        else:
            try:
                fails = _check_op(workload, size, seed, inputs, op, res, state)
            except Exception as exc:  # unreadable output is a failed gate
                fails = [f"check raised {type(exc).__name__}: {exc}"]
        if fails:
            failures[op["name"]] = fails
    return failures


def _check_op(workload, size, seed, inputs, op, res, state):
    if op["name"].startswith("quantize"):
        return check_quantize(op, res["stdout"], inputs, seed, size, state)
    if op["name"].startswith("dequantize"):
        return check_dequantize(op, state)
    if workload == "validate":
        return check_validate(op, res["stdout"])
    if op["kind"] == "score":
        return check_score(res["stdout"])
    return check_code_gen(op, res["stdout"])
