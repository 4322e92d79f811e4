"""The three benchmark workloads: sizes, input generation and operations.

A repetition of a workload is a list of operations run one after another by
one single-threaded client (see worker.py).  Each operation is either a
``quantlab`` CLI invocation, driven in-process through ``quantlab.cli.main``,
or the library-level scoring step of the ``codes`` workload.

* ``tensor``   -- quantize/dequantize one FQT1 float32 tensor at two
  geometries (B=64 across axis 0 with NF4; long rows with a 4-element tail
  block along axis 1 with AF4).  Exercises ``blockquant``.
* ``validate`` -- three Monte Carlo reports with ``--assert``.  Exercises
  ``montecarlo`` plus ``nearest_index`` on float64 samples.
* ``codes``    -- an AF4 sweep over block sizes, one balanced code, and
  their scores.  Exercises ``codebook`` and ``distributions`` only.

Inputs are generated from the workload seed before any timed span; the
program receives only the generated files (and, for ``validate``, the seed
as its ``--seed``).
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

WORKLOADS = ("tensor", "validate", "codes")

SIZES = {
    "full": {
        "tensor_shape": (4096, 4100),
        "short_block": 64,
        "cdf_n": 1 << 21,
        "usage_n": 1 << 17,
        "l1_n": 1 << 11,
        "af4_block_sizes": (32, 64, 256, 1024, 4096),
        "balanced_block_size": 4096,
        "min_setups": 5,
        "oracle_elements": 1 << 18,
    },
    # Seconds-long version of every workload, for the smoke test.
    "tiny": {
        "tensor_shape": (256, 260),
        "short_block": 64,
        "cdf_n": 1 << 12,
        "usage_n": 1 << 10,
        "l1_n": 1 << 6,
        "af4_block_sizes": (32, 64),
        "balanced_block_size": 64,
        "min_setups": 2,
        "oracle_elements": 1 << 12,
    },
}

# Every row of the tensor is one long block plus a 4-element tail block.
TAIL = 4

# The per-operation figures each workload reports.  Work units
# per operation come from op_work(); the unit says what a unit is.
OP_METRICS = {
    "tensor": [
        ("quantize_b64", "quantize_b64_melem_per_s", "Melem/s"),
        ("dequantize_b64", "dequantize_b64_melem_per_s", "Melem/s"),
        ("quantize_b4096", "quantize_b4096_melem_per_s", "Melem/s"),
        ("dequantize_b4096", "dequantize_b4096_melem_per_s", "Melem/s"),
    ],
    "validate": [
        ("validate_cdf", "validate_cdf_blocks_per_s", "blocks/s"),
        ("validate_usage", "validate_usage_blocks_per_s", "blocks/s"),
        ("validate_l1", "validate_l1_blocks_per_s", "blocks/s"),
    ],
    "codes": [],
}


def long_block(size):
    return SIZES[size]["tensor_shape"][1] - TAIL


# ---------------------------------------------------------------------------
# FQT1, written and read here without the program's own codec
# ---------------------------------------------------------------------------

def write_fqt1(path, arr):
    arr = np.ascontiguousarray(arr, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(b"FQT1" + struct.pack("<BB", 0, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.tobytes())


def read_fqt1(path):
    with open(path, "rb") as fh:
        head = fh.read(6)
        if head[:4] != b"FQT1" or head[4] != 0:
            raise ValueError(f"{path}: not a float32 FQT1 file")
        ndim = head[5]
        dims = struct.unpack(f"<{ndim}I", fh.read(4 * ndim))
        data = np.frombuffer(fh.read(), dtype="<f4")
    if data.size != int(np.prod(dims)):
        raise ValueError(f"{path}: payload holds {data.size} values, dims {dims}")
    return data.reshape(dims)


# ---------------------------------------------------------------------------
# Inputs (generated once per run, untimed)
# ---------------------------------------------------------------------------

def make_inputs(workload, size, seed, directory):
    """Write the workload's input files; returns {role: path}."""
    from quantlab import codebook

    os.makedirs(directory, exist_ok=True)
    sz = SIZES[size]
    inputs = {"nf4": os.path.join(directory, "nf4.json")}
    codebook.code_write(codebook.nf4_code(), inputs["nf4"])
    if workload in ("tensor", "validate"):
        B = long_block(size)
        inputs["af4"] = os.path.join(directory, f"af4-{B}.json")
        codebook.code_write(codebook.af4_code(B), inputs["af4"])
    if workload == "tensor":
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(sz["tensor_shape"], dtype=np.float32)
        inputs["tensor"] = os.path.join(directory, "w.fqt")
        write_fqt1(inputs["tensor"], w)
    return inputs


# ---------------------------------------------------------------------------
# Operations of one repetition
# ---------------------------------------------------------------------------

def operations(workload, size, seed, inputs, out):
    """Operations of one repetition, writing into directory ``out``.

    Each is {"name", "kind": "cli" | "score", "argv" or "args", "outputs"}:
    ``outputs`` lists the files the operation produces, in digest order.
    """
    sz = SIZES[size]
    ops = []

    def cli(name, argv, outputs=()):
        ops.append({"name": name, "kind": "cli", "argv": [str(a) for a in argv],
                    "outputs": list(outputs)})

    if workload == "tensor":
        for tag, code, B, axis in (("b64", "nf4", sz["short_block"], 0),
                                   ("b4096", "af4", long_block(size), 1)):
            fqz = os.path.join(out, f"w-{tag}.fqz")
            fqt = os.path.join(out, f"w-{tag}.fqt")
            cli(f"quantize_{tag}",
                ["quantize", inputs["tensor"], fqz, "--code", inputs[code],
                 "--block-size", B, "--axis", axis, "--report", "--csv"],
                [fqz])
            cli(f"dequantize_{tag}", ["dequantize", fqz, fqt], [fqt])
    elif workload == "validate":
        common = ["--seed", seed, "--assert", "--csv"]
        cli("validate_cdf",
            ["validate", "cdf", "--block-size", 32, "--n", sz["cdf_n"]] + common)
        cli("validate_usage",
            ["validate", "usage", "--code", inputs["nf4"], "--block-size", 64,
             "--n", sz["usage_n"]] + common)
        cli("validate_l1",
            ["validate", "l1", "--code", inputs["af4"], "--block-size",
             long_block(size), "--n", sz["l1_n"]] + common)
    elif workload == "codes":
        generated = []
        for B in sz["af4_block_sizes"]:
            path = os.path.join(out, f"af4-{B}.json")
            cli(f"code_gen_af4_b{B}",
                ["code", "gen", "--kind", "af4", "--block-size", B,
                 "--out", path, "--csv"], [path])
            generated.append(path)
        B = sz["balanced_block_size"]
        path = os.path.join(out, f"balanced-endpoints-{B}.json")
        cli("code_gen_balanced_endpoints",
            ["code", "gen", "--kind", "balanced-endpoints", "--block-size", B,
             "--out", path, "--csv"], [path])
        generated.append(path)
        ops.append({"name": "score", "kind": "score",
                    "args": {"nf4": inputs["nf4"], "codes": generated},
                    "outputs": []})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def op_work(workload, size, op_name):
    """Work units of one operation: elements for tensor ops, blocks for MC."""
    sz = SIZES[size]
    if workload == "tensor":
        rows, cols = sz["tensor_shape"]
        return rows * cols / 1e6
    return {"validate_cdf": sz["cdf_n"], "validate_usage": sz["usage_n"],
            "validate_l1": sz["l1_n"]}[op_name]


def score_codes(nf4, codes):
    """Score generated codes: expected L1 (against NF4 at the same block
    size) and the median-condition residuals.  Runs inside the timed span.

    Returns the scores as JSON text, which the checks parse and digest.
    """
    from quantlab import codebook

    nf4_code = codebook.code_read(nf4)
    scores = []
    for path in codes:
        code = codebook.code_read(path)
        B = code.block_size
        residuals = codebook.median_condition_residuals(code, B)
        scores.append({
            "file": os.path.basename(path),
            "kind": code.kind,
            "block_size": B,
            "expected_l1": codebook.expected_l1(code, B),
            "expected_l1_nf4": codebook.expected_l1(nf4_code, B),
            "max_residual": float(np.max(residuals)),
        })
    return json.dumps(scores, sort_keys=True) + "\n"
