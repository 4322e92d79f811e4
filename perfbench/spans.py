"""Outside-in span recorder for the traced run.

``install`` wraps every public function of the five working modules of
quantlab (``cli``, ``blockquant``, ``codebook``, ``distributions``,
``montecarlo``) and the public methods of ``ScaledMaxDistribution`` from
outside the package: the wrappers replace the module attributes, and every
other module binding of the same function object, so intra- and
cross-module calls are both seen.  Generator functions get one span per
resumption.  No program file changes.

A span holds name, start, end, parent span and operation id, plus one
number (``payload``) that a few boundaries fill from their arguments or
result: elements, blocks, bytes, block size, or a residual.  Spans stay in
memory and are reduced to the per-layer metrics when the repetition ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

import numpy as np

MODULES = ("cli", "blockquant", "codebook", "distributions", "montecarlo")
OP_SPAN = "bench.op"


def _file_size(path):
    return float(os.path.getsize(path))


def _nbytes(x):
    return float(np.asarray(x).nbytes)


# payload(args, kwargs, result) per span name.  For the blockquant I/O,
# quantize, dequantize and metric boundaries it is the bytes moved, computed
# from argument and result sizes (not measured; cache misses are ignored).
PAYLOADS = {
    "blockquant.tensor_read": lambda a, k, r: 2.0 * r.nbytes,
    "blockquant.tensor_write": lambda a, k, r: 2.0 * np.asarray(a[0]).size * 4,
    "blockquant.qtensor_write": lambda a, k, r: 2.0 * _file_size(a[1]),
    "blockquant.qtensor_read": lambda a, k, r: 2.0 * _file_size(a[0]),
    "blockquant.quantize":
        lambda a, k, r: _nbytes(a[0]) + r.scales.nbytes + r.packed.nbytes,
    "blockquant.dequantize":
        lambda a, k, r: a[0].scales.nbytes + a[0].packed.nbytes + r.nbytes,
    "blockquant.reconstruction_error":
        lambda a, k, r: _nbytes(a[0]) + _nbytes(a[1]),
    "blockquant.nearest_index": lambda a, k, r: float(np.size(a[0])),
    "montecarlo.sample_block_values": lambda a, k, r: float(r.shape[0]),
    "codebook.af4_code":
        lambda a, k, r: float(a[0] if a else k["block_size"]),
    "codebook.median_condition_residuals":
        lambda a, k, r: float(np.max(r)) if getattr(a[0], "kind", "") == "af4"
        else -1.0,
}


class Recorder:
    """Spans as parallel lists; one recorder per traced repetition."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.op = []
        self.payload = []
        self.error = []
        self._stack = []
        self.current_op = -1

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.payload.append(0.0)
        self.error.append(-1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i, exc=None):
        self.end[i] = time.perf_counter()
        self._stack.pop()
        if exc is not None:
            self.error[i] = self.name_id(type(exc).__name__)

    def wrap(self, name, fn, payload=None):
        nid = self.name_id(name)
        rec = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    i = rec.open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        rec.close(i)
                        return
                    except BaseException as exc:
                        rec.close(i, exc)
                        raise
                    rec.close(i)
                    rec.payload[i] = 1.0  # one item yielded
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = rec.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec.close(i, exc)
                raise
            rec.close(i)
            if payload is not None:
                rec.payload[i] = payload(args, kwargs, result)
            return result
        return traced

    def arrays(self):
        return {
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int32),
            "payload": np.array(self.payload),
            "error": np.array(self.error, dtype=np.int32),
        }


def install(recorder):
    """Wrap the public functions of the five modules and the public methods
    of ScaledMaxDistribution."""
    import quantlab

    mods = {n: importlib.import_module(f"quantlab.{n}") for n in MODULES}
    replaced = {}
    for short, mod in mods.items():
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                full = f"{short}.{name}"
                replaced[obj] = recorder.wrap(full, obj, PAYLOADS.get(full))
    for mod in list(mods.values()) + [quantlab]:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, name, replaced[obj])
    cls = mods["distributions"].ScaledMaxDistribution
    for name, obj in list(vars(cls).items()):
        if not name.startswith("_") and inspect.isfunction(obj):
            setattr(cls, name, recorder.wrap(
                f"distributions.ScaledMaxDistribution.{name}", obj))


# ---------------------------------------------------------------------------
# Reduction to per-layer metrics
# ---------------------------------------------------------------------------

_SMD = "distributions.ScaledMaxDistribution."


def self_times(sp):
    """Span duration minus the part its direct children cover."""
    dur = sp["end"] - sp["start"]
    has_parent = sp["parent"] >= 0
    covered = np.bincount(sp["parent"][has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    return dur, dur - covered


# AF4 block sizes with their own construction-time metric.
AF4_BLOCK_SIZES = (32, 64, 256, 1024, 4096)


def layer_metrics(sp, names):
    """Per-layer metrics of one traced repetition, as {name: value}."""
    ids = {n: i for i, n in enumerate(names)}
    dur, self_ = self_times(sp)

    def sel(span_name):
        return sp["name"] == ids.get(span_name, -1)

    def total(span_name):
        return float(dur[sel(span_name)].sum())

    def self_total(span_name):
        return float(self_[sel(span_name)].sum())

    def calls(span_name):
        return int(sel(span_name).sum())

    def payload(span_name):
        return float(sp["payload"][sel(span_name)].sum())

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for cmd, fn in (("quantize", "cmd_quantize"), ("dequantize", "cmd_dequantize"),
                    ("validate", "cmd_validate"), ("code_gen", "cmd_code_gen")):
        m[f"cli.{cmd}.self_s"] = self_total(f"cli.{fn}")

    bq = "blockquant."
    for fn in ("tensor_read", "tensor_write", "qtensor_write", "qtensor_read"):
        m[bq + fn + ".s"] = total(bq + fn)
    m[bq + "quantize.self_s"] = self_total(bq + "quantize")
    m[bq + "nearest_index.s"] = total(bq + "nearest_index")
    m[bq + "nearest_index.elements"] = payload(bq + "nearest_index")
    m[bq + "nearest_index.ns_per_elem"] = 1e9 * ratio(
        m[bq + "nearest_index.s"], m[bq + "nearest_index.elements"])
    m[bq + "pack_nibbles.s"] = total(bq + "pack_nibbles")
    m[bq + "unpack_nibbles.s"] = total(bq + "unpack_nibbles")
    m[bq + "dequantize.self_s"] = self_total(bq + "dequantize")
    m[bq + "reconstruction_error.s"] = total(bq + "reconstruction_error")
    m[bq + "fqz1.bytes"] = payload(bq + "qtensor_write") / 2.0
    m[bq + "bytes_moved_computed"] = sum(
        payload(bq + fn) for fn in (
            "tensor_read", "tensor_write", "qtensor_write", "qtensor_read",
            "quantize", "dequantize", "reconstruction_error"))

    cb = "codebook."
    m[cb + "code_read.s"] = total(cb + "code_read")
    m[cb + "code_write.s"] = total(cb + "code_write")
    m[cb + "af4_code.s"] = total(cb + "af4_code")
    af4 = sel(cb + "af4_code")
    for B in AF4_BLOCK_SIZES:
        m[f"{cb}af4_code.b{B}.s"] = float(dur[af4 & (sp["payload"] == B)].sum())
    steps = sel(cb + "stationarity_step")
    escaped = steps & (sp["error"] == ids.get("EscapedSupportError", -2))
    m[cb + "stationarity_step.calls"] = int(steps.sum())
    m[cb + "stationarity_step.escaped_frac"] = ratio(
        int(escaped.sum()), int(steps.sum()))
    m[cb + "balanced_code_with_endpoints.s"] = total(
        cb + "balanced_code_with_endpoints")
    m[cb + "expected_l1.s"] = total(cb + "expected_l1")
    m[cb + "median_condition_residuals.s"] = total(cb + "median_condition_residuals")
    m[cb + "code_bin_masses.s"] = total(cb + "code_bin_masses")
    res = sp["payload"][sel(cb + "median_condition_residuals")]
    res = res[res >= 0.0]
    m[cb + "af4.max_residual"] = float(res.max()) if res.size else 0.0

    ds = "distributions."
    fx_cdf = sel(_SMD + "fx_cdf")
    m[ds + "fx_cdf.calls"] = int(fx_cdf.sum())
    m[ds + "fx_cdf.s"] = total(_SMD + "fx_cdf")
    m[ds + "fx_cdf.us_per_call"] = 1e6 * ratio(m[ds + "fx_cdf.s"],
                                               m[ds + "fx_cdf.calls"])
    m[ds + "gb_cdf.calls"] = calls(_SMD + "gb_cdf")
    quantile = sel(_SMD + "fx_quantile")
    m[ds + "fx_quantile.calls"] = int(quantile.sum())
    m[ds + "fx_quantile.s"] = total(_SMD + "fx_quantile")
    parent = sp["parent"][fx_cdf]
    in_quantile = int(quantile[parent[parent >= 0]].sum())
    m[ds + "fx_cdf_per_quantile"] = ratio(in_quantile, int(quantile.sum()))
    m[ds + "expected_min_abs_distance.s"] = total(_SMD + "expected_min_abs_distance")
    m[ds + "scaled_max_distribution.s"] = total(ds + "scaled_max_distribution")

    mc = "montecarlo."
    m[mc + "sample_block_values.s"] = total(mc + "sample_block_values")
    m[mc + "sample_block_values.blocks"] = payload(mc + "sample_block_values")
    m[mc + "draw_blocks_per_s"] = ratio(m[mc + "sample_block_values.blocks"],
                                        m[mc + "sample_block_values.s"])
    m[mc + "iter_sample_chunks.chunks"] = payload(mc + "iter_sample_chunks")
    m[mc + "empirical_cdf_stream.self_s"] = self_total(mc + "empirical_cdf_stream")
    m[mc + "usage_statistics.self_s"] = self_total(mc + "usage_statistics")

    m["trace.spans"] = int(dur.size)
    m["trace.self_s_total"] = float(self_.sum())
    return m
