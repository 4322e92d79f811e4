#!/usr/bin/env python3
"""quantlab benchmark.

    python3 perfbench/run.py --workload {tensor,validate,codes,all} --seed N \\
        --seconds S --trace {0,1} [--size {full,tiny}]

Run from the root of a checkout.  Load model: one closed-loop client, a
single single-threaded process running one CLI operation after another
(``--threads`` is never passed).  Every repetition of a workload runs in a
fresh interpreter (worker.py), as every ``quantlab`` invocation a user makes
does: distribution caches start cold and peak memory is per repetition.

Inputs are generated from ``--seed`` once per run, before any timing.  The
run then repeats the workload until the next repetition would pass
``--seconds``.  The first repetition is checked against independent
recomputations (checks.py); later ones must reproduce its output digests.
With ``--trace 1`` every second repetition runs under the span recorder
(spans.py) and the per-layer metrics come from those; the untraced ones in
between give the tracing overhead.

Output: per-operation figures and the environment on stdout, a results file
under ``.perfbench/results/``, and as the last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics of BENCHMARK.json, or its per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKER_TIMEOUT_S = 170
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def import_quantlab():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "quantlab", "__init__.py")):
        raise BenchError(f"no quantlab sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import quantlab

    where = os.path.realpath(os.path.dirname(quantlab.__file__))
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise BenchError(f"quantlab imported from {where}, not from {src}")
    return quantlab


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _llc():
    best = None
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level, size = _read(f"{base}/{entry}/level"), _read(f"{base}/{entry}/size")
        if level and size and (best is None or int(level) > best["level"]):
            best = {"level": int(level), "size": size}
    if best:
        num, unit = best["size"][:-1], best["size"][-1].upper()
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(unit)
        best["bytes"] = int(num) * scale if scale and num.isdigit() else None
    return best


def _cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _git_commit():
    """HEAD of the checkout's own .git, if it has one (read, not run)."""
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if not head or not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(os.path.join(ROOT, ".git", ref))
    if sha:
        return sha
    for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _src_sha256():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "quantlab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(workload, size, seed):
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "llc": _llc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "seed": seed,
        "size": size,
    }
    if workload == "tensor":
        rows, cols = workloads.SIZES[size]["tensor_shape"]
        env["tensor_input_bytes"] = rows * cols * 4
        if env["llc"] and env["llc"].get("bytes"):
            env["tensor_input_over_llc"] = env["tensor_input_bytes"] / env["llc"]["bytes"]
    return env


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------

def spawn_worker(spec, directory):
    """Run worker.py on spec; returns its result with ``setup_s`` added."""
    spec_path = os.path.join(directory, "spec.json")
    spec["result"] = os.path.join(directory, "result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
            cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not os.path.exists(spec["result"]):
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(spec["result"]) as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - t0
    return result


def percentile_summary(times):
    """Median and the slow-side percentile with at least ten samples beyond
    it (absent below eleven samples), with the sample count."""
    vals = sorted(times)
    n = len(vals)
    out = {"median": statistics.median(vals), "n": n}
    if n >= 11:
        out["tail_pct"] = math.floor(100 * (n - 10) / n)
        out["tail"] = vals[n - 11]
    return out


def run_workload(workload, seed, seconds, trace, size="full", tamper=None):
    """Run one workload; returns the results record (see module docstring).

    ``tamper(directory)``, when given, is applied to every repetition's
    output directory before its checks; the smoke test uses it to show that
    a corrupted output is counted as a failure.
    """
    import_quantlab()
    bench = load_spec()
    sz = workloads.SIZES[size]
    work = os.path.join(OUT_DIR, "work", f"{workload}-s{seed}-t{trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        os.makedirs(work)
        inputs = workloads.make_inputs(workload, size, seed, os.path.join(work, "inputs"))
        reps, setups, failures = [], [], []
        reference = None  # per-operation digests of the first fully checked rep
        attempted = 0
        t_begin = time.monotonic()
        while True:
            k = len(reps)
            traced = bool(trace) and k % 2 == 1
            out = os.path.join(work, f"rep{k}")
            os.makedirs(out)
            ops = workloads.operations(workload, size, seed, inputs, out)
            spec = {"root": ROOT, "inputs": sorted(inputs.values()), "ops": ops,
                    "trace": traced}
            if traced:
                spec["spans_file"] = os.path.join(
                    OUT_DIR, "results", f"{workload}-seed{seed}-spans.npz")
                os.makedirs(os.path.dirname(spec["spans_file"]), exist_ok=True)
            res = spawn_worker(spec, out)
            setups.append(res["setup_s"])
            if tamper is not None:
                tamper(out)
            attempted += len(ops)
            digests = [checks.op_digest(op, r["stdout"]) for op, r in zip(ops, res["ops"])]
            if reference is None:
                bad = checks.check_rep(workload, size, seed, inputs, ops, res["ops"])
                if not bad:
                    reference = digests
            else:
                bad = {op["name"]: [f"exit code {r['rc']}" if r["rc"] else
                                    "output digest differs from the checked repetition"]
                       for op, r, d, ref in zip(ops, res["ops"], digests, reference)
                       if r["rc"] or d != ref}
            failures += [{"rep": k, "op": name, "reasons": why} for name, why in bad.items()]
            reps.append({
                "traced": traced,
                "setup_s": res["setup_s"],
                "workload_s": sum(o["seconds"] for o in res["ops"]),
                "ops": {o["name"]: o["seconds"] for o in res["ops"]},
                "peak_rss_mib": res["peak_rss_kib"] / 1024.0,
                "per_layer": res.get("per_layer"),
                "outputs_sha256": checks.outputs_sha256(digests),
            })
            shutil.rmtree(out)
            elapsed = time.monotonic() - t_begin
            done = len(reps)
            if done >= (2 if trace else 1) and elapsed * (done + 1) / done > seconds:
                break
        while len(setups) < sz["min_setups"]:
            out = os.path.join(work, f"setup{len(setups)}")
            os.makedirs(out)
            setups.append(spawn_worker(
                {"root": ROOT, "inputs": sorted(inputs.values()), "ops": [],
                 "trace": False}, out)["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(workload, seed, seconds, trace, size, bench, reps, setups,
                     failures, attempted)


def summarize(workload, seed, seconds, trace, size, bench, reps, setups,
              failures, attempted):
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    failed = len({(f["rep"], f["op"]) for f in failures})
    workload_s = [r["workload_s"] for r in plain]
    measured = {
        # Fastest repetition: a shared host's speed changes by a quarter from
        # one second to the next, which moves a run's median repetition far
        # more than its fastest one.
        "workload_s": min(workload_s),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
    }
    # Per-operation figures: operation rates, codes_s and failed_frac.
    op_metrics = {}
    for op, name, unit in workloads.OP_METRICS[workload]:
        work = workloads.op_work(workload, size, op)
        times = percentile_summary([r["ops"][op] for r in plain])
        op_metrics[name] = {"unit": unit, "median": work / times["median"], "n": times["n"]}
        if "tail" in times:
            op_metrics[name].update(tail=work / times["tail"], tail_pct=times["tail_pct"])
    op_metrics["workload_s"] = dict(unit="s", min=min(workload_s),
                                    **percentile_summary(workload_s))
    if workload == "codes":
        op_metrics["codes_s"] = op_metrics["workload_s"]
    op_metrics["setup_s"] = dict(unit="s", **percentile_summary(setups))
    op_metrics["peak_rss_mib"] = {"unit": "MiB", "median": measured["peak_rss_mib"],
                                  "n": len(plain)}
    op_metrics["failed_frac"] = {"unit": "ratio", "median": failed / attempted,
                                 "n": attempted}

    if trace:
        layer = {}
        for name in traced[0]["per_layer"]:
            layer[name] = statistics.median(r["per_layer"][name] for r in traced)
        overhead = min(r["workload_s"] for r in traced) - min(workload_s)
        layer["trace.overhead_s"] = overhead
        layer["trace.overhead_frac"] = overhead / min(workload_s)
        wanted = bench["per_layer"]
        values = layer
    else:
        wanted = bench["end_to_end"]
        values = measured
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    digests = {r["outputs_sha256"] for r in reps}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(workload, size, seed),
        "repetitions": reps,
        "setup_samples_s": setups,
        "outputs_sha256": digests.pop() if len(digests) == 1 else sorted(digests),
        "failures": failures,
        "op_metrics": op_metrics,
        "per_layer": values if trace else None,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in wanted},
        },
    }


def report(rec):
    """Human-readable lines: environment, per-operation figures, failures."""
    env = rec["environment"]
    print(f"== {rec['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"reps={len(rec['repetitions'])} outputs_sha256={rec['outputs_sha256']}")
    llc = env["llc"] or {}
    extra = (f" tensor_input={env['tensor_input_bytes']} B (computed) vs "
             f"LLC {llc.get('size')}" if "tensor_input_bytes" in env else "")
    print(f"   env: nproc={env['nproc']} cpu={env['cpu_model']!r} LLC=L{llc.get('level')} "
          f"{llc.get('size')} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} commit={env['git_commit']}{extra}")
    for name, m in rec["op_metrics"].items():
        extra = (f", p{m['tail_pct']} {m['tail']:.6g}" if "tail" in m else "")
        extra += f", min {m['min']:.6g}" if "min" in m else ""
        print(f"   {name:<30} {m['median']:.6g} {m['unit']} (median of {m['n']}{extra})")
    for f in rec["failures"]:
        print(f"   FAILED rep {f['rep']} {f['op']}: {'; '.join(f['reasons'])}")


def write_results(rec):
    directory = os.path.join(OUT_DIR, "results")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory,
                        f"{rec['workload']}-seed{rec['seed']}-trace{rec['trace']}.json")
    with open(path, "w") as fh:
        json.dump(rec, fh, indent=1, sort_keys=True)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(w, args.seed, args.seconds, args.trace, args.size)
                   for w in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for rec in records:
        report(rec)
        print(f"   results file: {os.path.relpath(write_results(rec), ROOT)}")
    if len(records) == 1:
        print(json.dumps(records[0]["result"]))
    else:
        print(json.dumps({rec["workload"]: rec["result"] for rec in records}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
