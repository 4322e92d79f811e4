"""One repetition of a workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC.json

The spec (written by run.py) names the checkout root, the input files, the
operations and where to write the result.  The worker imports quantlab from
the checkout's ``src``, opens its inputs, records the monotonic time at
which it is ready (run.py subtracts its spawn time to get ``setup_s``) and,
unless the spec is setup-only, runs the operations one after another with
stdout captured.  With ``trace`` set, it installs the span recorder after
the ready mark and reduces the spans to per-layer metrics at the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import workloads


def _import_quantlab(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import quantlab.cli

    where = os.path.realpath(os.path.dirname(quantlab.__file__))
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"quantlab imported from {where}, not from {src}")
    return quantlab.cli


def peak_rss_kib():
    """High-water resident set of this process image.  ru_maxrss would also
    count the parent's resident set at fork time, which survives exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _run_op(op, cli):
    """Run one operation with captured output; returns (rc, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if op["kind"] == "cli":
                rc = cli.main(op["argv"])
            else:
                print(workloads.score_codes(**op["args"]), end="")
                rc = 0
        except Exception:  # a crash counts as a failed operation, not a lost run
            traceback.print_exc()
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    cli = _import_quantlab(spec["root"])
    for path in spec["inputs"]:
        with open(path, "rb"):
            pass
    ready = time.monotonic()
    result = {"ready": ready, "ops": []}

    if spec["ops"]:
        recorder = None
        if spec["trace"]:
            import spans
            recorder = spans.Recorder()
            spans.install(recorder)
            op_span = recorder.name_id(spans.OP_SPAN)
        marks = []
        for i, op in enumerate(spec["ops"]):
            before = time.perf_counter()
            if recorder is None:
                rc, stdout, stderr = _run_op(op, cli)
            else:
                recorder.current_op = i
                span = recorder.open(op_span)
                rc, stdout, stderr = _run_op(op, cli)
                recorder.close(span)
            after = time.perf_counter()
            marks.append((before, after))
            result["ops"].append({"name": op["name"], "rc": rc, "seconds": after - before,
                                  "stdout": stdout, "stderr": stderr[-4000:]})
        if recorder is not None:
            sp = recorder.arrays()
            wall = marks[-1][1] - marks[0][0]
            gaps = sum(b[0] - a[1] for a, b in zip(marks, marks[1:]))
            layer = spans.layer_metrics(sp, recorder.names)
            # Span self times plus the untimed gaps between operations must
            # account for the traced wall time of the repetition.
            layer["trace.unaccounted_s"] = wall - gaps - layer.pop("trace.self_s_total")
            result["per_layer"] = layer
            if spec.get("spans_file"):
                import numpy as np
                np.savez_compressed(spec["spans_file"], names=recorder.names, **sp)

    result["peak_rss_kib"] = peak_rss_kib()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
