"""Command-line interface.

Subcommands: ``code gen``, ``quantize``, ``dequantize``, ``dist``,
``validate``, ``mc sample``.  Exit codes: 0 success, 1 usage error,
2 data/format error, 3 numerical-convergence error (also used by
``validate --assert`` when an estimate disagrees with its analytic value).

``--csv`` switches standard output to machine-parseable CSV.  The
QUANTLAB_QUAD_TOL environment variable overrides the quadrature tolerance
used by every distribution computation.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import blockquant, codebook, distributions, montecarlo
from .errors import DataError, DomainError, FormatError, NumericalError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

DEFAULT_BLOCK_SIZE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; this CLI reserves 2 for
    # data errors, so remap usage problems onto exit code 1.
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")

    # argparse takes only plain negative decimals such as -0.5 for values, so
    # -1e-05 and -inf would read as unknown options.  No option name parses
    # as a float, so every token that does is a value.
    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _emit(rows, header, use_csv):
    if use_csv:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        widths = [
            max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
            for i, h in enumerate(header)
        ]
        print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
        for r in rows:
            print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))


def _fmt(x):
    return format(float(x), ".10g")


def _build_code(args, block_size):
    """Code from --code path or --kind name (constructed on the fly)."""
    if getattr(args, "code", None):
        return codebook.code_read(args.code)
    kind = getattr(args, "kind", None)
    if kind is None:
        raise _UsageError("either --code or --kind is required")
    needs_block_size, build = codebook.CODE_KINDS[kind]
    if needs_block_size and block_size is None:
        raise _UsageError(f"--block-size is required for kind {kind!r}")
    variant = getattr(args, "variant", None) or "quantile-of-average"
    return build(block_size, variant.replace("-", "_"))


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def cmd_code_gen(args):
    code = _build_code(args, args.block_size)
    if args.out:
        codebook.code_write(code, args.out)
    if args.csv:
        _emit(
            [(j + 1, format(v, ".17g")) for j, v in enumerate(code.values)],
            ("index", "value"),
            True,
        )
    else:
        for v in code.values:
            print(format(v, ".17g"))
    return EXIT_OK


def cmd_quantize(args):
    tensor = blockquant.tensor_read(args.input)
    code = codebook.code_read(args.code)
    block_size = (args.block_size if args.block_size is not None
                  else code.block_size or DEFAULT_BLOCK_SIZE)
    qt = blockquant.quantize(tensor, code, block_size, axis=args.axis)
    blockquant.qtensor_write(qt, args.output)
    if args.report:
        errors = blockquant.reconstruction_errors(tensor, blockquant.dequantize(qt))
        rows = [(m, _fmt(errors[m])) for m in ("mean_abs", "mean_sq", "max_abs")]
        _emit(rows, ("metric", "value"), args.csv)
    return EXIT_OK


def cmd_dequantize(args):
    qt = blockquant.qtensor_read(args.input)
    blockquant.tensor_write(blockquant.dequantize(qt), args.output)
    return EXIT_OK


def cmd_dist(args):
    B = args.block_size
    if args.query == "absmax-median":
        value = distributions.absmax_median(B)
    elif args.query == "cdf":
        if args.x is None:
            raise _UsageError("dist cdf requires --x")
        value = distributions.fx_cdf(args.x, B)
    elif args.query == "approx-cdf":
        if args.x is None:
            raise _UsageError("dist approx-cdf requires --x")
        value = distributions.fx_cdf_approx(args.x, B)
    else:  # quantile
        if args.p is None:
            raise _UsageError("dist quantile requires --p")
        value = distributions.fx_quantile(args.p, B)
    if args.csv:
        arg = args.x if args.query in ("cdf", "approx-cdf") else (
            args.p if args.query == "quantile" else "")
        _emit([(args.query, B, arg, _fmt(value))],
              ("query", "B", "arg", "value"), True)
    else:
        print(_fmt(value))
    return EXIT_OK


# Each report row: (quantity, n, estimate, stderr, analytic).
def _validate_usage_rows(code, B, num_blocks, seed):
    stats = montecarlo.usage_statistics(code, B, num_blocks, seed)
    analytic = codebook.code_bin_masses(code, B)
    return [(f"usage[{j + 1}]", stats.histogram.total, stats.proportions[j],
             stats.stderr[j], analytic[j]) for j in range(16)]


def _validate_cdf_rows(B, num_blocks, seed):
    xs = np.linspace(-1.0, 1.0, 33)
    cfg = montecarlo.McConfig(seed=seed, block_size=B, num_blocks=num_blocks)
    est, se = montecarlo.empirical_cdf_stream(cfg, xs)
    return [(f"cdf[x={x:g}]", num_blocks, p, s, distributions.fx_cdf(x, B))
            for x, p, s in zip(xs, est, se)]


def _validate_l1_rows(code, B, num_blocks, seed):
    mean, stderr = montecarlo.l1_statistics(code, B, num_blocks, seed)
    analytic = codebook.expected_l1(code, B)
    return [("expected_l1", num_blocks * B, mean, stderr, analytic)]


def cmd_validate(args):
    B = args.block_size
    if args.n < 2:
        raise _UsageError(
            f"validate needs --n >= 2 blocks for a standard error, got {args.n}")
    if args.report == "cdf":
        rows = _validate_cdf_rows(B, args.n, args.seed)
    else:
        code = _build_code(args, B)
        if args.report == "usage":
            rows = _validate_usage_rows(code, B, args.n, args.seed)
        else:
            rows = _validate_l1_rows(code, B, args.n, args.seed)
    rows = [(q, B, n, _fmt(est), _fmt(se), _fmt(a), _fmt(abs(est - a)))
            for q, n, est, se, a in rows]
    _emit(rows, ("quantity", "B", "n", "estimate", "stderr", "analytic", "abs_diff"),
          args.csv)
    if args.assert_:
        for row in rows:
            est, se, analytic = float(row[3]), float(row[4]), float(row[5])
            if abs(est - analytic) > 4.0 * se:
                print(
                    f"ASSERT FAILED: {row[0]}: |{est:.6g} - {analytic:.6g}| "
                    f"> 4 * {se:.6g}",
                    file=sys.stderr,
                )
                return EXIT_NUMERICAL
    return EXIT_OK


def cmd_mc_sample(args):
    B = args.block_size
    cfg = montecarlo.McConfig(seed=args.seed, block_size=B, num_blocks=args.n)
    v = montecarlo.sample_block_values(cfg)
    if args.out:
        blockquant.tensor_write(v, args.out)
    n = v.size
    rows = []
    for name, hits in (
        ("abs_extreme_frac", np.abs(v) == 1.0),
        ("atom_neg_frac", v == -1.0),
        ("atom_pos_frac", v == 1.0),
    ):
        p = float(hits.mean())
        rows.append((name, B, n, _fmt(p), _fmt(montecarlo.ci_halfwidth(p, n, z=1.0))))
    _emit(rows, ("quantity", "B", "n", "estimate", "stderr"), args.csv)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(parser, block_size_default=None):
    parser.add_argument("--block-size", type=int, default=block_size_default,
                        help="quantization block size B")
    parser.add_argument("--csv", action="store_true",
                        help="emit machine-parseable CSV on stdout")


def build_parser():
    parser = _Parser(prog="quantlab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_code = sub.add_parser("code", help="codebook operations")
    code_sub = p_code.add_subparsers(dest="code_command", required=True)
    p_gen = code_sub.add_parser("gen", help="construct a 16-value code")
    p_gen.add_argument("--kind", required=True, choices=codebook.CODE_KINDS)
    p_gen.add_argument("--variant",
                       choices=("quantile-of-average", "average-of-quantile"),
                       help="NF4 construction variant")
    p_gen.add_argument("--out", help="write a code16/v1 file here")
    _add_common(p_gen)
    p_gen.set_defaults(func=cmd_code_gen)

    p_q = sub.add_parser("quantize", help="FQT1 tensor -> FQZ1 quantized tensor")
    p_q.add_argument("input")
    p_q.add_argument("output")
    p_q.add_argument("--code", required=True, help="code16/v1 file")
    p_q.add_argument("--axis", type=int, default=0, help="block axis")
    p_q.add_argument("--report", action="store_true",
                     help="print reconstruction error metrics")
    _add_common(p_q)
    p_q.set_defaults(func=cmd_quantize)

    p_d = sub.add_parser("dequantize", help="FQZ1 quantized tensor -> FQT1 tensor")
    p_d.add_argument("input")
    p_d.add_argument("output")
    p_d.set_defaults(func=cmd_dequantize)

    p_dist = sub.add_parser("dist", help="distribution queries")
    p_dist.add_argument("query",
                        choices=("cdf", "quantile", "approx-cdf", "absmax-median"))
    p_dist.add_argument("--x", type=float, help="evaluation point for CDFs")
    p_dist.add_argument("--p", type=float, help="probability for quantile")
    _add_common(p_dist, block_size_default=DEFAULT_BLOCK_SIZE)
    p_dist.set_defaults(func=cmd_dist)

    p_v = sub.add_parser("validate", help="Monte Carlo vs analytic reports")
    p_v.add_argument("report", choices=("usage", "cdf", "l1"))
    p_v.add_argument("--code", help="code16/v1 file")
    p_v.add_argument("--kind", choices=codebook.CODE_KINDS,
                     help="construct this code instead of reading --code")
    p_v.add_argument("--variant",
                     choices=("quantile-of-average", "average-of-quantile"))
    p_v.add_argument("--n", type=int, default=1 << 16, help="number of blocks")
    p_v.add_argument("--seed", type=int, default=0)
    p_v.add_argument("--assert", dest="assert_", action="store_true",
                     help="exit 3 if any |estimate - analytic| > 4 stderr")
    _add_common(p_v, block_size_default=DEFAULT_BLOCK_SIZE)
    p_v.set_defaults(func=cmd_validate)

    p_mc = sub.add_parser("mc", help="Monte Carlo sampling")
    mc_sub = p_mc.add_subparsers(dest="mc_command", required=True)
    p_s = mc_sub.add_parser("sample", help="draw normalized blocks")
    p_s.add_argument("--n", type=int, default=1 << 12, help="number of blocks")
    p_s.add_argument("--seed", type=int, default=0)
    p_s.add_argument("--out", help="write samples as an FQT1 tensor")
    _add_common(p_s, block_size_default=DEFAULT_BLOCK_SIZE)
    p_s.set_defaults(func=cmd_mc_sample)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
