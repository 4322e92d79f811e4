"""Command-line interface.

Subcommands: ``code gen``, ``quantize``, ``dequantize``, ``dist``,
``validate``, ``mc sample``.  Exit codes: 0 success, 1 usage error,
2 data/format error, 3 numerical-convergence error (also used by
``validate --assert`` when an estimate disagrees with its analytic value),
130 interrupted (SIGINT).

``--csv`` switches standard output to machine-parseable CSV.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import sys

import numpy as np

from . import blockquant, codebook, distributions, montecarlo
from .errors import DomainError, NumericalError, QuantLabError, check_block_size

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3
EXIT_INTERRUPTED = 130  # the shell's code for a SIGINT

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
    """Code from --code path or --kind name (constructed on the fly), not
    both.  --variant goes only with --kind nf4."""
    code_path = getattr(args, "code", None)
    if code_path and args.kind:
        raise _UsageError("give --code or --kind, not both")
    if args.variant and (code_path or args.kind != "nf4"):
        raise _UsageError("--variant goes only with --kind nf4")
    if code_path:
        return codebook.code_read(code_path)
    if args.kind is None:
        raise _UsageError("either --code or --kind is required")
    kind, build = codebook.CODE_KINDS[args.kind]
    if block_size is not None:
        block_size = check_block_size(block_size)
    elif codebook.KINDS[kind][0]:
        raise _UsageError(f"--block-size is required for kind {args.kind!r}")
    return build(block_size, (args.variant or "quantile-of-average").replace("-", "_"))


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
    code = codebook.code_read(args.code)
    block_size = check_block_size(args.block_size if args.block_size is not None
                                  else code.block_size or DEFAULT_BLOCK_SIZE)
    errors = blockquant._quantize_file(args.input, args.output, code, block_size,
                                       args.axis, args.report)
    if args.report:
        rows = [(m, _fmt(errors[m])) for m in ("mean_abs", "mean_sq", "max_abs")]
        _emit(rows, ("metric", "value"), args.csv)
    return EXIT_OK


def cmd_dequantize(args):
    blockquant._dequantize_file(args.input, args.output)
    return EXIT_OK


def cmd_dist(args):
    value = args.law(args.arg, args.block_size)
    if args.csv:
        _emit([(args.query, args.block_size, args.arg, _fmt(value))],
              ("query", "B", "arg", "value"), True)
    else:
        print(_fmt(value))
    return EXIT_OK


def _mc_config(args, command):
    """McConfig from --seed, --block-size and --n.  Standard errors come from
    the spread between blocks, so fewer than two is a usage error."""
    if args.n < 2:
        raise _UsageError(
            f"{command} needs --n >= 2 blocks for a standard error, got {args.n}")
    return montecarlo.McConfig(seed=args.seed, block_size=args.block_size,
                               num_blocks=args.n)


def cmd_validate(args):
    B = args.block_size
    cfg = _mc_config(args, "validate")
    if args.report == "cdf" and (args.code or args.kind or args.variant):
        raise _UsageError("validate cdf takes no --code, --kind or --variant")
    code = None if args.report == "cdf" else _build_code(args, B)
    # One row per quantity; n counts blocks for cdf (entry 0 of each block)
    # and sampled entries for usage and l1.
    if args.report == "cdf":
        xs = np.linspace(-1.0, 1.0, 33)
        names, n = [f"cdf[x={x:g}]" for x in xs], args.n
        est, se = montecarlo.empirical_cdf_stream(cfg, xs)
        analytic = [distributions.fx_cdf(x, B) for x in xs]
    elif args.report == "usage":
        names, n = [f"usage[{j + 1}]" for j in range(16)], args.n * B
        est, se = montecarlo.usage_statistics(cfg, code)
        analytic = codebook.code_bin_masses(code, B)
    else:
        names, n = ["expected_l1"], args.n * B
        mean, stderr = montecarlo.l1_statistics(cfg, code)
        est, se, analytic = [mean], [stderr], [codebook.expected_l1(code, B)]
    rows = [(q, B, n, _fmt(e), _fmt(s), _fmt(a), _fmt(abs(e - a)))
            for q, e, s, a in zip(names, est, se, analytic)]
    _emit(rows, ("quantity", "B", "n", "estimate", "stderr", "analytic", "abs_diff"),
          args.csv)
    if args.assert_:
        return _assert_rows(rows, args.report)
    return EXIT_OK


def _assert_rows(rows, report):
    """Exit 3 if a row's estimate is more than 4 standard errors from its
    analytic value.  A cdf row is tested against the binomial error of the
    analytic value itself, which stays positive where no block, or every
    block, falls below x.  A usage or l1 row whose clustered error is 0 but
    whose estimate differs cannot be tested: that is a usage error."""
    checked = [(q, n, float(e), float(s), float(a)) for q, _, n, e, s, a, _ in rows]
    if report == "cdf":
        checked = [(q, n, e, math.sqrt(max(a * (1.0 - a), 0.0) / n), a)
                   for q, n, e, _, a in checked]
    else:
        for q, _, e, s, a in checked:
            if s == 0 and e != a:
                raise _UsageError(
                    f"too few blocks to test {q}: its standard error is 0")
    for q, _, e, s, a in checked:
        if abs(e - a) > 4.0 * s:
            print(f"ASSERT FAILED: {q}: |{e:.6g} - {a:.6g}| > 4 * {s:.6g}",
                  file=sys.stderr)
            return EXIT_NUMERICAL
    return EXIT_OK


def cmd_mc_sample(args):
    cfg = _mc_config(args, "mc sample")
    B = cfg.block_size
    n = cfg.num_blocks * B
    # One batch at a time: written, then counted block by block.  The FQT1
    # header is checked before the first draw.
    with (blockquant.tensor_writer((cfg.num_blocks, B), args.out) if args.out
          else contextlib.nullcontext(lambda v: None)) as write:

        def counts(v):
            write(v)
            return np.stack([np.count_nonzero(np.abs(v) == 1.0, axis=1),
                             np.count_nonzero(v == -1.0, axis=1),
                             np.count_nonzero(v == 1.0, axis=1)], axis=1)

        total, stderr = montecarlo.block_moments(cfg, counts)
    rows = [(name, B, n, _fmt(t / n), _fmt(s / B)) for name, t, s in zip(
        ("abs_extreme_frac", "atom_neg_frac", "atom_pos_frac"), total, stderr)]
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
    variants = ("quantile-of-average", "average-of-quantile")

    p_code = sub.add_parser("code", help="codebook operations")
    code_sub = p_code.add_subparsers(dest="code_command", required=True)
    p_gen = code_sub.add_parser("gen", help="construct a 16-value code")
    p_gen.add_argument("--kind", required=True, choices=codebook.CODE_KINDS)
    p_gen.add_argument("--variant", choices=variants, help="NF4 construction variant")
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
    dist_sub = p_dist.add_subparsers(dest="query", required=True)
    for query, law, option, help_ in (
            ("cdf", distributions.fx_cdf, "--x", "evaluation point"),
            ("quantile", distributions.fx_quantile, "--p", "probability"),
            ("approx-cdf", distributions.fx_cdf_approx, "--x", "evaluation point"),
            ("absmax-median", lambda _, B: distributions.absmax_median(B), None, None)):
        p = dist_sub.add_parser(query)
        if option:
            p.add_argument(option, dest="arg", metavar=option[2:].upper(),
                           type=float, required=True, help=help_)
        _add_common(p, block_size_default=DEFAULT_BLOCK_SIZE)
        p.set_defaults(func=cmd_dist, law=law, arg="")

    p_v = sub.add_parser("validate", help="Monte Carlo vs analytic reports")
    p_v.add_argument("report", choices=("usage", "cdf", "l1"))
    p_v.add_argument("--code", help="code16/v1 file")
    p_v.add_argument("--kind", choices=codebook.CODE_KINDS,
                     help="construct this code instead of reading --code")
    p_v.add_argument("--variant", choices=variants)
    p_v.add_argument("--n", type=int, default=1 << 16, help="number of blocks")
    p_v.add_argument("--seed", type=int, default=0)
    p_v.add_argument("--assert", dest="assert_", action="store_true",
                     help="exit 3 if any |estimate - analytic| > 4 stderr "
                          "(for cdf, the binomial stderr of the analytic value)")
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
    except (QuantLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, DomainError):
            return EXIT_USAGE
        return EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_DATA
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
