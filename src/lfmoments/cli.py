"""Command-line interface: eigendata, moment, mainterm, sweep, verify.

Exit codes: 0 success, 1 verification failure, 2 usage error (bad
arguments, or an AFE cutoff past AFE_CUTOFF_MAX), 3 computation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from .harness import (
    SweepConfig,
    cache_file_name,
    get_eigendata,
    load_eigendata,
    run_sweep,
    save_eigendata,
    write_sweep_csv,
)
from .lvalue import CutoffCapError, afe_cutoff
from .moments import build_moment_record, check_t, main_term_thm11, main_term_thm12
from .verify import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_COMPUTATION = 3


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x)


def _finite_float(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(_finite_float(x) for x in text.split(",") if x)


@functools.lru_cache(maxsize=1)  # parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfmoments",
        description="Weighted second moments of weight-2 Hecke L-functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eig = sub.add_parser("eigendata", help="compute and cache eigenform tables")
    p_eig.add_argument("--q", type=int, required=True)
    p_eig.add_argument("--n-max", type=int, default=None)
    p_eig.add_argument("--seed", type=int, default=0)
    p_eig.add_argument("--tol", type=float, default=1e-6)
    p_eig.add_argument("--out", type=str, default=None)
    p_eig.add_argument("--cache-dir", type=str, default=None)

    p_mom = sub.add_parser("moment", help="one empirical-vs-main-term record")
    p_mom.add_argument("--q", type=int, required=True)
    p_mom.add_argument("--p", type=int, required=True)
    p_mom.add_argument("--j", type=int, choices=(1, 2), default=1)
    p_mom.add_argument("--t", type=_finite_float, default=0.0)
    p_mom.add_argument("--tol", type=float, default=1e-6)
    p_mom.add_argument("--seed", type=int, default=0)
    p_mom.add_argument("--cache-dir", type=str, default=None)

    p_main = sub.add_parser("mainterm", help="theorem main terms only")
    p_main.add_argument("--q", type=int, required=True)
    p_main.add_argument("--p", type=int, required=True)
    p_main.add_argument("--j", type=int, choices=(1, 2), default=1)
    p_main.add_argument("--t", type=_finite_float, default=0.0)

    p_sweep = sub.add_parser("sweep", help="CSV sweep over a prime range")
    p_sweep.add_argument("--qmin", type=int, required=True)
    p_sweep.add_argument("--qmax", type=int, required=True)
    p_sweep.add_argument("--p", type=str, default="2")
    p_sweep.add_argument("--j", type=str, default="1")
    p_sweep.add_argument("--t", type=_parse_float_list, default="0")
    p_sweep.add_argument("--tol", type=float, default=1e-6)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--cache-dir", type=str, default=None)
    p_sweep.add_argument("--out", type=str, required=True)
    p_sweep.add_argument("--threads", type=int, default=1)
    p_sweep.add_argument("--timings", action="store_true",
                         help="record real wall_ms (breaks byte determinism)")

    p_ver = sub.add_parser("verify", help="run module invariant suites")
    p_ver.add_argument("--suite", type=str, default="all", choices=SUITE_NAMES)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out", type=str, default=None)
    return parser


# built at import: the first parser loads locale (argparse's gettext), and
# a command should load no module
_build_parser()


def _cmd_eigendata(args) -> int:
    n_max = args.n_max
    if n_max is None:
        n_max = afe_cutoff(args.q, 0.0, args.tol)
    tables = get_eigendata(args.q, n_max, args.seed, args.cache_dir)
    out = args.out
    if out is None:
        if args.cache_dir is not None:  # a cached file may reach past n_max
            out = str(Path(args.cache_dir) / cache_file_name(args.q, args.seed))
            n_max = load_eigendata(out)[3]
        else:
            out = cache_file_name(args.q, args.seed)
            save_eigendata(out, args.q, args.seed, n_max, tables)
    else:
        save_eigendata(out, args.q, args.seed, n_max, tables)
    summary = {
        "q": args.q,
        "dim": len(tables),
        "n_max": n_max,
        "seed": args.seed,
        "signs": [t.sign for t in tables],
        "written": out,
    }
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def _cmd_moment(args) -> int:
    check_t(args.t)  # before afe_cutoff, whose Gamma(1+it)^2 underflows at large t
    n_max = max(afe_cutoff(args.q, args.t, args.tol), args.p ** args.j)
    tables = get_eigendata(args.q, n_max, args.seed, args.cache_dir)
    rec = build_moment_record(tables, args.q, args.p, args.j, args.t, args.tol)
    out = {
        "q": rec.q, "p": rec.p, "j": rec.j, "t": rec.t, "dim": rec.dim,
        "empirical": [rec.empirical.real, rec.empirical.imag],
        "main_term": [rec.main_term.real, rec.main_term.imag],
        "ratio": None if rec.ratio is None else [rec.ratio.real, rec.ratio.imag],
        "abs_residual": rec.abs_residual,
        "n_cutoff": rec.n_cutoff,
        "warnings": list(rec.warnings),
    }
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def _cmd_mainterm(args) -> int:
    val = main_term_thm11(args.p, args.q, args.t) if args.j == 1 \
        else main_term_thm12(args.p, args.q, args.t)
    print(json.dumps({
        "q": args.q, "p": args.p, "j": args.j, "t": args.t,
        "main_term": [val.real, val.imag],
    }, sort_keys=True))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = SweepConfig(
        q_min=args.qmin, q_max=args.qmax,
        p_list=_parse_int_list(args.p),
        j_list=_parse_int_list(args.j),
        t_list=args.t,
        tol=args.tol, seed=args.seed,
        cache_dir=args.cache_dir,
        threads=args.threads, timings=args.timings,
    )
    rows, warnings = run_sweep(config)
    write_sweep_csv(rows, args.out)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    n_err = sum(1 for r in rows if r["error"])
    print(json.dumps({"rows": len(rows), "errors": n_err, "out": args.out}, sort_keys=True))
    return EXIT_OK if n_err == 0 else EXIT_COMPUTATION


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, seed=args.seed)
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK if report["passed"] else EXIT_VERIFY_FAILED


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "eigendata": _cmd_eigendata,
        "moment": _cmd_moment,
        "mainterm": _cmd_mainterm,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except CutoffCapError as exc:  # the arguments ask for more than the tool supports
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION


if __name__ == "__main__":
    sys.exit(main())
