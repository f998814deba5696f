"""Command-line front end: every computation as a reproducible, scriptable
run with CSV or JSON output.

Subcommands:
    kernel    evaluate the critical (or finite-size) kernel on a point grid
    gap       sweep the gap probability over a range of thresholds
    validate  run the exact-identity suite, emit a JSON report
    mc        sample rightmost particles of Ginibre products

Exit codes: 0 success, 1 check failure, 2 usage error.  CSV floats use 17
significant digits, so read-back reproduces the doubles bit-exactly.  Every
output embeds a one-line manifest echoing the command, parameters, package
version, wall-clock time, and the contour grids the command built and
reused from the process's shared grids (contours._shared_grid).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
import warnings

import numpy as np

from . import (__version__, contours, fredholm, kernels, mc, observables,
               validate)

_FMT = "%.17g"
_ALLOWANCE = 0.03          # |phat - P| may exceed the MC ci95 by this much
_ERR_LIMIT = _ALLOWANCE / 3  # largest err of a P that mc --compare uses
_NUMBER_FLAGS = ("--x", "--y", "--grid")


def _fmt(value: float) -> str:
    return _FMT % value


def _start() -> tuple:
    """A command's start: the wall clock and the grid cache's counts."""
    return time.time(), contours._shared_grid.cache_info()


def _manifest(command: str, params: dict, started: tuple) -> dict:
    clock, grids = started
    now = contours._shared_grid.cache_info()
    return {
        "command": command,
        "params": params,
        "version": __version__,
        "wall_clock_s": round(time.time() - clock, 3),
        "grids": {"built": now.misses - grids.misses,
                  "reused": now.hits - grids.hits},
    }


def _emit_csv(header: list[str], rows: list[list[float]], manifest: dict,
              stream) -> None:
    stream.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(v) for v in row) + "\n")


def _emit_json(header: list[str], rows: list[list[float]], manifest: dict,
               stream) -> None:
    payload = {"manifest": manifest,
               "rows": [dict(zip(header, row)) for row in rows]}
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _parse_points(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def _parse_grid(text: str) -> list[float]:
    try:
        lo, hi, count = text.split(":")
        return list(np.linspace(float(lo), float(hi), int(count)))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"grid must look like min:max:count, got {text!r}") from exc


def cmd_kernel(args: argparse.Namespace) -> int:
    started = _start()
    xs = args.x if args.x is not None else args.grid
    ys = args.y if args.y is not None else (args.grid if args.grid else xs)
    if not xs:
        print("kernel: provide --x/--y or --grid", file=sys.stderr)
        return 2
    refine = args.resolution
    if args.finite:
        n, m = args.finite
        shift = kernels.centering_shift(n, m) if args.centered else 0.0

        # the finite loop's node count is set by its frequency cap, not by
        # refine (the line's does follow refine), so the error estimate
        # raises the quadrature order instead
        def evaluate(x, y):
            val, ref = (kernels.finite_kernel(x + shift, y + shift, n, m,
                                              order=order, refine=refine)
                        for order in (16, 24))
            return val, abs(val - ref)
    else:
        if args.centered:
            print("kernel: --centered needs --finite", file=sys.stderr)
            return 2

        def evaluate(x, y):
            val, half = (kernels.critical_kernel(x, y, args.alpha, refine=r)
                         for r in (refine, refine * 0.5))
            return val, abs(val - half)

    rows = []
    for x in xs:
        for y in ys:
            val, err = evaluate(x, y)
            rows.append([x, y, val, 0.0, err])
    header = ["x", "y", "re", "im", "err"]
    manifest = _manifest("kernel", {
        "alpha": args.alpha, "x": xs, "y": ys, "finite": args.finite,
        "centered": bool(args.centered), "resolution": args.resolution,
    }, started)
    emit = _emit_json if args.format == "json" else _emit_csv
    emit(header, rows, manifest, sys.stdout)
    return 0


def cmd_gap(args: argparse.Namespace) -> int:
    started = _start()
    routes = [r.strip() for r in args.routes.split(",") if r.strip()]
    for route in routes or [args.routes]:
        if route not in fredholm.ROUTES:
            print(f"gap: unknown route {route!r}; choose from "
                  f"{', '.join(fredholm.ROUTES)}", file=sys.stderr)
            return 2
    grid = np.linspace(args.a_min, args.a_max, args.steps)
    # u is an extra column: a failing workspace costs its u values (nan),
    # not the routes' P
    workspace, u_error, u_failures = None, None, 0
    try:
        workspace = observables.RhWorkspace(args.alpha, args.a_max,
                                            refine=args.resolution)
    except (ArithmeticError, ValueError) as exc:
        u_error = exc
    header = ["a"] + [f"P_{r.replace('-', '')}" for r in routes]
    header += ["logP", "u", "u_asym", "err"]
    rows = []
    for a in grid:
        results = [fredholm.gap_probability(float(a), args.alpha, route,
                                            refine=args.resolution)
                   for route in routes]
        ps = [res.p for res in results]
        # the routes must agree to the probability bound's slack (1e-7):
        # a row whose routes spread further is not a value of P
        if max(ps) - min(ps) > fredholm._P_SLACK:
            raise ArithmeticError(
                f"alpha={args.alpha}, a={float(a)}: the routes' P spread "
                f"{max(ps) - min(ps):.2e}, past {fredholm._P_SLACK:g}")
        row = [float(a)] + ps + [results[0].log_p]
        u = math.nan
        if workspace is not None:
            try:
                u = observables.u_of_x(float(a), args.alpha, workspace)
            except (ArithmeticError, ValueError) as exc:
                u_error = u_error or exc
        u_failures += math.isnan(u)
        row.append(u)
        row.append(observables.u_asymptotic(float(a), args.alpha))
        # the largest err, NaN if any is (Python's max would drop a NaN)
        row.append(float(np.max([res.err for res in results])))
        rows.append(row)
    manifest = _manifest("gap", {
        "alpha": args.alpha, "a_min": args.a_min, "a_max": args.a_max,
        "steps": args.steps, "routes": routes, "resolution": args.resolution,
    }, started)
    # poles: the pole rule's count at a_min, the most that any row's y1 sums
    manifest["workspace"] = None if workspace is None else {
        "line": len(workspace.line),
        "poles": kernels._pole_count(args.alpha, args.a_min)}
    manifest["u_error"] = None
    if u_error is not None:
        manifest["u_error"] = f"{type(u_error).__name__}: {u_error}"
        print(f"gap: u is nan in {u_failures} of {len(rows)} rows: "
              f"{manifest['u_error']}", file=sys.stderr)
    emit = _emit_json if args.format == "json" else _emit_csv
    emit(header, rows, manifest, sys.stdout)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    started = _start()
    rep = validate.report()
    rep["manifest"] = _manifest("validate", {}, started)
    json.dump(rep, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0 if rep["all_passed"] else 1


def cmd_mc(args: argparse.Namespace) -> int:
    started = _start()
    cfg = mc.McConfig(N=args.N, M=args.M, trials=args.trials, seed=args.seed)
    threads = mc.resolve_threads(args.threads)
    result = mc.sample_rightmost(cfg, threads=threads)
    if args.csv:
        mc.write_samples_csv(result, args.csv)
    gap_points = [1.0, 2.0, 3.0]
    summary = mc.summary_dict(result, gap_points)
    refused = []
    if args.compare:
        alpha = cfg.M / cfg.N
        for entry in summary["gap_table"]:
            try:
                res = fredholm.gap_probability(entry["a"], alpha, "halfline")
                entry["p_theory_err"] = res.err
                problem = (None if _is_probability(res.p, res.err)
                           else f"P={res.p:.3g}, err={res.err:.3g}")
            except (ArithmeticError, ValueError) as exc:
                entry["p_theory_err"] = None
                problem = f"{type(exc).__name__}: {exc}"
            if problem is None:
                entry["p_theory"] = res.p
                entry["abs_diff"] = abs(entry["phat"] - res.p)
                entry["within_allowance"] = (entry["abs_diff"]
                                             <= entry["ci95"] + _ALLOWANCE)
            else:
                entry["p_theory"] = entry["abs_diff"] = None
                entry["within_allowance"] = None
                refused.append(f"a={entry['a']:g}: {problem}")
        summary["compare_alpha"] = alpha
        summary["compare_error"] = None
        if refused:
            summary["compare_error"] = (
                f"halfline P at alpha={alpha:.4g} is not a resolved "
                f"probability ({'; '.join(refused)})")
            print(f"mc: {summary['compare_error']}", file=sys.stderr)
    summary["manifest"] = _manifest("mc", {
        "N": args.N, "M": args.M, "trials": args.trials, "seed": args.seed,
        "threads": threads, "compare": bool(args.compare), "csv": args.csv,
        "sampler": mc.SAMPLER,
    }, started)
    json.dump(summary, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 1 if refused else 0


def _is_probability(p: float, err: float) -> bool:
    """Whether a theory value can stand beside a Monte-Carlo frequency:
    finite, resolved to a third of the allowance, and in [-err, 1 + err]."""
    return (math.isfinite(p) and math.isfinite(err) and err <= _ERR_LIMIT
            and -err <= p <= 1.0 + err)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critgap",
        description="Gap probability of the critical point process of "
                    "Ginibre-product singular values.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernel", help="evaluate the correlation kernel")
    k.add_argument("--alpha", type=float, default=1.0)
    k.add_argument("--x", type=_parse_points, help="comma-separated x values")
    k.add_argument("--y", type=_parse_points, help="comma-separated y values")
    k.add_argument("--grid", type=_parse_grid,
                   help="min:max:count, used for both axes when --x/--y absent")
    k.add_argument("--finite", nargs=2, type=int, metavar=("N", "M"),
                   help="finite-size kernel instead of the critical limit")
    k.add_argument("--centered", action="store_true",
                   help="shift arguments by the finite-size centering")
    k.add_argument("--resolution", type=float, default=1.0,
                   help="quadrature refinement factor")
    k.add_argument("--format", choices=("csv", "json"), default="csv")
    k.set_defaults(func=cmd_kernel)

    g = sub.add_parser("gap", help="sweep the gap probability")
    g.add_argument("--alpha", type=float, default=1.0)
    g.add_argument("--a-min", dest="a_min", type=float, required=True)
    g.add_argument("--a-max", dest="a_max", type=float, required=True)
    g.add_argument("--steps", type=int, default=7)
    g.add_argument("--routes", default=",".join(fredholm.ROUTES),
                   help="comma-separated subset of "
                        f"{', '.join(fredholm.ROUTES)}")
    g.add_argument("--resolution", type=float, default=1.0)
    g.add_argument("--format", choices=("csv", "json"), default="csv")
    g.set_defaults(func=cmd_gap)

    v = sub.add_parser("validate", help="run the exact-identity suite")
    v.set_defaults(func=cmd_validate)

    m = sub.add_parser("mc", help="Monte-Carlo rightmost-particle sampling")
    m.add_argument("--N", type=int, required=True, help="matrix size")
    m.add_argument("--M", type=int, required=True, help="number of factors")
    m.add_argument("--trials", type=int, default=1000)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--threads", type=int, default=None,
                   help=f"worker threads (default ${mc.THREADS_ENV} or 1)")
    m.add_argument("--csv", help="write centered samples to this file")
    m.add_argument("--compare", action="store_true",
                   help="add theory comparison at a = 1, 2, 3")
    m.set_defaults(func=cmd_mc)
    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """Glue a value starting with '-' to its number-list flag
    (--grid -1:1:3 -> --grid=-1:1:3): argparse reads a separate token like
    -1:1:3 as an unknown option."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _NUMBER_FLAGS and re.match(r"-[\d.]", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(_join_negative_values(argv))
    if args.command == "gap":
        if args.a_min <= 0.0:
            parser.error("--a-min must be positive")
        if args.a_max < args.a_min:
            parser.error("--a-max must be >= --a-min")
        if args.steps < 1:
            parser.error("--steps must be >= 1")
    try:
        with warnings.catch_warnings(record=True) as held:
            warnings.simplefilter("always")
            code = args.func(args)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        # a command that fails reports its error alone, not the warnings of
        # the computation that failed
        print(f"critgap: {exc}", file=sys.stderr)
        return 1
    if code != 0:
        # so does one that returns nonzero, having reported its failure
        # (mc --compare's refused theory rows, validate's failed checks)
        return code
    shown: dict = {}  # each warning once, as the default filter shows it
    for w in held:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno,
                               registry=shown)
    return code


if __name__ == "__main__":
    sys.exit(main())
