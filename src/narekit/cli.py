"""Command-line front end.

Subcommands::

    gen       write a problem, generated or loaded, to a JSON file
    solve     doubling solver on a problem
    sushi     shifted solver on a problem
    diagnose  criticality metrics of a problem
    bench     grid of (plain vs shifted) runs, one row per cell

Exit codes: 0 success (--help and --version included), 2 solver
breakdown (SingularMatrix, InitSingular and Breakdown included), 3 any
other NarekitError (no convergence, no central subspace, an
ill-conditioned central pair), 4 InvalidProblem (not an M-matrix
equation, a spectrum that does not split), 5 usage or input/output error
(an unknown flag, a malformed value, a --k, --s, --gamma, --tol,
--max-steps or bench --seeds out of range, and a problem file or
generator that raises InvalidProblem included); 6 is unassigned.  In JSON mode
errors, usage errors included, are reported as {"error": <code-name>,
"message": ...} on standard output; a human-readable message always goes
to standard error.  csv and table cells render lists and dicts as
compact JSON and None as an empty cell.
"""

import argparse
import contextlib
import csv
import io
import json
import sys

import numpy as np

from . import __version__
from .core import NareProblem, build_h, build_m, classify_mmatrix, gamma_star
from .core import ordered_eigenvalues, require_mmatrix
from .diagnostics import _delta, _gap, report_for
from .errors import InvalidProblem, NarekitError, SingularMatrix
from .sda import SdaConfig, sda_solve, trace_writer
from .shift import SushiOptions, sushi_solve
from .problems import (
    RandomMnareSpec,
    TransportSpec,
    random_mnare,
    transport_problem,
)

EXIT_OK = 0
EXIT_BREAKDOWN = 2
EXIT_NO_CONVERGENCE = 3
EXIT_CLASSIFICATION = 4
EXIT_IO = 5

_EXIT_NAMES = {
    EXIT_BREAKDOWN: "breakdown",
    EXIT_NO_CONVERGENCE: "no-convergence",
    EXIT_CLASSIFICATION: "classification",
    EXIT_IO: "io",
}


class _CliFailure(Exception):
    def __init__(self, code, message, parser=None):
        super().__init__(message)
        self.code = code
        self.parser = parser  # the argparse parser of a usage error


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 5: argparse's own 2 is the breakdown code
        self.print_usage(sys.stderr)
        raise _CliFailure(EXIT_IO, message, self)


def _add_source_args(sub):
    sub.add_argument("--problem", help="path to a problem JSON file")
    sub.add_argument("--family", choices=["transport", "random"],
                     help="generate the problem instead of loading it")
    sub.add_argument("--n", type=int, help="problem size for --family")
    sub.add_argument("--beta", type=float,
                     help="transport closeness parameter: (alpha, c) = (beta, 1-beta)")
    sub.add_argument("--alpha", type=float, help="family parameter alpha")
    sub.add_argument("--c", type=float, help="transport parameter c")
    sub.add_argument("--seed", type=int, default=0, help="seed for --family random")


def _add_solver_args(sub):
    sub.add_argument("--tol", type=float, default=1e-15)
    sub.add_argument("--max-steps", type=int, default=60)
    sub.add_argument("--force", action="store_true",
                     help="skip the M-matrix classification guard")
    sub.add_argument("--trace", help="write per-step JSON lines to this file")


def _add_output_args(sub):
    sub.add_argument("--format", choices=["json", "csv", "table"], default="json")
    sub.add_argument("--output", help="write the report here instead of stdout")


def build_parser():
    parser = _Parser(
        prog="narekit",
        description="Minimal nonnegative solutions of nonsymmetric algebraic "
                    "Riccati equations by doubling, with subspace-shift "
                    "acceleration for close-to-critical problems.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="write a problem to a JSON file")
    _add_source_args(gen)
    gen.add_argument("--out", required=True, help="output JSON path")

    solve = subs.add_parser("solve", help="doubling solver")
    _add_source_args(solve)
    _add_solver_args(solve)
    _add_output_args(solve)
    solve.add_argument("--gamma", type=float, help="Cayley parameter override")
    solve.add_argument("--save-solution", help="write X to this JSON path")

    sushi = subs.add_parser("sushi", help="subspace-shifted solver")
    _add_source_args(sushi)
    _add_solver_args(sushi)
    _add_output_args(sushi)
    sushi.add_argument("--k", type=int, help="central subspace dimension override")
    sushi.add_argument("--s", type=float, help="shift magnitude override")
    sushi.add_argument("--save-solution", help="write X to this JSON path")

    diag = subs.add_parser("diagnose", help="criticality metrics")
    _add_source_args(diag)
    _add_output_args(diag)
    diag.add_argument("--gamma", type=float, help="Cayley parameter override")

    bench = subs.add_parser("bench", help="plain-vs-shifted grid")
    bench.add_argument("--family", choices=["transport", "random"],
                       default="transport")
    bench.add_argument("--sizes", default="32,128",
                       help="comma-separated problem sizes")
    bench.add_argument("--params", default="1e-3,1e-6,1e-12",
                       help="comma-separated beta (transport) or alpha (random)")
    bench.add_argument("--seeds", default="0",
                       help="comma-separated seeds (random family only)")
    bench.add_argument("--tol", type=float, default=1e-15)
    bench.add_argument("--max-steps", type=int, default=60)
    _add_output_args(bench)
    return parser


def _load_problem(args) -> NareProblem:
    has_file = getattr(args, "problem", None) is not None
    has_family = getattr(args, "family", None) is not None
    if has_file == has_family:
        raise _CliFailure(EXIT_IO, "give exactly one of --problem or --family")
    if has_file:
        try:
            return NareProblem.load(args.problem)
        except (OSError, InvalidProblem) as exc:
            raise _CliFailure(EXIT_IO, f"cannot load {args.problem}: {exc}")
    return _generate(args.family, args.n, beta=args.beta, alpha=args.alpha,
                     c=args.c, seed=args.seed)


def _generate(family, n, beta=None, alpha=None, c=None, seed=0):
    if n is None:
        raise _CliFailure(EXIT_IO, "--family requires --n")
    try:
        if family == "transport":
            if beta is not None:
                spec = TransportSpec.near_critical(n, beta)
            elif alpha is not None and c is not None:
                spec = TransportSpec(n=n, alpha=alpha, c=c)
            else:
                raise _CliFailure(
                    EXIT_IO, "transport needs --beta or both --alpha and --c")
            return transport_problem(spec)
        if alpha is None:
            raise _CliFailure(EXIT_IO, "random family needs --alpha")
        return random_mnare(RandomMnareSpec(n=n, alpha=alpha, seed=seed))
    except InvalidProblem as exc:
        raise _CliFailure(EXIT_IO, str(exc))


def _emit(args, payload, rows=None):
    """Write the report in the requested format.

    rows, when given, is (header, list-of-value-lists) used by csv/table;
    json always gets the full payload.
    """
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        if rows is None:
            header = sorted(payload)
            rows = (header, [[payload[k] for k in header]])
        text = _format_rows(args.format, *rows)
    _write(args, text)


def _write(args, text):
    """Write text to the --output file, or to stdout without one."""
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _CliFailure(EXIT_IO, str(exc))
    else:
        sys.stdout.write(text)


def _format_rows(fmt, header, rows):
    cells = [[_cell(v) for v in row] for row in rows]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(cells)
        return buf.getvalue()
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(header)]
    lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
    for row in cells:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.6g}"
    if isinstance(v, (list, dict)):
        return json.dumps(v, separators=(",", ":"))
    return str(v)


@contextlib.contextmanager
def _trace(args):
    """The --trace callable (None without --trace), its file closed on exit."""
    if args.trace is None:
        yield None
        return
    try:
        fh = open(args.trace, "w")
    except OSError as exc:
        raise _CliFailure(EXIT_IO, str(exc))
    with fh:
        yield trace_writer(fh)


def cmd_gen(args):
    p = _load_problem(args)
    try:
        p.save(args.out)
    except OSError as exc:
        raise _CliFailure(EXIT_IO, str(exc))
    return EXIT_OK


def cmd_solve(args):
    p = _load_problem(args)
    if args.gamma is not None and not gamma_star(p) <= args.gamma < np.inf:
        # below gamma* the Cayley start loses the nonnegativity doubling needs
        raise _CliFailure(EXIT_IO, f"--gamma {args.gamma} must be finite and at "
                                   f"least gamma* = {gamma_star(p):.6g}")
    if not args.force:
        require_mmatrix(p)
    with _trace(args) as trace:
        outcome = sda_solve(p, SdaConfig(gamma=args.gamma, tol=args.tol,
                                         max_steps=args.max_steps, trace=trace))
    return _finish(args, "solve", outcome.report(), outcome.X)


def cmd_sushi(args):
    p = _load_problem(args)
    if args.k is not None and not 1 <= args.k < p.n + p.m:
        raise _CliFailure(EXIT_IO, f"--k {args.k} is outside 1..{p.n + p.m - 1}")
    if args.s is not None and not 0.0 < 1.0 + args.s < np.inf:
        raise _CliFailure(EXIT_IO, f"--s {args.s} must be finite with 1 + s > 0")
    with _trace(args) as trace:
        opts = SushiOptions(k=args.k, s=args.s, tol=args.tol, max_steps=args.max_steps,
                            force=args.force, trace=trace)
        result, cs, plan, _ = sushi_solve(p, opts)
    report = dict(result.report(), k=cs.k, s=plan.s,
                  central_eigs=[[z.real, z.imag] for z in np.atleast_1d(cs.central_eigs)],
                  inv_iter_steps=cs.inv_iter_steps, cond_uv=cs.cond_uv,
                  timings={"total_s": plan.rationale["elapsed_s"]})
    return _finish(args, "sushi", report, result.X)


def _finish(args, command, report, x):
    """Emit a solver report; write X to the --save-solution path if given."""
    report["schema"] = f"narekit-{command}/{__version__}"
    _emit(args, report)
    if args.save_solution:
        try:
            with open(args.save_solution, "w") as fh:
                json.dump({"X": np.asarray(x).tolist()}, fh)
        except OSError as exc:
            raise _CliFailure(EXIT_IO, str(exc))
    return EXIT_OK


def cmd_diagnose(args):
    p = _load_problem(args)
    if args.gamma is not None and not 0.0 < args.gamma < np.inf:
        raise _CliFailure(EXIT_IO, f"--gamma {args.gamma} must be finite and > 0")
    h = build_h(p)
    gamma = args.gamma if args.gamma is not None else gamma_star(p)
    report = report_for(h, gamma)
    payload = json.loads(report.to_json())
    payload["gamma"] = gamma
    payload["classification"] = classify_mmatrix(build_m(p)).tag
    payload["schema"] = f"narekit-diagnose/{__version__}"
    if args.format == "table":
        _write(args, report.to_table() + "\n")
        return EXIT_OK
    _emit(args, payload)
    return EXIT_OK


BENCH_HEADER = ["n", "param", "seed", "gap", "delta", "sda_its", "sda_res",
                "sushi_its", "orth_its", "sushi_res"]


def _bench_cell(family, n, param, seed, tol, max_steps):
    p = _generate(family, n, beta=param, alpha=param, seed=seed)
    h = build_h(p)
    row = {"n": n, "param": param, "seed": seed if family == "random" else ""}
    try:
        lam = ordered_eigenvalues(h)
        row["gap"] = _gap(h, lam)
    except NarekitError as exc:
        lam, row["gap"] = None, f"error:{type(exc).__name__}"
    try:
        plain = sda_solve(p, SdaConfig(tol=tol, max_steps=max_steps))
        row["sda_its"] = plain.steps
        row["sda_res"] = plain.residual
    except NarekitError as exc:
        row["sda_its"] = row["sda_res"] = f"error:{type(exc).__name__}"
    try:
        result, cs, _, _ = sushi_solve(p, SushiOptions(tol=tol, max_steps=max_steps))
        row["sushi_its"] = result.steps
        row["orth_its"] = cs.inv_iter_steps
        row["sushi_res"] = result.residual
        if lam is None:  # the spectrum failed; gap holds its error tag
            row["delta"] = row["gap"]
        else:
            try:
                row["delta"] = _delta(h, lam, cs.central_eigs)
            except NarekitError as exc:
                row["delta"] = f"error:{type(exc).__name__}"
    except NarekitError as exc:
        tag = f"error:{type(exc).__name__}"
        row["sushi_its"] = row["orth_its"] = row["sushi_res"] = row["delta"] = tag
    return [row[k] for k in BENCH_HEADER]


def cmd_bench(args):
    try:
        sizes = [int(v) for v in args.sizes.split(",") if v]
        params = [float(v) for v in args.params.split(",") if v]
        seeds = [int(v) for v in args.seeds.split(",") if v]
        if min(seeds, default=0) < 0:
            raise ValueError(f"negative seed {min(seeds)}")
    except ValueError as exc:
        raise _CliFailure(EXIT_IO, f"bad grid specification: {exc}")
    seeds = seeds if args.family == "random" else [0]
    rows = [
        _bench_cell(args.family, n, param, seed, args.tol, args.max_steps)
        for n in sizes
        for param in params
        for seed in seeds
    ]
    payload = {
        "schema": f"narekit-bench/{__version__}",
        "header": BENCH_HEADER,
        "rows": rows,
    }
    _emit(args, payload, rows=(BENCH_HEADER, rows))  # json ignores rows
    return EXIT_OK


_COMMANDS = {
    "gen": cmd_gen,
    "solve": cmd_solve,
    "sushi": cmd_sushi,
    "diagnose": cmd_diagnose,
    "bench": cmd_bench,
}


def _error_exit(args, code, message):
    sys.stderr.write(f"narekit: {message}\n")
    if getattr(args, "format", None) == "json":
        sys.stdout.write(json.dumps(
            {"error": _EXIT_NAMES.get(code, "error"), "message": message}
        ) + "\n")
    return code


def _usage_format(parser, argv):
    """The format of a usage error in a subcommand's own parser: the last
    --format in argv, abbreviated as argparse allows, if csv or table."""
    opts, fmt = parser._option_string_actions, parser.get_default("format")
    words = [w for a in argv for w in a.split("=", 1)]
    asked = [v for w, v in zip(words, words[1:]) if w.startswith("--")
             and [o for o in opts if o.startswith(w)] == ["--format"]]
    return asked[-1] if asked and asked[-1] in ("csv", "table") else fmt


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, args = build_parser(), argparse.Namespace()
    try:  # args holds a subcommand's --format once its own parser is done
        args = parser.parse_args(argv, args)
    except SystemExit:  # --help and --version
        return EXIT_OK
    except _CliFailure as exc:  # a usage error
        if exc.parser is not parser:
            args = argparse.Namespace(format=_usage_format(exc.parser, argv))
        return _error_exit(args, exc.code, str(exc))
    try:  # solve, sushi and bench: a NaN --tol would disable the stop
        if not (0.0 <= getattr(args, "tol", 0.0) < np.inf
                and getattr(args, "max_steps", 1) >= 1):
            raise _CliFailure(EXIT_IO, "--tol must be finite and >= 0, "
                                       "--max-steps at least 1")
        return _COMMANDS[args.command](args)
    except _CliFailure as exc:
        return _error_exit(args, exc.code, str(exc))
    except SingularMatrix as exc:  # InitSingular and Breakdown included
        return _error_exit(args, EXIT_BREAKDOWN, str(exc))
    except InvalidProblem as exc:
        return _error_exit(args, EXIT_CLASSIFICATION, str(exc))
    except NarekitError as exc:
        return _error_exit(args, EXIT_NO_CONVERGENCE, str(exc))


if __name__ == "__main__":
    sys.exit(main())
