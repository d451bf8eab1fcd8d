"""Command-line front end.

All numerics live in the library; this module parses descriptors, runs the
requested operations, and emits JSON reports (CSV for samplings).  Exit
codes: 0 every check Satisfied, 1 some check Violated, 2 some check
Inconclusive, 64 descriptor/usage error, 65 operation precondition failed,
70 internal error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from .verdict import (DEFAULT_INDEX_TOL, Grid, InvalidArgument, InvalidSpec,
                      PreconditionError, RunConfig, UltraweightError)
from .sequences import SEQUENCE_CHECKS
from .functions import OMEGA_CHECKS, check_omega_condition
from .indices import (find_gamma1_witness, gamma_index_fun, gamma_index_seq,
                      mu_fun, mu_seq)
from .constructions import (DEFAULT_J_MAX, DEFAULT_LEVELS, associated_matrix,
                            descendant, kappa, kappa_power_normalized,
                            reduction_build)
from .report import Report, exit_code_for, validate_report
from .specio import (dump_spec, function_csv, make_function, make_sequence,
                     matrix_csv, sequence_csv, spec_of)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_PRECONDITION = 65
EXIT_SOFTWARE = 70


def _config(args) -> RunConfig:
    grid = Grid(t_min=args.tmin, t_max=args.tmax,
                points=args.points if args.points else 0)
    p_max = 10 ** 5 if args.pmax is None else args.pmax
    return RunConfig(grid=grid, p_max=p_max, index_tol=args.tol)


def _emit_text(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(report: Report, started: float, out: Optional[str]) -> None:
    report.wall_time = time.perf_counter() - started
    _emit_text(report.to_json(), out)


def _spec_prefix(args) -> Optional[str]:
    if getattr(args, "spec_out", None):
        return args.spec_out
    if args.out:
        path = Path(args.out)
        return str(path.with_suffix("")) if path.suffix else str(path)
    return None


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_check(args) -> int:
    started = time.perf_counter()
    config = _config(args)
    if args.sequence:
        M = make_sequence(args.sequence)
        echo = {"sequence": M.spec or M.label}
        domain, table = "sequence", SEQUENCE_CHECKS
        default = ["lc", "mg", "nq"]
        pkw = {} if args.pmax is None else {"P": args.pmax}

        def run(cond):
            order = (args.r,) if cond.endswith("_r") else ()
            return table[cond](M, *order, **pkw)
    elif args.omega:
        fn = make_function(args.omega)
        echo = {"omega": spec_of(fn)}
        domain, table = "function", OMEGA_CHECKS
        default = ["omega1", "omega3", "omega4", "omega_nq"]

        def run(cond):
            return check_omega_condition(fn, cond, r=args.r, config=config)
    else:
        raise InvalidSpec("check needs --sequence or --omega")
    wanted = [c.strip() for c in args.conditions.split(",")] \
        if args.conditions else default
    results = {}
    for cond in wanted:
        if cond not in table:
            raise InvalidSpec(f"unknown {domain} condition {cond!r} "
                              f"(choose from {', '.join(table)})")
        if cond.endswith("_r") and args.r is None:
            raise InvalidSpec(f"condition {cond} needs --r")
        results[cond] = run(cond).to_dict()
    report = Report("check", inputs={**echo, "conditions": wanted,
                                     "r": args.r},
                    results=results)
    _emit(report, started, args.out)
    return exit_code_for(results)


def cmd_index(args) -> int:
    started = time.perf_counter()
    config = _config(args)
    inputs = {"kind": args.kind}
    if args.kind == "mu":
        if args.sequence or args.M:
            M = make_sequence(args.sequence or args.M)
            inputs["sequence"] = M.spec or M.label
            estimate = mu_seq(M, config=config)
        elif args.omega:
            fn = make_function(args.omega)
            inputs["omega"] = spec_of(fn)
            estimate = mu_fun(fn, config=config)
        else:
            raise InvalidSpec("index mu needs --sequence (or --omega)")
    else:
        if args.M:
            M = make_sequence(args.M)
            N = make_sequence(args.N) if args.N else None
            inputs["M"] = M.spec or M.label
            if N is not None:
                inputs["N"] = N.spec or N.label
            estimate = gamma_index_seq(M, N, config=config)
        elif args.sigma:
            sigma = make_function(args.sigma)
            omega = make_function(args.omega) if args.omega else None
            inputs["sigma"] = spec_of(sigma)
            if omega is not None:
                inputs["omega"] = spec_of(omega)
            estimate = gamma_index_fun(sigma, omega, config=config)
        else:
            raise InvalidSpec("index gamma needs --M [--N] or --sigma [--omega]")
    report = Report("index", inputs=inputs,
                    results={"estimate": estimate.to_dict()})
    _emit(report, started, args.out)
    return EXIT_OK


def cmd_descend(args) -> int:
    started = time.perf_counter()
    config = _config(args)
    N = make_sequence(args.sequence or args.N)
    pair = descendant(N, args.r, config=config)
    prefix = _spec_prefix(args)
    if prefix:
        dump_spec(pair.S, f"{prefix}.S.json")
        dump_spec(pair.L, f"{prefix}.L.json")
    results = pair.to_dict()
    report = Report("descend",
                    inputs={"sequence": N.spec or N.label, "r": args.r},
                    results=results,
                    diagnostics={"spec_files": [f"{prefix}.S.json",
                                                f"{prefix}.L.json"]
                                 if prefix else []})
    _emit(report, started, args.out)
    return exit_code_for(results)


def cmd_reduce(args) -> int:
    started = time.perf_counter()
    config = _config(args)
    sigma = make_function(args.sigma)
    omega = make_function(args.omega)
    f = make_function(args.f)
    result = reduction_build(sigma, omega, f, args.n, config=config)
    prefix = _spec_prefix(args)
    if prefix:
        dump_spec(result.omega_tilde, f"{prefix}.omega_tilde.json")
        dump_spec(result.sigma_tilde, f"{prefix}.sigma_tilde.json")
    results = result.to_dict()
    report = Report("reduce",
                    inputs={"sigma": spec_of(sigma), "omega": spec_of(omega),
                            "f": spec_of(f), "n_break": args.n},
                    results=results,
                    diagnostics={"spec_files": [f"{prefix}.omega_tilde.json",
                                                f"{prefix}.sigma_tilde.json"]
                                 if prefix else []})
    _emit(report, started, args.out)
    return exit_code_for(results)


def cmd_matrix(args) -> int:
    started = time.perf_counter()
    config = _config(args)
    fn = make_function(args.omega)
    levels = tuple(float(v) for v in args.levels.split(",")) if args.levels \
        else DEFAULT_LEVELS
    matrix = associated_matrix(fn, levels=levels, j_max=args.jmax,
                               config=config)
    csv_path = args.csv
    if csv_path is None and args.out:
        csv_path = str(Path(args.out).with_suffix(".csv"))
    if csv_path:
        Path(csv_path).write_text(matrix_csv(matrix))
    results = matrix.to_dict()
    report = Report("matrix",
                    inputs={"omega": spec_of(fn), "levels": list(levels),
                            "j_max": args.jmax},
                    results=results,
                    diagnostics={"csv_file": csv_path})
    _emit(report, started, args.out)
    return exit_code_for(results)


def cmd_kappa(args) -> int:
    started = time.perf_counter()
    config = _config(args)
    fn = make_function(args.omega)
    if args.r is not None and args.r != 1.0:
        built = kappa_power_normalized(fn, args.r, config=config)
        check = built.construction_check.to_dict()
    else:
        built = kappa(fn, config=config)
        check = built.precondition.to_dict()
    prefix = _spec_prefix(args)
    if prefix:
        dump_spec(built, f"{prefix}.kappa.json")
    ts = np.geomspace(max(args.tmin, 1.0), args.tmax, 16)
    results = {"check": check,
               "samples": [{"t": float(t), "value": float(v)}
                           for t, v in zip(ts, built.eval(ts))],
               "spec": spec_of(built)}
    report = Report("kappa",
                    inputs={"omega": spec_of(fn), "r": args.r},
                    results=results,
                    diagnostics={"spec_files": [f"{prefix}.kappa.json"]
                                 if prefix else []})
    _emit(report, started, args.out)
    return exit_code_for(results)


def cmd_sample(args) -> int:
    if args.sequence:
        M = make_sequence(args.sequence)
        text = sequence_csv(M, args.pmax or 200)
    elif args.omega:
        fn = make_function(args.omega)
        grid = Grid(t_min=args.tmin, t_max=args.tmax,
                    points=args.points if args.points else 0)
        text = function_csv(fn, grid.geometric())
    else:
        raise InvalidSpec("sample needs --sequence or --omega")
    _emit_text(text, args.out)
    return EXIT_OK


def cmd_report(args) -> int:
    import json
    started = time.perf_counter()
    path = args.path
    if path.startswith("@"):
        path = path[1:]
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InvalidSpec(f"cannot read report {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"report {path!r} is not valid JSON: {exc}") from None
    problems = validate_report(data)
    if problems:
        for p in problems:
            print(f"invalid report: {p}", file=sys.stderr)
        return EXIT_SOFTWARE
    report = Report("report",
                    inputs={"path": path, "command": data.get("command")},
                    results=data.get("results", {}),
                    diagnostics={"validated": True})
    _emit(report, started, args.out)
    return exit_code_for(data.get("results", {}))


# ---------------------------------------------------------------------------
# parser

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=DEFAULT_INDEX_TOL,
                   help="index bracket tolerance")
    p.add_argument("--pmax", type=int, default=None,
                   help="largest sequence index probed")
    p.add_argument("--tmin", type=float, default=1e-2,
                   help="evaluation grid lower end")
    p.add_argument("--tmax", type=float, default=1e12,
                   help="evaluation grid upper end")
    p.add_argument("--points", type=int, default=0,
                   help="evaluation grid size (0 = default / env)")
    p.add_argument("--out", default=None, help="write output to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultraweight",
        description="Checks, growth indices, and constructions for weight "
                    "sequences and weight functions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run condition predicates")
    p.add_argument("--sequence", help="weight sequence descriptor")
    p.add_argument("--omega", help="weight function descriptor")
    p.add_argument("--conditions", help="comma-separated condition names")
    p.add_argument("--r", type=float, default=None,
                   help="order for nq_r / omega_nq_r")
    _add_common(p)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("index", help="growth index estimates")
    p.add_argument("kind", choices=("gamma", "mu"))
    p.add_argument("--sequence", help="sequence for mu")
    p.add_argument("--M", help="first sequence for gamma")
    p.add_argument("--N", help="second sequence for gamma")
    p.add_argument("--sigma", help="first function for gamma")
    p.add_argument("--omega", help="second function for gamma, or input for mu")
    _add_common(p)
    p.set_defaults(handler=cmd_index)

    p = sub.add_parser("descend", help="descendant sequence pair")
    p.add_argument("--sequence", help="base sequence descriptor")
    p.add_argument("--N", help="alias for --sequence")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--spec-out", dest="spec_out",
                   help="prefix for emitted sequence descriptor files")
    _add_common(p)
    p.set_defaults(handler=cmd_descend)

    p = sub.add_parser("reduce", help="glued dominating pair")
    p.add_argument("--sigma", required=True)
    p.add_argument("--omega", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--n", type=int, default=12, help="number of breakpoints")
    p.add_argument("--spec-out", dest="spec_out",
                   help="prefix for emitted function descriptor files")
    _add_common(p)
    p.set_defaults(handler=cmd_reduce)

    p = sub.add_parser("matrix", help="conjugate-derived sequence matrix")
    p.add_argument("--omega", required=True)
    p.add_argument("--levels", help="comma-separated level parameters")
    p.add_argument("--jmax", type=int, default=DEFAULT_J_MAX)
    p.add_argument("--csv", help="write rows as CSV to this path")
    _add_common(p)
    p.set_defaults(handler=cmd_matrix)

    p = sub.add_parser("kappa", help="kernel-average weight")
    p.add_argument("--omega", required=True)
    p.add_argument("--r", type=float, default=None,
                   help="order for the normalized power variant")
    p.add_argument("--spec-out", dest="spec_out",
                   help="prefix for the emitted descriptor file")
    _add_common(p)
    p.set_defaults(handler=cmd_kappa)

    p = sub.add_parser("sample", help="sample to CSV")
    p.add_argument("--sequence", help="sequence descriptor (columns p,log_value)")
    p.add_argument("--omega", help="function descriptor (columns t,value)")
    _add_common(p)
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("report", help="validate and re-emit a report")
    p.add_argument("path", help="report JSON path (optionally @-prefixed)")
    _add_common(p)
    p.set_defaults(handler=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return EXIT_OK if code == 0 else EXIT_USAGE
    try:
        return args.handler(args)
    except (InvalidSpec, InvalidArgument) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except UltraweightError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_SOFTWARE
    except Exception as exc:  # pragma: no cover - last resort
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_SOFTWARE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
