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
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from .verdict import (DEFAULT_INDEX_TOL, DEFAULT_P_MAX, Grid, InvalidArgument,
                      InvalidSpec, PreconditionError, RunConfig,
                      UltraweightError)
from .sequences import check_sequence_condition
from .functions import check_omega_condition
from .indices import gamma_index_fun, gamma_index_seq, mu_fun, mu_seq
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


def _grid(args) -> Grid:
    return Grid(t_min=args.tmin, t_max=args.tmax, points=args.points)


def _config(args) -> RunConfig:
    p_max = DEFAULT_P_MAX if args.pmax is None else args.pmax
    return RunConfig(grid=_grid(args), p_max=p_max, index_tol=args.tol)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _dump_specs(args, objs: dict) -> list:
    """Write each object's descriptor to PREFIX.NAME.json, where PREFIX is
    --spec-out or else --out without its suffix; the paths written."""
    prefix = args.spec_out or (args.out and str(Path(args.out).with_suffix("")))
    if not prefix:
        return []
    paths = [f"{prefix}.{name}.json" for name in objs]
    for path, obj in zip(paths, objs.values()):
        dump_spec(obj, path)
    return paths


# ---------------------------------------------------------------------------
# subcommand handlers: (args, config) -> Report (CSV text for sample)

def cmd_check(args, config: RunConfig) -> Report:
    if args.sequence:
        M = make_sequence(args.sequence)
        echo = {"sequence": M.spec or M.label}
        default = ["lc", "mg", "nq"]
        run = partial(check_sequence_condition, M, r=args.r, P=args.pmax)
    elif args.omega:
        fn = make_function(args.omega)
        echo = {"omega": spec_of(fn)}
        default = ["omega1", "omega3", "omega4", "omega_nq"]
        run = partial(check_omega_condition, fn, r=args.r, config=config)
    else:
        raise InvalidSpec("check needs --sequence or --omega")
    wanted = [c.strip() for c in args.conditions.split(",")] \
        if args.conditions else default
    results = {cond: run(cond).to_dict() for cond in wanted}
    return Report("check", inputs={**echo, "conditions": wanted, "r": args.r},
                  results=results)


def cmd_index(args, config: RunConfig) -> Report:
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
    return Report("index", inputs=inputs,
                  results={"estimate": estimate.to_dict()})


def cmd_descend(args, config: RunConfig) -> Report:
    N = make_sequence(args.sequence or args.N)
    pair = descendant(N, args.r, config=config)
    files = _dump_specs(args, {"S": pair.S, "L": pair.L})
    return Report("descend",
                  inputs={"sequence": N.spec or N.label, "r": args.r},
                  results=pair.to_dict(), diagnostics={"spec_files": files})


def cmd_reduce(args, config: RunConfig) -> Report:
    sigma = make_function(args.sigma)
    omega = make_function(args.omega)
    f = make_function(args.f)
    result = reduction_build(sigma, omega, f, args.n, config=config)
    files = _dump_specs(args, {"omega_tilde": result.omega_tilde,
                               "sigma_tilde": result.sigma_tilde})
    return Report("reduce",
                  inputs={"sigma": spec_of(sigma), "omega": spec_of(omega),
                          "f": spec_of(f), "n_break": args.n},
                  results=result.to_dict(), diagnostics={"spec_files": files})


def cmd_matrix(args, config: RunConfig) -> Report:
    fn = make_function(args.omega)
    levels = args.levels or DEFAULT_LEVELS
    matrix = associated_matrix(fn, levels=levels, j_max=args.jmax,
                               config=config)
    csv_path = args.csv
    if csv_path is None and args.out:
        csv_path = str(Path(args.out).with_suffix(".csv"))
    if csv_path:
        Path(csv_path).write_text(matrix_csv(matrix))
    return Report("matrix",
                  inputs={"omega": spec_of(fn), "levels": list(levels),
                          "j_max": args.jmax},
                  results=matrix.to_dict(), diagnostics={"csv_file": csv_path})


def cmd_kappa(args, config: RunConfig) -> Report:
    fn = make_function(args.omega)
    if args.r is not None and args.r != 1.0:
        built = kappa_power_normalized(fn, args.r, config=config)
        check = built.construction_check.to_dict()
    else:
        built = kappa(fn, config=config)
        check = built.precondition.to_dict()
    files = _dump_specs(args, {"kappa": built})
    ts = np.geomspace(max(args.tmin, 1.0), args.tmax, 16)
    results = {"check": check,
               "samples": [{"t": float(t), "value": float(v)}
                           for t, v in zip(ts, built.eval(ts))],
               "spec": spec_of(built)}
    return Report("kappa", inputs={"omega": spec_of(fn), "r": args.r},
                  results=results, diagnostics={"spec_files": files})


def cmd_sample(args, config) -> str:
    if args.sequence:
        if args.pmax is not None and args.pmax < 0:
            raise InvalidArgument("--pmax must be >= 0")
        return sequence_csv(make_sequence(args.sequence),
                            200 if args.pmax is None else args.pmax)
    if args.omega:
        return function_csv(make_function(args.omega), _grid(args).geometric())
    raise InvalidSpec("sample needs --sequence or --omega")


def cmd_report(args, config) -> Report:
    import json
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
    for p in problems:
        print(f"invalid report: {p}", file=sys.stderr)
    if problems:
        raise UltraweightError(f"report {path!r} fails validation")
    return Report("report",
                  inputs={"path": path, "command": data.get("command")},
                  results=data.get("results", {}),
                  diagnostics={"validated": True})


# ---------------------------------------------------------------------------
# parser

def _levels(text: str) -> tuple[float, ...]:
    """--levels: comma-separated numbers; anything else is a usage error."""
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=DEFAULT_INDEX_TOL,
                   help="index bracket tolerance")
    p.add_argument("--pmax", type=int, default=None,
                   help="largest sequence index probed")
    p.add_argument("--tmin", type=float, default=1e-2,
                   help="evaluation grid lower end")
    p.add_argument("--tmax", type=float, default=1e12,
                   help="evaluation grid upper end")
    p.add_argument("--points", type=int, default=600,
                   help="evaluation grid size")
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
    p.add_argument("--levels", type=_levels,
                   help="comma-separated level parameters")
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
        started = time.perf_counter()
        # sample and report compute nothing a RunConfig bounds, and sample
        # takes a --pmax below the RunConfig floor of 4
        config = None if args.command in ("sample", "report") else _config(args)
        out = args.handler(args, config)
        if isinstance(out, str):
            _emit(out, args.out)
            return EXIT_OK
        out.wall_time = time.perf_counter() - started
        _emit(out.to_json(), args.out)
        return exit_code_for(out.results)
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
