"""Command-line front end.

Subcommands::

    solve     integrate a builtin or file-defined system, write trajectory CSV
    converge  grid-refinement study for the builtin PDE problems
    orders    fixed-step order verification against an exact-solution oracle
    pattern   dump a method's Jacobian sparsity pattern as Matrix Market

Exit codes: 0 success, 1 configuration/parse errors, 2 integration stopped
early (TooManySteps / StepUnderflow; partial CSV still written).  Diagnostics
go to stderr; data goes to stdout only with --stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

import numpy as np

from .errors import SparseDaeError
from .jacobian import detect_pattern
from .linalg import SparseMatrix, write_matrix_market
from .problemfile import load_problem
from .problems import BUILTIN_GRIDDED, BUILTINS, ORACLES, make_builtin, probe
from .stepper import SolverOptions, Status, integrate, integrate_fixed
from .system import MethodKind, build_residual


def _read_config(path: str) -> Dict[str, str]:
    cfg = {}
    with open(path, "r", encoding="utf-8") as fh:
        for no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise SparseDaeError(f"{path}:{no}: expected key=value")
            cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


def _add_problem_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("problem", help="builtin id (%s) or a problem-file path" % ", ".join(BUILTINS))
    p.add_argument("--N", type=int, default=None, help="grid cells in x (PDE problems)")
    p.add_argument("--M", type=int, default=None, help="grid cells in y (2-D problems)")
    p.add_argument("--phi", type=float, default=None, help="ex5 reaction modulus (default 0.5)")
    p.add_argument("--c0", type=float, default=None, help="ex5 interior initial value (default 0)")
    p.add_argument("--Dx", type=float, default=None, help="ex6 x-diffusivity (default 1)")
    p.add_argument("--Dy", type=float, default=None, help="ex6 y-diffusivity (default 1)")
    p.add_argument("--Da", type=float, default=None, help="ex6 Damkohler number (default 1)")
    p.add_argument("--delta", type=float, default=None, help="ex6 applied current (default 1)")


def _add_solver_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="key=value config file; flags override it")
    p.add_argument("--method", default=None, choices=[k.value for k in MethodKind])
    p.add_argument("--tf", type=float, default=None)
    p.add_argument("--atol", type=float, default=None)
    p.add_argument("--hinit", type=float, default=None)
    p.add_argument("--hmax", type=float, default=None)
    p.add_argument("--ntot", type=int, default=None)
    p.add_argument("--iter", type=int, default=None, dest="iter_")
    p.add_argument("--fixed-h", type=float, default=None)
    p.add_argument("--no-extrapolate", action="store_true")
    p.add_argument("--norm", default=None, choices=["inf", "rms"])
    p.add_argument("--err-denominator", default=None, choices=["literal", "standard"])


def _build_problem(args, n=None):
    """The system ``args`` names; ``n``, when given, replaces ``--N``."""
    name = args.problem
    if name in BUILTINS:
        kw = {}
        n = args.N if n is None else n
        if n is not None:
            kw["n"] = n
        if args.M is not None:
            kw["m"] = args.M
        if args.phi is not None:
            kw["phi"] = args.phi
        if args.c0 is not None:
            kw["c0"] = args.c0
        if args.Dx is not None:
            kw["dx_coeff"] = args.Dx
        if args.Dy is not None:
            kw["dy_coeff"] = args.Dy
        if args.Da is not None:
            kw["da"] = args.Da
        if args.delta is not None:
            kw["delta"] = args.delta
        return make_builtin(name, **kw)
    if not os.path.exists(name):
        raise SparseDaeError(f"no builtin problem and no file named {name!r}")
    return load_problem(name)


def _build_options(args, cfg: Dict[str, str]) -> SolverOptions:
    def pick(flag_value, key, cast):
        if flag_value is not None:
            return flag_value
        if key in cfg:
            return cast(cfg[key])
        return None

    tf = pick(args.tf, "tf", float)
    if tf is None:
        raise SparseDaeError("--tf is required (or set tf= in the config file)")
    kw = dict(tf=tf)
    atol = pick(args.atol, "atol", float)
    if atol is not None:
        kw["atol"] = atol
    for name, key, cast in (
        ("hinit", "hinit", float), ("hmax", "hmax", float),
        ("fixed_h", "fixed_h", float), ("norm", "norm", str),
        ("err_denominator", "err_denominator", str),
    ):
        v = pick(getattr(args, name), key, cast)
        if v is not None:
            kw[name] = v
    ntot = pick(args.ntot, "ntot", int)
    if ntot is not None:
        kw["ntot"] = ntot
    it = pick(args.iter_, "iter", int)
    if it is not None:
        kw["iter"] = it
    method = pick(args.method, "method", str)
    if method is not None:
        kw["method"] = MethodKind(method)
    if args.no_extrapolate or cfg.get("extrapolate", "").lower() in ("0", "false", "no"):
        kw["extrapolate"] = False
    return SolverOptions(**kw)


def _write_trajectory(traj, sys_, observables: List[str], out: Optional[str], to_stdout: bool):
    def emit(fh):
        traj.write_csv(fh)
        for name in observables:
            value = probe(traj.final_state, sys_, name)
            fh.write(f"# observable {name} at t={traj.final_time:.17g}: {value:.17g}\n")

    if out:
        with open(out, "w", encoding="utf-8") as fh:
            emit(fh)
    if to_stdout:
        emit(sys.stdout)


def _integrate(sys_, options: SolverOptions):
    """Fixed-step integration when ``--fixed-h`` is set, adaptive otherwise."""
    return (integrate_fixed if options.fixed_h else integrate)(sys_, options)


def cmd_solve(args) -> int:
    cfg = _read_config(args.config) if args.config else {}
    sys_ = _build_problem(args)
    options = _build_options(args, cfg)
    traj = _integrate(sys_, options)
    out = args.out
    if out is None and not args.stdout:
        out = "solution.csv"
    _write_trajectory(traj, sys_, args.observable or [], out, args.stdout)
    print(traj.message, file=sys.stderr)
    return 0 if traj.status is Status.SUCCESS else 2


def cmd_converge(args) -> int:
    cfg = _read_config(args.config) if args.config else {}
    if args.problem not in BUILTIN_GRIDDED:
        raise SparseDaeError("converge needs a builtin PDE problem (ex4, ex5, ex6)")
    options = _build_options(args, cfg)
    n_list = [int(s) for s in args.n_list.split(",")]
    rows = []
    obs_names = None
    for n in n_list:
        sys_ = _build_problem(args, n)
        if obs_names is None:
            obs_names = args.observable or sorted(sys_.observables)
        traj = _integrate(sys_, options)
        if traj.status is not Status.SUCCESS:
            raise SparseDaeError(f"N={n}: integration stopped: {traj.message}")
        rows.append([n] + [probe(traj.final_state, sys_, o) for o in obs_names])

    monotone = all(
        all(np.diff([r[k] for r in rows]) > 0) or all(np.diff([r[k] for r in rows]) < 0)
        for k in range(1, len(obs_names) + 1)
    ) if len(rows) > 1 else True

    lines = ["N," + ",".join(obs_names)]
    lines += [",".join([str(r[0])] + [f"{v:.15g}" for v in r[1:]]) for r in rows]
    lines.append(f"# monotone={'true' if monotone else 'false'}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.stdout or not args.out:
        sys.stdout.write(text)
        # companion markdown table
        md = ["| N | " + " | ".join(obs_names) + " |",
              "|" + "---|" * (len(obs_names) + 1)]
        md += ["| " + " | ".join([str(r[0])] + [f"{v:.12g}" for v in r[1:]]) + " |" for r in rows]
        print("\n".join(md), file=sys.stderr)
    return 0


def cmd_orders(args) -> int:
    cfg = _read_config(args.config) if args.config else {}
    if args.problem not in ORACLES:
        raise SparseDaeError(f"orders needs a problem with an exact-solution oracle: {sorted(ORACLES)}")
    oracle = ORACLES[args.problem]
    sys_ = _build_problem(args)
    options = _build_options(args, cfg)
    h_list = [float(s) for s in args.h_list.split(",")]
    out_lines = ["method,extrapolated,h,endpoint_error"]
    report = []
    for method in ([MethodKind(args.method)] if args.method else list(MethodKind)):
        for extrapolate in (False, True):
            errs = []
            for h in h_list:
                # truncation-error study: iterate well below the smallest
                # endpoint error so the Newton floor never shows in the slopes
                opt = SolverOptions(
                    tf=options.tf, atol=min(options.atol, 1e-12), hinit=h,
                    hmax=options.tf,
                    ntot=max(options.ntot, int(round(options.tf / h)) + 10),
                    iter=max(options.iter, 12), method=method,
                    extrapolate=extrapolate, fixed_h=h,
                )
                traj = integrate_fixed(sys_, opt)
                exact = oracle(options.tf)
                err = float(np.max(np.abs(traj.final_state[: len(exact)] - exact)))
                errs.append(err)
                out_lines.append(f"{method.value},{extrapolate},{h:.17g},{err:.17g}")
            slope = float(np.polyfit(np.log(h_list), np.log(errs), 1)[0])
            report.append((method.value, extrapolate, slope))
    for name, extrapolate, slope in report:
        tag = "extrapolated" if extrapolate else "raw"
        out_lines.append(f"# slope {name} {tag} = {slope:.3f}")
    text = "\n".join(out_lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.stdout or not args.out:
        sys.stdout.write(text)
    return 0


def cmd_pattern(args) -> int:
    sys_ = _build_problem(args)
    method = MethodKind(args.method or "imptrap")
    pat = detect_pattern(build_residual(sys_, method))
    mat = SparseMatrix(pat.n, pat.indptr, pat.rowind, np.ones(pat.nnz))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_matrix_market(mat, fh, pattern_only=True)
    else:
        write_matrix_market(mat, sys.stdout, pattern_only=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sparsedae", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="integrate one problem, write trajectory CSV")
    _add_problem_args(p)
    _add_solver_args(p)
    p.add_argument("--out", default=None, help="CSV output path (default solution.csv)")
    p.add_argument("--stdout", action="store_true", help="write the CSV to stdout")
    p.add_argument("--observable", action="append", default=None,
                   help="observable name appended to the CSV summary (repeatable)")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("converge", help="grid-refinement study over a list of N")
    _add_problem_args(p)
    _add_solver_args(p)
    p.add_argument("--n-list", required=True, help="comma-separated grid sizes, e.g. 4,8,16,32,64")
    p.add_argument("--out", default=None)
    p.add_argument("--stdout", action="store_true")
    p.add_argument("--observable", action="append", default=None)
    p.set_defaults(fn=cmd_converge)

    p = sub.add_parser("orders", help="fixed-step order verification sweeps")
    _add_problem_args(p)
    _add_solver_args(p)
    p.add_argument("--h-list", required=True, help="comma-separated step sizes")
    p.add_argument("--out", default=None)
    p.add_argument("--stdout", action="store_true")
    p.set_defaults(fn=cmd_orders)

    p = sub.add_parser("pattern", help="dump the Jacobian sparsity pattern (Matrix Market)")
    _add_problem_args(p)
    p.add_argument("--method", default=None, choices=[k.value for k in MethodKind])
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_pattern)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (SparseDaeError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
