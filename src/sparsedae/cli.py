"""Command-line front end.

Subcommands::

    solve     integrate a builtin or file-defined system, write trajectory CSV
    converge  grid-refinement study for the builtin PDE problems
    orders    fixed-step order verification against an exact-solution oracle
    pattern   dump a method's Jacobian sparsity pattern as Matrix Market

Exit codes: 0 success, 1 configuration/parse errors, 2 integration stopped
early (TooManySteps / StepUnderflow, also a fixed step that leaves the
domain; partial CSV still written).  A config key that is not a solver-option
name, a key or problem-file name given twice, and a problem flag the problem
does not take (--phi for ex2, --N for a problem file) are errors, exit 1.
Diagnostics go to stderr; data goes to stdout only with --stdout.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable, Dict, List, Optional, TextIO

import numpy as np

from .errors import SparseDaeError
from .jacobian import detect_pattern
from .linalg import write_pattern
from .problemfile import load_problem, numbered_lines, read_assignments
from .problems import BUILTINS, ORACLES, builtin_keywords, make_builtin, probe
from .stepper import SolverOptions, Status, integrate
from .system import MethodKind, build_residual


# problem flag -> (keyword of the builtin constructors, type, help)
PROBLEM_FLAGS = {
    "--N": ("n", int, "grid cells in x (PDE problems)"),
    "--M": ("m", int, "grid cells in y (2-D problems)"),
    "--phi": ("phi", float, "ex5 reaction modulus"),
    "--c0": ("c0", float, "ex5 interior initial value"),
    "--Dx": ("dx_coeff", float, "ex6 x-diffusivity"),
    "--Dy": ("dy_coeff", float, "ex6 y-diffusivity"),
    "--Da": ("da", float, "ex6 Damkohler number"),
    "--delta": ("delta", float, "ex6 applied current"),
}


def _yes_no(value) -> bool:
    """0/1, false/true or no/yes, in any case."""
    text = str(value).lower()
    if text not in ("0", "1", "false", "true", "no", "yes"):
        raise ValueError(f"expected 0/1, false/true or no/yes, not {value!r}")
    return text in ("1", "true", "yes")


# SolverOptions field -> cast of its flag or config value; each field is the
# dest of one flag and the name of one config key
SOLVER_OPTIONS: Dict[str, Callable] = {
    "tf": float, "atol": float, "hinit": float, "hmax": float, "ntot": int,
    "iter": int, "fixed_h": float, "method": MethodKind, "err_denominator": str,
    "extrapolate": _yes_no,
}


def _add_problem_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("problem", help="builtin id (%s) or a problem-file path" % ", ".join(BUILTINS))
    for flag, (dest, type_, help_) in PROBLEM_FLAGS.items():
        p.add_argument(flag, dest=dest, metavar=flag[2:].upper(), type=type_, help=help_)


def _add_solver_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="key=value config file; flags override it")
    p.add_argument("--method", default=None, choices=[k.value for k in MethodKind])
    p.add_argument("--tf", type=float, default=None)
    p.add_argument("--atol", type=float, default=None)
    p.add_argument("--hinit", type=float, default=None)
    p.add_argument("--hmax", type=float, default=None)
    p.add_argument("--ntot", type=int, default=None)
    p.add_argument("--iter", type=int, default=None)
    p.add_argument("--fixed-h", type=float, default=None)
    p.add_argument("--no-extrapolate", dest="extrapolate", action="store_const", const=False)
    p.add_argument("--err-denominator", default=None, choices=["literal", "standard"])


def _build_problem(args, **override):
    """The system ``args`` names; keywords in ``override`` replace their flags."""
    name = args.problem
    kw = {dest: getattr(args, dest) for dest, _, _ in PROBLEM_FLAGS.values()
          if getattr(args, dest) is not None}
    kw.update(override)
    if name not in BUILTINS and not os.path.exists(name):
        raise SparseDaeError(f"no builtin problem and no file named {name!r}")
    takes = builtin_keywords(name) if name in BUILTINS else ()
    stray = [flag for flag, (dest, _, _) in PROBLEM_FLAGS.items() if dest in kw and dest not in takes]
    if stray:
        raise SparseDaeError(f"problem {name!r} does not take {', '.join(stray)}")
    return make_builtin(name, **kw) if name in BUILTINS else load_problem(name)


def _option_values(args) -> Dict[str, object]:
    """The solver-option fields the flags set, and the --config file for the
    fields no flag sets; config keys may spell ``_`` as ``-``."""
    kw = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            kw = read_assignments(numbered_lines(fh), lambda key, text: SOLVER_OPTIONS[key](text),
                                  args.config, key=lambda key: key.replace("-", "_"))
    for field, cast in SOLVER_OPTIONS.items():
        if getattr(args, field) is not None:
            kw[field] = cast(getattr(args, field))
    if "tf" not in kw:
        raise SparseDaeError("--tf is required (or set tf= in the config file)")
    return kw


def _check_observables(sys_, names: List[str]) -> None:
    """Raise UnknownObservable for a name ``sys_`` does not define, before
    any integration writes output."""
    for name in names:
        probe(sys_.initial_state(), sys_, name)


def _write_output(args, write: Callable[[TextIO], None], default_out: Optional[str] = None) -> bool:
    """``write`` to --out, or to ``default_out`` when neither --out nor
    --stdout is given, and to stdout with --stdout or when no file is
    written.  True when stdout was written."""
    out = args.out or (None if args.stdout else default_out)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            write(fh)
    if args.stdout or not out:
        write(sys.stdout)
        return True
    return False


def cmd_solve(args) -> int:
    sys_ = _build_problem(args)
    options = SolverOptions(**_option_values(args))
    _check_observables(sys_, args.observable or [])
    traj = integrate(sys_, options)

    def write(fh):
        traj.write_csv(fh)
        for name in args.observable or []:
            value = probe(traj.final_state, sys_, name)
            fh.write(f"# observable {name} at t={traj.final_time:.17g}: {value:.17g}\n")

    _write_output(args, write, default_out="solution.csv")
    print(traj.message, file=sys.stderr)
    if options.fixed_h is not None and traj.conv_fails:
        print(f"kept {traj.conv_fails} of {traj.accepted} fixed steps with an unconverged "
              "Newton solve (raise --iter)", file=sys.stderr)
    return 0 if traj.status is Status.SUCCESS else 2


def cmd_converge(args) -> int:
    if args.problem not in BUILTINS or "n" not in builtin_keywords(args.problem):
        gridded = ", ".join(k for k in BUILTINS if "n" in builtin_keywords(k))
        raise SparseDaeError(f"converge needs a builtin PDE problem ({gridded})")
    options = SolverOptions(**_option_values(args))
    rows = []
    obs_names = None
    for n in [int(s) for s in args.n_list.split(",")]:
        sys_ = _build_problem(args, n=n)
        if obs_names is None:
            obs_names = args.observable or sorted(sys_.observables)
        _check_observables(sys_, obs_names)
        traj = integrate(sys_, options)
        if traj.status is not Status.SUCCESS:
            raise SparseDaeError(f"N={n}: integration stopped: {traj.message}")
        rows.append([n] + [probe(traj.final_state, sys_, o) for o in obs_names])

    monotone = all(all(np.diff(col) > 0) or all(np.diff(col) < 0)
                   for col in zip(*(r[1:] for r in rows)))

    lines = ["N," + ",".join(obs_names)]
    lines += [",".join([str(r[0])] + [f"{v:.15g}" for v in r[1:]]) for r in rows]
    lines.append(f"# monotone={'true' if monotone else 'false'}")
    text = "\n".join(lines) + "\n"
    if _write_output(args, lambda fh: fh.write(text)):
        # companion markdown table
        md = ["| N | " + " | ".join(obs_names) + " |",
              "|" + "---|" * (len(obs_names) + 1)]
        md += ["| " + " | ".join([str(r[0])] + [f"{v:.12g}" for v in r[1:]]) + " |" for r in rows]
        print("\n".join(md), file=sys.stderr)
    return 0


def cmd_orders(args) -> int:
    if args.problem not in ORACLES:
        raise SparseDaeError(f"orders needs a problem with an exact-solution oracle: {sorted(ORACLES)}")
    oracle = ORACLES[args.problem]
    h_list = [float(s) for s in args.h_list.split(",")]
    if len(set(h_list)) < 2 or min(h_list) <= 0:
        raise SparseDaeError("--h-list needs at least two distinct positive step sizes to fit a slope")
    sys_ = _build_problem(args)
    values = _option_values(args)
    options = SolverOptions(**values)
    out_lines = ["method,extrapolated,h,endpoint_error"]
    slopes = []
    for method in ([options.method] if "method" in values else list(MethodKind)):
        for extrapolate in (False, True):
            errs = []
            for h in h_list:
                # truncation-error study: iterate well below the smallest
                # endpoint error so the Newton floor never shows in the slopes
                opt = SolverOptions(
                    tf=options.tf, atol=min(options.atol, 1e-12), hinit=h,
                    hmax=options.tf, ntot=options.ntot,
                    iter=max(options.iter, 12), method=method,
                    extrapolate=extrapolate, fixed_h=h,
                )
                # SolverOptions has validated h as fixed_h, so tf / h is finite
                opt.ntot = max(options.ntot, round(options.tf / h) + 10)
                traj = integrate(sys_, opt)
                if traj.status is not Status.SUCCESS:
                    raise SparseDaeError(f"{method.value} h={h:g}: integration stopped: {traj.message}")
                exact = oracle(options.tf)
                err = float(np.max(np.abs(traj.final_state[: len(exact)] - exact)))
                errs.append(err)
                out_lines.append(f"{method.value},{extrapolate},{h:.17g},{err:.17g}")
            # a zero endpoint error has no logarithm, so the fit has no slope
            slope = float(np.polyfit(np.log(h_list), np.log(errs), 1)[0]) if min(errs) > 0 else math.nan
            tag = "extrapolated" if extrapolate else "raw"
            slopes.append(f"# slope {method.value} {tag} = {slope:.3f}")
    text = "\n".join(out_lines + slopes) + "\n"
    _write_output(args, lambda fh: fh.write(text))
    return 0


def cmd_pattern(args) -> int:
    sys_ = _build_problem(args)
    method = MethodKind(args.method or "imptrap")
    pat = detect_pattern(build_residual(sys_, method))
    _write_output(args, lambda fh: write_pattern(pat.n, pat.indptr, pat.rowind, fh))
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
    p.set_defaults(fn=cmd_pattern, stdout=False)
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
