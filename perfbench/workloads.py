"""Workload definitions shared by run.py and worker.py.

Plain data only: importing this module imports neither numpy nor sparsedae,
so run.py can read it without loading the library under test.

Each workload is a list of operations.  One operation is one problem
configuration taken through setup (problem construction plus ``Stepper``
construction), ``Stepper.integrate()`` and the output checks.  A round runs
every operation of the workload once, in an order drawn from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class Operation:
    name: str
    problem: str                      # constructor in sparsedae.problems
    problem_args: Dict[str, object]
    options: Dict[str, object]        # SolverOptions keywords; method by value


def _vdp(method: str) -> Operation:
    # criterion-3 options: tf=10, atol=1e-6, hmax=0.1, standard denominator
    return Operation(
        name=f"ex2-{method}",
        problem="example2",
        problem_args={},
        options=dict(tf=10.0, atol=1e-6, hmax=0.1, ntot=6000, method=method,
                     err_denominator="standard"),
    )


WORKLOADS: Dict[str, List[Operation]] = {
    # many tiny steps: per-call overhead of stepper, newton, codegen, dense LU
    "vdp-4methods": [_vdp(m) for m in ("eb", "cn", "imptrap", "rad")],
    # criterion-10 options: codegen evaluation and Jacobian assembly at 4352 unknowns
    "diffusion-2d": [Operation(
        name="ex5-64x64",
        problem="example5",
        problem_args=dict(n=64, m=64, c0=1.0),
        options=dict(tf=5.0, atol=1e-6, hmax=0.25, hinit=1e-4, ntot=4000,
                     method="imptrap", err_denominator="standard",
                     extrapolate=False),
    )],
    # about ten steps: the symbolic front end at 4480 unknowns dominates
    "electrolyte-short": [Operation(
        name="ex6-32x64",
        problem="example6",
        problem_args=dict(n=32, m=64),
        options=dict(tf=1e-4, atol=1e-6, hmax=1e-4, hinit=1e-6, ntot=4000,
                     method="imptrap", err_denominator="standard",
                     extrapolate=False),
    )],
}

# Finite-difference Jacobian check (criterion 07's form): directions per
# operation, step, and the relative tolerance.
JAC_CHECK_DIRECTIONS = 4
JAC_CHECK_EPS = 1e-6
JAC_CHECK_RTOL = 1e-5
