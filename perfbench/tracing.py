"""Spans around sparsedae's layer boundaries, recorded from outside the library.

``install`` replaces the names that ``sparsedae.stepper`` and
``sparsedae.newton`` look up, and five instance methods, with wrappers that
record one span per call: name, start, end, parent span and the id of the
workload operation that caused it.  Counts that the calls return
(``NewtonOutcome``, ``Factorization.perturbed``, the ``Trajectory``
counters) are summed at the same boundaries.  Spans stay in memory and are
written out once the round ends.

Installing patches module globals and classes for the life of the process,
so it is only done in a worker process that runs a single traced round.
Importing this module does not import sparsedae.
"""

from __future__ import annotations

import gzip
import itertools
import time
from collections import defaultdict
from typing import Dict, List, Tuple

Span = Tuple[int, str, float, float, int, int]   # id, name, start, end, parent, run


class Tracer:
    """In-memory span recorder.  ``run`` is the id stamped on new spans."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.run = 0
        self._stack = [-1]
        self._ids = itertools.count()

    def wrap(self, name: str, fn, after=None):
        """``fn`` with a span around every call; ``after(result)`` is called
        outside the span with each returned value."""
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, tracer.run))
            if after is not None:
                after(out)
            return out

        return traced


def install(tracer: Tracer) -> None:
    """Wrap sparsedae's layer boundaries with ``tracer``'s spans."""
    import sparsedae.newton as newton_mod
    import sparsedae.stepper as stepper_mod
    from sparsedae.codegen import CompiledResidual
    from sparsedae.jacobian import JacobianAssembler

    counts = tracer.counts

    def newton_done(out):
        counts["newton.iterations"] += out.iterations
        counts["newton.unconverged"] += not out.converged

    def factorize_done(f):
        counts["linalg.perturbed_factorizations"] += bool(f.perturbed)

    def integrate_done(traj):
        counts["stepper.accepted"] += traj.accepted
        counts["stepper.rejected"] += traj.rejected
        counts["stepper.jac_updates"] += traj.jac_updates
        counts["trajectory.lus"] += traj.lu_count + traj.init_lu

    for attr, name, after in (
        ("build_residual", "system.build_residual", None),
        ("detect_pattern", "jacobian.detect_pattern", None),
        ("differentiate", "jacobian.differentiate", None),
        ("CompiledResidual", "codegen.CompiledResidual", None),
        ("JacobianAssembler", "jacobian.JacobianAssembler", None),
        ("factorize", "linalg.factorize", factorize_done),
        ("newton_solve", "newton.newton_solve", newton_done),
    ):
        setattr(stepper_mod, attr, tracer.wrap(name, getattr(stepper_mod, attr), after))
    newton_mod.solve = tracer.wrap("linalg.solve", newton_mod.solve)

    for cls, attr, name, after in (
        (CompiledResidual, "evaluate", "codegen.evaluate", None),
        (JacobianAssembler, "assemble", "jacobian.assemble", None),
        (stepper_mod.Stepper, "initialize", "stepper.initialize", None),
        (stepper_mod.Stepper, "attempt_step", "stepper.attempt_step", None),
        (stepper_mod.Stepper, "integrate", "stepper.integrate", integrate_done),
    ):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), after))


def layer_metrics(spans: List[Span], counts: Dict[str, int]) -> Dict[str, float]:
    """Per-layer times and counts.  A span's self time is its duration minus
    the durations of its direct children."""
    total: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    child: Dict[int, float] = defaultdict(float)
    for sid, name, t0, t1, parent, _ in spans:
        total[name] += t1 - t0
        calls[name] += 1
        child[parent] += t1 - t0
    own: Dict[str, float] = defaultdict(float)
    for sid, name, t0, t1, _, _ in spans:
        own[name] += (t1 - t0) - child[sid]

    solves = calls["newton.newton_solve"]
    steps = counts["stepper.accepted"] + counts["stepper.rejected"]
    return {
        "problems.build_s": total["problems.build"],
        "system.lower_s": total["system.build_residual"],
        "jacobian.pattern_s": total["jacobian.detect_pattern"],
        "jacobian.differentiate_s": total["jacobian.differentiate"],
        "codegen.residual_compile_s": total["codegen.CompiledResidual"],
        "jacobian.assembler_compile_s": total["jacobian.JacobianAssembler"],
        "codegen.evaluate_s": total["codegen.evaluate"],
        "codegen.evaluate_calls": calls["codegen.evaluate"],
        "jacobian.assemble_s": total["jacobian.assemble"],
        "jacobian.assemble_calls": calls["jacobian.assemble"],
        "linalg.factorize_s": total["linalg.factorize"],
        "linalg.factorize_calls": calls["linalg.factorize"],
        "linalg.perturbed_factorizations": counts["linalg.perturbed_factorizations"],
        "linalg.solve_s": total["linalg.solve"],
        "linalg.solve_calls": calls["linalg.solve"],
        "newton.self_s": own["newton.newton_solve"],
        "newton.solves": solves,
        "newton.iterations": counts["newton.iterations"],
        "newton.unconverged": counts["newton.unconverged"],
        "newton.converged_ratio": (solves - counts["newton.unconverged"]) / solves if solves else 0.0,
        "stepper.self_s": (own["stepper.integrate"] + own["stepper.initialize"]
                           + own["stepper.attempt_step"]),
        "stepper.init_s": total["stepper.initialize"],
        "stepper.solve_s": total["stepper.integrate"],
        "stepper.accepted": counts["stepper.accepted"],
        "stepper.rejected": counts["stepper.rejected"],
        "stepper.jac_updates": counts["stepper.jac_updates"],
        "stepper.accept_ratio": counts["stepper.accepted"] / steps if steps else 0.0,
    }


def write_spans(path: str, spans: List[Span]) -> None:
    """Gzipped TSV, one span per line, times in seconds from the first span."""
    origin = min((s[2] for s in spans), default=0.0)
    with gzip.open(path, "wt") as fh:
        fh.write("id\tname\tstart_s\tend_s\tparent\trun\n")
        for sid, name, t0, t1, parent, run in sorted(spans):
            fh.write(f"{sid}\t{name}\t{t0 - origin:.9f}\t{t1 - origin:.9f}\t{parent}\t{run}\n")
