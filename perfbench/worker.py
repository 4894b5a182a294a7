"""One round of one workload, in a fresh process started by ``run.py``.

Runs every operation of the workload once (setup, then integrate), timing
each part, then runs the checks that need the library's own objects (the
finite-difference Jacobian check) outside the timed region.  Prints one JSON
object with the timings, the peak resident memory, the counters and the
initial and final states; ``run.py`` compares the states with the
independent references.

    python3 perfbench/worker.py --workload NAME --seed N --round K --trace 0|1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
import traceback

import numpy as np

from sparsedae import problems
from sparsedae.stepper import SolverOptions, Stepper
from sparsedae.system import MethodKind

import tracing
from workloads import JAC_CHECK_DIRECTIONS, JAC_CHECK_EPS, WORKLOADS


def jacobian_check(st: Stepper, state: np.ndarray, rng: np.random.Generator) -> float:
    """Worst relative gap between the assembled Jacobian and central
    differences of the residual, along random directions, at ``state`` with
    h = hmax (criterion 07's form)."""
    h = st.options.hmax
    st.res.set_base(state)
    st.res.set_h(h)
    a = st.assembler.assemble(np.zeros(st.n), st.res.b, h, st.res.p)
    worst = 0.0
    for _ in range(JAC_CHECK_DIRECTIONS):
        d = rng.standard_normal(st.n)
        rp = st.res.evaluate(JAC_CHECK_EPS * d).copy()
        rm = st.res.evaluate(-JAC_CHECK_EPS * d).copy()
        fd = (rp - rm) / (2 * JAC_CHECK_EPS)
        jd = a.matvec(d)
        worst = max(worst, float(np.abs(jd - fd).max() / (1.0 + np.abs(jd).max())))
    return worst


def run_round(workload: str, seed: int, round_no: int, tracer) -> dict:
    ops = WORKLOADS[workload]
    order = list(range(len(ops)))
    random.Random(f"{seed}/{round_no}").shuffle(order)

    done, records = [], []
    setup_s = solve_s = 0.0
    for run_id, k in enumerate(order):
        op = ops[k]
        build = getattr(problems, op.problem)
        if tracer:
            tracer.run = run_id
            build = tracer.wrap("problems.build", build)
        options = SolverOptions(**dict(op.options, method=MethodKind(op.options["method"])))
        try:
            t0 = time.perf_counter()
            st = Stepper(build(**op.problem_args), options)
            t1 = time.perf_counter()
            traj = st.integrate()
            t2 = time.perf_counter()
        except Exception:
            traceback.print_exc()
            records.append({"name": op.name, "failed": True})
            continue
        setup_s += t1 - t0
        solve_s += t2 - t1
        done.append((op, st, traj))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {"setup_s": setup_s, "solve_s": solve_s, "peak_rss_mb": peak_rss_mb}
    if tracer:
        # the checks below call traced methods; keep them out of the figures
        spans = list(tracer.spans)
        out["layers"] = tracing.layer_metrics(spans, tracer.counts)
        out["counts"] = dict(tracer.counts)

    rng = np.random.default_rng([seed, round_no])
    for op, st, traj in done:
        final = traj.final_state
        records.append({
            "name": op.name,
            "failed": False,
            "status": traj.status.value,
            "accepted": traj.accepted,
            "rejected": traj.rejected,
            "jac_updates": traj.jac_updates,
            "lus": traj.lu_count + traj.init_lu,
            "initial": traj.states[0].tolist(),
            "final": final.tolist(),
            "final_sha256": hashlib.sha256(np.ascontiguousarray(final, dtype="<f8").tobytes()).hexdigest(),
            "jac_check_rel": jacobian_check(st, traj.states[0], rng),
        })
    out["ops"] = records
    if tracer:
        out["spans"] = spans
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", default="", help="write this round's spans here (gzipped TSV)")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    out = run_round(args.workload, args.seed, args.round, tracer)
    spans = out.pop("spans", None)
    if spans is not None and args.spans_out:
        tracing.write_spans(args.spans_out, spans)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
