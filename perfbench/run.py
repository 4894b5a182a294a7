"""sparsedae benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload, each in a fresh single-threaded worker
process (``worker.py``), until ``--seconds`` have passed (at least one
round).  Checks every operation's output against independent references
(``reference.py``).  With ``--trace 0`` reports the end-to-end metrics
setup_s, solve_s and peak_rss_mb; with ``--trace 1`` the per-layer metrics
from the spans of ``tracing.py``.  Each metric is the median over the run's
rounds.  The last line of standard output is the result object; the line
before it, also written to ``perfbench/results/``, has the machine, the
per-round figures, final-state hashes and the check details.

Exit code 0 when every check passed, 1 when one failed or a worker could
not run, 2 when the library sources are missing.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools to one thread, before numpy loads, here and in workers
_SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(_SINGLE_THREAD)

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import reference
from workloads import JAC_CHECK_RTOL, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
RUN_LIMIT_S = 170.0      # a run must end within 180 s


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run_worker(args, round_no: int, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--round", str(round_no), "--trace", str(args.trace)]
    if args.trace and round_no == 0:
        cmd += ["--spans-out", str(RESULTS / f"spans-{args.workload}.tsv.gz")]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "sparsedae" / "__init__.py").is_file():
        print(f"sparsedae sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    ops = WORKLOADS[args.workload]
    refs = reference.references(args.workload, ops)
    check = reference.CHECKS[args.workload]
    by_name = {op.name: op for op in ops}

    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < args.seconds:
        try:
            rounds.append(run_worker(args, len(rounds), deadline))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as err:
            print(f"round {len(rounds)}: {err}", file=sys.stderr)
            return 1

    attempted = failed = 0
    failures, hashes = [], {}
    for r in rounds:
        for rec in r["ops"]:
            attempted += 1
            if rec["failed"]:
                failed += 1
                continue
            failures += check(rec, refs, by_name[rec["name"]])
            if not rec["jac_check_rel"] <= JAC_CHECK_RTOL:
                failures.append(f"{rec['name']}: Jacobian off central differences by "
                                f"{rec['jac_check_rel']:.3e} (relative)")
            hashes.setdefault(rec["name"], set()).add(rec["final_sha256"])

    # metric names and units come from BENCHMARK.json
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        wanted = spec["per_layer"]
        per_round = [r["layers"] for r in rounds]
    else:
        wanted = spec["end_to_end"]
        per_round = [{m["name"]: r[m["name"]] for m in wanted} for r in rounds]
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        values = [pr[name] for pr in per_round]
        # counts take the lower median so that they stay whole numbers
        value = statistics.median_low(values) if unit == "count" else statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}

    ops_detail = [{k: v for k, v in rec.items() if k not in ("initial", "final")}
                  for rec in rounds[0]["ops"]]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "machine": machine(),
        "per_round": per_round,
        "ops": ops_detail,
        "final_sha256": {k: sorted(v) for k, v in hashes.items()},
        "failures": failures,
    }
    if args.trace:
        # not gated: factorize calls seen at the linalg boundary against the
        # Trajectory's own count, per round
        detail["lu_check"] = [{"linalg.factorize_calls": r["layers"]["linalg.factorize_calls"],
                               "trajectory.lu_count+init_lu": r["counts"].get("trajectory.lus", 0)}
                              for r in rounds]
    text = json.dumps(detail)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(text + "\n")
    for msg in failures:
        print(msg, file=sys.stderr)
    print(text)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
