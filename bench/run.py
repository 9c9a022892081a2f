"""Benchmark of the doublewell solve -> emit -> verify path; see README.md.

    python3 bench/run.py --workload compat2d --seed 1 --seconds 30 --trace 0

Run from the root of a source tree that holds `src/doublewell`.  Without
tracing it times `setup_s` as the median of several cold starts, then
runs whole rounds, each in a fresh worker process, until `--seconds`
have passed, and checks every round's outputs with checks.py.  With
`--trace 1` the rounds are traced and the per-layer figures reported
instead.  The last line of standard output is one JSON object.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread in this process and in every worker: on the two-core
# machine this was tuned on, default threading made a compat2d solve
# slower and burn more CPU time than wall time (README.md, Threads).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy                          # noqa: E402  (after the thread setting)

import checks                         # noqa: E402
import tracing                        # noqa: E402
from workloads import WORKLOADS, config_path  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
COLD_STARTS = 7
# A run must end within 180 s; 10 s are left for the result and exits.
# Rounds after the first stop there.  The first round may run to
# FIRST_ROUND_LIMIT_S, so that a slower program still reports its figures.
RUN_LIMIT_S = 170.0
FIRST_ROUND_LIMIT_S = 900.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def worker(args, timeout):
    """Run worker.py in a fresh interpreter; (exit code, stdout)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py")]
                          + args, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        log(proc.stderr.strip())
    return proc.returncode, proc.stdout


def setup_seconds(workload):
    """Median wall time of COLD_STARTS setup processes, after one warm-up
    that also compiles the package's bytecode."""
    times = []
    for k in range(COLD_STARTS + 1):
        t0 = time.perf_counter()
        code, _ = worker(["setup", workload], timeout=60)
        if code != 0:
            raise RuntimeError("setup process failed")
        if k:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def metric_units(section):
    """Unit of each metric of a BENCHMARK.json section, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f))
               for f in os.listdir(path))


def one_round(workload, seed, out_dir, traced, timeout):
    """Solve and verify in two fresh processes, then check the outputs.

    Returns (record, failed, wrong): record is None for a failed round,
    and wrong tells that it failed an output check."""
    run_dir = os.path.join(out_dir, "run")
    shutil.rmtree(run_dir, ignore_errors=True)
    rec, traces = {}, []
    t0 = time.perf_counter()
    for mode in ("solve", "verify"):
        trace_file = os.path.join(out_dir, f"trace_{mode}.json") \
            if traced else "-"
        try:
            code, stdout = worker(
                [mode, workload, run_dir, trace_file],
                max(timeout - (time.perf_counter() - t0), 1.0))
        except subprocess.TimeoutExpired:
            log(f"{mode} timed out")
            return None, True, False
        if code != 0:
            return None, True, False
        line = json.loads(stdout.strip().splitlines()[-1])
        if os.path.realpath(os.path.dirname(line["package"])) \
                != os.path.realpath(os.path.join(ROOT, "src")):
            raise RuntimeError(f"imported doublewell from {line['package']}")
        rec[f"{mode}_s"] = line["seconds"]
        rec["peak_rss_mb"] = max(rec.get("peak_rss_mb", 0.0),
                                 line["peak_rss_mb"])
        rec["trace_overhead_s"] = rec.get("trace_overhead_s", 0.0) \
            + line["trace_overhead_s"]
        traces.append(trace_file)
        if mode == "solve":
            rec["output_mb"] = dir_bytes(run_dir) / 1e6
    try:
        results, report, facts = checks.check_run(run_dir, workload, seed)
    except (OSError, KeyError, IndexError, ValueError) as exc:
        results = {"outputs_readable": (False, repr(exc))}
    bad = {k: v for k, v in results.items() if not v[0]}
    if not bad and not same_report(out_dir, run_dir, workload):
        bad = {"report_repeats": (False, checks.report_digest(run_dir))}
    if bad:
        log(f"failed checks: {bad}")
        return None, True, True
    rec["report"], rec["facts"] = report, facts
    if traced:
        spans, rec["missing"] = tracing.load_spans(traces)
        rec["layers"] = tracing.layer_metrics(spans, rec["missing"])
        rec["layers"]["trace.overhead_s"] = rec["trace_overhead_s"]
        rec["layers"]["trace.overhead_share"] = rec["trace_overhead_s"] \
            / (rec["solve_s"] + rec["verify_s"])
    return rec, False, False


def code_key(workload):
    """Digest of what report.json depends on: the package's source files,
    the workload's config and the NumPy version."""
    h = hashlib.sha256(numpy.__version__.encode())
    src = os.path.join(ROOT, "src", "doublewell")
    for dirpath, dirnames, files in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    with open(config_path(workload), "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()[:16]


def same_report(out_dir, run_dir, workload):
    """report.json is byte-identical to the first one that passed the
    checks for the same source and config (its digest is kept in
    out/<workload>/report.<code_key>.sha256)."""
    digest = checks.report_digest(run_dir)
    ref = os.path.join(out_dir, f"report.{code_key(workload)}.sha256")
    if not os.path.exists(ref):
        with open(ref, "w") as fh:
            fh.write(digest + "\n")
        return True
    with open(ref) as fh:
        return fh.read().strip() == digest


def report_counts(report):
    """Descent counts and input sizes read from report.json."""
    traces = [t for lvl in report["levels"] for t in lvl["traces"]]
    steps = sum(len(t["steps"]) for t in traces)
    best = sum(len(min(lvl["traces"], key=lambda t: t["final_alpha"])
                   ["steps"]) for lvl in report["levels"])
    return {"descent.steps": steps, "descent.traces": len(traces),
            "descent.budget_exhausted_traces": sum(
                t["budget_exhausted"] for t in traces),
            "descent.winning_step_share": best / steps,
            "mesh.finest_elements": report["levels"][-1]["n_elem"],
            "limits.windows": report["limits"]["n_windows"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "doublewell",
                                       "__init__.py")):
        log(f"no src/doublewell under {ROOT}: nothing to benchmark")
        return 2
    start = time.perf_counter()
    out_dir = os.path.join(BENCH, "out", args.workload)
    os.makedirs(out_dir, exist_ok=True)

    setup = None if args.trace else setup_seconds(args.workload)
    records, attempted, failed, correct = [], 0, 0, True
    measure_end = time.perf_counter() + args.seconds
    while True:
        now = time.perf_counter()
        last = records[-1]["round_s"] if records else 0.0
        if attempted and (now >= measure_end
                          or now - start + 1.5 * last > RUN_LIMIT_S):
            break
        attempted += 1
        limit = RUN_LIMIT_S if records else FIRST_ROUND_LIMIT_S
        rec, fail, wrong = one_round(
            args.workload, args.seed, out_dir, args.trace,
            timeout=max(limit - (now - start), 10.0))
        failed += fail
        correct &= not wrong
        if rec is not None:
            rec["round_s"] = time.perf_counter() - now
            records.append(rec)
            log(f"round {attempted}: solve {rec['solve_s']:.3f} s, "
                f"verify {rec['verify_s']:.3f} s")
    if not records:
        log("every round failed")
        return 1

    if args.trace:
        values = tracing.median_metrics([r["layers"] for r in records])
        values.update(report_counts(records[0]["report"]))
        values["subproblem.finest_dofs"] = records[0]["facts"]["finest_dofs"]
        values["relaxation.coefficient_tuples"] = \
            records[0]["facts"]["coefficient_tuples"]
        for name in records[0]["missing"]:
            log(f"absent: {name} is gone, its layer metric is not reported")
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in metric_units("per_layer").items()
                   if k in values}
    else:
        values = {"setup_s": setup}
        for key in ("solve_s", "verify_s", "peak_rss_mb", "output_mb"):
            values[key] = statistics.median(r[key] for r in records)
        values["alpha"] = records[0]["report"]["final"]["alpha_scheme"]
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in metric_units("end_to_end").items()}
    print(f"# {args.workload} seed={args.seed} rounds={len(records)} "
          f"blas_threads={BLAS_THREADS} trace={args.trace} "
          f"wall={time.perf_counter() - start:.1f}s")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
