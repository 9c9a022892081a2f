"""One benchmark process, started fresh by run.py for every use.

    python3 bench/worker.py setup <workload>
    python3 bench/worker.py solve <workload> <run_dir> <trace_file|->
    python3 bench/worker.py verify <workload> <run_dir> <trace_file|->

`setup` does what every `doublewell solve` or `verify` pays before
descent: import the package, parse the config, build the mesh hierarchy
and evaluate the coefficients on every level.  run.py times the whole
process from the outside.

`solve` is the work of `doublewell solve`: parse_config_text ->
run_experiment -> emit_outputs into `run_dir`.  `verify` is the work of
`doublewell verify`: verify_run on that directory.  Both print one JSON
line with the seconds the pipeline calls took and the peak resident
memory of the process.  Given a trace file instead of "-", they first
wrap the package's public functions (see tracing.py) and write the
spans to that file at the end; the line then also gives the seconds
spent in tracing code (wrapping, the wrappers' own work, the dump).
"""

import json
import os
import resource
import sys
import time

import doublewell
from doublewell import (config, descent, energy, limits, mesh, pipeline,
                        relaxation, subproblem, youngmeasure)

import tracing
from workloads import config_path

MODULES = {"config": config, "descent": descent, "energy": energy,
           "limits": limits, "mesh": mesh, "pipeline": pipeline,
           "relaxation": relaxation, "subproblem": subproblem,
           "youngmeasure": youngmeasure}


def parsed_config(workload):
    with open(config_path(workload)) as fh:
        return config.parse_config_text(fh.read())


def setup(workload):
    cfg = parsed_config(workload)
    for level in cfg.build_meshes():
        cfg.build_coeffs(level)


def solve(workload, run_dir):
    cfg = parsed_config(workload)
    t0 = time.perf_counter()
    pipeline.emit_outputs(pipeline.run_experiment(cfg), run_dir)
    return time.perf_counter() - t0


def verify(workload, run_dir):
    t0 = time.perf_counter()
    pipeline.verify_run(run_dir)
    return time.perf_counter() - t0


def main(mode, workload, run_dir=None, trace_file="-"):
    if mode == "setup":
        setup(workload)
        return
    tracer = tracing.Tracer() if trace_file != "-" else None
    t0 = time.perf_counter()
    missing = tracing.install(tracer, MODULES) if tracer else []
    install_s = time.perf_counter() - t0
    seconds = {"solve": solve, "verify": verify}[mode](workload, run_dir)
    overhead_s = 0.0
    if tracer is not None:
        t0 = time.perf_counter()
        with open(trace_file, "w") as fh:
            json.dump({"missing": missing, "spans": tracer.spans}, fh)
        overhead_s = install_s + tracer.overhead_s \
            + time.perf_counter() - t0
    print(json.dumps({
        "seconds": seconds,
        "trace_overhead_s": overhead_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "package": os.path.dirname(doublewell.__file__)}))


if __name__ == "__main__":
    main(*sys.argv[1:])
