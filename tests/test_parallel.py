"""Forked workers: the same bytes as one process, failures that come
back whole, no process left behind, a bounded number of results held,
and children that build no mesh."""

import contextlib
import multiprocessing
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool
from functools import cached_property

import numpy as np
import pytest

from doublewell import cli, config as configmod, descent, \
    mesh as meshmod, parallel, pipeline, subproblem
from doublewell.errors import SolverError

# the CI 2D smoke config, and a graded one with random and multi-step
# traces
SMOKE2D = """
[mesh]
dim = 2
resolution = 16
levels = 2
[coefficients]
C = 0.0; 0.5; 0.0
D = 0.0; -0.5; 0.0
[strategy]
seeds = laminate:4 zero
[run]
window = 8
"""
GRADED2D = """
[mesh]
dim = 2
extents = 3.0 0.7
resolution = 8
levels = 2
[coefficients]
b = 2.0 + x
C = 0.0; 0.5; 0.0
D = 0.0; -0.5; 0.0
[strategy]
seeds = laminate:4 random zero
"""
OUTPUTS = ("report.json", "u_finest.csv", "fields_finest.csv")


@pytest.fixture
def cores(monkeypatch):
    """Set the core count `parallel.imap` sees, and send every level
    with two or more starts and every table of two or more blocks to
    it, however small."""
    monkeypatch.setattr(descent, "PARALLEL_MIN_WORK", 0)
    monkeypatch.setattr(meshmod, "CSV_PARALLEL_BLOCKS", 2)
    return lambda n: monkeypatch.setattr(parallel, "_cores", lambda: n)


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError here after `seconds` rather than wait for ever
    on a result that will not come (forked children do not inherit the
    alarm)."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_imap_yields_in_order_from_other_processes(cores):
    cores(2)
    offset = 10     # a closure: the workers inherit it, nothing pickled
    out = list(parallel.imap(lambda k: (k + offset, os.getpid()), range(5)))
    assert [k for k, _ in out] == list(range(10, 15))
    assert os.getpid() not in {pid for _, pid in out}
    assert multiprocessing.active_children() == []
    cores(1)
    assert {pid for _, pid in parallel.imap(
        lambda k: (k, os.getpid()), range(3))} == {os.getpid()}


def test_imap_starts_at_most_max_workers(cores):
    cores(16)
    pids = set(parallel.imap(lambda k: os.getpid(), range(40)))
    assert 1 <= len(pids) <= parallel.MAX_WORKERS == 2
    assert multiprocessing.active_children() == []


def test_imap_holds_a_bounded_number_of_results(tmp_path, cores):
    # a consumer that stalls after the first result: the workers compute
    # at most 2 x workers items beyond it, then wait
    cores(2)
    log = tmp_path / "computed"

    def compute(k):
        with open(log, "a") as fh:
            fh.write(f"{k}\n")
        return k
    results = parallel.imap(compute, range(50))
    with deadline(60):
        assert next(results) == 0
    time.sleep(0.5)
    assert len(log.read_text().split()) <= 2 * 2 + 1
    results.close()     # stopping early stops the workers
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_raises_and_leaves_no_process(cores):
    # a child killed outright (the OOM killer, a crash in native code)
    # raises here rather than leaving the run waiting for its result
    cores(2)
    with deadline(60), pytest.raises(BrokenProcessPool):
        list(parallel.imap(lambda k: os._exit(1) if k == 3 else k,
                           range(8)))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("text", [SMOKE2D, GRADED2D],
                         ids=["smoke2d", "graded2d"])
def test_pooled_and_one_process_runs_write_the_same_bytes(tmp_path, cores,
                                                          text):
    cfg = configmod.parse_config_text(text)
    for n in (1, 2):
        cores(n)
        pipeline.run_and_emit(cfg, tmp_path / str(n))
        assert multiprocessing.active_children() == []
    for name in OUTPUTS:
        assert (tmp_path / "1" / name).read_bytes() \
            == (tmp_path / "2" / name).read_bytes(), name


def test_a_solver_error_in_a_child_comes_back_whole(tmp_path, cores,
                                                    monkeypatch, capsys):
    cores(2)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMOKE2D)
    solve, parent = subproblem.solve, os.getpid()

    def failing(problem, **kw):
        # the first solve on level 1, in a child only
        if problem.mesh.n_elem == 2 * 32 * 32 and os.getpid() != parent:
            raise SolverError("conjugate gradients did not reach tol=1e-10",
                              residual=0.25, iterations=7)
        return solve(problem, **kw)
    monkeypatch.setattr(subproblem, "solve", failing)
    with pytest.raises(SolverError) as info:
        pipeline.run_experiment(configmod.parse_config_text(SMOKE2D))
    assert str(info.value) == ("level 1, seed 'laminate:4', step 0: "
                               "conjugate gradients did not reach "
                               "tol=1e-10")
    assert (info.value.residual, info.value.iterations) == (0.25, 7)
    assert multiprocessing.active_children() == []
    assert cli.main(["solve", str(cfg_path), "--outdir",
                     str(tmp_path / "out")]) == cli.EXIT_SOLVER
    assert ("solver failure: level 1, seed 'laminate:4', step 0: "
            "conjugate gradients did not reach tol=1e-10"
            ) in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def test_a_failed_csv_block_leaves_no_process(tmp_path, cores):
    cores(2)
    n = 3 * meshmod.CSV_BLOCK_ROWS + 1
    with pytest.raises(ValueError, match="shorter"):
        meshmod.write_csv(tmp_path / "t.csv", ["a", "b"],
                          [np.zeros(n), np.zeros(n - 5)])
    assert multiprocessing.active_children() == []


def test_children_inherit_every_mesh(monkeypatch, cores):
    # the run and the solver build each grid and each cache in this
    # process: the traces read them in children
    cores(2)
    here = os.getpid()

    def parent_only(name, fn):
        def guarded(*args, **kwargs):
            assert os.getpid() == here, f"{name} called in a child"
            return fn(*args, **kwargs)
        return guarded
    monkeypatch.setattr(meshmod, "build_mesh",
                        parent_only("build_mesh", meshmod.build_mesh))
    for name, attr in list(vars(meshmod.StructuredMesh).items()):
        if isinstance(attr, cached_property):
            guarded = cached_property(parent_only(name, attr.func))
            guarded.__set_name__(meshmod.StructuredMesh, name)
            monkeypatch.setattr(meshmod.StructuredMesh, name, guarded)
    cfg = configmod.parse_config_text(
        SMOKE2D.replace("laminate:4 zero", "laminate:4 random zero"))
    result = pipeline.run_experiment(cfg)
    assert [len(traces) for traces in result.traces_by_level] == [3, 4]
