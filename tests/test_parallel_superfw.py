"""Etree-parallel SuperFW: threaded schedule correctness."""

import sys

import numpy as np
import pytest

from repro.core.parallel_superfw import parallel_superfw
from repro.core.superfw import superfw
from repro.plan import analyze
from repro.resilience import FaultSpec, RetryPolicy, inject_faults

from conftest import scipy_apsp


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_threaded_matches_oracle(mesh_graph, threads):
    r = parallel_superfw(mesh_graph, num_workers=threads, seed=0)
    assert np.allclose(r.dist, scipy_apsp(mesh_graph))


def test_all_graph_classes(any_graph):
    r = parallel_superfw(any_graph, num_workers=3, seed=0)
    assert np.allclose(r.dist, scipy_apsp(any_graph))


def test_without_etree_parallelism(mesh_graph):
    r = parallel_superfw(mesh_graph, num_workers=3, etree_parallel=False, seed=0)
    assert np.allclose(r.dist, scipy_apsp(mesh_graph))
    assert r.meta["etree_parallel"] is False


def test_matches_sequential_exactly(mesh_graph):
    """Same plan => bitwise identical results (min-plus ⊕ commutes)."""
    plan = analyze(mesh_graph, seed=0)
    seq = superfw(mesh_graph, plan=plan)
    par = parallel_superfw(mesh_graph, plan=plan, num_workers=4)
    assert np.array_equal(seq.dist, par.dist)


def test_op_counts_match_sequential(mesh_graph):
    plan = analyze(mesh_graph, seed=0)
    seq = superfw(mesh_graph, plan=plan)
    par = parallel_superfw(mesh_graph, plan=plan, num_workers=4)
    # The split four-region outer update covers the same index space.
    assert par.ops.total == seq.ops.total


def test_levels_recorded(mesh_graph):
    r = parallel_superfw(mesh_graph, num_workers=2, seed=0)
    levels = r.meta["levels"]
    assert sum(levels) == r.meta["plan"].structure.ns
    assert levels[0] >= levels[-1]  # leaves outnumber roots


def test_plan_mismatch_rejected(mesh_graph, grid_graph):
    plan = analyze(grid_graph, seed=0)
    with pytest.raises(ValueError):
        parallel_superfw(mesh_graph, plan=plan)


def test_repeated_runs_deterministic(mesh_graph):
    plan = analyze(mesh_graph, seed=0)
    runs = [
        parallel_superfw(mesh_graph, plan=plan, num_workers=4).dist
        for _ in range(3)
    ]
    assert np.array_equal(runs[0], runs[1])
    assert np.array_equal(runs[1], runs[2])


def test_thread_executor_under_contention_is_exact(mesh_graph):
    # More workers than cores, a tiny switch interval and kernel faults:
    # a lost A×A update, op-count merge or shared fault counter would
    # show as a wrong bit, a wrong count or a run-to-run difference.
    plan = analyze(mesh_graph, seed=0)
    seq = superfw(mesh_graph, plan=plan)
    retries = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(2):
            with inject_faults(FaultSpec(seed=4, kernel_error_rate=0.02)):
                par = parallel_superfw(
                    mesh_graph, plan=plan, num_workers=8,
                    retry=RetryPolicy(max_attempts=8),
                )
            assert np.array_equal(seq.dist, par.dist)
            assert par.ops.counts == seq.ops.counts
            retries.append(par.meta["recovery"]["task_retries"])
    finally:
        sys.setswitchinterval(old)
    assert retries[0] == retries[1] > 0
