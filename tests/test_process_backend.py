"""Shared-memory process-pool SuperFW backend vs thread and sequential."""

import os

import numpy as np
import pytest
from conftest import GRAPH_BUILDERS, scipy_apsp

from repro.core.parallel_superfw import parallel_superfw
from repro.core.superfw import superfw
from repro.resilience.faults import (
    FaultSpec,
    export_fault_state,
    inject_faults,
    install_worker_faults,
)
from repro.semiring.engine import symmetric_strips


def test_process_backend_matches_sequential_and_thread(mesh_graph):
    seq = superfw(mesh_graph)
    thr = parallel_superfw(mesh_graph, num_workers=4)
    prc = parallel_superfw(mesh_graph, backend="process", num_workers=4)
    # All three run identical per-supernode kernel sequences over
    # identical candidate sets, so equality is bit-for-bit.
    assert np.array_equal(seq.dist, thr.dist)
    assert np.array_equal(seq.dist, prc.dist)
    assert prc.meta["backend"] == "process"
    assert prc.meta["num_workers"] == 4


@pytest.mark.parametrize("name", ["grid", "ba", "path"])
def test_process_backend_against_scipy_oracle(name):
    g = GRAPH_BUILDERS[name]()
    r = parallel_superfw(g, backend="process", num_workers=2)
    np.testing.assert_allclose(r.dist, scipy_apsp(g), rtol=1e-9, atol=1e-12)


def test_process_backend_without_etree_parallelism(grid_graph):
    seq = superfw(grid_graph)
    r = parallel_superfw(
        grid_graph, backend="process", num_workers=2, etree_parallel=False
    )
    assert np.array_equal(seq.dist, r.dist)
    assert not r.meta["etree_parallel"]


def _staircase_ops(r: int, k: int) -> int:
    """Engine ops of one symmetric ``r × k × r`` outer product."""
    strips = symmetric_strips(r)
    bounds = [r * i // strips for i in range(strips + 1)]
    return sum(2 * (r1 - r0) * k * r1 for r0, r1 in zip(bounds, bounds[1:]))


def _mirrored_deferred_ops(structure) -> int:
    """Engine ops of a mirrored deferred sweep: one panel GEMM, D×D and
    A×A staircased, D×A in full and A×D not at all."""
    total = 0
    for s in range(structure.ns):
        lo, hi = structure.col_range(s)
        b, runs = hi - lo, structure.row_runs(s)
        total += (2 * b * b * (runs.nd + runs.na) + _staircase_ops(runs.nd, b)
                  + 2 * runs.nd * b * runs.na + _staircase_ops(runs.na, b))
    return total


def _counts(result):
    return {name: (v["calls"], v["ops"])
            for name, v in result.meta["engine"]["strategies"].items()}


def test_process_backend_merges_worker_engine_stats(mesh_graph):
    seq = superfw(mesh_graph)
    thr = parallel_superfw(mesh_graph, num_workers=2)
    r = parallel_superfw(mesh_graph, backend="process", num_workers=2)

    # Every worker gemm is folded back: per-kernel calls and ops equal
    # the thread executor's, which splits each outer update into the
    # same regions, and the ops are the products the mirrored sweep runs.
    assert _counts(r) == _counts(thr)
    structure = seq.meta["plan"].structure
    assert {k: ops for k, (_, ops) in _counts(r).items()} == {
        "minplus": _mirrored_deferred_ops(structure)
    }
    # Without the mirror every product runs in full, and the deferred
    # regions tile the sequential sweep's rows × rows product.
    w = mesh_graph.weights.copy()
    w[0] += 2.0**-30
    nudged = mesh_graph.with_weights(w)
    full = parallel_superfw(nudged, backend="process", num_workers=2)
    assert {k: ops for k, (_, ops) in _counts(full).items()} == {
        k: ops for k, (_, ops) in _counts(superfw(nudged)).items()
    }


def test_process_backend_rejects_non_minplus(grid_graph):
    from repro.semiring import MAX_PLUS

    # The sweep is min-plus only; it has no semiring parameter to pass.
    with pytest.raises(TypeError, match="semiring"):
        parallel_superfw(grid_graph, backend="process", semiring=MAX_PLUS)


def test_unknown_backend_rejected(grid_graph):
    with pytest.raises(ValueError, match="backend"):
        parallel_superfw(grid_graph, backend="mpi")


# ---------------------------------------------------------------------------
# Fault propagation into workers
# ---------------------------------------------------------------------------


def test_fault_state_export_resolves_seed(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_SEED", "7")
    with inject_faults(FaultSpec(task_failure_rate=0.5)):
        spec, env = export_fault_state()
    assert spec.seed == 7  # resolved, not None
    assert env == "7"


def test_install_worker_faults_roundtrip():
    from repro.resilience.faults import active_injector

    spec = FaultSpec(seed=3, task_failure_rate=0.1)
    install_worker_faults(spec, "3")
    try:
        inj = active_injector()
        assert inj is not None and inj.spec.seed == 3
        assert os.environ["REPRO_FAULT_SEED"] == "3"
    finally:
        install_worker_faults(None, None)
        assert active_injector() is None
        assert "REPRO_FAULT_SEED" not in os.environ


def test_process_backend_recovers_injected_faults(mesh_graph):
    seq = superfw(mesh_graph)
    with inject_faults(FaultSpec(seed=0, task_failure_rate=0.2)):
        r = parallel_superfw(mesh_graph, backend="process", num_workers=2)
    assert np.array_equal(seq.dist, r.dist)
    assert r.meta["recovery"]["task_retries"] > 0


def test_process_backend_fault_determinism(grid_graph):
    """Same seed → identical retry counts, independent of scheduling."""
    counts = []
    for _ in range(2):
        with inject_faults(FaultSpec(seed=5, task_failure_rate=0.3)):
            r = parallel_superfw(grid_graph, backend="process", num_workers=2)
        counts.append(r.meta["recovery"]["task_retries"])
    assert counts[0] == counts[1] > 0


def test_process_backend_env_seed_propagates(grid_graph, monkeypatch):
    """A spec with seed=None must resolve against the *coordinator's* env."""
    monkeypatch.setenv("REPRO_FAULT_SEED", "2")
    seq = superfw(grid_graph)
    with inject_faults(FaultSpec(task_failure_rate=0.2)) as inj:
        assert inj.spec.resolved_seed() == 2
        r = parallel_superfw(grid_graph, backend="process", num_workers=2)
    assert np.array_equal(seq.dist, r.dist)
