"""Distributed communication-volume models."""

import numpy as np
import pytest

from repro.plan import analyze
from repro.graphs.generators import barabasi_albert, grid2d
from repro.parallel.communication import (
    _depths_from_root,
    blockedfw_comm_volume,
    communication_table,
    superfw_comm_volume,
)


def test_blockedfw_formula():
    assert blockedfw_comm_volume(100, 1) == 0.0
    assert blockedfw_comm_volume(100, 4) == pytest.approx(2 * 100 * 100 / 2)
    # Volume per processor shrinks like 1/sqrt(p).
    assert blockedfw_comm_volume(100, 16) == blockedfw_comm_volume(100, 4) / 2


def test_depths_root_zero(grid_graph):
    plan = analyze(grid_graph, seed=0)
    depth = _depths_from_root(plan.structure)
    roots = np.flatnonzero(plan.structure.parent == -1)
    assert np.all(depth[roots] == 0)
    for s in range(plan.structure.ns):
        p = plan.structure.parent[s]
        if p >= 0:
            assert depth[s] == depth[p] + 1


def test_single_processor_communicates_nothing(grid_graph):
    plan = analyze(grid_graph, seed=0)
    assert superfw_comm_volume(plan.structure, 1) == 0.0


def test_volume_shape_over_p(grid_graph):
    """Volume first grows (more etree levels cross processor boundaries),
    then decays like 1/sqrt(p) once every level communicates."""
    plan = analyze(grid_graph, seed=0)
    v2 = superfw_comm_volume(plan.structure, 2)
    v16 = superfw_comm_volume(plan.structure, 16)
    assert 0 < v2 < v16  # engaging deeper levels adds traffic
    nlevels = int(plan.structure.levels.max()) + 1
    saturated = 4 ** (nlevels + 1)
    assert superfw_comm_volume(plan.structure, 4 * saturated) == pytest.approx(
        superfw_comm_volume(plan.structure, saturated) / 2
    )


def test_mesh_beats_dense_communication():
    g = grid2d(16, 16, seed=0)
    plan = analyze(g, seed=0)
    for p in (4, 16, 64):
        assert superfw_comm_volume(plan.structure, p) < blockedfw_comm_volume(g.n, p)


def test_expander_advantage_smaller_than_mesh():
    mesh = grid2d(16, 16, seed=0)
    exp = barabasi_albert(256, 8, seed=0)
    pm = analyze(mesh, seed=0)
    pe = analyze(exp, seed=0)
    ratio_mesh = blockedfw_comm_volume(256, 16) / superfw_comm_volume(pm.structure, 16)
    ratio_exp = blockedfw_comm_volume(256, 16) / max(
        superfw_comm_volume(pe.structure, 16), 1e-9
    )
    # The expander's supernodal structure degenerates toward one root
    # supernode, whose broadcast volume approaches the dense bound — but
    # never exceeds meshes' savings.
    assert ratio_mesh > 1.5
    assert ratio_mesh > ratio_exp * 0.5  # mesh at least comparable


def test_communication_table_rows(grid_graph):
    plan = analyze(grid_graph, seed=0)
    rows = communication_table(plan.structure, grid_graph.n, [4, 16])
    assert [r["p"] for r in rows] == [4, 16]
    for row in rows:
        assert row["reduction_x"] > 0


# ----------------------------------------------------------------------
# α-β distributed time model
# ----------------------------------------------------------------------
def test_distributed_time_p1_is_pure_compute(grid_graph):
    from repro.parallel.communication import (
        blockedfw_distributed_time,
        superfw_distributed_time,
    )
    from repro.parallel.workdepth import superfw_measured_work

    c = 1e-9
    n = grid_graph.n
    assert blockedfw_distributed_time(n, 1, seconds_per_op=c) == pytest.approx(
        2 * n**3 * c
    )
    plan = analyze(grid_graph, seed=0)
    t1 = superfw_distributed_time(plan.structure, 1, seconds_per_op=c)
    # At p=1 subtrees still "overlap" per-level in the model (no comm),
    # so t1 lower-bounds the sequential work and stays within it.
    assert 0 < t1 <= superfw_measured_work(plan.structure) * c * 1.01


def test_blockedfw_hits_latency_floor():
    from repro.parallel.communication import blockedfw_distributed_time

    c = 1e-9
    n = 512
    times = [
        blockedfw_distributed_time(n, p, seconds_per_op=c)
        for p in (1, 16, 256, 4096, 65536)
    ]
    # Initially scales, eventually latency-bound: n * alpha * log2(p) grows.
    assert times[1] < times[0]
    assert times[4] > times[3]  # over-decomposition hurts


def test_superfw_advantage_grows_with_p(mesh_graph):
    from repro.parallel.communication import (
        blockedfw_distributed_time,
        superfw_distributed_time,
    )

    c = 6e-10
    plan = analyze(mesh_graph, seed=0)
    ratios = [
        blockedfw_distributed_time(mesh_graph.n, p, seconds_per_op=c)
        / superfw_distributed_time(plan.structure, p, seconds_per_op=c)
        for p in (16, 1024)
    ]
    assert ratios[1] > ratios[0]  # communication-avoiding pays more at scale
