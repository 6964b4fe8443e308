"""Work-depth simulator: task costs, LPT, makespans, scaling laws."""

import numpy as np
import pytest

from repro.plan import analyze
from repro.graphs.generators import grid2d
from repro.parallel.scheduler import (
    lpt_makespan,
    simulate_levels,
    simulate_sequence,
    speedup_curve,
    task_seconds,
)
from repro.parallel.tasks import (
    SimTask,
    delta_stepping_tasks,
    sssp_family_tasks,
    superfw_levels,
    supernode_costs,
)
from repro.plan.router import MachineModel


MODEL = MachineModel(ops_per_second=1e9, seconds_per_task=1e-6)


def test_lpt_single_processor_sums():
    assert lpt_makespan([3.0, 1.0, 2.0], 1) == 6.0


def test_lpt_perfect_split():
    assert lpt_makespan([2.0, 2.0, 2.0, 2.0], 2) == 4.0


def test_lpt_bounded_by_longest_task():
    assert lpt_makespan([10.0, 1.0, 1.0], 8) == 10.0


def test_lpt_empty():
    assert lpt_makespan([], 4) == 0.0


def test_task_time_brent_form():
    task = SimTask(work=1e6, depth=10)
    t1 = task_seconds(MODEL, task, 1)
    t4 = task_seconds(MODEL, task, 4)
    assert t1 == pytest.approx(10 * 1e-6 + 1e6 * 1e-9)
    assert t4 == pytest.approx(10 * 1e-6 + 1e6 * 1e-9 / 4)
    # Depth never parallelizes away.
    assert task_seconds(MODEL, task, 10**9) >= 10 * 1e-6


def test_simulate_levels_monotone_in_p(mesh_graph):
    plan = analyze(mesh_graph, seed=0)
    levels = superfw_levels(plan.structure)
    times = [simulate_levels(levels, p, MODEL) for p in (1, 2, 4, 8, 16)]
    assert all(a >= b for a, b in zip(times, times[1:]))


def test_simulate_sequence_ge_levels(mesh_graph):
    """Removing etree parallelism can only slow things down (p > 1).

    Priced on the router's machine, as Fig. 8 is: a level takes the
    better of LPT and running its tasks in turn on all ``p``, and the
    sequence is exactly the second, so the bound holds with no slack.
    """
    plan = analyze(mesh_graph, seed=0)
    levels = superfw_levels(plan.structure)
    flat = [t for lv in levels for t in lv]
    for p in (2, 8, 32):
        assert simulate_sequence(flat, p) >= simulate_levels(levels, p)


def test_cheap_dispatch_levels_never_lose_to_the_sequence(mesh_graph):
    # At 1e-6 s per task LPT's imbalance used to price this mesh's
    # levels above the sequence at p = 2 (0.000805 s vs 0.000780 s).
    plan = analyze(mesh_graph, seed=0)
    levels = superfw_levels(plan.structure)
    flat = [t for lv in levels for t in lv]
    for p in (2, 4, 8):
        assert simulate_levels(levels, p, MODEL) <= simulate_sequence(flat, p, MODEL)


def test_sequential_equals_levels_at_p1(mesh_graph):
    plan = analyze(mesh_graph, seed=0)
    levels = superfw_levels(plan.structure)
    flat = [t for lv in levels for t in lv]
    assert simulate_sequence(flat, 1, MODEL) == simulate_levels(levels, 1, MODEL)


def test_speedup_curve_shape():
    curve = speedup_curve(lambda p: 100.0 / min(p, 8), [1, 2, 8, 64])
    assert curve[1] == 1.0
    assert curve[2] == 2.0
    assert curve[64] == 8.0  # saturates


# ----------------------------------------------------------------------
# Task extraction
# ----------------------------------------------------------------------
def test_supernode_costs_positive(mesh_graph):
    plan = analyze(mesh_graph, seed=0)
    tasks = supernode_costs(plan.structure)
    assert len(tasks) == plan.structure.ns
    for s, task in enumerate(tasks):
        # One dispatch per elimination, as the router prices a sweep.
        assert task.work > 0 and task.depth == 1


def test_superfw_levels_cover_all_supernodes(mesh_graph):
    plan = analyze(mesh_graph, seed=0)
    levels = superfw_levels(plan.structure)
    assert sum(len(lv) for lv in levels) == plan.structure.ns


def test_superfw_structural_work_matches_runtime_ops(mesh_graph):
    """The simulator's static work model equals the executed op count."""
    from repro.core.superfw import superfw

    plan = analyze(mesh_graph, seed=0)
    result = superfw(mesh_graph, plan=plan)
    static = sum(t.work for lv in superfw_levels(plan.structure) for t in lv)
    assert static == pytest.approx(result.ops.total, rel=1e-12)


def test_sssp_tasks_one_per_source(grid_graph):
    tasks = sssp_family_tasks(grid_graph)
    assert len(tasks) == grid_graph.n
    assert all(t.depth == t.work for t in tasks)  # inherently sequential


def test_delta_tasks_use_measured_rounds(grid_graph):
    rounds = np.full(grid_graph.n, 17.0)
    tasks = delta_stepping_tasks(grid_graph, rounds)
    assert len(tasks) == grid_graph.n
    assert all(t.depth == 17.0 for t in tasks)


def test_proportional_share_when_tasks_fewer_than_procs():
    """With p > #tasks, processors split proportionally to work."""
    from repro.parallel.scheduler import simulate_level

    model = MachineModel(ops_per_second=1e9, seconds_per_task=0.0)
    tasks = [SimTask(work=9e6, depth=1), SimTask(work=1e6, depth=1)]
    t = simulate_level(tasks, 10, model)
    # Proportional shares: 9 and 1 processors -> both finish at 1e6*1e-9.
    assert t == pytest.approx(1e-3, rel=0.05)


def test_level_with_single_huge_task_uses_all_procs():
    from repro.parallel.scheduler import simulate_level

    model = MachineModel(ops_per_second=1e9, seconds_per_task=1e-6)
    task = SimTask(work=1e8, depth=100)
    t1 = simulate_level([task], 1, model)
    t16 = simulate_level([task], 16, model)
    assert t16 < t1
    assert t16 >= 100 * 1e-6  # depth floor survives


def test_empty_level_costs_nothing():
    from repro.parallel.scheduler import simulate_level

    assert simulate_level([], 8, MODEL) == 0.0


def test_dijkstra_scales_linearly_delta_does_not(grid_graph):
    dij = sssp_family_tasks(grid_graph)
    delta = delta_stepping_tasks(grid_graph, np.full(grid_graph.n, 200.0))
    model = MachineModel(ops_per_second=1e7, seconds_per_task=1e-5)
    dij_speedup = lpt_makespan([task_seconds(model, t, 1) for t in dij], 1) / lpt_makespan(
        [task_seconds(model, t, 1) for t in dij], 16
    )
    delta_speedup = simulate_sequence(delta, 1, model) / simulate_sequence(delta, 16, model)
    assert dij_speedup > 10
    assert delta_speedup < dij_speedup
