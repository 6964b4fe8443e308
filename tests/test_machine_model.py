"""One machine model prices the router, the merge rule and the simulator.

:class:`repro.plan.router.MachineModel` turns op counts into seconds for
the update router, ``ordering="auto"``, the supernode amalgamation and
the Figs. 7–8 scaling simulator.  On one processor the simulator's
makespan *is* the router's sweep price, and the plans, picks and
forecasts priced through the model are pinned to recorded values, so a
change to the model's arithmetic that moves any of them fails here.
"""

import hashlib

import numpy as np
import pytest

from repro.parallel.scheduler import simulate_levels
from repro.parallel.tasks import superfw_levels
from repro.parallel.workdepth import superfw_measured_depth
from repro.plan.plan import analyze
from repro.plan.router import DEFAULT_MACHINE, UpdateRouter, sweep_seconds
from repro.symbolic.structure import superfw_snode_ops

from test_cost_law import FIXTURES

#: sha256 prefix of each fixture plan's ``perm`` and ``snode_ptr``.
PLAN_DIGESTS = {
    "digraph": "1e1c3bab223eb9db",
    "empty": "af5570f5a1810b7a",
    "forest": "35df6ad282d94951",
    "mesh-amd": "f1c80761b0a02880",
    "mesh-nd": "f5cc138cdbf9365b",
    "no-relax": "859c74c1189b252c",
    "reduce": "50c18a145043c61a",
    "reduce-digraph": "112ef928fb01169a",
    "reduce-directed-0": "140b00c2ca4d6069",
    "reduce-directed-1": "0ec524d1c586fb2e",
    "reduce-directed-2": "f774e7ae2bc57260",
    "reduce-directed-disconnected-0": "6736ce22efb7bc50",
    "reduce-directed-disconnected-1": "f898e93f51b9334d",
    "reduce-directed-disconnected-2": "467d853d46dd1455",
    "reduce-directed-negative-0": "140b00c2ca4d6069",
    "reduce-directed-negative-1": "0ec524d1c586fb2e",
    "reduce-directed-negative-2": "f774e7ae2bc57260",
    "reduce-power-grid": "91c45597e99850e5",
    "reduce-road": "3ae52e9bf1d05dd1",
}

#: Per pinned fixture — two whose per-task sum rounds differently from
#: the sweep price — Table 2's measured depth (kernel steps), the
#: router's forecast for a 5-terminal decrease batch, and the
#: ``ordering="auto"`` pick, its plan digest and each candidate's
#: modeled seconds.
PINNED = {
    "mesh-amd": {
        "depth": 213.0,
        "router": ("fold", {"fold": "0x1.e4c51116a8b8fp-11",
                            "resolve": "0x1.f8aba2db8cae2p-8"}),
        "auto": ("nd", "f5cc138cdbf9365b",
                 {"nd": "0x1.8029b0fe65204p-8",
                  "amd": "0x1.f8aba2db8cae2p-8"}),
    },
    "reduce-power-grid": {
        "depth": 180.0,
        "router": ("resolve", {"fold": "0x1.c7e52157689cap-6",
                               "resolve": "0x1.7e8bf719a770fp-7"}),
        "auto": ("nd", "91c45597e99850e5",
                 {"nd": "0x1.7e8bf719a770fp-7",
                  "amd": "0x1.045902d094d86p-5"}),
    },
}


def _digest(plan) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(plan.ordering.perm, dtype=np.int64).tobytes())
    h.update(np.asarray(plan.structure.snode_ptr, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def _plan(name: str):
    build, options = FIXTURES[name]
    g = build()
    return g, analyze(g, seed=0, **options)


def _decide(g, plan):
    """The router's forecast for a 5-terminal batch of decreases."""
    return UpdateRouter(plan).decide(
        n=g.n, k=3, terminals=5, increases=0, inserts=0,
        have_epoch=True, have_plan=True,
    )


def test_every_fixture_is_pinned():
    assert sorted(PLAN_DIGESTS) == sorted(FIXTURES)


@pytest.mark.parametrize("name", sorted(PLAN_DIGESTS))
def test_amalgamated_plan_is_pinned(name):
    assert _digest(_plan(name)[1]) == PLAN_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_simulator_on_one_processor_is_the_sweep_price(name):
    g, plan = _plan(name)
    structure = plan.structure
    ops = float(superfw_snode_ops(structure).sum())
    price = sweep_seconds(ops, structure.ns, DEFAULT_MACHINE.ops_per_second)
    levels = superfw_levels(structure)
    assert simulate_levels(levels, 1, DEFAULT_MACHINE) == price
    assert _decide(g, plan).predicted_seconds["resolve"] == price


@pytest.mark.parametrize("name", sorted(PINNED))
def test_measured_depth_is_pinned(name):
    assert superfw_measured_depth(_plan(name)[1].structure) == PINNED[name]["depth"]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_router_forecast_is_pinned(name):
    decision = _decide(*_plan(name))
    action, seconds = PINNED[name]["router"]
    assert decision.action == action
    assert {k: v.hex() for k, v in decision.predicted_seconds.items()} == seconds


@pytest.mark.parametrize("name", sorted(PINNED))
def test_auto_pick_is_pinned(name):
    build, options = FIXTURES[name]
    plan = analyze(build(), seed=0, **{**options, "ordering": "auto"})
    picked, digest, seconds = PINNED[name]["auto"]
    assert plan.score_report["picked"] == picked
    assert _digest(plan) == digest
    assert {
        k: v["modeled_seconds"].hex()
        for k, v in plan.score_report["candidates"].items()
    } == seconds
