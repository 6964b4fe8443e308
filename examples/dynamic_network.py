"""Dynamic networks: the epoch-based batch write path vs recompute.

Run:  python examples/dynamic_network.py

The paper's related work (§6) recalls Carré's algebraic treatment of
graph updates (Sherman-Morrison-Woodbury over the semiring).  This
example maintains a live APSP matrix over a stream of edge reweights
through :class:`repro.APSPSession`'s batch API: each tick's updates are
staged with ``apply_updates`` and published atomically by ``commit()``,
which routes between an O(n²·k) rank-k min-plus fold (all-decrease
batches) and a warm SuperFW re-solve on the cached plan — while readers
always see a fully published epoch.  A second session replays the same
stream one edge at a time through ``update_edge`` (a one-element commit:
one fold or one re-solve per edge) and must end bit-identical.
"""

from __future__ import annotations

import time

import numpy as np

from repro import APSPSession, generators, superfw
from repro.core.incremental import quantize_weights, reweight_stream

TICKS = 8
PER_TICK = 12


def main() -> None:
    g = quantize_weights(generators.random_geometric(500, dim=2, avg_degree=8, seed=3))
    print(f"network: n={g.n}, m={g.num_edges}")

    # One synthetic "day" of traffic: TICKS batches of PER_TICK reweights,
    # ~30% of them slowdowns.  Weights stay dyadic so every epoch is
    # bit-identical to a from-scratch solve at that epoch's weights.
    ticks = list(
        reweight_stream(g, ticks=TICKS, per_tick=PER_TICK, p_increase=0.3, seed=0)
    )

    session = APSPSession(g, seed=0)
    session.solve()
    print(f"initial solve published epoch {session.epoch.index}")

    t0 = time.perf_counter()
    for tick in ticks:
        session.apply_updates(tick)
        info = session.commit()
        print(
            f"  tick -> {info.decision:8s} k={info.k:2d} "
            f"(+{info.increases} slowdowns) in {info.actual_seconds * 1e3:6.1f} ms"
        )
    t_batched = time.perf_counter() - t0
    n_updates = sum(len(t) for t in ticks)
    print(
        f"batched: {n_updates} updates in {TICKS} commits, "
        f"{t_batched * 1e3:.0f} ms total "
        f"({n_updates / t_batched:.0f} updates/s)"
    )

    # Every published epoch is exact: bit-identical to solving from
    # scratch at the final weights.
    reference = superfw(session.graph, seed=0)
    assert np.array_equal(np.asarray(session.dist), reference.dist)
    print("final epoch bit-identical to a from-scratch solve: True")

    # The same stream, one edge at a time through a second session
    # (one fold per speed-up; every slowdown pays a full warm re-solve).
    per_edge = APSPSession(g, seed=0)
    per_edge.solve()
    t0 = time.perf_counter()
    for tick in ticks:
        for u, v, w in tick:
            per_edge.update_edge(u, v, w)
    t_per_edge = time.perf_counter() - t0
    print(
        f"per-edge: {n_updates} updates, {t_per_edge * 1e3:.0f} ms total "
        f"({per_edge.fast_updates} folds + {per_edge.recomputes} re-solves) "
        f"-> batching is {t_per_edge / t_batched:.1f}x faster"
    )
    assert np.array_equal(np.asarray(per_edge.dist), np.asarray(session.dist))

    # Readers never block and never see a half-written matrix: the
    # published epoch is immutable (copy-on-write), so a snapshot taken
    # before a commit stays valid after it.
    before = session.dist
    session.apply_updates([(int(e[0]), int(e[1]), float(e[2]) * 0.5)
                           for e in session.graph.edge_array()[:3]])
    info = session.commit()
    after = session.dist
    assert before is not after and not before.flags.writeable
    print(
        f"\ncommit #{info.epoch_index} ({info.decision}) published a new "
        f"epoch; the pre-commit snapshot is untouched and read-only"
    )
    print(f"session stats: {session.stats()['commits']} commits, "
          f"{session.fast_updates} folds, {session.recomputes} re-solves")


if __name__ == "__main__":
    main()
