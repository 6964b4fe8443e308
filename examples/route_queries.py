"""Few queries, big graph: the query-oriented end of the hierarchy.

Run:  python examples/route_queries.py

When only a handful of pairs matter, materializing the full n² matrix is
wasted work.  The DPC/P3C + hub-label solver (paper reference [33],
`repro.core.treewidth`) factorizes in O(n·tw²), builds hub labels lazily,
and answers an arbitrary pair in label-join time — the concrete answer to
the paper's closing question about the APSP "hierarchy of methods".
When *many* clients query concurrently, the serving tier (`repro.serve`)
adds the third regime: a 2-hop hub-label index built from the same
supernodal factor SuperFW sweeps (no n² matrix), served batched behind
a `DistanceServer` and rebuilt from every epoch a commit publishes.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro import DistanceServer, analyze, generators, superfw
from repro.core.treewidth import TreewidthAPSP


def main() -> None:
    g = generators.road_network_like(1500, seed=21)
    print(f"road network: n={g.n}, m={g.num_edges}")

    # Route A: factorize everything (SuperFW), then reads are free.
    t0 = time.perf_counter()
    plan = analyze(g, seed=0)
    full = superfw(g, plan=plan)
    t_full = time.perf_counter() - t0
    print(f"\nSuperFW (full matrix): {t_full:.2f}s for all "
          f"{g.n * g.n:,} pairs")

    # Route B: factorize the fill only, answer queries on demand.
    t0 = time.perf_counter()
    tw = TreewidthAPSP(g, ordering=plan.ordering)  # share the ND ordering
    t_build = time.perf_counter() - t0
    print(f"treewidth solver build (DPC/P3C): {t_build:.3f}s "
          f"(width {tw.width})")

    rng = np.random.default_rng(0)
    queries = [(int(a), int(b)) for a, b in rng.integers(0, g.n, (10, 2))]
    t0 = time.perf_counter()
    answers = [tw.query(i, j) for i, j in queries]
    t_q = time.perf_counter() - t0
    print(f"10 point-to-point queries: {t_q * 1e3:.1f} ms total")
    for (i, j), d in zip(queries[:3], answers[:3]):
        print(f"  dist({i}, {j}) = {d:.4f}  "
              f"(full matrix says {full.dist[i, j]:.4f})")
    assert all(
        np.isclose(d, full.dist[i, j]) for (i, j), d in zip(queries, answers)
    )

    # One full SSSP row from the factor: the min-plus triangular solve.
    t0 = time.perf_counter()
    row = tw.distances_from(0)
    t_row = time.perf_counter() - t0
    assert np.allclose(row, full.dist[0])
    print(f"one SSSP row from the factor: {t_row * 1e3:.1f} ms "
          f"(vs {t_full / g.n * 1e3:.1f} ms amortized in the full solve)")

    # Route C: serve *many* queries — the DistanceServer reduces the
    # road graph (its default reduce="auto" keeps a reduction that
    # removes most vertices in shallow trees), builds a 2-hop hub-label
    # index straight from the factor of the reduced core (no solve, no
    # n² matrix; eliminated vertices hang off the etree as chain-suffix
    # leaves) and answers whole batches with a few vectorized passes.
    t0 = time.perf_counter()
    server = DistanceServer(g)
    index = server.refresh()
    t_index = time.perf_counter() - t0
    sizes = index.label_sizes()
    print(f"\nDistanceServer index: {index.entries} label entries "
          f"(mean width {sizes.mean():.1f}, {index.trail_events} trail "
          f"vertices) built from the {index.source} in {t_index:.2f}s")

    n_q = 100_000
    sources = rng.integers(0, g.n, n_q)
    targets = rng.integers(0, g.n, n_q)
    t0 = time.perf_counter()
    batched = server.query_many(sources, targets)
    t_batch = time.perf_counter() - t0
    assert np.allclose(batched, full.dist[sources, targets])
    print(f"{n_q:,} batched queries: {t_batch * 1e3:.1f} ms "
          f"({n_q / t_batch:,.0f} queries/s), all matching the matrix")

    # Async callers get the same batching transparently: concurrent
    # aquery() awaiters coalesce into a handful of vectorized batches.
    async def fan_in():
        return await asyncio.gather(
            *(server.aquery(i, j) for i, j in queries)
        )

    async_answers = asyncio.run(fan_in())
    assert np.allclose(async_answers, answers)
    print(f"async micro-batching: {len(queries)} aquery() awaiters -> "
          f"{server.batches - 1} extra batch(es)")

    # The server composes with the epoch write path: a commit on the
    # underlying session atomically invalidates index + result cache.
    edges = server.session.graph.edge_array()
    u, v, w = int(edges[0][0]), int(edges[0][1]), float(edges[0][2])
    server.session.apply_updates([(u, v, w * 0.5)])
    server.session.commit()
    fresh = superfw(server.session.graph, seed=0)
    assert np.isclose(server.query(u, v), fresh.dist[u, v])
    print(f"after a commit: index rebuilt (rebuilds={server.rebuilds}), "
          "answers track the new epoch")
    server.close()

    print("\nrule of thumb: few queries -> treewidth labels; "
          "everything -> SuperFW; many point queries -> DistanceServer "
          "(also behind `python -m repro query ... --random K --verify`); "
          "the break-even is printed by "
          "`python -m repro experiment hierarchy`.")


if __name__ == "__main__":
    main()
