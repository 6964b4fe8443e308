"""Few queries, big graph: the query-oriented end of the hierarchy.

Run:  python examples/route_queries.py

When only a handful of pairs matter, materializing the full n² matrix is
wasted work.  The serving tier (`repro.serve`) builds 2-hop hub labels
straight from the supernodal min-plus factor (the treewidth method of
the paper's reference [33]; no solve, no n² matrix) and answers an
arbitrary pair in label-join time — the concrete answer to the paper's
closing question about the APSP "hierarchy of methods".  The same
`DistanceServer` also answers whole batches with a few vectorized
passes, serves async callers, and rebuilds from every epoch a commit
publishes.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro import DistanceServer, analyze, generators, superfw


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

    # Route B: serve from the factor — the DistanceServer reduces the
    # road graph (its default reduce="auto" keeps a reduction that
    # removes most vertices in shallow trees), builds a 2-hop hub-label
    # index from the factor of the reduced core (eliminated vertices
    # hang off the etree as chain-suffix leaves) and answers on demand.
    t0 = time.perf_counter()
    server = DistanceServer(g)
    index = server.refresh()
    t_index = time.perf_counter() - t0
    sizes = index.label_sizes()
    print(f"DistanceServer index: {index.entries} label entries "
          f"(mean width {sizes.mean():.1f}, {index.trail_events} trail "
          f"vertices) built from the {index.source} in {t_index:.3f}s")

    rng = np.random.default_rng(0)
    queries = [(int(a), int(b)) for a, b in rng.integers(0, g.n, (10, 2))]
    t0 = time.perf_counter()
    answers = [server.query(i, j) for i, j in queries]
    t_q = time.perf_counter() - t0
    print(f"10 point-to-point queries: {t_q * 1e3:.1f} ms total")
    for (i, j), d in zip(queries[:3], answers[:3]):
        print(f"  dist({i}, {j}) = {d:.4f}  "
              f"(full matrix says {full.dist[i, j]:.4f})")
    assert all(
        np.isclose(d, full.dist[i, j]) for (i, j), d in zip(queries, answers)
    )

    # One full SSSP row: one batch of the pairs (0, t) for every t.
    t0 = time.perf_counter()
    row = server.query_many(np.zeros(g.n, dtype=np.int64), np.arange(g.n))
    t_row = time.perf_counter() - t0
    assert np.allclose(row, full.dist[0])
    print(f"one SSSP row from the labels: {t_row * 1e3:.1f} ms "
          f"(vs {t_full / g.n * 1e3:.1f} ms amortized in the full solve)")

    # Route C: serve *many* queries in vectorized batches.
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

    batches = server.batches
    async_answers = asyncio.run(fan_in())
    assert np.allclose(async_answers, answers)
    print(f"async micro-batching: {len(queries)} aquery() awaiters -> "
          f"{server.batches - batches} batch(es)")

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

    print("\nrule of thumb: point queries or batches -> DistanceServer "
          "labels from the factor (also behind `python -m repro query ... "
          "--random K --verify`); everything -> SuperFW; the break-even "
          "is printed by `python -m repro experiment hierarchy`.")


if __name__ == "__main__":
    main()
