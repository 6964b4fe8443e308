"""Road-network APSP: the paper's flagship use case.

Run:  python examples/road_network.py

Planar road networks have O(sqrt n) separators, so SuperFW's
O(n^2 sqrt(n)) work competes with Dijkstra's O(n^2 log n + nm) while using
cache-friendly blocked kernels (paper §5.2.2, luxembourg_osm).  This
example builds a synthetic road network, runs both, and answers routing
queries — including how the one-off SuperFW *plan* amortizes across
re-weighting (e.g. traffic updates).
"""

from __future__ import annotations

import time

import numpy as np

from repro import PathOracle, analyze, apsp, generators, superfw


def main() -> None:
    g = generators.road_network_like(900, seed=7)
    print(f"road network: n={g.n}, m={g.num_edges} "
          f"(avg degree {g.density:.2f} — mostly chains, few junctions)")

    t0 = time.perf_counter()
    plan = analyze(g, seed=0)
    t_plan = time.perf_counter() - t0
    nd = plan.nd
    print(f"top separator: {nd.top_separator_size} vertices "
          f"(n/|S| = {g.n / nd.top_separator_size:.0f}) — "
          "small separators are why SuperFW wins here")

    sup = superfw(g, plan=plan)
    dij = apsp(g, method="dijkstra")
    assert np.allclose(sup.dist, dij.dist)
    print(f"SuperFW solve: {sup.solve_seconds() * 1e3:7.1f} ms "
          f"(+ {t_plan * 1e3:.0f} ms planning, reusable)")
    print(f"Dijkstra:      {dij.solve_seconds() * 1e3:7.1f} ms")

    # Routing queries from the finished distance matrix.
    oracle = PathOracle(g, sup.dist)
    rng = np.random.default_rng(0)
    print("\nsample routes:")
    for _ in range(3):
        a, b = (int(x) for x in rng.integers(0, g.n, size=2))
        path = oracle.path(a, b)
        print(f"  {a:4d} -> {b:4d}: {sup.dist[a, b]:.3f} via {len(path) - 1} road segments")

    # Traffic update: same road topology, new travel times.  The symbolic
    # plan depends only on the pattern, so it is reused as-is — the sparse
    # direct solver idiom of one analysis, many factorizations.
    rng = np.random.default_rng(99)
    congested = g.with_weights(g.weights * rng.uniform(1.0, 3.0))
    # Note: scaling factors must stay symmetric; with_weights checks this.
    t0 = time.perf_counter()
    plan2 = analyze(congested, ordering=plan.ordering)  # reuse the ND order
    rush_hour = superfw(congested, plan=plan2)
    t_update = time.perf_counter() - t0
    slower = (rush_hour.dist[np.isfinite(rush_hour.dist)]
              >= sup.dist[np.isfinite(sup.dist)] - 1e-9).mean()
    print(f"\ntraffic re-solve with reused ordering: {t_update * 1e3:.0f} ms; "
          f"{slower * 100:.0f}% of pairs got slower (sanity: weights only grew)")


if __name__ == "__main__":
    main()
