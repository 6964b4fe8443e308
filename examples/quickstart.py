"""Quickstart: all-pairs shortest paths with the supernodal Floyd-Warshall.

Run:  python examples/quickstart.py

Covers the 60-second tour of the public API: build a graph, solve APSP
with SuperFW, inspect the plan (ordering + supernodal structure), compare
against a baseline, and reconstruct an actual path.  Starts with the exact
6-vertex example of the paper's Fig. 1.
"""

from __future__ import annotations

import numpy as np

from repro import Graph, PathOracle, apsp, generators


def figure1_example() -> None:
    """The worked example of the paper's Fig. 1."""
    print("=== Paper Fig. 1: six vertices ===")
    edges = [
        (0, 1, 0.3),
        (1, 2, 0.2),
        (1, 3, 0.2),
        (0, 4, 0.6),
        (0, 5, 0.6),
    ]
    g = Graph.from_edges(6, edges)
    print("initial Dist (inf = no path discovered yet):")
    print(np.array_str(g.to_dense_dist(), precision=1))
    result = apsp(g, method="dense-fw")
    print("final Dist after Floyd-Warshall:")
    print(np.array_str(result.dist, precision=1))


def superfw_tour() -> None:
    print("\n=== SuperFW on a random geometric graph ===")
    g = generators.random_geometric(600, dim=2, avg_degree=8, seed=42)
    print(f"graph: n={g.n}, m={g.num_edges}, avg degree={g.density:.1f}")

    result = apsp(g, method="superfw", seed=0)
    plan = result.meta["plan"]
    print(f"ordering: {plan.ordering.method}")
    print(f"supernodes: {plan.structure.ns} "
          f"(largest {plan.structure.stats()['max_block']} columns)")
    print(f"etree levels: {plan.structure.stats()['tree_levels']}")
    print(f"scalar semiring ops: {result.ops.total:.3g} "
          f"(dense FW would need {2 * g.n**3:.3g})")
    print(f"solve time: {result.solve_seconds() * 1e3:.1f} ms "
          f"(+ {plan.preprocessing_seconds() * 1e3:.1f} ms one-off planning)")

    # Cross-check one row against Dijkstra.
    baseline = apsp(g, method="dijkstra")
    assert np.allclose(result.dist, baseline.dist)
    print("matches Dijkstra:", np.allclose(result.dist, baseline.dist))

    # Reconstruct a concrete shortest path.
    oracle = PathOracle(g, result.dist)
    far = np.unravel_index(
        np.argmax(np.where(np.isfinite(result.dist), result.dist, -1)),
        result.dist.shape,
    )
    a, b = int(far[0]), int(far[1])
    path = oracle.path(a, b)
    print(f"diameter pair ({a}, {b}): distance {result.dist[a, b]:.3f}, "
          f"{len(path) - 1} hops")


if __name__ == "__main__":
    figure1_example()
    superfw_tour()
