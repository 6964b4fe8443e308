"""Why ordering matters: fill-in and work across vertex orderings.

Run:  python examples/ordering_explorer.py

Reproduces, interactively, the insight of paper §3.1/Fig. 3-4: the order
in which Floyd-Warshall eliminates vertices controls how quickly the
"infinite" entries of the distance matrix densify.  Nested dissection
keeps the supernodal factor sparse; BFS keeps some structure; a random
order destroys it.
"""

from __future__ import annotations

import numpy as np

from repro import generators, nested_dissection
from repro.core.superfw import superfw
from repro.plan import analyze
from repro.ordering.amd import minimum_degree_ordering
from repro.ordering.base import Ordering
from repro.ordering.bfs import bfs_ordering, rcm_ordering
from repro.symbolic.fill import symbolic_cholesky


def main() -> None:
    g = generators.grid2d(20, 20, seed=0)
    print(f"20x20 grid: n={g.n}, m={g.num_edges}\n")

    rng = np.random.default_rng(0)
    orderings = {
        "nested dissection": nested_dissection(g, seed=0).ordering,
        "minimum degree": minimum_degree_ordering(g),
        "reverse Cuthill-McKee": rcm_ordering(g),
        "BFS (SuperBFS)": bfs_ordering(g),
        "natural": Ordering(perm=np.arange(g.n), method="natural"),
        "random (worst case)": Ordering(perm=rng.permutation(g.n), method="random"),
    }

    print(f"{'ordering':24s} {'factor nnz':>10s} {'fill-in':>8s} {'superfw ops':>12s} {'vs dense':>9s}")
    dense_ops = 2 * g.n**3
    for name, ordering in orderings.items():
        sym = symbolic_cholesky(g, ordering.perm)
        plan = analyze(g, ordering=ordering)
        ops = superfw(g, plan=plan).ops.total
        print(f"{name:24s} {sym.nnz_factor:10d} {sym.fill_in:8d} "
              f"{ops:12.3g} {dense_ops / ops:8.1f}x")

    nd = nested_dissection(g, seed=0)
    print(f"\nND separator tree: height {nd.tree.height()}, "
          f"top separator {nd.top_separator_size} vertices")
    print("separator sizes by level:",
          [int(np.mean(lv)) for lv in nd.separator_sizes_by_level()])
    print("\n(the sqrt(n)-sized top separator is what turns O(n^3) into O(n^2.5))")


if __name__ == "__main__":
    main()
