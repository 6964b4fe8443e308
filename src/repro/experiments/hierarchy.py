"""The paper's concluding question, made measurable.

§7: *"there is a rich hierarchy of methods that trade off generality and
robustness for speed... Sparse Cholesky/LU is in the middle of that
spectrum.  For APSP, we do not yet fully understand what the analogous
hierarchy might look like."*

This runner lines up the hierarchy this library implements — dense FW,
blocked FW, SuperFW, hub labels from the min-plus factor (the
treewidth method of the paper's ref [33], :mod:`repro.serve.factor`), and
on-demand Dijkstra — and measures, per method, the one-off *build* cost, the cost
to *materialize* the full n² matrix, and the marginal cost of a *single
pair query*.  The interesting output is the break-even query count: below
it, the query-oriented end of the hierarchy wins; above it, the
factorization end does.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.core.blocked_fw import blocked_floyd_warshall
from repro.core.dense_fw import floyd_warshall
from repro.core.dijkstra import apsp_dijkstra, sssp_dijkstra
from repro.core.superfw import superfw
from repro.plan import APSPSession, analyze
from repro.experiments.common import format_table, print_header
from repro.graphs.suite import get_entry
from repro.serve import HubLabelIndex


def run_hierarchy(
    *,
    graph_name: str = "delaunay_n14",
    size_factor: float = 0.5,
    seed: int = 0,
    query_samples: int = 200,
    verbose: bool = True,
) -> dict[str, Any]:
    """Build/solve/query costs across the APSP method hierarchy."""
    graph = get_entry(graph_name).build(size_factor=size_factor, seed=seed)
    n = graph.n
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, size=(query_samples, 2))

    rows: list[dict[str, Any]] = []

    # Dense & blocked FW: no separate build; full matrix or nothing.
    for label, fn in (
        ("dense-fw", lambda: floyd_warshall(graph)),
        ("blocked-fw", lambda: blocked_floyd_warshall(graph)),
    ):
        t0 = time.perf_counter()
        fn()
        full = time.perf_counter() - t0
        rows.append(
            {"method": label, "build_s": 0.0, "full_matrix_s": full,
             "per_query_us": full / (n * n) * 1e6}
        )

    # SuperFW: plan is the build; sweep materializes the matrix.  The ND
    # plan is shared with the label index below so the comparison
    # isolates factorize-everything vs factorize-little-query-more.
    t0 = time.perf_counter()
    plan = analyze(graph, seed=seed)
    build = time.perf_counter() - t0
    t0 = time.perf_counter()
    superfw(graph, plan=plan)
    full = time.perf_counter() - t0
    rows.append(
        {"method": "superfw", "build_s": build, "full_matrix_s": full,
         "per_query_us": full / (n * n) * 1e6}
    )
    superfw_solve = full

    # Treewidth: the build is the hub-label index from the factor on the
    # shared plan; a query is one label join.
    t0 = time.perf_counter()
    index = HubLabelIndex.build(APSPSession(graph, plan=plan))
    tw_build = time.perf_counter() - t0
    answers = np.empty(query_samples)
    t0 = time.perf_counter()
    for k, (i, j) in enumerate(pairs):
        answers[k] = index.query_one(int(i), int(j))
    query = (time.perf_counter() - t0) / query_samples
    t0 = time.perf_counter()
    index.all_pairs()
    rows.append(
        {"method": "treewidth", "build_s": tw_build,
         "full_matrix_s": tw_build + time.perf_counter() - t0,
         "per_query_us": query * 1e6}
    )

    # Dijkstra: zero build; a query costs one SSSP row.
    t0 = time.perf_counter()
    srcs = np.unique(pairs[:, 0])[:20]
    for s in srcs:
        sssp_dijkstra(graph, int(s))
    dij_row = (time.perf_counter() - t0) / len(srcs)
    t0 = time.perf_counter()
    apsp_dijkstra(graph)
    dij_full = time.perf_counter() - t0
    rows.append(
        {"method": "dijkstra", "build_s": 0.0, "full_matrix_s": dij_full,
         "per_query_us": dij_row * 1e6}
    )

    # Break-even: with a shared plan, the treewidth route costs
    # tw_build + q·query while the SuperFW route costs superfw_solve for
    # every q.  q* below which the query-oriented method wins:
    breakeven_tw_vs_superfw = (
        max(superfw_solve - tw_build, 0.0) / query if query > 0 else np.inf
    )
    out = {
        "graph": graph_name,
        "n": n,
        "rows": rows,
        "query_us": query * 1e6,
        "query_pairs": pairs,
        "treewidth_answers": answers,
        "breakeven_queries_treewidth_vs_superfw": breakeven_tw_vs_superfw,
    }
    if verbose:
        print_header(
            f"Hierarchy of APSP methods on {graph_name} (n={n}) — paper §7"
        )
        print(format_table(rows))
        print(f"\ntreewidth queries: {query * 1e6:.1f} us each (label join)")
        print(
            f"break-even: treewidth wins below ~"
            f"{breakeven_tw_vs_superfw:.3g} queries, SuperFW above "
            f"(out of {n * n} possible pairs)"
        )
    return out
