"""Nested dissection: permutation validity, tree structure, separator sizes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.graphs.generators import (
    barabasi_albert,
    delaunay_mesh,
    grid2d,
    power_grid_like,
    road_network_like,
)
from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph
from repro.ordering.nested_dissection import nested_dissection
from repro.ordering.reduce import build_trail
from repro.plan import analyze
from repro.symbolic.fill import symbolic_cholesky
from repro.symbolic.structure import build_structure, superfw_snode_ops
from repro.util.perm import check_permutation

from test_cost_law import FIXTURES as COST_LAW_FIXTURES
from test_graph import edge_list_subgraph


def test_perm_is_valid(any_graph):
    nd = nested_dissection(any_graph, seed=0)
    check_permutation(nd.perm, any_graph.n)


def test_tree_ranges_partition_the_ordering():
    g = grid2d(12, 12, seed=0)
    nd = nested_dissection(g, leaf_size=10, seed=0)

    def visit(node):
        if node.is_leaf:
            assert node.sep_size == node.size
            return
        pos = node.lo
        for child in node.children:
            assert child.lo == pos
            pos = child.hi
            visit(child)
        assert pos + node.sep_size == node.hi

    visit(nd.tree)
    assert nd.tree.lo == 0 and nd.tree.hi == g.n


def test_separator_positions_are_last():
    """Separator vertices get the highest indices of their subtree range."""
    g = grid2d(10, 10, seed=0)
    nd = nested_dissection(g, leaf_size=8, seed=0)
    node = nd.tree
    assert not node.is_leaf
    sep_positions = range(node.hi - node.sep_size, node.hi)
    sep_vertices = nd.perm[list(sep_positions)]
    # Removing those vertices must disconnect the two children ranges.
    left = set(nd.perm[node.children[0].lo : node.children[0].hi].tolist())
    right = set(nd.perm[node.children[1].lo : node.children[1].hi].tolist())
    sep = set(sep_vertices.tolist())
    for u, v, _ in g.edge_array():
        u, v = int(u), int(v)
        if u in sep or v in sep:
            continue
        assert not (u in left and v in right)
        assert not (u in right and v in left)


def test_grid_top_separator_near_optimal():
    g = grid2d(16, 16, seed=0)
    nd = nested_dissection(g, seed=0)
    assert nd.top_separator_size <= 2 * 16  # optimal is 16


def test_separator_growth_matches_planarity():
    """S(n) for grids should grow like sqrt(n), not linearly."""
    sizes = {}
    for side in (8, 16):
        nd = nested_dissection(grid2d(side, side, seed=0), seed=0)
        sizes[side] = nd.top_separator_size
    assert sizes[16] <= 3.5 * sizes[8]  # sqrt(4x) = 2x, with slack


def test_expander_degenerates_gracefully():
    g = barabasi_albert(200, 8, seed=0)
    nd = nested_dissection(g, seed=0)
    check_permutation(nd.perm, g.n)
    # Bad separators expected: n/|S| close to 1.
    assert nd.top_separator_size > g.n // 10


def test_leaf_size_respected():
    g = delaunay_mesh(300, seed=1)
    nd = nested_dissection(g, leaf_size=16, seed=0)
    for node in nd.tree.iter_nodes():
        if node.is_leaf:
            assert node.size <= max(16, nd.top_separator_size)


def test_disconnected_graph_handled():
    g = Graph.from_edges(
        8,
        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (4, 5, 1.0), (5, 6, 1.0), (6, 7, 1.0)],
    )
    nd = nested_dissection(g, leaf_size=2, seed=0)
    check_permutation(nd.perm, 8)


def test_deterministic():
    g = power_grid_like(200, seed=3)
    a = nested_dissection(g, seed=7)
    b = nested_dissection(g, seed=7)
    assert np.array_equal(a.perm, b.perm)


def test_separator_sizes_by_level_shape():
    g = grid2d(12, 12, seed=0)
    nd = nested_dissection(g, leaf_size=8, seed=0)
    levels = nd.separator_sizes_by_level()
    assert len(levels) == nd.tree.height() + 1
    assert levels[0] == [nd.tree.sep_size]
    # Deeper separators are smaller on planar graphs (on average).
    assert np.mean(levels[-2]) <= nd.tree.sep_size if len(levels) > 2 else True


def test_stats_recorded():
    g = grid2d(8, 8, seed=0)
    nd = nested_dissection(g, leaf_size=8, seed=0)
    assert nd.ordering.method == "nd"
    assert nd.ordering.stats["tree_height"] == nd.tree.height()


def test_custom_bisector_used():
    calls = []

    def silly_bisector(sub, ids):
        calls.append(len(ids))
        return (np.arange(sub.n) >= sub.n // 2).astype(np.int8)

    g = grid2d(8, 8, seed=0)
    nested_dissection(g, leaf_size=8, seed=0, bisector=silly_bisector)
    assert calls and calls[0] == 64


def _nd_pattern(build, options) -> Graph:
    """The graph ``analyze`` hands to nested dissection for a fixture."""
    g = build()
    if options.get("reduce"):
        trail = build_trail(g)
        if trail.n_eliminated:
            return trail.reduced_pattern(g)
    return g.symmetrized() if isinstance(g, DiGraph) else g


@pytest.mark.parametrize("name", sorted(COST_LAW_FIXTURES))
def test_permutations_identical_with_edge_list_subgraph(name, monkeypatch):
    pattern = _nd_pattern(*COST_LAW_FIXTURES[name])
    new = nested_dissection(pattern, seed=0)
    monkeypatch.setattr(Graph, "subgraph", edge_list_subgraph)
    old = nested_dissection(pattern, seed=0)
    assert new.perm.dtype == old.perm.dtype
    assert new.perm.tobytes() == old.perm.tobytes()
    assert new.separator_sizes_by_level() == old.separator_sizes_by_level()


#: Exact-law sweep ops of each default plan's ordering on its merge-free
#: structure (fundamental supernodes), measured with the BFS-only initial
#: partition.  The cost-law amalgamation trades ops for fewer blocks, so
#: the ceiling reads the structure before it: a partitioner change that
#: worsens nested dissection fails here, whatever the merge does.
ND_OPS_CEILING = {
    "mesh": (lambda: delaunay_mesh(160, seed=1), 1_366_274),
    "social": (lambda: barabasi_albert(256, 3, seed=0), 11_285_878),
    "power-grid": (lambda: power_grid_like(300, seed=4), 1_818_576),
    "road": (lambda: road_network_like(300, seed=2), 650_846),
    "grid": (lambda: grid2d(16, 16, seed=0), 4_620_814),
}


@pytest.mark.parametrize("name", sorted(ND_OPS_CEILING))
def test_nd_plan_ops_do_not_exceed_ceiling(name):
    build, ceiling = ND_OPS_CEILING[name]
    plan = analyze(build(), seed=0)
    merge_free = build_structure(
        symbolic_cholesky(plan.pattern, plan.ordering.perm)
    )
    assert int(superfw_snode_ops(merge_free).sum()) <= ceiling


def test_analyze_runs_no_eigensolver():
    # The initial partition is BFS region growing plus FM only: a cold
    # analyze never imports an eigensolver.
    code = (
        "import sys\n"
        "from repro.graphs.generators import grid2d\n"
        "from repro.plan import analyze\n"
        "analyze(grid2d(24, 24, seed=0), ordering='auto', reduce=True)\n"
        "assert 'scipy.sparse.linalg' not in sys.modules\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    subprocess.run([sys.executable, "-c", code], check=True, env=env,
                   timeout=120)
