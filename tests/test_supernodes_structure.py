"""Supernode detection, cost-law amalgamation and the block structure."""

import numpy as np
import pytest

from repro.graphs.generators import delaunay_mesh, grid2d
from repro.ordering.nested_dissection import nested_dissection
from repro.plan import analyze
from repro.plan.router import sweep_seconds
from repro.symbolic.etree import postorder
from repro.symbolic.fill import symbolic_cholesky
from repro.symbolic.structure import build_structure, supernodal_analysis
from repro.symbolic.supernodes import (
    amalgamate,
    find_supernodes,
    supernode_parents,
)

from test_cost_law import FIXTURES


#: The router's sweep price, as ``analyze`` hands it to :func:`amalgamate`.
PRICE = sweep_seconds


@pytest.fixture
def sym(mesh_graph):
    return symbolic_cholesky(mesh_graph, nested_dissection(mesh_graph, seed=0).perm)


def _postordered_sym(graph):
    perm = nested_dissection(graph, seed=0).perm
    parent = symbolic_cholesky(graph, perm).parent
    return symbolic_cholesky(graph, perm[postorder(parent)])


def _subtree_ranges(sym, ptr):
    """Per supernode of ``ptr``: lowest supernode of its subtree, size."""
    parents = supernode_parents(sym.parent, ptr)
    first, size = list(range(len(parents))), [1] * len(parents)
    for s, p in enumerate(parents.tolist()):
        if p >= 0:
            first[p] = min(first[p], first[s])
            size[p] += size[s]
    return first, size


def test_snode_ptr_partitions_columns(sym):
    ptr = find_supernodes(sym)
    assert ptr[0] == 0 and ptr[-1] == sym.n
    assert np.all(np.diff(ptr) >= 1)


def test_fundamental_condition_inside_supernodes(sym):
    ptr = find_supernodes(sym)
    for s in range(ptr.shape[0] - 1):
        for j in range(ptr[s] + 1, ptr[s + 1]):
            assert sym.parent[j - 1] == j
            assert sym.col_counts[j - 1] == sym.col_counts[j] + 1


def test_supernodes_are_maximal(sym):
    """No two adjacent supernodes could merge and stay fundamental."""
    ptr = find_supernodes(sym)
    for s in range(ptr.shape[0] - 2):
        j = ptr[s + 1]  # first column of the next supernode
        fundamental = (
            sym.parent[j - 1] == j
            and sym.col_counts[j - 1] == sym.col_counts[j] + 1
        )
        assert not fundamental


@pytest.mark.parametrize("postordered", [False, True])
def test_amalgamation_collapses_whole_contiguous_subtrees(
    sym, mesh_graph, postordered
):
    """Every block is one fundamental supernode or a whole subtree of
    them that is one column range; an ND ordering that is not
    postordered has scattered subtrees, which never collapse."""
    if postordered:
        sym = _postordered_sym(mesh_graph)
    base = find_supernodes(sym)
    ptr = amalgamate(sym, base, PRICE)
    assert ptr[0] == 0 and ptr[-1] == sym.n
    assert set(ptr.tolist()) <= set(base.tolist())
    first, size = _subtree_ranges(sym, base)
    for lo, hi in zip(ptr[:-1], ptr[1:]):
        top = int(np.searchsorted(base, hi)) - 1  # last supernode inside
        bottom = int(np.searchsorted(base, lo))
        if top > bottom:
            assert first[top] == bottom and size[top] == top - bottom + 1


def test_amalgamation_reduces_count(mesh_graph):
    sym = _postordered_sym(mesh_graph)
    base = find_supernodes(sym)
    merged = amalgamate(sym, base, PRICE)
    assert merged.shape[0] < base.shape[0]
    # A price with no per-block cost never merges: the law only adds ops.
    assert np.array_equal(amalgamate(sym, base, lambda ops, k: ops), base)


def test_supernode_parents_topological(sym):
    ptr = find_supernodes(sym)
    parents = supernode_parents(sym.parent, ptr)
    for s, p in enumerate(parents):
        if p >= 0:
            assert p > s


def test_structure_levels_are_cousin_groups(sym):
    st = build_structure(sym)
    for group in st.level_order():
        members = set(group.tolist())
        for s in group:
            assert not (set(st.ancestor_snodes(int(s)).tolist()) & members)


def test_descendants_and_ancestors_are_duals(sym):
    st = build_structure(sym)
    for s in range(st.ns):
        for a in st.ancestor_snodes(s):
            assert s in st.descendant_snodes(int(a))


def test_fill_block_rows_subset_of_ancestors(sym):
    st = build_structure(sym)
    for s in range(st.ns):
        anc = set(st.ancestor_snodes(s).tolist())
        assert set(st.fill_block_rows[s].tolist()) <= anc


def test_exact_vertices_subset_of_etree_vertices(sym):
    st = build_structure(sym)
    for s in range(st.ns):
        exact = set(st.ancestor_vertices(s).tolist())
        full = {v for a in st.ancestor_snodes(s)
                for v in range(*st.col_range(int(a)))}
        assert exact <= full


def test_descendant_vertices_sorted_and_below(sym):
    st = build_structure(sym)
    for s in range(st.ns):
        lo, _ = st.col_range(s)
        verts = st.descendant_vertices(s)
        assert np.all(np.diff(verts) > 0) if verts.size > 1 else True
        assert np.all(verts < lo) if verts.size else True


def test_root_has_all_descendants(sym):
    st = build_structure(sym)
    roots = np.flatnonzero(st.parent == -1)
    total = sum(st.snode_size(int(r)) + st.descendant_vertices(int(r)).shape[0] for r in roots)
    assert total == st.n


def test_stats_fields(sym):
    st = build_structure(sym)
    stats = st.stats()
    assert stats["n"] == sym.n
    assert stats["num_supernodes"] == st.ns
    assert stats["nnz_factor"] == sym.nnz_factor


def test_build_structure_is_merge_free(sym, mesh_graph):
    assert np.array_equal(build_structure(sym).snode_ptr, find_supernodes(sym))
    plan = analyze(mesh_graph, seed=0)
    assert plan.structure.ns < build_structure(_postordered_sym(mesh_graph)).ns


def test_snode_of_matches_ranges(sym):
    st = build_structure(sym)
    for s in range(st.ns):
        lo, hi = st.col_range(s)
        assert np.all(st.snode_of[lo:hi] == s)


@pytest.mark.parametrize("merged", [False, True])
def test_one_union_pass_matches_per_supernode_unions(merged):
    for graph in (delaunay_mesh(160, seed=1), grid2d(9, 11, seed=0)):
        sym = _postordered_sym(graph)
        ptr = find_supernodes(sym)
        if merged:
            ptr = amalgamate(sym, ptr, PRICE)
        st, snode_rows = supernodal_analysis(sym, ptr)
        for s in range(st.ns):
            lo, hi = st.col_range(s)
            rows = np.unique(np.concatenate(
                [sym.col_struct[j] for j in range(lo, hi)]))
            rows = rows[rows >= hi]
            assert snode_rows[s].tobytes() == rows.tobytes()
            blocks = np.unique(st.snode_of[rows]).astype(np.int64)
            assert st.fill_block_rows[s].tobytes() == blocks.tobytes()


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_struct_rows_nested_under_parent(name):
    """The assembly-tree invariant the factor's extend-add relies on:
    a child's fill rows lie in its parent's front, cols ∪ rows."""
    build, options = FIXTURES[name]
    plan = analyze(build(), seed=0, **options)
    st, rows = plan.structure, plan.snode_rows
    for s in range(st.ns):
        p = st.parent[s]
        if p < 0:
            assert rows[s].size == 0
            continue
        lo, hi = st.col_range(p)
        parent_front = set(range(lo, hi)) | set(rows[p].tolist())
        assert set(rows[s].tolist()) <= parent_front
