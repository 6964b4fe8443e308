"""Supernode detection and the supernodal block structure."""

import numpy as np
import pytest

from repro.graphs.generators import delaunay_mesh, grid2d
from repro.ordering.nested_dissection import nested_dissection
from repro.plan import analyze
from repro.symbolic.fill import symbolic_cholesky
from repro.symbolic.structure import build_structure, supernodal_analysis
from repro.symbolic.supernodes import (
    find_supernodes,
    relax_supernodes,
    supernode_parents,
)

from test_cost_law import FIXTURES


@pytest.fixture
def sym(mesh_graph):
    return symbolic_cholesky(mesh_graph, nested_dissection(mesh_graph, seed=0).perm)


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


def test_relaxation_respects_max_size(sym):
    ptr = relax_supernodes(sym, find_supernodes(sym), max_size=16, small=4)
    assert np.all(np.diff(ptr) <= max(16, np.diff(find_supernodes(sym)).max()))
    assert ptr[0] == 0 and ptr[-1] == sym.n


def test_relaxation_reduces_count(sym):
    base = find_supernodes(sym)
    relaxed = relax_supernodes(sym, base, max_size=64, small=8)
    assert relaxed.shape[0] <= base.shape[0]


def test_supernode_parents_topological(sym):
    ptr = find_supernodes(sym)
    parents = supernode_parents(sym, ptr)
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


def test_no_relaxation_option(sym):
    st_plain = build_structure(sym, relax=False)
    st_relaxed = build_structure(sym, relax=True)
    assert st_plain.ns >= st_relaxed.ns


def test_snode_of_matches_ranges(sym):
    st = build_structure(sym)
    for s in range(st.ns):
        lo, hi = st.col_range(s)
        assert np.all(st.snode_of[lo:hi] == s)


@pytest.mark.parametrize("relax", [False, True])
def test_one_union_pass_matches_per_supernode_unions(relax):
    for graph in (delaunay_mesh(160, seed=1), grid2d(9, 11, seed=0)):
        sym = symbolic_cholesky(graph, nested_dissection(graph, seed=0).perm)
        st, snode_rows = supernodal_analysis(sym, relax=relax)
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
