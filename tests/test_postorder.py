"""Postordered plans: contiguous subtrees, column runs, label-stable merges.

``analyze`` composes every ordering with its etree postorder, so each
supernode's descendants ``D(s)`` are the one range ``[first_desc, lo)``
and the sweep moves ``D(s) ++ A(s)`` as a few contiguous runs.  A
structure that is not postordered (an older plan file, a hand-built
structure) still solves exactly through the general runs.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.dense_fw import floyd_warshall
from repro.core.incremental import quantize_weights
from repro.core.parallel_superfw import parallel_superfw
from repro.core.superfw import superfw
from repro.graphs.generators import delaunay_mesh
from repro.ordering.base import Ordering
from repro.ordering.nested_dissection import nested_dissection
from repro.plan import APSPSession
from repro.plan.cache import PlanCache
from repro.plan.keys import structure_hash
from repro.plan.plan import PLAN_FORMAT_VERSION, Plan, _unit_pattern, analyze
from repro.serve import HubLabelIndex
from repro.symbolic.etree import elimination_tree, postorder, relabel_etree
from repro.symbolic.fill import symbolic_cholesky
from repro.symbolic.structure import supernodal_analysis

from test_cost_law import FIXTURES


def _subtree_columns(st, s: int) -> list[int]:
    """Columns strictly below ``s``, by walking the children lists."""
    out, stack = [], list(st.children[s])
    while stack:
        t = stack.pop()
        out.extend(range(*st.col_range(t)))
        stack.extend(st.children[t])
    return sorted(out)


@pytest.fixture(scope="module", params=sorted(FIXTURES))
def fixture_plan(request):
    build, options = FIXTURES[request.param]
    g = build()
    return g, analyze(g, seed=0, **options), options


def test_descendants_are_one_range(fixture_plan):
    _, plan, _ = fixture_plan
    st = plan.structure
    assert st.postordered
    for s in range(st.ns):
        lo, _ = st.col_range(s)
        first = int(st.snode_ptr[st.first_desc[s]])
        assert _subtree_columns(st, s) == list(range(first, lo))
        assert st.descendant_vertices(s).tolist() == list(range(first, lo))
        assert st.descendant_snodes(s).tolist() == list(
            range(st.first_desc[s], s))


def _run_columns(runs) -> list[int]:
    cols, at = [], 0
    for offset, lo, hi in runs:
        assert offset == at and hi > lo
        cols.extend(range(lo, hi))
        at += hi - lo
    return cols


def _check_runs(st) -> int:
    """Assert every supernode's runs rebuild ``D(s) ++ A(s)``; count runs."""
    total = 0
    for s in range(st.ns):
        runs = st.row_runs(s)
        desc = _subtree_columns(st, s)
        anc = st.ancestor_vertices(s).tolist()
        assert _run_columns(runs.desc) == desc and runs.nd == len(desc)
        assert _run_columns(runs.anc) == anc and runs.na == len(anc)
        assert _run_columns(runs.rows) == desc + anc
        # Runs are maximal: consecutive runs never touch.
        for (_, _, hi), (_, lo, _) in zip(runs.rows, runs.rows[1:]):
            assert lo != hi
        total += len(runs.rows)
    return total


def test_runs_rebuild_descendants_then_ancestors(fixture_plan):
    _, plan, _ = fixture_plan
    st = plan.structure
    _check_runs(st)
    for s in range(st.ns):
        assert len(st.row_runs(s).desc) == (1 if st.first_desc[s] < s else 0)


#: Per fixture: sha256 prefix of the bytes of ``ptr``, ``hubs``, ``dto``
#: and ``dfrom`` of its index on weights rounded to multiples of 1/8, and
#: the label entries — recorded from plans whose supernodes were relaxed
#: along etree chains only, before the cost-law amalgamation.  The
#: factor-built and the epoch-sliced index matched them both.
LABEL_DIGESTS = {
    "digraph": ("d3fc0d4c0bbcb214", 1168),
    "empty": ("af5570f5a1810b7a", 0),
    "forest": ("d46846de43096ef2", 799),
    "mesh-amd": ("3c813589ec11eaba", 5168),
    "mesh-nd": ("d071bf334951ee17", 4661),
    "no-relax": ("a1ba77777bad63a8", 2270),
    "reduce": ("309ca5af8303a79c", 2815),
    "reduce-digraph": ("ca00cf88d903b18e", 1058),
    "reduce-directed-0": ("b3b97fa700f569b7", 560),
    "reduce-directed-1": ("99fd758a7adde5ad", 610),
    "reduce-directed-2": ("d0ab2dd0a93bdf1d", 540),
    "reduce-directed-disconnected-0": ("2f8e6d3991b7fcd4", 428),
    "reduce-directed-disconnected-1": ("1ca93ca28cb71579", 484),
    "reduce-directed-disconnected-2": ("86c622f06dd325f2", 374),
    "reduce-directed-negative-0": ("b71a13e091f7fec2", 560),
    "reduce-directed-negative-1": ("3450e3c9f6ff96eb", 610),
    "reduce-directed-negative-2": ("b8ddc7c49ac7eeb1", 540),
    "reduce-power-grid": ("1b39263f38c6c680", 22479),
    "reduce-road": ("d56870beb28e9dad", 30218),
}


def _index_digest(index) -> str:
    h = hashlib.sha256()
    for arr in (index.ptr, index.hubs, index.dto, index.dfrom):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def test_relaxation_adds_no_label_entries(fixture_plan, request):
    """Amalgamated blocks leave every label byte-identical: the labels
    follow the column etree's fundamental supernodes, and the factor
    source gathers them from the merged blocks' chain blocks."""
    g, plan, _ = fixture_plan
    digest, entries = LABEL_DIGESTS[request.node.callspec.params["fixture_plan"]]
    g = g.with_weights(np.round(g.weights * 8) / 8)
    factor = HubLabelIndex.build(APSPSession(g, plan=plan))
    session = APSPSession(g, plan=plan)
    session.solve()
    epoch = HubLabelIndex.build(session)
    assert (factor.source, epoch.source) == ("factor", "epoch")
    for index in (factor, epoch):
        assert index.entries == entries
        assert _index_digest(index) == digest


def test_relabelled_etree_is_the_postordered_etree():
    g = delaunay_mesh(200, seed=3)
    rng = np.random.default_rng(0)
    for perm in (nested_dissection(g, seed=0).perm, rng.permutation(g.n)):
        parent = elimination_tree(g, perm)
        order = postorder(parent)
        assert np.array_equal(relabel_etree(parent, order),
                              elimination_tree(g, perm[order]))


def _scattered_plan(g, seed: int) -> Plan:
    """A plan over a random (not postordered) ordering, built by hand."""
    perm = np.random.default_rng(seed).permutation(g.n)
    pattern = _unit_pattern(g)
    st, rows = supernodal_analysis(symbolic_cholesky(pattern, perm))
    return Plan(key=structure_hash(g), ordering=Ordering(perm=perm),
                structure=st, pattern=pattern, snode_rows=rows)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_non_postordered_structure_matches_dense_oracle(seed):
    g = quantize_weights(delaunay_mesh(120, seed=seed))
    plan = _scattered_plan(g, seed)
    assert not plan.structure.postordered
    # Scattered subtrees: some D(s) needs more than one run.
    assert _check_runs(plan.structure) > plan.structure.ns
    expected = floyd_warshall(g).dist
    assert np.array_equal(superfw(g, plan=plan).dist, expected)
    threaded = parallel_superfw(g, plan=plan, backend="thread", num_workers=2)
    assert np.array_equal(threaded.dist, expected)


def _rewrite_version(path, version: int) -> None:
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    header = json.loads(bytes(arrays.pop("header")).decode())
    header["version"] = version
    with open(path, "wb") as fh:
        np.savez(fh, header=np.frombuffer(json.dumps(header).encode(),
                                          dtype=np.uint8), **arrays)


def test_v3_plan_file_loads_and_solves_exactly(tmp_path):
    assert PLAN_FORMAT_VERSION == 5
    g = quantize_weights(delaunay_mesh(120, seed=5))
    plan = _scattered_plan(g, 5)
    path = tmp_path / "old.plan.npz"
    plan.save(path)
    _rewrite_version(path, 3)
    loaded = Plan.load(path)
    assert loaded.format_version == 3
    assert not loaded.structure.postordered
    assert np.array_equal(superfw(g, plan=loaded).dist,
                          superfw(g, plan=analyze(g)).dist)


def test_plan_cache_reanalyzes_an_older_format_file(tmp_path):
    g = delaunay_mesh(120, seed=6)
    cache = PlanCache(directory=str(tmp_path))
    key = cache.key_for(g)
    path = cache._path_for(key)
    _scattered_plan(g, 6).save(path)
    _rewrite_version(path, 3)
    plan = cache.get_or_analyze(g)
    assert cache.stale_evictions == 1 and cache.disk_hits == 0
    assert plan.format_version == PLAN_FORMAT_VERSION
    assert plan.structure.postordered
    # The evicted file was replaced by a fresh plan.
    assert Plan.load(path).format_version == PLAN_FORMAT_VERSION
    fresh = PlanCache(directory=str(tmp_path))
    assert fresh.get_or_analyze(g).plan_id == plan.plan_id
    assert fresh.disk_hits == 1 and fresh.stale_evictions == 0


def test_v4_plan_file_keeps_its_labels_and_is_reanalyzed(tmp_path):
    """A v4 file stores no column etree: its labels follow its (merge-free)
    supernodes, byte-identical to a fresh plan's, and a cache evicts it."""
    g = quantize_weights(delaunay_mesh(120, seed=8))
    fresh = analyze(g, seed=0)
    st, rows = supernodal_analysis(symbolic_cholesky(fresh.pattern,
                                                     fresh.ordering.perm))
    assert st.ns > fresh.structure.ns
    cache = PlanCache(directory=str(tmp_path))
    path = cache._path_for(cache.key_for(g))
    Plan(key=fresh.key, ordering=fresh.ordering, structure=st,
         pattern=fresh.pattern, params=fresh.params, snode_rows=rows).save(path)
    _rewrite_version(path, 4)
    old = Plan.load(path)
    assert old.format_version == 4 and old.etree is None
    assert np.array_equal(superfw(g, plan=old).dist, superfw(g, plan=fresh).dist)
    for a, b in ((old, fresh), (fresh, old)):
        index = HubLabelIndex.build(APSPSession(g, plan=a))
        other = HubLabelIndex.build(APSPSession(g, plan=b))
        assert _index_digest(index) == _index_digest(other)
    plan = cache.get_or_analyze(g)
    assert cache.stale_evictions == 1 and cache.disk_hits == 0
    assert plan.format_version == PLAN_FORMAT_VERSION
    assert plan.structure.ns == fresh.structure.ns
    assert np.array_equal(Plan.load(path).etree, fresh.etree)


def test_loaded_v3_plan_put_into_a_cache_is_still_evicted(tmp_path):
    g = delaunay_mesh(120, seed=7)
    old = tmp_path / "old.plan.npz"
    _scattered_plan(g, 7).save(old)
    _rewrite_version(old, 3)
    cache = PlanCache(directory=str(tmp_path / "cache"))
    key = cache.key_for(g)
    # Saving a loaded v3 plan keeps its v3 header.
    cache.put(Plan.load(old), key=key)
    assert Plan.load(cache._path_for(key)).format_version == 3
    fresh = PlanCache(directory=str(tmp_path / "cache"))
    plan = fresh.get_or_analyze(g)
    assert fresh.stale_evictions == 1 and fresh.disk_hits == 0
    assert plan.format_version == PLAN_FORMAT_VERSION
    assert plan.structure.postordered
