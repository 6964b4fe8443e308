"""Experiment runners: smoke + shape assertions at tiny scale."""

import numpy as np
import pytest

from repro.experiments import (
    format_table,
    geomean,
    run_fig6a,
    run_fig6b,
    run_fig7,
    run_fig8,
    run_gemm_rates,
    run_ordering_ablation,
    run_preprocessing,
    run_table2,
    run_table3,
    run_worklaw,
)


def test_format_table_alignment():
    text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}])
    lines = text.splitlines()
    assert lines[0].startswith("a")
    assert len(lines) == 4


def test_format_table_empty():
    assert format_table([]) == "(no rows)"


def test_geomean():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert np.isnan(geomean([]))


def test_fig6a_superfw_wins_on_mesh():
    rows = run_fig6a(
        size_factor=0.25, names=["delaunay_n14", "USpowerGrid"], verbose=False
    )
    assert len(rows) == 2
    for row in rows:
        # Sparsity must pay off on meshes.  Asserted on op counts, which
        # are deterministic, rather than on the wall-clock superfw_x.
        assert row["superfw_ops_x"] > 1.0
        assert row["superfw_x"] > 0
        assert row["blockedfw_s"] > 0


def test_fig6b_row_fields():
    rows = run_fig6b(
        size_factor=0.15, names=["wing"], include_delta=False, verbose=False
    )
    assert set(rows[0]) >= {"graph", "n", "dijkstra_s", "superfw_x", "boostdijkstra_x"}


def test_fig7_curve_shapes():
    curves = run_fig7(size_factor=0.2, names=["wing"], verbose=False)
    wing = curves["wing"]
    assert wing["dijkstra"][32] > wing["delta-stepping"][32]
    assert wing["superfw"][1] == pytest.approx(1.0)
    # Monotone nondecreasing speedups for superfw.
    sf = wing["superfw"]
    procs = sorted(sf)
    assert all(sf[a] <= sf[b] * 1.001 for a, b in zip(procs, procs[1:]))


def test_fig8_etree_benefit_positive():
    rows = run_fig8(size_factor=0.25, names=["USpowerGrid", "delaunay_n14"], verbose=False)
    for row in rows:
        assert row["etree_benefit"] >= 1.0
        assert row["speedup_etree"] >= row["speedup_no_etree"] * 0.999


def test_table2_ratios_bounded():
    rows = run_table2(sides=[8, 12, 16], verbose=False)
    ratios = [r["W_ratio"] for r in rows]
    assert max(ratios) / min(ratios) < 8.0
    for row in rows:
        assert row["D_measured"] > 0


def test_table3_contains_paper_columns():
    rows = run_table3(size_factor=0.12, names=["G67", "wing"], verbose=False)
    assert rows[0]["paper_nnz/n"] == 4.0
    assert all(r["n/|S|"] >= 1.0 for r in rows)


def test_gemm_rates_positive():
    rows = run_gemm_rates(sizes=[16, 32], repeats=1, verbose=False)
    assert all(r["gops_per_s"] > 0 for r in rows)


def test_preprocessing_report_rows():
    rows = run_preprocessing(size_factor=0.15, names=["USpowerGrid"], verbose=False)
    assert rows[0]["overhead_pct"] > 0


def test_ordering_ablation_nd_saves_ops():
    rows = run_ordering_ablation(
        size_factor=0.25, names=["delaunay_n14"], verbose=False
    )
    row = rows[0]
    assert row["nd_ops"] < row["blocked_ops"]
    assert row["nd_ops"] <= row["bfs_ops"] * 1.5  # ND at least competitive


def test_size_sweep_runner():
    from repro.experiments import run_size_sweep

    out = run_size_sweep(sizes=[96, 192], verbose=False)
    assert len(out["rows"]) == 2
    assert out["superfw_growth"] > 1.0  # §5.2.1's growing gap, small scale


def test_hierarchy_runner():
    from repro.experiments import run_hierarchy

    out = run_hierarchy(
        graph_name="USpowerGrid", size_factor=0.2, query_samples=20, verbose=False
    )
    methods = {r["method"] for r in out["rows"]}
    assert methods == {"dense-fw", "blocked-fw", "superfw", "treewidth", "dijkstra"}
    assert out["warm_query_us"] <= out["cold_query_us"] * 1.5
    assert out["breakeven_queries_treewidth_vs_superfw"] >= 0


def test_worklaw_exponent_below_cubic():
    out = run_worklaw(sides=[8, 12, 16, 20], verbose=False)
    assert out["fitted_exponent"] < 2.95  # clearly sub-cubic
    assert out["fitted_exponent"] > 1.5
