"""Command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.graphs.graph import Graph
from repro.graphs.generators import grid2d
from repro.graphs.io import write_matrix_market


def test_solve_generated(capsys):
    assert main(["solve", "--generate", "grid2d:8", "--method", "superfw"]) == 0
    out = capsys.readouterr().out
    assert "method: superfw" in out
    assert "n=64" in out
    assert "diameter" in out


def test_solve_from_file(tmp_path, capsys):
    path = tmp_path / "g.mtx"
    write_matrix_market(grid2d(6, 6, seed=0), path)
    assert main(["solve", str(path), "--method", "dijkstra"]) == 0
    assert "method: dijkstra" in capsys.readouterr().out


def test_solve_writes_npy(tmp_path, capsys):
    out = tmp_path / "dist.npy"
    main(["solve", "--generate", "grid2d:6", "--out", str(out)])
    dist = np.load(out)
    assert dist.shape == (36, 36)
    assert np.all(np.diag(dist) == 0)


def test_solve_generator_with_args(capsys):
    assert main(["solve", "--generate", "barabasi_albert:60,3", "--method", "dense-fw"]) == 0
    assert "n=60" in capsys.readouterr().out


def test_info(capsys):
    assert main(["info", "--generate", "delaunay_mesh:120"]) == 0
    out = capsys.readouterr().out
    assert "top separator" in out
    assert "fill ratio" in out


def test_unknown_generator():
    with pytest.raises(SystemExit):
        main(["solve", "--generate", "klein_bottle:9"])


def test_missing_graph():
    with pytest.raises(SystemExit):
        main(["solve"])


def test_experiment_runner(capsys):
    assert main(["experiment", "gemm"]) == 0
    assert "SemiringGemm" in capsys.readouterr().out


def test_experiment_unknown():
    with pytest.raises(SystemExit):
        main(["experiment", "fig99"])


def test_bench_gemm(capsys):
    assert main(["bench-gemm", "--sizes", "16,32"]) == 0
    out = capsys.readouterr().out
    assert "gops_per_s" in out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_query_generated(capsys):
    assert main(["query", "0:35", "1:2", "--generate", "grid2d:6"]) == 0
    out = capsys.readouterr().out
    assert "dist(0, 35)" in out
    assert "dist(1, 2)" in out
    assert "width" in out


def test_query_from_file(tmp_path, capsys):
    path = tmp_path / "g.mtx"
    write_matrix_market(grid2d(5, 5, seed=0), path)
    assert main(["query", "0:24", "--graph", str(path)]) == 0
    assert "dist(0, 24)" in capsys.readouterr().out


def test_query_matches_solve(capsys):
    main(["query", "0:35", "--generate", "grid2d:6", "--seed", "3"])
    q_out = capsys.readouterr().out
    import re

    d = float(re.search(r"dist\(0, 35\) = ([\d.]+)", q_out).group(1))
    from repro import apsp
    from repro.graphs.generators import grid2d as _grid

    full = apsp(_grid(6, seed=3), method="superfw").dist
    assert abs(d - full[0, 35]) < 1e-5


@pytest.mark.parametrize("bad", ["0-5", "0:99", "a:b"])
def test_query_rejects_bad_pairs(bad):
    with pytest.raises(SystemExit):
        main(["query", bad, "--generate", "grid2d:4"])


# ----------------------------------------------------------------------
# Resilience: typed exit codes, fault flags, fallback trail
# ----------------------------------------------------------------------

def test_exit_code_2_on_invalid_weights(tmp_path, capsys):
    # The reader takes |w| (SuiteSparse values are lengths), so a NaN —
    # which survives abs() — is the validation failure reachable from disk.
    path = tmp_path / "nan.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 2\n"
        "2 1 nan\n"
        "3 2 2.0\n"
    )
    code = main(["solve", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err
    assert "NaN" in captured.err


def test_exit_code_2_on_detected_negative_cycle(tmp_path, capsys, monkeypatch):
    from repro.graphs import io as gio

    # Matrix-Market ingestion clamps weights to |w|, so splice a negative
    # edge in after loading to exercise the --detect-negative-cycles path.
    real_read = gio.read_matrix_market

    def negate(path, **kwargs):
        g = real_read(path, **kwargs)
        w = g.weights.copy()
        i, j = int(g.indices[0]), 0  # first stored arc, mirrored below
        w[0] = -1.0
        for k in range(g.indptr[i], g.indptr[i + 1]):
            if g.indices[k] == j:
                w[k] = -1.0  # keep the CSR symmetric: a negative 2-cycle
        return Graph(g.indptr, g.indices, w)

    monkeypatch.setattr(gio, "read_matrix_market", negate)
    p = tmp_path / "g.mtx"
    write_matrix_market(grid2d(4, 4, seed=0), p)
    code = main(["solve", str(p), "--detect-negative-cycles"])
    captured = capsys.readouterr()
    assert code == 2
    assert "negative-weight cycle" in captured.err
    assert "witness" in captured.err


def test_exit_code_3_on_blown_budget(capsys):
    code = main(["solve", "--generate", "grid2d:8", "--budget-ops", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert "error:" in captured.err
    assert "budget" in captured.err


def test_exit_code_4_on_exhausted_fallback(capsys, monkeypatch):
    import repro.resilience.fallback as fb

    # Restrict the chain to two kernel-based backends, then fail every
    # kernel call: both attempts die and the chain exhausts.
    monkeypatch.setattr(fb, "DEFAULT_CHAIN", ("superfw", "blocked-fw"))
    code = main(
        ["solve", "--generate", "grid2d:6", "--method", "auto",
         "--fault-kernels", "1.0", "--fault-seed", "0"]
    )
    captured = capsys.readouterr()
    assert code == 4
    assert "error:" in captured.err
    assert "fallback chain failed" in captured.err


def test_auto_prints_attempt_trail_under_faults(capsys):
    code = main(
        ["solve", "--generate", "grid2d:6", "--method", "auto",
         "--fault-tasks", "0.2", "--fault-seed", "0"]
    )
    out = capsys.readouterr().out
    assert code == 0
    # The winning backend is reported, plus the per-attempt trail.
    assert "method: superfw" in out
    assert "attempt: superfw -> ok" in out


def test_query_requires_pairs_or_random():
    with pytest.raises(SystemExit):
        main(["query", "--generate", "grid2d:6"])


def test_query_random_verify(capsys):
    assert main(
        ["query", "--generate", "grid2d:6", "--random", "200", "--verify"]
    ) == 0
    out = capsys.readouterr().out
    assert "200 random queries" in out
    assert "queries/s" in out
    assert "verified 200 queries against the full matrix: OK" in out


def test_query_stats_and_directed(capsys):
    assert main(
        ["query", "0:9", "--generate", "erdos_renyi:40", "--directed",
         "--random", "50", "--verify", "--stats"]
    ) == 0
    out = capsys.readouterr().out
    assert "dist(0, 9)" in out
    assert "result_cache" in out
    assert ": OK" in out


def test_query_reduced_road_serves_through_the_chain_join(capsys):
    # Directed or not, a road graph serves a reduced plan from the factor.
    for directed in ([], ["--directed"]):
        assert main(
            ["query", "0:1", "--generate", "road_network_like:300",
             "--random", "200", "--verify", "--stats", *directed]
        ) == 0
        out = capsys.readouterr().out
        assert "built from the factor" in out
        assert "'source': 'factor'" in out
        trail_events = int(out.split("'trail_events': ")[1].split(",")[0])
        assert trail_events > 0
        assert ": OK" in out
