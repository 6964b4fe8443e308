"""The observability layer: tracer, metrics, exporters, and wiring."""

import io
import json

import numpy as np
import pytest

from repro.core.api import apsp
from repro.core.parallel_superfw import parallel_superfw
from repro.core.superfw import superfw
from repro.graphs import generators as gen
from repro.obs import (
    CHROME_REQUIRED_KEYS,
    NULL_TRACER,
    MetricsRegistry,
    OpCounter,
    SpanEvent,
    Tracer,
    chrome_trace_events,
    coerce_tracer,
    flame_summary,
    get_tracer,
    use_tracer,
    write_chrome_trace,
    write_csv,
)
from repro.plan.session import APSPSession
from repro.resilience.faults import FaultSpec, inject_faults


# ---------------------------------------------------------------------------
# Tracer primitives
# ---------------------------------------------------------------------------
def test_span_records_complete_event_with_attrs():
    t = Tracer()
    with t.span("outer", level=1):
        with t.span("inner", snode=3) as sp:
            sp.set(late="yes")
    events = t.events()
    assert [e.name for e in events] == ["inner", "outer"]
    inner, outer = events
    assert inner.ph == "X" and inner.dur >= 0
    assert inner.args == {"snode": 3, "late": "yes"}
    # Nesting: the inner span's interval lies within the outer one.
    assert outer.ts <= inner.ts
    assert inner.ts + inner.dur <= outer.ts + outer.dur


def test_instant_and_event_count():
    t = Tracer()
    t.instant("retry", attempt=2)
    assert t.event_count == 1
    (ev,) = t.events()
    assert ev.ph == "i" and ev.dur == 0 and ev.args["attempt"] == 2


def test_buffer_growth_past_initial_capacity():
    t = Tracer(capacity=16)
    for i in range(100):
        t.instant("tick", i=i)
    assert t.event_count == 100
    assert [e.args["i"] for e in t.events()] == list(range(100))


def test_drain_and_merge_round_trip():
    worker = Tracer()
    with worker.span("eliminate", snode=7):
        pass
    shipped = [tuple(e) for e in worker.drain()]  # what pickling yields
    assert worker.event_count == 0
    coordinator = Tracer()
    coordinator.merge(shipped)
    (ev,) = coordinator.events()
    assert isinstance(ev, SpanEvent) and ev.args["snode"] == 7


def test_span_stats_aggregates_by_name():
    t = Tracer()
    for _ in range(3):
        with t.span("work"):
            pass
    stats = t.span_stats()
    assert stats["work"]["count"] == 3
    assert stats["work"]["total_ns"] >= stats["work"]["max_ns"]


def test_null_tracer_is_inert_and_shared():
    assert not NULL_TRACER.enabled
    with NULL_TRACER.span("x", a=1) as sp:
        sp.set(b=2)
    NULL_TRACER.instant("y")
    NULL_TRACER.metric_inc("z")
    NULL_TRACER.metrics.inc("c")
    NULL_TRACER.metrics.observe("h", 1.0)
    assert NULL_TRACER.events() == []
    assert NULL_TRACER.event_count == 0
    assert NULL_TRACER.metrics.snapshot()["counters"] == {}
    # The disabled span is one shared object — no allocation per call.
    assert NULL_TRACER.span("a") is NULL_TRACER.span("b")


def test_ambient_tracer_default_and_restore():
    assert get_tracer() is NULL_TRACER
    t = Tracer()
    with use_tracer(t) as active:
        assert active is t and get_tracer() is t
    assert get_tracer() is NULL_TRACER


def test_coerce_tracer_forms(tmp_path):
    t, path = coerce_tracer(True)
    assert t.enabled and path is None
    t, path = coerce_tracer(str(tmp_path / "t.json"))
    assert t.enabled and path.endswith("t.json")
    existing = Tracer()
    t, path = coerce_tracer(existing)
    assert t is existing and path is None
    t, path = coerce_tracer(None)
    assert t is NULL_TRACER
    t, path = coerce_tracer(False)
    assert t is NULL_TRACER


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def test_metrics_counters_gauges_histograms():
    m = MetricsRegistry()
    m.inc("a")
    m.inc("a", 2)
    m.set_gauge("g", 1.5)
    m.set_gauge("g", 2.5)
    m.observe("h", 1.0)
    m.observe("h", 3.0)
    snap = m.snapshot()
    assert snap["counters"]["a"] == 3
    assert snap["gauges"]["g"] == 2.5
    h = snap["histograms"]["h"]
    assert (h["count"], h["min"], h["max"], h["mean"]) == (2, 1.0, 3.0, 2.0)


def test_metrics_merge_snapshot_accumulates():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.inc("x", 2)
    a.observe("h", 5.0)
    b.inc("x", 3)
    b.observe("h", 1.0)
    a.merge_snapshot(b.snapshot())
    snap = a.snapshot()
    assert snap["counters"]["x"] == 5
    assert snap["histograms"]["h"]["count"] == 2
    assert snap["histograms"]["h"]["min"] == 1.0


def test_metrics_merge_ops_prefixes_categories():
    c = OpCounter()
    c.add("diag", 10)
    c.add("outer", 20)
    m = MetricsRegistry()
    m.merge_ops(c)
    counters = m.snapshot()["counters"]
    assert counters == {"ops.diag": 10, "ops.outer": 20}


def test_opcounter_reexport_shim():
    from repro.analysis.counters import OpCounter as Legacy

    assert Legacy is OpCounter


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------
def _sample_tracer():
    t = Tracer()
    with t.span("solve", method="superfw"):
        with t.span("eliminate", snode=0):
            pass
    t.instant("retry", attempt=1)
    return t


def test_chrome_trace_required_keys_and_normalization():
    t = _sample_tracer()
    events = chrome_trace_events(t)
    assert len(events) == 3
    for ev in events:
        for key in CHROME_REQUIRED_KEYS:
            assert key in ev
    assert min(e["ts"] for e in events) == 0.0
    spans = [e for e in events if e["ph"] == "X"]
    assert all("dur" in e for e in spans)


def test_write_chrome_trace_file_is_perfetto_shaped(tmp_path):
    path = str(tmp_path / "trace.json")
    n = write_chrome_trace(_sample_tracer(), path, metadata={"note": "hi"})
    doc = json.loads(open(path).read())
    assert len(doc["traceEvents"]) == n == 3
    assert doc["displayTimeUnit"] == "ms"
    assert doc["otherData"] == {"note": "hi"}


def test_write_csv_rows(tmp_path):
    buf = io.StringIO()
    rows = write_csv(_sample_tracer(), buf)
    lines = buf.getvalue().strip().splitlines()
    assert rows == 3 and len(lines) == 4  # header + 3 events
    assert lines[0].startswith("name,ph,ts_us,dur_us,pid,tid,args")


def test_flame_summary_lists_each_span_name():
    text = flame_summary(_sample_tracer())
    assert "solve" in text and "eliminate" in text
    assert "retry" not in text  # instants are excluded from the flame view
    assert flame_summary(Tracer()) == "(no spans recorded)"


# ---------------------------------------------------------------------------
# apsp(trace=...) wiring
# ---------------------------------------------------------------------------
def test_apsp_trace_true_attaches_obs_and_tracer():
    g = gen.grid2d(6, 6, seed=0)
    plain = apsp(g, method="superfw")
    traced = apsp(g, method="superfw", trace=True)
    assert np.array_equal(plain.dist, traced.dist)
    assert "obs" not in plain.meta and "tracer" not in plain.meta
    obs = traced.meta["obs"]
    assert obs["counters"]["ops.diag"] == traced.ops.counts["diag"]
    for name in ("apsp", "solve", "eliminate", "ordering", "symbolic"):
        assert name in obs["spans"], name
    assert traced.meta["tracer"].event_count == obs["events"]


def test_apsp_trace_has_ordering_sub_spans():
    g = gen.delaunay_mesh(200, seed=2)
    plain = apsp(g)
    traced = apsp(g, trace=True)
    assert plain.dist.tobytes() == traced.dist.tobytes()
    events = traced.meta["tracer"].events()
    (ordering,) = [e for e in events if e.name == "ordering"]
    names = {
        "ordering.coarsen",
        "ordering.initial",
        "ordering.refine",
        "ordering.separator",
    }
    subs = [e for e in events if e.name in names]
    assert {e.name for e in subs} == names
    for e in subs:
        assert ordering.ts <= e.ts
        assert e.ts + e.dur <= ordering.ts + ordering.dur
    refines = [e for e in subs if e.name == "ordering.refine"]
    for e in refines:
        assert set(e.args) == {"n", "passes", "moves", "early_stop"}
        assert 1 <= e.args["passes"] <= 4
    assert any(e.args["early_stop"] for e in refines)


def test_apsp_trace_path_writes_chrome_json(tmp_path):
    g = gen.grid2d(5, 5, seed=0)
    path = str(tmp_path / "out.json")
    r = apsp(g, method="superfw", trace=path)
    assert r.meta["trace_path"] == path
    doc = json.loads(open(path).read())
    assert doc["traceEvents"]
    for ev in doc["traceEvents"]:
        for key in CHROME_REQUIRED_KEYS:
            assert key in ev


def test_traced_thread_backend_bit_identical_with_level_spans():
    g = gen.delaunay_mesh(120, seed=1)
    plain = parallel_superfw(g, num_threads=3)
    tracer = Tracer()
    with use_tracer(tracer):
        traced = parallel_superfw(g, num_threads=3)
    assert np.array_equal(plain.dist, traced.dist)
    names = {e.name for e in tracer.events()}
    assert {"level", "eliminate", "solve"} <= names
    assert traced.meta["obs"]["counters"]["ops.diag"] == traced.ops.counts["diag"]


def test_traced_process_backend_multi_pid_schedule_and_identity():
    """Acceptance: process-backend trace has ≥2 pids, eliminate spans
    matching the plan's schedule, and bit-identical distances."""
    g = gen.grid2d(12, 12, seed=0)
    plain = parallel_superfw(g, backend="process", num_workers=3)
    tracer = Tracer()
    with use_tracer(tracer):
        traced = parallel_superfw(g, backend="process", num_workers=3)
    assert np.array_equal(plain.dist, traced.dist)
    elim = [e for e in tracer.events() if e.name == "eliminate"]
    assert len({e.pid for e in elim}) >= 2
    schedule = sorted(
        s
        for group in traced.meta["plan"].structure.level_order()
        for s in group.tolist()
    )
    assert sorted(e.args["snode"] for e in elim) == schedule
    # Worker metrics snapshots merged at the coordinator.
    assert traced.meta["obs"]["counters"]["engine.dispatch.rank1"] > 0


def test_session_traces_one_solve_among_many():
    g = gen.grid2d(8, 8, seed=0)
    with APSPSession(g, method="superfw") as sess:
        r0 = sess.solve()
        r1 = sess.solve(trace=True)
        r2 = sess.solve()
    assert np.array_equal(r0.dist, r1.dist)
    assert np.array_equal(r0.dist, r2.dist)
    assert "obs" not in r0.meta and "obs" not in r2.meta
    names = {e.name for e in r1.meta["tracer"].events()}
    assert "session-solve" in names and "eliminate" in names


# ---------------------------------------------------------------------------
# Op-counter routing (process backend regression) and fault interplay
# ---------------------------------------------------------------------------
def test_process_backend_op_counts_match_sequential(mesh_graph):
    seq = superfw(mesh_graph)
    prc = parallel_superfw(mesh_graph, backend="process", num_workers=3)
    assert prc.ops.counts == seq.ops.counts
    assert prc.ops.total == seq.ops.total


def test_process_backend_workspace_stats_reach_meta(grid_graph):
    r = parallel_superfw(grid_graph, backend="process", num_workers=2)
    ws = r.meta["engine"]["workspace"]
    # Worker pools do the kernel scratch allocation; without the merge
    # these were reported as 0/0 on the process backend.
    assert ws["hits"] + ws["misses"] > 0


def test_process_backend_op_counts_survive_retries(grid_graph):
    seq = superfw(grid_graph)
    with inject_faults(FaultSpec(seed=3, task_failure_rate=0.2)):
        prc = parallel_superfw(grid_graph, backend="process", num_workers=2)
    assert prc.meta["recovery"]["task_retries"] > 0 or prc.meta["recovery"][
        "sequential_reruns"
    ]
    # Only the successful attempt's counter is merged: retried tasks must
    # not double-count (min-plus re-runs are idempotent, counters not).
    assert prc.ops.counts == seq.ops.counts
    assert np.array_equal(prc.dist, seq.dist)


def test_retry_instants_recorded_under_faults(grid_graph):
    tracer = Tracer()
    with inject_faults(FaultSpec(seed=3, task_failure_rate=0.2)):
        with use_tracer(tracer):
            superfw(grid_graph)
    retries = [e for e in tracer.events() if e.name == "retry"]
    assert retries, "injected failures should surface as retry instants"
    assert all(e.ph == "i" and "error" in e.args for e in retries)
    assert tracer.metrics.snapshot()["counters"]["retries.caught"] == len(retries)


def test_fallback_spans_carry_status():
    from repro.resilience.fallback import solve_with_fallback

    g = gen.grid2d(5, 5, seed=0)
    tracer = Tracer()
    with use_tracer(tracer):
        solve_with_fallback(g, chain=["superfw"])
    spans = [e for e in tracer.events() if e.name == "fallback"]
    assert len(spans) == 1
    assert spans[0].args["method"] == "superfw"
    assert spans[0].args["status"] == "ok"


def test_autotune_instants_once_per_bucket():
    from repro.semiring.engine import SemiringGemmEngine

    eng = SemiringGemmEngine("auto")
    rng = np.random.default_rng(0)
    a = rng.uniform(0.1, 1.0, (32, 32))
    b = rng.uniform(0.1, 1.0, (32, 32))
    tracer = Tracer()
    with use_tracer(tracer):
        eng.gemm(a, b)
        eng.gemm(a, b)  # same bucket: no second instant
    instants = [e for e in tracer.events() if e.name == "autotune"]
    assert len(instants) == 1
    assert instants[0].args["strategy"] in ("rank1", "ktiled", "outtiled")
    assert len([e for e in tracer.events() if e.name == "gemm"]) == 2


# ---------------------------------------------------------------------------
# CLI trace subcommand
# ---------------------------------------------------------------------------
def test_cli_trace_subcommand(tmp_path, capsys):
    from repro.cli import main

    out = str(tmp_path / "trace.json")
    csv_path = str(tmp_path / "trace.csv")
    code = main(
        [
            "trace",
            "--generate",
            "grid2d:8",
            "--method",
            "superfw",
            "--out",
            out,
            "--csv",
            csv_path,
        ]
    )
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["traceEvents"]
    for ev in doc["traceEvents"]:
        for key in CHROME_REQUIRED_KEYS:
            assert key in ev
    assert open(csv_path).readline().startswith("name,ph")
    text = capsys.readouterr().out
    assert "trace:" in text and "span" in text


def test_cli_trace_process_backend_multi_pid(tmp_path):
    from repro.cli import main

    out = str(tmp_path / "trace.json")
    code = main(
        ["trace", "--generate", "grid2d:10", "--backend", "process",
         "--workers", "2", "--out", out]
    )
    assert code == 0
    doc = json.loads(open(out).read())
    pids = {e["pid"] for e in doc["traceEvents"]}
    assert len(pids) >= 2
