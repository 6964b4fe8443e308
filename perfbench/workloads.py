"""The benchmark's four workloads, each a closed loop from one client.

A workload owns its seeded inputs and the program state its ops run
against.  The harness in ``run.py`` times ``setup`` and ``op``; every
other method (``prepare``, ``check``, the traced variants) runs outside
the timed window.  The program is driven only through its public API.

Traced ops call the same layers one public function at a time, each
inside a benchmark span, so per-layer times come from outside the
library.  ``layer_walk`` visits every layer once on a workload's main
graph, so a traced run reports every per-layer metric even for layers
its ops do not reach.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

import inputs
from repro import APSPSession, DistanceServer, Graph, apsp
from repro.core import SharedPlanPool, parallel_superfw, superfw
from repro.ordering import amd_ordering, build_trail, nested_dissection
from repro.plan import analyze, structure_hash

#: Vertices per cold mesh: small enough that a run holds hundreds of ops.
MESH_N = 128
#: Barabási–Albert size, attachment count and graph count of ``warm_social``.
SOCIAL_N, SOCIAL_M, SOCIAL_GRAPHS = 256, 3, 4
#: Road regions (count and size) and pairs per ``query_many`` batch.
ROAD_REGIONS, ROAD_REGION_N, ROAD_BATCH = 4, 448, 16384
#: Distinct precomputed query batches ``serve_road`` cycles through.
ROAD_BATCHES = 16
#: Power-grid regions (count and size) of ``update_mix``.
GRID_REGIONS, GRID_REGION_N = 4, 128
#: ``update_mix`` cycle: windows of one increase tick then decrease ticks.
WINDOWS, DECREASE_TICKS, EDGES_PER_DECREASE = 4, 4, 2
#: Query batches (and their size) run after every ``update_mix`` commit.
TICK_QUERIES, TICK_BATCH = 3, 256
#: Structure seed of the graphs of ``warm_social``, ``serve_road`` and
#: ``update_mix``.  Their cost depends on structure alone, and structures
#: drawn from the run seed moved their medians by 8-22% from seed to
#: seed, so the run seed draws their weights, query pairs and updates.
STRUCTURE_SEED = 0


def reference_apsp(n: int, edges: np.ndarray) -> np.ndarray:
    """All-pairs distances from SciPy's Dijkstra: the exactness oracle."""
    mat = csr_matrix(
        (edges[:, 2], (edges[:, 0].astype(np.int64), edges[:, 1].astype(np.int64))),
        shape=(n, n),
    )
    return shortest_path(mat, method="D", directed=False)


def matrix_digest(dist: np.ndarray) -> str:
    """Bitwise digest of a distance matrix (``-0.0`` folded into ``0.0``)."""
    canon = np.ascontiguousarray(dist, dtype=np.float64) + 0.0
    return hashlib.sha256(canon.tobytes()).hexdigest()


def compare(what: str, actual, expected) -> list[str]:
    """Empty when ``actual`` equals ``expected`` exactly, else one note."""
    actual = np.asarray(actual)
    if actual.shape == np.shape(expected) and np.array_equal(actual, expected):
        return []
    return [f"{what}: output differs from the reference"]


def uniform_pairs(rng: np.random.Generator, n: int, size: int):
    return rng.integers(0, n, size), rng.integers(0, n, size)


# ----------------------------------------------------------------------
# Layer calls wrapped in spans.
# ----------------------------------------------------------------------
def traced_analyze(log, g):
    """``analyze(g)`` split at its public seams: key, ND, symbolic.

    ``analyze`` with a prebuilt ordering hashes the structure again, so
    the symbolic span records the key time beside it for subtraction.
    """
    with log.span("plan.analyze"):
        with log.span("plan.key") as key:
            structure_hash(g)
        with log.span("ordering.nd") as nd_span:
            nd = nested_dissection(g.with_weights(np.ones(g.weights.shape[0])))
        with log.span("symbolic") as sym:
            plan = analyze(g, ordering=nd.ordering)
    sym.attrs["key_ms"] = key.ms
    seps = [node.sep_size for node in nd.tree.iter_nodes() if not node.is_leaf]
    nd_span.attrs["max_separator"] = max(seps, default=0)
    sym.attrs["supernodes"] = int(plan.structure.ns)
    sym.attrs["fill_rows"] = int(sum(r.shape[0] for r in plan.snode_rows))
    return plan


def sweep_attrs(span, result) -> None:
    """Attach op and GEMM counters of a solve result to its span."""
    strategies = result.meta.get("engine", {}).get("strategies", {})
    span.attrs.update(
        ops=int(result.ops.total),
        gemm_calls=int(sum(s["calls"] for s in strategies.values())),
        gemm_ops=int(sum(s["ops"] for s in strategies.values())),
        gemm_seconds=float(sum(s["seconds"] for s in strategies.values())),
    )


def traced_commit(log, session, updates):
    """Stage ``updates``, commit, and record the router's forecast."""
    session.apply_updates(updates)
    with log.span("session.commit") as span:
        info = session.commit()
    span.attrs.update(
        decision=info.decision,
        predicted_s=info.predicted_seconds,
        actual_s=info.actual_seconds,
    )
    return info


def traced_queries(log, server, src, dst):
    """``DistanceServer.query_many`` inside a span."""
    with log.span("serve.frontend") as front:
        out = server.query_many(src, dst)
    return out, front


def join_probe(log, server, src, dst, front) -> np.ndarray:
    """The bare label join a ``query_many`` wraps, run again on its batch.

    Runs outside the op's span, so the frontend's own share of the call
    is the frontend span minus this join.
    """
    index = server.index
    with log.span("serve.join") as join:
        joined = index.query_many(src, dst)
    front.attrs["join_ms"] = join.ms
    return joined


def layer_walk(log, check, n: int, edges: np.ndarray, seed: int) -> None:
    """Visit every layer once on one graph; ``check`` receives failure notes.

    The walk covers layers a workload's ops do not reach: AMD and the
    reduction rules, the thread and process executors, the epoch write
    path and the serving tier.  Every output is compared with SciPy.
    """
    rng = np.random.default_rng([seed, 99])
    g = Graph.from_edges(n, edges)
    ref = reference_apsp(n, edges)
    pattern = g.with_weights(np.ones(g.weights.shape[0]))
    plan = traced_analyze(log, g)
    with log.span("ordering.amd"):
        amd_ordering(pattern)
    with log.span("ordering.reduce") as red:
        trail = build_trail(g)
    red.attrs["eliminated"] = int(trail.n_eliminated)
    with log.span("core.sweep") as sp:
        seq = superfw(g, plan=plan)
    sweep_attrs(sp, seq)
    check(compare("walk sweep", seq.dist, ref))
    with log.span("core.sweep.thread"):
        thr = parallel_superfw(g, plan=plan, backend="thread", num_workers=2)
    check(compare("walk thread sweep", thr.dist, seq.dist))
    with SharedPlanPool(plan, num_workers=2) as pool:
        # The first solve on a fresh pool also warms its workers.
        parallel_superfw(
            g, plan=plan, backend="process", num_workers=2, pool=pool
        )
        with log.span("core.sweep.process"):
            proc = parallel_superfw(
                g, plan=plan, backend="process", num_workers=2, pool=pool
            )
    check(compare("walk process sweep", proc.dist, seq.dist))

    with APSPSession(g, plan=plan) as session:
        session.solve()
        server = DistanceServer(session)
        with log.span("serve.index_build") as build:
            index = server.refresh()
        build.attrs.update(
            entries=int(index.entries), bytes=int(index.memory_bytes())
        )
        src, dst = uniform_pairs(rng, n, ROAD_BATCH)
        out, front = traced_queries(log, server, src, dst)
        joined = join_probe(log, server, src, dst, front)
        check(compare("walk queries", out, ref[src, dst]))
        check(compare("walk join", joined, ref[src, dst]))
        # One increase (re-solve) then one decrease back (fold).
        e = int(rng.integers(edges.shape[0]))
        u, v, w = int(edges[e, 0]), int(edges[e, 1]), float(edges[e, 2])
        for new_w, expect in ((w + 1.0, "resolve"), (w, "fold")):
            info = traced_commit(log, session, [(u, v, new_w)])
            moved = edges.copy()
            moved[e, 2] = new_w
            check(compare("walk commit", session.dist, reference_apsp(n, moved)))
            if info.decision != expect:
                check([f"walk commit routed to {info.decision}, not {expect}"])


# ----------------------------------------------------------------------
# Workloads.
# ----------------------------------------------------------------------
class Workload:
    """Shared bookkeeping; subclasses fill in inputs, setup and ops."""

    name = ""
    setup_reps = 3
    #: Stateless ops can run twice on one input (traced and untraced).
    stateless = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.recorded: list[tuple[str, int, int, str]] = []

    def fixed_graph(self, make, tag: int) -> tuple[int, np.ndarray]:
        """``make``'s graph at ``STRUCTURE_SEED``, reweighted from the run seed."""
        n, edges = make(np.random.default_rng([STRUCTURE_SEED, tag]))
        edges = edges.copy()
        edges[:, 2] = inputs.dyadic_weights(
            np.random.default_rng([self.seed, tag]), edges.shape[0]
        )
        self.record(f"graph[{tag}]", n, edges)
        return n, edges

    def record(self, role: str, n: int, edges: np.ndarray) -> None:
        self.recorded.append((role, n, int(edges.shape[0]), inputs.digest(edges)))

    def walk(self, log, check) -> None:
        n, edges = self.main_graph()
        layer_walk(log, check, n, edges, self.seed)

    def router_counts(self) -> dict[str, int] | None:
        """Per-cycle router decisions when the ops commit, else ``None``."""
        return None


class ColdMesh(Workload):
    """``apsp(g)`` with defaults on a fresh planar mesh per op."""

    name = "cold_mesh"
    setup_reps = 5

    def mesh(self, role: int, i: int) -> tuple[int, np.ndarray]:
        rng = np.random.default_rng([self.seed, 0, role, i])
        return inputs.delaunay_mesh(rng, MESH_N)

    def main_graph(self):
        # The layer walk's counts then repeat exactly on every seed.
        return inputs.delaunay_mesh(np.random.default_rng([STRUCTURE_SEED, 0]), MESH_N)

    def setup(self, rep: int) -> None:
        n, edges = self.mesh(1, rep)
        self.setup_out = (n, edges, apsp(Graph.from_edges(n, edges)).dist)

    def check_setup(self) -> list[str]:
        n, edges, dist = self.setup_out
        return compare("setup apsp", dist, reference_apsp(n, edges))

    def prepare(self, i: int):
        n, edges = self.mesh(0, i)
        self.record("op", n, edges)
        return n, edges

    def op(self, inp):
        n, edges = inp
        return apsp(Graph.from_edges(n, edges)).dist, n * n

    def traced_op(self, inp, log):
        n, edges = inp
        with log.span("op"):
            g = Graph.from_edges(n, edges)
            plan = traced_analyze(log, g)
            with log.span("core.sweep") as sp:
                result = superfw(g, plan=plan)
        sweep_attrs(sp, result)
        # Off the op's path (not a default yet), on the same mesh.
        with log.span("ordering.amd"):
            amd_ordering(g.with_weights(np.ones(g.weights.shape[0])))
        with log.span("ordering.reduce"):
            build_trail(g)
        return result.dist, n * n

    def check(self, inp, out) -> list[str]:
        n, edges = inp
        return compare("apsp", out, reference_apsp(n, edges))


class WarmSocial(Workload):
    """``session.solve(weights)`` on cached plans, fresh weights per op.

    The client holds ``SOCIAL_GRAPHS`` sessions, one per graph, and its
    ops visit them in turn, so a run's latencies mix several structures.
    """

    name = "warm_social"
    setup_reps = 3

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.graphs = [
            self.fixed_graph(
                lambda r: inputs.barabasi_albert(r, SOCIAL_N, SOCIAL_M), 10 + k
            )
            for k in range(SOCIAL_GRAPHS)
        ]

    def main_graph(self):
        return self.graphs[0]

    def setup(self, rep: int) -> None:
        self.sessions = [
            APSPSession(Graph.from_edges(n, edges)) for n, edges in self.graphs
        ]
        self.setup_dists = [s.solve().dist for s in self.sessions]

    def check_setup(self) -> list[str]:
        return [
            note
            for (n, edges), dist in zip(self.graphs, self.setup_dists)
            for note in compare("setup solve", dist, reference_apsp(n, edges))
        ]

    def prepare(self, i: int):
        k = i % SOCIAL_GRAPHS
        n, edges = self.graphs[k]
        edges = edges.copy()
        edges[:, 2] = inputs.dyadic_weights(
            np.random.default_rng([self.seed, 1, k, i]), edges.shape[0]
        )
        return k, edges, Graph.from_edges(n, edges)

    def op(self, inp):
        k, _, g = inp
        return self.sessions[k].solve(g.weights).dist, g.n * g.n

    def traced_op(self, inp, log):
        k, _, g = inp
        with log.span("op"):
            with log.span("core.sweep") as sp:
                result = superfw(g, plan=self.sessions[k].plan)
        sweep_attrs(sp, result)
        return result.dist, g.n * g.n

    def check(self, inp, out) -> list[str]:
        _, edges, g = inp
        return compare("solve", out, reference_apsp(g.n, edges))


class ServeRoad(Workload):
    """Read-only batched ``query_many`` on a road-like graph of linked regions."""

    name = "serve_road"
    setup_reps = 3

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng([seed, 2])
        self.n, self.edges = self.fixed_graph(
            lambda r: inputs.linked_regions(
                lambda q: inputs.road_network(q, ROAD_REGION_N), r, ROAD_REGIONS
            ),
            2,
        )
        ref = reference_apsp(self.n, self.edges)
        self.ref_digest = matrix_digest(ref)
        self.batches = []
        for _ in range(ROAD_BATCHES):
            src, dst = uniform_pairs(rng, self.n, ROAD_BATCH)
            self.batches.append((src, dst, ref[src, dst]))
        del ref

    def main_graph(self):
        return self.n, self.edges

    def setup(self, rep: int) -> None:
        if getattr(self, "server", None) is not None:
            self.server.close()
        self.server = DistanceServer(Graph.from_edges(self.n, self.edges))
        self.server.refresh()

    def check_setup(self) -> list[str]:
        if matrix_digest(self.server.session.dist) == self.ref_digest:
            return []
        return ["setup epoch: output differs from the reference"]

    def prepare(self, i: int):
        return self.batches[i % ROAD_BATCHES]

    def op(self, inp):
        src, dst, _ = inp
        return self.server.query_many(src, dst), ROAD_BATCH

    def traced_op(self, inp, log):
        src, dst, _ = inp
        with log.span("op"):
            out, front = traced_queries(log, self.server, src, dst)
        join_probe(log, self.server, src, dst, front)
        return out, ROAD_BATCH

    def check(self, inp, out) -> list[str]:
        return compare("query_many", out, inp[2])


class UpdateMix(Workload):
    """Commit ticks beside reads on a power grid of linked regions.

    The input is a cycle of ``WINDOWS`` windows.  A window opens with an
    increase tick that raises ``DECREASE_TICKS * EDGES_PER_DECREASE``
    edges (a weight increase forces a warm re-solve), then runs
    ``DECREASE_TICKS`` decrease-only ticks that each lower
    ``EDGES_PER_DECREASE`` of them back (the router folds them).  Every
    window ends at the original weights, so the cycle repeats exactly
    and the expected epoch and query answers of every tick are computed
    once, before set-up.  The first tick re-solves, which calibrates the
    router's re-solve rate before any fold is priced.
    """

    name = "update_mix"
    setup_reps = 5
    stateless = False

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng([seed, 3])
        self.n, self.edges = self.fixed_graph(
            lambda r: inputs.linked_regions(
                lambda q: inputs.power_grid(q, GRID_REGION_N), r, GRID_REGIONS
            ),
            3,
        )
        w0 = self.edges[:, 2]
        self._weights = w0.copy()
        per_window = DECREASE_TICKS * EDGES_PER_DECREASE
        self.ticks = []  # (updates, expected decision, digest, queries)
        for _ in range(WINDOWS):
            picks = rng.choice(self.edges.shape[0], per_window, replace=False)
            raised = w0[picks] + rng.integers(1, 17, per_window) / inputs.WEIGHT_QUANTUM
            self._add_tick(rng, picks, raised, "resolve")
            for t in range(DECREASE_TICKS):
                part = picks[t * EDGES_PER_DECREASE:(t + 1) * EDGES_PER_DECREASE]
                self._add_tick(rng, part, w0[part], "fold")

    def _add_tick(self, rng, picks, new_w, decision) -> None:
        self._weights[picks] = new_w
        updates = [
            (int(self.edges[e, 0]), int(self.edges[e, 1]), float(w))
            for e, w in zip(picks, new_w)
        ]
        edges = self.edges.copy()
        edges[:, 2] = self._weights
        ref = reference_apsp(self.n, edges)
        queries = []
        for _ in range(TICK_QUERIES):
            src, dst = uniform_pairs(rng, self.n, TICK_BATCH)
            queries.append((src, dst, ref[src, dst]))
        self.ticks.append((updates, decision, matrix_digest(ref), queries))

    @property
    def cycle(self) -> int:
        return len(self.ticks)

    def main_graph(self):
        return self.n, self.edges

    def setup(self, rep: int) -> None:
        if getattr(self, "server", None) is not None:
            self.server.close()
            self.session.close()
        self.session = APSPSession(Graph.from_edges(self.n, self.edges))
        self.server = DistanceServer(self.session)
        self.server.refresh()
        self.decisions: list[str] = []

    def check_setup(self) -> list[str]:
        if matrix_digest(self.session.dist) == matrix_digest(
            reference_apsp(self.n, self.edges)
        ):
            return []
        return ["setup epoch: output differs from the reference"]

    def prepare(self, i: int):
        return i, self.ticks[i % self.cycle]

    def op(self, inp):
        _, (updates, _, _, queries) = inp
        self.session.apply_updates(updates)
        info = self.session.commit()
        answers = [self.server.query_many(src, dst) for src, dst, _ in queries]
        return (info.decision, answers), self._distances()

    def traced_op(self, inp, log):
        _, (updates, _, _, queries) = inp
        with log.span("op"):
            info = traced_commit(log, self.session, updates)
            with log.span("serve.index_build") as build:
                index = self.server.refresh()
            answered = [
                traced_queries(log, self.server, src, dst)
                for src, dst, _ in queries
            ]
        for (src, dst, _), (_, front) in zip(queries, answered):
            join_probe(log, self.server, src, dst, front)
        answers = [out for out, _ in answered]
        build.attrs.update(
            entries=int(index.entries), bytes=int(index.memory_bytes())
        )
        return (info.decision, answers), self._distances()

    def _distances(self) -> int:
        return self.n * self.n + TICK_QUERIES * TICK_BATCH

    def check(self, inp, out) -> list[str]:
        i, (_, decision, digest, queries) = inp
        got_decision, answers = out
        self.decisions.append(got_decision)
        notes = []
        if got_decision != decision:
            notes.append(f"tick {i}: routed to {got_decision}, input implies {decision}")
        if matrix_digest(self.session.dist) != digest:
            notes.append(f"tick {i}: epoch differs from the reference")
        for (_, _, expected), got in zip(queries, answers):
            notes += compare(f"tick {i} query_many", got, expected)
        return notes

    def router_counts(self) -> dict[str, int] | None:
        first = self.decisions[: self.cycle]
        return {"fold": first.count("fold"), "resolve": first.count("resolve")}


WORKLOADS = {w.name: w for w in (ColdMesh, WarmSocial, ServeRoad, UpdateMix)}
