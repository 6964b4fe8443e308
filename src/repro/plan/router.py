"""Cost-model router: fold vs warm re-solve vs re-analysis, per commit.

Every :meth:`~repro.plan.session.APSPSession.commit` has three ways to
reach the next epoch:

* **fold** — the rank-k terminal-closure fold
  (:func:`repro.core.incremental.apply_batch_improvements`): exact only
  when every effective update is a decrease (inserts count — they
  decrease from ``inf``), and cheap only while the terminal set stays
  small;
* **resolve** — a warm re-solve on the cached plan (handles increases;
  requires an unchanged structure);
* **reanalyze** — re-analysis plus a solve (only an insert can force
  this, because only an insert changes the pattern).

The router prices the legal candidates with a calibrated machine model and
picks the cheapest.  Solve cost is the plan's exact SuperFW op count
(:func:`~repro.symbolic.structure.superfw_snode_ops`), and fold cost
comes from the rank-k shape ``2(p³ + np² + pn²)``.  Ops convert to
seconds through the one :class:`MachineModel` — the formula
``ordering="auto"``, the supernode amalgamation and the Figs. 7–8
scaling simulator price supernodes by too.  Every path starts at
:data:`DEFAULT_MACHINE`'s rate and is then EWMA-calibrated from each
commit's measured ops and seconds, so predictions track the machine the
session is actually running on.
Decisions and predicted/actual costs land in ``APSPResult.meta["router"]``
and the ``router.*`` obs metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.obs import get_tracer
from repro.symbolic.structure import superfw_snode_ops


@dataclass(frozen=True)
class MachineModel:
    """The one machine model: a rate per scalar op and a cost per task.

    A task is one unit of sequential dispatch — a supernode elimination
    of the sweep, a rank-k fold, a bucket round of Δ-stepping — whose
    fixed cost (Python and kernel dispatch) no processor count divides.
    """

    ops_per_second: float
    seconds_per_task: float

    def seconds(self, ops, tasks=1, procs=1):
        """``tasks · seconds_per_task + ops / (ops_per_second · procs)``.

        ``ops`` may be an array (one price per entry).  At ``procs=1``
        this is ``ops / rate + tasks · overhead`` to the bit.
        """
        return tasks * self.seconds_per_task + ops / (self.ops_per_second * procs)


#: Min-plus throughput (scalar semiring ops / second) and fixed
#: dispatch cost per supernode of a sweep: a least-squares fit of
#: :func:`sweep_seconds` to 56 warm ``superfw`` solves (7 suite graphs at
#: size factors 0.25 and 0.5, ND and AMD, with and without reductions)
#: on a 2-core Intel Xeon with NumPy 2.4.  The per-supernode cost is why
#: a solve on tiny supernodes (planar separators) does not look as cheap
#: as a rank-1 fold.  Every router path starts at this rate.
DEFAULT_MACHINE = MachineModel(ops_per_second=4.0e8, seconds_per_task=2.5e-4)

#: EWMA smoothing for observed rates (higher = adapt faster).
EWMA_ALPHA = 0.5

#: Fixed cost of one rank-k fold (terminal gather + three GEMM calls).
FOLD_OVERHEAD_SECONDS = 2e-4


@dataclass
class RouterDecision:
    """One routing choice plus the forecasts it was based on."""

    action: str
    reason: str
    k: int
    terminals: int
    predicted_ops: dict[str, float] = field(default_factory=dict)
    predicted_seconds: dict[str, float] = field(default_factory=dict)

    def record(self) -> dict[str, Any]:
        """JSON-friendly form for ``APSPResult.meta["router"]``."""
        return {
            "decision": self.action,
            "reason": self.reason,
            "k": self.k,
            "terminals": self.terminals,
            "predicted_ops": {
                k: float(v) for k, v in self.predicted_ops.items()
            },
            "predicted_seconds": {
                k: round(float(v), 6) for k, v in self.predicted_seconds.items()
            },
        }


def sweep_seconds(ops, snodes: int, rate: float = DEFAULT_MACHINE.ops_per_second):
    """Seconds of one sequential sweep of ``snodes`` supernodes at ``rate``."""
    return replace(DEFAULT_MACHINE, ops_per_second=rate).seconds(ops, snodes)


def fold_ops_estimate(n: int, p: int) -> float:
    """Semiring-op estimate for a rank-k fold with ``p`` terminals."""
    # p³ closure + (n×p)·(p×p) + (n×p)·(p×n) products + the n² compare.
    return 2.0 * (p**3 + n * p * p + p * n * n) + n * n


class UpdateRouter:
    """Prices commit strategies and learns the machine's actual rates."""

    def __init__(self, plan=None) -> None:
        self._rates: dict[str, float] = {}
        self.decisions: dict[str, int] = {}
        self._solve_ops: float | None = None
        self._snodes = 0
        self._analyze_seconds = 0.0
        if plan is not None:
            self.bind_plan(plan)

    # -- calibration ---------------------------------------------------
    def bind_plan(self, plan) -> None:
        """(Re)fit the solve estimate to a plan's exact op count."""
        self._solve_ops = float(superfw_snode_ops(plan.structure).sum())
        self._snodes = int(plan.structure.ns)
        measured = plan.preprocessing_seconds()
        if measured > 0:
            self._analyze_seconds = measured

    def rate(self, action: str) -> float:
        """Current ops/second estimate for one execution path."""
        return self._rates.get(action, DEFAULT_MACHINE.ops_per_second)

    def observe(self, action: str, ops: float, seconds: float) -> None:
        """Fold a measured commit back into the rate for its path."""
        if ops <= 0 or seconds <= 0:
            return
        key = "fold" if action == "fold" else "resolve"
        observed = ops / seconds
        prior = self._rates.get(key)
        self._rates[key] = (
            observed if prior is None
            else EWMA_ALPHA * observed + (1.0 - EWMA_ALPHA) * prior
        )

    # -- decisions -----------------------------------------------------
    def decide(
        self,
        *,
        n: int,
        k: int,
        terminals: int,
        increases: int,
        inserts: int,
        have_epoch: bool,
        have_plan: bool,
    ) -> RouterDecision:
        """Choose fold / resolve / reanalyze for one resolved batch."""
        ops = {
            "fold": fold_ops_estimate(n, terminals),
            "resolve": self._solve_ops if self._solve_ops else 2.0 * n**3,
        }
        secs = {
            "fold": MachineModel(
                self.rate("fold"), FOLD_OVERHEAD_SECONDS
            ).seconds(ops["fold"]),
            "resolve": sweep_seconds(
                ops["resolve"], self._snodes, self.rate("resolve")
            ),
        }
        if inserts:
            # Only an insert changes the pattern: re-analysis pays the
            # analyze phase again on top of the solve.
            ops["reanalyze"] = ops["resolve"]
            secs["reanalyze"] = secs["resolve"] + self._analyze_seconds
        fold_legal = have_epoch and increases == 0
        if not fold_legal:
            if inserts:
                action, reason = "reanalyze", (
                    "insert changes the pattern and the batch cannot fold"
                    if increases else "no epoch to fold into"
                )
            else:
                action, reason = "resolve", (
                    "weight increases invalidate folded paths"
                    if increases else "no epoch to fold into"
                )
        elif inserts:
            if secs["fold"] <= secs["reanalyze"]:
                action, reason = "fold", (
                    "insert folds exactly (decrease from inf); "
                    "plan re-analyzed lazily"
                )
            else:
                action, reason = "reanalyze", (
                    "large insert batch: re-analysis beats a "
                    f"{terminals}-terminal fold"
                )
        elif not have_plan:
            # Structure already dirty from an earlier fold-with-insert:
            # folding again stays exact and defers the re-analysis.
            if secs["fold"] <= secs["resolve"] + self._analyze_seconds:
                action, reason = "fold", "plan already invalidated; fold defers re-analysis"
            else:
                action, reason = "resolve", "fold too wide; re-analyze now"
        elif secs["fold"] <= secs["resolve"]:
            action, reason = "fold", (
                f"{terminals} terminals ≪ n={n}: rank-k fold beats a warm solve"
            )
        else:
            action, reason = "resolve", (
                f"{terminals}-terminal fold costs more than a warm solve"
            )
        self.decisions[action] = self.decisions.get(action, 0) + 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.metric_inc(f"router.decision.{action}")
            tracer.metrics.observe("router.predicted_s", secs.get(action, 0.0))
        return RouterDecision(
            action=action,
            reason=reason,
            k=k,
            terminals=terminals,
            predicted_ops=ops,
            predicted_seconds=secs,
        )

    def stats(self) -> dict[str, Any]:
        """Decision counts and current calibrated rates."""
        return {
            "decisions": dict(self.decisions),
            "rates": {k: round(v, 1) for k, v in self._rates.items()},
            "solve_ops": self._solve_ops,
            "analyze_seconds": round(self._analyze_seconds, 6),
        }
