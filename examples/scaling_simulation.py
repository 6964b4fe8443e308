"""Parallel-scaling what-if: the work-depth simulator as a design tool.

Run:  python examples/scaling_simulation.py

The simulator behind Figs. 7-8 is exposed as a library: extract an
algorithm's task DAG, price it with the machine model the update router
and the supernode amalgamation use, and ask "how would this scale on p
cores?"  Useful for sizing supernode amalgamation and for seeing why
etree parallelism matters most on small problems.
"""

from __future__ import annotations

from repro import analyze, generators
from repro.parallel.scheduler import simulate_levels, simulate_sequence
from repro.parallel.tasks import superfw_levels
from repro.plan.router import DEFAULT_MACHINE


def main() -> None:
    model = DEFAULT_MACHINE
    print(f"machine model: {model.ops_per_second / 1e9:.2f} Gop/s per core, "
          f"{model.seconds_per_task * 1e6:.0f} us per supernode task\n")

    for n, label in ((300, "small"), (1200, "large")):
        g = generators.delaunay_mesh(n, seed=0)
        plan = analyze(g, seed=0)
        levels = superfw_levels(plan.structure)
        flat = [t for lv in levels for t in lv]
        print(f"--- {label} mesh (n={g.n}, {plan.structure.ns} supernodes) ---")
        print(f"{'p':>4s} {'etree speedup':>14s} {'no-etree speedup':>17s} {'benefit':>8s}")
        t1 = simulate_sequence(flat, 1, model)
        for p in (1, 2, 4, 8, 16, 32, 64):
            with_etree = t1 / simulate_levels(levels, p, model)
            without = t1 / simulate_sequence(flat, p, model)
            print(f"{p:4d} {with_etree:14.2f} {without:17.2f} {with_etree / without:8.2f}")
        print()

    print("takeaway: the etree benefit is largest where per-supernode work is\n"
          "too small to feed all cores — exactly the paper's Fig. 8 finding.")


if __name__ == "__main__":
    main()
