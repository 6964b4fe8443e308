# Convenience targets for the supernodal-APSP reproduction.

PYTHON ?= python
SIZE   ?= 0.5

.PHONY: install test faults chaos bench bench-engine bench-plan bench-obs bench-resilience bench-dynamic bench-query bench-ordering results-check trace docs-check experiments examples clean all

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Resilience suite under a small matrix of fault-injection seeds.
faults:
	@for seed in 0 1 2; do \
		echo "== REPRO_FAULT_SEED=$$seed =="; \
		REPRO_FAULT_SEED=$$seed $(PYTHON) -m pytest tests/test_resilience.py -q || exit 1; \
	done

# Supervised process backend under worker kills/hangs/shm detaches,
# plus the clean-solve supervision-overhead gate (<3%).
chaos:
	$(PYTHON) -m pytest tests/test_supervisor.py -q
	PYTHONPATH=src $(PYTHON) benchmarks/bench_resilience.py --quick --check

bench:
	REPRO_SIZE_FACTOR=$(SIZE) $(PYTHON) -m pytest benchmarks/ --benchmark-only

# SemiringGemm engine kernel vs the seed kernel -> BENCH_engine.json.
bench-engine:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_engine.py --check

# Cold analyze+solve vs warm plan-reusing solves -> BENCH_plan.json.
bench-plan:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_plan.py --check

# Disabled-tracer overhead gate (<5%) -> BENCH_obs.json.
bench-obs:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_obs.py --check

# Supervision overhead + recovery/checkpoint timings -> BENCH_resilience.json.
bench-resilience:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_resilience.py --check

# Batched epoch commits vs per-edge updates, router sanity, and the
# chaos degradation path -> BENCH_dynamic.json.
bench-dynamic:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_dynamic.py --check

# Hub-label index build cost, batched query throughput (>=1e5 q/s), and
# exactness vs the full matrix incl. after a commit -> BENCH_query.json.
bench-query:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_query.py --check

# Reduction + ordering-autoselect ablation: |S|/fill/cold-time deltas for
# {none, reduce+nd, reduce+amd, auto} -> BENCH_ordering.json.
bench-ordering:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_ablation_ordering.py --check

# The deterministic results tables (work/depth, the Figs 7-8 simulator,
# the alpha-beta model) must regenerate byte for byte; tables that hold
# wall-clock timings are left out by name.
RESULTS_CHECKED = results/table2_work_depth.txt results/fig7_strong_scaling.txt \
	results/fig8_etree_parallelism.txt results/communication_alpha_beta.txt

results-check:
	PYTHONPATH=src REPRO_SIZE_FACTOR=$(SIZE) $(PYTHON) -m pytest -q --benchmark-only \
		benchmarks/bench_table2_workdepth.py::test_table2 \
		benchmarks/bench_fig7_scaling.py benchmarks/bench_fig8_etree.py \
		benchmarks/bench_communication.py
	git diff --exit-code -- $(RESULTS_CHECKED)

# One traced process-backend solve -> trace.json (open in ui.perfetto.dev).
trace:
	PYTHONPATH=src $(PYTHON) -m repro trace --generate grid2d:16 \
		--method parallel-superfw --backend process --workers 2 \
		--out trace.json

# Fail when README's CLI flag table drifts from the real --help surface.
docs-check:
	$(PYTHON) scripts/docs_check.py

# Regenerate every paper table/figure; tables land in results/.
experiments:
	$(PYTHON) -m repro experiment all --size-factor $(SIZE) --save

examples:
	@for ex in examples/*.py; do \
		echo "== $$ex =="; \
		$(PYTHON) $$ex || exit 1; \
	done

clean:
	rm -rf results .pytest_cache src/repro.egg-info
	find . -name __pycache__ -type d -prune -exec rm -rf {} +

all: install test bench experiments
