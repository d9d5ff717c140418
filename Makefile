# Convenience targets for the reproduction.

PY ?= python

.PHONY: install test bench bench-full repo-bench repo-bench-compare ab-digest reach reproduce examples loc clean

install:
	$(PY) setup.py develop

test:
	$(PY) -m pytest tests/

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

# paper-scale evaluation (hours of CPU; the paper ran 3600 s x 33 reps)
bench-full:
	REPRO_BENCH_DURATION=3600 REPRO_BENCH_REPS=33 $(PY) -m pytest benchmarks/ --benchmark-only

# the repo benchmark (BENCHMARK.json): make repo-bench OUT=change.json
OUT ?= results/repo-bench.json
repo-bench:
	mkdir -p $(dir $(OUT))
	python3 bench/run.py --out $(OUT)

# judge two such documents: make repo-bench-compare A=parent.json B=change.json
repo-bench-compare:
	python3 bench/run.py --compare $(A) $(B)

# one sha256 per 300 s seed-1 run: equal output at two commits = bit-identical runs
ab-digest:
	@$(PY) scripts/ab_digest.py

# every src/repro function a run path calls, or pinned with a reason
reach:
	@$(PY) scripts/reach.py

reproduce:
	$(PY) scripts/generate_experiments_md.py

examples:
	for f in examples/*.py; do echo "== $$f"; REPRO_EXAMPLE_SCALE=0.2 $(PY) $$f; done

# lines of python per code directory: the size figures simplicity work quotes
LOC_DIRS = src tests bench benchmarks scripts
loc:
	@for d in $(LOC_DIRS); do \
		printf '%-12s %6d\n' "$$d/" "$$(find $$d -name '*.py' -exec cat {} + | wc -l)"; \
	done

clean:
	rm -rf .pytest_cache src/repro.egg-info bench/.work-*
	find . -name __pycache__ -type d -exec rm -rf {} +
