.PHONY: all build test analyze bench bench-smoke bench-check bench-datalog bench-maintain-par bench-maintain-shard bench-maintain-count bench-serve perf-selftest model-check model-check-smoke ci clean

all: build

build:
	dune build @all

# OCAMLRUNPARAM=b: backtraces from any executor failure inside the
# stress matrix (test/test_parallel.ml runs up to 8 domains per case)
test: model-check-smoke
	OCAMLRUNPARAM=b dune runtest

# static analysis of every example program: strata, effect sets,
# ownership verification, maintenance advice; exits non-zero on lint
# errors (warnings pass)
analyze:
	@for f in examples/*.dl; do \
	  echo "== $$f"; \
	  dune exec bin/dms.exe -- analyze $$f || exit 1; \
	done

# exhaustive bounded model checking of the executor's concurrency
# protocols (lib/analysis); needs the instrumented Vatomic, hence the
# analysis profile. The smoke variant is part of `make test`.
model-check:
	dune exec --profile analysis bin/model_check.exe

model-check-smoke:
	dune exec --profile analysis bin/model_check.exe -- --smoke

bench:
	dune exec bench/main.exe

# compiled plans vs the interpreter: materialization + maintenance
# batches on twin databases, plus the executor-composed row; writes
# BENCH_datalog.json
bench-datalog:
	dune exec bench/main.exe -- datalog

# real parallel DRed maintenance (Incremental.apply_parallel) vs the
# serial walk at 2/4/8 worker domains, with a database-parity assert
# on every configuration; writes BENCH_maintain_par.json
bench-maintain-par:
	dune exec bench/main.exe -- maintain-par

# intra-component parallelism: the shards x domains grid on a single
# big-SCC workload, database-parity asserted on every cell; writes
# BENCH_maintain_shard.json
bench-maintain-shard:
	dune exec bench/main.exe -- maintain-shard

# counting vs DRed maintenance on deletion-heavy update streams, with
# a database-parity assert on every program x mix cell; writes
# BENCH_maintain_count.json
bench-maintain-count:
	dune exec bench/main.exe -- maintain-count

# sustained update-server throughput: open-loop replay of a synthetic
# update stream through Server.Engine in sync and async (coalescing)
# modes, parity-asserted against a one-shot Incr_sched.update twin;
# writes BENCH_serve.json
bench-serve:
	dune exec bench/main.exe -- serve

# tiny traces through the full dispatch matrix (both executors, all
# domain counts, Executor.check everywhere), a small compiled-vs-
# interpreter pass, a 2-domain parallel-maintenance parity pass, the
# sharded-maintenance parity grid, the counting-vs-DRed parity grid,
# and the update-server replay (parity against a one-shot twin);
# seconds; writes BENCH_*_smoke.json into the current directory
bench-smoke:
	dune exec bench/main.exe -- dispatch-smoke datalog-smoke maintain-par-smoke maintain-shard-smoke maintain-count-smoke serve-smoke

# compare the BENCH_*_smoke.json of the last `make bench-smoke` against
# the committed baselines: fails on parity drift (task/tuple/changed
# counts, workload structure), never on timing noise — policy in
# EXPERIMENTS.md. Refresh baselines by copying the fresh files over
# tools/baselines/ when a change legitimately moves the counts.
bench-check:
	dune exec tools/bench_check.exe -- --baseline tools/baselines --fresh .

# the perf ledger's own self-test at smoke size (about a minute): every
# workload passes its from-scratch oracle check and reports exactly the
# metrics BENCHMARK.json declares, and a perturbed oracle fails the run
perf-selftest:
	python3 perfbench/selftest.py

# what .github/workflows/ci.yml runs per compiler
ci: build test analyze bench-smoke bench-check perf-selftest

clean:
	dune clean
