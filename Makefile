# Convenience targets; everything is plain dune underneath.

.PHONY: all build test test-parallel test-parallel8 explain-golden trace-check chaos-smoke mem-smoke udf-smoke pool-smoke serve-smoke overload-smoke crash-smoke check bench bench-scaleup bench-faults bench-memory bench-udf bench-serve bench-overload bench-recovery perf clean

all: build

build:
	dune build

# Tier-1 suite. helpers.ml reads EMMA_TEST_DOMAINS (default 2), so this
# already exercises the multicore execution path.
test:
	dune runtest

# Same suite pinned to 4 domains — the configuration the determinism and
# fault-recovery tests are written against.
test-parallel:
	EMMA_TEST_DOMAINS=4 dune runtest --force

# And pinned to 8 domains: oversubscribed on most hosts, which is exactly
# the preemption-heavy schedule the work-stealing pool must stay
# deterministic under.
test-parallel8:
	EMMA_TEST_DOMAINS=8 dune runtest --force

# Golden-file checks for `emma explain` (part of the default `dune runtest`;
# this target runs just that suite). Regenerate intentionally-changed goldens
# with EMMA_UPDATE_GOLDEN=1 dune runtest --force.
explain-golden:
	dune exec test/test_main.exe -- test explain_golden

# Tracer well-formedness and cost-model-invariance properties (also part of
# the default `dune runtest`).
trace-check:
	dune exec test/test_main.exe -- test trace

# One seeded chaos scenario (fault injection + loop checkpointing) per
# example program; the engine must recover transparently or the alias fails.
chaos-smoke:
	dune build @chaos-smoke --force

# TPC-H Q1 and k-means under a tiny per-slot memory budget with spilling
# on: spill counters must move and results must stay bit-identical.
mem-smoke:
	dune build @mem-smoke --force

# TPC-H Q1 and Q3 in both UDF modes (interpreted oracle vs staged-compiled):
# results and cost-model metrics must be bit-identical.
udf-smoke:
	dune build @udf-smoke --force

# Short scheduling stress of the work-stealing pool at 8 oversubscribed
# domains: nested trees, tiny-batch churn, exception storm, legacy-pool
# differential.
pool-smoke:
	dune build @pool-smoke --force

# Multi-tenant service gate: deterministic replay fingerprint, plan-cache
# hits that never change a result, cache counters in every query's metrics.
serve-smoke:
	dune build @serve-smoke --force

# Robustness gate: Zipf burst under tight deadlines (nonzero sheds, no
# silent loss, fingerprint stable at 2 and 8 domains) plus a scripted
# circuit-breaker open/half-open/close cycle.
overload-smoke:
	dune build @overload-smoke --force

# Durability gate: SIGKILL journaled serve runs at scripted append
# indices (incl. a torn write, a snapshot-based recovery and a double
# crash), recover each, and require the replay fingerprint and journal
# bytes to match an uninterrupted run exactly.
crash-smoke:
	dune build @crash-smoke --force

# The full pre-merge flow: build, tier-1 tests on 2, 4 and 8 domains,
# chaos smoke, memory smoke, UDF-mode differential smoke, pool stress,
# service-layer smoke, crash-recovery smoke.
check: build test test-parallel test-parallel8 chaos-smoke mem-smoke udf-smoke pool-smoke serve-smoke overload-smoke crash-smoke

bench:
	dune exec bench/main.exe

# Multicore wall-clock scale-up experiment (1/2/4/8 domains).
bench-scaleup:
	dune build @bench-scaleup --force

# Chaos & recovery-overhead experiment (fault-rate and checkpoint sweeps).
bench-faults:
	dune build @bench-faults --force

# Memory-governance experiment (budget, spill, OOM and eviction sweeps).
bench-memory:
	dune exec bench/main.exe -- memory

# Staged-UDF-compilation wall-clock experiment (writes BENCH_udf_compile.json).
bench-udf:
	dune exec bench/main.exe -- udf

# Multi-tenant service experiment: plan cache on vs off under a Zipf
# arrival trace (writes BENCH_serve.json).
bench-serve:
	dune exec bench/main.exe -- serve

# Overload-control experiment: burst trace under deadline-aware shedding +
# degradation vs the policy-off serve (writes BENCH_overload.json).
bench-overload:
	dune exec bench/main.exe -- overload

# Crash-recovery experiment: exhaustive crash-point injection sweep over
# a journaled serve trace + recovery time with/without snapshots (writes
# BENCH_recovery.json).
bench-recovery:
	dune exec bench/main.exe -- recovery

# Wall-clock benchmark (perfbench/, see its README): every workload once
# at seed 1 with a 20 s timed phase and a traced pass, printing each
# workload's end-to-end metrics and, under them, the per-layer metrics
# named in PERF_LAYERS (set it to the layers a change should move; empty
# prints none). Fails when a run fails or its output check does. About
# two minutes.
PERF_WORKLOADS = iterative relational serve journal
PERF_LAYERS = engine.stage_self_s.source pool.tasks_run engine.tasks

perf:
	@for w in $(PERF_WORKLOADS); do \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 20 --trace 1 \
	  | awk -v layers="$(PERF_LAYERS)" \
	      'BEGIN { n = split(layers, l, " "); for (i = 1; i <= n; i++) want[l[i]] = 1 } \
	       /^workload |^FAIL/ { print } /^end-to-end/ { on = 1 } \
	       /^per-layer/ { on = 0; layer = 1; if (n) print } /^record / { layer = 0 } \
	       on || (layer && $$1 in want) { print } /^\{"correct": true/ { ok = 1 } END { exit !ok }' \
	  || exit 1; \
	done

clean:
	dune clean
