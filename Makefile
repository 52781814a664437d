# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-short race check chaos chaos-net bench bench-smoke fuzz fuzz-smoke cover vet fmt fmt-check perfbench-check examples-check deps-check experiments clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# Tier-1 gate: build + full tests, gofmt (any unformatted file fails),
# vet (plus staticcheck when it is on PATH — it is not vendored, so its
# absence only prints a notice),
# race-enabled tests for the concurrent packages (server, plan cache,
# db store, core worker pool, db index, trace ring), the seeded
# differential fuzz corpus, the coverage floors, a one-iteration
# smoke run of the evaluation benchmarks plus the BENCH_eval.json
# freshness gate, the perfbench module's vet and tests, a run of
# every example program, and the cqa-serve dependency check.
check: build fmt-check test bench-smoke fuzz-smoke cover chaos-net perfbench-check examples-check deps-check
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipping"; fi
	$(GO) test -race ./internal/server ./internal/plancache ./internal/store ./internal/core ./internal/db ./internal/rewrite ./internal/trace ./internal/shard ./internal/sym ./internal/colstore ./internal/counting

# Chaos gate: the fault-injection, cancellation, deadline, budget,
# shedding, and goroutine-leak suites under the race detector. This is
# the robustness counterpart of `check` — everything here exercises the
# degraded paths (injected panics, tripped budgets, saturated admission)
# rather than the happy path.
chaos:
	$(GO) test -race ./internal/faultinject ./internal/evalctx
	$(GO) test -race -run 'Cancel|Deadline|Budget|Leak|Fault|Shedding|Draining|Liveness|Readiness|Degrad|Unavailable' ./internal/core ./internal/server ./internal/counting ./internal/conp ./internal/match ./internal/ptime
	$(GO) test -race -run 'Crash|Races|Fallback|CommitFault' ./internal/store

# Network-chaos gate: the remote shard tier under the race detector —
# the simulated-fault transport suites (crashes, one-way partitions,
# stragglers, breaker trips) plus the 520-case differential corpus
# replayed through the router under a rotating kill/slow/partition
# schedule, and the cluster-routed HTTP paths. Part of `check`: a
# router that loses exactness under faults must not ship.
chaos-net:
	$(GO) test -race ./internal/cluster
	$(GO) test -race -run 'Cluster|ShardEval' ./internal/server

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of the E-index evaluation benchmarks, of the
# polynomial engine's gpurification and q0 benchmarks, of the coNP
# engine's planted-SAT benchmark and of the repair counter on the
# serving benchmark's count shape (verifies the compiled-plan,
# worker-pool, Theorem 4, repair-search and counting paths still run
# end to end without paying for a full timed sweep), then the
# BENCH_eval.json freshness gate: regenerate a quick report into a
# temporary file of its own (so concurrent runs in two checkouts do not
# clobber each other's), validate both it and the checked-in artifact
# against the current harness shape, and remove the temporary report
# however the target ends.
bench-smoke:
	$(GO) test -run='^$$' -bench='CertainAcyclic|CertainAnswersPool|GPurify|CertainPTimeQ0n100$$|CertainCoNPPlantedSAT|CountServeHardShape' -benchtime=1x .
	@report=$$(mktemp -t cqa_eval_smoke.XXXXXX) && trap 'rm -f "$$report"' EXIT && \
		echo "bench-smoke: eval report $$report" && \
		$(GO) run ./cmd/cqa-bench -quick -evaljson "$$report" && \
		$(GO) run ./cmd/cqa-bench -quick -evalcheck "$$report"
	$(GO) run ./cmd/cqa-bench -evalcheck BENCH_eval.json

fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/query/
	$(GO) test -fuzz=FuzzParseFact -fuzztime=30s ./internal/db/
	$(GO) test -fuzz=FuzzDifferential -fuzztime=30s ./internal/difftest/
	$(GO) test -fuzz=FuzzCounting -fuzztime=30s ./internal/difftest/

# Deterministic slice of the fuzz suite: the seeded differential corpora
# (>= 500 generated instances each for the decision engines and the
# repair-counting engine, checked against the brute-force oracle) plus a
# replay of the checked-in fuzz seed corpora. No live fuzzing — this is
# the `check` gate; use `make fuzz` for a real exploration burst.
fuzz-smoke:
	$(GO) test -run 'TestDifferentialSeeded|TestCountingDifferential|FuzzDifferential|FuzzCounting' ./internal/difftest/

vet:
	$(GO) vet ./...
	gofmt -l .

# The serving benchmark is a module of its own (replace cqa => ../), so
# neither `go test ./...` nor `go vet ./...` here compiles it: vet and
# test it in its own directory, so a core/store change that breaks
# perfbench/replay.go fails here and not only when the benchmark runs.
perfbench-check:
	cd perfbench && GOWORK=off $(GO) vet ./... && GOWORK=off $(GO) test ./...

# The examples are the documented library entry points and nothing
# else runs them: build and run each, failing on a nonzero exit.
examples-check:
	@for d in examples/*/; do \
		echo "examples-check: $$d"; \
		$(GO) run ./$$d >/dev/null || exit 1; \
	done

# cqa-serve links only the serving path: fails when the service binary
# depends on the experiment harness, the baselines, the workload
# generators or the SQL oracle.
deps-check:
	@bad=$$($(GO) list -deps ./cmd/cqa-serve | grep -E '^cqa/internal/(experiments|baseline|workload|sqlmini)$$'); \
	if [ -n "$$bad" ]; then echo "deps-check: cmd/cqa-serve links:"; echo "$$bad"; exit 1; fi; \
	echo "deps-check: cmd/cqa-serve links none of experiments, baseline, workload, sqlmini"

# Fails when gofmt would rewrite any file, listing the offenders.
fmt-check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi

# Coverage with per-package floors on the packages this repo's
# correctness leans on hardest: the trace layer (observability must not
# rot — it is how regressions get diagnosed), the FO rewriting engine,
# the coNP solver, the Theorem 4 polynomial engine (it fails closed on
# a reduction invariant, so only its tests show the lemma steps still
# run), the shard partition (a partitioning bug silently
# corrupts answers, so its tests must not erode), the interned
# columnar storage layers (sym, colstore) the zero-alloc hot path sits
# on, and the mutation path (db structural sharing, store group
# commit + WAL) where an aliasing bug corrupts every derived version,
# and the cluster router (retry/hedge/breaker/partial-failure logic is
# exactly the code that only runs when something is already wrong),
# and the repair-counting engine (an off-by-one in the factorized count
# is invisible to the decision tests), and the core entry points and
# the server's evaluate pipeline (each job has one entry point, so its
# behaviour tests are all that pins it), the query and match layers
# the answer table, the candidate projection and the repair-constraint
# builder live in, and the Lemma 11/12 simplifications and the Markov
# cycle dissolution the Theorem 4 engine reduces through. Floors are a
# few points under current coverage so they catch deleted tests, not
# noise — except match, conp and ptime, whose floors sit at their
# measured coverage: purification, the coNP search and the Theorem 4
# recursion are pinned by deterministic tests, so any drop there is a
# deleted test.
cover:
	$(GO) test -cover ./internal/... | tee cover.out
	@status=0; for spec in trace:90 rewrite:85 query:84 match:93 conp:85 ptime:86 shard:80 sym:90 colstore:90 db:90 store:85 cluster:80 counting:90 core:85 server:88 dissolve:89 simplify:83; do \
		pkg=$${spec%%:*}; floor=$${spec##*:}; \
		pct=$$(awk -v p="cqa/internal/$$pkg" '$$2 == p { for (i=1;i<=NF;i++) if ($$i ~ /%$$/) { sub(/%/,"",$$i); print $$i; exit } }' cover.out); \
		if [ -z "$$pct" ]; then echo "cover: no coverage reported for internal/$$pkg"; status=1; \
		elif awk -v a="$$pct" -v b="$$floor" 'BEGIN{exit !(a<b)}'; then \
			echo "cover: internal/$$pkg at $$pct% is BELOW the $$floor% floor"; status=1; \
		else echo "cover: internal/$$pkg $$pct% (floor $$floor%)"; fi; \
	done; rm -f cover.out; exit $$status

experiments:
	$(GO) run ./cmd/cqa-bench -exp all

clean:
	$(GO) clean ./...
