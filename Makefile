GO ?= go
# Per-target budget for the short fuzzing pass; a few seconds each keeps
# `make verify` PR-sized while still exercising the mutated-signature corpus.
FUZZTIME ?= 3s

# The smoke targets drive the CLIs end to end; smoke-bin builds the three
# binaries once per make invocation into $(BIN) (gitignored) for all of them.
BIN := .smoke/bin
MTC := $(BIN)/mtracecheck

.PHONY: build vet test race smoke-bin bench-smoke fuzz-short obs-smoke scaling-smoke diff-check-smoke dist-smoke corpus-smoke trace-smoke sim-alloc-smoke sim-profile trace-profile offline-profile surface verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

smoke-bin:
	$(GO) build -o $(BIN)/ ./cmd/mtracecheck ./cmd/mtracecheck-server ./cmd/mtracecheck-worker

# Race-checked pass over the sharded pipeline; -short keeps it PR-sized.
race:
	$(GO) test -race -short ./...

# Short native-fuzzing pass over the decoder and the binary readers — the
# attack surface the fault injector corrupts — plus the checker-backend
# differential (all backends must agree on fuzz-chosen execution sets), the
# event-queue differential (timing wheel vs. the reference heap) and the
# program-order reduction's (O(1)-witness scan vs. the cubic definition).
# Go runs one fuzz target per invocation, hence the separate lines.
fuzz-short:
	$(GO) test ./internal/eventq -run '^$$' -fuzz '^FuzzQueueOrder$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/graph -run '^$$' -fuzz '^FuzzThreadPO$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/instrument -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/instrument -run '^$$' -fuzz '^FuzzEncodeValues$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sig -run '^$$' -fuzz '^FuzzReadSet$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sig -run '^$$' -fuzz '^FuzzReadCheckpoint$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/check -run '^$$' -fuzz '^FuzzDifferential$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzTraceParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dist -run '^$$' -fuzz '^FuzzChunkUpload$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/corpus -run '^$$' -fuzz '^FuzzCorpusLoad$$' -fuzztime $(FUZZTIME)

# Observability smoke: the same campaign run bare and with all three
# observers attached must print a bit-identical report (the observers'
# non-perturbation contract, end to end through the CLI), and the metrics
# and trace artifacts must materialize with real content.
obs-smoke: smoke-bin
	@dir=$$(mktemp -d); trap 'rm -rf $$dir' EXIT; \
	$(MTC) -threads 2 -ops 30 -words 8 -iters 200 -seed 7 > $$dir/bare.txt \
		|| { cat $$dir/bare.txt; exit 1; }; \
	$(MTC) -threads 2 -ops 30 -words 8 -iters 200 -seed 7 \
		-metrics-out $$dir/metrics.prom -trace-out $$dir/trace.json -progress \
		> $$dir/observed.txt 2> $$dir/progress.log \
		|| { cat $$dir/observed.txt $$dir/progress.log; exit 1; }; \
	cmp $$dir/bare.txt $$dir/observed.txt \
		|| { echo "obs-smoke: observed report differs from the bare run"; exit 1; }; \
	grep -q '^mtracecheck_iterations_total 200$$' $$dir/metrics.prom \
		|| { echo "obs-smoke: metrics snapshot missing or wrong"; cat $$dir/metrics.prom; exit 1; }; \
	grep -q '"ph":"X"' $$dir/trace.json && grep -q '\]$$' $$dir/trace.json \
		|| { echo "obs-smoke: trace output missing spans or unterminated"; exit 1; }; \
	grep -q 'obs:' $$dir/progress.log \
		|| { echo "obs-smoke: no progress lines on stderr"; exit 1; }; \
	echo "obs-smoke: OK (bare and observed reports bit-identical)"

# Streaming-scaling smoke: the work-stealing pipeline must produce
# bit-identical artifacts at every worker count. The same campaign runs at
# -workers 1 and -workers 4; the printed report (modulo the
# partition-dependent collective-checking effort line), the signature file,
# and the worker-invariant metrics Totals must compare byte-equal. Effort
# series (shard attempts, sorted vertices, stage seconds, ...) are
# partition- and timing-dependent by design and filtered out. Each run must
# also count as one campaign of 400 iterations: -sigs-out writes the run's
# own set, it does not collect again.
scaling-smoke: smoke-bin
	@dir=$$(mktemp -d); trap 'rm -rf $$dir' EXIT; \
	for w in 1 4; do \
		mkdir $$dir/$$w; \
		$(MTC) -threads 4 -ops 40 -words 16 -iters 400 -seed 11 -workers $$w \
			-sigs-out $$dir/$$w/sigs -metrics-out $$dir/$$w/metrics > $$dir/$$w/report \
			|| { cat $$dir/$$w/report; exit 1; }; \
		sed -e 's/^collective checking:.*/collective checking:  <effort line normalized>/' \
			-e "s|$$dir/$$w|DIR|g" $$dir/$$w/report > $$dir/$$w/report.norm; \
		grep -Ev 'mtracecheck_(shard_attempts|shard_retries|retried_iterations|sorted_vertices|backward_edges|graphs_by_kind|max_resort_window|stage_seconds|clock_updates|propagations|check_shards)' \
			$$dir/$$w/metrics > $$dir/$$w/totals; \
		grep -q '^mtracecheck_iterations_total 400$$' $$dir/$$w/metrics \
			&& grep -q '^mtracecheck_campaigns_total 1$$' $$dir/$$w/metrics \
			|| { echo "scaling-smoke: -workers $$w with -sigs-out did not run exactly one 400-iteration campaign"; \
			     grep -E '^mtracecheck_(iterations|campaigns)_total' $$dir/$$w/metrics; exit 1; }; \
	done; \
	cmp $$dir/1/report.norm $$dir/4/report.norm \
		|| { echo "scaling-smoke: report differs between -workers 1 and 4"; diff $$dir/1/report.norm $$dir/4/report.norm; exit 1; }; \
	cmp $$dir/1/sigs $$dir/4/sigs \
		|| { echo "scaling-smoke: signature file differs between -workers 1 and 4"; exit 1; }; \
	cmp $$dir/1/totals $$dir/4/totals \
		|| { echo "scaling-smoke: metrics Totals differ between -workers 1 and 4"; diff $$dir/1/totals $$dir/4/totals; exit 1; }; \
	echo "scaling-smoke: OK (report, signatures, metrics Totals bit-identical at workers 1 and 4)"

# Differential checking smoke: collect one signature set, then check it with
# every registered backend (-list-checkers is the source of truth, so a new
# backend joins this gate automatically). All verdicts must be identical;
# only the per-backend effort line ("... checking: ...") may differ and is
# normalized away.
diff-check-smoke: smoke-bin
	@dir=$$(mktemp -d); trap 'rm -rf $$dir' EXIT; \
	$(MTC) -threads 4 -ops 40 -words 16 -iters 400 -seed 11 \
		-dump-prog $$dir/prog -sigs-out $$dir/sigs > /dev/null \
		|| { echo "diff-check-smoke: collection failed"; exit 1; }; \
	for c in $$($(MTC) -list-checkers); do \
		$(MTC) -prog $$dir/prog -iters 400 -seed 11 \
			-sigs-in $$dir/sigs -checker $$c > $$dir/report.$$c \
			|| { cat $$dir/report.$$c; exit 1; }; \
		grep -Ev 'checking:' $$dir/report.$$c > $$dir/verdict.$$c; \
	done; \
	for c in $$($(MTC) -list-checkers); do \
		cmp $$dir/verdict.collective $$dir/verdict.$$c \
			|| { echo "diff-check-smoke: $$c verdict differs from collective"; \
			     diff $$dir/verdict.collective $$dir/verdict.$$c; exit 1; }; \
	done; \
	echo "diff-check-smoke: OK (all backends agree: $$($(MTC) -list-checkers | tr '\n' ' '))"

# External-trace smoke: the committed golden traces drive the -trace front
# door end to end. A violating TSO trace must be a finding (exit 1), a
# valid one must pass (exit 0), and the serial constraints oracle must print
# the same verdict summary as the vectorclock backend — only the per-backend
# effort line ("... checking: ...") may differ and is normalized away, the
# diff-check-smoke convention.
trace-smoke: smoke-bin
	@dir=$$(mktemp -d); trap 'rm -rf $$dir' EXIT; \
	td=internal/trace/testdata; \
	$(MTC) -trace $$td/tso_violation.trace -mcm tso > $$dir/fail.txt; st=$$?; \
	[ $$st -eq 1 ] || { echo "trace-smoke: violating trace exited $$st, want 1"; cat $$dir/fail.txt; exit 1; }; \
	$(MTC) -trace $$td/tso_valid.trace -mcm tso > $$dir/pass.txt; st=$$?; \
	[ $$st -eq 0 ] || { echo "trace-smoke: valid trace exited $$st, want 0"; cat $$dir/pass.txt; exit 1; }; \
	for c in constraints vectorclock; do \
		$(MTC) -trace $$td/tso_violation.trace -mcm tso -checker $$c -v > $$dir/report.$$c; st=$$?; \
		[ $$st -eq 1 ] || { echo "trace-smoke: checker $$c exited $$st, want 1"; cat $$dir/report.$$c; exit 1; }; \
		grep -Ev 'checking:' $$dir/report.$$c > $$dir/verdict.$$c; \
	done; \
	cmp $$dir/verdict.constraints $$dir/verdict.vectorclock \
		|| { echo "trace-smoke: constraints and vectorclock verdicts differ"; \
		     diff $$dir/verdict.constraints $$dir/verdict.vectorclock; exit 1; }; \
	echo "trace-smoke: OK (golden TSO traces: finding=1, pass=0, constraints == vectorclock)"

# Distributed-campaign smoke: the same campaign runs in-process and through
# the dist server with three workers — one honest, one killed mid-campaign,
# one corrupting every upload (quarantined server-side). The server must
# exit 0 and its signature file must compare byte-equal to the in-process
# run: worker failures may cost wall-clock, never results.
dist-smoke: smoke-bin
	@dir=$$(mktemp -d); trap 'rm -rf $$dir' EXIT; \
	$(MTC) -threads 4 -ops 40 -words 16 -iters 1280 -seed 11 -sigs-out $$dir/ref.sigs > /dev/null \
		|| { echo "dist-smoke: reference run failed"; exit 1; }; \
	$(BIN)/mtracecheck-server -oneshot -listen 127.0.0.1:0 -addr-file $$dir/addr -lease-ttl 1s \
		-threads 4 -ops 40 -words 16 -iters 1280 -seed 11 -sigs-out $$dir/dist.sigs \
		> $$dir/report 2> $$dir/server.log & srv=$$!; \
	for i in $$(seq 1 100); do [ -s $$dir/addr ] && break; sleep 0.1; done; \
	[ -s $$dir/addr ] || { echo "dist-smoke: server never bound"; kill $$srv 2>/dev/null; exit 1; }; \
	addr=$$(cat $$dir/addr); \
	$(BIN)/mtracecheck-worker -server http://$$addr -id honest -exit-when-idle & w1=$$!; \
	$(BIN)/mtracecheck-worker -server http://$$addr -id victim & w2=$$!; \
	$(BIN)/mtracecheck-worker -server http://$$addr -id liar -fault-wire-corrupt 1 2> /dev/null & w3=$$!; \
	sleep 0.3; kill -9 $$w2 2>/dev/null; \
	wait $$srv; status=$$?; \
	kill $$w1 $$w3 2>/dev/null; \
	[ $$status -eq 0 ] || { echo "dist-smoke: server exited $$status"; cat $$dir/report $$dir/server.log; exit 1; }; \
	cmp $$dir/ref.sigs $$dir/dist.sigs \
		|| { echo "dist-smoke: distributed signatures differ from the in-process run"; cat $$dir/report; exit 1; }; \
	echo "dist-smoke: OK (signatures bit-identical to in-process despite a killed worker and a corrupting worker)"

# Signature-corpus smoke: the same campaign runs cold (empty corpus) and
# warm (corpus grown by the cold run). The signature files must compare
# byte-equal, the reports must match modulo the corpus/effort lines that
# differ by design, and the warm run must check zero graphs while scoring
# a corpus hit for every unique — the warm-cache perf contract, end to
# end through the CLI.
corpus-smoke: smoke-bin
	@dir=$$(mktemp -d); trap 'rm -rf $$dir' EXIT; \
	for run in cold warm; do \
		$(MTC) -threads 4 -ops 40 -words 16 -iters 400 -seed 11 \
			-corpus $$dir/corpus.mtc -sigs-out $$dir/$$run.sigs -metrics-out $$dir/$$run.metrics \
			> $$dir/$$run.report || { cat $$dir/$$run.report; exit 1; }; \
		grep -Ev 'checking:|signature corpus:' $$dir/$$run.report \
			| sed "s|$$dir/$$run|RUN|g" > $$dir/$$run.verdict; \
	done; \
	cmp $$dir/cold.sigs $$dir/warm.sigs \
		|| { echo "corpus-smoke: signature files differ between cold and warm"; exit 1; }; \
	cmp $$dir/cold.verdict $$dir/warm.verdict \
		|| { echo "corpus-smoke: warm verdict differs from cold"; diff $$dir/cold.verdict $$dir/warm.verdict; exit 1; }; \
	grep -q '^mtracecheck_graphs_checked_total 0$$' $$dir/warm.metrics \
		|| { echo "corpus-smoke: warm run still checked graphs"; grep graphs_checked $$dir/warm.metrics; exit 1; }; \
	grep -q '^mtracecheck_corpus_misses_total 0$$' $$dir/warm.metrics \
		|| { echo "corpus-smoke: warm run missed the corpus"; grep corpus $$dir/warm.metrics; exit 1; }; \
	hits=$$(grep '^mtracecheck_corpus_hits_total ' $$dir/warm.metrics | cut -d' ' -f2); \
	checked=$$(grep '^mtracecheck_graphs_checked_total ' $$dir/cold.metrics | cut -d' ' -f2); \
	[ "$$hits" = "$$checked" ] && [ "$$hits" -gt 0 ] \
		|| { echo "corpus-smoke: warm hits ($$hits) != cold graphs checked ($$checked)"; exit 1; }; \
	echo "corpus-smoke: OK (warm rerun bit-identical with $$hits corpus hits and zero graphs checked)"

# Simulator allocation gate: the alloc-budget tests plus a short
# -benchmem pass over the SimIteration benchmarks. The typed-event engine
# (pooled wheel nodes, pooled memory-system state) holds the execute loop at
# zero steady-state allocations; this fails the build if allocs/op rises
# above the budget. The count is the field before "allocs/op", wherever the
# benchmark's own metrics put it.
SIM_ALLOC_BUDGET ?= 0
sim-alloc-smoke:
	@$(GO) test -run 'AllocBudget' -count 1 . || exit 1; \
	out=$$($(GO) test -run '^$$' -bench 'SimIteration' -benchmem -benchtime 2s . ) \
		|| { echo "$$out"; exit 1; }; \
	echo "$$out" | awk -v budget=$(SIM_ALLOC_BUDGET) '/^BenchmarkSimIteration/ { \
		n++; for (i = 2; i <= NF; i++) if ($$i == "allocs/op" && $$(i-1) + 0 > budget) { \
			print "sim-alloc-smoke: " $$1 " at " $$(i-1) " allocs/op exceeds budget " budget; bad = 1 } } \
		END { if (n != 2) { print "sim-alloc-smoke: expected 2 SimIteration results, saw " n; bad = 1 }; exit bad }' \
		|| exit 1; \
	echo "sim-alloc-smoke: OK (SimIteration allocs/op within budget $(SIM_ALLOC_BUDGET))"

# CPU-profiles one root-package benchmark for 4 s and prints the 30 hottest
# functions. The test binary and profile go to a temporary directory.
define cpu-profile
	@dir=$$(mktemp -d); trap 'rm -rf $$dir' EXIT; \
	$(GO) test -c -o $$dir/mtracecheck.test . || exit 1; \
	$$dir/mtracecheck.test -test.run '^$$' -test.bench '^$(1)$$' -test.benchtime 4s \
		-test.benchmem -test.cpuprofile $$dir/cpu.prof | grep Benchmark || exit 1; \
	$(GO) tool pprof -top -nodecount 30 $$dir/mtracecheck.test $$dir/cpu.prof
endef

# Where a simulated iteration's time goes (the measurement DESIGN §10's
# before/after table is made from).
sim-profile:
	$(call cpu-profile,BenchmarkSimIterationX86)

# Where a trace check's time goes: one rep of the trace-check workload, 1,024
# rendered 200-op TSO executions of one program parsed and checked one by one
# (the measurement behind DESIGN §16's cost paragraph; after the first trace
# there must be no storeIndex, NewBuilder or newWorkspace frame).
trace-profile:
	$(call cpu-profile,BenchmarkCheckTraceWorkload)

# Where an offline check's time goes: load + validate + check of the
# contended program's stored 4,096-iteration signature set, no simulator in
# the loop (the measurement behind DESIGN §13's row/delta cost paragraph).
offline-profile:
	$(call cpu-profile,BenchmarkOfflineCheck)

# The yardstick of a simplicity PR (ROADMAP item 6): non-test Go lines outside
# bench/, and exported declarations (go doc -short -all: methods included,
# constant groups and struct fields not) per library package.
surface:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l
	@for p in $$($(GO) list . ./internal/...); do \
		echo "$$p $$($(GO) doc -short -all $$p | grep -c '^\(func\|type\|const\|var\) ')"; done

# Tier-1 verification gate (see ROADMAP.md).
verify: build vet test race fuzz-short bench-smoke sim-alloc-smoke obs-smoke scaling-smoke diff-check-smoke trace-smoke dist-smoke corpus-smoke

# Benchmark compile-and-run check, cheap enough for verify: ten simulated
# iterations, and one rep of the trace-check workload (which fails unless
# exactly the 64 corrupted traces of its 1,024 do).
bench-smoke:
	$(GO) test -run '^$$' -bench '^BenchmarkSimIterationX86$$' -benchtime 10x .
	$(GO) test -run '^$$' -bench '^BenchmarkCheckTraceWorkload$$' -benchtime 1x .
