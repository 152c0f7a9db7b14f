GO ?= go
# Per-target budget for the short fuzzing pass; a few seconds each keeps
# `make verify` PR-sized while still exercising the mutated-signature corpus.
FUZZTIME ?= 3s

.PHONY: build fmt vet test race bench-smoke fuzz-short sim-alloc-smoke sim-profile trace-profile offline-profile licence licence-capture surface docs verify

build:
	$(GO) build ./...

# Format gate: lists the Go files gofmt would change and fails on any.
fmt:
	@out=$$(gofmt -l .); [ -z "$$out" ] || { echo "gofmt -l: unformatted files:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

# Includes the CLI smoke table (TestSmoke in cmd/mtracecheck: the three
# binaries built once and driven end to end — observers, worker counts,
# backends, traces, -listen with hostile workers, the corpus).
test:
	$(GO) test ./...

# Race-checked pass over the sharded pipeline; -short keeps it PR-sized (and
# skips the smoke table).
race:
	$(GO) test -race -short ./...

# Short native-fuzzing pass over the attack surface — the decoder, the binary
# readers the fault injector corrupts, and the job description every binary
# resolves (JobSpec JSON into Build and NewCampaign), and the label values that
# reach /metrics (worker IDs, platform and model names) — plus the checker-backend
# differential (all backends must agree on fuzz-chosen execution sets), the
# event-queue differential (timing wheel vs. the reference heap), the
# program-order reduction's (O(1)-witness scan vs. the cubic definition), the
# candidate analysis' (one-pass store index vs. the per-load rescan), the
# oracle's (axiomatic vs. operational enumeration under SC and TSO) and the
# simulator's random source (jump-ahead seeding vs. math/rand).
# Go runs one fuzz target per invocation, hence the separate lines.
fuzz-short:
	$(GO) test ./internal/eventq -run '^$$' -fuzz '^FuzzQueueOrder$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/graph -run '^$$' -fuzz '^FuzzThreadPO$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/instrument -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/instrument -run '^$$' -fuzz '^FuzzEncodeValues$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/instrument -run '^$$' -fuzz '^FuzzAnalyze$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sig -run '^$$' -fuzz '^FuzzReadSet$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sig -run '^$$' -fuzz '^FuzzReadCheckpoint$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sig -run '^$$' -fuzz '^FuzzSetDedup$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/check -run '^$$' -fuzz '^FuzzDifferential$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzTraceParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dist -run '^$$' -fuzz '^FuzzChunkUpload$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dist -run '^$$' -fuzz '^FuzzBuild$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/corpus -run '^$$' -fuzz '^FuzzCorpusLoad$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs -run '^$$' -fuzz '^FuzzExposition$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oracle -run '^$$' -fuzz '^FuzzOracle$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzSeedSource$$' -fuzztime $(FUZZTIME)

# Simulator allocation gate: the alloc-budget tests plus a short
# -benchmem pass over the SimIteration benchmarks. The typed-event engine
# (pooled wheel nodes, the memory system's reused slots and row arena) holds
# the execute loop at zero steady-state allocations; this fails the build if
# allocs/op rises above the budget. The count is the field before "allocs/op", wherever the
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

# CPU-profiles benchmark $(2) of package $(1) for 4 s and prints the 30
# hottest functions. The test binary and profile go to a temporary directory.
define cpu-profile
	@dir=$$(mktemp -d); trap 'rm -rf $$dir' EXIT; \
	$(GO) test -c -o $$dir/pkg.test $(1) || exit 1; \
	$$dir/pkg.test -test.run '^$$' -test.bench '^$(2)$$' -test.benchtime 4s \
		-test.benchmem -test.cpuprofile $$dir/cpu.prof | grep Benchmark || exit 1; \
	$(GO) tool pprof -top -nodecount 30 $$dir/pkg.test $$dir/cpu.prof
endef

# Where a simulated iteration's time goes on the TSO and the RMO platform, on
# the programs of the campaign-x86 and campaign-arm-par workloads (the
# measurement behind DESIGN §10's event counts).
sim-profile:
	$(call cpu-profile,.,BenchmarkSimWorkload/campaign-x86)
	$(call cpu-profile,.,BenchmarkSimWorkload/campaign-arm-par)

# The licence of a change that schedules fewer simulator events (DESIGN §10):
# the distribution half (22 programs × 10⁵ iterations against the parent's
# histograms), its calibration and the Table 3 detection half, without -short.
licence:
	$(GO) test -count 1 -run '^(TestLicence|TestLicenceCalibration)$$' ./internal/sim
	$(GO) test -count 1 -run '^TestLicenceDetection$$' .

# Captures the current engine as the parent the licence judges against:
# internal/sim/testdata/licence (campaign seeds 1 and 2) and
# testdata/licence/detection.txt. Run on the parent of an event-order change
# and commit the data before the change.
licence-capture:
	$(GO) test -count 1 -run '^TestLicence$$' ./internal/sim -update
	$(GO) test -count 1 -run '^TestLicenceDetection$$' . -update

# Where a trace check's time goes: one rep of the trace-check workload, 1,024
# rendered 200-op TSO executions of one program parsed and checked one by one
# (the measurement behind DESIGN §16's cost paragraph; after the first trace
# there must be no storeIndex, NewBuilder, newWorkspace or bucketQueue frame —
# a trace is a one-item run, whose complete sort takes no priorities — no
# makemap or mapassign_fast64 frame under Bind, whose reads-from relation is
# one dense row, and no scanLine frame: Format's spelling is scanned straight
# from the read buffer by scanOp), then the parser alone.
trace-profile:
	$(call cpu-profile,.,BenchmarkCheckTraceWorkload)
	$(call cpu-profile,./internal/trace,BenchmarkParse)

# Where an offline check's time goes: load + validate + check of the
# contended program's stored 4,096-iteration signature set, and of ARM 7x200's
# 256 unique signatures, no simulator in the loop (the measurement behind
# DESIGN §13's cost paragraph).
offline-profile:
	$(call cpu-profile,.,BenchmarkOfflineCheck)
	$(call cpu-profile,.,BenchmarkOfflineCheckARM)

# The yardstick of a simplicity PR (ROADMAP's quality-of-design aim; item 7's
# acceptance asks for lines and exports strictly down): non-test Go lines
# outside bench/, exported declarations (go doc -short -all: methods included,
# constant groups and struct fields not) per library package, flags per
# binary (every flag-defining call: the typed ones, Var, Func and TextVar), the
# main packages outside bench/, the fields of mtracecheck.Options, the plug
# points of the checker table — non-test call sites of
# check.ForName and check.ShardedBackend outside internal/check and bench/
# (one each, in the root package's checkItems; internal/experiments walks the
# table instead) — the rows of the metric series table per group, and the
# exported functions and methods of ./internal/... whose name no non-test file
# (bench/ included) mentions outside a comment: what is left on that list is
# there for tests — reference models and hooks other packages' tests use — or
# is a method of a type the facade re-exports; anything else on it is dead.
# MarshalText and UnmarshalText are not scanned: flag.TextVar and encoding/json
# call them through interfaces, so no file names them.
surface:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l
	@for p in $$($(GO) list . ./internal/...); do \
		echo "$$p $$($(GO) doc -short -all $$p | grep -c '^\(func\|type\|const\|var\) ')"; done
	@grep -c 'flag\.\(String\|Int\|Int64\|Uint\|Uint64\|Bool\|Float64\|Duration\|Var\|Func\|BoolFunc\|TextVar\)\(Var\)\?(' cmd/*/main.go
	@echo "main packages $$($(GO) list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./... | grep -v '^mtracecheck/bench/' | grep -c .)"
	@echo "mtracecheck.Options fields $$($(GO) doc . Options | sed -n '/^type Options struct/,/^}/p' | grep -cE '^[[:space:]]+[A-Z]')"
	@for f in ForName ShardedBackend; do \
		echo "check.$$f call sites $$(grep -rn --include='*.go' --exclude='*_test.go' "check\.$$f(" . \
			| grep -vc '^\./\(bench\|internal/check\)/')"; done
	@for g in core dist corpus; do \
		echo "obs series ($$g) $$(grep -c "= row($$g," internal/obs/metrics.go)"; done
	@src=$$(mktemp); trap 'rm -f $$src' EXIT; \
	find . -name '*.go' -not -name '*_test.go' | xargs cat | grep -v '^[[:space:]]*//' > $$src; \
	for n in $$(grep -rhoE --include='*.go' --exclude='*_test.go' '^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*' internal \
			| sed -E 's/^func (\([^)]*\) )?//' | grep -vxE 'MarshalText|UnmarshalText' | sort -u); do \
		[ $$(grep -w "$$n" $$src | grep -cvE "^func (\([^)]*\) )?$$n[[(]") -eq 0 ] && echo "export no non-test file uses: $$n"; \
	done; true

# Document caps (ROADMAP's simplicity notes): DESIGN.md at most 700 lines,
# and every CHANGES.md entry — one line each — at most 1 KiB.
docs:
	@n=$$(wc -l < DESIGN.md); [ $$n -le 700 ] || { echo "docs: DESIGN.md is $$n lines, over its cap of 700"; exit 1; }
	@LC_ALL=C awk 'length($$0) > 1024 { printf "docs: CHANGES.md line %d is %d bytes, over its cap of 1024\n", NR, length($$0); bad = 1 } \
		END { exit bad }' CHANGES.md
	@echo "docs: OK (DESIGN.md $$(wc -l < DESIGN.md) lines; CHANGES.md entries within 1 KiB)"

# Tier-1 verification gate (see ROADMAP.md).
verify: build fmt vet test race fuzz-short bench-smoke sim-alloc-smoke docs

# Benchmark compile-and-run check, cheap enough for verify: ten simulated
# iterations, one rep of the trace-check workload (which fails unless exactly
# the 64 corrupted traces of its 1,024 do), one of the offline-check workload
# on the default checker and one of ARM 7x200's 256 uniques, the default
# checker's repair on 1,400-vertex graphs (both fail on any violation), one
# skew-pruned analysis of ARM 7x200 (the per-load Pruner call and its check)
# and one parse of a 200-op trace (the pooled read buffer).
bench-smoke:
	$(GO) test -run '^$$' -bench '^BenchmarkSimIterationX86$$' -benchtime 10x .
	$(GO) test -run '^$$' -bench '^BenchmarkCheckTraceWorkload$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench '^BenchmarkOfflineCheck$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench '^BenchmarkOfflineCheckARM$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench '^BenchmarkAblationPrunedAnalysis$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench '^BenchmarkParse$$' -benchtime 1x ./internal/trace
