GO ?= go

.PHONY: build test race race-server vet kmvet lint lint-report invariants fuzz-smoke obs-smoke benchdiff-smoke benchdiff-reject clean-clone shard-smoke build-smoke cluster-smoke trace-smoke relative-smoke check bench bench-json bench-compare

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The server package is the repo's first concurrent-mutation code path
# (registry writes under reads, drain vs in-flight searches); always run
# it under the race detector, and separately so a failure is attributable.
race-server:
	$(GO) test -race ./server/...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# kmvet is the repo-specific analyzer (cmd/kmvet, DESIGN.md §6): the
# per-function rules (load-path error wrapping, lock copies,
# context-threaded searches, no library panics, no stdlib log) plus the
# call-graph-aware concurrency rules (goroutinelifecycle, lockheld,
# reachpanic, boundedalloc, closeerr). Suppress individual findings
# with `//kmvet:ignore <rule> <reason>` on the offending line (or the
# line above); stale suppressions are themselves findings.
kmvet:
	$(GO) run ./cmd/kmvet

lint: vet kmvet

# Machine-readable lint artifact for CI (schema pinned by
# internal/analyze/json_test.go). Written even when findings exist so
# the annotation step can consume it; the exit status still gates.
lint-report:
	$(GO) run ./cmd/kmvet -json > lint-report.json; \
	status=$$?; cat lint-report.json; exit $$status

# The deep runtime invariant layer: CheckInvariants implementations are
# compiled in under the kminvariants tag (and are no-ops otherwise), so
# this runs every test with full structural verification, under -race.
invariants:
	$(GO) test -race -tags kminvariants ./...

# Short mutation runs of each fuzz target with invariants enabled; long
# campaigns use `go test -fuzz=<target> -tags kminvariants .` directly.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzSearchMethods -fuzztime=10s -tags kminvariants .
	$(GO) test -run='^$$' -fuzz=FuzzSaveLoad -fuzztime=10s -tags kminvariants .
	$(GO) test -run='^$$' -fuzz=FuzzLoadRoundTrip -fuzztime=10s -tags kminvariants .
	$(GO) test -run='^$$' -fuzz=FuzzLoadShardedRoundTrip -fuzztime=10s -tags kminvariants .
	$(GO) test -run='^$$' -fuzz=FuzzLoadRelativeRoundTrip -fuzztime=10s -tags kminvariants .
	$(GO) test -run='^$$' -fuzz=FuzzComputePhi -fuzztime=10s -tags kminvariants ./internal/core

# Observability smoke test: boots kmserved, scrapes /metrics (including
# the km_slo_* series) and /debug/flightrecorder, and validates the
# Prometheus text exposition with the in-repo validator
# (internal/obs.ValidateExposition) — no external dependencies.
obs-smoke:
	$(GO) test -run='^TestObsSmoke$$' -count=1 ./server/...

# Regression-gate smoke test: kmbenchdiff must pass a clean diff and
# fail both fabricated regressions — 20% ns/read and 24% peak RSS
# (fixtures in cmd/kmbenchdiff/testdata). A rejection counts only when
# the output names the regression: a missing fixture also exits
# non-zero, and must not pass for a detected regression.
benchdiff-smoke:
	$(GO) run ./cmd/kmbenchdiff cmd/kmbenchdiff/testdata/old.json cmd/kmbenchdiff/testdata/new_ok.json
	@$(MAKE) --no-print-directory benchdiff-reject FIXTURE=new_regressed.json EXPECT='REGRESSION'
	@$(MAKE) --no-print-directory benchdiff-reject FIXTURE=new_rss_regressed.json EXPECT='peak RSS:'

benchdiff-reject:
	@if out=$$($(GO) run ./cmd/kmbenchdiff cmd/kmbenchdiff/testdata/old.json cmd/kmbenchdiff/testdata/$(FIXTURE) 2>&1); then \
		echo "$$out"; echo "benchdiff-smoke: FAIL ($(FIXTURE) was not flagged)"; exit 1; \
	elif ! printf '%s\n' "$$out" | grep -q '$(EXPECT)'; then \
		echo "$$out"; echo "benchdiff-smoke: FAIL ($(FIXTURE) rejected without a '$(EXPECT)' line)"; exit 1; \
	else echo "benchdiff-smoke: $(FIXTURE) correctly rejected ($(EXPECT))"; fi

# Tier-1 on exactly the committed tree: HEAD is exported with git
# archive into a temporary directory and built and tested there, so a
# file that the build or the tests need but .gitignore hides (or that
# was never added) fails here instead of on a fresh checkout.
clean-clone:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	git archive HEAD | tar -x -C "$$dir" && \
	cd "$$dir" && $(GO) build ./... && $(GO) test ./...

# Sharded-pipeline smoke test: kmgen builds a multi-shard index file,
# kmsearch loads it transparently and must agree with a monolithic
# build, and kmserved serves it with per-shard /metrics series.
shard-smoke:
	$(GO) test -run='^TestShardSmoke$$' -count=1 .

# Multi-tenant relative-index smoke test: kmgen builds a base index and
# three delta-compressed tenant containers, kmsearch answers from a
# tenant byte-identically to a standalone build, and kmserved serves all
# three tenants off one shared resident base with the delta accounting
# in /v1/indexes and the km_relative_* /metrics series (DESIGN.md §13).
relative-smoke:
	$(GO) test -run='^TestRelativeSmoke$$' -count=1 .

# Build-pipeline smoke test: kmgen stream-builds a sharded container in
# bounded memory (byte-identical to the in-memory build), appends to it
# in place reusing untouched shard frames, and a running kmserved picks
# up the grown container on SIGHUP (real binaries, DESIGN.md §12).
build-smoke:
	$(GO) test -run='^TestBuildSmoke$$' -count=1 .

# Cluster smoke test: kmgen builds a sharded index, two kmserved workers
# serve it behind a kmserved -coordinator, kmload drives Zipf traffic
# through the fleet, and /metrics is scraped and validated on all three
# processes (real binaries, loopback HTTP).
cluster-smoke:
	$(GO) test -run='^TestClusterSmoke$$' -count=1 ./server/cluster/...

# Distributed-tracing smoke test: the same real fleet with the
# coordinator at -trace-sample 1, driven by kmload -trace; the written
# Chrome timeline must carry coordinator spans plus worker span
# fragments under one request ID, and /debug/trace plus the
# /debug/flightrecorder endpoints must serve valid documents.
trace-smoke:
	$(GO) test -run='^TestTraceSmoke$$' -count=1 ./server/cluster/...

# The one-stop pre-commit gate.
check: lint clean-clone race-server race invariants fuzz-smoke obs-smoke benchdiff-smoke shard-smoke build-smoke cluster-smoke trace-smoke relative-smoke

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Machine-readable search benchmark (ns/read + work counters + peak RSS);
# commit the output as a BENCH_*.json trajectory file.
bench-json:
	$(GO) run ./cmd/kmbench -json -scale 64 -reads 20 -rounds 5 -out BENCH_latest.json
	@cat BENCH_latest.json

# Compare two benchmark reports and fail on >10% ns/read regressions:
#   make bench-compare OLD=BENCH_pr4_before.json NEW=BENCH_pr4_after.json
OLD ?= BENCH_pr4_before.json
NEW ?= BENCH_pr4_after.json
bench-compare:
	$(GO) run ./cmd/kmbenchdiff $(OLD) $(NEW)
