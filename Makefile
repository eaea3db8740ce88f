# Mirrors .github/workflows/ci.yml so every CI gate runs locally with
# one command. `make lint` is the static-analysis gate: stock go vet,
# the analyzer unit tests, the pandora-vet protocol-invariant suite
# (tools/analyzers) as a go vet tool, and — when installed — staticcheck
# and govulncheck.

GO      ?= go
BIN     := bin
VETTOOL := $(BIN)/pandora-vet

.PHONY: all build lint test bench bench-compare bench-pair bench-smoke model-gate chaos-smoke litmus-smoke proptest soak smallbank-stress clean

all: build lint test

build:
	$(GO) build ./...

$(VETTOOL): $(wildcard cmd/pandora-vet/*.go tools/analyzers/*.go)
	$(GO) build -o $(VETTOOL) ./cmd/pandora-vet

lint: $(VETTOOL)
	$(GO) vet ./...
	$(GO) test ./tools/analyzers/
	$(GO) vet -vettool=$(abspath $(VETTOOL)) ./...
	# internal/hotlock is kept only for the repository benchmark's probes:
	# no other package may import it.
	@if $(GO) list -f '{{.ImportPath}}: {{join .Imports " "}} {{join .TestImports " "}} {{join .XTestImports " "}}' ./... \
	    | grep -v '^pandora/internal/hotlock:\|^pandora/benchmark:' | grep 'pandora/internal/hotlock'; then \
	  echo "lint: only benchmark/ may import pandora/internal/hotlock"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed; skipping (CI runs it)"; fi

test:
	$(GO) test -race ./...

# The repository benchmark (BENCHMARK.json, benchmark/README.md): builds
# hermetically into benchmark/.build and writes benchmark/out/report.json.
bench:
	bash benchmark/run.sh

# Compare two benchmark reports: make bench-compare A=parent.json B=change.json
bench-compare:
	$(GO) run ./benchmark -compare $(A) $(B)

# Paired runs, the way a claimed gain — or "nothing got worse" — is
# judged: N pairs of BASE and the working tree on each workload of W (one
# name, a comma-separated list, or `all`), alternating which side runs
# first; prints per workload each end-to-end metric's medians, quartiles
# and wins out of N.
#   make bench-pair BASE=HEAD~1 W=transfer_uniform N=10
#   make bench-pair BASE=HEAD~1 W=all N=10
N ?= 10
bench-pair:
	bash tools/benchpair.sh $(BASE) $(W) $(N)

bench-smoke:
	$(GO) test -race -run '^$$' -bench . -benchtime 100x ./internal/rdma/
	$(GO) test -run 'TestHitPathZeroAlloc' ./internal/cache/
	$(GO) test -race ./internal/metrics/
	$(GO) test -run 'ZeroAlloc' ./internal/metrics/ ./internal/rdma/
	# Transaction-path alloc gates (Session.Update, core.Tx, log-record
	# encoding, placement lookup, Preload); skipped under -race, so they
	# run here without it.
	$(GO) test -run 'Allocs' . ./internal/core ./internal/kvlayout ./internal/place ./internal/memnode
	# Bulk load: Load's per-server goroutines under the race detector,
	# several times, and the layout pins against the sequential loader.
	$(GO) test -race -count=3 -run 'TestPreload|TestLoad' . ./internal/memnode
	$(GO) run ./cmd/pandora-bench -experiment readcache -quick -json $(BIN)/BENCH_readcache.json -metrics $(BIN)/BENCH_metrics.json
	# Commit-tail lane: the pipelined commit tail experiment (legacy vs
	# fused rounds-per-commit and ack latency) is sequential on a virtual
	# clock; its artifact must match bin/BENCH_commitpipe.json.
	$(GO) run ./cmd/pandora-bench -experiment commitpipe -quick -json $(BIN)/BENCH_commitpipe.gen.json
	cmp $(BIN)/BENCH_commitpipe.gen.json $(BIN)/BENCH_commitpipe.json
	$(GO) test -run $(RECOVERY_PINS) -v ./internal/recovery
	$(GO) test -run $(STEAL_PINS) -v . ./internal/core
	$(GO) test -run $(SCAN_CACHE_PINS) -v . ./internal/core ./internal/cache
	$(GO) test -run $(LOCK_PINS) -v . ./internal/core
	bash tools/modelgate.sh

# Model-clock gate: the recovery pass's per-step model times are pinned
# and every cut of an interrupted pass must converge (internal/recovery,
# no race); the PILL steal's doorbells and rounds are pinned by name (a
# steal round put back fails a named test), and so is the read cache's
# scan rule (a scan that admits its fabric reads and evicts the hot keys
# again fails a named test) and its evidence rule (a stale hit dropped
# instead of refreshed, or a key that churns still served, fails a named
# test), and so are the lock step's round shapes (a
# transaction's lock doorbells share one wait at Commit: a lock round put
# back fails a named test) and the commit tail's (posted at the ack and
# paid by the next doorbell, waited for first only when an op faults: a
# tail round put back before Commit returns fails a named test); then a 6 s failover run of the repository
# benchmark must be correct, fail no operation and report exactly the
# recovery_model_us checked in as tools/modelgate.expect (a count of
# rounds and bytes, so it repeats to the nanosecond on any host), and a
# steal_model_us below the ceiling checked in beside it as
# tools/modelgate.steal_max (a hinted steal that rings a round of its own
# again fails it).
RECOVERY_PINS := 'TestRecoveryCycleModelTime|TestRecoveryRoundsIndependentOfStrayTxs|TestStrayLockNotificationOrdering|Interrupted'
STEAL_PINS := 'TestStealBothLocksTransfer|TestStolenLockCovers|TestStealHint|TestPostedStealFindsFreeWord|TestPostedStealReadFault'
SCAN_CACHE_PINS := 'TestRangeScanKeepsHotReadsCached|TestRangeCacheHitGoesStale|TestRangeReadsCoveredByLocks|TestReadPathParity|TestStaleHitRefreshedForRetry|TestAlternateCommittersStopCaching|TestCoveredHitsKeepTransferCached|TestEntryIs80Bytes|TestRefreshOnlyAfterValidatedHits|TestChurnMakesGhost|TestGhostEarnedBackWhenVersionHolds|TestWriteThroughIsNoEvidence|TestEvidenceDecays'
LOCK_PINS := 'TestLockRoundShapes|TestStealBothLocksTransfer|TestTailRidesNextDoorbell|TestCrashWithTailUnpaid|TestPostedTailFaultWaitsThenReposts'
model-gate:
	$(GO) test -run $(RECOVERY_PINS) -v ./internal/recovery
	$(GO) test -run $(STEAL_PINS) -v . ./internal/core
	$(GO) test -run $(SCAN_CACHE_PINS) -v . ./internal/core ./internal/cache
	$(GO) test -run $(LOCK_PINS) -v . ./internal/core
	bash tools/modelgate.sh

# Property-based litmus lane: the proptest engine's own tests, then the
# randomized multi-tx histories across the knob matrix (seeded corpus,
# byte-identical across runs; failures shrink and drop a repro file in
# bin/proptest-repro-*.json replayable with -replay).
proptest:
	$(GO) test -race ./internal/proptest/
	$(GO) test -race -run 'TestRandom|TestShrink|TestReplay' ./internal/litmus/

# SmallBank stress lane: TestWorkloadsRunAndCommit/smallbank fails a run
# that aborts more transactions than it commits, which the read cache's
# stale hits once did a few runs in a hundred on a 2-core host. Fifty
# runs on two cores, the test's duration, seed and bound as they are.
smallbank-stress:
	GOMAXPROCS=2 $(GO) test -count=50 -run 'TestWorkloadsRunAndCommit/smallbank' ./internal/workload/

# Soak lane: deterministic mixed-tenant endurance run (TATP + SmallBank,
# fault schedule, tuned knobs). The quick run regenerates the artifact,
# which must match the checked-in bin/BENCH_soak.json byte for byte.
soak:
	$(GO) test -race -run 'TestSoak' ./internal/bench/
	$(GO) run ./cmd/pandora-bench -experiment soak -quick -json $(BIN)/BENCH_soak.gen.json
	cmp $(BIN)/BENCH_soak.gen.json $(BIN)/BENCH_soak.json

chaos-smoke:
	$(GO) test -race -short ./internal/chaos/
	$(GO) run ./cmd/pandora-chaos -seed 42 -events 8 >$(BIN)/a.log
	$(GO) run ./cmd/pandora-chaos -seed 42 -events 8 >$(BIN)/b.log
	cmp $(BIN)/a.log $(BIN)/b.log
	# Memory and power lanes: memory failures re-replicated (a migration)
	# under the live workload; power also flushes the copy to NVM. 3 seeds
	# each, run twice and byte-compared.
	for scenario in memory power; do \
	  for seed in 1 7 42; do \
	    $(GO) run ./cmd/pandora-chaos -scenario $$scenario -seed $$seed -events 8 >$(BIN)/m-a.log || exit 1; \
	    $(GO) run ./cmd/pandora-chaos -scenario $$scenario -seed $$seed -events 8 >$(BIN)/m-b.log || exit 1; \
	    cmp $(BIN)/m-a.log $(BIN)/m-b.log || exit 1; \
	  done; \
	done
	# Reconfiguration lane: 3 seeds × {coordinator, source, destination}
	# crash points, each run twice and byte-compared (crash point and
	# event log are pure functions of the seed). The last run leaves the
	# observability snapshot in $(BIN)/RECONFIG_metrics.json.
	for crash in coordinator source destination; do \
	  for seed in 1 7 42; do \
	    $(GO) run ./cmd/pandora-chaos -scenario reconfig -crash $$crash -seed $$seed \
	      -metrics $(BIN)/RECONFIG_metrics.json >$(BIN)/r-a.log || exit 1; \
	    $(GO) run ./cmd/pandora-chaos -scenario reconfig -crash $$crash -seed $$seed \
	      >$(BIN)/r-b.log || exit 1; \
	    cmp $(BIN)/r-a.log $(BIN)/r-b.log || exit 1; \
	  done; \
	done
	# Commit-pipe lane: 3 seeds × {afterack, midtail} crashes of the
	# post-ack commit tail, each run twice and byte-compared, with a
	# double recovery pass (the second must be a no-op) inside every run.
	for crash in afterack midtail; do \
	  for seed in 1 7 42; do \
	    $(GO) run ./cmd/pandora-chaos -scenario commitpipe -crash $$crash -seed $$seed \
	      >$(BIN)/c-a.log || exit 1; \
	    $(GO) run ./cmd/pandora-chaos -scenario commitpipe -crash $$crash -seed $$seed \
	      >$(BIN)/c-b.log || exit 1; \
	    cmp $(BIN)/c-a.log $(BIN)/c-b.log || exit 1; \
	  done; \
	done

# Litmus lane: the seeded scheduler makes a litmus run a function of its
# flags. Fixed Pandora at 100 iterations, then each Table-1 bug at its
# pinned seed; every run twice and byte-compared, and once more on one OS
# thread, compared with the first.
litmus-smoke:
	$(GO) build -o $(BIN)/pandora-litmus ./cmd/pandora-litmus
	for args in "-iterations 100 -seed 1" "-bug complicit-abort" "-bug missing-insert-log" \
	    "-bug covert-locks" "-bug relaxed-locks" "-bug lost-decision" "-bug log-without-lock"; do \
	  $(BIN)/pandora-litmus $$args >$(BIN)/l-a.log || exit 1; \
	  $(BIN)/pandora-litmus $$args >$(BIN)/l-b.log || exit 1; \
	  GOMAXPROCS=1 $(BIN)/pandora-litmus $$args >$(BIN)/l-c.log || exit 1; \
	  cmp $(BIN)/l-a.log $(BIN)/l-b.log || exit 1; \
	  cmp $(BIN)/l-a.log $(BIN)/l-c.log || exit 1; \
	done

clean:
	rm -rf $(BIN)
