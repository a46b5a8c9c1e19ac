GO ?= go

.PHONY: all build test race bench-alloc bench-selftest bench-e2e bench-pairs bench-observe fuzz examples vet fmt-check loc lint reshard-soak observe-smoke sim ci clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail when any file is not gofmt-clean (CI runs this; it never rewrites).
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The size every simplicity change quotes: non-test Go lines outside
# bench/ (tracked files only).
loc:
	@git ls-files '*.go' | grep -v '^bench/' | grep -v '_test\.go$$' | xargs cat | wc -l

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 1200s ./internal/...

# Static analysis beyond `go vet`, with pinned tool versions so CI
# and local runs agree. `go run pkg@version` resolves the tools from
# the module cache without touching go.mod.
STATICCHECK_VERSION ?= v0.5.1
GOVULNCHECK_VERSION ?= v1.1.3
lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

# The CI reconfiguration soak: the multi-provider resharding tests
# under the race detector with seeded ChaosTransport loss/dup/delay on
# every link, long enough (RESHARD_SOAK_MS per soak) for dozens of
# routing flips. The gated invariant: acked writes are never lost
# across a flip.
RESHARD_SOAK_MS ?= 15000
reshard-soak:
	RESHARD_SOAK_MS=$(RESHARD_SOAK_MS) $(GO) test -race -count=1 -v \
		-run 'TestReshardUnderLiveTraffic|TestReshardSoakChaos' \
		-timeout 900s ./internal/yokan/router/

# Deterministic simulation suite (DESIGN.md §14, EXPERIMENTS.md E4/E14).
# Five legs, in order; both cores run on one harness (sim.Harness, DESIGN.md
# §17), every simulated member on a clock of its own seeded pace (±5 %):
#   1. the SWIM core: its purity check and every rule table (any test
#      named *Rules, internal/ssg), then the skewed-clock 1k-node seed
#      matrix (SIM_SEEDS seeds) with the ledger check after every step
#      (tags handed to an engine = tags handed back + ping-reqs kept), the
#      SWIM shapes at SIM_SEEDS seeds (probe load and pinned-window
#      detection flat from 250 to 1000 nodes, the suspicion window
#      against false deaths at 25 % loss), the replay and partition-heal
#      tests and two broken twins (a refutation
#      without the incarnation bump; forgetRelay, a timed-out ping-req
#      dropped unanswered), under the race detector;
#   2. the raft core on sim.Net: SIM_SEEDS seeds of 3- and 5-member
#      groups, each on a simulated disk faster and on one slower than
#      the network, under loss/dup/delay, a partition, crash-restarts
#      and a power cut with the four safety invariants and the ledger
#      check (tags a core was handed = tags handed back + tags it holds)
#      after every event and a linearizable history per seed, plus the
#      replay-identity test and the broken twins (two votes in a term;
#      leader self-count and follower acknowledgement before the disk
#      has the entry; a restarted member as impatient as a virgin one; a
#      held request never released; the tag of an overwritten entry
#      forgotten; and, each under the scripted attack on the leader's
#      lease it enables, a voter that does not withhold, a restart that
#      forgets it may have promised, a lease that survives a transfer and
#      one counted from the reply), each of which must fail, and the
#      no-fault scenarios for cold start, planned leader exits and held
#      requests, under the race detector;
#   3. the live-raft linearizability harness under -race at a few seeds
#      (races surface independent of history count);
#   4. the full SIM_HISTORIES-seed linearizability sweep plus the
#      broken-store and FSM-dedup companions, without -race so 100
#      histories stay inside minutes;
#   5. the 10k-endpoint, 10-virtual-minute scale run: every kill
#      detected and disseminated, event count and trace hash pinned;
#      wall time is logged, not judged.
# Optionally SIM_SOAK_MS runs a long virtual-time soak (e.g. 3600000
# for an hour of protocol time). Every failing run prints a
# `SIM_SEED=<n> go test ...` replay line; pin SIM_SEED to reproduce.
SIM_SEEDS ?= 8
SIM_HISTORIES ?= 100
SIM_SOAK_MS ?=
sim:
	$(GO) test -race -count=1 -timeout 300s \
		-run 'TestEngineIsPure|Rules|TestRefutationBumpsIncarnation|TestPingerBelievedDeadIsTold|TestOversleptRoundRendersNoVerdict|TestSuspicionWindowFollowsGroupSize' ./internal/ssg/
	SIM_SEEDS=$(SIM_SEEDS) $(GO) test -race -count=1 -timeout 1200s -v \
		-run 'TestSwimSeedMatrix1k|TestSwimShapes|TestSwimDeterministicReplay|TestSwimPartitionHeals|TestSwimCatchesBrokenRefutation|TestSwimCatchesForgottenRelay' ./internal/sim/
	SIM_SEEDS=$(SIM_SEEDS) $(GO) test -race -count=1 -timeout 1200s -v \
		-run 'TestRaftSim' ./internal/raft/
	SIM_HISTORIES=8 $(GO) test -race -count=1 -timeout 1200s \
		-run 'TestRaftKVLinearizableUnderFaults|TestLinearizabilityCheckerCatchesBrokenStore|TestKVFSMDeduplicatesRetries' ./internal/core/
	SIM_HISTORIES=$(SIM_HISTORIES) $(GO) test -count=1 -timeout 1200s \
		-run 'TestRaftKVLinearizableUnderFaults' ./internal/core/
	SIM_SCALE=1 $(GO) test -count=1 -timeout 600s -v -run 'TestSwim10k' ./internal/sim/
	@if [ -n "$(SIM_SOAK_MS)" ]; then \
		SIM_SOAK_MS=$(SIM_SOAK_MS) $(GO) test -count=1 -timeout 1200s -v -run 'TestSwimSoak' ./internal/sim/; \
	fi

# Everything the CI workflow runs, in the same order. Run before pushing.
ci: build vet fmt-check test race

# Allocation regression gate for the RPC hot path: fails if the pinned
# AllocsPerRun budgets (codec round trip == 0, sm forward <= 2, the
# traced-but-unsampled forward <= 2 with tracers installed, the margo
# forward with the resilience layer enabled adding zero over its plain
# baseline, and the yokan multi-op per-key deltas — PutMulti <= 0.5,
# GetMulti <= 1.5 per key over sm transport) regress, and for the
# per-byte path of a shard flip: a 4 MiB bulk pull over TCP allocates
# O(1) (TestBulkPullAllocsPinned), and a 4 MiB flip at most 4x its
# payload (TestReshardAllocBytesPinned). Also prints the -benchmem
# numbers for the same paths for context.
bench-alloc:
	$(GO) test -run 'AllocsPinned|AllocBytesPinned' -count=1 -v ./internal/codec/ ./internal/mercury/ ./internal/margo/ ./internal/yokan/... ./internal/raft/
	$(GO) test -run '^$$' -bench 'BenchmarkCodec|BenchmarkForward|BenchmarkMulti' -benchtime=1000x -benchmem ./internal/codec/ ./internal/mercury/ ./internal/margo/ ./internal/yokan/

# The standing benchmark (bench/, BENCHMARK.json) is a Go module of its
# own, so `go test ./...` never descends into it: vet and self-test it
# here (CI job bench-selftest).
bench-selftest:
	cd bench && $(GO) vet . && $(GO) test -count=1 .

# One end-to-end run of a standing-benchmark workload, exactly as the
# driver runs it (15 s, tracing off): make bench-e2e W=reshard-churn.
# BENCH_FLAGS adds to or overrides the flags, e.g. "--trace 1".
W ?= kv-small-tcp
BENCH_FLAGS ?=
bench-e2e:
	bash bench/run.sh --workload $(W) --seed 1 --seconds 15 --trace 0 $(BENCH_FLAGS)

# How a performance change is judged (bench/README.md): PAIRS
# alternating runs of PARENT and this checkout on workload W, printing
# each side's median and quartiles, the pairs the change won and lost,
# per metric the verdict that follows from them and BENCHMARK.json's
# bound (better, worse, unresolved or within bound) and `make loc` of
# both sides, and keeping every run as JSON:
#   make bench-pairs PARENT=origin/main W=raft-read-heavy
PARENT ?= HEAD
PAIRS ?= 10
bench-pairs:
	bash scripts/bench-pairs.sh $(PARENT) $(W) $(PAIRS) -- $(BENCH_FLAGS)

# Fuzz every hostile-input parser for FUZZTIME each — the pooled codec
# decoder, the TCP frame parser, every wire message of every component
# (one harness, internal/codec/codectest: no panic, allocation bounded
# by the input size, accepted input round-trips, no truncated message
# decodes), the router shard-map encoding and snapshot merge, the
# Prometheus exposition round trip (render → parse → re-render,
# exercised by the federation path on remote snapshots), the durable log
# reader (any file: a prefix of whole frames replayed, the rest cut,
# the next append replayed last) — plus the
# yokan op-script target, which runs differential op sequences
# (multi-key batches, shard-boundary keys) against a reference model.
# Go allows one -fuzz pattern per invocation, so targets run one by one.
FUZZTIME ?= 20s
FUZZ_MESSAGE_PKGS = mercury raft yokan yokan/router ssg remi warabi colza poesie core hepnos
fuzz:
	$(GO) test ./internal/codec/   -run '^FuzzDecoder$$'      -fuzz '^FuzzDecoder$$'      -fuzztime $(FUZZTIME)
	$(GO) test ./internal/codec/   -run '^FuzzRoundTrip$$'    -fuzz '^FuzzRoundTrip$$'    -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mercury/ -run '^FuzzFrameDecode$$'  -fuzz '^FuzzFrameDecode$$'  -fuzztime $(FUZZTIME)
	for p in $(FUZZ_MESSAGE_PKGS); do \
		$(GO) test ./internal/$$p/ -run '^FuzzWireMessages$$' -fuzz '^FuzzWireMessages$$' -fuzztime $(FUZZTIME) || exit 1; \
	done
	$(GO) test ./internal/yokan/   -run '^FuzzOpScript$$'     -fuzz '^FuzzOpScript$$'     -fuzztime $(FUZZTIME)
	$(GO) test ./internal/yokan/router/ -run '^FuzzShardMapWire$$'       -fuzz '^FuzzShardMapWire$$'       -fuzztime $(FUZZTIME)
	$(GO) test ./internal/yokan/router/ -run '^FuzzSnapshotMerge$$'      -fuzz '^FuzzSnapshotMerge$$'      -fuzztime $(FUZZTIME)
	$(GO) test ./internal/metrics/ -run '^FuzzPrometheusExposition$$' -fuzz '^FuzzPrometheusExposition$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/durable/ -run '^FuzzOpenLog$$'      -fuzz '^FuzzOpenLog$$'      -fuzztime $(FUZZTIME)

# The introspection-plane smoke (EXPERIMENTS.md E13): the multi-node
# metrics federation, exemplar→trace resolution, SLO burn-rate health
# flip and profile RPCs, all under the race detector. When
# OBSERVE_ARTIFACT_DIR is set the tests drop a merged cluster
# exposition and a heap profile there for upload.
observe-smoke:
	$(GO) test -race -count=1 -v \
		-run 'TestClusterMetrics|TestExemplarResolvesToTrace|TestHealthzDegradedOnSLOBurn|TestProfilingGates' \
		-timeout 300s ./internal/bedrock/
	$(GO) test -race -count=1 -timeout 300s ./internal/observe/ ./cmd/bedrock-query/

# Observability overhead numbers for the EXPERIMENTS.md E13 table: SLO
# tracker on the handler path, a 3-node federation merge, one Go
# runtime-metrics scrape, and the forward path with tracing compiled
# in (the exemplar branch rides the existing slow-path commit).
bench-observe:
	$(GO) test -run '^$$' -bench 'BenchmarkTracker|BenchmarkAggregator|BenchmarkRuntimeScrape' \
		-benchtime=10000x -benchmem ./internal/observe/
	$(GO) test -run '^$$' -bench 'BenchmarkForward' -benchtime=10000x -benchmem ./internal/margo/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/hepnos-workflow
	$(GO) run ./examples/elastic-kv
	$(GO) run ./examples/resilient-kv
	$(GO) run ./examples/colza-pipeline
	$(GO) run ./examples/reshard-demo

clean:
	$(GO) clean ./...
