# LambdaStore build and test entry points.
#
#   make build   compile everything (library + commands)
#   make test    full test suite
#   make race    race-detector pass over the concurrency-heavy packages
#   make chaos   seeded failover chaos suite under the race detector
#   make fuzz-smoke  5 s of native fuzzing per Fuzz* target in the module (FUZZTIME=10s for longer)
#   make bench   telemetry hot-path benchmarks (must report 0 allocs/op), then the store's insert and commit costs
#   make bench-recovery  rejoin cost, digest diff vs full resync (JSON artifact)
#   make bench-rebalance many-group placement + Zipf hot-spot convergence (JSON artifact)
#   make bench-read-scaleout  leased replica reads vs primary-only routing (JSON artifact)
#   make bench-overload  open-loop latency vs offered load, shed on/off (JSON artifact)
#   make bench-smoke  vet + smoke-test the benchmark module (it is not part of ./...)
#   make vet     gofmt + go vet hygiene
#   make loc     lines of Go outside benchmark/: product total and per package, tests apart
#   make check   everything the CI gate runs, then loc

GO ?= go

.PHONY: all build test race chaos fuzz-smoke bench bench-recovery bench-rebalance bench-read-scaleout bench-overload bench-smoke vet loc check clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The packages where a data race would actually hide: the runtime, the
# cluster node, the caches on the read path, the store, the telemetry
# instruments themselves, the VM (a module's linked code is shared across
# instances; the differential test runs it against the reference
# interpreter under -race),
# rpc (every frame on a connection leaves through the connWriter's
# single flusher), the baseline (its compute node drives core's warm
# pool and parallel fan-out from RPC handler goroutines), and recovery
# (its protocol tests race live forwards against range rebuilds).
race:
	$(GO) test -race ./internal/core/ ./internal/cluster/ ./internal/cache/ ./internal/store/ ./internal/telemetry/ ./internal/rebalance/ ./internal/replication/ ./internal/vm/ ./internal/admission/ ./internal/rpc/ ./internal/baseline/ ./internal/recovery/

# Deterministic failover chaos: every seed replays the same kill/partition/
# fsync-failure schedule (see EXPERIMENTS.md "Chaos runs"). The smoke
# variant already rides in `make test`; this is the full multi-seed pass.
chaos:
	$(GO) test -run TestChaos -race -count=1 ./internal/chaos/

# The seed corpus of every fuzz target runs in `make test`; this finds every
# Fuzz* function in the module and spends FUZZTIME looking for new inputs to
# each. A finding fails the run and lands in the package's testdata/fuzz/:
# fix the decoder and commit the file as a seed.
FUZZTIME ?= 5s
fuzz-smoke:
	@set -e; for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz' || true); do \
			echo "== $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

bench:
	$(GO) test -run Telemetry -bench . -benchmem ./internal/telemetry/
	$(GO) test -run '^$$' -bench 'MemtableAdd|DBWriteSync8' -benchmem ./internal/store/

# Rejoin cost: a crashed backup catches up via range-digest diff vs the
# full-resync ablation, across store sizes and downtime divergence. The
# artifact shows streamed bytes track divergence, not store size.
bench-recovery:
	$(GO) run ./cmd/lambda-bench -recovery -out results/BENCH_recovery.json

# Rebalance: uniform Post throughput at 1/4/16/48 single-node groups
# (per-node admission modeled with an injected per-frame receive delay),
# then the Zipf(1.1) correlated hot spot at 16 groups with the rebalancer
# off vs on. The acceptance bar is >=1.5x from rebalancing and a move
# count that plateaus instead of oscillating.
bench-rebalance:
	$(GO) run ./cmd/lambda-bench -rebalance -accounts 512 -concurrency 64 -ops 3000 -out results/BENCH_rebalance.json

# Read scale-out: GetTimeline at 1/8/64 clients on a 3-replica group,
# reads pinned to the primary vs spread over lease-holding backups
# (per-node admission modeled with an injected per-request receive
# delay), plus a mixed 90/10 run comparing write-ack latency. The
# acceptance bar is >=2.5x read throughput at 64 clients and a write-ack
# p99 within 10% of the lease-free baseline.
bench-read-scaleout:
	$(GO) run ./cmd/lambda-bench -read-scaleout -ops 4000 -out results/BENCH_read_scaleout.json

# Overload: seeded open-loop Poisson arrivals swept from half the measured
# closed-loop capacity to 1.8x past it (latency measured CO-safe from each
# intended arrival slot), against the same deployment with the admission
# plane off (unbounded queueing) vs on (bounded queue + deadline shed).
# The acceptance bar is a shed-config admitted-request p99 that stays a
# small multiple of its pre-knee value while the no-shed p99 collapses.
bench-overload:
	$(GO) run ./cmd/lambda-bench -overload -out results/BENCH_overload.json

# benchmark/ is a module of its own (replace lambdastore => ../), so root
# `go build ./... && go test ./...` never compiles it: a signature change in
# a package it imports must break here, not in the benchmark driver.
bench-smoke:
	cd benchmark && $(GO) vet . && $(GO) test .

vet:
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi
	$(GO) vet ./...

# The size every simplicity PR reports before -> after: lines of gofmt'd Go
# outside benchmark/ (which is frozen), product code per package and in
# total, tests apart. `make vet` is what guarantees the files are gofmt'd.
loc:
	@find . -name '*.go' -not -path './benchmark/*' -not -name '*_test.go' | xargs wc -l | \
		awk '$$2 != "total" { n = split($$2, p, "/"); d = $$2; sub("/" p[n] "$$", "", d); pkg[d] += $$1; sum += $$1 } \
		     END { for (d in pkg) printf "%7d  %s\n", pkg[d], d; printf "%7d  non-test total\n", sum }' | sort -k2
	@find . -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l | awk '{ printf "%7d  test total\n", $$1 }'

check: vet build test race bench-smoke loc

clean:
	$(GO) clean ./...
