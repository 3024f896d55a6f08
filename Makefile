# LambdaStore build and test entry points.
#
#   make build   compile everything (library + commands)
#   make test    full test suite
#   make race    race-detector pass over the concurrency-heavy packages
#   make chaos   seeded failover chaos suite under the race detector
#   make fuzz-smoke  5 s of native fuzzing per Fuzz* target in the module (FUZZTIME=10s for longer)
#   make bench   telemetry hot-path benchmarks (must report 0 allocs/op), the store's insert (random and in bulk-load order), commit, 64-batch bulk commit, table point-read and 41-read snapshot run (0 allocs/op) costs, one rpc round trip, with a small handler, with one that uses 32 KB of stack and from two goroutines on one pool to one peer (<= 1 allocs/op each), one lock-table admission, uncontended and queued behind a writer (0 allocs/op each), one create_post job to 8 followers into a reused result buffer (0 allocs/op), one uncached get_timeline(40) into a reused result buffer (0 allocs/op), one pooled instance's ResetFast after 8 KB of writes (0 allocs/op) and one cold start of the Retwis guest (<= 2 allocs/op: the instance and its memory, <= 16 KB/op)
#   make bench-paper  the paper's Figures 1-2, Table 1 and a delay sweep at quick scale (paper scale: go run ./cmd/retwis-bench)
#   make bench-smoke  vet + smoke-test the benchmark module (it is not part of ./...)
#   make vet     gofmt + go vet hygiene
#   make loc     lines of Go outside benchmark/: product total and per package, tests apart
#   make check   everything the CI gate runs, then loc
#   make ab      not part of check: PARENT=<rev> runs benchmark/run.sh ABRUNS times per
#                workload on the parent (exported to .ab/) and on the working tree,
#                alternating which goes first, and prints each metric's median [Q1-Q3]
#                per side, the pairs the change won, and "unresolved" where the
#                medians differ by less than the parent's IQR (ABWORKLOADS, ABSECONDS,
#                ABTRACE to override)
#   make heap    not part of check: W=<workload> runs one seed of the workload from a
#                copy of benchmark/ in .heap/, patched to record every allocation and
#                to write the heap profile where the run reads live_heap_mb, and prints
#                in-use bytes by allocation site (REV=<rev> measures that revision);
#                ALLOCS=1 instead records the allocs profile right before and right
#                after the measured window and prints the window's allocations by
#                site (pprof -base), the count allocs_per_op divides
#   make flakes  not part of check: builds one race-enabled test binary of FLAKEPKG
#                (default internal/cluster), runs each of FLAKES FLAKERUNS times (one
#                process per run) and tallies the failures by each run's first failing
#                line, with addresses masked (FLAKEPKG=internal/recovery
#                FLAKES="TestA TestB" FLAKERUNS=200 to override)

GO ?= go

.PHONY: all build test race chaos fuzz-smoke bench bench-paper bench-smoke vet loc check ab heap flakes clean

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
# pool and parallel fan-out from RPC handler goroutines), recovery
# (its protocol tests race live forwards against range rebuilds),
# retwis (its allocation guards must stand down under -race, where
# sync.Pool drops puts), sched (every invocation is admitted through
# its lock table, which recycles idle entries), paxos and the coordinator
# (acceptors and learners take concurrent handlers' messages under one
# lock; a node heartbeats every replica at once), the fault plane (process-global
# state every connection's sends read), gopool (every request's task
# is claimed by, and parks, one of its process-global workers), and debug
# (its operator methods run on RPC handler goroutines, and node.faults
# writes the process-global fault plane).
race:
	$(GO) test -race ./internal/core/ ./internal/cluster/ ./internal/cache/ ./internal/store/ ./internal/telemetry/ ./internal/replication/ ./internal/vm/ ./internal/rpc/ ./internal/baseline/ ./internal/recovery/ ./internal/retwis/ ./internal/sched/ ./internal/paxos/ ./internal/coordinator/ ./internal/fault/ ./internal/gopool/ ./internal/debug/

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
	$(GO) test -run '^$$' -bench 'MemtableAdd|DBWriteSync8|DBWriteBulk|TableGet|SnapshotRun' -benchmem ./internal/store/
	$(GO) test -run '^$$' -bench '^BenchmarkCall(DeepHandler|ConcurrentOnePeer)?$$' -benchmem ./internal/rpc/
	$(GO) test -run '^$$' -bench '^BenchmarkAcquire(Contended)?$$' -benchmem ./internal/sched/
	$(GO) test -run '^$$' -bench '^Benchmark(CreatePost|ColdTimeline)$$' -benchmem ./internal/retwis/
	$(GO) test -run '^$$' -bench '^Benchmark(ResetFast|NewInstance)$$' -benchmem ./internal/vm/

# The paper's comparison (Figures 1-2, Table 1) at quick scale, with the
# A5 delay sweep: aggregated vs disaggregated on loopback, one deployment
# at a time. Drop the flags for the paper's 10,000 accounts and 100 clients.
bench-paper:
	$(GO) run ./cmd/retwis-bench -accounts 1000 -concurrency 32 -ops 1000 -delay 0,1ms

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
# outside benchmark/ (which is frozen) and the dot directories (build and
# A/B output), product code per package and in total, tests apart. `make vet` is what guarantees the files are gofmt'd.
loc:
	@find . -name '*.go' -not -path './benchmark/*' -not -path './.*' -not -name '*_test.go' | xargs wc -l | \
		awk '$$2 != "total" { n = split($$2, p, "/"); d = $$2; sub("/" p[n] "$$", "", d); pkg[d] += $$1; sum += $$1 } \
		     END { for (d in pkg) printf "%7d  %s\n", pkg[d], d; printf "%7d  non-test total\n", sum }' | sort -k2
	@find . -name '*_test.go' -not -path './benchmark/*' -not -path './.*' | xargs cat | wc -l | awk '{ printf "%7d  test total\n", $$1 }'

check: vet build test race bench-smoke loc

ABRUNS ?= 5
ABSECONDS ?= 15
ABTRACE ?= 0
ABWORKLOADS ?= timeline_hot timeline_cold post_sync retwis_mix
ab:
	@test -n "$(PARENT)" || { echo "usage: make ab PARENT=<rev> [ABRUNS=5] [ABSECONDS=15] [ABTRACE=0] [ABWORKLOADS=...]"; exit 2; }
	bash scripts/ab.sh $(PARENT) $(ABRUNS) $(ABSECONDS) $(ABTRACE) $(ABWORKLOADS)

heap:
	@test -n "$(W)" || { echo "usage: make heap W=<workload> [REV=<rev>] [ALLOCS=1]"; exit 2; }
	bash scripts/heap.sh $(if $(ALLOCS),-allocs) $(W) $(REV)

# A run's first failing line is the first t.Error/t.Fatal line (file.go:N:),
# panic or data-race report in its output; 127.0.0.1:port and 0x pointers
# are masked so that one cause tallies as one line. A subtest's tally file
# is named with its slashes mapped to underscores.
FLAKEPKG ?= internal/cluster
FLAKES ?= TestRejoinConcurrentWithWrites TestLiveMigrationUnderWrites
FLAKERUNS ?= 50
FLAKEDIR := $(CURDIR)/.flakes
FLAKEBIN := $(FLAKEDIR)/$(notdir $(FLAKEPKG)).test
flakes:
	@mkdir -p $(FLAKEDIR)
	$(GO) test -race -c -o $(FLAKEBIN) ./$(FLAKEPKG)/
	@cd $(FLAKEPKG) && for t in $(FLAKES); do \
		tally=$(FLAKEDIR)/$$(echo "$$t" | tr / _).tally; : > $$tally; fails=0; \
		for i in $$(seq $(FLAKERUNS)); do \
			if ! $(FLAKEBIN) -test.run "^$$t\$$" -test.count=1 > $(FLAKEDIR)/run.out 2>&1; then \
				fails=$$((fails + 1)); \
				line=$$(grep -m1 -E '^\s+[A-Za-z0-9_]+\.go:[0-9]+: |^panic: |DATA RACE' $(FLAKEDIR)/run.out \
					| sed -E 's/^\s+//; s/127\.0\.0\.1:[0-9]+/ADDR/g; s/0x[0-9a-f]+/0xADDR/g'); \
				echo "$${line:-(no failing line)}" >> $$tally; \
			fi; \
		done; \
		echo "== $$t: $$fails of $(FLAKERUNS) runs failed"; \
		sort $$tally | uniq -c | sort -rn; \
	done

clean:
	$(GO) clean ./...
