# Developer entry points. CI runs the same targets.

GO ?= go

.PHONY: build test test-short race loc loc-gate cover fuzz-smoke fuzz-frames fuzz-media fuzz-headers smoke-multiprocess bench-micro bench-pairs chaos-soak

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race pass over the packages with real concurrency on the hot path,
# plus the lifecycle trio: core's component table is mutated by the
# manager sweep, the supervisor, the exit observer and chaos at once.
race:
	$(GO) test -race -short ./internal/obs ./internal/san ./internal/vcache ./internal/frontend ./internal/edge ./internal/transport ./internal/chaos ./internal/core ./internal/supervisor ./internal/manager ./internal/stub ./internal/monitor ./internal/search

# Non-test Go lines outside bench/ (whole tree, then internal/core,
# internal/manager, cmd/experiments and cmd/node) — the numbers
# CHANGES.md and ROADMAP.md quote for "net-negative" PRs.
loc:
	@./scripts/loc_check.sh --count
	@for d in internal/core internal/manager cmd/experiments cmd/node; do printf "non-test Go lines in $$d: "; find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l; done

# The line-count ratchet: fails when the first figure above exceeds the
# committed loc_baseline.txt (scripts/loc_check.sh --update moves it).
loc-gate:
	./scripts/loc_check.sh

# Coverage with the committed-baseline regression gate (satellite:
# fails if total coverage drops >2 points from coverage_baseline.txt).
cover:
	./scripts/coverage_check.sh

# Short fuzz smoke over every wire layout in san's kind table (CI runs
# this on every push).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzWireRoundTrip -fuzztime=15s ./internal/stub

# Fuzz the transport's streaming frame decoder (torn reads, corrupt
# CRCs, concatenated batches), then one connection's chunk reassembly
# (interleaved, repeated, overlapping and contradictory fragments). One
# target per go test run; CI runs both on every push.
fuzz-frames:
	$(GO) test -run='^$$' -fuzz=FuzzFrameRoundTrip -fuzztime=15s ./internal/transport
	$(GO) test -run='^$$' -fuzz=FuzzChunkReassembly -fuzztime=15s ./internal/transport

# Fuzz the two image decoders (arbitrary bytes never panic or allocate
# past the pixel cap; SJPG's reduced decode agrees with decode-then-
# Downscale). One target per go test run; CI runs both on every push.
fuzz-media:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeSJPG -fuzztime=10s ./internal/media
	$(GO) test -run='^$$' -fuzz=FuzzDecodeSGIF -fuzztime=10s ./internal/media

# Fuzz the front door's header parsing (X-Deadline-Ns, X-Trace-Id): an
# absent or malformed deadline gets the fallback, and what a hop writes
# reads back as written. CI runs it on every push.
fuzz-headers:
	$(GO) test -run='^$$' -fuzz=FuzzRequestHeaders -fuzztime=15s ./internal/edge

# Two OS processes over loopback TCP serving a TranSend workload:
# zero failed requests, zero wire errors, or the target fails.
smoke-multiprocess:
	./scripts/smoke_multiprocess.sh

# The micro-benchmark table (microbench_test.go): leaf costs of the
# request hot path, single run. TestMicroCeilings gates the same rows'
# allocs/op and B/op in `make test`. BENCH narrows the run, e.g.
#   make bench-micro BENCH='Micro/(wire|san)'         codec + SAN send
#   make bench-micro BENCH='Micro/(frame|bridge_send)' framing + socket
#   make bench-micro BENCH='Micro/blob_relay'          FE→cache→FE relay
#   make bench-micro BENCH='Micro/(distill|munge)'     one distillation per type
BENCH ?= Micro
bench-micro:
	$(GO) test -run='^$$' -bench='$(BENCH)' -benchmem -count=1 .

# Alternating parent/working-tree runs of one bench/ workload with the
# pair-rule summary a performance claim needs, e.g.
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=miss_distill [PAIRS=10]
# WORKLOAD=all runs the four in sequence (~35 min at ten pairs) and
# fails if any row reads WORSE or unresolved: the merge check's rule.
PAIRS ?= 10
bench-pairs:
	./scripts/bench_pairs.sh $(PARENT) $(WORKLOAD) $(PAIRS)

# The randomized kill-anything soak plus the full chaos suite.
chaos-soak:
	$(GO) test -count=1 -v -run 'TestSoak|TestScenario|TestSchedule' ./internal/chaos
