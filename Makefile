# Developer entry points. CI runs the same targets.

GO ?= go

.PHONY: build test test-short race loc cover fuzz-smoke fuzz-frames smoke-multiprocess bench-snapshot bench-diff bench-micro bench-wire bench-transport bench-blob chaos-soak

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
	$(GO) test -race -short ./internal/obs ./internal/san ./internal/vcache ./internal/frontend ./internal/edge ./internal/transport ./internal/chaos ./internal/core ./internal/supervisor ./internal/manager

# Non-test Go lines outside bench/ (whole tree, then internal/core and
# internal/manager) — the numbers CHANGES.md and ROADMAP.md quote for
# "net-negative" PRs.
loc:
	@printf 'non-test Go lines outside bench/: '; find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -exec cat {} + | wc -l
	@for d in internal/core internal/manager; do printf "non-test Go lines in $$d: "; find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l; done

# Coverage with the committed-baseline regression gate (satellite:
# fails if total coverage drops >2 points from coverage_baseline.txt).
cover:
	./scripts/coverage_check.sh

# Short fuzz smoke over the wire codec (CI runs this on every push).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzWireRoundTrip -fuzztime=15s ./internal/stub

# Fuzz the transport's streaming frame decoder (torn reads, corrupt
# CRCs, concatenated batches). CI runs this on every push.
fuzz-frames:
	$(GO) test -run='^$$' -fuzz=FuzzFrameRoundTrip -fuzztime=15s ./internal/transport

# Two OS processes over loopback TCP serving a TranSend workload:
# zero failed requests, zero wire errors, or the target fails.
smoke-multiprocess:
	./scripts/smoke_multiprocess.sh

# Write BENCH_<date>.json with the figure-benchmark metrics and the
# micro-benchmark table so the perf trajectory is a diffable artifact.
bench-snapshot:
	$(GO) run ./cmd/experiments -snapshot auto

# Regression gate: fresh snapshot vs the newest committed baseline;
# fails on >20% drift of any seed-deterministic metric. CI runs this.
bench-diff:
	./scripts/bench_diff.sh

# The micro-benchmark table (microbench.go) — the same bodies the
# snapshot records — and slices of it for quick local iteration:
# bench-wire is the codec/SAN serialization hot path, bench-transport
# the frame encode/decode cost and the bridged socket send (frames per
# write, drops per op), bench-blob the zero-copy blob relay
# (FE→cache→FE over two bridges) at 4 KB / 64 KB / 512 KB, where B/op
# and allocs/op are the copy count per request.
bench-micro:
	$(GO) test -run='^$$' -bench='Micro' -benchmem -count=1 .

bench-wire:
	$(GO) test -run='^$$' -bench='Wire|Micro/(wire|san)' -benchmem -count=1 ./internal/stub .

bench-transport:
	$(GO) test -run='^$$' -bench='Micro/(frame|bridge_send)' -benchmem -count=1 .

bench-blob:
	$(GO) test -run='^$$' -bench='Micro/blob_relay' -benchmem -count=1 .

# The randomized kill-anything soak plus the full chaos suite.
chaos-soak:
	$(GO) test -count=1 -v -run 'TestSoak|TestScenario|TestSchedule' ./internal/chaos
