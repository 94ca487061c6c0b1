# Convenience targets; everything is plain `go` underneath.

GO ?= go

# Link-time version stamp, surfaced by every command's -version flag,
# RUN.json, /v1/stats and the /metrics build-info series.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -ldflags "-X subcache/internal/telemetry.Version=$(VERSION)"

.PHONY: all build test test-race vet test-faults test-telemetry test-stackdist test-service test-durability bench-kernel bench-layers bench-smoke experiments golden traces cover fmt clean

all: build test

build:
	$(GO) build $(LDFLAGS) ./...

test:
	$(GO) test ./...

# Full test suite under the race detector; CI runs this on every push.
test-race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Deterministic fault-injection campaign plus the checkpoint, panic
# isolation and corrupt-trace suites, under the race detector.
test-faults:
	$(GO) test -race -run 'Fault|Panic|Campaign|Journal|Checkpoint|Corrupt|Truncated|Latched|Cancel' ./internal/faultinject/... ./internal/sweep/... ./internal/trace/... .

# Telemetry contracts under the race detector: schema round-trips,
# counter exactness, bit-identical results with a recorder attached,
# and error-attribution mirroring in the fault campaign (see
# docs/OBSERVABILITY.md).
test-telemetry:
	$(GO) test -race -run 'Telemetry|Event|Stream|Sink|Manifest|Fingerprint|Snapshot|Run(Emit|Close|Concurrent)|Nop|Mirrored|WriteFileAtomic|Histogram|Quantile|Prom|Span|Metrics' ./internal/telemetry/... ./internal/sweep/... ./internal/faultinject/... ./internal/service/...

# Sweep service contracts under the race detector: admission control,
# singleflight dedup, tenant quotas, graceful drain with bit-identical
# checkpoint resume, clean terminal run-end events, and the goroutine
# leak regressions (see docs/SERVICE.md).
test-service:
	$(GO) test -race -run 'Service|Submit|Admission|Quota|Dedup|Drain|Fingerprint|RunEnd|Leak|RunClose' ./internal/service/... ./internal/telemetry/...

# Durability contracts under the race detector: job-journal replay and
# torn-tail recovery, verified-cache quarantine, TTL and LRU eviction,
# per-job timeouts, transient retry, and the SIGKILL kill-restart
# campaign (fixed seed 1; override with FAULTINJECT_SEED=N to explore
# other kill timings).  See docs/SERVICE.md "Durability and recovery".
test-durability:
	$(GO) test -race -run 'Journal|CrashRecovery|DrainThenRestart|CacheCorruption|CacheTTL|CacheSizeCap|JobTimeout|TransientRetry|ReadyzDraining|Transient|ServiceKillRestartCampaign' ./internal/service/... ./internal/sweep/... ./internal/faultinject/...

# Stack-distance kernel gate under the race detector: differential
# equivalence, inclusion/conservation property tests, set-partition
# invariance and grouping for stackdist.Engine, which is no sweep engine
# but the comparison perfbench still replays and times.
test-stackdist:
	$(GO) test -race -run 'StackDist|Diff|Property|Group|Supported|Engine' ./internal/stackdist/...

# Hot access-kernel microbenchmarks (hit, miss, load-forward fill) with
# allocation counts; all three must report 0 allocs/op.
bench-kernel:
	$(GO) test -run='^$$' -bench='BenchmarkAccessHit|BenchmarkAccessMiss|BenchmarkFillLoadForward' -benchmem ./internal/cache

# Refresh the layer record, BENCH_layers.json: perfbench's traced
# per-layer metrics over seeds 1-5 of every workload (~4 min).  Fails
# if any run is not "correct":true, or if a kernel *.hit_ns/*.miss_ns
# median exceeds 1.25x the committed max after rescaling by cal_ns; the
# committed record is then left unchanged (see scripts/bench-layers.sh).
bench-layers:
	bash scripts/bench-layers.sh

# Keep the repository benchmark building and running: perfbench/ is its
# own Go module, so the root `go build ./...` never compiles it.  Vets
# it, then runs a short table7-grid run, a traced paper-point run (the
# only workload streaming full 1M-reference traces; its serial replay
# reads synth.WordSource.Next) and a traced sweepd-mix run (see
# perfbench/README.md); each must end on a "correct":true line.
bench-smoke:
	cd perfbench && $(GO) vet ./...
	@for args in "--workload table7-grid --seed 1 --seconds 5 --trace 0" \
		"--workload paper-point --seed 1 --seconds 5 --trace 1" \
		"--workload sweepd-mix --seed 1 --seconds 5 --trace 1"; do \
		last=$$(bash perfbench/run.sh $$args | tail -n 1); \
		echo "$$last" | cut -c1-160; \
		case "$$last" in *'"correct":true'*) ;; \
		*) echo "bench-smoke: $$args: last line is not \"correct\":true" >&2; exit 1;; esac; \
	done

# Regenerate every table and figure at the paper's 1M-reference scale.
experiments:
	$(GO) run ./cmd/experiments -refs 1000000 -out results

# Regenerate every experiment at the paper's 1M-reference scale and
# require the output directory byte-identical to the committed
# results/, every file present on both sides: a gate on the paper
# artifacts that does not trust any engine or executor (~1 min on two
# cores).  compare.txt holds EXPERIMENTS.md's headline figures.
golden:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/experiments -refs 1000000 -out "$$tmp" && \
	diff -rq "$$tmp" results && \
	echo "golden ok: all $$(ls results | wc -l) files of results/ reproduced byte for byte"

# Write the 25-workload synthetic trace suite to traces/.
traces:
	$(GO) run ./cmd/tracegen -all -n 1000000 -out traces

cover:
	$(GO) test -cover ./...

fmt:
	gofmt -w .

clean:
	rm -rf results traces
