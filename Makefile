GO ?= go

.PHONY: all build test vet fmt race fuzz chaos ci determinism shards metrics-golden spans-golden golden offbench-bin bench bench-micro bench-json bench-gate bench-check print-bench-pkgs bench-full results examples serve loadtest serve-smoke docker clean

# The offbench binary shared by the determinism and golden targets; built
# once per make invocation instead of once per target.
OFFBENCH_BIN = /tmp/offbench-ci

# The micro-benchmark packages whose hot paths carry allocation and
# latency contracts, and the committed baseline they gate against.
BENCH_PKGS = ./internal/sim/ ./internal/metrics/ ./internal/trace/ ./internal/alloc/ ./internal/network/ ./internal/sched/ ./internal/core/ ./internal/partition/ ./internal/workload/
BENCH_BASELINE = BENCH_2026-08-08.json

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Fail if any file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

# Short fuzzing smoke runs over the fault-injector invariants, the span
# JSONL codec, the Page–Hinkley drift detector, the shard-barrier
# determinism property, the Prometheus name sanitizer, the DAG
# validator/topological-sort invariants, the serverless sizer's
# agreement with the full memory sweep, the pooled sim.Resource's
# agreement with the closure-based reference, the histogram
# quantile's agreement with the ascending scan, the small-mode
# histogram's agreement with the dense reference, the partition
# searchers' agreement with their Objective-driven references, the
# DAG generator and rank placer's agreement with theirs and the shared
# placement estimate's agreement with the two estimators it replaced.
# CI's fuzz smoke step runs this target. Longer local sessions:
#   go test -fuzz=FuzzFaultInjector -fuzztime=5m ./internal/fault/
#   go test -fuzz=FuzzReadSpansJSONL -fuzztime=5m ./internal/trace/
#   go test -fuzz=FuzzDriftDetector -fuzztime=5m ./internal/adapt/
#   go test -fuzz=FuzzShardBarrier -fuzztime=5m ./internal/sim/
#   go test -fuzz=FuzzSanitizeName -fuzztime=5m ./internal/metrics/
#   go test -fuzz=FuzzDAGValidate -fuzztime=5m ./internal/dag/
#   go test -fuzz=FuzzChooseMatchesSweep -fuzztime=5m ./internal/alloc/
#   go test -fuzz=FuzzResourceMatchesReference -fuzztime=5m ./internal/sim/
#   go test -fuzz=FuzzHistogramQuantileMatchesScan -fuzztime=5m ./internal/metrics/
#   go test -fuzz=FuzzHistogramSmallMatchesDense -fuzztime=5m ./internal/metrics/
#   go test -fuzz=FuzzSearchMatchesReference -fuzztime=5m ./internal/partition/
#   go test -fuzz=FuzzJobsMatchReference -fuzztime=5m ./internal/workload/
#   go test -fuzz=FuzzEstimateMatchesReference -fuzztime=5m ./internal/dag/
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzFaultInjector -fuzztime=10s ./internal/fault/
	$(GO) test -run='^$$' -fuzz=FuzzReadSpansJSONL -fuzztime=10s ./internal/trace/
	$(GO) test -run='^$$' -fuzz=FuzzDriftDetector -fuzztime=10s ./internal/adapt/
	$(GO) test -run='^$$' -fuzz=FuzzShardBarrier -fuzztime=10s ./internal/sim/
	$(GO) test -run='^$$' -fuzz=FuzzSanitizeName -fuzztime=10s ./internal/metrics/
	$(GO) test -run='^$$' -fuzz=FuzzDAGValidate -fuzztime=10s ./internal/dag/
	$(GO) test -run='^$$' -fuzz=FuzzChooseMatchesSweep -fuzztime=10s ./internal/alloc/
	$(GO) test -run='^$$' -fuzz=FuzzResourceMatchesReference -fuzztime=10s ./internal/sim/
	$(GO) test -run='^$$' -fuzz=FuzzHistogramQuantileMatchesScan -fuzztime=10s ./internal/metrics/
	$(GO) test -run='^$$' -fuzz=FuzzHistogramSmallMatchesDense -fuzztime=10s ./internal/metrics/
	$(GO) test -run='^$$' -fuzz=FuzzSearchMatchesReference -fuzztime=10s ./internal/partition/
	$(GO) test -run='^$$' -fuzz=FuzzJobsMatchReference -fuzztime=10s ./internal/workload/
	$(GO) test -run='^$$' -fuzz=FuzzEstimateMatchesReference -fuzztime=10s ./internal/dag/

# Everything CI runs, in order: the gates plus the determinism diffs.
ci: build vet fmt test race fuzz determinism metrics-golden spans-golden serve-smoke

# Build the offbench binary the golden targets share.
offbench-bin:
	$(GO) build -o $(OFFBENCH_BIN) ./cmd/offbench

# Prove offbench's stdout is byte-identical serial vs parallel and still
# matches the committed quick-scale goldens: same seed, same bytes,
# regardless of worker count or completion order. Then the
# state-dependent experiments one by one: E19's bandits learn from
# outcome feedback, E20's failover layer adds health tracking, canary
# probes and a wait queue, E21's conservative-barrier engine must match
# at one shard (the serial reference), two (a 2-vCPU layout) and seven (a
# partition that divides nothing evenly), and E22's DAG jobs thread
# precedence through the event core. Then the quick suite runs twice in
# one process with observation on, and every table, registry export and
# series must match byte for byte: Go randomises map order on every
# range, so a result that depends on it differs between the runs. Last,
# the whole test suite in a taskpoison build, where a released task is poisoned and never reused,
# so a read of a task after it settled changes results. CI's determinism
# job runs this target with metrics-golden and spans-golden.
determinism: offbench-bin
	$(OFFBENCH_BIN) -scale quick -csv -seed 1 -parallel 1 -quiet > /tmp/offbench-serial.txt
	$(OFFBENCH_BIN) -scale quick -csv -seed 1 -parallel 4 -quiet > /tmp/offbench-parallel.txt
	cmp /tmp/offbench-serial.txt /tmp/offbench-parallel.txt
	rm -rf /tmp/offbench-golden
	$(OFFBENCH_BIN) -scale quick -csv -seed 1 -parallel 4 -quiet -out /tmp/offbench-golden > /dev/null
	diff -ru results/golden /tmp/offbench-golden
	$(OFFBENCH_BIN) -scale quick -csv -seed 1 -exp E19 -parallel 1 -quiet > /tmp/offbench-e19-serial.txt
	$(OFFBENCH_BIN) -scale quick -csv -seed 1 -exp E19 -parallel 4 -quiet > /tmp/offbench-e19-parallel.txt
	cmp /tmp/offbench-e19-serial.txt /tmp/offbench-e19-parallel.txt
	$(OFFBENCH_BIN) -scale quick -csv -seed 1 -exp E20 -parallel 1 -quiet > /tmp/offbench-e20-serial.txt
	$(OFFBENCH_BIN) -scale quick -csv -seed 1 -exp E20 -parallel 4 -quiet > /tmp/offbench-e20-parallel.txt
	cmp /tmp/offbench-e20-serial.txt /tmp/offbench-e20-parallel.txt
	$(OFFBENCH_BIN) -scale quick -csv -seed 1 -exp E21 -shards 1 -quiet > /tmp/offbench-e21-serial.txt
	$(OFFBENCH_BIN) -scale quick -csv -seed 1 -exp E21 -shards 2 -quiet > /tmp/offbench-e21-two.txt
	$(OFFBENCH_BIN) -scale quick -csv -seed 1 -exp E21 -shards 7 -quiet > /tmp/offbench-e21-sharded.txt
	cmp /tmp/offbench-e21-serial.txt /tmp/offbench-e21-two.txt
	cmp /tmp/offbench-e21-serial.txt /tmp/offbench-e21-sharded.txt
	$(OFFBENCH_BIN) -scale quick -csv -seed 1 -exp E22 -parallel 1 -quiet > /tmp/offbench-e22-serial.txt
	$(OFFBENCH_BIN) -scale quick -csv -seed 1 -exp E22 -parallel 4 -quiet > /tmp/offbench-e22-parallel.txt
	cmp /tmp/offbench-e22-serial.txt /tmp/offbench-e22-parallel.txt
	$(GO) test -count=1 -run '^TestSuiteIdenticalAcrossRunsInOneProcess$$' ./internal/exp/
	$(GO) test -tags taskpoison ./...

# The sharded-engine drill: the cross-shard determinism property and
# fleet tests under the race detector at GOMAXPROCS 1, 2 and 4 (so some
# runs have fewer workers than shards), then the E21 quick run diffed
# serial (one shard) against two shards (a 2-vCPU layout) and seven (a
# partition that divides nothing evenly) byte for byte.
shards: offbench-bin
	$(GO) test -race -cpu 1,2,4 -run 'TestSharded' ./internal/sim/ ./internal/core/
	$(GO) test -race -run 'TestE21' ./internal/exp/
	$(OFFBENCH_BIN) -scale quick -csv -seed 1 -exp E21 -shards 1 -quiet > /tmp/offbench-e21-serial.txt
	$(OFFBENCH_BIN) -scale quick -csv -seed 1 -exp E21 -shards 2 -quiet > /tmp/offbench-e21-two.txt
	$(OFFBENCH_BIN) -scale quick -csv -seed 1 -exp E21 -shards 7 -quiet > /tmp/offbench-e21-sharded.txt
	cmp /tmp/offbench-e21-serial.txt /tmp/offbench-e21-two.txt
	cmp /tmp/offbench-e21-serial.txt /tmp/offbench-e21-sharded.txt

# The chaos drill: both failure-centric experiments (E17 correlated
# outages, E20 regional disasters) at quick scale under the race
# detector, plus the fault and failover unit tests.
chaos:
	$(GO) test -race ./internal/fault/ ./internal/sched/
	$(GO) test -race -run 'TestE17Shape|TestE20Shape' ./internal/exp/

# Prove the -metrics export merges deterministically: serial and parallel
# runs must produce byte-identical files, and the committed samples (one
# time series, one merged registry) must still match.
metrics-golden: offbench-bin
	rm -rf /tmp/offbench-metrics-serial /tmp/offbench-metrics-parallel
	$(OFFBENCH_BIN) -scale quick -csv -seed 1 -exp E1 -parallel 1 -quiet -metrics /tmp/offbench-metrics-serial > /dev/null
	$(OFFBENCH_BIN) -scale quick -csv -seed 1 -exp E1 -parallel 4 -quiet -metrics /tmp/offbench-metrics-parallel > /dev/null
	diff -r /tmp/offbench-metrics-serial /tmp/offbench-metrics-parallel
	cmp results/metrics-golden/e1_cell001.csv /tmp/offbench-metrics-serial/e1_cell001.csv
	cmp results/metrics-golden/e1_registry.csv /tmp/offbench-metrics-serial/e1_registry.csv

# Prove the -spans export is deterministic: serial and parallel runs must
# produce byte-identical span JSONL and Chrome trace files, and the
# committed E18 samples must still match.
spans-golden: offbench-bin
	rm -rf /tmp/offbench-spans-serial /tmp/offbench-spans-parallel
	$(OFFBENCH_BIN) -scale quick -csv -seed 1 -exp E18 -parallel 1 -quiet -spans /tmp/offbench-spans-serial > /dev/null
	$(OFFBENCH_BIN) -scale quick -csv -seed 1 -exp E18 -parallel 4 -quiet -spans /tmp/offbench-spans-parallel > /dev/null
	diff -r /tmp/offbench-spans-serial /tmp/offbench-spans-parallel
	diff -r results/spans-golden /tmp/offbench-spans-serial

# Regenerate the committed quick-scale golden CSVs after an intentional
# change to experiment output.
golden:
	rm -rf results/golden results/metrics-golden results/spans-golden
	$(GO) run ./cmd/offbench -scale quick -csv -seed 1 -quiet -out results/golden > /dev/null
	$(GO) run ./cmd/offbench -scale quick -csv -seed 1 -exp E1 -quiet -metrics /tmp/offbench-metrics-regen > /dev/null
	mkdir -p results/metrics-golden
	cp /tmp/offbench-metrics-regen/e1_cell001.csv /tmp/offbench-metrics-regen/e1_registry.csv results/metrics-golden/
	rm -rf /tmp/offbench-metrics-regen
	$(GO) run ./cmd/offbench -scale quick -csv -seed 1 -exp E18 -quiet -spans results/spans-golden > /dev/null

# The E-suite benchmarks (root package). -run='^$$' keeps unit tests from
# rerunning; output lands in results/bench_latest.txt (gitignored) so a
# bench run never dirties the committed goldens.
bench:
	mkdir -p results
	$(GO) test -run='^$$' -bench=. -benchmem . | tee results/bench_latest.txt

# The hot-path micro-benchmarks: event kernel, resource grants, metric
# touches, span and outcome recording, serverless sizing, network
# transfers, the scheduler's remote and resilient attempts, one task
# through the full stack-deadline stack, one partition objective and one
# standard-mix build. -count=6 gives benchstat/benchgate
# enough samples to tell a regression from noise.
bench-micro:
	mkdir -p results
	$(GO) test -run='^$$' -bench=. -benchmem -count=6 $(BENCH_PKGS) | tee results/bench_micro.txt

# Regenerate the committed micro-benchmark baseline after an intentional
# performance change.
bench-json: bench-micro
	$(GO) run ./cmd/benchgate -emit results/bench_micro.txt > $(BENCH_BASELINE)

# Gate the current tree's micro-benchmarks against the committed
# baseline: any allocs/op increase on a zero-alloc path fails, and so does
# a median allocs/op above the baseline's largest sample. ns/op is
# not gated here because the baseline was recorded on other hardware; CI
# gates ns/op against a same-runner merge-base build instead.
bench-gate: bench-micro
	$(GO) run ./cmd/benchgate -emit results/bench_micro.txt > results/bench_head.json
	$(GO) run ./cmd/benchgate -old $(BENCH_BASELINE) -new results/bench_head.json

# Run each repository benchmark workload briefly and fail unless the last
# line of its result says its output was correct. Tracing is off: the
# traced serve ladder (--trace 1) is load-sensitive, so run that only on
# an idle machine.
BENCH_WORKLOADS = fleet-flash stack-deadline suite-full

bench-check:
	@for w in $(BENCH_WORKLOADS); do \
		last=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 2 --trace 0 | tail -n 1); \
		case "$$last" in \
		*'"correct":true'*) echo "bench-check: $$w correct" ;; \
		*) echo "bench-check: $$w not correct: $$last"; exit 1 ;; \
		esac; \
	done

# The benchmarked package list, so CI runs the same packages as bench-micro.
print-bench-pkgs:
	@echo $(BENCH_PKGS)

# Regenerate every experiment table at full scale into results/.
results:
	mkdir -p results
	$(GO) run ./cmd/offbench -scale full | tee results/offbench_full.txt

# Build the offloadd container image: static Go binary on distroless.
docker:
	docker build -t offloadd .

# Run the serve-mode daemon in the foreground on :9090 (wall clock,
# default policy). Ctrl-C drains gracefully.
serve:
	$(GO) run ./cmd/offloadd -addr :9090

# Stand up a daemon and drive it with the load harness: 15s at the
# acceptance-floor rate with a concurrent 1 Hz /metrics scraper, report
# written to results/loadtest_latest.txt (gitignored). Fails unless the
# daemon sustains 10k req/s.
loadtest:
	mkdir -p results
	$(GO) build -o /tmp/offloadd-load ./cmd/offloadd
	$(GO) build -o /tmp/offctl-load ./cmd/offctl
	/tmp/offloadd-load -addr 127.0.0.1:19091 -simclock -max-inflight 200000 & \
	pid=$$!; trap "kill $$pid 2>/dev/null" EXIT; sleep 1; \
	/tmp/offctl-load load -url http://127.0.0.1:19091 -rate 15000 \
		-duration 15s -workers 128 -min-rate 10000 \
		-out results/loadtest_latest.txt && \
	kill -TERM $$pid && wait $$pid

# The serve-mode smoke drill CI runs: build the daemon, start it on the
# deterministic sim clock, push a short burst of submissions through the
# HTTP surface, then assert /healthz answers and /metrics exposes a
# nonzero accepted counter before draining with SIGTERM.
serve-smoke:
	$(GO) build -o /tmp/offloadd-smoke ./cmd/offloadd
	$(GO) build -o /tmp/offctl-smoke ./cmd/offctl
	/tmp/offloadd-smoke -addr 127.0.0.1:19092 -simclock & \
	pid=$$!; trap "kill $$pid 2>/dev/null" EXIT; sleep 1; \
	/tmp/offctl-smoke load -url http://127.0.0.1:19092 -rate 500 \
		-duration 2s -workers 8 -min-rate 100 && \
	curl -fsS http://127.0.0.1:19092/healthz && \
	curl -fsS http://127.0.0.1:19092/metrics | grep '^serve_accepted' | \
		grep -qv '^serve_accepted 0$$' && \
	/tmp/offctl-smoke scrape -n 5 127.0.0.1:19092 && \
	kill -TERM $$pid && wait $$pid

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/videopipeline
	$(GO) run ./examples/mlbatch
	$(GO) run ./examples/cicd
	$(GO) run ./examples/fleet

clean:
	$(GO) clean ./...
