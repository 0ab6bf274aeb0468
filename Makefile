# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test race cover bench bench-smoke bench-ab experiments fuzz golden serve-e2e fleet-e2e clean

all: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Per-function coverage report; the profile lands in cover.out for
# `go tool cover -html=cover.out` drill-down.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out

bench:
	$(GO) test -bench=. -benchmem ./...

# Quick benchmark pass: every benchmark at a 100ms budget; CI uploads the
# output. Speed claims come from `go run ./bench` (BENCHMARK.json,
# bench/README.md), not from this.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchmem -benchtime=100ms ./... | tee bench_smoke.txt

# Parent-against-working-tree benchmark, interleaved and judged by
# `bench compare` (scripts/bench_ab.sh): make bench-ab REF=HEAD~1 PAIRS=10
# WORKLOADS="table1 failover".
REF ?= HEAD
PAIRS ?= 10
bench-ab:
	bash scripts/bench_ab.sh $(REF) $(PAIRS) $(WORKLOADS)

# Regenerate every table and figure of the paper's evaluation into results/.
experiments:
	$(GO) run ./cmd/experiments

# The one fuzz list: CI runs this target.
fuzz:
	$(GO) test -fuzz FuzzReadCSV -fuzztime 30s ./internal/trace/
	$(GO) test -fuzz FuzzReadJSON -fuzztime 30s ./internal/trace/
	$(GO) test -fuzz FuzzDecode -fuzztime 30s ./internal/checkpoint/
	$(GO) test -fuzz FuzzBreakpoint -fuzztime 30s ./internal/portfolio/
	$(GO) test -fuzz FuzzTranslate -fuzztime 30s ./internal/portfolio/
	$(GO) test -fuzz FuzzScenarioDSL -fuzztime 30s ./internal/scenario/
	$(GO) test -fuzz FuzzPartition -fuzztime 30s ./internal/partition/
	$(GO) test -fuzz FuzzFleetGen -fuzztime 30s ./internal/workload/
	$(GO) test -fuzz FuzzReplayBatchParity -fuzztime 30s ./internal/sim/

# The one golden list: regenerate every -update golden after a
# deliberate behavioural change.
golden:
	$(GO) test ./cmd/ropus -run Golden -update
	$(GO) test ./internal/placement -run GoldenGAPlans -update
	$(GO) test ./internal/failure -run AnalyzeMultiGolden -update
	$(GO) test ./internal/telemetry -run Golden -update

# Drain/resume contract of `ropus serve` against a real process.
serve-e2e: build
	$(GO) build -o ropus-cli ./cmd/ropus
	ROPUS=./ropus-cli bash scripts/serve_e2e.sh

# Fleet contract: three instances, one state dir, loadgen-driven, one
# instance kill -9ed mid-sweep; emits BENCH_serve_fleet.json (untracked).
fleet-e2e: build
	$(GO) build -o ropus-cli ./cmd/ropus
	$(GO) build -o ropus-loadgen ./cmd/loadgen
	ROPUS=./ropus-cli LOADGEN=./ropus-loadgen bash scripts/fleet_e2e.sh

clean:
	rm -rf results test_output.txt bench_output.txt bench_smoke.txt cover.out ropus-cli ropus-loadgen BENCH_serve_fleet.json
