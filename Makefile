# Development entry points. Everything is plain `go` underneath; the
# targets just document the common invocations.

GO ?= go

.PHONY: all build vet test test-race bench bench-kernel bench-json profile experiments experiments-quick fuzz serve smoke clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# One benchmark per paper table/figure plus micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Coverage-kernel micro-benchmarks, repeated so the output feeds
# benchstat directly: `make bench-kernel > new.txt && benchstat old.txt
# new.txt`. One iteration = one point, so ns/op reads as per-point cost.
BENCH_COUNT ?= 6
bench-kernel:
	$(GO) test -run=NONE -bench='BenchmarkFullView|BenchmarkSectorOccupancy|BenchmarkCountCovering' \
		-benchmem -count=$(BENCH_COUNT) .

# Machine-readable kernel numbers (the format committed as
# BENCH_baseline.json / BENCH_kernel.json).
bench-json:
	$(GO) run ./cmd/fvcbench -kernelbench -benchout BENCH_kernel.json

# CPU + allocation profiles of the kernel benchmarks; inspect with
# `go tool pprof cpu.pprof`.
profile:
	$(GO) run ./cmd/fvcbench -kernelbench -cpuprofile cpu.pprof -memprofile mem.pprof

# Regenerate every evaluation artefact at full size (minutes).
experiments:
	$(GO) run ./cmd/fvcbench all

# Reduced sizes for a fast sanity pass (seconds).
experiments-quick:
	$(GO) run ./cmd/fvcbench -quick all

# Short fuzz pass over every fuzz target; CI runs it with FUZZTIME=10s.
# go refuses -fuzz patterns matching several targets, so each target is
# named explicitly (the root package's TestFuzzTargetsInMakefile fails
# when one is missing).
FUZZTIME ?= 15s
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzNormalizeAngle -fuzztime=$(FUZZTIME) ./internal/geom/
	$(GO) test -run=NONE -fuzz=FuzzAngularDistance -fuzztime=$(FUZZTIME) ./internal/geom/
	$(GO) test -run=NONE -fuzz=FuzzSectorContains -fuzztime=$(FUZZTIME) ./internal/geom/
	$(GO) test -run=NONE -fuzz=FuzzMinArcCoverageDepth -fuzztime=$(FUZZTIME) ./internal/geom/
	$(GO) test -run=NONE -fuzz=FuzzParseProfile -fuzztime=$(FUZZTIME) ./internal/sensor/
	$(GO) test -run=NONE -fuzz=FuzzCameraCovers -fuzztime=$(FUZZTIME) ./internal/sensor/
	$(GO) test -run=NONE -fuzz=FuzzGather -fuzztime=$(FUZZTIME) ./internal/spatial/
	$(GO) test -run=NONE -fuzz=FuzzGridGather -fuzztime=$(FUZZTIME) ./internal/spatial/
	$(GO) test -run=NONE -fuzz=FuzzSurveyRows -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/checkpoint/
	$(GO) test -run=NONE -fuzz=FuzzReplay -fuzztime=$(FUZZTIME) ./internal/depjournal/
	$(GO) test -run=NONE -fuzz=FuzzApply -fuzztime=$(FUZZTIME) ./internal/depjournal/
	$(GO) test -run=NONE -fuzz=FuzzReplay -fuzztime=$(FUZZTIME) ./internal/jobs/
	$(GO) test -run=NONE -fuzz=FuzzParseDigests -fuzztime=$(FUZZTIME) ./internal/cluster/
	$(GO) test -run=NONE -fuzz=FuzzReplay -fuzztime=$(FUZZTIME) ./internal/jsonlog/
	$(GO) test -run=NONE -fuzz=FuzzQueryEncoding -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -run=NONE -fuzz=FuzzQueryDecode -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/server/

# Run the fvcd coverage query daemon (see README "Running the service").
FVCD_ADDR ?= :8080
serve:
	$(GO) run ./cmd/fvcd -addr $(FVCD_ADDR)

# End-to-end service smoke: boots fvcd on a random port, verifies a
# query against the library, scrapes /metrics, and checks SIGTERM drain.
smoke:
	bash scripts/smoke_fvcd.sh

# `go clean` removes build products only; the profiling and benchmark
# targets above write artefacts into the repo root that it leaves
# behind. BENCH_kernel.json is regenerable via `make bench-json` (the
# committed copy is restored by git).
clean:
	$(GO) clean ./...
	rm -f cpu.pprof mem.pprof BENCH_*.json
