# Developer entry points. CI runs the same targets.

GO      ?= go
# benchstat wants repeated samples: `make bench COUNT=10 | benchstat -`.
COUNT   ?= 6
BENCH   ?= .

.PHONY: all build test vet bench bench-smoke bench-json mesh-smoke

all: vet build test

build:
	$(GO) build ./...

# bench/ is its own module (outside ./...); its self-tests are hermetic.
test:
	$(GO) test ./...
	$(GO) test -C bench .

vet:
	$(GO) vet ./...

# End-to-end gate for the multi-process mesh: build rbrouter + rbmesh,
# boot a 3-member cluster, kill one member mid-traffic, assert the
# survivors converge and deliver post-failure traffic without loss,
# then restart it and assert the rejoin. Drives only the public HTTP
# surfaces — what an operator would use.
mesh-smoke:
	$(GO) run ./internal/tools/meshsmoke

# benchstat-friendly output: fixed benchtime, repeated counts, no tests.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -count $(COUNT) .

# Quick smoke for CI: the headline benchmarks once, 100 iterations max,
# with the -benchmem output kept on disk (CI uploads it as an artifact).
# Redirect-then-cat rather than tee so a benchmark failure fails the
# target (a pipe would return tee's status, not go test's).
BENCH_OUT ?= bench-smoke.txt
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkDispatch|BenchmarkServerModel|BenchmarkPlacement|BenchmarkHandoff|BenchmarkPool|BenchmarkChurn|BenchmarkSteer|BenchmarkWireIO' -benchmem -benchtime 100x . > $(BENCH_OUT) 2>&1; \
	status=$$?; cat $(BENCH_OUT); exit $$status

# Machine-readable perf trajectory: the BenchmarkPlacement sweep and
# the BenchmarkChurn million-route live-FIB runs, plus the Placement:
# Auto calibration scores under pinned cost-model inputs, as one JSON
# document. CI regenerates it per commit; the checked-in copy is both
# the trajectory seed and the decision-diff baseline — benchjson fails
# this target when Auto's decided placement changes for inputs that did
# not (commit a regenerated file to accept an intentional change), when
# the parallel Mpps curve develops a scaling cliff (drops beyond
# tolerance as cores double), or when forwarding under live route churn
# falls beyond tolerance below the idle-control-plane run. The sweeps
# run steady-state iteration counts with repeats — benchjson keeps the
# best run per benchmark — because a 100-iteration sweep measures
# startup, and a single run on shared hardware measures the neighbors.
# Churn runs deeper than the placement sweep so several paced FIB
# commits land inside each timed window. The wire sweep (BenchmarkWireIO:
# mmsg vs per-packet fallback × batch sizes over loopback, plus the
# time-interleaved ratio runs) feeds the benchjson -wire-tol gate —
# the interleaved mmsg-over-fallback speedup (xfall) at batch 32 must
# hold at least WIRE_TOL.
BENCH_JSON ?= BENCH_placement.json
PLACEMENT_OUT ?= placement-bench.txt
BENCH_ITERS ?= 200000x
CHURN_ITERS ?= 1000000x
WIRE_SECS ?= 1s
BENCH_REPEAT ?= 3
WIRE_TOL ?= 1.0
bench-json:
	$(GO) test -run '^$$' -bench BenchmarkPlacement -benchmem -benchtime $(BENCH_ITERS) -count $(BENCH_REPEAT) . > $(PLACEMENT_OUT) 2>&1; \
	status=$$?; [ $$status -eq 0 ] || { cat $(PLACEMENT_OUT); exit $$status; }
	$(GO) test -run '^$$' -bench BenchmarkChurn -benchmem -benchtime $(CHURN_ITERS) -count $(BENCH_REPEAT) . >> $(PLACEMENT_OUT) 2>&1; \
	status=$$?; [ $$status -eq 0 ] || { cat $(PLACEMENT_OUT); exit $$status; }
	$(GO) test -run '^$$' -bench BenchmarkWireIO -benchmem -benchtime $(WIRE_SECS) -count $(BENCH_REPEAT) . >> $(PLACEMENT_OUT) 2>&1; \
	status=$$?; cat $(PLACEMENT_OUT); [ $$status -eq 0 ] || exit $$status
	$(GO) run ./internal/tools/benchjson -bench $(PLACEMENT_OUT) -baseline $(BENCH_JSON) -out $(BENCH_JSON) -wire-tol $(WIRE_TOL)
	@echo wrote $(BENCH_JSON)
