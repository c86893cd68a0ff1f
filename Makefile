# Developer entry points. CI runs the same targets.

GO      ?= go
# benchstat wants repeated samples: `make bench COUNT=10 | benchstat -`.
COUNT   ?= 6
BENCH   ?= .

.PHONY: all build test vet bench bench-smoke mesh-smoke

all: vet build test

build:
	$(GO) build ./...

# bench/ is its own module (outside ./...); its self-tests are hermetic.
test:
	$(GO) test ./...
	$(GO) test -C bench .

vet:
	$(GO) vet ./...
	$(GO) vet -C bench .

# End-to-end gate for the multi-process mesh: build rbrouter + rbmesh,
# boot a 3-member cluster, kill one member mid-traffic, assert the
# survivors converge and deliver post-failure traffic without loss,
# then restart it and assert the rejoin. Drives only the public HTTP
# surfaces — what an operator would use. Runs once per §4.2 placement:
# -cores 1 parallel, then -cores 2 pipelined.
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
