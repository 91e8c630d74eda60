# Convenience targets for the IVE reproduction workspace.
# `make verify` is the tier-1 gate CI enforces.

CARGO ?= cargo

.PHONY: all build test verify benchmark bench figures serve-demo hotpath scaling update-churn kv-demo doc fmt fmt-check clippy lint clean

all: build

## Build the whole workspace (debug).
build:
	$(CARGO) build

## Run every test in the workspace.
test:
	$(CARGO) test -q

## Tier-1 verify: exactly what CI runs as the gate.
verify:
	$(CARGO) build --release && $(CARGO) test -q

## One run of the repository benchmark: BENCHMARK.json's command at its
## 35 s run length, e.g. `make benchmark WORKLOAD=table1-2gib-batch SEED=3
## TRACE=1`. Run it alternately on two checkouts for A/B pairs.
WORKLOAD ?= table1-64mib
SEED ?= 1
TRACE ?= 0
benchmark:
	$(CARGO) run --release --quiet --manifest-path benchmark/Cargo.toml -- \
		--workload $(WORKLOAD) --seed $(SEED) --seconds 35 --trace $(TRACE)

## Run the four Criterion benches (math, HE, PIR pipeline, accel model).
bench:
	$(CARGO) bench -p ive_bench

## Regenerate every paper table/figure in one shot.
figures:
	$(CARGO) run --release -p ive_bench --bin all_experiments

## Drive the live serving runtime with Poisson load and refresh
## BENCH_serve.json (observed vs ServiceTable-predicted).
serve-demo:
	$(CARGO) run --release -p ive_bench --bin serve_demo

## Run the VPE kernel backend matrix (scalar/optimized/simd where AVX2
## is detected) on the RowSel hot path and refresh BENCH_hotpath.json.
hotpath:
	$(CARGO) run --release -p ive_bench --bin hotpath

## Sweep 1..num_cpus RowSel threads over scan/answer/serve-QPS, check
## bit-identity against the scalar single-thread reference, and refresh
## BENCH_scaling.json with the thread-scaling curve.
scaling:
	$(CARGO) run --release -p ive_bench --bin scaling

## Measure answer latency under live row-update churn (epoch-versioned
## mutable database) and refresh BENCH_update.json.
update-churn:
	$(CARGO) run --release -p ive_bench --bin update_churn

## Serve the private key-value store over TCP (keyword PIR + live
## put/delete mutations) and refresh BENCH_kv.json.
kv-demo:
	$(CARGO) run --release -p ive_bench --bin kv_demo

## Build the API docs with CI's settings (warnings are errors).
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps

## Format the tree / check formatting without writing.
fmt:
	$(CARGO) fmt --all

fmt-check:
	$(CARGO) fmt --all -- --check

## Clippy with CI's settings.
clippy:
	$(CARGO) clippy --all-targets -- -D warnings

lint: fmt-check clippy

clean:
	$(CARGO) clean
