# Convenience wrappers around the CMake build. The canonical workflow is
#   cmake -B build -S . && cmake --build build -j && ctest --test-dir build
# these targets just save typing.

BUILD ?= build

.PHONY: all build test bench-report clean

all: build

build:
	cmake -B $(BUILD) -S .
	cmake --build $(BUILD) -j

test: build
	ctest --test-dir $(BUILD) --output-on-failure

# Runs the CMake bench-report target (Release recommended): the event-core
# and codec microbenchmarks, the sharded relay fan-out A/B, the codec
# scalar-vs-SIMD A/B and a short soak, writing $(BUILD)/BENCH_PR2.json,
# BENCH_PR3.json, BENCH_PR7.json, BENCH_PR7_micro.json and BENCH_SOAK.json.
# Compare against the checked-in BENCH_PR*.json medians and
# BENCH_SOAK_BASELINE.json digests at the repo root.
bench-report: build
	cmake --build $(BUILD) --target bench-report

clean:
	rm -rf $(BUILD)
