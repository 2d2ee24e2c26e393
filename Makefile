# Convenience wrappers around the CMake build. The canonical workflow is
#   cmake -B build -S . && cmake --build build -j && ctest --test-dir build
# these targets just save typing. The perf benchmark has its own build:
#   bash bench/perf/run.sh        (see bench/perf/README.md)

BUILD ?= build

.PHONY: all build test clean

all: build

build:
	cmake -B $(BUILD) -S .
	cmake --build $(BUILD) -j

test: build
	ctest --test-dir $(BUILD) --output-on-failure

clean:
	rm -rf $(BUILD)
