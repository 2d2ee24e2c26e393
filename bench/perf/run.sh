#!/usr/bin/env bash
# vcperf's single command: builds bench/perf into build-perf/ (from the
# repository root), then
#
#   run.sh                          runs every workload in its own process,
#                                   end to end, then each traced; prints every
#                                   metric with its unit
#   run.sh --smoke                  one pass over each workload's distinct cells,
#                                   every check, no timing
#   run.sh --json DIR --trace-out DIR
#                                   as the first form, also writing
#                                   DIR/<workload>.json and
#                                   DIR/<workload>.trace.json
#   run.sh --workload W [FLAGS...]  one vcperf run (see vcperf.cpp for FLAGS);
#                                   the last stdout line is its JSON result
#
# Build output goes to stderr. Exits non-zero when a build or any check fails.
set -euo pipefail

cd "$(dirname "$0")/../.."
build_dir=build-perf
if [[ ! -f "$build_dir/Makefile" ]]; then
  cmake -S bench/perf -B "$build_dir" -G "Unix Makefiles" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build_dir" -j4 >&2
vcperf="$build_dir/vcperf"

# vcperf runs as a child, not through exec: Linux carries ru_maxrss across
# exec, so exec would report this shell's peak RSS as vcperf's.
for arg in "$@"; do
  if [[ "$arg" == "--workload" ]]; then
    "$vcperf" "$@"
    exit 0
  fi
done

smoke=0
json_dir=""
trace_dir=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) smoke=1; shift ;;
    --json) json_dir="$2"; shift 2 ;;
    --trace-out) trace_dir="$2"; shift 2 ;;
    *) echo "run.sh: unknown flag $1" >&2; exit 2 ;;
  esac
done

workloads=(city fanout qoe congested)
status=0
if [[ $smoke == 1 ]]; then
  for w in "${workloads[@]}"; do
    "$vcperf" --workload "$w" --smoke || status=1
  done
  exit $status
fi

for traced in 0 1; do
  suffix=""
  label="end to end"
  if [[ $traced == 1 ]]; then
    suffix=".traced"
    label="traced"
  fi
  for w in "${workloads[@]}"; do
    flags=(--workload "$w" --trace "$traced")
    if [[ -n "$json_dir" ]]; then
      mkdir -p "$json_dir"
      flags+=(--json "$json_dir/$w$suffix.json")
    fi
    if [[ $traced == 1 && -n "$trace_dir" ]]; then
      mkdir -p "$trace_dir"
      flags+=(--trace-out "$trace_dir/$w.trace.json")
    fi
    echo "== $w, $label"
    "$vcperf" "${flags[@]}" | sed '$d' || status=1
    echo
  done
done
exit $status
