#!/usr/bin/env bash
# Byte-exact parity of every runner bench's aggregate report.
#
#   tools/bench_aggregates.sh run BUILD OUT
#     Runs each BUILD/bench/bench_* that writes <name>.report.json, at its
#     default (reduced) scale with OUT as the working directory, and saves the
#     report's "aggregate" member as OUT/<name>.aggregate.json: a text slice of
#     the file as written, never re-serialized. Exits 1 if a bench fails or
#     writes no report.
#
#   tools/bench_aggregates.sh examples BUILD OUT
#     Runs the examples and the CLI's experiment subcommands at default flags
#     and saves each stdout as OUT/examples/<name>.txt, so example output can
#     be diffed between two builds like the aggregates. Exits non-zero if one
#     fails.
#
#   tools/bench_aggregates.sh compare A B
#     One line per bench saved in A:
#       identical                   same bytes
#       adds-keys <families>        every key of A keeps its value; B has more
#       changed <first key>         first key of A whose value differs in B
#       missing                     B has no aggregate for this bench
#     Exits 1 if any bench is missing or changed.
set -euo pipefail

# Gate and microbenchmark binaries: they write no runner report.
readonly SKIP=" bench_micro bench_codec_speed bench_soak bench_shard_fanout "

usage() {
  echo "usage: $0 run BUILD OUT | examples BUILD OUT | compare A B" >&2
  exit 2
}

slice_aggregate() {  # REPORT OUT_FILE
  python3 - "$1" "$2" <<'PY'
import json, sys
text = open(sys.argv[1], encoding="utf-8").read()
head = '{"aggregate":'
if not text.startswith(head):
    sys.exit(f"{sys.argv[1]}: report does not start with {head}")
_, end = json.JSONDecoder().raw_decode(text, len(head))
with open(sys.argv[2], "w", encoding="utf-8") as out:
    out.write(text[len(head):end])
PY
}

cmd_run() {
  local build out bin name status=0
  build=$(cd "$1" && pwd)
  mkdir -p "$2"
  out=$(cd "$2" && pwd)
  for bin in "$build"/bench/bench_*; do
    name=$(basename "$bin")
    [[ -x $bin && $SKIP != *" $name "* ]] || continue
    rm -f "$out/$name.report.json"
    local start=$SECONDS
    if ! (cd "$out" && "$bin" > "$name.log" 2>&1); then
      echo "$name: exited non-zero (see $out/$name.log)" >&2
      status=1
    fi
    if [[ -f $out/$name.report.json ]]; then
      slice_aggregate "$out/$name.report.json" "$out/$name.aggregate.json"
      echo "$name: $((SECONDS - start)) s"
    else
      echo "$name: wrote no $name.report.json" >&2
      status=1
    fi
  done
  return $status
}

cmd_examples() {
  local bin=$1/examples out=$2/examples cmd
  mkdir -p "$out"
  "$bin/quickstart" > "$out/quickstart.txt"
  "$bin/qoe_shootout" 1 low > "$out/qoe_shootout_1_low.txt"
  "$bin/qoe_shootout" 1 low 500 > "$out/qoe_shootout_1_low_500.txt"
  "$bin/mobile_profile" > "$out/mobile_profile.txt"
  for cmd in qoe bwcap mobile; do
    "$bin/vcbench_cli" "$cmd" > "$out/vcbench_cli_$cmd.txt"
  done
}

cmd_compare() {
  python3 - "$1" "$2" <<'PY'
import glob, json, os, sys

def entries(path):
    """Top-level members, with the named maps (counters, samples, ...) split
    into one entry per name; values keep their literal number text."""
    doc = json.load(open(path, encoding="utf-8"), parse_float=str, parse_int=str)
    out = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            for name, inner in value.items():
                out[f"{key}.{name}"] = inner
        else:
            out[key] = value
    return out

a_dir, b_dir = sys.argv[1], sys.argv[2]
bad = False
for a_path in sorted(glob.glob(os.path.join(a_dir, "*.aggregate.json"))):
    name = os.path.basename(a_path)[: -len(".aggregate.json")]
    b_path = os.path.join(b_dir, os.path.basename(a_path))
    if not os.path.exists(b_path):
        print(f"{name}: missing")
        bad = True
        continue
    if open(a_path, "rb").read() == open(b_path, "rb").read():
        print(f"{name}: identical")
        continue
    a, b = entries(a_path), entries(b_path)
    changed = next((k for k in a if b.get(k, object()) != a[k]), None)
    if changed is not None:
        print(f"{name}: changed {changed}")
        bad = True
        continue
    families = {}
    for key in b:
        if key not in a:
            section, _, rest = key.partition(".")
            family = f"{section}.{rest.split('.')[0]}.*"
            families[family] = families.get(family, 0) + 1
    if not families:  # same entries, different bytes: order or spacing
        print(f"{name}: changed (layout)")
        bad = True
        continue
    print(f"{name}: adds-keys " + " ".join(f"{f}({n})" for f, n in families.items()))
sys.exit(1 if bad else 0)
PY
}

[[ $# -eq 3 ]] || usage
case "$1" in
  run) cmd_run "$2" "$3" ;;
  examples) cmd_examples "$2" "$3" ;;
  compare) cmd_compare "$2" "$3" ;;
  *) usage ;;
esac
