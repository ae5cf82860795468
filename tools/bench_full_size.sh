#!/usr/bin/env bash
# Runs every bench binary at full size (SPLITFT_BENCH_SMOKE unset) in the
# current directory, prints one line per binary with its exit status and
# wall time, and exits non-zero if any binary did. Each binary's output
# goes to <name>.log; its BENCH_<name>.json lands beside it.
#
# It then appends one JSON row to bench/trajectory.jsonl in the checkout
# that holds this script: the commit of the checkout the binaries were
# built in (`git describe --always --dirty` run inside <bench-binary-dir>,
# "unknown" outside a checkout), `nproc`, and each binary's exit status and
# wall seconds. One row per change, checked in, shows how full-size host
# time moves over the project's history.
#
# Usage: tools/bench_full_size.sh <bench-binary-dir>
#   e.g. mkdir -p out && cd out && ../tools/bench_full_size.sh ../build/bench
set -u

if [ $# -ne 1 ] || [ ! -d "$1" ]; then
  echo "usage: $0 <bench-binary-dir>" >&2
  exit 2
fi
unset SPLITFT_BENCH_SMOKE
trajectory="$(cd "$(dirname "$0")/.." && pwd)/bench/trajectory.jsonl"

mapfile -t bins < <(find "$1" -maxdepth 1 -type f -executable | sort)
if [ "${#bins[@]}" -eq 0 ]; then
  echo "error: no bench binaries under $1" >&2
  exit 2
fi

failed=0
rows=""
for bin in "${bins[@]}"; do
  name=$(basename "$bin")
  start=$(date +%s%N)
  status=0
  "$bin" > "$name.log" 2>&1 || status=$?
  ms=$(( ($(date +%s%N) - start) / 1000000 ))
  wall=$(printf '%d.%03d' $((ms / 1000)) $((ms % 1000)))
  printf '%-24s exit=%-3d wall=%ss\n' "$name" "$status" "$wall"
  rows+="${rows:+, }\"$name\": {\"exit\": $status, \"wall_s\": $wall}"
  if [ "$status" -ne 0 ]; then
    failed=1
  fi
done

commit=$(git -C "$1" describe --always --dirty --abbrev=12 2>/dev/null \
  || echo unknown)
printf '{"commit": "%s", "nproc": %d, "benches": {%s}}\n' \
  "$commit" "$(nproc)" "$rows" >> "$trajectory"
echo "appended a row for $commit to $trajectory"
exit $failed
