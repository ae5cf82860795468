#!/usr/bin/env bash
# Runs every bench binary at full size (SPLITFT_BENCH_SMOKE unset) in the
# current directory, prints one line per binary with its exit status and
# wall time, and exits non-zero if any binary did. Each binary's output
# goes to <name>.log; its BENCH_<name>.json lands beside it.
#
# Usage: tools/bench_full_size.sh <bench-binary-dir>
#   e.g. mkdir -p out && cd out && ../tools/bench_full_size.sh ../build/bench
set -u

if [ $# -ne 1 ] || [ ! -d "$1" ]; then
  echo "usage: $0 <bench-binary-dir>" >&2
  exit 2
fi
unset SPLITFT_BENCH_SMOKE

mapfile -t bins < <(find "$1" -maxdepth 1 -type f -executable | sort)
if [ "${#bins[@]}" -eq 0 ]; then
  echo "error: no bench binaries under $1" >&2
  exit 2
fi

failed=0
for bin in "${bins[@]}"; do
  name=$(basename "$bin")
  start=$(date +%s%N)
  status=0
  "$bin" > "$name.log" 2>&1 || status=$?
  ms=$(( ($(date +%s%N) - start) / 1000000 ))
  printf '%-24s exit=%-3d wall=%d.%03ds\n' "$name" "$status" \
    $((ms / 1000)) $((ms % 1000))
  if [ "$status" -ne 0 ]; then
    failed=1
  fi
done
exit $failed
