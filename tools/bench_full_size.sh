#!/usr/bin/env bash
# Runs every bench binary at full size (SPLITFT_BENCH_SMOKE unset) in the
# current directory, prints one line per binary with its exit status and
# wall time, and exits non-zero if any binary did. Each binary's output
# goes to <name>.log; its BENCH_<name>.json lands beside it.
#
# It then appends one JSON row to bench/trajectory.jsonl in the checkout
# that holds this script: the commit of the checkout the binaries were
# built in (`git describe --always --dirty` run inside <bench-binary-dir>,
# "unknown" outside a checkout), `nproc`, and for each binary its exit
# status, wall seconds, user and system CPU seconds, minor page faults and
# maximum resident set size in MB (the getrusage(2) record wait4(2) returns
# for it; ru_maxrss is in KiB on Linux). One row per change,
# checked in, shows how full-size host time moves over the project's
# history.
#
# Usage: tools/bench_full_size.sh <bench-binary-dir>
#   e.g. mkdir -p out && cd out && ../tools/bench_full_size.sh ../build/bench
set -u

if [ $# -ne 1 ] || [ ! -d "$1" ]; then
  echo "usage: $0 <bench-binary-dir>" >&2
  exit 2
fi
unset SPLITFT_BENCH_SMOKE

# Runs binary $1 with its output in file $2 and prints "<exit> <wall_s>
# <user_s> <sys_s> <minor_faults> <maxrss_mb>" for it.
run_measured() {
  python3 - "$1" "$2" <<'PY'
import os
import subprocess
import sys
import time

with open(sys.argv[2], "wb") as log:
    start = time.monotonic()
    child = subprocess.Popen([sys.argv[1]], stdout=log,
                             stderr=subprocess.STDOUT)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.monotonic() - start
child.returncode = os.waitstatus_to_exitcode(status)
code = child.returncode if child.returncode >= 0 else 128 - child.returncode
print(code, "%.3f %.3f %.3f %d %.1f" %
      (wall, usage.ru_utime, usage.ru_stime, usage.ru_minflt,
       usage.ru_maxrss / 1024))
PY
}

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
  read -r status wall user sys minflt maxrss \
    < <(run_measured "$bin" "$name.log")
  if [ -z "${maxrss:-}" ]; then  # the binary could not be started
    status=127 wall=0 user=0 sys=0 minflt=0 maxrss=0
  fi
  printf '%-24s exit=%-3d wall=%ss user=%ss sys=%ss minflt=%d maxrss=%sMB\n' \
    "$name" "$status" "$wall" "$user" "$sys" "$minflt" "$maxrss"
  rows+="${rows:+, }\"$name\": {\"exit\": $status, \"wall_s\": $wall"
  rows+=", \"user_s\": $user, \"sys_s\": $sys, \"minflt\": $minflt"
  rows+=", \"maxrss_mb\": $maxrss}"
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
