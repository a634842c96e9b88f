#!/usr/bin/env bash
# Hotspot profiler for the engine benches: builds a profiling tree and
# prints the top functions by self time for each requested bench binary, so
# "what dominates at 10k nodes" is one command. The full reports stay in
# DIR/profiles: <bench>.txt with perf, <bench>.sampled.txt (self and
# inline-aware inclusive tables) with the sampler.
#
# Usage: scripts/profile.sh [--build-dir DIR] [--top N] [bench ...]
#   bench        bench targets to profile; default: bench_scale
#                bench_full_month_replay (both in fast mode)
#   --build-dir  profiling build tree (default: build-profile)
#   --top N      rows per ranked table (default: 25)
#
# Backend: `perf record`/`perf report` when perf is on PATH and allowed to
# sample; otherwise an LD_PRELOAD sampler (scripts/profile_sampler.cpp: a
# 10 kHz timer signal records the instruction pointer and the frame-pointer
# chain of the main thread; the tree is built with -fno-omit-frame-pointer,
# benches run with CODA_JOBS=1) symbolized by scripts/profile_report.py
# through `addr2line -f -i`. Shared-library time (libstdc++, libc) counts.
#
# Environment:
#   CODA_FAST=0   profile the full-size benches instead of the smoke traces
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="build-profile"
TOP=25
BENCHES=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir)
      [[ $# -ge 2 ]] || { echo "--build-dir needs an argument" >&2; exit 2; }
      BUILD_DIR="$2"; shift 2 ;;
    --top)
      [[ $# -ge 2 ]] || { echo "--top needs an argument" >&2; exit 2; }
      TOP="$2"; shift 2 ;;
    -*)
      echo "unknown flag: $1" >&2; exit 2 ;;
    *)
      BENCHES+=("$1"); shift ;;
  esac
done
if [[ ${#BENCHES[@]} -eq 0 ]]; then
  BENCHES=(bench_scale bench_full_month_replay)
fi

# perf needs both the binary and kernel permission to sample; probe once.
USE_PERF=0
if command -v perf >/dev/null 2>&1 &&
   perf record -o /dev/null -- true >/dev/null 2>&1; then
  USE_PERF=1
fi

if [[ "$USE_PERF" == "1" ]]; then
  echo "== backend: perf (sampling) =="
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
else
  echo "== backend: sampler (LD_PRELOAD, 10 kHz, frame pointers) =="
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS=-fno-omit-frame-pointer \
        -DCMAKE_EXE_LINKER_FLAGS= > /dev/null
  sampler="$BUILD_DIR/libcoda_sampler.so"
  "${CXX:-c++}" -std=c++20 -O2 -g -fPIC -shared -o "$sampler" \
      scripts/profile_sampler.cpp -lrt
fi
cmake --build "$BUILD_DIR" -j "$(nproc)" \
      --target "${BENCHES[@]}" > /dev/null

# Profiled runs replay live engines: cache off so they actually simulate,
# fast mode (unless overridden) so the suite stays affordable.
export CODA_NO_CACHE=1
export CODA_FAST="${CODA_FAST:-1}"

workdir=$(mktemp -d /tmp/coda_profile.XXXXXX)
trap 'rm -rf "$workdir"' EXIT
reports="$BUILD_DIR/profiles"
mkdir -p "$reports"

for b in "${BENCHES[@]}"; do
  bin="$BUILD_DIR/bench/$b"
  [[ -x "$bin" ]] || { echo "missing bench binary: $bin" >&2; exit 1; }
  echo ""
  echo "== $b: top $TOP functions by self time =="
  # Reports go to a file first: piping a long report into `head` would
  # kill the writer with SIGPIPE, which pipefail turns into a failed run.
  if [[ "$USE_PERF" == "1" ]]; then
    perf record -o "$workdir/$b.perf" --quiet -- "$bin" > /dev/null
    perf report -i "$workdir/$b.perf" --stdio --percent-limit 0.2 \
        > "$reports/$b.txt" 2>/dev/null
    awk -v top="$TOP" '!/^#/ && NF && n++ < top' "$reports/$b.txt"
    echo "report: $reports/$b.txt"
  else
    # The sampler follows the main thread only: run the replays serially.
    CODA_JOBS=1 CODA_SAMPLER_OUT="$workdir/$b.samples" \
        LD_PRELOAD="$(cd "$(dirname "$sampler")" && pwd)/$(basename "$sampler")" \
        "$bin" > /dev/null
    python3 scripts/profile_report.py --top "$TOP" "$workdir/$b.samples" \
        > "$reports/$b.sampled.txt"
    head -n "$((TOP + 4))" "$reports/$b.sampled.txt"
    echo "report: $reports/$b.sampled.txt"
  fi
done
