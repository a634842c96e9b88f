#!/usr/bin/env bash
# Builds the tree under ASan, UBSan, and TSan and runs ctest under each.
# Eviction/rollback/retry paths shuffle jobs between containers and maps,
# and the service layer shares a mailbox across connection threads; a
# sanitizer pass is the cheapest way to keep memory bugs and data races
# from landing silently.
#
# Usage: scripts/run_sanitized.sh [address|undefined|thread]...
#   No arguments runs all three. Build trees live in build-asan/,
#   build-ubsan/, and build-tsan/ next to the plain build/.
set -euo pipefail

cd "$(dirname "$0")/.."

sanitizers=("$@")
if [ ${#sanitizers[@]} -eq 0 ]; then
  sanitizers=(address undefined thread)
fi

for san in "${sanitizers[@]}"; do
  case "$san" in
    address)   dir=build-asan ;;
    undefined) dir=build-ubsan ;;
    thread)    dir=build-tsan ;;
    *) echo "unknown sanitizer '$san' (want address, undefined, or thread)" >&2
       exit 2 ;;
  esac
  echo "==> configuring $dir (CODA_SANITIZE=$san)"
  cmake -B "$dir" -S . -DCODA_SANITIZE="$san" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  echo "==> building $dir"
  cmake --build "$dir" -j "$(nproc)"
  echo "==> ctest under $san sanitizer"
  # halt_on_error makes ASan failures fail the test instead of just logging;
  # fast smoke traces keep the instrumented replays affordable. The TSan
  # pass runs only the threaded suites (service layer and parallel runner)
  # — the single-threaded simulator suites have nothing for TSan to see and
  # run several times slower instrumented.
  if [ "$san" = thread ]; then
    TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1" \
    CODA_FAST=1 \
      ctest --test-dir "$dir" --output-on-failure -j "$(nproc)" \
            -R '(Mailbox|LineReader|Protocol|Env|Server|Journal|Runner|serve_smoke)'
  else
    ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    CODA_FAST=1 \
      ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
  fi
  echo "==> $san pass clean"
done
