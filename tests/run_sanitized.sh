#!/usr/bin/env bash
# Sanitizer matrix for the concurrency-heavy tests.
#
# Builds the repository once per sanitizer (-DAP3_SANITIZE=thread / address /
# undefined, see the top-level CMakeLists) into build-tsan/, build-asan/ and
# build-ubsan/ next to the source tree, then runs the race-prone test set
# under ctest. The transport
# (ranks are threads sharing mailboxes) and the fault-injection layer are the
# reason this exists: TSan must stay clean on test_par/test_fault or the
# "transparent recovery" story is a data race wearing a trench coat.
#
# Usage:
#   tests/run_sanitized.sh                  # thread + address, default set
#   tests/run_sanitized.sh 'test_fault'     # ctest -R filter override
#   SANITIZERS=thread tests/run_sanitized.sh
#   JOBS=4 tests/run_sanitized.sh
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SANITIZERS="${SANITIZERS:-thread address undefined}"
# Default set: everything that exercises the threaded transport, the fault
# machinery, checkpoint collectives, the obs layer's cross-thread buffers, the
# stream/event async engine (pool tasks adopting rank buffers), the AI
# inference engine (overlapped micro-batches on pool workers), and the load
# balancer's column migration (index arithmetic over rearrange plans), the
# ensemble fleet (N members sharing one immutable context per process), and
# the SIMD pack layer (masked tails over exactly-sized allocations — ASan is
# the overread witness; packed launches run on the threaded backends too), and
# the hierarchical collectives (leader staging buffers under fault injection),
# and the property sweeps (coupled fault fuzz plus the ghost-aware cut
# planner's fuzz tuples alongside test_balance's migration paths), and the
# block-halo users (batched exchanges share one staging buffer per call and
# index ghost rings through hoisted halo-layout tables: test_grid, test_ocn,
# test_ice), and the atmosphere (batched GraphHalo calls with width-nlev
# payloads, and the fused tracer kernel indexing a ghost-only scratch buffer:
# test_atm), and the coupler (timing_summary is an obs::merge collective over
# every rank's span buffer, in both task layouts: test_coupler).
FILTER="${1:-test_par|test_io|test_fault|test_mct|test_restart|test_obs|test_async|test_ai|test_balance|test_fleet|test_pack|test_hier|test_properties|test_grid|test_ocn|test_ice|test_atm|test_coupler}"
JOBS="${JOBS:-$(nproc)}"

for sanitizer in ${SANITIZERS}; do
  case "${sanitizer}" in
    thread)    build_dir="${ROOT}/build-tsan" ;;
    address)   build_dir="${ROOT}/build-asan" ;;
    undefined) build_dir="${ROOT}/build-ubsan" ;;
    *) echo "error: unknown sanitizer '${sanitizer}'" >&2; exit 2 ;;
  esac

  echo "==> [${sanitizer}] configuring ${build_dir}"
  cmake -B "${build_dir}" -S "${ROOT}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DAP3_SANITIZE="${sanitizer}" > /dev/null

  echo "==> [${sanitizer}] building"
  cmake --build "${build_dir}" -j "${JOBS}" -- --quiet

  echo "==> [${sanitizer}] ctest -R '${FILTER}'"
  # halt_on_error makes sanitizer findings hard test failures; second-guess
  # nothing. TSan slows the transport ~10x, so give timeouts headroom.
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ASAN_OPTIONS="halt_on_error=1 detect_leaks=0" \
  UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
  ctest --test-dir "${build_dir}" -R "${FILTER}" \
        --output-on-failure --timeout 900
  echo "==> [${sanitizer}] clean"
done

echo "sanitizer matrix passed: ${SANITIZERS} over '${FILTER}'"
