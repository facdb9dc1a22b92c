#!/usr/bin/env bash
# tools/check.sh — Cedar's full verification matrix (DESIGN.md §10).
#
# Runs, in order, stopping at the first failure:
#   format   clang-format --dry-run -Werror against the checked-in .clang-format
#   build    default build, warnings-as-errors (-DCEDAR_WERROR=ON), in
#            build-werror/ so the developer's build/ keeps its own cache
#   test     the full ctest suite in build-werror/
#   lint     ctest -L tier1_lint (cedar_lint tree scan + rule fixture suite)
#   store    ctest -L tier1_store (content-keyed store contract suite + smoke run
#            of 1-8 requesters filling one table build, checked against serial)
#   asan     AddressSanitizer build in build-asan/, ctest -L tier1_asan
#   ubsan    UndefinedBehaviorSanitizer build in build-ubsan/, ctest -L tier1_ubsan
#   tsan     ThreadSanitizer build in build-tsan/, ctest -L tier1_tsan
#   tidy     clang-tidy over every target in build-tidy/ (-DCEDAR_CLANG_TIDY=ON)
#   tsafety  clang -Wthread-safety build in build-tsafety/ (-DCEDAR_THREAD_SAFETY=ON)
#
# Stages whose external tool is not installed (clang-format, clang-tidy) are
# reported SKIP rather than failing: the container bakes in only the gcc
# toolchain, and a skipped optional gate must not mask the mandatory ones.
# Lock discipline is checked by the tsan stage and, where clang exists, the
# tsafety stage (DESIGN.md §12).
#
# Exit status: 0 when every non-skipped stage passed, 1 on the first failure,
# 2 on a usage error (an unknown argument or --only stage name).
#
# Usage: tools/check.sh [--jobs=N] [--only=stage[,stage...]]

set -u -o pipefail

cd "$(dirname "$0")/.."
ROOT="$(pwd)"
JOBS="$(nproc 2>/dev/null || echo 2)"
ONLY=""

for arg in "$@"; do
  case "$arg" in
    --jobs=*) JOBS="${arg#--jobs=}" ;;
    --only=*) ONLY="${arg#--only=}" ;;
    *)
      echo "usage: tools/check.sh [--jobs=N] [--only=stage,...]" >&2
      exit 2
      ;;
  esac
done

# Every stage, in run order. --only names outside this list are a usage
# error: a typo would otherwise skip every stage and report success.
ALL_STAGES=(format build test lint store asan ubsan tsan tidy tsafety)
IFS=',' read -r -a only_stages <<< "$ONLY"
for stage in "${only_stages[@]}"; do
  if [[ " ${ALL_STAGES[*]} " != *" $stage "* ]]; then
    echo "check.sh: unknown stage '$stage' in --only (want: ${ALL_STAGES[*]})" >&2
    exit 2
  fi
done

STAGE_NAMES=()
STAGE_RESULTS=()

record() { STAGE_NAMES+=("$1"); STAGE_RESULTS+=("$2"); }

summary() {
  echo
  echo "==== check.sh stage summary ===="
  local i
  for i in "${!STAGE_NAMES[@]}"; do
    printf '  %-9s %s\n' "${STAGE_NAMES[$i]}" "${STAGE_RESULTS[$i]}"
  done
}

wanted() {
  [[ -z "$ONLY" ]] && return 0
  [[ ",$ONLY," == *",$1,"* ]]
}

# run_stage <name> <command...>: runs the command, records PASS/FAIL, and on
# FAIL prints the summary and exits non-zero immediately (first-failure stop).
run_stage() {
  local name="$1"
  shift
  if ! wanted "$name"; then
    record "$name" "SKIP (--only)"
    return 0
  fi
  echo
  echo "==== stage: $name ===="
  if "$@"; then
    record "$name" PASS
  else
    record "$name" FAIL
    summary
    echo "check.sh: stage '$name' failed" >&2
    exit 1
  fi
}

skip_stage() {
  record "$1" "SKIP ($2)"
  echo
  echo "==== stage: $1 — SKIP: $2 ===="
}

# --- format -----------------------------------------------------------------
format_stage() {
  # shellcheck disable=SC2046
  clang-format --dry-run -Werror $(git -C "$ROOT" ls-files '*.cc' '*.h' \
      | grep -v '^tests/lint_fixtures/')
}
if wanted format; then
  if command -v clang-format > /dev/null 2>&1; then
    run_stage format format_stage
  else
    skip_stage format "clang-format not installed"
  fi
else
  record format "SKIP (--only)"
fi

# --- default build + tests + lint tier -------------------------------------
# A directory of its own: configuring build/ with -DCEDAR_WERROR=ON would
# stick the flag in that cache and force a full rebuild of it.
WERROR_DIR="$ROOT/build-werror"
build_stage() {
  cmake -B "$WERROR_DIR" -S "$ROOT" -DCEDAR_WERROR=ON \
    && cmake --build "$WERROR_DIR" -j "$JOBS"
}
run_stage build build_stage

test_stage() { ctest --test-dir "$WERROR_DIR" --output-on-failure -j "$JOBS"; }
run_stage test test_stage

lint_stage() { ctest --test-dir "$WERROR_DIR" -L tier1_lint --output-on-failure; }
run_stage lint lint_stage

store_stage() { ctest --test-dir "$WERROR_DIR" -L tier1_store --output-on-failure; }
run_stage store store_stage

# --- sanitizer matrix -------------------------------------------------------
sanitizer_stage() {
  local sanitizer="$1" dir="$2" label="$3"
  cmake -B "$dir" -S "$ROOT" -DCEDAR_SANITIZE="$sanitizer" -DCEDAR_WERROR=ON \
    && cmake --build "$dir" -j "$JOBS" \
    && ctest --test-dir "$dir" -L "$label" --output-on-failure -j "$JOBS"
}
run_stage asan sanitizer_stage address "$ROOT/build-asan" tier1_asan
run_stage ubsan sanitizer_stage undefined "$ROOT/build-ubsan" tier1_ubsan
run_stage tsan sanitizer_stage thread "$ROOT/build-tsan" tier1_tsan

# --- clang-tidy -------------------------------------------------------------
tidy_stage() {
  cmake -B "$ROOT/build-tidy" -S "$ROOT" -DCEDAR_CLANG_TIDY=ON \
    && cmake --build "$ROOT/build-tidy" -j "$JOBS"
}
if wanted tidy; then
  if command -v clang-tidy > /dev/null 2>&1; then
    run_stage tidy tidy_stage
  else
    skip_stage tidy "clang-tidy not installed"
  fi
else
  record tidy "SKIP (--only)"
fi

# --- clang thread-safety analysis -------------------------------------------
tsafety_stage() {
  cmake -B "$ROOT/build-tsafety" -S "$ROOT" -DCMAKE_CXX_COMPILER=clang++ \
      -DCEDAR_THREAD_SAFETY=ON -DCEDAR_WERROR=ON \
    && cmake --build "$ROOT/build-tsafety" -j "$JOBS"
}
if wanted tsafety; then
  if command -v clang++ > /dev/null 2>&1; then
    run_stage tsafety tsafety_stage
  else
    skip_stage tsafety "clang++ not installed"
  fi
else
  record tsafety "SKIP (--only)"
fi

summary
echo "check.sh: all executed stages passed"
