#!/usr/bin/env bash
# Fuzzing driver for the fuzz/ harnesses (DESIGN.md §13): the frame,
# segment, model, store-op and cli entry points, each a libFuzzer target
# when clang is the compiler and a standalone corpus-replay binary under
# gcc (fuzz/standalone_main.cpp).
#
# Modes:
#   tools/fuzz.sh --regress [jobs]
#       Corpus regression: build the fuzz binaries under ASan+UBSan and
#       replay every checked-in seed (tests/fuzz/corpus/<harness>/)
#       through them. Works with any compiler — libFuzzer binaries treat
#       file arguments as single-shot inputs, and the gcc standalone
#       binaries do the same. It also regenerates the corpus with
#       make_seeds into a temp dir and diffs it against the checked-in
#       one, so a change to any wire, segment or model byte fails here
#       unless the seeds are regenerated with it. This is the mode
#       check.sh runs.
#   tools/fuzz.sh [--seconds N] [jobs]
#       Long-run coverage-guided fuzzing (default 60 s per harness) over
#       a scratch corpus seeded from the checked-in one. Requires clang;
#       without it the script degrades to the corpus regression and says
#       so. Coverage-increasing inputs accumulate in
#       build-fuzz/corpus/<harness>/ — minimize and check in the keepers
#       as seeds; crash artifacts land in build-fuzz/crashes/.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE=run
SECONDS_PER=60
JOBS=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --regress) MODE=regress; shift ;;
    --seconds) SECONDS_PER="$2"; shift 2 ;;
    *) JOBS="$1"; shift ;;
  esac
done
JOBS="${JOBS:-$(nproc)}"

BUILD=build-fuzz
HARNESSES=(frame segment model store_op cli)
HAVE_CLANG=0
if command -v clang++ > /dev/null && command -v clang > /dev/null; then
  HAVE_CLANG=1
fi

echo "=== configure ${BUILD} (HDD_FUZZ=ON, ASan+UBSan$(
    [[ ${HAVE_CLANG} == 1 ]] && echo ", clang/libFuzzer" \
                             || echo ", gcc standalone")) ==="
CONFIG=(-DHDD_FUZZ=ON -DHDD_SANITIZE=address+undefined)
if [[ "${HAVE_CLANG}" == 1 ]]; then
  CONFIG+=(-DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++)
fi
cmake -B "${BUILD}" -S . "${CONFIG[@]}"
TARGETS=()
for h in "${HARNESSES[@]}"; do TARGETS+=("${h}_fuzzer"); done
TARGETS+=(make_seeds)
echo "=== build ${BUILD} (${TARGETS[*]}) ==="
cmake --build "${BUILD}" -j "${JOBS}" --target "${TARGETS[@]}"

regress() {
  local failed=0
  for h in "${HARNESSES[@]}"; do
    local seeds=(tests/fuzz/corpus/"${h}"/*)
    if [[ ! -e "${seeds[0]}" ]]; then
      echo "fuzz regress FAILED: no seeds in tests/fuzz/corpus/${h}" >&2
      return 1
    fi
    echo "=== replay ${#seeds[@]} seed(s): ${h}_fuzzer ==="
    if ! "${BUILD}/fuzz/${h}_fuzzer" "${seeds[@]}" > /dev/null; then
      echo "fuzz regress FAILED: ${h}_fuzzer crashed on a seed" >&2
      failed=1
    fi
  done
  local fresh
  fresh="$(mktemp -d)"
  echo "=== regenerate the seed corpus and diff it against tests/fuzz/corpus ==="
  "${BUILD}/fuzz/make_seeds" "${fresh}" > /dev/null
  if ! diff -r "${fresh}" tests/fuzz/corpus; then
    echo "fuzz regress FAILED: make_seeds no longer reproduces the" \
         "checked-in corpus (a format changed)" >&2
    failed=1
  fi
  rm -rf "${fresh}"
  return "${failed}"
}

if [[ "${MODE}" == "regress" ]]; then
  regress
  echo "=== fuzz corpus regression passed ==="
  exit 0
fi

if [[ "${HAVE_CLANG}" != 1 ]]; then
  echo "fuzz.sh: clang not found — libFuzzer unavailable; running the" \
       "corpus regression instead" >&2
  regress
  echo "=== fuzz corpus regression passed (install clang to fuzz) ==="
  exit 0
fi

mkdir -p "${BUILD}/crashes"
for h in "${HARNESSES[@]}"; do
  mkdir -p "${BUILD}/corpus/${h}"
  echo "=== fuzz ${h}_fuzzer (${SECONDS_PER}s) ==="
  "${BUILD}/fuzz/${h}_fuzzer" \
      -max_total_time="${SECONDS_PER}" \
      -artifact_prefix="${BUILD}/crashes/${h}-" \
      -print_final_stats=1 \
      "${BUILD}/corpus/${h}" "tests/fuzz/corpus/${h}"
done
echo "=== fuzzing done; new inputs in ${BUILD}/corpus/," \
     "crashes (if any) in ${BUILD}/crashes/ ==="
