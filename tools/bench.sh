#!/usr/bin/env bash
# Machine-readable micro-benchmark runner: builds and runs the micro_*
# google-benchmark binaries (micro_perf: fleet scoring and tree/forest
# batch prediction, micro_lint: static verifier, micro_obs: metrics
# instrumentation, micro_io: the Env seam,
# micro_serve: the daemon ingest path, micro_pipeline: hot-swap publish
# and shadow-scoring overhead) and merges their JSON output into
# one flat BENCH_obs.json — an array of {name, value, unit} objects.
# Every benchmark runs REPS (5) times: `value` is the median real (wall)
# time per iteration, a <name>/cv row carries the coefficient of variation
# (stddev / mean) of those repetitions, and benchmarks that report a
# throughput get a <name>/items_per_second row (median as well). A single
# run misleads; the CV says how far apart two medians must be to differ.
# CI diffs this file against the committed copy to catch hot-path
# regressions; the obs entries are the acceptance record for the overhead
# bounds in DESIGN.md §7, the io entries for the <=3% Env-indirection budget in DESIGN.md §8
# (BM_EnvAppend vs BM_DirectAppend), and the serve entries for the >= 1M
# sustained samples/s ingest bar in DESIGN.md §9
# (BM_ServeLoopbackIngest), and the pipeline entries for the <= 10%
# shadow-scoring overhead bound in DESIGN.md §10 (BM_FleetObserveShadow
# vs BM_FleetObserve).
#
# The file also carries adversarial-robustness rows (adversary/<preset>/
# eps<ε>/{evade_fdr,alarm_far}): `hddpredict adversary` run on a seeded
# synthetic fleet, so a model change that makes detection evadable (or
# healthy drives alarm-prone) under small SMART perturbations shows up in
# the same CI diff as a hot-path regression. Values are ratios, not
# times; the fleet and training are deterministic, so the rows are too.
#
# Usage: tools/bench.sh [--out FILE] [--build-dir DIR] [--filter REGEX]
set -euo pipefail

cd "$(dirname "$0")/.."

OUT="BENCH_obs.json"
BUILD_DIR="build"
REPS=5
FILTER=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --out) OUT="$2"; shift 2 ;;
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --filter) FILTER="$2"; shift 2 ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
done

cmake -B "${BUILD_DIR}" -S . > /dev/null
cmake --build "${BUILD_DIR}" -j "$(nproc)" \
    --target micro_perf micro_lint micro_obs micro_io micro_serve \
    micro_pipeline hddpredict

TMP="$(mktemp -d)"
trap 'rm -rf "${TMP}"' EXIT

# Adversarial robustness rows: train the ct and forest presets on one
# seeded fleet and record evade-FDR / alarm-FAR per epsilon.
HDD="${BUILD_DIR}/tools/hddpredict"
echo "=== adversary (ct, forest) ===" >&2
"${HDD}" generate --out "${TMP}/fleet.csv" --scale 0.04 --family W \
    --seed 11 --interval 2 > /dev/null
for preset in ct forest; do
  "${HDD}" train --data "${TMP}/fleet.csv" --model "${TMP}/${preset}.model" \
      --preset "${preset}" > /dev/null
  "${HDD}" adversary --data "${TMP}/fleet.csv" \
      --model "${TMP}/${preset}.model" --format json \
      > "${TMP}/adv_${preset}.json" || [[ $? == 3 ]]
done

# micro_perf sweeps large fleets; keep the suite's wall time bounded by
# running one representative size per benchmark family.
run_bench() {
  local bin="$1" json="$2" extra_filter="$3"
  local args=(--benchmark_format=json --benchmark_out="${json}"
              --benchmark_out_format=json
              --benchmark_repetitions="${REPS}")
  local f="${FILTER:-${extra_filter}}"
  if [[ -n "${f}" ]]; then
    args+=("--benchmark_filter=${f}")
  fi
  echo "=== ${bin} ===" >&2
  "${BUILD_DIR}/bench/${bin}" "${args[@]}" > /dev/null
}

run_bench micro_perf "${TMP}/perf.json" \
    'BM_Fleet|BM_StoreAppend|BM_TreePredictBatch|BM_ForestPredictBatch'
run_bench micro_lint "${TMP}/lint.json" 'BM_VerifyTree/20000|BM_VerifyForest/64'
run_bench micro_obs  "${TMP}/obs.json"  ''
run_bench micro_io   "${TMP}/io.json"   ''
run_bench micro_serve "${TMP}/serve.json" ''
run_bench micro_pipeline "${TMP}/pipeline.json" ''

python3 - "${OUT}" "${TMP}" "${TMP}/perf.json" "${TMP}/lint.json" \
    "${TMP}/obs.json" "${TMP}/io.json" "${TMP}/serve.json" \
    "${TMP}/pipeline.json" <<'PY'
import json
import statistics
import sys

out_path, tmp_dir, *inputs = sys.argv[1:]
rows = []
for path in inputs:
    with open(path) as f:
        doc = json.load(f)
    # Group the repetitions of each benchmark, keeping first-seen order;
    # google-benchmark's own aggregate rows are recomputed here instead.
    runs = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        runs.setdefault(b["run_name"], []).append(b)
    for name, reps in runs.items():
        times = [b["real_time"] for b in reps]
        mean = statistics.fmean(times)
        cv = statistics.stdev(times) / mean if len(times) > 1 and mean else 0.0
        rows.append({
            "name": name,
            "value": round(statistics.median(times), 4),
            "unit": reps[0]["time_unit"],
        })
        rows.append({"name": name + "/cv", "value": round(cv, 4),
                     "unit": "ratio"})
        if "items_per_second" in reps[0]:
            rows.append({
                "name": name + "/items_per_second",
                "value": round(statistics.median(
                    b["items_per_second"] for b in reps), 1),
                "unit": "items/s",
            })
for preset in ("ct", "forest"):
    with open(f"{tmp_dir}/adv_{preset}.json") as f:
        adv = json.load(f)["robustness"]
    rows.append({
        "name": f"adversary/{preset}/baseline_fdr",
        "value": round(adv["baseline"]["fdr"], 4),
        "unit": "ratio",
    })
    rows.append({
        "name": f"adversary/{preset}/baseline_far",
        "value": round(adv["baseline"]["far"], 4),
        "unit": "ratio",
    })
    for p in adv["points"]:
        eps = p["epsilon"]
        rows.append({
            "name": f"adversary/{preset}/eps{eps}/evade_fdr",
            "value": round(p["evade_fdr"], 4),
            "unit": "ratio",
        })
        rows.append({
            "name": f"adversary/{preset}/eps{eps}/alarm_far",
            "value": round(p["alarm_far"], 4),
            "unit": "ratio",
        })
with open(out_path, "w") as f:
    json.dump(rows, f, indent=2)
    f.write("\n")
print(f"wrote {len(rows)} benchmark entries to {out_path}")
PY
