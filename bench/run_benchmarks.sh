#!/usr/bin/env bash
# Perf-trajectory driver: runs the benchmark binaries against an existing
# build tree and collects BENCH_*.json artifacts plus the ablation/micro-
# kernel logs under one output directory, so every PR leaves a comparable
# performance record (schema and comparison workflow: docs/BENCHMARKS.md).
#
# Usage:
#   bench/run_benchmarks.sh                # full scale, reads ./build
#   BUILD_DIR=build-ci OUT_DIR=perf RMP_BENCH_SMOKE=1 bench/run_benchmarks.sh
#
# RMP_BENCH_SMOKE=1 shrinks every workload to CI-smoke scale (seconds, not
# minutes); the JSON schema is identical, only the scale fields differ.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
OUT_DIR="${OUT_DIR:-${BUILD_DIR}/bench-results}"
SMOKE="${RMP_BENCH_SMOKE:-0}"

# Every phase-gate binary must exist BEFORE anything runs.  Each of these
# carries acceptance gates (determinism cross-checks, speedup floors); a
# missing one must fail the driver up front, not let the remaining phases
# "pass" while a gate was silently never exercised.
REQUIRED_BENCHES=(pmo2_scaling kinetics_scaling)
missing=0
for b in "${REQUIRED_BENCHES[@]}"; do
  if [[ ! -x "${BUILD_DIR}/bench/${b}" ]]; then
    echo "error: ${BUILD_DIR}/bench/${b} not found — its phase gates cannot run" >&2
    missing=1
  fi
done
if [[ "${missing}" == "1" ]]; then
  echo "build first:  cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j" >&2
  exit 1
fi
mkdir -p "${OUT_DIR}"

if [[ "${SMOKE}" == "1" ]]; then
  export RMP_GENERATIONS="${RMP_GENERATIONS:-12}"
  export RMP_POPULATION="${RMP_POPULATION:-16}"
  export RMP_EVAL_SPIN="${RMP_EVAL_SPIN:-100}"
  export RMP_BENCH_REPEATS="${RMP_BENCH_REPEATS:-1}"
  export RMP_KINETICS_GENERATIONS="${RMP_KINETICS_GENERATIONS:-6}"
  export RMP_KINETICS_BATCH="${RMP_KINETICS_BATCH:-16}"
  export RMP_KINETICS_PMO2_GENERATIONS="${RMP_KINETICS_PMO2_GENERATIONS:-3}"
  export RMP_KINETICS_PMO2_POPULATION="${RMP_KINETICS_PMO2_POPULATION:-8}"
else
  # Full scale enforces the kinetic engine's acceptance bars: >= 3x RHS-work
  # reduction per solve (measured ~21x) and a 1.5x solve-path wall floor
  # (measured ~1.9x on the bench trajectory, 2.2-2.6x in the
  # front-exploitation and yield-ensemble regimes — the gap to the work
  # ratio is allocator/dispatch overhead shared by both engines).  Smoke runs only check the determinism
  # cross-checks (CI wall clocks are too noisy for speedup gates at seconds
  # scale).
  export RMP_KINETICS_MIN_SPEEDUP="${RMP_KINETICS_MIN_SPEEDUP:-1.5}"
  export RMP_KINETICS_MIN_RHS_REDUCTION="${RMP_KINETICS_MIN_RHS_REDUCTION:-3}"
fi

# 1. The perf-trajectory anchors.  Non-zero exit = a contract broke:
#    pmo2_scaling checks bit-identical archives across island_threads,
#    kinetics_scaling checks the steady-state engine against its FD/
#    cold-start baseline (thread-invariant fingerprints for every solver
#    configuration, and the speedup/work bars at full scale).
"${BUILD_DIR}/bench/pmo2_scaling" "${OUT_DIR}/BENCH_pmo2.json"
"${BUILD_DIR}/bench/kinetics_scaling" "${OUT_DIR}/BENCH_kinetics.json"

# Every artifact must exist and be non-empty — an empty file means a binary
# died after truncating its output, which set -e alone would already have
# caught, but this also guards against OUT_DIR redirection mistakes.
for artifact in BENCH_pmo2 BENCH_kinetics; do
  [[ -s "${OUT_DIR}/${artifact}.json" ]] \
    || { echo "error: ${OUT_DIR}/${artifact}.json missing or empty" >&2; exit 1; }
done

# Validate the artifacts when a JSON parser is on the PATH.
if command -v python3 >/dev/null 2>&1; then
  for artifact in BENCH_pmo2 BENCH_kinetics; do
    python3 -m json.tool "${OUT_DIR}/${artifact}.json" >/dev/null \
      && echo "${artifact}.json: valid JSON"
  done
fi

# 2. The PMO2 ablations (printed tables; logged for the record).
for ablation in ablation_islands ablation_migration; do
  if [[ -x "${BUILD_DIR}/bench/${ablation}" ]]; then
    "${BUILD_DIR}/bench/${ablation}" | tee "${OUT_DIR}/${ablation}.log"
  fi
done

# 3. Micro-kernels (optional: needs the system google-benchmark at
#    configure time).
if [[ -x "${BUILD_DIR}/bench/micro_kernels" ]]; then
  "${BUILD_DIR}/bench/micro_kernels" --benchmark_filter=BM_EvaluateBatch \
    | tee "${OUT_DIR}/micro_kernels.log"
fi

echo
echo "== ${OUT_DIR}/BENCH_pmo2.json =="
cat "${OUT_DIR}/BENCH_pmo2.json"
echo
echo "== ${OUT_DIR}/BENCH_kinetics.json =="
cat "${OUT_DIR}/BENCH_kinetics.json"
