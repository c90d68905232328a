#!/usr/bin/env bash
# CI gate: build the tree and run the full ctest suite three ways —
#   plain        no instrumentation (the tier-1 configuration)
#   asan-ubsan   AddressSanitizer + UndefinedBehaviorSanitizer
#   tsan         ThreadSanitizer (exercises the pooled Gram dot products,
#                lock-free reads of a frozen signature dictionary by
#                serving threads, the mini-batch k-means restarts and the
#                `fit` self-check on a pool, and the work-helping thread
#                pool under the race detector)
# — then rebuild with -DCWGL_FAILPOINTS=ON and run the fault passes:
#   faults        full suite with the failpoint registry compiled in
#   faults-asan   fault-relevant tests under ASan/UBSan (injected faults
#                 must not leak or touch freed memory on error paths)
#   faults-tsan   fault-relevant tests under TSan (queue close / worker
#                 failure shutdown ordering under the race detector)
# — and finally the bench-smoke pass: bench_ingest + bench_scalability on
#   tiny inputs (CWGL_BENCH_JOBS=500), each emitting BENCH_<name>.json,
#   structurally compared against the committed bench/baselines/ files with
#   scripts/bench_diff.py (deltas informational; a missing metric or broken
#   schema fails the pass)
# — plus the serve-smoke pass: cwgl fit -> predict -> serve-bench on the
#   bundled example trace (serve-bench's classify counters must show
#   memo_hits + scans == jobs and postings > 0), and bench_serve diffed
#   against bench/baselines/BENCH_serve.json with a --min-bar floor of 0.5
#   on the full-fit vs sampled-fit serial classify ratio
# — plus the serve-daemon-smoke pass: fit a snapshot, run the resident
#   `cwgl serve` daemon on a unix socket, round-trip ping/classify through
#   `cwgl client`, verify a corrupt reload is rejected while the old model
#   keeps serving, drain cleanly, then run bench_serve_daemon and gate
#   BENCH_serve_daemon.json: --min-bar on sustained throughput, completed
#   reloads, and completed telemetry exports; --max-bar on the sustained
#   shed fraction, reload errors, the drain exit code, and the telemetry
#   overhead (exporter + logging must cost < 2% sustained throughput)
# — plus the fulltrace-smoke pass: `cwgl characterize --full` (both the
#   mini-batch and landmark backends) on a generated multi-thousand-job
#   trace with a hard ARI >= 0.8 gate against the exact sampled pipeline,
#   a `fit --full` -> `predict` round-trip, `fit --full --trace` streaming
#   20k- and 80k-job traces from disk (snapshots byte-identical to the
#   generated fits, peak RSS at 80k at most 2x that at 20k), the same
#   traces through `characterize --full --trace --json` (equal to the
#   generated run's document, timings masked) and `ingest --intern --json`
#   (intern and built blocks equal pooled and --serial), and
#   bench_full_cluster diffed against bench/baselines/BENCH_full_cluster.json
#   with --min-bar floors on both agreement ARIs
# — plus the telemetry-smoke pass: a live daemon with the full telemetry
#   plane on (periodic Prometheus exporter, JSON structured logging, span
#   tracer) answers ping/health/stats/trace, a hot reload bumps the
#   generation the endpoints report, the exported .prom file carries the
#   request counter, every structured log line parses as JSON, and drain
#   exits 0.
# — plus the bench-contract pass: the end-to-end benchmark package
#   (cwgl_bench/) built in Release and its four bench_smoke_* ctests, which
#   drive `cwgl fit`, `cwgl predict` and `cwgl serve` with the benchmark's
#   own command lines — a CLI change that breaks them fails here first.
#
# Usage: scripts/check.sh [jobs]
# Build dirs are build-check-<name>; set CWGL_CHECK_KEEP=1 to keep them.

set -euo pipefail
cd "$(dirname "$0")/.."

# Repo hygiene: build trees must never be committed. This list is empty when
# .gitignore is doing its job; a non-empty match fails fast before the slow
# build/test configurations run.
if git ls-files -- 'build*/' | grep -q .; then
  echo "check.sh: FAILED — tracked files under build*/ (build trees must not be committed):" >&2
  git ls-files -- 'build*/' | head -20 >&2
  exit 1
fi

JOBS="${1:-$(nproc)}"
FAILED=()

run_config() {
  local name="$1" sanitize="$2" failpoints="${3:-OFF}" filter="${4:-}"
  local build_dir="build-check-${name}"
  echo
  echo "=== [${name}] configure (CWGL_SANITIZE='${sanitize}' CWGL_FAILPOINTS=${failpoints}) ==="
  cmake -B "${build_dir}" -S . \
    -DCWGL_SANITIZE="${sanitize}" \
    -DCWGL_FAILPOINTS="${failpoints}" \
    -DCWGL_BUILD_BENCHMARKS=OFF \
    -DCWGL_BUILD_EXAMPLES=OFF
  echo "=== [${name}] build ==="
  cmake --build "${build_dir}" -j "${JOBS}"
  echo "=== [${name}] ctest ==="
  local ctest_args=(--test-dir "${build_dir}" --output-on-failure -j "${JOBS}")
  [[ -n "${filter}" ]] && ctest_args+=(-R "${filter}")
  if ! ctest "${ctest_args[@]}"; then
    FAILED+=("${name}")
  fi
  if [[ "${CWGL_CHECK_KEEP:-0}" != "1" ]]; then
    rm -rf "${build_dir}"
  fi
}

# Tests that exercise injected faults, quarantine, and shutdown ordering —
# the subset worth re-running under sanitizers with failpoints compiled in.
# ModelFormat/GoldenModel ride along so the every-bit-flip corruption loop
# and the model.write/model.read failpoints run under ASan/UBSan and TSan.
# ParallelFor/GramTiling/SparseDot cover the work-balanced tiled Gram path:
# weighted chunking, pooled-vs-serial differentials, and the galloping dot
# all re-run with race and UB detection on.
#  Daemon/Protocol cover the serving daemon: overload shedding, deadline
# expiry, hot reload, signal-driven drain, and the serve.accept/serve.batch/
# serve.reload failpoints all rerun under both sanitizers.
#  ClusterAtScale/MiniBatchKMeans/LandmarkSpectral/FullTrace cover the
# scalable clustering engine: the cluster.scale failpoint's landmark ->
# mini-batch degradation and both backends rerun under both sanitizers.
#  InternDifferential/KMeansWeighted/KMeansMapped/SilhouetteWeighted/
# DescribeWeighted cover the count-weighted clustering and report code (one
# implementation per stage, unit weights the direct case, k-means seeds
# drawn over jobs through the shape map) under both sanitizers, and
# PaperGolden runs the one sampled pipeline end to end under both.
#  PredictDifferential/Cli.Predict cover `cwgl predict` on the pooled
# ingest stream: classify and render on the workers, batches recycled on
# the reader, and the I/O-error and fragmented-file exits.
#  JsonWriter runs the string-building writer, its std::to_chars number
# buffers, its spilled nesting stack and its stream adapter (including the
# JsonWriterDifferential tests against the iostream oracle) under both.
#  InPlaceReader/GroupStream/ChunkEdges cover the chunked job stream:
# rows parsed in place into each worker's recycled records, the ordered
# stitch of jobs cut by chunk edges, the exact-scanner fallback and the
# per-worker name tables, pooled against serial and against the serial
# reader oracle on damaged input at chunk sizes down to 1 byte; with
# CsvScanner they run the 16-byte probe's padded tail loads under ASan,
# and PredictDifferential runs the workers' shared predict memo under TSan.
#  Crc32 runs the slice-by-8 checksum's word loads under ASan, and
# BuildJobDag the one-pass DAG build's per-thread scratch.
#  Classifier/ScanKernel run the classify scan's per-thread scratch, its
# dense columns and every scan-kernel variant the CPU dispatches to under
# both sanitizers.
FAULT_FILTER='Failpoint|FaultInjection|Diagnostics|StreamDagJobs|StreamShapeJobs|InPlaceReader|GroupStream|ChunkEdges|TraceIoStream|Crc32|BuildJobDag|CsvScanner|CsvBlockScanner|BoundedQueue|ThreadPool|ParallelFor|GramTiling|SparseDot|Spectral|ModelFormat|GoldenModel|ShapeStore|Daemon|Protocol|ClusterAtScale|MiniBatchKMeans|LandmarkSpectral|FullTrace|InternDifferential|KMeansWeighted|KMeansMapped|SilhouetteWeighted|DescribeWeighted|PaperGolden|PredictDifferential|Cli\.Predict|JsonWriter|Classifier|ScanKernel'

# Smoke the machine-readable bench pipeline end to end: tiny-input runs of
# the two benches with committed baselines must produce cwgl-bench-v1 JSON
# whose metric set still matches bench/baselines/. Timing deltas are
# informational — the committed numbers came from some other box.
run_bench_smoke() {
  local name="bench-smoke" build_dir="build-check-bench-smoke"
  echo
  echo "=== [${name}] configure (benchmarks ON) ==="
  cmake -B "${build_dir}" -S . \
    -DCWGL_BUILD_BENCHMARKS=ON \
    -DCWGL_BUILD_EXAMPLES=OFF
  echo "=== [${name}] build ==="
  cmake --build "${build_dir}" -j "${JOBS}" --target bench_ingest bench_intern bench_scalability
  echo "=== [${name}] run + diff ==="
  local out="${build_dir}/bench-out"
  mkdir -p "${out}"
  local ok=1
  local b
  for b in ingest intern scalability; do
    if ! CWGL_BENCH_JOBS=500 CWGL_BENCH_REPS=1 CWGL_BENCH_OUT="${out}" \
        "${build_dir}/bench/bench_${b}" "--benchmark_filter=^\$"; then
      echo "bench_${b} failed" >&2
      ok=0
      continue
    fi
    # The pooled-Gram speedup is a hard bar on multi-core machines (the
    # committed baseline host has 1 core, where a 4-thread pool can only
    # timeslice — there the ratio is informational, like the time deltas).
    local diff_args=()
    if [[ "${b}" == "scalability" ]] && (($(nproc) > 1)); then
      diff_args+=(--min-bar 'gram_par_*_speedup=1.0')
    fi
    if ! python3 scripts/bench_diff.py "${diff_args[@]}" \
        "bench/baselines/BENCH_${b}.json" "${out}/BENCH_${b}.json"; then
      ok=0
    fi
  done
  ((ok)) || FAILED+=("${name}")
  if [[ "${CWGL_CHECK_KEEP:-0}" != "1" ]]; then
    rm -rf "${build_dir}"
  fi
}

# Model store + serving smoke: fit a snapshot on the bundled example trace,
# classify the committed probe jobs against it, and run the serving bench —
# the full `cwgl fit -> predict -> serve-bench` sequence a deployment would
# use. serve-bench's metrics must account for every job as a memo hit or a
# scan, and show the scans visiting postings. BENCH_serve.json is
# structurally diffed against the committed baseline (timing deltas
# informational, like bench-smoke); a full-trace model must classify at
# least half as fast as the sampled one.
run_serve_smoke() {
  local name="serve-smoke" build_dir="build-check-serve-smoke"
  echo
  echo "=== [${name}] configure ==="
  cmake -B "${build_dir}" -S . \
    -DCWGL_BUILD_BENCHMARKS=ON \
    -DCWGL_BUILD_EXAMPLES=OFF
  echo "=== [${name}] build ==="
  cmake --build "${build_dir}" -j "${JOBS}" --target cwgl bench_serve
  echo "=== [${name}] fit + predict + serve-bench ==="
  local cwgl="${build_dir}/src/cli/cwgl"
  local out="${build_dir}/serve-out"
  mkdir -p "${out}"
  local ok=1
  if ! "${cwgl}" fit --trace tests/data/example_trace --sample 60 \
      --clusters 4 --out "${out}/model.cwgl"; then
    echo "serve-smoke: fit failed" >&2
    ok=0
  fi
  if ((ok)) && ! "${cwgl}" predict --model "${out}/model.cwgl" \
      tests/data/probe_jobs.csv --json > "${out}/predict.json"; then
    echo "serve-smoke: predict failed" >&2
    ok=0
  fi
  if ((ok)) && ! "${cwgl}" serve-bench --model "${out}/model.cwgl" \
      --jobs 200 --repeat 1 --metrics --json > "${out}/serve_bench.json"; then
    echo "serve-smoke: serve-bench failed" >&2
    ok=0
  fi
  # Every classified job is a memo hit or a scan, and scans walk postings.
  if ((ok)) && ! python3 -c '
import json, sys
counters = json.load(open(sys.argv[1]))["metrics"]["counters"]
jobs = counters["serve.classify.jobs"]
hits = counters.get("serve.classify.memo_hits", 0)
scans = counters.get("serve.classify.scans", 0)
postings = counters.get("serve.classify.postings", 0)
assert jobs > 0, "no jobs classified"
assert hits + scans == jobs, f"memo_hits {hits} + scans {scans} != jobs {jobs}"
assert postings > 0, f"serve.classify.postings is {postings}"
' "${out}/serve_bench.json"; then
    echo "serve-smoke: serve-bench classify counters inconsistent" >&2
    ok=0
  fi
  if ((ok)); then
    if ! CWGL_BENCH_JOBS=500 CWGL_BENCH_REPS=1 CWGL_BENCH_OUT="${out}" \
        "${build_dir}/bench/bench_serve"; then
      echo "serve-smoke: bench_serve failed" >&2
      ok=0
    elif ! python3 scripts/bench_diff.py \
        "bench/baselines/BENCH_serve.json" "${out}/BENCH_serve.json" \
        --min-bar 'full_vs_sampled_ratio=0.5'; then
      ok=0
    fi
  fi
  ((ok)) || FAILED+=("${name}")
  if [[ "${CWGL_CHECK_KEEP:-0}" != "1" ]]; then
    rm -rf "${build_dir}"
  fi
}

# Resident-daemon smoke: the full deployment lifecycle against a real
# `cwgl serve` process on a unix socket — fit, serve, classify round-trip,
# corrupt-reload rejection (old model keeps serving), good reload, graceful
# drain with exit 0 — then the open-loop load bench with hard bars: sustained
# throughput and completed reloads from below, shed fraction / reload errors /
# drain exit code from above.
run_serve_daemon_smoke() {
  local name="serve-daemon-smoke" build_dir="build-check-serve-daemon-smoke"
  echo
  echo "=== [${name}] configure ==="
  cmake -B "${build_dir}" -S . \
    -DCWGL_BUILD_BENCHMARKS=ON \
    -DCWGL_BUILD_EXAMPLES=OFF
  echo "=== [${name}] build ==="
  cmake --build "${build_dir}" -j "${JOBS}" --target cwgl bench_serve_daemon
  echo "=== [${name}] daemon lifecycle ==="
  local cwgl="${build_dir}/src/cli/cwgl"
  local out="${build_dir}/daemon-out"
  mkdir -p "${out}"
  local sock="${out}/daemon.sock"
  local ok=1
  if ! "${cwgl}" fit --trace tests/data/example_trace --sample 60 \
      --clusters 4 --out "${out}/model.cwgl"; then
    echo "${name}: fit failed" >&2
    ok=0
  fi
  local daemon_pid=""
  if ((ok)); then
    "${cwgl}" serve --model "${out}/model.cwgl" --socket "${sock}" \
      --metrics="${out}/daemon_metrics.json" &
    daemon_pid=$!
    local i
    for i in $(seq 1 100); do
      [[ -S "${sock}" ]] && break
      sleep 0.1
    done
    if [[ ! -S "${sock}" ]]; then
      echo "${name}: daemon never bound ${sock}" >&2
      ok=0
    fi
  fi
  if ((ok)) && ! "${cwgl}" client --socket "${sock}" --ping; then
    echo "${name}: ping failed" >&2
    ok=0
  fi
  if ((ok)) && ! "${cwgl}" client --socket "${sock}" --job smoke_job \
      --tasks M1,M2_1,R3_2; then
    echo "${name}: classify round-trip failed" >&2
    ok=0
  fi
  if ((ok)); then
    # A corrupt snapshot must be rejected (typed error -> client exits
    # non-zero) while the old model keeps answering.
    echo "not a model" > "${out}/corrupt.cwgl"
    if "${cwgl}" client --socket "${sock}" --reload="${out}/corrupt.cwgl" \
        > /dev/null 2>&1; then
      echo "${name}: corrupt reload was accepted" >&2
      ok=0
    fi
  fi
  if ((ok)) && ! "${cwgl}" client --socket "${sock}" --job smoke_job \
      --tasks M1,M2_1,R3_2 > /dev/null; then
    echo "${name}: daemon stopped serving after rejected reload" >&2
    ok=0
  fi
  if ((ok)) && ! "${cwgl}" client --socket "${sock}" \
      --reload="${out}/model.cwgl" > /dev/null; then
    echo "${name}: good reload failed" >&2
    ok=0
  fi
  if ((ok)) && ! "${cwgl}" client --socket "${sock}" --drain; then
    echo "${name}: drain request failed" >&2
    ok=0
  fi
  if [[ -n "${daemon_pid}" ]]; then
    local deadline=$((SECONDS + 30))
    while kill -0 "${daemon_pid}" 2>/dev/null && ((SECONDS < deadline)); do
      sleep 0.2
    done
    if kill -0 "${daemon_pid}" 2>/dev/null; then
      echo "${name}: daemon did not exit after drain" >&2
      kill -9 "${daemon_pid}" 2>/dev/null || true
      wait "${daemon_pid}" 2>/dev/null || true
      ok=0
    else
      local rc=0
      wait "${daemon_pid}" || rc=$?
      if ((rc != 0)); then
        echo "${name}: daemon exited ${rc} (want 0 after clean drain)" >&2
        ok=0
      fi
    fi
  fi
  if ((ok)); then
    echo "=== [${name}] load bench + gates ==="
    if ! CWGL_BENCH_JOBS=500 CWGL_BENCH_REPS=1 CWGL_BENCH_OUT="${out}" \
        "${build_dir}/bench/bench_serve_daemon"; then
      echo "${name}: bench_serve_daemon failed" >&2
      ok=0
    elif ! python3 scripts/bench_diff.py \
        --min-bar 'sustained_jobs_per_s=50' \
        --min-bar 'reloads_completed=3' \
        --min-bar 'telemetry_exports_completed=1' \
        --max-bar 'sustained_shed_fraction=0.05' \
        --max-bar 'reload_during_traffic_errors=0' \
        --max-bar 'drain_exit_code=0' \
        --max-bar 'telemetry_overhead_pct=2.0' \
        "bench/baselines/BENCH_serve_daemon.json" \
        "${out}/BENCH_serve_daemon.json"; then
      ok=0
    fi
  fi
  ((ok)) || FAILED+=("${name}")
  if [[ "${CWGL_CHECK_KEEP:-0}" != "1" ]]; then
    rm -rf "${build_dir}"
  fi
}

# Full-trace clustering smoke: `cwgl characterize --full` on a generated
# multi-thousand-job trace must reproduce the exact sampled pipeline's
# partition at ARI >= 0.8 for BOTH backends (mini-batch and landmark), a
# full-trace fit must classify the committed probe jobs (`fit --full` ->
# `predict` round-trip, per-section snapshot sizes present in the fit JSON),
# `fit --full --trace` must stream 20k- and 80k-job traces written by
# `generate` (instances included) into snapshots byte-identical to `fit
# --full --jobs N` with peak RSS growing at most 2x for 4x the jobs (memory
# that grows with jobs, as when the whole trace is loaded, reads ~3.7x), and
# bench_full_cluster is gated against its committed baseline with hard
# --min-bar floors on both agreement ARIs.
run_fulltrace_smoke() {
  local name="fulltrace-smoke" build_dir="build-check-fulltrace-smoke"
  echo
  echo "=== [${name}] configure ==="
  cmake -B "${build_dir}" -S . \
    -DCWGL_BUILD_BENCHMARKS=ON \
    -DCWGL_BUILD_EXAMPLES=OFF
  echo "=== [${name}] build ==="
  cmake --build "${build_dir}" -j "${JOBS}" --target cwgl bench_full_cluster
  echo "=== [${name}] characterize --full (both backends) + ARI gate ==="
  local cwgl="${build_dir}/src/cli/cwgl"
  local out="${build_dir}/fulltrace-out"
  mkdir -p "${out}"
  local ok=1
  local method
  for method in minibatch landmark; do
    if ! "${cwgl}" characterize --full="${method}" --jobs 20000 --json \
        > "${out}/full_${method}.json"; then
      echo "${name}: characterize --full=${method} failed" >&2
      ok=0
      continue
    fi
    if ! python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
method = sys.argv[2]
assert doc["schema"] == "cwgl-full-v1", doc.get("schema")
assert doc["method"] == method, (doc["method"], method)
agreement = doc["agreement"]
jobs, ari = agreement["jobs"], agreement["ari"]
assert jobs > 0, "agreement validation did not run"
if ari < 0.8:
    raise SystemExit(f"{method}: ARI {ari:.3f} < 0.8 vs the exact subsample")
shapes = doc["distinct_shapes"]
total = doc["jobs"]
print(f"  {method}: {total} jobs, {shapes} shapes, ARI {ari:.3f} on {jobs} jobs")
' "${out}/full_${method}.json" "${method}"; then
      echo "${name}: ${method} agreement gate failed" >&2
      ok=0
    fi
  done
  if ((ok)); then
    echo "=== [${name}] fit --full -> predict round-trip ==="
    if ! "${cwgl}" fit --full --jobs 20000 --json \
        --out "${out}/full_model.cwgl" > "${out}/fit.json"; then
      echo "${name}: fit --full failed" >&2
      ok=0
    elif ! python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["full"] is True
assert doc["self_check"]["ok"] is True, doc["self_check"]
sections = doc["snapshot"]["sections"]
for key in ("conf", "dict", "prof", "reps", "shpc", "total"):
    assert sections[key] > 0, (key, sections)
assert doc["snapshot"]["bytes"] == sections["total"]
' "${out}/fit.json"; then
      echo "${name}: fit --full JSON missing sections/self-check" >&2
      ok=0
    elif ! "${cwgl}" predict --model "${out}/full_model.cwgl" \
        tests/data/probe_jobs.csv --json > "${out}/predict.json"; then
      echo "${name}: predict against the full-trace model failed" >&2
      ok=0
    fi
  fi
  if ((ok)); then
    echo "=== [${name}] fit --full --trace: streamed snapshots + peak RSS ==="
    local jobs
    for jobs in 20000 80000; do
      if ! "${cwgl}" generate --out "${out}/trace_${jobs}" --jobs "${jobs}" \
          --seed 42 > /dev/null; then
        echo "${name}: generate --jobs ${jobs} failed" >&2
        ok=0
      elif ! "${cwgl}" fit --full --jobs "${jobs}" --seed 42 \
          --out "${out}/generated_${jobs}.cwgl" > /dev/null; then
        echo "${name}: fit --full --jobs ${jobs} failed" >&2
        ok=0
      fi
    done
    # Linux starts a child's ru_maxrss at its spawner's peak RSS, which for
    # a Python interpreter (8-14 MB) is above a streamed 20k-job fit's own
    # peak, so the fits run under scripts/peak_rss.c (about 1 MB).
    if ((ok)) && ! cc -O2 -o "${out}/peak_rss" scripts/peak_rss.c; then
      echo "${name}: cannot build scripts/peak_rss.c" >&2
      ok=0
    fi
    if ((ok)) && ! python3 -c '
import subprocess, sys
cwgl, out = sys.argv[1], sys.argv[2]
peak_mb = {}
for jobs in (20000, 80000):
    run = subprocess.run(
        [f"{out}/peak_rss", cwgl, "fit", "--full", "--trace",
         f"{out}/trace_{jobs}", "--out", f"{out}/streamed_{jobs}.cwgl"],
        stdout=subprocess.PIPE, text=True, check=True)
    kib, code = map(int, run.stdout.split())
    if code != 0:
        raise SystemExit(f"fit --full --trace ({jobs} jobs) exited {code}")
    peak_mb[jobs] = kib / 1024.0
    print(f"  {jobs} jobs: peak RSS {peak_mb[jobs]:.1f} MB")
ratio = peak_mb[80000] / peak_mb[20000]
if ratio > 2.0:
    raise SystemExit(f"peak RSS grows {ratio:.2f}x for 4x the jobs (> 2.0x)")
print(f"  peak RSS ratio 80k/20k: {ratio:.2f}x")
' "${cwgl}" "${out}"; then
      echo "${name}: fit --full --trace peak-RSS gate failed" >&2
      ok=0
    fi
    if ((ok)); then
      for jobs in 20000 80000; do
        if ! cmp "${out}/streamed_${jobs}.cwgl" "${out}/generated_${jobs}.cwgl"; then
          echo "${name}: streamed and generated ${jobs}-job snapshots differ" >&2
          ok=0
        fi
      done
    fi
    if ((ok)); then
      echo "=== [${name}] streamed vs generated reports; pooled vs serial intern ==="
      for jobs in 20000 80000; do
        if ! "${cwgl}" characterize --full --trace "${out}/trace_${jobs}" \
              --json > "${out}/streamed_${jobs}.json" ||
            ! "${cwgl}" characterize --full --jobs "${jobs}" --seed 42 \
              --json > "${out}/generated_${jobs}.json" ||
            ! "${cwgl}" ingest --trace "${out}/trace_${jobs}" --intern \
              --json > "${out}/ingest_pooled_${jobs}.json" ||
            ! "${cwgl}" ingest --trace "${out}/trace_${jobs}" --intern \
              --serial --json > "${out}/ingest_serial_${jobs}.json"; then
          echo "${name}: characterize/ingest of the ${jobs}-job trace failed" >&2
          ok=0
        elif ! python3 -c '
import json, sys
out, jobs = sys.argv[1], sys.argv[2]
def load(name):
    return json.load(open(f"{out}/{name}_{jobs}.json"))
streamed, generated = load("streamed"), load("generated")
for doc in (streamed, generated):
    doc.pop("timings")
if streamed != generated:
    diff = sorted(k for k in generated if streamed.get(k) != generated[k])
    raise SystemExit(f"{jobs} jobs: streamed report differs in {diff}")
pooled, serial = load("ingest_pooled"), load("ingest_serial")
for block in ("intern", "built"):
    if pooled[block] != serial[block]:
        raise SystemExit(f"{jobs} jobs: ingest {block} differs: "
                         f"pooled {pooled[block]} serial {serial[block]}")
shapes = pooled["intern"]["distinct_shapes"]
print(f"  {jobs} jobs: streamed report == generated; "
      f"{shapes} shapes pooled == serial")
' "${out}" "${jobs}"; then
          echo "${name}: streamed/generated or pooled/serial mismatch at ${jobs} jobs" >&2
          ok=0
        fi
      done
    fi
  fi
  if ((ok)); then
    echo "=== [${name}] bench_full_cluster + ARI floors ==="
    if ! CWGL_BENCH_JOBS=20000 CWGL_BENCH_REPS=1 CWGL_BENCH_OUT="${out}" \
        "${build_dir}/bench/bench_full_cluster" "--benchmark_filter=^\$"; then
      echo "${name}: bench_full_cluster failed" >&2
      ok=0
    elif ! python3 scripts/bench_diff.py \
        --min-bar 'agreement_ari_*=0.8' \
        --max-bar 'landmark_degraded=0' \
        "bench/baselines/BENCH_full_cluster.json" \
        "${out}/BENCH_full_cluster.json"; then
      ok=0
    fi
  fi
  ((ok)) || FAILED+=("${name}")
  if [[ "${CWGL_CHECK_KEEP:-0}" != "1" ]]; then
    rm -rf "${build_dir}"
  fi
}

# Telemetry-plane smoke: a live daemon with every observability surface on —
# periodic Prometheus file exporter, JSON structured logging, span tracer —
# answers the ping/health/stats/trace introspection requests; a hot reload
# bumps the generation those endpoints report; the exporter publishes a valid
# text-exposition file (atomic tmp+rename, so a partial file is never seen);
# every structured log line parses as JSON; drain exits 0.
run_telemetry_smoke() {
  local name="telemetry-smoke" build_dir="build-check-telemetry-smoke"
  echo
  echo "=== [${name}] configure ==="
  cmake -B "${build_dir}" -S . \
    -DCWGL_BUILD_BENCHMARKS=OFF \
    -DCWGL_BUILD_EXAMPLES=OFF
  echo "=== [${name}] build ==="
  cmake --build "${build_dir}" -j "${JOBS}" --target cwgl
  echo "=== [${name}] live daemon introspection ==="
  local cwgl="${build_dir}/src/cli/cwgl"
  local out="${build_dir}/telemetry-out"
  mkdir -p "${out}"
  local sock="${out}/daemon.sock"
  local prom="${out}/metrics.prom"
  local log="${out}/daemon.log"
  local ok=1
  if ! "${cwgl}" fit --trace tests/data/example_trace --sample 60 \
      --clusters 4 --out "${out}/model.cwgl"; then
    echo "${name}: fit failed" >&2
    ok=0
  fi
  local daemon_pid=""
  if ((ok)); then
    "${cwgl}" serve --model "${out}/model.cwgl" --socket "${sock}" \
      --telemetry-out "${prom}" --telemetry-interval 1 \
      --log="${log}" --log-json --trace-buffer 4096 &
    daemon_pid=$!
    local i
    for i in $(seq 1 100); do
      [[ -S "${sock}" ]] && break
      sleep 0.1
    done
    if [[ ! -S "${sock}" ]]; then
      echo "${name}: daemon never bound ${sock}" >&2
      ok=0
    fi
  fi
  if ((ok)) && ! "${cwgl}" client --socket "${sock}" --ping \
      | grep -q '^generation 1$'; then
    echo "${name}: ping did not report generation 1" >&2
    ok=0
  fi
  if ((ok)) && ! "${cwgl}" client --socket "${sock}" --health \
      | grep -q '"ready":true'; then
    echo "${name}: health did not report ready" >&2
    ok=0
  fi
  if ((ok)); then
    local i
    for i in $(seq 1 5); do
      if ! "${cwgl}" client --socket "${sock}" --job "smoke_${i}" \
          --tasks M1,M2_1,R3_2 > /dev/null; then
        echo "${name}: classify ${i} failed" >&2
        ok=0
        break
      fi
    done
  fi
  if ((ok)) && ! "${cwgl}" client --socket "${sock}" --stats --prometheus \
      | grep -q '^# TYPE cwgl_serve_daemon_requests_total counter$'; then
    echo "${name}: --stats --prometheus missing the request counter" >&2
    ok=0
  fi
  if ((ok)) && ! "${cwgl}" client --socket "${sock}" --trace \
      | grep -q '"enabled":true'; then
    echo "${name}: trace drain did not report an armed tracer" >&2
    ok=0
  fi
  if ((ok)) && ! "${cwgl}" client --socket "${sock}" \
      --reload="${out}/model.cwgl" > /dev/null; then
    echo "${name}: reload failed" >&2
    ok=0
  fi
  if ((ok)) && ! "${cwgl}" client --socket "${sock}" --ping \
      | grep -q '^generation 2$'; then
    echo "${name}: ping did not report generation 2 after reload" >&2
    ok=0
  fi
  if ((ok)); then
    # The periodic exporter (1s interval) must publish the snapshot file.
    local i
    for i in $(seq 1 100); do
      [[ -f "${prom}" ]] && break
      sleep 0.1
    done
    if ! grep -q 'cwgl_serve_daemon_requests_total' "${prom}" 2>/dev/null; then
      echo "${name}: exporter file missing or lacks the request counter" >&2
      ok=0
    fi
  fi
  if ((ok)) && ! "${cwgl}" client --socket "${sock}" --drain; then
    echo "${name}: drain request failed" >&2
    ok=0
  fi
  if [[ -n "${daemon_pid}" ]]; then
    local deadline=$((SECONDS + 30))
    while kill -0 "${daemon_pid}" 2>/dev/null && ((SECONDS < deadline)); do
      sleep 0.2
    done
    if kill -0 "${daemon_pid}" 2>/dev/null; then
      echo "${name}: daemon did not exit after drain" >&2
      kill -9 "${daemon_pid}" 2>/dev/null || true
      wait "${daemon_pid}" 2>/dev/null || true
      ok=0
    else
      local rc=0
      wait "${daemon_pid}" || rc=$?
      if ((rc != 0)); then
        echo "${name}: daemon exited ${rc} (want 0 after clean drain)" >&2
        ok=0
      fi
    fi
  fi
  if ((ok)) && ! python3 -c '
import json, sys
with open(sys.argv[1]) as f:
    lines = [line for line in f if line.strip()]
if not lines:
    raise SystemExit("structured log is empty")
for line in lines:
    json.loads(line)
' "${log}"; then
    echo "${name}: structured log lines are not valid JSON" >&2
    ok=0
  fi
  ((ok)) || FAILED+=("${name}")
  if [[ "${CWGL_CHECK_KEEP:-0}" != "1" ]]; then
    rm -rf "${build_dir}"
  fi
}

# End-to-end benchmark contract: the cwgl_bench package builds the library,
# the `cwgl` CLI and its driver from this tree, and its smoke ctests run
# every workload (traced and untraced) for 2 s, calling the CLI exactly as
# a benchmark run does.
run_bench_contract() {
  local name="bench-contract" build_dir="build-check-bench"
  echo
  echo "=== [${name}] configure (cwgl_bench, Release) ==="
  cmake -S cwgl_bench -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release
  echo "=== [${name}] build ==="
  cmake --build "${build_dir}" -j "${JOBS}" --target cwgl_bench
  echo "=== [${name}] smoke ctests ==="
  if ! ctest --test-dir "${build_dir}" --output-on-failure -R '^bench_smoke_'; then
    FAILED+=("${name}")
  fi
  if [[ "${CWGL_CHECK_KEEP:-0}" != "1" ]]; then
    rm -rf "${build_dir}"
  fi
}

run_config plain ""
run_config asan-ubsan "address,undefined"
run_config tsan "thread"
run_config faults "" ON
run_config faults-asan "address,undefined" ON "${FAULT_FILTER}"
run_config faults-tsan "thread" ON "${FAULT_FILTER}"
run_bench_smoke
run_serve_smoke
run_serve_daemon_smoke
run_fulltrace_smoke
run_telemetry_smoke
run_bench_contract

echo
if ((${#FAILED[@]})); then
  echo "check.sh: FAILED configurations: ${FAILED[*]}"
  exit 1
fi
echo "check.sh: all configurations passed (plain, asan-ubsan, tsan, faults, faults-asan, faults-tsan, bench-smoke, serve-smoke, serve-daemon-smoke, fulltrace-smoke, telemetry-smoke, bench-contract)"
