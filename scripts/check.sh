#!/usr/bin/env bash
#
# CI gate: strict warnings everywhere, plus the concurrency-heavy
# subsystems' tests under ThreadSanitizer, plus a metrics sidecar smoke
# run validated against the checked-in schema, plus the SIMD
# determinism gate (campaign JSON byte-identical across
# -DDIDT_SIMD=ON/OFF and --jobs 1/4), plus the didt_serve service
# smoke (scripts/serve_smoke.sh: a daemon replay reproduces a batch
# campaign byte for byte and drains cleanly on SIGTERM).
#
#   scripts/check.sh            # full strict build + all tests + TSan + smoke
#   scripts/check.sh --tsan-only  # just the TSan runner/obs-test pass
#
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc)}
TSAN_ONLY=0
[[ "${1:-}" == "--tsan-only" ]] && TSAN_ONLY=1

if [[ $TSAN_ONLY -eq 0 ]]; then
    echo "=== strict build (-Wall -Wextra -Werror) + full test suite ==="
    cmake -B build-ci -S . -DDIDT_WERROR=ON
    cmake --build build-ci -j "$JOBS"
    ctest --test-dir build-ci --output-on-failure -j "$JOBS"

    echo "=== metrics sidecar smoke run + schema validation ==="
    SMOKE_DIR=$(mktemp -d)
    trap 'rm -rf "$SMOKE_DIR"' EXIT
    build-ci/tools/didt_campaign --jobs 2 --benchmarks gzip,mcf \
        --impedances 1.0,1.2 --instructions 30000 --window 128 \
        --levels 6 --quiet \
        --json "$SMOKE_DIR/campaign.json" \
        --metrics-out "$SMOKE_DIR/metrics.json" \
        --trace-out "$SMOKE_DIR/trace.json"
    build-ci/tools/didt_metrics_check \
        --schema schemas/didt-metrics-v1.json \
        --input "$SMOKE_DIR/metrics.json"
    # Every cell fails before its trace lookup, in a fresh process: the
    # sidecar must still list every required metric, so they register
    # when the repository and the executor are built, not on first use.
    build-ci/tools/didt_campaign --benchmarks gzip --impedances 1.0 \
        --instructions 30000 --window 128 --levels 6 --quiet \
        --failpoints campaign.cell=always \
        --json "$SMOKE_DIR/all_failed.json" \
        --metrics-out "$SMOKE_DIR/all_failed_metrics.json"
    build-ci/tools/didt_metrics_check \
        --schema schemas/didt-metrics-v1.json \
        --input "$SMOKE_DIR/all_failed_metrics.json"

    echo "=== scalar-fallback build (-DDIDT_SIMD=OFF) + simd label ==="
    cmake -B build-scalar -S . -DDIDT_WERROR=ON -DDIDT_SIMD=OFF
    cmake --build build-scalar -j "$JOBS" --target simd_test didt_campaign
    ctest --test-dir build-scalar -L simd --output-on-failure -j "$JOBS"

    echo "=== campaign JSON byte-identity: SIMD on/off x jobs 1/4 ==="
    CAMPAIGN_ARGS=(--benchmarks gzip,mcf --impedances 1.0,1.2
                   --instructions 30000 --window 128 --levels 6 --quiet)
    build-ci/tools/didt_campaign --jobs 1 "${CAMPAIGN_ARGS[@]}" \
        --json "$SMOKE_DIR/simd_j1.json"
    build-ci/tools/didt_campaign --jobs 4 "${CAMPAIGN_ARGS[@]}" \
        --json "$SMOKE_DIR/simd_j4.json"
    build-scalar/tools/didt_campaign --jobs 1 "${CAMPAIGN_ARGS[@]}" \
        --json "$SMOKE_DIR/scalar_j1.json"
    build-scalar/tools/didt_campaign --jobs 4 "${CAMPAIGN_ARGS[@]}" \
        --json "$SMOKE_DIR/scalar_j4.json"
    SUMS=$(md5sum "$SMOKE_DIR"/simd_j1.json "$SMOKE_DIR"/simd_j4.json \
                  "$SMOKE_DIR"/scalar_j1.json "$SMOKE_DIR"/scalar_j4.json |
           awk '{print $1}' | sort -u | wc -l)
    if [[ "$SUMS" -ne 1 ]]; then
        echo "FAIL: campaign JSON differs across SIMD on/off or jobs 1/4" >&2
        md5sum "$SMOKE_DIR"/simd_j1.json "$SMOKE_DIR"/simd_j4.json \
               "$SMOKE_DIR"/scalar_j1.json "$SMOKE_DIR"/scalar_j4.json >&2
        exit 1
    fi
    echo "campaign JSON identical across SIMD on/off and jobs 1/4"

    echo "=== sampled-campaign byte-identity: SIMD on/off x jobs 1/4 ==="
    # Sampling must be deterministic too: the same sampled sweep gives
    # the same bytes regardless of worker count or kernel dispatch, and
    # its spec JSON records the sampling dimensions.
    SAMPLE_ARGS=("${CAMPAIGN_ARGS[@]}" --sample-detail 4096
                 --sample-skip 28672 --sample-warmup 512)
    build-ci/tools/didt_campaign --jobs 1 "${SAMPLE_ARGS[@]}" \
        --json "$SMOKE_DIR/sampled_j1.json"
    build-ci/tools/didt_campaign --jobs 4 "${SAMPLE_ARGS[@]}" \
        --json "$SMOKE_DIR/sampled_j4.json"
    build-scalar/tools/didt_campaign --jobs 4 "${SAMPLE_ARGS[@]}" \
        --json "$SMOKE_DIR/sampled_scalar.json"
    cmp "$SMOKE_DIR/sampled_j1.json" "$SMOKE_DIR/sampled_j4.json"
    cmp "$SMOKE_DIR/sampled_j1.json" "$SMOKE_DIR/sampled_scalar.json"
    grep -q '"sample_skip": 28672' "$SMOKE_DIR/sampled_j1.json"
    # And sampling OFF must leave the campaign JSON untouched: the
    # sampled run's existence must not perturb the unsampled bytes.
    if grep -q 'sample_' "$SMOKE_DIR/simd_j1.json"; then
        echo "FAIL: sampling-off campaign JSON mentions sampling" >&2
        exit 1
    fi
    echo "sampled campaign JSON identical across SIMD on/off and jobs 1/4"

    echo "=== fault-injection smoke: failed cells recorded, byte-identical ==="
    # A campaign with an injected cell fault and a dead disk cache must
    # still exit 0, mark exactly the faulted cell in the JSON, and stay
    # byte-identical across worker counts.
    FAIL_SPEC='campaign.cell=key:mcf@1.2;repo.disk_write=always'
    build-ci/tools/didt_campaign --jobs 1 "${CAMPAIGN_ARGS[@]}" \
        --failpoints "$FAIL_SPEC" --json "$SMOKE_DIR/fault_j1.json"
    build-ci/tools/didt_campaign --jobs 4 "${CAMPAIGN_ARGS[@]}" \
        --failpoints "$FAIL_SPEC" --json "$SMOKE_DIR/fault_j4.json"
    cmp "$SMOKE_DIR/fault_j1.json" "$SMOKE_DIR/fault_j4.json"
    grep -q '"failed_cells": 1' "$SMOKE_DIR/fault_j1.json"
    grep -q 'injected fault (campaign.cell): mcf@1.2' \
        "$SMOKE_DIR/fault_j1.json"
    echo "faulted campaign JSON identical across jobs 1/4, 1 failed cell"

    echo "=== Monte Carlo campaign byte-identity: jobs 1/4, off = seed bytes ==="
    # The variation-aware draw axis must be as deterministic as the
    # nominal path: an MC sweep gives the same bytes at any worker
    # count, and MC off must not leak a single mc_ field into the JSON.
    MC_ARGS=("${CAMPAIGN_ARGS[@]}" --mc-draws 16 --mc-seed 7
             --mc-sigma 0.08)
    build-ci/tools/didt_campaign --jobs 1 "${MC_ARGS[@]}" \
        --json "$SMOKE_DIR/mc_j1.json"
    build-ci/tools/didt_campaign --jobs 4 "${MC_ARGS[@]}" \
        --json "$SMOKE_DIR/mc_j4.json"
    cmp "$SMOKE_DIR/mc_j1.json" "$SMOKE_DIR/mc_j4.json"
    grep -q '"yield_curve"' "$SMOKE_DIR/mc_j1.json"
    if grep -q 'mc_\|monte_carlo' "$SMOKE_DIR/simd_j1.json"; then
        echo "FAIL: MC-off campaign JSON mentions Monte Carlo" >&2
        exit 1
    fi
    echo "MC campaign JSON identical across jobs 1/4; MC-off bytes clean"
    # Draw 0 computes its trace's estimate for every scale unless it
    # fails first; then the next draw that gets the trace does, and
    # only the faulted cell may change.
    MC_FAULT='campaign.cell=key:gzip@1@d0'
    build-ci/tools/didt_campaign --jobs 1 "${MC_ARGS[@]}" \
        --failpoints "$MC_FAULT" --json "$SMOKE_DIR/mc_fault_j1.json"
    build-ci/tools/didt_campaign --jobs 4 "${MC_ARGS[@]}" \
        --failpoints "$MC_FAULT" --json "$SMOKE_DIR/mc_fault_j4.json"
    cmp "$SMOKE_DIR/mc_fault_j1.json" "$SMOKE_DIR/mc_fault_j4.json"
    grep -q '"failed_cells": 1' "$SMOKE_DIR/mc_fault_j1.json"
    grep -q 'injected fault (campaign.cell): gzip@1@d0' \
        "$SMOKE_DIR/mc_fault_j1.json"
    echo "MC campaign with a faulted estimating draw identical across jobs 1/4"

    echo "=== service byte-identity smoke (didt_serve / didt_client) ==="
    BUILD_DIR=build-ci scripts/serve_smoke.sh
fi

echo "=== ThreadSanitizer pass over runner + obs + refactor + simd + verify + serve + simfast + mc tests ==="
cmake -B build-tsan -S . -DDIDT_WERROR=ON -DDIDT_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-tsan -j "$JOBS" --target runner_test determinism_test \
      obs_test refactor_test simd_test verify_test serve_test \
      fuzz_replay_test simfast_test mc_test
ctest --test-dir build-tsan \
      -L 'runner|obs|refactor|simd|verify|serve|cmp|simfast|mc' \
      --output-on-failure -j "$JOBS"

echo "=== all checks passed ==="
