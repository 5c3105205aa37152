#!/usr/bin/env bash
# limabench driver. Run from anywhere; it works from the repo root so that
# .cargo/config.toml (target-cpu=native) applies to the build.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh <workload> [--seed N] [--seconds S] [--trace] [--smoke]
#   benchmark/run.sh all        [--seed N] [--seconds S] [--trace] [--smoke]
#   benchmark/run.sh repeat <workload|all> --runs N [--seed S] [--seconds S] [--vary-seed]
#
# Each workload runs in a fresh process. The last line of standard output is
# the JSON result; the exit code is 0 only when every output was correct.
set -euo pipefail
cd "$(dirname "$0")/.."

WORKLOADS=(hpo_reuse trace_dense lineage_replay serve_zipf)
TARGET="${CARGO_TARGET_DIR:-benchmark/target}"

build() {
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
    mkdir -p "$TARGET/limabench-tmp"
    # Spill files go to the system temp dir: keep that inside the checkout too.
    TMPDIR="$(cd "$TARGET/limabench-tmp" && pwd)"
    export TMPDIR
    LIMABENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
    export LIMABENCH_COMMIT
}

# Rewrites the shorthand `--trace` (no value) to `--trace 1`.
normalise() {
    ARGS=()
    while [ $# -gt 0 ]; do
        if [ "$1" = "--trace" ] && [[ "${2:-}" != [01] ]]; then
            ARGS+=(--trace 1)
        else
            ARGS+=("$1")
        fi
        shift
    done
}

case "${1:-}" in
    repeat)
        shift
        build
        exec python3 benchmark/repeat.py "$TARGET/release/limabench" "$@"
        ;;
    all)
        shift
        build
        normalise "$@"
        status=0
        for w in "${WORKLOADS[@]}"; do
            "$TARGET/release/limabench" --workload "$w" ${ARGS[@]+"${ARGS[@]}"} || status=$?
        done
        exit "$status"
        ;;
    --*)
        build
        exec "$TARGET/release/limabench" "$@"
        ;;
    "")
        sed -n '2,12p' "$0" >&2
        exit 2
        ;;
    *)
        w="$1"
        shift
        build
        normalise "$@"
        exec "$TARGET/release/limabench" --workload "$w" ${ARGS[@]+"${ARGS[@]}"}
        ;;
esac
