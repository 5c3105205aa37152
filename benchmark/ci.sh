#!/usr/bin/env bash
# Build, unit tests, and a smoke run of all four workloads (untraced and
# traced), plus a check that a spoiled oracle value is reported as a failure.
# One line wires this into CI: `bash benchmark/ci.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
benchmark/run.sh all --smoke >/dev/null
benchmark/run.sh all --smoke --trace >/dev/null
if benchmark/run.sh trace_dense --smoke --corrupt-oracle >/dev/null 2>&1; then
    echo "ci: a corrupted oracle value went unnoticed" >&2
    exit 1
fi
echo "limabench ci: ok"
