#!/usr/bin/env bash
# Builds the benchmark harness and the `faultlib` binary from source,
# then runs one workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload fsim_few --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the
# harness keeps its journal directories, traces and recorded counts in
# $CARGO_TARGET_DIR/e2ebench.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin faultlib >&2
exec "$CARGO_TARGET_DIR/release/e2ebench" \
    --faultlib "$CARGO_TARGET_DIR/release/faultlib" \
    --state-dir "$CARGO_TARGET_DIR/e2ebench" \
    "$@"
