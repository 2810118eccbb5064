#!/usr/bin/env bash
# Builds `wp` and the benchmark client from the checkout it is run in,
# then runs one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload miss-compute --seed 1 --seconds 10 --trace 0
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --manifest-path Cargo.toml -p wp-cli >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --wp "$CARGO_TARGET_DIR/release/wp" "$@"
