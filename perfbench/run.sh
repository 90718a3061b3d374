#!/usr/bin/env bash
# Build procdb-server and the benchmark from source, then run the benchmark.
#
#   bash perfbench/run.sh --workload dashboard|paper_mix|update_storm|replicated_shards|all \
#       [--seed N] [--seconds S] [--trace 0|1]
#
# Run from the repository root. Build output goes to stderr, so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail
if [ ! -f Cargo.toml ] || [ ! -d crates/server ]; then
    echo "perfbench: run from the root of a procdb checkout (no Cargo.toml or crates/server here)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline -q --manifest-path Cargo.toml -p procdb-server --bin procdb-server >&2
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --server "$CARGO_TARGET_DIR/release/procdb-server" "$@"
