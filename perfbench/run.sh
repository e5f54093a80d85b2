#!/usr/bin/env bash
# Build the benchmark (a cargo package of its own, built against the
# repository's crates) and run it with the given arguments, e.g.
#   bash perfbench/run.sh --workload static-explore --seed 1 --seconds 45 --trace 0
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build at the
# repository root); build messages go to standard error.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/kgoa-perfbench" "$@"
