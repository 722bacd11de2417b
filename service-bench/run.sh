#!/usr/bin/env bash
# Builds troyhls-cli and service-bench from source (release, offline) and
# runs the benchmark with the given arguments. See README.md beside this
# script for the workloads, metrics and flags.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p troy-cli >&2
cargo build --release --offline --quiet --manifest-path service-bench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/service-bench" "$@"
