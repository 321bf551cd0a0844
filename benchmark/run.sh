#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it from the root of the
# checkout. See README.md beside this file for the arguments.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/pnoc-benchmark" "$@"
