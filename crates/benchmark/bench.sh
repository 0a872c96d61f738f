#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark without a registry
# (offline/Cargo.toml) and run one pass. The driver appends
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root.
set -euo pipefail
exec cargo run --quiet --release --offline \
    --manifest-path crates/benchmark/offline/Cargo.toml -- run "$@"
