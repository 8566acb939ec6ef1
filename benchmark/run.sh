#!/bin/sh
# Every workload, end-to-end pass then traced pass; prints every metric and
# writes benchmark/out/results.json. Arguments go to `run` (--seed, --smoke…).
cd "$(dirname "$0")/.." && exec cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- run "$@"
