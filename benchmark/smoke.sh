#!/usr/bin/env bash
# Smoke test: the benchmark's unit tests, then every workload untraced and
# traced at the --quick scale (10 peers x 50 items x 64-d). Under 20 s
# once built. Exits non-zero if any test or correctness guard fails.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
cargo test --release --offline --quiet --manifest-path "$manifest"
for trace in 0 1; do
    cargo run --release --offline --quiet --manifest-path "$manifest" -- \
        --workload all --seed 1 --seconds 1 --trace "$trace" --quick | grep '^{'
done
echo "smoke: ok"
