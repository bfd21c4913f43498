#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark, then run it
# pinned to one CPU of those this process may use.
#
# Why pinned: this host sustains about one core. Two busy threads run at
# full speed for some tens of seconds and then at roughly half speed each,
# so anything the library does on two threads reads up to 1.8x slower or
# faster depending on what ran before it. On one CPU the same code reads
# the same from run to run (the header records cores = 1).
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/hyperm-benchmark"
if command -v taskset >/dev/null; then
    cpu=$(taskset -cp $$ | sed -e 's/.*: *//' -e 's/[-,].*//')
    exec taskset -c "$cpu" "$bin" "$@"
fi
echo "run.sh: taskset not found, running unpinned" >&2
exec "$bin" "$@"
