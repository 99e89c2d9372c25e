#!/usr/bin/env bash
# Runs every workload once with tracing off, then the traced run.
# Usage: saavbench/all.sh [seed] [seconds]
set -euo pipefail
seed=${1:-2017}
seconds=${2:-30}
cd "$(dirname "$0")/.."
bench() {
    cargo run --release --quiet --offline --manifest-path saavbench/Cargo.toml -- "$@"
}
for workload in sweep-cold overload city; do
    bench --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0
done
bench --workload city --seed "$seed" --seconds "$seconds" --trace 1
