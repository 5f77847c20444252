#!/usr/bin/env bash
# The one command: every workload --reps times, correctness checked,
# every metric printed by name with unit, median, min and max; then one
# traced stage replay per workload. Extra flags pass through
# (--seed N, --reps N, --quick, --check-repeat, --workload NAME ...).
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
