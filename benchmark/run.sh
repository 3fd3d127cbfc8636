#!/usr/bin/env bash
# The benchmark's one command. Builds the harness (release, offline)
# and runs it; see src/main.rs or README.md for the arguments.
#
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#   benchmark/run.sh [--workload W] [--seed S]     # both passes of each workload
#   benchmark/run.sh --repeat-check                # two sets, compared
#
# cargo puts the build under $CARGO_TARGET_DIR when set, else under
# benchmark/target. Spans and summaries go to benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- \
    --out "$here/out" "$@"
