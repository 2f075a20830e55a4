#!/usr/bin/env bash
# The one command of BENCHMARK.json: builds and runs one benchmark binary.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# --trace 0 runs `vmbench` (end-to-end metrics; the regression gate) and
# --trace 1 runs `vmbench-trace` (per-layer metrics). Only the binary asked
# for is built, so a change to the stack that breaks the wider API surface
# of the traced binary cannot break the gate. Other arguments (`compare`,
# `agree`, `sweep`) go to `vmbench` unchanged. Run from the repository root.
set -euo pipefail

bin=vmbench
prev=
for arg in "$@"; do
    if [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; then
        bin=vmbench-trace
    fi
    prev=$arg
done

exec cargo run --release --offline --quiet \
    --manifest-path "$(dirname "$0")/Cargo.toml" --bin "$bin" -- "$@"
