#!/usr/bin/env bash
# Builds the benchmark in release mode and runs it.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
#                    [--quick] [--out DIR]
#
# With --workload: one workload in this process; the last line of standard
# output is the result object. Without: every workload in a fresh child
# process each, then a table of every metric. See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# For the machine fingerprint; a checkout under test need not be a git
# repository, and the binary must not depend on either tool.
MICDNN_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
MICDNN_BENCH_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
export MICDNN_BENCH_RUSTC MICDNN_BENCH_COMMIT

# glibc raises its mmap threshold after the first large free, after which
# big buffers are carved from the heap and the peak resident set depends on
# thread timing (ae_wide: 111 to 140 MB run to run). A fixed threshold maps
# and unmaps every large buffer, and peak_rss_mb repeats to 0.1 %.
export MALLOC_MMAP_THRESHOLD_="${MALLOC_MMAP_THRESHOLD_:-131072}"

cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

# A later --out on the command line overrides this default.
exec "$target/release/micdnn-benchmark" --out "$here/out" "$@"
