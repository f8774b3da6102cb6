#!/usr/bin/env bash
# Loom lane: exhaustive interleaving exploration of the lock-free metrics
# primitives (Counter, Gauge, Histogram, RingRecorder).
#
#   scripts/loom.sh                # run every loom_* model
#   scripts/loom.sh histogram      # filter to matching model names
#
# Models live in `#[cfg(all(loom, test))] mod loom_tests` blocks and only
# compile under `--cfg loom`, which swaps std sync types for the
# vendor/loom model-checking shims. A separate target dir keeps the
# loom-cfg'd artifacts from invalidating the normal build cache.

set -euo pipefail
cd "$(dirname "$0")/.."

FILTER="${1:-loom_}"

echo "==> loom models: cargo test (--cfg loom) -p setstream-obs ${FILTER}"
RUSTFLAGS="--cfg loom ${RUSTFLAGS:-}" CARGO_TARGET_DIR=target/loom \
    cargo test -q -p setstream-obs "${FILTER}"

echo "loom: OK"
