#!/usr/bin/env bash
# Tier-1 verification: everything a change must keep green.
#
#   scripts/tier1.sh          # build + tests + clippy + ingest smoke bench
#   SKIP_BENCH=1 scripts/tier1.sh   # skip the bench step (e.g. constrained CI)
#   SOAK_ROUNDS=12 scripts/tier1.sh # deeper distributed fault-injection soak
#
# Mirrors ROADMAP.md's tier-1 gate (`cargo build --release && cargo test -q`)
# and adds the lint wall, the distributed fault-injection suite, plus a quick
# run of the ingestion benchmark so perf regressions that break the harness
# itself are caught before merge.

set -euo pipefail
cd "$(dirname "$0")/.."

# Collection rounds per epoch-soak proptest case (default 5; crank up for
# overnight soaks).
SOAK_ROUNDS="${SOAK_ROUNDS:-5}"
export SOAK_ROUNDS

echo "==> cargo build --workspace --release"
cargo build --workspace --release

# The Criterion benches are `harness = false` targets: `cargo test` never
# builds them and clippy lints them only where `--all-targets` is given,
# so an API change could break them silently. Compile every one.
echo "==> cargo build --release --workspace --benches"
cargo build --release --workspace --benches

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# The SIMD ingest kernels must be bit-identical to the portable scalar
# instantiation in both deactivation modes: compiled out (no `simd`
# feature) and dispatched away at runtime (SETSTREAM_FORCE_SCALAR).
echo "==> forced-scalar: cargo test -p setstream-hash --no-default-features"
cargo test -q -p setstream-hash --no-default-features

echo "==> forced-scalar: cargo test --workspace (SETSTREAM_FORCE_SCALAR=1)"
SETSTREAM_FORCE_SCALAR=1 cargo test --workspace -q

echo "==> setstream-analyze (workspace invariant rules A01-A12)"
cargo run --release -q -p setstream-analyze

# Waiver ratchet: the count of `// analyze: allow(...)` escape hatches may
# only go down. Fix the finding instead of waiving it; when you retire
# waivers, lower the budget to match.
WAIVER_BUDGET=34
waivers=$(cargo run --release -q -p setstream-analyze -- --waivers)
echo "    analyze waivers: ${waivers} (budget ${WAIVER_BUDGET})"
if [[ "${waivers}" -gt "${WAIVER_BUDGET}" ]]; then
    echo "tier-1: FAIL — ${waivers} analyze waivers exceed the ratchet budget ${WAIVER_BUDGET}" >&2
    exit 1
fi

# Line ratchet: non-test code lines per crate (`setstream-analyze --loc`;
# blank, comment-only and literal-only lines do not count) may only go
# down. When a change removes lines, lower that crate's budget to match; a
# change that must grow a crate raises its budget on purpose. Every crate
# needs an entry.
LOC_BUDGET="analyze=2298 apps=1173 baselines=331 bench=1364 core=1934 distributed=3596 engine=1834 expr=555 hash=1115 obs=1627 stream=760"
loc=$(cargo run --release -q -p setstream-analyze -- --loc)
echo "$loc" | awk -v budget="$LOC_BUDGET" '
    BEGIN { n = split(budget, pairs, " "); for (i = 1; i <= n; i++) { split(pairs[i], kv, "="); max[kv[1]] = kv[2] } }
    !($1 in max) { printf "tier-1: FAIL — crate %s has no LOC_BUDGET entry\n", $1; bad = 1; next }
    $2 > max[$1] { printf "tier-1: FAIL — crate %s has %d code lines, over its budget %d\n", $1, $2, max[$1]; bad = 1; next }
    { printf "    %s: %d code lines (budget %d)\n", $1, $2, max[$1] }
    END { exit bad }' || exit 1

echo "==> loom concurrency models (obs metrics/trace, engine shard hand-off)"
scripts/loom.sh

echo "==> distributed fault-injection suite (SOAK_ROUNDS=${SOAK_ROUNDS})"
cargo test -p setstream-distributed -q

# setbench is a package of its own (its own [workspace]), so the workspace
# test run above never reaches it. Its suite smoke-runs all four workloads
# with their correctness checks: subscribe's bit-identical cache check,
# collect's cell identity against a central engine, and the sabotage run
# that must fail them.
echo "==> setbench suite (smoke runs of every workload and their checks)"
cargo test --release --offline -q --manifest-path setbench/Cargo.toml

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo '==> cargo doc --no-deps (warnings are errors)'
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> quality-plane serve smoke (/metrics, /health, /trace)"
scripts/serve_smoke.sh

echo "==> networked collection smoke (serve --listen + remote site over TCP)"
scripts/net_smoke.sh

if [[ "${SKIP_BENCH:-0}" != "1" ]]; then
    echo "==> ingest smoke bench (quick)"
    cargo run --release -q -p setstream-bench --bin ingest_bench -- \
        --quick --out target/BENCH_ingest.quick.json \
        --obs-out target/BENCH_obs.quick.json
    echo "    wrote target/BENCH_ingest.quick.json, target/BENCH_obs.quick.json"

    # Observability must stay (near-)free: the instrumented engine ingest
    # path may cost at most 5% over the raw update_batch kernel. The quick
    # bench is noisy, so allow a generous-but-real ceiling of 1.05 + noise
    # margin (1.15 total) before failing the gate; the full bench pins the
    # tight number.
    overhead=$(sed -n 's/.*"metrics_overhead": \([0-9.]*\).*/\1/p' \
        target/BENCH_ingest.quick.json)
    echo "    metrics overhead (engine vs raw kernel): ${overhead}x"
    awk -v o="$overhead" 'BEGIN { exit !(o != "" && o <= 1.15) }' || {
        echo "tier-1: FAIL — metrics overhead ${overhead}x exceeds budget" >&2
        exit 1
    }

    # Same contract for the quality monitor: 1% shadow sampling may slow
    # engine ingest by at most 5% (budget 1.05; 1.15 with quick-bench
    # noise margin). BENCH_obs.json records the measured ratio.
    q_overhead=$(sed -n 's/.*"quality_overhead": \([0-9.]*\).*/\1/p' \
        target/BENCH_obs.quick.json)
    echo "    quality-monitor overhead (1% shadow sampling): ${q_overhead}x"
    awk -v o="$q_overhead" 'BEGIN { exit !(o != "" && o <= 1.15) }' || {
        echo "tier-1: FAIL — quality-monitor overhead ${q_overhead}x exceeds budget" >&2
        exit 1
    }

    # And for distributed tracing: recording spans + the trace-context
    # frame extension may slow a full site-cut → coordinator-commit
    # collection cycle by at most 5% over the noop-trace path (lineage is
    # always-on in both). Same 1.05 contract, 1.15 quick-noise ceiling.
    t_overhead=$(sed -n 's/.*"tracing_overhead": \([0-9.]*\).*/\1/p' \
        target/BENCH_obs.quick.json)
    echo "    tracing+lineage overhead (traced vs noop collection): ${t_overhead}x"
    awk -v o="$t_overhead" 'BEGIN { exit !(o != "" && o <= 1.15) }' || {
        echo "tier-1: FAIL — tracing overhead ${t_overhead}x exceeds budget" >&2
        exit 1
    }

    # Perf gates keyed off the recorded host topology. The SIMD batch
    # path must beat per-update scalar ingest by ≥2x even in the noisy
    # quick bench (the full bench pins ≥4x insert-only / ≥2x mixed);
    # thread scaling only binds where the host has the cores to scale.
    cores=$(sed -n 's/.*"cores": \([0-9]*\).*/\1/p' target/BENCH_ingest.quick.json)
    simd=$(sed -n 's/.*"simd": "\([a-z0-9]*\)".*/\1/p' target/BENCH_ingest.quick.json)
    speedup=$(sed -n 's/.*"speedup_batch_r512": \([0-9.]*\).*/\1/p' \
        target/BENCH_ingest.quick.json)
    echo "    host: ${cores} cores, ${simd} kernels; batch speedup r=512: ${speedup}x"
    awk -v s="$speedup" 'BEGIN { exit !(s != "" && s >= 2.0) }' || {
        echo "tier-1: FAIL — batch speedup ${speedup}x below quick-bench floor 2.0x" >&2
        exit 1
    }
    scaling=$(sed -n 's/.*"parallel_scaling_4t": \([0-9.]*\).*/\1/p' \
        target/BENCH_ingest.quick.json)
    if [[ -n "$cores" && "$cores" -ge 4 ]]; then
        echo "    staged-pipeline scaling at 4 threads: ${scaling}x"
        awk -v s="$scaling" 'BEGIN { exit !(s != "" && s >= 2.0) }' || {
            echo "tier-1: FAIL — 4-thread scaling ${scaling}x below floor 2.0x (cores=${cores})" >&2
            exit 1
        }
    else
        echo "    staged-pipeline scaling gate inert (cores=${cores} < 4)"
    fi

    echo "==> standing-query smoke bench (quick)"
    cargo run --release -q -p setstream-bench --bin subs_bench -- \
        --quick --out target/BENCH_subs.quick.json
    echo "    wrote target/BENCH_subs.quick.json"

    # The incremental path (one cached estimate per expression class,
    # re-estimated only when a stream it reads changed) must beat
    # from-scratch re-evaluation of a 90%-shared subscription family by
    # ≥5x at 100k elements (the full bench records ~14x; 5 is the
    # contract floor).
    subs_speedup=$(sed -n 's/.*"speedup_100k": \([0-9.]*\).*/\1/p' \
        target/BENCH_subs.quick.json)
    echo "    incremental vs full at 100k: ${subs_speedup}x"
    awk -v s="$subs_speedup" 'BEGIN { exit !(s != "" && s >= 5.0) }' || {
        echo "tier-1: FAIL — subscription speedup ${subs_speedup}x below floor 5.0x" >&2
        exit 1
    }
fi

echo "tier-1: OK"
