#!/bin/sh
# Every CI step, defined once. From any clone with its history (the guard
# self-test reads old commits), offline:
#   sh .github/ci.sh list    the steps, in CI order
#   sh .github/ci.sh STEP    one step; .github/workflows/ci.yml runs each so
#   sh .github/ci.sh all     every step in order, stopping at the first failure
# A step is a function `step_NAME` below, and its place here is its place in
# CI; `sync` checks that ci.yml calls exactly these steps, in this order.
set -eu
cd "$(dirname "$0")/.."
self=.github/ci.sh
workflow=.github/workflows/ci.yml
# Keeps the property suites snappy; the ProptestConfig defaults in each suite
# are the local, more thorough setting, and the deep reruns below raise it.
export PROPTEST_CASES="${PROPTEST_CASES:-64}"

steps() { sed -n 's/^step_\([a-z_]*\)() {.*/\1/p' "$self"; }
cli() { cargo run -q --release -p quasii-cli -- "$@"; }

# ci.yml calls exactly the steps defined here, in order; prints the local
# rustc beside the toolchain ci.yml pins.
step_sync() {
    echo "$(rustc --version) (ci.yml pins $(sed -n 's/^ *RUSTUP_TOOLCHAIN: *"\(.*\)"$/\1/p' "$workflow"))"
    defined=$(steps)
    called=$(sed -n 's/^ *- run: sh \.github\/ci\.sh \([a-z_]*\)$/\1/p' "$workflow")
    for s in $defined; do
        echo "$called" | grep -qx "$s" || echo "ci.sh defines $s, which ci.yml never calls"
    done
    for s in $called; do
        echo "$defined" | grep -qx "$s" || echo "ci.yml calls $s, which ci.sh does not define"
    done
    [ "$defined" = "$called" ] || { echo "ci.yml and ci.sh disagree on the steps (see above, or their order)"; return 1; }
}

step_fmt() { cargo fmt --check; }

# Cargo.toml's [workspace.lints] add unreachable_pub and
# undocumented_unsafe_blocks, and document the style lints that stay off.
step_clippy() { cargo clippy --workspace --all-targets -- -D warnings; }

# The tier-1 gate; clippy type-checked every target, and the release smokes
# below build the binaries they need.
step_build() { cargo build --release; }

# Builds the criterion bench EXPERIMENTS.md is regenerated from, so it cannot
# rot though CI never times it.
step_bench_build() { cargo bench --workspace --no-run; }

step_test() { cargo test -q --workspace; }

# The whole suite with SIMD dispatch forced to the scalar oracle: a runner
# without AVX2 must never change a result. (`SimdPolicy::Auto` honours
# `QUASII_SIMD`; policies a test forces still win.)
step_test_scalar() { QUASII_SIMD=scalar cargo test -q --workspace; }

# `benchmark/` is a package of its own that the steps above never compile:
# its unit tests and the `--scale smoke` pass over all five workloads.
step_benchmark() { cargo test --release --offline --manifest-path benchmark/Cargo.toml; }

# One row of .github/guards.tsv per deleted mechanism; none may come back.
step_guards() { sh .github/guards.sh; }

# Every guard fires on the tree it was written against (needs full history).
step_guards_self_test() { sh .github/guards.sh --self-test; }

# The public surface (pub items per crate, metric names, config fields, CLI
# option pairs, environment variables) moves only in a commit that also
# regenerates the file: `sh .github/surface.sh > .github/surface.txt`.
step_census() { sh .github/surface.sh | diff .github/surface.txt -; }

# The paper's evaluation (figs 6-12, ablation, summary) at `tiny`, then the
# paper-shape check at `small`: `repro summary` exits 2, naming the band,
# when a headline ratio leaves the shape the paper reports.
step_repro() {
    cargo run --release -p quasii-bench --bin repro -- all --scale tiny --out ci-results
    cargo run --release -p quasii-bench --bin repro -- summary --scale small --out ci-results
}

# The deep reruns: the test steps ran every suite at the job-wide count;
# these raise it on the load-bearing properties, one suite each.
deep() { PROPTEST_CASES=$2 cargo test -q --test "$1" ${3-}; }
# Batch execution equals sequential execution and brute force.
step_deep_batch() { deep batch 256; }
# Sharded execution equals the canonical sequential engine.
step_deep_shard() { deep shard 256; }
# The keyed crack kernels equal their references.
step_deep_keyed_kernels() { deep keyed_kernels 256; }
# Vector kernels equal the forced-scalar oracle: results, work, snapshot bytes.
step_deep_simd() { deep simd 128; }
# The sealed read path equals the sealing-disabled engine.
step_deep_sealed() { deep sealed 128; }
# A query `can_read` approves is one the writer would not crack.
step_deep_live_read() { deep live_read 256; }
# Reloads answer byte-identically; damaged snapshot bytes are always refused.
step_deep_persist() { deep persist 128; }
# Metrics never change results, the permutation or any counter.
step_deep_obs() { deep obs 128 --release; }
# An interrupted commit leaves the old or the new state, never a torn mix.
step_deep_recovery() { deep recovery 128; }

# A warmed one-shard and a finalized three-shard deployment are persisted and
# revived with `bench --warm-start`. The finalized one is fully sealed, so its
# parts hold each record once, as its arena: more than 64 B a record
# (1 280 000 bytes for 20 000 records) means rows are stored beside the
# arenas again (the format 2 layout wrote 2 590 704 bytes here).
step_snapshot_smoke() {
    rm -f ci-results/smoke*
    cli generate --out ci-results/smoke.qsd --n 20000 --seed 11
    cli snapshot --data ci-results/smoke.qsd --out ci-results/smoke.snap --queries 100
    cli snapshot --data ci-results/smoke.qsd --out ci-results/smoke-sharded.snap --shards 3 --finalize true
    parts=$(cat ci-results/smoke-sharded.snap.g*.part* | wc -c)
    echo "sharded snapshot parts: $parts bytes"
    if [ "$parts" -gt 1280000 ]; then
        echo "the parts of a fully sealed deployment exceed 64 B a record"
        return 1
    fi
    cli bench --warm-start ci-results/smoke.snap --queries 100
    cli bench --warm-start ci-results/smoke-sharded.snap --queries 100 --batch 8
}

# A crash-injected commit fails without disturbing the committed generation
# and prints the `fsx` line counting its faults; transient faults are
# absorbed by the bounded retry; a truncated part is caught by `verify`,
# rebuilt by `recover --data`, and answers as many results as before.
step_chaos_smoke() {
    rm -f ci-results/chaos*
    cli generate --out ci-results/chaos.qsd --n 20000 --seed 11
    cli verify --path ci-results/chaos.qsd
    cli snapshot --data ci-results/chaos.qsd --out ci-results/chaos.snap --shards 3 --queries 100
    cli verify --path ci-results/chaos.snap
    cli bench --warm-start ci-results/chaos.snap --queries 100 --batch 8 > chaos-before.txt
    cat chaos-before.txt
    if cli snapshot --data ci-results/chaos.qsd --out ci-results/chaos.snap --shards 3 --queries 150 --fault crash@6:17 > chaos-crash.txt; then
        echo "crash-injected snapshot unexpectedly succeeded"
        return 1
    fi
    cat chaos-crash.txt
    grep -E '\([1-9][0-9]* injected faults\)' chaos-crash.txt
    cli verify --path ci-results/chaos.snap
    cli snapshot --data ci-results/chaos.qsd --out ci-results/chaos.snap --shards 3 --queries 150 --fault transient@2
    cli verify --path ci-results/chaos.snap
    truncate -s 100 ci-results/chaos.snap.g2.part1
    if cli verify --path ci-results/chaos.snap; then
        echo "verify unexpectedly passed on a truncated part"
        return 1
    fi
    if cli recover --snapshot ci-results/chaos.snap; then
        echo "recover without --data unexpectedly succeeded"
        return 1
    fi
    cli recover --snapshot ci-results/chaos.snap --data ci-results/chaos.qsd
    cli verify --path ci-results/chaos.snap
    cli bench --warm-start ci-results/chaos.snap --queries 100 --batch 8 > chaos-after.txt
    cat chaos-after.txt
    [ "$(grep -o '[0-9]* results' chaos-before.txt)" = "$(grep -o '[0-9]* results' chaos-after.txt)" ] \
        || { echo "the recovered deployment answers other result counts"; return 1; }
}

# A 2-shard `quasii serve` wires the endpoints, the metrics and a clean
# `POST /admin/shutdown`: four `GET /query` inside the universe `info`
# prints each answer a non-empty id list, and one `POST /batch` of three
# lines runs as one group (nonzero batched-query counter). The scrape must
# parse (promcheck is the obs crate's own parser) and carry every family
# the instrumentation promises.
step_service_smoke() {
    cli generate --out ci-results/service.qsd --n 20000 --seed 11
    cli info --data ci-results/service.qsd
    cargo run -q --release -p quasii-cli -- serve \
        --data ci-results/service.qsd --addr 127.0.0.1:7177 \
        --shards 2 > serve.log 2>&1 &
    pid=$!
    trap 'kill "$pid" 2> /dev/null || true' EXIT
    for _ in $(seq 1 100); do
        curl -sf http://127.0.0.1:7177/healthz > /dev/null && break
        kill -0 "$pid" || { cat serve.log; return 1; }
        sleep 0.2
    done
    for lo in 1000 3000 5000 7000; do
        hi=$((lo + 2000))
        curl -sf "http://127.0.0.1:7177/query?lo=$lo,$lo,$lo&hi=$hi,$hi,$hi" \
            | grep -cE '"ids":\[[0-9]'
    done
    printf '1000,1000,1000,4000,4000,4000\n3000,3000,3000,6000,6000,6000\n5000,5000,5000,8000,8000,8000\n' \
        | curl -sf -X POST --data-binary @- http://127.0.0.1:7177/batch > /dev/null
    curl -sf http://127.0.0.1:7177/metrics > ci-results/service-metrics.prom
    cargo run -q --release -p quasii-obs --bin promcheck -- \
        ci-results/service-metrics.prom \
        quasii_server_request_seconds quasii_server_stage_seconds \
        quasii_server_batch_size \
        quasii_server_batches_total quasii_server_queries_total \
        quasii_server_batched_queries_total quasii_server_rejected_total \
        quasii_server_bad_requests_total quasii_server_queue_depth \
        quasii_batches_total quasii_queries_total quasii_cracks_total \
        quasii_records_cracked_total quasii_batch_phase_seconds \
        quasii_shard_fanout fsx_commits_total
    grep -E '^quasii_server_batched_queries_total [1-9]' ci-results/service-metrics.prom
    curl -sf -X POST http://127.0.0.1:7177/admin/shutdown > /dev/null
    wait "$pid"
    cat serve.log
}

step_cli_sanity() { cargo run --release -p quasii-cli -- --help; }

case ${1-} in
list) steps ;;
all)
    t0=$(date +%s)
    for s in $(steps); do
        echo "== $s"
        t=$(date +%s)
        ("step_$s")
        echo "== $s passed ($(($(date +%s) - t)) s)"
    done
    echo "all $(steps | wc -l) steps passed in $(($(date +%s) - t0)) s"
    ;;
*)
    steps | grep -qx "${1-}" || { echo "usage: sh $self list|all|STEP"; exit 2; }
    "step_$1"
    ;;
esac
