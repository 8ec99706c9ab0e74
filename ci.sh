#!/usr/bin/env bash
# CI gate for the TxCache reproduction workspace, fully offline (all
# dependencies are vendored path crates). Every step is timed and a summary
# names the step that failed. What each gate covers is described in
# README.md: "Quickstart" (the gates, the hosted pipeline, refreshing the
# bench baselines), "Testing & chaos", "Query planning & fast paths",
# "Observability" and "Durability & crash recovery".
#
# Usage: ./ci.sh [--no-clippy] [--profile debug|release] [--bench-smoke]
#                [--net-smoke] [--chaos-smoke] [--obs-smoke]
#
#   (always)           fmt --check, clippy -D warnings, build of every
#                      target, the workspace tests, an examples compile
#                      check, and the tests of the e2e_rubis benchmark
#                      package (outside the workspace)
#   --profile release  (default) build and test with --release
#   --profile debug    build and test the dev profile
#   --chaos-smoke      bounded chaos sweep: extra seeds on both backends,
#                      replicated failover, crash-restart recovery
#                      (CHAOS_SEED=<n> pins it to one seed)
#   --net-smoke        real txcached on loopback: ping, remote consistency
#                      test, fd-exhaustion probe
#   --obs-smoke        live-metrics scrape of a real txcached
#   --bench-smoke      throughput-regression gates against the baselines in
#                      crates/bench/BENCH_*.baseline.json (override with
#                      BENCH_BASELINE, CACHE_BENCH_BASELINE,
#                      HIGH_CONN_BENCH_BASELINE, NET_REPL_BENCH_BASELINE,
#                      DURABILITY_BENCH_BASELINE, QUERY_PATHS_BENCH_BASELINE)

set -uo pipefail
cd "$(dirname "$0")"

NO_CLIPPY=0
BENCH_SMOKE=0
NET_SMOKE=0
CHAOS_SMOKE=0
OBS_SMOKE=0
PROFILE=release
while [ $# -gt 0 ]; do
    case "$1" in
        --no-clippy) NO_CLIPPY=1 ;;
        --bench-smoke) BENCH_SMOKE=1 ;;
        --net-smoke) NET_SMOKE=1 ;;
        --chaos-smoke) CHAOS_SMOKE=1 ;;
        --obs-smoke) OBS_SMOKE=1 ;;
        --profile)
            shift
            PROFILE="${1:-}"
            case "$PROFILE" in
                debug|release) ;;
                *) echo "unknown profile: '$PROFILE' (want debug or release)" >&2; exit 2 ;;
            esac
            ;;
        *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
    shift
done

SUMMARY=()

print_summary() {
    echo
    echo "== CI summary (profile: $PROFILE) =="
    local line
    for line in "${SUMMARY[@]}"; do
        echo "  $line"
    done
}

run_step() {
    local name="$1"
    shift
    local t0=$SECONDS
    echo "==> $name"
    if "$@"; then
        SUMMARY+=("ok   ${name} ($((SECONDS - t0))s)")
    else
        local rc=$?
        SUMMARY+=("FAIL ${name} ($((SECONDS - t0))s)")
        print_summary
        echo "CI gate FAILED at step: ${name} (exit ${rc}) after ${SECONDS}s."
        exit "$rc"
    fi
}

run_step "cargo fmt --check" cargo fmt --all --check

if [ "$NO_CLIPPY" -eq 0 ]; then
    run_step "cargo clippy (deny warnings)" \
        cargo clippy --workspace --all-targets -- -D warnings
fi

if [ "$PROFILE" = release ]; then
    run_step "cargo build --release (all targets)" \
        cargo build --workspace --release --all-targets
    run_step "cargo test --release" cargo test --workspace --release --quiet
    run_step "examples compile check" cargo build --release --examples
else
    run_step "cargo build (all targets)" cargo build --workspace --all-targets
    run_step "cargo test" cargo test --workspace --quiet
    run_step "examples compile check" cargo build --examples
fi

# The BENCHMARK.json benchmark is a package of its own, outside the
# workspace, so nothing above builds it. Its check_smoke test runs all four
# workloads at tiny counts with every correctness check (always --release:
# that is how the benchmark is built and run).
run_step "e2e_rubis benchmark package tests" \
    cargo test --release --offline --quiet --manifest-path e2e_rubis/Cargo.toml

if [ "$CHAOS_SMOKE" -eq 1 ]; then
    # The bounded chaos sweep. The regular test step already runs the full
    # chaos suite on its default seed set, so this gate adds *different*
    # coverage: the seed-robust scenarios (random-fault survival on the
    # simulated wire tier, and the checker on the in-process backend) are
    # replayed under extra pinned seeds via CHAOS_SEED. Failures print the
    # seed and a one-line CHAOS_SEED=... repro command.
    CHAOS_PROFILE_FLAG=""
    [ "$PROFILE" = release ] && CHAOS_PROFILE_FLAG="--release"
    if [ -n "${CHAOS_SEED:-}" ]; then
        # An exported CHAOS_SEED pins the gate to that seed (replaying a
        # reported failure) instead of the extra sweep seeds.
        run_step "chaos smoke (pinned CHAOS_SEED=${CHAOS_SEED})" \
            cargo test $CHAOS_PROFILE_FLAG --quiet --test chaos
    else
        for CHAOS_SWEEP_SEED in 271828 31337; do
            run_step "chaos smoke (extra seed ${CHAOS_SWEEP_SEED}, both backends)" \
                env CHAOS_SEED="$CHAOS_SWEEP_SEED" \
                cargo test $CHAOS_PROFILE_FLAG --quiet --test chaos -- \
                sim_remote_backend_survives_random_faults \
                in_process_backend_passes_the_history_checker
        done
        # The replication profile: R=2 replica sets on the simulated wire
        # tier, a scripted primary kill mid-workload, and the history
        # checker — zero violations, a bounded hit-rate dip, and the healed
        # node serving again, plus the bit-for-bit replay of the same run.
        # These scenarios keep their own fixed, vetted seeds (CHAOS_SEED
        # does not move them), so the gate is deterministic.
        run_step "chaos smoke (replicated failover, R=2, fixed seed)" \
            cargo test $CHAOS_PROFILE_FLAG --quiet --test chaos -- \
            replicated_failover
        # The crash-restart profile: a durable mvdb (group-committed WAL in
        # a scratch dir) is crashed mid-workload after a burst of silently
        # committed transfers, recovered into the same warm caches, and the
        # history checker verifies the recovered invalidation horizon kept
        # every cache honest — zero violations, a bit-for-bit replay, and
        # the mutation canary (recovery with the horizon rebuild skipped)
        # must make the checker fail. Fixed, vetted seed; CHAOS_SEED does
        # not move it, so the gate is deterministic.
        run_step "chaos smoke (crash-restart recovery, durable WAL, fixed seed)" \
            cargo test $CHAOS_PROFILE_FLAG --quiet --test chaos -- \
            crash_restart checker_catches_skipped_horizon_recovery
    fi
fi

if [ "$NET_SMOKE" -eq 1 ]; then
    # Start a real txcached on an ephemeral loopback port, scrape the bound
    # address from its first stdout line, probe it, run the remote-backend
    # consistency test against it, and tear it down.
    if [ "$PROFILE" != release ]; then
        run_step "cargo build --release txcached (for net smoke)" \
            cargo build --release -p cache-server --bin txcached
    fi
    # --shards 4 exercises the event loop's worker pool handing off to a
    # sharded node, not just the single-shard default.
    TXCACHED_LOG="$(mktemp)"
    target/release/txcached --addr 127.0.0.1:0 --capacity-mb 16 \
        --name ci-smoke --shards 4 >"$TXCACHED_LOG" 2>&1 &
    TXCACHED_PID=$!
    trap 'kill "$TXCACHED_PID" 2>/dev/null; rm -f "$TXCACHED_LOG"' EXIT
    TXCACHED_ADDR=""
    for _ in $(seq 1 50); do
        TXCACHED_ADDR="$(sed -n 's/^txcached listening on //p' "$TXCACHED_LOG" | head -n1)"
        [ -n "$TXCACHED_ADDR" ] && break
        sleep 0.1
    done
    if [ -z "$TXCACHED_ADDR" ]; then
        SUMMARY+=("FAIL net smoke (txcached did not start)")
        print_summary
        cat "$TXCACHED_LOG"
        exit 1
    fi
    run_step "net smoke: txcached --ping ${TXCACHED_ADDR}" \
        target/release/txcached --ping "$TXCACHED_ADDR"
    run_step "net smoke: remote-backend consistency vs ${TXCACHED_ADDR}" \
        env TXCACHED_ADDRS="$TXCACHED_ADDR" \
        cargo test --release --quiet --test net_smoke remote_backend_consistency_smoke
    kill "$TXCACHED_PID" 2>/dev/null
    wait "$TXCACHED_PID" 2>/dev/null
    trap - EXIT
    rm -f "$TXCACHED_LOG"
    SUMMARY+=("ok   net smoke teardown (txcached stopped)")

    # fd-exhaustion probe: a second server under a deliberately tiny fd
    # limit, flooded with more connections than the process can hold. The
    # event loop must park the accept side (EMFILE backoff) instead of
    # crashing, keep already-admitted connections alive, and resume
    # accepting once descriptors free up.
    FDPROBE_LOG="$(mktemp)"
    ( ulimit -n 48 2>/dev/null; exec target/release/txcached \
        --addr 127.0.0.1:0 --capacity-mb 16 --name ci-fd-probe \
        --shards 2 ) >"$FDPROBE_LOG" 2>&1 &
    FDPROBE_PID=$!
    trap 'kill "$FDPROBE_PID" 2>/dev/null; rm -f "$FDPROBE_LOG"' EXIT
    FDPROBE_ADDR=""
    for _ in $(seq 1 50); do
        FDPROBE_ADDR="$(sed -n 's/^txcached listening on //p' "$FDPROBE_LOG" | head -n1)"
        [ -n "$FDPROBE_ADDR" ] && break
        sleep 0.1
    done
    if [ -z "$FDPROBE_ADDR" ]; then
        SUMMARY+=("FAIL net smoke (fd-probe txcached did not start)")
        print_summary
        cat "$FDPROBE_LOG"
        exit 1
    fi
    FDPROBE_HOST="${FDPROBE_ADDR%:*}"
    FDPROBE_PORT="${FDPROBE_ADDR##*:}"
    # Hold 64 idle connections open for a few seconds — well past the ~40
    # descriptors the server has left under ulimit -n 48 — from throwaway
    # subshells so the flood releases itself.
    for _ in $(seq 1 64); do
        ( exec 3<>"/dev/tcp/${FDPROBE_HOST}/${FDPROBE_PORT}" && sleep 3 ) \
            2>/dev/null &
    done
    sleep 1
    run_step "net smoke: server survives fd exhaustion (ulimit -n 48, 64 conns)" \
        kill -0 "$FDPROBE_PID"
    # Let the flood's subshells exit and the accept backoff lapse, then the
    # probe must get a fresh connection accepted and answered.
    sleep 3
    run_step "net smoke: txcached --ping after fd-exhaustion backoff" \
        target/release/txcached --ping "$FDPROBE_ADDR"
    kill "$FDPROBE_PID" 2>/dev/null
    wait "$FDPROBE_PID" 2>/dev/null
    trap - EXIT
    rm -f "$FDPROBE_LOG"
    SUMMARY+=("ok   net smoke teardown (fd-probe txcached stopped)")
fi

if [ "$OBS_SMOKE" -eq 1 ]; then
    # Start a real txcached, drive traffic and scrape its metrics over the
    # wire (the obs_smoke test asserts nonzero per-opcode latency
    # percentiles and counter monotonicity across scrapes), then exercise
    # the CLI scrape paths against the same live node.
    if [ "$PROFILE" != release ]; then
        run_step "cargo build --release txcached (for obs smoke)" \
            cargo build --release -p cache-server --bin txcached
    fi
    OBS_LOG="$(mktemp)"
    target/release/txcached --addr 127.0.0.1:0 --capacity-mb 16 \
        --name ci-obs-smoke --shards 4 >"$OBS_LOG" 2>&1 &
    OBS_PID=$!
    trap 'kill "$OBS_PID" 2>/dev/null; rm -f "$OBS_LOG"' EXIT
    OBS_ADDR=""
    for _ in $(seq 1 50); do
        OBS_ADDR="$(sed -n 's/^txcached listening on //p' "$OBS_LOG" | head -n1)"
        [ -n "$OBS_ADDR" ] && break
        sleep 0.1
    done
    if [ -z "$OBS_ADDR" ]; then
        SUMMARY+=("FAIL obs smoke (txcached did not start)")
        print_summary
        cat "$OBS_LOG"
        exit 1
    fi
    run_step "obs smoke: wire scrape + monotone counters vs ${OBS_ADDR}" \
        env TXCACHED_ADDRS="$OBS_ADDR" \
        cargo test --release --quiet --test obs_smoke \
        metrics_scrape_reports_latencies_and_monotone_counters
    run_step "obs smoke: txcached --metrics ${OBS_ADDR}" \
        target/release/txcached --metrics "$OBS_ADDR"
    run_step "obs smoke: txcached --metrics --prom ${OBS_ADDR}" \
        target/release/txcached --metrics "$OBS_ADDR" --prom
    kill "$OBS_PID" 2>/dev/null
    wait "$OBS_PID" 2>/dev/null
    trap - EXIT
    rm -f "$OBS_LOG"
    SUMMARY+=("ok   obs smoke teardown (txcached stopped)")
fi

if [ "$BENCH_SMOKE" -eq 1 ]; then
    if [ "$PROFILE" != release ]; then
        run_step "cargo build --release -p bench (for bench smoke)" \
            cargo build --release -p bench --bin fig5_throughput \
            --bin cache_scaling --bin high_connection --bin net_loopback \
            --bin query_paths
    fi
    # Which gates apply depends on the host: the absolute-throughput
    # comparison runs when the host's CPU count matches the baseline's
    # (use BENCH_BASELINE to point at a baseline for this machine class),
    # and the speedup floor runs on hosts with >= 4 CPUs.
    BASELINE="${BENCH_BASELINE:-crates/bench/BENCH_fig5.baseline.json}"
    run_step "bench smoke (fig5 thread sweep vs ${BASELINE})" \
        target/release/fig5_throughput --scaling-only --threads 1,4 \
        --requests 30000 --json BENCH_fig5.json \
        --baseline "$BASELINE" \
        --min-speedup 1.5
    # The cache-tier gate: lookup/insert throughput against one sharded
    # node. Same rules — 20% regression ceiling at the highest common
    # thread count, >=1.5x 4-thread speedup floor on >=4-CPU hosts.
    CACHE_BASELINE="${CACHE_BENCH_BASELINE:-crates/bench/BENCH_cache_scaling.baseline.json}"
    run_step "bench smoke (cache_scaling sweep vs ${CACHE_BASELINE})" \
        target/release/cache_scaling --threads 1,4 \
        --requests 500000 --skip-tcp --json BENCH_cache_scaling.json \
        --baseline "$CACHE_BASELINE" \
        --min-speedup 1.5
    # The network-tier gate: the event-driven server under a connection
    # ramp. The series should be flat — the point of the event loop is that
    # idle connections are free — so there is no speedup floor, only the
    # regression ceiling at the highest common ramp point (and only on
    # hosts matching the baseline's CPU count). The ceiling is looser than
    # the in-process gates' 20%: with client threads, reactor, and workers
    # all sharing the host's cores, this bench is scheduler-sensitive, and
    # what the gate exists to catch (the loop degrading as connections
    # ramp) is an order-of-magnitude collapse, not a 20% wobble.
    HIGH_CONN_BASELINE="${HIGH_CONN_BENCH_BASELINE:-crates/bench/BENCH_high_connection.baseline.json}"
    run_step "bench smoke (high_connection ramp vs ${HIGH_CONN_BASELINE})" \
        target/release/high_connection --connections 1,16,64,128 \
        --requests 20000 --json BENCH_high_connection.json \
        --baseline "$HIGH_CONN_BASELINE" \
        --max-regress 0.5
    # The replication gate: net_loopback's replicated-write phase fills the
    # same servers through an R=1 and an R=2 client, asserts the servers
    # hold exactly 2x the entries, gates the measured write amplification
    # at <= 3.5x in-binary, and compares the fill-rate pair (the "threads"
    # column is the replication factor) against its baseline. Loopback
    # timing wobbles more than in-process, hence the looser 50% ceiling.
    NET_REPL_BASELINE="${NET_REPL_BENCH_BASELINE:-crates/bench/BENCH_net_replication.baseline.json}"
    run_step "bench smoke (net_loopback R=2 write amplification vs ${NET_REPL_BASELINE})" \
        target/release/net_loopback --keys 2048 \
        --json BENCH_net_replication.json \
        --baseline "$NET_REPL_BASELINE" \
        --max-regress 0.5
    # The durability gate: fig5_throughput's fsync-policy sweep drives
    # committed write transactions against a real durable mvdb (WAL in a
    # scratch dir) under Never / GroupCommit / Always and compares against
    # its baseline with the standard 20% ceiling. The gate point is the
    # Always leg (the highest "thread" index) — fsync-bound and the most
    # stable of the three — so a regression here means the WAL append or
    # group-commit path itself got slower, not scheduler noise.
    DURABILITY_BASELINE="${DURABILITY_BENCH_BASELINE:-crates/bench/BENCH_fig5_durability.baseline.json}"
    run_step "bench smoke (durability fsync-policy sweep vs ${DURABILITY_BASELINE})" \
        target/release/fig5_throughput --durability --requests 2000 \
        --json BENCH_fig5_durability.json \
        --baseline "$DURABILITY_BASELINE"
    # The query-planner gate: query_paths drives the index-assisted fast
    # paths (top-N pushdown, MIN/MAX endpoint probe, COUNT shortcut,
    # IN-list probes) against the forced-seq-scan reference on a RUBiS-
    # shaped items table. The >= 3x top-N-vs-seq-scan floor is enforced
    # in-binary on every host; the baseline comparison additionally gates
    # the index_topn leg ("thread" index 5) at the standard 20% ceiling
    # on hosts matching the baseline's CPU count.
    QUERY_PATHS_BASELINE="${QUERY_PATHS_BENCH_BASELINE:-crates/bench/BENCH_query_paths.baseline.json}"
    run_step "bench smoke (query_paths fast paths vs ${QUERY_PATHS_BASELINE})" \
        target/release/query_paths --requests 2000 \
        --json BENCH_query_paths.json \
        --baseline "$QUERY_PATHS_BASELINE"
    # The instrumentation-overhead gate: cache_scaling's wire-path A/B
    # phase runs a metrics-on and a metrics-off txcached in adjacent pairs
    # and gates the median paired per-op cost ratio at <= 5%. This
    # invocation deliberately omits --skip-tcp (the phase needs the wire
    # path) and carries no baseline — it is a self-contained A/B gate.
    run_step "bench smoke (instrumentation overhead <= 5%, wire A/B)" \
        target/release/cache_scaling --threads 1 --requests 10000 \
        --overhead-gate
fi

print_summary
echo "CI gate passed in ${SECONDS}s."
