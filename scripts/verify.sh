#!/usr/bin/env bash
# Tier-1 verification: the whole workspace must build and test with
# zero network/registry access (DESIGN.md §5), and no Cargo.toml may
# reintroduce a registry dependency.
#
# Every gate runs under a hard timeout: a wedged gate names itself and
# fails the run instead of hanging CI. Budgets are generous multiples
# of the observed runtimes — they only fire on a genuine hang.
set -euo pipefail
cd "$(dirname "$0")/.."

# run_gate NAME TIMEOUT_SECS CMD... — run a gate under `timeout`,
# naming the stuck gate on expiry (exit 124) and the failed gate
# otherwise, and print its elapsed seconds.
run_gate() {
    local name="$1" budget="$2"
    shift 2
    echo "== ${name} =="
    local rc=0 start="${SECONDS}"
    timeout --foreground "${budget}" "$@" || rc=$?
    echo "-- ${name}: $((SECONDS - start)) s (budget ${budget} s)"
    if [ "$rc" -eq 124 ]; then
        echo "FAIL: gate '${name}' hung (killed after ${budget}s)" >&2
        exit 124
    elif [ "$rc" -ne 0 ]; then
        echo "FAIL: gate '${name}' exited ${rc}" >&2
        exit "$rc"
    fi
}

run_gate "build (offline)" 900 \
    cargo build --release --offline --workspace

# every gate below runs the two binaries the build produced: `beff`
# (one subcommand per experiment and gate; `beff help` lists them) and
# the analyzer
BEFF=target/release/beff
ANALYZE=target/release/analyze

# beff-analyze checks what no stock lint does (DESIGN.md §8 and §13):
# unwrap budgets, the lock hierarchy read off the Rank::new literals,
# the layering contract, the registry-free dependency guard, and the
# two interprocedural passes: lockflow (lock order within functions and
# along call chains, every finding a violation) and panicflow
# (ratcheting against the committed baseline in analyze's config, which
# has no row for the analyzer itself). On failure the binary prints the
# diagnostic-count delta against the committed results/analyze.json.
run_gate "analyze (determinism & safety contract)" 120 \
    "$ANALYZE" --out target/analyze.verify.json

# the compiler's half of the contract: clippy.toml bans host time, hash
# order, host thread identity and stray threads by resolved path (an
# alias or re-export is caught too), and every unsafe block needs a
# SAFETY comment. Every target and feature is checked, tests included;
# a home or exception is an #[expect(clippy::…, reason = "…")], and one
# that no longer covers a hit fails here as unfulfilled. No other
# clippy lint is on.
run_gate "clippy (determinism bans + SAFETY comments)" 900 \
    cargo clippy --offline --workspace --all-targets --all-features -- -A clippy::all \
    -D clippy::disallowed_types -D clippy::disallowed_methods -D clippy::disallowed_macros \
    -D clippy::undocumented_unsafe_blocks -D warnings

# warnings are errors here: a test-only item nothing reads (or any
# other warning the test build sees) fails the gate
run_gate "test (offline)" 900 \
    env RUSTFLAGS="-D warnings" cargo test -q --offline --workspace

# the frozen benchmark package (BENCHMARK.json + benchmark/) is a
# workspace of its own that reaches the crates by path, and a PR that
# claims a gain may not edit it — so a crate-API change has to keep it
# compiling. Build it offline and run its own unit tests here, or it
# only breaks when the benchmark driver next runs.
run_gate "benchmark package (offline build + its own tests)" 900 \
    cargo test -q --offline --manifest-path benchmark/Cargo.toml

# the dynamic half of the lock hierarchy: ranked locks panic on
# inverted acquisition (claimed or not); property tests prove the
# checker catches it, and the mpi/netsim/pfs/mpiio/core suites run with
# checking live — mpiio's worlds take pfs.ledger inside the locks a
# world claims for its run, and core's b_eff_io tests drive the
# ordered, shared, separate, two-phase and segmented paths through them
run_gate "lock-order (runtime hierarchy check)" 300 \
    cargo test -q --offline -p beff-sync -p beff-sim -p beff-mpi -p beff-netsim -p beff-pfs \
    -p beff-mpiio -p beff-core --features beff-sync/lock-order

# the behaviour spec: every committed golden, replayed in one process
# by `beff goldens` and compared byte for byte —
#   * the twelve table, figure, ablation and traffic stdouts
#     (results/*.txt: Table 1, Fig. 1, Table 2, Figs. 3-5, the five
#     ablations, traffic) and the §6 Top Clusters list, once each;
#   * the calibration residual gate (every gated Table-1 metric within
#     tolerance of the paper, shape claims exact), the chaos sweep's
#     harness invariants, loadgen's cache audit (DESIGN.md §11) and
#     serve_torture's failure model (DESIGN.md §12), each at 1 and at 4
#     workers against the same golden: worker count is unobservable
#     (DESIGN.md §10);
#   * the storage sweep (the non-MPI substrate workload) with its
#     replay, monotonicity and crash-report invariants, once.
# Each replay gets fresh servers and a fresh scratch directory; a line
# per replay names the golden, the worker count and its wall time.
run_gate "goldens (beff goldens replays every results/ golden)" 600 \
    "$BEFF" goldens

# the script's own wall time is a tracked number (ROADMAP aim 1)
echo "verify.sh: all checks passed in ${SECONDS} s"
