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

# beff-analyze is the determinism & safety contract (DESIGN.md §8 and
# §13): wall-clock/hash-order bans on every non-test line, unwrap
# budgets, SAFETY comments, the lock hierarchy read off the Rank::new
# literals, the registry-free dependency guard, and the two
# interprocedural passes: lockflow (lock order within functions and
# along call chains, every finding a violation) and panicflow
# (ratcheting against the committed baseline in analyze's config, which
# has no row for the analyzer itself). On failure the binary prints the
# diagnostic-count delta against the committed results/analyze.json.
run_gate "analyze (determinism & safety contract)" 120 \
    "$ANALYZE" --out target/analyze.verify.json

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

# every gated Table-1 metric must sit within the tolerance of the
# paper value on the committed machine constants; shape claims exact;
# the report must replay byte-identically against the committed golden
run_gate "calibration residual gate (no refit)" 600 \
    "$BEFF" calibrate --out target/calibration.verify.json --golden results/calibration.json

# the fixed fault-scenario matrix: termination, byte-identical replay,
# monotone degradation, I/O slowdown — all checked in-process by the
# command, which exits non-zero on any harness invariant violation; the
# report must also match the committed golden byte-for-byte
run_gate "chaos sweep (fault injection harness invariants)" 60 \
    "$BEFF" chaos --out target/chaos.verify.json --golden results/chaos.json

# parallel parity: the calibration and chaos sweeps fan their jobs out
# over the BEFF_WORKERS pool; both reports must match the same
# committed goldens byte-for-byte at 4 workers as at 1 — worker count
# is unobservable by construction (DESIGN.md §10), and this gate pins
# it end-to-end
run_gate "parallel-parity (calibration golden, BEFF_WORKERS=4)" 600 \
    env BEFF_WORKERS=4 "$BEFF" calibrate --out target/calibration.parity.json \
    --golden results/calibration.json
run_gate "parallel-parity (chaos golden, BEFF_WORKERS=4)" 120 \
    env BEFF_WORKERS=4 "$BEFF" chaos --out target/chaos.parity.json --golden results/chaos.json

# the substrate proof: a PFS-only workload with fault injection on
# beff-sim actors, no beff-mpi edge anywhere in its dependency cone
# (machine-enforced by the analyze layering rule); the command checks
# byte-identical replay, goodput monotonicity and crash reporting, and
# the report must match the committed golden byte-for-byte
run_gate "storage-sweep (non-MPI substrate workload + golden)" 120 \
    "$BEFF" storage_sweep --check --out target/storage_sweep.verify.json \
    --golden results/storage_sweep.json

# the paper's behaviour spec: every table, figure and ablation command
# with a committed results/<name>.txt (all twelve: Table 1, Fig. 1,
# Table 2, Figs. 3-5, the five ablations, traffic) must print it byte
# for byte; `beff goldens` replays them in one process, side by side on
# the BEFF_WORKERS pool
run_gate "text goldens (beff goldens replays results/*.txt)" 600 \
    "$BEFF" goldens

# the serving layer (DESIGN.md §11): `beff loadgen` replays a
# seeded query mix against an in-process server and fails itself if
# any cached result differs byte-for-byte from a fresh recomputation
# (the audit phase). Its report must replay byte-identically against
# the committed golden at 1 and at 4 workers — which also pins that it
# does not change when the worker pool does.
run_gate "serve loadgen (cache correctness + golden, BEFF_WORKERS=1)" 600 \
    env BEFF_WORKERS=1 "$BEFF" loadgen --out target/serve.virtual.w1.json \
    --golden results/serve_virtual.json
run_gate "serve parallel-parity (golden, BEFF_WORKERS=4)" 600 \
    env BEFF_WORKERS=4 "$BEFF" loadgen --out target/serve.virtual.w4.json \
    --golden results/serve_virtual.json

# the serving-layer failure model (DESIGN.md §12): `beff serve_torture`
# drives seeded adversarial scenarios — frame fuzz, mid-frame
# disconnects at every byte boundary, kill-and-restart journal
# recovery with a recomputation audit, torn-record healing, poisoned
# world quarantine, a deadline-queue overload flood, shutdown drain —
# and exits non-zero if any invariant breaks. Its canonical section
# must match the committed golden byte-for-byte at 1 and 4 workers.
run_gate "serve-torture (failure model + golden, BEFF_WORKERS=1)" 600 \
    env BEFF_WORKERS=1 "$BEFF" serve_torture --scratch target/serve_torture.w1 \
    --out target/serve_torture.w1.json --golden results/serve_torture.json
run_gate "serve-torture parallel-parity (BEFF_WORKERS=4)" 600 \
    env BEFF_WORKERS=4 "$BEFF" serve_torture --scratch target/serve_torture.w4 \
    --out target/serve_torture.w4.json --golden results/serve_torture.json

# the script's own wall time is a tracked number (ROADMAP aim 1)
echo "verify.sh: all checks passed in ${SECONDS} s"
