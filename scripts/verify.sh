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
# otherwise.
run_gate() {
    local name="$1" budget="$2"
    shift 2
    echo "== ${name} =="
    local rc=0
    timeout --foreground "${budget}" "$@" || rc=$?
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

# beff-analyze is the determinism & safety contract (DESIGN.md §8 and
# §13): wall-clock/hash-order bans, unwrap budgets, SAFETY comments,
# the static lock hierarchy, the registry-free dependency guard, and
# the three interprocedural passes (lockflow / panicflow / taint)
# ratcheting against the committed baselines in analyze's config. On
# failure the binary prints the diagnostic-count delta against the
# committed results/analyze.json.
run_gate "analyze (determinism & safety contract)" 120 \
    cargo run -q --offline -p beff-analyze --bin analyze -- --out target/analyze.verify.json

# the analyzer never gets to baseline its own defects: crates/analyze
# must be clean under its own interprocedural passes at budget 0 (no
# `analyze` row in any pass baseline table, no findings).
run_gate "analyze-self (analyzer clean under its own passes)" 120 \
    cargo run -q --offline -p beff-analyze --bin analyze -- --self-gate \
    --out target/analyze.self.json

run_gate "test (offline)" 900 \
    cargo test -q --offline --workspace

# the frozen benchmark package (BENCHMARK.json + benchmark/) is a
# workspace of its own that reaches the crates by path, and a PR that
# claims a gain may not edit it — so a crate-API change has to keep it
# compiling. Build it offline and run its own unit tests here, or it
# only breaks when the benchmark driver next runs.
run_gate "benchmark package (offline build + its own tests)" 900 \
    cargo test -q --offline --manifest-path benchmark/Cargo.toml

# the dynamic half of the lock hierarchy: ranked locks panic on
# inverted acquisition; property tests prove the checker catches it,
# and the mpi/netsim/pfs suites run with checking live
run_gate "lock-order (runtime hierarchy check)" 300 \
    cargo test -q --offline -p beff-sync -p beff-sim -p beff-mpi -p beff-netsim -p beff-pfs \
    --features beff-sync/lock-order

run_gate "mpi wakeup/scheduler stress (release: realistic race timing)" 300 \
    cargo test -q --offline --release -p beff-mpi --test stress

# every gated Table-1 metric must sit within the tolerance of the
# paper value on the committed machine constants; shape claims exact;
# the report must replay byte-identically against the committed golden
run_gate "calibration residual gate (no refit)" 600 \
    cargo run -q --offline --release -p beff-bench --bin calibrate -- \
    --check --out target/calibration.verify.json --golden results/calibration.json

# the fixed fault-scenario matrix: termination, byte-identical replay,
# monotone degradation, I/O slowdown — all checked in-process by the
# binary, which exits non-zero on any harness invariant violation; the
# report must also match the committed golden byte-for-byte
run_gate "chaos sweep (fault injection harness invariants)" 60 \
    cargo run -q --offline --release -p beff-bench --bin chaos -- \
    --out target/chaos.verify.json --golden results/chaos.json

# parallel parity: the calibration and chaos sweeps fan their jobs out
# over the BEFF_WORKERS pool; both reports must match the same
# committed goldens byte-for-byte at 4 workers as at 1 — worker count
# is unobservable by construction (DESIGN.md §10), and this gate pins
# it end-to-end
run_gate "parallel-parity (calibration golden, BEFF_WORKERS=4)" 600 \
    env BEFF_WORKERS=4 cargo run -q --offline --release -p beff-bench --bin calibrate -- \
    --check --out target/calibration.parity.json --golden results/calibration.json
run_gate "parallel-parity (chaos golden, BEFF_WORKERS=4)" 120 \
    env BEFF_WORKERS=4 cargo run -q --offline --release -p beff-bench --bin chaos -- \
    --out target/chaos.parity.json --golden results/chaos.json

# the substrate proof: a PFS-only workload with fault injection on
# beff-sim actors, no beff-mpi edge anywhere in its dependency cone
# (machine-enforced by the analyze layering rule); the binary checks
# byte-identical replay, goodput monotonicity and crash reporting
run_gate "storage-sweep (non-MPI substrate workload)" 120 \
    cargo run -q --offline --release -p beff-sweep --bin storage_sweep -- \
    --check --out target/storage_sweep.verify.json

# b_eff_io's behaviour spec: each figure, table and ablation bin that
# runs pfs + mpiio must print its committed results/*.txt byte for byte
# (the benchmark package checks four T = 30 s rows per machine; these
# eight files are every pattern type, access method and hint the I/O
# half has)
run_gate "b_eff_io goldens (eight bins replay results/*.txt)" 600 \
    bash -c 'set -euo pipefail
    for b in fig3_scaling fig4_detail fig5_compare table2_patterns \
             ablation_cache ablation_twophase ablation_termination ablation_random; do
        cargo run -q --offline --release -p beff-bench --bin "$b" 2>"target/$b.stderr" \
            | cmp - "results/$b.txt" || { tail -n 5 "target/$b.stderr" >&2; exit 1; }
    done'

# the serving layer (DESIGN.md §11): the loadgen binary replays a
# seeded query mix against an in-process server and fails itself if
# any cached result differs byte-for-byte from a fresh recomputation
# (the audit phase). Its report must replay byte-identically against
# the committed golden at 1 and at 4 workers — which also pins that it
# does not change when the worker pool does.
run_gate "serve loadgen (cache correctness + golden, BEFF_WORKERS=1)" 600 \
    env BEFF_WORKERS=1 cargo run -q --offline --release -p beff-serve --bin loadgen -- \
    --out target/serve.virtual.w1.json --golden results/serve_virtual.json
run_gate "serve parallel-parity (golden, BEFF_WORKERS=4)" 600 \
    env BEFF_WORKERS=4 cargo run -q --offline --release -p beff-serve --bin loadgen -- \
    --out target/serve.virtual.w4.json --golden results/serve_virtual.json

# the serving-layer failure model (DESIGN.md §12): the torture binary
# drives seeded adversarial scenarios — frame fuzz, mid-frame
# disconnects at every byte boundary, kill-and-restart journal
# recovery with a recomputation audit, torn-record healing, poisoned
# world quarantine, a deadline-queue overload flood, shutdown drain —
# and exits non-zero if any invariant breaks. Its canonical section
# must match the committed golden byte-for-byte at 1 and 4 workers.
run_gate "serve-torture (failure model + golden, BEFF_WORKERS=1)" 600 \
    env BEFF_WORKERS=1 cargo run -q --offline --release -p beff-serve --bin serve_torture -- \
    --scratch target/serve_torture.w1 \
    --out target/serve_torture.w1.json --golden results/serve_torture.json
run_gate "serve-torture parallel-parity (BEFF_WORKERS=4)" 600 \
    env BEFF_WORKERS=4 cargo run -q --offline --release -p beff-serve --bin serve_torture -- \
    --scratch target/serve_torture.w4 \
    --out target/serve_torture.w4.json --golden results/serve_torture.json

# the script's own wall time is a tracked number (ROADMAP aim 1)
echo "verify.sh: all checks passed in ${SECONDS} s"
