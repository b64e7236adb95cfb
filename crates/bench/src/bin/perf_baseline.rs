//! Perf baseline of the simulator harness: times representative b_eff
//! and b_eff_io sweeps end-to-end (world launch included) and writes
//! the machine-readable trajectory to `BENCH_SIM.json`.
//!
//! Two regression gates guard the trajectory:
//!
//! * **Seed gate** — sweeps with an entry in [`SEED_BASELINES`] (the
//!   identical sweep measured on the pre-optimization harness) must
//!   stay at or above 1.0x of the seed.
//! * **Ratchet gate** — every sweep is also compared against its entry
//!   in the *previous committed* `BENCH_SIM.json`; slowing down by more
//!   than [`RATCHET_SLACK`] fails the run. Optimizations land, the file
//!   is regenerated, and the new (faster) numbers become the floor.
//!
//! In full mode the run also measures the **parallel section**: eight
//! independent 512-rank b_eff jobs through [`PartitionRunner::beff_batch`]
//! (one machine replica per job over the `BEFF_WORKERS` pool), proving
//! the batch results byte-identical to the serial sweep at 1 and 8
//! workers and recording both the measured wall-clock speedup on this
//! host and the load-balance projection for an 8-core host (honest
//! provenance: the two are the same number only on an 8-core machine).
//!
//! Usage: `cargo run --release -p beff-bench --bin perf_baseline
//!         [-- --out BENCH_SIM.json] [--quick]`
//!
//! `--quick` skips the 512-rank sweeps, the parallel section, and the
//! calibration replay (CI smoke mode); the JSON then carries only the
//! sweeps actually run, and the ratchet only checks those.

use beff_bench::calibration::{check, DEFAULT_TOLERANCE};
use beff_bench::{beffio_cfg_quick_t, has_flag, run_beff_on, run_beffio_on, PartitionRunner};
use beff_core::beff::BeffConfig;
use beff_json::{Json, ToJson};
use beff_machines::by_key;
use beff_sim::{try_run_sharded, Message, ShardCtx, Workers};
use std::time::Instant;

/// Ratchet tolerance: a sweep may be up to this factor slower than the
/// previous committed run before the gate fires (wall timings on a
/// shared container jitter; 10% is the contract from DESIGN.md §10).
const RATCHET_SLACK: f64 = 1.10;

/// Absolute grace on top of the ratchet factor: sub-second sweeps see
/// scheduler/page-cache jitter far above 10%, and a relative-only gate
/// would flake on them while adding nothing to the multi-second sweeps
/// the ratchet exists to guard.
const RATCHET_GRACE_SECS: f64 = 0.25;

/// Seed-harness wall seconds for one named sweep, with the provenance
/// of the measurement. These are *fixed reference points*: they must
/// never be re-measured on an optimized harness, or the speedup column
/// silently loses its meaning.
struct SeedBaseline {
    name: &'static str,
    /// Wall seconds on the reference container (1 CPU).
    secs: f64,
    /// Where the number comes from.
    provenance: &'static str,
}

/// The seed harness: per-rank route caches, broadcast mailbox wakeups,
/// p2p sim collectives, one OS thread per rank with futex token
/// handoffs — measured immediately before the fast-path rework (see
/// CHANGES.md, "Fast-path the simulated MPI world"), reference
/// container, 1 CPU, median of 3 runs.
const SEED_BASELINES: &[SeedBaseline] = &[
    SeedBaseline {
        name: "beff_t3e_64",
        secs: 1.40,
        provenance: "seed harness, quick b_eff schedule, t3e x64",
    },
    SeedBaseline {
        name: "beff_t3e_512",
        secs: 25.63,
        provenance: "seed harness, quick b_eff schedule, t3e x512",
    },
    SeedBaseline {
        name: "beffio_t3e_32",
        secs: 2.50,
        provenance: "seed harness, quick b_eff_io schedule T=2s, t3e x32",
    },
];

fn seed_secs(name: &str) -> Option<f64> {
    SEED_BASELINES.iter().find(|b| b.name == name).map(|b| b.secs)
}

/// One timed sweep: a named closure plus gate context.
struct Sweep {
    name: &'static str,
    heavy: bool,
    run: fn() -> f64,
}

fn time_it(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

fn beff_sweep(key: &str, procs: usize) -> f64 {
    let machine = by_key(key).expect("machine in catalog").sized_for(procs);
    let cfg = BeffConfig::quick(machine.mem_per_proc);
    time_it(|| {
        let r = run_beff_on(&machine, procs, &cfg);
        assert!(r.beff > 0.0);
    })
}

fn beffio_sweep(key: &str, procs: usize) -> f64 {
    let machine = by_key(key).expect("machine in catalog").sized_for(procs);
    let cfg = beffio_cfg_quick_t(&machine, 2.0);
    time_it(|| {
        let r = run_beffio_on(&machine, procs, &cfg);
        assert!(r.beff_io > 0.0);
    })
}

/// Ring message for the sharded-engine sweep (sender-id filter: the
/// shape the conservative engine's determinism contract requires).
#[derive(Debug, Clone, Copy)]
struct Hop {
    from: usize,
    acc: f64,
}

#[derive(Debug, Clone, Copy)]
struct From(usize);

impl Message for Hop {
    type Filter = From;
    fn admits(f: &From, m: &Hop) -> bool {
        m.from == f.0
    }
}

/// 10 000 actors on the conservative sharded engine (fibers on x86_64),
/// five token-ring rounds — the world-scale smoke for the parallel
/// discrete-event mode.
fn sharded_ring_sweep() -> f64 {
    const N: usize = 10_000;
    const ROUNDS: u32 = 5;
    const LOOKAHEAD: f64 = 1e-6;
    time_it(|| {
        let (results, _) = try_run_sharded(N, Workers::from_env(), LOOKAHEAD, |ctx: ShardCtx<'_, Hop>| {
            let id = ctx.id();
            let (left, right) = ((id + N - 1) % N, (id + 1) % N);
            let mut acc = id as f64 + 1.0;
            for _ in 0..ROUNDS {
                ctx.advance(LOOKAHEAD);
                ctx.send(right, Hop { from: id, acc });
                acc += ctx.recv(From(left)).acc * 0.5;
            }
            acc
        });
        assert_eq!(results.len(), N);
        assert!(results.iter().all(|r| r.is_ok()));
    })
}

fn sweeps() -> Vec<Sweep> {
    vec![
        Sweep { name: "beff_t3e_64", heavy: false, run: || beff_sweep("t3e", 64) },
        Sweep { name: "beff_t3e_512", heavy: true, run: || beff_sweep("t3e", 512) },
        Sweep { name: "beffio_t3e_32", heavy: false, run: || beffio_sweep("t3e", 32) },
        Sweep { name: "sharded_ring_10k", heavy: false, run: sharded_ring_sweep },
    ]
}

struct Record {
    name: &'static str,
    secs: f64,
    seed_secs: Option<f64>,
    prev_secs: Option<f64>,
}

impl Record {
    fn speedup(&self) -> f64 {
        match self.seed_secs {
            Some(seed) if self.secs > 0.0 => seed / self.secs,
            _ => 0.0,
        }
    }

    fn seed_regressed(&self) -> bool {
        self.seed_secs.is_some() && self.speedup() < 1.0
    }

    fn ratchet_regressed(&self) -> bool {
        self.prev_secs.is_some_and(|prev| self.secs > ratchet_limit(prev))
    }
}

impl ToJson for Record {
    fn to_json(&self) -> Json {
        let mut o = Json::object().field("name", self.name).field("secs", &self.secs);
        if let Some(seed) = self.seed_secs {
            o = o.field("seed_secs", &seed).field("speedup", &self.speedup());
        }
        match self.prev_secs {
            Some(prev) => o = o.field("prev_secs", &prev),
            // Make "no gate applied" machine-readable: a consumer of
            // the trajectory must not mistake a new sweep's first
            // record for one that cleared the ratchet.
            None => o = o.field("ratchet", "no committed baseline (new sweep)"),
        }
        o.build()
    }
}

fn ratchet_limit(prev: f64) -> f64 {
    prev * RATCHET_SLACK + RATCHET_GRACE_SECS
}

/// Sweep timings from the previous committed baseline, read with the
/// in-tree parser (`beff_json::parse`). A file that does not parse, or
/// parses to an unexpected shape, contributes no floors: every sweep
/// then reports a clean "no committed baseline" note instead of a
/// gate failure — the first run of a new sweep (or of a fresh
/// checkout) is a legitimate state, not a regression.
fn previous_sweeps(text: &str) -> Vec<(String, f64)> {
    let Ok(Json::Obj(doc)) = beff_json::parse(text) else { return Vec::new() };
    let sweeps = doc.into_iter().find_map(|(name, value)| match (name.as_str(), value) {
        ("sweeps", Json::Arr(items)) => Some(items),
        _ => None,
    });
    sweeps
        .unwrap_or_default()
        .into_iter()
        .filter_map(|record| {
            let Json::Obj(fields) = record else { return None };
            let (mut name, mut secs) = (None, None);
            for (field, value) in fields {
                match (field.as_str(), value) {
                    ("name", Json::Str(s)) => name = Some(s),
                    ("secs", Json::Float(f)) => secs = Some(f),
                    ("secs", Json::UInt(n)) => secs = Some(n as f64),
                    ("secs", Json::Int(n)) => secs = Some(n as f64),
                    _ => {}
                }
            }
            Some((name?, secs?))
        })
        .collect()
}

/// The parallel section: eight 512-rank b_eff jobs, serial per-job
/// timings, batch runs at 1 and 8 workers with a byte-identity check,
/// and the 8-worker load-balance projection (LPT makespan over the
/// measured per-job times).
struct ParallelSection {
    job_secs: Vec<f64>,
    wall_w1: f64,
    wall_w8: f64,
    host_workers: usize,
    identical: bool,
}

impl ParallelSection {
    fn serial_secs(&self) -> f64 {
        self.job_secs.iter().sum()
    }

    fn measured_speedup(&self) -> f64 {
        if self.wall_w8 > 0.0 {
            self.wall_w1 / self.wall_w8
        } else {
            0.0
        }
    }

    /// Longest-processing-time-first makespan on `workers` bins.
    fn projected_speedup(&self, workers: usize) -> f64 {
        let mut jobs = self.job_secs.clone();
        jobs.sort_by(|a, b| b.partial_cmp(a).expect("finite timings"));
        let mut bins = vec![0.0f64; workers.max(1)];
        for j in jobs {
            let min = bins
                .iter_mut()
                .min_by(|a, b| a.partial_cmp(b).expect("finite bins"))
                .expect("at least one bin");
            *min += j;
        }
        let makespan = bins.iter().cloned().fold(0.0f64, f64::max);
        if makespan > 0.0 {
            self.serial_secs() / makespan
        } else {
            0.0
        }
    }
}

impl ToJson for ParallelSection {
    fn to_json(&self) -> Json {
        Json::object()
            .field("ranks", &512u64)
            .field("jobs", &(self.job_secs.len() as u64))
            .field("job_secs", &self.job_secs)
            .field("serial_secs", &self.serial_secs())
            .field("wall_secs_w1", &self.wall_w1)
            .field("wall_secs_w8", &self.wall_w8)
            .field("host_workers", &(self.host_workers as u64))
            .field("measured_speedup_w1_over_w8", &self.measured_speedup())
            .field("projected_speedup_8_workers", &self.projected_speedup(8))
            .field("identical_serial_w1_w8", &self.identical)
            .field(
                "method",
                "job_secs: serial session runs; wall_secs_wN: beff_batch at N workers \
                 on this host; projection: LPT makespan of job_secs on 8 bins \
                 (equals the measured speedup only on a >=8-core host)",
            )
            .build()
    }
}

fn parallel_section() -> ParallelSection {
    let machine = by_key("t3e").expect("machine in catalog").sized_for(512);
    let runner = PartitionRunner::new(&machine, 512);
    let cfgs: Vec<BeffConfig> = (0..8)
        .map(|j| BeffConfig { seed: 0xBEFF ^ j as u64, ..BeffConfig::quick(machine.mem_per_proc) })
        .collect();

    let mut job_secs = Vec::new();
    let mut serial = Vec::new();
    for cfg in &cfgs {
        let t0 = Instant::now();
        serial.push(runner.beff(cfg));
        job_secs.push(t0.elapsed().as_secs_f64());
        eprintln!("parallel: serial job {} took {:.2} s", serial.len(), job_secs.last().expect("just pushed"));
    }

    let t1 = Instant::now();
    let w1 = runner.beff_batch(Workers::new(1), &cfgs);
    let wall_w1 = t1.elapsed().as_secs_f64();
    let t8 = Instant::now();
    let w8 = runner.beff_batch(Workers::new(8), &cfgs);
    let wall_w8 = t8.elapsed().as_secs_f64();

    let identical = format!("{serial:?}") == format!("{w1:?}")
        && format!("{serial:?}") == format!("{w8:?}");
    ParallelSection {
        job_secs,
        wall_w1,
        wall_w8,
        host_workers: Workers::from_env().get(),
        identical,
    }
}

fn arg_after(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

fn main() {
    let out_path = arg_after("--out").unwrap_or_else(|| "BENCH_SIM.json".to_string());
    let quick = has_flag("--quick");

    // The ratchet floor is always the *committed* baseline at the repo
    // root (which full mode is about to overwrite — read it first);
    // scratch outputs from earlier CI runs must not move the floor.
    // A missing or unreadable baseline is a clean "no floor yet" state
    // (fresh checkout, renamed sweep), never a gate failure.
    let prev = match std::fs::read_to_string("BENCH_SIM.json") {
        Ok(text) => {
            let floors = previous_sweeps(&text);
            if floors.is_empty() {
                eprintln!(
                    "ratchet: committed BENCH_SIM.json holds no readable sweeps — \
                     running without a ratchet floor"
                );
            }
            floors
        }
        Err(_) => {
            eprintln!("ratchet: no committed BENCH_SIM.json — first run, no ratchet floor");
            Vec::new()
        }
    };
    let prev_secs = |name: &str| prev.iter().find(|(n, _)| n == name).map(|&(_, s)| s);

    let mut records = Vec::new();
    for s in sweeps() {
        if quick && s.heavy {
            eprintln!("skip (quick): {}", s.name);
            continue;
        }
        // best-of-2, with up to two extra attempts if the ratchet gate
        // would fire: a real regression reproduces across four runs,
        // container hiccups do not
        // beff-analyze: dynamic-call: sweep table fn pointer; targets are the sweeps() entries above
        let mut secs = (s.run)().min((s.run)());
        if let Some(prev) = prev_secs(s.name) {
            for _ in 0..2 {
                if secs <= ratchet_limit(prev) {
                    break;
                }
                // beff-analyze: dynamic-call: sweep table fn pointer; targets are the sweeps() entries above
                secs = secs.min((s.run)());
            }
        }
        let rec = Record {
            name: s.name,
            secs,
            seed_secs: seed_secs(s.name),
            prev_secs: prev_secs(s.name),
        };
        eprintln!(
            "{:<18} {:>8.2} s (seed {}, prev {})",
            rec.name,
            rec.secs,
            rec.seed_secs.map_or("-".into(), |s| format!("{s:.2} s")),
            rec.prev_secs
                .map_or("no committed baseline (new sweep)".into(), |s| format!("{s:.2} s")),
        );
        records.push(rec);
    }

    let psec = if quick { None } else { Some(parallel_section()) };
    let parallel = match &psec {
        None => Json::variant("skipped", Json::object().field("reason", "quick mode").build()),
        Some(p) => p.to_json(),
    };

    // Calibration residual gate (skipped in quick mode — verify.sh runs
    // the standalone `calibrate -- --check` gate there instead).
    let calibration = if quick {
        Json::variant("skipped", Json::object().field("reason", "quick mode").build())
    } else {
        check(DEFAULT_TOLERANCE).summary()
    };

    let seeds: Vec<Json> = SEED_BASELINES
        .iter()
        .map(|b| {
            Json::object()
                .field("name", b.name)
                .field("secs", &b.secs)
                .field("provenance", b.provenance)
                .build()
        })
        .collect();

    let doc = Json::object()
        .field("schema", "beff-perf-baseline/3")
        .field("mode", if quick { "quick" } else { "full" })
        .raw("seed_baselines", Json::array(seeds.iter()))
        .raw("sweeps", Json::array(records.iter()))
        .raw("parallel", parallel)
        .raw("calibration", calibration)
        .build();
    let text = beff_json::to_string_pretty(&doc);
    beff_json::validate(&text).expect("perf baseline JSON must be well-formed");
    std::fs::write(&out_path, format!("{text}\n")).expect("write BENCH_SIM.json");
    println!("wrote {out_path}");

    let mut failed = false;
    // Seed gate: any seeded sweep slower than the pre-optimization
    // harness fails.
    for r in records.iter().filter(|r| r.seed_regressed()) {
        eprintln!(
            "PERF REGRESSION: {} took {:.2} s vs seed {:.2} s ({:.2}x)",
            r.name,
            r.secs,
            r.seed_secs.unwrap_or(0.0),
            r.speedup()
        );
        failed = true;
    }
    // Ratchet gate: any sweep >10% slower than the previous committed
    // baseline fails.
    for r in records.iter().filter(|r| r.ratchet_regressed()) {
        eprintln!(
            "PERF RATCHET: {} took {:.2} s vs previous {:.2} s (> {:.0}% slack)",
            r.name,
            r.secs,
            r.prev_secs.unwrap_or(0.0),
            (RATCHET_SLACK - 1.0) * 100.0
        );
        failed = true;
    }
    // Parallel gates (full mode): batch results must be byte-identical
    // to the serial sweep, and the 8-worker balance projection must
    // clear 4x.
    if let Some(p) = &psec {
        if !p.identical {
            eprintln!("PARALLEL PARITY: batch results differ from the serial sweep");
            failed = true;
        }
        let projected = p.projected_speedup(8);
        if projected < 4.0 {
            eprintln!("PARALLEL BALANCE: projected 8-worker speedup {projected:.2}x < 4x");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn previous_sweeps_reads_this_binarys_own_output() {
        let doc = r#"{
          "schema": "beff-perf-baseline/3",
          "sweeps": [
            {"name": "beff_t3e_64", "secs": 0.36, "seed_secs": 1.4, "speedup": 3.9},
            {"name": "beff_t3e_512", "secs": 4.1, "prev_secs": 4.0},
            {"name": "fresh_sweep", "secs": 1.25, "ratchet": "no committed baseline (new sweep)"}
          ],
          "parallel": {"skipped": {"reason": "quick mode"}}
        }"#;
        assert_eq!(
            previous_sweeps(doc),
            vec![
                ("beff_t3e_64".to_string(), 0.36),
                ("beff_t3e_512".to_string(), 4.1),
                ("fresh_sweep".to_string(), 1.25),
            ]
        );
    }

    #[test]
    fn unreadable_or_shapeless_baselines_yield_no_floors() {
        assert!(previous_sweeps("").is_empty());
        assert!(previous_sweeps("{ not json").is_empty());
        assert!(previous_sweeps(r#"{"schema": "x"}"#).is_empty(), "no sweeps field");
        assert!(previous_sweeps(r#"{"sweeps": 3}"#).is_empty(), "sweeps not an array");
        assert!(previous_sweeps(r#"{"sweeps": []}"#).is_empty());
        // Records missing a name or secs are skipped, not fatal.
        assert_eq!(
            previous_sweeps(r#"{"sweeps": [{"name": "a"}, {"secs": 1.0}, {"name": "b", "secs": 2}]}"#),
            vec![("b".to_string(), 2.0)]
        );
    }

    #[test]
    fn missing_floor_means_no_ratchet_gate() {
        let rec = Record { name: "fresh_sweep", secs: 9999.0, seed_secs: None, prev_secs: None };
        assert!(!rec.ratchet_regressed(), "a new sweep has no floor to regress against");
        assert!(!rec.seed_regressed());
        let json = beff_json::to_string(&rec);
        assert!(json.contains("no committed baseline"), "{json}");
    }

    #[test]
    fn present_floor_still_gates() {
        let rec = Record { name: "s", secs: 2.0, seed_secs: None, prev_secs: Some(1.0) };
        assert!(rec.ratchet_regressed(), "2.0 s > 1.0 * 1.10 + 0.25");
        let ok = Record { name: "s", secs: 1.3, seed_secs: None, prev_secs: Some(1.0) };
        assert!(!ok.ratchet_regressed(), "1.3 s <= 1.35 s limit");
    }
}
