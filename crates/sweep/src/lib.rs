//! # beff-sweep
//!
//! A PFS-only workload on the bare simulation substrate, with fault
//! injection (`beff storage_sweep`).
//!
//! This crate exists to prove a layering claim: `beff-sim` is
//! workload-agnostic. It runs `n` *client actors* under the token
//! scheduler ([`beff_sim::try_run_actors`]) driving the parallel
//! filesystem simulator (`beff-pfs`) through a chunk-size ladder —
//! open, strided writes, read-back, close, all priced in virtual time
//! — with a seeded fault plan (`beff-faults`) injecting server
//! slowdowns, stragglers and client crashes. There is no MPI anywhere
//! in this picture: no `World`, no mailboxes, no network model. The
//! absence of a `beff-mpi` edge is machine-enforced by
//! `beff-analyze`'s layering rule.
//!
//! The fault seed defaults to [`DEFAULT_SEED`] ("STORAGE") and honors
//! the `BEFF_FAULT_SEED` environment override like every fault plan;
//! [`check_invariants`] holds the harness invariants — the whole report
//! replays byte-identically, degraded scenarios are not faster than the
//! clean one, and the crash scenario reports exactly the planned dead
//! clients.

use beff_faults::{FaultPlan, FaultSession, FaultSpec};
use beff_json::{Json, ToJson};
use beff_pfs::{DataRef, Pfs, PfsConfig};
use beff_sim::{try_run_actors, BeffError, Secs, VClock, KB, MB};
use std::sync::atomic::{AtomicU64, Ordering};

/// Default fault seed ("STORAGE"), pre-`BEFF_FAULT_SEED`.
pub const DEFAULT_SEED: u64 = 0x57_04A6E;

/// Bytes each surviving client writes (and reads back) per ladder rung.
const PER_CLIENT: u64 = 4 * MB;

/// The chunk-size ladder: small chunks expose per-request software
/// overhead (the paper's Fig. 4 effect), large chunks stream.
const CHUNKS: [u64; 4] = [16 * KB, 64 * KB, 256 * KB, MB];

/// Fixed per-op client think time; stragglers multiply it.
const THINK: Secs = 50e-6;

/// One rung of the ladder for one scenario.
pub struct Point {
    pub chunk: u64,
    /// Bytes successfully written + read across all clients.
    pub bytes: u64,
    /// Virtual time at which the last surviving client closed.
    pub end: Secs,
    /// Aggregate goodput over the run, MB/s.
    pub mbps: f64,
    pub crashed: Vec<usize>,
}

impl ToJson for Point {
    fn to_json(&self) -> Json {
        Json::object()
            .field("chunk", &self.chunk)
            .field("bytes", &self.bytes)
            .field("end_s", &self.end)
            .field("mbps", &self.mbps)
            .field("crashed_clients", &self.crashed)
            .build()
    }
}

/// One fault scenario: its materialized plan and one point per rung.
pub struct Scenario {
    pub name: &'static str,
    pub plan: FaultPlan,
    pub points: Vec<Point>,
}

impl ToJson for Scenario {
    fn to_json(&self) -> Json {
        Json::object()
            .field("name", &self.name)
            .field("severity", &self.plan.severity)
            .field("io_slowdown", &self.plan.io_slowdown)
            .field("planned_crashes", &self.plan.crashes.iter().map(|c| c.rank).collect::<Vec<_>>())
            .field("stragglers", &self.plan.stragglers.iter().map(|s| s.rank).collect::<Vec<_>>())
            .field("points", &self.points)
            .build()
    }
}

/// The whole sweep: every scenario over the chunk ladder.
pub struct Report {
    pub seed: u64,
    pub clients: usize,
    pub scenarios: Vec<Scenario>,
}

impl ToJson for Report {
    fn to_json(&self) -> Json {
        Json::object()
            .field("schema", &"beff/storage-sweep/1")
            .field("seed", &self.seed)
            .field("clients", &self.clients)
            .field("scenarios", &self.scenarios)
            .build()
    }
}

/// Run one ladder rung: every client writes `PER_CLIENT` bytes in
/// `chunk`-sized strided ops, syncs, reads them back, closes. Returns
/// the aggregate goodput point. Crashed clients stop where the plan
/// says and are reported, not fatal — the substrate's typed-fault
/// isolation keeps the survivors deterministic.
fn run_point(clients: usize, chunk: u64, plan: &FaultPlan) -> Point {
    let session = FaultSession::new(plan.clone(), clients);
    let pfs = Pfs::new(PfsConfig { clients, ..PfsConfig::default() });
    if plan.io_slowdown > 1.0 {
        pfs.degrade_servers(plan.io_slowdown);
    }
    let (file, t0) = pfs.open("sweep", 0.0);
    let bytes = AtomicU64::new(0);
    let reps = PER_CLIENT / chunk;

    let results = try_run_actors(clients, |ctx| {
        let id = ctx.id();
        let mut clock = VClock::starting_at(t0);
        let think = THINK * session.plan().compute_mult(id);
        // Write phase: client `id` owns every `clients`-th chunk slot.
        for rep in 0..reps {
            if let Some(e) = session.crash_check(id, clock.now()) {
                e.raise();
            }
            clock.advance(think);
            let offset = (rep * clients as u64 + id as u64) * chunk;
            let t = pfs.write(id, &file, offset, DataRef::Len(chunk), clock.now());
            clock.advance_to(t);
            bytes.fetch_add(chunk, Ordering::Relaxed);
            ctx.yield_turn();
        }
        let t = pfs.sync(clock.now());
        clock.advance_to(t);
        // Read-back phase over the same stride.
        for rep in 0..reps {
            if let Some(e) = session.crash_check(id, clock.now()) {
                e.raise();
            }
            clock.advance(think);
            let offset = (rep * clients as u64 + id as u64) * chunk;
            let (got, t) = pfs.read(id, &file, offset, chunk, None, clock.now());
            clock.advance_to(t);
            bytes.fetch_add(got, Ordering::Relaxed);
            ctx.yield_turn();
        }
        let t = pfs.close(clock.now());
        clock.advance_to(t);
        clock.now()
    });

    let mut end: Secs = 0.0;
    let mut crashed = Vec::new();
    for (id, r) in results.iter().enumerate() {
        match r {
            Ok(t) => end = end.max(*t),
            Err(BeffError::RankCrashed { rank, .. }) => crashed.push(*rank),
            Err(e) => panic!("client {id}: unexpected fault {e}"),
        }
    }
    let bytes = bytes.into_inner();
    let mbps = if end > 0.0 { bytes as f64 / end / (1024.0 * 1024.0) } else { 0.0 };
    Point { chunk, bytes, end, mbps, crashed }
}

fn run_scenario(name: &'static str, clients: usize, spec: &FaultSpec) -> Scenario {
    // No wire in this workload: the plan's link dimension is zero.
    let plan = spec.materialize_dims(clients, 0);
    let points = CHUNKS.iter().map(|&c| run_point(clients, c, &plan)).collect();
    Scenario { name, plan, points }
}

/// Run the four scenarios (clean, slow servers, stragglers, crashes)
/// on `clients` client actors under fault seed `seed`.
pub fn run_report(clients: usize, seed: u64) -> Report {
    let scenarios = vec![
        run_scenario("clean", clients, &FaultSpec::none(seed)),
        run_scenario("io_slow", clients, &FaultSpec::none(seed).with_severity(0.6).io_slow()),
        run_scenario(
            "stragglers",
            clients,
            &FaultSpec::none(seed).with_severity(0.5).stragglers(2),
        ),
        run_scenario("crashes", clients, &FaultSpec::none(seed).with_severity(0.8).crashes(2)),
    ];
    Report { seed, clients, scenarios }
}

/// Harness invariants of a report and its replay; returns violation
/// messages.
pub fn check_invariants(report: &Report, replay: &Report) -> Vec<String> {
    let mut bad = Vec::new();
    if beff_json::to_string_pretty(report) != beff_json::to_string_pretty(replay) {
        bad.push("replay is not byte-identical".to_string());
    }
    let clean = &report.scenarios[0];
    for s in &report.scenarios[1..] {
        // Crashed clients write less, so compare goodput only where the
        // full byte count was moved; pure slowdown scenarios must not
        // beat the clean run on any rung.
        for (p, c) in s.points.iter().zip(&clean.points) {
            if p.bytes == c.bytes && p.mbps > c.mbps * (1.0 + 1e-9) {
                bad.push(format!(
                    "{} chunk {}: faulted goodput {:.2} MB/s beats clean {:.2} MB/s",
                    s.name, p.chunk, p.mbps, c.mbps
                ));
            }
        }
        let planned: Vec<usize> = s.plan.crashes.iter().map(|c| c.rank).collect();
        for p in &s.points {
            if p.crashed != planned {
                bad.push(format!(
                    "{} chunk {}: crashed clients {:?} != planned {:?}",
                    s.name, p.chunk, p.crashed, planned
                ));
            }
        }
    }
    if clean.points.iter().any(|p| !p.crashed.is_empty() || p.bytes == 0) {
        bad.push("clean scenario lost data or crashed".to_string());
    }
    bad
}
