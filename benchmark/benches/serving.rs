//! The two daemon workloads, driven in-process through the frame
//! protocol: `serve_hot` (closed loop, all hits) and `serve_mix` (open
//! loop, 2 % computed replies on a journaled server).
//!
//! A request is `wire::encode` → `wire::read_frame` (cursor) →
//! `Server::handle_frame` → `wire::write_frame` (Vec sink) →
//! `wire::decode`: everything a TCP client pays except the kernel.
//! Loopback TCP was tried while sizing and measured the kernel
//! scheduler (6 k–15 k qps run to run), not `serve`.

use crate::jobs::{check_against_row, find_row, load_calibration, repeat_setup, RefRow};
use crate::refclock::RefClock;
use crate::report::{self, field, num, Metric, RunReport, Tally};
use crate::stats::{self, digest_hex, max_and_mean, Summary, Zipf};
use crate::trace::Tracer;
use crate::Args;
use beff_json::Json;
use beff_serve::{wire, JobSpec, Server};
use beff_sim::{Rng64, Workers};
use std::io::Cursor;
use std::path::PathBuf;
use std::time::Instant;

/// The 12 partition shapes of the spec universe: the eight Table-1
/// rows of at most 16 ranks (so served numbers can be held against the
/// paper) and four more small ones. Mean cost of a miss ≈ 42 ms.
pub const SHAPES: [(&str, usize); 12] = [
    ("t3e", 2),
    ("sr2201", 16),
    ("sx5", 4),
    ("sx4", 16),
    ("sx4", 8),
    ("sx4", 4),
    ("hpv", 7),
    ("sv1", 15),
    ("t3e", 4),
    ("t3e", 8),
    ("sr8000-rr", 8),
    ("ibm-sp", 8),
];
/// Pattern seeds per shape; the first is the calibration's own.
pub const SEEDS_PER_SHAPE: usize = 8;
const BASE_SEED: u64 = 0xB0EF;
/// Requests per window of the closed loop.
pub const WINDOW: usize = 20_000;
/// Open-loop arrival rate, requests per second.
pub const RATE: f64 = 400.0;
/// One request in this many is a fresh-seed variant (a sure miss).
pub const MISS_EVERY: usize = 50;
/// Pattern seeds of misses start here, far from the universe's.
const MISS_SEED_BASE: u64 = 1 << 40;
/// Misses whose replies enter the `virtual` digest (a run is bounded by
/// time, so only a fixed prefix can be compared across runs).
const DIGEST_MISSES: usize = 32;

/// The pre-warmed specs and their request payloads.
pub struct Universe {
    pub specs: Vec<JobSpec>,
    pub payloads: Vec<String>,
}

pub fn payload_of(spec: &JobSpec) -> String {
    format!("{{\"op\":\"run\",\"spec\":{}}}", beff_json::to_string(spec))
}

impl Universe {
    pub fn new() -> Self {
        let specs: Vec<JobSpec> = (0..SEEDS_PER_SHAPE as u64)
            .flat_map(|k| {
                SHAPES
                    .iter()
                    .map(move |&(m, p)| JobSpec::new(m, p).with_seed(BASE_SEED + k))
            })
            .collect();
        let payloads = specs.iter().map(payload_of).collect();
        Self { specs, payloads }
    }
}

/// One request through the whole in-process path; the reply payload.
pub fn exchange(
    tr: &mut Tracer,
    server: &Server,
    payload: &str,
    sink: &mut Vec<u8>,
) -> Result<String, String> {
    let frame = tr.span("wire.encode", |_| wire::encode(payload));
    let request = tr
        .span("wire.read_frame", |_| {
            wire::read_frame(&mut Cursor::new(&frame))
        })
        .map_err(|e| format!("read_frame: {e}"))?
        .ok_or("read_frame: empty stream")?;
    let (body, _) = tr.span("serve.handle_frame", |_| server.handle_frame(&request));
    sink.clear();
    tr.span("wire.write_frame", |_| wire::write_frame(sink, &body))
        .map_err(|e| format!("write_frame: {e}"))?;
    let (reply, _) = tr
        .span("wire.decode", |_| wire::decode(sink))
        .map_err(|e| format!("decode: {e}"))?
        .ok_or("decode: incomplete frame")?;
    Ok(reply)
}

/// Split a `run` reply into its `cached` flag and everything after it
/// (digest + result bytes), which must never change for a spec.
pub fn split_reply(reply: &str) -> Option<(bool, &str)> {
    if let Some(tail) = reply.strip_prefix("{\"cached\":true") {
        Some((true, tail))
    } else {
        reply
            .strip_prefix("{\"cached\":false")
            .map(|tail| (false, tail))
    }
}

/// A server with the universe computed into its cache.
pub struct Warmed {
    pub server: Server,
    /// Per universe spec: its reply after the `cached` flag.
    pub tails: Vec<String>,
    journal: Option<PathBuf>,
}

impl Drop for Warmed {
    fn drop(&mut self) {
        if let Some(path) = &self.journal {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Build a server (journaled under `benchmark/out/` when `journal` names
/// the file) and answer every universe spec once.
pub fn warm(universe: &Universe, journal: Option<&str>) -> Result<Warmed, String> {
    let workers = Workers::new(report::WORKERS);
    let (server, journal) = match journal {
        None => (Server::new(workers), None),
        Some(name) => {
            let path = report::out_dir()?.join(name);
            let _ = std::fs::remove_file(&path);
            let (server, _) = Server::with_journal(workers, &path).map_err(|e| e.to_string())?;
            (server, Some(path))
        }
    };
    let mut warmed = Warmed {
        server,
        tails: Vec::with_capacity(universe.specs.len()),
        journal,
    };
    let mut sink = Vec::new();
    let mut off = Tracer::new(false);
    for payload in &universe.payloads {
        let reply = exchange(&mut off, &warmed.server, payload, &mut sink)?;
        match split_reply(&reply) {
            Some((false, tail)) => warmed.tails.push(tail.to_string()),
            _ => {
                return Err(format!(
                    "warming {payload}: unexpected reply {:.120}",
                    reply
                ))
            }
        }
    }
    Ok(warmed)
}

/// Set the universe up three times (a set-up is ~3.5 s of simulation),
/// keeping the last server; a spec answered differently by two set-ups
/// breaks replay identity and fails the run here.
fn warm_repeatedly(
    clock: &mut RefClock,
    universe: &Universe,
    journal: Option<&str>,
) -> Result<(Warmed, Metric), String> {
    let mut rep = 0;
    let mut kept: Option<Vec<String>> = None;
    repeat_setup(clock, 3, 0.0, || {
        let name = journal.map(|j| format!("{j}-{}-{rep}.jrn", std::process::id()));
        rep += 1;
        let w = warm(universe, name.as_deref())?;
        match &kept {
            Some(first) if *first != w.tails => {
                return Err("two set-ups answered a spec with different bytes".to_string())
            }
            Some(_) => {}
            None => kept = Some(w.tails.clone()),
        }
        Ok(w)
    })
}

/// Hold the served Table-1 shapes (calibration seed) against
/// `results/calibration.json` and the paper: the accuracy numbers as a
/// client of the daemon sees them.
fn served_residuals(universe: &Universe, tails: &[String], tally: &mut Tally) -> Vec<f64> {
    let reference: Vec<RefRow> = match load_calibration() {
        Ok(r) => r,
        Err(e) => {
            tally.fail(e);
            return Vec::new();
        }
    };
    let mut residuals = Vec::new();
    for (spec, tail) in universe
        .specs
        .iter()
        .zip(tails)
        .filter(|(s, _)| s.seed == BASE_SEED)
    {
        let Some(row) = find_row(&reference, &spec.machine, spec.procs) else {
            continue;
        };
        let doc = match beff_json::parse(&format!("{{\"cached\":false{tail}")) {
            Ok(d) => d,
            Err(e) => {
                tally.fail(format!(
                    "{}x{}: reply is not JSON: {e}",
                    spec.machine, spec.procs
                ));
                continue;
            }
        };
        let Some(result) = field(&doc, "result") else {
            tally.fail(format!(
                "{}x{}: reply has no result",
                spec.machine, spec.procs
            ));
            continue;
        };
        let get = |metric: &str| {
            let f = |name: &str| field(result, name).and_then(num);
            match metric {
                "pingpong" => f("pingpong_mbps"),
                "per_proc_at_lmax" => Some(f("beff_at_lmax")? / f("nprocs")?),
                other => f(other),
            }
        };
        let lmax = field(result, "lmax").and_then(num).unwrap_or(0.0) as u64;
        let mut fails = Vec::new();
        residuals.extend(check_against_row(&get, lmax, row, &mut fails));
        for f in fails {
            tally.fail(format!("served {f}"));
        }
    }
    residuals
}

/// Recompute a sample of the universe (one seed slot, 12 specs) outside
/// the cache and compare with what the cache has been answering.
fn audit(universe: &Universe, warmed: &Warmed, seed: u64, tally: &mut Tally) {
    let slot = (seed % SEEDS_PER_SHAPE as u64) as usize * SHAPES.len();
    for i in slot..slot + SHAPES.len() {
        let spec = &universe.specs[i];
        match warmed.server.recompute(spec) {
            Ok(bytes) => {
                if !warmed.tails[i].ends_with(&format!("\"result\":{bytes}}}")) {
                    tally.fail(format!(
                        "{}x{} seed {:#x}: cached bytes differ from Server::recompute",
                        spec.machine, spec.procs, spec.seed
                    ));
                }
            }
            Err(e) => tally.fail(format!("recompute {}x{}: {e}", spec.machine, spec.procs)),
        }
    }
}

/// The `stats` op, parsed. Shed jobs or quarantined worlds on a clean
/// run are failures.
pub fn server_stats(server: &Server, tally: &mut Tally) -> Json {
    let (body, _) = server.handle_frame("{\"op\":\"stats\"}");
    let doc = beff_json::parse(&body).unwrap_or(Json::Null);
    for name in ["shed_jobs", "quarantined_worlds"] {
        match field(&doc, name).and_then(num) {
            Some(0.0) => {}
            other => tally.fail(format!("stats.{name} = {other:?}, expected 0")),
        }
    }
    doc
}

/// Digest of the universe's reply bytes, in universe order.
pub fn universe_digest(tails: &[String]) -> String {
    digest_hex(tails.iter().map(String::as_str))
}

// ---------------------------------------------------------------------
// serve_hot: closed loop, Zipf over the warm universe
// ---------------------------------------------------------------------

/// Request latencies in buckets of 1/16 octave: a fixed-size record of
/// a run whose length depends on the host's speed (a vector of every
/// latency made `peak_rss_mb` follow the request count).
pub struct LatencyHistogram {
    counts: Vec<u64>,
}

impl LatencyHistogram {
    const SUB: u32 = 16;

    pub fn new() -> Self {
        Self {
            counts: vec![0; 64 * Self::SUB as usize],
        }
    }

    fn bucket(ns: u64) -> usize {
        let ns = ns.max(1);
        let octave = 63 - ns.leading_zeros();
        let within = if octave >= 4 {
            (ns >> (octave - 4)) & 15
        } else {
            (ns << (4 - octave)) & 15
        };
        (octave * Self::SUB) as usize + within as usize
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Lower edge (ns) of the bucket holding the nearest-rank percentile.
    pub fn percentile_ns(&self, p: f64) -> f64 {
        let rank = ((p * self.total() as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (octave, within) = (b as u32 / Self::SUB, b as u32 % Self::SUB);
                return 2f64.powi(octave as i32) * (1.0 + f64::from(within) / f64::from(Self::SUB));
            }
        }
        0.0
    }
}

pub struct HotPhase {
    /// Every request's host ns from payload in to reply out (raw).
    pub latencies: LatencyHistogram,
    /// Per window: mean ns per request and the window's p99 (raw), and
    /// the reference-clock factor of the samples around the window.
    pub window_mean_ns: Vec<f64>,
    pub window_p99_ns: Vec<f64>,
    pub window_factor: Vec<f64>,
}

impl HotPhase {
    fn scaled(&self, raw_ns: &[f64], name: &'static str) -> Metric {
        let norm: Vec<f64> = raw_ns
            .iter()
            .zip(&self.window_factor)
            .map(|(v, f)| v * f * 1e-3)
            .collect();
        Metric::timing(name, "us", Summary::of(&norm)).with_raw(stats::median(raw_ns) * 1e-3)
    }

    pub fn requests(&self) -> u64 {
        self.latencies.total()
    }

    /// Median over windows of the window's mean request time.
    pub fn req_us(&self) -> Metric {
        self.scaled(&self.window_mean_ns, "req_us")
    }

    /// Median over windows of the window's p99.
    pub fn req_p99_us(&self) -> Metric {
        self.scaled(&self.window_p99_ns, "req_p99_us")
    }

    /// p99.9 over every request, raw, to the histogram's 6 % resolution
    /// (too noisy to gate, reported).
    pub fn p999_us(&self) -> f64 {
        self.latencies.percentile_ns(0.999) / 1e3
    }
}

/// A request for warm spec `idx` must be answered from the cache with
/// the bytes that filled it.
fn check_hit(reply: &Result<String, String>, idx: usize, warmed: &Warmed, tally: &mut Tally) {
    match reply.as_deref().map(split_reply) {
        Ok(Some((true, tail))) if tail == warmed.tails[idx] => {}
        Ok(Some((true, _))) => tally.fail(format!("spec {idx}: hit bytes changed")),
        Ok(Some((false, _))) => tally.fail(format!("spec {idx}: a warm spec missed")),
        Ok(None) => tally.fail(format!("spec {idx}: not a run reply")),
        Err(e) => tally.fail(e.clone()),
    }
}

/// Which universe spec each Zipf rank means in this run.
fn popularity(seed: u64, n: usize) -> Vec<usize> {
    Rng64::new(seed ^ 0x706f_7075_6c61_7221).permutation(n)
}

/// Send Zipf-distributed hits for `seconds` (whole windows, at least
/// one), checking every reply; the reference clock is sampled between
/// windows.
#[allow(clippy::too_many_arguments)]
pub fn hot_phase(
    clock: &mut RefClock,
    tr: &mut Tracer,
    universe: &Universe,
    warmed: &Warmed,
    seed: u64,
    seconds: f64,
    window: usize,
    tally: &mut Tally,
) -> HotPhase {
    let zipf = Zipf::new(universe.specs.len());
    let popular = popularity(seed, universe.specs.len());
    let mut rng = Rng64::new(seed);
    let mut sink = Vec::new();
    let mut phase = HotPhase {
        latencies: LatencyHistogram::new(),
        window_mean_ns: Vec::new(),
        window_p99_ns: Vec::new(),
        window_factor: Vec::new(),
    };
    let started = Instant::now();
    let mut request = 0u64;
    clock.sample();
    while phase.window_mean_ns.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let mut w = Vec::with_capacity(window);
        for _ in 0..window {
            let idx = popular[zipf.sample(&mut rng)];
            tr.set_request(request);
            request += 1;
            let t = Instant::now();
            let reply = tr.span("bench.request", |tr| {
                exchange(tr, &warmed.server, &universe.payloads[idx], &mut sink)
            });
            let ns = t.elapsed().as_nanos() as u64;
            phase.latencies.record(ns);
            w.push(ns as f64);
            check_hit(&reply, idx, warmed, tally);
        }
        phase
            .window_mean_ns
            .push(w.iter().sum::<f64>() / w.len() as f64);
        phase
            .window_p99_ns
            .push(stats::percentile(&stats::sorted(&w), 0.99));
        clock.sample();
        phase
            .window_factor
            .push(clock.factor_around(clock.mark() - 1, 2));
    }
    phase
}

pub fn serve_hot(args: &Args) -> Result<RunReport, String> {
    let mut clock = RefClock::new();
    let universe = Universe::new();
    let (warmed, setup_s) = warm_repeatedly(&mut clock, &universe, None)?;
    let mut tally = Tally::default();
    let mut off = Tracer::new(false);
    let seconds = args.seconds as f64;
    let phase = hot_phase(
        &mut clock, &mut off, &universe, &warmed, args.seed, seconds, WINDOW, &mut tally,
    );
    let residuals = served_residuals(&universe, &warmed.tails, &mut tally);
    audit(&universe, &warmed, args.seed, &mut tally);
    let stats_doc = server_stats(&warmed.server, &mut tally);
    let (max, mean) = max_and_mean(&residuals);
    let req_us = phase.req_us();
    let primary_s = req_us.value * 1e-6;
    let native = vec![
        setup_s,
        Metric::exact("peak_rss_mb", "MB", report::peak_rss_mb()),
        Metric::exact("max_abs_err", "ratio", max),
        Metric::exact("mean_abs_err", "ratio", mean),
        req_us,
        phase.req_p99_us(),
    ];
    let virtual_block = Json::object()
        .field("universe_digest", &universe_digest(&warmed.tails))
        .field("universe", &universe.specs.len())
        .field("served_residuals", &residuals.len())
        .field("max_abs_err", &max)
        .field("mean_abs_err", &mean)
        .field(
            "cache_entries",
            &field(&stats_doc, "entries").and_then(num).unwrap_or(-1.0),
        )
        .build();
    let mut notes = tally.notes;
    notes.push(format!(
        "hot_p999_us {:.3} (raw) over {} requests in {} windows",
        phase.p999_us(),
        phase.requests(),
        phase.window_mean_ns.len()
    ));
    notes.push(clock.note());
    Ok(RunReport {
        workload: "serve_hot",
        trace: false,
        seed: args.seed,
        seconds: args.seconds,
        ops: phase.requests(),
        failed_ops: tally.failed,
        metrics: report::end_to_end(native, primary_s),
        virtual_block,
        notes,
        layers: None,
    })
}

// ---------------------------------------------------------------------
// serve_mix: open loop, hits behind misses on a journaled server
// ---------------------------------------------------------------------

/// Blocks of [`MISS_EVERY`] requests between two reference samples.
const BLOCKS_PER_REF: usize = 4;

pub struct MixPhase {
    /// Per request: host seconds of service as the clock read them, the
    /// same at reference speed, and whether the reply was computed.
    pub raw_service_s: Vec<f64>,
    pub service_s: Vec<f64>,
    pub computed: Vec<bool>,
    /// The fresh specs, in the order they were sent.
    pub miss_specs: Vec<JobSpec>,
    /// Reply bytes (after the flag) of the first [`DIGEST_MISSES`] misses.
    pub miss_tails: Vec<String>,
}

/// Percentiles of the virtual queue the measured service times form
/// under the seeded Poisson schedule.
pub struct MixLatency {
    pub hit_p90_ms: f64,
    pub hit_p99_ms: f64,
    pub miss_p50_ms: f64,
    pub miss_p90_ms: f64,
    pub late_p99_ms: f64,
    pub hits: usize,
    pub misses: usize,
    pub utilisation: f64,
}

impl MixPhase {
    /// Take a reference sample and bring the requests served since the
    /// previous one to reference speed.
    fn rescale_tail(&mut self, clock: &mut RefClock) {
        clock.sample();
        let factor = clock.factor_around(clock.mark() - 1, 2);
        let done = self.service_s.len();
        self.service_s
            .extend(self.raw_service_s[done..].iter().map(|s| s * factor));
    }

    /// Request *i* is due at a seeded Poisson time (400/s); it starts at
    /// max(due, previous completion); latency = completion − due.
    pub fn latency(&self, seed: u64) -> MixLatency {
        let due = stats::poisson_schedule(seed ^ 0x6172_7269_7665, RATE, self.service_s.len());
        let queue = stats::open_loop(&due, &self.service_s);
        let pick = |computed: bool| -> Vec<f64> {
            let v: Vec<f64> = queue
                .iter()
                .zip(&self.computed)
                .filter(|(_, &c)| c == computed)
                .map(|((_, latency), _)| latency * 1e3)
                .collect();
            stats::sorted(&v)
        };
        let (hits, misses) = (pick(false), pick(true));
        let late: Vec<f64> = queue.iter().map(|(late, _)| late * 1e3).collect();
        let busy: f64 = self.service_s.iter().sum();
        MixLatency {
            hit_p90_ms: stats::percentile(&hits, 0.90),
            hit_p99_ms: stats::percentile(&hits, 0.99),
            miss_p50_ms: stats::percentile(&misses, 0.50),
            miss_p90_ms: stats::percentile(&misses, 0.90),
            late_p99_ms: stats::percentile(&stats::sorted(&late), 0.99),
            hits: hits.len(),
            misses: misses.len(),
            utilisation: busy / due.last().copied().unwrap_or(1.0).max(1e-9),
        }
    }
}

/// Serve the mix back to back for `seconds` of wall time (whole blocks
/// of [`MISS_EVERY`] requests; one request per block, at a seeded
/// position, is a fresh-seed variant whose shape cycles through a
/// seeded order so every run computes the same mix of shapes). The
/// reference clock is sampled every [`BLOCKS_PER_REF`] blocks.
pub fn mix_phase(
    clock: &mut RefClock,
    tr: &mut Tracer,
    universe: &Universe,
    warmed: &Warmed,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> MixPhase {
    let zipf = Zipf::new(universe.specs.len());
    let popular = popularity(seed, universe.specs.len());
    let shape_order = Rng64::new(seed ^ 0x6d69_7373).permutation(SHAPES.len());
    let mut rng = Rng64::new(seed);
    let mut sink = Vec::new();
    let mut phase = MixPhase {
        raw_service_s: Vec::new(),
        service_s: Vec::new(),
        computed: Vec::new(),
        miss_specs: Vec::new(),
        miss_tails: Vec::new(),
    };
    let started = Instant::now();
    let mut blocks = 0;
    clock.sample();
    while phase.raw_service_s.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let miss_at = rng.below(MISS_EVERY as u64) as usize;
        for slot in 0..MISS_EVERY {
            tr.set_request(phase.raw_service_s.len() as u64);
            if slot == miss_at {
                let n = phase.miss_specs.len();
                let (machine, procs) = SHAPES[shape_order[n % SHAPES.len()]];
                let fresh = MISS_SEED_BASE + ((seed & 0xF_FFFF) << 20) + n as u64;
                let spec = JobSpec::new(machine, procs).with_seed(fresh);
                let payload = payload_of(&spec);
                let t = Instant::now();
                let reply = tr.span("bench.request", |tr| {
                    exchange(tr, &warmed.server, &payload, &mut sink)
                });
                phase.raw_service_s.push(t.elapsed().as_secs_f64());
                phase.computed.push(true);
                match reply.as_deref().map(split_reply) {
                    Ok(Some((false, tail))) => {
                        if phase.miss_tails.len() < DIGEST_MISSES {
                            phase.miss_tails.push(tail.to_string());
                        }
                    }
                    Ok(Some((true, _))) => tally.fail(format!("fresh seed {fresh:#x} was cached")),
                    Ok(None) => tally.fail(format!("fresh seed {fresh:#x}: not a run reply")),
                    Err(e) => tally.fail(e.clone()),
                }
                phase.miss_specs.push(spec);
            } else {
                let idx = popular[zipf.sample(&mut rng)];
                let t = Instant::now();
                let reply = tr.span("bench.request", |tr| {
                    exchange(tr, &warmed.server, &universe.payloads[idx], &mut sink)
                });
                phase.raw_service_s.push(t.elapsed().as_secs_f64());
                phase.computed.push(false);
                check_hit(&reply, idx, warmed, tally);
            }
        }
        blocks += 1;
        if blocks % BLOCKS_PER_REF == 0 {
            phase.rescale_tail(clock);
        }
    }
    phase.rescale_tail(clock);
    phase
}

/// After the timed phase: the first few fresh specs must now be cached
/// with the bytes they were first answered with, and those bytes must
/// equal a recomputation outside the cache.
pub fn audit_misses(warmed: &Warmed, phase: &MixPhase, tally: &mut Tally) {
    let mut sink = Vec::new();
    let mut off = Tracer::new(false);
    for (spec, first) in phase.miss_specs.iter().zip(&phase.miss_tails).take(4) {
        match exchange(&mut off, &warmed.server, &payload_of(spec), &mut sink)
            .as_deref()
            .map(split_reply)
        {
            Ok(Some((true, tail))) if tail == first => {}
            other => tally.fail(format!(
                "seed {:#x}: replayed miss answered {other:.80?}",
                spec.seed
            )),
        }
        match warmed.server.recompute(spec) {
            Ok(bytes) if first.ends_with(&format!("\"result\":{bytes}}}")) => {}
            Ok(_) => tally.fail(format!(
                "seed {:#x}: journaled bytes differ from recompute",
                spec.seed
            )),
            Err(e) => tally.fail(format!("recompute seed {:#x}: {e}", spec.seed)),
        }
    }
}

pub fn mix_virtual(
    universe: &Universe,
    warmed: &Warmed,
    phase: &MixPhase,
    residuals: &[f64],
) -> Json {
    let (max, mean) = max_and_mean(residuals);
    Json::object()
        .field("universe_digest", &universe_digest(&warmed.tails))
        .field("universe", &universe.specs.len())
        .field(
            "miss_digest",
            &digest_hex(phase.miss_tails.iter().map(String::as_str)),
        )
        .field("miss_digest_covers", &phase.miss_tails.len())
        .field("served_residuals", &residuals.len())
        .field("max_abs_err", &max)
        .field("mean_abs_err", &mean)
        .build()
}

pub fn serve_mix(args: &Args) -> Result<RunReport, String> {
    let mut clock = RefClock::new();
    let universe = Universe::new();
    let (warmed, setup_s) = warm_repeatedly(&mut clock, &universe, Some("serve_mix"))?;
    let mut tally = Tally::default();
    let mut off = Tracer::new(false);
    let seconds = args.seconds as f64;
    let phase = mix_phase(
        &mut clock, &mut off, &universe, &warmed, args.seed, seconds, &mut tally,
    );
    let lat = phase.latency(args.seed);
    let residuals = served_residuals(&universe, &warmed.tails, &mut tally);
    audit_misses(&warmed, &phase, &mut tally);
    let stats_doc = server_stats(&warmed.server, &mut tally);
    let want_misses = (universe.specs.len() + phase.miss_specs.len()) as f64;
    if field(&stats_doc, "cache_misses").and_then(num) != Some(want_misses) {
        tally.fail(format!(
            "stats.cache_misses is not warm + fresh = {want_misses}"
        ));
    }
    let (max, mean) = max_and_mean(&residuals);
    let native = vec![
        setup_s,
        Metric::exact("peak_rss_mb", "MB", report::peak_rss_mb()),
        Metric::exact("max_abs_err", "ratio", max),
        Metric::exact("mean_abs_err", "ratio", mean),
        Metric::exact("hit_p90_ms", "ms", lat.hit_p90_ms),
        Metric::exact("miss_p50_ms", "ms", lat.miss_p50_ms),
        Metric::exact("miss_p90_ms", "ms", lat.miss_p90_ms),
    ];
    let mut notes = tally.notes;
    notes.push(format!(
        "open loop at {RATE}/s: {} hits, {} misses, utilisation {:.3}, late_p99_ms {:.3}, mix_hit_p99_ms {:.3}; {:.2} s of raw service read as {:.2} s at reference speed",
        lat.hits,
        lat.misses,
        lat.utilisation,
        lat.late_p99_ms,
        lat.hit_p99_ms,
        phase.raw_service_s.iter().sum::<f64>(),
        phase.service_s.iter().sum::<f64>()
    ));
    notes.push(clock.note());
    Ok(RunReport {
        workload: "serve_mix",
        trace: false,
        seed: args.seed,
        seconds: args.seconds,
        ops: phase.service_s.len() as u64,
        failed_ops: tally.failed,
        metrics: report::end_to_end(native, lat.miss_p50_ms * 1e-3),
        virtual_block: mix_virtual(&universe, &warmed, &phase, &residuals),
        notes,
        layers: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_is_96_distinct_specs_with_the_calibration_seed_first() {
        let u = Universe::new();
        assert_eq!(u.specs.len(), 96);
        let mut keys: Vec<String> = u.specs.iter().map(JobSpec::canonical_key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 96);
        assert!(u.specs[..12].iter().all(|s| s.seed == 0xB0EF));
        assert!(u.specs.iter().all(|s| s.resolve().is_ok() && s.procs <= 16));
    }

    #[test]
    fn latency_histogram_finds_percentiles_to_a_sixteenth_octave() {
        let mut h = LatencyHistogram::new();
        for ns in 1..=10_000u64 {
            h.record(ns);
        }
        assert_eq!(h.total(), 10_000);
        let p50 = h.percentile_ns(0.5);
        assert!(p50 <= 5000.0 && p50 > 5000.0 / 1.07, "{p50}");
        let p999 = h.percentile_ns(0.999);
        assert!(p999 <= 9990.0 && p999 > 9990.0 / 1.07, "{p999}");
        assert_eq!(LatencyHistogram::bucket(1), 0);
        assert!(LatencyHistogram::bucket(u64::MAX) < 64 * 16);
        assert_eq!(LatencyHistogram::new().percentile_ns(0.99), 0.0);
    }

    #[test]
    fn reply_splits_into_flag_and_stable_tail() {
        assert_eq!(
            split_reply("{\"cached\":true,\"digest\":\"x\"}"),
            Some((true, ",\"digest\":\"x\"}"))
        );
        assert_eq!(
            split_reply("{\"cached\":false,\"d\":1}"),
            Some((false, ",\"d\":1}"))
        );
        assert_eq!(split_reply("{\"error\":\"no\"}"), None);
    }

    #[test]
    fn a_request_goes_through_the_whole_path_and_hits_replay_the_miss() {
        let server = Server::new(Workers::new(1));
        let payload = payload_of(&JobSpec::new("t3e", 2));
        let mut sink = Vec::new();
        let mut tr = Tracer::new(true);
        let first = exchange(&mut tr, &server, &payload, &mut sink);
        let second = exchange(&mut tr, &server, &payload, &mut sink);
        let (Ok(first), Ok(second)) = (first, second) else {
            panic!("exchange failed")
        };
        let (Some((false, a)), Some((true, b))) = (split_reply(&first), split_reply(&second))
        else {
            panic!("expected a miss then a hit")
        };
        assert_eq!(a, b);
        assert_eq!(tr.by_name()["serve.handle_frame"].count, 2);
        assert_eq!(tr.by_name().len(), 5);
    }

    #[test]
    fn mix_latency_counts_queueing_behind_misses() {
        // 400 requests of 1 µs with one 50 ms miss in the middle: hits
        // that fall due during the miss wait for it
        let mut phase = MixPhase {
            raw_service_s: vec![1e-6; 400],
            service_s: vec![1e-6; 400],
            computed: vec![false; 400],
            miss_specs: Vec::new(),
            miss_tails: Vec::new(),
        };
        phase.service_s[200] = 0.050;
        phase.computed[200] = true;
        let lat = phase.latency(1);
        assert_eq!((lat.hits, lat.misses), (399, 1));
        assert!(lat.miss_p50_ms >= 50.0);
        assert!(
            lat.hit_p99_ms > 10.0,
            "some hits queue behind the miss: {}",
            lat.hit_p99_ms
        );
        assert!(lat.hit_p90_ms < 50.0);
        assert_eq!(
            phase.latency(1).hit_p99_ms,
            lat.hit_p99_ms,
            "pure function of the seed"
        );
    }
}
