//! The two cold-job workloads: `table1` (the paper's Table 1, b_eff on
//! the 16 calibrated partitions) and `fig3` (the paper's Fig. 3,
//! b_eff_io scaling on T3E and IBM SP). A job is one call from a
//! (machine key, ranks) pair to result bytes, world build included; a
//! pass is every job of the workload once, in table order. The inputs
//! are the paper's, held against the repo's goldens, so there is nothing
//! for `--seed` to draw: it is recorded and otherwise unused here (a
//! seeded job order was tried and made `peak_rss_mb` swing by 40 %).

use crate::refclock::RefClock;
use crate::report::{self, field, items, num, text, Metric, RunReport, Tally};
use crate::stats::{self, timed, Summary};
use crate::trace::Tracer;
use crate::Args;
use beff_bench::{run_beff_on, run_beffio_on};
use beff_core::beff::{run_beff, BeffConfig};
use beff_core::beffio::{run_beff_io, BeffIoConfig, BeffIoResult};
use beff_core::BeffResult;
use beff_json::Json;
use beff_machines::{by_key, table1_paper, Table1Row};
use beff_mpi::World;
use beff_mpiio::IoWorld;
use beff_netsim::{traffic_report, TrafficReport, MB};
use std::sync::Arc;
use std::time::Instant;

/// The residual gate of `results/calibration.json`.
const TOLERANCE: f64 = 0.25;

/// Fig. 3 partitions. ×128 is left out on purpose (README, sizing
/// observations: ibm-sp×128 held > 1 GB and slowed 6× when repeated).
const FIG3_MACHINES: [&str; 2] = ["t3e", "ibm-sp"];
const FIG3_RANKS: [usize; 4] = [8, 16, 32, 64];
/// The paper's second Fig.-3 shape claim, as the harness has always
/// checked it: the T3E curve stays within this max/min.
const T3E_FLATNESS_LIMIT: f64 = 1.6;

/// Traffic one traced job put on the network.
#[derive(Debug, Clone)]
pub struct JobTrace {
    pub key: &'static str,
    pub procs: usize,
    pub wall_s: f64,
    pub traffic: TrafficReport,
}

/// Wall seconds of one pass: the sum of its jobs' walls as the host
/// clock read them, and the same at reference speed.
#[derive(Debug, Clone, Copy)]
pub struct PassWall {
    pub raw_s: f64,
    pub norm_s: f64,
}

/// Run passes until the time budget is spent: the first pass sizes the
/// run, which then makes round(seconds / first) passes in all (at least
/// one). Also returns the process's peak resident set at the end of the
/// first pass: later passes add to it by an amount that depends on how
/// many there are and on the allocator's mood (README, sizing
/// observations), so only the first pass gives a number that repeats.
pub fn run_passes(seconds: u64, mut pass: impl FnMut() -> PassWall) -> (Vec<PassWall>, f64) {
    let first = pass();
    let first_pass_rss_mb = report::peak_rss_mb();
    let planned = (seconds as f64 / first.raw_s.max(1e-9)).round() as usize;
    let mut walls = vec![first];
    for _ in 1..planned.clamp(1, 10_000) {
        walls.push(pass());
    }
    (walls, first_pass_rss_mb)
}

/// `peak_rss_mb` of a cold-job workload and the note that goes with it.
fn rss_metric(first_pass_rss_mb: f64, passes: usize, notes: &mut Vec<String>) -> Metric {
    notes.push(format!(
        "peak_rss_mb is VmHWM after the first pass; at exit, after {passes} passes, it reads {:.1} MB",
        report::peak_rss_mb()
    ));
    Metric::exact("peak_rss_mb", "MB", first_pass_rss_mb)
}

/// `pass_s` from the passes of a run: median at reference speed, raw
/// median beside it.
fn pass_metric(walls: &[PassWall]) -> Metric {
    let norm: Vec<f64> = walls.iter().map(|w| w.norm_s).collect();
    let raw: Vec<f64> = walls.iter().map(|w| w.raw_s).collect();
    Metric::timing("pass_s", "s", Summary::of(&norm)).with_raw(stats::median(&raw))
}

/// One pass over `jobs` jobs. `job(i)` runs and judges job `i` and
/// returns the seconds the job itself took. The reference clock is
/// sampled three times before every job and after the last, and each
/// job's wall is brought to reference speed by the six samples around
/// it — so the long jobs are corrected by what the host did next to
/// them, not by the many samples that cluster around the short ones.
fn timed_pass(clock: &mut RefClock, jobs: usize, mut job: impl FnMut(usize) -> f64) -> PassWall {
    let mut walls = Vec::with_capacity(jobs);
    for i in 0..jobs {
        clock.sample3();
        walls.push((clock.mark(), job(i)));
    }
    clock.sample3();
    let raw_s = walls.iter().map(|(_, wall)| wall).sum();
    let norm_s = walls
        .iter()
        .map(|&(after, wall)| wall * clock.factor_around(after, 3))
        .sum();
    PassWall { raw_s, norm_s }
}

/// Set up at least `reps` times and for `for_seconds`, keeping the last
/// result (the previous one is dropped first, so two never coexist);
/// the metric is the median wall of one set-up at reference speed. The
/// reference clock is sampled at the start, at the end and every 20 ms
/// in between.
pub fn repeat_setup<T>(
    clock: &mut RefClock,
    reps: usize,
    for_seconds: f64,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Metric), String> {
    let started = Instant::now();
    let mark = clock.mark();
    clock.sample3();
    let mut since_ref = Instant::now();
    let mut walls = Vec::new();
    let mut last = None;
    let built = loop {
        drop(last.take());
        let t = Instant::now();
        let built = setup()?;
        walls.push(t.elapsed().as_secs_f64());
        if since_ref.elapsed().as_secs_f64() >= 0.02 {
            clock.sample3();
            since_ref = Instant::now();
        }
        let enough = walls.len() >= reps && started.elapsed().as_secs_f64() >= for_seconds;
        if enough || walls.len() >= 2000 {
            break built;
        }
        last = Some(built);
    };
    clock.sample3();
    let raw = Summary::of(&walls);
    let metric =
        Metric::timing("setup_s", "s", raw.scaled(clock.factor_since(mark))).with_raw(raw.median);
    Ok((built, metric))
}

/// Replay identity: the bytes each job was first answered with in this
/// run; a later answer must equal them.
struct Replay {
    first: Vec<Option<String>>,
}

impl Replay {
    fn new(jobs: usize) -> Self {
        Self {
            first: vec![None; jobs],
        }
    }

    /// `None` when job `i` is answered for the first time (the bytes are
    /// kept); otherwise whether the answer repeats the first one.
    fn repeats(&mut self, i: usize, bytes: String) -> Option<bool> {
        match &self.first[i] {
            Some(first) => Some(*first == bytes),
            None => {
                self.first[i] = Some(bytes);
                None
            }
        }
    }

    fn answered(&self) -> usize {
        self.first.iter().flatten().count()
    }

    /// Digest of the first answers, in job order.
    fn digest(&self) -> String {
        stats::digest_hex(self.first.iter().flatten().map(String::as_str))
    }
}

/// The untraced report of a cold-job workload.
#[allow(clippy::too_many_arguments)]
fn job_report(
    workload: &'static str,
    args: &Args,
    clock: &RefClock,
    setup_s: Metric,
    (walls, first_pass_rss_mb): (Vec<PassWall>, f64),
    (max_abs_err, mean_abs_err): (f64, f64),
    tally: Tally,
    virtual_block: Json,
) -> RunReport {
    let pass_s = pass_metric(&walls);
    let primary = pass_s.value;
    let mut notes = tally.notes;
    let native = vec![
        setup_s,
        pass_s,
        rss_metric(first_pass_rss_mb, walls.len(), &mut notes),
        Metric::exact("max_abs_err", "ratio", max_abs_err),
        Metric::exact("mean_abs_err", "ratio", mean_abs_err),
    ];
    notes.push(clock.note());
    RunReport {
        workload,
        trace: false,
        seed: args.seed,
        seconds: args.seconds,
        ops: tally.ops,
        failed_ops: tally.failed,
        metrics: report::end_to_end(native, primary),
        virtual_block,
        notes,
        layers: None,
    }
}

// ---------------------------------------------------------------------
// table1
// ---------------------------------------------------------------------

/// One row of `results/calibration.json`: the repo's own record of what
/// each Table-1 partition measures.
pub struct RefRow {
    pub key: String,
    pub procs: usize,
    lmax_mb: u64,
    /// (metric, measured, paper, gated)
    metrics: Vec<(String, f64, f64, bool)>,
}

pub fn load_calibration() -> Result<Vec<RefRow>, String> {
    let path = report::repo_root().join("results/calibration.json");
    let doc = report::read_json(&path)?;
    let bad = |what: &str| format!("{}: {what}", path.display());
    let rows = field(&doc, "rows").ok_or_else(|| bad("no rows"))?;
    items(rows)
        .iter()
        .map(|row| {
            let key = field(row, "machine_key")
                .and_then(text)
                .ok_or_else(|| bad("machine_key"))?;
            let procs = field(row, "procs")
                .and_then(num)
                .ok_or_else(|| bad("procs"))?;
            let lmax = field(row, "lmax_mb_measured")
                .and_then(num)
                .ok_or_else(|| bad("lmax_mb"))?;
            let metrics = items(field(row, "metrics").ok_or_else(|| bad("metrics"))?)
                .iter()
                .map(|m| {
                    let name = field(m, "metric")
                        .and_then(text)
                        .ok_or_else(|| bad("metric"))?;
                    let measured = field(m, "measured")
                        .and_then(num)
                        .ok_or_else(|| bad("measured"))?;
                    let paper = field(m, "paper")
                        .and_then(num)
                        .ok_or_else(|| bad("paper"))?;
                    let gated = matches!(field(m, "gated"), Some(Json::Bool(true)));
                    Ok((name.to_string(), measured, paper, gated))
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(RefRow {
                key: key.to_string(),
                procs: procs as usize,
                lmax_mb: lmax as u64,
                metrics,
            })
        })
        .collect()
}

/// The value `metric` of the calibration schema takes in a result.
fn measured_value(r: &BeffResult, metric: &str) -> Option<f64> {
    Some(match metric {
        "beff" => r.beff,
        "beff_per_proc" => r.beff_per_proc,
        "ring_per_proc_at_lmax" => r.ring_per_proc_at_lmax,
        "beff_at_lmax" => r.beff_at_lmax,
        "per_proc_at_lmax" => r.beff_at_lmax / r.nprocs as f64,
        "pingpong" => r.pingpong_mbps,
        _ => return None,
    })
}

/// Check one Table-1 result against its calibration row; returns the
/// gated residuals |measured/paper − 1|. Every mismatch is a failure
/// reason. `get` reads a calibration-schema metric out of the result
/// (a `BeffResult`, or the JSON a server replied with).
pub fn check_against_row(
    get: &dyn Fn(&str) -> Option<f64>,
    lmax_bytes: u64,
    row: &RefRow,
    fails: &mut Vec<String>,
) -> Vec<f64> {
    let who = format!("{}x{}", row.key, row.procs);
    if lmax_bytes / MB != row.lmax_mb {
        fails.push(format!(
            "{who}: L_max {} MB, calibration.json has {}",
            lmax_bytes / MB,
            row.lmax_mb
        ));
    }
    let mut residuals = Vec::new();
    for (metric, want, paper, gated) in &row.metrics {
        let Some(got) = get(metric) else {
            fails.push(format!(
                "{who}: calibration.json metric {metric:?} is unknown here"
            ));
            continue;
        };
        if got != *want {
            fails.push(format!(
                "{who}: {metric} = {got}, calibration.json has {want}"
            ));
        }
        if *gated {
            let res = (got / paper - 1.0).abs();
            if res > TOLERANCE {
                fails.push(format!(
                    "{who}: {metric} residual {res:.3} outside ±{TOLERANCE}"
                ));
            }
            residuals.push(res);
        }
    }
    residuals
}

pub fn find_row<'a>(rows: &'a [RefRow], key: &str, procs: usize) -> Option<&'a RefRow> {
    rows.iter().find(|r| r.key == key && r.procs == procs)
}

/// One cold Table-1 job: catalog lookup, world build, quick-schedule
/// b_eff, result encode.
fn table1_job(key: &str, procs: usize) -> Result<(BeffResult, String), String> {
    let machine = by_key(key)
        .ok_or_else(|| format!("no machine {key:?}"))?
        .sized_for(procs);
    let cfg = BeffConfig::quick(machine.mem_per_proc);
    let result = run_beff_on(&machine, procs, &cfg);
    let bytes = beff_json::to_string(&result);
    Ok((result, bytes))
}

/// The same job with a span around each call into a layer (what
/// `run_beff_on` does, taken apart), plus the traffic it caused.
fn table1_job_traced(
    tr: &mut Tracer,
    key: &str,
    procs: usize,
) -> Result<(BeffResult, String, TrafficReport), String> {
    let machine = tr
        .span("machines.by_key", |_| {
            by_key(key).map(|m| m.sized_for(procs))
        })
        .ok_or_else(|| format!("no machine {key:?}"))?;
    let cfg = BeffConfig::quick(machine.mem_per_proc);
    let net = tr.span("machines.network", |_| machine.network());
    let session = tr.span("mpi.spawn", |_| {
        World::sim_partition(Arc::clone(&net), procs).session()
    });
    tr.span("netsim.reset", |_| net.reset());
    let mut results = tr.span("core.run_beff", |_| {
        let cfg = cfg.clone();
        session.run(move |c| run_beff(c, &cfg))
    });
    let traffic = tr.span("netsim.traffic_report", |_| traffic_report(&net));
    let result = results.swap_remove(0);
    let bytes = tr.span("json.encode", |_| beff_json::to_string(&result));
    tr.span("mpi.teardown", |_| drop(session));
    Ok((result, bytes, traffic))
}

struct Table1Setup {
    rows: Vec<Table1Row>,
    reference: Vec<RefRow>,
}

fn table1_setup() -> Result<Table1Setup, String> {
    let reference = load_calibration()?;
    let rows = table1_paper();
    for row in &rows {
        if find_row(&reference, row.machine_key, row.procs).is_none() {
            return Err(format!(
                "results/calibration.json has no row {}x{}",
                row.machine_key, row.procs
            ));
        }
    }
    Ok(Table1Setup { rows, reference })
}

/// State of a table1 run across passes: first-seen bytes per job
/// (replay identity) and the first pass's residuals.
struct Table1Run {
    setup: Table1Setup,
    replay: Replay,
    /// Gated residuals per job, from the first time it was answered.
    residuals: Vec<Vec<f64>>,
    tally: Tally,
}

impl Table1Run {
    fn new(setup: Table1Setup) -> Self {
        let n = setup.rows.len();
        Self {
            setup,
            replay: Replay::new(n),
            residuals: vec![Vec::new(); n],
            tally: Tally::default(),
        }
    }

    /// Account for one finished job.
    fn judge(&mut self, i: usize, outcome: Result<(BeffResult, String), String>) {
        self.tally.ops += 1;
        let row = &self.setup.rows[i];
        let (result, bytes) = match outcome {
            Ok(v) => v,
            Err(e) => return self.tally.fail(e),
        };
        match self.replay.repeats(i, bytes) {
            Some(true) => {}
            Some(false) => self.tally.fail(format!(
                "{}x{}: result bytes differ from the first answer of this run",
                row.machine_key, row.procs
            )),
            None => {
                let mut fails = Vec::new();
                if let Some(reference) = find_row(&self.setup.reference, row.machine_key, row.procs)
                {
                    let get = |m: &str| measured_value(&result, m);
                    self.residuals[i] = check_against_row(&get, result.lmax, reference, &mut fails);
                }
                if let Some(first_fail) = fails.into_iter().next() {
                    self.tally.fail(first_fail);
                }
            }
        }
    }

    fn pass(&mut self, clock: &mut RefClock) -> PassWall {
        timed_pass(clock, self.setup.rows.len(), |i| {
            let (key, procs) = (self.setup.rows[i].machine_key, self.setup.rows[i].procs);
            let (outcome, wall_s) = timed(|| table1_job(key, procs));
            self.judge(i, outcome);
            wall_s
        })
    }

    fn pass_traced(&mut self, clock: &mut RefClock, tr: &mut Tracer) -> (PassWall, Vec<JobTrace>) {
        let mut jobs = Vec::new();
        let wall = timed_pass(clock, self.setup.rows.len(), |i| {
            let (key, procs) = (self.setup.rows[i].machine_key, self.setup.rows[i].procs);
            tr.set_request(i as u64);
            let (outcome, wall_s) =
                timed(|| tr.span("bench.job", |tr| table1_job_traced(tr, key, procs)));
            let outcome = outcome.map(|(result, bytes, traffic)| {
                jobs.push(JobTrace {
                    key,
                    procs,
                    wall_s,
                    traffic,
                });
                (result, bytes)
            });
            self.judge(i, outcome);
            wall_s
        });
        (wall, jobs)
    }

    /// (max, mean) of the gated residuals, in table order.
    fn errors(&self) -> (f64, f64) {
        let all: Vec<f64> = self.residuals.iter().flatten().copied().collect();
        stats::max_and_mean(&all)
    }

    fn virtual_block(&self) -> Json {
        let (max, mean) = self.errors();
        let gated: usize = self.residuals.iter().map(Vec::len).sum();
        Json::object()
            .field("result_digest", &self.replay.digest())
            .field("results", &self.replay.answered())
            .field("gated_residuals", &gated)
            .field("max_abs_err", &max)
            .field("mean_abs_err", &mean)
            .build()
    }
}

pub fn table1(args: &Args) -> Result<RunReport, String> {
    let mut clock = RefClock::new();
    let (setup, setup_s) = repeat_setup(&mut clock, 5, 0.3, table1_setup)?;
    let mut run = Table1Run::new(setup);
    let passes = run_passes(args.seconds, || run.pass(&mut clock));
    let (errors, virtual_block) = (run.errors(), run.virtual_block());
    Ok(job_report(
        "table1",
        args,
        &clock,
        setup_s,
        passes,
        errors,
        run.tally,
        virtual_block,
    ))
}

/// What the traced re-run of a cold-job workload hands the ledger.
pub struct TracedPass {
    /// Pass walls at reference speed.
    pub untraced_s: Option<f64>,
    pub traced_s: f64,
    pub jobs: Vec<JobTrace>,
    pub ops: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub virtual_block: Json,
}

/// One traced table1 pass; with `reference` an untraced pass runs first
/// so the tracing overhead can be stated.
pub fn table1_traced(
    clock: &mut RefClock,
    tr: &mut Tracer,
    reference: bool,
) -> Result<TracedPass, String> {
    let mut run = Table1Run::new(table1_setup()?);
    let untraced_s = reference.then(|| run.pass(clock).norm_s);
    let (traced, jobs) = run.pass_traced(clock, tr);
    Ok(TracedPass {
        untraced_s,
        traced_s: traced.norm_s,
        jobs,
        ops: run.tally.ops,
        failed: run.tally.failed,
        virtual_block: run.virtual_block(),
        notes: run.tally.notes,
    })
}

// ---------------------------------------------------------------------
// fig3
// ---------------------------------------------------------------------

fn fig3_jobs() -> Vec<(&'static str, usize)> {
    FIG3_MACHINES
        .iter()
        .flat_map(|&k| FIG3_RANKS.iter().map(move |&n| (k, n)))
        .collect()
}

fn fig3_cfg(mem_per_node: u64) -> BeffIoConfig {
    BeffIoConfig::paper(mem_per_node).with_t(30.0)
}

/// One cold Fig.-3 job: catalog lookup, world build, fresh filesystem,
/// b_eff_io, result encode.
fn fig3_job(key: &str, procs: usize) -> Result<(BeffIoResult, String), String> {
    let machine = by_key(key)
        .ok_or_else(|| format!("no machine {key:?}"))?
        .sized_for(procs);
    if machine.io.is_none() {
        return Err(format!("{key} has no I/O model"));
    }
    let result = run_beffio_on(&machine, procs, &fig3_cfg(machine.mem_per_node));
    let bytes = beff_json::to_string(&result);
    Ok((result, bytes))
}

fn fig3_job_traced(
    tr: &mut Tracer,
    key: &str,
    procs: usize,
) -> Result<(BeffIoResult, String, TrafficReport), String> {
    let machine = tr
        .span("machines.by_key", |_| {
            by_key(key).map(|m| m.sized_for(procs))
        })
        .ok_or_else(|| format!("no machine {key:?}"))?;
    let cfg = fig3_cfg(machine.mem_per_node);
    let net = tr.span("machines.network", |_| machine.network());
    let session = tr.span("mpi.spawn", |_| {
        World::sim_partition(Arc::clone(&net), procs).session()
    });
    tr.span("netsim.reset", |_| net.reset());
    let pfs = tr
        .span("machines.filesystem", |_| machine.filesystem())
        .ok_or_else(|| format!("{key} has no I/O model"))?;
    let io = tr.span("mpiio.world", |_| IoWorld::sim(pfs));
    let mut results = tr.span("core.run_beff_io", |_| {
        let cfg = cfg.clone();
        session.run(move |c| run_beff_io(c, &io, &cfg))
    });
    let traffic = tr.span("netsim.traffic_report", |_| traffic_report(&net));
    let result = results.swap_remove(0);
    let bytes = tr.span("json.encode", |_| beff_json::to_string(&result));
    tr.span("mpi.teardown", |_| drop(session));
    Ok((result, bytes, traffic))
}

/// The T=30s rows of `results/fig3_scaling.txt`, the repo's own record
/// of this figure: (machine display name, ranks) → the printed value.
struct Fig3Golden {
    rows: Vec<(String, usize, String)>,
}

fn load_fig3_golden() -> Result<Fig3Golden, String> {
    let path = report::repo_root().join("results/fig3_scaling.txt");
    let raw =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut machine = String::new();
    let mut rows = Vec::new();
    for line in raw.lines() {
        if let Some(name) = line.strip_prefix("Figure 3 — b_eff_io vs partition size on ") {
            machine = name.trim().to_string();
        }
        let cells: Vec<&str> = line.split_whitespace().collect();
        if let ["T=30s", procs, value] = cells.as_slice() {
            if let Ok(procs) = procs.parse::<usize>() {
                rows.push((machine.clone(), procs, value.to_string()));
            }
        }
    }
    for (key, procs) in fig3_jobs() {
        let name = by_key(key)
            .ok_or_else(|| format!("no machine {key:?}"))?
            .name;
        if !rows.iter().any(|(m, p, _)| m == name && *p == procs) {
            return Err(format!(
                "{}: no T=30s row for {name} x{procs}",
                path.display()
            ));
        }
    }
    Ok(Fig3Golden { rows })
}

struct Fig3Run {
    golden: Fig3Golden,
    jobs: Vec<(&'static str, usize)>,
    replay: Replay,
    /// b_eff_io per job, from the first pass.
    values: Vec<f64>,
    tally: Tally,
}

impl Fig3Run {
    fn new(golden: Fig3Golden) -> Self {
        let jobs = fig3_jobs();
        let n = jobs.len();
        Self {
            golden,
            jobs,
            replay: Replay::new(n),
            values: vec![0.0; n],
            tally: Tally::default(),
        }
    }

    /// The value the golden figure prints for this job, if it has one.
    fn golden_cell(&self, key: &str, procs: usize) -> Option<&str> {
        let name = by_key(key)?.name;
        self.golden
            .rows
            .iter()
            .find(|(m, p, _)| m == name && *p == procs)
            .map(|(_, _, v)| v.as_str())
    }

    fn judge(&mut self, i: usize, outcome: Result<(BeffIoResult, String), String>) {
        self.tally.ops += 1;
        let (key, procs) = self.jobs[i];
        let (result, bytes) = match outcome {
            Ok(v) => v,
            Err(e) => return self.tally.fail(e),
        };
        if !(result.beff_io.is_finite() && result.beff_io > 0.0) {
            return self
                .tally
                .fail(format!("{key}x{procs}: b_eff_io = {}", result.beff_io));
        }
        match self.replay.repeats(i, bytes) {
            Some(true) => {}
            Some(false) => self.tally.fail(format!(
                "{key}x{procs}: result bytes differ from the first answer of this run"
            )),
            None => {
                let printed = format!("{:.1}", result.beff_io);
                if self.golden_cell(key, procs) != Some(printed.as_str()) {
                    self.tally.fail(format!(
                        "{key}x{procs}: b_eff_io {printed}, results/fig3_scaling.txt has {:?}",
                        self.golden_cell(key, procs)
                    ));
                }
                self.values[i] = result.beff_io;
            }
        }
    }

    fn curve(&self, key: &str) -> Vec<f64> {
        self.jobs
            .iter()
            .zip(&self.values)
            .filter(|((k, _), _)| *k == key)
            .map(|(_, &v)| v)
            .collect()
    }

    /// The paper's two Fig.-3 shape claims, once per run (the values are
    /// replay-identical across passes): each broken claim is a failed op.
    fn judge_shapes(&mut self) {
        let sp = self.curve("ibm-sp");
        if !sp.windows(2).all(|w| w[0] < w[1]) {
            self.tally
                .fail(format!("ibm-sp b_eff_io is not monotone in ranks: {sp:?}"));
        }
        let flat = self.t3e_max_over_min();
        if flat.is_nan() || flat > T3E_FLATNESS_LIMIT {
            self.tally
                .fail(format!("t3e max/min = {flat:.3} > {T3E_FLATNESS_LIMIT}"));
        }
    }

    fn t3e_max_over_min(&self) -> f64 {
        let t3e = self.curve("t3e");
        let max = t3e.iter().copied().fold(f64::MIN, f64::max);
        let min = t3e.iter().copied().fold(f64::MAX, f64::min);
        max / min
    }

    /// Fig. 3 has no published numbers to take a residual against; its
    /// accuracy figure is how far the T3E curve is from the flat line
    /// the paper describes: (max/min − 1, mean |v/mean − 1|).
    fn errors(&self) -> (f64, f64) {
        let t3e = self.curve("t3e");
        let mean = t3e.iter().sum::<f64>() / t3e.len().max(1) as f64;
        let dev = t3e.iter().map(|v| (v / mean - 1.0).abs()).sum::<f64>() / t3e.len().max(1) as f64;
        (self.t3e_max_over_min() - 1.0, dev)
    }

    fn pass(&mut self, clock: &mut RefClock) -> PassWall {
        timed_pass(clock, self.jobs.len(), |i| {
            let (key, procs) = self.jobs[i];
            let (outcome, wall_s) = timed(|| fig3_job(key, procs));
            self.judge(i, outcome);
            wall_s
        })
    }

    fn pass_traced(&mut self, clock: &mut RefClock, tr: &mut Tracer) -> (PassWall, Vec<JobTrace>) {
        let mut jobs = Vec::new();
        let wall = timed_pass(clock, self.jobs.len(), |i| {
            let (key, procs) = self.jobs[i];
            tr.set_request(i as u64);
            let (outcome, wall_s) =
                timed(|| tr.span("bench.job", |tr| fig3_job_traced(tr, key, procs)));
            let outcome = outcome.map(|(result, bytes, traffic)| {
                jobs.push(JobTrace {
                    key,
                    procs,
                    wall_s,
                    traffic,
                });
                (result, bytes)
            });
            self.judge(i, outcome);
            wall_s
        });
        (wall, jobs)
    }

    fn virtual_block(&self) -> Json {
        let (max, mean) = self.errors();
        Json::object()
            .field("result_digest", &self.replay.digest())
            .field("results", &self.replay.answered())
            .field("t3e_beff_io", &self.curve("t3e"))
            .field("ibm_sp_beff_io", &self.curve("ibm-sp"))
            .field("max_abs_err", &max)
            .field("mean_abs_err", &mean)
            .build()
    }
}

pub fn fig3(args: &Args) -> Result<RunReport, String> {
    let mut clock = RefClock::new();
    // The jobs are cold by design, so set-up is only the job list and
    // the golden figure they are held against.
    let (golden, setup_s) = repeat_setup(&mut clock, 5, 0.3, load_fig3_golden)?;
    let mut run = Fig3Run::new(golden);
    let passes = run_passes(args.seconds, || run.pass(&mut clock));
    run.judge_shapes();
    let (errors, virtual_block) = (run.errors(), run.virtual_block());
    Ok(job_report(
        "fig3",
        args,
        &clock,
        setup_s,
        passes,
        errors,
        run.tally,
        virtual_block,
    ))
}

pub fn fig3_traced(
    clock: &mut RefClock,
    tr: &mut Tracer,
    reference: bool,
) -> Result<TracedPass, String> {
    let mut run = Fig3Run::new(load_fig3_golden()?);
    let untraced_s = reference.then(|| run.pass(clock).norm_s);
    let (traced, jobs) = run.pass_traced(clock, tr);
    run.judge_shapes();
    Ok(TracedPass {
        untraced_s,
        traced_s: traced.norm_s,
        jobs,
        ops: run.tally.ops,
        failed: run.tally.failed,
        virtual_block: run.virtual_block(),
        notes: run.tally.notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_passes_sizes_itself_from_the_first_pass() {
        let wall = |raw_s| PassWall {
            raw_s,
            norm_s: raw_s * 0.9,
        };
        let mut calls = 0;
        let (walls, rss) = run_passes(18, || {
            calls += 1;
            wall(8.0)
        });
        assert_eq!((walls.len(), calls), (2, 2));
        assert!(rss > 0.0);
        assert_eq!(run_passes(1, || wall(9.5)).0.len(), 1);
        assert_eq!(run_passes(18, || wall(5.8)).0.len(), 3);
        let m = pass_metric(&walls);
        assert!((m.value - 7.2).abs() < 1e-12);
        assert_eq!(m.raw, Some(8.0));
    }

    #[test]
    fn repeated_setup_reports_the_median_at_reference_speed() {
        let mut clock = RefClock::new();
        let mut n = 0;
        let out = repeat_setup(&mut clock, 5, 0.0, || {
            n += 1;
            Ok(n)
        });
        let Ok((last, metric)) = out else {
            panic!("set-up cannot fail")
        };
        assert_eq!((last, n), (5, 5));
        assert_eq!(metric.detail.map(|s| s.n), Some(5));
        let Some(raw) = metric.raw else {
            panic!("raw median kept")
        };
        assert!((metric.value / raw - clock.factor_since(0)).abs() < 1e-9);
        assert!(repeat_setup(&mut clock, 1, 0.0, || Err::<(), _>("no".to_string())).is_err());
    }

    #[test]
    fn calibration_file_covers_table1_and_the_smallest_job_matches_it() {
        let setup = match table1_setup() {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        };
        assert_eq!(setup.rows.len(), 16);
        let gated: usize = setup
            .reference
            .iter()
            .map(|r| r.metrics.iter().filter(|m| m.3).count())
            .sum();
        assert_eq!(gated, 58);
        let mut run = Table1Run::new(setup);
        let i = run.setup.rows.iter().position(|r| r.procs == 2);
        let Some(i) = i else {
            panic!("t3e x2 is a Table-1 row")
        };
        let outcome = table1_job("t3e", 2);
        run.judge(i, outcome);
        let again = table1_job("t3e", 2);
        run.judge(i, again);
        assert_eq!(
            (run.tally.ops, run.tally.failed),
            (2, 0),
            "{:?}",
            run.tally.notes
        );
        assert_eq!(run.residuals[i].len(), 4);
        // a wrong answer is caught: by the replay identity …
        run.judge(
            i,
            Ok((
                table1_job("t3e", 2)
                    .map(|v| v.0)
                    .unwrap_or_else(|e| panic!("{e}")),
                "x".into(),
            )),
        );
        assert_eq!(run.tally.failed, 1);
        // … and by the calibration row
        let mut fails = Vec::new();
        let Ok((mut r, _)) = table1_job("t3e", 2) else {
            panic!("job runs")
        };
        r.beff *= 1.5;
        let Some(row) = find_row(&run.setup.reference, "t3e", 2) else {
            panic!("row")
        };
        check_against_row(&|m| measured_value(&r, m), r.lmax, row, &mut fails);
        assert_eq!(fails.len(), 2, "{fails:?}");
    }

    #[test]
    fn fig3_shape_claims_are_judged() {
        let golden = match load_fig3_golden() {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        };
        assert_eq!(
            golden.rows.len(),
            10,
            "two machines, five partition sizes at T=30s"
        );
        let mut run = Fig3Run::new(golden);
        assert_eq!(run.golden_cell("ibm-sp", 64), Some("183.7"));
        run.values = vec![120.0, 136.0, 142.0, 163.0, 48.0, 74.0, 122.0, 184.0];
        run.judge_shapes();
        assert_eq!(run.tally.failed, 0);
        let (max, mean) = run.errors();
        assert!((max - (163.0 / 120.0 - 1.0)).abs() < 1e-12 && mean > 0.0 && mean < max);
        run.values[3] = 200.0; // t3e no longer flat
        run.values[5] = 40.0; // ibm-sp no longer monotone
        run.judge_shapes();
        assert_eq!(run.tally.failed, 2);
    }
}
