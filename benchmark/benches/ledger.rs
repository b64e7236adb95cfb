//! The per-layer ledger: what a traced run (`--trace 1`) measures.
//!
//! Three parts. (1) Unit costs, measured mpirion-style: a kernel says
//! what one iteration is and how many operations it performs, the
//! harness sizes the batch to ~30 ms, times five batches and reports
//! the median host time per operation. (2) Every workload re-run at
//! trace size (one pass, or a tenth of the seconds) with a span around
//! each call into a layer; the counts and job costs the layer metrics
//! name come from these. (3) For the workload the run was asked for, an
//! untraced reference of the same size first, so the cost of tracing is
//! itself a number. Layers are measured from outside, through their
//! public functions; spans inside the crates are a later issue.

use crate::jobs::{self, JobTrace, TracedPass};
use crate::refclock::RefClock;
use crate::report::{self, field, num, Metric, RunReport, Tally};
use crate::serving::{self, Universe, Warmed, WINDOW};
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use crate::Args;
use beff_bench::PartitionRunner;
use beff_core::beff::{BeffConfig, Method, Transfers};
use beff_json::Json;
use beff_machines::{by_key, t3e, Machine};
use beff_mpi::{Comm, ReduceOp, Workers, World, WorldSession};
use beff_mpiio::{AMode, FileView, Hints, IoWorld, MpiFile};
use beff_netsim::{MachineNet, NetParams, Topology, KB, MB};
use beff_pfs::{stripe_split, DataRef, Pfs, PfsConfig};
use beff_serve::pool::SessionPool;
use beff_serve::{wire, JobSpec, Journal, ResultCache};
use beff_sim::{run_actors, Message, Port, Resource};
use std::hint::black_box;
use std::io::Cursor;
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric: (name, unit, better). `BENCHMARK.json`
/// lists exactly these; a test holds the two together.
pub const PER_LAYER: [(&str, &str, &str); 59] = [
    ("sim.switch_ns", "ns", "lower"),
    ("sim.switch_512_ns", "ns", "lower"),
    ("sim.port_hit_ns", "ns", "lower"),
    ("sim.port_scan16_ns", "ns", "lower"),
    ("sim.reserve_ns", "ns", "lower"),
    ("sim.reserve_contended_ns", "ns", "lower"),
    ("sim.batch_w2_speedup", "ratio", "higher"),
    ("netsim.route_memo_ns", "ns", "lower"),
    ("netsim.route_cold_ns", "ns", "lower"),
    ("netsim.price_ns", "ns", "lower"),
    ("netsim.reset_512_us", "us", "lower"),
    ("netsim.build_512_ms", "ms", "lower"),
    ("netsim.msgs_per_pass", "count", "lower"),
    ("netsim.hop_traversals_per_pass", "count", "lower"),
    ("netsim.bytes_per_pass", "count", "lower"),
    ("mpi.msg_p2_ns", "ns", "lower"),
    ("mpi.msg_p64_ns", "ns", "lower"),
    ("mpi.msg_p512_ns", "ns", "lower"),
    ("mpi.allreduce_p64_ns", "ns", "lower"),
    ("mpi.barrier_p512_us", "us", "lower"),
    ("mpi.spawn_512_ms", "ms", "lower"),
    ("core.ring_sendrecv_ns", "ns", "lower"),
    ("core.ring_alltoallv_ns", "ns", "lower"),
    ("core.ring_nonblocking_ns", "ns", "lower"),
    ("core.job_p2_ns_per_msg", "ns", "lower"),
    ("core.job_p64_ns_per_msg", "ns", "lower"),
    ("core.job_p512_ns_per_msg", "ns", "lower"),
    ("core.hero_job_s", "s", "lower"),
    ("core.io_job_sp64_s", "s", "lower"),
    ("pfs.stripe_split_ns", "ns", "lower"),
    ("pfs.write_ns", "ns", "lower"),
    ("pfs.write_rmw_ns", "ns", "lower"),
    ("pfs.read_ns", "ns", "lower"),
    ("mpiio.map_range_ns", "ns", "lower"),
    ("mpiio.write_all_p32_us", "us", "lower"),
    ("mpiio.write_at_p32_us", "us", "lower"),
    ("json.parse_request_ns", "ns", "lower"),
    ("json.parse_result_us", "us", "lower"),
    ("json.encode_result_us", "us", "lower"),
    ("machines.by_key_ns", "ns", "lower"),
    ("serve.wire_roundtrip_ns", "ns", "lower"),
    ("serve.spec_from_json_ns", "ns", "lower"),
    ("serve.spec_resolve_ns", "ns", "lower"),
    ("serve.spec_key_ns", "ns", "lower"),
    ("serve.cache_get_ns", "ns", "lower"),
    ("serve.handle_hit_ns", "ns", "lower"),
    ("serve.hit_unattributed_ns", "ns", "lower"),
    ("serve.pool_cycle_ns", "ns", "lower"),
    ("serve.pool_cold_p16_ms", "ms", "lower"),
    ("serve.journal_append_us", "us", "lower"),
    ("serve.miss_run_share", "ratio", "higher"),
    ("serve.journal_replay_1k_ms", "ms", "lower"),
    ("serve.cache_hits", "count", "higher"),
    ("serve.cache_misses", "count", "lower"),
    ("serve.partitions_built", "count", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.late_p99_ms", "ms", "lower"),
    ("bench.mix_hit_p99_ms", "ms", "lower"),
    ("bench.hot_p999_us", "us", "lower"),
];

/// Target wall time of one timed batch.
const BATCH_S: f64 = 0.03;
const BATCHES: usize = 5;

fn unit_scale(unit: &str) -> f64 {
    match unit {
        "ns" => 1e9,
        "us" => 1e6,
        "ms" => 1e3,
        _ => 1.0,
    }
}

fn timed(f: impl FnOnce()) -> f64 {
    stats::timed(f).1
}

/// The measured values, by metric name.
#[derive(Default)]
pub struct Ledger {
    values: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Ledger {
    fn set(&mut self, name: &'static str, value: f64) {
        let unit = PER_LAYER
            .iter()
            .find(|m| m.0 == name)
            .map(|m| m.1)
            .unwrap_or("?");
        self.values.push(Metric::exact(name, unit, value));
    }

    fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .unwrap_or(0.0)
    }

    /// Measure a unit cost. `batch(iters)` runs `iters` iterations and
    /// returns the seconds they took (kernels that build a world time
    /// only the part after it is built); one iteration is `ops`
    /// operations. The batch is doubled until it lasts [`BATCH_S`] (or
    /// reaches `max_iters`), then timed [`BATCHES`] times.
    fn unit(
        &mut self,
        name: &'static str,
        ops: f64,
        max_iters: u64,
        mut batch: impl FnMut(u64) -> f64,
    ) {
        let mut iters = 1u64;
        loop {
            let wall = batch(iters);
            if wall >= BATCH_S / 2.0 || iters >= max_iters {
                break;
            }
            let grow = (BATCH_S / wall.max(1e-9)).clamp(2.0, 100.0);
            iters = ((iters as f64 * grow) as u64).clamp(iters + 1, max_iters);
        }
        let unit = PER_LAYER
            .iter()
            .find(|m| m.0 == name)
            .map(|m| m.1)
            .unwrap_or("?");
        let per_op: Vec<f64> = (0..BATCHES)
            .map(|_| batch(iters) / (iters as f64 * ops) * unit_scale(unit))
            .collect();
        let s = Summary::of(&per_op);
        self.values.push(Metric::timing(name, unit, s));
    }

    /// A unit cost of a plain closure.
    fn op<R>(&mut self, name: &'static str, mut f: impl FnMut() -> R) {
        self.unit(name, 1.0, u64::MAX >> 8, |iters| {
            timed(|| {
                for _ in 0..iters {
                    black_box(f());
                }
            })
        });
    }

    /// A unit cost inside a simulated world: every rank runs
    /// `kernel(comm, iters)`; one iteration of the world is `ops`
    /// operations.
    fn world(
        &mut self,
        name: &'static str,
        session: &WorldSession,
        ops: f64,
        kernel: fn(&mut Comm, u64),
    ) {
        self.unit(name, ops, 1 << 24, |iters| {
            timed(|| {
                session.run(move |c| kernel(c, iters));
            })
        });
    }

    /// Metrics in `PER_LAYER` order; a name nothing measured reads 0 and
    /// says so.
    fn into_metrics(mut self) -> (Vec<Metric>, Vec<String>) {
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                self.values
                    .iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or_else(|| {
                        self.notes
                            .push(format!("{name}: not measured, reported as 0"));
                        Metric::exact(name, unit, 0.0)
                    })
            })
            .collect();
        (metrics, self.notes)
    }
}

// ---------------------------------------------------------------------
// unit-cost kernels, by layer
// ---------------------------------------------------------------------

#[derive(Debug)]
struct Tagged(u32);

impl Message for Tagged {
    type Filter = u32;
    fn admits(filter: &u32, msg: &Self) -> bool {
        msg.0 == *filter
    }
}

/// One `yield_turn` among `n` actors: token grant + switch. Actor 0
/// times its own loop, during which every actor runs once per
/// iteration — thread start-up is outside the clock.
fn switch_cost(n: usize, iters: u64) -> f64 {
    let walls = run_actors(n, |ctx| {
        ctx.yield_turn();
        let t = Instant::now();
        for _ in 0..iters {
            ctx.yield_turn();
        }
        t.elapsed().as_secs_f64()
    });
    walls.first().copied().unwrap_or(0.0)
}

fn sim_kernels(l: &mut Ledger) {
    l.unit("sim.switch_ns", 64.0, 1 << 20, |iters| {
        switch_cost(64, iters)
    });
    l.unit("sim.switch_512_ns", 512.0, 1 << 20, |iters| {
        switch_cost(512, iters)
    });

    let port: Port<Tagged> = Port::new();
    l.op("sim.port_hit_ns", || {
        port.push(Tagged(1));
        port.try_recv(1)
    });
    for _ in 0..16 {
        port.push(Tagged(0));
    }
    l.op("sim.port_scan16_ns", || {
        port.push(Tagged(1));
        port.try_recv(1)
    });

    let idle = Resource::new();
    let mut t = 0.0;
    l.op("sim.reserve_ns", || {
        t += 1.0;
        idle.reserve(t, 0.5)
    });
    let busy = Resource::with_contention(1.5);
    l.op("sim.reserve_contended_ns", || busy.reserve(0.0, 1e-6));
}

/// Eight t3e×64 jobs through `beff_batch` at two workers against the
/// serial path: the multi-core figure that had never been measured.
fn batch_speedup(l: &mut Ledger, machine: &Machine) {
    let workers = 2;
    if report::nproc() < workers {
        l.notes.push(format!(
            "sim.batch_w2_speedup refused: {} core(s) for {workers} workers; reported as 0",
            report::nproc()
        ));
        l.set("sim.batch_w2_speedup", 0.0);
        return;
    }
    let runner = PartitionRunner::new(machine, 64);
    let cfgs: Vec<BeffConfig> = (0..8)
        .map(|k| BeffConfig {
            seed: 0xB0EF + k,
            ..BeffConfig::quick(machine.mem_per_proc)
        })
        .collect();
    let serial = timed(|| drop(black_box(runner.beff_batch(Workers::new(1), &cfgs))));
    let parallel = timed(|| drop(black_box(runner.beff_batch(Workers::new(workers), &cfgs))));
    l.notes.push(format!(
        "sim.batch_w2_speedup: 8 x t3e x64, serial {serial:.3} s, {workers} workers {parallel:.3} s on {} cores",
        report::nproc()
    ));
    l.set("sim.batch_w2_speedup", serial / parallel.max(1e-9));
}

fn netsim_kernels(l: &mut Ledger, machine: &Machine) {
    let torus = MachineNet::new(Topology::Torus3D { dims: [8, 8, 8] }, NetParams::default());
    let mut j = 0usize;
    l.op("netsim.route_memo_ns", || {
        j = (j + 1) % 64;
        torus.split_route(j, (j + 1) % 64)
    });
    let topo = torus.topology().clone();
    let (mut i, mut buf) = (0usize, Vec::new());
    l.op("netsim.route_cold_ns", || {
        i = (i + 97) % 512;
        topo.route_into(i, (i * 31) % 512, &mut buf);
        buf.len()
    });
    // (0,0,0) → (2,2,2): six torus hops plus the two ports
    let path = torus.split_route(0, 2 + 2 * 8 + 2 * 64).full();
    let mut t = 0.0;
    l.op("netsim.price_ns", || {
        t += 1.0;
        torus.price(&path, MB, t)
    });
    let net = machine.network();
    l.op("netsim.reset_512_us", || net.reset());
    l.op("netsim.build_512_ms", || machine.network());
}

fn sendrecv_kernel(c: &mut Comm, iters: u64) {
    let peer = c.rank() ^ 1;
    let buf = [0u8; 64];
    let mut scratch = [0u8; 64];
    for _ in 0..iters {
        c.payload_sendrecv(peer, 1, &buf, Some(peer), Some(1), &mut scratch);
    }
}

fn allreduce_kernel(c: &mut Comm, iters: u64) {
    let mut acc = 0.0;
    for i in 0..iters {
        acc += c.allreduce_scalar(i as f64, ReduceOp::Max);
    }
    black_box(acc);
}

fn barrier_kernel(c: &mut Comm, iters: u64) {
    for _ in 0..iters {
        c.barrier();
    }
}

fn ring_kernel(c: &mut Comm, iters: u64, method: Method) {
    let (r, n) = (c.rank(), c.size());
    let mut tr = Transfers::new(c, KB);
    for _ in 0..iters {
        tr.ring_iteration(c, method, (r + n - 1) % n, (r + 1) % n, KB);
    }
}

/// `mpi` and `core` unit costs on t3e partitions of 2, 64 and 512 ranks.
fn world_kernels(l: &mut Ledger, machine: &Machine) {
    let net = machine.network();
    let session = |n: usize| World::sim_partition(Arc::clone(&net), n).session();

    let p2 = session(2);
    l.world("mpi.msg_p2_ns", &p2, 2.0, sendrecv_kernel);
    drop(p2);

    let p64 = session(64);
    l.world("mpi.msg_p64_ns", &p64, 64.0, sendrecv_kernel);
    l.world("mpi.allreduce_p64_ns", &p64, 1.0, allreduce_kernel);
    // a ring iteration moves two messages per rank
    l.world("core.ring_sendrecv_ns", &p64, 128.0, |c, n| {
        ring_kernel(c, n, Method::Sendrecv)
    });
    l.world("core.ring_alltoallv_ns", &p64, 128.0, |c, n| {
        ring_kernel(c, n, Method::Alltoallv)
    });
    l.world("core.ring_nonblocking_ns", &p64, 128.0, |c, n| {
        ring_kernel(c, n, Method::NonBlocking)
    });
    drop(p64);

    let p512 = session(512);
    l.world("mpi.msg_p512_ns", &p512, 512.0, sendrecv_kernel);
    l.world("mpi.barrier_p512_us", &p512, 1.0, barrier_kernel);
    drop(p512);

    l.unit("mpi.spawn_512_ms", 1.0, 64, |iters| {
        (0..iters)
            .map(|_| {
                let t = Instant::now();
                let s = session(512);
                let wall = t.elapsed().as_secs_f64();
                drop(s);
                wall
            })
            .sum()
    });
}

fn pfs_kernels(l: &mut Ledger) {
    l.op("pfs.stripe_split_ns", || {
        stripe_split(12345, MB, 64 * KB, 8)
    });
    // a fresh filesystem per batch keeps the cache and extent maps from
    // growing across batches; building it is outside the clock
    let writes = |len: u64, stride: u64| {
        move |iters: u64| {
            let pfs = Pfs::new(PfsConfig::default());
            let (f, mut t) = pfs.open("ledger", 0.0);
            timed(|| {
                for i in 0..iters {
                    t = pfs.write(0, &f, i * stride, DataRef::Len(len), t);
                }
                black_box(t);
            })
        }
    };
    l.unit("pfs.write_ns", 1.0, 1 << 16, writes(32 * KB, 32 * KB));
    l.unit(
        "pfs.write_rmw_ns",
        1.0,
        1 << 16,
        writes(32 * KB + 8, 32 * KB + 8),
    );
    l.unit("pfs.read_ns", 1.0, 1 << 16, |iters| {
        let pfs = Pfs::new(PfsConfig::default());
        let (f, mut t) = pfs.open("ledger", 0.0);
        for i in 0..2048 {
            t = pfs.write(0, &f, i * 32 * KB, DataRef::Len(32 * KB), t);
        }
        timed(|| {
            for i in 0..iters {
                t = pfs.read(0, &f, (i % 2048) * 32 * KB, 32 * KB, None, t).1;
            }
            black_box(t);
        })
    });
}

/// 32 KB per rank per call in 1 kB chunks through a strided view: the
/// collective takes the two-phase path, the independent call does not.
fn mpiio_write_kernel(c: &mut Comm, io: &Arc<IoWorld>, iters: u64, collective: bool) {
    let (rank, n, chunk) = (c.rank() as u64, c.size() as u64, KB);
    let Ok(mut f) = MpiFile::open(
        c,
        io,
        "ledger",
        AMode::read_write_create(),
        Hints::default(),
    ) else {
        return;
    };
    f.set_view(FileView::Strided {
        disp: rank * chunk,
        block: chunk,
        stride: n * chunk,
    });
    let data = vec![0u8; 32 * KB as usize];
    for i in 0..iters {
        if collective {
            f.write_all(c, &data);
        } else {
            f.write_at(c, i * 32 * KB, &data);
        }
    }
    f.close(c);
}

fn mpiio_kernels(l: &mut Ledger, machine: &Machine) {
    let view = FileView::Strided {
        disp: 4096,
        block: 1024,
        stride: 16 * 1024,
    };
    l.op("mpiio.map_range_ns", || view.map_range(0, MB));

    let session = World::sim_partition(machine.network(), 32).session();
    for (name, collective) in [
        ("mpiio.write_all_p32_us", true),
        ("mpiio.write_at_p32_us", false),
    ] {
        l.unit(name, 1.0, 1 << 12, |iters| {
            let Some(pfs) = machine.filesystem() else {
                return 0.0;
            };
            let io = IoWorld::sim(pfs);
            timed(|| {
                session.run(move |c| mpiio_write_kernel(c, &io, iters, collective));
            })
        });
    }
}

/// A ~6 kB result report and the request that asks for it.
struct Sample {
    spec: JobSpec,
    payload: String,
    reply: String,
}

fn json_and_machines_kernels(l: &mut Ledger, sample: &Sample) -> Result<(), String> {
    l.op("json.parse_request_ns", || {
        beff_json::parse(&sample.payload)
    });
    let sized = sample.spec.resolve().map_err(|e| e.to_string())?;
    let result =
        beff_bench::run_beff_on(&sized, sample.spec.procs, &sample.spec.beff_config(&sized));
    let bytes = beff_json::to_string(&result);
    l.notes
        .push(format!("json.*_result_us: a {} byte report", bytes.len()));
    l.op("json.parse_result_us", || beff_json::parse(&bytes));
    l.op("json.encode_result_us", || beff_json::to_string(&result));
    l.op("machines.by_key_ns", || by_key("sx4"));
    Ok(())
}

/// The hit path taken apart, each piece called as `handle_frame` calls
/// it, then the real thing; what the pieces do not explain is
/// `serve.hit_unattributed_ns`.
fn serve_hit_kernels(
    l: &mut Ledger,
    universe: &Universe,
    warmed: &Warmed,
    sample: &Sample,
) -> Result<(), String> {
    let mut sink = Vec::new();
    l.op("serve.wire_roundtrip_ns", || {
        let frame = wire::encode(&sample.payload);
        let request = wire::read_frame(&mut Cursor::new(&frame));
        sink.clear();
        let written = wire::write_frame(&mut sink, &sample.reply);
        (
            request.is_ok(),
            written.is_ok(),
            wire::decode(&sink).is_ok(),
        )
    });
    let parsed = beff_json::parse(&sample.payload).map_err(|e| e.to_string())?;
    let spec_json = field(&parsed, "spec").ok_or("payload has no spec")?;
    l.op("serve.spec_from_json_ns", || JobSpec::from_json(spec_json));
    l.op("serve.spec_resolve_ns", || sample.spec.resolve());
    l.op("serve.spec_key_ns", || sample.spec.canonical_key());
    let cache = ResultCache::new();
    for (spec, tail) in universe.specs.iter().zip(&warmed.tails) {
        cache.insert(spec.canonical_key(), tail.clone());
    }
    let key = sample.spec.canonical_key();
    l.op("serve.cache_get_ns", || cache.get(&key));
    l.op("serve.handle_hit_ns", || {
        warmed.server.handle_frame(&sample.payload)
    });
    // handle_frame: parse, from_json, resolve, key, cache get, digest
    // (the key again, hashed)
    let pieces = l.get("json.parse_request_ns")
        + l.get("serve.spec_from_json_ns")
        + l.get("serve.spec_resolve_ns")
        + 2.0 * l.get("serve.spec_key_ns")
        + l.get("serve.cache_get_ns");
    l.set(
        "serve.hit_unattributed_ns",
        l.get("serve.handle_hit_ns") - pieces,
    );
    Ok(())
}

fn serve_miss_kernels(l: &mut Ledger, sample: &Sample) -> Result<(), String> {
    let sized = sample.spec.resolve().map_err(|e| e.to_string())?;
    let pool = SessionPool::new();
    let first = pool.checkout(&sample.spec, &sized);
    pool.checkin(first);
    l.op("serve.pool_cycle_ns", || {
        let p = pool.checkout(&sample.spec, &sized);
        pool.checkin(p);
    });
    let spec16 = JobSpec::new("t3e", 16);
    let sized16 = spec16.resolve().map_err(|e| e.to_string())?;
    l.unit("serve.pool_cold_p16_ms", 1.0, 64, |iters| {
        let cold = SessionPool::new();
        (0..iters)
            .map(|_| {
                let t = Instant::now();
                let p = cold.checkout(&spec16, &sized16);
                let wall = t.elapsed().as_secs_f64();
                drop(p);
                wall
            })
            .sum()
    });

    let path = report::out_dir()?.join(format!("ledger-{}.jrn", std::process::id()));
    let key = sample.spec.canonical_key();
    // a fresh file per batch, capped, so the ledger writes megabytes,
    // not gigabytes
    l.unit("serve.journal_append_us", 1.0, 1000, |iters| {
        let _ = std::fs::remove_file(&path);
        let Ok((journal, _, _)) = Journal::open(&path) else {
            return 0.0;
        };
        timed(|| {
            for _ in 0..iters {
                black_box(journal.append(&key, &sample.reply).is_ok());
            }
        })
    });
    let _ = std::fs::remove_file(&path);
    {
        let (journal, _, _) = Journal::open(&path).map_err(|e| e.to_string())?;
        for i in 0..1000 {
            journal
                .append(&format!("{key}#{i}"), &sample.reply)
                .map_err(|e| e.to_string())?;
        }
    }
    l.op("serve.journal_replay_1k_ms", || {
        Journal::open(&path).map(|(_, records, _)| records.len())
    });
    let _ = std::fs::remove_file(&path);
    Ok(())
}

// ---------------------------------------------------------------------
// the traced re-runs
// ---------------------------------------------------------------------

fn job_of<'a>(jobs: &'a [JobTrace], key: &str, procs: usize) -> Option<&'a JobTrace> {
    jobs.iter().find(|j| j.key == key && j.procs == procs)
}

fn table1_layers(l: &mut Ledger, pass: &TracedPass) {
    let sum = |f: fn(&JobTrace) -> u64| pass.jobs.iter().map(f).sum::<u64>() as f64;
    l.set("netsim.msgs_per_pass", sum(|j| j.traffic.port_out.messages));
    l.set(
        "netsim.hop_traversals_per_pass",
        sum(|j| j.traffic.hop.messages),
    );
    l.set("netsim.bytes_per_pass", sum(|j| j.traffic.port_out.bytes));
    for (name, procs) in [
        ("core.job_p2_ns_per_msg", 2),
        ("core.job_p64_ns_per_msg", 64),
        ("core.job_p512_ns_per_msg", 512),
    ] {
        if let Some(j) = job_of(&pass.jobs, "t3e", procs) {
            l.set(
                name,
                j.wall_s * 1e9 / j.traffic.port_out.messages.max(1) as f64,
            );
        }
    }
    if let Some(hero) = job_of(&pass.jobs, "t3e", 512) {
        l.set("core.hero_job_s", hero.wall_s);
    }
}

/// Self time per layer of one traced re-run, as JSON for the result
/// file and as a printed table.
fn layer_table(workload: &str, tr: &Tracer) -> Json {
    let layers = tr.self_ns_by_layer();
    let total: u64 = layers.values().sum::<u64>().max(1);
    println!(
        "  self time by layer, {workload} ({} spans):",
        tr.recorded()
    );
    for (layer, ns) in &layers {
        println!(
            "    {layer:<10} {:>12.3} ms {:>6.2} %",
            *ns as f64 / 1e6,
            *ns as f64 * 100.0 / total as f64
        );
    }
    let spans: Vec<Json> = tr
        .by_name()
        .iter()
        .map(|(name, a)| {
            Json::object()
                .field("span", *name)
                .field("count", &a.count)
                .field("total_ms", &(a.total_ns as f64 / 1e6))
                .field("self_ms", &(a.self_ns as f64 / 1e6))
                .build()
        })
        .collect();
    Json::object()
        .field("workload", workload)
        .raw(
            "self_ms_by_layer",
            Json::Obj(
                layers
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::Float(*v as f64 / 1e6)))
                    .collect(),
            ),
        )
        .raw("spans", Json::Arr(spans))
        .build()
}

/// Share of the computed replies' service time that
/// `Partition::try_run` accounts for: each fresh spec of the mix is run
/// again, outside the server, on a pooled partition of its shape (the
/// server's own pool was just as warm).
fn miss_run_share(phase: &serving::MixPhase) -> Result<f64, String> {
    let pool = SessionPool::new();
    for &(machine, procs) in &serving::SHAPES {
        let spec = JobSpec::new(machine, procs);
        let sized = spec.resolve().map_err(|e| e.to_string())?;
        let partition = pool.checkout(&spec, &sized);
        pool.checkin(partition);
    }
    let mut run_s = 0.0;
    for spec in &phase.miss_specs {
        let sized = spec.resolve().map_err(|e| e.to_string())?;
        let cfg = spec.beff_config(&sized);
        let partition = pool.checkout(spec, &sized);
        let t = Instant::now();
        let ok = partition.try_run(&cfg).is_ok();
        run_s += t.elapsed().as_secs_f64();
        pool.checkin(partition);
        if !ok {
            return Err(format!("re-running seed {:#x} failed", spec.seed));
        }
    }
    let miss_s: f64 = phase
        .raw_service_s
        .iter()
        .zip(&phase.computed)
        .filter(|(_, &c)| c)
        .map(|(s, _)| *s)
        .sum();
    Ok(if miss_s > 0.0 { run_s / miss_s } else { 0.0 })
}

fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    (traced / untraced.max(1e-12) - 1.0) * 100.0
}

fn hit_service_median(phase: &serving::MixPhase) -> f64 {
    let hits: Vec<f64> = phase
        .service_s
        .iter()
        .zip(&phase.computed)
        .filter(|(_, &c)| !c)
        .map(|(s, _)| *s)
        .collect();
    stats::median(&hits)
}

/// The traced run of `workload`: the whole ledger, with the tracing
/// overhead and the Chrome trace file taken from `workload`'s re-run.
pub fn run(args: &Args, workload: &'static str) -> Result<RunReport, String> {
    let mut l = Ledger::default();
    let mut clock = RefClock::new();
    let machine = t3e();
    let mut tally = Tally::default();
    let mut ops = 0u64;
    let mut layers = Vec::new();
    let mut overhead = 0.0;
    let mut chrome = String::new();
    let trace_s = (args.seconds as f64 / 10.0).max(0.2);

    println!(
        "ledger: unit costs (median of {BATCHES} batches of ~{} ms)",
        BATCH_S * 1e3
    );
    sim_kernels(&mut l);
    batch_speedup(&mut l, &machine);
    netsim_kernels(&mut l, &machine);
    world_kernels(&mut l, &machine);
    pfs_kernels(&mut l);
    mpiio_kernels(&mut l, &machine);

    println!("ledger: table1 re-run at trace size (one pass)");
    let mut tr = Tracer::new(true);
    let pass = jobs::table1_traced(&mut clock, &mut tr, workload == "table1")?;
    table1_layers(&mut l, &pass);
    layers.push(layer_table("table1", &tr));
    let table1_virtual = pass.virtual_block.clone();
    if let Some(untraced) = pass.untraced_s {
        overhead = overhead_pct(untraced, pass.traced_s);
        chrome = tr.chrome_json(workload);
    }
    ops += pass.ops;
    tally.failed += pass.failed;
    tally.notes.extend(pass.notes);

    println!("ledger: fig3 re-run at trace size (one pass)");
    let mut tr = Tracer::new(true);
    let pass = jobs::fig3_traced(&mut clock, &mut tr, workload == "fig3")?;
    if let Some(j) = job_of(&pass.jobs, "ibm-sp", 64) {
        l.set("core.io_job_sp64_s", j.wall_s);
    }
    layers.push(layer_table("fig3", &tr));
    let fig3_virtual = pass.virtual_block.clone();
    if let Some(untraced) = pass.untraced_s {
        overhead = overhead_pct(untraced, pass.traced_s);
        chrome = tr.chrome_json(workload);
    }
    ops += pass.ops;
    tally.failed += pass.failed;
    tally.notes.extend(pass.notes);

    println!("ledger: serve workloads at trace size ({trace_s} s each, untraced then traced)");
    let universe = Universe::new();
    let warmed = serving::warm(
        &universe,
        Some(&format!("ledger-serve-{}.jrn", std::process::id())),
    )?;
    let sample = Sample {
        spec: universe.specs[0].clone(),
        payload: universe.payloads[0].clone(),
        reply: format!("{{\"cached\":true{}", warmed.tails[0]),
    };
    json_and_machines_kernels(&mut l, &sample)?;
    serve_hit_kernels(&mut l, &universe, &warmed, &sample)?;
    serve_miss_kernels(&mut l, &sample)?;

    let mut off = Tracer::new(false);
    let hot = serving::hot_phase(
        &mut clock, &mut off, &universe, &warmed, args.seed, trace_s, WINDOW, &mut tally,
    );
    l.set("bench.hot_p999_us", hot.p999_us());
    let mut tr = Tracer::new(true);
    let hot_traced = serving::hot_phase(
        &mut clock, &mut tr, &universe, &warmed, args.seed, trace_s, WINDOW, &mut tally,
    );
    layers.push(layer_table("serve_hot", &tr));
    if workload == "serve_hot" {
        overhead = overhead_pct(hot.req_us().value, hot_traced.req_us().value);
        chrome = tr.chrome_json(workload);
    }
    ops += hot.requests() + hot_traced.requests();

    let mix = serving::mix_phase(
        &mut clock, &mut off, &universe, &warmed, args.seed, trace_s, &mut tally,
    );
    let lat = mix.latency(args.seed);
    l.set("bench.late_p99_ms", lat.late_p99_ms);
    l.set("bench.mix_hit_p99_ms", lat.hit_p99_ms);
    let mut tr = Tracer::new(true);
    let mix_traced = serving::mix_phase(
        &mut clock,
        &mut tr,
        &universe,
        &warmed,
        args.seed ^ 1,
        trace_s,
        &mut tally,
    );
    layers.push(layer_table("serve_mix", &tr));
    if workload == "serve_mix" {
        overhead = overhead_pct(hit_service_median(&mix), hit_service_median(&mix_traced));
        chrome = tr.chrome_json(workload);
    }
    serving::audit_misses(&warmed, &mix, &mut tally);
    l.set("serve.miss_run_share", miss_run_share(&mix)?);
    let stats_doc = serving::server_stats(&warmed.server, &mut tally);
    for (metric, stat) in [
        ("serve.cache_hits", "cache_hits"),
        ("serve.cache_misses", "cache_misses"),
        ("serve.partitions_built", "partitions_built"),
    ] {
        l.set(metric, field(&stats_doc, stat).and_then(num).unwrap_or(0.0));
    }
    ops += (mix.service_s.len() + mix_traced.service_s.len()) as u64;
    l.set("bench.trace_overhead_pct", overhead);

    let trace_path = report::out_dir()?.join(format!("{workload}.trace.json"));
    report::write_file(&trace_path, &chrome)?;
    println!("ledger: spans of {workload} -> {}", trace_path.display());

    let virtual_block = Json::object()
        .raw("table1", table1_virtual)
        .raw("fig3", fig3_virtual)
        .field("universe_digest", &serving::universe_digest(&warmed.tails))
        .build();
    let (metrics, mut notes) = l.into_metrics();
    notes.extend(tally.notes);
    notes.push(clock.note());
    Ok(RunReport {
        workload,
        trace: true,
        seed: args.seed,
        seconds: args.seconds,
        ops,
        failed_ops: tally.failed,
        metrics,
        virtual_block,
        notes,
        layers: Some(Json::Arr(layers)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_harness_reports_the_median_cost_per_operation() {
        let mut l = Ledger::default();
        // a "kernel" that claims 1 µs per iteration, 4 operations each
        l.unit("sim.port_hit_ns", 4.0, 1 << 30, |iters| iters as f64 * 1e-6);
        assert!((l.get("sim.port_hit_ns") - 250.0).abs() < 1e-6);
        let (metrics, notes) = l.into_metrics();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(metrics[2].name, "sim.port_hit_ns");
        assert_eq!(
            notes.len(),
            PER_LAYER.len() - 1,
            "unmeasured names are said to be"
        );
    }

    #[test]
    fn benchmark_json_names_exactly_the_metrics_the_code_reports() {
        let doc = match report::read_json(&report::repo_root().join("BENCHMARK.json")) {
            Ok(d) => d,
            Err(e) => panic!("{e}"),
        };
        let listed = |key: &str| -> Vec<(String, String, String)> {
            field(&doc, key)
                .map(report::items)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    let s = |k: &str| field(m, k).and_then(report::text).unwrap_or("").to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let per_layer: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string(), m.2.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), per_layer);
        let e2e: Vec<_> = listed("end_to_end")
            .into_iter()
            .map(|m| (m.0, m.1))
            .collect();
        let want: Vec<_> = report::END_TO_END
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string()))
            .collect();
        assert_eq!(e2e, want);
        let workloads: Vec<String> = listed("workloads").into_iter().map(|m| m.0).collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn overhead_is_relative_to_the_untraced_run() {
        assert!((overhead_pct(2.0, 2.2) - 10.0).abs() < 1e-9);
        assert!(overhead_pct(2.0, 1.9) < 0.0);
    }
}
