//! The per-pattern-type access drivers of b_eff_io.
//!
//! Layout bookkeeping: within one pattern type, each pattern appends
//! after the data of all previous patterns (the paper's footnote 1 —
//! "the alignment is implicitly defined by the data written by all
//! previous patterns in the same pattern type"). The *initial write*
//! defines the authoritative layout; rewrite and read follow it, capped
//! at the written repetition counts so they never run off the end of
//! the file.
//!
//! Every access hands MPI-IO a slice of the rank's scratch ([`Bufs`]).
//! In a world whose payload travels as lengths nobody reads those
//! bytes, so nobody writes them either: the drivers are the same, the
//! buffers stay untouched mappings, and a call costs what it prices.

use super::patterns::{all_patterns, IoPattern, PatternType};
use super::result::{AccessMethod, PatternDetail, TypeRun};
use super::schedule::{pattern_time, Termination, TimeLoop};
use beff_json::{Json, ToJson};
use beff_mpi::{Comm, Pages, ReduceOp};
use beff_mpiio::{AMode, FileView, Hints, IoWorld, MpiFile};
use beff_netsim::{Secs, MB};
use std::sync::Arc;

/// Configuration of a b_eff_io run.
#[derive(Debug, Clone)]
pub struct BeffIoConfig {
    /// Scheduled time T for the whole partition (paper: ≥ 900 s for
    /// official values; scaled down for CI).
    pub t_sched: Secs,
    /// Memory per node: determines M_PART = max(2 MB, mem/128).
    pub mem_per_node: u64,
    pub termination: Termination,
    pub hints: Hints,
    /// File name prefix on the storage backend.
    pub prefix: String,
    /// Verify read data against the written fill pattern (requires
    /// copy-data + store-data modes).
    pub verify: bool,
}

impl ToJson for BeffIoConfig {
    fn to_json(&self) -> Json {
        Json::object()
            .field("t_sched", &self.t_sched)
            .field("mem_per_node", &self.mem_per_node)
            .field("termination", &self.termination)
            .field("hints", &self.hints)
            .field("prefix", &self.prefix)
            .field("verify", &self.verify)
            .build()
    }
}

impl BeffIoConfig {
    /// Paper-fidelity parameters (T = 15 minutes).
    pub fn paper(mem_per_node: u64) -> Self {
        Self {
            t_sched: 900.0,
            mem_per_node,
            termination: Termination::RootCheck,
            hints: Hints::default(),
            prefix: "beffio".into(),
            verify: false,
        }
    }

    /// Scaled-down schedule: same pattern table, small T.
    pub fn quick(mem_per_node: u64) -> Self {
        Self { t_sched: 6.0, ..Self::paper(mem_per_node) }
    }

    pub fn with_t(mut self, t: Secs) -> Self {
        self.t_sched = t;
        self
    }

    pub fn with_verify(mut self) -> Self {
        self.verify = true;
        self
    }
}

/// Bookkeeping shared across the three access methods.
#[derive(Debug, Clone)]
pub struct RunState {
    /// Local written repetitions, indexed by pattern id (0..=42).
    pub written: [u64; 43],
    /// Agreed (max over ranks) written repetitions, by pattern id.
    pub agreed: [u64; 43],
    /// Size-driven repetitions of the segmented types, per standard
    /// chunk-size row.
    pub seg_reps: [u64; 8],
    /// Segment size (multiple of 1 MB).
    pub segment: u64,
}

impl RunState {
    pub fn new() -> Self {
        Self { written: [0; 43], agreed: [0; 43], seg_reps: [1; 8], segment: MB }
    }
}

impl Default for RunState {
    fn default() -> Self {
        Self::new()
    }
}

/// Write/read scratch buffers, each M_PART-sized — megabytes per rank.
/// The write side carries the rank's fill byte (what read verification
/// checks) only in a world whose payload bytes move; a no-copy world
/// hands every call a length, never reads either buffer, and so never
/// touches them. They are [`Pages`], not `Vec`s: untouched means
/// unmapped zero pages on every run, not whenever `calloc` happened to
/// hand out fresh memory.
pub struct Bufs {
    pub w: Pages,
    pub r: Pages,
    pub fill: u8,
}

impl Bufs {
    /// `copies_payload` is [`Comm::copies_payload`] of the world the
    /// buffers will be used in.
    pub fn new(rank: usize, max_call: u64, copies_payload: bool) -> Self {
        let fill = (rank % 251) as u8 + 1;
        let mut w = Pages::zeroed(max_call as usize);
        if copies_payload {
            w.fill(fill);
        }
        Self { w, r: Pages::zeroed(max_call as usize), fill }
    }
}

fn method_amode(m: AccessMethod) -> AMode {
    match m {
        AccessMethod::InitialWrite => AMode::create_write(),
        AccessMethod::Rewrite => AMode::write_only(),
        AccessMethod::Read => AMode::read_only(),
    }
}

fn type_patterns(t: PatternType) -> Vec<IoPattern> {
    all_patterns().into_iter().filter(|p| p.ptype == t).collect()
}

fn max_u64(comm: &mut Comm, v: u64) -> u64 {
    comm.allreduce_scalar(v as f64, ReduceOp::Max) as u64
}

fn sum_u64(comm: &mut Comm, v: u64) -> u64 {
    comm.allreduce_scalar(v as f64, ReduceOp::Sum) as u64
}

fn max_f64(comm: &mut Comm, v: f64) -> f64 {
    comm.allreduce_scalar(v, ReduceOp::Max)
}

fn verify_buf(buf: &[u8], fill: u8, what: &str) {
    if let Some(pos) = buf.iter().position(|&b| b != fill) {
        panic!("data verification failed in {what}: byte {pos} is {} not {fill}", buf[pos]);
    }
}

/// Run one pattern type under one access method. Collective over
/// `comm`; `selfc` is this rank's size-1 communicator (type 2 opens).
#[allow(clippy::too_many_arguments)]
pub fn run_pattern_type(
    comm: &mut Comm,
    selfc: &mut Comm,
    io: &Arc<IoWorld>,
    cfg: &BeffIoConfig,
    method: AccessMethod,
    ptype: PatternType,
    state: &mut RunState,
    bufs: &mut Bufs,
) -> TypeRun {
    match ptype {
        PatternType::Scatter => run_scatter(comm, io, cfg, method, state, bufs),
        PatternType::Shared => run_shared(comm, io, cfg, method, state, bufs),
        PatternType::Separate => run_separate(comm, selfc, io, cfg, method, state, bufs),
        PatternType::Segmented | PatternType::SegColl => {
            run_segmented(comm, io, cfg, method, ptype, state, bufs)
        }
    }
}

/// Pattern type 0: strided collective access, scattering memory chunks
/// of L bytes into disk chunks of l bytes with one call.
fn run_scatter(
    comm: &mut Comm,
    io: &Arc<IoWorld>,
    cfg: &BeffIoConfig,
    method: AccessMethod,
    state: &mut RunState,
    bufs: &mut Bufs,
) -> TypeRun {
    let mpart = super::patterns::mpart(cfg.mem_per_node);
    let sum_u = super::patterns::sum_u();
    let n = comm.size() as u64;
    let rank = comm.rank() as u64;
    let path = format!("{}_t0", cfg.prefix);

    comm.barrier();
    let t_open = comm.now();
    let mut f = MpiFile::open(comm, io, &path, method_amode(method), cfg.hints)
        .expect("type 0 open");

    let mut base = 0u64;
    let mut details = Vec::new();
    let mut total_bytes = 0u64;
    for p in type_patterns(PatternType::Scatter) {
        let l = p.l(mpart);
        let call = p.call_bytes(mpart) as usize;
        f.set_view(FileView::Strided { disp: base + rank * l, block: l, stride: n * l });
        let budget = pattern_time(cfg.t_sched, p.u, sum_u);
        let cap = if method == AccessMethod::InitialWrite {
            u64::MAX
        } else {
            state.agreed[p.id].max(1)
        };
        comm.barrier();
        let p_t0 = comm.now();
        let mut lp =
            TimeLoop::new(comm, budget, true, cfg.termination).with_max_iters(cap);
        while lp.next(comm) {
            if method.is_write() {
                f.write_all(comm, &bufs.w[..call]);
            } else {
                f.read_all(comm, &mut bufs.r[..call]);
                if cfg.verify {
                    verify_buf(&bufs.r[..call], bufs.fill, "type 0 read_all");
                }
            }
        }
        if method.is_write() {
            f.sync(comm);
        }
        let reps = lp.iterations();
        if method == AccessMethod::InitialWrite {
            state.written[p.id] = reps;
        }
        let secs = max_f64(comm, comm.now() - p_t0);
        let bytes = sum_u64(comm, reps * call as u64);
        total_bytes += bytes;
        details.push(PatternDetail {
            id: p.id,
            chunk_label: p.chunk_label(),
            chunk_bytes: l,
            reps: max_u64(comm, reps),
            bytes,
            secs,
        });
        let layout_reps = if method == AccessMethod::InitialWrite {
            reps
        } else {
            state.agreed[p.id].max(1)
        };
        base += n * layout_reps * call as u64;
    }
    f.close(comm);
    let open_close_secs = max_f64(comm, comm.now() - t_open);
    TypeRun { ptype: PatternType::Scatter, open_close_secs, bytes: total_bytes, patterns: details }
}

/// Pattern type 1: collective access through the shared file pointer,
/// one call per disk chunk (`MPI_File_write_ordered`).
fn run_shared(
    comm: &mut Comm,
    io: &Arc<IoWorld>,
    cfg: &BeffIoConfig,
    method: AccessMethod,
    state: &mut RunState,
    bufs: &mut Bufs,
) -> TypeRun {
    let mpart = super::patterns::mpart(cfg.mem_per_node);
    let sum_u = super::patterns::sum_u();
    let n = comm.size() as u64;
    let path = format!("{}_t1", cfg.prefix);

    comm.barrier();
    let t_open = comm.now();
    let mut f = MpiFile::open(comm, io, &path, method_amode(method), cfg.hints)
        .expect("type 1 open");

    let mut base = 0u64;
    let mut details = Vec::new();
    let mut total_bytes = 0u64;
    for p in type_patterns(PatternType::Shared) {
        let l = p.l(mpart) as usize;
        // align the shared pointer to the write layout
        comm.barrier();
        if comm.rank() == 0 {
            f.seek_shared(base);
        }
        comm.barrier();
        let budget = pattern_time(cfg.t_sched, p.u, sum_u);
        let cap = if method == AccessMethod::InitialWrite {
            u64::MAX
        } else {
            state.agreed[p.id].max(1)
        };
        let p_t0 = comm.now();
        let mut lp =
            TimeLoop::new(comm, budget, true, cfg.termination).with_max_iters(cap);
        while lp.next(comm) {
            if method.is_write() {
                f.write_ordered(comm, &bufs.w[..l]);
            } else {
                f.read_ordered(comm, &mut bufs.r[..l]);
                if cfg.verify {
                    verify_buf(&bufs.r[..l], bufs.fill, "type 1 read_ordered");
                }
            }
        }
        if method.is_write() {
            f.sync(comm);
        }
        let reps = lp.iterations();
        if method == AccessMethod::InitialWrite {
            state.written[p.id] = reps;
        }
        let secs = max_f64(comm, comm.now() - p_t0);
        let bytes = sum_u64(comm, reps * l as u64);
        total_bytes += bytes;
        details.push(PatternDetail {
            id: p.id,
            chunk_label: p.chunk_label(),
            chunk_bytes: l as u64,
            reps: max_u64(comm, reps),
            bytes,
            secs,
        });
        let layout_reps = if method == AccessMethod::InitialWrite {
            reps
        } else {
            state.agreed[p.id].max(1)
        };
        base += n * layout_reps * l as u64;
    }
    f.close(comm);
    let open_close_secs = max_f64(comm, comm.now() - t_open);
    TypeRun { ptype: PatternType::Shared, open_close_secs, bytes: total_bytes, patterns: details }
}

/// Pattern type 2: noncollective access to one file per process.
#[allow(clippy::too_many_arguments)]
fn run_separate(
    comm: &mut Comm,
    selfc: &mut Comm,
    io: &Arc<IoWorld>,
    cfg: &BeffIoConfig,
    method: AccessMethod,
    state: &mut RunState,
    bufs: &mut Bufs,
) -> TypeRun {
    let mpart = super::patterns::mpart(cfg.mem_per_node);
    let sum_u = super::patterns::sum_u();
    let path = format!("{}_t2_r{}", cfg.prefix, comm.rank());

    comm.barrier();
    let t_open = comm.now();
    let mut f = MpiFile::open(selfc, io, &path, method_amode(method), cfg.hints)
        .expect("type 2 open");

    let mut pos = 0u64; // local layout position
    let mut details = Vec::new();
    let mut total_bytes = 0u64;
    for p in type_patterns(PatternType::Separate) {
        let l = p.l(mpart) as usize;
        f.seek(pos);
        let budget = pattern_time(cfg.t_sched, p.u, sum_u);
        let cap = if method == AccessMethod::InitialWrite {
            u64::MAX
        } else {
            state.written[p.id].max(1) // local cap: files differ per rank
        };
        let p_t0 = comm.now();
        let mut lp =
            TimeLoop::new(comm, budget, false, cfg.termination).with_max_iters(cap);
        while lp.next(comm) {
            if method.is_write() {
                f.write(comm, &bufs.w[..l]);
            } else {
                f.read(comm, &mut bufs.r[..l]);
                if cfg.verify {
                    verify_buf(&bufs.r[..l], bufs.fill, "type 2 read");
                }
            }
        }
        if method.is_write() {
            f.sync(comm);
        }
        let reps = lp.iterations();
        if method == AccessMethod::InitialWrite {
            state.written[p.id] = reps;
        }
        let secs = max_f64(comm, comm.now() - p_t0);
        let bytes = sum_u64(comm, reps * l as u64);
        total_bytes += bytes;
        details.push(PatternDetail {
            id: p.id,
            chunk_label: p.chunk_label(),
            chunk_bytes: l as u64,
            reps: max_u64(comm, reps),
            bytes,
            secs,
        });
        let layout_reps = if method == AccessMethod::InitialWrite {
            reps
        } else {
            state.written[p.id].max(1)
        };
        pos += layout_reps * l as u64;
    }
    f.close(selfc);
    let open_close_secs = max_f64(comm, comm.now() - t_open);
    TypeRun { ptype: PatternType::Separate, open_close_secs, bytes: total_bytes, patterns: details }
}

/// Pattern types 3 and 4: one file of per-rank segments; size-driven
/// repetitions computed from the measurements of types 0–2; type 3
/// uses noncollective calls, type 4 collective ones.
fn run_segmented(
    comm: &mut Comm,
    io: &Arc<IoWorld>,
    cfg: &BeffIoConfig,
    method: AccessMethod,
    ptype: PatternType,
    state: &mut RunState,
    bufs: &mut Bufs,
) -> TypeRun {
    let mpart = super::patterns::mpart(cfg.mem_per_node);
    let rank = comm.rank() as u64;
    let seg = state.segment;
    let collective = ptype == PatternType::SegColl;
    let path = format!("{}_t{}", cfg.prefix, ptype as usize);

    comm.barrier();
    let t_open = comm.now();
    let mut f =
        MpiFile::open(comm, io, &path, method_amode(method), cfg.hints).expect("segmented open");
    f.set_view(FileView::Contiguous { disp: rank * seg });

    let mut pos = 0u64; // position within the segment (same on all ranks)
    let mut details = Vec::new();
    let mut total_bytes = 0u64;
    for p in type_patterns(ptype) {
        let p_t0 = comm.now();
        let (reps, moved) = if p.fillup {
            // fill (or re-walk) the rest of the segment in 1 MB steps
            let mut moved = 0u64;
            let mut reps = 0u64;
            while pos + moved < seg {
                let chunk = (seg - pos - moved).min(MB) as usize;
                if method.is_write() {
                    f.write(comm, &bufs.w[..chunk]);
                } else {
                    f.read(comm, &mut bufs.r[..chunk]);
                    if cfg.verify {
                        verify_buf(&bufs.r[..chunk], bufs.fill, "segment fill-up read");
                    }
                }
                moved += chunk as u64;
                reps += 1;
            }
            (reps, moved)
        } else {
            let l = p.l(mpart) as usize;
            let reps = state.seg_reps[p.std_row()];
            for _ in 0..reps {
                if method.is_write() {
                    if collective {
                        f.write_all(comm, &bufs.w[..l]);
                    } else {
                        f.write(comm, &bufs.w[..l]);
                    }
                } else if collective {
                    f.read_all(comm, &mut bufs.r[..l]);
                    if cfg.verify {
                        verify_buf(&bufs.r[..l], bufs.fill, "type 4 read_all");
                    }
                } else {
                    f.read(comm, &mut bufs.r[..l]);
                    if cfg.verify {
                        verify_buf(&bufs.r[..l], bufs.fill, "type 3 read");
                    }
                }
            }
            (reps, reps * l as u64)
        };
        if method.is_write() {
            f.sync(comm);
        }
        if method == AccessMethod::InitialWrite {
            state.written[p.id] = reps;
        }
        let secs = max_f64(comm, comm.now() - p_t0);
        let bytes = sum_u64(comm, moved);
        total_bytes += bytes;
        details.push(PatternDetail {
            id: p.id,
            chunk_label: if p.fillup { "fill-up".into() } else { p.chunk_label() },
            chunk_bytes: if p.fillup { MB } else { p.l(mpart) },
            reps: max_u64(comm, reps),
            bytes,
            secs,
        });
        pos += moved;
    }
    assert!(pos <= seg, "segment overflow: pos={pos} seg={seg}");
    f.close(comm);
    let open_close_secs = max_f64(comm, comm.now() - t_open);
    TypeRun { ptype, open_close_secs, bytes: total_bytes, patterns: details }
}
