//! Random access patterns — the paper's §6 *future work*, implemented
//! as an extension study: "Although [Crandall et al.] stated that 'the
//! majority of the request patterns are sequential', we should examine
//! whether random access patterns can be included into the b_eff_io
//! benchmark."
//!
//! The study writes a file sequentially, then performs time-driven
//! random-offset accesses of several chunk sizes and reports
//! random-vs-sequential bandwidth ratios. Random *writes* stay within
//! each rank's own region (so the pattern is race-free and MPI-IO
//! consistency-clean); random *reads* roam the whole file.

use super::schedule::TimeLoop;
use beff_json::{Json, ToJson};
use beff_mpi::{Comm, ReduceOp};
use beff_mpiio::{AMode, Hints, IoWorld, MpiFile};
use beff_netsim::{Rng64, Secs, MB};
use std::sync::Arc;

/// Configuration of the random-access study.
#[derive(Debug, Clone)]
pub struct RandomIoConfig {
    /// Bytes of file region per rank.
    pub region_per_rank: u64,
    /// Chunk sizes to test.
    pub chunks: Vec<u64>,
    /// Time budget per (chunk, mode) measurement.
    pub time_per_point: Secs,
    /// RNG seed (same offsets on every run).
    pub seed: u64,
    pub prefix: String,
}

impl RandomIoConfig {
    pub fn quick() -> Self {
        Self {
            region_per_rank: 8 * MB,
            chunks: vec![1024, 32 * 1024, MB],
            time_per_point: 1.0,
            seed: 0x5EED,
            prefix: "randio".into(),
        }
    }
}

impl ToJson for RandomIoConfig {
    fn to_json(&self) -> Json {
        Json::object()
            .field("region_per_rank", &self.region_per_rank)
            .field("chunks", &self.chunks)
            .field("time_per_point", &self.time_per_point)
            .field("seed", &self.seed)
            .field("prefix", &self.prefix)
            .build()
    }
}

/// One measured point of the study.
#[derive(Debug, Clone)]
pub struct RandomIoPoint {
    pub chunk: u64,
    /// Sequential read bandwidth, MB/s aggregate.
    pub seq_read_mbps: f64,
    /// Random read bandwidth.
    pub rand_read_mbps: f64,
    /// Random write bandwidth (within own region).
    pub rand_write_mbps: f64,
}

impl ToJson for RandomIoPoint {
    fn to_json(&self) -> Json {
        Json::object()
            .field("chunk", &self.chunk)
            .field("seq_read_mbps", &self.seq_read_mbps)
            .field("rand_read_mbps", &self.rand_read_mbps)
            .field("rand_write_mbps", &self.rand_write_mbps)
            .build()
    }
}

/// Results over all chunk sizes.
#[derive(Debug, Clone)]
pub struct RandomIoResult {
    pub nprocs: usize,
    pub points: Vec<RandomIoPoint>,
}

impl ToJson for RandomIoResult {
    fn to_json(&self) -> Json {
        Json::object()
            .field("nprocs", &self.nprocs)
            .field("points", &self.points)
            .build()
    }
}

fn measure(
    comm: &mut Comm,
    f: &mut MpiFile,
    cfg: &RandomIoConfig,
    chunk: u64,
    mode: Mode,
    buf: &mut [u8],
) -> f64 {
    let n = comm.size() as u64;
    let region = cfg.region_per_rank;
    let total = n * region;
    let slots_global = total / chunk;
    let slots_local = region / chunk;
    let mut rng = Rng64::new(cfg.seed ^ (chunk << 8) ^ comm.rank() as u64);
    comm.barrier();
    let t0 = comm.now();
    let mut lp = TimeLoop::new(comm, cfg.time_per_point, false, super::schedule::Termination::RootCheck);
    let mut moved = 0u64;
    let mut seq_pos = 0u64;
    while lp.next(comm) {
        match mode {
            Mode::SeqRead => {
                let off = comm.rank() as u64 * region + seq_pos;
                f.read_at(comm, off, &mut buf[..chunk as usize]);
                seq_pos = (seq_pos + chunk) % region.saturating_sub(chunk).max(1);
            }
            Mode::RandRead => {
                let off = rng.below(slots_global.max(1)) * chunk;
                f.read_at(comm, off, &mut buf[..chunk as usize]);
            }
            Mode::RandWrite => {
                let off = comm.rank() as u64 * region + rng.below(slots_local.max(1)) * chunk;
                f.write_at(comm, off, &buf[..chunk as usize]);
            }
        }
        moved += chunk;
    }
    if mode == Mode::RandWrite {
        f.sync(comm);
    }
    let dt = comm.allreduce_scalar(comm.now() - t0, ReduceOp::Max).max(1e-12);
    let total_moved = comm.allreduce_scalar(moved as f64, ReduceOp::Sum);
    total_moved / MB as f64 / dt
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    SeqRead,
    RandRead,
    RandWrite,
}

/// Run the random-access study. Collective; every rank returns the same
/// (reduced) result.
pub fn run_random_io(comm: &mut Comm, io: &Arc<IoWorld>, cfg: &RandomIoConfig) -> RandomIoResult {
    let path = format!("{}_file", cfg.prefix);
    let region = cfg.region_per_rank;

    // lay the file down sequentially with large writes
    let mut f = MpiFile::open(comm, io, &path, AMode::read_write_create(), Hints::default())
        .expect("random-io open");
    let max_chunk = cfg.chunks.iter().copied().max().unwrap_or(MB).max(MB);
    let mut buf = vec![(comm.rank() % 251) as u8 + 1; max_chunk as usize];
    let mut pos = comm.rank() as u64 * region;
    let mut remaining = region;
    while remaining > 0 {
        let step = remaining.min(MB);
        f.write_at(comm, pos, &buf[..step as usize]);
        pos += step;
        remaining -= step;
    }
    f.sync(comm);
    comm.barrier();

    let mut points = Vec::new();
    for &chunk in &cfg.chunks {
        assert!(chunk <= region, "chunk {chunk} larger than region {region}");
        let seq = measure(comm, &mut f, cfg, chunk, Mode::SeqRead, &mut buf);
        let rr = measure(comm, &mut f, cfg, chunk, Mode::RandRead, &mut buf);
        let rw = measure(comm, &mut f, cfg, chunk, Mode::RandWrite, &mut buf);
        points.push(RandomIoPoint {
            chunk,
            seq_read_mbps: seq,
            rand_read_mbps: rr,
            rand_write_mbps: rw,
        });
    }
    f.close(comm);
    RandomIoResult { nprocs: comm.size(), points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beff_mpi::World;
    use beff_netsim::{MachineNet, NetParams, Topology};
    use beff_pfs::{Pfs, PfsConfig};

    fn setup(n: usize, cache_mb: u64) -> (World, Arc<IoWorld>) {
        let net =
            Arc::new(MachineNet::new(Topology::Crossbar { procs: n }, NetParams::default()));
        let pfs = Arc::new(Pfs::new(PfsConfig {
            clients: n,
            store_data: false,
            cache_bytes: cache_mb * MB,
            ..PfsConfig::default()
        }));
        (World::sim(net), IoWorld::sim(pfs))
    }

    #[test]
    fn study_runs_and_reports_all_chunks() {
        let (w, io) = setup(2, 0);
        let cfg = RandomIoConfig { time_per_point: 0.2, ..RandomIoConfig::quick() };
        let rs = w.run(move |c| run_random_io(c, &io, &cfg));
        let r = &rs[0];
        assert_eq!(r.points.len(), 3);
        for p in &r.points {
            assert!(p.seq_read_mbps > 0.0, "{p:?}");
            assert!(p.rand_read_mbps > 0.0, "{p:?}");
            assert!(p.rand_write_mbps > 0.0, "{p:?}");
        }
        // all ranks agree
        assert!((rs[0].points[0].rand_read_mbps - rs[1].points[0].rand_read_mbps).abs() < 1e-9);
    }

    #[test]
    fn random_reads_do_not_beat_sequential_without_cache() {
        let (w, io) = setup(2, 0);
        let cfg = RandomIoConfig {
            time_per_point: 0.3,
            chunks: vec![32 * 1024],
            ..RandomIoConfig::quick()
        };
        let rs = w.run(move |c| run_random_io(c, &io, &cfg));
        let p = &rs[0].points[0];
        // uncached random access pays unaligned/uncoalesced costs; it
        // must not exceed sequential bandwidth by more than noise
        assert!(
            p.rand_read_mbps <= p.seq_read_mbps * 1.25,
            "rand {} vs seq {}",
            p.rand_read_mbps,
            p.seq_read_mbps
        );
    }
}
