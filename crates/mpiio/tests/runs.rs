//! A run of collective calls (`MpiFile::{write_all_n, read_all_n}`) is
//! the calls one by one, bit for bit: the same clocks, pointers, byte
//! counts and file, and the filesystem and the token left in the same
//! state — which a noncollective probe each rank makes right after the
//! run reads back, since the probe books the servers and the cache in
//! token order. In a world where the ranks can batch, the run is one
//! rendezvous a rank; everywhere else it is the calls.

use beff_check::{check_n, ensure_eq};
use beff_mpi::{Comm, World};
use beff_mpiio::{AMode, FileView, Hints, IoWorld, MpiFile};
use beff_netsim::{MachineNet, NetParams, Secs, Topology};
use beff_pfs::{Pfs, PfsConfig};
use std::sync::Arc;

/// One drawn world and its two runs, a write run and then a read run
/// from the start of every rank's segment.
struct Case {
    n: usize,
    t3e: bool,
    cache: bool,
    /// Each rank's view starts `rank · seg` bytes in; small strides
    /// overlap the ranks' ranges.
    seg: u64,
    wlen: Vec<usize>,
    rlen: Vec<usize>,
    wreps: u64,
    rreps: u64,
    /// Ring exchanges before each run: they reorder the token, and so
    /// who arrives last at the run's first agreement.
    shake: usize,
    stagger: Vec<Secs>,
    /// Where each rank's probe lands in its view.
    probe: Vec<u64>,
}

fn draw_len(g: &mut beff_check::Gen) -> usize {
    // whole and non-wellformed (+8 B) sizes, none, and anything
    let any = g.usize(1..=300_000);
    *g.choose(&[0, 1024, 1032, 8192, 65536, 65544, 1 << 20, any])
}

fn world(case: &Case) -> (World, Arc<IoWorld>) {
    let (world, pfs) = if case.t3e {
        let m = beff_machines::t3e();
        // beff-analyze: allow(unwrap): the T3E model has a filesystem
        (World::sim_partition(m.network(), case.n), m.io.expect("T3E I/O model"))
    } else {
        let net = MachineNet::new(Topology::Crossbar { procs: case.n }, NetParams::default());
        (World::sim(Arc::new(net)), PfsConfig { clients: case.n, ..PfsConfig::default() })
    };
    let cache_bytes = if case.cache { pfs.cache_bytes.max(1 << 26) } else { 0 };
    (world, IoWorld::sim(Arc::new(Pfs::new(PfsConfig { cache_bytes, ..pfs }))))
}

fn shake(c: &mut Comm, rounds: usize) {
    let (n, me) = (c.size(), c.rank());
    for _ in 0..rounds {
        c.payload_sendrecv((me + 1) % n, 7, &[0; 64], Some((me + n - 1) % n), Some(7), &mut [0; 64]);
    }
}

/// What every rank saw, in order: after the write run its clock bits,
/// pointer and bytes written, then its clock bits after a probe write;
/// after the read run its clock bits, pointer, bytes read and the file
/// size, then its clock bits after a probe read.
fn run(case: &Case, batched: bool) -> Vec<Vec<u64>> {
    let (w, io) = world(case);
    w.run(|c| {
        let me = c.rank();
        let mode = AMode::read_write_create();
        // beff-analyze: allow(unwrap): the simulated filesystem opens every file
        let mut f = MpiFile::open(c, &io, "runs", mode, Hints::default()).expect("sim backend");
        f.set_view(FileView::Contiguous { disp: me as u64 * case.seg });
        let mut seen = Vec::new();

        let data = vec![0u8; case.wlen[me]];
        shake(c, case.shake);
        c.compute(case.stagger[me]);
        let wrote = if batched {
            f.write_all_n(c, &data, case.wreps)
        } else {
            (0..case.wreps).map(|_| f.write_all(c, &data)).sum()
        };
        seen.extend([c.now().to_bits(), f.tell(), wrote]);
        f.write_at(c, case.probe[me], &[0; 100]);
        seen.push(c.now().to_bits());

        let mut buf = vec![0u8; case.rlen[me]];
        f.seek(0);
        shake(c, case.shake);
        c.compute(case.stagger[(me + 1) % case.n]);
        let read = if batched {
            f.read_all_n(c, &mut buf, case.rreps)
        } else {
            (0..case.rreps).map(|_| f.read_all(c, &mut buf)).sum()
        };
        seen.extend([c.now().to_bits(), f.tell(), read, f.size()]);
        f.read_at(c, case.probe[me], &mut [0; 100]);
        seen.push(c.now().to_bits());
        f.close(c);
        seen
    })
}

#[test]
fn a_run_of_collective_calls_is_the_calls_one_by_one() {
    check_n("a run of collective calls is the calls one by one", 48, |g| {
        let n = g.usize(2..=9);
        let case = Case {
            n,
            t3e: g.bool(),
            cache: g.bool(),
            seg: *g.choose(&[0, 4096, 1 << 20, 40 << 20]),
            wlen: (0..n).map(|_| draw_len(g)).collect(),
            rlen: (0..n).map(|_| draw_len(g)).collect(),
            wreps: g.u64(1..=40),
            rreps: g.u64(1..=40),
            shake: g.usize(0..=2),
            stagger: (0..n).map(|_| if g.bool() { g.f64(0.0, 1e-3) } else { 0.0 }).collect(),
            probe: (0..n).map(|_| g.u64(0..=1 << 22)).collect(),
        };
        let runs = run(&case, true);
        let calls = run(&case, false);
        for (rank, (run, calls)) in runs.iter().zip(&calls).enumerate() {
            ensure_eq!((rank, run), (rank, calls));
        }
    });
}

/// How one mechanism case sets its world up.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Setup {
    /// A no-copy world, default hints, contiguous views: one rendezvous.
    Batched,
    /// Payload bytes move.
    CopyData,
    ForceTwoPhase,
    NoCollectiveBuffering,
    /// Each run on one of two halves of the world.
    HalfWorld,
    /// Rank 0's view is strided: each call of it spans several blocks
    /// and takes the exchange.
    StridedExchange,
    /// Rank 0's view is strided, one block a call: the direct path.
    StridedDirect,
}

const RANKS: usize = 6;
const REPS: u64 = 25;
const LEN: usize = 4096;

/// Per rank: the clock bits, pointer and bytes after a write run and a
/// read run, and the rendezvous the rank's handle met in each.
fn mechanism(setup: Setup, batched: bool) -> Vec<[u64; 8]> {
    let net = Arc::new(MachineNet::new(Topology::Crossbar { procs: RANKS }, NetParams::default()));
    let copy = setup == Setup::CopyData;
    let pfs = PfsConfig { clients: RANKS, store_data: copy, ..PfsConfig::default() };
    let io = IoWorld::sim(Arc::new(Pfs::new(pfs)));
    let hints = match setup {
        Setup::ForceTwoPhase => Hints { force_two_phase: true, ..Hints::default() },
        Setup::NoCollectiveBuffering => Hints::no_collective_buffering(),
        _ => Hints::default(),
    };
    World::sim(net).copy_data(copy).run(|world| {
        let me = world.rank();
        let half = world.split(Some((me % 2) as u32), me as i64);
        // beff-analyze: allow(unwrap): every rank passed a colour
        let mut half = half.expect("a colour for every rank");
        let (c, path) = match setup {
            Setup::HalfWorld => (&mut half, if me % 2 == 0 { "even" } else { "odd" }),
            _ => (world, "all"),
        };
        // beff-analyze: allow(unwrap): the simulated filesystem opens every file
        let mut f = MpiFile::open(c, &io, path, AMode::read_write_create(), hints).expect("sim backend");
        let len = LEN + 8 * usize::from(me == 1);
        let seg = REPS * 2 * LEN as u64;
        f.set_view(match (setup, me) {
            (Setup::StridedExchange, 0) => FileView::Strided { disp: 0, block: 512, stride: 4096 },
            (Setup::StridedDirect, 0) => FileView::Strided { disp: 0, block: LEN as u64, stride: seg },
            _ => FileView::Contiguous { disp: me as u64 * seg },
        });
        let data = vec![me as u8; len];
        let mut buf = vec![0u8; len];
        let before = c.rendezvous_count();
        let wrote = if batched {
            f.write_all_n(c, &data, REPS)
        } else {
            (0..REPS).map(|_| f.write_all(c, &data)).sum()
        };
        let (t_w, tell_w, met_w) = (c.now().to_bits(), f.tell(), c.rendezvous_count() - before);
        f.seek(0);
        let before = c.rendezvous_count();
        let read = if batched {
            f.read_all_n(c, &mut buf, REPS + 3)
        } else {
            (0..REPS + 3).map(|_| f.read_all(c, &mut buf)).sum()
        };
        let met_r = c.rendezvous_count() - before;
        let seen = [t_w, tell_w, wrote, u64::from(met_w), c.now().to_bits(), f.tell(), read, u64::from(met_r)];
        f.close(c);
        seen
    })
}

#[test]
fn a_batchable_run_is_one_rendezvous_and_every_fallback_is_the_calls() {
    use Setup::*;
    for setup in [Batched, CopyData, ForceTwoPhase, NoCollectiveBuffering, HalfWorld, StridedExchange, StridedDirect] {
        let runs = mechanism(setup, true);
        let calls = mechanism(setup, false);
        for (rank, (run, calls)) in runs.iter().zip(&calls).enumerate() {
            // the same bits, rendezvous counts aside
            let bits = |s: &[u64; 8]| [s[0], s[1], s[2], s[4], s[5], s[6]];
            assert_eq!(bits(run), bits(calls), "{setup:?}, rank {rank}");
            let (met, calls_met) = ([run[3], run[7]], [calls[3], calls[7]]);
            if setup == Batched {
                assert_eq!(met, [1, 1], "a batched run parks each rank once, rank {rank}");
                assert_eq!(calls_met, [2 * REPS, 2 * (REPS + 3)], "rank {rank}");
            } else {
                assert_eq!(met, calls_met, "{setup:?} takes the calls, rank {rank}");
            }
        }
    }
}
