//! Property tests for the MPI-IO layer: shared-pointer disjointness,
//! ordered-write layout under arbitrary message sizes, and the two-phase
//! exchange against independent writes.

use beff_check::{check_n, ensure, ensure_eq};
use beff_mpi::{Comm, World};
use beff_mpiio::{AMode, FileView, Hints, IoWorld, MpiFile};
use beff_netsim::{MachineNet, NetParams, Topology};
use beff_pfs::{Pfs, PfsConfig};
use std::sync::Arc;

fn world(n: usize) -> (World, Arc<IoWorld>) {
    let net = Arc::new(MachineNet::new(Topology::Crossbar { procs: n }, NetParams::default()));
    let pfs = Arc::new(Pfs::new(PfsConfig {
        clients: n,
        store_data: true,
        ..PfsConfig::default()
    }));
    (World::sim(net).copy_data(true), IoWorld::sim(pfs))
}

fn open(c: &mut Comm, io: &Arc<IoWorld>, path: &str, hints: Hints) -> MpiFile {
    // beff-analyze: allow(unwrap): the simulated filesystem opens every file
    MpiFile::open(c, io, path, AMode::read_write_create(), hints).expect("sim backend")
}

#[test]
fn write_shared_claims_are_disjoint_and_complete() {
    check_n("write shared claims are disjoint and complete", 12, |g| {
        let sizes = Arc::new((0..4).map(|_| g.usize(1..=4_999)).collect::<Vec<_>>());
        let rounds = g.usize(1..=3);
        let (w, io) = world(4);
        let total_expected: u64 =
            (sizes.iter().map(|&s| s as u64).sum::<u64>()) * rounds as u64;
        let finals = w.run(|c| {
            let mut f = open(c, &io, "ws", Hints::default());
            let my = vec![c.rank() as u8 + 1; sizes[c.rank()]];
            for _ in 0..rounds {
                f.write_shared(c, &my);
            }
            c.barrier();
            let (size, ptr) = (f.size(), f.shared_pos());
            f.close(c);
            (size, ptr)
        });
        for (size, ptr) in finals {
            ensure_eq!(size, total_expected);
            ensure_eq!(ptr, total_expected);
        }
    });
}

#[test]
fn write_ordered_layout_is_rank_major() {
    check_n("write ordered layout is rank major", 12, |g| {
        let sizes = Arc::new((0..3).map(|_| g.usize(1..=1_999)).collect::<Vec<_>>());
        let (w, io) = world(3);
        let ok = w.run(|c| {
            let mut f = open(c, &io, "wo", Hints::default());
            let my = vec![c.rank() as u8 + 1; sizes[c.rank()]];
            f.write_ordered(c, &my);
            f.sync(c);
            c.barrier();
            let mut good = true;
            if c.rank() == 0 {
                let total: usize = sizes.iter().sum();
                let mut buf = vec![0u8; total];
                f.read_at(c, 0, &mut buf);
                let mut pos = 0;
                for (r, &len) in sizes.iter().enumerate() {
                    good &= buf[pos..pos + len].iter().all(|&b| b == r as u8 + 1);
                    pos += len;
                }
            }
            f.close(c);
            good
        });
        ensure!(ok.iter().all(|&b| b));
    });
}

#[test]
fn explicit_offsets_and_pointers_agree() {
    check_n("explicit offsets and pointers agree", 12, |g| {
        let chunks = Arc::new(g.vec(1..=7, |g| g.usize(1..=2_999)));
        let (w, io) = world(2);
        let ok = w.run(|c| {
            let mut f = open(c, &io, "eq", Hints::default());
            let base = c.rank() as u64 * 1_000_000;
            // write through the individual pointer
            f.seek(base);
            let mut all = Vec::new();
            for (i, &len) in chunks.iter().enumerate() {
                let data = vec![(i + 1 + c.rank() * 100) as u8; len];
                f.write(c, &data);
                all.extend_from_slice(&data);
            }
            f.sync(c);
            // read back with explicit offsets
            let mut back = vec![0u8; all.len()];
            f.read_at(c, base, &mut back);
            let good = back == all && f.tell() == base + all.len() as u64;
            f.close(c);
            good
        });
        ensure!(ok.iter().all(|&b| b));
    });
}

#[test]
fn two_phase_exchange_writes_what_independent_writes_do() {
    check_n("two phase exchange writes what independent writes do", 24, |g| {
        let n = g.usize(2..=5);
        let block = g.u64(1..=700);
        // disjoint views: rank p's blocks at p·block, every k·n blocks
        let stride = block * n as u64 * g.u64(1..=2);
        let hints = Hints {
            cb_nodes: g.usize(1..=n - 1),
            // small buffers make domains cut pieces and runs chunked
            cb_buffer_size: g.u64(1..=3 * block),
            force_two_phase: g.bool(),
            ..Hints::default()
        };
        let ranges: Vec<_> = (0..n).map(|_| (g.u64(0..=2 * block), g.u64(0..=9 * block))).collect();
        let (w, io) = world(n);
        let files = w.run(|c| {
            let p = c.rank();
            let (start, len) = ranges[p];
            let view = FileView::Strided { disp: p as u64 * block, block, stride };
            let data: Vec<u8> = (0..len).map(|i| (i * 31 + p as u64 * 7 + 1) as u8).collect();
            let mut coll = open(c, &io, "coll", hints);
            coll.set_view(view);
            coll.seek(start);
            coll.write_all(c, &data);
            coll.sync(c);
            coll.seek(start);
            let mut back = vec![0u8; data.len()];
            coll.read_all(c, &mut back);
            // the same bytes, one write_at a segment at its physical offset
            let mut indep = open(c, &io, "indep", hints);
            let mut at = 0;
            for (phys, len) in view.map_range(start, len).iter().copied() {
                indep.write_at(c, phys, &data[at..at + len as usize]);
                at += len as usize;
            }
            indep.sync(c);
            c.barrier();
            coll.set_view(FileView::default());
            let image = |f: &mut MpiFile, c: &mut Comm| {
                let mut all = vec![0u8; f.size() as usize];
                f.read_at(c, 0, &mut all);
                all
            };
            let images = (image(&mut coll, c), image(&mut indep, c));
            coll.close(c);
            indep.close(c);
            (back == data, images)
        });
        for (roundtrip, (coll, indep)) in files {
            ensure!(roundtrip, "read_all returned other bytes than write_all wrote");
            ensure_eq!(coll, indep);
        }
    });
}
