//! A no-copy world prices I/O from lengths alone: the two-phase exchange
//! must not build, zero or copy payload-sized buffers on the way. Held
//! here by counting what the whole run asks the allocator for. One test
//! per binary: the count is process-wide.

use beff_check::CountingAlloc;
use beff_mpi::{Pages, World};
use beff_mpiio::{AMode, FileView, Hints, IoWorld, MpiFile};
use beff_netsim::{MachineNet, NetParams, Topology};
use beff_pfs::{Pfs, PfsConfig};
use std::sync::Arc;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn no_copy_collectives_allocate_a_sliver_of_what_they_move() {
    const RANKS: usize = 8;
    const CALLS: u64 = 32;
    const CALL: usize = 1 << 20;
    let net = Arc::new(MachineNet::new(Topology::Crossbar { procs: RANKS }, NetParams::default()));
    let io = IoWorld::sim(Arc::new(Pfs::new(PfsConfig { clients: RANKS, ..PfsConfig::default() })));
    let world = World::sim(net); // payload travels as lengths

    let before = CountingAlloc::requested();
    let moved: u64 = world
        .run(|c| {
            // the caller's own buffer, as `core::beffio::Bufs` holds it:
            // mapped, not allocated, and never touched
            let mut buf = Pages::zeroed(CALL);
            let (n, l) = (c.size() as u64, 64 * 1024);
            let mut f =
                MpiFile::open(c, &io, "strided", AMode::read_write_create(), Hints::default())
                    .expect("sim backend");
            // 16 interleaved 64 kB blocks per call: the exchange path
            f.set_view(FileView::Strided { disp: c.rank() as u64 * l, block: l, stride: n * l });
            let mut moved = 0;
            for _ in 0..CALLS {
                moved += f.write_all(c, &buf);
            }
            f.sync(c);
            f.seek(0);
            for _ in 0..CALLS {
                moved += f.read_all(c, &mut buf);
            }
            f.close(c);
            moved
        })
        .iter()
        .sum();
    let requested = CountingAlloc::requested() - before;

    assert_eq!(moved, 2 * RANKS as u64 * CALLS * CALL as u64);
    assert!(
        requested < moved / 16,
        "moving {moved} B of simulated payload asked the allocator for {requested} B"
    );
}
