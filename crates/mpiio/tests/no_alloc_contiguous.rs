//! A contiguous access does not touch the allocator: the view maps it
//! to one segment held inline, `write_all`/`read_all` map it once and
//! meet on a warm rendezvous board, a run of them books every round of
//! every rank off that board, and the filesystem books it in buffers
//! its ledger reuses. Held here by counting what the whole run
//! asks the allocator for. One test per binary: the count is
//! process-wide.

use beff_check::CountingAlloc;
use beff_mpi::{Comm, World};
use beff_mpiio::{AMode, FileView, Hints, IoWorld, MpiFile};
use beff_netsim::{MachineNet, NetParams, Topology};
use beff_pfs::{Pfs, PfsConfig};
use std::sync::Arc;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const RANKS: usize = 8;
const EACH: u64 = 1000;
const CHUNK: usize = 1024;

/// `EACH` calls of each of the four kinds over the rank's own range,
/// and `EACH` more of each collective kind as one run.
fn pass(c: &mut Comm, f: &mut MpiFile, buf: &mut [u8]) {
    f.seek(0);
    for _ in 0..EACH {
        f.write_all(c, buf);
    }
    f.seek(0);
    for _ in 0..EACH {
        f.read_all(c, buf);
    }
    f.seek(0);
    f.write_all_n(c, buf, EACH);
    f.seek(0);
    f.read_all_n(c, buf, EACH);
    for i in 0..EACH {
        f.write_at(c, i * CHUNK as u64, buf);
        f.read_at(c, i * CHUNK as u64, buf);
    }
}

#[test]
fn warm_contiguous_io_stays_off_the_heap() {
    let net = Arc::new(MachineNet::new(Topology::Crossbar { procs: RANKS }, NetParams::default()));
    let io = IoWorld::sim(Arc::new(Pfs::new(PfsConfig { clients: RANKS, ..PfsConfig::default() })));
    let requested: Vec<u64> = World::sim(net).run(|c| {
        // a no-copy world: the buffer is handed over as a length
        let mut buf = [0u8; CHUNK];
        let mode = AMode::read_write_create();
        // beff-analyze: allow(unwrap): the simulated filesystem opens every file
        let mut f = MpiFile::open(c, &io, "contiguous", mode, Hints::default()).expect("sim backend");
        f.set_view(FileView::Contiguous { disp: c.rank() as u64 * EACH * CHUNK as u64 });
        // grow the file's stamp table, the ledger's scratch and the
        // board's buffers to this workload
        pass(c, &mut f, &mut buf);
        // every rank brackets its own calls; the brackets overlap on
        // all but the first and last few
        let before = CountingAlloc::requested();
        pass(c, &mut f, &mut buf);
        let requested = CountingAlloc::requested() - before;
        f.close(c);
        requested
    });
    // A heap segment list is 16 B a call, two for a `write_all` or
    // `read_all` that mapped its range twice; what is left to count is
    // the test harness's own thread, so hold it under a byte a call.
    let calls = 6 * EACH * RANKS as u64;
    let most = requested.iter().copied().max().unwrap_or(u64::MAX);
    assert!(most < calls, "{calls} contiguous I/O calls asked the allocator for {most} B");
}
