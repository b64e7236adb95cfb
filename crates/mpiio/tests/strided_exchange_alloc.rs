//! A strided collective call asks the allocator for a few words per
//! piece: the view's segment list, sized once; each domain's header,
//! written straight into the message that carries it; and one run
//! buffer per aggregator. Held here by counting what a warm pass of
//! `write_all` and `read_all` calls asks for. One test per binary: the
//! count is process-wide.

use beff_check::CountingAlloc;
use beff_mpi::{Comm, Pages, World};
use beff_mpiio::{AMode, FileView, Hints, IoWorld, MpiFile};
use beff_netsim::{MachineNet, NetParams, Topology};
use beff_pfs::{Pfs, PfsConfig};
use std::sync::Arc;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const RANKS: usize = 8;
const CALLS: u64 = 50;
const CALL: usize = 1 << 20;
const BLOCK: u64 = 1024;

/// `CALLS` collective writes, then as many reads, from the start.
fn pass(c: &mut Comm, f: &mut MpiFile, buf: &mut [u8]) {
    f.seek(0);
    for _ in 0..CALLS {
        f.write_all(c, buf);
    }
    f.seek(0);
    for _ in 0..CALLS {
        f.read_all(c, buf);
    }
}

#[test]
fn strided_exchange_asks_a_few_words_per_piece() {
    let net = Arc::new(MachineNet::new(Topology::Crossbar { procs: RANKS }, NetParams::default()));
    let io = IoWorld::sim(Arc::new(Pfs::new(PfsConfig { clients: RANKS, ..PfsConfig::default() })));
    let requested: Vec<u64> = World::sim(net).run(|c| {
        // a no-copy world: the buffer is mapped, never touched
        let mut buf = Pages::zeroed(CALL);
        let mode = AMode::read_write_create();
        // beff-analyze: allow(unwrap): the simulated filesystem opens every file
        let mut f = MpiFile::open(c, &io, "type0", mode, Hints::default()).expect("sim backend");
        // pattern type 0: rank p's 1 kB blocks interleave with the others'
        let n = c.size() as u64;
        let disp = c.rank() as u64 * BLOCK;
        f.set_view(FileView::Strided { disp, block: BLOCK, stride: n * BLOCK });
        // grow the file's stamp table and the ledger's scratch
        pass(c, &mut f, &mut buf);
        // every rank brackets its own calls; the brackets overlap on
        // all but the first and last few, so each counts every rank's
        let before = CountingAlloc::requested();
        pass(c, &mut f, &mut buf);
        let requested = CountingAlloc::requested() - before;
        f.close(c);
        requested
    });
    // every call of every rank maps its range to one piece a block
    let pieces = 2 * CALLS * RANKS as u64 * (CALL as u64 / BLOCK);
    let most = requested.iter().copied().max().unwrap_or(u64::MAX);
    let per_piece = most as f64 / pieces as f64;
    assert!(per_piece <= 64.0, "{pieces} pieces asked for {most} B, {per_piece:.1} B each");
}
