//! Integration tests: the MPI-IO layer over both engines and both
//! storage backends, with data-integrity verification.

use beff_mpi::World;
use beff_mpiio::{AMode, FileView, Hints, IoWorld, MpiFile};
use beff_netsim::{MachineNet, NetParams, Topology, MB};
use beff_pfs::{LocalDisk, Pfs, PfsConfig};
use std::sync::Arc;

fn sim_world(n: usize) -> (World, Arc<IoWorld>) {
    let net = Arc::new(MachineNet::new(Topology::Crossbar { procs: n }, NetParams::default()));
    let pfs = Arc::new(Pfs::new(PfsConfig {
        clients: n,
        store_data: true,
        open_cost: 1e-4,
        close_cost: 1e-4,
        ..PfsConfig::default()
    }));
    (World::sim(net).copy_data(true), IoWorld::sim(pfs))
}

#[test]
fn individual_write_read_roundtrip_sim() {
    let (w, io) = sim_world(4);
    let ok = w.run(|c| {
        let mut f =
            MpiFile::open(c, &io, "t1", AMode::read_write_create(), Hints::default()).unwrap();
        let r = c.rank() as u8;
        let chunk = vec![r; 1000];
        f.seek(c.rank() as u64 * 1000);
        f.write(c, &chunk);
        f.sync(c);
        c.barrier();
        // read a neighbor's chunk
        let peer = (c.rank() + 1) % c.size();
        let mut buf = vec![0u8; 1000];
        f.read_at(c, peer as u64 * 1000, &mut buf);
        let good = buf.iter().all(|&b| b == peer as u8);
        f.close(c);
        good
    });
    assert!(ok.iter().all(|&b| b));
}

#[test]
fn strided_view_maps_interleaved_chunks() {
    let (w, io) = sim_world(4);
    let ok = w.run(|c| {
        let n = c.size() as u64;
        let l = 256u64;
        let mut f =
            MpiFile::open(c, &io, "t2", AMode::read_write_create(), Hints::default()).unwrap();
        f.set_view(FileView::Strided { disp: c.rank() as u64 * l, block: l, stride: n * l });
        let data = vec![c.rank() as u8 + 1; 4 * l as usize];
        f.write(c, &data);
        f.sync(c);
        c.barrier();
        // rank 0 checks the physical interleaving with a contiguous view
        let mut good = true;
        if c.rank() == 0 {
            f.set_view(FileView::Contiguous { disp: 0 });
            let mut buf = vec![0u8; (4 * n * l) as usize];
            let nread = f.read_at(c, 0, &mut buf);
            good &= nread == 4 * n * l;
            for (i, chunk) in buf.chunks(l as usize).enumerate() {
                let owner = (i as u64 % n) as u8 + 1;
                good &= chunk.iter().all(|&b| b == owner);
            }
        }
        f.close(c);
        good
    });
    assert!(ok.iter().all(|&b| b));
}

#[test]
fn write_all_two_phase_preserves_data() {
    let (w, io) = sim_world(4);
    let ok = w.run(|c| {
        let n = c.size() as u64;
        let l = 64u64; // small chunks -> many pieces -> exchange path
        let chunks = 32u64;
        let mut f =
            MpiFile::open(c, &io, "t3", AMode::read_write_create(), Hints::default()).unwrap();
        f.set_view(FileView::Strided { disp: c.rank() as u64 * l, block: l, stride: n * l });
        let data: Vec<u8> = (0..l * chunks).map(|i| (c.rank() as u64 * 31 + i) as u8).collect();
        let written = f.write_all(c, &data);
        assert_eq!(written, data.len() as u64);
        f.sync(c);
        c.barrier();
        // verify with collective read through the same view
        f.seek(0);
        let mut back = vec![0u8; data.len()];
        f.read_all(c, &mut back);
        let good = back == data;
        f.close(c);
        good
    });
    assert!(ok.iter().all(|&b| b));
}

#[test]
fn write_all_direct_path_for_contiguous_requests() {
    let (w, io) = sim_world(4);
    let ok = w.run(|c| {
        let mut f =
            MpiFile::open(c, &io, "t4", AMode::read_write_create(), Hints::default()).unwrap();
        let seg = 4096u64;
        f.set_view(FileView::Contiguous { disp: c.rank() as u64 * seg });
        let data = vec![c.rank() as u8 + 10; seg as usize];
        f.write_all(c, &data);
        f.sync(c);
        c.barrier();
        let mut back = vec![0u8; seg as usize];
        f.seek(0);
        f.read_all(c, &mut back);
        let good = back == data;
        f.close(c);
        good
    });
    assert!(ok.iter().all(|&b| b));
}

#[test]
fn shared_pointer_claims_disjoint_regions() {
    let (w, io) = sim_world(4);
    let sizes = w.run(|c| {
        let mut f =
            MpiFile::open(c, &io, "t5", AMode::read_write_create(), Hints::default()).unwrap();
        let data = vec![c.rank() as u8 + 1; 500];
        f.write_shared(c, &data);
        c.barrier();
        let size = f.size();
        let ptr = f.shared_pos();
        f.close(c);
        (size, ptr)
    });
    for (size, ptr) in sizes {
        assert_eq!(size, 2000);
        assert_eq!(ptr, 2000);
    }
}

#[test]
fn write_ordered_is_rank_ordered() {
    let (w, io) = sim_world(4);
    let ok = w.run(|c| {
        let mut f =
            MpiFile::open(c, &io, "t6", AMode::read_write_create(), Hints::default()).unwrap();
        let data = vec![c.rank() as u8 + 1; 100];
        f.write_ordered(c, &data);
        f.write_ordered(c, &data); // second round appends after everyone
        f.sync(c);
        c.barrier();
        let mut good = true;
        if c.rank() == 0 {
            let mut buf = vec![0u8; 800];
            f.read_at(c, 0, &mut buf);
            for round in 0..2 {
                for r in 0..4 {
                    let s = round * 400 + r * 100;
                    good &= buf[s..s + 100].iter().all(|&b| b == r as u8 + 1);
                }
            }
        }
        f.close(c);
        good
    });
    assert!(ok.iter().all(|&b| b));
}

#[test]
fn delete_on_close_removes_file() {
    let (w, io) = sim_world(2);
    let io2 = Arc::clone(&io);
    w.run(|c| {
        let f = MpiFile::open(
            c,
            &io2,
            "t7",
            AMode::read_write_create().with_delete_on_close(),
            Hints::default(),
        )
        .unwrap();
        f.close(c);
    });
    if let beff_mpiio::Storage::Sim(pfs) = io.storage() {
        assert!(!pfs.exists("t7"));
    } else {
        panic!("expected sim storage");
    }
}

#[test]
fn local_backend_roundtrip_real_mode() {
    let disk = Arc::new(LocalDisk::temp("mpiio-int").unwrap());
    let io = IoWorld::local(Arc::clone(&disk));
    let ok = World::real(3).run(|c| {
        let mut f =
            MpiFile::open(c, &io, "file.dat", AMode::read_write_create(), Hints::default())
                .unwrap();
        let data = vec![c.rank() as u8 + 1; 2048];
        f.seek(c.rank() as u64 * 2048);
        f.write(c, &data);
        f.sync(c);
        c.barrier();
        let peer = (c.rank() + 2) % c.size();
        let mut buf = vec![0u8; 2048];
        f.read_at(c, peer as u64 * 2048, &mut buf);
        let good = buf.iter().all(|&b| b == peer as u8 + 1);
        f.close(c);
        good
    });
    assert!(ok.iter().all(|&b| b));
    drop(io);
    match Arc::try_unwrap(disk) {
        Ok(d) => d.destroy(),
        Err(_) => panic!("disk still referenced"),
    }
}

#[test]
fn local_backend_collective_write_all() {
    let disk = Arc::new(LocalDisk::temp("mpiio-cb").unwrap());
    let io = IoWorld::local(Arc::clone(&disk));
    let ok = World::real(4).run(|c| {
        let n = c.size() as u64;
        let l = 128u64;
        let mut f = MpiFile::open(c, &io, "cb.dat", AMode::read_write_create(), Hints::default())
            .unwrap();
        f.set_view(FileView::Strided { disp: c.rank() as u64 * l, block: l, stride: n * l });
        let data: Vec<u8> = (0..8 * l).map(|i| (i as u8) ^ (c.rank() as u8)).collect();
        f.write_all(c, &data);
        c.barrier();
        f.seek(0);
        let mut back = vec![0u8; data.len()];
        f.read_all(c, &mut back);
        let good = back == data;
        f.close(c);
        good
    });
    assert!(ok.iter().all(|&b| b));
}

/// A real file needs real bytes: under an engine that carries only
/// lengths every rank's open is refused with a typed error, instead of
/// the aggregator panicking in a length-only write mid-collective. The
/// same disk under an engine that moves bytes works.
#[test]
fn local_backend_under_a_no_copy_engine_is_refused_at_open() {
    let disk = Arc::new(LocalDisk::temp("mpiio-nocopy").unwrap());
    let io = IoWorld::local(Arc::clone(&disk));
    let net = || Arc::new(MachineNet::new(Topology::Crossbar { procs: 4 }, NetParams::default()));
    let strided_write_all = |c: &mut beff_mpi::Comm| {
        let (n, l) = (c.size() as u64, 128u64);
        let mut f =
            MpiFile::open(c, &io, "nc.dat", AMode::read_write_create(), Hints::default())?;
        f.set_view(FileView::Strided { disp: c.rank() as u64 * l, block: l, stride: n * l });
        let data = vec![c.rank() as u8 + 1; 4 * l as usize];
        f.write_all(c, &data);
        f.seek(0);
        let mut back = vec![0u8; data.len()];
        f.read_all(c, &mut back);
        f.close(c);
        Ok::<bool, std::io::Error>(back == data)
    };
    for r in World::sim(net()).run(strided_write_all) {
        assert!(matches!(&r, Err(e) if e.kind() == std::io::ErrorKind::InvalidInput), "{r:?}");
    }
    for r in World::sim(net()).copy_data(true).run(strided_write_all) {
        assert!(matches!(r, Ok(true)), "bytes round-trip through the real file: {r:?}");
    }
    drop(io);
    if let Ok(d) = Arc::try_unwrap(disk) {
        d.destroy();
    }
}

#[test]
fn two_phase_beats_per_chunk_writes_in_virtual_time() {
    // The core claim behind pattern type 0: collective buffering turns
    // many small strided chunks into few large writes.
    let n = 8usize;
    let net = Arc::new(MachineNet::new(Topology::Crossbar { procs: n }, NetParams::default()));
    let mk_pfs = || {
        Arc::new(Pfs::new(PfsConfig {
            clients: n,
            store_data: false,
            cache_bytes: 0,
            ..PfsConfig::default()
        }))
    };

    let run = |hints: Hints, pfs: Arc<Pfs>| -> f64 {
        let io = IoWorld::sim(pfs);
        let net = Arc::clone(&net);
        let times = World::sim(net).run(move |c| {
            let nn = c.size() as u64;
            let l = 4096u64;
            let chunks = 64u64;
            let mut f =
                MpiFile::open(c, &io, "perf", AMode::create_write(), hints).unwrap();
            f.set_view(FileView::Strided { disp: c.rank() as u64 * l, block: l, stride: nn * l });
            let data = vec![0u8; (l * chunks) as usize];
            let t0 = c.now();
            f.write_all(c, &data);
            f.sync(c);
            c.barrier();
            let dt = c.now() - t0;
            f.close(c);
            dt
        });
        times.into_iter().fold(0.0, f64::max)
    };

    let with_cb = run(Hints::default(), mk_pfs());
    let without_cb = run(Hints::no_collective_buffering(), mk_pfs());
    assert!(
        with_cb < without_cb / 2.0,
        "two-phase must win by 2x+: with={with_cb} without={without_cb}"
    );
}

#[test]
fn sync_costs_virtual_time_when_cache_is_dirty() {
    let n = 2usize;
    let net = Arc::new(MachineNet::new(Topology::Crossbar { procs: n }, NetParams::default()));
    let pfs = Arc::new(Pfs::new(PfsConfig {
        clients: n,
        store_data: false,
        cache_bytes: 512 * MB,
        server_mbps: 10.0,
        servers: 2,
        ..PfsConfig::default()
    }));
    let io = IoWorld::sim(pfs);
    let times = World::sim(net).run(move |c| {
        let mut f = MpiFile::open(c, &io, "s", AMode::create_write(), Hints::default()).unwrap();
        f.seek(c.rank() as u64 * 32 * MB);
        f.write(c, &vec![0u8; (32 * MB) as usize]);
        let before_sync = c.now();
        f.sync(c);
        let after_sync = c.now();
        f.close(c);
        after_sync - before_sync
    });
    // 64 MB dirty over 20 MB/s aggregate: somebody pays multiple seconds
    assert!(times.iter().cloned().fold(0.0, f64::max) > 1.0, "times={times:?}");
}

#[test]
fn sieved_read_roundtrips_strided_data() {
    let (w, io) = sim_world(2);
    let ok = w.run(|c| {
        let n = c.size() as u64;
        let l = 64u64;
        let mut f = MpiFile::open(c, &io, "sieve", AMode::read_write_create(), Hints::default())
            .unwrap();
        f.set_view(FileView::Strided { disp: c.rank() as u64 * l, block: l, stride: n * l });
        let data: Vec<u8> = (0..l * 40).map(|i| (i as u8) ^ (c.rank() as u8 + 3)).collect();
        f.write_all(c, &data);
        f.sync(c);
        c.barrier();
        // noncollective strided read: takes the data-sieving path
        // (ds_read defaults on; the whole span fits the sieve buffer)
        let mut back = vec![0u8; data.len()];
        let nread = f.read_at(c, 0, &mut back);
        let good = nread == data.len() as u64 && back == data;
        f.close(c);
        good
    });
    assert!(ok.iter().all(|&b| b));
}

#[test]
fn sieved_write_matches_per_segment_write() {
    // with ds_write on, a strided noncollective write must produce the
    // same file contents as the plain per-segment path
    let run = |ds_write: bool| -> Vec<u8> {
        let (w, io) = sim_world(2);
        let io2 = Arc::clone(&io);
        let out = w.run(move |c| {
            let n = c.size() as u64;
            let l = 128u64;
            let hints = Hints { ds_write, ..Hints::default() };
            let mut f =
                MpiFile::open(c, &io2, "dsw", AMode::read_write_create(), hints).unwrap();
            // lay down a background pattern so RMW has bytes to preserve
            if c.rank() == 0 {
                f.set_view(FileView::Contiguous { disp: 0 });
                f.write_at(c, 0, &vec![0xEE; (8 * n * l) as usize]);
                f.sync(c);
            }
            c.barrier();
            f.set_view(FileView::Strided { disp: c.rank() as u64 * l, block: l, stride: n * l });
            let data: Vec<u8> = (0..4 * l).map(|i| (i as u8) ^ (c.rank() as u8)).collect();
            f.write_at(c, 0, &data);
            f.sync(c);
            c.barrier();
            let mut whole = vec![0u8; (8 * n * l) as usize];
            f.set_view(FileView::Contiguous { disp: 0 });
            f.read_at(c, 0, &mut whole);
            f.close(c);
            whole
        });
        out.into_iter().next().unwrap()
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn sieving_reduces_virtual_read_time_for_fragmented_access() {
    let n = 2usize;
    let net = Arc::new(MachineNet::new(Topology::Crossbar { procs: n }, NetParams::default()));
    let mk = || {
        Arc::new(Pfs::new(PfsConfig {
            clients: n,
            store_data: false,
            cache_bytes: 0,
            ..PfsConfig::default()
        }))
    };
    let run = |ds_read: bool, pfs: Arc<Pfs>| -> f64 {
        let io = IoWorld::sim(pfs);
        let net = Arc::clone(&net);
        let out = World::sim(net).run(move |c| {
            let nn = c.size() as u64;
            let l = 512u64; // tiny fragmented chunks
            let hints = Hints { ds_read, ..Hints::default() };
            let mut f = MpiFile::open(c, &io, "dsr", AMode::create_write(), hints).unwrap();
            f.set_view(FileView::Strided { disp: c.rank() as u64 * l, block: l, stride: nn * l });
            let data = vec![0u8; (l * 256) as usize];
            f.write_all(c, &data);
            f.sync(c);
            c.barrier();
            let t0 = c.now();
            let mut back = vec![0u8; data.len()];
            f.seek(0);
            f.read_at(c, 0, &mut back);
            let dt = c.now() - t0;
            f.close(c);
            dt
        });
        out.into_iter().fold(0.0, f64::max)
    };
    let with_ds = run(true, mk());
    let without_ds = run(false, mk());
    assert!(
        with_ds < without_ds / 3.0,
        "sieving must collapse per-chunk overheads: {with_ds} vs {without_ds}"
    );
}
