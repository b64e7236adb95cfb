//! `MpiFile`: one rank's handle on a (collectively opened) file.
//!
//! Covers the MPI-IO surface b_eff_io exercises: collective open/close,
//! file views, explicit-offset and individual-pointer reads/writes,
//! shared-pointer access (noncollective `write_shared` and collective,
//! rank-ordered `write_ordered`), `sync`, and the collective
//! `write_all`/`read_all` implemented in [`crate::collective`].
//!
//! All offsets/pointers are in *view-linear* bytes: positions within
//! the byte stream the rank's [`FileView`] exposes.

use crate::amode::AMode;
use crate::hints::Hints;
use crate::view::FileView;
use crate::world::{IoWorld, Storage};
use beff_mpi::Comm;
use beff_pfs::{DataRef, FsFile, LocalFile};
use beff_sync::Mutex;
use std::io;
use std::sync::Arc;

/// Backend handle of one open file.
#[derive(Clone)]
pub enum Backing {
    Sim(Arc<FsFile>),
    Local(Arc<LocalFile>),
}

/// One rank's open file.
pub struct MpiFile {
    world: Arc<IoWorld>,
    backing: Backing,
    path: String,
    amode: AMode,
    hints: Hints,
    view: FileView,
    /// Individual file pointer (view-linear bytes).
    indiv: u64,
    /// Shared file pointer (view-linear bytes), common to all ranks.
    shared: Arc<Mutex<u64>>,
}

impl MpiFile {
    /// Collective open. Every rank of `comm` must call this with the
    /// same arguments.
    pub fn open(
        comm: &mut Comm,
        world: &Arc<IoWorld>,
        path: &str,
        amode: AMode,
        hints: Hints,
    ) -> io::Result<MpiFile> {
        // Every rank sees the same engine and storage, so every rank
        // refuses here, before the first collective step.
        if matches!(world.storage(), Storage::Local(_)) && !comm.copies_payload() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{path}: a real-disk backend needs an engine that moves payload bytes"),
            ));
        }
        // rank 0 creates/truncates, then everyone opens
        if comm.rank() == 0 {
            match world.storage() {
                Storage::Sim(pfs) => {
                    if !amode.create {
                        assert!(pfs.exists(path), "open without MPI_MODE_CREATE: {path}");
                    }
                    let (f, t) = pfs.open(path, comm.now());
                    comm.advance_to(t);
                    if amode.truncate {
                        f.truncate();
                    }
                }
                Storage::Local(disk) => {
                    let f = disk.open(path)?;
                    if amode.truncate {
                        f.truncate()?;
                    }
                }
            }
            *world.shared_ptr(path).lock() = 0;
        }
        comm.barrier();
        let backing = match world.storage() {
            Storage::Sim(pfs) => {
                let (f, t) = pfs.open(path, comm.now());
                comm.advance_to(t);
                Backing::Sim(f)
            }
            Storage::Local(disk) => Backing::Local(disk.open(path)?),
        };
        Ok(MpiFile {
            world: Arc::clone(world),
            backing,
            path: path.to_string(),
            amode,
            hints,
            view: FileView::default(),
            indiv: 0,
            shared: world.shared_ptr(path),
        })
    }

    pub fn path(&self) -> &str {
        &self.path
    }

    pub fn hints(&self) -> &Hints {
        &self.hints
    }

    pub fn view(&self) -> &FileView {
        &self.view
    }

    pub fn amode(&self) -> AMode {
        self.amode
    }

    /// `MPI_File_set_view`: resets both file pointers.
    pub fn set_view(&mut self, view: FileView) {
        self.view = view;
        self.indiv = 0;
        // the shared pointer is reset collectively by the caller side;
        // MPI requires all ranks to pass compatible views
    }

    /// `MPI_File_seek` (individual pointer, view-linear bytes).
    pub fn seek(&mut self, pos: u64) {
        self.indiv = pos;
    }

    pub fn tell(&self) -> u64 {
        self.indiv
    }

    /// Reset the shared pointer (collective by convention).
    pub fn seek_shared(&mut self, pos: u64) {
        *self.shared.lock() = pos;
    }

    /// The shared file pointer's current value (diagnostics / tests).
    pub fn shared_pos(&self) -> u64 {
        *self.shared.lock()
    }

    /// Current physical file size in bytes.
    pub fn size(&self) -> u64 {
        match &self.backing {
            Backing::Sim(f) => f.size(),
            Backing::Local(f) => f.size().unwrap_or(0),
        }
    }

    // ----- raw (physical-offset) operations --------------------------------

    /// Do payload bytes move through this file — the one spelling of
    /// the question for the raw calls, the two-phase exchange and the
    /// sieving windows. The engine alone decides: [`MpiFile::open`]
    /// refuses a real-disk backend under an engine that carries no
    /// bytes, so a length-only call can only ever meet the simulated
    /// backend.
    pub(crate) fn materialize(&self, comm: &Comm) -> bool {
        let moves = comm.copies_payload();
        debug_assert!(
            moves || matches!(self.backing, Backing::Sim(_)),
            "open admits real files only under an engine that moves bytes"
        );
        moves
    }

    /// Write `data` (or, in no-copy mode, just its length) at physical
    /// offset `phys`.
    pub(crate) fn raw_write(&self, comm: &mut Comm, phys: u64, data: &[u8]) {
        match &self.backing {
            Backing::Sim(f) => {
                let pfs = match self.world.storage() {
                    Storage::Sim(p) => p,
                    Storage::Local(_) => unreachable!("sim backing implies sim storage"),
                };
                let payload = if self.materialize(comm) {
                    DataRef::Bytes(data)
                } else {
                    DataRef::Len(data.len() as u64)
                };
                let done = pfs.write(comm.world_rank(), f, phys, payload, comm.now());
                comm.advance_to(done);
            }
            Backing::Local(f) => {
                f.write_at(phys, data).expect("local write failed");
            }
        }
    }

    /// Write a modeled `len` bytes without a source buffer (aggregator
    /// fast path in no-copy mode).
    pub(crate) fn raw_write_len(&self, comm: &mut Comm, phys: u64, len: u64) {
        match &self.backing {
            Backing::Sim(f) => {
                let pfs = match self.world.storage() {
                    Storage::Sim(p) => p,
                    Storage::Local(_) => unreachable!(),
                };
                let done = pfs.write(comm.world_rank(), f, phys, DataRef::Len(len), comm.now());
                comm.advance_to(done);
            }
            Backing::Local(_) => {
                panic!("length-only writes require the simulated backend")
            }
        }
    }

    /// Read up to `buf.len()` bytes at physical `phys`; returns bytes
    /// actually read (clamped at EOF).
    pub(crate) fn raw_read(&self, comm: &mut Comm, phys: u64, buf: &mut [u8]) -> u64 {
        match &self.backing {
            Backing::Sim(f) => {
                let pfs = match self.world.storage() {
                    Storage::Sim(p) => p,
                    Storage::Local(_) => unreachable!(),
                };
                let len = buf.len() as u64;
                let out = if self.materialize(comm) { Some(buf) } else { None };
                let (n, done) = pfs.read(comm.world_rank(), f, phys, len, out, comm.now());
                comm.advance_to(done);
                n
            }
            Backing::Local(f) => f.read_at(phys, buf).expect("local read failed") as u64,
        }
    }

    /// Length-only read (aggregator fast path).
    pub(crate) fn raw_read_len(&self, comm: &mut Comm, phys: u64, len: u64) -> u64 {
        match &self.backing {
            Backing::Sim(f) => {
                let pfs = match self.world.storage() {
                    Storage::Sim(p) => p,
                    Storage::Local(_) => unreachable!(),
                };
                let (n, done) = pfs.read(comm.world_rank(), f, phys, len, None, comm.now());
                comm.advance_to(done);
                n
            }
            Backing::Local(_) => panic!("length-only reads require the simulated backend"),
        }
    }

    // ----- explicit offset / individual pointer ----------------------------

    /// `MPI_File_write_at` (view-linear offset). Returns bytes written.
    /// Noncontiguous requests use data sieving when the `ds_write` hint
    /// is set; otherwise one backend call per segment.
    pub fn write_at(&mut self, comm: &mut Comm, voffset: u64, data: &[u8]) -> u64 {
        let segs = self.view.map_range(voffset, data.len() as u64);
        if segs.len() > 1 && self.hints.ds_write {
            let buffer = self.hints.ds_buffer_size.max(1);
            return self.sieved_write(comm, &segs, data, buffer);
        }
        let mut done = 0usize;
        for (phys, len) in segs {
            self.raw_write(comm, phys, &data[done..done + len as usize]);
            done += len as usize;
        }
        done as u64
    }

    /// `MPI_File_write` (individual pointer).
    pub fn write(&mut self, comm: &mut Comm, data: &[u8]) -> u64 {
        let n = self.write_at(comm, self.indiv, data);
        self.indiv += n;
        n
    }

    /// `MPI_File_read_at`. Returns bytes read (short at EOF).
    /// Noncontiguous requests use data sieving when the `ds_read` hint
    /// is set (the ROMIO default).
    pub fn read_at(&mut self, comm: &mut Comm, voffset: u64, buf: &mut [u8]) -> u64 {
        let segs = self.view.map_range(voffset, buf.len() as u64);
        if segs.len() > 1
            && self.hints.ds_read
            && segs.last().is_some_and(|s| s.0 + s.1 <= self.size())
        {
            let buffer = self.hints.ds_buffer_size.max(1);
            return self.sieved_read(comm, &segs, buf, buffer);
        }
        let mut done = 0u64;
        for (phys, len) in segs {
            let n = self.raw_read(comm, phys, &mut buf[done as usize..(done + len) as usize]);
            done += n;
            if n < len {
                break; // EOF inside this segment
            }
        }
        done
    }

    /// `MPI_File_read` (individual pointer).
    pub fn read(&mut self, comm: &mut Comm, buf: &mut [u8]) -> u64 {
        let n = self.read_at(comm, self.indiv, buf);
        self.indiv += n;
        n
    }

    // ----- shared file pointer ---------------------------------------------

    /// `MPI_File_write_shared` (noncollective): atomically claims the
    /// next `data.len()` view-linear bytes at the shared pointer.
    pub fn write_shared(&mut self, comm: &mut Comm, data: &[u8]) -> u64 {
        let v = {
            let mut p = self.shared.lock();
            let v = *p;
            *p += data.len() as u64;
            v
        };
        self.write_at(comm, v, data)
    }

    /// `MPI_File_read_shared` (noncollective).
    pub fn read_shared(&mut self, comm: &mut Comm, buf: &mut [u8]) -> u64 {
        let v = {
            let mut p = self.shared.lock();
            let v = *p;
            *p += buf.len() as u64;
            v
        };
        self.read_at(comm, v, buf)
    }

    /// `MPI_File_write_ordered` (collective): ranks write at the shared
    /// pointer in rank order. Implemented as an exclusive prefix sum of
    /// the lengths plus a collective pointer bump.
    pub fn write_ordered(&mut self, comm: &mut Comm, data: &[u8]) -> u64 {
        let (my_off, total) = ordered_offsets(comm, data.len() as u64);
        let base = {
            // rank 0 claims the region for everyone, then broadcasts
            let mut claimed = if comm.rank() == 0 {
                let mut p = self.shared.lock();
                let v = *p;
                *p += total;
                v
            } else {
                0
            };
            claimed = comm.bcast_u64(0, claimed);
            claimed
        };
        let n = self.write_at(comm, base + my_off, data);
        comm.barrier();
        n
    }

    /// `MPI_File_read_ordered` (collective).
    pub fn read_ordered(&mut self, comm: &mut Comm, buf: &mut [u8]) -> u64 {
        let (my_off, total) = ordered_offsets(comm, buf.len() as u64);
        let base = {
            let mut claimed = if comm.rank() == 0 {
                let mut p = self.shared.lock();
                let v = *p;
                *p += total;
                v
            } else {
                0
            };
            claimed = comm.bcast_u64(0, claimed);
            claimed
        };
        let n = self.read_at(comm, base + my_off, buf);
        comm.barrier();
        n
    }

    // ----- sync / close ----------------------------------------------------

    /// `MPI_File_sync`: flush this rank's view of dirty data to disk.
    /// Collective in MPI; callers pair it with a barrier as b_eff_io
    /// does.
    pub fn sync(&self, comm: &mut Comm) {
        match &self.backing {
            Backing::Sim(_) => {
                let pfs = match self.world.storage() {
                    Storage::Sim(p) => p,
                    Storage::Local(_) => unreachable!(),
                };
                let done = pfs.sync(comm.now());
                comm.advance_to(done);
            }
            Backing::Local(f) => f.sync().expect("fsync failed"),
        }
    }

    /// Collective close.
    pub fn close(self, comm: &mut Comm) {
        comm.barrier();
        if let (Backing::Sim(_), Storage::Sim(pfs)) = (&self.backing, self.world.storage()) {
            let done = pfs.close(comm.now());
            comm.advance_to(done);
        }
        if self.amode.delete_on_close && comm.rank() == 0 {
            self.world.unlink(&self.path);
        }
    }
}

/// Exclusive prefix of `len` over ranks plus the total (for ordered
/// shared-pointer access). Uses a gather+bcast on rank 0.
fn ordered_offsets(comm: &mut Comm, len: u64) -> (u64, u64) {
    let lens = comm.allreduce_f64(
        &{
            let mut v = vec![0.0f64; comm.size()];
            v[comm.rank()] = len as f64;
            v
        },
        beff_mpi::ReduceOp::Sum,
    );
    let my_off: f64 = lens[..comm.rank()].iter().sum();
    let total: f64 = lens.iter().sum();
    (my_off as u64, total as u64)
}
