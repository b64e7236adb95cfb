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
use crate::view::{FileView, Segment};
use crate::world::IoWorld;
use beff_mpi::Comm;
use beff_pfs::{DataRef, FsFile};
use beff_sync::Mutex;
use std::io;
use std::sync::Arc;

/// One rank's open file.
pub struct MpiFile {
    pub(crate) world: Arc<IoWorld>,
    /// The same ledger slot on every rank: the open is collective.
    pub(crate) file: FsFile,
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
        let pfs = world.pfs();
        // rank 0 creates/truncates, then everyone opens
        if comm.rank() == 0 {
            if !amode.create {
                assert!(pfs.exists(path), "open without MPI_MODE_CREATE: {path}");
            }
            let (f, t) = pfs.open(path, comm.now());
            comm.advance_to(t);
            if amode.truncate {
                pfs.truncate(&f);
            }
            *world.shared_ptr(path).lock() = 0;
        }
        comm.barrier();
        let (file, t) = pfs.open(path, comm.now());
        comm.advance_to(t);
        Ok(MpiFile {
            world: Arc::clone(world),
            file,
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
        self.world.pfs().size(&self.file)
    }

    // ----- raw (physical-offset) operations --------------------------------

    /// Write `data` (or, in no-copy mode, just its length) at physical
    /// offset `phys`.
    pub(crate) fn raw_write(&self, comm: &mut Comm, phys: u64, data: &[u8]) {
        let payload = if comm.copies_payload() {
            DataRef::Bytes(data)
        } else {
            DataRef::Len(data.len() as u64)
        };
        let pfs = self.world.pfs();
        let done = pfs.write(comm.world_rank(), &self.file, phys, payload, comm.now());
        comm.advance_to(done);
    }

    /// Write a modeled `len` bytes without a source buffer (aggregator
    /// fast path in no-copy mode).
    pub(crate) fn raw_write_len(&self, comm: &mut Comm, phys: u64, len: u64) {
        let pfs = self.world.pfs();
        let done = pfs.write(comm.world_rank(), &self.file, phys, DataRef::Len(len), comm.now());
        comm.advance_to(done);
    }

    /// Read up to `buf.len()` bytes at physical `phys`; returns bytes
    /// actually read (clamped at EOF).
    pub(crate) fn raw_read(&self, comm: &mut Comm, phys: u64, buf: &mut [u8]) -> u64 {
        let len = buf.len() as u64;
        let out = if comm.copies_payload() { Some(buf) } else { None };
        let pfs = self.world.pfs();
        let (n, done) = pfs.read(comm.world_rank(), &self.file, phys, len, out, comm.now());
        comm.advance_to(done);
        n
    }

    /// Length-only read (aggregator fast path).
    pub(crate) fn raw_read_len(&self, comm: &mut Comm, phys: u64, len: u64) -> u64 {
        let pfs = self.world.pfs();
        let (n, done) = pfs.read(comm.world_rank(), &self.file, phys, len, None, comm.now());
        comm.advance_to(done);
        n
    }

    // ----- explicit offset / individual pointer ----------------------------

    /// `MPI_File_write_at` (view-linear offset). Returns bytes written;
    /// one backend call per segment.
    pub fn write_at(&mut self, comm: &mut Comm, voffset: u64, data: &[u8]) -> u64 {
        let segs = self.view.map_range(voffset, data.len() as u64);
        self.write_segs(comm, &segs, data)
    }

    /// [`write_at`](Self::write_at) to `segs`, the view's map of it.
    pub(crate) fn write_segs(&mut self, comm: &mut Comm, segs: &[Segment], data: &[u8]) -> u64 {
        let mut done = 0usize;
        for &(phys, len) in segs {
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
        self.read_segs(comm, &segs, buf)
    }

    /// [`read_at`](Self::read_at) from `segs`, the view's map of it.
    pub(crate) fn read_segs(&mut self, comm: &mut Comm, segs: &[Segment], buf: &mut [u8]) -> u64 {
        if segs.len() > 1
            && self.hints.ds_read
            && segs.last().is_some_and(|s| s.0 + s.1 <= self.size())
        {
            let buffer = self.hints.ds_buffer_size.max(1);
            return self.sieved_read(comm, segs, buf, buffer);
        }
        let mut done = 0u64;
        for &(phys, len) in segs {
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
        let done = self.world.pfs().sync(comm.now());
        comm.advance_to(done);
    }

    /// Collective close.
    pub fn close(self, comm: &mut Comm) {
        comm.barrier();
        let done = self.world.pfs().close(comm.now());
        comm.advance_to(done);
        if self.amode.delete_on_close && comm.rank() == 0 {
            self.world.unlink(&self.path);
        }
    }
}

/// Exclusive prefix of `len` over ranks plus the total (for ordered
/// shared-pointer access): one scan on the communicator's board.
fn ordered_offsets(comm: &mut Comm, len: u64) -> (u64, u64) {
    let (my_off, total) = comm.exscan_sum(len as f64);
    (my_off as u64, total as u64)
}
