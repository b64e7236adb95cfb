//! # beff-mpiio
//!
//! An MPI-IO layer over the `beff-mpi` runtime and the `beff-pfs`
//! filesystem model — the portable parallel-I/O interface b_eff_io is
//! defined against (paper §3.2 category 3: "we use only MPI-I/O").
//!
//! Implemented surface (everything the five b_eff_io pattern types
//! exercise):
//!
//! * collective [`MpiFile::open`] / `close` / `sync` with access modes,
//! * [`FileView`]s: contiguous and strided filetypes
//!   (`MPI_File_set_view`),
//! * explicit-offset and individual-pointer reads/writes,
//! * shared-file-pointer access: noncollective `write_shared` and
//!   collective rank-ordered `write_ordered`,
//! * collective `write_all` / `read_all` with **two-phase I/O**
//!   (collective buffering) and hint control ([`Hints`]).

pub mod amode;
pub mod collective;
pub mod file;
pub mod hints;
pub mod sieving;
pub mod view;
pub mod world;

pub use amode::AMode;
pub use file::MpiFile;
pub use hints::Hints;
pub use view::FileView;
pub use world::IoWorld;
