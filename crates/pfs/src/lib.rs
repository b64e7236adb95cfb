//! # beff-pfs
//!
//! A parallel-filesystem simulator (plus a real-disk backend) serving
//! as the storage substrate of the b_eff_io reproduction.
//!
//! The simulated filesystem ([`Pfs`]) models the mechanisms the paper's
//! evaluation hinges on: round-robin **striping** over I/O servers,
//! per-request **software overhead**, per-client **injection links**, a
//! write-back **filesystem cache** with drain throttling and
//! LRU-by-budget residency, and **read-modify-write penalties** for
//! non-wellformed (unaligned) accesses. Every operation is priced in
//! virtual time; contention is expressed through next-free-time
//! reservation on servers, client links and the shared channel, all
//! booked in one ledger per filesystem ([`fs`]).
//!
//! [`LocalDisk`] is the real-mode twin: the same MPI-IO layer can run
//! against actual host files with wall-clock timing.

pub mod cache;
pub mod config;
pub mod file;
pub mod fs;
pub mod localdisk;
pub mod server;
pub mod stripe;

pub use cache::{Cache, CACHE_BLOCK};
pub use config::PfsConfig;
pub use file::FsFile;
pub use fs::{DataRef, Pfs};
pub use localdisk::{LocalDisk, LocalFile};
pub use server::Server;
pub use stripe::{per_server_bytes, split as stripe_split, Extent};
