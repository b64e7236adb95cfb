//! # beff-mpi
//!
//! An MPI-like message-passing runtime for the b_eff / b_eff_io
//! reproduction: blocking/nonblocking point-to-point with tag
//! matching, collectives built over point-to-point, communicator
//! split/dup, and Cartesian grid helpers.
//!
//! Two engines run the *same* benchmark code:
//!
//! * **Real** ([`World::real`]) — ranks are host threads, time is the
//!   wall clock, data moves through shared-memory mailboxes. The host
//!   machine is, in effect, a small SMP under test.
//! * **Sim** ([`World::sim`]) — ranks are fibers on the caller's
//!   thread; each owns a virtual clock, and every operation is priced
//!   by a [`beff_netsim::MachineNet`] model. Ranks take turns under the
//!   substrate's deterministic token scheduler
//!   ([`beff_sim::SimScheduler`]): execution order is a pure function
//!   of the program, so same seeds give bit-identical results, and a
//!   genuine deadlock in the MPI program is detected and reported
//!   instead of hanging.
//!
//! Repeated runs on one machine model can reuse a resident world
//! ([`WorldSession`]) instead of rebuilding rank stacks (sim) or
//! respawning rank threads (real) per run.
//!
//! ```
//! use beff_mpi::World;
//!
//! let sums = World::real(4).run(|comm| {
//!     comm.allreduce_scalar(comm.rank() as f64, beff_mpi::ReduceOp::Sum)
//! });
//! assert!(sums.iter().all(|&s| s == 6.0));
//! ```

pub mod collectives;
pub mod comm;
pub mod engine;
pub mod mailbox;
pub mod message;
pub mod runtime;
pub mod topology;
pub mod wire;

pub use beff_faults::{BeffError, FaultSession};
pub use collectives::ReduceOp;
pub use comm::{Comm, RecvReq, SendReq};
pub use engine::EngineCfg;
pub use message::{Payload, RecvInfo, Tag};
pub use beff_sim::{Pages, Workers};
pub use runtime::{World, WorldSession};
pub use topology::{dims_create, CartGrid};
