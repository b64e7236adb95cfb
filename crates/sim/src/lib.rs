//! # beff-sim
//!
//! The workload-agnostic deterministic-simulation substrate under the
//! b_eff stack. Everything in this crate is *mechanism*, not policy:
//! it knows nothing about MPI ranks, message envelopes, network
//! topologies, or filesystems. Those are personalities layered on top
//! (`beff-mpi`, `beff-netsim`, `beff-pfs`).
//!
//! The pieces, bottom-up:
//!
//! - [`units`] / [`clock`] — virtual seconds and the per-rank virtual
//!   clock ([`VClock`]).
//! - [`rng`] — the one deterministic RNG ([`Rng64`], xoshiro256**) the
//!   whole workspace shares; `beff-check` and the fault planner seed
//!   from it.
//! - [`resource`] / [`link`] — next-free-time reservation with optional
//!   fair-share contention; priced links with fault windows, booked on
//!   one per-machine [`LinkLedger`].
//! - [`error`] — typed simulation faults ([`BeffError`]) raised as
//!   panics and caught at actor/world boundaries.
//! - [`pages`] — zeroed, lazily committed memory straight from the
//!   kernel ([`Pages`]): fiber stacks and a personality's big per-rank
//!   buffers, kept off the `malloc` heap so a world costs what it
//!   touches whatever ran before it.
//! - [`fiber`] — one suspend/resume interface with two backends picked
//!   from the target architecture (x86_64 stack switch, thread baton
//!   elsewhere); the only module that knows the difference.
//! - [`sched`] — the round-robin token scheduler ([`SimScheduler`]):
//!   one host drive loop over fibers, and the one launcher
//!   ([`SimScheduler::launch`]) every simulated world runs through.
//! - [`port`] — the two-queue matching mailbox generalized to typed
//!   [`Port`]s over any [`Message`] type; MPI's rank mailbox is one
//!   instantiation.
//! - [`actors`] — a minimal actor runtime ([`try_run_actors`]) that
//!   runs `n` closures as fibers under the token scheduler with
//!   typed-fault isolation, for workloads that don't want the MPI world
//!   machinery.
//! - [`pool`] — the workspace's one worker pool ([`Workers`],
//!   [`map_ordered`]): deterministic submission-ordered fan-out of
//!   share-nothing jobs over `BEFF_WORKERS` OS threads.
//!
//! Determinism contract: with a fixed program, every run schedules
//! actors in the same total order and advances virtual time through
//! the same float operations, so results replay byte-identically.
//! `beff-analyze` machine-enforces the layering (only this crate may
//! contain fiber/context-switch unsafe code; `beff-mpi` may not reach
//! simulation internals through `beff-netsim`).

pub mod actors;
pub mod clock;
pub mod error;
pub mod fiber;
pub mod link;
pub mod pages;
pub mod pool;
pub mod port;
pub mod resource;
pub mod rng;
pub mod sched;
pub mod units;

pub use actors::{run_actors, try_run_actors, ActorCtx, ActorId};
pub use clock::VClock;
pub use error::{silence_fault_panics, BeffError};
pub use link::{Degrade, Link, LinkLedger};
pub use pages::Pages;
pub use pool::{map_ordered, Workers};
pub use port::{Message, Port, PushOutcome};
pub use resource::Resource;
pub use rng::Rng64;
pub use sched::{SchedAudit, SimScheduler};
pub use units::{Secs, GB, KB, MB};
