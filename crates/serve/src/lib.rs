//! # beff-serve
//!
//! b_eff as a service: a resident benchmark daemon that turns the
//! one-shot characterization runs into a long-running queryable
//! instrument.
//!
//! The paper's b_eff is a single run on a single machine. The
//! north-star here is a what-if service — "what does the effective
//! bandwidth of a 512-rank T3E partition look like with degraded
//! links?" — answered millions of times. Two properties of this stack
//! make that cheap:
//!
//! 1. **Determinism**: every simulation below the server is
//!    bit-deterministic, so a result is a pure function of its job
//!    spec. Millions of queries collapse onto thousands of distinct
//!    simulations, and a cache hit is *exact*, not approximate.
//! 2. **Resident worlds**: partitions are expensive to spawn and free
//!    to keep ([`WorldSession`](beff_mpi::WorldSession)); a session
//!    pool pays the spawn once per partition shape.
//!
//! The pieces (DESIGN.md §11):
//!
//! * [`spec`] — [`JobSpec`]: machine + procs + schedule + seeds +
//!   fault plan; canonically serialized, it *is* the cache key,
//! * [`wire`] — 4-byte length-prefixed JSON frames,
//! * [`cache`] — content-addressed result store (exact hits),
//! * [`journal`] — durable append-only shadow of the cache, replayed
//!   on startup so a restarted daemon serves old results from disk,
//! * [`pool`] — resident [`Partition`](pool::Partition)s, checked out
//!   per job, quarantined when a run exits through a typed fault,
//! * [`queue`] — bounded admission queue with deadline/shed policy,
//! * [`server`] — the transport-agnostic core tying them together.
//!
//! The failure model — what survives a torn journal, a poisoned
//! world, a hostile frame, an overload burst, a racing shutdown — is
//! DESIGN.md §12, and is enforced by `beff serve_torture`: a seeded
//! adversarial scenario mix whose deterministic section is a
//! byte-compared `verify.sh` golden.
//!
//! The `beff` command drives this library: `beff serve` (TCP daemon
//! over the frame protocol), `beff loadgen` (seeded query-mix replay
//! against an in-process server: the cache-correctness audit and the
//! `results/serve_virtual.json` golden that `verify.sh` gates), and
//! `beff serve_torture` (the failure-model gate).

pub mod cache;
pub mod journal;
pub mod pool;
pub mod queue;
pub mod server;
pub mod spec;
pub mod wire;

pub use cache::{CacheStats, ResultCache};
pub use journal::{Journal, JournalError, Recovery};
pub use queue::Admission;
pub use server::{serve_connection, ConnClose, Outcome, Server};
pub use spec::{digest_of, fnv1a64, JobSpec, Schedule, SpecError};
