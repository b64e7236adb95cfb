//! # beff
//!
//! A from-scratch Rust reproduction of
//! *Benchmark Design for Characterization of Balanced High-Performance
//! Architectures* (Koniges, Rabenseifner, Solchenbach — IPPS 2001): the
//! **effective bandwidth benchmark b_eff** and the **effective I/O
//! bandwidth benchmark b_eff_io**, together with every substrate they
//! need — an MPI-like message-passing runtime, a virtual-time network
//! simulator with calibrated machine models of the paper's evaluation
//! systems, a parallel-filesystem simulator, and an MPI-IO layer with
//! two-phase collective I/O.
//!
//! This facade re-exports the whole stack. Quick start:
//!
//! ```
//! use beff::machines;
//! use beff::mpi::World;
//! use beff::core::beff::{run_beff, BeffConfig};
//!
//! // b_eff on a simulated 24-processor partition of a Cray T3E
//! let machine = machines::t3e();
//! let cfg = BeffConfig::quick(machine.mem_per_proc).without_extras();
//! let results = World::sim_partition(machine.network(), 4)
//!     .run(|comm| run_beff(comm, &cfg));
//! assert!(results[0].beff > 0.0);
//! ```
//!
//! Crate map (see DESIGN.md for the experiment index):
//!
//! * [`sim`] — the workload-agnostic deterministic-simulation
//!   substrate: token scheduler, fiber engine, virtual clocks, typed
//!   ports, fair-share resources,
//! * [`netsim`] — topologies, link contention, machine cost models,
//! * [`faults`] — seeded deterministic fault injection (degraded and
//!   dead links, stragglers, message drops, rank crashes),
//! * [`mpi`] — MPI-like communicator (ranks are fibers in sim mode,
//!   host threads in real mode): p2p, collectives, split,
//! * [`pfs`] — striped I/O servers, write-back cache, local-disk twin,
//! * [`mpiio`] — file views, shared pointers, collective buffering,
//! * [`core`] — the two benchmarks themselves,
//! * [`machines`] — calibrated models (T3E, SP, SR 8000, SX-5, …),
//! * [`report`] — tables / pseudo-log charts / CSV / JSON dumps,
//! * [`serve`] — resident benchmark daemon: job queue, pooled resident
//!   worlds, content-addressed result cache (exact hits, by
//!   determinism),
//! * [`sync`] — in-tree locks, condvars and MPMC channels over
//!   `std::sync` (no registry dependencies anywhere in the stack),
//! * [`json`] — in-tree JSON value model and serde_json-compatible
//!   writers behind the [`json::ToJson`] trait.

pub use beff_core as core;
pub use beff_faults as faults;
pub use beff_json as json;
pub use beff_machines as machines;
pub use beff_mpi as mpi;
pub use beff_mpiio as mpiio;
pub use beff_netsim as netsim;
pub use beff_pfs as pfs;
pub use beff_report as report;
pub use beff_serve as serve;
pub use beff_sim as sim;
pub use beff_sync as sync;
