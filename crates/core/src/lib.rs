//! # beff-core
//!
//! The paper's primary contribution: the **effective bandwidth
//! benchmark** ([`beff`]) and the **effective I/O bandwidth benchmark**
//! ([`beffio`]), plus the balance factor ([`balance`]).
//!
//! Both benchmarks are written against the `beff-mpi` communicator and
//! the `beff-mpiio` file API and run on simulated machine models in
//! virtual time.

pub mod balance;
pub mod beff;
pub mod beffio;
pub mod logavg;

pub use balance::Balance;
pub use beff::{run_beff, BeffConfig, BeffResult};
pub use beffio::{run_beff_io, BeffIoConfig, BeffIoResult};
