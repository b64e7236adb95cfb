//! Seeded, deterministic fault injection for the simulated world.
//!
//! Real machines jitter, straggle and occasionally lose messages; the
//! paper's b_eff is time-driven precisely so it survives them. This
//! crate gives the perfect simulated machine those imperfections back
//! — on purpose, reproducibly:
//!
//! - a [`FaultSpec`] names which fault classes are active and how hard
//!   they bite (`severity` in 0..=1);
//! - [`FaultSpec::materialize`] draws a concrete [`FaultPlan`] from the
//!   `beff-check` RNG, seeded by the spec's own `seed`;
//! - a [`FaultSession`] carries the plan across the per-pattern runs of
//!   one benchmark execution, accumulating virtual time (each world run
//!   restarts its clocks at zero) and remembering which ranks died.
//!
//! Determinism contract: the plan is a pure function of (seed, spec,
//! topology); every injected decision — drop or deliver, crash time,
//! degradation window — is drawn from the plan by counters that follow
//! the token scheduler's deterministic rank interleaving. Same (seed,
//! plan) ⇒ bit-identical results, including the fault outcomes. With no
//! plan active the instrumented code paths perform the exact float
//! arithmetic they did before the fault layer existed (guarded by
//! `Option`/flag checks only), so fault-free runs stay byte-identical
//! to the pre-fault golden outputs.

pub mod plan;
pub mod session;

pub use beff_sim::error::{silence_fault_panics, BeffError};
pub use plan::{
    resolve_seed, Crash, DropPlan, FaultPlan, FaultSpec, LinkWindow, Straggler, ENV_SEED,
};
pub use session::{FaultSession, FaultStats};
