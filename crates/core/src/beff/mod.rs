//! The effective bandwidth benchmark **b_eff** (paper §4).
//!
//! The single number:
//!
//! ```text
//! b_eff = logavg( logavg_ringpatterns( sum_L( max_mthd( max_rep( b )))/21 ),
//!                 logavg_randompatterns( … ) )
//! ```
//!
//! with 21 message sizes up to `L_max = min(128 MB, mem/128)`, six ring
//! patterns + six random patterns, three MPI methods, and time-driven
//! looplength control. Additional diagnostic patterns (ping-pong,
//! bisections, Cartesian, worst-case cycle) are measured but not
//! averaged.

pub mod extra;
pub mod measure;
pub mod methods;
pub mod resilient;
pub mod result;
pub mod rings;
pub mod run;
pub mod sizes;

pub use measure::MeasureSchedule;
pub use methods::{Method, Transfers, METHODS};
pub use resilient::{
    run_one_pattern, PatternAttempt, PatternHealth, PatternStatus, ResilientBeffResult,
    StabilityReport, WatchdogPolicy,
};
pub use result::{BeffResult, ExtraResult, PatternResult};
pub use rings::{pattern_tables, rank_patterns, ring_sizes, ring_targets, Pattern, RingLayout};
pub use run::{run_beff, BeffConfig, DEFAULT_SEED};
pub use sizes::{lmax, message_sizes, NUM_SIZES};
