//! # beff-analyze
//!
//! The workspace's own lint pass, for what no stock tool checks. The
//! b_eff reproduction's headline guarantee — bitwise-deterministic
//! replay — is enforced statically in two places. Clippy, with the
//! workspace `clippy.toml`, bans host time, hash order, host thread
//! identity, stray threads and undocumented `unsafe` by resolved path
//! (verify.sh's clippy gate). This crate — a zero-dependency Rust lexer
//! plus a rule engine over every source file and manifest — fails the
//! build on the rest:
//!
//! * `unwrap` — per-crate `unwrap()`/`expect()` budgets (a ratchet:
//!   counts may fall freely but may only rise by editing the budget
//!   table in [`config`]);
//! * `lock-decl` — every ranked lock's file is declared in [`config`]
//!   and holds exactly one `Rank::new(level, "name")` literal, which
//!   is the lock's level for the static checker too;
//! * `path-deps` — any registry dependency in any `Cargo.toml`;
//! * `layering` — the crate-stack contract around `beff-sim`: fiber
//!   machinery quarantined in `crates/sim/`, `beff-mpi` barred from
//!   reaching substrate names through netsim's re-exports, and `beff-*`
//!   dependency allow-lists on the layered crates' manifests;
//! * `waiver` — a malformed waiver, or one naming no rule.
//!
//! Known-good exceptions are waived in place, with a reason:
//!
//! ```text
//! // beff-analyze: allow(unwrap): the table is built non-empty above
//! ```
//!
//! On top of the per-line rules sits an **interprocedural layer**: an
//! item parser ([`items`]) and workspace symbol table ([`symbols`])
//! feed a conservative call graph ([`callgraph`]), over which two
//! whole-program passes run:
//!
//! * `lockflow` — tracks ranked lock acquisitions within each function
//!   and along call chains, proving the hierarchy holds on every path
//!   and flagging locks held across `yield_turn`/fiber-switch points;
//!   every finding is a violation;
//! * `panicflow` — marks `unwrap`/`expect`/`panic!` sites reachable
//!   from scheduler, worker-pool, and serve entry points, ratcheting
//!   against a committed per-crate baseline like the unwrap budgets.
//!
//! Run it as `cargo run -p beff-analyze --bin analyze`; diagnostics are
//! `file:line: [rule] message` on stderr, the exit code is the gate,
//! and `results/analyze.json` carries the machine-readable report.

pub mod callgraph;
pub mod config;
pub mod deps;
pub mod engine;
pub mod items;
pub mod layering;
pub mod lexer;
pub mod lockflow;
pub mod panicflow;
pub mod ranks;
pub mod rules;
pub mod source;
pub mod symbols;

pub use engine::{analyze_workspace, AnalyzeReport};
pub use rules::Violation;
pub use source::SourceFile;
