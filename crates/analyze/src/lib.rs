//! # beff-analyze
//!
//! The workspace's determinism & safety lint pass. The b_eff
//! reproduction's headline guarantee — bitwise-deterministic replay —
//! was previously enforced only by runtime golden tests; this crate
//! makes the contract *static*: a zero-dependency Rust lexer plus a
//! rule engine walk every source file and manifest on each verify run
//! and fail the build on:
//!
//! * `wall-clock` — `Instant`/`SystemTime`/`sleep` in any non-test line
//!   (the simulated clock in `netsim::clock` is the only sanctioned
//!   time source; `beff serve_torture`'s command file is the one home);
//! * `hash-order` — `HashMap`/`HashSet`, thread ids and addresses in
//!   any non-test line: their order or identity depends on the host;
//! * `threading` — thread creation outside the substrate and sync;
//! * `unwrap` — per-crate `unwrap()`/`expect()` budgets (a ratchet:
//!   counts may fall freely but may only rise by editing the budget
//!   table in [`config`]);
//! * `safety` — `unsafe` blocks/impls without a `// SAFETY:`
//!   justification;
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
//! // beff-analyze: allow(hash-order): keyed lookups only, never iterated
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
