//! # beff-netsim
//!
//! Discrete-event, virtual-time network model used as the interconnect
//! substrate for the b_eff / b_eff_io benchmark reproduction.
//!
//! The model is a causal-timestamp (LogGP-style) simulation:
//!
//! * every MPI rank owns a [`clock::VClock`] (virtual seconds),
//! * a message transfer is priced by [`model::MachineNet::transfer`],
//!   which routes the message over the configured [`topology::Topology`]
//!   and reserves occupancy on every traversed [`link::Link`],
//! * contention emerges from link reservation: two messages crossing the
//!   same wire at the same virtual time serialize.
//!
//! The mechanism layer — virtual clocks, fair-share [`Resource`]s,
//! priced [`Link`]s, the deterministic RNG — lives in `beff-sim`
//! (the workload-agnostic simulation substrate); this crate re-exports
//! those names at their historical paths and layers the *network
//! semantics* on top: topologies, routing, LogGP transfer pricing.
//!
//! Nothing here depends on the MPI layer: this crate answers only
//! "what does it cost", never "who is allowed to proceed".

// Substrate modules, re-exported at their pre-extraction paths so
// `beff_netsim::units::fmt_bytes`, `beff_netsim::rng::Rng64`, … keep
// resolving for every downstream crate.
pub use beff_sim::clock;
pub use beff_sim::link;
pub use beff_sim::resource;
pub use beff_sim::rng;
pub use beff_sim::units;

pub mod model;
pub mod stats;
pub mod routing;
pub mod topology;

pub use beff_sim::{Degrade, Link, Resource, Rng64, Secs, VClock, GB, KB, MB};
pub use model::{Egress, MachineNet, NetParams, Tier, Transfer};
pub use stats::{traffic_report, KindStats, TrafficReport};
pub use routing::{RouteTable, SplitRoute};
pub use topology::{Ingress, LinkKind, Placement, Topology};
