//! Fault specifications and their materialized, replayable plans.
//!
//! A [`FaultSpec`] is the knob panel (which classes, how severe); a
//! [`FaultPlan`] is the concrete schedule drawn from it with the
//! `beff-check` RNG against one topology. The plan is plain data —
//! serializable, comparable, and the only thing the injection hooks
//! ever consult — so replaying a (seed, spec, topology) triple
//! reproduces the exact same fault schedule byte for byte.

use beff_check::Gen;
use beff_json::{Json, ToJson};
use beff_netsim::{MachineNet, Secs};

/// Environment override for a command's default fault seed, parsed
/// like `BEFF_CHECK_SEED`: decimal or `0x`-prefixed hex.
pub const ENV_SEED: &str = "BEFF_FAULT_SEED";

fn env_u64(var: &str) -> Option<u64> {
    let raw = std::env::var(var).ok()?;
    let raw = raw.trim();
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    match parsed {
        Ok(v) => Some(v),
        Err(_) => panic!("{var} must be a u64 (decimal or 0x-hex), got {raw:?}"),
    }
}

/// A command's default fault seed: `BEFF_FAULT_SEED` when set, else
/// `default`. A [`FaultSpec`] keeps the seed it is given.
pub fn resolve_seed(default: u64) -> u64 {
    env_u64(ENV_SEED).unwrap_or(default)
}

/// splitmix64 — the standard 64-bit finalizer-style mixer. Used to turn
/// (seed, src, dst, seq, attempt) into an independent uniform draw so
/// per-message drop decisions need no shared RNG state (and hence no
/// cross-rank ordering sensitivity).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Which fault classes are active and how hard they bite.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed for plan materialization.
    pub seed: u64,
    /// Overall severity in `0.0..=1.0`; scales slowdowns, multipliers
    /// and drop rates. Severity 0 produces an empty schedule for the
    /// scaled classes.
    pub severity: f64,
    /// Degrade every link's bandwidth for the whole run.
    pub degrade: bool,
    /// Degrade links in on/off windows (flapping) instead of uniformly.
    pub flapping: bool,
    /// Number of straggler ranks (compute + overhead multipliers).
    pub stragglers: usize,
    /// Drop messages at the wire with probability `0.35 * severity`,
    /// retransmitting with exponential backoff.
    pub drops: bool,
    /// Number of ranks that crash at a drawn virtual time.
    pub crashes: usize,
    /// Number of permanently dead links.
    pub dead_links: usize,
    /// Slow the parallel filesystem servers by `1 + 4 * severity`.
    pub io_slow: bool,
}

impl FaultSpec {
    /// No faults at all (still seeded, so `materialize` is total).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            severity: 0.0,
            degrade: false,
            flapping: false,
            stragglers: 0,
            drops: false,
            crashes: 0,
            dead_links: 0,
            io_slow: false,
        }
    }

    pub fn with_severity(mut self, severity: f64) -> Self {
        assert!((0.0..=1.0).contains(&severity), "severity must be in 0..=1");
        self.severity = severity;
        self
    }

    pub fn degrade(mut self) -> Self {
        self.degrade = true;
        self
    }

    pub fn flapping(mut self) -> Self {
        self.flapping = true;
        self
    }

    pub fn stragglers(mut self, n: usize) -> Self {
        self.stragglers = n;
        self
    }

    pub fn drops(mut self) -> Self {
        self.drops = true;
        self
    }

    pub fn crashes(mut self, n: usize) -> Self {
        self.crashes = n;
        self
    }

    pub fn dead_links(mut self, n: usize) -> Self {
        self.dead_links = n;
        self
    }

    pub fn io_slow(mut self) -> Self {
        self.io_slow = true;
        self
    }

    /// Draw the concrete fault schedule for `net`. Pure function of
    /// (self, net topology): the RNG is seeded from `self.seed` alone
    /// and consumed in a fixed class order, so the same spec on the
    /// same topology always yields the same plan.
    pub fn materialize(&self, net: &MachineNet) -> FaultPlan {
        self.materialize_dims(net.procs(), net.links().len())
    }

    /// [`materialize`](Self::materialize) against bare dimensions.
    /// The plan only ever depends on the topology through its actor
    /// and link counts, so non-network workloads (e.g. the PFS storage
    /// sweep, which has clients but no wire) can draw the identical
    /// schedule without a `MachineNet` in hand.
    pub fn materialize_dims(&self, procs: usize, num_links: usize) -> FaultPlan {
        let mut g = Gen::new(self.seed);
        let sev = self.severity;

        // Link degradation: the multiplier is monotone in severity so
        // the chaos suite's "b_eff non-increasing with severity" claim
        // has a mechanical basis.
        let mut link_windows = Vec::new();
        if self.degrade && sev > 0.0 {
            let slowdown = 1.0 + 9.0 * sev;
            for link in 0..num_links {
                link_windows.push(LinkWindow { link, t0: 0.0, t1: f64::INFINITY, slowdown });
            }
        }
        if self.flapping && sev > 0.0 {
            let slowdown = 1.0 + 9.0 * sev;
            for link in 0..num_links {
                // Three bursts per link somewhere in the first half
                // second of virtual time; beyond that the link is clean.
                for _ in 0..3 {
                    let t0 = g.f64(0.0, 0.5);
                    let width = g.f64(0.005, 0.05);
                    link_windows.push(LinkWindow { link, t0, t1: t0 + width, slowdown });
                }
            }
        }

        let mut dead = Vec::new();
        if self.dead_links > 0 && num_links > 0 {
            let mut perm = g.permutation(num_links);
            perm.truncate(self.dead_links.min(num_links));
            perm.sort_unstable();
            dead = perm;
        }

        let mut stragglers = Vec::new();
        if self.stragglers > 0 && sev > 0.0 {
            let mult = 1.0 + 7.0 * sev;
            let mut perm = g.permutation(procs);
            perm.truncate(self.stragglers.min(procs));
            perm.sort_unstable();
            for rank in perm {
                stragglers.push(Straggler { rank, compute_mult: mult, overhead_mult: mult });
            }
        }

        let drops = if self.drops && sev > 0.0 {
            // Threshold comparison (`hash < threshold`) makes the set of
            // dropped messages a superset of every lower severity's set:
            // raising severity only ever adds delay.
            let rate = 0.35 * sev;
            Some(DropPlan {
                threshold: (rate * 4_294_967_296.0) as u64,
                max_retransmits: 12,
                rto: 2.0e-4,
            })
        } else {
            None
        };

        let mut crashes = Vec::new();
        if self.crashes > 0 && procs > 0 {
            let mut perm = g.permutation(procs);
            perm.truncate(self.crashes.min(procs));
            perm.sort_unstable();
            for rank in perm {
                let at = g.f64(0.01, 0.2);
                crashes.push(Crash { rank, at });
            }
        }

        let io_slowdown = if self.io_slow && sev > 0.0 { 1.0 + 4.0 * sev } else { 1.0 };

        FaultPlan {
            seed: self.seed,
            severity: sev,
            link_windows,
            dead_links: dead,
            stragglers,
            drops,
            crashes,
            io_slowdown,
        }
    }
}

/// Degrade one link's bandwidth by `slowdown` over `[t0, t1)` of
/// accumulated virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkWindow {
    pub link: usize,
    pub t0: Secs,
    pub t1: Secs,
    pub slowdown: f64,
}

/// Per-rank slowdown multipliers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Straggler {
    pub rank: usize,
    pub compute_mult: f64,
    pub overhead_mult: f64,
}

/// A rank death at an absolute (accumulated) virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crash {
    pub rank: usize,
    pub at: Secs,
}

/// Transient wire-level message loss with bounded retransmit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DropPlan {
    /// Drop when `hash >> 32 < threshold` (so `threshold / 2^32` is the
    /// drop probability, monotone in severity).
    pub threshold: u64,
    pub max_retransmits: u32,
    /// Base retransmission timeout; attempt `k` waits `rto * 2^k`.
    pub rto: Secs,
}

/// The materialized, replayable fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    pub seed: u64,
    pub severity: f64,
    pub link_windows: Vec<LinkWindow>,
    pub dead_links: Vec<usize>,
    pub stragglers: Vec<Straggler>,
    pub drops: Option<DropPlan>,
    pub crashes: Vec<Crash>,
    pub io_slowdown: f64,
}

impl FaultPlan {
    pub fn empty() -> Self {
        Self {
            seed: 0,
            severity: 0.0,
            link_windows: Vec::new(),
            dead_links: Vec::new(),
            stragglers: Vec::new(),
            drops: None,
            crashes: Vec::new(),
            io_slowdown: 1.0,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.link_windows.is_empty()
            && self.dead_links.is_empty()
            && self.stragglers.is_empty()
            && self.drops.is_none()
            && self.crashes.is_empty()
            && self.io_slowdown == 1.0
    }

    pub fn overhead_mult(&self, rank: usize) -> f64 {
        self.stragglers
            .iter()
            .find(|s| s.rank == rank)
            .map_or(1.0, |s| s.overhead_mult)
    }

    pub fn compute_mult(&self, rank: usize) -> f64 {
        self.stragglers
            .iter()
            .find(|s| s.rank == rank)
            .map_or(1.0, |s| s.compute_mult)
    }

    pub fn crash_at(&self, rank: usize) -> Option<Secs> {
        self.crashes.iter().find(|c| c.rank == rank).map(|c| c.at)
    }

    /// A plan whose only content is `rank` dying at virtual t=0: the
    /// canonical *world poison*. Any run under this plan raises a typed
    /// [`BeffError::RankCrashed`](beff_sim::BeffError) before the first
    /// message moves — the serve layer's quarantine harness uses it to
    /// damage a pooled world deterministically and prove the pool
    /// rebuilds fresh state (DESIGN.md §12).
    pub fn instant_crash(rank: usize) -> Self {
        Self { crashes: vec![Crash { rank, at: 0.0 }], ..Self::empty() }
    }

    /// Whether the wire-fault prologue (drops/dead routes) must run at
    /// all for sends.
    pub fn has_wire_faults(&self) -> bool {
        self.drops.is_some() || !self.dead_links.is_empty()
    }

    pub fn max_retransmits(&self) -> u32 {
        self.drops.map_or(3, |d| d.max_retransmits)
    }

    pub fn rto(&self) -> Secs {
        self.drops.map_or(1.0e-3, |d| d.rto)
    }

    /// Deterministic per-copy drop decision: a pure hash of (seed, src,
    /// dst, seq, attempt), independent of rank interleaving.
    pub fn should_drop(&self, src: usize, dst: usize, seq: u64, attempt: u32) -> bool {
        let Some(d) = &self.drops else { return false };
        let key = splitmix64(self.seed)
            ^ splitmix64(((src as u64) << 32) | dst as u64)
            ^ splitmix64(seq.wrapping_mul(0x100).wrapping_add(attempt as u64));
        (splitmix64(key) >> 32) < d.threshold
    }
}

impl ToJson for LinkWindow {
    fn to_json(&self) -> Json {
        Json::object()
            .field("link", &self.link)
            .field("t0", &self.t0)
            .field("t1", &self.t1)
            .field("slowdown", &self.slowdown)
            .build()
    }
}

impl ToJson for Straggler {
    fn to_json(&self) -> Json {
        Json::object()
            .field("rank", &self.rank)
            .field("compute_mult", &self.compute_mult)
            .field("overhead_mult", &self.overhead_mult)
            .build()
    }
}

impl ToJson for Crash {
    fn to_json(&self) -> Json {
        Json::object().field("rank", &self.rank).field("at", &self.at).build()
    }
}

impl ToJson for DropPlan {
    fn to_json(&self) -> Json {
        Json::object()
            .field("threshold", &self.threshold)
            .field("max_retransmits", &self.max_retransmits)
            .field("rto", &self.rto)
            .build()
    }
}

impl ToJson for FaultPlan {
    fn to_json(&self) -> Json {
        Json::object()
            .field("seed", &self.seed)
            .field("severity", &self.severity)
            .field("link_windows", &self.link_windows)
            .field("dead_links", &self.dead_links)
            .field("stragglers", &self.stragglers)
            .field("drops", &self.drops)
            .field("crashes", &self.crashes)
            .field("io_slowdown", &self.io_slowdown)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beff_netsim::{MachineNet, NetParams, Topology};

    fn net() -> MachineNet {
        MachineNet::new(Topology::Ring { procs: 8 }, NetParams::default())
    }

    #[test]
    fn materialize_is_deterministic() {
        let spec = FaultSpec::none(42)
            .with_severity(0.7)
            .degrade()
            .stragglers(2)
            .drops()
            .crashes(1)
            .dead_links(1);
        let n = net();
        let a = spec.materialize(&n);
        let b = spec.materialize(&n);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn severity_zero_scaled_classes_vanish() {
        let spec = FaultSpec::none(7).degrade().stragglers(3).drops().io_slow();
        let plan = spec.materialize(&net());
        assert!(plan.is_empty(), "severity 0 must not schedule scaled faults");
    }

    #[test]
    fn drop_sets_nest_with_severity() {
        // hash < threshold is monotone: everything dropped at low
        // severity is also dropped at high severity.
        let n = net();
        let lo = FaultSpec::none(9).with_severity(0.3).drops().materialize(&n);
        let hi = FaultSpec::none(9).with_severity(0.9).drops().materialize(&n);
        for seq in 0..2000u64 {
            if lo.should_drop(0, 1, seq, 0) {
                assert!(hi.should_drop(0, 1, seq, 0), "drop sets must nest (seq {seq})");
            }
        }
    }

    #[test]
    fn drop_rate_tracks_threshold() {
        let plan = FaultSpec::none(11).with_severity(1.0).drops().materialize(&net());
        let hits = (0..10_000u64).filter(|&s| plan.should_drop(2, 3, s, 0)).count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.35).abs() < 0.03, "empirical drop rate {rate} far from 0.35");
    }
}
