//! Job specs: the unit of work a client submits, and — serialized in
//! canonical form — the content address of its result.
//!
//! A [`JobSpec`] names everything that determines a b_eff result bit
//! for bit: machine model, partition size, measurement schedule,
//! pattern seed, extras flag, and (optionally) a fault plan. Because
//! the whole stack underneath is deterministic, two specs with the
//! same canonical serialization *must* produce byte-identical result
//! reports — which is what lets the server answer repeat queries from
//! a cache with exact (not approximate) hits.
//!
//! Canonicalization is delegated to [`beff_json::to_canonical`]: the
//! compact layout with every object's keys sorted recursively. The
//! field order a client happened to send (or a builder happened to
//! insert) therefore never leaks into the cache key; the property
//! tests in `tests/canonical.rs` pin this.

use beff_core::beff::BeffConfig;
use beff_faults::FaultSpec;
use beff_json::{Json, ToJson};
use beff_machines::Machine;
use beff_netsim::Topology;
use std::fmt;

/// Measurement schedule selector (the two shapes of
/// [`MeasureSchedule`](beff_core::beff::MeasureSchedule) the paper
/// harness uses). An enum rather than raw schedule numbers keeps the
/// spec surface small and every value cache-friendly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Scaled-down CI schedule (`MeasureSchedule::quick`).
    Quick,
    /// Paper-fidelity schedule (`MeasureSchedule::paper`).
    Paper,
}

impl Schedule {
    pub fn as_str(self) -> &'static str {
        match self {
            Schedule::Quick => "quick",
            Schedule::Paper => "paper",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        match s {
            "quick" => Some(Schedule::Quick),
            "paper" => Some(Schedule::Paper),
            _ => None,
        }
    }
}

/// Deterministic fault plan attached to a job: the
/// [`FaultSpec`](beff_faults::FaultSpec) surface, minus `io_slow`
/// (the server runs b_eff, which prices no filesystem traffic).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCfg {
    pub seed: u64,
    /// Overall severity in `0.0..=1.0`.
    pub severity: f64,
    pub degrade: bool,
    pub flapping: bool,
    pub stragglers: usize,
    pub drops: bool,
    pub crashes: usize,
    pub dead_links: usize,
}

impl FaultCfg {
    /// No fault classes enabled (still seeded).
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
        }
    }

    /// Is every fault class disabled? (Then the clean pooled path is
    /// bit-identical and the session pool may serve the job.)
    pub fn is_empty(&self) -> bool {
        !self.degrade
            && !self.flapping
            && self.stragglers == 0
            && !self.drops
            && self.crashes == 0
            && self.dead_links == 0
    }

    /// The materializable fault spec.
    pub fn to_fault_spec(&self) -> FaultSpec {
        let mut s = FaultSpec::none(self.seed).with_severity(self.severity);
        if self.degrade {
            s = s.degrade();
        }
        if self.flapping {
            s = s.flapping();
        }
        if self.stragglers > 0 {
            s = s.stragglers(self.stragglers);
        }
        if self.drops {
            s = s.drops();
        }
        if self.crashes > 0 {
            s = s.crashes(self.crashes);
        }
        if self.dead_links > 0 {
            s = s.dead_links(self.dead_links);
        }
        s
    }
}

impl ToJson for FaultCfg {
    fn to_json(&self) -> Json {
        Json::object()
            .field("seed", &self.seed)
            .field("severity", &self.severity)
            .field("degrade", &self.degrade)
            .field("flapping", &self.flapping)
            .field("stragglers", &self.stragglers)
            .field("drops", &self.drops)
            .field("crashes", &self.crashes)
            .field("dead_links", &self.dead_links)
            .build()
    }
}

/// One benchmark query: which machine, how many ranks, which schedule,
/// which seeds, which faults.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Machine catalog key (`beff_machines::by_key`).
    pub machine: String,
    /// Partition size in ranks (first `procs` processors).
    pub procs: usize,
    pub schedule: Schedule,
    /// Seed for the random neighborhood patterns.
    pub seed: u64,
    /// Measure the non-averaged diagnostic patterns too.
    pub extras: bool,
    /// Optional fault plan; `None` is the clean path.
    pub fault: Option<FaultCfg>,
}

impl JobSpec {
    /// A quick-schedule clean spec with the paper's default pattern
    /// seed. Refine with the `with_*` setters.
    pub fn new(machine: &str, procs: usize) -> Self {
        Self {
            machine: machine.to_string(),
            procs,
            schedule: Schedule::Quick,
            seed: 0xB0EF,
            extras: false,
            fault: None,
        }
    }

    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_extras(mut self, extras: bool) -> Self {
        self.extras = extras;
        self
    }

    pub fn with_fault(mut self, fault: FaultCfg) -> Self {
        self.fault = Some(fault);
        self
    }

    /// The content address: canonical (key-sorted, compact) JSON of the
    /// spec. Structurally equal specs — however their fields were
    /// ordered on the wire — get byte-identical keys.
    pub fn canonical_key(&self) -> String {
        beff_json::to_canonical(self)
    }

    /// Short printable digest of the canonical key (FNV-1a 64, hex).
    pub fn key_digest(&self) -> String {
        digest_of(&self.canonical_key())
    }

    /// Resolve and validate against the machine catalog: the machine
    /// must exist, the partition must fit it (and respect SMP node
    /// granularity), and fault severity must be in range. Returns the
    /// machine model *sized for the partition*.
    pub fn resolve(&self) -> Result<Machine, SpecError> {
        let machine = beff_machines::by_key(&self.machine)
            .ok_or_else(|| SpecError::UnknownMachine(self.machine.clone()))?;
        if self.procs < 2 || self.procs > machine.procs {
            return Err(SpecError::BadProcs { procs: self.procs, max: machine.procs });
        }
        if let Topology::SmpCluster { ppn, .. } = machine.topology {
            if !self.procs.is_multiple_of(ppn) {
                return Err(SpecError::NotNodeGranular { procs: self.procs, ppn });
            }
        }
        if let Some(f) = &self.fault {
            if !(0.0..=1.0).contains(&f.severity) {
                return Err(SpecError::BadSeverity(f.severity));
            }
        }
        Ok(machine.sized_for(self.procs))
    }

    /// The b_eff measurement configuration this spec asks for, on the
    /// already-resolved machine.
    pub fn beff_config(&self, machine: &Machine) -> BeffConfig {
        let mut cfg = match self.schedule {
            Schedule::Quick => BeffConfig::quick(machine.mem_per_proc),
            Schedule::Paper => BeffConfig::paper(machine.mem_per_proc),
        };
        cfg.seed = self.seed;
        if !self.extras {
            cfg = cfg.without_extras();
        }
        cfg
    }

    /// Parse a spec from its wire JSON. Field order is free; unknown
    /// fields are rejected (a typo'd field silently defaulting would
    /// alias two *different* intents onto one cache key).
    pub fn from_json(v: &Json) -> Result<Self, SpecError> {
        let fields = match v {
            Json::Obj(fields) => fields,
            _ => return Err(SpecError::Malformed("spec must be a JSON object".into())),
        };
        let mut machine: Option<String> = None;
        let mut procs: Option<usize> = None;
        let mut schedule = Schedule::Quick;
        let mut seed: u64 = 0xB0EF;
        let mut extras = false;
        let mut fault: Option<FaultCfg> = None;
        for (name, value) in fields {
            match name.as_str() {
                "machine" => machine = Some(as_str(value, "machine")?.to_string()),
                "procs" => procs = Some(as_u64(value, "procs")? as usize),
                "schedule" => {
                    let s = as_str(value, "schedule")?;
                    schedule = Schedule::from_str(s).ok_or_else(|| {
                        SpecError::Malformed(format!(
                            "schedule must be \"quick\" or \"paper\", got {s:?}"
                        ))
                    })?;
                }
                "seed" => seed = as_u64(value, "seed")?,
                "extras" => extras = as_bool(value, "extras")?,
                "fault" => match value {
                    Json::Null => fault = None,
                    other => fault = Some(fault_from_json(other)?),
                },
                other => {
                    return Err(SpecError::Malformed(format!("unknown spec field {other:?}")))
                }
            }
        }
        let machine =
            machine.ok_or_else(|| SpecError::Malformed("spec is missing \"machine\"".into()))?;
        let procs =
            procs.ok_or_else(|| SpecError::Malformed("spec is missing \"procs\"".into()))?;
        Ok(Self { machine, procs, schedule, seed, extras, fault })
    }
}

impl ToJson for JobSpec {
    fn to_json(&self) -> Json {
        Json::object()
            .field("machine", &self.machine)
            .field("procs", &self.procs)
            .field("schedule", self.schedule.as_str())
            .field("seed", &self.seed)
            .field("extras", &self.extras)
            .field("fault", &self.fault)
            .build()
    }
}

fn fault_from_json(v: &Json) -> Result<FaultCfg, SpecError> {
    let fields = match v {
        Json::Obj(fields) => fields,
        _ => return Err(SpecError::Malformed("fault must be a JSON object or null".into())),
    };
    let mut f = FaultCfg::none(0);
    for (name, value) in fields {
        match name.as_str() {
            "seed" => f.seed = as_u64(value, "fault.seed")?,
            "severity" => f.severity = as_f64(value, "fault.severity")?,
            "degrade" => f.degrade = as_bool(value, "fault.degrade")?,
            "flapping" => f.flapping = as_bool(value, "fault.flapping")?,
            "stragglers" => f.stragglers = as_u64(value, "fault.stragglers")? as usize,
            "drops" => f.drops = as_bool(value, "fault.drops")?,
            "crashes" => f.crashes = as_u64(value, "fault.crashes")? as usize,
            "dead_links" => f.dead_links = as_u64(value, "fault.dead_links")? as usize,
            other => {
                return Err(SpecError::Malformed(format!("unknown fault field {other:?}")))
            }
        }
    }
    Ok(f)
}

fn as_str<'a>(v: &'a Json, what: &str) -> Result<&'a str, SpecError> {
    match v {
        Json::Str(s) => Ok(s),
        _ => Err(SpecError::Malformed(format!("{what} must be a string"))),
    }
}

fn as_u64(v: &Json, what: &str) -> Result<u64, SpecError> {
    match v {
        Json::UInt(n) => Ok(*n),
        Json::Int(n) if *n >= 0 => Ok(*n as u64),
        _ => Err(SpecError::Malformed(format!("{what} must be a non-negative integer"))),
    }
}

fn as_f64(v: &Json, what: &str) -> Result<f64, SpecError> {
    match v {
        Json::Float(f) => Ok(*f),
        Json::UInt(n) => Ok(*n as f64),
        Json::Int(n) => Ok(*n as f64),
        _ => Err(SpecError::Malformed(format!("{what} must be a number"))),
    }
}

fn as_bool(v: &Json, what: &str) -> Result<bool, SpecError> {
    match v {
        Json::Bool(b) => Ok(*b),
        _ => Err(SpecError::Malformed(format!("{what} must be a boolean"))),
    }
}

/// Why a spec cannot be served. The first group is spec-shaped (the
/// job itself is unservable); the second is service-conditioned (the
/// job was fine, the server's state refused it) — load shedding and
/// shutdown answer with *typed* rejections, never silent drops
/// (DESIGN.md §12).
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    UnknownMachine(String),
    BadProcs { procs: usize, max: usize },
    NotNodeGranular { procs: usize, ppn: usize },
    BadSeverity(f64),
    /// Wire-shape problems: wrong types, unknown fields, bad JSON.
    Malformed(String),
    /// Shed at admission: the bounded queue (or batch frame) was full.
    Overloaded { queued: usize, capacity: usize },
    /// Shed at flush: the job outlived its virtual-deadline budget in
    /// the admission queue.
    DeadlineExpired { waited: u64, budget: u64 },
    /// The server is draining for shutdown; no new work is admitted.
    ShuttingDown,
    /// A clean job's world raised a typed fault even on a fresh
    /// (post-quarantine) partition. The failure is reported, never
    /// cached — a later retry re-runs the simulation.
    WorldFailed(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownMachine(key) => {
                write!(f, "unknown machine {key:?} (see beff_machines::catalog)")
            }
            SpecError::BadProcs { procs, max } => {
                write!(f, "partition of {procs} ranks out of range (2..={max})")
            }
            SpecError::NotNodeGranular { procs, ppn } => {
                write!(f, "partition of {procs} ranks is not a multiple of {ppn} procs/node")
            }
            SpecError::BadSeverity(s) => {
                write!(f, "fault severity {s} out of range (0.0..=1.0)")
            }
            SpecError::Malformed(msg) => write!(f, "malformed spec: {msg}"),
            SpecError::Overloaded { queued, capacity } => {
                write!(f, "overloaded: admission queue full ({queued}/{capacity}); job shed")
            }
            SpecError::DeadlineExpired { waited, budget } => {
                write!(
                    f,
                    "overloaded: job waited {waited} admission ticks (budget {budget}); shed unexecuted"
                )
            }
            SpecError::ShuttingDown => {
                write!(f, "server is shutting down; no new jobs admitted")
            }
            SpecError::WorldFailed(cause) => {
                write!(f, "world failed on a fresh partition after quarantine: {cause}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// FNV-1a 64-bit: the digest used for short printable content
/// addresses in reports (not a collision-resistant hash; the cache
/// itself keys on the full canonical bytes).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The short printable digest of a canonical key already in hand
/// ([`JobSpec::key_digest`] without recomputing the key).
pub fn digest_of(key: &str) -> String {
    format!("{:016x}", fnv1a64(key.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_key_ignores_builder_order() {
        let a = JobSpec::new("t3e", 16).with_seed(7).with_extras(true);
        let b = JobSpec::new("t3e", 16).with_extras(true).with_seed(7);
        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn wire_field_order_does_not_change_the_key() {
        let fwd = beff_json::parse(r#"{"machine":"t3e","procs":16,"seed":7}"#)
            .expect("valid json");
        let rev = beff_json::parse(r#"{"seed":7,"procs":16,"machine":"t3e"}"#)
            .expect("valid json");
        let a = JobSpec::from_json(&fwd).expect("valid spec");
        let b = JobSpec::from_json(&rev).expect("valid spec");
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert_eq!(a.key_digest(), b.key_digest());
    }

    #[test]
    fn seed_bit_changes_the_key() {
        let a = JobSpec::new("t3e", 16).with_seed(0xB0EF);
        let b = JobSpec::new("t3e", 16).with_seed(0xB0EF ^ 1);
        assert_ne!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn unknown_field_is_rejected() {
        let j = beff_json::parse(r#"{"machine":"t3e","procs":16,"sede":7}"#)
            .expect("valid json");
        assert!(matches!(JobSpec::from_json(&j), Err(SpecError::Malformed(_))));
    }

    #[test]
    fn resolve_validates_against_the_catalog() {
        assert!(JobSpec::new("t3e", 16).resolve().is_ok());
        assert!(matches!(
            JobSpec::new("nope", 16).resolve(),
            Err(SpecError::UnknownMachine(_))
        ));
        assert!(matches!(
            JobSpec::new("t3e", 1).resolve(),
            Err(SpecError::BadProcs { .. })
        ));
        assert!(matches!(
            JobSpec::new("t3e", 100_000).resolve(),
            Err(SpecError::BadProcs { .. })
        ));
        // SR 8000 is an SMP cluster with 8 procs/node: 12 ranks is not
        // an installable partition.
        assert!(matches!(
            JobSpec::new("sr8000-rr", 12).resolve(),
            Err(SpecError::NotNodeGranular { ppn: 8, .. })
        ));
        let mut bad = JobSpec::new("t3e", 16);
        bad.fault = Some(FaultCfg { severity: 1.5, ..FaultCfg::none(1) });
        assert!(matches!(bad.resolve(), Err(SpecError::BadSeverity(_))));
    }

    #[test]
    fn json_round_trip_preserves_the_spec() {
        let mut f = FaultCfg::none(9);
        f.severity = 0.5;
        f.degrade = true;
        f.stragglers = 2;
        let spec = JobSpec::new("sr2201", 16)
            .with_schedule(Schedule::Paper)
            .with_seed(42)
            .with_extras(true)
            .with_fault(f);
        let wire = beff_json::to_string(&spec);
        let back = JobSpec::from_json(&beff_json::parse(&wire).expect("own output parses"))
            .expect("own output is a valid spec");
        assert_eq!(spec, back);
        assert_eq!(spec.canonical_key(), back.canonical_key());
    }
}
