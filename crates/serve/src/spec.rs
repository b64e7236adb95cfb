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
//! The canonical form is [`beff_json::to_canonical`] of the spec: the
//! compact layout with every object's keys sorted recursively. The
//! field order a client happened to send (or a builder happened to
//! insert) therefore never leaks into the cache key.
//! [`JobSpec::canonical_key`] writes that text straight from the
//! fields, in sorted order, into one buffer — every query keys its
//! spec, so no `Json` tree is built and nothing is sorted — with
//! `beff_json`'s own string and float writers. The property tests in
//! `tests/canonical.rs` hold the two byte-equal and pin the field
//! order independence.

use beff_core::beff::{BeffConfig, DEFAULT_SEED};
use beff_faults::FaultSpec;
use beff_json::{Json, Pull, ToJson, Token, TreeReader};
use beff_machines::Machine;
use beff_netsim::Topology;
use std::fmt::{self, Write as _};

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
    /// Optional fault plan; `None` is the clean path. `io_slow` is
    /// refused by [`resolve`](Self::resolve): b_eff prices no
    /// filesystem traffic, and the canonical key does not name it.
    pub fault: Option<FaultSpec>,
}

impl JobSpec {
    /// A quick-schedule clean spec with the paper's default pattern
    /// seed. Refine with the `with_*` setters.
    pub fn new(machine: &str, procs: usize) -> Self {
        Self {
            machine: machine.to_string(),
            procs,
            schedule: Schedule::Quick,
            seed: DEFAULT_SEED,
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

    pub fn with_fault(mut self, fault: FaultSpec) -> Self {
        self.fault = Some(fault);
        self
    }

    /// The content address: canonical (key-sorted, compact) JSON of the
    /// spec, byte for byte `beff_json::to_canonical(self)`. Structurally
    /// equal specs — however their fields were ordered on the wire — get
    /// byte-identical keys.
    pub fn canonical_key(&self) -> String {
        // Fields in key-byte order, into a buffer that holds the
        // longest key of this shape (118 bytes beside the machine name,
        // 207 more for a fault plan) unless the name needs escapes.
        let fault_len = if self.fault.is_some() { 208 } else { 0 };
        let mut out = String::with_capacity(128 + self.machine.len() + fault_len);
        out.push_str("{\"extras\":");
        out.push_str(if self.extras { "true" } else { "false" });
        out.push_str(",\"fault\":");
        match &self.fault {
            None => out.push_str("null"),
            Some(f) => write_fault_key(f, &mut out),
        }
        out.push_str(",\"machine\":");
        beff_json::write_escaped(&self.machine, &mut out);
        // Writing into a `String` cannot fail.
        _ = write!(out, ",\"procs\":{},\"schedule\":", self.procs);
        beff_json::write_escaped(self.schedule.as_str(), &mut out);
        _ = write!(out, ",\"seed\":{}}}", self.seed);
        out
    }

    /// Short printable digest of the canonical key (FNV-1a 64, hex).
    pub fn key_digest(&self) -> String {
        digest_of(&self.canonical_key())
    }

    /// Resolve and validate against the machine catalog: the machine
    /// must exist, the partition must fit it (and respect SMP node
    /// granularity), fault severity must be in range, and the fault plan
    /// must not slow the filesystem. Returns the machine model *sized
    /// for the partition*.
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
            if f.io_slow {
                return Err(SpecError::IoFault);
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
    /// alias two *different* intents onto one cache key). The tree is
    /// read through the decoder `Server::handle_frame` reads a request's
    /// bytes with, so both report the same error for the same spec.
    pub fn from_json(v: &Json) -> Result<Self, SpecError> {
        let mut tree = TreeReader::new(v);
        let decoded = tree.value().and_then(|first| read_spec(&mut tree, first));
        match decoded {
            Ok(spec) => spec,
            Err(never) => match never {},
        }
    }
}

/// The one spec decoder: the rest of the value `first` started, read
/// as a spec. The outer `Err` is the source's syntax error; the inner
/// one is the first shape error in field order — a duplicate field's
/// last value wins, and once a field is bad the rest of the spec is
/// only passed over, so a syntax error after it still surfaces.
pub(crate) fn read_spec<'a, P: Pull<'a>>(
    p: &mut P,
    first: Token<'a>,
) -> Result<Result<JobSpec, SpecError>, P::Error> {
    if first != Token::Obj {
        p.skip(first)?;
        return Ok(Err(SpecError::Malformed("spec must be a JSON object".into())));
    }
    let mut machine: Option<String> = None;
    let mut procs: Option<usize> = None;
    let mut schedule = Schedule::Quick;
    let mut seed = DEFAULT_SEED;
    let mut extras = false;
    let mut fault: Option<FaultSpec> = None;
    let fields = read_fields(p, |p, name, value| {
        if name == "fault" && value == Token::Obj {
            return Ok(read_fault(p)?.map(|f| fault = Some(f)));
        }
        let set = match name {
            "machine" => as_str(&value, "machine").map(|s| machine = Some(s.to_string())),
            "procs" => as_u64(&value, "procs").map(|n| procs = Some(n as usize)),
            "schedule" => as_str(&value, "schedule").and_then(|s| {
                schedule = Schedule::from_str(s).ok_or_else(|| {
                    SpecError::Malformed(format!(
                        "schedule must be \"quick\" or \"paper\", got {s:?}"
                    ))
                })?;
                Ok(())
            }),
            "seed" => as_u64(&value, "seed").map(|n| seed = n),
            "extras" => as_bool(&value, "extras").map(|b| extras = b),
            "fault" if value == Token::Null => {
                fault = None;
                Ok(())
            }
            "fault" => Err(SpecError::Malformed("fault must be a JSON object or null".into())),
            other => Err(SpecError::Malformed(format!("unknown spec field {other:?}"))),
        };
        p.skip(value)?;
        Ok(set)
    })?;
    Ok(fields.and_then(|()| {
        let machine =
            machine.ok_or_else(|| SpecError::Malformed("spec is missing \"machine\"".into()))?;
        let procs =
            procs.ok_or_else(|| SpecError::Malformed("spec is missing \"procs\"".into()))?;
        Ok(JobSpec { machine, procs, schedule, seed, extras, fault })
    }))
}

/// A fault plan's fields, its object already open.
fn read_fault<'a, P: Pull<'a>>(p: &mut P) -> Result<Result<FaultSpec, SpecError>, P::Error> {
    let mut f = FaultSpec::none(0);
    let fields = read_fields(p, |p, name, value| {
        let set = match name {
            "seed" => as_u64(&value, "fault.seed").map(|n| f.seed = n),
            "severity" => as_f64(&value, "fault.severity").map(|x| f.severity = x),
            "degrade" => as_bool(&value, "fault.degrade").map(|b| f.degrade = b),
            "flapping" => as_bool(&value, "fault.flapping").map(|b| f.flapping = b),
            "stragglers" => as_u64(&value, "fault.stragglers").map(|n| f.stragglers = n as usize),
            "drops" => as_bool(&value, "fault.drops").map(|b| f.drops = b),
            "crashes" => as_u64(&value, "fault.crashes").map(|n| f.crashes = n as usize),
            "dead_links" => as_u64(&value, "fault.dead_links").map(|n| f.dead_links = n as usize),
            other => Err(SpecError::Malformed(format!("unknown fault field {other:?}"))),
        };
        p.skip(value)?;
        Ok(set)
    })?;
    Ok(fields.map(|()| f))
}

/// Walk the members of an object whose `{` is read, handing each to
/// `field`, which reads its value to the end. After the first shape
/// error the rest are only passed over, and that error is the answer.
fn read_fields<'a, P: Pull<'a>>(
    p: &mut P,
    mut field: impl FnMut(&mut P, &str, Token<'a>) -> Result<Result<(), SpecError>, P::Error>,
) -> Result<Result<(), SpecError>, P::Error> {
    let mut first_error = Ok(());
    while let Some(name) = p.key()? {
        let value = p.value()?;
        if first_error.is_ok() {
            first_error = field(p, &name, value)?;
        } else {
            p.skip(value)?;
        }
    }
    Ok(first_error)
}

impl ToJson for JobSpec {
    fn to_json(&self) -> Json {
        Json::object()
            .field("machine", &self.machine)
            .field("procs", &self.procs)
            .field("schedule", self.schedule.as_str())
            .field("seed", &self.seed)
            .field("extras", &self.extras)
            .raw("fault", self.fault.as_ref().map_or(Json::Null, fault_json))
            .build()
    }
}

/// A fault plan's wire form: every [`FaultSpec`] field but `io_slow`,
/// which [`JobSpec::resolve`] refuses.
fn fault_json(f: &FaultSpec) -> Json {
    Json::object()
        .field("seed", &f.seed)
        .field("severity", &f.severity)
        .field("degrade", &f.degrade)
        .field("flapping", &f.flapping)
        .field("stragglers", &f.stragglers)
        .field("drops", &f.drops)
        .field("crashes", &f.crashes)
        .field("dead_links", &f.dead_links)
        .build()
}

/// [`fault_json`] in canonical form, written from the fields in
/// key-byte order.
fn write_fault_key(f: &FaultSpec, out: &mut String) {
    let flag = |b: bool| if b { "true" } else { "false" };
    _ = write!(
        out,
        "{{\"crashes\":{},\"dead_links\":{},\"degrade\":{},\"drops\":{},\"flapping\":{},\"seed\":{},\"severity\":",
        f.crashes,
        f.dead_links,
        flag(f.degrade),
        flag(f.drops),
        flag(f.flapping),
        f.seed,
    );
    beff_json::write_f64(f.severity, out);
    _ = write!(out, ",\"stragglers\":{}}}", f.stragglers);
}

fn as_str<'t>(v: &'t Token<'_>, what: &str) -> Result<&'t str, SpecError> {
    match v {
        Token::Str(s) => Ok(s),
        _ => Err(SpecError::Malformed(format!("{what} must be a string"))),
    }
}

fn as_u64(v: &Token<'_>, what: &str) -> Result<u64, SpecError> {
    match v {
        Token::UInt(n) => Ok(*n),
        Token::Int(n) if *n >= 0 => Ok(*n as u64),
        _ => Err(SpecError::Malformed(format!("{what} must be a non-negative integer"))),
    }
}

fn as_f64(v: &Token<'_>, what: &str) -> Result<f64, SpecError> {
    match v {
        Token::Float(f) => Ok(*f),
        Token::UInt(n) => Ok(*n as f64),
        Token::Int(n) => Ok(*n as f64),
        _ => Err(SpecError::Malformed(format!("{what} must be a number"))),
    }
}

fn as_bool(v: &Token<'_>, what: &str) -> Result<bool, SpecError> {
    match v {
        Token::Bool(b) => Ok(*b),
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
    BadProcs {
        procs: usize,
        max: usize,
    },
    NotNodeGranular {
        procs: usize,
        ppn: usize,
    },
    BadSeverity(f64),
    /// The fault plan slows the filesystem (`io_slow`), which b_eff
    /// never touches.
    IoFault,
    /// Wire-shape problems: wrong types, unknown fields, bad JSON.
    Malformed(String),
    /// Shed at admission: the bounded queue (or batch frame) was full.
    Overloaded {
        queued: usize,
        capacity: usize,
    },
    /// Shed at flush: the job outlived its virtual-deadline budget in
    /// the admission queue.
    DeadlineExpired {
        waited: u64,
        budget: u64,
    },
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
            SpecError::IoFault => {
                write!(f, "fault plan sets io_slow, but b_eff prices no filesystem traffic")
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
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let h = fnv1a64(key.as_bytes());
    let mut out = String::with_capacity(16);
    for nibble in (0..16).rev() {
        out.push(char::from(HEX[(h >> (4 * nibble)) as usize & 0xf]));
    }
    out
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
        let fwd = beff_json::parse(r#"{"machine":"t3e","procs":16,"seed":7}"#).expect("valid json");
        let rev = beff_json::parse(r#"{"seed":7,"procs":16,"machine":"t3e"}"#).expect("valid json");
        let a = JobSpec::from_json(&fwd).expect("valid spec");
        let b = JobSpec::from_json(&rev).expect("valid spec");
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert_eq!(a.key_digest(), b.key_digest());
    }

    #[test]
    fn seed_bit_changes_the_key() {
        let a = JobSpec::new("t3e", 16).with_seed(DEFAULT_SEED);
        let b = JobSpec::new("t3e", 16).with_seed(DEFAULT_SEED ^ 1);
        assert_ne!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn unknown_field_is_rejected() {
        let j = beff_json::parse(r#"{"machine":"t3e","procs":16,"sede":7}"#).expect("valid json");
        assert!(matches!(JobSpec::from_json(&j), Err(SpecError::Malformed(_))));
    }

    #[test]
    fn resolve_validates_against_the_catalog() {
        assert!(JobSpec::new("t3e", 16).resolve().is_ok());
        assert!(matches!(JobSpec::new("nope", 16).resolve(), Err(SpecError::UnknownMachine(_))));
        assert!(matches!(JobSpec::new("t3e", 1).resolve(), Err(SpecError::BadProcs { .. })));
        assert!(matches!(JobSpec::new("t3e", 100_000).resolve(), Err(SpecError::BadProcs { .. })));
        // SR 8000 is an SMP cluster with 8 procs/node: 12 ranks is not
        // an installable partition.
        assert!(matches!(
            JobSpec::new("sr8000-rr", 12).resolve(),
            Err(SpecError::NotNodeGranular { ppn: 8, .. })
        ));
        let mut bad = JobSpec::new("t3e", 16);
        bad.fault = Some(FaultSpec { severity: 1.5, ..FaultSpec::none(1) });
        assert!(matches!(bad.resolve(), Err(SpecError::BadSeverity(_))));
    }

    #[test]
    fn resolve_refuses_a_filesystem_fault() {
        // b_eff prices no filesystem traffic, and the key does not name
        // `io_slow`: the plan is refused, not silently run without it
        let fault = FaultSpec::none(1).with_severity(0.5);
        let spec = JobSpec::new("t3e", 16).with_fault(fault.clone().io_slow());
        assert!(matches!(spec.resolve(), Err(SpecError::IoFault)));
        assert!(JobSpec::new("t3e", 16).with_fault(fault).resolve().is_ok());
    }

    #[test]
    fn json_round_trip_preserves_the_spec() {
        let f = FaultSpec::none(9).with_severity(0.5).degrade().stragglers(2);
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
