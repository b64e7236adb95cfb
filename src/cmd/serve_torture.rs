//! The serving-layer torture harness: a seeded adversarial scenario
//! mix that proves the daemon's failure model (DESIGN.md §12) holds.
//!
//! Every scenario is deterministic — adversarial inputs come from a
//! fixed seed, transports are in-memory ([`MemStream`]), worlds are
//! poisoned through the pool's explicit hook, and the journal lives in
//! a scratch directory this harness owns — so the whole run distills
//! to a canonical JSON section that `beff goldens` byte-compares
//! against `results/serve_torture.json` at 1 and 4 workers (the checked
//! properties must not depend on the worker count).
//!
//! Scenarios:
//!
//! * **frame_fuzz** — seeded garbage, lying length prefixes, bad UTF-8
//!   and valid frames through [`serve_connection`]: every close is
//!   typed, valid frames keep being answered, the server object
//!   survives all of it;
//! * **disconnects** — a valid frame cut at *every* possible byte
//!   boundary: each is a typed protocol close, never a hang or panic;
//! * **journal** — kill-and-restart: a journal-backed server computes
//!   a spec set (hero partition included), is dropped mid-life, and a
//!   second server on the same journal must serve every spec as a
//!   cache hit, byte-identical, audited by recomputation; then a
//!   mid-append kill is simulated by tearing the final record and the
//!   reopen must recover every prior record with a typed truncation
//!   report;
//! * **quarantine** — a poisoned world self-heals (result bit-equal to
//!   cold) and a double poison surfaces as typed `WorldFailed`,
//!   cached never;
//! * **fault_storm** — a seeded burst of faulted specs, replayed:
//!   byte-identical both times and across a fresh server;
//! * **overload** — a flood through the deadline admission queue:
//!   typed `Overloaded`/`DeadlineExpired` sheds in exact counts, the
//!   freshest jobs served;
//! * **shutdown** — post-drain submissions refused typed.

use super::MixRng;
use crate::cli::{Args, Fail};
use beff_faults::FaultSpec;
use beff_json::Json;
use beff_serve::journal::{self, Journal};
use beff_serve::wire::{self, MemStream};
use beff_serve::{
    digest_of, fnv1a64, serve_connection, Admission, ConnClose, JobSpec, Server, SpecError,
};
use beff_sim::Workers;
use std::fmt::Write as _;
use std::path::Path;

/// Seed of every adversarial input in this harness (the torture mix is
/// part of the gate's definition, so it is fixed, not host entropy).
const TORTURE_SEED: u64 = 0x70B7_0001;

/// `return Err(Fail)` unless `$cond` holds: a broken invariant ends the
/// scenario typed, never the process, and `beff goldens` reports it as
/// this replay's `FAILED` line while the others go on.
macro_rules! ensure {
    ($cond:expr, $($message:tt)+) => {
        if !$cond {
            return Err(Fail::new(1, format!($($message)+)));
        }
    };
}

pub fn run(args: &Args, out: &mut String) -> Result<(), Fail> {
    let workers = args.workers()?;
    let scratch = Path::new(args.text("--scratch").unwrap_or("target/serve_torture"));
    let hero_procs = args.get::<usize>("--hero-procs").unwrap_or(512);
    let report = Json::object()
        .field("schema", &1u32)
        .field("seed", &TORTURE_SEED)
        .raw("frame_fuzz", frame_fuzz_scenario(workers)?)
        .raw("disconnects", disconnect_scenario(workers)?)
        .raw("journal", journal_scenario(workers, scratch, hero_procs)?)
        .raw("quarantine", quarantine_scenario(workers)?)
        .raw("fault_storm", fault_storm_scenario(workers)?)
        .raw("overload", overload_scenario(workers)?)
        .raw("shutdown", shutdown_scenario(workers)?)
        .build();
    args.report.set(Some(beff_json::to_canonical(&report)));

    writeln!(out, "serve_torture: all scenario invariants held")?;
    Ok(())
}

// ---------------------------------------------------------------- fuzz

/// Seeded hostile byte streams into the connection loop: the server
/// answers what is answerable, types what is not, and never dies.
fn frame_fuzz_scenario(workers: Workers) -> Result<Json, Fail> {
    let srv = Server::new(workers);
    let mut rng = MixRng::new(TORTURE_SEED);
    let (mut cases, mut protocol_closes, mut clean_closes, mut replies) =
        (0usize, 0usize, 0usize, 0usize);
    let mut reply_bytes = String::new();
    let stats = wire::encode(r#"{"op":"stats"}"#);
    for case in 0..64 {
        let input: Vec<u8> = match case % 4 {
            // Pure seeded garbage of a seeded length.
            0 => (0..rng.below(48) + 1).map(|_| rng.byte()).collect(),
            // A lying length prefix (over the frame cap) + tail noise.
            1 => {
                let mut v = ((wire::MAX_FRAME as u32) + 1 + rng.below(1 << 20) as u32)
                    .to_be_bytes()
                    .to_vec();
                v.extend((0..rng.below(16)).map(|_| rng.byte()));
                v
            }
            // A length-correct frame whose payload is not UTF-8.
            2 => {
                let mut v = 4u32.to_be_bytes().to_vec();
                v.extend_from_slice(&[0xff, 0xfe, rng.byte() | 0x80, 0x80]);
                v
            }
            // A valid stats frame, then garbage: answered, then typed.
            _ => {
                let mut v = stats.clone();
                v.extend((0..rng.below(3) + 1).map(|_| rng.byte()));
                v
            }
        };
        cases += 1;
        let mut stream = MemStream::new(input);
        match serve_connection(&srv, &mut stream) {
            ConnClose::Clean => clean_closes += 1,
            ConnClose::Protocol(_) => protocol_closes += 1,
            other => {
                return Err(Fail::new(1, format!("fuzz case {case}: unexpected close {other:?}")))
            }
        }
        // Every reply the server wrote must itself be a well-formed
        // frame stream; fold the payload bytes into one digest.
        let mut used = 0;
        while let Some((payload, n)) = wire::decode(&stream.output[used..])
            .map_err(|e| Fail::new(1, format!("fuzz case {case}: server wrote a bad frame: {e}")))?
        {
            replies += 1;
            reply_bytes.push_str(&payload);
            used += n;
        }
        ensure!(used == stream.output.len(), "fuzz case {case}: server output ends mid-frame");
    }
    // The abused server still serves: submit must succeed afterwards.
    srv.submit(&JobSpec::new("t3e", 4))
        .map_err(|e| Fail::new(1, format!("server damaged by fuzz input: {e}")))?;
    Ok(Json::object()
        .field("cases", &cases)
        .field("protocol_closes", &protocol_closes)
        .field("clean_closes", &clean_closes)
        .field("replies", &replies)
        .field("reply_digest", &digest_of(&reply_bytes))
        .build())
}

/// One valid frame, cut at every possible byte boundary: a peer can
/// vanish anywhere mid-frame and the close is always typed.
fn disconnect_scenario(workers: Workers) -> Result<Json, Fail> {
    let srv = Server::new(workers);
    let full = wire::encode(r#"{"op":"run","spec":{"machine":"t3e","procs":4}}"#);
    let mut protocol_closes = 0usize;
    for cut in 1..full.len() {
        let mut stream = MemStream::new(full[..cut].to_vec());
        match serve_connection(&srv, &mut stream) {
            ConnClose::Protocol(report) => {
                ensure!(report.starts_with("bad frame: "), "cut {cut}: {report}");
                protocol_closes += 1;
            }
            other => {
                return Err(Fail::new(
                    1,
                    format!("cut {cut}: expected a protocol close, got {other:?}"),
                ))
            }
        }
    }
    Ok(Json::object()
        .field("cuts", &(full.len() - 1))
        .field("protocol_closes", &protocol_closes)
        .build())
}

// ------------------------------------------------------------- journal

/// Kill-and-restart: everything computed before the kill is served
/// from disk afterwards, byte-identical, proven by recomputation; a
/// mid-append kill loses exactly the torn record, typed.
fn journal_scenario(workers: Workers, scratch: &Path, hero_procs: usize) -> Result<Json, Fail> {
    std::fs::create_dir_all(scratch)
        .map_err(|e| Fail::new(1, format!("cannot create scratch {scratch:?}: {e}")))?;
    let path = scratch.join("torture.journal");
    let _ = std::fs::remove_file(&path);

    let specs = vec![
        JobSpec::new("t3e", 16).with_seed(201),
        JobSpec::new("sx4", 8).with_seed(202),
        JobSpec::new("ibm-sp", 16).with_seed(203),
        JobSpec::new("t3e", hero_procs),
    ];
    let hero = specs.last().expect("spec set is never empty").clone();

    // Life 1: compute everything, journaling as we go — then "kill"
    // the daemon by dropping it. No shutdown ceremony: the journal's
    // durability must not depend on a clean exit.
    let mut first_digests = Vec::new();
    {
        let (srv, recovery) = Server::with_journal(workers, &path)
            .map_err(|e| Fail::new(1, format!("cannot open fresh journal: {e}")))?;
        ensure!(recovery.recovered == 0, "a fresh journal has nothing to replay");
        for spec in &specs {
            let o = srv.submit(spec).map_err(|e| Fail::new(1, format!("torture spec: {e}")))?;
            ensure!(!o.cached, "life 1 is all cold");
            first_digests.push(fnv1a64(o.bytes.as_bytes()));
        }
    }

    // Life 2: a restarted daemon on the same journal serves every spec
    // as a hit — the hero partition included, with no recomputation
    // (cached==true is the proof: the miss path is the only computer).
    let (srv, recovery) = Server::with_journal(workers, &path)
        .map_err(|e| Fail::new(1, format!("cannot reopen journal: {e}")))?;
    ensure!(recovery.recovered == specs.len(), "every record replays");
    ensure!(recovery.truncated.is_none(), "a clean journal has no torn tail");
    let mut audited = 0usize;
    let mut results = String::new();
    for (spec, want) in specs.iter().zip(&first_digests) {
        let o = srv.submit(spec).map_err(|e| Fail::new(1, format!("replayed spec: {e}")))?;
        ensure!(o.cached, "life 2 must hit the journal-warmed cache");
        ensure!(fnv1a64(o.bytes.as_bytes()) == *want, "journal round trip must be byte-identical");
        // Audit: the disk bytes equal an honest recomputation.
        let fresh = srv.recompute(spec).map_err(|e| Fail::new(1, format!("audit: {e}")))?;
        ensure!(o.bytes.as_ref() == fresh.as_str(), "journal bytes audit failed");
        audited += 1;
        results.push_str(&o.bytes);
    }
    drop(srv);

    // Mid-append kill: tear the final record in half and reopen. The
    // prior records survive; the tear is reported typed and healed.
    let torn_path = scratch.join("torn.journal");
    std::fs::copy(&path, &torn_path)
        .map_err(|e| Fail::new(1, format!("cannot copy journal: {e}")))?;
    let clean_len = std::fs::metadata(&torn_path)
        .map_err(|e| Fail::new(1, format!("cannot stat journal: {e}")))?
        .len();
    let extra = journal::encode_record("torn-key", "torn-result");
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&torn_path)
            .map_err(|e| Fail::new(1, format!("cannot append to copy: {e}")))?;
        f.write_all(&extra[..extra.len() / 2])
            .map_err(|e| Fail::new(1, format!("cannot write torn record: {e}")))?;
    }
    let (_torn_journal, records, torn) = Journal::open(&torn_path)
        .map_err(|e| Fail::new(1, format!("torn journal must open: {e}")))?;
    ensure!(records.len() == specs.len(), "the tear loses exactly the torn record");
    let t = torn
        .truncated
        .ok_or_else(|| Fail::new(1, "a torn tail must be reported, not silently accepted"))?;
    ensure!(t.offset == clean_len, "truncation points at the torn record's start");
    ensure!(
        std::fs::metadata(&torn_path).map(|m| m.len()).unwrap_or(0) == clean_len,
        "reopen heals the file back to its last intact record"
    );

    Ok(Json::object()
        .field("specs", &specs.len())
        .field("recovered", &recovery.recovered)
        .field("recovered_bytes", &recovery.bytes)
        .field("hero_digest", &hero.key_digest())
        .field("result_digest", &digest_of(&results))
        .field("audited_identical", &audited)
        .field("torn_recovered", &records.len())
        .field("torn_record", &t.record)
        .field("torn_offset", &t.offset)
        .build())
}

// ---------------------------------------------------------- quarantine

/// The self-healing path end to end, driven by the pool's
/// deterministic poison hook.
fn quarantine_scenario(workers: Workers) -> Result<Json, Fail> {
    let reference = Server::new(Workers::new(1));
    let heal_spec = JobSpec::new("t3e", 4).with_seed(41);
    let fail_spec = JobSpec::new("t3e", 4).with_seed(42);
    let want_heal =
        reference.submit(&heal_spec).map_err(|e| Fail::new(1, format!("reference: {e}")))?.bytes;
    let want_fail =
        reference.submit(&fail_spec).map_err(|e| Fail::new(1, format!("reference: {e}")))?.bytes;

    let srv = Server::new(workers);
    // One poison: the damaged world is quarantined, the job self-heals
    // on a fresh world, and the answer matches an undamaged server.
    srv.pool().arm_poison("t3e", 4, 1);
    let healed =
        srv.submit(&heal_spec).map_err(|e| Fail::new(1, format!("self-heal failed: {e}")))?;
    let healed_identical = healed.bytes == want_heal;
    ensure!(healed_identical, "post-quarantine bytes must equal cold bytes");
    ensure!(srv.pool().quarantined() == 1, "one poison quarantines one world");

    // Two poisons: the fresh world fails too — a typed outcome that is
    // never cached.
    let entries_before = srv.cache_stats().entries;
    srv.pool().arm_poison("t3e", 4, 2);
    let err = srv.submit(&fail_spec);
    let world_failed_typed = matches!(err, Err(SpecError::WorldFailed(_)));
    ensure!(world_failed_typed, "double poison must be typed WorldFailed: {err:?}");
    let entries_after_failure = srv.cache_stats().entries;
    ensure!(entries_after_failure == entries_before, "failures are never cached");

    // Poison exhausted: the same spec now succeeds and matches cold.
    let recovered =
        srv.submit(&fail_spec).map_err(|e| Fail::new(1, format!("post-failure: {e}")))?;
    let recovered_after_failure = recovered.bytes == want_fail;
    ensure!(recovered_after_failure, "recovery after WorldFailed must match cold");

    Ok(Json::object()
        .field("healed_identical", &healed_identical)
        .field("quarantined", &srv.pool().quarantined())
        .field("world_failed_typed", &world_failed_typed)
        .field("entries_after_failure", &entries_after_failure)
        .field("recovered_after_failure", &recovered_after_failure)
        .build())
}

// --------------------------------------------------------- fault storm

/// A seeded burst of faulted specs, computed, recomputed, and computed
/// again on a fresh server: three byte-identical answers each.
fn fault_storm_scenario(workers: Workers) -> Result<Json, Fail> {
    let mut rng = MixRng::new(TORTURE_SEED ^ 0xF417);
    let specs: Vec<JobSpec> = (0..6)
        .map(|i| {
            let mut fault = FaultSpec::none(500 + i);
            fault.severity = (rng.below(9) + 1) as f64 / 10.0;
            fault.degrade = rng.below(2) == 0;
            JobSpec::new("t3e", 16).with_seed(600 + i).with_fault(fault)
        })
        .collect();
    let srv = Server::new(workers);
    let first = srv
        .submit_batch(&specs)
        .into_iter()
        .map(|o| o.map(|o| o.bytes).map_err(|e| Fail::new(1, format!("storm spec: {e}"))))
        .collect::<Result<Vec<_>, _>>()?;
    let fresh_srv = Server::new(workers);
    let again = fresh_srv
        .submit_batch(&specs)
        .into_iter()
        .map(|o| o.map(|o| o.bytes).map_err(|e| Fail::new(1, format!("storm replay: {e}"))))
        .collect::<Result<Vec<_>, _>>()?;
    let mut identical = 0usize;
    let mut bytes = String::new();
    for (spec, (a, b)) in specs.iter().zip(first.iter().zip(&again)) {
        ensure!(a == b, "fault storm replay diverged for {}", spec.key_digest());
        let fresh = srv.recompute(spec).map_err(|e| Fail::new(1, format!("storm audit: {e}")))?;
        ensure!(a.as_ref() == fresh.as_str(), "storm cache audit failed");
        identical += 1;
        bytes.push_str(a);
    }
    Ok(Json::object()
        .field("specs", &specs.len())
        .field("replay_identical", &identical)
        .field("digest", &digest_of(&bytes))
        .build())
}

// ------------------------------------------------------------ overload

/// The DESIGN.md §12 flood through the deadline queue: exact typed
/// shed counts, freshest jobs served.
fn overload_scenario(workers: Workers) -> Result<Json, Fail> {
    let srv = Server::new(workers);
    let mut q = Admission::with_deadline(&srv, 8, 16);
    let offers = 20usize;
    let (mut overloaded, mut expired, mut served) = (0usize, 0usize, 0usize);
    for i in 0..offers as u64 {
        match q.offer(JobSpec::new("t3e", 4).with_seed(700 + i)) {
            Ok(()) => {}
            Err(SpecError::Overloaded { .. }) => overloaded += 1,
            Err(e) => return Err(Fail::new(1, format!("flood offer {i}: unexpected error {e:?}"))),
        }
    }
    for outcome in q.flush() {
        match outcome {
            Ok(_) => served += 1,
            Err(SpecError::DeadlineExpired { .. }) => expired += 1,
            Err(e) => return Err(Fail::new(1, format!("flood flush: unexpected error {e:?}"))),
        }
    }
    let shed_total = srv.shed_jobs();
    ensure!(
        (overloaded, expired, served) == (12, 3, 5),
        "the worked example's exact counts: {overloaded} overloaded, {expired} expired, {served} served"
    );
    ensure!(shed_total == 15, "every shed is counted, none silent: {shed_total} of 15");
    Ok(Json::object()
        .field("offers", &offers)
        .field("overloaded", &overloaded)
        .field("expired", &expired)
        .field("served", &served)
        .field("shed_total", &shed_total)
        .build())
}

// ------------------------------------------------------------ shutdown

/// Drain, then prove the door is typed-shut.
fn shutdown_scenario(workers: Workers) -> Result<Json, Fail> {
    let srv = Server::new(workers);
    srv.submit(&JobSpec::new("t3e", 4).with_seed(800))
        .map_err(|e| Fail::new(1, format!("pre-shutdown spec: {e}")))?;
    let (body, stop) = srv.handle_frame(r#"{"op":"shutdown"}"#);
    ensure!(body == "{\"ok\":true}", "shutdown answered {body}");
    ensure!(stop, "the shutdown op signals the transport loop");
    let drained = srv.inflight() == 0 && !srv.accepting();
    ensure!(drained, "shutdown drains the server and closes the door");
    let refusal = match srv.submit(&JobSpec::new("t3e", 4).with_seed(801)) {
        Err(e @ SpecError::ShuttingDown) => e.to_string(),
        other => {
            return Err(Fail::new(
                1,
                format!("post-drain submission must be refused typed: {other:?}"),
            ))
        }
    };
    Ok(Json::object().field("drained", &drained).field("refusal", &refusal).build())
}
