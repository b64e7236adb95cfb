//! The server core: admit specs, answer hits from the cache, fan
//! misses out over the worker pool, and speak the frame payloads.
//!
//! [`Server`] is transport-agnostic — [`Server::handle_frame`] maps one
//! request payload to one response payload, [`serve_connection`] runs
//! the per-connection frame loop over any `Read + Write` transport, and
//! the TCP daemon (`bin/serve.rs`), the load generator, the torture
//! harness and the tests all drive the same entry points in-process.
//!
//! ## Request / response shapes
//!
//! ```text
//! {"op":"run","spec":{…}}        → {"cached":…,"digest":"…","result":…}
//! {"op":"batch","specs":[{…},…]} → {"results":[…one per spec, in order…]}
//! {"op":"stats"}                 → {"cache_hits":…,"cache_misses":…,…}
//! {"op":"shutdown"}              → {"ok":true}   (after draining; daemon exits)
//! anything invalid               → {"error":"…"}
//! ```
//!
//! `cached` means the result existed in the cache when the query was
//! admitted; duplicates *within* one batch are deduplicated down to a
//! single simulation but still count as misses (they were admitted
//! before any result existed).
//!
//! ## Failure containment (DESIGN.md §12)
//!
//! Three rules keep one bad input from taking the daemon down:
//!
//! 1. a pooled world that raises a typed [`BeffError`] is quarantined
//!    and the job retried once on a fresh cold world; a second typed
//!    failure becomes a typed [`SpecError::WorldFailed`] response and
//!    is **never cached** (only successful results are pure functions
//!    of their spec);
//! 2. a malformed or oversized frame gets a typed error frame (best
//!    effort) and a clean connection close — the accept loop lives on;
//! 3. a `shutdown` op first stops admission (typed
//!    [`SpecError::ShuttingDown`] refusals) and then drains every
//!    in-flight batch, so admitted jobs always complete byte-stable.

use crate::cache::{CacheStats, Cached, ResultCache};
use crate::journal::{Extent, Journal, JournalError, Recovery};
use crate::pool::SessionPool;
use crate::spec::{digest_of, read_spec, JobSpec, SpecError};
use crate::wire;
use beff_bench::resilient::ResilientRunner;
use beff_json::{JsonError, Pull, Reader, Token};
use beff_machines::Machine;
use beff_sim::{map_ordered, BeffError, Workers};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use beff_sync::{order::Rank, Condvar, Mutex};

/// Lock level 13 (`serve.drain`): between the journal (12) and the
/// cache (14). Guards only the admission flag and in-flight counter —
/// held for a few instructions around a batch, never across one.
static DRAIN_RANK: Rank = Rank::new(13, "serve.drain");

/// Hard per-frame admission bound: a `batch` frame may carry at most
/// this many specs; the excess is shed with typed
/// [`SpecError::Overloaded`] responses (never silently dropped). Keeps
/// one hostile frame from queueing unbounded simulation work behind
/// the serial transport.
pub const MAX_BATCH: usize = 256;

/// One answered query.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Full canonical cache key (the content address).
    pub key: String,
    /// Short printable digest of the key.
    pub digest: String,
    /// The result report bytes (a JSON document).
    pub bytes: Arc<str>,
    /// Was the result already cached when the query was admitted?
    pub cached: bool,
}

/// Admission/drain state: a plain counter behind a low-level lock so
/// `begin_shutdown` can wait for in-flight batches without spinning.
struct Drain {
    accepting: bool,
    inflight: usize,
}

/// A resident benchmark server: session pool + result cache + worker
/// fan-out, with an optional durable journal shadowing the cache.
/// Shared-state only — safe to drive from `map_ordered` worker threads
/// or a transport loop alike.
pub struct Server {
    pool: SessionPool,
    cache: ResultCache,
    workers: Workers,
    journal: Option<Journal>,
    /// Set on the first failed append: the daemon degrades to serving
    /// from memory instead of dying on a sick disk.
    journal_dead: AtomicBool,
    shed_jobs: AtomicU64,
    drain: Mutex<Drain>,
    drained: Condvar,
}

impl Server {
    pub fn new(workers: Workers) -> Self {
        Self {
            pool: SessionPool::new(),
            cache: ResultCache::new(),
            workers,
            journal: None,
            journal_dead: AtomicBool::new(false),
            shed_jobs: AtomicU64::new(0),
            drain: Mutex::ranked(&DRAIN_RANK, Drain { accepting: true, inflight: 0 }),
            drained: Condvar::new(),
        }
    }

    /// A server whose cache is shadowed by the durable journal at
    /// `path`: existing records are replayed to warm the cache (a
    /// restart serves every previously-computed spec without
    /// recomputation), fresh results are appended as they are computed.
    /// Returns the [`Recovery`] report — `truncated` is `Some` when a
    /// torn or corrupt tail was healed away.
    pub fn with_journal(workers: Workers, path: &Path) -> Result<(Self, Recovery), JournalError> {
        let (journal, records, recovery) = Journal::open(path)?;
        let mut server = Self::new(workers);
        for (key, bytes) in records {
            // Journal replay conflicts were already truncated typed;
            // surviving records are prefix-consistent, so this insert
            // can only be a first write.
            server.cache.insert(key, bytes);
        }
        server.journal = Some(journal);
        Ok((server, recovery))
    }

    pub fn workers(&self) -> Workers {
        self.workers
    }

    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    pub fn pool(&self) -> &SessionPool {
        &self.pool
    }

    /// Jobs shed with typed `Overloaded`/`DeadlineExpired` rejections
    /// over the server's lifetime (monotone).
    pub fn shed_jobs(&self) -> u64 {
        self.shed_jobs.load(Ordering::Relaxed)
    }

    /// Count `n` shed jobs (the admission queue reports its typed
    /// rejections here so `stats` sees one total).
    pub fn note_shed(&self, n: u64) {
        self.shed_jobs.fetch_add(n, Ordering::Relaxed);
    }

    /// Batches currently executing (observability for drain tests).
    pub fn inflight(&self) -> usize {
        self.drain.lock().inflight
    }

    /// Is the server still admitting new work?
    pub fn accepting(&self) -> bool {
        self.drain.lock().accepting
    }

    /// Stop admitting new work, then block until every in-flight batch
    /// has completed. Admitted jobs finish with their normal, byte
    /// stable responses; anything submitted after this returns typed
    /// [`SpecError::ShuttingDown`]. Idempotent.
    pub fn begin_shutdown(&self) {
        let mut d = self.drain.lock();
        d.accepting = false;
        while d.inflight > 0 {
            self.drained.wait(&mut d);
        }
    }

    /// Answer one spec (see [`Server::submit_batch`]).
    pub fn submit(&self, spec: &JobSpec) -> Result<Outcome, SpecError> {
        self.submit_batch(std::slice::from_ref(spec))
            .pop()
            // beff-analyze: allow(panicflow): submit_batch returns exactly one outcome per spec, and the input slice has length one
            .expect("one outcome per submitted spec")
    }

    /// Answer a batch of specs, in order. Hits come straight from the
    /// cache; distinct misses run batch-parallel on up to
    /// `workers` threads (submission-order fan-out, so the outcome
    /// bytes are independent of the worker count); duplicate misses
    /// within the batch are computed once. During shutdown drain the
    /// whole batch is refused typed.
    pub fn submit_batch(&self, specs: &[JobSpec]) -> Vec<Result<Outcome, SpecError>> {
        {
            let mut d = self.drain.lock();
            if !d.accepting {
                return specs.iter().map(|_| Err(SpecError::ShuttingDown)).collect();
            }
            d.inflight += 1;
        }
        let out = self.submit_batch_admitted(specs);
        {
            let mut d = self.drain.lock();
            d.inflight -= 1;
            // Only `begin_shutdown` waits here, and it clears
            // `accepting` under this lock before it does: while
            // admission is open nobody can be waiting, and a notify is
            // a system call even then.
            if d.inflight == 0 && !d.accepting {
                self.drained.notify_all();
            }
        }
        out
    }

    fn submit_batch_admitted(&self, specs: &[JobSpec]) -> Vec<Result<Outcome, SpecError>> {
        // Admission pass: validate, key, and classify each spec.
        enum Admitted {
            Hit(Outcome),
            /// Miss (or duplicate of one): resolved at the key into
            /// the computed map below.
            Pending(String),
            Refused(SpecError),
        }
        let mut admitted = Vec::with_capacity(specs.len());
        let mut pending: BTreeMap<String, (JobSpec, Machine)> = BTreeMap::new();
        for spec in specs {
            // Validation comes before the lookup, so a result journaled
            // by another build is never served for a spec the catalog
            // now refuses.
            match spec.resolve() {
                Err(e) => admitted.push(Admitted::Refused(e)),
                Ok(sized) => {
                    // The spec's one canonical key: looked up, digested,
                    // then moved into its outcome.
                    let key = spec.canonical_key();
                    let hit = match self.cache.get(&key) {
                        Some(Cached::Warm(bytes)) => Some(bytes),
                        Some(Cached::Cold(extent)) => self.thaw(&key, extent),
                        None => None,
                    };
                    match hit {
                        Some(bytes) => admitted.push(Admitted::Hit(Outcome {
                            digest: digest_of(&key),
                            key,
                            bytes,
                            cached: true,
                        })),
                        None => {
                            pending.entry(key.clone()).or_insert_with(|| (spec.clone(), sized));
                            admitted.push(Admitted::Pending(key));
                        }
                    }
                }
            }
        }

        // Execution pass: every distinct missing key, batch-parallel.
        // Only successful results enter the cache (and the journal);
        // typed world failures stay per-batch values.
        let jobs: Vec<(String, (JobSpec, Machine))> = pending.into_iter().collect();
        let computed = map_ordered(self.workers, jobs, |_, (key, (spec, sized))| {
            let outcome = self.execute(&spec, &sized);
            (key, outcome)
        });
        let mut done: BTreeMap<String, Result<Arc<str>, BeffError>> = BTreeMap::new();
        for (key, outcome) in computed {
            let outcome = outcome.map(|bytes| {
                let (shared, fresh) = self.cache.insert_if_absent(key.clone(), bytes);
                if fresh {
                    // Once the journal holds it, memory need not: the
                    // entry goes cold until someone asks again.
                    if let Some(extent) = self.journal_append(&key, &shared) {
                        self.cache.chill(&key, extent);
                    }
                }
                shared
            });
            done.insert(key, outcome);
        }

        // Assembly pass: outcomes in submission order.
        admitted
            .into_iter()
            .map(|a| match a {
                Admitted::Hit(o) => Ok(o),
                Admitted::Refused(e) => Err(e),
                Admitted::Pending(key) => {
                    let outcome = done
                        .get(&key)
                        // beff-analyze: allow(panicflow): the execution pass ran every distinct pending key and recorded its outcome
                        .expect("every pending key was executed");
                    match outcome {
                        Ok(bytes) => Ok(Outcome {
                            digest: digest_of(&key),
                            bytes: Arc::clone(bytes),
                            key,
                            cached: false,
                        }),
                        Err(cause) => Err(SpecError::WorldFailed(cause.to_string())),
                    }
                }
            })
            .collect()
    }

    /// Shadow a fresh insert in the journal, returning where the
    /// record landed. A failing disk degrades journaling (once, loudly)
    /// instead of killing the daemon: results computed from then on
    /// simply stay in memory.
    fn journal_append(&self, key: &str, bytes: &str) -> Option<Extent> {
        let journal = self.journal.as_ref()?;
        if self.journal_dead.load(Ordering::Relaxed) {
            return None;
        }
        match journal.append(key, bytes) {
            Ok(extent) => Some(extent),
            Err(e) => {
                self.journal_dead.store(true, Ordering::Relaxed);
                eprintln!("serve: journal degraded (cache stays in-memory): {e}");
                None
            }
        }
    }

    /// Second query for a result kept cold: read it back from the
    /// journal and keep it in memory from now on. An unreadable record
    /// (or one for another key) forgets the entry instead, and the
    /// query proceeds (and is counted) as the miss it has become — the
    /// result is a pure function of the spec, so recomputing it is
    /// always correct.
    fn thaw(&self, key: &str, extent: Extent) -> Option<Arc<str>> {
        // Only a journaled server ever chills an entry.
        let journal = self.journal.as_ref()?;
        match journal.read(extent) {
            Ok((stored, bytes)) if stored == key => Some(self.cache.warm(key, bytes)),
            read => {
                let why =
                    read.err().map_or("the record holds another key".into(), |e| e.to_string());
                eprintln!("serve: cold result unreadable, recomputing: {why}");
                self.cache.evict(key);
                None
            }
        }
    }

    /// Run a spec **bypassing the cache** (nothing read, nothing
    /// stored): the correctness audit's tool for proving cached bytes
    /// equal recomputed bytes.
    pub fn recompute(&self, spec: &JobSpec) -> Result<String, SpecError> {
        let sized = spec.resolve()?;
        self.execute(spec, &sized).map_err(|e| SpecError::WorldFailed(e.to_string()))
    }

    /// Simulate one validated spec to its result report bytes.
    ///
    /// Clean specs run on a pooled resident partition; a typed fault
    /// quarantines the partition and retries once on a fresh cold
    /// world (the self-healing path), and only a fresh world failing
    /// too surfaces as `Err`. Specs with a fault plan — even an
    /// all-disabled one — run the resilient driver on a fresh
    /// single-use world instead: a fault session is stateful across
    /// runs, and the resilient report is a different (richer) schema,
    /// which must not depend on whether the plan happens to be empty.
    fn execute(&self, spec: &JobSpec, sized: &Machine) -> Result<String, BeffError> {
        let cfg = spec.beff_config(sized);
        match &spec.fault {
            None => {
                let partition = self.pool.checkout(spec, sized);
                let first = if self.pool.take_poison(&spec.machine, spec.procs) {
                    partition.poisoned_run(&cfg)
                } else {
                    partition.try_run(&cfg)
                };
                match first {
                    Ok(result) => {
                        self.pool.checkin(partition);
                        Ok(beff_json::to_string(&result))
                    }
                    Err(_) => {
                        // The world is damaged state now, whatever the
                        // fault was: quarantine it and re-run the job
                        // on a guaranteed-cold partition.
                        self.pool.quarantine(partition);
                        let fresh = self.pool.checkout(spec, sized);
                        // The retry consults the poison hook too, so
                        // the torture harness can drive this job all
                        // the way to the fresh-world-failed outcome.
                        let retry = if self.pool.take_poison(&spec.machine, spec.procs) {
                            fresh.poisoned_run(&cfg)
                        } else {
                            fresh.try_run(&cfg)
                        };
                        match retry {
                            Ok(result) => {
                                self.pool.checkin(fresh);
                                Ok(beff_json::to_string(&result))
                            }
                            Err(e) => {
                                self.pool.quarantine(fresh);
                                Err(e)
                            }
                        }
                    }
                }
            }
            Some(fault) => {
                let net = sized.network();
                let plan = fault.materialize(&net);
                let runner = ResilientRunner::on_net(net, spec.procs, plan);
                Ok(beff_json::to_string(&runner.run(&cfg)))
            }
        }
    }

    /// Map one request payload to one response payload. The `bool` is
    /// the shutdown signal for a transport loop (raised only after the
    /// drain has completed).
    pub fn handle_frame(&self, payload: &str) -> (String, bool) {
        let request = match Request::read(payload) {
            Ok(request) => request,
            Err(body) => return (body, false),
        };
        let Some(Some(op)) = request.op else {
            return (error_body("request is missing a string \"op\""), false);
        };
        match &*op {
            "run" => {
                let Some(spec) = request.spec else {
                    return (error_body("\"run\" request is missing \"spec\""), false);
                };
                let outcome = spec.and_then(|s| self.submit(&s));
                (outcome_body(&outcome), false)
            }
            "batch" => {
                let Some(Some(Batch { specs: parsed, shed })) = request.specs else {
                    return (error_body("\"batch\" request is missing a \"specs\" array"), false);
                };
                // Admission bound: everything past MAX_BATCH is shed
                // with a typed per-spec rejection, in place.
                if shed > 0 {
                    self.note_shed(shed as u64);
                }
                let valid: Vec<JobSpec> =
                    parsed.iter().filter_map(|r| r.as_ref().ok().cloned()).collect();
                let mut answered = self.submit_batch(&valid).into_iter();
                let mut bodies: Vec<String> = parsed
                    .iter()
                    .map(|r| match r {
                        Ok(_) => outcome_body(
                            // beff-analyze: allow(panicflow): `answered` has one entry per Ok in `parsed`, consumed in the same order
                            &answered.next().expect("one outcome per valid spec"),
                        ),
                        Err(e) => error_body(&e.to_string()),
                    })
                    .collect();
                for i in 0..shed {
                    bodies.push(error_body(
                        &SpecError::Overloaded { queued: MAX_BATCH + i, capacity: MAX_BATCH }
                            .to_string(),
                    ));
                }
                (format!("{{\"results\":[{}]}}", bodies.join(",")), false)
            }
            "stats" => {
                let s = self.cache_stats();
                let body = format!(
                    "{{\"cache_hits\":{},\"cache_misses\":{},\"entries\":{},\"partitions_built\":{},\"partitions_idle\":{},\"quarantined_worlds\":{},\"shed_jobs\":{}}}",
                    s.hits,
                    s.misses,
                    s.entries,
                    self.pool.created(),
                    self.pool.idle_count(),
                    self.pool.quarantined(),
                    self.shed_jobs(),
                );
                (body, false)
            }
            "shutdown" => {
                self.begin_shutdown();
                ("{\"ok\":true}".to_string(), true)
            }
            other => (error_body(&format!("unknown op {other:?}")), false),
        }
    }
}

/// One request, read straight from its bytes: the first `op`, `spec`
/// and `specs` members, whatever their order, each spec decoded as it
/// is met; later duplicates and other members are only passed over.
/// `None` is a member absent, `Some(None)` one of the wrong type.
struct Request<'a> {
    op: Option<Option<Cow<'a, str>>>,
    spec: Option<Result<JobSpec, SpecError>>,
    specs: Option<Option<Batch>>,
}

/// A `batch` request's specs: the first [`MAX_BATCH`] decoded, and how
/// many more followed, shed unread.
struct Batch {
    specs: Vec<Result<JobSpec, SpecError>>,
    shed: usize,
}

impl<'a> Request<'a> {
    /// Read a request, or the error body that answers it. A syntax
    /// error anywhere outranks every shape error, so the whole payload
    /// is read before either is reported.
    fn read(payload: &'a str) -> Result<Self, String> {
        let mut request = Request { op: None, spec: None, specs: None };
        let mut reader = Reader::new(payload);
        match request.members(&mut reader).and_then(|object| reader.end().map(|()| object)) {
            Ok(true) => Ok(request),
            Ok(false) => Err(error_body("request must be a JSON object")),
            Err(e) => Err(error_body(&format!("bad request JSON: {e}"))),
        }
    }

    /// The document's members, if it is an object (`false` if not).
    fn members(&mut self, r: &mut Reader<'a>) -> Result<bool, JsonError> {
        let top = r.value()?;
        if top != Token::Obj {
            r.skip(top)?;
            return Ok(false);
        }
        while let Some(name) = r.key()? {
            let value = r.value()?;
            match &*name {
                "op" if self.op.is_none() => {
                    self.op = Some(match value {
                        Token::Str(op) => Some(op),
                        other => {
                            r.skip(other)?;
                            None
                        }
                    });
                }
                "spec" if self.spec.is_none() => self.spec = Some(read_spec(r, value)?),
                "specs" if self.specs.is_none() => self.specs = Some(Self::batch(r, value)?),
                _ => r.skip(value)?,
            }
        }
        Ok(true)
    }

    /// A `specs` member, if it is an array.
    fn batch(r: &mut Reader<'a>, first: Token<'a>) -> Result<Option<Batch>, JsonError> {
        if first != Token::Arr {
            r.skip(first)?;
            return Ok(None);
        }
        let mut batch = Batch { specs: Vec::new(), shed: 0 };
        while r.item()? {
            let item = r.value()?;
            if batch.specs.len() < MAX_BATCH {
                batch.specs.push(read_spec(r, item)?);
            } else {
                r.skip(item)?;
                batch.shed += 1;
            }
        }
        Ok(Some(batch))
    }
}

/// How a connection ended (every way is survivable for the daemon —
/// only `Shutdown` stops the accept loop).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnClose {
    /// The peer closed the stream at a frame boundary.
    Clean,
    /// A `shutdown` op was answered; the daemon should exit.
    Shutdown,
    /// The peer broke the frame protocol (oversized length, non-UTF-8
    /// payload, or a disconnect mid-frame). A typed error frame was
    /// written back on a best-effort basis before closing.
    Protocol(String),
    /// The transport itself failed (read or write error).
    Transport(String),
}

/// Serve one connection's frames until it closes, fails, or asks for
/// shutdown. Never panics and never takes the caller down: every
/// malformed frame, mid-frame disconnect and transport error maps to a
/// typed [`ConnClose`], and a protocol offender gets a typed
/// `{"error":…}` goodbye frame when the transport still accepts one.
pub fn serve_connection<S: Read + Write>(server: &Server, stream: &mut S) -> ConnClose {
    loop {
        match wire::read_frame(stream) {
            Ok(Some(payload)) => {
                let (body, shutdown) = server.handle_frame(&payload);
                if let Err(e) = wire::write_frame(stream, &body) {
                    return ConnClose::Transport(format!("write failed: {e}"));
                }
                if shutdown {
                    return ConnClose::Shutdown;
                }
            }
            Ok(None) => return ConnClose::Clean,
            Err(e) => {
                return match classify_read_error(&e) {
                    ReadFailure::Protocol(report) => {
                        // Best effort: a peer that lied about a length
                        // may still be reading.
                        let _ = wire::write_frame(stream, &error_body(&report));
                        ConnClose::Protocol(report)
                    }
                    ReadFailure::Transport(report) => ConnClose::Transport(report),
                };
            }
        }
    }
}

enum ReadFailure {
    Protocol(String),
    Transport(String),
}

/// Split a frame-read failure into "the peer misbehaved" (typed
/// goodbye, keep accepting) and "the transport died" (close quietly).
fn classify_read_error(e: &std::io::Error) -> ReadFailure {
    match e.kind() {
        std::io::ErrorKind::InvalidData => ReadFailure::Protocol(format!("bad frame: {e}")),
        std::io::ErrorKind::UnexpectedEof => ReadFailure::Protocol(format!("bad frame: {e}")),
        _ => ReadFailure::Transport(format!("read failed: {e}")),
    }
}

/// `{"cached":…,"digest":"…","result":…}` — the result bytes are a
/// JSON document already, spliced in verbatim (never reparsed: the
/// response must carry the exact cached bytes), and copied once into a
/// body allocated at its final size (`concat` sums the parts first).
fn outcome_body(outcome: &Result<Outcome, SpecError>) -> String {
    match outcome {
        Ok(o) => {
            let cached = if o.cached { "true" } else { "false" };
            ["{\"cached\":", cached, ",\"digest\":\"", &o.digest, "\",\"result\":", &o.bytes, "}"]
                .concat()
        }
        Err(e) => error_body(&e.to_string()),
    }
}

pub(crate) fn error_body(message: &str) -> String {
    format!("{{\"error\":{}}}", beff_json::to_string(message))
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the tests race shutdown against batches on real threads and bound each wait in host time"
)]
mod tests {
    use super::*;
    use crate::wire::MemStream;
    use beff_json::Json;

    fn server() -> Server {
        Server::new(Workers::new(2))
    }

    #[test]
    fn miss_then_hit_returns_identical_shared_bytes() {
        let srv = server();
        let spec = JobSpec::new("t3e", 4);
        let first = srv.submit(&spec).expect("valid spec");
        assert!(!first.cached);
        let second = srv.submit(&spec).expect("valid spec");
        assert!(second.cached);
        assert!(Arc::ptr_eq(&first.bytes, &second.bytes), "hit shares, not copies");
        let s = srv.cache_stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    fn journaled(name: &str) -> (Server, std::path::PathBuf) {
        let path = std::env::temp_dir().join(format!("beff-server-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        match Server::with_journal(Workers::new(1), &path) {
            Ok((srv, _)) => (srv, path),
            Err(e) => panic!("fresh journal opens: {e}"),
        }
    }

    #[test]
    fn journaled_result_stays_cold_until_asked_for_again() {
        let (srv, path) = journaled("cold.jrn");
        let spec = JobSpec::new("t3e", 4);
        let Ok(first) = srv.submit(&spec) else { panic!("valid spec") };
        assert!(!first.cached);
        assert!(matches!(srv.cache.peek(&first.key), Some(Cached::Cold(_))));
        // the second query reads the journal back and keeps the bytes
        let Ok(second) = srv.submit(&spec) else { panic!("valid spec") };
        assert!(second.cached);
        assert_eq!(first.bytes, second.bytes);
        let Ok(third) = srv.submit(&spec) else { panic!("valid spec") };
        assert!(Arc::ptr_eq(&second.bytes, &third.bytes), "warm now: a hit shares");
        let s = srv.cache_stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 1, 1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unreadable_cold_result_is_recomputed_not_served() {
        let (srv, path) = journaled("cold-damaged.jrn");
        let spec = JobSpec::new("t3e", 4);
        let Ok(first) = srv.submit(&spec) else { panic!("valid spec") };
        let Ok(len) = std::fs::metadata(&path).map(|m| m.len() as usize) else {
            panic!("journal exists")
        };
        assert!(std::fs::write(&path, vec![b'x'; len]).is_ok());
        let Ok(again) = srv.submit(&spec) else { panic!("valid spec") };
        assert!(!again.cached, "the damaged record is forgotten, the job re-run");
        assert_eq!(first.bytes, again.bytes);
        let s = srv.cache_stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 1), "a recomputed query is a miss");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn batch_deduplicates_and_preserves_order() {
        let srv = server();
        let a = JobSpec::new("t3e", 4);
        let b = JobSpec::new("t3e", 4).with_seed(99);
        let outcomes = srv.submit_batch(&[a.clone(), b.clone(), a.clone()]);
        let [oa, ob, oa2] = <[_; 3]>::try_from(outcomes).expect("three outcomes");
        let (oa, ob, oa2) = (oa.expect("valid"), ob.expect("valid"), oa2.expect("valid"));
        assert_eq!(oa.key, oa2.key);
        assert_ne!(oa.key, ob.key, "seed change must miss");
        assert_eq!(oa.bytes, oa2.bytes);
        assert_eq!(srv.cache_stats().entries, 2, "duplicate computed once");
    }

    #[test]
    fn invalid_spec_refused_without_poisoning_the_batch() {
        let srv = server();
        let good = JobSpec::new("t3e", 4);
        let bad = JobSpec::new("nope", 4);
        let outcomes = srv.submit_batch(&[bad, good]);
        assert!(matches!(outcomes[0], Err(SpecError::UnknownMachine(_))));
        assert!(outcomes[1].is_ok());
    }

    #[test]
    fn a_cached_result_is_never_served_for_a_spec_the_catalog_refuses() {
        // As if replayed from a journal an older catalog wrote.
        let srv = server();
        let gone = JobSpec::new("nope", 4);
        srv.cache.insert(gone.canonical_key(), "{}".into());
        assert!(matches!(srv.submit(&gone), Err(SpecError::UnknownMachine(_))));
        assert_eq!(srv.cache_stats().hits, 0, "refused before the lookup");
    }

    #[test]
    fn recompute_matches_cached_bytes() {
        let srv = server();
        let spec = JobSpec::new("t3e", 4).with_seed(5);
        let cached = srv.submit(&spec).expect("valid spec");
        let fresh = srv.recompute(&spec).expect("valid spec");
        assert_eq!(cached.bytes.as_ref(), fresh.as_str());
    }

    #[test]
    fn frames_round_trip_the_protocol() {
        let srv = server();
        let (body, stop) = srv.handle_frame(r#"{"op":"run","spec":{"machine":"t3e","procs":4}}"#);
        assert!(!stop);
        assert!(body.starts_with("{\"cached\":false,"), "{body}");
        let parsed = beff_json::parse(&body).expect("response is valid JSON");
        let Json::Obj(fields) = parsed else { panic!("object response") };
        assert!(fields.iter().any(|(n, _)| n == "result"));

        let (body, _) = srv.handle_frame(r#"{"op":"run","spec":{"machine":"t3e","procs":4}}"#);
        assert!(body.starts_with("{\"cached\":true,"), "{body}");

        let (body, _) = srv.handle_frame(r#"{"op":"stats"}"#);
        assert!(body.contains("\"entries\":1"), "{body}");
        assert!(body.contains("\"cache_hits\":1"), "{body}");
        assert!(body.contains("\"quarantined_worlds\":0"), "{body}");
        assert!(body.contains("\"shed_jobs\":0"), "{body}");

        let (body, _) = srv.handle_frame(r#"{"op":"run","spec":{"machine":"t3e"}}"#);
        assert!(body.starts_with("{\"error\":"), "{body}");

        let (body, _) = srv.handle_frame("not json");
        assert!(body.starts_with("{\"error\":"), "{body}");

        let (_, stop) = srv.handle_frame(r#"{"op":"shutdown"}"#);
        assert!(stop);
    }

    #[test]
    fn a_deeply_nested_frame_is_an_error_not_a_stack_overflow() {
        // a 1 MiB frame of `[`, parsed on a 256 KiB stack: the parser
        // stops at its depth limit instead of recursing a million times
        let parsed = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(|| server().handle_frame(&"[".repeat(1 << 20)).0)
            .map(|parser| parser.join());
        let Ok(Ok(body)) = parsed else { panic!("the parsing thread failed: {parsed:?}") };
        assert_eq!(
            body,
            "{\"error\":\"bad request JSON: invalid JSON at byte 128: nesting deeper than 128 levels\"}"
        );
    }

    #[test]
    fn worker_count_is_unobservable_in_outcome_bytes() {
        let specs: Vec<JobSpec> =
            (0..4).map(|i| JobSpec::new("t3e", 4).with_seed(100 + i)).collect();
        let serial: Vec<_> = Server::new(Workers::new(1))
            .submit_batch(&specs)
            .into_iter()
            .map(|o| o.expect("valid").bytes)
            .collect();
        let parallel: Vec<_> = Server::new(Workers::new(4))
            .submit_batch(&specs)
            .into_iter()
            .map(|o| o.expect("valid").bytes)
            .collect();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn poisoned_world_is_quarantined_and_the_job_self_heals() {
        let srv = server();
        let spec = JobSpec::new("t3e", 4).with_seed(31);

        // Reference: what an undamaged server answers.
        let want = Server::new(Workers::new(1)).submit(&spec).expect("valid").bytes;

        srv.pool().arm_poison("t3e", 4, 1);
        let healed = srv.submit(&spec).expect("self-healed, not an error");
        assert_eq!(healed.bytes, want, "post-quarantine result must match cold");
        assert_eq!(srv.pool().quarantined(), 1, "the damaged world was retired");

        // The healed result is cached and the pool keeps serving.
        let hit = srv.submit(&spec).expect("valid");
        assert!(hit.cached);
        assert_eq!(hit.bytes, want);
        assert_eq!(srv.pool().quarantined(), 1, "no further quarantines");
    }

    #[test]
    fn double_poison_is_a_typed_failure_and_never_cached() {
        let srv = server();
        let spec = JobSpec::new("t3e", 4).with_seed(32);
        srv.pool().arm_poison("t3e", 4, 2);
        let err = srv.submit(&spec).expect_err("both worlds were poisoned");
        assert!(matches!(err, SpecError::WorldFailed(_)), "{err:?}");
        assert_eq!(srv.pool().quarantined(), 2);
        assert_eq!(srv.cache_stats().entries, 0, "failures are never cached");

        // With the poison exhausted the same spec now succeeds, and
        // matches an undamaged server bit for bit.
        let ok = srv.submit(&spec).expect("healthy again");
        assert!(!ok.cached, "the failure left nothing behind");
        let want = Server::new(Workers::new(1)).submit(&spec).expect("valid").bytes;
        assert_eq!(ok.bytes, want);
    }

    #[test]
    fn batch_frame_sheds_excess_typed() {
        let srv = server();
        // MAX_BATCH + 2 copies of one cached spec: cheap, and the tail
        // two must come back as typed Overloaded errors.
        srv.submit(&JobSpec::new("t3e", 4)).expect("warm the cache");
        let one = r#"{"machine":"t3e","procs":4}"#;
        let frame = format!(r#"{{"op":"batch","specs":[{}]}}"#, vec![one; MAX_BATCH + 2].join(","));
        let (body, _) = srv.handle_frame(&frame);
        let Json::Obj(fields) = beff_json::parse(&body).expect("valid JSON") else {
            panic!("object response")
        };
        let Json::Arr(results) = &fields[0].1 else { panic!("results array") };
        assert_eq!(results.len(), MAX_BATCH + 2, "one response per submitted spec");
        let errors = results
            .iter()
            .filter(|r| matches!(r, Json::Obj(f) if f.iter().any(|(n, _)| n == "error")))
            .count();
        assert_eq!(errors, 2, "exactly the excess is shed");
        assert_eq!(srv.shed_jobs(), 2, "sheds are counted for stats");
    }

    #[test]
    fn shutdown_refuses_new_work_typed() {
        let srv = server();
        srv.submit(&JobSpec::new("t3e", 4)).expect("pre-shutdown work runs");
        srv.begin_shutdown();
        assert!(!srv.accepting());
        let err = srv.submit(&JobSpec::new("t3e", 4).with_seed(9)).expect_err("refused");
        assert!(matches!(err, SpecError::ShuttingDown));
        let (body, _) =
            srv.handle_frame(r#"{"op":"run","spec":{"machine":"t3e","procs":4,"seed":9}}"#);
        assert_eq!(body, "{\"error\":\"server is shutting down; no new jobs admitted\"}");
    }

    #[test]
    fn shutdown_racing_a_batch_drains_it_byte_stable() {
        let specs: Vec<JobSpec> =
            (0..3).map(|i| JobSpec::new("t3e", 4).with_seed(300 + i)).collect();
        let want: Vec<Arc<str>> = Server::new(Workers::new(1))
            .submit_batch(&specs)
            .into_iter()
            .map(|o| o.expect("valid").bytes)
            .collect();

        let srv = Arc::new(Server::new(Workers::new(2)));
        let srv2 = Arc::clone(&srv);
        let batch_specs = specs.clone();
        let handle = std::thread::spawn(move || srv2.submit_batch(&batch_specs));
        // Wait until the batch is admitted (or already finished), then
        // race shutdown against its execution: begin_shutdown must
        // block until the batch has fully drained.
        while srv.inflight() == 0 && !handle.is_finished() {
            std::thread::yield_now();
        }
        srv.begin_shutdown();
        assert_eq!(srv.inflight(), 0, "drain returned with work still in flight");
        let outcomes = handle.join().expect("batch thread");
        let got: Vec<Arc<str>> =
            outcomes.into_iter().map(|o| o.expect("admitted jobs complete").bytes).collect();
        assert_eq!(got, want, "a drained batch answers byte-stable results");
        assert!(matches!(srv.submit(&specs[0]), Err(SpecError::ShuttingDown)));
    }

    /// Run `f` on its own thread and wait at most a minute for it:
    /// a drain that is never woken fails the test instead of hanging it.
    fn finishes<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let thread = std::thread::spawn(f);
        wait_until("the thread to finish", || thread.is_finished());
        match thread.join() {
            Ok(value) => value,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }

    fn wait_until(what: &str, ready: impl Fn() -> bool) {
        let start = std::time::Instant::now();
        while !ready() {
            assert!(start.elapsed().as_secs() < 60, "gave up waiting for {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn shutdown_waiting_for_the_last_batch_is_woken_when_it_ends() {
        let srv = Arc::new(server());
        let spec = JobSpec::new("t3e", 4);
        assert!(srv.submit(&spec).is_ok(), "warm the cache");
        // The gate holds the cache lock, so the batch stops at its
        // lookup: admitted, in flight, and unable to end until released.
        let (held_tx, held) = std::sync::mpsc::channel();
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let gate_srv = Arc::clone(&srv);
        let gate_thread = std::thread::spawn(move || {
            let _guard = gate_srv.cache.hold();
            let _ = held_tx.send(());
            let _ = gate.recv();
        });
        assert!(held.recv().is_ok(), "the gate holds the cache");
        let batch_srv = Arc::clone(&srv);
        let batch = std::thread::spawn(move || batch_srv.submit(&spec));
        wait_until("the batch's admission", || srv.inflight() == 1);

        let shut_srv = Arc::clone(&srv);
        let shutdown = std::thread::spawn(move || {
            shut_srv.begin_shutdown();
            shut_srv.inflight()
        });
        // begin_shutdown clears `accepting` and starts waiting under one
        // hold of the drain lock, so once `accepting` reads false with
        // the batch still gated, it is waiting: only the batch's end can
        // wake it.
        wait_until("shutdown to stop admission", || !srv.accepting());
        assert_eq!(srv.inflight(), 1);
        assert!(!shutdown.is_finished(), "shutdown returned with a batch in flight");

        assert!(release.send(()).is_ok() && gate_thread.join().is_ok(), "the gate opens");
        let Ok(Ok(outcome)) = batch.join() else { panic!("an admitted hit is answered") };
        assert!(outcome.cached);
        let inflight_at_return = finishes(move || shutdown.join().ok());
        assert_eq!(inflight_at_return, Some(0), "shutdown returned before the batch's reply");
        assert!(matches!(srv.submit(&JobSpec::new("t3e", 4)), Err(SpecError::ShuttingDown)));
    }

    #[test]
    fn shutdown_with_nothing_in_flight_returns_at_once() {
        let srv = Arc::new(server());
        let shut_srv = Arc::clone(&srv);
        finishes(move || shut_srv.begin_shutdown());
        assert!(!srv.accepting());
        // and again: a second shutdown has nothing to wait for either
        let shut_srv = Arc::clone(&srv);
        finishes(move || shut_srv.begin_shutdown());
    }

    #[test]
    fn connection_closes_clean_at_frame_boundary() {
        let srv = server();
        let mut input = Vec::new();
        input.extend_from_slice(&wire::encode(r#"{"op":"stats"}"#));
        let mut stream = MemStream::new(input);
        assert_eq!(serve_connection(&srv, &mut stream), ConnClose::Clean);
        let (reply, used) =
            wire::decode(&stream.output).expect("valid reply frame").expect("complete");
        assert!(reply.contains("\"cache_hits\":0"), "{reply}");
        assert_eq!(used, stream.output.len(), "exactly one reply frame");
    }

    #[test]
    fn oversized_frame_gets_typed_goodbye_and_survives() {
        let srv = server();
        let mut input = vec![0xff, 0xff, 0xff, 0xff]; // 4 GiB length lie
        input.extend_from_slice(b"junk");
        let mut stream = MemStream::new(input);
        let close = serve_connection(&srv, &mut stream);
        let ConnClose::Protocol(report) = close else { panic!("protocol close, got {close:?}") };
        assert_eq!(report, "bad frame: frame of 4294967295 bytes exceeds the 16777216-byte limit");
        let (goodbye, _) = wire::decode(&stream.output).expect("valid goodbye").expect("complete");
        assert_eq!(
            goodbye,
            "{\"error\":\"bad frame: frame of 4294967295 bytes exceeds the 16777216-byte limit\"}"
        );
        // The server object is untouched — the daemon accepts again.
        srv.submit(&JobSpec::new("t3e", 4)).expect("still serving");
    }

    #[test]
    fn mid_frame_disconnect_is_a_typed_protocol_close() {
        let srv = server();
        let full = wire::encode(r#"{"op":"stats"}"#);
        // Cut inside the payload and inside the prefix.
        for cut in [2usize, full.len() - 3] {
            let mut stream = MemStream::new(full[..cut].to_vec());
            let close = serve_connection(&srv, &mut stream);
            let ConnClose::Protocol(report) = close else {
                panic!("cut at {cut}: expected protocol close, got {close:?}")
            };
            assert!(report.starts_with("bad frame: "), "{report}");
        }
    }

    #[test]
    fn shutdown_frame_ends_the_connection_after_answering() {
        let srv = server();
        let mut input = Vec::new();
        input.extend_from_slice(&wire::encode(r#"{"op":"shutdown"}"#));
        input.extend_from_slice(&wire::encode(r#"{"op":"stats"}"#)); // never read
        let mut stream = MemStream::new(input);
        assert_eq!(serve_connection(&srv, &mut stream), ConnClose::Shutdown);
        let (reply, used) = wire::decode(&stream.output).expect("ok").expect("complete");
        assert_eq!(reply, "{\"ok\":true}");
        assert_eq!(used, stream.output.len(), "nothing after the shutdown ack");
    }
}
