//! Seeded query-mix replay against an in-process [`Server`]: the
//! serving layer's cache-correctness audit and determinism golden.
//!
//! Three phases over a fixed spec universe (a pattern ladder across
//! machines/partitions plus one 512-rank "hero" spec):
//!
//! 1. **cold** — every unique spec once, each a miss;
//! 2. **mixed** — a seeded stream of queries at a configurable
//!    hit/miss ratio;
//! 3. **replay** — the whole mix again through the bounded admission
//!    queue, every query a hit.
//!
//! Afterwards the audit recomputes **every** unique spec with the
//! cache bypassed and byte-compares against the cached entry.
//!
//! The report — counts, digests, b_eff values — is a pure function of
//! the CLI arguments and the mix seed: bit-deterministic and
//! byte-identical at every worker count, so `beff goldens` compares it
//! against `results/serve_virtual.json` at 1 and 4 workers. How fast
//! the daemon serves is measured by `benchmark/` (`serve_hot`,
//! `serve_mix`), not here.

use super::MixRng;
use crate::cli::{Args, Fail};
use beff_faults::FaultSpec;
use beff_json::Json;
use beff_serve::{Admission, JobSpec, Server};
use std::fmt::Write as _;

/// Seed of the query mix (the mix itself is part of the benchmark
/// definition, so it is fixed, not host-entropy).
const MIX_SEED: u64 = 0x5EED_0001;

/// Seed base for fresh-miss variants generated in the mixed phase.
const VARIANT_SEED_BASE: u64 = 0x900D_0000;

pub fn run(args: &Args, out: &mut String) -> Result<(), Fail> {
    let queries = args.get::<usize>("--queries").unwrap_or(48);
    let hit_ratio = args.get::<f64>("--hit-ratio").unwrap_or(0.5);
    let server = Server::new(args.workers()?);

    // The spec universe: pattern ladder + hero, all validated upfront.
    let ladder = ladder(args.get::<usize>("--hero-procs").unwrap_or(512));
    for spec in &ladder {
        spec.resolve().map_err(|e| Fail::new(1, format!("internal ladder spec invalid: {e}")))?;
    }
    let hero = ladder.last().expect("ladder is never empty").clone();

    // Phase 1: cold — every unique spec once.
    for spec in &ladder {
        let outcome = server.submit(spec).expect("ladder specs are valid");
        assert!(!outcome.cached, "cold phase must miss");
    }

    // Phase 2: mixed — seeded hit/miss stream.
    let mut rng = MixRng::new(MIX_SEED);
    let small: Vec<&JobSpec> = ladder.iter().filter(|s| s.procs <= 32).collect();
    let mut unique = ladder.clone();
    let mut mix: Vec<JobSpec> = Vec::with_capacity(queries);
    let (mut hits, mut misses) = (0u64, 0u64);
    for i in 0..queries {
        let spec = if rng.unit() < hit_ratio {
            // Replay a known spec (a guaranteed hit).
            unique[rng.below(unique.len())].clone()
        } else {
            // A fresh variant of a small ladder spec (a guaranteed miss).
            let base = small[rng.below(small.len())];
            base.clone().with_seed(VARIANT_SEED_BASE + i as u64)
        };
        let outcome = server.submit(&spec).expect("mix specs are valid");
        if outcome.cached {
            hits += 1;
        } else {
            misses += 1;
            unique.push(spec.clone());
        }
        mix.push(spec);
    }

    // Phase 3: replay the whole mix through the admission queue —
    // everything is cached now.
    let mut queue = Admission::new(&server, 8);
    let mut replayed = 0usize;
    for spec in &mix {
        replayed += queue.enqueue(spec.clone()).len();
    }
    replayed += queue.flush().len();
    assert_eq!(replayed, mix.len(), "the queue must answer every admitted query");

    // The hero stays a hit however often it is asked for (seven more
    // hits in the golden's `cache_hits`).
    for _ in 0..7 {
        let outcome = server.submit(&hero).expect("hero is valid");
        assert!(outcome.cached, "hero must be cached by now");
    }

    // Audit: every unique spec, recomputed with the cache bypassed,
    // must reproduce the cached bytes exactly.
    let mut audited = 0usize;
    for spec in &unique {
        let cached = server.submit(spec).expect("unique specs are valid");
        assert!(cached.cached, "every unique spec is cached after the run");
        let fresh = server.recompute(spec).expect("unique specs are valid");
        if cached.bytes.as_ref() != fresh.as_str() {
            return Err(Fail::new(
                1,
                format!(
                    "CACHE CORRECTNESS FAILURE for {} ({}): cached bytes differ from recomputation",
                    spec.key_digest(),
                    spec.machine,
                ),
            ));
        }
        audited += 1;
    }

    // Audit the serving-layer health counters too: a clean loadgen run
    // injects no poisons and sheds nothing, so any nonzero here means
    // the self-healing or load-shedding path fired when it must not
    // have (the torture harness is where those paths are exercised).
    let quarantined = server.pool().quarantined();
    let shed = server.shed_jobs();
    if quarantined != 0 || shed != 0 {
        return Err(Fail::new(
            1,
            format!(
                "HEALTH COUNTER FAILURE — quarantined_worlds={quarantined}, \
                 shed_jobs={shed} on a clean run (both must be 0)"
            ),
        ));
    }

    // Everything in the report is a pure function of the CLI arguments
    // and the mix seed — independent of the worker count, host speed and
    // wall time. `beff goldens` byte-compares it at 1 and 4 workers.
    let stats = server.cache_stats();
    let hero_beff = beff_of(&server, &hero);
    let specs: Vec<Json> = unique
        .iter()
        .map(|s| {
            Json::object()
                .field("digest", &s.key_digest())
                .field("machine", &s.machine)
                .field("procs", &s.procs)
                .field("schedule", s.schedule.as_str())
                .field("seed", &s.seed)
                .field("faulted", &s.fault.is_some())
                .field("key_bytes", &s.canonical_key().len())
                .build()
        })
        .collect();
    // Serving-layer health counters: every submission in this harness
    // is serial (queue flushes batch at a time), so the counts are a
    // pure function of the mix — worker-sweep stable.
    let counters = Json::object()
        .field("cache_hits", &stats.hits)
        .field("cache_misses", &stats.misses)
        .field("quarantined_worlds", &quarantined)
        .field("shed_jobs", &shed)
        .build();
    let report = Json::object()
        .field("schema", &2u32)
        .field("mix_seed", &MIX_SEED)
        .field("queries", &queries)
        .field("hit_ratio", &hit_ratio)
        .field("mixed_hits", &hits)
        .field("mixed_misses", &misses)
        .field("unique_specs", &unique.len())
        .field("cache_entries", &stats.entries)
        .field("audited_identical", &audited)
        .field("hero_digest", &hero.key_digest())
        .field("hero_procs", &hero.procs)
        .field("hero_beff", &hero_beff)
        .raw("counters", counters)
        .raw("specs", Json::Arr(specs))
        .build();

    args.report.set(Some(beff_json::to_canonical(&report)));
    writeln!(
        out,
        "loadgen: {} queries over {} unique specs ({hits} hits / {misses} misses in the mix)",
        queries + unique.len(),
        unique.len(),
    )?;
    writeln!(out, "loadgen: audit — {audited} specs recomputed, all byte-identical to cache")?;
    Ok(())
}

/// The fixed spec universe: small partitions across machine families,
/// one faulted spec, and the 512-rank hero last.
fn ladder(hero_procs: usize) -> Vec<JobSpec> {
    let mut fault = FaultSpec::none(7);
    fault.severity = 0.5;
    fault.degrade = true;
    vec![
        JobSpec::new("t3e", 16).with_seed(1),
        JobSpec::new("t3e", 32).with_seed(2),
        JobSpec::new("sr2201", 16).with_seed(3),
        JobSpec::new("sx4", 8).with_seed(4),
        JobSpec::new("ibm-sp", 16).with_seed(5),
        JobSpec::new("sr8000-rr", 16).with_seed(6),
        JobSpec::new("t3e", 16).with_seed(1).with_fault(fault),
        JobSpec::new("t3e", hero_procs),
    ]
}

/// The hero's headline number, read back out of its cached report.
fn beff_of(server: &Server, spec: &JobSpec) -> f64 {
    let outcome = server.submit(spec).expect("hero is valid");
    let parsed = beff_json::parse(outcome.bytes.as_ref()).expect("cached reports are JSON");
    let Json::Obj(fields) = parsed else {
        return f64::NAN;
    };
    for (name, value) in fields {
        if name == "beff" {
            return match value {
                Json::Float(f) => f,
                Json::UInt(n) => n as f64,
                Json::Int(n) => n as f64,
                _ => f64::NAN,
            };
        }
    }
    f64::NAN
}
