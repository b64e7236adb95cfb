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
//! byte-identical at every `BEFF_WORKERS`, so `verify.sh` compares it
//! against `results/serve_virtual.json` at 1 and 4 workers. How fast
//! the daemon serves is measured by `benchmark/` (`serve_hot`,
//! `serve_mix`), not here.
//!
//! ```text
//! loadgen [--out FILE] [--golden FILE]
//!         [--queries N] [--hit-ratio F] [--hero-procs N]
//! ```

use beff_json::{Json, ToJson};
use beff_serve::{Admission, FaultCfg, JobSpec, Server};
use beff_sim::Workers;

/// Seed of the query mix (the mix itself is part of the benchmark
/// definition, so it is fixed, not host-entropy).
const MIX_SEED: u64 = 0x5EED_0001;

/// Seed base for fresh-miss variants generated in the mixed phase.
const VARIANT_SEED_BASE: u64 = 0x900D_0000;

fn main() {
    let cli = Cli::parse();
    let workers = match Workers::try_from_env() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(2);
        }
    };
    let server = Server::new(workers);

    // The spec universe: pattern ladder + hero, all validated upfront.
    let ladder = ladder(cli.hero_procs);
    for spec in &ladder {
        if let Err(e) = spec.resolve() {
            eprintln!("loadgen: internal ladder spec invalid: {e}");
            std::process::exit(1);
        }
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
    let mut mix: Vec<JobSpec> = Vec::with_capacity(cli.queries);
    let (mut hits, mut misses) = (0u64, 0u64);
    for i in 0..cli.queries {
        let spec = if rng.unit() < cli.hit_ratio {
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
        let cached = server
            .submit(spec)
            .expect("unique specs are valid");
        assert!(cached.cached, "every unique spec is cached after the run");
        let fresh = server.recompute(spec).expect("unique specs are valid");
        if cached.bytes.as_ref() != fresh.as_str() {
            eprintln!(
                "loadgen: CACHE CORRECTNESS FAILURE for {} ({}): cached bytes differ from recomputation",
                spec.key_digest(),
                spec.machine,
            );
            std::process::exit(1);
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
        eprintln!(
            "loadgen: HEALTH COUNTER FAILURE — quarantined_worlds={quarantined}, \
             shed_jobs={shed} on a clean run (both must be 0)"
        );
        std::process::exit(1);
    }

    let stats = server.cache_stats();
    let report = Report {
        queries: cli.queries,
        hit_ratio: cli.hit_ratio,
        unique,
        hero: hero.clone(),
        hero_beff: beff_of(&server, &hero),
        audited,
        stats_entries: stats.entries,
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        quarantined,
        shed,
        mixed_hits: hits,
        mixed_misses: misses,
    };

    let report_bytes = beff_json::to_canonical(&report);
    if let Some(path) = &cli.out {
        write_file(path, &report_bytes);
    }
    if let Some(golden) = &cli.golden {
        let want = std::fs::read_to_string(golden).unwrap_or_else(|e| {
            eprintln!("loadgen: cannot read golden {golden}: {e}");
            std::process::exit(1);
        });
        if want != report_bytes {
            eprintln!(
                "loadgen: report diverges from golden {golden} — determinism regression \
                 (or an intended change: regenerate with --out)"
            );
            std::process::exit(1);
        }
    }

    println!(
        "loadgen: {} queries over {} unique specs ({} hits / {} misses in the mix)",
        report.queries + report.unique.len(),
        report.unique.len(),
        report.mixed_hits,
        report.mixed_misses,
    );
    println!("loadgen: audit — {audited} specs recomputed, all byte-identical to cache");
}

/// The fixed spec universe: small partitions across machine families,
/// one faulted spec, and the 512-rank hero last.
fn ladder(hero_procs: usize) -> Vec<JobSpec> {
    let mut fault = FaultCfg::none(7);
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
    let Json::Obj(fields) = parsed else { return f64::NAN };
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

/// Everything here is a pure function of the CLI arguments and the mix
/// seed — independent of `BEFF_WORKERS`, host speed and wall time. The
/// golden gates byte-compare it at 1 and 4 workers and across commits.
struct Report {
    queries: usize,
    hit_ratio: f64,
    unique: Vec<JobSpec>,
    hero: JobSpec,
    hero_beff: f64,
    audited: usize,
    stats_entries: usize,
    cache_hits: u64,
    cache_misses: u64,
    quarantined: u64,
    shed: u64,
    mixed_hits: u64,
    mixed_misses: u64,
}

impl ToJson for Report {
    fn to_json(&self) -> Json {
        let specs: Vec<Json> = self
            .unique
            .iter()
            .map(|s| {
                let bytes = s.canonical_key();
                Json::object()
                    .field("digest", &s.key_digest())
                    .field("machine", &s.machine)
                    .field("procs", &s.procs)
                    .field("schedule", s.schedule.as_str())
                    .field("seed", &s.seed)
                    .field("faulted", &s.fault.is_some())
                    .field("key_bytes", &(bytes.len() as u64))
                    .build()
            })
            .collect();
        // Serving-layer health counters: every submission in this
        // harness is serial (queue flushes batch at a time), so the
        // counts are a pure function of the mix — worker-sweep stable.
        let counters = Json::object()
            .field("cache_hits", &self.cache_hits)
            .field("cache_misses", &self.cache_misses)
            .field("quarantined_worlds", &self.quarantined)
            .field("shed_jobs", &self.shed)
            .build();
        Json::object()
            .field("schema", &2u32)
            .field("mix_seed", &MIX_SEED)
            .field("queries", &(self.queries as u64))
            .field("hit_ratio", &self.hit_ratio)
            .field("mixed_hits", &self.mixed_hits)
            .field("mixed_misses", &self.mixed_misses)
            .field("unique_specs", &(self.unique.len() as u64))
            .field("cache_entries", &(self.stats_entries as u64))
            .field("audited_identical", &(self.audited as u64))
            .field("hero_digest", &self.hero.key_digest())
            .field("hero_procs", &self.hero.procs)
            .field("hero_beff", &self.hero_beff)
            .raw("counters", counters)
            .raw("specs", Json::Arr(specs))
            .build()
    }
}

fn write_file(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("loadgen: cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// xorshift64*: a tiny seeded stream for the query mix (the simulation
/// substrate's RNG is not imported here — the mix is harness policy,
/// not model behavior).
struct MixRng(u64);

impl MixRng {
    fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

struct Cli {
    out: Option<String>,
    golden: Option<String>,
    queries: usize,
    hit_ratio: f64,
    hero_procs: usize,
}

impl Cli {
    fn parse() -> Self {
        let mut cli = Cli {
            out: None,
            golden: None,
            queries: 48,
            hit_ratio: 0.5,
            hero_procs: 512,
        };
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let value = |i: usize| {
                args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("loadgen: {} needs a value", args[i]);
                    std::process::exit(2);
                })
            };
            match args[i].as_str() {
                "--out" => cli.out = Some(value(i)),
                "--golden" => cli.golden = Some(value(i)),
                "--queries" => {
                    cli.queries = value(i).parse().unwrap_or_else(|_| {
                        eprintln!("loadgen: --queries needs an integer");
                        std::process::exit(2);
                    })
                }
                "--hit-ratio" => {
                    cli.hit_ratio = value(i).parse().unwrap_or_else(|_| {
                        eprintln!("loadgen: --hit-ratio needs a number in 0..=1");
                        std::process::exit(2);
                    })
                }
                "--hero-procs" => {
                    cli.hero_procs = value(i).parse().unwrap_or_else(|_| {
                        eprintln!("loadgen: --hero-procs needs an integer");
                        std::process::exit(2);
                    })
                }
                other => {
                    eprintln!("loadgen: unknown flag {other:?}");
                    std::process::exit(2);
                }
            }
            i += 2;
        }
        cli
    }
}
