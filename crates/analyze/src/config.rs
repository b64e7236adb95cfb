//! The project's determinism & safety contract, as data.
//!
//! Everything the rules enforce is declared here — which identifiers
//! are banned where, how many `unwrap()`/`expect()` calls each crate is
//! budgeted, and which files own the ranked locks. Changing the
//! contract is a deliberate, reviewable edit to this file, not a
//! drive-by at the violation site.

/// Every rule name a diagnostic carries, and so every name a waiver
/// may cite: `allow(<name>)` with a name not on this list is itself a
/// `waiver` violation.
pub const RULES: &[&str] = &[
    "wall-clock",
    "hash-order",
    "threading",
    "layering",
    "unwrap",
    "safety",
    "lock-decl",
    "path-deps",
    "waiver",
    "callgraph",
    "lockflow",
    "panicflow",
];

/// One identifier quarantine: `idents` may appear only under `homes`
/// (a home ending in `/` is a directory and matches as a prefix, any
/// other home is a file and matches as a suffix). Test code is out of
/// scope unless `tests` is set. A hit is reported as `` `<ident>` ``
/// followed by `why`.
pub struct Ban {
    pub rule: &'static str,
    pub idents: &'static [&'static str],
    pub homes: &'static [&'static str],
    pub tests: bool,
    pub why: &'static str,
}

/// The identifier quarantines, one per rule ([`crate::rules::check_bans`]).
///
/// * `wall-clock` — host time or scheduling breaks bitwise replay; the
///   simulated clock is the only time source. `beff serve_torture`'s
///   `--report` carries honest wall timings, reported but never gated
///   on, so its command file is the one home.
/// * `hash-order` — iteration order that depends on the process-random
///   hasher seed, and host facts of the same kind (a thread's id, an
///   allocation's address).
/// * `threading` — thread creation is confined to the substrate (its
///   worker pool and the thread-backed fibers) and the sync
///   primitives; everyone else funnels parallel work through
///   `beff_sim::map_ordered`, whose submission-order results make
///   worker count unobservable.
/// * `layering` (fiber containment) — the x86_64 context-switch
///   machinery lives in the substrate crate; everyone else reaches
///   fibers through the safe `SimScheduler::launch`. Test code is in
///   scope too.
pub const BANS: &[Ban] = &[
    Ban {
        rule: "wall-clock",
        idents: &["Instant", "SystemTime", "sleep", "park_timeout"],
        homes: &["src/cmd/serve_torture.rs"],
        tests: false,
        why: "reads host time/scheduling; use the simulated clock (netsim::clock) or waive \
              with `// beff-analyze: allow(wall-clock): <why>`",
    },
    Ban {
        rule: "hash-order",
        idents: &[
            "HashMap",
            "HashSet",
            "DefaultHasher",
            "RandomState",
            "ThreadId",
            "addr_of",
            "addr_of_mut",
        ],
        homes: &[],
        tests: false,
        why: "has a host-dependent order or identity (hasher seed, thread id, address); use \
              BTreeMap/BTreeSet or an index, or waive keyed-lookup-only use with \
              `// beff-analyze: allow(hash-order): <why>`",
    },
    Ban {
        rule: "threading",
        idents: &["spawn", "JoinHandle", "Builder", "available_parallelism"],
        homes: &["crates/sim/", "crates/sync/"],
        tests: false,
        why: "creates or sizes host threads outside the thread homes; use \
              `beff_sim::map_ordered` over the shared worker pool, or waive with \
              `// beff-analyze: allow(threading): <why>`",
    },
    Ban {
        rule: "layering",
        idents: &["naked_asm", "global_asm", "fiber_switch", "init_fiber"],
        homes: &["crates/sim/"],
        tests: true,
        why: "is context-switch machinery; only `crates/sim` may contain fiber/stack-switching \
              code (DESIGN.md §9)",
    },
];

/// Substrate names that `beff-netsim` re-exports for compatibility but
/// that `beff-mpi` must import from `beff_sim` directly (the `layering`
/// rule). Module names and the types they export; the *model* surface
/// (`MachineNet`, `NetParams`, `Topology`, routing, stats) is netsim's
/// own and stays fair game.
pub const NETSIM_INTERNAL_IDENTS: &[&str] = &[
    "clock", "link", "resource", "rng", "units", // substrate modules
    "VClock", // the clock
    "Link", "Degrade", "Resource", // contention primitives
    "Rng64", "Secs", "KB", "MB", "GB", // rng + units
];

/// `beff-*` dependency allow-lists for the layered crates (the
/// `layering` rule's manifest half; dev-dependencies count too). The
/// substrate depends on `beff-sync` alone; `beff-check` sits directly
/// on the substrate; and `beff-sweep` exists to prove the substrate
/// carries a workload without `beff-mpi`/`beff-netsim`, so it may
/// never acquire either edge. Crates not listed here are governed only
/// by the `path-deps` rule.
pub const DEP_ALLOWLISTS: &[(&str, &[&str])] = &[
    ("sim", &["beff-sync"]),
    ("check", &["beff-sim"]),
    ("netsim", &["beff-sync", "beff-sim", "beff-json", "beff-check"]),
    ("faults", &["beff-sim", "beff-netsim", "beff-json", "beff-check"]),
    ("pfs", &["beff-netsim", "beff-sync", "beff-json", "beff-check"]),
    ("mpi", &["beff-sim", "beff-netsim", "beff-faults", "beff-sync", "beff-check"]),
    ("sweep", &["beff-sim", "beff-pfs", "beff-faults", "beff-json"]),
    (
        "serve",
        &[
            "beff-json",
            "beff-sync",
            "beff-sim",
            "beff-netsim",
            "beff-faults",
            "beff-mpi",
            "beff-core",
            "beff-machines",
            "beff-bench",
            "beff-check",
        ],
    ),
];

/// Per-crate `unwrap()`/`expect()` ceilings, pinned by the PR-4/PR-5
/// panic-path audit. The budget is a ratchet: it counts every call in
/// the crate (tests included) that does not carry an
/// `allow(unwrap)` waiver, and may only be raised by editing this
/// table in a reviewed diff. `facade` covers the root `src/` (the
/// `beff` command), `tests/` and `examples/`.
pub const UNWRAP_BUDGETS: &[(&str, u32)] = &[
    ("analyze", 42),
    ("bench", 15),
    ("check", 0),
    ("core", 13),
    ("facade", 54),
    ("faults", 0),
    ("json", 4),
    ("machines", 6),
    ("mpi", 10),
    ("mpiio", 12),
    ("netsim", 5),
    ("pfs", 3),
    ("report", 4),
    ("serve", 130),
    ("sim", 13),
    ("sweep", 0),
    ("sync", 3),
];

/// One ranked lock: the file that owns it, the receiver identifier it
/// is acquired through, and the methods that acquire it. Its level and
/// name are not written here: they are read off the file's one
/// `Rank::new(level, "name")` literal (the `lock-decl` rule), so the
/// runtime checker (beff-sync's `lock-order` feature) and the static
/// one (`lockflow`) see a single hierarchy. DESIGN.md §8 tabulates it
/// and argues the order.
pub struct LockDecl {
    pub file_suffix: &'static str,
    pub receiver: &'static str,
    pub methods: &'static [&'static str],
}

/// The files that own a ranked lock, one lock each.
pub const LOCK_HIERARCHY: &[LockDecl] = &[
    LockDecl { file_suffix: "crates/serve/src/journal.rs", receiver: "file", methods: &["lock"] },
    LockDecl { file_suffix: "crates/serve/src/server.rs", receiver: "drain", methods: &["lock"] },
    LockDecl { file_suffix: "crates/serve/src/cache.rs", receiver: "entries", methods: &["lock"] },
    LockDecl { file_suffix: "crates/serve/src/pool.rs", receiver: "state", methods: &["lock"] },
    LockDecl { file_suffix: "crates/mpi/src/comm.rs", receiver: "boards", methods: &["lock"] },
    LockDecl { file_suffix: "crates/sim/src/port.rs", receiver: "inner", methods: &["lock"] },
    LockDecl { file_suffix: "crates/sim/src/sched.rs", receiver: "inner", methods: &["lock"] },
    LockDecl { file_suffix: "crates/sim/src/fiber.rs", receiver: "turn", methods: &["lock"] },
    LockDecl { file_suffix: "crates/pfs/src/fs.rs", receiver: "ledger", methods: &["lock"] },
    LockDecl { file_suffix: "crates/netsim/src/routing.rs", receiver: "routes", methods: &["lock"] },
    LockDecl { file_suffix: "crates/sim/src/link.rs", receiver: "books", methods: &["lock"] },
];

/// Entry points for the `panicflow` reachability pass: the functions
/// the outside world (a connection, a worker thread, a fiber, an MPI
/// rank) drives directly. An untyped panic reachable from one of these
/// tears down a worker, poisons a world, or kills a connection —
/// the crash-safety layer turns it into a quarantine, but the pass
/// exists so every such site is either waived with a written invariant
/// or converted to a typed `BeffError`.
///
/// Matched by `(file path suffix, fn name)`.
pub const PANIC_ENTRY_POINTS: &[(&str, &[&str])] = &[
    (
        "crates/sim/src/sched.rs",
        &[
            "yield_turn",
            "yield_blocked",
            "unblock",
            "unblock_all",
            "hand_off",
            "abort",
            "drive",
            "launch",
        ],
    ),
    ("crates/sim/src/pool.rs", &["map_ordered"]),
    (
        "crates/serve/src/server.rs",
        &["serve_connection", "handle_frame", "submit", "submit_batch", "execute", "recompute"],
    ),
];

/// Call names that surrender the current turn/fiber/thread to the
/// scheduler. `lockflow` flags any declared lock textually held across
/// a call that may (transitively) reach one of these: a lock held over
/// a suspension point serializes the scheduler against the lock holder
/// and is the classic deterministic-deadlock shape.
pub const YIELD_IDENTS: &[&str] = &["yield_turn", "yield_blocked", "fiber_switch"];

/// Method names owned, in practice, by std containers/iterators/
/// primitives. A method call through an *untyped* receiver with one of
/// these names resolves to std (external), never to a same-named
/// workspace method: `queue.push(…)` landing on `Port::push` would
/// invent lock acquisitions wholesale. Typed spellings are unaffected —
/// `self.push(…)`, `Port::push(…)`, and `Self::push(…)` still resolve,
/// so a workspace method on this list stays reachable wherever the
/// receiver's type is actually stated.
pub const STD_METHOD_NAMES: &[&str] = &[
    "all", "and_then", "any", "append", "as_bytes", "as_mut", "as_ref", "as_slice", "as_str",
    "bytes", "chars", "clear", "clone", "cloned", "collect", "contains", "contains_key", "count",
    "dedup", "drain", "ends_with", "entry", "extend", "filter", "find", "first", "fold", "get",
    "get_mut", "insert", "into_iter", "is_empty", "iter", "iter_mut", "join", "keys", "last",
    "len", "map", "max", "max_by_key", "min", "min_by_key", "next", "ok", "ok_or", "or_else",
    "parse", "pop", "pop_front", "position", "push", "push_back", "push_front", "push_str",
    "remove", "replace", "retain", "reverse", "sort", "sort_by", "sort_by_key", "sort_unstable",
    "split", "split_off", "starts_with", "strip_prefix", "strip_suffix", "take", "to_string",
    "to_vec", "trim", "unwrap_or", "unwrap_or_default", "unwrap_or_else", "values",
];

/// Per-crate `panicflow` baselines, keyed by the crate the *finding
/// site* lives in: an inventory of the audited panic surface reachable
/// from [`PANIC_ENTRY_POINTS`] — sites whose invariants are argued in
/// comments but not yet worth a waiver line each. Same ratchet contract
/// as [`UNWRAP_BUDGETS`], with one difference: a crate absent from the
/// table has budget **zero**. Counts are of unwaived findings.
pub const PANICFLOW_BUDGETS: &[(&str, u32)] = &[
    ("core", 3),
    ("machines", 1),
    ("mpi", 6),
    ("sim", 12),
];

/// A crate's [`PANICFLOW_BUDGETS`] entry: missing crate = 0.
pub fn panicflow_budget(krate: &str) -> u32 {
    PANICFLOW_BUDGETS.iter().find(|(c, _)| *c == krate).map(|&(_, n)| n).unwrap_or(0)
}

/// The crate a workspace-relative path belongs to, for budget and
/// scope decisions: `crates/<name>/…` → `<name>`, everything else
/// (root `src/`, `tests/`, `examples/`) → `facade`.
pub fn crate_of(path: &str) -> &str {
    if let Some(rest) = path.strip_prefix("crates/") {
        if let Some(slash) = rest.find('/') {
            return &rest[..slash];
        }
    }
    "facade"
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The analyzer never baselines its own defects: with no `analyze`
    /// row, any panicflow finding in `crates/analyze` is a violation.
    #[test]
    fn the_analyzer_has_no_pass_baseline() {
        assert!(PANICFLOW_BUDGETS.iter().all(|(krate, _)| *krate != "analyze"));
    }

    #[test]
    fn every_ban_reports_under_a_listed_rule() {
        for ban in BANS {
            assert!(RULES.contains(&ban.rule), "{}", ban.rule);
        }
    }
}
