//! The project's determinism & safety contract, as data.
//!
//! Everything the rules enforce is declared here — which crates are
//! deterministic, which files may touch the wall clock, how many
//! `unwrap()`/`expect()` calls each crate is budgeted, and the lock
//! hierarchy. Changing the contract is a deliberate, reviewable edit
//! to this file, not a drive-by at the violation site.

/// Crates whose *library* code must be bit-deterministic: no wall
/// clock, no hasher-order iteration.
pub const DETERMINISTIC_CRATES: &[&str] =
    &["sim", "netsim", "mpi", "pfs", "faults", "mpiio", "sweep", "serve"];

/// Crates exempt from the wall-clock rule wholesale: `analyze` itself
/// (lints must not lint their own fixtures).
pub const WALLCLOCK_EXEMPT_CRATES: &[&str] = &["analyze"];

/// Individual files exempt from the wall-clock rule (workspace-relative
/// path suffixes). `beff serve_torture`'s `--report` carries honest
/// wall timings — reported but never gated on — while the `serve`
/// library it drives stays clock-free.
pub const WALLCLOCK_EXEMPT_FILES: &[&str] = &["src/cmd/serve_torture.rs"];

/// Identifiers whose appearance in deterministic code means a wall
/// clock or host-scheduling dependency.
pub const WALLCLOCK_IDENTS: &[&str] = &["Instant", "SystemTime", "sleep", "park_timeout"];

/// Hash-ordered container identifiers banned in deterministic crates.
pub const HASH_ORDER_IDENTS: &[&str] = &["HashMap", "HashSet", "DefaultHasher", "RandomState"];

/// Identifiers that mark x86_64 context-switch machinery. Only
/// [`FIBER_HOME`] may contain them (the `layering` rule): the fiber
/// engine's stack-switching `unsafe` is quarantined in the substrate
/// crate, and no personality crate gets to grow its own — everyone
/// else reaches fibers through the safe `SimScheduler::launch`.
pub const FIBER_IDENTS: &[&str] = &["naked_asm", "global_asm", "fiber_switch", "init_fiber"];

/// The one directory allowed to contain [`FIBER_IDENTS`].
pub const FIBER_HOME: &str = "crates/sim/";

/// Identifiers that create or size host-thread parallelism. The
/// `threading` rule quarantines them (same mechanism as the fiber
/// quarantine): determinism lives or dies by *where* threads are
/// allowed to exist, so thread creation is confined to the substrate
/// (its worker pool and the thread-backed fibers) and the sync
/// primitives. Everyone else funnels
/// parallel work through `beff_sim::map_ordered`, whose
/// submission-order results make worker count unobservable.
pub const THREAD_IDENTS: &[&str] = &["spawn", "JoinHandle", "Builder", "available_parallelism"];

/// The only places allowed to contain [`THREAD_IDENTS`] outside test
/// code (path-suffix match: directories end with `/`).
pub const THREAD_HOMES: &[&str] = &["crates/sim/", "crates/sync/"];

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
    ("analyze", 43),
    ("bench", 15),
    ("check", 0),
    ("core", 13),
    ("facade", 55),
    ("faults", 0),
    ("json", 16),
    ("machines", 6),
    ("mpi", 11),
    ("mpiio", 17),
    ("netsim", 7),
    ("pfs", 3),
    ("report", 4),
    ("serve", 131),
    ("sim", 14),
    ("sweep", 0),
    ("sync", 3),
];

/// One declared lock in the static hierarchy: a file-path suffix, the
/// receiver identifier the lock is acquired through, the methods that
/// acquire it, and its level. Within any function, locks must be
/// acquired in strictly increasing level order; acquiring at a level
/// ≤ one already held is a violation.
///
/// Levels match the runtime `beff_sync::Rank` declarations (DESIGN.md
/// §8): the static pass catches textually nested misuse at review
/// time, the `lock-order` feature catches dynamically nested misuse
/// under test.
pub struct LockDecl {
    pub file_suffix: &'static str,
    pub receiver: &'static str,
    pub methods: &'static [&'static str],
    pub level: u16,
    pub name: &'static str,
}

/// The declared hierarchy. Levels (acquired low → high):
///
/// | level | lock                         | guards                         |
/// |-------|------------------------------|--------------------------------|
/// | 12    | `serve.journal`              | durable result-journal file    |
/// | 13    | `serve.drain`                | admission flag + in-flight count |
/// | 14    | `serve.cache`                | content-addressed result map   |
/// | 16    | `serve.pool`                 | idle partitions + armed poisons |
/// | 20    | `mpi.boards`                 | one communicator's rendezvous board |
/// | 22    | `mpi.registry`               | context id → board, taken once per `Comm` |
/// | 30    | `sim.port`                   | one actor's port state         |
/// | 40    | `sched.state`                | token-scheduler ready/blocked  |
/// | 50    | `fiber.baton`                | one thread-backed fiber's turn |
/// | 60    | `pfs.files`                  | filesystem name table          |
/// | 64    | `pfs.ledger`                 | one filesystem's client/channel/server occupancy + cache accounting |
/// | 66    | `pfs.file`                   | one file's size, residency stamps, stored bytes |
/// | 70    | `netsim.routes`              | one route-table shard          |
/// | 72    | `sim.ledger`                 | one machine's link occupancy + traffic counters |
/// | 80    | `sync.channel`               | channel queue (leaf)           |
///
/// `sim.ledger` is a leaf of the simulation stack: a pricing call takes
/// it with no other lock held and acquires no declared lock under it.
/// It is placed *above* every lock a caller could come to hold while
/// pricing (boards, ports, scheduler, pfs tables, route shards — a
/// route-cache miss takes and releases a route shard just before the
/// ledger), so nesting it inside any of them stays increasing, and
/// below only the sync primitives' own leaves.
///
/// `pfs.ledger` is taken once per priced filesystem call, by a rank
/// that holds no other lock; the one lock acquired under it is the
/// `pfs.file` of the file being priced, under which nothing is.
///
/// The serve daemon's locks sit *below* the whole simulation stack:
/// they bracket map pushes/pops, journal appends and counter flips on
/// the request path and are always released before a simulation runs,
/// so any accidental nesting of a serve lock around a sim lock is
/// still hierarchy-increasing. `serve.journal` is lowest — an append
/// happens while nothing else is held; `serve.drain` brackets only the
/// admission flag and in-flight counter around a batch.
pub const LOCK_HIERARCHY: &[LockDecl] = &[
    LockDecl {
        file_suffix: "crates/serve/src/journal.rs",
        receiver: "file",
        methods: &["lock"],
        level: 12,
        name: "serve.journal",
    },
    LockDecl {
        file_suffix: "crates/serve/src/server.rs",
        receiver: "drain",
        methods: &["lock"],
        level: 13,
        name: "serve.drain",
    },
    LockDecl {
        file_suffix: "crates/serve/src/cache.rs",
        receiver: "entries",
        methods: &["lock"],
        level: 14,
        name: "serve.cache",
    },
    LockDecl {
        file_suffix: "crates/serve/src/pool.rs",
        receiver: "state",
        methods: &["lock"],
        level: 16,
        name: "serve.pool",
    },
    LockDecl {
        file_suffix: "crates/mpi/src/comm.rs",
        receiver: "board",
        methods: &["lock"],
        level: 20,
        name: "mpi.boards",
    },
    LockDecl {
        file_suffix: "crates/mpi/src/comm.rs",
        receiver: "registry",
        methods: &["lock"],
        level: 22,
        name: "mpi.registry",
    },
    LockDecl {
        file_suffix: "crates/sim/src/port.rs",
        receiver: "inner",
        methods: &["lock"],
        level: 30,
        name: "sim.port",
    },
    LockDecl {
        file_suffix: "crates/sim/src/sched.rs",
        receiver: "inner",
        methods: &["lock"],
        level: 40,
        name: "sched.state",
    },
    LockDecl {
        file_suffix: "crates/sim/src/fiber.rs",
        receiver: "turn",
        methods: &["lock"],
        level: 50,
        name: "fiber.baton",
    },
    LockDecl {
        file_suffix: "crates/pfs/src/fs.rs",
        receiver: "files",
        methods: &["lock"],
        level: 60,
        name: "pfs.files",
    },
    LockDecl {
        file_suffix: "crates/pfs/src/fs.rs",
        receiver: "ledger",
        methods: &["lock"],
        level: 64,
        name: "pfs.ledger",
    },
    LockDecl {
        file_suffix: "crates/pfs/src/file.rs",
        receiver: "inner",
        methods: &["lock"],
        level: 66,
        name: "pfs.file",
    },
    LockDecl {
        file_suffix: "crates/netsim/src/routing.rs",
        receiver: "shard",
        methods: &["read", "write"],
        level: 70,
        name: "netsim.routes",
    },
    LockDecl {
        file_suffix: "crates/sim/src/link.rs",
        receiver: "books",
        methods: &["lock"],
        level: 72,
        name: "sim.ledger",
    },
    LockDecl {
        file_suffix: "crates/sync/src/channel.rs",
        receiver: "state",
        methods: &["lock"],
        level: 80,
        name: "sync.channel",
    },
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

/// Identifiers that *observe* a nondeterministic fact without being
/// outright banned where they appear — the `taint` pass seeds here and
/// follows the data into deterministic crates. (Wall-clock and
/// hash-order idents also seed, in the scopes where the per-line rules
/// permit them; these are the sources with no per-line rule at all.)
pub const TAINT_SOURCE_IDENTS: &[&str] = &["ThreadId", "addr_of", "addr_of_mut"];

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

/// Per-crate interprocedural-pass baselines, keyed by the crate the
/// *finding site* lives in. Same ratchet contract as
/// [`UNWRAP_BUDGETS`], with one difference: a crate absent from a table
/// has budget **zero** (so `analyze` itself is gated clean by
/// omission). Counts are of unwaived findings.
///
/// `panicflow`'s numbers are an inventory of the audited panic surface
/// reachable from [`PANIC_ENTRY_POINTS`] — sites whose invariants are
/// argued in comments but not yet worth a waiver line each. They may
/// only fall, or rise via a reviewed edit here.
pub const LOCKFLOW_BUDGETS: &[(&str, u32)] = &[];

/// See [`LOCKFLOW_BUDGETS`].
pub const PANICFLOW_BUDGETS: &[(&str, u32)] = &[
    ("core", 3),
    ("json", 9),
    ("machines", 1),
    ("mpi", 7),
    ("netsim", 1),
    ("sim", 12),
];

/// See [`LOCKFLOW_BUDGETS`].
pub const TAINT_BUDGETS: &[(&str, u32)] = &[];

/// Budget lookup for a pass table: missing crate = 0.
pub fn pass_budget(table: &[(&str, u32)], krate: &str) -> u32 {
    table.iter().find(|(c, _)| *c == krate).map(|&(_, n)| n).unwrap_or(0)
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

/// Is `path` (workspace-relative) in wall-clock-banned scope?
pub fn wallclock_applies(path: &str) -> bool {
    if WALLCLOCK_EXEMPT_FILES.iter().any(|f| path.ends_with(f) || path == *f) {
        return false;
    }
    !WALLCLOCK_EXEMPT_CRATES.contains(&crate_of(path))
}

/// Is `path` in hash-order-banned scope?
pub fn hash_order_applies(path: &str) -> bool {
    DETERMINISTIC_CRATES.contains(&crate_of(path))
}
