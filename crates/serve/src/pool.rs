//! The session pool: resident simulated partitions, checked out per
//! job, returned for reuse — and **quarantined** when damaged.
//!
//! A cold [`WorldSession`] spawn prices topology construction and
//! route-table warmup; a server answering thousands of queries per
//! partition shape must pay that once, not per query. The pool keeps
//! idle partitions keyed by `(machine, procs)`; checkout pops one (or
//! builds a fresh one when none is idle — under `map_ordered` fan-out
//! each concurrent miss gets its own), and check-in returns it.
//!
//! Every pooled partition owns a **private** network instance, so two
//! checkouts of the same shape can run on two worker threads without
//! sharing link state; [`Partition::run`] resets that network before
//! each run (measurements start from an idle machine), which is what
//! makes a pooled run bit-identical to a cold one — pinned by the
//! end-to-end recompute audit.
//!
//! ## Quarantine
//!
//! A run that exits through a typed [`BeffError`] may leave anything
//! behind it — link fault state on the private net, half-consumed
//! reservations — in an unknown condition. Rather than reason about
//! which damage `net.reset()` can undo, the pool refuses to: the
//! server [`quarantine`](SessionPool::quarantine)s the partition (it is
//! dropped, never re-checked-out) and the next checkout of that shape
//! builds a cold replacement. The `quarantined` counter is surfaced
//! through the `stats` op; post-quarantine results are pinned
//! bit-identical to cold runs (DESIGN.md §12).
//!
//! The quarantine path is exercised deterministically: the torture
//! harness [`arm_poison`](SessionPool::arm_poison)s a shape, and the
//! server's next clean run of that shape executes under
//! `FaultPlan::instant_crash` — a world poisoned on purpose, raising
//! the same typed fault an organically damaged world would.
//!
//! Faulted jobs never touch the pool: a fault session is stateful
//! across runs (crash times live on one accumulated timeline), so the
//! server gives those jobs fresh single-use worlds instead.

use crate::spec::JobSpec;
use beff_core::beff::{run_beff, BeffConfig, BeffResult};
use beff_faults::{FaultPlan, FaultSession};
use beff_machines::Machine;
use beff_mpi::{World, WorldSession};
use beff_netsim::MachineNet;
use beff_sim::BeffError;
use beff_sync::{order::Rank, Mutex};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Lock level 16 (`serve.pool`): above `serve.cache`, below every
/// simulation-substrate lock (DESIGN.md §8). Held only around the
/// idle-map push/pop and poison bookkeeping, never across a world run.
static POOL_RANK: Rank = Rank::new(16, "serve.pool");

/// One resident simulated partition: sized machine model, private
/// network, resident world session.
pub struct Partition {
    shape: String,
    machine: Machine,
    net: Arc<MachineNet>,
    session: WorldSession,
}

impl Partition {
    /// Build a cold partition for an already-sized machine model.
    fn cold(machine: Machine, procs: usize) -> Self {
        let net = machine.network();
        let session = World::sim_partition(Arc::clone(&net), procs).session();
        Self { shape: shape_key(machine.key, procs), machine, net, session }
    }

    /// The sized machine model this partition simulates.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Run one b_eff schedule from an idle network. Panics if the run
    /// raises a typed fault — callers on the serving path use
    /// [`try_run`](Self::try_run) instead.
    pub fn run(&self, cfg: &BeffConfig) -> BeffResult {
        match self.try_run(cfg) {
            Ok(r) => r,
            Err(e) => panic!("pooled run raised a typed fault: {e}"),
        }
    }

    /// Run one b_eff schedule from an idle network, returning a typed
    /// [`BeffError`] as a value when the world fails instead of
    /// unwinding through the pool (which would take the daemon down).
    pub fn try_run(&self, cfg: &BeffConfig) -> Result<BeffResult, BeffError> {
        self.net.reset();
        let cfg = cfg.clone();
        let mut results = self.session.try_run(move |c| run_beff(c, &cfg))?;
        Ok(results.swap_remove(0))
    }

    /// Run under [`FaultPlan::instant_crash`]: the deterministic world
    /// poison. Always returns a typed error (rank 0 dies at t=0); the
    /// partition must be treated as damaged afterwards — this is the
    /// torture harness's way of manufacturing exactly the state the
    /// quarantine path exists to contain.
    pub fn poisoned_run(&self, cfg: &BeffConfig) -> Result<BeffResult, BeffError> {
        self.net.reset();
        let session = FaultSession::new(FaultPlan::instant_crash(0), self.session.size());
        let cfg = cfg.clone();
        let mut results =
            self.session.world().with_faults(session).try_run(move |c| run_beff(c, &cfg))?;
        Ok(results.swap_remove(0))
    }
}

/// Idle partitions keyed by shape, plus armed poisons and lifetime
/// counters (observability: `created() - idle_count()` partitions are
/// currently checked out or quarantined).
pub struct SessionPool {
    state: Mutex<PoolState>,
    created: AtomicUsize,
    quarantined: AtomicU64,
}

struct PoolState {
    idle: BTreeMap<String, Vec<Partition>>,
    /// Shape → number of pending one-shot poisons ([`arm_poison`]
    /// (SessionPool::arm_poison)).
    poisons: BTreeMap<String, usize>,
}

fn shape_key(machine: &str, procs: usize) -> String {
    format!("{machine}/{procs}")
}

impl Default for SessionPool {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionPool {
    pub fn new() -> Self {
        Self {
            state: Mutex::ranked(
                &POOL_RANK,
                PoolState { idle: BTreeMap::new(), poisons: BTreeMap::new() },
            ),
            created: AtomicUsize::new(0),
            quarantined: AtomicU64::new(0),
        }
    }

    /// Check a partition for `spec`'s shape out of the pool, building a
    /// cold one if no idle partition matches. The caller must have
    /// validated the spec ([`JobSpec::resolve`]) — this takes the sized
    /// machine it returned.
    pub fn checkout(&self, spec: &JobSpec, sized: &Machine) -> Partition {
        let key = shape_key(&spec.machine, spec.procs);
        if let Some(p) = self.state.lock().idle.get_mut(&key).and_then(Vec::pop) {
            return p;
        }
        self.created.fetch_add(1, Ordering::Relaxed);
        Partition::cold(sized.clone(), spec.procs)
    }

    /// Return a healthy partition for reuse.
    pub fn checkin(&self, partition: Partition) {
        self.state.lock().idle.entry(partition.shape.clone()).or_default().push(partition);
    }

    /// Retire a damaged partition: it is dropped here, never
    /// re-checked-out, and the next checkout of its shape builds a
    /// cold replacement. Counted, so `stats` can surface how often the
    /// self-healing path fired.
    pub fn quarantine(&self, partition: Partition) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        drop(partition);
    }

    /// Arm `runs` one-shot poisons for a shape: the server's next
    /// `runs` clean executions of that shape run under
    /// [`Partition::poisoned_run`] and fail typed. Torture-harness
    /// surface, same philosophy as PR 4's fault plans — injected
    /// failures are first-class, seeded, and deterministic.
    pub fn arm_poison(&self, machine: &str, procs: usize, runs: usize) {
        if runs == 0 {
            return;
        }
        *self.state.lock().poisons.entry(shape_key(machine, procs)).or_insert(0) += runs;
    }

    /// Consume one armed poison for a shape, if any.
    pub fn take_poison(&self, machine: &str, procs: usize) -> bool {
        let mut state = self.state.lock();
        let key = shape_key(machine, procs);
        match state.poisons.get_mut(&key) {
            Some(n) if *n > 0 => {
                *n -= 1;
                if *n == 0 {
                    state.poisons.remove(&key);
                }
                true
            }
            _ => false,
        }
    }

    /// Partitions built over the pool's lifetime.
    pub fn created(&self) -> usize {
        self.created.load(Ordering::Relaxed)
    }

    /// Partitions currently idle in the pool.
    pub fn idle_count(&self) -> usize {
        self.state.lock().idle.values().map(Vec::len).sum()
    }

    /// Partitions quarantined over the pool's lifetime (monotone).
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_reuses_checked_in_partitions() {
        let pool = SessionPool::new();
        let spec = JobSpec::new("t3e", 4);
        let sized = spec.resolve().expect("valid spec");
        let p = pool.checkout(&spec, &sized);
        assert_eq!(pool.created(), 1);
        pool.checkin(p);
        assert_eq!(pool.idle_count(), 1);
        let _again = pool.checkout(&spec, &sized);
        assert_eq!(pool.created(), 1, "idle partition reused, not rebuilt");
        assert_eq!(pool.idle_count(), 0);
    }

    #[test]
    fn distinct_shapes_pool_separately() {
        let pool = SessionPool::new();
        let small = JobSpec::new("t3e", 4);
        let large = JobSpec::new("t3e", 8);
        let p4 = pool.checkout(&small, &small.resolve().expect("valid"));
        pool.checkin(p4);
        let _p8 = pool.checkout(&large, &large.resolve().expect("valid"));
        assert_eq!(pool.created(), 2, "8-rank job cannot reuse a 4-rank partition");
        assert_eq!(pool.idle_count(), 1);
    }

    #[test]
    fn pooled_run_is_bit_identical_to_cold_run() {
        let spec = JobSpec::new("t3e", 4).with_seed(11);
        let sized = spec.resolve().expect("valid spec");
        let cfg = spec.beff_config(&sized);
        let pool = SessionPool::new();
        let p = pool.checkout(&spec, &sized);
        let warm1 = beff_json::to_string(&p.run(&cfg));
        let warm2 = beff_json::to_string(&p.run(&cfg));
        pool.checkin(p);
        let cold = beff_json::to_string(&Partition::cold(sized.clone(), 4).run(&cfg));
        assert_eq!(warm1, warm2, "session reuse must not leak state between runs");
        assert_eq!(warm1, cold, "pooled and cold runs must agree byte-for-byte");
    }

    #[test]
    fn poisoned_run_raises_typed_and_quarantine_counts() {
        let spec = JobSpec::new("t3e", 4).with_seed(11);
        let sized = spec.resolve().expect("valid spec");
        let cfg = spec.beff_config(&sized);
        let pool = SessionPool::new();
        let p = pool.checkout(&spec, &sized);
        let err = p.poisoned_run(&cfg).expect_err("the poison always fires");
        assert!(
            matches!(err, BeffError::RankCrashed { .. } | BeffError::PeerFailed),
            "typed crash fault, got {err:?}"
        );
        pool.quarantine(p);
        assert_eq!(pool.quarantined(), 1);
        assert_eq!(pool.idle_count(), 0, "quarantined partitions never return");

        // The shape rebuilds cold on next demand and runs clean,
        // byte-identical to a never-poisoned partition.
        let fresh = pool.checkout(&spec, &sized);
        assert_eq!(pool.created(), 2);
        let after = beff_json::to_string(&fresh.try_run(&cfg).expect("fresh world is clean"));
        let cold = beff_json::to_string(&Partition::cold(sized.clone(), 4).run(&cfg));
        assert_eq!(after, cold, "post-quarantine runs must match cold runs");
    }

    #[test]
    fn armed_poisons_are_one_shot_and_shape_keyed() {
        let pool = SessionPool::new();
        pool.arm_poison("t3e", 4, 2);
        assert!(!pool.take_poison("t3e", 8), "different shape is unarmed");
        assert!(pool.take_poison("t3e", 4));
        assert!(pool.take_poison("t3e", 4));
        assert!(!pool.take_poison("t3e", 4), "poisons are consumed");
    }
}
