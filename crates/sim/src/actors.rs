//! A minimal actor runtime over the token scheduler.
//!
//! [`try_run_actors`] runs `n` closures ("actors") under a
//! [`SimScheduler`]: exactly one actor executes at a time, the token
//! rotating in deterministic FIFO order, so a fixed program replays
//! bit-identically. This is the substrate entry point for workloads
//! that do not want the MPI world machinery (mailbox wiring, network
//! pricing, collectives) — e.g. the PFS storage sweep, which drives
//! the filesystem simulator directly from client actors.
//!
//! Fault protocol: a typed [`BeffError`] raised by an actor (via
//! [`BeffError::raise`]) is an *isolated* early exit — the actor's
//! token is handed on and the survivors keep their deterministic
//! order, so post-fault results still replay byte-identically. Any
//! other panic is a bug in the workload: the world aborts and the
//! panic propagates to the caller.
//!
//! Actors that run long compute-free stretches should call
//! [`ActorCtx::yield_turn`] at natural checkpoints to interleave with
//! their peers; without it each actor runs to completion before the
//! next starts (still deterministic, just coarse).

use crate::error::BeffError;
use crate::fiber::FiberStack;
use crate::sched::SimScheduler;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Identity of one actor in a [`try_run_actors`] world: dense indices
/// `0..n`, the substrate-level generalization of an MPI rank.
pub type ActorId = usize;

/// Per-actor handle passed to the actor closure.
pub struct ActorCtx<'a> {
    id: ActorId,
    sched: &'a SimScheduler,
}

impl ActorCtx<'_> {
    /// This actor's id (`0..n`).
    pub fn id(&self) -> ActorId {
        self.id
    }

    /// Cooperatively rotate the token: every currently ready peer runs
    /// before this actor continues. No-op when no peer is ready.
    pub fn yield_turn(&self) {
        self.sched.yield_turn(self.id);
    }
}

/// How one actor's fiber body ended.
enum Outcome<R> {
    Done(R),
    Fault(BeffError),
    Bug(Box<dyn Any + Send>),
}

/// Run one actor's closure inside its fiber and classify the exit. A
/// typed fault is an isolated early exit — the fiber just finishes and
/// the survivors keep their deterministic order. Anything else is a
/// bug: `abort_world` runs before the fiber's final switch so the drive
/// loop unwinds the peers.
fn run_actor<R>(f: impl FnOnce() -> R, abort_world: impl FnOnce()) -> Outcome<R> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => Outcome::Done(v),
        Err(payload) => match payload.downcast::<BeffError>() {
            Ok(e) => Outcome::Fault(*e),
            Err(payload) => {
                abort_world();
                Outcome::Bug(payload)
            }
        },
    }
}

/// Turn id-ordered outcomes into results, propagating the first bug
/// panic.
fn settle<R>(mut outcomes: Vec<Outcome<R>>) -> Vec<Result<R, BeffError>> {
    if let Some(bug) = outcomes.iter().position(|o| matches!(o, Outcome::Bug(_))) {
        let Outcome::Bug(payload) = outcomes.swap_remove(bug) else { unreachable!() };
        resume_unwind(payload);
    }
    outcomes
        .into_iter()
        .map(|o| match o {
            Outcome::Done(v) => Ok(v),
            Outcome::Fault(e) => Err(e),
            Outcome::Bug(_) => unreachable!("bug outcomes already propagated"),
        })
        .collect()
}

/// Run `n` actors to completion under the token scheduler, returning
/// each actor's result in id order. Typed faults ([`BeffError`])
/// become `Err` entries; any other panic aborts the world and
/// propagates. See the module docs for the determinism contract.
pub fn try_run_actors<R, F>(n: usize, f: F) -> Vec<Result<R, BeffError>>
where
    R: Send,
    F: Fn(ActorCtx<'_>) -> R + Sync,
{
    assert!(n > 0, "actor world needs at least one actor");
    crate::error::silence_fault_panics();
    let sched = &SimScheduler::new(n);
    settle(sched.launch(&FiberStack::set(n), |id| run_actor(|| f(ActorCtx { id, sched }), || sched.abort())))
}

/// [`try_run_actors`] for workloads that expect every actor to
/// succeed: panics on the first typed fault instead of returning it.
pub fn run_actors<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(ActorCtx<'_>) -> R + Sync,
{
    try_run_actors(n, f)
        .into_iter()
        .enumerate()
        .map(|(id, r)| match r {
            Ok(v) => v,
            Err(e) => panic!("actor {id} faulted: {e}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn actors_run_in_id_order_without_yields() {
        let order = Mutex::new(Vec::new());
        run_actors(4, |ctx| order.lock().unwrap().push(ctx.id()));
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn yield_turn_interleaves_round_robin() {
        let order = Mutex::new(Vec::new());
        run_actors(3, |ctx| {
            for step in 0..3 {
                order.lock().unwrap().push((ctx.id(), step));
                ctx.yield_turn();
            }
        });
        // Perfect rotation: all actors do step 0, then step 1, ...
        let want: Vec<_> =
            (0..3).flat_map(|s| (0..3).map(move |id| (id, s))).collect();
        assert_eq!(*order.lock().unwrap(), want);
    }

    #[test]
    fn yield_turn_with_single_actor_is_noop() {
        let out = run_actors(1, |ctx| {
            ctx.yield_turn();
            ctx.id() + 41
        });
        assert_eq!(out, vec![41]);
    }

    #[test]
    fn typed_fault_is_isolated_and_survivors_finish() {
        let results = try_run_actors(4, |ctx| {
            if ctx.id() == 2 {
                BeffError::RankCrashed { rank: 2, at: 0.5 }.raise();
            }
            ctx.yield_turn();
            ctx.id() * 10
        });
        assert_eq!(results[0], Ok(0));
        assert_eq!(results[1], Ok(10));
        assert!(matches!(results[2], Err(BeffError::RankCrashed { rank: 2, .. })));
        assert_eq!(results[3], Ok(30));
    }

    #[test]
    fn results_are_bit_deterministic_across_runs() {
        let run = || {
            try_run_actors(5, |ctx| {
                let mut acc = ctx.id() as f64;
                for i in 0..50 {
                    acc += (i as f64) * 1e-3 / (1.0 + ctx.id() as f64);
                    if i % 7 == 0 {
                        ctx.yield_turn();
                    }
                }
                if ctx.id() == 3 {
                    BeffError::PeerFailed.raise();
                }
                acc.to_bits()
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn untyped_panic_propagates_to_caller() {
        let counted = AtomicUsize::new(0);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            try_run_actors(3, |ctx| {
                counted.fetch_add(1, Ordering::Relaxed);
                if ctx.id() == 1 {
                    panic!("workload bug");
                }
            })
        }));
        let payload = r.expect_err("bug panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "workload bug");
    }
}
