//! Typed failure values for the simulated world.
//!
//! The benchmark kernels use MPI-shaped signatures (`send`/`recv`
//! return payloads, not `Result`s), so a fault that fires deep inside a
//! rank's closure cannot thread an error back through the call chain.
//! Instead faults *raise*: [`BeffError::raise`] panics with the error
//! as a typed payload (`std::panic::panic_any`), the runtime's
//! `catch_unwind` boundary catches it, and `World::try_run` /
//! `WorldSession::try_run` downcast it back into a value the driver can
//! match on. String panics remain reserved for true invariant
//! violations (fiber stack overflow, mailbox protocol bugs): those still
//! propagate as panics and abort the run loudly.

use std::fmt;

/// Everything that can take down a rank or a whole pattern run.
#[derive(Debug, Clone, PartialEq)]
pub enum BeffError {
    /// The rank reached its scheduled crash time and died. Permanent:
    /// the rank stays dead for the rest of the benchmark execution.
    RankCrashed { rank: usize, at: f64 },
    /// Every retransmit attempt found a permanently dead link on the
    /// route. Permanent: the link never comes back.
    LinkDead { src: usize, dst: usize, attempts: u32 },
    /// Transient drops ate the whole retransmit budget. Retryable: a
    /// fresh attempt draws fresh sequence numbers.
    RetransmitExhausted { src: usize, dst: usize, attempts: u32 },
    /// Every live rank was blocked in recv — the program deadlocked.
    /// Permanent: replaying the same program deadlocks again.
    Deadlock,
    /// A peer rank died and poisoned the world (the `MPI_Abort`
    /// analogue). Permanent: the root cause does not go away.
    PeerFailed,
    /// A driver-side watchdog deadline expired.
    Watchdog { pattern: String, budget: f64, observed: f64 },
    /// An I/O layer failure.
    Io(String),
}

impl fmt::Display for BeffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::RankCrashed { rank, at } => {
                write!(f, "rank {rank} crashed at t={at:.6}s")
            }
            Self::LinkDead { src, dst, attempts } => {
                write!(f, "route {src}->{dst} dead after {attempts} attempts")
            }
            Self::RetransmitExhausted { src, dst, attempts } => {
                write!(f, "retransmit budget exhausted on {src}->{dst} after {attempts} attempts")
            }
            Self::Deadlock => write!(f, "deadlock: every live rank blocked in recv"),
            Self::PeerFailed => write!(f, "peer rank failed; world poisoned"),
            Self::Watchdog { pattern, budget, observed } => {
                write!(f, "watchdog: pattern {pattern} point took {observed:.4}s (budget {budget:.4}s)")
            }
            Self::Io(msg) => write!(f, "io: {msg}"),
        }
    }
}

impl std::error::Error for BeffError {}

impl BeffError {
    /// Faults no per-pattern retry can clear: the underlying cause
    /// persists for the rest of the benchmark execution, so the driver
    /// should mark the pattern failed immediately instead of burning
    /// retries.
    pub fn is_permanent(&self) -> bool {
        matches!(
            self,
            Self::RankCrashed { .. } | Self::LinkDead { .. } | Self::Deadlock | Self::PeerFailed
        )
    }

    /// Raise this error as a typed panic payload for `try_run` to
    /// catch. Diverges.
    pub fn raise(self) -> ! {
        std::panic::panic_any(self)
    }
}

/// Install (once, process-wide) a panic hook that keeps typed fault
/// raises silent: a [`BeffError`] unwinding to the runtime's
/// `catch_unwind` boundary is routine control flow under fault
/// injection, and the default hook's "thread panicked" report would
/// drown a chaos sweep in backtraces. Every other panic payload still
/// goes through the previously installed hook, loudly.
pub fn silence_fault_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<BeffError>().is_none() {
                prev(info);
            }
        }));
    });
}
