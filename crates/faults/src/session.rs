//! The live side of a fault plan: one [`FaultSession`] spans every
//! world run of a benchmark execution.
//!
//! Each simulated run restarts its virtual clocks at zero, but crash
//! times and flapping windows are scheduled in *accumulated* virtual
//! time so a crash can land in the middle of pattern 7. The session
//! keeps that epoch: the driver calls [`FaultSession::advance_epoch`]
//! with each run's end time, and [`FaultSession::install`] shifts the
//! plan's windows into the next run's local time frame. Crashed ranks
//! stay crashed across runs — exactly like a real dead node.

use crate::BeffError;
use crate::plan::{FaultPlan, LinkWindow};
use beff_netsim::{Degrade, MachineNet, Secs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Injection counters, updated from inside the world. Relaxed atomics:
/// the token scheduler serializes rank execution, these only need to
/// survive the thread handoffs.
#[derive(Debug, Default)]
pub struct FaultStats {
    drops: AtomicU64,
    retransmits: AtomicU64,
}

impl FaultStats {
    pub fn drops(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }

    pub fn retransmits(&self) -> u64 {
        self.retransmits.load(Ordering::Relaxed)
    }
}

/// Shared state carrying a [`FaultPlan`] across world runs.
#[derive(Debug)]
pub struct FaultSession {
    plan: FaultPlan,
    /// Crash flags are sticky: bit `rank` set means the rank died in
    /// some earlier (or the current) run.
    crashed: Vec<AtomicU64>,
    /// Accumulated virtual time of all completed runs, stored as f64
    /// bits.
    epoch_bits: AtomicU64,
    /// Per-rank message sequence counters feeding the drop hash.
    seqs: Vec<AtomicU64>,
    pub stats: FaultStats,
}

impl FaultSession {
    pub fn new(plan: FaultPlan, ranks: usize) -> Arc<Self> {
        Arc::new(Self {
            plan,
            crashed: (0..ranks).map(|_| AtomicU64::new(0)).collect(),
            epoch_bits: AtomicU64::new(0f64.to_bits()),
            seqs: (0..ranks).map(|_| AtomicU64::new(0)).collect(),
            stats: FaultStats::default(),
        })
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Accumulated virtual time of all runs completed so far.
    pub fn epoch(&self) -> Secs {
        f64::from_bits(self.epoch_bits.load(Ordering::Relaxed))
    }

    /// Credit a completed run's duration to the epoch. Call once per
    /// world run, from the driver, with a deterministic duration.
    pub fn advance_epoch(&self, dt: Secs) {
        let now = self.epoch() + dt.max(0.0);
        self.epoch_bits.store(now.to_bits(), Ordering::Relaxed);
    }

    /// Next message sequence number for `rank` (feeds the drop hash).
    pub fn next_seq(&self, rank: usize) -> u64 {
        self.seqs[rank].fetch_add(1, Ordering::Relaxed)
    }

    pub fn is_crashed(&self, rank: usize) -> bool {
        self.crashed[rank].load(Ordering::Relaxed) != 0
    }

    pub fn crashed_ranks(&self) -> Vec<usize> {
        (0..self.crashed.len()).filter(|&r| self.is_crashed(r)).collect()
    }

    /// Check `rank` against its crash schedule at local run time `now`.
    /// Returns the typed error if the rank is already dead or just
    /// reached its crash time (marking it dead for good).
    pub fn crash_check(&self, rank: usize, now: Secs) -> Option<BeffError> {
        if self.is_crashed(rank) {
            let at = self.plan.crash_at(rank).unwrap_or(0.0);
            return Some(BeffError::RankCrashed { rank, at });
        }
        let at = self.plan.crash_at(rank)?;
        if self.epoch() + now >= at {
            self.crashed[rank].store(1, Ordering::Relaxed);
            return Some(BeffError::RankCrashed { rank, at });
        }
        None
    }

    /// Program the plan's link faults into `net` for the run that is
    /// about to start, shifting epoch-time windows into the run's local
    /// time frame. Clears any previously installed link faults first,
    /// so calling this after every `net.reset()` leaves the net exactly
    /// as the plan dictates.
    pub fn install(&self, net: &MachineNet) {
        net.ledger().clear_faults();
        let epoch = self.epoch();
        let links = net.links();
        let mut windows: Vec<Vec<Degrade>> = vec![Vec::new(); links.len()];
        for &LinkWindow { link, t0, t1, slowdown } in &self.plan.link_windows {
            if link >= links.len() || t1 <= epoch {
                continue;
            }
            windows[link].push(Degrade {
                from: (t0 - epoch).max(0.0),
                until: t1 - epoch,
                slowdown,
            });
        }
        for (l, ws) in windows.into_iter().enumerate() {
            if !ws.is_empty() {
                net.ledger().set_fault_windows(l, ws);
            }
        }
        for &l in &self.plan.dead_links {
            if l < links.len() {
                links[l].set_dead(true);
            }
        }
    }

    /// Remove every installed link fault from `net`.
    pub fn clear(net: &MachineNet) {
        net.ledger().clear_faults();
    }

    pub fn note_drop(&self) {
        self.stats.drops.fetch_add(1, Ordering::Relaxed);
    }

    pub fn note_retransmit(&self) {
        self.stats.retransmits.fetch_add(1, Ordering::Relaxed);
    }
}
