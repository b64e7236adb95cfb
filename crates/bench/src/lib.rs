//! # beff-bench
//!
//! The runners behind the `beff` command's experiments: resident
//! partitions, the quick and paper-fidelity schedules, the calibration
//! gate and the chaos sweep. Every table and figure of the paper is a
//! `beff` subcommand (`beff help` lists them; DESIGN.md §4 maps each
//! to its experiment).
//!
//! Experiments default to a scaled-down schedule that preserves the
//! shapes; `full` selects the paper-fidelity one (minutes of runtime).

pub mod calibration;
pub mod chaos;
pub mod resilient;

use beff_core::beff::{run_beff, BeffConfig};
use beff_core::beffio::{run_beff_io, BeffIoConfig, BeffIoResult};
use beff_core::BeffResult;
use beff_machines::Machine;
use beff_mpi::{Comm, Workers, World, WorldSession};
use beff_mpiio::IoWorld;
use beff_netsim::MachineNet;
use beff_pfs::Pfs;
use beff_sim::SimScheduler;
use std::sync::Arc;

/// A resident simulated partition: one machine network plus one
/// [`WorldSession`] over its first `procs` processors, reused across
/// any number of benchmark runs.
///
/// Sweeps that probe the same partition repeatedly (scaling figures,
/// ablation pairs) pay the world spawn once. Between runs the link
/// occupancy is reset (measurements start from an idle network) while
/// the memoized route table — topology-derived, so run-independent —
/// is kept warm. Results are bit-identical to
/// fresh-world runs; a test in `tests/` pins that.
pub struct PartitionRunner {
    machine: Machine,
    net: Arc<MachineNet>,
    procs: usize,
    session: WorldSession,
}

impl PartitionRunner {
    pub fn new(machine: &Machine, procs: usize) -> Self {
        let net = machine.network();
        let session = World::sim_partition(Arc::clone(&net), procs).session();
        Self { machine: machine.clone(), net, procs, session }
    }

    /// Partition size (ranks).
    pub fn procs(&self) -> usize {
        self.procs
    }

    /// Run the full b_eff schedule on the resident partition.
    pub fn beff(&self, cfg: &BeffConfig) -> BeffResult {
        self.net.reset();
        let cfg = cfg.clone();
        let mut results = self.session.run(move |c| run_beff(c, &cfg));
        results.swap_remove(0)
    }

    /// Run several independent b_eff schedules batch-parallel, one
    /// machine replica per job on up to `workers` threads (see
    /// [`World::run_batch`]). Byte-identical to calling
    /// [`beff`](Self::beff) serially per config, at every worker count
    /// — a replica is indistinguishable from the shared net after the
    /// reset that `beff` performs.
    pub fn beff_batch(&self, workers: Workers, cfgs: &[BeffConfig]) -> Vec<BeffResult> {
        let world = World::sim_partition(Arc::clone(&self.net), self.procs);
        let per_job = world.run_batch(workers, cfgs.len(), |job, c| run_beff(c, &cfgs[job]));
        per_job.into_iter().map(|mut ranks| ranks.swap_remove(0)).collect()
    }

    /// Run the full b_eff_io schedule on the resident partition, with a
    /// fresh filesystem (b_eff_io semantics: every run starts cold).
    pub fn beffio(&self, cfg: &BeffIoConfig) -> BeffIoResult {
        self.net.reset();
        let pfs = self
            .machine
            .filesystem()
            .unwrap_or_else(|| panic!("{} has no I/O model", self.machine.key));
        let io = IoWorld::sim(pfs);
        let mut results = run_on_fs(&self.session, io.pfs(), |c| run_beff_io(c, &io, cfg));
        results.swap_remove(0)
    }
}

/// Run `f` on every rank of `session` while the world holds `pfs` for
/// the run where its ranks share this thread
/// ([`SimScheduler::claim_for_run`]), as it holds its link ledger: every
/// filesystem call of the run then takes no atomic lock. The claim
/// drops when the run ends, by unwinding too.
fn run_on_fs<R, F>(session: &WorldSession, pfs: &Pfs, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut Comm) -> R + Sync,
{
    let _fs = SimScheduler::claim_for_run(|| pfs.claim());
    session.run(f)
}

/// Run b_eff on the first `procs` processors of a machine model
/// (one-shot; sweeps should hold a [`PartitionRunner`] instead).
pub fn run_beff_on(machine: &Machine, procs: usize, cfg: &BeffConfig) -> BeffResult {
    PartitionRunner::new(machine, procs).beff(cfg)
}

/// Run b_eff_io on a partition of a machine model (one-shot, fresh
/// filesystem; sweeps should hold a [`PartitionRunner`] instead).
pub fn run_beffio_on(machine: &Machine, procs: usize, cfg: &BeffIoConfig) -> BeffIoResult {
    PartitionRunner::new(machine, procs).beffio(cfg)
}

/// The b_eff schedule: paper fidelity when `full`, quick otherwise.
pub fn beff_cfg(machine: &Machine, full: bool) -> BeffConfig {
    if full {
        BeffConfig::paper(machine.mem_per_proc)
    } else {
        BeffConfig::quick(machine.mem_per_proc)
    }
}

/// The b_eff_io schedule: paper fidelity when `full`, quick otherwise.
pub fn beffio_cfg(machine: &Machine, full: bool) -> BeffIoConfig {
    if full {
        BeffIoConfig::paper(machine.mem_per_node)
    } else {
        // a scaled-down T: same pattern table, seconds instead of
        // minutes of virtual time
        BeffIoConfig::quick(machine.mem_per_node).with_t(30.0)
    }
}

/// Format "measured (paper X)" comparison cells.
pub fn vs(measured: f64, paper: f64) -> String {
    format!("{measured:>8.0} ({paper:>6.0})")
}

#[cfg(test)]
mod tests {
    use super::*;
    use beff_netsim::{NetParams, Topology};
    use beff_pfs::{DataRef, PfsConfig};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A b_eff_io world holds its filesystem for the run; a run that
    /// ends in a rank panic must still let it go, so another thread can
    /// do I/O on it afterwards.
    #[test]
    fn the_filesystem_claim_is_released_when_a_rank_panics() {
        let net = Arc::new(MachineNet::new(Topology::Crossbar { procs: 3 }, NetParams::default()));
        let session = World::sim(net).session();
        let pfs = Arc::new(Pfs::new(PfsConfig { clients: 3, ..PfsConfig::default() }));
        let r = catch_unwind(AssertUnwindSafe(|| {
            run_on_fs(&session, &pfs, |c| {
                let (f, t) = pfs.open("f", c.now());
                c.advance_to(pfs.write(c.rank(), &f, 0, DataRef::Len(64), t));
                if c.rank() == 1 {
                    panic!("injected failure");
                }
                // the peers block on the dead rank
                c.barrier();
            })
        }));
        assert!(r.is_err());
        let (tx, rx) = std::sync::mpsc::channel();
        let writer = std::thread::spawn({
            let pfs = Arc::clone(&pfs);
            move || {
                let (f, t) = pfs.open("g", 0.0);
                tx.send(pfs.write(0, &f, 0, DataRef::Len(64), t))
            }
        });
        let wrote = rx.recv_timeout(std::time::Duration::from_secs(60));
        assert!(wrote.is_ok(), "I/O on another thread still waits for the finished world");
        assert!(writer.join().is_ok_and(|sent| sent.is_ok()));
    }
}
