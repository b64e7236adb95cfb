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
use beff_mpi::{Workers, World, WorldSession};
use beff_mpiio::IoWorld;
use beff_netsim::MachineNet;
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
        let cfg = cfg.clone();
        let mut results = self.session.run(move |c| run_beff_io(c, &io, &cfg));
        results.swap_remove(0)
    }
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
