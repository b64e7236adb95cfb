//! Calibration of the machine-model constants against the paper.
//!
//! The paper's Table 1 rows, Fig. 1 balance factors and the per-machine
//! ping-pong / L_max targets form a machine-readable target set
//! ([`targets`]). [`check`] replays every row on the current catalog
//! constants and reports per-metric residuals plus the paper's
//! qualitative *shape* claims (placement effect, SX-4 per-proc fall,
//! L_max); [`fit_group`] runs a coordinate descent over a machine
//! group's [`NetParams`] to minimize the log-residuals.
//!
//! The residual gate: every **averaged** metric (b_eff, b_eff/proc,
//! ping-pong where the paper prints one, ring/proc at L_max) must lie
//! within ±`tolerance` (default 25 %) of the paper value, and every
//! shape claim must hold exactly. `scripts/verify.sh` enforces this via
//! `calibrate -- --check`.

use crate::run_beff_on;
use beff_core::beff::BeffConfig;
use beff_core::BeffResult;
use beff_json::{Json, ToJson};
use beff_machines::{by_key, table1_paper, Table1Row};
use beff_netsim::{NetParams, MB};

/// The residual gate's default tolerance: ±25 % around the paper value.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// The calibration target set: the paper's Table 1 (which also carries
/// the ping-pong and L_max columns; the Fig. 1 balance factor is
/// `beff / rmax` and therefore gated through `beff`).
pub fn targets() -> Vec<Table1Row> {
    table1_paper()
}

/// One measured-vs-paper comparison.
#[derive(Debug, Clone)]
pub struct MetricResidual {
    pub metric: &'static str,
    pub measured: f64,
    pub paper: f64,
    /// Gated metrics must pass the tolerance; non-gated ones are
    /// reported for information (the paper's "at L_max" columns are
    /// snapshots of a single size, noisier than the averaged metrics).
    pub gated: bool,
}

impl MetricResidual {
    /// measured / paper.
    pub fn ratio(&self) -> f64 {
        self.measured / self.paper
    }

    pub fn within(&self, tolerance: f64) -> bool {
        let rel = (self.measured - self.paper).abs() / self.paper;
        rel <= tolerance
    }
}

impl ToJson for MetricResidual {
    fn to_json(&self) -> Json {
        Json::object()
            .field("metric", self.metric)
            .field("measured", &self.measured)
            .field("paper", &self.paper)
            .field("ratio", &self.ratio())
            .field("gated", &self.gated)
            .build()
    }
}

/// All residuals of one Table 1 row.
#[derive(Debug, Clone)]
pub struct RowReport {
    pub machine_key: &'static str,
    pub procs: usize,
    pub lmax_mb_measured: u64,
    pub lmax_mb_paper: u64,
    pub metrics: Vec<MetricResidual>,
}

impl RowReport {
    pub fn pass(&self, tolerance: f64) -> bool {
        self.lmax_mb_measured == self.lmax_mb_paper
            && self.metrics.iter().filter(|m| m.gated).all(|m| m.within(tolerance))
    }
}

impl ToJson for RowReport {
    fn to_json(&self) -> Json {
        Json::object()
            .field("machine_key", self.machine_key)
            .field("procs", &self.procs)
            .field("lmax_mb_measured", &self.lmax_mb_measured)
            .field("lmax_mb_paper", &self.lmax_mb_paper)
            .field("metrics", &self.metrics)
            .build()
    }
}

/// One qualitative claim of the paper that must hold exactly.
#[derive(Debug, Clone)]
pub struct ShapeClaim {
    pub name: &'static str,
    pub detail: String,
    pub pass: bool,
}

impl ToJson for ShapeClaim {
    fn to_json(&self) -> Json {
        Json::object()
            .field("name", self.name)
            .field("detail", self.detail.as_str())
            .field("pass", &self.pass)
            .build()
    }
}

/// The full calibration report (written to `results/calibration.json`).
#[derive(Debug, Clone)]
pub struct CalibrationReport {
    pub tolerance: f64,
    pub rows: Vec<RowReport>,
    pub shapes: Vec<ShapeClaim>,
}

impl CalibrationReport {
    pub fn pass(&self) -> bool {
        self.rows.iter().all(|r| r.pass(self.tolerance)) && self.shapes.iter().all(|s| s.pass)
    }

    /// Count of gated metric breaches.
    pub fn breaches(&self) -> usize {
        self.rows
            .iter()
            .flat_map(|r| r.metrics.iter())
            .filter(|m| m.gated && !m.within(self.tolerance))
            .count()
            + self.rows.iter().filter(|r| r.lmax_mb_measured != r.lmax_mb_paper).count()
            + self.shapes.iter().filter(|s| !s.pass).count()
    }
}

impl ToJson for CalibrationReport {
    fn to_json(&self) -> Json {
        let constants: Vec<Json> = beff_machines::catalog()
            .iter()
            .map(|m| {
                Json::object()
                    .field("machine_key", m.key)
                    .field("net", &m.net)
                    .build()
            })
            .collect();
        Json::object()
            .field("schema", "beff-calibration/1")
            .field("tolerance", &self.tolerance)
            .field("pass", &self.pass())
            .field("breaches", &self.breaches())
            .field("rows", &self.rows)
            .field("shapes", &self.shapes)
            .raw("constants", Json::array(constants.iter()))
            .build()
    }
}

/// Run the quick b_eff schedule for one target row, optionally with the
/// machine's network constants overridden (the fitter's evaluation
/// path; `None` uses the catalog constants).
pub fn measure(key: &str, procs: usize, net: Option<&NetParams>) -> BeffResult {
    let mut machine = by_key(key).expect("calibration target in catalog");
    if let Some(p) = net {
        machine.net = p.clone();
    }
    let machine = machine.sized_for(procs);
    let cfg = BeffConfig::quick(machine.mem_per_proc);
    run_beff_on(&machine, procs, &cfg)
}

fn row_report(row: &Table1Row, r: &BeffResult) -> RowReport {
    let mut metrics = vec![
        MetricResidual { metric: "beff", measured: r.beff, paper: row.beff, gated: true },
        MetricResidual {
            metric: "beff_per_proc",
            measured: r.beff_per_proc,
            paper: row.beff_per_proc,
            gated: true,
        },
        MetricResidual {
            metric: "ring_per_proc_at_lmax",
            measured: r.ring_per_proc_at_lmax,
            paper: row.ring_per_proc_at_lmax,
            gated: true,
        },
        MetricResidual {
            metric: "beff_at_lmax",
            measured: r.beff_at_lmax,
            paper: row.beff_at_lmax,
            gated: false,
        },
        MetricResidual {
            metric: "per_proc_at_lmax",
            measured: r.beff_at_lmax / row.procs as f64,
            paper: row.per_proc_at_lmax,
            gated: false,
        },
    ];
    if let Some(pp) = row.pingpong {
        metrics.push(MetricResidual {
            metric: "pingpong",
            measured: r.pingpong_mbps,
            paper: pp,
            gated: true,
        });
    }
    RowReport {
        machine_key: row.machine_key,
        procs: row.procs,
        lmax_mb_measured: r.lmax / MB,
        lmax_mb_paper: row.lmax_mb,
        metrics,
    }
}

fn find<'a>(
    rows: &'a [(Table1Row, BeffResult)],
    key: &str,
    procs: usize,
) -> &'a (Table1Row, BeffResult) {
    rows.iter()
        .find(|(t, _)| t.machine_key == key && t.procs == procs)
        .expect("shape claim row measured")
}

fn shape_claims(rows: &[(Table1Row, BeffResult)]) -> Vec<ShapeClaim> {
    let rr = &find(rows, "sr8000-rr", 24).1;
    let seq = &find(rows, "sr8000-seq", 24).1;
    let sx4_4 = &find(rows, "sx4", 4).1;
    let sx4_16 = &find(rows, "sx4", 16).1;
    vec![
        ShapeClaim {
            name: "sr8000_placement_ring",
            detail: format!(
                "sequential ring/proc at L_max {:.0} > round-robin {:.0} (the paper's \
                 headline placement effect)",
                seq.ring_per_proc_at_lmax, rr.ring_per_proc_at_lmax
            ),
            pass: seq.ring_per_proc_at_lmax > rr.ring_per_proc_at_lmax,
        },
        ShapeClaim {
            name: "sr8000_placement_beff",
            detail: format!(
                "sequential b_eff {:.0} > round-robin {:.0} at 24 procs",
                seq.beff, rr.beff
            ),
            pass: seq.beff > rr.beff,
        },
        ShapeClaim {
            name: "sx4_per_proc_falls",
            detail: format!(
                "SX-4 b_eff/proc falls with partition size: {:.0} at 16 < {:.0} at 4 \
                 (shared-memory-port contention)",
                sx4_16.beff_per_proc, sx4_4.beff_per_proc
            ),
            pass: sx4_16.beff_per_proc < sx4_4.beff_per_proc,
        },
    ]
}

/// Replay every target row on the current catalog constants and build
/// the calibration report.
///
/// Rows fan out over the `BEFF_WORKERS` pool: each measurement builds
/// its own machine model from catalog constants and shares nothing
/// with its siblings, so the report is byte-identical at every worker
/// count (the `parallel-parity` gate in `scripts/verify.sh` pins this
/// against the golden).
pub fn check(tolerance: f64) -> CalibrationReport {
    let measured: Vec<(Table1Row, BeffResult)> =
        beff_sim::map_ordered(beff_sim::Workers::from_env(), targets(), |_, row| {
            let r = measure(row.machine_key, row.procs, None);
            eprintln!("calibrate: measured {} x{}", row.machine_key, row.procs);
            (row, r)
        });
    let rows = measured.iter().map(|(t, r)| row_report(t, r)).collect();
    let shapes = shape_claims(&measured);
    CalibrationReport { tolerance, rows, shapes }
}

// ---------------------------------------------------------------------
// Fitting
// ---------------------------------------------------------------------

/// A tunable scalar of [`NetParams`] (multiplicative coordinate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knob {
    OSend,
    PortMbps,
    NodeMemMbps,
    HopMbps,
    NicMbps,
    NicLatency,
    BackplaneMbps,
    Contention,
}

impl Knob {
    pub fn name(self) -> &'static str {
        match self {
            Knob::OSend => "o_send",
            Knob::PortMbps => "port.mbps",
            Knob::NodeMemMbps => "node_mem.mbps",
            Knob::HopMbps => "hop.mbps",
            Knob::NicMbps => "nic.mbps",
            Knob::NicLatency => "nic.latency",
            Knob::BackplaneMbps => "backplane.mbps",
            Knob::Contention => "contention",
        }
    }

    /// Scale the knob's coordinate by `scale` (contention is clamped to
    /// its legal domain ≥ 1.0; fitting a knob the machine lacks — e.g.
    /// the backplane on a machine without one — is a no-op).
    pub fn apply(self, params: &NetParams, scale: f64) -> NetParams {
        let mut p = params.clone();
        match self {
            Knob::OSend => {
                p.o_send *= scale;
                p.o_recv *= scale;
            }
            Knob::PortMbps => p.port.mbps *= scale,
            Knob::NodeMemMbps => p.node_mem.mbps *= scale,
            Knob::HopMbps => p.hop.mbps *= scale,
            Knob::NicMbps => p.nic.mbps *= scale,
            Knob::NicLatency => p.nic.latency *= scale,
            Knob::BackplaneMbps => {
                if let Some(bp) = &mut p.backplane {
                    bp.mbps *= scale;
                }
            }
            Knob::Contention => p.contention = (p.contention * scale).max(1.0),
        }
        p
    }
}

/// A set of machines that share one `NetParams` (e.g. the two SR 8000
/// placements share `base()`), the target rows they are fitted
/// against, and the knobs the fitter may turn.
pub struct FitGroup {
    pub name: &'static str,
    /// Machines sharing the constants; the first one's catalog params
    /// seed the descent.
    pub keys: &'static [&'static str],
    /// (machine_key, procs) target rows evaluated per candidate.
    pub rows: &'static [(&'static str, usize)],
    pub knobs: &'static [Knob],
}

/// The fit groups: one per distinct `NetParams` the calibration tunes.
/// SX-5 is omitted — it already sits within tolerance on all gated
/// metrics and touching it risks regression for no gain.
pub fn fit_groups() -> Vec<FitGroup> {
    vec![
        FitGroup {
            name: "t3e",
            keys: &["t3e"],
            // 256 is the worst residual; 2/24 anchor the overhead end.
            // 512 is verified by `check` but too slow to sit in the
            // descent's inner loop.
            rows: &[("t3e", 2), ("t3e", 24), ("t3e", 128), ("t3e", 256)],
            knobs: &[Knob::Contention, Knob::HopMbps, Knob::OSend],
        },
        FitGroup {
            name: "sr8000",
            keys: &["sr8000-rr", "sr8000-seq"],
            rows: &[("sr8000-rr", 128), ("sr8000-rr", 24), ("sr8000-seq", 24)],
            knobs: &[
                Knob::NicMbps,
                Knob::Contention,
                Knob::NodeMemMbps,
                Knob::PortMbps,
                Knob::OSend,
            ],
        },
        FitGroup {
            name: "sr2201",
            keys: &["sr2201"],
            rows: &[("sr2201", 16)],
            knobs: &[Knob::OSend, Knob::PortMbps, Knob::NodeMemMbps],
        },
        FitGroup {
            name: "sx4",
            keys: &["sx4"],
            rows: &[("sx4", 4), ("sx4", 8), ("sx4", 16)],
            knobs: &[Knob::BackplaneMbps, Knob::Contention, Knob::OSend, Knob::NodeMemMbps],
        },
        FitGroup {
            name: "hpv",
            keys: &["hpv"],
            rows: &[("hpv", 7)],
            knobs: &[Knob::Contention, Knob::BackplaneMbps, Knob::OSend],
        },
        FitGroup {
            // port/node_mem stay locked: they set the (already exact)
            // ping-pong, which the backplane does not touch.
            name: "sv1",
            keys: &["sv1"],
            rows: &[("sv1", 15)],
            knobs: &[Knob::BackplaneMbps, Knob::Contention, Knob::OSend],
        },
    ]
}

/// Sum of squared log-ratios of one candidate over the group's rows.
/// Gated metrics carry full weight; the informational at-L_max columns
/// a small one (they keep the curve shape honest without letting a
/// noisy single-size snapshot fight the averaged metrics).
pub fn objective(group: &FitGroup, params: &NetParams) -> f64 {
    let all = targets();
    let mut obj = 0.0;
    for &(key, procs) in group.rows {
        let row = all
            .iter()
            .find(|t| t.machine_key == key && t.procs == procs)
            .expect("fit row in target set");
        let r = measure(key, procs, Some(params));
        for m in row_report(row, &r).metrics {
            let w = if m.gated { 1.0 } else { 0.15 };
            let e = m.ratio().ln();
            obj += w * e * e;
        }
    }
    obj
}

/// Coordinate descent with multiplicative steps: each sweep tries every
/// knob up and down by its step (riding a winning direction while it
/// keeps improving), then halves the steps. Returns the fitted params
/// and the final objective.
pub fn fit_group(group: &FitGroup, sweeps: usize) -> (NetParams, f64) {
    let mut params = by_key(group.keys[0]).expect("fit group machine").net.clone();
    let mut best = objective(group, &params);
    eprintln!("fit {}: initial objective {best:.4}", group.name);
    let mut step = 1.35_f64;
    for sweep in 0..sweeps {
        for &knob in group.knobs {
            for dir in [step, 1.0 / step] {
                let cand = knob.apply(&params, dir);
                let obj = objective(group, &cand);
                if obj + 1e-9 < best {
                    params = cand;
                    best = obj;
                    // ride the improving direction
                    loop {
                        let cand = knob.apply(&params, dir);
                        let obj = objective(group, &cand);
                        if obj + 1e-9 < best {
                            params = cand;
                            best = obj;
                        } else {
                            break;
                        }
                    }
                    break;
                }
            }
            eprintln!("fit {}: sweep {sweep} {} -> objective {best:.4}", group.name, knob.name());
        }
        step = 1.0 + (step - 1.0) * 0.5;
    }
    (params, best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_cover_table1() {
        assert_eq!(targets().len(), 16);
    }

    #[test]
    fn residual_tolerance_is_symmetric_relative_error() {
        let m = MetricResidual { metric: "x", measured: 125.0, paper: 100.0, gated: true };
        assert!(m.within(0.25));
        let m = MetricResidual { metric: "x", measured: 74.0, paper: 100.0, gated: true };
        assert!(!m.within(0.25));
        let m = MetricResidual { metric: "x", measured: 126.0, paper: 100.0, gated: true };
        assert!(!m.within(0.25));
    }

    #[test]
    fn knobs_scale_their_coordinate_only() {
        let p = NetParams::default();
        let q = Knob::PortMbps.apply(&p, 2.0);
        assert_eq!(q.port.mbps, p.port.mbps * 2.0);
        assert_eq!(q.node_mem.mbps, p.node_mem.mbps);
        let q = Knob::OSend.apply(&p, 3.0);
        assert_eq!(q.o_send, p.o_send * 3.0);
        assert_eq!(q.o_recv, p.o_recv * 3.0);
        // contention never drops below its legal floor
        let q = Knob::Contention.apply(&p, 0.5);
        assert_eq!(q.contention, 1.0);
        // backplane knob is a no-op without a backplane
        let q = Knob::BackplaneMbps.apply(&p, 2.0);
        assert!(q.backplane.is_none());
    }

    #[test]
    fn fit_groups_reference_real_machines_and_rows() {
        let all = targets();
        for g in fit_groups() {
            for key in g.keys {
                assert!(by_key(key).is_some(), "{key}");
            }
            for &(key, procs) in g.rows {
                assert!(
                    all.iter().any(|t| t.machine_key == key && t.procs == procs),
                    "{key} x{procs} not a Table 1 row"
                );
            }
        }
    }
}
