//! Execution engines: real wall-clock vs virtual-time simulation.
//!
//! The engine decides three things:
//!
//! 1. what a rank's clock is ([`RankClock`]),
//! 2. what a message transfer costs (nothing extra in real mode — the
//!    actual memcpy through the mailbox *is* the cost; the
//!    [`beff_netsim::MachineNet`] price in sim mode),
//! 3. whether benchmark payloads are materialized (`copy_data`).

use beff_faults::FaultSession;
use beff_netsim::{MachineNet, SplitRoute};
use beff_sim::{Clock, RealClock, Secs, VClock};
use std::sync::Arc;

/// World-level engine configuration, shared by all ranks.
#[derive(Clone)]
pub enum EngineCfg {
    /// Host threads, wall-clock timing, payloads always copied.
    Real,
    /// Virtual time priced by a machine model.
    Sim {
        net: Arc<MachineNet>,
        /// Materialize benchmark payload bytes (tests: `true`;
        /// large-machine benchmarking: `false`).
        copy_data: bool,
        /// Active fault injection, if any. `None` keeps every hot path
        /// byte-identical to the fault-free build (the hooks guard on
        /// this `Option` before touching any arithmetic).
        faults: Option<Arc<FaultSession>>,
    },
}

impl EngineCfg {
    pub fn is_sim(&self) -> bool {
        matches!(self, EngineCfg::Sim { .. })
    }

    /// Per-message sender CPU overhead.
    pub fn o_send(&self) -> Secs {
        match self {
            EngineCfg::Real => 0.0,
            EngineCfg::Sim { net, .. } => net.params().o_send,
        }
    }

    /// Per-message receiver CPU overhead.
    pub fn o_recv(&self) -> Secs {
        match self {
            EngineCfg::Real => 0.0,
            EngineCfg::Sim { net, .. } => net.params().o_recv,
        }
    }
}

/// A rank's clock: real or virtual.
#[derive(Debug)]
pub enum RankClock {
    Real(RealClock),
    Virt(VClock),
}

impl RankClock {
    #[inline]
    pub fn now(&self) -> Secs {
        match self {
            RankClock::Real(c) => c.now(),
            RankClock::Virt(c) => c.now(),
        }
    }
    #[inline]
    pub fn advance(&mut self, dt: Secs) {
        if let RankClock::Virt(c) = self {
            c.advance(dt);
        }
    }
    #[inline]
    pub fn advance_to(&mut self, t: Secs) {
        if let RankClock::Virt(c) = self {
            c.advance_to(t);
        }
    }
    pub fn is_virtual(&self) -> bool {
        matches!(self, RankClock::Virt(_))
    }
}

/// How many peers each side of a rank's [`RouteCache`] holds. The
/// b_eff patterns give a rank two neighbours at a time; an exchange
/// with more peers than this (a wide all-to-all) misses and pays what
/// the shared table costs.
pub const ROUTE_CACHE_SLOTS: usize = 16;

const ROUTE_CACHE_SETS: usize = ROUTE_CACHE_SLOTS / 2;

/// One cached route and the peer it leads to (or from).
type Way = Option<(usize, Arc<SplitRoute>)>;

/// A rank's handles on the routes to (or from) its current peers: two
/// ways in each of eight sets indexed by the peer's world rank, filled
/// from the machine-wide table ([`MachineNet::split_route`]) on a miss
/// over the way not used last. A hit costs two compares at most — no
/// lock, no map walk, no reference-count traffic — and two peers
/// congruent mod 8 (or 16) keep one way each instead of evicting each
/// other on every message.
pub(crate) struct RouteCache {
    sets: [[Way; 2]; ROUTE_CACHE_SETS],
    /// Bit `s`: the way of set `s` to fill next (the one not used last).
    victims: u8,
}

impl RouteCache {
    fn new() -> Self {
        Self { sets: std::array::from_fn(|_| [None, None]), victims: 0 }
    }

    /// The route cached under `peer`, looked up with `fill` on a miss.
    #[inline]
    pub(crate) fn get(
        &mut self,
        peer: usize,
        fill: impl FnOnce() -> Arc<SplitRoute>,
    ) -> &SplitRoute {
        let s = peer % ROUTE_CACHE_SETS;
        let set = &mut self.sets[s];
        let holds = |way: &Way| matches!(way, Some((p, _)) if *p == peer);
        let way = set.iter().position(holds).unwrap_or(((self.victims >> s) & 1) as usize);
        self.victims = (self.victims & !(1 << s)) | (((way ^ 1) as u8) << s);
        let slot = &mut set[way];
        if !holds(slot) {
            *slot = None;
        }
        &slot.get_or_insert_with(|| (peer, fill())).1
    }
}

/// Mutable per-rank simulation state: the rank's clock and its route
/// handles.
///
/// Routes are *owned* by the machine-wide [`MachineNet`] route table,
/// shared by all ranks of all worlds on that machine; a rank only
/// caches handles to the few it is using. All communicators of a rank
/// share one `RankState` (one world rank), so the peer's world rank
/// alone identifies a cached route.
///
/// Lives in an `Rc<RefCell<..>>` shared by all communicators of the
/// rank so that time keeps flowing across `Comm::split`.
pub struct RankState {
    pub clock: RankClock,
    /// Routes from this rank, keyed by world destination.
    pub(crate) routes_out: RouteCache,
    /// Routes to this rank, keyed by world source.
    pub(crate) routes_in: RouteCache,
}

impl RankState {
    pub fn new(engine: &EngineCfg) -> Self {
        let clock = match engine {
            // beff-analyze: allow(taint): the Real engine is wall-clock by contract; sim worlds take the Virt arm below
            EngineCfg::Real => RankClock::Real(RealClock::new()),
            EngineCfg::Sim { .. } => RankClock::Virt(VClock::new()),
        };
        Self { clock, routes_out: RouteCache::new(), routes_in: RouteCache::new() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beff_netsim::{NetParams, Topology};

    #[test]
    fn real_engine_has_zero_overheads() {
        let e = EngineCfg::Real;
        assert_eq!(e.o_send(), 0.0);
        assert_eq!(e.o_recv(), 0.0);
        assert!(!e.is_sim());
    }

    #[test]
    fn sim_engine_reports_model_overheads() {
        let net = Arc::new(MachineNet::new(
            Topology::Crossbar { procs: 2 },
            NetParams { o_send: 1e-6, o_recv: 2e-6, ..NetParams::default() },
        ));
        let e = EngineCfg::Sim { net, copy_data: true, faults: None };
        assert_eq!(e.o_send(), 1e-6);
        assert_eq!(e.o_recv(), 2e-6);
        assert!(e.is_sim());
    }

    /// Two peers of one set keep a way each, so alternating between
    /// them fills twice in 100 lookups; a third evicts the way not used
    /// last.
    #[test]
    fn two_peers_of_one_set_stop_evicting_each_other() {
        let route = Arc::new(SplitRoute { egress: [0].into(), ingress: [1].into() });
        let fills_of = |peers: &[usize]| {
            let (mut cache, mut fills) = (RouteCache::new(), Vec::new());
            for &peer in peers {
                cache.get(peer, || {
                    fills.push(peer);
                    Arc::clone(&route)
                });
            }
            fills
        };
        let p = 3;
        let alternating: Vec<usize> = (0..100).map(|i| p + 16 * (i % 2)).collect();
        assert_eq!(fills_of(&alternating), [p, p + 16]);
        assert_eq!(fills_of(&[0, 8, 0, 16, 0, 8]), [0, 8, 16, 8]);
    }

    #[test]
    fn rank_clock_virtual_advances() {
        let mut c = RankClock::Virt(VClock::new());
        c.advance(1.0);
        c.advance_to(0.5);
        assert_eq!(c.now(), 1.0);
        assert!(c.is_virtual());
    }

    #[test]
    fn rank_state_matches_engine() {
        let real = RankState::new(&EngineCfg::Real);
        assert!(!real.clock.is_virtual());

        let net = Arc::new(MachineNet::new(
            Topology::Crossbar { procs: 2 },
            NetParams::default(),
        ));
        let sim = RankState::new(&EngineCfg::Sim { net, copy_data: false, faults: None });
        assert!(sim.clock.is_virtual());
    }
}
