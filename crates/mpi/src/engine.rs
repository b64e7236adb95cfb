//! The engine: what a rank's clock is (a [`VClock`]), what a message
//! transfer costs (the [`beff_netsim::MachineNet`] price, a send's links
//! from the rank's [`RouteCache`], a receive's from `Topology::ingress`)
//! and whether benchmark payloads are materialized (`copy_data`).

use beff_faults::FaultSession;
use beff_netsim::{MachineNet, SplitRoute};
use beff_sim::VClock;
use std::sync::Arc;

/// World-level engine configuration, shared by all ranks: virtual time
/// priced by a machine model.
#[derive(Clone)]
pub struct EngineCfg {
    pub net: Arc<MachineNet>,
    /// Materialize benchmark payload bytes (tests: `true`;
    /// large-machine benchmarking: `false`).
    pub copy_data: bool,
    /// Active fault injection, if any. `None` keeps every hot path
    /// byte-identical to the fault-free build (the hooks guard on
    /// this `Option` before touching any arithmetic).
    pub faults: Option<Arc<FaultSession>>,
}

/// How many peers a rank's [`RouteCache`] holds. The
/// b_eff patterns give a rank two neighbours at a time; an exchange
/// with more peers than this (a wide all-to-all) misses and pays what
/// the shared table costs.
pub const ROUTE_CACHE_SLOTS: usize = 16;

const ROUTE_CACHE_SETS: usize = ROUTE_CACHE_SLOTS / 2;

/// One cached route and the peer it leads to.
type Way = Option<(usize, Arc<SplitRoute>)>;

/// A rank's handles on the routes to its current peers: two
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

/// Mutable per-rank simulation state: the rank's clock and its handles
/// on the routes it sends over.
///
/// Routes are *owned* by the machine-wide [`MachineNet`] route table,
/// shared by all ranks of all worlds on that machine; a rank only
/// caches handles to the few it is using. All communicators of a rank
/// share one `RankState` (one world rank), so the peer's world rank
/// alone identifies a cached route.
///
/// Lives in an `Rc<RefCell<..>>` shared by all communicators of the
/// rank so that time keeps flowing across `Comm::split`.
pub(crate) struct RankState {
    pub(crate) clock: VClock,
    /// Routes from this rank, keyed by world destination.
    pub(crate) routes: RouteCache,
}

impl RankState {
    pub(crate) fn new() -> Self {
        Self { clock: VClock::new(), routes: RouteCache::new() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
