//! Route memoization for hot communication paths.
//!
//! The b_eff inner loops send millions of messages between a handful of
//! (src, dst) pairs; recomputing (and re-allocating) the link path per
//! message would dominate simulation cost. A single [`RouteTable`]
//! lives on each [`MachineNet`](crate::MachineNet) and is shared by
//! every rank of every world simulated on that machine: routes are
//! computed once per (src, dst) pair per *machine*, not once per rank
//! (the old per-rank `RouteCache` cloned the topology and re-derived
//! identical routes 512 times on the largest modeled system).
//!
//! The table is the *miss* path of a send: each rank keeps a small
//! cache of the routes to its current peers (`beff-mpi`'s `RankState`),
//! so steady-state sends never come here. A receive never does: its
//! ingress links are arithmetic ([`Topology::ingress`]). Every world runs on
//! one host thread and a batch job gets its own machine replica, so the
//! table is never contended: one plain lock keeps it `Sync` (a serve
//! partition moves between pool workers; the thread fiber backend runs
//! a world's fibers on several threads, one at a time).

use crate::topology::Topology;
use beff_sync::{Mutex, Rank};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A route split into sender-booked and receiver-booked halves.
#[derive(Debug, Clone)]
pub struct SplitRoute {
    pub egress: Box<[usize]>,
    pub ingress: Box<[usize]>,
}

impl SplitRoute {
    /// The full path: egress links followed by ingress links.
    pub fn full(&self) -> Vec<usize> {
        let mut v = Vec::with_capacity(self.egress.len() + self.ingress.len());
        v.extend_from_slice(&self.egress);
        v.extend_from_slice(&self.ingress);
        v
    }
}

/// Lock-hierarchy position of the route table (DESIGN.md §8). A miss
/// computes the route under it; routing takes no lock, so nothing is
/// acquired under it.
static ROUTES_RANK: Rank = Rank::new(70, "netsim.routes");

/// Machine-wide, lazily-memoized all-pairs route table.
///
/// A `BTreeMap`, not a `HashMap`: route enumeration order is structural
/// (sorted by pair), never hasher-dependent, so any future diagnostic
/// walk over the table is bitwise-reproducible for free.
#[derive(Debug)]
pub struct RouteTable {
    routes: Mutex<BTreeMap<(u32, u32), Arc<SplitRoute>>>,
}

impl Default for RouteTable {
    fn default() -> Self {
        Self::new()
    }
}

impl RouteTable {
    pub fn new() -> Self {
        Self { routes: Mutex::ranked(&ROUTES_RANK, BTreeMap::new()) }
    }

    /// The route from `src` to `dst` split before its
    /// [`Topology::ingress`] tail (both halves empty for self-messages),
    /// computed and memoized on first use.
    pub fn split(&self, topo: &Topology, src: usize, dst: usize) -> Arc<SplitRoute> {
        let mut routes = self.routes.lock();
        let route = routes.entry((src as u32, dst as u32)).or_insert_with(|| {
            let mut egress = topo.route(src, dst);
            let ingress = egress.split_off(egress.len() - topo.ingress(src, dst).len());
            Arc::new(SplitRoute {
                egress: egress.into_boxed_slice(),
                ingress: ingress.into_boxed_slice(),
            })
        });
        Arc::clone(route)
    }

    /// Number of memoized pairs (diagnostics).
    pub fn len(&self) -> usize {
        self.routes.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_topology_for_all_pairs() {
        let topo = Topology::Torus2D { dims: [4, 4] };
        let table = RouteTable::new();
        for s in 0..16 {
            for d in 0..16 {
                let sr = table.split(&topo, s, d);
                assert_eq!(&*sr.ingress, &*topo.ingress(s, d), "{s}->{d}");
                assert_eq!(sr.full(), topo.route(s, d), "{s}->{d}");
            }
        }
        assert_eq!(table.len(), 256);
    }

    #[test]
    fn table_does_not_grow_on_repeats() {
        let topo = Topology::Ring { procs: 8 };
        let table = RouteTable::new();
        table.split(&topo, 0, 1);
        table.split(&topo, 0, 1);
        table.split(&topo, 0, 1);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn repeated_lookups_share_one_allocation() {
        let topo = Topology::Crossbar { procs: 4 };
        let table = RouteTable::new();
        let a = table.split(&topo, 1, 3);
        let b = table.split(&topo, 1, 3);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn self_route_is_empty() {
        let table = RouteTable::new();
        let sr = table.split(&Topology::Crossbar { procs: 4 }, 2, 2);
        assert!(sr.egress.is_empty() && sr.ingress.is_empty());
    }

    #[test]
    fn concurrent_warmup_is_consistent() {
        let topo = Topology::Torus3D { dims: [4, 4, 4] };
        let table = Arc::new(RouteTable::new());
        std::thread::scope(|s| {
            for t in 0..8 {
                let table = Arc::clone(&table);
                let topo = &topo;
                s.spawn(move || {
                    for src in 0..64 {
                        let dst = (src + t + 1) % 64;
                        let sr = table.split(topo, src, dst);
                        assert_eq!(sr.full(), topo.route(src, dst));
                    }
                });
            }
        });
        assert!(table.len() <= 64 * 8);
    }
}
