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
//! The table is the *miss* path: each rank keeps a small cache of the
//! routes to and from its current peers (`beff-mpi`'s `RankState`), so
//! steady-state sends and receives never come here. Interior locking is
//! sharded by pair, so host threads that do share a machine (the rank
//! threads of a parked-thread world, callers pricing through one
//! `Arc<MachineNet>`) do not serialize on one lock; a lookup of a
//! memoized pair takes a shard read lock only.

use crate::topology::Topology;
use beff_sync::{Rank, RwLock};
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

const SHARDS: usize = 16;

/// Lock-hierarchy position of every route-table shard (DESIGN.md §8).
/// One level for all 16 shards: no code path ever holds two shards at
/// once (`split` touches exactly one, `len` reads them sequentially).
static ROUTES_RANK: Rank = Rank::new(70, "netsim.routes");

/// Machine-wide, lazily-memoized all-pairs route table.
///
/// Shards hold `BTreeMap`s, not `HashMap`s: route enumeration order is
/// structural (sorted by pair), never hasher-dependent, so any future
/// diagnostic walk over the table is bitwise-reproducible for free.
#[derive(Debug)]
pub struct RouteTable {
    shards: [RwLock<BTreeMap<(u32, u32), Arc<SplitRoute>>>; SHARDS],
}

impl Default for RouteTable {
    fn default() -> Self {
        Self::new()
    }
}

impl RouteTable {
    pub fn new() -> Self {
        Self { shards: std::array::from_fn(|_| RwLock::ranked(&ROUTES_RANK, BTreeMap::new())) }
    }

    #[inline]
    fn shard(src: usize, dst: usize) -> usize {
        // src and dst are proc indices (< 2^16 in practice); mix both so
        // neighboring pairs spread over the shards.
        (src.wrapping_mul(31).wrapping_add(dst)) % SHARDS
    }

    /// The split route from `src` to `dst` (both halves empty for
    /// self-messages), computing and memoizing it on first use.
    pub fn split(&self, topo: &Topology, src: usize, dst: usize) -> Arc<SplitRoute> {
        let key = (src as u32, dst as u32);
        let shard = &self.shards[Self::shard(src, dst)];
        if let Some(r) = shard.read().get(&key) {
            return Arc::clone(r);
        }
        // Compute outside the write lock; a racing thread may compute
        // the same route, in which case the first insert wins.
        let mut e = Vec::new();
        let mut i = Vec::new();
        topo.route_split_into(src, dst, &mut e, &mut i);
        let route = Arc::new(SplitRoute {
            egress: e.into_boxed_slice(),
            ingress: i.into_boxed_slice(),
        });
        Arc::clone(shard.write().entry(key).or_insert(route))
    }

    /// Number of memoized pairs (diagnostics).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
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
                let (mut e, mut i) = (Vec::new(), Vec::new());
                topo.route_split_into(s, d, &mut e, &mut i);
                assert_eq!(&*sr.egress, e.as_slice(), "{s}->{d}");
                assert_eq!(&*sr.ingress, i.as_slice(), "{s}->{d}");
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
