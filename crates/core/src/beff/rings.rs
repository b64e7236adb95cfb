//! Ring and random communication patterns (§4, "On communication
//! patterns"), including the remainder rules of the paper's six ring
//! patterns and the `ring_numbers.c` partition algorithm.
//!
//! A *pattern* assigns every rank a left and a right neighbor inside
//! its ring. Rings of size 2 have `left == right` (the two messages of
//! an iteration go to the same peer).
//!
//! There is one neighbor rule, and a rank applies it to itself: a ring
//! pattern is arithmetic on [`ring_sizes`] (find the ring that holds the
//! rank, O(1) on a layout of at most three runs, no allocation); a
//! random pattern is the same layout over a permutation drawn from
//! `Rng64::new(seed)`, six in a row into one reused scratch buffer, in
//! which the rank looks up its own position. [`rank_patterns`] is what a
//! rank of `run_beff` keeps — twelve names, ring layouts and its own
//! pairs, nothing of size n — so a simulated world of n ranks costs
//! O(n), not O(n²). [`pattern_tables`] applies the same rule to every
//! position at once, for the host (the resilient driver, tests).

use beff_json::{Json, ToJson};
use beff_netsim::Rng64;
use std::fmt;

/// A communication pattern's layout: a descriptive name, whether it
/// belongs to the random family, and its rings.
#[derive(Debug, Clone)]
pub struct Pattern {
    pub name: String,
    pub random: bool,
    /// ring sizes, for the protocol report
    pub ring_sizes: RingLayout,
}

impl ToJson for Pattern {
    fn to_json(&self) -> Json {
        Json::object()
            .field("name", &self.name)
            .field("random", &self.random)
            .field("ring_sizes", &self.ring_sizes)
            .build()
    }
}

/// The ring sizes of a layout in ring order, held as runs of equal
/// sizes: the remainder rules of [`ring_sizes`] never make more than
/// three runs, so a layout is a few words inline whatever the world
/// size. It reads, prints (`Debug`) and serializes (`ToJson`) as the
/// expanded list of sizes.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct RingLayout {
    /// `(ring size, count)` in ring order; the first `len` are used,
    /// the rest stay `(0, 0)`.
    runs: [(usize, usize); 3],
    len: usize,
}

/// A run of no rings: pads [`RingLayout::of`]'s three.
const NO_RUN: (usize, usize) = (0, 0);

impl RingLayout {
    /// The layout of three runs `(ring size, count)` in ring order: a
    /// run of no rings is dropped, and a run of the size of the one
    /// before it joins that one.
    fn of(runs: [(usize, usize); 3]) -> Self {
        let mut layout = Self::default();
        for (size, count) in runs {
            match layout.runs[..layout.len].last_mut() {
                _ if count == 0 => {}
                Some(last) if last.0 == size => last.1 += count,
                _ => {
                    layout.runs[layout.len] = (size, count);
                    layout.len += 1;
                }
            }
        }
        layout
    }

    /// The `(ring size, count)` runs, in ring order.
    pub(crate) fn runs(&self) -> &[(usize, usize)] {
        &self.runs[..self.len]
    }

    /// Every ring's size, in ring order.
    pub fn iter(&self) -> impl Iterator<Item = &usize> + '_ {
        self.runs().iter().flat_map(|(size, count)| std::iter::repeat_n(size, *count))
    }

    /// The consecutive rings as position ranges `(base, size)`.
    fn rings(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.iter().scan(0, |base, &sz| {
            *base += sz;
            Some((*base - sz, sz))
        })
    }

    /// The ring holding position `pos`, as `(base, size)`: O(runs).
    fn ring_at(&self, pos: usize) -> Option<(usize, usize)> {
        let mut base = 0;
        for &(size, count) in self.runs() {
            if pos < base + size * count {
                return Some((base + (pos - base) / size * size, size));
            }
            base += size * count;
        }
        None
    }
}

impl fmt::Debug for RingLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl ToJson for RingLayout {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

/// Partition `n` ranks into rings of target size `s` following the
/// paper's remainder rules:
///
/// * remainder 0 — all rings of size `s`;
/// * `r ≤ s/2` and enough rings — `r` rings of `s+1`;
/// * else if enough rings — `s−r` rings of `s−1`;
/// * else — greedy fill with a final split of the remainder.
///
/// Reproduces the published examples: size 4 → "1*3, 1*5, or 2*5";
/// size 8 → "3*7 … 1*7, 1*9 … 4*9"; 29 = 7+7+7+8; 28 = 4*7.
pub fn ring_sizes(n: usize, s: usize) -> RingLayout {
    assert!(n >= 1 && s >= 2);
    // Too few ranks for two full rings: one ring holds everyone (the
    // paper's "less or equal 7 → one ring" rule for target 4).
    if n < 2 * s {
        return RingLayout::of([(n, 1), NO_RUN, NO_RUN]);
    }
    let k = n / s;
    let r = n % s;
    if r == 0 {
        return RingLayout::of([(s, k), NO_RUN, NO_RUN]);
    }
    if r <= s / 2 && r <= k {
        // r rings of s+1, the rest of size s
        return RingLayout::of([(s + 1, r), (s, k - r), NO_RUN]);
    }
    if s - r <= k + 1 && s >= 3 {
        // s-r rings of s-1, the rest (k+1-(s-r)) of size s
        let a = s - r;
        return RingLayout::of([(s, k + 1 - a), (s - 1, a), NO_RUN]);
    }
    // fallback: rings of s while more than 2s remain, then split the
    // rest into two roughly equal rings (each >= 2)
    let full = (n - 2 * s).div_ceil(s);
    let left = n - full * s;
    let rest = if left > s + 1 { [(left / 2, 1), (left - left / 2, 1)] } else { [(left, 1), NO_RUN] };
    RingLayout::of([(s, full), rest[0], rest[1]])
}

/// The six target ring sizes of the paper for `n` ranks (clamped to
/// the world size; small worlds repeat the full ring).
pub fn ring_targets(n: usize) -> [usize; 6] {
    let clamp2n = |t: usize| t.min(n).max(2);
    [
        2,
        clamp2n(4),
        clamp2n(8),
        clamp2n(16.max(n / 4)),
        clamp2n(32.max(n / 2)),
        n.max(2),
    ]
}

/// The twelve patterns over `n` ranks in measurement order — six rings
/// on natural rank order, then six over seeded random permutations —
/// visited one at a time. A random pattern's permutation is drawn into
/// `order`, one buffer reused for all six; a ring pattern leaves it
/// empty (the identity).
struct Walk {
    n: usize,
    next: usize,
    rng: Rng64,
    /// position in ring order → rank; empty for the identity
    order: Vec<usize>,
}

impl Walk {
    fn new(n: usize, seed: u64) -> Self {
        Self { n, next: 0, rng: Rng64::new(seed), order: Vec::new() }
    }

    /// Step to the next pattern and return its layout. The k-th random
    /// pattern's ranks are the k-th `Rng64::permutation(n)` drawn from
    /// the seed.
    fn step(&mut self) -> Option<Pattern> {
        let (k, n) = (self.next, self.n);
        if k == 12 {
            return None;
        }
        self.next += 1;
        let (random, i) = (k >= 6, k % 6);
        if random {
            self.order.clear();
            self.order.extend(0..n);
            self.rng.shuffle(&mut self.order);
        }
        let s = ring_targets(n)[i];
        let family = if random { "random" } else { "ring" };
        Some(Pattern {
            name: format!("{family}-{} (target {s})", i + 1),
            random,
            ring_sizes: ring_sizes(n, s),
        })
    }

    fn rank_at(&self, pos: usize) -> usize {
        if self.order.is_empty() {
            pos
        } else {
            self.order[pos]
        }
    }

    fn position_of(&self, rank: usize) -> usize {
        if self.order.is_empty() {
            rank
        } else {
            // beff-analyze: allow(unwrap): `order` is a permutation of 0..n and rank < n
            self.order.iter().position(|&r| r == rank).expect("a permutation holds every rank")
        }
    }

    /// The neighbor rule: the (left, right) of the rank at position `pos`
    /// of the ring that spans positions `base..base + sz`.
    fn pair_in(&self, (base, sz): (usize, usize), pos: usize) -> (usize, usize) {
        let i = pos - base;
        (self.rank_at(base + (i + sz - 1) % sz), self.rank_at(base + (i + 1) % sz))
    }
}

/// The twelve patterns as rank `rank` of `n` meets them — the layout of
/// each and the rank's own (left, right) in it. O(n) time per random
/// pattern; the one n-entry scratch buffer is gone on return.
pub fn rank_patterns(n: usize, rank: usize, seed: u64) -> Vec<(Pattern, (usize, usize))> {
    assert!(rank < n, "rank {rank} outside a world of {n}");
    let mut walk = Walk::new(n, seed);
    std::iter::from_fn(|| {
        let p = walk.step()?;
        let pos = walk.position_of(rank);
        // beff-analyze: allow(unwrap): `ring_sizes(n, _)` sums to n, and pos < n
        let ring = p.ring_sizes.ring_at(pos).expect("the rings cover every position");
        let pair = walk.pair_in(ring, pos);
        Some((p, pair))
    })
    .collect()
}

/// The twelve patterns with every rank's (left, right), indexed by rank:
/// the same rule as [`rank_patterns`], applied once to every position.
/// A world-sized table, for the host.
pub fn pattern_tables(n: usize, seed: u64) -> Vec<(Pattern, Vec<(usize, usize)>)> {
    let mut walk = Walk::new(n, seed);
    std::iter::from_fn(|| {
        let p = walk.step()?;
        let mut table = vec![(0, 0); n];
        for ring in p.ring_sizes.rings() {
            for pos in ring.0..ring.0 + ring.1 {
                table[walk.rank_at(pos)] = walk.pair_in(ring, pos);
            }
        }
        Some((p, table))
    })
    .collect()
}

/// Messages sent per iteration of a pattern (2 per rank: one to each
/// neighbor) — the message count of the bandwidth formula.
pub fn messages_per_iteration(n: usize) -> u64 {
    2 * n as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ring sizes of `ring_sizes(n, s)` as a list.
    fn sizes(n: usize, s: usize) -> Vec<usize> {
        ring_sizes(n, s).iter().copied().collect()
    }

    fn check_cover(n: usize, sizes: &[usize]) {
        assert_eq!(sizes.iter().sum::<usize>(), n, "sizes {sizes:?} for n={n}");
        assert!(sizes.iter().all(|&s| s >= 2), "ring of <2: {sizes:?}");
    }

    #[test]
    fn pattern1_rings_of_two_and_three() {
        assert_eq!(sizes(6, 2), vec![2, 2, 2]);
        // 7 ranks: paper's example — 0&1, 2&3, 4&5&6
        let v = sizes(7, 2);
        check_cover(7, &v);
        assert!(v.contains(&3));
        assert_eq!(v.iter().filter(|&&s| s == 2).count(), 2);
    }

    #[test]
    fn pattern2_remainders_match_paper() {
        // "the last rings may have the sizes 1*3, 1*5, or 2*5"
        assert_eq!(sizes(9, 4), vec![5, 4]); // 1*5
        assert_eq!(sizes(10, 4), vec![5, 5]); // 2*5
        let v = sizes(11, 4); // 1*3
        check_cover(11, &v);
        assert!(v.contains(&3));
        // n <= 7: one ring
        assert_eq!(sizes(7, 4), vec![7]);
        assert_eq!(sizes(4, 4), vec![4]);
    }

    #[test]
    fn pattern3_remainders_match_paper() {
        // "3*7, ... 1*7, 1*9, ... 4*9"
        assert_eq!(sizes(33, 8), vec![9, 8, 8, 8]); // 1*9
        assert_eq!(sizes(36, 8), vec![9, 9, 9, 9]); // 4*9
        assert_eq!(sizes(29, 8), vec![8, 7, 7, 7]); // 29 = 7+7+7+8
        assert_eq!(sizes(28, 8), vec![7, 7, 7, 7]); // 4*7
        let v = sizes(39, 8); // r=7 -> 1*7
        check_cover(39, &v);
        assert_eq!(v.iter().filter(|&&s| s == 7).count(), 1);
    }

    /// The remainder rules as a list, one ring at a time: what a
    /// layout's runs must expand to.
    fn rule_sizes(n: usize, s: usize) -> Vec<usize> {
        if n < 2 * s {
            return vec![n];
        }
        let (k, r) = (n / s, n % s);
        if r == 0 {
            return vec![s; k];
        }
        if r <= s / 2 && r <= k {
            let mut v = vec![s + 1; r];
            v.extend(std::iter::repeat_n(s, k - r));
            return v;
        }
        if s - r <= k + 1 && s >= 3 {
            let a = s - r;
            let mut v = vec![s; k + 1 - a];
            v.extend(std::iter::repeat_n(s - 1, a));
            return v;
        }
        let mut v = Vec::new();
        let mut left = n;
        while left > 2 * s {
            v.push(s);
            left -= s;
        }
        if left > s + 1 {
            v.push(left / 2);
            v.push(left - left / 2);
        } else {
            v.push(left);
        }
        v
    }

    /// Every world size up to 600 under each of its six targets and
    /// every target from 2 to 40: at most three runs, which cover the
    /// world in rings of two or more, expand to the rules' list, and
    /// print and serialize as that list does.
    #[test]
    fn layouts_are_at_most_three_runs_of_the_rules() {
        for n in 1..=600usize {
            for s in ring_targets(n).into_iter().chain(2..=40) {
                let layout = ring_sizes(n, s);
                let want = rule_sizes(n, s);
                assert!(layout.runs().len() <= 3, "n={n} s={s}: {:?}", layout.runs());
                assert!(layout.runs().iter().all(|&(size, count)| size > 0 && count > 0));
                assert_eq!(layout.runs().iter().map(|(size, count)| size * count).sum::<usize>(), n);
                assert_eq!(layout.iter().copied().collect::<Vec<_>>(), want, "n={n} s={s}");
                if n >= 2 {
                    check_cover(n, &want);
                }
                assert_eq!(format!("{layout:?}"), format!("{want:?}"));
                assert_eq!(beff_json::to_string_pretty(&layout), beff_json::to_string_pretty(&want));
                for (base, sz) in layout.rings() {
                    for pos in base..base + sz {
                        assert_eq!(layout.ring_at(pos), Some((base, sz)), "n={n} s={s} pos={pos}");
                    }
                }
                assert_eq!(layout.ring_at(n), None);
            }
        }
    }

    #[test]
    fn targets_follow_min_max_rules() {
        assert_eq!(ring_targets(128), [2, 4, 8, 32, 64, 128]);
        assert_eq!(ring_targets(512), [2, 4, 8, 128, 256, 512]);
        assert_eq!(ring_targets(24), [2, 4, 8, 16, 24, 24]);
        assert_eq!(ring_targets(2), [2, 2, 2, 2, 2, 2]);
    }

    /// The tables as the parent's builder made them: every rank's pair
    /// read off the rings laid over `order`, for the identity and for
    /// six fresh `Rng64::permutation` draws.
    fn reference(n: usize, seed: u64) -> Vec<Vec<(usize, usize)>> {
        let mut rng = Rng64::new(seed);
        let orders = (0..12).map(|k| if k < 6 { (0..n).collect() } else { rng.permutation(n) });
        orders
            .zip(ring_targets(n).repeat(2))
            .map(|(order, s): (Vec<usize>, usize)| {
                let mut out = vec![(usize::MAX, usize::MAX); n];
                let mut base = 0;
                for &sz in ring_sizes(n, s).iter() {
                    for i in 0..sz {
                        let at = |j: usize| order[base + j % sz];
                        out[at(i)] = (at(i + sz - 1), at(i + 1));
                    }
                    base += sz;
                }
                out
            })
            .collect()
    }

    fn tables(n: usize, seed: u64) -> Vec<Vec<(usize, usize)>> {
        pattern_tables(n, seed).into_iter().map(|(_, t)| t).collect()
    }

    #[test]
    fn tables_are_the_reference_rings_and_permutations() {
        for n in [1usize, 2, 3, 7, 16, 33, 100, 512] {
            for seed in [0xB0EF, 1, 8] {
                assert_eq!(tables(n, seed), reference(n, seed), "n={n} seed={seed}");
            }
        }
    }

    /// A rank's own view is its row of the host table, in all twelve
    /// patterns: every rank up to 64 ranks, and for every world size up
    /// to 600 its first, last and a drawn rank, over three drawn seeds.
    #[test]
    fn every_rank_reads_its_row_of_the_table() {
        beff_check::check_n("rank view equals the table", 3, |g| {
            let seed = g.u64(0..=u64::MAX);
            for n in 1..=600usize {
                let tables = pattern_tables(n, seed);
                let drawn = [0, n - 1, g.usize(0..=n - 1)];
                let all: Vec<usize> = (0..n).collect();
                for &rank in if n <= 64 { &all[..] } else { &drawn[..] } {
                    let mine = rank_patterns(n, rank, seed);
                    beff_check::ensure_eq!(mine.len(), 12);
                    for ((p, pair), (q, table)) in mine.iter().zip(&tables) {
                        beff_check::ensure_eq!(*pair, table[rank], "{} n={n} rank={rank}", p.name);
                        beff_check::ensure_eq!((&p.name, p.random), (&q.name, q.random));
                        beff_check::ensure_eq!(p.ring_sizes, q.ring_sizes);
                    }
                }
            }
        });
    }

    #[test]
    fn neighbors_are_mutual_along_rings() {
        for n in [2usize, 5, 7, 16, 24, 33] {
            for (p, t) in pattern_tables(n, 3) {
                for (me, &(l, r)) in t.iter().enumerate() {
                    // my right neighbor's left neighbor is me
                    assert_eq!(t[r].0, me, "{} n={n} me={me}", p.name);
                    assert_eq!(t[l].1, me, "{} n={n} me={me}", p.name);
                }
            }
        }
    }

    #[test]
    fn ring_of_two_has_left_equal_right() {
        let (_, t) = &pattern_tables(4, 1)[0]; // rings of 2
        for &(l, r) in t {
            assert_eq!(l, r);
        }
    }

    #[test]
    fn six_plus_six_patterns() {
        let ps = pattern_tables(16, 1);
        assert_eq!(ps.len(), 12);
        assert!(ps.iter().enumerate().all(|(k, (p, _))| p.random == (k >= 6)));
    }

    #[test]
    fn random_patterns_are_deterministic_and_distinct() {
        let (a, b, c) = (tables(32, 7), tables(32, 7), tables(32, 8));
        assert_eq!(a, b);
        assert_eq!(a[..6], c[..6], "ring patterns do not depend on the seed");
        assert!((6..12).all(|k| a[k] != c[k]));
    }

    #[test]
    fn last_pattern_is_one_big_ring() {
        let (p, t) = &pattern_tables(10, 1)[5];
        assert_eq!(format!("{:?}", p.ring_sizes), "[10]");
        // in one ring of n, left/right differ for n > 2
        for &(l, r) in t {
            assert_ne!(l, r);
        }
    }
}
