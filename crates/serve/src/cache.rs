//! Content-addressed result cache.
//!
//! Keys are the *full canonical spec bytes* ([`JobSpec::canonical_key`]
//! (crate::JobSpec::canonical_key)) — not a digest — so a hit can never
//! be a hash collision; digests exist only as short printable handles
//! in reports. Values are the finished result report bytes, shared out
//! as `Arc<str>` so a hit copies nothing.
//!
//! A result that the durable journal also holds may be kept **cold**:
//! the entry then records only where the journal has it
//! ([`ResultCache::chill`]), and the first later query for it reads it
//! back and [`warm`](ResultCache::warm)s it for good. Memory therefore
//! holds what has been asked for at least twice; a result nobody asks
//! for again costs its key, not its bytes. Without a journal every
//! entry is warm, as before.
//!
//! Because every simulation below the server is deterministic, a cache
//! hit is **exact**: recomputing any cached spec must reproduce the
//! stored bytes bit for bit. [`ResultCache::insert`] enforces that
//! invariant on every insert race (two equal specs computed
//! concurrently must agree), and the `loadgen` correctness audit
//! re-proves it end-to-end for every spec in a run.

use crate::journal::Extent;
use beff_sync::{order::Rank, Mutex};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Lock level 14 (`serve.cache`): below every simulation-substrate
/// lock, so holding it across a (never-intended) nested acquisition
/// would still be hierarchy-clean; see DESIGN.md §8.
static CACHE_RANK: Rank = Rank::new(14, "serve.cache");

/// Monotonic hit/miss counters (a snapshot, not a transaction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: usize,
}

/// What the cache holds for a key.
#[derive(Debug, Clone)]
pub enum Cached {
    /// The result bytes, in memory.
    Warm(Arc<str>),
    /// The result is in the journal at this extent, not in memory.
    Cold(Extent),
}

/// The content-addressed store: canonical spec bytes → result bytes.
pub struct ResultCache {
    entries: Mutex<BTreeMap<String, Cached>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for ResultCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ResultCache {
    pub fn new() -> Self {
        Self {
            entries: Mutex::ranked(&CACHE_RANK, BTreeMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Look `key` up, counting the query as a hit or a miss (a cold
    /// entry is a hit: the result exists and will not be recomputed).
    pub fn get(&self, key: &str) -> Option<Cached> {
        let found = self.peek(key);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Look `key` up without touching the counters (for audits).
    pub fn peek(&self, key: &str) -> Option<Cached> {
        self.entries.lock().get(key).cloned()
    }

    /// Store a computed result, returning the shared bytes. If the key
    /// is already present the existing entry wins — and the new bytes
    /// must match it exactly: a disagreement means the determinism
    /// contract underneath the cache is broken, which is a panic, not
    /// a silent overwrite.
    pub fn insert(&self, key: String, bytes: String) -> Arc<str> {
        self.insert_if_absent(key, bytes).0
    }

    /// [`insert`](Self::insert), also reporting whether the key was
    /// new (`true`) or an existing entry won (`false`). The journal
    /// appends exactly the fresh inserts, so replay never sees
    /// redundant records from re-computed hits.
    pub fn insert_if_absent(&self, key: String, bytes: String) -> (Arc<str>, bool) {
        let mut entries = self.entries.lock();
        match entries.get(key.as_str()) {
            Some(Cached::Warm(existing)) => {
                // beff-analyze: allow(panicflow): integrity tripwire — divergent recompute bytes mean determinism is already broken; dying loudly beats serving either answer
                assert_eq!(
                    existing.as_ref(),
                    bytes.as_str(),
                    "cache integrity: recomputation of an existing key produced different bytes"
                );
                (Arc::clone(existing), false)
            }
            // A cold entry has no bytes here to hold these against (the
            // journal read that warms it does its own verification);
            // the entry stays, the caller gets what it computed.
            Some(Cached::Cold(_)) => (bytes.into(), false),
            None => {
                let shared: Arc<str> = bytes.into();
                entries.insert(key, Cached::Warm(Arc::clone(&shared)));
                (shared, true)
            }
        }
    }

    /// The journal holds `key`'s result at `extent`: drop the bytes
    /// from memory and remember only where they are.
    pub fn chill(&self, key: &str, extent: Extent) {
        if let Some(entry) = self.entries.lock().get_mut(key) {
            *entry = Cached::Cold(extent);
        }
    }

    /// Bring a cold entry's bytes (just read back from the journal)
    /// into memory for good, returning the shared bytes. If the entry
    /// is already warm — a racing query got there first — that one is
    /// kept.
    pub fn warm(&self, key: &str, bytes: String) -> Arc<str> {
        let mut entries = self.entries.lock();
        if let Some(Cached::Warm(existing)) = entries.get(key) {
            return Arc::clone(existing);
        }
        let shared: Arc<str> = bytes.into();
        entries.insert(key.to_string(), Cached::Warm(Arc::clone(&shared)));
        shared
    }

    /// Forget `key` (its cold bytes turned out to be unreadable), so
    /// the next query recomputes it.
    pub fn evict(&self, key: &str) {
        self.entries.lock().remove(key);
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.entries.lock().len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_insert_then_hit() {
        let c = ResultCache::new();
        assert!(c.get("k").is_none());
        c.insert("k".into(), "{\"beff\":1.0}".into());
        assert!(matches!(c.get("k"), Some(Cached::Warm(b)) if &*b == "{\"beff\":1.0}"));
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 1, entries: 1 });
    }

    #[test]
    fn peek_does_not_count() {
        let c = ResultCache::new();
        c.insert("k".into(), "v".into());
        assert!(c.peek("k").is_some());
        assert!(c.peek("other").is_none());
        assert_eq!(c.stats(), CacheStats { hits: 0, misses: 0, entries: 1 });
    }

    #[test]
    fn identical_reinsert_is_idempotent() {
        let c = ResultCache::new();
        let a = c.insert("k".into(), "v".into());
        let b = c.insert("k".into(), "v".into());
        assert!(Arc::ptr_eq(&a, &b), "the first entry is kept and shared");
        assert_eq!(c.stats().entries, 1);
    }

    #[test]
    fn conflicting_reinsert_panics() {
        let c = ResultCache::new();
        c.insert("k".into(), "v1".into());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.insert("k".into(), "v2".into());
        }));
        assert!(r.is_err(), "divergent bytes for one key must be loud");
    }
}
