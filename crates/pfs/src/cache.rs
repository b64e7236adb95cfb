//! The filesystem write-back cache model.
//!
//! Mechanisms (each one reproduces a phenomenon the paper discusses in
//! §5.4):
//!
//! * **write-behind**: writes are absorbed at memory speed while the
//!   cache has room; dirty data drains to disk at the aggregate server
//!   bandwidth in the background. A benchmark whose file fits in the
//!   cache therefore reports bandwidths above disk speed — the NEC
//!   SX-5 anecdote (cached results above hardware peak).
//! * **admission throttling**: when a write does not fit, it stalls
//!   until drain frees room, so sustained writes asymptote to disk
//!   bandwidth.
//! * **read caching with LRU-by-budget**: a read hits the cache if the
//!   bytes were accessed within the last `cache_bytes` of unique cache
//!   traffic (a clock approximation of LRU). Short runs (T = 10 min)
//!   re-read cached data; long runs (T = 30 min) do not — Fig. 3's
//!   T-dependence.
//! * **`sync` waits for drain** — the `MPI_File_sync` at the end of
//!   every write pattern.

use crate::config::PfsConfig;
use beff_netsim::{Secs, MB};

/// Cache block granularity for hit/miss bookkeeping.
pub const CACHE_BLOCK: u64 = 64 * 1024;

/// Write-back cache of one filesystem. Plain state: part of the
/// filesystem's ledger ([`crate::fs`]), touched only under that lock.
#[derive(Debug)]
pub struct Cache {
    capacity: f64,
    cache_byte_time: Secs,
    drain_rate: f64, // bytes/sec, healthy servers
    /// Multiplier on `drain_rate`: the drain goes *through* the
    /// servers, so degrading them (fault injection) slows it too.
    drain_factor: f64,
    /// Dirty bytes not yet on disk.
    dirty: f64,
    /// Virtual time of the last dirty-accounting update.
    last: Secs,
    /// Cumulative unique bytes that have entered the cache (LRU clock).
    cum: u64,
}

impl Cache {
    pub fn new(cfg: &PfsConfig) -> Self {
        Self {
            capacity: cfg.cache_bytes as f64,
            cache_byte_time: 1.0 / (cfg.cache_mbps * MB as f64),
            drain_rate: cfg.drain_bytes_per_sec(),
            drain_factor: 1.0,
            dirty: 0.0,
            last: 0.0,
            cum: 0,
        }
    }

    /// Current effective drain rate (bytes/sec).
    fn rate(&self) -> f64 {
        self.drain_rate * self.drain_factor
    }

    /// Scale the drain bandwidth by `f` (e.g. `1 / slowdown` when the
    /// servers are degraded). `f = 1.0` restores the healthy rate.
    pub fn set_drain_factor(&mut self, f: f64) {
        assert!(f > 0.0 && f.is_finite(), "drain factor must be a positive scale");
        self.drain_factor = f;
    }

    pub fn enabled(&self) -> bool {
        self.capacity > 0.0
    }

    fn drain_to(&mut self, t: Secs) {
        if t > self.last {
            self.dirty = (self.dirty - (t - self.last) * self.rate()).max(0.0);
            self.last = t;
        }
    }

    /// Admit a write of `len` bytes at time `t`; returns the completion
    /// time. Stalls (in virtual time) until drain frees room.
    pub fn admit_write(&mut self, t: Secs, len: u64) -> Secs {
        self.drain_to(t);
        let len_f = len as f64;
        let free = self.capacity - self.dirty;
        let start = if len_f <= free {
            t
        } else {
            // wait until drain makes room (a huge request effectively
            // streams at drain rate)
            t + (len_f - free) / self.rate()
        };
        let done = start + len_f * self.cache_byte_time;
        self.drain_to(done);
        self.dirty = (self.dirty + len_f).min(self.capacity.max(len_f));
        self.last = self.last.max(done);
        done
    }

    /// Wait until all dirty data is on disk; returns completion time.
    pub fn sync(&mut self, t: Secs) -> Secs {
        self.drain_to(t);
        let done = t + self.dirty / self.rate();
        self.dirty = 0.0;
        self.last = done;
        done
    }

    /// Account `len` freshly-cached bytes and return the LRU clock
    /// value to stamp them with (the clock value *before* this access:
    /// a block is evicted once `cache_bytes` further bytes have entered
    /// since it began caching).
    pub fn touch(&mut self, len: u64) -> u64 {
        let stamp = self.cum;
        self.cum += len;
        stamp
    }

    /// Is a block stamped `stamp` still resident?
    #[inline]
    pub fn resident(&self, stamp: u64) -> bool {
        (self.cum - stamp) as f64 <= self.capacity
    }

    /// Time to move `len` bytes at cache (memory) speed.
    #[inline]
    pub fn transfer_time(&self, len: u64) -> Secs {
        len as f64 * self.cache_byte_time
    }

    /// Current dirty bytes (diagnostics / tests).
    pub fn dirty_at(&mut self, t: Secs) -> f64 {
        self.drain_to(t);
        self.dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity_mb: u64, cache_mbps: f64, servers: usize, server_mbps: f64) -> Cache {
        Cache::new(&PfsConfig {
            cache_bytes: capacity_mb * MB,
            cache_mbps,
            servers,
            server_mbps,
            ..PfsConfig::default()
        })
    }

    #[test]
    fn small_write_at_memory_speed() {
        let mut c = cache(100, 100.0, 1, 10.0);
        let done = c.admit_write(0.0, 10 * MB);
        assert!((done - 0.1).abs() < 1e-9, "done={done}");
    }

    #[test]
    fn oversized_write_throttles_to_drain_rate() {
        let mut c = cache(10, 1000.0, 1, 10.0); // 10 MB cache, 10 MB/s drain
        let done = c.admit_write(0.0, 110 * MB);
        // 100 MB over capacity at 10 MB/s drain = ~10 s stall
        assert!(done > 9.0, "done={done}");
    }

    #[test]
    fn drain_frees_room_over_time() {
        let mut c = cache(10, 1000.0, 1, 10.0);
        c.admit_write(0.0, 10 * MB); // cache now full
        // ten seconds later everything has drained
        assert!(c.dirty_at(20.0) == 0.0);
        let done = c.admit_write(20.0, MB);
        assert!(done - 20.0 < 0.01, "no stall expected, done={done}");
    }

    #[test]
    fn sync_waits_for_dirty() {
        let mut c = cache(100, 1000.0, 1, 10.0);
        c.admit_write(0.0, 50 * MB);
        let done = c.sync(0.1);
        // ~49 MB still dirty at t=0.1, at 10 MB/s → ~4.9 s
        assert!(done > 4.0 && done < 6.0, "done={done}");
        assert_eq!(c.dirty_at(done), 0.0);
    }

    #[test]
    fn residency_follows_lru_budget() {
        let mut c = cache(1, 1000.0, 1, 10.0); // 1 MB capacity
        let stamp = c.touch(512 * 1024);
        assert!(c.resident(stamp));
        c.touch(512 * 1024); // budget now exactly at capacity
        assert!(c.resident(stamp));
        c.touch(1); // one byte beyond
        assert!(!c.resident(stamp));
    }

    #[test]
    fn disabled_cache_reports_disabled() {
        let c = cache(0, 1000.0, 1, 10.0);
        assert!(!c.enabled());
    }

    #[test]
    fn sustained_writes_asymptote_to_drain_bandwidth() {
        let mut c = cache(8, 1000.0, 4, 25.0); // 100 MB/s drain
        let mut t = 0.0;
        let total = 1000 * MB;
        let chunk = 8 * MB;
        let mut written = 0;
        while written < total {
            t = c.admit_write(t, chunk);
            written += chunk;
        }
        t = c.sync(t);
        let mbps = total as f64 / MB as f64 / t;
        assert!((80.0..=110.0).contains(&mbps), "sustained {mbps} MB/s");
    }
}
