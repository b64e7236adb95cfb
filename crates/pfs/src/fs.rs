//! The simulated parallel filesystem: ties together striping, servers,
//! the write-back cache, and per-client injection links, and prices
//! every operation in virtual time.
//!
//! Cost structure of a write (read is symmetric):
//!
//! 1. per-call client software overhead (`client_request_overhead`) —
//!    this is what caps 1 kB-chunk patterns on every system in Fig. 4;
//! 2. client injection link occupancy (`len / client_mbps`) — this is
//!    what makes b_eff_io scale with the number of SP nodes in Fig. 3;
//! 3. non-wellformed penalties: a write whose boundaries are not
//!    `disk_block`-aligned stages partial blocks (write amplification),
//!    and *rewriting* interior data unaligned additionally stalls on a
//!    synchronous block fetch (read-modify-write);
//! 4. the cache absorbs what fits (memory speed) and throttles the rest
//!    to the aggregate server drain bandwidth — this is what makes the
//!    T3E's I/O a "global resource" that 8 clients already saturate;
//! 5. without a cache, extents go to the striped servers directly, each
//!    paying `server_request_overhead` (seek) per extent.
//!
//! ## One ledger per filesystem
//!
//! Everything a call books against — the next-free time of every client
//! link, of the channel and of every server, the degradation factors,
//! the cache's dirty and LRU accounting — and every file — its name,
//! size, residency stamps and stored bytes — is plain state in one
//! `Ledger` behind one lock, `pfs.ledger` (the I/O twin of
//! `sim::LinkLedger`, and sound for the same reason: one simulated rank
//! runs at a time). Every call takes it **once**; a world whose ranks
//! share one host thread holds it for the whole run ([`Pfs::claim`]),
//! so there a call takes no atomic lock at all. Next-free times are
//! booked with [`beff_netsim::resource::book`], the arithmetic
//! `Resource::reserve_span` runs: a priced call equals, bit for bit,
//! the one composed from a `Resource` per client, channel and server,
//! which `tests/ledger.rs` keeps as the oracle.
//!
//! A file's residency stamps live in pages that the ledger drops once
//! they have aged out of the cache ([`crate::file`]). The ledger sweeps
//! for such pages at most once per half cache of traffic (by the
//! cache's LRU clock), so what residency holds stays within about one
//! and a half caches' worth of stamped pages: bounded by `cache_bytes`,
//! not by the bytes a run wrote.
//!
//! Consistency note: reads return bytes another client wrote only if
//! the read is ordered after the write by MPI synchronization (barrier,
//! sync, collective). That is exactly the MPI-IO consistency model, and
//! the b_eff_io access phases respect it.

use crate::cache::Cache;
use crate::config::PfsConfig;
use crate::file::{FileState, FsFile};
use crate::server::{occupy, Server};
use crate::stripe;
use beff_netsim::{Secs, MB};
use beff_sync::{Claim, Mutex, Rank};
use std::collections::BTreeMap;

/// Lock-hierarchy position of the ledger (DESIGN.md §8).
static LEDGER_RANK: Rank = Rank::new(64, "pfs.ledger");

/// Payload of a write: real bytes (store-data mode) or just a length.
#[derive(Debug, Clone, Copy)]
pub enum DataRef<'a> {
    Bytes(&'a [u8]),
    Len(u64),
}

impl DataRef<'_> {
    #[inline]
    pub fn len(&self) -> u64 {
        match self {
            DataRef::Bytes(b) => b.len() as u64,
            DataRef::Len(n) => *n,
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The filesystem.
pub struct Pfs {
    cfg: PfsConfig,
    client_byte_time: Secs,
    channel_byte_time: Secs,
    ledger: Mutex<Ledger>,
}

/// What priced calls book against (module doc).
struct Ledger {
    /// Next-free time of each client's injection link, and of the
    /// shared I/O channel: the aggregate ceiling for all client traffic.
    clients: Vec<Secs>,
    channel: Secs,
    servers: Vec<Server>,
    cache: Cache,
    /// Every file opened so far, by the slot its [`FsFile`] handles
    /// name, and the slot of each name that exists.
    files: Vec<FileState>,
    names: BTreeMap<String, usize>,
    /// Scratch of the call in progress, reused: bytes and first file
    /// offset per server of the range being striped; a read's miss runs.
    bytes: Vec<u64>,
    starts: Vec<u64>,
    runs: Vec<(u64, u64)>,
    /// Cache traffic between two residency sweeps (half a cache), and
    /// the LRU clock from which the next one is due.
    sweep_every: u64,
    next_sweep: u64,
}

impl Ledger {
    /// After stamping: at most once per half cache of traffic, drop
    /// every residency page the cache no longer holds ([`crate::file`]).
    #[inline]
    fn age_out(&mut self) {
        let now = self.cache.clock();
        if now >= self.next_sweep {
            self.next_sweep = now + self.sweep_every;
            self.sweep();
        }
    }

    /// The sweep itself, off the per-call path.
    #[cold]
    fn sweep(&mut self) {
        let cache = &self.cache;
        for file in &mut self.files {
            file.drop_aged_pages(|stamp| cache.resident(stamp));
        }
    }

    /// One scatter-gather request per involved server (servers coalesce
    /// the stripes of a single contiguous client call), all arriving at
    /// `t`; returns `finish` pushed out to the last completion.
    fn striped(
        &mut self,
        stripe_unit: u64,
        t: Secs,
        offset: u64,
        len: u64,
        mut finish: Secs,
    ) -> Secs {
        self.bytes.fill(0);
        self.starts.fill(u64::MAX);
        stripe::sum_per_server(offset, len, stripe_unit, &mut self.bytes, &mut self.starts);
        for (s, &bytes) in self.bytes.iter().enumerate() {
            if bytes > 0 {
                finish = finish.max(self.servers[s].request_at(t, bytes, Some(self.starts[s])));
            }
        }
        finish
    }
}

impl Pfs {
    pub fn new(cfg: PfsConfig) -> Self {
        assert!(cfg.servers > 0 && cfg.clients > 0);
        assert!(cfg.stripe_unit > 0 && cfg.disk_block > 0);
        let sweep_every = (cfg.cache_bytes / 2).max(1);
        let ledger = Ledger {
            clients: vec![0.0; cfg.clients],
            channel: 0.0,
            servers: (0..cfg.servers)
                .map(|_| Server::new(cfg.server_request_overhead, cfg.server_mbps))
                .collect(),
            cache: Cache::new(&cfg),
            files: Vec::new(),
            names: BTreeMap::new(),
            bytes: vec![0; cfg.servers],
            starts: vec![u64::MAX; cfg.servers],
            runs: Vec::new(),
            sweep_every,
            next_sweep: sweep_every,
        };
        Self {
            client_byte_time: 1.0 / (cfg.client_mbps * MB as f64),
            channel_byte_time: 1.0 / (cfg.aggregate_mbps * MB as f64),
            ledger: Mutex::ranked(&LEDGER_RANK, ledger),
            cfg,
        }
    }

    pub fn config(&self) -> &PfsConfig {
        &self.cfg
    }

    /// Hold the ledger on the calling thread until the returned claim
    /// drops ([`Mutex::claim`]): every call made on this thread meanwhile
    /// takes no atomic lock, and every other thread's call waits. For a
    /// world whose ranks all run on the claiming thread.
    pub fn claim(&self) -> Claim<'_> {
        self.ledger.claim()
    }

    /// Open (creating if needed); returns the file and the completion
    /// time of the open itself.
    pub fn open(&self, path: &str, t: Secs) -> (FsFile, Secs) {
        let mut ledger = self.ledger.lock();
        let Ledger { names, files, .. } = &mut *ledger;
        let slot = match names.get(path) {
            Some(&slot) => slot,
            None => {
                files.push(FileState::default());
                names.insert(path.to_string(), files.len() - 1);
                files.len() - 1
            }
        };
        (FsFile { slot }, t + self.cfg.open_cost)
    }

    /// Close cost.
    pub fn close(&self, t: Secs) -> Secs {
        t + self.cfg.close_cost
    }

    /// Remove a file, dropping its content: a handle that outlives the
    /// unlink sees an empty file.
    pub fn unlink(&self, path: &str) {
        let mut led = self.ledger.lock();
        if let Some(slot) = led.names.remove(path) {
            led.files[slot].truncate();
        }
    }

    /// Does the file exist?
    pub fn exists(&self, path: &str) -> bool {
        self.ledger.lock().names.contains_key(path)
    }

    /// Current size of `f` in bytes.
    pub fn size(&self, f: &FsFile) -> u64 {
        self.ledger.lock().files[f.slot].size()
    }

    /// Truncate `f` to zero and drop its content and cache residency.
    pub fn truncate(&self, f: &FsFile) {
        self.ledger.lock().files[f.slot].truncate();
    }

    /// Degrade server `i` (failure injection).
    pub fn set_server_speed_factor(&self, i: usize, f: f64) {
        self.ledger.lock().servers[i].set_speed_factor(f);
    }

    /// Degrade *every* I/O server by `slowdown` (>= 1.0): the fault
    /// layer's `io_slowdown` maps here as speed factor `1 / slowdown`.
    /// The write-back cache drains through the same servers, so its
    /// drain bandwidth degrades by the same factor.
    pub fn degrade_servers(&self, slowdown: f64) {
        assert!(slowdown >= 1.0, "slowdown is a multiplier on service time");
        let mut led = self.ledger.lock();
        for s in &mut led.servers {
            s.set_speed_factor(1.0 / slowdown);
        }
        led.cache.set_drain_factor(1.0 / slowdown);
    }

    /// Enable the disk seek model on every server (0.0 disables; the
    /// calibrated machine defaults leave it off).
    pub fn set_seek_overhead(&self, seek: Secs) {
        for s in &mut self.ledger.lock().servers {
            s.set_seek_overhead(seek);
        }
    }

    fn client_inject(&self, led: &mut Ledger, client: usize, t: Secs, len: u64) -> Secs {
        let t0 = t + self.cfg.client_request_overhead;
        let on_link = len as f64 * self.client_byte_time;
        let t1 = occupy(&mut led.clients[client], t0, on_link);
        // all traffic shares the I/O channel
        occupy(&mut led.channel, t1 - on_link, len as f64 * self.channel_byte_time).max(t1)
    }

    /// Extra bytes staged for unaligned boundaries (write amplification)
    /// and whether an interior rewrite forces a synchronous block fetch.
    fn boundary_penalties(&self, size_before: u64, offset: u64, len: u64) -> (u64, u64) {
        let bs = self.cfg.disk_block;
        let mut amplified = 0u64;
        let mut rmw_fetches = 0u64;
        for b in [offset, offset + len] {
            if b % bs != 0 {
                amplified += bs;
                if b < size_before {
                    rmw_fetches += 1;
                }
            }
        }
        (amplified, rmw_fetches)
    }

    fn server_of(&self, offset: u64) -> usize {
        ((offset / self.cfg.stripe_unit) % self.cfg.servers as u64) as usize
    }

    /// Write `data` at `offset`; returns the completion time.
    pub fn write(&self, client: usize, f: &FsFile, offset: u64, data: DataRef<'_>, t: Secs) -> Secs {
        let len = data.len();
        if len == 0 {
            return t;
        }
        let mut ledger = self.ledger.lock();
        let led = &mut *ledger;
        let mut t1 = self.client_inject(led, client, t, len);

        let (amplified, rmw_fetches) =
            self.boundary_penalties(led.files[f.slot].size(), offset, len);
        if rmw_fetches > 0 {
            // synchronous partial-block fetch before the write can land
            let done = led.servers[self.server_of(offset)]
                .request(t1, rmw_fetches * self.cfg.disk_block);
            t1 = t1.max(done);
        }

        let done = if led.cache.enabled() {
            let d = led.cache.admit_write(t1, len + amplified);
            let stamp = led.cache.touch(len);
            led.files[f.slot].mark_cached(offset, len, stamp);
            led.age_out();
            d
        } else {
            led.striped(self.cfg.stripe_unit, t1, offset, len + amplified, t1)
        };

        let file = &mut led.files[f.slot];
        if self.cfg.store_data {
            if let DataRef::Bytes(b) = data {
                file.store(offset, b);
            }
        }
        file.extend_to(offset + len);
        done
    }

    /// Read up to `len` bytes at `offset` (clamped at EOF) into `out`
    /// when present; returns `(bytes_read, completion_time)`.
    pub fn read(
        &self,
        client: usize,
        f: &FsFile,
        offset: u64,
        len: u64,
        out: Option<&mut [u8]>,
        t: Secs,
    ) -> (u64, Secs) {
        let mut ledger = self.ledger.lock();
        let led = &mut *ledger;
        let len = len.min(led.files[f.slot].size().saturating_sub(offset));
        if len == 0 {
            return (0, t + self.cfg.client_request_overhead);
        }
        let t1 = self.client_inject(led, client, t, len);

        // what the cache does not hold comes from the servers
        let cached = led.cache.enabled();
        if cached {
            let cache = &led.cache;
            led.files[f.slot].miss_runs(offset, len, |stamp| cache.resident(stamp), &mut led.runs);
        } else {
            led.runs.clear();
            led.runs.push((offset, len));
        }
        let miss: u64 = led.runs.iter().map(|r| r.1).sum();

        let mut finish = t1 + led.cache.transfer_time(len - miss);
        // read amplification: a disk block per unaligned run boundary
        let bs = self.cfg.disk_block;
        let staged = |b: u64| if b % bs != 0 { bs } else { 0 };
        for i in 0..led.runs.len() {
            let (roff, rlen) = led.runs[i];
            let extra = staged(roff) + staged(roff + rlen);
            finish = led.striped(self.cfg.stripe_unit, t1, roff, rlen + extra, finish);
        }

        if cached && miss > 0 {
            let stamp = led.cache.touch(miss);
            let file = &mut led.files[f.slot];
            for &(roff, rlen) in &led.runs {
                file.mark_cached(roff, rlen, stamp);
            }
            led.age_out();
        }

        if self.cfg.store_data {
            if let Some(buf) = out {
                let n = len as usize;
                assert!(buf.len() >= n, "read buffer too small");
                led.files[f.slot].load(offset, &mut buf[..n]);
            }
        }
        (len, finish)
    }

    /// Flush all dirty cached data to disk (`MPI_File_sync` backend).
    pub fn sync(&self, t: Secs) -> Secs {
        self.ledger.lock().cache.sync(t)
    }

    /// Dirty bytes the cache still holds at `t` (diagnostics / tests).
    pub fn dirty_at(&self, t: Secs) -> f64 {
        self.ledger.lock().cache.dirty_at(t)
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "a test drives one filesystem from concurrent client threads"
)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn pfs(cfg: PfsConfig) -> Pfs {
        Pfs::new(cfg)
    }

    fn base_cfg() -> PfsConfig {
        PfsConfig {
            clients: 4,
            servers: 4,
            stripe_unit: 64 * 1024,
            disk_block: 16 * 1024,
            server_request_overhead: 1e-3,
            server_mbps: 25.0,
            client_request_overhead: 100e-6,
            client_mbps: 200.0,
            aggregate_mbps: 10_000.0,
            cache_bytes: 0,
            cache_mbps: 400.0,
            open_cost: 0.0,
            close_cost: 0.0,
            store_data: true,
        }
    }

    #[test]
    fn sweeps_are_due_once_per_half_cache() {
        let p = pfs(PfsConfig { cache_bytes: MB, ..base_cfg() }); // sweep every 512 kB
        let mut led = p.ledger.lock();
        let mut swept = |len| {
            led.cache.touch(len);
            let due = led.next_sweep;
            led.age_out();
            led.next_sweep != due
        };
        assert!(!swept(512 * 1024 - 1));
        assert!(swept(1));
        assert!(!swept(1));
        assert!(swept(512 * 1024 - 1));
        assert!(swept(4 * MB)); // a long stretch owes one sweep, not eight
        assert!(!swept(1));
    }

    #[test]
    fn open_is_idempotent() {
        let p = pfs(base_cfg());
        let (a, t) = p.open("f", 0.0);
        let t = p.write(0, &a, 0, DataRef::Len(10), t);
        let (b, _) = p.open("f", t);
        assert_eq!(a, b);
        assert_eq!(p.size(&b), 10);
        assert!(p.exists("f"));
        p.unlink("f");
        assert!(!p.exists("f"));
        let (c, _) = p.open("f", t);
        assert_ne!(a, c, "a name made again is a new file");
        assert_eq!(p.size(&c), 0);
    }

    #[test]
    fn truncate_empties_the_file_for_every_handle() {
        let p = pfs(base_cfg());
        let (a, t) = p.open("f", 0.0);
        let t = p.write(0, &a, 0, DataRef::Bytes(b"data"), t);
        let (b, _) = p.open("f", t);
        p.truncate(&b);
        assert_eq!(p.size(&a), 0);
        let mut out = [9u8; 4];
        assert_eq!(p.read(0, &a, 0, 4, Some(&mut out), t).0, 0);
    }

    #[test]
    fn write_then_read_roundtrips_data() {
        let p = pfs(base_cfg());
        let (f, t) = p.open("f", 0.0);
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 256) as u8).collect();
        let t = p.write(0, &f, 0, DataRef::Bytes(&data), t);
        let mut out = vec![0u8; data.len()];
        let (n, _t2) = p.read(1, &f, 0, data.len() as u64, Some(&mut out), t);
        assert_eq!(n, data.len() as u64);
        assert_eq!(out, data);
    }

    #[test]
    fn read_clamps_at_eof() {
        let p = pfs(base_cfg());
        let (f, t) = p.open("f", 0.0);
        let t = p.write(0, &f, 0, DataRef::Len(1000), t);
        let (n, _) = p.read(0, &f, 500, 10_000, None, t);
        assert_eq!(n, 500);
        let (n, _) = p.read(0, &f, 5000, 10, None, t);
        assert_eq!(n, 0);
    }

    #[test]
    fn large_write_is_striped_across_servers() {
        // 4 servers at 25 MB/s: a 100 MB write should take ~1 s, not 4.
        let p = pfs(base_cfg());
        let (f, _) = p.open("f", 0.0);
        let done = p.write(0, &f, 0, DataRef::Len(100 * MB), 0.0);
        assert!(done > 0.8 && done < 1.6, "done={done}");
    }

    #[test]
    fn single_server_is_four_times_slower() {
        let cfg = PfsConfig { servers: 1, ..base_cfg() };
        let p = pfs(cfg);
        let (f, _) = p.open("f", 0.0);
        let done = p.write(0, &f, 0, DataRef::Len(100 * MB), 0.0);
        assert!(done > 3.5 && done < 5.0, "done={done}");
    }

    #[test]
    fn per_request_overhead_dominates_small_chunks() {
        // 1 kB chunks, 1 ms server overhead and 0.1 ms client overhead:
        // bandwidth must collapse vs 1 MB chunks.
        let p = pfs(base_cfg());
        let (f, _) = p.open("f", 0.0);
        let mut t = 0.0;
        let mut off = 0u64;
        for _ in 0..100 {
            t = p.write(0, &f, off, DataRef::Len(1024), t);
            off += 1024;
        }
        let small_bw = (100.0 * 1024.0) / t / MB as f64;

        let p2 = pfs(base_cfg());
        let (f2, _) = p2.open("f", 0.0);
        let mut t2 = 0.0;
        let mut off2 = 0u64;
        for _ in 0..100 {
            t2 = p2.write(0, &f2, off2, DataRef::Len(MB), t2);
            off2 += MB;
        }
        let big_bw = (100.0 * MB as f64) / t2 / MB as f64;
        assert!(big_bw > 20.0 * small_bw, "big={big_bw} small={small_bw}");
    }

    #[test]
    fn cache_makes_rewrite_and_read_fast_until_it_spills() {
        let cfg = PfsConfig { cache_bytes: 64 * MB, ..base_cfg() };
        let p = pfs(cfg);
        let (f, _) = p.open("f", 0.0);
        // 16 MB fits in cache: client link (0.08 s) + memory-speed
        // admit (0.04 s) — far below the ~0.64 s disk would take
        let done = p.write(0, &f, 0, DataRef::Len(16 * MB), 0.0);
        assert!(done < 0.2, "cached write done={done}");
        // read it back: cache hit, also fast
        let (_, rdone) = p.read(0, &f, 0, 16 * MB, None, done);
        assert!(rdone - done < 0.2, "cached read {}", rdone - done);
        // sync waits until all 16 MB are on disk; at 100 MB/s aggregate
        // drain the data cannot be durable before t = 0.16 s
        let sdone = p.sync(rdone);
        assert!(sdone >= rdone, "sync never completes early");
        assert!(sdone >= 16.0 / 100.0, "durable no earlier than drain allows: {sdone}");
        assert_eq!(p.dirty_at(sdone), 0.0);
    }

    #[test]
    fn uncached_read_is_disk_speed() {
        let cfg = PfsConfig { cache_bytes: 8 * MB, ..base_cfg() };
        let p = pfs(cfg);
        let (f, _) = p.open("f", 0.0);
        // write 64 MB: far beyond cache, so most of it is not resident
        let t = p.write(0, &f, 0, DataRef::Len(64 * MB), 0.0);
        let t = p.sync(t);
        let (_, done) = p.read(0, &f, 0, 32 * MB, None, t);
        let bw = 32.0 / (done - t);
        assert!(bw < 150.0, "read must not exceed disk+overlap speeds: {bw} MB/s");
    }

    #[test]
    fn unaligned_interior_rewrite_pays_rmw() {
        let p = pfs(base_cfg());
        let (f, _) = p.open("f", 0.0);
        let t = p.write(0, &f, 0, DataRef::Len(MB), 0.0);
        // aligned rewrite of 32 kB
        let a0 = t;
        let a1 = p.write(0, &f, 0, DataRef::Len(32 * 1024), a0);
        // unaligned rewrite of the same size
        let b1 = p.write(0, &f, 8 + 64 * 1024, DataRef::Len(32 * 1024), a1);
        let aligned_cost = a1 - a0;
        let unaligned_cost = b1 - a1;
        assert!(
            unaligned_cost > 1.5 * aligned_cost,
            "aligned={aligned_cost} unaligned={unaligned_cost}"
        );
    }

    #[test]
    fn degraded_server_slows_striped_write() {
        let p = pfs(base_cfg());
        let (f, _) = p.open("f", 0.0);
        let healthy = p.write(0, &f, 0, DataRef::Len(64 * MB), 0.0);
        p.set_server_speed_factor(0, 0.1);
        let t1 = p.write(0, &f, 0, DataRef::Len(64 * MB), healthy) - healthy;
        assert!(t1 > 2.0 * healthy, "degraded write must straggle: {t1} vs {healthy}");
    }

    #[test]
    fn concurrent_clients_share_servers() {
        let p = Arc::new(pfs(base_cfg()));
        let mut finishes = Vec::new();
        std::thread::scope(|s| {
            let hs: Vec<_> = (0..4)
                .map(|c| {
                    let p = Arc::clone(&p);
                    s.spawn(move || {
                        let (f, _) = p.open(&format!("f{c}"), 0.0);
                        p.write(c, &f, 0, DataRef::Len(25 * MB), 0.0)
                    })
                })
                .collect();
            for h in hs {
                finishes.push(h.join().unwrap());
            }
        });
        // 4 clients x 25 MB over 100 MB/s aggregate ≈ 1 s for the last
        let max = finishes.iter().cloned().fold(0.0f64, f64::max);
        assert!(max > 0.8, "servers must be shared: {finishes:?}");
    }

    #[test]
    fn zero_length_ops_are_cheap_and_safe() {
        let p = pfs(base_cfg());
        let (f, t) = p.open("f", 0.0);
        assert_eq!(p.write(0, &f, 0, DataRef::Len(0), t), t);
        let (n, _) = p.read(0, &f, 0, 0, None, t);
        assert_eq!(n, 0);
    }
}
