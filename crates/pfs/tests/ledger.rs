//! Differential oracle for the filesystem ledger: random scripts priced
//! by [`Pfs`] and by a model that composes one public [`Resource`] per
//! client link, channel and server — the per-object design the ledger
//! replaced, kept here as the reference — must agree on every
//! completion time bit for bit. The oracle keeps every residency stamp
//! it was ever given, so it also holds `Pfs`'s paged residency, which
//! drops pages once they age out of the cache, to "dropping changes no
//! answer".

use beff_check::{check, ensure_eq, Gen};
use beff_netsim::{Resource, Secs, MB};
use beff_pfs::{stripe_split, DataRef, FsFile, Pfs, PfsConfig, CACHE_BLOCK};
use std::collections::BTreeMap;

const STREAMS: usize = 16;
const STREAM_SLACK: u64 = 1024 * 1024;

struct OracleServer {
    res: Resource,
    request_overhead: Secs,
    seek_overhead: Secs,
    byte_time: Secs,
    cursor: usize,
    streams: [u64; STREAMS],
    speed_factor: f64,
}

impl OracleServer {
    fn request_at(&mut self, t: Secs, bytes: u64, offset: Option<u64>) -> Secs {
        let mut extra = 0.0;
        if self.seek_overhead > 0.0 {
            match offset {
                Some(off) => {
                    let near = |e: u64| e != u64::MAX && e.abs_diff(off) <= STREAM_SLACK;
                    if let Some(slot) = self.streams.iter().position(|&e| near(e)) {
                        self.streams[slot] = off + bytes;
                    } else {
                        extra = self.seek_overhead;
                        self.streams[self.cursor] = off + bytes;
                        self.cursor = (self.cursor + 1) % STREAMS;
                    }
                }
                None => extra = self.seek_overhead,
            }
        }
        let dur =
            (self.request_overhead + extra + bytes as f64 * self.byte_time) / self.speed_factor;
        self.res.reserve_finish(t, dur)
    }
}

struct OracleCache {
    capacity: f64,
    byte_time: Secs,
    drain_rate: f64,
    drain_factor: f64,
    dirty: f64,
    last: Secs,
    cum: u64,
}

impl OracleCache {
    fn rate(&self) -> f64 {
        self.drain_rate * self.drain_factor
    }

    fn drain_to(&mut self, t: Secs) {
        if t > self.last {
            self.dirty = (self.dirty - (t - self.last) * self.rate()).max(0.0);
            self.last = t;
        }
    }

    fn admit_write(&mut self, t: Secs, len: u64) -> Secs {
        self.drain_to(t);
        let len_f = len as f64;
        let free = self.capacity - self.dirty;
        let start = if len_f <= free { t } else { t + (len_f - free) / self.rate() };
        let done = start + len_f * self.byte_time;
        self.drain_to(done);
        self.dirty = (self.dirty + len_f).min(self.capacity.max(len_f));
        self.last = self.last.max(done);
        done
    }

    fn sync(&mut self, t: Secs) -> Secs {
        self.drain_to(t);
        let done = t + self.dirty / self.rate();
        self.dirty = 0.0;
        self.last = done;
        done
    }

    fn touch(&mut self, len: u64) -> u64 {
        let stamp = self.cum;
        self.cum += len;
        stamp
    }
}

#[derive(Default)]
struct OracleFile {
    size: u64,
    /// Residency: block index -> LRU stamp.
    cached: BTreeMap<u64, u64>,
}

impl OracleFile {
    fn mark_cached(&mut self, offset: u64, len: u64, stamp: u64) {
        for b in offset / CACHE_BLOCK..=(offset + len - 1) / CACHE_BLOCK {
            self.cached.insert(b, stamp);
        }
    }

    fn miss_runs(&self, offset: u64, len: u64, resident: impl Fn(u64) -> bool) -> Vec<(u64, u64)> {
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for b in offset / CACHE_BLOCK..=(offset + len - 1) / CACHE_BLOCK {
            if self.cached.get(&b).is_some_and(|&s| resident(s)) {
                continue;
            }
            let s = (b * CACHE_BLOCK).max(offset);
            let e = ((b + 1) * CACHE_BLOCK).min(offset + len);
            match runs.last_mut() {
                Some(r) if r.0 + r.1 == s => r.1 += e - s,
                _ => runs.push((s, e - s)),
            }
        }
        runs
    }
}

/// The filesystem as it was priced before the ledger.
struct Oracle {
    cfg: PfsConfig,
    servers: Vec<OracleServer>,
    clients: Vec<Resource>,
    channel: Resource,
    cache: OracleCache,
    files: Vec<OracleFile>,
}

impl Oracle {
    fn new(cfg: &PfsConfig, files: usize) -> Self {
        Self {
            servers: (0..cfg.servers)
                .map(|_| OracleServer {
                    res: Resource::new(),
                    request_overhead: cfg.server_request_overhead,
                    seek_overhead: 0.0,
                    byte_time: 1.0 / (cfg.server_mbps * MB as f64),
                    cursor: 0,
                    streams: [u64::MAX; STREAMS],
                    speed_factor: 1.0,
                })
                .collect(),
            clients: (0..cfg.clients).map(|_| Resource::new()).collect(),
            channel: Resource::new(),
            cache: OracleCache {
                capacity: cfg.cache_bytes as f64,
                byte_time: 1.0 / (cfg.cache_mbps * MB as f64),
                drain_rate: cfg.drain_bytes_per_sec(),
                drain_factor: 1.0,
                dirty: 0.0,
                last: 0.0,
                cum: 0,
            },
            files: (0..files).map(|_| OracleFile::default()).collect(),
            cfg: cfg.clone(),
        }
    }

    fn client_inject(&self, client: usize, t: Secs, len: u64) -> Secs {
        let client_byte_time = 1.0 / (self.cfg.client_mbps * MB as f64);
        let channel_byte_time = 1.0 / (self.cfg.aggregate_mbps * MB as f64);
        let t0 = t + self.cfg.client_request_overhead;
        let t1 = self.clients[client].reserve_finish(t0, len as f64 * client_byte_time);
        self.channel
            .reserve_finish(t1 - len as f64 * client_byte_time, len as f64 * channel_byte_time)
            .max(t1)
    }

    fn striped(&mut self, t: Secs, offset: u64, len: u64, mut finish: Secs) -> Secs {
        let mut starts = vec![u64::MAX; self.cfg.servers];
        let mut per_server = vec![0u64; self.cfg.servers];
        for e in stripe_split(offset, len, self.cfg.stripe_unit, self.cfg.servers) {
            per_server[e.server] += e.len;
            starts[e.server] = starts[e.server].min(e.file_offset);
        }
        for (s, &bytes) in per_server.iter().enumerate() {
            if bytes > 0 {
                finish = finish.max(self.servers[s].request_at(t, bytes, Some(starts[s])));
            }
        }
        finish
    }

    fn write(&mut self, client: usize, file: usize, offset: u64, len: u64, t: Secs) -> Secs {
        if len == 0 {
            return t;
        }
        let mut t1 = self.client_inject(client, t, len);
        let bs = self.cfg.disk_block;
        let (mut amplified, mut rmw_fetches) = (0u64, 0u64);
        for b in [offset, offset + len] {
            if b % bs != 0 {
                amplified += bs;
                if b < self.files[file].size {
                    rmw_fetches += 1;
                }
            }
        }
        if rmw_fetches > 0 {
            let s = ((offset / self.cfg.stripe_unit) % self.cfg.servers as u64) as usize;
            t1 = t1.max(self.servers[s].request_at(t1, rmw_fetches * bs, None));
        }
        let done = if self.cache.capacity > 0.0 {
            let d = self.cache.admit_write(t1, len + amplified);
            let stamp = self.cache.touch(len);
            self.files[file].mark_cached(offset, len, stamp);
            d
        } else {
            self.striped(t1, offset, len + amplified, t1)
        };
        let f = &mut self.files[file];
        f.size = f.size.max(offset + len);
        done
    }

    fn read(&mut self, client: usize, file: usize, offset: u64, len: u64, t: Secs) -> (u64, Secs) {
        let len = len.min(self.files[file].size.saturating_sub(offset));
        if len == 0 {
            return (0, t + self.cfg.client_request_overhead);
        }
        let t1 = self.client_inject(client, t, len);
        let cached = self.cache.capacity > 0.0;
        let (runs, hit_bytes) = if cached {
            let (cum, capacity) = (self.cache.cum, self.cache.capacity);
            let runs =
                self.files[file].miss_runs(offset, len, |s| (cum - s) as f64 <= capacity);
            let miss: u64 = runs.iter().map(|r| r.1).sum();
            (runs, len - miss)
        } else {
            (vec![(offset, len)], 0)
        };
        let mut finish = t1 + hit_bytes as f64 * self.cache.byte_time;
        let bs = self.cfg.disk_block;
        for &(roff, rlen) in &runs {
            let mut extra = 0u64;
            if roff % bs != 0 {
                extra += bs;
            }
            if (roff + rlen) % bs != 0 {
                extra += bs;
            }
            finish = self.striped(t1, roff, rlen + extra, finish);
        }
        let miss: u64 = runs.iter().map(|r| r.1).sum();
        if cached && miss > 0 {
            let stamp = self.cache.touch(miss);
            for &(roff, rlen) in &runs {
                self.files[file].mark_cached(roff, rlen, stamp);
            }
        }
        (len, finish)
    }

    fn truncate(&mut self, file: usize) {
        self.files[file] = OracleFile::default();
    }

    fn degrade_servers(&mut self, slowdown: f64) {
        for s in &mut self.servers {
            s.speed_factor = 1.0 / slowdown;
        }
        self.cache.drain_factor = 1.0 / slowdown;
    }
}

/// One filesystem and its oracle driven by the same calls, every rank
/// (client) with a clock of its own.
struct Script {
    pfs: Pfs,
    files: Vec<FsFile>,
    oracle: Oracle,
    clock: Vec<Secs>,
}

impl Script {
    fn new(cfg: &PfsConfig, n_files: usize) -> Self {
        let pfs = Pfs::new(cfg.clone());
        let files = (0..n_files).map(|i| pfs.open(&format!("f{i}"), 0.0).0).collect();
        Self { pfs, files, oracle: Oracle::new(cfg, n_files), clock: vec![0.0; cfg.clients] }
    }

    fn write(&mut self, c: usize, f: usize, offset: u64, len: u64) {
        let t = self.clock[c];
        let got = self.pfs.write(c, &self.files[f], offset, DataRef::Len(len), t);
        let want = self.oracle.write(c, f, offset, len, t);
        ensure_eq!(got.to_bits(), want.to_bits(), "write {len} B at {offset}");
        self.clock[c] = got;
        self.same_size(f);
    }

    fn read(&mut self, c: usize, f: usize, offset: u64, len: u64) {
        let t = self.clock[c];
        let got = self.pfs.read(c, &self.files[f], offset, len, None, t);
        let want = self.oracle.read(c, f, offset, len, t);
        ensure_eq!(got.0, want.0, "bytes read at {offset}");
        ensure_eq!(got.1.to_bits(), want.1.to_bits(), "read {len} B at {offset}");
        self.clock[c] = got.1;
        self.same_size(f);
    }

    fn sync(&mut self, c: usize) {
        let got = self.pfs.sync(self.clock[c]);
        ensure_eq!(got.to_bits(), self.oracle.cache.sync(self.clock[c]).to_bits(), "sync");
        self.clock[c] = got;
    }

    fn truncate(&mut self, f: usize) {
        self.pfs.truncate(&self.files[f]);
        self.oracle.truncate(f);
        self.same_size(f);
    }

    fn same_size(&self, f: usize) {
        ensure_eq!(self.pfs.size(&self.files[f]), self.oracle.files[f].size, "size of file {f}");
    }

    fn finish(mut self) {
        for (f, file) in self.files.iter().enumerate() {
            ensure_eq!(self.pfs.size(file), self.oracle.files[f].size);
        }
        let end = self.clock.iter().fold(0.0f64, |a, &t| a.max(t));
        self.oracle.cache.drain_to(end);
        let dirty = self.pfs.dirty_at(end);
        ensure_eq!(dirty.to_bits(), self.oracle.cache.dirty.to_bits(), "dirty bytes");
    }
}

fn gen_config(g: &mut Gen) -> PfsConfig {
    PfsConfig {
        clients: g.usize(1..=4),
        servers: if g.bool() { 1 } else { g.usize(2..=7) },
        stripe_unit: *g.choose(&[4096, 64 * 1024, 100_000]),
        disk_block: *g.choose(&[512, 16 * 1024]),
        server_request_overhead: g.f64(0.0, 2e-3),
        server_mbps: g.f64(5.0, 80.0),
        client_request_overhead: g.f64(0.0, 2e-4),
        client_mbps: g.f64(20.0, 400.0),
        // sometimes the shared channel is the bottleneck, sometimes not
        aggregate_mbps: g.f64(30.0, 2000.0),
        // no cache, or one small enough to spill, evict and age whole
        // residency pages out in 80 calls
        cache_bytes: if g.bool() { 0 } else { g.u64(CACHE_BLOCK..=16 * MB) },
        cache_mbps: g.f64(100.0, 1000.0),
        ..PfsConfig::default()
    }
}

#[test]
fn ledger_prices_bit_identically_to_per_object_resources() {
    check("pfs ledger equals the per-object Resource oracle", |g| {
        let cfg = gen_config(g);
        let n_files = g.usize(1..=3);
        let mut script = Script::new(&cfg, n_files);
        for _ in 0..g.usize(1..=80) {
            let c = g.usize(0..=cfg.clients - 1);
            let f = g.usize(0..=n_files - 1);
            if g.weighted(0.2) {
                script.clock[c] += g.f64(0.0, 0.05); // think time: lets the cache drain
            }
            // aligned or 8 bytes off; appending, back inside the file,
            // or far out, hundreds of MB and several residency pages on
            let size = script.pfs.size(&script.files[f]);
            let base = match g.usize(0..=6) {
                0..=2 => size,
                3..=5 => g.u64(0..=size),
                _ => size + g.u64(0..=512 * MB),
            };
            let offset = base / cfg.disk_block * cfg.disk_block + if g.bool() { 8 } else { 0 };
            let len = match g.usize(0..=8) {
                0..=3 => g.u64(1..=4096),
                4..=7 => g.u64(1..=2 * MB),
                _ => g.u64(1..=48 * MB), // across a page boundary or two
            };
            match g.usize(0..=10) {
                0..=4 => script.write(c, f, offset, len),
                5..=7 => script.read(c, f, offset, len),
                8 => script.sync(c),
                9 if g.weighted(0.3) => script.truncate(f),
                9 | 10 if g.bool() => {
                    let slowdown = g.f64(1.0, 8.0);
                    script.pfs.degrade_servers(slowdown);
                    script.oracle.degrade_servers(slowdown);
                }
                _ => {
                    let seek = if g.bool() { 0.0 } else { 7e-3 };
                    script.pfs.set_seek_overhead(seek);
                    script.oracle.servers.iter_mut().for_each(|s| s.seek_overhead = seek);
                }
            }
        }
        script.finish();
    });
}

/// Residency at the edge of the cache, across sweeps: a block whose
/// stamp is exactly `cache_bytes` old is still resident and its page
/// survives the sweep due at that moment; one byte later it is gone,
/// and the region reads from the servers and is cached afresh. A
/// truncated file keeps no residency.
#[test]
fn a_block_exactly_one_cache_old_survives_the_sweep() {
    const CACHE: u64 = 4 * MB; // a sweep due every 2 MB of traffic
    let cfg = PfsConfig {
        clients: 1,
        servers: 2,
        server_mbps: 40.0,
        cache_bytes: CACHE,
        ..PfsConfig::default()
    };
    for far in [200 * MB, 700 * MB] {
        let mut s = Script::new(&cfg, 2);
        s.write(0, 1, far, MB);
        s.write(0, 0, 0, MB); // page 0 stamped at 1 MB, then a sweep
        s.write(0, 1, far + MB, CACHE - MB); // at 1 MB + CACHE: a sweep, page 0 kept
        s.read(0, 0, 0, MB); // exactly one cache old: a hit
        s.write(0, 1, far + CACHE, 1); // one byte past
        s.read(0, 0, 0, MB); // a miss, stamped afresh
        s.write(0, 1, far + 64 * MB, 2 * CACHE); // a sweep: every page aged out
        s.read(0, 1, far, 2 * MB); // from the servers, and cached again
        s.read(0, 1, far, 2 * MB);
        s.read(0, 0, 0, MB);
        s.truncate(0);
        s.write(0, 0, 8 * MB, MB); // after truncate, page 0 holds only this
        s.read(0, 0, 0, 9 * MB);
        s.finish();
    }
}
