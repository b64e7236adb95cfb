//! The durable result journal: crash-safe persistence for the
//! content-addressed cache.
//!
//! The in-memory [`ResultCache`](crate::ResultCache) dies with the
//! process; the journal is its append-only on-disk shadow. Every
//! freshly computed `(canonical-key, result-bytes)` pair is appended
//! as one checksummed record, and on startup the daemon replays the
//! file to warm the cache — a kill-and-restart serves every
//! previously-computed spec from disk, byte-identically, without
//! recomputation.
//!
//! ## Format
//!
//! ```text
//! file   := magic record*
//! magic  := "BEFFJRN1"                      (8 bytes)
//! record := key_len   u32 be                (4 bytes)
//!           result_len u32 be               (4 bytes)
//!           key        UTF-8                (key_len bytes)
//!           result     UTF-8                (result_len bytes)
//!           checksum   u64 be               (8 bytes)
//! ```
//!
//! `checksum` is [`fnv1a64`] over the record bytes it seals — the two
//! length prefixes plus `key` plus `result` — so a torn tail, a bit
//! flip, and a lying length field are all detected. Both lengths are
//! capped at [`MAX_FRAME`](crate::wire::MAX_FRAME): a corrupt prefix
//! must not drive an allocation, exactly like the wire codec.
//!
//! ## Recovery discipline
//!
//! Replay is **prefix-consistent**: records are applied in order until
//! the first torn or corrupt one, which truncates the journal there —
//! typed ([`Corrupt`] inside a [`Recovery`] report), never a panic,
//! and never a partial record applied. After a truncating replay the
//! file is healed (`set_len` to the last good offset) so subsequent
//! appends extend a clean prefix. A journal whose *header* is damaged
//! mid-write (shorter than the magic) is reset to empty the same way;
//! a file that is simply not a journal (wrong magic) is refused with a
//! typed [`JournalError`] instead of being destroyed.
//!
//! Replayed records feed the cache through the same first-write-wins
//! byte-equality discipline as live inserts; a journal that contradicts
//! *itself* (two records for one key with different bytes) is treated
//! as corruption at the second record, not a panic.
//!
//! ## Reading back
//!
//! [`Journal::append`] returns the [`Extent`] the record occupies and
//! [`Journal::read`] returns that record, checksum-verified. The server
//! uses the pair to keep a journaled result out of memory until someone
//! asks for it a second time (see [`ResultCache`](crate::ResultCache)).

use crate::spec::{digest_of, fnv1a64};
use crate::wire::MAX_FRAME;
use beff_sync::{order::Rank, Mutex};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Lock level 12 (`serve.journal`): the lowest serve lock — held only
/// around one record write, never while any other lock is held (the
/// cache insert completes before the append starts); see DESIGN.md §8.
static JOURNAL_RANK: Rank = Rank::new(12, "serve.journal");

/// File magic: "BEFFJRN" + format version digit.
pub const MAGIC: &[u8; 8] = b"BEFFJRN1";

/// Why a journal could not be opened or appended to. Transport-level
/// failures stay typed values — a daemon must degrade (serve from
/// memory), not die, when its disk misbehaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// An OS-level file operation failed.
    Io { path: String, op: &'static str, error: String },
    /// The file exists but does not start with [`MAGIC`] — it is not a
    /// journal, and is refused rather than overwritten.
    BadHeader { path: String, found: String },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, op, error } => {
                write!(f, "journal {path}: {op} failed: {error}")
            }
            JournalError::BadHeader { path, found } => {
                write!(f, "journal {path}: bad header {found:?} (not a beff journal; refusing to overwrite)")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// Why replay stopped early at some record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Corrupt {
    /// The file ends inside the record (a torn final write).
    Torn { have: usize, need: usize },
    /// A length prefix exceeds the [`MAX_FRAME`] cap (a lying field).
    Oversized { field: &'static str, len: usize },
    /// The stored checksum does not seal the stored bytes.
    Checksum { want: u64, got: u64 },
    /// Key or result bytes are not UTF-8.
    BadUtf8,
    /// A second record for an already-replayed key carries different
    /// bytes — the journal contradicts itself.
    Conflict { digest: String },
    /// The header itself was torn (file shorter than the magic).
    TornHeader { have: usize },
}

impl fmt::Display for Corrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Corrupt::Torn { have, need } => {
                write!(f, "torn record: {have} of {need} bytes present")
            }
            Corrupt::Oversized { field, len } => {
                write!(f, "{field} length {len} exceeds the {MAX_FRAME}-byte cap")
            }
            Corrupt::Checksum { want, got } => {
                write!(f, "checksum mismatch: stored {want:#018x}, computed {got:#018x}")
            }
            Corrupt::BadUtf8 => write!(f, "record bytes are not valid UTF-8"),
            Corrupt::Conflict { digest } => {
                write!(f, "conflicting duplicate record for key digest {digest}")
            }
            Corrupt::TornHeader { have } => {
                write!(f, "torn header: {have} of {} magic bytes present", MAGIC.len())
            }
        }
    }
}

/// Where and why a replay truncated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Truncation {
    /// Byte offset of the first bad record (= the healed file length).
    pub offset: u64,
    /// Index of the first bad record (= number of records recovered).
    pub record: usize,
    pub reason: Corrupt,
}

impl fmt::Display for Truncation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "journal truncated at record {} (offset {}): {}",
            self.record, self.offset, self.reason
        )
    }
}

/// What a replay found: how much survived, and whether (and why) the
/// tail was cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// Records replayed into the cache.
    pub recovered: usize,
    /// Healed file length in bytes (header + surviving records).
    pub bytes: u64,
    /// `Some` when the file held a torn or corrupt tail.
    pub truncated: Option<Truncation>,
}

/// Where one appended record lives in the journal file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    at: u64,
    len: usize,
}

/// An open journal: replayed once at [`open`](Journal::open), then
/// append-only.
pub struct Journal {
    path: PathBuf,
    /// The file, positioned at its end, and that end's offset.
    file: Mutex<(File, u64)>,
}

impl Journal {
    /// Open (or create) the journal at `path`, replaying every intact
    /// record. Returns the journal positioned for appends, the
    /// recovered `(key, result)` records in journal order, and the
    /// [`Recovery`] report. Torn or corrupt tails are healed in place;
    /// only a non-journal file or a failing filesystem is an error.
    pub fn open(path: &Path) -> Result<(Journal, Vec<(String, String)>, Recovery), JournalError> {
        let err = |op: &'static str, e: std::io::Error| JournalError::Io {
            path: path.display().to_string(),
            op,
            error: e.to_string(),
        };
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| err("open", e))?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw).map_err(|e| err("read", e))?;

        // Header: absent (fresh file) → write it; torn → heal to a
        // fresh journal; wrong → typed refusal.
        let mut truncated = None;
        if raw.is_empty() {
            file.write_all(MAGIC).map_err(|e| err("write header", e))?;
        } else if raw.len() < MAGIC.len() {
            truncated = Some(Truncation {
                offset: 0,
                record: 0,
                reason: Corrupt::TornHeader { have: raw.len() },
            });
            file.set_len(0).map_err(|e| err("heal", e))?;
            file.seek(SeekFrom::Start(0)).map_err(|e| err("seek", e))?;
            file.write_all(MAGIC).map_err(|e| err("write header", e))?;
            raw.clear();
        } else if &raw[..MAGIC.len()] != MAGIC {
            return Err(JournalError::BadHeader {
                path: path.display().to_string(),
                found: format!("{:02x?}", &raw[..MAGIC.len()]),
            });
        }

        // Records: replay until the first bad one.
        let mut records = Vec::new();
        let mut seen: BTreeMap<&str, &str> = BTreeMap::new();
        let mut offset = MAGIC.len().min(raw.len());
        if truncated.is_none() {
            while offset < raw.len() {
                match parse_record(&raw[offset..]) {
                    Ok((key, result, used)) => {
                        if let Some(prior) = seen.get(key) {
                            if *prior != result {
                                truncated = Some(Truncation {
                                    offset: offset as u64,
                                    record: records.len(),
                                    reason: Corrupt::Conflict {
                                        digest: digest_of(key),
                                    },
                                });
                                break;
                            }
                            // Identical duplicate: first write wins,
                            // nothing new to apply.
                            offset += used;
                            continue;
                        }
                        seen.insert(key, result);
                        records.push((key.to_string(), result.to_string()));
                        offset += used;
                    }
                    Err(reason) => {
                        truncated = Some(Truncation {
                            offset: offset as u64,
                            record: records.len(),
                            reason,
                        });
                        break;
                    }
                }
            }
        }

        // Heal: cut the bad tail so appends extend a clean prefix.
        // Record offsets start at the magic, so a record-level
        // truncation offset is always ≥ the header length; a healed or
        // fresh header leaves exactly the magic.
        let good: u64 = match &truncated {
            Some(Truncation { reason: Corrupt::TornHeader { .. }, .. }) => MAGIC.len() as u64,
            Some(t) => t.offset,
            None => offset.max(MAGIC.len()) as u64,
        };
        file.set_len(good).map_err(|e| err("heal", e))?;
        file.seek(SeekFrom::End(0)).map_err(|e| err("seek", e))?;

        let recovery =
            Recovery { recovered: records.len(), bytes: good, truncated };
        let journal = Journal {
            path: path.to_path_buf(),
            file: Mutex::ranked(&JOURNAL_RANK, (file, good)),
        };
        Ok((journal, records, recovery))
    }

    fn io_error(&self, op: &'static str, error: String) -> JournalError {
        JournalError::Io { path: self.path.display().to_string(), op, error }
    }

    /// Append one record, returning where it landed. The caller
    /// guarantees `key`/`result` fit the frame cap (cache keys are
    /// small; result reports are bounded by the same cap the wire
    /// refuses).
    pub fn append(&self, key: &str, result: &str) -> Result<Extent, JournalError> {
        let bytes = encode_record(key, result);
        let mut guard = self.file.lock();
        let (file, end) = &mut *guard;
        file.write_all(&bytes).map_err(|e| self.io_error("append", e.to_string()))?;
        let extent = Extent { at: *end, len: bytes.len() };
        *end += bytes.len() as u64;
        Ok(extent)
    }

    /// Read back the record an [`append`](Self::append) of this journal
    /// put at `extent`: `(key, result)`, verified against its checksum
    /// like a replayed record. The file is left positioned for appends.
    pub fn read(&self, extent: Extent) -> Result<(String, String), JournalError> {
        let mut buf = vec![0u8; extent.len];
        {
            let mut guard = self.file.lock();
            let (file, end) = &mut *guard;
            let read = file
                .seek(SeekFrom::Start(extent.at))
                .and_then(|_| file.read_exact(&mut buf));
            let back = file.seek(SeekFrom::Start(*end));
            read.and(back).map_err(|e| self.io_error("read back", e.to_string()))?;
        }
        match parse_record(&buf) {
            Ok((key, result, _)) => Ok((key.to_string(), result.to_string())),
            Err(reason) => Err(self.io_error("read back", reason.to_string())),
        }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Encode one record (lengths + bytes + sealing checksum).
pub fn encode_record(key: &str, result: &str) -> Vec<u8> {
    let klen = u32::try_from(key.len()).expect("cache keys are far below 4 GiB");
    let rlen = u32::try_from(result.len()).expect("results are capped at MAX_FRAME");
    let mut out = Vec::with_capacity(16 + key.len() + result.len());
    out.extend_from_slice(&klen.to_be_bytes());
    out.extend_from_slice(&rlen.to_be_bytes());
    out.extend_from_slice(key.as_bytes());
    out.extend_from_slice(result.as_bytes());
    let check = fnv1a64(&out);
    out.extend_from_slice(&check.to_be_bytes());
    out
}

/// Parse the first record of `buf`: `(key, result, bytes_used)`, or
/// why the bytes are not one intact record.
fn parse_record(buf: &[u8]) -> Result<(&str, &str, usize), Corrupt> {
    if buf.len() < 8 {
        return Err(Corrupt::Torn { have: buf.len(), need: 8 });
    }
    let klen = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    let rlen = u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize;
    if klen > MAX_FRAME {
        return Err(Corrupt::Oversized { field: "key", len: klen });
    }
    if rlen > MAX_FRAME {
        return Err(Corrupt::Oversized { field: "result", len: rlen });
    }
    let need = 8 + klen + rlen + 8;
    if buf.len() < need {
        return Err(Corrupt::Torn { have: buf.len(), need });
    }
    let sealed = &buf[..8 + klen + rlen];
    let got = fnv1a64(sealed);
    let mut want = [0u8; 8];
    want.copy_from_slice(&buf[8 + klen + rlen..need]);
    let want = u64::from_be_bytes(want);
    if want != got {
        return Err(Corrupt::Checksum { want, got });
    }
    let key = std::str::from_utf8(&buf[8..8 + klen]).map_err(|_| Corrupt::BadUtf8)?;
    let result =
        std::str::from_utf8(&buf[8 + klen..8 + klen + rlen]).map_err(|_| Corrupt::BadUtf8)?;
    Ok((key, result, need))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("beff-journal-tests");
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir.join(name)
    }

    fn fresh(name: &str) -> PathBuf {
        let p = scratch(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn append_then_replay_round_trips() {
        let path = fresh("round_trip.beffj");
        {
            let (j, records, rec) = Journal::open(&path).expect("fresh journal opens");
            assert!(records.is_empty());
            assert_eq!(rec, Recovery { recovered: 0, bytes: 8, truncated: None });
            j.append("k1", "{\"beff\":1.0}").expect("append");
            j.append("k2", "{\"beff\":2.0}").expect("append");
        }
        let (_, records, rec) = Journal::open(&path).expect("reopen");
        assert_eq!(rec.recovered, 2);
        assert!(rec.truncated.is_none());
        assert_eq!(records[0], ("k1".to_string(), "{\"beff\":1.0}".to_string()));
        assert_eq!(records[1], ("k2".to_string(), "{\"beff\":2.0}".to_string()));
    }

    #[test]
    fn appended_records_read_back_and_appends_resume_at_the_end() {
        let path = fresh("read_back.beffj");
        let Ok((j, _, _)) = Journal::open(&path) else { panic!("fresh journal opens") };
        let (Ok(e1), Ok(e2)) = (j.append("k1", "{\"beff\":1.0}"), j.append("k2", "")) else {
            panic!("appends succeed")
        };
        assert_eq!(j.read(e2), Ok(("k2".to_string(), String::new())));
        assert_eq!(j.read(e1), Ok(("k1".to_string(), "{\"beff\":1.0}".to_string())));
        // a read in the middle of the file must not move the append point
        assert!(j.append("k3", "three").is_ok());
        drop(j);
        let Ok((j, records, rec)) = Journal::open(&path) else { panic!("reopens") };
        assert!(rec.truncated.is_none());
        let keys: Vec<&str> = records.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["k1", "k2", "k3"]);
        // an extent of a previous life of the file is verified, not trusted
        assert!(std::fs::write(&path, vec![b'x'; rec.bytes as usize]).is_ok());
        assert!(matches!(j.read(e1), Err(JournalError::Io { op: "read back", .. })));
    }

    #[test]
    fn torn_final_record_recovers_the_prefix() {
        let path = fresh("torn.beffj");
        {
            let (j, _, _) = Journal::open(&path).expect("open");
            j.append("k1", "v1").expect("append");
            j.append("k2", "v2").expect("append");
        }
        // Tear the last record: drop its final 3 bytes.
        let len = std::fs::metadata(&path).expect("meta").len();
        let f = OpenOptions::new().write(true).open(&path).expect("reopen");
        f.set_len(len - 3).expect("tear");
        drop(f);

        let (_, records, rec) = Journal::open(&path).expect("replay survives the tear");
        assert_eq!(rec.recovered, 1, "only the intact prefix replays");
        assert_eq!(records[0].0, "k1");
        let t = rec.truncated.expect("the tear is reported");
        assert_eq!(t.record, 1);
        assert!(matches!(t.reason, Corrupt::Torn { .. }), "{:?}", t.reason);
        // Healed: the file now ends at the last good record...
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), t.offset);
        // ...and a clean reopen sees no damage at all.
        let (_, _, rec2) = Journal::open(&path).expect("reopen healed");
        assert_eq!(rec2, Recovery { recovered: 1, bytes: t.offset, truncated: None });
    }

    #[test]
    fn flipped_byte_is_a_checksum_truncation() {
        let path = fresh("flip.beffj");
        {
            let (j, _, _) = Journal::open(&path).expect("open");
            j.append("k1", "v1").expect("append");
            j.append("k2", "v2").expect("append");
        }
        let mut raw = std::fs::read(&path).expect("read");
        let second = 8 + encode_record("k1", "v1").len();
        raw[second + 9] ^= 0x01; // one payload bit of record 2
        std::fs::write(&path, &raw).expect("write corrupted");

        let (_, _, rec) = Journal::open(&path).expect("typed, not a panic");
        assert_eq!(rec.recovered, 1);
        let t = rec.truncated.expect("corruption reported");
        assert!(matches!(t.reason, Corrupt::Checksum { .. }), "{:?}", t.reason);
    }

    #[test]
    fn lying_length_field_is_refused_within_the_cap() {
        let path = fresh("lying_len.beffj");
        {
            let (j, _, _) = Journal::open(&path).expect("open");
            j.append("k1", "v1").expect("append");
        }
        let mut raw = std::fs::read(&path).expect("read");
        // Oversize the result length of an appended garbage record.
        raw.extend_from_slice(&4u32.to_be_bytes());
        raw.extend_from_slice(&(u32::MAX).to_be_bytes());
        raw.extend_from_slice(b"keyy");
        std::fs::write(&path, &raw).expect("write");
        let (_, _, rec) = Journal::open(&path).expect("typed");
        assert_eq!(rec.recovered, 1);
        assert!(matches!(
            rec.truncated.expect("reported").reason,
            Corrupt::Oversized { field: "result", .. }
        ));
    }

    #[test]
    fn conflicting_duplicate_truncates_identical_duplicate_does_not() {
        let path = fresh("dup.beffj");
        {
            let (j, _, _) = Journal::open(&path).expect("open");
            j.append("k", "v").expect("append");
            j.append("k", "v").expect("identical duplicate");
            j.append("k2", "v2").expect("append");
        }
        let (_, records, rec) = Journal::open(&path).expect("reopen");
        assert_eq!(rec.recovered, 2, "identical duplicate folds away");
        assert_eq!(records.len(), 2);
        assert!(rec.truncated.is_none());

        // Now force a conflicting duplicate.
        {
            let (j, _, _) = Journal::open(&path).expect("reopen");
            j.append("k", "DIFFERENT").expect("append");
        }
        let (_, _, rec) = Journal::open(&path).expect("typed");
        assert_eq!(rec.recovered, 2);
        assert!(matches!(
            rec.truncated.expect("conflict reported").reason,
            Corrupt::Conflict { .. }
        ));
    }

    #[test]
    fn wrong_magic_is_refused_not_destroyed() {
        let path = fresh("not_a_journal.beffj");
        std::fs::write(&path, b"definitely not a journal").expect("write");
        let Err(e) = Journal::open(&path) else { panic!("wrong magic must refuse") };
        assert!(matches!(e, JournalError::BadHeader { .. }), "{e:?}");
        assert_eq!(
            std::fs::read(&path).expect("still there"),
            b"definitely not a journal",
            "a refused file must not be modified"
        );
    }

    #[test]
    fn torn_header_heals_to_a_fresh_journal() {
        let path = fresh("torn_header.beffj");
        std::fs::write(&path, &MAGIC[..3]).expect("write partial magic");
        let (j, records, rec) = Journal::open(&path).expect("heals");
        assert!(records.is_empty());
        assert!(matches!(
            rec.truncated.expect("reported").reason,
            Corrupt::TornHeader { have: 3 }
        ));
        j.append("k", "v").expect("usable after heal");
        let (_, records, rec2) = Journal::open(&path).expect("reopen");
        assert_eq!((records.len(), rec2.truncated), (1, None));
    }

    #[test]
    fn empty_payloads_are_valid_records() {
        let path = fresh("empty.beffj");
        {
            let (j, _, _) = Journal::open(&path).expect("open");
            j.append("", "").expect("append empty");
        }
        let (_, records, rec) = Journal::open(&path).expect("reopen");
        assert_eq!(records, vec![(String::new(), String::new())]);
        assert!(rec.truncated.is_none());
    }
}
