//! Property tests for journal recovery (ISSUE 9 satellite): replaying
//! **any byte prefix** of a valid journal yields a prefix-consistent
//! cache — the complete records before the cut, in order, nothing
//! invented — with a typed truncation report exactly when the cut
//! lands inside a record (or the header), and healing is idempotent.

use beff_check::{check, Gen};
use beff_serve::journal::{encode_record, Journal};
use std::path::PathBuf;

fn scratch_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("beff-journal-props");
    std::fs::create_dir_all(&dir).expect("temp scratch is writable");
    dir.join(name)
}

fn arbitrary_text(g: &mut Gen, max_len: usize) -> String {
    let len = g.usize(0..=max_len);
    (0..len).map(|_| char::from_u32(g.u32(1..=0x024F)).expect("valid scalar")).collect()
}

#[test]
fn any_prefix_replays_to_a_prefix_consistent_cache() {
    check("any_prefix_replays_to_a_prefix_consistent_cache", |g| {
        // A valid journal of 0..=6 unique-keyed records.
        let n = g.usize(0..=6);
        let records: Vec<(String, String)> = (0..n)
            .map(|i| (format!("key-{i}-{}", arbitrary_text(g, 8)), arbitrary_text(g, 24)))
            .collect();
        let mut full = b"BEFFJRN1".to_vec();
        // Record end offsets (the valid cut points past the header).
        let mut boundaries = vec![full.len() as u64];
        for (key, result) in &records {
            full.extend_from_slice(&encode_record(key, result));
            boundaries.push(full.len() as u64);
        }

        // Cut anywhere — at a boundary, inside a record, inside the
        // header, or at zero — and replay the prefix.
        let cut = g.usize(0..=full.len());
        let path = scratch_file("prefix.journal");
        std::fs::write(&path, &full[..cut]).expect("scratch write");
        let (_j, replayed, recovery) =
            Journal::open(&path).expect("every prefix of a valid journal opens");

        // The replayed records are exactly the complete ones before
        // the cut: a strict prefix of the original, never reordered,
        // never partially applied, never invented.
        let complete = boundaries.iter().filter(|b| **b <= cut as u64).count().saturating_sub(1);
        assert_eq!(replayed.len(), complete, "cut {cut}: complete records replay");
        assert_eq!(
            replayed,
            records[..complete].to_vec(),
            "cut {cut}: replay is prefix-consistent"
        );
        assert_eq!(recovery.recovered, complete);

        // The truncation report fires exactly when the cut is torn:
        // not at zero (a fresh journal) and not on a record boundary.
        let at_boundary = cut == 0 || boundaries.contains(&(cut as u64));
        assert_eq!(
            recovery.truncated.is_some(),
            !at_boundary,
            "cut {cut}: torn iff inside a header or record"
        );

        // Healing is idempotent: a second open of the healed file
        // recovers the same records with nothing left to truncate.
        let (_j2, replayed2, recovery2) =
            Journal::open(&path).expect("a healed journal reopens clean");
        assert_eq!(replayed2, replayed, "cut {cut}: heal preserves the recovered prefix");
        assert!(recovery2.truncated.is_none(), "cut {cut}: heal leaves no torn tail");
    });
}

#[test]
fn appends_after_a_torn_recovery_replay_in_order() {
    check("appends_after_a_torn_recovery_replay_in_order", |g| {
        let path = scratch_file("append.journal");
        let _ = std::fs::remove_file(&path);
        // A journal with one intact record and a torn second one.
        let mut bytes = b"BEFFJRN1".to_vec();
        bytes.extend_from_slice(&encode_record("first", "alpha"));
        let torn = encode_record("second", "beta");
        let keep = g.usize(1..=torn.len() - 1);
        bytes.extend_from_slice(&torn[..keep]);
        std::fs::write(&path, &bytes).expect("scratch write");

        // Recover (healing the tear), then append fresh records.
        let (journal, replayed, recovery) = Journal::open(&path).expect("torn journal opens");
        assert_eq!(replayed, vec![("first".to_string(), "alpha".to_string())]);
        assert!(recovery.truncated.is_some(), "the tear is reported");
        let extra = arbitrary_text(g, 16);
        journal.append("third", &extra).expect("healed journal accepts appends");
        drop(journal);

        // The healed tail and the new record replay cleanly, in order.
        let (_j, after, recovery2) = Journal::open(&path).expect("reopens clean");
        assert!(recovery2.truncated.is_none());
        assert_eq!(
            after,
            vec![("first".to_string(), "alpha".to_string()), ("third".to_string(), extra.clone()),],
            "append lands exactly after the healed prefix"
        );
    });
}
