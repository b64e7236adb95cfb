//! Fixture: legal hash-ordered iteration in `beff-sync` (not a
//! deterministic crate) — its order is the process-random hasher's.

pub fn first_key() -> u64 {
    let m = HashMap::new();
    0
}
