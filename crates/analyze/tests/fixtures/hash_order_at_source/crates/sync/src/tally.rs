//! Fixture: a hash-ordered container in `beff-sync`. The ban covers
//! every crate, so it fires here, at the source.

pub fn first_key() -> u64 {
    let m = HashMap::new();
    0
}
