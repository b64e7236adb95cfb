//! Fixture: a deterministic crate calling across the boundary into the
//! hash-order reader — the taint pass must flag the call site.

pub fn step() {
    first_key();
}
