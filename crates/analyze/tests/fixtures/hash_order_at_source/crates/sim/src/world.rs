//! Fixture: a substrate caller of the hash-order reader. Banning the
//! source leaves nothing to flag at the call site.

pub fn step() {
    first_key();
}
