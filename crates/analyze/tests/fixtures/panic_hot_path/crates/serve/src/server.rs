//! Fixture: a serve entry point (`submit`) whose request path reaches
//! a bare `unwrap()` two files away.

static DRAIN_RANK: Rank = Rank::new(13, "serve.drain");

pub fn submit() {
    decode_frame();
}

pub fn admit() {
    let d = drain.lock();
}
