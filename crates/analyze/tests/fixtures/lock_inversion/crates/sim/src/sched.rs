//! Fixture: cross-function lock-order inversion. `grant_turn` holds
//! `sched.state` (level 40) while calling into `port.rs`, which
//! acquires `sim.port` (level 30) — a decreasing acquisition that
//! only an interprocedural walk can see.

static STATE_RANK: Rank = Rank::new(40, "sched.state");

pub fn grant_turn() {
    let g = inner.lock();
    deliver();
}
