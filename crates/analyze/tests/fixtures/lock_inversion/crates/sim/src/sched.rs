//! Fixture: cross-function lock-order inversion. `grant_turn` holds
//! `sched.state` (level 40) while calling into `shard.rs`, which
//! acquires `shard.state` (level 25) — a decreasing acquisition that
//! only an interprocedural walk can see.

static STATE_RANK: Rank = Rank::new(40, "sched.state");

pub fn grant_turn() {
    let g = inner.lock();
    flush_outbox();
}
