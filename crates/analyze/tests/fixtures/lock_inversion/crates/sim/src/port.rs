//! Fixture: the callee half of the inversion — acquires the
//! lower-ranked `sim.port` lock.

static PORT_RANK: Rank = Rank::new(30, "sim.port");

pub fn deliver() {
    let o = inner.lock();
}
