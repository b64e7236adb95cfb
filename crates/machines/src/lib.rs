//! # beff-machines
//!
//! Calibrated models of the paper's evaluation systems. Each
//! [`Machine`] bundles a network topology + cost parameters and (where
//! the paper evaluates I/O) a parallel-filesystem configuration,
//! together with the memory sizes that set `L_max` and `M_PART` and the
//! Linpack `R_max` for the balance factor.
//!
//! Absolute numbers are calibrations of our models against the paper's
//! published tables — close in shape, not bit-exact (see
//! EXPERIMENTS.md). The per-machine modules document each calibration
//! target.

pub mod ibm_sp;
pub mod machine;
pub mod paper;
pub mod sr8000;
pub mod t3e;
pub mod vector;

pub use ibm_sp::ibm_sp;
pub use machine::Machine;
pub use paper::{table1_paper, Table1Row, SP_IO_CLAIM, T3E_IO_CLAIM};
pub use sr8000::{sr8000_rr, sr8000_seq};
pub use t3e::t3e;
pub use vector::{hpv, sr2201, sv1, sx4, sx5};

use std::sync::OnceLock;

/// Every modeled machine.
pub fn catalog() -> Vec<Machine> {
    vec![
        t3e(),
        sr8000_rr(),
        sr8000_seq(),
        sr2201(),
        sx5(),
        sx4(),
        hpv(),
        sv1(),
        ibm_sp(),
    ]
}

/// Look a machine up by its short key, in a catalog built once per
/// process (the daemon resolves every query against it).
pub fn by_key(key: &str) -> Option<Machine> {
    static CATALOG: OnceLock<Vec<Machine>> = OnceLock::new();
    // A call, not the fn value: beff-analyze's call graph (panicflow)
    // follows calls only.
    #[allow(clippy::redundant_closure)]
    let all = CATALOG.get_or_init(|| catalog());
    all.iter().find(|m| m.key == key).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_keys_are_unique() {
        let cat = catalog();
        let mut keys: Vec<_> = cat.iter().map(|m| m.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), cat.len());
    }

    #[test]
    fn by_key_finds_everything() {
        for m in catalog() {
            assert_eq!(by_key(m.key).unwrap().name, m.name);
        }
        assert!(by_key("nonexistent").is_none());
    }

    #[test]
    fn io_machines_cover_fig3_to_5() {
        for key in ["t3e", "ibm-sp", "sr8000-rr", "sx5"] {
            let m = by_key(key).unwrap();
            assert!(m.io.is_some(), "{key} needs an I/O model");
        }
    }

    /// A booking prices from the ledger record, cost queries from the
    /// link's public fields: two copies of one construction-time value.
    #[test]
    fn link_records_carry_the_links_public_terms() {
        for m in catalog().iter().filter(|m| ["t3e", "sr8000-rr"].contains(&m.key)) {
            let (key, procs) = (m.key, 64);
            let net = m.sized_for(procs).network();
            assert!(net.links().len() > 2 * procs, "{key}");
            for (l, link) in net.links().iter().enumerate() {
                let (latency, byte_time) = net.ledger().booked_terms(l);
                assert_eq!(latency.to_bits(), link.latency.to_bits(), "{key} link {l}");
                assert_eq!(byte_time.to_bits(), link.byte_time.to_bits(), "{key} link {l}");
            }
        }
    }

    #[test]
    fn networks_instantiate_for_all() {
        for m in catalog() {
            assert_eq!(m.network().procs(), m.procs, "{}", m.key);
        }
    }
}
