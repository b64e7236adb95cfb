//! MPI-IO hints (the `info` argument): collective-buffering controls.
//!
//! The paper's §5.3 notes that pattern-specific hints can drastically
//! change performance; these knobs are also what the two-phase ablation
//! benches flip.

use beff_json::{Json, ToJson};

/// Collective-buffering / two-phase I/O hints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hints {
    /// Enable two-phase collective optimization (ROMIO `romio_cb_write`).
    pub cb_enable: bool,
    /// Aggregate buffer size per exchange round (`cb_buffer_size`).
    pub cb_buffer_size: u64,
    /// Number of aggregator ranks (`cb_nodes`); 0 = all ranks.
    pub cb_nodes: usize,
    /// Run the exchange even when every rank's request is already a
    /// single contiguous extent (emulates naive collective
    /// implementations like the SP prototype in the paper's Fig. 4,
    /// where segmented-collective was 10x slower than non-collective).
    pub force_two_phase: bool,
    /// Data sieving for noncollective noncontiguous *reads*
    /// (ROMIO `romio_ds_read`; on by default).
    pub ds_read: bool,
    /// Sieving window size (`ind_rd_buffer_size`).
    pub ds_buffer_size: u64,
}

impl Default for Hints {
    fn default() -> Self {
        Self {
            cb_enable: true,
            cb_buffer_size: 4 * 1024 * 1024,
            cb_nodes: 0,
            force_two_phase: false,
            ds_read: true,
            ds_buffer_size: 4 * 1024 * 1024,
        }
    }
}

impl ToJson for Hints {
    fn to_json(&self) -> Json {
        Json::object()
            .field("cb_enable", &self.cb_enable)
            .field("cb_buffer_size", &self.cb_buffer_size)
            .field("cb_nodes", &self.cb_nodes)
            .field("force_two_phase", &self.force_two_phase)
            .field("ds_read", &self.ds_read)
            .field("ds_buffer_size", &self.ds_buffer_size)
            .build()
    }
}

impl Hints {
    /// Effective number of aggregators for a communicator of `n` ranks.
    pub fn aggregators(&self, n: usize) -> usize {
        if self.cb_nodes == 0 || self.cb_nodes > n {
            n
        } else {
            self.cb_nodes
        }
    }

    /// Hints with collective buffering disabled entirely.
    pub fn no_collective_buffering() -> Self {
        Self { cb_enable: false, ..Self::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregators_clamped_to_comm_size() {
        let h = Hints { cb_nodes: 8, ..Hints::default() };
        assert_eq!(h.aggregators(4), 4);
        assert_eq!(h.aggregators(16), 8);
        let all = Hints::default();
        assert_eq!(all.aggregators(5), 5);
    }

    #[test]
    fn default_enables_cb() {
        assert!(Hints::default().cb_enable);
        assert!(!Hints::no_collective_buffering().cb_enable);
    }

    #[test]
    fn sieving_defaults_follow_romio() {
        let h = Hints::default();
        assert!(h.ds_read);
        assert!(h.ds_buffer_size > 0);
    }
}
