//! One module per `beff` subcommand; `main.rs` declares them.

pub mod ablation_cache;
pub mod ablation_placement;
pub mod ablation_random;
pub mod ablation_termination;
pub mod ablation_twophase;
pub mod calibrate;
pub mod chaos;
pub mod fig1_balance;
pub mod fig3_scaling;
pub mod fig4_detail;
pub mod fig5_compare;
pub mod loadgen;
pub mod serve;
pub mod serve_torture;
pub mod storage_sweep;
pub mod table1;
pub mod table2_patterns;
pub mod top_clusters;
pub mod traffic;

/// xorshift64*: the seeded stream behind `loadgen`'s query mix and
/// `serve_torture`'s adversarial inputs. The simulation substrate's RNG
/// is not used here: the mixes are harness policy, not model behavior,
/// and the goldens pin this exact stream.
pub struct MixRng(u64);

impl MixRng {
    pub fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform-ish in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn byte(&mut self) -> u8 {
        (self.next() >> 32) as u8
    }
}
