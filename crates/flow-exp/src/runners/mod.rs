//! Per-figure experiment runners (see the crate docs for the index).
//!
//! Every runner takes an [`ExpConfig`] (seed + scale) and an
//! [`crate::Output`]; replication counts multiply with `scale` so the
//! full suite stays laptop-sized at `scale = 1` while `scale ≈ 5`
//! approaches the paper's replication levels.

pub mod ablation;
pub mod appendix;
pub mod fig01_synthetic_bucket;
pub mod fig02_attributed;
pub mod fig03_uncertainty;
pub mod fig04_impact;
pub mod fig06_timing;
pub mod fig07_rmse;
pub mod fig08_tags;
pub mod fig11_multimodal;
pub mod flow_query;
pub mod perf;
pub mod query_report;
pub mod serve;
pub mod stream;
pub mod table1;
pub mod table3;
pub mod trace_reader;
pub mod trace_report;

/// Common runner configuration.
#[derive(Clone, Copy, Debug)]
pub struct ExpConfig {
    /// Replication multiplier (1.0 = laptop defaults).
    pub scale: f64,
    /// Master seed; every runner derives its own streams from it.
    pub seed: u64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale: 1.0,
            seed: 42,
        }
    }
}

impl ExpConfig {
    /// Scales a count, with a floor.
    pub fn scaled(&self, base: usize, min: usize) -> usize {
        ((base as f64 * self.scale).round() as usize).max(min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_respects_floor_and_multiplier() {
        let c = ExpConfig {
            scale: 0.1,
            seed: 1,
        };
        assert_eq!(c.scaled(2000, 50), 200);
        assert_eq!(c.scaled(100, 50), 50);
        let big = ExpConfig {
            scale: 5.0,
            seed: 1,
        };
        assert_eq!(big.scaled(2000, 50), 10_000);
    }
}
