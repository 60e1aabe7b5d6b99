//! LTC configuration: table shape, significance weights, period driving,
//! which of the paper's optimizations are enabled, and the supervision
//! policy of the parallel runtime.

use ltc_common::{memory::LTC_CELL_BYTES, MemoryBudget, Weights};
use std::time::Duration;

/// Which optimizations are enabled (paper §III-C, §III-D).
///
/// The experiments of Figures 8 and 11 toggle these individually; everything
/// else runs the paper's default, [`Variant::FULL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Variant {
    /// Deviation Eliminator: even/odd flag pair instead of a single flag, so
    /// the CLOCK sweep harvests exactly the previous period's appearances.
    pub deviation_eliminator: bool,
    /// Long-tail Replacement: newly admitted items start from the bucket's
    /// second-smallest value minus one instead of 1.
    pub long_tail_replacement: bool,
}

impl Variant {
    /// The basic version of §III-B: single flag, initial value 1.
    pub const BASIC: Self = Self {
        deviation_eliminator: false,
        long_tail_replacement: false,
    };

    /// Both optimizations on — the paper's default configuration.
    pub const FULL: Self = Self {
        deviation_eliminator: true,
        long_tail_replacement: true,
    };

    /// Only the Deviation Eliminator (the Fig. 8 "N" baseline keeps DE on
    /// while toggling LTR).
    pub const DEVIATION_ONLY: Self = Self {
        deviation_eliminator: true,
        long_tail_replacement: false,
    };

    /// Only Long-tail Replacement (the Fig. 11 "N" baseline keeps LTR on
    /// while toggling DE).
    pub const LONG_TAIL_ONLY: Self = Self {
        deviation_eliminator: false,
        long_tail_replacement: true,
    };
}

impl Default for Variant {
    fn default() -> Self {
        Self::FULL
    }
}

/// How the CLOCK pointer is driven (paper §III-B1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeriodMode {
    /// Count-driven: each period holds `records_per_period` records; the
    /// pointer advances `m/n` slots per record.
    ByCount {
        /// Records per period (`n`).
        records_per_period: u64,
    },
    /// Time-driven: each period spans `units_per_period` timestamp units; the
    /// pointer advances `Δt·m/t` slots per record, where `Δt` is the gap to
    /// the previous record. Requires inserting via [`crate::Ltc::insert_at`].
    ByTime {
        /// Timestamp units per period (`t`).
        units_per_period: u64,
    },
}

/// Full LTC configuration. Build with [`LtcConfig::builder`] or
/// [`LtcConfig::with_memory`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LtcConfig {
    /// Number of buckets `w`.
    pub buckets: usize,
    /// Cells per bucket `d` (paper default: 8).
    pub cells_per_bucket: usize,
    /// Significance weights α, β.
    pub weights: Weights,
    /// Period driving mode.
    pub period_mode: PeriodMode,
    /// Enabled optimizations.
    pub variant: Variant,
    /// Seed for the bucket hash function.
    pub seed: u64,
}

impl LtcConfig {
    /// Start building a configuration.
    pub fn builder() -> LtcConfigBuilder {
        LtcConfigBuilder::default()
    }

    /// Size the table for a memory budget at the paper's 16 B/cell model:
    /// `w = budget / (16·d)`. All other knobs at builder defaults; chainable
    /// through the returned builder.
    pub fn with_memory(budget: MemoryBudget, cells_per_bucket: usize) -> LtcConfigBuilder {
        let cells = budget.entries(LTC_CELL_BYTES);
        let buckets = cells.checked_div(cells_per_bucket).unwrap_or(0).max(1);
        LtcConfigBuilder::default()
            .buckets(buckets)
            .cells_per_bucket(cells_per_bucket)
    }

    /// Total cells `m = w·d`.
    #[inline]
    pub fn total_cells(&self) -> usize {
        self.buckets.saturating_mul(self.cells_per_bucket)
    }
}

/// Supervision knobs for [`crate::pipeline::ParallelLtc`]: how hard the
/// coordinator tries to revive a dead shard worker before degrading the
/// shard to lossy. Workers capture their recovery checkpoint at every
/// period boundary; records since the last capture are lost on a fault
/// (and counted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Worker restarts allowed per shard before it is marked lossy.
    pub max_restarts: u32,
    /// Backoff before the first restart; doubles per subsequent restart.
    pub backoff_base: Duration,
}

/// Cap on [`FaultPolicy`]'s exponential backoff.
const BACKOFF_MAX: Duration = Duration::from_millis(500);

impl Default for FaultPolicy {
    fn default() -> Self {
        Self {
            max_restarts: 3,
            backoff_base: Duration::from_millis(5),
        }
    }
}

impl FaultPolicy {
    /// A test-friendly policy: default budget, no sleeping between
    /// restarts.
    pub fn no_backoff() -> Self {
        Self {
            backoff_base: Duration::ZERO,
            ..Self::default()
        }
    }

    /// Backoff before restart number `restart` (1-based): `base · 2^(r−1)`,
    /// capped at 500 ms.
    pub fn backoff_for(&self, restart: u32) -> Duration {
        let shift = restart.saturating_sub(1).min(20);
        let factor = 1u32.checked_shl(shift).unwrap_or(u32::MAX);
        self.backoff_base.saturating_mul(factor).min(BACKOFF_MAX)
    }
}

/// Builder for [`LtcConfig`].
#[derive(Debug, Clone)]
pub struct LtcConfigBuilder {
    buckets: usize,
    cells_per_bucket: usize,
    weights: Weights,
    period_mode: PeriodMode,
    variant: Variant,
    seed: u64,
}

impl Default for LtcConfigBuilder {
    fn default() -> Self {
        Self {
            buckets: 1024,
            cells_per_bucket: 8,
            weights: Weights::BALANCED,
            period_mode: PeriodMode::ByCount {
                records_per_period: 10_000,
            },
            variant: Variant::FULL,
            seed: 0x5151_c0de,
        }
    }
}

impl LtcConfigBuilder {
    /// Number of buckets `w` (≥ 1).
    pub fn buckets(mut self, w: usize) -> Self {
        self.buckets = w;
        self
    }

    /// Cells per bucket `d` (≥ 1; paper default 8).
    pub fn cells_per_bucket(mut self, d: usize) -> Self {
        self.cells_per_bucket = d;
        self
    }

    /// Significance weights.
    pub fn weights(mut self, weights: Weights) -> Self {
        self.weights = weights;
        self
    }

    /// Count-driven periods of `n` records.
    pub fn records_per_period(mut self, n: u64) -> Self {
        assert!(n > 0, "a period must contain records");
        self.period_mode = PeriodMode::ByCount {
            records_per_period: n,
        };
        self
    }

    /// Time-driven periods of `t` timestamp units.
    pub fn time_units_per_period(mut self, t: u64) -> Self {
        assert!(t > 0, "a period must span time");
        self.period_mode = PeriodMode::ByTime {
            units_per_period: t,
        };
        self
    }

    /// Select optimizations.
    pub fn variant(mut self, variant: Variant) -> Self {
        self.variant = variant;
        self
    }

    /// Seed for the bucket hash.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Finalise. Panics on a degenerate shape.
    pub fn build(self) -> LtcConfig {
        assert!(self.buckets >= 1, "need at least one bucket");
        assert!(self.cells_per_bucket >= 1, "need at least one cell");
        LtcConfig {
            buckets: self.buckets,
            cells_per_bucket: self.cells_per_bucket,
            weights: self.weights,
            period_mode: self.period_mode,
            variant: self.variant,
            seed: self.seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_paper() {
        let c = LtcConfig::builder().build();
        assert_eq!(c.cells_per_bucket, 8, "paper sets d = 8 by default");
        assert_eq!(c.variant, Variant::FULL);
    }

    #[test]
    fn with_memory_sizes_table() {
        // 10 KB at 16 B/cell = 640 cells = 80 buckets of 8.
        let c = LtcConfig::with_memory(MemoryBudget::kilobytes(10), 8).build();
        assert_eq!(c.buckets, 80);
        assert_eq!(c.total_cells(), 640);
    }

    #[test]
    fn with_memory_never_zero_buckets() {
        let c = LtcConfig::with_memory(MemoryBudget::bytes(8), 8).build();
        assert_eq!(c.buckets, 1);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_rejected() {
        let _ = LtcConfig::builder().buckets(0).build();
    }

    #[test]
    #[should_panic(expected = "a period must contain records")]
    fn zero_period_rejected() {
        let _ = LtcConfig::builder().records_per_period(0);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = FaultPolicy {
            max_restarts: 10,
            backoff_base: Duration::from_millis(10),
        };
        assert_eq!(policy.backoff_for(1), Duration::from_millis(10));
        assert_eq!(policy.backoff_for(2), Duration::from_millis(20));
        assert_eq!(policy.backoff_for(6), Duration::from_millis(320));
        assert_eq!(policy.backoff_for(7), BACKOFF_MAX, "capped");
        assert_eq!(policy.backoff_for(u32::MAX), BACKOFF_MAX);
    }

    #[test]
    fn no_backoff_policy_never_sleeps() {
        let policy = FaultPolicy::no_backoff();
        assert_eq!(policy.max_restarts, FaultPolicy::default().max_restarts);
        for r in 1..=5 {
            assert!(policy.backoff_for(r).is_zero());
        }
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn variant_constants() {
        assert!(!Variant::BASIC.deviation_eliminator);
        assert!(!Variant::BASIC.long_tail_replacement);
        assert!(Variant::FULL.deviation_eliminator);
        assert!(Variant::FULL.long_tail_replacement);
        assert!(Variant::DEVIATION_ONLY.deviation_eliminator);
        assert!(!Variant::DEVIATION_ONLY.long_tail_replacement);
    }
}
