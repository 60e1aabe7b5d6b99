//! Per-period algorithm-health auditing: is the sketch still inside the
//! paper's accuracy envelope?
//!
//! "Finding Significant Items in Data Streams" (ICDE 2019) gives concrete
//! per-period health signals that are cheap to compute online:
//!
//! * **table occupancy** — the load factor the error analysis is
//!   parameterised by;
//! * **min/median in-bucket significance** — each bucket's minimum is its
//!   *admission threshold* (a new item must out-significance the bucket
//!   minimum to displace it, §long-tail replacement), so the distribution
//!   of bucket minimums says how contested the table is;
//! * **eviction and decay pressure** — long-tail replacements
//!   (`admissions`) and collision decrements (`decrements`) this period;
//! * **estimated error bound** — the paper bounds significance
//!   underestimation by the decremented mass a tracked item can have
//!   absorbed; the online analogue used here is the α-weighted decrement
//!   mass per cell this period
//!   (`α · Δdecrements / capacity_cells`), which rises exactly when the
//!   stream outgrows the table.
//!
//! [`HealthAuditor::audit`] computes these at a period boundary (tables
//! are quiescent behind the epoch barrier), publishes them as gauges,
//! journals a [`EventKind::HealthReport`] event whose `detail` word
//! carries period-over-period [`drift`] flags, and returns the full
//! [`HealthReport`]. Bucket statistics are computed over a rotating
//! sample of up to [`SAMPLE_BUCKETS`] buckets per shard per audit so the
//! audit's cost stays flat no matter how large the table is (small tables
//! are covered exactly).

use super::journal::EventKind;
use super::metrics::Gauge;
use super::registry::Labels;
use super::RuntimeObs;
use crate::pipeline::lock_recover;
use crate::stats::LtcStats;
use crate::table::Ltc;
use std::sync::{Arc, Mutex};

/// Buckets sampled per shard per audit (rotating cursor, so successive
/// audits cover the whole table of any size).
pub const SAMPLE_BUCKETS: usize = 256;

/// Period-over-period drift flag bits, carried in the
/// [`EventKind::HealthReport`] journal event's `detail` word and in the
/// `ltc_audit_drift_flags` gauge.
pub mod drift {
    /// A shard's cumulative counters went *backwards* since the previous
    /// audit: a table was rolled back (supervised recovery or an explicit
    /// checkpoint restore) between the two periods.
    pub const ROLLBACK: u64 = 1;
    /// Occupancy moved more than [`OCCUPANCY_JUMP_PPM`] between audits —
    /// the stream's working set shifted abruptly.
    pub const OCCUPANCY_JUMP: u64 = 2;
    /// Eviction pressure more than doubled since the previous audit —
    /// long-tail replacement is churning the table.
    pub const EVICTION_SURGE: u64 = 4;

    /// Occupancy delta (parts per million) that raises
    /// [`OCCUPANCY_JUMP`]: 10 percentage points.
    pub const OCCUPANCY_JUMP_PPM: u64 = 100_000;
}

/// One period's algorithm-health report. Fractional quantities are
/// fixed-point so they can double as `u64` gauge values: `_ppm` = parts
/// per million, `_milli` = thousandths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// Stream period the report covers (periods completed so far).
    pub period: u64,
    /// Occupied cells per million sampled cells.
    pub occupancy_ppm: u64,
    /// Minimum over sampled buckets of the bucket's minimum cell
    /// significance (×1000). A bucket with an empty cell contributes 0 —
    /// admission there is free.
    pub min_significance_milli: u64,
    /// Median over sampled buckets of the bucket's minimum cell
    /// significance (×1000): the typical admission threshold.
    pub median_significance_milli: u64,
    /// Long-tail replacements (cell evictions) since the previous audit.
    pub evictions: u64,
    /// Collision decrements since the previous audit.
    pub decays: u64,
    /// Estimated significance-underestimation bound (×1000): α-weighted
    /// decrement mass per cell this period.
    pub error_bound_milli: u64,
    /// Period-over-period [`drift`] flag bits (0 = steady).
    pub drift: u64,
}

/// Counter snapshot the next audit diffs against.
struct Baseline {
    stats: LtcStats,
    periods_completed: u64,
    rollbacks: u64,
    occupancy_ppm: u64,
    evictions: u64,
}

/// The per-period health auditor: owns the audit gauges and the previous
/// period's baseline. One auditor per runtime; gauges are registered
/// idempotently so runtimes sharing a [`RuntimeObs`] share the cells.
pub struct HealthAuditor {
    occupancy: Gauge,
    min_significance: Gauge,
    median_significance: Gauge,
    evictions: Gauge,
    decays: Gauge,
    error_bound: Gauge,
    drift_flags: Gauge,
    last: Option<Baseline>,
    cursor: usize,
}

impl std::fmt::Debug for HealthAuditor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthAuditor")
            .field("cursor", &self.cursor)
            .field("has_baseline", &self.last.is_some())
            .finish()
    }
}

/// `x * 1000` as a saturating u64 (fixed-point milli encoding).
fn milli(x: f64) -> u64 {
    if x.is_finite() && x > 0.0 {
        let scaled = x * 1000.0;
        if scaled >= u64::MAX as f64 {
            u64::MAX
        } else {
            scaled as u64
        }
    } else {
        0
    }
}

impl HealthAuditor {
    /// Register (idempotently) the audit gauge families on `obs`'s
    /// registry and return an auditor with no baseline (the first audit
    /// reports zero deltas and no drift).
    pub fn new(obs: &RuntimeObs) -> Self {
        let registry = obs.registry();
        Self {
            occupancy: registry.gauge(
                "ltc_audit_occupancy_ppm",
                "Occupied cells per million sampled cells (last audit).",
                Labels::new(),
            ),
            min_significance: registry.gauge(
                "ltc_audit_min_significance_milli",
                "Minimum bucket-minimum significance, x1000 (last audit).",
                Labels::new(),
            ),
            median_significance: registry.gauge(
                "ltc_audit_median_significance_milli",
                "Median bucket-minimum significance (admission threshold), x1000 (last audit).",
                Labels::new(),
            ),
            evictions: registry.gauge(
                "ltc_audit_evictions",
                "Long-tail replacements between the last two audits.",
                Labels::new(),
            ),
            decays: registry.gauge(
                "ltc_audit_decays",
                "Collision decrements between the last two audits.",
                Labels::new(),
            ),
            error_bound: registry.gauge(
                "ltc_audit_error_bound_milli",
                "Estimated significance-underestimation bound, x1000 (last audit).",
                Labels::new(),
            ),
            drift_flags: registry.gauge(
                "ltc_audit_drift_flags",
                "Period-over-period drift flag bits (1=rollback, 2=occupancy jump, 4=eviction surge).",
                Labels::new(),
            ),
            last: None,
            cursor: 0,
        }
    }

    /// Audit the shard tables at a period boundary: compute the health
    /// signals, publish the gauges, journal a
    /// [`EventKind::HealthReport`] with the drift bits, and return the
    /// report. Takes each table's lock briefly — call where the pipeline
    /// is quiescent (right after the epoch barrier), never on the record
    /// path.
    ///
    /// `rollbacks` is the caller's cumulative rollback count (worker
    /// restarts + checkpoint restores): table stats are process-local and
    /// survive a snapshot restore, so the rollback itself must be signalled
    /// explicitly. An increase since the previous audit — or any table
    /// counter going backwards — raises [`drift::ROLLBACK`].
    pub fn audit(
        &mut self,
        tables: &[Arc<Mutex<Ltc>>],
        period: u64,
        rollbacks: u64,
        obs: &RuntimeObs,
    ) -> HealthReport {
        let mut merged = LtcStats::default();
        let mut periods_completed: u64 = 0;
        let mut sampled_cells: u64 = 0;
        let mut occupied_cells: u64 = 0;
        let mut capacity_cells: u64 = 0;
        let mut bucket_minimums: Vec<f64> = Vec::new();
        let mut alpha = 0.0f64;
        for table in tables {
            let table = lock_recover(table);
            merged = merged.merge(&table.stats());
            periods_completed = periods_completed.saturating_add(table.periods_completed());
            let config = table.config();
            let weights = config.weights;
            alpha = weights.alpha;
            let total_buckets = config.buckets;
            capacity_cells = capacity_cells.saturating_add(table.capacity_cells() as u64);
            if total_buckets == 0 {
                continue;
            }
            let d = config.cells_per_bucket;
            let sample = total_buckets.min(SAMPLE_BUCKETS);
            for k in 0..sample {
                let bucket = self
                    .cursor
                    .wrapping_add(k)
                    .checked_rem(total_buckets)
                    .unwrap_or(0);
                let mut minimum: Option<f64> = None;
                for cell in table.bucket_cells(bucket.saturating_mul(d), d) {
                    sampled_cells = sampled_cells.saturating_add(1);
                    let significance = if cell.occupied() {
                        occupied_cells = occupied_cells.saturating_add(1);
                        cell.significance(&weights)
                    } else {
                        0.0
                    };
                    minimum = Some(match minimum {
                        Some(m) => m.min(significance),
                        None => significance,
                    });
                }
                bucket_minimums.push(minimum.unwrap_or(0.0));
            }
        }
        self.cursor = self.cursor.wrapping_add(SAMPLE_BUCKETS);

        let occupancy_ppm = occupied_cells
            .saturating_mul(1_000_000)
            .checked_div(sampled_cells)
            .unwrap_or(0);
        bucket_minimums.sort_unstable_by(f64::total_cmp);
        let min_significance_milli = milli(bucket_minimums.first().copied().unwrap_or(0.0));
        let median_significance_milli = milli(
            bucket_minimums
                .get(bucket_minimums.len() / 2)
                .copied()
                .unwrap_or(0.0),
        );

        // Period-over-period deltas. A counter that went backwards means a
        // table was rolled back between the audits.
        let (evictions, decays, rolled_back, previous) = match &self.last {
            Some(base) => {
                let regressed = merged.inserts < base.stats.inserts
                    || merged.admissions < base.stats.admissions
                    || merged.decrements < base.stats.decrements
                    || merged.harvests < base.stats.harvests
                    || periods_completed < base.periods_completed
                    || rollbacks > base.rollbacks;
                (
                    merged.admissions.saturating_sub(base.stats.admissions),
                    merged.decrements.saturating_sub(base.stats.decrements),
                    regressed,
                    Some((base.occupancy_ppm, base.evictions)),
                )
            }
            None => (merged.admissions, merged.decrements, false, None),
        };
        let error_bound_milli = if capacity_cells > 0 {
            milli(alpha * decays as f64 / capacity_cells as f64)
        } else {
            0
        };

        let mut drift_bits = 0u64;
        if rolled_back {
            drift_bits |= drift::ROLLBACK;
        }
        if let Some((previous_occupancy, previous_evictions)) = previous {
            if occupancy_ppm.abs_diff(previous_occupancy) > drift::OCCUPANCY_JUMP_PPM {
                drift_bits |= drift::OCCUPANCY_JUMP;
            }
            if evictions > previous_evictions.saturating_mul(2).saturating_add(16) {
                drift_bits |= drift::EVICTION_SURGE;
            }
        }

        self.last = Some(Baseline {
            stats: merged,
            periods_completed,
            rollbacks,
            occupancy_ppm,
            evictions,
        });

        self.occupancy.set(occupancy_ppm);
        self.min_significance.set(min_significance_milli);
        self.median_significance.set(median_significance_milli);
        self.evictions.set(evictions);
        self.decays.set(decays);
        self.error_bound.set(error_bound_milli);
        self.drift_flags.set(drift_bits);
        obs.journal()
            .publish(EventKind::HealthReport, None, drift_bits);

        HealthReport {
            period,
            occupancy_ppm,
            min_significance_milli,
            median_significance_milli,
            evictions,
            decays,
            error_bound_milli,
            drift: drift_bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LtcConfig, Variant};
    use ltc_common::Weights;

    fn table(buckets: usize, variant: Variant) -> Arc<Mutex<Ltc>> {
        let config = LtcConfig::builder()
            .buckets(buckets)
            .cells_per_bucket(4)
            .records_per_period(1_000)
            .weights(Weights {
                alpha: 1.0,
                beta: 1.0,
            })
            .variant(variant)
            .seed(7)
            .build();
        Arc::new(Mutex::new(Ltc::new(config)))
    }

    #[test]
    fn empty_table_reports_zero_occupancy_and_no_drift() {
        let obs = RuntimeObs::new();
        let mut auditor = HealthAuditor::new(&obs);
        let tables = vec![table(8, Variant::FULL)];
        let report = auditor.audit(&tables, 1, 0, &obs);
        assert_eq!(report.occupancy_ppm, 0);
        assert_eq!(report.min_significance_milli, 0);
        assert_eq!(report.drift, 0);
        let events = obs.journal().drain();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events.first().map(|e| e.kind),
            Some(EventKind::HealthReport)
        );
    }

    #[test]
    fn occupancy_and_thresholds_track_the_stream() {
        let obs = RuntimeObs::new();
        let mut auditor = HealthAuditor::new(&obs);
        // Build residents with freq > 1, then hammer with distinct misses:
        // BASIC pays a decrement per contested miss (counted only while the
        // worn cell stays above zero — hence the warm-up), and admissions
        // happen each time a cell finally wears out.
        let tables = vec![table(4, Variant::BASIC)];
        {
            let mut t = lock_recover(tables.first().expect("table"));
            for _ in 0..5 {
                for id in 0..16u64 {
                    t.insert(id);
                }
            }
            for id in 100..300u64 {
                t.insert(id);
            }
            t.end_period();
        }
        let report = auditor.audit(&tables, 1, 0, &obs);
        assert!(report.occupancy_ppm > 0, "stream must occupy cells");
        assert!(
            report.occupancy_ppm <= 1_000_000,
            "ppm must be a proportion"
        );
        // 200 distinct ids into 16 cells: evictions and decays happened.
        assert!(report.evictions > 0);
        assert!(report.decays > 0);
        assert!(report.error_bound_milli > 0);
        // Full table: every sampled bucket-minimum is a real significance.
        assert!(report.median_significance_milli >= report.min_significance_milli);
    }

    #[test]
    fn rollback_between_audits_raises_the_drift_flag() {
        let obs = RuntimeObs::new();
        let mut auditor = HealthAuditor::new(&obs);
        let tables = vec![table(4, Variant::FULL)];
        let pristine = lock_recover(tables.first().expect("table")).to_snapshot();
        {
            let mut t = lock_recover(tables.first().expect("table"));
            for id in 0..500u64 {
                t.insert(id);
            }
            t.end_period();
        }
        let first = auditor.audit(&tables, 1, 0, &obs);
        assert_eq!(first.drift & drift::ROLLBACK, 0);
        // Roll the table back (what supervised recovery does), then audit.
        lock_recover(tables.first().expect("table"))
            .restore_snapshot(&pristine)
            .expect("restore pristine snapshot");
        // periods_completed regressed (1 -> 0) and the caller reports one
        // rollback; either alone raises the flag.
        let second = auditor.audit(&tables, 2, 1, &obs);
        assert_ne!(
            second.drift & drift::ROLLBACK,
            0,
            "a rollback between audits must raise the flag"
        );
        // The flag also rides the journal event's detail word.
        let events = obs.journal().drain();
        let last = events.last().expect("health report event");
        assert_eq!(last.kind, EventKind::HealthReport);
        assert_ne!(last.detail & drift::ROLLBACK, 0);
    }

    #[test]
    fn gauges_are_published_and_exposition_stays_valid() {
        let obs = RuntimeObs::new();
        let mut auditor = HealthAuditor::new(&obs);
        let tables = vec![table(4, Variant::FULL)];
        {
            let mut t = lock_recover(tables.first().expect("table"));
            for id in 0..100u64 {
                t.insert(id);
            }
            t.end_period();
        }
        let report = auditor.audit(&tables, 1, 0, &obs);
        let text = obs.render_prometheus();
        assert!(text.contains(&format!("ltc_audit_occupancy_ppm {}", report.occupancy_ppm)));
        assert!(text.contains("ltc_audit_drift_flags 0"));
        super::super::validate_exposition(&text).expect("valid exposition");
    }
}
