//! The retained array-of-structs LTC implementation.
//!
//! [`ReferenceLtc`] is the pre-SoA table — one `Vec<Cell>` of
//! `⟨ID, f, p, flags⟩` structs, probed field-by-field — kept for two jobs:
//!
//! 1. **Differential testing.** The property suite
//!    (`tests/soa_equivalence.rs`) drives this table and [`crate::Ltc`]
//!    with identical streams and requires identical top-k, estimates, and
//!    snapshot bytes. Any semantic drift introduced by the lane layout
//!    fails loudly.
//! 2. **Benchmark baseline.** The `table_scan` microbench measures
//!    bucket-probe throughput of this layout against the SoA table
//!    (`BENCH_table.json`), so the layout's win is a number, not a claim.
//!
//! It is a faithful port, not a simplification: batched inserts keep the
//! hash-up-front / prefetch / scan-free-run machinery so throughput
//! comparisons measure the layout, and nothing else. It is *not* part of
//! the supported API surface — use [`crate::Ltc`].

use crate::cell::Cell;
use crate::clock::ClockPointer;
use crate::config::{LtcConfig, PeriodMode};
use crate::stats::LtcStats;
use ltc_common::{top_k_of, Estimate, ItemId, Timestamp, Weights};
use ltc_hash::SeededHash;

const SNAPSHOT_MAGIC: &[u8; 4] = b"LTC1";

/// Array-of-structs LTC table (see the module docs). Bit-exact peer of
/// [`crate::Ltc`] under identical input.
#[derive(Debug, Clone)]
pub struct ReferenceLtc {
    config: LtcConfig,
    cells: Vec<Cell>,
    clock: ClockPointer,
    bucket_hash: SeededHash,
    parity: u8,
    periods_completed: u64,
    period_start_time: Timestamp,
    last_time: Timestamp,
    stats: LtcStats,
}

impl ReferenceLtc {
    /// Create a reference table from a configuration.
    pub fn new(config: LtcConfig) -> Self {
        let total = config.total_cells();
        Self {
            config,
            cells: vec![Cell::EMPTY; total],
            clock: ClockPointer::new(total),
            bucket_hash: SeededHash::new(config.seed as u32),
            parity: 0,
            periods_completed: 0,
            period_start_time: 0,
            last_time: 0,
            stats: LtcStats::default(),
        }
    }

    /// Lifetime operation counters — the same bookkeeping [`crate::Ltc`]
    /// pays per record, so throughput comparisons measure the layout and
    /// not one side's accounting.
    pub fn stats(&self) -> LtcStats {
        self.stats
    }

    /// Number of periods ended so far.
    pub fn periods_completed(&self) -> u64 {
        self.periods_completed
    }

    fn set_parity(&self) -> u8 {
        if self.config.variant.deviation_eliminator {
            self.parity
        } else {
            0
        }
    }

    fn harvest_parity(&self) -> u8 {
        if self.config.variant.deviation_eliminator {
            self.parity ^ 1
        } else {
            0
        }
    }

    /// Insert one record (count-driven mode).
    ///
    /// # Panics
    /// Panics if the table was configured time-driven.
    pub fn insert(&mut self, id: ItemId) {
        let n = match self.config.period_mode {
            PeriodMode::ByCount { records_per_period } => records_per_period,
            PeriodMode::ByTime { .. } => {
                panic!("time-driven reference LTC must be fed via insert_at(id, time)")
            }
        };
        self.process(id);
        self.tick(self.cells.len() as u64, n);
    }

    /// Insert a run of records (count-driven mode) — same amortisation as
    /// [`crate::Ltc::insert_batch`] so layout comparisons are fair.
    ///
    /// # Panics
    /// Panics if the table was configured time-driven.
    pub fn insert_batch(&mut self, ids: &[ItemId]) {
        let n = match self.config.period_mode {
            PeriodMode::ByCount { records_per_period } => records_per_period,
            PeriodMode::ByTime { .. } => {
                panic!("time-driven reference LTC must be fed via insert_at(id, time)")
            }
        };
        let m = self.cells.len() as u64;
        let d = self.config.cells_per_bucket;
        let bases: Vec<usize> = ids
            .iter()
            .map(|&id| self.bucket_index(id).saturating_mul(d))
            .collect();
        let mut i = 0;
        while i < ids.len() {
            let free = self
                .clock
                .ticks_before_scan(m, n)
                .min(ids.len().saturating_sub(i) as u64) as usize;
            let scan_free_end = i.saturating_add(free);
            for j in i..scan_free_end {
                self.prefetch_bucket(&bases, j);
                if let (Some(&id), Some(&base)) = (ids.get(j), bases.get(j)) {
                    self.process_at(id, base);
                }
            }
            self.clock.advance_scan_free(free as u64, m, n);
            i = scan_free_end;
            if let (Some(&id), Some(&base)) = (ids.get(i), bases.get(i)) {
                self.prefetch_bucket(&bases, i);
                self.process_at(id, base);
                self.tick(m, n);
                i = i.saturating_add(1);
            }
        }
    }

    /// Insert one record with a timestamp (time-driven mode).
    ///
    /// # Panics
    /// Panics if the table was configured count-driven.
    pub fn insert_at(&mut self, id: ItemId, time: Timestamp) {
        let t = match self.config.period_mode {
            PeriodMode::ByTime { units_per_period } => units_per_period,
            PeriodMode::ByCount { .. } => {
                panic!("count-driven reference LTC must be fed via insert(id)")
            }
        };
        while time >= self.period_start_time.saturating_add(t) {
            self.end_period();
        }
        let reference = self.last_time.max(self.period_start_time);
        let elapsed = time.saturating_sub(reference);
        self.tick(elapsed.saturating_mul(self.cells.len() as u64), t);
        self.last_time = time;
        self.process(id);
    }

    /// End the current period (complete the sweep, flip parity).
    pub fn end_period(&mut self) {
        let hp = self.harvest_parity();
        let cells = &mut self.cells;
        let mut harvested = 0u64;
        self.clock.finish_period(|i| {
            if let Some(c) = cells.get_mut(i) {
                harvested = harvested.saturating_add(u64::from(c.harvest(hp)));
            }
        });
        self.stats.harvests = self.stats.harvests.saturating_add(harvested);
        if self.config.variant.deviation_eliminator {
            self.parity ^= 1;
        }
        self.periods_completed = self.periods_completed.saturating_add(1);
        self.stats.periods = self.stats.periods.saturating_add(1);
        if let PeriodMode::ByTime { units_per_period } = self.config.period_mode {
            self.period_start_time = self.period_start_time.saturating_add(units_per_period);
        }
    }

    /// Harvest the final period's pending flags (idempotent).
    pub fn finalize(&mut self) {
        let hp = self.harvest_parity();
        let cells = &mut self.cells;
        let mut harvested = 0u64;
        self.clock.full_sweep(|i| {
            if let Some(c) = cells.get_mut(i) {
                harvested = harvested.saturating_add(u64::from(c.harvest(hp)));
            }
        });
        self.stats.harvests = self.stats.harvests.saturating_add(harvested);
    }

    /// Whether `id` currently occupies a cell.
    pub fn contains(&self, id: ItemId) -> bool {
        self.find(id).is_some()
    }

    /// Estimated frequency of `id`, if tracked.
    pub fn frequency_of(&self, id: ItemId) -> Option<u64> {
        self.find(id).map(|c| u64::from(c.freq))
    }

    /// Estimated persistency of `id`, if tracked.
    pub fn persistency_of(&self, id: ItemId) -> Option<u64> {
        self.find(id).map(|c| u64::from(c.persist))
    }

    /// Estimated significance of `id`, if tracked.
    pub fn estimate(&self, id: ItemId) -> Option<f64> {
        self.find(id).map(|c| c.significance(&self.config.weights))
    }

    /// The `k` most significant tracked items, descending.
    pub fn top_k(&self, k: usize) -> Vec<Estimate> {
        let weights = self.config.weights;
        let candidates = self
            .cells
            .iter()
            .filter(|c| c.occupied())
            .map(|c| Estimate::new(c.id, c.significance(&weights)))
            .collect();
        top_k_of(candidates, k)
    }

    /// Serialise the table state in the same `LTC1` format as
    /// [`crate::Ltc::to_snapshot`] — byte-identical under identical input.
    pub fn to_snapshot(&self) -> Vec<u8> {
        let w = self.config.buckets as u32;
        let d = self.config.cells_per_bucket as u32;
        let mut out =
            Vec::with_capacity(21usize.saturating_add(self.cells.len().saturating_mul(17)));
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.extend_from_slice(&w.to_le_bytes());
        out.extend_from_slice(&d.to_le_bytes());
        out.push(self.parity);
        out.extend_from_slice(&self.periods_completed.to_le_bytes());
        for cell in &self.cells {
            out.extend_from_slice(&cell.id.to_le_bytes());
            out.extend_from_slice(&cell.freq.to_le_bytes());
            out.extend_from_slice(&cell.persist.to_le_bytes());
            out.push(cell.raw_flags());
        }
        out
    }

    #[inline]
    fn bucket_index(&self, id: ItemId) -> usize {
        self.bucket_hash.index(id, self.config.buckets)
    }

    #[inline]
    fn prefetch_bucket(&self, bases: &[usize], j: usize) {
        let distance = self.config.prefetch_distance;
        if distance == 0 {
            return;
        }
        if let Some(&base) = bases.get(j.saturating_add(distance)) {
            // Copy the id so the optimiser cannot drop the load — a bare
            // `black_box(&cell)` pins only the address, fetching nothing.
            if let Some(cell) = self.cells.get(base) {
                std::hint::black_box(cell.id);
            }
        }
    }

    #[inline]
    fn find(&self, id: ItemId) -> Option<&Cell> {
        let d = self.config.cells_per_bucket;
        let base = self.bucket_index(id).saturating_mul(d);
        self.cells
            .get(base..base.saturating_add(d))
            .unwrap_or(&[])
            .iter()
            .find(|c| c.occupied() && c.id == id)
    }

    #[inline]
    fn tick(&mut self, numerator: u64, denominator: u64) {
        let hp = self.harvest_parity();
        let cells = &mut self.cells;
        let mut harvested = 0u64;
        self.clock.tick(numerator, denominator, |i| {
            if let Some(c) = cells.get_mut(i) {
                harvested = harvested.saturating_add(u64::from(c.harvest(hp)));
            }
        });
        self.stats.harvests = self.stats.harvests.saturating_add(harvested);
    }

    fn process(&mut self, id: ItemId) {
        let base = self
            .bucket_index(id)
            .saturating_mul(self.config.cells_per_bucket);
        self.process_at(id, base);
    }

    /// The insertion state machine, field-probing the struct array — the
    /// exact pre-SoA hot loop.
    fn process_at(&mut self, id: ItemId, base: usize) {
        let weights = self.config.weights;
        let variant = self.config.variant;
        let parity = self.set_parity();
        let d = self.config.cells_per_bucket;
        let end = base.saturating_add(d);

        self.stats.inserts = self.stats.inserts.saturating_add(1);

        let mut hit_slot = None;
        let mut empty_slot = None;
        let mut min_slot = base;
        let mut min_sig = f64::INFINITY;
        for (offset, c) in self.cells.get(base..end).unwrap_or(&[]).iter().enumerate() {
            let i = base.saturating_add(offset);
            if c.occupied() {
                if c.id == id {
                    hit_slot = Some(i);
                    break;
                }
                let sig = c.significance(&weights);
                if sig < min_sig {
                    min_sig = sig;
                    min_slot = i;
                }
            } else if empty_slot.is_none() {
                empty_slot = Some(i);
            }
        }

        if let Some(i) = hit_slot {
            self.stats.hits = self.stats.hits.saturating_add(1);
            if let Some(c) = self.cells.get_mut(i) {
                c.freq = c.freq.saturating_add(1);
                c.set_flag(parity);
            }
            return;
        }

        if let Some(i) = empty_slot {
            self.stats.fills = self.stats.fills.saturating_add(1);
            if let Some(c) = self.cells.get_mut(i) {
                c.occupy(id, 1, 0);
                c.set_flag(parity);
            }
            return;
        }

        let Some(c) = self.cells.get_mut(min_slot) else {
            return;
        };
        c.significance_decrement();
        if !c.significance_is_zero(&weights) {
            self.stats.decrements = self.stats.decrements.saturating_add(1);
            return;
        }
        self.stats.admissions = self.stats.admissions.saturating_add(1);
        if let Some(c) = self.cells.get_mut(min_slot) {
            c.clear();
        }
        let (f0, p0) = if variant.long_tail_replacement {
            self.long_tail_initial(base, d, &weights)
        } else {
            (1, 0)
        };
        if let Some(c) = self.cells.get_mut(min_slot) {
            c.occupy(id, f0, p0);
            c.set_flag(parity);
        }
    }

    fn long_tail_initial(&self, base: usize, d: usize, weights: &Weights) -> (u32, u32) {
        let second = self
            .cells
            .get(base..base.saturating_add(d))
            .unwrap_or(&[])
            .iter()
            .filter(|c| c.occupied())
            .min_by(|a, b| a.significance(weights).total_cmp(&b.significance(weights)));
        match second {
            Some(c) => {
                if weights.alpha > 0.0 {
                    (c.freq.saturating_sub(1).max(1), c.persist)
                } else {
                    (c.freq.max(1), c.persist.saturating_sub(1))
                }
            }
            None => (1, 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use crate::Ltc;
    use ltc_common::SignificanceQuery;

    fn config(w: usize, d: usize, n: u64) -> LtcConfig {
        LtcConfig::builder()
            .buckets(w)
            .cells_per_bucket(d)
            .records_per_period(n)
            .weights(Weights::BALANCED)
            .variant(Variant::FULL)
            .seed(7)
            .build()
    }

    #[test]
    fn reference_agrees_with_soa_on_a_smoke_stream() {
        let cfg = config(8, 4, 25);
        let mut aos = ReferenceLtc::new(cfg);
        let mut soa = Ltc::new(cfg);
        for round in 0..4u64 {
            for i in 0..25u64 {
                let id = if i % 3 == 0 { 42 } else { round * 50 + i };
                aos.insert(id);
                soa.insert(id);
            }
            aos.end_period();
            soa.end_period();
        }
        aos.finalize();
        soa.finalize();
        assert_eq!(aos.frequency_of(42), soa.frequency_of(42));
        assert_eq!(aos.persistency_of(42), soa.persistency_of(42));
        assert_eq!(aos.top_k(10), soa.top_k(10));
        assert_eq!(aos.to_snapshot(), soa.to_snapshot());
    }

    #[test]
    fn reference_batch_matches_reference_scalar() {
        let cfg = config(4, 4, 30);
        let ids: Vec<u64> = (0..240u64).map(|i| i * 37 % 23).collect();
        let mut scalar = ReferenceLtc::new(cfg);
        for &id in &ids {
            scalar.insert(id);
        }
        let mut batched = ReferenceLtc::new(cfg);
        batched.insert_batch(&ids);
        assert_eq!(scalar.to_snapshot(), batched.to_snapshot());
    }

    #[test]
    fn reference_snapshot_restores_into_soa_table() {
        let cfg = config(8, 4, 25);
        let mut aos = ReferenceLtc::new(cfg);
        for i in 0..100u64 {
            aos.insert(i % 11);
        }
        aos.end_period();
        let mut soa = Ltc::new(cfg);
        soa.restore_snapshot(&aos.to_snapshot()).unwrap();
        assert_eq!(soa.frequency_of(5), aos.frequency_of(5));
        assert_eq!(soa.periods_completed(), aos.periods_completed());
    }
}
