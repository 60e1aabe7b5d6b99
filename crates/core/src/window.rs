//! Sliding-window significance — an extension beyond the paper.
//!
//! The paper's persistency counts periods over the *whole* stream, so an
//! item that was persistent last month but has vanished keeps its score
//! forever. Long-running monitors usually want "significant over the last
//! `W` periods". [`WindowedLtc`] provides that with one extra `u64` per
//! cell:
//!
//! * each cell carries a **presence bitmap**: bit `0` = "appeared in the
//!   current period", bit `j` = "appeared `j` periods ago". At every period
//!   boundary the bitmap shifts left by one (bounded by the window);
//! * windowed persistency is `popcount(bitmap & window_mask)` — exact for
//!   resident items, no CLOCK needed (the bitmap *is* the per-period
//!   presence record, deduplication included);
//! * windowed frequency uses exponential aging: at each boundary the
//!   frequency counter is scaled by `(W-1)/W`, so it approximates the count
//!   over the last `O(W)` periods without per-period frequency storage.
//!
//! The admission/eviction machinery (Significance Decrementing, Long-tail
//! Replacement) is inherited unchanged; only the significance inputs change.
//! Windows are capped at 64 periods by the bitmap width — enough for
//! "last hour of minutes" or "last two months of days" dashboards.
//!
//! Storage follows the main table's struct-of-arrays layout (`WinStore`):
//! one lane per field, bucket-major. The find-match probe touches only the
//! id and occupancy lanes, and the period-boundary aging (bitmap shift,
//! frequency scaling) runs as unconditional whole-lane passes — empty slots
//! hold zeroes, which both transforms map to zeroes.

use ltc_common::{
    top_k_of, Estimate, ItemId, MemoryUsage, SignificanceQuery, StreamProcessor, Weights,
};
use ltc_hash::SeededHash;

/// A cell of the windowed table, materialised from the lanes.
#[derive(Debug, Clone, Copy, Default)]
struct WinCell {
    id: ItemId,
    /// Aged frequency (fixed-point: stored ×16 so aging by (W-1)/W keeps
    /// fractional mass for small counters).
    freq16: u64,
    /// Presence bitmap: bit j = appeared j periods ago (bit 0 = current).
    presence: u64,
    occupied: bool,
}

impl WinCell {
    fn freq(&self) -> u64 {
        self.freq16 >> 4
    }

    fn persistency(&self, mask: u64) -> u64 {
        u64::from((self.presence & mask).count_ones())
    }

    fn significance(&self, weights: &Weights, mask: u64) -> f64 {
        if self.occupied {
            weights.significance(self.freq(), self.persistency(mask))
        } else {
            0.0
        }
    }
}

/// Struct-of-arrays storage for [`WinCell`]s: one lane per field, slot `i`
/// of every lane is the same logical cell.
#[derive(Debug, Clone)]
struct WinStore {
    ids: Vec<ItemId>,
    freq16s: Vec<u64>,
    presences: Vec<u64>,
    occupied: Vec<bool>,
}

impl WinStore {
    fn new(total: usize) -> Self {
        Self {
            ids: vec![0; total],
            freq16s: vec![0; total],
            presences: vec![0; total],
            occupied: vec![false; total],
        }
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn cell(&self, i: usize) -> WinCell {
        WinCell {
            id: self.ids.get(i).copied().unwrap_or(0),
            freq16: self.freq16s.get(i).copied().unwrap_or(0),
            presence: self.presences.get(i).copied().unwrap_or(0),
            occupied: self.occupied.get(i).copied().unwrap_or(false),
        }
    }

    fn set_cell(&mut self, i: usize, cell: WinCell) {
        if let Some(slot) = self.ids.get_mut(i) {
            *slot = cell.id;
        }
        if let Some(slot) = self.freq16s.get_mut(i) {
            *slot = cell.freq16;
        }
        if let Some(slot) = self.presences.get_mut(i) {
            *slot = cell.presence;
        }
        if let Some(slot) = self.occupied.get_mut(i) {
            *slot = cell.occupied;
        }
    }

    fn clear(&mut self, i: usize) {
        self.set_cell(i, WinCell::default());
    }

    fn iter_cells(&self) -> impl Iterator<Item = WinCell> + '_ {
        self.ids
            .iter()
            .zip(&self.freq16s)
            .zip(&self.presences)
            .zip(&self.occupied)
            .map(|(((&id, &freq16), &presence), &occupied)| WinCell {
                id,
                freq16,
                presence,
                occupied,
            })
    }
}

/// LTC with sliding-window significance. See the module docs.
///
/// # Examples
///
/// ```
/// use ltc_core::WindowedLtc;
/// use ltc_common::{SignificanceQuery, Weights};
///
/// // Score over the last 4 periods only.
/// let mut w = WindowedLtc::new(64, 8, Weights::new(0.0, 1.0), 4, 1);
/// for _ in 0..6 {
///     w.insert(7);
///     w.end_period();
/// }
/// // Only the window's periods count (newest slot is the fresh period).
/// assert_eq!(w.persistency_of(7), Some(3));
/// ```
#[derive(Debug, Clone)]
pub struct WindowedLtc {
    store: WinStore,
    buckets: usize,
    cells_per_bucket: usize,
    weights: Weights,
    window: u32,
    mask: u64,
    hash: SeededHash,
    periods_completed: u64,
}

impl WindowedLtc {
    /// A table of `buckets × cells_per_bucket` cells scoring over the last
    /// `window` periods (1..=64).
    pub fn new(
        buckets: usize,
        cells_per_bucket: usize,
        weights: Weights,
        window: u32,
        seed: u64,
    ) -> Self {
        assert!(buckets >= 1 && cells_per_bucket >= 1, "degenerate shape");
        assert!(
            (1..=64).contains(&window),
            "window must be 1..=64 periods (bitmap width)"
        );
        let mask = if window == 64 {
            u64::MAX
        } else {
            // 1 <= window <= 63 here, so the shifted value is at least 2.
            (1u64 << window).wrapping_sub(1)
        };
        Self {
            store: WinStore::new(buckets.saturating_mul(cells_per_bucket)),
            buckets,
            cells_per_bucket,
            weights,
            window,
            mask,
            hash: SeededHash::new(seed as u32 ^ 0x51d3),
            periods_completed: 0,
        }
    }

    /// The window length in periods.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Periods completed so far.
    pub fn periods_completed(&self) -> u64 {
        self.periods_completed
    }

    /// Windowed frequency estimate of `id`, if tracked.
    pub fn frequency_of(&self, id: ItemId) -> Option<u64> {
        self.find(id).map(|c| c.freq())
    }

    /// Windowed persistency (periods present within the window) of `id`.
    pub fn persistency_of(&self, id: ItemId) -> Option<u64> {
        self.find(id).map(|c| c.persistency(self.mask))
    }

    fn bucket_range(&self, id: ItemId) -> std::ops::Range<usize> {
        let b = self.hash.index(id, self.buckets);
        let base = b.saturating_mul(self.cells_per_bucket);
        base..base.saturating_add(self.cells_per_bucket)
    }

    /// Find `id`'s slot: a branch-light reduction over the id and occupancy
    /// lanes only (the windowed analogue of [`crate::cell::scan_match`]).
    fn find_slot(&self, range: std::ops::Range<usize>, id: ItemId) -> Option<usize> {
        let ids = self.store.ids.get(range.clone()).unwrap_or(&[]);
        let occ = self.store.occupied.get(range.clone()).unwrap_or(&[]);
        let mut hit = usize::MAX;
        for (k, (&cid, &o)) in ids.iter().zip(occ).enumerate() {
            if (cid == id) & o {
                hit = k;
            }
        }
        (hit != usize::MAX).then(|| range.start.saturating_add(hit))
    }

    fn find(&self, id: ItemId) -> Option<WinCell> {
        self.find_slot(self.bucket_range(id), id)
            .map(|i| self.store.cell(i))
    }

    /// Record one occurrence of `id` in the current period.
    pub fn insert(&mut self, id: ItemId) {
        let range = self.bucket_range(id);
        let weights = self.weights;
        let mask = self.mask;

        if let Some(i) = self.find_slot(range.clone(), id) {
            if let Some(f) = self.store.freq16s.get_mut(i) {
                *f = f.saturating_add(16);
            }
            if let Some(p) = self.store.presences.get_mut(i) {
                *p |= 1;
            }
            return;
        }

        // First vacancy, scanning the occupancy lane alone.
        let occ = self.store.occupied.get(range.clone()).unwrap_or(&[]);
        if let Some(k) = occ.iter().position(|&o| !o) {
            self.store.set_cell(
                range.start.saturating_add(k),
                WinCell {
                    id,
                    freq16: 16,
                    presence: 1,
                    occupied: true,
                },
            );
            return;
        }

        // Bucket full: find the windowed minimum over the counter lanes
        // (every slot is occupied here, so the scan runs unconditionally).
        let f16 = self.store.freq16s.get(range.clone()).unwrap_or(&[]);
        let pres = self.store.presences.get(range.clone()).unwrap_or(&[]);
        let mut min_k = 0usize;
        let mut min_sig = f64::INFINITY;
        for (k, (&f, &p)) in f16.iter().zip(pres).enumerate() {
            let sig = weights.significance(f >> 4, u64::from((p & mask).count_ones()));
            if sig < min_sig {
                min_sig = sig;
                min_k = k;
            }
        }
        let min_i = range.start.saturating_add(min_k);

        // Significance-Decrement the windowed minimum: take one frequency
        // unit and the *oldest* presence bit (the windowed analogue of
        // decrementing the persistency counter).
        if let Some(f) = self.store.freq16s.get_mut(min_i) {
            *f = f.saturating_sub(16);
        }
        if let Some(p) = self.store.presences.get_mut(min_i) {
            let in_window = *p & mask;
            if in_window != 0 {
                let oldest = in_window.ilog2(); // non-zero checked above
                *p &= !(1u64 << oldest);
            }
        }
        let worn_out = self.store.cell(min_i).significance(&weights, mask) == 0.0;
        if worn_out {
            // Long-tail Replacement against the remaining minimum.
            let evicted = self.store.cell(min_i).id;
            let second = range
                .clone()
                .map(|i| self.store.cell(i))
                .filter(|x| x.occupied && x.id != evicted)
                .map(|x| (x.freq16, x.presence & mask))
                .min_by(|a, b| a.0.cmp(&b.0));
            let (f16, presence) = match second {
                Some((f2, p2)) => (f2.saturating_sub(16).max(16), p2 >> 1),
                None => (16, 0),
            };
            self.store.set_cell(
                min_i,
                WinCell {
                    id,
                    freq16: f16,
                    presence: presence | 1,
                    occupied: true,
                },
            );
        }
    }

    /// Close the current period: shift every presence bitmap, age every
    /// frequency by `(W-1)/W`, and drop cells whose window emptied.
    ///
    /// The shift and the scaling are unconditional whole-lane passes —
    /// unoccupied slots carry zeroes, which both transforms preserve — so
    /// only the reclamation pass consults occupancy.
    pub fn end_period(&mut self) {
        let mask = self.mask;
        let w = u64::from(self.window);
        for p in &mut self.store.presences {
            *p = (*p << 1) & mask;
        }
        if self.window == 1 {
            for f in &mut self.store.freq16s {
                *f = 0;
            }
        } else {
            let scale = w.saturating_sub(1);
            for f in &mut self.store.freq16s {
                *f = f.saturating_mul(scale).checked_div(w).unwrap_or(0);
            }
        }
        for i in 0..self.store.len() {
            let c = self.store.cell(i);
            if c.occupied && c.presence == 0 && c.freq16 < 16 {
                // Aged out of the window entirely.
                self.store.clear(i);
            }
        }
        self.periods_completed = self.periods_completed.saturating_add(1);
    }
}

impl StreamProcessor for WindowedLtc {
    fn insert(&mut self, id: ItemId) {
        WindowedLtc::insert(self, id);
    }

    fn end_period(&mut self) {
        WindowedLtc::end_period(self);
    }

    fn name(&self) -> &'static str {
        "LTC-W"
    }
}

impl SignificanceQuery for WindowedLtc {
    fn estimate(&self, id: ItemId) -> Option<f64> {
        self.find(id)
            .map(|c| c.significance(&self.weights, self.mask))
    }

    fn top_k(&self, k: usize) -> Vec<Estimate> {
        let weights = self.weights;
        let mask = self.mask;
        top_k_of(
            self.store
                .iter_cells()
                .filter(|c| c.occupied)
                .map(|c| Estimate::new(c.id, c.significance(&weights, mask)))
                .collect(),
            k,
        )
    }
}

impl MemoryUsage for WindowedLtc {
    fn memory_bytes(&self) -> usize {
        // id 8 + aged frequency 4 + presence bitmap 8 = 20 B per cell under
        // the workspace cost model.
        self.store.len().saturating_mul(20)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(window: u32) -> WindowedLtc {
        WindowedLtc::new(16, 4, Weights::new(0.0, 1.0), window, 5)
    }

    #[test]
    fn windowed_persistency_counts_recent_periods_only() {
        let mut t = table(4);
        // Item 1 appears in periods 0..6; window of 4.
        for _p in 0..6 {
            t.insert(1);
            t.end_period();
        }
        // The window covers the current (just-opened, empty) period plus
        // the last 3 completed ones — appearances in periods 3, 4, 5 are in
        // range, period 2 has slid out.
        assert_eq!(t.persistency_of(1), Some(3));
        // One more active period fills the newest slot again.
        t.insert(1);
        assert_eq!(t.persistency_of(1), Some(4));
    }

    #[test]
    fn lapsed_items_lose_score_and_slot() {
        let mut t = table(3);
        t.insert(7);
        t.end_period();
        assert_eq!(t.persistency_of(7), Some(1));
        t.end_period();
        t.end_period();
        // Window slid past every appearance: cell reclaimed.
        t.end_period();
        assert_eq!(t.persistency_of(7), None, "aged out");
    }

    #[test]
    fn recent_item_outranks_formerly_persistent() {
        let mut t = table(4);
        // Old-timer: periods 0..4. Newcomer: periods 6..10.
        for _ in 0..4 {
            t.insert(100);
            t.end_period();
        }
        for _ in 0..2 {
            t.end_period(); // 100 fades
        }
        for _ in 0..4 {
            t.insert(200);
            t.end_period();
        }
        let top = t.top_k(2);
        assert_eq!(top[0].id, 200, "window favours the recent item");
        assert!(t
            .persistency_of(100)
            .is_none_or(|p| p < t.persistency_of(200).unwrap()));
    }

    #[test]
    fn frequency_ages_exponentially() {
        let mut t = WindowedLtc::new(16, 4, Weights::FREQUENT, 4, 5);
        for _ in 0..64 {
            t.insert(9);
        }
        assert_eq!(t.frequency_of(9), Some(64));
        t.end_period();
        assert_eq!(t.frequency_of(9), Some(48), "aged by 3/4");
        t.end_period();
        assert_eq!(t.frequency_of(9), Some(36));
    }

    #[test]
    fn window_of_one_resets_each_period() {
        let mut t = table(1);
        t.insert(3);
        assert_eq!(t.persistency_of(3), Some(1));
        t.end_period();
        assert_eq!(t.persistency_of(3), None, "everything expires");
    }

    #[test]
    fn eviction_still_favours_significant_items() {
        let mut t = WindowedLtc::new(1, 2, Weights::new(0.0, 1.0), 8, 5);
        // Two residents with different windowed persistency.
        for _p in 0..4 {
            t.insert(1);
            if _p < 1 {
                t.insert(2);
            }
            t.end_period();
        }
        // A churner hammers the bucket: must evict 2 (lower persistency).
        for _ in 0..20 {
            t.insert(3);
        }
        assert!(t.persistency_of(1).is_some(), "strong item survives");
    }

    #[test]
    #[should_panic(expected = "window must be")]
    fn window_over_64_rejected() {
        let _ = table(65);
    }

    #[test]
    fn memory_model_charges_bitmap() {
        let t = WindowedLtc::new(10, 8, Weights::BALANCED, 16, 1);
        assert_eq!(t.memory_bytes(), 10 * 8 * 20);
    }
}
