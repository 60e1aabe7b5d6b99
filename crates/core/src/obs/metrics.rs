//! Wait-free metric primitives: counters, gauges and a fixed-bucket log2
//! histogram.
//!
//! Every update in this module is a single `Relaxed` atomic RMW or store —
//! no locks, no stronger orderings, no allocation. That is the hot-path
//! contract of the observability layer: instrumenting a per-record or
//! per-batch path must never add a synchronisation edge that the loom
//! models have not seen, and must never make a worker wait. The
//! `obs_hot_path` rule of `cargo run -p xtask -- lint` enforces this file
//! stays that way (any `Mutex`, `Condvar` or non-`Relaxed` ordering here is
//! a lint violation).
//!
//! Metrics are therefore *monotonic distributed counts*: readers
//! ([`Counter::get`], [`Histogram::snapshot`]) observe each cell at some
//! point in time, not an atomic cross-metric cut. That is the standard
//! Prometheus data model and exactly what the exporter needs.
//!
//! Handles are cheap `Arc` clones: the registry hands one to the hot path
//! and keeps another for export, so updates never touch the registry lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of finite log2 histogram buckets: bucket `i` has upper bound
/// `2^i`, so the finite range covers `[0, 2^39]` — as nanoseconds, about
/// nine minutes, far beyond any latency this runtime produces. Larger
/// values land in the overflow (`+Inf`) bucket.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// One metric cell, padded out to a cache line. Counters and gauges are
/// tiny separate allocations; without the alignment several cells end up
/// on one line and a producer-owned cell false-shares with a
/// worker-owned one, turning "wait-free update" into a cross-core line
/// bounce per batch.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Cell {
    // ordering: load=Relaxed, store=Relaxed, rmw=Relaxed -- wait-free statistic; readers tolerate torn cross-metric snapshots by design
    value: AtomicU64,
}

/// A monotonically increasing counter. Updates are wait-free `Relaxed`
/// adds; clones share the same cell.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<Cell>,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`. Wrapping at `u64::MAX` (reaching it takes centuries at any
    /// realistic rate; Prometheus treats a wrap as a counter reset).
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge. Updates are wait-free `Relaxed` stores; clones
/// share the same cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<Cell>,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, value: u64) {
        self.cell.value.store(value, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.value.load(Ordering::Relaxed)
    }
}

/// Shared cells of a [`Histogram`]. Line-aligned like [`Cell`], so the
/// head of the bucket array never shares a line with a neighbouring
/// allocation's cell.
#[derive(Debug)]
#[repr(align(64))]
struct HistogramCells {
    /// Finite buckets plus one overflow (`+Inf`) bucket at the end. Each
    /// holds the count of observations in *its own* range (non-cumulative;
    /// the exporter accumulates).
    // ordering: load=Relaxed, rmw=Relaxed -- wait-free statistic; bucket/count/sum need not be mutually consistent at read time
    buckets: [AtomicU64; HISTOGRAM_BUCKETS + 1],
    // ordering: load=Relaxed, rmw=Relaxed -- wait-free statistic; bucket/count/sum need not be mutually consistent at read time
    count: AtomicU64,
    // ordering: load=Relaxed, rmw=Relaxed -- wait-free statistic; bucket/count/sum need not be mutually consistent at read time
    sum: AtomicU64,
}

/// A fixed-shape log2 histogram: bucket `i` counts observations `v` with
/// `v <= 2^i` (and `v > 2^(i-1)`), the last bucket is `+Inf`. Recording is
/// three wait-free `Relaxed` adds — one bucket, the count, the sum — with
/// the bucket index computed from `leading_zeros`, so the hot path costs a
/// handful of instructions regardless of the value. Clones share cells.
#[derive(Debug, Clone)]
pub struct Histogram {
    cells: Arc<HistogramCells>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Point-in-time copy of a histogram's cells (per-bucket counts are
/// non-cumulative).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts; index [`HISTOGRAM_BUCKETS`] is the
    /// overflow (`+Inf`) bucket.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (wrapping).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Interpolated quantile estimate, `q` in `[0, 1]`. The target rank is
    /// located in the cumulative bucket counts, then the value is linearly
    /// interpolated between the bucket's bounds — exact for streams
    /// uniform within a bucket, within one bucket's width otherwise.
    /// Returns `0.0` for an empty histogram; ranks landing in the overflow
    /// bucket report its lower bound (there is no upper bound to
    /// interpolate toward).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = cumulative.saturating_add(n);
            if (next as f64) >= target {
                let lower = if i == 0 {
                    0.0
                } else {
                    bucket_bound(i.saturating_sub(1)) as f64
                };
                if i >= HISTOGRAM_BUCKETS {
                    return lower;
                }
                let upper = bucket_bound(i) as f64;
                let position = (target - cumulative as f64) / n as f64;
                return lower + position.clamp(0.0, 1.0) * (upper - lower);
            }
            cumulative = next;
        }
        // Concurrent records can leave count ahead of the bucket total;
        // the best available answer is the largest populated bound.
        bucket_bound(HISTOGRAM_BUCKETS.saturating_sub(1)) as f64
    }

    /// Interpolated median estimate (`quantile(0.50)`).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// Interpolated 99th-percentile estimate (`quantile(0.99)`).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Interpolated 99.9th-percentile estimate (`quantile(0.999)`).
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }
}

/// Upper bound of finite bucket `i`, i.e. `2^i`. Out-of-range indices
/// saturate to `u64::MAX` (the exporter never asks for them).
pub fn bucket_bound(i: usize) -> u64 {
    1u64.checked_shl(i as u32).unwrap_or(u64::MAX)
}

/// The bucket index for an observed value: the first finite bucket whose
/// bound is `>= value`, or the overflow bucket.
#[inline]
fn bucket_index(value: u64) -> usize {
    if value <= 1 {
        return 0;
    }
    // ceil(log2(value)) for value >= 2: 64 - leading_zeros(value - 1).
    let idx = 64u32.saturating_sub(value.wrapping_sub(1).leading_zeros()) as usize;
    idx.min(HISTOGRAM_BUCKETS)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            cells: Arc::new(HistogramCells {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// Record one observation. Wait-free: three `Relaxed` adds.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(bucket) = self.cells.buckets.get(bucket_index(value)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.cells.count.fetch_add(1, Ordering::Relaxed);
        self.cells.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.cells.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    pub fn sum(&self) -> u64 {
        self.cells.sum.load(Ordering::Relaxed)
    }

    /// Copy the cells out for export. Buckets are read after `count`, so a
    /// concurrent `record` can make the bucket total exceed `count` by the
    /// in-flight observations — never undercount them.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.cells.count.load(Ordering::Relaxed);
        let sum = self.cells.sum.load(Ordering::Relaxed);
        let buckets = self
            .cells
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            buckets,
            count,
            sum,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let clone = c.clone();
        clone.inc();
        assert_eq!(c.get(), 43, "clones share the cell");
    }

    #[test]
    fn gauge_overwrites() {
        let g = Gauge::new();
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn bucket_index_is_ceil_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 20), 20);
        assert_eq!(bucket_index((1 << 20) + 1), 21);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS, "overflow");
        assert_eq!(bucket_index(1 << 39), HISTOGRAM_BUCKETS - 1, "last finite");
        assert_eq!(bucket_index((1u64 << 39) + 1), HISTOGRAM_BUCKETS);
    }

    #[test]
    fn bucket_bounds_are_powers_of_two() {
        assert_eq!(bucket_bound(0), 1);
        assert_eq!(bucket_bound(10), 1024);
        assert_eq!(bucket_bound(200), u64::MAX, "saturates out of range");
    }

    #[test]
    fn histogram_records_into_the_right_buckets() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 1000, u64::MAX] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(h.count(), 6);
        assert_eq!(snap.count, 6);
        assert_eq!(snap.buckets[0], 2, "0 and 1");
        assert_eq!(snap.buckets[1], 1, "2");
        assert_eq!(snap.buckets[2], 1, "3");
        assert_eq!(snap.buckets[10], 1, "1000 <= 1024");
        assert_eq!(snap.buckets[HISTOGRAM_BUCKETS], 1, "u64::MAX overflows");
        assert_eq!(snap.buckets.iter().sum::<u64>(), 6);
        assert_eq!(
            h.sum(),
            0u64.wrapping_add(1 + 2 + 3 + 1000).wrapping_add(u64::MAX)
        );
    }

    /// Exact quantile of a sorted sample at rank `ceil(q*n)`.
    fn exact_quantile(sorted: &[u64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    #[test]
    fn quantiles_of_a_uniform_stream_interpolate_exactly() {
        // Uniform 1..=1000: every log2 bucket is filled uniformly, so the
        // interpolation is exact at the median.
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.p50(), 500.0, "uniform fill interpolates exactly");
        let sample: Vec<u64> = (1..=1000).collect();
        for (q, est) in [(0.99, snap.p99()), (0.999, snap.p999())] {
            let exact = exact_quantile(&sample, q);
            let err = (est - exact).abs() / exact;
            assert!(
                err < 0.05,
                "q={q}: estimate {est} vs exact {exact} (err {err:.4})"
            );
        }
    }

    #[test]
    fn quantiles_of_a_skewed_stream_stay_within_one_bucket() {
        // 990 fast observations (~16) and 10 slow outliers (~5000): the tail
        // quantiles must land in the outlier bucket, the median must not.
        let h = Histogram::new();
        let mut sample = vec![16u64; 990];
        sample.extend(std::iter::repeat_n(5000, 10));
        for &v in &sample {
            h.record(v);
        }
        sample.sort_unstable();
        let snap = h.snapshot();
        let p50 = snap.p50();
        // Exact p50 is 16; the estimate interpolates within its bucket
        // (8, 16].
        assert!(
            p50 > 8.0 && p50 <= 16.0,
            "median {p50} must land in the fast mode's bucket"
        );
        // Exact p99 is 16 (rank 990 of 1000 is still a fast observation):
        // the estimate must hit the fast bucket's upper bound exactly.
        assert_eq!(snap.p99(), 16.0);
        // Exact p999 is 5000; the estimate may be anywhere in its bucket
        // (4096, 8192].
        let p999 = snap.p999();
        assert!(
            p999 > 4096.0 && p999 <= 8192.0,
            "p999 {p999} must land in the outlier bucket"
        );
        assert!(p999 >= snap.p99(), "quantiles are monotone");
    }

    #[test]
    fn quantile_edge_cases() {
        let empty = Histogram::new().snapshot();
        assert_eq!(empty.p50(), 0.0);
        let h = Histogram::new();
        h.record(7);
        let one = h.snapshot();
        // A single observation answers every quantile from its bucket.
        let p50 = one.p50();
        assert!(p50 > 4.0 && p50 <= 8.0, "7 lives in (4, 8], got {p50}");
        assert_eq!(one.quantile(0.0), one.quantile(1.0));
        h.record(u64::MAX);
        let with_overflow = h.snapshot();
        let top = with_overflow.quantile(1.0);
        assert_eq!(
            top,
            bucket_bound(HISTOGRAM_BUCKETS - 1) as f64,
            "overflow bucket reports its lower bound"
        );
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::new();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for v in 0..1000u64 {
                        h.record(v);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
        assert_eq!(h.snapshot().buckets.iter().sum::<u64>(), 4000);
    }
}
