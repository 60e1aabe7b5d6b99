//! Hash-sharded LTC — scale-out across cores or switches.
//!
//! A single LTC is single-writer. To use `N` cores (or aggregate `N`
//! monitoring points, the paper's data-center scenario), partition the item
//! space by hash: shard `i` owns the ids whose shard-hash maps to `i` and
//! runs an independent LTC over its sub-stream. Because the partition is by
//! *item*, every occurrence of an item lands in the same shard, so per-item
//! frequency/persistency are as accurate as a single table of the shard's
//! size — and the global top-k is the top-k of the union of shard
//! candidates (no cross-shard error, unlike splitting the stream randomly).
//!
//! [`ShardedLtc`] is the single-threaded container (routing, fan-out of
//! period boundaries, merged queries). For actual parallelism use the
//! ready-made runtime in [`crate::pipeline`]: [`ParallelLtc`] owns one
//! worker thread per shard, routes batches over bounded queues with the
//! same [`shard_of_id`] partition, and synchronises `end_period` with an
//! epoch barrier — so its shards stay bit-identical to this container's
//! (see `tests/parallel_pipeline.rs` and `examples/parallel_shards.rs`).
//! The building blocks remain public for custom topologies: move shards
//! into your own threads with [`ShardedLtc::into_shards`], route with
//! [`shard_of_id`], reassemble with [`ShardedLtc::from_shards`].
//!
//! [`ParallelLtc`]: crate::pipeline::ParallelLtc

use crate::config::LtcConfig;
use crate::stats::LtcStats;
use crate::table::Ltc;
use ltc_common::{
    top_k_of, BatchStreamProcessor, Estimate, ItemId, MemoryUsage, SignificanceQuery,
    StreamProcessor,
};
use ltc_hash::bob_hash_u64;

/// Seed for the shard-routing hash. Distinct from every table seed so that
/// routing is independent of bucket placement.
const SHARD_SEED: u32 = 0x5aa2_d001;

/// Which shard of `n` owns `id`.
#[inline]
pub fn shard_of_id(id: ItemId, n: usize) -> usize {
    debug_assert!(n > 0);
    // n == 0 is a caller bug (debug-asserted above); shard 0 is the benign
    // release-mode answer and `checked_rem` keeps the hot path branch-light.
    bob_hash_u64(id, SHARD_SEED)
        .checked_rem(n as u64)
        .unwrap_or(0) as usize
}

/// Hash-partitioned collection of LTC tables. See the module docs.
#[derive(Clone)]
pub struct ShardedLtc {
    shards: Vec<Ltc>,
    /// Per-shard routing buffers reused across [`insert_batch`] calls
    /// (empty between calls, capacity retained). Allocating these fresh per
    /// batch cost ~40% of sharded batch throughput — see BENCH_pipeline.json
    /// `sharded4_batch256_mops`.
    ///
    /// [`insert_batch`]: ShardedLtc::insert_batch
    route_scratch: Vec<Vec<ItemId>>,
}

impl std::fmt::Debug for ShardedLtc {
    /// Debug shows the shards only: `route_scratch` is transient routing
    /// state (drained between calls), and tests compare Debug output of
    /// differently-fed containers that must still read as equal.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLtc")
            .field("shards", &self.shards)
            .finish_non_exhaustive()
    }
}

impl ShardedLtc {
    /// `n` shards, each an LTC built from `config` (same shape each; the
    /// per-shard seed is perturbed so tables hash independently).
    ///
    /// A time-driven `config` (built with `time_units_per_period`) is
    /// accepted, but its shards are fed through [`into_shards`] and
    /// [`Ltc::insert_at`]: this container's own [`insert`] and
    /// [`insert_batch`] route count-driven records only, and panic on the
    /// caller's thread for a time-driven config.
    ///
    /// # Panics
    /// Panics if `n` is 0.
    ///
    /// [`into_shards`]: ShardedLtc::into_shards
    /// [`insert`]: StreamProcessor::insert
    /// [`insert_batch`]: ShardedLtc::insert_batch
    pub fn new(config: LtcConfig, n: usize) -> Self {
        assert!(n > 0, "need at least one shard");
        let shards = (0..n)
            .map(|i| {
                let mut cfg = config;
                cfg.seed = config.seed.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9);
                Ltc::new(cfg)
            })
            .collect();
        Self {
            shards,
            route_scratch: Vec::new(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Which shard owns `id`.
    #[inline]
    pub fn shard_of(&self, id: ItemId) -> usize {
        shard_of_id(id, self.shards.len())
    }

    /// Take the shards out for parallel feeding.
    pub fn into_shards(self) -> Vec<Ltc> {
        self.shards
    }

    /// Reassemble from independently fed shards (must be the full set, in
    /// shard order).
    pub fn from_shards(shards: Vec<Ltc>) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        Self {
            shards,
            route_scratch: Vec::new(),
        }
    }

    /// Access a shard.
    pub fn shard(&self, i: usize) -> &Ltc {
        &self.shards[i]
    }

    /// Merged operational counters across every shard: the record-path
    /// counters (`inserts`, `hits`, `fills`, `decrements`, `admissions`,
    /// `harvests`) sum, while `periods` reports the *stream's* period
    /// count — every shard crosses the same boundaries, so the per-shard
    /// counts are averaged rather than summed.
    pub fn stats(&self) -> LtcStats {
        let mut merged: LtcStats = self.shards.iter().map(Ltc::stats).sum();
        merged.periods = merged
            .periods
            .checked_div(self.shards.len() as u64)
            .unwrap_or(0);
        merged
    }

    /// Finalize every shard (harvest last-period flags).
    pub fn finalize(&mut self) {
        for s in &mut self.shards {
            s.finalize();
        }
    }

    /// Route a batch: one scan over `ids` splits it into per-shard runs
    /// (preserving each shard's record order), then every shard ingests its
    /// run through [`Ltc::insert_batch`]. Equivalent to routing the records
    /// one by one. The shard hash is computed once per record, and the
    /// per-shard run buffers persist across calls, so steady-state batches
    /// allocate nothing.
    pub fn insert_batch(&mut self, ids: &[ItemId]) {
        let n = self.shards.len();
        if n == 1 {
            self.shards[0].insert_batch(ids);
            return;
        }
        self.route_scratch.resize_with(n, Vec::new);
        for &id in ids {
            if let Some(run) = self.route_scratch.get_mut(shard_of_id(id, n)) {
                run.push(id);
            }
        }
        for (shard, run) in self.shards.iter_mut().zip(&mut self.route_scratch) {
            if !run.is_empty() {
                shard.insert_batch(run);
                run.clear();
            }
        }
    }
}

impl StreamProcessor for ShardedLtc {
    #[inline]
    fn insert(&mut self, id: ItemId) {
        let s = self.shard_of(id);
        self.shards[s].insert(id);
    }

    fn end_period(&mut self) {
        for s in &mut self.shards {
            s.end_period();
        }
    }

    fn finish(&mut self) {
        self.finalize();
    }

    fn name(&self) -> &'static str {
        "LTC-sharded"
    }
}

impl BatchStreamProcessor for ShardedLtc {
    #[inline]
    fn insert_batch(&mut self, ids: &[ItemId]) {
        ShardedLtc::insert_batch(self, ids);
    }
}

impl SignificanceQuery for ShardedLtc {
    fn estimate(&self, id: ItemId) -> Option<f64> {
        self.shards[self.shard_of(id)].estimate(id)
    }

    fn top_k(&self, k: usize) -> Vec<Estimate> {
        // Union of per-shard top-k is a superset of the global top-k.
        let candidates: Vec<Estimate> = self.shards.iter().flat_map(|s| s.top_k(k)).collect();
        top_k_of(candidates, k)
    }
}

impl MemoryUsage for ShardedLtc {
    fn memory_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.memory_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_common::Weights;

    fn config() -> LtcConfig {
        LtcConfig::builder()
            .buckets(32)
            .cells_per_bucket(4)
            .weights(Weights::BALANCED)
            .records_per_period(100)
            .seed(7)
            .build()
    }

    #[test]
    fn routing_is_stable_and_balanced() {
        let t = ShardedLtc::new(config(), 4);
        let mut counts = [0usize; 4];
        for id in 0..4_000u64 {
            let s = t.shard_of(id);
            assert_eq!(s, t.shard_of(id));
            counts[s] += 1;
        }
        for &c in &counts {
            assert!((800..=1200).contains(&c), "imbalanced: {counts:?}");
        }
    }

    #[test]
    fn sharded_agrees_with_oracle_on_heavy_hitter() {
        // DE-only variant: no overestimation, so the bound below is exact.
        let mut cfg = config();
        cfg.variant = crate::config::Variant::DEVIATION_ONLY;
        let mut t = ShardedLtc::new(cfg, 3);
        for period in 0..5u64 {
            for i in 0..100u64 {
                // Noise ids offset so they can never collide with 42.
                t.insert(if i % 4 == 0 {
                    42
                } else {
                    1_000 + period * 100 + i
                });
            }
            t.end_period();
        }
        t.finalize();
        assert_eq!(t.top_k(1)[0].id, 42);
        // True significance: f=125, p=5 → 130. Never overestimated, and the
        // heavy hitter is barely contended so it stays near-exact.
        let est = t.estimate(42).unwrap();
        assert!((120.0..=130.0).contains(&est), "estimate {est}");
    }

    #[test]
    fn global_top_k_merges_across_shards() {
        let mut t = ShardedLtc::new(config(), 4);
        // Ten heavy items spread across shards by hash.
        for rep in 0..20 {
            for id in 0..10u64 {
                for _ in 0..=(10 - id) as usize {
                    t.insert(id);
                }
            }
            let _ = rep;
        }
        t.end_period();
        t.finalize();
        let top: Vec<ItemId> = t.top_k(3).iter().map(|e| e.id).collect();
        assert_eq!(top, vec![0, 1, 2], "global order across shards");
    }

    #[test]
    fn into_and_from_shards_roundtrip() {
        let mut t = ShardedLtc::new(config(), 2);
        for i in 0..200u64 {
            t.insert(i % 20);
        }
        t.end_period();
        let before = t.top_k(5);
        let shards = t.into_shards();
        let t2 = ShardedLtc::from_shards(shards);
        assert_eq!(t2.top_k(5), before);
    }

    #[test]
    fn memory_sums_over_shards() {
        let t = ShardedLtc::new(config(), 3);
        assert_eq!(t.memory_bytes(), 3 * 32 * 4 * 16);
    }

    #[test]
    fn stats_merge_across_shards() {
        let mut t = ShardedLtc::new(config(), 4);
        for i in 0..500u64 {
            t.insert(i % 40);
        }
        t.end_period();
        t.end_period();
        let merged = t.stats();
        assert_eq!(merged.inserts, 500, "record counters sum across shards");
        assert_eq!(merged.periods, 2, "periods report the stream's count");
        // The merged view equals folding the per-shard stats by hand.
        let by_hand: LtcStats = (0..4).map(|s| t.shard(s).stats()).sum();
        assert_eq!(merged.inserts, by_hand.inserts);
        assert_eq!(merged.hits, by_hand.hits);
        assert_eq!(merged.harvests, by_hand.harvests);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedLtc::new(config(), 0);
    }

    #[test]
    fn batch_routing_matches_scalar_routing() {
        // The scatter-gather batch path (persistent scratch, one shard hash
        // per record) must leave every shard bit-identical to one-by-one
        // routing, across multiple batches so scratch reuse is exercised.
        let ids: Vec<ItemId> = (0..1_000u64).map(|i| i * 7 % 61).collect();
        let mut scalar = ShardedLtc::new(config(), 4);
        for &id in &ids {
            scalar.insert(id);
        }
        let mut batched = ShardedLtc::new(config(), 4);
        for chunk in ids.chunks(256) {
            batched.insert_batch(chunk);
        }
        for s in 0..4 {
            assert_eq!(
                format!("{:?}", scalar.shard(s)),
                format!("{:?}", batched.shard(s)),
                "shard {s} diverged"
            );
        }
        for run in &batched.route_scratch {
            assert!(run.is_empty(), "scratch drained between batches");
        }
    }
}
