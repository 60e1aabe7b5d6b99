//! Integration: the multi-threaded [`ParallelLtc`] runtime is equivalent to
//! the single-threaded [`ShardedLtc`] on a realistic workload — same
//! per-shard estimates, same global answers — and the batched hand-off
//! machinery (partial batches, period barriers, reassembly) introduces no
//! drift at any batch size.

use significant_items::core_::{LtcConfig, ParallelLtc, ShardedLtc, Variant};
use significant_items::prelude::*;
use significant_items::workloads::generator::zipf_samples;

const SHARDS: usize = 4;
const RECORDS: usize = 40_000;
const PER_PERIOD: usize = 5_000;

fn config() -> LtcConfig {
    LtcConfig::builder()
        .buckets(64)
        .cells_per_bucket(8)
        .records_per_period(PER_PERIOD as u64)
        .weights(Weights::BALANCED)
        .variant(Variant::FULL)
        .seed(7)
        .build()
}

fn workload() -> Vec<ItemId> {
    zipf_samples(RECORDS, 10_000, 1.1, 42)
}

/// Drive both runtimes over the same periodised stream; return them ready
/// for querying.
fn run_both(batch_size: usize) -> (ShardedLtc, ParallelLtc) {
    let stream = workload();
    let mut reference = ShardedLtc::new(config(), SHARDS);
    let mut parallel = ParallelLtc::with_batch_size(config(), SHARDS, batch_size);
    for chunk in stream.chunks(PER_PERIOD) {
        for &id in chunk {
            reference.insert(id);
        }
        parallel.insert_batch(chunk);
        reference.end_period();
        parallel.end_period().expect("no shard faults in this test");
    }
    reference.finish();
    parallel.finish().expect("no shard faults in this test");
    (reference, parallel)
}

#[test]
fn per_shard_estimates_match_single_threaded() {
    let (reference, parallel) = run_both(256);
    let reassembled = parallel.into_sharded().expect("no shard faults");
    for s in 0..SHARDS {
        // Estimates of every id the reference shard tracks, plus the
        // shard's full ranking, must agree exactly.
        let ref_shard = reference.shard(s);
        let par_shard = reassembled.shard(s);
        let estimates: Vec<Estimate> = ref_shard.top_k(64 * 8);
        assert!(!estimates.is_empty(), "shard {s} tracked nothing");
        for e in &estimates {
            assert_eq!(
                par_shard.estimate(e.id),
                Some(e.value),
                "shard {s}: estimate for id {} diverged",
                e.id
            );
        }
        assert_eq!(
            ref_shard.top_k(100),
            par_shard.top_k(100),
            "shard {s}: ranking diverged"
        );
    }
}

#[test]
fn global_queries_match_while_workers_live() {
    // Query through the live runtime (flush + drain + merged snapshot)
    // rather than after reassembly.
    let (reference, parallel) = run_both(256);
    assert_eq!(reference.top_k(100), parallel.top_k(100));
    for e in reference.top_k(20) {
        assert_eq!(parallel.estimate(e.id), Some(e.value));
    }
}

#[test]
fn equivalence_holds_at_awkward_batch_sizes() {
    // Batch sizes that never align with period boundaries, including 1
    // (every record its own message) — the barrier must still deliver
    // identical period placement.
    for batch_size in [1usize, 7, 333] {
        let stream = workload();
        let mut reference = ShardedLtc::new(config(), SHARDS);
        let mut parallel = ParallelLtc::with_batch_size(config(), SHARDS, batch_size);
        for chunk in stream.chunks(PER_PERIOD) {
            for &id in chunk {
                reference.insert(id);
                parallel.insert(id);
            }
            reference.end_period();
            parallel.end_period().expect("no shard faults");
        }
        reference.finish();
        parallel.finish().expect("no shard faults");
        assert_eq!(
            reference.top_k(50),
            parallel.top_k(50),
            "batch_size {batch_size} diverged"
        );
    }
}

/// A time-driven config: periods roll over by timestamp, which the
/// count-driven runtimes cannot feed.
fn time_driven_config() -> LtcConfig {
    LtcConfig::builder()
        .buckets(64)
        .cells_per_bucket(8)
        .time_units_per_period(1_000)
        .seed(7)
        .build()
}

#[test]
#[should_panic(expected = "count-driven config")]
fn parallel_runtime_rejects_a_time_driven_config_at_construction() {
    // Refused before any worker spawns: accepting it would panic every
    // batch inside a worker, and supervision would drop the records.
    let _ = ParallelLtc::new(time_driven_config(), 1);
}

#[test]
fn sharded_time_driven_inserts_panic_on_the_callers_thread() {
    let insert = std::panic::catch_unwind(|| {
        let mut sharded = ShardedLtc::new(time_driven_config(), 2);
        sharded.insert(1);
    });
    assert!(insert.is_err(), "insert must panic on the caller's thread");
    let batch = std::panic::catch_unwind(|| {
        let mut sharded = ShardedLtc::new(time_driven_config(), 1);
        sharded.insert_batch(&[1, 2, 3]);
    });
    assert!(
        batch.is_err(),
        "insert_batch must panic on the caller's thread"
    );
    // The documented path: take the shards out and feed them timestamps.
    let sharded = ShardedLtc::new(time_driven_config(), 2);
    let mut shards = sharded.into_shards();
    for t in 0..5_000u64 {
        let id = t % 50;
        let s = significant_items::core_::sharded::shard_of_id(id, shards.len());
        shards[s].insert_at(id, t);
    }
    let mut sharded = ShardedLtc::from_shards(shards);
    sharded.finish();
    assert_eq!(sharded.shard(0).periods_completed(), 4);
    assert!(!sharded.top_k(10).is_empty());
}
