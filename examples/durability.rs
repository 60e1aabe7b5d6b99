//! Crash-safe ingest: a background durability service checkpoints the
//! pipeline while it streams, the process "dies", and a fresh process
//! restores the newest generation and replays only the unacknowledged tail.
//!
//! The service writes **delta frames** (only buckets dirtied since the last
//! full frame) on a timer and compacts the chain back into a full frame
//! every few deltas, so the hot path never stops for a full snapshot. Every
//! delta carries the CRC of its base frame; restore verifies the chain and
//! falls back a generation if any link is torn.
//!
//! ```sh
//! cargo run --release --example durability
//! ```

use significant_items::core_::checkpoint::Checkpointer;
use significant_items::core_::durability::{DurabilityPolicy, DurabilityService};
use significant_items::prelude::*;
use significant_items::workloads::{generate, StreamSpec};
use std::time::Duration;

const SHARDS: usize = 2;
const CRASH_AFTER: usize = 18; // periods ingested before the "crash"

fn main() {
    let spec = StreamSpec {
        name: "billing-stream",
        total_records: 240_000,
        distinct_items: 20_000,
        periods: 24,
        zipf_skew: 1.1,
        burst_fraction: 0.2,
        periodic_fraction: 0.1,
        seed: 4242,
    };
    let stream = generate(&spec);
    let n_per_period = stream.layout.records_per_period().unwrap();
    let config = LtcConfig::builder()
        .buckets(1_024)
        .cells_per_bucket(8)
        .weights(Weights::new(1.0, 10.0))
        .records_per_period(n_per_period / SHARDS as u64)
        .build();

    let dir = std::env::temp_dir().join(format!("ltc-durability-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");

    // ---- Phase 1: ingest with background checkpoints ---------------------
    let mut pipeline = ParallelLtc::new(config, SHARDS);
    let service = DurabilityService::attach(
        &pipeline,
        Checkpointer::new(&dir).expect("store"),
        DurabilityPolicy {
            interval: Duration::from_millis(20), // background tick cadence
            max_chain_len: 4,                    // compact after 4 deltas
            ..DurabilityPolicy::default()
        },
    )
    .expect("durability service");

    // The upstream log is the stream itself: a checkpoint acknowledges a
    // period prefix, and after a crash the operator replays the rest. We
    // quiesce at each boundary and ask for one explicit checkpoint so the
    // acknowledged prefix is exact; the timer keeps saving between them.
    let mut acked_period = None;
    for (period, records) in stream.periods().take(CRASH_AFTER).enumerate() {
        pipeline.insert_batch(records);
        pipeline.end_period().expect("healthy pipeline");
        pipeline.sync().expect("healthy pipeline");
        let generation = service.checkpoint_now().expect("checkpoint");
        acked_period = Some(period);
        if period % 6 == 5 {
            println!("period {period:>2}: acknowledged as generation {generation}");
        }
    }
    let status = service.status();
    println!(
        "\nservice at crash time: {} full frames, {} deltas, {} compactions, chain length {}",
        status.full_saves, status.delta_saves, status.compactions, status.chain_length,
    );

    // ---- Phase 2: crash --------------------------------------------------
    // The service dies with the process; nothing below this line sees the
    // old pipeline. Whatever reached the store directory is all that
    // survives.
    drop(service);
    drop(pipeline);
    let acked = acked_period.expect("at least one checkpoint");
    println!("simulated crash after period {}\n", CRASH_AFTER - 1);

    // ---- Phase 3: restore + replay the unacknowledged tail ---------------
    let mut recovered = ParallelLtc::new(config, SHARDS);
    let generation = recovered
        .restore_from(&Checkpointer::new(&dir).expect("store"))
        .expect("a durable generation");
    println!("restored generation {generation} (periods 0..={acked})");
    for records in stream.periods().skip(acked + 1) {
        recovered.insert_batch(records);
        recovered.end_period().expect("healthy pipeline");
    }
    recovered.finish().expect("healthy pipeline");

    // ---- Phase 4: verify top-k continuity --------------------------------
    // An uninterrupted run over the same stream must agree: restore is
    // bit-exact and the replay is deterministic.
    let mut reference = ParallelLtc::new(config, SHARDS);
    for records in stream.periods() {
        reference.insert_batch(records);
        reference.end_period().expect("healthy pipeline");
    }
    reference.finish().expect("healthy pipeline");

    let recovered_top = recovered.top_k(10);
    let reference_top = reference.top_k(10);
    println!("\ntop-10 after crash + recovery vs uninterrupted run:");
    for (rank, (r, u)) in recovered_top.iter().zip(&reference_top).enumerate() {
        println!(
            "  #{:<2} recovered: item {:<12} ŝ = {:<8} uninterrupted: item {:<12} ŝ = {}",
            rank + 1,
            r.id,
            r.value,
            u.id,
            u.value
        );
    }
    assert_eq!(
        recovered_top, reference_top,
        "recovery must preserve the query state"
    );
    println!("\ntop-k identical: crash + restore + replay lost nothing.");
    let _ = std::fs::remove_dir_all(&dir);
}
