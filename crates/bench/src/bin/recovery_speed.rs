//! Reproducible baseline for the durability layer: checkpoint save cost
//! (full frame vs delta frame), crash-recovery speed, and the ingest-path
//! tax of running the background durability service. Writes
//! `BENCH_recovery.json` (repo root) so the numbers — and the host they
//! were measured on — are checked in alongside the code.
//!
//! ```sh
//! cargo run --release -p ltc-bench --bin recovery_speed
//! LTC_SCALE=50 cargo run --release -p ltc-bench --bin recovery_speed   # quick look
//! ```
//!
//! Ingest keys are in record-Mops (records/s). Save and recovery cost is
//! driven by the *table*, not the stream, so those keys are in cell-Mops —
//! millions of table cells covered per second, over a **fixed** table
//! geometry that `LTC_SCALE` does not shrink. That keeps every `mops` key
//! comparable between the checked-in full-scale baseline and the scaled
//! CI re-run (`xtask bench-compare` gates them all): a delta frame covers
//! the same table as its base in a fraction of the time, so
//! `delta_save_cells_mops` must sit far above `full_save_cells_mops`.
//!
//! Saves are timed as production makes them: `checkpoint_now` on a
//! durability service, so each figure includes the hand-off to the
//! service thread.

use ltc_bench::scale;
use ltc_common::Weights;
use ltc_core::checkpoint::Checkpointer;
use ltc_core::durability::{DurabilityPolicy, DurabilityService};
use ltc_core::{FaultPolicy, LtcConfig, ParallelLtc, Variant};
use ltc_workloads::generator::zipf_samples;
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Paper-scale workload: 4M Zipf(1.0) records over 50 periods.
const RECORDS: usize = 4_000_000;
const DISTINCT: usize = 400_000;
const PERIODS: usize = 50;
const SKEW: f64 = 1.0;
/// Runs per measurement; the minimum is reported.
const REPS: usize = 3;
/// Worker threads / hand-off batch for the pipeline under test.
const THREADS: usize = 2;
const BATCH: usize = 256;
/// Post-base tail dirtying only hot buckets, so the delta stays sparse the
/// way a real between-checkpoints window does under a skewed stream.
const HOT_TAIL: usize = 2_000;
/// Table geometry for the save/recovery measurements. Deliberately *not*
/// scaled by `LTC_SCALE`: frame encode/decode and fsync cost are table-
/// driven, so a fixed table keeps the cell-Mops keys comparable between
/// the full-scale baseline and scaled CI re-runs.
const SAVE_BUCKETS: usize = 16_384;
const CELLS_PER_BUCKET: usize = 8;

#[derive(Serialize)]
struct Workload {
    records: u64,
    distinct: u64,
    periods: u64,
    zipf_skew: f64,
    seed: u64,
    scale_divisor: u64,
}

#[derive(Serialize)]
struct Host {
    cpus: u64,
    os: String,
    arch: String,
}

#[derive(Serialize)]
struct Report {
    bench: String,
    host: Host,
    workload: Workload,
    /// Cells in the fixed save/recovery table (all shards).
    save_table_cells: u64,
    /// Full-frame checkpoint of the fixed table, cells/s.
    full_save_cells_mops: f64,
    /// Delta frame after a hot-key tail, same cell scale — the headline:
    /// deltas cover the table far faster than full frames.
    delta_save_cells_mops: f64,
    /// `restore_from` (newest generation = base + delta), cells/s.
    recovery_cells_mops: f64,
    /// Pipeline ingest without any durability service attached, records/s.
    ingest_plain_mops: f64,
    /// Same ingest with the background service checkpointing on a timer.
    ingest_durable_mops: f64,
    /// Frame sizes (bytes), for the compression story; not gated.
    full_frame_bytes: u64,
    delta_frame_bytes: u64,
    delta_to_full_ratio: f64,
}

fn mops(records: usize, secs: f64) -> f64 {
    records as f64 / secs / 1e6
}

/// Best-of-[`REPS`] wall-clock of `run`.
fn best_secs(mut run: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ltc-recovery-bench-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A durability service on `p` that saves only when asked, into `dir`.
/// `max_chain_len: 0` makes every frame full.
fn saver(p: &ParallelLtc, dir: &Path, max_chain_len: u32) -> DurabilityService {
    DurabilityService::attach(
        p,
        Checkpointer::new(dir).expect("store").keep_generations(64),
        DurabilityPolicy {
            interval: Duration::from_secs(3_600),
            max_chain_len,
            ..DurabilityPolicy::default()
        },
    )
    .expect("durability service")
}

fn main() {
    let s = scale() as usize;
    let records = (RECORDS / s).max(PERIODS);
    let distinct = (DISTINCT / s).max(1_000);
    let per_period = records / PERIODS;
    let buckets = (16_384 / s).max(64);
    let config = LtcConfig::builder()
        .buckets(buckets)
        .cells_per_bucket(8)
        .records_per_period((per_period / THREADS) as u64)
        .weights(Weights::BALANCED)
        .variant(Variant::FULL)
        .seed(7)
        .build();
    eprintln!(
        "[gen] {records} Zipf({SKEW}) records, {distinct} distinct, {PERIODS} periods, \
         {buckets}x8 cells"
    );
    let stream = zipf_samples(records, distinct as u64, SKEW, 42);

    let ingest = |p: &mut ParallelLtc| {
        for period in stream.chunks(per_period) {
            p.insert_batch(period);
            p.end_period().expect("no shard faults");
        }
        p.sync().expect("no shard faults");
    };

    // ---- ingest tax ------------------------------------------------------
    eprintln!("[run] ingest, no durability");
    let ingest_plain_mops = mops(
        records,
        best_secs(|| {
            let mut p = ParallelLtc::with_batch_size(config, THREADS, BATCH);
            ingest(&mut p);
            p.finish().expect("no shard faults");
        }),
    );
    eprintln!("       {ingest_plain_mops:.2} Mops");

    eprintln!("[run] ingest, background durability service");
    let ingest_durable_mops = mops(
        records,
        best_secs(|| {
            let dir = scratch("ingest");
            let mut p = ParallelLtc::with_batch_size(config, THREADS, BATCH);
            let service = DurabilityService::attach(
                &p,
                Checkpointer::new(&dir).expect("store"),
                DurabilityPolicy {
                    interval: Duration::from_millis(100),
                    max_chain_len: 8,
                    faults: FaultPolicy::default(),
                },
            )
            .expect("durability service");
            ingest(&mut p);
            drop(service);
            p.finish().expect("no shard faults");
            let _ = std::fs::remove_dir_all(&dir);
        }),
    );
    eprintln!(
        "       {ingest_durable_mops:.2} Mops ({:.1}% of plain)",
        ingest_durable_mops / ingest_plain_mops * 100.0
    );

    // ---- save + recovery cost -------------------------------------------
    // One table at the fixed geometry (frame cost is table-driven, see the
    // module doc); full saves re-snapshot everything, the delta save covers
    // only the buckets dirtied by a hot-key tail (deltas are cumulative, so
    // every timed delta carries the same buckets).
    let save_config = LtcConfig::builder()
        .buckets(SAVE_BUCKETS)
        .cells_per_bucket(CELLS_PER_BUCKET)
        .records_per_period((per_period / THREADS) as u64)
        .weights(Weights::BALANCED)
        .variant(Variant::FULL)
        .seed(7)
        .build();
    let save_cells = SAVE_BUCKETS * CELLS_PER_BUCKET * THREADS;
    let mut p = ParallelLtc::with_batch_size(save_config, THREADS, BATCH);
    ingest(&mut p);
    let dir = scratch("saves");

    eprintln!("[run] full-frame save ({SAVE_BUCKETS}x{CELLS_PER_BUCKET} cells x {THREADS} shards)");
    let full = saver(&p, &dir, 0);
    let full_secs = best_secs(|| {
        std::hint::black_box(full.checkpoint_now().expect("save"));
    });
    drop(full);
    let full_save_cells_mops = mops(save_cells, full_secs);
    eprintln!(
        "       {:.2} ms -> {full_save_cells_mops:.2} cell-Mops",
        full_secs * 1e3
    );

    // Dirty only hot buckets mid-period — the shape of a real
    // between-checkpoints window (a period boundary would sweep the CLOCK
    // across the whole table and dirty most of it).
    let chained = saver(&p, &dir, 8);
    let base_generation = chained.checkpoint_now().expect("base");
    for i in 0..HOT_TAIL {
        p.insert((i % 16) as u64);
    }
    p.sync().expect("no shard faults");

    eprintln!("[run] delta-frame save");
    let mut delta_generation = 0;
    let delta_secs = best_secs(|| {
        delta_generation = chained.checkpoint_now().expect("save");
    });
    let delta_save_cells_mops = mops(save_cells, delta_secs);
    eprintln!(
        "       {:.2} ms -> {delta_save_cells_mops:.2} cell-Mops",
        delta_secs * 1e3
    );

    // The newest delta and its base are the chain the recovery measurement
    // restores; compare the frame footprints from it.
    assert_eq!(chained.status().delta_saves, REPS as u64, "no compaction");
    let store = chained.store().clone();
    drop(chained);
    let full_frame_bytes = store.load(base_generation).expect("base bytes").len() as u64;
    let delta_frame_bytes = store.load(delta_generation).expect("delta bytes").len() as u64;

    eprintln!("[run] crash recovery (base + delta)");
    let recovery_secs = best_secs(|| {
        let mut fresh = ParallelLtc::with_batch_size(save_config, THREADS, BATCH);
        fresh.restore_from(&store).expect("restore");
        fresh.finish().expect("no shard faults");
    });
    let recovery_cells_mops = mops(save_cells, recovery_secs);
    eprintln!(
        "       {:.2} ms -> {recovery_cells_mops:.2} cell-Mops",
        recovery_secs * 1e3
    );
    p.finish().expect("no shard faults");
    let _ = std::fs::remove_dir_all(&dir);

    let report = Report {
        bench: "recovery_speed".to_string(),
        host: Host {
            cpus: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(0),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
        },
        workload: Workload {
            records: records as u64,
            distinct: distinct as u64,
            periods: PERIODS as u64,
            zipf_skew: SKEW,
            seed: 42,
            scale_divisor: s as u64,
        },
        save_table_cells: save_cells as u64,
        full_save_cells_mops,
        delta_save_cells_mops,
        recovery_cells_mops,
        ingest_plain_mops,
        ingest_durable_mops,
        full_frame_bytes,
        delta_frame_bytes,
        delta_to_full_ratio: delta_frame_bytes as f64 / full_frame_bytes as f64,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    let path = "BENCH_recovery.json";
    std::fs::write(path, format!("{json}\n")).expect("write BENCH_recovery.json");
    eprintln!("[emit] wrote {path}");
    println!("{json}");
}
