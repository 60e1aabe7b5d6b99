//! Deterministic fault-injection suite: drives the named failpoints in the
//! runtime (`worker::batch`, `worker::end_period`, `worker::spawn`,
//! `checkpoint::write`, `spsc::push`) to prove every recovery path end to
//! end — worker panic → supervised restart from the last period boundary;
//! restart budget exhaustion or a refused spawn → lossy degradation with
//! live queries; torn/corrupted checkpoint write → generation fallback on
//! restore. Zero process aborts anywhere.
//!
//! Run with: `cargo test -p ltc-core --features failpoints --test fault_injection`
//!
//! CI runs exactly that and independently asserts (via `--list`) that the
//! suite is non-empty, so the recovery tests can never be skipped silently.
#![cfg(feature = "failpoints")]

use ltc_common::{SignificanceQuery, StreamProcessor, Weights};
use ltc_core::checkpoint::Checkpointer;
use ltc_core::durability::{DurabilityPolicy, DurabilityService};
use ltc_core::failpoint::{self, FailAction, FireSpec};
use ltc_core::obs::EventKind;
use ltc_core::pipeline::ShardHealth;
use ltc_core::{FaultKind, FaultPolicy, LtcConfig, ParallelLtc, RuntimeObs, ShardedLtc, SpscRing};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// The failpoint registry is process-global, so scenarios must not
/// interleave: every test body runs under this guard and starts/ends with
/// a clean registry.
fn scenario() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = match GUARD.get_or_init(|| Mutex::new(())).lock() {
        Ok(guard) => guard,
        // A previous scenario panicked mid-test; the registry is still
        // reset below, so the lock itself is fine to reuse.
        Err(poisoned) => poisoned.into_inner(),
    };
    failpoint::clear();
    guard
}

/// Unique scratch directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("ltc-fault-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn config() -> LtcConfig {
    LtcConfig::builder()
        .buckets(32)
        .cells_per_bucket(4)
        .weights(Weights::BALANCED)
        .records_per_period(100)
        .seed(13)
        .build()
}

fn runtime(shards: usize, batch: usize) -> ParallelLtc {
    ParallelLtc::with_fault_policy(config(), shards, batch, FaultPolicy::no_backoff())
}

fn restarts_of(health: &[ShardHealth]) -> u32 {
    health
        .iter()
        .map(|h| match h {
            ShardHealth::Healthy { restarts, .. } => *restarts,
            ShardHealth::Lossy { .. } => 0,
        })
        .sum()
}

fn lossy_count(health: &[ShardHealth]) -> usize {
    health
        .iter()
        .filter(|h| matches!(h, ShardHealth::Lossy { .. }))
        .count()
}

// ---------------------------------------------------------------------------
// Acceptance scenario 1: seeded worker panic mid-stream → restart from the
// last period boundary, stream continues, top-k still answers.

#[test]
fn worker_panic_mid_stream_recovers_and_stream_continues() {
    let _guard = scenario();
    let mut p = runtime(2, 8);
    // A clean first period establishes each shard's checkpoint.
    for i in 0..200u64 {
        p.insert(i % 20);
    }
    p.end_period().expect("healthy runtime");
    // Seed the fault: the next batch any worker handles panics.
    failpoint::configure("worker::batch", FailAction::Panic, FireSpec::once());
    for i in 0..200u64 {
        p.insert(i % 20);
    }
    p.end_period().expect("supervision absorbed the panic");
    failpoint::clear();
    // Exactly one restart happened, nothing degraded...
    let health = p.health();
    assert_eq!(restarts_of(&health), 1, "health: {health:?}");
    assert_eq!(lossy_count(&health), 0);
    // ...the stream continues...
    for i in 0..200u64 {
        p.insert(i % 20);
    }
    p.end_period().expect("still healthy");
    p.finish().expect("still healthy");
    // ...and queries answer (the strict API too — no degradation).
    let top = p.try_top_k(5).expect("no lossy shards");
    assert_eq!(top.len(), 5);
    assert!(p.try_estimate(0).expect("no lossy shards").is_some());
    let _ = p.into_sharded().expect("clean shutdown after recovery");
}

#[test]
fn recovery_restores_exactly_the_last_epoch_boundary() {
    // Single shard, deterministic loss: records after the checkpoint die
    // with the worker, so the recovered table is bit-identical to a
    // reference that never saw them.
    let _guard = scenario();
    let mut p = runtime(1, 8);
    for i in 0..100u64 {
        p.insert(i % 10);
    }
    p.end_period().expect("healthy runtime"); // checkpoint at this boundary
    failpoint::configure("worker::batch", FailAction::Panic, FireSpec::once());
    for i in 0..8u64 {
        p.insert(1_000 + i); // exactly one batch; the worker dies on it
    }
    p.sync().expect("supervision absorbed the panic");
    failpoint::clear();
    assert_eq!(restarts_of(&p.health()), 1);
    p.finish().expect("healthy after restart");
    let recovered = p.into_sharded().expect("no lossy shards");

    let mut reference = ShardedLtc::new(config(), 1);
    for i in 0..100u64 {
        reference.insert(i % 10);
    }
    reference.end_period();
    reference.finalize();
    assert_eq!(
        format!("{:?}", recovered.shard(0)),
        format!("{:?}", reference.shard(0)),
        "recovered shard must be exactly the last epoch boundary"
    );
}

#[test]
fn rollback_after_a_mid_period_checkpoint_lands_on_the_period_boundary() {
    // Both consumers of the shard's dirty set interleave: the durability
    // service opens its delta epoch mid-period, between two captures of
    // the worker's rollback image. Neither may hide buckets from the other.
    let _guard = scenario();
    let scratch = ScratchDir::new("two-cursors");
    let mut p = runtime(1, 8);
    let policy = DurabilityPolicy {
        interval: Duration::from_secs(3_600),
        faults: FaultPolicy::no_backoff(),
        ..DurabilityPolicy::default()
    };
    let service =
        DurabilityService::attach(&p, Checkpointer::new(scratch.path()).unwrap(), policy).unwrap();
    let period_1: Vec<u64> = (0..100u64).map(|i| i % 30).collect();
    // Period 2's halves dirty different buckets: fresh ids, then one hot id.
    let first_half: Vec<u64> = (0..50u64).map(|i| 1_000 + i).collect();
    let second_half = vec![7u64; 50];
    p.insert_batch(&period_1);
    p.end_period().expect("healthy runtime");
    p.insert_batch(&first_half);
    // `checkpoint_now` does not drain: apply the first half before the
    // service's first (full) save opens its epoch.
    p.sync().expect("healthy runtime");
    service.checkpoint_now().expect("full base");
    p.insert_batch(&second_half);
    p.end_period().expect("healthy runtime");
    // Period 3: the worker dies on its first batch and is rolled back.
    failpoint::configure("worker::batch", FailAction::Panic, FireSpec::once());
    p.insert_batch(&(0..8u64).map(|i| 5_000 + i).collect::<Vec<_>>());
    p.sync().expect("supervision absorbed the panic");
    failpoint::clear();
    assert_eq!(restarts_of(&p.health()), 1);

    let mut reference = ShardedLtc::new(config(), 1);
    reference.insert_batch(&period_1);
    reference.end_period();
    reference.insert_batch(&first_half);
    reference.insert_batch(&second_half);
    reference.end_period();
    assert!(
        p.to_checkpoint() == reference.to_checkpoint(),
        "the rollback must land on the end of period 2"
    );
    // The rolled-back buckets reach the service's next delta.
    let generation = service.checkpoint_now().expect("delta after the rollback");
    let live = p.to_checkpoint();
    drop(service);
    let mut q = runtime(1, 8);
    assert_eq!(
        q.restore_from(&Checkpointer::new(scratch.path()).unwrap())
            .unwrap(),
        generation
    );
    assert!(
        q.to_checkpoint() == live,
        "restore must equal the live shard"
    );
    q.finish().expect("healthy");
    // Bit for bit, stats and CLOCK included.
    let recovered = p.into_sharded().expect("no lossy shards");
    assert_eq!(
        format!("{:?}", recovered.shard(0)),
        format!("{:?}", reference.shard(0))
    );
}

#[test]
fn worker_panic_during_end_period_completes_the_barrier() {
    // The worker dies *processing* the EndPeriod message itself; the
    // supervisor must restore, respawn, and re-send the barrier message so
    // end_period still returns (loom proves the wait can't deadlock; this
    // proves the re-send path).
    let _guard = scenario();
    let mut p = runtime(2, 16);
    for i in 0..300u64 {
        p.insert(i % 30);
    }
    p.end_period().expect("healthy runtime");
    failpoint::configure("worker::end_period", FailAction::Panic, FireSpec::once());
    for i in 0..300u64 {
        p.insert(i % 30);
    }
    p.end_period()
        .expect("barrier completed despite the mid-epoch death");
    failpoint::clear();
    assert_eq!(restarts_of(&p.health()), 1);
    p.finish().expect("healthy after restart");
    assert_eq!(p.try_top_k(3).expect("no lossy shards").len(), 3);
}

// ---------------------------------------------------------------------------
// Acceptance scenario 2: restart budget exhaustion → graceful degradation.

#[test]
fn exhausted_restart_budget_degrades_to_lossy_but_queries_survive() {
    let _guard = scenario();
    let policy = FaultPolicy {
        max_restarts: 2,
        ..FaultPolicy::no_backoff()
    };
    let mut p = ParallelLtc::with_fault_policy(config(), 2, 4, policy);
    // Healthy epoch first, so lossy shards have last-good state to serve.
    for i in 0..200u64 {
        p.insert(i % 20);
    }
    p.end_period().expect("healthy runtime");
    // Every batch panics from now on: each restart dies again until the
    // budget is gone on every shard.
    failpoint::configure("worker::batch", FailAction::Panic, FireSpec::always());
    let mut degraded = false;
    for round in 0..50u64 {
        for i in 0..200u64 {
            p.insert(i % 20);
        }
        if p.end_period().is_err() {
            degraded = true;
            break;
        }
        let _ = round;
    }
    failpoint::clear();
    assert!(degraded, "budget exhaustion must surface as ShardsLost");
    let health = p.health();
    assert!(lossy_count(&health) >= 1, "health: {health:?}");
    // Typed error carries the faults.
    let err = p.end_period().expect_err("still degraded");
    let ltc_core::RuntimeError::ShardsLost { faults } = err;
    assert!(!faults.is_empty());
    assert!(faults[0].message.contains("failpoint: worker::batch"));
    // Best-effort queries still answer from remaining + last-good state.
    assert!(!p.top_k(5).is_empty(), "degraded top-k must still answer");
    assert!(p.estimate(0).is_some(), "heavy id from the healthy epoch");
    // Strict queries refuse, loudly.
    assert!(p.try_top_k(5).is_err());
    // Reassembly still hands the tables back alongside the faults.
    let (sharded, faults) = p.into_sharded_lossy();
    assert!(!faults.is_empty());
    assert!(!sharded.top_k(5).is_empty());
}

// ---------------------------------------------------------------------------
// Acceptance scenario 3: torn / corrupted checkpoint writes are detected on
// restore and roll back to the previous generation.

#[test]
fn torn_checkpoint_write_falls_back_to_previous_generation() {
    let _guard = scenario();
    let scratch = ScratchDir::new("torn");
    let store = Checkpointer::new(scratch.path()).unwrap();
    let mut p = runtime(2, 16);
    for i in 0..400u64 {
        p.insert(i % 25);
    }
    p.end_period().expect("healthy runtime");
    let gen1 = p.checkpoint_to(&store).expect("good checkpoint");
    let expected = p.try_top_k(10).expect("healthy");
    // More stream, then a torn write: the file is published (rename went
    // through) but holds only a prefix of the frame.
    for i in 0..400u64 {
        p.insert(i % 25);
    }
    p.end_period().expect("healthy runtime");
    failpoint::configure(
        "checkpoint::write",
        FailAction::Truncate { keep: 40 },
        FireSpec::once(),
    );
    let gen2 = p.checkpoint_to(&store).expect("write itself succeeds");
    failpoint::clear();
    assert_eq!(gen2, gen1 + 1);
    drop(p);
    // A fresh runtime restores: the torn generation is rejected by frame
    // validation and the previous one is used instead.
    let mut q = runtime(2, 16);
    let restored_gen = q.restore_from(&store).expect("fallback generation");
    assert_eq!(restored_gen, gen1, "rolled back past the torn image");
    assert_eq!(q.try_top_k(10).expect("healthy"), expected);
}

#[test]
fn corrupted_checkpoint_byte_falls_back_to_previous_generation() {
    let _guard = scenario();
    let scratch = ScratchDir::new("corrupt");
    let store = Checkpointer::new(scratch.path()).unwrap();
    let mut p = runtime(1, 16);
    for i in 0..200u64 {
        p.insert(i % 12);
    }
    p.end_period().expect("healthy runtime");
    let gen1 = p.checkpoint_to(&store).expect("good checkpoint");
    for i in 0..200u64 {
        p.insert(i % 12);
    }
    p.end_period().expect("healthy runtime");
    // Flip one body byte mid-frame: CRC must catch it on restore.
    failpoint::configure(
        "checkpoint::write",
        FailAction::CorruptByte { offset: 100 },
        FireSpec::once(),
    );
    p.checkpoint_to(&store).expect("write itself succeeds");
    failpoint::clear();
    drop(p);
    let mut q = runtime(1, 16);
    assert_eq!(q.restore_from(&store).expect("fallback"), gen1);
}

#[test]
fn restore_after_degradation_revives_lossy_shards() {
    // Operator story: runtime degrades, operator restores from the last
    // good checkpoint, every shard (lossy ones included) comes back live
    // with a full retry budget.
    let _guard = scenario();
    let scratch = ScratchDir::new("revive");
    let store = Checkpointer::new(scratch.path()).unwrap();
    let policy = FaultPolicy {
        max_restarts: 1,
        ..FaultPolicy::no_backoff()
    };
    let mut p = ParallelLtc::with_fault_policy(config(), 2, 4, policy);
    for i in 0..200u64 {
        p.insert(i % 20);
    }
    p.end_period().expect("healthy runtime");
    p.checkpoint_to(&store).expect("good checkpoint");
    failpoint::configure("worker::batch", FailAction::Panic, FireSpec::always());
    for _ in 0..20 {
        for i in 0..200u64 {
            p.insert(i % 20);
        }
        if p.end_period().is_err() {
            break;
        }
    }
    failpoint::clear();
    assert!(lossy_count(&p.health()) >= 1, "degraded as arranged");
    p.restore_from(&store).expect("restore revives the runtime");
    assert_eq!(lossy_count(&p.health()), 0, "lossy shards revived");
    // The revived runtime ingests and answers again, end to end.
    for i in 0..200u64 {
        p.insert(i % 20);
    }
    p.end_period().expect("healthy again");
    p.finish().expect("healthy again");
    assert!(p.try_estimate(0).expect("healthy").is_some());
}

#[test]
fn restore_whose_revive_spawn_fails_degrades_the_shard_again() {
    // Same operator story, but the OS refuses the revived worker's thread:
    // the shard must go lossy again the way supervision degrades one —
    // typed fault, journaled degradation, counted degradation.
    let _guard = scenario();
    let scratch = ScratchDir::new("revive-spawn");
    let store = Checkpointer::new(scratch.path()).unwrap();
    let policy = FaultPolicy {
        max_restarts: 1,
        ..FaultPolicy::no_backoff()
    };
    let mut p = ParallelLtc::with_fault_policy(config(), 2, 4, policy);
    for i in 0..200u64 {
        p.insert(i % 20);
    }
    p.end_period().expect("healthy runtime");
    p.checkpoint_to(&store).expect("good checkpoint");
    failpoint::configure("worker::batch", FailAction::Panic, FireSpec::always());
    for _ in 0..20 {
        for i in 0..200u64 {
            p.insert(i % 20);
        }
        if p.end_period().is_err() {
            break;
        }
    }
    failpoint::clear();
    let shard = p
        .health()
        .iter()
        .position(|h| matches!(h, ShardHealth::Lossy { .. }))
        .expect("degraded as arranged");
    let obs = Arc::clone(p.obs().expect("obs on by default"));
    let degradations = |obs: &RuntimeObs| -> u64 {
        let series = format!("ltc_worker_degradations_total{{shard=\"{shard}\"}} ");
        let text = obs.render_prometheus();
        text.lines()
            .find_map(|l| l.strip_prefix(series.as_str()))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    let before = degradations(&obs);
    let _ = obs.journal().drain();

    // The first (and only) revive spawn is refused.
    failpoint::configure("worker::spawn", FailAction::Error, FireSpec::once());
    p.restore_from(&store).expect("the restore itself succeeds");
    failpoint::clear();

    match &p.health()[shard] {
        ShardHealth::Lossy { fault, .. } => assert_eq!(fault.kind, FaultKind::SpawnFailed),
        other => panic!("shard {shard} should be lossy after a refused spawn: {other:?}"),
    }
    let events = obs.journal().drain();
    assert!(
        events
            .iter()
            .any(|e| e.kind == EventKind::Degradation && e.shard == Some(shard as u64)),
        "degradation journaled after the restore: {events:?}"
    );
    assert_eq!(degradations(&obs), before + 1, "degradation counted");
}

// ---------------------------------------------------------------------------
// Observability under faults: every recovery step leaves a metric and a
// journal event behind, and health() points at the journal entry.

#[test]
fn seeded_panic_is_journaled_and_correlated_with_health() {
    let _guard = scenario();
    let mut p = runtime(2, 8);
    for i in 0..200u64 {
        p.insert(i % 20);
    }
    p.end_period().expect("healthy runtime");
    failpoint::configure("worker::batch", FailAction::Panic, FireSpec::once());
    for i in 0..200u64 {
        p.insert(i % 20);
    }
    p.end_period().expect("supervision absorbed the panic");
    failpoint::clear();

    let obs = p.obs().expect("obs on by default");

    // The fault counter carries the typed kind, restarts are counted, and
    // the exposition stays valid mid-recovery.
    let text = obs.render_prometheus();
    ltc_core::obs::validate_exposition(&text).expect("valid during recovery");
    assert!(
        text.contains("ltc_worker_faults_total{kind=\"panic\"} 1"),
        "fault kind counted: {text}"
    );
    let restarts: u64 = text
        .lines()
        .filter(|l| l.starts_with("ltc_worker_restarts_total{"))
        .filter_map(|l| l.rsplit_once(' ').and_then(|(_, v)| v.parse::<u64>().ok()))
        .sum();
    assert_eq!(restarts, 1, "one restart across all shards: {text}");

    // The journal holds the fault + rollback pair, and health() names the
    // fault event's sequence number on exactly the shard that died.
    let events = obs.journal().drain();
    let fault = events
        .iter()
        .find(|e| e.kind == EventKind::WorkerFault)
        .expect("fault journaled");
    assert!(
        events.iter().any(|e| e.kind == EventKind::Rollback),
        "rollback journaled: {events:?}"
    );
    let health = p.health();
    let faulted: Vec<_> = health
        .iter()
        .enumerate()
        .filter(|(_, h)| h.last_fault_seq().is_some())
        .collect();
    assert_eq!(faulted.len(), 1, "exactly one shard faulted: {health:?}");
    let (shard_index, shard_health) = faulted[0];
    assert_eq!(shard_health.last_fault_seq(), Some(fault.seq));
    assert_eq!(fault.shard, Some(shard_index as u64));
    assert_eq!(shard_health.restarts(), 1);
}

#[test]
fn degradation_is_journaled_with_records_lost() {
    let _guard = scenario();
    let policy = FaultPolicy {
        max_restarts: 1,
        ..FaultPolicy::no_backoff()
    };
    let mut p = ParallelLtc::with_fault_policy(config(), 1, 4, policy);
    for i in 0..100u64 {
        p.insert(i % 10);
    }
    p.end_period().expect("healthy runtime");
    failpoint::configure("worker::batch", FailAction::Panic, FireSpec::always());
    for _ in 0..20 {
        for i in 0..100u64 {
            p.insert(i % 10);
        }
        if p.end_period().is_err() {
            break;
        }
    }
    failpoint::clear();
    assert_eq!(lossy_count(&p.health()), 1, "degraded as arranged");

    let obs = p.obs().expect("obs on by default");
    let events = obs.journal().drain();
    assert!(
        events.iter().any(|e| e.kind == EventKind::Degradation),
        "degradation journaled: {events:?}"
    );
    let text = obs.render_prometheus();
    assert!(
        text.contains("ltc_worker_degradations_total{shard=\"0\"} 1"),
        "degradation counted: {text}"
    );
    // Post-degradation drops are visible as lost records.
    let lost: u64 = text
        .lines()
        .filter(|l| l.starts_with("ltc_shard_records_lost_total{"))
        .filter_map(|l| l.rsplit_once(' ').and_then(|(_, v)| v.parse::<u64>().ok()))
        .sum();
    assert!(lost > 0, "lossy mode must count dropped records: {text}");
}

#[test]
fn checkpoint_fallback_is_counted_and_journaled() {
    let _guard = scenario();
    let scratch = ScratchDir::new("obs-fallback");
    let store = Checkpointer::new(scratch.path()).unwrap();
    let mut p = runtime(1, 16);
    for i in 0..200u64 {
        p.insert(i % 12);
    }
    p.end_period().expect("healthy runtime");
    let gen1 = p.checkpoint_to(&store).expect("good checkpoint");
    for i in 0..200u64 {
        p.insert(i % 12);
    }
    p.end_period().expect("healthy runtime");
    failpoint::configure(
        "checkpoint::write",
        FailAction::Truncate { keep: 40 },
        FireSpec::once(),
    );
    p.checkpoint_to(&store).expect("write itself succeeds");
    failpoint::clear();
    drop(p);

    let mut q = runtime(1, 16);
    assert_eq!(q.restore_from(&store).expect("fallback"), gen1);
    let obs = q.obs().expect("obs on by default");
    let text = obs.render_prometheus();
    assert!(
        text.contains("ltc_checkpoint_fallbacks_total 1"),
        "skipped generation counted: {text}"
    );
    let events = obs.journal().drain();
    let restore = events
        .iter()
        .find(|e| e.kind == EventKind::CheckpointRestore)
        .expect("restore journaled");
    assert_eq!(restore.detail, gen1, "journal names the generation used");
}

#[test]
fn queue_stall_failpoint_bumps_the_backpressure_counter() {
    let _guard = scenario();
    failpoint::configure("spsc::push", FailAction::Stall, FireSpec::nth(3));
    let mut p = runtime(1, 8);
    for i in 0..400u64 {
        p.insert(i % 20);
    }
    p.sync().expect("stall is not a fault");
    let text = p.obs().expect("obs on").render_prometheus();
    failpoint::clear();
    let stalls: u64 = text
        .lines()
        .filter(|l| l.starts_with("ltc_shard_queue_stalls_total{"))
        .filter_map(|l| l.rsplit_once(' ').and_then(|(_, v)| v.parse::<u64>().ok()))
        .sum();
    assert!(stalls >= 1, "forced park must count as a stall: {text}");
    p.finish().expect("healthy");
}

// ---------------------------------------------------------------------------
// Queue-stall injection: the hand-off slow path taken deterministically.

#[test]
fn queue_stall_failpoint_forces_the_park_path_without_loss() {
    let _guard = scenario();
    let ring = SpscRing::with_capacity(4);
    failpoint::configure("spsc::push", FailAction::Stall, FireSpec::once());
    // The push takes the full park bookkeeping (Dekker flag + recheck
    // under the mutex) even though the ring has space — and still
    // delivers.
    assert!(ring.push(7u32));
    assert!(ring.push(8u32));
    failpoint::clear();
    assert_eq!(ring.pop(), Some(7));
    assert_eq!(ring.pop(), Some(8));
}

#[test]
fn stalled_pipeline_stream_is_unaffected() {
    // Same stall injected under a real stream: purely a scheduling
    // perturbation, the results are bit-unaffected.
    let _guard = scenario();
    failpoint::configure("spsc::push", FailAction::Stall, FireSpec::nth(3));
    let mut p = runtime(2, 8);
    for i in 0..400u64 {
        p.insert(i % 20);
    }
    p.end_period().expect("stall is not a fault");
    p.finish().expect("stall is not a fault");
    failpoint::clear();
    assert_eq!(restarts_of(&p.health()), 0, "no restart from a stall");
    let mut reference = ShardedLtc::new(config(), 2);
    for i in 0..400u64 {
        reference.insert(i % 20);
    }
    reference.end_period();
    reference.finalize();
    let got = p.into_sharded().expect("healthy");
    assert_eq!(got.top_k(10), reference.top_k(10));
}
