//! Crash-recovery torture suite for the background durability service and
//! the delta-checkpoint chain.
//!
//! Every scenario is deterministic: the stream is quiesced
//! (`end_period`/`sync`) before each checkpoint so a generation covers an
//! exact record prefix, failpoints fire on fixed schedules
//! (`FireSpec::once` / `FireSpec::nth`), and "crash + restart" is a fresh
//! runtime restoring from the store directory. Sites driven here:
//!
//! * `checkpoint::write`     — torn/corrupt *full* frame (base of a chain)
//! * `checkpoint::delta_write` — torn/corrupt *delta* frame mid-chain
//! * `checkpoint::compact`   — torn frame during chain compaction
//! * `checkpoint::fsync`     — fsync fails: nothing may publish
//! * `checkpoint::rename`    — crash between temp write and rename
//! * `worker::batch`         — shard worker faults while the service runs
//!
//! Recovered state is compared **bit-exactly** (`to_checkpoint` bytes)
//! against a reference replay of the acknowledged prefix — the records
//! covered by the generation that restore lands on.
//!
//! Run with: `cargo test -p ltc-core --features failpoints --test recovery_torture`
//!
//! CI runs exactly that and independently asserts (via `--list`) that the
//! suite is non-empty, so these recovery proofs can never be skipped
//! silently.
#![cfg(feature = "failpoints")]

use ltc_common::Weights;
use ltc_core::checkpoint::Checkpointer;
use ltc_core::durability::{DurabilityPolicy, DurabilityService};
use ltc_core::failpoint::{self, FailAction, FireSpec};
use ltc_core::{CheckpointError, FaultPolicy, LtcConfig, ParallelLtc};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// The failpoint registry is process-global, so scenarios must not
/// interleave: every test body runs under this guard and starts/ends with
/// a clean registry.
fn scenario() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = match GUARD.get_or_init(|| Mutex::new(())).lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    failpoint::clear();
    guard
}

/// Unique scratch directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("ltc-torture-{}-{tag}", std::process::id()));
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

/// A service policy that only checkpoints when told to and never sleeps
/// between retries, so every scenario step is an explicit, ordered act.
fn manual_policy() -> DurabilityPolicy {
    DurabilityPolicy {
        interval: Duration::from_secs(3_600),
        max_chain_len: 8,
        faults: FaultPolicy::no_backoff(),
    }
}

/// [`manual_policy`] without retries: a failed save surfaces from the
/// `checkpoint_now` that ran it.
fn strict_policy() -> DurabilityPolicy {
    DurabilityPolicy {
        faults: FaultPolicy {
            max_restarts: 0,
            ..FaultPolicy::no_backoff()
        },
        ..manual_policy()
    }
}

/// A service on `p` publishing into the store at `path`.
fn service_at(p: &ParallelLtc, path: &Path, policy: DurabilityPolicy) -> DurabilityService {
    DurabilityService::attach(p, store_at(path), policy).expect("one service per runtime")
}

/// The deterministic record batch for round `r`: a skewed mix so deltas
/// stay small (hot ids) on top of a varied base (round-scoped ids).
fn ingest_round(p: &mut ParallelLtc, r: u64) {
    for i in 0..100u64 {
        let id = match i % 4 {
            0 => 7,                    // hot everywhere
            1 => 19 + (r % 3),         // warm, shifts slowly
            _ => r * 1_000 + (i % 25), // round-local noise
        };
        p.insert(id);
    }
    p.end_period().expect("healthy runtime");
    p.sync().expect("healthy runtime");
}

/// Replay rounds `0..=upto` on a fresh runtime and return its checkpoint
/// bytes — the bit-exact image of the acknowledged prefix.
fn reference_frame(upto: u64) -> Vec<u8> {
    let mut reference = runtime(2, 8);
    for r in 0..=upto {
        ingest_round(&mut reference, r);
    }
    let frame = reference.to_checkpoint();
    reference.finish().expect("healthy reference");
    frame
}

// ---------------------------------------------------------------------------
// Satellite (a): a failed fsync/rename surfaces as CheckpointError and
// publishes nothing.

#[test]
fn fsync_failure_surfaces_as_error_and_publishes_nothing() {
    let _guard = scenario();
    let scratch = ScratchDir::new("fsync");
    let mut p = runtime(2, 8);
    ingest_round(&mut p, 0);
    let service = service_at(&p, scratch.path(), strict_policy());
    failpoint::configure("checkpoint::fsync", FailAction::Error, FireSpec::once());
    let err = service
        .checkpoint_now()
        .expect_err("failed fsync must not look like success");
    assert!(matches!(err, CheckpointError::Io(_)), "got: {err:?}");
    failpoint::clear();
    // Nothing published, no temp litter: the store is as if the save never
    // happened.
    assert_eq!(
        service.store().latest().unwrap(),
        None,
        "no generation published"
    );
    let leftovers: Vec<_> = std::fs::read_dir(scratch.path())
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name())
        .collect();
    assert!(leftovers.is_empty(), "leftovers: {leftovers:?}");
    // The very next save (fsync healthy again) publishes generation 1.
    assert_eq!(service.checkpoint_now().expect("healthy save"), 1);
    drop(service);
    p.finish().expect("healthy");
}

#[test]
fn rename_failure_aborts_between_write_and_publish() {
    let _guard = scenario();
    let scratch = ScratchDir::new("rename");
    let mut p = runtime(2, 8);
    ingest_round(&mut p, 0);
    let service = service_at(&p, scratch.path(), strict_policy());
    service.checkpoint_now().expect("base");
    ingest_round(&mut p, 1);
    // The delta's temp file is fully written and fsynced, but the crash
    // lands before the rename: the store must still only hold the base.
    failpoint::configure("checkpoint::rename", FailAction::Error, FireSpec::once());
    let err = service
        .checkpoint_now()
        .expect_err("failed rename must not look like success");
    assert!(matches!(err, CheckpointError::Io(_)), "got: {err:?}");
    failpoint::clear();
    assert_eq!(
        service.status().chain_length,
        0,
        "failed delta did not extend the chain"
    );
    assert_eq!(service.store().generations().unwrap(), vec![1]);
    // Retrying the delta succeeds and carries the same buckets.
    let generation = service.checkpoint_now().expect("retry");
    assert_eq!(generation, 2);
    let expected = p.to_checkpoint();
    drop(service);
    drop(p);
    let mut q = runtime(2, 8);
    assert_eq!(q.restore_from(&store_at(scratch.path())).unwrap(), 2);
    assert_eq!(q.to_checkpoint(), expected);
    q.finish().expect("healthy");
}

// ---------------------------------------------------------------------------
// Torn frames at every flavour of save: restore falls back exactly one
// step and lands bit-exactly on the acknowledged prefix.

#[test]
fn torn_delta_write_falls_back_to_the_chain_base() {
    let _guard = scenario();
    let scratch = ScratchDir::new("torn-delta");
    let mut p = runtime(2, 8);
    ingest_round(&mut p, 0);
    let service = service_at(&p, scratch.path(), manual_policy());
    service.checkpoint_now().expect("base");
    let acknowledged = p.to_checkpoint();
    ingest_round(&mut p, 1);
    // Mid-delta-write tear: the frame publishes (rename goes through) but
    // holds only a prefix.
    failpoint::configure(
        "checkpoint::delta_write",
        FailAction::Truncate { keep: 60 },
        FireSpec::once(),
    );
    service.checkpoint_now().expect("write itself succeeds");
    failpoint::clear();
    drop(service);
    drop(p);
    let mut q = runtime(2, 8);
    assert_eq!(
        q.restore_from(&store_at(scratch.path())).unwrap(),
        1,
        "torn delta rejected, chain base restored"
    );
    assert_eq!(q.to_checkpoint(), acknowledged);
    assert_eq!(q.to_checkpoint(), reference_frame(0), "replay agrees");
    q.finish().expect("healthy");
}

#[test]
fn corrupt_nth_delta_spares_the_earlier_delta() {
    let _guard = scenario();
    let scratch = ScratchDir::new("nth-delta");
    let mut p = runtime(2, 8);
    ingest_round(&mut p, 0);
    let service = service_at(&p, scratch.path(), manual_policy());
    service.checkpoint_now().expect("base");
    // nth mode: the first delta write is clean, the second is corrupted.
    failpoint::configure(
        "checkpoint::delta_write",
        FailAction::CorruptByte { offset: 100 },
        FireSpec::nth(1),
    );
    ingest_round(&mut p, 1);
    service.checkpoint_now().expect("clean");
    let acknowledged = p.to_checkpoint();
    ingest_round(&mut p, 2);
    service.checkpoint_now().expect("write itself succeeds");
    failpoint::clear();
    drop(service);
    drop(p);
    let mut q = runtime(2, 8);
    assert_eq!(
        q.restore_from(&store_at(scratch.path())).unwrap(),
        2,
        "corrupt newest delta rejected, previous delta restored"
    );
    assert_eq!(q.to_checkpoint(), acknowledged);
    assert_eq!(q.to_checkpoint(), reference_frame(1), "replay agrees");
    q.finish().expect("healthy");
}

#[test]
fn torn_compaction_falls_back_to_the_chain_it_was_replacing() {
    let _guard = scenario();
    let scratch = ScratchDir::new("torn-compact");
    let mut p = runtime(2, 8);
    ingest_round(&mut p, 0);
    let policy = DurabilityPolicy {
        max_chain_len: 1, // compact after every delta
        ..manual_policy()
    };
    let service =
        DurabilityService::attach(&p, Checkpointer::new(scratch.path()).unwrap(), policy).unwrap();
    assert_eq!(service.checkpoint_now().unwrap(), 1, "full base");
    ingest_round(&mut p, 1);
    assert_eq!(service.checkpoint_now().unwrap(), 2, "delta");
    let acknowledged = p.to_checkpoint();
    ingest_round(&mut p, 2);
    // The cadence makes the third save a compaction — torn mid-write.
    failpoint::configure(
        "checkpoint::compact",
        FailAction::Truncate { keep: 80 },
        FireSpec::once(),
    );
    assert_eq!(
        service.checkpoint_now().unwrap(),
        3,
        "write itself succeeds"
    );
    failpoint::clear();
    let status = service.status();
    assert_eq!(status.compactions, 1, "the third save was a compaction");
    drop(service);
    drop(p);
    let mut q = runtime(2, 8);
    assert_eq!(
        q.restore_from(&store_at(scratch.path())).unwrap(),
        2,
        "torn compaction rejected, prior chain (base 1 + delta 2) restored"
    );
    assert_eq!(q.to_checkpoint(), acknowledged);
    assert_eq!(q.to_checkpoint(), reference_frame(1), "replay agrees");
    q.finish().expect("healthy");
}

fn store_at(path: &Path) -> Checkpointer {
    Checkpointer::new(path).unwrap()
}

#[test]
fn torn_full_base_abandons_its_whole_chain() {
    let _guard = scenario();
    let scratch = ScratchDir::new("torn-base");
    let mut p = runtime(2, 8);
    ingest_round(&mut p, 0);
    // One service per chain, in turn: chain 2's base is then the second
    // service's first save, a plain full frame on `checkpoint::write`.
    let first = service_at(&p, scratch.path(), manual_policy());
    assert_eq!(first.checkpoint_now().expect("chain 1 base"), 1);
    drop(first);
    ingest_round(&mut p, 1);
    let acknowledged = p.to_checkpoint();
    // Chain 2's base is torn on disk; its delta (gen 3) is well-formed but
    // must be abandoned because its base cannot be trusted.
    let second = service_at(&p, scratch.path(), manual_policy());
    failpoint::configure(
        "checkpoint::write",
        FailAction::Truncate { keep: 120 },
        FireSpec::once(),
    );
    assert_eq!(second.checkpoint_now().expect("write succeeds"), 2);
    failpoint::clear();
    ingest_round(&mut p, 2);
    assert_eq!(second.checkpoint_now().expect("delta"), 3);
    assert_eq!(second.status().delta_saves, 1, "gen 3 rides the torn base");
    drop(second);
    drop(p);
    let mut q = runtime(2, 8);
    assert_eq!(
        q.restore_from(&store_at(scratch.path())).unwrap(),
        1,
        "whole torn chain skipped, previous chain's base restored"
    );
    // Generation 1 covers round 0 only; round 1 records were acknowledged
    // into the torn chain and are lost — exactly one chain's worth.
    assert_eq!(q.to_checkpoint(), reference_frame(0));
    assert_ne!(
        q.to_checkpoint(),
        acknowledged,
        "round 1 rode the torn chain"
    );
    q.finish().expect("healthy");
}

// ---------------------------------------------------------------------------
// The torture loop: kill/restore repeatedly under a failpoint schedule.

/// How one torture cycle is sabotaged. Each cycle checkpoints three
/// rounds through a fresh service: a full base, then two deltas.
enum Sabotage {
    /// All three saves are clean.
    None,
    /// Arm `site` with `action` (fires once) on the cycle's *last* save —
    /// a delta frame.
    LastSave(&'static str, FailAction),
    /// Corrupt the cycle's *first* save — the chain base. Every frame of
    /// the cycle rides a rotten base, so restore must abandon the whole
    /// chain and fall back to the previous cycle.
    CorruptBase,
}

#[test]
fn repeated_kill_restore_cycles_track_the_acknowledged_prefix() {
    let _guard = scenario();
    let scratch = ScratchDir::new("cycles");
    let schedule = [
        Sabotage::None,
        // Torn delta: published garbage, restore falls back one frame.
        Sabotage::LastSave("checkpoint::delta_write", FailAction::Truncate { keep: 60 }),
        // Failed fsync: loud error, the service retries to success.
        Sabotage::LastSave("checkpoint::fsync", FailAction::Error),
        // Corrupt chain base: restore abandons the cycle's whole chain.
        Sabotage::CorruptBase,
        Sabotage::None,
    ];
    let mut round: u64 = 0;
    // The newest round whose checkpoint is trusted to survive restore.
    let mut durable_round: Option<u64> = None;
    for (cycle, sabotage) in schedule.iter().enumerate() {
        // Crash-restart: a fresh runtime restores whatever survived.
        let mut p = runtime(2, 8);
        let restored = p.restore_from(&store_at(scratch.path()));
        match durable_round {
            None => assert!(restored.is_err(), "cycle {cycle}: nothing durable yet"),
            Some(r) => {
                restored.expect("a durable generation must restore");
                assert_eq!(
                    p.to_checkpoint(),
                    reference_frame(r),
                    "cycle {cycle}: restored image is the acknowledged prefix"
                );
                // Replay the lost rounds so the stream itself never loses
                // data across the crash (the operator replays from the
                // upstream log; here that log is the round counter).
                for lost in (r + 1)..round {
                    ingest_round(&mut p, lost);
                }
            }
        }
        let service = DurabilityService::attach(
            &p,
            Checkpointer::new(scratch.path()).unwrap(),
            DurabilityPolicy {
                max_chain_len: 2,
                ..manual_policy()
            },
        )
        .unwrap();
        // Save 1: the cycle's full base frame.
        let mut chain_trusted = true;
        ingest_round(&mut p, round);
        if matches!(sabotage, Sabotage::CorruptBase) {
            failpoint::configure(
                "checkpoint::write",
                FailAction::CorruptByte { offset: 64 },
                FireSpec::once(),
            );
            service.checkpoint_now().expect("publishes a corrupt base");
            failpoint::clear();
            chain_trusted = false;
        } else {
            service.checkpoint_now().expect("clean base");
            durable_round = Some(round);
        }
        round += 1;
        // Save 2: always a clean delta — but only durable on a sound base.
        ingest_round(&mut p, round);
        service.checkpoint_now().expect("clean delta");
        if chain_trusted {
            durable_round = Some(round);
        }
        round += 1;
        // Save 3: a delta the schedule may sabotage.
        ingest_round(&mut p, round);
        if let Sabotage::LastSave(site, action) = sabotage {
            failpoint::configure(site, action.clone(), FireSpec::once());
            // Truncate publishes garbage (Ok); Error fails the attempt but
            // the retry succeeds — `once` only fires once.
            service
                .checkpoint_now()
                .expect("published garbage or retried to success");
            failpoint::clear();
            // Only the loud-failure flavour leaves a durable frame behind.
            if matches!(action, FailAction::Error) && chain_trusted {
                durable_round = Some(round);
            }
        } else {
            service.checkpoint_now().expect("clean delta");
            if chain_trusted {
                durable_round = Some(round);
            }
        }
        round += 1;
        drop(service); // "kill": the service dies with the process
        drop(p);
    }
    // Final recovery after the last cycle.
    let mut q = runtime(2, 8);
    q.restore_from(&store_at(scratch.path())).expect("durable");
    assert_eq!(
        q.to_checkpoint(),
        reference_frame(durable_round.expect("at least one durable round")),
        "final restored image is the acknowledged prefix"
    );
    q.finish().expect("healthy");
}

#[test]
fn torture_cycle_is_deterministic_across_runs() {
    let _guard = scenario();
    // The same sabotaged scenario, executed twice from scratch, leaves a
    // byte-identical restored image: failpoints fire on schedule, not on
    // timing.
    let run = || -> Vec<u8> {
        let scratch = ScratchDir::new("determinism");
        let mut p = runtime(2, 8);
        ingest_round(&mut p, 0);
        let service = service_at(&p, scratch.path(), manual_policy());
        service.checkpoint_now().expect("base");
        ingest_round(&mut p, 1);
        failpoint::configure(
            "checkpoint::delta_write",
            FailAction::Truncate { keep: 60 },
            FireSpec::once(),
        );
        service.checkpoint_now().expect("torn");
        failpoint::clear();
        drop(service);
        drop(p);
        let mut q = runtime(2, 8);
        q.restore_from(&store_at(scratch.path())).expect("fallback");
        let frame = q.to_checkpoint();
        q.finish().expect("healthy");
        frame
    };
    assert_eq!(run(), run(), "bit-identical recovery across runs");
}

// ---------------------------------------------------------------------------
// The service coexists with worker recovery: a shard worker faulting does
// not corrupt the chain, and checkpoints made after its recovery cover the
// rolled-back shard state.

#[test]
fn worker_death_while_the_service_runs_keeps_checkpoints_sound() {
    let _guard = scenario();
    let scratch = ScratchDir::new("worker-death");
    let mut p = runtime(1, 8);
    ingest_round(&mut p, 0);
    let service = DurabilityService::attach(
        &p,
        Checkpointer::new(scratch.path()).unwrap(),
        manual_policy(),
    )
    .unwrap();
    service.checkpoint_now().expect("base");
    // The worker faults mid-batch; it rolls the shard back to its last
    // period boundary and carries on.
    failpoint::configure("worker::batch", FailAction::Panic, FireSpec::once());
    for i in 0..8u64 {
        p.insert(10_000 + i);
    }
    p.sync().expect("the worker absorbed the panic");
    failpoint::clear();
    // A delta checkpoint after the recovery covers the *restored* state.
    let generation = service.checkpoint_now().expect("post-recovery delta");
    let acknowledged = p.to_checkpoint();
    drop(service);
    drop(p);
    let mut q = runtime(1, 8);
    assert_eq!(
        q.restore_from(&store_at(scratch.path())).unwrap(),
        generation
    );
    assert_eq!(
        q.to_checkpoint(),
        acknowledged,
        "checkpoint covers the post-rollback shard state"
    );
    // The rolled-back shard equals the round-0 boundary: the worker
    // dropped the panicked batch.
    assert_eq!(q.to_checkpoint(), {
        let mut reference = runtime(1, 8);
        ingest_round(&mut reference, 0);
        let frame = reference.to_checkpoint();
        reference.finish().expect("healthy");
        frame
    });
    q.finish().expect("healthy");
}

// ---------------------------------------------------------------------------
// Fault-policy behaviour of the service itself.

#[test]
fn persistent_save_failure_exhausts_budget_and_degrades() {
    let _guard = scenario();
    let scratch = ScratchDir::new("exhaust");
    let mut p = runtime(2, 8);
    ingest_round(&mut p, 0);
    let policy = DurabilityPolicy {
        faults: FaultPolicy {
            max_restarts: 2,
            ..FaultPolicy::no_backoff()
        },
        ..manual_policy()
    };
    let service =
        DurabilityService::attach(&p, Checkpointer::new(scratch.path()).unwrap(), policy).unwrap();
    // Every fsync fails: 1 try + 2 retries, then the tick gives up.
    failpoint::configure("checkpoint::fsync", FailAction::Error, FireSpec::always());
    let err = service.checkpoint_now().expect_err("budget exhausted");
    assert!(matches!(err, CheckpointError::Io(_)));
    failpoint::clear();
    let status = service.status();
    assert_eq!(status.failed_saves, 3, "1 attempt + 2 retries");
    // Degraded, not dead: the next request succeeds.
    service.checkpoint_now().expect("healthy again");
    assert_eq!(service.status().last_generation, Some(1));
    p.finish().expect("healthy");
}
