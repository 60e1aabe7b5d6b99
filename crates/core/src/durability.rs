//! Background durability: a supervised service thread that checkpoints a
//! [`ParallelLtc`] to disk off the hot path.
//!
//! The ingest path never touches disk. A [`DurabilityService`] owns clones
//! of the runtime's shard handles (`Arc<Mutex<Ltc>>` — identity survives a
//! checkpoint restore) and, on its own thread, periodically publishes
//! checkpoint frames through a [`Checkpointer`]:
//!
//! * the first frame — and every *compaction* — is a **full** frame: each
//!   shard's complete snapshot, which also moves each shard's delta
//!   cursor to a fresh epoch;
//! * frames in between are **delta** frames carrying only the buckets
//!   dirtied since the chain's base full frame, linked to it by the
//!   `DLTA` chain header's base CRC (see [`crate::checkpoint`]).
//!
//! The service is the only writer of delta chains: no other code moves
//! the delta cursor of a runtime's shards (the workers' rollback images
//! open epochs on cursors of their own). A runtime takes one service at a
//! time — [`DurabilityService::attach`] refuses a second one with
//! [`CheckpointError::AlreadyAttached`] until the first is stopped or
//! dropped — because two services would share that one cursor: a second
//! writer would move it under the first one's chain, and that chain's
//! deltas would silently miss buckets. [`ParallelLtc::restore_from`] reads the chains back, decoding
//! each frame once.
//!
//! Snapshots are taken under each shard's lock — a brief pause per shard,
//! not a pipeline drain. Records still in flight through the SPSC queues
//! at snapshot time are simply not acknowledged into that frame; they land
//! in the next one. That is the same at-most-once-per-epoch semantic the
//! worker-supervision layer already documents.
//!
//! ## Fault handling
//!
//! A failed save (fsync error, rename error, disk full — or an injected
//! failpoint) is retried under the service's [`FaultPolicy`]: up to
//! `max_restarts` retries with the same exponential backoff the worker
//! supervisor uses. A failed **full** save clears the chain — the delta
//! cursors had already moved, so the service must not fall back to delta
//! frames until a full frame lands (a full frame never depends on dirty
//! state, so nothing is lost by retrying). Once the budget is exhausted
//! the [`OnFault`] policy decides: `Degrade` skips the tick and tries
//! again at the next one (durability lags, ingest is unaffected);
//! `Stop` shuts the service down and flags it in
//! [`DurabilityStatus::stopped_on_fault`].
//!
//! ## Prune safety
//!
//! A delta frame is useless without its base, so the service clamps the
//! [`Checkpointer`]'s keep limit to at least `2·(max_chain_len + 1)`
//! generations: the live chain (base + up to `max_chain_len` deltas)
//! plus the whole previous chain always survive pruning, so restore can
//! always fall back a full generation chain — even when the compaction
//! that opened the live chain is unreadable.
//!
//! ## Deterministic checkpoints
//!
//! [`DurabilityService::checkpoint_now`] queues an explicit checkpoint and
//! blocks until the service publishes it, returning the generation. Tests
//! (and operators wanting a barrier) quiesce the stream, call it, and know
//! exactly which records the frame covers.

use crate::checkpoint::{
    save_delta_over, save_full_over, CheckpointError, Checkpointer, DeltaChain,
};
use crate::config::FaultPolicy;
use crate::obs::trace::{names, TraceTrack};
use crate::obs::RuntimeObs;
use crate::pipeline::ParallelLtc;
use crate::table::Ltc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// What the service does once a save has exhausted its retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnFault {
    /// Skip the failed tick and try again at the next interval. Ingest is
    /// unaffected; durability lags until a save succeeds. Failures are
    /// counted in [`DurabilityStatus::failed_saves`].
    #[default]
    Degrade,
    /// Shut the service down. [`DurabilityStatus::stopped_on_fault`] is
    /// set and any blocked [`DurabilityService::checkpoint_now`] callers
    /// receive the error.
    Stop,
}

/// Knobs for the background durability service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityPolicy {
    /// Time between automatic checkpoint ticks. Explicit
    /// [`DurabilityService::checkpoint_now`] requests are served
    /// immediately regardless.
    pub interval: Duration,
    /// Delta frames per chain: once a chain holds this many deltas the
    /// next frame is a compaction (a fresh full frame). `0` makes every
    /// frame full. Also sets the prune clamp — see the module docs.
    pub max_chain_len: u32,
    /// Retry budget and backoff for failed saves (reuses the worker
    /// supervisor's policy type).
    pub faults: FaultPolicy,
    /// Behaviour once the retry budget is exhausted.
    pub on_fault: OnFault,
}

impl Default for DurabilityPolicy {
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(200),
            max_chain_len: 8,
            faults: FaultPolicy::default(),
            on_fault: OnFault::Degrade,
        }
    }
}

/// A snapshot of the service's counters, via
/// [`DurabilityService::status`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DurabilityStatus {
    /// Full frames published (initial fulls and compactions).
    pub full_saves: u64,
    /// Delta frames published.
    pub delta_saves: u64,
    /// Full frames that were compactions (a chain existed before them).
    pub compactions: u64,
    /// Individual save attempts that failed (each retry counts).
    pub failed_saves: u64,
    /// Length of the live delta chain (0 right after a full frame).
    pub chain_length: u32,
    /// Newest generation the service published.
    pub last_generation: Option<u64>,
    /// The service stopped because [`OnFault::Stop`] fired.
    pub stopped_on_fault: bool,
}

/// Cross-thread control block: explicit-checkpoint tickets and shutdown.
#[derive(Default)]
struct Control {
    stop: bool,
    /// Explicit checkpoint tickets issued ([`DurabilityService::checkpoint_now`]).
    tickets: u64,
    /// Explicit tickets the worker has served.
    served: u64,
    /// Result of the most recent explicitly-requested save.
    last: Option<Result<u64, CheckpointError>>,
}

/// The background durability service. Construct with
/// [`DurabilityService::attach`]; dropped or [`stop`](Self::stop)ped, it
/// signals its thread and joins it.
pub struct DurabilityService {
    control: Arc<(Mutex<Control>, Condvar)>,
    status: Arc<Mutex<DurabilityStatus>>,
    store: Arc<Checkpointer>,
    handle: Option<std::thread::JoinHandle<()>>,
    /// The runtime's one-service flag, lowered when the thread is joined.
    attached: Arc<AtomicBool>,
}

impl DurabilityService {
    /// Attach a durability service to `runtime`, publishing through
    /// `store`, whose keep limit is raised to at least
    /// `2·(max_chain_len + 1)` generations: the live chain plus the whole
    /// previous chain (see the module docs). The service holds shard
    /// handles, not the runtime: `runtime` stays fully usable (including a
    /// later [`ParallelLtc::restore_from`], after stopping the service).
    ///
    /// # Errors
    /// [`CheckpointError::AlreadyAttached`] while another service on
    /// `runtime` is alive; [`CheckpointError::Io`] if the service thread
    /// cannot be spawned.
    pub fn attach(
        runtime: &ParallelLtc,
        store: Checkpointer,
        policy: DurabilityPolicy,
    ) -> Result<Self, CheckpointError> {
        // The swap's Acquire pairs with the Release store in `stop`, which
        // follows the join: a new service starts after the old thread's
        // last save has finished.
        let attached = Arc::clone(runtime.durability_flag());
        if attached.swap(true, Ordering::AcqRel) {
            return Err(CheckpointError::AlreadyAttached);
        }
        let min_keep = (policy.max_chain_len as usize)
            .saturating_add(1)
            .saturating_mul(2);
        let store = if store.keep_limit() < min_keep {
            store.keep_generations(min_keep)
        } else {
            store
        };
        let store = Arc::new(store);
        let shards: Vec<Arc<Mutex<Ltc>>> = runtime.shard_tables().to_vec();
        let obs = runtime.obs().cloned();
        let trace = obs
            .as_ref()
            .and_then(|o| o.tracer())
            .map(|t| t.register(names::TRACK_DURABILITY));
        let control = Arc::new((Mutex::new(Control::default()), Condvar::new()));
        let status = Arc::new(Mutex::new(DurabilityStatus::default()));
        let worker = Worker {
            shards,
            obs,
            trace,
            store: Arc::clone(&store),
            policy,
            control: Arc::clone(&control),
            status: Arc::clone(&status),
            chain: None,
        };
        let handle = std::thread::Builder::new()
            .name("ltc-durability".to_string())
            .spawn(move || worker.run())
            .map_err(|e| {
                attached.store(false, Ordering::Release);
                CheckpointError::Io(e.to_string())
            })?;
        Ok(Self {
            control,
            status,
            store,
            handle: Some(handle),
            attached,
        })
    }

    /// Queue an explicit checkpoint and block until the service publishes
    /// it; returns the generation written. Call after quiescing the
    /// stream (e.g. [`ParallelLtc::sync`]) for a frame that covers an
    /// exact record prefix.
    ///
    /// # Errors
    /// The save's error if its retry budget is exhausted, or
    /// [`CheckpointError::Io`] if the service has stopped.
    pub fn checkpoint_now(&self) -> Result<u64, CheckpointError> {
        let (lock, cvar) = &*self.control;
        let mut guard = match lock.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if guard.stop {
            return Err(CheckpointError::Io("durability service stopped".into()));
        }
        guard.tickets = guard.tickets.saturating_add(1);
        let ticket = guard.tickets;
        cvar.notify_all();
        while guard.served < ticket {
            if guard.stop {
                // The worker acks outstanding tickets on shutdown; if we
                // raced past that, surface the stop instead of hanging.
                return guard.last.clone().unwrap_or(Err(CheckpointError::Io(
                    "durability service stopped".into(),
                )));
            }
            guard = match cvar.wait(guard) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        guard
            .last
            .clone()
            .unwrap_or(Err(CheckpointError::NoCheckpoint))
    }

    /// A snapshot of the service's counters.
    pub fn status(&self) -> DurabilityStatus {
        match self.status.lock() {
            Ok(guard) => guard.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    /// The store the service publishes through (keep-limit clamp applied).
    pub fn store(&self) -> &Checkpointer {
        &self.store
    }

    /// Signal the service to stop and join its thread, after which the
    /// runtime takes a new service. Idempotent; also runs on drop. Blocked
    /// [`Self::checkpoint_now`] callers are released with an error.
    pub fn stop(&mut self) {
        {
            let (lock, cvar) = &*self.control;
            let mut guard = match lock.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            guard.stop = true;
            cvar.notify_all();
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
            self.attached.store(false, Ordering::Release);
        }
    }
}

impl Drop for DurabilityService {
    fn drop(&mut self) {
        self.stop();
    }
}

/// State owned by the service thread.
struct Worker {
    shards: Vec<Arc<Mutex<Ltc>>>,
    obs: Option<Arc<RuntimeObs>>,
    /// Span track for the durability thread; saves are root spans (this
    /// thread runs off the batch path, so there is no batch to parent to).
    trace: Option<TraceTrack>,
    store: Arc<Checkpointer>,
    policy: DurabilityPolicy,
    control: Arc<(Mutex<Control>, Condvar)>,
    status: Arc<Mutex<DurabilityStatus>>,
    /// Live delta chain; `None` until a full frame lands (and again after
    /// a failed full save — see the module docs).
    chain: Option<DeltaChain>,
}

/// Why the wait loop woke up.
enum Wake {
    /// The interval elapsed: one automatic save.
    Tick,
    /// An explicit ticket is pending: serve it and publish the result.
    Explicit,
    /// Shutdown requested.
    Stop,
}

impl Worker {
    fn run(mut self) {
        loop {
            match self.wait() {
                Wake::Stop => break,
                Wake::Tick => {
                    let _ = self.save_once();
                    if self.stopped_on_fault() {
                        break;
                    }
                }
                Wake::Explicit => {
                    let result = self.save_once();
                    let (lock, cvar) = &*self.control;
                    let mut guard = match lock.lock() {
                        Ok(guard) => guard,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    guard.served = guard.served.saturating_add(1);
                    guard.last = Some(result);
                    cvar.notify_all();
                    if self.stopped_on_fault() {
                        break;
                    }
                }
            }
        }
        // Release anyone still blocked in checkpoint_now.
        let (lock, cvar) = &*self.control;
        let mut guard = match lock.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        guard.stop = true;
        guard.served = guard.tickets;
        if guard.last.is_none() {
            guard.last = Some(Err(CheckpointError::Io(
                "durability service stopped".into(),
            )));
        }
        cvar.notify_all();
    }

    /// Block until the next tick, an explicit ticket, or shutdown.
    fn wait(&self) -> Wake {
        let (lock, cvar) = &*self.control;
        let mut guard = match lock.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        loop {
            if guard.stop {
                return Wake::Stop;
            }
            if guard.tickets > guard.served {
                return Wake::Explicit;
            }
            let (next, timeout) = match cvar.wait_timeout(guard, self.policy.interval) {
                Ok(pair) => pair,
                Err(poisoned) => {
                    let (next, timeout) = poisoned.into_inner();
                    (next, timeout)
                }
            };
            guard = next;
            if timeout.timed_out() {
                // Re-check flags before acting on the tick.
                if guard.stop {
                    return Wake::Stop;
                }
                if guard.tickets > guard.served {
                    return Wake::Explicit;
                }
                return Wake::Tick;
            }
        }
    }

    /// One logical save — full or delta per the cadence — with the fault
    /// policy's retry budget around it.
    fn save_once(&mut self) -> Result<u64, CheckpointError> {
        let mut attempt = 0u32;
        loop {
            let result = self.try_save();
            match result {
                Ok(generation) => {
                    self.with_status(|s| s.last_generation = Some(generation));
                    return Ok(generation);
                }
                Err(error) => {
                    self.with_status(|s| s.failed_saves = s.failed_saves.saturating_add(1));
                    attempt = attempt.saturating_add(1);
                    if attempt > self.policy.faults.max_restarts {
                        if self.policy.on_fault == OnFault::Stop {
                            self.with_status(|s| s.stopped_on_fault = true);
                        }
                        return Err(error);
                    }
                    let backoff = self.policy.faults.backoff_for(attempt);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                }
            }
        }
    }

    /// One save attempt. Full when there is no live chain or the chain
    /// is full; delta otherwise. A failed full save drops the chain so no
    /// delta is attempted until a full frame lands.
    fn try_save(&mut self) -> Result<u64, CheckpointError> {
        let compact = self
            .chain
            .as_ref()
            .is_some_and(|chain| chain.length >= self.policy.max_chain_len);
        match self.chain {
            Some(ref mut chain) if !compact => {
                let _span = self.trace.as_ref().map(|t| t.span(names::DELTA_SAVE, None));
                let generation =
                    save_delta_over(&self.shards, self.obs.as_deref(), &self.store, chain)?;
                let length = chain.length;
                self.with_status(|s| {
                    s.delta_saves = s.delta_saves.saturating_add(1);
                    s.chain_length = length;
                });
                Ok(generation)
            }
            _ => {
                let span_name = if compact {
                    names::COMPACTION
                } else {
                    names::CHECKPOINT_SAVE
                };
                let _span = self.trace.as_ref().map(|t| t.span(span_name, None));
                let result =
                    save_full_over(&self.shards, self.obs.as_deref(), &self.store, compact);
                match result {
                    Ok(chain) => {
                        let generation = chain.base_generation;
                        self.chain = Some(chain);
                        self.with_status(|s| {
                            s.full_saves = s.full_saves.saturating_add(1);
                            if compact {
                                s.compactions = s.compactions.saturating_add(1);
                            }
                            s.chain_length = 0;
                        });
                        Ok(generation)
                    }
                    Err(error) => {
                        self.chain = None;
                        Err(error)
                    }
                }
            }
        }
    }

    fn stopped_on_fault(&self) -> bool {
        match self.status.lock() {
            Ok(guard) => guard.stopped_on_fault,
            Err(poisoned) => poisoned.into_inner().stopped_on_fault,
        }
    }

    fn with_status(&self, f: impl FnOnce(&mut DurabilityStatus)) {
        let mut guard = match self.status.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        f(&mut guard);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LtcConfig;
    use ltc_common::Weights;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    struct ScratchDir(PathBuf);

    impl ScratchDir {
        fn new(tag: &str) -> Self {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("ltc-dur-{}-{}-{}", std::process::id(), tag, n));
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
            .buckets(16)
            .cells_per_bucket(4)
            .weights(Weights::BALANCED)
            .records_per_period(50)
            .seed(11)
            .build()
    }

    /// A policy that never ticks on its own: every save is an explicit
    /// `checkpoint_now`, so tests are deterministic.
    fn manual_policy() -> DurabilityPolicy {
        DurabilityPolicy {
            interval: Duration::from_secs(3_600),
            faults: FaultPolicy::no_backoff(),
            ..DurabilityPolicy::default()
        }
    }

    #[test]
    fn explicit_checkpoints_follow_the_cadence() {
        let scratch = ScratchDir::new("cadence");
        let runtime = ParallelLtc::with_batch_size(config(), 2, 8);
        let policy = DurabilityPolicy {
            max_chain_len: 2,
            ..manual_policy()
        };
        let service =
            DurabilityService::attach(&runtime, Checkpointer::new(scratch.path()).unwrap(), policy)
                .unwrap();
        // full, delta, delta, compaction(full), delta
        for _ in 0..5 {
            service.checkpoint_now().unwrap();
        }
        let status = service.status();
        assert_eq!(status.full_saves, 2);
        assert_eq!(status.delta_saves, 3);
        assert_eq!(status.compactions, 1);
        assert_eq!(status.failed_saves, 0);
        assert_eq!(status.last_generation, Some(5));
        assert_eq!(status.chain_length, 1, "one delta after the compaction");
    }

    #[test]
    fn background_checkpoints_restore_the_acknowledged_stream() {
        let scratch = ScratchDir::new("restore");
        let mut runtime = ParallelLtc::with_batch_size(config(), 2, 8);
        for i in 0..400u64 {
            runtime.insert(i % 30);
        }
        runtime.end_period().unwrap();
        runtime.sync().unwrap();
        let service = DurabilityService::attach(
            &runtime,
            Checkpointer::new(scratch.path()).unwrap(),
            manual_policy(),
        )
        .unwrap();
        service.checkpoint_now().unwrap();
        for i in 0..100u64 {
            runtime.insert(if i % 2 == 0 { 7 } else { 19 });
        }
        runtime.sync().unwrap();
        let generation = service.checkpoint_now().unwrap();
        assert_eq!(generation, 2);
        let expected = runtime.to_checkpoint();
        drop(service);
        runtime.finish().unwrap();
        let mut recovered = ParallelLtc::with_batch_size(config(), 2, 8);
        let store = Checkpointer::new(scratch.path()).unwrap();
        assert_eq!(recovered.restore_from(&store).unwrap(), 2);
        assert_eq!(recovered.to_checkpoint(), expected);
        recovered.finish().unwrap();
    }

    #[test]
    fn keep_limit_is_clamped_for_chain_safety() {
        let scratch = ScratchDir::new("clamp");
        let runtime = ParallelLtc::with_batch_size(config(), 2, 8);
        let policy = DurabilityPolicy {
            max_chain_len: 6,
            ..manual_policy()
        };
        let store = Checkpointer::new(scratch.path()).unwrap(); // default keep = 3
        let service = DurabilityService::attach(&runtime, store, policy).unwrap();
        assert_eq!(service.store().keep_limit(), 14, "2·(max_chain_len + 1)");
    }

    #[test]
    fn corrupt_compaction_falls_back_to_the_previous_chain() {
        for max_chain_len in [1u32, 2, 4, 8] {
            let scratch = ScratchDir::new("fallback");
            let mut runtime = ParallelLtc::with_batch_size(config(), 1, 8);
            let policy = DurabilityPolicy {
                max_chain_len,
                ..manual_policy()
            };
            let service = DurabilityService::attach(
                &runtime,
                Checkpointer::new(scratch.path()).unwrap(),
                policy,
            )
            .unwrap();
            // full, n deltas, the compaction, one delta
            let n = u64::from(max_chain_len);
            let (newest_delta, compaction) = (n + 1, n + 2);
            let mut expected = None;
            for save in 1..=n + 3 {
                for i in 0..30u64 {
                    runtime.insert(save * 7 + i % 5);
                }
                runtime.sync().unwrap();
                assert_eq!(service.checkpoint_now().unwrap(), save);
                if save == newest_delta {
                    expected = Some(runtime.to_checkpoint());
                }
            }
            assert_eq!(service.status().compactions, 1, "n = {n}");
            drop(service);
            runtime.finish().unwrap();
            let frame = scratch.path().join(format!("ltc.{compaction:020}.ckpt"));
            let mut bytes = std::fs::read(&frame).unwrap();
            let middle = bytes.len() / 2;
            bytes[middle] ^= 0xff;
            std::fs::write(&frame, bytes).unwrap();
            let mut recovered = ParallelLtc::with_batch_size(config(), 1, 8);
            let store = Checkpointer::new(scratch.path()).unwrap();
            assert_eq!(
                recovered.restore_from(&store).unwrap(),
                newest_delta,
                "n = {n}: the previous chain's newest delta"
            );
            assert_eq!(Some(recovered.to_checkpoint()), expected, "n = {n}");
            recovered.finish().unwrap();
        }
    }

    #[test]
    fn stopped_service_rejects_checkpoint_requests() {
        let scratch = ScratchDir::new("stopped");
        let runtime = ParallelLtc::with_batch_size(config(), 2, 8);
        let mut service = DurabilityService::attach(
            &runtime,
            Checkpointer::new(scratch.path()).unwrap(),
            manual_policy(),
        )
        .unwrap();
        service.checkpoint_now().unwrap();
        service.stop();
        service.stop(); // idempotent
        assert!(matches!(
            service.checkpoint_now(),
            Err(CheckpointError::Io(_))
        ));
    }

    #[test]
    fn one_service_per_runtime() {
        let first_dir = ScratchDir::new("one-first");
        let second_dir = ScratchDir::new("one-second");
        let runtime = ParallelLtc::with_batch_size(config(), 1, 8);
        let attach = |dir: &ScratchDir| {
            DurabilityService::attach(
                &runtime,
                Checkpointer::new(dir.path()).unwrap(),
                manual_policy(),
            )
        };
        let mut first = attach(&first_dir).unwrap();
        first.checkpoint_now().unwrap();
        // A second writer would move the delta cursor under the first
        // service's chain.
        assert!(matches!(
            attach(&second_dir),
            Err(CheckpointError::AlreadyAttached)
        ));
        first.stop();
        let second = attach(&second_dir).unwrap();
        assert_eq!(second.checkpoint_now().unwrap(), 1);
        // Dropping the already-stopped first service leaves the second
        // one's claim in place.
        drop(first);
        assert!(matches!(
            attach(&first_dir),
            Err(CheckpointError::AlreadyAttached)
        ));
    }

    #[test]
    fn timed_ticks_checkpoint_without_explicit_requests() {
        let scratch = ScratchDir::new("ticks");
        let mut runtime = ParallelLtc::with_batch_size(config(), 2, 8);
        for i in 0..200u64 {
            runtime.insert(i % 20);
        }
        runtime.sync().unwrap();
        let policy = DurabilityPolicy {
            interval: Duration::from_millis(5),
            faults: FaultPolicy::no_backoff(),
            ..DurabilityPolicy::default()
        };
        let service =
            DurabilityService::attach(&runtime, Checkpointer::new(scratch.path()).unwrap(), policy)
                .unwrap();
        // Wait for the timer (not an explicit request) to publish.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while service.status().last_generation.is_none() {
            assert!(
                std::time::Instant::now() < deadline,
                "timer tick never published a checkpoint"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(service);
        let store = Checkpointer::new(scratch.path()).unwrap();
        assert!(store.latest().unwrap().is_some());
        runtime.finish().unwrap();
    }
}
