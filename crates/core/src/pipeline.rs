//! Multi-threaded sharded ingestion pipeline with self-supervising workers.
//!
//! [`ParallelLtc`] is the threaded runtime over the hash-sharding scheme of
//! [`crate::sharded`]: `N` worker threads, each owning one [`Ltc`] shard,
//! fed through bounded [`SpscRing`] queues with **batched hand-off** —
//! the routing side accumulates each shard's records into a batch and sends
//! whole batches, so queue synchronisation is paid once per batch while the
//! workers ingest through the bit-exact [`Ltc::insert_batch`] hot path.
//!
//! ## Equivalence to the single-threaded runtime
//!
//! The shard tables are built by [`ShardedLtc::new`] itself (same per-shard
//! seed perturbation) and records are routed by the same
//! [`shard_of_id`] hash in stream order, so after the same records and the
//! same period boundaries every shard is **bit-identical** to the
//! corresponding shard of a single-threaded [`ShardedLtc`] fed the same
//! stream — parallelism changes only who does the work, never the result
//! (on the fault-free path). An integration test pins this.
//!
//! ## Period coordination
//!
//! [`end_period`](ParallelLtc::end_period) is an epoch barrier: it flushes
//! every pending batch, enqueues an `EndPeriod` message behind them on every
//! queue, and blocks until all workers acknowledge it. Because each queue is
//! FIFO, every record inserted before the call lands in its shard before
//! the period closes — the parallel stream observes exactly the same period
//! boundaries as a sequential one.
//!
//! ## Fault model and supervision
//!
//! A shard worker that panics (a bug, a poisoned input, an injected
//! failpoint) neither aborts the process nor exits: each worker is its own
//! supervisor. It catches the unwind and, on its own thread:
//!
//! 1. journals the fault;
//! 2. copies its **rollback image** back over the shard table. The image is
//!    a copy of the table that the worker owns and brings up to date at
//!    every period boundary by copying only the bucket tiles dirtied since
//!    its last capture (the image keeps its own dirty cursor, so the
//!    durability service's deltas are unaffected);
//! 3. counts what the rollback discarded: the records applied since the
//!    last boundary, plus the faulting batch;
//! 4. within the retry budget ([`FaultPolicy::max_restarts`]), sleeps an
//!    exponential backoff and carries on with the next message. A faulting
//!    batch is dropped; a faulting `EndPeriod` or `Finish` is applied again
//!    on the restored table, so its barrier completes;
//! 5. once the budget is exhausted, turns the shard **lossy**: every later
//!    batch is dropped (and counted), while queries keep serving the
//!    shard's last-good state alongside the healthy shards. A lossy worker
//!    still closes every period, with no records, so every shard keeps one
//!    period count and a degraded runtime's checkpoints restore.
//!
//! Every message is acknowledged, faulting or not, so a barrier only
//! flushes, broadcasts and waits. Records between the last period boundary
//! and the fault are lost — that is the documented recovery semantic
//! (at-most-once per shard epoch) — and [`ShardHealth`] reports both the
//! restarts and exactly how many records were lost. Operations that can
//! observe a degraded runtime return `Result<_, RuntimeError>`; the
//! [`StreamProcessor`]/[`SignificanceQuery`] trait impls stay infallible by
//! design and serve best-effort degraded answers instead.
//!
//! ## Queries
//!
//! [`estimate`](SignificanceQuery::estimate) and
//! [`top_k`](SignificanceQuery::top_k) first drain the pipeline (flush +
//! barrier), then read the shard tables under their locks and merge, so a
//! query observes every record inserted before it.

use crate::config::{FaultPolicy, LtcConfig, PeriodMode};
use crate::obs::audit::HealthAuditor;
use crate::obs::trace::{names, SpanCtx, TraceTrack};
use crate::obs::{RuntimeObs, ShardObs};
use crate::sharded::{shard_of_id, ShardedLtc};
use crate::spsc::SpscRing;
use crate::stats::LtcStats;
use crate::table::{Ltc, RollbackImage};
use ltc_common::{
    top_k_of, BatchStreamProcessor, Estimate, ItemId, MemoryUsage, SignificanceQuery,
    StreamProcessor,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// Nanoseconds elapsed since `start`, clamped into `u64` (580 years — the
/// clamp is for the type, not a reachable value).
#[inline]
fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Records accumulated per shard before a batch is handed to its worker.
pub const DEFAULT_BATCH_SIZE: usize = 256;

/// Messages queued per worker before the router blocks (backpressure).
const RING_CAPACITY: usize = 8;

/// One unit of work for a shard worker. Each message carries the trace
/// context of the router-side span that produced it (`None` when tracing
/// is off), so the worker's apply span joins the same causal tree across
/// the SPSC boundary.
enum Msg {
    /// Ingest a run of records (already routed to this shard, in order).
    /// The context is the router's `batch_enqueue` span.
    Batch(Vec<ItemId>, Option<SpanCtx>),
    /// Close the current period (epoch barrier point). The context is the
    /// router's `barrier_wait` span.
    EndPeriod(Option<SpanCtx>),
    /// Stream over: harvest final-period flags.
    Finish(Option<SpanCtx>),
    /// A checkpoint restore rewrote the shard: this full image of the
    /// restored table replaces the worker's rollback image, and the worker
    /// starts over healthy. Acknowledged like every message, though no
    /// caller waits for it on its own.
    Restore(RollbackImage),
    /// Exit the worker loop.
    Shutdown,
}

/// A control message a barrier broadcasts, built from the barrier span's
/// context.
type Control = fn(Option<SpanCtx>) -> Msg;

/// How a worker faulted — the typed half of a [`WorkerFault`], also used
/// as the `kind` label of the `ltc_worker_faults_total` metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The worker's message handler panicked (caught by `catch_unwind`).
    Panic,
}

impl FaultKind {
    /// Stable lowercase name, used as a metric label value.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
        }
    }

    /// Stable numeric code, carried in journal events' `detail` word.
    pub fn code(self) -> u64 {
        match self {
            FaultKind::Panic => 0,
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed report of one worker fault, surfaced through
/// [`ParallelLtc::health`] and [`RuntimeError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFault {
    /// Which shard's worker faulted.
    pub shard: usize,
    /// How it faulted.
    pub kind: FaultKind,
    /// The panic message.
    pub message: String,
}

impl std::fmt::Display for WorkerFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {} worker died ({}): {}",
            self.shard, self.kind, self.message
        )
    }
}

/// Error surface of the supervised runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// One or more shards exhausted their restart budget and are lossy:
    /// they serve their last-good state but accept no new records. The
    /// runtime remains usable in this degraded mode.
    ShardsLost {
        /// The terminal fault of every lossy shard, in shard order.
        faults: Vec<WorkerFault>,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::ShardsLost { faults } => {
                write!(
                    f,
                    "{} shard(s) lossy after exhausting restarts:",
                    faults.len()
                )?;
                for fault in faults {
                    write!(f, " [{fault}]")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Per-shard health as reported by [`ParallelLtc::health`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardHealth {
    /// The shard takes records (possibly after recovering from faults).
    Healthy {
        /// Restarts consumed so far (0 = never faulted).
        restarts: u32,
        /// Records discarded by past rollbacks: those applied since the
        /// last period boundary, plus the faulting batch.
        records_lost: u64,
        /// Journal sequence number of this shard's most recent
        /// [`crate::obs::EventKind::WorkerFault`] event — correlate with
        /// drained journal events. `None` until the shard first faults
        /// (or when the runtime was built without observability).
        last_fault_seq: Option<u64>,
    },
    /// The restart budget is exhausted; the shard serves its last-good
    /// state and drops new records.
    Lossy {
        /// The terminal fault.
        fault: WorkerFault,
        /// Restarts consumed before the budget ran out.
        restarts: u32,
        /// Records discarded by rollbacks, plus every record dropped
        /// since the shard turned lossy.
        records_lost: u64,
        /// Journal sequence number of the most recent fault event (see
        /// the `Healthy` variant).
        last_fault_seq: Option<u64>,
    },
}

impl ShardHealth {
    /// Restarts consumed, whatever the state.
    pub fn restarts(&self) -> u32 {
        match self {
            ShardHealth::Healthy { restarts, .. } | ShardHealth::Lossy { restarts, .. } => {
                *restarts
            }
        }
    }

    /// Journal seq of the most recent fault event on this shard, if any.
    pub fn last_fault_seq(&self) -> Option<u64> {
        match self {
            ShardHealth::Healthy { last_fault_seq, .. }
            | ShardHealth::Lossy { last_fault_seq, .. } => *last_fault_seq,
        }
    }
}

/// Poison-tolerant lock. A worker that panics while holding a lock
/// recovers through its own fault path — not by cascading poison panics
/// through every query path.
pub(crate) fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Monotone completion counter a worker bumps after every message, with a
/// condvar so the router can wait for a target — the ack half of the epoch
/// barrier. A worker acknowledges every message, faulting or not, so a
/// wait always ends.
///
/// Built on [`crate::shim`] primitives and exposed (`#[doc(hidden)]`) so
/// `tests/loom_barrier.rs` can model-check the wait/bump handshake under
/// every bounded interleaving: `wait_for(t)` must never return before `t`
/// bumps happened, and must never miss a wakeup. Not part of the public
/// API.
#[doc(hidden)]
#[derive(Debug)]
pub struct Progress {
    done: crate::shim::Mutex<u64>,
    changed: crate::shim::Condvar,
}

impl Default for Progress {
    fn default() -> Self {
        Self::new()
    }
}

impl Progress {
    /// A counter at zero.
    pub fn new() -> Self {
        Self {
            done: crate::shim::Mutex::new(0),
            changed: crate::shim::Condvar::new(),
        }
    }

    fn lock(&self) -> crate::shim::MutexGuard<'_, u64> {
        match self.done.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Record one completed message and wake any waiting router.
    pub fn bump(&self) {
        let mut done = self.lock();
        *done = done.saturating_add(1);
        drop(done);
        self.changed.notify_all();
    }

    /// Block until at least `target` messages have completed. The
    /// predicate is (re)checked under the same lock `bump` holds while
    /// mutating, so a wakeup between the check and the wait cannot be lost
    /// — `tests/loom_barrier.rs` proves a check-then-wait variant without
    /// that discipline deadlocks.
    pub fn wait_for(&self, target: u64) {
        let mut done = self.lock();
        while *done < target {
            done = match self.changed.wait(done) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}

/// One shard's fault record. Its worker writes it on a fault (and for
/// every batch it drops once lossy); [`ParallelLtc::health`], the
/// barrier's result and the audit read it; a restore resets it.
#[derive(Debug, Default)]
struct LaneHealth {
    /// Restarts consumed from the budget.
    restarts: u32,
    /// Records discarded by rollbacks or dropped in lossy mode.
    records_lost: u64,
    /// Journal seq of this shard's most recent fault event.
    last_fault_seq: Option<u64>,
    /// `Some(fault)` once the budget is exhausted.
    lossy: Option<WorkerFault>,
}

impl LaneHealth {
    fn report(&self) -> ShardHealth {
        match &self.lossy {
            Some(fault) => ShardHealth::Lossy {
                fault: fault.clone(),
                restarts: self.restarts,
                records_lost: self.records_lost,
                last_fault_seq: self.last_fault_seq,
            },
            None => ShardHealth::Healthy {
                restarts: self.restarts,
                records_lost: self.records_lost,
                last_fault_seq: self.last_fault_seq,
            },
        }
    }
}

/// What a worker owns of its shard: the table handle, the rollback image,
/// and what it needs to recover from a fault on its own.
struct WorkerShard {
    index: usize,
    table: Arc<Mutex<Ltc>>,
    /// The table as of its last period boundary: brought up to date at
    /// every `EndPeriod` and `Finish`, copied back over the table on a
    /// fault, and replaced by a restore.
    image: RollbackImage,
    /// Records applied since `image` was captured: what a rollback
    /// discards.
    applied: u64,
    /// Set once the restart budget is spent. Mirrors `health.lossy`, so
    /// the batch path takes no lock to read it.
    lossy: bool,
    health: Arc<Mutex<LaneHealth>>,
    /// The runtime's `degraded` flag, raised when this shard turns lossy.
    degraded: Arc<AtomicBool>,
    policy: FaultPolicy,
    /// The runtime's journal and fault counters (`None` = metrics off).
    obs: Option<Arc<RuntimeObs>>,
    /// Wait-free metric handles for this shard (`None` = metrics off).
    metrics: Option<ShardObs>,
}

impl WorkerShard {
    /// Apply one message, inside the worker's catch boundary. A lossy
    /// shard drops (and counts) batches and closes periods without the
    /// failpoints, so injection cannot make its close fault.
    fn apply(&mut self, msg: &Msg) {
        match msg {
            Msg::Batch(ids, _) if self.lossy => {
                let len = ids.len() as u64;
                let mut health = lock_recover(&self.health);
                health.records_lost = health.records_lost.saturating_add(len);
                drop(health);
                if let Some(metrics) = &self.metrics {
                    metrics.records_lost.add(len);
                }
            }
            Msg::Batch(ids, _) => {
                fail_point!("worker::batch");
                // Per-batch timing only — the per-record path inside
                // `insert_batch` stays untouched, so the instrumentation
                // cost is two clock reads amortised over the whole batch.
                let start = self.metrics.as_ref().map(|_| Instant::now());
                lock_recover(&self.table).insert_batch(ids);
                self.applied = self.applied.saturating_add(ids.len() as u64);
                if let (Some(metrics), Some(start)) = (&self.metrics, start) {
                    metrics.batch_insert_ns.record(elapsed_ns(start));
                    metrics.batches.inc();
                    metrics.records.add(ids.len() as u64);
                    // `queue_depth` is deliberately NOT updated here: the
                    // producer already refreshes it on every push, and a
                    // second writer on this side would ping-pong the gauge's
                    // cache line between cores on every batch.
                }
            }
            Msg::EndPeriod(_) => {
                if !self.lossy {
                    fail_point!("worker::end_period");
                }
                self.close(Ltc::end_period);
            }
            Msg::Finish(_) => self.close(Ltc::finalize),
            Msg::Restore(_) | Msg::Shutdown => {}
        }
    }

    /// Close the period (or the stream) with `close`, then bring the image
    /// up to date.
    fn close(&mut self, close: fn(&mut Ltc)) {
        let mut table = lock_recover(&self.table);
        close(&mut table);
        table.capture_rollback(&mut self.image);
        self.applied = 0;
    }

    /// Recover from a panic in [`apply`](Self::apply). This runs outside
    /// the catch boundary, so it must not panic: it journals the fault,
    /// copies the image back over the table, counts what the rollback
    /// discarded (`batch` is the faulting batch's length), then sleeps the
    /// backoff — or, with the budget spent, turns the shard lossy.
    fn recover(&mut self, message: String, batch: u64) {
        let shard = self.index as u64;
        let kind = FaultKind::Panic;
        let seq = self
            .obs
            .as_ref()
            .and_then(|obs| obs.note_fault(shard, kind.name(), kind.code()));
        lock_recover(&self.table).roll_back(&self.image);
        let lost = self.applied.saturating_add(batch);
        self.applied = 0;
        let mut health = lock_recover(&self.health);
        if seq.is_some() {
            health.last_fault_seq = seq;
        }
        health.records_lost = health.records_lost.saturating_add(lost);
        if let Some(metrics) = &self.metrics {
            metrics.records_lost.add(lost);
        }
        if let Some(obs) = &self.obs {
            obs.note_rollback(shard, u64::from(health.restarts));
        }
        if self.lossy {
            return;
        }
        if health.restarts >= self.policy.max_restarts {
            self.lossy = true;
            health.lossy = Some(WorkerFault {
                shard: self.index,
                kind,
                message,
            });
            self.degraded.store(true, Ordering::Release);
            if let Some(metrics) = &self.metrics {
                metrics.degradations.inc();
            }
            if let Some(obs) = &self.obs {
                obs.note_degradation(shard, health.records_lost);
            }
            return;
        }
        health.restarts = health.restarts.saturating_add(1);
        let backoff = self.policy.backoff_for(health.restarts);
        drop(health);
        if let Some(metrics) = &self.metrics {
            metrics.restarts.inc();
        }
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
        }
    }

    /// Take a restored table's image and start over healthy (the caller
    /// has already reset the lane's health record).
    fn restore(&mut self, image: RollbackImage) {
        self.image = image;
        self.applied = 0;
        self.lossy = false;
    }
}

/// One shard worker thread: its end of the lane, its span ring and its
/// shard.
struct Worker {
    queue: Arc<SpscRing<Msg>>,
    progress: Arc<Progress>,
    /// This shard's span ring (`None` = tracing off). Wait-free record
    /// path; drained by the router behind the epoch barrier.
    trace: Option<TraceTrack>,
    shard: WorkerShard,
}

impl Worker {
    /// Serve messages until `Shutdown`, acknowledging every one, whether
    /// its handler faulted or not.
    fn run(mut self) {
        while let Some(msg) = self.queue.pop() {
            match msg {
                Msg::Restore(image) => self.shard.restore(image),
                Msg::Shutdown => {
                    self.progress.bump();
                    return;
                }
                msg => self.serve(&msg),
            }
            self.progress.bump();
        }
    }

    /// Apply `msg` inside the catch boundary. On a panic, recover; then a
    /// faulting batch is dropped, and a faulting period close is applied
    /// again on the rolled-back table so its barrier completes. A close
    /// that faults on an already lossy shard is not tried again: a lossy
    /// close runs no failpoint, so its panic is a bug that would recur.
    fn serve(&mut self, msg: &Msg) {
        loop {
            // Pre-derive the apply span's identity from the shipped context
            // *before* entering `catch_unwind`: a panicking handler still
            // records its (partial) span via the guard's `Drop`, and the
            // fault event below parents under the same context.
            let span_plan = self.trace.as_ref().and_then(|t| {
                let plan = |parent: Option<SpanCtx>, name: u64| {
                    let span = t.child_or_root(parent);
                    let parent_id = parent.map(|p| p.span_id).unwrap_or(0);
                    (span, parent_id, name)
                };
                match msg {
                    Msg::Batch(_, enqueue) => Some(plan(*enqueue, names::BATCH_PROCESS)),
                    Msg::EndPeriod(barrier) => Some(plan(*barrier, names::END_PERIOD_APPLY)),
                    Msg::Finish(barrier) => Some(plan(*barrier, names::FINISH_APPLY)),
                    Msg::Restore(_) | Msg::Shutdown => None,
                }
            });
            let was_lossy = self.shard.lossy;
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _apply_span = match (&self.trace, &span_plan) {
                    (Some(t), Some((span, parent_id, name))) => {
                        Some(t.span_at(*span, *name, *parent_id))
                    }
                    _ => None,
                };
                self.shard.apply(msg);
            }));
            let Err(payload) = outcome else {
                return;
            };
            // Mark the fault in the trace first: a zero-duration
            // `worker_fault` span parented under the apply span that died,
            // so the panic shows up inside the batch's causal tree.
            if let (Some(t), Some((span, _, _))) = (&self.trace, &span_plan) {
                t.event(names::WORKER_FAULT, Some(*span));
            }
            let batch = match msg {
                Msg::Batch(ids, _) => Some(ids.len() as u64),
                _ => None,
            };
            self.shard
                .recover(panic_message(payload.as_ref()), batch.unwrap_or(0));
            if batch.is_some() || was_lossy {
                return;
            }
        }
    }
}

/// One shard's routing lane: the batch under construction, the channel to
/// its worker, the barrier state, and the shard's health record.
struct Lane {
    /// Per-shard batch under construction.
    pending: Vec<ItemId>,
    /// Messages enqueued to the worker (the barrier's send-side count).
    sent: u64,
    queue: Arc<SpscRing<Msg>>,
    progress: Arc<Progress>,
    health: Arc<Mutex<LaneHealth>>,
    /// The worker thread, joined at shutdown.
    worker: Option<JoinHandle<()>>,
    /// Wait-free metric handles for this shard (`None` = metrics off).
    obs: Option<ShardObs>,
}

impl Lane {
    /// Enqueue `msg` for the worker, counting it for the barrier. The
    /// pipeline never poisons a lane's ring, so the push always lands.
    fn send(&mut self, msg: Msg) {
        if self.queue.push(msg) {
            self.sent = self.sent.saturating_add(1);
        }
    }
}

/// The router's tracing state: its own span ring plus the contexts that
/// stitch the causal tree together — each batch's `batch_enqueue` span is
/// a tree root, the next `barrier_wait` span parents under the most recent
/// enqueue, and a checkpoint publish parents under the most recent
/// barrier, so one batch's enqueue → process → barrier → checkpoint chain
/// shares one `trace_id`.
struct RouterTrace {
    track: TraceTrack,
    /// Context of the most recent `batch_enqueue` span.
    last_enqueue: Option<SpanCtx>,
    /// Context of the most recent `barrier_wait` span.
    last_barrier: Option<SpanCtx>,
}

struct Inner {
    lanes: Vec<Lane>,
    /// Router-side tracing state (`None` = tracing off).
    trace: Option<RouterTrace>,
}

/// A runtime's shard tables and its period gate, as one handle that the
/// checkpoint layer borrows and the durability service clones. The barrier
/// holds the gate across every broadcast (`EndPeriod`, `Finish`,
/// `Shutdown`) and its acks; a checkpoint holds it while it takes the
/// shards' sections, and a restore while it commits. So every frame sees every shard at one period
/// count.
#[derive(Clone)]
pub(crate) struct ShardSet {
    /// The shard tables in shard order; their `Arc` identity survives a
    /// restore.
    tables: Vec<Arc<Mutex<Ltc>>>,
    period_gate: Arc<Mutex<()>>,
}

impl ShardSet {
    /// The shard tables, in shard order.
    pub(crate) fn tables(&self) -> &[Arc<Mutex<Ltc>>] {
        &self.tables
    }

    /// Hold the period gate: no period closes, and no restore commits,
    /// until the guard drops.
    pub(crate) fn hold_periods(&self) -> MutexGuard<'_, ()> {
        lock_recover(&self.period_gate)
    }

    /// The shard configurations, in shard order (a restore keeps them).
    pub(crate) fn configs(&self) -> Vec<LtcConfig> {
        self.tables
            .iter()
            .map(|t| *lock_recover(t).config())
            .collect()
    }
}

/// The multi-threaded sharded LTC runtime with self-supervising workers.
/// See the module docs.
pub struct ParallelLtc {
    inner: Mutex<Inner>,
    shards: ShardSet,
    batch_size: usize,
    policy: FaultPolicy,
    /// Shared observability state (`None` = metrics off, for overhead
    /// comparison; the default constructors enable it).
    obs: Option<Arc<RuntimeObs>>,
    /// Per-period algorithm-health auditor (`None` = metrics off).
    auditor: Option<HealthAuditor>,
    /// Periods completed (drives the rollover journal events; a restore
    /// sets it from the restored shards).
    periods: u64,
    /// Checkpoint restores performed (feeds the auditor's rollback drift
    /// signal alongside the per-lane restart counts).
    restores: u64,
    /// Set while a [`DurabilityService`](crate::durability::DurabilityService)
    /// is attached: the shards' dirty epochs serve one delta chain.
    durability: Arc<AtomicBool>,
    /// Raised by the first worker whose shard turns lossy, and never
    /// lowered: until then a barrier reads this one flag instead of every
    /// lane's health lock (every query drains through a barrier).
    degraded: Arc<AtomicBool>,
}

impl std::fmt::Debug for ParallelLtc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelLtc")
            .field("num_shards", &self.shards.tables.len())
            .field("batch_size", &self.batch_size)
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

/// Extract a readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Hand a lane's pending batch (if any) to its worker's queue, opening a
/// root `batch_enqueue` span around the hand-off (the batch's causal tree
/// grows from it).
fn flush_lane(lane: &mut Lane, batch_size: usize, trace: Option<&mut RouterTrace>) {
    if lane.pending.is_empty() {
        return;
    }
    let batch = std::mem::replace(&mut lane.pending, Vec::with_capacity(batch_size));
    let pending_span = trace.as_ref().map(|t| t.track.begin(None));
    let enqueue_ctx = pending_span.as_ref().map(|p| p.ctx);
    lane.send(Msg::Batch(batch, enqueue_ctx));
    if let (Some(t), Some(p)) = (trace, pending_span) {
        t.track.finish(&p, names::BATCH_ENQUEUE);
        t.last_enqueue = Some(p.ctx);
    }
    if let Some(obs) = &lane.obs {
        obs.queue_depth.set(lane.queue.len() as u64);
    }
}

/// Statically exclusive access to the lanes (no runtime locking). Takes
/// the field rather than `&mut self`, so callers can borrow the shard
/// tables alongside.
fn inner_mut(inner: &mut Mutex<Inner>) -> &mut Inner {
    match inner.get_mut() {
        Ok(inner) => inner,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl ParallelLtc {
    /// Spawn `num_shards` workers, each owning an LTC shard identical to
    /// shard `i` of `ShardedLtc::new(config, num_shards)`, under the
    /// default [`FaultPolicy`]. Workers receive batches over the
    /// lock-free [`spsc`](crate::spsc) rings.
    ///
    /// # Panics
    /// Panics if `config` is time-driven (built with
    /// `time_units_per_period`) or `num_shards` is 0.
    pub fn new(config: LtcConfig, num_shards: usize) -> Self {
        Self::with_batch_size(config, num_shards, DEFAULT_BATCH_SIZE)
    }

    /// [`new`](ParallelLtc::new) with an explicit hand-off batch size.
    /// Larger batches amortise queue synchronisation further but delay when
    /// workers see records; [`DEFAULT_BATCH_SIZE`] suits most streams.
    /// Spawns workers on the [`spsc`](crate::spsc) rings.
    ///
    /// # Panics
    /// Panics if `batch_size` or `num_shards` is 0, or if `config` is
    /// time-driven.
    pub fn with_batch_size(config: LtcConfig, num_shards: usize, batch_size: usize) -> Self {
        Self::with_fault_policy(config, num_shards, batch_size, FaultPolicy::default())
    }

    /// Full-control constructor: explicit batch size and supervision
    /// policy (retry budget, backoff). Observability is on (a fresh
    /// [`RuntimeObs`]); use
    /// [`with_observability`](ParallelLtc::with_observability) to share a
    /// registry or to turn metrics off. Spawns workers on the
    /// [`spsc`](crate::spsc) rings.
    ///
    /// # Panics
    /// Panics if `batch_size` or `num_shards` is 0, or if `config` is
    /// time-driven.
    pub fn with_fault_policy(
        config: LtcConfig,
        num_shards: usize,
        batch_size: usize,
        policy: FaultPolicy,
    ) -> Self {
        Self::with_observability(
            config,
            num_shards,
            batch_size,
            policy,
            Some(Arc::new(RuntimeObs::new())),
        )
    }

    /// [`with_fault_policy`](ParallelLtc::with_fault_policy) with explicit
    /// observability: pass a shared [`RuntimeObs`] to aggregate several
    /// runtimes into one registry, or `None` to run with metrics off (the
    /// baseline of the metrics overhead smoke bound in `tests/obs.rs`).
    /// Spawns workers on the [`spsc`](crate::spsc) rings.
    ///
    /// # Panics
    /// Panics if `batch_size` or `num_shards` is 0, if `config` is
    /// time-driven (the runtime has no timestamped insert, so every batch
    /// would fault its worker and the records would be dropped; the check
    /// runs before any worker spawns), or if the OS refuses a worker
    /// thread.
    pub fn with_observability(
        config: LtcConfig,
        num_shards: usize,
        batch_size: usize,
        policy: FaultPolicy,
        obs: Option<Arc<RuntimeObs>>,
    ) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        assert!(
            matches!(config.period_mode, PeriodMode::ByCount { .. }),
            "ParallelLtc needs a count-driven config (records_per_period), \
             not a time-driven one"
        );
        // Delegate shard construction so seeding matches ShardedLtc exactly.
        let shards: Vec<Arc<Mutex<Ltc>>> = ShardedLtc::new(config, num_shards)
            .into_shards()
            .into_iter()
            .map(|ltc| Arc::new(Mutex::new(ltc)))
            .collect();
        let tracer = obs.as_ref().and_then(|o| o.tracer()).cloned();
        let degraded = Arc::new(AtomicBool::new(false));
        let lanes = shards
            .iter()
            .enumerate()
            .map(|(i, table)| {
                let metrics = obs.as_ref().map(|o| o.shard(i as u64));
                let ring = SpscRing::with_capacity(RING_CAPACITY);
                let queue = Arc::new(match &metrics {
                    Some(m) => ring.with_stall_counter(m.queue_stalls.clone()),
                    None => ring,
                });
                let progress = Arc::new(Progress::new());
                let health = Arc::new(Mutex::new(LaneHealth::default()));
                let worker = Worker {
                    queue: Arc::clone(&queue),
                    progress: Arc::clone(&progress),
                    trace: tracer.as_ref().map(|t| t.register(names::TRACK_SHARD)),
                    shard: WorkerShard {
                        index: i,
                        table: Arc::clone(table),
                        // The initial image is the pristine shard: a worker
                        // that faults before its first period boundary rolls
                        // back to an empty (but correctly configured) table.
                        image: lock_recover(table).rollback_image(),
                        applied: 0,
                        lossy: false,
                        health: Arc::clone(&health),
                        degraded: Arc::clone(&degraded),
                        policy,
                        obs: obs.clone(),
                        metrics: metrics.clone(),
                    },
                };
                let spawned = std::thread::Builder::new()
                    .name(format!("ltc-shard-{i}"))
                    .spawn(move || worker.run());
                let handle = match spawned {
                    Ok(handle) => handle,
                    // lint:allow(no_panic): startup-only, cannot be handled locally
                    Err(e) => panic!("spawn shard worker {i}: {e}"),
                };
                Lane {
                    pending: Vec::with_capacity(batch_size),
                    sent: 0,
                    queue,
                    progress,
                    health,
                    worker: Some(handle),
                    obs: metrics,
                }
            })
            .collect();
        let trace = tracer.as_ref().map(|t| RouterTrace {
            track: t.register(names::TRACK_ROUTER),
            last_enqueue: None,
            last_barrier: None,
        });
        let auditor = obs.as_ref().map(|o| HealthAuditor::new(o));
        Self {
            inner: Mutex::new(Inner { lanes, trace }),
            shards: ShardSet {
                tables: shards,
                period_gate: Arc::new(Mutex::new(())),
            },
            batch_size,
            policy,
            obs,
            auditor,
            periods: 0,
            restores: 0,
            durability: Arc::new(AtomicBool::new(false)),
            degraded,
        }
    }

    /// Number of shards (= worker threads).
    pub fn num_shards(&self) -> usize {
        self.shards.tables.len()
    }

    /// Hand-off batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The supervision policy this runtime was built with.
    pub fn fault_policy(&self) -> FaultPolicy {
        self.policy
    }

    /// The runtime's observability state (registry + journal), or `None`
    /// when built with metrics off. Render exports with
    /// [`RuntimeObs::render_prometheus`] / [`RuntimeObs::render_json`];
    /// drain events with `obs.journal().drain()`.
    pub fn obs(&self) -> Option<&Arc<RuntimeObs>> {
        self.obs.as_ref()
    }

    /// Merged operational counters across every shard table, after
    /// draining the pipeline (so the counters cover every record routed
    /// before the call). Lossy shards contribute their last-good state.
    /// `periods` reports the stream's period count (see
    /// [`ShardedLtc::stats`]). The drain rides the [`spsc`](crate::spsc)
    /// rings.
    pub fn stats(&self) -> LtcStats {
        let _ = self.sync();
        let mut merged: LtcStats = self
            .shards
            .tables
            .iter()
            .map(|shard| lock_recover(shard).stats())
            .sum();
        merged.periods = merged
            .periods
            .checked_div(self.shards.tables.len() as u64)
            .unwrap_or(0);
        merged
    }

    /// Route one record to its shard's pending batch; hand the batch off
    /// when it fills. The hot path: one shard hash, one push, no locks.
    /// Hand-off goes over the lock-free [`spsc`](crate::spsc) ring.
    #[inline]
    pub fn insert(&mut self, id: ItemId) {
        self.insert_batch(std::slice::from_ref(&id));
    }

    /// Route a whole run of records — one routing pass, then per-shard
    /// hand-off of every batch that filled, over the
    /// [`spsc`](crate::spsc) rings.
    pub fn insert_batch(&mut self, ids: &[ItemId]) {
        let n = self.shards.tables.len();
        let batch_size = self.batch_size;
        let Inner { lanes, trace } = inner_mut(&mut self.inner);
        for &id in ids {
            // `shard_of_id` returns a value below `n`, so the lookup
            // succeeds.
            if let Some(lane) = lanes.get_mut(shard_of_id(id, n)) {
                lane.pending.push(id);
                if lane.pending.len() >= batch_size {
                    flush_lane(lane, batch_size, trace.as_mut());
                }
            }
        }
    }

    /// Epoch barrier: every record routed so far reaches its shard, all
    /// shards close the period, and the call returns only once every
    /// worker has acknowledged — the parallel stream sees the same period
    /// boundary on every shard. A worker that faults during the barrier
    /// recovers on its own and still closes the period. Control messages
    /// ride the [`spsc`](crate::spsc) rings.
    ///
    /// # Errors
    /// [`RuntimeError::ShardsLost`] if any shard is lossy (the period
    /// still closed on every shard; the runtime stays usable).
    pub fn end_period(&mut self) -> Result<(), RuntimeError> {
        let result = self.barrier(Some(Msg::EndPeriod));
        // The period closed on every shard even when some are lossy, so
        // the rollover is journalled in both cases.
        self.periods = self.periods.saturating_add(1);
        if let Some(obs) = &self.obs {
            obs.note_period_rollover(self.periods);
        }
        // The barrier just completed: every table is quiescent, so the
        // health audit reads consistent per-period state.
        self.run_audit();
        result
    }

    /// Run the per-period health audit (no-op with metrics off). The
    /// tables are quiescent here — `end_period` calls this right after its
    /// barrier — so the audit's brief table locks contend with nothing.
    fn run_audit(&mut self) {
        let Some(obs) = self.obs.clone() else {
            return;
        };
        let period = self.periods;
        let mut rollbacks = self.restores;
        let audit_span = {
            let inner = inner_mut(&mut self.inner);
            for lane in &inner.lanes {
                let health = lock_recover(&lane.health);
                rollbacks = rollbacks.saturating_add(u64::from(health.restarts));
                if health.lossy.is_some() {
                    // The terminal rollback before degradation never
                    // consumed a restart from the budget.
                    rollbacks = rollbacks.saturating_add(1);
                }
            }
            inner
                .trace
                .as_ref()
                .map(|t| (t.track.clone(), t.last_barrier))
        };
        let shards = &self.shards.tables;
        if let Some(auditor) = self.auditor.as_mut() {
            let _span = audit_span
                .as_ref()
                .map(|(track, parent)| track.span(names::AUDIT, *parent));
            auditor.audit(shards, period, rollbacks, &obs);
        }
    }

    /// Flush + finalize every shard (harvest last-period CLOCK flags), with
    /// the same barrier semantics as [`end_period`](ParallelLtc::end_period)
    /// — control over the [`spsc`](crate::spsc) rings.
    ///
    /// # Errors
    /// [`RuntimeError::ShardsLost`] if any shard is lossy.
    pub fn finish(&mut self) -> Result<(), RuntimeError> {
        self.barrier(Some(Msg::Finish))
    }

    /// Drain the pipeline: flush pending batches and wait until every
    /// worker has processed everything sent. Queries call this first.
    /// Flushing pushes onto the [`spsc`](crate::spsc) rings.
    ///
    /// # Errors
    /// [`RuntimeError::ShardsLost`] if any shard is lossy — the drain
    /// itself still completed on every shard, so degraded queries may
    /// proceed (the trait impls do exactly that).
    pub fn sync(&self) -> Result<(), RuntimeError> {
        self.barrier(None)
    }

    /// Per-shard supervision state: restarts consumed, records lost, the
    /// terminal fault of a lossy shard, and the journal sequence number of
    /// the shard's most recent fault event (so operators can line health
    /// up with drained [`crate::obs::Event`]s).
    pub fn health(&self) -> Vec<ShardHealth> {
        let inner = lock_recover(&self.inner);
        inner
            .lanes
            .iter()
            .map(|lane| lock_recover(&lane.health).report())
            .collect()
    }

    /// The epoch barrier behind [`sync`](ParallelLtc::sync) and every
    /// broadcast: flush each lane's pending batch, enqueue `ctrl` (if any)
    /// on every queue, and wait until every worker has processed
    /// everything sent. The `barrier_wait` span opens after the flush pass
    /// (parented under the last `batch_enqueue`, so the drained batch's
    /// tree contains the wait that drained it), ships its context inside
    /// the control messages, and closes once every worker has
    /// acknowledged. A broadcast and its acks run under the period gate,
    /// so no checkpoint takes its sections while the shards' period
    /// counts disagree. A worker that faults in that window recovers under
    /// the gate too (its rolled-back shard sits a period behind until it
    /// applies the close again), so a save can wait out a restart's
    /// backoff.
    fn barrier(&self, ctrl: Option<Control>) -> Result<(), RuntimeError> {
        let obs = self.obs.as_deref();
        let mut inner = lock_recover(&self.inner);
        let Inner { lanes, trace } = &mut *inner;
        // Pass 1: flush every lane's pending batch.
        for lane in lanes.iter_mut() {
            flush_lane(lane, self.batch_size, trace.as_mut());
        }
        let barrier = trace
            .as_ref()
            .map(|t| (t.track.clone(), t.track.begin(t.last_enqueue)));
        let _gate = ctrl.map(|_| self.shards.hold_periods());
        // Pass 2: enqueue the control message on every queue.
        if let Some(ctrl) = ctrl {
            let barrier_ctx = barrier.as_ref().map(|(_, p)| p.ctx);
            for lane in lanes.iter_mut() {
                lane.send(ctrl(barrier_ctx));
            }
        }
        // Pass 3: wait for every worker to acknowledge everything sent.
        let start = obs.map(|_| Instant::now());
        for lane in lanes.iter() {
            lane.progress.wait_for(lane.sent);
        }
        if let (Some(obs), Some(start)) = (obs, start) {
            obs.barrier_wait_ns.record(elapsed_ns(start));
        }
        if let Some((track, pending)) = barrier {
            track.finish(&pending, names::BARRIER_WAIT);
            if let Some(t) = trace.as_mut() {
                t.last_barrier = Some(pending.ctx);
            }
        }
        runtime_result(lanes, &self.degraded)
    }

    /// Stop the workers (after draining everything queued) and reassemble
    /// the shards into a single-threaded [`ShardedLtc`] for further use —
    /// the inverse of spinning the runtime up. The shutdown barrier rides
    /// the [`spsc`](crate::spsc) rings.
    ///
    /// # Errors
    /// [`RuntimeError::ShardsLost`] if any shard degraded to lossy; use
    /// [`into_sharded_lossy`](ParallelLtc::into_sharded_lossy) to recover
    /// the (partially stale) tables anyway.
    pub fn into_sharded(self) -> Result<ShardedLtc, RuntimeError> {
        let (sharded, faults) = self.into_sharded_lossy();
        if faults.is_empty() {
            Ok(sharded)
        } else {
            Err(RuntimeError::ShardsLost { faults })
        }
    }

    /// [`into_sharded`](ParallelLtc::into_sharded) that always returns the
    /// tables: lossy shards contribute their last-good (rolled-back)
    /// state, and their terminal faults ride along. The shutdown barrier
    /// rides the [`spsc`](crate::spsc) rings.
    pub fn into_sharded_lossy(mut self) -> (ShardedLtc, Vec<WorkerFault>) {
        let faults = match self.barrier(Some(|_| Msg::Shutdown)) {
            Ok(()) => Vec::new(),
            Err(RuntimeError::ShardsLost { faults }) => faults,
        };
        for lane in &mut inner_mut(&mut self.inner).lanes {
            if let Some(handle) = lane.worker.take() {
                let _ = handle.join();
            }
        }
        let shards = std::mem::take(&mut self.shards.tables)
            .into_iter()
            .map(|arc| match Arc::try_unwrap(arc) {
                Ok(mutex) => match mutex.into_inner() {
                    Ok(shard) => shard,
                    Err(poisoned) => poisoned.into_inner(),
                },
                // Unreachable once the workers (the only other handle
                // owners) have exited; cloning keeps this total anyway.
                Err(arc) => lock_recover(&arc).clone(),
            })
            .collect();
        (ShardedLtc::from_shards(shards), faults)
    }

    /// Strict query: drain (over the [`spsc`](crate::spsc) rings), then
    /// estimate `id`'s significance.
    ///
    /// # Errors
    /// [`RuntimeError::ShardsLost`] if any shard is lossy. For best-effort
    /// degraded answers use the [`SignificanceQuery`] impl instead.
    pub fn try_estimate(&self, id: ItemId) -> Result<Option<f64>, RuntimeError> {
        self.sync()?;
        Ok(self.read_estimate(id))
    }

    /// Strict query: drain (over the [`spsc`](crate::spsc) rings), then
    /// merge the global top-k.
    ///
    /// # Errors
    /// [`RuntimeError::ShardsLost`] if any shard is lossy. For best-effort
    /// degraded answers use the [`SignificanceQuery`] impl instead.
    pub fn try_top_k(&self, k: usize) -> Result<Vec<Estimate>, RuntimeError> {
        self.sync()?;
        Ok(self.read_top_k(k))
    }

    fn read_estimate(&self, id: ItemId) -> Option<f64> {
        let shard = shard_of_id(id, self.shards.tables.len());
        self.shards
            .tables
            .get(shard)
            .and_then(|shard| lock_recover(shard).estimate(id))
    }

    fn read_top_k(&self, k: usize) -> Vec<Estimate> {
        let candidates: Vec<Estimate> = self
            .shards
            .tables
            .iter()
            .flat_map(|shard| lock_recover(shard).top_k(k))
            .collect();
        top_k_of(candidates, k)
    }

    /// The shard tables and period gate, for the checkpoint layer.
    pub(crate) fn shards(&self) -> &ShardSet {
        &self.shards
    }

    /// The flag a live durability service holds up (one per runtime).
    pub(crate) fn durability_flag(&self) -> &Arc<AtomicBool> {
        &self.durability
    }

    /// Router trace track plus the context of the most recent barrier
    /// span, for the checkpoint layer to parent its `checkpoint_save`
    /// span under (keeps save spans inside the batch's causal tree).
    pub(crate) fn trace_handle(&self) -> Option<(TraceTrack, Option<SpanCtx>)> {
        let inner = lock_recover(&self.inner);
        inner
            .trace
            .as_ref()
            .map(|t| (t.track.clone(), t.last_barrier))
    }

    /// After a checkpoint restore rewrote every shard table at period count
    /// `periods` (the restore drained the pipeline first, so every worker
    /// is idle): continue the runtime's count from it, reset each lane's
    /// health record (the operator restored on purpose, so lossy shards
    /// take records again with a full retry budget), and push each worker
    /// a full image of its restored table, so a later rollback lands on
    /// it. The image counts in `sent` but is not waited for; it reaches
    /// the worker before any later message.
    pub(crate) fn reset_after_restore(&mut self, periods: u64) {
        self.restores = self.restores.saturating_add(1);
        self.periods = periods;
        let lanes = &mut inner_mut(&mut self.inner).lanes;
        for (lane, table) in lanes.iter_mut().zip(&self.shards.tables) {
            *lock_recover(&lane.health) = LaneHealth::default();
            let image = lock_recover(table).rollback_image();
            lane.send(Msg::Restore(image));
        }
    }
}

/// `Err(ShardsLost)` iff any lane is lossy; the runtime remains usable.
/// Reads the lanes' health only once `degraded` is raised. A worker
/// raises it before it acknowledges the message it turned lossy on, so a
/// barrier that waited for that acknowledgement sees it.
fn runtime_result(lanes: &[Lane], degraded: &AtomicBool) -> Result<(), RuntimeError> {
    if !degraded.load(Ordering::Acquire) {
        return Ok(());
    }
    let faults: Vec<WorkerFault> = lanes
        .iter()
        .filter_map(|lane| lock_recover(&lane.health).lossy.clone())
        .collect();
    if faults.is_empty() {
        Ok(())
    } else {
        Err(RuntimeError::ShardsLost { faults })
    }
}

impl Drop for ParallelLtc {
    fn drop(&mut self) {
        // `into_sharded_lossy` already drained and joined (lanes emptied of
        // workers); otherwise stop each worker after its backlog.
        let inner = inner_mut(&mut self.inner);
        for lane in &mut inner.lanes {
            if lane.worker.is_some() {
                lane.send(Msg::Shutdown);
            }
        }
        for lane in &mut inner.lanes {
            if let Some(handle) = lane.worker.take() {
                let _ = handle.join();
            }
        }
    }
}

impl StreamProcessor for ParallelLtc {
    #[inline]
    fn insert(&mut self, id: ItemId) {
        ParallelLtc::insert(self, id);
    }

    fn end_period(&mut self) {
        // Best-effort: a degraded runtime still closes the period on
        // every shard; `health()` exposes the loss.
        let _ = ParallelLtc::end_period(self);
    }

    fn finish(&mut self) {
        let _ = ParallelLtc::finish(self);
    }

    fn name(&self) -> &'static str {
        "LTC-parallel"
    }
}

impl BatchStreamProcessor for ParallelLtc {
    #[inline]
    fn insert_batch(&mut self, ids: &[ItemId]) {
        ParallelLtc::insert_batch(self, ids);
    }
}

impl SignificanceQuery for ParallelLtc {
    fn estimate(&self, id: ItemId) -> Option<f64> {
        // Best-effort: serve the degraded view (lossy shards answer from
        // their last-good state).
        let _ = self.sync();
        self.read_estimate(id)
    }

    fn top_k(&self, k: usize) -> Vec<Estimate> {
        let _ = self.sync();
        self.read_top_k(k)
    }
}

impl MemoryUsage for ParallelLtc {
    fn memory_bytes(&self) -> usize {
        self.shards
            .tables
            .iter()
            .map(|shard| lock_recover(shard).memory_bytes())
            .sum()
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
    fn single_shard_roundtrip() {
        let mut p = ParallelLtc::new(config(), 1);
        for i in 0..500u64 {
            p.insert(i % 25);
        }
        p.end_period().unwrap();
        p.finish().unwrap();
        assert_eq!(p.top_k(5).len(), 5);
    }

    #[test]
    fn matches_sharded_ltc_exactly() {
        // The core equivalence: same records, same boundaries → every shard
        // bit-identical to the single-threaded ShardedLtc (compared via the
        // full Debug rendering, which covers cells, CLOCK and stats).
        let shards = 4;
        let mut reference = ShardedLtc::new(config(), shards);
        let mut parallel = ParallelLtc::with_batch_size(config(), shards, 16);
        for period in 0..5u64 {
            for i in 0..200u64 {
                let id = period * 7 + i * 3;
                reference.insert(id);
                parallel.insert(id);
            }
            reference.end_period();
            parallel.end_period().unwrap();
        }
        reference.finalize();
        parallel.finish().unwrap();
        let reassembled = parallel.into_sharded().unwrap();
        for s in 0..shards {
            assert_eq!(
                format!("{:?}", reference.shard(s)),
                format!("{:?}", reassembled.shard(s)),
                "shard {s} diverged"
            );
        }
    }

    #[test]
    fn queries_observe_all_prior_inserts() {
        let mut p = ParallelLtc::with_batch_size(config(), 3, 64);
        for _ in 0..10 {
            p.insert(42);
        }
        // 42's batch is still pending; the query must flush + drain first.
        assert_eq!(p.estimate(42), Some(10.0));
        assert_eq!(p.try_estimate(42).unwrap(), Some(10.0));
    }

    #[test]
    fn drop_without_finish_is_clean() {
        let mut p = ParallelLtc::new(config(), 2);
        for i in 0..100u64 {
            p.insert(i);
        }
        drop(p); // must not hang or leak threads
    }

    #[test]
    fn memory_sums_over_shards() {
        let p = ParallelLtc::new(config(), 3);
        assert_eq!(p.memory_bytes(), 3 * 32 * 4 * 16);
    }

    #[test]
    fn health_starts_clean() {
        let p = ParallelLtc::new(config(), 2);
        assert_eq!(
            p.health(),
            vec![
                ShardHealth::Healthy {
                    restarts: 0,
                    records_lost: 0,
                    last_fault_seq: None,
                };
                2
            ]
        );
        for h in p.health() {
            assert_eq!(h.restarts(), 0);
            assert_eq!(h.last_fault_seq(), None);
        }
    }

    #[test]
    fn fault_policy_is_exposed() {
        let policy = FaultPolicy {
            max_restarts: 7,
            ..FaultPolicy::default()
        };
        let p = ParallelLtc::with_fault_policy(config(), 2, 8, policy);
        assert_eq!(p.fault_policy().max_restarts, 7);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_rejected() {
        let _ = ParallelLtc::with_batch_size(config(), 2, 0);
    }

    #[test]
    fn worker_fault_displays_shard_kind_and_message() {
        let fault = WorkerFault {
            shard: 3,
            kind: FaultKind::Panic,
            message: "boom".to_string(),
        };
        assert_eq!(fault.to_string(), "shard 3 worker died (panic): boom");
        let err = RuntimeError::ShardsLost {
            faults: vec![fault],
        };
        assert!(err.to_string().contains("1 shard(s) lossy"));
        assert!(err
            .to_string()
            .contains("shard 3 worker died (panic): boom"));
    }

    #[test]
    fn fault_kinds_have_stable_names_and_codes() {
        assert_eq!(FaultKind::Panic.name(), "panic");
        assert_eq!(FaultKind::Panic.code(), 0);
        assert_eq!(FaultKind::Panic.to_string(), "panic");
    }

    #[test]
    fn observability_is_on_by_default_and_sees_traffic() {
        let mut p = ParallelLtc::with_batch_size(config(), 2, 16);
        for i in 0..300u64 {
            p.insert(i % 30);
        }
        p.end_period().unwrap();
        p.sync().unwrap();
        let obs = Arc::clone(p.obs().expect("default constructors enable obs"));
        let text = obs.render_prometheus();
        crate::obs::validate_exposition(&text).unwrap();
        assert!(
            text.contains("ltc_shard_records_total"),
            "per-shard record counters registered: {text}"
        );
        assert_eq!(obs.periods.get(), 1);
        // Both shards together saw all 300 records.
        let recorded: u64 = obs
            .registry()
            .snapshot()
            .into_iter()
            .filter(|f| f.name == "ltc_shard_records_total")
            .flat_map(|f| f.series)
            .map(|s| match s.value {
                crate::obs::MetricValue::Counter(v) => v,
                _ => 0,
            })
            .sum();
        assert_eq!(recorded, 300);
        // The barrier wait was measured at least twice (end_period + sync).
        assert!(obs.barrier_wait_ns.count() >= 2);
        // Rollover event is in the journal.
        let events = obs.journal().drain();
        assert!(events
            .iter()
            .any(|e| e.kind == crate::obs::EventKind::PeriodRollover));
    }

    #[test]
    fn observability_off_runs_without_metrics() {
        let mut p = ParallelLtc::with_observability(config(), 2, 16, FaultPolicy::default(), None);
        for i in 0..200u64 {
            p.insert(i);
        }
        p.end_period().unwrap();
        assert!(p.obs().is_none());
        assert_eq!(p.stats().inserts, 200, "stats work without obs");
    }

    #[test]
    fn stats_aggregate_across_shards_after_drain() {
        let mut p = ParallelLtc::with_batch_size(config(), 3, 32);
        for i in 0..500u64 {
            p.insert(i % 50);
        }
        p.end_period().unwrap();
        // 500 routed records are visible even though batches were pending
        // when stats() was called (it drains first).
        let stats = p.stats();
        assert_eq!(stats.inserts, 500);
        assert_eq!(stats.periods, 1);
        // Sharded reference sees identical merged counters.
        let reference = {
            let mut r = ShardedLtc::new(config(), 3);
            for i in 0..500u64 {
                r.insert(i % 50);
            }
            r.end_period();
            r.stats()
        };
        assert_eq!(stats, reference);
    }

    #[test]
    fn shared_registry_aggregates_two_runtimes() {
        let obs = Arc::new(RuntimeObs::new());
        let mut a = ParallelLtc::with_observability(
            config(),
            1,
            8,
            FaultPolicy::default(),
            Some(Arc::clone(&obs)),
        );
        let mut b = ParallelLtc::with_observability(
            config(),
            1,
            8,
            FaultPolicy::default(),
            Some(Arc::clone(&obs)),
        );
        for i in 0..64u64 {
            a.insert(i);
            b.insert(i);
        }
        a.sync().unwrap();
        b.sync().unwrap();
        let text = obs.render_prometheus();
        crate::obs::validate_exposition(&text).unwrap();
        assert!(text.contains("ltc_shard_records_total{shard=\"0\"} 128"));
    }
}
