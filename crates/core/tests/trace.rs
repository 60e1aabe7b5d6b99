//! Integration tests for span tracing: a streamed workload plus a
//! checkpoint must drain as a single causal tree (enqueue → worker
//! process → barrier-wait → checkpoint-publish) stitched across the SPSC
//! ring boundary, the Chrome trace-event rendering must validate
//! structurally, and a runtime built without tracing must record nothing.
//!
//! The failpoint module (`--features failpoints`) pins the fault story:
//! a seeded worker panic mid-period yields a `worker_fault` span
//! *parented under the batch span that died*, and the next health audit
//! raises the rollback drift flag.

use ltc_common::Weights;
use ltc_core::checkpoint::Checkpointer;
use ltc_core::obs::trace::names;
use ltc_core::obs::trace_export::single_causal_tree;
use ltc_core::obs::{render_chrome_trace, render_folded, validate_chrome_trace, RuntimeObs};
use ltc_core::{FaultPolicy, LtcConfig, ParallelLtc};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn config() -> LtcConfig {
    LtcConfig::builder()
        .buckets(64)
        .cells_per_bucket(4)
        .weights(Weights::BALANCED)
        .records_per_period(1_000)
        .seed(21)
        .build()
}

/// Unique scratch directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("ltc-trace-{}-{tag}", std::process::id()));
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

#[test]
fn batch_spans_form_one_causal_tree_through_the_checkpoint() {
    let scratch = ScratchDir::new("tree");
    let mut p = ParallelLtc::new(config(), 2);
    for i in 0..2_000u64 {
        p.insert(i % 50);
    }
    p.end_period().expect("healthy runtime");
    let store = Checkpointer::new(scratch.path()).expect("checkpointer");
    p.checkpoint_to(&store).expect("checkpoint");

    let obs = p.obs().expect("obs on by default");
    let spans = obs.drain_spans();
    assert!(!spans.is_empty(), "a streamed workload must record spans");
    // The acceptance property: at least one batch's enqueue, worker-side
    // process, barrier wait and checkpoint publish share one trace with
    // exactly one root and fully-resolving parents.
    let trace_id = single_causal_tree(
        &spans,
        &[
            names::BATCH_ENQUEUE,
            names::BATCH_PROCESS,
            names::BARRIER_WAIT,
            names::CHECKPOINT_SAVE,
        ],
    )
    .expect("one batch forms a causal tree through the checkpoint");
    // The tree's root is the enqueue span (the producer side), proving the
    // context crossed the SPSC boundary rather than re-rooting per thread.
    let root = spans
        .iter()
        .find(|s| s.trace_id == trace_id && s.parent_id == 0)
        .expect("root span");
    assert_eq!(root.name, names::BATCH_ENQUEUE, "tree roots at the enqueue");
}

#[test]
fn chrome_trace_and_folded_renderings_validate() {
    let mut p = ParallelLtc::new(config(), 2);
    for i in 0..2_000u64 {
        p.insert(i % 50);
    }
    p.end_period().expect("healthy runtime");
    let obs = p.obs().expect("obs on by default");
    let tracer = obs.tracer().expect("tracing on by default");
    let spans = obs.drain_spans();
    let chrome = render_chrome_trace(&spans, &tracer.tracks());
    validate_chrome_trace(&chrome).expect("chrome trace must be structurally valid");
    let folded = render_folded(&spans);
    assert!(
        folded.lines().any(|l| l.contains("batch_process")),
        "folded stacks name the worker apply frames:\n{folded}"
    );
    // Every folded line is `stack count`.
    for line in folded.lines() {
        let (_, count) = line.rsplit_once(' ').expect("stack and count");
        count.parse::<u64>().expect("folded count is integral");
    }
}

#[test]
fn without_tracing_runtime_records_no_spans() {
    let obs = Arc::new(RuntimeObs::without_tracing());
    let mut p = ParallelLtc::with_observability(
        config(),
        2,
        64,
        FaultPolicy::default(),
        Some(Arc::clone(&obs)),
    );
    for i in 0..1_000u64 {
        p.insert(i % 50);
    }
    p.end_period().expect("healthy runtime");
    assert!(obs.tracer().is_none(), "tracing disabled");
    assert!(obs.drain_spans().is_empty(), "no spans recorded");
    // Metrics still work without the tracer.
    assert!(obs.render_prometheus().contains("ltc_periods_total 1\n"));
}

/// Seeded-fault scenarios; the failpoint registry is process-global, so
/// these run single-threaded within the module via a scenario lock.
#[cfg(feature = "failpoints")]
mod failpoints {
    use super::*;
    use ltc_core::failpoint::{self, FailAction, FireSpec};
    use ltc_core::obs::EventKind;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    fn scenario() -> MutexGuard<'static, ()> {
        static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
        let guard = match GUARD.get_or_init(|| Mutex::new(())).lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        failpoint::clear();
        guard
    }

    #[test]
    fn seeded_panic_parents_the_fault_span_and_raises_the_drift_flag() {
        let _guard = scenario();
        let mut p = ParallelLtc::with_fault_policy(config(), 2, 8, FaultPolicy::no_backoff());
        // A clean first period establishes the audit baseline (and each
        // shard's rollback checkpoint).
        for i in 0..1_000u64 {
            p.insert(i % 50);
        }
        p.end_period().expect("healthy runtime");
        // Seed the fault: the next batch any worker applies panics; that
        // worker rolls its shard back and carries on.
        failpoint::configure("worker::batch", FailAction::Panic, FireSpec::once());
        for i in 0..1_000u64 {
            p.insert(i % 50);
        }
        p.end_period().expect("the worker absorbed the panic");
        failpoint::clear();

        let obs = p.obs().expect("obs on by default").clone();
        let spans = obs.drain_spans();
        // The fault span is causally linked: a zero-duration worker_fault
        // event parented under the batch-process span that died, in that
        // batch's trace.
        let fault = spans
            .iter()
            .find(|s| s.name == names::WORKER_FAULT)
            .expect("fault span recorded");
        assert_ne!(fault.parent_id, 0, "fault span must have a parent");
        let parent = spans
            .iter()
            .find(|s| s.span_id == fault.parent_id)
            .expect("fault parent span present in the drain");
        assert_eq!(
            parent.name,
            names::BATCH_PROCESS,
            "fault parents under the batch span that died"
        );
        assert_eq!(fault.trace_id, parent.trace_id, "same causal tree");

        // The second period's health report flags the induced rollback
        // (drift bit 1).
        let events = obs.journal().drain();
        let reports: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == EventKind::HealthReport)
            .map(|e| e.detail)
            .collect();
        assert_eq!(reports.len(), 2, "one report per period: {events:?}");
        assert_eq!(
            reports[1] & 1,
            1,
            "rollback drift flag fires on the faulted period: {reports:?}"
        );
        p.finish().expect("healthy after recovery");
    }
}
