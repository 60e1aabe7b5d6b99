//! Model-checks the epoch-barrier acknowledgment protocol of
//! [`ltc_core::pipeline::Progress`] — the counter+condvar pair through
//! which `ParallelLtc::end_period` waits for every shard worker.
//!
//! The property: `end_period` is a **true barrier**. No shard may observe
//! period N+1 work before every shard has acknowledged finishing period N,
//! and a worker's bump must never be missed by a waiting router (a lost
//! wakeup would strand the router forever — reported by the explorer as a
//! deadlock). A worker acknowledges every message, faulting or not (it
//! recovers on its own thread), so the wait needs no other way out.
//!
//! Run with: `cargo test -p ltc-core --features loom-check --test loom_barrier`
#![cfg(feature = "loom-check")]

use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::Arc;
use ltc_core::pipeline::Progress;

#[test]
fn no_shard_observes_the_next_period_before_all_acked() {
    // Two workers finish period 1 and ack via their Progress counters;
    // the router advances the period marker only after waiting on both.
    // If wait_for could return before the bump, some interleaving would
    // have a worker observe period == 2 while still inside period 1.
    let report = loom::model(|| {
        let period = Arc::new(AtomicUsize::new(1));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let progress = Arc::new(Progress::new());
                let thread = {
                    let progress = Arc::clone(&progress);
                    let period = Arc::clone(&period);
                    loom::thread::spawn(move || {
                        // ... period-1 work happens here ...
                        assert_eq!(
                            period.load(Ordering::SeqCst),
                            1,
                            "worker saw period 2 before the barrier released"
                        );
                        progress.bump();
                    })
                };
                (progress, thread)
            })
            .collect();
        for (progress, _) in &workers {
            progress.wait_for(1);
        }
        // Barrier passed: only now may the next period begin.
        period.store(2, Ordering::SeqCst);
        for (_, thread) in workers {
            thread.join().unwrap();
        }
    });
    assert!(report.complete, "bounded schedule space must be exhausted");
    assert!(
        report.interleavings >= 100,
        "expected a substantive exploration, got {} interleavings",
        report.interleavings
    );
}

#[test]
fn wait_for_never_misses_a_bump() {
    // The worker may bump before, during, or after the router starts
    // waiting; in every interleaving the router must come back. A lost
    // wakeup would leave every live thread blocked → deadlock report.
    let report = loom::model(|| {
        let progress = Arc::new(Progress::new());
        let worker = {
            let progress = Arc::clone(&progress);
            loom::thread::spawn(move || {
                progress.bump();
                progress.bump();
            })
        };
        progress.wait_for(2);
        worker.join().unwrap();
    });
    assert!(report.complete);
    assert!(report.interleavings > 1);
}

#[test]
fn barrier_exploration_is_deterministic() {
    let run = || {
        loom::model(|| {
            let progress = Arc::new(Progress::new());
            let worker = {
                let progress = Arc::clone(&progress);
                loom::thread::spawn(move || progress.bump())
            };
            progress.wait_for(1);
            worker.join().unwrap();
        })
    };
    let first = run();
    let second = run();
    assert_eq!(first.interleavings, second.interleavings);
}

#[test]
#[should_panic(expected = "deadlock")]
fn a_barrier_without_recheck_under_lock_is_caught() {
    // Regression guard for the checker itself: a barrier that checks the
    // counter in one critical section and waits in another (instead of
    // Progress's check-under-the-same-lock loop) races the worker's
    // notify. The explorer must find the interleaving where the notify
    // lands between check and wait and report the stranded router as a
    // deadlock.
    use loom::sync::{Condvar, Mutex};
    loom::model(|| {
        let state = Arc::new((Mutex::new(0u64), Condvar::new()));
        let worker = {
            let state = Arc::clone(&state);
            loom::thread::spawn(move || {
                let mut done = state.0.lock().unwrap();
                *done += 1;
                drop(done);
                state.1.notify_all();
            })
        };
        let behind = { *state.0.lock().unwrap() < 1 };
        if behind {
            let guard = state.0.lock().unwrap();
            // BUG: the ack may have landed since the check above.
            let _guard = state.1.wait(guard).unwrap();
        }
        worker.join().unwrap();
    });
}
