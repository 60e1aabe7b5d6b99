//! Model-checks the event journal (`src/obs/journal.rs`, a bounded
//! `VecDeque` behind one `shim::Mutex`) under the vendored loom explorer.
//! Its publishers are the runtime's owner thread, the durability thread
//! and the shard workers (fault, rollback and degradation events), and a
//! drainer may run beside them; every lock order between them is a
//! scheduler decision here.
//!
//! What the models prove per interleaving:
//!
//! * **Seq acquisition is exactly-once**: concurrent publishers never
//!   share a seq; published seqs are distinct and contiguous from 0 (a
//!   dropped event takes no seq, so drops leave no gap).
//! * **Popped payloads are what the publisher wrote**: a pop concurrent
//!   with a publish sees either nothing or the whole event.
//! * **Drop-newest on overflow**: with more publishes than capacity and no
//!   drain, exactly `capacity` events publish and the rest are counted in
//!   `dropped()`, never silently lost.
//! * **Monotonic drain**: a single drainer observes strictly increasing
//!   seqs, including when pops free room for later publishes.
//!
//! Run with: `cargo test -p ltc-core --features loom-check --test loom_journal`
#![cfg(feature = "loom-check")]

use loom::sync::Arc;
use ltc_core::obs::{EventJournal, EventKind};

/// Explore `f` with a budget sized for weak-memory reads-from branching
/// (the default 20k interleavings is not enough to exhaust these models).
fn explore<F>(f: F) -> loom::Report
where
    F: Fn() + Send + Sync + 'static,
{
    let mut builder = loom::Builder::new();
    builder.max_interleavings = 4_000_000;
    let report = builder.check(f);
    assert!(report.complete, "bounded schedule space must be exhausted");
    report
}

#[test]
fn concurrent_publishers_claim_distinct_contiguous_seqs() {
    explore(|| {
        let j = Arc::new(EventJournal::with_capacity(4));
        let publisher = {
            let j = Arc::clone(&j);
            loom::thread::spawn(move || j.publish(EventKind::WorkerFault, Some(0), 1))
        };
        let mine = j.publish(EventKind::Rollback, Some(1), 2);
        let theirs = publisher.join().unwrap();
        // Capacity 4 with two claims: neither publish can even spuriously
        // observe a full ring (stamps never lag a full lap), so both land.
        let (mine, theirs) = (mine.unwrap(), theirs.unwrap());
        assert_ne!(mine, theirs, "claim positions are exactly-once");
        let mut seqs = [mine, theirs];
        seqs.sort_unstable();
        assert_eq!(seqs, [0, 1], "seqs are contiguous from 0");
        assert_eq!(j.dropped(), 0);
        // Main joined both publishers: the drain sees exactly both events,
        // oldest first.
        let drained: Vec<u64> = j.drain().iter().map(|e| e.seq).collect();
        assert_eq!(drained, vec![0, 1]);
    });
}

#[test]
fn popped_payloads_are_exactly_what_the_publisher_wrote() {
    explore(|| {
        let j = Arc::new(EventJournal::with_capacity(2));
        let publisher = {
            let j = Arc::clone(&j);
            loom::thread::spawn(move || {
                assert_eq!(j.publish(EventKind::WorkerFault, Some(3), 42), Some(0));
            })
        };
        // Concurrent pop: None (not yet published) is legal; Some must
        // carry the full payload — the stamp acquire orders the Relaxed
        // payload reads after the publisher's writes, and the weak
        // explorer would produce a stale word if that edge were missing.
        let early = j.pop();
        publisher.join().unwrap();
        let late = j.pop();
        let event = early.or(late).expect("published event must be drainable");
        assert_eq!(event.seq, 0);
        assert_eq!(event.kind, EventKind::WorkerFault);
        assert_eq!(event.shard, Some(3));
        assert_eq!(event.detail, 42);
        assert!(j.pop().is_none(), "exactly one event was published");
    });
}

#[test]
fn overflow_drops_the_newest_and_counts_it() {
    explore(|| {
        let j = Arc::new(EventJournal::with_capacity(2));
        let publisher = {
            let j = Arc::clone(&j);
            loom::thread::spawn(move || {
                let a = j.publish(EventKind::PeriodRollover, None, 0).is_some();
                let b = j.publish(EventKind::PeriodRollover, None, 1).is_some();
                (a, b)
            })
        };
        let c = j.publish(EventKind::WorkerFault, None, 2).is_some();
        let (a, b) = publisher.join().unwrap();
        // Three claims race for two slots with no drain: exactly two
        // publish (in some order) and the third is dropped-newest, counted,
        // and leaves no seq gap.
        let published = [a, b, c].iter().filter(|&&ok| ok).count();
        assert_eq!(published, 2, "capacity bounds successful publishes");
        assert_eq!(j.dropped(), 1, "the refused event is counted");
        let drained: Vec<u64> = j.drain().iter().map(|e| e.seq).collect();
        assert_eq!(drained, vec![0, 1], "no gap from the dropped event");
    });
}

#[test]
fn slot_recycling_keeps_seqs_monotonic_across_laps() {
    explore(|| {
        let j = Arc::new(EventJournal::with_capacity(2));
        let publisher = {
            let j = Arc::clone(&j);
            loom::thread::spawn(move || {
                // Three events through a 2-slot ring: the third reuses a
                // recycled slot if (and only if) the drainer has freed it.
                (0..3)
                    .filter(|&i| j.publish(EventKind::Rollback, None, i).is_some())
                    .count()
            })
        };
        // Concurrent bounded drain: each pop may legally miss (empty or
        // stale position), but whatever it returns must be monotonic.
        let mut seen: Vec<u64> = Vec::new();
        for _ in 0..3 {
            if let Some(event) = j.pop() {
                seen.push(event.seq);
            }
        }
        let published = publisher.join().unwrap();
        seen.extend(j.drain().iter().map(|e| e.seq));
        assert!(
            seen.windows(2).all(|w| w[1] > w[0]),
            "single drainer must see strictly increasing seqs: {seen:?}"
        );
        assert_eq!(
            seen.len(),
            published,
            "every published event is drained exactly once"
        );
        // Claims are contiguous: the drained seqs are exactly 0..published.
        assert_eq!(seen, (0..published as u64).collect::<Vec<_>>());
    });
}

#[test]
fn journal_exploration_is_deterministic() {
    let run = || {
        explore(|| {
            let j = Arc::new(EventJournal::with_capacity(2));
            let publisher = {
                let j = Arc::clone(&j);
                loom::thread::spawn(move || {
                    j.publish(EventKind::Degradation, Some(1), 5);
                })
            };
            let _ = j.pop();
            publisher.join().unwrap();
        })
    };
    let (first, second) = (run(), run());
    assert_eq!(first.interleavings, second.interleavings);
    assert_eq!(first.complete, second.complete);
}
