//! Model-checks the unsafe SPSC ring (`src/spsc.rs`) under the vendored
//! loom explorer: every bounded interleaving of a producer and a consumer
//! is executed, with vector-clock race detection on the slot `UnsafeCell`s
//! and deadlock detection on the parking protocol.
//!
//! What the explorer proves per interleaving:
//!
//! * **No uninitialised read**: reading a slot before the producer's write
//!   happens-before it would be flagged as a data race (the read would not
//!   be ordered after the write).
//! * **No lost or duplicated items**: the popped sequence equals the
//!   pushed sequence exactly, asserted in the model closure.
//! * **No lost wakeups**: a parked side that is never woken makes every
//!   live thread blocked, which the explorer reports as a deadlock.
//!
//! Run with: `cargo test -p ltc-core --features loom-check --test loom_spsc`
#![cfg(feature = "loom-check")]

use loom::sync::Arc;
use ltc_core::SpscRing;

/// Exchange `count` items through a ring of `capacity`, checking order and
/// exactness in every interleaving. `base` positions the cursors (e.g.
/// just below `usize::MAX` to cross wraparound mid-model).
///
/// Weak-memory value exploration multiplies the schedule space by the
/// reads-from choices, so the exchange models need a bigger interleaving
/// budget than the default 20k to stay exhaustive.
fn exchange(capacity: usize, count: u32, base: usize) -> loom::Report {
    let mut builder = loom::Builder::new();
    builder.max_interleavings = 2_000_000;
    builder.check(move || {
        let ring = Arc::new(SpscRing::with_capacity_and_base(capacity, base));
        let producer = {
            let ring = Arc::clone(&ring);
            loom::thread::spawn(move || {
                for v in 0..count {
                    assert!(ring.push(v), "un-poisoned push must be accepted");
                }
            })
        };
        for expect in 0..count {
            assert_eq!(
                ring.pop(),
                Some(expect),
                "item lost, duplicated or reordered"
            );
        }
        assert!(ring.try_pop().is_none(), "phantom item after the stream");
        producer.join().unwrap();
    })
}

#[test]
fn spsc_exchange_is_exact_under_all_interleavings() {
    let report = exchange(2, 3, 0);
    assert!(report.complete, "bounded schedule space must be exhausted");
    assert!(
        report.interleavings >= 100,
        "expected a substantive exploration, got {} interleavings",
        report.interleavings
    );
}

#[test]
fn spsc_capacity_one_forces_the_full_parking_protocol() {
    // Every push after the first must park (ring full) and every pop races
    // the producer's wakeup — maximal coverage of the Dekker handshake.
    let report = exchange(1, 3, 0);
    assert!(report.complete);
    assert!(
        report.interleavings >= 100,
        "expected a substantive exploration, got {} interleavings",
        report.interleavings
    );
}

#[test]
fn spsc_survives_cursor_wraparound_under_model() {
    // Cursors start 1 below usize::MAX: they wrap during the exchange, so
    // the masked indexing and wrapping length arithmetic are both model-
    // checked across the discontinuity.
    let report = exchange(2, 3, usize::MAX - 1);
    assert!(report.complete);
    assert!(report.interleavings >= 100);
}

#[test]
fn spsc_exploration_is_deterministic() {
    let first = exchange(2, 2, 0);
    let second = exchange(2, 2, 0);
    assert_eq!(first.interleavings, second.interleavings);
    assert_eq!(first.complete, second.complete);
}

#[test]
fn spsc_drop_with_items_in_flight_is_clean_in_model() {
    // Dropping a non-empty ring must drop exactly the undelivered items —
    // in every interleaving of a producer that may still be mid-push.
    let report = loom::model(|| {
        let ring = Arc::new(SpscRing::with_capacity(2));
        let producer = {
            let ring = Arc::clone(&ring);
            loom::thread::spawn(move || {
                assert!(ring.push(Box::new(1u32)));
                assert!(ring.push(Box::new(2u32)));
            })
        };
        let first = ring.pop().expect("producer publishes at least one");
        assert_eq!(*first, 1);
        producer.join().unwrap();
        drop(ring); // second item still queued; leak/double-free would fail
    });
    assert!(report.complete);
}

#[test]
fn poison_releases_a_parked_producer_in_every_interleaving() {
    // The closing path: the consumer stops (poisons) instead of popping
    // while the producer may be parked on a full ring. In every
    // interleaving the producer must return — a missed poison wakeup
    // strands it and surfaces as a loom deadlock report.
    let report = loom::model(|| {
        let ring = Arc::new(SpscRing::with_capacity(1));
        let producer = {
            let ring = Arc::clone(&ring);
            loom::thread::spawn(move || {
                // First push fills the ring; later pushes either park
                // until the poison lands or observe it up front.
                let first = ring.push(1u32);
                let second = ring.push(2u32);
                (first, second)
            })
        };
        ring.poison();
        let (first, second) = producer.join().unwrap();
        assert!(!second, "nothing is accepted after the poison verdict");
        // The first push raced the poison: either outcome is legal, but a
        // rejected first push implies the backlog is empty.
        if !first {
            assert!(ring.try_pop().is_none());
        }
    });
    assert!(report.complete, "bounded schedule space must be exhausted");
    assert!(report.interleavings > 1);
}

#[test]
fn poison_releases_a_parked_consumer_and_keeps_the_backlog() {
    // Dual direction: the consumer may be parked on an empty ring when the
    // producer pushes once and stops (poisons). The consumer must get the
    // queued item first and the poison verdict second — never a lost item,
    // never a permanent sleep.
    let report = loom::model(|| {
        let ring = Arc::new(SpscRing::<u32>::with_capacity(2));
        let producer = {
            let ring = Arc::clone(&ring);
            loom::thread::spawn(move || {
                assert!(ring.push(7));
                ring.poison();
            })
        };
        assert_eq!(ring.pop(), Some(7), "backlog survives the poison");
        assert_eq!(ring.pop(), None, "then the verdict is delivered");
        producer.join().unwrap();
    });
    assert!(report.complete);
    assert!(report.interleavings > 1);
}
