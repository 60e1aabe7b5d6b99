//! Bounded hand-off queues for the parallel pipeline.
//!
//! [`SpscRing`] is the rendezvous between the routing thread and one worker
//! of [`crate::pipeline::ParallelLtc`]: a bounded FIFO ring buffer used
//! single-producer/single-consumer. The bound is the pipeline's
//! backpressure: when a worker falls behind, [`push`](SpscRing::push)
//! blocks the router instead of queueing unbounded memory.
//!
//! The ring is a fixed array of [`MaybeUninit`] slots addressed by two
//! monotonically increasing (wrapping) cursors. The common case — space to
//! push, an item to pop — is lock-free: one atomic load, a slot move, one
//! atomic store. Only the empty/full edges take a mutex, to park on a
//! condvar until the peer makes progress.
//!
//! ## Memory-ordering protocol (verified by `tests/loom_spsc.rs`)
//!
//! * **Data publication** is release/acquire on the cursors: the producer's
//!   slot write is published by its `tail` store, and the consumer reads
//!   the slot only after an acquiring load of `tail`; slot *reuse* is gated
//!   symmetrically on `head`. Weakening either to `Relaxed` makes the loom
//!   model report a data race on the slot `UnsafeCell`.
//! * **Parking** is a Dekker handshake on the `waiting` flag word: the
//!   sleeper sets its bit (`SeqCst` RMW) and then re-reads the cursor
//!   (`SeqCst`); the waker stores the cursor (`SeqCst`, which is why those
//!   stores are not merely `Release`) and then reads `waiting` (`SeqCst`).
//!   The single total order of `SeqCst` operations means the two sides
//!   cannot both miss each other.
//! * The residual window — waker reads `waiting` before the sleeper's RMW,
//!   while the sleeper has checked but not yet slept — is closed by the
//!   sleep mutex: the sleeper re-checks the cursor *under the mutex*, and
//!   the waker locks and unlocks that mutex before notifying. Dropping any
//!   of these steps shows up in the loom model as a deadlock (lost
//!   wakeup).
//!
//! Slot storage is rounded up to a power of two and indexed as
//! `cursor & mask`, so cursor arithmetic stays correct across `usize`
//! wraparound (`wrapping_sub` for length, masked indexing for position).
//!
//! ## Poisoning (closing a ring)
//!
//! A side that stops for good would otherwise strand its peer parked in
//! [`push`](SpscRing::push) or [`pop`](SpscRing::pop) forever.
//! [`poison`](SpscRing::poison) closes the ring and wakes both sides:
//! `push` then refuses the item (returning `false`) and `pop` returns
//! `None` once the queued backlog is delivered. A producer that is done
//! closes its ring this way to end the consumer's loop. The pipeline never
//! poisons a lane's ring: its workers recover from their own faults and
//! leave only on a `Shutdown` message.

// The SPSC ring is allowed to use `unsafe` (raw slot storage); every block
// carries a SAFETY comment and the whole protocol is model-checked in
// `tests/loom_spsc.rs`. `cargo run -p xtask -- lint` enforces that the
// unsafe allowlist does not silently grow.
#![allow(unsafe_code)]

use crate::obs::Counter;
use crate::shim::atomic::{AtomicUsize, Ordering};
use crate::shim::{Condvar, Mutex, MutexGuard, UnsafeCell};
use std::mem::MaybeUninit;

/// Seeded-weakening seams for the loom refutation tests
/// (`tests/loom_weakening.rs`).
///
/// Each [`Point`](seam::Point) names one ordering-critical store in the
/// ring protocol. In production builds [`publish`](seam::publish) is a
/// compile-time identity — the declared `Ordering` token stays in the
/// call site, so the static
/// `ordering_protocol` lint still checks the real ordering. Under
/// `--features loom-check` a test can *demote* a point to `Release`,
/// seeding exactly the ordering bug the weak-memory explorer must refute
/// (and the SC-value explorer provably cannot see).
#[doc(hidden)]
pub mod seam {
    use super::Ordering;

    /// An ordering-critical store that can be weakened under test.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Point {
        /// `tail.store(…, SeqCst)` in `push` — the producer's publish,
        /// which doubles as its half of the Dekker handshake.
        TailPublish,
        /// `head.store(…, SeqCst)` in `take` — the consumer's slot
        /// release, the mirror half of the handshake.
        HeadPublish,
    }

    #[cfg(feature = "loom-check")]
    mod knobs {
        use std::sync::atomic::AtomicBool;

        // ordering: load=SeqCst, store=SeqCst -- test-only knob, read per publish under loom; strongest ordering is the cheapest correct choice
        pub static TAIL_PUBLISH: AtomicBool = AtomicBool::new(false);
        // ordering: load=SeqCst, store=SeqCst -- test-only knob, read per publish under loom; strongest ordering is the cheapest correct choice
        pub static HEAD_PUBLISH: AtomicBool = AtomicBool::new(false);
    }

    #[cfg(feature = "loom-check")]
    fn knob(point: Point) -> &'static std::sync::atomic::AtomicBool {
        match point {
            Point::TailPublish => &knobs::TAIL_PUBLISH,
            Point::HeadPublish => &knobs::HEAD_PUBLISH,
        }
    }

    /// Demote `point` from its declared ordering to `Release` (`on`) or
    /// restore it (`off`). Process-global: weakening tests serialize on a
    /// lock and restore the knob before releasing it.
    #[cfg(feature = "loom-check")]
    pub fn demote(point: Point, on: bool) {
        knob(point).store(on, std::sync::atomic::Ordering::SeqCst);
    }

    /// The ordering actually used at `point`: the declared one, unless a
    /// weakening test demoted it.
    #[cfg(feature = "loom-check")]
    #[inline]
    pub fn publish(point: Point, declared: Ordering) -> Ordering {
        if knob(point).load(std::sync::atomic::Ordering::SeqCst) {
            Ordering::Release
        } else {
            declared
        }
    }

    /// Production builds: the declared ordering, verbatim.
    #[cfg(not(feature = "loom-check"))]
    #[inline(always)]
    pub fn publish(_point: Point, declared: Ordering) -> Ordering {
        declared
    }
}

/// Bit in [`SpscRing::waiting`]: the consumer is parked (or about to park)
/// waiting for `not_empty`.
const CONSUMER_PARKED: usize = 1;
/// Bit in [`SpscRing::waiting`]: the producer is parked (or about to park)
/// waiting for `not_full`.
const PRODUCER_PARKED: usize = 2;
/// Bit in [`SpscRing::waiting`]: the ring is poisoned (closed for good);
/// no message will ever be accepted again.
const POISONED: usize = 4;

/// Largest capacity whose slot count (next power of two) fits in `usize`.
const MAX_CAPACITY: usize = (usize::MAX >> 1) + 1;

/// A bounded FIFO hand-off queue. See the module docs for the concurrency
/// protocol; the type is safe for exactly one producer thread and one
/// consumer thread at a time (the pipeline's usage), which is what the
/// loom model checks.
pub struct SpscRing<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// `slots.len() - 1`, with `slots.len()` a power of two.
    mask: usize,
    capacity: usize,
    /// Next cursor to pop; written only by the consumer.
    // ordering: load=Acquire, store=SeqCst -- producer acquires published slots; the SeqCst store is the consumer's half of the Dekker handshake (audit: Release loses the store/park total order and strands a parked producer)
    head: AtomicUsize,
    /// Next cursor to push; written only by the producer.
    // ordering: load=Acquire, store=SeqCst -- consumer acquires published items; the SeqCst store is the producer's half of the Dekker handshake (audit: Release loses the store/park total order and strands a parked consumer)
    tail: AtomicUsize,
    /// Dekker flag word: which sides are parked ([`CONSUMER_PARKED`] /
    /// [`PRODUCER_PARKED`]).
    // ordering: load=SeqCst, store=SeqCst, rmw=SeqCst -- every access participates in the Dekker total order against the cursor publishes; nothing here may be weakened in isolation
    waiting: AtomicUsize,
    sleep: Mutex<()>,
    not_empty: Condvar,
    not_full: Condvar,
    /// Optional backpressure metric: bumped (wait-free, slow path only)
    /// each time the producer parks because the ring is full.
    stalls: Option<Counter>,
}

// SAFETY: the cursor protocol in the module docs makes every slot access
// exclusive-by-construction (producer writes only vacant slots at `tail`,
// consumer reads only published slots at `head`, each cursor has a single
// writer), and the loom model in `tests/loom_spsc.rs` verifies exactly
// that on every explored interleaving. `T: Send` suffices because values
// only move between threads, they are never aliased.
unsafe impl<T: Send> Send for SpscRing<T> {}
// SAFETY: see the `Send` impl above.
unsafe impl<T: Send> Sync for SpscRing<T> {}

impl<T> SpscRing<T> {
    /// A ring holding at most `capacity` messages.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_base(capacity, 0)
    }

    /// Test seam: a ring whose cursors start at `base` instead of 0, so
    /// unit tests can exercise `usize` cursor wraparound in a few pushes
    /// instead of 2^64 of them. Not part of the public contract.
    #[doc(hidden)]
    pub fn with_capacity_and_base(capacity: usize, base: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        assert!(capacity <= MAX_CAPACITY, "ring capacity too large");
        let len = capacity.next_power_of_two();
        let slots: Vec<UnsafeCell<MaybeUninit<T>>> = (0..len)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        Self {
            slots: slots.into_boxed_slice(),
            mask: len.wrapping_sub(1),
            capacity,
            head: AtomicUsize::new(base),
            tail: AtomicUsize::new(base),
            waiting: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            stalls: None,
        }
    }

    /// Attach a backpressure counter: each producer park on a full ring
    /// bumps it once. Builder-style, meant for construction time (the
    /// counter handle is a shared cell from [`crate::obs`]); the increment
    /// sits on the park slow path only, never on the lock-free fast path.
    #[must_use]
    pub fn with_stall_counter(mut self, stalls: Counter) -> Self {
        self.stalls = Some(stalls);
        self
    }

    /// Maximum number of queued messages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Messages currently queued (a racy snapshot when the peer is live).
    pub fn len(&self) -> usize {
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Acquire);
        tail.wrapping_sub(head).min(self.capacity)
    }

    /// Whether the ring is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The physical slot for logical cursor `seq`. In range by
    /// construction: `mask == slots.len() - 1` with a power-of-two length.
    fn slot(&self, seq: usize) -> &UnsafeCell<MaybeUninit<T>> {
        &self.slots[seq & self.mask] // lint: index-ok (masked by slots.len() - 1)
    }

    fn sleep_lock(&self) -> MutexGuard<'_, ()> {
        // lint:allow(hot_path_purity): backpressure park path — push/pop
        // block by contract when the ring is full/empty; the fast path
        // never takes this lock (Dekker flag checked first)
        match self.sleep.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Lock-then-unlock-then-notify: the lock round-trip orders this wake
    /// after any sleeper's recheck-under-mutex, closing the lost-wakeup
    /// window (module docs, bullet 3).
    fn wake(&self, condvar: &Condvar) {
        drop(self.sleep_lock());
        condvar.notify_one();
    }

    /// Enqueue, blocking while the ring is full (backpressure). Returns
    /// `true` once the message is queued; `false` if the ring is poisoned
    /// (the item is dropped — nobody will ever read it).
    pub fn push(&self, item: T) -> bool {
        // Only the producer writes `tail`, so this plain read is exact.
        // lint:allow(no_relaxed, ordering_protocol): single-writer cursor reading its own writes
        let tail = self.tail.load(Ordering::Relaxed);
        // Deterministic queue-full stall (tests only): force one pass
        // through the park bookkeeping — Dekker flag plus
        // recheck-under-mutex — even when the ring has space.
        let mut forced_slow = matches!(
            crate::failpoint::io_fault("spsc::push"),
            Some(crate::failpoint::FailAction::Stall)
        );
        loop {
            if self.waiting.load(Ordering::SeqCst) & POISONED != 0 {
                return false;
            }
            let head = self.head.load(Ordering::Acquire);
            if tail.wrapping_sub(head) < self.capacity && !forced_slow {
                break;
            }
            forced_slow = false;
            // Backpressure observed: count the stall (wait-free; we are
            // about to park anyway, so this is never on the fast path).
            if let Some(stalls) = &self.stalls {
                stalls.inc();
            }
            // Full: park. Dekker flag first, then recheck under the mutex.
            self.waiting.fetch_or(PRODUCER_PARKED, Ordering::SeqCst);
            let guard = self.sleep_lock();
            if self.waiting.load(Ordering::SeqCst) & POISONED == 0
                && tail.wrapping_sub(self.head.load(Ordering::SeqCst)) >= self.capacity
            {
                drop(self.wait(&self.not_full, guard));
            }
            self.waiting.fetch_and(!PRODUCER_PARKED, Ordering::SeqCst);
        }
        // SAFETY: `tail` is the producer's exclusive cursor and the loop
        // above observed the slot as vacant via an acquiring load of
        // `head`, so the consumer's last read of this slot happens-before
        // this write and nothing else touches it.
        self.slot(tail).with_mut(|p| unsafe {
            (*p).write(item);
        });
        // SeqCst, not just Release: the store also anchors the Dekker
        // handshake against a consumer concurrently deciding to park.
        // (`seam::publish` is an identity in production builds; weakening
        // tests demote it to seed the exact bug this ordering prevents.)
        self.tail.store(
            tail.wrapping_add(1),
            seam::publish(seam::Point::TailPublish, Ordering::SeqCst),
        );
        if self.waiting.load(Ordering::SeqCst) & CONSUMER_PARKED != 0 {
            self.wake(&self.not_empty);
        }
        true
    }

    /// Dequeue, blocking while the ring is empty. `None` means the ring is
    /// poisoned *and* its backlog is fully drained — nothing will ever
    /// arrive again.
    pub fn pop(&self) -> Option<T> {
        // Only the consumer writes `head`, so this plain read is exact.
        // lint:allow(no_relaxed, ordering_protocol): single-writer cursor reading its own writes
        let head = self.head.load(Ordering::Relaxed);
        loop {
            let tail = self.tail.load(Ordering::Acquire);
            if tail != head {
                break;
            }
            // Empty: deliver the poison verdict only once the backlog is
            // gone, so no queued message is ever lost to a poison race.
            if self.waiting.load(Ordering::SeqCst) & POISONED != 0 {
                // The emptiness observation above may predate a push that
                // completed just before the poison. Re-read the cursor
                // *after* the poison flag (both SeqCst, so the single
                // total order makes a pre-poison publish visible here);
                // only a still-empty ring gets the verdict. The loom
                // model caught exactly this lost-message interleaving.
                if self.tail.load(Ordering::SeqCst) != head {
                    continue;
                }
                return None;
            }
            // Empty: park. Mirror image of the producer side.
            self.waiting.fetch_or(CONSUMER_PARKED, Ordering::SeqCst);
            let guard = self.sleep_lock();
            if self.waiting.load(Ordering::SeqCst) & POISONED == 0
                && self.tail.load(Ordering::SeqCst) == head
            {
                drop(self.wait(&self.not_empty, guard));
            }
            self.waiting.fetch_and(!CONSUMER_PARKED, Ordering::SeqCst);
        }
        Some(self.take(head))
    }

    /// Close the ring for good and wake both sides. Idempotent.
    ///
    /// Messages already queued remain poppable — poison stops *future*
    /// traffic, it does not destroy the backlog.
    pub fn poison(&self) {
        self.waiting.fetch_or(POISONED, Ordering::SeqCst);
        // Lock round-trip orders this wake after any sleeper's
        // recheck-under-mutex, exactly like `wake`.
        drop(self.sleep_lock());
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Whether [`poison`](SpscRing::poison) has been called.
    pub fn is_poisoned(&self) -> bool {
        self.waiting.load(Ordering::SeqCst) & POISONED != 0
    }

    /// Dequeue if a message is ready; never blocks.
    pub fn try_pop(&self) -> Option<T> {
        // lint:allow(no_relaxed, ordering_protocol): single-writer cursor reading its own writes
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if tail == head {
            return None;
        }
        Some(self.take(head))
    }

    /// Move the value out of the slot at `head` and publish the free slot.
    fn take(&self, head: usize) -> T {
        // SAFETY: a non-empty ring was observed via an acquiring load of
        // `tail`, so the producer's initialisation of this slot
        // happens-before this read; only the consumer moves values out,
        // and only once per cursor position.
        let item = self.slot(head).with(|p| unsafe { (*p).assume_init_read() });
        // SeqCst for the same Dekker reason as the `tail` store in `push`.
        self.head.store(
            head.wrapping_add(1),
            seam::publish(seam::Point::HeadPublish, Ordering::SeqCst),
        );
        if self.waiting.load(Ordering::SeqCst) & PRODUCER_PARKED != 0 {
            self.wake(&self.not_full);
        }
        item
    }

    fn wait<'a>(&self, condvar: &Condvar, guard: MutexGuard<'a, ()>) -> MutexGuard<'a, ()> {
        // lint:allow(hot_path_purity): parking slow path — blocking while
        // full/empty is the documented contract of push/pop themselves
        match condvar.wait(guard) {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T> Drop for SpscRing<T> {
    fn drop(&mut self) {
        let tail = self.tail.load(Ordering::Acquire);
        let mut seq = self.head.load(Ordering::Acquire);
        while seq != tail {
            // SAFETY: `&mut self` is exclusive, and every slot in
            // `[head, tail)` holds an initialised value that was never
            // moved out.
            self.slot(seq).with_mut(|p| unsafe {
                (*p).assume_init_drop();
            });
            seq = seq.wrapping_add(1);
        }
    }
}

impl<T> std::fmt::Debug for SpscRing<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpscRing")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};
    use std::sync::Arc;

    #[test]
    fn fifo_order() {
        let ring = SpscRing::with_capacity(4);
        assert!(ring.push(1));
        assert!(ring.push(2));
        assert!(ring.push(3));
        assert_eq!(ring.pop(), Some(1));
        assert_eq!(ring.pop(), Some(2));
        assert_eq!(ring.pop(), Some(3));
        assert!(ring.try_pop().is_none());
    }

    #[test]
    fn blocks_until_capacity_frees() {
        let ring = Arc::new(SpscRing::with_capacity(2));
        ring.push(1);
        ring.push(2);
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || ring.push(3)) // blocks until a pop
        };
        assert_eq!(ring.pop(), Some(1));
        assert!(producer.join().expect("producer completes after the pop"));
        assert_eq!(ring.pop(), Some(2));
        assert_eq!(ring.pop(), Some(3));
    }

    #[test]
    fn cross_thread_stream() {
        let ring = Arc::new(SpscRing::with_capacity(8));
        let consumer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut sum = 0u64;
                loop {
                    match ring.pop() {
                        Some(0) | None => return sum,
                        Some(v) => sum += v,
                    }
                }
            })
        };
        for v in 1..=100u64 {
            ring.push(v);
        }
        ring.push(0);
        assert_eq!(consumer.join().unwrap(), 5050);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = SpscRing::<u32>::with_capacity(0);
    }

    #[test]
    fn capacity_one_alternates_under_backpressure() {
        let ring = Arc::new(SpscRing::with_capacity(1));
        assert_eq!(ring.capacity(), 1);
        let consumer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || (0..200).map(|_| ring.pop().unwrap()).collect::<Vec<u32>>())
        };
        for v in 0..200u32 {
            ring.push(v); // every push races the single free slot
        }
        let got = consumer.join().unwrap();
        assert_eq!(got, (0..200).collect::<Vec<u32>>());
    }

    #[test]
    fn full_queue_reports_len_and_backpressure() {
        let ring = SpscRing::with_capacity(3);
        assert!(ring.is_empty());
        ring.push(10);
        ring.push(11);
        ring.push(12);
        assert_eq!(ring.len(), 3);
        assert!(!ring.is_empty());
        // try_pop frees exactly one slot; order is preserved.
        assert_eq!(ring.try_pop(), Some(10));
        assert_eq!(ring.len(), 2);
        ring.push(13);
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.pop(), Some(11));
        assert_eq!(ring.pop(), Some(12));
        assert_eq!(ring.pop(), Some(13));
        assert!(ring.try_pop().is_none());
    }

    #[test]
    fn survives_usize_cursor_wraparound() {
        // Cursors start 2 below usize::MAX, so they wrap within a few
        // pushes; capacity 3 also exercises non-power-of-two rounding.
        let ring = SpscRing::with_capacity_and_base(3, usize::MAX - 2);
        for round in 0..4u64 {
            ring.push(round * 10);
            ring.push(round * 10 + 1);
            ring.push(round * 10 + 2);
            assert_eq!(ring.len(), 3);
            assert_eq!(ring.pop(), Some(round * 10));
            assert_eq!(ring.pop(), Some(round * 10 + 1));
            assert_eq!(ring.pop(), Some(round * 10 + 2));
        }
        assert!(ring.try_pop().is_none());
        assert!(ring.is_empty());
    }

    #[test]
    fn cross_thread_stream_across_wraparound() {
        let ring = Arc::new(SpscRing::with_capacity_and_base(4, usize::MAX - 7));
        let consumer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut sum = 0u64;
                loop {
                    match ring.pop() {
                        Some(0) | None => return sum,
                        Some(v) => sum += v,
                    }
                }
            })
        };
        for v in 1..=100u64 {
            ring.push(v);
        }
        ring.push(0);
        assert_eq!(consumer.join().unwrap(), 5050);
    }

    struct DropCounter(Arc<StdAtomicUsize>);

    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, StdOrdering::SeqCst);
        }
    }

    #[test]
    fn dropping_the_ring_drops_items_in_flight() {
        let drops = Arc::new(StdAtomicUsize::new(0));
        let ring = SpscRing::with_capacity(4);
        for _ in 0..3 {
            ring.push(DropCounter(Arc::clone(&drops)));
        }
        drop(ring.try_pop().expect("one item popped"));
        assert_eq!(drops.load(StdOrdering::SeqCst), 1, "popped value dropped");
        drop(ring);
        assert_eq!(
            drops.load(StdOrdering::SeqCst),
            3,
            "the two undelivered items must be dropped with the ring"
        );
    }

    #[test]
    fn poison_refuses_new_but_keeps_backlog() {
        let ring = SpscRing::with_capacity(4);
        assert!(ring.push(1));
        assert!(ring.push(2));
        assert!(!ring.is_poisoned());
        ring.poison();
        assert!(ring.is_poisoned());
        assert!(!ring.push(3), "poisoned ring refuses new messages");
        // The backlog queued before the poison is still delivered...
        assert_eq!(ring.pop(), Some(1));
        assert_eq!(ring.pop(), Some(2));
        // ...and only then does pop report the poison verdict.
        assert_eq!(ring.pop(), None);
        ring.poison(); // idempotent
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn poison_unblocks_a_parked_producer() {
        let ring = Arc::new(SpscRing::with_capacity(1));
        assert!(ring.push(1));
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || ring.push(2)) // blocks: ring full
        };
        // Give the producer a moment to park, then poison instead of pop:
        // it must return false rather than block forever.
        std::thread::sleep(std::time::Duration::from_millis(20));
        ring.poison();
        assert!(!producer.join().unwrap(), "poison released the producer");
    }

    #[test]
    fn poison_unblocks_a_parked_consumer() {
        let ring = Arc::new(SpscRing::<u32>::with_capacity(2));
        let consumer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || ring.pop()) // blocks: ring empty
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        ring.poison();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn stall_counter_counts_producer_parks() {
        use crate::obs::Counter;
        let stalls = Counter::new();
        let ring = Arc::new(SpscRing::with_capacity(1).with_stall_counter(stalls.clone()));
        ring.push(1u32);
        assert_eq!(stalls.get(), 0, "fast-path pushes never count");
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || ring.push(2)) // full: must park
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(ring.pop(), Some(1));
        assert!(producer.join().unwrap());
        assert!(stalls.get() >= 1, "the blocked push counted a stall");
        assert_eq!(ring.pop(), Some(2));
    }

    #[test]
    fn empty_ring_drops_nothing_extra() {
        let drops = Arc::new(StdAtomicUsize::new(0));
        let ring = SpscRing::with_capacity(2);
        ring.push(DropCounter(Arc::clone(&drops)));
        drop(ring.pop().unwrap());
        drop(ring);
        assert_eq!(drops.load(StdOrdering::SeqCst), 1);
    }
}
