//! Bounded lock-free journal of structured runtime events.
//!
//! The journal is a fixed-capacity MPMC ring in the style of Vyukov's
//! bounded queue, built entirely from per-slot atomics (stamp + payload
//! words) so it needs no `unsafe` and no locks. Producers — shard workers,
//! the supervisor, the checkpoint layer — publish events with a single CAS
//! claim plus a release-store of the slot stamp; consumers drain with the
//! symmetric CAS, so the runtime never stops to be observed.
//!
//! **Sequence numbers** are the ring's claim positions: every *published*
//! event gets the next integer, in publication order, so a reader can
//! detect reordering or correlate an event with [`ShardHealth`]'s
//! `last_fault_seq` (see `pipeline.rs`). **Drop semantics**: when the ring
//! is full the *newest* event is dropped — publishing never blocks and
//! never overwrites history a drainer is about to read — and the drop is
//! counted in [`EventJournal::dropped`]. Because a dropped event never
//! claims a position, the sequence numbers of published events stay
//! contiguous: a gap in drained seqs means events were drained by someone
//! else, not silently lost.
//!
//! [`ShardHealth`]: crate::pipeline::ShardHealth

use crate::shim::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Default journal capacity (events). Power of two; plenty for the rare
/// fault/rollover cadence the runtime produces between drains.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1024;

/// Sentinel for "no shard" in the packed shard word.
const NO_SHARD: u64 = u64::MAX;

/// What happened. Each kind's `detail` word (see [`Event::detail`]) carries
/// the kind-specific datum noted here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A period boundary was crossed; `detail` = the period count after
    /// the rollover.
    PeriodRollover,
    /// A worker died; `detail` = the numeric code of the fault kind
    /// (`FaultKind::code`).
    WorkerFault,
    /// A shard's table was rolled back to its rollback image of the last
    /// period boundary during recovery; `detail` = restarts so far on that
    /// shard.
    Rollback,
    /// A shard exhausted its restart budget and degraded to lossy mode;
    /// `detail` = records lost on that shard at the moment of degradation.
    Degradation,
    /// A checkpoint generation was atomically published; `detail` = the
    /// generation number.
    CheckpointPublish,
    /// State was restored from a checkpoint; `detail` = the generation
    /// restored from (after any newest-first fallback).
    CheckpointRestore,
    /// A delta checkpoint generation was published; `detail` = the
    /// generation number.
    DeltaPublish,
    /// A delta chain was compacted into a fresh full frame; `detail` = the
    /// new base generation.
    Compaction,
    /// A restore found a delta whose base frame was missing or damaged and
    /// fell back past the chain; `detail` = the broken delta's generation.
    ChainFallback,
    /// The per-period algorithm-health auditor published a report;
    /// `detail` = the report's drift-flag bits (see `obs::audit::drift`).
    HealthReport,
}

impl EventKind {
    fn code(self) -> u64 {
        match self {
            EventKind::PeriodRollover => 0,
            EventKind::WorkerFault => 1,
            EventKind::Rollback => 2,
            EventKind::Degradation => 3,
            EventKind::CheckpointPublish => 4,
            EventKind::CheckpointRestore => 5,
            EventKind::DeltaPublish => 6,
            EventKind::Compaction => 7,
            EventKind::ChainFallback => 8,
            EventKind::HealthReport => 9,
        }
    }

    fn from_code(code: u64) -> Self {
        match code {
            0 => EventKind::PeriodRollover,
            1 => EventKind::WorkerFault,
            2 => EventKind::Rollback,
            3 => EventKind::Degradation,
            4 => EventKind::CheckpointPublish,
            6 => EventKind::DeltaPublish,
            7 => EventKind::Compaction,
            8 => EventKind::ChainFallback,
            9 => EventKind::HealthReport,
            _ => EventKind::CheckpointRestore,
        }
    }

    /// Stable lowercase name, used as a label value in exports.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::PeriodRollover => "period_rollover",
            EventKind::WorkerFault => "worker_fault",
            EventKind::Rollback => "rollback",
            EventKind::Degradation => "degradation",
            EventKind::CheckpointPublish => "checkpoint_publish",
            EventKind::CheckpointRestore => "checkpoint_restore",
            EventKind::DeltaPublish => "delta_publish",
            EventKind::Compaction => "compaction",
            EventKind::ChainFallback => "chain_fallback",
            EventKind::HealthReport => "health_report",
        }
    }
}

/// One published runtime event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Monotonic publication sequence number (0-based, contiguous across
    /// published events; see the module docs for drop semantics).
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// The shard it happened on, if shard-scoped.
    pub shard: Option<u64>,
    /// Kind-specific datum — see [`EventKind`] for each kind's meaning.
    pub detail: u64,
}

/// One ring slot: a Vyukov stamp plus the event payload as plain atomic
/// words. The stamp is the synchronisation point (release-published,
/// acquire-read); payload words only need to be written before the stamp
/// release and read after the stamp acquire.
#[derive(Debug)]
struct Slot {
    // ordering: load=Acquire, store=Release -- the Vyukov stamp is the slot's publication point: payload words are written before the release store and read after the acquire load
    stamp: AtomicUsize,
    // ordering: load=Relaxed, store=Relaxed -- payload word, ordered solely by the stamp edge
    seq: AtomicU64,
    // ordering: load=Relaxed, store=Relaxed -- payload word, ordered solely by the stamp edge
    kind: AtomicU64,
    // ordering: load=Relaxed, store=Relaxed -- payload word, ordered solely by the stamp edge
    shard: AtomicU64,
    // ordering: load=Relaxed, store=Relaxed -- payload word, ordered solely by the stamp edge
    detail: AtomicU64,
}

/// Bounded lock-free MPMC journal of [`Event`]s. See the module docs for
/// the publication protocol and drop semantics.
#[derive(Debug)]
pub struct EventJournal {
    slots: Vec<Slot>,
    mask: usize,
    /// Next claim position for producers; doubles as the seq counter.
    // ordering: load=Relaxed, rmw=Relaxed -- claim counter; the CAS only needs atomicity, publication rides the stamp edge
    enqueue_pos: AtomicUsize,
    // ordering: load=Relaxed, rmw=Relaxed -- claim counter; the CAS only needs atomicity, recycling rides the stamp edge
    dequeue_pos: AtomicUsize,
    // ordering: load=Relaxed, rmw=Relaxed -- statistic; no ordering obligations
    dropped: AtomicU64,
}

impl Default for EventJournal {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }
}

impl EventJournal {
    /// A journal holding up to [`DEFAULT_JOURNAL_CAPACITY`] undrained
    /// events.
    pub fn new() -> Self {
        Self::default()
    }

    /// A journal with the given capacity, rounded up to a power of two
    /// (minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots = (0..cap)
            .map(|i| Slot {
                stamp: AtomicUsize::new(i),
                seq: AtomicU64::new(0),
                kind: AtomicU64::new(0),
                shard: AtomicU64::new(NO_SHARD),
                detail: AtomicU64::new(0),
            })
            .collect();
        Self {
            slots,
            mask: cap.wrapping_sub(1),
            enqueue_pos: AtomicUsize::new(0),
            dequeue_pos: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of events the ring can hold undrained.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events dropped because the ring was full at publication time.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Publish an event. Lock-free: a bounded CAS loop to claim a slot,
    /// payload stores, and one release store. Returns the event's sequence
    /// number, or `None` if the ring was full (the event is dropped and
    /// counted — publishing never blocks).
    pub fn publish(&self, kind: EventKind, shard: Option<u64>, detail: u64) -> Option<u64> {
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let slot = self.slots.get(pos & self.mask)?;
            let stamp = slot.stamp.load(Ordering::Acquire);
            // Vyukov stamp discipline: == pos means free to claim, < pos
            // means the consumer has not yet recycled it (ring full).
            if stamp == pos {
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let seq = pos as u64;
                        slot.seq.store(seq, Ordering::Relaxed);
                        slot.kind.store(kind.code(), Ordering::Relaxed);
                        slot.shard
                            .store(shard.unwrap_or(NO_SHARD), Ordering::Relaxed);
                        slot.detail.store(detail, Ordering::Relaxed);
                        // Publish: consumers acquire this stamp before
                        // reading the payload words above.
                        slot.stamp.store(pos.wrapping_add(1), Ordering::Release);
                        return Some(seq);
                    }
                    Err(actual) => pos = actual,
                }
            } else if stamp.wrapping_sub(pos) > self.mask {
                // Stamp lags pos by a full lap: ring is full. Drop-newest.
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return None;
            } else {
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Pop the oldest undrained event, if any. Lock-free; safe to call
    /// concurrently with publishers and other drainers.
    pub fn pop(&self) -> Option<Event> {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let slot = self.slots.get(pos & self.mask)?;
            let stamp = slot.stamp.load(Ordering::Acquire);
            let expected = pos.wrapping_add(1);
            if stamp == expected {
                match self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let event = Event {
                            seq: slot.seq.load(Ordering::Relaxed),
                            kind: EventKind::from_code(slot.kind.load(Ordering::Relaxed)),
                            shard: match slot.shard.load(Ordering::Relaxed) {
                                NO_SHARD => None,
                                s => Some(s),
                            },
                            detail: slot.detail.load(Ordering::Relaxed),
                        };
                        // Recycle: mark the slot free for the producer one
                        // lap ahead.
                        slot.stamp.store(
                            pos.wrapping_add(self.mask).wrapping_add(1),
                            Ordering::Release,
                        );
                        return Some(event);
                    }
                    Err(actual) => pos = actual,
                }
            } else if stamp == pos {
                // Slot not yet published at this lap: ring is empty.
                return None;
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Drain every currently published event, oldest first, without
    /// stopping publishers. Events published concurrently with the drain
    /// may or may not be included; they stay queued for the next drain if
    /// not.
    pub fn drain(&self) -> Vec<Event> {
        let mut out = Vec::new();
        while let Some(event) = self.pop() {
            out.push(event);
        }
        out
    }

    /// Events currently queued (published, not yet drained). Approximate
    /// under concurrency.
    pub fn len(&self) -> usize {
        let head = self.enqueue_pos.load(Ordering::Relaxed);
        let tail = self.dequeue_pos.load(Ordering::Relaxed);
        head.wrapping_sub(tail).min(self.slots.len())
    }

    /// True when no published events are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn publish_then_drain_in_order() {
        let j = EventJournal::with_capacity(8);
        assert_eq!(j.publish(EventKind::PeriodRollover, Some(0), 1), Some(0));
        assert_eq!(j.publish(EventKind::WorkerFault, Some(2), 7), Some(1));
        assert_eq!(j.publish(EventKind::CheckpointPublish, None, 3), Some(2));
        let events = j.drain();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[0].kind, EventKind::PeriodRollover);
        assert_eq!(events[0].shard, Some(0));
        assert_eq!(events[1].kind, EventKind::WorkerFault);
        assert_eq!(events[1].detail, 7);
        assert_eq!(events[2].shard, None);
        assert!(j.is_empty());
    }

    #[test]
    fn full_ring_drops_newest_and_counts() {
        let j = EventJournal::with_capacity(4);
        for i in 0..4 {
            assert!(j.publish(EventKind::PeriodRollover, None, i).is_some());
        }
        assert_eq!(j.publish(EventKind::WorkerFault, None, 99), None);
        assert_eq!(j.dropped(), 1);
        // The queued history is intact and the dropped event left no gap.
        let events = j.drain();
        assert_eq!(events.len(), 4);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        // Space is back after the drain; seq continues where claims left off.
        assert_eq!(j.publish(EventKind::Rollback, Some(1), 0), Some(4));
    }

    #[test]
    fn drain_while_publishing_keeps_seqs_contiguous() {
        let j = Arc::new(EventJournal::with_capacity(64));
        let publisher = {
            let j = Arc::clone(&j);
            std::thread::spawn(move || {
                let mut published = 0u64;
                for i in 0..10_000u64 {
                    if j.publish(EventKind::PeriodRollover, Some(i % 4), i)
                        .is_some()
                    {
                        published += 1;
                    }
                }
                published
            })
        };
        let mut drained = Vec::new();
        while !publisher.is_finished() {
            drained.extend(j.drain());
        }
        let published = publisher.join().unwrap();
        drained.extend(j.drain());
        assert_eq!(drained.len() as u64, published);
        for pair in drained.windows(2) {
            assert!(
                pair[1].seq > pair[0].seq,
                "seqs strictly increase in drain order"
            );
        }
        // Published events are exactly seq 0..published: contiguous.
        let max_seq = drained.last().map(|e| e.seq).unwrap_or(0);
        assert_eq!(max_seq + 1, published);
    }

    #[test]
    fn concurrent_publishers_lose_nothing_when_capacity_suffices() {
        let j = Arc::new(EventJournal::with_capacity(4096));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let j = Arc::clone(&j);
                std::thread::spawn(move || {
                    for i in 0..512u64 {
                        assert!(j.publish(EventKind::WorkerFault, Some(t), i).is_some());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let events = j.drain();
        assert_eq!(events.len(), 2048);
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        for (i, s) in seqs.iter().enumerate() {
            assert_eq!(*s, i as u64, "every seq assigned exactly once");
        }
    }

    #[test]
    fn kind_codes_round_trip() {
        for kind in [
            EventKind::PeriodRollover,
            EventKind::WorkerFault,
            EventKind::Rollback,
            EventKind::Degradation,
            EventKind::CheckpointPublish,
            EventKind::CheckpointRestore,
            EventKind::DeltaPublish,
            EventKind::Compaction,
            EventKind::ChainFallback,
            EventKind::HealthReport,
        ] {
            assert_eq!(EventKind::from_code(kind.code()), kind);
            assert!(!kind.name().is_empty());
        }
    }
}
