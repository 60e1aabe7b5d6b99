//! Bounded journal of structured runtime events.
//!
//! Events are rare — about two per period — and come from three places:
//! the runtime's owner thread (period rollovers, health audits, restores,
//! `checkpoint_to`), the durability service's thread (checkpoint, delta
//! and compaction publishes) and the shard workers, which publish fault,
//! rollback and degradation events only while they recover from a fault.
//! So the journal is a bounded `VecDeque` behind one lock: a publish or a
//! pop holds it for one push or one pop, and no record path ever takes it.
//!
//! **Sequence numbers**: every *published* event gets the next integer,
//! in publication order, so a reader can detect reordering or correlate
//! an event with [`ShardHealth`]'s `last_fault_seq` (see `pipeline.rs`).
//! **Drop semantics**: when the journal is full the *newest* event is
//! dropped — publishing never overwrites history a drainer is about to
//! read — and the drop is counted in [`EventJournal::dropped`]. A dropped
//! event takes no sequence number, so the seqs of published events stay
//! contiguous: a gap in drained seqs means events were drained by someone
//! else, not silently lost.
//!
//! [`ShardHealth`]: crate::pipeline::ShardHealth

use crate::shim::{Mutex, MutexGuard};
use std::collections::VecDeque;

/// Default journal capacity (events). Power of two; plenty for the rare
/// fault/rollover cadence the runtime produces between drains.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1024;

/// What happened. Each kind's `detail` word (see [`Event::detail`]) carries
/// the kind-specific datum noted here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A period boundary was crossed; `detail` = the period count after
    /// the rollover.
    PeriodRollover,
    /// A worker faulted; `detail` = the numeric code of the fault kind
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

/// The journal's state, all under one lock.
#[derive(Debug)]
struct Ring {
    events: VecDeque<Event>,
    /// The seq the next published event takes.
    next_seq: u64,
    dropped: u64,
}

/// Bounded journal of [`Event`]s. See the module docs for the sequence
/// and drop semantics.
#[derive(Debug)]
pub struct EventJournal {
    ring: Mutex<Ring>,
    capacity: usize,
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
        let capacity = capacity.max(2).next_power_of_two();
        Self {
            ring: Mutex::new(Ring {
                events: VecDeque::with_capacity(capacity),
                next_seq: 0,
                dropped: 0,
            }),
            capacity,
        }
    }

    /// Poison-tolerant lock: a panicking publisher cannot leave the ring
    /// half-updated, since every mutation is one push, pop or increment.
    fn lock(&self) -> MutexGuard<'_, Ring> {
        match self.ring.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Number of events the journal can hold undrained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events dropped because the journal was full at publication time.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Publish an event. Returns its sequence number, or `None` if the
    /// journal was full (the event is dropped and counted).
    pub fn publish(&self, kind: EventKind, shard: Option<u64>, detail: u64) -> Option<u64> {
        let mut ring = self.lock();
        if ring.events.len() >= self.capacity {
            ring.dropped = ring.dropped.saturating_add(1);
            return None;
        }
        let seq = ring.next_seq;
        ring.next_seq = seq.saturating_add(1);
        ring.events.push_back(Event {
            seq,
            kind,
            shard,
            detail,
        });
        Some(seq)
    }

    /// Pop the oldest undrained event, if any.
    pub fn pop(&self) -> Option<Event> {
        self.lock().events.pop_front()
    }

    /// Drain every queued event, oldest first. Events published while the
    /// drain runs stay queued for the next drain.
    pub fn drain(&self) -> Vec<Event> {
        self.lock().events.drain(..).collect()
    }

    /// Events currently queued (published, not yet drained).
    pub fn len(&self) -> usize {
        self.lock().events.len()
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
            assert!(!kind.name().is_empty());
        }
    }
}
