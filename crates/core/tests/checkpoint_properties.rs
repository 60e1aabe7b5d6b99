//! Property-based corruption tests for the crash-consistency layer.
//!
//! A checkpoint image that reaches `restore_checkpoint` may have been torn
//! by a crash mid-write, hit by bit rot, or simply be garbage. The restore
//! path must uphold two properties for *any* input:
//!
//! * **never panic** — corruption is an `Err`, not a process abort;
//! * **never silently accept corruption** — a checkpoint frame that differs
//!   from what was written in even one byte must be rejected (the CRC-32 +
//!   field validation make every single-byte flip detectable), and a failed
//!   restore must leave the target table exactly as it was (all-or-nothing).
//!
//! The raw (unframed) snapshot format carries no checksum — there the
//! contract is weaker: mutations must never panic, and a rejected image
//! must leave the table untouched.

use ltc_common::{SignificanceQuery, StreamProcessor, Weights};
use ltc_core::{Ltc, LtcConfig, ShardedLtc, Variant};
use proptest::prelude::*;

fn config() -> LtcConfig {
    LtcConfig::builder()
        .buckets(4)
        .cells_per_bucket(4)
        .records_per_period(25)
        .weights(Weights::BALANCED)
        .variant(Variant::FULL)
        .seed(11)
        .build()
}

/// A table with real state: periods completed, CLOCK mid-sweep, pending
/// flags — so its image exercises every snapshot section.
fn populated(stream: &[u64]) -> Ltc {
    let mut ltc = Ltc::new(config());
    for chunk in stream.chunks(25) {
        for &id in chunk {
            ltc.insert(id);
        }
        ltc.end_period();
    }
    // Leave a partial period in flight: mid-sweep state is the interesting
    // part of a crash image.
    for &id in stream.iter().take(7) {
        ltc.insert(id);
    }
    ltc
}

fn small_stream() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..20, 30..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes never panic the checkpoint restore path.
    #[test]
    fn arbitrary_bytes_never_panic_restore(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        let mut ltc = Ltc::new(config());
        let before = format!("{ltc:?}");
        let result = ltc.restore_checkpoint(&bytes);
        // Random bytes essentially never form a valid frame (magic +
        // version + fingerprint + CRC all have to line up); whenever they
        // do not, the table must be untouched.
        if result.is_err() {
            prop_assert_eq!(before, format!("{ltc:?}"), "failed restore mutated the table");
        }
    }

    /// Flipping any single byte of a valid checkpoint is always detected,
    /// and the rejected restore leaves the target in its prior state.
    #[test]
    fn any_single_byte_flip_is_rejected(
        stream in small_stream(),
        offset_seed in any::<usize>(),
        mask in 1u8..255,
    ) {
        let source = populated(&stream);
        let mut frame = source.to_checkpoint();
        let offset = offset_seed % frame.len();
        frame[offset] ^= mask;

        let mut target = Ltc::new(config());
        let before = format!("{target:?}");
        let result = target.restore_checkpoint(&frame);
        prop_assert!(
            result.is_err(),
            "flip at offset {offset} (mask {mask:#04x}) silently accepted"
        );
        prop_assert_eq!(before, format!("{target:?}"), "failed restore mutated the table");
    }

    /// Truncating a valid checkpoint at any point short of full length is
    /// always detected; the restore never panics and never commits.
    #[test]
    fn any_truncation_is_rejected(
        stream in small_stream(),
        keep_seed in any::<usize>(),
    ) {
        let source = populated(&stream);
        let frame = source.to_checkpoint();
        let keep = keep_seed % frame.len(); // 0..len, always short
        let torn = &frame[..keep];

        let mut target = Ltc::new(config());
        let before = format!("{target:?}");
        prop_assert!(
            target.restore_checkpoint(torn).is_err(),
            "truncation to {keep}/{} bytes silently accepted",
            frame.len()
        );
        prop_assert_eq!(before, format!("{target:?}"));
    }

    /// Appending trailing garbage to a valid checkpoint is always detected
    /// (exact-consumption parsing).
    #[test]
    fn trailing_garbage_is_rejected(
        stream in small_stream(),
        tail in prop::collection::vec(any::<u8>(), 1..40),
    ) {
        let source = populated(&stream);
        let mut frame = source.to_checkpoint();
        frame.extend_from_slice(&tail);
        let mut target = Ltc::new(config());
        prop_assert!(target.restore_checkpoint(&frame).is_err());
    }

    /// The untampered frame round-trips — the corruption tests above are
    /// meaningful only because the valid image actually loads. Snapshots
    /// capture period-boundary state (cells, parity, period count), so the
    /// comparison is on the restorable query state, as in `properties.rs`.
    #[test]
    fn untampered_checkpoint_roundtrips(stream in small_stream()) {
        let source = populated(&stream);
        let mut target = Ltc::new(config());
        target
            .restore_checkpoint(&source.to_checkpoint())
            .expect("own checkpoint must load");
        prop_assert_eq!(source.top_k(64), target.top_k(64));
        prop_assert_eq!(source.periods_completed(), target.periods_completed());
    }

    /// The same flip property holds for the multi-section sharded frame:
    /// corruption in *any* shard's section (or the framing around it) is
    /// caught, and no shard is partially restored.
    #[test]
    fn sharded_flip_is_rejected_atomically(
        stream in small_stream(),
        shards in 1usize..5,
        offset_seed in any::<usize>(),
        mask in 1u8..255,
    ) {
        let mut source = ShardedLtc::new(config(), shards);
        for &id in &stream {
            source.insert(id);
        }
        source.end_period();
        let mut frame = source.to_checkpoint();
        let offset = offset_seed % frame.len();
        frame[offset] ^= mask;

        let mut target = ShardedLtc::new(config(), shards);
        let before = format!("{target:?}");
        prop_assert!(
            target.restore_checkpoint(&frame).is_err(),
            "flip at offset {offset} silently accepted"
        );
        prop_assert_eq!(before, format!("{target:?}"), "partial shard restore leaked");
    }

    /// A full-frame restore reproduces the source exactly: the restored
    /// table's snapshot bytes and top-k equal the source's, so the
    /// round-trip loses nothing any query can observe.
    #[test]
    fn checkpoint_restore_reproduces_the_source(stream in small_stream()) {
        let source = populated(&stream);
        let mut restored = Ltc::new(config());
        restored
            .restore_checkpoint(&source.to_checkpoint())
            .expect("own checkpoint must load");

        prop_assert_eq!(
            source.to_snapshot(),
            restored.to_snapshot(),
            "state diverged across a save/restore round-trip"
        );
        prop_assert_eq!(source.top_k(64), restored.top_k(64));
    }

    /// The same property when the table comes off a delta chain (base
    /// snapshot + cumulative delta) instead of a full checkpoint.
    #[test]
    fn delta_restore_reproduces_the_source(
        stream in small_stream(),
        extra in prop::collection::vec(0u64..20, 1..80),
    ) {
        let mut source = populated(&stream);
        let base = source.to_snapshot();
        source.begin_delta_epoch();
        for &id in &extra {
            source.insert(id);
        }
        source.end_period();
        let delta = source.to_delta_snapshot();

        let mut restored = Ltc::new(config());
        restored.restore_snapshot(&base).expect("own snapshot must load");
        restored.apply_delta_snapshot(&delta).expect("own delta must apply");

        prop_assert_eq!(
            source.to_snapshot(),
            restored.to_snapshot(),
            "state diverged across a base+delta restore"
        );
        prop_assert_eq!(source.top_k(64), restored.top_k(64));
    }

    /// Raw snapshot mutations (no CRC at this layer): restore never panics,
    /// and a rejected image leaves the table untouched. Accepted mutations
    /// are possible by design — framing-level integrity lives in the
    /// checkpoint layer, which the tests above pin.
    #[test]
    fn mutated_snapshot_never_panics(
        stream in small_stream(),
        offset_seed in any::<usize>(),
        mask in 1u8..255,
        truncate_to in any::<usize>(),
        mutate in any::<bool>(),
    ) {
        let source = populated(&stream);
        let mut snap = source.to_snapshot();
        if mutate {
            let offset = offset_seed % snap.len();
            snap[offset] ^= mask;
        } else {
            snap.truncate(truncate_to % snap.len());
        }
        let mut target = Ltc::new(config());
        let before = format!("{target:?}");
        if target.restore_snapshot(&snap).is_err() {
            prop_assert_eq!(before, format!("{target:?}"), "failed restore mutated the table");
        }
    }
}

/// Deterministic anchor for the suite: a checkpoint written by one table
/// and corrupted by a *whole-section zero-out* (the classic torn-page
/// shape) is rejected, and the target keeps answering queries from its own
/// prior state.
#[test]
fn zeroed_page_keeps_prior_state_queryable() {
    let mut source = Ltc::new(config());
    for id in 0..50u64 {
        source.insert(id % 5);
    }
    source.end_period();
    let mut frame = source.to_checkpoint();
    let mid = frame.len() / 2;
    for b in frame.iter_mut().skip(mid).take(64) {
        *b = 0;
    }

    let mut target = Ltc::new(config());
    for _ in 0..30 {
        target.insert(99);
    }
    target.end_period();
    let before_top = target.top_k(1);

    assert!(
        target.restore_checkpoint(&frame).is_err(),
        "torn page accepted"
    );
    assert_eq!(target.top_k(1), before_top, "prior state lost");
    assert_eq!(target.top_k(1)[0].id, 99);
}
