//! Cross-version checkpoint compatibility.
//!
//! `fixtures/checkpoint_pre_soa.bin` is an `LTCF` frame produced by the
//! array-of-structs table *before* the struct-of-arrays storage refactor,
//! captured mid-period (30 records into period 4, so the flag byte of hot
//! cells carries pending appearance bits). The lane layout is an in-memory
//! concern only — the wire format must not notice — so today's table must
//! restore this frame byte-for-byte and answer the queries the generator
//! recorded at capture time.
//!
//! Generator (pre-SoA build): a 16×4 table, seed 9, 50-record periods;
//! 4 full periods of `i % 5 == 0 → 7, else period*100+i`, then 30 records
//! `i % 5 == 0 → 7, else 900+i` left mid-period.

use ltc_common::Weights;
use ltc_core::{Ltc, LtcConfig};

const PRE_SOA_FRAME: &[u8] = include_bytes!("fixtures/checkpoint_pre_soa.bin");

fn fixture_config() -> LtcConfig {
    LtcConfig::builder()
        .buckets(16)
        .cells_per_bucket(4)
        .weights(Weights::BALANCED)
        .records_per_period(50)
        .seed(9)
        .build()
}

#[test]
fn pre_soa_checkpoint_still_restores() {
    let mut ltc = Ltc::new(fixture_config());
    ltc.restore_checkpoint(PRE_SOA_FRAME)
        .expect("pre-SoA LTCF frame must restore into the SoA table");
    // Oracle values recorded by the generator at capture time (finalize on
    // a clone so the restored state itself stays bit-faithful).
    let mut finalized = ltc.clone();
    finalized.finalize();
    assert_eq!(finalized.frequency_of(7), Some(47));
    assert_eq!(
        finalized.persistency_of(7),
        Some(4),
        "four completed periods plus the pending mid-period flag, harvested"
    );
    assert_eq!(ltc.periods_completed(), 4);
}

#[test]
fn pre_soa_checkpoint_roundtrips_byte_identically() {
    // Restoring the old frame and re-checkpointing must reproduce it
    // exactly: same config fingerprint, same snapshot section bytes. This
    // pins both directions of the format across the layout change.
    let mut ltc = Ltc::new(fixture_config());
    ltc.restore_checkpoint(PRE_SOA_FRAME).unwrap();
    assert_eq!(ltc.to_checkpoint(), PRE_SOA_FRAME);
    assert_eq!(PRE_SOA_FRAME.len(), 1137, "fixture frame size is pinned");
}

#[test]
fn pre_soa_checkpoint_rejects_wrong_config() {
    // The fingerprint guard still works across the layout change.
    let mut other = Ltc::new(
        LtcConfig::builder()
            .buckets(16)
            .cells_per_bucket(4)
            .weights(Weights::BALANCED)
            .records_per_period(50)
            .seed(10) // different seed → different fingerprint
            .build(),
    );
    assert!(other.restore_checkpoint(PRE_SOA_FRAME).is_err());
}
