//! Property-based tests for the LTC core invariants.
//!
//! These pin the paper's formal claims on randomly generated streams:
//!
//! * **Theorem IV.1 (no overestimation)** — for the basic variant with the
//!   Deviation Eliminator, the estimated significance never exceeds the real
//!   significance, under any weights and stream.
//! * **CLOCK exactness** — every period's sweep scans each cell exactly once
//!   (persistency grows by at most 1 per period, even with repeats).
//! * **Lemma IV.1** — an item that always had a private cell (never the
//!   smallest, bucket not full at first arrival) is estimated exactly.

use ltc_common::{SignificanceQuery, Weights};
use ltc_core::{Ltc, LtcConfig, Variant};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// Ground truth for a count-driven stream split into fixed-size periods.
fn truth(stream: &[u64], per_period: usize) -> HashMap<u64, (u64, u64)> {
    let mut freq: HashMap<u64, u64> = HashMap::new();
    let mut pers: HashMap<u64, u64> = HashMap::new();
    for chunk in stream.chunks(per_period) {
        let mut seen = HashSet::new();
        for &id in chunk {
            *freq.entry(id).or_insert(0) += 1;
            if seen.insert(id) {
                *pers.entry(id).or_insert(0) += 1;
            }
        }
    }
    freq.into_iter()
        .map(|(id, f)| (id, (f, pers[&id])))
        .collect()
}

/// Run an LTC over the stream, closing periods every `per_period` records.
fn run(stream: &[u64], per_period: usize, weights: Weights, variant: Variant, w: usize) -> Ltc {
    let mut ltc = Ltc::new(
        LtcConfig::builder()
            .buckets(w)
            .cells_per_bucket(4)
            .records_per_period(per_period as u64)
            .weights(weights)
            .variant(variant)
            .seed(42)
            .build(),
    );
    for chunk in stream.chunks(per_period) {
        for &id in chunk {
            ltc.insert(id);
        }
        ltc.end_period();
    }
    ltc.finalize();
    ltc
}

fn small_stream() -> impl Strategy<Value = Vec<u64>> {
    // Skewed universe: ids 0..20 with heavy repetition, stream of 50..400.
    prop::collection::vec(0u64..20, 50..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem IV.1: basic+DE never overestimates significance.
    #[test]
    fn no_overestimation_basic_de(
        stream in small_stream(),
        per_period in 10usize..60,
        alpha in 0u32..3,
        beta in 0u32..3,
    ) {
        prop_assume!(alpha + beta > 0);
        let weights = Weights::new(f64::from(alpha), f64::from(beta));
        let ltc = run(&stream, per_period, weights, Variant::DEVIATION_ONLY, 4);
        let real = truth(&stream, per_period);
        for (&id, &(f, p)) in &real {
            if let Some(est) = ltc.estimate(id) {
                let s = weights.significance(f, p);
                prop_assert!(
                    est <= s + 1e-9,
                    "id {id}: estimated {est} > real {s} (f={f}, p={p})"
                );
            }
        }
    }

    /// Persistency can never exceed the number of periods, in any variant.
    #[test]
    fn persistency_bounded_by_periods(
        stream in small_stream(),
        per_period in 10usize..60,
        de in any::<bool>(),
        ltr in any::<bool>(),
    ) {
        let variant = Variant { deviation_eliminator: de, long_tail_replacement: ltr };
        let ltc = run(&stream, per_period, Weights::PERSISTENT, variant, 4);
        let periods = stream.chunks(per_period).count() as u64;
        // DE harvests exactly once per period; the basic variant's phase
        // deviation can credit one extra period (Figure 4), never more.
        let bound = if de { periods } else { periods + 1 };
        for (id, p) in ltc
            .cells()
            .filter(|c| c.occupied())
            .map(|c| (c.id, u64::from(c.persist)))
        {
            prop_assert!(
                p <= bound,
                "id {id}: persistency {p} > bound {bound} ({periods} periods, de={de})"
            );
        }
    }

    /// DE persistency is never overestimated even for items that appear many
    /// times per period (the CLOCK's "at most +1 per period" contract).
    #[test]
    fn de_persistency_never_overestimates(
        stream in small_stream(),
        per_period in 10usize..60,
    ) {
        let ltc = run(&stream, per_period, Weights::PERSISTENT, Variant::DEVIATION_ONLY, 4);
        let real = truth(&stream, per_period);
        for (&id, &(_, p)) in &real {
            if let Some(est) = ltc.persistency_of(id) {
                prop_assert!(est <= p, "id {id}: persistency {est} > real {p}");
            }
        }
    }

    /// Lemma IV.1: a collision-free item is estimated exactly. We force the
    /// condition with a table so large that every item gets its own bucket
    /// region with overwhelming probability, then verify exactness.
    #[test]
    fn uncontended_items_exact(
        stream in prop::collection::vec(0u64..8, 40..200),
        per_period in 10usize..40,
    ) {
        // 512 buckets for ≤ 8 distinct ids: bucket collisions are possible
        // but each bucket holds 4 cells, so no bucket ever fills.
        let weights = Weights::BALANCED;
        let ltc = run(&stream, per_period, weights, Variant::FULL, 512);
        let real = truth(&stream, per_period);
        for (&id, &(f, p)) in &real {
            let est = ltc.estimate(id);
            prop_assert_eq!(
                est,
                Some(weights.significance(f, p)),
                "id {} (f={}, p={})", id, f, p
            );
        }
    }

    /// The reported top-k is always sorted descending and contains no
    /// duplicates.
    #[test]
    fn top_k_sorted_unique(
        stream in small_stream(),
        per_period in 10usize..60,
        k in 1usize..12,
    ) {
        let ltc = run(&stream, per_period, Weights::BALANCED, Variant::FULL, 4);
        let top = ltc.top_k(k);
        prop_assert!(top.len() <= k);
        let mut ids = HashSet::new();
        for pair in top.windows(2) {
            prop_assert!(pair[0].value >= pair[1].value);
        }
        for e in &top {
            prop_assert!(ids.insert(e.id), "duplicate id {}", e.id);
        }
    }

    /// Frequency estimates in basic variants never exceed the true count
    /// even under heavy eviction churn (tiny table).
    #[test]
    fn frequency_no_overestimate_under_churn(
        stream in prop::collection::vec(0u64..50, 100..500),
    ) {
        let weights = Weights::FREQUENT;
        let ltc = run(&stream, 50, weights, Variant::BASIC, 2);
        let real = truth(&stream, 50);
        for (&id, &(f, _)) in &real {
            if let Some(est) = ltc.frequency_of(id) {
                prop_assert!(est <= f, "id {id}: {est} > {f}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Snapshot fuzz: arbitrary bytes never panic the restore path — they
    /// either load (only if they are a structurally valid snapshot) or
    /// return an error.
    #[test]
    fn snapshot_restore_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        let mut ltc = Ltc::new(
            LtcConfig::builder()
                .buckets(4)
                .cells_per_bucket(4)
                .records_per_period(10)
                .build(),
        );
        let _ = ltc.restore_snapshot(&bytes);
    }

    /// Snapshot round-trip: any stream state survives save/restore exactly,
    /// including pending CLOCK flags (verified by continuing the stream on
    /// both copies and comparing).
    #[test]
    fn snapshot_roundtrip_mid_stream(
        stream in small_stream(),
        per_period in 10usize..60,
        continuation in prop::collection::vec(0u64..20, 0..100),
    ) {
        let mut a = run(&stream, per_period, Weights::BALANCED, Variant::FULL, 4);
        let snap = a.to_snapshot();
        let mut b = Ltc::new(*a.config());
        b.restore_snapshot(&snap).expect("own snapshot must load");
        for &id in &continuation {
            a.insert(id);
            b.insert(id);
        }
        a.end_period();
        b.end_period();
        a.finalize();
        b.finalize();
        prop_assert_eq!(a.top_k(20), b.top_k(20));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Time-driven insertion path: with non-decreasing random timestamps the
    /// DE variant still never overestimates and persistency stays within the
    /// period count, mirroring the count-driven guarantees.
    #[test]
    fn time_driven_no_overestimation(
        events in prop::collection::vec((0u64..20, 0u64..50), 20..300),
        period_len in 50u64..300,
    ) {
        // Sort event gaps into a non-decreasing timeline.
        let mut t = 0u64;
        let timeline: Vec<(u64, u64)> = events
            .iter()
            .map(|&(id, gap)| {
                t += gap;
                (id, t)
            })
            .collect();
        let total_span = t;
        let mut ltc = Ltc::new(
            LtcConfig::builder()
                .buckets(4)
                .cells_per_bucket(4)
                .time_units_per_period(period_len)
                .weights(Weights::BALANCED)
                .variant(Variant::DEVIATION_ONLY)
                .seed(21)
                .build(),
        );
        // Ground truth: frequency + distinct time-periods per id.
        let mut freq: HashMap<u64, u64> = HashMap::new();
        let mut pers: HashMap<u64, HashSet<u64>> = HashMap::new();
        for &(id, at) in &timeline {
            ltc.insert_at(id, at);
            *freq.entry(id).or_insert(0) += 1;
            pers.entry(id).or_default().insert(at / period_len);
        }
        ltc.end_period();
        ltc.finalize();
        let periods_spanned = total_span / period_len + 1;
        prop_assert!(ltc.periods_completed() >= periods_spanned);
        for (&id, &f) in &freq {
            if let Some(est) = ltc.estimate(id) {
                let real = Weights::BALANCED.significance(f, pers[&id].len() as u64);
                prop_assert!(est <= real + 1e-9, "id {id}: {est} > {real}");
            }
        }
    }
}

/// Split `stream` into consecutive chunks whose lengths cycle through
/// `sizes` (the tail chunk may be shorter). Drives the batch-equivalence
/// tests below with arbitrary batch boundaries.
fn chunks_by_sizes<'a, T>(stream: &'a [T], sizes: &'a [usize]) -> Vec<&'a [T]> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut i = 0;
    while start < stream.len() {
        let len = sizes[i % sizes.len()].min(stream.len() - start);
        out.push(&stream[start..start + len]);
        start += len;
        i += 1;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `insert_batch` is bit-identical to the scalar `insert` loop for any
    /// stream, any batch split, any variant, with period boundaries mixed
    /// in. The comparison is on the full `Debug` rendering, which covers
    /// every field: cells, CLOCK pointer state (position, accumulator,
    /// sweep progress), parity, period counters and statistics.
    #[test]
    fn batch_insert_matches_scalar_count_driven(
        stream in prop::collection::vec(0u64..30, 1..500),
        sizes in prop::collection::vec(1usize..40, 1..12),
        per_period in 10u64..60,
        de in any::<bool>(),
        ltr in any::<bool>(),
        boundary_every in 1usize..5,
    ) {
        let cfg = LtcConfig::builder()
            .buckets(4)
            .cells_per_bucket(4)
            .records_per_period(per_period)
            .weights(Weights::BALANCED)
            .variant(Variant { deviation_eliminator: de, long_tail_replacement: ltr })
            .seed(42)
            .build();
        let mut scalar = Ltc::new(cfg);
        let mut batched = Ltc::new(cfg);
        for (i, chunk) in chunks_by_sizes(&stream, &sizes).into_iter().enumerate() {
            for &id in chunk {
                scalar.insert(id);
            }
            batched.insert_batch(chunk);
            if (i + 1) % boundary_every == 0 {
                scalar.end_period();
                batched.end_period();
            }
            prop_assert_eq!(
                format!("{scalar:?}"),
                format!("{batched:?}"),
                "diverged after chunk {}", i
            );
        }
        scalar.finalize();
        batched.finalize();
        prop_assert_eq!(format!("{scalar:?}"), format!("{batched:?}"));
    }

    /// Sharded routing commutes with batching: feeding a `ShardedLtc`
    /// record-by-record and batch-by-batch produces identical shard states.
    #[test]
    fn sharded_batch_matches_scalar(
        stream in prop::collection::vec(0u64..200, 1..400),
        sizes in prop::collection::vec(1usize..50, 1..8),
        shards in 1usize..6,
    ) {
        use ltc_core::ShardedLtc;
        use ltc_common::StreamProcessor;
        let cfg = LtcConfig::builder()
            .buckets(8)
            .cells_per_bucket(4)
            .records_per_period(50)
            .weights(Weights::BALANCED)
            .variant(Variant::FULL)
            .seed(7)
            .build();
        let mut scalar = ShardedLtc::new(cfg, shards);
        let mut batched = ShardedLtc::new(cfg, shards);
        for chunk in chunks_by_sizes(&stream, &sizes) {
            for &id in chunk {
                scalar.insert(id);
            }
            batched.insert_batch(chunk);
        }
        scalar.end_period();
        batched.end_period();
        prop_assert_eq!(format!("{scalar:?}"), format!("{batched:?}"));
    }
}

/// Deterministic regression: the Figure-4 deviation scenario. An item whose
/// cell is scanned mid-period, appearing around the scan, gets double-counted
/// by the basic variant but counted once by the Deviation Eliminator.
#[test]
fn deviation_scenario_fig4() {
    // 1 bucket × 4 cells, 4 records per period → pointer advances one cell
    // per record. Put item X in the last cell of the table so the pointer
    // scans it at the end of each period's sweep.
    let build = |variant| {
        Ltc::new(
            LtcConfig::builder()
                .buckets(1)
                .cells_per_bucket(4)
                .records_per_period(4)
                .weights(Weights::PERSISTENT)
                .variant(variant)
                .seed(0)
                .build(),
        )
    };
    for variant in [Variant::BASIC, Variant::DEVIATION_ONLY] {
        let mut ltc = build(variant);
        // Period 1: item 1 appears as the first and the last record; the
        // pointer passes its cell in between (after record 1..3).
        ltc.insert(1);
        ltc.insert(2);
        ltc.insert(3);
        ltc.insert(1);
        ltc.end_period();
        // Period 2: item 1 absent.
        for _ in 0..4 {
            ltc.insert(4);
        }
        ltc.end_period();
        ltc.finalize();
        let p = ltc.persistency_of(1).unwrap();
        if variant.deviation_eliminator {
            assert_eq!(p, 1, "DE counts the period once");
        } else {
            assert!(p >= 1, "basic may double-count, never undercount to 0");
        }
    }
}
