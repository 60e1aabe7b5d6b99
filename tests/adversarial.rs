//! Differential tests on adversarial stream shapes: LTC against the exact
//! oracle where its assumptions are weakest (uniform frequencies, one-shot
//! floods, regime changes). These pin *behavioural* expectations the paper
//! states in prose — including the §III-D warning that Long-tail
//! Replacement needs a long tail.

use significant_items::common::{MemoryBudget, SignificanceQuery, StreamProcessor, Weights};
use significant_items::core_::{Ltc, LtcConfig, Variant};
use significant_items::eval::{metrics, Oracle};
use significant_items::workloads::adversarial;
use significant_items::workloads::GeneratedStream;

fn run_ltc(stream: &GeneratedStream, kb: usize, weights: Weights, variant: Variant) -> Ltc {
    let mut ltc = Ltc::new(
        LtcConfig::with_memory(MemoryBudget::kilobytes(kb), 8)
            .weights(weights)
            .records_per_period(stream.layout.records_per_period().unwrap())
            .variant(variant)
            .seed(17)
            .build(),
    );
    for period in stream.periods() {
        for &id in period {
            ltc.insert(id);
        }
        ltc.end_period();
    }
    ltc.finalize();
    ltc
}

#[test]
fn sawtooth_anchor_beats_every_tooth() {
    // The use-case-3 scenario in its purest form: each period a one-shot
    // flood out-shouts the steady anchor 9:1 locally, but only the anchor is
    // significant under persistency-aware weights.
    let stream = adversarial::sawtooth(900, 100, 50);
    let ltc = run_ltc(&stream, 16, Weights::new(1.0, 500.0), Variant::FULL);
    let top = ltc.top_k(1);
    assert_eq!(top[0].id, 0, "anchor must win under β-heavy weights");
    // And the anchor's persistency is tracked essentially exactly.
    let p = ltc.persistency_of(0).unwrap();
    assert!(p >= 48, "anchor persistency {p} of 50");
}

#[test]
fn all_distinct_stream_reports_only_ephemera() {
    // Nothing repeats: every estimate must stay tiny (no invented heavy
    // hitters), in every variant.
    let stream = adversarial::all_distinct(1_000, 10);
    for variant in [Variant::BASIC, Variant::FULL] {
        let ltc = run_ltc(&stream, 8, Weights::BALANCED, variant);
        let top = ltc.top_k(5);
        for e in &top {
            assert!(
                e.value <= 4.0,
                "{variant:?}: invented significance {} for {}",
                e.value,
                e.id
            );
        }
    }
}

#[test]
fn uniform_stream_no_overestimation_without_ltr() {
    // Round-robin uniform frequencies: the regime where LTR's assumption
    // fails. The DE-only variant must still never overestimate (Theorem
    // IV.1 is distribution-free).
    let stream = adversarial::round_robin(500, 1_000, 20);
    let oracle = Oracle::build(&stream);
    let weights = Weights::BALANCED;
    let ltc = run_ltc(&stream, 8, weights, Variant::DEVIATION_ONLY);
    for (id, f, p) in oracle.iter() {
        if let Some(est) = ltc.estimate(id) {
            let real = weights.significance(f, p);
            assert!(est <= real + 1e-9, "id {id}: {est} > {real}");
        }
    }
}

#[test]
fn uniform_stream_ltr_overestimates_but_ranking_is_harmless() {
    // With LTR on a uniform stream, admitted items inherit a neighbour's
    // (identical) count — overestimation happens by design. The reported
    // values may exceed truth, but since *every* item has the same true
    // significance, tie-aware precision stays perfect.
    let stream = adversarial::round_robin(200, 1_000, 10);
    let oracle = Oracle::build(&stream);
    let weights = Weights::BALANCED;
    let ltc = run_ltc(&stream, 8, weights, Variant::FULL);
    let truth = oracle.top_k(50, &weights);
    let reported = ltc.top_k(50);
    let p = metrics::tie_aware_precision(&reported, &truth, &oracle, &weights);
    assert_eq!(p, 1.0, "uniform ties: any selection is correct");
}

#[test]
fn two_phase_regime_change_tracked() {
    // After the population flips, the old cohort stops accruing
    // significance; with balanced weights the new cohort must dominate
    // frequency-wise only at parity — total f and p are equal across
    // cohorts, so both cohorts appear.
    let stream = adversarial::two_phase(20, 400, 40);
    // Full-stream LTC: both cohorts have identical totals, so their
    // estimates must agree (the reported top-k then falls to the id
    // tie-break, which is fine).
    let ltc = run_ltc(&stream, 16, Weights::BALANCED, Variant::FULL);
    let old_est = ltc.estimate(0).expect("cohort A tracked");
    let new_est = ltc.estimate(1_000_000).expect("cohort B tracked");
    let ratio = old_est / new_est;
    assert!(
        (0.8..=1.25).contains(&ratio),
        "all-time view should score cohorts equally: {old_est} vs {new_est}"
    );
}

#[test]
fn sharded_matches_unsharded_on_adversarial_stream() {
    // Sharding must not change per-item estimates (same item → one shard →
    // smaller table but also proportionally fewer colliding items).
    use significant_items::core_::ShardedLtc;

    let stream = adversarial::sawtooth(90, 10, 30);
    let cfg = LtcConfig::with_memory(MemoryBudget::kilobytes(8), 8)
        .weights(Weights::new(1.0, 100.0))
        .records_per_period(stream.layout.records_per_period().unwrap())
        .seed(17)
        .build();
    let mut sharded = ShardedLtc::new(cfg, 4);
    for period in stream.periods() {
        for &id in period {
            sharded.insert(id);
        }
        sharded.end_period();
    }
    sharded.finalize();
    assert_eq!(sharded.top_k(1)[0].id, 0, "anchor wins in the sharded view");
}
