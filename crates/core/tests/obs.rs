//! Integration tests for the observability layer: the Prometheus text
//! exposition the runtime emits is valid and complete, label escaping
//! survives the full render path, histogram buckets stay cumulative, the
//! JSON document round-trips through a real parser, the journal's
//! drop-newest semantics hold under overflow, and instrumentation stays
//! within its measured-overhead budget.

use ltc_common::Weights;
use ltc_core::obs::{
    labels, render_events_json, validate_exposition, EventJournal, EventKind, MetricsRegistry,
    RuntimeObs,
};
use ltc_core::{FaultPolicy, LtcConfig, ParallelLtc};
use serde::Value;
use std::sync::Arc;

fn config() -> LtcConfig {
    LtcConfig::builder()
        .buckets(64)
        .cells_per_bucket(4)
        .weights(Weights::BALANCED)
        .records_per_period(1_000)
        .seed(21)
        .build()
}

/// Drive a runtime through enough traffic that every default metric family
/// has nonzero data, then hand it back alongside its exposition text.
fn exercised_runtime() -> (ParallelLtc, String) {
    let mut p = ParallelLtc::new(config(), 2);
    for i in 0..2_000u64 {
        p.insert(i % 50);
    }
    p.end_period().expect("healthy runtime");
    p.sync().expect("healthy runtime");
    let text = p.obs().expect("obs on by default").render_prometheus();
    (p, text)
}

// ---------------------------------------------------------------------------
// Prometheus exposition validity and completeness.

#[test]
fn runtime_exposition_is_valid_and_complete() {
    let (_p, text) = exercised_runtime();
    validate_exposition(&text).expect("runtime exposition must be well-formed");
    for family in [
        "ltc_shard_queue_depth",
        "ltc_shard_queue_stalls_total",
        "ltc_shard_batches_total",
        "ltc_shard_records_total",
        "ltc_shard_batch_insert_ns",
        "ltc_shard_records_lost_total",
        "ltc_worker_restarts_total",
        "ltc_worker_degradations_total",
        "ltc_periods_total",
        "ltc_barrier_wait_ns",
        "ltc_checkpoint_save_ns",
        "ltc_checkpoint_restore_ns",
        "ltc_checkpoint_publishes_total",
        "ltc_checkpoint_fallbacks_total",
        "ltc_journal_dropped_events",
        "ltc_trace_dropped_spans",
        "ltc_trace_queued_spans",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family} ")),
            "family {family} missing from exposition:\n{text}"
        );
    }
    // Both shards report, and the record counters account for the stream.
    assert!(text.contains("ltc_shard_records_total{shard=\"0\"}"));
    assert!(text.contains("ltc_shard_records_total{shard=\"1\"}"));
    assert!(text.contains("ltc_periods_total 1\n"));
}

#[test]
fn journal_overflow_and_queue_depth_are_exported() {
    use ltc_core::obs::DEFAULT_JOURNAL_CAPACITY;
    let obs = RuntimeObs::new();
    // Overflow the journal: drop-newest refuses the excess and the render
    // path surfaces the loss as a gauge.
    let excess = 17u64;
    for i in 0..(DEFAULT_JOURNAL_CAPACITY as u64 + excess) {
        obs.journal().publish(EventKind::PeriodRollover, None, i);
    }
    let text = obs.render_prometheus();
    validate_exposition(&text).expect("overflowed journal still renders validly");
    assert!(
        text.contains(&format!("ltc_journal_dropped_events {excess}\n")),
        "journal drop count must be exported:\n{text}"
    );
    // The per-shard ring queue-depth gauge rides the same exposition.
    let (_p, runtime_text) = exercised_runtime();
    validate_exposition(&runtime_text).expect("runtime exposition stays valid");
    assert!(
        runtime_text.contains("ltc_shard_queue_depth{shard=\"0\"}"),
        "queue depth gauge must be exported per shard:\n{runtime_text}"
    );
    // JSON rendering carries the same gauge families.
    let json = obs.render_json();
    assert!(json.contains("ltc_journal_dropped_events"));
    assert!(json.contains("ltc_trace_dropped_spans"));
}

#[test]
fn shard_record_counters_sum_to_the_stream() {
    let (_p, text) = exercised_runtime();
    let total: u64 = text
        .lines()
        .filter(|l| l.starts_with("ltc_shard_records_total{"))
        .filter_map(|l| l.rsplit_once(' ').and_then(|(_, v)| v.parse::<u64>().ok()))
        .sum();
    assert_eq!(total, 2_000, "every routed record is counted:\n{text}");
}

#[test]
fn label_escaping_survives_the_full_render_path() {
    let reg = MetricsRegistry::new();
    reg.counter(
        "ltc_test_total",
        "Help with \\ backslash and\nnewline.",
        labels([("path", "C:\\logs\n\"prod\""), ("plain", "ok")]),
    )
    .inc();
    let text = ltc_core::obs::render_prometheus(&reg);
    validate_exposition(&text).expect("escaped labels must stay parseable");
    assert!(
        text.contains(r#"path="C:\\logs\n\"prod\"""#),
        "label escaping: {text}"
    );
    assert!(
        text.contains("# HELP ltc_test_total Help with \\\\ backslash and\\nnewline."),
        "help escaping: {text}"
    );
}

#[test]
fn histogram_buckets_are_cumulative_and_terminated() {
    let (_p, text) = exercised_runtime();
    // Check every histogram series in the real exposition: bucket counts
    // never decrease and the +Inf bucket equals _count. (validate_exposition
    // asserts this too — this is the independent re-derivation.)
    let mut last: Option<(String, u64)> = None;
    for line in text.lines() {
        let Some((name_part, value)) = line.rsplit_once(' ') else {
            continue;
        };
        if !name_part.contains("_bucket{") {
            last = None;
            continue;
        }
        let series: String = name_part
            .split("le=\"")
            .next()
            .unwrap_or_default()
            .to_string();
        let count: u64 = value.parse().expect("bucket count parses");
        if let Some((prev_series, prev_count)) = &last {
            if *prev_series == series {
                assert!(
                    count >= *prev_count,
                    "bucket counts must be cumulative: {line}"
                );
            }
        }
        last = Some((series, count));
    }
    assert!(
        text.contains("le=\"+Inf\""),
        "histograms must terminate at +Inf"
    );
}

#[test]
fn empty_registry_renders_empty_and_valid() {
    let reg = MetricsRegistry::new();
    let text = ltc_core::obs::render_prometheus(&reg);
    assert!(text.is_empty());
    validate_exposition(&text).expect("empty exposition is trivially valid");
    assert_eq!(ltc_core::obs::render_json(&reg), "{\"families\":[]}");
    serde_json::parse(&ltc_core::obs::render_json(&reg)).expect("empty JSON parses");
}

// ---------------------------------------------------------------------------
// JSON round-trip through a real parser.

fn family<'a>(doc: &'a Value, name: &str) -> &'a Value {
    let Some(Value::Arr(families)) = doc.get_field("families") else {
        panic!("families array missing");
    };
    families
        .iter()
        .find(|f| matches!(f.get_field("name"), Some(Value::Str(n)) if n == name))
        .unwrap_or_else(|| panic!("family {name} missing"))
}

#[test]
fn json_round_trips_and_matches_the_prometheus_view() {
    let (p, text) = exercised_runtime();
    let json = p.obs().expect("obs on").render_json();
    let doc = serde_json::parse(&json).expect("render_json must emit parseable JSON");

    // Counters in the JSON document equal the Prometheus samples.
    let records = family(&doc, "ltc_shard_records_total");
    let Some(Value::Arr(series)) = records.get_field("series") else {
        panic!("series array missing");
    };
    assert_eq!(series.len(), 2, "one series per shard");
    let mut total = 0u64;
    for s in series {
        let Some(Value::Num(v)) = s.get_field("value") else {
            panic!("counter value must be a number");
        };
        total += v.as_u64().expect("counter is a u64");
    }
    assert_eq!(total, 2_000, "JSON counters match the stream");

    // Histogram objects carry count/sum/buckets with a +Inf terminator.
    let hist = family(&doc, "ltc_shard_batch_insert_ns");
    let Some(Value::Arr(hseries)) = hist.get_field("series") else {
        panic!("series array missing");
    };
    let value = hseries[0].get_field("value").expect("value");
    let count = value
        .get_field("count")
        .and_then(Value::as_u64_opt)
        .expect("count");
    let Some(Value::Arr(buckets)) = value.get_field("buckets") else {
        panic!("buckets array missing");
    };
    let last = buckets.last().expect("at least one bucket");
    assert!(
        matches!(last.get_field("le"), Some(Value::Str(le)) if le == "+Inf"),
        "last JSON bucket is +Inf"
    );
    assert_eq!(
        last.get_field("count").and_then(Value::as_u64_opt),
        Some(count),
        "+Inf bucket equals count"
    );

    // The Prometheus view agrees on the histogram count.
    let prom_count: u64 = text
        .lines()
        .filter(|l| l.starts_with("ltc_shard_batch_insert_ns_count"))
        .filter_map(|l| l.rsplit_once(' ').and_then(|(_, v)| v.parse::<u64>().ok()))
        .sum();
    let json_count: u64 = hseries
        .iter()
        .filter_map(|s| s.get_field("value")?.get_field("count")?.as_u64_opt())
        .sum();
    assert_eq!(prom_count, json_count, "both views agree");
}

/// Accessor shim: the vendored `serde::Value` exposes numbers through
/// `Number`; flatten to `Option<u64>` for test assertions.
trait AsU64 {
    fn as_u64_opt(&self) -> Option<u64>;
}

impl AsU64 for Value {
    fn as_u64_opt(&self) -> Option<u64> {
        match self {
            Value::Num(n) => n.as_u64(),
            _ => None,
        }
    }
}

#[test]
fn events_json_round_trips() {
    let journal = EventJournal::new();
    journal.publish(EventKind::WorkerFault, Some(1), 0);
    journal.publish(EventKind::CheckpointPublish, None, 9);
    let json = render_events_json(&journal.drain());
    let doc = serde_json::parse(&json).expect("events JSON parses");
    let Value::Arr(events) = doc else {
        panic!("events must be an array");
    };
    assert_eq!(events.len(), 2);
    assert!(matches!(events[0].get_field("kind"), Some(Value::Str(k)) if k == "worker_fault"));
    assert!(matches!(events[1].get_field("shard"), Some(Value::Null)));
}

// ---------------------------------------------------------------------------
// Journal drop semantics.

#[test]
fn journal_drops_newest_on_overflow_and_counts_drops() {
    let journal = EventJournal::with_capacity(8);
    let mut published = 0u64;
    for i in 0..20u64 {
        if journal
            .publish(EventKind::PeriodRollover, None, i)
            .is_some()
        {
            published += 1;
        }
    }
    assert_eq!(published, 8, "ring holds exactly its capacity");
    assert_eq!(journal.dropped(), 12, "overflow is counted, not silent");
    let events = journal.drain();
    assert_eq!(events.len(), 8);
    // Drop-newest: the *oldest* events survive, in order, with contiguous
    // sequence numbers.
    for (i, event) in events.iter().enumerate() {
        assert_eq!(event.seq, i as u64);
        assert_eq!(event.detail, i as u64);
    }
    // Draining frees the ring for new events.
    assert!(journal.publish(EventKind::Rollback, Some(0), 1).is_some());
    assert_eq!(journal.drain().len(), 1);
}

#[test]
fn runtime_journal_is_drainable_while_workers_run() {
    let mut p = ParallelLtc::new(config(), 2);
    for round in 0..4u64 {
        for i in 0..1_000u64 {
            p.insert(i % 50);
        }
        p.end_period().expect("healthy runtime");
        // Drain mid-stream: workers are live, no stop required.
        let events = p.obs().expect("obs on").journal().drain();
        assert!(
            events
                .iter()
                .any(|e| e.kind == EventKind::PeriodRollover && e.detail == round + 1),
            "rollover {round} must be journaled: {events:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Shared registry across runtimes; metrics-off mode.

#[test]
fn two_runtimes_can_share_one_registry() {
    let obs = Arc::new(RuntimeObs::new());
    let mut a = ParallelLtc::with_observability(
        config(),
        1,
        64,
        FaultPolicy::default(),
        Some(Arc::clone(&obs)),
    );
    let mut b = ParallelLtc::with_observability(
        config(),
        1,
        64,
        FaultPolicy::default(),
        Some(Arc::clone(&obs)),
    );
    for i in 0..100u64 {
        a.insert(i);
        b.insert(i);
    }
    a.sync().expect("healthy");
    b.sync().expect("healthy");
    let text = obs.render_prometheus();
    validate_exposition(&text).expect("shared registry renders cleanly");
    let total: u64 = text
        .lines()
        .filter(|l| l.starts_with("ltc_shard_records_total{"))
        .filter_map(|l| l.rsplit_once(' ').and_then(|(_, v)| v.parse::<u64>().ok()))
        .sum();
    assert_eq!(total, 200, "both runtimes aggregate into one registry");
}

#[test]
fn metrics_off_runtime_still_streams_and_aggregates_stats() {
    let mut p = ParallelLtc::with_observability(config(), 2, 64, FaultPolicy::default(), None);
    for i in 0..1_000u64 {
        p.insert(i % 50);
    }
    p.end_period().expect("healthy runtime");
    assert!(p.obs().is_none());
    let stats = p.stats();
    assert_eq!(stats.inserts, 1_000, "stats work without observability");
    assert_eq!(stats.periods, 1);
    p.finish().expect("healthy runtime");
}

// ---------------------------------------------------------------------------
// Overhead smoke test: metrics on against metrics off. This guard only
// catches gross regressions — e.g. a lock or syscall sneaking onto the
// per-batch path — without being sensitive to CI noise. The tracer's cost
// is measured by perfbench's `obs.tracing_overhead_pct` (`--trace 1`).

#[test]
fn instrumentation_overhead_stays_within_smoke_bound() {
    const RECORDS: u64 = 400_000;
    const BATCH: usize = 256;
    let run = |obs: Option<Arc<RuntimeObs>>| -> std::time::Duration {
        let mut p =
            ParallelLtc::with_observability(config(), 2, BATCH, FaultPolicy::default(), obs);
        let ids: Vec<u64> = (0..RECORDS).map(|i| i % 10_000).collect();
        let start = std::time::Instant::now();
        for chunk in ids.chunks(BATCH) {
            p.insert_batch(chunk);
        }
        p.sync().expect("healthy runtime");
        let elapsed = start.elapsed();
        p.finish().expect("healthy runtime");
        elapsed
    };
    // Warm up, then interleave measurements to damp frequency scaling.
    let _ = run(None);
    let mut on = std::time::Duration::ZERO;
    let mut off = std::time::Duration::ZERO;
    for _ in 0..3 {
        off += run(None);
        on += run(Some(Arc::new(RuntimeObs::new())));
    }
    // The smoke bound is 75% so a noisy shared runner cannot flake this,
    // while a stray lock or SeqCst-per-record (an order of magnitude)
    // still trips it.
    assert!(
        on.as_secs_f64() <= off.as_secs_f64() * 1.75,
        "instrumentation overhead too high: on={on:?} off={off:?}"
    );
}
