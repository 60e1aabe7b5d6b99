//! The end-to-end run: alternating `ParallelLtc` and scalar passes until
//! the run length is spent, each pair checked against each other, then
//! the probes that time what the passes do not (queries on the ingest
//! workloads, checkpoints on the non-durable ones, restores on all).

use crate::alloc;
use crate::host;
use crate::pass::{self, ms, Answers, Log, Tally};
use crate::report::Report;
use crate::stats::{describe, median};
use crate::system::{ParallelSystem, ScalarSystem, System};
use crate::workload::{Kind, Workload, ESTIMATE_BLOCK, K, SLICE};
use ltc_common::{Estimate, ItemId};
use ltc_core::ParallelLtc;
use std::path::Path;
use std::time::Instant;

/// Setups per run: one per parallel pass, topped up to this many.
const SETUPS: usize = 40;
/// Query-probe rounds and rounds per window.
const QUERY_ROUNDS: usize = 128;
const QUERY_WINDOW: usize = 8;
/// State-probe checkpoints and checkpoints per window.
const STATE_ROUNDS: usize = 320;
const STATE_WINDOW: usize = 8;
/// Restores and restores per window.
const RESTORES: usize = 48;
const RESTORE_WINDOW: usize = 4;

/// Everything one run measured.
pub struct Measured {
    pub parallel: Log,
    pub scalar: Log,
    pub peak_bytes: Vec<f64>,
    pub pairs: usize,
    pub precision: f64,
    pub are: f64,
}

/// Bitwise equality of two top-k answers.
pub fn same_top(a: &[Estimate], b: &[Estimate]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.id == y.id && x.value.to_bits() == y.value.to_bits())
}

fn same_sample(a: &[Option<f64>], b: &[Option<f64>]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.map(f64::to_bits) == y.map(f64::to_bits))
}

/// Parallel ≡ scalar on the final answers, bit for bit.
pub fn check_pair(p: &Answers, s: &Answers, tally: &mut Tally) {
    tally.check(!p.top.is_empty(), || "parallel top-k is empty".to_string());
    tally.check(same_top(&p.top, &s.top), || {
        "parallel top-k differs from the scalar Ltc's".to_string()
    });
    tally.check(same_sample(&p.sample, &s.sample), || {
        "parallel estimates differ from the scalar Ltc's".to_string()
    });
}

/// `health()` must report every shard healthy with no records lost.
pub fn check_health(d: &ParallelSystem, tally: &mut Tally) {
    match d.health() {
        Ok(0) => tally.check(true, String::new),
        Ok(lost) => tally.fail(lost, format!("health(): {lost} records lost")),
        Err(fault) => tally.fail(1, format!("health(): lossy shard: {fault}")),
    }
}

/// Precision and ARE of `top` against the exact oracle (paper §V-A).
pub fn accuracy(w: &Workload, top: &[Estimate]) -> (f64, f64) {
    let truth = w.oracle.top_k(K, &w.weights);
    (
        ltc_eval::precision(top, &truth),
        ltc_eval::are(top, K, &w.oracle, &w.weights),
    )
}

/// Empty `dir` and build a runtime (with durability where the workload
/// uses it); returns the system and its set-up time in seconds.
pub fn setup(w: &Workload, dir: &Path, capture: bool) -> Result<(ParallelSystem, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let t = Instant::now();
    let durable = w.kind.durable().then_some(dir);
    let d = ParallelSystem::new(w, durable, capture)?;
    Ok((d, t.elapsed().as_secs_f64()))
}

/// A slice of the stream for query-probe round `r`.
pub fn probe_slice(records: &[ItemId], r: usize) -> &[ItemId] {
    let span = records.len().saturating_sub(SLICE).max(1);
    let start = r.wrapping_mul(7919 * SLICE) % span;
    &records[start..(start + SLICE).min(records.len())]
}

pub fn query_probe(d: &mut ParallelSystem, w: &Workload, log: &mut Log, tally: &mut Tally) {
    let mut ids = Vec::with_capacity(ESTIMATE_BLOCK);
    for r in 0..QUERY_ROUNDS {
        let slice = probe_slice(&w.stream.records, r);
        pass::query_round(d, w, slice, r, &mut ids, log, tally);
        if (r + 1) % QUERY_WINDOW == 0 {
            log.topk.close_window();
            log.estimate.close_window();
        }
    }
}

/// Attach durability to a non-durable workload's runtime and time
/// checkpoints, each after one more period of the stream.
pub fn state_probe(
    d: &mut ParallelSystem,
    w: &Workload,
    dir: &Path,
    log: &mut Log,
    tally: &mut Tally,
) {
    let _ = std::fs::remove_dir_all(dir);
    if tally.note(1, d.attach(dir)).is_none() {
        return;
    }
    let periods: Vec<&[ItemId]> = w.stream.periods().collect();
    for r in 0..STATE_ROUNDS {
        d.insert_batch(periods[r % periods.len()]);
        let closed = d.end_period();
        tally.note(2, closed);
        let t = Instant::now();
        let saved = d.checkpoint();
        log.checkpoint.push(log.latency(ms(t)));
        tally.note(1, saved);
        if (r + 1) % STATE_WINDOW == 0 {
            log.checkpoint.close_window();
        }
    }
}

/// Restore the newest checkpoint into fresh runtimes; each must answer
/// the live runtime's top-k.
pub fn restore_probe(d: &mut ParallelSystem, w: &Workload, log: &mut Log, tally: &mut Tally) {
    let Some(live) = tally.note(1, d.top_k()) else {
        return;
    };
    let Some(service) = d.service.as_ref() else {
        tally.fail(1, "restore probe without a durability service".to_string());
        return;
    };
    for r in 0..RESTORES {
        let mut fresh = ParallelLtc::new(w.config, 1);
        let t = Instant::now();
        let restored = fresh
            .restore_from(service.store())
            .map_err(|e| e.to_string());
        log.restore.push(log.latency(ms(t)));
        tally.note(1, restored);
        let top = tally.note(1, fresh.try_top_k(K).map_err(|e| e.to_string()));
        tally.check(top.is_some_and(|top| same_top(&top, &live)), || {
            "restored top-k differs from the live one".to_string()
        });
        if (r + 1) % RESTORE_WINDOW == 0 {
            log.restore.close_window();
        }
    }
}

/// The probes after the passes, on the last pass's runtime: queries where
/// the passes make none, checkpoints where they make none, and restores on
/// every workload. Each phase re-reads the host's speed first.
pub fn probes(d: &mut ParallelSystem, w: &Workload, dir: &Path, log: &mut Log, tally: &mut Tally) {
    #[derive(Clone, Copy)]
    enum Phase {
        Query,
        State,
        Restore,
    }
    let phases: &[Phase] = match w.kind {
        Kind::NetworkDurable => &[Phase::Restore, Phase::Query],
        Kind::CaidaIngest => &[Phase::Query, Phase::State, Phase::Restore],
        Kind::SocialQueries => &[Phase::State, Phase::Restore],
    };
    for &phase in phases {
        log.slowdown = host::slowdowns().1;
        match phase {
            Phase::Query => query_probe(d, w, log, tally),
            Phase::State => state_probe(d, w, dir, log, tally),
            Phase::Restore => restore_probe(d, w, log, tally),
        }
    }
}

pub fn run(
    w: &Workload,
    seconds: f64,
    dir: &Path,
    break_expected: bool,
    tally: &mut Tally,
) -> Measured {
    let mut m = Measured {
        parallel: Log::default(),
        scalar: Log::default(),
        peak_bytes: Vec::new(),
        pairs: 0,
        precision: f64::NAN,
        are: f64::NAN,
    };
    let start = Instant::now();
    let mut last: Option<(ParallelSystem, Answers)> = None;
    loop {
        // Drop the previous runtime before measuring the next one's heap.
        drop(last.take());
        m.parallel.slowdown = host::slowdowns().1;
        let base = alloc::begin_peak();
        let Some((mut d, secs)) = tally.note(1, setup(w, dir, false)) else {
            break;
        };
        m.parallel.setup.push(m.parallel.latency(secs));
        pass::run(&mut d, w, &mut m.parallel, tally, w.kind.durable());
        let p = pass::answers(&mut d, w, tally);
        if w.kind.durable() {
            // The newest frame covers the finished stream: restores must
            // reproduce the final answers.
            tally.note(1, d.checkpoint());
        }
        m.peak_bytes.push(alloc::peak_since(base) as f64);

        m.scalar.slowdown = host::slowdowns().0;
        let mut s = ScalarSystem::new(w);
        pass::run(&mut s, w, &mut m.scalar, tally, false);
        let expected = pass::answers(&mut s, w, tally).broken_if(break_expected);
        check_pair(&p, &expected, tally);
        check_health(&d, tally);
        m.pairs += 1;
        last = Some((d, p));
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let Some((mut d, answers)) = last else {
        return m;
    };
    (m.precision, m.are) = accuracy(w, &answers.top);
    tally.check(
        (0.0..=1.0).contains(&m.precision) && m.are.is_finite() && m.are >= 0.0,
        || format!("precision {} / ARE {} out of range", m.precision, m.are),
    );

    probes(&mut d, w, dir, &mut m.parallel, tally);
    check_health(&d, tally);
    drop(d);

    let log = &mut m.parallel;
    while log.setup.len() < SETUPS {
        log.slowdown = host::slowdowns().1;
        match tally.note(1, setup(w, dir, false)) {
            Some((_, secs)) => log.setup.push(log.latency(secs)),
            None => break,
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    m
}

/// The end-to-end metrics of `m`, plus diagnostics on stdout.
pub fn report(w: &Workload, m: &Measured) -> Report {
    let mut r = Report::default();
    let p = &m.parallel;
    r.metric("ingest_mrps", p.rates.figure(), "Mrec/s");
    r.metric("scalar_mrps", m.scalar.rates.figure(), "Mrec/s");
    r.metric("close_ms", p.close.figure(), "ms");
    r.metric("topk_ms", p.topk.figure(), "ms");
    r.metric("estimate_us", p.estimate.figure(), "us");
    r.metric("checkpoint_ms", p.checkpoint.figure(), "ms");
    r.metric("restore_ms", p.restore.figure(), "ms");
    r.metric("precision", m.precision, "ratio");
    r.metric(
        "peak_heap_mb",
        median(&m.peak_bytes) / (1024.0 * 1024.0),
        "MB",
    );
    r.metric("setup_s", median(&p.setup), "s");

    println!(
        "workload {} pairs={} precision={} are={}",
        w.kind.name(),
        m.pairs,
        m.precision,
        m.are
    );
    for (name, samples) in [
        ("window_mrps.parallel", p.rates.samples()),
        ("window_mrps.scalar", m.scalar.rates.samples()),
        ("close_ms", p.close.samples()),
        ("scalar_close_ms", m.scalar.close.samples()),
        ("topk_ms", p.topk.samples()),
        ("estimate_us", p.estimate.samples()),
        ("checkpoint_ms", p.checkpoint.samples()),
        ("restore_ms", p.restore.samples()),
        ("setup_s", &p.setup[..]),
        ("peak_heap_bytes", &m.peak_bytes[..]),
    ] {
        println!("diag {name} {}", describe(samples));
    }
    host::print("end");
    r
}
