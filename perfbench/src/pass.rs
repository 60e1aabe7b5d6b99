//! One pass: the whole generated stream through a system, period by period,
//! with the timings a run reports. Windows are [`WINDOW_PERIODS`] periods.

use crate::stats::{Rates, Timing};
use crate::system::System;
use crate::workload::{Workload, ESTIMATE_BLOCK, K, SLICE, WINDOW_PERIODS};
use ltc_common::{Estimate, ItemId};
use std::time::Instant;

/// Operations attempted and failed, with the first few failure messages.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    /// Count `n` operations whose outcome is `result`.
    pub fn note<T>(&mut self, n: u64, result: Result<T, String>) -> Option<T> {
        self.attempted += n;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(n, e);
                None
            }
        }
    }

    /// A correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(1, what());
        }
    }

    pub fn fail(&mut self, n: u64, message: String) {
        self.failed += n;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }
}

/// Timings of one system (parallel or scalar) across its passes, scaled
/// to the reference host speed (see [`crate::host`]).
pub struct Log {
    /// The host's slowdown for the samples being pushed now; refresh it
    /// with [`crate::host::slowdown`] before each pass or phase.
    pub slowdown: f64,
    /// Records per second of caller wall time, per window (Mrec/s).
    pub rates: Rates,
    /// `end_period` (ms).
    pub close: Timing,
    /// Slice hand-off through `try_top_k` (ms).
    pub topk: Timing,
    /// One estimate call, from a timed block (µs).
    pub estimate: Timing,
    /// `checkpoint_now` (ms).
    pub checkpoint: Timing,
    /// `restore_from` into a fresh runtime (ms).
    pub restore: Timing,
    /// Runtime construction (s).
    pub setup: Vec<f64>,
}

impl Default for Log {
    fn default() -> Self {
        Self {
            slowdown: 1.0,
            rates: Rates::default(),
            close: Timing::default(),
            topk: Timing::default(),
            estimate: Timing::default(),
            checkpoint: Timing::default(),
            restore: Timing::default(),
            setup: Vec::new(),
        }
    }
}

impl Log {
    /// A latency sample (ms or µs), scaled to the reference speed.
    pub fn latency(&self, raw: f64) -> f64 {
        raw / self.slowdown
    }

    fn close_windows(&mut self) {
        self.close.close_window();
        self.topk.close_window();
        self.estimate.close_window();
        self.checkpoint.close_window();
    }
}

pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A slice handed to `insert_batch`, then a top-k and an estimate block,
/// each timed into `log`.
pub fn query_round<D: System>(
    d: &mut D,
    w: &Workload,
    slice: &[ItemId],
    round: usize,
    ids: &mut Vec<ItemId>,
    log: &mut Log,
    tally: &mut Tally,
) {
    let t = Instant::now();
    d.insert_batch(slice);
    let top = d.top_k();
    log.topk.push(log.latency(ms(t)));
    tally.note(2, top);
    w.estimate_ids(slice, round, ids);
    let t = Instant::now();
    let r = d.estimate_block(ids);
    log.estimate
        .push(log.latency(ms(t) * 1e3 / ESTIMATE_BLOCK as f64));
    tally.note(ESTIMATE_BLOCK as u64, r);
}

/// Drive the whole stream through `d`, with a checkpoint after every
/// [`WINDOW_PERIODS`]th period when `checkpoints` is set.
pub fn run<D: System>(
    d: &mut D,
    w: &Workload,
    log: &mut Log,
    tally: &mut Tally,
    checkpoints: bool,
) {
    let mut ids = Vec::with_capacity(ESTIMATE_BLOCK);
    let mut round = 0usize;
    let periods = w.stream.period_sizes.len();
    let mut window_start = Instant::now();
    let mut window_records = 0usize;
    for (p, period) in w.stream.periods().enumerate() {
        if w.kind.queries_in_loop() {
            for slice in period.chunks(SLICE) {
                query_round(d, w, slice, round, &mut ids, log, tally);
                round += 1;
            }
        } else {
            d.insert_batch(period);
            tally.attempted += 1;
        }
        let t = Instant::now();
        let r = d.end_period();
        log.close.push(log.latency(ms(t)));
        tally.note(1, r);
        window_records += period.len();
        let boundary = (p + 1) % WINDOW_PERIODS == 0;
        if boundary && checkpoints {
            let t = Instant::now();
            let r = d.checkpoint();
            log.checkpoint.push(log.latency(ms(t)));
            tally.note(1, r);
        }
        if boundary || p + 1 == periods {
            let secs = window_start.elapsed().as_secs_f64();
            log.rates
                .push(window_records as f64 / secs / 1e6 * log.slowdown);
            log.close_windows();
            window_start = Instant::now();
            window_records = 0;
        }
    }
}

/// The answers a pass is checked on: the final top-k and estimates of a
/// fixed sample of present and absent ids, after `finish`.
pub struct Answers {
    pub top: Vec<Estimate>,
    pub sample: Vec<Option<f64>>,
}

impl Answers {
    /// These answers, with the top estimate's value changed when `broken`
    /// is set: a deliberately wrong expected answer that must fail a run.
    pub fn broken_if(mut self, broken: bool) -> Self {
        if let (true, Some(first)) = (broken, self.top.first_mut()) {
            first.value += 1.0;
        }
        self
    }
}

pub fn sample_ids(w: &Workload) -> Vec<ItemId> {
    let step = (w.stream.records.len() / 256).max(1);
    let mut ids: Vec<ItemId> = w.stream.records.iter().step_by(step).copied().collect();
    ids.extend(w.absent.iter().take(64));
    ids
}

pub fn answers<D: System>(d: &mut D, w: &Workload, tally: &mut Tally) -> Answers {
    tally.note(1, d.finish());
    let top = tally.note(1, d.top_k()).unwrap_or_default();
    let ids = sample_ids(w);
    let sample = ids
        .iter()
        .map(|&id| tally.note(1, d.estimate(id)).flatten())
        .collect();
    debug_assert!(top.len() <= K);
    Answers { top, sample }
}
