//! The traced run: per-layer metrics, never used for the end-to-end ones.
//!
//! * **Isolation** — each layer driven alone, on the caller thread, over
//!   the same stream: the routing hash, the routing partition, the SPSC
//!   ring, the `Ltc` table (insert, period close, snapshots, queries) and
//!   the checkpoint codec and store.
//! * **In situ** — one pass through the shipped runtime with a
//!   benchmark-side span around every public call, the runtime's own span
//!   rings drained at every barrier and checkpoint, and its counters read
//!   afterwards. Self times of those spans make the ledger: the share of
//!   the pass's caller wall time each layer covers, and the residual no
//!   layer covers.
//! * **Overhead** — alternating passes with the runtime's tracer on (as
//!   shipped) and off, for the tracer's cost.

use crate::e2e::{self, accuracy, check_health, check_pair, same_top};
use crate::host;
use crate::pass::{self, Answers, Log, Tally};
use crate::report::Report;
use crate::stats::{describe, median, quantile};
use crate::system::{BenchSpan, ParallelSystem, System};
use crate::workload::{Workload, ESTIMATE_BLOCK, K, WINDOW_PERIODS};
use ltc_common::{ItemId, SignificanceQuery};
use ltc_core::checkpoint::{config_fingerprint, configs_fingerprint, decode_frame, encode_frame};
use ltc_core::obs::trace::names;
use ltc_core::obs::{render_chrome_trace, validate_chrome_trace, Span};
use ltc_core::pipeline::DEFAULT_BATCH_SIZE;
use ltc_core::sharded::shard_of_id;
use ltc_core::{Checkpointer, Ltc, ShardedLtc, SpscRing};
use ltc_hash::bob_hash_u64;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Repetitions of each isolated micro-measurement.
const REPS: usize = 5;

/// Lower quartile of `reps` timings of `f`, in nanoseconds.
fn time_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    quantile(&samples, 0.25)
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Per-layer numbers measured with each layer alone.
#[derive(Default)]
struct Isolated {
    hash_ns_per_rec: f64,
    route_ns_per_rec: f64,
    handoff_ns_per_batch: f64,
    insert_ns_per_rec: f64,
    end_period_us: Vec<f64>,
    full_snapshot_us: Vec<f64>,
    full_snapshot_bytes: f64,
    delta_snapshot_us: Vec<f64>,
    dirty_fraction: Vec<f64>,
    hit_ratio: f64,
    admissions_per_decrement: f64,
    top_k_us: f64,
    estimate_ns: f64,
    encode_ms: f64,
    save_ms: f64,
    frame_bytes: f64,
    load_ms: f64,
    decode_apply_ms: f64,
}

/// The routing hash and the routing partition, as `insert_batch` runs
/// them per record, over the whole stream.
fn isolate_routing(records: &[ItemId], iso: &mut Isolated) {
    let n = records.len() as f64;
    iso.hash_ns_per_rec = time_ns(REPS, || {
        let mut acc = 0u64;
        for &id in records {
            acc = acc.wrapping_add(bob_hash_u64(black_box(id), 0x5aa2_d001));
        }
        black_box(acc);
    }) / n;
    iso.route_ns_per_rec = time_ns(REPS, || {
        let mut lanes = vec![Vec::with_capacity(DEFAULT_BATCH_SIZE)];
        for &id in records {
            let lane = &mut lanes[shard_of_id(black_box(id), 1)];
            lane.push(id);
            if lane.len() >= DEFAULT_BATCH_SIZE {
                let batch = std::mem::replace(lane, Vec::with_capacity(DEFAULT_BATCH_SIZE));
                black_box(batch);
            }
        }
        black_box(lanes);
    }) / n;
}

/// Batches through an SPSC ring to a consumer thread, as the router hands
/// them to a worker (the consumer only drops them).
fn isolate_spsc(records: &[ItemId], iso: &mut Isolated) {
    let head = &records[..records.len().min(1 << 21)];
    let batches = head.chunks(DEFAULT_BATCH_SIZE).count().max(1);
    iso.handoff_ns_per_batch = time_ns(REPS, || {
        let ring: SpscRing<Vec<ItemId>> = SpscRing::with_capacity(8);
        std::thread::scope(|s| {
            let consumer = s.spawn(|| {
                while let Some(batch) = ring.pop() {
                    black_box(batch);
                }
            });
            for chunk in head.chunks(DEFAULT_BATCH_SIZE) {
                ring.push(chunk.to_vec());
            }
            ring.poison();
            consumer.join().expect("the consumer does not panic");
        });
    }) / batches as f64;
}

/// The table alone: the stream in 256-record batches, period by period,
/// with the period close and both snapshot kinds timed at every boundary.
/// Returns the finished table and its checkpoint frame.
fn isolate_table(w: &Workload, iso: &mut Isolated, tally: &mut Tally) -> (Ltc, Vec<u8>) {
    let fresh = || {
        ShardedLtc::new(w.config, 1)
            .into_shards()
            .pop()
            .expect("one shard")
    };
    let mut ltc = fresh();
    let buckets = w.config.buckets as f64;
    let mut insert_ns = 0u128;
    for period in w.stream.periods() {
        ltc.begin_delta_epoch();
        let t = Instant::now();
        for batch in period.chunks(DEFAULT_BATCH_SIZE) {
            ltc.insert_batch(batch);
        }
        insert_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        ltc.end_period();
        iso.end_period_us.push(t.elapsed().as_secs_f64() * 1e6);
        iso.dirty_fraction
            .push(ltc.dirty_bucket_count() as f64 / buckets);
        let t = Instant::now();
        black_box(ltc.to_snapshot());
        iso.full_snapshot_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        black_box(ltc.to_delta_snapshot());
        iso.delta_snapshot_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    ltc.finalize();
    iso.insert_ns_per_rec = insert_ns as f64 / w.stream.records.len() as f64;
    let snapshot = ltc.to_snapshot();
    iso.full_snapshot_bytes = snapshot.len() as f64;
    let stats = ltc.stats();
    iso.hit_ratio = stats.hit_rate();
    iso.admissions_per_decrement = stats.admissions as f64 / stats.decrements.max(1) as f64;

    let calls = if w.config.total_cells() > 100_000 {
        2
    } else {
        32
    };
    iso.top_k_us = time_ns(REPS, || {
        for _ in 0..calls {
            black_box(ltc.top_k(K));
        }
    }) / calls as f64
        / 1e3;
    let mut ids = Vec::with_capacity(ESTIMATE_BLOCK);
    w.estimate_ids(
        &w.stream.records[..ESTIMATE_BLOCK.min(w.stream.records.len())],
        0,
        &mut ids,
    );
    iso.estimate_ns = time_ns(4 * REPS, || {
        for &id in &ids {
            black_box(ltc.estimate(id));
        }
    }) / ESTIMATE_BLOCK as f64;

    // The checkpoint codec and store, on this table's full frame.
    let fingerprint = config_fingerprint(ltc.config());
    let sections = [snapshot];
    let mut frame = Vec::new();
    iso.encode_ms = time_ns(REPS, || frame = encode_frame(fingerprint, &sections)) / 1e6;
    iso.frame_bytes = frame.len() as f64;
    let mut restored = fresh();
    let mut ok = true;
    iso.decode_apply_ms = time_ns(REPS, || ok &= restored.restore_checkpoint(&frame).is_ok()) / 1e6;
    tally.check(ok && same_top(&restored.top_k(K), &ltc.top_k(K)), || {
        "a table restored from its own frame answers differently".to_string()
    });
    (ltc, frame)
}

fn isolate_store(frame_dir: &Path, frame: &[u8], iso: &mut Isolated, tally: &mut Tally) {
    let _ = std::fs::remove_dir_all(frame_dir);
    let store = match Checkpointer::new(frame_dir) {
        Ok(store) => store,
        Err(e) => {
            tally.fail(1, format!("checkpoint store: {e}"));
            return;
        }
    };
    let mut generation = 0;
    iso.save_ms = time_ns(REPS, || {
        generation = tally
            .note(1, store.save(frame).map_err(|e| e.to_string()))
            .unwrap_or(0);
    }) / 1e6;
    let mut loaded = Vec::new();
    iso.load_ms = time_ns(REPS, || {
        loaded = tally
            .note(1, store.load(generation).map_err(|e| e.to_string()))
            .unwrap_or_default();
    }) / 1e6;
    tally.check(loaded == frame, || {
        "a saved frame loads back changed".to_string()
    });
    let _ = std::fs::remove_dir_all(frame_dir);
}

/// One thread's spans nested by containment; aggregates per label.
#[derive(Default, Clone, Copy)]
struct Agg {
    count: u64,
    total_ns: f64,
    self_ns: f64,
}

struct Node {
    label: &'static str,
    parent: Option<&'static str>,
    start: u64,
    dur: u64,
    child_ns: u64,
}

/// Nest one thread's spans by containment and return per-label totals and
/// self times (duration minus child coverage), plus every span with its
/// parent's label.
fn nest(mut spans: Vec<(&'static str, u64, u64)>) -> (BTreeMap<&'static str, Agg>, Vec<Node>) {
    spans.sort_by(|a, b| a.1.cmp(&b.1).then(b.2.cmp(&a.2)));
    let mut nodes: Vec<Node> = Vec::with_capacity(spans.len());
    let mut stack: Vec<usize> = Vec::new();
    for (label, start, dur) in spans {
        let end = start + dur;
        while let Some(&top) = stack.last() {
            let t = &nodes[top];
            if t.start + t.dur <= start || end > t.start + t.dur {
                stack.pop();
            } else {
                break;
            }
        }
        let parent = stack.last().copied();
        if let Some(p) = parent {
            nodes[p].child_ns += dur;
        }
        nodes.push(Node {
            label,
            parent: parent.map(|p| nodes[p].label),
            start,
            dur,
            child_ns: 0,
        });
        stack.push(nodes.len() - 1);
    }
    let mut by_label: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for n in &nodes {
        let agg = by_label.entry(n.label).or_default();
        agg.count += 1;
        agg.total_ns += n.dur as f64;
        agg.self_ns += n.dur.saturating_sub(n.child_ns) as f64;
    }
    (by_label, nodes)
}

fn track_of(tracks: &[(u64, u64)], kind: u64) -> Vec<u64> {
    tracks
        .iter()
        .filter(|(_, name)| *name == kind)
        .map(|(index, _)| *index)
        .collect()
}

fn durations(spans: &[Span], tracks: &[u64], names: &[u64]) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| tracks.contains(&s.track) && names.contains(&s.name))
        .map(|s| s.dur_ns as f64)
        .collect()
}

/// Export the runtime spans of the pass's first window as a Chrome trace
/// and validate it.
fn export_window(
    spans: &[Span],
    bench: &[BenchSpan],
    pass_start: u64,
    tracks: &[(u64, u64)],
    path: &Path,
    tally: &mut Tally,
) {
    let window_end = bench
        .iter()
        .filter(|b| b.name == "end_period")
        .nth(WINDOW_PERIODS - 1)
        .or_else(|| bench.iter().rfind(|b| b.name == "end_period"))
        .map_or(u64::MAX, |b| b.start_ns + b.dur_ns);
    let window: Vec<Span> = spans
        .iter()
        .filter(|s| s.start_ns >= pass_start && s.start_ns <= window_end)
        .cloned()
        .collect();
    let text = render_chrome_trace(&window, tracks);
    let valid = validate_chrome_trace(&text);
    tally.check(valid.is_ok() && !window.is_empty(), || {
        format!(
            "chrome trace of one window: {valid:?}, {} spans",
            window.len()
        )
    });
    match std::fs::write(path, &text) {
        Ok(()) => println!(
            "trace window spans={} bytes={} file={}",
            window.len(),
            text.len(),
            path.display()
        ),
        Err(e) => tally.fail(1, format!("writing {}: {e}", path.display())),
    }
}

pub fn run(
    w: &Workload,
    seconds: f64,
    dir: &Path,
    out_dir: &Path,
    break_expected: bool,
    tally: &mut Tally,
) -> Report {
    let start = Instant::now();
    let mut iso = Isolated::default();
    isolate_routing(&w.stream.records, &mut iso);
    isolate_spsc(&w.stream.records, &mut iso);
    let (table, frame) = isolate_table(w, &mut iso, tally);
    isolate_store(&dir.with_extension("frames"), &frame, &mut iso, tally);

    // In situ: one traced pass, checked against the isolated table (a
    // scalar `Ltc` fed the same stream and boundaries).
    let mut log = Log::default();
    let Some((mut d, _)) = tally.note(1, e2e::setup(w, dir, true)) else {
        return Report::default();
    };
    let tracer = d.capture.as_ref().expect("traced system").tracer().clone();
    let pass_start = tracer.now_ns();
    pass::run(&mut d, w, &mut log, tally, w.kind.durable());
    let pass_wall = (tracer.now_ns() - pass_start) as f64;
    let pass_bench = d.capture.as_ref().map(|c| c.bench.len()).unwrap_or(0);
    let shard = d.rt.obs().map(|o| o.shard(0));
    let (stalls, batches, routed) = shard.as_ref().map_or((0, 0, 0), |s| {
        (s.queue_stalls.get(), s.batches.get(), s.records.get())
    });
    let answers = pass::answers(&mut d, w, tally);
    let expected = Answers {
        top: table.top_k(K),
        sample: pass::sample_ids(w)
            .iter()
            .map(|&id| table.estimate(id))
            .collect(),
    };
    check_pair(&answers, &expected.broken_if(break_expected), tally);
    let (_, are) = accuracy(w, &answers.top);

    // Probes, traced like the pass: durability (and its spans) on every
    // workload, restores checked against the live answers.
    if w.kind.durable() {
        tally.note(1, d.checkpoint());
    }
    e2e::probes(&mut d, w, dir, &mut log, tally);
    check_health(&d, tally);
    let status = d.service.as_ref().map(|s| s.status()).unwrap_or_default();
    let delta_bytes = frame_sizes(&d, w);
    let capture = d.capture.take().expect("traced system");
    let tracks = tracer.tracks();
    let dropped = tracer.dropped();
    drop(d);

    let router = track_of(&tracks, names::TRACK_ROUTER);
    let workers = track_of(&tracks, names::TRACK_SHARD);
    let durability = track_of(&tracks, names::TRACK_DURABILITY);
    export_window(
        &capture.runtime,
        &capture.bench,
        pass_start,
        &tracks,
        &out_dir.join(format!("{}.window.trace.json", w.kind.name())),
        tally,
    );

    // The ledger of the pass: caller-thread spans (benchmark + router).
    let pass_end = pass_start + pass_wall as u64;
    let in_pass = |start: u64| start >= pass_start && start < pass_end;
    let mut caller: Vec<(&'static str, u64, u64)> = capture.bench[..pass_bench]
        .iter()
        .map(|b| (b.name, b.start_ns, b.dur_ns))
        .collect();
    caller.extend(
        capture
            .runtime
            .iter()
            .filter(|s| router.contains(&s.track) && in_pass(s.start_ns))
            .map(|s| (names::span_name(s.name), s.start_ns, s.dur_ns)),
    );
    let (agg, nodes) = nest(caller);
    let self_of = |labels: &[&str]| -> f64 {
        labels
            .iter()
            .map(|l| agg.get(l).map_or(0.0, |a| a.self_ns))
            .sum::<f64>()
    };
    let pct = |ns: f64| ns / pass_wall * 100.0;
    let roots: f64 = nodes
        .iter()
        .filter(|n| n.parent.is_none())
        .map(|n| n.dur as f64)
        .sum();
    let residual = pct(pass_wall - roots);
    let worker_spans: Vec<&Span> = capture
        .runtime
        .iter()
        .filter(|s| workers.contains(&s.track) && in_pass(s.start_ns))
        .collect();
    let worker_busy: f64 = worker_spans.iter().map(|s| s.dur_ns as f64).sum();
    let batch_process: Vec<f64> = worker_spans
        .iter()
        .filter(|s| s.name == names::BATCH_PROCESS)
        .map(|s| s.dur_ns as f64)
        .collect();
    let close_barriers: Vec<f64> = nodes
        .iter()
        .filter(|n| n.label == "barrier_wait" && n.parent == Some("end_period"))
        .map(|n| n.dur as f64)
        .collect();
    let of = |label: &str| -> Vec<f64> {
        nodes
            .iter()
            .filter(|n| n.label == label)
            .map(|n| n.dur as f64)
            .collect()
    };
    let save_spans = durations(
        &capture.runtime,
        &durability,
        &[names::CHECKPOINT_SAVE, names::DELTA_SAVE, names::COMPACTION],
    );
    // Queries and checkpoints also come from the probes after the pass.
    let all = |name: &str| -> Vec<f64> {
        capture
            .bench
            .iter()
            .filter(|b| b.name == name)
            .map(|b| b.dur_ns as f64)
            .collect()
    };
    let records = w.stream.records.len() as f64;
    let per_batch = routed as f64 / batches.max(1) as f64;

    // Tracing overhead: the shipped runtime (tracer on) against the same
    // runtime with its tracer off, alternating until the run length is
    // spent (at least one pair).
    let mut on = Log::default();
    let mut off = Log::default();
    loop {
        for traced in [true, false] {
            let _ = std::fs::remove_dir_all(dir);
            let durable = w.kind.durable().then_some(dir);
            let built = if traced {
                ParallelSystem::new(w, durable, false)
            } else {
                ParallelSystem::without_tracer(w, durable)
            };
            let Some(mut d) = tally.note(1, built) else {
                continue;
            };
            let log = if traced { &mut on } else { &mut off };
            log.slowdown = host::slowdowns().1;
            pass::run(&mut d, w, log, tally, w.kind.durable());
            check_health(&d, tally);
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    let overhead = (off.rates.figure() / on.rates.figure() - 1.0) * 100.0;

    let mut r = Report::default();
    let ns_per_rec = |v: &[f64]| v.iter().sum::<f64>() / records;
    r.metric("hash.bob_ns_per_rec", iso.hash_ns_per_rec, "ns");
    r.metric("sharded.route_ns_per_rec", iso.route_ns_per_rec, "ns");
    r.metric(
        "pipeline.insert_batch_ns_per_rec",
        ns_per_rec(&of("insert_batch")),
        "ns",
    );
    r.metric("spsc.handoff_ns_per_batch", iso.handoff_ns_per_batch, "ns");
    r.metric("pipeline.queue_stalls", stalls as f64, "count");
    r.metric("pipeline.worker_batch_us", mean(&batch_process) / 1e3, "us");
    r.metric(
        "pipeline.worker_overhead_ns_per_batch",
        mean(&batch_process) - iso.insert_ns_per_rec * per_batch,
        "ns",
    );
    r.metric("table.insert_batch_ns_per_rec", iso.insert_ns_per_rec, "ns");
    r.metric("table.hit_ratio", iso.hit_ratio, "ratio");
    r.metric(
        "table.admissions_per_decrement",
        iso.admissions_per_decrement,
        "ratio",
    );
    r.metric("table.are", are, "ratio");
    r.metric("table.end_period_us", median(&iso.end_period_us), "us");
    r.metric("snapshot.full_us", median(&iso.full_snapshot_us), "us");
    r.metric("snapshot.full_bytes", iso.full_snapshot_bytes, "bytes");
    r.metric(
        "snapshot.dirty_fraction",
        median(&iso.dirty_fraction),
        "ratio",
    );
    r.metric("snapshot.delta_us", median(&iso.delta_snapshot_us), "us");
    r.metric("audit.us", mean(&of("audit")) / 1e3, "us");
    r.metric(
        "pipeline.barrier_wait_us",
        mean(&close_barriers) / 1e3,
        "us",
    );
    r.metric("checkpoint.encode_ms", iso.encode_ms, "ms");
    r.metric("checkpoint.save_ms", iso.save_ms, "ms");
    r.metric("checkpoint.full_bytes", iso.frame_bytes, "bytes");
    r.metric("checkpoint.delta_bytes", delta_bytes, "bytes");
    r.metric("checkpoint.load_ms", iso.load_ms, "ms");
    r.metric("checkpoint.decode_apply_ms", iso.decode_apply_ms, "ms");
    r.metric("durability.save_span_ms", mean(&save_spans) / 1e6, "ms");
    r.metric(
        "durability.handoff_us",
        (mean(&all("checkpoint_now")) - mean(&save_spans)) / 1e3,
        "us",
    );
    r.metric("durability.full_saves", status.full_saves as f64, "count");
    r.metric("durability.delta_saves", status.delta_saves as f64, "count");
    r.metric("pipeline.sync_us", mean(&all("sync")) / 1e3, "us");
    r.metric(
        "pipeline.batch_fill",
        per_batch / DEFAULT_BATCH_SIZE as f64,
        "ratio",
    );
    r.metric("table.top_k_us", iso.top_k_us, "us");
    r.metric("table.estimate_ns", iso.estimate_ns, "ns");
    r.metric("obs.trace_dropped_spans", dropped as f64, "count");
    r.metric("obs.tracing_overhead_pct", overhead, "%");
    r.metric("ledger.route_pct", pct(self_of(&["insert_batch"])), "%");
    r.metric("ledger.handoff_pct", pct(self_of(&["batch_enqueue"])), "%");
    r.metric(
        "ledger.close_pct",
        pct(self_of(&["end_period", "finish"])),
        "%",
    );
    r.metric(
        "ledger.barrier_wait_pct",
        pct(self_of(&["barrier_wait"])),
        "%",
    );
    r.metric("ledger.audit_pct", pct(self_of(&["audit"])), "%");
    r.metric(
        "ledger.query_pct",
        pct(self_of(&["sync", "top_k_read", "estimate_block"])),
        "%",
    );
    r.metric(
        "ledger.checkpoint_pct",
        pct(self_of(&["checkpoint_now"])),
        "%",
    );
    r.metric("ledger.drain_pct", pct(self_of(&["trace_drain"])), "%");
    r.metric("ledger.residual_pct", residual, "%");
    r.metric("ledger.worker_busy_pct", pct(worker_busy), "%");
    let probe = host::probe_per_cpu()
        .iter()
        .map(|p| p.1)
        .fold(0.0, f64::max);
    r.metric(
        "host.cpus",
        std::thread::available_parallelism().map_or(0, usize::from) as f64,
        "count",
    );
    r.metric("host.probe_ms", probe, "ms");

    println!(
        "ledger pass_wall_ms={:.3} records={} residual_pct={residual:.3}{}",
        pass_wall / 1e6,
        records,
        if residual > 10.0 {
            " FLAG: residual above 10%"
        } else {
            ""
        }
    );
    for (label, a) in &agg {
        println!(
            "self {label} count={} total_ms={:.3} self_ms={:.3} self_pct={:.3}",
            a.count,
            a.total_ns / 1e6,
            a.self_ns / 1e6,
            pct(a.self_ns)
        );
    }
    for (name, series) in [
        ("traced", log.rates.samples()),
        ("tracer_on", on.rates.samples()),
        ("tracer_off", off.rates.samples()),
    ] {
        let text: Vec<String> = series.iter().map(|x| format!("{x:.3}")).collect();
        println!("window_mrps {name} [{}]", text.join(" "));
    }
    println!("diag restore_ms {}", describe(log.restore.samples()));
    println!("diag checkpoint_ms {}", describe(log.checkpoint.samples()));
    host::print("end");
    r
}

/// Mean on-disk size of the delta frames the service left in its store
/// (a delta frame carries a chain header section besides the shard's).
fn frame_sizes(d: &ParallelSystem, w: &Workload) -> f64 {
    let Some(service) = d.service.as_ref() else {
        return f64::NAN;
    };
    let store = service.store();
    let shards = ShardedLtc::new(w.config, 1).into_shards();
    let fingerprint = configs_fingerprint(shards.iter().map(Ltc::config));
    let mut deltas = Vec::new();
    for generation in store.generations().unwrap_or_default() {
        let Ok(bytes) = store.load(generation) else {
            continue;
        };
        if let Ok(sections) = decode_frame(&bytes, fingerprint) {
            if sections.len() == 2 {
                deltas.push(bytes.len() as f64);
            }
        }
    }
    mean(&deltas)
}
