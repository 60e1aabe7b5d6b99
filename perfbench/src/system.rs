//! The two systems a pass drives through the same calls: the shipped
//! `ParallelLtc` runtime (1 shard: a router plus one worker) and one scalar
//! `Ltc` on the caller thread. A traced `ParallelLtc` also records a
//! benchmark-side span around every public call and drains the runtime's
//! own span rings at each quiescent point.

use crate::workload::{Workload, K};
use ltc_common::{Estimate, ItemId, SignificanceQuery};
use ltc_core::obs::{Span, Tracer};
use ltc_core::pipeline::DEFAULT_BATCH_SIZE;
use ltc_core::{
    Checkpointer, DurabilityPolicy, DurabilityService, FaultPolicy, Ltc, ParallelLtc, RuntimeObs,
    ShardHealth, ShardedLtc,
};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// What a pass asks of the system under test.
pub trait System {
    fn insert_batch(&mut self, ids: &[ItemId]);
    fn end_period(&mut self) -> Result<(), String>;
    fn top_k(&mut self) -> Result<Vec<Estimate>, String>;
    /// One block of estimates; the answers go to `black_box`.
    fn estimate_block(&mut self, ids: &[ItemId]) -> Result<(), String>;
    /// Harvest the final period (after the last `end_period`).
    fn finish(&mut self) -> Result<(), String>;
    /// A durable checkpoint of everything applied so far.
    fn checkpoint(&mut self) -> Result<(), String>;
    fn estimate(&mut self, id: ItemId) -> Result<Option<f64>, String>;
}

/// A benchmark-side span: which public call, when, how long (tracer clock).
#[derive(Debug, Clone, Copy)]
pub struct BenchSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Span capture of a traced runtime.
pub struct Capture {
    tracer: Arc<Tracer>,
    pub bench: Vec<BenchSpan>,
    pub runtime: Vec<Span>,
}

impl Capture {
    fn now(&self) -> u64 {
        self.tracer.now_ns()
    }

    fn record(&mut self, name: &'static str, start_ns: u64) {
        let dur_ns = self.now().saturating_sub(start_ns);
        self.bench.push(BenchSpan {
            name,
            start_ns,
            dur_ns,
        });
    }

    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }
}

pub struct ParallelSystem {
    pub rt: ParallelLtc,
    pub service: Option<DurabilityService>,
    pub capture: Option<Capture>,
}

impl ParallelSystem {
    /// Build the runtime as shipped (default constructor, its own tracer
    /// on). `durable_dir` attaches a durability service writing there.
    /// `capture` turns on benchmark-side spans and ring draining.
    pub fn new(w: &Workload, durable_dir: Option<&Path>, capture: bool) -> Result<Self, String> {
        let rt = ParallelLtc::new(w.config, 1);
        let capture = if capture {
            let tracer = rt
                .obs()
                .and_then(|o| o.tracer())
                .cloned()
                .ok_or("the default runtime has no tracer")?;
            Some(Capture {
                tracer,
                bench: Vec::new(),
                runtime: Vec::new(),
            })
        } else {
            None
        };
        Self::around(rt, durable_dir, capture)
    }

    /// The same runtime with its span tracer off (metrics and journal
    /// stay on), for the tracing-overhead comparison.
    pub fn without_tracer(w: &Workload, durable_dir: Option<&Path>) -> Result<Self, String> {
        let rt = ParallelLtc::with_observability(
            w.config,
            1,
            DEFAULT_BATCH_SIZE,
            FaultPolicy::default(),
            Some(Arc::new(RuntimeObs::without_tracing())),
        );
        Self::around(rt, durable_dir, None)
    }

    fn around(
        rt: ParallelLtc,
        durable_dir: Option<&Path>,
        capture: Option<Capture>,
    ) -> Result<Self, String> {
        let service = durable_dir.map(|dir| attach(&rt, dir)).transpose()?;
        Ok(Self {
            rt,
            service,
            capture,
        })
    }

    /// Attach a durability service after the fact (the state probe).
    pub fn attach(&mut self, dir: &Path) -> Result<(), String> {
        self.service = Some(attach(&self.rt, dir)?);
        Ok(())
    }

    fn start(&self) -> u64 {
        self.capture.as_ref().map_or(0, Capture::now)
    }

    fn record(&mut self, name: &'static str, start: u64) {
        if let Some(c) = self.capture.as_mut() {
            c.record(name, start);
        }
    }

    /// Drain the runtime's span rings (call only at a quiescent point).
    /// The drain is tracing cost, so it gets a span of its own.
    fn drain(&mut self) {
        if let (Some(c), Some(obs)) = (self.capture.as_mut(), self.rt.obs()) {
            let t = c.now();
            c.runtime.extend(obs.drain_spans());
            c.record("trace_drain", t);
        }
    }

    /// Explicit drain of the pipeline (its own span in traced runs).
    fn sync(&mut self) -> Result<(), String> {
        let t = self.start();
        let r = self.rt.sync().map_err(|e| e.to_string());
        self.record("sync", t);
        self.drain();
        r
    }

    /// Records lost across shards, or the first unhealthy shard.
    pub fn health(&self) -> Result<u64, String> {
        let mut lost = 0u64;
        for shard in self.rt.health() {
            match shard {
                ShardHealth::Healthy { records_lost, .. } => lost += records_lost,
                ShardHealth::Lossy { fault, .. } => return Err(fault.to_string()),
            }
        }
        Ok(lost)
    }
}

/// A durability service writing to `dir`. Its timer is set beyond any run
/// length, so its thread saves only while the caller is blocked in
/// `checkpoint_now`.
fn attach(rt: &ParallelLtc, dir: &Path) -> Result<DurabilityService, String> {
    let store = Checkpointer::new(dir).map_err(|e| e.to_string())?;
    let policy = DurabilityPolicy {
        interval: Duration::from_secs(3600),
        ..DurabilityPolicy::default()
    };
    DurabilityService::attach(rt, store, policy).map_err(|e| e.to_string())
}

impl System for ParallelSystem {
    fn insert_batch(&mut self, ids: &[ItemId]) {
        let t = self.start();
        self.rt.insert_batch(ids);
        self.record("insert_batch", t);
    }

    fn end_period(&mut self) -> Result<(), String> {
        let t = self.start();
        let r = self.rt.end_period().map_err(|e| e.to_string());
        self.record("end_period", t);
        self.drain();
        r
    }

    fn top_k(&mut self) -> Result<Vec<Estimate>, String> {
        if self.capture.is_some() {
            // Traced: the drain as its own span, then the read alone.
            self.sync()?;
        }
        let t = self.start();
        let r = self.rt.try_top_k(K).map_err(|e| e.to_string());
        self.record("top_k_read", t);
        r
    }

    fn estimate_block(&mut self, ids: &[ItemId]) -> Result<(), String> {
        let t = self.start();
        let mut result = Ok(());
        for &id in ids {
            match self.rt.try_estimate(id) {
                Ok(v) => {
                    black_box(v);
                }
                Err(e) => result = Err(e.to_string()),
            }
        }
        self.record("estimate_block", t);
        result
    }

    fn finish(&mut self) -> Result<(), String> {
        let t = self.start();
        let r = self.rt.finish().map_err(|e| e.to_string());
        self.record("finish", t);
        self.drain();
        r
    }

    fn estimate(&mut self, id: ItemId) -> Result<Option<f64>, String> {
        self.rt.try_estimate(id).map_err(|e| e.to_string())
    }

    fn checkpoint(&mut self) -> Result<(), String> {
        let service = self.service.as_ref().ok_or("no durability service")?;
        let t = self.start();
        let r = service
            .checkpoint_now()
            .map(drop)
            .map_err(|e| e.to_string());
        self.record("checkpoint_now", t);
        self.drain();
        r
    }
}

/// One `Ltc` on the caller thread, seeded as shard 0 of a 1-shard runtime.
pub struct ScalarSystem {
    ltc: Ltc,
}

impl ScalarSystem {
    pub fn new(w: &Workload) -> Self {
        let ltc = ShardedLtc::new(w.config, 1)
            .into_shards()
            .pop()
            .expect("a 1-shard table has one shard");
        Self { ltc }
    }
}

impl System for ScalarSystem {
    fn insert_batch(&mut self, ids: &[ItemId]) {
        self.ltc.insert_batch(ids);
    }

    fn end_period(&mut self) -> Result<(), String> {
        self.ltc.end_period();
        Ok(())
    }

    fn top_k(&mut self) -> Result<Vec<Estimate>, String> {
        Ok(self.ltc.top_k(K))
    }

    fn estimate_block(&mut self, ids: &[ItemId]) -> Result<(), String> {
        for &id in ids {
            black_box(self.ltc.estimate(id));
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), String> {
        self.ltc.finalize();
        Ok(())
    }

    fn estimate(&mut self, id: ItemId) -> Result<Option<f64>, String> {
        Ok(self.ltc.estimate(id))
    }

    fn checkpoint(&mut self) -> Result<(), String> {
        Err("the scalar baseline takes no checkpoints".to_string())
    }
}
