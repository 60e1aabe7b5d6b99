//! The three workloads: a paper §V-B trace shape each, the table size it
//! runs on, and what the caller does between records.

use ltc_common::{ItemId, MemoryBudget, Weights};
use ltc_core::{LtcConfig, Variant};
use ltc_eval::Oracle;
use ltc_workloads::{generate, profiles, GeneratedStream, StreamSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Top-k size of every query.
pub const K: usize = 100;
/// Cells per bucket.
pub const D: usize = 8;
/// Periods per statistics window.
pub const WINDOW_PERIODS: usize = 10;
/// Records per `insert_batch` slice in `social_queries`.
pub const SLICE: usize = 500;
/// `try_estimate` calls per timed block (half present, half absent ids).
pub const ESTIMATE_BLOCK: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// CAIDA shape on a 100 KB table: one `insert_batch` + `end_period`
    /// per period.
    CaidaIngest,
    /// Network shape on a 4 MB table with a durability service and a
    /// `checkpoint_now` after every 10th period.
    NetworkDurable,
    /// Social shape on a 50 KB table: a top-k and an estimate block after
    /// every 500-record slice.
    SocialQueries,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "caida_ingest" => Some(Kind::CaidaIngest),
            "network_durable" => Some(Kind::NetworkDurable),
            "social_queries" => Some(Kind::SocialQueries),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::CaidaIngest => "caida_ingest",
            Kind::NetworkDurable => "network_durable",
            Kind::SocialQueries => "social_queries",
        }
    }

    fn spec(self) -> StreamSpec {
        match self {
            Kind::CaidaIngest => profiles::caida_like(),
            // A quarter of the paper's Network trace (same ~10k records per
            // period), so that several passes fit in one run.
            Kind::NetworkDurable => profiles::network_like().scaled_down(4),
            Kind::SocialQueries => profiles::social_like(),
        }
    }

    fn table_kb(self) -> usize {
        match self {
            Kind::CaidaIngest => 100,
            Kind::NetworkDurable => 4096,
            Kind::SocialQueries => 50,
        }
    }

    pub fn durable(self) -> bool {
        self == Kind::NetworkDurable
    }

    pub fn queries_in_loop(self) -> bool {
        self == Kind::SocialQueries
    }
}

/// Everything a run needs, generated before any timing starts.
pub struct Workload {
    pub kind: Kind,
    pub stream: GeneratedStream,
    pub config: LtcConfig,
    pub weights: Weights,
    pub oracle: Oracle,
    /// Ids that never occur in the stream, for the absent half of every
    /// estimate block.
    pub absent: Vec<ItemId>,
}

impl Workload {
    /// Generate the workload from `seed`. `shrink` divides the trace (for
    /// the self-test).
    pub fn generate(kind: Kind, seed: u64, shrink: u64) -> Self {
        let stream = generate(&kind.spec().with_seed(seed).scaled_down(shrink));
        let weights = Weights::new(1.0, 1.0);
        let per_period = stream.layout.records_per_period().unwrap_or(1).max(1);
        let config = LtcConfig::with_memory(MemoryBudget::kilobytes(kind.table_kb()), D)
            .weights(weights)
            .records_per_period(per_period)
            .variant(Variant::FULL)
            .build();
        let oracle = Oracle::build(&stream);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xab5e_17ed);
        let mut absent = Vec::with_capacity(4096);
        while absent.len() < 4096 {
            let id: ItemId = rng.gen();
            if oracle.frequency(id) == 0 {
                absent.push(id);
            }
        }
        Self {
            kind,
            stream,
            config,
            weights,
            oracle,
            absent,
        }
    }

    /// Fill `out` with one estimate block: ids of `slice` (present) and
    /// absent ids, alternating. `round` rotates through both pools.
    pub fn estimate_ids(&self, slice: &[ItemId], round: usize, out: &mut Vec<ItemId>) {
        out.clear();
        for i in 0..ESTIMATE_BLOCK / 2 {
            let j = round.wrapping_mul(ESTIMATE_BLOCK / 2).wrapping_add(i);
            out.push(slice[j % slice.len()]);
            out.push(self.absent[j % self.absent.len()]);
        }
    }
}
