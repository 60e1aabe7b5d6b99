//! # significant-items
//!
//! A complete Rust implementation of **LTC (Long-Tail CLOCK)** from
//! *"Finding Significant Items in Data Streams"* (Yang, Zhang, Yang, Huang,
//! Li — ICDE 2019), together with every baseline the paper evaluates against
//! and the full experiment harness that regenerates the paper's figures.
//!
//! An item's **significance** combines how *frequent* it is (total number of
//! appearances `f`) and how *persistent* it is (number of stream periods `p`
//! in which it appears at least once):
//!
//! ```text
//! s = α·f + β·p
//! ```
//!
//! LTC finds the top-k items by significance in one pass, in a few tens of
//! kilobytes, with no overestimation error (basic variant) and accuracy far
//! beyond combining a heavy-hitter sketch with a persistence sketch.
//!
//! ## Quick start
//!
//! ```
//! use significant_items::prelude::*;
//!
//! // 100 buckets x 8 cells, significance = 1*f + 1*p,
//! // count-driven periods of 1000 records each.
//! let config = LtcConfig::builder()
//!     .buckets(100)
//!     .cells_per_bucket(8)
//!     .weights(Weights::new(1.0, 1.0))
//!     .records_per_period(1000)
//!     .build();
//! let mut ltc = Ltc::new(config);
//!
//! for period in 0..10u64 {
//!     for i in 0..1000u64 {
//!         // item 7 is both frequent and persistent; the rest is noise
//!         let id = if i % 10 == 0 { 7 } else { period * 1000 + i };
//!         ltc.insert(id);
//!     }
//!     ltc.end_period();
//! }
//!
//! let top = ltc.top_k(1);
//! assert_eq!(top[0].id, 7);
//! ```
//!
//! ## Crate map
//!
//! | need | go to |
//! |---|---|
//! | the LTC structure itself | [`ltc_core`] (re-exported as [`core_`]) |
//! | baselines (Space-Saving, Lossy Counting, Misra-Gries, CM/CU/Count sketches, Bloom) | [`baselines`] |
//! | the PIE persistent-items baseline | [`pie`] |
//! | synthetic workloads mirroring the paper's datasets | [`workloads`] |
//! | ground truth, metrics, theoretical bounds, experiment runner | [`eval`] |
//! | shared ids/traits/weights/memory model | [`common`] |
//! | Bob Hash & friends | [`hash`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ltc_baselines as baselines;
pub use ltc_common as common;
pub use ltc_core as core_;
pub use ltc_eval as eval;
pub use ltc_hash as hash;
pub use ltc_pie as pie;
pub use ltc_workloads as workloads;

pub mod keyed;

/// One-line import for applications.
pub mod prelude {
    pub use crate::keyed::KeyedLtc;
    pub use ltc_common::{
        BatchStreamProcessor, Estimate, ItemId, MemoryBudget, PeriodLayout, SignificanceQuery,
        StreamProcessor, Weights,
    };
    pub use ltc_core::{Ltc, LtcConfig, ParallelLtc, ShardedLtc, Variant};
}
