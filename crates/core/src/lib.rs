//! # ltc-core — the Long-Tail CLOCK algorithm
//!
//! This crate implements **LTC**, the contribution of *"Finding Significant
//! Items in Data Streams"* (ICDE 2019): a single lossy table that tracks the
//! top-k items by significance `s = α·f + β·p`, where `f` is an item's
//! frequency and `p` its persistency (periods in which it appeared).
//!
//! ## Structure (paper §III-A)
//!
//! `w` buckets × `d` cells; each [`cell::Cell`] stores
//! `⟨ID, frequency, persistency⟩` where the persistency field is a counter
//! plus two flag bits.
//!
//! ## Mechanisms
//!
//! * **Insertion** (§III-B1) — hash to one bucket; increment on hit, take an
//!   empty cell on vacancy, otherwise *Significance-Decrement* the bucket's
//!   smallest cell and move in once it empties.
//! * **Persistency via CLOCK** (§III-B1) — a pointer sweeps the table exactly
//!   once per period ([`clock::ClockPointer`], integer Bresenham stepping);
//!   cells whose flag is set when the pointer passes gain one persistency.
//! * **Deviation Eliminator** (§III-C) — even/odd flag pair so that the sweep
//!   harvests exactly the *previous* period's appearances, eliminating the
//!   ±1 period phase error of the single-flag version.
//! * **Long-tail Replacement** (§III-D) — newly admitted items start from the
//!   bucket's second-smallest value minus one instead of 1, restoring the
//!   count they spent evicting the previous occupant.
//!
//! Variants are toggled via [`Variant`]; the paper's default (`Variant::FULL`)
//! enables both optimizations.
//!
//! ```
//! use ltc_core::{Ltc, LtcConfig};
//! use ltc_common::{StreamProcessor, SignificanceQuery, Weights};
//!
//! let mut ltc = Ltc::new(
//!     LtcConfig::builder()
//!         .buckets(128)
//!         .weights(Weights::new(1.0, 1.0))
//!         .records_per_period(500)
//!         .build(),
//! );
//! for _ in 0..400 { ltc.insert(42); }
//! for i in 0..100 { ltc.insert(1_000 + i); }
//! ltc.end_period();
//! assert_eq!(ltc.top_k(1)[0].id, 42);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
// Production code must spell out its overflow behaviour (saturating_*,
// wrapping_*, checked_*); test code may use plain arithmetic — the workspace
// test profile compiles it with overflow-checks instead.
#![cfg_attr(not(test), warn(clippy::arithmetic_side_effects))]

pub mod cell;
pub mod checkpoint;
pub mod clock;
pub mod config;
pub mod durability;
#[macro_use]
pub mod failpoint;
pub mod obs;
pub mod pipeline;
pub mod reference;
pub mod sharded;
pub(crate) mod shim;
pub mod snapshot;
pub mod spsc;
pub mod stats;
pub mod table;

pub use cell::Cell;
pub use checkpoint::{CheckpointError, Checkpointer};
pub use clock::ClockPointer;
pub use config::{FaultPolicy, LtcConfig, LtcConfigBuilder, PeriodMode, Variant};
pub use durability::{DurabilityPolicy, DurabilityService, DurabilityStatus};
pub use obs::{EventJournal, EventKind, MetricsRegistry, RuntimeObs};
pub use pipeline::{FaultKind, ParallelLtc, RuntimeError, ShardHealth, WorkerFault};
pub use sharded::ShardedLtc;
pub use snapshot::SnapshotError;
pub use spsc::SpscRing;
pub use stats::LtcStats;
pub use table::Ltc;
