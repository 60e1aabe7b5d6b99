//! Checkpointing: serialise an LTC table's cell state to a compact binary
//! snapshot and restore it later.
//!
//! Long-running monitors (the paper's DDoS / congestion use cases run
//! indefinitely) need to survive restarts without losing accumulated
//! frequencies and persistencies. A snapshot captures the cell array plus
//! the period/parity state; the configuration is *not* stored — the caller
//! re-creates the table from its own configuration and the snapshot refuses
//! to load into a table of a different shape (a checksum of the shape is
//! embedded).
//!
//! Format (little-endian, versioned):
//!
//! ```text
//! magic  "LTC1"        4 bytes
//! shape  w, d           2 × u32
//! state  parity, periods_completed   u8, u64
//! cells  w·d × (id u64, freq u32, persist u32, flags u8)
//! ```
//!
//! A second, *delta* image exists for incremental durability: it carries
//! only the buckets mutated since the table's last
//! [`Ltc::begin_delta_epoch`] call, so steady-state background saves cost
//! proportional to churn, not table size:
//!
//! ```text
//! magic   "LTCD"        4 bytes
//! shape   w, d           2 × u32
//! state   parity, periods_completed   u8, u64
//! count   dirty bucket count          u32
//! entries count × (bucket u32, d × cell)   — buckets strictly ascending
//! ```
//!
//! A delta is *cumulative relative to the epoch's base image*: applying the
//! base full snapshot and then the newest delta reproduces the live table
//! exactly (intermediate deltas are redundant).
//!
//! Dirty-bucket tracking lives in the [`crate::cell`] store: every
//! mutation stamps its bucket with one monotone epoch counter (one compare
//! and one store per record, off the probe scans), and each consumer of
//! the dirty set keeps its own cursor — a bucket is dirty for a consumer
//! iff its stamp ≥ that consumer's cursor. There are two consumers:
//!
//! * **delta snapshots**, whose cursor only [`Ltc::begin_delta_epoch`]
//!   moves (in a runtime, only the durability service's full save calls
//!   it);
//! * **the pipeline worker's rollback image**, which copies the tiles
//!   stamped since its own cursor at every period close and then opens a
//!   new epoch for itself, never touching the delta cursor.
//!
//! Opening an epoch for one consumer bumps the shared counter, which the
//! other consumer's `stamp ≥ cursor` test does not notice, so neither can
//! hide buckets from the other.

use crate::cell::Cell;
use crate::table::Ltc;

const MAGIC: &[u8; 4] = b"LTC1";
/// Magic of the delta (dirty-buckets-only) image.
const DELTA_MAGIC: &[u8; 4] = b"LTCD";

/// Error restoring a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Not an LTC snapshot or unsupported version.
    BadMagic,
    /// Snapshot was taken from a table of a different shape.
    ShapeMismatch {
        /// Shape in the snapshot.
        snapshot: (u32, u32),
        /// Shape of the receiving table.
        table: (u32, u32),
    },
    /// Snapshot is truncated or padded.
    BadLength,
    /// Delta image is structurally invalid (bucket index out of range or
    /// out of order).
    BadDelta,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not an LTC snapshot (bad magic)"),
            SnapshotError::ShapeMismatch { snapshot, table } => write!(
                f,
                "snapshot shape {}x{} does not match table shape {}x{}",
                snapshot.0, snapshot.1, table.0, table.1
            ),
            SnapshotError::BadLength => write!(f, "snapshot truncated or oversized"),
            SnapshotError::BadDelta => {
                write!(f, "delta snapshot has out-of-range or unordered buckets")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Bytes per serialised cell: id 8 + freq 4 + persist 4 + flags 1.
const CELL_BYTES: usize = 17;
const HEADER_BYTES: usize = 4 + 4 + 4 + 1 + 8;
/// Delta header: magic + shape + parity/periods + dirty-bucket count.
const DELTA_HEADER_BYTES: usize = HEADER_BYTES + 4;

/// Little-endian u32 at `at`; `None` past the end.
fn read_u32(bytes: &[u8], at: usize) -> Option<u32> {
    let end = at.checked_add(4)?;
    let slice: [u8; 4] = bytes.get(at..end)?.try_into().ok()?;
    Some(u32::from_le_bytes(slice))
}

/// Little-endian u64 at `at`; `None` past the end.
fn read_u64(bytes: &[u8], at: usize) -> Option<u64> {
    let end = at.checked_add(8)?;
    let slice: [u8; 8] = bytes.get(at..end)?.try_into().ok()?;
    Some(u64::from_le_bytes(slice))
}

/// Decode one serialised cell from a [`CELL_BYTES`]-sized chunk.
fn cell_from_chunk(chunk: &[u8]) -> Option<Cell> {
    let id = read_u64(chunk, 0)?;
    let freq = read_u32(chunk, 8)?;
    let persist = read_u32(chunk, 12)?;
    let flags = *chunk.get(16)?;
    Some(Cell::from_raw(id, freq, persist, flags))
}

/// Serialise one cell in the on-disk layout.
fn push_cell(out: &mut Vec<u8>, cell: &Cell) {
    out.extend_from_slice(&cell.id.to_le_bytes());
    out.extend_from_slice(&cell.freq.to_le_bytes());
    out.extend_from_slice(&cell.persist.to_le_bytes());
    out.push(cell.raw_flags());
}

/// Whether `bytes` start with the delta-image magic (the checkpoint layer
/// routes delta sections to [`Ltc::apply_delta_snapshot`] by this).
pub(crate) fn is_delta_image(bytes: &[u8]) -> bool {
    bytes.get(..4) == Some(DELTA_MAGIC.as_slice())
}

/// Bytes [`Ltc::to_snapshot`] writes for a table of `cells` cells.
pub(crate) fn snapshot_len(cells: usize) -> usize {
    HEADER_BYTES.saturating_add(cells.saturating_mul(CELL_BYTES))
}

impl Ltc {
    /// Serialise the table state. See the module docs for the format.
    pub fn to_snapshot(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(snapshot_len(self.capacity_cells()));
        self.write_snapshot(&mut out);
        out
    }

    /// Append the [`Ltc::to_snapshot`] image to `out`.
    pub(crate) fn write_snapshot(&self, out: &mut Vec<u8>) {
        let w = self.config().buckets as u32;
        let d = self.config().cells_per_bucket as u32;
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&w.to_le_bytes());
        out.extend_from_slice(&d.to_le_bytes());
        out.push(self.snapshot_parity());
        out.extend_from_slice(&self.periods_completed().to_le_bytes());
        for cell in self.cells() {
            push_cell(out, &cell);
        }
    }

    /// Restore state from a snapshot into this (same-shaped) table,
    /// replacing its current contents. Every field is bounds-checked: a
    /// truncated, padded or mis-shaped image is rejected without panicking
    /// and without touching the table (a fuzz test pins this).
    ///
    /// # Errors
    /// See [`SnapshotError`].
    pub fn restore_snapshot(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        if bytes.get(..4) != Some(MAGIC.as_slice()) {
            return Err(SnapshotError::BadMagic);
        }
        let w = read_u32(bytes, 4).ok_or(SnapshotError::BadLength)?;
        let d = read_u32(bytes, 8).ok_or(SnapshotError::BadLength)?;
        let my_w = self.config().buckets as u32;
        let my_d = self.config().cells_per_bucket as u32;
        if (w, d) != (my_w, my_d) {
            return Err(SnapshotError::ShapeMismatch {
                snapshot: (w, d),
                table: (my_w, my_d),
            });
        }
        let cells = (w as usize)
            .checked_mul(d as usize)
            .ok_or(SnapshotError::BadLength)?;
        let expected = cells
            .checked_mul(CELL_BYTES)
            .and_then(|body| body.checked_add(HEADER_BYTES))
            .ok_or(SnapshotError::BadLength)?;
        if bytes.len() != expected {
            return Err(SnapshotError::BadLength);
        }
        let parity = *bytes.get(12).ok_or(SnapshotError::BadLength)?;
        let periods = read_u64(bytes, 13).ok_or(SnapshotError::BadLength)?;
        let body = bytes.get(HEADER_BYTES..).ok_or(SnapshotError::BadLength)?;
        // Decode every cell before mutating the table, so a bad image
        // leaves the receiver untouched.
        let mut decoded = Vec::with_capacity(cells);
        for chunk in body.chunks_exact(CELL_BYTES) {
            decoded.push(cell_from_chunk(chunk).ok_or(SnapshotError::BadLength)?);
        }
        if decoded.len() != self.capacity_cells() {
            return Err(SnapshotError::BadLength);
        }
        self.load_cells(&decoded);
        self.restore_state(parity, periods);
        Ok(())
    }

    /// Serialise only the buckets mutated since the last
    /// [`Ltc::begin_delta_epoch`] call (see the module docs for the
    /// format). The dirty set is *not* cleared: deltas are cumulative
    /// relative to the epoch's base image, so the caller clears the epoch
    /// exactly when it takes a new full snapshot.
    pub fn to_delta_snapshot(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.delta_snapshot_len());
        self.write_delta_snapshot(&mut out);
        out
    }

    /// Bytes [`Ltc::to_delta_snapshot`] would write now.
    pub(crate) fn delta_snapshot_len(&self) -> usize {
        let d = self.config().cells_per_bucket;
        let entry_bytes = d.saturating_mul(CELL_BYTES).saturating_add(4);
        DELTA_HEADER_BYTES.saturating_add(self.dirty_bucket_count().saturating_mul(entry_bytes))
    }

    /// Append the [`Ltc::to_delta_snapshot`] image to `out`.
    pub(crate) fn write_delta_snapshot(&self, out: &mut Vec<u8>) {
        let w = self.config().buckets as u32;
        let d = self.config().cells_per_bucket;
        let dirty: Vec<usize> = self.dirty_buckets().collect();
        out.extend_from_slice(DELTA_MAGIC);
        out.extend_from_slice(&w.to_le_bytes());
        out.extend_from_slice(&(d as u32).to_le_bytes());
        out.push(self.snapshot_parity());
        out.extend_from_slice(&self.periods_completed().to_le_bytes());
        out.extend_from_slice(&(dirty.len() as u32).to_le_bytes());
        for bucket in dirty {
            out.extend_from_slice(&(bucket as u32).to_le_bytes());
            for cell in self.bucket_cells(bucket.saturating_mul(d), d) {
                push_cell(out, &cell);
            }
        }
    }

    /// Apply a delta image on top of this table's current contents —
    /// normally the base full snapshot the delta's epoch started from.
    /// Dirtied buckets are overwritten wholesale; untouched buckets keep
    /// whatever the base held. Parity and period bookkeeping move to the
    /// delta's (newer) values. Decodes and validates everything before
    /// mutating, so a bad image leaves the receiver untouched.
    ///
    /// # Errors
    /// See [`SnapshotError`]; structurally invalid bucket lists (out of
    /// range, unordered, duplicated) are [`SnapshotError::BadDelta`].
    pub fn apply_delta_snapshot(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        if !is_delta_image(bytes) {
            return Err(SnapshotError::BadMagic);
        }
        let w = read_u32(bytes, 4).ok_or(SnapshotError::BadLength)?;
        let d = read_u32(bytes, 8).ok_or(SnapshotError::BadLength)?;
        let my_w = self.config().buckets as u32;
        let my_d = self.config().cells_per_bucket as u32;
        if (w, d) != (my_w, my_d) {
            return Err(SnapshotError::ShapeMismatch {
                snapshot: (w, d),
                table: (my_w, my_d),
            });
        }
        let parity = *bytes.get(12).ok_or(SnapshotError::BadLength)?;
        let periods = read_u64(bytes, 13).ok_or(SnapshotError::BadLength)?;
        let count = read_u32(bytes, 21).ok_or(SnapshotError::BadLength)? as usize;
        let d = d as usize;
        let entry_bytes = 4usize
            .checked_add(d.checked_mul(CELL_BYTES).ok_or(SnapshotError::BadLength)?)
            .ok_or(SnapshotError::BadLength)?;
        let expected = count
            .checked_mul(entry_bytes)
            .and_then(|body| body.checked_add(DELTA_HEADER_BYTES))
            .ok_or(SnapshotError::BadLength)?;
        if bytes.len() != expected {
            return Err(SnapshotError::BadLength);
        }
        let body = bytes
            .get(DELTA_HEADER_BYTES..)
            .ok_or(SnapshotError::BadLength)?;
        // Decode every entry before mutating the table.
        let mut decoded: Vec<(usize, Vec<Cell>)> = Vec::with_capacity(count);
        let mut prev: Option<usize> = None;
        for entry in body.chunks_exact(entry_bytes) {
            let bucket = read_u32(entry, 0).ok_or(SnapshotError::BadLength)? as usize;
            if bucket >= w as usize || prev.is_some_and(|p| bucket <= p) {
                return Err(SnapshotError::BadDelta);
            }
            prev = Some(bucket);
            let mut cells = Vec::with_capacity(d);
            for chunk in entry.get(4..).unwrap_or(&[]).chunks_exact(CELL_BYTES) {
                cells.push(cell_from_chunk(chunk).ok_or(SnapshotError::BadLength)?);
            }
            if cells.len() != d {
                return Err(SnapshotError::BadLength);
            }
            decoded.push((bucket, cells));
        }
        if decoded.len() != count {
            return Err(SnapshotError::BadLength);
        }
        for (bucket, cells) in decoded {
            self.replace_bucket(bucket.saturating_mul(d), d, &cells);
        }
        self.restore_state(parity, periods);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LtcConfig;
    use ltc_common::{SignificanceQuery, Weights};

    fn table() -> Ltc {
        Ltc::new(
            LtcConfig::builder()
                .buckets(16)
                .cells_per_bucket(4)
                .weights(Weights::BALANCED)
                .records_per_period(50)
                .seed(9)
                .build(),
        )
    }

    fn loaded() -> Ltc {
        let mut ltc = table();
        for period in 0..4u64 {
            for i in 0..50u64 {
                ltc.insert(if i % 5 == 0 { 7 } else { period * 100 + i });
            }
            ltc.end_period();
        }
        ltc
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let original = loaded();
        let snap = original.to_snapshot();
        let mut restored = table();
        restored.restore_snapshot(&snap).unwrap();
        assert_eq!(restored.frequency_of(7), original.frequency_of(7));
        assert_eq!(restored.persistency_of(7), original.persistency_of(7));
        assert_eq!(restored.periods_completed(), original.periods_completed());
        assert_eq!(restored.top_k(10), original.top_k(10));
    }

    #[test]
    fn restored_table_continues_correctly() {
        // Pending flags and parity survive: continuing the stream after a
        // restore gives the same result as never snapshotting.
        let mut a = loaded();
        let snap = a.to_snapshot();
        let mut b = table();
        b.restore_snapshot(&snap).unwrap();
        for ltc in [&mut a, &mut b] {
            for _ in 0..50 {
                ltc.insert(7);
            }
            ltc.end_period();
            ltc.finalize();
        }
        assert_eq!(a.frequency_of(7), b.frequency_of(7));
        assert_eq!(a.persistency_of(7), b.persistency_of(7));
    }

    #[test]
    fn wrong_shape_rejected() {
        let snap = loaded().to_snapshot();
        let mut other = Ltc::new(
            LtcConfig::builder()
                .buckets(8)
                .cells_per_bucket(4)
                .records_per_period(50)
                .build(),
        );
        assert!(matches!(
            other.restore_snapshot(&snap),
            Err(SnapshotError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn garbage_rejected() {
        let mut t = table();
        assert_eq!(t.restore_snapshot(b"nope"), Err(SnapshotError::BadMagic));
        let mut snap = loaded().to_snapshot();
        snap.truncate(snap.len() - 1);
        assert_eq!(t.restore_snapshot(&snap), Err(SnapshotError::BadLength));
    }

    #[test]
    fn snapshot_size_is_deterministic() {
        let t = loaded();
        assert_eq!(t.to_snapshot().len(), 21 + 16 * 4 * 17);
    }

    #[test]
    fn base_plus_delta_reproduces_the_live_table() {
        let mut live = loaded();
        let base = live.to_snapshot();
        live.begin_delta_epoch();
        // Mutate past the base: two more periods hammering two hot items,
        // so only their buckets dirty.
        for _ in 0..2u64 {
            for i in 0..50u64 {
                live.insert(if i % 2 == 0 { 7 } else { 900 });
            }
            live.end_period();
        }
        let delta = live.to_delta_snapshot();
        assert!(
            delta.len() < live.to_snapshot().len(),
            "a skewed delta must be smaller than the full image"
        );
        let mut restored = table();
        restored.restore_snapshot(&base).unwrap();
        restored.apply_delta_snapshot(&delta).unwrap();
        // Bit-exact over everything a snapshot carries (cells, parity,
        // periods); cumulative stats are process-local and never restored.
        assert_eq!(
            restored.to_snapshot(),
            live.to_snapshot(),
            "base + newest delta must be bit-exact with the live table"
        );
    }

    #[test]
    fn deltas_are_cumulative_and_epoch_scoped() {
        let mut live = loaded();
        live.begin_delta_epoch();
        assert_eq!(live.dirty_bucket_count(), 0);
        for _ in 0..50u64 {
            live.insert(7);
        }
        live.end_period();
        let early = live.to_delta_snapshot();
        for i in 0..50u64 {
            live.insert(i);
        }
        live.end_period();
        let late = live.to_delta_snapshot();
        // Taking a delta does not clear the epoch: the later delta covers
        // at least everything the earlier one did.
        assert!(late.len() >= early.len());
        // A fresh table is entirely dirty — its "delta" is a full image.
        let fresh = table();
        assert_eq!(
            fresh.dirty_bucket_count(),
            16,
            "all buckets dirty at construction"
        );
    }

    #[test]
    fn bad_delta_images_rejected_without_mutation() {
        let mut live = loaded();
        live.begin_delta_epoch();
        for _ in 0..50u64 {
            live.insert(7);
        }
        live.end_period();
        let delta = live.to_delta_snapshot();

        let mut target = table();
        let before = format!("{target:?}");
        assert_eq!(
            target.apply_delta_snapshot(b"bogus"),
            Err(SnapshotError::BadMagic)
        );
        let mut truncated = delta.clone();
        truncated.truncate(truncated.len() - 1);
        assert_eq!(
            target.apply_delta_snapshot(&truncated),
            Err(SnapshotError::BadLength)
        );
        // Out-of-range bucket index in the first entry.
        let mut rogue = delta.clone();
        rogue[25..29].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            target.apply_delta_snapshot(&rogue),
            Err(SnapshotError::BadDelta)
        );
        // A full image is not a delta and vice versa.
        assert_eq!(
            target.apply_delta_snapshot(&live.to_snapshot()),
            Err(SnapshotError::BadMagic)
        );
        assert_eq!(
            target.restore_snapshot(&delta),
            Err(SnapshotError::BadMagic)
        );
        assert_eq!(
            format!("{target:?}"),
            before,
            "failed applies mutate nothing"
        );
    }
}
