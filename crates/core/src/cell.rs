//! A single LTC cell: `⟨ID, frequency, persistency⟩` plus CLOCK flags — and
//! the packed struct-of-arrays `TableStore` the table keeps them in.
//!
//! The paper's persistency field is "a counter to store the estimated
//! persistency and a flag bit" (two flag bits with the Deviation Eliminator).
//! The store takes that literally: each slot is two 64-bit words — the id,
//! and a *meta* word packing `⟨frequency, persistency, flags⟩` with the
//! flags in the persistency word's spare high bits — 16 bytes per cell,
//! exactly the paper's memory model
//! ([`ltc_common::memory::LTC_CELL_BYTES`]).
//!
//! Layout is bucket-tiled struct-of-arrays: bucket `b` owns one contiguous
//! tile of `2d` words — its `d` ids, then its `d` meta words — so every hot
//! scan (find-match over the id lane, find-empty and find-min over the meta
//! lane) is a straight pass over a contiguous slice that LLVM
//! autovectorizes, *and* a whole probe touches one `16·d`-byte region
//! (two cache lines at `d = 8`) instead of scattering across per-field
//! allocations. An earlier four-`Vec` pure-SoA cut of this layout measured
//! ~0.7× the array-of-structs reference at full scale precisely because
//! each probe paid up to four independent cache misses; the tile brings
//! that below the AoS reference's ~3 lines per probe.
//!
//! [`Cell`] remains the *value* type — the unit of snapshots, merges and
//! queries; `TableStore::cell` materialises one from the two words,
//! `TableStore::set_cell` packs one back.

use ltc_common::{ItemId, Weights};

/// Flag bit for even-numbered periods (also the only flag the basic,
/// non-Deviation-Eliminator variant uses).
pub const FLAG_EVEN: u8 = 0b01;
/// Flag bit for odd-numbered periods (Deviation Eliminator only).
pub const FLAG_ODD: u8 = 0b10;
/// Occupancy marker. The paper calls a cell empty iff "the ID field is NULL
/// and the significance equals 0"; since a freshly inserted item can
/// legitimately have significance 0 (e.g. α=0 and persistency still 0), we
/// track occupancy explicitly rather than overloading the id.
pub(crate) const FLAG_OCCUPIED: u8 = 0b100;

/// Persistency ceiling: the counter lives in the 29 bits of the packed meta
/// word below the three flag bits. Persistency grows by at most one per
/// period, so 2^29−1 periods is unreachable in practice; [`Cell`] saturates
/// at the same ceiling so the packed store and the array-of-structs
/// reference stay bit-exact.
pub const PERSIST_MAX: u32 = (1 << 29) - 1;

// --- packed meta word -------------------------------------------------------
//
// bits 0..32   frequency  (u32, saturating)
// bits 32..61  persistency (29 bits, saturating at PERSIST_MAX)
// bits 61..64  flags: EVEN (61), ODD (62), OCCUPIED (63)

const META_FREQ_MASK: u64 = u32::MAX as u64;
const META_PERSIST_SHIFT: u32 = 32;
const META_PERSIST_MASK: u64 = (PERSIST_MAX as u64) << META_PERSIST_SHIFT;
const META_FLAG_SHIFT: u32 = 61;
/// Occupancy bit of a packed meta word (bit 63).
const META_OCCUPIED: u64 = (FLAG_OCCUPIED as u64) << META_FLAG_SHIFT;

/// The meta-word bit for the appearance flag of `parity` (0 = even).
#[inline]
fn meta_flag_bit(parity: u8) -> u64 {
    debug_assert!(parity < 2);
    (u64::from(FLAG_EVEN) << META_FLAG_SHIFT) << (parity & 1)
}

/// Pack `⟨freq, persist, flags⟩` into a meta word.
#[inline]
fn pack_meta(freq: u32, persist: u32, flags: u8) -> u64 {
    u64::from(freq)
        | (u64::from(persist.min(PERSIST_MAX)) << META_PERSIST_SHIFT)
        | (u64::from(flags & (FLAG_EVEN | FLAG_ODD | FLAG_OCCUPIED)) << META_FLAG_SHIFT)
}

#[inline]
fn meta_freq(meta: u64) -> u32 {
    (meta & META_FREQ_MASK) as u32
}

#[inline]
fn meta_persist(meta: u64) -> u32 {
    ((meta & META_PERSIST_MASK) >> META_PERSIST_SHIFT) as u32
}

#[inline]
fn meta_flags(meta: u64) -> u8 {
    (meta >> META_FLAG_SHIFT) as u8
}

/// Materialise a [`Cell`] value from a slot's two packed words — the view
/// the table's in-tile iterations use.
#[inline]
pub(crate) fn unpack(id: ItemId, meta: u64) -> Cell {
    Cell {
        id,
        freq: meta_freq(meta),
        persist: meta_persist(meta),
        flags: meta_flags(meta),
    }
}

/// One cell of the lossy table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cell {
    /// Stored item id (meaningless while unoccupied).
    pub id: ItemId,
    /// Estimated frequency `f̂`.
    pub freq: u32,
    /// Estimated persistency counter `p̂` (the harvested part; flags below
    /// hold the not-yet-harvested current/previous period bits). Saturates
    /// at [`PERSIST_MAX`].
    pub persist: u32,
    flags: u8,
}

impl Cell {
    /// An empty cell.
    pub const EMPTY: Cell = Cell {
        id: 0,
        freq: 0,
        persist: 0,
        flags: 0,
    };

    /// Whether the cell currently holds an item.
    #[inline]
    pub fn occupied(&self) -> bool {
        self.flags & FLAG_OCCUPIED != 0
    }

    /// Occupy the cell with `id`, starting from the given counters, clearing
    /// all period flags.
    #[inline]
    pub fn occupy(&mut self, id: ItemId, freq: u32, persist: u32) {
        self.id = id;
        self.freq = freq;
        self.persist = persist.min(PERSIST_MAX);
        self.flags = FLAG_OCCUPIED;
    }

    /// Expel the item: the cell becomes empty (paper: "the item is expelled
    /// and the cell is made empty").
    #[inline]
    pub fn clear(&mut self) {
        *self = Cell::EMPTY;
    }

    /// Raise the appearance flag for the given period parity (`0` = even,
    /// `1` = odd). The basic variant always passes parity 0.
    #[inline]
    pub fn set_flag(&mut self, parity: u8) {
        debug_assert!(parity < 2);
        self.flags |= FLAG_EVEN << parity;
    }

    /// Whether the appearance flag for `parity` is raised.
    #[inline]
    pub fn flag(&self, parity: u8) -> bool {
        debug_assert!(parity < 2);
        self.flags & (FLAG_EVEN << parity) != 0
    }

    /// CLOCK harvest: if the `parity` flag is raised, consume it and add one
    /// persistency (saturating at [`PERSIST_MAX`]). Returns whether a
    /// harvest happened.
    #[inline]
    pub fn harvest(&mut self, parity: u8) -> bool {
        let bit = FLAG_EVEN << parity;
        if self.flags & bit != 0 {
            self.flags &= !bit;
            self.persist = self.persist.saturating_add(1).min(PERSIST_MAX);
            true
        } else {
            false
        }
    }

    /// The cell's significance under `weights`. Unoccupied cells have
    /// significance 0 by definition.
    #[inline]
    pub fn significance(&self, weights: &Weights) -> f64 {
        if self.occupied() {
            weights.significance(u64::from(self.freq), u64::from(self.persist))
        } else {
            0.0
        }
    }

    /// Exact zero-significance test, avoiding float rounding: `α·f + β·p` is
    /// zero iff each term is zero.
    #[inline]
    pub fn significance_is_zero(&self, weights: &Weights) -> bool {
        (weights.alpha == 0.0 || self.freq == 0) && (weights.beta == 0.0 || self.persist == 0)
    }

    /// Raw flag byte (snapshot support).
    #[inline]
    pub(crate) fn raw_flags(&self) -> u8 {
        self.flags
    }

    /// Rebuild a cell from raw parts (snapshot support). Unknown flag bits
    /// are masked off, out-of-range persistency is clamped, and an
    /// unoccupied cell's id is zeroed (every production path already leaves
    /// empty cells with id 0 — [`Cell::clear`] resets the whole cell — and
    /// the find-match scan's id-only fast path relies on that invariant), so
    /// corrupt snapshots cannot create impossible states.
    #[inline]
    pub(crate) fn from_raw(id: ItemId, freq: u32, persist: u32, flags: u8) -> Self {
        let flags = flags & (FLAG_EVEN | FLAG_ODD | FLAG_OCCUPIED);
        Self {
            id: if flags & FLAG_OCCUPIED != 0 { id } else { 0 },
            freq,
            persist: persist.min(PERSIST_MAX),
            flags,
        }
    }

    /// Significance-Decrementing (paper §III-B1): decrement the persistency
    /// counter, then the frequency, each floored at 0 ("we can avoid such a
    /// case by keeping 0 if it is already 0"). The *caller* expels the cell
    /// if its significance is zero afterwards.
    #[inline]
    pub fn significance_decrement(&mut self) {
        self.persist = self.persist.saturating_sub(1);
        self.freq = self.freq.saturating_sub(1);
    }
}

// ---------------------------------------------------------------------------
// Packed, bucket-tiled struct-of-arrays storage.
// ---------------------------------------------------------------------------

/// Bucket-tiled cell storage: bucket `b` owns the contiguous word tile
/// `b·2d .. (b+1)·2d` — `d` id words followed by `d` packed meta words —
/// so one probe touches one `16·d`-byte region and every scan runs over a
/// contiguous lane slice.
///
/// Two addressings coexist: *slot* indices (`bucket·d + offset`, the order
/// snapshots and the CLOCK use) for the cold accessors, and
/// *(tile base, offset)* pairs for the hot per-bucket operations (no
/// division on the insert path). Out-of-range indices are ignored on writes
/// and report "empty" on reads — the table derives every index from its own
/// hash, so the tolerant behaviour only papers over unreachable states
/// without hiding real bugs (debug builds still assert).
///
/// Invariant: *an unoccupied slot's id word is 0* — established at
/// construction and preserved by every mutator ([`Self::clear_at`] and
/// [`Self::set_cell`] zero the id; occupation writes it fresh). The
/// find-match scan leans on this to decide nonzero probes from the id lane
/// alone (see [`scan_match`]).
///
/// Tiles are cache-line aligned: the allocation carries up to
/// [`TILE_ALIGN_PAD`] words of leading slack and `base` is chosen so tile 0
/// starts on a 64-byte boundary. Production tiles are whole multiples of a
/// line (64 B at `d = 4`, 128 B at `d = 8`, 256 B at `d = 16`), so with an
/// aligned origin *every* tile spans the minimum number of lines — an
/// unaligned `Vec` start would otherwise push each 128-byte `d = 8` tile
/// across three lines instead of two, an allocator-dependent lottery worth
/// a double-digit percentage of probe throughput once the table outgrows
/// L2. The global allocator never guarantees more than 16-byte alignment
/// for `u64` buffers, and the crate forbids `unsafe`, so instead of an
/// aligned allocation the store pads and offsets in safe code. `Clone`,
/// `PartialEq`, and `Debug` are manual for the same reason: a clone's
/// allocation lands at its own address (and must compute its own `base`),
/// and equality and debug output go by the live words so two logically
/// identical tables compare and print the same whatever their slack.
pub(crate) struct TableStore {
    buf: Vec<u64>,
    d: usize,
    /// Number of slots (the allocation is larger by the alignment slack).
    slots: usize,
    /// Word index of tile 0 inside `buf` (0..=[`TILE_ALIGN_PAD`]).
    base: usize,
    /// Per-bucket dirty stamps for delta snapshots: bucket `b` has changed
    /// since the last [`Self::begin_dirty_epoch`] iff `dirty[b] == epoch`.
    /// An epoch bump is the O(1) "clear all" — no per-bucket write on the
    /// snapshot path, and the single stamp store on the mutation path is
    /// plain (non-atomic) because the table is externally synchronised
    /// (each shard lives under its own mutex).
    dirty: Vec<u64>,
    /// Current dirty epoch (starts at 1 with every bucket stamped, so a
    /// fresh table's first delta is a full image).
    epoch: u64,
}

/// Cache-line size the tiles align to, in bytes.
const TILE_ALIGN_BYTES: usize = 64;
/// Leading slack words allocated to guarantee a 64-byte-aligned tile 0.
const TILE_ALIGN_PAD: usize = TILE_ALIGN_BYTES / std::mem::size_of::<u64>() - 1;

impl TableStore {
    /// `total` empty slots in buckets of `d` (`d` is clamped to ≥ 1;
    /// `total` must be a whole number of buckets).
    pub(crate) fn new(total: usize, d: usize) -> Self {
        let d = d.max(1);
        debug_assert_eq!(
            total.checked_rem(d),
            Some(0),
            "total slots must fill whole buckets"
        );
        let words = total.saturating_mul(2);
        let buf = vec![0; words.saturating_add(TILE_ALIGN_PAD)];
        let misalign = (buf.as_ptr() as usize) % TILE_ALIGN_BYTES;
        // `wrapping_sub` never wraps here (`misalign < TILE_ALIGN_BYTES`)
        // and the checked divisors are nonzero constants; the spelled-out
        // forms only state that no overflow or zero check is needed.
        let base = TILE_ALIGN_BYTES
            .wrapping_sub(misalign)
            .checked_rem(TILE_ALIGN_BYTES)
            .and_then(|b| b.checked_div(std::mem::size_of::<u64>()))
            .unwrap_or(0);
        let buckets = total.checked_div(d).unwrap_or(0);
        Self {
            buf,
            d,
            slots: total,
            base,
            // Every bucket starts dirty (stamp 1 == initial epoch): the
            // first delta after construction must carry the whole table.
            dirty: vec![1; buckets],
            epoch: 1,
        }
    }

    /// Number of slots.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.slots
    }

    /// The live word region (tile 0 through the last tile), skipping the
    /// alignment slack.
    #[inline]
    fn words(&self) -> &[u64] {
        let end = self.base.saturating_add(self.slots.saturating_mul(2));
        self.buf.get(self.base..end).unwrap_or(&[])
    }

    /// The word index of bucket `b`'s tile (its id lane; the meta lane
    /// starts `d` words later).
    #[inline]
    pub(crate) fn tile_base(&self, bucket: usize) -> usize {
        self.base
            .saturating_add(bucket.saturating_mul(self.d.saturating_mul(2)))
    }

    /// Stamp bucket `b` dirty in the current epoch. Out-of-range buckets
    /// are ignored (the callers derive `b` from their own hash/tile math).
    #[inline(always)]
    fn mark_dirty_bucket(&mut self, b: usize) {
        if let Some(w) = self.dirty.get_mut(b) {
            *w = self.epoch;
        }
    }

    /// Stamp the bucket whose tile starts at word index `tb` dirty. `D` is
    /// the monomorphised bucket width (0 = use the runtime `d`): for the
    /// production widths the division by `2·D` folds into a shift, so the
    /// per-record cost on the insert path is one compare and one store.
    #[inline(always)]
    pub(crate) fn mark_dirty_tile<const D: usize>(&mut self, tb: usize) {
        let width = if D == 0 { self.d } else { D };
        let bucket = tb
            .saturating_sub(self.base)
            .checked_div(width.saturating_mul(2).max(1))
            .unwrap_or(0);
        self.mark_dirty_bucket(bucket);
    }

    /// Open a new dirty epoch: every bucket is considered clean until its
    /// next mutation. O(1) — the old stamps are invalidated by bumping the
    /// epoch, not rewritten. Call under the same lock that guards the
    /// snapshot read so no mutation can slip between "read buckets" and
    /// "clear dirty".
    pub(crate) fn begin_dirty_epoch(&mut self) {
        // Saturating: if the counter ever pinned at u64::MAX (2^64 epochs),
        // every stamped bucket would simply stay dirty forever — the safe
        // direction (deltas over-report, never under-report).
        self.epoch = self.epoch.saturating_add(1);
    }

    /// Bucket indices dirtied since the last [`Self::begin_dirty_epoch`],
    /// in ascending order.
    pub(crate) fn dirty_buckets(&self) -> impl Iterator<Item = usize> + '_ {
        let epoch = self.epoch;
        self.dirty
            .iter()
            .enumerate()
            .filter_map(move |(b, &w)| (w == epoch).then_some(b))
    }

    /// Number of buckets dirtied since the last [`Self::begin_dirty_epoch`].
    pub(crate) fn dirty_bucket_count(&self) -> usize {
        self.dirty_buckets().count()
    }

    /// Slot `i` → (bucket, in-bucket offset). Production bucket widths are
    /// powers of two, so the hot split is a shift and a mask; the division
    /// only runs for odd widths (merge-era shapes, tests).
    #[inline]
    fn split_slot(&self, i: usize) -> (usize, usize) {
        if self.d.is_power_of_two() {
            (i >> self.d.trailing_zeros(), i & self.d.wrapping_sub(1))
        } else {
            // `d` is clamped ≥ 1 at construction; `checked_*` spells out
            // that the division needs no zero check without risking one.
            (
                i.checked_div(self.d).unwrap_or(0),
                i.checked_rem(self.d).unwrap_or(0),
            )
        }
    }

    /// Slot `i` → (id word index, meta word index).
    #[inline]
    fn indices(&self, i: usize) -> (usize, usize) {
        let (bucket, k) = self.split_slot(i);
        let tb = self.tile_base(bucket);
        (
            tb.saturating_add(k),
            tb.saturating_add(self.d).saturating_add(k),
        )
    }

    /// Materialise slot `i` as a [`Cell`] value.
    #[inline]
    pub(crate) fn cell(&self, i: usize) -> Cell {
        let (ii, mi) = self.indices(i);
        unpack(
            self.buf.get(ii).copied().unwrap_or(0),
            self.buf.get(mi).copied().unwrap_or(0),
        )
    }

    /// Pack a [`Cell`] value into slot `i`'s two words. An unoccupied
    /// cell's id word is written as 0, upholding the store invariant
    /// *unoccupied ⇒ id word is 0* that the find-match scan's id-only fast
    /// path depends on (see [`scan_match`]).
    #[inline]
    pub(crate) fn set_cell(&mut self, i: usize, cell: Cell) {
        let (bucket, _) = self.split_slot(i);
        self.mark_dirty_bucket(bucket);
        let (ii, mi) = self.indices(i);
        if let Some(w) = self.buf.get_mut(ii) {
            *w = if cell.occupied() { cell.id } else { 0 };
        }
        if let Some(w) = self.buf.get_mut(mi) {
            *w = pack_meta(cell.freq, cell.persist, cell.flags);
        }
    }

    /// Iterate every slot as a materialised [`Cell`], in slot order.
    pub(crate) fn iter_cells(&self) -> impl Iterator<Item = Cell> + '_ {
        (0..self.len()).map(move |i| self.cell(i))
    }

    /// The id and meta lanes of the bucket tile at `tb` — everything any
    /// probe reads. Empty slices when out of range.
    #[inline]
    pub(crate) fn lanes(&self, tb: usize) -> (&[ItemId], &[u64]) {
        let mid = tb.saturating_add(self.d);
        let end = mid.saturating_add(self.d);
        (
            self.buf.get(tb..mid).unwrap_or(&[]),
            self.buf.get(mid..end).unwrap_or(&[]),
        )
    }

    /// The id and meta lanes of the bucket tile at `tb`, mutably — the hot
    /// path splits a tile once and probes *and* mutates through the same
    /// pair, instead of re-deriving word indices (and re-checking bounds)
    /// per mutation. Empty slices when out of range.
    #[inline]
    pub(crate) fn lanes_mut(&mut self, tb: usize) -> (&mut [ItemId], &mut [u64]) {
        let end = tb.saturating_add(self.d.saturating_mul(2));
        match self.buf.get_mut(tb..end) {
            Some(tile) => {
                let mid = self.d.min(tile.len());
                tile.split_at_mut(mid)
            }
            None => (&mut [], &mut []),
        }
    }

    /// Touch the first word of each lane of the bucket tile at `tb` — the
    /// prefetch for the batched insert path. Two demand loads start the
    /// tile's id-lane and meta-lane lines `prefetch_distance` records
    /// early. Both lanes are always needed (even a case-1 hit reads ids
    /// and writes its meta), and at `d ≥ 8` they sit on different cache
    /// lines, so touching only the id lane leaves the meta line's miss on
    /// the critical path once the table outgrows L2. Touching *every*
    /// line instead measured strictly slower: each `black_box` is an
    /// optimisation barrier, and the extra barriers cost more than the
    /// fetches hid.
    #[inline]
    pub(crate) fn prefetch_tile(&self, tb: usize) {
        // Copy the values, not the references: `black_box(&x)` only pins
        // the *address*, letting the optimiser drop the load itself.
        if let Some(&w) = self.buf.get(tb) {
            std::hint::black_box(w);
        }
        if let Some(&w) = self.buf.get(tb.saturating_add(self.d)) {
            std::hint::black_box(w);
        }
    }

    /// Whether slot `i` is occupied (test support; production paths read
    /// occupancy during their lane scans).
    #[cfg(test)]
    pub(crate) fn occupied(&self, i: usize) -> bool {
        let (_, mi) = self.indices(i);
        self.buf.get(mi).copied().unwrap_or(0) & META_OCCUPIED != 0
    }

    /// The meta word index of the tile at `tb`, offset `k` — shared by the
    /// hot mutators below.
    #[inline]
    fn meta_index(&self, tb: usize, k: usize) -> usize {
        tb.saturating_add(self.d).saturating_add(k)
    }

    /// Case 1: count a hit in the tile at `tb`, offset `k` — `freq += 1`
    /// (saturating) and raise the period flag, in one meta-word update.
    /// (Test support: the production hit path is [`Self::lane_record_hit`]
    /// on already-split lanes.)
    #[cfg(test)]
    pub(crate) fn record_hit_at(&mut self, tb: usize, k: usize, parity: u8) {
        let mi = self.meta_index(tb, k);
        if let Some(m) = self.buf.get_mut(mi) {
            debug_assert!(*m & META_OCCUPIED != 0, "hit on an unoccupied slot");
            // +1 stays inside the freq field because the increment is
            // withheld once the field saturates.
            let inc = u64::from(*m & META_FREQ_MASK != META_FREQ_MASK);
            *m = (*m).saturating_add(inc) | meta_flag_bit(parity);
        }
    }

    /// [`Self::record_hit_at`] on an already-split meta lane (see
    /// [`Self::lanes_mut`]): same single meta-word update, no re-indexing.
    #[inline(always)]
    pub(crate) fn lane_record_hit(metas: &mut [u64], k: usize, parity: u8) {
        if let Some(m) = metas.get_mut(k) {
            debug_assert!(*m & META_OCCUPIED != 0, "hit on an unoccupied slot");
            let inc = u64::from(*m & META_FREQ_MASK != META_FREQ_MASK);
            *m = (*m).saturating_add(inc) | meta_flag_bit(parity);
        }
    }

    /// Case-2 fill on already-split lanes: occupy `(k)` with `(id, 1, 0)`
    /// and raise the `parity` flag — one id-word and one meta-word write,
    /// bit-identical to [`Self::occupy_at`] + [`Self::set_flag_at`].
    #[inline(always)]
    pub(crate) fn lane_fill(
        ids: &mut [ItemId],
        metas: &mut [u64],
        k: usize,
        id: ItemId,
        parity: u8,
    ) {
        if let (Some(w), Some(m)) = (ids.get_mut(k), metas.get_mut(k)) {
            *w = id;
            *m = pack_meta(1, 0, FLAG_OCCUPIED) | meta_flag_bit(parity);
        }
    }

    /// Occupy the slot at `(tb, k)` with `id` and the given counters,
    /// clearing stale period flags (mirrors [`Cell::occupy`]).
    #[inline]
    pub(crate) fn occupy_at(&mut self, tb: usize, k: usize, id: ItemId, freq: u32, persist: u32) {
        let mi = self.meta_index(tb, k);
        if let Some(w) = self.buf.get_mut(tb.saturating_add(k)) {
            *w = id;
        }
        if let Some(m) = self.buf.get_mut(mi) {
            *m = pack_meta(freq, persist, FLAG_OCCUPIED);
        }
    }

    /// Expel the slot at `(tb, k)` (mirrors [`Cell::clear`]).
    #[inline]
    pub(crate) fn clear_at(&mut self, tb: usize, k: usize) {
        let mi = self.meta_index(tb, k);
        if let Some(w) = self.buf.get_mut(tb.saturating_add(k)) {
            *w = 0;
        }
        if let Some(m) = self.buf.get_mut(mi) {
            *m = 0;
        }
    }

    /// Raise the appearance flag for `parity` on the slot at `(tb, k)`.
    #[inline]
    pub(crate) fn set_flag_at(&mut self, tb: usize, k: usize, parity: u8) {
        let mi = self.meta_index(tb, k);
        if let Some(m) = self.buf.get_mut(mi) {
            *m |= meta_flag_bit(parity);
        }
    }

    /// Significance-Decrement the slot at `(tb, k)` (mirrors
    /// [`Cell::significance_decrement`]): each counter down by one, floored
    /// at zero, without borrowing across fields.
    #[inline]
    pub(crate) fn significance_decrement_at(&mut self, tb: usize, k: usize) {
        let mi = self.meta_index(tb, k);
        if let Some(m) = self.buf.get_mut(mi) {
            let p_dec = u64::from(*m & META_PERSIST_MASK != 0) << META_PERSIST_SHIFT;
            let f_dec = u64::from(*m & META_FREQ_MASK != 0);
            *m = (*m).saturating_sub(p_dec).saturating_sub(f_dec);
        }
    }

    /// Exact zero-significance test for the slot at `(tb, k)` (mirrors
    /// [`Cell::significance_is_zero`]).
    #[inline]
    pub(crate) fn significance_is_zero_at(&self, tb: usize, k: usize, weights: &Weights) -> bool {
        let meta = self.buf.get(self.meta_index(tb, k)).copied().unwrap_or(0);
        (weights.alpha == 0.0 || meta & META_FREQ_MASK == 0)
            && (weights.beta == 0.0 || meta & META_PERSIST_MASK == 0)
    }

    // Slot-addressed twins of the hot mutators (test support — production
    // paths address by tile to keep the division off the insert path).

    /// [`Self::occupy_at`] by slot index.
    #[cfg(test)]
    pub(crate) fn occupy(&mut self, i: usize, id: ItemId, freq: u32, persist: u32) {
        let tb = self.tile_base(i / self.d);
        self.occupy_at(tb, i % self.d, id, freq, persist);
    }

    /// [`Self::record_hit_at`] by slot index.
    #[cfg(test)]
    pub(crate) fn record_hit(&mut self, i: usize, parity: u8) {
        let tb = self.tile_base(i / self.d);
        self.record_hit_at(tb, i % self.d, parity);
    }

    /// [`Self::set_flag_at`] by slot index.
    #[cfg(test)]
    pub(crate) fn set_flag(&mut self, i: usize, parity: u8) {
        let tb = self.tile_base(i / self.d);
        self.set_flag_at(tb, i % self.d, parity);
    }

    /// [`Self::clear_at`] by slot index.
    #[cfg(test)]
    pub(crate) fn clear(&mut self, i: usize) {
        let tb = self.tile_base(i / self.d);
        self.clear_at(tb, i % self.d);
    }

    /// [`Self::significance_decrement_at`] by slot index.
    #[cfg(test)]
    pub(crate) fn significance_decrement(&mut self, i: usize) {
        let tb = self.tile_base(i / self.d);
        self.significance_decrement_at(tb, i % self.d);
    }

    /// [`Self::significance_is_zero_at`] by slot index.
    #[cfg(test)]
    pub(crate) fn significance_is_zero(&self, i: usize, weights: &Weights) -> bool {
        let tb = self.tile_base(i / self.d);
        self.significance_is_zero_at(tb, i % self.d, weights)
    }

    /// CLOCK harvest over the contiguous *slot* run `start..start+len`: for
    /// every slot whose `parity` flag is raised, consume the flag and add
    /// one persistency (saturating at [`PERSIST_MAX`]). Returns the number
    /// of harvests.
    ///
    /// A slot run maps to one meta-lane run per bucket tile it crosses;
    /// each per-tile pass is a branch-light loop over contiguous meta words
    /// (unoccupied slots carry no flags, so no occupancy test is needed)
    /// that LLVM autovectorizes.
    pub(crate) fn harvest_range(&mut self, start: usize, len: usize, parity: u8) -> u64 {
        let bit = meta_flag_bit(parity);
        let d = self.d;
        let end = start.saturating_add(len).min(self.len());
        let mut s = start.min(end);
        // Split the first slot once (shift/mask for production widths);
        // subsequent tiles continue at offset 0, so the loop itself is
        // division-free — the typical per-record call harvests one short
        // run and must not pay two 64-bit divides per tile.
        let (mut bucket, mut k) = self.split_slot(s);
        let mut harvested = 0u64;
        while s < end {
            // Under the loop invariants (`k < d`, `s < end`) both
            // subtractions are plain and `run ≥ 1`; the saturating forms +
            // `max(1)` keep that true — and the loop terminating — even if
            // an invariant were ever broken.
            let run = d.saturating_sub(k).min(end.saturating_sub(s)).max(1);
            let mb = self.meta_index(self.tile_base(bucket), k);
            let metas = self
                .buf
                .get_mut(mb..mb.saturating_add(run))
                .unwrap_or_default();
            let before = harvested;
            for m in metas {
                let hit = *m & bit != 0;
                *m &= !bit;
                let can_grow = hit && *m & META_PERSIST_MASK != META_PERSIST_MASK;
                *m = (*m).saturating_add(u64::from(can_grow) << META_PERSIST_SHIFT);
                harvested = harvested.saturating_add(u64::from(hit));
            }
            // A meta word changed in this tile iff a flag was consumed
            // (clearing the bit and growing persistency both require it),
            // so "harvests grew" is an exact dirty test for the bucket.
            if harvested != before {
                self.mark_dirty_bucket(bucket);
            }
            s = s.saturating_add(run);
            bucket = bucket.saturating_add(1);
            k = 0;
        }
        harvested
    }
}

impl Clone for TableStore {
    /// Fresh aligned allocation + word copy — the clone's buffer lands at
    /// its own address, so it must compute its own alignment `base` rather
    /// than inherit this one's.
    fn clone(&self) -> Self {
        let mut out = Self::new(self.slots, self.d);
        let end = out.base.saturating_add(out.slots.saturating_mul(2));
        if let Some(dst) = out.buf.get_mut(out.base..end) {
            dst.copy_from_slice(self.words());
        }
        // The clone inherits the dirty state too: a snapshot taken from a
        // worker's period-boundary copy must report the same delta set as
        // the original would have.
        out.dirty.copy_from_slice(&self.dirty);
        out.epoch = self.epoch;
        out
    }
}

/// Logical equality: same shape and same live words, alignment slack
/// excluded (two equal tables may carry different `base` offsets).
impl PartialEq for TableStore {
    fn eq(&self, other: &Self) -> bool {
        self.d == other.d && self.slots == other.slots && self.words() == other.words()
    }
}

impl Eq for TableStore {}

/// Logical debug output: live words only, so the representation (which
/// equivalence tests compare) is independent of the alignment slack.
impl std::fmt::Debug for TableStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableStore")
            .field("d", &self.d)
            .field("slots", &self.slots)
            .field("words", &self.words())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Branch-light bucket scans over a tile's lanes.
// ---------------------------------------------------------------------------

/// Find-match: the lane offset of the occupied slot holding `id`, if any.
///
/// No early exit: the table invariant guarantees at most one *occupied*
/// slot per bucket holds a given id, so the whole scan is one branchless
/// mask build — compare the id lane, take the highest set bit ("last
/// occupied match wins"). For a nonzero probe the id lane alone decides
/// occupancy too: the store upholds *unoccupied ⇒ id word is 0* (zeroed at
/// construction, [`TableStore::clear_at`], [`TableStore::set_cell`], and
/// [`Cell::from_raw`]), so a nonzero id can only equal an occupied slot's
/// word — halving the scan's loads. A probe for id 0 takes the
/// occupancy-masked form, since empty slots also carry id word 0.
/// Dispatching on the bucket width first gives the common widths a
/// *compile-time* trip count, which LLVM flattens into straight-line
/// compares and a mask reduction instead of a generic loop with a scalar
/// epilogue.
#[inline(always)]
pub(crate) fn scan_match(ids: &[ItemId], metas: &[u64], id: ItemId) -> Option<usize> {
    match (ids.len(), metas.len()) {
        (4, 4) => scan_match_fixed::<4>(ids, metas, id),
        (8, 8) => scan_match_fixed::<8>(ids, metas, id),
        (16, 16) => scan_match_fixed::<16>(ids, metas, id),
        _ => hit_of(match_mask(ids, metas, id)),
    }
}

#[inline(always)]
fn scan_match_fixed<const D: usize>(ids: &[ItemId], metas: &[u64], id: ItemId) -> Option<usize> {
    match (<&[ItemId; D]>::try_from(ids), <&[u64; D]>::try_from(metas)) {
        (Ok(ids), Ok(metas)) => hit_of(match_mask(ids.as_slice(), metas.as_slice(), id)),
        // Unreachable (the dispatcher checked both lengths), but falling
        // back beats panicking in a scan.
        _ => hit_of(match_mask(ids, metas, id)),
    }
}

/// Bit `k` set iff slot `k` is occupied and holds `id` (`k < 32`: bucket
/// widths are far below that).
#[inline(always)]
fn match_mask(ids: &[ItemId], metas: &[u64], id: ItemId) -> u32 {
    if id != 0 {
        // Id-only compare, sound by the store invariant (see [`scan_match`]).
        // Branchless on purpose: an early-exit `position()` scan measured
        // ~10 % slower end-to-end — the exit slot varies per record, so its
        // branch mispredicts, and 8 unrolled compares from one cache line
        // cost less than one mispredict.
        let mut mask = 0u32;
        for (k, &cid) in ids.iter().enumerate() {
            mask |= u32::from(cid == id) << (k as u32 & 31);
        }
        return mask;
    }
    // Probe id 0 collides with the empty-slot id word: mask with occupancy.
    let mut mask = 0u32;
    for (k, (&cid, &m)) in ids.iter().zip(metas).enumerate() {
        mask |= u32::from((cid == id) & (m & META_OCCUPIED != 0)) << (k as u32 & 31);
    }
    mask
}

/// Highest set bit of a match mask → "last occupied match wins" offset.
#[inline(always)]
fn hit_of(mask: u32) -> Option<usize> {
    (mask != 0).then(|| 31usize.saturating_sub(mask.leading_zeros() as usize))
}

/// Find-empty: the lane offset of the *first* unoccupied slot, if any —
/// the lowest set bit of the vacancy mask, same tie-break as the old
/// first-empty AoS scan, without a data-dependent exit. Same fixed-width
/// dispatch as [`scan_match`].
#[inline(always)]
pub(crate) fn scan_empty(metas: &[u64]) -> Option<usize> {
    match metas.len() {
        4 => scan_empty_fixed::<4>(metas),
        8 => scan_empty_fixed::<8>(metas),
        16 => scan_empty_fixed::<16>(metas),
        _ => empty_of(vacancy_mask(metas)),
    }
}

#[inline(always)]
fn scan_empty_fixed<const D: usize>(metas: &[u64]) -> Option<usize> {
    match <&[u64; D]>::try_from(metas) {
        Ok(metas) => empty_of(vacancy_mask(metas.as_slice())),
        _ => empty_of(vacancy_mask(metas)),
    }
}

/// Bit `k` set iff slot `k` is unoccupied.
#[inline(always)]
fn vacancy_mask(metas: &[u64]) -> u32 {
    let mut mask = 0u32;
    for (k, &m) in metas.iter().enumerate() {
        mask |= u32::from(m & META_OCCUPIED == 0) << (k as u32 & 31);
    }
    mask
}

/// Lowest set bit of a vacancy mask → first-empty offset.
#[inline(always)]
fn empty_of(mask: u32) -> Option<usize> {
    (mask != 0).then(|| mask.trailing_zeros() as usize)
}

/// Find-min-significance over a *full* bucket (every slot occupied — the
/// only state in which the caller consults the minimum): the lane offset of
/// the first slot attaining the minimal `α·f + β·p`, and that minimum.
/// Strict `<` keeps the first minimal slot, matching the AoS scan's
/// tie-break.
#[inline(always)]
pub(crate) fn scan_min(metas: &[u64], weights: &Weights) -> (usize, f64) {
    if metas.is_empty() {
        return (0, f64::INFINITY);
    }
    // Integer fast paths: for the canonical weightings, significance order
    // is the order of an integer key read straight off the meta word —
    // α = β = 1 orders by f + p (exact: f + p < 2³³ so every sum is a f64
    // integer), β = 0 by f, α = 0 by p (strictly monotone for normal
    // weights: consecutive products differ by α ≫ ulp(α·2³²) ≈ α·2⁻²⁰, so
    // rounding never collapses distinct fields — note α = β ≠ 1 does NOT
    // qualify, e.g. α = 0.1 maps (f=1, p=2) above (f=3, p=0)). The key map
    // preserves both order and ties, so the winning slot and first-minimal
    // tie-break are bit-identical to the float scan; only then is the
    // winner's significance materialised (equal to the float minimum by
    // definition).
    let min_k = if weights.alpha == 1.0 && weights.beta == 1.0 {
        argmin_key(metas, |m| {
            (m & META_FREQ_MASK).wrapping_add((m & META_PERSIST_MASK) >> META_PERSIST_SHIFT)
        })
    } else if weights.beta == 0.0 && weights.alpha.is_normal() && weights.alpha > 0.0 {
        argmin_key(metas, |m| m & META_FREQ_MASK)
    } else if weights.alpha == 0.0 && weights.beta.is_normal() && weights.beta > 0.0 {
        argmin_key(metas, |m| (m & META_PERSIST_MASK) >> META_PERSIST_SHIFT)
    } else {
        return match metas.len() {
            4 => scan_min_fixed::<4>(metas, weights),
            8 => scan_min_fixed::<8>(metas, weights),
            16 => scan_min_fixed::<16>(metas, weights),
            _ => scan_min_any(metas, weights),
        };
    };
    let m = metas.get(min_k).copied().unwrap_or(0);
    (
        min_k,
        weights.significance(u64::from(meta_freq(m)), u64::from(meta_persist(m))),
    )
}

/// First-minimal argmin over an integer key of each meta word, with the
/// same fixed-width dispatch as the other scans.
#[inline(always)]
fn argmin_key(metas: &[u64], key: impl Fn(u64) -> u64 + Copy) -> usize {
    match metas.len() {
        4 => argmin_key_fixed::<4>(metas, key),
        8 => argmin_key_fixed::<8>(metas, key),
        16 => argmin_key_fixed::<16>(metas, key),
        _ => argmin_key_any(metas, key),
    }
}

#[inline(always)]
fn argmin_key_fixed<const D: usize>(metas: &[u64], key: impl Fn(u64) -> u64 + Copy) -> usize {
    let Ok(metas) = <&[u64; D]>::try_from(metas) else {
        return argmin_key_any(metas, key);
    };
    let mut keys = [u64::MAX; D];
    for (slot, &m) in keys.iter_mut().zip(metas.iter()) {
        *slot = key(m);
    }
    let mut min = u64::MAX;
    for &x in &keys {
        min = min.min(x);
    }
    let mut min_k = 0usize;
    for (k, &x) in keys.iter().enumerate().rev() {
        if x == min {
            min_k = k;
        }
    }
    min_k
}

#[inline(always)]
fn argmin_key_any(metas: &[u64], key: impl Fn(u64) -> u64 + Copy) -> usize {
    let mut min_k = 0usize;
    let mut min_key = u64::MAX;
    for (k, &m) in metas.iter().enumerate() {
        let x = key(m);
        if x < min_key {
            min_key = x;
            min_k = k;
        }
    }
    min_k
}

/// Runtime-width argmin — the sequential `<` carries a loop dependence, so
/// this form stays scalar; the fixed-width form below restructures it into
/// vectorizable passes.
#[inline(always)]
fn scan_min_any(metas: &[u64], weights: &Weights) -> (usize, f64) {
    let mut min_k = 0usize;
    let mut min_sig = f64::INFINITY;
    for (k, &m) in metas.iter().enumerate() {
        let sig = weights.significance(u64::from(meta_freq(m)), u64::from(meta_persist(m)));
        if sig < min_sig {
            min_sig = sig;
            min_k = k;
        }
    }
    (min_k, min_sig)
}

/// Fixed-width argmin in three data-parallel passes: materialise every
/// slot's significance, fmin-reduce, then take the first slot attaining the
/// minimum — bit-identical to the strict-`<` scan (same values, same
/// first-minimal tie-break) but with no loop-carried select, so each pass
/// vectorizes.
#[inline(always)]
fn scan_min_fixed<const D: usize>(metas: &[u64], weights: &Weights) -> (usize, f64) {
    let Ok(metas) = <&[u64; D]>::try_from(metas) else {
        return scan_min_any(metas, weights);
    };
    let mut sigs = [f64::INFINITY; D];
    for (sig, &m) in sigs.iter_mut().zip(metas.iter()) {
        *sig = weights.significance(u64::from(meta_freq(m)), u64::from(meta_persist(m)));
    }
    let mut min_sig = f64::INFINITY;
    for &s in &sigs {
        min_sig = min_sig.min(s);
    }
    let mut min_k = 0usize;
    for (k, &s) in sigs.iter().enumerate().rev() {
        if s == min_sig {
            min_k = k;
        }
    }
    (min_k, min_sig)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cell_is_unoccupied_zero_significance() {
        let c = Cell::EMPTY;
        assert!(!c.occupied());
        assert_eq!(c.significance(&Weights::BALANCED), 0.0);
        assert!(c.significance_is_zero(&Weights::BALANCED));
    }

    #[test]
    fn occupy_sets_state_and_clears_flags() {
        let mut c = Cell::EMPTY;
        c.set_flag(0); // stray flag from a previous occupant must not leak
        c.occupy(42, 3, 1);
        assert!(c.occupied());
        assert_eq!((c.id, c.freq, c.persist), (42, 3, 1));
        assert!(!c.flag(0));
        assert!(!c.flag(1));
    }

    #[test]
    fn harvest_consumes_flag_once() {
        let mut c = Cell::EMPTY;
        c.occupy(1, 1, 0);
        c.set_flag(1);
        assert!(c.harvest(1));
        assert_eq!(c.persist, 1);
        assert!(!c.harvest(1), "flag already consumed");
        assert_eq!(c.persist, 1);
    }

    #[test]
    fn harvest_checks_requested_parity_only() {
        let mut c = Cell::EMPTY;
        c.occupy(1, 1, 0);
        c.set_flag(0);
        assert!(!c.harvest(1), "odd harvest must not see even flag");
        assert!(c.flag(0), "even flag untouched");
    }

    #[test]
    fn persistency_saturates_at_packed_ceiling() {
        let mut c = Cell::EMPTY;
        c.occupy(1, 1, PERSIST_MAX);
        c.set_flag(0);
        assert!(c.harvest(0), "the harvest still consumes the flag");
        assert_eq!(c.persist, PERSIST_MAX, "…but the counter is pinned");
        // The packed store agrees bit for bit.
        let mut store = TableStore::new(2, 2);
        store.occupy(0, 1, 1, PERSIST_MAX);
        store.set_flag(0, 0);
        assert_eq!(store.harvest_range(0, 2, 0), 1);
        assert_eq!(store.cell(0), c);
        // Out-of-range restores clamp instead of corrupting neighbours.
        assert_eq!(Cell::from_raw(1, 1, u32::MAX, 0).persist, PERSIST_MAX);
    }

    #[test]
    fn decrement_floors_at_zero() {
        let mut c = Cell::EMPTY;
        c.occupy(1, 2, 0);
        c.significance_decrement();
        assert_eq!((c.freq, c.persist), (1, 0));
        c.significance_decrement();
        assert_eq!((c.freq, c.persist), (0, 0));
        c.significance_decrement();
        assert_eq!((c.freq, c.persist), (0, 0), "never negative");
    }

    #[test]
    fn zero_significance_respects_weights() {
        let mut c = Cell::EMPTY;
        c.occupy(1, 5, 0);
        assert!(!c.significance_is_zero(&Weights::FREQUENT));
        // With α=0 a cell with persistency 0 has significance 0 even at f=5.
        assert!(c.significance_is_zero(&Weights::PERSISTENT));
    }

    #[test]
    fn significance_matches_weights() {
        let mut c = Cell::EMPTY;
        c.occupy(1, 10, 3);
        let w = Weights::new(2.0, 5.0);
        assert_eq!(c.significance(&w), 35.0);
    }

    #[test]
    fn store_cell_roundtrips_through_lanes() {
        // Two buckets of 4 so slot 5 crosses into the second tile.
        let mut store = TableStore::new(8, 4);
        let mut c = Cell::EMPTY;
        c.occupy(42, 3, 1);
        c.set_flag(1);
        store.set_cell(5, c);
        assert_eq!(store.cell(5), c);
        assert!(store.occupied(5));
        assert!(!store.occupied(4));
        let all: Vec<Cell> = store.iter_cells().collect();
        assert_eq!(all.len(), 8);
        assert_eq!(all[5], c);
        assert_eq!(all[0], Cell::EMPTY);
        // The second tile's lanes see the same state the slot API wrote.
        let (ids, metas) = store.lanes(store.tile_base(1));
        assert_eq!(ids, [0, 42, 0, 0]);
        assert_eq!(scan_match(ids, metas, 42), Some(1));
    }

    #[test]
    fn store_mutators_mirror_cell_methods() {
        let mut store = TableStore::new(4, 2);
        let mut oracle = Cell::EMPTY;
        store.occupy(2, 9, 5, 1);
        oracle.occupy(9, 5, 1);
        assert_eq!(store.cell(2), oracle);
        store.record_hit(2, 1);
        oracle.freq = oracle.freq.saturating_add(1);
        oracle.set_flag(1);
        assert_eq!(store.cell(2), oracle);
        store.significance_decrement(2);
        oracle.significance_decrement();
        assert_eq!(store.cell(2), oracle);
        assert_eq!(
            store.significance_is_zero(2, &Weights::BALANCED),
            oracle.significance_is_zero(&Weights::BALANCED)
        );
        store.clear(2);
        oracle.clear();
        assert_eq!(store.cell(2), oracle);
    }

    #[test]
    fn record_hit_saturates_frequency_within_its_field() {
        let mut store = TableStore::new(2, 2);
        store.occupy(0, 7, u32::MAX, 3);
        store.record_hit(0, 0);
        let c = store.cell(0);
        assert_eq!(c.freq, u32::MAX, "no carry out of the freq field");
        assert_eq!(c.persist, 3, "persistency untouched");
        assert!(c.flag(0), "the flag is still raised");
    }

    #[test]
    fn store_harvest_range_matches_cell_harvest() {
        // Two buckets of 3: the harvest run crosses a tile boundary.
        let mut store = TableStore::new(6, 3);
        let mut oracle: Vec<Cell> = (0..6).map(|_| Cell::EMPTY).collect();
        for i in [0usize, 2, 3] {
            store.occupy(i, i as u64 + 1, 1, 0);
            oracle[i].occupy(i as u64 + 1, 1, 0);
            store.set_flag(i, 1);
            oracle[i].set_flag(1);
        }
        // Slot 3 also carries the even flag, which an odd harvest must keep.
        store.set_flag(3, 0);
        oracle[3].set_flag(0);
        let harvested = store.harvest_range(0, 6, 1);
        let want: u64 = oracle.iter_mut().map(|c| u64::from(c.harvest(1))).sum();
        assert_eq!(harvested, want);
        for (i, c) in oracle.iter().enumerate() {
            assert_eq!(store.cell(i), *c, "slot {i}");
        }
        assert_eq!(store.harvest_range(0, 6, 1), 0, "flags consumed");
    }

    #[test]
    fn scan_match_finds_occupied_id_only() {
        let mut store = TableStore::new(4, 4);
        store.occupy(1, 7, 1, 0);
        store.occupy(3, 9, 1, 0);
        let (ids, metas) = store.lanes(store.tile_base(0));
        assert_eq!(scan_match(ids, metas, 9), Some(3));
        assert_eq!(scan_match(ids, metas, 7), Some(1));
        // Slot 0 holds id 0 but is unoccupied: a probe for 0 must miss.
        assert_eq!(scan_match(ids, metas, 0), None);
        assert_eq!(scan_match(ids, metas, 12345), None);
    }

    #[test]
    fn scan_match_handles_item_id_zero() {
        // Item id 0 is a legitimate stream id whose word collides with the
        // empty-slot sentinel, so its probes take the occupancy-masked path.
        let mut store = TableStore::new(4, 4);
        store.occupy(2, 0, 1, 0);
        let (ids, metas) = store.lanes(store.tile_base(0));
        assert_eq!(scan_match(ids, metas, 0), Some(2));
        store.clear(2);
        let (ids, metas) = store.lanes(store.tile_base(0));
        assert_eq!(scan_match(ids, metas, 0), None);
    }

    #[test]
    fn unoccupied_cells_never_carry_an_id() {
        // The id-only find-match fast path is sound only because every way
        // an unoccupied cell can enter the store zeroes its id word.
        assert_eq!(Cell::from_raw(7, 1, 2, 0).id, 0, "corrupt snapshot cell");
        assert_eq!(Cell::from_raw(7, 1, 2, FLAG_OCCUPIED).id, 7);
        let mut store = TableStore::new(4, 4);
        let mut rogue = Cell::EMPTY;
        rogue.id = 9;
        store.set_cell(1, rogue);
        let (ids, metas) = store.lanes(store.tile_base(0));
        assert_eq!(ids[1], 0);
        assert_eq!(scan_match(ids, metas, 9), None);
        store.occupy(1, 9, 1, 0);
        store.clear(1);
        let (ids, _) = store.lanes(store.tile_base(0));
        assert_eq!(ids[1], 0, "clear must reset the id word");
    }

    #[test]
    fn scan_empty_returns_first_vacancy() {
        let mut store = TableStore::new(4, 4);
        store.occupy(0, 7, 1, 0);
        store.occupy(2, 9, 1, 0);
        let (_, metas) = store.lanes(store.tile_base(0));
        assert_eq!(scan_empty(metas), Some(1), "first of slots 1 and 3");
        let mut full = TableStore::new(2, 2);
        full.occupy(0, 1, 1, 0);
        full.occupy(1, 2, 1, 0);
        let (_, metas) = full.lanes(full.tile_base(0));
        assert_eq!(scan_empty(metas), None);
    }

    #[test]
    fn scan_min_keeps_first_minimal_slot() {
        let mut store = TableStore::new(4, 4);
        for (i, f) in [5u32, 2, 2, 9].into_iter().enumerate() {
            store.occupy(i, i as u64 + 1, f, 0);
        }
        let (_, metas) = store.lanes(store.tile_base(0));
        let (k, sig) = scan_min(metas, &Weights::FREQUENT);
        assert_eq!((k, sig), (1, 2.0), "ties break to the first slot");
    }

    #[test]
    fn fresh_store_is_fully_dirty_and_epoch_clears_it() {
        let mut store = TableStore::new(16, 4);
        assert_eq!(
            store.dirty_buckets().collect::<Vec<_>>(),
            vec![0, 1, 2, 3],
            "a new table's first delta must cover everything"
        );
        store.begin_dirty_epoch();
        assert_eq!(store.dirty_bucket_count(), 0);
    }

    #[test]
    fn set_cell_and_tile_stamp_mark_only_their_bucket() {
        let mut store = TableStore::new(16, 4);
        store.begin_dirty_epoch();
        store.set_cell(5, Cell::from_raw(42, 1, 0, FLAG_OCCUPIED));
        assert_eq!(store.dirty_buckets().collect::<Vec<_>>(), vec![1]);
        store.begin_dirty_epoch();
        let tb = store.tile_base(3);
        store.mark_dirty_tile::<4>(tb);
        assert_eq!(store.dirty_buckets().collect::<Vec<_>>(), vec![3]);
        // The runtime-width (D = 0) form resolves the same bucket.
        store.begin_dirty_epoch();
        store.mark_dirty_tile::<0>(tb);
        assert_eq!(store.dirty_buckets().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn harvest_marks_exactly_the_buckets_with_consumed_flags() {
        let mut store = TableStore::new(16, 4);
        store.occupy(1, 7, 1, 0);
        store.occupy(9, 8, 1, 0);
        store.set_flag(1, 0); // bucket 0
        store.set_flag(9, 0); // bucket 2
        store.begin_dirty_epoch();
        let harvested = store.harvest_range(0, 16, 0);
        assert_eq!(harvested, 2);
        assert_eq!(
            store.dirty_buckets().collect::<Vec<_>>(),
            vec![0, 2],
            "flag-free buckets stay clean across a sweep"
        );
        store.begin_dirty_epoch();
        assert_eq!(store.harvest_range(0, 16, 0), 0, "flags consumed");
        assert_eq!(store.dirty_bucket_count(), 0, "no-op sweep dirties nothing");
    }

    #[test]
    fn clone_carries_the_dirty_state() {
        let mut store = TableStore::new(8, 4);
        store.begin_dirty_epoch();
        store.set_cell(6, Cell::from_raw(9, 2, 1, FLAG_OCCUPIED));
        let copy = store.clone();
        assert_eq!(copy.dirty_buckets().collect::<Vec<_>>(), vec![1]);
        assert_eq!(copy, store, "dirty state is not part of logical equality");
    }
}
