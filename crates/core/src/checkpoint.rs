//! Crash-consistent checkpoints: a framed, versioned, checksummed envelope
//! around the raw snapshots of [`crate::snapshot`], plus a [`Checkpointer`]
//! that publishes checkpoint files atomically and falls back across
//! generations on restore.
//!
//! The raw `to_snapshot` bytes are deliberately minimal (no checksum, no
//! version) because they live in memory. The moment state crosses a crash
//! boundary — a file, a socket — it needs to defend itself: a torn write
//! publishes a prefix, media flips bytes, an operator points a restore at
//! the checkpoint of a differently-configured table. The checkpoint frame
//! catches all three.
//!
//! ## Frame layout (little-endian)
//!
//! ```text
//! offset  size  field
//!      0     4  magic          "LTCF"
//!      4     2  format version (currently 1)
//!      6     2  flags          (reserved, must be zero)
//!      8     8  config fingerprint (FNV-1a over the canonical config
//!                                  encoding; shard configs chained in
//!                                  order for sharded tables)
//!     16     4  section count
//!     20     4  CRC-32 (IEEE) over the body
//!     24     …  body: per section, u32 length prefix + payload
//! ```
//!
//! Every header field is validated on decode and the CRC covers the whole
//! body (including the length prefixes), so **any** single-byte corruption
//! is detected: magic/version/flags/fingerprint flips fail their field
//! checks, a section-count flip breaks exact-consumption parsing, and any
//! body flip (CRC field included) fails the checksum. A fuzz test mutates
//! valid frames at arbitrary offsets to pin this down.
//!
//! ## Atomic publication
//!
//! [`Checkpointer::save`] writes `ltc.NNN….tmp`, fsyncs it, then
//! atomically renames it to `ltc.NNN….ckpt` (and fsyncs the directory):
//! a crash leaves either the complete new generation or none — never a
//! half-written `.ckpt`. Restore walks generations newest-first and takes
//! the first frame that decodes cleanly, so even a corrupted published
//! image (torn by a dying disk, injected via the `checkpoint::write`
//! failpoint) only costs one generation.
//!
//! ## Delta chains
//!
//! A *delta frame* is an ordinary `LTCF` frame whose first section is a
//! 20-byte `DLTA` chain header (magic, base generation u64, base CRC u32,
//! chain length u32) and whose remaining sections are per-shard `LTCD`
//! delta snapshots ([`crate::snapshot`]) carrying only the buckets dirtied
//! since the chain's *base* — the full frame whose save moved the shards'
//! delta cursor. Deltas are cumulative, so restore needs exactly
//! two frames: the base and the newest delta. The chain header links them
//! with the CRC-32 of the base's published bytes; if the base is missing,
//! unreadable, or its bytes no longer match that CRC, the chain is broken
//! ([`CheckpointError::BrokenChain`]) and restore falls back a generation
//! instead of reviving torn or mixed state. Periodic *compaction* (a fresh
//! full frame) bounds chain length and lets old generations prune away.
//!
//! The [`DurabilityService`](crate::durability::DurabilityService) is the
//! only writer of chains. Its full saves are the only calls that move the
//! delta cursor of a runtime's shards (the workers' rollback images keep
//! cursors of their own), and a runtime takes one service at a time
//! ([`CheckpointError::AlreadyAttached`]), so nothing else can move the
//! cursor a live chain's deltas are counted from.
//! [`ParallelLtc::to_checkpoint`] and [`ParallelLtc::checkpoint_to`] write
//! plain full frames and leave the cursor alone.
//!
//! Restore decodes each frame once, against the runtime's fingerprint.
//! Section 0 tells a delta from a full frame; a delta's base is loaded,
//! checked against the chain CRC and decoded, and base and delta stage
//! into shard clones together before anything commits.

use crate::config::LtcConfig;
use crate::failpoint::{io_fault, FailAction};
use crate::obs::trace::names;
use crate::obs::RuntimeObs;
use crate::pipeline::{lock_recover, ParallelLtc, ShardSet};
use crate::sharded::ShardedLtc;
use crate::snapshot::{snapshot_len, SnapshotError};
use crate::table::Ltc;
use std::io::Write;
use std::path::{Path, PathBuf};

/// First four bytes of every checkpoint frame.
pub const CHECKPOINT_MAGIC: &[u8; 4] = b"LTCF";

/// Current frame format version.
pub const CHECKPOINT_VERSION: u16 = 1;

/// Frame header size: magic 4 + version 2 + flags 2 + fingerprint 8 +
/// section count 4 + CRC 4.
const HEADER_BYTES: usize = 24;

/// Offset of the header's CRC field.
const CRC_AT: usize = 20;

/// Error decoding, validating or storing a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Not a checkpoint frame.
    BadMagic,
    /// Frame format version this build cannot read.
    BadVersion {
        /// Version found in the frame.
        found: u16,
    },
    /// Reserved flag bits were set (corruption or a future format).
    ReservedFlags {
        /// Flag bits found in the frame.
        found: u16,
    },
    /// The frame was written by a differently-configured table.
    ConfigMismatch {
        /// Fingerprint of the restoring table's configuration.
        expected: u64,
        /// Fingerprint stored in the frame.
        found: u64,
    },
    /// The body does not match its CRC-32 (corruption).
    ChecksumMismatch {
        /// CRC stored in the frame.
        expected: u32,
        /// CRC computed over the body.
        found: u32,
    },
    /// The frame ends mid-field or mid-section (torn write).
    Truncated,
    /// Bytes remain after the declared sections (corruption or padding).
    TrailingBytes,
    /// The frame holds a different number of sections than the restoring
    /// table has shards.
    SectionCount {
        /// Sections the restoring table needs.
        expected: usize,
        /// Sections the frame declares.
        found: usize,
    },
    /// A section decoded as a frame but failed snapshot validation.
    Snapshot(SnapshotError),
    /// A delta frame's base full frame is missing, unreadable, or does not
    /// match the chain CRC the delta recorded (torn or reordered chain).
    BrokenChain {
        /// Generation of the delta whose chain failed validation.
        delta: u64,
        /// Base generation the delta pointed at.
        base: u64,
    },
    /// Filesystem error reading or writing checkpoint files.
    Io(String),
    /// No generation on disk survived validation.
    NoCheckpoint,
    /// The runtime already has a live
    /// [`DurabilityService`](crate::durability::DurabilityService): a
    /// runtime takes one service at a time, since its shards' one delta
    /// cursor can serve only one delta chain.
    AlreadyAttached,
    /// A [`ParallelLtc`] frame's shard sections disagree on the period
    /// count: a torn cut, which no replay of any record prefix produces
    /// (older builds wrote such frames when a timer save overlapped a
    /// period close). A [`ShardedLtc`], whose shards may be fed apart,
    /// accepts such a frame.
    PeriodMismatch {
        /// The first shard whose count differs from shard 0's.
        shard: usize,
        /// Shard 0's period count.
        expected: u64,
        /// That shard's period count.
        found: u64,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a checkpoint frame (bad magic)"),
            CheckpointError::BadVersion { found } => {
                write!(f, "unsupported checkpoint format version {found}")
            }
            CheckpointError::ReservedFlags { found } => {
                write!(f, "reserved checkpoint flags set: {found:#06x}")
            }
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint config fingerprint {found:#018x} does not match table {expected:#018x}"
            ),
            CheckpointError::ChecksumMismatch { expected, found } => write!(
                f,
                "checkpoint body CRC {found:#010x} does not match stored {expected:#010x}"
            ),
            CheckpointError::Truncated => write!(f, "checkpoint frame truncated"),
            CheckpointError::TrailingBytes => write!(f, "checkpoint frame has trailing bytes"),
            CheckpointError::SectionCount { expected, found } => write!(
                f,
                "checkpoint holds {found} section(s), table needs {expected}"
            ),
            CheckpointError::Snapshot(e) => write!(f, "checkpoint section invalid: {e}"),
            CheckpointError::BrokenChain { delta, base } => write!(
                f,
                "delta generation {delta} has a broken chain to base generation {base}"
            ),
            CheckpointError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            CheckpointError::NoCheckpoint => write!(f, "no valid checkpoint generation found"),
            CheckpointError::AlreadyAttached => {
                write!(f, "runtime already has a durability service")
            }
            CheckpointError::PeriodMismatch {
                shard,
                expected,
                found,
            } => write!(
                f,
                "checkpoint is a torn cut: shard {shard} is at period {found}, shard 0 at {expected}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapshotError> for CheckpointError {
    fn from(e: SnapshotError) -> Self {
        CheckpointError::Snapshot(e)
    }
}

fn io_err(e: &std::io::Error) -> CheckpointError {
    CheckpointError::Io(e.to_string())
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected) — table built at compile time.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit: u32 = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit = bit.wrapping_add(1); // bounded by the `< 8` guard
        }
        table[i] = crc;
        i = i.wrapping_add(1); // bounded by the `< 256` guard
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in bytes {
        let idx = ((crc ^ u32::from(b)) & 0xFF) as usize;
        crc = (crc >> 8) ^ CRC32_TABLE.get(idx).copied().unwrap_or(0);
    }
    !crc
}

// ---------------------------------------------------------------------------
// Config fingerprint — FNV-1a over a canonical encoding.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut hash = state;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Mix one config into a running fingerprint (see
/// [`config_fingerprint`]).
fn mix_config(state: u64, config: &LtcConfig) -> u64 {
    use crate::config::PeriodMode;
    let mut h = state;
    h = fnv1a(h, &(config.buckets as u64).to_le_bytes());
    h = fnv1a(h, &(config.cells_per_bucket as u64).to_le_bytes());
    h = fnv1a(h, &config.weights.alpha.to_bits().to_le_bytes());
    h = fnv1a(h, &config.weights.beta.to_bits().to_le_bytes());
    let (tag, value) = match config.period_mode {
        PeriodMode::ByCount { records_per_period } => (0u8, records_per_period),
        PeriodMode::ByTime { units_per_period } => (1u8, units_per_period),
    };
    h = fnv1a(h, &[tag]);
    h = fnv1a(h, &value.to_le_bytes());
    h = fnv1a(
        h,
        &[
            u8::from(config.variant.deviation_eliminator),
            u8::from(config.variant.long_tail_replacement),
        ],
    );
    h = fnv1a(h, &config.seed.to_le_bytes());
    h
}

/// Fingerprint of one table configuration: every field that affects
/// snapshot compatibility (shape, weights, period mode, variant, seed) is
/// hashed in a fixed order, so equal fingerprints mean "a snapshot of one
/// restores meaningfully into the other".
pub fn config_fingerprint(config: &LtcConfig) -> u64 {
    mix_config(FNV_OFFSET, config)
}

/// Fingerprint of an ordered set of shard configurations (number of shards
/// and per-shard seed perturbations included).
pub fn configs_fingerprint<'a>(configs: impl IntoIterator<Item = &'a LtcConfig>) -> u64 {
    let mut h = FNV_OFFSET;
    let mut count: u64 = 0;
    for config in configs {
        h = mix_config(h, config);
        count = count.saturating_add(1);
    }
    fnv1a(h, &count.to_le_bytes())
}

// ---------------------------------------------------------------------------
// Frame encode / decode.

fn read_u16(bytes: &[u8], at: usize) -> Option<u16> {
    let end = at.checked_add(2)?;
    let slice: [u8; 2] = bytes.get(at..end)?.try_into().ok()?;
    Some(u16::from_le_bytes(slice))
}

fn read_u32(bytes: &[u8], at: usize) -> Option<u32> {
    let end = at.checked_add(4)?;
    let slice: [u8; 4] = bytes.get(at..end)?.try_into().ok()?;
    Some(u32::from_le_bytes(slice))
}

fn read_u64(bytes: &[u8], at: usize) -> Option<u64> {
    let end = at.checked_add(8)?;
    let slice: [u8; 8] = bytes.get(at..end)?.try_into().ok()?;
    Some(u64::from_le_bytes(slice))
}

/// Wrap `sections` in a checkpoint frame stamped with `fingerprint`, in
/// one buffer of the frame's length.
pub fn encode_frame(fingerprint: u64, sections: &[Vec<u8>]) -> Vec<u8> {
    let frame_len = sections
        .iter()
        .map(|s| s.len().saturating_add(4))
        .fold(HEADER_BYTES, usize::saturating_add);
    frame(fingerprint, sections.len(), frame_len, |out| {
        for section in sections {
            push_section(out, section.len(), |out| out.extend_from_slice(section));
        }
    })
}

/// A frame of `count` sections stamped with `fingerprint`, in a buffer of
/// `len` bytes: `body` appends the body, whose CRC then fills the header.
fn frame(fingerprint: u64, count: usize, len: usize, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let count = u32::try_from(count).expect("fewer than 2^32 sections");
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(CHECKPOINT_MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // reserved flags
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // CRC, patched below
    body(&mut out);
    let crc = crc32(out.get(HEADER_BYTES..).unwrap_or_default());
    if let Some(field) = out.get_mut(CRC_AT..HEADER_BYTES) {
        field.copy_from_slice(&crc.to_le_bytes());
    }
    out
}

/// A full frame of `shards`' snapshots stamped with `fingerprint`, each
/// written straight into one exactly sized buffer.
fn snapshot_frame(fingerprint: u64, shards: &[&Ltc]) -> Vec<u8> {
    let len = |shard: &Ltc| snapshot_len(shard.capacity_cells());
    let frame_len = shards
        .iter()
        .map(|shard| len(shard).saturating_add(4))
        .fold(HEADER_BYTES, usize::saturating_add);
    frame(fingerprint, shards.len(), frame_len, |out| {
        for shard in shards {
            push_section(out, len(shard), |out| shard.write_snapshot(out));
        }
    })
}

/// Append a section of `len` bytes, which `write` appends, after its
/// length prefix; room for both is reserved exactly first.
fn push_section(out: &mut Vec<u8>, len: usize, write: impl FnOnce(&mut Vec<u8>)) {
    out.reserve_exact(len.saturating_add(4));
    let prefix = u32::try_from(len).expect("checkpoint section under 4 GiB");
    out.extend_from_slice(&prefix.to_le_bytes());
    let start = out.len();
    write(out);
    debug_assert_eq!(out.len().saturating_sub(start), len, "section length");
}

/// Validate a frame against `expected_fingerprint` and return its sections
/// (borrowed from `bytes`). Rejects truncation, corruption, version or
/// config mismatch with a precise error; never panics on arbitrary input.
pub fn decode_frame(
    bytes: &[u8],
    expected_fingerprint: u64,
) -> Result<Vec<&[u8]>, CheckpointError> {
    if bytes.len() < 4 {
        return Err(CheckpointError::Truncated);
    }
    if bytes.get(..4) != Some(CHECKPOINT_MAGIC.as_slice()) {
        return Err(CheckpointError::BadMagic);
    }
    let version = read_u16(bytes, 4).ok_or(CheckpointError::Truncated)?;
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::BadVersion { found: version });
    }
    let flags = read_u16(bytes, 6).ok_or(CheckpointError::Truncated)?;
    if flags != 0 {
        return Err(CheckpointError::ReservedFlags { found: flags });
    }
    let fingerprint = read_u64(bytes, 8).ok_or(CheckpointError::Truncated)?;
    let count = read_u32(bytes, 16).ok_or(CheckpointError::Truncated)? as usize;
    let stored_crc = read_u32(bytes, CRC_AT).ok_or(CheckpointError::Truncated)?;
    let body = bytes
        .get(HEADER_BYTES..)
        .ok_or(CheckpointError::Truncated)?;
    let actual_crc = crc32(body);
    if actual_crc != stored_crc {
        return Err(CheckpointError::ChecksumMismatch {
            expected: stored_crc,
            found: actual_crc,
        });
    }
    if fingerprint != expected_fingerprint {
        return Err(CheckpointError::ConfigMismatch {
            expected: expected_fingerprint,
            found: fingerprint,
        });
    }
    // Each section needs at least its 4-byte length prefix; this caps the
    // allocation even if a (CRC-colliding) count lies.
    let mut sections = Vec::with_capacity(count.min(body.len().checked_div(4).unwrap_or(0)));
    let mut offset = 0usize;
    for _ in 0..count {
        let len = read_u32(body, offset).ok_or(CheckpointError::Truncated)? as usize;
        let start = offset.checked_add(4).ok_or(CheckpointError::Truncated)?;
        let end = start.checked_add(len).ok_or(CheckpointError::Truncated)?;
        let payload = body.get(start..end).ok_or(CheckpointError::Truncated)?;
        sections.push(payload);
        offset = end;
    }
    if offset != body.len() {
        return Err(CheckpointError::TrailingBytes);
    }
    Ok(sections)
}

// ---------------------------------------------------------------------------
// Delta chains: DLTA section header + chain state.

/// Magic of a delta-chain header section (section 0 of a delta frame).
pub const DELTA_SECTION_MAGIC: &[u8; 4] = b"DLTA";

/// Serialised size of a delta-chain header section: magic 4 +
/// base generation 8 + base CRC 4 + chain index 4.
const DELTA_SECTION_BYTES: usize = 20;

/// Links a run of delta frames back to the full frame they are relative
/// to. Returned by [`save_full_over`] and threaded through
/// [`save_delta_over`]; the recorded CRC is of the base generation's
/// *published file bytes*, so any post-publish tearing or reordering of
/// the base invalidates every delta that points at it (restore then falls
/// back a generation instead of applying a delta to the wrong base).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DeltaChain {
    /// Generation number of the base full frame on disk.
    pub(crate) base_generation: u64,
    /// CRC-32 of the base generation's published frame bytes.
    pub(crate) base_crc: u32,
    /// Deltas published since the base (0 right after a full save).
    pub(crate) length: u32,
}

/// Encode a delta-chain header section.
fn encode_delta_header(chain: &DeltaChain) -> Vec<u8> {
    let mut out = Vec::with_capacity(DELTA_SECTION_BYTES);
    out.extend_from_slice(DELTA_SECTION_MAGIC);
    out.extend_from_slice(&chain.base_generation.to_le_bytes());
    out.extend_from_slice(&chain.base_crc.to_le_bytes());
    out.extend_from_slice(&chain.length.to_le_bytes());
    out
}

/// Decode a delta-chain header section; `None` if `bytes` is not one.
fn decode_delta_header(bytes: &[u8]) -> Option<DeltaChain> {
    if bytes.len() != DELTA_SECTION_BYTES || bytes.get(..4) != Some(DELTA_SECTION_MAGIC.as_slice())
    {
        return None;
    }
    Some(DeltaChain {
        base_generation: read_u64(bytes, 4)?,
        base_crc: read_u32(bytes, 12)?,
        length: read_u32(bytes, 16)?,
    })
}

// ---------------------------------------------------------------------------
// Checkpoint/restore for the three table types.

impl Ltc {
    /// Serialise the table as a self-validating checkpoint frame (one
    /// section holding [`Ltc::to_snapshot`]'s bytes).
    pub fn to_checkpoint(&self) -> Vec<u8> {
        snapshot_frame(config_fingerprint(self.config()), &[self])
    }

    /// Restore from a checkpoint frame, all-or-nothing: a frame that fails
    /// any validation (truncation, corruption, version or config mismatch)
    /// leaves the table untouched.
    ///
    /// # Errors
    /// See [`CheckpointError`].
    pub fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let sections = decode_frame(bytes, config_fingerprint(self.config()))?;
        // One shard in, one staged table out.
        if let Some(staged) = staged_restore(&[&*self], &sections, None)?.pop() {
            *self = staged;
        }
        Ok(())
    }
}

/// Stage a restore of `base` (one full section per shard) and, for a
/// chain, `delta` (one `LTCD` section per shard) on top, into clones of
/// `shards`. The caller commits only if every section validates
/// (all-or-nothing for multi-shard tables).
fn staged_restore(
    shards: &[&Ltc],
    base: &[&[u8]],
    delta: Option<&[&[u8]]>,
) -> Result<Vec<Ltc>, CheckpointError> {
    for sections in std::iter::once(base).chain(delta) {
        if sections.len() != shards.len() {
            return Err(CheckpointError::SectionCount {
                expected: shards.len(),
                found: sections.len(),
            });
        }
    }
    let mut staged = Vec::with_capacity(shards.len());
    for (i, (shard, section)) in shards.iter().zip(base).enumerate() {
        let mut table = (*shard).clone();
        table.restore_snapshot(section)?;
        if let Some(section) = delta.and_then(|delta| delta.get(i)) {
            table.apply_delta_snapshot(section)?;
        }
        staged.push(table);
    }
    Ok(staged)
}

/// The period count every one of `shards` is at: a [`ParallelLtc`] closes
/// each period on all of its shards under one gate.
///
/// # Errors
/// [`CheckpointError::PeriodMismatch`] naming the first shard that
/// disagrees with shard 0.
fn one_period_count(shards: &[Ltc]) -> Result<u64, CheckpointError> {
    let expected = shards.first().map_or(0, Ltc::periods_completed);
    match shards
        .iter()
        .enumerate()
        .find(|(_, table)| table.periods_completed() != expected)
    {
        Some((shard, table)) => Err(CheckpointError::PeriodMismatch {
            shard,
            expected,
            found: table.periods_completed(),
        }),
        None => Ok(expected),
    }
}

impl ShardedLtc {
    /// Serialise every shard as one checkpoint frame (one section per
    /// shard, fingerprinted over the full ordered shard configuration).
    pub fn to_checkpoint(&self) -> Vec<u8> {
        let shards: Vec<&Ltc> = (0..self.num_shards()).map(|i| self.shard(i)).collect();
        let fingerprint = configs_fingerprint(shards.iter().map(|s| s.config()));
        snapshot_frame(fingerprint, &shards)
    }

    /// Restore every shard from a checkpoint frame, all-or-nothing. The
    /// shards may sit at different period counts: a time-driven table's
    /// shards close periods as their own records cross a boundary.
    ///
    /// # Errors
    /// See [`CheckpointError`].
    pub fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let expected = configs_fingerprint((0..self.num_shards()).map(|i| self.shard(i).config()));
        let sections = decode_frame(bytes, expected)?;
        let shards: Vec<&Ltc> = (0..self.num_shards()).map(|i| self.shard(i)).collect();
        let staged = staged_restore(&shards, &sections, None)?;
        *self = ShardedLtc::from_shards(staged);
        Ok(())
    }
}

impl ParallelLtc {
    /// Drain the pipeline (best-effort) and serialise every shard as one
    /// checkpoint frame. A degraded runtime is still checkpointable: lossy
    /// shards contribute their last-good state, on which every period the
    /// runtime closed since was closed too (with no records), so the frame
    /// restores. The frame is compatible with a [`ShardedLtc`] of the same
    /// configuration.
    pub fn to_checkpoint(&self) -> Vec<u8> {
        let _ = self.sync();
        encode_shards(self.shards(), None, |_| {})
    }

    /// Restore every shard from a checkpoint frame, all-or-nothing: the
    /// frame is fully validated, the pipeline drained, the sections
    /// staged, and only then committed. A frame whose shards disagree on
    /// the period count is refused. Lossy shards take records again, with
    /// a full retry budget (restoring is an operator-level reset), and the
    /// runtime's period count continues from the restored shards. A
    /// restore starts no thread, so it cannot fail to bring a shard back.
    ///
    /// # Errors
    /// See [`CheckpointError`]; [`CheckpointError::PeriodMismatch`] for a
    /// torn cut.
    pub fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let sections = decode_frame(bytes, configs_fingerprint(&self.shards().configs()))?;
        self.restore_sections(&sections, None)
    }

    /// Checkpoint into `store`, returning the new generation number.
    /// When the runtime is observable, the save latency lands in
    /// `ltc_checkpoint_save_ns` and a `checkpoint_publish` journal event is
    /// published.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] if the write or rename fails.
    pub fn checkpoint_to(&self, store: &Checkpointer) -> Result<u64, CheckpointError> {
        // Parent the save span under the most recent barrier so the
        // batch's causal tree runs enqueue → process → barrier → publish.
        let trace = self.trace_handle();
        let pending = trace.as_ref().map(|(track, parent)| track.begin(*parent));
        let start = std::time::Instant::now();
        let result = store.save(&self.to_checkpoint());
        if let (Some((track, _)), Some(p)) = (&trace, &pending) {
            track.finish(p, names::CHECKPOINT_SAVE);
        }
        let generation = result?;
        if let Some(obs) = self.obs() {
            let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            obs.note_checkpoint_publish(generation, elapsed);
        }
        Ok(generation)
    }

    /// Restore from the newest generation in `store` that validates,
    /// falling back to older generations past any corrupted or torn image.
    /// Both frame flavours restore: a full frame loads directly, a delta
    /// frame loads its base full frame (verified against the chain CRC the
    /// delta recorded) and applies the delta on top. A delta whose base is
    /// missing, unreadable, or CRC-mismatched, and a frame whose shards
    /// disagree on the period count, are skipped like a corrupt frame —
    /// restore falls back a generation. Returns the generation
    /// restored. When the runtime is observable, the restore latency lands
    /// in `ltc_checkpoint_restore_ns`, every newer generation that was
    /// skipped bumps `ltc_checkpoint_fallbacks_total` (broken chains also
    /// bump `ltc_chain_fallbacks_total` and journal a `chain_fallback`
    /// event), and a `checkpoint_restore` journal event carries the
    /// restored generation.
    ///
    /// # Errors
    /// [`CheckpointError::NoCheckpoint`] if no generation validates.
    pub fn restore_from(&mut self, store: &Checkpointer) -> Result<u64, CheckpointError> {
        let obs = self.obs().cloned();
        // A restore starts a new causal epoch, so its span is a root.
        let trace = self.trace_handle();
        let pending = trace.as_ref().map(|(track, _)| track.begin(None));
        let start = std::time::Instant::now();
        let fingerprint = configs_fingerprint(&self.shards().configs());
        let mut skipped = 0u64;
        let mut outcome = Err(CheckpointError::NoCheckpoint);
        for generation in store.generations()?.into_iter().rev() {
            match self.try_restore_generation(store, generation, fingerprint) {
                Ok(()) => {
                    if let Some(obs) = obs {
                        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        obs.checkpoint_fallbacks.add(skipped);
                        obs.note_checkpoint_restore(generation, elapsed);
                    }
                    outcome = Ok(generation);
                    break;
                }
                Err(CheckpointError::BrokenChain { delta, .. }) => {
                    if let Some(obs) = obs.as_ref() {
                        obs.note_chain_fallback(delta);
                    }
                    skipped = skipped.saturating_add(1);
                }
                Err(_) => skipped = skipped.saturating_add(1),
            }
        }
        if let (Some((track, _)), Some(p)) = (&trace, &pending) {
            track.finish(p, names::CHECKPOINT_RESTORE);
        }
        outcome
    }

    /// Restore one generation, decoding each frame once against this
    /// runtime's `fingerprint`: a full frame goes straight in; a delta
    /// frame (section 0 is a `DLTA` header) goes in on top of its base,
    /// whose published bytes must match the chain CRC.
    fn try_restore_generation(
        &mut self,
        store: &Checkpointer,
        generation: u64,
        fingerprint: u64,
    ) -> Result<(), CheckpointError> {
        let bytes = store.load(generation)?;
        let sections = decode_frame(&bytes, fingerprint)?;
        let Some(chain) = sections.first().and_then(|s| decode_delta_header(s)) else {
            return self.restore_sections(&sections, None);
        };
        let broken = CheckpointError::BrokenChain {
            delta: generation,
            base: chain.base_generation,
        };
        let Ok(base_bytes) = store.load(chain.base_generation) else {
            return Err(broken);
        };
        if crc32(&base_bytes) != chain.base_crc {
            return Err(broken);
        }
        let base = decode_frame(&base_bytes, fingerprint)?;
        self.restore_sections(&base, sections.get(1..))
    }

    /// Drain the pipeline, stage `base` (and `delta` on top, for a chain)
    /// into shard clones, and commit only once every section validated and
    /// the staged shards share one period count. Staging and commit hold
    /// the period gate, so a running service never takes its sections from
    /// a half-committed restore.
    fn restore_sections(
        &mut self,
        base: &[&[u8]],
        delta: Option<&[&[u8]]>,
    ) -> Result<(), CheckpointError> {
        let _ = self.sync(); // workers idle after this (all sends acked)
        let periods = {
            let _gate = self.shards().hold_periods();
            let mut guards: Vec<_> = self
                .shards()
                .tables()
                .iter()
                .map(|t| lock_recover(t))
                .collect();
            let shards: Vec<&Ltc> = guards.iter().map(|guard| &**guard).collect();
            let staged = staged_restore(&shards, base, delta)?;
            let periods = one_period_count(&staged)?;
            for (guard, restored) in guards.iter_mut().zip(staged) {
                **guard = restored;
            }
            periods
        };
        self.reset_after_restore(periods);
        Ok(())
    }
}

/// How [`encode_shards`] sizes a shard's section, and writes it.
type Section = (fn(&Ltc) -> usize, fn(&Ltc, &mut Vec<u8>));

/// Lock each shard in turn and write its section straight into one frame:
/// a full snapshot, or a delta snapshot after a `DLTA` section carrying
/// `chain`; `after` runs on each shard under the same lock. The period
/// gate covers the capture, so every section shares one period count. A
/// full frame is sized from the (fixed) configurations up front; a delta
/// section reserves its exact length under its shard's lock. Every frame
/// a runtime writes is built here.
fn encode_shards(
    shards: &ShardSet,
    chain: Option<DeltaChain>,
    mut after: impl FnMut(&mut Ltc),
) -> Vec<u8> {
    let configs = shards.configs();
    let full = configs
        .iter()
        .map(|c| snapshot_len(c.total_cells()).saturating_add(4));
    let capacity = chain.map_or_else(|| full.fold(HEADER_BYTES, usize::saturating_add), |_| 0);
    let (len, write): Section = match chain {
        Some(_) => (Ltc::delta_snapshot_len, Ltc::write_delta_snapshot),
        None => (|s| snapshot_len(s.capacity_cells()), Ltc::write_snapshot),
    };
    let count = configs.len().saturating_add(usize::from(chain.is_some()));
    frame(configs_fingerprint(&configs), count, capacity, |out| {
        if let Some(chain) = chain {
            let head = encode_delta_header(&chain);
            push_section(out, head.len(), |out| out.extend_from_slice(&head));
        }
        let _gate = shards.hold_periods();
        for table in shards.tables() {
            let mut shard = lock_recover(table);
            push_section(out, len(&shard), |out| write(&shard, out));
            after(&mut shard);
        }
    })
}

/// Serialise every shard as a full frame *and move each shard's delta
/// cursor* to a new epoch (atomically with its snapshot, under its lock),
/// publish it to `store`, and return the chain state future deltas link
/// against.
/// A `compaction` publishes on the `checkpoint::compact` failpoint site
/// and is observed as one; any other full save uses `checkpoint::write`.
///
/// Only the [`crate::durability::DurabilityService`] calls this, so a
/// runtime's delta cursors have one writer. It holds clones of the shard
/// `Arc`s (whose identity survives restore) and of the runtime's period
/// gate, in one [`ShardSet`], rather than the runtime itself, and
/// deliberately does **not** drain the pipeline — in-flight
/// records simply aren't acknowledged into this frame and land in the
/// next one. If the publish fails the cursors have already moved, so the
/// caller must not fall back to delta saves until a full save succeeds; a
/// full frame never depends on the dirty state, so a retry loses nothing.
pub(crate) fn save_full_over(
    shards: &ShardSet,
    obs: Option<&RuntimeObs>,
    store: &Checkpointer,
    compaction: bool,
) -> Result<DeltaChain, CheckpointError> {
    let start = std::time::Instant::now();
    // Snapshot and epoch-open under the same lock: every mutation after
    // this instant lands in the next delta, every mutation before it is in
    // this frame — no gap, no overlap.
    let frame = encode_shards(shards, None, Ltc::begin_delta_epoch);
    let site = if compaction {
        "checkpoint::compact"
    } else {
        "checkpoint::write"
    };
    let generation = store.save_with_site(&frame, site)?;
    if let Some(obs) = obs {
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if compaction {
            obs.note_compaction(generation, elapsed);
        } else {
            obs.note_checkpoint_publish(generation, elapsed);
            obs.chain_length.set(0);
        }
    }
    Ok(DeltaChain {
        base_generation: generation,
        base_crc: crc32(&frame),
        length: 0,
    })
}

/// Serialise only the buckets dirtied since `chain`'s base full frame
/// (cumulative — the newest delta alone reconstructs the table on top of
/// the base) and publish it to `store`. On success the chain's length
/// grows by one; on failure it is unchanged, and a retry carries the same
/// buckets. See [`save_full_over`] for the locking and draining contract.
pub(crate) fn save_delta_over(
    shards: &ShardSet,
    obs: Option<&RuntimeObs>,
    store: &Checkpointer,
    chain: &mut DeltaChain,
) -> Result<u64, CheckpointError> {
    let start = std::time::Instant::now();
    let mut next = *chain;
    next.length = next.length.saturating_add(1);
    let frame = encode_shards(shards, Some(next), |_| {});
    let generation = store.save_with_site(&frame, "checkpoint::delta_write")?;
    *chain = next;
    if let Some(obs) = obs {
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        obs.note_delta_publish(generation, elapsed, u64::from(chain.length));
    }
    Ok(generation)
}

// ---------------------------------------------------------------------------
// Checkpointer — atomic generation files on disk.

/// File-name prefix of every generation: `ltc.<generation:020>.ckpt`.
const FILE_PREFIX: &str = "ltc";

/// Writes checkpoint frames to a directory as numbered generations
/// (`ltc.<generation>.ckpt`), each published atomically (temp file +
/// fsync + rename + directory fsync), pruned to the newest `keep`
/// generations. [`ParallelLtc::restore_from`] walks generations
/// newest-first so a corrupted latest image falls back to the previous
/// one.
#[derive(Debug, Clone)]
pub struct Checkpointer {
    dir: PathBuf,
    keep: usize,
}

impl Checkpointer {
    /// A checkpointer over `dir` (created if missing), file prefix `"ltc"`,
    /// keeping the newest 3 generations.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] if the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| io_err(&e))?;
        Ok(Self { dir, keep: 3 })
    }

    /// Keep the newest `keep` generations (≥ 2 recommended: fallback needs
    /// a predecessor). Values below 1 are clamped to 1.
    #[must_use]
    pub fn keep_generations(mut self, keep: usize) -> Self {
        self.keep = keep.max(1);
        self
    }

    fn path_for(&self, generation: u64) -> PathBuf {
        self.dir
            .join(format!("{FILE_PREFIX}.{generation:020}.ckpt"))
    }

    /// Generation numbers currently on disk, oldest first.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] if the directory cannot be read.
    pub fn generations(&self) -> Result<Vec<u64>, CheckpointError> {
        let mut generations = Vec::new();
        let entries = std::fs::read_dir(&self.dir).map_err(|e| io_err(&e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(rest) = name.strip_prefix(FILE_PREFIX) else {
                continue;
            };
            let Some(middle) = rest.strip_prefix('.') else {
                continue;
            };
            let Some(digits) = middle.strip_suffix(".ckpt") else {
                continue;
            };
            if let Ok(generation) = digits.parse::<u64>() {
                generations.push(generation);
            }
        }
        generations.sort_unstable();
        Ok(generations)
    }

    /// The newest generation on disk, if any.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] if the directory cannot be read.
    pub fn latest(&self) -> Result<Option<u64>, CheckpointError> {
        Ok(self.generations()?.last().copied())
    }

    /// The configured keep limit (newest generations retained on save).
    pub fn keep_limit(&self) -> usize {
        self.keep
    }

    /// Load one generation's raw frame bytes (not validated — pass them to
    /// a `restore_checkpoint`).
    ///
    /// # Errors
    /// [`CheckpointError::Io`] if the file cannot be read.
    pub fn load(&self, generation: u64) -> Result<Vec<u8>, CheckpointError> {
        std::fs::read(self.path_for(generation)).map_err(|e| io_err(&e))
    }

    /// Atomically publish `frame` as the next generation; prunes old
    /// generations past the keep limit. Returns the generation written.
    ///
    /// # Errors
    /// [`CheckpointError::Io`] if the write or rename fails.
    pub fn save(&self, frame: &[u8]) -> Result<u64, CheckpointError> {
        self.save_with_site(frame, "checkpoint::write")
    }

    /// [`Checkpointer::save`] with the buffer-corruption failpoint site
    /// named by the caller, so the fault-injection suite can target a
    /// *specific* save flavour (full write, delta write, compaction)
    /// without firing on the others. Production builds compile the site
    /// lookup away entirely.
    pub(crate) fn save_with_site(&self, frame: &[u8], site: &str) -> Result<u64, CheckpointError> {
        let generation = self.latest()?.map_or(1, |g| g.saturating_add(1));
        self.write_atomic(&self.path_for(generation), frame, site)?;
        self.prune()?;
        Ok(generation)
    }

    /// All checkpoint I/O funnels through here: write the temp file, fsync
    /// it, atomically rename over the final name, fsync the directory.
    /// Three failpoints cover the distinct crash surfaces: `site` (the
    /// caller-named buffer site, e.g. `checkpoint::write` or
    /// `checkpoint::delta_write`) can tear or corrupt the buffer before it
    /// is written (a crash mid-write that still published), while
    /// `checkpoint::fsync` and `checkpoint::rename` inject *syscall
    /// failures* at the two publication steps — which must surface as
    /// [`CheckpointError::Io`] without renaming a half-durable temp file
    /// into place.
    fn write_atomic(&self, path: &Path, frame: &[u8], site: &str) -> Result<(), CheckpointError> {
        // Only a corrupt-byte failpoint needs a copy of the frame.
        let corrupted;
        let bytes = match io_fault(site) {
            Some(FailAction::Truncate { keep }) => frame.get(..keep).unwrap_or(frame),
            Some(FailAction::CorruptByte { offset }) => {
                let mut copy = frame.to_vec();
                if let Some(byte) = copy.get_mut(offset) {
                    *byte ^= 0xFF;
                }
                corrupted = copy;
                &corrupted
            }
            _ => frame,
        };
        let tmp = path.with_extension("tmp");
        {
            // lint:allow(atomic_io): this IS the atomic-rename helper
            let mut file = std::fs::File::create(&tmp).map_err(|e| io_err(&e))?;
            file.write_all(bytes).map_err(|e| io_err(&e))?;
            if let Some(FailAction::Error) = io_fault("checkpoint::fsync") {
                // The injected failure must behave like a real one: the
                // temp file is abandoned un-durable and never renamed.
                let _ = std::fs::remove_file(&tmp);
                return Err(CheckpointError::Io("injected fsync failure".to_string()));
            }
            file.sync_all().map_err(|e| io_err(&e))?;
        }
        if let Some(FailAction::Error) = io_fault("checkpoint::rename") {
            let _ = std::fs::remove_file(&tmp);
            return Err(CheckpointError::Io("injected rename failure".to_string()));
        }
        std::fs::rename(&tmp, path).map_err(|e| io_err(&e))?;
        // Persist the rename itself. Directory fsync is POSIX-only and
        // advisory on some filesystems; failure to open is not fatal.
        #[cfg(unix)]
        if let Ok(dir) = std::fs::File::open(&self.dir) {
            let _ = dir.sync_all();
        }
        Ok(())
    }

    fn prune(&self) -> Result<(), CheckpointError> {
        let generations = self.generations()?;
        let excess = generations.len().saturating_sub(self.keep);
        for &generation in generations.iter().take(excess) {
            let _ = std::fs::remove_file(self.path_for(generation));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FaultPolicy;
    use crate::durability::{DurabilityPolicy, DurabilityService};
    use ltc_common::{SignificanceQuery, StreamProcessor, Weights};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    /// Unique scratch directory, removed on drop. No external tempdir
    /// crate: process id + a counter keep parallel tests apart.
    struct ScratchDir(PathBuf);

    impl ScratchDir {
        fn new(tag: &str) -> Self {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("ltc-ckpt-{}-{}-{}", std::process::id(), tag, n));
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn config() -> LtcConfig {
        LtcConfig::builder()
            .buckets(16)
            .cells_per_bucket(4)
            .weights(Weights::BALANCED)
            .records_per_period(50)
            .seed(11)
            .build()
    }

    /// A full save through the durability service's saver, after draining
    /// the pipeline so the frame covers every record sent.
    fn save_full(live: &ParallelLtc, store: &Checkpointer) -> DeltaChain {
        live.sync().unwrap();
        save_full_over(live.shards(), None, store, false).unwrap()
    }

    /// A delta save through the service's saver, after draining the
    /// pipeline.
    fn save_delta(live: &ParallelLtc, store: &Checkpointer, chain: &mut DeltaChain) -> u64 {
        live.sync().unwrap();
        save_delta_over(live.shards(), None, store, chain).unwrap()
    }

    fn loaded_table() -> Ltc {
        let mut ltc = Ltc::new(config());
        for period in 0..3u64 {
            for i in 0..50u64 {
                ltc.insert(if i % 5 == 0 { 7 } else { period * 100 + i });
            }
            ltc.end_period();
        }
        ltc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn frame_roundtrip() {
        let sections = vec![vec![1u8, 2, 3], vec![], vec![9u8; 100]];
        let frame = encode_frame(42, &sections);
        let decoded = decode_frame(&frame, 42).unwrap();
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded[0], &[1, 2, 3]);
        assert_eq!(decoded[1], &[] as &[u8]);
        assert_eq!(decoded[2], &[9u8; 100]);
    }

    #[test]
    fn fingerprint_mismatch_rejected() {
        let frame = encode_frame(42, &[vec![1, 2, 3]]);
        assert!(matches!(
            decode_frame(&frame, 43),
            Err(CheckpointError::ConfigMismatch {
                expected: 43,
                found: 42
            })
        ));
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        // The acceptance property behind the whole frame design: no
        // one-byte corruption anywhere in the frame decodes silently.
        let frame = encode_frame(7, &[vec![5u8; 40], vec![6u8; 12]]);
        for offset in 0..frame.len() {
            let mut bad = frame.clone();
            bad[offset] ^= 0xFF;
            assert!(
                decode_frame(&bad, 7).is_err(),
                "flip at offset {offset} went undetected"
            );
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let frame = encode_frame(7, &[vec![5u8; 40]]);
        for len in 0..frame.len() {
            assert!(
                decode_frame(&frame[..len], 7).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut frame = encode_frame(7, &[vec![1, 2, 3]]);
        frame.push(0);
        // The CRC covers the body, so the extra byte fails the checksum
        // before section parsing even sees it.
        assert!(decode_frame(&frame, 7).is_err());
    }

    #[test]
    fn wrong_version_rejected() {
        let mut frame = encode_frame(7, &[vec![1]]);
        frame[4] = 99;
        assert!(matches!(
            decode_frame(&frame, 7),
            Err(CheckpointError::BadVersion { found: 99 })
        ));
    }

    #[test]
    fn ltc_checkpoint_roundtrip() {
        let original = loaded_table();
        let frame = original.to_checkpoint();
        let mut restored = Ltc::new(config());
        restored.restore_checkpoint(&frame).unwrap();
        assert_eq!(restored.top_k(10), original.top_k(10));
        assert_eq!(restored.periods_completed(), original.periods_completed());
    }

    #[test]
    fn ltc_rejects_other_config() {
        let frame = loaded_table().to_checkpoint();
        let mut other = Ltc::new(LtcConfig::builder().buckets(16).cells_per_bucket(4).build());
        let before = format!("{other:?}");
        assert!(matches!(
            other.restore_checkpoint(&frame),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
        assert_eq!(
            format!("{other:?}"),
            before,
            "failed restore must not mutate"
        );
    }

    #[test]
    fn corrupted_ltc_checkpoint_leaves_table_untouched() {
        let original = loaded_table();
        let mut frame = original.to_checkpoint();
        let mid = frame.len() / 2;
        frame[mid] ^= 0x55;
        let mut target = loaded_table();
        let before = format!("{target:?}");
        assert!(target.restore_checkpoint(&frame).is_err());
        assert_eq!(format!("{target:?}"), before);
    }

    #[test]
    fn sharded_checkpoint_roundtrip() {
        let mut original = ShardedLtc::new(config(), 3);
        for i in 0..600u64 {
            original.insert(i % 40);
        }
        original.end_period();
        let frame = original.to_checkpoint();
        let mut restored = ShardedLtc::new(config(), 3);
        restored.restore_checkpoint(&frame).unwrap();
        assert_eq!(restored.top_k(10), original.top_k(10));
    }

    #[test]
    fn sharded_rejects_different_shard_count() {
        let original = ShardedLtc::new(config(), 3);
        let frame = original.to_checkpoint();
        let mut other = ShardedLtc::new(config(), 4);
        // Shard count is part of the fingerprint, so this fails before
        // section counting.
        assert!(matches!(
            other.restore_checkpoint(&frame),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn parallel_checkpoint_restores_into_sharded() {
        let mut parallel = ParallelLtc::with_batch_size(config(), 3, 16);
        for i in 0..600u64 {
            parallel.insert(i % 40);
        }
        parallel.end_period().unwrap();
        let frame = parallel.to_checkpoint();
        let mut sharded = ShardedLtc::new(config(), 3);
        sharded.restore_checkpoint(&frame).unwrap();
        let reference = parallel.into_sharded().unwrap();
        assert_eq!(sharded.top_k(10), reference.top_k(10));
    }

    #[test]
    fn parallel_restore_roundtrip_continues_stream() {
        let mut a = ParallelLtc::with_batch_size(config(), 2, 8);
        for i in 0..400u64 {
            a.insert(i % 30);
        }
        a.end_period().unwrap();
        let frame = a.to_checkpoint();
        drop(a);
        let mut b = ParallelLtc::with_batch_size(config(), 2, 8);
        b.restore_checkpoint(&frame).unwrap();
        for i in 0..400u64 {
            b.insert(i % 30);
        }
        b.end_period().unwrap();
        b.finish().unwrap();
        assert!(!b.top_k(5).is_empty());
    }

    /// A 3-shard frame whose shard 1 closed one period more than the
    /// others: a torn cut.
    fn torn_cut_frame() -> Vec<u8> {
        let mut sharded = ShardedLtc::new(config(), 3);
        for i in 0..300u64 {
            sharded.insert(i % 40);
        }
        sharded.end_period();
        let mut shards = sharded.into_shards();
        shards[1].end_period();
        ShardedLtc::from_shards(shards).to_checkpoint()
    }

    #[test]
    fn parallel_restore_refuses_a_torn_cut_and_leaves_the_table_untouched() {
        let mut parallel = ParallelLtc::with_batch_size(config(), 3, 8);
        parallel.insert(5);
        let before = parallel.to_checkpoint();
        assert_eq!(
            parallel.restore_checkpoint(&torn_cut_frame()),
            Err(CheckpointError::PeriodMismatch {
                shard: 1,
                expected: 1,
                found: 2,
            })
        );
        assert_eq!(
            parallel.to_checkpoint(),
            before,
            "failed restore must not mutate"
        );
        parallel.finish().unwrap();
    }

    #[test]
    fn sharded_restore_keeps_shards_at_different_period_counts() {
        // Shards fed apart: the custom topology of the torn-cut frame, and
        // a time-driven table whose shards close periods as their own
        // records cross a boundary.
        let time_driven = LtcConfig::builder()
            .buckets(16)
            .cells_per_bucket(4)
            .weights(Weights::BALANCED)
            .time_units_per_period(100)
            .seed(11)
            .build();
        let mut shards = ShardedLtc::new(time_driven, 3).into_shards();
        for (i, shard) in (0u64..).zip(shards.iter_mut()) {
            for t in 0..(i + 1) * 150 {
                shard.insert_at(t % 30, t);
            }
        }
        let counts: Vec<u64> = shards.iter().map(Ltc::periods_completed).collect();
        assert_eq!(counts, vec![1, 2, 4], "the shards sit at different counts");
        let time_frame = ShardedLtc::from_shards(shards).to_checkpoint();
        for (config, frame) in [(config(), torn_cut_frame()), (time_driven, time_frame)] {
            let mut restored = ShardedLtc::new(config, 3);
            restored.restore_checkpoint(&frame).unwrap();
            assert_eq!(restored.to_checkpoint(), frame);
        }
    }

    #[test]
    fn parallel_restore_from_skips_a_torn_cut_for_the_older_generation() {
        let scratch = ScratchDir::new("torn-cut");
        let store = Checkpointer::new(scratch.path()).unwrap();
        let mut sharded = ShardedLtc::new(config(), 3);
        for i in 0..300u64 {
            sharded.insert(i % 40);
        }
        sharded.end_period();
        let good = sharded.to_checkpoint();
        assert_eq!(store.save(&good).unwrap(), 1);
        assert_eq!(store.save(&torn_cut_frame()).unwrap(), 2);
        let mut restored = ParallelLtc::with_batch_size(config(), 3, 8);
        assert_eq!(restored.restore_from(&store).unwrap(), 1);
        assert_eq!(restored.to_checkpoint(), good);
        assert_eq!(restored.obs().unwrap().checkpoint_fallbacks.get(), 1);
        restored.finish().unwrap();
    }

    #[test]
    fn restored_runtime_continues_the_period_count() {
        let mut live = ParallelLtc::with_batch_size(config(), 2, 8);
        for period in 0..3u64 {
            for i in 0..100u64 {
                live.insert(period * 7 + i % 20);
            }
            live.end_period().unwrap();
        }
        let frame = live.to_checkpoint();
        live.finish().unwrap();
        let mut fresh = ParallelLtc::with_batch_size(config(), 2, 8);
        fresh.restore_checkpoint(&frame).unwrap();
        let obs = std::sync::Arc::clone(fresh.obs().unwrap());
        obs.journal().drain();
        fresh.end_period().unwrap();
        let rollovers: Vec<u64> = obs
            .journal()
            .drain()
            .into_iter()
            .filter(|e| e.kind == crate::obs::EventKind::PeriodRollover)
            .map(|e| e.detail)
            .collect();
        assert_eq!(
            rollovers,
            vec![4],
            "restored at period 3, next rollover is 4"
        );
        fresh.finish().unwrap();
    }

    #[test]
    fn checkpointer_saves_numbered_generations_atomically() {
        let scratch = ScratchDir::new("gens");
        let store = Checkpointer::new(scratch.path()).unwrap();
        assert_eq!(store.latest().unwrap(), None);
        assert_eq!(store.save(b"one").unwrap(), 1);
        assert_eq!(store.save(b"two").unwrap(), 2);
        assert_eq!(store.generations().unwrap(), vec![1, 2]);
        assert_eq!(store.load(2).unwrap(), b"two");
        // No temp files left behind.
        let leftovers: Vec<_> = std::fs::read_dir(scratch.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");
    }

    #[test]
    fn checkpointer_prunes_old_generations() {
        let scratch = ScratchDir::new("prune");
        let store = Checkpointer::new(scratch.path())
            .unwrap()
            .keep_generations(2);
        for payload in [b"a", b"b", b"c", b"d"] {
            store.save(payload).unwrap();
        }
        assert_eq!(store.generations().unwrap(), vec![3, 4]);
    }

    #[test]
    fn distinct_configs_have_distinct_fingerprints() {
        let base = config();
        let mut seed = base;
        seed.seed = base.seed.wrapping_add(1);
        let mut shape = base;
        shape.buckets = base.buckets.saturating_add(1);
        let mut weights = base;
        weights.weights = Weights::new(2.0, 1.0);
        for other in [seed, shape, weights] {
            assert_ne!(
                config_fingerprint(&base),
                config_fingerprint(&other),
                "{other:?} collided with base"
            );
        }
        // Shard count matters too.
        let one = configs_fingerprint(std::iter::once(&base));
        let two = configs_fingerprint([&base, &base]);
        assert_ne!(one, two);
    }

    #[test]
    fn error_display_is_informative() {
        let errors: Vec<CheckpointError> = vec![
            CheckpointError::BadMagic,
            CheckpointError::BadVersion { found: 9 },
            CheckpointError::ReservedFlags { found: 3 },
            CheckpointError::ConfigMismatch {
                expected: 1,
                found: 2,
            },
            CheckpointError::ChecksumMismatch {
                expected: 1,
                found: 2,
            },
            CheckpointError::Truncated,
            CheckpointError::TrailingBytes,
            CheckpointError::SectionCount {
                expected: 2,
                found: 3,
            },
            CheckpointError::Snapshot(SnapshotError::BadMagic),
            CheckpointError::Io("disk on fire".to_string()),
            CheckpointError::NoCheckpoint,
            CheckpointError::BrokenChain { delta: 4, base: 2 },
            CheckpointError::AlreadyAttached,
            CheckpointError::PeriodMismatch {
                shard: 1,
                expected: 3,
                found: 4,
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn delta_header_roundtrips_and_rejects_noise() {
        let chain = DeltaChain {
            base_generation: 42,
            base_crc: 0xDEAD_BEEF,
            length: 3,
        };
        let bytes = encode_delta_header(&chain);
        assert_eq!(bytes.len(), DELTA_SECTION_BYTES);
        assert_eq!(decode_delta_header(&bytes), Some(chain));
        // Wrong magic, short, and long inputs all refuse to parse.
        let mut wrong = bytes.clone();
        wrong[0] ^= 0xFF;
        assert_eq!(decode_delta_header(&wrong), None);
        assert_eq!(decode_delta_header(&bytes[..DELTA_SECTION_BYTES - 1]), None);
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(decode_delta_header(&long), None);
        // An LTC1 snapshot section is never mistaken for a chain header.
        assert_eq!(decode_delta_header(&Ltc::new(config()).to_snapshot()), None);
    }

    #[test]
    fn delta_chain_restores_base_plus_newest_delta() {
        let scratch = ScratchDir::new("chain");
        let store = Checkpointer::new(scratch.path()).unwrap();
        let mut live = ParallelLtc::with_batch_size(config(), 2, 8);
        for i in 0..400u64 {
            live.insert(i % 30);
        }
        live.end_period().unwrap();
        let mut chain = save_full(&live, &store);
        assert_eq!(chain.base_generation, 1);
        assert_eq!(chain.length, 0);
        // Two deltas: the second is cumulative, so restore only needs the
        // base and the newest frame.
        for i in 0..100u64 {
            live.insert(if i % 2 == 0 { 7 } else { 19 });
        }
        save_delta(&live, &store, &mut chain);
        for i in 0..100u64 {
            live.insert(if i % 2 == 0 { 7 } else { 23 });
        }
        let generation = save_delta(&live, &store, &mut chain);
        assert_eq!(generation, 3);
        assert_eq!(chain.length, 2);
        let expected = live.to_checkpoint();
        let mut restored = ParallelLtc::with_batch_size(config(), 2, 8);
        assert_eq!(restored.restore_from(&store).unwrap(), 3);
        assert_eq!(
            restored.to_checkpoint(),
            expected,
            "base + newest delta reproduce the live table bit-exactly"
        );
        restored.finish().unwrap();
        live.finish().unwrap();
    }

    #[test]
    fn torn_base_breaks_the_chain_and_falls_back_a_generation() {
        let scratch = ScratchDir::new("torn-base");
        // Keep every generation: the fallback target's base (gen 1) must
        // still exist. (The durability service clamps its keep limit so a
        // live chain's base is never pruned; here we manage it by hand.)
        let store = Checkpointer::new(scratch.path())
            .unwrap()
            .keep_generations(8);
        let mut live = ParallelLtc::with_batch_size(config(), 2, 8);
        for i in 0..400u64 {
            live.insert(i % 30);
        }
        live.end_period().unwrap();
        // Chain 1: full gen 1 + delta gen 2.
        let mut chain = save_full(&live, &store);
        for i in 0..100u64 {
            live.insert(if i % 2 == 0 { 7 } else { 19 });
        }
        save_delta(&live, &store, &mut chain);
        let expected_at_2 = live.to_checkpoint();
        // Chain 2: full gen 3 (compaction) + delta gen 4.
        let mut chain = save_full(&live, &store);
        assert_eq!(chain.base_generation, 3);
        for i in 0..100u64 {
            live.insert(if i % 2 == 0 { 11 } else { 23 });
        }
        save_delta(&live, &store, &mut chain);
        // Tear the *base* of the newest chain after publication (a dying
        // disk, not a torn rename): gen 4's header CRC no longer matches,
        // so the whole newest chain must be abandoned, landing on gen 2
        // (whose own base, gen 1, is intact).
        let base_path = scratch.path().join(format!("ltc.{:020}.ckpt", 3));
        let mut bytes = std::fs::read(&base_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&base_path, &bytes).unwrap();
        let mut restored = ParallelLtc::with_batch_size(config(), 2, 8);
        assert_eq!(restored.restore_from(&store).unwrap(), 2);
        assert_eq!(
            restored.to_checkpoint(),
            expected_at_2,
            "fell back to the last chain whose base survived"
        );
        restored.finish().unwrap();
        live.finish().unwrap();
    }

    #[test]
    fn missing_base_breaks_the_chain() {
        let scratch = ScratchDir::new("missing-base");
        let store = Checkpointer::new(scratch.path()).unwrap();
        let mut live = ParallelLtc::with_batch_size(config(), 2, 8);
        for i in 0..200u64 {
            live.insert(i % 20);
        }
        live.end_period().unwrap();
        let mut chain = save_full(&live, &store);
        for i in 0..50u64 {
            live.insert(i % 5);
        }
        save_delta(&live, &store, &mut chain);
        std::fs::remove_file(scratch.path().join(format!("ltc.{:020}.ckpt", 1))).unwrap();
        let mut restored = ParallelLtc::with_batch_size(config(), 2, 8);
        // The delta survives on disk but its base is gone: nothing left to
        // restore from.
        assert_eq!(
            restored.restore_from(&store),
            Err(CheckpointError::NoCheckpoint)
        );
        restored.finish().unwrap();
        live.finish().unwrap();
    }

    #[test]
    fn delta_frames_are_smaller_than_full_frames_under_skew() {
        let mut live = ParallelLtc::with_batch_size(config(), 2, 8);
        for i in 0..400u64 {
            live.insert(i % 30);
        }
        live.end_period().unwrap();
        let scratch = ScratchDir::new("delta-size");
        let store = Checkpointer::new(scratch.path()).unwrap();
        let mut chain = save_full(&live, &store);
        // A hot-key phase touches few buckets; the delta should carry only
        // those.
        for _ in 0..100u64 {
            live.insert(7);
        }
        let generation = save_delta(&live, &store, &mut chain);
        let full = store.load(chain.base_generation).unwrap();
        let delta = store.load(generation).unwrap();
        assert!(
            delta.len() < full.len(),
            "skewed delta frame ({} B) should undercut the full frame ({} B)",
            delta.len(),
            full.len()
        );
        live.finish().unwrap();
    }

    #[test]
    fn runtime_frames_fill_one_exactly_sized_buffer() {
        let mut live = ParallelLtc::with_batch_size(config(), 4, 8);
        let sections = |live: &ParallelLtc, take: fn(&Ltc) -> Vec<u8>| -> Vec<Vec<u8>> {
            let tables = live.shards().tables();
            tables.iter().map(|t| take(&lock_recover(t))).collect()
        };
        for i in 0..400u64 {
            live.insert(i % 70);
        }
        live.end_period().unwrap();
        live.sync().unwrap();
        let full = encode_shards(live.shards(), None, Ltc::begin_delta_epoch);
        let fingerprint = configs_fingerprint(&live.shards().configs());
        let expected = encode_frame(fingerprint, &sections(&live, Ltc::to_snapshot));
        assert_eq!(full, expected);
        assert_eq!(full.capacity(), full.len(), "no slack");

        for i in 0..90u64 {
            live.insert(i % 20);
        }
        live.sync().unwrap();
        let chain = DeltaChain {
            base_generation: 3,
            base_crc: 0xFEED,
            length: 1,
        };
        let delta = encode_shards(live.shards(), Some(chain), |_| {});
        let mut expected = vec![encode_delta_header(&chain)];
        expected.extend(sections(&live, Ltc::to_delta_snapshot));
        assert_eq!(delta, encode_frame(fingerprint, &expected));
        assert_eq!(delta.capacity(), delta.len(), "no slack");
        live.finish().unwrap();
    }

    #[test]
    fn table_frames_fill_one_exactly_sized_buffer() {
        let mut sharded = ShardedLtc::new(config(), 3);
        for i in 0..400u64 {
            sharded.insert(i % 70);
        }
        sharded.end_period();
        let shards: Vec<&Ltc> = (0..3).map(|i| sharded.shard(i)).collect();
        let sections: Vec<Vec<u8>> = shards.iter().map(|s| s.to_snapshot()).collect();
        let fingerprint = configs_fingerprint(shards.iter().map(|s| s.config()));
        let frame = sharded.to_checkpoint();
        assert_eq!(frame, encode_frame(fingerprint, &sections));
        assert_eq!(frame.capacity(), frame.len(), "no slack");

        let single = sharded.shard(1);
        let frame = single.to_checkpoint();
        let fingerprint = config_fingerprint(single.config());
        assert_eq!(frame, encode_frame(fingerprint, &[single.to_snapshot()]));
        assert_eq!(frame.capacity(), frame.len(), "no slack");
    }

    #[test]
    fn restore_skips_foreign_and_garbage_generations() {
        let scratch = ScratchDir::new("skip-rules");
        let mut live = ParallelLtc::with_batch_size(config(), 2, 8);
        for i in 0..400u64 {
            live.insert(i % 30);
        }
        live.end_period().unwrap();
        live.sync().unwrap();
        let policy = DurabilityPolicy {
            interval: Duration::from_secs(3_600),
            faults: FaultPolicy::no_backoff(),
            ..DurabilityPolicy::default()
        };
        let service =
            DurabilityService::attach(&live, Checkpointer::new(scratch.path()).unwrap(), policy)
                .unwrap();
        assert_eq!(service.checkpoint_now().unwrap(), 1, "full");
        for i in 0..100u64 {
            live.insert(if i % 2 == 0 { 7 } else { 19 });
        }
        live.sync().unwrap();
        assert_eq!(service.checkpoint_now().unwrap(), 2, "delta");
        let expected = live.to_checkpoint();
        drop(service);
        // Two newer generations restore must skip: a sound frame from a
        // runtime with another seed, and bytes that are no frame at all.
        let store = Checkpointer::new(scratch.path())
            .unwrap()
            .keep_generations(8);
        let mut other = config();
        other.seed = other.seed.wrapping_add(1);
        let foreign = ParallelLtc::with_batch_size(other, 2, 8);
        assert_eq!(store.save(&foreign.to_checkpoint()).unwrap(), 3);
        assert_eq!(store.save(b"garbage").unwrap(), 4);
        let mut restored = ParallelLtc::with_batch_size(config(), 2, 8);
        assert_eq!(restored.restore_from(&store).unwrap(), 2);
        assert_eq!(restored.to_checkpoint(), expected);
        let obs = restored.obs().unwrap();
        assert_eq!(obs.checkpoint_fallbacks.get(), 2, "generations 4 and 3");
        assert_eq!(obs.chain_fallbacks.get(), 0, "neither was a broken chain");
        // An empty store, and one holding only garbage, restore nothing.
        let bare = ScratchDir::new("skip-rules-bare");
        let garbage = Checkpointer::new(bare.path()).unwrap();
        assert_eq!(
            restored.restore_from(&garbage),
            Err(CheckpointError::NoCheckpoint)
        );
        garbage.save(b"garbage").unwrap();
        assert_eq!(
            restored.restore_from(&garbage),
            Err(CheckpointError::NoCheckpoint)
        );
        restored.finish().unwrap();
        live.finish().unwrap();
    }
}
