//! Incremental durability: WAL + segment-per-generation persistence.
//!
//! A streaming node that ingests a firehose cannot afford to rewrite its
//! entire corpus on every batch. This module makes the *in-memory*
//! lifecycle durable piece by piece, mirroring the on-disk format on the
//! engine's own segmented structure:
//!
//! * **WAL for the open generation.** Every `insert_batch` appends one
//!   checksummed record to `wal-<base>.log` *before* the rows are applied
//!   in memory, and fsyncs on the batch boundary. A torn tail (power cut
//!   mid-record) is detected by the length/checksum framing and dropped at
//!   recovery — only the un-synced tail op can be lost.
//! * **A segment per sealed generation.** Sealing writes the generation's
//!   rows to an immutable `gen-<base>.seg` (tmp + rename), then retires
//!   the WAL that covered it. Sealed generations never change, so the
//!   segment is written exactly once.
//! * **Deletes in a tombstone log.** `delete` appends to `tomb.log`
//!   (fsync per record — deletes are rare). The log is truncated when a
//!   merge publishes, because the manifest written at that point snapshots
//!   every pending and purged tombstone.
//! * **Merge publishes a static segment + manifest swap.** The merged
//!   corpus is written off to the side as `static-<seq>.seg` while queries
//!   keep running; at publish time the `MANIFEST` (parameters, static
//!   segment, purged + pending tombstones) is swapped via an atomic
//!   rename, and the generation segments and WALs the merge consumed are
//!   retired. The rename is the commit point: a crash on either side of
//!   it recovers to a consistent state (before: the old manifest plus the
//!   still-present generation files; after: the new static segment, with
//!   leftovers garbage-collected on attach).
//!
//! This module owns the byte layout of every durable piece — parameters,
//! rows, tombstones, the window spec and the checksums. A
//! [`Snapshot`](crate::snapshot::Snapshot) is the same baseline packed
//! into one stream: this manifest, one static segment and one generation
//! segment for the whole delta suffix, restored through
//! [`rebuild_engine`] like a recovered directory.
//!
//! ## Recovery
//!
//! [`load_state`] reads the manifest, loads the static segment, then walks
//! generation segments contiguously from `static_len`, falls through to
//! the live WAL for the open tail, and finally replays the tombstone log.
//! [`rebuild_engine`] then inserts the static prefix, tombstones +
//! merge-purges the purged ids (so the purge accounting matches), replays
//! each generation as its own sealed generation, and re-applies the
//! tombstones. Generation boundaries are an ingest-batching artifact with
//! no effect on answers (property-tested), so a recovered engine answers
//! bit-identically to a from-scratch build over the same rows.
//!
//! ## Failure model
//!
//! Persistence hooks run under the engine's write mutex and return
//! `io::Result`: a failing operation is retried a bounded number of
//! times with jittered exponential backoff (transient `EIO`/disk-full
//! blips are absorbed and counted), and a failure that survives the
//! retry budget bubbles up to the engine, which transitions into
//! **degraded read-only mode** — queries keep answering off the pinned
//! epoch, writes return [`PlshError::Degraded`](crate::error::PlshError)
//! — rather than panicking or silently diverging memory from disk.
//! [`Engine::heal`](crate::engine::Engine::heal) exits degraded mode by
//! `EnginePersister::resync`-ing the directory from a fresh baseline.
//! Every hook is also threaded through the named failpoints of
//! [`crate::fault`] (`wal.append`, `wal.fsync`, `seal.segment`,
//! `manifest.swap`, `tomb.append`, `static.prepare`) so the chaos suite
//! can inject exactly these failures. Simulated power cuts for the
//! crash-recovery property tests are injected through the separate
//! [`fail`] facility, which freezes all persistence I/O after a budgeted
//! number of low-level operations (the op at the boundary tears).

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use plsh_parallel::ThreadPool;

use crate::fault;

use crate::engine::{Engine, EngineConfig, WindowSpec};
use crate::error::Result as PlshResult;
use crate::params::PlshParams;
use crate::sparse::{CrsMatrix, SparseVector};
use crate::table::DeltaGeneration;

const MANIFEST: &str = "MANIFEST";
const MANIFEST_MAGIC: &[u8; 4] = b"PLSM";
pub(crate) const STATIC_MAGIC: &[u8; 4] = b"PLSS";
pub(crate) const GEN_MAGIC: &[u8; 4] = b"PLSG";
const VERSION: u32 = 1;
/// Manifest format version. v2 added the sliding-window fields
/// (`static_base`, `retired_below`, window spec); v1 manifests are read
/// back with all three at their no-window defaults.
const MANIFEST_VERSION: u32 = 2;
/// No static segment yet (empty engine or everything still in the delta).
const NO_STATIC: u64 = u64::MAX;
/// Upper bound on one WAL record's payload — anything larger is framing
/// corruption, not data.
const MAX_RECORD: u32 = 1 << 30;

const TAG_INSERT: u8 = 1;
const TAG_DELETE: u8 = 2;
/// Retirement-watermark advance in the tombstone log: the payload is the
/// new watermark, and replay takes the max (the watermark is monotone).
const TAG_RETIRE: u8 = 3;

/// Window spec tags in the manifest (`tag | u64 payload`).
const WINDOW_NONE: u8 = 0;
const WINDOW_DOCS: u8 = 1;
const WINDOW_DURATION: u8 = 2;

/// Simulated power cuts for crash-recovery tests.
///
/// `arm(dir, n)` lets the next `n` low-level persistence operations
/// (writes, fsyncs, renames, removals, file creations) on paths under
/// `dir` through, tears the `n`-th write in half, and silently freezes
/// everything after it — exactly what a power cut mid-operation leaves on
/// disk. The engine keeps running in memory; recovery is then exercised
/// against the frozen directory. I/O on any other directory stays live,
/// so tests that journal elsewhere run alongside an armed one. There is
/// one arm slot per process: tests that arm it must serialize among
/// themselves.
#[doc(hidden)]
pub mod fail {
    use super::{AtomicBool, AtomicI64, AtomicU64, Mutex, Ordering, Path, PathBuf};

    static ARMED: AtomicBool = AtomicBool::new(false);
    static SCOPE: Mutex<Option<PathBuf>> = Mutex::new(None);
    static REMAINING: AtomicI64 = AtomicI64::new(0);
    static USED: AtomicU64 = AtomicU64::new(0);

    #[derive(PartialEq, Clone, Copy)]
    pub(super) enum Gate {
        /// Perform the operation normally.
        Live,
        /// The power cut lands on this operation: tear it (writes) or
        /// drop it (everything else).
        Boundary,
        /// The disk is gone; the operation silently does nothing.
        Frozen,
    }

    /// The fate of one operation on `path`.
    pub(super) fn gate(path: &Path) -> Gate {
        if !ARMED.load(Ordering::Acquire) {
            return Gate::Live;
        }
        let scope = SCOPE.lock().unwrap_or_else(|e| e.into_inner());
        if !scope.as_deref().is_some_and(|dir| path.starts_with(dir)) {
            return Gate::Live;
        }
        drop(scope);
        USED.fetch_add(1, Ordering::Relaxed);
        match REMAINING.fetch_sub(1, Ordering::Relaxed) {
            r if r > 1 => Gate::Live,
            1 => Gate::Boundary,
            _ => Gate::Frozen,
        }
    }

    /// Allow `ops` persistence operations under `dir`, then cut the power
    /// there.
    pub fn arm(dir: impl AsRef<Path>, ops: i64) {
        *SCOPE.lock().unwrap_or_else(|e| e.into_inner()) = Some(dir.as_ref().to_path_buf());
        REMAINING.store(ops, Ordering::Relaxed);
        USED.store(0, Ordering::Relaxed);
        // Pairs with the Acquire in `gate`: the budget is set before any
        // operation can see the arm.
        ARMED.store(true, Ordering::Release);
    }

    /// Restore normal (unlimited, real) persistence I/O.
    pub fn disarm() {
        ARMED.store(false, Ordering::Release);
        *SCOPE.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }

    /// Operations attempted under the armed directory since the last
    /// `arm` (counts frozen ones too).
    pub fn ops_used() -> u64 {
        USED.load(Ordering::Relaxed)
    }
}

/// A persistence file handle; `file` is `None` when the simulated power
/// cut struck at creation time (all subsequent I/O on it no-ops).
struct PFile {
    path: PathBuf,
    file: Option<File>,
}

impl PFile {
    /// Truncate back to `len` — drops a half-appended record left behind
    /// by a failed earlier attempt, so a retry never appends after a torn
    /// record (replay stops at the first one).
    fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        match self.file.as_mut() {
            Some(f) => f.set_len(len),
            None => Ok(()),
        }
    }

    /// Current on-disk length (0 for a frozen handle).
    fn len(&self) -> io::Result<u64> {
        match &self.file {
            Some(f) => f.metadata().map(|m| m.len()),
            None => Ok(0),
        }
    }
}

fn fio_create(path: &Path) -> io::Result<PFile> {
    let file = match fail::gate(path) {
        fail::Gate::Live => Some(File::create(path)?),
        _ => None,
    };
    Ok(PFile {
        path: path.to_path_buf(),
        file,
    })
}

fn fio_append(path: &Path) -> io::Result<PFile> {
    let file = match fail::gate(path) {
        fail::Gate::Live => Some(OpenOptions::new().append(true).create(true).open(path)?),
        _ => None,
    };
    Ok(PFile {
        path: path.to_path_buf(),
        file,
    })
}

fn fio_write(f: &mut PFile, bytes: &[u8]) -> io::Result<()> {
    let Some(file) = f.file.as_mut() else {
        return Ok(());
    };
    match fail::gate(&f.path) {
        fail::Gate::Live => file.write_all(bytes),
        fail::Gate::Boundary => {
            // The cut lands mid-write: half the buffer reaches the disk.
            file.write_all(&bytes[..bytes.len() / 2])?;
            f.file = None;
            Ok(())
        }
        fail::Gate::Frozen => {
            f.file = None;
            Ok(())
        }
    }
}

fn fio_fsync(f: &mut PFile) -> io::Result<()> {
    let Some(file) = f.file.as_mut() else {
        return Ok(());
    };
    match fail::gate(&f.path) {
        fail::Gate::Live => file.sync_data(),
        _ => {
            f.file = None;
            Ok(())
        }
    }
}

fn fio_rename(from: &Path, to: &Path) -> io::Result<()> {
    match fail::gate(to) {
        fail::Gate::Live => fs::rename(from, to),
        _ => Ok(()),
    }
}

fn fio_remove(path: &Path) -> io::Result<()> {
    match fail::gate(path) {
        fail::Gate::Live => match fs::remove_file(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            r => r,
        },
        _ => Ok(()),
    }
}

/// Write `bytes` to `path` atomically: tmp file, fsync, rename.
fn fio_write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut f = fio_create(&tmp)?;
    fio_write(&mut f, bytes)?;
    fio_fsync(&mut f)?;
    drop(f);
    fio_rename(&tmp, path)
}

// ---------------------------------------------------------------------
// Binary helpers (little-endian).
// ---------------------------------------------------------------------

pub(crate) fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_f32(out: &mut Vec<u8>, x: f32) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, x: f64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn get_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn get_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn get_f32<R: Read>(r: &mut R) -> io::Result<f32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(f32::from_le_bytes(b))
}

fn get_f64<R: Read>(r: &mut R) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

/// FNV-1a, the record checksum (cheap, endian-free, catches torn tails).
/// Shared with the cluster manifest.
#[doc(hidden)]
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

pub(crate) fn put_rows<'a>(
    out: &mut Vec<u8>,
    rows: impl ExactSizeIterator<Item = SparseVector> + 'a,
) {
    put_u64(out, rows.len() as u64);
    for v in rows {
        put_u32(out, v.nnz() as u32);
        for &d in v.indices() {
            put_u32(out, d);
        }
        for &x in v.values() {
            put_f32(out, x);
        }
    }
}

fn get_rows<R: Read>(r: &mut R) -> io::Result<Vec<SparseVector>> {
    let n = get_u64(r)? as usize;
    let mut rows = Vec::with_capacity(n.min(1 << 20));
    for i in 0..n {
        let nnz = get_u32(r)? as usize;
        if nnz > MAX_RECORD as usize {
            return Err(bad(format!("row {i}: implausible nnz {nnz}")));
        }
        let mut indices = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            indices.push(get_u32(r)?);
        }
        let mut values = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            values.push(get_f32(r)?);
        }
        rows.push(SparseVector::from_sorted(indices, values).map_err(|e| bad(e.to_string()))?);
    }
    Ok(rows)
}

pub(crate) fn gen_rows(g: &DeltaGeneration) -> impl ExactSizeIterator<Item = SparseVector> + '_ {
    (0..g.len() as u32).map(|local| g.data().row_vector(local))
}

/// A window spec as its manifest `(tag, u64 payload)` pair. Shared with
/// the cluster manifest. A duration beyond `u64` nanoseconds saturates.
#[doc(hidden)]
pub fn encode_window(window: Option<WindowSpec>) -> (u8, u64) {
    match window {
        None => (WINDOW_NONE, 0),
        Some(WindowSpec::Docs(n)) => (WINDOW_DOCS, n as u64),
        Some(WindowSpec::Duration(d)) => {
            (WINDOW_DURATION, d.as_nanos().min(u64::MAX as u128) as u64)
        }
    }
}

/// Inverse of [`encode_window`]. Shared with the cluster manifest.
#[doc(hidden)]
pub fn decode_window(tag: u8, arg: u64) -> io::Result<Option<WindowSpec>> {
    Ok(match tag {
        WINDOW_NONE => None,
        WINDOW_DOCS => {
            Some(WindowSpec::Docs(u32::try_from(arg).map_err(|_| {
                bad(format!("implausible window size {arg}"))
            })?))
        }
        WINDOW_DURATION => Some(WindowSpec::Duration(Duration::from_nanos(arg))),
        t => return Err(bad(format!("unknown window tag {t}"))),
    })
}

// ---------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
pub(crate) struct Manifest {
    pub params: PlshParams,
    pub capacity: u64,
    pub eta: f64,
    pub seal_min_points: u64,
    /// Data-directory generation, bumped by `clear` so leftovers of a
    /// previous lifetime can never be replayed as data.
    pub reset: u64,
    pub static_seq: Option<u64>,
    pub static_len: u64,
    /// Global id of static row 0 — everything below it was retired by the
    /// sliding window and compacted away (0 without a window).
    pub static_base: u64,
    /// Retirement watermark at the time of the snapshot: every id below
    /// it is dead. Invariant: `static_base <= retired_below`.
    pub retired_below: u64,
    /// The engine's sliding-window spec, so recovery rebuilds a windowed
    /// engine that keeps retiring on its own.
    pub window: Option<WindowSpec>,
    pub purged: Vec<u32>,
    pub pending: Vec<u32>,
}

impl Manifest {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MANIFEST_MAGIC);
        put_u32(&mut out, MANIFEST_VERSION);
        put_u32(&mut out, self.params.dim());
        put_u32(&mut out, self.params.k());
        put_u32(&mut out, self.params.m());
        put_f64(&mut out, self.params.radius());
        put_f64(&mut out, self.params.delta());
        put_u64(&mut out, self.params.seed());
        put_u64(&mut out, self.capacity);
        put_f64(&mut out, self.eta);
        put_u64(&mut out, self.seal_min_points);
        put_u64(&mut out, self.reset);
        put_u64(&mut out, self.static_seq.unwrap_or(NO_STATIC));
        put_u64(&mut out, self.static_len);
        put_u64(&mut out, self.static_base);
        put_u64(&mut out, self.retired_below);
        let (wtag, warg) = encode_window(self.window);
        out.push(wtag);
        put_u64(&mut out, warg);
        put_u64(&mut out, self.purged.len() as u64);
        for &id in &self.purged {
            put_u32(&mut out, id);
        }
        put_u64(&mut out, self.pending.len() as u64);
        for &id in &self.pending {
            put_u32(&mut out, id);
        }
        // Whole-manifest checksum: a manifest is only ever replaced via
        // rename, but an operator-truncated file must fail loudly.
        let crc = checksum(&out);
        put_u32(&mut out, crc);
        out
    }

    pub(crate) fn decode(bytes: &[u8]) -> io::Result<Self> {
        if bytes.len() < 4 + 4 {
            return Err(bad("manifest truncated"));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 4);
        let crc = u32::from_le_bytes(tail.try_into().expect("4 bytes"));
        if checksum(body) != crc {
            return Err(bad("manifest checksum mismatch"));
        }
        let mut r = body;
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MANIFEST_MAGIC {
            return Err(bad("not a plsh persistence manifest (bad magic)"));
        }
        let version = get_u32(&mut r)?;
        if !(1..=MANIFEST_VERSION).contains(&version) {
            return Err(bad(format!("unsupported manifest version {version}")));
        }
        let dim = get_u32(&mut r)?;
        let k = get_u32(&mut r)?;
        let m = get_u32(&mut r)?;
        let radius = get_f64(&mut r)?;
        let delta = get_f64(&mut r)?;
        let seed = get_u64(&mut r)?;
        let params = PlshParams::builder(dim)
            .k(k)
            .m(m)
            .radius(radius)
            .delta(delta)
            .seed(seed)
            .build()
            .map_err(|e| bad(e.to_string()))?;
        let capacity = get_u64(&mut r)?;
        let eta = get_f64(&mut r)?;
        let seal_min_points = get_u64(&mut r)?;
        let reset = get_u64(&mut r)?;
        let static_seq = match get_u64(&mut r)? {
            NO_STATIC => None,
            s => Some(s),
        };
        let static_len = get_u64(&mut r)?;
        if static_seq.is_none() && static_len != 0 {
            return Err(bad("static_len without a static segment"));
        }
        let (static_base, retired_below, window) = if version >= 2 {
            let base = get_u64(&mut r)?;
            let retired = get_u64(&mut r)?;
            if retired < base {
                return Err(bad(format!(
                    "retired_below {retired} below static_base {base}"
                )));
            }
            let mut wtag = [0u8; 1];
            r.read_exact(&mut wtag)?;
            let window = decode_window(wtag[0], get_u64(&mut r)?)?;
            (base, retired, window)
        } else {
            (0, 0, None)
        };
        let np = get_u64(&mut r)? as usize;
        let mut purged = Vec::with_capacity(np);
        for _ in 0..np {
            let id = get_u32(&mut r)?;
            if (id as u64) < static_base || id as u64 >= static_base + static_len {
                return Err(bad(format!("purged id {id} outside the static prefix")));
            }
            purged.push(id);
        }
        let nd = get_u64(&mut r)? as usize;
        let mut pending = Vec::with_capacity(nd);
        for _ in 0..nd {
            pending.push(get_u32(&mut r)?);
        }
        Ok(Self {
            params,
            capacity,
            eta,
            seal_min_points,
            reset,
            static_seq,
            static_len,
            static_base,
            retired_below,
            window,
            purged,
            pending,
        })
    }
}

// ---------------------------------------------------------------------
// Segment + log encoding
// ---------------------------------------------------------------------

pub(crate) fn encode_segment(magic: &[u8; 4], base: u64, rows: &mut Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(rows.len() + 24);
    out.extend_from_slice(magic);
    put_u32(&mut out, VERSION);
    put_u64(&mut out, base);
    out.append(rows);
    let crc = checksum(&out);
    put_u32(&mut out, crc);
    out
}

pub(crate) fn decode_segment(
    magic: &[u8; 4],
    expect_base: u64,
    bytes: &[u8],
) -> io::Result<Vec<SparseVector>> {
    if bytes.len() < 4 + 4 + 8 + 4 {
        return Err(bad("segment truncated"));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 4);
    let crc = u32::from_le_bytes(tail.try_into().expect("4 bytes"));
    if checksum(body) != crc {
        return Err(bad("segment checksum mismatch"));
    }
    let mut r = body;
    let mut m = [0u8; 4];
    r.read_exact(&mut m)?;
    if &m != magic {
        return Err(bad("bad segment magic"));
    }
    let version = get_u32(&mut r)?;
    if version != VERSION {
        return Err(bad(format!("unsupported segment version {version}")));
    }
    let base = get_u64(&mut r)?;
    if base != expect_base {
        return Err(bad(format!("segment base {base}, expected {expect_base}")));
    }
    get_rows(&mut r)
}

/// One checksummed log record: `len | crc | payload`.
fn encode_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, checksum(payload));
    out.extend_from_slice(payload);
    out
}

/// Replay a log's records, stopping silently at the first torn or
/// corrupt record (the un-synced tail of a crash).
fn replay_log(path: &Path, mut on_payload: impl FnMut(&[u8]) -> bool) -> io::Result<()> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    let mut at = 0usize;
    while bytes.len() - at >= 8 {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
        if len > MAX_RECORD as usize || bytes.len() - at - 8 < len {
            break; // torn tail
        }
        let payload = &bytes[at + 8..at + 8 + len];
        if checksum(payload) != crc {
            break; // torn tail
        }
        if !on_payload(payload) {
            break; // malformed payload: treat like a torn tail
        }
        at += 8 + len;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// File layout
// ---------------------------------------------------------------------

fn data_dir(dir: &Path, reset: u64) -> PathBuf {
    dir.join(format!("data-{reset}"))
}

fn static_path(data: &Path, seq: u64) -> PathBuf {
    data.join(format!("static-{seq}.seg"))
}

fn gen_path(data: &Path, base: u32) -> PathBuf {
    data.join(format!("gen-{base}.seg"))
}

fn wal_path(data: &Path, base: u32) -> PathBuf {
    data.join(format!("wal-{base}.log"))
}

fn tomb_path(data: &Path) -> PathBuf {
    data.join("tomb.log")
}

/// Parse `<prefix><number><suffix>` file names (`gen-17.seg` → 17).
fn parse_numbered(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

// ---------------------------------------------------------------------
// The attached persister
// ---------------------------------------------------------------------

/// Everything the baseline write needs, captured under the engine's
/// write lock so the parts are mutually consistent.
pub(crate) struct Baseline<'a> {
    pub params: &'a PlshParams,
    pub capacity: u64,
    pub eta: f64,
    pub seal_min_points: u64,
    pub window: Option<WindowSpec>,
    /// Global id of `static_data` row 0 (the compaction cut).
    pub static_base: u32,
    /// Retirement watermark at capture time (`>= static_base`).
    pub retired_below: u32,
    pub static_data: &'a CrsMatrix,
    pub static_len: usize,
    pub sealed: &'a [Arc<DeltaGeneration>],
    pub open: Option<&'a DeltaGeneration>,
    pub purged: &'a [u32],
    pub pending: Vec<u32>,
}

impl Baseline<'_> {
    /// The manifest that commits this baseline's files.
    fn manifest(&self, reset: u64, static_seq: Option<u64>) -> Manifest {
        Manifest {
            params: self.params.clone(),
            capacity: self.capacity,
            eta: self.eta,
            seal_min_points: self.seal_min_points,
            reset,
            static_seq,
            static_len: self.static_len as u64,
            static_base: self.static_base as u64,
            retired_below: self.retired_below as u64,
            window: self.window,
            purged: self.purged.to_vec(),
            pending: self.pending.clone(),
        }
    }
}

struct WalWriter {
    file: PFile,
    base: u32,
    rows: u32,
    /// Bytes known to hold whole, durable records (the truncation point
    /// for retries after a failed append).
    good: u64,
}

struct TombWriter {
    file: PFile,
    good: u64,
}

struct PersistState {
    data: PathBuf,
    manifest: Manifest,
    next_static_seq: u64,
    wal: Option<WalWriter>,
    tomb: Option<TombWriter>,
}

/// The durable side of one [`Engine`], attached by
/// [`Engine::persist_to`] / [`Engine::recover_from`] and driven by the
/// engine's write path (all hooks run under the engine's write mutex).
pub struct EnginePersister {
    dir: PathBuf,
    state: Mutex<PersistState>,
    /// Transient I/O errors absorbed by retry-with-backoff (health metric).
    retries: AtomicU64,
}

/// Seed stream for retry jitter: one counter feeding SplitMix64, so two
/// engines retrying concurrently don't sleep in lockstep.
static JITTER_SALT: AtomicU64 = AtomicU64::new(0x5bd1_e995);

fn jittered(delay: Duration) -> Duration {
    let salt = JITTER_SALT.fetch_add(1, Ordering::Relaxed);
    let r = crate::rng::SplitMix64::new(salt).next_u64();
    delay + Duration::from_nanos(r % (delay.as_nanos() as u64 / 2).max(1))
}

/// Writes the segment/WAL files of a full baseline into `data` (shared
/// by [`EnginePersister::create`] and [`EnginePersister::resync`]).
/// Returns the static sequence used (if any) and the open WAL writer.
fn write_baseline(data: &Path, b: &Baseline<'_>) -> io::Result<(Option<u64>, Option<WalWriter>)> {
    let static_seq = if b.static_len > 0 { Some(0u64) } else { None };
    if let Some(seq) = static_seq {
        let mut rows = Vec::new();
        put_rows(
            &mut rows,
            (0..b.static_len as u32).map(|id| b.static_data.row_vector(id)),
        );
        let bytes = encode_segment(STATIC_MAGIC, b.static_base as u64, &mut rows);
        fio_write_atomic(&static_path(data, seq), &bytes)?;
    }
    for g in b.sealed {
        let mut rows = Vec::new();
        put_rows(&mut rows, gen_rows(g));
        let bytes = encode_segment(GEN_MAGIC, g.base() as u64, &mut rows);
        fio_write_atomic(&gen_path(data, g.base()), &bytes)?;
    }
    let wal = match b.open {
        Some(g) if !g.is_empty() => {
            let mut payload = Vec::new();
            payload.push(TAG_INSERT);
            put_u32(&mut payload, g.base());
            put_rows(&mut payload, gen_rows(g));
            let record = encode_record(&payload);
            let mut f = fio_create(&wal_path(data, g.base()))?;
            fio_write(&mut f, &record)?;
            fio_fsync(&mut f)?;
            Some(WalWriter {
                file: f,
                base: g.base(),
                rows: g.len() as u32,
                good: record.len() as u64,
            })
        }
        _ => None,
    };
    Ok((static_seq, wal))
}

impl EnginePersister {
    /// Writes a full baseline of the engine's current contents into `dir`
    /// (which must not already hold a persisted index) and returns the
    /// attached persister.
    pub(crate) fn create(dir: &Path, b: &Baseline<'_>) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        if dir.join(MANIFEST).exists() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!(
                    "{} already holds a persisted index; recover from it or choose an empty \
                     directory",
                    dir.display()
                ),
            ));
        }
        let reset = 0u64;
        let data = data_dir(dir, reset);
        fs::create_dir_all(&data)?;

        let (static_seq, wal) = write_baseline(&data, b)?;
        let manifest = b.manifest(reset, static_seq);
        fio_write_atomic(&dir.join(MANIFEST), &manifest.encode())?;

        Ok(Self {
            dir: dir.to_path_buf(),
            state: Mutex::new(PersistState {
                data,
                manifest,
                next_static_seq: static_seq.map_or(0, |s| s + 1),
                wal,
                tomb: None,
            }),
            retries: AtomicU64::new(0),
        })
    }

    /// Re-attaches to a recovered directory: compacts the replayed WAL
    /// tail into a generation segment (the recovered engine sealed those
    /// rows) and garbage-collects everything recovery did not use.
    pub(crate) fn attach_recovered(dir: &Path, st: &RecoveredState) -> io::Result<Self> {
        let data = data_dir(dir, st.manifest.reset);
        fs::create_dir_all(&data)?;

        // Compact: rows recovered out of a WAL are sealed generations in
        // the rebuilt engine, so give them their immutable segment and
        // retire the log (segment first — the WAL stays authoritative
        // until its replacement is fully on disk).
        for (base, rows, from_wal) in &st.gens {
            if !from_wal {
                continue;
            }
            let mut buf = Vec::new();
            put_rows(&mut buf, rows.iter().cloned());
            let bytes = encode_segment(GEN_MAGIC, *base as u64, &mut buf);
            fio_write_atomic(&gen_path(&data, *base), &bytes)?;
            fio_remove(&wal_path(&data, *base))?;
        }

        let me = Self {
            dir: dir.to_path_buf(),
            state: Mutex::new(PersistState {
                data,
                manifest: st.manifest.clone(),
                next_static_seq: st.manifest.static_seq.map_or(0, |s| s + 1),
                wal: None,
                tomb: None,
            }),
            retries: AtomicU64::new(0),
        };
        me.gc(st);
        Ok(me)
    }

    /// Best-effort removal of files recovery did not consume: stale data
    /// directories from pre-`clear` lifetimes, retired static segments,
    /// and generation segments / WALs beyond the recovered contiguous
    /// prefix (or below the static watermark).
    fn gc(&self, st: &RecoveredState) {
        let s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for e in entries.flatten() {
                let name = e.file_name();
                let name = name.to_string_lossy().into_owned();
                if let Some(r) = parse_numbered(&name, "data-", "") {
                    if r != st.manifest.reset {
                        let _ = fs::remove_dir_all(e.path());
                    }
                }
            }
        }
        let live_gens: Vec<u32> = st.gens.iter().map(|(b, _, _)| *b).collect();
        if let Ok(entries) = fs::read_dir(&s.data) {
            for e in entries.flatten() {
                let name = e.file_name();
                let name = name.to_string_lossy().into_owned();
                let stale = if let Some(seq) = parse_numbered(&name, "static-", ".seg") {
                    Some(seq) != st.manifest.static_seq
                } else if let Some(b) = parse_numbered(&name, "gen-", ".seg") {
                    !live_gens.contains(&(b as u32))
                } else if parse_numbered(&name, "wal-", ".log").is_some() {
                    // Every recovered WAL was just compacted to a segment;
                    // any remaining log is an unreachable orphan.
                    true
                } else {
                    name.ends_with(".tmp")
                };
                if stale {
                    let _ = fs::remove_file(e.path());
                }
            }
        }
    }

    /// Runs `op` with a bounded retry budget and jittered exponential
    /// backoff between attempts: a transient I/O blip is absorbed (and
    /// counted toward [`Self::io_retries`]), a persistent failure comes
    /// back as the last error for the engine to degrade on.
    fn retry<T>(&self, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        const RETRIES: u32 = 4;
        let mut delay = Duration::from_micros(500);
        let mut attempt = 0;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(_) if attempt < RETRIES => {
                    attempt += 1;
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(jittered(delay));
                    delay = (delay * 2).min(Duration::from_millis(10));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Transient I/O errors absorbed by retry since this persister
    /// attached (a health metric).
    pub fn io_retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// WAL-append one insert batch (called *before* the rows are applied
    /// in memory). Fsyncs: the batch boundary is the durability point.
    pub(crate) fn log_insert(&self, from: u32, vs: &[SparseVector]) -> io::Result<()> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let s = &mut *s;
        let mut payload = Vec::new();
        payload.push(TAG_INSERT);
        put_u32(&mut payload, from);
        put_rows(&mut payload, vs.iter().cloned());
        let record = encode_record(&payload);
        self.retry(|| {
            let rotate = match &s.wal {
                Some(w) => w.base + w.rows != from,
                None => true,
            };
            if rotate {
                debug_assert!(s.wal.is_none(), "WAL rotation with rows still open");
                let path = wal_path(&s.data, from);
                let file = fio_create(&path)?;
                s.wal = Some(WalWriter {
                    file,
                    base: from,
                    rows: 0,
                    good: 0,
                });
            }
            let w = s.wal.as_mut().expect("installed above");
            w.file.truncate_to(w.good)?;
            fault::io_check(fault::WAL_APPEND)?;
            fio_write(&mut w.file, &record)?;
            fault::io_check(fault::WAL_FSYNC)?;
            fio_fsync(&mut w.file)?;
            w.good += record.len() as u64;
            Ok(())
        })?;
        let w = s.wal.as_mut().expect("record landed above");
        w.rows += vs.len() as u32;
        Ok(())
    }

    /// A generation sealed: write its immutable segment, retire its WAL.
    pub(crate) fn on_seal(&self, g: &DeltaGeneration) -> io::Result<()> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let s = &mut *s;
        let mut rows = Vec::new();
        put_rows(&mut rows, gen_rows(g));
        let bytes = encode_segment(GEN_MAGIC, g.base() as u64, &mut rows);
        let path = gen_path(&s.data, g.base());
        self.retry(|| {
            fault::io_check(fault::SEAL_SEGMENT)?;
            fio_write_atomic(&path, &bytes)
        })?;
        if s.wal.as_ref().is_some_and(|w| w.base == g.base()) {
            s.wal = None;
            // Best-effort: a leftover WAL is shadowed by the segment at
            // recovery and garbage-collected by the next attach.
            let _ = fio_remove(&wal_path(&s.data, g.base()));
        }
        Ok(())
    }

    /// Append one tombstone to the delete log (fsync per record; deletes
    /// are rare next to inserts).
    pub(crate) fn log_delete(&self, id: u32) -> io::Result<()> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let s = &mut *s;
        let mut payload = vec![TAG_DELETE];
        payload.extend_from_slice(&id.to_le_bytes());
        let record = encode_record(&payload);
        self.retry(|| {
            if s.tomb.is_none() {
                let path = tomb_path(&s.data);
                let file = fio_append(&path)?;
                let good = file.len()?;
                s.tomb = Some(TombWriter { file, good });
            }
            let t = s.tomb.as_mut().expect("installed above");
            t.file.truncate_to(t.good)?;
            fault::io_check(fault::TOMB_APPEND)?;
            fio_write(&mut t.file, &record)?;
            fio_fsync(&mut t.file)?;
            t.good += record.len() as u64;
            Ok(())
        })
    }

    /// Append one retirement-watermark advance to the delete log (fsync
    /// per record, like a delete — the watermark moves at most once per
    /// insert batch). Replay takes the max, so repeated advances and the
    /// manifest's own snapshot compose monotonically.
    pub(crate) fn log_retire(&self, watermark: u32) -> io::Result<()> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let s = &mut *s;
        let mut payload = vec![TAG_RETIRE];
        payload.extend_from_slice(&watermark.to_le_bytes());
        let record = encode_record(&payload);
        self.retry(|| {
            if s.tomb.is_none() {
                let path = tomb_path(&s.data);
                let file = fio_append(&path)?;
                let good = file.len()?;
                s.tomb = Some(TombWriter { file, good });
            }
            let t = s.tomb.as_mut().expect("installed above");
            t.file.truncate_to(t.good)?;
            fault::io_check(fault::TOMB_APPEND)?;
            fio_write(&mut t.file, &record)?;
            fio_fsync(&mut t.file)?;
            t.good += record.len() as u64;
            Ok(())
        })
    }

    /// Write the merged corpus as the next static segment (off to the
    /// side, *before* the merge takes the write lock). `base` is the
    /// global id of the corpus's row 0 (the window-compaction cut).
    /// Returns the segment's sequence number for [`Self::publish_static`].
    pub(crate) fn prepare_static(&self, base: u32, static_data: &CrsMatrix) -> io::Result<u64> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let seq = s.next_static_seq;
        s.next_static_seq += 1;
        let mut rows = Vec::new();
        put_rows(
            &mut rows,
            (0..static_data.num_rows() as u32).map(|id| static_data.row_vector(id)),
        );
        let bytes = encode_segment(STATIC_MAGIC, base as u64, &mut rows);
        let path = static_path(&s.data, seq);
        self.retry(|| {
            fault::io_check(fault::STATIC_PREPARE)?;
            fio_write_atomic(&path, &bytes)
        })?;
        Ok(seq)
    }

    /// Commit a merge publish (under the engine's write lock): swap the
    /// manifest — the atomic commit point — then truncate the tombstone
    /// log (its entries are all snapshotted in the manifest now) and
    /// retire the generation segments and WALs the merge consumed, plus
    /// the previous static segment. In-memory manifest state only moves
    /// forward if the swap lands, so a failed publish leaves disk *and*
    /// bookkeeping at the pre-merge state.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn publish_static(
        &self,
        seq: u64,
        static_base: u64,
        static_len: u64,
        purged: &[u32],
        pending: Vec<u32>,
        retired_below: u32,
    ) -> io::Result<()> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let s = &mut *s;
        let old_seq = s.manifest.static_seq;
        let mut next = s.manifest.clone();
        next.static_seq = Some(seq);
        next.static_len = static_len;
        next.static_base = static_base;
        next.retired_below = (retired_below as u64).max(static_base);
        next.purged = purged.to_vec();
        next.pending = pending;
        let bytes = next.encode();
        let manifest_path = self.dir.join(MANIFEST);
        self.retry(|| {
            fault::io_check(fault::MANIFEST_SWAP)?;
            fio_write_atomic(&manifest_path, &bytes)
        })?;
        s.manifest = next;

        // Post-commit cleanup is best-effort: leftovers are shadowed by
        // the manifest at recovery and garbage-collected on re-attach.
        s.tomb = None;
        let _ = fio_remove(&tomb_path(&s.data));
        if let Some(old) = old_seq {
            if Some(old) != s.manifest.static_seq {
                let _ = fio_remove(&static_path(&s.data, old));
            }
        }
        if let Ok(entries) = fs::read_dir(&s.data) {
            for e in entries.flatten() {
                let name = e.file_name();
                let name = name.to_string_lossy().into_owned();
                let retired = parse_numbered(&name, "gen-", ".seg")
                    .or_else(|| parse_numbered(&name, "wal-", ".log"))
                    .is_some_and(|b| b < static_base + static_len);
                if retired {
                    let _ = fio_remove(&e.path());
                }
            }
        }
        Ok(())
    }

    /// The engine was cleared: commit an empty lifetime. The manifest
    /// rename is the commit point; the old data directory becomes an
    /// orphan that recovery garbage-collects.
    pub(crate) fn on_clear(&self) -> io::Result<()> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let s = &mut *s;
        let reset = s.manifest.reset + 1;
        let data = data_dir(&self.dir, reset);
        let mut next = s.manifest.clone();
        next.reset = reset;
        next.static_seq = None;
        next.static_len = 0;
        next.static_base = 0;
        next.retired_below = 0;
        next.purged.clear();
        next.pending.clear();
        let bytes = next.encode();
        let manifest_path = self.dir.join(MANIFEST);
        self.retry(|| {
            fs::create_dir_all(&data)?;
            fio_write_atomic(&manifest_path, &bytes)
        })?;
        let old_data = std::mem::replace(&mut s.data, data);
        s.manifest = next;
        s.next_static_seq = 0;
        s.wal = None;
        s.tomb = None;
        if fail::gate(&old_data) == fail::Gate::Live {
            let _ = fs::remove_dir_all(&old_data);
        }
        Ok(())
    }

    /// Rebuilds the directory from a fresh baseline of the engine's
    /// current in-memory contents — the heal path out of degraded mode.
    /// Writes a brand-new `data-<reset+1>` lifetime, swaps the manifest
    /// (the commit point), and removes the old lifetime best-effort (a
    /// leftover is garbage-collected by the next attach). Idempotent:
    /// safe to call repeatedly until it succeeds.
    pub(crate) fn resync(&self, b: &Baseline<'_>) -> io::Result<()> {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let s = &mut *s;
        let reset = s.manifest.reset + 1;
        let data = data_dir(&self.dir, reset);
        fs::create_dir_all(&data)?;
        let (static_seq, wal) = write_baseline(&data, b)?;
        let manifest = b.manifest(reset, static_seq);
        fault::io_check(fault::MANIFEST_SWAP)?;
        fio_write_atomic(&self.dir.join(MANIFEST), &manifest.encode())?;
        let old_data = std::mem::replace(&mut s.data, data);
        s.manifest = manifest;
        s.next_static_seq = static_seq.map_or(0, |q| q + 1);
        s.wal = wal;
        s.tomb = None;
        let _ = fs::remove_dir_all(&old_data);
        Ok(())
    }

    /// The directory this persister writes to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

/// The durable contents of one engine directory, as read back by
/// [`load_state`]: everything needed to rebuild the engine, plus the
/// layout bookkeeping needed to re-attach the persister.
#[derive(Debug)]
pub struct RecoveredState {
    manifest: Manifest,
    /// Rows of the static prefix (`manifest.static_len` of them).
    static_rows: Vec<SparseVector>,
    /// Sealed generations beyond the static prefix, in id order:
    /// `(base, rows, recovered-from-WAL)`.
    gens: Vec<(u32, Vec<SparseVector>, bool)>,
    /// Tombstones replayed from the delete log (applied after the
    /// manifest's pending list; both are idempotent).
    tomb: Vec<u32>,
    /// Highest retirement watermark replayed from the delete log (0 when
    /// the log held none; composed with the manifest's via max).
    tomb_retire: u32,
    /// Rows that came back from WAL replay rather than sealed segments.
    wal_rows: usize,
}

impl RecoveredState {
    /// The state a packed baseline describes: the manifest, its static
    /// prefix, and the whole delta suffix as one sealed generation, with
    /// no log behind it (how a [`Snapshot`](crate::snapshot::Snapshot)
    /// restores).
    pub(crate) fn packed(
        manifest: Manifest,
        static_rows: Vec<SparseVector>,
        delta: Vec<SparseVector>,
    ) -> Self {
        let delta_base = (manifest.static_base + manifest.static_len) as u32;
        Self {
            manifest,
            static_rows,
            gens: if delta.is_empty() {
                Vec::new()
            } else {
                vec![(delta_base, delta, false)]
            },
            tomb: Vec::new(),
            tomb_retire: 0,
            wal_rows: 0,
        }
    }

    /// LSH parameters stored in the manifest.
    pub fn params(&self) -> &PlshParams {
        &self.manifest.params
    }

    /// Node capacity stored in the manifest.
    pub fn capacity(&self) -> usize {
        self.manifest.capacity as usize
    }

    /// Rows in the durable static prefix.
    pub fn static_len(&self) -> usize {
        self.manifest.static_len as usize
    }

    /// Global id of the first resident row — the sliding window's
    /// compaction cut at the time of the last durable merge (0 without a
    /// window).
    pub fn static_base(&self) -> u32 {
        self.manifest.static_base as u32
    }

    /// The recovered retirement watermark: the manifest's snapshot
    /// composed with every advance replayed from the delete log.
    pub fn retired_below(&self) -> u32 {
        (self.manifest.retired_below as u32).max(self.tomb_retire)
    }

    /// The engine's sliding-window spec, if one was configured.
    pub fn window(&self) -> Option<WindowSpec> {
        self.manifest.window
    }

    /// Total recovered *resident* rows (static prefix + contiguous
    /// generations); the global id space ends at
    /// `static_base() + total()`.
    pub fn total(&self) -> usize {
        self.static_len()
            + self
                .gens
                .iter()
                .map(|(_, rows, _)| rows.len())
                .sum::<usize>()
    }

    /// One past the highest recovered global id.
    fn end(&self) -> u64 {
        self.manifest.static_base + self.total() as u64
    }

    /// Rows recovered from the live WAL (not yet sealed to a segment at
    /// the time of the crash).
    pub fn wal_rows(&self) -> usize {
        self.wal_rows
    }

    /// Sealed generation segments recovered (excluding the WAL tail).
    pub fn segments(&self) -> usize {
        self.gens.iter().filter(|(_, _, w)| !w).count()
    }

    /// All recovered rows in id order (cloned; recovery-time only).
    pub fn all_rows(&self) -> Vec<SparseVector> {
        let mut rows = self.static_rows.clone();
        for (_, gen_rows, _) in &self.gens {
            rows.extend(gen_rows.iter().cloned());
        }
        rows
    }

    /// Every tombstoned id the directory knows about (manifest pending +
    /// purged + delete log), deduplicated, ascending.
    pub fn tombstones(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .manifest
            .pending
            .iter()
            .chain(&self.manifest.purged)
            .chain(&self.tomb)
            .copied()
            .filter(|&id| (id as u64) >= self.manifest.static_base && (id as u64) < self.end())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// Reads the durable state out of an engine directory without building an
/// engine: manifest → static segment → contiguous generation segments →
/// live WAL → delete log. Stops at the first gap in the id space (the
/// crash tail); a torn WAL or delete-log record is dropped silently.
pub fn load_state(dir: impl AsRef<Path>) -> io::Result<RecoveredState> {
    let dir = dir.as_ref();
    let bytes = fs::read(dir.join(MANIFEST)).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("{}: no recoverable index ({e})", dir.display()),
        )
    })?;
    let manifest = Manifest::decode(&bytes)?;
    let data = data_dir(dir, manifest.reset);

    let static_rows = match manifest.static_seq {
        Some(seq) => {
            let bytes = fs::read(static_path(&data, seq))?;
            let rows = decode_segment(STATIC_MAGIC, manifest.static_base, &bytes)?;
            if rows.len() as u64 != manifest.static_len {
                return Err(bad(format!(
                    "static segment holds {} rows, manifest says {}",
                    rows.len(),
                    manifest.static_len
                )));
            }
            rows
        }
        None => Vec::new(),
    };

    let mut gens: Vec<(u32, Vec<SparseVector>, bool)> = Vec::new();
    let mut wal_rows = 0usize;
    let mut next = (manifest.static_base + manifest.static_len) as u32;
    loop {
        let seg = gen_path(&data, next);
        if seg.exists() {
            // A corrupt sealed segment (it was written via rename, so
            // only external damage produces one) ends the recoverable
            // prefix rather than failing the whole recovery.
            match fs::read(&seg).and_then(|b| decode_segment(GEN_MAGIC, next as u64, &b)) {
                Ok(rows) if !rows.is_empty() => {
                    next += rows.len() as u32;
                    gens.push((next - rows.len() as u32, rows, false));
                    continue;
                }
                _ => break,
            }
        }
        // Fall through to the live WAL for the open tail.
        let wal = wal_path(&data, next);
        if !wal.exists() {
            break;
        }
        let mut rows: Vec<SparseVector> = Vec::new();
        let base = next;
        replay_log(&wal, |payload| {
            let mut r = payload;
            let mut tag = [0u8; 1];
            if r.read_exact(&mut tag).is_err() || tag[0] != TAG_INSERT {
                return false;
            }
            let Ok(from) = get_u32(&mut r) else {
                return false;
            };
            if from != base + rows.len() as u32 {
                return false;
            }
            match get_rows(&mut r) {
                Ok(batch) => {
                    rows.extend(batch);
                    true
                }
                Err(_) => false,
            }
        })?;
        if rows.is_empty() {
            break;
        }
        wal_rows += rows.len();
        next += rows.len() as u32;
        gens.push((base, rows, true));
        // Keep walking: a crash between "segment renamed" and "WAL
        // removed" leaves both, and newer files may follow the segment.
    }

    let mut tomb = Vec::new();
    let mut tomb_retire = 0u32;
    replay_log(&tomb_path(&data), |payload| {
        if payload.len() != 5 {
            return false;
        }
        let arg = u32::from_le_bytes(payload[1..5].try_into().expect("4 bytes"));
        match payload[0] {
            TAG_DELETE => {
                tomb.push(arg);
                true
            }
            TAG_RETIRE => {
                tomb_retire = tomb_retire.max(arg);
                true
            }
            _ => false,
        }
    })?;

    Ok(RecoveredState {
        manifest,
        static_rows,
        gens,
        tomb,
        tomb_retire,
        wal_rows,
    })
}

/// Rebuilds an [`Engine`] from a recovered state, optionally truncated to
/// the first `keep` rows (sharded recovery truncates every shard to the
/// longest globally-contiguous prefix). The static prefix is merged with
/// the purged ids tombstoned first, so the purge accounting matches;
/// generation boundaries within the kept rows are reproduced exactly.
pub fn rebuild_engine(
    st: &RecoveredState,
    keep: Option<usize>,
    pool: &ThreadPool,
) -> PlshResult<Engine> {
    let keep = keep.unwrap_or_else(|| st.total()).min(st.total());
    let m = &st.manifest;
    let base = st.static_base();
    let mut config = EngineConfig::new(m.params.clone(), m.capacity as usize)
        .with_eta(m.eta)
        .with_seal_min_points(m.seal_min_points as usize);
    if let Some(w) = m.window {
        config = config.with_window(w);
    }
    let engine = Engine::new(config, pool)?;
    if base > 0 {
        // Land the id space where the compacted directory left it: the
        // first recovered row keeps its global id.
        engine.fast_forward_empty(base);
    }
    let split = st.static_len().min(keep);
    if split > 0 {
        engine.insert_batch_deferring_merge(&st.static_rows[..split], pool)?;
        engine.seal();
        for &id in &m.purged {
            if (id.saturating_sub(base) as usize) < split {
                engine.delete(id);
            }
        }
        engine.merge_delta(pool);
    }
    let mut at = split;
    for (gen_base, rows, _) in &st.gens {
        if at >= keep {
            break;
        }
        debug_assert_eq!(
            *gen_base as u64,
            base as u64 + at.max(st.static_len()) as u64
        );
        let take = rows.len().min(keep - at);
        engine.insert_batch_deferring_merge(&rows[..take], pool)?;
        engine.seal();
        at += take;
    }
    for &id in m.pending.iter().chain(&st.tomb) {
        if ((id.saturating_sub(base)) as usize) < keep {
            engine.delete(id);
        }
    }
    // Re-arm the watermark last, with no merge after it: the recovered
    // engine's compaction state (static_base) matches the directory's, and
    // the retired-pending-purge backlog is carried over rather than
    // silently purged by the rebuild.
    let _ = engine.retire_to(st.retired_below());
    Ok(engine)
}

impl Engine {
    /// Attaches incremental durability to this engine: writes a full
    /// baseline of the current contents into `dir` (which must not
    /// already hold a persisted index), then keeps the directory in sync
    /// from every insert, seal, delete, merge, and clear. See the
    /// [module docs](self) for the file layout and crash semantics.
    pub fn persist_to(&self, dir: impl AsRef<Path>) -> PlshResult<()> {
        self.attach_persister(dir.as_ref())
    }

    /// Recovers an engine from a directory written by
    /// [`persist_to`](Self::persist_to), re-attaching persistence so the
    /// recovered engine keeps journaling. Answers are bit-identical to a
    /// from-scratch build over the recovered rows (property-tested).
    pub fn recover_from(dir: impl AsRef<Path>, pool: &ThreadPool) -> PlshResult<Engine> {
        let st = load_state(dir.as_ref())?;
        recover_engine_from_state(dir, &st, pool)
    }
}

/// Finish a recovery whose state was already loaded (sharded recovery
/// loads every shard first to compute the global truncation point):
/// rebuild the engine and re-attach the persister.
pub fn recover_engine_from_state(
    dir: impl AsRef<Path>,
    st: &RecoveredState,
    pool: &ThreadPool,
) -> PlshResult<Engine> {
    let engine = rebuild_engine(st, None, pool)?;
    let persister = EnginePersister::attach_recovered(dir.as_ref(), st)?;
    engine.set_persister(persister);
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// Serializes the tests that arm the fail injector (one arm slot per process).
    static FAIL_GUARD: Mutex<()> = Mutex::new(());

    fn params(seed: u64) -> PlshParams {
        PlshParams::builder(32)
            .k(6)
            .m(6)
            .radius(0.9)
            .seed(seed)
            .build()
            .unwrap()
    }

    fn vectors(n: usize, seed: u64) -> Vec<SparseVector> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                let a = rng.next_below(32) as u32;
                let b = (a + 1 + rng.next_below(31) as u32) % 32;
                SparseVector::unit(vec![(a, 1.0), (b, rng.next_f64() as f32 + 0.1)]).unwrap()
            })
            .collect()
    }

    fn answers(e: &Engine, qs: &[SparseVector]) -> Vec<Vec<(u32, u32)>> {
        qs.iter()
            .map(|q| {
                let mut hits: Vec<(u32, u32)> = e
                    .query(q)
                    .iter()
                    .map(|h| (h.index, h.distance.to_bits()))
                    .collect();
                hits.sort_unstable();
                hits
            })
            .collect()
    }

    #[test]
    fn wal_segments_and_merge_round_trip() {
        let tmp = tempdir("persist-roundtrip");
        let pool = ThreadPool::new(1);
        let vs = vectors(120, 9);
        let engine = Engine::new(EngineConfig::new(params(3), 500).manual_merge(), &pool).unwrap();
        engine.persist_to(&tmp).unwrap();
        engine.insert_batch(&vs[..50], &pool).unwrap();
        engine.delete(7);
        engine.merge_delta(&pool);
        engine.insert_batch(&vs[50..90], &pool).unwrap();
        engine.delete(60);

        let back = Engine::recover_from(&tmp, &pool).unwrap();
        assert_eq!(back.len(), engine.len());
        assert_eq!(back.static_len(), engine.static_len());
        assert_eq!(back.purged_ids(), engine.purged_ids());
        assert!(back.is_deleted(7) && back.is_deleted(60));
        assert_eq!(answers(&back, &vs), answers(&engine, &vs));
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn open_generation_survives_via_wal() {
        let tmp = tempdir("persist-open-gen");
        let pool = ThreadPool::new(1);
        let vs = vectors(40, 11);
        let engine = Engine::new(
            EngineConfig::new(params(4), 100)
                .manual_merge()
                .with_seal_min_points(64),
            &pool,
        )
        .unwrap();
        engine.persist_to(&tmp).unwrap();
        // Everything stays in the open generation: only the WAL has it.
        for chunk in vs.chunks(7) {
            engine.insert_batch(chunk, &pool).unwrap();
        }
        assert_eq!(engine.visible_len(), 0);

        let back = Engine::recover_from(&tmp, &pool).unwrap();
        back.seal();
        engine.seal();
        assert_eq!(back.len(), vs.len());
        assert_eq!(answers(&back, &vs), answers(&engine, &vs));
        // The recovered WAL was compacted into a segment.
        assert!(gen_path(&data_dir(Path::new(&tmp), 0), 0).exists());
        assert!(!wal_path(&data_dir(Path::new(&tmp), 0), 0).exists());
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn baseline_of_populated_engine_and_clear() {
        let tmp = tempdir("persist-baseline");
        let pool = ThreadPool::new(1);
        let vs = vectors(80, 21);
        let engine = Engine::new(EngineConfig::new(params(5), 200).manual_merge(), &pool).unwrap();
        engine.insert_batch(&vs[..30], &pool).unwrap();
        engine.merge_delta(&pool);
        engine.insert_batch(&vs[30..], &pool).unwrap();
        engine.delete(3);
        // Baseline written mid-life, with static + sealed + tombstones.
        engine.persist_to(&tmp).unwrap();
        let back = Engine::recover_from(&tmp, &pool).unwrap();
        assert_eq!(answers(&back, &vs), answers(&engine, &vs));

        engine.clear();
        let back = Engine::recover_from(&tmp, &pool).unwrap();
        assert_eq!(back.len(), 0);
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn torn_wal_tail_is_dropped() {
        let tmp = tempdir("persist-torn");
        let pool = ThreadPool::new(1);
        let vs = vectors(30, 31);
        let engine = Engine::new(
            EngineConfig::new(params(6), 100)
                .manual_merge()
                .with_seal_min_points(64),
            &pool,
        )
        .unwrap();
        engine.persist_to(&tmp).unwrap();
        for chunk in vs.chunks(10) {
            engine.insert_batch(chunk, &pool).unwrap();
        }
        // Tear the last record: recovery must come back with exactly the
        // first two batches.
        let wal = wal_path(&data_dir(Path::new(&tmp), 0), 0);
        let bytes = fs::read(&wal).unwrap();
        fs::write(&wal, &bytes[..bytes.len() - 11]).unwrap();
        let back = Engine::recover_from(&tmp, &pool).unwrap();
        assert_eq!(back.len(), 20);
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn missing_manifest_is_a_clean_error() {
        let tmp = tempdir("persist-nomanifest");
        fs::create_dir_all(&tmp).unwrap();
        let err = load_state(&tmp).unwrap_err();
        assert!(err.to_string().contains("no recoverable index"));
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn fail_injection_freezes_the_directory() {
        let _g = FAIL_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let tmp = tempdir("persist-freeze");
        let pool = ThreadPool::new(1);
        let vs = vectors(60, 41);
        let engine = Engine::new(EngineConfig::new(params(7), 200).manual_merge(), &pool).unwrap();
        engine.persist_to(&tmp).unwrap();
        engine.insert_batch(&vs[..20], &pool).unwrap();
        fail::arm(&tmp, 0); // power already cut: nothing below reaches the disk
        engine.insert_batch(&vs[20..], &pool).unwrap();
        engine.delete(1);
        engine.merge_delta(&pool);
        fail::disarm();
        let back = Engine::recover_from(&tmp, &pool).unwrap();
        assert_eq!(back.len(), 20, "frozen ops must not be recoverable");
        assert!(!back.is_deleted(1));
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn fail_injection_is_scoped_to_its_directory() {
        let _g = FAIL_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let armed = tempdir("persist-scope-armed");
        let other = tempdir("persist-scope-other");
        fail::arm(&armed, 0);
        // A journaling engine on another thread, in another directory,
        // never sees the cut.
        let worker = {
            let other = other.clone();
            std::thread::spawn(move || {
                let pool = ThreadPool::new(1);
                let vs = vectors(50, 61);
                let engine =
                    Engine::new(EngineConfig::new(params(9), 100).manual_merge(), &pool).unwrap();
                engine.persist_to(&other).unwrap();
                engine.insert_batch(&vs[..25], &pool).unwrap();
                engine.merge_delta(&pool);
                engine.insert_batch(&vs[25..], &pool).unwrap();
                let back = Engine::recover_from(&other, &pool).unwrap();
                assert_eq!(answers(&back, &vs), answers(&engine, &vs));
                vs
            })
        };
        let vs = worker.join().unwrap();
        let used = fail::ops_used();
        fail::disarm();
        assert_eq!(
            load_state(&other).unwrap().all_rows(),
            vs,
            "every row recovers"
        );
        assert_eq!(used, 0, "I/O outside the armed directory is not gated");
        std::fs::remove_dir_all(&other).unwrap();
    }

    fn tempdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("plsh-{}-{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }
}
