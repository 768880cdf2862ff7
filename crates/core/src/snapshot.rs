//! Engine snapshots: save/restore a node's contents to a byte stream.
//!
//! An adoption feature beyond the paper: operators of an in-memory system
//! need warm restarts. A snapshot is a **packed persist baseline**: the
//! same checksummed manifest and segments [`crate::persist`] writes into a
//! directory, framed into one stream. It stores the *inputs* —
//! parameters, merge policy, sliding window, corpus rows, static/delta
//! split, deletion tombstones — and on load the engine is rebuilt exactly
//! as directory recovery rebuilds it ([`persist::rebuild_engine`]):
//! sketches and tables come back deterministically from the stored seed,
//! so the restored engine answers every query identically to the
//! original (tested), and keeps the original's η, `seal_min_points` and
//! window.
//!
//! ## How sealed generations serialize
//!
//! The streaming engine's in-memory state is segmented — a static epoch
//! plus a list of sealed [`DeltaGeneration`](crate::table::DeltaGeneration)s —
//! but a snapshot deliberately flattens that: it records only the
//! `static_len` split point and every row in global-id order (rows are
//! read out of whichever segment holds them). On restore, the static
//! prefix is re-inserted and merged, and the entire delta suffix is
//! re-inserted as **one** sealed generation. The generation *boundaries*
//! are not preserved — they are an ingest-batching artifact with no effect
//! on answers (tested: all segmentations of the same rows answer
//! identically) — which keeps the format independent of batch sizes and
//! merge timing.
//!
//! Tombstones serialize as two id lists: `deleted` (bits still set in the
//! live bitvector) and `purged` (ids a past merge already evicted from the
//! static tables, bits reclaimed). Restore replays them in that order —
//! purged ids are deleted *before* the restore-merge so the merge purges
//! exactly them, then the still-pending tombstones are applied — so the
//! restored engine reproduces both the answers and the purge accounting of
//! the original.
//!
//! ## Format (version 4)
//!
//! Magic `PLSH` and a little-endian `u32` version, then three frames, each
//! a `u64` byte length followed by one persist piece carrying its own
//! magic, version and FNV-1a checksum:
//!
//! 1. the engine manifest (`PLSM` v2): parameters, capacity, η,
//!    `seal_min_points`, static length, the sliding-window base and
//!    retirement watermark, the window spec, and the purged and pending
//!    tombstone lists;
//! 2. a static segment (`PLSS` v1) holding the static prefix at `base`;
//! 3. a generation segment (`PLSG` v1) holding the whole delta suffix at
//!    `base + static_len`.
//!
//! Rows are *resident* rows only: everything a sliding-window engine
//! already compacted away stays gone, and `base` records the global id of
//! the first stored row so ids survive the round trip. A flipped bit
//! anywhere in a frame fails its checksum. Streams of an older version
//! are refused.

use std::io::{self, Read, Write};
use std::sync::Arc;

use plsh_parallel::ThreadPool;

use crate::engine::{Engine, WindowSpec};
use crate::error::Result as PlshResult;
use crate::params::PlshParams;
use crate::persist::{
    self, bad, decode_segment, encode_segment, gen_rows, put_rows, Manifest, RecoveredState,
    GEN_MAGIC, STATIC_MAGIC,
};
use crate::sparse::SparseVector;

const MAGIC: &[u8; 4] = b"PLSH";
const VERSION: u32 = 4;

/// Everything needed to reconstruct an [`Engine`].
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// LSH parameters (including the hyperplane seed).
    pub params: PlshParams,
    /// Node capacity `C`.
    pub capacity: u64,
    /// Merge threshold `η`.
    pub eta: f64,
    /// Minimum open-generation size before inserts auto-seal.
    pub seal_min_points: u64,
    /// The sliding-window spec (`None` without a window).
    pub window: Option<WindowSpec>,
    /// Points in the static structure (the rest live in the delta).
    pub static_len: u64,
    /// Global id of `vectors[0]` — the sliding window's compaction cut at
    /// capture time (0 for engines without a window).
    pub base: u64,
    /// Retirement watermark at capture time (`>= base`): ids below it are
    /// dead by range tombstone, pending physical purge.
    pub retired_below: u64,
    /// All *resident* rows, in insertion order (global ids
    /// `base..base + vectors.len()`).
    pub vectors: Vec<SparseVector>,
    /// Tombstoned point ids whose bits are still set (not yet purged).
    pub deleted: Vec<u32>,
    /// Tombstoned ids already purged from the static tables by a merge.
    pub purged: Vec<u32>,
}

impl Snapshot {
    /// Captures an engine's state — safe to call while other threads keep
    /// inserting and merging: the rows, split point, and tombstone lists
    /// come out of one atomic capture, which never waits for a merge.
    pub fn capture(engine: &Engine) -> Self {
        engine.with_baseline(|b| {
            let mut vectors: Vec<SparseVector> = (0..b.static_len as u32)
                .map(|id| b.static_data.row_vector(id))
                .collect();
            for g in b.sealed.iter().map(Arc::as_ref).chain(b.open) {
                vectors.extend(gen_rows(g));
            }
            Self {
                params: b.params.clone(),
                capacity: b.capacity,
                eta: b.eta,
                seal_min_points: b.seal_min_points,
                window: b.window,
                static_len: b.static_len as u64,
                base: b.static_base as u64,
                retired_below: b.retired_below as u64,
                vectors,
                deleted: b.pending,
                purged: b.purged.to_vec(),
            }
        })
    }

    /// Restores an engine that answers identically to the captured one,
    /// configured from the image (η, `seal_min_points`, window) exactly
    /// as [`Engine::recover_from`] configures a recovered one.
    ///
    /// The static/delta split is reproduced exactly: the static prefix is
    /// inserted, the purged ids are tombstoned and a merge purges them
    /// again, then the delta suffix is inserted unmerged (as one sealed
    /// generation) and the pending tombstones are re-applied.
    pub fn restore(&self, pool: &ThreadPool) -> PlshResult<Engine> {
        let (static_rows, delta) = self.vectors.split_at(self.static_len as usize);
        let state = RecoveredState::packed(self.manifest(), static_rows.to_vec(), delta.to_vec());
        persist::rebuild_engine(&state, None, pool)
    }

    /// The snapshot's header as a persist manifest.
    fn manifest(&self) -> Manifest {
        Manifest {
            params: self.params.clone(),
            capacity: self.capacity,
            eta: self.eta,
            seal_min_points: self.seal_min_points,
            reset: 0,
            static_seq: (self.static_len > 0).then_some(0),
            static_len: self.static_len,
            static_base: self.base,
            retired_below: self.retired_below,
            window: self.window,
            purged: self.purged.clone(),
            pending: self.deleted.clone(),
        }
    }

    /// Serializes the snapshot.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let (static_rows, delta) = self.vectors.split_at(self.static_len as usize);
        let mut static_bytes = Vec::new();
        put_rows(&mut static_bytes, static_rows.iter().cloned());
        let mut delta_bytes = Vec::new();
        put_rows(&mut delta_bytes, delta.iter().cloned());
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        for frame in [
            self.manifest().encode(),
            encode_segment(STATIC_MAGIC, self.base, &mut static_bytes),
            encode_segment(GEN_MAGIC, self.base + self.static_len, &mut delta_bytes),
        ] {
            w.write_all(&(frame.len() as u64).to_le_bytes())?;
            w.write_all(&frame)?;
        }
        Ok(())
    }

    /// Deserializes a snapshot, validating every invariant it can.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Self> {
        let mut head = [0u8; 8];
        r.read_exact(&mut head)?;
        if &head[..4] != MAGIC {
            return Err(bad("not a PLSH snapshot (bad magic)"));
        }
        let version = u32::from_le_bytes(head[4..].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(bad(format!("unsupported snapshot version {version}")));
        }
        let m = Manifest::decode(&read_frame(r)?)?;
        let base = m.static_base;
        let mut vectors = decode_segment(STATIC_MAGIC, base, &read_frame(r)?)?;
        if vectors.len() as u64 != m.static_len {
            return Err(bad(format!(
                "static segment holds {} rows, manifest says {}",
                vectors.len(),
                m.static_len
            )));
        }
        vectors.extend(decode_segment(
            GEN_MAGIC,
            base + m.static_len,
            &read_frame(r)?,
        )?);

        // Range checks a directory manifest cannot make (a lost segment
        // may legally leave it naming rows recovery no longer has): a
        // snapshot carries every row its header names.
        let n = vectors.len() as u64;
        if n > m.capacity {
            return Err(bad("snapshot holds more points than its capacity"));
        }
        if m.retired_below > base + n {
            return Err(bad("retired_below beyond the stored id range"));
        }
        let dim = m.params.dim();
        if let Some(row) = vectors
            .iter()
            .position(|v| v.max_index().unwrap_or(0) >= dim)
        {
            return Err(bad(format!("row {row} exceeds dimensionality {dim}")));
        }
        if let Some(id) = m
            .pending
            .iter()
            .find(|&&id| (id as u64) < base || id as u64 >= base + n)
        {
            return Err(bad(format!("tombstone {id} out of range")));
        }
        Ok(Self {
            params: m.params,
            capacity: m.capacity,
            eta: m.eta,
            seal_min_points: m.seal_min_points,
            window: m.window,
            static_len: m.static_len,
            base,
            retired_below: m.retired_below,
            vectors,
            deleted: m.pending,
            purged: m.purged,
        })
    }
}

/// One `u64`-length-prefixed frame. The length is not trusted for an
/// allocation: a corrupt one ends in a short read, not a huge buffer.
fn read_frame<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 8];
    r.read_exact(&mut len)?;
    let len = u64::from_le_bytes(len);
    let mut frame = Vec::new();
    r.take(len).read_to_end(&mut frame)?;
    if frame.len() as u64 != len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(frame)
}

impl Engine {
    /// Writes a snapshot of this engine (see [`Snapshot`]).
    pub fn save_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        Snapshot::capture(self).write_to(w)
    }

    /// Restores an engine from a snapshot stream.
    pub fn load_from<R: Read>(r: &mut R, pool: &ThreadPool) -> io::Result<Engine> {
        Snapshot::read_from(r)?
            .restore(pool)
            .map_err(|e| bad(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::rng::SplitMix64;

    fn sample_engine(pool: &ThreadPool) -> Engine {
        let params = PlshParams::builder(64)
            .k(6)
            .m(6)
            .radius(0.9)
            .seed(77)
            .build()
            .unwrap();
        let e = Engine::new(
            EngineConfig::new(params, 500).manual_merge().with_eta(0.2),
            pool,
        )
        .unwrap();
        let mut rng = SplitMix64::new(5);
        let mut vs = Vec::new();
        for _ in 0..80 {
            let a = rng.next_below(64) as u32;
            let b = (a + 1 + rng.next_below(63) as u32) % 64;
            vs.push(SparseVector::unit(vec![(a, 1.0), (b, rng.next_f64() as f32 + 0.1)]).unwrap());
        }
        e.insert_batch(&vs[..50], pool).unwrap();
        e.merge_delta(pool);
        e.insert_batch(&vs[50..], pool).unwrap(); // stays in delta
        e.delete(7);
        e.delete(65);
        e
    }

    #[test]
    fn snapshot_round_trips_bytes() {
        let pool = ThreadPool::new(1);
        let engine = sample_engine(&pool);
        let snap = Snapshot::capture(&engine);
        let mut bytes = Vec::new();
        snap.write_to(&mut bytes).unwrap();
        let back = Snapshot::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn restored_engine_answers_identically() {
        let pool = ThreadPool::new(1);
        let engine = sample_engine(&pool);
        let mut bytes = Vec::new();
        engine.save_to(&mut bytes).unwrap();
        let restored = Engine::load_from(&mut bytes.as_slice(), &pool).unwrap();

        assert_eq!(restored.len(), engine.len());
        assert_eq!(restored.static_len(), engine.static_len());
        assert_eq!(restored.delta_len(), engine.delta_len());
        assert_eq!(
            restored.stats().deleted_points,
            engine.stats().deleted_points
        );
        for id in 0..engine.len() as u32 {
            let q = engine.vector(id).expect("no id was purged");
            let mut a: Vec<u32> = engine.query(&q).iter().map(|h| h.index).collect();
            let mut b: Vec<u32> = restored.query(&q).iter().map(|h| h.index).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "answers diverged for point {id}");
        }
    }

    #[test]
    fn purged_tombstones_round_trip() {
        let pool = ThreadPool::new(1);
        let engine = sample_engine(&pool);
        // Merge everything: both tombstones (7 static, 65 delta) get
        // purged; then tombstone one more point whose delete stays pending.
        engine.merge_delta(&pool);
        engine.delete(20);
        assert_eq!(engine.stats().purged_points, 2);

        let snap = Snapshot::capture(&engine);
        assert_eq!(snap.purged, vec![7, 65]);
        assert_eq!(snap.deleted, vec![20]);
        let mut bytes = Vec::new();
        snap.write_to(&mut bytes).unwrap();
        let restored = Snapshot::read_from(&mut bytes.as_slice())
            .unwrap()
            .restore(&pool)
            .unwrap();
        assert_eq!(restored.stats().purged_points, engine.stats().purged_points);
        assert_eq!(
            restored.stats().deleted_points,
            engine.stats().deleted_points
        );
        for id in [7u32, 65, 20] {
            assert!(restored.is_deleted(id));
            // Purged ids no longer hand out their (retired) rows; the
            // snapshot still carries them, so probe with those.
            if snap.purged.contains(&id) {
                assert_eq!(engine.vector(id), None);
            }
            let q = snap.vectors[id as usize].clone();
            assert!(restored.query(&q).iter().all(|h| h.index != id));
        }
    }

    #[test]
    fn empty_engine_round_trips() {
        let pool = ThreadPool::new(1);
        let params = PlshParams::builder(16)
            .k(4)
            .m(4)
            .radius(0.9)
            .seed(1)
            .build()
            .unwrap();
        let engine = Engine::new(EngineConfig::new(params, 10), &pool).unwrap();
        let mut bytes = Vec::new();
        engine.save_to(&mut bytes).unwrap();
        let restored = Engine::load_from(&mut bytes.as_slice(), &pool).unwrap();
        assert!(restored.is_empty());
    }

    #[test]
    fn corrupt_streams_are_rejected() {
        let pool = ThreadPool::new(1);
        let engine = sample_engine(&pool);
        let mut bytes = Vec::new();
        engine.save_to(&mut bytes).unwrap();

        // Bad magic.
        let mut junk = bytes.clone();
        junk[0] = b'X';
        assert!(Snapshot::read_from(&mut junk.as_slice()).is_err());

        // Bad version.
        let mut junk = bytes.clone();
        junk[4] = 99;
        assert!(Snapshot::read_from(&mut junk.as_slice()).is_err());

        // Truncation at every prefix must error, never panic.
        for cut in [5usize, 20, 60, bytes.len() - 3] {
            let mut slice = &bytes[..cut];
            assert!(Snapshot::read_from(&mut slice).is_err(), "cut at {cut}");
        }

        // A flipped byte inside a stored value, or inside a stored
        // dimension index where the row stays sorted and in range, still
        // parses as a valid row: only the checksum can catch it.
        let snap = Snapshot::capture(&engine);
        let (row, last) = snap
            .vectors
            .iter()
            .find_map(|v| {
                let last = v.nnz() - 1;
                (last > 0 && v.indices()[last] ^ 1 > v.indices()[last - 1]).then_some((v, last))
            })
            .expect("some row survives an index flip");
        let mut stored = (row.nnz() as u32).to_le_bytes().to_vec();
        for &d in row.indices() {
            stored.extend_from_slice(&d.to_le_bytes());
        }
        for &x in row.values() {
            stored.extend_from_slice(&x.to_le_bytes());
        }
        let at = bytes
            .windows(stored.len())
            .position(|w| w == stored)
            .expect("rows are stored verbatim");
        let value_byte = at + 4 + 4 * row.nnz();
        let index_byte = at + 4 + 4 * last;
        for byte in [value_byte, index_byte] {
            let mut junk = bytes.clone();
            junk[byte] ^= 1;
            assert!(
                Snapshot::read_from(&mut junk.as_slice()).is_err(),
                "flipped byte {byte} loaded"
            );
        }

        // A stream of the pre-packed v3 layout is refused by name.
        let mut v3 = bytes.clone();
        v3[4] = 3;
        let err = Snapshot::read_from(&mut v3.as_slice()).unwrap_err();
        assert!(err.to_string().contains("unsupported snapshot version 3"));
    }

    #[test]
    fn tombstone_out_of_range_is_rejected() {
        let pool = ThreadPool::new(1);
        let engine = sample_engine(&pool);
        let mut snap = Snapshot::capture(&engine);
        snap.deleted.push(10_000);
        let mut bytes = Vec::new();
        snap.write_to(&mut bytes).unwrap();
        assert!(Snapshot::read_from(&mut bytes.as_slice()).is_err());
    }
}
