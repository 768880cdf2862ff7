//! Crash-recovery property: cut the power after *any* persistence
//! operation — mid-WAL-append, between a segment rename and its WAL
//! retirement, halfway through a manifest swap — and recovery must come
//! back with an exact prefix of the ingested rows, a subset of the issued
//! tombstones, and answers bit-identical to a from-scratch build over
//! that prefix. Exercised exhaustively for a single engine (every cut
//! point `k` in the scripted run) and sampled for a sharded index, plus
//! hand-made corruption: torn WAL tails at arbitrary byte offsets, a
//! deleted generation segment, and a trashed manifest.
//!
//! A last property ties the two durable images together: a snapshot is a
//! packed persist baseline, so restoring `save_to` of an index and
//! recovering its journaled directory land on the same engine.
//!
//! Power cuts are injected through `plsh::core::persist::fail`, which
//! tears the k-th low-level persistence op under the armed directory and
//! freezes that directory after it. I/O elsewhere stays live, so tests
//! that only journal run freely; the process has one arm slot, so every
//! arming test here serializes on [`FAIL_GUARD`].

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use proptest::prelude::*;

use plsh::core::engine::{Engine, EngineConfig};
use plsh::core::persist::{self, fail};
use plsh::core::rng::SplitMix64;
use plsh::core::{PlshParams, SparseVector};
use plsh::parallel::ThreadPool;
use plsh::{Index, SearchRequest, ShardedIndex, WindowSpec};

/// Serializes the tests that arm the fail injector (one arm slot per process).
static FAIL_GUARD: Mutex<()> = Mutex::new(());

const DIM: u32 = 32;
const CAPACITY: usize = 400;

fn params(seed: u64) -> PlshParams {
    PlshParams::builder(DIM)
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
            let a = rng.next_below(DIM as u64) as u32;
            let b = (a + 1 + rng.next_below(DIM as u64 - 1) as u32) % DIM;
            SparseVector::unit(vec![(a, 1.0), (b, rng.next_f64() as f32 + 0.1)]).unwrap()
        })
        .collect()
}

fn tempdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("plsh-{}-{}", tag, std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// Canonical answer form: per query, sorted `(id, distance-bits)`.
fn engine_answers(e: &Engine, qs: &[SparseVector]) -> Vec<Vec<(u32, u32)>> {
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

/// From-scratch reference over a recovered prefix: bulk insert, merge,
/// then the recovered tombstones. Recovery promises bit-identical
/// answers to this build, whatever segment/WAL/manifest state the cut
/// left behind.
fn scratch_engine(rows: &[SparseVector], tombstones: &[u32], pool: &ThreadPool) -> Engine {
    let engine = Engine::new(EngineConfig::new(params(3), CAPACITY).manual_merge(), pool).unwrap();
    if !rows.is_empty() {
        engine.insert_batch(rows, pool).unwrap();
    }
    engine.merge_delta(pool);
    for &id in tombstones {
        engine.delete(id);
    }
    engine
}

/// Scripted engine life: a baseline, open-generation WAL traffic, seals,
/// deletes, and two merges (static segment + manifest swap + generation
/// retirement). Every persistence-op boundary inside this script is a
/// crash point the k-loop below must survive.
const SCRIPT_DELETES: [u32; 3] = [3, 30, 55];

/// Builds the engine and writes its (empty) durable baseline. Runs
/// before the injector arms: the crash window under test is the life of
/// a journaling index, not its very first `persist_to` (a cut there
/// leaves no manifest, which is the clean refuse-to-recover case covered
/// by [`a_trashed_manifest_is_a_clean_error_not_a_panic`]).
fn setup_engine(dir: &Path, pool: &ThreadPool) -> Engine {
    let engine = Engine::new(
        EngineConfig::new(params(3), CAPACITY)
            .manual_merge()
            .with_seal_min_points(8),
        pool,
    )
    .unwrap();
    engine.persist_to(dir).unwrap();
    engine
}

/// Scripted mutations, every persistence-op boundary of which is a crash
/// point: open-generation WAL traffic, seals, deletes, and two merges
/// (static segment + manifest swap + generation retirement).
fn run_script(engine: &Engine, vs: &[SparseVector], pool: &ThreadPool) {
    engine.insert_batch(&vs[..10], pool).unwrap();
    engine.insert_batch(&vs[10..25], pool).unwrap();
    engine.delete(SCRIPT_DELETES[0]);
    engine.seal();
    engine.insert_batch(&vs[25..40], pool).unwrap();
    engine.merge_delta(pool);
    engine.delete(SCRIPT_DELETES[1]);
    engine.insert_batch(&vs[40..60], pool).unwrap();
    engine.seal();
    // Small chunks stay in the open generation: WAL-only at the cut.
    for chunk in vs[60..74].chunks(7) {
        engine.insert_batch(chunk, pool).unwrap();
    }
    engine.delete(SCRIPT_DELETES[2]);
    engine.merge_delta(pool);
    engine.insert_batch(&vs[74..80], pool).unwrap();
}

#[test]
fn recovery_survives_a_power_cut_after_every_operation() {
    let _g = FAIL_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let pool = ThreadPool::new(1);
    let vs = vectors(80, 17);

    // Dry run with an unlimited budget counts the script's op total.
    let dir = tempdir("crash-count");
    let engine = setup_engine(&dir, &pool);
    fail::arm(&dir, i64::MAX);
    run_script(&engine, &vs, &pool);
    drop(engine);
    fail::disarm();
    let total = fail::ops_used();
    let _ = fs::remove_dir_all(&dir);
    assert!(
        total > 40,
        "script must span many persistence ops to be interesting, got {total}"
    );

    for k in 0..=total {
        let dir = tempdir("crash-k");
        let engine = setup_engine(&dir, &pool);
        fail::arm(&dir, k as i64);
        run_script(&engine, &vs, &pool);
        drop(engine);
        fail::disarm();

        // Inspect the frozen directory read-only first: the durable rows
        // must be an exact prefix of the ingested order, the durable
        // tombstones a subset of the issued ones.
        let st = persist::load_state(&dir)
            .unwrap_or_else(|e| panic!("cut after op {k}: recovery refused: {e}"));
        let rows = st.all_rows();
        assert_eq!(
            rows,
            &vs[..st.total()],
            "cut after op {k}: recovered rows are not an ingest prefix"
        );
        let tombstones = st.tombstones();
        for id in &tombstones {
            assert!(
                SCRIPT_DELETES.contains(id),
                "cut after op {k}: phantom tombstone {id}"
            );
        }

        // Full recovery answers like a from-scratch build over the prefix.
        let back = Engine::recover_from(&dir, &pool)
            .unwrap_or_else(|e| panic!("cut after op {k}: recovery failed: {e}"));
        assert_eq!(back.len(), rows.len());
        let scratch = scratch_engine(&rows, &tombstones, &pool);
        assert_eq!(
            engine_answers(&back, &vs),
            engine_answers(&scratch, &vs),
            "cut after op {k}: recovered answers diverge from a from-scratch build"
        );
        drop(back);
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Locates the single file under `dir/data-0` matching `prefix`/`suffix`.
fn find_data_file(dir: &Path, prefix: &str, suffix: &str) -> PathBuf {
    let mut hits: Vec<PathBuf> = fs::read_dir(dir.join("data-0"))
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            name.starts_with(prefix) && name.ends_with(suffix)
        })
        .collect();
    hits.sort();
    assert!(!hits.is_empty(), "no {prefix}*{suffix} under {dir:?}");
    hits.remove(0)
}

#[test]
fn a_wal_truncated_at_any_byte_recovers_the_whole_records() {
    let dir = tempdir("crash-trunc");
    let pool = ThreadPool::new(1);
    let vs = vectors(40, 5);
    let engine = Engine::new(
        EngineConfig::new(params(3), CAPACITY)
            .manual_merge()
            .with_seal_min_points(64),
        &pool,
    )
    .unwrap();
    engine.persist_to(&dir).unwrap();
    for chunk in vs.chunks(8) {
        engine.insert_batch(chunk, &pool).unwrap();
    }
    drop(engine);

    let wal = find_data_file(&dir, "wal-", ".log");
    let bytes = fs::read(&wal).unwrap();
    let mut lengths = Vec::new();
    for cut in (0..=bytes.len()).rev().step_by(13) {
        fs::write(&wal, &bytes[..cut]).unwrap();
        let st = persist::load_state(&dir).unwrap();
        // Whole 8-row records survive; the torn tail is dropped silently.
        assert_eq!(
            st.total() % 8,
            0,
            "cut at byte {cut} recovered a torn record"
        );
        assert!(st.total() <= vs.len());
        assert_eq!(st.all_rows(), &vs[..st.total()]);
        let back = persist::rebuild_engine(&st, None, &pool).unwrap();
        assert_eq!(back.len(), st.total());
        lengths.push(st.total());
    }
    assert_eq!(
        lengths.first(),
        Some(&vs.len()),
        "uncut WAL recovers everything"
    );
    assert_eq!(lengths.last(), Some(&0), "empty WAL recovers nothing");
    assert!(
        lengths.windows(2).all(|w| w[0] >= w[1]),
        "shorter WALs can only recover less: {lengths:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_missing_generation_segment_truncates_to_the_gap() {
    let dir = tempdir("crash-gap");
    let pool = ThreadPool::new(1);
    let vs = vectors(45, 7);
    let engine = Engine::new(
        EngineConfig::new(params(3), CAPACITY)
            .manual_merge()
            .with_seal_min_points(1),
        &pool,
    )
    .unwrap();
    engine.persist_to(&dir).unwrap();
    for chunk in vs[..30].chunks(10) {
        engine.insert_batch(chunk, &pool).unwrap();
        engine.seal();
    }
    drop(engine);

    // Externally destroy the middle segment: ids 10..20 are gone, so the
    // recoverable prefix ends at the gap — the intact gen-20 segment
    // behind it is an orphan and must not resurrect out-of-order rows.
    fs::remove_file(dir.join("data-0").join("gen-10.seg")).unwrap();
    let st = persist::load_state(&dir).unwrap();
    assert_eq!(st.total(), 10, "recovery must stop at the id-space gap");
    assert_eq!(st.all_rows(), &vs[..10]);

    // Recovery keeps journaling: the orphan is GC'd on attach, and new
    // rows take over the freed id range cleanly.
    let back = Engine::recover_from(&dir, &pool).unwrap();
    assert_eq!(back.len(), 10);
    back.insert_batch(&vs[30..45], &pool).unwrap();
    back.seal();
    drop(back);
    let again = Engine::recover_from(&dir, &pool).unwrap();
    assert_eq!(again.len(), 25);
    let expect: Vec<SparseVector> = vs[..10].iter().chain(&vs[30..45]).cloned().collect();
    let scratch = scratch_engine(&expect, &[], &pool);
    assert_eq!(
        engine_answers(&again, &vs),
        engine_answers(&scratch, &vs),
        "post-gap journaling diverged from a from-scratch build"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_trashed_manifest_is_a_clean_error_not_a_panic() {
    let dir = tempdir("crash-manifest");
    let pool = ThreadPool::new(1);
    let vs = vectors(20, 9);
    let engine = Engine::new(EngineConfig::new(params(3), CAPACITY).manual_merge(), &pool).unwrap();
    engine.persist_to(&dir).unwrap();
    engine.insert_batch(&vs, &pool).unwrap();
    drop(engine);

    let manifest = dir.join("MANIFEST");
    let good = fs::read(&manifest).unwrap();
    // Bit-flipped checksum, truncation, wrong magic, empty file: all must
    // refuse recovery with an error, never a panic or a silent zero-row
    // "success".
    let mut flipped = good.clone();
    *flipped.last_mut().unwrap() ^= 0xff;
    let cases: Vec<Vec<u8>> = vec![
        flipped,
        good[..good.len() / 2].to_vec(),
        b"JUNKJUNKJUNK".to_vec(),
        Vec::new(),
    ];
    for (i, bad) in cases.iter().enumerate() {
        fs::write(&manifest, bad).unwrap();
        assert!(
            persist::load_state(&dir).is_err(),
            "corrupt manifest case {i} was accepted"
        );
        assert!(Engine::recover_from(&dir, &pool).is_err());
    }
    // The pristine manifest still recovers everything.
    fs::write(&manifest, &good).unwrap();
    assert_eq!(Engine::recover_from(&dir, &pool).unwrap().len(), vs.len());
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Sharded: the cut hits three engines at once, each at a different point
// in its own WAL/segment/manifest lifecycle. Recovery truncates to the
// longest globally contiguous id prefix. Sampled rather than exhaustive —
// ingest workers interleave persistence ops nondeterministically, so k
// indexes "some interleaving", and every sampled cut must still satisfy
// the prefix/tombstone/answer contract.
// ---------------------------------------------------------------------

const SHARDS: usize = 3;
const SHARDED_DELETES: [u32; 3] = [5, 40, 77];

/// Builds the sharded index and its durable baseline (cluster manifest +
/// three empty shard directories) before the injector arms — same crash
/// model as the single-engine loop.
fn setup_sharded(dir: &Path) -> ShardedIndex {
    let index = ShardedIndex::builder(
        EngineConfig::new(params(3), CAPACITY)
            .manual_merge()
            .with_seal_min_points(8),
    )
    .shards(SHARDS)
    .threads(2)
    .build()
    .unwrap();
    index.persist_to(dir).unwrap();
    index
}

fn run_sharded_script(index: &ShardedIndex, vs: &[SparseVector]) {
    for chunk in vs[..60].chunks(16) {
        index.insert_batch(chunk).unwrap();
    }
    let _ = index.delete(SHARDED_DELETES[0]);
    index.flush().unwrap();
    index.merge_all_in_background();
    index.quiesce().unwrap();
    let _ = index.delete(SHARDED_DELETES[1]);
    for chunk in vs[60..120].chunks(9) {
        index.insert_batch(chunk).unwrap();
    }
    let _ = index.delete(SHARDED_DELETES[2]);
    index.flush().unwrap();
}

fn sharded_answers(index: &ShardedIndex, qs: &[SparseVector]) -> Vec<Vec<(u32, u32)>> {
    qs.iter()
        .map(|q| {
            let resp = index.search(&SearchRequest::query(q.clone())).unwrap();
            let mut hits: Vec<(u32, u32)> = resp
                .hits()
                .iter()
                .map(|h| (h.index, h.distance.to_bits()))
                .collect();
            hits.sort_unstable();
            hits
        })
        .collect()
}

#[test]
fn sharded_recovery_survives_sampled_power_cuts() {
    let _g = FAIL_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let pool = ThreadPool::new(1);
    let vs = vectors(120, 23);

    let dir = tempdir("crash-shard-count");
    let index = setup_sharded(&dir);
    fail::arm(&dir, i64::MAX);
    run_sharded_script(&index, &vs);
    drop(index);
    fail::disarm();
    let total = fail::ops_used();
    let _ = fs::remove_dir_all(&dir);
    assert!(total > 60, "sharded script too small: {total} ops");

    let step = (total / 12).max(1);
    for k in (0..=total).step_by(step as usize) {
        let dir = tempdir("crash-shard-k");
        let index = setup_sharded(&dir);
        fail::arm(&dir, k as i64);
        run_sharded_script(&index, &vs);
        drop(index);
        fail::disarm();

        let back = ShardedIndex::recover_from(&dir)
            .unwrap_or_else(|e| panic!("sharded cut after op {k}: recovery failed: {e}"));
        let t = back.len();
        assert!(t <= vs.len());

        // The flattened snapshot exposes exactly what survived: rows must
        // be the global ingest prefix, tombstones a subset of the issued
        // deletes.
        let snap = back.snapshot();
        assert_eq!(
            snap.vectors,
            &vs[..t],
            "sharded cut after op {k}: recovered rows are not a global prefix"
        );
        let mut tombstones: Vec<u32> = snap.deleted.iter().chain(&snap.purged).copied().collect();
        tombstones.sort_unstable();
        tombstones.dedup();
        for id in &tombstones {
            assert!(
                SHARDED_DELETES.contains(id),
                "sharded cut after op {k}: phantom tombstone {id}"
            );
        }

        // Sharded ≡ single engine over the same rows, recovered or not.
        let scratch = scratch_engine(&vs[..t], &tombstones, &pool);
        assert_eq!(
            sharded_answers(&back, &vs),
            engine_answers(&scratch, &vs),
            "sharded cut after op {k}: answers diverge from a from-scratch build"
        );
        drop(back);
        let _ = fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// Snapshot ≡ recovery. Both images of one index — the `save_to` stream
// and the journaled directory — rebuild through the same code, so they
// must agree on every answer and every count, whatever the index's life.
// ---------------------------------------------------------------------

/// One step of a journaled index's life. `Delete` carries an offset into
/// the ids assigned so far, `Retire` how far to push the watermark.
#[derive(Debug, Clone)]
enum LifeOp {
    Insert(usize),
    Delete(usize),
    Merge,
    Retire(u32),
}

fn life_op() -> impl Strategy<Value = LifeOp> {
    prop_oneof![
        4 => (1usize..=12).prop_map(LifeOp::Insert),
        2 => (0usize..64).prop_map(LifeOp::Delete),
        2 => Just(LifeOp::Merge),
        1 => (1u32..16).prop_map(LifeOp::Retire),
    ]
}

/// Copies a (quiescent) index directory tree.
fn copy_dir(from: &Path, to: &Path) {
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap().flatten() {
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// Canonical answer form through the facade: per query, sorted
/// `(id, distance-bits)`.
fn index_answers(index: &Index, qs: &[SparseVector]) -> Vec<Vec<(u32, u32)>> {
    qs.iter()
        .map(|q| {
            let mut hits: Vec<(u32, u32)> = index
                .query(q)
                .unwrap()
                .iter()
                .map(|h| (h.index, h.distance.to_bits()))
                .collect();
            hits.sort_unstable();
            hits
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the interleaving of inserts, deletes, merges and
    /// retirements — with or without a window, with coalesced seals —
    /// `restore_from(save_to(x))` and `recover_from(dir)` of the same
    /// index answer bit-identically to it and to each other, and agree on
    /// the epoch's visible/retired counts and the purge accounting.
    #[test]
    fn snapshot_restore_matches_directory_recovery(
        seed in 0u64..1_000,
        window in 0u32..64,
        seal_min_points in 1usize..6,
        ops in proptest::collection::vec(life_op(), 4..24),
    ) {
        let total_docs: usize = ops
            .iter()
            .map(|op| if let LifeOp::Insert(n) = op { *n } else { 0 })
            .sum();
        // Without merges the resident span equals the ingest total.
        prop_assume!(total_docs < CAPACITY);
        let vs = vectors(total_docs.max(1), seed ^ 0x51A9);

        let mut builder = Index::builder(params(3))
            .capacity(CAPACITY)
            .threads(1)
            .manual_merge()
            .seal_min_points(seal_min_points);
        // Small draws run windowless.
        if window >= 8 {
            builder = builder.with_window(WindowSpec::Docs(window));
        }
        let index = builder.build().unwrap();
        let dir = tempdir("snapshot-vs-dir");
        index.persist_to(&dir).unwrap();
        let mut next = 0usize;
        for op in &ops {
            match *op {
                LifeOp::Insert(n) => {
                    index.add_batch(&vs[next..next + n]).unwrap();
                    next += n;
                }
                LifeOp::Delete(off) => {
                    if next > 0 {
                        index.delete((off % next) as u32).unwrap();
                    }
                }
                LifeOp::Merge => index.merge().unwrap(),
                LifeOp::Retire(step) => {
                    let engine = index.backend().unwrap().engine();
                    engine.retire_to(engine.retired_below() + step).unwrap();
                }
            }
        }
        // Both images hold the open generation, which comes back sealed:
        // freeze the directory before the original seals it too.
        let mut bytes = Vec::new();
        index.save_to(&mut bytes).unwrap();
        let image = tempdir("snapshot-vs-dir-image");
        copy_dir(&dir, &image);
        index.flush().unwrap();
        let want = index_answers(&index, &vs);
        drop(index);

        let restored = Index::restore_from(&mut bytes.as_slice()).unwrap();
        let recovered = Index::recover_from(&image).unwrap();
        let got = index_answers(&restored, &vs);
        prop_assert_eq!(&got, &index_answers(&recovered, &vs));
        prop_assert_eq!(&got, &want);
        let (a, b) = (restored.epoch_info(), recovered.epoch_info());
        prop_assert_eq!(
            (a.visible_points, a.retired_below),
            (b.visible_points, b.retired_below)
        );
        let (a, b) = (restored.stats(), recovered.stats());
        prop_assert_eq!(
            (a.purged_points, a.deleted_points),
            (b.purged_points, b.deleted_points)
        );
        drop(recovered);
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&image);
    }
}
