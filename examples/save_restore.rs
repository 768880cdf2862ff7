//! Snapshot persistence: save a live index to bytes and restore it.
//!
//! Warm restarts matter for an in-memory index. A snapshot is the index's
//! durable image packed into one checksummed stream — the same manifest
//! and segments `persist_to` keeps on disk: parameters, merge policy,
//! sliding window, rows, static/delta split and tombstones. Hashes and
//! tables are rebuilt deterministically from the stored seed on load,
//! exactly as `recover_from` rebuilds a directory, so the restored index
//! answers identically and keeps the original's η, `seal_min_points` and
//! window.
//!
//! ```text
//! cargo run --release --example save_restore
//! ```

use plsh::workload::{CorpusConfig, SyntheticCorpus};
use plsh::{Index, PlshParams};

fn main() -> plsh::Result<()> {
    let corpus = SyntheticCorpus::generate(CorpusConfig {
        num_docs: 5_000,
        vocab_size: 8_000,
        mean_words: 7.2,
        zipf_exponent: 1.0,
        duplicate_fraction: 0.2,
        seed: 31,
    });
    let params = PlshParams::builder(corpus.dim())
        .k(10)
        .m(10)
        .radius(0.9)
        .seed(8)
        .build()?;

    // An index mid-life: most data static, a little in the delta, one
    // delete.
    let index = Index::builder(params)
        .capacity(corpus.len())
        .manual_merge()
        .build()?;
    index.add_batch(&corpus.vectors()[..4_500])?;
    index.merge()?;
    index.add_batch(&corpus.vectors()[4_500..])?;
    index.delete(42)?;
    let stats = index.stats();
    println!(
        "live index: {} points ({} static, {} delta, {} deleted)",
        index.len(),
        stats.static_points,
        stats.delta_points,
        stats.deleted_points
    );

    // Save (here to memory; any Write works — a file, a socket, ...). The
    // static prefix lands in one segment, the delta suffix in another.
    let mut bytes = Vec::new();
    index.save_to(&mut bytes)?;
    println!(
        "snapshot: {} bytes ({:.1} bytes/point)",
        bytes.len(),
        bytes.len() as f64 / index.len() as f64
    );

    // Restore and verify equivalence on a query sample. The static/delta
    // split comes back as saved: the delta is one sealed generation.
    let restored = Index::restore_from(&mut bytes.as_slice())?;
    assert_eq!(restored.len(), index.len());
    assert_eq!(restored.stats().static_points, stats.static_points);
    let mut checked = 0;
    for id in (0..corpus.len() as u32).step_by(97) {
        let q = corpus.vector(id);
        let mut a: Vec<u32> = index.query(q)?.iter().map(|h| h.index).collect();
        let mut b: Vec<u32> = restored.query(q)?.iter().map(|h| h.index).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "answers diverged for probe {id}");
        checked += 1;
    }
    println!("restored index matches the original on {checked} probe queries");
    Ok(())
}
