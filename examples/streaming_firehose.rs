//! Querying *while* the firehose streams in (Figure 1 end-to-end).
//!
//! Part 1 — the concurrent single-node path: a paced producer thread
//! pushes tweet batches through a bounded channel, an ingest thread pumps
//! them into a [`plsh::Index`] (hash → seal → background merge at `η·C`),
//! and the main thread keeps answering the same [`SearchRequest`] the
//! whole time. Every answer comes from one pinned epoch — the index never
//! shows a half-merged state — and merge publication is a single pointer
//! swap.
//!
//! Part 2 — the cluster path: the same firehose drives a hash-routed
//! [`ShardedIndex`] with a sliding window of the newest `WINDOW` tweets;
//! every insert past the window retires the oldest tweets exactly, as one
//! consistent cut across all shards. The coordinator answers the *same*
//! `SearchRequest` type as the single node.
//!
//! ```text
//! cargo run --release --example streaming_firehose
//! ```

use plsh::cluster::firehose::Firehose;
use plsh::core::EngineConfig;
use plsh::workload::{CorpusConfig, QuerySet, SyntheticCorpus};
use plsh::{Index, PlshParams, SearchRequest, ShardedIndex, WindowSpec};

fn main() -> plsh::Result<()> {
    const NODES: usize = 4;
    const NODE_CAPACITY: usize = 5_000;
    // A quarter of the cluster capacity: the rest is headroom for the
    // un-merged deltas and for retired rows awaiting their shard's next
    // compacting merge.
    const WINDOW: usize = NODES * NODE_CAPACITY / 4;

    // 1.5x the cluster capacity, so retirement must kick in.
    let corpus = SyntheticCorpus::generate(CorpusConfig {
        num_docs: NODES * NODE_CAPACITY * 3 / 2,
        vocab_size: 20_000,
        mean_words: 7.2,
        zipf_exponent: 1.0,
        duplicate_fraction: 0.2,
        seed: 99,
    });
    let queries = QuerySet::sample_from_corpus(&corpus, 50, 7);
    let query_req = SearchRequest::batch(queries.queries().to_vec()).with_stats();
    let params = PlshParams::builder(corpus.dim())
        .k(10)
        .m(12)
        .radius(0.9)
        .seed(11)
        .build()?;

    // ---- Part 1: one node, true insert ‖ query ‖ merge overlap. ----
    println!("== single node: concurrent ingest + queries ==");
    let node_points = corpus.len() / 2;
    let index = Index::builder(params.clone())
        .capacity(node_points)
        .eta(0.1)
        .build()?;

    // Twitter-style paced arrival, pumped by a dedicated ingest thread
    // (the pump drives the index's underlying streaming handle).
    let rate = node_points as f64 / 3.0; // drain in ~3 s
    let hose = Firehose::start_paced(corpus.vectors()[..node_points].to_vec(), 1_000, 4, rate);
    let pump = hose.pump_into(
        index
            .backend()
            .expect("single-node index exposes its streaming handle")
            .clone(),
    );

    // Main thread: query continuously against whatever epoch is live.
    let start = std::time::Instant::now();
    let mut batches = 0u64;
    while !pump.is_finished() {
        let resp = index.search(&query_req)?;
        batches += 1;
        if batches % 32 == 1 {
            let info = resp.epoch.expect("single-node responses pin an epoch");
            assert_eq!(
                info.visible_points,
                info.static_points + info.sealed_points,
                "epochs are never half-merged"
            );
            println!(
                "t={:>6.2?}  visible {:>6} (static {:>6} + {} sealed gens)  epoch #{:<4}  \
                 query batch {:>7.1?}  {} matches",
                start.elapsed(),
                info.visible_points,
                info.static_points,
                info.sealed_generations,
                info.generation,
                resp.stats.expect("stats requested").elapsed,
                resp.total_hits(),
            );
        }
    }
    let ingest = pump.join();
    index.flush()?;
    let merge = index.last_merge();
    println!(
        "ingested {} points at {:.0}/s on the ingest thread; {} merges \
         (last: build {:.1} ms off to the side, publish {:.3} ms); {} query batches ran alongside",
        ingest.points,
        ingest.insert_qps(),
        index.stats().merges,
        merge.build.as_secs_f64() * 1e3,
        merge.publish.as_secs_f64() * 1e3,
        batches,
    );
    let probe = corpus.vector((node_points - 1) as u32);
    assert!(
        index
            .query(probe)?
            .iter()
            .any(|h| h.index == (node_points - 1) as u32),
        "newest tweet must be findable"
    );

    // ---- Part 2: the cluster with a sliding window. ----
    println!("\n== cluster: sliding window + retirement ==");
    let cluster = ShardedIndex::builder(
        EngineConfig::new(params, NODE_CAPACITY)
            .with_eta(0.1)
            .with_window(WindowSpec::Docs(WINDOW as u32)),
    )
    .shards(NODES)
    .build()
    .map_err(plsh::Error::from)?;

    // Paced like Part 1, so each shard's background merges keep
    // reclaiming retired rows as fast as the stream retires them.
    let rate = corpus.len() as f64 / 3.0;
    let hose = Firehose::start_paced(corpus.vectors().to_vec(), 1_000, 4, rate);
    let start = std::time::Instant::now();
    let mut ingested = 0usize;
    while let Some(batch) = hose.next_batch() {
        ingested += batch.docs.len();
        cluster
            .insert_batch(&batch.docs)
            .map_err(plsh::Error::from)?;
        // Interleave a query burst every few batches, as a live system
        // would see. The coordinator answers the exact same request type
        // as the single node.
        if batch.seq % 5 == 4 {
            let resp = cluster.search(&query_req)?;
            println!(
                "t={:>6.2?}  ingested {:>6}  live {:>6}  retired below #{:<6}  query batch {:>6.1?}  {} matches",
                start.elapsed(),
                ingested,
                cluster.health().live_points,
                cluster.retired_below(),
                resp.stats.expect("stats requested").elapsed,
                resp.total_hits(),
            );
        }
    }
    cluster.flush().map_err(plsh::Error::from)?;

    let live = cluster.health().live_points;
    println!("\nfinal state after {} tweets:", ingested);
    println!(
        "  {} live of {} capacity across {} shards; everything below #{} retired",
        live,
        NODES * NODE_CAPACITY,
        NODES,
        cluster.retired_below()
    );
    assert_eq!(
        live, WINDOW,
        "exactly the window's worth of tweets stays live"
    );
    // The newest tweet must be findable; the oldest must be gone. Global
    // ids follow arrival order, so tweet `i` of the corpus is id `i`.
    let newest = (corpus.len() - 1) as u32;
    let found = cluster.search(&SearchRequest::query(corpus.vector(newest).clone()))?;
    let hit = found
        .hits()
        .iter()
        .find(|h| h.index == newest)
        .expect("newest tweet must be indexed");
    println!("  newest tweet #{newest} found on shard {}", hit.node);
    let oldest = cluster.search(&SearchRequest::query(corpus.vector(0).clone()))?;
    assert!(
        oldest.hits().iter().all(|h| h.index != 0) && cluster.vector(0).is_none(),
        "oldest tweet must be retired"
    );
    println!("  oldest tweet #0 retired");
    Ok(())
}
