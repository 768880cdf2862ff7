//! Backend equivalence: the whole point of the unified search API is that
//! [`Engine`], [`StreamingEngine`] (mid-ingest, merge in flight), and a
//! [`ShardedIndex`] at several shard counts answer the
//! *exact same* [`SearchRequest`] with the *exact same* answer set — same
//! ids, same distances, bit for bit — regardless of how their data is
//! segmented across static tables, sealed delta generations, shards, or
//! in-flight background merges.
//!
//! Budgeted requests ([`SearchRequest::with_max_candidates`]) compare
//! bit-identically across the single-node backends; a sharded backend
//! divides the budget across its shards, so its answers are checked to be
//! budget-*honoring* instead — every hit a true hit and the aggregate
//! candidates examined within the global budget — since each shard
//! truncates its own ascending-id candidate prefix.

use plsh::core::engine::{Engine, EngineConfig};
use plsh::core::streaming::StreamingEngine;
use plsh::parallel::ThreadPool;
use plsh::workload::{CorpusConfig, QuerySet, SyntheticCorpus};
use plsh::{PlshParams, QueryStrategy, SearchBackend, SearchRequest, ShardedIndex};

const N: usize = 600;

fn corpus() -> SyntheticCorpus {
    SyntheticCorpus::generate(CorpusConfig {
        num_docs: N,
        vocab_size: 2_000,
        mean_words: 7.2,
        zipf_exponent: 1.0,
        duplicate_fraction: 0.25,
        seed: 424,
    })
}

fn params(dim: u32) -> PlshParams {
    PlshParams::builder(dim)
        .k(8)
        .m(8)
        .radius(0.9)
        .seed(17)
        .build()
        .unwrap()
}

/// Canonical answer form: per query, the sorted `(index, distance-bits)`
/// set. Node is asserted to be 0 everywhere (single node), so identical
/// answer sets really are identical.
fn answers<B: SearchBackend>(
    backend: &B,
    req: &SearchRequest,
    pool: &ThreadPool,
) -> Vec<Vec<(u32, u32)>> {
    let resp = backend.search(req, pool).expect("valid request");
    assert_eq!(resp.results.len(), req.queries().len());
    resp.results
        .iter()
        .map(|hits| {
            let mut set: Vec<(u32, u32)> = hits
                .iter()
                .map(|h| {
                    assert_eq!(h.node, 0, "every backend here is one node");
                    (h.index, h.distance.to_bits())
                })
                .collect();
            set.sort_unstable();
            set
        })
        .collect()
}

/// Canonical answer form for sharded backends: indexes are *global* ids
/// (bit-identical to the single engine's), while `node` carries the
/// owning-shard attribution and is therefore ignored here — after
/// checking it stays in range.
fn sharded_answers(
    backend: &ShardedIndex,
    req: &SearchRequest,
    pool: &ThreadPool,
) -> Vec<Vec<(u32, u32)>> {
    let resp = SearchBackend::search(backend, req, pool).expect("valid request");
    assert_eq!(resp.results.len(), req.queries().len());
    resp.results
        .iter()
        .map(|hits| {
            let mut set: Vec<(u32, u32)> = hits
                .iter()
                .map(|h| {
                    assert!(
                        (h.node as usize) < backend.num_shards(),
                        "hit attributed to nonexistent shard {}",
                        h.node
                    );
                    (h.index, h.distance.to_bits())
                })
                .collect();
            set.sort_unstable();
            set
        })
        .collect()
}

#[test]
fn all_backends_answer_identically() {
    let corpus = corpus();
    let params = params(corpus.dim());
    let pool = ThreadPool::new(2);

    // Engine: mixed static + sealed-delta segmentation.
    let engine = Engine::new(EngineConfig::new(params.clone(), N).manual_merge(), &pool).unwrap();
    engine
        .insert_batch(&corpus.vectors()[..400], &pool)
        .unwrap();
    engine.merge_delta(&pool);
    engine
        .insert_batch(&corpus.vectors()[400..], &pool)
        .unwrap();

    // StreamingEngine: chunked ingest with a background merge kicked off
    // and *not* awaited — requests run while the merge may be anywhere
    // between building and published.
    let streaming = StreamingEngine::new(
        EngineConfig::new(params.clone(), N)
            .with_eta(0.95)
            .manual_merge(),
        ThreadPool::new(2),
    )
    .unwrap();
    for chunk in corpus.vectors().chunks(64) {
        streaming.insert_batch(chunk).unwrap();
    }
    streaming.merge_in_background();

    // ShardedIndexes at several shard counts, *mid-ingest*: everything
    // routed and visible, then background merges kicked off on every
    // shard and *not* awaited — requests run while merges are anywhere
    // between building and published on multiple shards at once.
    let sharded: Vec<ShardedIndex> = [2usize, 3, 5]
        .into_iter()
        .map(|shards| {
            let s = ShardedIndex::builder(
                EngineConfig::new(params.clone(), N)
                    .with_eta(0.95)
                    .manual_merge(),
            )
            .shards(shards)
            .threads(2)
            .build()
            .unwrap();
            for chunk in corpus.vectors().chunks(64) {
                s.insert_batch(chunk).unwrap();
            }
            s.flush().unwrap();
            assert_eq!(
                s.merge_all_in_background(),
                shards,
                "every shard must have sealed data to merge"
            );
            s
        })
        .collect();

    let queries = QuerySet::sample_from_corpus(&corpus, 60, 9);
    let qs = queries.queries().to_vec();
    // (request, budgeted): budgeted requests divide the candidate budget
    // across shards, so sharded backends are held to budget-honoring
    // assertions instead of bit-identity.
    let requests = [
        // The batched SIMD pipeline (the default door).
        (SearchRequest::batch(qs.clone()), false),
        // Per-query pipeline with the weakest strategy level.
        (
            SearchRequest::batch(qs.clone())
                .per_query_pipeline()
                .with_strategy(QueryStrategy::unoptimized()),
            false,
        ),
        // Approximate k-NN with a global tie-break.
        (SearchRequest::batch(qs.clone()).top_k(7), false),
        // Per-request radius override.
        (SearchRequest::batch(qs.clone()).with_radius(1.2), false),
        // Bounded candidate budget: the visited prefix is the ascending-id
        // candidate order at *every* strategy level, so it is
        // segmentation-independent across single-node backends (and
        // per-shard on sharded ones — hence the flag).
        (
            SearchRequest::batch(qs.clone()).with_max_candidates(50),
            true,
        ),
        (
            SearchRequest::batch(qs.clone())
                .with_max_candidates(50)
                .with_strategy(QueryStrategy::with_sparse_dot()),
            true,
        ),
        (
            SearchRequest::batch(qs.clone())
                .with_max_candidates(50)
                .with_strategy(QueryStrategy::unoptimized()),
            true,
        ),
        // Stats + profiling switches must not change answers.
        (SearchRequest::batch(qs.clone()).with_profiling(), false),
        (SearchRequest::query(qs[0].clone()).with_stats(), false),
    ];

    let compare_all = |label: &str| {
        // The unbudgeted radius answer set: the ground truth budgeted
        // sharded hits must be a subset of.
        let full = answers(&engine, &requests[0].0, &pool);
        for (ri, (req, budgeted)) in requests.iter().enumerate() {
            let a = answers(&engine, req, &pool);
            let b = answers(&streaming, req, &pool);
            assert_eq!(
                a, b,
                "{label}: Engine vs StreamingEngine diverged on request {ri}"
            );
            if *budgeted {
                // The budget is divided across shards (floored at one per
                // shard), so a sharded backend's *selection* differs from
                // a single engine's; what must hold is that the budget is
                // honored globally: every hit is a true radius hit, and
                // the aggregate candidates examined stay within the
                // global budget.
                let budget = req.max_candidates().expect("budgeted request") as u64;
                for s in &sharded {
                    let got = sharded_answers(s, req, &pool);
                    for (qi, hits) in got.iter().enumerate() {
                        for hit in hits {
                            assert!(
                                full[qi].contains(hit),
                                "{label}: {}-shard budgeted hit {hit:?} for query {qi} \
                                 is not a true radius hit (request {ri})",
                                s.num_shards()
                            );
                        }
                    }
                    let resp = SearchBackend::search(s, &req.clone().with_stats(), &pool).unwrap();
                    let totals = resp.stats.expect("asked for stats").totals;
                    let cap = budget * req.queries().len() as u64;
                    assert!(
                        totals.distance_computations <= cap,
                        "{label}: {}-shard backend examined {} candidates, \
                         budget allows {cap} (request {ri})",
                        s.num_shards(),
                        totals.distance_computations
                    );
                }
                continue;
            }
            for s in &sharded {
                assert_eq!(
                    a,
                    sharded_answers(s, req, &pool),
                    "{label}: Engine vs {}-shard ShardedIndex diverged on request {ri}",
                    s.num_shards()
                );
            }
        }
    };
    compare_all("mid-ingest");

    // Re-run after everything quiesces into static tables: answers are
    // again identical, and identical to their own pre-merge selves.
    let pre_merge = answers(&engine, &requests[0].0, &pool);
    streaming.wait_for_merge();
    streaming.merge_now();
    engine.merge_delta(&pool);
    for s in &sharded {
        s.quiesce().unwrap();
        assert_eq!(s.shard(0).engine().delta_len(), 0);
    }
    compare_all("post-merge");
    assert_eq!(
        pre_merge,
        answers(&engine, &requests[0].0, &pool),
        "merging must never change answers"
    );
}

#[test]
fn malformed_requests_error_on_every_backend() {
    let corpus = corpus();
    let params = params(corpus.dim());
    let pool = ThreadPool::new(1);
    let engine = Engine::new(EngineConfig::new(params.clone(), N), &pool).unwrap();
    let streaming =
        StreamingEngine::new(EngineConfig::new(params.clone(), N), ThreadPool::new(1)).unwrap();
    let sharded = ShardedIndex::builder(EngineConfig::new(params, N))
        .shards(2)
        .build()
        .unwrap();

    let oob = plsh::SparseVector::unit(vec![(corpus.dim(), 1.0)]).unwrap();
    let req = SearchRequest::query(oob);
    assert!(SearchBackend::search(&engine, &req, &pool).is_err());
    assert!(SearchBackend::search(&streaming, &req, &pool).is_err());
    assert!(SearchBackend::search(&sharded, &req, &pool).is_err());
}
