//! The unified request/response search API — one door for every backend.
//!
//! The paper's system is a *service*: a front-end answers streaming
//! similarity queries whether they land on a fresh delta generation, a
//! merged static table, or a remote node. This module is that front-end's
//! contract. A [`SearchRequest`] describes *what* to answer — one or many
//! query vectors, radius or k-NN mode, per-request radius override,
//! pipeline strategy, candidate budget, stats/profiling switches — and a
//! [`SearchResponse`] carries the per-query hits plus whatever
//! observability the request asked for. Every backend
//! ([`Engine`](crate::engine::Engine),
//! [`StreamingEngine`](crate::streaming::StreamingEngine), and the
//! multi-node `ShardedIndex` in `plsh-cluster`) implements [`SearchBackend`]
//! and answers the *exact same* request type, so a new scenario is a new
//! request field — not a new method on three front-ends.
//!
//! ```
//! use plsh_core::search::{SearchBackend, SearchRequest};
//! use plsh_core::{Engine, EngineConfig, PlshParams, SparseVector};
//! use plsh_parallel::ThreadPool;
//!
//! let params = PlshParams::builder(16).k(4).m(4).radius(0.9).seed(42).build().unwrap();
//! let pool = ThreadPool::new(1);
//! let engine = Engine::new(EngineConfig::new(params, 64), &pool).unwrap();
//! let a = SparseVector::unit(vec![(0, 1.0), (3, 2.0)]).unwrap();
//! let b = SparseVector::unit(vec![(0, 1.0), (3, 1.9)]).unwrap();
//! engine.insert(a.clone(), &pool).unwrap();
//! engine.insert(b, &pool).unwrap();
//!
//! // Radius search with stats, through the typed entry point.
//! let resp = engine.search(&SearchRequest::query(a).with_stats(), &pool).unwrap();
//! assert!(resp.hits().iter().any(|h| h.index == 1));
//! assert!(resp.stats.unwrap().totals.matches >= 2);
//! ```

use crate::engine::EpochInfo;
use crate::error::{PlshError, Result};
use crate::query::{BatchStats, Neighbor, QueryPhaseTimings, QueryStrategy};
use crate::sparse::SparseVector;
use plsh_parallel::ThreadPool;

/// What kind of answer the request wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// Every point within the radius (the engine's configured `R`, unless
    /// the request overrides it) — the paper's query semantics.
    Radius,
    /// The `k` closest points among everything the hash tables surface,
    /// ascending by distance. Approximate, like every LSH k-NN: only
    /// candidates sharing at least two half-keys with the query are
    /// ranked.
    Knn(usize),
}

/// A typed, extensible search request: one or many query vectors plus
/// every knob the pipeline exposes. Construct with
/// [`query`](SearchRequest::query) or [`batch`](SearchRequest::batch) and
/// chain builder methods; unset fields fall back to the backend's
/// configuration.
#[derive(Debug, Clone)]
pub struct SearchRequest {
    queries: Vec<SparseVector>,
    mode: SearchMode,
    radius: Option<f32>,
    strategy: Option<QueryStrategy>,
    collect_stats: bool,
    profile: bool,
    max_candidates: Option<usize>,
    per_query_pipeline: bool,
    shard_deadline: Option<std::time::Duration>,
}

impl SearchRequest {
    /// A radius search for a single query vector.
    pub fn query(q: SparseVector) -> Self {
        Self::batch(vec![q])
    }

    /// A radius search for a batch of query vectors (answered through the
    /// batched SIMD pipeline by default).
    pub fn batch(queries: Vec<SparseVector>) -> Self {
        Self {
            queries,
            mode: SearchMode::Radius,
            radius: None,
            strategy: None,
            collect_stats: false,
            profile: false,
            max_candidates: None,
            per_query_pipeline: false,
            shard_deadline: None,
        }
    }

    /// Switches to approximate k-nearest-neighbor mode: each query returns
    /// its `k` closest candidates ascending by distance. The backend's
    /// configured radius is ignored; combine with
    /// [`with_radius`](Self::with_radius) to cap how far a neighbor may
    /// be ("the k nearest within `R`").
    pub fn top_k(mut self, k: usize) -> Self {
        self.mode = SearchMode::Knn(k);
        self
    }

    /// Overrides the backend's configured radius `R` for this request
    /// only. Must lie in `(0, π]`. In k-NN mode (where the configured `R`
    /// plays no role) this caps the reported neighbors' distance instead.
    pub fn with_radius(mut self, radius: f32) -> Self {
        self.radius = Some(radius);
        self
    }

    /// Overrides the backend's query strategy (the Figure 5 ablation
    /// switches) for this request only.
    pub fn with_strategy(mut self, strategy: QueryStrategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Asks for aggregated pipeline counters and wall time in
    /// [`SearchResponse::stats`].
    pub fn with_stats(mut self) -> Self {
        self.collect_stats = true;
        self
    }

    /// Asks for per-phase (Q2/Q3) wall times in
    /// [`SearchResponse::phase_timings`]. Profiled requests run the batch
    /// *sequentially* so the phase timers stay meaningful (Figure 6);
    /// answers are unchanged.
    pub fn with_profiling(mut self) -> Self {
        self.profile = true;
        self.collect_stats = true;
        self
    }

    /// Caps the candidates whose exact distance is computed per query — a
    /// latency/deadline budget. Queries whose hash tables surface more
    /// candidates than this stop early, so answers beyond the budget may
    /// be missed (recall trades for a bounded worst case). The visited
    /// prefix is always the ascending-id candidate order, so a budgeted
    /// request returns the same answers on every backend and strategy
    /// level regardless of how the corpus is segmented.
    pub fn with_max_candidates(mut self, budget: usize) -> Self {
        self.max_candidates = Some(budget);
        self
    }

    /// Bounds how long a fan-out backend waits on each shard. Shards that
    /// miss the deadline are dropped from the answer and listed in
    /// [`SearchResponse::timed_out_shards`], so one stalled shard yields a
    /// partial, flagged response instead of a hung fan-out. Single-node
    /// backends ignore the field (there is nothing to detach from).
    pub fn with_shard_deadline(mut self, deadline: std::time::Duration) -> Self {
        self.shard_deadline = Some(deadline);
        self
    }

    /// Routes a batch through the per-query pipeline (one independent
    /// Q1–Q4 task per query) instead of the batched SIMD pipeline —
    /// the paper's Figure 5 measurement protocol. Answers are identical;
    /// only speed differs.
    pub fn per_query_pipeline(mut self) -> Self {
        self.per_query_pipeline = true;
        self
    }

    /// The query vectors.
    pub fn queries(&self) -> &[SparseVector] {
        &self.queries
    }

    /// Radius or k-NN mode.
    pub fn mode(&self) -> SearchMode {
        self.mode
    }

    /// The per-request radius override, if any.
    pub fn radius_override(&self) -> Option<f32> {
        self.radius
    }

    /// The per-request strategy override, if any.
    pub fn strategy_override(&self) -> Option<QueryStrategy> {
        self.strategy
    }

    /// Whether the response should carry [`BatchStats`].
    pub fn collects_stats(&self) -> bool {
        self.collect_stats
    }

    /// Whether the response should carry [`QueryPhaseTimings`].
    pub fn profiles(&self) -> bool {
        self.profile
    }

    /// The per-query candidate budget, if any.
    pub fn max_candidates(&self) -> Option<usize> {
        self.max_candidates
    }

    /// Whether the batch bypasses the batched SIMD pipeline.
    pub fn uses_per_query_pipeline(&self) -> bool {
        self.per_query_pipeline
    }

    /// The per-shard fan-out deadline, if any.
    pub fn shard_deadline(&self) -> Option<std::time::Duration> {
        self.shard_deadline
    }

    /// Validates the request against a backend of dimensionality `dim`:
    /// every query index must lie below `dim` and a radius override must
    /// lie in `(0, π]`. Backends call this before touching the tables, so
    /// a malformed request is an [`Err`], never a panic.
    pub fn validate(&self, dim: u32) -> Result<()> {
        for q in &self.queries {
            if let Some(max) = q.max_index() {
                if max >= dim {
                    return Err(PlshError::DimensionOutOfRange { index: max, dim });
                }
            }
        }
        if let Some(r) = self.radius {
            if !(r > 0.0 && r <= std::f32::consts::PI) {
                return Err(PlshError::InvalidParams(format!(
                    "radius override must lie in (0, pi], got {r}"
                )));
            }
        }
        if let Some(0) = self.max_candidates {
            return Err(PlshError::InvalidParams(
                "max_candidates budget must be > 0".into(),
            ));
        }
        Ok(())
    }
}

/// A reported neighbor, qualified by the node that holds it. Single-node
/// backends always report `node == 0`; the sharded coordinator translates
/// `index` to the point's global id and records the owning shard in
/// `node`.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct SearchHit {
    /// Node that holds the point (0 on single-node backends).
    pub node: u32,
    /// Point id (global on multi-node backends).
    pub index: u32,
    /// Angular distance to the query.
    pub distance: f32,
}

impl From<Neighbor> for SearchHit {
    fn from(n: Neighbor) -> Self {
        Self {
            node: 0,
            index: n.index,
            distance: n.distance,
        }
    }
}

/// The answer to a [`SearchRequest`]: per-query hits plus the
/// observability the request asked for.
#[derive(Debug, Clone)]
pub struct SearchResponse {
    /// One hit list per query vector, in request order. Radius mode
    /// reports hits in pipeline discovery order; k-NN mode ascending by
    /// distance.
    pub results: Vec<Vec<SearchHit>>,
    /// Aggregated pipeline counters and wall time, when the request set
    /// [`with_stats`](SearchRequest::with_stats). The wall time covers the
    /// pipeline proper (hashing through distance filtering), excluding
    /// request validation and response assembly.
    pub stats: Option<BatchStats>,
    /// Per-phase wall times, when the request set
    /// [`with_profiling`](SearchRequest::with_profiling).
    pub phase_timings: Option<QueryPhaseTimings>,
    /// The pinned epoch the whole request ran against — `None` on
    /// multi-node backends, where each node pins its own. The invariant
    /// `visible = static + sealed` holds for every pin.
    pub epoch: Option<EpochInfo>,
    /// Shards that missed the request's
    /// [`shard_deadline`](SearchRequest::with_shard_deadline) and were
    /// dropped from the answer. Empty on single-node backends and whenever
    /// no deadline was set: an empty list means the answer is complete.
    pub timed_out_shards: Vec<u32>,
}

impl SearchResponse {
    /// The first query's hits — the natural accessor for single-query
    /// requests.
    pub fn hits(&self) -> &[SearchHit] {
        self.results.first().map_or(&[], Vec::as_slice)
    }

    /// Consumes the response into the first query's hits.
    pub fn into_hits(mut self) -> Vec<SearchHit> {
        if self.results.is_empty() {
            Vec::new()
        } else {
            self.results.swap_remove(0)
        }
    }

    /// Total hits across all queries.
    pub fn total_hits(&self) -> usize {
        self.results.iter().map(Vec::len).sum()
    }
}

/// The one query-side contract every PLSH front-end implements.
///
/// `pool` supplies the workers for whatever fan-out the backend performs
/// (batched hashing, per-query tasks, node broadcast); backends that own a
/// pool (e.g. `StreamingEngine`) also expose a pool-free inherent
/// `search(&req)` and pass their own pool here.
pub trait SearchBackend {
    /// Answers one request; every backend returns the same answer set for
    /// the same request over the same data (tested by the root
    /// `backend_equivalence` suite).
    fn search(&self, req: &SearchRequest, pool: &ThreadPool) -> Result<SearchResponse>;
}

/// Orders `hits` ascending by `(distance, index, node)` and keeps the
/// closest `k` — the k-NN post-pass shared by every backend. On a single
/// engine `node` is always 0; a sharded coordinator ranks hits that carry
/// globally unique ids, so the node never decides a tie and its ranking
/// is bit-identical to one big engine's.
pub fn rank_top_k(hits: &mut Vec<SearchHit>, k: usize) {
    hits.sort_by(|a, b| {
        a.distance
            .total_cmp(&b.distance)
            .then(a.index.cmp(&b.index))
            .then(a.node.cmp(&b.node))
    });
    hits.truncate(k);
}

/// The coordinator-side merge of `ShardedIndex`'s fan-out: concatenates
/// the per-node partial responses per query (running each hit through
/// `translate(node, hit)`, the global-id translation), aggregates the
/// optional [`BatchStats`] counters and [`QueryPhaseTimings`], applies
/// [`rank_top_k`] per query in k-NN mode, and stamps the aggregated wall
/// time from `start`. [`SearchResponse::epoch`] is always `None` (each
/// node pins its own).
pub fn merge_partial_responses(
    num_queries: usize,
    mode: SearchMode,
    start: std::time::Instant,
    partials: Vec<Result<SearchResponse>>,
    mut translate: impl FnMut(usize, SearchHit) -> SearchHit,
) -> Result<SearchResponse> {
    let mut results: Vec<Vec<SearchHit>> = vec![Vec::new(); num_queries];
    let mut stats: Option<BatchStats> = None;
    let mut timings: Option<QueryPhaseTimings> = None;
    for (node, partial) in partials.into_iter().enumerate() {
        let resp = partial?;
        for (q, hits) in resp.results.into_iter().enumerate() {
            results[q].extend(hits.into_iter().map(|h| translate(node, h)));
        }
        if let Some(node_stats) = resp.stats {
            let agg = stats.get_or_insert(BatchStats {
                queries: num_queries as u64,
                ..BatchStats::default()
            });
            agg.totals.merge(&node_stats.totals);
        }
        if let Some(node_timings) = resp.phase_timings {
            let agg = timings.get_or_insert(QueryPhaseTimings::default());
            agg.step_q2 += node_timings.step_q2;
            agg.step_q3 += node_timings.step_q3;
        }
    }
    if let SearchMode::Knn(k) = mode {
        for hits in &mut results {
            rank_top_k(hits, k);
        }
    }
    if let Some(agg) = stats.as_mut() {
        agg.elapsed = start.elapsed();
    }
    Ok(SearchResponse {
        results,
        stats,
        phase_timings: timings,
        epoch: None,
        timed_out_shards: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: Vec<(u32, f32)>) -> SparseVector {
        SparseVector::unit(pairs).unwrap()
    }

    #[test]
    fn builder_accumulates_fields() {
        let req = SearchRequest::batch(vec![v(vec![(0, 1.0)]), v(vec![(1, 1.0)])])
            .top_k(5)
            .with_radius(1.2)
            .with_strategy(QueryStrategy::unoptimized())
            .with_stats()
            .with_max_candidates(100)
            .per_query_pipeline();
        assert_eq!(req.queries().len(), 2);
        assert_eq!(req.mode(), SearchMode::Knn(5));
        assert_eq!(req.radius_override(), Some(1.2));
        assert_eq!(req.strategy_override(), Some(QueryStrategy::unoptimized()));
        assert!(req.collects_stats());
        assert!(!req.profiles());
        assert_eq!(req.max_candidates(), Some(100));
        assert!(req.uses_per_query_pipeline());
        assert!(req.validate(4).is_ok());
    }

    #[test]
    fn profiling_implies_stats() {
        let req = SearchRequest::query(v(vec![(0, 1.0)])).with_profiling();
        assert!(req.profiles());
        assert!(req.collects_stats());
    }

    #[test]
    fn validate_rejects_bad_requests() {
        let req = SearchRequest::query(v(vec![(9, 1.0)]));
        assert_eq!(
            req.validate(4).unwrap_err(),
            PlshError::DimensionOutOfRange { index: 9, dim: 4 }
        );
        let req = SearchRequest::query(v(vec![(0, 1.0)])).with_radius(4.0);
        assert!(req.validate(4).is_err());
        let req = SearchRequest::query(v(vec![(0, 1.0)])).with_radius(-1.0);
        assert!(req.validate(4).is_err());
        let req = SearchRequest::query(v(vec![(0, 1.0)])).with_max_candidates(0);
        assert!(req.validate(4).is_err());
    }

    #[test]
    fn rank_top_k_orders_and_truncates() {
        // Global ids scattered over shards: ties resolve by index first,
        // so the node attribution never reorders a single engine's answer.
        let mut hits = vec![
            SearchHit {
                node: 3,
                index: 4,
                distance: 0.5,
            },
            SearchHit {
                node: 0,
                index: 9,
                distance: 0.1,
            },
            SearchHit {
                node: 2,
                index: 2,
                distance: 0.5,
            },
            SearchHit {
                node: 1,
                index: 7,
                distance: 0.3,
            },
            SearchHit {
                node: 1,
                index: 2,
                distance: 0.5,
            },
        ];
        rank_top_k(&mut hits, 4);
        assert_eq!(
            hits.iter().map(|h| (h.node, h.index)).collect::<Vec<_>>(),
            vec![(0, 9), (1, 7), (1, 2), (2, 2)],
            "ascending by distance, ties by (index, node)"
        );
    }

    #[test]
    fn rank_top_k_global_ignores_node_attribution() {
        // The lower global id sits on the higher shard: a tie must still
        // resolve by index, never by the node that happens to hold it.
        let mut hits = vec![
            SearchHit {
                node: 0,
                index: 4,
                distance: 0.5,
            },
            SearchHit {
                node: 2,
                index: 9,
                distance: 0.1,
            },
            SearchHit {
                node: 3,
                index: 2,
                distance: 0.5,
            },
            SearchHit {
                node: 1,
                index: 7,
                distance: 0.3,
            },
        ];
        rank_top_k(&mut hits, 3);
        assert_eq!(
            hits.iter().map(|h| h.index).collect::<Vec<_>>(),
            vec![9, 7, 2],
            "tie at 0.5 resolves by global index, not by shard"
        );
    }

    #[test]
    fn response_accessors_handle_empty() {
        let resp = SearchResponse {
            results: Vec::new(),
            stats: None,
            phase_timings: None,
            epoch: None,
            timed_out_shards: Vec::new(),
        };
        assert!(resp.hits().is_empty());
        assert_eq!(resp.total_hits(), 0);
        assert!(resp.into_hits().is_empty());
    }
}
