//! The one-stop PLSH client: a streaming similarity index behind a single
//! typed request/response API.
//!
//! [`Index`] bundles everything the paper's front-end needs — a concurrent
//! [`StreamingEngine`] (lock-free epoch-pinned queries, background merges
//! at `η·C`), an owned worker [`ThreadPool`], and an optional
//! [`Vectorizer`] for the tweet scenario — so applications never wire
//! pools or pick among query methods. Ingest with [`add`](Index::add) /
//! [`add_text`](Index::add_text), query with one
//! [`search`](Index::search) call taking a [`SearchRequest`], and get one
//! [`plsh::Error`](crate::Error) type end-to-end.
//!
//! Call [`shards`](IndexBuilder::shards) (or
//! [`auto_shards`](IndexBuilder::auto_shards) for the model-driven count)
//! to scale the same API across a [`ShardedIndex`] — hash-routed ingest
//! into shard-local streaming engines, overlapping background merges, and
//! query fan-out — without changing a single call site.
//!
//! ```
//! use plsh::{Index, PlshParams, SearchRequest, SparseVector};
//!
//! let params = PlshParams::builder(16).k(4).m(4).radius(0.9).seed(42).build()?;
//! let index = Index::builder(params).capacity(1024).threads(2).build()?;
//!
//! index.add(SparseVector::unit(vec![(0, 1.0), (3, 2.0)])?)?;
//! index.add(SparseVector::unit(vec![(0, 1.0), (3, 1.9)])?)?;
//!
//! let q = SparseVector::unit(vec![(0, 1.0), (3, 2.0)])?;
//! let resp = index.search(&SearchRequest::query(q).top_k(2))?;
//! assert_eq!(resp.hits()[0].index, 0);
//! # Ok::<(), plsh::Error>(())
//! ```

use std::io::{Read, Write};
use std::sync::Arc;

use plsh_cluster::ShardedIndex;
use plsh_core::engine::{EngineConfig, EngineStats, EpochInfo, MergeReport, WindowSpec};
use plsh_core::error::{PlshError, Result};
use plsh_core::params::PlshParams;
use plsh_core::query::QueryStrategy;
use plsh_core::search::{SearchHit, SearchRequest, SearchResponse};
use plsh_core::snapshot::Snapshot;
use plsh_core::sparse::SparseVector;
use plsh_core::streaming::{ShutdownReport, StreamingEngine};
use plsh_parallel::ThreadPool;
use plsh_server::{ServeBackend, Server, ServerConfig};
use plsh_text::Vectorizer;

/// Default node capacity when the builder does not set one (the paper's
/// per-node `C` is 10.5 M; this default keeps small deployments cheap).
const DEFAULT_CAPACITY: usize = 1 << 20;

/// The engine behind an [`Index`]: one streaming node, or a sharded
/// cluster of them behind the same call surface.
#[derive(Clone)]
enum Backend {
    Single(StreamingEngine),
    Sharded(Arc<ShardedIndex>),
}

/// A cheaply cloneable handle to one PLSH node: streaming ingest, epoch
/// consistency, background merging, text vectorization, and the unified
/// [`SearchRequest`] query door — all behind one type that owns its
/// thread pool. Clones share the same underlying index.
#[derive(Clone)]
pub struct Index {
    backend: Backend,
    vectorizer: Option<Arc<Vectorizer>>,
}

impl std::fmt::Debug for Index {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Index")
            .field("points", &self.len())
            .field("capacity", &self.capacity())
            .field("dim", &self.params().dim())
            .field("text", &self.vectorizer.is_some())
            .finish_non_exhaustive()
    }
}

/// Builder for [`Index`]: configuration beyond the LSH parameters is
/// optional and defaults to the paper's operating point (auto-merge at
/// `η = 0.1`, fully optimized query strategy, one worker per core).
pub struct IndexBuilder {
    params: PlshParams,
    capacity: usize,
    threads: Option<usize>,
    eta: Option<f64>,
    auto_merge: bool,
    strategy: Option<QueryStrategy>,
    seal_min_points: Option<usize>,
    vectorizer: Option<Vectorizer>,
    /// `None` = single node; `Some(None)` = model-driven shard count;
    /// `Some(Some(s))` = fixed shard count.
    sharding: Option<Option<usize>>,
    window: Option<WindowSpec>,
}

impl IndexBuilder {
    /// Node capacity `C` in points (default 1 M). Inserts beyond this
    /// fail; a multi-node deployment retires old nodes instead (see
    /// `plsh-cluster`).
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Worker threads for hashing, merging, and batch fan-out (default:
    /// one per core).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Delta fraction `η` of capacity that triggers a background merge
    /// (default 0.1, the paper's choice).
    pub fn eta(mut self, eta: f64) -> Self {
        self.eta = Some(eta);
        self
    }

    /// Disables automatic background merges; call [`Index::merge`]
    /// explicitly.
    pub fn manual_merge(mut self) -> Self {
        self.auto_merge = false;
        self
    }

    /// Default query strategy for requests that don't override it.
    pub fn query_strategy(mut self, strategy: QueryStrategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Minimum open-generation size before inserts auto-seal (default 1:
    /// every batch becomes query-visible as soon as the call returns).
    pub fn seal_min_points(mut self, points: usize) -> Self {
        self.seal_min_points = Some(points);
        self
    }

    /// Attaches a frozen text pipeline so [`Index::add_text`] and
    /// [`Index::search_text`] work. Its dimensionality must match the
    /// parameters'.
    pub fn vectorizer(mut self, vectorizer: Vectorizer) -> Self {
        self.vectorizer = Some(vectorizer);
        self
    }

    /// Scales the index across `shards` shard-local streaming engines
    /// (hash-routed ingest, overlapping background merges, query fan-out)
    /// behind the same call surface. `capacity` becomes the *per-shard*
    /// capacity, as in the paper's per-node `C`. See
    /// [`ShardedIndex`] for routing and merge semantics; snapshots
    /// flatten into the single-engine format and durable directories get
    /// one subdirectory per shard.
    pub fn shards(mut self, shards: usize) -> Self {
        self.sharding = Some(Some(shards));
        self
    }

    /// Like [`shards`](Self::shards), but lets the Section-7 performance
    /// model pick the shard count for this machine
    /// ([`plsh_core::model::PerformanceModel::pick_shard_count`]).
    pub fn auto_shards(mut self) -> Self {
        self.sharding = Some(None);
        self
    }

    /// Enables sliding-window retirement: only the newest
    /// [`WindowSpec::Docs`]`(n)` documents — or those younger than
    /// [`WindowSpec::Duration`] — stay live; older points are retired by a
    /// single range-tombstone watermark and physically reclaimed by the
    /// next merge. On a sharded index the window is a consistent
    /// cross-shard cut at the global stream position. The window must
    /// leave capacity headroom for the un-merged delta (a good rule of
    /// thumb: `capacity ≈ 3 × window`).
    pub fn with_window(mut self, window: WindowSpec) -> Self {
        self.window = Some(window);
        self
    }

    /// Builds the index (generates hyperplanes, spins up the pool).
    pub fn build(self) -> Result<Index> {
        if let Some(v) = &self.vectorizer {
            if v.dim() != self.params.dim() {
                return Err(PlshError::InvalidParams(format!(
                    "vectorizer dimensionality {} does not match params dimensionality {}",
                    v.dim(),
                    self.params.dim()
                )));
            }
        }
        let mut config = EngineConfig::new(self.params, self.capacity);
        if let Some(eta) = self.eta {
            config = config.with_eta(eta);
        }
        if !self.auto_merge {
            config = config.manual_merge();
        }
        if let Some(s) = self.strategy {
            config = config.with_query_strategy(s);
        }
        if let Some(p) = self.seal_min_points {
            config = config.with_seal_min_points(p);
        }
        if let Some(w) = self.window {
            config = config.with_window(w);
        }
        let backend = match self.sharding {
            None => {
                let pool = match self.threads {
                    Some(t) => ThreadPool::new(t),
                    None => ThreadPool::default(),
                };
                Backend::Single(StreamingEngine::new(config, pool)?)
            }
            Some(shards) => {
                let mut builder = ShardedIndex::builder(config);
                if let Some(s) = shards {
                    builder = builder.shards(s);
                }
                if let Some(t) = self.threads {
                    builder = builder.threads(t);
                }
                Backend::Sharded(Arc::new(builder.build().map_err(PlshError::from)?))
            }
        };
        Ok(Index {
            backend,
            vectorizer: self.vectorizer.map(Arc::new),
        })
    }
}

impl Index {
    /// Starts building an index for the given LSH parameters.
    pub fn builder(params: PlshParams) -> IndexBuilder {
        IndexBuilder {
            params,
            capacity: DEFAULT_CAPACITY,
            threads: None,
            eta: None,
            auto_merge: true,
            strategy: None,
            seal_min_points: None,
            vectorizer: None,
            sharding: None,
            window: None,
        }
    }

    /// Restores an index from a snapshot stream previously written by
    /// [`save_to`](Index::save_to), with a default-sized pool. The
    /// restored engine answers every query identically to the saved one
    /// and, like [`recover_from`](Index::recover_from), keeps the
    /// original's merge policy (`η`, `seal_min_points`) and sliding
    /// window, merging in the background once the delta reaches `η·C`. A
    /// flattened sharded snapshot restores as a single node with the
    /// cluster's window. The vectorizer is not part of the
    /// snapshot; re-attach one with
    /// [`with_vectorizer`](Index::with_vectorizer).
    pub fn restore_from<R: Read>(r: &mut R) -> Result<Index> {
        Self::restore_with(r, ThreadPool::default())
    }

    /// [`restore_from`](Index::restore_from) with an explicit pool.
    pub fn restore_with<R: Read>(r: &mut R, pool: ThreadPool) -> Result<Index> {
        let engine = Snapshot::read_from(r)?.restore(&pool)?;
        Ok(Index {
            backend: Backend::Single(StreamingEngine::from_engine(engine, pool)),
            vectorizer: None,
        })
    }

    /// Attaches a frozen text pipeline after construction (e.g. after a
    /// snapshot restore).
    pub fn with_vectorizer(mut self, vectorizer: Vectorizer) -> Self {
        self.vectorizer = Some(Arc::new(vectorizer));
        self
    }

    // ---- Ingest ----

    /// Inserts one vector; returns its id. On a single-node index the
    /// point is visible to queries on return; on a sharded index it
    /// becomes visible once its shard's firehose drains it
    /// ([`flush`](Index::flush) is the barrier). A background merge
    /// starts when a sealed delta crosses `η·C`.
    pub fn add(&self, v: SparseVector) -> Result<u32> {
        match &self.backend {
            Backend::Single(engine) => engine.insert(v),
            Backend::Sharded(sharded) => Ok(sharded.insert(v)?),
        }
    }

    /// Inserts a batch (the paper's firehose arrives in ~100 K-point
    /// chunks); all-or-nothing with respect to capacity.
    pub fn add_batch(&self, vs: &[SparseVector]) -> Result<Vec<u32>> {
        match &self.backend {
            Backend::Single(engine) => engine.insert_batch(vs),
            Backend::Sharded(sharded) => Ok(sharded.insert_batch(vs)?),
        }
    }

    /// Vectorizes one document and inserts it. Fails with
    /// [`Error::EmptyVector`](PlshError::EmptyVector) when the document is
    /// entirely out-of-vocabulary (the paper's dropped "0-length" case).
    pub fn add_text(&self, text: &str) -> Result<u32> {
        self.add(self.vectorize(text)?)
    }

    /// Vectorizes and inserts many documents in one sealed batch. Fully
    /// out-of-vocabulary documents are *dropped* (paper semantics) and
    /// reported as `None` in the returned id list, which is parallel to
    /// the input.
    pub fn add_texts<'a, I>(&self, texts: I) -> Result<Vec<Option<u32>>>
    where
        I: IntoIterator<Item = &'a str>,
    {
        let vectorizer = self.require_vectorizer()?;
        let mut slots: Vec<Option<u32>> = Vec::new();
        let mut batch: Vec<SparseVector> = Vec::new();
        for text in texts {
            match vectorizer.to_vector(text) {
                Ok(v) => {
                    batch.push(v);
                    slots.push(Some(0)); // patched below with the real id
                }
                // Only the documented drop case is silent; any other
                // vectorization failure is a real error.
                Err(plsh_text::TextError::OutOfVocabulary) => slots.push(None),
                Err(e) => return Err(e.into()),
            }
        }
        let ids = self.add_batch(&batch)?;
        let mut next = ids.into_iter();
        for slot in slots.iter_mut().flatten() {
            *slot = next.next().expect("one id per vectorized document");
        }
        Ok(slots)
    }

    /// Tombstones a point; `Ok(false)` if already deleted or out of
    /// range. The point disappears from all future queries immediately
    /// and is purged from the tables at the next merge.
    ///
    /// On a sharded index a point still in flight in its shard's ingest
    /// queue is waited for (condvar, not polling); if that shard's ingest
    /// worker has died the wait fails fast with an error instead of
    /// hanging.
    pub fn delete(&self, id: u32) -> Result<bool> {
        match &self.backend {
            Backend::Single(engine) => Ok(engine.delete(id)),
            Backend::Sharded(sharded) => sharded.delete(id).map_err(PlshError::from),
        }
    }

    // ---- Search ----

    /// Answers one [`SearchRequest`] — radius or k-NN, single query or
    /// batch, with optional radius/strategy overrides, candidate budget,
    /// counters, and profiling. On a single node the whole request runs
    /// against one pinned epoch; on a sharded index each shard pins its
    /// own and the answers merge globally. Ingest and merges never block
    /// it either way.
    pub fn search(&self, req: &SearchRequest) -> Result<SearchResponse> {
        match &self.backend {
            Backend::Single(engine) => engine.search(req),
            Backend::Sharded(sharded) => sharded.search(req),
        }
    }

    /// Radius search for a single vector — the clone-free thin wrapper for
    /// hot per-point loops (same answers as
    /// `search(&SearchRequest::query(q))`).
    pub fn query(&self, q: &SparseVector) -> Result<Vec<SearchHit>> {
        if let Some(max) = q.max_index() {
            let dim = self.params().dim();
            if max >= dim {
                return Err(PlshError::DimensionOutOfRange { index: max, dim });
            }
        }
        match &self.backend {
            Backend::Single(engine) => {
                Ok(engine.query(q).into_iter().map(SearchHit::from).collect())
            }
            Backend::Sharded(sharded) => Ok(sharded
                .search(&SearchRequest::query(q.clone()))?
                .into_hits()),
        }
    }

    /// Vectorizes free text and runs a radius search for it.
    pub fn search_text(&self, text: &str) -> Result<SearchResponse> {
        self.search(&SearchRequest::query(self.vectorize(text)?))
    }

    /// Converts text through the attached vectorizer — for composing
    /// custom [`SearchRequest`]s (k-NN over text, batches, overrides).
    pub fn vectorize(&self, text: &str) -> Result<SparseVector> {
        let v = self.require_vectorizer()?;
        Ok(v.to_vector(text)?)
    }

    // ---- Maintenance & observability ----

    /// Merges all sealed delta generations into the next static epoch(s)
    /// on this thread (queries keep running; publication is one swap per
    /// engine). On a sharded index this first drains the shard queues,
    /// then folds every shard — failing fast (instead of hanging) if a
    /// shard's ingest worker has died with points undrained.
    pub fn merge(&self) -> Result<()> {
        match &self.backend {
            Backend::Single(engine) => engine.merge_now(),
            Backend::Sharded(sharded) => sharded.quiesce().map_err(PlshError::from)?,
        }
        Ok(())
    }

    /// Ingest barrier: seals any buffered open generation (draining the
    /// shard queues first on a sharded index, so every prior `add` is
    /// query-visible on return) and blocks until in-flight background
    /// merges have published. Fails fast with an error (instead of
    /// hanging) if a shard's ingest worker has died with points
    /// undrained.
    pub fn flush(&self) -> Result<()> {
        match &self.backend {
            Backend::Single(engine) => {
                engine.seal();
                engine.wait_for_merge();
            }
            Backend::Sharded(sharded) => {
                sharded.flush().map_err(PlshError::from)?;
                sharded.wait_for_merges();
            }
        }
        Ok(())
    }

    /// Liveness and degradation report across the whole index: per-worker
    /// state (merge threads, shard ingest threads), restart counts, WAL
    /// lag, persistence retries, and whether any engine has degraded to
    /// read-only. Never blocks on ingest or merges.
    pub fn health(&self) -> plsh_core::HealthReport {
        match &self.backend {
            Backend::Single(engine) => engine.health(),
            Backend::Sharded(sharded) => sharded.health(),
        }
    }

    /// Attempts to lift a degraded engine (or every degraded shard) back
    /// to read-write by re-syncing persistence from memory. Returns
    /// `true` when nothing remains degraded. No-op `true` on a healthy
    /// index.
    pub fn heal(&self) -> bool {
        match &self.backend {
            Backend::Single(engine) => engine.heal(),
            Backend::Sharded(sharded) => sharded.heal(),
        }
    }

    /// Deadline-bounded graceful drain: seal buffered rows, join (or
    /// abandon) background merges, and report what made it. On a sharded
    /// index the shard queues drain first and the report folds across
    /// shards. See [`plsh_core::streaming::StreamingEngine::shutdown`].
    pub fn shutdown(&self, deadline: std::time::Duration) -> ShutdownReport {
        match &self.backend {
            Backend::Single(engine) => engine.shutdown(deadline),
            Backend::Sharded(sharded) => sharded.shutdown(deadline),
        }
    }

    /// Serves this index over HTTP with default [`ServerConfig`] — the
    /// one-call path onto the wire surface (`POST /search`, `/ingest`,
    /// `/delete`, `GET /healthz`, `/metrics`, `POST /ctl/shutdown`).
    /// Bind port 0 for an ephemeral port; the clone handed to the server
    /// shares this index's data. See [`plsh_server`] for protocol,
    /// shedding, and drain semantics.
    pub fn serve(&self, addr: impl std::net::ToSocketAddrs) -> std::io::Result<Server> {
        self.serve_with(addr, ServerConfig::default())
    }

    /// [`serve`](Index::serve) with explicit [`ServerConfig`] (handler
    /// threads, queue bound, body cap, shedding budgets, drain deadline).
    pub fn serve_with(
        &self,
        addr: impl std::net::ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        plsh_server::serve(Arc::new(self.clone()), addr, config)
    }

    /// Stored points (live + deleted; on a sharded index this counts
    /// routed points, including any still in flight in shard queues).
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Single(engine) => engine.len(),
            Backend::Sharded(sharded) => sharded.len(),
        }
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The index's LSH parameters.
    pub fn params(&self) -> &PlshParams {
        match &self.backend {
            Backend::Single(engine) => engine.engine().params(),
            Backend::Sharded(sharded) => sharded.shard(0).engine().params(),
        }
    }

    /// Total capacity `C` (per-shard capacity × shard count on a sharded
    /// index; hash routing keeps shard occupancy within a few percent of
    /// even, so the aggregate is effectively reachable).
    pub fn capacity(&self) -> usize {
        match &self.backend {
            Backend::Single(engine) => engine.engine().capacity(),
            Backend::Sharded(sharded) => {
                sharded.shard(0).engine().capacity() * sharded.num_shards()
            }
        }
    }

    /// Number of shards (1 for a single-node index).
    pub fn num_shards(&self) -> usize {
        match &self.backend {
            Backend::Single(_) => 1,
            Backend::Sharded(sharded) => sharded.num_shards(),
        }
    }

    /// Point and memory accounting (summed across shards when sharded).
    pub fn stats(&self) -> EngineStats {
        match &self.backend {
            Backend::Single(engine) => engine.stats(),
            Backend::Sharded(sharded) => {
                let stats = sharded.stats();
                let mut agg = EngineStats {
                    total_points: 0,
                    static_points: 0,
                    delta_points: 0,
                    deleted_points: 0,
                    purged_points: 0,
                    live_points: 0,
                    retired_points: 0,
                    retired_pending_purge: 0,
                    window_lag: 0,
                    sealed_generations: 0,
                    merges: 0,
                    pending_ingest: 0,
                    static_table_bytes: 0,
                    delta_table_bytes: 0,
                    sketch_bytes: 0,
                    hyperplane_bytes: 0,
                    host_threads: plsh_parallel::affinity::host_threads(),
                    pinned_workers: plsh_parallel::pinned_worker_count(),
                };
                for e in &stats.engines {
                    agg.total_points += e.total_points;
                    agg.static_points += e.static_points;
                    agg.delta_points += e.delta_points;
                    agg.deleted_points += e.deleted_points;
                    agg.purged_points += e.purged_points;
                    agg.live_points += e.live_points;
                    agg.retired_points += e.retired_points;
                    agg.retired_pending_purge += e.retired_pending_purge;
                    agg.window_lag += e.window_lag;
                    agg.sealed_generations += e.sealed_generations;
                    agg.merges += e.merges;
                    agg.pending_ingest += e.pending_ingest;
                    agg.static_table_bytes += e.static_table_bytes;
                    agg.delta_table_bytes += e.delta_table_bytes;
                    agg.sketch_bytes += e.sketch_bytes;
                    agg.hyperplane_bytes += e.hyperplane_bytes;
                }
                agg
            }
        }
    }

    /// Shape of the currently published epoch. Sharded indexes aggregate:
    /// point counts sum across shards and `generation` is the largest
    /// per-shard epoch counter.
    pub fn epoch_info(&self) -> EpochInfo {
        match &self.backend {
            Backend::Single(engine) => engine.epoch_info(),
            Backend::Sharded(sharded) => {
                let mut agg = EpochInfo {
                    generation: 0,
                    static_points: 0,
                    sealed_generations: 0,
                    sealed_points: 0,
                    visible_points: 0,
                    static_base: 0,
                    retired_below: 0,
                };
                for i in 0..sharded.num_shards() {
                    let info = sharded.shard(i).epoch_info();
                    agg.generation = agg.generation.max(info.generation);
                    agg.static_points += info.static_points;
                    agg.sealed_generations += info.sealed_generations;
                    agg.sealed_points += info.sealed_points;
                    agg.visible_points += info.visible_points;
                    // Per-shard id spaces are disjoint; sum the retired
                    // spans so the aggregate reads as "rows compacted /
                    // retired across the cluster".
                    agg.static_base += info.static_base;
                    agg.retired_below += info.retired_below;
                }
                agg
            }
        }
    }

    /// Timings of the most recent merge. Sharded indexes aggregate the
    /// per-shard reports: point counts sum, build/publish windows take
    /// the per-shard maximum (merges overlap, so the max is the wall
    /// cost).
    pub fn last_merge(&self) -> MergeReport {
        match &self.backend {
            Backend::Single(engine) => engine.last_merge(),
            Backend::Sharded(sharded) => {
                let mut agg = MergeReport::default();
                for report in sharded.last_merges() {
                    agg.merged_points += report.merged_points;
                    agg.purged_points += report.purged_points;
                    agg.build = agg.build.max(report.build);
                    agg.publish = agg.publish.max(report.publish);
                }
                agg
            }
        }
    }

    /// The stored vector for `id` (`None` when out of range or purged).
    pub fn vector(&self, id: u32) -> Option<SparseVector> {
        match &self.backend {
            Backend::Single(engine) => engine.engine().vector(id),
            Backend::Sharded(sharded) => sharded.vector(id),
        }
    }

    /// The underlying streaming handle, for advanced drivers (firehose
    /// pumps, cluster experiments) that need the raw engine or pool.
    /// `None` when the index is sharded — use
    /// [`sharded_backend`](Index::sharded_backend) there.
    pub fn backend(&self) -> Option<&StreamingEngine> {
        match &self.backend {
            Backend::Single(engine) => Some(engine),
            Backend::Sharded(_) => None,
        }
    }

    /// The underlying sharded index, when this index was built with
    /// [`shards`](IndexBuilder::shards) / [`auto_shards`](IndexBuilder::auto_shards).
    pub fn sharded_backend(&self) -> Option<&ShardedIndex> {
        match &self.backend {
            Backend::Single(_) => None,
            Backend::Sharded(sharded) => Some(sharded),
        }
    }

    // ---- Persistence ----

    /// Writes a snapshot of the index (parameters, merge policy, window,
    /// rows, static/delta split, tombstones) to any byte sink. Safe to call while other
    /// threads keep inserting and merging. Every backend round-trips: a
    /// sharded index flattens into the same single-engine format
    /// (restoring it yields a single-node index with identical answers).
    pub fn save_to<W: Write>(&self, w: &mut W) -> Result<()> {
        Ok(self.snapshot()?.write_to(w)?)
    }

    /// Captures the index's state as an in-memory [`Snapshot`]. A sharded
    /// index drains its shard queues first, then captures every shard and
    /// flattens the corpus into global-id order
    /// ([`ShardedIndex::snapshot`]).
    pub fn snapshot(&self) -> Result<Snapshot> {
        match &self.backend {
            Backend::Single(engine) => Ok(Snapshot::capture(engine.engine())),
            Backend::Sharded(sharded) => Ok(sharded.snapshot()),
        }
    }

    /// Attaches incremental durability: writes a baseline of the current
    /// contents into `dir` (a WAL-plus-segments directory per engine —
    /// see [`plsh_core::persist`]; one `shard-<i>/` subdirectory each on
    /// a sharded index), then keeps the directory in sync from every
    /// insert, seal, delete, and merge. Recover with
    /// [`recover_from`](Index::recover_from).
    pub fn persist_to(&self, dir: impl AsRef<std::path::Path>) -> Result<()> {
        match &self.backend {
            Backend::Single(engine) => engine.persist_to(dir),
            Backend::Sharded(sharded) => sharded.persist_to(dir).map_err(PlshError::from),
        }
    }

    /// Recovers an index from a directory written by
    /// [`persist_to`](Index::persist_to) — single-node or sharded, told
    /// apart by the manifest magic — replaying segments, then the WAL
    /// tail, then tombstones, and re-attaching persistence so the
    /// recovered index keeps journaling. The vectorizer is not part of
    /// the directory; re-attach one with
    /// [`with_vectorizer`](Index::with_vectorizer).
    pub fn recover_from(dir: impl AsRef<std::path::Path>) -> Result<Index> {
        let dir = dir.as_ref();
        let manifest = std::fs::read(dir.join("MANIFEST"))
            .map_err(|e| PlshError::Io(format!("{}: no recoverable index ({e})", dir.display())))?;
        let backend = if manifest.starts_with(b"PLSC") {
            Backend::Sharded(Arc::new(
                ShardedIndex::recover_from(dir).map_err(PlshError::from)?,
            ))
        } else {
            Backend::Single(StreamingEngine::recover_from(dir, ThreadPool::default())?)
        };
        Ok(Index {
            backend,
            vectorizer: None,
        })
    }

    fn require_vectorizer(&self) -> Result<&Vectorizer> {
        self.vectorizer.as_deref().ok_or_else(|| {
            PlshError::InvalidParams(
                "no vectorizer attached: build the index with .vectorizer(...) \
                 or call with_vectorizer(...) to use the text API"
                    .into(),
            )
        })
    }
}

/// What lets an [`Index`] sit behind the `plsh-server` wire surface —
/// every endpoint delegates to the matching inherent method, so HTTP
/// answers are byte-for-byte the in-process answers.
impl ServeBackend for Index {
    fn search(&self, req: &SearchRequest) -> Result<SearchResponse> {
        Index::search(self, req)
    }

    fn insert_batch(&self, vs: &[SparseVector]) -> Result<Vec<u32>> {
        Index::add_batch(self, vs)
    }

    fn delete(&self, id: u32) -> Result<bool> {
        Index::delete(self, id)
    }

    fn health(&self) -> plsh_core::HealthReport {
        Index::health(self)
    }

    fn stats(&self) -> EngineStats {
        Index::stats(self)
    }

    fn epoch_info(&self) -> EpochInfo {
        Index::epoch_info(self)
    }

    fn shutdown(&self, deadline: std::time::Duration) -> ShutdownReport {
        Index::shutdown(self, deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plsh_text::{CorpusBuilder, Tokenizer};

    fn params(dim: u32) -> PlshParams {
        PlshParams::builder(dim)
            .k(6)
            .m(6)
            .radius(0.9)
            .seed(3)
            .build()
            .unwrap()
    }

    fn text_index() -> Index {
        let docs = [
            "storm hits the coast tonight",
            "storm hits coast tonight again",
            "sourdough bread rises slowly",
        ];
        let mut b = CorpusBuilder::new(Tokenizer::default());
        for d in docs {
            b.add_document(d);
        }
        let vectorizer = b.finish();
        let index = Index::builder(params(vectorizer.dim()))
            .capacity(64)
            .threads(1)
            .vectorizer(vectorizer)
            .build()
            .unwrap();
        for d in docs {
            index.add_text(d).unwrap();
        }
        index
    }

    #[test]
    fn add_and_search_vectors() {
        let index = Index::builder(params(32))
            .capacity(100)
            .threads(1)
            .build()
            .unwrap();
        let a = SparseVector::unit(vec![(0, 1.0), (5, 1.0)]).unwrap();
        let b = SparseVector::unit(vec![(0, 1.0), (5, 0.95)]).unwrap();
        let ids = index.add_batch(&[a.clone(), b]).unwrap();
        assert_eq!(ids, vec![0, 1]);
        let hits = index.query(&a).unwrap();
        assert!(hits.iter().any(|h| h.index == 1 && h.node == 0));
        assert_eq!(index.len(), 2);
        assert!(index.epoch_info().visible_points == 2);
    }

    #[test]
    fn text_round_trip_and_oov_error() {
        let index = text_index();
        let resp = index.search_text("storm on the coast tonight").unwrap();
        assert!(resp.hits().iter().any(|h| h.index == 0));
        assert_eq!(
            index.search_text("zzz qqq").unwrap_err(),
            PlshError::EmptyVector,
            "fully out-of-vocabulary text surfaces the core error type"
        );
        // Batch path drops OOV docs as None, parallel to the input.
        let slots = index.add_texts(["coast storm", "zzz qqq"]).unwrap();
        assert!(slots[0].is_some());
        assert!(slots[1].is_none());
    }

    #[test]
    fn text_api_without_vectorizer_errors() {
        let index = Index::builder(params(8))
            .capacity(8)
            .threads(1)
            .build()
            .unwrap();
        assert!(matches!(
            index.add_text("anything"),
            Err(PlshError::InvalidParams(_))
        ));
    }

    #[test]
    fn vectorizer_dimension_mismatch_is_rejected() {
        let mut b = CorpusBuilder::new(Tokenizer::default());
        b.add_document("one two three");
        let vectorizer = b.finish();
        let err = Index::builder(params(1000))
            .vectorizer(vectorizer)
            .build()
            .unwrap_err();
        assert!(matches!(err, PlshError::InvalidParams(_)));
    }

    #[test]
    fn snapshot_round_trip_preserves_answers() {
        let index = Index::builder(params(32))
            .capacity(100)
            .threads(1)
            .build()
            .unwrap();
        let vs: Vec<SparseVector> = (0..20)
            .map(|i| SparseVector::unit(vec![(i % 32, 1.0), ((i + 7) % 32, 0.5)]).unwrap())
            .collect();
        index.add_batch(&vs).unwrap();
        index.merge().unwrap();
        index.delete(3).unwrap();
        let mut bytes = Vec::new();
        index.save_to(&mut bytes).unwrap();
        let restored = Index::restore_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(restored.len(), index.len());
        for v in &vs {
            let mut a: Vec<u32> = index.query(v).unwrap().iter().map(|h| h.index).collect();
            let mut b: Vec<u32> = restored.query(v).unwrap().iter().map(|h| h.index).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
        // Truncated snapshots surface as one error type, not a panic.
        assert!(matches!(
            Index::restore_from(&mut bytes[..10].as_ref()),
            Err(PlshError::Io(_))
        ));
    }

    #[test]
    fn snapshot_round_trip_keeps_the_window() {
        let fresh: Vec<SparseVector> = (0..200)
            .map(|i| SparseVector::unit(vec![(i % 32, 1.0), ((i + 11) % 32, 0.3)]).unwrap())
            .collect();
        for shards in [1, 2] {
            let mut builder = Index::builder(params(32))
                .threads(1)
                .with_window(WindowSpec::Docs(50));
            builder = if shards == 1 {
                builder.capacity(400)
            } else {
                builder.capacity(200).shards(shards)
            };
            let index = builder.build().unwrap();
            let vs: Vec<SparseVector> = (0..120)
                .map(|i| SparseVector::unit(vec![(i % 32, 1.0), ((i + 5) % 32, 0.8)]).unwrap())
                .collect();
            for chunk in vs.chunks(10) {
                index.add_batch(chunk).unwrap();
                index.flush().unwrap();
            }
            let mut bytes = Vec::new();
            index.save_to(&mut bytes).unwrap();
            let restored = Index::restore_from(&mut bytes.as_slice()).unwrap();
            assert_eq!(restored.stats().live_points, 50, "{shards} shard(s)");
            for chunk in fresh.chunks(10) {
                index.add_batch(chunk).unwrap();
                index.flush().unwrap();
                restored.add_batch(chunk).unwrap();
                restored.flush().unwrap();
            }
            assert_eq!(
                restored.stats().live_points,
                50,
                "{shards} shard(s): the restored index must keep retiring"
            );
            let original_cut = match index.sharded_backend() {
                Some(sharded) => sharded.retired_below(),
                None => index.epoch_info().retired_below,
            };
            assert_eq!(restored.epoch_info().retired_below, original_cut);
            assert_eq!(original_cut, 270);
        }
    }

    #[test]
    fn sharded_index_serves_the_same_api() {
        let index = Index::builder(params(32))
            .capacity(500)
            .threads(2)
            .shards(3)
            .build()
            .unwrap();
        assert_eq!(index.num_shards(), 3);
        let vs: Vec<SparseVector> = (0..90)
            .map(|i| SparseVector::unit(vec![(i % 32, 1.0), ((i + 9) % 32, 0.6)]).unwrap())
            .collect();
        let ids = index.add_batch(&vs).unwrap();
        assert_eq!(ids, (0..90).collect::<Vec<u32>>());
        index.flush().unwrap();
        assert_eq!(index.len(), 90);
        assert_eq!(index.epoch_info().visible_points, 90);
        assert_eq!(index.capacity(), 1500);
        // Global ids round-trip through query, vector, and delete.
        let hits = index.query(&vs[5]).unwrap();
        assert!(hits.iter().any(|h| h.index == 5));
        assert_eq!(index.vector(5).as_ref(), Some(&vs[5]));
        assert!(index.delete(5).unwrap());
        assert!(index.query(&vs[5]).unwrap().iter().all(|h| h.index != 5));
        // Maintenance aggregates across shards.
        index.merge().unwrap();
        let stats = index.stats();
        assert_eq!(stats.static_points, 90);
        assert!(stats.merges >= 3, "every shard merged");
        assert!(index.last_merge().merged_points > 0);
        // Snapshots flatten the sharded corpus and restore to a
        // single-node index with identical answers.
        let mut sink = Vec::new();
        index.save_to(&mut sink).unwrap();
        let restored = Index::restore_from(&mut sink.as_slice()).unwrap();
        assert_eq!(restored.len(), 90);
        for q in vs.iter().step_by(13) {
            let mut a: Vec<u32> = index.query(q).unwrap().iter().map(|h| h.index).collect();
            let mut b: Vec<u32> = restored.query(q).unwrap().iter().map(|h| h.index).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "flattened snapshot must answer identically");
        }
        assert!(
            restored.query(&vs[5]).unwrap().iter().all(|h| h.index != 5),
            "tombstones survive the flattened round-trip"
        );
        assert!(index.backend().is_none());
        assert!(index.sharded_backend().is_some());
    }

    #[test]
    fn sharded_and_single_agree_on_answers() {
        let vs: Vec<SparseVector> = (0..120)
            .map(|i| SparseVector::unit(vec![(i % 32, 1.0), ((i + 7) % 32, 0.4)]).unwrap())
            .collect();
        let single = Index::builder(params(32))
            .capacity(200)
            .threads(1)
            .build()
            .unwrap();
        single.add_batch(&vs).unwrap();
        let sharded = Index::builder(params(32))
            .capacity(200)
            .threads(2)
            .shards(4)
            .build()
            .unwrap();
        sharded.add_batch(&vs).unwrap();
        sharded.flush().unwrap();
        for q in vs.iter().step_by(11) {
            let mut a: Vec<u32> = single.query(q).unwrap().iter().map(|h| h.index).collect();
            let mut b: Vec<u32> = sharded.query(q).unwrap().iter().map(|h| h.index).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn clones_share_state_and_flush_waits() {
        let index = Index::builder(params(32))
            .capacity(1000)
            .threads(2)
            .eta(0.05)
            .build()
            .unwrap();
        let other = index.clone();
        let vs: Vec<SparseVector> = (0..200)
            .map(|i| SparseVector::unit(vec![(i % 32, 1.0), ((i + 5) % 32, 0.7)]).unwrap())
            .collect();
        index.add_batch(&vs).unwrap();
        other.flush().unwrap();
        assert_eq!(other.len(), 200);
        assert!(
            other.stats().merges >= 1,
            "background merge must have fired"
        );
        let hits = other.query(&vs[0]).unwrap();
        assert!(hits.iter().any(|h| h.index == 0));
    }
}
