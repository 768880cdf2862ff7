//! # PLSH — Parallel Locality-Sensitive Hashing
//!
//! A Rust reproduction of *"Streaming Similarity Search over one Billion
//! Tweets using Parallel Locality-Sensitive Hashing"* (Sundaram et al.,
//! VLDB 2013).
//!
//! ## Quickstart
//!
//! Everything goes through one client, [`Index`], and one typed request,
//! [`SearchRequest`] — no thread-pool wiring, no method zoo:
//!
//! ```
//! use plsh::{Index, PlshParams, SearchRequest, SparseVector};
//!
//! // Three tiny "documents" as sparse unit vectors in an 8-dim space.
//! let docs = vec![
//!     SparseVector::unit(vec![(0, 1.0), (1, 1.0)])?,
//!     SparseVector::unit(vec![(0, 1.0), (1, 0.9)])?,
//!     SparseVector::unit(vec![(6, 1.0), (7, 1.0)])?,
//! ];
//! let params = PlshParams::builder(8).k(4).m(4).radius(0.9).seed(7).build()?;
//! let index = Index::builder(params).capacity(16).build()?;
//! index.add_batch(&docs)?;
//!
//! // Radius search (the paper's query): everything within R.
//! let near = index.search(&SearchRequest::query(docs[0].clone()))?;
//! assert!(near.hits().iter().any(|h| h.index == 1), "near-duplicate found");
//!
//! // The same door answers k-NN, batches, per-request overrides, stats:
//! let resp = index.search(
//!     &SearchRequest::batch(docs.clone()).top_k(2).with_stats(),
//! )?;
//! assert_eq!(resp.results.len(), 3);
//! assert!(resp.stats.unwrap().totals.distance_computations > 0);
//! # Ok::<(), plsh::Error>(())
//! ```
//!
//! For the tweet scenario, attach a [`text`] pipeline and use
//! [`Index::add_text`] / [`Index::search_text`]. To scale across cores,
//! add [`IndexBuilder::shards`] (or
//! [`auto_shards`](IndexBuilder::auto_shards) for the model-driven count)
//! and the same calls fan out over a [`ShardedIndex`] — hash-routed
//! ingest, per-shard background merges, bit-identical answers; every
//! backend answers the *same* [`SearchRequest`] through the shared
//! [`SearchBackend`] trait.
//!
//! ## Workspace layout
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! * [`core`] — the PLSH algorithm: all-pairs hashing, cache-conscious
//!   static tables, streaming delta tables, the unified search API,
//!   parameter selection and the analytic performance model.
//! * [`parallel`] — the work-stealing task pool used by every component.
//! * [`text`] — tokenization, vocabulary and IDF vectorization of documents.
//! * [`workload`] — synthetic tweet-like corpora and query/ground-truth
//!   generators used by the evaluation.
//! * [`baselines`] — exhaustive-scan and inverted-index baselines
//!   (Table 2 of the paper).
//! * [`cluster`] — the shard-per-core [`ShardedIndex`] coordinator: the
//!   multi-node broadcast and sliding-window retirement of Figures 1
//!   and 9.
//! * [`server`] — the HTTP/1.1 wire surface ([`Index::serve`]): search /
//!   ingest / delete / healthz / metrics endpoints, load shedding, and
//!   graceful drain.

mod index;

pub use index::{Index, IndexBuilder};

// The scaling backend behind `IndexBuilder::shards`.
pub use plsh_cluster::{ShardedIndex, ShardedIndexBuilder, ShardedStats};

// The wire surface behind `Index::serve`.
pub use plsh_server::{ServeBackend, Server, ServerConfig};

// The unified search surface and the types requests/responses carry.
pub use plsh_core::search::{SearchBackend, SearchHit, SearchMode, SearchRequest, SearchResponse};
pub use plsh_core::{
    BatchStats, EpochInfo, HealthReport, Neighbor, PlshParams, QueryPhaseTimings, QueryStats,
    QueryStrategy, ShutdownReport, Snapshot, SparseVector, WindowSpec, WorkerHealth,
};

/// The one error type every `plsh` operation returns — configuration,
/// ingest, search, text, cluster, and snapshot errors all convert into it.
pub use plsh_core::PlshError as Error;

/// Convenience alias used across the facade.
pub type Result<T> = std::result::Result<T, Error>;

pub use plsh_baselines as baselines;
pub use plsh_cluster as cluster;
pub use plsh_core as core;
pub use plsh_parallel as parallel;
pub use plsh_server as server;
pub use plsh_text as text;
pub use plsh_workload as workload;
