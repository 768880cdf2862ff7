//! # plsh-cluster — the multi-node PLSH coordinator
//!
//! The paper runs PLSH on 100 nodes (Section 4, Figure 1): every node holds
//! a disjoint slice of the data, queries are broadcast to all nodes and the
//! partial answers concatenated by a coordinator, and the oldest data is
//! retired so the cluster can keep absorbing the stream.
//!
//! The real system used MPI over Infiniband; the paper measures
//! communication at well under 1% of query time (Section 8.4), so the
//! interesting behaviour is per-node. This crate therefore runs the nodes
//! **in-process** as shards of a [`ShardedIndex`]: inserts route by a
//! stable hash of the point id into per-shard
//! [`plsh_core::streaming::StreamingEngine`]s (each with its own ingest
//! queue and background merge), queries fan out over the shards through a
//! work-stealing pool, and the shard count defaults to a Section-7
//! performance-model prediction. A sliding window
//! ([`plsh_core::engine::WindowSpec`]) retires the oldest documents
//! exactly, as one consistent cut across every shard. Every operation
//! takes `&self` and overlaps freely across threads.
//!
//! [`firehose`] adds a producer/consumer harness (a bounded channel fed by
//! a generator thread) used by the streaming examples to mimic the Twitter
//! firehose's arrival pattern.

mod error;
pub mod firehose;
pub mod sharded;

pub use error::{ClusterError, Result};
pub use sharded::{ShardedIndex, ShardedIndexBuilder, ShardedStats};
