//! Figure 9: multi-node scaling with fixed data per node.
//!
//! Paper: 1 → 100 nodes at 10.5 M tweets/node; flat max/avg/min lines mean
//! perfect scaling; load imbalance (max/avg) stays below 1.3 and query
//! broadcast costs < 1% of runtime. The simulation keeps data per node
//! fixed and grows node count: every node is one shard of a
//! [`ShardedIndex`], and each shard's compute time is measured directly.

use std::time::{Duration, Instant};

use plsh_cluster::ShardedIndex;
use plsh_core::engine::EngineConfig;
use plsh_core::search::SearchRequest;
use plsh_workload::{CorpusConfig, SyntheticCorpus};

use crate::setup::{ms, Fixture, Scale};

/// One node-count measurement.
#[derive(Debug, Clone)]
pub struct Point {
    /// Number of nodes.
    pub nodes: usize,
    /// Per-node initialization time (max / avg / min).
    pub init: (Duration, Duration, Duration),
    /// Per-node query compute time (max / avg / min).
    pub query: (Duration, Duration, Duration),
    /// Query load imbalance max/avg.
    pub imbalance: f64,
    /// Coordinator overhead fraction.
    pub coordination: f64,
}

/// The sweep results.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// Points in node-count order.
    pub points: Vec<Point>,
    /// Documents per node.
    pub docs_per_node: usize,
}

/// Sweeps node counts with fixed per-node data.
pub fn run(f: &Fixture) -> Fig9 {
    let (node_counts, docs_per_node): (&[usize], usize) = match f.scale {
        Scale::Quick => (&[1, 2, 4], 5_000),
        Scale::Full => (&[1, 2, 4, 8], 12_500),
    };
    let workers = f.pool.num_threads();
    let points = node_counts
        .iter()
        .map(|&nodes| {
            // Fresh corpus sized for this node count, same distribution.
            let corpus = SyntheticCorpus::generate(CorpusConfig {
                num_docs: docs_per_node * nodes,
                vocab_size: f.corpus.dim(),
                mean_words: 7.2,
                zipf_exponent: 1.0,
                duplicate_fraction: 0.2,
                seed: 0xC0FFEE ^ nodes as u64,
            });
            // Hash routing spreads the docs only approximately evenly, so
            // each node gets a quarter more capacity than its fair share.
            let node = EngineConfig::new(f.params.clone(), docs_per_node + docs_per_node / 4)
                .manual_merge();
            let index = ShardedIndex::builder(node)
                .shards(nodes)
                .threads(workers)
                .build()
                .expect("valid sharded config");
            index
                .insert_batch(corpus.vectors())
                .expect("node capacity absorbs routing skew");
            index.flush().expect("ingest workers alive");
            // Each node builds its static tables alone, one after another,
            // so init times are per-node compute times.
            let init_times: Vec<Duration> = (0..nodes)
                .map(|i| {
                    let t0 = Instant::now();
                    index.shard(i).merge_now();
                    t0.elapsed()
                })
                .collect();

            let queries = f.query_vecs();
            let req = SearchRequest::batch(queries.to_vec());
            let warm = SearchRequest::batch(queries[..queries.len().min(16)].to_vec());
            let _ = index.search(&warm).expect("valid request");
            // The broadcast: one task per node, each answering the whole
            // batch on its own thread.
            let node_times: Vec<Duration> = f.pool.parallel_map(0..nodes, |i| {
                let t0 = Instant::now();
                index.shard(i).search(&req).expect("valid request");
                t0.elapsed()
            });
            // The coordinator end to end: fan-out, global-id translation
            // and concatenation.
            let t0 = Instant::now();
            index.search(&req).expect("valid request");
            let elapsed = t0.elapsed();
            Point {
                nodes,
                init: spread(&init_times),
                query: spread(&node_times),
                imbalance: load_imbalance(&node_times),
                coordination: coordination_overhead(&node_times, elapsed, workers),
            }
        })
        .collect();
    Fig9 {
        points,
        docs_per_node,
    }
}

/// Slowest, mean and fastest node time (the max/avg/min series).
fn spread(times: &[Duration]) -> (Duration, Duration, Duration) {
    let max = times.iter().copied().max().unwrap_or_default();
    let min = times.iter().copied().min().unwrap_or_default();
    let avg = if times.is_empty() {
        Duration::ZERO
    } else {
        times.iter().sum::<Duration>() / times.len() as u32
    };
    (max, avg, min)
}

/// Load imbalance `max / avg` (paper: < 1.3 at 100 nodes, ideal 1.0).
fn load_imbalance(times: &[Duration]) -> f64 {
    let (max, avg, _) = spread(times);
    if avg.is_zero() {
        return 1.0;
    }
    max.as_secs_f64() / avg.as_secs_f64()
}

/// Coordinator overhead: end-to-end time not accounted for by node
/// compute, as a fraction of end-to-end time (the paper's "< 1%
/// communication").
///
/// Node tasks share the coordinator's workers, so the compute baseline is
/// the total node time divided by the parallelism actually available; on
/// a dedicated node-per-machine deployment that baseline degenerates to
/// the slowest node, as in the paper.
fn coordination_overhead(times: &[Duration], elapsed: Duration, workers: usize) -> f64 {
    let e = elapsed.as_secs_f64();
    if e == 0.0 {
        return 0.0;
    }
    let total: f64 = times.iter().map(Duration::as_secs_f64).sum();
    let lanes = workers.clamp(1, times.len().max(1)) as f64;
    let busy = (total / lanes).max(spread(times).0.as_secs_f64());
    ((e - busy) / e).max(0.0)
}

impl Fig9 {
    /// Prints the sweep.
    pub fn print(&self) {
        println!(
            "## Figure 9 — multi-node scaling ({} docs per node; flat lines = perfect scaling)\n",
            self.docs_per_node
        );
        println!("| Nodes | Init/node | Query max | Query avg | Query min | Imbalance | Coord. overhead |");
        println!("|---:|---:|---:|---:|---:|---:|---:|");
        for p in &self.points {
            println!(
                "| {} | {:.0} ms | {:.0} ms | {:.0} ms | {:.0} ms | {:.2} | {:.1}% |",
                p.nodes,
                ms(p.init.1),
                ms(p.query.0),
                ms(p.query.1),
                ms(p.query.2),
                p.imbalance,
                p.coordination * 100.0
            );
        }
        let worst = self
            .points
            .iter()
            .map(|p| p.imbalance)
            .fold(f64::NAN, f64::max);
        println!(
            "\nWorst query load imbalance: {:.2} (paper: < 1.3, ideal 1.0). Note: nodes share one physical core here, so per-node times are compute times, not wall-clock parallel times.\n",
            worst
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_metrics_are_consistent() {
        let times: Vec<Duration> = [3u64, 5, 4, 4].map(Duration::from_millis).to_vec();
        let (max, avg, min) = spread(&times);
        assert_eq!(
            (max, avg, min),
            (
                Duration::from_millis(5),
                Duration::from_millis(4),
                Duration::from_millis(3)
            )
        );
        assert_eq!(load_imbalance(&times), 1.25);
        // 16 ms of node compute over 2 workers is 8 ms busy out of 10 ms.
        let overhead = coordination_overhead(&times, Duration::from_millis(10), 2);
        assert!((overhead - 0.2).abs() < 1e-9, "{overhead}");
        // Faster than the node compute allows: clamped, never negative.
        assert_eq!(
            coordination_overhead(&times, Duration::from_millis(1), 8),
            0.0
        );
        assert_eq!(load_imbalance(&[]), 1.0);
        assert_eq!(coordination_overhead(&[], Duration::ZERO, 1), 0.0);
    }
}
