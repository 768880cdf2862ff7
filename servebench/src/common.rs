//! Pieces every workload shares: inputs, the served index, the wire
//! correctness gate, the replays that split a request into layers, the
//! in-run sampler, and the metric list a run prints.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use plsh::core::model::{MachineProfile, PerformanceModel};
use plsh::server::{json, wire, Json, Server, ServerConfig};
use plsh::workload::{CorpusConfig, GroundTruth, SyntheticCorpus};
use plsh::{Index, SearchHit, SearchRequest, SparseVector};

use crate::gen::{self, Conn, Record, Run};
use crate::stats::{self, median, percentile, us, Interval};
use crate::sys;
use crate::trace::{self, Call, Span, Traced};

/// Seed of the index's random hyperplanes: part of the deployment's
/// configuration, fixed across workload seeds (the seed varies the data).
pub const HASH_SEED: u64 = 0x9D2C_5680;

/// The latency limit behind `search_max_qps`, ms (see `stats::Step`).
pub const LIMIT_MS: f64 = 10.0;

/// Everything a run prints, in order, plus the request tally.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub attempted: usize,
    pub failed: usize,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn tally(&mut self, runs: &[&Run]) {
        for r in runs {
            self.attempted += r.attempted();
            self.failed += r.failed();
        }
    }

    /// Replaces the value of an already reported metric.
    pub fn set(&mut self, name: &str, value: f64) {
        if let Some(m) = self.metrics.iter_mut().find(|(n, _, _)| n == name) {
            m.1 = value;
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// A corpus of the paper's tweet shape (Zipf words, ~7.2 per doc, 20%
/// near-duplicates) drawn from the workload seed.
pub fn corpus(docs: usize, seed: u64) -> SyntheticCorpus {
    SyntheticCorpus::generate(
        CorpusConfig::scaled_default()
            .with_num_docs(docs)
            .with_seed(seed),
    )
}

/// A sparse vector as wire JSON. Weights go out as their exact `f64`
/// value, so the server decodes the same `f32` bits the generator holds.
pub fn vector_json(v: &SparseVector) -> Json {
    Json::Arr(
        v.indices()
            .iter()
            .zip(v.values())
            .map(|(d, w)| Json::Arr(vec![Json::Num(*d as f64), Json::Num(*w as f64)]))
            .collect(),
    )
}

/// `POST /search` for one query (radius mode unless `top_k` is given).
pub fn search_request(q: &SparseVector, top_k: Option<usize>) -> Vec<u8> {
    let mut fields = vec![("queries", Json::Arr(vec![vector_json(q)]))];
    if let Some(k) = top_k {
        fields.push(("top_k", Json::Num(k as f64)));
    }
    gen::post("/search", &Json::obj(fields).to_string())
}

/// `POST /ingest` for a batch of documents.
pub fn ingest_request(docs: &[SparseVector]) -> Vec<u8> {
    let vectors = Json::Arr(docs.iter().map(vector_json).collect());
    gen::post(
        "/ingest",
        &Json::obj(vec![("vectors", vectors)]).to_string(),
    )
}

/// The in-process request matching a wire search.
pub fn in_process_request(q: &SparseVector, top_k: Option<usize>) -> SearchRequest {
    let req = SearchRequest::query(q.clone());
    match top_k {
        Some(k) => req.top_k(k),
        None => req,
    }
}

/// The index behind a loopback listener. Untraced runs serve the `Index`
/// itself through `Index::serve_with`; traced runs put the span-recording
/// wrapper in front of the same index.
pub struct Served {
    pub server: Server,
    pub traced: Option<Arc<Traced>>,
}

impl Served {
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        // Two measured connections, one correctness connection, and
        // headroom: every keep-alive connection holds a handler thread.
        workers: 4,
        // The generator keeps its connections open across phases.
        idle_timeout: Duration::from_secs(120),
        ..ServerConfig::default()
    }
}

pub fn serve(index: &Index, traced: bool) -> Served {
    if traced {
        let t = Arc::new(Traced::new(index.clone()));
        let server = plsh::server::serve(t.clone(), "127.0.0.1:0", server_config())
            .expect("bind a loopback listener");
        Served {
            server,
            traced: Some(t),
        }
    } else {
        let server = index
            .serve_with("127.0.0.1:0", server_config())
            .expect("bind a loopback listener");
        Served {
            server,
            traced: None,
        }
    }
}

/// Hits of a wire `/search` reply for a one-query request.
pub fn wire_hits(body: &[u8]) -> Result<Vec<SearchHit>, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let doc = json::parse(text)?;
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("reply without results")?;
    let hits = results
        .first()
        .and_then(Json::as_arr)
        .ok_or("reply without a hit list")?;
    hits.iter()
        .map(|h| {
            let num = |k: &str| {
                h.get(k)
                    .and_then(Json::as_f64)
                    .ok_or(format!("hit without {k}"))
            };
            Ok(SearchHit {
                node: num("node")? as u32,
                index: num("index")? as u32,
                distance: num("distance")? as f32,
            })
        })
        .collect()
}

/// Bit-level equality of two hit lists (node, id, distance bits).
pub fn same_hits(a: &[SearchHit], b: &[SearchHit]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.node == y.node && x.index == y.index && x.distance.to_bits() == y.distance.to_bits()
        })
}

/// Correctness gate (a): on a quiesced epoch, every sample query answered
/// over the wire must be bit-identical to in-process `Index::search`.
/// Returns the wire answers.
pub fn check_wire_matches(
    addr: SocketAddr,
    index: &Index,
    sample: &[SparseVector],
    top_k: Option<usize>,
) -> Result<Vec<Vec<SearchHit>>, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut answers = Vec::with_capacity(sample.len());
    for (i, q) in sample.iter().enumerate() {
        let reply = conn
            .roundtrip(&search_request(q, top_k))
            .map_err(|e| format!("sample query {i}: {e}"))?;
        if reply.status != 200 {
            return Err(format!("sample query {i}: HTTP {}", reply.status));
        }
        let wire = wire_hits(&reply.body).map_err(|e| format!("sample query {i}: {e}"))?;
        let local = index
            .search(&in_process_request(q, top_k))
            .map_err(|e| format!("sample query {i} in process: {e}"))?
            .into_hits();
        if !same_hits(&wire, &local) {
            return Err(format!(
                "sample query {i}: wire answer ({} hits) differs from in-process ({} hits)",
                wire.len(),
                local.len()
            ));
        }
        answers.push(wire);
    }
    Ok(answers)
}

/// The live points of a quiesced index, each keyed by its `(node, id)`
/// as search hits name it: a single node's published rows from its
/// retirement watermark on, or a cluster's global ids from its cut on.
fn live_points(index: &Index) -> Vec<((u32, u32), SparseVector)> {
    if let Some(sharded) = index.sharded_backend() {
        return (sharded.retired_below()..sharded.len() as u32)
            .filter_map(|g| Some(((sharded.route(g) as u32, g), sharded.vector(g)?)))
            .collect();
    }
    let engine = index.backend().expect("single-node backend");
    let info = engine.epoch_info();
    let first = info.retired_below.max(info.static_base);
    let end = info.static_base + info.visible_points as u32;
    (first..end)
        .filter_map(|id| Some(((0, id), engine.engine().vector(id)?)))
        .collect()
}

/// Recall of the wire answers to `sample` on a quiesced index: the share
/// of the sample's R-near neighbours among the live points (exact, by
/// brute force) that the answers hold.
pub fn recall(index: &Index, sample: &[SparseVector], wire: &[Vec<SearchHit>]) -> f64 {
    let live = live_points(index);
    let position: std::collections::HashMap<(u32, u32), u32> = live
        .iter()
        .enumerate()
        .map(|(i, (key, _))| (*key, i as u32))
        .collect();
    let vectors: Vec<SparseVector> = live.into_iter().map(|(_, v)| v).collect();
    let pool = plsh::parallel::ThreadPool::new(2);
    let radius = index.params().radius() as f32;
    let truth = GroundTruth::compute(&vectors, sample, radius, &pool);
    let reported: Vec<Vec<u32>> = wire
        .iter()
        .map(|hits| {
            hits.iter()
                .filter_map(|h| position.get(&(h.node, h.index)).copied())
                .collect()
        })
        .collect();
    truth.recall_of(&reported)
}

/// Latencies (ms, from due time) of every answered request; failed ones
/// are excluded here and counted by the caller.
pub fn latencies(records: &[&Record]) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.ok())
        .filter_map(|r| r.latency_ms())
        .collect()
}

/// High-water marks and merge reports gathered from inside the generator
/// threads (no sampler thread). Only the pinned-worker count is read in
/// untraced runs; the rest costs engine locks and waits for the traced run.
pub struct Sampler {
    index: Index,
    full: bool,
    every: Duration,
    next: Instant,
    next_rss: Instant,
    /// `VmRSS` (MiB), read once a second.
    pub rss: Vec<f64>,
    /// `(when, stolen ticks, total ticks)` of the host's CPUs, read every
    /// tick, so any interval's steal share can be looked up afterwards.
    pub host: Vec<(Instant, u64, u64)>,
    pub pinned_workers_max: usize,
    /// CPU the sampling itself cost the generator thread (subtracted
    /// from `gen.cpu_ms_per_req`).
    pub cpu: Duration,
    pub merges_seen: u64,
    pub merge_reports: Vec<plsh::core::engine::MergeReport>,
    pub sealed_generations_max: usize,
    pub delta_points_max: usize,
    pub wal_lag_max: usize,
    pub pending_ingest_max: u64,
    pub window_lag_max: usize,
    pub retired_pending_max: usize,
}

impl Sampler {
    pub fn new(index: &Index, full: bool) -> Sampler {
        Sampler {
            index: index.clone(),
            full,
            every: Duration::from_millis(50),
            next: Instant::now(),
            next_rss: Instant::now(),
            rss: Vec::new(),
            host: Vec::new(),
            pinned_workers_max: plsh::parallel::pinned_worker_count(),
            cpu: Duration::ZERO,
            merges_seen: index.stats().merges,
            merge_reports: Vec::new(),
            sealed_generations_max: 0,
            delta_points_max: 0,
            wal_lag_max: 0,
            pending_ingest_max: 0,
            window_lag_max: 0,
            retired_pending_max: 0,
        }
    }

    /// Share (0–1) of the host's CPU time stolen by the hypervisor
    /// between `from` and `to`, from the samples bracketing the interval
    /// (`NaN` when none do).
    pub fn steal_share(&self, from: Instant, to: Instant) -> f64 {
        let before = self
            .host
            .iter()
            .rev()
            .find(|s| s.0 <= from)
            .or(self.host.first());
        let after = self.host.iter().find(|s| s.0 >= to).or(self.host.last());
        match (before, after) {
            (Some(a), Some(b)) if b.2 > a.2 => (b.1 - a.1) as f64 / (b.2 - a.2) as f64,
            _ => f64::NAN,
        }
    }

    /// Forgets the resident-set samples taken so far (call as the
    /// measured phase starts).
    pub fn begin(&mut self) {
        self.rss.clear();
        self.host.clear();
        self.next_rss = Instant::now();
    }

    /// Samples when due; returns the next due time.
    pub fn tick(&mut self, now: Instant) -> Instant {
        if now >= self.next_rss {
            self.rss.push(sys::rss_mib());
            self.next_rss = now + Duration::from_secs(1);
        }
        if now >= self.next {
            let cpu = sys::thread_cpu();
            self.sample();
            self.cpu += sys::thread_cpu().saturating_sub(cpu);
            self.next = now + self.every;
        }
        self.next
    }

    fn sample(&mut self) {
        let (stolen, total) = sys::cpu_ticks();
        self.host.push((Instant::now(), stolen, total));
        self.pinned_workers_max = self
            .pinned_workers_max
            .max(plsh::parallel::pinned_worker_count());
        if !self.full {
            return;
        }
        let s = self.index.stats();
        if s.merges > self.merges_seen {
            self.merges_seen = s.merges;
            match self.index.sharded_backend() {
                Some(sharded) => self.merge_reports.extend(sharded.last_merges()),
                None => self.merge_reports.push(self.index.last_merge()),
            }
        }
        self.sealed_generations_max = self.sealed_generations_max.max(s.sealed_generations);
        self.delta_points_max = self.delta_points_max.max(s.delta_points);
        let h = self.index.health();
        self.wal_lag_max = self.wal_lag_max.max(h.wal_lag_rows);
        self.pending_ingest_max = self.pending_ingest_max.max(h.pending_ingest);
        self.window_lag_max = self.window_lag_max.max(h.window_lag);
        self.retired_pending_max = self.retired_pending_max.max(h.retired_pending_purge);
    }
}

/// Per-layer figures every workload reports, zero for layers it bypasses.
pub struct Layers<'a> {
    pub index: &'a Index,
    pub served: &'a Served,
    /// Measured runs of the traced phase (all connections).
    pub runs: Vec<&'a Run>,
    /// The bodies sent, indexed by `Record::request`, per run.
    pub requests: Vec<&'a [Vec<u8>]>,
    pub spans: &'a [Span],
    pub sampler: &'a Sampler,
    pub merges_before: u64,
    pub persist_retries_before: u64,
    /// Durable directory, if any, and the live docs it holds.
    pub dir: Option<(&'a std::path::Path, usize)>,
    /// `top_k` of the search requests (`None`: radius mode).
    pub top_k: Option<usize>,
}

/// Fills every per-layer metric except the `trace.` ones.
pub fn layer_metrics(l: &Layers, out: &mut Report) {
    let records: Vec<&Record> = l.runs.iter().flat_map(|r| r.records.iter()).collect();
    let n = records.len().max(1) as f64;
    let attempted: usize = l.runs.iter().map(|r| r.attempted()).sum();
    let failed: usize = l.runs.iter().map(|r| r.failed()).sum();

    // gen
    let late: Vec<f64> = records.iter().map(|r| r.late_ms()).collect();
    let cpu = l
        .runs
        .iter()
        .map(|r| r.cpu)
        .sum::<Duration>()
        .saturating_sub(l.sampler.cpu);
    out.put("gen.late_p99_ms", percentile(&late, 99.0), "ms");
    out.put("gen.cpu_ms_per_req", stats::ms(cpu) / n, "ms");

    // Pair every answered request with its engine span and replay its
    // codec work, then split client latency into engine + codec + io.
    let mut engine_search_us = Vec::new();
    let mut engine_ingest_us_per_doc = Vec::new();
    let mut engine_ingest_ms = Vec::new();
    let mut io_us = Vec::new();
    let mut search_decode_us = Vec::new();
    let mut search_encode_us = Vec::new();
    let mut ingest_decode_us_per_doc = Vec::new();
    let mut sealed = Vec::new();
    let mut replay_queries: Vec<SparseVector> = Vec::new();
    for (run, requests) in l.runs.iter().zip(&l.requests) {
        let keys: Vec<u64> = run
            .records
            .iter()
            .map(|r| first_vector(&requests[r.request]).map_or(0, |v| trace::fingerprint(&v)))
            .collect();
        let Some(spans) = trace::spans_for_connection(l.spans, &keys) else {
            continue;
        };
        for (rec, span) in run.records.iter().zip(spans) {
            let Some(done) = rec.done.filter(|_| rec.ok()) else {
                continue;
            };
            let body = http_body(&requests[rec.request]);
            let (decode, vectors) = replay_decode(body, span.call);
            let encode = match span.call {
                Call::Search => {
                    let q = vectors.into_iter().next().expect("decoded query");
                    let enc = replay_encode(l.index, &q, l.top_k);
                    replay_queries.push(q);
                    search_decode_us.push(us(decode));
                    search_encode_us.push(us(enc));
                    engine_search_us.push(us(span.time.len()));
                    sealed.push(span.sealed_generations as f64);
                    enc
                }
                Call::Ingest => {
                    let per_doc = span.items.max(1) as f64;
                    ingest_decode_us_per_doc.push(us(decode) / per_doc);
                    engine_ingest_us_per_doc.push(us(span.time.len()) / per_doc);
                    engine_ingest_ms.push(stats::ms(span.time.len()));
                    Duration::ZERO
                }
            };
            let client = Interval {
                start: rec.due,
                end: done,
            };
            let outside_engine = stats::self_time(client, &[span.time]);
            if span.call == Call::Search {
                io_us.push(us(outside_engine) - us(decode) - us(encode));
            }
        }
    }

    // server
    out.put("server.io_us_p50", nan0(percentile(&io_us, 50.0)), "us");
    out.put("server.io_us_p90", nan0(percentile(&io_us, 90.0)), "us");
    let queue = l.runs.iter().map(|r| r.max_outstanding).max().unwrap_or(0);
    out.put("server.queue_depth_max", queue as f64, "count");
    let shed = records
        .iter()
        .filter(|r| matches!(r.status, 429 | 503))
        .count() as u64;
    out.put(
        "server.shed",
        (shed.max(l.served.server.metrics().shed_total())) as f64,
        "count",
    );

    // codec
    out.put(
        "codec.search_decode_us",
        nan0(median(&search_decode_us)),
        "us",
    );
    out.put(
        "codec.search_encode_us",
        nan0(median(&search_encode_us)),
        "us",
    );
    out.put(
        "codec.ingest_decode_us_per_doc",
        nan0(median(&ingest_decode_us_per_doc)),
        "us",
    );
    let req_bytes: usize = l
        .runs
        .iter()
        .zip(&l.requests)
        .flat_map(|(r, reqs)| r.records.iter().map(move |rec| reqs[rec.request].len()))
        .sum();
    let resp_bytes: usize = records.iter().map(|r| r.reply_bytes).sum();
    out.put("codec.req_bytes", req_bytes as f64 / n, "bytes");
    out.put("codec.resp_bytes", resp_bytes as f64 / n, "bytes");

    // engine
    out.put(
        "engine.search_us_p50",
        nan0(percentile(&engine_search_us, 50.0)),
        "us",
    );
    out.put(
        "engine.search_us_p90",
        nan0(percentile(&engine_search_us, 90.0)),
        "us",
    );
    out.put(
        "engine.ingest_us_per_doc",
        nan0(median(&engine_ingest_us_per_doc)),
        "us",
    );
    out.put(
        "engine.ingest_ms_p99",
        nan0(percentile(&engine_ingest_ms, 99.0)),
        "ms",
    );

    // query
    query_metrics(l.index, &replay_queries, l.top_k, &sealed, out);

    // merge
    let s = l.index.stats();
    let m = &l.sampler.merge_reports;
    let build: Vec<f64> = m.iter().map(|r| stats::ms(r.build)).collect();
    out.put("merge.count", (s.merges - l.merges_before) as f64, "count");
    out.put("merge.build_ms_p50", nan0(median(&build)), "ms");
    out.put(
        "merge.publish_ms_max",
        m.iter().map(|r| stats::ms(r.publish)).fold(0.0, f64::max),
        "ms",
    );
    out.put(
        "merge.yielded_ms_total",
        m.iter().map(|r| stats::ms(r.yielded)).sum(),
        "ms",
    );
    out.put(
        "merge.rows_reclaimed",
        m.iter().map(|r| r.retired_rows_reclaimed).sum::<usize>() as f64,
        "count",
    );
    out.put(
        "merge.sealed_generations_max",
        l.sampler.sealed_generations_max as f64,
        "count",
    );
    out.put(
        "merge.delta_points_max",
        l.sampler.delta_points_max as f64,
        "count",
    );

    // persist
    let h = l.index.health();
    out.put(
        "persist.io_retries",
        (h.persist_retries - l.persist_retries_before) as f64,
        "count",
    );
    out.put("persist.wal_lag_max", l.sampler.wal_lag_max as f64, "count");
    let per_doc = l.dir.map_or(0.0, |(dir, docs)| {
        dir_bytes(dir) as f64 / docs.max(1) as f64
    });
    out.put("persist.disk_bytes_per_doc", per_doc, "bytes");

    // cluster
    out.put(
        "cluster.pending_ingest_max",
        l.sampler.pending_ingest_max as f64,
        "count",
    );
    let imbalance = l
        .index
        .sharded_backend()
        .map_or(0.0, |s| s.stats().routing_imbalance());
    out.put("cluster.routing_imbalance", imbalance, "ratio");

    // window, mem, parallel
    out.put("window.lag_max", l.sampler.window_lag_max as f64, "count");
    out.put(
        "window.retired_pending_max",
        l.sampler.retired_pending_max as f64,
        "count",
    );
    const MIB: f64 = 1024.0 * 1024.0;
    out.put(
        "mem.static_table_mb",
        s.static_table_bytes as f64 / MIB,
        "MiB",
    );
    out.put(
        "mem.delta_table_mb",
        s.delta_table_bytes as f64 / MIB,
        "MiB",
    );
    out.put("mem.sketch_mb", s.sketch_bytes as f64 / MIB, "MiB");
    out.put(
        "parallel.pinned_workers_max",
        l.sampler.pinned_workers_max as f64,
        "count",
    );
    out.put("parallel.host_threads", s.host_threads as f64, "count");
    let host = &l.sampler.host;
    let steal = match (host.first(), host.last()) {
        (Some(a), Some(b)) => l.sampler.steal_share(a.0, b.0),
        _ => f64::NAN,
    };
    out.put("host.steal_pct", nan0(steal) * 100.0, "%");
    out.put(
        "error_rate",
        failed as f64 / attempted.max(1) as f64,
        "fraction",
    );
}

/// `NaN` (an empty sample: the layer did no work) reads as 0.
fn nan0(v: f64) -> f64 {
    if v.is_nan() {
        0.0
    } else {
        v
    }
}

/// The body of raw request bytes.
fn http_body(request: &[u8]) -> &[u8] {
    let at = request
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("request has a head");
    &request[at + 4..]
}

/// The first vector of a request (search query or ingest doc), decoded
/// the way the server decodes it.
fn first_vector(request: &[u8]) -> Option<SparseVector> {
    let text = std::str::from_utf8(http_body(request)).ok()?;
    let doc = json::parse(text).ok()?;
    match wire::parse_search(&doc) {
        Ok(req) => req.queries().first().cloned(),
        Err(_) => wire::parse_ingest(&doc).ok()?.into_iter().next(),
    }
}

/// Replays the server's decode of one body (UTF-8 check, JSON parse, wire
/// decode) and times it. Returns the time and the vectors decoded.
fn replay_decode(body: &[u8], call: Call) -> (Duration, Vec<SparseVector>) {
    let t = Instant::now();
    let text = std::str::from_utf8(body).expect("bodies are UTF-8");
    let doc = json::parse(text).expect("bodies are valid JSON");
    let vectors = match call {
        Call::Search => wire::parse_search(&doc)
            .expect("valid search body")
            .queries()
            .to_vec(),
        Call::Ingest => wire::parse_ingest(&doc).expect("valid ingest body"),
    };
    (t.elapsed(), vectors)
}

/// Re-runs one search in process (untimed) and times the server's encode
/// of its answer.
fn replay_encode(index: &Index, q: &SparseVector, top_k: Option<usize>) -> Duration {
    let resp = index
        .search(&in_process_request(q, top_k))
        .expect("replayed search");
    let t = Instant::now();
    let text = wire::encode_search_response(&resp).to_string();
    let took = t.elapsed();
    std::hint::black_box(text);
    took
}

/// `with_profiling` replay of the traced run's queries on the current
/// epoch: per-query Q2/Q3 time and pipeline counters, set beside the
/// Section 7.1 model with this host's measured clock and bandwidth.
fn query_metrics(
    index: &Index,
    queries: &[SparseVector],
    top_k: Option<usize>,
    sealed: &[f64],
    out: &mut Report,
) {
    let names = [
        "query.q2_us",
        "query.q3_us",
        "query.collisions",
        "query.unique_candidates",
        "query.distance_computations",
        "query.matches",
        "query.dedup_ratio",
        "query.yield",
        "query.q2_model_ratio",
        "query.q3_model_ratio",
    ];
    if queries.is_empty() {
        for name in names {
            out.put(name, 0.0, unit_of(name));
        }
        out.put("query.sealed_generations_p50", 0.0, "count");
        return;
    }
    // At most a few hundred distinct replays: enough for stable means.
    let sample: Vec<SparseVector> = queries.iter().take(REPLAY_QUERIES).cloned().collect();
    let mut req = SearchRequest::batch(sample.clone()).with_profiling();
    if let Some(k) = top_k {
        req = req.top_k(k);
    }
    let resp = index.search(&req).expect("profiled replay");
    let q = sample.len() as f64;
    let t = resp.stats.map(|s| s.totals).unwrap_or_default();
    let phases = resp.phase_timings.unwrap_or_default();
    let q2 = us(phases.step_q2) / q;
    let q3 = us(phases.step_q3) / q;
    let per = |x: u64| x as f64 / q;
    let nnz = sample.iter().map(|v| v.nnz() as f64).sum::<f64>() / q;
    let pool = plsh::parallel::ThreadPool::new(1);
    let machine = MachineProfile::calibrate(&pool, 2.6e9);
    let model = PerformanceModel::new(machine);
    let predicted = model.predict_query_batch(
        1,
        index.epoch_info().visible_points,
        nnz,
        per(t.collisions),
        per(t.unique_candidates),
    );
    let ratio = |measured_us: f64, predicted: Duration| {
        let p = us(predicted);
        if p > 0.0 {
            measured_us / p
        } else {
            0.0
        }
    };
    let values = [
        q2,
        q3,
        per(t.collisions),
        per(t.unique_candidates),
        per(t.distance_computations),
        per(t.matches),
        t.unique_candidates as f64 / t.collisions.max(1) as f64,
        t.matches as f64 / t.distance_computations.max(1) as f64,
        ratio(q2, predicted.step_q2),
        ratio(q3, predicted.step_q3),
    ];
    for (name, v) in names.iter().zip(values) {
        out.put(name, v, unit_of(name));
    }
    out.put(
        "query.sealed_generations_p50",
        nan0(median(sealed)),
        "count",
    );
}

/// Distinct queries replayed under `with_profiling`.
const REPLAY_QUERIES: usize = 500;

fn unit_of(name: &str) -> &'static str {
    match name {
        "query.q2_us" | "query.q3_us" => "us",
        "query.dedup_ratio" | "query.yield" | "query.q2_model_ratio" | "query.q3_model_ratio" => {
            "ratio"
        }
        _ => "count",
    }
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// `trace.overhead_pct.<metric>` for every latency metric: traced minus
/// untraced, as a percentage of untraced. Metrics the workload does not
/// measure read 0.
pub fn trace_overhead(untraced: &Report, traced: &Report, out: &mut Report) {
    for name in LATENCY_METRICS {
        let v = match (untraced.get(name), traced.get(name)) {
            (Some(u), Some(t)) if u > 0.0 => 100.0 * (t - u) / u,
            _ => 0.0,
        };
        out.put(&format!("trace.overhead_pct.{name}"), v, "%");
    }
}

/// `served.<name>`: the untraced twin's end-to-end figures, for reading
/// beside the layers (0 where the workload does not measure one). The
/// wall-clock figures among them are reported here and not gated (see
/// `END_TO_END`).
pub fn served_figures(untraced: &Report, out: &mut Report) {
    for (name, unit) in SERVED {
        out.put(
            &format!("served.{name}"),
            untraced.get(name).unwrap_or(0.0),
            unit,
        );
    }
}

const SERVED: [(&str, &str); 10] = [
    ("search_p50_ms", "ms"),
    ("search_p90_ms", "ms"),
    ("search_max_qps", "req/s"),
    ("ingest_docs_per_s", "docs/s"),
    ("ingest_p50_ms", "ms"),
    ("ingest_p99_ms", "ms"),
    ("visible_p99_ms", "ms"),
    ("stream_cpu_ms_per_s", "ms/s"),
    ("recover_s", "s"),
    ("rss_mb", "MiB"),
];

pub const LATENCY_METRICS: [&str; 5] = [
    "search_p50_ms",
    "search_p90_ms",
    "ingest_p50_ms",
    "ingest_p99_ms",
    "visible_p99_ms",
];

/// Percentile `p` of a phase's latencies, taken per window of `window`
/// seconds and summarized over the cleaner half of the windows by host
/// steal (see [`stats::cleaner_half_median`]). Records are keyed by due
/// time from the phase's first record; failed requests are excluded here
/// and counted by the caller.
pub fn windowed_latency(
    records: &[&Record],
    window: f64,
    p: f64,
    min: usize,
    sampler: &Sampler,
) -> f64 {
    let Some(t0) = records.iter().map(|r| r.due).min() else {
        return f64::NAN;
    };
    let samples: Vec<(f64, f64)> = records
        .iter()
        .filter(|r| r.ok())
        .filter_map(|r| Some(((r.due - t0).as_secs_f64(), r.latency_ms()?)))
        .collect();
    let per_window: Vec<(f64, f64)> = stats::windows(&samples, window, min)
        .iter()
        .map(|(start, values)| {
            let from = t0 + Duration::from_secs_f64(*start);
            let to = from + Duration::from_secs_f64(window);
            (sampler.steal_share(from, to), percentile(values, p))
        })
        .collect();
    stats::cleaner_half_median(&per_window)
}

/// A p99 pooled over the whole phase, with a note on standard error when
/// the sample is too small to hold ten values beyond it.
pub fn pooled_p99(name: &str, values: &[f64], out: &mut Report) {
    if !stats::supports(values.len(), 99.0) {
        eprintln!(
            "{name}: {} samples, fewer than ten beyond the 99th percentile",
            values.len()
        );
    }
    out.put(name, percentile(values, 99.0), "ms");
}

/// Resident set over the measured phase, MiB: the median of the
/// once-a-second samples, so a merge's short-lived build buffers at the
/// last instant do not decide the figure.
pub fn rss_mb(sampler: &Sampler, out: &mut Report) {
    let mut samples = sampler.rss.clone();
    samples.push(sys::rss_mib());
    out.put("rss_mb", median(&samples), "MiB");
}

/// CPU the server spent while `runs` were driven: the process's CPU time
/// over the phase minus what the generator threads used. `process_cpu0`
/// is `sys::process_cpu()` read as the phase started.
pub fn server_cpu(process_cpu0: Duration, runs: &[&Run]) -> Duration {
    let generator: Duration = runs.iter().map(|r| r.cpu).sum();
    sys::process_cpu()
        .saturating_sub(process_cpu0)
        .saturating_sub(generator)
}

/// `server_cpu_us_per_req`: the server's CPU time over a phase per
/// request sent. Taken over the whole phase, not per window: merges and
/// seals run in bursts, and a window that caught one would decide a
/// per-window figure.
pub fn cpu_per_req(cpu: Duration, requests: usize, out: &mut Report) {
    out.put(
        "server_cpu_us_per_req",
        us(cpu) / requests.max(1) as f64,
        "us",
    );
}

/// Times one set-up in wall-clock and process CPU time: the first from
/// process start, later ones (which also tear the previous one down)
/// from `start`.
pub struct SetupClock {
    wall: Instant,
    cpu: Duration,
}

impl SetupClock {
    pub fn start(first: bool) -> SetupClock {
        if first {
            SetupClock {
                wall: crate::process_start(),
                cpu: Duration::ZERO,
            }
        } else {
            SetupClock {
                wall: Instant::now(),
                cpu: sys::process_cpu(),
            }
        }
    }

    /// `(wall, CPU)` time since `start`.
    pub fn stop(&self) -> (Duration, Duration) {
        (
            self.wall.elapsed(),
            sys::process_cpu().saturating_sub(self.cpu),
        )
    }
}

/// `setup_s`: the median set-up's CPU time, seconds, and `setup_wall_s`
/// beside it. CPU time, because the hypervisor's steal stretches the wall
/// time of the same set-up by tens of percent from one minute to the
/// next (median wall time of five runs: 1.91 s, then 2.61 s ten minutes
/// later, same code), while the work a change moves into set-up shows
/// in either.
pub fn setup_s(setups: &[(Duration, Duration)], out: &mut Report) {
    let wall: Vec<f64> = setups.iter().map(|s| s.0.as_secs_f64()).collect();
    let cpu: Vec<f64> = setups.iter().map(|s| s.1.as_secs_f64()).collect();
    // Nearest-rank median of an odd count is the middle value.
    out.put("setup_s", median(&cpu), "s");
    out.put("setup_wall_s", median(&wall), "s");
}

/// A fresh, empty working directory under the checkout.
pub fn work_dir(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(WORK_ROOT).join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the working directory");
    dir
}

/// Where durable workloads keep their index directories (removed at the
/// end of each run).
pub const WORK_ROOT: &str = ".servebench-work";

#[cfg(test)]
mod tests {
    use super::*;
    use plsh::{PlshParams, WindowSpec};

    /// `recall` maps hits to live points by `(node, id)`: on a windowed
    /// index, single-node or sharded, the live set must be exactly the
    /// window, and each live doc searched for itself must come back under
    /// the key `live_points` gave it.
    #[test]
    fn live_points_are_the_window_keyed_as_hits_name_them() {
        let corpus = corpus(600, 3);
        for shards in [None, Some(2)] {
            let params = PlshParams::builder(corpus.dim())
                .k(8)
                .radius(0.9)
                .seed(HASH_SEED)
                .build()
                .expect("valid parameters");
            let mut builder = Index::builder(params)
                .capacity(1_000)
                .with_window(WindowSpec::Docs(400));
            if let Some(n) = shards {
                builder = builder.shards(n);
            }
            let index = builder.build().expect("build index");
            index.add_batch(corpus.vectors()).expect("ingest");
            index.flush().expect("flush");
            let live = live_points(&index);
            assert_eq!(live.len(), 400, "shards {shards:?}");
            for (key, v) in live.iter().step_by(40) {
                let hits = index
                    .search(&in_process_request(v, None))
                    .expect("search")
                    .into_hits();
                assert!(
                    hits.iter().any(|h| (h.node, h.index) == *key),
                    "shards {shards:?}: doc {key:?} not found under its key"
                );
            }
            let sample: Vec<SparseVector> = live.iter().map(|(_, v)| v.clone()).collect();
            let answers: Vec<Vec<SearchHit>> = sample
                .iter()
                .map(|q| {
                    index
                        .search(&in_process_request(q, None))
                        .expect("search")
                        .into_hits()
                })
                .collect();
            let r = recall(&index, &sample, &answers);
            assert!(r > 0.5 && r <= 1.0, "shards {shards:?}: recall {r}");
            index.shutdown(Duration::from_secs(5));
        }
    }
}
