//! `stream_mixed`: a paced tweet stream and open-loop searches competing
//! on a durable, windowed, 2-shard index.
//!
//! **Why this workload.** It is the paper's operating point: one node
//! answering queries while it absorbs the firehose at Twitter's average
//! rate (~4 600 tweets/s, `firehose.rs`). Ingest arrives open-loop in
//! relay-sized batches on one connection; `top_k` searches arrive
//! open-loop at a fixed rate on the other. Searches also probe the sealed
//! delta generations, and sharded ingest acknowledges before the docs are
//! visible, so visibility is measured on its own. It is the only workload
//! with the shard router, per-shard ingest workers and query fan-out.
//!
//! **Gated figures.** Its search, ack and visibility latencies are measured
//! and reported (`served.*` in the traced run, and on standard error), but
//! not gated (see `END_TO_END`): every request is a millisecond or two of
//! work split over several thread wake-ups, and those follow the
//! hypervisor's steal of the host's CPU (search p50 1.09–3.78 ms,
//! visibility p99 44–140 ms across runs whose steal ranged 1–32%). The
//! stream's cost is gated as the server's CPU per request: the schedule
//! fixes the mix of ingests and searches, so it is the CPU per second of
//! stream over a constant.
//!
//! **Layers loaded:** all of them — gen, server, codec, engine (search and
//! ingest), query (with delta generations), merge, persist, cluster,
//! window, mem, parallel.
//!
//! **Predicted direction of each layer metric** when that layer gets
//! faster or leaner:
//! - `merge.build_ms_p50` falls or merges yield more to queries
//!   (`merge.yielded_ms_total` rises) → `search_p90_ms` falls.
//! - `merge.sealed_generations_max` / `query.sealed_generations_p50` fall
//!   (faster merges, fewer seals) → `search_p50_ms` falls.
//! - `engine.ingest_us_per_doc` falls → `ingest_p50_ms` falls.
//! - `cluster.pending_ingest_max` falls, `cluster.routing_imbalance` → 1
//!   → `visible_p99_ms` falls.
//! - `parallel.pinned_workers_max` and `parallel.host_threads` set how
//!   much of the fan-out runs in parallel → `search_p90_ms`.
//! - `window.*` and `mem.*` fall → `rss_mb` falls.

use std::time::{Duration, Instant};

use plsh::workload::SyntheticCorpus;
use plsh::{Index, PlshParams, SparseVector, WindowSpec};

use crate::common::{self, Layers, Report, Sampler, Served};
use crate::gen::{self, Conn, Record, Run, Schedule};
use crate::Args;

const SHARDS: usize = 2;
const WINDOW: usize = 50_000;
const K: u32 = 12;
/// Per-shard capacity; the merge threshold is `ETA` of it.
const CAPACITY: usize = 50_000;
const ETA: f64 = 0.1;
/// A shard seals its open generation (making it query-visible) once it
/// holds this many docs: a few seals per second per shard instead of one
/// per relay batch, so searches probe a handful of delta generations.
/// The price is visibility delay, which `visible_p99_ms` measures.
const SEAL_MIN_POINTS: usize = 500;
/// The stream keeps flowing this long past the measured phase, so the
/// last measured batches seal the way all the others did.
const TAIL: Duration = Duration::from_secs(1);
/// Stream rate, docs per second (Twitter's average).
const DOCS_PER_S: f64 = 4_600.0;
/// Docs per `/ingest` request: a relay forwarding every ~20 ms, so a
/// 20 s run holds the thousand acks a p99 needs.
const BATCH: usize = 90;
/// Search rate, requests per second.
const SEARCH_QPS: f64 = 100.0;
const TOP_K: usize = 10;
/// New docs beyond the preload; cycled (see `ingest_durable`).
const STREAM_DOCS: usize = 2 * WINDOW;
const QUERY_POOL: usize = 2_000;
const SAMPLE: usize = 200;
/// Queries whose radius answers give the recall (the first `SAMPLE` of
/// them are also checked as `top_k`).
const RECALL_SAMPLE: usize = 800;
const SETUPS: usize = 3;
/// Latency percentiles are taken per window of this many seconds and the
/// median window is reported.
const WINDOW_S: f64 = 2.0;
/// How often the ingest thread checks visibility while a batch is
/// outstanding.
const VISIBILITY_POLL: Duration = Duration::from_millis(1);

struct Setup {
    corpus: SyntheticCorpus,
    index: Index,
    served: Served,
    dir: std::path::PathBuf,
}

fn setup(seed: u64) -> Setup {
    let corpus = common::corpus(WINDOW + STREAM_DOCS, seed);
    let params = PlshParams::builder(corpus.dim())
        .k(K)
        .radius(0.9)
        .seed(common::HASH_SEED)
        .build()
        .expect("valid parameters");
    let index = Index::builder(params)
        .capacity(CAPACITY)
        .eta(ETA)
        .seal_min_points(SEAL_MIN_POINTS)
        .shards(SHARDS)
        .with_window(WindowSpec::Docs(WINDOW as u32))
        .build()
        .expect("build index");
    for chunk in corpus.vectors()[..WINDOW].chunks(5_000) {
        index.add_batch(chunk).expect("preload");
    }
    index.flush().expect("flush the preload");
    let dir = common::work_dir("stream_mixed");
    index.persist_to(&dir).expect("attach persistence");
    let served = common::serve(&index, false);
    Setup {
        corpus,
        index,
        served,
        dir,
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut current: Option<Setup> = None;
    for i in 0..SETUPS {
        let clock = common::SetupClock::start(i == 0);
        if let Some(old) = current.take() {
            old.served.server.shutdown();
            drop(old.index);
            let _ = std::fs::remove_dir_all(&old.dir);
        }
        current = Some(setup(args.seed));
        setups.push(clock.stop());
    }
    let Setup {
        corpus,
        index,
        served,
        dir,
    } = current.expect("at least one setup");
    let result = measure(args, &corpus, &index, served, &dir, &setups);
    index.shutdown(Duration::from_secs(30));
    drop(index);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Tracks when each acknowledged batch became query-visible, polling the
/// shards' published epochs between sends (no extra thread).
struct Visibility {
    index: Index,
    /// Per batch, per shard: the local row count that makes it visible.
    targets: Vec<Vec<usize>>,
    /// Per batch: when it was seen visible.
    seen: Vec<Option<Instant>>,
    next: usize,
}

impl Visibility {
    /// Ids are assigned in send order from `first_id`, so each batch's
    /// per-shard targets follow from the public routing function.
    fn new(index: &Index, first_id: usize, batches: usize, batch: usize) -> Visibility {
        let sharded = index.sharded_backend().expect("stream_mixed is sharded");
        let mut per_shard: Vec<usize> = (0..sharded.num_shards())
            .map(|s| visible_end(index, s))
            .collect();
        let mut targets = Vec::with_capacity(batches);
        for b in 0..batches {
            for g in first_id + b * batch..first_id + (b + 1) * batch {
                per_shard[sharded.route(g as u32)] += 1;
            }
            targets.push(per_shard.clone());
        }
        Visibility {
            index: index.clone(),
            targets,
            seen: vec![None; batches],
            next: 0,
        }
    }

    /// Marks every sent batch that is now visible; returns when to poll
    /// again (`None` when nothing sent is still invisible).
    fn poll(&mut self, sent: usize, now: Instant) -> Option<Instant> {
        while self.next < sent {
            let target = &self.targets[self.next];
            let visible = target
                .iter()
                .enumerate()
                .all(|(s, &t)| visible_end(&self.index, s) >= t);
            if !visible {
                return Some(now + VISIBILITY_POLL);
            }
            self.seen[self.next] = Some(now);
            self.next += 1;
        }
        None
    }
}

/// One past the last local row shard `s` has made query-visible.
fn visible_end(index: &Index, s: usize) -> usize {
    let info = index
        .sharded_backend()
        .expect("stream_mixed is sharded")
        .shard(s)
        .epoch_info();
    info.static_base as usize + info.visible_points
}

struct Phase {
    /// The measured batches (the tail is cut off).
    ingest: Run,
    /// Batches sent, tail included: where the stream continues.
    sent: usize,
    search: Run,
    visible_ms: Vec<f64>,
}

/// Runs the stream and the searches side by side for `length`.
#[allow(clippy::too_many_arguments)]
fn phase(
    index: &Index,
    served: &Served,
    ingest: &[Vec<u8>],
    searches: &[Vec<u8>],
    first_batch: usize,
    length: Duration,
    keep: bool,
    sampler: &mut Sampler,
) -> Result<Phase, String> {
    let mut ic = Conn::connect(served.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut sc = Conn::connect(served.addr()).map_err(|e| format!("connect: {e}"))?;
    let batches = ((length.as_secs_f64() * DOCS_PER_S / BATCH as f64).round() as usize).max(1);
    let tail = (TAIL.as_secs_f64() * DOCS_PER_S / BATCH as f64).ceil() as usize;
    let queries = ((length.as_secs_f64() * SEARCH_QPS).round() as usize).max(1);
    let mut vis = Visibility::new(index, index.len(), batches + tail, BATCH);
    let start = Instant::now() + Duration::from_millis(2);
    let ingest_schedule = Schedule {
        start,
        offset: Duration::ZERO,
        interval: Duration::from_secs_f64(BATCH as f64 / DOCS_PER_S),
        count: batches + tail,
        requests: ingest,
        first: first_batch,
        drain: Duration::from_secs(5),
    };
    let search_schedule = Schedule {
        start,
        offset: Duration::ZERO,
        interval: Duration::from_secs_f64(1.0 / SEARCH_QPS),
        count: queries,
        requests: searches,
        first: first_batch,
        drain: Duration::from_secs(5),
    };
    let (mut ingest_run, search_run) = std::thread::scope(|s| {
        let search = s.spawn(|| gen::open_loop(&mut sc, &search_schedule, keep, &mut |_, _| None));
        let ingest = gen::open_loop(
            &mut ic,
            &ingest_schedule,
            keep,
            &mut |recs: &[Record], now| {
                let v = vis.poll(recs.len(), now);
                let t = sampler.tick(now);
                Some(v.map_or(t, |v| v.min(t)))
            },
        );
        (ingest, search.join().expect("search generator thread"))
    });
    // The tail only carried the measured batches to their seal.
    let sent = ingest_run.records.len();
    ingest_run.records.truncate(batches);
    let deadline = Instant::now() + Duration::from_secs(5);
    while vis.poll(sent, Instant::now()).is_some()
        && vis.next < batches
        && Instant::now() < deadline
    {
        std::thread::sleep(VISIBILITY_POLL);
    }
    let visible_ms = ingest_run
        .records
        .iter()
        .zip(&vis.seen)
        .map(|(r, seen)| seen.map_or(f64::INFINITY, |t| crate::stats::ms(t - r.due)))
        .collect();
    Ok(Phase {
        ingest: ingest_run,
        sent,
        search: search_run,
        visible_ms,
    })
}

fn phase_metrics(p: &Phase, out: &mut Report, sampler: &Sampler) {
    let searches: Vec<&Record> = p.search.records.iter().collect();
    let acks: Vec<&Record> = p.ingest.records.iter().collect();
    let min_search = (SEARCH_QPS * WINDOW_S / 2.0) as usize;
    for (name, pct) in [("search_p50_ms", 50.0), ("search_p90_ms", 90.0)] {
        let v = common::windowed_latency(&searches, WINDOW_S, pct, min_search, sampler);
        out.put(name, v, "ms");
    }
    let min_ingest = (DOCS_PER_S / BATCH as f64 * WINDOW_S / 2.0) as usize;
    out.put(
        "ingest_p50_ms",
        common::windowed_latency(&acks, WINDOW_S, 50.0, min_ingest, sampler),
        "ms",
    );
    // p99 needs a thousand samples to have ten beyond it: pooled.
    common::pooled_p99("ingest_p99_ms", &common::latencies(&acks), out);
    common::pooled_p99("visible_p99_ms", &p.visible_ms, out);
}

fn measure(
    args: &Args,
    corpus: &SyntheticCorpus,
    index: &Index,
    served: Served,
    dir: &std::path::Path,
    setups: &[(Duration, Duration)],
) -> Result<Report, String> {
    let ingest: Vec<Vec<u8>> = corpus.vectors()[WINDOW..]
        .chunks(BATCH)
        .map(common::ingest_request)
        .collect();
    let pool = plsh::workload::QuerySet::sample_from_corpus(corpus, QUERY_POOL, args.seed ^ 0x51);
    let searches: Vec<Vec<u8>> = pool
        .queries()
        .iter()
        .map(|q| common::search_request(q, Some(TOP_K)))
        .collect();
    let mut out = Report::default();
    common::setup_s(setups, &mut out);
    let mut sampler = Sampler::new(index, false);
    let length = Duration::from_secs(args.seconds);
    // Warm-up (unmeasured): the first seals and merges under the stream.
    let warm = phase(
        index,
        &served,
        &ingest,
        &searches,
        0,
        Duration::from_secs(1),
        false,
        &mut sampler,
    )?;
    let mut next = warm.sent;
    out.tally(&[&warm.ingest, &warm.search]);
    sampler.begin();
    let cpu0 = crate::sys::process_cpu();
    let begin = Instant::now();
    let p = phase(
        index,
        &served,
        &ingest,
        &searches,
        next,
        length,
        false,
        &mut sampler,
    )?;
    let cpu = common::server_cpu(cpu0, &[&p.ingest, &p.search]);
    // The tail's batches were sent and cost CPU within the phase too.
    common::cpu_per_req(cpu, p.sent + p.search.attempted(), &mut out);
    out.put(
        "stream_cpu_ms_per_s",
        crate::stats::ms(cpu) / begin.elapsed().as_secs_f64(),
        "ms/s",
    );
    next += p.sent;
    phase_metrics(&p, &mut out, &sampler);
    out.tally(&[&p.ingest, &p.search]);
    common::rss_mb(&sampler, &mut out);

    let mut report = if args.trace {
        let traced = common::serve(index, true);
        let mut full = Sampler::new(index, true);
        let merges_before = index.stats().merges;
        let retries_before = index.health().persist_retries;
        let tp = phase(
            index, &traced, &ingest, &searches, next, length, true, &mut full,
        )?;
        let spans = traced.traced.as_ref().expect("traced server").take();
        let mut traced_e2e = Report::default();
        phase_metrics(&tp, &mut traced_e2e, &full);
        full.pinned_workers_max = full.pinned_workers_max.max(sampler.pinned_workers_max);
        index.flush().map_err(|e| format!("flush: {e}"))?;
        let mut layers = Report::default();
        common::layer_metrics(
            &Layers {
                index,
                served: &traced,
                runs: vec![&tp.ingest, &tp.search],
                requests: vec![&ingest, &searches],
                spans: &spans,
                sampler: &full,
                merges_before,
                persist_retries_before: retries_before,
                dir: Some((dir, WINDOW)),
                top_k: Some(TOP_K),
            },
            &mut layers,
        );
        common::trace_overhead(&out, &traced_e2e, &mut layers);
        common::served_figures(&out, &mut layers);
        layers.tally(&[&tp.ingest, &tp.search]);
        layers.attempted += out.attempted;
        layers.failed += out.failed;
        crate::note_pinned(full.pinned_workers_max);
        traced.server.shutdown();
        layers
    } else {
        crate::note_pinned(sampler.pinned_workers_max);
        out
    };

    // Correctness after draining: (b) exactly the window is live; (a) wire
    // answers are bit-identical to in-process ones on the drained epoch.
    index.flush().map_err(|e| format!("flush: {e}"))?;
    let live = index.stats().live_points;
    if live != WINDOW {
        served.server.shutdown();
        return Err(format!(
            "{live} live points after draining; the window is {WINDOW}"
        ));
    }
    // Radius answers on the same epoch give the recall.
    let sample: Vec<SparseVector> = pool.queries()[..RECALL_SAMPLE].to_vec();
    let wire = common::check_wire_matches(served.addr(), index, &sample[..SAMPLE], Some(TOP_K))
        .and_then(|_| common::check_wire_matches(served.addr(), index, &sample, None));
    served.server.shutdown();
    let wire = wire?;
    if !args.trace {
        report.put("recall", common::recall(index, &sample, &wire), "fraction");
    }
    Ok(report)
}
