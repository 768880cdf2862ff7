//! `ingest_durable`: closed-loop `/ingest` into a durable, windowed
//! single-shard index, then a restart.
//!
//! **Why this workload.** It isolates the write path the paper's §6 delta
//! tables exist for: decoding large bodies, hashing, the WAL, sealing,
//! background merges that fold the delta into the static tables, and
//! window retirement, then `Index::recover_from`. The index is preloaded
//! to its 50K-doc window, so every batch retires as many docs as it adds
//! and the run measures the steady state, not growth.
//!
//! **Gated figures.** Its throughput, ack latencies and restart time are
//! measured and reported (`served.*` in the traced run, and on standard
//! error), but not gated (see `END_TO_END`): a closed loop runs at the
//! speed of whatever CPU the hypervisor leaves the virtual machine
//! (17.7K–33.4K docs/s across runs whose steal ranged 11–33%). The write
//! path's cost is gated as the server's CPU per 500-doc request, merges and
//! WAL included.
//!
//! **Layers loaded:** gen, server, codec (ingest decode), engine (ingest
//! spans), merge, persist, window, mem, parallel.
//! **Layers bypassed (read 0):** query, cluster, engine/codec search
//! figures (only the correctness sample searches, after the phase).
//!
//! **Predicted direction of each layer metric** when that layer gets
//! faster or leaner:
//! - `codec.ingest_decode_us_per_doc` falls → `ingest_docs_per_s` rises
//!   (closed loop: every µs of decode is a µs of the loop).
//! - `engine.ingest_us_per_doc` falls → `ingest_docs_per_s` rises and
//!   `ingest_p50_ms` falls; `engine.ingest_ms_p99` falls with
//!   `merge.publish_ms_max` → `ingest_p99_ms` falls.
//! - `merge.build_ms_p50` falls or `merge.count` drops → less CPU taken
//!   from the ingest loop → `ingest_docs_per_s` rises.
//! - `persist.wal_lag_max` and `persist.disk_bytes_per_doc` fall →
//!   `recover_s` falls; `persist.io_retries` must stay 0.
//! - `window.lag_max`/`retired_pending_max` and `mem.*` fall → `rss_mb`
//!   falls.
//! - `query.*` stay 0: a read-path change cannot move this workload.

use std::time::{Duration, Instant};

use plsh::workload::SyntheticCorpus;
use plsh::{Index, PlshParams, SearchHit, SparseVector, WindowSpec};

use crate::common::{self, Layers, Report, Sampler, Served};
use crate::gen::{self, Conn, Run};
use crate::stats::percentile;
use crate::Args;

const WINDOW: usize = 50_000;
const K: u32 = 12;
/// Docs per `/ingest` request.
const BATCH: usize = 500;
/// New docs beyond the preload, cycled through by the stream. Twice the
/// window, so a doc's previous copy has always retired before it is sent
/// again: the live window never holds two copies.
const STREAM_DOCS: usize = 2 * WINDOW;
/// Per-shard capacity: the window plus delta generations and retired rows
/// not yet compacted.
const CAPACITY: usize = 2 * WINDOW;
/// Queries checked on the wire and across the restart.
const SAMPLE: usize = 200;
/// Restarts timed for `recover_s` (the median is reported).
const RECOVERIES: usize = 5;
const SETUPS: usize = 3;
/// Ack latency percentiles are taken per window of this many seconds and
/// the median window is reported.
const WINDOW_S: f64 = 2.0;
/// Acks per throughput group (about a second of a 2-thread host's ingest).
const ACKS_PER_GROUP: usize = 60;

struct Setup {
    corpus: SyntheticCorpus,
    index: Index,
    served: Served,
    dir: std::path::PathBuf,
}

fn params(dim: u32) -> PlshParams {
    PlshParams::builder(dim)
        .k(K)
        .radius(0.9)
        .seed(common::HASH_SEED)
        .build()
        .expect("valid parameters")
}

fn setup(seed: u64) -> Setup {
    let corpus = common::corpus(WINDOW + STREAM_DOCS, seed);
    let index = Index::builder(params(corpus.dim()))
        .capacity(CAPACITY)
        .with_window(WindowSpec::Docs(WINDOW as u32))
        .build()
        .expect("build index");
    for chunk in corpus.vectors()[..WINDOW].chunks(BATCH * 10) {
        index.add_batch(chunk).expect("preload");
    }
    index.flush().expect("flush the preload");
    let dir = common::work_dir("ingest_durable");
    index.persist_to(&dir).expect("attach persistence");
    let served = common::serve(&index, false);
    Setup {
        corpus,
        index,
        served,
        dir,
    }
}

/// The stream's request bodies, `BATCH` docs each, cycled.
fn requests(corpus: &SyntheticCorpus) -> Vec<Vec<u8>> {
    corpus.vectors()[WINDOW..]
        .chunks(BATCH)
        .map(common::ingest_request)
        .collect()
}

/// One closed-loop ingest phase of `length` on `conn`, cycling through
/// `requests` starting at `first`.
fn ingest_phase(
    conn: &mut Conn,
    requests: &[Vec<u8>],
    first: usize,
    length: Duration,
    keep: bool,
    sampler: &mut Sampler,
) -> Run {
    let until = Instant::now() + length;
    gen::closed_loop(
        conn,
        requests,
        first,
        until,
        usize::MAX,
        keep,
        &mut |_, now| Some(sampler.tick(now)),
    )
}

/// `ingest_docs_per_s`, `ingest_p50_ms`, `ingest_p99_ms` of a phase.
fn ingest_metrics(run: &Run, out: &mut Report, sampler: &Sampler) {
    let ok: Vec<&gen::Record> = run.records.iter().filter(|r| r.ok()).collect();
    let Some(t0) = run.records.first().map(|r| r.sent) else {
        return;
    };
    // Acknowledged docs per second over consecutive groups of acks, each
    // timed from the ack before it to its last ack, summarized over the
    // cleaner half of the groups by host steal.
    let mut done: Vec<Instant> = ok.iter().filter_map(|r| r.done).collect();
    done.insert(0, t0);
    let rates: Vec<(f64, f64)> = done
        .windows(ACKS_PER_GROUP + 1)
        .step_by(ACKS_PER_GROUP)
        .map(|g| {
            let (from, to) = (g[0], g[ACKS_PER_GROUP]);
            let docs = (ACKS_PER_GROUP * BATCH) as f64;
            (
                sampler.steal_share(from, to),
                docs / (to - from).as_secs_f64(),
            )
        })
        .collect();
    out.put(
        "ingest_docs_per_s",
        crate::stats::cleaner_half_median(&rates),
        "docs/s",
    );
    let records: Vec<&gen::Record> = run.records.iter().collect();
    out.put(
        "ingest_p50_ms",
        common::windowed_latency(&records, WINDOW_S, 50.0, 10, sampler),
        "ms",
    );
    // p99 needs a thousand acks to have ten beyond it: pooled over the
    // whole phase.
    common::pooled_p99("ingest_p99_ms", &common::latencies(&ok), out);
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
    let result = measure(args, &corpus, index, served, &dir, &setups);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn measure(
    args: &Args,
    corpus: &SyntheticCorpus,
    index: Index,
    served: Served,
    dir: &std::path::Path,
    setups: &[(Duration, Duration)],
) -> Result<Report, String> {
    let requests = requests(corpus);
    let mut out = Report::default();
    common::setup_s(setups, &mut out);
    let mut sampler = Sampler::new(&index, false);
    let length = Duration::from_secs(args.seconds);
    let mut conn = Conn::connect(served.addr()).map_err(|e| format!("connect: {e}"))?;
    // Warm-up (unmeasured): the first merges and WAL segment.
    let warm = ingest_phase(
        &mut conn,
        &requests,
        0,
        Duration::from_millis(500),
        false,
        &mut sampler,
    );
    let mut next = warm.records.len();
    out.tally(&[&warm]);
    sampler.begin();
    let cpu0 = crate::sys::process_cpu();
    let run = ingest_phase(&mut conn, &requests, next, length, false, &mut sampler);
    common::cpu_per_req(common::server_cpu(cpu0, &[&run]), run.attempted(), &mut out);
    next += run.records.len();
    ingest_metrics(&run, &mut out, &sampler);
    out.tally(&[&run]);
    common::rss_mb(&sampler, &mut out);

    let mut report = if args.trace {
        let traced = common::serve(&index, true);
        let mut tconn = Conn::connect(traced.addr()).map_err(|e| format!("connect: {e}"))?;
        let mut full = Sampler::new(&index, true);
        let merges_before = index.stats().merges;
        let retries_before = index.health().persist_retries;
        let trun = ingest_phase(&mut tconn, &requests, next, length, true, &mut full);
        let spans = traced.traced.as_ref().expect("traced server").take();
        let mut traced_e2e = Report::default();
        ingest_metrics(&trun, &mut traced_e2e, &full);
        full.pinned_workers_max = full.pinned_workers_max.max(sampler.pinned_workers_max);
        index.flush().map_err(|e| format!("flush: {e}"))?;
        let mut layers = Report::default();
        common::layer_metrics(
            &Layers {
                index: &index,
                served: &traced,
                runs: vec![&trun],
                requests: vec![&requests],
                spans: &spans,
                sampler: &full,
                merges_before,
                persist_retries_before: retries_before,
                dir: Some((dir, WINDOW)),
                top_k: None,
            },
            &mut layers,
        );
        common::trace_overhead(&out, &traced_e2e, &mut layers);
        common::served_figures(&out, &mut layers);
        layers.tally(&[&trun]);
        layers.attempted += out.attempted;
        layers.failed += out.failed;
        crate::note_pinned(full.pinned_workers_max);
        drop(tconn);
        traced.server.shutdown();
        layers
    } else {
        crate::note_pinned(sampler.pinned_workers_max);
        out
    };
    drop(conn);

    // Correctness: (b) the quiesced index holds exactly the window; (a)
    // wire answers equal in-process ones; (c) the recovered index answers
    // exactly as before the restart.
    index.flush().map_err(|e| format!("flush: {e}"))?;
    let live = index.stats().live_points;
    if live != WINDOW {
        served.server.shutdown();
        return Err(format!(
            "{live} live points after quiescing; the window is {WINDOW}"
        ));
    }
    let sample = sample_queries(&index);
    let before = common::check_wire_matches(served.addr(), &index, &sample, None);
    served.server.shutdown();
    let before = before?;
    if !args.trace {
        report.put(
            "recall",
            common::recall(&index, &sample, &before),
            "fraction",
        );
    }
    index.shutdown(Duration::from_secs(30));
    drop(index);

    let mut recover = Vec::new();
    for _ in 0..RECOVERIES {
        let t = Instant::now();
        let recovered = Index::recover_from(dir).map_err(|e| format!("recover: {e}"))?;
        let first = answer(&recovered, &sample[0]);
        recover.push(t.elapsed());
        if !common::same_hits(&first, &before[0]) {
            return Err("recovered index answers the first sample query differently".into());
        }
        for (i, q) in sample.iter().enumerate() {
            if !common::same_hits(&answer(&recovered, q), &before[i]) {
                return Err(format!(
                    "recovered index answers sample query {i} differently"
                ));
            }
        }
        recovered.shutdown(Duration::from_secs(30));
    }
    let secs: Vec<f64> = recover.iter().map(Duration::as_secs_f64).collect();
    if args.trace {
        report.set("served.recover_s", percentile(&secs, 50.0));
    } else {
        report.put("recover_s", percentile(&secs, 50.0), "s");
    }
    Ok(report)
}

/// Live docs of the final window as queries: each has at least itself as
/// an answer, so the restart check compares non-empty hit lists.
fn sample_queries(index: &Index) -> Vec<SparseVector> {
    let epoch = index.epoch_info();
    let first = epoch.retired_below as usize;
    let stride = (WINDOW / SAMPLE).max(1);
    (0..SAMPLE)
        .filter_map(|i| index.vector((first + i * stride) as u32))
        .collect()
}

fn answer(index: &Index, q: &SparseVector) -> Vec<SearchHit> {
    index
        .search(&common::in_process_request(q, None))
        .expect("in-process search")
        .into_hits()
}
