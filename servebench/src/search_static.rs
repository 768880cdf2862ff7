//! `search_static`: open-loop radius search against a fully merged,
//! DRAM-sized index.
//!
//! **Why this workload.** It isolates the read path the paper optimizes
//! (Q1 sketch, Q2 bucket reads and bitvector dedup, Q3 distance filter)
//! behind the wire surface. The static tables of 250K docs at k=14, m=16
//! (120 tables) are about 122 MiB, larger than this host's 105 MiB L3, so
//! bucket reads go to DRAM as they do at the paper's scale.
//!
//! **Not in `BENCHMARK.json`.** It runs with `--workload search_static`
//! and prints the same figures as the other workloads, but it is not one
//! of the benchmark's gated workloads: on a shared 2-vCPU virtual machine
//! even its CPU time per request follows the host, spreading by 11–20%
//! between quartiles over ten seeds (460–645 µs; a run of the same seed
//! read 489–537 µs minutes apart), too close to the 25% bound a
//! regression gate can carry. Its latencies and ladder rate spread more
//! (p50 0.67–1.64 ms and ladder 3583–5160 req/s across runs whose steal
//! ranged 0–17%). Use it to study a read-path change, over several runs.
//!
//! **Layers loaded:** gen, server, codec, engine, query, mem, parallel.
//! **Layers bypassed (read 0):** merge, persist, cluster, window; ingest
//! codec and engine ingest spans.
//!
//! **Predicted direction of each layer metric** when that layer gets
//! faster or leaner:
//! - `server.io_us_*` and `server.queue_depth_max` fall → `search_p50_ms`
//!   falls and `search_max_qps` rises (micro-batching, event loop).
//! - `codec.search_decode_us`/`encode_us` fall → `search_p50_ms` falls by
//!   at most their sum.
//! - `engine.search_us_*`, `query.q2_us`, `query.q3_us` fall (prefetch,
//!   kernels) → `search_p50_ms`/`search_p90_ms` fall, `search_max_qps`
//!   rises; `query.*_model_ratio` falls toward 1.
//! - `query.collisions`, `unique_candidates`, `matches` are fixed by the
//!   parameters: a change that moves them changes answers (see `recall`).
//! - `merge.*`, `persist.*`, `cluster.*`, `window.*` stay 0: a change
//!   there cannot move this workload's numbers.

use std::time::{Duration, Instant};

use plsh::workload::{QuerySet, SyntheticCorpus};
use plsh::{Index, PlshParams, SparseVector};

use crate::common::{self, Layers, Report, Sampler, Served, LIMIT_MS};
use crate::gen::{self, Conn, Run, Schedule};
use crate::stats::{self, percentile, Step};
use crate::Args;

const DOCS: usize = 250_000;
const K: u32 = 14;
const M: u32 = 16;
const RADIUS: f64 = 0.9;
/// Distinct queries cycled through by the open loop.
const QUERY_POOL: usize = 2_000;
/// Queries checked against in-process answers and ground truth.
const SAMPLE: usize = 800;
/// Fixed-rate phase: requests per second over both connections, about a
/// quarter of the rate the ladder reaches on a 2-thread host, so the
/// figures describe service time plus light queueing, not saturation,
/// even when the host lends the process less CPU.
const FIXED_QPS: f64 = 500.0;
/// Share of `--seconds` given to the fixed-rate phase; the ladder gets
/// the rest and stops early at its first failing rung.
const FIXED_SHARE: f64 = 0.35;
/// Latency percentiles are taken per window of this many seconds and the
/// median window is reported.
const WINDOW_S: f64 = 0.5;
/// Ladder: first rung, coarse and fine growth per rung, requests per rung
/// (so that its p99 has at least ten samples beyond it), shortest rung,
/// and tries per rung.
const LADDER_FROM: f64 = 1_000.0;
const COARSE: f64 = 1.2;
const FINE: f64 = 1.05;
const RUNG_REQUESTS: f64 = 1_100.0;
const RUNG_MIN: Duration = Duration::from_millis(400);
/// A descheduling just before a try ends leaves a long queue at any rate;
/// five tries make a rung fail only when the rate, not one stall, is the
/// cause.
const RUNG_TRIES: usize = 5;
const SETUPS: usize = 3;

struct Setup {
    corpus: SyntheticCorpus,
    index: Index,
    served: Served,
}

fn setup(seed: u64) -> Setup {
    let corpus = common::corpus(DOCS, seed);
    let params = PlshParams::builder(corpus.dim())
        .k(K)
        .m(M)
        .radius(RADIUS)
        .seed(common::HASH_SEED)
        .build()
        .expect("valid parameters");
    let index = Index::builder(params)
        .capacity(DOCS)
        .manual_merge()
        .build()
        .expect("build index");
    index.add_batch(corpus.vectors()).expect("load corpus");
    index.merge().expect("merge to static");
    let served = common::serve(&index, false);
    Setup {
        corpus,
        index,
        served,
    }
}

/// Runs one open-loop phase at `qps` over two connections for `length`.
fn phase(
    conns: &mut [Conn; 2],
    requests: &[Vec<u8>],
    qps: f64,
    length: Duration,
    keep: bool,
    sampler: &mut Sampler,
) -> [Run; 2] {
    let interval = Duration::from_secs_f64(2.0 / qps);
    let count = ((length.as_secs_f64() * qps / 2.0).round() as usize).max(1);
    let start = Instant::now() + Duration::from_millis(2);
    let schedule = |offset, first| Schedule {
        start,
        offset,
        interval,
        count,
        requests,
        first,
        drain: Duration::from_secs(2),
    };
    let [c0, c1] = conns;
    std::thread::scope(|s| {
        let second = s.spawn(|| {
            let sched = schedule(interval / 2, requests.len() / 2);
            gen::open_loop(c1, &sched, keep, &mut |_, _| None)
        });
        let first = gen::open_loop(c0, &schedule(Duration::ZERO, 0), keep, &mut |_, now| {
            Some(sampler.tick(now))
        });
        [first, second.join().expect("generator thread")]
    })
}

fn connect(served: &Served) -> [Conn; 2] {
    let c = || Conn::connect(served.addr()).expect("connect to the server");
    [c(), c()]
}

/// `search_p50_ms` / `search_p90_ms` of a fixed-rate phase.
fn search_latency(runs: &[Run; 2], out: &mut Report, sampler: &Sampler) {
    let records: Vec<&gen::Record> = runs.iter().flat_map(|r| r.records.iter()).collect();
    let min = (FIXED_QPS * WINDOW_S / 2.0) as usize;
    for (name, p) in [("search_p50_ms", 50.0), ("search_p90_ms", 90.0)] {
        out.put(
            name,
            common::windowed_latency(&records, WINDOW_S, p, min, sampler),
            "ms",
        );
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut current: Option<Setup> = None;
    for i in 0..SETUPS {
        let clock = common::SetupClock::start(i == 0);
        if let Some(old) = current.take() {
            old.served.server.shutdown();
        }
        current = Some(setup(args.seed));
        setups.push(clock.stop());
    }
    let Setup {
        corpus,
        index,
        served,
    } = current.expect("at least one setup");

    let queries = QuerySet::sample_from_corpus(&corpus, QUERY_POOL, args.seed ^ 0x9E37_79B9);
    let requests: Vec<Vec<u8>> = queries
        .queries()
        .iter()
        .map(|q| common::search_request(q, None))
        .collect();
    let mut out = Report::default();
    common::setup_s(&setups, &mut out);

    let mut conns = connect(&served);
    let mut sampler = Sampler::new(&index, false);
    let seconds = args.seconds as f64;
    let fixed = Duration::from_secs_f64(seconds * FIXED_SHARE);
    // Warm-up (unmeasured): caches, lazily allocated buffers, TCP windows.
    phase(
        &mut conns,
        &requests,
        FIXED_QPS,
        Duration::from_millis(300),
        false,
        &mut sampler,
    );
    sampler.begin();
    let cpu0 = crate::sys::process_cpu();
    let fixed_runs = phase(&mut conns, &requests, FIXED_QPS, fixed, false, &mut sampler);
    let fixed_refs = [&fixed_runs[0], &fixed_runs[1]];
    let sent = fixed_runs.iter().map(Run::attempted).sum();
    common::cpu_per_req(common::server_cpu(cpu0, &fixed_refs), sent, &mut out);
    search_latency(&fixed_runs, &mut out, &sampler);
    out.tally(&[&fixed_runs[0], &fixed_runs[1]]);

    let max_qps = ladder(
        &mut conns,
        &requests,
        seconds * (1.0 - FIXED_SHARE),
        &mut sampler,
        &mut out,
    );
    out.put("search_max_qps", max_qps, "req/s");
    common::rss_mb(&sampler, &mut out);
    crate::note_pinned(sampler.pinned_workers_max);
    drop(conns);
    if args.trace {
        let layers = traced_phase(&index, &requests, fixed, &out, &sampler);
        return finish(args, &corpus, &index, served, layers);
    }
    finish(args, &corpus, &index, served, out)
}

/// The ascending rate ladder, within `budget_s` seconds: coarse rungs
/// (×`COARSE`) up to the first failing one, then fine rungs (×`FINE`) up
/// from the last passing rate. Returns the highest passing rate (0 when
/// the first rung fails).
fn ladder(
    conns: &mut [Conn; 2],
    requests: &[Vec<u8>],
    budget_s: f64,
    sampler: &mut Sampler,
    out: &mut Report,
) -> f64 {
    let deadline = Instant::now() + Duration::from_secs_f64(budget_s);
    let mut climb = |from: f64, growth: f64, below: f64, out: &mut Report| {
        let mut rungs: Vec<Vec<Step>> = Vec::new();
        let mut rate = from;
        while rate < below {
            let tries = rung(conns, requests, rate, deadline, sampler, out);
            if tries.is_empty() {
                break; // out of budget
            }
            let passed = stats::rung_passes(&tries, LIMIT_MS);
            rungs.push(tries);
            if !passed {
                break;
            }
            rate *= growth;
        }
        rungs
    };
    let coarse = climb(LADDER_FROM, COARSE, f64::INFINITY, out);
    let Some(pass) = stats::max_passing_rate(&coarse, LIMIT_MS) else {
        return 0.0;
    };
    let fail = coarse
        .last()
        .and_then(|tries| tries.first())
        .map_or(f64::INFINITY, |s| s.rate);
    let fine = climb(pass * FINE, FINE, fail, out);
    stats::max_passing_rate(&fine, LIMIT_MS).unwrap_or(pass)
}

/// Up to `RUNG_TRIES` tries of one rung, stopping at the first pass;
/// empty when the budget cannot fit a try.
fn rung(
    conns: &mut [Conn; 2],
    requests: &[Vec<u8>],
    rate: f64,
    deadline: Instant,
    sampler: &mut Sampler,
    out: &mut Report,
) -> Vec<Step> {
    let length = Duration::from_secs_f64(RUNG_REQUESTS / rate).max(RUNG_MIN);
    let mut tries = Vec::new();
    while tries.len() < RUNG_TRIES && Instant::now() + length <= deadline {
        let runs = phase(conns, requests, rate, length, false, sampler);
        out.tally(&[&runs[0], &runs[1]]);
        let lat: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.records.iter())
            .map(|r| r.latency_ms().unwrap_or(f64::INFINITY))
            .collect();
        let step = Step {
            rate,
            p50_ms: percentile(&lat, 50.0),
            p99_ms: percentile(&lat, 99.0),
            failed: runs[0].failed() + runs[1].failed(),
            backlog: runs.iter().map(backlog_at_end).sum(),
        };
        eprintln!(
            "ladder: {:.0} req/s p50 {:.2} ms p99 {:.2} ms failed {} backlog {}",
            step.rate, step.p50_ms, step.p99_ms, step.failed, step.backlog
        );
        tries.push(step);
        if step.passes(LIMIT_MS) {
            break;
        }
    }
    tries
}

/// The traced twin of the fixed-rate phase: the same index behind the
/// span-recording wrapper on a second listener.
fn traced_phase(
    index: &Index,
    requests: &[Vec<u8>],
    fixed: Duration,
    untraced: &Report,
    sampler: &Sampler,
) -> Report {
    let traced = common::serve(index, true);
    let spans_of = |t: &Served| t.traced.as_ref().expect("traced server").take();
    let mut conns = connect(&traced);
    let mut full = Sampler::new(index, true);
    phase(
        &mut conns,
        requests,
        FIXED_QPS,
        Duration::from_millis(300),
        false,
        &mut full,
    );
    spans_of(&traced);
    let merges_before = index.stats().merges;
    let retries_before = index.health().persist_retries;
    let runs = phase(&mut conns, requests, FIXED_QPS, fixed, true, &mut full);
    let spans = spans_of(&traced);
    let mut traced_e2e = Report::default();
    search_latency(&runs, &mut traced_e2e, &full);
    full.pinned_workers_max = full.pinned_workers_max.max(sampler.pinned_workers_max);
    crate::note_pinned(full.pinned_workers_max);
    let mut layers = Report::default();
    common::layer_metrics(
        &Layers {
            index,
            served: &traced,
            runs: vec![&runs[0], &runs[1]],
            requests: vec![requests, requests],
            spans: &spans,
            sampler: &full,
            merges_before,
            persist_retries_before: retries_before,
            dir: None,
            top_k: None,
        },
        &mut layers,
    );
    common::trace_overhead(untraced, &traced_e2e, &mut layers);
    common::served_figures(untraced, &mut layers);
    layers.tally(&[&runs[0], &runs[1]]);
    layers.attempted += untraced.attempted;
    layers.failed += untraced.failed;
    drop(conns);
    traced.server.shutdown();
    layers
}

/// Requests of a run still unanswered when its last one fell due.
fn backlog_at_end(run: &Run) -> usize {
    let Some(last_due) = run.records.last().map(|r| r.due) else {
        return 0;
    };
    run.records
        .iter()
        .filter(|r| r.done.is_none_or(|d| d > last_due))
        .count()
}

/// Correctness gate and recall, after the measured phases.
fn finish(
    args: &Args,
    corpus: &SyntheticCorpus,
    index: &Index,
    served: Served,
    mut out: Report,
) -> Result<Report, String> {
    let sample_set = QuerySet::sample_from_corpus(corpus, SAMPLE, args.seed ^ 0xC0FFEE);
    let sample: Vec<SparseVector> = sample_set.queries().to_vec();
    let wire = common::check_wire_matches(served.addr(), index, &sample, None);
    served.server.shutdown();
    let wire = wire?;
    if !args.trace {
        out.put("recall", common::recall(index, &sample, &wire), "fraction");
    }
    Ok(out)
}
