//! `servebench` — the served-traffic benchmark of the PLSH workspace.
//!
//! ```text
//! servebench --workload <search_static|ingest_durable|stream_mixed>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from `--seed` (the program under test
//! only ever sees the generated vectors), serves a real `plsh::Index`
//! on a loopback listener, drives it from this process with at most two
//! generator threads over at most two keep-alive connections, checks the
//! answers, and prints its metrics. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. The
//! line before it records the host, the seed and the code under test.
//!
//! `--trace 0` prints the end-to-end metrics every workload gates on
//! ([`END_TO_END`], chosen for staying steady on a shared virtual
//! machine); every figure it measured goes to standard error. `--trace 1`
//! runs the measured phase twice — once as served normally, once behind the
//! span-recording backend wrapper — and prints every per-layer metric
//! (zero for layers the workload bypasses), the untraced phase's figures
//! as `served.*`, and `trace.overhead_pct.*`.
//!
//! Seeds: `--seed` defaults to 1. Seed 20131126 is held out: no run that
//! tuned this benchmark used it, so a claimed gain can be re-checked on
//! inputs the change was not developed against.
//!
//! A wrong answer prints `"correct": false` and exits with status 1; it
//! never becomes a metric. Why each workload exists, what it loads, and
//! what each layer metric should do is documented in its module.

mod common;
mod gen;
mod ingest_durable;
mod search_static;
mod stats;
mod stream_mixed;
mod sys;
mod trace;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use plsh::server::Json;

use common::Report;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    };
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// The end-to-end figures every workload prints with `--trace 0`, the
/// same names in every workload:
/// - `setup_s`: the CPU time of a set-up — input generation, build or
///   preload, merge, bind — median of three (see `common::setup_s`).
/// - `server_cpu_us_per_req`: the server's CPU time per HTTP request over
///   the measured phase (a search, a 500-doc ingest, or the stream's mix
///   of 90-doc ingests and searches at a fixed ratio).
/// - `recall`: the R-near neighbours of a query sample, on the quiesced
///   live points, that the wire answers return.
///
/// Wall-clock figures (latencies, throughput, ladder rate, recovery
/// time) are measured too, but on a shared virtual machine they follow
/// the hypervisor's steal of the host's CPU (0–33%, changing over
/// minutes) beyond any bound that could catch a regression; they go to
/// standard error and, in the traced run, to `served.*`. CPU time is not
/// charged for stolen time, which makes `server_cpu_us_per_req` the
/// steadiest cost figure; it still moves with the host (ten seeds of
/// `search_static` spread by 11–20% between quartiles, which is why that
/// workload is not in `BENCHMARK.json`). `rss_mb` goes there
/// too: a streaming index's resident set swings with its merge cycle and
/// with what the allocator's arenas keep, and ten seeds of
/// `ingest_durable` spread by 17.5% between quartiles.
pub const END_TO_END: [&str; 3] = ["setup_s", "server_cpu_us_per_req", "recall"];

static START: OnceLock<Instant> = OnceLock::new();

/// When the process started (first read in `main`).
pub fn process_start() -> Instant {
    *START.get_or_init(Instant::now)
}

static PINNED_MAX: AtomicUsize = AtomicUsize::new(0);

/// Records a pinned-worker high-water mark for the host line.
pub fn note_pinned(n: usize) {
    PINNED_MAX.fetch_max(n, Ordering::Relaxed);
}

/// Identifies the code under test: the git commit when the checkout is a
/// repository, otherwise a fingerprint of the workspace sources (the
/// benchmark runs from plain source trees too).
fn code_version() -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(out) = git {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_string();
        }
    }
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor"] {
        collect_files(std::path::Path::new(root), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("tree-{h:016x}")
}

fn collect_files(path: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    match std::fs::read_dir(path) {
        Ok(entries) => {
            for e in entries.flatten() {
                collect_files(&e.path(), out);
            }
        }
        Err(_) if path.is_file() => out.push(path.to_path_buf()),
        Err(_) => {}
    }
}

fn host_line(args: &Args) -> String {
    Json::obj(vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("trace", Json::Bool(args.trace)),
        ("code", Json::Str(code_version())),
        (
            "host_threads",
            Json::Num(plsh::parallel::affinity::host_threads() as f64),
        ),
        (
            "simd",
            Json::Str(plsh::core::simd::level().name().to_string()),
        ),
        (
            "pinned_workers_max",
            Json::Num(PINNED_MAX.load(Ordering::Relaxed) as f64),
        ),
    ])
    .to_string()
}

fn result_line(correct: bool, report: &Report) -> String {
    let metrics = Json::Obj(
        report
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    );
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", metrics),
    ])
    .to_string()
}

fn main() {
    process_start();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "search_static" => search_static::run(&args),
        "ingest_durable" => ingest_durable::run(&args),
        "stream_mixed" => stream_mixed::run(&args),
        other => {
            eprintln!("servebench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    // Only an empty root: each run removes its own directory.
    let _ = std::fs::remove_dir(common::WORK_ROOT);
    println!("{}", host_line(&args));
    match result {
        Ok(mut report) => {
            if !args.trace {
                // Every figure goes to standard error; the result line
                // carries the gated ones.
                eprintln!("figures: {}", result_line(true, &report));
                report
                    .metrics
                    .retain(|(name, _, _)| END_TO_END.contains(&name.as_str()));
                if let Some(missing) = END_TO_END.iter().find(|m| report.get(m).is_none()) {
                    eprintln!("servebench: {} measured no {missing}", args.workload);
                    std::process::exit(1);
                }
            }
            println!("{}", result_line(true, &report));
        }
        Err(e) => {
            eprintln!("servebench: correctness check failed: {e}");
            println!("{}", result_line(false, &Report::default()));
            std::process::exit(1);
        }
    }
}
