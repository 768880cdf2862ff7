//! Summary statistics the benchmark reports: nearest-rank percentiles with
//! their sample support, span self time, and the rate ladder's stopping
//! rule.

use std::time::{Duration, Instant};

/// Nearest-rank percentile `p` (0–100) of `values`, which need not be
/// sorted. `NaN` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p)]
}

/// Zero-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly above the nearest-rank percentile `p` in a sample of
/// `n`: a percentile is only reported as measured when at least ten
/// samples lie beyond it.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// Whether a sample of `n` supports percentile `p` (ten samples beyond it).
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, p) >= 10
}

/// Median of `values` (nearest rank); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A timed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    pub start: Instant,
    pub end: Instant,
}

impl Interval {
    pub fn len(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

/// Self time of a span: its duration minus the part of it that its child
/// spans cover (children are clipped to the parent and overlaps between
/// children count once).
pub fn self_time(parent: Interval, children: &[Interval]) -> Duration {
    let mut clipped: Vec<(Instant, Instant)> = children
        .iter()
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort();
    let mut covered = Duration::ZERO;
    let mut cursor = parent.start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    parent.len().saturating_sub(covered)
}

/// One rung of the ascending rate ladder.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Median latency (from due time) of the rung's requests, ms.
    pub p50_ms: f64,
    /// p99 latency of the rung's requests, ms (reported, not judged: see
    /// [`Step::passes`]).
    pub p99_ms: f64,
    /// Requests that failed, were shed, or were never answered.
    pub failed: usize,
    /// Requests still unanswered when the rung's schedule ended.
    pub backlog: usize,
}

impl Step {
    /// A rung passes when nothing failed, its median meets the limit, and
    /// the queue left at the end of the schedule is no more than the
    /// limit's worth of requests at this rate (a longer queue is still
    /// growing). The limit judges the median, not the p99: on a shared
    /// virtual machine the hypervisor deschedules the process for 10–70 ms
    /// at a time, which puts the p99 over a 10 ms limit at any rate, while
    /// a rate the server cannot sustain still grows the queue.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.failed == 0
            && self.p50_ms <= limit_ms
            && (self.backlog as f64) <= self.rate * limit_ms / 1e3
    }
}

/// A rung passes when any of its tries passes: one retry absorbs a
/// transient stall (the host descheduling the process for a few ms),
/// while a rate the server cannot sustain fails every try.
pub fn rung_passes(tries: &[Step], limit_ms: f64) -> bool {
    tries.iter().any(|s| s.passes(limit_ms))
}

/// The ladder's answer: the highest rate reached by passing rungs in
/// order, stopping at the first rung that fails (later rungs never
/// count). `None` when the first rung fails.
pub fn max_passing_rate(rungs: &[Vec<Step>], limit_ms: f64) -> Option<f64> {
    rungs
        .iter()
        .take_while(|tries| rung_passes(tries, limit_ms))
        .last()
        .and_then(|tries| tries.first())
        .map(|s| s.rate)
}

/// Splits `(seconds since the phase began, value)` samples into
/// consecutive windows of `window` seconds; returns each window's start and
/// values, dropping windows with fewer than `min_samples` (the ragged
/// tail).
pub fn windows(samples: &[(f64, f64)], window: f64, min_samples: usize) -> Vec<(f64, Vec<f64>)> {
    let mut out: Vec<Vec<f64>> = Vec::new();
    for &(t, v) in samples {
        let w = (t / window).floor().max(0.0) as usize;
        if out.len() <= w {
            out.resize_with(w + 1, Vec::new);
        }
        out[w].push(v);
    }
    out.into_iter()
        .enumerate()
        .filter(|(_, v)| v.len() >= min_samples.max(1))
        .map(|(i, v)| (i as f64 * window, v))
        .collect()
}

/// Median of per-window figures over the cleaner half of the windows,
/// ranked by the share of CPU time the hypervisor stole from the host in
/// each (`(steal share, figure)` pairs; an unknown share ranks last).
///
/// On a shared virtual machine, steal arrives in bursts of tens of ms that
/// stall every thread of the program at once; a window that caught one
/// measures the neighbours, not the program. Keeping the cleaner half (at
/// least one window) makes the figure describe the program whenever the
/// host gave it its CPUs for half the phase.
pub fn cleaner_half_median(per_window: &[(f64, f64)]) -> f64 {
    let mut ranked: Vec<(f64, f64)> = per_window.to_vec();
    ranked.sort_by(|a, b| {
        let key = |s: f64| if s.is_nan() { f64::INFINITY } else { s };
        key(a.0).total_cmp(&key(b.0))
    });
    ranked.truncate(per_window.len().div_ceil(2));
    let figures: Vec<f64> = ranked.iter().map(|w| w.1).collect();
    median(&figures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_and_support() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
        // Order of the input does not matter.
        let mut rev = v.clone();
        rev.reverse();
        assert_eq!(percentile(&rev, 90.0), 90.0);
        // p99 of 100 samples leaves one beyond it: not supported; of 1100
        // samples, eleven: supported.
        assert_eq!(beyond(100, 99.0), 1);
        assert!(!supports(100, 99.0));
        assert_eq!(beyond(1100, 99.0), 11);
        assert!(supports(1100, 99.0));
        assert!(supports(20, 50.0));
        assert_eq!(beyond(0, 50.0), 0);
    }

    #[test]
    fn self_time_subtracts_clipped_union_of_children() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let iv = |a, b| Interval {
            start: at(a),
            end: at(b),
        };
        let parent = iv(0, 100);
        assert_eq!(self_time(parent, &[]), Duration::from_micros(100));
        assert_eq!(self_time(parent, &[iv(10, 30)]), Duration::from_micros(80));
        // Overlapping children count once; parts outside the parent are
        // clipped away.
        assert_eq!(
            self_time(parent, &[iv(10, 30), iv(20, 40), iv(90, 150)]),
            Duration::from_micros(60)
        );
        // A child covering everything leaves no self time.
        assert_eq!(self_time(parent, &[iv(0, 100)]), Duration::ZERO);
        // Children entirely outside do not count.
        assert_eq!(
            self_time(iv(50, 60), &[iv(0, 40), iv(70, 80)]),
            Duration::from_micros(10)
        );
    }

    #[test]
    fn ladder_stops_at_first_failing_rung() {
        let step = |rate, p50_ms, failed, backlog| {
            vec![Step {
                rate,
                p50_ms,
                p99_ms: 50.0,
                failed,
                backlog,
            }]
        };
        let rungs = [
            step(1000.0, 2.0, 0, 0),
            step(2000.0, 4.0, 0, 1),
            step(3000.0, 12.0, 0, 2),
            // Passes again, but after a failure: never counted.
            step(4000.0, 3.0, 0, 0),
        ];
        assert_eq!(max_passing_rate(&rungs, 10.0), Some(2000.0));
        // A failed or shed request fails the rung even under the limit.
        let shed = [step(1000.0, 2.0, 0, 0), step(2000.0, 2.0, 1, 0)];
        assert_eq!(max_passing_rate(&shed, 10.0), Some(1000.0));
        // A queue longer than the limit's worth of requests is growing.
        let backlog = [step(1000.0, 2.0, 0, 10), step(2000.0, 2.0, 0, 21)];
        assert_eq!(max_passing_rate(&backlog, 10.0), Some(1000.0));
        assert_eq!(max_passing_rate(&[step(1000.0, 11.0, 0, 0)], 10.0), None);
        assert_eq!(max_passing_rate(&[], 10.0), None);
    }

    #[test]
    fn a_retry_absorbs_one_stall_but_not_saturation() {
        let t = |rate, backlog| Step {
            rate,
            p50_ms: 1.0,
            p99_ms: 40.0,
            failed: 0,
            backlog,
        };
        let rungs = vec![
            vec![t(1000.0, 2)],
            // Stalled just before the schedule ended once, passed on the
            // retry.
            vec![t(1100.0, 30), t(1100.0, 3)],
            // Saturated: the queue grows on both tries.
            vec![t(1210.0, 40), t(1210.0, 55)],
        ];
        assert!(rung_passes(&rungs[1], 10.0));
        assert!(!rung_passes(&rungs[2], 10.0));
        assert_eq!(max_passing_rate(&rungs, 10.0), Some(1100.0));
    }

    #[test]
    fn windows_split_by_time_and_drop_the_ragged_tail() {
        let samples = [
            (0.1, 1.0),
            (0.4, 2.0),
            (0.6, 3.0),
            (1.2, 4.0),
            (1.3, 5.0),
            (2.9, 6.0),
        ];
        let w = windows(&samples, 0.5, 1);
        assert_eq!(
            w,
            vec![
                (0.0, vec![1.0, 2.0]),
                (0.5, vec![3.0]),
                (1.0, vec![4.0, 5.0]),
                (2.5, vec![6.0])
            ]
        );
        let w2 = windows(&samples, 0.5, 2);
        assert_eq!(w2.len(), 2);
        assert!(windows(&[], 1.0, 1).is_empty());
    }

    #[test]
    fn cleaner_half_ignores_the_stolen_windows() {
        // Six windows: three clean at ~1 ms, three that lost CPU to the
        // hypervisor at ~9 ms. The cleaner half decides.
        let w = [
            (0.30, 9.0),
            (0.01, 1.0),
            (0.25, 8.0),
            (0.00, 1.2),
            (0.02, 0.9),
            (0.40, 9.5),
        ];
        assert_eq!(cleaner_half_median(&w), 1.0);
        // Odd counts keep the larger half; unknown shares rank last.
        let odd = [(f64::NAN, 50.0), (0.1, 2.0), (0.2, 3.0)];
        assert_eq!(cleaner_half_median(&odd), 2.0);
        assert!(cleaner_half_median(&[]).is_nan());
    }
}
