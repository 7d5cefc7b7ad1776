//! Timing helpers shared by the workloads.
//!
//! The host this benchmark was tuned on swings a core's speed by up to
//! 1.6x for seconds at a time (other tenants), in both wall and CPU time.
//! A mean or median over a run moves with those swings, and so does the
//! fast decile of whole rounds (see README.md). So every timed phase
//! repeats identical rounds of work and each operation keeps its best
//! round ([`BestOf`]): what the program does while it has the core.

use crate::Report;
use std::time::{Duration, Instant};

/// Times one call, passing its result through `black_box`.
fn timed<T>(call: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = std::hint::black_box(call());
    (out, start.elapsed())
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Latencies of a phase whose rounds repeat the same operations in the
/// same order: each operation keeps its best time over the rounds.
pub struct BestOf {
    best: Vec<Duration>,
    next: usize,
    rounds: usize,
    total: Duration,
    last: Duration,
}

impl BestOf {
    pub fn new(operations: usize) -> BestOf {
        BestOf {
            best: vec![Duration::MAX; operations],
            next: 0,
            rounds: 0,
            total: Duration::ZERO,
            last: Duration::ZERO,
        }
    }

    /// Times the next operation of the current round.
    pub fn time<T>(&mut self, call: impl FnOnce() -> T) -> T {
        let (out, took) = timed(call);
        self.total += took;
        self.last = took;
        let best = &mut self.best[self.next];
        *best = (*best).min(took);
        self.next += 1;
        out
    }

    pub fn end_round(&mut self) {
        assert_eq!(self.next, self.best.len(), "a round times every operation");
        self.next = 0;
        self.rounds += 1;
    }

    /// Duration of the most recent call.
    pub fn last(&self) -> Duration {
        self.last
    }

    /// Summed time of every call so far: the phase's length.
    pub fn total(&self) -> Duration {
        self.total
    }

    /// Calls per second over all rounds, without taking bests: what
    /// `trace.overhead_pct` compares.
    pub fn mean_per_second(&self) -> f64 {
        (self.rounds * self.best.len()) as f64 / self.total.as_secs_f64().max(1e-9)
    }

    /// Sets `calls_per_s` (operations over their summed best times) and
    /// the percentiles of the best times.
    pub fn report(&self, workload: &str, report: &mut Report) {
        let ms = sorted(self.best.iter().map(|d| d.as_secs_f64() * 1e3).collect());
        let p95 = percentile(&ms, 0.95);
        println!(
            "{workload}: call_p95_ms over the best of {} rounds of {} calls, {} beyond it",
            self.rounds,
            ms.len(),
            ms.iter().filter(|&&v| v > p95).count()
        );
        report.set(
            "calls_per_s",
            ms.len() as f64 / ms.iter().sum::<f64>() * 1e3,
        );
        report.set("call_p50_ms", percentile(&ms, 0.50));
        report.set("call_p95_ms", p95);
    }
}

/// Set-up durations collected through a run; `setup_s` is their median.
/// Workloads whose set-up is cheap repeat it between rounds, so the
/// median spans the run rather than one moment of it.
#[derive(Default)]
pub struct Setups(Vec<f64>);

impl Setups {
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let (out, took) = timed(setup);
        self.0.push(took.as_secs_f64());
        out
    }

    pub fn median(&self) -> f64 {
        percentile(&sorted(self.0.clone()), 0.5)
    }
}

/// FNV-1a over a stream of bytes: the digest of a run's verdicts that
/// the determinism self-check compares.
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 10.0);
        assert_eq!(percentile(&v, 0.95), 19.0);
        assert_eq!(percentile(&v, 0.10), 2.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn best_of_keeps_each_operation_fastest_round() {
        let mut calls = BestOf::new(2);
        for _ in 0..3 {
            calls.time(|| ());
            calls.time(|| std::thread::sleep(Duration::from_millis(2)));
            calls.end_round();
        }
        let mut report = Report::default();
        calls.report("test", &mut report);
        assert!(report.metrics["call_p95_ms"] >= 2.0);
        assert!(report.metrics["call_p50_ms"] < 2.0);
    }
}
