//! The benchmark's own statistics: percentiles with a sample-count rule,
//! open-loop timing from due times, and failure accounting.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank index of quantile `q` in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Median of `samples` (mean of the middle two for an even count).
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// The nearest-rank `q` quantile of `sorted`, but only when at least
/// [`TAIL_MIN_BEYOND`] samples lie beyond it — a p99 from 200 samples
/// is really the maximum and is not reported. `None` otherwise.
pub fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = rank(sorted.len(), q);
    (sorted.len() - 1 - idx >= TAIL_MIN_BEYOND).then(|| sorted[idx])
}

/// Samples needed before [`tail`] reports quantile `q`.
pub fn samples_for_tail(q: f64) -> usize {
    (TAIL_MIN_BEYOND as f64 / (1.0 - q)).round() as usize
}

/// A latency distribution: the p50 and the p99 under the tail rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Samples behind the figures.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile, when the tail rule admits it.
    pub p99: Option<f64>,
}

impl Latency {
    /// Summarizes `samples` (any order); `None` when empty.
    pub fn of(samples: &mut [f64]) -> Option<Latency> {
        samples.sort_by(f64::total_cmp);
        Some(Latency { n: samples.len(), p50: median(samples)?, p99: tail(samples, 0.99) })
    }
}

/// A clock the open-loop sender reads and sleeps on, in nanoseconds
/// since the region start. Abstracted so tests can script stalls.
pub trait Clock {
    /// Nanoseconds since the region start.
    fn now(&mut self) -> u64;
    /// Blocks until `now() >= at`.
    fn sleep_until(&mut self, at: u64);
}

/// The wall clock, anchored at a chosen instant.
pub struct WallClock(std::time::Instant);

impl WallClock {
    /// A clock whose zero is `origin` (which may lie in the future).
    pub fn at(origin: std::time::Instant) -> Self {
        WallClock(origin)
    }
}

impl Clock for WallClock {
    fn now(&mut self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn sleep_until(&mut self, at: u64) {
        let now = self.now();
        if at > now {
            std::thread::sleep(std::time::Duration::from_nanos(at - now));
        }
    }
}

/// Per-request timings of an open-loop run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpenLoopTimes {
    /// Completion minus due time, ns: includes any wait a stalled
    /// earlier response imposed on this request's send.
    pub latency_ns: Vec<u64>,
    /// Send minus due time, ns: how late the generator ran.
    pub late_ns: Vec<u64>,
}

/// Drives synchronous request/response exchanges on a fixed schedule:
/// request `i` is sent at `dues[i]` or, when the previous response came
/// back later than that, immediately after it. Latency counts from the
/// due time, never from the (possibly delayed) send, so a stall shows in
/// every request it held back, not just in the one that stalled.
pub fn run_open_loop<C: Clock>(
    clock: &mut C,
    dues: &[u64],
    mut exchange: impl FnMut(&mut C, usize) -> Result<(), String>,
) -> Result<OpenLoopTimes, String> {
    let mut out = OpenLoopTimes::default();
    for (i, &due) in dues.iter().enumerate() {
        clock.sleep_until(due);
        out.late_ns.push(clock.now().saturating_sub(due));
        exchange(clock, i)?;
        out.latency_ns.push(clock.now().saturating_sub(due));
    }
    Ok(out)
}

/// Publication outcomes of a run: everything attempted, and every way a
/// publication can fail to count as delivered into the daemon.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PubLedger {
    /// Publications sent.
    pub attempted: u64,
    /// Publications answered by an `Error` frame.
    pub errors: u64,
    /// Publications refused (a draining daemon's `Draining` error).
    pub refused: u64,
    /// Ingests the daemon's queues shed (`richnote_queue_dropped_total`).
    pub shed: u64,
    /// Highest cumulative `PubAck` sequence seen.
    pub acked_through: u64,
}

impl PubLedger {
    /// Publications never acked: sequence numbers run `1..=attempted`
    /// per connection and acks are cumulative.
    pub fn unacked(&self) -> u64 {
        self.attempted.saturating_sub(self.acked_through)
    }

    /// Failed publications: errors + refused + shed + unacked at end.
    pub fn failed(&self) -> u64 {
        self.errors + self.refused + self.shed + self.unacked()
    }

    /// `failed / attempted` (zero when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Adds another connection's ledger.
    pub fn absorb(&mut self, other: &PubLedger) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.refused += other.refused;
        self.shed += other.shed;
        self.acked_through += other.acked_through;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Nearest rank: p99 of 1..=1000 is 990, with 991..=1000 beyond.
        assert_eq!(tail(&thousand, 0.99), Some(990.0));
        let fewer: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&fewer, 0.99), None, "only 9 samples lie beyond the p99 of 999");
        assert_eq!(samples_for_tail(0.99), 1000);
        assert_eq!(samples_for_tail(0.5), 20);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty, 0.5), Some(10.0));
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn median_and_summary() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let mut v: Vec<f64> = (0..2000).rev().map(f64::from).collect();
        let l = Latency::of(&mut v).unwrap();
        assert_eq!((l.n, l.p50, l.p99), (2000, 999.5, Some(1979.0)));
    }

    /// A scripted clock: sleeping jumps forward, each exchange takes its
    /// scripted service time.
    struct Script {
        t: u64,
    }

    impl Clock for Script {
        fn now(&mut self) -> u64 {
            self.t
        }
        fn sleep_until(&mut self, at: u64) {
            self.t = self.t.max(at);
        }
    }

    #[test]
    fn open_loop_latency_counts_from_due_time_through_a_stall() {
        const MS: u64 = 1_000_000;
        let dues = [0, 10 * MS, 20 * MS, 30 * MS, 40 * MS];
        // The second response stalls for 25 ms; the others take 2 ms.
        let service = [2 * MS, 25 * MS, 2 * MS, 2 * MS, 2 * MS];
        let mut clock = Script { t: 0 };
        let times = run_open_loop(&mut clock, &dues, |c, i| {
            c.t += service[i];
            Ok(())
        })
        .unwrap();
        // Request 2 was due at 20 ms but could only go out at 35 ms, and
        // the backlog it left still delays request 3 (due 30, sent 37).
        assert_eq!(times.late_ns, vec![0, 0, 15 * MS, 7 * MS, 0]);
        // Their latencies are 37 − 20 = 17 ms and 39 − 30 = 9 ms, not the
        // 2 ms a send-time clock would report.
        assert_eq!(times.latency_ns, vec![2 * MS, 25 * MS, 17 * MS, 9 * MS, 2 * MS]);
    }

    #[test]
    fn open_loop_stops_at_the_first_failed_exchange() {
        let mut clock = Script { t: 0 };
        let res = run_open_loop(&mut clock, &[0, 5, 10], |_, i| {
            if i == 1 {
                Err("boom".into())
            } else {
                Ok(())
            }
        });
        assert_eq!(res, Err("boom".to_string()));
    }

    #[test]
    fn fail_frac_counts_every_failure_class() {
        let clean = PubLedger { attempted: 100, acked_through: 100, ..PubLedger::default() };
        assert_eq!((clean.failed(), clean.fail_frac()), (0, 0.0));
        let bad = PubLedger { attempted: 100, errors: 2, refused: 1, shed: 3, acked_through: 96 };
        assert_eq!(bad.unacked(), 4);
        assert_eq!(bad.failed(), 10);
        assert!((bad.fail_frac() - 0.1).abs() < 1e-12);
        let mut sum = clean;
        sum.absorb(&bad);
        assert_eq!((sum.attempted, sum.failed()), (200, 10));
        assert_eq!(PubLedger::default().fail_frac(), 0.0);
    }
}
