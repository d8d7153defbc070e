//! The benchmark's own statistics: order statistics over samples, the
//! tail-percentile rule, the serving ladder's capacity rule and the
//! layer-sum check. Pure functions over plain numbers, unit-tested on
//! synthetic inputs.

/// Percentiles a tail may be reported at, highest first. The median is
/// the floor: it is always reported, whatever the sample size.
pub const TAIL_LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// Samples a reported percentile must have strictly above its rank.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile (`q` in `[0, 1]`) of unsorted samples; `+inf`
/// samples (requests that never completed) sort last. Panics on an empty
/// sample, which is a harness bug.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples. The epsilon
/// keeps `0.9 * 100` (which is 90.00000000000001 in f64) at rank 90.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it among `n`, falling back to the median when the sample is too
/// small for any tail.
pub fn tail_quantile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&q| n.saturating_sub(rank(n.max(1), q)) >= MIN_BEYOND)
        .unwrap_or(0.5)
}

/// Median, supported tail and sample count of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// Percentile of `tail` (0.5 when only the median is supported).
    pub tail_q: f64,
    pub tail: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        let tail_q = tail_quantile(samples.len());
        Self {
            n: samples.len(),
            p50: median(samples),
            tail_q,
            tail: quantile(samples, tail_q),
        }
    }
}

/// Whether an open-loop run ended with a growing queue. `latencies` are
/// per-request latencies in arrival order, `+inf` for a request that was
/// refused, shed or failed. The backlog grows when any request went
/// unserved (the queue overflowed or deadlines lapsed) or when the
/// median latency of the last quarter of arrivals exceeds
/// [`BACKLOG_GROWTH`] times that of the first quarter.
pub fn backlog_growing(latencies: &[f64]) -> bool {
    if latencies.iter().any(|l| !l.is_finite()) {
        return true;
    }
    let q = latencies.len() / 4;
    if q == 0 {
        return false;
    }
    let first = median(&latencies[..q]);
    let last = median(&latencies[latencies.len() - q..]);
    last > BACKLOG_GROWTH * first
}

/// Last-quarter over first-quarter median latency beyond which a queue
/// counts as growing.
pub const BACKLOG_GROWTH: f64 = 1.5;

/// One rung of the serving rate ladder, summarised on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    pub rate_rps: f64,
    /// p99 latency over every submitted request, unserved ones as `+inf`.
    pub p99_ms: f64,
    pub backlog_growing: bool,
}

impl Rung {
    pub fn from_latencies(rate_rps: f64, latencies_ms: &[f64]) -> Self {
        Self {
            rate_rps,
            p99_ms: quantile(latencies_ms, 0.99),
            backlog_growing: backlog_growing(latencies_ms),
        }
    }

    pub fn meets(&self, p99_limit_ms: f64) -> bool {
        self.p99_ms <= p99_limit_ms && !self.backlog_growing
    }
}

/// The highest ladder rate whose p99 meets `p99_limit_ms` without a
/// growing backlog; `None` when no rung does.
pub fn max_rate(rungs: &[Rung], p99_limit_ms: f64) -> Option<f64> {
    rungs
        .iter()
        .filter(|r| r.meets(p99_limit_ms))
        .map(|r| r.rate_rps)
        .max_by(f64::total_cmp)
}

/// Relative gap between the sum of the layer parts and the end-to-end
/// wall time they should cover.
pub fn layer_sum_error(end_to_end_s: f64, parts_s: &[f64]) -> f64 {
    let sum: f64 = parts_s.iter().sum();
    if end_to_end_s <= 0.0 {
        return if sum == 0.0 { 0.0 } else { f64::INFINITY };
    }
    (sum - end_to_end_s).abs() / end_to_end_s
}

/// Tolerance of the layer-sum check: the parts may miss or overcount the
/// traced wall time by this share.
pub const LAYER_SUM_TOLERANCE: f64 = 0.02;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank_and_sorts_infinities_last() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(quantile(&s, 0.8), 4.0);
        let with_inf = [f64::INFINITY, 1.0, 2.0];
        assert_eq!(quantile(&with_inf, 1.0), f64::INFINITY);
        assert_eq!(quantile(&with_inf, 0.5), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99.9 needs 10 beyond: n - ceil(0.999 n) >= 10 first holds at n = 10_000.
        assert_eq!(tail_quantile(10_000), 0.999);
        assert_eq!(tail_quantile(9_999), 0.99);
        // p99 first holds at n = 1000 (ceil(990) = 990, 10 beyond).
        assert_eq!(tail_quantile(1_000), 0.99);
        assert_eq!(tail_quantile(999), 0.95);
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(40), 0.75);
        assert_eq!(tail_quantile(39), 0.5);
        assert_eq!(tail_quantile(20), 0.5);
        // Too small for any tail: the median is still reported.
        assert_eq!(tail_quantile(5), 0.5);
        assert_eq!(tail_quantile(0), 0.5);
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.tail_q, 0.9);
        assert_eq!(s.tail, 90.0);
    }

    #[test]
    fn steady_queue_is_not_a_growing_backlog() {
        let flat: Vec<f64> = (0..400).map(|i| 0.3 + 0.01 * (i % 7) as f64).collect();
        assert!(!backlog_growing(&flat));
    }

    #[test]
    fn rising_latency_or_a_lost_request_is_a_growing_backlog() {
        let rising: Vec<f64> = (0..400).map(|i| 0.2 + 0.01 * i as f64).collect();
        assert!(backlog_growing(&rising));
        let mut lost = vec![0.3; 400];
        lost[17] = f64::INFINITY;
        assert!(backlog_growing(&lost));
        // Growth just under the factor does not count.
        let mut mild = vec![1.0; 100];
        mild[75..].fill(1.49);
        assert!(!backlog_growing(&mild));
    }

    #[test]
    fn max_rate_takes_the_highest_rung_meeting_limit_and_backlog_rules() {
        let r = |rate, p99_ms, backlog_growing| Rung {
            rate_rps: rate,
            p99_ms,
            backlog_growing,
        };
        let ladder = [
            r(50e3, 0.9, false),
            r(100e3, 0.5, false),
            r(200e3, 1.9, false),
            // Meets p99 but its queue is growing: not sustainable.
            r(300e3, 1.3, true),
            // Fails the latency limit.
            r(400e3, 2.5, false),
        ];
        assert_eq!(max_rate(&ladder, 2.0), Some(200e3));
        assert_eq!(max_rate(&ladder, 0.4), None);
        // A failing low rung does not cap a passing higher one.
        let odd = [r(50e3, 3.0, false), r(100e3, 1.0, false)];
        assert_eq!(max_rate(&odd, 2.0), Some(100e3));
    }

    #[test]
    fn rung_counts_unserved_requests_against_p99() {
        let mut lat = vec![0.5; 1000];
        for l in lat.iter_mut().take(11) {
            *l = f64::INFINITY;
        }
        let rung = Rung::from_latencies(1e5, &lat);
        assert_eq!(rung.p99_ms, f64::INFINITY);
        assert!(!rung.meets(2.0));
    }

    #[test]
    fn layer_sum_error_is_relative_to_end_to_end() {
        assert_eq!(layer_sum_error(10.0, &[6.0, 4.0]), 0.0);
        assert!((layer_sum_error(10.0, &[6.0, 3.9]) - 0.01).abs() < 1e-12);
        assert!(layer_sum_error(10.0, &[6.0, 3.0]) > LAYER_SUM_TOLERANCE);
        assert!(layer_sum_error(10.0, &[6.0, 4.3]) > LAYER_SUM_TOLERANCE);
        assert_eq!(layer_sum_error(0.0, &[]), 0.0);
        assert_eq!(layer_sum_error(0.0, &[1.0]), f64::INFINITY);
    }
}
