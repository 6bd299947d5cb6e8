//! The benchmark's own arithmetic: percentiles, the "tail" rule, and the
//! goodput-rate selection. Kept free of I/O so the unit tests below pin
//! every rule the reported numbers rest on.

/// Candidate tail percentiles, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a percentile for it to count as
/// the tail.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in `(0, 100]`) of an unsorted sample.
/// Returns `None` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` in a sample of `n`. The small
/// slack keeps binary rounding (99.9 % of 10 000 computes as
/// 9990.000000000002) from pushing an exact rank one place up.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The median (nearest-rank 50th percentile).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// The highest percentile on the ladder with at least [`TAIL_BEYOND`]
/// samples strictly above its rank, and its value. `None` when the
/// sample is too small for even the median to qualify.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    let p = TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n >= 1 && n - rank(n, p) >= TAIL_BEYOND)?;
    percentile(values, p).map(|v| (p, v))
}

/// The value at fixed percentile `p`, provided at least [`TAIL_BEYOND`]
/// samples lie beyond its rank; otherwise `None`.
pub fn tail_at(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || n - rank(n, p) < TAIL_BEYOND {
        return None;
    }
    percentile(values, p)
}

/// Mean of the samples beyond the rank of fixed percentile `p` (the
/// slowest `100 - p` %), provided at least [`TAIL_BEYOND`] lie beyond it;
/// otherwise `None`.
pub fn tail_mean_at(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || n - rank(n, p) < TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(mean(&v[rank(n, p)..]))
}

/// Outcome of one fixed-rate phase of an open-loop run, as the goodput
/// rule sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseOutcome {
    /// Nominal offered rate, requests/s.
    pub rate: f64,
    /// Requests the generator sent (admitted or not).
    pub sent: u64,
    /// Requests that succeeded with a correct output within the latency
    /// limit. Refused, expired, failed and late requests are misses.
    pub on_time: u64,
    /// Whether the sampled backlog grew over the phase.
    pub backlog_grew: bool,
    /// Length of the phase, seconds.
    pub seconds: f64,
}

impl PhaseOutcome {
    /// Share of requests *sent* that finished on time.
    pub fn on_time_share(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.on_time as f64 / self.sent as f64
        }
    }

    /// Whether the phase meets the limit: at least `share` of requests
    /// sent finished on time and the backlog did not grow.
    pub fn meets(&self, share: f64) -> bool {
        self.sent > 0 && self.on_time_share() >= share && !self.backlog_grew
    }
}

/// Goodput: among the phases that meet the limit, the one with the
/// highest nominal rate; reported as its measured on-time completions
/// per second. `None` when no phase meets it.
pub fn goodput(phases: &[PhaseOutcome], share: f64) -> Option<(f64, f64)> {
    phases
        .iter()
        .filter(|p| p.meets(share))
        .max_by(|a, b| a.rate.total_cmp(&b.rate))
        .map(|p| (p.rate, p.on_time as f64 / p.seconds))
}

/// Whether a backlog sampled over a phase grew: the mean of the last
/// quarter of the samples exceeds twice the mean of the first quarter
/// plus one request.
pub fn backlog_grew(samples: &[usize]) -> bool {
    let q = samples.len() / 4;
    if q == 0 {
        return false;
    }
    let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
    mean(&samples[samples.len() - q..]) > 2.0 * mean(&samples[..q]) + 1.0
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = seq(100);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: rank of p99 is 990, leaving exactly 10 beyond.
        assert_eq!(tail(&seq(1000)).map(|t| t.0), Some(99.0));
        // 999 samples: p99 leaves 9 beyond, p95 (rank 950) leaves 49.
        assert_eq!(tail(&seq(999)).map(|t| t.0), Some(95.0));
        // 200 samples: p95 rank 190 leaves exactly 10.
        assert_eq!(tail(&seq(200)), Some((95.0, 190.0)));
        assert_eq!(tail(&seq(199)).map(|t| t.0), Some(90.0));
        assert_eq!(tail(&seq(100)).map(|t| t.0), Some(90.0));
        assert_eq!(tail(&seq(40)).map(|t| t.0), Some(75.0));
        assert_eq!(tail(&seq(20)).map(|t| t.0), Some(50.0));
        // Below 20 samples not even the median has ten beyond it.
        assert_eq!(tail(&seq(19)), None);
        // 10_000 samples: p99.9 rank 9990 leaves 10.
        assert_eq!(tail(&seq(10_000)).map(|t| t.0), Some(99.9));
    }

    #[test]
    fn fixed_tail_refuses_thin_samples() {
        assert_eq!(tail_at(&seq(100), 90.0), Some(90.0));
        assert_eq!(tail_at(&seq(99), 90.0), None);
        assert_eq!(tail_at(&seq(40), 75.0), Some(30.0));
        assert_eq!(tail_at(&[], 50.0), None);
    }

    #[test]
    fn tail_mean_averages_the_samples_beyond() {
        // p90 of 100: rank 90, so the ten samples 91..=100 are averaged.
        assert_eq!(tail_mean_at(&seq(100), 90.0), Some(95.5));
        assert_eq!(tail_mean_at(&seq(200), 95.0), Some(195.5));
        // Unsorted, with ties across the rank: rank 15 of 30 leaves five
        // 3s and ten 5s beyond it.
        assert_eq!(
            tail_mean_at(&[5.0, 1.0, 3.0].repeat(10), 50.0),
            Some(65.0 / 15.0)
        );
        assert_eq!(tail_mean_at(&seq(99), 90.0), None);
        assert_eq!(tail_mean_at(&[], 50.0), None);
    }

    fn phase(rate: f64, sent: u64, on_time: u64, grew: bool) -> PhaseOutcome {
        PhaseOutcome {
            rate,
            sent,
            on_time,
            backlog_grew: grew,
            seconds: 2.0,
        }
    }

    #[test]
    fn goodput_counts_failures_as_misses() {
        // 100 sent, 99 on time: meets 99%. The failed/refused request is
        // simply not on time; it is not removed from the base.
        let ok = phase(10.0, 100, 99, false);
        assert!(ok.meets(0.99));
        // 100 sent, 98 on time (e.g. one expired, one shed): misses.
        let bad = phase(20.0, 100, 98, false);
        assert!(!bad.meets(0.99));
        assert_eq!(goodput(&[ok, bad], 0.99), Some((10.0, 49.5)));
    }

    #[test]
    fn goodput_takes_the_highest_passing_rate_and_rejects_growing_backlog() {
        let low = phase(10.0, 20, 20, false);
        let mid = phase(30.0, 60, 60, false);
        let high = phase(60.0, 120, 120, true);
        assert_eq!(goodput(&[high, low, mid], 0.99), Some((30.0, 30.0)));
        assert_eq!(goodput(&[high], 0.99), None);
        assert_eq!(goodput(&[phase(5.0, 0, 0, false)], 0.99), None);
    }

    #[test]
    fn backlog_growth_compares_quarters() {
        assert!(!backlog_grew(&[0, 1, 0, 1, 0, 1, 0, 1]));
        assert!(backlog_grew(&[0, 0, 1, 2, 3, 4, 6, 8]));
        assert!(!backlog_grew(&[4, 4, 5, 5, 5, 5, 6, 6]));
        assert!(!backlog_grew(&[1, 2, 3]));
    }
}
