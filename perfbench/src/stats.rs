//! Percentile, quantile, and schedule arithmetic shared by the load loops.

use std::time::Instant;

use wp_json::Json;
use wp_linalg::Rng64;

/// Nearest-rank percentile of an ascending sample (0 when empty): the
/// convention `wp-server`'s `/stats` and `wp-loadgen` report.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    wp_linalg::stats::nearest_rank(sorted, p)
}

/// `part / whole`, or 0 when `whole` is not positive.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The number at `path` in a JSON document (0 when absent).
pub fn json_at(doc: Option<&Json>, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |d, key| d.map(|d| d.get(key)))
        .flatten()
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Median of a sample, averaging the two middle values of an even one
/// (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartiles `(q1, q2, q3)` with the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`: the `i`-th cut point sits at
/// position `i * (n + 1) / 4` of the sorted sample, interpolated
/// linearly between the two neighbours (the index clamped to the
/// sample's ends, in the same exact integer arithmetic). Needs two
/// values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Inter-quartile range as a share of the median (the spread the
/// benchmark's stability gate reads).
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Measures the share of CPU time the hypervisor gave to other guests
/// (steal, from `/proc/stat`) over an interval.
pub struct StealMeter {
    ticks: Option<f64>,
    at: Instant,
}

impl StealMeter {
    /// Starts an interval now.
    pub fn start() -> Self {
        Self {
            ticks: steal_ticks(),
            at: Instant::now(),
        }
    }

    /// Stolen share of the host's CPU time since [`StealMeter::start`]
    /// (0 when the kernel does not report steal).
    pub fn frac(&self) -> f64 {
        let (Some(a), Some(b)) = (self.ticks, steal_ticks()) else {
            return 0.0;
        };
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let secs = self.at.elapsed().as_secs_f64();
        // `/proc/stat` counts in USER_HZ = 100 ticks per second.
        if secs > 0.0 {
            (b - a) / 100.0 / cpus / secs
        } else {
            0.0
        }
    }
}

/// Cumulative steal time of all CPUs in ticks, when the kernel reports
/// it.
fn steal_ticks() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Indices of the quieter half (rounded up) of rounds, by their steal
/// share, in round order. Ties keep the earlier round.
pub fn quiet_half(steal: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let mut kept = order[..steal.len().div_ceil(2)].to_vec();
    kept.sort_unstable();
    kept
}

/// A seeded open-loop arrival schedule: `rate_hz` arrivals per second
/// over `seconds`, as offsets in nanoseconds from the phase start. Gaps
/// are drawn uniformly between half and one and a half times the mean
/// gap: the rate is exact on average, as with a constant-rate (wrk2)
/// schedule, but the arrivals do not lock step with the server. Poisson
/// bursts would add queueing that varies from seed to seed more than
/// any change to the server does. The same `(seed, rate, seconds)`
/// always yields the same schedule.
pub fn arrival_schedule(seed: u64, rate_hz: f64, seconds: f64) -> Vec<u64> {
    let mut rng = Rng64::new(seed ^ 0xA11A_5C4E_D01E_0001);
    let horizon = seconds * 1e9;
    let mean_gap = 1e9 / rate_hz;
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate_hz * seconds) as usize + 1);
    loop {
        t += mean_gap * rng.range(0.5, 1.5);
        if t >= horizon {
            return out;
        }
        out.push(t as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn median_handles_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_exclusive() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 2.5, 3.75)));
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0] (extrapolated ends)
        assert_eq!(quartiles(&[1.0, 5.0]), Some((0.0, 3.0, 6.0)));
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_iqr(&v).unwrap();
        assert!((spread - 5.5 / 5.5).abs() < 1e-12, "{spread}");
    }

    #[test]
    fn quiet_half_keeps_the_least_stolen_rounds() {
        assert_eq!(quiet_half(&[0.3, 0.0, 0.2, 0.1]), vec![1, 3]);
        assert_eq!(quiet_half(&[0.0, 0.0, 0.0]), vec![0, 1]);
        assert_eq!(quiet_half(&[0.5]), vec![0]);
        assert!(quiet_half(&[]).is_empty());
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = arrival_schedule(7, 1000.0, 2.0);
        assert_eq!(a, arrival_schedule(7, 1000.0, 2.0));
        assert_ne!(a, arrival_schedule(8, 1000.0, 2.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets ascend");
        assert!(a.last().is_some_and(|&t| t < 2_000_000_000));
        // 2 s at 1 kHz with mean-preserving gaps: about 2000 arrivals.
        assert!((1900..2100).contains(&a.len()), "{}", a.len());
        let gaps_ok = a
            .windows(2)
            .all(|w| (500_000..=1_500_000).contains(&(w[1] - w[0])));
        assert!(gaps_ok, "gaps stay within half and 1.5 times the mean");
    }
}
