//! Order statistics used by every metric: medians, quartiles, the tail
//! percentile with enough samples beyond it, and geometric means.

/// Percentiles considered for a tail, highest first.
const TAIL_LADDER: [f64; 7] = [99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub pct: f64,
    /// The sample value at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// Samples in total.
    pub n: usize,
}

/// Nearest-rank percentile of `sorted` (ascending): the value at rank
/// `ceil(p/100 * n)`, together with how many samples lie beyond that rank.
fn nearest_rank(sorted: &[f64], pct: f64) -> (f64, usize) {
    let n = sorted.len();
    // The epsilon keeps `99.9% of 10 000` at rank 9 990 despite rounding.
    let rank = (pct * n as f64 / 100.0 - 1e-9).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    (sorted[rank - 1], n - rank)
}

/// The highest percentile of the ladder that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it; `None` when even the median
/// lacks them.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let sorted = sorted(samples);
    if sorted.is_empty() {
        return None;
    }
    TAIL_LADDER.iter().find_map(|&pct| {
        let (value, beyond) = nearest_rank(&sorted, pct);
        (beyond >= TAIL_MIN_BEYOND).then_some(Tail { pct, value, beyond, n: sorted.len() })
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); `NaN` when
/// empty.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Geometric mean of positive values; `NaN` when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!((t.pct, t.value, t.beyond, t.n), (99.0, 990.0, 10, 1000));

        // 999 samples: p99 has only 9 beyond it, so p95 is the tail.
        let t = tail(&samples[..999]).unwrap();
        assert_eq!(t.pct, 95.0);
        assert!(t.beyond >= TAIL_MIN_BEYOND);

        // 10 000 samples reach p99.9.
        let many: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&many).unwrap().pct, 99.9);
    }

    #[test]
    fn tail_is_order_independent_and_needs_enough_samples() {
        let mut samples: Vec<f64> = (1..=100).map(f64::from).collect();
        samples.reverse();
        let t = tail(&samples).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));
        assert_eq!(tail(&samples[..19]), None);
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&samples[..20]).unwrap().pct, 50.0);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    }
}
