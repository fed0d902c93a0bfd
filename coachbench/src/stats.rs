//! Medians and quartiles, computed exactly as Python's
//! `statistics.median` and `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method) compute them, so a spread printed here is
//! the spread any other tool reading the same values reports.

/// Median, quartiles and sample count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `values`; `None` when there are none. A single sample is
    /// its own median and quartiles.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = match n {
            0 => return None,
            _ if n % 2 == 1 => sorted[n / 2],
            _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
        };
        let (q1, q3) = if n == 1 {
            (median, median)
        } else {
            (
                exclusive_quartile(&sorted, 1),
                exclusive_quartile(&sorted, 3),
            )
        };
        Some(Summary { median, q1, q3, n })
    }

    /// The interquartile range as a share of the median (0 when the
    /// median is 0, where a share means nothing).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartile `i` (1..=3) of at least two sorted samples: Python's
/// exclusive method, which interpolates at rank `i·(n+1)/4` and clamps
/// the rank into `1..=n-1` (so two samples extrapolate, as Python does).
fn exclusive_quartile(sorted: &[f64], i: i64) -> f64 {
    let ld = sorted.len() as i64;
    let m = ld + 1;
    let j = (i * m / 4).clamp(1, ld - 1);
    let delta = (i * m - j * 4) as f64;
    let j = j as usize;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// The highest of p99.9, p99, p95 and p90 that has at least ten samples
/// beyond it, as `(percentile, value)`; `None` below 100 samples.
pub fn supported_tail(values: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    [999, 990, 950, 900].into_iter().find_map(|per_mille| {
        // Nearest-rank percentile, in integers so that p90 of exactly 100
        // samples keeps its ten samples beyond it.
        let rank = (n * per_mille).div_ceil(1000);
        (rank >= 1 && n - rank >= 10).then(|| (per_mille as f64 / 10.0, sorted[rank - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn one_sample_is_its_own_median_and_quartiles() {
        let s = Summary::of(&[5.0]).unwrap();
        assert_eq!((s.median, s.q1, s.q3, s.n), (5.0, 5.0, 5.0, 1));
        assert_eq!(s.spread(), 0.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn two_samples_extrapolate_like_python() {
        // statistics.quantiles([1.0, 2.0], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert!(close(s.q1, 0.75) && close(s.median, 1.5) && close(s.q3, 2.25));
        assert!(close(s.spread(), 1.0));
    }

    #[test]
    fn even_and_odd_counts_match_python() {
        // statistics.quantiles([3,1,4,1,5,9,2,6,5,3], n=4) == [1.75, 3.5, 5.25]
        let s = Summary::of(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]).unwrap();
        assert!(close(s.q1, 1.75) && close(s.median, 3.5) && close(s.q3, 5.25));
        assert_eq!(s.n, 10);
        // [1,2,3,4] -> [1.25, 2.5, 3.75]; [10..50] -> [15, 30, 45]
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!(close(s.q1, 1.25) && close(s.median, 2.5) && close(s.q3, 3.75));
        let s = Summary::of(&[50.0, 40.0, 30.0, 20.0, 10.0]).unwrap();
        assert!(close(s.q1, 15.0) && close(s.median, 30.0) && close(s.q3, 45.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=1500).map(f64::from).collect();
        assert_eq!(supported_tail(&values), Some((99.0, 1485.0)));
        assert_eq!(supported_tail(&values[..100]), Some((90.0, 90.0)));
        assert_eq!(supported_tail(&values[..99]), None);
        assert_eq!(supported_tail(&[]), None);
    }
}
