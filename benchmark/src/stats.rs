//! Order statistics for the harness: medians, quartiles and percentiles.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spreads `repeat` prints are the
//! spreads an outside checker computing them in Python sees.

/// Sample count, quartiles and median of one metric's per-run values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarise `values`; `None` when there are none (a metric that is
    /// not defined must not be printed as a number).
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
        let (q1, q3) = quartiles(&v);
        Some(Summary {
            n: v.len(),
            q1,
            median: median_sorted(&v),
            q3,
        })
    }

    /// Interquartile distance as a share of the median (0 when the median
    /// is 0, which only a constant-zero count produces).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of an ascending slice (mean of the middle two when even).
pub fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of unsorted values; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    Summary::of(values).map(|s| s.median)
}

/// First and third quartile of an ascending slice, by the exclusive
/// method. With fewer than two samples both are the sample itself.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let ld = sorted.len();
    assert!(ld > 0, "quartiles of no samples");
    if ld < 2 {
        return (sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it. On 1 024 block
/// latencies `p = 99` leaves exactly ten samples beyond it.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let s = Summary::of(&[40.0, 10.0, 20.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn p99_of_1024_leaves_ten_beyond() {
        let v: Vec<u64> = (0..1024).collect();
        let p99 = percentile_sorted(&v, 99.0);
        assert_eq!(v.iter().filter(|&&x| x > p99).count(), 10);
        assert_eq!(percentile_sorted(&v, 50.0), 511);
        assert_eq!(percentile_sorted(&[7], 99.0), 7);
    }
}
