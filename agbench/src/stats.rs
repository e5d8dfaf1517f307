//! Order statistics over small samples of repeat timings.

/// Median and quartiles of a sample, plus its size and minimum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// Sample size.
    pub n: usize,
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quartiles {
    /// Quartiles by the rule of Python's `statistics.quantiles(v, n=4)`
    /// (exclusive method), so the spread printed here is the spread the
    /// acceptance procedure computes. A single value is its own
    /// quartiles; an empty sample reads all zeros.
    pub fn of(values: &[f64]) -> Quartiles {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return Quartiles {
                n: 0,
                min: 0.0,
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
            };
        }
        if n == 1 {
            return Quartiles {
                n,
                min: v[0],
                q1: v[0],
                median: v[0],
                q3: v[0],
            };
        }
        let cut = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Quartiles {
            n,
            min: v[0],
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
        }
    }

    /// Interquartile distance as a share of the median (0 for a zero
    /// median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of a sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    Quartiles::of(values).median
}

/// `num / den`, or 0 when the denominator is 0 — the value a metric
/// reads when it does not apply to a workload.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        assert!((q.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.min, q.q1, q.median, q.q3), (1.0, 1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Quartiles::of(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn degenerate_samples() {
        assert_eq!(Quartiles::of(&[]).median, 0.0);
        let one = Quartiles::of(&[4.0]);
        assert_eq!((one.q1, one.median, one.q3, one.n), (4.0, 4.0, 4.0, 1));
        assert_eq!(one.spread(), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
