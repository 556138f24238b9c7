//! Order statistics for latency samples.

pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail: the highest percentile with at least 10 samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// Percentile rank of `value`, 0–100.
    pub percentile: f64,
    pub samples: usize,
}

/// With fewer than 11 samples no percentile has 10 above it; the maximum
/// stands in, reported as percentile 100.
pub fn tail(samples: &[f64]) -> Tail {
    assert!(!samples.is_empty(), "tail of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = if n > 10 { n - 11 } else { n - 1 };
    Tail { value: v[rank], percentile: 100.0 * (rank + 1) as f64 / n as f64, samples: n }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_above() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 30.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        assert_eq!(t.percentile, 75.0);
        assert_eq!(tail(&[3.0, 1.0, 2.0]).value, 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
