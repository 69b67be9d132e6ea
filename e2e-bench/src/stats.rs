//! Order statistics over latency samples.

/// Nearest-rank quantile `q` in `[0, 1]` of `samples`; `NaN` when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v[rank(v.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn sum(samples: &[f64]) -> f64 {
    samples.iter().sum()
}

/// The highest of p50/p90/p95/p99/p99.9 that leaves at least ten samples
/// above it, as `(percentile, value)`; `None` below twenty samples.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|p| n > 0 && n - rank(n, p / 100.0) >= 10)
        .map(|p| (p, quantile(samples, p / 100.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_needs_ten_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        assert_eq!(tail(&v[..19]), None);
        assert_eq!(tail(&v[..20]).map(|t| t.0), Some(50.0));
    }
}
