//! Order statistics over measured samples.

/// Sort a sample in ascending order.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// The `q`-quantile of an ascending sample by the nearest-rank method: the
/// smallest sample with at least `q·n` samples at or below it. 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples.to_vec()), 0.5)
}

/// The arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The geometric mean of positive samples; 0 when empty.
pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    (samples.iter().map(|s| s.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// A latency sample summarised as its median and 95th percentile, with the
/// number of samples strictly above the 95th percentile (a percentile is
/// only reported as trustworthy when at least ten samples lie beyond it).
#[derive(Debug, Clone, Copy, Default)]
pub struct Latency {
    pub count: usize,
    pub p50: f64,
    pub p95: f64,
    pub above_p95: usize,
}

impl Latency {
    pub fn of(samples: &[f64]) -> Latency {
        let s = sorted(samples.to_vec());
        let p95 = quantile(&s, 0.95);
        Latency {
            count: s.len(),
            p50: quantile(&s, 0.5),
            p95,
            above_p95: s.iter().filter(|&&x| x > p95).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 100.0);
        assert_eq!(quantile(&s, 0.95), 190.0);
        assert_eq!(Latency::of(&s).above_p95, 10);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn geometric_mean_weights_queries_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
