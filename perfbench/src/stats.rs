//! Order statistics shared by every workload.

/// Nearest-rank percentile summary of one latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Number of samples the percentiles were taken over.
    pub samples: usize,
    /// Nearest-rank 50th percentile.
    pub p50: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
}

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` percent of the sample at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// p50/p99 of an unsorted sample, or `None` when it is empty.
pub fn percentiles(values: &[f64]) -> Option<Percentiles> {
    let sorted = sorted(values);
    Some(Percentiles {
        samples: sorted.len(),
        p50: nearest_rank(&sorted, 50.0)?,
        p99: nearest_rank(&sorted, 99.0)?,
    })
}

/// The median of repeated measurements (mean of the middle pair for an
/// even count), or `None` when there are none.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Geometric mean of strictly positive values, or `None` when the sample
/// is empty or holds a non-positive value.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_value() {
        let sample: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&sample, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&sample, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&sample, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&sample, 99.0), Some(10.0));
        assert_eq!(nearest_rank(&sample, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn percentiles_report_their_sample_count() {
        let mut sample: Vec<f64> = (1..=200).map(f64::from).collect();
        sample.reverse();
        let p = percentiles(&sample).unwrap();
        assert_eq!(p.samples, 200);
        assert_eq!(p.p50, 100.0);
        assert_eq!(p.p99, 198.0);
        let one = percentiles(&[7.5]).unwrap();
        assert_eq!((one.samples, one.p50, one.p99), (1, 7.5, 7.5));
        assert_eq!(percentiles(&[]), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn geomean_is_scale_free_and_rejects_non_positive_values() {
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12);
        let g = geomean(&[0.1, 0.1, 0.1]).unwrap();
        assert!((g - 0.1).abs() < 1e-15);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }
}
