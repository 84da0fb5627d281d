//! Order statistics for timing samples.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count.
/// Panics on an empty slice: a metric without a sample is a bench bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Nearest-rank percentile, `0 < p <= 1`: the smallest sample with at
/// least `p` of the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 1.0, "percentile {p} out of range");
    let v = sorted(values);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=48).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 24.0);
        // 12 samples lie beyond p75 of 48: enough for the "at least ten
        // samples beyond it" rule, which p90 (4 beyond) would break
        assert_eq!(percentile(&v, 0.75), 36.0);
        assert_eq!(percentile(&v, 1.0), 48.0);
        assert_eq!(percentile(&[7.0], 0.75), 7.0);
        assert_eq!(percentile(&[2.0, 1.0], 0.5), 1.0);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
