//! Order statistics over timing samples.

/// The `q`-quantile (0..=1) of `samples` by nearest rank: the smallest
/// sample with at least `q` of the samples at or below it. With `n`
/// samples, `n - ceil(q * n)` samples lie beyond it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median (the lower middle sample for an even count).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(median(&v), 50.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
