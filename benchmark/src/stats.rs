//! Order statistics of whole-pass times, printed beside the gated
//! per-job minima (`e2e::Quiet`): fast decile, median, slow decile.

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by linear interpolation between
/// the two nearest order statistics (the "inclusive" method: q = 0 is
/// the minimum, q = 1 the maximum).
///
/// # Panics
///
/// Panics on an empty slice or a `q` outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The fast decile: the time only the quietest tenth of passes beat.
/// Disturbance (a neighbour, a migration, a page-cache flush) only ever
/// adds time, so the low tail leans towards the undisturbed cost — as
/// long as a tenth of the passes were quiet from end to end.
pub fn p10(xs: &[f64]) -> f64 {
    quantile(xs, 0.10)
}

/// The median.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(median(&xs), 3.0);
        assert!((quantile(&xs, 0.10) - 1.4).abs() < 1e-12);
        assert!((quantile(&xs, 0.90) - 4.6).abs() < 1e-12);
    }

    #[test]
    fn p10_of_forty_passes_ignores_slow_outliers() {
        // 36 quiet passes at 1.00..1.035 and 4 disturbed ones at 1.4
        let mut xs: Vec<f64> = (0..36).map(|i| 1.0 + i as f64 * 0.001).collect();
        xs.extend([1.4; 4]);
        let fast = p10(&xs);
        assert!((1.0..1.005).contains(&fast), "p10 = {fast}");
        // the mean would have moved by 4 %
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(mean > 1.05);
    }

    #[test]
    fn median_of_nine_rejects_four_bad_samples() {
        let xs = [25.0, 25.1, 24.9, 25.2, 25.0, 60.0, 70.0, 80.0, 90.0];
        assert_eq!(median(&xs), 25.2);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        assert_eq!(p10(&[7.0]), 7.0);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
