//! Order statistics the benchmark reports: interpolated quantiles, the
//! "highest percentile with at least ten samples beyond it" rule, and
//! the median of repeated measurements.

/// Percentiles the benchmark may report, lowest first.
pub const PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples a percentile must leave beyond it before it is reported.
pub const TAIL_SAMPLES: f64 = 10.0;

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted`, interpolating linearly
/// between the two nearest order statistics (position `q·(n−1)`).
/// NaN for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    if frac == 0.0 || sorted[hi] == sorted[lo] {
        // Also keeps an infinite order statistic from turning into NaN.
        return sorted[lo];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// True when `n` samples leave at least [`TAIL_SAMPLES`] beyond the
/// `p`-th percentile.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    // The epsilon absorbs the rounding of `100 − p` (100 − 99.9 is not
    // exactly 0.1 in binary), so 10,000 samples do support p99.9.
    let tail_share = (100.0 - p) / 100.0;
    (n as f64 * tail_share + 1e-9) >= TAIL_SAMPLES
}

/// The highest of [`PERCENTILES`] that `n` samples support, or `None`
/// when even the median would have fewer than ten samples beyond it.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| percentile_supported(n, p))
}

/// Median of a handful of repeated measurements (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// The median of `values` over the quieter half of the repeats that
/// produced them: the `⌈n/2⌉` with the least CPU time stolen by the host
/// (`steal`, index-aligned), earlier repeats first on ties. A burst of
/// host contention spoils the repeats it hits, not the reading, as long
/// as half of them ran undisturbed.
pub fn quiet_median(values: &[f64], steal: &[f64]) -> f64 {
    assert_eq!(values.len(), steal.len(), "one steal reading per value");
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let keep: Vec<f64> = order[..values.len().div_ceil(2)]
        .iter()
        .map(|&i| values[i])
        .collect();
    median(&keep)
}

/// A sorted sample set with its size, for reporting percentiles with
/// their sample count.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    /// Sort `values` into a distribution.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Dist { sorted: values }
    }

    /// Number of samples.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// The `p`-th percentile (0–100); 0 for an empty distribution, so a
    /// layer the workload never touched reads as zero.
    pub fn pct(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        quantile_sorted(&self.sorted, p / 100.0)
    }

    /// The `p`-th percentile when the sample count supports it, else
    /// the highest supported one below it (0 when none is).
    pub fn pct_supported(&self, p: f64) -> f64 {
        match PERCENTILES
            .iter()
            .rev()
            .copied()
            .find(|&q| q <= p && percentile_supported(self.n(), q))
        {
            Some(q) => self.pct(q),
            None => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(quantile_sorted(&v, 0.5), 2.5);
        assert!((quantile_sorted(&v, 0.9) - 3.7).abs() < 1e-12);
        assert!(quantile_sorted(&[], 0.5).is_nan());
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // The median needs 20 samples (10 beyond it), p90 needs 100,
        // p99 1,000, p99.9 10,000 and p99.99 100,000.
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn unsupported_percentile_falls_back_to_the_highest_supported() {
        let d = Dist::new((1..=500).map(f64::from).collect());
        // 500 samples support p90 but not p99: asking for p99 reports p90.
        assert_eq!(d.pct_supported(99.0), d.pct(90.0));
        assert_eq!(d.pct_supported(90.0), d.pct(90.0));
        let tiny = Dist::new(vec![1.0; 5]);
        assert_eq!(tiny.pct_supported(50.0), 0.0);
    }

    #[test]
    fn quiet_median_keeps_the_less_stolen_half() {
        // Two of five repeats ran while the host stole 8–10% of the CPU.
        let p90 = [2.6, 2.7, 8.7, 2.7, 7.5];
        let steal = [0.5, 2.4, 10.4, 0.7, 8.3];
        assert_eq!(quiet_median(&p90, &steal), 2.7);
        assert_eq!(median(&p90), 2.7);
        // With three disturbed, the plain median is spoiled; the quieter
        // half still holds two clean repeats out of three.
        let p90 = [2.6, 7.0, 8.7, 2.7, 7.5];
        let steal = [0.5, 9.0, 10.4, 0.7, 8.3];
        assert_eq!(median(&p90), 7.0);
        assert_eq!(quiet_median(&p90, &steal), 2.7);
        // With even counts the quieter half is n/2.
        assert_eq!(
            quiet_median(&[1.0, 9.0, 2.0, 8.0], &[0.1, 5.0, 0.2, 6.0]),
            1.5
        );
    }

    #[test]
    fn median_of_repeats_ignores_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
