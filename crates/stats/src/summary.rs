//! Mean / variance / confidence-interval summaries across repeated trials.
//!
//! The paper's figures plot means with confidence intervals over repeated
//! simulation runs (e.g. "the large confidence intervals of the optimization
//! is a result of its high sensitivity to noise", §6.3). [`Summary`] is a
//! one-pass (Welford) accumulator producing those statistics.

use serde::Serialize;

/// One-pass mean/variance accumulator (Welford's algorithm), with a normal
/// approximation confidence interval.
///
/// # Examples
///
/// ```
/// use vigil_stats::Summary;
/// let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.sample_variance().unwrap() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation. NaN observations are ignored.
    pub fn record(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Minimum observation, if any.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation, if any.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Unbiased sample variance (needs ≥ 2 observations).
    pub fn sample_variance(&self) -> Option<f64> {
        (self.count >= 2).then(|| self.m2 / (self.count - 1) as f64)
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> Option<f64> {
        self.sample_variance().map(f64::sqrt)
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> Option<f64> {
        self.std_dev().map(|s| s / (self.count as f64).sqrt())
    }

    /// Half-width of the 95 % confidence interval on the mean (normal
    /// approximation, `1.96 · SE`). The paper reports e.g. "0.45 ± 0.12".
    pub fn ci95_half_width(&self) -> Option<f64> {
        self.std_err().map(|se| 1.96 * se)
    }

    /// Merges another summary (parallel Welford merge).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.record(x);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_summary() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.ci95_half_width(), None);
    }

    #[test]
    fn single_observation() {
        let s: Summary = [3.5].into_iter().collect();
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.sample_variance(), None);
        assert_eq!(s.min(), Some(3.5));
        assert_eq!(s.max(), Some(3.5));
    }

    #[test]
    fn known_variance() {
        let s: Summary = [1.0, 2.0, 3.0, 4.0, 5.0].into_iter().collect();
        assert_eq!(s.mean(), 3.0);
        assert!((s.sample_variance().unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn nan_ignored() {
        let s: Summary = [1.0, f64::NAN, 3.0].into_iter().collect();
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn ci_shrinks_with_more_data() {
        let narrow: Summary = (0..1000).map(|i| (i % 10) as f64).collect();
        let wide: Summary = (0..10).map(|i| i as f64).collect();
        assert!(narrow.ci95_half_width().unwrap() < wide.ci95_half_width().unwrap());
    }

    #[test]
    fn merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let seq: Summary = xs.iter().copied().collect();
        let mut a: Summary = xs[..37].iter().copied().collect();
        let b: Summary = xs[37..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!((a.mean() - seq.mean()).abs() < 1e-9);
        assert!((a.sample_variance().unwrap() - seq.sample_variance().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn merge_is_associative() {
        // The parallel sweep engine relies on ⊕ being associative: any
        // sharding of the trial stream must agree with the serial fold.
        let xs: Vec<f64> = (0..90).map(|i| (i as f64 * 0.7).cos() * 5.0).collect();
        let a: Summary = xs[..30].iter().copied().collect();
        let b: Summary = xs[30..60].iter().copied().collect();
        let c: Summary = xs[60..].iter().copied().collect();

        let mut left = a; // (a ⊕ b) ⊕ c
        left.merge(&b);
        left.merge(&c);

        let mut bc = b; // a ⊕ (b ⊕ c)
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);

        assert_eq!(left.count(), right.count());
        assert!((left.mean() - right.mean()).abs() < 1e-9);
        assert!((left.sample_variance().unwrap() - right.sample_variance().unwrap()).abs() < 1e-9);
        assert_eq!(left.min(), right.min());
        assert_eq!(left.max(), right.max());
    }

    #[test]
    fn merged_ci95_matches_single_pass() {
        let xs: Vec<f64> = (0..200).map(|i| ((i * 37) % 101) as f64 / 10.0).collect();
        let single: Summary = xs.iter().copied().collect();
        let mut merged: Summary = xs[..71].iter().copied().collect();
        let rest: Summary = xs[71..].iter().copied().collect();
        merged.merge(&rest);
        assert!(
            (single.mean() - merged.mean()).abs() < 1e-9,
            "CI centre drifted"
        );
        assert!(
            (single.ci95_half_width().unwrap() - merged.ci95_half_width().unwrap()).abs() < 1e-9,
            "CI half-width drifted"
        );
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: Summary = [1.0, 2.0].into_iter().collect();
        let before = (s.count(), s.mean());
        s.merge(&Summary::new());
        assert_eq!((s.count(), s.mean()), before);

        let mut e = Summary::new();
        e.merge(&s);
        assert_eq!(e.count(), s.count());
        assert_eq!(e.mean(), s.mean());
    }

    proptest! {
        #[test]
        fn mean_within_min_max(xs in proptest::collection::vec(-1e6f64..1e6, 1..500)) {
            let s: Summary = xs.iter().copied().collect();
            prop_assert!(s.mean() >= s.min().unwrap() - 1e-9);
            prop_assert!(s.mean() <= s.max().unwrap() + 1e-9);
        }

        #[test]
        fn variance_non_negative(xs in proptest::collection::vec(-1e6f64..1e6, 2..500)) {
            let s: Summary = xs.iter().copied().collect();
            prop_assert!(s.sample_variance().unwrap() >= -1e-9);
        }

        #[test]
        fn merge_any_split_matches(xs in proptest::collection::vec(-1e3f64..1e3, 2..200),
                                   split in 0usize..200) {
            let split = split.min(xs.len());
            let seq: Summary = xs.iter().copied().collect();
            let mut a: Summary = xs[..split].iter().copied().collect();
            let b: Summary = xs[split..].iter().copied().collect();
            a.merge(&b);
            prop_assert_eq!(a.count(), seq.count());
            prop_assert!((a.mean() - seq.mean()).abs() < 1e-6);
        }
    }
}
