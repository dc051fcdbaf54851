//! Empirical cumulative distribution functions.
//!
//! Figures 1a, 1b and 13 of the 007 paper are empirical CDF plots; the bench
//! binaries regenerate them by printing `(x, F(x))` series from an [`Ecdf`].

use serde::Serialize;

/// An empirical CDF over a finite sample of `f64` observations.
///
/// Construction sorts the sample once; evaluation is `O(log n)`.
///
/// # Examples
///
/// ```
/// use vigil_stats::Ecdf;
/// let e = Ecdf::new(vec![1.0, 2.0, 2.0, 4.0]);
/// assert_eq!(e.eval(0.0), 0.0);
/// assert_eq!(e.eval(1.0), 0.25);
/// assert_eq!(e.eval(2.0), 0.75);
/// assert_eq!(e.eval(10.0), 1.0);
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from a sample. NaN observations are discarded (they
    /// have no place on a CDF axis); infinities are kept and sort to the
    /// extremes.
    pub fn new(mut sample: Vec<f64>) -> Self {
        sample.retain(|x| !x.is_nan());
        sample.sort_by(|a, b| a.partial_cmp(b).expect("NaNs removed above"));
        Self { sorted: sample }
    }

    /// Number of (non-NaN) observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F(x) = P[X ≤ x]`, the fraction of observations `≤ x`.
    ///
    /// Returns `0.0` for an empty sample.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // partition_point gives the count of elements <= x.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (inverse CDF) for `q ∈ [0, 1]`, using the
    /// "lower value" convention: the smallest `x` with `F(x) ≥ q`.
    ///
    /// Returns `None` on an empty sample.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0,1], got {q}"
        );
        if self.sorted.is_empty() {
            return None;
        }
        let n = self.sorted.len();
        // Smallest rank k in [1, n] with k/n >= q, found by binary search over
        // the same `count / len` quotient `eval` computes. The previous
        // `(q * n).ceil()` formulation could off-by-one the rank when `q * n`
        // rounded across an integer for exactly-representable quantiles.
        let (mut lo, mut hi) = (1usize, n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if (mid as f64) / (n as f64) >= q {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(self.sorted[lo - 1])
    }

    /// Minimum observation, if any.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Maximum observation, if any.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Samples the CDF at `k` evenly spaced abscissae spanning
    /// `[min, max]` — convenient for fixed-width textual plots.
    pub fn sampled(&self, k: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || k == 0 {
            return Vec::new();
        }
        let lo = self.sorted[0];
        let hi = *self.sorted.last().expect("non-empty");
        if k == 1 || hi == lo {
            return vec![(hi, 1.0)];
        }
        (0..k)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (k - 1) as f64;
                (x, self.eval(x))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_sample() {
        let e = Ecdf::new(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.eval(3.0), 0.0);
        assert_eq!(e.quantile(0.5), None);
    }

    #[test]
    fn single_point() {
        let e = Ecdf::new(vec![5.0]);
        assert_eq!(e.eval(4.9), 0.0);
        assert_eq!(e.eval(5.0), 1.0);
        assert_eq!(e.quantile(0.5), Some(5.0));
    }

    #[test]
    fn duplicates_collapse_in_steps() {
        let e = Ecdf::new(vec![2.0, 1.0, 2.0, 3.0]);
        // One step per distinct value, as tall as its multiplicity.
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(1.5), 0.25);
        assert_eq!(e.eval(2.0), 0.75);
        assert_eq!(e.eval(3.0), 1.0);
    }

    #[test]
    fn nan_discarded() {
        let e = Ecdf::new(vec![1.0, f64::NAN, 3.0]);
        assert_eq!(e.len(), 2);
        assert_eq!(e.eval(2.0), 0.5);
    }

    #[test]
    fn quantiles_match_sorted_order() {
        let e = Ecdf::new(vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(e.quantile(0.0), Some(10.0));
        assert_eq!(e.quantile(0.25), Some(10.0));
        assert_eq!(e.quantile(0.5), Some(20.0));
        assert_eq!(e.quantile(0.75), Some(30.0));
        assert_eq!(e.quantile(1.0), Some(40.0));
    }

    #[test]
    fn sampled_endpoints() {
        let e = Ecdf::new(vec![0.0, 1.0, 2.0, 3.0]);
        let s = e.sampled(4);
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].0, 0.0);
        assert_eq!(s[3], (3.0, 1.0));
    }

    proptest! {
        #[test]
        fn eval_is_monotone(mut xs in proptest::collection::vec(-1e6f64..1e6, 1..200),
                            a in -1e6f64..1e6, b in -1e6f64..1e6) {
            xs.push(a); // ensure non-degenerate
            let e = Ecdf::new(xs);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(e.eval(lo) <= e.eval(hi));
        }

        #[test]
        fn eval_bounded(xs in proptest::collection::vec(-1e6f64..1e6, 0..200), x in -2e6f64..2e6) {
            let e = Ecdf::new(xs);
            let f = e.eval(x);
            prop_assert!((0.0..=1.0).contains(&f));
        }

        #[test]
        fn max_evaluates_to_one(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
            let e = Ecdf::new(xs);
            prop_assert_eq!(e.eval(e.max().unwrap()), 1.0);
        }

        #[test]
        fn quantile_of_eval_roundtrip(xs in proptest::collection::vec(-1e3f64..1e3, 1..100),
                                      q in 0.0f64..=1.0) {
            let e = Ecdf::new(xs);
            let x = e.quantile(q).unwrap();
            // F(quantile(q)) >= q by the inverse-CDF definition
            prop_assert!(e.eval(x) + 1e-12 >= q);
        }

        #[test]
        fn exact_rank_quantiles_hit_sorted_entries(
            xs in proptest::collection::vec(-1e6f64..1e6, 1..400),
        ) {
            // quantile(k/n) must be exactly sorted[k-1] for every k in 1..=n —
            // the float-rank formulation could miss this at representable
            // boundaries (e.g. k/n where q*n lands just above an integer).
            let e = Ecdf::new(xs);
            let n = e.len();
            for k in 1..=n {
                let q = k as f64 / n as f64;
                prop_assert_eq!(e.quantile(q).unwrap(), e.sorted[k - 1]);
            }
        }
    }
}
