//! Coarse-bin histograms for Table-1-style distribution summaries.
//!
//! Table 1 of the paper reports the distribution of ICMP messages per second
//! per switch in irregular bins: `T = 0`, `0 < T ≤ 3`, `T > 3`, plus
//! `max(T)`. [`Histogram`] supports arbitrary right-closed bin edges so the
//! `table1` figure entry can count exactly those rows.

use serde::Serialize;

/// A histogram over user-supplied right-closed bin edges.
///
/// With edges `[e1, e2, …, ek]` the bins are
/// `(-∞, e1], (e1, e2], …, (e_{k-1}, e_k], (e_k, ∞)` — `k + 1` bins total.
///
/// # Examples
///
/// ```
/// use vigil_stats::Histogram;
/// // Table 1 bins: T = 0, 0 < T ≤ 3, T > 3.
/// let mut h = Histogram::new(vec![0.0, 3.0]);
/// for t in [0.0, 0.0, 1.0, 2.5, 7.0] {
///     h.record(t);
/// }
/// assert_eq!(h.counts(), &[2, 2, 1]);
/// assert_eq!(h.fraction(0), 0.4);
/// assert_eq!(h.max(), Some(7.0));
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<u64>,
    total: u64,
    max: Option<f64>,
}

impl Histogram {
    /// Creates a histogram with the given strictly increasing bin edges.
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty, contains NaN, or is not strictly
    /// increasing.
    pub fn new(edges: Vec<f64>) -> Self {
        assert!(!edges.is_empty(), "histogram needs at least one edge");
        assert!(
            edges.iter().all(|e| !e.is_nan()),
            "histogram edges must not be NaN"
        );
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly increasing"
        );
        let bins = edges.len() + 1;
        Self {
            edges,
            counts: vec![0; bins],
            total: 0,
            max: None,
        }
    }

    /// Records an observation. NaN is ignored.
    pub fn record(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        // First edge e with x <= e determines the bin; otherwise overflow bin.
        let bin = self
            .edges
            .iter()
            .position(|&e| x <= e)
            .unwrap_or(self.edges.len());
        self.counts[bin] += 1;
        self.total += 1;
        self.max = Some(self.max.map_or(x, |m: f64| m.max(x)));
    }

    /// Per-bin counts, length `edges.len() + 1`.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of observations in bin `i` (0.0 when empty).
    pub fn fraction(&self, i: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[i] as f64 / self.total as f64
        }
    }

    /// Largest observation seen, if any.
    pub fn max(&self) -> Option<f64> {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn table1_bins() {
        let mut h = Histogram::new(vec![0.0, 3.0]);
        // 69% T=0, 30.98% 0<T≤3, 0.02% T>3 in the paper; use a small sample
        // with the same structure.
        for _ in 0..69 {
            h.record(0.0);
        }
        for _ in 0..31 {
            h.record(2.0);
        }
        h.record(11.0);
        assert_eq!(h.counts(), &[69, 31, 1]);
        assert_eq!(h.max(), Some(11.0));
        assert!((h.fraction(0) - 69.0 / 101.0).abs() < 1e-12);
    }

    #[test]
    fn bin_edges_right_closed() {
        let mut h = Histogram::new(vec![1.0, 2.0]);
        h.record(1.0); // goes to first bin (x <= 1)
        h.record(2.0); // second bin (1 < x <= 2)
        h.record(2.0000001); // overflow
        assert_eq!(h.counts(), &[1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_edges() {
        let _ = Histogram::new(vec![3.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "at least one edge")]
    fn rejects_empty_edges() {
        let _ = Histogram::new(vec![]);
    }

    #[test]
    fn nan_ignored() {
        let mut h = Histogram::new(vec![0.0]);
        h.record(f64::NAN);
        assert_eq!(h.total(), 0);
        assert_eq!(h.max(), None);
    }

    proptest! {
        #[test]
        fn counts_sum_to_total(xs in proptest::collection::vec(-1e3f64..1e3, 0..300)) {
            let mut h = Histogram::new(vec![-10.0, 0.0, 10.0]);
            for x in &xs {
                h.record(*x);
            }
            prop_assert_eq!(h.counts().iter().sum::<u64>(), h.total());
            prop_assert_eq!(h.total(), xs.len() as u64);
        }

        #[test]
        fn fractions_sum_to_one(xs in proptest::collection::vec(-1e3f64..1e3, 1..300)) {
            let mut h = Histogram::new(vec![-10.0, 0.0, 10.0]);
            for x in &xs {
                h.record(*x);
            }
            let sum: f64 = (0..h.counts().len()).map(|i| h.fraction(i)).sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
    }
}
