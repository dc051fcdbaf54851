//! Detection metrics: accuracy, precision, recall.
//!
//! The paper's §6 defines its metrics precisely:
//!
//! * **Accuracy** — "the proportion of correctly identified drop causes":
//!   over connections classified as failure drops, the fraction where the
//!   blamed link equals the ground-truth link.
//! * **Recall** — of the actually-failed links, the fraction Algorithm 1
//!   reports (sensitivity; complements false negatives).
//! * **Precision** — of the links Algorithm 1 reports, the fraction that
//!   actually failed (complements false positives).

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A simple ratio metric: `hits / total`, with an explicit empty state so
/// "no eligible samples" is distinguishable from "0 %".
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RatioMetric {
    /// Number of favourable outcomes.
    pub hits: u64,
    /// Number of eligible samples.
    pub total: u64,
}

impl RatioMetric {
    /// Creates a metric from raw counts.
    pub fn new(hits: u64, total: u64) -> Self {
        assert!(hits <= total, "hits ({hits}) cannot exceed total ({total})");
        Self { hits, total }
    }

    /// Records one sample.
    pub fn record(&mut self, hit: bool) {
        self.total += 1;
        if hit {
            self.hits += 1;
        }
    }

    /// Merges another metric into this one (e.g. across epochs or trials).
    pub fn merge(&mut self, other: RatioMetric) {
        self.hits += other.hits;
        self.total += other.total;
    }

    /// The ratio in `[0, 1]`, or `None` when no samples were recorded.
    pub fn value(&self) -> Option<f64> {
        (self.total > 0).then(|| self.hits as f64 / self.total as f64)
    }
}

/// Confusion counts for a set-detection task (Algorithm 1: report a set of
/// bad links, compare against the ground-truth failed set).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinaryConfusion {
    /// Reported and actually failed.
    pub true_positives: u64,
    /// Reported but healthy.
    pub false_positives: u64,
    /// Failed but not reported.
    pub false_negatives: u64,
}

impl BinaryConfusion {
    /// Compares a reported set against a ground-truth set over any ordered
    /// item type (links are compared by id).
    pub fn from_sets<T: Ord>(reported: &BTreeSet<T>, truth: &BTreeSet<T>) -> Self {
        let tp = reported.intersection(truth).count() as u64;
        Self {
            true_positives: tp,
            false_positives: reported.len() as u64 - tp,
            false_negatives: truth.len() as u64 - tp,
        }
    }

    /// Precision = TP / (TP + FP); `None` when nothing was reported.
    pub fn precision(&self) -> Option<f64> {
        let denom = self.true_positives + self.false_positives;
        (denom > 0).then(|| self.true_positives as f64 / denom as f64)
    }

    /// Recall = TP / (TP + FN); `None` when nothing truly failed.
    pub fn recall(&self) -> Option<f64> {
        let denom = self.true_positives + self.false_negatives;
        (denom > 0).then(|| self.true_positives as f64 / denom as f64)
    }

    /// Accumulates another confusion matrix (across epochs or trials).
    pub fn merge(&mut self, other: BinaryConfusion) {
        self.true_positives += other.true_positives;
        self.false_positives += other.false_positives;
        self.false_negatives += other.false_negatives;
    }
}

/// Per-trial detection outcome combining Algorithm 1 set detection with
/// per-flow blame accuracy — the tuple every figure in §6 reports.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct DetectionOutcome {
    /// Per-flow blame accuracy over failure-classified connections.
    pub accuracy: RatioMetric,
    /// Algorithm 1 link-set confusion.
    pub confusion: BinaryConfusion,
}

impl DetectionOutcome {
    /// Merges outcomes across trials.
    pub fn merge(&mut self, other: &DetectionOutcome) {
        self.accuracy.merge(other.accuracy);
        self.confusion.merge(other.confusion);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_metric_basic() {
        let mut m = RatioMetric::default();
        assert_eq!(m.value(), None);
        m.record(true);
        m.record(false);
        m.record(true);
        assert_eq!(m.value(), Some(2.0 / 3.0));
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn ratio_metric_rejects_inconsistent_counts() {
        let _ = RatioMetric::new(5, 3);
    }

    #[test]
    fn ratio_metric_merge() {
        let mut a = RatioMetric::new(1, 2);
        a.merge(RatioMetric::new(3, 4));
        assert_eq!(a, RatioMetric::new(4, 6));
    }

    #[test]
    fn confusion_from_sets_paper_example() {
        // Paper §6: "if there are 100 failed links and 007 detects 90 of
        // them, its recall is 90%"; "if 007 flags 100 links as bad, but only
        // 90 of those links actually failed, its precision is 90%".
        let truth: BTreeSet<u32> = (0..100).collect();
        let reported: BTreeSet<u32> = (0..90).chain(1000..1010).collect();
        let c = BinaryConfusion::from_sets(&reported, &truth);
        assert_eq!(c.true_positives, 90);
        assert_eq!(c.false_positives, 10);
        assert_eq!(c.false_negatives, 10);
        assert_eq!(c.precision(), Some(0.9));
        assert_eq!(c.recall(), Some(0.9));
    }

    #[test]
    fn confusion_empty_cases() {
        let empty: BTreeSet<u32> = BTreeSet::new();
        let c = BinaryConfusion::from_sets(&empty, &empty);
        assert_eq!(c.precision(), None);
        assert_eq!(c.recall(), None);
    }

    #[test]
    fn perfect_detection() {
        let truth: BTreeSet<u32> = [1, 2, 3].into();
        let c = BinaryConfusion::from_sets(&truth.clone(), &truth);
        assert_eq!(c.precision(), Some(1.0));
        assert_eq!(c.recall(), Some(1.0));
    }

    #[test]
    fn ratio_merge_associative_with_identity() {
        let a = RatioMetric::new(1, 4);
        let b = RatioMetric::new(2, 3);
        let c = RatioMetric::new(5, 9);

        let mut left = a; // (a ⊕ b) ⊕ c
        left.merge(b);
        left.merge(c);
        let mut bc = b; // a ⊕ (b ⊕ c)
        bc.merge(c);
        let mut right = a;
        right.merge(bc);
        assert_eq!(left, right);

        // The default (empty) metric is the identity on both sides.
        let mut with_empty = a;
        with_empty.merge(RatioMetric::default());
        assert_eq!(with_empty, a);
        let mut empty = RatioMetric::default();
        empty.merge(a);
        assert_eq!(empty, a);
    }

    #[test]
    fn confusion_merge_associative_with_identity() {
        let m = |tp, fp, fneg| BinaryConfusion {
            true_positives: tp,
            false_positives: fp,
            false_negatives: fneg,
        };
        let (a, b, c) = (m(3, 1, 0), m(0, 2, 5), m(7, 0, 1));

        let mut left = a;
        left.merge(b);
        left.merge(c);
        let mut bc = b;
        bc.merge(c);
        let mut right = a;
        right.merge(bc);
        assert_eq!(left, right);

        let mut with_empty = a;
        with_empty.merge(BinaryConfusion::default());
        assert_eq!(with_empty, a);
    }

    #[test]
    fn outcome_merge_empty_is_identity() {
        let a = DetectionOutcome {
            accuracy: RatioMetric::new(3, 7),
            confusion: BinaryConfusion {
                true_positives: 1,
                false_positives: 2,
                false_negatives: 3,
            },
        };
        let mut merged = a;
        merged.merge(&DetectionOutcome::default());
        assert_eq!(merged.accuracy, a.accuracy);
        assert_eq!(merged.confusion, a.confusion);

        let mut empty = DetectionOutcome::default();
        empty.merge(&a);
        assert_eq!(empty.accuracy, a.accuracy);
        assert_eq!(empty.confusion, a.confusion);
    }

    #[test]
    fn outcome_merge_accumulates() {
        let mut a = DetectionOutcome {
            accuracy: RatioMetric::new(9, 10),
            confusion: BinaryConfusion {
                true_positives: 2,
                false_positives: 0,
                false_negatives: 1,
            },
        };
        let b = DetectionOutcome {
            accuracy: RatioMetric::new(5, 10),
            confusion: BinaryConfusion {
                true_positives: 1,
                false_positives: 1,
                false_negatives: 0,
            },
        };
        a.merge(&b);
        assert_eq!(a.accuracy, RatioMetric::new(14, 20));
        assert_eq!(a.confusion.true_positives, 3);
        assert_eq!(a.confusion.false_positives, 1);
        assert_eq!(a.confusion.false_negatives, 1);
    }
}
