//! Classification metrics.

use serde::{Deserialize, Serialize};

/// Accumulated evaluation results (confusion matrix based).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// `confusion[actual][predicted]`.
    pub confusion: Vec<Vec<u64>>,
}

impl Evaluation {
    /// Empty evaluation for `num_classes`.
    pub fn new(num_classes: usize) -> Evaluation {
        Evaluation {
            confusion: vec![vec![0; num_classes]; num_classes],
        }
    }

    /// Record one prediction.
    pub fn record(&mut self, actual: f64, predicted: f64) {
        let a = (actual as usize).min(self.confusion.len() - 1);
        let p = (predicted as usize).min(self.confusion.len() - 1);
        self.confusion[a][p] += 1;
    }

    /// Merge another evaluation (fold aggregation).
    pub fn merge(&mut self, other: &Evaluation) {
        for (ra, rb) in self.confusion.iter_mut().zip(&other.confusion) {
            for (a, b) in ra.iter_mut().zip(rb) {
                *a += b;
            }
        }
    }

    /// Total instances evaluated.
    pub fn total(&self) -> u64 {
        self.confusion.iter().flatten().sum()
    }

    /// Correctly classified instances.
    pub fn correct(&self) -> u64 {
        (0..self.confusion.len())
            .map(|i| self.confusion[i][i])
            .sum()
    }

    /// Accuracy in `[0,1]`.
    pub fn accuracy(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.correct() as f64 / t as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_the_confusion_diagonal() {
        let mut e = Evaluation::new(2);
        // 3 true negatives, 1 false positive, 1 false negative, 5 TP.
        for _ in 0..3 {
            e.record(0.0, 0.0);
        }
        e.record(0.0, 1.0);
        e.record(1.0, 0.0);
        for _ in 0..5 {
            e.record(1.0, 1.0);
        }
        assert_eq!(e.total(), 10);
        assert_eq!(e.correct(), 8);
        assert!((e.accuracy() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Evaluation::new(2);
        a.record(0.0, 0.0);
        let mut b = Evaluation::new(2);
        b.record(1.0, 0.0);
        a.merge(&b);
        assert_eq!(a.total(), 2);
        assert_eq!(a.correct(), 1);
    }

    #[test]
    fn empty_evaluation_is_zero() {
        let e = Evaluation::new(3);
        assert_eq!(e.accuracy(), 0.0);
    }
}
