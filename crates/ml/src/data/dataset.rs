//! Dense dataset storage.

use super::attribute::{Attribute, AttributeKind};
use crate::MlError;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A dataset: schema + dense instance rows. Nominal values are stored as
/// label indices; missing values as `NaN`. Subsets share their parent's
/// schema, so a tree split copies rows, never the label strings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Relation name, as WEKA calls a dataset.
    pub relation: String,
    /// Attribute schema, class attribute included.
    pub attributes: Arc<[Attribute]>,
    /// Index of the class attribute.
    pub class_index: usize,
    /// Row-major instance values.
    pub instances: Vec<Vec<f64>>,
}

impl Dataset {
    /// Empty dataset with a schema; class is the last attribute.
    pub fn new(relation: &str, attributes: Vec<Attribute>) -> Dataset {
        let class_index = attributes.len().saturating_sub(1);
        Dataset {
            relation: relation.to_string(),
            attributes: attributes.into(),
            class_index,
            instances: Vec::new(),
        }
    }

    /// Add an instance (must match the schema length).
    pub fn push(&mut self, row: Vec<f64>) -> Result<(), MlError> {
        if row.len() != self.attributes.len() {
            return Err(MlError::Data(format!(
                "row has {} values, schema has {}",
                row.len(),
                self.attributes.len()
            )));
        }
        self.instances.push(row);
        Ok(())
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Number of attributes (class included).
    pub fn num_attributes(&self) -> usize {
        self.attributes.len()
    }

    /// Number of class labels.
    pub fn num_classes(&self) -> usize {
        self.attributes[self.class_index].cardinality().max(1)
    }

    /// Class value of instance `i`.
    pub fn class_of(&self, i: usize) -> f64 {
        self.instances[i][self.class_index]
    }

    /// Attribute indices excluding the class.
    pub fn feature_indices(&self) -> Vec<usize> {
        (0..self.attributes.len())
            .filter(|&i| i != self.class_index)
            .collect()
    }

    /// Class distribution (counts per label).
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_classes()];
        for row in &self.instances {
            let c = row[self.class_index] as usize;
            if c < counts.len() {
                counts[c] += 1;
            }
        }
        counts
    }

    /// Majority class index.
    pub fn majority_class(&self) -> f64 {
        let counts = self.class_counts();
        counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i as f64)
            .unwrap_or(0.0)
    }

    /// Sub-dataset from row indices (copies rows, shares the schema).
    pub fn subset(&self, idxs: &[usize]) -> Dataset {
        Dataset {
            relation: self.relation.clone(),
            attributes: self.attributes.clone(),
            class_index: self.class_index,
            instances: idxs.iter().map(|&i| self.instances[i].clone()).collect(),
        }
    }

    /// Split rows into `(first, second)` by a predicate on the row index.
    pub fn partition(&self, pred: impl Fn(usize) -> bool) -> (Dataset, Dataset) {
        let (a, b): (Vec<usize>, Vec<usize>) = (0..self.len()).partition(|&i| pred(i));
        (self.subset(&a), self.subset(&b))
    }

    /// One-hot encode nominal features and standardize numerics:
    /// the NominalToBinary + Normalize filter pipeline WEKA's linear
    /// models apply. Returns `(feature rows, labels, dimension)`.
    pub fn to_numeric(&self) -> (Vec<Vec<f64>>, Vec<f64>, usize) {
        // Layout: numeric attrs → 1 column (standardized); nominal attrs
        // → one column per label.
        let feats = self.feature_indices();
        let mut dim = 0usize;
        let mut offsets = Vec::with_capacity(feats.len());
        for &f in &feats {
            offsets.push(dim);
            dim += match &self.attributes[f].kind {
                AttributeKind::Numeric => 1,
                AttributeKind::Nominal(l) => l.len(),
            };
        }
        // Standardization stats for numeric columns.
        let mut means = vec![0.0; feats.len()];
        let mut stds = vec![1.0; feats.len()];
        for (k, &f) in feats.iter().enumerate() {
            if self.attributes[f].is_numeric() && !self.is_empty() {
                let n = self.len() as f64;
                let mean = self.instances.iter().map(|r| r[f]).sum::<f64>() / n;
                let var = self
                    .instances
                    .iter()
                    .map(|r| (r[f] - mean).powi(2))
                    .sum::<f64>()
                    / n;
                means[k] = mean;
                stds[k] = var.sqrt().max(1e-12);
            }
        }
        let mut rows = Vec::with_capacity(self.len());
        let mut labels = Vec::with_capacity(self.len());
        for r in &self.instances {
            let mut x = vec![0.0; dim];
            for (k, &f) in feats.iter().enumerate() {
                match &self.attributes[f].kind {
                    AttributeKind::Numeric => x[offsets[k]] = (r[f] - means[k]) / stds[k],
                    AttributeKind::Nominal(l) => {
                        let v = r[f] as usize;
                        if v < l.len() {
                            x[offsets[k] + v] = 1.0;
                        }
                    }
                }
            }
            rows.push(x);
            labels.push(r[self.class_index]);
        }
        (rows, labels, dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut d = Dataset::new(
            "toy",
            vec![
                Attribute::numeric("x"),
                Attribute::nominal("color", &["r", "g", "b"]),
                Attribute::binary("y"),
            ],
        );
        d.push(vec![1.0, 0.0, 0.0]).unwrap();
        d.push(vec![2.0, 1.0, 1.0]).unwrap();
        d.push(vec![3.0, 2.0, 1.0]).unwrap();
        d
    }

    #[test]
    fn schema_accessors() {
        let d = toy();
        assert_eq!(d.len(), 3);
        assert_eq!(d.class_index, 2);
        assert_eq!(d.num_classes(), 2);
        assert_eq!(d.feature_indices(), vec![0, 1]);
        assert_eq!(d.class_counts(), vec![1, 2]);
        assert_eq!(d.majority_class(), 1.0);
    }

    #[test]
    fn push_validates_arity() {
        let mut d = toy();
        assert!(d.push(vec![1.0]).is_err());
    }

    #[test]
    fn subset_and_partition() {
        let d = toy();
        let s = d.subset(&[0, 2]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.class_of(1), 1.0);
        let (a, b) = d.partition(|i| i == 1);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn to_numeric_one_hot_and_standardize() {
        let d = toy();
        let (rows, labels, dim) = d.to_numeric();
        assert_eq!(dim, 1 + 3);
        assert_eq!(rows.len(), 3);
        assert_eq!(labels, vec![0.0, 1.0, 1.0]);
        // One-hot: exactly one of the 3 color slots set per row.
        for r in &rows {
            let hot: f64 = r[1..4].iter().sum();
            assert!((hot - 1.0).abs() < 1e-12);
        }
        // Standardized numeric column has mean ~0.
        let mean: f64 = rows.iter().map(|r| r[0]).sum::<f64>() / 3.0;
        assert!(mean.abs() < 1e-9);
    }
}
