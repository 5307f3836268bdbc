//! Labeled datasets for binary classification.

use std::fmt;

/// Errors raised by dataset construction and solver configuration.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum SvmError {
    /// Feature vectors have inconsistent dimensionality.
    DimensionMismatch { expected: usize, got: usize },
    /// A label was not +1 or −1.
    InvalidLabel(f64),
    /// The dataset is empty or degenerate for the requested operation.
    Degenerate(String),
    /// A hyperparameter was out of range.
    BadParameter { name: &'static str, reason: String },
    /// A guard closure stopped the optimizer before convergence.
    Interrupted {
        /// Full optimization passes completed before the stop.
        passes_done: usize,
    },
}

impl fmt::Display for SvmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SvmError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "feature vector has {got} dimensions, expected {expected}"
                )
            }
            SvmError::InvalidLabel(l) => write!(f, "label {l} is not +1 or -1"),
            SvmError::Degenerate(msg) => write!(f, "degenerate dataset: {msg}"),
            SvmError::BadParameter { name, reason } => {
                write!(f, "bad parameter `{name}`: {reason}")
            }
            SvmError::Interrupted { passes_done } => {
                write!(f, "training interrupted after {passes_done} passes")
            }
        }
    }
}

impl std::error::Error for SvmError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, SvmError>;

/// A binary-labeled dataset: dense feature vectors with labels in {−1, +1}.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    features: Vec<Vec<f64>>,
    labels: Vec<f64>,
    dim: usize,
}

impl Dataset {
    /// An empty dataset; the dimension is fixed by the first push.
    pub fn new() -> Self {
        Dataset::default()
    }

    /// Add one labeled sample. Label must be exactly `+1.0` or `-1.0`.
    pub fn push(&mut self, x: Vec<f64>, y: f64) -> Result<()> {
        if y != 1.0 && y != -1.0 {
            return Err(SvmError::InvalidLabel(y));
        }
        if self.features.is_empty() {
            self.dim = x.len();
        } else if x.len() != self.dim {
            return Err(SvmError::DimensionMismatch {
                expected: self.dim,
                got: x.len(),
            });
        }
        self.features.push(x);
        self.labels.push(y);
        Ok(())
    }

    /// Build from parallel slices.
    pub fn from_parts(features: Vec<Vec<f64>>, labels: Vec<f64>) -> Result<Self> {
        if features.len() != labels.len() {
            return Err(SvmError::Degenerate(format!(
                "{} feature rows vs {} labels",
                features.len(),
                labels.len()
            )));
        }
        let mut d = Dataset::new();
        for (x, y) in features.into_iter().zip(labels) {
            d.push(x, y)?;
        }
        Ok(d)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Feature dimensionality (0 until the first sample).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Feature vector of sample `i`.
    pub fn x(&self, i: usize) -> &[f64] {
        &self.features[i]
    }

    /// Label of sample `i`.
    pub fn y(&self, i: usize) -> f64 {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[f64] {
        &self.labels
    }

    /// Iterate `(features, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], f64)> + '_ {
        self.features
            .iter()
            .map(Vec::as_slice)
            .zip(self.labels.iter().copied())
    }

    /// Counts of (positive, negative) samples.
    pub fn class_counts(&self) -> (usize, usize) {
        let pos = self.labels.iter().filter(|&&y| y > 0.0).count();
        (pos, self.labels.len() - pos)
    }

    /// Require at least one sample of each class (solvers need both).
    pub fn require_both_classes(&self) -> Result<()> {
        let (pos, neg) = self.class_counts();
        if pos == 0 || neg == 0 {
            return Err(SvmError::Degenerate(format!(
                "need both classes, got {pos} positive / {neg} negative"
            )));
        }
        Ok(())
    }
}

/// Dot product of two equal-length vectors.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_access() {
        let mut d = Dataset::new();
        d.push(vec![1.0, 2.0], 1.0).unwrap();
        d.push(vec![3.0, 4.0], -1.0).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.x(1), &[3.0, 4.0]);
        assert_eq!(d.y(0), 1.0);
        assert_eq!(d.class_counts(), (1, 1));
        assert!(!d.is_empty());
        assert_eq!(d.labels(), &[1.0, -1.0]);
        assert_eq!(d.iter().count(), 2);
    }

    #[test]
    fn invalid_label_rejected() {
        let mut d = Dataset::new();
        assert!(matches!(
            d.push(vec![1.0], 0.5),
            Err(SvmError::InvalidLabel(_))
        ));
        assert!(matches!(
            d.push(vec![1.0], 0.0),
            Err(SvmError::InvalidLabel(_))
        ));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut d = Dataset::new();
        d.push(vec![1.0, 2.0], 1.0).unwrap();
        assert!(matches!(
            d.push(vec![1.0], -1.0),
            Err(SvmError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn from_parts_checks_lengths() {
        let r = Dataset::from_parts(vec![vec![1.0]], vec![1.0, -1.0]);
        assert!(matches!(r, Err(SvmError::Degenerate(_))));
        let ok = Dataset::from_parts(vec![vec![1.0], vec![2.0]], vec![1.0, -1.0]).unwrap();
        assert_eq!(ok.len(), 2);
    }

    #[test]
    fn require_both_classes() {
        let d = Dataset::from_parts(vec![vec![1.0], vec![2.0]], vec![1.0, 1.0]).unwrap();
        assert!(d.require_both_classes().is_err());
        let d = Dataset::from_parts(vec![vec![1.0], vec![2.0]], vec![1.0, -1.0]).unwrap();
        assert!(d.require_both_classes().is_ok());
    }

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn errors_display() {
        assert!(SvmError::InvalidLabel(0.3).to_string().contains("0.3"));
        assert!(SvmError::BadParameter {
            name: "c",
            reason: "must be > 0".into()
        }
        .to_string()
        .contains("c"));
    }
}
