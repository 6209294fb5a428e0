//! Error type for the ML substrate.

use std::fmt;

/// Errors from dataset handling or training.
#[derive(Debug, Clone, PartialEq)]
pub enum MlError {
    /// An instance that does not fit its dataset's schema.
    Data(String),
    /// Training cannot proceed (empty dataset, missing class…).
    Train(String),
    /// Feature not supported by a classifier (e.g. SMO needs binary class).
    Unsupported(String),
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::Data(m) => write!(f, "data error: {m}"),
            MlError::Train(m) => write!(f, "training error: {m}"),
            MlError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for MlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(MlError::Data("x".into()).to_string().contains("data"));
        assert!(MlError::Train("x".into()).to_string().contains("training"));
        assert!(MlError::Unsupported("x".into())
            .to_string()
            .contains("unsupported"));
    }
}
