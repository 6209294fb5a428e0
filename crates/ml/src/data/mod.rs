//! Datasets, attributes, and the airlines generator — the only source
//! of datasets: nothing reads or writes dataset files.

pub mod airlines;
pub mod attribute;
pub mod dataset;

pub use attribute::{Attribute, AttributeKind};
pub use dataset::Dataset;
