//! # jepo-ml — the WEKA substrate
//!
//! The paper evaluates JEPO by optimizing WEKA and running **ten
//! classifiers** on the MOA airlines dataset under stratified 10-fold
//! cross-validation (§VIII, Tables II–IV). This crate reimplements that
//! substrate from scratch:
//!
//! * [`data`] — attributes (nominal/numeric/binary), datasets, and a
//!   deterministic generator reproducing the MOA airlines schema of
//!   Table III (8 attributes, 18 airlines, 293 airports, binary delay
//!   label), the source of every dataset.
//! * [`classifiers`] — the ten classifiers of Table II: J48 (C4.5),
//!   RandomTree, RandomForest, REPTree, NaiveBayes, ridge Logistic,
//!   SMO (Platt's sequential minimal optimization), SGD, KStar, and IBk.
//! * [`eval`] — stratified k-fold cross-validation and accuracy metrics.
//! * [`ops`] — the **efficiency-profile kernel**: every hot numeric loop
//!   runs through counted primitives whose cost category and precision
//!   depend on an [`ops::EfficiencyProfile`]. The *baseline* profile is
//!   the paper's unoptimized WEKA (double math, column-ordered attribute
//!   scans, manual copies, string `+`, static-style shared counters,
//!   modulus hashing); the *optimized* profile is WEKA after JEPO's
//!   suggestions. Switching profiles is the controlled analogue of the
//!   paper's ~700–877 hand edits, and the f32 rounding of the optimized
//!   profile produces the genuine accuracy drops of Table IV.
//!
//! ```
//! use jepo_ml::data::airlines::AirlinesGenerator;
//! use jepo_ml::classifiers::{Classifier, naive_bayes::NaiveBayes};
//! use jepo_ml::eval::crossval::stratified_cross_validate;
//!
//! let data = AirlinesGenerator::new(7).generate(300);
//! let acc = stratified_cross_validate(&data, 10, 7, || NaiveBayes::new()).accuracy();
//! assert!(acc > 0.5); // learns something on the planted signal
//! ```

pub mod classifiers;
pub mod data;
pub mod error;
pub mod eval;
pub mod ops;

pub use classifiers::Classifier;
pub use data::{Attribute, AttributeKind, Dataset};
pub use error::MlError;
pub use ops::{EfficiencyProfile, Kernel, Layout, Precision};
