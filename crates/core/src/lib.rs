//! # jepo-core — JEPO itself
//!
//! The paper's contribution: the *Java Energy Profiler & Optimizer*.
//! Built on the substrates (`jepo-rapl`, `jepo-jlang`, `jepo-jvm`,
//! `jepo-analyzer`, `jepo-ml`), this crate assembles the tool and the
//! paper's evaluation:
//!
//! * [`profiler`] — the *JEPO profiler* flow of §VII: discover the main
//!   class, inject energy probes into every method, run the project, and
//!   produce per-method energy records (`result.txt` + the Fig. 4 view).
//! * [`optimizer`] — the *JEPO optimizer* flow: analyze every class of a
//!   project, list suggestions per line (Fig. 5), and optionally apply
//!   the refactorings automatically.
//! * [`views`] — terminal renderings of the plugin surfaces (Figs 1–5).
//! * [`protocol`] — the §VIII measurement protocol: run each workload
//!   ten times, detect outliers with Tukey's method, re-measure them,
//!   repeat until clean, then average.
//! * [`experiment`] — the WEKA evaluation (Table IV): every classifier
//!   under the baseline and JEPO-optimized efficiency profiles, with
//!   package energy / CPU energy / execution time improvements and the
//!   accuracy drop.
//! * [`corpus`] — a bundled mini-WEKA written in the Java subset, used
//!   by the profiler/optimizer demos and the Table II metrics.
//! * [`stats`] / [`report`] — Tukey fences, means, and table rendering.

pub mod corpus;
pub mod experiment;
pub mod optimizer;
pub mod profiler;
pub mod protocol;
pub mod report;
pub mod stats;
pub mod views;

pub use experiment::{ClassifierResult, WekaExperiment};
pub use optimizer::JepoOptimizer;
pub use profiler::{JepoProfiler, PreparedProgram, ProfileReport, ProfilingMode, SampledProfile};
pub use protocol::{derived_seed, MeasurementProtocol, NoiseModel, ProtocolOutcome};
pub use stats::{mean, quartiles, tukey_fences};
