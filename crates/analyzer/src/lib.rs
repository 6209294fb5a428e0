//! # jepo-analyzer — the static side of JEPO
//!
//! §VII: "JEPO analyzes each line of the code and checks for a specific
//! pattern of code to generate various suggestions. These patterns relate
//! to various components of Java programming language" — the eleven
//! component categories of Table I. This crate implements:
//!
//! * [`suggestion`] — the suggestion pool: one [`suggestion::JavaComponent`]
//!   per Table I row, each carrying the paper's hard-coded suggestion text
//!   and worst-case energy factor.
//! * [`rules`] — one detection rule per component, pattern-matching the
//!   [`jepo_jlang`] AST (with spans, so every suggestion lands on a line).
//! * [`cfg`](mod@cfg) — per-method control-flow graphs lowered from the AST, with
//!   structural natural-loop detection and trip-count estimates.
//! * [`dataflow`] — a generic worklist solver (forward/backward)
//!   instantiated for reaching definitions, live variables, and
//!   dominators; packaged per unit as [`dataflow::UnitFlow`].
//! * [`impact`] — estimated-impact scoring: Table I energy factor ×
//!   loop trip-count product, ranking the Fig. 5 optimizer view.
//! * [`engine`] — runs all rules over a file or project (the *JEPO
//!   optimizer* flow of Fig. 5), flow-sensitively by default, in
//!   parallel over files with deterministic output order.
//! * [`interproc`] — whole-program call-graph facts: CHA-resolved call
//!   edges, SCC condensation, bottom-up method summaries (purity,
//!   side-effect sets, per-call allocation/concat/expensive-op counts,
//!   escape facts) and a static per-method energy estimate, consumed by
//!   the cross-method rules and the dependency-aware cache.
//! * [`cache`] — the incremental layer: per-file results keyed by a
//!   normalized-source FNV-1a/64 content hash plus a call-graph
//!   dependency hash, with a versioned, corruption-tolerant on-disk
//!   format so separate invocations stay warm. The engine's
//!   `analyze_project_incremental_jobs` re-analyzes only dirty files —
//!   including callers of behavior-changed callees — bit-identically
//!   to a cold run.
//! * [`gen`] — deterministic corpus generator: thousands of Java-subset
//!   files with controlled Table I anti-pattern rates, so cold-vs-warm
//!   legs measure real work at production scale.
//! * [`dynamic`] — incremental per-edit analysis (the *dynamic suggestion*
//!   flow of Fig. 2: re-analyze the open file, report what changed).
//! * [`metrics`] — the code metrics of Table II (dependencies, attributes,
//!   methods, packages, LOC) over a project.
//! * [`refactor`] — the automatic rewriter: applies rule fixes to the AST
//!   and prints compilable source back out (JEPO's "statically refactor
//!   already written code").
//!
//! ```
//! use jepo_analyzer::analyze_source;
//! let suggestions = analyze_source("Hot.java",
//!     "class Hot { int f(int x) { return x % 10; } }").unwrap();
//! assert!(suggestions.iter().any(|s| s.line == 1));
//! ```

pub mod cache;
pub mod cfg;
pub mod dataflow;
pub mod dynamic;
pub mod engine;
pub mod gen;
pub mod impact;
pub mod interproc;
pub mod metrics;
pub mod refactor;
pub mod rules;
pub mod suggestion;

pub use cache::{content_hash, fnv1a64, AnalysisCache, CacheStats};
pub use dataflow::UnitFlow;
pub use dynamic::DynamicAnalyzer;
pub use engine::{analyze_project, analyze_source, analyze_unit, AnalysisMode, Analyzer};
pub use interproc::{MethodEnergy, MethodRef, MethodSummary, ProgramFacts};
pub use metrics::{project_metrics, ClassMetrics};
pub use refactor::{refactor_unit, RefactorKind, RefactorReport};
pub use suggestion::{JavaComponent, Suggestion};
