//! # jepo-trace — the telemetry spine of the reproduction.
//!
//! The paper's contribution is *measurement*: per-method energy read
//! from RAPL by injected probes. This crate turns the same idea on the
//! reproduction itself. Every layer (pool, VM, analyzer, harness) opens
//! [`span()`]s on named *tracks*; closing a span records wall time plus an
//! energy delta read wrap-safely from the simulated RAPL device through
//! an [`EnergyProbe`]. A [`metrics::Registry`] collects counters, gauges
//! and fixed-bucket histograms on a striped lock-free hot path.
//! Exporters produce Chrome trace-event JSON (loadable in
//! `about:tracing` / Perfetto) and a JSONL metrics dump.
//!
//! ## Determinism contract
//!
//! Spans belong to *tracks* — logical work units ("table4",
//! "row/Naive Bayes", "file/NaiveBayes.java") rather than OS threads.
//! `jepo-pool` self-schedules each work item onto exactly one worker and
//! runs it contiguously, so a track is only ever appended to by one
//! thread at a time. Span IDs and per-track sequence numbers derive from
//! the track name and arrival order *within the track*, and the exporter
//! orders tracks by name — so exported span content (names, IDs,
//! parents, ordering) is bit-identical for any `--jobs` value; only
//! timestamps and energy vary ([`validate::masked_content`] strips
//! those for exact comparisons).
//!
//! ## Overhead contract
//!
//! With tracing disabled (the default), [`span()`] is a thread-local read
//! plus a branch and takes no locks; instrumentation sites sit at coarse
//! boundaries (per worker, per file, per run), never per-op. The
//! `bench --bin telemetry` selfcheck enforces this stays
//! indistinguishable from zero on the kernel microbench.

pub mod export;
pub mod metrics;
pub mod span;
pub mod validate;

pub use metrics::{
    Counter, Gauge, Histogram, MetricSnapshot, MetricValue, Registry, COUNT_BUCKETS,
    TIME_NS_BUCKETS,
};
pub use span::{
    active, bind_probe, instant, span, track, would_trace, EnergyProbe, ProbeGuard, SpanGuard,
    TraceData, Tracer, TrackGuard,
};

/// FNV-1a/64 offset basis: the usual starting point for [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a/64 over `bytes`, starting from `basis` — the workspace's one
/// deterministic, dependency-free hash (span IDs, analyzer cache keys,
/// daemon content keys). Stable across platforms and runs.
#[inline]
pub fn fnv1a(basis: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(basis, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
