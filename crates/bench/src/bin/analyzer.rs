//! Analyzer microbench — the cost of each analysis mode over the
//! bundled WEKA-flavoured corpus, which no end-to-end workload isolates.
//!
//! Six legs:
//!
//! * **syntactic ×1 / ×N** — pattern rules only, sequential and fanned
//!   over `jepo-pool`.
//! * **flow ×1 / ×N** — CFG construction + reaching defs + liveness +
//!   dominators per method, then the definition-aware rules.
//! * **interproc ×1 / ×N** — flow plus whole-program call-graph
//!   summaries and the cross-method rules (facts built once,
//!   single-threaded, before the fan-out).
//!
//! The interesting ratios are `flow_overhead_1t` (what the dataflow
//! facts cost over pure pattern matching) and the per-mode parallel
//! speedups. `N` is clamped to the available cores
//! ([`jepo_pool::clamp_workers`]): timing more threads than cores only
//! measures scheduler thrash. The requested value is still recorded
//! (`requested_threads`, plus a `note` when clamping kicked in). After
//! the legs the harness asserts the suggestion count is identical
//! across thread counts for each mode; the full bit-identity is pinned
//! in `tests/flow_analysis.rs`.
//!
//! The incremental cache is timed end to end by the `edit-analyze`
//! workload of `perfbench`; its correctness lives in
//! `crates/analyzer/tests/incremental_props.rs`.
//!
//! Results land in `BENCH_analyzer.json`.
//!
//! Usage: `analyzer [reps] [--threads N]` (reps defaults to 40; threads
//! defaults to the core count).

use jepo_analyzer::{AnalysisMode, Analyzer};
use jepo_core::corpus;
use jepo_jlang::JavaProject;
use std::hint::black_box;
use std::time::Instant;

struct Leg {
    mode: &'static str,
    threads: usize,
    runs_per_s: f64,
    secs_per_run: f64,
    suggestions: usize,
}

/// The benched analyzer for a mode: extended rules for the syntactic
/// and flow legs, the full rule set for the interprocedural leg.
fn analyzer_for(mode: AnalysisMode) -> Analyzer {
    match mode {
        AnalysisMode::Interprocedural => Analyzer::interprocedural(),
        _ => Analyzer::with_extensions().with_mode(mode),
    }
}

/// Time `reps` full-project analyses at a given mode and job count.
fn run_leg(project: &JavaProject, mode: AnalysisMode, jobs: usize, reps: u32) -> Leg {
    let analyzer = analyzer_for(mode);
    // Warm-up run also yields the suggestion count for the invariance
    // assertion below.
    let first = analyzer.analyze_project_jobs(project, jobs);
    let t = Instant::now();
    for _ in 0..reps {
        black_box(analyzer.analyze_project_jobs(project, jobs));
    }
    let secs = t.elapsed().as_secs_f64();
    Leg {
        mode: match mode {
            AnalysisMode::Syntactic => "syntactic",
            AnalysisMode::FlowSensitive => "flow",
            AnalysisMode::Interprocedural => "interproc",
        },
        threads: jobs,
        runs_per_s: reps as f64 / secs.max(1e-12),
        secs_per_run: secs / reps as f64,
        suggestions: first.len(),
    }
}

fn leg_json(leg: &Leg) -> String {
    format!(
        "    {{\"mode\": \"{}\", \"threads\": {}, \"runs_per_s\": {:.2}, \
         \"ms_per_run\": {:.3}, \"suggestions\": {}}}",
        leg.mode,
        leg.threads,
        leg.runs_per_s,
        leg.secs_per_run * 1e3,
        leg.suggestions
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let project = corpus::full_corpus();

    let threads_at = args.iter().position(|a| a == "--threads");
    let threads_flag = threads_at
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<usize>().ok());
    let reps: u32 = args
        .iter()
        .enumerate()
        .filter(|&(i, _)| threads_at.is_none_or(|t| i != t + 1))
        .find_map(|(_, s)| s.parse().ok())
        .unwrap_or(40);
    let (requested_threads, threads, cores) = jepo_pool::clamp_workers(threads_flag.unwrap_or(0));
    let clamp_note = (threads != requested_threads)
        .then(|| format!("threads clamped from {requested_threads} to {cores} available core(s)"));

    eprintln!(
        "analyzer microbench: {} corpus files, {reps} reps per leg, \
         1 vs {threads} job(s), {cores} core(s)…",
        project.files().len(),
    );

    let mut legs = Vec::new();
    for (mode, jobs) in [
        (AnalysisMode::Syntactic, 1),
        (AnalysisMode::Syntactic, threads),
        (AnalysisMode::FlowSensitive, 1),
        (AnalysisMode::FlowSensitive, threads),
        (AnalysisMode::Interprocedural, 1),
        (AnalysisMode::Interprocedural, threads),
    ] {
        let leg = run_leg(&project, mode, jobs, reps);
        println!(
            "{:>9} ×{}: {:>8.2} runs/s ({:.3} ms/run, {} suggestions)",
            leg.mode,
            leg.threads,
            leg.runs_per_s,
            leg.secs_per_run * 1e3,
            leg.suggestions
        );
        legs.push(leg);
    }

    // Determinism proxy: thread count must never change what the
    // analyzer finds (the full bit-identity is a tier-1 test).
    for mode in ["syntactic", "flow", "interproc"] {
        let counts: Vec<usize> = legs
            .iter()
            .filter(|l| l.mode == mode)
            .map(|l| l.suggestions)
            .collect();
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "{mode} suggestion count varies with thread count: {counts:?}"
        );
    }

    let time_of = |mode: &str, t: usize| {
        legs.iter()
            .find(|l| l.mode == mode && l.threads == t)
            .map(|l| l.secs_per_run)
            .unwrap_or(f64::NAN)
    };
    let flow_overhead_1t = time_of("flow", 1) / time_of("syntactic", 1).max(1e-12);
    let interproc_overhead_1t = time_of("interproc", 1) / time_of("flow", 1).max(1e-12);
    let flow_speedup = time_of("flow", 1) / time_of("flow", threads).max(1e-12);
    let syntactic_speedup = time_of("syntactic", 1) / time_of("syntactic", threads).max(1e-12);
    let interproc_speedup = time_of("interproc", 1) / time_of("interproc", threads).max(1e-12);
    println!(
        "flow overhead ×1: {flow_overhead_1t:.2}×; interproc overhead over flow ×1: \
         {interproc_overhead_1t:.2}×; parallel speedup ×{threads}: \
         syntactic {syntactic_speedup:.2}×, flow {flow_speedup:.2}×, \
         interproc {interproc_speedup:.2}×"
    );

    let rows: Vec<String> = legs.iter().map(leg_json).collect();
    let note_field = clamp_note
        .as_deref()
        .map(|n| format!("  \"note\": \"{n}\",\n"))
        .unwrap_or_default();
    let json = format!(
        "{{\n  \"bench\": \"analyzer\",\n  \"corpus_files\": {},\n  \
         \"reps\": {reps},\n  \"threads\": {threads},\n  \
         \"requested_threads\": {requested_threads},\n  \
         \"available_cores\": {cores},\n{note_field}  \
         \"flow_overhead_1t\": {flow_overhead_1t:.2},\n  \
         \"interproc_overhead_1t\": {interproc_overhead_1t:.2},\n  \
         \"syntactic_speedup\": {syntactic_speedup:.2},\n  \
         \"flow_speedup\": {flow_speedup:.2},\n  \
         \"interproc_speedup\": {interproc_speedup:.2},\n  \"legs\": [\n{}\n  ]\n}}\n",
        project.files().len(),
        rows.join(",\n"),
    );
    let path = "BENCH_analyzer.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("Wrote {path}."),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
