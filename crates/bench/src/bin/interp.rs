//! Interpreter dispatch benchmark: legacy `Vec<Op>` clone-per-op loop
//! vs the pre-decoded threaded engine (interned symbols, inline caches,
//! pooled frames) vs the register-IR compilation tier (basic blocks,
//! constant folding, DCE, inlining, LICM, per-block bulk accounting).
//!
//! Two legs:
//!
//! 1. **Microbench** — a dispatch-bound synthetic workload (virtual
//!    calls through a polymorphic site, field traffic, string building,
//!    tight integer arithmetic) run uninstrumented through all three
//!    engines. Reported as ops/sec; the acceptance bar is ≥ 2× for
//!    decoded and ≥ 3.5× for the IR tier, both over legacy.
//! 2. **End-to-end** — the instrumented profiler pipeline over the
//!    runnable WEKA corpus (mini-NaiveBayes, the workload behind every
//!    profiler-view number), timed under all engines.
//!
//! `--selfcheck` additionally reruns both legs comparing every
//! observable bit-for-bit (stdout, op counts, energy joule bits,
//! `result.txt`) and fails the process on any divergence — the same
//! contract the differential test suite enforces, wired into the
//! benchmark artifact so a perf run can never silently report numbers
//! from diverging engines.
//!
//! Usage: `interp [reps] [--selfcheck]` (default reps 200000).
//! Emits `BENCH_interp.json`.

use jepo_core::{corpus, JepoProfiler, ProfileReport};
use jepo_jvm::interp::RunOutcome;
use jepo_jvm::{Dispatch, Vm};
use std::time::Instant;

/// Dispatch-heavy microbench source: two receiver classes behind one
/// call site (inline-cache traffic), a static helper, field reads and
/// writes, and periodic string work.
fn microbench_src(reps: usize) -> String {
    format!(
        "class Base {{
            int v;
            int step(int x) {{ return x + v; }}
            int twice(int x) {{ return step(x) + step(x + 1); }}
        }}
        class Derived extends Base {{
            int step(int x) {{ return x * 2 - v; }}
            int twice(int x) {{ return step(x) + step(x + 3); }}
        }}
        class Main {{
            static int helper(int a, int b) {{ return (a * 31 + b) % 1000003; }}
            public static void main(String[] args) {{
                Base a = new Base();
                Base b = new Derived();
                a.v = 3; b.v = 5;
                int acc = 0;
                for (int i = 0; i < {reps}; i++) {{
                    acc = helper(a.twice(i), b.twice(acc));
                    int t = a.step(i) + b.step(acc);
                    t = a.step(t) + b.step(t);
                    t = a.step(t) + b.step(t);
                    t = a.step(t) + b.step(t);
                    acc = (acc + t) % 1000003;
                    a.v = acc % 17;
                    b.v = acc % 13;
                    if (\"k\".equals(\"k\")) {{ acc += 1; }}
                }}
                System.out.println(acc);
            }}
        }}"
    )
}

/// Time one engine pass.
fn micro_pass(src: &str, dispatch: Dispatch) -> (RunOutcome, f64) {
    let mut vm = Vm::from_source(src)
        .expect("microbench compiles")
        .with_dispatch(dispatch);
    let t = Instant::now();
    let run = vm.run_main().expect("microbench runs");
    (run, t.elapsed().as_secs_f64())
}

const ENGINES: [Dispatch; 3] = [Dispatch::Legacy, Dispatch::Decoded, Dispatch::Ir];

/// Run all engines in alternating rounds (so throttle/noise windows on
/// a busy machine hit each equally) and keep each engine's best time.
fn run_micro(src: &str) -> Vec<(RunOutcome, f64)> {
    let mut best = vec![f64::INFINITY; ENGINES.len()];
    let mut outs: Vec<Option<RunOutcome>> = vec![None; ENGINES.len()];
    for _ in 0..5 {
        for (i, &dispatch) in ENGINES.iter().enumerate() {
            let (run, secs) = micro_pass(src, dispatch);
            best[i] = best[i].min(secs);
            outs[i] = Some(run);
        }
    }
    outs.into_iter().map(Option::unwrap).zip(best).collect()
}

fn run_profiler(dispatch: Dispatch) -> (ProfileReport, f64) {
    let project = corpus::runnable_project();
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..2 {
        let profiler = JepoProfiler::new().with_dispatch(dispatch);
        let t = Instant::now();
        let report = profiler.profile(&project).expect("corpus profiles");
        best = best.min(t.elapsed().as_secs_f64());
        out = Some(report);
    }
    (out.unwrap(), best)
}

/// Bitwise outcome comparison (`f64` by bits): the selfcheck gate.
fn outcomes_identical(l: &RunOutcome, d: &RunOutcome) -> Vec<String> {
    let mut diffs = Vec::new();
    if l.stdout != d.stdout {
        diffs.push("stdout".into());
    }
    if l.ops_executed != d.ops_executed {
        diffs.push(format!(
            "ops_executed ({} vs {})",
            l.ops_executed, d.ops_executed
        ));
    }
    if l.cache_hits != d.cache_hits || l.cache_misses != d.cache_misses {
        diffs.push("cache stats".into());
    }
    for (name, a, b) in [
        ("package_j", l.energy.package_j, d.energy.package_j),
        ("core_j", l.energy.core_j, d.energy.core_j),
        ("seconds", l.energy.seconds, d.energy.seconds),
    ] {
        if a.to_bits() != b.to_bits() {
            diffs.push(format!("energy.{name} ({a} vs {b})"));
        }
    }
    diffs
}

/// Bitwise profiler report comparison: the end-to-end selfcheck gate.
fn reports_identical(l: &ProfileReport, d: &ProfileReport, tag: &str) -> Vec<String> {
    let mut diffs = Vec::new();
    if l.render_result_txt() != d.render_result_txt() {
        diffs.push(format!("profiler result.txt ({tag})"));
    }
    if l.stdout != d.stdout {
        diffs.push(format!("profiler stdout ({tag})"));
    }
    if l.energy.package_j.to_bits() != d.energy.package_j.to_bits() {
        diffs.push(format!("profiler energy ({tag})"));
    }
    diffs
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selfcheck = args.iter().any(|a| a == "--selfcheck");
    let reps: usize = args
        .iter()
        .find(|a| *a != "--selfcheck")
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000);

    let src = microbench_src(reps);
    eprintln!("Microbench: {reps} iterations through all three engines…");
    let micro = run_micro(&src);
    let (legacy_out, legacy_secs) = &micro[0];
    let (decoded_out, decoded_secs) = &micro[1];
    let (ir_out, ir_secs) = &micro[2];
    assert_eq!(
        legacy_out.stdout, decoded_out.stdout,
        "microbench outputs diverged (decoded)"
    );
    assert_eq!(
        legacy_out.stdout, ir_out.stdout,
        "microbench outputs diverged (ir)"
    );
    let ops = decoded_out.ops_executed;
    let legacy_ops_sec = ops as f64 / legacy_secs.max(1e-9);
    let decoded_ops_sec = ops as f64 / decoded_secs.max(1e-9);
    let ir_ops_sec = ops as f64 / ir_secs.max(1e-9);
    let micro_speedup = decoded_ops_sec / legacy_ops_sec.max(1e-9);
    let ir_vs_legacy = ir_ops_sec / legacy_ops_sec.max(1e-9);
    let ir_vs_decoded = ir_ops_sec / decoded_ops_sec.max(1e-9);
    let ic_total = decoded_out.ic_hits + decoded_out.ic_misses;
    let ic_hit_rate = decoded_out.ic_hits as f64 / (ic_total.max(1)) as f64;
    eprintln!(
        "  legacy  {legacy_secs:.3}s ({legacy_ops_sec:.0} ops/s)\n  \
         decoded {decoded_secs:.3}s ({decoded_ops_sec:.0} ops/s)  speedup {micro_speedup:.2}×\n  \
         ir      {ir_secs:.3}s ({ir_ops_sec:.0} ops/s)  speedup {ir_vs_legacy:.2}× vs legacy, \
         {ir_vs_decoded:.2}× vs decoded\n  IC hit rate {:.2}%",
        100.0 * ic_hit_rate
    );

    eprintln!("End-to-end: instrumented profiler over the runnable corpus…");
    let (legacy_report, e2e_legacy_secs) = run_profiler(Dispatch::Legacy);
    let (decoded_report, e2e_decoded_secs) = run_profiler(Dispatch::Decoded);
    let (ir_report, e2e_ir_secs) = run_profiler(Dispatch::Ir);
    let e2e_speedup = e2e_legacy_secs / e2e_decoded_secs.max(1e-9);
    let e2e_ir_speedup = e2e_legacy_secs / e2e_ir_secs.max(1e-9);
    eprintln!(
        "  legacy {e2e_legacy_secs:.3}s, decoded {e2e_decoded_secs:.3}s \
         (speedup {e2e_speedup:.2}×), ir {e2e_ir_secs:.3}s (speedup {e2e_ir_speedup:.2}×)"
    );

    let mut selfcheck_status = "skipped";
    if selfcheck {
        eprintln!("Selfcheck: bit-exact comparison of all engines…");
        let mut diffs = outcomes_identical(legacy_out, decoded_out);
        diffs.extend(
            outcomes_identical(legacy_out, ir_out)
                .into_iter()
                .map(|d| format!("{d} (ir)")),
        );
        diffs.extend(reports_identical(
            &legacy_report,
            &decoded_report,
            "decoded",
        ));
        diffs.extend(reports_identical(&legacy_report, &ir_report, "ir"));
        if diffs.is_empty() {
            selfcheck_status = "pass";
            eprintln!("  ok — all observables identical across all three engines");
        } else {
            eprintln!("ERROR: engines diverged in: {}", diffs.join(", "));
            std::process::exit(1);
        }
    }

    // Hand-rolled JSON (the workspace deliberately has no JSON dep).
    let json = format!(
        "{{\n  \"bench\": \"interp\",\n  \"reps\": {reps},\n  \
         \"microbench\": {{\n    \"ops_executed\": {ops},\n    \
         \"legacy_secs\": {legacy_secs:.6},\n    \"decoded_secs\": {decoded_secs:.6},\n    \
         \"ir_secs\": {ir_secs:.6},\n    \
         \"legacy_ops_per_sec\": {legacy_ops_sec:.0},\n    \
         \"decoded_ops_per_sec\": {decoded_ops_sec:.0},\n    \
         \"ir_ops_per_sec\": {ir_ops_sec:.0},\n    \
         \"speedup\": {micro_speedup:.3},\n    \
         \"ir_vs_legacy\": {ir_vs_legacy:.3},\n    \
         \"ir_vs_decoded\": {ir_vs_decoded:.3},\n    \
         \"ic_hits\": {},\n    \"ic_misses\": {},\n    \"ic_hit_rate\": {ic_hit_rate:.6}\n  }},\n  \
         \"end_to_end\": {{\n    \
         \"workload\": \"instrumented profiler, runnable WEKA corpus (NaiveBayes)\",\n    \
         \"legacy_secs\": {e2e_legacy_secs:.6},\n    \"decoded_secs\": {e2e_decoded_secs:.6},\n    \
         \"ir_secs\": {e2e_ir_secs:.6},\n    \
         \"speedup\": {e2e_speedup:.3},\n    \
         \"ir_speedup\": {e2e_ir_speedup:.3}\n  }},\n  \
         \"selfcheck\": \"{selfcheck_status}\"\n}}\n",
        decoded_out.ic_hits, decoded_out.ic_misses,
    );
    let path = "BENCH_interp.json";
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("Wrote {path}"),
        Err(e) => {
            eprintln!("ERROR: could not write {path}: {e}");
            std::process::exit(1);
        }
    }

    if micro_speedup < 2.0 {
        eprintln!("WARNING: microbench speedup {micro_speedup:.2}× is below the 2× acceptance bar");
    }
    if ir_vs_legacy < 3.5 {
        eprintln!(
            "WARNING: IR microbench speedup {ir_vs_legacy:.2}× is below the 3.5× acceptance bar"
        );
    }
}
