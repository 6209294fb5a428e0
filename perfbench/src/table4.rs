//! The `table4` workload: `jepo table4 <instances> <folds>` with jobs 1,
//! its CLI default, repeated in one process. It is the only workload that
//! runs the ml classifiers, the op-accounting kernels and the RAPL cost
//! model.

use crate::layers::{self, Registry, Spans};
use crate::serve_bench::sum_check;
use crate::stats::{median, percentile};
use crate::{daemon, Outcome, Run};
use jepo_core::{corpus, derived_seed, mean, report, WekaExperiment};
use jepo_ml::EfficiencyProfile;
use std::process::{Command, Stdio};
use std::time::Instant;

pub const INSTANCES: usize = 200;
pub const FOLDS: usize = 3;

/// Cold CLI runs per run; `setup_s` is their median.
const COLD_RUNS: usize = 3;

/// Tables per second on the reference host (2 vCPU Xeon).
const RATE: f64 = 0.3;

fn check(table: &str, reference: &str) -> Result<(), String> {
    if table == reference {
        Ok(())
    } else {
        Err("a Table IV repetition printed different bytes".into())
    }
}

/// The table as the CLI prints it with its default jobs, in this process.
fn table() -> String {
    jepo_serve::ops::table4_render(INSTANCES, FOLDS, 1)
}

/// `n` tables in a row, each checked; returns each table's time in ms and
/// the whole loop's wall time in s.
fn tables(n: usize, reference: &str, out: &mut Outcome) -> (Vec<f64>, f64) {
    let start = Instant::now();
    let mut times = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        let body = table();
        times.push(t.elapsed().as_secs_f64() * 1e3);
        out.op(check(&body, reference));
    }
    (times, start.elapsed().as_secs_f64())
}

pub fn run(run: &Run, out: &mut Outcome) -> Result<(), String> {
    let n = run.ops(RATE);
    if run.trace {
        return traced(run, n, out);
    }
    // Set-up is what a CLI user waits for: the first, cold table of a
    // fresh `jepo table4` process.
    let mut setups = Vec::new();
    let mut reference: Option<String> = None;
    for _ in 0..COLD_RUNS {
        let t = Instant::now();
        let cli = Command::new(&run.jepo)
            .args(["table4", &INSTANCES.to_string(), &FOLDS.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {}: {e}", run.jepo.display()))?;
        setups.push(t.elapsed().as_secs_f64());
        if !cli.status.success() {
            out.op(Err(format!("jepo table4 exited with {}", cli.status)));
            continue;
        }
        let text = String::from_utf8_lossy(&cli.stdout).into_owned();
        match &reference {
            Some(r) => out.op(check(&text, r)),
            None => {
                out.op(Ok(()));
                reference = Some(text);
            }
        }
    }
    let reference = reference.ok_or("no cold table finished")?;
    let (times, wall_s) = tables(n, &reference, out);
    out.metric("setup_s", median(&setups));
    out.metric("ops_per_s", n as f64 / wall_s);
    out.metric("p50_ms", percentile(&times, 0.5));
    out.metric("p90_ms", percentile(&times, 0.9));
    out.metric("peak_rss_mb", daemon::peak_rss_mb("/proc/self/status")?);
    out.notes.push(format!(
        "{n} tables in {wall_s:.2} s; table times (ms): {times:.1?}; cold CLI runs (s): {setups:.3?}"
    ));
    Ok(())
}

/// Metric suffix of a Table IV row ("Random Forest" -> "random-forest").
fn row_metric(name: &str) -> String {
    format!("ml.row_ms.{}", name.to_lowercase().replace(' ', "-"))
}

/// The per-layer run: untraced tables for the tracing overhead, then the
/// same number traced: the metrics registry on, and each table run through
/// `WekaExperiment`'s public functions with a span around every call, the
/// calls `table4_render` makes. One more replay splits each row into the
/// calls `run_classifier` makes.
fn traced(run: &Run, n: usize, out: &mut Outcome) -> Result<(), String> {
    let reference = table();
    out.op(Ok(()));
    let (plain, _) = tables(n, &reference, out);
    let exp = WekaExperiment {
        instances: INSTANCES,
        folds: FOLDS,
        ..WekaExperiment::default()
    };
    let names = jepo_ml::classifiers::CLASSIFIER_NAMES;
    let mut spans = Spans::new();
    let registry = jepo_trace::Registry::global();
    let before = Registry::in_process();
    registry.enable();
    let mut traced = Vec::with_capacity(n);
    for i in 0..n {
        let op = spans.open(i, "table", None);
        let data = spans.time(i, "core.dataset", Some(op), || exp.dataset());
        spans.time(i, "core.corpus", Some(op), || corpus::shared_corpus().len());
        let rows: Vec<_> = names
            .iter()
            .map(|name| {
                spans.time(i, &row_metric(name), Some(op), || {
                    exp.run_classifier(name, &data)
                })
            })
            .collect();
        let body = spans.time(i, "core.render", Some(op), || report::table4(&rows));
        traced.push(spans.close(op));
        out.op(check(&body, &reference));
    }
    registry.disable();
    let reg = Registry::in_process().minus(&before);
    let data = exp.dataset();
    for name in names {
        let row = spans.open(n, "row-parts", None);
        let (base, _) = spans.time(n, "ml.cv", Some(row), || {
            exp.measure(name, EfficiencyProfile::baseline(), &data)
        });
        let (opt, _) = spans.time(n, "ml.cv", Some(row), || {
            exp.measure(name, EfficiencyProfile::optimized(), &data)
        });
        let seed = derived_seed(exp.protocol.seed, name);
        spans.time(n, "core.protocol", Some(row), || {
            (
                exp.protocol.run_with_seed(seed, || base),
                exp.protocol.run_with_seed(seed, || opt),
            )
        });
        spans.time(n, "core.changes", Some(row), || {
            WekaExperiment::change_count(name)
        });
        spans.close(row);
    }
    spans.write(&run.out_dir.join("table4.spans.jsonl"))?;

    let per_table = |name: &str| spans.per_op_ms(name, n);
    let mut parts = 0.0;
    for name in names {
        let metric = row_metric(name);
        out.metric(&metric, per_table(&metric));
        parts += per_table(&metric);
    }
    for part in ["dataset", "corpus", "render"] {
        let v = per_table(&format!("core.{part}"));
        out.metric(&format!("core.{part}_ms"), v);
        parts += v;
    }
    let op_ms = mean(&traced);
    out.metric("core.unattributed_ms", op_ms - parts);
    sum_check(out, op_ms, parts, "core.unattributed_ms");
    // One replay of the row parts: per table, not divided by `n`.
    let once = |name: &str| spans.per_op_ms(name, 1);
    out.metric("ml.cv_ms", once("ml.cv"));
    out.metric("core.protocol_ms", once("core.protocol"));
    out.metric("core.changes_ms", once("core.changes"));
    out.notes.push(format!(
        "row parts, replayed once: cv {:.1} + protocol {:.3} + changes {:.3} = {:.1} ms \
         against {:.1} ms of rows per traced table",
        once("ml.cv"),
        once("core.protocol"),
        once("core.changes"),
        once("row-parts"),
        parts - per_table("core.dataset") - per_table("core.corpus") - per_table("core.render"),
    ));
    layers::registry_metrics(&reg, n, out);
    let overhead = median(&traced) / median(&plain) - 1.0;
    out.metric("trace.overhead_pct", overhead * 100.0);
    out.notes.push(format!(
        "untraced tables (ms): {plain:.1?}; traced tables (ms): {traced:.1?}"
    ));
    Ok(())
}
