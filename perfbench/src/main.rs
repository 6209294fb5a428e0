//! The repository benchmark: four workloads over the `jepo` CLI and its
//! `serve` daemon, measured end to end with tracing off, and split into
//! layers by a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <warm-read|edit-analyze|profile-edit|table4> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root: it builds the `jepo` binary first.
//! Human-readable lines go to stdout; the last line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Run artifacts (the
//! daemon's metrics dumps, the replay spans) go to `perfbench/` under the
//! cargo target directory.

mod daemon;
mod layers;
mod serve_bench;
mod stats;
mod table4;
mod traffic;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// End-to-end metrics, reported with tracing off.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by the traced run (`--trace 1`), grouped by
/// module. Times are per operation.
const PER_LAYER: [(&str, &str); 66] = [
    ("serve.front_ms", "ms"),
    ("serve.handle_ms", "ms"),
    ("serve.decode_ms", "ms"),
    ("serve.memo_key_ms", "ms"),
    ("serve.assemble_ms", "ms"),
    ("serve.render_ms", "ms"),
    ("serve.events_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("serve.req_kb", "KB"),
    ("serve.resp_kb", "KB"),
    ("serve.memo_hit_ratio", "ratio"),
    ("serve.parse_hit_ratio", "ratio"),
    ("serve.prepared_hit_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("serve.errored", "count"),
    ("pool.busy_ms", "ms"),
    ("pool.idle_ms", "ms"),
    ("pool.items", "count"),
    ("jlang.parse_ms", "ms"),
    ("jlang.files_parsed", "count"),
    ("jlang.parse_mb_per_s", "MB/s"),
    ("analyzer.interproc_ms", "ms"),
    ("analyzer.cfg_ms", "ms"),
    ("analyzer.dataflow_ms", "ms"),
    ("analyzer.flow_ms", "ms"),
    ("analyzer.rules_ms", "ms"),
    ("analyzer.impact_ms", "ms"),
    ("analyzer.rank_ms", "ms"),
    ("analyzer.engine_ms", "ms"),
    ("analyzer.units_per_op", "count"),
    ("analyzer.cache_hit_ratio", "ratio"),
    ("jvm.prepare_ms", "ms"),
    ("jvm.compile_ms", "ms"),
    ("jvm.instrument_ms", "ms"),
    ("jvm.decode_ms", "ms"),
    ("jvm.ir_ms", "ms"),
    ("jvm.exec_ms", "ms"),
    ("jvm.mops", "Mop/s"),
    ("jvm.ops_executed", "count"),
    ("jvm.profile_events", "count"),
    ("jvm.probes", "count"),
    ("jvm.ic_hit_ratio", "ratio"),
    ("jvm.ir_methods_compiled", "count"),
    ("jvm.ir_methods_bailed", "count"),
    ("jvm.ir_calls_inlined", "count"),
    ("jvm.ir_ops_hoisted", "count"),
    ("profiler.aggregate_ms", "ms"),
    ("profiler.render_ms", "ms"),
    ("ml.row_ms.j48", "ms"),
    ("ml.row_ms.random-tree", "ms"),
    ("ml.row_ms.random-forest", "ms"),
    ("ml.row_ms.rep-tree", "ms"),
    ("ml.row_ms.naive-bayes", "ms"),
    ("ml.row_ms.logistic", "ms"),
    ("ml.row_ms.smo", "ms"),
    ("ml.row_ms.sgd", "ms"),
    ("ml.row_ms.kstar", "ms"),
    ("ml.row_ms.ibk", "ms"),
    ("ml.cv_ms", "ms"),
    ("core.protocol_ms", "ms"),
    ("core.changes_ms", "ms"),
    ("core.dataset_ms", "ms"),
    ("core.corpus_ms", "ms"),
    ("core.render_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// The settings of one run.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// The `jepo` binary under test.
    pub jepo: PathBuf,
    /// Where run artifacts go.
    pub out_dir: PathBuf,
    /// Daemon workers and client connections: min(2, cores).
    pub jobs: usize,
}

impl Run {
    /// Operations in a run: `seconds × rate`, where `rate` is the
    /// workload's throughput on the reference host. Runs are counted, not
    /// timed, so every commit does the same work and holds the same
    /// number of cached responses.
    pub fn ops(&self, rate: f64) -> usize {
        ((self.seconds as f64 * rate).round() as usize).max(2)
    }
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one checked operation.
    pub fn op(&mut self, checked: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = checked {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(e);
            }
        }
    }

    /// Record a metric. Panics on a name the benchmark does not declare.
    pub fn metric(&mut self, name: &str, value: f64) {
        let known = END_TO_END.iter().chain(PER_LAYER.iter());
        let (name, _) = known
            .into_iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.metrics
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }
}

fn parse_args() -> Result<(String, u64, u64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !["warm-read", "edit-analyze", "profile-edit", "table4"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let num = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok((workload, num("--seed")?, seconds, trace))
}

/// Build the `jepo` binary of the checkout in the current directory and
/// return its path.
fn build_jepo() -> Result<(PathBuf, PathBuf), String> {
    if !std::path::Path::new("crates/cli/Cargo.toml").is_file() {
        return Err("run from the repository root: crates/cli/Cargo.toml is missing".into());
    }
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "jepo-cli",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building jepo failed: {status}"));
    }
    let target =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()));
    let out_dir = target.join("perfbench");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    Ok((target.join("release").join("jepo"), out_dir))
}

/// `(all, steal)` CPU ticks of the host so far, from `/proc/stat`.
fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

/// The host and settings, printed with every result.
fn describe(run: &Run, jepo_jobs: &Option<String>) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    // Look for a repository here only, not in the directories above.
    let above = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(PathBuf::from))
        .unwrap_or_default();
    let rev = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", above)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    format!(
        "host: {} core(s), {cpu}; git rev {rev}\n\
         settings: workload {} seed {} seconds {} trace {}; daemon --jobs {} with {} client \
         connection(s); table4 {} x {} with jobs 1; JEPO_JOBS unset for the run{}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        run.workload,
        run.seed,
        run.seconds,
        run.trace as u8,
        run.jobs,
        run.jobs,
        table4::INSTANCES,
        table4::FOLDS,
        jepo_jobs
            .as_ref()
            .map_or(String::new(), |v| format!(" (it was {v:?})")),
    )
}

fn main() -> ExitCode {
    // JEPO_JOBS sizes the program's inner pools (Random Forest's trees);
    // the run sets every job count itself. Removed before any thread starts.
    let jepo_jobs = std::env::var("JEPO_JOBS").ok();
    std::env::remove_var("JEPO_JOBS");
    let (workload, seed, seconds, trace) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <warm-read|edit-analyze|profile-edit|table4> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let (jepo, out_dir) = match build_jepo() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run = Run {
        workload,
        seed,
        seconds,
        trace,
        jepo,
        out_dir,
        jobs: cores.min(2),
    };
    println!("{}", describe(&run, &jepo_jobs));
    let mut out = Outcome::default();
    let steal_before = cpu_steal();
    let result = match run.workload.as_str() {
        "warm-read" => serve_bench::run(&run, traffic::Kind::WarmRead, &mut out),
        "edit-analyze" => serve_bench::run(&run, traffic::Kind::EditAnalyze, &mut out),
        "profile-edit" => serve_bench::run(&run, traffic::Kind::ProfileEdit, &mut out),
        _ => table4::run(&run, &mut out),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {}: {e}", run.workload);
        return ExitCode::FAILURE;
    }
    if let (Some((t0, s0)), Some((t1, s1))) = (steal_before, cpu_steal()) {
        out.notes.push(format!(
            "host: {:.1}% of this run's CPU time was stolen by the hypervisor for other guests; \
             times drift with it",
            100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64
        ));
    }
    report(&run, &out);
    ExitCode::SUCCESS
}

/// Why a workload leaves some per-layer metrics unmeasured.
fn unmeasured_reason(workload: &str) -> &'static str {
    match workload {
        "warm-read" => {
            "every operation is a response-memo hit: nothing is parsed, analyzed, run or tabled"
        }
        "edit-analyze" => "analyze requests run no VM and no Table IV",
        "profile-edit" => "profile requests run no analysis and no Table IV",
        _ => "Table IV runs in-process: no daemon, no analysis, no profiled program, no parsing after the first table",
    }
}

/// Print the metrics by name with units, then the JSON result line.
fn report(run: &Run, out: &Outcome) {
    let declared: &[(&str, &str)] = if run.trace { &PER_LAYER } else { &END_TO_END };
    let mut unmeasured = Vec::new();
    let mut json = Vec::new();
    for (name, unit) in declared {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            None => {
                unmeasured.push(*name);
                0.0
            }
        };
        println!("{:<28} {:>14.4} {unit}", name, value);
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for note in &out.notes {
        println!("{note}");
    }
    if !unmeasured.is_empty() {
        println!(
            "not measured on {} (reported as 0): {} — {}",
            run.workload,
            unmeasured.join(", "),
            unmeasured_reason(&run.workload)
        );
    }
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        json.join(", ")
    );
}
