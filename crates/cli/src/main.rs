//! `jepo` — the command-line surface of the reproduction.
//!
//! The paper ships JEPO as an Eclipse plugin; this binary exposes the
//! same two flows (profiler, optimizer) plus the evaluation harness for
//! projects of `.java` files on disk:
//!
//! ```text
//! jepo analyze  <dir|file> [--cache-dir D]
//!                                   suggestions for every class (Fig. 5);
//!                                   with a cache dir, unchanged files are
//!                                   served from the incremental cache
//! jepo optimize <dir|file> [--write] [--aggressive]
//!                                   apply refactorings; print or write back
//! jepo profile  <dir|file> [--main Class] [--mode instrumented|sampling|both]
//!               [--interval us]   per-method energy (Fig. 4): probe
//!                                   instrumentation, statistical sampling
//!                                   with calibrated overhead subtraction,
//!                                   or both side by side
//! jepo metrics  <dir> <Class...>    Table II metrics for entry classes
//! jepo table4   [instances] [folds] [--jobs N]
//!                                   the WEKA evaluation (N workers;
//!                                   0 = one per core; output is
//!                                   identical for every N)
//! jepo gen-corpus <dir> [--files N] [--seed S] [--rate R]
//!                                   write a deterministic generated corpus
//! jepo energy  <dir|file> [--top N] ranked static per-method energy
//!                                   estimates (summary cost × trip
//!                                   products, propagated up the call graph)
//! jepo diff-energy <dirA> <dirB> [--cache-dir D] [--fail-on-regression]
//!                                   analyze two revisions (B reuses A's
//!                                   analysis for unchanged files), report
//!                                   added/removed suggestions and the
//!                                   estimated energy-impact delta; exit 3
//!                                   on regression when gated
//! ```
//!
//! `analyze` and `diff-energy` run the interprocedural analyzer (whole
//! program call-graph summaries; cross-method rules), and their caches
//! are dependency-aware: editing only a callee re-analyzes its callers.
//!
//! Every subcommand also accepts the global telemetry flags
//! `--trace <out.json>` (Chrome trace-event export of the run) and
//! `--metrics <out.jsonl>` (metrics-registry dump, one JSON object per
//! line).

use jepo_core::{corpus, JepoOptimizer, JepoProfiler, ProfilingMode};
use jepo_jlang::JavaProject;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set once stdout's reader has gone; later report text is dropped.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Write report text to stdout. A reader that closed the pipe early
/// (`jepo analyze D | head -1`) ends the output, not the command: the
/// rest of the text is dropped quietly and the command finishes with
/// its own exit status, where `print!` would panic.
fn emit(text: std::fmt::Arguments) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = std::io::stdout().lock().write_fmt(text) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("error: writing stdout: {e}");
            std::process::exit(1);
        }
        STDOUT_CLOSED.store(true, Ordering::Relaxed);
    }
}

/// `print!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => { emit(format_args!($($arg)*)) };
}

/// `println!` through [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => { emit(format_args!("{}\n", format_args!($($arg)*))) };
}

fn usage() -> ExitCode {
    eprintln!(
        "jepo — Java Energy Profiler & Optimizer (IPPS 2020 reproduction)\n\n\
         usage:\n  \
         jepo analyze  <dir|file> [--cache-dir <dir>]\n  \
         jepo optimize <dir|file> [--write] [--aggressive]\n  \
         jepo profile  <dir|file> [--main <Class>] [--mode instrumented|sampling|both]\n                \
         [--interval <us>]  (sampling interval, default 100 µs)\n  \
         jepo metrics  <dir> <Class> [<Class>...]\n  \
         jepo table4   [instances] [folds] [--jobs <N>]\n  \
         jepo gen-corpus <dir> [--files <N>] [--seed <S>] [--rate <0..1>]\n  \
         jepo energy  <dir|file> [--top <N>]   ranked static per-method energy\n  \
         jepo diff-energy <dirA> <dirB> [--cache-dir <dir>] [--jobs <N>]\n                   \
         [--fail-on-regression]  (exit 3 on an energy regression)\n  \
         jepo serve    [--addr <host:port>] [--jobs <N>] [--queue <depth>]\n                \
         long-lived profiling daemon with a shared hot cache;\n                \
         a `shutdown` request drains the queue and exits 0\n  \
         jepo demo     (run the bundled mini-WEKA end to end)\n\n\
         incremental analysis:\n  \
         --cache-dir <dir>      persist per-file analysis results keyed by\n                         \
         content hash; unchanged files are never re-analyzed\n\n\
         telemetry (any subcommand):\n  \
         --trace <out.json>     write a Chrome trace-event file of the run\n  \
                                (load in about:tracing or ui.perfetto.dev)\n  \
         --metrics <out.jsonl>  write the metrics registry as JSON lines"
    );
    ExitCode::from(2)
}

/// Telemetry flags every subcommand accepts, before or after its name.
const TELEMETRY_FLAGS: [&str; 2] = ["--trace", "--metrics"];

/// What a subcommand accepts after its name: flags that take a value,
/// switches, and how many positionals.
struct Spec {
    valued: &'static [&'static str],
    switches: &'static [&'static str],
    positional: std::ops::RangeInclusive<usize>,
}

fn spec(cmd: &str) -> Option<Spec> {
    let (valued, switches, positional): (&[&str], &[&str], _) = match cmd {
        "analyze" => (&["--cache-dir"], &[], 1..=1),
        "optimize" => (&[], &["--write", "--aggressive"], 1..=1),
        "profile" => (&["--main", "--mode", "--interval"], &[], 1..=1),
        "metrics" => (&[], &[], 2..=usize::MAX),
        "table4" => (&["--jobs"], &[], 0..=2),
        "gen-corpus" => (&["--files", "--seed", "--rate"], &[], 1..=1),
        "energy" => (&["--top"], &[], 1..=1),
        "diff-energy" => (&["--cache-dir", "--jobs"], &["--fail-on-regression"], 2..=2),
        "serve" => (&["--addr", "--jobs", "--queue"], &[], 0..=0),
        "demo" => (&[], &[], 0..=0),
        _ => return None,
    };
    Some(Spec {
        valued,
        switches,
        positional,
    })
}

/// A subcommand's arguments, split into flags and positionals.
struct Args {
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
    positional: Vec<String>,
}

impl Args {
    /// Split `args` by `spec` plus the telemetry flags. `None` — a usage
    /// error — for an unknown `--flag`, a flag missing its value, or a
    /// positional count `spec` does not allow.
    fn parse(args: &[String], spec: &Spec) -> Option<Args> {
        let mut out = Args {
            values: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let known = |flags: &[&'static str]| flags.iter().copied().find(|f| f == arg);
            if let Some(flag) = known(spec.valued).or_else(|| known(&TELEMETRY_FLAGS)) {
                let value = it.next().filter(|v| !v.starts_with("--"))?;
                out.values.push((flag, value.clone()));
            } else if let Some(flag) = known(spec.switches) {
                out.switches.push(flag);
            } else if arg.starts_with("--") {
                return None;
            } else {
                out.positional.push(arg.clone());
            }
        }
        spec.positional
            .contains(&out.positional.len())
            .then_some(out)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    fn path(&self, i: usize) -> &Path {
        Path::new(&self.positional[i])
    }

    /// A flag's number, `default` when the flag is absent; `None` when
    /// the value does not parse.
    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Option<T> {
        parse_or(self.value(flag), default)
    }
}

/// `default` for `None`, else the parsed value (`None` if it does not
/// parse).
fn parse_or<T: std::str::FromStr>(value: Option<&str>, default: T) -> Option<T> {
    value.map_or(Some(default), |v| v.parse().ok())
}

/// Export the run's telemetry after a successful subcommand.
fn write_telemetry(trace: Option<&Path>, metrics: Option<&Path>) -> Result<(), String> {
    if let Some(p) = trace {
        let json = jepo_trace::Tracer::global().export_chrome(false);
        std::fs::write(p, &json).map_err(|e| format!("{}: {e}", p.display()))?;
        eprintln!(
            "wrote Chrome trace to {} (load in about:tracing / ui.perfetto.dev)",
            p.display()
        );
    }
    if let Some(p) = metrics {
        let jsonl = jepo_trace::Registry::global().jsonl();
        std::fs::write(p, &jsonl).map_err(|e| format!("{}: {e}", p.display()))?;
        eprintln!("wrote metrics to {}", p.display());
    }
    Ok(())
}

/// Collect `.java` files under a path (file or directory, recursive).
fn collect_java_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    if root.is_file() {
        out.push(root.to_path_buf());
        return Ok(out);
    }
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "java") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Load a project from disk, reporting parse errors per file.
fn load_project(root: &Path) -> Result<JavaProject, String> {
    let files = collect_java_files(root).map_err(|e| format!("{}: {e}", root.display()))?;
    if files.is_empty() {
        return Err(format!("no .java files under {}", root.display()));
    }
    let mut project = JavaProject::new();
    for f in &files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        let name = if rel.is_empty() {
            f.file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned()
        } else {
            rel
        };
        project.add_file(&name, &text).map_err(|e| e.to_string())?;
    }
    Ok(project)
}

/// File inside `--cache-dir` holding the persisted analysis cache.
const CACHE_FILE: &str = "analysis.jepocache";

/// Analyze a project, incrementally when a cache dir is given. Returns
/// the ranked suggestion rows plus `(hits, misses)` of the run.
fn analyze_with_cache(
    project: &JavaProject,
    cache_dir: Option<&Path>,
) -> Result<(Vec<jepo_analyzer::Suggestion>, u64, u64), String> {
    let analyzer = jepo_analyzer::Analyzer::interprocedural();
    let mut cache = match cache_dir {
        Some(dir) => {
            jepo_analyzer::AnalysisCache::load(&dir.join(CACHE_FILE), analyzer.fingerprint())
        }
        None => analyzer.new_cache(),
    };
    let mut suggestions = analyzer.analyze_project_incremental(project, &mut cache);
    jepo_analyzer::impact::rank(&mut suggestions);
    if let Some(dir) = cache_dir {
        let path = dir.join(CACHE_FILE);
        cache
            .save(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let stats = cache.stats();
    Ok((suggestions, stats.last_hits, stats.last_misses))
}

fn cmd_analyze(path: &Path, cache_dir: Option<&Path>) -> Result<(), String> {
    let project = load_project(path)?;
    let (suggestions, hits, misses) = analyze_with_cache(&project, cache_dir)?;
    if cache_dir.is_some() {
        eprintln!("cache: {hits} unchanged file(s) reused, {misses} analyzed");
    }
    // The daemon serves the same renderer's bytes (jepo-serve ops), so
    // warm served responses are identical to this output by construction.
    out!(
        "{}",
        jepo_serve::ops::analyze_render(&suggestions, project.len())
    );
    Ok(())
}

/// Ranked static per-method energy view: interprocedural summaries
/// ordered by estimated cost per invocation (highest first).
fn cmd_energy(path: &Path, top: usize) -> Result<(), String> {
    let project = load_project(path)?;
    out!("{}", jepo_serve::ops::energy_render(&project, top));
    Ok(())
}

fn cmd_gen_corpus(dir: &Path, files: usize, seed: u64, rate: f64) -> Result<(), String> {
    let cfg = jepo_analyzer::gen::GenConfig {
        files,
        seed,
        pattern_rate: rate,
        ..Default::default()
    };
    let n = jepo_analyzer::gen::write_corpus(dir, &cfg)
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    outln!(
        "Wrote {n} generated files under {} (seed {seed}, pattern rate {rate}).",
        dir.display()
    );
    Ok(())
}

/// Key identifying a suggestion across two revisions for the diff.
fn diff_key(s: &jepo_analyzer::Suggestion) -> (String, u32, jepo_analyzer::JavaComponent, String) {
    (s.file.clone(), s.line, s.component, s.matched.clone())
}

fn render_diff_rows(rows: &[jepo_analyzer::Suggestion], sign: char) -> String {
    let mut out = String::new();
    for s in rows {
        out.push_str(&format!(
            "  {sign} {:>10.1}  {}:{}  {}\n",
            s.impact,
            s.file,
            s.line,
            s.component.label()
        ));
    }
    out
}

/// Analyze two revisions of a corpus and report the suggestion /
/// energy-impact delta. Returns `true` if B regresses relative to A
/// (net estimated impact increased).
fn cmd_diff_energy(
    dir_a: &Path,
    dir_b: &Path,
    jobs: usize,
    cache_dir: Option<&Path>,
) -> Result<bool, String> {
    let project_a = load_project(dir_a)?;
    let project_b = load_project(dir_b)?;
    let analyzer = jepo_analyzer::Analyzer::interprocedural();
    let mut cache = match cache_dir {
        Some(dir) => {
            jepo_analyzer::AnalysisCache::load(&dir.join(CACHE_FILE), analyzer.fingerprint())
        }
        None => analyzer.new_cache(),
    };
    let mut sug_a = analyzer.analyze_project_incremental_jobs(&project_a, &mut cache, jobs);
    // Revision B reuses A's per-file results for every unchanged file —
    // the warm path is what makes this cheap enough for a CI gate.
    let mut sug_b = analyzer.analyze_project_incremental_jobs(&project_b, &mut cache, jobs);
    let stats = cache.stats();
    if let Some(dir) = cache_dir {
        let path = dir.join(CACHE_FILE);
        cache
            .save(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    jepo_analyzer::impact::rank(&mut sug_a);
    jepo_analyzer::impact::rank(&mut sug_b);

    let keys_a: std::collections::HashSet<_> = sug_a.iter().map(diff_key).collect();
    let keys_b: std::collections::HashSet<_> = sug_b.iter().map(diff_key).collect();
    // Ranked inputs keep added/removed in the deterministic
    // (impact desc, file, line, component) total order.
    let added: Vec<_> = sug_b
        .iter()
        .filter(|s| !keys_a.contains(&diff_key(s)))
        .cloned()
        .collect();
    let removed: Vec<_> = sug_a
        .iter()
        .filter(|s| !keys_b.contains(&diff_key(s)))
        .cloned()
        .collect();
    // `+ 0.0` folds the empty sum's -0.0 back to +0.0 for display.
    let added_impact: f64 = added.iter().map(|s| s.impact).sum::<f64>() + 0.0;
    let removed_impact: f64 = removed.iter().map(|s| s.impact).sum::<f64>() + 0.0;
    let delta = added_impact - removed_impact;

    outln!("== jepo diff-energy ==");
    outln!(
        "A: {}  ({} files, {} suggestions)",
        dir_a.display(),
        project_a.len(),
        sug_a.len()
    );
    outln!(
        "B: {}  ({} files, {} suggestions)",
        dir_b.display(),
        project_b.len(),
        sug_b.len()
    );
    outln!(
        "incremental: B reused {} unchanged file(s) from A, re-analyzed {}",
        stats.last_hits,
        stats.last_misses
    );
    if added.is_empty() && removed.is_empty() {
        outln!("\nNo suggestion changes between revisions.");
        return Ok(false);
    }
    if !added.is_empty() {
        outln!("\nadded suggestions (ranked by estimated impact):");
        out!("{}", render_diff_rows(&added, '+'));
    }
    if !removed.is_empty() {
        outln!("\nremoved suggestions:");
        out!("{}", render_diff_rows(&removed, '-'));
    }
    outln!(
        "\nestimated energy-impact delta: {delta:+.1} (added {added_impact:.1}, removed {removed_impact:.1})"
    );
    let regression = delta > 0.0;
    if regression {
        outln!("REGRESSION: revision B is estimated to cost more energy than A.");
    } else {
        outln!("No energy regression detected.");
    }
    Ok(regression)
}

fn cmd_optimize(path: &Path, write: bool, aggressive: bool) -> Result<(), String> {
    let mut project = load_project(path)?;
    let optimizer = JepoOptimizer { aggressive };
    let report = optimizer.apply(&mut project);
    outln!("Applied {} changes:", report.total_changes);
    for (file, n) in report.per_file.iter().filter(|(_, n)| *n > 0) {
        outln!("  {file}: {n}");
    }
    if write {
        let root = if path.is_file() {
            path.parent().unwrap_or(path)
        } else {
            path
        };
        for f in project.files() {
            let target = if path.is_file() {
                path.to_path_buf()
            } else {
                root.join(&f.name)
            };
            std::fs::write(&target, &f.text).map_err(|e| format!("{}: {e}", target.display()))?;
        }
        outln!("Wrote refactored sources back to {}.", root.display());
    } else {
        outln!("(dry run — pass --write to rewrite the sources)");
    }
    outln!("{} suggestions remain.", report.remaining.len());
    Ok(())
}

fn cmd_profile(
    path: &Path,
    chosen_main: Option<String>,
    mode: ProfilingMode,
) -> Result<(), String> {
    let project = load_project(path)?;
    let mut profiler = JepoProfiler::new().with_mode(mode);
    profiler.chosen_main = chosen_main;
    let report = profiler.profile(&project).map_err(|e| e.to_string())?;
    out!("{}", jepo_serve::ops::profile_render(&report));
    // result.txt next to the project, as the plugin does (§VII).
    let root = if path.is_file() {
        path.parent().unwrap_or(path)
    } else {
        path
    };
    let result_path = root.join("result.txt");
    std::fs::write(&result_path, report.render_result_txt())
        .map_err(|e| format!("{}: {e}", result_path.display()))?;
    outln!("\nWrote {}.", result_path.display());
    if !report.stdout.is_empty() {
        outln!("\nprogram output:\n{}", report.stdout.trim_end());
    }
    Ok(())
}

fn cmd_metrics(path: &Path, entries: &[String]) -> Result<(), String> {
    let project = load_project(path)?;
    let refs: Vec<&str> = entries.iter().map(|s| s.as_str()).collect();
    let metrics = jepo_analyzer::project_metrics(&project, &refs);
    if metrics.is_empty() {
        return Err("no matching entry classes".into());
    }
    out!("{}", jepo_core::report::table2(&metrics));
    Ok(())
}

fn cmd_table4(instances: usize, folds: usize, jobs: usize) -> Result<(), String> {
    out!("{}", jepo_serve::ops::table4_render(instances, folds, jobs));
    Ok(())
}

/// Boot the profiling daemon and block until a `shutdown` request
/// drains it. Telemetry paths are flushed by the server's drain, so a
/// graceful stop always persists them.
fn cmd_serve(config: jepo_serve::ServerConfig) -> Result<(), String> {
    let handle = jepo_serve::serve(config).map_err(|e| e.to_string())?;
    outln!(
        "jepo serve listening on {} ({} workers)",
        handle.addr(),
        handle.workers()
    );
    handle.join();
    outln!("jepo serve: drained and stopped.");
    Ok(())
}

fn cmd_demo() -> Result<(), String> {
    outln!("== Optimizer over the bundled mini-WEKA ==\n");
    let project = corpus::shared_corpus();
    let suggestions = JepoOptimizer::new().suggestions(project);
    outln!(
        "{} suggestions across {} classes.",
        suggestions.len(),
        project.class_count()
    );
    outln!("\n== Profiler over the runnable subset ==\n");
    let report = JepoProfiler::new()
        .profile(&corpus::runnable_project())
        .map_err(|e| e.to_string())?;
    out!("{}", report.view());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The subcommand is the first argument that is not a telemetry flag
    // or its value; every other argument belongs to it.
    let mut at = 0;
    while args
        .get(at)
        .is_some_and(|a| TELEMETRY_FLAGS.contains(&a.as_str()))
    {
        at += 2;
    }
    let Some(cmd) = args.get(at) else {
        return usage();
    };
    let rest: Vec<String> = args[..at].iter().chain(&args[at + 1..]).cloned().collect();
    let Some(a) = spec(cmd).and_then(|spec| Args::parse(&rest, &spec)) else {
        return usage();
    };
    let trace_out = a.value("--trace").map(PathBuf::from);
    let metrics_out = a.value("--metrics").map(PathBuf::from);
    if trace_out.is_some() {
        jepo_trace::Tracer::global().enable();
    }
    if metrics_out.is_some() {
        jepo_trace::Registry::global().enable();
    }
    let cache_dir = a.value("--cache-dir").map(Path::new);
    // diff-energy signals a regression through a dedicated exit code.
    let mut regression_exit = false;
    let result = match cmd.as_str() {
        "analyze" => cmd_analyze(a.path(0), cache_dir),
        "energy" => match a.num("--top", 20) {
            Some(top) => cmd_energy(a.path(0), top),
            None => return usage(),
        },
        "gen-corpus" => {
            let (Some(files), Some(seed), Some(rate)) = (
                a.num("--files", 1000),
                a.num("--seed", 42),
                a.num("--rate", 0.35),
            ) else {
                return usage();
            };
            cmd_gen_corpus(a.path(0), files, seed, rate)
        }
        "diff-energy" => match a.num("--jobs", 0) {
            Some(jobs) => cmd_diff_energy(a.path(0), a.path(1), jobs, cache_dir).map(|regressed| {
                regression_exit = regressed && a.has("--fail-on-regression");
            }),
            None => return usage(),
        },
        "optimize" => cmd_optimize(a.path(0), a.has("--write"), a.has("--aggressive")),
        "profile" => {
            let Ok(mode) = ProfilingMode::parse(a.value("--mode"), a.value("--interval")) else {
                return usage();
            };
            cmd_profile(a.path(0), a.value("--main").map(str::to_string), mode)
        }
        "metrics" => cmd_metrics(a.path(0), &a.positional[1..]),
        "table4" => {
            let (Some(instances), Some(folds), Some(jobs)) = (
                parse_or(a.positional.first().map(String::as_str), 2_000),
                parse_or(a.positional.get(1).map(String::as_str), 10),
                a.num("--jobs", 1),
            ) else {
                return usage();
            };
            cmd_table4(instances, folds, jobs)
        }
        "serve" => {
            let (Some(workers), Some(queue_depth)) = (a.num("--jobs", 0), a.num("--queue", 32))
            else {
                return usage();
            };
            // The server flushes telemetry itself during the drain, so
            // the generic exporter below stays idle.
            let config = jepo_serve::ServerConfig {
                addr: a.value("--addr").unwrap_or("127.0.0.1:7457").to_string(),
                workers,
                queue_depth,
                trace_out,
                metrics_out,
            };
            return match cmd_serve(config) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        "demo" => cmd_demo(),
        _ => return usage(),
    };
    match result.and_then(|()| write_telemetry(trace_out.as_deref(), metrics_out.as_deref())) {
        Ok(()) if regression_exit => ExitCode::from(3),
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
