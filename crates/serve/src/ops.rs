//! The operations behind both the CLI and the daemon.
//!
//! Byte-identity between `jepo serve` responses and cold CLI stdout is
//! guaranteed *by construction*: the CLI prints exactly what these
//! renderers return, and the server streams exactly the same strings.
//! All inputs are deterministic (the repo-wide contract), so warm
//! cache hits replay the identical bytes.

use crate::cache::{ContentKey, HotCache};
use crate::codec::Request;
use jepo_core::{JepoProfiler, ProfileReport, ProfilingMode, WekaExperiment};
use jepo_jlang::JavaProject;
use std::sync::Arc;

/// Structured operation failure, mapped onto error events by the
/// server.
#[derive(Debug)]
pub enum OpError {
    /// The request itself is unusable (unknown verb, bad parameter,
    /// unparsable corpus).
    BadRequest(String),
    /// The operation failed while running (e.g. the profiled program
    /// trapped).
    Internal(String),
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpError::BadRequest(m) => write!(f, "bad request: {m}"),
            OpError::Internal(m) => write!(f, "{m}"),
        }
    }
}

/// Render the `analyze` report exactly as `jepo analyze` prints it.
pub fn analyze_render(suggestions: &[jepo_analyzer::Suggestion], files: usize) -> String {
    if suggestions.is_empty() {
        return "No suggestions — the project is energy-clean.\n".to_string();
    }
    format!(
        "{}\n{} suggestions across {} files.\n",
        jepo_core::views::optimizer_view(suggestions),
        suggestions.len(),
        files
    )
}

/// Render the `energy` ranking exactly as `jepo energy` prints it.
pub fn energy_render(project: &JavaProject, top: usize) -> String {
    let facts = jepo_analyzer::ProgramFacts::build(project);
    let ranking = facts.energy_ranking();
    if ranking.is_empty() {
        return "No methods found.\n".to_string();
    }
    let total: f64 = ranking.iter().map(|m| m.energy).sum();
    let mut out = String::new();
    out.push_str("== static per-method energy estimates ==\n");
    out.push_str(&format!(
        "{:>12}  {:>6}  {:<5}  method (file:line)\n",
        "energy", "share", "pure"
    ));
    for m in ranking.iter().take(top) {
        let share = if total > 0.0 {
            m.energy / total * 100.0
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:>12.1}  {:>5.1}%  {:<5}  {} ({}:{})\n",
            m.energy,
            share,
            if m.pure { "yes" } else { "no" },
            m.method,
            m.file,
            m.line
        ));
    }
    if ranking.len() > top {
        out.push_str(&format!(
            "  ... {} more (pass --top N to widen)\n",
            ranking.len() - top
        ));
    }
    out.push_str(&format!(
        "\n{} methods, estimated total {:.1} (unitless; summary cost x trip products).\n",
        ranking.len(),
        total
    ));
    out
}

/// Run the Table 4 evaluation and render it exactly as `jepo table4`
/// prints it. Output is identical for every worker count.
pub fn table4_render(instances: usize, folds: usize, jobs: usize) -> String {
    let exp = WekaExperiment {
        instances,
        folds,
        ..Default::default()
    };
    jepo_core::report::table4(&exp.run_all_jobs(jobs))
}

/// The profile header + view + sampling summary, exactly the leading
/// portion of `jepo profile` stdout (before the `result.txt` write
/// notice, which is CLI-only).
pub fn profile_render(report: &ProfileReport) -> String {
    let mut out = format!(
        "main class {} | {} probes injected | total {:.3} mJ / {:.3} ms\n\n",
        report.main_class,
        report.probes_injected,
        report.energy.package_j * 1e3,
        report.energy.seconds * 1e3
    );
    out.push_str(&report.view());
    if let Some(s) = &report.sampled {
        out.push_str(&format!(
            "\n{} samples ({} dropped) @ {} µs | raw {:.3} mJ | profiler cost {:.3} mJ | calibrated {:.3} mJ\n",
            s.samples,
            s.dropped,
            s.interval_us,
            s.raw_total_j * 1e3,
            s.calibration_j * 1e3,
            s.calibrated_total_j * 1e3
        ));
    }
    out
}

/// The full served profile body: the shared render plus the program's
/// own stdout (the daemon never writes `result.txt` to disk).
fn profile_body(report: &ProfileReport) -> String {
    let mut out = profile_render(report);
    if !report.stdout.is_empty() {
        out.push_str(&format!(
            "\nprogram output:\n{}\n",
            report.stdout.trim_end()
        ));
    }
    out
}

fn usize_param(req: &Request, key: &str, default: usize) -> Result<usize, OpError> {
    match req.param(key) {
        Some(v) => v
            .parse()
            .map_err(|_| OpError::BadRequest(format!("bad {key}: {v}"))),
        None => Ok(default),
    }
}

/// Execute one request against the hot cache. Returns the response
/// body and whether it came out of the response memo (`warm`).
///
/// The memo key is the request's canonical encoding, which is the
/// payload the daemon receives from every client that encodes with
/// [`Request::encode`], so this entry point and the daemon share one
/// memo.
///
/// The `shutdown`/`stats` control verbs are handled by the server, not
/// here.
pub fn execute(req: &Request, cache: &HotCache) -> Result<(Arc<String>, bool), OpError> {
    execute_payload(req, &req.encode(), cache)
}

/// [`execute`] for a request decoded from `payload`, which keys the
/// memo as received. A hit hands out the memoized body itself.
pub(crate) fn execute_payload(
    req: &Request,
    payload: &[u8],
    cache: &HotCache,
) -> Result<(Arc<String>, bool), OpError> {
    // Identical request bytes replay the identical response. `ping` is
    // excluded (it can sleep on purpose).
    let memo_key = (req.verb != "ping").then(|| ContentKey::of(payload));
    if let Some(body) = memo_key.and_then(|key| cache.memo_get(key)) {
        return Ok((body, true));
    }
    let body = execute_cold(req, cache)?;
    let body = match memo_key {
        Some(key) => cache.memo_put(key, body),
        None => Arc::new(body),
    };
    Ok((body, false))
}

/// The non-memoized path: build the project through the parse cache
/// and run the verb.
fn execute_cold(req: &Request, cache: &HotCache) -> Result<String, OpError> {
    match req.verb.as_str() {
        "analyze" => {
            let project = project_from(req, cache)?;
            let suggestions = cache.analyze(&project);
            Ok(analyze_render(&suggestions, project.len()))
        }
        "energy" => {
            let top = usize_param(req, "top", 20)?;
            let project = project_from(req, cache)?;
            Ok(energy_render(&project, top))
        }
        "table4" => {
            let instances = usize_param(req, "instances", 2_000)?;
            let folds = usize_param(req, "folds", 10)?;
            // One worker: request-level parallelism comes from the
            // server's pool, and the output is N-independent anyway.
            Ok(table4_render(instances, folds, 1))
        }
        "profile" => {
            let mode = ProfilingMode::parse(req.param("mode"), req.param("interval"))
                .map_err(OpError::BadRequest)?;
            let project = project_from(req, cache)?;
            let mut profiler = JepoProfiler::new().with_mode(mode);
            profiler.chosen_main = req.param("main").map(str::to_string);
            let report = profiler
                .profile(&project)
                .map_err(|e| OpError::Internal(e.to_string()))?;
            Ok(profile_body(&report))
        }
        "ping" => {
            if let Some(ms) = req.param("sleep_ms") {
                let ms: u64 = ms
                    .parse()
                    .map_err(|_| OpError::BadRequest(format!("bad sleep_ms: {ms}")))?;
                std::thread::sleep(std::time::Duration::from_millis(ms.min(10_000)));
            }
            Ok("pong\n".to_string())
        }
        other => Err(OpError::BadRequest(format!("unknown verb: {other}"))),
    }
}

fn project_from(req: &Request, cache: &HotCache) -> Result<JavaProject, OpError> {
    if req.files.is_empty() {
        return Err(OpError::BadRequest(format!(
            "verb `{}` needs at least one file",
            req.verb
        )));
    }
    cache.project(&req.files).map_err(OpError::BadRequest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<(String, String)> {
        vec![
            (
                "Main.java".to_string(),
                "class Main { public static void main(String[] args) { int s = 0; \
                 for (int i = 0; i < 10; i = i + 1) { s = s + i; } System.out.println(s); } }"
                    .to_string(),
            ),
            (
                "Util.java".to_string(),
                "class Util { static int twice(int x) { return x + x; } }".to_string(),
            ),
        ]
    }

    #[test]
    fn second_identical_request_is_warm_and_identical() {
        let cache = HotCache::new();
        for verb in ["analyze", "energy", "profile"] {
            let mut req = Request::new(verb);
            req.files = corpus();
            let (cold, warm_flag) = execute(&req, &cache).unwrap();
            assert!(!warm_flag, "{verb}: first request must be cold");
            let (warm, warm_flag) = execute(&req, &cache).unwrap();
            assert!(warm_flag, "{verb}: repeat must be warm");
            assert_eq!(cold, warm, "{verb}: warm body must be byte-identical");
        }
    }

    /// The daemon keys the memo on the payload it read, the in-process
    /// entry point on `Request::encode`: a body memoized through either
    /// is a hit for the other, handed out as the same allocation.
    #[test]
    fn payload_and_request_keys_share_one_memo() {
        let cache = HotCache::new();
        let mut analyze = Request::new("analyze");
        analyze.files = corpus();
        let mut energy = Request::new("energy");
        energy.files = corpus();
        let received = |req: &Request| {
            let payload = req.encode();
            (Request::decode(&payload).unwrap(), payload)
        };

        let (decoded, payload) = received(&analyze);
        let (served, warm) = execute_payload(&decoded, &payload, &cache).unwrap();
        assert!(!warm, "first analyze must be cold");
        let (replayed, warm) = execute(&analyze, &cache).unwrap();
        assert!(warm, "execute must hit the body the daemon memoized");
        assert!(Arc::ptr_eq(&served, &replayed));

        let (replayed, warm) = execute(&energy, &cache).unwrap();
        assert!(!warm, "first energy must be cold");
        let (decoded, payload) = received(&energy);
        let (served, warm) = execute_payload(&decoded, &payload, &cache).unwrap();
        assert!(warm, "the daemon must hit the body execute memoized");
        assert!(Arc::ptr_eq(&served, &replayed));
    }

    #[test]
    fn table4_runs_without_files() {
        let cache = HotCache::new();
        let mut req = Request::new("table4");
        req.params.push(("instances".into(), "40".into()));
        req.params.push(("folds".into(), "2".into()));
        let (body, _) = execute(&req, &cache).unwrap();
        assert!(body.contains("TABLE IV"), "{body}");
    }

    #[test]
    fn bad_verbs_and_corpora_are_structured_errors() {
        let cache = HotCache::new();
        let req = Request::new("frobnicate");
        assert!(matches!(execute(&req, &cache), Err(OpError::BadRequest(_))));
        let mut req = Request::new("analyze");
        req.files = vec![("Broken.java".into(), "class {{{{".into())];
        assert!(matches!(execute(&req, &cache), Err(OpError::BadRequest(_))));
        let mut req = Request::new("profile");
        req.files = vec![("A.java".into(), "class A { void f() { } }".into())];
        // No main class: an internal (run-time) error, still structured.
        assert!(matches!(execute(&req, &cache), Err(OpError::Internal(_))));
        // An unknown mode or an unparsable interval is the request's fault.
        for (key, value) in [("mode", "bogus"), ("interval", "x")] {
            let mut req = Request::new("profile");
            req.files = corpus();
            req.params.push((key.into(), value.into()));
            assert!(
                matches!(execute(&req, &cache), Err(OpError::BadRequest(_))),
                "{key}={value}"
            );
        }
    }
}
