//! End-to-end tests of the `jepo` binary against real files on disk.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn jepo() -> Command {
    Command::new(env!("CARGO_BIN_EXE_jepo"))
}

fn temp_project(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jepo-cli-{tag}-{}", std::process::id()));
    fs::create_dir_all(dir.join("util")).unwrap();
    fs::write(
        dir.join("util/Calc.java"),
        "package util;
         public class Calc {
             static int calls;
             public static int mod(int a, int b) { calls = calls + 1; return a % b; }
             public static int pick(int x) { return x > 0 ? x : 0 - x; }
         }",
    )
    .unwrap();
    fs::write(
        dir.join("Main.java"),
        "import util.Calc;
         public class Main {
             public static void main(String[] args) {
                 int s = 0;
                 for (int i = 1; i < 500; i++) { s += Calc.mod(i, 7); }
                 System.out.println(Calc.pick(s));
             }
         }",
    )
    .unwrap();
    dir
}

#[test]
fn analyze_reports_suggestions_with_lines() {
    let dir = temp_project("analyze");
    let out = jepo()
        .args(["analyze", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Modulus"), "{stdout}");
    assert!(stdout.contains("Ternary"), "{stdout}");
    assert!(stdout.contains("static keyword"), "{stdout}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn optimize_dry_run_then_write() {
    let dir = temp_project("optimize");
    let before = fs::read_to_string(dir.join("util/Calc.java")).unwrap();
    // Dry run: no change on disk.
    let out = jepo()
        .args(["optimize", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(
        before,
        fs::read_to_string(dir.join("util/Calc.java")).unwrap()
    );
    // --write rewrites the ternary into if/else.
    let out = jepo()
        .args(["optimize", dir.to_str().unwrap(), "--write"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let after = fs::read_to_string(dir.join("util/Calc.java")).unwrap();
    assert_ne!(before, after);
    assert!(!after.contains('?'), "ternary refactored away:\n{after}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_runs_and_writes_result_txt() {
    let dir = temp_project("profile");
    let out = jepo()
        .args(["profile", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Calc.mod"), "{stdout}");
    assert!(stdout.contains("Energy Consumed"), "{stdout}");
    let result = fs::read_to_string(dir.join("result.txt")).unwrap();
    assert!(result.lines().count() >= 500, "one line per execution");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_prints_table2_columns() {
    let dir = temp_project("metrics");
    let out = jepo()
        .args(["metrics", dir.to_str().unwrap(), "Main", "Calc"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Dependencies"));
    assert!(stdout.contains("Main"));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = jepo().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = jepo()
        .args(["analyze", "/nonexistent/nowhere"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // Misspelled or misplaced flags, flags missing their value and
    // numbers that do not parse are usage errors, never silently
    // ignored or replaced by a default.
    let dir = temp_project("usage");
    let dir = dir.to_str().unwrap();
    for args in [
        vec!["table4", "200", "3", "--job", "2"],
        vec!["table4", "abc"],
        vec!["table4", "200", "3", "--cache-dir", dir],
        vec!["profile", dir, "--main"],
        vec!["optimize", dir, "--wirte"],
        vec!["serve", "--jobs", "x"],
    ] {
        let out = jepo().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
    fs::remove_dir_all(dir).ok();
}

#[test]
fn table4_writes_valid_trace_and_metrics() {
    let dir = std::env::temp_dir().join(format!("jepo-cli-telemetry-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t4.json");
    let metrics = dir.join("t4.jsonl");
    let out = jepo()
        .args([
            "table4",
            "200",
            "2",
            "--jobs",
            "2",
            "--trace",
            trace.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The trace must pass the structural gate: balanced spans, monotone
    // timestamps, nonnegative energy.
    let json = fs::read_to_string(&trace).unwrap();
    let stats = jepo_trace::validate::validate_chrome(&json).expect("valid Chrome trace");
    assert!(stats.spans >= 10 * 3, "a span triple per Table IV row");
    assert!(json.contains("row/Naive Bayes"), "per-row track present");
    assert!(json.contains("table4/dataset"));
    // The metrics dump carries the pool's per-worker accounting.
    let m = fs::read_to_string(&metrics).unwrap();
    assert!(m.contains("\"metric\":\"pool.items\""), "{m}");
    assert!(m.contains("\"metric\":\"pool.worker.busy_ns\""), "{m}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_content_is_identical_for_any_job_count() {
    let dir = std::env::temp_dir().join(format!("jepo-cli-tracedet-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let run = |jobs: &str, name: &str| -> String {
        let path = dir.join(name);
        let out = jepo()
            .args([
                "table4",
                "120",
                "2",
                "--jobs",
                jobs,
                "--trace",
                path.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        jepo_trace::validate::masked_content(&fs::read_to_string(&path).unwrap())
    };
    let j1 = run("1", "j1.json");
    let j2 = run("2", "j2.json");
    let j4 = run("4", "j4.json");
    assert_eq!(j1, j2, "span content must not depend on --jobs");
    assert_eq!(j1, j4);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_trace_carries_vm_spans_with_energy() {
    let dir = temp_project("trace-profile");
    let trace = dir.join("profile-trace.json");
    let out = jepo()
        .args([
            "profile",
            dir.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = fs::read_to_string(&trace).unwrap();
    let stats = jepo_trace::validate::validate_chrome(&json).expect("valid Chrome trace");
    assert!(json.contains("profile/run"), "{json}");
    assert!(json.contains("vm/main"), "{json}");
    // The VM binds a RAPL probe, so the run's spans carry energy.
    assert!(stats.total_package_j > 0.0);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn telemetry_flag_without_value_is_a_usage_error() {
    let out = jepo().args(["table4", "--trace"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn optimized_profile_costs_less_on_disk_roundtrip() {
    // Full CLI loop: profile → optimize --write → profile again.
    let dir = temp_project("roundtrip");
    let energy = |dir: &PathBuf| -> f64 {
        let out = jepo()
            .args(["profile", dir.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let total_line = stdout.lines().find(|l| l.contains("| total")).unwrap();
        total_line
            .split("total ")
            .nth(1)
            .unwrap()
            .split(" mJ")
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    let before = energy(&dir);
    let out = jepo()
        .args(["optimize", dir.to_str().unwrap(), "--write"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let after = energy(&dir);
    assert!(after <= before, "{after} vs {before}");
    fs::remove_dir_all(&dir).ok();
}

/// Append a regressive method (string concat in a loop) to a generated
/// corpus file — the scripted patch the CI energy gate applies.
fn apply_regressive_patch(file: &PathBuf) {
    let src = fs::read_to_string(file).unwrap();
    let body = src.trim_end().strip_suffix('}').unwrap().to_string();
    fs::write(
        file,
        format!(
            "{body}    public String regress(String[] parts, int n) {{\n        \
             String s = \"\";\n        \
             for (int i = 0; i < n; i++) {{ s += parts[i]; }}\n        \
             return s;\n    }}\n}}\n"
        ),
    )
    .unwrap();
}

#[test]
fn gen_corpus_is_deterministic_and_analyzable() {
    let root = std::env::temp_dir().join(format!("jepo-cli-gen-{}", std::process::id()));
    let a = root.join("a");
    let b = root.join("b");
    for dir in [&a, &b] {
        let out = jepo()
            .args([
                "gen-corpus",
                dir.to_str().unwrap(),
                "--files",
                "12",
                "--seed",
                "9",
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // Same seed → byte-identical corpora.
    for i in 0..12 {
        let name = format!("gen/Gen{i:05}.java");
        assert_eq!(
            fs::read_to_string(a.join(&name)).unwrap(),
            fs::read_to_string(b.join(&name)).unwrap(),
            "{name}"
        );
    }
    let out = jepo()
        .args(["analyze", a.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    fs::remove_dir_all(&root).ok();
}

#[test]
fn analyze_cache_dir_warm_run_is_byte_identical() {
    let dir = temp_project("cache-warm");
    let cache = dir.join(".jepo-cache");
    let run = || {
        let out = jepo()
            .args([
                "analyze",
                dir.to_str().unwrap(),
                "--cache-dir",
                cache.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            out.stdout,
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (cold_stdout, cold_stderr) = run();
    assert!(
        cache.join("analysis.jepocache").is_file(),
        "cache persisted"
    );
    assert!(
        cold_stderr.contains("0 unchanged file(s) reused, 2 analyzed"),
        "{cold_stderr}"
    );
    let (warm_stdout, warm_stderr) = run();
    // The warm run re-analyzes nothing and prints the same bytes.
    assert!(
        warm_stderr.contains("2 unchanged file(s) reused, 0 analyzed"),
        "{warm_stderr}"
    );
    assert_eq!(
        cold_stdout, warm_stdout,
        "cold vs warm stdout must match byte-for-byte"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn energy_view_ranks_methods() {
    let dir = temp_project("energy");
    let out = jepo()
        .args(["energy", dir.to_str().unwrap(), "--top", "3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("static per-method energy"), "{stdout}");
    // Main.main drives the 500-trip loop over Calc.mod, so it must
    // carry the largest estimate and lead the ranking.
    let first_row = stdout
        .lines()
        .find(|l| l.contains("Main.java"))
        .expect("Main ranked");
    assert!(first_row.contains("Main.main"), "{stdout}");
    let main_pos = stdout.find("Main.main").unwrap();
    let pick_pos = stdout.find("Calc.pick").expect("Calc.pick listed");
    assert!(main_pos < pick_pos, "hot method first:\n{stdout}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn callee_only_edit_invalidates_cached_caller() {
    // Regression test for content-only invalidation: the caller file's
    // bytes never change, yet its suggestions must track the callee.
    let dir = std::env::temp_dir().join(format!("jepo-cli-stale-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let helper_cheap = "public class Helper {
         public static int work(int x) { return x + 1; }
     }";
    let helper_alloc = "public class Helper {
         public static int work(int x) { int[] b = new int[8]; b[0] = x; return b[0]; }
     }";
    fs::write(dir.join("Helper.java"), helper_cheap).unwrap();
    fs::write(
        dir.join("Caller.java"),
        "public class Caller {
             public int drive(int n) {
                 int s = 0;
                 for (int i = 0; i < n; i++) { s = s + Helper.work(i); }
                 return s;
             }
         }",
    )
    .unwrap();
    let cache = dir.join(".jepo-cache");
    let run = || {
        let out = jepo()
            .args([
                "analyze",
                dir.to_str().unwrap(),
                "--cache-dir",
                cache.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (cold_stdout, cold_stderr) = run();
    assert!(cold_stderr.contains("0 unchanged file(s) reused, 2 analyzed"));
    assert!(
        !cold_stdout.contains("allocates inside the callee"),
        "cheap callee must not fire the rule:\n{cold_stdout}"
    );

    // Edit ONLY the callee; the caller's bytes are untouched.
    fs::write(dir.join("Helper.java"), helper_alloc).unwrap();
    let (edited_stdout, edited_stderr) = run();
    assert!(
        edited_stderr.contains("0 unchanged file(s) reused, 2 analyzed"),
        "the caller's dependency hash must dirty it too: {edited_stderr}"
    );
    assert!(
        edited_stdout.contains("allocates inside the callee"),
        "caller must pick up the callee's new allocation:\n{edited_stdout}"
    );
    assert!(edited_stdout.contains("Caller"), "{edited_stdout}");

    // Steady state: everything warm again, output byte-identical.
    let (warm_stdout, warm_stderr) = run();
    assert!(
        warm_stderr.contains("2 unchanged file(s) reused, 0 analyzed"),
        "{warm_stderr}"
    );
    assert_eq!(edited_stdout, warm_stdout);
    fs::remove_dir_all(&dir).ok();
}

/// Tentpole: the daemon's warm responses are byte-identical to the
/// real binary's cold stdout, and a `shutdown` request drains the
/// daemon to a clean exit 0.
#[test]
fn serve_daemon_matches_cli_bytes_and_drains_on_shutdown() {
    use std::io::BufRead;
    let dir = temp_project("serve");
    let mut child = jepo()
        .args(["serve", "--addr", "127.0.0.1:0", "--queue", "8"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    // The first stdout line announces the bound address.
    let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in banner: {banner}"))
        .to_string();

    // The corpus exactly as load_project ships it: sorted paths,
    // root-relative names.
    let files = vec![
        (
            "Main.java".to_string(),
            fs::read_to_string(dir.join("Main.java")).unwrap(),
        ),
        (
            "util/Calc.java".to_string(),
            fs::read_to_string(dir.join("util/Calc.java")).unwrap(),
        ),
    ];
    let cli_stdout = |args: &[&str]| -> String {
        let out = jepo().args(args).output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let cases: Vec<(jepo_serve::Request, String)> = {
        let mut analyze = jepo_serve::Request::new("analyze");
        analyze.files = files.clone();
        let mut energy = jepo_serve::Request::new("energy");
        energy.params.push(("top".into(), "3".into()));
        energy.files = files;
        let mut table4 = jepo_serve::Request::new("table4");
        table4.params.push(("instances".into(), "120".into()));
        table4.params.push(("folds".into(), "2".into()));
        vec![
            (analyze, cli_stdout(&["analyze", dir.to_str().unwrap()])),
            (
                energy,
                cli_stdout(&["energy", dir.to_str().unwrap(), "--top", "3"]),
            ),
            (table4, cli_stdout(&["table4", "120", "2"])),
        ]
    };
    for round in 0..2 {
        for (req, want) in &cases {
            let resp = jepo_serve::request(&addr, req).expect("request served");
            assert!(resp.is_ok(), "{:?}", resp.error);
            assert_eq!(
                &resp.body, want,
                "round {round}: served {} bytes differ from CLI stdout",
                req.verb
            );
            if round > 0 {
                assert_eq!(resp.cache, "warm", "{}: repeat must be warm", req.verb);
            }
        }
    }

    let resp = jepo_serve::request(&addr, &jepo_serve::Request::new("shutdown")).unwrap();
    assert!(resp.is_ok());
    let status = child.wait().unwrap();
    assert!(status.success(), "serve must drain and exit 0: {status:?}");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut stdout, &mut rest).unwrap();
    assert!(rest.contains("drained and stopped"), "{rest}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_energy_gates_on_regression() {
    let root = std::env::temp_dir().join(format!("jepo-cli-diff-{}", std::process::id()));
    let a = root.join("a");
    let out = jepo()
        .args([
            "gen-corpus",
            a.to_str().unwrap(),
            "--files",
            "10",
            "--seed",
            "3",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    // Identical revisions: no regression, exit 0 even when gated.
    let out = jepo()
        .args([
            "diff-energy",
            a.to_str().unwrap(),
            a.to_str().unwrap(),
            "--fail-on-regression",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "identical revisions must pass the gate"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("No suggestion changes"), "{stdout}");

    // Patched revision: gate trips with exit code 3.
    let b = root.join("b");
    fs::create_dir_all(b.join("gen")).unwrap();
    for entry in fs::read_dir(a.join("gen")).unwrap() {
        let p = entry.unwrap().path();
        fs::copy(&p, b.join("gen").join(p.file_name().unwrap())).unwrap();
    }
    apply_regressive_patch(&b.join("gen/Gen00002.java"));
    let out = jepo()
        .args([
            "diff-energy",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--cache-dir",
            root.join("cache").to_str().unwrap(),
            "--fail-on-regression",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "regression must exit 3");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSION"), "{stdout}");
    assert!(stdout.contains("String concatenation"), "{stdout}");
    assert!(
        stdout.contains("reused 9 unchanged file(s)"),
        "B must reuse A's analysis for the 9 untouched files: {stdout}"
    );

    // Without the gate flag the same diff reports but exits 0.
    let out = jepo()
        .args(["diff-energy", a.to_str().unwrap(), b.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "ungated diff-energy always exits 0");
    fs::remove_dir_all(&root).ok();
}
