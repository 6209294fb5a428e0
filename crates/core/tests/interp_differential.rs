//! End-to-end differential tests for the optimized interpreters: the
//! whole profiler pipeline (corpus compile → instrument → run → report)
//! must produce byte-identical output under all engines (legacy,
//! pre-decoded, register-IR), the masked telemetry trace must match,
//! and the Table IV report text must be invariant across `--jobs` —
//! the optimized engines are only allowed to be *faster*, never
//! *different*. The `*_pinned` tests also hold every engine, and the
//! Table IV experiment, to fixed bits, so a change common to all three
//! engines or to every job count cannot move one either.

use jepo_core::corpus;
use jepo_core::report;
use jepo_core::{ClassifierResult, JepoProfiler, ProfileReport, ProfilingMode, WekaExperiment};
use jepo_jvm::Dispatch;

fn profile_with(dispatch: Dispatch) -> ProfileReport {
    JepoProfiler::new()
        .with_dispatch(dispatch)
        .profile(&corpus::runnable_project())
        .expect("corpus profiles")
}

fn assert_reports_identical(l: &ProfileReport, d: &ProfileReport) {
    assert_eq!(l.main_class, d.main_class);
    assert_eq!(l.probes_injected, d.probes_injected);
    assert_eq!(l.stdout, d.stdout, "program stdout diverged");
    assert_eq!(
        l.render_result_txt(),
        d.render_result_txt(),
        "result.txt diverged"
    );
    assert_eq!(l.view(), d.view(), "Fig. 4 profiler view diverged");
    for (name, a, b) in [
        ("package_j", l.energy.package_j, d.energy.package_j),
        ("core_j", l.energy.core_j, d.energy.core_j),
        ("uncore_j", l.energy.uncore_j, d.energy.uncore_j),
        ("dram_j", l.energy.dram_j, d.energy.dram_j),
        ("seconds", l.energy.seconds, d.energy.seconds),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "energy `{name}` diverged");
    }
    assert_eq!(l.records.len(), d.records.len());
    for (a, b) in l.records.iter().zip(&d.records) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.executions, b.executions, "{}", a.name);
        assert_eq!(
            a.total_package_j.to_bits(),
            b.total_package_j.to_bits(),
            "{} package_j",
            a.name
        );
        assert_eq!(
            a.total_core_j.to_bits(),
            b.total_core_j.to_bits(),
            "{} core_j",
            a.name
        );
        assert_eq!(
            a.total_seconds.to_bits(),
            b.total_seconds.to_bits(),
            "{} seconds",
            a.name
        );
        assert_eq!(a.per_execution.len(), b.per_execution.len(), "{}", a.name);
        for ((aj, asec), (bj, bsec)) in a.per_execution.iter().zip(&b.per_execution) {
            assert_eq!(aj.to_bits(), bj.to_bits(), "{} per-exec joules", a.name);
            assert_eq!(asec.to_bits(), bsec.to_bits(), "{} per-exec secs", a.name);
        }
    }
}

/// The interpreter-bound end-to-end path: the instrumented WEKA corpus
/// run (mini-NaiveBayes over 300 instances) through all three engines.
#[test]
fn corpus_profile_is_bit_identical_across_engines() {
    let legacy = profile_with(Dispatch::Legacy);
    let decoded = profile_with(Dispatch::Decoded);
    assert_reports_identical(&legacy, &decoded);
    let ir = profile_with(Dispatch::Ir);
    assert_reports_identical(&legacy, &ir);
}

/// Same comparison with telemetry on: the masked Chrome trace (span
/// tree, names, sequence — everything except wall-clock/energy noise)
/// must be identical under all three engines. Each run records into its
/// own tracer through an outer track guard, so spans of tests running
/// beside this one never land in its trace.
#[test]
fn masked_trace_is_identical_across_engines() {
    let mut masked = Vec::new();
    for dispatch in [Dispatch::Legacy, Dispatch::Decoded, Dispatch::Ir] {
        let tracer = jepo_trace::Tracer::new();
        tracer.enable();
        {
            let _track = tracer.track("test");
            let _report = profile_with(dispatch);
        }
        let json = tracer.export_chrome(false);
        jepo_trace::validate::validate_chrome(&json).expect("trace validates");
        for span in ["profile/run", "vm/main"] {
            let name = format!("\"name\":\"{span}\"");
            assert!(json.contains(&name), "{dispatch:?}: no `{span}` span");
        }
        masked.push(jepo_trace::validate::masked_content(&json));
    }
    assert_eq!(masked[0], masked[1], "masked trace diverged (decoded)");
    assert_eq!(masked[0], masked[2], "masked trace diverged (ir)");
}

/// Every field of a Table IV row, f64s as their exact bits: the
/// determinism contract is identical output, not merely close.
fn row_bits(r: &ClassifierResult) -> (String, usize, bool, Vec<u64>) {
    let m = |m: &jepo_rapl::Measurement| [m.package_j, m.core_j, m.uncore_j, m.dram_j, m.seconds];
    let floats = [
        r.package_improvement_pct,
        r.cpu_improvement_pct,
        r.time_improvement_pct,
        r.accuracy_baseline,
        r.accuracy_optimized,
        r.accuracy_drop_pct,
    ]
    .into_iter()
    .chain(m(&r.baseline))
    .chain(m(&r.optimized));
    (
        r.name.clone(),
        r.changes,
        r.converged,
        floats.map(f64::to_bits).collect(),
    )
}

/// Small Table IV experiment: every result field, compared by bits, and
/// the report text must be identical for `jobs ∈ {1, 2, 4}` (the kernels
/// share the same striped-counter exactness contract the interpreter's
/// scoreboards flush through).
#[test]
fn small_table4_report_is_jobs_invariant() {
    let exp = WekaExperiment {
        instances: 300,
        folds: 3,
        ..Default::default()
    };
    let runs: Vec<Vec<ClassifierResult>> = [1usize, 2, 4]
        .iter()
        .map(|&jobs| exp.run_all_jobs(jobs))
        .collect();
    let bits: Vec<Vec<_>> = runs
        .iter()
        .map(|rs| rs.iter().map(row_bits).collect())
        .collect();
    assert_eq!(bits[0], bits[1], "jobs=1 vs jobs=2");
    assert_eq!(bits[0], bits[2], "jobs=1 vs jobs=4");
    let texts: Vec<String> = runs.iter().map(|rs| report::table4(rs)).collect();
    assert_eq!(texts[0], texts[1], "jobs=1 vs jobs=2");
    assert_eq!(texts[0], texts[2], "jobs=1 vs jobs=4");
    assert!(texts[0].contains("Naive Bayes"), "report has rows");
}

/// The benchmark's Table IV (200 instances, 3 folds) held to fixed
/// values under one and two workers: an FNV-1a hash over every row's
/// [`row_bits`], and the length and FNV-1a hash of the report text. The
/// test above compares runs with each other, so a change to a
/// classifier's op charges, RNG draws or float operations passes it;
/// this one fails.
#[test]
fn small_table4_is_pinned() {
    let exp = WekaExperiment {
        instances: 200,
        folds: 3,
        ..Default::default()
    };
    for jobs in [1usize, 2] {
        let rows = exp.run_all_jobs(jobs);
        let rows_hash = rows.iter().fold(jepo_trace::FNV_OFFSET, |h, r| {
            let (name, changes, converged, bits) = row_bits(r);
            let mut line = format!("{name} {changes} {converged}");
            for b in bits {
                line.push_str(&format!(" {b:x}"));
            }
            line.push('\n');
            jepo_trace::fnv1a(h, line.bytes())
        });
        let text = report::table4(&rows);
        let got = (
            rows_hash,
            text.len(),
            jepo_trace::fnv1a(jepo_trace::FNV_OFFSET, text.bytes()),
        );
        assert_eq!(
            got,
            (0x8229_3d74_b3dd_41e3, 1_336, 0x10f9_dfaa_7060_9aac),
            "jobs={jobs}: (row hash, report bytes, report hash)"
        );
    }
}

// ---- pins across commits -------------------------------------------------
//
// The comparisons above hold the engines to each other, so a change
// common to all three passes them whatever it does to the bits. These
// hold every engine to fixed values, measured before the probe path's
// last rewrite: a probe change must leave every energy bit where it was.

/// What an instrumented run must reproduce bit for bit.
struct RunPin {
    package_j: u64,
    core_j: u64,
    uncore_j: u64,
    dram_j: u64,
    seconds: u64,
    /// The simulated device's package counter after the run.
    device_package_j: u64,
    ops: u64,
    events: usize,
    /// [`event_hash`] of the run's profile events.
    event_hash: u64,
}

/// FNV-1a over the events, each rendered as
/// `"{method} {name} {package_j bits:x} {core_j bits:x} {seconds bits:x}\n"`.
fn event_hash(events: &[jepo_jvm::interp::ProfileEvent]) -> u64 {
    events.iter().fold(jepo_trace::FNV_OFFSET, |h, e| {
        let line = format!(
            "{} {} {:x} {:x} {:x}\n",
            e.method,
            e.name,
            e.package_j.to_bits(),
            e.core_j.to_bits(),
            e.seconds.to_bits()
        );
        jepo_trace::fnv1a(h, line.bytes())
    })
}

/// Instrument `build()`'s program, run it on every engine, and hold
/// each run to `pin`.
fn assert_run_pinned(build: impl Fn() -> jepo_jvm::Vm, pin: &RunPin) {
    for dispatch in [Dispatch::Legacy, Dispatch::Decoded, Dispatch::Ir] {
        let mut vm = build().with_dispatch(dispatch);
        vm.instrument();
        let out = vm.run_main().expect("pinned program runs");
        let device = vm.device().read_joules(jepo_rapl::Domain::Package);
        let seen = [
            ("package_j", out.energy.package_j.to_bits(), pin.package_j),
            ("core_j", out.energy.core_j.to_bits(), pin.core_j),
            ("uncore_j", out.energy.uncore_j.to_bits(), pin.uncore_j),
            ("dram_j", out.energy.dram_j.to_bits(), pin.dram_j),
            ("seconds", out.energy.seconds.to_bits(), pin.seconds),
            ("device package_j", device.to_bits(), pin.device_package_j),
            ("event hash", event_hash(&out.profile), pin.event_hash),
        ];
        for (name, got, want) in seen {
            assert_eq!(
                got, want,
                "{dispatch:?}: `{name}` {got:#x} != pinned {want:#x}"
            );
        }
        assert_eq!(out.ops_executed, pin.ops, "{dispatch:?}: ops executed");
        assert_eq!(
            out.profile.len(),
            pin.events,
            "{dispatch:?}: profile events"
        );
    }
}

/// The instrumented runnable corpus (mini-NaiveBayes over 300
/// instances) on every engine.
#[test]
fn corpus_profile_bits_are_pinned() {
    let project = corpus::runnable_project();
    let build = || jepo_jvm::Vm::from_project(&project).expect("corpus compiles");
    assert_run_pinned(
        build,
        &RunPin {
            package_j: 0x3f5a_903f_4f61_994f,
            core_j: 0x3f55_c833_ea0d_7897,
            uncore_j: 0x3f25_4032_a5e7_add9,
            dram_j: 0,
            seconds: 0x3f3a_8e1f_f42a_4b90,
            device_package_j: 0x3f67_e75f_a2f4_e70c,
            ops: 847_467,
            events: 10_507,
            event_hash: 0x3308_1746_372d_5dd8,
        },
    );
}

/// A probed program whose exceptions unwind through instrumented
/// frames (the source of the jvm differential suite's
/// `exceptions_typed_catches_finally_and_rethrow`): its exits are
/// recorded as the unwind abandons a frame, not at a probe.
#[test]
fn unwinding_profile_bits_are_pinned() {
    let src = "class M {
        static int f(int n) {
            try {
                if (n == 0) { throw new RuntimeException(\"zero\"); }
                if (n == 1) { throw new IllegalStateException(\"one\"); }
                return n;
            } catch (IllegalStateException e) {
                return -1;
            } finally {
                System.out.println(\"fin \" + n);
            }
        }
        public static void main(String[] a) {
            for (int i = 0; i < 3; i++) {
                try {
                    System.out.println(f(i));
                } catch (RuntimeException e) {
                    System.out.println(\"caught \" + e.getMessage());
                }
            }
            try {
                try { throw new Exception(\"inner\"); }
                catch (Exception e) { throw new RuntimeException(\"re: \" + e.getMessage()); }
            } catch (Exception e) { System.out.println(e.getMessage()); }
        }
    }";
    assert_run_pinned(
        || jepo_jvm::Vm::from_source(src).expect("compiles"),
        &RunPin {
            package_j: 0x3eca_e165_87af_9172,
            core_j: 0x3ec6_0abe_c64d_67e7,
            uncore_j: 0x3e95_811e_0626_0df5,
            dram_j: 0,
            seconds: 0x3ea8_2776_e3f8_67a4,
            device_package_j: 0x3ed7_1a15_856e_5895,
            ops: 123,
            events: 4,
            event_hash: 0x7d33_e4cf_d7b8_b393,
        },
    );
}

/// `result.txt` as `jepo profile` writes it, in every mode and on every
/// engine: (bytes, lines, FNV-1a).
#[test]
fn corpus_result_txt_is_pinned() {
    let project = corpus::runnable_project();
    let instrumented: (usize, usize, u64) = (661_925, 10_507, 0xbbb4_78f4_0622_3b40);
    // Legacy and Decoded reach a sampling safepoint at every op, the IR
    // tier at every block, so their samples fall at different points.
    let sampled_per_op = (728, 7, 0x4235_e4a5_177a_029c);
    let sampled_per_block = (526, 5, 0x4c2b_99f6_e7bb_6862);
    for (dispatch, sampled) in [
        (Dispatch::Legacy, sampled_per_op),
        (Dispatch::Decoded, sampled_per_op),
        (Dispatch::Ir, sampled_per_block),
    ] {
        for (mode, pin) in [
            (ProfilingMode::Instrumented, instrumented),
            (ProfilingMode::Both { interval_us: 10 }, instrumented),
            (ProfilingMode::Sampling { interval_us: 10 }, sampled),
        ] {
            let report = JepoProfiler::new()
                .with_dispatch(dispatch)
                .with_mode(mode)
                .profile(&project)
                .expect("corpus profiles");
            let txt = report.render_result_txt();
            let got = (
                txt.len(),
                txt.lines().count(),
                jepo_trace::fnv1a(jepo_trace::FNV_OFFSET, txt.bytes()),
            );
            assert_eq!(got, pin, "{mode:?} on {dispatch:?}: (bytes, lines, hash)");
        }
    }
}
