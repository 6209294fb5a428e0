//! The JEPO profiler (§VII).
//!
//! Flow, exactly as the paper describes it: search the project for main
//! classes (one → proceed; several → the caller chooses, as the Eclipse
//! dialog does); inject energy/time probes into every method; run the
//! main class; store per-execution measurements for every method; write
//! `result.txt`; show the profiler view (Fig. 4).

use crate::views;
use jepo_jlang::{JavaProject, MainClassChoice};
use jepo_jvm::{
    DecodedProgram, Dispatch, MethodEnergyRecord, Program, SampleSet, SampledMethodRecord,
    SamplingConfig, Vm, VmError,
};
use std::sync::Arc;

/// Shared, immutable compiled forms of one project — the unit of the
/// profiling-as-a-service hot cache. Built once per corpus content
/// hash by [`JepoProfiler::prepare`]; every subsequent profile request
/// for the same bytes skips parse, compile, probe injection, decode,
/// and IR compilation entirely ([`JepoProfiler::profile_prepared`]).
///
/// Both variants are kept because the profiling modes need different
/// bytecode: `Instrumented`/`Both` run the probe-injected program,
/// `Sampling` (and the `Both` sampling leg) the plain one.
pub struct PreparedProgram {
    plain: Program,
    plain_decoded: Option<Arc<DecodedProgram>>,
    plain_ir: Option<Arc<jepo_jvm::ir::IrProgram>>,
    instr: Program,
    instr_decoded: Option<Arc<DecodedProgram>>,
    instr_ir: Option<Arc<jepo_jvm::ir::IrProgram>>,
    probes: usize,
}

/// How the profiler attributes energy to methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProfilingMode {
    /// The paper's mode: probes injected into every method (§VII).
    #[default]
    Instrumented,
    /// Statistical mode: no probes; the VM snapshots the frame stack at
    /// safepoints on a virtual-time interval and the interval's energy
    /// delta is attributed to the stack. The profiler's own energy is
    /// measured (calibration) and subtracted from the attribution.
    Sampling {
        /// Virtual-time sampling interval in microseconds.
        interval_us: u64,
    },
    /// Run both modes on the same project and report side by side
    /// (agreement/divergence per method).
    Both {
        /// Sampling interval for the sampling leg.
        interval_us: u64,
    },
}

/// The sampling half of a profile report.
#[derive(Debug, Clone)]
pub struct SampledProfile {
    /// Sampling interval used, microseconds of virtual time.
    pub interval_us: u64,
    /// Per-method statistical attribution, sorted by descending
    /// inclusive energy.
    pub records: Vec<SampledMethodRecord>,
    /// Samples taken.
    pub samples: u64,
    /// Samples dropped at the retention cap.
    pub dropped: u64,
    /// Energy the profiler itself spent (subtracted in calibration).
    pub calibration_j: f64,
    /// Total energy attributed before calibration.
    pub raw_total_j: f64,
    /// Total energy attributed after subtracting the profiler's own.
    pub calibrated_total_j: f64,
}

/// Result of a profiling run.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Which main class ran.
    pub main_class: String,
    /// Mode the report was produced under.
    pub mode: ProfilingMode,
    /// Probes injected (Javassist-analogue insertion count; 0 in
    /// pure sampling mode).
    pub probes_injected: usize,
    /// Aggregated per-method records, sorted by descending energy
    /// (empty in pure sampling mode).
    pub records: Vec<MethodEnergyRecord>,
    /// Sampling attribution (present in `Sampling` and `Both` modes).
    pub sampled: Option<SampledProfile>,
    /// Program stdout.
    pub stdout: String,
    /// Whole-run energy.
    pub energy: jepo_rapl::Measurement,
    /// `result.txt` contents.
    pub result_txt: String,
}

impl ProfileReport {
    /// The Fig. 4 view — dispatched by mode: the instrumented table,
    /// the sampling table, or the side-by-side agreement report.
    pub fn view(&self) -> String {
        match (&self.mode, &self.sampled) {
            (ProfilingMode::Both { .. }, Some(s)) => {
                views::side_by_side_view(&self.records, &s.records)
            }
            (ProfilingMode::Sampling { .. }, Some(s)) => {
                views::sampling_view(&s.records, s.samples, s.dropped, s.calibration_j)
            }
            _ => views::profiler_view(&self.records),
        }
    }
}

/// The profiler: wraps project compilation, instrumentation, and the
/// instrumented run.
pub struct JepoProfiler {
    /// Explicit main class when discovery is ambiguous.
    pub chosen_main: Option<String>,
    /// Instruction budget for the run.
    pub fuel: u64,
    /// Which interpreter engine runs the instrumented program (both are
    /// bit-identical; `Legacy` exists for differential tests and as the
    /// benchmark baseline).
    pub dispatch: Dispatch,
    /// Attribution mode (instrumented probes, statistical sampling, or
    /// both side by side).
    pub mode: ProfilingMode,
}

impl Default for JepoProfiler {
    fn default() -> Self {
        JepoProfiler::new()
    }
}

impl JepoProfiler {
    /// Profiler on the paper's laptop device profile.
    pub fn new() -> JepoProfiler {
        JepoProfiler {
            chosen_main: None,
            fuel: 2_000_000_000,
            dispatch: Dispatch::default(),
            mode: ProfilingMode::Instrumented,
        }
    }

    /// Select the interpreter engine for the instrumented run.
    pub fn with_dispatch(mut self, dispatch: Dispatch) -> JepoProfiler {
        self.dispatch = dispatch;
        self
    }

    /// Select the attribution mode.
    pub fn with_mode(mut self, mode: ProfilingMode) -> JepoProfiler {
        self.mode = mode;
        self
    }

    /// Build the shared compiled forms of a project once: compile,
    /// then decode + IR-compile both the plain and the probe-injected
    /// variants for this profiler's dispatch. The result is immutable
    /// and cheap to share (`Arc` it); [`JepoProfiler::profile_prepared`]
    /// runs against it without re-doing any of that work.
    pub fn prepare(&self, project: &JavaProject) -> Result<PreparedProgram, VmError> {
        let _s = jepo_trace::span("profile/prepare");
        let plain = jepo_jvm::compile_project(project)?;
        let mut instr = plain.clone();
        let probes = jepo_jvm::instrument_all(&mut instr);
        // Throwaway VMs build the derived forms exactly the way a cold
        // run would, so prepared and cold runs share one code path.
        let (plain_decoded, plain_ir) = Vm::new(plain.clone())
            .with_dispatch(self.dispatch)
            .shared_forms();
        let (instr_decoded, instr_ir) = Vm::new(instr.clone())
            .with_dispatch(self.dispatch)
            .shared_forms();
        Ok(PreparedProgram {
            plain,
            plain_decoded,
            plain_ir,
            instr,
            instr_decoded,
            instr_ir,
            probes,
        })
    }

    /// Compile the project into a fresh VM, optionally instrumented
    /// (probe count) and optionally sampling. With `prepared`,
    /// compilation and probe injection are skipped, and so are decode
    /// and IR lowering wherever the shared forms already hold them.
    fn build_vm(
        &self,
        project: &JavaProject,
        instrument: bool,
        sampling: Option<SamplingConfig>,
        prepared: Option<&PreparedProgram>,
    ) -> Result<(Vm, usize), VmError> {
        let _s = jepo_trace::span("profile/compile");
        let (mut vm, probes) = match prepared {
            Some(p) => {
                let (program, decoded, ir, probes) = if instrument {
                    (
                        p.instr.clone(),
                        p.instr_decoded.clone(),
                        p.instr_ir.clone(),
                        p.probes,
                    )
                } else {
                    (
                        p.plain.clone(),
                        p.plain_decoded.clone(),
                        p.plain_ir.clone(),
                        0,
                    )
                };
                (
                    Vm::from_prepared(program, decoded, ir, instrument)
                        .with_dispatch(self.dispatch),
                    probes,
                )
            }
            None => {
                let vm = Vm::from_project(project)?.with_dispatch(self.dispatch);
                (vm, 0)
            }
        };
        vm = vm.with_fuel(self.fuel);
        if let Some(cfg) = sampling {
            vm = vm.with_sampling(cfg);
        }
        let probes = if instrument && prepared.is_none() {
            vm.instrument()
        } else {
            probes
        };
        Ok((vm, probes))
    }

    /// Run one sampling-mode pass and fold the outcome.
    fn run_sampling(
        &self,
        project: &JavaProject,
        interval_us: u64,
        prepared: Option<&PreparedProgram>,
    ) -> Result<(SampledProfile, jepo_jvm::RunOutcome), VmError> {
        let cfg = SamplingConfig::from_interval_us(interval_us);
        let (mut vm, _) = self.build_vm(project, false, Some(cfg), prepared)?;
        let out = {
            let _s = jepo_trace::span("profile/run-sampling");
            vm.run_main()?
        };
        let set = out
            .samples
            .as_ref()
            .expect("sampling was enabled, run must return samples");
        if jepo_trace::would_trace() {
            emit_sample_track(&vm, set);
        }
        let records = vm.aggregate_samples(set);
        let profile = SampledProfile {
            interval_us,
            records,
            samples: set.taken,
            dropped: set.dropped,
            calibration_j: set.calibration_j,
            raw_total_j: set.raw_total_j(),
            calibrated_total_j: set.calibrated_total_j(),
        };
        Ok((profile, out))
    }

    /// Profile a project end to end.
    pub fn profile(&self, project: &JavaProject) -> Result<ProfileReport, VmError> {
        self.profile_prepared(project, None)
    }

    /// Profile a project end to end, reusing shared compiled forms when
    /// available. `prepared` must come from [`JepoProfiler::prepare`] on
    /// the same project bytes; it may have been prepared under another
    /// dispatch, since the VM runs this profiler's engine whatever forms
    /// it is handed. The report is bit-identical either way.
    pub fn profile_prepared(
        &self,
        project: &JavaProject,
        prepared: Option<&PreparedProgram>,
    ) -> Result<ProfileReport, VmError> {
        let _track = jepo_trace::would_trace().then(|| jepo_trace::track("profile"));
        // Main-class discovery per §VII.
        let main_class = {
            let _s = jepo_trace::span("profile/discover");
            match project.discover_main_class() {
                MainClassChoice::Unique(name) => name,
                MainClassChoice::None => {
                    return Err(VmError::NoMain("project has no main class".into()))
                }
                MainClassChoice::Ambiguous(candidates) => match &self.chosen_main {
                    Some(choice) if candidates.contains(choice) => choice.clone(),
                    Some(choice) => {
                        return Err(VmError::NoMain(format!(
                            "chosen main `{choice}` not among candidates {candidates:?}"
                        )))
                    }
                    None => {
                        return Err(VmError::NoMain(format!(
                            "several main classes, a choice is required: {candidates:?}"
                        )))
                    }
                },
            }
        };
        // Pure sampling: no probes, statistical attribution only.
        if let ProfilingMode::Sampling { interval_us } = self.mode {
            let (sampled, out) = self.run_sampling(project, interval_us, prepared)?;
            let result_txt = {
                let _s = jepo_trace::span("profile/report");
                views::sampling_result_txt(&sampled.records)
            };
            return Ok(ProfileReport {
                main_class,
                mode: self.mode,
                probes_injected: 0,
                records: Vec::new(),
                sampled: Some(sampled),
                stdout: out.stdout,
                energy: out.energy,
                result_txt,
            });
        }
        // Instrumented leg (also the ground truth for `Both`).
        let (mut vm, probes) = self.build_vm(project, true, None, prepared)?;
        let out = {
            let _s = jepo_trace::span("profile/run");
            vm.run_main()?
        };
        let (records, result_txt) = {
            let _s = jepo_trace::span("profile/report");
            let records = Vm::aggregate_profile(&out.profile);
            let result_txt = views::result_txt(&records);
            (records, result_txt)
        };
        let sampled = match self.mode {
            ProfilingMode::Both { interval_us } => {
                Some(self.run_sampling(project, interval_us, prepared)?.0)
            }
            _ => None,
        };
        Ok(ProfileReport {
            main_class,
            mode: self.mode,
            probes_injected: probes,
            records,
            sampled,
            stdout: out.stdout,
            energy: out.energy,
            result_txt,
        })
    }
}

/// Export the sample series as instant events on a dedicated track:
/// one tick per sample, named after the leaf method, annotated with the
/// interval's energy delta. Capped so huge runs don't bloat the trace.
fn emit_sample_track(vm: &Vm, set: &SampleSet) {
    const MAX_TICKS: usize = 4096;
    let _g = jepo_trace::track("profile/samples");
    for s in set.samples.iter().take(MAX_TICKS) {
        let leaf = set.stacks[s.stack as usize]
            .last()
            .map(|&mid| vm.method_name(mid))
            .unwrap_or("<no frame>");
        jepo_trace::instant(leaf, s.package_j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;

    #[test]
    fn profiles_the_bundled_project() {
        let report = JepoProfiler::new()
            .profile(&corpus::runnable_project())
            .unwrap();
        assert_eq!(report.main_class, "Main");
        assert!(report.probes_injected > 10);
        assert!(!report.records.is_empty());
        // Hot methods from the corpus appear.
        let names: Vec<&str> = report.records.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"Main.main"), "{names:?}");
        assert!(
            names.iter().any(|n| n.starts_with("NaiveBayes.")),
            "{names:?}"
        );
        // Sorted by descending energy, main (inclusive) first.
        assert_eq!(report.records[0].name, "Main.main");
        // result.txt has one line per execution.
        let total_execs: u64 = report.records.iter().map(|r| r.executions).sum();
        assert_eq!(report.result_txt.lines().count() as u64, total_execs);
        // Fig. 4 view renders.
        let view = report.view();
        assert!(view.contains("Energy Consumed"));
    }

    #[test]
    fn classify_is_called_once_per_instance() {
        let report = JepoProfiler::new()
            .profile(&corpus::runnable_project())
            .unwrap();
        let classify = report
            .records
            .iter()
            .find(|r| r.name == "NaiveBayes.classify")
            .expect("classify profiled");
        assert_eq!(classify.executions, 300);
        assert_eq!(classify.per_execution.len(), 300);
    }

    #[test]
    fn no_main_is_an_error() {
        let mut p = JavaProject::new();
        p.add_file("A.java", "class A { void f() { } }").unwrap();
        assert!(matches!(
            JepoProfiler::new().profile(&p),
            Err(VmError::NoMain(_))
        ));
    }

    #[test]
    fn ambiguous_main_requires_choice() {
        let mut p = JavaProject::new();
        p.add_file(
            "A.java",
            "class A { public static void main(String[] a) { } }",
        )
        .unwrap();
        p.add_file(
            "B.java",
            "class B { public static void main(String[] a) { } }",
        )
        .unwrap();
        let plain = JepoProfiler::new();
        assert!(matches!(plain.profile(&p), Err(VmError::NoMain(_))));
        let mut chosen = JepoProfiler::new();
        chosen.chosen_main = Some("B".into());
        let report = chosen.profile(&p).unwrap();
        assert_eq!(report.main_class, "B");
        let mut wrong = JepoProfiler::new();
        wrong.chosen_main = Some("C".into());
        assert!(matches!(wrong.profile(&p), Err(VmError::NoMain(_))));
    }

    #[test]
    fn sampling_mode_profiles_without_probes() {
        let report = JepoProfiler::new()
            .with_mode(ProfilingMode::Sampling { interval_us: 10 })
            .profile(&corpus::runnable_project())
            .unwrap();
        assert_eq!(report.probes_injected, 0);
        assert!(report.records.is_empty());
        let s = report.sampled.as_ref().expect("sampling attribution");
        assert!(s.samples > 10, "{} samples", s.samples);
        assert_eq!(s.dropped, 0);
        assert!(s.calibration_j > 0.0);
        assert!(s.calibrated_total_j >= 0.0);
        assert!(s.calibrated_total_j <= s.raw_total_j);
        let names: Vec<&str> = s.records.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"Main.main"), "{names:?}");
        // View + result.txt render the sampling shape.
        let view = report.view();
        assert!(view.contains("sampling profiler view"), "{view}");
        assert!(view.contains("Calibrated Energy"), "{view}");
        assert!(report.result_txt.contains("self samples"));
    }

    #[test]
    fn both_mode_reports_side_by_side_agreement() {
        let report = JepoProfiler::new()
            .with_mode(ProfilingMode::Both { interval_us: 10 })
            .profile(&corpus::runnable_project())
            .unwrap();
        // Both halves present.
        assert!(report.probes_injected > 10);
        assert!(!report.records.is_empty());
        let s = report.sampled.as_ref().expect("sampling half");
        assert!(s.samples > 10);
        let view = report.view();
        assert!(view.contains("instrumented vs sampling"), "{view}");
        assert!(view.contains("Agreement"), "{view}");
        // The dominant method must agree between the modes: sampling
        // attributes nearly all inclusive energy to Main.main, like
        // instrumentation does.
        let main_line = view
            .lines()
            .find(|l| l.starts_with("Main.main"))
            .expect("Main.main row");
        assert!(main_line.ends_with("ok"), "{main_line}");
    }

    /// Satellite: sampled attribution is bit-identical regardless of how
    /// many profiles run concurrently (`--jobs ∈ {1, 2, 4}`) — the
    /// sampler is driven by virtual time, not wall clock.
    #[test]
    fn sampling_is_deterministic_across_jobs() {
        let run_jobs = |jobs: usize| -> Vec<String> {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..jobs)
                    .map(|_| {
                        scope.spawn(|| {
                            let report = JepoProfiler::new()
                                .with_mode(ProfilingMode::Sampling { interval_us: 10 })
                                .profile(&corpus::runnable_project())
                                .unwrap();
                            format!("{}{}", report.view(), report.result_txt)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
        };
        let reference = run_jobs(1).pop().unwrap();
        for jobs in [2usize, 4] {
            for (i, rendered) in run_jobs(jobs).into_iter().enumerate() {
                assert_eq!(
                    rendered, reference,
                    "jobs={jobs} run {i} diverged from the jobs=1 reference"
                );
            }
        }
    }

    /// The hot-cache contract: a profile run against prepared shared
    /// forms is bit-identical to a cold run, in every mode.
    #[test]
    fn prepared_profile_is_bit_identical_to_cold() {
        let project = corpus::runnable_project();
        for mode in [
            ProfilingMode::Instrumented,
            ProfilingMode::Sampling { interval_us: 10 },
            ProfilingMode::Both { interval_us: 10 },
        ] {
            let profiler = JepoProfiler::new().with_mode(mode);
            let prepared = profiler.prepare(&project).unwrap();
            let cold = profiler.profile(&project).unwrap();
            let warm = profiler
                .profile_prepared(&project, Some(&prepared))
                .unwrap();
            assert_eq!(warm.probes_injected, cold.probes_injected, "{mode:?}");
            assert_eq!(warm.stdout, cold.stdout, "{mode:?}");
            assert_eq!(warm.result_txt, cold.result_txt, "{mode:?}");
            assert_eq!(warm.view(), cold.view(), "{mode:?}");
            assert_eq!(
                warm.energy.package_j.to_bits(),
                cold.energy.package_j.to_bits(),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn energy_is_positive_and_inclusive() {
        let report = JepoProfiler::new()
            .profile(&corpus::runnable_project())
            .unwrap();
        assert!(report.energy.package_j > 0.0);
        let main_rec = &report.records[0];
        // Main's inclusive energy ≈ the whole run's dynamic energy.
        assert!(main_rec.total_package_j <= report.energy.package_j + 1e-9);
        assert!(main_rec.total_package_j > report.energy.package_j * 0.8);
    }
}
