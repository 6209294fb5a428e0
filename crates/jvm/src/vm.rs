//! High-level VM facade: compile → (optionally instrument) → run.

use crate::class::Program;
use crate::compiler;
use crate::decode::{self, DecodedProgram};
use crate::instrument;
use crate::interp::{Interp, ProfileEvent, RunOutcome};
use crate::sampling::{self, SampleSet, SampledMethodRecord, SamplingConfig};
use crate::value::Value;
use crate::{MethodId, VmError};
use jepo_rapl::{DeviceProfile, SimulatedRapl};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Aggregated per-method energy record — one row of the JEPO profiler
/// view (Fig. 4) / one `result.txt` line group.
#[derive(Debug, Clone)]
pub struct MethodEnergyRecord {
    /// Qualified method name (`Class.method`).
    pub name: String,
    /// Number of recorded executions.
    pub executions: u64,
    /// Total package joules across executions.
    pub total_package_j: f64,
    /// Total core joules.
    pub total_core_j: f64,
    /// Total virtual seconds.
    pub total_seconds: f64,
    /// Per-execution measurements, in completion order (the paper stores
    /// "measurements … for each execution").
    pub per_execution: Vec<(f64, f64)>,
}

/// Which execution engine a [`Vm`] runs bytecode on.
///
/// All engines are bit-identical in every observable (stdout, op
/// scoreboards, profile events, energy joules) — enforced by the
/// differential test suite. `Ir` is the default; `Decoded` and
/// `Legacy` remain as differential references and benchmark baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Dispatch {
    /// Register-IR compilation tier: basic blocks lowered from the
    /// decoded form, optimized (folding, DCE, inlining, LICM), with
    /// per-block bulk accounting. Falls back to `Decoded` per-frame
    /// for constructs the compiler bails on (try/catch methods).
    #[default]
    Ir,
    /// Pre-decoded threaded interpreter: interned symbols, inline
    /// caches, pooled frames, zero-clone dispatch.
    Decoded,
    /// The original `Vec<Op>` clone-per-instruction loop.
    Legacy,
}

/// A compiled program plus the simulated device it reports to.
pub struct Vm {
    program: Program,
    sim: Arc<SimulatedRapl>,
    fuel: u64,
    dispatch: Dispatch,
    /// Lazily built pre-decoded form; invalidated when the program's
    /// bytecode changes (instrumentation). `Arc` so VMs of one program
    /// can share it ([`Vm::from_prepared`]).
    decoded: Option<Arc<DecodedProgram>>,
    /// Lazily built register-IR form (requires `decoded`); invalidated
    /// alongside it.
    ir: Option<Arc<crate::ir::IrProgram>>,
    /// Virtual-time sampling profiler config, applied to every run.
    sampling: Option<SamplingConfig>,
}

impl Vm {
    /// Compile a single source string.
    pub fn from_source(src: &str) -> Result<Vm, VmError> {
        Ok(Vm::new(compiler::compile_source(src)?))
    }

    /// Compile a multi-file project.
    pub fn from_project(project: &jepo_jlang::JavaProject) -> Result<Vm, VmError> {
        Ok(Vm::new(compiler::compile_project(project)?))
    }

    /// Wrap an already-compiled program.
    pub fn new(program: Program) -> Vm {
        Vm {
            program,
            sim: Arc::new(SimulatedRapl::new(DeviceProfile::laptop_i5_3317u())),
            fuel: 50_000_000_000,
            dispatch: Dispatch::default(),
            decoded: None,
            ir: None,
            sampling: None,
        }
    }

    /// Wrap an already-compiled program together with its pre-built
    /// execution forms, so a run skips decode and IR lowering.
    ///
    /// Contract: `decoded` (and `ir`, when given) must have been built
    /// from exactly this `program` bytes, in the same instrumentation
    /// state; [`Vm::shared_forms`] on another VM of the same program is
    /// the supported producer. A later [`Vm::instrument`] call
    /// invalidates the shared forms and falls back to a private rebuild.
    /// `_instrumented` is the caller's record of that state; the VM reads
    /// the probes from the bytecode itself and does not consult it.
    pub fn from_prepared(
        program: Program,
        decoded: Option<Arc<DecodedProgram>>,
        ir: Option<Arc<crate::ir::IrProgram>>,
        _instrumented: bool,
    ) -> Vm {
        let mut vm = Vm::new(program);
        vm.decoded = decoded;
        vm.ir = ir;
        vm
    }

    /// Build (if needed) and hand out the shared execution forms of the
    /// current program for the current dispatch: the pre-decoded
    /// program, plus the register-IR program under [`Dispatch::Ir`].
    /// `None` under [`Dispatch::Legacy`], which has no derived form.
    pub fn shared_forms(
        &mut self,
    ) -> (
        Option<Arc<DecodedProgram>>,
        Option<Arc<crate::ir::IrProgram>>,
    ) {
        self.ensure_decoded();
        (self.decoded.clone(), self.ir.clone())
    }

    /// Select the execution engine (default: [`Dispatch::Ir`]). Runs use
    /// exactly this engine, whichever shared forms the VM was handed.
    pub fn with_dispatch(mut self, dispatch: Dispatch) -> Vm {
        self.dispatch = dispatch;
        self
    }

    /// Use a different device profile (edge-device sweeps).
    pub fn with_device(mut self, profile: DeviceProfile) -> Vm {
        self.sim = Arc::new(SimulatedRapl::new(profile));
        self
    }

    /// Set the instruction budget.
    pub fn with_fuel(mut self, fuel: u64) -> Vm {
        self.fuel = fuel;
        self
    }

    /// Enable the virtual-time sampling profiler for subsequent runs
    /// (see [`crate::sampling`]). Orthogonal to [`Vm::instrument`]: a
    /// sampled run needs no probe injection.
    pub fn with_sampling(mut self, cfg: SamplingConfig) -> Vm {
        self.sampling = Some(cfg);
        self
    }

    /// Inject profiler probes into every method (idempotent).
    pub fn instrument(&mut self) -> usize {
        self.decoded = None; // bytecode changed: decoded form is stale
        self.ir = None; // ditto for the IR built from it
        instrument::instrument_all(&mut self.program)
    }

    /// Build (once) the pre-decoded program — and, for the IR tier, the
    /// compiled register-IR program on top of it.
    fn ensure_decoded(&mut self) {
        if self.dispatch == Dispatch::Legacy {
            return;
        }
        if self.decoded.is_none() {
            self.decoded = Some(Arc::new(decode::decode(&self.program)));
        }
        if self.dispatch == Dispatch::Ir && self.ir.is_none() {
            let dp = self.decoded.as_ref().expect("decoded just built");
            self.ir = Some(Arc::new(crate::ir::compile(&self.program, dp)));
        }
    }

    /// The compiled program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The simulated RAPL device energy flows into.
    pub fn device(&self) -> Arc<SimulatedRapl> {
        self.sim.clone()
    }

    /// When a `jepo-trace` track is open on this thread, bind a
    /// wrap-aware package probe over this VM's device so spans opened
    /// during the run carry real energy deltas. `None` (and zero cost
    /// beyond one thread-local read) when tracing is off.
    fn bind_trace_probe(&self) -> Option<jepo_trace::ProbeGuard> {
        if !jepo_trace::active() {
            return None;
        }
        jepo_rapl::probe::package_probe(&self.sim)
            .ok()
            .map(|p| jepo_trace::bind_probe(Arc::new(p)))
    }

    /// Run `main`, returning the outcome.
    pub fn run_main(&mut self) -> Result<RunOutcome, VmError> {
        let main = self
            .program
            .main
            .ok_or_else(|| VmError::NoMain("no `public static void main` found".into()))?;
        // main(String[] args): pass a null array (argv unused in corpus).
        self.run_entry(main, vec![Value::Null])
    }

    /// Run the class initializers, then `entry`, on the engine the
    /// dispatch names: the decoded form only off Legacy, the IR form
    /// only under [`Dispatch::Ir`].
    fn run_entry(&mut self, entry: MethodId, args: Vec<Value>) -> Result<RunOutcome, VmError> {
        self.ensure_decoded();
        let _probe = self.bind_trace_probe();
        let _run = jepo_trace::span("vm/run");
        let mut interp = Interp::new(&self.program, self.sim.clone());
        let (decoded, ir) = match self.dispatch {
            Dispatch::Legacy => (None, None),
            Dispatch::Decoded => (self.decoded.as_deref(), None),
            Dispatch::Ir => (self.decoded.as_deref(), self.ir.as_deref()),
        };
        if let Some(dp) = decoded {
            interp.set_decoded(dp);
        }
        if let Some(irp) = ir {
            interp.set_ir(irp);
        }
        interp.set_fuel(self.fuel);
        if let Some(cfg) = self.sampling {
            interp.set_sampling(cfg);
        }
        {
            let _s = jepo_trace::span("vm/clinit");
            interp.run_clinits()?;
        }
        let ret = {
            let _s = jepo_trace::span("vm/main");
            interp.run_method(entry, args)?
        };
        Ok(interp.finish(ret))
    }

    /// Aggregate a run's profile events per method, sorted by descending
    /// total energy — the content of JEPO's profiler view.
    pub fn aggregate_profile(events: &[ProfileEvent]) -> Vec<MethodEnergyRecord> {
        let mut map: BTreeMap<&str, MethodEnergyRecord> = BTreeMap::new();
        for e in events {
            let rec = map.entry(&e.name).or_insert_with(|| MethodEnergyRecord {
                name: e.name.to_string(),
                executions: 0,
                total_package_j: 0.0,
                total_core_j: 0.0,
                total_seconds: 0.0,
                per_execution: Vec::new(),
            });
            rec.executions += 1;
            rec.total_package_j += e.package_j;
            rec.total_core_j += e.core_j;
            rec.total_seconds += e.seconds;
            rec.per_execution.push((e.package_j, e.seconds));
        }
        let mut out: Vec<_> = map.into_values().collect();
        // `total_cmp`, not `partial_cmp(..).unwrap_or(Equal)`: a NaN
        // total (however unlikely) must sort deterministically, not
        // wherever the comparison sort happens to leave it.
        out.sort_by(|a, b| b.total_package_j.total_cmp(&a.total_package_j));
        out
    }

    /// Fold a run's [`SampleSet`] into per-method records (self +
    /// inclusive, raw + calibrated joules), resolving method names
    /// against this VM's program.
    pub fn aggregate_samples(&self, set: &SampleSet) -> Vec<SampledMethodRecord> {
        sampling::aggregate_samples(set, |mid| {
            self.program.methods[mid as usize].qualified.to_string()
        })
    }

    /// Qualified name of a method by id (e.g. for labelling samples).
    pub fn method_name(&self, mid: crate::MethodId) -> &str {
        &self.program.methods[mid as usize].qualified
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_example_runs() {
        let src = "class Main {
            public static void main(String[] args) {
                int s = 0;
                for (int i = 0; i < 100; i++) { s += i; }
                System.out.println(s);
            }
        }";
        let mut vm = Vm::from_source(src).unwrap();
        let run = vm.run_main().unwrap();
        assert_eq!(run.stdout.trim(), "4950");
        assert!(run.energy.package_j > 0.0);
    }

    #[test]
    fn no_main_is_reported() {
        let mut vm = Vm::from_source("class A { void f() { } }").unwrap();
        assert!(matches!(vm.run_main(), Err(VmError::NoMain(_))));
    }

    #[test]
    fn instrumented_profile_aggregates() {
        let src = "class M {
            static int inner(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }
            static int outer() { return inner(50) + inner(60); }
            public static void main(String[] a) { outer(); outer(); }
        }";
        let mut vm = Vm::from_source(src).unwrap();
        let probes = vm.instrument();
        assert!(probes > 0);
        let out = vm.run_main().unwrap();
        let records = Vm::aggregate_profile(&out.profile);
        let inner = records.iter().find(|r| r.name == "M.inner").unwrap();
        assert_eq!(inner.executions, 4);
        assert_eq!(inner.per_execution.len(), 4);
        let outer = records.iter().find(|r| r.name == "M.outer").unwrap();
        assert_eq!(outer.executions, 2);
        // Inclusive accounting: outer >= its inners.
        assert!(outer.total_package_j >= inner.total_package_j * 0.99);
        // Records sorted by descending energy; main first.
        assert_eq!(records[0].name, "M.main");
    }

    #[test]
    fn device_profile_changes_energy_split() {
        let src = "class M { public static void main(String[] a) {
            int s = 0; for (int i = 0; i < 1000; i++) s += i; } }";
        let mut laptop = Vm::from_source(src).unwrap();
        let mut jetson = Vm::from_source(src)
            .unwrap()
            .with_device(DeviceProfile::jetson_tx2());
        let l = laptop.run_main().unwrap();
        let j = jetson.run_main().unwrap();
        // Same dynamic package energy; different core split.
        assert!((l.energy.package_j - j.energy.package_j).abs() < 1e-9);
        assert!(l.energy.core_j > j.energy.core_j);
        assert!(j.energy.dram_j > 0.0 && l.energy.dram_j == 0.0);
    }

    #[test]
    fn fuel_limit_applies() {
        let mut vm =
            Vm::from_source("class M { public static void main(String[] a) { while (true) { } } }")
                .unwrap()
                .with_fuel(5_000);
        assert!(matches!(vm.run_main(), Err(VmError::OutOfFuel)));
    }

    const SAMPLING_SRC: &str = "class M {
        static int inner(int n) { int s = 0; for (int i = 0; i < n; i++) s += i * i; return s; }
        static int outer(int r) { int s = 0; for (int i = 0; i < r; i++) s += inner(400); return s; }
        public static void main(String[] a) { System.out.println(outer(200)); }
    }";

    fn sampled_run(dispatch: Dispatch) -> (Vec<SampledMethodRecord>, RunOutcome) {
        let mut vm = Vm::from_source(SAMPLING_SRC)
            .unwrap()
            .with_dispatch(dispatch)
            .with_sampling(SamplingConfig::from_interval_us(10));
        let out = vm.run_main().unwrap();
        let records = vm.aggregate_samples(out.samples.as_ref().unwrap());
        (records, out)
    }

    #[test]
    fn sampling_collects_and_attributes() {
        for dispatch in [Dispatch::Ir, Dispatch::Decoded, Dispatch::Legacy] {
            let (records, out) = sampled_run(dispatch);
            let set = out.samples.as_ref().unwrap();
            assert!(set.taken >= 10, "{dispatch:?}: only {} samples", set.taken);
            assert_eq!(set.dropped, 0);
            // Raw attribution can never exceed the run's dynamic energy,
            // and the profiler's own (calibration) energy is part of it.
            let raw = set.raw_total_j();
            assert!(raw > 0.0 && raw <= out.energy.package_j + 1e-9);
            assert!(set.calibration_j > 0.0 && set.calibration_j < raw);
            assert!(set.calibrated_total_j() >= 0.0);
            // The hot leaf dominates self-energy; main dominates inclusive.
            let names: Vec<&str> = records.iter().map(|r| r.name.as_str()).collect();
            assert!(names.contains(&"M.inner"), "{dispatch:?}: {names:?}");
            // Main is on every sampled stack: its inclusive attribution
            // covers (nearly) the whole raw total.
            let main_rec = records.iter().find(|r| r.name == "M.main").unwrap();
            assert!(
                main_rec.incl_package_j > raw * 0.9,
                "{dispatch:?}: main inclusive {} vs raw {raw}",
                main_rec.incl_package_j
            );
            let inner = records.iter().find(|r| r.name == "M.inner").unwrap();
            assert!(
                inner.self_samples >= inner.incl_samples / 2,
                "{dispatch:?}: inner should lead self-samples: {inner:?}"
            );
            for r in &records {
                assert!(r.calibrated_incl_j <= r.incl_package_j + 1e-12);
                assert!(r.calibrated_incl_j >= 0.0);
            }
            // Sampling must not perturb program output (the sum wraps
            // in i32, like real Java).
            assert_eq!(out.stdout.trim(), "-44287296");
        }
    }

    /// A run shorter than one interval takes no sample; its raw total
    /// is `+0.0`, so a report prints `0.000`, not `-0.000`.
    #[test]
    fn zero_sample_run_totals_positive_zero() {
        let src = "class M { public static void main(String[] a) { int x = 1 + 2; } }";
        for dispatch in [Dispatch::Ir, Dispatch::Decoded, Dispatch::Legacy] {
            let mut vm = Vm::from_source(src)
                .unwrap()
                .with_dispatch(dispatch)
                .with_sampling(SamplingConfig::from_interval_us(100));
            let out = vm.run_main().unwrap();
            let set = out.samples.as_ref().unwrap();
            assert!(
                set.samples.is_empty(),
                "{dispatch:?}: {} samples",
                set.taken
            );
            assert_eq!(set.raw_total_j().to_bits(), 0, "{dispatch:?}");
            assert_eq!(format!("{:.3}", set.raw_total_j() * 1e3), "0.000");
        }
    }

    #[test]
    fn sampling_is_deterministic_across_runs() {
        for dispatch in [Dispatch::Ir, Dispatch::Decoded, Dispatch::Legacy] {
            let (rec_a, out_a) = sampled_run(dispatch);
            let (rec_b, out_b) = sampled_run(dispatch);
            let (a, b) = (out_a.samples.unwrap(), out_b.samples.unwrap());
            assert_eq!(a.samples, b.samples, "{dispatch:?}");
            assert_eq!(a.stacks, b.stacks, "{dispatch:?}");
            assert_eq!(a.taken, b.taken);
            assert!(a.calibration_j.to_bits() == b.calibration_j.to_bits());
            assert_eq!(rec_a, rec_b, "{dispatch:?}");
        }
    }

    #[test]
    fn sampling_off_means_no_samples_and_no_charges() {
        let mut vm = Vm::from_source(SAMPLING_SRC).unwrap();
        let plain = vm.run_main().unwrap();
        assert!(plain.samples.is_none());
        // A sampled run of the same program includes the profiler's own
        // energy, so it reads strictly higher than the plain run.
        let mut sampled_vm = Vm::from_source(SAMPLING_SRC)
            .unwrap()
            .with_sampling(SamplingConfig::from_interval_us(10));
        let sampled = sampled_vm.run_main().unwrap();
        let set = sampled.samples.as_ref().unwrap();
        assert!(sampled.energy.package_j > plain.energy.package_j);
        let extra = sampled.energy.package_j - plain.energy.package_j;
        assert!(
            (extra - set.calibration_j).abs() < 1e-12,
            "sampling overhead {extra} must equal calibration {}",
            set.calibration_j
        );
    }

    #[test]
    fn sim_device_sees_the_energy() {
        let src = "class M { public static void main(String[] a) {
            double s = 0; for (int i = 0; i < 10000; i++) s += i * 0.5; } }";
        let mut vm = Vm::from_source(src).unwrap();
        let dev = vm.device();
        let before = dev.read_joules(jepo_rapl::Domain::Package);
        let out = vm.run_main().unwrap();
        let after = dev.read_joules(jepo_rapl::Domain::Package);
        // Device gained the dynamic energy plus idle for the virtual time.
        let idle = dev.profile().idle_package_watts * out.energy.seconds;
        assert!((after - before - out.energy.package_j - idle).abs() < 1e-9);
    }
}
