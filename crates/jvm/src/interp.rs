//! The interpreter: frames, operand stack, exception unwinding, and
//! per-opcode energy/time accounting.
//!
//! Every executed instruction charges one or more
//! [`jepo_rapl::OpCategory`] counts; array accesses additionally consult
//! the [`crate::heap::CacheModel`]. Counts convert to joules (cost model)
//! and virtual seconds (latency model); both flush to the simulated RAPL
//! device so the profiler's probes see exactly what real RAPL probes
//! would: a monotone energy counter advancing with the program's work.

use crate::class::{ClassId, MethodId, Program};
use crate::decode::{DInstr, DOp, DecodedProgram, InlineCache, Sym, NO_CLASS};
use crate::energy::{self, LatencyModel};
use crate::heap::{CacheModel, Heap, HeapObj};
use crate::opcode::{ArithOp, ArrayElem, CmpOp, MathFn, NumTy, Op};
use crate::sampling::{SampleSet, SamplingConfig, SamplingState, SAMPLE_BASE_CHARGES};
use crate::value::{Ref, Value};
use crate::VmError;
use jepo_rapl::{CostModel, OpCategory, Scoreboard, SimulatedRapl};
use std::sync::Arc;

/// Upper bound on pooled (recycled) frames — enough for the corpus call
/// depths while keeping retained capacity bounded.
const FRAME_POOL_MAX: usize = 64;

/// Result of one program/method run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Captured `System.out` output.
    pub stdout: String,
    /// Return value of the entry method (if non-void).
    pub ret: Option<Value>,
    /// Whole-run energy/time (package = all dynamic joules + idle).
    pub energy: jepo_rapl::Measurement,
    /// Per-method profile events (empty unless instrumented).
    pub profile: Vec<ProfileEvent>,
    /// Total instructions executed.
    pub ops_executed: u64,
    /// Cache statistics.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Inline-cache hits (decoded dispatch only; 0 on the legacy path).
    pub ic_hits: u64,
    /// Inline-cache misses (decoded dispatch only).
    pub ic_misses: u64,
    /// Stack samples from the virtual-time sampling profiler
    /// (`None` unless sampling was configured).
    pub samples: Option<SampleSet>,
}

/// One recorded method execution (the profiler stores one entry per
/// execution, as §VII describes).
#[derive(Debug, Clone)]
pub struct ProfileEvent {
    /// Method id.
    pub method: MethodId,
    /// Qualified name, shared with the program's
    /// [`crate::class::Method::qualified`], so a probe exit does not
    /// allocate.
    pub name: Arc<str>,
    /// Package joules attributed to this execution (inclusive of
    /// callees, like the paper's start/end MSR reads).
    pub package_j: f64,
    /// Core joules.
    pub core_j: f64,
    /// Virtual seconds.
    pub seconds: f64,
}

pub(crate) struct Frame {
    pub(crate) method: MethodId,
    pub(crate) pc: usize,
    pub(crate) locals: Vec<Value>,
    pub(crate) stack: Vec<Value>,
}

/// The exception class a handler catches. The legacy path owns the
/// string (it arrives in the cloned `Op`); the decoded path stores the
/// interned symbol plus the decode-time catch-all verdict, so pushing a
/// handler never allocates.
enum HandlerClass {
    Owned(String),
    Interned { sym: Sym, catch_all: bool },
}

struct Handler {
    frame_depth: usize,
    stack_depth: usize,
    handler_pc: u32,
    class: HandlerClass,
}

struct ProfileEntry {
    method: MethodId,
    start_j: f64,
    start_core_j: f64,
    start_s: f64,
}

/// Result of the value-level arithmetic core: either a computed value or
/// an integer division/modulus by zero, which the caller converts into a
/// VM `ArithmeticException` from its own control-flow context.
pub(crate) enum ArithOutcome {
    Value(Value),
    DivByZero,
}

/// Interpreter state for one run.
pub struct Interp<'p> {
    pub(crate) program: &'p Program,
    /// Pre-decoded code; when set, [`Interp::run_method`] uses the
    /// zero-clone dispatch loop instead of the legacy `Vec<Op>` walk.
    pub(crate) decoded: Option<&'p DecodedProgram>,
    /// Compiled register IR; when set (alongside `decoded`, which stays
    /// available as the deoptimization target), [`Interp::run_method`]
    /// enters through the IR tier.
    pub(crate) ir: Option<&'p crate::ir::IrProgram>,
    /// Inline-cache state, indexed by decode-time site id. Fresh per
    /// interpreter, so runs stay deterministic and the shared
    /// [`DecodedProgram`] stays immutable.
    pub(crate) ics: Vec<InlineCache>,
    pub(crate) ic_hits: u64,
    pub(crate) ic_misses: u64,
    /// Recycled frames: locals/stack vectors keep their capacity across
    /// invocations instead of being reallocated per call.
    pub(crate) pool: Vec<Frame>,
    pub(crate) heap: Heap,
    pub(crate) statics: Vec<Value>,
    cache: CacheModel,
    /// Joules per op category: the paper-calibrated cost model.
    cost: CostModel,
    /// Nanoseconds per op category, paired with `cost`.
    latency: LatencyModel,
    sim: Arc<SimulatedRapl>,
    /// Local scoreboard (same batched-accounting type the ML kernel
    /// uses): per-instruction charges are plain adds here, converted to
    /// joules/seconds and flushed to `sim` only at run boundaries.
    pub(crate) board: Scoreboard,
    /// Per-method pc-indexed category tables, precomputed once so the
    /// dispatch loop charges by lookup instead of re-matching the op.
    cats: Vec<Box<[Option<OpCategory>]>>,
    /// Joules/seconds accumulated and already flushed to `sim`.
    flushed_j: f64,
    flushed_s: f64,
    pub(crate) stdout: String,
    pub(crate) fuel: u64,
    pub(crate) frames: Vec<Frame>,
    handlers: Vec<Handler>,
    profile_stack: Vec<ProfileEntry>,
    profile_out: Vec<ProfileEvent>,
    pub(crate) ops_executed: u64,
    /// Number of successful unwinds (caught exceptions) so far. The IR
    /// tier snapshots this around bridged ops to detect that control has
    /// transferred to a handler frame and it must deoptimize.
    pub(crate) unwound: u64,
    /// Virtual-time sampling profiler state (off unless configured).
    sampling: Option<Box<SamplingState>>,
    /// Ops-executed threshold for the next sampling check; `u64::MAX`
    /// when sampling is off, so the safepoint test is one always-false
    /// compare on the non-sampling path.
    pub(crate) sample_check_at: u64,
}

impl<'p> Interp<'p> {
    /// New interpreter over a program, reporting to `sim`.
    pub fn new(program: &'p Program, sim: Arc<SimulatedRapl>) -> Self {
        let statics = program
            .statics
            .iter()
            .map(|s| default_value(&s.ty))
            .collect();
        let cats = program
            .methods
            .iter()
            .map(|m| energy::category_table(&m.code))
            .collect();
        Interp {
            program,
            decoded: None,
            ir: None,
            ics: Vec::new(),
            ic_hits: 0,
            ic_misses: 0,
            pool: Vec::new(),
            heap: Heap::new(),
            statics,
            cache: CacheModel::default(),
            cost: CostModel::paper_calibrated(),
            latency: LatencyModel::paper_calibrated(),
            sim,
            board: Scoreboard::new(),
            cats,
            flushed_j: 0.0,
            flushed_s: 0.0,
            stdout: String::new(),
            fuel: 50_000_000_000,
            frames: Vec::new(),
            handlers: Vec::new(),
            profile_stack: Vec::new(),
            profile_out: Vec::new(),
            ops_executed: 0,
            unwound: 0,
            sampling: None,
            sample_check_at: u64::MAX,
        }
    }

    /// Switch to the pre-decoded dispatch loop. The decoded program must
    /// have been built from the same (identically instrumented) program
    /// this interpreter was constructed over.
    pub fn set_decoded(&mut self, dp: &'p DecodedProgram) {
        self.ics = vec![InlineCache::EMPTY; dp.ic_sites as usize];
        self.decoded = Some(dp);
    }

    /// Enter runs through the register-IR tier. Requires [`Interp::set_decoded`]
    /// to have been called with the decoded form the IR was compiled
    /// from: the decoded program remains the deoptimization target for
    /// exception paths and non-compiled methods.
    pub fn set_ir(&mut self, ir: &'p crate::ir::IrProgram) {
        debug_assert!(self.decoded.is_some(), "IR tier requires the decoded form");
        self.ir = Some(ir);
    }

    /// Limit the instruction budget.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Enable the virtual-time sampling profiler for this run. The first
    /// safepoint after each `cfg.interval_s` of virtual time snapshots
    /// the frame stack; see [`crate::sampling`].
    pub fn set_sampling(&mut self, cfg: SamplingConfig) {
        self.sampling = Some(Box::new(SamplingState::new(cfg)));
        self.sample_check_at = 0; // first safepoint computes the stride
    }

    /// Sampling safepoint, hit from the dispatch-loop heads (legacy and
    /// decoded check per op, the IR tier per block — the points where
    /// the frame stack is coherent). The fast path is the single
    /// `ops_executed >= sample_check_at` compare at the call sites; this
    /// cold body prices the virtual clock, records any due sample, and
    /// re-arms the stride.
    #[cold]
    pub(crate) fn sample_safepoint(&mut self) {
        let (pkg, core, secs) = self.energy_now();
        let Some(mut st) = self.sampling.take() else {
            self.sample_check_at = u64::MAX;
            return;
        };
        if secs >= st.next_sample_s {
            let depth = st.record(self.frames.iter().map(|f| f.method), pkg, core, secs);
            // Charge the profiler's own work (stack walk + bookkeeping)
            // to the scoreboard, and account it exactly for calibration.
            let walk = SAMPLE_BASE_CHARGES + depth;
            self.board.bump_n(OpCategory::Load, walk);
            let nj = self.cost.nanojoules(OpCategory::Load);
            let ns = self.latency.nanos(OpCategory::Load);
            st.set.calibration_j += walk as f64 * nj * 1e-9;
            st.set.calibration_s += walk as f64 * ns * 1e-9;
        }
        // Re-arm: estimate how many ops fit before the next boundary
        // from the run's average virtual seconds per op (all inputs are
        // deterministic, so the stride — and thus every sample — is
        // reproducible bit-for-bit).
        let stride = if self.ops_executed > 0 && secs > 0.0 {
            let avg = secs / self.ops_executed as f64;
            (((st.next_sample_s - secs) / avg) * 0.5) as u64
        } else {
            0
        };
        self.sample_check_at = self.ops_executed + stride.clamp(1, 65_536);
        self.sampling = Some(st);
    }

    #[inline]
    pub(crate) fn charge(&mut self, cat: OpCategory) {
        self.board.bump(cat);
    }

    /// Current accumulated (package joules, core joules, seconds)
    /// including not-yet-flushed counts.
    pub(crate) fn energy_now(&self) -> (f64, f64, f64) {
        let mut j = 0.0;
        let mut s = 0.0;
        for (i, n) in self.board.counts().into_iter().enumerate() {
            if n > 0 {
                let c = OpCategory::ALL[i];
                j += n as f64 * self.cost.nanojoules(c) * 1e-9;
                s += n as f64 * self.latency.nanos(c) * 1e-9;
            }
        }
        self.reading(self.flushed_j + j, self.flushed_s + s)
    }

    /// (package joules, core joules, seconds) for the given package and
    /// time totals.
    fn reading(&self, pkg: f64, secs: f64) -> (f64, f64, f64) {
        (pkg, pkg * self.sim.profile().core_dynamic_fraction, secs)
    }

    /// Flush counts to the simulated device (dynamic energy + clock) and
    /// return the accumulated (package joules, core joules, seconds),
    /// which equal [`Interp::energy_now`] on the now-empty scoreboard.
    pub(crate) fn flush(&mut self) -> (f64, f64, f64) {
        let mut j = 0.0;
        let mut s = 0.0;
        for (i, n) in self.board.drain().into_iter().enumerate() {
            if n > 0 {
                let c = OpCategory::ALL[i];
                j += n as f64 * self.cost.nanojoules(c) * 1e-9;
                s += n as f64 * self.latency.nanos(c) * 1e-9;
            }
        }
        self.sim.add_dynamic_energy(j);
        self.sim.advance_seconds(s);
        self.flushed_j += j;
        self.flushed_s += s;
        self.reading(self.flushed_j, self.flushed_s)
    }

    /// Run all `<clinit>` initializers.
    pub fn run_clinits(&mut self) -> Result<(), VmError> {
        for &mid in &self.program.clinits {
            self.run_method(mid, vec![])?;
        }
        Ok(())
    }

    /// Run a method to completion, returning its value (if any).
    pub fn run_method(
        &mut self,
        mid: MethodId,
        args: Vec<Value>,
    ) -> Result<Option<Value>, VmError> {
        self.handlers.clear();
        let base_depth = self.frames.len();
        self.push_frame(mid, args);
        let result = match (self.ir, self.decoded) {
            (Some(irp), Some(dp)) => self.execute_ir(base_depth, dp, irp),
            (_, Some(dp)) => self.execute_decoded(base_depth, dp),
            _ => self.execute(base_depth),
        };
        match result {
            Ok(v) => Ok(v),
            Err(e) => {
                // Clean up frames from the failed run.
                self.frames.truncate(base_depth);
                Err(e)
            }
        }
    }

    /// Finish a run: flush energy and build the outcome.
    pub fn finish(mut self, ret: Option<Value>) -> RunOutcome {
        self.flush();
        let samples = self.sampling.take().map(|st| st.set);
        let reg = jepo_trace::Registry::global();
        if reg.is_enabled() {
            if let Some(set) = &samples {
                reg.counter("profiler.samples").add(set.taken);
                reg.counter("profiler.dropped").add(set.dropped);
                reg.gauge("profiler.calibration_j").set(set.calibration_j);
            }
            reg.counter("jvm.runs").incr();
            reg.counter("jvm.ops_executed").add(self.ops_executed);
            reg.counter("jvm.cache_hits").add(self.cache.hits());
            reg.counter("jvm.cache_misses").add(self.cache.misses());
            reg.counter("jvm.profile_events")
                .add(self.profile_out.len() as u64);
            reg.histogram("jvm.heap_objects", &jepo_trace::COUNT_BUCKETS)
                .observe(self.heap.len() as u64);
            if self.decoded.is_some() {
                reg.counter("vm.ic.hit").add(self.ic_hits);
                reg.counter("vm.ic.miss").add(self.ic_misses);
            }
        }
        RunOutcome {
            stdout: std::mem::take(&mut self.stdout),
            ret,
            energy: jepo_rapl::Measurement {
                package_j: self.flushed_j,
                core_j: self.flushed_j * self.sim.profile().core_dynamic_fraction,
                uncore_j: self.flushed_j * self.sim.profile().uncore_dynamic_fraction,
                dram_j: self.flushed_j * self.sim.profile().dram_dynamic_fraction,
                seconds: self.flushed_s,
            },
            profile: std::mem::take(&mut self.profile_out),
            ops_executed: self.ops_executed,
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            ic_hits: self.ic_hits,
            ic_misses: self.ic_misses,
            samples,
        }
    }

    /// Captured stdout so far.
    pub fn stdout(&self) -> &str {
        &self.stdout
    }

    fn push_frame(&mut self, mid: MethodId, args: Vec<Value>) {
        let m = &self.program.methods[mid as usize];
        let mut locals = vec![Value::Null; (m.locals as usize).max(args.len())];
        locals[..args.len()].copy_from_slice(&args);
        self.frames.push(Frame {
            method: mid,
            pc: 0,
            locals,
            stack: Vec::with_capacity(8),
        });
    }

    pub(crate) fn method_name(&self, mid: MethodId) -> &str {
        &self.program.methods[mid as usize].qualified
    }

    pub(crate) fn rt_err(&self, msg: impl Into<String>) -> VmError {
        let name = self
            .frames
            .last()
            .map(|f| self.method_name(f.method).to_string())
            .unwrap_or_else(|| "<entry>".into());
        VmError::runtime(msg, name)
    }

    /// The main loop: executes until the frame stack shrinks back to
    /// `base_depth`, returning the entry method's return value.
    fn execute(&mut self, base_depth: usize) -> Result<Option<Value>, VmError> {
        loop {
            if self.ops_executed >= self.fuel {
                return Err(VmError::OutOfFuel);
            }
            if self.ops_executed >= self.sample_check_at {
                self.sample_safepoint();
            }
            let frame_idx = self.frames.len() - 1;
            let (mid, pc) = {
                let f = &self.frames[frame_idx];
                (f.method, f.pc)
            };
            let code = &self.program.methods[mid as usize].code;
            if pc >= code.len() {
                return Err(self.rt_err("fell off end of bytecode"));
            }
            let op = code[pc].clone();
            self.frames[frame_idx].pc = pc + 1;
            self.ops_executed += 1;
            if let Some(cat) = self.cats[mid as usize][pc] {
                self.charge(cat);
            }
            match op {
                Op::Const(v) => self.push(v),
                Op::ConstDecimal { value, float32, .. } => {
                    if float32 {
                        self.push(Value::Float(value as f32));
                    } else {
                        self.push(Value::Double(value));
                    }
                }
                Op::ConstStr(s) => {
                    let r = self.heap.alloc(HeapObj::Str(s));
                    self.push(Value::Obj(r));
                }
                Op::LoadLocal(i) => {
                    let v = self.frames[frame_idx].locals[i as usize];
                    self.push(v);
                }
                Op::StoreLocal(i) => self.op_store_local(i)?,
                Op::GetField(slot) => self.op_get_field(slot)?,
                Op::PutField(slot) => self.op_put_field(slot)?,
                Op::GetStatic(slot) => {
                    let v = self.statics[slot as usize];
                    self.push(v);
                }
                Op::PutStatic(slot) => {
                    let v = self.pop()?;
                    self.statics[slot as usize] = v;
                }
                Op::Arith(aop, ty) => self.arith(aop, ty)?,
                Op::Cmp(cop, ty) => self.compare(cop, ty)?,
                Op::RefCmp(cop) => self.op_ref_cmp(cop)?,
                Op::Neg(ty) => {
                    let v = self.pop()?;
                    self.push(self.neg_value(v, ty)?);
                }
                Op::BitNot(ty) => self.op_bit_not(ty)?,
                Op::Not => {
                    let v = self.pop_bool()?;
                    self.push(Value::Bool(!v));
                }
                Op::Convert { to, .. } => {
                    let v = self.pop()?;
                    self.push(self.convert_value(v, to)?);
                }
                Op::Jump(t) => self.frames[frame_idx].pc = t as usize,
                Op::JumpIfFalse(t) => {
                    if !self.pop_bool()? {
                        self.frames[frame_idx].pc = t as usize;
                    }
                }
                Op::JumpIfTrue(t) => {
                    if self.pop_bool()? {
                        self.frames[frame_idx].pc = t as usize;
                    }
                }
                Op::TernaryJoin => {}
                Op::Call { method, argc } => {
                    let args = self.pop_n(argc as usize)?;
                    self.push_frame(method, args);
                }
                Op::CallVirtual { name, argc } => {
                    self.call_virtual(&name, argc as usize)?;
                }
                Op::Return => {
                    let v = self.pop()?;
                    self.frames.pop();
                    if self.frames.len() == base_depth {
                        return Ok(Some(v));
                    }
                    self.push(v);
                }
                Op::ReturnVoid => {
                    self.frames.pop();
                    if self.frames.len() == base_depth {
                        return Ok(None);
                    }
                }
                Op::NewObject(cid) => self.op_new_object(cid),
                Op::NewArray { elem, dims } => self.op_new_array(elem, dims)?,
                Op::ArrLoad(_) => self.op_arr_load()?,
                Op::ArrStore(_) => self.op_arr_store()?,
                Op::ArrLen => self.op_arr_len()?,
                Op::ArrayCopy => self.arraycopy()?,
                Op::StrConcat => self.op_str_concat()?,
                Op::SbNew => {
                    let r = self.heap.alloc(HeapObj::Builder(String::new()));
                    self.push(Value::Obj(r));
                }
                Op::SbAppend => self.op_sb_append()?,
                Op::SbToString => self.op_sb_to_string()?,
                Op::StrEquals => self.op_str_equals()?,
                Op::StrCompareTo => self.op_str_compare()?,
                Op::StrLength => self.op_str_length()?,
                Op::StrCharAt => self.op_str_char_at()?,
                Op::Box(wrapper) => self.op_box(wrapper, wrapper != "Integer")?,
                Op::Unbox => self.op_unbox()?,
                Op::Throw => self.op_throw()?,
                Op::TryEnter { handler, class } => {
                    self.handlers.push(Handler {
                        frame_depth: self.frames.len(),
                        stack_depth: self.frames[frame_idx].stack.len(),
                        handler_pc: handler,
                        class: HandlerClass::Owned(class),
                    });
                }
                Op::TryExit => {
                    self.handlers.pop();
                }
                Op::Dup => self.op_dup()?,
                Op::Pop => {
                    self.pop()?;
                }
                Op::Swap => {
                    let b = self.pop()?;
                    let a = self.pop()?;
                    self.push(b);
                    self.push(a);
                }
                Op::Print { newline, has_arg } => self.op_print(newline, has_arg)?,
                Op::Math(f) => self.math(f)?,
                Op::TimeMillis => {
                    let (_, _, s) = self.energy_now();
                    self.push(Value::Long((s * 1000.0) as i64));
                }
                Op::InstanceOfChk(name) => {
                    let v = self.pop()?;
                    let is = match v {
                        Value::Obj(r) => match self.heap.get(r) {
                            HeapObj::Str(_) => name == "String" || name == "Object",
                            HeapObj::Builder(_) => name == "StringBuilder" || name == "Object",
                            HeapObj::Boxed { wrapper, .. } => {
                                name == *wrapper || name == "Object" || name == "Number"
                            }
                            HeapObj::Exception { class, .. } => {
                                *class == name
                                    || name == "Exception"
                                    || name == "Throwable"
                                    || name == "RuntimeException"
                                    || name == "Object"
                            }
                            HeapObj::Object { class, .. } => {
                                match self.program.class_by_name(&name) {
                                    Some(target) => self.program.is_subclass(*class, target),
                                    None => name == "Object",
                                }
                            }
                            HeapObj::Array { .. } => name == "Object",
                        },
                        _ => false,
                    };
                    self.push(Value::Bool(is));
                }
                Op::ProfileEnter(mid) => self.op_profile_enter(mid),
                Op::ProfileExit(mid) => self.record_profile_exit(mid),
                Op::Nop => {}
            }
        }
    }

    /// The zero-clone dispatch loop over pre-decoded code. Instructions
    /// are read by reference from the shared [`DecodedProgram`] (whose
    /// lifetime is `'p`, independent of `&mut self`), so no per-op clone
    /// or `String` allocation happens to *fetch* an operand. Energy
    /// accounting, heap allocation order, stdout, and profile events are
    /// bit-identical to [`Interp::execute`] — enforced by the
    /// differential test suite.
    pub(crate) fn execute_decoded(
        &mut self,
        base_depth: usize,
        dp: &'p DecodedProgram,
    ) -> Result<Option<Value>, VmError> {
        loop {
            if self.ops_executed >= self.fuel {
                return Err(VmError::OutOfFuel);
            }
            if self.ops_executed >= self.sample_check_at {
                self.sample_safepoint();
            }
            let frame_idx = self.frames.len() - 1;
            let (mid, pc) = {
                let f = &self.frames[frame_idx];
                (f.method, f.pc)
            };
            let code: &'p [DInstr] = &dp.methods[mid as usize];
            if pc >= code.len() {
                return Err(self.rt_err("fell off end of bytecode"));
            }
            let instr: &'p DInstr = &code[pc];
            self.frames[frame_idx].pc = pc + 1;
            self.ops_executed += 1;
            if let Some(cat) = instr.cat {
                self.charge(cat);
            }
            match instr.op {
                DOp::Const(v) => self.push(v),
                DOp::ConstF { value, float32 } => {
                    if float32 {
                        self.push(Value::Float(value as f32));
                    } else {
                        self.push(Value::Double(value));
                    }
                }
                DOp::ConstStr(sym) => {
                    let r = self
                        .heap
                        .alloc(HeapObj::Str(dp.interner.get(sym).to_string()));
                    self.push(Value::Obj(r));
                }
                DOp::LoadLocal(i) => {
                    let v = self.frames[frame_idx].locals[i as usize];
                    self.push(v);
                }
                DOp::StoreLocal(i) => self.op_store_local(i)?,
                DOp::GetField(slot) => self.op_get_field(slot)?,
                DOp::PutField(slot) => self.op_put_field(slot)?,
                DOp::GetStatic(slot) => {
                    let v = self.statics[slot as usize];
                    self.push(v);
                }
                DOp::PutStatic(slot) => {
                    let v = self.pop()?;
                    self.statics[slot as usize] = v;
                }
                DOp::Arith(aop, ty) => self.arith(aop, ty)?,
                DOp::Cmp(cop, ty) => self.compare(cop, ty)?,
                DOp::RefCmp(cop) => self.op_ref_cmp(cop)?,
                DOp::Neg(ty) => {
                    let v = self.pop()?;
                    self.push(self.neg_value(v, ty)?);
                }
                DOp::BitNot(ty) => self.op_bit_not(ty)?,
                DOp::Not => {
                    let v = self.pop_bool()?;
                    self.push(Value::Bool(!v));
                }
                DOp::Convert(to) => {
                    let v = self.pop()?;
                    self.push(self.convert_value(v, to)?);
                }
                DOp::Jump(t) => self.frames[frame_idx].pc = t as usize,
                DOp::JumpIfFalse(t) => {
                    if !self.pop_bool()? {
                        self.frames[frame_idx].pc = t as usize;
                    }
                }
                DOp::JumpIfTrue(t) => {
                    if self.pop_bool()? {
                        self.frames[frame_idx].pc = t as usize;
                    }
                }
                DOp::TernaryJoin => {}
                DOp::Call { method, argc } => self.invoke_pooled(method, argc as usize)?,
                DOp::CallVirtual { name, argc, site } => {
                    self.call_virtual_decoded(dp, name, argc as usize, site)?;
                }
                DOp::MakeExc => self.op_make_exc()?,
                DOp::ParseInt => self.op_parse_int()?,
                DOp::ParseDouble => self.op_parse_double()?,
                DOp::StrHash => self.op_str_hash()?,
                DOp::ExcMessage => self.op_exc_message()?,
                DOp::Return => {
                    let v = self.pop()?;
                    if let Some(f) = self.frames.pop() {
                        self.recycle_frame(f);
                    }
                    if self.frames.len() == base_depth {
                        return Ok(Some(v));
                    }
                    self.push(v);
                }
                DOp::ReturnVoid => {
                    if let Some(f) = self.frames.pop() {
                        self.recycle_frame(f);
                    }
                    if self.frames.len() == base_depth {
                        return Ok(None);
                    }
                }
                DOp::NewObject(cid) => self.op_new_object(cid),
                DOp::NewArray { elem, dims } => self.op_new_array(elem, dims)?,
                DOp::ArrLoad(_) => self.op_arr_load()?,
                DOp::ArrStore(_) => self.op_arr_store()?,
                DOp::ArrLen => self.op_arr_len()?,
                DOp::ArrayCopy => self.arraycopy()?,
                DOp::StrConcat => self.op_str_concat()?,
                DOp::SbNew => {
                    let r = self.heap.alloc(HeapObj::Builder(String::new()));
                    self.push(Value::Obj(r));
                }
                DOp::SbAppend => self.op_sb_append()?,
                DOp::SbToString => self.op_sb_to_string()?,
                DOp::StrEquals => self.op_str_equals()?,
                DOp::StrCompareTo => self.op_str_compare()?,
                DOp::StrLength => self.op_str_length()?,
                DOp::StrCharAt => self.op_str_char_at()?,
                DOp::Box { wrapper, surcharge } => self.op_box(wrapper, surcharge)?,
                DOp::Unbox => self.op_unbox()?,
                DOp::Throw => self.op_throw()?,
                DOp::TryEnter {
                    handler,
                    class,
                    catch_all,
                } => {
                    self.handlers.push(Handler {
                        frame_depth: self.frames.len(),
                        stack_depth: self.frames[frame_idx].stack.len(),
                        handler_pc: handler,
                        class: HandlerClass::Interned {
                            sym: class,
                            catch_all,
                        },
                    });
                }
                DOp::TryExit => {
                    self.handlers.pop();
                }
                DOp::Dup => self.op_dup()?,
                DOp::Pop => {
                    self.pop()?;
                }
                DOp::Swap => {
                    let b = self.pop()?;
                    let a = self.pop()?;
                    self.push(b);
                    self.push(a);
                }
                DOp::Print { newline, has_arg } => self.op_print(newline, has_arg)?,
                DOp::Math(f) => self.math(f)?,
                DOp::TimeMillis => {
                    let (_, _, s) = self.energy_now();
                    self.push(Value::Long((s * 1000.0) as i64));
                }
                DOp::InstanceOfChk { site, chk } => {
                    let v = self.pop()?;
                    let is = match v {
                        Value::Obj(r) => {
                            // Non-Object receivers are fully answered by
                            // decode-time flags; Object receivers fall
                            // through to the inline cache.
                            let quick: Result<bool, u32> = match self.heap.get(r) {
                                HeapObj::Str(_) => Ok(chk.is_string || chk.is_object),
                                HeapObj::Builder(_) => Ok(chk.is_builder || chk.is_object),
                                HeapObj::Boxed { wrapper, .. } => Ok(dp.interner.get(chk.name)
                                    == *wrapper
                                    || chk.is_object
                                    || chk.is_number),
                                HeapObj::Exception { class, .. } => Ok(class
                                    == dp.interner.get(chk.name)
                                    || chk.is_exc_family
                                    || chk.is_object),
                                HeapObj::Object { class, .. } => Err(*class),
                                HeapObj::Array { .. } => Ok(chk.is_object),
                            };
                            match quick {
                                Ok(b) => b,
                                Err(cls) => {
                                    if self.ics[site as usize].key == cls {
                                        self.ic_hits += 1;
                                        self.ics[site as usize].val != 0
                                    } else {
                                        self.ic_misses += 1;
                                        let b = if chk.target == NO_CLASS {
                                            chk.is_object
                                        } else {
                                            self.program.is_subclass(cls, chk.target)
                                        };
                                        self.ics[site as usize] = InlineCache {
                                            key: cls,
                                            val: b as u32,
                                        };
                                        b
                                    }
                                }
                            }
                        }
                        _ => false,
                    };
                    self.push(Value::Bool(is));
                }
                DOp::ProfileEnter(pmid) => self.op_profile_enter(pmid),
                DOp::ProfileExit(pmid) => self.record_profile_exit(pmid),
                DOp::Nop => {}
            }
        }
    }

    /// Virtual call through the decoded path's monomorphic inline cache.
    ///
    /// Fast path: the receiver (peeked beneath the arguments) is a plain
    /// `Object` and the site's cache matches its class — the target
    /// `MethodId` comes from one compare, and the arguments are moved
    /// stack→locals directly via [`Interp::invoke_pooled`]. Everything
    /// else (string/exception receivers, null, primitives, underflow)
    /// falls back to the legacy [`Interp::call_virtual`], preserving its
    /// semantics exactly.
    fn call_virtual_decoded(
        &mut self,
        dp: &'p DecodedProgram,
        name: Sym,
        argc: usize,
        site: u32,
    ) -> Result<(), VmError> {
        let frame = self.frames.last().unwrap();
        let len = frame.stack.len();
        if len > argc {
            if let Value::Obj(r) = frame.stack[len - argc - 1] {
                if let HeapObj::Object { class, .. } = self.heap.get(r) {
                    let class = *class;
                    let mid = if self.ics[site as usize].key == class {
                        self.ic_hits += 1;
                        self.ics[site as usize].val
                    } else {
                        self.ic_misses += 1;
                        let name_str = dp.interner.get(name);
                        let m = self
                            .program
                            .resolve_method(class, name_str, argc as u8)
                            .ok_or_else(|| {
                                self.rt_err(format!("unresolved virtual `{name_str}/{argc}`"))
                            })?;
                        self.ics[site as usize] = InlineCache { key: class, val: m };
                        m
                    };
                    // Receiver + args transfer as one contiguous copy.
                    return self.invoke_pooled(mid, argc + 1);
                }
            }
        }
        self.call_virtual(dp.interner.get(name), argc)
    }

    // ---- frame pool -------------------------------------------------------

    /// Return a popped frame's `Vec` capacity to the pool for reuse.
    pub(crate) fn recycle_frame(&mut self, mut f: Frame) {
        if self.pool.len() < FRAME_POOL_MAX {
            f.locals.clear();
            f.stack.clear();
            self.pool.push(f);
        }
    }

    /// Push a callee frame without allocating: arguments are the top
    /// `nargs` caller-stack values, moved into (pooled) locals as one
    /// contiguous copy — replacing the legacy `pop_n` + fresh-`Vec`
    /// double allocation per call.
    pub(crate) fn invoke_pooled(&mut self, mid: MethodId, nargs: usize) -> Result<(), VmError> {
        let m = &self.program.methods[mid as usize];
        let nlocals = (m.locals as usize).max(nargs);
        let mut f = self.pool.pop().unwrap_or_else(|| Frame {
            method: mid,
            pc: 0,
            locals: Vec::new(),
            stack: Vec::new(),
        });
        f.method = mid;
        f.pc = 0;
        f.locals.clear();
        f.locals.resize(nlocals, Value::Null);
        {
            let caller = self.frames.last_mut().unwrap();
            let len = caller.stack.len();
            if len < nargs {
                return Err(VmError::runtime("operand stack underflow", "?"));
            }
            f.locals[..nargs].copy_from_slice(&caller.stack[len - nargs..]);
            caller.stack.truncate(len - nargs);
        }
        self.frames.push(f);
        Ok(())
    }

    // ---- op bodies shared by both dispatch loops --------------------------
    //
    // Each method below is the single implementation of its opcode's
    // semantics, called from both `execute` (legacy `Vec<Op>`) and
    // `execute_decoded`. Sharing the body is what makes the bit-identity
    // contract cheap to uphold: there is exactly one place where heap
    // allocation order, throw behavior, and surcharge accounting live.

    fn op_store_local(&mut self, i: u16) -> Result<(), VmError> {
        let v = self.pop()?;
        let f = self.frames.last_mut().unwrap();
        if (i as usize) >= f.locals.len() {
            f.locals.resize(i as usize + 1, Value::Null);
        }
        f.locals[i as usize] = v;
        Ok(())
    }

    fn op_get_field(&mut self, slot: u16) -> Result<(), VmError> {
        let r = self.pop_ref("field access on null")?;
        let got = match self.heap.get(r) {
            HeapObj::Object {
                fields, base_addr, ..
            } => Some((fields[slot as usize], *base_addr + slot as u64 * 8)),
            _ => None,
        };
        match got {
            Some((v, addr)) => {
                self.cache_access(addr);
                self.push(v);
            }
            None => self.throw_vm("NullPointerException", "not an object")?,
        }
        Ok(())
    }

    fn op_put_field(&mut self, slot: u16) -> Result<(), VmError> {
        let v = self.pop()?;
        let r = self.pop_ref("field store on null")?;
        let ok = match self.heap.get_mut(r) {
            HeapObj::Object { fields, .. } => {
                fields[slot as usize] = v;
                true
            }
            _ => false,
        };
        if !ok {
            self.throw_vm("NullPointerException", "not an object")?;
        }
        Ok(())
    }

    fn op_ref_cmp(&mut self, cop: CmpOp) -> Result<(), VmError> {
        let b = self.pop()?;
        let a = self.pop()?;
        let eq = match (a, b) {
            (Value::Null, Value::Null) => true,
            (Value::Obj(x), Value::Obj(y)) => x == y,
            _ => false,
        };
        self.push(Value::Bool(if cop == CmpOp::Eq { eq } else { !eq }));
        Ok(())
    }

    fn op_bit_not(&mut self, ty: NumTy) -> Result<(), VmError> {
        let v = self.pop()?;
        let out = match ty {
            NumTy::I64 => Value::Long(!v.as_long().ok_or_else(|| self.rt_err("~ on non-long"))?),
            _ => Value::Int(!v.as_int().ok_or_else(|| self.rt_err("~ on non-int"))?),
        };
        self.push(out);
        Ok(())
    }

    pub(crate) fn op_new_object(&mut self, cid: ClassId) {
        let class = &self.program.classes[cid as usize];
        let defaults: Vec<Value> = class
            .fields
            .iter()
            .map(|(_, ty)| default_value(ty))
            .collect();
        let r = self.heap.alloc_object(cid, defaults.len());
        if let HeapObj::Object { fields, .. } = self.heap.get_mut(r) {
            fields.copy_from_slice(&defaults);
        }
        self.push(Value::Obj(r));
    }

    pub(crate) fn op_new_array(&mut self, elem: ArrayElem, dims: u8) -> Result<(), VmError> {
        let mut sizes = Vec::with_capacity(dims as usize);
        for _ in 0..dims {
            let n = self
                .pop()?
                .as_int()
                .ok_or_else(|| self.rt_err("array size not int"))?;
            if n < 0 {
                self.throw_vm("NegativeArraySizeException", &format!("{n}"))?;
                continue;
            }
            sizes.push(n as usize);
        }
        sizes.reverse();
        let r = self.alloc_multi(&sizes, elem)?;
        self.push(Value::Obj(r));
        Ok(())
    }

    fn op_arr_load(&mut self) -> Result<(), VmError> {
        let idx = self
            .pop()?
            .as_int()
            .ok_or_else(|| self.rt_err("index not int"))?;
        let r = self.pop_ref("array load on null")?;
        let fetched: Result<(Value, u64), (String, String)> = match self.heap.get(r) {
            HeapObj::Array {
                data,
                elem_size,
                base_addr,
            } => {
                if idx < 0 || idx as usize >= data.len() {
                    Err((
                        "ArrayIndexOutOfBoundsException".into(),
                        format!("index {idx} out of bounds for length {}", data.len()),
                    ))
                } else {
                    Ok((
                        data[idx as usize],
                        base_addr + idx as u64 * *elem_size as u64,
                    ))
                }
            }
            _ => Err(("NullPointerException".into(), "not an array".into())),
        };
        match fetched {
            Ok((v, addr)) => {
                self.cache_access(addr);
                self.push(v);
            }
            Err((class, msg)) => {
                self.throw_vm(&class, &msg)?;
            }
        }
        Ok(())
    }

    fn op_arr_store(&mut self) -> Result<(), VmError> {
        let v = self.pop()?;
        let idx = self
            .pop()?
            .as_int()
            .ok_or_else(|| self.rt_err("index not int"))?;
        let r = self.pop_ref("array store on null")?;
        let stored: Result<u64, (String, String)> = match self.heap.get_mut(r) {
            HeapObj::Array {
                data,
                elem_size,
                base_addr,
            } => {
                if idx < 0 || idx as usize >= data.len() {
                    Err((
                        "ArrayIndexOutOfBoundsException".into(),
                        format!("index {idx} out of bounds for length {}", data.len()),
                    ))
                } else {
                    data[idx as usize] = v;
                    Ok(*base_addr + idx as u64 * *elem_size as u64)
                }
            }
            _ => Err(("NullPointerException".into(), "not an array".into())),
        };
        match stored {
            Ok(addr) => {
                self.cache_access(addr);
            }
            Err((class, msg)) => {
                self.throw_vm(&class, &msg)?;
            }
        }
        Ok(())
    }

    fn op_arr_len(&mut self) -> Result<(), VmError> {
        let r = self.pop_ref("length of null")?;
        let n: Option<i32> = match self.heap.get(r) {
            HeapObj::Array { data, .. } => Some(data.len() as i32),
            HeapObj::Str(s) => Some(s.chars().count() as i32),
            _ => None,
        };
        match n {
            Some(n) => self.push(Value::Int(n)),
            None => self.throw_vm("NullPointerException", "not an array")?,
        }
        Ok(())
    }

    pub(crate) fn op_str_concat(&mut self) -> Result<(), VmError> {
        let b = self.pop()?;
        let a = self.pop()?;
        let mut s = String::new();
        self.heap.render_to(&a, &mut s);
        self.heap.render_to(&b, &mut s);
        let r = self.heap.alloc(HeapObj::Str(s));
        self.push(Value::Obj(r));
        Ok(())
    }

    pub(crate) fn op_sb_append(&mut self) -> Result<(), VmError> {
        let v = self.pop()?;
        // Rendered into a temporary: `sb.append(sb)` would otherwise
        // alias the builder borrowed mutably below.
        let mut text = String::new();
        self.heap.render_to(&v, &mut text);
        let r = self.pop_ref("append on null")?;
        let ok = match self.heap.get_mut(r) {
            HeapObj::Builder(s) => {
                s.push_str(&text);
                true
            }
            _ => false,
        };
        if ok {
            self.push(Value::Obj(r));
        } else {
            self.throw_vm("NullPointerException", "not a builder")?;
        }
        Ok(())
    }

    pub(crate) fn op_sb_to_string(&mut self) -> Result<(), VmError> {
        let r = self.pop_ref("toString on null")?;
        let text: Option<String> = match self.heap.get(r) {
            HeapObj::Builder(s) => Some(s.clone()),
            HeapObj::Str(s) => Some(s.clone()),
            _ => None,
        };
        match text {
            Some(text) => {
                let nr = self.heap.alloc(HeapObj::Str(text));
                self.push(Value::Obj(nr));
            }
            None => self.throw_vm("NullPointerException", "not a builder")?,
        }
        Ok(())
    }

    fn op_str_equals(&mut self) -> Result<(), VmError> {
        let b = self.pop()?;
        let a = self.pop()?;
        let eq = match (self.try_str(&a), self.try_str(&b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        };
        self.push(Value::Bool(eq));
        Ok(())
    }

    pub(crate) fn op_str_compare(&mut self) -> Result<(), VmError> {
        let b = self.pop()?;
        let a = self.pop()?;
        let ord: Option<i32> = match (self.try_str(&a), self.try_str(&b)) {
            (Some(x), Some(y)) => Some(match x.cmp(y) {
                std::cmp::Ordering::Less => -1,
                std::cmp::Ordering::Equal => 0,
                std::cmp::Ordering::Greater => 1,
            }),
            _ => None,
        };
        match ord {
            Some(o) => self.push(Value::Int(o)),
            None => self.throw_vm("NullPointerException", "compareTo on null")?,
        }
        Ok(())
    }

    pub(crate) fn op_str_length(&mut self) -> Result<(), VmError> {
        let r = self.pop_ref("length() on null")?;
        let n: Option<i32> = match self.heap.get(r) {
            HeapObj::Str(s) => Some(s.chars().count() as i32),
            _ => None,
        };
        match n {
            Some(n) => self.push(Value::Int(n)),
            None => self.throw_vm("NullPointerException", "not a string")?,
        }
        Ok(())
    }

    pub(crate) fn op_str_char_at(&mut self) -> Result<(), VmError> {
        let idx = self
            .pop()?
            .as_int()
            .ok_or_else(|| self.rt_err("charAt index"))?;
        let r = self.pop_ref("charAt on null")?;
        let c: Option<Option<char>> = match self.heap.get(r) {
            HeapObj::Str(s) => Some(s.chars().nth(idx.max(0) as usize)),
            _ => None,
        };
        match c {
            Some(Some(c)) => self.push(Value::Char(c as u16)),
            Some(None) => {
                self.throw_vm("StringIndexOutOfBoundsException", &format!("index {idx}"))?
            }
            None => self.throw_vm("NullPointerException", "not a string")?,
        }
        Ok(())
    }

    pub(crate) fn op_box(&mut self, wrapper: &'static str, surcharge: bool) -> Result<(), VmError> {
        if surcharge {
            // Non-Integer wrappers carry the Table I surcharge.
            self.charge(OpCategory::WrapperSurcharge);
        }
        let v = self.pop()?;
        let r = self.heap.alloc(HeapObj::Boxed { wrapper, value: v });
        self.push(Value::Obj(r));
        Ok(())
    }

    pub(crate) fn op_unbox(&mut self) -> Result<(), VmError> {
        let v = self.pop()?;
        match v {
            Value::Obj(r) => {
                let inner: Option<Value> = match self.heap.get(r) {
                    HeapObj::Boxed { value, .. } => Some(*value),
                    _ => None,
                };
                match inner {
                    Some(value) => self.push(value),
                    None => self.throw_vm("ClassCastException", "not a wrapper")?,
                }
            }
            Value::Null => {
                self.throw_vm("NullPointerException", "unboxing null")?;
            }
            prim => self.push(prim), // already primitive: no-op
        }
        Ok(())
    }

    fn op_throw(&mut self) -> Result<(), VmError> {
        let v = self.pop()?;
        match v {
            Value::Obj(r) => self.unwind(r),
            _ => self.throw_vm("NullPointerException", "throw null"),
        }
    }

    fn op_dup(&mut self) -> Result<(), VmError> {
        let v = match self.frames.last().unwrap().stack.last() {
            Some(v) => *v,
            None => return Err(self.rt_err("dup on empty stack")),
        };
        self.push(v);
        Ok(())
    }

    fn op_print(&mut self, newline: bool, has_arg: bool) -> Result<(), VmError> {
        if has_arg {
            let v = self.pop()?;
            // Render straight into the captured stdout buffer — the
            // borrows are field-disjoint, so no temporary `String`.
            let Interp { heap, stdout, .. } = self;
            heap.render_to(&v, stdout);
        }
        if newline {
            self.stdout.push('\n');
        }
        Ok(())
    }

    pub(crate) fn op_exc_message(&mut self) -> Result<(), VmError> {
        let e = self.pop()?;
        let msg = match e {
            Value::Obj(r) => match self.heap.get(r) {
                HeapObj::Exception { message, .. } => message.clone(),
                _ => String::new(),
            },
            _ => String::new(),
        };
        let r = self.heap.alloc(HeapObj::Str(msg));
        self.push(Value::Obj(r));
        Ok(())
    }

    pub(crate) fn op_make_exc(&mut self) -> Result<(), VmError> {
        let msg = self.pop()?;
        let class_v = self.pop()?;
        let class = self.try_str(&class_v).unwrap_or("Exception").to_string();
        let message = self.try_str(&msg).unwrap_or("").to_string();
        let r = self.heap.alloc(HeapObj::Exception { class, message });
        self.push(Value::Obj(r));
        Ok(())
    }

    pub(crate) fn op_parse_int(&mut self) -> Result<(), VmError> {
        let s = self.pop()?;
        match self.try_str(&s).unwrap_or("").trim().parse::<i32>() {
            Ok(v) => self.push(Value::Int(v)),
            Err(_) => {
                let text = self.try_str(&s).unwrap_or("").to_string();
                self.throw_vm("NumberFormatException", &text)?;
            }
        }
        Ok(())
    }

    pub(crate) fn op_parse_double(&mut self) -> Result<(), VmError> {
        let s = self.pop()?;
        match self.try_str(&s).unwrap_or("").trim().parse::<f64>() {
            Ok(v) => self.push(Value::Double(v)),
            Err(_) => {
                let text = self.try_str(&s).unwrap_or("").to_string();
                self.throw_vm("NumberFormatException", &text)?;
            }
        }
        Ok(())
    }

    pub(crate) fn op_str_hash(&mut self) -> Result<(), VmError> {
        let s = self.pop()?;
        let mut h: i32 = 0;
        if let Some(text) = self.try_str(&s) {
            for c in text.encode_utf16() {
                h = h.wrapping_mul(31).wrapping_add(c as i32);
            }
        }
        self.push(Value::Int(h));
        Ok(())
    }

    pub(crate) fn op_profile_enter(&mut self, mid: MethodId) {
        let (j, core, s) = self.flush();
        self.profile_stack.push(ProfileEntry {
            method: mid,
            start_j: j,
            start_core_j: core,
            start_s: s,
        });
    }

    // ---- stack helpers ---------------------------------------------------

    #[inline]
    pub(crate) fn push(&mut self, v: Value) {
        self.frames.last_mut().unwrap().stack.push(v);
    }

    #[inline]
    pub(crate) fn pop(&mut self) -> Result<Value, VmError> {
        self.frames
            .last_mut()
            .unwrap()
            .stack
            .pop()
            .ok_or_else(|| VmError::runtime("operand stack underflow", "?"))
    }

    fn pop_n(&mut self, n: usize) -> Result<Vec<Value>, VmError> {
        let stack = &mut self.frames.last_mut().unwrap().stack;
        if stack.len() < n {
            return Err(VmError::runtime("operand stack underflow", "?"));
        }
        Ok(stack.split_off(stack.len() - n))
    }

    fn pop_bool(&mut self) -> Result<bool, VmError> {
        let v = self.pop()?;
        v.as_bool()
            .ok_or_else(|| self.rt_err(format!("expected boolean, got {v:?}")))
    }

    fn pop_ref(&mut self, ctx: &str) -> Result<Ref, VmError> {
        match self.pop()? {
            Value::Obj(r) => Ok(r),
            Value::Null => Err(self.rt_err(format!("NullPointerException: {ctx}"))),
            v => Err(self.rt_err(format!("expected reference, got {v:?}"))),
        }
    }

    /// Borrowed view of a string-like heap value. Returning `&str`
    /// (instead of the old `Option<String>`) keeps `StrEquals` /
    /// `StrCompareTo` / parse intrinsics allocation-free on the hot path.
    pub(crate) fn try_str(&self, v: &Value) -> Option<&str> {
        match v {
            Value::Obj(r) => match self.heap.get(*r) {
                HeapObj::Str(s) => Some(s.as_str()),
                HeapObj::Builder(s) => Some(s.as_str()),
                _ => None,
            },
            _ => None,
        }
    }

    pub(crate) fn cache_access(&mut self, addr: u64) {
        let hit = self.cache.access(addr);
        self.charge(energy::array_access_extra(hit));
    }

    // ---- arithmetic -------------------------------------------------------

    fn arith(&mut self, op: ArithOp, ty: NumTy) -> Result<(), VmError> {
        let b = self.pop()?;
        let a = self.pop()?;
        match self.arith_value(op, ty, a, b)? {
            ArithOutcome::Value(v) => {
                self.push(v);
                Ok(())
            }
            ArithOutcome::DivByZero => self
                .throw_vm("ArithmeticException", "/ by zero")
                .map(|_| ()),
        }
    }

    /// Value-level arithmetic core shared by the stack loops and the IR
    /// tier. Division/modulus by zero on integer lanes is reported as
    /// [`ArithOutcome::DivByZero`] so each caller throws from its own
    /// control-flow context.
    pub(crate) fn arith_value(
        &self,
        op: ArithOp,
        ty: NumTy,
        a: Value,
        b: Value,
    ) -> Result<ArithOutcome, VmError> {
        let out = match ty {
            NumTy::F64 => {
                let (x, y) = (
                    a.as_double().ok_or_else(|| self.rt_err("double operand"))?,
                    b.as_double().ok_or_else(|| self.rt_err("double operand"))?,
                );
                Value::Double(match op {
                    ArithOp::Add => x + y,
                    ArithOp::Sub => x - y,
                    ArithOp::Mul => x * y,
                    ArithOp::Div => x / y,
                    ArithOp::Rem => x % y,
                    _ => return Err(self.rt_err("bitwise op on double")),
                })
            }
            NumTy::F32 => {
                let (x, y) = (
                    a.as_float().ok_or_else(|| self.rt_err("float operand"))?,
                    b.as_float().ok_or_else(|| self.rt_err("float operand"))?,
                );
                Value::Float(match op {
                    ArithOp::Add => x + y,
                    ArithOp::Sub => x - y,
                    ArithOp::Mul => x * y,
                    ArithOp::Div => x / y,
                    ArithOp::Rem => x % y,
                    _ => return Err(self.rt_err("bitwise op on float")),
                })
            }
            NumTy::I64 => {
                let (x, y) = (
                    a.as_long().ok_or_else(|| self.rt_err("long operand"))?,
                    b.as_long().ok_or_else(|| self.rt_err("long operand"))?,
                );
                if matches!(op, ArithOp::Div | ArithOp::Rem) && y == 0 {
                    return Ok(ArithOutcome::DivByZero);
                }
                Value::Long(match op {
                    ArithOp::Add => x.wrapping_add(y),
                    ArithOp::Sub => x.wrapping_sub(y),
                    ArithOp::Mul => x.wrapping_mul(y),
                    ArithOp::Div => x.wrapping_div(y),
                    ArithOp::Rem => x.wrapping_rem(y),
                    ArithOp::Shl => x.wrapping_shl(y as u32 & 63),
                    ArithOp::Shr => x.wrapping_shr(y as u32 & 63),
                    ArithOp::UShr => ((x as u64) >> (y as u32 & 63)) as i64,
                    ArithOp::And => x & y,
                    ArithOp::Or => x | y,
                    ArithOp::Xor => x ^ y,
                })
            }
            _ => {
                // int lane (covers byte/short/char after widening)
                let (x, y) = (
                    a.as_int().ok_or_else(|| self.rt_err("int operand"))?,
                    b.as_int().ok_or_else(|| self.rt_err("int operand"))?,
                );
                if matches!(op, ArithOp::Div | ArithOp::Rem) && y == 0 {
                    return Ok(ArithOutcome::DivByZero);
                }
                Value::Int(match op {
                    ArithOp::Add => x.wrapping_add(y),
                    ArithOp::Sub => x.wrapping_sub(y),
                    ArithOp::Mul => x.wrapping_mul(y),
                    ArithOp::Div => x.wrapping_div(y),
                    ArithOp::Rem => x.wrapping_rem(y),
                    ArithOp::Shl => x.wrapping_shl(y as u32 & 31),
                    ArithOp::Shr => x.wrapping_shr(y as u32 & 31),
                    ArithOp::UShr => ((x as u32) >> (y as u32 & 31)) as i32,
                    ArithOp::And => x & y,
                    ArithOp::Or => x | y,
                    ArithOp::Xor => x ^ y,
                })
            }
        };
        Ok(ArithOutcome::Value(out))
    }

    fn compare(&mut self, op: CmpOp, ty: NumTy) -> Result<(), VmError> {
        let b = self.pop()?;
        let a = self.pop()?;
        let res = self.compare_value(op, ty, a, b)?;
        self.push(Value::Bool(res));
        Ok(())
    }

    /// Value-level comparison core shared with the IR tier.
    pub(crate) fn compare_value(
        &self,
        op: CmpOp,
        ty: NumTy,
        a: Value,
        b: Value,
    ) -> Result<bool, VmError> {
        let res = match ty {
            NumTy::F32 | NumTy::F64 => {
                let (x, y) = (
                    a.as_double()
                        .ok_or_else(|| self.rt_err("numeric compare"))?,
                    b.as_double()
                        .ok_or_else(|| self.rt_err("numeric compare"))?,
                );
                cmp_apply(op, x.partial_cmp(&y))
            }
            NumTy::I64 => {
                let (x, y) = (
                    a.as_long().ok_or_else(|| self.rt_err("numeric compare"))?,
                    b.as_long().ok_or_else(|| self.rt_err("numeric compare"))?,
                );
                cmp_apply(op, Some(x.cmp(&y)))
            }
            _ => {
                let (x, y) = (
                    a.as_int().ok_or_else(|| self.rt_err("numeric compare"))?,
                    b.as_int().ok_or_else(|| self.rt_err("numeric compare"))?,
                );
                cmp_apply(op, Some(x.cmp(&y)))
            }
        };
        Ok(res)
    }

    pub(crate) fn neg_value(&self, v: Value, ty: NumTy) -> Result<Value, VmError> {
        Ok(match ty {
            NumTy::F64 => Value::Double(-v.as_double().ok_or_else(|| self.rt_err("neg"))?),
            NumTy::F32 => Value::Float(-v.as_float().ok_or_else(|| self.rt_err("neg"))?),
            NumTy::I64 => Value::Long(
                v.as_long()
                    .ok_or_else(|| self.rt_err("neg"))?
                    .wrapping_neg(),
            ),
            _ => Value::Int(v.as_int().ok_or_else(|| self.rt_err("neg"))?.wrapping_neg()),
        })
    }

    pub(crate) fn convert_value(&self, v: Value, to: NumTy) -> Result<Value, VmError> {
        let d = v
            .as_double()
            .ok_or_else(|| self.rt_err("conversion of non-numeric"))?;
        Ok(match to {
            NumTy::I8 => Value::Int((d as i64 as i8) as i32),
            NumTy::I16 => Value::Int((d as i64 as i16) as i32),
            NumTy::I32 => Value::Int(d as i64 as i32),
            NumTy::I64 => Value::Long(d as i64),
            NumTy::F32 => Value::Float(d as f32),
            NumTy::F64 => Value::Double(d),
            NumTy::Ch => Value::Char(d as i64 as u16),
            NumTy::Bool => Value::Bool(d != 0.0),
        })
    }

    fn math(&mut self, f: MathFn) -> Result<(), VmError> {
        let v = if matches!(f, MathFn::Pow | MathFn::Min | MathFn::Max) {
            let b = self.pop()?;
            let a = self.pop()?;
            self.math2_value(f, a, b)?
        } else {
            let a = self.pop()?;
            self.math1_value(f, a)?
        };
        self.push(v);
        Ok(())
    }

    /// Binary math intrinsic core (`Pow`/`Min`/`Max`), shared with the
    /// IR tier. Preserves integer typing for min/max on ints.
    pub(crate) fn math2_value(&self, f: MathFn, a: Value, b: Value) -> Result<Value, VmError> {
        if matches!(f, MathFn::Min | MathFn::Max) {
            if let (Value::Int(x), Value::Int(y)) = (a, b) {
                let r = if f == MathFn::Min { x.min(y) } else { x.max(y) };
                return Ok(Value::Int(r));
            }
            if let (Some(x), Some(y)) = (a.as_long(), b.as_long()) {
                if matches!(a, Value::Long(_)) || matches!(b, Value::Long(_)) {
                    let r = if f == MathFn::Min { x.min(y) } else { x.max(y) };
                    return Ok(Value::Long(r));
                }
            }
        }
        let (x, y) = (
            a.as_double().ok_or_else(|| self.rt_err("math operand"))?,
            b.as_double().ok_or_else(|| self.rt_err("math operand"))?,
        );
        let r = match f {
            MathFn::Pow => x.powf(y),
            MathFn::Min => x.min(y),
            MathFn::Max => x.max(y),
            _ => unreachable!(),
        };
        Ok(Value::Double(r))
    }

    /// Unary math intrinsic core, shared with the IR tier. `Abs`
    /// preserves the operand's numeric type.
    pub(crate) fn math1_value(&self, f: MathFn, a: Value) -> Result<Value, VmError> {
        if f == MathFn::Abs {
            match a {
                Value::Int(x) => return Ok(Value::Int(x.wrapping_abs())),
                Value::Long(x) => return Ok(Value::Long(x.wrapping_abs())),
                Value::Float(x) => return Ok(Value::Float(x.abs())),
                _ => {}
            }
        }
        let x = a.as_double().ok_or_else(|| self.rt_err("math operand"))?;
        let r = match f {
            MathFn::Sqrt => x.sqrt(),
            MathFn::Abs => x.abs(),
            MathFn::Log => x.ln(),
            MathFn::Exp => x.exp(),
            MathFn::Floor => x.floor(),
            MathFn::Ceil => x.ceil(),
            _ => unreachable!(),
        };
        Ok(Value::Double(r))
    }

    // ---- arrays -----------------------------------------------------------

    fn alloc_multi(&mut self, sizes: &[usize], elem: ArrayElem) -> Result<Ref, VmError> {
        if sizes.len() <= 1 {
            let n = sizes.first().copied().unwrap_or(0);
            let fill = match elem {
                ArrayElem::Num(NumTy::F32) => Value::Float(0.0),
                ArrayElem::Num(NumTy::F64) => Value::Double(0.0),
                ArrayElem::Num(NumTy::I64) => Value::Long(0),
                ArrayElem::Num(NumTy::Bool) => Value::Bool(false),
                ArrayElem::Num(NumTy::Ch) => Value::Char(0),
                ArrayElem::Num(_) => Value::Int(0),
                ArrayElem::Ref => Value::Null,
            };
            return Ok(self.heap.alloc_array(n, elem.byte_size(), fill));
        }
        let n = sizes[0];
        let outer = self
            .heap
            .alloc_array(n, ArrayElem::Ref.byte_size(), Value::Null);
        for i in 0..n {
            let inner = self.alloc_multi(&sizes[1..], elem)?;
            if let HeapObj::Array { data, .. } = self.heap.get_mut(outer) {
                data[i] = Value::Obj(inner);
            }
        }
        Ok(outer)
    }

    pub(crate) fn arraycopy(&mut self) -> Result<(), VmError> {
        let len = self
            .pop()?
            .as_int()
            .ok_or_else(|| self.rt_err("arraycopy len"))?;
        let dst_pos = self
            .pop()?
            .as_int()
            .ok_or_else(|| self.rt_err("arraycopy dstPos"))?;
        let dst = self.pop_ref("arraycopy dst null")?;
        let src_pos = self
            .pop()?
            .as_int()
            .ok_or_else(|| self.rt_err("arraycopy srcPos"))?;
        let src = self.pop_ref("arraycopy src null")?;
        if len < 0 || src_pos < 0 || dst_pos < 0 {
            return self
                .throw_vm("ArrayIndexOutOfBoundsException", "negative")
                .map(|_| ());
        }
        let (len, sp, dp) = (len as usize, src_pos as usize, dst_pos as usize);
        let src_data = match self.heap.get(src) {
            HeapObj::Array { data, .. } => {
                if sp + len > data.len() {
                    return self
                        .throw_vm("ArrayIndexOutOfBoundsException", "src range")
                        .map(|_| ());
                }
                data[sp..sp + len].to_vec()
            }
            _ => {
                return self
                    .throw_vm("ArrayStoreException", "src not array")
                    .map(|_| ())
            }
        };
        match self.heap.get_mut(dst) {
            HeapObj::Array { data, .. } => {
                if dp + len > data.len() {
                    return self
                        .throw_vm("ArrayIndexOutOfBoundsException", "dst range")
                        .map(|_| ());
                }
                data[dp..dp + len].copy_from_slice(&src_data);
            }
            _ => {
                return self
                    .throw_vm("ArrayStoreException", "dst not array")
                    .map(|_| ())
            }
        }
        // Bulk copy: one cheap charge per element + streamed cache lines.
        self.board.bump_n(OpCategory::ArrayCopyBulk, len as u64);
        Ok(())
    }

    // ---- calls & exceptions -----------------------------------------------

    pub(crate) fn call_virtual(&mut self, name: &str, argc: usize) -> Result<(), VmError> {
        // VM-internal helpers first.
        match name {
            "<makeExc>" => {
                let msg = self.pop()?;
                let class_v = self.pop()?;
                let class = self.try_str(&class_v).unwrap_or("Exception").to_string();
                let message = self.try_str(&msg).unwrap_or("").to_string();
                let r = self.heap.alloc(HeapObj::Exception { class, message });
                self.push(Value::Obj(r));
                return Ok(());
            }
            "<parseInt>" => {
                let s = self.pop()?;
                let parsed = self.try_str(&s).unwrap_or("").trim().parse::<i32>();
                return match parsed {
                    Ok(v) => {
                        self.push(Value::Int(v));
                        Ok(())
                    }
                    Err(_) => {
                        // Cold path: the error message carries the
                        // untrimmed original text, so re-extract owned.
                        let text = self.try_str(&s).unwrap_or("").to_string();
                        self.throw_vm("NumberFormatException", &text).map(|_| ())
                    }
                };
            }
            "<parseDouble>" => {
                let s = self.pop()?;
                let parsed = self.try_str(&s).unwrap_or("").trim().parse::<f64>();
                return match parsed {
                    Ok(v) => {
                        self.push(Value::Double(v));
                        Ok(())
                    }
                    Err(_) => {
                        let text = self.try_str(&s).unwrap_or("").to_string();
                        self.throw_vm("NumberFormatException", &text).map(|_| ())
                    }
                };
            }
            "<strHash>" => {
                let s = self.pop()?;
                let mut h: i32 = 0;
                if let Some(text) = self.try_str(&s) {
                    for c in text.encode_utf16() {
                        h = h.wrapping_mul(31).wrapping_add(c as i32);
                    }
                }
                self.push(Value::Int(h));
                return Ok(());
            }
            "<excMessage>" => {
                return self.op_exc_message();
            }
            _ => {}
        }
        // Receiver sits under the args.
        let args = self.pop_n(argc)?;
        let recv = self.pop()?;
        let class = match recv {
            Value::Obj(r) => match self.heap.get(r) {
                HeapObj::Object { class, .. } => *class,
                HeapObj::Str(_) => {
                    // toString on strings and similar dynamic calls.
                    if name == "toString" {
                        self.push(recv);
                        return Ok(());
                    }
                    return Err(self.rt_err(format!("no string method `{name}`")));
                }
                HeapObj::Exception { .. } => {
                    if name == "toString" || name == "getMessage" {
                        self.push(recv);
                        if name == "getMessage" {
                            self.push(recv);
                            return self.call_virtual("<excMessage>", 0);
                        }
                        return Ok(());
                    }
                    return Err(self.rt_err(format!("no exception method `{name}`")));
                }
                _ => return Err(self.rt_err(format!("virtual call `{name}` on non-object"))),
            },
            Value::Null => {
                return self.throw_vm("NullPointerException", &format!("calling {name} on null"));
            }
            _ => return Err(self.rt_err(format!("virtual call `{name}` on primitive"))),
        };
        let mid = self
            .program
            .resolve_method(class, name, argc as u8)
            .ok_or_else(|| self.rt_err(format!("unresolved virtual `{name}/{argc}`")))?;
        let mut all = Vec::with_capacity(argc + 1);
        all.push(recv);
        all.extend(args);
        self.push_frame(mid, all);
        Ok(())
    }

    /// Raise a VM-level exception (bounds, arithmetic, NPE) as a
    /// catchable heap exception. `Ok(())` means a handler was found and
    /// the pc now points at it; `Err` means the exception is uncaught.
    pub(crate) fn throw_vm(&mut self, class: &str, msg: &str) -> Result<(), VmError> {
        let r = self.heap.alloc(HeapObj::Exception {
            class: class.to_string(),
            message: msg.to_string(),
        });
        self.charge(OpCategory::ExceptionThrow);
        self.unwind(r)
    }

    /// Unwind to the nearest matching handler (`Ok`), or report the
    /// uncaught exception (`Err`).
    ///
    /// Two-phase and allocation-free on the caught path: the winner is
    /// found by an immutable scan (the exception class stays a borrowed
    /// `&str`), then frames are popped. This is equivalent to the old
    /// pop-as-you-scan loop: a handler whose `frame_depth` exceeds the
    /// live frame count is stale and was always skipped without popping
    /// anything, so the frame count is constant during the scan and the
    /// winner is simply the topmost matching handler with
    /// `frame_depth <= frames.len()`.
    pub(crate) fn unwind(&mut self, exc: Ref) -> Result<(), VmError> {
        let winner: Option<usize> = {
            let exc_class: &str = match self.heap.get(exc) {
                HeapObj::Exception { class, .. } => class,
                HeapObj::Object { class, .. } => &self.program.classes[*class as usize].name,
                _ => "Exception",
            };
            let dp = self.decoded;
            let depth = self.frames.len();
            self.handlers.iter().enumerate().rev().find_map(|(i, h)| {
                let matches = match &h.class {
                    HandlerClass::Owned(c) => {
                        c == "*"
                            || c == exc_class
                            || c == "Exception"
                            || c == "Throwable"
                            || c == "RuntimeException"
                    }
                    HandlerClass::Interned { sym, catch_all } => {
                        *catch_all || dp.map(|d| d.interner.get(*sym) == exc_class) == Some(true)
                    }
                };
                (matches && h.frame_depth <= depth).then_some(i)
            })
        };
        match winner {
            Some(i) => {
                self.unwound += 1;
                let h = self.handlers.remove(i);
                self.handlers.truncate(i);
                // Record profile exits for frames we abandon.
                while self.frames.len() > h.frame_depth {
                    self.pop_frame_profile();
                    if let Some(f) = self.frames.pop() {
                        self.recycle_frame(f);
                    }
                }
                let f = self.frames.last_mut().unwrap();
                f.stack.truncate(h.stack_depth);
                f.stack.push(Value::Obj(exc));
                f.pc = h.handler_pc as usize;
                Ok(())
            }
            None => {
                // Uncaught: surface as a runtime error (cold — clones ok).
                self.handlers.clear();
                let (class, message) = match self.heap.get(exc) {
                    HeapObj::Exception { class, message } => (class.clone(), message.clone()),
                    HeapObj::Object { class, .. } => (
                        self.program.classes[*class as usize].name.clone(),
                        String::new(),
                    ),
                    _ => ("Exception".to_string(), String::new()),
                };
                Err(self.rt_err(format!("uncaught {class}: {message}")))
            }
        }
    }

    /// Record the exit of the top frame as the unwinder abandons it. A
    /// normal return never calls this: the instrumentation pass puts a
    /// `ProfileExit` before every return, and a second exit there would
    /// close the caller's entry too when the caller is the same method.
    fn pop_frame_profile(&mut self) {
        if let (Some(frame), Some(top)) = (self.frames.last(), self.profile_stack.last()) {
            let frame_method = frame.method;
            if top.method == frame_method {
                self.record_profile_exit(frame_method);
            }
        }
    }

    /// Flush, then record the exit of `mid`'s innermost open execution.
    pub(crate) fn record_profile_exit(&mut self, mid: MethodId) {
        let (j, core, s) = self.flush();
        // Find the matching entry (top of stack in well-nested code).
        if let Some(pos) = self.profile_stack.iter().rposition(|e| e.method == mid) {
            let entry = self.profile_stack.remove(pos);
            self.profile_out.push(ProfileEvent {
                method: mid,
                name: self.program.methods[mid as usize].qualified.clone(),
                package_j: j - entry.start_j,
                core_j: core - entry.start_core_j,
                seconds: s - entry.start_s,
            });
        }
    }
}

/// Java default value for a declared type (fields and statics start at
/// typed zeros, not null).
fn default_value(ty: &jepo_jlang::Type) -> Value {
    use jepo_jlang::{PrimType, Type};
    match ty {
        Type::Prim(PrimType::Float) => Value::Float(0.0),
        Type::Prim(PrimType::Double) => Value::Double(0.0),
        Type::Prim(PrimType::Long) => Value::Long(0),
        Type::Prim(PrimType::Boolean) => Value::Bool(false),
        Type::Prim(PrimType::Char) => Value::Char(0),
        Type::Prim(_) => Value::Int(0),
        _ => Value::Null,
    }
}

pub(crate) fn cmp_apply(op: CmpOp, ord: Option<std::cmp::Ordering>) -> bool {
    use std::cmp::Ordering::*;
    match (op, ord) {
        (CmpOp::Eq, Some(Equal)) => true,
        (CmpOp::Ne, Some(Equal)) => false,
        (CmpOp::Ne, Some(_)) => true,
        (CmpOp::Lt, Some(Less)) => true,
        (CmpOp::Le, Some(Less | Equal)) => true,
        (CmpOp::Gt, Some(Greater)) => true,
        (CmpOp::Ge, Some(Greater | Equal)) => true,
        // NaN comparisons are all false except `!=`.
        (CmpOp::Ne, None) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile_source;
    use jepo_rapl::DeviceProfile;

    fn run(src: &str) -> RunOutcome {
        let program = compile_source(src).unwrap_or_else(|e| panic!("{e}"));
        let sim = Arc::new(SimulatedRapl::new(DeviceProfile::laptop_i5_3317u()));
        let mut interp = Interp::new(&program, sim);
        interp.run_clinits().unwrap();
        let main = program.main.expect("needs main");
        let args = vec![Value::Null];
        let ret = interp.run_method(main, args).unwrap_or_else(|e| {
            panic!("{e}\nstdout so far: {}", interp.stdout());
        });
        interp.finish(ret)
    }

    fn run_expect(src: &str, expected: &str) {
        let out = run(src);
        assert_eq!(out.stdout.trim(), expected.trim(), "stdout mismatch");
    }

    #[test]
    fn arithmetic_and_printing() {
        run_expect(
            "class M { public static void main(String[] a) {
                int x = 7; int y = 3;
                System.out.println(x + y);
                System.out.println(x - y);
                System.out.println(x * y);
                System.out.println(x / y);
                System.out.println(x % y);
             } }",
            "10\n4\n21\n2\n1",
        );
    }

    #[test]
    fn double_arithmetic_and_promotion() {
        run_expect(
            "class M { public static void main(String[] a) {
                double d = 1.5; int n = 2;
                System.out.println(d * n);
                System.out.println(n / 4);
                System.out.println(n / 4.0);
             } }",
            "3.0\n0\n0.5",
        );
    }

    #[test]
    fn loops_and_conditionals() {
        run_expect(
            "class M { public static void main(String[] a) {
                int s = 0;
                for (int i = 1; i <= 10; i++) { if (i % 2 == 0) s += i; }
                System.out.println(s);
                int k = 0; while (k < 3) k++;
                System.out.println(k);
                int d = 10; do { d--; } while (d > 7);
                System.out.println(d);
             } }",
            "30\n3\n7",
        );
    }

    #[test]
    fn ternary_and_short_circuit() {
        run_expect(
            "class M {
                static boolean boom() { int[] x = new int[1]; return x[5] == 0; }
                public static void main(String[] a) {
                int n = -4;
                System.out.println(n > 0 ? \"pos\" : \"neg\");
                // Short circuit avoids evaluating boom().
                boolean ok = false && boom();
                System.out.println(ok);
                boolean or = true || boom();
                System.out.println(or);
             } }",
            "neg\nfalse\ntrue",
        );
    }

    #[test]
    fn arrays_1d_and_2d() {
        run_expect(
            "class M { public static void main(String[] a) {
                int[] xs = new int[5];
                for (int i = 0; i < xs.length; i++) xs[i] = i * i;
                System.out.println(xs[4]);
                double[][] m = new double[3][4];
                m[2][3] = 2.5;
                System.out.println(m[2][3]);
                System.out.println(m.length);
                System.out.println(m[0].length);
                int[] init = new int[]{10, 20, 30};
                System.out.println(init[1]);
             } }",
            "16\n2.5\n3\n4\n20",
        );
    }

    #[test]
    fn strings_builders_equals_compareto() {
        run_expect(
            "class M { public static void main(String[] a) {
                String s = \"ab\" + 1 + true;
                System.out.println(s);
                StringBuilder sb = new StringBuilder();
                sb.append(\"x\").append(2).append(1.5);
                System.out.println(sb.toString());
                System.out.println(\"abc\".equals(\"abc\"));
                System.out.println(\"abc\".compareTo(\"abd\"));
                System.out.println(\"hello\".length());
                System.out.println(\"hello\".charAt(1));
             } }",
            "ab1true\nx21.5\ntrue\n-1\n5\ne",
        );
    }

    #[test]
    fn methods_recursion_and_virtual_dispatch() {
        run_expect(
            "class Base { int f() { return 1; } int twice() { return f() * 2; } }
             class Derived extends Base { int f() { return 21; } }
             class M {
                static int fib(int n) { return n < 2 ? n : fib(n-1) + fib(n-2); }
                public static void main(String[] a) {
                  System.out.println(fib(10));
                  Base b = new Derived();
                  System.out.println(b.twice());
             } }",
            "55\n42",
        );
    }

    #[test]
    fn constructors_fields_and_this() {
        run_expect(
            "class Point {
               int x; int y;
               Point(int x, int y) { this.x = x; this.y = y; }
               int norm1() { return Math.abs(x) + Math.abs(y); }
             }
             class M { public static void main(String[] a) {
               Point p = new Point(-3, 4);
               System.out.println(p.norm1());
               p.x = 10;
               System.out.println(p.x + p.y);
             } }",
            "7\n14",
        );
    }

    #[test]
    fn statics_and_clinit() {
        run_expect(
            "class Counter { static int n = 100; static void bump() { n += 1; } }
             class M { public static void main(String[] a) {
               Counter.bump(); Counter.bump();
               System.out.println(Counter.n);
             } }",
            "102",
        );
    }

    #[test]
    fn switch_with_fallthrough_and_default() {
        run_expect(
            "class M {
               static String name(int d) {
                 String r = \"\";
                 switch (d) {
                   case 0: case 6: r = \"weekend\"; break;
                   case 1: r = \"mon\"; break;
                   default: r = \"midweek\";
                 }
                 return r;
               }
               public static void main(String[] a) {
                 System.out.println(name(0));
                 System.out.println(name(6));
                 System.out.println(name(1));
                 System.out.println(name(3));
             } }",
            "weekend\nweekend\nmon\nmidweek",
        );
    }

    #[test]
    fn exceptions_catch_and_finally() {
        run_expect(
            "class M { public static void main(String[] a) {
                try {
                  int[] xs = new int[2];
                  xs[5] = 1;
                  System.out.println(\"unreachable\");
                } catch (Exception e) {
                  System.out.println(\"caught\");
                } finally {
                  System.out.println(\"finally\");
                }
                try { throw new RuntimeException(\"boom\"); }
                catch (RuntimeException e) { System.out.println(e.getMessage()); }
                try { int z = 1 / 0; }
                catch (ArithmeticException e) { System.out.println(\"div\"); }
             } }",
            "caught\nfinally\nboom\ndiv",
        );
    }

    #[test]
    fn uncaught_exception_is_runtime_error() {
        let program = compile_source(
            "class M { public static void main(String[] a) { int[] x = new int[1]; x[9] = 0; } }",
        )
        .unwrap();
        let sim = Arc::new(SimulatedRapl::new(DeviceProfile::laptop_i5_3317u()));
        let mut interp = Interp::new(&program, sim);
        let err = interp
            .run_method(program.main.unwrap(), vec![Value::Null])
            .unwrap_err();
        assert!(err.to_string().contains("ArrayIndexOutOfBounds"), "{err}");
    }

    #[test]
    fn boxing_and_wrappers() {
        run_expect(
            "class M { public static void main(String[] a) {
                Integer x = 5;
                int y = x + 2;
                System.out.println(y);
                Double d = 2.5;
                System.out.println(d * 2);
                Integer v = Integer.valueOf(9);
                System.out.println(v.intValue());
             } }",
            "7\n5.0\n9",
        );
    }

    #[test]
    fn arraycopy_and_foreach() {
        run_expect(
            "class M { public static void main(String[] a) {
                int[] src = new int[]{1, 2, 3, 4};
                int[] dst = new int[4];
                System.arraycopy(src, 0, dst, 0, 4);
                int s = 0;
                for (int v : dst) s += v;
                System.out.println(s);
             } }",
            "10",
        );
    }

    #[test]
    fn math_intrinsics() {
        run_expect(
            "class M { public static void main(String[] a) {
                System.out.println(Math.sqrt(16.0));
                System.out.println(Math.max(3, 9));
                System.out.println(Math.min(2.5, 1.5));
                System.out.println(Math.abs(-7));
                System.out.println(Math.pow(2.0, 10.0));
                System.out.println(Math.floor(2.7));
             } }",
            "4.0\n9\n1.5\n7\n1024.0\n2.0",
        );
    }

    #[test]
    fn casts_and_narrowing() {
        run_expect(
            "class M { public static void main(String[] a) {
                double d = 3.99;
                int i = (int) d;
                System.out.println(i);
                long big = 4294967296L;
                int truncated = (int) big;
                System.out.println(truncated);
                float f = (float) d;
                System.out.println((int)(f * 100.0f));
             } }",
            "3\n0\n399",
        );
    }

    #[test]
    fn out_of_fuel() {
        let program =
            compile_source("class M { public static void main(String[] a) { while (true) { } } }")
                .unwrap();
        let sim = Arc::new(SimulatedRapl::new(DeviceProfile::laptop_i5_3317u()));
        let mut interp = Interp::new(&program, sim);
        interp.set_fuel(10_000);
        let err = interp
            .run_method(program.main.unwrap(), vec![Value::Null])
            .unwrap_err();
        assert_eq!(err, VmError::OutOfFuel);
    }

    #[test]
    fn energy_accrues_and_scales_with_work() {
        let small = run("class M { public static void main(String[] a) {
               int s = 0; for (int i = 0; i < 100; i++) s += i; } }");
        let large = run("class M { public static void main(String[] a) {
               int s = 0; for (int i = 0; i < 100000; i++) s += i; } }");
        assert!(small.energy.package_j > 0.0);
        assert!(large.energy.package_j > small.energy.package_j * 100.0);
        assert!(large.energy.seconds > small.energy.seconds);
        assert!(large.energy.core_j < large.energy.package_j);
    }

    #[test]
    fn modulus_costs_more_than_addition() {
        let add = run("class M { public static void main(String[] a) {
               int s = 0; for (int i = 1; i < 50000; i++) s = s + i; System.out.println(s); } }");
        let rem = run("class M { public static void main(String[] a) {
               int s = 0; for (int i = 1; i < 50000; i++) s = s % i; System.out.println(s); } }");
        assert!(
            rem.energy.package_j > add.energy.package_j * 1.5,
            "rem {} vs add {}",
            rem.energy.package_j,
            add.energy.package_j
        );
    }

    #[test]
    fn column_traversal_misses_more_than_row() {
        let row = run("class M { public static void main(String[] a) {
               double[][] m = new double[512][512];
               double s = 0;
               for (int i = 0; i < 512; i++) for (int j = 0; j < 512; j++) s += m[i][j];
             } }");
        let col = run("class M { public static void main(String[] a) {
               double[][] m = new double[512][512];
               double s = 0;
               for (int j = 0; j < 512; j++) for (int i = 0; i < 512; i++) s += m[i][j];
             } }");
        assert!(
            col.cache_misses > row.cache_misses * 3,
            "col {} vs row {}",
            col.cache_misses,
            row.cache_misses
        );
        assert!(col.energy.package_j > row.energy.package_j);
    }

    #[test]
    fn instanceof_checks() {
        run_expect(
            "class Animal { }
             class Dog extends Animal { }
             class M { public static void main(String[] a) {
               Animal x = new Dog();
               System.out.println(x instanceof Dog);
               System.out.println(x instanceof Animal);
               String s = \"hi\";
               System.out.println(s instanceof String);
             } }",
            "true\ntrue\ntrue",
        );
    }

    #[test]
    fn string_switch() {
        run_expect(
            "class M { public static void main(String[] a) {
               String k = \"b\";
               int r = 0;
               switch (k) { case \"a\": r = 1; break; case \"b\": r = 2; break; default: r = 9; }
               System.out.println(r);
             } }",
            "2",
        );
    }

    #[test]
    fn compound_assignment_on_arrays_and_fields() {
        run_expect(
            "class Holder { int v; }
             class M { public static void main(String[] a) {
               int[] xs = new int[3];
               xs[1] += 5;
               xs[1] *= 3;
               System.out.println(xs[1]);
               Holder h = new Holder();
               h.v += 7;
               System.out.println(h.v);
             } }",
            "15\n7",
        );
    }

    #[test]
    fn pre_and_post_increment_semantics() {
        run_expect(
            "class M { public static void main(String[] a) {
               int i = 5;
               System.out.println(i++);
               System.out.println(i);
               System.out.println(++i);
               int j = i-- + --i;
               System.out.println(j);
             } }",
            "5\n6\n7\n12",
        );
    }

    #[test]
    fn parse_int_and_double() {
        run_expect(
            "class M { public static void main(String[] a) {
               System.out.println(Integer.parseInt(\"42\") + 1);
               System.out.println(Double.parseDouble(\"2.5\") * 2);
             } }",
            "43\n5.0",
        );
    }
}
