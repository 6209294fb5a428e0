//! Register-IR compilation tier over the pre-decoded interpreter.
//!
//! Each [`DecodedProgram`] method is lowered into a register-based IR
//! with explicit basic blocks, then optimized by real passes (constant
//! folding and copy propagation during lowering, dead-code elimination
//! and loop-invariant hoisting in `passes`, inlining of small
//! straight-line callees, and CHA devirtualization of monomorphic
//! virtual-call sites). The tier exists purely for speed: every paper
//! observable — stdout, op counts, cache statistics, energy f64 bits,
//! profile events — must stay **bit-identical** to the decoded
//! interpreter, which the PR 5 differential suites enforce.
//!
//! # How bit-identity survives optimization
//!
//! The trick is *as-if accounting*: ops and energy are accounted per
//! **segment** (a run of instructions inside a basic block), not per
//! executed IR instruction. Each segment stores the number of original
//! decoded ops it covers (`k`) and the pre-summed energy-category
//! charges of those ops; on segment entry the interpreter performs one
//! fuel check (`ops_executed + k > fuel`) and one bulk scoreboard add.
//! Because the scoreboard is a commutative counter and observation only
//! happens at flush points, the totals any observer reads are exactly
//! the decoded interpreter's — no matter how the *computation* between
//! observers was folded, deleted, or hoisted.
//!
//! Segments end at every op that can **observe** energy (`TimeMillis`,
//! profiler probes — they must see precisely the charges of the ops
//! that executed before them) or **unwind** into an exception handler
//! (field/array accesses, integer division, string helpers — if the op
//! throws, the charges applied so far must cover exactly the ops up to
//! and including the thrower, because the decoded interpreter continues
//! from the handler with that state).
//!
//! # Deoptimization
//!
//! IR methods never contain `TryEnter` (such methods are not compiled),
//! so an IR frame is never an exception-handler frame: any caught throw
//! transfers control to a decoded frame below. The interpreter
//! maintains the invariant that every *suspended* frame is
//! decoded-valid (stack materialized, pc at the return point) by
//! materializing the caller's canonical stack registers at every call
//! terminator. Deopting is therefore trivial: abandon the IR view and
//! resume [`execute_decoded`](crate::interp::Interp) on the same frame
//! stack. The interpreter's `unwound` counter detects handler entry
//! across bridged helper calls.

use crate::class::{MethodId, Program};
use crate::decode::{DInstr, DOp, DecodedProgram, InstChk, Sym};
use crate::opcode::{ArithOp, ArrayElem, CmpOp, MathFn, NumTy};
use crate::value::Value;
use jepo_jlang::Type;
use jepo_rapl::OpCategory;

mod exec;
mod passes;
mod verify;

/// Basic-block index within an [`IrMethod`].
pub type BlockId = u32;

/// An IR operand: a register or an immediate constant (the product of
/// lowering-time constant folding / copy propagation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Src {
    /// Register index into the frame's `locals`.
    Reg(u16),
    /// Immediate.
    Const(Value),
}

/// Operations routed through the interpreter's shared stack-machine
/// helpers: operands are pushed onto the (empty) real operand stack,
/// the existing op body runs (preserving heap-allocation order, throw
/// behavior and dynamic charges exactly), and the result — if any — is
/// popped back into a register. If the helper unwound into a handler,
/// the IR deoptimizes.
#[derive(Debug, Clone, Copy)]
pub enum BridgeKind {
    /// Allocate an object (`Interp::op_new_object`).
    NewObject(u32),
    /// Allocate a (multi-dimensional) array.
    NewArray {
        /// Innermost element type.
        elem: ArrayElem,
        /// Sized dimensions.
        dims: u8,
    },
    /// `System.arraycopy`.
    ArrayCopy,
    /// String concatenation.
    StrConcat,
    /// `sb.append(x)`.
    SbAppend,
    /// `sb.toString()`.
    SbToString,
    /// String ordering.
    StrCompareTo,
    /// String length.
    StrLength,
    /// String charAt.
    StrCharAt,
    /// `String.hashCode`.
    StrHash,
    /// `Integer.parseInt`.
    ParseInt,
    /// `Double.parseDouble`.
    ParseDouble,
    /// `<makeExc>` intrinsic.
    MakeExc,
    /// `Throwable.getMessage` intrinsic.
    ExcMessage,
    /// Box a primitive.
    Box {
        /// Wrapper class name.
        wrapper: &'static str,
        /// Non-Integer wrapper surcharge.
        surcharge: bool,
    },
    /// Unbox a wrapper.
    Unbox,
}

/// A register-IR instruction.
#[derive(Debug, Clone)]
pub enum IrOp {
    /// `dst = src`.
    Mov {
        /// Destination register.
        dst: u16,
        /// Source operand.
        src: Src,
    },
    /// Typed arithmetic (`dst = a op b`). Integer division/modulus may
    /// throw `ArithmeticException` (segment ender → deopt on catch).
    Arith {
        /// Operator.
        op: ArithOp,
        /// Numeric lane.
        ty: NumTy,
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
        /// Destination register.
        dst: u16,
    },
    /// Typed comparison producing a boolean.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Numeric lane.
        ty: NumTy,
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
        /// Destination register.
        dst: u16,
    },
    /// Reference equality.
    RefCmp {
        /// `Eq` or `Ne`.
        op: CmpOp,
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
        /// Destination register.
        dst: u16,
    },
    /// Numeric negation.
    Neg {
        /// Numeric lane.
        ty: NumTy,
        /// Operand.
        a: Src,
        /// Destination register.
        dst: u16,
    },
    /// Bitwise not.
    BitNot {
        /// Numeric lane.
        ty: NumTy,
        /// Operand.
        a: Src,
        /// Destination register.
        dst: u16,
    },
    /// Logical not.
    Not {
        /// Operand.
        a: Src,
        /// Destination register.
        dst: u16,
    },
    /// Numeric conversion.
    Convert {
        /// Target lane.
        to: NumTy,
        /// Operand.
        a: Src,
        /// Destination register.
        dst: u16,
    },
    /// Unary math intrinsic.
    Math1 {
        /// Function.
        f: MathFn,
        /// Operand.
        a: Src,
        /// Destination register.
        dst: u16,
    },
    /// Binary math intrinsic (`Pow`/`Min`/`Max`).
    Math2 {
        /// Function.
        f: MathFn,
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
        /// Destination register.
        dst: u16,
    },
    /// Read a static slot.
    GetStatic {
        /// Static slot.
        slot: u16,
        /// Destination register.
        dst: u16,
    },
    /// Write a static slot.
    PutStatic {
        /// Static slot.
        slot: u16,
        /// Value operand.
        src: Src,
    },
    /// Read an instance field (cache-modelled; throws on null).
    GetField {
        /// Field slot.
        slot: u16,
        /// Receiver operand.
        obj: Src,
        /// Destination register.
        dst: u16,
    },
    /// Write an instance field (throws on null).
    PutField {
        /// Field slot.
        slot: u16,
        /// Receiver operand.
        obj: Src,
        /// Value operand.
        val: Src,
    },
    /// Array load (cache-modelled; bounds-checked).
    ArrLoad {
        /// Array operand.
        arr: Src,
        /// Index operand.
        idx: Src,
        /// Destination register.
        dst: u16,
    },
    /// Array store (cache-modelled; bounds-checked).
    ArrStore {
        /// Array operand.
        arr: Src,
        /// Index operand.
        idx: Src,
        /// Value operand.
        val: Src,
    },
    /// Array (or string) length.
    ArrLen {
        /// Array operand.
        arr: Src,
        /// Destination register.
        dst: u16,
    },
    /// Allocate a fresh string from the interner (allocation order is
    /// observable through heap refs, so this is never folded).
    ConstStr {
        /// Interned symbol.
        sym: Sym,
        /// Destination register.
        dst: u16,
    },
    /// `new StringBuilder()`.
    SbNew {
        /// Destination register.
        dst: u16,
    },
    /// String equality (non-strings compare unequal, never throws).
    StrEquals {
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
        /// Destination register.
        dst: u16,
    },
    /// `instanceof` through the shared inline-cache site.
    InstanceOf {
        /// Inline-cache slot.
        site: u32,
        /// Decode-time resolved check.
        chk: InstChk,
        /// Operand.
        a: Src,
        /// Destination register.
        dst: u16,
    },
    /// Virtual clock read (energy observer → segment ender).
    TimeMillis {
        /// Destination register.
        dst: u16,
    },
    /// Print intrinsic.
    Print {
        /// Append newline.
        newline: bool,
        /// Value operand, if the op pops one.
        arg: Option<Src>,
    },
    /// Profiler entry probe (energy observer → segment ender).
    ProfileEnter(u32),
    /// Profiler exit probe (energy observer → segment ender).
    ProfileExit(u32),
    /// Stack-machine helper call (see [`BridgeKind`]).
    Bridge {
        /// Which helper.
        kind: BridgeKind,
        /// Operands, pushed in order.
        args: Box<[Src]>,
        /// Result register, if the helper pushes one.
        dst: Option<u16>,
    },
}

/// A devirtualized monomorphic call site: class-hierarchy analysis
/// proved every resolvable receiver class yields `target`.
#[derive(Debug, Clone)]
pub struct MonoSite {
    /// The unique resolution target.
    pub target: MethodId,
    /// `class_ok[c]` ⇔ `resolve_method(c, name, argc) == Some(target)`;
    /// `false` means resolution fails for `c` (same error as decoded).
    pub class_ok: Box<[bool]>,
}

/// Block terminator.
#[derive(Debug, Clone)]
pub enum Term {
    /// Unconditional jump.
    Jump(BlockId),
    /// Conditional branch on a boolean operand.
    Branch {
        /// Condition operand.
        cond: Src,
        /// Successor when true.
        on_true: BlockId,
        /// Successor when false.
        on_false: BlockId,
    },
    /// Return (`None` for void).
    Ret(Option<Src>),
    /// Throw the exception operand (always deopts after unwinding).
    Throw(Src),
    /// Statically-resolved call. The caller's canonical stack has been
    /// flushed to registers `[canon, canon+below+argc)`; the callee's
    /// arguments are the top `argc` of those.
    Call {
        /// Target method.
        target: MethodId,
        /// First argument register (`canon + below`).
        abase: u16,
        /// Argument count (including receiver for instance methods).
        argc: u8,
        /// Whether the callee returns a value (into `abase`).
        has_ret: bool,
        /// Block to resume at after the callee returns.
        cont: BlockId,
        /// Decoded pc of the instruction after the call (for frame
        /// materialization).
        resume_pc: u32,
        /// Canonical stack entries beneath the arguments.
        below: u16,
    },
    /// Virtual call through the shared inline-cache site.
    CallVirtual {
        /// Interned method name (slow-path resolution key).
        name: Sym,
        /// Inline-cache slot.
        site: u32,
        /// First operand register (the receiver; args follow).
        abase: u16,
        /// Argument count excluding receiver.
        argc: u8,
        /// Whether the call produces a value (CHA-proved).
        has_ret: bool,
        /// Block to resume at after the callee returns.
        cont: BlockId,
        /// Decoded pc of the instruction after the call.
        resume_pc: u32,
        /// Canonical stack entries beneath receiver + args.
        below: u16,
        /// CHA devirtualization, when the site is monomorphic.
        mono: Option<MonoSite>,
        /// Guarded inline variants: after the inline-cache probe (which
        /// runs with decoded-identical hit/miss counts) resolves the
        /// target method, a matching entry here transfers control
        /// straight to an inlined copy of that callee lowered into this
        /// method — no argument materialization, no frame push. The
        /// variant block carries the callee's own op/energy segments,
        /// so accounting is unchanged.
        variants: Box<[(MethodId, BlockId)]>,
    },
    /// Fell off the end of the bytecode (mirrors the decoded error).
    Trap,
}

/// A run of IR ops covering `k` original decoded ops, accounted as one
/// fuel check and one bulk energy charge on entry.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Original decoded ops covered (fuel + `ops_executed`).
    pub k: u64,
    /// Pre-summed static energy charges of those ops.
    pub charges: Box<[(OpCategory, u64)]>,
    /// The (optimized) computation.
    pub code: Vec<IrOp>,
}

/// A basic block: segments plus a terminator.
#[derive(Debug, Clone)]
pub struct Block {
    /// Accounting segments, executed in order.
    pub segs: Vec<Segment>,
    /// Terminator.
    pub term: Term,
    /// Canonical stack depth flushed at block exit (live-out registers
    /// `[canon, canon+exit_depth)` for the DCE pass).
    pub exit_depth: u16,
}

/// One compiled method.
#[derive(Debug, Clone)]
pub struct IrMethod {
    /// Basic blocks.
    pub blocks: Vec<Block>,
    /// Entry block.
    pub entry: BlockId,
    /// Total registers (the frame's `locals` are resized to this).
    pub nregs: u16,
    /// First canonical stack register; registers below are the decoded
    /// locals, `[canon, canon+max_stack)` model the operand stack, and
    /// temporaries live above.
    pub canon: u16,
}

/// Per-compilation pass statistics (surfaced by the bench harness).
#[derive(Debug, Clone, Copy, Default)]
pub struct PassStats {
    /// Methods lowered to IR.
    pub methods_compiled: usize,
    /// Methods left on the decoded tier (try/catch, dynamic stack
    /// shapes, ambiguous virtual-return arity, …).
    pub methods_bailed: usize,
    /// Constants folded / copies propagated during lowering.
    pub consts_folded: usize,
    /// Dead IR ops removed.
    pub ops_deleted: usize,
    /// Loop-invariant ops hoisted to preheaders.
    pub ops_hoisted: usize,
    /// Static calls inlined.
    pub calls_inlined: usize,
    /// Virtual-call sites devirtualized by CHA.
    pub sites_devirtualized: usize,
    /// Guarded inline variants generated at virtual-call sites.
    pub virtual_variants: usize,
    /// Small blocks absorbed into a jumping predecessor.
    pub jumps_threaded: usize,
}

/// A compiled program: one optional [`IrMethod`] per decoded method.
#[derive(Debug)]
pub struct IrProgram {
    /// IR per method (`None` = run on the decoded tier).
    pub methods: Vec<Option<IrMethod>>,
    /// Aggregated pass statistics.
    pub stats: PassStats,
}

/// Compile every method of `dp` that fits the IR subset; the rest stay
/// on the decoded tier (and any IR frame can deoptimize onto it).
pub fn compile(program: &Program, dp: &DecodedProgram) -> IrProgram {
    let mut stats = PassStats::default();
    // Whether any method installs an exception handler: without one, no
    // throw is ever caught, so potentially-throwing ops need not end
    // accounting segments (see `ends_segment`).
    let handlers = dp
        .methods
        .iter()
        .any(|m| m.iter().any(|i| matches!(i.op, DOp::TryEnter { .. })));
    let methods = (0..dp.methods.len())
        .map(|mid| {
            let lowered = lower_method(program, dp, mid as MethodId, handlers, &mut stats);
            match lowered {
                Some(mut m) => {
                    passes::run(&mut m, &mut stats);
                    stats.methods_compiled += 1;
                    Some(m)
                }
                None => {
                    stats.methods_bailed += 1;
                    None
                }
            }
        })
        .collect();
    IrProgram { methods, stats }
}

// ---- analysis ------------------------------------------------------------

/// CHA result for one `CallVirtual` site.
struct VirtInfo {
    has_ret: bool,
    mono: Option<MonoSite>,
    /// Every user-class resolution target (deduped, discovery order).
    targets: Vec<MethodId>,
}

/// Class-hierarchy analysis of a virtual call site: collect every
/// resolution across all classes. Returns `None` when the return arity
/// cannot be proven (the decoded tier keeps such methods).
fn analyze_virtual(program: &Program, name: &str, argc: u8) -> Option<VirtInfo> {
    let nclasses = program.classes.len();
    let mut targets: Vec<MethodId> = Vec::new();
    let mut class_ok = vec![false; nclasses];
    for (c, ok) in class_ok.iter_mut().enumerate() {
        if let Some(m) = program.resolve_method(c as u32, name, argc) {
            if !targets.contains(&m) {
                targets.push(m);
            }
            *ok = true;
        }
    }
    if targets.is_empty() {
        // Only the string/exception intrinsic receivers can answer:
        // `toString`/`getMessage` push exactly one value.
        return if name == "toString" || name == "getMessage" {
            Some(VirtInfo {
                has_ret: true,
                mono: None,
                targets: Vec::new(),
            })
        } else {
            None
        };
    }
    let has_ret = program.methods[targets[0] as usize].ret != Type::Void;
    if targets
        .iter()
        .any(|&m| (program.methods[m as usize].ret != Type::Void) != has_ret)
    {
        return None;
    }
    // A void user-class target plus a runtime `String`/`Exception`
    // receiver hitting the `toString`/`getMessage` intrinsics would
    // push a value the static shape doesn't account for — bail.
    if !has_ret && (name == "toString" || name == "getMessage") {
        return None;
    }
    let mono = if targets.len() == 1 {
        let target = targets[0];
        for (c, ok) in class_ok.iter_mut().enumerate() {
            if *ok {
                *ok = program.resolve_method(c as u32, name, argc) == Some(target);
            }
        }
        Some(MonoSite {
            target,
            class_ok: class_ok.into_boxed_slice(),
        })
    } else {
        None
    };
    Some(VirtInfo {
        has_ret,
        mono,
        targets,
    })
}

/// Stack effect of a decoded op: `(pops, pushes)`. `None` bails the
/// method (op outside the IR subset).
fn stack_effect(op: &DOp, program: &Program, dp: &DecodedProgram) -> Option<(u16, u16)> {
    Some(match *op {
        DOp::Const(_) | DOp::ConstF { .. } | DOp::ConstStr(_) | DOp::LoadLocal(_) => (0, 1),
        DOp::GetStatic(_) | DOp::SbNew | DOp::TimeMillis | DOp::NewObject(_) => (0, 1),
        DOp::StoreLocal(_) | DOp::PutStatic(_) | DOp::Pop | DOp::Throw => (1, 0),
        DOp::GetField(_) => (1, 1),
        DOp::PutField(_) => (2, 0),
        DOp::Arith(..) | DOp::Cmp(..) | DOp::RefCmp(_) => (2, 1),
        DOp::Neg(_) | DOp::BitNot(_) | DOp::Not | DOp::Convert(_) => (1, 1),
        DOp::Jump(_) | DOp::TernaryJoin | DOp::Nop => (0, 0),
        DOp::JumpIfFalse(_) | DOp::JumpIfTrue(_) => (1, 0),
        DOp::Call { method, argc } => {
            let void = program.methods[method as usize].ret == Type::Void;
            (argc as u16, if void { 0 } else { 1 })
        }
        DOp::CallVirtual { name, argc, .. } => {
            let info = analyze_virtual(program, dp.interner.get(name), argc)?;
            (argc as u16 + 1, if info.has_ret { 1 } else { 0 })
        }
        DOp::MakeExc => (2, 1),
        DOp::ParseInt | DOp::ParseDouble | DOp::StrHash | DOp::ExcMessage => (1, 1),
        DOp::Return => (1, 0),
        DOp::ReturnVoid => (0, 0),
        DOp::NewArray { dims, .. } => (dims as u16, 1),
        DOp::ArrLoad(_) => (2, 1),
        DOp::ArrStore(_) => (3, 0),
        DOp::ArrLen => (1, 1),
        DOp::ArrayCopy => (5, 0),
        DOp::StrConcat | DOp::SbAppend | DOp::StrCompareTo | DOp::StrCharAt => (2, 1),
        DOp::SbToString | DOp::StrLength | DOp::Box { .. } | DOp::Unbox => (1, 1),
        DOp::StrEquals => (2, 1),
        DOp::TryEnter { .. } | DOp::TryExit => return None,
        DOp::Dup => (1, 2),
        DOp::Swap => (2, 2),
        DOp::Print { has_arg, .. } => (u16::from(has_arg), 0),
        DOp::Math(f) => match f {
            MathFn::Pow | MathFn::Min | MathFn::Max => (2, 1),
            _ => (1, 1),
        },
        DOp::InstanceOfChk { .. } => (1, 1),
        DOp::ProfileEnter(_) | DOp::ProfileExit(_) => (0, 0),
    })
}

/// Whether the op terminates a basic block.
fn is_terminator(op: &DOp) -> bool {
    matches!(
        op,
        DOp::Jump(_)
            | DOp::JumpIfFalse(_)
            | DOp::JumpIfTrue(_)
            | DOp::Return
            | DOp::ReturnVoid
            | DOp::Throw
            | DOp::Call { .. }
            | DOp::CallVirtual { .. }
    )
}

/// Explicit jump targets of the op.
fn jump_targets(op: &DOp) -> [Option<u32>; 1] {
    match *op {
        DOp::Jump(t) | DOp::JumpIfFalse(t) | DOp::JumpIfTrue(t) => [Some(t)],
        _ => [None],
    }
}

struct Analysis {
    /// Stack depth *before* each pc (`None` = unreachable).
    depth: Vec<Option<u16>>,
    /// Sorted reachable block-leader pcs.
    leaders: Vec<usize>,
    /// Max stack depth across reachable pcs.
    max_stack: u16,
    /// Max local index touched.
    max_local: u16,
}

/// Reachability + per-pc abstract stack depth + leader discovery.
/// Returns `None` if the method uses try/catch, has an inconsistent or
/// underflowing stack shape, or contains a virtual site with unprovable
/// return arity.
fn analyze(program: &Program, dp: &DecodedProgram, code: &[DInstr]) -> Option<Analysis> {
    let n = code.len();
    let mut depth: Vec<Option<u16>> = vec![None; n];
    let mut is_leader = vec![false; n];
    let mut max_local: u16 = 0;
    if n > 0 {
        is_leader[0] = true;
    }
    let mut work: Vec<(usize, u16)> = vec![(0, 0)];
    let mut max_stack: u16 = 0;
    while let Some((pc, d)) = work.pop() {
        if pc >= n {
            continue;
        }
        match depth[pc] {
            Some(prev) => {
                if prev != d {
                    return None; // inconsistent shape at a join
                }
                continue;
            }
            None => depth[pc] = Some(d),
        }
        max_stack = max_stack.max(d);
        let op = &code[pc].op;
        match *op {
            DOp::LoadLocal(i) | DOp::StoreLocal(i) => max_local = max_local.max(i),
            _ => {}
        }
        let (pops, pushes) = stack_effect(op, program, dp)?;
        if d < pops {
            return None; // static underflow
        }
        let d_after = d - pops + pushes;
        if d_after > 1024 {
            return None;
        }
        for t in jump_targets(op).into_iter().flatten() {
            let t = t as usize;
            if t >= n {
                return None;
            }
            is_leader[t] = true;
            // Depth at a branch target: after popping the condition
            // (`Jump` pops nothing, conditionals popped already).
            work.push((t, d_after));
        }
        let falls_through = !matches!(
            op,
            DOp::Jump(_) | DOp::Return | DOp::ReturnVoid | DOp::Throw
        );
        if falls_through && pc + 1 < n {
            work.push((pc + 1, d_after));
        }
        if is_terminator(op) && pc + 1 < n {
            is_leader[pc + 1] = true;
        }
    }
    let leaders: Vec<usize> = (0..n)
        .filter(|&pc| is_leader[pc] && depth[pc].is_some())
        .collect();
    Some(Analysis {
        depth,
        leaders,
        max_stack,
        max_local,
    })
}

// ---- lowering ------------------------------------------------------------

/// Ops that may unwind into an exception handler or observe energy:
/// they must be the last op of their accounting segment.
///
/// `handlers` says whether *any* method in the program installs an
/// exception handler (`TryEnter`). Without one, no throw is ever
/// caught — it propagates as `Err`, and the error path's intermediate
/// accounting state is unobservable (exactly like a mid-segment
/// `OutOfFuel`) — so potentially-throwing ops no longer need to end
/// their segment and whole loop bodies collapse into one bulk charge.
/// Energy observers (`TimeMillis`, profiler probes) always end
/// segments: they read the scoreboard on the success path.
fn ends_segment(op: &IrOp, handlers: bool) -> bool {
    match op {
        IrOp::TimeMillis { .. } | IrOp::ProfileEnter(_) | IrOp::ProfileExit(_) => true,
        IrOp::Arith { op, ty, .. } => {
            handlers
                && matches!(op, ArithOp::Div | ArithOp::Rem)
                && !matches!(ty, NumTy::F32 | NumTy::F64)
        }
        IrOp::GetField { .. }
        | IrOp::PutField { .. }
        | IrOp::ArrLoad { .. }
        | IrOp::ArrStore { .. }
        | IrOp::ArrLen { .. } => handlers,
        IrOp::Bridge { kind, .. } => {
            handlers
                && matches!(
                    kind,
                    BridgeKind::NewArray { .. }
                        | BridgeKind::ArrayCopy
                        | BridgeKind::SbAppend
                        | BridgeKind::SbToString
                        | BridgeKind::StrCompareTo
                        | BridgeKind::StrLength
                        | BridgeKind::StrCharAt
                        | BridgeKind::ParseInt
                        | BridgeKind::ParseDouble
                        | BridgeKind::Unbox
                )
        }
        _ => false,
    }
}

/// Lowering state for one basic block.
struct BlockCtx {
    sym: Vec<Src>,
    segs: Vec<Segment>,
    code: Vec<IrOp>,
    k: u64,
    charges: [u64; OpCategory::ALL.len()],
    next_temp: u16,
    /// Program installs exception handlers (see [`ends_segment`]).
    handlers: bool,
}

impl BlockCtx {
    fn new(entry_depth: u16, canon: u16, temp_base: u16, handlers: bool) -> BlockCtx {
        BlockCtx {
            sym: (0..entry_depth).map(|i| Src::Reg(canon + i)).collect(),
            segs: Vec::new(),
            code: Vec::new(),
            k: 0,
            charges: [0; OpCategory::ALL.len()],
            next_temp: temp_base,
            handlers,
        }
    }

    /// Account one original decoded op into the current segment.
    fn count(&mut self, instr: &DInstr) {
        self.k += 1;
        if let Some(cat) = instr.cat {
            self.charges[cat.index()] += 1;
        }
    }

    fn temp(&mut self) -> u16 {
        let t = self.next_temp;
        self.next_temp += 1;
        t
    }

    fn emit(&mut self, op: IrOp) {
        let ender = ends_segment(&op, self.handlers);
        self.code.push(op);
        if ender {
            self.finish_segment();
        }
    }

    fn finish_segment(&mut self) {
        let charges: Box<[(OpCategory, u64)]> = self
            .charges
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (OpCategory::ALL[i], n))
            .collect();
        self.segs.push(Segment {
            k: self.k,
            charges,
            code: std::mem::take(&mut self.code),
        });
        self.k = 0;
        self.charges = [0; OpCategory::ALL.len()];
    }

    /// If the last emitted op of the current segment writes `t`, retarget
    /// it to `dst` (the `StoreLocal` peephole).
    fn try_retarget(&mut self, t: u16, new_dst: u16) -> bool {
        let Some(last) = self.code.last_mut() else {
            return false;
        };
        let d = match last {
            IrOp::Mov { dst, .. }
            | IrOp::Arith { dst, .. }
            | IrOp::Cmp { dst, .. }
            | IrOp::RefCmp { dst, .. }
            | IrOp::Neg { dst, .. }
            | IrOp::BitNot { dst, .. }
            | IrOp::Not { dst, .. }
            | IrOp::Convert { dst, .. }
            | IrOp::Math1 { dst, .. }
            | IrOp::Math2 { dst, .. }
            | IrOp::GetStatic { dst, .. }
            | IrOp::StrEquals { dst, .. }
            | IrOp::InstanceOf { dst, .. }
            | IrOp::ConstStr { dst, .. }
            | IrOp::SbNew { dst } => dst,
            _ => return false,
        };
        if *d == t {
            *d = new_dst;
            true
        } else {
            false
        }
    }
}

/// A virtual-call site awaiting guarded inline variants: the variant
/// blocks can only be appended once every normal block id is fixed.
struct PendingVariants {
    /// Block whose `CallVirtual` terminator gets the variant table.
    block: BlockId,
    /// CHA resolution targets to attempt inlining for.
    targets: Vec<MethodId>,
    /// Receiver register (args follow contiguously).
    abase: u16,
    /// Argument count excluding receiver.
    argc: u8,
    /// Whether the call pushes a value.
    has_ret: bool,
    /// Continuation block every variant jumps to.
    cont: BlockId,
    /// Canonical stack depth at the continuation entry.
    exit_depth: u16,
}

struct Lowerer<'a> {
    program: &'a Program,
    dp: &'a DecodedProgram,
    code: &'a [DInstr],
    an: Analysis,
    canon: u16,
    temp_base: u16,
    stats: &'a mut PassStats,
    nregs: u16,
    pending: Vec<PendingVariants>,
    /// Program installs exception handlers (see [`ends_segment`]).
    handlers: bool,
}

fn lower_method(
    program: &Program,
    dp: &DecodedProgram,
    mid: MethodId,
    handlers: bool,
    stats: &mut PassStats,
) -> Option<IrMethod> {
    let code: &[DInstr] = &dp.methods[mid as usize];
    let m = &program.methods[mid as usize];
    let an = analyze(program, dp, code)?;
    let canon_usize = (m.locals as usize).max(an.max_local as usize + 1);
    if canon_usize + an.max_stack as usize + 256 > u16::MAX as usize {
        return None;
    }
    let canon = canon_usize as u16;
    let temp_base = canon + an.max_stack;
    let mut lw = Lowerer {
        program,
        dp,
        code,
        an,
        canon,
        temp_base,
        stats,
        nregs: temp_base,
        pending: Vec::new(),
        handlers,
    };
    lw.lower()
}

impl<'a> Lowerer<'a> {
    fn block_of(&self, pc: usize) -> Option<BlockId> {
        self.an
            .leaders
            .binary_search(&pc)
            .ok()
            .map(|i| i as BlockId)
    }

    fn lower(&mut self) -> Option<IrMethod> {
        let leaders = self.an.leaders.clone();
        let mut blocks = Vec::with_capacity(leaders.len().max(1));
        if leaders.is_empty() {
            // Empty (or fully unreachable) body: decoded errors with
            // "fell off end" after the fuel check; Trap mirrors both.
            blocks.push(Block {
                segs: Vec::new(),
                term: Term::Trap,
                exit_depth: 0,
            });
            return Some(IrMethod {
                blocks,
                entry: 0,
                nregs: self.nregs.max(self.canon),
                canon: self.canon,
            });
        }
        for (bi, &leader) in leaders.iter().enumerate() {
            let end = leaders.get(bi + 1).copied().unwrap_or(self.code.len());
            let entry_depth = self.an.depth[leader]?;
            let block = self.lower_block(leader, end, entry_depth)?;
            self.nregs = self.nregs.max(block_max_reg(&block));
            blocks.push(block);
        }
        // Guarded inline variants for virtual sites: lower each small
        // straight-line target into its own block (appended after the
        // normal blocks) and patch the site's variant table.
        for p in std::mem::take(&mut self.pending) {
            let mut variants: Vec<(MethodId, BlockId)> = Vec::new();
            for &target in &p.targets {
                let vid = blocks.len() as BlockId;
                if let Some(vb) = self.lower_variant(&p, target) {
                    self.nregs = self.nregs.max(block_max_reg(&vb));
                    blocks.push(vb);
                    variants.push((target, vid));
                    self.stats.virtual_variants += 1;
                }
            }
            if !variants.is_empty() {
                if let Term::CallVirtual { variants: vs, .. } = &mut blocks[p.block as usize].term {
                    *vs = variants.into_boxed_slice();
                }
            }
        }
        Some(IrMethod {
            blocks,
            entry: 0,
            nregs: self.nregs,
            canon: self.canon,
        })
    }

    /// Lower one virtual-call target as a guarded inline variant block:
    /// the callee's body, expanded against a symbolic operand stack and
    /// symbolic locals (locals `[0, argc+1)` are the caller's argument
    /// registers at `abase`, the rest start as `null` constants — the
    /// pooled-frame initial state, with no physical frame). Every
    /// callee op is accounted into the variant's own segments, so the
    /// fuel/energy stream is exactly the decoded callee's. Bails (and
    /// the site keeps its real-call path for that target) on any
    /// control flow, nested call, try/catch, or profiler probe.
    fn lower_variant(&mut self, p: &PendingVariants, target: MethodId) -> Option<Block> {
        const MAX_VARIANT_OPS: usize = 24;
        let callee: &[DInstr] = &self.dp.methods[target as usize];
        if callee.is_empty() {
            return None;
        }
        let nargs = p.argc as usize + 1;
        let m = &self.program.methods[target as usize];
        let mut locals: Vec<Src> = vec![Src::Const(Value::Null); (m.locals as usize).max(nargs)];
        for (i, l) in locals.iter_mut().enumerate().take(nargs) {
            *l = Src::Reg(p.abase + i as u16);
        }
        let mut cx = BlockCtx::new(0, self.canon, self.temp_base, self.handlers);
        let mut ret: Option<Option<Src>> = None;
        for (n, instr) in callee.iter().enumerate() {
            if n >= MAX_VARIANT_OPS {
                return None;
            }
            cx.count(instr);
            match instr.op {
                DOp::LoadLocal(i) => match locals.get(i as usize) {
                    Some(&s) => cx.sym.push(s),
                    None => return None,
                },
                DOp::StoreLocal(i) => {
                    let v = cx.sym.pop()?;
                    if (i as usize) >= locals.len() {
                        locals.resize(i as usize + 1, Src::Const(Value::Null));
                    }
                    locals[i as usize] = v;
                }
                DOp::Return => {
                    if !p.has_ret {
                        return None;
                    }
                    ret = Some(Some(cx.sym.pop()?));
                    break;
                }
                DOp::ReturnVoid => {
                    if p.has_ret {
                        return None;
                    }
                    ret = Some(None);
                    break;
                }
                // Control flow, nested calls, try/catch and profiler
                // probes keep the target a real call.
                DOp::Jump(_)
                | DOp::JumpIfFalse(_)
                | DOp::JumpIfTrue(_)
                | DOp::Throw
                | DOp::Call { .. }
                | DOp::CallVirtual { .. }
                | DOp::TryEnter { .. }
                | DOp::TryExit
                | DOp::ProfileEnter(_)
                | DOp::ProfileExit(_) => return None,
                op => {
                    // Guard `lower_straight`'s depth expectations (the
                    // callee was never depth-analyzed).
                    let (pops, _) = stack_effect(&op, self.program, self.dp)?;
                    if (cx.sym.len() as u16) < pops {
                        return None;
                    }
                    self.lower_straight(&mut cx, op)?;
                }
            }
        }
        let ret = ret?;
        if let Some(v) = ret {
            match v {
                // The result is the freshly-written temp of the last op:
                // retarget that op straight to the result register.
                Src::Reg(t) if t >= self.temp_base && cx.try_retarget(t, p.abase) => {}
                v if v == Src::Reg(p.abase) => {}
                v => cx.emit(IrOp::Mov {
                    dst: p.abase,
                    src: v,
                }),
            }
        }
        cx.finish_segment();
        Some(Block {
            segs: cx.segs,
            term: Term::Jump(p.cont),
            exit_depth: p.exit_depth,
        })
    }

    /// Pop an operand off the symbolic stack.
    fn spop(cx: &mut BlockCtx) -> Src {
        cx.sym.pop().expect("analysis guarantees depth")
    }

    /// Emit a pure unary/binary op to a fresh temp (or fold it).
    fn pure_to_temp(&mut self, cx: &mut BlockCtx, op: IrOp, folded: Option<Value>) {
        if let Some(v) = folded {
            self.stats.consts_folded += 1;
            cx.sym.push(Src::Const(v));
        } else {
            let t = match &op {
                IrOp::Arith { dst, .. }
                | IrOp::Cmp { dst, .. }
                | IrOp::RefCmp { dst, .. }
                | IrOp::Neg { dst, .. }
                | IrOp::BitNot { dst, .. }
                | IrOp::Not { dst, .. }
                | IrOp::Convert { dst, .. }
                | IrOp::Math1 { dst, .. }
                | IrOp::Math2 { dst, .. }
                | IrOp::StrEquals { dst, .. } => *dst,
                _ => unreachable!("pure_to_temp on non-pure op"),
            };
            cx.emit(op);
            cx.sym.push(Src::Reg(t));
        }
    }

    /// Flush the symbolic stack to canonical registers with a two-phase
    /// parallel move (conflicting canonical sources are rescued to
    /// temps first).
    fn flush(&mut self, cx: &mut BlockCtx) {
        let canon = self.canon;
        let depth = cx.sym.len() as u16;
        // Phase 1: rescue canonical-register sources that another slot
        // will overwrite.
        for j in 0..cx.sym.len() {
            if let Src::Reg(r) = cx.sym[j] {
                let target = canon + j as u16;
                if r != target && r >= canon && r < canon + depth {
                    let t = cx.temp();
                    cx.emit(IrOp::Mov {
                        dst: t,
                        src: Src::Reg(r),
                    });
                    cx.sym[j] = Src::Reg(t);
                }
            }
        }
        // Phase 2: move everything into place.
        for j in 0..cx.sym.len() {
            let target = canon + j as u16;
            let src = cx.sym[j];
            if src != Src::Reg(target) {
                cx.emit(IrOp::Mov { dst: target, src });
                cx.sym[j] = Src::Reg(target);
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn lower_block(&mut self, leader: usize, end: usize, entry_depth: u16) -> Option<Block> {
        let mut cx = BlockCtx::new(entry_depth, self.canon, self.temp_base, self.handlers);
        let mut pc = leader;
        while pc < end {
            let instr = self.code[pc];
            cx.count(&instr);
            match instr.op {
                // ---- terminators ----
                DOp::Jump(t) => {
                    self.flush(&mut cx);
                    let exit_depth = cx.sym.len() as u16;
                    cx.finish_segment();
                    return Some(Block {
                        segs: cx.segs,
                        term: Term::Jump(self.block_of(t as usize)?),
                        exit_depth,
                    });
                }
                DOp::JumpIfFalse(t) | DOp::JumpIfTrue(t) => {
                    let cond = Self::spop(&mut cx);
                    self.flush(&mut cx);
                    let exit_depth = cx.sym.len() as u16;
                    cx.finish_segment();
                    let target = self.block_of(t as usize)?;
                    let fall = self.block_of(pc + 1)?;
                    let (on_true, on_false) = if matches!(instr.op, DOp::JumpIfTrue(_)) {
                        (target, fall)
                    } else {
                        (fall, target)
                    };
                    // Fold a constant-boolean branch into a jump.
                    let term = match cond {
                        Src::Const(Value::Bool(b)) => {
                            self.stats.consts_folded += 1;
                            Term::Jump(if b { on_true } else { on_false })
                        }
                        cond => Term::Branch {
                            cond,
                            on_true,
                            on_false,
                        },
                    };
                    return Some(Block {
                        segs: cx.segs,
                        term,
                        exit_depth,
                    });
                }
                DOp::Return => {
                    let v = Self::spop(&mut cx);
                    cx.finish_segment();
                    return Some(Block {
                        segs: cx.segs,
                        term: Term::Ret(Some(v)),
                        exit_depth: 0,
                    });
                }
                DOp::ReturnVoid => {
                    cx.finish_segment();
                    return Some(Block {
                        segs: cx.segs,
                        term: Term::Ret(None),
                        exit_depth: 0,
                    });
                }
                DOp::Throw => {
                    let v = Self::spop(&mut cx);
                    cx.finish_segment();
                    return Some(Block {
                        segs: cx.segs,
                        term: Term::Throw(v),
                        exit_depth: 0,
                    });
                }
                DOp::Call { method, argc } => {
                    if self.try_inline(&mut cx, method, argc) {
                        // Inlined: fall through to the post-call block.
                        self.flush(&mut cx);
                        let exit_depth = cx.sym.len() as u16;
                        cx.finish_segment();
                        return Some(Block {
                            segs: cx.segs,
                            term: Term::Jump(self.block_of(pc + 1)?),
                            exit_depth,
                        });
                    }
                    let has_ret = self.program.methods[method as usize].ret != Type::Void;
                    self.flush(&mut cx);
                    let depth = cx.sym.len() as u16;
                    let below = depth - argc as u16;
                    cx.finish_segment();
                    return Some(Block {
                        segs: cx.segs,
                        term: Term::Call {
                            target: method,
                            abase: self.canon + below,
                            argc,
                            has_ret,
                            cont: self.block_of(pc + 1)?,
                            resume_pc: (pc + 1) as u32,
                            below,
                        },
                        exit_depth: depth,
                    });
                }
                DOp::CallVirtual { name, argc, site } => {
                    let info = analyze_virtual(self.program, self.dp.interner.get(name), argc)?;
                    if info.mono.is_some() {
                        self.stats.sites_devirtualized += 1;
                    }
                    self.flush(&mut cx);
                    let depth = cx.sym.len() as u16;
                    let below = depth - argc as u16 - 1;
                    cx.finish_segment();
                    let abase = self.canon + below;
                    let cont = self.block_of(pc + 1)?;
                    // Request guarded inline variants for small targets;
                    // the blocks are appended once all ids are fixed.
                    const MAX_VARIANT_TARGETS: usize = 4;
                    if !info.targets.is_empty() && info.targets.len() <= MAX_VARIANT_TARGETS {
                        self.pending.push(PendingVariants {
                            block: self.block_of(leader)?,
                            targets: info.targets,
                            abase,
                            argc,
                            has_ret: info.has_ret,
                            cont,
                            exit_depth: below + u16::from(info.has_ret),
                        });
                    }
                    return Some(Block {
                        segs: cx.segs,
                        term: Term::CallVirtual {
                            name,
                            site,
                            abase,
                            argc,
                            has_ret: info.has_ret,
                            cont,
                            resume_pc: (pc + 1) as u32,
                            below,
                            mono: info.mono,
                            variants: Box::new([]),
                        },
                        exit_depth: depth,
                    });
                }
                // ---- straight-line ops ----
                op => self.lower_straight(&mut cx, op)?,
            }
            pc += 1;
        }
        // Fell off the block: either fall through to the next leader or
        // off the end of the bytecode.
        self.flush(&mut cx);
        let exit_depth = cx.sym.len() as u16;
        cx.finish_segment();
        let term = match self.block_of(end) {
            Some(b) if end < self.code.len() => Term::Jump(b),
            _ => Term::Trap,
        };
        Some(Block {
            segs: cx.segs,
            term,
            exit_depth,
        })
    }

    /// Lower one non-terminator decoded op (already counted).
    #[allow(clippy::too_many_lines)]
    fn lower_straight(&mut self, cx: &mut BlockCtx, op: DOp) -> Option<()> {
        match op {
            DOp::Const(v) => cx.sym.push(Src::Const(v)),
            DOp::ConstF { value, float32 } => cx.sym.push(Src::Const(if float32 {
                Value::Float(value as f32)
            } else {
                Value::Double(value)
            })),
            DOp::ConstStr(sym) => {
                let t = cx.temp();
                cx.emit(IrOp::ConstStr { sym, dst: t });
                cx.sym.push(Src::Reg(t));
            }
            DOp::LoadLocal(i) => cx.sym.push(Src::Reg(i)),
            DOp::StoreLocal(i) => {
                let src = Self::spop(cx);
                // Rescue pending stack entries that still reference the
                // local being overwritten.
                for j in 0..cx.sym.len() {
                    if cx.sym[j] == Src::Reg(i) {
                        let t = cx.temp();
                        cx.emit(IrOp::Mov {
                            dst: t,
                            src: Src::Reg(i),
                        });
                        for s in cx.sym.iter_mut() {
                            if *s == Src::Reg(i) {
                                *s = Src::Reg(t);
                            }
                        }
                        break;
                    }
                }
                match src {
                    Src::Reg(t)
                        if t >= self.temp_base
                            && !cx.sym.contains(&Src::Reg(t))
                            && cx.try_retarget(t, i) =>
                    {
                        self.stats.consts_folded += 1;
                    }
                    src if src == Src::Reg(i) => {} // self-move
                    src => cx.emit(IrOp::Mov { dst: i, src }),
                }
            }
            DOp::GetField(slot) => {
                let obj = Self::spop(cx);
                let t = cx.temp();
                cx.emit(IrOp::GetField { slot, obj, dst: t });
                cx.sym.push(Src::Reg(t));
            }
            DOp::PutField(slot) => {
                let val = Self::spop(cx);
                let obj = Self::spop(cx);
                cx.emit(IrOp::PutField { slot, obj, val });
            }
            DOp::GetStatic(slot) => {
                let t = cx.temp();
                cx.emit(IrOp::GetStatic { slot, dst: t });
                cx.sym.push(Src::Reg(t));
            }
            DOp::PutStatic(slot) => {
                let src = Self::spop(cx);
                cx.emit(IrOp::PutStatic { slot, src });
            }
            DOp::Arith(aop, ty) => {
                let b = Self::spop(cx);
                let a = Self::spop(cx);
                let folded = match (a, b) {
                    (Src::Const(x), Src::Const(y)) => fold::arith(aop, ty, x, y),
                    _ => None,
                };
                let t = cx.temp();
                self.pure_to_temp(
                    cx,
                    IrOp::Arith {
                        op: aop,
                        ty,
                        a,
                        b,
                        dst: t,
                    },
                    folded,
                );
            }
            DOp::Cmp(cop, ty) => {
                let b = Self::spop(cx);
                let a = Self::spop(cx);
                let folded = match (a, b) {
                    (Src::Const(x), Src::Const(y)) => fold::cmp(cop, ty, x, y),
                    _ => None,
                };
                let t = cx.temp();
                self.pure_to_temp(
                    cx,
                    IrOp::Cmp {
                        op: cop,
                        ty,
                        a,
                        b,
                        dst: t,
                    },
                    folded,
                );
            }
            DOp::RefCmp(cop) => {
                let b = Self::spop(cx);
                let a = Self::spop(cx);
                let folded = fold::ref_cmp(cop, a, b);
                let t = cx.temp();
                self.pure_to_temp(
                    cx,
                    IrOp::RefCmp {
                        op: cop,
                        a,
                        b,
                        dst: t,
                    },
                    folded,
                );
            }
            DOp::Neg(ty) => {
                let a = Self::spop(cx);
                let folded = match a {
                    Src::Const(x) => fold::neg(ty, x),
                    _ => None,
                };
                let t = cx.temp();
                self.pure_to_temp(cx, IrOp::Neg { ty, a, dst: t }, folded);
            }
            DOp::BitNot(ty) => {
                let a = Self::spop(cx);
                let folded = match a {
                    Src::Const(x) => fold::bit_not(ty, x),
                    _ => None,
                };
                let t = cx.temp();
                self.pure_to_temp(cx, IrOp::BitNot { ty, a, dst: t }, folded);
            }
            DOp::Not => {
                let a = Self::spop(cx);
                let folded = match a {
                    Src::Const(x) => x.as_bool().map(|b| Value::Bool(!b)),
                    _ => None,
                };
                let t = cx.temp();
                self.pure_to_temp(cx, IrOp::Not { a, dst: t }, folded);
            }
            DOp::Convert(to) => {
                let a = Self::spop(cx);
                let folded = match a {
                    Src::Const(x) => fold::convert(to, x),
                    _ => None,
                };
                let t = cx.temp();
                self.pure_to_temp(cx, IrOp::Convert { to, a, dst: t }, folded);
            }
            DOp::Math(f) => match f {
                MathFn::Pow | MathFn::Min | MathFn::Max => {
                    let b = Self::spop(cx);
                    let a = Self::spop(cx);
                    let t = cx.temp();
                    self.pure_to_temp(cx, IrOp::Math2 { f, a, b, dst: t }, None);
                }
                _ => {
                    let a = Self::spop(cx);
                    let t = cx.temp();
                    self.pure_to_temp(cx, IrOp::Math1 { f, a, dst: t }, None);
                }
            },
            DOp::TernaryJoin | DOp::Nop => {}
            DOp::Dup => {
                let top = *cx.sym.last().expect("analysis guarantees depth");
                cx.sym.push(top);
            }
            DOp::Pop => {
                Self::spop(cx);
            }
            DOp::Swap => {
                let len = cx.sym.len();
                cx.sym.swap(len - 1, len - 2);
            }
            DOp::StrEquals => {
                let b = Self::spop(cx);
                let a = Self::spop(cx);
                let t = cx.temp();
                self.pure_to_temp(cx, IrOp::StrEquals { a, b, dst: t }, None);
            }
            DOp::InstanceOfChk { site, chk } => {
                let a = Self::spop(cx);
                let t = cx.temp();
                cx.emit(IrOp::InstanceOf {
                    site,
                    chk,
                    a,
                    dst: t,
                });
                cx.sym.push(Src::Reg(t));
            }
            DOp::ArrLoad(_) => {
                let idx = Self::spop(cx);
                let arr = Self::spop(cx);
                let t = cx.temp();
                cx.emit(IrOp::ArrLoad { arr, idx, dst: t });
                cx.sym.push(Src::Reg(t));
            }
            DOp::ArrStore(_) => {
                let val = Self::spop(cx);
                let idx = Self::spop(cx);
                let arr = Self::spop(cx);
                cx.emit(IrOp::ArrStore { arr, idx, val });
            }
            DOp::ArrLen => {
                let arr = Self::spop(cx);
                let t = cx.temp();
                cx.emit(IrOp::ArrLen { arr, dst: t });
                cx.sym.push(Src::Reg(t));
            }
            DOp::SbNew => {
                let t = cx.temp();
                cx.emit(IrOp::SbNew { dst: t });
                cx.sym.push(Src::Reg(t));
            }
            DOp::TimeMillis => {
                let t = cx.temp();
                cx.emit(IrOp::TimeMillis { dst: t });
                cx.sym.push(Src::Reg(t));
            }
            DOp::Print { newline, has_arg } => {
                let arg = has_arg.then(|| Self::spop(cx));
                cx.emit(IrOp::Print { newline, arg });
            }
            DOp::ProfileEnter(m) => cx.emit(IrOp::ProfileEnter(m)),
            DOp::ProfileExit(m) => cx.emit(IrOp::ProfileExit(m)),
            // ---- bridged stack-machine helpers ----
            DOp::NewObject(cid) => self.bridge(cx, BridgeKind::NewObject(cid), 0, true),
            DOp::NewArray { elem, dims } => {
                self.bridge(cx, BridgeKind::NewArray { elem, dims }, dims as usize, true)
            }
            DOp::ArrayCopy => self.bridge(cx, BridgeKind::ArrayCopy, 5, false),
            DOp::StrConcat => self.bridge(cx, BridgeKind::StrConcat, 2, true),
            DOp::SbAppend => self.bridge(cx, BridgeKind::SbAppend, 2, true),
            DOp::SbToString => self.bridge(cx, BridgeKind::SbToString, 1, true),
            DOp::StrCompareTo => self.bridge(cx, BridgeKind::StrCompareTo, 2, true),
            DOp::StrLength => self.bridge(cx, BridgeKind::StrLength, 1, true),
            DOp::StrCharAt => self.bridge(cx, BridgeKind::StrCharAt, 2, true),
            DOp::StrHash => self.bridge(cx, BridgeKind::StrHash, 1, true),
            DOp::ParseInt => self.bridge(cx, BridgeKind::ParseInt, 1, true),
            DOp::ParseDouble => self.bridge(cx, BridgeKind::ParseDouble, 1, true),
            DOp::MakeExc => self.bridge(cx, BridgeKind::MakeExc, 2, true),
            DOp::ExcMessage => self.bridge(cx, BridgeKind::ExcMessage, 1, true),
            DOp::Box { wrapper, surcharge } => {
                self.bridge(cx, BridgeKind::Box { wrapper, surcharge }, 1, true)
            }
            DOp::Unbox => self.bridge(cx, BridgeKind::Unbox, 1, true),
            // Terminators are handled by `lower_block`; try/catch bails
            // in analysis.
            DOp::Jump(_)
            | DOp::JumpIfFalse(_)
            | DOp::JumpIfTrue(_)
            | DOp::Return
            | DOp::ReturnVoid
            | DOp::Throw
            | DOp::Call { .. }
            | DOp::CallVirtual { .. }
            | DOp::TryEnter { .. }
            | DOp::TryExit => unreachable!("handled elsewhere"),
        }
        Some(())
    }

    /// Emit a bridge op: pop `nargs` operands, optionally bind a result.
    fn bridge(&mut self, cx: &mut BlockCtx, kind: BridgeKind, nargs: usize, has_ret: bool) {
        let mut args = vec![Src::Const(Value::Null); nargs];
        for a in args.iter_mut().rev() {
            *a = Self::spop(cx);
        }
        let dst = has_ret.then(|| cx.temp());
        cx.emit(IrOp::Bridge {
            kind,
            args: args.into_boxed_slice(),
            dst,
        });
        if let Some(t) = dst {
            cx.sym.push(Src::Reg(t));
        }
    }

    /// Try to inline a small straight-line callee at a `Call` site.
    /// On success the callee's ops (including its `Return`) have been
    /// accounted and emitted into the caller's current segment and the
    /// result (if any) pushed symbolically. On failure the context is
    /// rolled back untouched.
    fn try_inline(&mut self, cx: &mut BlockCtx, target: MethodId, argc: u8) -> bool {
        const MAX_INLINE_OPS: usize = 24;
        let callee: &[DInstr] = &self.dp.methods[target as usize];
        if callee.len() > MAX_INLINE_OPS || callee.is_empty() {
            return false;
        }
        let m = &self.program.methods[target as usize];
        let nlocals = m.locals as usize;
        // Snapshot for rollback.
        let saved_sym = cx.sym.clone();
        let saved_code_len = cx.code.len();
        let saved_k = cx.k;
        let saved_charges = cx.charges;
        let saved_temp = cx.next_temp;
        let saved_segs = cx.segs.len();
        let ok = self.expand_inline(cx, callee, nlocals, argc as usize);
        if !ok {
            // Roll back: expansion only touches the current segment.
            debug_assert_eq!(cx.segs.len(), saved_segs, "inline crossed a segment");
            cx.sym = saved_sym;
            cx.code.truncate(saved_code_len);
            cx.k = saved_k;
            cx.charges = saved_charges;
            cx.next_temp = saved_temp;
            return false;
        }
        self.stats.calls_inlined += 1;
        true
    }

    fn expand_inline(
        &mut self,
        cx: &mut BlockCtx,
        callee: &[DInstr],
        nlocals: usize,
        argc: usize,
    ) -> bool {
        // Callee locals start as the caller's argument operands (in
        // stack order), padded with nulls — exactly `invoke_pooled`.
        let d = cx.sym.len();
        if d < argc {
            return false;
        }
        let mut locals: Vec<Src> = vec![Src::Const(Value::Null); nlocals.max(argc)];
        locals[..argc].copy_from_slice(&cx.sym[d - argc..]);
        let mut sym: Vec<Src> = Vec::new();
        let mut result: Option<Option<Src>> = None;
        for instr in callee {
            // The callee op executes on the decoded tier, so account it
            // in the caller's current segment.
            cx.count(instr);
            match instr.op {
                DOp::Const(v) => sym.push(Src::Const(v)),
                DOp::ConstF { value, float32 } => sym.push(Src::Const(if float32 {
                    Value::Float(value as f32)
                } else {
                    Value::Double(value)
                })),
                DOp::LoadLocal(i) => match locals.get(i as usize) {
                    Some(&s) => sym.push(s),
                    None => return false,
                },
                DOp::StoreLocal(i) => {
                    let Some(v) = sym.pop() else { return false };
                    if (i as usize) >= locals.len() {
                        locals.resize(i as usize + 1, Src::Const(Value::Null));
                    }
                    locals[i as usize] = v;
                }
                DOp::Arith(aop, ty) => {
                    let (Some(b), Some(a)) = (sym.pop(), sym.pop()) else {
                        return false;
                    };
                    // Integer division/modulus can throw; only safe when
                    // the divisor is a compile-time non-zero constant.
                    if matches!(aop, ArithOp::Div | ArithOp::Rem)
                        && !matches!(ty, NumTy::F32 | NumTy::F64)
                    {
                        let nonzero = match b {
                            Src::Const(v) => v.as_long().is_some_and(|y| y != 0),
                            _ => false,
                        };
                        if !nonzero {
                            return false;
                        }
                    }
                    let folded = match (a, b) {
                        (Src::Const(x), Src::Const(y)) => fold::arith(aop, ty, x, y),
                        _ => None,
                    };
                    let t = cx.temp();
                    self.pure_to_temp_inline(
                        cx,
                        &mut sym,
                        IrOp::Arith {
                            op: aop,
                            ty,
                            a,
                            b,
                            dst: t,
                        },
                        folded,
                    );
                }
                DOp::Cmp(cop, ty) => {
                    let (Some(b), Some(a)) = (sym.pop(), sym.pop()) else {
                        return false;
                    };
                    let folded = match (a, b) {
                        (Src::Const(x), Src::Const(y)) => fold::cmp(cop, ty, x, y),
                        _ => None,
                    };
                    let t = cx.temp();
                    self.pure_to_temp_inline(
                        cx,
                        &mut sym,
                        IrOp::Cmp {
                            op: cop,
                            ty,
                            a,
                            b,
                            dst: t,
                        },
                        folded,
                    );
                }
                DOp::Neg(ty) => {
                    let Some(a) = sym.pop() else { return false };
                    let folded = match a {
                        Src::Const(x) => fold::neg(ty, x),
                        _ => None,
                    };
                    let t = cx.temp();
                    self.pure_to_temp_inline(cx, &mut sym, IrOp::Neg { ty, a, dst: t }, folded);
                }
                DOp::BitNot(ty) => {
                    let Some(a) = sym.pop() else { return false };
                    let folded = match a {
                        Src::Const(x) => fold::bit_not(ty, x),
                        _ => None,
                    };
                    let t = cx.temp();
                    self.pure_to_temp_inline(cx, &mut sym, IrOp::BitNot { ty, a, dst: t }, folded);
                }
                DOp::Not => {
                    let Some(a) = sym.pop() else { return false };
                    let folded = match a {
                        Src::Const(x) => x.as_bool().map(|b| Value::Bool(!b)),
                        _ => None,
                    };
                    let t = cx.temp();
                    self.pure_to_temp_inline(cx, &mut sym, IrOp::Not { a, dst: t }, folded);
                }
                DOp::Convert(to) => {
                    let Some(a) = sym.pop() else { return false };
                    let folded = match a {
                        Src::Const(x) => fold::convert(to, x),
                        _ => None,
                    };
                    let t = cx.temp();
                    self.pure_to_temp_inline(cx, &mut sym, IrOp::Convert { to, a, dst: t }, folded);
                }
                DOp::Math(f) => {
                    if matches!(f, MathFn::Pow | MathFn::Min | MathFn::Max) {
                        let (Some(b), Some(a)) = (sym.pop(), sym.pop()) else {
                            return false;
                        };
                        let t = cx.temp();
                        self.pure_to_temp_inline(
                            cx,
                            &mut sym,
                            IrOp::Math2 { f, a, b, dst: t },
                            None,
                        );
                    } else {
                        let Some(a) = sym.pop() else { return false };
                        let t = cx.temp();
                        self.pure_to_temp_inline(cx, &mut sym, IrOp::Math1 { f, a, dst: t }, None);
                    }
                }
                DOp::Dup => {
                    let Some(&top) = sym.last() else { return false };
                    sym.push(top);
                }
                DOp::Pop => {
                    if sym.pop().is_none() {
                        return false;
                    }
                }
                DOp::Swap => {
                    let n = sym.len();
                    if n < 2 {
                        return false;
                    }
                    sym.swap(n - 1, n - 2);
                }
                DOp::TernaryJoin | DOp::Nop => {}
                DOp::Return => {
                    let Some(v) = sym.pop() else { return false };
                    result = Some(Some(v));
                    break;
                }
                DOp::ReturnVoid => {
                    result = Some(None);
                    break;
                }
                // Anything with control flow, heap access, observers, or
                // throw potential keeps the call a real call.
                _ => return false,
            }
        }
        let Some(ret) = result else { return false };
        // Commit: drop the argument operands, push the result.
        let keep = cx.sym.len() - argc;
        cx.sym.truncate(keep);
        if let Some(v) = ret {
            cx.sym.push(v);
        }
        true
    }

    /// [`Lowerer::pure_to_temp`] against the inline expansion's private
    /// symbolic stack.
    fn pure_to_temp_inline(
        &mut self,
        cx: &mut BlockCtx,
        sym: &mut Vec<Src>,
        op: IrOp,
        folded: Option<Value>,
    ) {
        if let Some(v) = folded {
            self.stats.consts_folded += 1;
            // The temp was reserved speculatively; harmless to leak.
            sym.push(Src::Const(v));
        } else {
            let t = match &op {
                IrOp::Arith { dst, .. }
                | IrOp::Cmp { dst, .. }
                | IrOp::Neg { dst, .. }
                | IrOp::BitNot { dst, .. }
                | IrOp::Not { dst, .. }
                | IrOp::Convert { dst, .. }
                | IrOp::Math1 { dst, .. }
                | IrOp::Math2 { dst, .. } => *dst,
                _ => unreachable!(),
            };
            cx.emit(op);
            sym.push(Src::Reg(t));
        }
    }
}

/// Highest register index used by a block, plus one.
fn block_max_reg(b: &Block) -> u16 {
    fn src_hi(s: &Src) -> u16 {
        match s {
            Src::Reg(r) => r + 1,
            Src::Const(_) => 0,
        }
    }
    let mut hi: u16 = 0;
    for seg in &b.segs {
        for op in &seg.code {
            let (srcs, dst) = op_operands(op);
            for s in srcs {
                hi = hi.max(src_hi(&s));
            }
            if let Some(d) = dst {
                hi = hi.max(d + 1);
            }
        }
    }
    match &b.term {
        Term::Branch { cond, .. } => hi = hi.max(src_hi(cond)),
        Term::Ret(Some(s)) | Term::Throw(s) => hi = hi.max(src_hi(s)),
        _ => {}
    }
    hi
}

/// `(source operands, destination register)` of an IR op — shared by
/// the register-bound computation and the DCE pass.
pub(crate) fn op_operands(op: &IrOp) -> (Vec<Src>, Option<u16>) {
    match op {
        IrOp::Mov { dst, src } => (vec![*src], Some(*dst)),
        IrOp::Arith { a, b, dst, .. }
        | IrOp::Cmp { a, b, dst, .. }
        | IrOp::RefCmp { a, b, dst, .. }
        | IrOp::Math2 { a, b, dst, .. }
        | IrOp::StrEquals { a, b, dst } => (vec![*a, *b], Some(*dst)),
        IrOp::Neg { a, dst, .. }
        | IrOp::BitNot { a, dst, .. }
        | IrOp::Not { a, dst }
        | IrOp::Convert { a, dst, .. }
        | IrOp::Math1 { a, dst, .. }
        | IrOp::InstanceOf { a, dst, .. } => (vec![*a], Some(*dst)),
        IrOp::GetStatic { dst, .. }
        | IrOp::ConstStr { dst, .. }
        | IrOp::SbNew { dst }
        | IrOp::TimeMillis { dst } => (Vec::new(), Some(*dst)),
        IrOp::PutStatic { src, .. } => (vec![*src], None),
        IrOp::GetField { obj, dst, .. } => (vec![*obj], Some(*dst)),
        IrOp::PutField { obj, val, .. } => (vec![*obj, *val], None),
        IrOp::ArrLoad { arr, idx, dst } => (vec![*arr, *idx], Some(*dst)),
        IrOp::ArrStore { arr, idx, val } => (vec![*arr, *idx, *val], None),
        IrOp::ArrLen { arr, dst } => (vec![*arr], Some(*dst)),
        IrOp::Print { arg, .. } => (arg.iter().copied().collect(), None),
        IrOp::ProfileEnter(_) | IrOp::ProfileExit(_) => (Vec::new(), None),
        IrOp::Bridge { args, dst, .. } => (args.to_vec(), *dst),
    }
}

// ---- constant folding ----------------------------------------------------

/// Lowering-time constant evaluation. Every function mirrors the
/// corresponding `Interp` value core but returns `None` instead of
/// erring/throwing — folding only happens when the runtime op would
/// provably produce the same value.
mod fold {
    use super::*;
    use crate::interp::cmp_apply;

    pub fn arith(op: ArithOp, ty: NumTy, a: Value, b: Value) -> Option<Value> {
        Some(match ty {
            NumTy::F64 => {
                let (x, y) = (a.as_double()?, b.as_double()?);
                Value::Double(match op {
                    ArithOp::Add => x + y,
                    ArithOp::Sub => x - y,
                    ArithOp::Mul => x * y,
                    ArithOp::Div => x / y,
                    ArithOp::Rem => x % y,
                    _ => return None,
                })
            }
            NumTy::F32 => {
                let (x, y) = (a.as_float()?, b.as_float()?);
                Value::Float(match op {
                    ArithOp::Add => x + y,
                    ArithOp::Sub => x - y,
                    ArithOp::Mul => x * y,
                    ArithOp::Div => x / y,
                    ArithOp::Rem => x % y,
                    _ => return None,
                })
            }
            NumTy::I64 => {
                let (x, y) = (a.as_long()?, b.as_long()?);
                if matches!(op, ArithOp::Div | ArithOp::Rem) && y == 0 {
                    return None; // must throw at runtime
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
                let (x, y) = (a.as_int()?, b.as_int()?);
                if matches!(op, ArithOp::Div | ArithOp::Rem) && y == 0 {
                    return None;
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
        })
    }

    pub fn cmp(op: CmpOp, ty: NumTy, a: Value, b: Value) -> Option<Value> {
        let res = match ty {
            NumTy::F32 | NumTy::F64 => {
                let (x, y) = (a.as_double()?, b.as_double()?);
                cmp_apply(op, x.partial_cmp(&y))
            }
            NumTy::I64 => {
                let (x, y) = (a.as_long()?, b.as_long()?);
                cmp_apply(op, Some(x.cmp(&y)))
            }
            _ => {
                let (x, y) = (a.as_int()?, b.as_int()?);
                cmp_apply(op, Some(x.cmp(&y)))
            }
        };
        Some(Value::Bool(res))
    }

    pub fn ref_cmp(op: CmpOp, a: Src, b: Src) -> Option<Value> {
        // Only null/null folds at compile time (heap refs are runtime).
        match (a, b) {
            (Src::Const(Value::Null), Src::Const(Value::Null)) => {
                Some(Value::Bool(op == CmpOp::Eq))
            }
            _ => None,
        }
    }

    pub fn neg(ty: NumTy, v: Value) -> Option<Value> {
        Some(match ty {
            NumTy::F64 => Value::Double(-v.as_double()?),
            NumTy::F32 => Value::Float(-v.as_float()?),
            NumTy::I64 => Value::Long(v.as_long()?.wrapping_neg()),
            _ => Value::Int(v.as_int()?.wrapping_neg()),
        })
    }

    pub fn bit_not(ty: NumTy, v: Value) -> Option<Value> {
        Some(match ty {
            NumTy::I64 => Value::Long(!v.as_long()?),
            _ => Value::Int(!v.as_int()?),
        })
    }

    pub fn convert(to: NumTy, v: Value) -> Option<Value> {
        let d = v.as_double()?;
        Some(match to {
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
}
