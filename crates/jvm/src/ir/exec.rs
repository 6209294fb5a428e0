//! Register-IR execution loop.
//!
//! [`Interp::execute_ir`] runs compiled methods block-by-block: each
//! segment performs one bulk fuel check and one bulk energy charge,
//! then its (optimized) register ops. The frame stack is the *same*
//! `Vec<Frame>` the decoded tier uses — an IR frame simply treats
//! `locals` as a register file (`[0, canon)` are the decoded locals,
//! `[canon, canon+max_stack)` mirror the operand stack at block
//! boundaries, temporaries live above). Every suspended frame is kept
//! decoded-valid (stack materialized from the canonical registers,
//! `pc` at the resume point), so deoptimization is a single tail-call
//! into [`Interp::execute_decoded`] at any call, throw, or bridged-op
//! unwind.

use super::{BridgeKind, IrOp, IrProgram, MonoSite, Src, Term};
use crate::class::MethodId;
use crate::decode::{DecodedProgram, InlineCache};
use crate::error::VmError;
use crate::heap::HeapObj;
use crate::interp::{ArithOutcome, Frame, Interp};
use crate::opcode::{CmpOp, NumTy};
use crate::value::Value;

/// Outcome of one IR op: continue in IR, or abandon the IR view
/// because control transferred somewhere the IR cannot model (an
/// exception handler, a non-compiled callee).
enum Flow {
    Next,
    Deopt,
}

/// One *suspended* IR activation, parallel to a `Frame` above
/// `base_depth`. The running activation lives in `execute_ir`'s locals
/// (`m`, `bid`) — an entry is pushed here only at a call and popped at
/// the matching return.
struct Act<'p> {
    m: &'p super::IrMethod,
    /// Continuation block to resume at after the callee returns.
    block: super::BlockId,
    /// Register that receives the callee's return value, if the call
    /// site produces one.
    ret_reg: Option<u16>,
}

#[inline(always)]
fn rd(frame: &Frame, s: Src) -> Value {
    match s {
        Src::Reg(r) => frame.locals[r as usize],
        Src::Const(v) => v,
    }
}

impl<'p> Interp<'p> {
    /// Run the frame pushed by `run_method` through the IR tier until
    /// the frame stack returns to `base_depth`. Falls back to (and
    /// deoptimizes onto) [`Interp::execute_decoded`]; all observables
    /// stay bit-identical to it.
    pub(crate) fn execute_ir(
        &mut self,
        base_depth: usize,
        dp: &'p DecodedProgram,
        irp: &'p IrProgram,
    ) -> Result<Option<Value>, VmError> {
        let mid = self.frames.last().expect("entry frame").method;
        let Some(m0) = self.enter_ir_frame(irp, mid) else {
            return self.execute_decoded(base_depth, dp);
        };
        let mut acts: Vec<Act<'p>> = Vec::with_capacity(16);
        let mut m = m0;
        let mut bid = m0.entry;
        let mut fi = self.frames.len() - 1;
        loop {
            // Sampling safepoint: block boundaries are where IR segments
            // already cut, and every suspended frame is decoded-valid,
            // so the stack snapshot is coherent here.
            if self.ops_executed >= self.sample_check_at {
                self.sample_safepoint();
            }
            let block = &m.blocks[bid as usize];
            for seg in &block.segs {
                if seg.k > 0 {
                    if self.ops_executed + seg.k > self.fuel {
                        return Err(VmError::OutOfFuel);
                    }
                    self.ops_executed += seg.k;
                    for &(cat, n) in seg.charges.iter() {
                        self.board.bump_n(cat, n);
                    }
                }
                for op in &seg.code {
                    match self.exec_op(dp, fi, op)? {
                        Flow::Next => {}
                        Flow::Deopt => return self.execute_decoded(base_depth, dp),
                    }
                }
            }
            match &block.term {
                Term::Jump(t) => bid = *t,
                Term::Branch {
                    cond,
                    on_true,
                    on_false,
                } => {
                    let v = rd(&self.frames[fi], *cond);
                    let b = match v {
                        Value::Bool(b) => b,
                        v => v
                            .as_bool()
                            .ok_or_else(|| self.rt_err(format!("expected boolean, got {v:?}")))?,
                    };
                    bid = if b { *on_true } else { *on_false };
                }
                Term::Ret(src) => {
                    let v = src.map(|s| rd(&self.frames[fi], s));
                    if let Some(f) = self.frames.pop() {
                        self.recycle_frame(f);
                    }
                    if self.frames.len() == base_depth {
                        return Ok(v);
                    }
                    let caller = acts.pop().expect("caller act");
                    if let (Some(rr), Some(v)) = (caller.ret_reg, v) {
                        self.frames[fi - 1].locals[rr as usize] = v;
                    }
                    m = caller.m;
                    bid = caller.block;
                    fi -= 1;
                }
                Term::Throw(src) => {
                    // The current IR frame is never a handler frame
                    // (methods with try/catch are not compiled), so a
                    // caught throw resumes in a decoded-valid frame
                    // below: unwind, then deoptimize.
                    match rd(&self.frames[fi], *src) {
                        Value::Obj(r) => self.unwind(r)?,
                        _ => self.throw_vm("NullPointerException", "throw null")?,
                    }
                    return self.execute_decoded(base_depth, dp);
                }
                Term::Trap => {
                    // Mirrors the decoded loop head at `pc == code.len()`:
                    // the fuel check fires first.
                    return Err(if self.ops_executed >= self.fuel {
                        VmError::OutOfFuel
                    } else {
                        self.rt_err("fell off end of bytecode")
                    });
                }
                Term::Call {
                    target,
                    abase,
                    argc,
                    has_ret,
                    cont,
                    resume_pc,
                    below,
                } => {
                    match irp.methods[*target as usize].as_ref() {
                        Some(mc) => {
                            // IR→IR fast path: the suspended caller only
                            // needs the *below* values on its stack (the
                            // decoded call op has already consumed the
                            // arguments at the resume point); arguments
                            // move register-to-register.
                            self.materialize(fi, m.canon, *below as usize, *resume_pc);
                            self.invoke_ir(mc, *target, fi, *abase, *argc as usize);
                            acts.push(Act {
                                m,
                                block: *cont,
                                ret_reg: has_ret.then_some(*abase),
                            });
                            m = mc;
                            bid = mc.entry;
                            fi += 1;
                        }
                        None => {
                            // Non-IR callee: build the full decoded call
                            // state (args on the caller stack, popped by
                            // `invoke_pooled`) and leave the IR world.
                            self.materialize(
                                fi,
                                m.canon,
                                *below as usize + *argc as usize,
                                *resume_pc,
                            );
                            self.invoke_pooled(*target, *argc as usize)?;
                            return self.execute_decoded(base_depth, dp);
                        }
                    }
                }
                Term::CallVirtual {
                    name,
                    site,
                    abase,
                    argc,
                    has_ret,
                    cont,
                    resume_pc,
                    below,
                    mono,
                    variants,
                } => {
                    let argc = *argc as usize;
                    let recv = self.frames[fi].locals[*abase as usize];
                    let object_class = match recv {
                        Value::Obj(r) => match self.heap.get(r) {
                            HeapObj::Object { class, .. } => Some(*class),
                            _ => None,
                        },
                        _ => None,
                    };
                    if let Some(class) = object_class {
                        let mid = self.resolve_ic(dp, *site, class, *name, argc, mono)?;
                        // Guarded inline variant: the probe picked the
                        // target, so execute its inlined copy in this
                        // frame — no materialization, no frame push.
                        if let Some(&(_, vb)) = variants.iter().find(|&&(t, _)| t == mid) {
                            bid = vb;
                            continue;
                        }
                        match irp.methods[mid as usize].as_ref() {
                            Some(mc) => {
                                // IR→IR fast path: receiver + args are
                                // contiguous at `abase`, moved register
                                // to register.
                                self.materialize(fi, m.canon, *below as usize, *resume_pc);
                                self.invoke_ir(mc, mid, fi, *abase, argc + 1);
                                acts.push(Act {
                                    m,
                                    block: *cont,
                                    ret_reg: has_ret.then_some(*abase),
                                });
                                m = mc;
                                bid = mc.entry;
                                fi += 1;
                            }
                            None => {
                                self.materialize(
                                    fi,
                                    m.canon,
                                    *below as usize + 1 + argc,
                                    *resume_pc,
                                );
                                self.invoke_pooled(mid, argc + 1)?;
                                return self.execute_decoded(base_depth, dp);
                            }
                        }
                    } else {
                        // String/exception intrinsics, null receivers,
                        // primitives: the legacy helper over the fully
                        // materialized stack.
                        self.materialize(fi, m.canon, *below as usize + 1 + argc, *resume_pc);
                        let unwound = self.unwound;
                        let depth = self.frames.len();
                        self.call_virtual(dp.interner.get(*name), argc)?;
                        if self.unwound != unwound || self.frames.len() != depth || !*has_ret {
                            return self.execute_decoded(base_depth, dp);
                        }
                        let v = self.pop()?;
                        self.frames[fi].locals[*abase as usize] = v;
                        bid = *cont;
                    }
                }
            }
        }
    }

    /// Prepare the just-pushed top frame for IR execution: the method
    /// must be compiled and the frame's locals must fit under the
    /// canonical base (a wider frame would alias argument slots into
    /// the canonical stack area). Grows the register file to `nregs`.
    fn enter_ir_frame(&mut self, irp: &'p IrProgram, mid: MethodId) -> Option<&'p super::IrMethod> {
        let m = irp.methods.get(mid as usize)?.as_ref()?;
        let f = self.frames.last_mut().expect("frame");
        if f.locals.len() > m.canon as usize {
            return None;
        }
        f.locals.resize(m.nregs as usize, Value::Null);
        Some(m)
    }

    /// Push a pooled frame for an IR→IR call, moving `nargs` argument
    /// values register-to-register — caller registers `[abase,
    /// abase+nargs)` become callee locals `[0, nargs)` — with no
    /// operand-stack round trip. The register file is sized to `nregs`
    /// up front (subsuming [`Interp::invoke_pooled`]'s `max(locals,
    /// nargs)` and `enter_ir_frame`'s grow).
    fn invoke_ir(
        &mut self,
        mc: &super::IrMethod,
        mid: MethodId,
        fi: usize,
        abase: u16,
        nargs: usize,
    ) {
        debug_assert!(
            nargs <= mc.canon as usize,
            "args would alias canonical stack"
        );
        let mut f = self.pool.pop().unwrap_or_else(|| Frame {
            method: mid,
            pc: 0,
            locals: Vec::new(),
            stack: Vec::new(),
        });
        f.method = mid;
        f.pc = 0;
        f.locals.clear();
        let caller = &self.frames[fi];
        f.locals
            .extend_from_slice(&caller.locals[abase as usize..abase as usize + nargs]);
        f.locals.resize(mc.nregs as usize, Value::Null);
        self.frames.push(f);
    }

    /// Rebuild the real operand stack from the canonical registers and
    /// park `pc` at the resume point, making the frame decoded-valid
    /// while suspended (or as a deoptimization entry state).
    fn materialize(&mut self, fi: usize, canon: u16, depth: usize, resume_pc: u32) {
        let f = &mut self.frames[fi];
        f.pc = resume_pc as usize;
        let Frame { locals, stack, .. } = f;
        stack.clear();
        stack.extend_from_slice(&locals[canon as usize..canon as usize + depth]);
    }

    /// The decoded tier's inline-cache protocol, with CHA-devirtualized
    /// sites answering misses from the precomputed `class_ok` table
    /// instead of a hierarchy walk. Hit/miss counts and cache state
    /// stay bit-identical to [`Interp::call_virtual_decoded`].
    fn resolve_ic(
        &mut self,
        dp: &'p DecodedProgram,
        site: u32,
        class: u32,
        name: crate::decode::Sym,
        argc: usize,
        mono: &Option<MonoSite>,
    ) -> Result<MethodId, VmError> {
        if self.ics[site as usize].key == class {
            self.ic_hits += 1;
            return Ok(self.ics[site as usize].val);
        }
        self.ic_misses += 1;
        let mid = match mono {
            Some(ms) if ms.class_ok.get(class as usize).copied().unwrap_or(false) => ms.target,
            Some(_) => {
                let name_str = dp.interner.get(name);
                return Err(self.rt_err(format!("unresolved virtual `{name_str}/{argc}`")));
            }
            None => {
                let name_str = dp.interner.get(name);
                self.program
                    .resolve_method(class, name_str, argc as u8)
                    .ok_or_else(|| self.rt_err(format!("unresolved virtual `{name_str}/{argc}`")))?
            }
        };
        self.ics[site as usize] = InlineCache {
            key: class,
            val: mid,
        };
        Ok(mid)
    }

    /// Execute one straight-line IR op against frame `fi` (always the
    /// top frame). Returns [`Flow::Deopt`] when a VM exception was
    /// caught by a handler below (the frame stack already points at
    /// it).
    #[allow(clippy::too_many_lines)]
    fn exec_op(&mut self, dp: &'p DecodedProgram, fi: usize, op: &IrOp) -> Result<Flow, VmError> {
        match op {
            IrOp::Mov { dst, src } => {
                let v = rd(&self.frames[fi], *src);
                self.frames[fi].locals[*dst as usize] = v;
            }
            IrOp::Arith { op, ty, a, b, dst } => {
                let (av, bv) = {
                    let f = &self.frames[fi];
                    (rd(f, *a), rd(f, *b))
                };
                // Int-lane fast path (the hot case by far): identical
                // wrapping/shift-mask/div-by-zero semantics to
                // `arith_value`, minus its promotion dispatch.
                if let (Value::Int(x), Value::Int(y)) = (av, bv) {
                    if !matches!(ty, NumTy::F32 | NumTy::F64 | NumTy::I64) {
                        use crate::opcode::ArithOp as A;
                        if matches!(op, A::Div | A::Rem) && y == 0 {
                            self.throw_vm("ArithmeticException", "/ by zero")?;
                            return Ok(Flow::Deopt);
                        }
                        let v = match op {
                            A::Add => x.wrapping_add(y),
                            A::Sub => x.wrapping_sub(y),
                            A::Mul => x.wrapping_mul(y),
                            A::Div => x.wrapping_div(y),
                            A::Rem => x.wrapping_rem(y),
                            A::Shl => x.wrapping_shl(y as u32 & 31),
                            A::Shr => x.wrapping_shr(y as u32 & 31),
                            A::UShr => ((x as u32) >> (y as u32 & 31)) as i32,
                            A::And => x & y,
                            A::Or => x | y,
                            A::Xor => x ^ y,
                        };
                        self.frames[fi].locals[*dst as usize] = Value::Int(v);
                        return Ok(Flow::Next);
                    }
                }
                // Long-lane fast path: `arith_value`'s I64 arm without
                // the `as_long` promotion detour (mixed Int operands
                // fall through to the generic path, which promotes).
                if let (Value::Long(x), Value::Long(y)) = (av, bv) {
                    if matches!(ty, NumTy::I64) {
                        use crate::opcode::ArithOp as A;
                        if matches!(op, A::Div | A::Rem) && y == 0 {
                            self.throw_vm("ArithmeticException", "/ by zero")?;
                            return Ok(Flow::Deopt);
                        }
                        let v = match op {
                            A::Add => x.wrapping_add(y),
                            A::Sub => x.wrapping_sub(y),
                            A::Mul => x.wrapping_mul(y),
                            A::Div => x.wrapping_div(y),
                            A::Rem => x.wrapping_rem(y),
                            A::Shl => x.wrapping_shl(y as u32 & 63),
                            A::Shr => x.wrapping_shr(y as u32 & 63),
                            A::UShr => ((x as u64) >> (y as u32 & 63)) as i64,
                            A::And => x & y,
                            A::Or => x | y,
                            A::Xor => x ^ y,
                        };
                        self.frames[fi].locals[*dst as usize] = Value::Long(v);
                        return Ok(Flow::Next);
                    }
                }
                match self.arith_value(*op, *ty, av, bv)? {
                    ArithOutcome::Value(v) => self.frames[fi].locals[*dst as usize] = v,
                    ArithOutcome::DivByZero => {
                        self.throw_vm("ArithmeticException", "/ by zero")?;
                        return Ok(Flow::Deopt);
                    }
                }
            }
            IrOp::Cmp { op, ty, a, b, dst } => {
                let (av, bv) = {
                    let f = &self.frames[fi];
                    (rd(f, *a), rd(f, *b))
                };
                // Same fast path as `Arith`: direct int comparison.
                let res = if let (Value::Int(x), Value::Int(y)) = (av, bv) {
                    if !matches!(ty, NumTy::F32 | NumTy::F64 | NumTy::I64) {
                        match op {
                            CmpOp::Eq => x == y,
                            CmpOp::Ne => x != y,
                            CmpOp::Lt => x < y,
                            CmpOp::Le => x <= y,
                            CmpOp::Gt => x > y,
                            CmpOp::Ge => x >= y,
                        }
                    } else {
                        self.compare_value(*op, *ty, av, bv)?
                    }
                } else {
                    self.compare_value(*op, *ty, av, bv)?
                };
                self.frames[fi].locals[*dst as usize] = Value::Bool(res);
            }
            IrOp::RefCmp { op, a, b, dst } => {
                let f = &mut self.frames[fi];
                let (av, bv) = (rd(f, *a), rd(f, *b));
                let eq = match (av, bv) {
                    (Value::Null, Value::Null) => true,
                    (Value::Obj(x), Value::Obj(y)) => x == y,
                    _ => false,
                };
                f.locals[*dst as usize] = Value::Bool(if *op == CmpOp::Eq { eq } else { !eq });
            }
            IrOp::Neg { ty, a, dst } => {
                let av = rd(&self.frames[fi], *a);
                let v = self.neg_value(av, *ty)?;
                self.frames[fi].locals[*dst as usize] = v;
            }
            IrOp::BitNot { ty, a, dst } => {
                let av = rd(&self.frames[fi], *a);
                let v = match ty {
                    NumTy::I64 => {
                        Value::Long(!av.as_long().ok_or_else(|| self.rt_err("~ on non-long"))?)
                    }
                    _ => Value::Int(!av.as_int().ok_or_else(|| self.rt_err("~ on non-int"))?),
                };
                self.frames[fi].locals[*dst as usize] = v;
            }
            IrOp::Not { a, dst } => {
                let av = rd(&self.frames[fi], *a);
                let b = av
                    .as_bool()
                    .ok_or_else(|| self.rt_err(format!("expected boolean, got {av:?}")))?;
                self.frames[fi].locals[*dst as usize] = Value::Bool(!b);
            }
            IrOp::Convert { to, a, dst } => {
                let av = rd(&self.frames[fi], *a);
                let v = self.convert_value(av, *to)?;
                self.frames[fi].locals[*dst as usize] = v;
            }
            IrOp::Math1 { f, a, dst } => {
                let av = rd(&self.frames[fi], *a);
                let v = self.math1_value(*f, av)?;
                self.frames[fi].locals[*dst as usize] = v;
            }
            IrOp::Math2 { f, a, b, dst } => {
                let (av, bv) = {
                    let fr = &self.frames[fi];
                    (rd(fr, *a), rd(fr, *b))
                };
                let v = self.math2_value(*f, av, bv)?;
                self.frames[fi].locals[*dst as usize] = v;
            }
            IrOp::GetStatic { slot, dst } => {
                self.frames[fi].locals[*dst as usize] = self.statics[*slot as usize];
            }
            IrOp::PutStatic { slot, src } => {
                let v = rd(&self.frames[fi], *src);
                self.statics[*slot as usize] = v;
            }
            IrOp::GetField { slot, obj, dst } => {
                let ov = rd(&self.frames[fi], *obj);
                let r = self.as_ref_checked(ov, "field access on null")?;
                let got = match self.heap.get(r) {
                    HeapObj::Object {
                        fields, base_addr, ..
                    } => Some((fields[*slot as usize], *base_addr + *slot as u64 * 8)),
                    _ => None,
                };
                match got {
                    Some((v, addr)) => {
                        self.cache_access(addr);
                        self.frames[fi].locals[*dst as usize] = v;
                    }
                    None => {
                        self.throw_vm("NullPointerException", "not an object")?;
                        return Ok(Flow::Deopt);
                    }
                }
            }
            IrOp::PutField { slot, obj, val } => {
                let (ov, v) = {
                    let f = &self.frames[fi];
                    (rd(f, *obj), rd(f, *val))
                };
                let r = self.as_ref_checked(ov, "field store on null")?;
                let ok = match self.heap.get_mut(r) {
                    HeapObj::Object { fields, .. } => {
                        fields[*slot as usize] = v;
                        true
                    }
                    _ => false,
                };
                if !ok {
                    self.throw_vm("NullPointerException", "not an object")?;
                    return Ok(Flow::Deopt);
                }
            }
            IrOp::ArrLoad { arr, idx, dst } => {
                let (av, iv) = {
                    let f = &self.frames[fi];
                    (rd(f, *arr), rd(f, *idx))
                };
                let idx = iv.as_int().ok_or_else(|| self.rt_err("index not int"))?;
                let r = self.as_ref_checked(av, "array load on null")?;
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
                        self.frames[fi].locals[*dst as usize] = v;
                    }
                    Err((class, msg)) => {
                        self.throw_vm(&class, &msg)?;
                        return Ok(Flow::Deopt);
                    }
                }
            }
            IrOp::ArrStore { arr, idx, val } => {
                let (av, iv, vv) = {
                    let f = &self.frames[fi];
                    (rd(f, *arr), rd(f, *idx), rd(f, *val))
                };
                let idx = iv.as_int().ok_or_else(|| self.rt_err("index not int"))?;
                let r = self.as_ref_checked(av, "array store on null")?;
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
                            data[idx as usize] = vv;
                            Ok(*base_addr + idx as u64 * *elem_size as u64)
                        }
                    }
                    _ => Err(("NullPointerException".into(), "not an array".into())),
                };
                match stored {
                    Ok(addr) => self.cache_access(addr),
                    Err((class, msg)) => {
                        self.throw_vm(&class, &msg)?;
                        return Ok(Flow::Deopt);
                    }
                }
            }
            IrOp::ArrLen { arr, dst } => {
                let av = rd(&self.frames[fi], *arr);
                let r = self.as_ref_checked(av, "length of null")?;
                let n: Option<i32> = match self.heap.get(r) {
                    HeapObj::Array { data, .. } => Some(data.len() as i32),
                    HeapObj::Str(s) => Some(s.chars().count() as i32),
                    _ => None,
                };
                match n {
                    Some(n) => self.frames[fi].locals[*dst as usize] = Value::Int(n),
                    None => {
                        self.throw_vm("NullPointerException", "not an array")?;
                        return Ok(Flow::Deopt);
                    }
                }
            }
            IrOp::ConstStr { sym, dst } => {
                let r = self
                    .heap
                    .alloc(HeapObj::Str(dp.interner.get(*sym).to_string()));
                self.frames[fi].locals[*dst as usize] = Value::Obj(r);
            }
            IrOp::SbNew { dst } => {
                let r = self.heap.alloc(HeapObj::Builder(String::new()));
                self.frames[fi].locals[*dst as usize] = Value::Obj(r);
            }
            IrOp::StrEquals { a, b, dst } => {
                let (av, bv) = {
                    let f = &self.frames[fi];
                    (rd(f, *a), rd(f, *b))
                };
                let eq = match (self.try_str(&av), self.try_str(&bv)) {
                    (Some(x), Some(y)) => x == y,
                    _ => false,
                };
                self.frames[fi].locals[*dst as usize] = Value::Bool(eq);
            }
            IrOp::InstanceOf { site, chk, a, dst } => {
                let av = rd(&self.frames[fi], *a);
                let is = match av {
                    Value::Obj(r) => {
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
                                if self.ics[*site as usize].key == cls {
                                    self.ic_hits += 1;
                                    self.ics[*site as usize].val != 0
                                } else {
                                    self.ic_misses += 1;
                                    let b = if chk.target == crate::decode::NO_CLASS {
                                        chk.is_object
                                    } else {
                                        self.program.is_subclass(cls, chk.target)
                                    };
                                    self.ics[*site as usize] = InlineCache {
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
                self.frames[fi].locals[*dst as usize] = Value::Bool(is);
            }
            IrOp::TimeMillis { dst } => {
                let (_, _, s) = self.energy_now();
                self.frames[fi].locals[*dst as usize] = Value::Long((s * 1000.0) as i64);
            }
            IrOp::Print { newline, arg } => {
                if let Some(a) = arg {
                    let v = rd(&self.frames[fi], *a);
                    let Interp { heap, stdout, .. } = self;
                    heap.render_to(&v, stdout);
                }
                if *newline {
                    self.stdout.push('\n');
                }
            }
            IrOp::ProfileEnter(m) => self.op_profile_enter(*m),
            IrOp::ProfileExit(m) => self.record_profile_exit(*m),
            IrOp::Bridge { kind, args, dst } => {
                // Route through the shared stack-machine op body: push
                // the operands, run the single source of truth for the
                // op's semantics (allocation order, throws, dynamic
                // charges), pop the result. An unwind into a handler
                // frame below means the IR view is stale → deopt.
                for &a in args.iter() {
                    let v = rd(&self.frames[fi], a);
                    self.frames[fi].stack.push(v);
                }
                let unwound = self.unwound;
                match kind {
                    BridgeKind::NewObject(cid) => self.op_new_object(*cid),
                    BridgeKind::NewArray { elem, dims } => self.op_new_array(*elem, *dims)?,
                    BridgeKind::ArrayCopy => self.arraycopy()?,
                    BridgeKind::StrConcat => self.op_str_concat()?,
                    BridgeKind::SbAppend => self.op_sb_append()?,
                    BridgeKind::SbToString => self.op_sb_to_string()?,
                    BridgeKind::StrCompareTo => self.op_str_compare()?,
                    BridgeKind::StrLength => self.op_str_length()?,
                    BridgeKind::StrCharAt => self.op_str_char_at()?,
                    BridgeKind::StrHash => self.op_str_hash()?,
                    BridgeKind::ParseInt => self.op_parse_int()?,
                    BridgeKind::ParseDouble => self.op_parse_double()?,
                    BridgeKind::MakeExc => self.op_make_exc()?,
                    BridgeKind::ExcMessage => self.op_exc_message()?,
                    BridgeKind::Box { wrapper, surcharge } => self.op_box(wrapper, *surcharge)?,
                    BridgeKind::Unbox => self.op_unbox()?,
                }
                if self.unwound != unwound {
                    return Ok(Flow::Deopt);
                }
                if let Some(d) = dst {
                    let v = self.pop()?;
                    self.frames[fi].locals[*d as usize] = v;
                }
            }
        }
        Ok(Flow::Next)
    }

    /// Register-direct form of the interpreter's `pop_ref`: same error
    /// strings, no stack traffic.
    #[inline]
    fn as_ref_checked(&self, v: Value, ctx: &str) -> Result<crate::value::Ref, VmError> {
        match v {
            Value::Obj(r) => Ok(r),
            Value::Null => Err(self.rt_err(format!("NullPointerException: {ctx}"))),
            v => Err(self.rt_err(format!("expected reference, got {v:?}"))),
        }
    }
}
