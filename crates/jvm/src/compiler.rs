//! Compiler: Java-subset AST → bytecode.
//!
//! A deliberately small two-pass compiler: pass 1 lays out classes,
//! fields, statics and method signatures; pass 2 compiles bodies with a
//! local type checker implementing Java's binary numeric promotion,
//! `String +` detection, auto-boxing/unboxing against wrapper-typed
//! targets, and overload resolution by arity.

use crate::class::{Class, ClassId, Method, MethodId, Program, StaticField};
use crate::opcode::{ArithOp, ArrayElem, CmpOp, MathFn, NumTy, Op};
use crate::value::Value;
use crate::VmError;
use jepo_jlang::{
    AssignOp, BinOp, Block, ClassDecl, Expr, ExprKind, JavaProject, Lit, MethodDecl, PrimType,
    Stmt, StmtKind, Type, UnaryOp,
};
use std::collections::HashMap;

/// Compile a whole project.
pub fn compile_project(project: &JavaProject) -> Result<Program, VmError> {
    let classes: Vec<&ClassDecl> = project
        .files()
        .iter()
        .flat_map(|f| f.unit.types.iter())
        .collect();
    compile_classes(&classes)
}

/// Compile a single source string (convenience for tests/examples).
pub fn compile_source(src: &str) -> Result<Program, VmError> {
    let unit = jepo_jlang::parse_unit(src)?;
    let classes: Vec<&ClassDecl> = unit.types.iter().collect();
    compile_classes(&classes)
}

/// Compile-time types.
#[derive(Debug, Clone, PartialEq)]
enum CType {
    Prim(NumTy),
    Str,
    Builder,
    Boxed(&'static str),
    Class(ClassId),
    Array(Box<CType>),
    /// The null literal / unknown-class references (e.g. exceptions).
    RefAny,
    Void,
}

impl CType {
    fn from_ast(ty: &Type, names: &HashMap<String, ClassId>) -> CType {
        match ty {
            Type::Prim(p) => CType::Prim(prim_numty(*p)),
            Type::Void => CType::Void,
            Type::Array(inner, dims) => {
                let mut t = CType::from_ast(inner, names);
                for _ in 0..*dims {
                    t = CType::Array(Box::new(t));
                }
                t
            }
            Type::Class(name, _) => {
                let simple = name.rsplit('.').next().unwrap_or(name);
                match simple {
                    "String" => CType::Str,
                    "StringBuilder" | "StringBuffer" => CType::Builder,
                    "Integer" => CType::Boxed("Integer"),
                    "Long" => CType::Boxed("Long"),
                    "Double" => CType::Boxed("Double"),
                    "Float" => CType::Boxed("Float"),
                    "Short" => CType::Boxed("Short"),
                    "Byte" => CType::Boxed("Byte"),
                    "Character" => CType::Boxed("Character"),
                    "Boolean" => CType::Boxed("Boolean"),
                    _ => match names.get(simple) {
                        Some(&id) => CType::Class(id),
                        None => CType::RefAny, // external classes (Exception…)
                    },
                }
            }
        }
    }

    fn elem_kind(&self) -> ArrayElem {
        match self {
            CType::Prim(t) => ArrayElem::Num(*t),
            _ => ArrayElem::Ref,
        }
    }
}

fn prim_numty(p: PrimType) -> NumTy {
    match p {
        PrimType::Byte => NumTy::I8,
        PrimType::Short => NumTy::I16,
        PrimType::Int => NumTy::I32,
        PrimType::Long => NumTy::I64,
        PrimType::Float => NumTy::F32,
        PrimType::Double => NumTy::F64,
        PrimType::Char => NumTy::Ch,
        PrimType::Boolean => NumTy::Bool,
    }
}

fn boxed_prim(wrapper: &str) -> NumTy {
    match wrapper {
        "Integer" => NumTy::I32,
        "Long" => NumTy::I64,
        "Double" => NumTy::F64,
        "Float" => NumTy::F32,
        "Short" => NumTy::I16,
        "Byte" => NumTy::I8,
        "Character" => NumTy::Ch,
        "Boolean" => NumTy::Bool,
        _ => NumTy::I32,
    }
}

fn compile_classes(decls: &[&ClassDecl]) -> Result<Program, VmError> {
    // Pass 1a: class ids.
    let mut names: HashMap<String, ClassId> = HashMap::new();
    for (i, d) in decls.iter().enumerate() {
        if names.insert(d.name.clone(), i as ClassId).is_some() {
            return Err(VmError::compile(
                format!("duplicate class `{}`", d.name),
                d.span.line,
            ));
        }
    }
    // Pass 1b: field layouts (instance) with inheritance, statics table.
    let mut layouts: Vec<Vec<(String, Type)>> = vec![Vec::new(); decls.len()];
    let mut statics: Vec<StaticField> = Vec::new();
    let mut static_slots: HashMap<String, u16> = HashMap::new();
    fn layout_of(
        idx: usize,
        decls: &[&ClassDecl],
        names: &HashMap<String, ClassId>,
        cache: &mut Vec<Vec<(String, Type)>>,
        depth: usize,
    ) -> Result<Vec<(String, Type)>, VmError> {
        if !cache[idx].is_empty() {
            return Ok(cache[idx].clone());
        }
        if depth > decls.len() {
            return Err(VmError::compile("inheritance cycle", decls[idx].span.line));
        }
        let mut fields = Vec::new();
        if let Some(sup) = &decls[idx].extends {
            if let Some(&sid) = names.get(sup.rsplit('.').next().unwrap_or(sup)) {
                fields = layout_of(sid as usize, decls, names, cache, depth + 1)?;
            }
        }
        for f in &decls[idx].fields {
            if !f.modifiers.is_static {
                fields.push((f.name.clone(), f.ty.clone()));
            }
        }
        cache[idx] = fields.clone();
        Ok(fields)
    }
    for i in 0..decls.len() {
        let l = layout_of(i, decls, &names, &mut layouts, 0)?;
        layouts[i] = l;
        for f in &decls[i].fields {
            if f.modifiers.is_static {
                let qualified = format!("{}.{}", decls[i].name, f.name);
                static_slots.insert(qualified.clone(), statics.len() as u16);
                statics.push(StaticField {
                    qualified,
                    ty: f.ty.clone(),
                });
            }
        }
    }
    // Pass 1c: method signatures. Placeholder `Method` entries are
    // pushed immediately so pass 2 can resolve return types and
    // signatures of not-yet-compiled methods (mutual recursion).
    let mut program = Program::default();
    let mut method_sigs: Vec<(usize, MethodDecl)> = Vec::new(); // (class idx, decl)
    for (i, d) in decls.iter().enumerate() {
        let superclass = d
            .extends
            .as_ref()
            .and_then(|s| names.get(s.rsplit('.').next().unwrap_or(s)).copied());
        let mut class = Class {
            name: d.name.clone(),
            superclass,
            fields: layouts[i].clone(),
            ..Class::default()
        };
        for m in &d.methods {
            if m.body.is_none() {
                continue; // abstract/interface: not executable
            }
            let mid = method_sigs.len() as MethodId;
            let is_ctor = m.name == d.name;
            let arity = m.params.len() as u8;
            if is_ctor {
                class.ctors.insert(arity, mid);
            } else if m.name != "<clinit>" && m.name != "<init-block>" {
                class.add_method(&m.name, arity, mid);
            }
            program.methods.push(Method {
                class: i as ClassId,
                name: m.name.clone(),
                qualified: format!("{}.{}", d.name, m.name).into(),
                arity,
                is_instance: !m.modifiers.is_static || is_ctor,
                locals: 0,
                ret: if is_ctor { Type::Void } else { m.ret.clone() },
                code: Vec::new(),
                line: m.span.line,
            });
            method_sigs.push((i, m.clone()));
        }
        program.classes.push(class);
    }
    program.rebuild_class_index();
    program.statics = statics;

    // Pass 2: compile bodies, replacing the placeholders.
    let mut compiled_methods = Vec::with_capacity(method_sigs.len());
    {
        let ctx = GlobalCtx {
            decls,
            names: &names,
            static_slots: &static_slots,
            program: &program,
        };
        for (ci, m) in &method_sigs {
            compiled_methods.push(MethodCompiler::compile(&ctx, *ci, m)?);
        }
    }
    program.methods = compiled_methods;
    // Discover main + clinits.
    for (mi, m) in program.methods.iter().enumerate() {
        if m.name == "main" && !m.is_instance {
            program.main = Some(mi as MethodId);
        }
        if m.name == "<clinit>" {
            program.clinits.push(mi as MethodId);
        }
    }
    // Synthesize <clinit> work from static field initializers: prepend
    // to an existing clinit or create one per class that needs it.
    synthesize_static_inits(&mut program, decls, &names, &static_slots)?;
    Ok(program)
}

/// Compile static field initializers into (possibly synthetic) `<clinit>`
/// methods so `static double RATE = 0.5;` works.
fn synthesize_static_inits(
    program: &mut Program,
    decls: &[&ClassDecl],
    names: &HashMap<String, ClassId>,
    static_slots: &HashMap<String, u16>,
) -> Result<(), VmError> {
    for (i, d) in decls.iter().enumerate() {
        let inits: Vec<&jepo_jlang::FieldDecl> = d
            .fields
            .iter()
            .filter(|f| f.modifiers.is_static && f.init.is_some())
            .collect();
        if inits.is_empty() {
            continue;
        }
        let ctx = GlobalCtx {
            decls,
            names,
            static_slots,
            program,
        };
        let mut mc = MethodCompiler::new(&ctx, i, false);
        for f in &inits {
            let slot = static_slots[&format!("{}.{}", d.name, f.name)];
            let target = CType::from_ast(&f.ty, names);
            let got = mc.expr(f.init.as_ref().unwrap())?;
            mc.coerce(got, &target, f.span.line)?;
            mc.code.push(Op::PutStatic(slot));
        }
        mc.code.push(Op::ReturnVoid);
        let method = Method {
            class: i as ClassId,
            name: "<clinit>".into(),
            qualified: format!("{}.<clinit>", d.name).into(),
            arity: 0,
            is_instance: false,
            locals: mc.next_slot,
            ret: Type::Void,
            code: mc.code,
            line: d.span.line,
        };
        let mid = program.methods.len() as MethodId;
        program.methods.push(method);
        // Field inits must run before any explicit static block of the
        // same class, so put them ahead in clinit order.
        program.clinits.insert(0, mid);
    }
    Ok(())
}

struct GlobalCtx<'a> {
    decls: &'a [&'a ClassDecl],
    names: &'a HashMap<String, ClassId>,
    static_slots: &'a HashMap<String, u16>,
    program: &'a Program,
}

impl<'a> GlobalCtx<'a> {
    /// Resolve a static field `Class.name` or `name` within `class_idx`.
    fn static_slot(&self, class_idx: usize, name: &str) -> Option<(u16, CType)> {
        // Search own class then superclasses.
        let mut cur = Some(class_idx);
        while let Some(ci) = cur {
            let qualified = format!("{}.{name}", self.decls[ci].name);
            if let Some(&slot) = self.static_slots.get(&qualified) {
                let ty = &self.decls[ci]
                    .fields
                    .iter()
                    .find(|f| f.name == name && f.modifiers.is_static)
                    .unwrap()
                    .ty;
                return Some((slot, CType::from_ast(ty, self.names)));
            }
            cur = self.decls[ci]
                .extends
                .as_ref()
                .and_then(|s| self.names.get(s.rsplit('.').next().unwrap_or(s)))
                .map(|&id| id as usize);
        }
        None
    }

    /// Instance-field slot + type, walking the hierarchy.
    fn field_slot(&self, class: ClassId, name: &str) -> Option<(u16, CType)> {
        let fields = &self.program.classes[class as usize].fields;
        fields
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| (i as u16, CType::from_ast(&fields[i].1, self.names)))
    }

    fn method_ret(&self, mid: MethodId, _class: ClassId) -> CType {
        let m = &self.program.methods[mid as usize];
        CType::from_ast(&m.ret, self.names)
    }

    /// Return type of a virtual call, if any single method with the name
    /// and arity exists anywhere (best-effort for type inference).
    fn virtual_ret(&self, name: &str, arity: u8) -> CType {
        for m in &self.program.methods {
            if m.name == name && m.arity == arity {
                return CType::from_ast(&m.ret, self.names);
            }
        }
        CType::RefAny
    }
}

struct LoopLabels {
    break_jumps: Vec<usize>,
    continue_jumps: Vec<usize>,
}

struct MethodCompiler<'a> {
    ctx: &'a GlobalCtx<'a>,
    class_idx: usize,
    is_instance: bool,
    code: Vec<Op>,
    scopes: Vec<HashMap<String, (u16, CType)>>,
    next_slot: u16,
    max_slot: u16,
    loops: Vec<LoopLabels>,
    ret_type: CType,
}

impl<'a> MethodCompiler<'a> {
    fn new(ctx: &'a GlobalCtx<'a>, class_idx: usize, is_instance: bool) -> Self {
        MethodCompiler {
            ctx,
            class_idx,
            is_instance,
            code: Vec::new(),
            scopes: vec![HashMap::new()],
            next_slot: 0,
            max_slot: 0,
            loops: Vec::new(),
            ret_type: CType::Void,
        }
    }

    fn compile(
        ctx: &'a GlobalCtx<'a>,
        class_idx: usize,
        m: &MethodDecl,
    ) -> Result<Method, VmError> {
        let is_ctor = m.name == ctx.decls[class_idx].name;
        let is_instance = !m.modifiers.is_static || is_ctor;
        let mut mc = MethodCompiler::new(ctx, class_idx, is_instance);
        mc.ret_type = CType::from_ast(&m.ret, ctx.names);
        if is_instance {
            let this_ty = CType::Class(class_idx as ClassId);
            mc.declare("this", this_ty);
        }
        for p in &m.params {
            let ty = CType::from_ast(&p.ty, ctx.names);
            mc.declare(&p.name, ty);
        }
        // Constructors run instance-field initializers first.
        if is_ctor {
            let mut init_fields = Vec::new();
            let mut cur = Some(class_idx);
            while let Some(ci) = cur {
                for f in ctx.decls[ci].fields.iter() {
                    if !f.modifiers.is_static {
                        if let Some(init) = &f.init {
                            init_fields.push((
                                ci,
                                f.name.clone(),
                                f.ty.clone(),
                                init.clone(),
                                f.span.line,
                            ));
                        }
                    }
                }
                cur = ctx.decls[ci]
                    .extends
                    .as_ref()
                    .and_then(|s| ctx.names.get(s.rsplit('.').next().unwrap_or(s)))
                    .map(|&id| id as usize);
            }
            for (_ci, fname, fty, init, line) in init_fields {
                if let Some((slot, _)) = ctx.field_slot(class_idx as ClassId, &fname) {
                    mc.code.push(Op::LoadLocal(0));
                    let got = mc.expr(&init)?;
                    let want = CType::from_ast(&fty, ctx.names);
                    mc.coerce(got, &want, line)?;
                    mc.code.push(Op::PutField(slot));
                }
            }
        }
        let body = m.body.as_ref().expect("abstract methods filtered earlier");
        mc.block(body)?;
        // Implicit return.
        match mc.ret_type {
            CType::Void => mc.code.push(Op::ReturnVoid),
            _ => {
                // Falling off a value-returning method: return a zero —
                // reached only when control flow actually falls through.
                mc.code.push(Op::Const(Value::Int(0)));
                mc.code.push(Op::Return);
            }
        }
        Ok(Method {
            class: class_idx as ClassId,
            name: m.name.clone(),
            qualified: format!("{}.{}", ctx.decls[class_idx].name, m.name).into(),
            arity: m.params.len() as u8,
            is_instance,
            locals: mc.max_slot.max(mc.next_slot),
            ret: m.ret.clone(),
            code: mc.code,
            line: m.span.line,
        })
    }

    fn declare(&mut self, name: &str, ty: CType) -> u16 {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.max_slot = self.max_slot.max(self.next_slot);
        self.scopes
            .last_mut()
            .unwrap()
            .insert(name.to_string(), (slot, ty));
        slot
    }

    fn lookup(&self, name: &str) -> Option<(u16, CType)> {
        for scope in self.scopes.iter().rev() {
            if let Some(v) = scope.get(name) {
                return Some(v.clone());
            }
        }
        None
    }

    fn push_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop_scope(&mut self) {
        let scope = self.scopes.pop().unwrap();
        self.next_slot -= scope.len() as u16;
    }

    // ---- statements ----------------------------------------------------

    fn block(&mut self, b: &Block) -> Result<(), VmError> {
        self.push_scope();
        for s in &b.stmts {
            self.stmt(s)?;
        }
        self.pop_scope();
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), VmError> {
        let line = s.span.line;
        match &s.kind {
            StmtKind::Local { ty, vars, .. } => {
                for (name, extra, init) in vars {
                    let mut t = CType::from_ast(ty, self.ctx.names);
                    for _ in 0..*extra {
                        t = CType::Array(Box::new(t));
                    }
                    if let Some(e) = init {
                        let got = self.expr_with_target(e, Some(&t))?;
                        self.coerce(got, &t, line)?;
                        let slot = self.declare(name, t);
                        self.code.push(Op::StoreLocal(slot));
                    } else {
                        // default-initialize
                        let dv = match &t {
                            CType::Prim(NumTy::F32) => Value::Float(0.0),
                            CType::Prim(NumTy::F64) => Value::Double(0.0),
                            CType::Prim(NumTy::I64) => Value::Long(0),
                            CType::Prim(NumTy::Bool) => Value::Bool(false),
                            CType::Prim(NumTy::Ch) => Value::Char(0),
                            CType::Prim(_) => Value::Int(0),
                            _ => Value::Null,
                        };
                        let slot = self.declare(name, t);
                        self.code.push(Op::Const(dv));
                        self.code.push(Op::StoreLocal(slot));
                    }
                }
            }
            StmtKind::Expr(e) => {
                let t = self.expr_stmt(e)?;
                if t != CType::Void {
                    self.code.push(Op::Pop);
                }
            }
            StmtKind::If { cond, then, els } => {
                self.bool_expr(cond, line)?;
                let jf = self.emit_placeholder();
                self.stmt(then)?;
                match els {
                    Some(e) => {
                        let jend = self.emit_placeholder_jump();
                        self.patch(jf, Op::JumpIfFalse(self.code.len() as u32));
                        self.stmt(e)?;
                        self.patch(jend, Op::Jump(self.code.len() as u32));
                    }
                    None => {
                        self.patch(jf, Op::JumpIfFalse(self.code.len() as u32));
                    }
                }
            }
            StmtKind::While { cond, body } => {
                let top = self.code.len() as u32;
                self.bool_expr(cond, line)?;
                let jf = self.emit_placeholder();
                self.loops.push(LoopLabels {
                    break_jumps: vec![],
                    continue_jumps: vec![],
                });
                self.stmt(body)?;
                let labels = self.loops.pop().unwrap();
                for c in labels.continue_jumps {
                    self.patch(c, Op::Jump(top));
                }
                self.code.push(Op::Jump(top));
                let end = self.code.len() as u32;
                self.patch(jf, Op::JumpIfFalse(end));
                for b in labels.break_jumps {
                    self.patch(b, Op::Jump(end));
                }
            }
            StmtKind::DoWhile { body, cond } => {
                let top = self.code.len() as u32;
                self.loops.push(LoopLabels {
                    break_jumps: vec![],
                    continue_jumps: vec![],
                });
                self.stmt(body)?;
                let labels = self.loops.pop().unwrap();
                let cond_pc = self.code.len() as u32;
                for c in labels.continue_jumps {
                    self.patch(c, Op::Jump(cond_pc));
                }
                self.bool_expr(cond, line)?;
                self.code.push(Op::JumpIfTrue(top));
                let end = self.code.len() as u32;
                for b in labels.break_jumps {
                    self.patch(b, Op::Jump(end));
                }
            }
            StmtKind::For {
                init,
                cond,
                update,
                body,
            } => {
                self.push_scope();
                for s in init {
                    self.stmt(s)?;
                }
                let top = self.code.len() as u32;
                let jf = match cond {
                    Some(c) => {
                        self.bool_expr(c, line)?;
                        Some(self.emit_placeholder())
                    }
                    None => None,
                };
                self.loops.push(LoopLabels {
                    break_jumps: vec![],
                    continue_jumps: vec![],
                });
                self.stmt(body)?;
                let labels = self.loops.pop().unwrap();
                let update_pc = self.code.len() as u32;
                for c in labels.continue_jumps {
                    self.patch(c, Op::Jump(update_pc));
                }
                for u in update {
                    let t = self.expr_stmt(u)?;
                    if t != CType::Void {
                        self.code.push(Op::Pop);
                    }
                }
                self.code.push(Op::Jump(top));
                let end = self.code.len() as u32;
                if let Some(jf) = jf {
                    self.patch(jf, Op::JumpIfFalse(end));
                }
                for b in labels.break_jumps {
                    self.patch(b, Op::Jump(end));
                }
                self.pop_scope();
            }
            StmtKind::ForEach {
                ty,
                name,
                iter,
                body,
            } => {
                // Desugar to an index loop over the array.
                self.push_scope();
                let arr_t = self.expr(iter)?;
                let elem_t = match &arr_t {
                    CType::Array(e) => (**e).clone(),
                    _ => return Err(VmError::compile("for-each over non-array", line)),
                };
                let arr_slot = self.declare("<arr>", arr_t);
                self.code.push(Op::StoreLocal(arr_slot));
                let idx_slot = self.declare("<idx>", CType::Prim(NumTy::I32));
                self.code.push(Op::Const(Value::Int(0)));
                self.code.push(Op::StoreLocal(idx_slot));
                let declared_t = CType::from_ast(ty, self.ctx.names);
                let var_slot = self.declare(name, declared_t.clone());
                let top = self.code.len() as u32;
                self.code.push(Op::LoadLocal(idx_slot));
                self.code.push(Op::LoadLocal(arr_slot));
                self.code.push(Op::ArrLen);
                self.code.push(Op::Cmp(CmpOp::Lt, NumTy::I32));
                let jf = self.emit_placeholder();
                self.code.push(Op::LoadLocal(arr_slot));
                self.code.push(Op::LoadLocal(idx_slot));
                self.code.push(Op::ArrLoad(elem_t.elem_kind()));
                self.coerce(elem_t.clone(), &declared_t, line)?;
                self.code.push(Op::StoreLocal(var_slot));
                self.loops.push(LoopLabels {
                    break_jumps: vec![],
                    continue_jumps: vec![],
                });
                self.stmt(body)?;
                let labels = self.loops.pop().unwrap();
                let update_pc = self.code.len() as u32;
                for c in labels.continue_jumps {
                    self.patch(c, Op::Jump(update_pc));
                }
                self.code.push(Op::LoadLocal(idx_slot));
                self.code.push(Op::Const(Value::Int(1)));
                self.code.push(Op::Arith(ArithOp::Add, NumTy::I32));
                self.code.push(Op::StoreLocal(idx_slot));
                self.code.push(Op::Jump(top));
                let end = self.code.len() as u32;
                self.patch(jf, Op::JumpIfFalse(end));
                for b in labels.break_jumps {
                    self.patch(b, Op::Jump(end));
                }
                self.pop_scope();
            }
            StmtKind::Switch { scrutinee, cases } => {
                self.push_scope();
                let st = self.expr(scrutinee)?;
                let s_slot = self.declare("<switch>", st.clone());
                self.code.push(Op::StoreLocal(s_slot));
                // Dispatch chain: compare against each label in order;
                // fall-through handled by compiling bodies sequentially.
                let mut case_jumps: Vec<(usize, usize)> = Vec::new(); // (patch idx, case idx)
                let mut default_jump: Option<(usize, usize)> = None;
                for (ci, c) in cases.iter().enumerate() {
                    for l in &c.labels {
                        match l {
                            Some(e) => {
                                self.code.push(Op::LoadLocal(s_slot));
                                let lt = self.expr(e)?;
                                match (&st, &lt) {
                                    (CType::Str, _) => self.code.push(Op::StrEquals),
                                    _ => {
                                        let ty = self.promote2(&st, &lt, line)?;
                                        self.code.push(Op::Cmp(CmpOp::Eq, ty));
                                    }
                                }
                                let j = self.emit_placeholder();
                                case_jumps.push((j, ci));
                            }
                            None => {
                                default_jump = Some((usize::MAX, ci));
                            }
                        }
                    }
                }
                let after_dispatch = self.emit_placeholder_jump();
                // Bodies.
                let mut case_pcs = Vec::with_capacity(cases.len());
                self.loops.push(LoopLabels {
                    break_jumps: vec![],
                    continue_jumps: vec![],
                });
                for c in cases {
                    case_pcs.push(self.code.len() as u32);
                    for s in &c.body {
                        self.stmt(s)?;
                    }
                }
                let labels = self.loops.pop().unwrap();
                let end = self.code.len() as u32;
                for (j, ci) in case_jumps {
                    self.patch(j, Op::JumpIfTrue(case_pcs[ci]));
                }
                match default_jump {
                    Some((_, ci)) => self.patch(after_dispatch, Op::Jump(case_pcs[ci])),
                    None => self.patch(after_dispatch, Op::Jump(end)),
                }
                for b in labels.break_jumps {
                    self.patch(b, Op::Jump(end));
                }
                // `continue` inside switch belongs to the enclosing loop.
                if let Some(outer) = self.loops.last_mut() {
                    outer.continue_jumps.extend(labels.continue_jumps);
                } else if !labels.continue_jumps.is_empty() {
                    return Err(VmError::compile("continue outside loop", line));
                }
                self.pop_scope();
            }
            StmtKind::Return(e) => match e {
                Some(e) => {
                    let want = self.ret_type.clone();
                    let got = self.expr_with_target(e, Some(&want))?;
                    self.coerce(got, &want, line)?;
                    self.code.push(Op::Return);
                }
                None => self.code.push(Op::ReturnVoid),
            },
            StmtKind::Break => {
                let j = self.emit_placeholder_jump();
                match self.loops.last_mut() {
                    Some(l) => l.break_jumps.push(j),
                    None => return Err(VmError::compile("break outside loop/switch", line)),
                }
            }
            StmtKind::Continue => {
                let j = self.emit_placeholder_jump();
                match self.loops.last_mut() {
                    Some(l) => l.continue_jumps.push(j),
                    None => return Err(VmError::compile("continue outside loop", line)),
                }
            }
            StmtKind::Throw(e) => {
                self.expr(e)?;
                self.code.push(Op::Throw);
            }
            StmtKind::Try {
                body,
                catches,
                finally,
            } => {
                // Single-catch-at-a-time lowering: nest TryEnter per catch.
                let enter_idxs: Vec<usize> = catches
                    .iter()
                    .map(|(ty, _, _)| {
                        let class = match ty {
                            Type::Class(n, _) => n.rsplit('.').next().unwrap_or(n).to_string(),
                            _ => "*".to_string(),
                        };
                        let idx = self.code.len();
                        self.code.push(Op::TryEnter { handler: 0, class });
                        idx
                    })
                    .collect();
                self.block(body)?;
                for _ in catches {
                    self.code.push(Op::TryExit);
                }
                if let Some(f) = finally {
                    self.block(f)?;
                }
                let jend = self.emit_placeholder_jump();
                let mut handler_jumps = vec![jend];
                for (i, (ty, name, handler)) in catches.iter().enumerate() {
                    let hpc = self.code.len() as u32;
                    // Back-patch this catch's TryEnter with its handler pc.
                    let class = match ty {
                        Type::Class(n, _) => n.rsplit('.').next().unwrap_or(n).to_string(),
                        _ => "*".to_string(),
                    };
                    self.code[enter_idxs[i]] = Op::TryEnter {
                        handler: hpc,
                        class,
                    };
                    self.push_scope();
                    let slot = self.declare(name, CType::RefAny);
                    self.code.push(Op::StoreLocal(slot)); // exception ref pushed by unwinder
                    self.block(handler)?;
                    self.pop_scope();
                    if let Some(f) = finally {
                        self.block(f)?;
                    }
                    handler_jumps.push(self.emit_placeholder_jump());
                }
                let end = self.code.len() as u32;
                for j in handler_jumps {
                    self.patch(j, Op::Jump(end));
                }
            }
            StmtKind::Block(b) => self.block(b)?,
            StmtKind::Empty => {}
            StmtKind::Synchronized(e, b) => {
                let t = self.expr(e)?;
                if t != CType::Void {
                    self.code.push(Op::Pop);
                }
                self.block(b)?;
            }
        }
        Ok(())
    }

    fn emit_placeholder(&mut self) -> usize {
        self.code.push(Op::JumpIfFalse(u32::MAX));
        self.code.len() - 1
    }

    fn emit_placeholder_jump(&mut self) -> usize {
        self.code.push(Op::Jump(u32::MAX));
        self.code.len() - 1
    }

    fn patch(&mut self, idx: usize, op: Op) {
        self.code[idx] = op;
    }

    /// Compile a condition expression to a Bool on the stack.
    fn bool_expr(&mut self, e: &Expr, line: u32) -> Result<(), VmError> {
        let t = self.expr(e)?;
        match t {
            CType::Prim(NumTy::Bool) => Ok(()),
            CType::Boxed("Boolean") => {
                self.code.push(Op::Unbox);
                Ok(())
            }
            other => Err(VmError::compile(
                format!("condition is not boolean: {other:?}"),
                line,
            )),
        }
    }

    // ---- expressions ---------------------------------------------------

    /// Compile an expression in statement position (result may be dropped).
    fn expr_stmt(&mut self, e: &Expr) -> Result<CType, VmError> {
        match &e.kind {
            // Assignments in statement position: avoid leaving a value.
            ExprKind::Assign(..)
            | ExprKind::Unary(
                UnaryOp::PostInc | UnaryOp::PostDec | UnaryOp::PreInc | UnaryOp::PreDec,
                _,
            ) => self.assign_like(e, false),
            _ => self.expr(e),
        }
    }

    fn expr(&mut self, e: &Expr) -> Result<CType, VmError> {
        self.expr_with_target(e, None)
    }

    fn expr_with_target(&mut self, e: &Expr, target: Option<&CType>) -> Result<CType, VmError> {
        let line = e.span.line;
        match &e.kind {
            ExprKind::Literal(l) => self.literal(l, target),
            ExprKind::Name(n) => {
                if let Some((slot, t)) = self.lookup(n) {
                    self.code.push(Op::LoadLocal(slot));
                    return Ok(t);
                }
                // Implicit `this.field` or own-class static.
                if let Some((slot, t)) = self.ctx.static_slot(self.class_idx, n) {
                    self.code.push(Op::GetStatic(slot));
                    return Ok(t);
                }
                if self.is_instance {
                    if let Some((slot, t)) = self.ctx.field_slot(self.class_idx as ClassId, n) {
                        self.code.push(Op::LoadLocal(0));
                        self.code.push(Op::GetField(slot));
                        return Ok(t);
                    }
                }
                Err(VmError::compile(format!("unknown name `{n}`"), line))
            }
            ExprKind::This => {
                if !self.is_instance {
                    return Err(VmError::compile("`this` in static context", line));
                }
                self.code.push(Op::LoadLocal(0));
                Ok(CType::Class(self.class_idx as ClassId))
            }
            ExprKind::FieldAccess(obj, fname) => {
                // `Class.staticField`?
                if let ExprKind::Name(cn) = &obj.kind {
                    if self.lookup(cn).is_none() {
                        if let Some(&cid) = self.ctx.names.get(cn.as_str()) {
                            if let Some((slot, t)) = self.ctx.static_slot(cid as usize, fname) {
                                self.code.push(Op::GetStatic(slot));
                                return Ok(t);
                            }
                        }
                        // Known library statics.
                        if cn == "Integer" && fname == "MAX_VALUE" {
                            self.code.push(Op::Const(Value::Int(i32::MAX)));
                            return Ok(CType::Prim(NumTy::I32));
                        }
                        if cn == "Integer" && fname == "MIN_VALUE" {
                            self.code.push(Op::Const(Value::Int(i32::MIN)));
                            return Ok(CType::Prim(NumTy::I32));
                        }
                        if cn == "Double" && fname == "MAX_VALUE" {
                            self.code.push(Op::Const(Value::Double(f64::MAX)));
                            return Ok(CType::Prim(NumTy::F64));
                        }
                        if cn == "Double" && fname == "MIN_VALUE" {
                            self.code.push(Op::Const(Value::Double(f64::MIN_POSITIVE)));
                            return Ok(CType::Prim(NumTy::F64));
                        }
                        if cn == "Double" && fname == "POSITIVE_INFINITY" {
                            self.code.push(Op::Const(Value::Double(f64::INFINITY)));
                            return Ok(CType::Prim(NumTy::F64));
                        }
                        if cn == "Double" && fname == "NEGATIVE_INFINITY" {
                            self.code.push(Op::Const(Value::Double(f64::NEG_INFINITY)));
                            return Ok(CType::Prim(NumTy::F64));
                        }
                        if cn == "Math" && fname == "PI" {
                            self.code
                                .push(Op::Const(Value::Double(std::f64::consts::PI)));
                            return Ok(CType::Prim(NumTy::F64));
                        }
                        if cn == "Math" && fname == "E" {
                            self.code
                                .push(Op::Const(Value::Double(std::f64::consts::E)));
                            return Ok(CType::Prim(NumTy::F64));
                        }
                        if cn == "System" && fname == "out" {
                            // Placeholder object for println receiver.
                            self.code.push(Op::Const(Value::Null));
                            return Ok(CType::RefAny);
                        }
                    }
                }
                let t = self.expr(obj)?;
                if *fname == *"length" {
                    if let CType::Array(_) = t {
                        self.code.push(Op::ArrLen);
                        return Ok(CType::Prim(NumTy::I32));
                    }
                }
                match t {
                    CType::Class(cid) => match self.ctx.field_slot(cid, fname) {
                        Some((slot, ft)) => {
                            self.code.push(Op::GetField(slot));
                            Ok(ft)
                        }
                        None => Err(VmError::compile(format!("unknown field `{fname}`"), line)),
                    },
                    _ => Err(VmError::compile(
                        format!("field access `{fname}` on non-object"),
                        line,
                    )),
                }
            }
            ExprKind::Index(arr, idxs) => {
                let mut t = self.expr(arr)?;
                for (k, i) in idxs.iter().enumerate() {
                    let elem = match &t {
                        CType::Array(e) => (**e).clone(),
                        _ => return Err(VmError::compile("indexing into non-array", line)),
                    };
                    let it = self.expr(i)?;
                    self.coerce(it, &CType::Prim(NumTy::I32), line)?;
                    self.code.push(Op::ArrLoad(elem.elem_kind()));
                    t = elem;
                    let _ = k;
                }
                Ok(t)
            }
            ExprKind::Call { .. } => self.call(e, target),
            ExprKind::New { class, args } => self.new_object(class, args, line),
            ExprKind::NewArray {
                elem,
                dims,
                extra_dims,
                init,
            } => {
                let base = CType::from_ast(elem, self.ctx.names);
                if let Some(items) = init {
                    // `new T[]{...}` — allocate exact size and store items.
                    let n = items.len();
                    self.code.push(Op::Const(Value::Int(n as i32)));
                    self.code.push(Op::NewArray {
                        elem: base.elem_kind(),
                        dims: 1,
                    });
                    for (i, item) in items.iter().enumerate() {
                        self.code.push(Op::Dup);
                        self.code.push(Op::Const(Value::Int(i as i32)));
                        let it = self.expr_with_target(item, Some(&base))?;
                        self.coerce(it, &base, line)?;
                        self.code.push(Op::ArrStore(base.elem_kind()));
                    }
                    return Ok(CType::Array(Box::new(base)));
                }
                for d in dims {
                    let dt = self.expr(d)?;
                    self.coerce(dt, &CType::Prim(NumTy::I32), line)?;
                }
                let total_dims = dims.len() as u8 + extra_dims;
                let mut t = base.clone();
                for _ in 0..total_dims {
                    t = CType::Array(Box::new(t));
                }
                self.code.push(Op::NewArray {
                    elem: base.elem_kind(),
                    dims: dims.len() as u8,
                });
                Ok(t)
            }
            ExprKind::ArrayInit(items) => {
                // Only legal with a known array target type.
                let elem = match target {
                    Some(CType::Array(e)) => (**e).clone(),
                    _ => {
                        return Err(VmError::compile(
                            "array initializer needs declared array type",
                            line,
                        ))
                    }
                };
                let n = items.len();
                self.code.push(Op::Const(Value::Int(n as i32)));
                self.code.push(Op::NewArray {
                    elem: elem.elem_kind(),
                    dims: 1,
                });
                for (i, item) in items.iter().enumerate() {
                    self.code.push(Op::Dup);
                    self.code.push(Op::Const(Value::Int(i as i32)));
                    let it = self.expr_with_target(item, Some(&elem))?;
                    self.coerce(it, &elem, line)?;
                    self.code.push(Op::ArrStore(elem.elem_kind()));
                }
                Ok(CType::Array(Box::new(elem)))
            }
            ExprKind::Unary(op, inner) => match op {
                UnaryOp::Neg => {
                    let t = self.numeric(inner)?;
                    let ty = self.numty_of(&t, line)?;
                    self.code.push(Op::Neg(ty));
                    Ok(t)
                }
                UnaryOp::Plus => self.numeric(inner),
                UnaryOp::Not => {
                    self.bool_expr(inner, line)?;
                    self.code.push(Op::Not);
                    Ok(CType::Prim(NumTy::Bool))
                }
                UnaryOp::BitNot => {
                    let t = self.numeric(inner)?;
                    let ty = self.numty_of(&t, line)?;
                    self.code.push(Op::BitNot(ty));
                    Ok(t)
                }
                UnaryOp::PreInc | UnaryOp::PreDec | UnaryOp::PostInc | UnaryOp::PostDec => {
                    self.assign_like(e, true)
                }
            },
            ExprKind::Binary(op, l, r) => self.binary(*op, l, r, line),
            ExprKind::Assign(..) => self.assign_like(e, true),
            ExprKind::Ternary(c, t, f) => {
                self.bool_expr(c, line)?;
                let jf = self.emit_placeholder();
                let tt = self.expr_with_target(t, target)?;
                // Record a convert slot in case branches differ.
                let jend = self.emit_placeholder_jump();
                let else_pc = self.code.len() as u32;
                let ft = self.expr_with_target(f, target)?;
                let unified = self.unify_branches(&tt, &ft, line)?;
                // Convert the else branch if needed.
                self.convert_if_needed(&ft, &unified, line)?;
                let join = self.code.len() as u32;
                self.patch(jf, Op::JumpIfFalse(else_pc));
                self.patch(jend, Op::Jump(join));
                // Then-branch conversion must happen before the jump; we
                // instead normalise by inserting after-join only when the
                // then type already equals the unified type. For numeric
                // widenings the interpreter's Convert on one path
                // suffices because the join only sees unified values.
                if tt != unified {
                    // Patch: insert a convert right before jend. Simpler:
                    // the interpreter's arithmetic accepts widened values,
                    // so only int→float class mismatches matter; handle by
                    // converting at the join for both (idempotent for the
                    // already-converted else branch).
                    self.convert_if_needed(&tt, &unified, line)?;
                }
                self.code.push(Op::TernaryJoin);
                Ok(unified)
            }
            ExprKind::Cast(ty, inner) => {
                let want = CType::from_ast(ty, self.ctx.names);
                let got = self.expr(inner)?;
                match (&got, &want) {
                    (CType::Prim(a), CType::Prim(b)) => {
                        if a != b {
                            self.code.push(Op::Convert { from: *a, to: *b });
                        }
                        Ok(want)
                    }
                    (CType::Boxed(_), CType::Prim(p)) => {
                        self.code.push(Op::Unbox);
                        let _ = p;
                        Ok(want)
                    }
                    (CType::Prim(_), CType::Boxed(w)) => {
                        self.code.push(Op::Box(w));
                        Ok(want)
                    }
                    _ => Ok(want), // reference casts are free (checked types not modelled)
                }
            }
            ExprKind::InstanceOf(inner, ty) => {
                self.expr(inner)?;
                let name = match ty {
                    Type::Class(n, _) => n.rsplit('.').next().unwrap_or(n).to_string(),
                    _ => "?".into(),
                };
                self.code.push(Op::InstanceOfChk(name));
                Ok(CType::Prim(NumTy::Bool))
            }
        }
    }

    fn literal(&mut self, l: &Lit, target: Option<&CType>) -> Result<CType, VmError> {
        Ok(match l {
            Lit::Int { value, long } => {
                if *long || matches!(target, Some(CType::Prim(NumTy::I64))) {
                    self.code.push(Op::Const(Value::Long(*value)));
                    CType::Prim(NumTy::I64)
                } else if matches!(target, Some(CType::Prim(NumTy::F64))) {
                    self.code.push(Op::Const(Value::Double(*value as f64)));
                    CType::Prim(NumTy::F64)
                } else if matches!(target, Some(CType::Prim(NumTy::F32))) {
                    self.code.push(Op::Const(Value::Float(*value as f32)));
                    CType::Prim(NumTy::F32)
                } else {
                    self.code.push(Op::Const(Value::Int(*value as i32)));
                    CType::Prim(NumTy::I32)
                }
            }
            Lit::Float {
                value,
                float32,
                scientific,
            } => {
                let f32_wanted = *float32 || matches!(target, Some(CType::Prim(NumTy::F32)));
                self.code.push(Op::ConstDecimal {
                    value: *value,
                    float32: f32_wanted,
                    scientific: *scientific,
                });
                CType::Prim(if f32_wanted { NumTy::F32 } else { NumTy::F64 })
            }
            Lit::Char(c) => {
                self.code.push(Op::Const(Value::Char(*c as u16)));
                CType::Prim(NumTy::Ch)
            }
            Lit::Str(s) => {
                self.code.push(Op::ConstStr(s.clone()));
                CType::Str
            }
            Lit::Bool(b) => {
                self.code.push(Op::Const(Value::Bool(*b)));
                CType::Prim(NumTy::Bool)
            }
            Lit::Null => {
                self.code.push(Op::Const(Value::Null));
                CType::RefAny
            }
        })
    }

    fn numeric(&mut self, e: &Expr) -> Result<CType, VmError> {
        let t = self.expr(e)?;
        match t {
            CType::Prim(p) if p != NumTy::Bool => Ok(CType::Prim(p)),
            CType::Boxed(w) if w != "Boolean" => {
                self.code.push(Op::Unbox);
                Ok(CType::Prim(boxed_prim(w)))
            }
            other => Err(VmError::compile(
                format!("numeric operand required, got {other:?}"),
                e.span.line,
            )),
        }
    }

    fn numty_of(&self, t: &CType, line: u32) -> Result<NumTy, VmError> {
        match t {
            CType::Prim(p) => Ok(*p),
            _ => Err(VmError::compile("numeric type required", line)),
        }
    }

    /// Binary numeric promotion of two already-compiled operand types,
    /// emitting conversion for the top of stack (right operand). The left
    /// operand is converted at runtime by the interpreter's arithmetic
    /// (values carry their representation).
    fn promote2(&mut self, lt: &CType, rt: &CType, line: u32) -> Result<NumTy, VmError> {
        let l = self.numty_of(lt, line)?;
        let r = self.numty_of(rt, line)?;
        Ok(promoted(l, r))
    }

    fn binary(&mut self, op: BinOp, l: &Expr, r: &Expr, line: u32) -> Result<CType, VmError> {
        match op {
            BinOp::And | BinOp::Or => {
                // Short-circuit lowering.
                self.bool_expr(l, line)?;
                self.code.push(Op::Dup);
                let j = if op == BinOp::And {
                    self.code.push(Op::JumpIfFalse(u32::MAX));
                    self.code.len() - 1
                } else {
                    self.code.push(Op::JumpIfTrue(u32::MAX));
                    self.code.len() - 1
                };
                self.code.push(Op::Pop);
                self.bool_expr(r, line)?;
                let end = self.code.len() as u32;
                self.patch(
                    j,
                    if op == BinOp::And { Op::JumpIfFalse(end) } else { Op::JumpIfTrue(end) },
                );
                return Ok(CType::Prim(NumTy::Bool));
            }
            BinOp::Add
                // String concatenation?
                if (self.is_stringish(l) || self.is_stringish(r)) => {
                    let lt = self.expr(l)?;
                    if lt == CType::Builder {
                        // builder + x is not Java; treat as string
                    }
                    let _rt = self.expr(r)?;
                    self.code.push(Op::StrConcat);
                    return Ok(CType::Str);
                }
            _ => {}
        }
        match op {
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let lt = self.expr(l)?;
                // Reference comparisons (null checks etc.).
                if matches!(
                    lt,
                    CType::Str
                        | CType::Builder
                        | CType::Class(_)
                        | CType::RefAny
                        | CType::Array(_)
                        | CType::Boxed(_)
                ) {
                    let _rt = self.expr(r)?;
                    let cmp = if op == BinOp::Eq {
                        CmpOp::Eq
                    } else {
                        CmpOp::Ne
                    };
                    if !matches!(op, BinOp::Eq | BinOp::Ne) {
                        return Err(VmError::compile("ordering on references", line));
                    }
                    self.code.push(Op::RefCmp(cmp));
                    return Ok(CType::Prim(NumTy::Bool));
                }
                let lt = self.unbox_if_needed(lt);
                let rt_raw = self.expr(r)?;
                let rt = self.unbox_if_needed(rt_raw);
                let ty = self.promote2(&lt, &rt, line)?;
                let cmp = match op {
                    BinOp::Eq => CmpOp::Eq,
                    BinOp::Ne => CmpOp::Ne,
                    BinOp::Lt => CmpOp::Lt,
                    BinOp::Le => CmpOp::Le,
                    BinOp::Gt => CmpOp::Gt,
                    _ => CmpOp::Ge,
                };
                self.code.push(Op::Cmp(cmp, ty));
                Ok(CType::Prim(NumTy::Bool))
            }
            _ => {
                let lt_raw = self.expr(l)?;
                let lt = self.unbox_if_needed(lt_raw);
                let rt_raw = self.expr(r)?;
                let rt = self.unbox_if_needed(rt_raw);
                let ty = self.promote2(&lt, &rt, line)?;
                let aop = match op {
                    BinOp::Add => ArithOp::Add,
                    BinOp::Sub => ArithOp::Sub,
                    BinOp::Mul => ArithOp::Mul,
                    BinOp::Div => ArithOp::Div,
                    BinOp::Rem => ArithOp::Rem,
                    BinOp::Shl => ArithOp::Shl,
                    BinOp::Shr => ArithOp::Shr,
                    BinOp::UShr => ArithOp::UShr,
                    BinOp::BitAnd => ArithOp::And,
                    BinOp::BitOr => ArithOp::Or,
                    BinOp::BitXor => ArithOp::Xor,
                    _ => unreachable!("handled above"),
                };
                self.code.push(Op::Arith(aop, ty));
                Ok(CType::Prim(promote_result(ty)))
            }
        }
    }

    fn unbox_if_needed(&mut self, t: CType) -> CType {
        match t {
            CType::Boxed(w) => {
                self.code.push(Op::Unbox);
                CType::Prim(boxed_prim(w))
            }
            other => other,
        }
    }

    /// Best-effort static type of an expression *without* emitting code,
    /// used to detect `String +` before compiling operands.
    fn is_stringish(&self, e: &Expr) -> bool {
        match &e.kind {
            ExprKind::Literal(Lit::Str(_)) => true,
            ExprKind::Name(n) => matches!(self.lookup(n), Some((_, CType::Str))),
            ExprKind::Binary(BinOp::Add, l, r) => self.is_stringish(l) || self.is_stringish(r),
            ExprKind::Call { name, target, .. } => {
                name == "toString"
                    || name == "substring"
                    || name == "valueOf"
                        && matches!(&target.as_deref(),
                            Some(Expr { kind: ExprKind::Name(n), .. }) if n == "String")
            }
            ExprKind::Ternary(_, t, f) => self.is_stringish(t) && self.is_stringish(f),
            ExprKind::FieldAccess(obj, fname) => {
                // Static string fields of known classes.
                if let ExprKind::Name(cn) = &obj.kind {
                    if let Some(&cid) = self.ctx.names.get(cn.as_str()) {
                        if let Some((_, CType::Str)) = self.ctx.static_slot(cid as usize, fname) {
                            return true;
                        }
                    }
                }
                false
            }
            _ => false,
        }
    }

    fn unify_branches(&self, a: &CType, b: &CType, line: u32) -> Result<CType, VmError> {
        if a == b {
            return Ok(a.clone());
        }
        match (a, b) {
            (CType::Prim(x), CType::Prim(y)) if *x != NumTy::Bool && *y != NumTy::Bool => {
                Ok(CType::Prim(promoted(*x, *y)))
            }
            (CType::RefAny, other) | (other, CType::RefAny) => Ok(other.clone()),
            (CType::Str, CType::Str) => Ok(CType::Str),
            _ => Err(VmError::compile(
                format!("incompatible ternary branches: {a:?} vs {b:?}"),
                line,
            )),
        }
    }

    fn convert_if_needed(&mut self, from: &CType, to: &CType, _line: u32) -> Result<(), VmError> {
        if let (CType::Prim(f), CType::Prim(t)) = (from, to) {
            if f != t {
                self.code.push(Op::Convert { from: *f, to: *t });
            }
        }
        Ok(())
    }

    /// Coerce the value on top of the stack from `got` to `want`,
    /// inserting conversions / boxing.
    fn coerce(&mut self, got: CType, want: &CType, line: u32) -> Result<(), VmError> {
        if got == *want {
            return Ok(());
        }
        match (&got, want) {
            (CType::Prim(f), CType::Prim(t)) => {
                if f != t {
                    if *f == NumTy::Bool || *t == NumTy::Bool {
                        return Err(VmError::compile("boolean/numeric mismatch", line));
                    }
                    self.code.push(Op::Convert { from: *f, to: *t });
                }
                Ok(())
            }
            (CType::Prim(_), CType::Boxed(w)) => {
                // Convert to the boxed primitive first if widths differ.
                let target_prim = boxed_prim(w);
                if let CType::Prim(f) = got {
                    if f != target_prim && f != NumTy::Bool {
                        self.code.push(Op::Convert {
                            from: f,
                            to: target_prim,
                        });
                    }
                }
                self.code.push(Op::Box(wrapper_static(w)));
                Ok(())
            }
            (CType::Boxed(_), CType::Prim(t)) => {
                self.code.push(Op::Unbox);
                let _ = t;
                Ok(())
            }
            (CType::RefAny, _) | (_, CType::RefAny) => Ok(()),
            (CType::Class(a), CType::Class(b)) => {
                // Up/down-casts are unchecked.
                let _ = (a, b);
                Ok(())
            }
            (CType::Array(_), CType::Array(_)) => Ok(()),
            (CType::Builder, CType::Str) => {
                self.code.push(Op::SbToString);
                Ok(())
            }
            _ => Err(VmError::compile(
                format!("cannot convert {got:?} to {want:?}"),
                line,
            )),
        }
    }

    // ---- assignment / inc-dec -----------------------------------------

    /// Compile assignments and increment/decrement. When `want_value` the
    /// resulting value is left on the stack (and the returned type is the
    /// value's type); otherwise the stack is left clean and `Void` is
    /// returned.
    fn assign_like(&mut self, e: &Expr, want_value: bool) -> Result<CType, VmError> {
        let line = e.span.line;
        match &e.kind {
            ExprKind::Assign(lhs, op, rhs) => {
                let compound = match op {
                    AssignOp::Assign => None,
                    AssignOp::Compound(b) => Some(*b),
                };
                self.store_to(lhs, compound, Some(rhs), want_value, line)
            }
            ExprKind::Unary(uop, inner) => {
                let (delta, post) = match uop {
                    UnaryOp::PreInc => (1, false),
                    UnaryOp::PreDec => (-1, false),
                    UnaryOp::PostInc => (1, true),
                    UnaryOp::PostDec => (-1, true),
                    _ => unreachable!(),
                };
                self.incdec(inner, delta, post, want_value, line)
            }
            _ => unreachable!("assign_like on non-assignment"),
        }
    }

    /// Store into an l-value, optionally applying a compound operator
    /// with `rhs`.
    fn store_to(
        &mut self,
        lhs: &Expr,
        compound: Option<BinOp>,
        rhs: Option<&Expr>,
        want_value: bool,
        line: u32,
    ) -> Result<CType, VmError> {
        match &lhs.kind {
            ExprKind::Name(n) => {
                if let Some((slot, t)) = self.lookup(n) {
                    self.compile_rhs(&t, compound, Some(lhs), rhs, line)?;
                    if want_value {
                        self.code.push(Op::Dup);
                    }
                    self.code.push(Op::StoreLocal(slot));
                    return Ok(if want_value { t } else { CType::Void });
                }
                if let Some((slot, t)) = self.ctx.static_slot(self.class_idx, n) {
                    self.compile_rhs(&t, compound, Some(lhs), rhs, line)?;
                    if want_value {
                        self.code.push(Op::Dup);
                    }
                    self.code.push(Op::PutStatic(slot));
                    return Ok(if want_value { t } else { CType::Void });
                }
                if self.is_instance {
                    if let Some((slot, t)) = self.ctx.field_slot(self.class_idx as ClassId, n) {
                        self.code.push(Op::LoadLocal(0));
                        self.compile_rhs(&t, compound, Some(lhs), rhs, line)?;
                        if want_value {
                            // obj val → val obj val
                            self.code.push(Op::Dup);
                            let tmp = self.declare("<tmpv>", t.clone());
                            self.code.push(Op::StoreLocal(tmp));
                            self.code.push(Op::PutField(slot));
                            self.code.push(Op::LoadLocal(tmp));
                            return Ok(t);
                        }
                        self.code.push(Op::PutField(slot));
                        return Ok(CType::Void);
                    }
                }
                Err(VmError::compile(
                    format!("unknown assignment target `{n}`"),
                    line,
                ))
            }
            ExprKind::FieldAccess(obj, fname) => {
                // Static `Class.field = ...`?
                if let ExprKind::Name(cn) = &obj.kind {
                    if self.lookup(cn).is_none() {
                        if let Some(&cid) = self.ctx.names.get(cn.as_str()) {
                            if let Some((slot, t)) = self.ctx.static_slot(cid as usize, fname) {
                                self.compile_rhs(&t, compound, Some(lhs), rhs, line)?;
                                if want_value {
                                    self.code.push(Op::Dup);
                                }
                                self.code.push(Op::PutStatic(slot));
                                return Ok(if want_value { t } else { CType::Void });
                            }
                        }
                    }
                }
                let ot = self.expr(obj)?;
                let (slot, t) = match ot {
                    CType::Class(cid) => self.ctx.field_slot(cid, fname).ok_or_else(|| {
                        VmError::compile(format!("unknown field `{fname}`"), line)
                    })?,
                    _ => return Err(VmError::compile("field store on non-object", line)),
                };
                if compound.is_some() {
                    self.code.push(Op::Dup); // obj obj
                }
                self.compile_rhs_with_load(
                    &t,
                    compound,
                    |mc| {
                        mc.code.push(Op::GetField(slot));
                        Ok(t.clone())
                    },
                    rhs,
                    line,
                )?;
                if want_value {
                    let tmp = self.declare("<tmpv>", t.clone());
                    self.code.push(Op::Dup);
                    self.code.push(Op::StoreLocal(tmp));
                    self.code.push(Op::PutField(slot));
                    self.code.push(Op::LoadLocal(tmp));
                    return Ok(t);
                }
                self.code.push(Op::PutField(slot));
                Ok(CType::Void)
            }
            ExprKind::Index(arr, idxs) => {
                // Evaluate array ref and all but last index.
                let mut t = self.expr(arr)?;
                for i in &idxs[..idxs.len() - 1] {
                    let elem = match &t {
                        CType::Array(e) => (**e).clone(),
                        _ => return Err(VmError::compile("indexing non-array", line)),
                    };
                    let it = self.expr(i)?;
                    self.coerce(it, &CType::Prim(NumTy::I32), line)?;
                    self.code.push(Op::ArrLoad(elem.elem_kind()));
                    t = elem;
                }
                let elem = match &t {
                    CType::Array(e) => (**e).clone(),
                    _ => return Err(VmError::compile("indexing non-array", line)),
                };
                let last = idxs.last().unwrap();
                let it = self.expr(last)?;
                self.coerce(it, &CType::Prim(NumTy::I32), line)?;
                if compound.is_some() {
                    // arr idx → arr idx arr idx
                    let idx_tmp = self.declare("<tmpi>", CType::Prim(NumTy::I32));
                    let arr_tmp = self.declare("<tmpa>", CType::Array(Box::new(elem.clone())));
                    self.code.push(Op::StoreLocal(idx_tmp));
                    self.code.push(Op::StoreLocal(arr_tmp));
                    self.code.push(Op::LoadLocal(arr_tmp));
                    self.code.push(Op::LoadLocal(idx_tmp));
                    self.code.push(Op::LoadLocal(arr_tmp));
                    self.code.push(Op::LoadLocal(idx_tmp));
                }
                self.compile_rhs_with_load(
                    &elem,
                    compound,
                    |mc| {
                        mc.code.push(Op::ArrLoad(elem.elem_kind()));
                        Ok(elem.clone())
                    },
                    rhs,
                    line,
                )?;
                if want_value {
                    let tmp = self.declare("<tmpv>", elem.clone());
                    self.code.push(Op::Dup);
                    self.code.push(Op::StoreLocal(tmp));
                    self.code.push(Op::ArrStore(elem.elem_kind()));
                    self.code.push(Op::LoadLocal(tmp));
                    return Ok(elem);
                }
                self.code.push(Op::ArrStore(elem.elem_kind()));
                Ok(CType::Void)
            }
            _ => Err(VmError::compile("invalid assignment target", line)),
        }
    }

    /// RHS for simple l-values (locals/statics): for compound ops,
    /// re-compiles the l-value load itself.
    fn compile_rhs(
        &mut self,
        t: &CType,
        compound: Option<BinOp>,
        lhs: Option<&Expr>,
        rhs: Option<&Expr>,
        line: u32,
    ) -> Result<(), VmError> {
        match compound {
            None => {
                let got = self.expr_with_target(rhs.unwrap(), Some(t))?;
                self.coerce(got, t, line)?;
            }
            Some(op) => {
                // Compile `lhs op rhs` then coerce to t.
                let combined = Expr::new(
                    ExprKind::Binary(
                        op,
                        Box::new(lhs.unwrap().clone()),
                        Box::new(rhs.unwrap().clone()),
                    ),
                    lhs.unwrap().span,
                );
                let got = self.expr(&combined)?;
                self.coerce(got, t, line)?;
            }
        }
        Ok(())
    }

    /// RHS for complex l-values (fields/array slots): for compound ops
    /// the current value is loaded via `load` (operands already on
    /// stack), combined with rhs, and coerced.
    fn compile_rhs_with_load(
        &mut self,
        t: &CType,
        compound: Option<BinOp>,
        load: impl FnOnce(&mut Self) -> Result<CType, VmError>,
        rhs: Option<&Expr>,
        line: u32,
    ) -> Result<(), VmError> {
        match compound {
            None => {
                let got = self.expr_with_target(rhs.unwrap(), Some(t))?;
                self.coerce(got, t, line)?;
            }
            Some(op) => {
                let cur_t_raw = load(self)?;
                if op == BinOp::Add && (cur_t_raw == CType::Str) {
                    let _ = self.expr(rhs.unwrap())?;
                    self.code.push(Op::StrConcat);
                    return Ok(());
                }
                let cur_t = self.unbox_if_needed(cur_t_raw);
                let rt_raw = self.expr(rhs.unwrap())?;
                let rt = self.unbox_if_needed(rt_raw);
                let ty = self.promote2(&cur_t, &rt, line)?;
                let aop = match op {
                    BinOp::Add => ArithOp::Add,
                    BinOp::Sub => ArithOp::Sub,
                    BinOp::Mul => ArithOp::Mul,
                    BinOp::Div => ArithOp::Div,
                    BinOp::Rem => ArithOp::Rem,
                    BinOp::Shl => ArithOp::Shl,
                    BinOp::Shr => ArithOp::Shr,
                    BinOp::UShr => ArithOp::UShr,
                    BinOp::BitAnd => ArithOp::And,
                    BinOp::BitOr => ArithOp::Or,
                    BinOp::BitXor => ArithOp::Xor,
                    _ => return Err(VmError::compile("invalid compound operator", line)),
                };
                self.code.push(Op::Arith(aop, ty));
                self.coerce(CType::Prim(promote_result(ty)), t, line)?;
            }
        }
        Ok(())
    }

    fn incdec(
        &mut self,
        lv: &Expr,
        delta: i32,
        post: bool,
        want_value: bool,
        line: u32,
    ) -> Result<CType, VmError> {
        // Only locals get the fast path with post/pre distinction; other
        // l-values go through store_to with `+= 1`.
        if let ExprKind::Name(n) = &lv.kind {
            if let Some((slot, t)) = self.lookup(n) {
                let ty = self.numty_of(&t, line)?;
                if want_value && post {
                    self.code.push(Op::LoadLocal(slot)); // old value
                }
                self.code.push(Op::LoadLocal(slot));
                self.push_one(ty, delta);
                self.code.push(Op::Arith(ArithOp::Add, ty));
                if want_value && !post {
                    self.code.push(Op::Dup);
                }
                self.code.push(Op::StoreLocal(slot));
                return Ok(if want_value { t } else { CType::Void });
            }
        }
        // Generic path: lv ±= 1 (post-value semantics approximated by
        // pre-value + adjustment only when observed — adequate for the
        // corpus, where non-local post-inc value uses don't occur).
        let one = Expr::new(
            ExprKind::Literal(Lit::Int {
                value: 1,
                long: false,
            }),
            lv.span,
        );
        let op = if delta > 0 { BinOp::Add } else { BinOp::Sub };
        self.store_to(lv, Some(op), Some(&one), want_value, line)
    }

    fn push_one(&mut self, ty: NumTy, delta: i32) {
        let v = match ty {
            NumTy::I64 => Value::Long(delta as i64),
            NumTy::F32 => Value::Float(delta as f32),
            NumTy::F64 => Value::Double(delta as f64),
            _ => Value::Int(delta),
        };
        self.code.push(Op::Const(v));
    }

    // ---- calls & allocation ---------------------------------------------

    fn new_object(&mut self, class: &str, args: &[Expr], line: u32) -> Result<CType, VmError> {
        let simple = class.rsplit('.').next().unwrap_or(class);
        match simple {
            "StringBuilder" | "StringBuffer" => {
                self.code.push(Op::SbNew);
                if let Some(a) = args.first() {
                    let t = self.expr(a)?;
                    let _ = t;
                    self.code.push(Op::SbAppend);
                }
                return Ok(CType::Builder);
            }
            "String" => {
                if let Some(a) = args.first() {
                    let t = self.expr(a)?;
                    if t != CType::Str {
                        return Err(VmError::compile("new String(non-string)", line));
                    }
                } else {
                    self.code.push(Op::ConstStr(String::new()));
                }
                return Ok(CType::Str);
            }
            "Integer" | "Long" | "Double" | "Float" | "Short" | "Byte" | "Character"
            | "Boolean" => {
                let w = wrapper_static(simple);
                let got = self.expr(args.first().ok_or_else(|| {
                    VmError::compile("wrapper constructor needs an argument", line)
                })?)?;
                let target_prim = boxed_prim(simple);
                if let CType::Prim(f) = got {
                    if f != target_prim && f != NumTy::Bool {
                        self.code.push(Op::Convert {
                            from: f,
                            to: target_prim,
                        });
                    }
                }
                self.code.push(Op::Box(w));
                return Ok(CType::Boxed(w));
            }
            _ => {}
        }
        if let Some(&cid) = self.ctx.names.get(simple) {
            self.code.push(Op::NewObject(cid));
            let arity = args.len() as u8;
            if let Some(&ctor) = self.ctx.program.classes[cid as usize].ctors.get(&arity) {
                self.code.push(Op::Dup);
                // Parameter coercion uses the ctor signature.
                let param_types: Vec<CType> = {
                    let m = &self.ctx.program.methods;
                    let _ = m;
                    self.param_types_of(ctor)
                };
                for (i, a) in args.iter().enumerate() {
                    let want = param_types.get(i).cloned().unwrap_or(CType::RefAny);
                    let got = self.expr_with_target(a, Some(&want))?;
                    self.coerce(got, &want, line)?;
                }
                self.code.push(Op::Call {
                    method: ctor,
                    argc: arity + 1,
                });
            } else if !args.is_empty() {
                return Err(VmError::compile(
                    format!("no constructor of arity {} on `{simple}`", args.len()),
                    line,
                ));
            }
            return Ok(CType::Class(cid));
        }
        // Unknown (library) classes: model as exception-like objects so
        // `throw new RuntimeException("msg")` works.
        if let Some(a) = args.first() {
            let t = self.expr(a)?;
            if t != CType::Str {
                self.code.push(Op::Pop);
                self.code.push(Op::ConstStr(String::new()));
            }
        } else {
            self.code.push(Op::ConstStr(String::new()));
        }
        self.code.push(Op::ConstStr(simple.to_string()));
        self.code.push(Op::Swap);
        // interpreter builds Exception{class, message} from two strings
        self.code.push(Op::CallVirtual {
            name: "<makeExc>".into(),
            argc: 1,
        });
        Ok(CType::RefAny)
    }

    fn param_types_of(&self, mid: MethodId) -> Vec<CType> {
        // Re-derive parameter CTypes from the original declaration: the
        // Program's Method doesn't carry param types, so look them up in
        // the AST by class + name + arity.
        let m = &self.ctx.program.methods.get(mid as usize);
        if let Some(m) = m {
            let decl = self.ctx.decls[m.class as usize]
                .methods
                .iter()
                .find(|d| d.name == m.name && d.params.len() as u8 == m.arity);
            if let Some(d) = decl {
                return d
                    .params
                    .iter()
                    .map(|p| CType::from_ast(&p.ty, self.ctx.names))
                    .collect();
            }
        }
        Vec::new()
    }

    fn call(&mut self, e: &Expr, _target_hint: Option<&CType>) -> Result<CType, VmError> {
        let line = e.span.line;
        let (target, name, args) = match &e.kind {
            ExprKind::Call { target, name, args } => (target, name, args),
            _ => unreachable!(),
        };
        // ---- intrinsics on static pseudo-receivers ----
        if let Some(t) = target {
            if let ExprKind::Name(recv) = &t.kind {
                if self.lookup(recv).is_none() {
                    match (recv.as_str(), name.as_str()) {
                        ("Math", _) => return self.math_call(name, args, line),
                        ("System", "currentTimeMillis") => {
                            self.code.push(Op::TimeMillis);
                            return Ok(CType::Prim(NumTy::I64));
                        }
                        ("System", "arraycopy") => {
                            if args.len() != 5 {
                                return Err(VmError::compile("arraycopy needs 5 args", line));
                            }
                            for (i, a) in args.iter().enumerate() {
                                let t = self.expr(a)?;
                                if i == 1 || i == 3 || i == 4 {
                                    self.coerce(t, &CType::Prim(NumTy::I32), line)?;
                                }
                            }
                            self.code.push(Op::ArrayCopy);
                            return Ok(CType::Void);
                        }
                        ("String", "valueOf") => {
                            let _ = self.expr(&args[0])?;
                            self.code.push(Op::ConstStr(String::new()));
                            self.code.push(Op::Swap);
                            self.code.push(Op::StrConcat);
                            return Ok(CType::Str);
                        }
                        ("Integer", "parseInt") => {
                            let t = self.expr(&args[0])?;
                            if t != CType::Str {
                                return Err(VmError::compile("parseInt needs a string", line));
                            }
                            self.code.push(Op::CallVirtual {
                                name: "<parseInt>".into(),
                                argc: 0,
                            });
                            return Ok(CType::Prim(NumTy::I32));
                        }
                        ("Double", "parseDouble") => {
                            let t = self.expr(&args[0])?;
                            if t != CType::Str {
                                return Err(VmError::compile("parseDouble needs a string", line));
                            }
                            self.code.push(Op::CallVirtual {
                                name: "<parseDouble>".into(),
                                argc: 0,
                            });
                            return Ok(CType::Prim(NumTy::F64));
                        }
                        (
                            "Integer" | "Long" | "Double" | "Float" | "Short" | "Byte"
                            | "Character" | "Boolean",
                            "valueOf",
                        ) => {
                            let w = wrapper_static(recv);
                            let got = self.expr(&args[0])?;
                            let target_prim = boxed_prim(recv);
                            if let CType::Prim(f) = got {
                                if f != target_prim && f != NumTy::Bool {
                                    self.code.push(Op::Convert {
                                        from: f,
                                        to: target_prim,
                                    });
                                }
                            }
                            self.code.push(Op::Box(w));
                            return Ok(CType::Boxed(w));
                        }
                        _ => {
                            // Static method of a project class?
                            if let Some(&cid) = self.ctx.names.get(recv.as_str()) {
                                if let Some(mid) =
                                    self.ctx.program.resolve_method(cid, name, args.len() as u8)
                                {
                                    return self.emit_static_call(mid, args, line);
                                }
                            }
                        }
                    }
                }
            }
            // System.out.println pattern: target is FieldAccess(System, out).
            if let ExprKind::FieldAccess(obj, f) = &t.kind {
                if f == "out" {
                    if let ExprKind::Name(s) = &obj.kind {
                        if s == "System" && (name == "println" || name == "print") {
                            let has_arg = !args.is_empty();
                            if has_arg {
                                self.expr(&args[0])?;
                            }
                            self.code.push(Op::Print {
                                newline: name == "println",
                                has_arg,
                            });
                            return Ok(CType::Void);
                        }
                    }
                }
            }
        }
        // ---- instance-style calls ----
        match target {
            Some(t) => {
                let tt = self.expr(t)?;
                match (&tt, name.as_str()) {
                    (CType::Str, "equals") => {
                        self.expr(&args[0])?;
                        self.code.push(Op::StrEquals);
                        Ok(CType::Prim(NumTy::Bool))
                    }
                    (CType::Str, "compareTo") => {
                        self.expr(&args[0])?;
                        self.code.push(Op::StrCompareTo);
                        Ok(CType::Prim(NumTy::I32))
                    }
                    (CType::Str, "length") => {
                        self.code.push(Op::StrLength);
                        Ok(CType::Prim(NumTy::I32))
                    }
                    (CType::Str, "charAt") => {
                        let it = self.expr(&args[0])?;
                        self.coerce(it, &CType::Prim(NumTy::I32), line)?;
                        self.code.push(Op::StrCharAt);
                        Ok(CType::Prim(NumTy::Ch))
                    }
                    (CType::Str, "toString") => Ok(CType::Str),
                    (CType::Str, "hashCode") => {
                        self.code.push(Op::CallVirtual {
                            name: "<strHash>".into(),
                            argc: 0,
                        });
                        Ok(CType::Prim(NumTy::I32))
                    }
                    (CType::Str, "isEmpty") => {
                        self.code.push(Op::StrLength);
                        self.code.push(Op::Const(Value::Int(0)));
                        self.code.push(Op::Cmp(CmpOp::Eq, NumTy::I32));
                        Ok(CType::Prim(NumTy::Bool))
                    }
                    (CType::Builder, "append") => {
                        self.expr(&args[0])?;
                        self.code.push(Op::SbAppend);
                        Ok(CType::Builder)
                    }
                    (CType::Builder, "toString") => {
                        self.code.push(Op::SbToString);
                        Ok(CType::Str)
                    }
                    (CType::Builder, "length") => {
                        self.code.push(Op::SbToString);
                        self.code.push(Op::StrLength);
                        Ok(CType::Prim(NumTy::I32))
                    }
                    (CType::Boxed(w), "intValue")
                    | (CType::Boxed(w), "doubleValue")
                    | (CType::Boxed(w), "floatValue")
                    | (CType::Boxed(w), "longValue") => {
                        self.code.push(Op::Unbox);
                        let from = boxed_prim(w);
                        let to = match name.as_str() {
                            "intValue" => NumTy::I32,
                            "doubleValue" => NumTy::F64,
                            "floatValue" => NumTy::F32,
                            _ => NumTy::I64,
                        };
                        if from != to {
                            self.code.push(Op::Convert { from, to });
                        }
                        Ok(CType::Prim(to))
                    }
                    (CType::RefAny, "getMessage") => {
                        self.code.push(Op::CallVirtual {
                            name: "<excMessage>".into(),
                            argc: 0,
                        });
                        Ok(CType::Str)
                    }
                    (CType::Class(cid), _) => {
                        let cid = *cid;
                        match self.ctx.program.resolve_method(cid, name, args.len() as u8) {
                            Some(mid) => {
                                let param_types = self.param_types_of(mid);
                                for (i, a) in args.iter().enumerate() {
                                    let want = param_types.get(i).cloned().unwrap_or(CType::RefAny);
                                    let got = self.expr_with_target(a, Some(&want))?;
                                    self.coerce(got, &want, line)?;
                                }
                                // Virtual dispatch when subclasses might
                                // override; resolved at runtime.
                                self.code.push(Op::CallVirtual {
                                    name: name.clone(),
                                    argc: args.len() as u8,
                                });
                                Ok(self.ctx.method_ret(mid, cid))
                            }
                            None => Err(VmError::compile(
                                format!("unknown method `{name}/{}`", args.len()),
                                line,
                            )),
                        }
                    }
                    _ => {
                        // Dynamic fallback (RefAny receivers).
                        for a in args {
                            self.expr(a)?;
                        }
                        self.code.push(Op::CallVirtual {
                            name: name.clone(),
                            argc: args.len() as u8,
                        });
                        Ok(self.ctx.virtual_ret(name, args.len() as u8))
                    }
                }
            }
            None => {
                // Unqualified: own class (static or instance).
                let cid = self.class_idx as ClassId;
                match self.ctx.program.resolve_method(cid, name, args.len() as u8) {
                    Some(mid) => {
                        let is_instance = {
                            // method not yet compiled? Check declaration.
                            let decl = self.ctx.decls[self.class_idx]
                                .methods
                                .iter()
                                .find(|d| d.name == *name && d.params.len() == args.len());
                            match decl {
                                Some(d) => !d.modifiers.is_static,
                                None => {
                                    // inherited; check the program table
                                    self.ctx
                                        .program
                                        .methods
                                        .get(mid as usize)
                                        .map(|m| m.is_instance)
                                        .unwrap_or(false)
                                }
                            }
                        };
                        if is_instance {
                            if !self.is_instance {
                                return Err(VmError::compile(
                                    format!("instance method `{name}` called from static context"),
                                    line,
                                ));
                            }
                            self.code.push(Op::LoadLocal(0));
                            let param_types = self.param_types_of(mid);
                            for (i, a) in args.iter().enumerate() {
                                let want = param_types.get(i).cloned().unwrap_or(CType::RefAny);
                                let got = self.expr_with_target(a, Some(&want))?;
                                self.coerce(got, &want, line)?;
                            }
                            self.code.push(Op::CallVirtual {
                                name: name.clone(),
                                argc: args.len() as u8,
                            });
                            Ok(self.ctx.method_ret(mid, cid))
                        } else {
                            self.emit_static_call(mid, args, line)
                        }
                    }
                    None => Err(VmError::compile(format!("unknown method `{name}`"), line)),
                }
            }
        }
    }

    fn emit_static_call(
        &mut self,
        mid: MethodId,
        args: &[Expr],
        line: u32,
    ) -> Result<CType, VmError> {
        let param_types = self.param_types_of(mid);
        for (i, a) in args.iter().enumerate() {
            let want = param_types.get(i).cloned().unwrap_or(CType::RefAny);
            let got = self.expr_with_target(a, Some(&want))?;
            self.coerce(got, &want, line)?;
        }
        self.code.push(Op::Call {
            method: mid,
            argc: args.len() as u8,
        });
        let ret = self
            .ctx
            .program
            .methods
            .get(mid as usize)
            .map(|m| m.ret.clone());
        Ok(match ret {
            Some(t) => CType::from_ast(&t, self.ctx.names),
            None => CType::RefAny,
        })
    }

    fn math_call(&mut self, name: &str, args: &[Expr], line: u32) -> Result<CType, VmError> {
        let f = match name {
            "sqrt" => MathFn::Sqrt,
            "abs" => MathFn::Abs,
            "log" => MathFn::Log,
            "exp" => MathFn::Exp,
            "pow" => MathFn::Pow,
            "min" => MathFn::Min,
            "max" => MathFn::Max,
            "floor" => MathFn::Floor,
            "ceil" => MathFn::Ceil,
            _ => return Err(VmError::compile(format!("unknown Math.{name}"), line)),
        };
        let binary = matches!(f, MathFn::Pow | MathFn::Min | MathFn::Max);
        let expected = if binary { 2 } else { 1 };
        if args.len() != expected {
            return Err(VmError::compile(
                format!("Math.{name} expects {expected} args"),
                line,
            ));
        }
        // abs/min/max keep their operand type; others force double.
        let keeps_type = matches!(f, MathFn::Abs | MathFn::Min | MathFn::Max);
        let mut tys = Vec::new();
        for a in args {
            let t = self.numeric(a)?;
            tys.push(t);
        }
        if keeps_type {
            let ty = if binary {
                let l = self.numty_of(&tys[0], line)?;
                let r = self.numty_of(&tys[1], line)?;
                promoted(l, r)
            } else {
                self.numty_of(&tys[0], line)?
            };
            self.code.push(Op::Math(f));
            Ok(CType::Prim(ty))
        } else {
            for t in &tys {
                let ty = self.numty_of(t, line)?;
                if ty != NumTy::F64 {
                    // convert top (only correct for unary; for pow both
                    // get converted by the interpreter's as_double)
                }
            }
            self.code.push(Op::Math(f));
            Ok(CType::Prim(NumTy::F64))
        }
    }
}

fn wrapper_static(w: &str) -> &'static str {
    match w {
        "Integer" => "Integer",
        "Long" => "Long",
        "Double" => "Double",
        "Float" => "Float",
        "Short" => "Short",
        "Byte" => "Byte",
        "Character" => "Character",
        "Boolean" => "Boolean",
        _ => "Integer",
    }
}

/// Java binary numeric promotion.
fn promoted(l: NumTy, r: NumTy) -> NumTy {
    use NumTy::*;
    if l == F64 || r == F64 {
        F64
    } else if l == F32 || r == F32 {
        F32
    } else if l == I64 || r == I64 {
        I64
    } else {
        I32
    }
}

/// Result type of arithmetic at a given promoted type (narrow types
/// compute as int).
fn promote_result(t: NumTy) -> NumTy {
    use NumTy::*;
    match t {
        I8 | I16 | Ch | Bool => I32,
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str) -> Program {
        compile_source(src).unwrap_or_else(|e| panic!("{e}\nsource:\n{src}"))
    }

    #[test]
    fn compiles_minimal_main() {
        let p = compile("class Main { public static void main(String[] args) { } }");
        assert!(p.main.is_some());
        let m = &p.methods[p.main.unwrap() as usize];
        assert!(!m.is_instance);
        assert!(m.code.contains(&Op::ReturnVoid));
    }

    #[test]
    fn arithmetic_selects_typed_opcodes() {
        let p = compile(
            "class A { static int f(int a, int b) { return a % b; }
                       static double g(double a, double b) { return a * b; } }",
        );
        let f = &p.methods[0];
        assert!(f.code.contains(&Op::Arith(ArithOp::Rem, NumTy::I32)));
        let g = &p.methods[1];
        assert!(g.code.contains(&Op::Arith(ArithOp::Mul, NumTy::F64)));
    }

    #[test]
    fn numeric_promotion_int_plus_double() {
        let p = compile("class A { static double f(int a, double b) { return a + b; } }");
        assert!(p.methods[0]
            .code
            .contains(&Op::Arith(ArithOp::Add, NumTy::F64)));
    }

    #[test]
    fn string_concat_compiles_to_strconcat() {
        let p = compile("class A { static String f(String s, int n) { return s + n; } }");
        assert!(p.methods[0].code.contains(&Op::StrConcat));
    }

    #[test]
    fn stringbuilder_append_compiles_to_sbappend() {
        let p = compile(
            "class A { static String f(int n) {
                 StringBuilder sb = new StringBuilder();
                 sb.append(n);
                 return sb.toString();
             } }",
        );
        let code = &p.methods[0].code;
        assert!(code.contains(&Op::SbNew));
        assert!(code.contains(&Op::SbAppend));
        assert!(code.contains(&Op::SbToString));
    }

    #[test]
    fn static_fields_compile_to_static_ops() {
        let p = compile(
            "class A { static int counter = 0;
                       static void bump() { counter = counter + 1; } }",
        );
        let bump = p.methods.iter().find(|m| m.name == "bump").unwrap();
        assert!(bump.code.contains(&Op::GetStatic(0)));
        assert!(bump.code.contains(&Op::PutStatic(0)));
        assert_eq!(p.statics.len(), 1);
        assert_eq!(p.statics[0].qualified, "A.counter");
        assert!(!p.clinits.is_empty(), "initializer synthesized");
    }

    #[test]
    fn instance_fields_compile_to_field_ops() {
        let p = compile("class A { int x; int get() { return x; } void set(int v) { x = v; } }");
        let get = p.methods.iter().find(|m| m.name == "get").unwrap();
        assert!(get.code.contains(&Op::GetField(0)));
        let set = p.methods.iter().find(|m| m.name == "set").unwrap();
        assert!(set.code.contains(&Op::PutField(0)));
    }

    #[test]
    fn ternary_emits_join_marker() {
        let p = compile("class A { static int f(int a) { return a > 0 ? 1 : 2; } }");
        assert!(p.methods[0].code.contains(&Op::TernaryJoin));
    }

    #[test]
    fn scientific_notation_reaches_bytecode() {
        let p = compile("class A { static double f() { return 1.5e3; } }");
        assert!(p.methods[0].code.iter().any(|op| matches!(
            op,
            Op::ConstDecimal {
                scientific: true,
                ..
            }
        )));
        let q = compile("class A { static double f() { return 1500.0; } }");
        assert!(q.methods[0].code.iter().any(|op| matches!(
            op,
            Op::ConstDecimal {
                scientific: false,
                ..
            }
        )));
    }

    #[test]
    fn arraycopy_intrinsic() {
        let p = compile(
            "class A { static void f(int[] a, int[] b) {
                 System.arraycopy(a, 0, b, 0, a.length);
             } }",
        );
        assert!(p.methods[0].code.contains(&Op::ArrayCopy));
    }

    #[test]
    fn compile_errors_report_lines() {
        let err = compile_source("class A {\n static void f() {\n  y = 3;\n } }").unwrap_err();
        match err {
            VmError::Compile { line, .. } => assert_eq!(line, 3),
            e => panic!("{e}"),
        }
    }

    #[test]
    fn break_outside_loop_is_rejected() {
        let err = compile_source("class A { static void f() { break; } }").unwrap_err();
        assert!(matches!(err, VmError::Compile { .. }));
    }

    #[test]
    fn boxing_on_wrapper_assignment() {
        let p = compile("class A { static void f() { Integer x = 5; Double d = 2.5; } }");
        let code = &p.methods[0].code;
        assert!(code.contains(&Op::Box("Integer")));
        assert!(code.contains(&Op::Box("Double")));
    }

    #[test]
    fn constructors_and_new() {
        let p = compile(
            "class Point { int x; int y;
               Point(int x, int y) { this.x = x; this.y = y; }
               static Point origin() { return new Point(0, 0); } }",
        );
        let origin = p.methods.iter().find(|m| m.name == "origin").unwrap();
        assert!(origin.code.iter().any(|o| matches!(o, Op::NewObject(_))));
        assert!(origin.code.iter().any(|o| matches!(o, Op::Call { .. })));
    }

    #[test]
    fn try_catch_compiles_with_handler() {
        let p = compile(
            "class A { static int f() {
                 try { return 1; } catch (Exception e) { return 2; }
             } }",
        );
        assert!(p.methods[0]
            .code
            .iter()
            .any(|o| matches!(o, Op::TryEnter { .. })));
    }

    #[test]
    fn instance_field_initializers_run_in_ctor() {
        let p = compile("class A { int x = 42; A() { } }");
        let ctor = p.methods.iter().find(|m| m.name == "A").unwrap();
        assert!(ctor.code.contains(&Op::PutField(0)));
    }

    #[test]
    fn switch_compiles_with_dispatch_and_breaks() {
        let p = compile(
            "class A { static int f(int n) {
                 int r = 0;
                 switch (n) { case 1: r = 10; break; case 2: r = 20; break; default: r = -1; }
                 return r;
             } }",
        );
        let code = &p.methods[0].code;
        assert!(code.iter().any(|o| matches!(o, Op::Cmp(CmpOp::Eq, _))));
    }

    #[test]
    fn inheritance_resolves_parent_methods() {
        let p = compile(
            "class Base { int f() { return 1; } }
             class Derived extends Base { int g() { return f(); } }",
        );
        let d = p.class_by_name("Derived").unwrap();
        assert!(p.resolve_method(d, "f", 0).is_some());
    }
}
