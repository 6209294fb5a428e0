//! Interprocedural analysis: call graph, summaries, energy, dep hashes.
//!
//! The paper's Table I matcher and the flow layer (PR 3) are strictly
//! intraprocedural: an allocation buried in a helper invoked from a hot
//! loop is invisible. Following EnCoDe's bottom-up static cost models,
//! this module builds whole-program facts over a [`JavaProject`]:
//!
//! 1. **Call graph** — one node per method, edges from every call site
//!    to its possible targets. Unqualified and `this.m(...)` calls
//!    resolve through the receiver class's `extends` chain;
//!    `ClassName.m(...)` resolves in that chain; calls through a typed
//!    local/param/field use CHA (the static type's chain *plus* every
//!    subtype override); `new C(...)` edges into `C`'s explicit
//!    constructor. Anything else (library calls beyond a small
//!    intrinsic table, call-on-call receivers) marks the caller
//!    `calls_unknown`.
//! 2. **SCC condensation** — iterative Tarjan. SCCs are emitted
//!    callees-first (reverse topological order), so recursion —
//!    including mutual recursion — collapses into components processed
//!    as a unit.
//! 3. **Bottom-up summaries** — per-method [`MethodSummary`]: purity
//!    and side-effect bits, trip-weighted allocation / string-concat /
//!    expensive-op counts per call, parameter/return escape facts, and
//!    an EnCoDe-style static energy estimate (summary cost × CFG
//!    trip-count products, propagated up the call graph). Within an
//!    SCC the members iterate to a capped monotone fixpoint (numeric
//!    facts only grow and saturate at [`ENERGY_CAP`]).
//! 4. **Dependency hashes** — per file, a fingerprint of every resolved
//!    call edge leaving the file *and the final summary of its target*.
//!    Because final summaries already fold in their own callees, a
//!    change anywhere in the transitive callee set changes the caller
//!    file's `dep_hash`, which is exactly the dirty set the incremental
//!    engine needs ([`crate::engine`]): dirty = content changed **or**
//!    dep hash changed.
//!
//! Everything here is deterministic: files and methods are visited in
//! project order, target lists are sorted, and the fixpoint saturates.

use crate::cache::fnv1a64;
use crate::dataflow::DEFAULT_TRIP_ESTIMATE;
use crate::suggestion::JavaComponent;
use jepo_jlang::{
    AssignOp, BinOp, ClassDecl, CompilationUnit, Expr, ExprKind, JavaProject, Lit, MethodDecl,
    Stmt, StmtKind, Type, UnaryOp,
};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Saturation cap for every numeric summary fact (counts and energy).
/// Recursive cycles would otherwise diverge under trip weighting.
pub const ENERGY_CAP: f64 = 1e12;

/// Fixpoint iteration bound within one SCC. Boolean facts converge in
/// `|scc|` rounds; saturating numeric facts converge or hit the cap.
const SCC_ITER_CAP: usize = 32;

// Static per-operation energy weights, scaled off Table I's worst-case
// factors — the same constants the rules price with.
const COST_BASIC: f64 = 1.0;
const COST_EXPENSIVE: f64 = 17.2;
const COST_CONCAT: f64 = 8.8;
const COST_ALLOC: f64 = 42.0;
const COST_ARRAYCOPY: f64 = 7.4;
const COST_STRING_OP: f64 = 1.33;
const COST_IO: f64 = 100.0;
/// Frame setup/teardown charged per call expression.
const COST_CALL: f64 = 5.0;

/// Identity of one method in the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodRef {
    /// Index into [`JavaProject::files`].
    pub file: usize,
    /// Declaring class simple name.
    pub class: String,
    /// Method name (constructors share the class name).
    pub name: String,
    /// Parameter count.
    pub arity: usize,
    /// Declaration line.
    pub line: u32,
}

/// Bottom-up facts about one method, folded over its transitive
/// callees.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodSummary {
    /// No field/static writes, no IO, no unresolved calls — anywhere in
    /// the transitive call tree.
    pub pure: bool,
    /// Writes a field, a static, an array element, or through a
    /// reference argument.
    pub writes_fields: bool,
    /// Performs output (`System.out.*`).
    pub does_io: bool,
    /// Contains a `throw` (directly or via a callee).
    pub throws: bool,
    /// Contains a call this analysis could not resolve.
    pub calls_unknown: bool,
    /// Trip-weighted `new` / array allocations per invocation.
    pub allocs_per_call: f64,
    /// Trip-weighted `String +` concatenations per invocation.
    pub concats_per_call: f64,
    /// Trip-weighted expensive ops (`%`, `/`, `Math.*`) per invocation.
    pub expensive_per_call: f64,
    /// EnCoDe-style static energy estimate per invocation.
    pub energy: f64,
    /// Per-parameter escape bit: the argument may outlive the call
    /// (stored to a field, returned, captured by an allocation, or
    /// passed to an unresolved callee).
    pub param_escapes: Vec<bool>,
    /// The return value may be a fresh allocation.
    pub returns_alloc: bool,
}

impl MethodSummary {
    fn local(arity: usize) -> MethodSummary {
        MethodSummary {
            pure: true,
            writes_fields: false,
            does_io: false,
            throws: false,
            calls_unknown: false,
            allocs_per_call: 0.0,
            concats_per_call: 0.0,
            expensive_per_call: 0.0,
            energy: 0.0,
            param_escapes: vec![false; arity],
            returns_alloc: false,
        }
    }

    fn refresh_purity(&mut self) {
        self.pure = !(self.writes_fields || self.does_io || self.calls_unknown);
    }

    /// Stable fingerprint of every rule-relevant fact. Feeds the
    /// per-file dependency hash; deliberately excludes source position
    /// so a callee edit that leaves behavior unchanged (comment, rev
    /// literal) does not dirty callers.
    pub fn fingerprint(&self) -> u64 {
        let mut s = String::with_capacity(96);
        s.push_str(if self.pure { "p" } else { "i" });
        s.push_str(if self.writes_fields { "w" } else { "-" });
        s.push_str(if self.does_io { "o" } else { "-" });
        s.push_str(if self.throws { "t" } else { "-" });
        s.push_str(if self.calls_unknown { "u" } else { "-" });
        s.push_str(if self.returns_alloc { "r" } else { "-" });
        for b in &self.param_escapes {
            s.push(if *b { 'e' } else { '.' });
        }
        for v in [
            self.allocs_per_call,
            self.concats_per_call,
            self.expensive_per_call,
            self.energy,
        ] {
            s.push_str(&format!(";{:016x}", v.to_bits()));
        }
        fnv1a64(s.as_bytes())
    }
}

/// One resolved call site inside a method body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Source line of the call expression.
    pub line: u32,
    /// Called method name (constructor sites use the class name).
    pub name: String,
    /// Argument count.
    pub arity: usize,
    /// Trip product of the loops enclosing the site inside its method
    /// (structural estimate; `1.0` outside loops).
    pub trip: f64,
    /// Simple names read by the receiver and arguments (sorted,
    /// deduplicated) — the invariance test set for hoisting rules.
    pub arg_names: Vec<String>,
    /// Positions of the *caller's* parameters mentioned in the
    /// arguments (escape propagation).
    pub arg_params: Vec<usize>,
    /// Resolved target methods (sorted global indices; non-empty).
    pub targets: Vec<usize>,
}

/// Ranked row of the per-method energy view.
#[derive(Debug, Clone)]
pub struct MethodEnergy {
    /// File the method lives in.
    pub file: String,
    /// `Class.method` display name.
    pub method: String,
    /// Declaration line.
    pub line: u32,
    /// Static energy estimate per invocation.
    pub energy: f64,
    /// Purity bit from the summary.
    pub pure: bool,
}

/// Whole-program interprocedural facts. Built once per analysis run
/// (single-threaded, deterministic), then shared read-only across
/// per-file rule workers.
#[derive(Debug)]
pub struct ProgramFacts {
    file_names: Vec<String>,
    methods: Vec<MethodRef>,
    summaries: Vec<MethodSummary>,
    sites: Vec<Vec<CallSite>>,
    by_file: Vec<Vec<usize>>,
    scc_of: Vec<usize>,
    dep_hashes: Vec<u64>,
    dep_files: Vec<BTreeSet<String>>,
}

impl ProgramFacts {
    /// Build facts for a whole project.
    pub fn build(project: &JavaProject) -> ProgramFacts {
        let units: Vec<(&str, &CompilationUnit)> = project
            .files()
            .iter()
            .map(|f| (f.name.as_str(), &f.unit))
            .collect();
        ProgramFacts::build_units(&units)
    }

    /// Build facts for a single unit (standalone `analyze_unit` use).
    pub fn build_single(file: &str, unit: &CompilationUnit) -> ProgramFacts {
        ProgramFacts::build_units(&[(file, unit)])
    }

    fn build_units(units: &[(&str, &CompilationUnit)]) -> ProgramFacts {
        let index = ClassIndex::build(units);

        // Pass 1: flatten methods in project order; build the global
        // `(class, name, arity) → index` map (first declaration wins,
        // matching the class index).
        let mut methods = Vec::new();
        let mut by_file = vec![Vec::new(); units.len()];
        let mut method_map: HashMap<String, usize> = HashMap::new();
        for (fi, (_, unit)) in units.iter().enumerate() {
            for class in &unit.types {
                for m in &class.methods {
                    let idx = methods.len();
                    by_file[fi].push(idx);
                    method_map
                        .entry(method_key(&class.name, &m.name, m.params.len()))
                        .or_insert(idx);
                    methods.push(MethodRef {
                        file: fi,
                        class: class.name.clone(),
                        name: m.name.clone(),
                        arity: m.params.len(),
                        line: m.span.line,
                    });
                }
            }
        }

        // Pass 2: local summaries + resolved call sites per method.
        let mut locals = Vec::with_capacity(methods.len());
        let mut sites: Vec<Vec<CallSite>> = Vec::with_capacity(methods.len());
        for (_, unit) in units.iter().map(|&(n, u)| (n, u)) {
            for class in &unit.types {
                for m in &class.methods {
                    let (summary, ss) = summarize_method(&index, &method_map, class, m);
                    locals.push(summary);
                    sites.push(ss);
                }
            }
        }

        // Pass 3: SCC condensation of the call graph.
        let succ: Vec<Vec<usize>> = sites
            .iter()
            .map(|ss| {
                let mut out: Vec<usize> =
                    ss.iter().flat_map(|s| s.targets.iter().copied()).collect();
                out.sort_unstable();
                out.dedup();
                out
            })
            .collect();
        let (sccs, scc_of) = tarjan_sccs(&succ);

        // Pass 4: bottom-up propagation, callees first.
        let mut summaries = locals.clone();
        for scc in &sccs {
            let cyclic = scc.len() > 1 || succ[scc[0]].contains(&scc[0]);
            if !cyclic {
                let m = scc[0];
                summaries[m] = apply_calls(&locals[m], &sites[m], &summaries);
                continue;
            }
            for _ in 0..SCC_ITER_CAP {
                let mut changed = false;
                for &m in scc {
                    let next = apply_calls(&locals[m], &sites[m], &summaries);
                    if next != summaries[m] {
                        summaries[m] = next;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
        }

        // Pass 5: per-file dependency hashes over final summaries.
        let file_names: Vec<String> = units.iter().map(|(n, _)| n.to_string()).collect();
        let mut dep_hashes = Vec::with_capacity(units.len());
        let mut dep_files = Vec::with_capacity(units.len());
        for (fi, mids) in by_file.iter().enumerate() {
            let mut acc = String::new();
            let mut deps = BTreeSet::new();
            for &mi in mids {
                for site in &sites[mi] {
                    acc.push_str(&format!(
                        "c;{};{};{};",
                        site.name,
                        site.arity,
                        site.targets.len()
                    ));
                    for &t in &site.targets {
                        let tr = &methods[t];
                        acc.push_str(&format!(
                            "t;{};{};{};{};{:016x};",
                            file_names[tr.file],
                            tr.class,
                            tr.name,
                            tr.arity,
                            summaries[t].fingerprint()
                        ));
                        if tr.file != fi {
                            deps.insert(file_names[tr.file].clone());
                        }
                    }
                }
                // Unresolved-call pessimism is part of the summary
                // fingerprint already (calls_unknown), so the hash only
                // needs resolved edges.
            }
            dep_hashes.push(fnv1a64(acc.as_bytes()));
            dep_files.push(deps);
        }

        ProgramFacts {
            file_names,
            methods,
            summaries,
            sites,
            by_file,
            scc_of,
            dep_hashes,
            dep_files,
        }
    }

    /// All methods, in project order.
    pub fn methods(&self) -> &[MethodRef] {
        &self.methods
    }

    /// Final summary of method `idx`.
    pub fn summary(&self, idx: usize) -> &MethodSummary {
        &self.summaries[idx]
    }

    /// Call sites of method `idx`, in source order.
    pub fn sites_of(&self, idx: usize) -> &[CallSite] {
        &self.sites[idx]
    }

    /// Method indices declared in file `fi`.
    pub fn methods_in_file(&self, fi: usize) -> &[usize] {
        &self.by_file[fi]
    }

    /// SCC index of method `idx`, in emission (reverse topological,
    /// callees-first) order.
    pub fn scc_of(&self, idx: usize) -> usize {
        self.scc_of[idx]
    }

    /// Dependency hash of file `fi`: changes whenever the resolved
    /// target set of any call in the file changes, or any target's
    /// (transitively folded) summary changes.
    pub fn dep_hash(&self, fi: usize) -> u64 {
        self.dep_hashes[fi]
    }

    /// Names of *other* files this file's results depended on.
    pub fn dep_files(&self, fi: usize) -> &BTreeSet<String> {
        &self.dep_files[fi]
    }

    /// Impact weight for an interprocedural suggestion at `(fi, line)`:
    /// the worst per-call count the matching callee summaries carry for
    /// `component`, floored at 1 so the base factor survives.
    pub fn callee_weight(&self, fi: usize, line: u32, component: JavaComponent) -> f64 {
        let mut w: f64 = 0.0;
        for &mi in &self.by_file[fi] {
            for site in self.sites[mi].iter().filter(|s| s.line == line) {
                for &t in &site.targets {
                    let s = &self.summaries[t];
                    let v = match component {
                        JavaComponent::CalleeAllocationInLoop => s.allocs_per_call,
                        JavaComponent::CalleeStringConcat => s.concats_per_call,
                        JavaComponent::InvariantPureCall => s.expensive_per_call,
                        _ => 0.0,
                    };
                    w = w.max(v);
                }
            }
        }
        w.max(1.0)
    }

    /// Per-method static energy estimates, ranked: energy descending,
    /// then `(file, line, method)` — a deterministic total order.
    pub fn energy_ranking(&self) -> Vec<MethodEnergy> {
        let mut out: Vec<MethodEnergy> = self
            .methods
            .iter()
            .enumerate()
            .map(|(i, m)| MethodEnergy {
                file: self.file_names[m.file].clone(),
                method: format!("{}.{}", m.class, m.name),
                line: m.line,
                energy: self.summaries[i].energy,
                pure: self.summaries[i].pure,
            })
            .collect();
        out.sort_by(|a, b| {
            b.energy
                .total_cmp(&a.energy)
                .then_with(|| a.file.cmp(&b.file))
                .then_with(|| a.line.cmp(&b.line))
                .then_with(|| a.method.cmp(&b.method))
        });
        out
    }
}

fn method_key(class: &str, name: &str, arity: usize) -> String {
    format!("{class}#{name}#{arity}")
}

// ---- class hierarchy -----------------------------------------------------

/// Classes by simple name, plus the inverted `extends` edges CHA needs.
struct ClassIndex<'a> {
    /// Simple name → class decl. First declaration wins.
    classes: HashMap<&'a str, &'a ClassDecl>,
    /// Superclass simple name → direct subclasses (sorted).
    subclasses: HashMap<&'a str, Vec<&'a str>>,
}

impl<'a> ClassIndex<'a> {
    fn build(units: &[(&'a str, &'a CompilationUnit)]) -> ClassIndex<'a> {
        let mut classes = HashMap::new();
        let mut subclasses: HashMap<&str, Vec<&str>> = HashMap::new();
        for (_, unit) in units {
            for class in &unit.types {
                classes.entry(class.name.as_str()).or_insert(class);
                if let Some(sup) = &class.extends {
                    subclasses
                        .entry(sup.as_str())
                        .or_default()
                        .push(class.name.as_str());
                }
            }
        }
        for subs in subclasses.values_mut() {
            subs.sort_unstable();
            subs.dedup();
        }
        ClassIndex {
            classes,
            subclasses,
        }
    }

    fn contains(&self, name: &str) -> bool {
        self.classes.contains_key(name)
    }

    /// Resolve `(name, arity)` walking `class`'s `extends` chain;
    /// returns the declaring class name.
    fn resolve_in_chain(&self, class: &str, name: &str, arity: usize) -> Option<&'a str> {
        let mut cur = Some(class);
        let mut hops = 0;
        while let Some(cn) = cur {
            let decl = *self.classes.get(cn)?;
            if decl
                .methods
                .iter()
                .any(|m| m.name == name && m.params.len() == arity)
            {
                return Some(decl.name.as_str());
            }
            cur = decl.extends.as_deref();
            hops += 1;
            if hops > 64 {
                return None; // cyclic extends — malformed input
            }
        }
        None
    }

    /// CHA: the chain resolution for the static type, plus overrides in
    /// every (transitive) subclass of it. Returns declaring class names,
    /// sorted.
    fn cha_targets(&self, static_ty: &str, name: &str, arity: usize) -> Vec<&'a str> {
        let mut out = Vec::new();
        if let Some(cn) = self.resolve_in_chain(static_ty, name, arity) {
            out.push(cn);
        }
        let mut stack = vec![static_ty];
        let mut seen = HashSet::new();
        while let Some(cn) = stack.pop() {
            if !seen.insert(cn.to_string()) {
                continue;
            }
            if let Some(subs) = self.subclasses.get(cn) {
                for &sub in subs {
                    if let Some(decl) = self.classes.get(sub) {
                        if decl
                            .methods
                            .iter()
                            .any(|m| m.name == name && m.params.len() == arity)
                        {
                            out.push(decl.name.as_str());
                        }
                    }
                    stack.push(sub);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

// ---- local summarization -------------------------------------------------

/// Method names treated as pure, cheap intrinsics on any receiver.
const PURE_INTRINSICS: &[&str] = &[
    "equals",
    "compareTo",
    "length",
    "charAt",
    "isEmpty",
    "indexOf",
    "substring",
    "contains",
    "hashCode",
    "toString",
    "parseInt",
    "parseDouble",
    "valueOf",
    "intValue",
    "doubleValue",
];

/// Intrinsics that mutate their receiver or an argument.
const MUTATING_INTRINSICS: &[&str] = &["append", "setLength", "arraycopy", "setCharAt"];

struct Walker<'a> {
    index: &'a ClassIndex<'a>,
    method_map: &'a HashMap<String, usize>,
    own_class: &'a str,
    /// Local/param/field name → declared class simple name (project
    /// reference types only).
    typed: HashMap<String, String>,
    /// String-typed names in scope (fields, params, locals).
    strings: HashSet<String>,
    /// Local + param names (anything else written is a field).
    local_names: HashSet<String>,
    /// Param name → position.
    params: HashMap<String, usize>,
    /// Locals ever assigned a fresh allocation.
    alloc_locals: HashSet<String>,
    summary: MethodSummary,
    sites: Vec<CallSite>,
}

fn class_of_type(ty: &Type) -> Option<&str> {
    match ty {
        Type::Class(n, _) => Some(n.rsplit('.').next().unwrap_or(n)),
        _ => None,
    }
}

fn summarize_method(
    index: &ClassIndex,
    method_map: &HashMap<String, usize>,
    class: &ClassDecl,
    m: &MethodDecl,
) -> (MethodSummary, Vec<CallSite>) {
    let mut w = Walker {
        index,
        method_map,
        own_class: &class.name,
        typed: HashMap::new(),
        strings: HashSet::new(),
        local_names: HashSet::new(),
        params: HashMap::new(),
        alloc_locals: HashSet::new(),
        summary: MethodSummary::local(m.params.len()),
        sites: Vec::new(),
    };
    // Fields: string-typed names feed concat detection; project-typed
    // reference fields are usable as virtual receivers.
    for f in &class.fields {
        if matches!(&f.ty, Type::Class(n, _) if n == "String") {
            w.strings.insert(f.name.clone());
        } else if let Some(cn) = class_of_type(&f.ty) {
            if index.contains(cn) {
                w.typed.insert(f.name.clone(), cn.to_string());
            }
        }
    }
    for (pi, p) in m.params.iter().enumerate() {
        w.local_names.insert(p.name.clone());
        w.params.insert(p.name.clone(), pi);
        if matches!(&p.ty, Type::Class(n, _) if n == "String") {
            w.strings.insert(p.name.clone());
        } else if let Some(cn) = class_of_type(&p.ty) {
            if index.contains(cn) {
                w.typed.insert(p.name.clone(), cn.to_string());
            }
        }
    }
    if let Some(body) = &m.body {
        for s in &body.stmts {
            w.walk_stmt(s, 1.0);
        }
    }
    w.summary.refresh_purity();
    w.sites.sort_by(|a, b| {
        a.line
            .cmp(&b.line)
            .then_with(|| a.name.cmp(&b.name))
            .then_with(|| a.arity.cmp(&b.arity))
    });
    (w.summary, w.sites)
}

impl Walker<'_> {
    fn charge(&mut self, cost: f64, trip: f64) {
        self.summary.energy = (self.summary.energy + cost * trip).min(ENERGY_CAP);
    }

    fn count_alloc(&mut self, trip: f64) {
        self.summary.allocs_per_call = (self.summary.allocs_per_call + trip).min(ENERGY_CAP);
        self.charge(COST_ALLOC, trip);
    }

    fn count_concat(&mut self, trip: f64) {
        self.summary.concats_per_call = (self.summary.concats_per_call + trip).min(ENERGY_CAP);
        self.charge(COST_CONCAT, trip);
    }

    fn count_expensive(&mut self, trip: f64) {
        self.summary.expensive_per_call = (self.summary.expensive_per_call + trip).min(ENERGY_CAP);
        self.charge(COST_EXPENSIVE, trip);
    }

    fn declare_local(&mut self, name: &str, ty: &Type) {
        self.local_names.insert(name.to_string());
        if matches!(ty, Type::Class(n, _) if n == "String") {
            self.strings.insert(name.to_string());
        } else if let Some(cn) = class_of_type(ty) {
            if self.index.contains(cn) {
                self.typed.insert(name.to_string(), cn.to_string());
            }
        }
    }

    fn loop_trip(&self, base: f64, est: Option<u64>) -> f64 {
        (base * est.unwrap_or(DEFAULT_TRIP_ESTIMATE) as f64).min(ENERGY_CAP)
    }

    fn walk_stmt(&mut self, s: &Stmt, trip: f64) {
        match &s.kind {
            StmtKind::Local { ty, vars, .. } => {
                for (name, _, init) in vars {
                    self.declare_local(name, ty);
                    if let Some(e) = init {
                        self.walk_expr(e, trip);
                        if contains_alloc(e) {
                            self.alloc_locals.insert(name.clone());
                        }
                    }
                }
            }
            StmtKind::Expr(e) => self.walk_expr(e, trip),
            StmtKind::If { cond, then, els } => {
                self.walk_expr(cond, trip);
                self.walk_stmt(then, trip);
                if let Some(e) = els {
                    self.walk_stmt(e, trip);
                }
            }
            StmtKind::While { cond, body } => {
                let t = self.loop_trip(trip, None);
                self.walk_expr(cond, t);
                self.walk_stmt(body, t);
            }
            StmtKind::DoWhile { body, cond } => {
                let t = self.loop_trip(trip, None);
                self.walk_stmt(body, t);
                self.walk_expr(cond, t);
            }
            StmtKind::For {
                init,
                cond,
                update,
                body,
            } => {
                for i in init {
                    self.walk_stmt(i, trip);
                }
                let est = crate::cfg::for_trip_estimate(init, cond.as_ref(), update);
                let t = self.loop_trip(trip, est);
                if let Some(c) = cond {
                    self.walk_expr(c, t);
                }
                for u in update {
                    self.walk_expr(u, t);
                }
                self.walk_stmt(body, t);
            }
            StmtKind::ForEach {
                ty,
                name,
                iter,
                body,
            } => {
                self.walk_expr(iter, trip);
                self.declare_local(name, ty);
                let t = self.loop_trip(trip, None);
                self.walk_stmt(body, t);
            }
            StmtKind::Switch { scrutinee, cases } => {
                self.walk_expr(scrutinee, trip);
                for case in cases {
                    for label in case.labels.iter().flatten() {
                        self.walk_expr(label, trip);
                    }
                    for st in &case.body {
                        self.walk_stmt(st, trip);
                    }
                }
            }
            StmtKind::Return(e) => {
                if let Some(e) = e {
                    self.walk_expr(e, trip);
                    if contains_alloc(e) {
                        self.summary.returns_alloc = true;
                    }
                    for n in e.collect_names() {
                        if self.alloc_locals.contains(&n) {
                            self.summary.returns_alloc = true;
                        }
                    }
                    // A param escapes via return only when the reference
                    // itself is handed back (`return buf`, possibly
                    // through a cast) — `return x + 1` computes a value.
                    let mut ret = e;
                    while let ExprKind::Cast(_, inner) = &ret.kind {
                        ret = inner;
                    }
                    if let ExprKind::Name(n) = &ret.kind {
                        if let Some(&pi) = self.params.get(n) {
                            self.summary.param_escapes[pi] = true;
                        }
                    }
                }
            }
            StmtKind::Throw(e) => {
                self.summary.throws = true;
                self.walk_expr(e, trip);
            }
            StmtKind::Try {
                body,
                catches,
                finally,
            } => {
                for st in &body.stmts {
                    self.walk_stmt(st, trip);
                }
                for (_, binder, block) in catches {
                    self.local_names.insert(binder.clone());
                    for st in &block.stmts {
                        self.walk_stmt(st, trip);
                    }
                }
                if let Some(block) = finally {
                    for st in &block.stmts {
                        self.walk_stmt(st, trip);
                    }
                }
            }
            StmtKind::Block(b) => {
                for st in &b.stmts {
                    self.walk_stmt(st, trip);
                }
            }
            StmtKind::Synchronized(e, b) => {
                self.walk_expr(e, trip);
                for st in &b.stmts {
                    self.walk_stmt(st, trip);
                }
            }
            StmtKind::Break | StmtKind::Continue | StmtKind::Empty => {}
        }
    }

    /// Whether `lhs` (an assignment target) writes beyond the local
    /// frame.
    fn is_field_write(&self, lhs: &Expr) -> bool {
        match &lhs.kind {
            ExprKind::Name(n) => !self.local_names.contains(n),
            ExprKind::FieldAccess(_, _) => true,
            // Array-element store: conservatively non-local (the array
            // may be shared or escape) — keeps hoisting facts sound.
            ExprKind::Index(_, _) => true,
            _ => false,
        }
    }

    fn note_write(&mut self, lhs: &Expr, rhs_names: &[String]) {
        if self.is_field_write(lhs) {
            self.summary.writes_fields = true;
            for n in rhs_names {
                if let Some(&pi) = self.params.get(n) {
                    self.summary.param_escapes[pi] = true;
                }
            }
        }
    }

    fn walk_expr(&mut self, e: &Expr, trip: f64) {
        match &e.kind {
            ExprKind::Assign(lhs, op, rhs) => {
                let rhs_names = rhs.collect_names();
                self.note_write(lhs, &rhs_names);
                if let ExprKind::Name(n) = &lhs.kind {
                    if contains_alloc(rhs) {
                        self.alloc_locals.insert(n.clone());
                    }
                    if self.strings.contains(n) && matches!(op, AssignOp::Compound(BinOp::Add)) {
                        self.count_concat(trip);
                    }
                }
                self.walk_expr(lhs, trip);
                self.walk_expr(rhs, trip);
            }
            ExprKind::Unary(op, inner) => {
                if matches!(
                    op,
                    UnaryOp::PreInc | UnaryOp::PreDec | UnaryOp::PostInc | UnaryOp::PostDec
                ) {
                    self.note_write(inner, &[]);
                }
                self.charge(COST_BASIC, trip);
                self.walk_expr(inner, trip);
            }
            ExprKind::Binary(op, l, r) => {
                match op {
                    BinOp::Add if self.is_stringish(l) || self.is_stringish(r) => {
                        self.count_concat(trip)
                    }
                    BinOp::Rem | BinOp::Div => self.count_expensive(trip),
                    _ => self.charge(COST_BASIC, trip),
                }
                self.walk_expr(l, trip);
                self.walk_expr(r, trip);
            }
            ExprKind::Ternary(c, a, b) => {
                self.charge(COST_BASIC, trip);
                self.walk_expr(c, trip);
                self.walk_expr(a, trip);
                self.walk_expr(b, trip);
            }
            ExprKind::New { class, args } => {
                self.count_alloc(trip);
                for a in args {
                    self.walk_expr(a, trip);
                    // Captured by the new object: ctor args escape.
                    for n in a.collect_names() {
                        if let Some(&pi) = self.params.get(&n) {
                            self.summary.param_escapes[pi] = true;
                        }
                    }
                }
                // Constructor edge when the class declares one
                // (constructors are not inherited; no CHA).
                let short = class.rsplit('.').next().unwrap_or(class);
                if let Some(&idx) = self.method_map.get(&method_key(short, short, args.len())) {
                    self.record_site(e.span.line, short, args, None, trip, vec![idx]);
                }
            }
            ExprKind::NewArray { dims, .. } => {
                self.count_alloc(trip);
                for d in dims {
                    self.walk_expr(d, trip);
                }
            }
            ExprKind::ArrayInit(items) => {
                self.count_alloc(trip);
                for it in items {
                    self.walk_expr(it, trip);
                }
            }
            ExprKind::Call { target, name, args } => {
                self.walk_call(e, target.as_deref(), name, args, trip);
            }
            ExprKind::FieldAccess(base, _) => {
                self.charge(COST_BASIC, trip);
                self.walk_expr(base, trip);
            }
            ExprKind::Index(base, idx) => {
                self.charge(COST_BASIC, trip);
                self.walk_expr(base, trip);
                for i in idx {
                    self.walk_expr(i, trip);
                }
            }
            ExprKind::Cast(_, inner) | ExprKind::InstanceOf(inner, _) => {
                self.charge(COST_BASIC, trip);
                self.walk_expr(inner, trip);
            }
            ExprKind::Literal(_) | ExprKind::Name(_) | ExprKind::This => {}
        }
    }

    fn is_stringish(&self, e: &Expr) -> bool {
        match &e.kind {
            ExprKind::Literal(Lit::Str(_)) => true,
            ExprKind::Name(n) => self.strings.contains(n),
            ExprKind::Binary(BinOp::Add, l, r) => self.is_stringish(l) || self.is_stringish(r),
            _ => false,
        }
    }

    fn record_site(
        &mut self,
        line: u32,
        name: &str,
        args: &[Expr],
        receiver: Option<&Expr>,
        trip: f64,
        mut targets: Vec<usize>,
    ) {
        targets.sort_unstable();
        targets.dedup();
        let mut arg_names: Vec<String> = args.iter().flat_map(|a| a.collect_names()).collect();
        if let Some(r) = receiver {
            arg_names.extend(r.collect_names());
        }
        arg_names.sort_unstable();
        arg_names.dedup();
        let mut arg_params: Vec<usize> = args
            .iter()
            .flat_map(|a| a.collect_names())
            .filter_map(|n| self.params.get(&n).copied())
            .collect();
        arg_params.sort_unstable();
        arg_params.dedup();
        self.sites.push(CallSite {
            line,
            name: name.to_string(),
            arity: args.len(),
            trip,
            arg_names,
            arg_params,
            targets,
        });
    }

    fn resolve_classes(&self, classes: &[&str], name: &str, arity: usize) -> Vec<usize> {
        classes
            .iter()
            .filter_map(|cn| self.method_map.get(&method_key(cn, name, arity)).copied())
            .collect()
    }

    fn walk_call(&mut self, e: &Expr, target: Option<&Expr>, name: &str, args: &[Expr], trip: f64) {
        for a in args {
            self.walk_expr(a, trip);
        }
        if let Some(t) = target {
            self.walk_expr(t, trip);
        }
        self.charge(COST_CALL, trip);

        enum Recv {
            Own,
            Static(String),
            Typed(String),
            Io,
            Math,
            Other,
        }
        let recv = match target {
            None => Recv::Own,
            Some(t) => match &t.kind {
                ExprKind::This => Recv::Own,
                ExprKind::Name(n) if n == "Math" && !self.index.contains("Math") => Recv::Math,
                ExprKind::Name(n) => {
                    if let Some(cn) = self.typed.get(n) {
                        Recv::Typed(cn.clone())
                    } else if self.index.contains(n) && !self.local_names.contains(n) {
                        Recv::Static(n.clone())
                    } else {
                        Recv::Other
                    }
                }
                ExprKind::FieldAccess(base, field)
                    if field == "out"
                        && matches!(&base.kind, ExprKind::Name(s) if s == "System") =>
                {
                    Recv::Io
                }
                _ => Recv::Other,
            },
        };

        match recv {
            Recv::Math => self.count_expensive(trip),
            Recv::Io => {
                self.summary.does_io = true;
                self.charge(COST_IO, trip);
            }
            Recv::Own => {
                let classes = self.index.cha_targets(self.own_class, name, args.len());
                let targets = self.resolve_classes(&classes, name, args.len());
                if targets.is_empty() {
                    self.unknown_call(name, args, trip);
                } else {
                    self.record_site(e.span.line, name, args, target, trip, targets);
                }
            }
            Recv::Static(cn) => {
                if cn == "System" && name == "arraycopy" {
                    self.summary.writes_fields = true;
                    self.escape_args(args);
                    self.charge(COST_ARRAYCOPY, trip);
                    return;
                }
                match self.index.resolve_in_chain(&cn, name, args.len()) {
                    Some(decl_cn) => {
                        let targets = self.resolve_classes(&[decl_cn], name, args.len());
                        if targets.is_empty() {
                            self.unknown_call(name, args, trip);
                        } else {
                            self.record_site(e.span.line, name, args, target, trip, targets);
                        }
                    }
                    None => self.unknown_call(name, args, trip),
                }
            }
            Recv::Typed(cn) => {
                let classes = self.index.cha_targets(&cn, name, args.len());
                let targets = self.resolve_classes(&classes, name, args.len());
                if targets.is_empty() {
                    self.unknown_call(name, args, trip);
                } else {
                    self.record_site(e.span.line, name, args, target, trip, targets);
                }
            }
            Recv::Other => self.unknown_call(name, args, trip),
        }
    }

    fn escape_args(&mut self, args: &[Expr]) {
        for a in args {
            for n in a.collect_names() {
                if let Some(&pi) = self.params.get(&n) {
                    self.summary.param_escapes[pi] = true;
                }
            }
        }
    }

    fn unknown_call(&mut self, name: &str, args: &[Expr], trip: f64) {
        if MUTATING_INTRINSICS.contains(&name) {
            // StringBuilder.append & friends: mutate the receiver, never
            // statics or IO — cheap, but not hoistable.
            self.summary.writes_fields = true;
            self.charge(COST_STRING_OP, trip);
            return;
        }
        if PURE_INTRINSICS.contains(&name) {
            self.charge(COST_STRING_OP, trip);
            return;
        }
        self.summary.calls_unknown = true;
        self.escape_args(args);
        self.charge(COST_BASIC, trip);
    }
}

fn contains_alloc(e: &Expr) -> bool {
    let mut hit = false;
    e.walk(&mut |x| {
        if matches!(
            x.kind,
            ExprKind::New { .. } | ExprKind::NewArray { .. } | ExprKind::ArrayInit(_)
        ) {
            hit = true;
        }
    });
    hit
}

// ---- SCC condensation ----------------------------------------------------

/// Iterative Tarjan. Returns `(sccs, scc_of)`; `sccs` is in emission
/// order, which for Tarjan is reverse topological: every SCC appears
/// after all SCCs it can reach (callees first).
fn tarjan_sccs(succ: &[Vec<usize>]) -> (Vec<Vec<usize>>, Vec<usize>) {
    let n = succ.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    let mut scc_of = vec![0usize; n];
    let mut next = 0usize;

    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        // Explicit DFS frames: (node, next successor position).
        let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
        index[root] = next;
        low[root] = next;
        next += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut si)) = frames.last_mut() {
            if *si < succ[v].len() {
                let w = succ[v][*si];
                *si += 1;
                if index[w] == usize::MAX {
                    index[w] = next;
                    low[w] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().unwrap();
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    for &m in &comp {
                        scc_of[m] = sccs.len();
                    }
                    sccs.push(comp);
                }
            }
        }
    }
    (sccs, scc_of)
}

// ---- propagation ---------------------------------------------------------

/// Fold callee summaries into `local` at every site. Virtual sites take
/// the worst target (max) for numeric facts and the union (or) for
/// side-effect bits — only one target runs, but any of them may.
fn apply_calls(
    local: &MethodSummary,
    sites: &[CallSite],
    summaries: &[MethodSummary],
) -> MethodSummary {
    let mut s = local.clone();
    for site in sites {
        let mut worst_allocs: f64 = 0.0;
        let mut worst_concats: f64 = 0.0;
        let mut worst_expensive: f64 = 0.0;
        let mut worst_energy: f64 = 0.0;
        let mut any_escape = false;
        for &t in &site.targets {
            let c = &summaries[t];
            worst_allocs = worst_allocs.max(c.allocs_per_call);
            worst_concats = worst_concats.max(c.concats_per_call);
            worst_expensive = worst_expensive.max(c.expensive_per_call);
            worst_energy = worst_energy.max(c.energy);
            s.writes_fields |= c.writes_fields;
            s.does_io |= c.does_io;
            s.throws |= c.throws;
            s.calls_unknown |= c.calls_unknown;
            any_escape |= c.param_escapes.iter().any(|&b| b);
        }
        s.allocs_per_call = (s.allocs_per_call + site.trip * worst_allocs).min(ENERGY_CAP);
        s.concats_per_call = (s.concats_per_call + site.trip * worst_concats).min(ENERGY_CAP);
        s.expensive_per_call = (s.expensive_per_call + site.trip * worst_expensive).min(ENERGY_CAP);
        s.energy = (s.energy + site.trip * worst_energy).min(ENERGY_CAP);
        // Coarse positional-free escape propagation: if any callee
        // parameter escapes, every caller parameter passed at the site
        // may escape too.
        if any_escape {
            for &pi in &site.arg_params {
                if pi < s.param_escapes.len() {
                    s.param_escapes[pi] = true;
                }
            }
        }
    }
    s.refresh_purity();
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(sources: &[(&str, &str)]) -> ProgramFacts {
        let mut p = JavaProject::new();
        for (name, text) in sources {
            p.add_file(name, text).unwrap();
        }
        ProgramFacts::build(&p)
    }

    fn method_idx(f: &ProgramFacts, class: &str, name: &str) -> usize {
        f.methods()
            .iter()
            .position(|m| m.class == class && m.name == name)
            .unwrap_or_else(|| panic!("{class}.{name} not found"))
    }

    #[test]
    fn pure_arithmetic_is_pure() {
        let f = facts(&[(
            "A.java",
            "class A { int add(int a, int b) { return a + b; } }",
        )]);
        let s = f.summary(method_idx(&f, "A", "add"));
        assert!(s.pure);
        assert!(!s.throws);
        assert_eq!(s.allocs_per_call, 0.0);
    }

    #[test]
    fn field_write_and_io_kill_purity() {
        let f = facts(&[(
            "A.java",
            "class A { int n;
              void bump() { n = n + 1; }
              void say() { System.out.println(1); } }",
        )]);
        assert!(!f.summary(method_idx(&f, "A", "bump")).pure);
        assert!(f.summary(method_idx(&f, "A", "bump")).writes_fields);
        assert!(!f.summary(method_idx(&f, "A", "say")).pure);
        assert!(f.summary(method_idx(&f, "A", "say")).does_io);
    }

    #[test]
    fn impurity_propagates_through_calls() {
        let f = facts(&[(
            "A.java",
            "class A { int n;
              void leaf() { n = n + 1; }
              void mid() { leaf(); }
              void top() { mid(); } }",
        )]);
        for m in ["leaf", "mid", "top"] {
            assert!(!f.summary(method_idx(&f, "A", m)).pure, "{m}");
        }
    }

    #[test]
    fn loop_trip_weights_allocations() {
        let f = facts(&[(
            "A.java",
            "class A {
              int[] make(int n) { return new int[n]; }
              void hot() { for (int i = 0; i < 100; i++) { int[] b = make(i); } } }",
        )]);
        let make = f.summary(method_idx(&f, "A", "make"));
        assert_eq!(make.allocs_per_call, 1.0);
        assert!(make.returns_alloc);
        let hot = f.summary(method_idx(&f, "A", "hot"));
        // 100 iterations × 1 alloc in the callee.
        assert_eq!(hot.allocs_per_call, 100.0);
    }

    #[test]
    fn mutual_recursion_terminates_and_shares_an_scc() {
        let f = facts(&[(
            "A.java",
            "class A {
              int even(int n) { if (n == 0) { return 1; } return odd(n - 1); }
              int odd(int n) { if (n == 0) { return 0; } return even(n - 1); } }",
        )]);
        let e = method_idx(&f, "A", "even");
        let o = method_idx(&f, "A", "odd");
        assert_eq!(f.scc_of(e), f.scc_of(o));
        assert!(f.summary(e).pure);
        assert!(f.summary(o).pure);
        assert!(f.summary(e).energy <= ENERGY_CAP);
    }

    #[test]
    fn cha_resolves_virtual_calls_to_overrides() {
        let f = facts(&[
            ("Base.java", "class Base { int cost() { return 1; } }"),
            (
                "Sub.java",
                "class Sub extends Base { int n; int cost() { n = n + 1; return 2; } }",
            ),
            (
                "Use.java",
                "class Use { int go(Base b) { return b.cost(); } }",
            ),
        ]);
        let go = method_idx(&f, "Use", "go");
        let sites = f.sites_of(go);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].targets.len(), 2, "base + override");
        // The impure override poisons the caller through CHA.
        assert!(!f.summary(go).pure);
    }

    #[test]
    fn unknown_calls_are_conservative() {
        let f = facts(&[("A.java", "class A { void f(Widget w) { w.frob(); } }")]);
        let s = f.summary(method_idx(&f, "A", "f"));
        assert!(s.calls_unknown);
        assert!(!s.pure);
    }

    #[test]
    fn dep_hash_changes_only_with_callee_behavior() {
        let caller = (
            "Caller.java",
            "class Caller { int go() { Helper h = new Helper(); return h.cost(3); } }",
        );
        let f1 = facts(&[
            caller,
            (
                "Helper.java",
                "class Helper { int cost(int x) { return x + 1; } }",
            ),
        ]);
        let f2 = facts(&[
            caller,
            (
                "Helper.java",
                "class Helper { int cost(int x) { return (x + 1) % 7; } }",
            ),
        ]);
        // Comment-only / identical-behavior edit: same dep hash.
        let f3 = facts(&[
            caller,
            (
                "Helper.java",
                "class Helper {\n  int cost(int x) { return x + 1; }\n}",
            ),
        ]);
        let ci = 0;
        assert_ne!(
            f1.dep_hash(ci),
            f2.dep_hash(ci),
            "behavior change must dirty the caller"
        );
        assert_eq!(
            f1.dep_hash(ci),
            f3.dep_hash(ci),
            "layout-only edit must not"
        );
        assert!(f1.dep_files(ci).contains("Helper.java"));
    }

    #[test]
    fn build_is_deterministic() {
        let srcs = [
            ("A.java", "class A { int f() { return new B().g(); } }"),
            (
                "B.java",
                "class B { int g() { return h(); } int h() { return 1; } }",
            ),
        ];
        let f1 = facts(&srcs);
        let f2 = facts(&srcs);
        assert_eq!(f1.methods(), f2.methods());
        for i in 0..f1.methods().len() {
            assert_eq!(f1.summary(i), f2.summary(i));
        }
        assert_eq!(
            (0..2).map(|i| f1.dep_hash(i)).collect::<Vec<_>>(),
            (0..2).map(|i| f2.dep_hash(i)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn energy_ranking_is_sorted_and_total() {
        let f = facts(&[(
            "A.java",
            "class A {
              int cheap() { return 1; }
              int hot(int n) { int s = 0; for (int i = 0; i < 1000; i++) { s = s + i % 7; } return s; } }",
        )]);
        let rank = f.energy_ranking();
        assert_eq!(rank.len(), 2);
        assert_eq!(rank[0].method, "A.hot");
        assert!(rank[0].energy > rank[1].energy);
    }

    #[test]
    fn param_escape_via_field_store_and_return() {
        let f = facts(&[(
            "A.java",
            "class A { int[] keep;
              void store(int[] buf) { keep = buf; }
              int[] pass(int[] buf) { return buf; }
              int use(int x) { return x + 1; } }",
        )]);
        assert!(f.summary(method_idx(&f, "A", "store")).param_escapes[0]);
        assert!(f.summary(method_idx(&f, "A", "pass")).param_escapes[0]);
        assert!(!f.summary(method_idx(&f, "A", "use")).param_escapes[0]);
    }
}
