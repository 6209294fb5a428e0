//! Per-method control-flow graphs lowered from the jlang AST.
//!
//! One [`CfgNode`] per atomic statement plus condition/update nodes for
//! the control constructs; `break`/`continue`/`return` become edges to
//! the enclosing loop exit, loop header, and method exit respectively.
//! Natural loops are recorded *structurally* during lowering (the four
//! loop statements are the only cycle sources in the subset), so the
//! header, back-edge tails, body extent, nesting depth, and — where the
//! header is a constant-bound counting loop — a trip-count estimate are
//! all available without a separate dominator pass. The dominator-based
//! back-edge detection in [`crate::dataflow`] exists to *verify* this
//! structural story (the proptests cross-check the two).

use jepo_jlang::{AssignOp, Block, Expr, ExprKind, Lit, MethodDecl, Span, Stmt, StmtKind, UnaryOp};
use std::collections::HashMap;

/// Index of a node in [`Cfg::nodes`].
pub type NodeId = usize;

/// One control-flow node: an atomic statement, a condition, a loop
/// update, or a synthetic entry/exit/join point.
#[derive(Debug, Clone)]
pub struct CfgNode {
    /// Source location (synthetic for entry/exit).
    pub span: Span,
    /// Short label for debugging ("entry", "cond", "local", …).
    pub label: &'static str,
    /// Variable names written here (assignment targets, `++`/`--`,
    /// initialized declarations, `this.f = …` field stores).
    pub defs: Vec<String>,
    /// Variable names read here.
    pub uses: Vec<String>,
    /// Names *declared* here (`Local` statements, loop variables,
    /// catch binders, parameters at entry).
    pub decls: Vec<String>,
    /// Whether the node computes something non-trivial (contains a
    /// binary op, call, allocation, or cast) — the dead-store rule only
    /// fires on stores that burn energy computing the stored value.
    pub computes: bool,
    /// Successor edges.
    pub succs: Vec<NodeId>,
    /// Predecessor edges (kept in sync with `succs`).
    pub preds: Vec<NodeId>,
}

/// A structural natural loop.
#[derive(Debug, Clone)]
pub struct NaturalLoop {
    /// Loop header: the node every iteration re-enters.
    pub header: NodeId,
    /// Sources of back edges into `header`.
    pub back_edge_tails: Vec<NodeId>,
    /// First node id belonging to the loop (nodes are allocated
    /// contiguously during lowering, so membership is a range check).
    pub first_node: NodeId,
    /// Last node id belonging to the loop (inclusive).
    pub last_node: NodeId,
    /// Source span of the loop statement.
    pub span: Span,
    /// First source line covered by any loop-member node.
    pub line_start: u32,
    /// Last source line covered by any loop-member node.
    pub line_end: u32,
    /// Estimated iterations for constant-bound counting loops
    /// (`for (int i = 0; i < 100; i++)` → 100); `None` when unknown.
    pub trip_estimate: Option<u64>,
    /// Nesting depth (1 = outermost), filled after lowering.
    pub depth: u32,
}

impl NaturalLoop {
    /// Whether a node belongs to this loop's body (header included).
    pub fn contains(&self, n: NodeId) -> bool {
        (self.first_node..=self.last_node).contains(&n)
    }

    /// Whether a source line falls inside this loop.
    pub fn contains_line(&self, line: u32) -> bool {
        (self.line_start..=self.line_end).contains(&line)
    }
}

/// The control-flow graph of one method body.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// All nodes; `entry` and `exit` are always present.
    pub nodes: Vec<CfgNode>,
    /// Synthetic entry node (holds parameter definitions).
    pub entry: NodeId,
    /// Synthetic exit node (`return`/fall-off target).
    pub exit: NodeId,
    /// Representative node per lowered statement, keyed by span. Block
    /// and the synthesized pieces of compound statements are absent;
    /// every atomic statement is present.
    pub stmt_nodes: HashMap<Span, NodeId>,
    /// Structural loops, in lowering (outer-before-inner) order.
    pub loops: Vec<NaturalLoop>,
}

impl Cfg {
    /// Lower a method body to a CFG. Returns `None` for bodyless
    /// (abstract/interface) methods.
    pub fn build(method: &MethodDecl) -> Option<Cfg> {
        let body = method.body.as_ref()?;
        let mut b = Builder::new();
        // Parameters are definitions at entry.
        for p in &method.params {
            b.nodes[b.entry].defs.push(p.name.clone());
            b.nodes[b.entry].decls.push(p.name.clone());
        }
        let ends = b.lower_block(body, vec![b.entry]);
        let exit = b.exit;
        for e in ends {
            b.edge(e, exit);
        }
        let mut cfg = Cfg {
            nodes: b.nodes,
            entry: b.entry,
            exit: b.exit,
            stmt_nodes: b.stmt_nodes,
            loops: b.loops,
        };
        cfg.fill_loop_metadata();
        Some(cfg)
    }

    /// Nodes reachable from `entry` (forward BFS).
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![self.entry];
        seen[self.entry] = true;
        while let Some(n) = stack.pop() {
            for &s in &self.nodes[n].succs {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }

    fn fill_loop_metadata(&mut self) {
        // Depth: 1 + number of distinct enclosing loops. Loops are
        // recorded with contiguous node ranges, so loop A encloses loop
        // B iff A's range contains B's header and A ≠ B.
        let ranges: Vec<(NodeId, NodeId, NodeId)> = self
            .loops
            .iter()
            .map(|l| (l.header, l.first_node, l.last_node))
            .collect();
        let meta: Vec<(u32, u32, u32)> = self
            .loops
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let depth = 1 + ranges
                    .iter()
                    .enumerate()
                    .filter(|(j, (h, first, last))| {
                        *j != i && (*first..=*last).contains(&l.header) && *h != l.header
                    })
                    .count();
                // Line extent from member nodes (robust to parser span
                // width).
                let mut lo = u32::MAX;
                let mut hi = 0;
                for n in l.first_node..=l.last_node.min(self.nodes.len() - 1) {
                    let sp = self.nodes[n].span;
                    if sp.is_synthetic() {
                        continue;
                    }
                    lo = lo.min(sp.line);
                    hi = hi.max(sp.end_line.max(sp.line));
                }
                if lo == u32::MAX {
                    lo = l.span.line;
                    hi = l.span.end_line.max(l.span.line);
                }
                (
                    depth as u32,
                    lo.min(l.span.line.max(1)),
                    hi.max(l.span.end_line).max(l.span.line),
                )
            })
            .collect();
        for (l, (depth, lo, hi)) in self.loops.iter_mut().zip(meta) {
            l.depth = depth;
            l.line_start = lo;
            l.line_end = hi;
        }
    }
}

/// Collect every name *assigned* anywhere in a statement tree — the
/// coarse invariance oracle: a name never assigned inside a loop can
/// only have reaching definitions from outside it.
pub fn assigned_names(stmt: &Stmt) -> std::collections::HashSet<String> {
    let mut out = std::collections::HashSet::new();
    jepo_jlang::walk_stmt_exprs(stmt, &mut |e| match &e.kind {
        ExprKind::Assign(l, _, _) => {
            if let ExprKind::Name(n) = &l.kind {
                out.insert(n.clone());
            }
        }
        ExprKind::Unary(
            UnaryOp::PreInc | UnaryOp::PreDec | UnaryOp::PostInc | UnaryOp::PostDec,
            inner,
        ) => {
            if let ExprKind::Name(n) = &inner.kind {
                out.insert(n.clone());
            }
        }
        _ => {}
    });
    jepo_jlang::walk_stmts(stmt, &mut |s| {
        if let StmtKind::Local { vars, .. } = &s.kind {
            for (n, _, init) in vars {
                if init.is_some() {
                    out.insert(n.clone());
                }
            }
        }
        if let StmtKind::ForEach { name, .. } = &s.kind {
            out.insert(name.clone());
        }
    });
    out
}

/// Def/use extraction for one expression tree.
///
/// Simple-name assignment targets and `++`/`--` operands are defs;
/// `this.f = …` defines `f` (same-name conflation between a field and a
/// local is accepted — it errs toward *more* liveness, never less);
/// element stores `a[i] = e` read `a` and `i` but define nothing (the
/// array object stays live). Everything else mentioned is a use.
pub fn expr_defs_uses(e: &Expr, defs: &mut Vec<String>, uses: &mut Vec<String>) {
    match &e.kind {
        ExprKind::Assign(l, op, r) => {
            match &l.kind {
                ExprKind::Name(n) => {
                    if matches!(op, AssignOp::Compound(_)) {
                        uses.push(n.clone());
                    }
                    defs.push(n.clone());
                }
                ExprKind::FieldAccess(t, f) if matches!(t.kind, ExprKind::This) => {
                    if matches!(op, AssignOp::Compound(_)) {
                        uses.push(f.clone());
                    }
                    defs.push(f.clone());
                }
                _ => expr_defs_uses(l, defs, uses),
            }
            expr_defs_uses(r, defs, uses);
        }
        ExprKind::Unary(
            UnaryOp::PreInc | UnaryOp::PreDec | UnaryOp::PostInc | UnaryOp::PostDec,
            inner,
        ) => match &inner.kind {
            ExprKind::Name(n) => {
                uses.push(n.clone());
                defs.push(n.clone());
            }
            _ => expr_defs_uses(inner, defs, uses),
        },
        ExprKind::Name(n) => uses.push(n.clone()),
        ExprKind::FieldAccess(t, f) => {
            if matches!(t.kind, ExprKind::This) {
                uses.push(f.clone());
            } else {
                expr_defs_uses(t, defs, uses);
            }
        }
        ExprKind::Unary(_, inner) | ExprKind::Cast(_, inner) | ExprKind::InstanceOf(inner, _) => {
            expr_defs_uses(inner, defs, uses)
        }
        ExprKind::Binary(_, l, r) => {
            expr_defs_uses(l, defs, uses);
            expr_defs_uses(r, defs, uses);
        }
        ExprKind::Ternary(c, t, f) => {
            expr_defs_uses(c, defs, uses);
            expr_defs_uses(t, defs, uses);
            expr_defs_uses(f, defs, uses);
        }
        ExprKind::Index(a, idxs) => {
            expr_defs_uses(a, defs, uses);
            for i in idxs {
                expr_defs_uses(i, defs, uses);
            }
        }
        ExprKind::Call { target, args, .. } => {
            if let Some(t) = target {
                expr_defs_uses(t, defs, uses);
            }
            for a in args {
                expr_defs_uses(a, defs, uses);
            }
        }
        ExprKind::New { args, .. } => {
            for a in args {
                expr_defs_uses(a, defs, uses);
            }
        }
        ExprKind::NewArray { dims, init, .. } => {
            for d in dims {
                expr_defs_uses(d, defs, uses);
            }
            for e in init.iter().flatten() {
                expr_defs_uses(e, defs, uses);
            }
        }
        ExprKind::ArrayInit(es) => {
            for e in es {
                expr_defs_uses(e, defs, uses);
            }
        }
        ExprKind::Literal(_) | ExprKind::This => {}
    }
}

fn expr_computes(e: &Expr) -> bool {
    let mut hit = false;
    e.walk(&mut |x| {
        if matches!(
            x.kind,
            ExprKind::Binary(..)
                | ExprKind::Call { .. }
                | ExprKind::New { .. }
                | ExprKind::NewArray { .. }
                | ExprKind::Cast(..)
                | ExprKind::Ternary(..)
        ) {
            hit = true;
        }
    });
    hit
}

struct Builder {
    nodes: Vec<CfgNode>,
    entry: NodeId,
    exit: NodeId,
    stmt_nodes: HashMap<Span, NodeId>,
    loops: Vec<NaturalLoop>,
    /// Stack of break-target collectors (loops and switches).
    break_stack: Vec<Vec<NodeId>>,
    /// Stack of continue targets (loops only).
    continue_stack: Vec<NodeId>,
}

impl Builder {
    fn new() -> Builder {
        let entry = CfgNode {
            span: Span::synthetic(),
            label: "entry",
            defs: vec![],
            uses: vec![],
            decls: vec![],
            computes: false,
            succs: vec![],
            preds: vec![],
        };
        let mut exit = entry.clone();
        exit.label = "exit";
        Builder {
            nodes: vec![entry, exit],
            entry: 0,
            exit: 1,
            stmt_nodes: HashMap::new(),
            loops: Vec::new(),
            break_stack: Vec::new(),
            continue_stack: Vec::new(),
        }
    }

    fn node(&mut self, span: Span, label: &'static str) -> NodeId {
        self.nodes.push(CfgNode {
            span,
            label,
            defs: vec![],
            uses: vec![],
            decls: vec![],
            computes: false,
            succs: vec![],
            preds: vec![],
        });
        self.nodes.len() - 1
    }

    fn edge(&mut self, from: NodeId, to: NodeId) {
        if !self.nodes[from].succs.contains(&to) {
            self.nodes[from].succs.push(to);
            self.nodes[to].preds.push(from);
        }
    }

    fn add_expr(&mut self, n: NodeId, e: &Expr) {
        let (mut defs, mut uses) = (Vec::new(), Vec::new());
        expr_defs_uses(e, &mut defs, &mut uses);
        self.nodes[n].defs.extend(defs);
        self.nodes[n].uses.extend(uses);
        if expr_computes(e) {
            self.nodes[n].computes = true;
        }
    }

    fn lower_block(&mut self, block: &Block, mut preds: Vec<NodeId>) -> Vec<NodeId> {
        for s in &block.stmts {
            preds = self.lower_stmt(s, preds);
        }
        preds
    }

    /// Lower one statement; `preds` are the open fall-in edges, the
    /// return value the open fall-out edges.
    fn lower_stmt(&mut self, stmt: &Stmt, preds: Vec<NodeId>) -> Vec<NodeId> {
        match &stmt.kind {
            StmtKind::Block(b) => self.lower_block(b, preds),
            StmtKind::Empty => {
                let n = self.atom(stmt, "empty", preds);
                vec![n]
            }
            StmtKind::Local { vars, .. } => {
                let n = self.atom(stmt, "local", preds);
                for (name, _, init) in vars {
                    self.nodes[n].decls.push(name.clone());
                    if let Some(e) = init {
                        self.add_expr(n, e);
                        self.nodes[n].defs.push(name.clone());
                    }
                }
                vec![n]
            }
            StmtKind::Expr(e) => {
                let n = self.atom(stmt, "expr", preds);
                self.add_expr(n, e);
                vec![n]
            }
            StmtKind::Return(val) => {
                let n = self.atom(stmt, "return", preds);
                if let Some(e) = val {
                    self.add_expr(n, e);
                }
                let exit = self.exit;
                self.edge(n, exit);
                vec![]
            }
            StmtKind::Throw(e) => {
                let n = self.atom(stmt, "throw", preds);
                self.add_expr(n, e);
                let exit = self.exit;
                self.edge(n, exit);
                vec![]
            }
            StmtKind::Break => {
                let n = self.atom(stmt, "break", preds);
                if let Some(targets) = self.break_stack.last_mut() {
                    targets.push(n);
                } else {
                    // Stray break: treat as method exit.
                    let exit = self.exit;
                    self.edge(n, exit);
                }
                vec![]
            }
            StmtKind::Continue => {
                let n = self.atom(stmt, "continue", preds);
                if let Some(&target) = self.continue_stack.last() {
                    self.edge(n, target);
                } else {
                    let exit = self.exit;
                    self.edge(n, exit);
                }
                vec![]
            }
            StmtKind::If { cond, then, els } => {
                let c = self.atom(stmt, "cond", preds);
                self.add_expr(c, cond);
                let mut ends = self.lower_stmt(then, vec![c]);
                match els {
                    Some(e) => ends.extend(self.lower_stmt(e, vec![c])),
                    None => ends.push(c),
                }
                ends
            }
            StmtKind::While { cond, body } => {
                let c = self.atom(stmt, "cond", preds);
                self.add_expr(c, cond);
                let first = c;
                self.break_stack.push(Vec::new());
                self.continue_stack.push(c);
                let body_ends = self.lower_stmt(body, vec![c]);
                self.continue_stack.pop();
                let breaks = self.break_stack.pop().unwrap();
                let mut tails = Vec::new();
                for e in body_ends {
                    self.edge(e, c);
                    tails.push(e);
                }
                self.record_loop(c, tails, first, stmt.span, None);
                let mut ends = vec![c];
                ends.extend(breaks);
                ends
            }
            StmtKind::DoWhile { body, cond } => {
                // Header is a synthetic head the body re-enters; the
                // condition sits after the body and back-edges to it.
                let c = self.node(stmt.span, "cond");
                self.add_expr(c, cond);
                let h = self.node(stmt.span, "do-head");
                self.stmt_nodes.insert(stmt.span, h);
                for p in preds {
                    self.edge(p, h);
                }
                self.break_stack.push(Vec::new());
                self.continue_stack.push(c);
                let body_ends = self.lower_stmt(body, vec![h]);
                self.continue_stack.pop();
                let breaks = self.break_stack.pop().unwrap();
                for e in body_ends {
                    self.edge(e, c);
                }
                self.edge(c, h);
                self.record_loop(h, vec![c], c, stmt.span, None);
                let mut ends = vec![c];
                ends.extend(breaks);
                ends
            }
            StmtKind::For {
                init,
                cond,
                update,
                body,
            } => {
                let trip = for_trip_estimate(init, cond.as_ref(), update);
                let mut p = preds;
                for s in init {
                    p = self.lower_stmt(s, p);
                }
                let c = self.node(stmt.span, "cond");
                self.stmt_nodes.insert(stmt.span, c);
                for e in &p {
                    self.edge(*e, c);
                }
                if let Some(cond) = cond {
                    self.add_expr(c, cond);
                }
                let u = self.node(stmt.span, "update");
                for up in update {
                    self.add_expr(u, up);
                }
                self.break_stack.push(Vec::new());
                self.continue_stack.push(u);
                let body_ends = self.lower_stmt(body, vec![c]);
                self.continue_stack.pop();
                let breaks = self.break_stack.pop().unwrap();
                for e in body_ends {
                    self.edge(e, u);
                }
                self.edge(u, c);
                self.record_loop(c, vec![u], c, stmt.span, trip);
                let mut ends = Vec::new();
                if cond.is_some() {
                    ends.push(c);
                }
                ends.extend(breaks);
                ends
            }
            StmtKind::ForEach {
                name, iter, body, ..
            } => {
                let h = self.atom(stmt, "foreach", preds);
                self.add_expr(h, iter);
                self.nodes[h].decls.push(name.clone());
                self.nodes[h].defs.push(name.clone());
                self.break_stack.push(Vec::new());
                self.continue_stack.push(h);
                let body_ends = self.lower_stmt(body, vec![h]);
                self.continue_stack.pop();
                let breaks = self.break_stack.pop().unwrap();
                let mut tails = Vec::new();
                for e in body_ends {
                    self.edge(e, h);
                    tails.push(e);
                }
                self.record_loop(h, tails, h, stmt.span, None);
                let mut ends = vec![h];
                ends.extend(breaks);
                ends
            }
            StmtKind::Switch { scrutinee, cases } => {
                let s = self.atom(stmt, "switch", preds);
                self.add_expr(s, scrutinee);
                self.break_stack.push(Vec::new());
                let mut fallthrough: Vec<NodeId> = Vec::new();
                let mut has_default = false;
                for case in cases {
                    if case.labels.iter().any(|l| l.is_none()) {
                        has_default = true;
                    }
                    // Entry from the scrutinee dispatch plus fallthrough
                    // from the previous group.
                    let mut p = fallthrough;
                    p.push(s);
                    for st in &case.body {
                        p = self.lower_stmt(st, p);
                    }
                    fallthrough = p;
                    // If the group had no statements `p` still carries
                    // `s`, which is correct (label falls through).
                }
                let breaks = self.break_stack.pop().unwrap();
                let mut ends = fallthrough;
                ends.extend(breaks);
                if !has_default {
                    ends.push(s);
                }
                ends
            }
            StmtKind::Try {
                body,
                catches,
                finally,
            } => {
                let t = self.atom(stmt, "try", preds);
                let body_ends = self.lower_block(body, vec![t]);
                // Approximation: a throw may transfer at the start or the
                // end of the protected block.
                let mut all_ends = body_ends.clone();
                for (_, binder, handler) in catches {
                    let h = self.node(stmt.span, "catch");
                    self.nodes[h].decls.push(binder.clone());
                    self.nodes[h].defs.push(binder.clone());
                    self.edge(t, h);
                    for e in &body_ends {
                        self.edge(*e, h);
                    }
                    all_ends.extend(self.lower_block(handler, vec![h]));
                }
                match finally {
                    Some(f) => self.lower_block(f, all_ends),
                    None => all_ends,
                }
            }
            StmtKind::Synchronized(e, b) => {
                let n = self.atom(stmt, "sync", preds);
                self.add_expr(n, e);
                self.lower_block(b, vec![n])
            }
        }
    }

    /// Allocate a statement node, wire fall-in edges, and register it as
    /// the statement's representative.
    fn atom(&mut self, stmt: &Stmt, label: &'static str, preds: Vec<NodeId>) -> NodeId {
        let n = self.node(stmt.span, label);
        self.stmt_nodes.insert(stmt.span, n);
        for p in preds {
            self.edge(p, n);
        }
        n
    }

    fn record_loop(
        &mut self,
        header: NodeId,
        back_edge_tails: Vec<NodeId>,
        first: NodeId,
        span: Span,
        trip: Option<u64>,
    ) {
        self.loops.push(NaturalLoop {
            header,
            back_edge_tails,
            first_node: first,
            last_node: self.nodes.len() - 1,
            span,
            line_start: span.line,
            line_end: span.end_line,
            trip_estimate: trip,
            depth: 1,
        });
    }
}

/// Estimate trips for `for (int i = C0; i < C1; i += K)` shapes with
/// literal bounds. Anything else — non-literal bounds, mutated counters,
/// `!=` conditions — returns `None` and callers fall back to the
/// conservative default.
pub(crate) fn for_trip_estimate(
    init: &[Stmt],
    cond: Option<&Expr>,
    update: &[Expr],
) -> Option<u64> {
    // Counter and literal start.
    let (var, start) = init.iter().find_map(|s| match &s.kind {
        StmtKind::Local { vars, .. } => vars
            .iter()
            .find_map(|(n, _, init)| init.as_ref().and_then(int_lit).map(|v| (n.clone(), v))),
        StmtKind::Expr(e) => match &e.kind {
            ExprKind::Assign(l, AssignOp::Assign, r) => match (&l.kind, int_lit(r)) {
                (ExprKind::Name(n), Some(v)) => Some((n.clone(), v)),
                _ => None,
            },
            _ => None,
        },
        _ => None,
    })?;
    // Literal bound on the same counter.
    let (bound, inclusive) = match &cond?.kind {
        ExprKind::Binary(op @ (jepo_jlang::BinOp::Lt | jepo_jlang::BinOp::Le), l, r) => {
            match (&l.kind, int_lit(r)) {
                (ExprKind::Name(n), Some(v)) if *n == var => (v, *op == jepo_jlang::BinOp::Le),
                _ => return None,
            }
        }
        _ => return None,
    };
    // Positive literal step on the same counter.
    let step = match update {
        [u] => match &u.kind {
            ExprKind::Unary(UnaryOp::PostInc | UnaryOp::PreInc, inner) => match &inner.kind {
                ExprKind::Name(n) if *n == var => 1,
                _ => return None,
            },
            ExprKind::Assign(l, AssignOp::Compound(jepo_jlang::BinOp::Add), r) => {
                match (&l.kind, int_lit(r)) {
                    (ExprKind::Name(n), Some(k)) if *n == var && k > 0 => k,
                    _ => return None,
                }
            }
            _ => return None,
        },
        _ => return None,
    };
    let limit = bound + i64::from(inclusive);
    if limit <= start {
        return Some(0);
    }
    Some(((limit - start) as u64).div_ceil(step as u64))
}

fn int_lit(e: &Expr) -> Option<i64> {
    match &e.kind {
        ExprKind::Literal(Lit::Int { value, .. }) => Some(*value),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn method_cfg(src: &str) -> Cfg {
        let unit = jepo_jlang::parse_unit(src).unwrap();
        Cfg::build(&unit.types[0].methods[0]).unwrap()
    }

    #[test]
    fn straight_line_chains_entry_to_exit() {
        let cfg = method_cfg("class A { int f(int x) { int y = x + 1; return y; } }");
        assert_eq!(cfg.loops.len(), 0);
        let reach = cfg.reachable();
        assert!(reach.iter().all(|&r| r));
        // return node feeds exit.
        assert!(cfg.nodes[cfg.exit].preds.len() == 1);
    }

    #[test]
    fn for_loop_records_header_back_edge_and_trips() {
        let cfg = method_cfg(
            "class A { int f() { int s = 0; for (int i = 0; i < 100; i++) { s += i; } return s; } }",
        );
        assert_eq!(cfg.loops.len(), 1);
        let l = &cfg.loops[0];
        assert_eq!(l.trip_estimate, Some(100));
        assert_eq!(l.depth, 1);
        // The update node back-edges into the header.
        for &t in &l.back_edge_tails {
            assert!(cfg.nodes[t].succs.contains(&l.header));
        }
    }

    #[test]
    fn trip_estimates_handle_le_step_and_degenerate_bounds() {
        let trips = |src: &str| method_cfg(src).loops[0].trip_estimate;
        assert_eq!(
            trips("class A { void f() { for (int i = 0; i <= 10; i++) { } } }"),
            Some(11)
        );
        assert_eq!(
            trips("class A { void f() { for (int i = 0; i < 10; i += 3) { } } }"),
            Some(4)
        );
        assert_eq!(
            trips("class A { void f() { for (int i = 9; i < 3; i++) { } } }"),
            Some(0)
        );
        assert_eq!(
            trips("class A { void f(int n) { for (int i = 0; i < n; i++) { } } }"),
            None
        );
    }

    #[test]
    fn nested_loops_have_increasing_depth() {
        let cfg = method_cfg(
            "class A { void f(int n) {
               for (int i = 0; i < n; i++) {
                 while (n > 0) { n--; }
               }
             } }",
        );
        assert_eq!(cfg.loops.len(), 2);
        let mut depths: Vec<u32> = cfg.loops.iter().map(|l| l.depth).collect();
        depths.sort_unstable();
        assert_eq!(depths, vec![1, 2]);
        let inner = cfg.loops.iter().find(|l| l.depth == 2).unwrap();
        let outer = cfg.loops.iter().find(|l| l.depth == 1).unwrap();
        assert!(outer.contains(inner.header));
    }

    #[test]
    fn break_exits_and_continue_reenters() {
        let cfg = method_cfg(
            "class A { void f(int n) {
               while (n > 0) {
                 if (n == 3) { break; }
                 if (n == 5) { continue; }
                 n--;
               }
             } }",
        );
        let l = &cfg.loops[0];
        // The break node leads outside the loop: its successor is past
        // the loop body or the exit.
        let break_node = cfg
            .nodes
            .iter()
            .position(|n| n.label == "break")
            .expect("break lowered");
        assert!(!cfg.nodes[break_node].succs.iter().any(|s| l.contains(*s)));
        // The continue node re-enters the header.
        let continue_node = cfg
            .nodes
            .iter()
            .position(|n| n.label == "continue")
            .unwrap();
        assert!(cfg.nodes[continue_node].succs.contains(&l.header));
    }

    #[test]
    fn do_while_header_dominates_condition() {
        let cfg = method_cfg("class A { void f(int n) { do { n--; } while (n > 0); } }");
        assert_eq!(cfg.loops.len(), 1);
        let l = &cfg.loops[0];
        // Back edge: cond → head.
        assert_eq!(l.back_edge_tails.len(), 1);
        assert!(cfg.nodes[l.back_edge_tails[0]].succs.contains(&l.header));
        assert!(cfg.reachable()[l.header]);
    }

    #[test]
    fn switch_with_and_without_default_falls_through() {
        let cfg = method_cfg(
            "class A { int f(int x) {
               int r = 0;
               switch (x) {
                 case 1: r = 1; break;
                 case 2: r = 2;
                 default: r = 3;
               }
               return r;
             } }",
        );
        assert!(cfg.reachable().iter().all(|&r| r));
        assert!(cfg.loops.is_empty());
    }

    #[test]
    fn every_atomic_statement_has_a_reachable_node() {
        let src = "class A { int f(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
              if (i % 2 == 0) { s += i; } else { s -= 1; }
            }
            try { s = s / n; } catch (Exception e) { s = 0; } finally { s += 1; }
            return s;
        } }";
        let unit = jepo_jlang::parse_unit(src).unwrap();
        let m = &unit.types[0].methods[0];
        let cfg = Cfg::build(m).unwrap();
        let reach = cfg.reachable();
        let mut missing = Vec::new();
        for s in &m.body.as_ref().unwrap().stmts {
            jepo_jlang::walk_stmts(s, &mut |st| {
                if matches!(st.kind, StmtKind::Block(_)) {
                    return;
                }
                match cfg.stmt_nodes.get(&st.span) {
                    Some(&n) if reach[n] => {}
                    other => missing.push((st.span, other.copied())),
                }
            });
        }
        assert!(missing.is_empty(), "{missing:?}");
    }

    #[test]
    fn defs_and_uses_cover_compound_and_incdec() {
        let cfg = method_cfg("class A { void f(int a, int b) { a += b; b++; } }");
        let expr_nodes: Vec<&CfgNode> = cfg.nodes.iter().filter(|n| n.label == "expr").collect();
        assert_eq!(expr_nodes.len(), 2);
        assert!(expr_nodes[0].defs.contains(&"a".to_string()));
        assert!(expr_nodes[0].uses.contains(&"a".to_string()));
        assert!(expr_nodes[0].uses.contains(&"b".to_string()));
        assert!(expr_nodes[1].defs.contains(&"b".to_string()));
    }

    #[test]
    fn element_store_uses_but_does_not_define_the_array() {
        let cfg = method_cfg("class A { void f(int[] a, int i) { a[i] = 3; } }");
        let n = cfg.nodes.iter().find(|n| n.label == "expr").unwrap();
        assert!(n.defs.is_empty());
        assert!(n.uses.contains(&"a".to_string()));
        assert!(n.uses.contains(&"i".to_string()));
    }
}
