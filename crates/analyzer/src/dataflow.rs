//! Generic worklist dataflow solver and the three instantiations the
//! flow-sensitive rules consume.
//!
//! The solver is textbook iterative dataflow: facts form a join
//! semilattice ([`Problem::join`] must be monotone and idempotent),
//! transfer functions are applied per node, and a FIFO worklist runs to
//! fixpoint. Iteration is hard-bounded: lattice heights here are finite
//! (bitsets over def sites / variables / nodes), so
//! `nodes × (bits + 2)` passes is a safe ceiling — the proptests assert
//! convergence well inside it.
//!
//! Instantiations:
//! * [`ReachingDefs`] — forward, may; bitset over definition sites.
//! * [`Liveness`] — backward, may; bitset over variables.
//! * [`Dominators`] — forward, must; bitset over nodes. Used to verify
//!   structural back edges (`dom(tail) ∋ head`).
//!
//! [`UnitFlow`] packages all three per method of a compilation unit and
//! is what rules see through `RuleCtx::flow`.

use crate::cfg::{Cfg, NaturalLoop, NodeId};
use jepo_jlang::{CompilationUnit, ExprKind, Span, UnaryOp};
use std::collections::{HashMap, HashSet, VecDeque};

/// Default trip-count assumed for loops without a constant bound. Kept
/// deliberately small: an unknown loop should outrank straight-line code
/// but not a provably hot constant-bound loop.
pub const DEFAULT_TRIP_ESTIMATE: u64 = 8;

/// A fixed-capacity bitset — the fact domain for all three analyses.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitSet {
    words: Vec<u64>,
    bits: usize,
}

impl BitSet {
    /// Empty set over a domain of `bits` elements.
    pub fn empty(bits: usize) -> BitSet {
        BitSet {
            words: vec![0; bits.div_ceil(64)],
            bits,
        }
    }

    /// Full set over a domain of `bits` elements.
    pub fn full(bits: usize) -> BitSet {
        let mut s = BitSet::empty(bits);
        for i in 0..bits {
            s.insert(i);
        }
        s
    }

    /// Insert one element.
    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// `self ∪= other`; returns whether `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let n = *a | b;
            changed |= n != *a;
            *a = n;
        }
        changed
    }

    /// `self ∩= other`; returns whether `self` changed.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let n = *a & b;
            changed |= n != *a;
            *a = n;
        }
        changed
    }

    /// `self -= other`.
    pub fn subtract(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Iterate set elements in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.bits).filter(|&i| self.contains(i))
    }

    /// Whether no element is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }
}

/// Direction of propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow entry → exit along `succs`.
    Forward,
    /// Facts flow exit → entry along `preds`.
    Backward,
}

/// One dataflow problem over a [`Cfg`].
pub trait Problem {
    /// Lattice element.
    type Fact: Clone + PartialEq;

    /// Propagation direction.
    fn direction(&self) -> Direction;
    /// Fact at the boundary (entry for forward, exit for backward).
    fn boundary(&self, cfg: &Cfg) -> Self::Fact;
    /// Initial fact for every other node.
    fn init(&self, cfg: &Cfg) -> Self::Fact;
    /// Join `other` into `acc`; returns whether `acc` changed.
    fn join(&self, acc: &mut Self::Fact, other: &Self::Fact) -> bool;
    /// Transfer function of one node.
    fn transfer(&self, cfg: &Cfg, node: NodeId, input: &Self::Fact) -> Self::Fact;
}

/// Solver output: per-node input/output facts plus iteration accounting.
pub struct Solution<F> {
    /// Fact *entering* each node (w.r.t. the problem's direction).
    pub input: Vec<F>,
    /// Fact *leaving* each node.
    pub output: Vec<F>,
    /// Node visits performed.
    pub iterations: usize,
    /// Whether a fixpoint was reached inside the iteration bound. Always
    /// true for monotone problems; asserted by the proptests.
    pub converged: bool,
}

/// Iteration ceiling for a CFG: enough for any monotone bitset problem.
pub fn iteration_bound(cfg: &Cfg) -> usize {
    let n = cfg.nodes.len();
    n * (n + 66) + 64
}

/// Run the worklist algorithm to fixpoint.
pub fn solve<P: Problem>(cfg: &Cfg, problem: &P) -> Solution<P::Fact> {
    let n = cfg.nodes.len();
    let dir = problem.direction();
    let boundary_node = match dir {
        Direction::Forward => cfg.entry,
        Direction::Backward => cfg.exit,
    };
    let mut input: Vec<P::Fact> = (0..n).map(|_| problem.init(cfg)).collect();
    input[boundary_node] = problem.boundary(cfg);
    let mut output: Vec<P::Fact> = (0..n)
        .map(|i| problem.transfer(cfg, i, &input[i]))
        .collect();

    let mut queue: VecDeque<NodeId> = (0..n).collect();
    let mut queued = vec![true; n];
    let bound = iteration_bound(cfg);
    let mut iterations = 0;
    let mut converged = true;
    while let Some(node) = queue.pop_front() {
        queued[node] = false;
        if iterations >= bound {
            converged = false;
            break;
        }
        iterations += 1;
        // Join incoming facts (unless this is the boundary node, whose
        // input is pinned).
        if node != boundary_node {
            let incoming: &[NodeId] = match dir {
                Direction::Forward => &cfg.nodes[node].preds,
                Direction::Backward => &cfg.nodes[node].succs,
            };
            let mut acc = input[node].clone();
            let mut joined_any = false;
            for &p in incoming {
                joined_any |= problem.join(&mut acc, &output[p]);
            }
            if joined_any {
                input[node] = acc;
            }
        }
        let out = problem.transfer(cfg, node, &input[node]);
        if out != output[node] {
            output[node] = out;
            let downstream: &[NodeId] = match dir {
                Direction::Forward => &cfg.nodes[node].succs,
                Direction::Backward => &cfg.nodes[node].preds,
            };
            for &d in downstream {
                if !queued[d] {
                    queued[d] = true;
                    queue.push_back(d);
                }
            }
        }
    }
    Solution {
        input,
        output,
        iterations,
        converged,
    }
}

/// One definition site: `var` (interned index) defined at `node`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefSite {
    /// Defining node.
    pub node: NodeId,
    /// Interned variable index (see [`VarTable`]).
    pub var: usize,
}

/// Interned variable names for one CFG.
#[derive(Debug, Clone, Default)]
pub struct VarTable {
    names: Vec<String>,
    index: HashMap<String, usize>,
}

impl VarTable {
    fn intern(&mut self, name: &str) -> usize {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.names.len();
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), i);
        i
    }

    /// Index of a name, if it occurs in the method.
    pub fn get(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Number of interned variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no variable was interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Reaching definitions (forward, may): which def sites may reach each
/// node's input.
pub struct ReachingDefs {
    /// All definition sites, indexed by bit position.
    pub sites: Vec<DefSite>,
    /// Variable interner shared with [`Liveness`].
    gen: Vec<BitSet>,
    kill: Vec<BitSet>,
}

impl ReachingDefs {
    /// Build gen/kill sets for a CFG.
    pub fn build(cfg: &Cfg, vars: &mut VarTable) -> ReachingDefs {
        let mut sites = Vec::new();
        for (id, node) in cfg.nodes.iter().enumerate() {
            for d in &node.defs {
                sites.push(DefSite {
                    node: id,
                    var: vars.intern(d),
                });
            }
        }
        // Per-var site masks for kill computation.
        let mut var_sites: Vec<BitSet> = vec![BitSet::empty(sites.len()); vars.len()];
        for (bit, s) in sites.iter().enumerate() {
            var_sites[s.var].insert(bit);
        }
        let mut gen = vec![BitSet::empty(sites.len()); cfg.nodes.len()];
        let mut kill = vec![BitSet::empty(sites.len()); cfg.nodes.len()];
        for (bit, s) in sites.iter().enumerate() {
            gen[s.node].insert(bit);
            kill[s.node].union_with(&var_sites[s.var]);
        }
        for (g, k) in gen.iter().zip(kill.iter_mut()) {
            k.subtract(g);
        }
        ReachingDefs { sites, gen, kill }
    }
}

impl Problem for ReachingDefs {
    type Fact = BitSet;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self, _cfg: &Cfg) -> BitSet {
        BitSet::empty(self.sites.len())
    }

    fn init(&self, _cfg: &Cfg) -> BitSet {
        BitSet::empty(self.sites.len())
    }

    fn join(&self, acc: &mut BitSet, other: &BitSet) -> bool {
        acc.union_with(other)
    }

    fn transfer(&self, _cfg: &Cfg, node: NodeId, input: &BitSet) -> BitSet {
        let mut out = input.clone();
        out.subtract(&self.kill[node]);
        out.union_with(&self.gen[node]);
        out
    }
}

/// Live variables (backward, may): which variables have a future reader.
pub struct Liveness {
    uses: Vec<BitSet>,
    defs: Vec<BitSet>,
    nvars: usize,
}

impl Liveness {
    /// Build use/def sets for a CFG.
    pub fn build(cfg: &Cfg, vars: &mut VarTable) -> Liveness {
        // Two passes: intern everything first so set widths are final.
        for node in &cfg.nodes {
            for n in node.uses.iter().chain(&node.defs) {
                vars.intern(n);
            }
        }
        let nvars = vars.len();
        let mut uses = vec![BitSet::empty(nvars); cfg.nodes.len()];
        let mut defs = vec![BitSet::empty(nvars); cfg.nodes.len()];
        for (id, node) in cfg.nodes.iter().enumerate() {
            for u in &node.uses {
                uses[id].insert(vars.get(u).unwrap());
            }
            for d in &node.defs {
                defs[id].insert(vars.get(d).unwrap());
            }
        }
        Liveness { uses, defs, nvars }
    }
}

impl Problem for Liveness {
    type Fact = BitSet;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn boundary(&self, _cfg: &Cfg) -> BitSet {
        BitSet::empty(self.nvars)
    }

    fn init(&self, _cfg: &Cfg) -> BitSet {
        BitSet::empty(self.nvars)
    }

    fn join(&self, acc: &mut BitSet, other: &BitSet) -> bool {
        acc.union_with(other)
    }

    fn transfer(&self, _cfg: &Cfg, node: NodeId, input: &BitSet) -> BitSet {
        // `input` is live-out (facts flow backward); live-in =
        // (out − def) ∪ use.
        let mut out = input.clone();
        out.subtract(&self.defs[node]);
        out.union_with(&self.uses[node]);
        out
    }
}

/// Dominators (forward, must): node n is dominated by every node on all
/// entry→n paths.
pub struct Dominators;

impl Problem for Dominators {
    type Fact = BitSet;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self, cfg: &Cfg) -> BitSet {
        let mut s = BitSet::empty(cfg.nodes.len());
        s.insert(cfg.entry);
        s
    }

    fn init(&self, cfg: &Cfg) -> BitSet {
        BitSet::full(cfg.nodes.len())
    }

    fn join(&self, acc: &mut BitSet, other: &BitSet) -> bool {
        acc.intersect_with(other)
    }

    fn transfer(&self, _cfg: &Cfg, node: NodeId, input: &BitSet) -> BitSet {
        let mut out = input.clone();
        out.insert(node);
        out
    }
}

/// Dominator-verified back edges: `(tail, head)` pairs among reachable
/// nodes where `head` dominates `tail`.
pub fn back_edges(cfg: &Cfg) -> Vec<(NodeId, NodeId)> {
    let reach = cfg.reachable();
    let dom = solve(cfg, &Dominators);
    let mut out = Vec::new();
    for (tail, node) in cfg.nodes.iter().enumerate() {
        if !reach[tail] {
            continue;
        }
        for &head in &node.succs {
            if reach[head] && dom.output[tail].contains(head) {
                out.push((tail, head));
            }
        }
    }
    out
}

/// All flow facts for one method.
pub struct MethodFlow {
    /// The lowered CFG.
    pub cfg: Cfg,
    /// Variable interner (shared by both analyses).
    pub vars: VarTable,
    /// Reaching-definition sites.
    pub reach: ReachingDefs,
    /// Reaching solution (input = defs reaching the node).
    pub reach_in: Vec<BitSet>,
    /// Live-out per node.
    pub live_out: Vec<BitSet>,
    /// Parameter and local names (the only candidates for dead-store /
    /// dead-local reasoning; fields escape).
    locals: HashSet<String>,
}

impl MethodFlow {
    /// Lower and solve one method. `None` for bodyless methods.
    pub fn build(method: &jepo_jlang::MethodDecl) -> Option<MethodFlow> {
        let reg = jepo_trace::Registry::global();
        let timed = reg.is_enabled();
        let t0 = timed.then(std::time::Instant::now);
        let cfg = Cfg::build(method)?;
        if let Some(t0) = t0 {
            reg.histogram("analyzer.phase.cfg_ns", &jepo_trace::TIME_NS_BUCKETS)
                .observe(t0.elapsed().as_nanos() as u64);
        }
        let t0 = timed.then(std::time::Instant::now);
        let mut vars = VarTable::default();
        let live = Liveness::build(&cfg, &mut vars);
        let live_sol = solve(&cfg, &live);
        let reach = ReachingDefs::build(&cfg, &mut vars);
        let reach_sol = solve(&cfg, &reach);
        if let Some(t0) = t0 {
            reg.histogram("analyzer.phase.dataflow_ns", &jepo_trace::TIME_NS_BUCKETS)
                .observe(t0.elapsed().as_nanos() as u64);
        }
        let mut locals: HashSet<String> = method.params.iter().map(|p| p.name.clone()).collect();
        for node in &cfg.nodes {
            locals.extend(node.decls.iter().cloned());
        }
        Some(MethodFlow {
            cfg,
            vars,
            reach,
            reach_in: reach_sol.input,
            // Backward solution: `input` holds the fact entering the node
            // in flow direction, i.e. live-out in program order.
            live_out: live_sol.input,
            locals,
        })
    }

    /// Whether `name` is a parameter or local of this method.
    pub fn is_local(&self, name: &str) -> bool {
        self.locals.contains(name)
    }

    /// Representative node of the statement at `span`, if lowered.
    pub fn node_at(&self, span: Span) -> Option<NodeId> {
        self.cfg.stmt_nodes.get(&span).copied()
    }

    /// Whether `var` has a live reader after `node`.
    pub fn live_after(&self, node: NodeId, var: &str) -> bool {
        match self.vars.get(var) {
            Some(v) => self.live_out[node].contains(v),
            None => false,
        }
    }

    /// Whether `var` is loop-carried in `lp`: some definition *inside*
    /// the loop reaches the loop header's input (i.e. flows around the
    /// back edge into the next iteration).
    pub fn is_loop_carried(&self, lp: &NaturalLoop, var: &str) -> bool {
        let Some(v) = self.vars.get(var) else {
            return false;
        };
        self.reach_in[lp.header]
            .iter()
            .map(|bit| self.reach.sites[bit])
            .any(|site| site.var == v && lp.contains(site.node))
    }

    /// Whether `var` is declared inside the loop body (a per-iteration
    /// fresh variable, not an accumulator).
    pub fn declared_in(&self, lp: &NaturalLoop, var: &str) -> bool {
        (lp.first_node..=lp.last_node.min(self.cfg.nodes.len() - 1))
            .any(|n| self.cfg.nodes[n].decls.iter().any(|d| d == var))
    }

    /// The innermost loop whose line range covers `line`.
    pub fn innermost_loop_at_line(&self, line: u32) -> Option<&NaturalLoop> {
        self.cfg
            .loops
            .iter()
            .filter(|l| l.contains_line(line))
            .max_by_key(|l| l.depth)
    }
}

/// Flow facts for a whole compilation unit: one [`MethodFlow`] per
/// method body, plus unit-level assignment summaries for the
/// definition-aware static-keyword rule.
pub struct UnitFlow {
    methods: Vec<((usize, usize), MethodFlow)>,
    /// Per-class: names assigned in any of the class's method bodies.
    class_assigns: Vec<HashSet<String>>,
    /// Names assigned through *any* field-access target anywhere in the
    /// unit (`obj.f = …`, `Other.counter = …`) — the cross-class
    /// assignment summary.
    field_writes: HashSet<String>,
}

impl UnitFlow {
    /// Build flow facts for every method of `unit`.
    pub fn build(unit: &CompilationUnit) -> UnitFlow {
        let mut methods = Vec::new();
        let mut class_assigns = Vec::new();
        let mut field_writes = HashSet::new();
        for (ci, class) in unit.types.iter().enumerate() {
            let mut assigned = HashSet::new();
            for (mi, m) in class.methods.iter().enumerate() {
                if let Some(flow) = MethodFlow::build(m) {
                    for node in &flow.cfg.nodes {
                        assigned.extend(node.defs.iter().cloned());
                    }
                    methods.push(((ci, mi), flow));
                }
                if let Some(body) = &m.body {
                    for s in &body.stmts {
                        jepo_jlang::walk_stmt_exprs(s, &mut |e| match &e.kind {
                            ExprKind::Assign(l, _, _) => {
                                if let ExprKind::FieldAccess(_, f) = &l.kind {
                                    field_writes.insert(f.clone());
                                }
                            }
                            ExprKind::Unary(
                                UnaryOp::PreInc
                                | UnaryOp::PreDec
                                | UnaryOp::PostInc
                                | UnaryOp::PostDec,
                                inner,
                            ) => {
                                if let ExprKind::FieldAccess(_, f) = &inner.kind {
                                    field_writes.insert(f.clone());
                                }
                            }
                            _ => {}
                        });
                    }
                }
            }
            class_assigns.push(assigned);
        }
        UnitFlow {
            methods,
            class_assigns,
            field_writes,
        }
    }

    /// Flow for method `mi` of class `ci`, if it has a body.
    pub fn method(&self, ci: usize, mi: usize) -> Option<&MethodFlow> {
        self.methods
            .iter()
            .find(|((c, m), _)| *c == ci && *m == mi)
            .map(|(_, f)| f)
    }

    /// Whether a field of class `ci` named `name` is ever assigned —
    /// inside its own class's methods, or through a field access
    /// anywhere in the unit. A `static` field failing this test is
    /// effectively final.
    pub fn field_is_assigned(&self, ci: usize, name: &str) -> bool {
        self.class_assigns.get(ci).is_some_and(|s| s.contains(name))
            || self.field_writes.contains(name)
    }

    /// Loop context of a source line across all methods: `(depth,
    /// trip_product)` where the product multiplies each enclosing loop's
    /// trip estimate (unknown → [`DEFAULT_TRIP_ESTIMATE`]).
    pub fn loop_context(&self, line: u32) -> (u32, f64) {
        let mut depth = 0u32;
        let mut product = 1f64;
        for (_, flow) in &self.methods {
            for l in &flow.cfg.loops {
                if l.contains_line(line) {
                    depth += 1;
                    product *= l.trip_estimate.unwrap_or(DEFAULT_TRIP_ESTIMATE) as f64;
                }
            }
        }
        (depth, product.min(1e12))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;

    fn flow(src: &str) -> MethodFlow {
        let unit = jepo_jlang::parse_unit(src).unwrap();
        MethodFlow::build(&unit.types[0].methods[0]).unwrap()
    }

    #[test]
    fn accumulator_is_loop_carried_but_fresh_local_is_not() {
        let f = flow(
            "class A { String g(String[] parts, int n) {
               String s = \"\";
               for (int i = 0; i < n; i++) {
                 String t = s + \"x\";
                 s += parts[i];
               }
               return s;
             } }",
        );
        let lp = &f.cfg.loops[0];
        assert!(f.is_loop_carried(lp, "s"), "accumulator must be carried");
        assert!(!f.declared_in(lp, "s"));
        assert!(f.declared_in(lp, "t"), "t is a per-iteration local");
        assert!(f.is_loop_carried(lp, "i"), "counter is carried via i++");
    }

    #[test]
    fn dead_store_has_no_live_reader() {
        let f = flow(
            "class A { int g(int x) {
               int dead = x * 2;
               int used = x + 1;
               return used;
             } }",
        );
        let unit_dead = f
            .cfg
            .nodes
            .iter()
            .position(|n| n.defs.contains(&"dead".to_string()))
            .unwrap();
        let unit_used = f
            .cfg
            .nodes
            .iter()
            .position(|n| n.defs.contains(&"used".to_string()))
            .unwrap();
        assert!(!f.live_after(unit_dead, "dead"));
        assert!(f.live_after(unit_used, "used"));
    }

    #[test]
    fn liveness_sees_through_branches() {
        let f = flow(
            "class A { int g(int x) {
               int a = x + 1;
               if (x > 0) { return a; }
               return 0;
             } }",
        );
        let def_a = f
            .cfg
            .nodes
            .iter()
            .position(|n| n.defs.contains(&"a".to_string()))
            .unwrap();
        assert!(f.live_after(def_a, "a"), "a is read on one branch");
    }

    #[test]
    fn dominator_back_edges_match_structural_loops() {
        let unit = jepo_jlang::parse_unit(
            "class A { void g(int n) {
               for (int i = 0; i < n; i++) {
                 int j = 0;
                 while (j < i) { j++; }
               }
               do { n--; } while (n > 0);
             } }",
        )
        .unwrap();
        let cfg = Cfg::build(&unit.types[0].methods[0]).unwrap();
        let headers: HashSet<NodeId> = cfg.loops.iter().map(|l| l.header).collect();
        let edges = back_edges(&cfg);
        assert_eq!(edges.len(), 3, "{edges:?}");
        for (tail, head) in edges {
            assert!(headers.contains(&head), "{tail}->{head} not a header");
        }
    }

    #[test]
    fn solver_converges_within_bound() {
        let unit = jepo_jlang::parse_unit(
            "class A { int g(int n) {
               int s = 0;
               for (int i = 0; i < n; i++) {
                 for (int j = 0; j < i; j++) { s += i * j; }
                 if (s > 100) { break; }
               }
               return s;
             } }",
        )
        .unwrap();
        let cfg = Cfg::build(&unit.types[0].methods[0]).unwrap();
        let mut vars = VarTable::default();
        let live = Liveness::build(&cfg, &mut vars);
        let sol = solve(&cfg, &live);
        assert!(sol.converged);
        assert!(sol.iterations <= iteration_bound(&cfg));
        let reach = ReachingDefs::build(&cfg, &mut vars);
        let sol2 = solve(&cfg, &reach);
        assert!(sol2.converged);
    }

    #[test]
    fn unit_flow_tracks_effectively_final_statics() {
        let unit = jepo_jlang::parse_unit(
            "class A {
               static int mutated;
               static int untouched;
               void bump() { mutated = mutated + 1; }
             }
             class B {
               void poke() { A.mutated = 5; }
             }",
        )
        .unwrap();
        let uf = UnitFlow::build(&unit);
        assert!(uf.field_is_assigned(0, "mutated"));
        assert!(!uf.field_is_assigned(0, "untouched"));
    }

    #[test]
    fn loop_context_multiplies_trip_estimates() {
        let unit = jepo_jlang::parse_unit(
            "class A { void g() {
               for (int i = 0; i < 10; i++) {
                 for (int j = 0; j < 20; j++) {
                   int k = i * j;
                 }
               }
             } }",
        )
        .unwrap();
        let uf = UnitFlow::build(&unit);
        let body_line = 4; // `int k = i * j;`
        let (depth, product) = uf.loop_context(body_line);
        assert_eq!(depth, 2);
        assert!((product - 200.0).abs() < 1e-9, "{product}");
    }
}
