//! Detection rules — one per Table I component.
//!
//! Each rule pattern-matches the spanned AST; JEPO's original
//! implementation matched source lines textually, but the patterns it
//! describes (a `%` operator, a ternary, a manual copy loop…) are
//! syntactic, so an AST match is the same check with fewer false
//! positives.

pub mod arithmetic_operators;
pub mod array_copy;
pub mod array_traversal;
pub mod dead_store;
pub mod extended;
pub mod interproc;
pub mod loop_invariant;
pub mod primitive_types;
pub mod scientific_notation;
pub mod short_circuit;
pub mod static_keyword;
pub mod string_comparison;
pub mod string_concat;
pub mod ternary_operator;
pub mod wrapper_classes;

use crate::dataflow::UnitFlow;
use crate::interproc::ProgramFacts;
use crate::suggestion::{JavaComponent, Suggestion};
use jepo_jlang::{ClassDecl, CompilationUnit, Expr, MethodDecl, PrimType, Stmt, Type};

/// Context a rule sees: one file's parsed unit, plus (in flow-sensitive
/// mode) the unit's dataflow facts, plus (in interprocedural mode) the
/// whole-program call-graph facts.
pub struct RuleCtx<'a> {
    /// File name for suggestion rows.
    pub file: &'a str,
    /// Parsed unit.
    pub unit: &'a CompilationUnit,
    /// Dataflow facts, when the engine runs flow-sensitively. `None`
    /// means syntactic baseline: rules must fall back to their original
    /// line-local behavior.
    pub flow: Option<&'a UnitFlow>,
    /// Whole-program interprocedural facts and this file's index in
    /// them, when the engine runs interprocedurally. The cross-method
    /// rules stay silent without this.
    pub interproc: Option<(&'a ProgramFacts, usize)>,
}

impl<'a> RuleCtx<'a> {
    /// Qualified class name for a class in this unit.
    pub fn class_name(&self, c: &ClassDecl) -> String {
        self.unit.qualified_name(c)
    }

    /// Visit every statement of every method body, with its class.
    pub fn for_each_stmt(&self, mut f: impl FnMut(&ClassDecl, &MethodDecl, &Stmt)) {
        for c in &self.unit.types {
            for m in &c.methods {
                if let Some(body) = &m.body {
                    for s in &body.stmts {
                        jepo_jlang::walk_stmts(s, &mut |st| f(c, m, st));
                    }
                }
            }
        }
    }

    /// Visit every expression of every method body and field initializer.
    pub fn for_each_expr(&self, mut f: impl FnMut(&ClassDecl, &Expr)) {
        for c in &self.unit.types {
            for fd in &c.fields {
                if let Some(init) = &fd.init {
                    init.walk(&mut |e| f(c, e));
                }
            }
            for m in &c.methods {
                if let Some(body) = &m.body {
                    for s in &body.stmts {
                        jepo_jlang::walk_stmt_exprs(s, &mut |e| f(c, e));
                    }
                }
            }
        }
    }
}

/// A Table I detection rule.
pub trait Rule: Sync + Send {
    /// The component this rule detects.
    fn component(&self) -> JavaComponent;
    /// Run over one file.
    fn check(&self, ctx: &RuleCtx) -> Vec<Suggestion>;
}

/// The extension rules: the abstract's "exception, objects" categories
/// plus the two flow-only rules (loop-invariant op, dead store).
pub fn extended_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(extended::ExceptionInLoopRule),
        Box::new(extended::ObjectCreationInLoopRule),
        Box::new(loop_invariant::LoopInvariantOpRule),
        Box::new(dead_store::DeadStoreRule),
    ]
}

/// The interprocedural rules: cross-method checks consulting callee
/// summaries at call sites inside loops.
pub fn interproc_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(interproc::CalleeAllocationInLoopRule),
        Box::new(interproc::CalleeStringConcatRule),
        Box::new(interproc::InvariantPureCallRule),
    ]
}

/// All eleven rules, in Table I order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(primitive_types::PrimitiveTypesRule),
        Box::new(scientific_notation::ScientificNotationRule),
        Box::new(wrapper_classes::WrapperClassesRule),
        Box::new(static_keyword::StaticKeywordRule),
        Box::new(arithmetic_operators::ArithmeticOperatorsRule),
        Box::new(ternary_operator::TernaryOperatorRule),
        Box::new(short_circuit::ShortCircuitRule),
        Box::new(string_concat::StringConcatRule),
        Box::new(string_comparison::StringComparisonRule),
        Box::new(array_copy::ArrayCopyRule),
        Box::new(array_traversal::ArrayTraversalRule),
    ]
}

/// Locate the `(class index, method index)` of a class/method pair
/// inside the context's unit (rules get `&ClassDecl`/`&MethodDecl`
/// references out of the unit itself, so pointer identity is exact).
pub(crate) fn method_index(
    ctx: &RuleCtx,
    class: &ClassDecl,
    method: &MethodDecl,
) -> Option<(usize, usize)> {
    let ci = ctx.unit.types.iter().position(|c| std::ptr::eq(c, class))?;
    let mi = ctx.unit.types[ci]
        .methods
        .iter()
        .position(|m| std::ptr::eq(m, method))?;
    Some((ci, mi))
}

/// Whether a type is a non-`int` numeric primitive (the
/// primitive-data-types rule target).
pub fn is_non_int_numeric(ty: &Type) -> bool {
    matches!(
        ty,
        Type::Prim(
            PrimType::Byte
                | PrimType::Short
                | PrimType::Long
                | PrimType::Float
                | PrimType::Double
                | PrimType::Char
        )
    )
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Run a single rule over a source snippet (syntactic baseline).
    pub fn run_rule(rule: &dyn Rule, src: &str) -> Vec<Suggestion> {
        let unit = jepo_jlang::parse_unit(src).unwrap_or_else(|e| panic!("{e}"));
        let ctx = RuleCtx {
            file: "Test.java",
            unit: &unit,
            flow: None,
            interproc: None,
        };
        rule.check(&ctx)
    }

    /// Run a single rule over a source snippet with dataflow facts.
    pub fn run_rule_flow(rule: &dyn Rule, src: &str) -> Vec<Suggestion> {
        let unit = jepo_jlang::parse_unit(src).unwrap_or_else(|e| panic!("{e}"));
        let flow = UnitFlow::build(&unit);
        let ctx = RuleCtx {
            file: "Test.java",
            unit: &unit,
            flow: Some(&flow),
            interproc: None,
        };
        rule.check(&ctx)
    }

    /// Run a single rule with dataflow *and* single-unit interprocedural
    /// facts (whole-program facts restricted to this snippet).
    pub fn run_rule_interproc(rule: &dyn Rule, src: &str) -> Vec<Suggestion> {
        let unit = jepo_jlang::parse_unit(src).unwrap_or_else(|e| panic!("{e}"));
        let flow = UnitFlow::build(&unit);
        let facts = ProgramFacts::build_single("Test.java", &unit);
        let ctx = RuleCtx {
            file: "Test.java",
            unit: &unit,
            flow: Some(&flow),
            interproc: Some((&facts, 0)),
        };
        rule.check(&ctx)
    }

    /// Lines on which the rule fired.
    pub fn fired_lines(rule: &dyn Rule, src: &str) -> Vec<u32> {
        let mut lines: Vec<u32> = run_rule(rule, src).into_iter().map(|s| s.line).collect();
        lines.sort_unstable();
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn all_rules_cover_all_components() {
        let rules = all_rules();
        let covered: HashSet<JavaComponent> = rules.iter().map(|r| r.component()).collect();
        assert_eq!(covered.len(), JavaComponent::ALL.len());
        for c in JavaComponent::ALL {
            assert!(covered.contains(&c), "{c:?} has no rule");
        }
    }
}
