//! Estimated-impact scoring for suggestions (the ranking behind the
//! Fig. 5 optimizer view).
//!
//! A suggestion's impact multiplies its component's Table I worst-case
//! energy factor by how often the offending line is expected to execute:
//! the product of the trip-count estimates of every enclosing loop
//! (constant-bound loops contribute their exact count; unknown-bound
//! loops contribute the conservative
//! [`crate::dataflow::DEFAULT_TRIP_ESTIMATE`]). Straight-line code keeps
//! a multiplier of 1, so a modulus inside a 100×100 nest (impact
//! 17.2 × 10⁴) sorts far above the same modulus at top level (17.2).

use crate::dataflow::UnitFlow;
use crate::interproc::ProgramFacts;
use crate::suggestion::{JavaComponent, Suggestion};

/// Estimated impact of a component hit at the given loop context.
pub fn score(factor: f64, trip_product: f64) -> f64 {
    factor * trip_product.max(1.0)
}

/// Annotate `suggestions` (all from the unit `flow` describes) with loop
/// depth and impact. With `interproc` facts, the cross-method
/// components scale their base factor by the worst per-call count the
/// callee summary reports (a helper allocating 100 buffers per call
/// outranks one allocating 1), keeping the `factor × trips` shape.
pub fn annotate_with(
    suggestions: &mut [Suggestion],
    flow: &UnitFlow,
    interproc: Option<(&ProgramFacts, usize)>,
) {
    for s in suggestions {
        let (depth, trips) = flow.loop_context(s.line);
        s.loop_depth = depth;
        let mut factor = s.component.worst_case_factor();
        if let Some((facts, fi)) = interproc {
            if JavaComponent::INTERPROC.contains(&s.component) {
                factor *= facts.callee_weight(fi, s.line, s.component);
            }
        }
        s.impact = score(factor, trips);
    }
}

/// Rank suggestions for the optimizer view: estimated impact descending,
/// then (file, line, component) for a deterministic total order.
pub fn rank(suggestions: &mut [Suggestion]) {
    suggestions.sort_by(|a, b| {
        b.impact
            .total_cmp(&a.impact)
            .then_with(|| a.file.cmp(&b.file))
            .then_with(|| a.line.cmp(&b.line))
            .then_with(|| a.component.cmp(&b.component))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suggestion::JavaComponent;

    #[test]
    fn straight_line_keeps_base_factor() {
        assert_eq!(score(17.2, 1.0), 17.2);
        assert_eq!(score(17.2, 0.0), 17.2, "degenerate trip clamps to 1");
    }

    #[test]
    fn loops_multiply_impact() {
        assert!(score(8.8, 100.0) > score(640.0, 1.0));
    }

    #[test]
    fn rank_is_impact_major_then_deterministic() {
        let mk = |file: &str, line: u32, c: JavaComponent, impact: f64| {
            let mut s = Suggestion::new(file, "X", line, c, "m");
            s.impact = impact;
            s
        };
        let mut v = vec![
            mk("b.java", 1, JavaComponent::ArithmeticOperators, 17.2),
            mk("a.java", 9, JavaComponent::StringConcatenation, 880.0),
            mk("a.java", 2, JavaComponent::ArithmeticOperators, 17.2),
        ];
        rank(&mut v);
        assert_eq!(v[0].impact, 880.0);
        assert_eq!((v[1].file.as_str(), v[1].line), ("a.java", 2));
        assert_eq!((v[2].file.as_str(), v[2].line), ("b.java", 1));
    }
}
