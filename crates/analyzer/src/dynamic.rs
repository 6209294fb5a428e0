//! Dynamic (as-you-type) analysis — the Fig. 2 flow.
//!
//! The toolbar button "opens JEPO view … and then shows the suggestions
//! for the already open Java file", updating as the developer edits.
//! [`DynamicAnalyzer`] holds the last analysis per file and reports the
//! *delta* on each edit, which is what an IDE surface renders
//! incrementally.

use crate::engine::Analyzer;
use crate::suggestion::Suggestion;
use std::collections::HashMap;

/// Result of re-analyzing an edited file.
#[derive(Debug, Clone, Default)]
pub struct AnalysisDelta {
    /// Suggestions present now but not before the edit.
    pub added: Vec<Suggestion>,
    /// Suggestions resolved by the edit.
    pub removed: Vec<Suggestion>,
    /// Full current suggestion list (what the view shows).
    pub current: Vec<Suggestion>,
}

/// Incremental analyzer with per-file memory.
pub struct DynamicAnalyzer {
    analyzer: Analyzer,
    /// Last suggestions per file. A parse error leaves a file's entry
    /// as it was: editing mid-statement is normal, and the previous
    /// suggestions stay visible, as IDEs do.
    last: HashMap<String, Vec<Suggestion>>,
}

impl Default for DynamicAnalyzer {
    fn default() -> Self {
        DynamicAnalyzer::new()
    }
}

impl DynamicAnalyzer {
    /// Fresh dynamic analyzer with all rules.
    pub fn new() -> DynamicAnalyzer {
        DynamicAnalyzer {
            analyzer: Analyzer::new(),
            last: HashMap::new(),
        }
    }

    /// The developer edited (or opened) `file` with new contents.
    /// Returns the suggestion delta. On a parse error the previous
    /// state is retained and the delta is empty.
    pub fn update(&mut self, file: &str, src: &str) -> AnalysisDelta {
        match jepo_jlang::parse_unit(src) {
            Ok(unit) => {
                let current = self.analyzer.analyze_unit(file, &unit);
                let before = self.last.insert(file.to_string(), current.clone());
                let before = before.unwrap_or_default();
                let added = current
                    .iter()
                    .filter(|s| !before.contains(s))
                    .cloned()
                    .collect();
                let removed = before
                    .iter()
                    .filter(|s| !current.contains(s))
                    .cloned()
                    .collect();
                AnalysisDelta {
                    added,
                    removed,
                    current,
                }
            }
            Err(_) => AnalysisDelta {
                current: self.last.get(file).cloned().unwrap_or_default(),
                ..Default::default()
            },
        }
    }

    /// Current suggestions for a file.
    pub fn current(&self, file: &str) -> &[Suggestion] {
        self.last.get(file).map(|v| v.as_slice()).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suggestion::JavaComponent;

    #[test]
    fn edit_cycle_adds_then_removes() {
        let mut da = DynamicAnalyzer::new();
        // Open a clean file.
        let d0 = da.update("A.java", "class A { int f(int x) { return x + 1; } }");
        assert!(d0.current.is_empty());
        // Introduce a modulus.
        let d1 = da.update("A.java", "class A { int f(int x) { return x % 2; } }");
        assert_eq!(d1.added.len(), 1);
        assert_eq!(d1.added[0].component, JavaComponent::ArithmeticOperators);
        assert!(d1.removed.is_empty());
        // Fix it.
        let d2 = da.update("A.java", "class A { int f(int x) { return x & 1; } }");
        assert_eq!(d2.removed.len(), 1);
        assert!(d2.current.is_empty());
    }

    #[test]
    fn parse_errors_keep_previous_state() {
        let mut da = DynamicAnalyzer::new();
        da.update("A.java", "class A { int f(int x) { return x % 2; } }");
        let broken = da.update("A.java", "class A { int f(int x) { return x % ; } }");
        assert_eq!(broken.current.len(), 1, "previous suggestions retained");
        assert!(broken.added.is_empty() && broken.removed.is_empty());
    }

    #[test]
    fn files_are_tracked_independently() {
        let mut da = DynamicAnalyzer::new();
        da.update("A.java", "class A { int f(int x) { return x % 2; } }");
        da.update("B.java", "class B { }");
        assert_eq!(da.current("A.java").len(), 1);
        assert!(da.current("B.java").is_empty());
        assert!(da.current("C.java").is_empty());
    }
}
