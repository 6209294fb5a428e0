//! Table rendering for the paper's tables.

use crate::experiment::ClassifierResult;
use crate::views::render_table;
use jepo_analyzer::metrics::ClassMetrics;
use jepo_analyzer::JavaComponent;

/// Render Table I (components & suggestions).
pub fn table1() -> String {
    let rows: Vec<Vec<String>> = JavaComponent::ALL
        .iter()
        .map(|c| vec![c.label().to_string(), c.suggestion_text().to_string()])
        .collect();
    let mut out = String::from("TABLE I: JAVA COMPONENTS & SUGGESTIONS\n");
    out.push_str(&render_table(&["Java Components", "Suggestions"], &rows));
    out
}

/// Render Table II (classifier code metrics).
pub fn table2(metrics: &[ClassMetrics]) -> String {
    let rows: Vec<Vec<String>> = metrics
        .iter()
        .map(|m| {
            vec![
                m.class.clone(),
                m.dependencies.to_string(),
                m.attributes.to_string(),
                m.methods.to_string(),
                m.packages.to_string(),
                m.loc.to_string(),
            ]
        })
        .collect();
    let mut out = String::from("TABLE II: CLASSIFIER METRICS (corpus scale)\n");
    out.push_str(&render_table(
        &[
            "Classifiers",
            "Dependencies",
            "Attributes",
            "Methods",
            "Packages",
            "LOC",
        ],
        &rows,
    ));
    out
}

/// Render Table III (airlines schema).
pub fn table3() -> String {
    let schema = jepo_ml::data::airlines::AirlinesGenerator::schema();
    let rows: Vec<Vec<String>> = schema
        .iter()
        .map(|a| vec![a.name.clone(), a.type_name().to_string()])
        .collect();
    let mut out = String::from("TABLE III: MOA AIRLINES DATA\n");
    out.push_str(&render_table(&["Attributes", "Type"], &rows));
    out
}

/// Footnote marker for rows whose Tukey protocol hit its round cap.
fn convergence_mark(r: &ClassifierResult) -> &'static str {
    if r.converged {
        ""
    } else {
        " †"
    }
}

/// Footnote explaining the marker, or empty if every row converged.
fn convergence_footnote(results: &[ClassifierResult]) -> String {
    if results.iter().all(|r| r.converged) {
        String::new()
    } else {
        "† measurement protocol hit its round cap before reaching an \
         outlier-free run set; means may carry outlier contamination.\n"
            .to_string()
    }
}

/// Render Table IV (the WEKA evaluation).
pub fn table4(results: &[ClassifierResult]) -> String {
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                format!("{}{}", r.name, convergence_mark(r)),
                r.changes.to_string(),
                format!("{:.2}", r.package_improvement_pct),
                format!("{:.2}", r.cpu_improvement_pct),
                format!("{:.2}", r.time_improvement_pct),
                format!("{:.2}", r.accuracy_drop_pct),
            ]
        })
        .collect();
    let mut out = String::from("TABLE IV: WEKA EVALUATION\n");
    out.push_str(&render_table(
        &[
            "Classifiers",
            "Changes",
            "Package Improvement (%)",
            "CPU Improvement (%)",
            "Execution Time Improvement (%)",
            "Accuracy Drop (%)",
        ],
        &rows,
    ));
    out.push_str(&convergence_footnote(results));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jepo_rapl::Measurement;

    fn fake_result(name: &str, pkg: f64) -> ClassifierResult {
        ClassifierResult {
            name: name.into(),
            changes: 42,
            baseline: Measurement {
                package_j: 100.0,
                ..Default::default()
            },
            optimized: Measurement {
                package_j: 100.0 - pkg,
                ..Default::default()
            },
            package_improvement_pct: pkg,
            cpu_improvement_pct: pkg - 0.3,
            time_improvement_pct: pkg - 1.5,
            accuracy_baseline: 0.65,
            accuracy_optimized: 0.648,
            accuracy_drop_pct: 0.2,
            converged: true,
        }
    }

    #[test]
    fn table1_lists_all_components() {
        let t = table1();
        assert!(t.contains("Static keyword"));
        assert!(t.contains("17,700%"));
        assert_eq!(t.lines().count(), 3 + 11);
    }

    #[test]
    fn table3_matches_schema() {
        let t = table3();
        assert!(t.contains("Airport From"));
        assert!(t.contains("Binary"));
        assert_eq!(t.lines().count(), 3 + 8);
    }

    #[test]
    fn table4_text() {
        let rs = vec![
            fake_result("J48", 4.44),
            fake_result("Random Forest", 14.46),
        ];
        let t = table4(&rs);
        assert!(t.contains("14.46"));
        assert!(t.contains("Package Improvement"));
    }

    #[test]
    fn unconverged_rows_are_flagged() {
        let mut rs = vec![fake_result("J48", 4.44), fake_result("SMO", 1.0)];
        assert!(!table4(&rs).contains('†'), "clean runs carry no marker");
        rs[1].converged = false;
        let t = table4(&rs);
        assert!(t.contains("SMO †"));
        assert!(t.contains("round cap"));
    }
}
