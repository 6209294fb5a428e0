//! Terminal renderings of the plugin surfaces (Figs 1–5).
//!
//! The Eclipse figures show *content*: a toolbar button (Fig. 1), a
//! dynamic-suggestion list (Fig. 2), the pop-up menu with *JEPO profiler*
//! / *JEPO optimizer* (Fig. 3), the profiler view's
//! method/time/energy columns (Fig. 4), and the optimizer view's
//! class/line/suggestion columns (Fig. 5). These renderers produce the
//! same content as aligned text tables.

use jepo_analyzer::Suggestion;
use jepo_jvm::{MethodEnergyRecord, SampledMethodRecord};

/// Render an aligned text table with a header rule.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let line = |cells: &[String], out: &mut String| {
        for (i, cell) in cells.iter().enumerate().take(ncols) {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(cell);
            for _ in cell.chars().count()..widths[i] {
                out.push(' ');
            }
        }
        // Trim trailing padding.
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    line(
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &mut out,
    );
    let rule: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
    out.push_str(&"-".repeat(rule));
    out.push('\n');
    for row in rows {
        line(row, &mut out);
    }
    out
}

/// Fig. 1 — the JEPO toolbar button.
pub fn toolbar() -> String {
    "[ JEPO ]  (opens the JEPO view and shows suggestions for the open Java file)\n".to_string()
}

/// Fig. 3 — the project pop-up menu.
pub fn popup_menu() -> String {
    "Right-click project ▸ JEPO ▸\n  • JEPO profiler   (measure energy per method)\n  • JEPO optimizer  (suggestions for all classes)\n".to_string()
}

/// Fig. 2 — the dynamic-suggestion view for one open file.
pub fn dynamic_view(file: &str, suggestions: &[Suggestion]) -> String {
    let mut out = format!("JEPO — suggestions for {file}\n");
    if suggestions.is_empty() {
        out.push_str("(no suggestions — file is energy-clean)\n");
        return out;
    }
    let rows: Vec<Vec<String>> = suggestions
        .iter()
        .map(|s| {
            vec![
                s.line.to_string(),
                s.component.label().to_string(),
                s.message.clone(),
            ]
        })
        .collect();
    out.push_str(&render_table(&["Line", "Component", "Suggestion"], &rows));
    out
}

/// Fig. 4 — the profiler view: method / execution time / energy.
pub fn profiler_view(records: &[MethodEnergyRecord]) -> String {
    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.3} ms", r.total_seconds * 1e3),
                format!("{:.3} mJ", r.total_package_j * 1e3),
                r.executions.to_string(),
            ]
        })
        .collect();
    let mut out = String::from("JEPO profiler view\n");
    out.push_str(&render_table(
        &["Method", "Execution Time", "Energy Consumed", "Executions"],
        &rows,
    ));
    out
}

/// The Fig. 4-style view for the *sampling* profiler: per-method sample
/// counts plus raw and calibrated energy. "Self" is energy attributed
/// with the method as leaf frame; "Total" is inclusive (on-stack).
pub fn sampling_view(
    records: &[SampledMethodRecord],
    taken: u64,
    dropped: u64,
    calibration_j: f64,
) -> String {
    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.self_samples.to_string(),
                r.incl_samples.to_string(),
                format!("{:.3} mJ", r.self_package_j * 1e3),
                format!("{:.3} mJ", r.incl_package_j * 1e3),
                format!("{:.3} mJ", r.calibrated_incl_j * 1e3),
            ]
        })
        .collect();
    let mut out = format!(
        "JEPO sampling profiler view ({taken} samples, {dropped} dropped, \
         profiler cost {:.3} mJ subtracted)\n",
        calibration_j * 1e3
    );
    out.push_str(&render_table(
        &[
            "Method",
            "Self Samples",
            "Total Samples",
            "Self Energy",
            "Total Energy",
            "Calibrated Energy",
        ],
        &rows,
    ));
    out
}

/// Side-by-side comparison of instrumented vs sampled per-method energy
/// (the `ProfilingMode::Both` report): divergence of the calibrated
/// sampled attribution from the instrumented ground truth, with an
/// agreement verdict (`ok` within ±25%, `DIVERGES` beyond).
pub fn side_by_side_view(
    instrumented: &[MethodEnergyRecord],
    sampled: &[SampledMethodRecord],
) -> String {
    let by_name: std::collections::HashMap<&str, &SampledMethodRecord> =
        sampled.iter().map(|r| (r.name.as_str(), r)).collect();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
    for inst in instrumented {
        seen.insert(inst.name.as_str());
        let (samp_cell, cal_cell, delta_cell, verdict) = match by_name.get(inst.name.as_str()) {
            Some(s) => {
                let delta_pct = if inst.total_package_j > 1e-12 {
                    (s.calibrated_incl_j - inst.total_package_j) / inst.total_package_j * 100.0
                } else {
                    0.0
                };
                (
                    format!("{:.3} mJ", s.incl_package_j * 1e3),
                    format!("{:.3} mJ", s.calibrated_incl_j * 1e3),
                    format!("{delta_pct:+.1}%"),
                    if delta_pct.abs() <= 25.0 {
                        "ok"
                    } else {
                        "DIVERGES"
                    },
                )
            }
            // Short methods legitimately fall below the sampling rate.
            None => ("-".into(), "-".into(), "-".into(), "unsampled"),
        };
        rows.push(vec![
            inst.name.clone(),
            format!("{:.3} mJ", inst.total_package_j * 1e3),
            samp_cell,
            cal_cell,
            delta_cell,
            verdict.to_string(),
        ]);
    }
    for s in sampled {
        if !seen.contains(s.name.as_str()) {
            rows.push(vec![
                s.name.clone(),
                "-".into(),
                format!("{:.3} mJ", s.incl_package_j * 1e3),
                format!("{:.3} mJ", s.calibrated_incl_j * 1e3),
                "-".into(),
                "sampling-only".into(),
            ]);
        }
    }
    let mut out = String::from("JEPO profiler — instrumented vs sampling (inclusive energy)\n");
    out.push_str(&render_table(
        &[
            "Method",
            "Instrumented",
            "Sampled (raw)",
            "Sampled (calibrated)",
            "Divergence",
            "Agreement",
        ],
        &rows,
    ));
    out
}

/// The sampling analogue of [`result_txt`]: one line per method with
/// its sample counts and raw/calibrated attribution (sampling has no
/// per-execution records to enumerate).
pub fn sampling_result_txt(records: &[SampledMethodRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&format!(
            "{}\tself samples {}\ttotal samples {}\ttime {:.6} s\tenergy {:.6} J\tcalibrated {:.6} J\n",
            r.name, r.self_samples, r.incl_samples, r.incl_seconds, r.incl_package_j, r.calibrated_incl_j
        ));
    }
    out
}

/// Fig. 5 — the optimizer view: class / line / suggestion / estimated
/// impact (rows arrive pre-ranked by impact from the optimizer).
pub fn optimizer_view(suggestions: &[Suggestion]) -> String {
    let rows: Vec<Vec<String>> = suggestions
        .iter()
        .map(|s| {
            vec![
                s.class.clone(),
                s.line.to_string(),
                s.message.clone(),
                format!("{:.1}", s.impact),
            ]
        })
        .collect();
    let mut out = String::from("JEPO optimizer view\n");
    out.push_str(&render_table(
        &["Class", "Line", "Suggestion", "Impact"],
        &rows,
    ));
    out
}

/// The `result.txt` content the profiler writes into the project
/// directory (§VII): one line per method execution, each written
/// straight into the one buffer.
pub fn result_txt(records: &[MethodEnergyRecord]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for r in records {
        for (i, (j, s)) in r.per_execution.iter().enumerate() {
            let _ = writeln!(
                out,
                "{}\texecution {}\ttime {s:.6} s\tenergy {j:.6} J",
                r.name,
                i + 1
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jepo_analyzer::JavaComponent;

    fn record(name: &str, execs: u64) -> MethodEnergyRecord {
        MethodEnergyRecord {
            name: name.into(),
            executions: execs,
            total_package_j: 0.5,
            total_core_j: 0.4,
            total_seconds: 0.01,
            per_execution: (0..execs).map(|i| (0.1 * (i + 1) as f64, 0.001)).collect(),
        }
    }

    #[test]
    fn table_alignment_handles_ragged_content() {
        let t = render_table(
            &["A", "Bbbb"],
            &[
                vec!["xxxxx".into(), "y".into()],
                vec!["z".into(), "wwww".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // Columns align: find 'Bbbb' offset and 'y'/'wwww' offsets match.
        let col = lines[0].find("Bbbb").unwrap();
        assert_eq!(lines[2].find('y').unwrap(), col);
        assert_eq!(lines[3].find("wwww").unwrap(), col);
    }

    #[test]
    fn figs_1_and_3_mention_their_buttons() {
        assert!(toolbar().contains("JEPO"));
        let menu = popup_menu();
        assert!(menu.contains("JEPO profiler"));
        assert!(menu.contains("JEPO optimizer"));
    }

    #[test]
    fn dynamic_view_lists_lines_and_components() {
        let s = Suggestion::new("A.java", "A", 7, JavaComponent::TernaryOperator, "x?y:z");
        let v = dynamic_view("A.java", &[s]);
        assert!(v.contains("A.java"));
        assert!(v.contains('7'));
        assert!(v.contains("Ternary"));
        let empty = dynamic_view("B.java", &[]);
        assert!(empty.contains("energy-clean"));
    }

    #[test]
    fn profiler_view_has_fig4_columns() {
        let v = profiler_view(&[record("Main.main", 1), record("NB.fit", 3)]);
        assert!(v.contains("Method"));
        assert!(v.contains("Execution Time"));
        assert!(v.contains("Energy Consumed"));
        assert!(v.contains("Main.main"));
        assert!(v.contains("NB.fit"));
    }

    #[test]
    fn result_txt_has_one_line_per_execution() {
        let txt = result_txt(&[record("NB.fit", 3)]);
        assert_eq!(txt.lines().count(), 3);
        assert!(txt.contains("execution 2"));
        assert!(txt.contains("energy"));
    }

    #[test]
    fn optimizer_view_has_fig5_columns() {
        let s = Suggestion::new(
            "A.java",
            "weka.core.A",
            12,
            JavaComponent::StaticKeyword,
            "static int x",
        );
        let v = optimizer_view(&[s]);
        assert!(v.contains("Class"));
        assert!(v.contains("Line"));
        assert!(v.contains("Impact"));
        assert!(v.contains("weka.core.A"));
        assert!(v.contains("12"));
        assert!(v.contains("17,700%"));
        assert!(v.contains("178.0"), "bare static factor renders:\n{v}");
    }
}
