//! Integration tests for the flow-sensitive analysis layer:
//! false-positive suppression vs the syntactic baseline, flow-only
//! suggestions on the bundled corpus, impact-ranked optimizer output
//! with a deterministic total order, parallel bit-identity, and the
//! checked-in snapshots (the Fig. 5 view and the interprocedural
//! analyzer's per-component counts).

use jepo::analyzer::{AnalysisMode, Analyzer, JavaComponent};
use jepo::core::{corpus, JepoOptimizer};

/// A syntactic false positive the dataflow layer provably removes: a
/// per-iteration `String` local is not the quadratic accumulation
/// pattern. Regression-pinned here at the project level.
#[test]
fn dataflow_suppresses_syntactic_false_positive() {
    let mut p = jepo::jlang::JavaProject::new();
    p.add_file(
        "Tag.java",
        "class Tag { void render(String[] parts, int n) {
            for (int i = 0; i < n; i++) {
                String t = \"<\" + parts[i];
            }
        } }",
    )
    .unwrap();
    let syntactic = Analyzer::syntactic().analyze_project(&p);
    let flow = Analyzer::new().analyze_project(&p);
    let concat = |v: &[jepo::analyzer::Suggestion]| {
        v.iter()
            .filter(|s| s.component == JavaComponent::StringConcatenation)
            .count()
    };
    assert_eq!(concat(&syntactic), 1, "baseline flags the fresh local");
    assert_eq!(concat(&flow), 0, "dataflow knows t is not loop-carried");
}

/// On the bundled corpus the flow-sensitive extended analyzer both
/// removes syntactic hits and produces flow-only suggestions.
#[test]
fn corpus_gets_flow_only_suggestions_and_loses_false_positives() {
    let p = corpus::full_corpus();
    let syntactic = Analyzer::with_extensions()
        .with_mode(AnalysisMode::Syntactic)
        .analyze_project(&p);
    let flow = Analyzer::with_extensions().analyze_project(&p);

    // Flow-only rules stay silent without dataflow facts...
    assert!(!syntactic.iter().any(|s| matches!(
        s.component,
        JavaComponent::LoopInvariantOp | JavaComponent::DeadStore
    )));
    // ...and fire on the corpus with them: MathUtils.normalize keeps an
    // invariant `buckets % 7` in its loop, and several classifiers
    // compute locals nobody reads.
    assert!(
        flow.iter()
            .any(|s| s.component == JavaComponent::LoopInvariantOp),
        "corpus has a loop-invariant modulus"
    );
    assert!(
        flow.iter().any(|s| s.component == JavaComponent::DeadStore),
        "corpus has dead stores"
    );

    // The definition-aware gates only ever remove Table I hits; count
    // per component to show at least one suppression on the corpus.
    let count = |v: &[jepo::analyzer::Suggestion], c: JavaComponent| {
        v.iter().filter(|s| s.component == c).count()
    };
    let mut suppressed = 0;
    for c in JavaComponent::ALL {
        let (s, f) = (count(&syntactic, c), count(&flow, c));
        assert!(f <= s, "{c:?} grew under flow mode: {s} -> {f}");
        suppressed += s - f;
    }
    assert!(
        suppressed >= 1,
        "dataflow must remove at least one syntactic false positive"
    );
}

/// Parallel project analysis is bit-identical to sequential for the
/// job counts the acceptance criteria pin.
#[test]
fn parallel_analysis_is_bit_identical() {
    let p = corpus::full_corpus();
    let analyzer = Analyzer::with_extensions();
    let seq = analyzer.analyze_project_jobs(&p, 1);
    assert!(!seq.is_empty());
    for jobs in [2, 4] {
        let par = analyzer.analyze_project_jobs(&p, jobs);
        assert_eq!(seq, par, "jobs={jobs} output differs from sequential");
    }
}

/// Optimizer output is impact-ranked with a deterministic total order.
#[test]
fn optimizer_output_is_impact_ranked_and_deterministic() {
    let p = corpus::full_corpus();
    let opt = JepoOptimizer::new();
    let a = opt.suggestions(&p);
    let b = opt.suggestions(&p);
    assert_eq!(a, b, "two runs must agree exactly");
    for w in a.windows(2) {
        assert!(
            w[0].impact >= w[1].impact,
            "impact order violated: {} < {}",
            w[0].impact,
            w[1].impact
        );
        if w[0].impact == w[1].impact {
            let ka = (&w[0].file, w[0].line, w[0].component);
            let kb = (&w[1].file, w[1].line, w[1].component);
            assert!(ka < kb, "tie-break order violated: {ka:?} vs {kb:?}");
        }
    }
    // In-loop hits must actually outrank straight-line hits of the same
    // component when trip counts say so.
    assert!(a[0].impact > a[a.len() - 1].impact);
}

/// Compare `rendered` with `tests/snapshots/<name>`, or rewrite the
/// snapshot when `UPDATE_SNAPSHOTS` is set.
fn assert_matches_snapshot(name: &str, rendered: &str) {
    let path = format!("{}/tests/snapshots/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .expect("snapshot missing — run with UPDATE_SNAPSHOTS=1 to create it");
    assert_eq!(
        rendered, expected,
        "{name} drifted from tests/snapshots/{name}; \
         if intentional, regenerate with UPDATE_SNAPSHOTS=1"
    );
}

/// The Fig. 5 optimizer view over the bundled corpus, snapshot-pinned so
/// any ranking change shows up as a reviewable diff. Regenerate with
/// `UPDATE_SNAPSHOTS=1 cargo test -p jepo --test flow_analysis`.
#[test]
fn optimizer_view_matches_snapshot() {
    let p = corpus::full_corpus();
    assert_matches_snapshot("optimizer_view.txt", &JepoOptimizer::new().view(&p));
}

/// Per-component suggestion counts of the full interprocedural analyzer
/// over the bundled corpus, pinned so a rule change that adds or drops a
/// finding anywhere shows up as a one-line diff.
#[test]
fn interproc_component_counts_match_snapshot() {
    let found = Analyzer::interprocedural().analyze_project(&corpus::full_corpus());
    let rows: Vec<String> = JavaComponent::ALL
        .iter()
        .chain(&JavaComponent::EXTENDED)
        .chain(&JavaComponent::INTERPROC)
        .map(|&c| {
            let n = found.iter().filter(|s| s.component == c).count();
            format!("    \"{c:?}\": {n}")
        })
        .collect();
    let rendered = format!(
        "{{\n  \"mode\": \"interproc+extended\",\n  \"total\": {},\n  \
         \"components\": {{\n{}\n  }}\n}}\n",
        found.len(),
        rows.join(",\n")
    );
    assert_matches_snapshot("analyzer_counts.json", &rendered);
}
