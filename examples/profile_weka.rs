//! The §VIII scenario end to end: profile the bundled mini-WEKA project
//! per method (Fig. 4), then run the Table IV evaluation for a couple of
//! classifiers on the airlines data.
//!
//! Run with `cargo run --example profile_weka --release`.

use jepo::core::{corpus, JepoProfiler, WekaExperiment};

fn main() {
    // --- per-method energy profiling (the JEPO profiler flow) ---
    let report = JepoProfiler::new()
        .profile(&corpus::runnable_project())
        .expect("bundled project runs");
    println!(
        "Instrumented `{}` with {} probes.\n",
        report.main_class, report.probes_injected
    );
    print!("{}", report.view());
    println!("\nresult.txt (first 5 lines):");
    for line in report.result_txt.lines().take(5) {
        println!("  {line}");
    }

    // --- the WEKA evaluation, scaled down for example runtime ---
    let exp = WekaExperiment {
        instances: 800,
        folds: 5,
        ..Default::default()
    };
    let data = exp.dataset();
    println!("\nTable IV rows (800 instances, 5-fold CV):");
    for name in ["Random Forest", "Naive Bayes", "Logistic"] {
        let r = exp.run_classifier(name, &data);
        println!(
            "  {:<14} package {:+.2}%  cpu {:+.2}%  time {:+.2}%  accuracy {:.3} -> {:.3}",
            r.name,
            r.package_improvement_pct,
            r.cpu_improvement_pct,
            r.time_improvement_pct,
            r.accuracy_baseline,
            r.accuracy_optimized,
        );
    }
    println!("\n(The full ten-classifier table: `cargo run -p jepo-cli --release -- table4`)");
}
