//! The paper's closing §VIII claim: "These results show an increase in
//! metrics improvement when we increase the number of instances of MOA
//! data to 20,000. For autonomous vehicles, data centers, and
//! supercomputers, where huge amount of data is analyzed in short time,
//! JEPO can help to significantly reduce the energy consumption."
//!
//! This harness sweeps the instance count and reports the package-energy
//! improvement at each scale. For J48 it rises until the instance matrix
//! outgrows L1 (between 500 and 1,000 instances) and then eases off; the
//! bin prints the sweep and checks no trend.
//!
//! Usage: `scaling [classifier] [--jobs N]` (default "J48", 1 worker).
//! `--jobs` fans the CV folds of each measurement out over N workers
//! (0 = one per core); the measurements are bit-identical for every N.

use jepo_core::WekaExperiment;
use jepo_ml::EfficiencyProfile;
use jepo_rapl::Measurement;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs: usize = args
        .iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let classifier = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            let jobs_at = args.iter().position(|x| x == "--jobs");
            jobs_at.is_none_or(|j| *i != j && *i != j + 1) && !a.starts_with("--")
        })
        .map(|(_, a)| a.clone())
        .next()
        .unwrap_or_else(|| "J48".into());
    println!("Improvement vs dataset size — {classifier}\n");
    println!(
        "{:>10} {:>16} {:>16} {:>14}",
        "instances", "baseline (J)", "optimized (J)", "improvement"
    );
    println!("{}", "-".repeat(60));
    for &n in &[250usize, 500, 1_000, 2_000, 4_000] {
        let exp = WekaExperiment {
            instances: n,
            folds: 5,
            ..Default::default()
        };
        let data = exp.dataset();
        let (base, _) = exp.measure_jobs(&classifier, EfficiencyProfile::baseline(), &data, jobs);
        let (opt, _) = exp.measure_jobs(&classifier, EfficiencyProfile::optimized(), &data, jobs);
        let pct = Measurement::improvement_pct(base.package_j, opt.package_j);
        println!(
            "{:>10} {:>16.4} {:>16.4} {:>13.2}%",
            n, base.package_j, opt.package_j, pct
        );
    }
    println!("\nPaper: improvements increase at 20,000 instances. The tree classifiers");
    println!("show the mechanism: the instance matrix outgrows L1 between 500 and 1,000");
    println!("instances, at which point the strided attribute scans of the baseline start");
    println!("missing and the traversal suggestion starts paying. Random Forest's");
    println!("improvement is roughly scale-independent (its drivers — static counters and");
    println!("bagging copies — scale linearly on both sides).");
}
