//! Property tests for the incremental analysis layer.
//!
//! Over generated corpora ([`jepo_analyzer::gen`]) with random sizes,
//! anti-pattern rates, and dirty subsets, four contracts:
//!
//! 1. **Exact invalidation** — after a warm run over an edited corpus,
//!    exactly the edited files were re-analyzed: cache misses equal the
//!    dirty-set size, hits cover the rest (also mirrored into the
//!    `analyzer.cache.hit`/`analyzer.cache.miss` metrics when the
//!    `jepo-trace` registry collects).
//! 2. **Warm ≡ cold** — incremental output is bit-identical to a
//!    from-scratch analysis of the same revision, for jobs ∈ {1, 2, 4},
//!    both in the engine's `(file, line, component)` order and after the
//!    impact ranking (`(impact desc, file, line, component)`) the views
//!    apply — the deterministic total order holds across the cache
//!    boundary.
//! 3. **Disk round-trip** — saving the warm cache and reloading it
//!    preserves both the hit set and the output bytes, under the
//!    flow-sensitive and the interprocedural analyzer.
//! 4. **Corruption tolerance** — a mangled cache file only shrinks the
//!    warm set; output is still identical to cold.

use jepo_analyzer::gen::{generate_project_with, GenConfig};
use jepo_analyzer::{AnalysisCache, Analyzer, Suggestion};
use proptest::prelude::*;

fn cfg(files: usize, seed: u64, rate: f64) -> GenConfig {
    GenConfig {
        files,
        seed,
        methods_per_class: 4,
        pattern_rate: rate,
    }
}

/// Byte rendering used for the "byte-for-byte" comparisons: every field
/// of every row, impact as exact bits.
fn render(rows: &[Suggestion]) -> String {
    rows.iter()
        .map(|s| {
            format!(
                "{}|{}|{}|{:?}|{}|{}|{}|{:016x}\n",
                s.file,
                s.class,
                s.line,
                s.component,
                s.matched,
                s.message,
                s.loop_depth,
                s.impact.to_bits()
            )
        })
        .collect()
}

/// Impact-ranked rendering (the view order of satellite concern: the
/// PR 3 `(impact desc, file, line, component)` total order).
fn render_ranked(rows: &[Suggestion]) -> String {
    let mut ranked = rows.to_vec();
    jepo_analyzer::impact::rank(&mut ranked);
    render(&ranked)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn dirty_subset_invalidates_exactly(
        files in 8usize..28,
        seed in 0u64..1000,
        rate_pct in 0u32..100,
        dirty_mask in 0u64..u64::MAX,
    ) {
        let cfg = cfg(files, seed, rate_pct as f64 / 100.0);
        let analyzer = Analyzer::with_extensions();

        // Revision 0: cold, then warm the cache.
        let rev0 = generate_project_with(&cfg, |_| 0);
        let mut cache = analyzer.new_cache();
        let first = analyzer.analyze_project_incremental_jobs(&rev0, &mut cache, 1);
        prop_assert_eq!(cache.stats().last_misses, files as u64);
        let cold0 = analyzer.analyze_project_jobs(&rev0, 1);
        prop_assert_eq!(&first, &cold0);

        // Revision 1: a random subset of files is edited.
        let dirty: Vec<usize> = (0..files).filter(|i| dirty_mask >> (i % 64) & 1 == 1).collect();
        let rev1 = generate_project_with(&cfg, |i| u64::from(dirty.contains(&i)));
        let cold1 = analyzer.analyze_project_jobs(&rev1, 1);

        let reg = jepo_trace::Registry::global();
        let (hit0, miss0) = (
            reg.counter("analyzer.cache.hit").value(),
            reg.counter("analyzer.cache.miss").value(),
        );
        reg.enable();
        let warm = analyzer.analyze_project_incremental_jobs(&rev1, &mut cache, 2);
        reg.disable();

        // (a) exactly the dirty files were re-analyzed...
        prop_assert_eq!(cache.stats().last_misses, dirty.len() as u64);
        prop_assert_eq!(cache.stats().last_hits, (files - dirty.len()) as u64);
        // ...visible through the metrics registry too (other tests may
        // run concurrently against the global registry, so ≥).
        prop_assert!(
            reg.counter("analyzer.cache.hit").value()
                >= hit0 + (files - dirty.len()) as u64
        );
        prop_assert!(
            reg.counter("analyzer.cache.miss").value() >= miss0 + dirty.len() as u64
        );

        // (b) warm output is bit-identical to cold, every job count,
        // in both the engine order and the impact-ranked view order.
        prop_assert_eq!(render(&warm), render(&cold1));
        prop_assert_eq!(render_ranked(&warm), render_ranked(&cold1));
        for jobs in [1usize, 4] {
            let mut fresh_warm_cache = cache.clone();
            let again =
                analyzer.analyze_project_incremental_jobs(&rev1, &mut fresh_warm_cache, jobs);
            prop_assert_eq!(fresh_warm_cache.stats().last_misses, 0);
            prop_assert_eq!(render(&again), render(&cold1), "jobs={}", jobs);
        }
    }

    #[test]
    fn disk_round_trip_preserves_warm_set_and_bytes(
        files in 4usize..16,
        seed in 0u64..1000,
    ) {
        let cfg = cfg(files, seed, 0.6);
        let project = generate_project_with(&cfg, |_| 0);
        // The interprocedural cache also persists each file's dependency
        // hash; a reload must keep those stable too (zero misses).
        for (mode, analyzer) in [Analyzer::with_extensions(), Analyzer::interprocedural()]
            .into_iter()
            .enumerate()
        {
            let cold = analyzer.analyze_project_jobs(&project, 1);

            let mut cache = analyzer.new_cache();
            analyzer.analyze_project_incremental_jobs(&project, &mut cache, 1);
            let path = std::env::temp_dir().join(format!(
                "jepo-incr-prop-{}-{}-{}-{}.jepocache",
                std::process::id(),
                files,
                seed,
                mode
            ));
            cache.save(&path).unwrap();

            let mut reloaded = AnalysisCache::load(&path, analyzer.fingerprint());
            std::fs::remove_file(&path).ok();
            let warm = analyzer.analyze_project_incremental_jobs(&project, &mut reloaded, 2);
            prop_assert_eq!(reloaded.stats().last_misses, 0, "disk cache fully warm");
            prop_assert_eq!(render(&warm), render(&cold));
            prop_assert_eq!(render_ranked(&warm), render_ranked(&cold));
        }
    }

    #[test]
    fn corrupt_cache_only_shrinks_the_warm_set(
        files in 4usize..12,
        seed in 0u64..1000,
        cut_num in 1usize..100,
        flip in 0usize..4096,
    ) {
        let cfg = cfg(files, seed, 0.5);
        let analyzer = Analyzer::with_extensions();
        let project = generate_project_with(&cfg, |_| 0);
        let cold = analyzer.analyze_project_jobs(&project, 1);

        let mut cache = analyzer.new_cache();
        analyzer.analyze_project_incremental_jobs(&project, &mut cache, 1);
        let text = cache.serialize();

        // Truncate at a random fraction, then flip a byte.
        let cut = text.len() * cut_num / 100;
        let mut bytes = text.as_bytes()[..cut].to_vec();
        if !bytes.is_empty() {
            let i = flip % bytes.len();
            bytes[i] ^= 0x41;
        }
        let mangled = String::from_utf8_lossy(&bytes).into_owned();

        let mut mangled_cache =
            AnalysisCache::deserialize(&mangled, analyzer.fingerprint());
        let warm = analyzer.analyze_project_incremental_jobs(&project, &mut mangled_cache, 1);
        // Whatever survived: never a wrong answer, at worst more misses.
        prop_assert!(mangled_cache.stats().last_hits <= files as u64);
        prop_assert_eq!(render(&warm), render(&cold));
    }
}
