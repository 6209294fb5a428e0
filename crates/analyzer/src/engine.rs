//! The analysis engine — the *JEPO optimizer* flow.
//!
//! §VII: the optimizer "provides suggestions for all the classes in a
//! Java project"; its view lists class name, line number, and suggestion
//! (Fig. 5). The engine runs every Table I rule over every file and
//! returns the suggestion rows sorted the way the view shows them.
//!
//! Three analysis modes:
//! * [`AnalysisMode::Syntactic`] — the original line-local rules, no
//!   dataflow. Kept as the ablation baseline for the analyzer bench.
//! * [`AnalysisMode::FlowSensitive`] (default) — builds per-method CFGs
//!   and dataflow facts ([`crate::dataflow::UnitFlow`]) first; rules
//!   consult them to suppress false positives (e.g. a `String`
//!   concatenation onto a per-iteration local) and the two flow-only
//!   rules become able to fire. Suggestions are additionally annotated
//!   with loop depth and estimated impact ([`crate::impact`]).
//! * [`AnalysisMode::Interprocedural`] — additionally builds
//!   whole-program call-graph facts ([`crate::interproc::ProgramFacts`])
//!   once per project; the cross-method rules consult callee summaries
//!   at call sites and the incremental cache invalidates callers when a
//!   callee's summary-relevant behavior changes (dependency-aware
//!   invalidation, not just content hashing).
//!
//! Output-order invariant: both [`Analyzer::analyze_unit`] and
//! [`Analyzer::analyze_project`] return rows sorted and deduplicated by
//! `(file, line, component)`. Project analysis parallelizes over files
//! via `jepo-pool` and re-establishes the same global order afterwards,
//! so its output is bit-identical for any job count.

use crate::cache::{content_hash, fnv1a64, AnalysisCache};
use crate::dataflow::UnitFlow;
use crate::interproc::ProgramFacts;
use crate::rules::{all_rules, Rule, RuleCtx};
use crate::suggestion::Suggestion;
use jepo_jlang::{CompilationUnit, JavaProject, ParseError};

/// Whether rules see dataflow facts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalysisMode {
    /// Line-local pattern matching only (the original JEPO behavior).
    Syntactic,
    /// CFG + dataflow facts available to every rule; impact annotated.
    FlowSensitive,
    /// Flow facts plus whole-program call-graph summaries; the
    /// cross-method rules fire and incremental caching becomes
    /// dependency-aware.
    Interprocedural,
}

/// A configured analyzer (rule set is pluggable for ablations).
pub struct Analyzer {
    rules: Vec<Box<dyn Rule>>,
    mode: AnalysisMode,
}

impl Default for Analyzer {
    fn default() -> Self {
        Analyzer::new()
    }
}

impl Analyzer {
    /// Analyzer with all Table I rules, flow-sensitive.
    pub fn new() -> Analyzer {
        Analyzer {
            rules: all_rules(),
            mode: AnalysisMode::FlowSensitive,
        }
    }

    /// Analyzer with all Table I rules but no dataflow — the syntactic
    /// baseline (what JEPO's original line scanner saw).
    pub fn syntactic() -> Analyzer {
        Analyzer {
            rules: all_rules(),
            mode: AnalysisMode::Syntactic,
        }
    }

    /// All Table I rules plus the extension rules (exceptions/objects
    /// and the flow-only loop-invariant/dead-store rules).
    pub fn with_extensions() -> Analyzer {
        let mut rules = all_rules();
        rules.extend(crate::rules::extended_rules());
        Analyzer {
            rules,
            mode: AnalysisMode::FlowSensitive,
        }
    }

    /// Every rule — Table I, the extensions, and the cross-method
    /// interprocedural rules — in [`AnalysisMode::Interprocedural`].
    pub fn interprocedural() -> Analyzer {
        let mut rules = all_rules();
        rules.extend(crate::rules::extended_rules());
        rules.extend(crate::rules::interproc_rules());
        Analyzer {
            rules,
            mode: AnalysisMode::Interprocedural,
        }
    }

    /// Switch analysis mode, builder-style.
    pub fn with_mode(mut self, mode: AnalysisMode) -> Analyzer {
        self.mode = mode;
        self
    }

    /// Analyze one parsed unit.
    ///
    /// When tracing is live this opens a `file/<name>` track (so per-file
    /// spans stay deterministic regardless of which pool worker picks the
    /// file up) and records per-phase wall time in the metrics registry.
    pub fn analyze_unit(&self, file: &str, unit: &CompilationUnit) -> Vec<Suggestion> {
        // A lone unit in interprocedural mode still gets facts — built
        // from itself (the whole program, as far as this call knows).
        let single = (self.mode == AnalysisMode::Interprocedural)
            .then(|| ProgramFacts::build_single(file, unit));
        self.analyze_unit_with(file, unit, single.as_ref().map(|f| (f, 0)))
    }

    /// [`Analyzer::analyze_unit`] with explicit whole-program facts (the
    /// project entry points build them once and pass each file's index).
    fn analyze_unit_with(
        &self,
        file: &str,
        unit: &CompilationUnit,
        interproc: Option<(&ProgramFacts, usize)>,
    ) -> Vec<Suggestion> {
        let _track = jepo_trace::would_trace().then(|| jepo_trace::track(&format!("file/{file}")));
        let reg = jepo_trace::Registry::global();
        let timed = reg.is_enabled();
        let flow = {
            let _s = jepo_trace::span("analyze/flow");
            let t0 = timed.then(std::time::Instant::now);
            let flow = match self.mode {
                AnalysisMode::Syntactic => None,
                AnalysisMode::FlowSensitive | AnalysisMode::Interprocedural => {
                    Some(UnitFlow::build(unit))
                }
            };
            if let Some(t0) = t0 {
                reg.histogram("analyzer.phase.flow_ns", &jepo_trace::TIME_NS_BUCKETS)
                    .observe(t0.elapsed().as_nanos() as u64);
            }
            flow
        };
        let ctx = RuleCtx {
            file,
            unit,
            flow: flow.as_ref(),
            interproc,
        };
        let mut out: Vec<Suggestion> = {
            let _s = jepo_trace::span("analyze/rules");
            let t0 = timed.then(std::time::Instant::now);
            let out: Vec<Suggestion> = self.rules.iter().flat_map(|r| r.check(&ctx)).collect();
            if let Some(t0) = t0 {
                reg.histogram("analyzer.phase.rules_ns", &jepo_trace::TIME_NS_BUCKETS)
                    .observe(t0.elapsed().as_nanos() as u64);
            }
            out
        };
        out.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.component).cmp(&(b.file.as_str(), b.line, b.component))
        });
        out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.component == b.component);
        if let Some(f) = &flow {
            let _s = jepo_trace::span("analyze/impact");
            let t0 = timed.then(std::time::Instant::now);
            crate::impact::annotate_with(&mut out, f, interproc);
            if let Some(t0) = t0 {
                reg.histogram("analyzer.phase.impact_ns", &jepo_trace::TIME_NS_BUCKETS)
                    .observe(t0.elapsed().as_nanos() as u64);
            }
        }
        if timed {
            reg.counter("analyzer.units").incr();
            reg.counter("analyzer.suggestions").add(out.len() as u64);
        }
        out
    }

    /// Analyze every file of a project (Fig. 5's "all the classes in a
    /// Java project"), in parallel over `jobs` worker threads (0 =
    /// auto). Output is globally sorted/deduped by `(file, line,
    /// component)` — bit-identical for every job count.
    pub fn analyze_project_jobs(&self, project: &JavaProject, jobs: usize) -> Vec<Suggestion> {
        // Whole-program facts are built once, single-threaded, before
        // the fan-out — deterministic regardless of job count.
        let facts = self.program_facts(project);
        let per_file = jepo_pool::parallel_map(project.files(), jobs, |i, f| {
            self.analyze_unit_with(&f.name, &f.unit, facts.as_ref().map(|fa| (fa, i)))
        });
        let mut out: Vec<Suggestion> = per_file.into_iter().flatten().collect();
        out.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.component).cmp(&(b.file.as_str(), b.line, b.component))
        });
        out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.component == b.component);
        out
    }

    /// Analyze every file of a project with automatic parallelism.
    pub fn analyze_project(&self, project: &JavaProject) -> Vec<Suggestion> {
        self.analyze_project_jobs(project, 0)
    }

    /// Whole-program facts for `project`, when the mode wants them.
    fn program_facts(&self, project: &JavaProject) -> Option<ProgramFacts> {
        (self.mode == AnalysisMode::Interprocedural).then(|| {
            let _s = jepo_trace::span("analyze/interproc");
            let reg = jepo_trace::Registry::global();
            let t0 = reg.is_enabled().then(std::time::Instant::now);
            let facts = ProgramFacts::build(project);
            if let Some(t0) = t0 {
                reg.histogram("analyzer.phase.interproc_ns", &jepo_trace::TIME_NS_BUCKETS)
                    .observe(t0.elapsed().as_nanos() as u64);
            }
            facts
        })
    }

    /// Deterministic fingerprint of everything a cached result depends
    /// on besides the source text: the analysis mode and the active rule
    /// set (identified by component, which is 1:1 with rule types).
    /// Caches are scoped to this value, so switching mode or rule subset
    /// can never serve a stale answer.
    pub fn fingerprint(&self) -> u64 {
        let mut desc = format!("v{};{:?};", crate::cache::CACHE_FORMAT_VERSION, self.mode);
        for r in &self.rules {
            desc.push_str(&format!("{:?},", r.component()));
        }
        fnv1a64(desc.as_bytes())
    }

    /// A cache bound to this analyzer's [`Analyzer::fingerprint`].
    pub fn new_cache(&self) -> AnalysisCache {
        AnalysisCache::new(self.fingerprint())
    }

    /// Incremental project analysis: reuse `cache` for every file whose
    /// content hash is unchanged and fan only the dirty files over
    /// `jepo-pool` ([`jepo_pool::parallel_map_subset`]). The merged
    /// output is bit-identical to [`Analyzer::analyze_project_jobs`] —
    /// same global `(file, line, component)` sort/dedup — for any job
    /// count and any warm/cold split.
    ///
    /// A cache built under a different [`Analyzer::fingerprint`] is
    /// reset wholesale (all files go cold); entries for files no longer
    /// in the project are pruned. Hit/miss counts land in the cache's
    /// [`AnalysisCache::stats`] and, when the `jepo-trace` registry is
    /// collecting, in the `analyzer.cache.hit` / `analyzer.cache.miss`
    /// counters.
    pub fn analyze_project_incremental_jobs(
        &self,
        project: &JavaProject,
        cache: &mut AnalysisCache,
        jobs: usize,
    ) -> Vec<Suggestion> {
        let fingerprint = self.fingerprint();
        if cache.config() != fingerprint {
            cache.reset(fingerprint);
        }
        let files = project.files();
        let hashes: Vec<u64> = files.iter().map(|f| content_hash(&f.text)).collect();
        // Interprocedural mode rebuilds the whole-program facts (cheap:
        // summaries only, no rules) and dirties every file whose
        // dependency hash — a digest of the resolved callee summaries
        // its results consulted — changed, even if its own text did not.
        // That is exactly the transitive reverse-dependency set of an
        // edit, because summaries fold in transitive callees.
        let facts = self.program_facts(project);
        // Resolve hits before any insert so a duplicate file name (two
        // project entries, same path) can't evict a row set mid-run.
        let mut rows: Vec<Option<Vec<Suggestion>>> = files
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let dep = facts.as_ref().map_or(0, |fa| fa.dep_hash(i));
                cache
                    .lookup_deps(&f.name, hashes[i], dep)
                    .map(|e| e.suggestions.clone())
            })
            .collect();
        let dirty: Vec<usize> = (0..files.len()).filter(|&i| rows[i].is_none()).collect();
        let fresh = jepo_pool::parallel_map_subset(files, &dirty, jobs, |i, f| {
            self.analyze_unit_with(&f.name, &f.unit, facts.as_ref().map(|fa| (fa, i)))
        });
        for (&i, r) in dirty.iter().zip(fresh) {
            match &facts {
                Some(fa) => {
                    let deps: Vec<String> = fa.dep_files(i).iter().cloned().collect();
                    cache.insert_deps(&files[i].name, hashes[i], fa.dep_hash(i), deps, r.clone());
                }
                None => cache.insert(&files[i].name, hashes[i], r.clone()),
            }
            rows[i] = Some(r);
        }
        let live: std::collections::HashSet<&str> = files.iter().map(|f| f.name.as_str()).collect();
        cache.retain_files(&live);

        let hits = (files.len() - dirty.len()) as u64;
        let misses = dirty.len() as u64;
        cache.record_run(hits, misses);
        let reg = jepo_trace::Registry::global();
        if reg.is_enabled() {
            reg.counter("analyzer.cache.hit").add(hits);
            reg.counter("analyzer.cache.miss").add(misses);
        }

        let mut out: Vec<Suggestion> = rows.into_iter().flatten().flatten().collect();
        out.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.component).cmp(&(b.file.as_str(), b.line, b.component))
        });
        out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.component == b.component);
        out
    }

    /// [`Analyzer::analyze_project_incremental_jobs`] with automatic
    /// parallelism.
    pub fn analyze_project_incremental(
        &self,
        project: &JavaProject,
        cache: &mut AnalysisCache,
    ) -> Vec<Suggestion> {
        self.analyze_project_incremental_jobs(project, cache, 0)
    }
}

/// Convenience: parse and analyze one source string.
pub fn analyze_source(file: &str, src: &str) -> Result<Vec<Suggestion>, ParseError> {
    let unit = {
        let _s = jepo_trace::span("analyze/parse");
        let reg = jepo_trace::Registry::global();
        let t0 = reg.is_enabled().then(std::time::Instant::now);
        let unit = jepo_jlang::parse_unit(src)?;
        if let Some(t0) = t0 {
            reg.histogram("analyzer.phase.parse_ns", &jepo_trace::TIME_NS_BUCKETS)
                .observe(t0.elapsed().as_nanos() as u64);
        }
        unit
    };
    Ok(Analyzer::new().analyze_unit(file, &unit))
}

/// Convenience: analyze a parsed unit with the default rules.
pub fn analyze_unit(file: &str, unit: &CompilationUnit) -> Vec<Suggestion> {
    Analyzer::new().analyze_unit(file, unit)
}

/// Convenience: analyze a whole project with the default rules.
pub fn analyze_project(project: &JavaProject) -> Vec<Suggestion> {
    Analyzer::new().analyze_project(project)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suggestion::JavaComponent;

    /// A source exercising every Table I component at least once.
    const KITCHEN_SINK: &str = r#"
class Sink {
    static int hits;
    double rate = 123456.0;
    Double boxed;

    String join(String[] parts, int n) {
        String s = "";
        for (int i = 0; i < n; i++) { s += parts[i]; }
        return s;
    }

    boolean same(String a, String b) { return a.compareTo(b) == 0; }

    int pick(int x) { return x > 0 && x < 9 && x != 4 ? x % 7 : 0; }

    void copy(int[] a, int[] b, int n) {
        for (int i = 0; i < n; i++) { b[i] = a[i]; }
    }

    double colSum(double[][] m, int n) {
        double s = 0;
        for (int j = 0; j < n; j++)
            for (int i = 0; i < n; i++)
                s += m[i][j];
        return s;
    }

    long slow(short k) { return k; }

    void bump() { hits = hits + 1; }
}
"#;

    #[test]
    fn kitchen_sink_triggers_every_component() {
        let got = analyze_source("Sink.java", KITCHEN_SINK).unwrap();
        let fired: std::collections::HashSet<JavaComponent> =
            got.iter().map(|s| s.component).collect();
        for c in JavaComponent::ALL {
            assert!(fired.contains(&c), "{c:?} did not fire\nall: {fired:?}");
        }
    }

    #[test]
    fn syntactic_mode_matches_legacy_behavior() {
        // The kitchen sink is written so every hit is a true positive:
        // flow-sensitive mode must not lose any component there either.
        let unit = jepo_jlang::parse_unit(KITCHEN_SINK).unwrap();
        let got = Analyzer::syntactic().analyze_unit("Sink.java", &unit);
        let fired: std::collections::HashSet<JavaComponent> =
            got.iter().map(|s| s.component).collect();
        for c in JavaComponent::ALL {
            assert!(fired.contains(&c), "{c:?} did not fire syntactically");
        }
    }

    #[test]
    fn flow_mode_annotates_loop_depth_and_impact() {
        let got = analyze_source("Sink.java", KITCHEN_SINK).unwrap();
        let concat = got
            .iter()
            .find(|s| s.component == JavaComponent::StringConcatenation)
            .expect("concat fires");
        assert_eq!(concat.loop_depth, 1, "s += parts[i] sits in one loop");
        assert!(
            concat.impact > JavaComponent::StringConcatenation.worst_case_factor(),
            "in-loop hit must outrank the bare factor: {}",
            concat.impact
        );
        let ternary = got
            .iter()
            .find(|s| s.component == JavaComponent::TernaryOperator)
            .expect("ternary fires");
        assert_eq!(ternary.loop_depth, 0);
    }

    #[test]
    fn results_are_sorted_and_deduped() {
        let got = analyze_source("Sink.java", KITCHEN_SINK).unwrap();
        for w in got.windows(2) {
            let a = (&w[0].file, w[0].line, w[0].component);
            let b = (&w[1].file, w[1].line, w[1].component);
            assert!(a <= b, "unsorted: {a:?} > {b:?}");
            assert_ne!(a, b, "duplicate row");
        }
    }

    #[test]
    fn clean_code_has_no_suggestions() {
        let clean = "class Clean {
            int add(int a, int b) { return a + b; }
            boolean eq(String a, String b) { return a.equals(b); }
            void copy(int[] a, int[] b) { System.arraycopy(a, 0, b, 0, a.length); }
        }";
        let got = analyze_source("Clean.java", clean).unwrap();
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn project_analysis_covers_all_files() {
        let mut p = JavaProject::new();
        p.add_file("A.java", "class A { int f(int x) { return x % 2; } }")
            .unwrap();
        p.add_file("B.java", "class B { double d = 0.0001; }")
            .unwrap();
        let got = analyze_project(&p);
        assert!(got.iter().any(|s| s.file == "A.java"));
        assert!(got.iter().any(|s| s.file == "B.java"));
    }

    #[test]
    fn project_analysis_is_globally_sorted_and_parallel_identical() {
        let mut p = JavaProject::new();
        // Deliberately added out of name order: the output must still be
        // globally sorted by (file, line, component).
        p.add_file("Z.java", "class Z { int f(int x) { return x % 2; } }")
            .unwrap();
        p.add_file("A.java", "class A { double d = 0.0001; short s; }")
            .unwrap();
        p.add_file(
            "M.java",
            "class M { boolean e(String a, String b) { return a.compareTo(b) == 0; } }",
        )
        .unwrap();
        let analyzer = Analyzer::with_extensions();
        let seq = analyzer.analyze_project_jobs(&p, 1);
        for w in seq.windows(2) {
            let a = (&w[0].file, w[0].line, w[0].component);
            let b = (&w[1].file, w[1].line, w[1].component);
            assert!(a <= b, "unsorted: {a:?} > {b:?}");
        }
        for jobs in [2, 4] {
            assert_eq!(
                seq,
                analyzer.analyze_project_jobs(&p, jobs),
                "jobs={jobs} differs from sequential"
            );
        }
    }

    #[test]
    fn incremental_matches_cold_and_counts_hits() {
        let mut p = JavaProject::new();
        p.add_file("Z.java", "class Z { int f(int x) { return x % 2; } }")
            .unwrap();
        p.add_file("A.java", "class A { double d = 0.0001; short s; }")
            .unwrap();
        p.add_file(
            "M.java",
            "class M { boolean e(String a, String b) { return a.compareTo(b) == 0; } }",
        )
        .unwrap();
        let analyzer = Analyzer::with_extensions();
        let cold = analyzer.analyze_project_jobs(&p, 1);

        let mut cache = analyzer.new_cache();
        let first = analyzer.analyze_project_incremental_jobs(&p, &mut cache, 1);
        assert_eq!(first, cold, "all-miss incremental run == cold");
        assert_eq!(cache.stats().last_misses, 3);
        assert_eq!(cache.stats().last_hits, 0);

        for jobs in [1, 2, 4] {
            let warm = analyzer.analyze_project_incremental_jobs(&p, &mut cache, jobs);
            assert_eq!(warm, cold, "all-hit warm run == cold (jobs={jobs})");
            assert_eq!(cache.stats().last_hits, 3);
            assert_eq!(cache.stats().last_misses, 0);
        }

        // Edit one file: exactly that file goes dirty, output tracks it.
        let mut p2 = JavaProject::new();
        p2.add_file("Z.java", "class Z { int f(int x) { return x & 1; } }")
            .unwrap();
        p2.add_file("A.java", "class A { double d = 0.0001; short s; }")
            .unwrap();
        p2.add_file(
            "M.java",
            "class M { boolean e(String a, String b) { return a.compareTo(b) == 0; } }",
        )
        .unwrap();
        let warm2 = analyzer.analyze_project_incremental_jobs(&p2, &mut cache, 2);
        assert_eq!(cache.stats().last_misses, 1, "only the edited file");
        assert_eq!(cache.stats().last_hits, 2);
        assert_eq!(warm2, analyzer.analyze_project_jobs(&p2, 1));
    }

    /// The stale-cache regression the dependency hash exists for:
    /// editing only a *callee's* file changes the caller's suggestions,
    /// so content-only invalidation would serve a stale row set.
    #[test]
    fn callee_edit_dirties_the_caller() {
        let caller = "class Caller {
            int hot(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) { s = s + Helper.work(i); }
                return s;
            }
        }";
        // Revision 0: the helper is cheap and pure. Revision 1: it
        // allocates per call — the caller now deserves a
        // CalleeAllocationInLoop suggestion, with identical caller text.
        let helper0 = "class Helper { static int work(int x) { return x + 1; } }";
        let helper1 =
            "class Helper { static int work(int x) { int[] b = new int[4]; return b[0] + x; } }";
        let project_with = |helper: &str| {
            let mut p = JavaProject::new();
            p.add_file("Caller.java", caller).unwrap();
            p.add_file("Helper.java", helper).unwrap();
            p
        };
        let p0 = project_with(helper0);
        let p1 = project_with(helper1);

        let analyzer = Analyzer::interprocedural();
        let cold0 = analyzer.analyze_project_jobs(&p0, 1);
        let cold1 = analyzer.analyze_project_jobs(&p1, 1);
        assert_ne!(
            cold0, cold1,
            "callee-only edit must change the caller's suggestions"
        );
        assert!(
            cold1
                .iter()
                .any(|s| s.file == "Caller.java"
                    && s.component == JavaComponent::CalleeAllocationInLoop),
            "{cold1:?}"
        );

        // Content-only invalidation is provably insufficient here: the
        // caller's text (and content hash) is identical across the two
        // revisions, so a v1-style lookup would return the stale entry.
        let mut cache = analyzer.new_cache();
        analyzer.analyze_project_incremental_jobs(&p0, &mut cache, 1);
        assert!(
            cache.lookup("Caller.java", content_hash(caller)).is_some(),
            "content-hash lookup alone still matches the stale entry"
        );
        let entry = cache.lookup("Caller.java", content_hash(caller)).unwrap();
        assert!(
            entry.deps.contains(&"Helper.java".to_string()),
            "the entry records its call-graph dependency: {:?}",
            entry.deps
        );

        // The dep-aware path re-analyzes the caller too: both files miss.
        let warm1 = analyzer.analyze_project_incremental_jobs(&p1, &mut cache, 1);
        assert_eq!(warm1, cold1, "warm output bit-identical after callee edit");
        assert_eq!(
            cache.stats().last_misses,
            2,
            "edited callee AND its caller both go dirty"
        );

        // Edit back: same story in reverse, and the output tracks.
        let warm0 = analyzer.analyze_project_incremental_jobs(&p0, &mut cache, 2);
        assert_eq!(warm0, cold0);
        assert_eq!(cache.stats().last_misses, 2);

        // Steady state: nothing changed, nothing re-analyzed.
        let warm = analyzer.analyze_project_incremental_jobs(&p0, &mut cache, 4);
        assert_eq!(warm, cold0);
        assert_eq!(cache.stats().last_misses, 0);
    }

    #[test]
    fn interproc_rules_fire_only_in_interproc_mode() {
        let src = "class A {
            int[] make(int n) { return new int[n]; }
            int hot(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) { int[] b = make(8); s = s + b.length; }
                return s;
            }
        }";
        let mut p = JavaProject::new();
        p.add_file("A.java", src).unwrap();
        let flow = Analyzer::with_extensions().analyze_project_jobs(&p, 1);
        assert!(
            !flow
                .iter()
                .any(|s| JavaComponent::INTERPROC.contains(&s.component)),
            "flow mode must stay bit-identical to the pre-interproc baseline"
        );
        let inter = Analyzer::interprocedural().analyze_project_jobs(&p, 1);
        assert!(inter
            .iter()
            .any(|s| s.component == JavaComponent::CalleeAllocationInLoop));
        // Impact scales with the callee's per-call allocation count ×
        // the enclosing trip estimate — strictly above the bare factor.
        let hit = inter
            .iter()
            .find(|s| s.component == JavaComponent::CalleeAllocationInLoop)
            .unwrap();
        assert!(hit.impact > JavaComponent::CalleeAllocationInLoop.worst_case_factor());
    }

    #[test]
    fn fingerprint_scopes_the_cache() {
        let flow = Analyzer::with_extensions();
        let syn = Analyzer::syntactic();
        assert_ne!(flow.fingerprint(), syn.fingerprint());
        assert_ne!(Analyzer::new().fingerprint(), flow.fingerprint());
        assert_eq!(
            Analyzer::with_extensions().fingerprint(),
            flow.fingerprint(),
            "fingerprint is a pure function of the configuration"
        );

        let mut p = JavaProject::new();
        p.add_file("A.java", "class A { int f(int x) { return x % 2; } }")
            .unwrap();
        // A cache warmed under flow rules must go cold under syntactic.
        let mut cache = flow.new_cache();
        flow.analyze_project_incremental_jobs(&p, &mut cache, 1);
        let got = syn.analyze_project_incremental_jobs(&p, &mut cache, 1);
        assert_eq!(cache.stats().last_misses, 1, "config change invalidates");
        assert_eq!(got, syn.analyze_project_jobs(&p, 1));
    }

    #[test]
    fn incremental_prunes_removed_files() {
        let analyzer = Analyzer::new();
        let mut p = JavaProject::new();
        p.add_file("A.java", "class A { int f(int x) { return x % 2; } }")
            .unwrap();
        p.add_file("B.java", "class B { double d = 0.0001; }")
            .unwrap();
        let mut cache = analyzer.new_cache();
        analyzer.analyze_project_incremental_jobs(&p, &mut cache, 1);
        assert_eq!(cache.len(), 2);

        let mut smaller = JavaProject::new();
        smaller
            .add_file("A.java", "class A { int f(int x) { return x % 2; } }")
            .unwrap();
        let got = analyzer.analyze_project_incremental_jobs(&smaller, &mut cache, 1);
        assert_eq!(cache.len(), 1, "B.java pruned");
        assert!(got.iter().all(|s| s.file == "A.java"));
    }
}
