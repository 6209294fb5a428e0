//! The daemon's shared hot cache.
//!
//! Four layers, all keyed by content so identical bytes are never
//! re-processed, and all shared across worker threads:
//!
//! 1. **Parse cache** — `(file name, text)` content hash → parsed
//!    [`SourceFile`] (AST included). Warm requests assemble a
//!    [`JavaProject`] without running the parser.
//! 2. **Analysis cache** — the incremental per-file analyzer cache
//!    (PR 8), shared across requests so any file seen before, in any
//!    corpus, is an analyzer cache hit.
//! 3. **Prepared-program cache** — corpus content hash →
//!    [`PreparedProgram`] (compiled, probe-injected, decoded and
//!    IR-lowered forms). Warm profile requests skip straight to
//!    execution.
//! 4. **Response memo** — canonical request bytes → full response
//!    body. A repeat of an identical request is served from memory;
//!    this is what the `"cache":"warm"` flag on the done event means.
//!
//! Everything cached is immutable once inserted (`Arc`s are handed
//! out), so readers never see partial state; correctness is proven by
//! the warm-equals-cold byte-identity tests.

use jepo_core::PreparedProgram;
use jepo_jlang::{JavaProject, SourceFile};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// 128-bit content key (two independently-seeded FNV-1a passes) —
/// collision odds are negligible at cache scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContentKey(u64, u64);

impl ContentKey {
    /// Hash one byte string.
    pub fn of(bytes: &[u8]) -> ContentKey {
        use jepo_trace::{fnv1a, FNV_OFFSET};
        ContentKey(
            fnv1a(FNV_OFFSET, bytes.iter().copied()),
            fnv1a(FNV_OFFSET ^ 0x9e3779b97f4a7c15, bytes.iter().copied()),
        )
    }

    /// Hash one named file (length-prefixed so name/body bytes cannot
    /// alias).
    pub fn of_file(name: &str, body: &str) -> ContentKey {
        let mut buf = Vec::with_capacity(name.len() + body.len() + 16);
        push_file(&mut buf, name, body);
        ContentKey::of(&buf)
    }

    /// Hash a sequence of named byte strings (order-sensitive,
    /// length-prefixed so concatenation cannot alias).
    pub fn of_files(files: &[(String, String)]) -> ContentKey {
        let mut buf = Vec::new();
        for (name, body) in files {
            push_file(&mut buf, name, body);
        }
        ContentKey::of(&buf)
    }
}

fn push_file(buf: &mut Vec<u8>, name: &str, body: &str) {
    buf.extend_from_slice(format!("{} {}\n", name.len(), body.len()).as_bytes());
    buf.extend_from_slice(name.as_bytes());
    buf.extend_from_slice(body.as_bytes());
}

/// Hit/miss counters for one cache layer.
#[derive(Debug, Default)]
pub struct LayerStats {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl LayerStats {
    fn record(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `(hits, misses)` so far.
    pub fn get(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// The shared hot cache. One per server; `Arc`-shared by every worker.
pub struct HotCache {
    parse: Mutex<HashMap<ContentKey, Arc<SourceFile>>>,
    /// The interprocedural analyzer plus its incremental cache. The
    /// analyzer is stateless; the cache accumulates per-file results
    /// across every request the daemon has served.
    analysis: Mutex<(jepo_analyzer::Analyzer, jepo_analyzer::AnalysisCache)>,
    prepared: Mutex<HashMap<ContentKey, Arc<PreparedProgram>>>,
    memo: Mutex<HashMap<ContentKey, Arc<String>>>,
    /// Per-layer hit/miss counters: parse, prepared, memo.
    pub parse_stats: LayerStats,
    pub prepared_stats: LayerStats,
    pub memo_stats: LayerStats,
}

impl Default for HotCache {
    fn default() -> Self {
        HotCache::new()
    }
}

impl HotCache {
    /// An empty cache around a fresh interprocedural analyzer.
    pub fn new() -> HotCache {
        let analyzer = jepo_analyzer::Analyzer::interprocedural();
        let cache = analyzer.new_cache();
        HotCache {
            parse: Mutex::new(HashMap::new()),
            analysis: Mutex::new((analyzer, cache)),
            prepared: Mutex::new(HashMap::new()),
            memo: Mutex::new(HashMap::new()),
            parse_stats: LayerStats::default(),
            prepared_stats: LayerStats::default(),
            memo_stats: LayerStats::default(),
        }
    }

    /// Assemble a project from `(name, body)` pairs, parsing only the
    /// files this cache has never seen.
    pub fn project(&self, files: &[(String, String)]) -> Result<JavaProject, String> {
        let mut project = JavaProject::new();
        for (name, body) in files {
            let key = ContentKey::of_file(name, body);
            let cached = self.parse.lock().unwrap().get(&key).cloned();
            self.parse_stats.record(cached.is_some());
            match cached {
                Some(file) => project.files_mut().push(file.as_ref().clone()),
                None => {
                    project
                        .add_file(name, body)
                        .map_err(|e| format!("{name}: {e}"))?;
                    let parsed = project.files().last().expect("just added").clone();
                    self.parse.lock().unwrap().insert(key, Arc::new(parsed));
                }
            }
        }
        Ok(project)
    }

    /// Run the shared incremental analyzer over a project. Returns the
    /// ranked suggestions. Per-file results persist across requests.
    pub fn analyze(&self, project: &JavaProject) -> Vec<jepo_analyzer::Suggestion> {
        let mut guard = self.analysis.lock().unwrap();
        let (analyzer, cache) = &mut *guard;
        let mut suggestions = analyzer.analyze_project_incremental(project, cache);
        jepo_analyzer::impact::rank(&mut suggestions);
        suggestions
    }

    /// Fetch or build the shared compiled forms of a corpus for
    /// profiling.
    pub fn prepared(
        &self,
        key: ContentKey,
        build: impl FnOnce() -> Result<PreparedProgram, String>,
    ) -> Result<Arc<PreparedProgram>, String> {
        let cached = self.prepared.lock().unwrap().get(&key).cloned();
        self.prepared_stats.record(cached.is_some());
        if let Some(p) = cached {
            return Ok(p);
        }
        let built = Arc::new(build()?);
        // Racing builders both insert identical (deterministic) forms;
        // last write wins and either value is correct.
        self.prepared.lock().unwrap().insert(key, built.clone());
        Ok(built)
    }

    /// Look up a memoized full response for canonical request bytes.
    pub fn memo_get(&self, key: ContentKey) -> Option<Arc<String>> {
        let hit = self.memo.lock().unwrap().get(&key).cloned();
        self.memo_stats.record(hit.is_some());
        hit
    }

    /// Memoize a response body.
    pub fn memo_put(&self, key: ContentKey, body: &str) {
        self.memo
            .lock()
            .unwrap()
            .insert(key, Arc::new(body.to_string()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_key_distinguishes_file_splits() {
        // Same concatenated bytes, different file boundaries.
        let a = ContentKey::of_files(&[("ab".into(), "c".into())]);
        let b = ContentKey::of_files(&[("a".into(), "bc".into())]);
        assert_ne!(a, b);
        let c = ContentKey::of_files(&[("ab".into(), "c".into())]);
        assert_eq!(a, c);
    }

    #[test]
    fn project_parse_cache_hits_on_repeat() {
        let cache = HotCache::new();
        let files = vec![
            ("A.java".to_string(), "class A { void f() { } }".to_string()),
            ("B.java".to_string(), "class B { void g() { } }".to_string()),
        ];
        let p1 = cache.project(&files).unwrap();
        assert_eq!(cache.parse_stats.get(), (0, 2));
        let p2 = cache.project(&files).unwrap();
        assert_eq!(cache.parse_stats.get(), (2, 2));
        assert_eq!(p1.len(), p2.len());
        // The cached project analyzes identically to the fresh one.
        assert_eq!(
            format!("{:?}", cache.analyze(&p1)),
            format!("{:?}", cache.analyze(&p2))
        );
    }

    #[test]
    fn memo_round_trips() {
        let cache = HotCache::new();
        let key = ContentKey::of(b"request-bytes");
        assert!(cache.memo_get(key).is_none());
        cache.memo_put(key, "the body");
        assert_eq!(cache.memo_get(key).unwrap().as_str(), "the body");
        assert_eq!(cache.memo_stats.get(), (1, 1));
    }
}
