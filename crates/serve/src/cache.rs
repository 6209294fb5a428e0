//! The daemon's shared hot cache.
//!
//! Three layers, all keyed by content so identical bytes are never
//! re-processed, and all shared across worker threads:
//!
//! 1. **Parse cache** — `(file name, text)` content hash → parsed
//!    [`SourceFile`] (AST included). Warm requests assemble a
//!    [`JavaProject`] without running the parser.
//! 2. **Analysis cache** — the incremental per-file analyzer cache
//!    (PR 8), shared across requests so any file seen before, in any
//!    corpus, is an analyzer cache hit.
//! 3. **Response memo** — request payload bytes, as received → full
//!    response body. A repeat of an identical request is served from
//!    memory; this is what the `"cache":"warm"` flag on the done event
//!    means. A hit hands out the stored `Arc`, never a copy.
//!
//! A `profile` request that misses the memo compiles, instruments and
//! lowers its corpus afresh: compiled programs are not kept, so one that
//! differs from an earlier request only in its parameters recompiles.
//!
//! Everything cached is immutable once inserted (`Arc`s are handed
//! out), so readers never see partial state; correctness is proven by
//! the warm-equals-cold byte-identity tests.

use jepo_jlang::{JavaProject, SourceFile};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// 128-bit content key (two independently-seeded FNV-1a lanes) —
/// collision odds are negligible at cache scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContentKey(u64, u64);

/// Mixed into the FNV offset basis to seed the second lane.
const SECOND_LANE: u64 = 0x9e37_79b9_7f4a_7c15;

impl ContentKey {
    /// Hash one byte string. Both lanes advance in one pass over the
    /// bytes, so their multiplies overlap instead of running in turn.
    pub fn of(bytes: &[u8]) -> ContentKey {
        use jepo_trace::{fnv1a, FNV_OFFSET};
        let (a, b) = bytes
            .iter()
            .fold((FNV_OFFSET, FNV_OFFSET ^ SECOND_LANE), |(a, b), &byte| {
                (fnv1a(a, [byte]), fnv1a(b, [byte]))
            });
        ContentKey(a, b)
    }

    /// Hash one named file (length-prefixed so name/body bytes cannot
    /// alias).
    pub fn of_file(name: &str, body: &str) -> ContentKey {
        let mut buf = Vec::with_capacity(name.len() + body.len() + 16);
        buf.extend_from_slice(format!("{} {}\n", name.len(), body.len()).as_bytes());
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(body.as_bytes());
        ContentKey::of(&buf)
    }
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
    memo: Mutex<HashMap<ContentKey, Arc<String>>>,
    /// Per-layer hit/miss counters: parse, memo.
    pub parse_stats: LayerStats,
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
            memo: Mutex::new(HashMap::new()),
            parse_stats: LayerStats::default(),
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

    /// Look up a memoized full response for a request's payload bytes.
    pub fn memo_get(&self, key: ContentKey) -> Option<Arc<String>> {
        let hit = self.memo.lock().unwrap().get(&key).cloned();
        self.memo_stats.record(hit.is_some());
        hit
    }

    /// Memoize a response body and hand it back shared. The body is
    /// trimmed to its length first: the memo lives as long as the daemon,
    /// and a render's growth slack would stay with it.
    pub fn memo_put(&self, key: ContentKey, mut body: String) -> Arc<String> {
        body.shrink_to_fit();
        let body = Arc::new(body);
        self.memo.lock().unwrap().insert(key, Arc::clone(&body));
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_key_lanes_are_two_seeded_fnv1a_hashes() {
        use jepo_trace::{fnv1a, FNV_OFFSET};
        for bytes in [&b""[..], b"x", b"jepo1 analyze\nend\n"] {
            assert_eq!(
                ContentKey::of(bytes),
                ContentKey(
                    fnv1a(FNV_OFFSET, bytes.iter().copied()),
                    fnv1a(FNV_OFFSET ^ SECOND_LANE, bytes.iter().copied()),
                )
            );
        }
    }

    #[test]
    fn content_key_distinguishes_file_splits() {
        // Same concatenated bytes, different file boundaries.
        let a = ContentKey::of_file("ab", "c");
        let b = ContentKey::of_file("a", "bc");
        assert_ne!(a, b);
        assert_eq!(a, ContentKey::of_file("ab", "c"));
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
        let stored = cache.memo_put(key, "the body".to_string());
        let hit = cache.memo_get(key).unwrap();
        assert_eq!(hit.as_str(), "the body");
        assert!(
            Arc::ptr_eq(&hit, &stored),
            "a hit must share the stored body"
        );
        assert_eq!(cache.memo_stats.get(), (1, 1));
    }
}
