//! Incremental analysis cache — content-hashed per-file results.
//!
//! The analyzer pipeline (parse → CFG → dataflow → rules → impact) is a
//! pure function of a file's source text and the analyzer configuration,
//! so its output can be keyed by a content hash and reused verbatim when
//! the file has not changed. [`AnalysisCache`] holds one entry per file:
//! the normalized-source FNV-1a/64 hash and the final suggestion rows.
//! [`crate::engine::Analyzer::analyze_project_incremental_jobs`] consults
//! it to fan only *dirty* files over `jepo-pool` and merge cached rows
//! back in, bit-identically to a cold run.
//!
//! ## On-disk format
//!
//! [`AnalysisCache::save`] / [`AnalysisCache::load`] persist the cache so
//! separate CLI invocations stay warm (`jepo analyze --cache-dir`,
//! `jepo diff-energy`). The format is a line-oriented text file designed
//! around one rule: **a bad entry falls back to cold analysis, never to a
//! wrong answer.**
//!
//! ```text
//! jepo-analysis-cache v2
//! config <16-hex analyzer fingerprint>
//! F <name> <hash> <dep-hash> <d> <n>   -- begin entry: file, content hash,
//!                                         dependency hash, dep count, row count
//! D <file>                             -- one call-graph dependency (a file
//!                                         whose summaries this entry consulted)
//! S <line> <depth> <component> <impact-bits> <class> <matched> <message>
//! E <checksum>                         -- commit entry: FNV over its F+D+S lines
//! ```
//!
//! The dependency hash digests the resolved callee summaries the file's
//! interprocedural results consulted (see
//! [`crate::interproc::ProgramFacts::dep_hash`]); under the
//! non-interprocedural modes it is 0 and the `D` list is empty. A
//! caller therefore goes dirty when a *callee's* behavior changes even
//! though the caller's own text (and content hash) did not — the
//! dependency-aware invalidation the interprocedural rules require.
//!
//! Fields are tab-separated; strings escape `\` `\t` `\n` `\r`. Impact is
//! stored as raw `f64` bits so a round-trip is bit-exact. The loader is
//! tolerant by construction: a version or config mismatch yields an empty
//! cache; an entry is committed only when its row count and trailing
//! checksum both agree; any malformed line discards the pending entry and
//! scanning resumes at the next `F` line. Corruption can therefore only
//! ever *shrink* the warm set.

use crate::suggestion::{JavaComponent, Suggestion};
use std::collections::HashMap;
use std::path::Path;

/// Bumped whenever the entry layout or the meaning of a field changes;
/// part of the header, so old files are ignored wholesale.
pub const CACHE_FORMAT_VERSION: u32 = 2;

const MAGIC: &str = "jepo-analysis-cache v2";

/// FNV-1a/64 over raw bytes — the deterministic, dependency-free hash
/// every cache key derives from.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    jepo_trace::fnv1a(jepo_trace::FNV_OFFSET, bytes.iter().copied())
}

/// Content hash of a source file: FNV-1a/64 over the *normalized* text
/// (CRLF and lone CR become LF), so a checkout-format change doesn't
/// invalidate the world.
pub fn content_hash(source: &str) -> u64 {
    let bytes = source.as_bytes();
    // A CR followed by LF is dropped (the LF stays); a lone CR becomes LF.
    let normalized = bytes.iter().enumerate().filter_map(|(i, &b)| match b {
        b'\r' if bytes.get(i + 1) == Some(&b'\n') => None,
        b'\r' => Some(b'\n'),
        _ => Some(b),
    });
    jepo_trace::fnv1a(jepo_trace::FNV_OFFSET, normalized)
}

/// One cached file: the hashes its rows were computed from, plus the rows.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// [`content_hash`] of the source the suggestions were computed from.
    pub content_hash: u64,
    /// Digest of the callee summaries the file's interprocedural results
    /// consulted (0 under the non-interprocedural modes).
    pub dep_hash: u64,
    /// Files (other than this one) whose methods the results depended
    /// on, sorted — the explicit edge list behind `dep_hash`.
    pub deps: Vec<String>,
    /// Final per-file suggestion rows, sorted/deduped by
    /// `(file, line, component)` exactly as `analyze_unit` returns them.
    pub suggestions: Vec<Suggestion>,
}

/// Hit/miss accounting, cumulative over the cache's lifetime plus the
/// last incremental run's split (what the invalidation tests assert on).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Files served from the cache, lifetime total.
    pub hits: u64,
    /// Files that had to be (re-)analyzed, lifetime total.
    pub misses: u64,
    /// Hits in the most recent incremental run.
    pub last_hits: u64,
    /// Misses in the most recent incremental run.
    pub last_misses: u64,
}

/// Per-file analysis results keyed by file name, validated by content
/// hash, scoped to one analyzer configuration fingerprint.
#[derive(Debug, Clone)]
pub struct AnalysisCache {
    config: u64,
    entries: HashMap<String, CacheEntry>,
    stats: CacheStats,
}

impl AnalysisCache {
    /// Empty cache bound to an analyzer fingerprint
    /// ([`crate::engine::Analyzer::fingerprint`]).
    pub fn new(config: u64) -> AnalysisCache {
        AnalysisCache {
            config,
            entries: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// The fingerprint this cache's entries were computed under.
    pub fn config(&self) -> u64 {
        self.config
    }

    /// Number of cached files.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hit/miss accounting.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drop everything and rebind to a (possibly new) fingerprint.
    /// Lifetime stats survive — they describe the cache object, not the
    /// entry set.
    pub fn reset(&mut self, config: u64) {
        self.config = config;
        self.entries.clear();
    }

    /// Valid entry for `file` at exactly `hash`, if any. Does not touch
    /// stats — the engine accounts hits/misses per run. Ignores the
    /// dependency hash (the non-interprocedural modes store 0 there).
    pub fn lookup(&self, file: &str, hash: u64) -> Option<&CacheEntry> {
        self.entries.get(file).filter(|e| e.content_hash == hash)
    }

    /// [`AnalysisCache::lookup`] that additionally requires the stored
    /// dependency hash to equal `dep_hash` — a callee-side behavior
    /// change misses here even when the file's own text is unchanged.
    pub fn lookup_deps(&self, file: &str, hash: u64, dep_hash: u64) -> Option<&CacheEntry> {
        self.entries
            .get(file)
            .filter(|e| e.content_hash == hash && e.dep_hash == dep_hash)
    }

    /// Insert/replace the entry for `file` (no dependency facts).
    pub fn insert(&mut self, file: &str, hash: u64, suggestions: Vec<Suggestion>) {
        self.insert_deps(file, hash, 0, Vec::new(), suggestions);
    }

    /// Insert/replace the entry for `file` with its call-graph
    /// dependency hash and edge list.
    pub fn insert_deps(
        &mut self,
        file: &str,
        hash: u64,
        dep_hash: u64,
        mut deps: Vec<String>,
        suggestions: Vec<Suggestion>,
    ) {
        deps.sort();
        deps.dedup();
        self.entries.insert(
            file.to_string(),
            CacheEntry {
                content_hash: hash,
                dep_hash,
                deps,
                suggestions,
            },
        );
    }

    /// Drop entries for files not in `live` (project shrank / was
    /// renamed); keeps the cache from growing without bound across
    /// revisions.
    pub fn retain_files(&mut self, live: &std::collections::HashSet<&str>) {
        self.entries.retain(|k, _| live.contains(k.as_str()));
    }

    pub(crate) fn record_run(&mut self, hits: u64, misses: u64) {
        self.stats.hits += hits;
        self.stats.misses += misses;
        self.stats.last_hits = hits;
        self.stats.last_misses = misses;
    }

    // ---------------------------------------------------------------
    // Disk persistence
    // ---------------------------------------------------------------

    /// Serialize the cache to its on-disk text format.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        out.push_str(MAGIC);
        out.push('\n');
        out.push_str(&format!("config\t{:016x}\n", self.config));
        // Deterministic entry order so identical caches are identical
        // bytes on disk.
        let mut names: Vec<&String> = self.entries.keys().collect();
        names.sort();
        for name in names {
            let e = &self.entries[name];
            let mut body = String::new();
            body.push_str(&format!(
                "F\t{}\t{:016x}\t{:016x}\t{}\t{}\n",
                esc(name),
                e.content_hash,
                e.dep_hash,
                e.deps.len(),
                e.suggestions.len()
            ));
            for d in &e.deps {
                body.push_str(&format!("D\t{}\n", esc(d)));
            }
            for s in &e.suggestions {
                body.push_str(&format!(
                    "S\t{}\t{}\t{:?}\t{:016x}\t{}\t{}\t{}\n",
                    s.line,
                    s.loop_depth,
                    s.component,
                    s.impact.to_bits(),
                    esc(&s.class),
                    esc(&s.matched),
                    esc(&s.message)
                ));
            }
            out.push_str(&body);
            out.push_str(&format!("E\t{:016x}\n", fnv1a64(body.as_bytes())));
        }
        out
    }

    /// Write the cache to `path` (parent directories are created).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.serialize())
    }

    /// Parse a serialized cache. Tolerant: any anomaly drops the
    /// offending entry (or, for header problems, the whole file) and
    /// never errors — a cold start is always a correct answer.
    pub fn deserialize(text: &str, config: u64) -> AnalysisCache {
        let mut cache = AnalysisCache::new(config);
        let mut lines = text.lines();
        if lines.next() != Some(MAGIC) {
            return cache;
        }
        match lines.next().and_then(|l| l.strip_prefix("config\t")) {
            Some(hex) if u64::from_str_radix(hex, 16) == Ok(config) => {}
            _ => return cache,
        }
        // Pending entry being accumulated (the raw body feeds the
        // trailing checksum).
        struct Pending {
            name: String,
            hash: u64,
            dep_hash: u64,
            ndeps: usize,
            nrows: usize,
            deps: Vec<String>,
            rows: Vec<Suggestion>,
            body: String,
        }
        let mut pending: Option<Pending> = None;
        for line in lines {
            let fields: Vec<&str> = line.split('\t').collect();
            match fields.first().copied() {
                Some("F") => {
                    // A new entry header always discards any half-read
                    // predecessor (it never saw its E line).
                    pending =
                        parse_file_header(&fields).map(|(name, hash, dep_hash, ndeps, nrows)| {
                            Pending {
                                name,
                                hash,
                                dep_hash,
                                ndeps,
                                nrows,
                                deps: Vec::new(),
                                rows: Vec::new(),
                                body: format!("{line}\n"),
                            }
                        });
                }
                Some("D") => {
                    let Some(p) = pending.as_mut() else { continue };
                    match (fields.len() == 2).then(|| unesc(fields[1])).flatten() {
                        // D lines must all precede the S lines, as written.
                        Some(d) if p.deps.len() < p.ndeps && p.rows.is_empty() => {
                            p.deps.push(d);
                            p.body.push_str(line);
                            p.body.push('\n');
                        }
                        _ => pending = None,
                    }
                }
                Some("S") => {
                    let Some(p) = pending.as_mut() else { continue };
                    match parse_suggestion_row(&fields, &p.name) {
                        Some(s) if p.rows.len() < p.nrows && p.deps.len() == p.ndeps => {
                            p.rows.push(s);
                            p.body.push_str(line);
                            p.body.push('\n');
                        }
                        _ => pending = None,
                    }
                }
                Some("E") => {
                    let Some(p) = pending.take() else {
                        continue;
                    };
                    let ok = p.rows.len() == p.nrows
                        && p.deps.len() == p.ndeps
                        && fields.len() == 2
                        && u64::from_str_radix(fields[1], 16) == Ok(fnv1a64(p.body.as_bytes()));
                    if ok {
                        cache.insert_deps(&p.name, p.hash, p.dep_hash, p.deps, p.rows);
                    }
                }
                _ => pending = None,
            }
        }
        cache
    }

    /// Load a cache from `path` for the given fingerprint. A missing,
    /// unreadable, stale-version, or mismatched-config file yields an
    /// empty cache (cold start), never an error.
    pub fn load(path: &Path, config: u64) -> AnalysisCache {
        match std::fs::read_to_string(path) {
            Ok(text) => AnalysisCache::deserialize(&text, config),
            Err(_) => AnalysisCache::new(config),
        }
    }
}

fn parse_file_header(fields: &[&str]) -> Option<(String, u64, u64, usize, usize)> {
    if fields.len() != 6 {
        return None;
    }
    let name = unesc(fields[1])?;
    let hash = u64::from_str_radix(fields[2], 16).ok()?;
    let dep_hash = u64::from_str_radix(fields[3], 16).ok()?;
    let ndeps: usize = fields[4].parse().ok()?;
    let nrows: usize = fields[5].parse().ok()?;
    Some((name, hash, dep_hash, ndeps, nrows))
}

fn parse_suggestion_row(fields: &[&str], file: &str) -> Option<Suggestion> {
    if fields.len() != 8 {
        return None;
    }
    let line: u32 = fields[1].parse().ok()?;
    let loop_depth: u32 = fields[2].parse().ok()?;
    let component = component_by_name(fields[3])?;
    let impact = f64::from_bits(u64::from_str_radix(fields[4], 16).ok()?);
    let class = unesc(fields[5])?;
    let matched = unesc(fields[6])?;
    let message = unesc(fields[7])?;
    Some(Suggestion {
        file: file.to_string(),
        class,
        line,
        component,
        message,
        matched,
        loop_depth,
        impact,
    })
}

/// Reverse of the `{:?}` rendering used by the serializer; unknown names
/// (from a future rule set) drop the entry rather than guessing.
fn component_by_name(name: &str) -> Option<JavaComponent> {
    JavaComponent::ALL
        .into_iter()
        .chain(JavaComponent::EXTENDED)
        .chain(JavaComponent::INTERPROC)
        .find(|c| format!("{c:?}") == name)
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unesc(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_suggestion(file: &str, line: u32) -> Suggestion {
        let mut s = Suggestion::new(
            file,
            "pkg.Cls",
            line,
            JavaComponent::StringConcatenation,
            "s += parts[i]",
        );
        s.loop_depth = 2;
        s.impact = 8.8 * 64.0;
        s
    }

    fn sample_cache() -> AnalysisCache {
        let mut c = AnalysisCache::new(0xfeed);
        c.insert("A.java", 11, vec![sample_suggestion("A.java", 3)]);
        c.insert_deps(
            "dir/B.java",
            22,
            0xdeb,
            vec!["A.java".into(), "Empty.java".into()],
            vec![sample_suggestion("dir/B.java", 5), {
                let mut s = sample_suggestion("dir/B.java", 9);
                s.component = JavaComponent::DeadStore;
                s.matched = "odd\tchars\nhere\\".into();
                s
            }],
        );
        c.insert("Empty.java", 33, vec![]);
        c
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a/64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn content_hash_normalizes_line_endings() {
        let lf = "class A {\n int x;\n}\n";
        let crlf = "class A {\r\n int x;\r\n}\r\n";
        let cr = "class A {\r int x;\r}\r";
        assert_eq!(content_hash(lf), content_hash(crlf));
        assert_eq!(content_hash(lf), content_hash(cr));
        assert_ne!(content_hash(lf), content_hash("class A {\n int y;\n}\n"));
        assert_eq!(content_hash(lf), fnv1a64(lf.as_bytes()));
    }

    #[test]
    fn lookup_validates_hash() {
        let cache = sample_cache();
        assert!(cache.lookup("A.java", 11).is_some());
        assert!(cache.lookup("A.java", 12).is_none(), "stale hash misses");
        assert!(cache.lookup("Z.java", 11).is_none(), "unknown file misses");
    }

    #[test]
    fn lookup_deps_validates_both_hashes() {
        let cache = sample_cache();
        assert!(cache.lookup_deps("dir/B.java", 22, 0xdeb).is_some());
        assert!(
            cache.lookup_deps("dir/B.java", 22, 0xbad).is_none(),
            "same text, changed callee summaries: a dep-aware miss"
        );
        assert!(cache.lookup_deps("dir/B.java", 23, 0xdeb).is_none());
        // Plain lookup deliberately ignores the dep hash.
        assert!(cache.lookup("dir/B.java", 22).is_some());
        // Entries inserted without deps carry dep_hash 0.
        assert!(cache.lookup_deps("A.java", 11, 0).is_some());
        assert!(cache.lookup_deps("A.java", 11, 7).is_none());
        let e = cache.lookup_deps("dir/B.java", 22, 0xdeb).unwrap();
        assert_eq!(e.deps, vec!["A.java".to_string(), "Empty.java".to_string()]);
    }

    #[test]
    fn round_trip_is_exact() {
        let cache = sample_cache();
        let text = cache.serialize();
        let back = AnalysisCache::deserialize(&text, 0xfeed);
        assert_eq!(back.len(), 3);
        for (name, e) in &cache.entries {
            let b = back.lookup(name, e.content_hash).expect(name);
            assert_eq!(b.suggestions, e.suggestions, "{name}");
            assert_eq!(b.dep_hash, e.dep_hash, "{name}");
            assert_eq!(b.deps, e.deps, "{name}");
            for (x, y) in b.suggestions.iter().zip(&e.suggestions) {
                assert_eq!(x.impact.to_bits(), y.impact.to_bits(), "f64 bit-exact");
            }
        }
        // Serialization is deterministic.
        assert_eq!(text, back.serialize());
    }

    #[test]
    fn config_mismatch_yields_cold_cache() {
        let text = sample_cache().serialize();
        assert!(AnalysisCache::deserialize(&text, 0xbeef).is_empty());
    }

    #[test]
    fn version_or_magic_mismatch_yields_cold_cache() {
        let text = sample_cache().serialize();
        let bumped = text.replace("v2", "v9");
        assert!(AnalysisCache::deserialize(&bumped, 0xfeed).is_empty());
        assert!(AnalysisCache::deserialize("garbage\nlines\n", 0xfeed).is_empty());
        assert!(AnalysisCache::deserialize("", 0xfeed).is_empty());
    }

    #[test]
    fn corrupt_entries_are_dropped_not_propagated() {
        let cache = sample_cache();
        let text = cache.serialize();

        // Flip one byte inside each line in turn; whatever happens, the
        // loader must keep only entries whose checksums still validate
        // and every surviving entry must be byte-exact.
        for i in 0..text.len() {
            let mut bytes = text.as_bytes().to_vec();
            bytes[i] ^= 0x40;
            let Ok(mutated) = String::from_utf8(bytes) else {
                continue;
            };
            let back = AnalysisCache::deserialize(&mutated, 0xfeed);
            assert!(back.len() <= 3);
            for (name, e) in &back.entries {
                let orig = cache.entries.get(name);
                // A surviving entry under the original name must be
                // identical to the original, or belong to a mutated
                // name/hash we can't confuse with the original file.
                if let Some(o) = orig {
                    if e.content_hash == o.content_hash {
                        assert_eq!(e.suggestions, o.suggestions, "byte {i}");
                    }
                }
            }
        }

        // Truncation mid-entry: only fully-committed entries survive.
        let cut = &text[..text.len() * 2 / 3];
        let back = AnalysisCache::deserialize(cut, 0xfeed);
        assert!(back.len() < 3);
        for (name, e) in &back.entries {
            assert_eq!(e.suggestions, cache.entries[name].suggestions);
        }
    }

    #[test]
    fn save_and_load_via_disk() {
        let dir = std::env::temp_dir().join(format!("jepo-cache-{}", std::process::id()));
        let path = dir.join("sub").join("analysis.jepocache");
        let cache = sample_cache();
        cache.save(&path).unwrap();
        let back = AnalysisCache::load(&path, 0xfeed);
        assert_eq!(back.len(), 3);
        // Missing file → cold, not error.
        assert!(AnalysisCache::load(&dir.join("absent"), 0xfeed).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn escaping_round_trips() {
        for s in ["", "plain", "a\tb", "a\nb", "a\\b", "\\t", "mix\t\n\r\\end"] {
            assert_eq!(unesc(&esc(s)).as_deref(), Some(s), "{s:?}");
        }
        assert_eq!(unesc("dangling\\"), None);
        assert_eq!(unesc("bad\\q"), None);
    }

    #[test]
    fn retain_files_prunes_dead_entries() {
        let mut cache = sample_cache();
        let live: std::collections::HashSet<&str> = ["A.java"].into_iter().collect();
        cache.retain_files(&live);
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup("A.java", 11).is_some());
    }
}
