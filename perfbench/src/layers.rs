//! Per-layer measurement for the traced run: spans recorded around the
//! benchmark's own calls into each layer's public functions, and the
//! counters the program already publishes in its metrics registry.

use crate::stats::Json;
use crate::traffic::{self, Kind, Traffic};
use jepo_core::{JepoProfiler, ProfileReport, ProfilingMode};
use jepo_jlang::{JavaProject, MainClassChoice};
use jepo_jvm::Vm;
use jepo_serve::codec::{self, Request};
use jepo_serve::{ops, ContentKey, HotCache};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One timed call. Spans of one operation share its `op` id; `parent` is
/// the index of the enclosing span.
struct Span {
    op: usize,
    name: String,
    parent: Option<usize>,
    start: Duration,
    dur: Duration,
}

/// Spans kept in memory until the run ends.
pub struct Spans {
    epoch: Instant,
    list: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            list: Vec::new(),
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        op: usize,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(op, name, parent);
        let out = black_box(f());
        self.close(id);
        out
    }

    pub fn open(&mut self, op: usize, name: &str, parent: Option<usize>) -> usize {
        self.list.push(Span {
            op,
            name: name.to_string(),
            parent,
            start: self.epoch.elapsed(),
            dur: Duration::ZERO,
        });
        self.list.len() - 1
    }

    /// End span `id`; returns its duration in ms.
    pub fn close(&mut self, id: usize) -> f64 {
        self.list[id].dur = self.epoch.elapsed() - self.list[id].start;
        self.list[id].dur.as_secs_f64() * 1e3
    }

    /// Add a span measured elsewhere: from `base + from` to `base + to`.
    pub fn record(
        &mut self,
        op: usize,
        name: &str,
        parent: Option<usize>,
        base: Instant,
        from: Duration,
        to: Duration,
    ) -> usize {
        self.list.push(Span {
            op,
            name: name.to_string(),
            parent,
            start: (base + from).saturating_duration_since(self.epoch),
            dur: to.saturating_sub(from),
        });
        self.list.len() - 1
    }

    /// Total milliseconds in spans called `name`, divided by `ops`.
    pub fn per_op_ms(&self, name: &str, ops: usize) -> f64 {
        let total: Duration = self
            .list
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur)
            .sum();
        total.as_secs_f64() * 1e3 / ops.max(1) as f64
    }

    /// Write the spans as JSON lines.
    pub fn write(&self, path: &std::path::Path) -> Result<(), String> {
        let mut text = String::new();
        for (id, s) in self.list.iter().enumerate() {
            text.push_str(&format!(
                "{{\"id\":{id},\"op\":{},\"name\":\"{}\",\"parent\":{},\"start_us\":{},\"dur_us\":{}}}\n",
                s.op,
                s.name,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start.as_micros(),
                s.dur.as_micros()
            ));
        }
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Counter values, and histogram sums with their observation counts, of a
/// metrics registry. A counter's count is `None`.
#[derive(Default)]
pub struct Registry(BTreeMap<String, (f64, Option<f64>)>);

impl Registry {
    /// Read a `--metrics` dump (one JSON object per line).
    pub fn read(path: &std::path::Path) -> Result<Registry, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut map = BTreeMap::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let j = Json::parse(line)?;
            let name = j.str("metric").ok_or("metric line without a name")?;
            let entry = match j.str("type") {
                Some("histogram") => (j.num(&["sum"]), j.num(&["count"])),
                _ => (j.num(&["value"]), None),
            };
            if let (Some(v), c) = entry {
                map.insert(name.to_string(), (v, c));
            }
        }
        Ok(Registry(map))
    }

    /// The registry of this process.
    pub fn in_process() -> Registry {
        use jepo_trace::MetricValue;
        let map = jepo_trace::Registry::global()
            .snapshot()
            .into_iter()
            .map(|m| {
                let v = match m.value {
                    MetricValue::Counter(v) => (v as f64, None),
                    MetricValue::Gauge(v) => (v, None),
                    MetricValue::Histogram { count, sum, .. } => (sum as f64, Some(count as f64)),
                };
                (m.name, v)
            })
            .collect();
        Registry(map)
    }

    /// What was recorded after `earlier` was taken. A histogram with no
    /// new observations reads 0, not the difference of two set-ups' sums.
    pub fn minus(&self, earlier: &Registry) -> Registry {
        let mut map = self.0.clone();
        for (name, (v, c)) in &mut map {
            if let Some((v0, c0)) = earlier.0.get(name) {
                *v -= v0;
                if let (Some(c), Some(c0)) = (c.as_mut(), c0) {
                    *c -= c0;
                    if *c == 0.0 {
                        *v = 0.0;
                    }
                }
            }
        }
        Registry(map)
    }

    /// A counter's value or a histogram's sum; 0 when never recorded.
    pub fn sum(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |e| e.0)
    }

    /// Sum of the histograms named `prefix*`, with their observation count.
    pub fn sum_prefixed(&self, prefix: &str) -> (f64, f64) {
        self.0
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .fold((0.0, 0.0), |(s, c), (_, (v, n))| {
                (s + v, c + n.unwrap_or(0.0))
            })
    }
}

/// Analyzer phases in the registry, as `(metric, histogram)`.
/// `flow` contains `cfg` and `dataflow`.
pub const ANALYZER_PHASES: [(&str, &str); 6] = [
    ("analyzer.interproc_ms", "analyzer.phase.interproc_ns"),
    ("analyzer.flow_ms", "analyzer.phase.flow_ns"),
    ("analyzer.cfg_ms", "analyzer.phase.cfg_ns"),
    ("analyzer.dataflow_ms", "analyzer.phase.dataflow_ns"),
    ("analyzer.rules_ms", "analyzer.phase.rules_ns"),
    ("analyzer.impact_ms", "analyzer.phase.impact_ns"),
];

/// Milliseconds in the analyzer's top-level phases; `flow` contains `cfg`
/// and `dataflow`.
pub fn phases_ms(reg: &Registry) -> f64 {
    ["interproc", "flow", "rules", "impact"]
        .iter()
        .map(|p| reg.sum(&format!("analyzer.phase.{p}_ns")) / 1e6)
        .sum()
}

/// Registry counters per operation: the analyzer's phases and cache, and
/// the worker pool.
pub fn registry_metrics(reg: &Registry, ops: usize, out: &mut crate::Outcome) {
    let per_op = |v: f64| v / ops.max(1) as f64;
    for (metric, hist) in ANALYZER_PHASES {
        out.metric(metric, per_op(reg.sum(hist)) / 1e6);
    }
    out.metric("analyzer.units_per_op", per_op(reg.sum("analyzer.units")));
    out.metric(
        "analyzer.cache_hit_ratio",
        ratio(
            reg.sum("analyzer.cache.hit"),
            reg.sum("analyzer.cache.miss"),
        ),
    );
    out.metric("pool.busy_ms", per_op(reg.sum("pool.worker.busy_ns")) / 1e6);
    out.metric("pool.idle_ms", per_op(reg.sum("pool.worker.idle_ns")) / 1e6);
    out.metric("pool.items", per_op(reg.sum("pool.items")));
}

/// `hits / (hits + misses)`, 0 when there were no lookups.
pub fn ratio(hits: f64, misses: f64) -> f64 {
    if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    }
}

/// Exact counts of one profiled run; they must not move between runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmCounts {
    pub ops_executed: u64,
    pub profile_events: u64,
    pub probes: u64,
    pub ic_hits: u64,
    pub ic_misses: u64,
    pub ir_methods_compiled: u64,
    pub ir_methods_bailed: u64,
    pub ir_calls_inlined: u64,
    pub ir_ops_hoisted: u64,
}

/// What the serve replay measured besides its spans.
#[derive(Default)]
pub struct ServeReplay {
    pub req_bytes: f64,
    pub resp_bytes: f64,
    pub parsed_bytes: f64,
    /// Summed over the replayed operations.
    pub engine_ms: f64,
    pub vm: Option<VmCounts>,
}

/// Replay the sampled operations `sample` of a daemon workload through the
/// same public functions the daemon calls, one span per call. The cache is
/// primed as the daemon's set-up primed it. Fails if a replay's output
/// differs from the reference or an exact count moves between operations.
pub fn replay_serve(
    traffic: &Traffic,
    sample: &[usize],
    spans: &mut Spans,
) -> Result<ServeReplay, String> {
    let cache = HotCache::new();
    for req in &traffic.prime {
        ops::execute(req, &cache).map_err(|e| e.to_string())?;
    }
    let analyzer = jepo_analyzer::Analyzer::interprocedural();
    let mut analysis = analyzer.new_cache();
    if traffic.kind == Kind::EditAnalyze {
        let base = traffic::project_of(traffic.base())?;
        analyzer.analyze_project_incremental(&base, &mut analysis);
    }
    let mut facts = ServeReplay::default();
    for &k in sample {
        let payload = traffic.request(k).encode();
        let op = spans.open(k, "replay/op", None);
        let req = spans
            .time(k, "serve.decode", Some(op), || Request::decode(&payload))
            .map_err(|e| e.to_string())?;
        let key = spans.time(k, "serve.memo_key", Some(op), || {
            ContentKey::of(&req.encode())
        });
        let (body, cache_flag) = if traffic.kind == Kind::WarmRead {
            let hit = cache
                .memo_get(key)
                .ok_or("a primed response is not memoized")?;
            (hit.as_ref().clone(), "warm")
        } else {
            // The daemon parses only files it has not seen: those that
            // differ from the primed base.
            let edited = req.files.iter().zip(traffic.base()).filter(|(f, b)| f != b);
            for ((name, text), _) in edited {
                facts.parsed_bytes += text.len() as f64;
                spans
                    .time(k, "jlang.parse", Some(op), || {
                        JavaProject::new().add_file(name, text)
                    })
                    .map_err(|e| e.to_string())?;
            }
            // As the daemon's miss did, put the edit in the parse cache; the
            // timed call below then assembles from a warm cache.
            cache.project(&req.files)?;
            let project =
                spans.time(k, "serve.assemble", Some(op), || cache.project(&req.files))?;
            let body = if traffic.kind == Kind::EditAnalyze {
                // The daemon's registry times the analyzer's phases. The
                // replay times the whole incremental call with the registry
                // on and keeps what its phases leave: the engine's own work
                // (content hashes, cache lookups, cloned cached rows, merge).
                let registry = jepo_trace::Registry::global();
                let before = Registry::in_process();
                registry.enable();
                let call = spans.open(k, "analyzer.incremental", Some(op));
                let mut found = analyzer.analyze_project_incremental(&project, &mut analysis);
                let call_ms = spans.close(call);
                registry.disable();
                facts.engine_ms += call_ms - phases_ms(&Registry::in_process().minus(&before));
                spans.time(k, "analyzer.rank", Some(op), || {
                    jepo_analyzer::impact::rank(&mut found)
                });
                spans.time(k, "serve.render", Some(op), || {
                    ops::analyze_render(&found, project.len())
                })
            } else {
                let (body, counts) = replay_profile(k, &project, op, spans)?;
                match &facts.vm {
                    Some(first) if *first != counts => {
                        return Err(format!(
                            "exact counts moved between operations: {first:?} vs {counts:?}"
                        ))
                    }
                    _ => facts.vm = Some(counts),
                }
                body
            };
            (body, "cold")
        };
        if body != traffic.reference[traffic.reference_index(k)] {
            return Err(format!("the replay of op {k} differs from the reference"));
        }
        spans.time(k, "serve.events", Some(op), || {
            codec::body_events(&body, cache_flag)
                .iter()
                .map(|e| e.encode().len())
                .sum::<usize>()
        });
        spans.close(op);
        facts.req_bytes += payload.len() as f64;
        facts.resp_bytes += body.len() as f64;
    }
    Ok(facts)
}

/// One profile request, split the way `JepoProfiler::prepare` and
/// `profile_prepared` do the work.
fn replay_profile(
    k: usize,
    project: &JavaProject,
    op: usize,
    spans: &mut Spans,
) -> Result<(String, VmCounts), String> {
    let profiler = JepoProfiler::new();
    let err = |e: jepo_jvm::VmError| e.to_string();
    spans
        .time(k, "jvm.prepare", Some(op), || profiler.prepare(project))
        .map_err(err)?;
    let plain = spans
        .time(k, "jvm.compile", Some(op), || {
            jepo_jvm::compile_project(project)
        })
        .map_err(err)?;
    let (instr, probes) = spans.time(k, "jvm.instrument", Some(op), || {
        let mut instr = plain.clone();
        let probes = jepo_jvm::instrument_all(&mut instr);
        (instr, probes)
    });
    let (plain_dp, instr_dp) = spans.time(k, "jvm.decode", Some(op), || {
        (jepo_jvm::decode(&plain), jepo_jvm::decode(&instr))
    });
    let instr_ir = spans.time(k, "jvm.ir", Some(op), || {
        black_box(jepo_jvm::ir::compile(&plain, &plain_dp));
        jepo_jvm::ir::compile(&instr, &instr_dp)
    });
    let ir = &instr_ir.stats;
    let (compiled, bailed, inlined, hoisted) = (
        ir.methods_compiled,
        ir.methods_bailed,
        ir.calls_inlined,
        ir.ops_hoisted,
    );
    // `JepoProfiler::new()` profiles on the paper's laptop.
    let mut vm = Vm::from_prepared(
        instr,
        Some(Arc::new(instr_dp)),
        Some(Arc::new(instr_ir)),
        true,
    )
    .with_dispatch(profiler.dispatch)
    .with_device(jepo_rapl::DeviceProfile::laptop_i5_3317u())
    .with_fuel(profiler.fuel);
    let run = spans
        .time(k, "jvm.exec", Some(op), || vm.run_main())
        .map_err(err)?;
    let records = spans.time(k, "profiler.aggregate", Some(op), || {
        Vm::aggregate_profile(&run.profile)
    });
    let MainClassChoice::Unique(main_class) = project.discover_main_class() else {
        return Err("the profiled corpus has no unique main class".into());
    };
    let counts = VmCounts {
        ops_executed: run.ops_executed,
        profile_events: run.profile.len() as u64,
        probes: probes as u64,
        ic_hits: run.ic_hits,
        ic_misses: run.ic_misses,
        ir_methods_compiled: compiled as u64,
        ir_methods_bailed: bailed as u64,
        ir_calls_inlined: inlined as u64,
        ir_ops_hoisted: hoisted as u64,
    };
    let (stdout, energy) = (run.stdout, run.energy);
    let body = spans.time(k, "profiler.render", Some(op), || {
        let result_txt = jepo_core::views::result_txt(&records);
        traffic::profile_body(&ProfileReport {
            main_class,
            mode: ProfilingMode::Instrumented,
            probes_injected: probes,
            records,
            sampled: None,
            stdout,
            energy,
            result_txt,
        })
    });
    Ok((body, counts))
}
