//! Spans, tracks and energy probes.
//!
//! A [`Tracer`] owns the recorded events. Work units enter a named
//! *track* with [`track`] (or [`Tracer::track`]); while a track guard is
//! live on the current thread, [`span`] opens energy-attributed spans on
//! it. Closing a span (guard drop) records wall time and an energy delta
//! from the track's bound [`EnergyProbe`], plus any joules attributed
//! explicitly via [`SpanGuard::add_joules`].
//!
//! IDs are deterministic: a span's ID mixes the FNV-1a hash of its track
//! name with the span's arrival index *within the track*, so two runs
//! that do the same work produce the same IDs regardless of which OS
//! thread serviced which track.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A cumulative, wrap-corrected energy reading in joules.
///
/// Implementations must be monotone non-decreasing: the value is "total
/// joules observed since the probe was created", with any 32-bit RAPL
/// counter wraps already corrected below this trait (see
/// `jepo_rapl::probe::CounterProbe`, which routes raw MSR reads through
/// the wrap-aware `CounterReader`).
pub trait EnergyProbe: Send + Sync {
    /// Total joules accumulated since probe creation.
    fn total_joules(&self) -> f64;
}

/// splitmix64 finalizer — spreads sequence numbers across ID space.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One recorded event (export formats are derived views). Span names
/// are interned `Arc<str>`s: the registry allocates a name once, and
/// every later span/instant with the same name is a refcount bump — no
/// per-span `String` allocation on the enabled hot path.
#[derive(Debug, Clone)]
pub(crate) enum EventKind {
    Begin {
        span_id: u64,
        parent_id: u64,
        name: Arc<str>,
    },
    End {
        span_id: u64,
        package_j: f64,
    },
    /// A point-in-time marker (profiler sample ticks) with an energy
    /// annotation; exports as a Chrome `ph:"i"` instant event.
    Instant {
        name: Arc<str>,
        package_j: f64,
    },
}

#[derive(Debug, Clone)]
pub(crate) struct Event {
    /// Track index into [`TraceData::tracks`].
    pub track: usize,
    /// Per-track event sequence number (deterministic).
    pub seq: u64,
    /// Nanoseconds since the tracer's epoch (timing-only; masked for
    /// content comparisons).
    pub ts_ns: u64,
    pub kind: EventKind,
}

/// A drained copy of everything a tracer recorded.
#[derive(Debug, Clone, Default)]
pub struct TraceData {
    pub(crate) tracks: Vec<String>,
    pub(crate) events: Vec<Event>,
}

impl TraceData {
    /// Number of recorded events (begin + end).
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Number of complete spans (end events).
    pub fn span_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::End { .. }))
            .count()
    }

    /// Track names, in creation order.
    pub fn track_names(&self) -> &[String] {
        &self.tracks
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

struct Track {
    name: String,
    name_hash: u64,
    next_span_seq: u64,
    next_event_seq: u64,
}

#[derive(Default)]
struct State {
    tracks: Vec<Track>,
    by_name: HashMap<String, usize>,
    /// Interned span/instant names (lookup by `&str` via `Borrow`).
    names: std::collections::HashSet<Arc<str>>,
    events: Vec<Event>,
}

/// Intern `name`: one allocation the first time, a refcount bump after.
fn intern_name(st: &mut State, name: &str) -> Arc<str> {
    match st.names.get(name) {
        Some(n) => n.clone(),
        None => {
            let n: Arc<str> = Arc::from(name);
            st.names.insert(n.clone());
            n
        }
    }
}

struct Core {
    enabled: AtomicBool,
    epoch: Instant,
    state: Mutex<State>,
}

impl Core {
    fn new() -> Core {
        Core {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }
}

/// The per-thread track context: which tracer/track spans go to, the
/// open-span stack (for parent links), and the bound energy probe.
struct Ctx {
    core: Arc<Core>,
    track: usize,
    stack: Vec<u64>,
    probe: Option<Arc<dyn EnergyProbe>>,
}

thread_local! {
    static CTX: RefCell<Vec<Ctx>> = const { RefCell::new(Vec::new()) };
}

/// An event sink for spans. Cheap to clone (shared handle).
#[derive(Clone)]
pub struct Tracer {
    core: Arc<Core>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A fresh, disabled tracer.
    pub fn new() -> Tracer {
        Tracer {
            core: Arc::new(Core::new()),
        }
    }

    /// The process-wide tracer (disabled until [`Tracer::enable`]d; the
    /// CLI enables it when `--trace`/`--metrics` are passed).
    pub fn global() -> &'static Tracer {
        static GLOBAL: OnceLock<Tracer> = OnceLock::new();
        GLOBAL.get_or_init(Tracer::new)
    }

    /// Start recording.
    pub fn enable(&self) {
        self.core.enabled.store(true, Ordering::Release);
    }

    /// Stop recording (open guards become no-ops on close-path lookups
    /// that re-check; already-open spans still record their end).
    pub fn disable(&self) {
        self.core.enabled.store(false, Ordering::Release);
    }

    /// Whether the tracer is recording.
    pub fn is_enabled(&self) -> bool {
        self.core.enabled.load(Ordering::Acquire)
    }

    /// Enter a track on the current thread. While the guard lives,
    /// [`span`] calls on this thread record into `name`'s track. No-op
    /// when the tracer is disabled.
    pub fn track(&self, name: &str) -> TrackGuard {
        enter_track(&self.core, name)
    }

    /// Snapshot everything recorded so far.
    pub fn data(&self) -> TraceData {
        let st = self.core.state.lock().unwrap();
        TraceData {
            tracks: st.tracks.iter().map(|t| t.name.clone()).collect(),
            events: st.events.clone(),
        }
    }

    /// Drop all recorded events and tracks (sequence numbers restart).
    pub fn clear(&self) {
        let mut st = self.core.state.lock().unwrap();
        *st = State::default();
    }

    /// Export as Chrome trace-event JSON (see [`crate::export`]).
    pub fn export_chrome(&self, mask_timing: bool) -> String {
        crate::export::chrome_trace(&self.data(), mask_timing)
    }
}

fn enter_track(core: &Arc<Core>, name: &str) -> TrackGuard {
    if !core.enabled.load(Ordering::Acquire) {
        return TrackGuard { active: false };
    }
    let track = {
        let mut st = core.state.lock().unwrap();
        match st.by_name.get(name) {
            Some(&i) => i,
            None => {
                let i = st.tracks.len();
                st.tracks.push(Track {
                    name: name.to_string(),
                    name_hash: crate::fnv1a(crate::FNV_OFFSET, name.bytes()),
                    next_span_seq: 0,
                    next_event_seq: 0,
                });
                st.by_name.insert(name.to_string(), i);
                i
            }
        }
    };
    // A nested track inherits the enclosing track's probe, so e.g. VM
    // spans inside a profiled run keep energy attribution.
    let probe = CTX.with(|c| c.borrow().last().and_then(|t| t.probe.clone()));
    CTX.with(|c| {
        c.borrow_mut().push(Ctx {
            core: core.clone(),
            track,
            stack: Vec::new(),
            probe,
        })
    });
    TrackGuard { active: true }
}

/// Enter a track using the innermost active tracer on this thread, or
/// the global tracer when none is active. This is what instrumentation
/// sites call: tests can route a whole subtree into an instance tracer
/// by holding an outer [`Tracer::track`] guard.
pub fn track(name: &str) -> TrackGuard {
    let core = CTX.with(|c| c.borrow().last().map(|t| t.core.clone()));
    match core {
        Some(core) => enter_track(&core, name),
        None => enter_track(&Tracer::global().core, name),
    }
}

/// True when a [`span`] opened right now would record somewhere. Use to
/// gate `format!` work for track names.
pub fn would_trace() -> bool {
    active() || Tracer::global().is_enabled()
}

/// True when the current thread is inside an active track.
pub fn active() -> bool {
    CTX.with(|c| !c.borrow().is_empty())
}

/// Scope guard for a track (see [`Tracer::track`]).
#[must_use = "the track ends when the guard drops"]
pub struct TrackGuard {
    active: bool,
}

impl Drop for TrackGuard {
    fn drop(&mut self) {
        if self.active {
            CTX.with(|c| {
                c.borrow_mut().pop();
            });
        }
    }
}

/// Bind an energy probe to the current track: spans opened while the
/// guard lives attribute `probe`'s joule deltas. Restores the previous
/// probe on drop; inert when no track is active.
pub fn bind_probe(probe: Arc<dyn EnergyProbe>) -> ProbeGuard {
    let prev = CTX.with(|c| {
        c.borrow_mut()
            .last_mut()
            .map(|top| top.probe.replace(probe))
    });
    ProbeGuard {
        bound: prev.is_some(),
        prev: prev.flatten(),
    }
}

/// Scope guard for [`bind_probe`].
#[must_use = "the probe unbinds when the guard drops"]
pub struct ProbeGuard {
    bound: bool,
    prev: Option<Arc<dyn EnergyProbe>>,
}

impl Drop for ProbeGuard {
    fn drop(&mut self) {
        if self.bound {
            let prev = self.prev.take();
            CTX.with(|c| {
                if let Some(top) = c.borrow_mut().last_mut() {
                    top.probe = prev;
                }
            });
        }
    }
}

/// Open a span named `name` on the current thread's track. Records a
/// begin event now and an end event (with wall time and energy delta)
/// when the returned guard drops. No-op without an active track.
pub fn span(name: &str) -> SpanGuard {
    let opened = CTX.with(|c| {
        let mut ctxs = c.borrow_mut();
        let top = ctxs.last_mut()?;
        if !top.core.enabled.load(Ordering::Acquire) {
            return None;
        }
        let core = top.core.clone();
        let probe = top.probe.clone();
        let start_j = probe.as_ref().map(|p| p.total_joules());
        let parent_id = top.stack.last().copied().unwrap_or(0);
        let ts_ns = core.epoch.elapsed().as_nanos() as u64;
        let span_id = {
            let mut st = core.state.lock().unwrap();
            let name = intern_name(&mut st, name);
            let tr = &mut st.tracks[top.track];
            let span_seq = tr.next_span_seq;
            tr.next_span_seq += 1;
            let seq = tr.next_event_seq;
            tr.next_event_seq += 1;
            let span_id = tr.name_hash ^ mix(span_seq + 1);
            let track = top.track;
            st.events.push(Event {
                track,
                seq,
                ts_ns,
                kind: EventKind::Begin {
                    span_id,
                    parent_id,
                    name,
                },
            });
            span_id
        };
        top.stack.push(span_id);
        Some(OpenSpan {
            core,
            track: top.track,
            span_id,
            start_j,
            probe,
        })
    });
    SpanGuard {
        open: opened,
        extra_j: 0.0,
    }
}

/// Record an instantaneous marker (a profiler sample tick) on the
/// current thread's track, annotated with the joules attributed at that
/// instant (clamped ≥ 0). No-op without an active track; exports as a
/// Chrome `ph:"i"` event on the track's tid.
pub fn instant(name: &str, package_j: f64) {
    CTX.with(|c| {
        let mut ctxs = c.borrow_mut();
        let Some(top) = ctxs.last_mut() else {
            return;
        };
        if !top.core.enabled.load(Ordering::Acquire) {
            return;
        }
        let ts_ns = top.core.epoch.elapsed().as_nanos() as u64;
        let mut st = top.core.state.lock().unwrap();
        let name = intern_name(&mut st, name);
        let tr = &mut st.tracks[top.track];
        let seq = tr.next_event_seq;
        tr.next_event_seq += 1;
        let track = top.track;
        st.events.push(Event {
            track,
            seq,
            ts_ns,
            kind: EventKind::Instant {
                name,
                package_j: package_j.max(0.0),
            },
        });
    });
}

struct OpenSpan {
    core: Arc<Core>,
    track: usize,
    span_id: u64,
    start_j: Option<f64>,
    probe: Option<Arc<dyn EnergyProbe>>,
}

/// Scope guard for an open span (see [`span`]).
#[must_use = "the span closes when the guard drops"]
pub struct SpanGuard {
    open: Option<OpenSpan>,
    extra_j: f64,
}

impl SpanGuard {
    /// Attribute joules to this span explicitly, in addition to any
    /// probe delta (used where energy is computed rather than sampled,
    /// e.g. Table IV rows that pour model joules into a fresh device).
    pub fn add_joules(&mut self, joules: f64) {
        if self.open.is_some() {
            self.extra_j += joules.max(0.0);
        }
    }

    /// Whether this guard is recording (false under disabled tracing).
    pub fn is_recording(&self) -> bool {
        self.open.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        // Probe delta is wrap-corrected below the trait (cumulative
        // totals), so a counter wrap mid-span cannot go negative here;
        // clamp anyway so exported energy is always ≥ 0.
        let probe_j = match (&open.probe, open.start_j) {
            (Some(p), Some(s)) => (p.total_joules() - s).max(0.0),
            _ => 0.0,
        };
        let package_j = probe_j + self.extra_j;
        let ts_ns = open.core.epoch.elapsed().as_nanos() as u64;
        {
            let mut st = open.core.state.lock().unwrap();
            let tr = &mut st.tracks[open.track];
            let seq = tr.next_event_seq;
            tr.next_event_seq += 1;
            st.events.push(Event {
                track: open.track,
                seq,
                ts_ns,
                kind: EventKind::End {
                    span_id: open.span_id,
                    package_j,
                },
            });
        }
        CTX.with(|c| {
            if let Some(top) = c.borrow_mut().last_mut() {
                if let Some(pos) = top.stack.iter().rposition(|&id| id == open.span_id) {
                    top.stack.remove(pos);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeProbe(std::sync::Mutex<f64>);
    impl EnergyProbe for FakeProbe {
        fn total_joules(&self) -> f64 {
            *self.0.lock().unwrap()
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        {
            let _g = t.track("work");
            let _s = span("step");
        }
        assert!(t.data().is_empty());
    }

    #[test]
    fn span_without_track_is_noop() {
        let s = span("orphan");
        assert!(!s.is_recording());
    }

    #[test]
    fn spans_nest_with_parent_links() {
        let t = Tracer::new();
        t.enable();
        {
            let _g = t.track("work");
            let _a = span("outer");
            {
                let _b = span("inner");
            }
        }
        let data = t.data();
        assert_eq!(data.span_count(), 2);
        assert_eq!(data.event_count(), 4);
        let (mut outer_id, mut inner_parent) = (0, 1);
        for e in &data.events {
            if let EventKind::Begin {
                span_id,
                parent_id,
                name,
            } = &e.kind
            {
                if name.as_ref() == "outer" {
                    outer_id = *span_id;
                    assert_eq!(*parent_id, 0, "outer is a root span");
                } else {
                    inner_parent = *parent_id;
                }
            }
        }
        assert_eq!(inner_parent, outer_id, "inner's parent is outer");
    }

    #[test]
    fn ids_and_ordering_are_deterministic_across_runs() {
        let run = || {
            let t = Tracer::new();
            t.enable();
            {
                let _g = t.track("work");
                for _ in 0..3 {
                    let _s = span("step");
                }
            }
            t.export_chrome(true)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn same_content_regardless_of_thread_assignment() {
        // Two tracks driven from one thread vs two threads: masked
        // export must be identical (this is the --jobs invariance).
        let sequential = {
            let t = Tracer::new();
            t.enable();
            for name in ["row/a", "row/b"] {
                let _g = t.track(name);
                let _s = span("measure");
            }
            t.export_chrome(true)
        };
        let parallel = {
            let t = Tracer::new();
            t.enable();
            std::thread::scope(|s| {
                for name in ["row/a", "row/b"] {
                    let t = t.clone();
                    s.spawn(move || {
                        let _g = t.track(name);
                        let _s = span("measure");
                    });
                }
            });
            t.export_chrome(true)
        };
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn probe_delta_lands_on_the_span() {
        let t = Tracer::new();
        t.enable();
        let probe = Arc::new(FakeProbe(std::sync::Mutex::new(1.0)));
        {
            let _g = t.track("work");
            let _p = bind_probe(probe.clone());
            let _s = span("hot");
            *probe.0.lock().unwrap() = 3.5;
        }
        let data = t.data();
        let j = data
            .events
            .iter()
            .find_map(|e| match e.kind {
                EventKind::End { package_j, .. } => Some(package_j),
                _ => None,
            })
            .unwrap();
        assert!((j - 2.5).abs() < 1e-12, "delta 3.5-1.0, got {j}");
    }

    #[test]
    fn explicit_joules_accumulate() {
        let t = Tracer::new();
        t.enable();
        {
            let _g = t.track("work");
            let mut s = span("row");
            s.add_joules(2.0);
            s.add_joules(0.5);
            s.add_joules(-7.0); // negative attributions are dropped
        }
        let data = t.data();
        let j = data
            .events
            .iter()
            .find_map(|e| match e.kind {
                EventKind::End { package_j, .. } => Some(package_j),
                _ => None,
            })
            .unwrap();
        assert!((j - 2.5).abs() < 1e-12, "{j}");
    }

    #[test]
    fn nested_track_inherits_probe() {
        let t = Tracer::new();
        t.enable();
        let probe = Arc::new(FakeProbe(std::sync::Mutex::new(0.0)));
        {
            let _g = t.track("outer");
            let _p = bind_probe(probe.clone());
            let _g2 = track("inner"); // free fn: uses innermost tracer
            let _s = span("work");
            *probe.0.lock().unwrap() = 1.25;
        }
        let data = t.data();
        assert_eq!(data.track_names(), &["outer", "inner"]);
        let j = data
            .events
            .iter()
            .find_map(|e| match e.kind {
                EventKind::End { package_j, .. } => Some(package_j),
                _ => None,
            })
            .unwrap();
        assert!((j - 1.25).abs() < 1e-12, "{j}");
    }

    #[test]
    fn span_names_are_interned_once() {
        let t = Tracer::new();
        t.enable();
        {
            let _g = t.track("work");
            for _ in 0..3 {
                let _s = span("step");
            }
        }
        let data = t.data();
        let names: Vec<&Arc<str>> = data
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Begin { name, .. } => Some(name),
                _ => None,
            })
            .collect();
        assert_eq!(names.len(), 3);
        // All three begins share one interned allocation.
        assert!(Arc::ptr_eq(names[0], names[1]));
        assert!(Arc::ptr_eq(names[1], names[2]));
    }

    #[test]
    fn instants_record_on_the_current_track() {
        let t = Tracer::new();
        t.enable();
        {
            let _g = t.track("samples");
            instant("tick", 0.5);
            instant("tick", -1.0); // clamped to zero
        }
        instant("orphan", 1.0); // no track: dropped
        let data = t.data();
        let ticks: Vec<f64> = data
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Instant { name, package_j } if name.as_ref() == "tick" => {
                    Some(*package_j)
                }
                _ => None,
            })
            .collect();
        assert_eq!(ticks, vec![0.5, 0.0]);
        assert_eq!(data.events.len(), 2, "orphan instant not recorded");
    }

    #[test]
    fn clear_resets_sequences() {
        let t = Tracer::new();
        t.enable();
        let first = {
            let _g = t.track("work");
            let _s = span("step");
            drop(_s);
            t.export_chrome(true)
        };
        t.clear();
        let second = {
            let _g = t.track("work");
            let _s = span("step");
            drop(_s);
            t.export_chrome(true)
        };
        assert_eq!(first, second);
    }
}
