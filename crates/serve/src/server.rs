//! The `jepo serve` daemon: a std-only TCP server with admission
//! control, a bounded job queue over `jepo-pool`, per-request
//! `jepo-trace` spans and a graceful drain.
//!
//! Connection model: one request per connection. The accept loop blocks
//! in `accept` and is the admission controller — every connection is
//! `try_submit`ted to the bounded [`jepo_pool::TaskPool`]; when the queue
//! is full the client gets a structured `busy` error immediately instead
//! of unbounded queueing. An accept error is retried, never taken as a
//! stop. A `shutdown` request (or [`ServerHandle::shutdown`]) sets the
//! stop flag and then wakes the blocked `accept` by connecting to the
//! daemon's own address; the loop ends at the first return from
//! `accept` after that, drains every accepted request to completion,
//! flushes telemetry exporters, and lets [`ServerHandle::join`] return —
//! no request is ever dropped mid-flight. Every response leaves in one
//! write.

use crate::cache::HotCache;
use crate::codec::{self, CodecError, Event, Request};
use crate::ops::{self, OpError};
use jepo_trace::{Counter, Histogram, Registry};
use std::io::{ErrorKind, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// Worker threads; 0 = `JEPO_JOBS`/core count, clamped to cores.
    pub workers: usize,
    /// Bounded queue depth on top of the workers.
    pub queue_depth: usize,
    /// Write a Chrome trace here on shutdown.
    pub trace_out: Option<std::path::PathBuf>,
    /// Write the metrics registry here (JSONL) on shutdown.
    pub metrics_out: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_depth: 32,
            trace_out: None,
            metrics_out: None,
        }
    }
}

/// Live request/latency counters, shared by workers and the `stats`
/// verb.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Requests fully served (ok responses).
    pub served: AtomicU64,
    /// Structured error responses (bad request / internal).
    pub errored: AtomicU64,
    /// Connections rejected at admission (`busy`/`shutting-down`).
    pub rejected: AtomicU64,
    /// Malformed frames / codec failures answered with `bad-request`.
    pub malformed: AtomicU64,
}

impl ServerStats {
    fn snapshot_json(&self, cache: &HotCache, workers: usize) -> String {
        let (p_h, p_m) = cache.parse_stats.get();
        let (m_h, m_m) = cache.memo_stats.get();
        format!(
            concat!(
                "{{\"served\":{},\"errored\":{},\"rejected\":{},\"malformed\":{},",
                "\"workers\":{},",
                "\"parse_cache\":{{\"hits\":{},\"misses\":{}}},",
                "\"response_memo\":{{\"hits\":{},\"misses\":{}}}}}\n"
            ),
            self.served.load(Ordering::Relaxed),
            self.errored.load(Ordering::Relaxed),
            self.rejected.load(Ordering::Relaxed),
            self.malformed.load(Ordering::Relaxed),
            workers,
            p_h,
            p_m,
            m_h,
            m_m,
        )
    }
}

/// How the daemon is told to stop: a flag, plus the address whose
/// connection wakes the accept loop so it sees the flag.
struct Stop {
    requested: AtomicBool,
    wake: SocketAddr,
}

impl Stop {
    fn new(bound: SocketAddr) -> Stop {
        // A listener on an unspecified IP (`0.0.0.0`, `::`) is reached
        // through the loopback address of its family.
        let mut wake = bound;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Stop {
            requested: AtomicBool::new(false),
            wake,
        }
    }

    /// Set the flag, then connect once to wake `accept`. A failed wake
    /// is harmless: the next connection of any kind ends the loop.
    fn request(&self) {
        self.requested.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
    }

    fn is_requested(&self) -> bool {
        self.requested.load(Ordering::SeqCst)
    }
}

/// A running daemon. Dropping the handle does not stop it; send a
/// `shutdown` request (or use [`ServerHandle::shutdown`]) and then
/// [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    workers: usize,
    stop: Arc<Stop>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (real port even when configured with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Worker threads actually running (post-clamp).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Ask the daemon to stop admitting work (same effect as a
    /// `shutdown` request).
    pub fn shutdown(&self) {
        self.stop.request();
    }

    /// Wait for the daemon to drain and exit.
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Bind and start the daemon. Returns once the listener is live.
pub fn serve(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let (_requested, workers, _cores) = jepo_pool::clamp_workers(config.workers);
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(Stop::new(addr));
    let cache = Arc::new(HotCache::new());
    let stats = Arc::new(ServerStats::default());

    let accept_stop = stop.clone();
    let accept_thread = std::thread::Builder::new()
        .name("jepo-serve-accept".into())
        .spawn(move || {
            accept_loop(listener, config, workers, accept_stop, cache, stats);
        })?;

    Ok(ServerHandle {
        addr,
        workers,
        stop,
        accept_thread: Some(accept_thread),
    })
}

fn accept_loop(
    listener: TcpListener,
    config: ServerConfig,
    workers: usize,
    stop: Arc<Stop>,
    cache: Arc<HotCache>,
    stats: Arc<ServerStats>,
) {
    let pool = jepo_pool::TaskPool::new(workers, config.queue_depth);
    loop {
        let accepted = listener.accept();
        if stop.is_requested() {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                // The stream lives in a shared slot so the accept
                // thread can take it back and answer with a structured
                // rejection when the bounded queue refuses the job.
                let slot = Arc::new(std::sync::Mutex::new(Some(stream)));
                let worker_slot = slot.clone();
                let cache = cache.clone();
                let worker_stats = stats.clone();
                let worker_stop = stop.clone();
                let n_workers = pool.worker_count();
                let submitted = pool.try_submit(move || {
                    if let Some(stream) = worker_slot.lock().unwrap().take() {
                        handle_connection(stream, &cache, &worker_stats, &worker_stop, n_workers);
                    }
                });
                if let Err(e) = submitted {
                    if let Some(mut stream) = slot.lock().unwrap().take() {
                        stats.rejected.fetch_add(1, Ordering::Relaxed);
                        jepo_trace::Registry::global()
                            .counter("serve.rejected")
                            .incr();
                        let (code, msg) = match e {
                            jepo_pool::SubmitError::Full => {
                                ("busy", "job queue is full; retry later")
                            }
                            jepo_pool::SubmitError::ShuttingDown => {
                                ("shutting-down", "daemon is draining; not accepting work")
                            }
                        };
                        respond_error(&mut stream, code, msg);
                    }
                }
            }
            // A signal, or a client that reset before it was accepted.
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::Interrupted | ErrorKind::ConnectionAborted
                ) => {}
            // Out of descriptors, say: report it, and pause so the retry
            // does not spin.
            Err(e) => {
                eprintln!("jepo serve: accept failed: {e}; retrying");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
    // Drain: every accepted job runs to completion before we return.
    pool.shutdown_drain();
    flush_telemetry(&config);
}

/// Flush trace/metrics exporters on shutdown.
fn flush_telemetry(config: &ServerConfig) {
    if let Some(p) = &config.trace_out {
        let json = jepo_trace::Tracer::global().export_chrome(false);
        if let Err(e) = std::fs::write(p, &json) {
            eprintln!("jepo serve: trace export failed: {}: {e}", p.display());
        }
    }
    if let Some(p) = &config.metrics_out {
        let jsonl = jepo_trace::Registry::global().jsonl();
        if let Err(e) = std::fs::write(p, &jsonl) {
            eprintln!("jepo serve: metrics export failed: {}: {e}", p.display());
        }
    }
}

/// The verbs the daemon names its per-request telemetry after. Every
/// other verb counts as the last, `unknown`, so a client cannot mint
/// metric names.
const VERBS: [&str; 8] = [
    "analyze", "energy", "profile", "table4", "ping", "stats", "shutdown", "unknown",
];

/// One verb's telemetry handles.
struct VerbTelemetry {
    span: String,
    requests: Counter,
    /// `None` for the control verbs, whose latency is not recorded.
    latency_us: Option<Histogram>,
}

/// The handles for `verb`, resolved on its first request.
fn verb_telemetry(verb: &str) -> &'static VerbTelemetry {
    static RESOLVED: [OnceLock<VerbTelemetry>; VERBS.len()] =
        [const { OnceLock::new() }; VERBS.len()];
    let i = VERBS
        .iter()
        .position(|&v| v == verb)
        .unwrap_or(VERBS.len() - 1);
    RESOLVED[i].get_or_init(|| {
        let verb = VERBS[i];
        let registry = Registry::global();
        VerbTelemetry {
            span: format!("serve/{verb}"),
            requests: registry.counter(&format!("serve.requests.{verb}")),
            // µs buckets, powers of ~4.
            latency_us: (!matches!(verb, "stats" | "shutdown")).then(|| {
                registry.histogram(
                    &format!("serve.latency_us.{verb}"),
                    &[100, 400, 1_600, 6_400, 25_600, 102_400, 409_600, 1_638_400],
                )
            }),
        }
    })
}

/// The `serve.cache.warm` or `serve.cache.cold` counter.
fn cache_counter(warm: bool) -> &'static Counter {
    static RESOLVED: [OnceLock<Counter>; 2] = [const { OnceLock::new() }; 2];
    RESOLVED[usize::from(warm)].get_or_init(|| {
        Registry::global().counter(if warm {
            "serve.cache.warm"
        } else {
            "serve.cache.cold"
        })
    })
}

/// Serve one connection: read a frame, decode, execute, send the events.
fn handle_connection(
    mut stream: TcpStream,
    cache: &HotCache,
    stats: &ServerStats,
    stop: &Stop,
    workers: usize,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let payload = match codec::read_frame(&mut stream) {
        Ok(p) => p,
        Err(CodecError::Eof) => return,
        Err(e) => {
            stats.malformed.fetch_add(1, Ordering::Relaxed);
            respond_error(&mut stream, "bad-request", &e.to_string());
            return;
        }
    };
    let req = match Request::decode(&payload) {
        Ok(r) => r,
        Err(e) => {
            stats.malformed.fetch_add(1, Ordering::Relaxed);
            respond_error(&mut stream, "bad-request", &e.to_string());
            return;
        }
    };
    let telemetry = verb_telemetry(&req.verb);
    let _span = jepo_trace::span(&telemetry.span);
    telemetry.requests.incr();
    // Timing feeds telemetry only, never a response body.
    let t_start = Instant::now();
    match req.verb.as_str() {
        "shutdown" => {
            stop.request();
            stats.served.fetch_add(1, Ordering::Relaxed);
            respond_body(&mut stream, "shutting down\n", "cold");
        }
        "stats" => {
            stats.served.fetch_add(1, Ordering::Relaxed);
            let body = stats.snapshot_json(cache, workers);
            respond_body(&mut stream, &body, "cold");
        }
        _ => {
            match ops::execute_payload(&req, &payload, cache) {
                Ok((body, warm)) => {
                    stats.served.fetch_add(1, Ordering::Relaxed);
                    cache_counter(warm).incr();
                    respond_body(&mut stream, &body, if warm { "warm" } else { "cold" });
                }
                Err(OpError::BadRequest(m)) => {
                    stats.errored.fetch_add(1, Ordering::Relaxed);
                    respond_error(&mut stream, "bad-request", &m);
                }
                Err(OpError::Internal(m)) => {
                    stats.errored.fetch_add(1, Ordering::Relaxed);
                    respond_error(&mut stream, "internal", &m);
                }
            }
            if let Some(latency_us) = &telemetry.latency_us {
                latency_us.observe(t_start.elapsed().as_micros() as u64);
            }
        }
    }
}

fn respond_body(stream: &mut TcpStream, body: &str, cache: &str) {
    respond(stream, &codec::body_events(body, cache));
}

fn respond_error(stream: &mut TcpStream, code: &str, message: &str) {
    let ev = Event::Error {
        code: code.to_string(),
        message: message.to_string(),
    };
    respond(stream, &[ev]);
}

/// Frame every event into one buffer and send it with one write, so a
/// small response leaves as one segment under `TCP_NODELAY`.
fn respond(stream: &mut TcpStream, events: &[Event]) {
    let mut frames = Vec::new();
    for ev in events {
        // Writing into a `Vec` cannot fail.
        let _ = codec::write_frame(&mut frames, ev.encode().as_bytes());
    }
    let _ = stream.write_all(&frames);
}
