//! The `jepo serve` daemon: a std-only TCP server with admission
//! control, a bounded job queue over `jepo-pool`, per-request
//! `jepo-trace` spans and a graceful drain.
//!
//! Connection model: one request per connection. The accept loop is
//! the admission controller — every connection is `try_submit`ted to
//! the bounded [`jepo_pool::TaskPool`]; when the queue is full the
//! client gets a structured `busy` error immediately instead of
//! unbounded queueing. A `shutdown` request stops admission, drains
//! every accepted request to completion, flushes telemetry exporters,
//! and lets [`ServerHandle::join`] return — no request is ever dropped
//! mid-flight.

use crate::cache::HotCache;
use crate::codec::{self, CodecError, Event, Request};
use crate::ops::{self, OpError};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
        let (pp_h, pp_m) = cache.prepared_stats.get();
        let (m_h, m_m) = cache.memo_stats.get();
        format!(
            concat!(
                "{{\"served\":{},\"errored\":{},\"rejected\":{},\"malformed\":{},",
                "\"workers\":{},",
                "\"parse_cache\":{{\"hits\":{},\"misses\":{}}},",
                "\"prepared_cache\":{{\"hits\":{},\"misses\":{}}},",
                "\"response_memo\":{{\"hits\":{},\"misses\":{}}}}}\n"
            ),
            self.served.load(Ordering::Relaxed),
            self.errored.load(Ordering::Relaxed),
            self.rejected.load(Ordering::Relaxed),
            self.malformed.load(Ordering::Relaxed),
            workers,
            p_h,
            p_m,
            pp_h,
            pp_m,
            m_h,
            m_m,
        )
    }
}

/// A running daemon. Dropping the handle does not stop it; send a
/// `shutdown` request (or use [`ServerHandle::shutdown`]) and then
/// [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    workers: usize,
    stop: Arc<AtomicBool>,
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
        self.stop.store(true, Ordering::SeqCst);
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
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
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
    stop: Arc<AtomicBool>,
    cache: Arc<HotCache>,
    stats: Arc<ServerStats>,
) {
    let pool = jepo_pool::TaskPool::new(workers, config.queue_depth);
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
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
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => break,
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

/// Serve one connection: read a frame, decode, execute, stream events.
fn handle_connection(
    mut stream: TcpStream,
    cache: &HotCache,
    stats: &ServerStats,
    stop: &AtomicBool,
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
    let _span = jepo_trace::span(&format!("serve/{}", req.verb));
    let counter = jepo_trace::Registry::global().counter(&format!("serve.requests.{}", req.verb));
    counter.incr();
    // Per-request latency histogram (µs buckets, powers of ~4). Timing
    // feeds telemetry only, never a response body.
    let t_start = std::time::Instant::now();
    let observe_latency = |verb: &str| {
        jepo_trace::Registry::global()
            .histogram(
                &format!("serve.latency_us.{verb}"),
                &[100, 400, 1_600, 6_400, 25_600, 102_400, 409_600, 1_638_400],
            )
            .observe(t_start.elapsed().as_micros() as u64);
    };
    match req.verb.as_str() {
        "shutdown" => {
            stop.store(true, Ordering::SeqCst);
            stats.served.fetch_add(1, Ordering::Relaxed);
            respond_body(&mut stream, "shutting down\n", "cold");
        }
        "stats" => {
            stats.served.fetch_add(1, Ordering::Relaxed);
            let body = stats.snapshot_json(cache, workers);
            respond_body(&mut stream, &body, "cold");
        }
        _ => {
            match ops::execute(&req, cache) {
                Ok((body, warm)) => {
                    stats.served.fetch_add(1, Ordering::Relaxed);
                    jepo_trace::Registry::global()
                        .counter(if warm {
                            "serve.cache.warm"
                        } else {
                            "serve.cache.cold"
                        })
                        .incr();
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
            observe_latency(&req.verb);
        }
    }
}

fn respond_body(stream: &mut TcpStream, body: &str, cache: &str) {
    for ev in codec::body_events(body, cache) {
        if codec::write_frame(stream, ev.encode().as_bytes()).is_err() {
            return;
        }
    }
    let _ = stream.flush();
}

fn respond_error(stream: &mut TcpStream, code: &str, message: &str) {
    let ev = Event::Error {
        code: code.to_string(),
        message: message.to_string(),
    };
    let _ = codec::write_frame(stream, ev.encode().as_bytes());
    let _ = stream.flush();
}
