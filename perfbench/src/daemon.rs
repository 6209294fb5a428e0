//! The `jepo serve` process under test and a timed client for its TCP
//! protocol.

use crate::stats::Json;
use jepo_serve::codec::{self, Event, Request};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a client waits for any one response before the operation
/// counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running daemon. Dropping it kills the process and waits for it, so no
/// daemon outlives the benchmark on an error or a panic.
pub struct Daemon {
    child: Option<Child>,
    /// Kept open: the daemon prints its drain notice here at shutdown.
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Start `jepo serve` on a free port with `jobs` workers and wait until
    /// it answers a `ping`. With `metrics`, the daemon's registry is on and
    /// written there at shutdown.
    pub fn launch(jepo: &Path, jobs: usize, metrics: Option<&Path>) -> Result<Daemon, String> {
        let mut cmd = Command::new(jepo);
        if let Some(m) = metrics {
            cmd.arg("--metrics").arg(m);
        }
        cmd.args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--jobs",
            &jobs.to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", jepo.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child: Some(child),
            stdout,
            addr: String::new(),
        };
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("read daemon banner: {e}"))?;
        // "jepo serve listening on 127.0.0.1:PORT (N workers)"
        daemon.addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| format!("unexpected daemon banner {line:?}"))?
            .to_string();
        let pong = call(&daemon.addr, &Request::new("ping").encode())?;
        if pong.body != "pong\n" {
            return Err(format!("ping answered {pong:?}"));
        }
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().expect("daemon is running").id()
    }

    /// Peak resident memory of the daemon so far (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&format!("/proc/{}/status", self.pid()))
    }

    /// The daemon's `stats` verb.
    pub fn stats(&self) -> Result<Json, String> {
        let reply = call(&self.addr, &Request::new("stats").encode())?;
        Json::parse(reply.body.trim())
    }

    /// Send `shutdown` and wait for the daemon to drain and exit 0.
    pub fn shutdown(mut self) -> Result<(), String> {
        call(&self.addr, &Request::new("shutdown").encode())?;
        let mut child = self.child.take().expect("daemon is running");
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not stop after shutdown".into());
                }
            }
        };
        // The process has exited, so this read ends at EOF.
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        if !rest.contains("drained and stopped") {
            return Err(format!("daemon stopped without its drain notice: {rest:?}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {status_path}"))
}

/// One answered request, with the client's timestamps: offsets from
/// `start`, the moment it began to connect.
#[derive(Debug, Clone)]
pub struct Reply {
    pub body: String,
    pub cache: String,
    pub start: Instant,
    pub connected: Duration,
    pub written: Duration,
    pub first_event: Duration,
    pub done: Duration,
}

/// Connect, send one request frame and read events up to `done`. An error
/// event, a protocol violation or a timeout is an `Err`.
pub fn call(addr: &str, payload: &[u8]) -> Result<Reply, String> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let connected = t0.elapsed();
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    codec::write_frame(&mut stream, payload).map_err(|e| format!("write: {e}"))?;
    stream.flush().map_err(|e| format!("write: {e}"))?;
    let written = t0.elapsed();
    let mut reply = Reply {
        body: String::new(),
        cache: String::new(),
        start: t0,
        connected,
        written,
        first_event: Duration::ZERO,
        done: Duration::ZERO,
    };
    loop {
        let frame = codec::read_frame(&mut stream).map_err(|e| format!("read: {e}"))?;
        if reply.first_event.is_zero() {
            reply.first_event = t0.elapsed();
        }
        let line = std::str::from_utf8(&frame).map_err(|_| "non-UTF-8 event".to_string())?;
        match Event::decode(line).map_err(|e| e.to_string())? {
            Event::Chunk(data) => reply.body.push_str(&data),
            Event::Ok { cache, bytes } => {
                reply.done = t0.elapsed();
                if bytes != reply.body.len() {
                    return Err(format!("done says {bytes} bytes, got {}", reply.body.len()));
                }
                reply.cache = cache;
                return Ok(reply);
            }
            Event::Error { code, message } => return Err(format!("{code}: {message}")),
        }
    }
}
