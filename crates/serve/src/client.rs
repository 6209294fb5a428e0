//! Minimal blocking client for the `jepo serve` protocol — used by the
//! CLI is-alive checks, the load generator and the integration tests.

use crate::codec::{self, CodecError, Event, Request};
use std::io::Write;
use std::net::TcpStream;

/// A fully-read response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Reassembled body (empty on error responses).
    pub body: String,
    /// `"warm"` or `"cold"` (ok responses only).
    pub cache: String,
    /// Error code when the request failed (`busy`, `bad-request`, ...).
    pub error: Option<(String, String)>,
}

impl Response {
    /// Did the daemon answer with an ok event?
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Send one request and read the event stream to completion.
pub fn request(addr: &str, req: &Request) -> Result<Response, CodecError> {
    let mut stream = TcpStream::connect(addr).map_err(CodecError::Io)?;
    stream.set_nodelay(true).ok();
    raw_request(&mut stream, &req.encode())
}

/// Send raw payload bytes as one frame and read the response — the
/// hardening tests use this to deliver deliberately malformed payloads.
pub fn raw_request(stream: &mut TcpStream, payload: &[u8]) -> Result<Response, CodecError> {
    let sent = codec::write_frame(stream, payload).and_then(|()| stream.flush());
    // A daemon that turns the connection away (`busy`) answers and closes
    // without reading the request, so the send can fail with that answer
    // already waiting: read it before reporting the send error.
    match (read_response(stream), sent) {
        (Ok(resp), _) => Ok(resp),
        (Err(_), Err(e)) => Err(CodecError::Io(e)),
        (Err(e), Ok(())) => Err(e),
    }
}

/// Read events up to the terminal one.
fn read_response(stream: &mut TcpStream) -> Result<Response, CodecError> {
    let mut body = String::new();
    loop {
        let frame = codec::read_frame(stream)?;
        let line = std::str::from_utf8(&frame)
            .map_err(|_| CodecError::Malformed("non-UTF-8 event frame".into()))?;
        match Event::decode(line)? {
            Event::Chunk(data) => body.push_str(&data),
            Event::Ok { cache, bytes } => {
                if bytes != body.len() {
                    return Err(CodecError::Malformed(format!(
                        "body length mismatch: done says {bytes}, got {}",
                        body.len()
                    )));
                }
                return Ok(Response {
                    body,
                    cache,
                    error: None,
                });
            }
            Event::Error { code, message } => {
                return Ok(Response {
                    body: String::new(),
                    cache: String::new(),
                    error: Some((code, message)),
                })
            }
        }
    }
}
