//! `jepo-serve` — profiling as a service.
//!
//! The paper's tool runs as an IDE plugin; production energy gates
//! (CI loops, review bots) instead call a long-lived daemon whose cost
//! per request is dominated by the *work*, not by starting a process
//! and re-parsing the same corpus on every invocation. This crate is
//! that daemon plus its protocol:
//!
//! - [`codec`] — hardened length-prefixed framing and the
//!   request/JSONL-event codec. Malformed input yields structured
//!   errors, never panics.
//! - [`ops`] — the operations (`analyze`, `energy`, `profile`,
//!   `table4`) rendered byte-identically to the CLI, which calls the
//!   same functions.
//! - [`cache`] — the shared hot cache: parsed ASTs, the incremental
//!   analyzer cache and a full-response memo, all keyed by content
//!   hash (the memo by the request bytes as received).
//! - [`server`] — the `std::net` daemon: an accept loop that blocks in
//!   `accept` and retries its errors, bounded queue over `jepo-pool`,
//!   admission control, per-request spans, one write per response, and
//!   a graceful drain on `shutdown`, which wakes the blocked `accept`
//!   by connecting to the daemon's own address.
//! - [`client`] — a small blocking client for tests, the CLI and the
//!   load generator.

pub mod cache;
pub mod client;
pub mod codec;
pub mod ops;
pub mod server;

pub use cache::{ContentKey, HotCache};
pub use client::{request, Response};
pub use codec::{CodecError, Event, Request, MAX_FRAME};
pub use ops::OpError;
pub use server::{serve, ServerConfig, ServerHandle};
