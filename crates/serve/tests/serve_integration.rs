//! End-to-end daemon tests: cache correctness under concurrency,
//! graceful drain, admission control, and malformed-input survival.

use jepo_serve::codec::Request;
use jepo_serve::{client, HotCache, ServerConfig};
use std::net::TcpStream;
use std::time::Duration;

fn small_corpus(tag: u64) -> Vec<(String, String)> {
    vec![
        (
            "Main.java".to_string(),
            format!(
                "class Main {{ public static void main(String[] args) {{ \
                 int s = 0; \
                 for (int i = 0; i < 12; i = i + 1) {{ s = s + i * {tag}; }} \
                 System.out.println(s); }} }}"
            ),
        ),
        (
            "Helper.java".to_string(),
            "class Helper { static int join(String a, String b) { \
             String s = \"\"; for (int i = 0; i < 3; i = i + 1) { s = s + a + b; } \
             return s.length(); } }"
                .to_string(),
        ),
    ]
}

fn boot(queue_depth: usize) -> jepo_serve::ServerHandle {
    jepo_serve::serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_depth,
        ..Default::default()
    })
    .expect("bind test daemon")
}

fn shutdown_and_join(addr: &str, handle: jepo_serve::ServerHandle) {
    let resp = client::request(addr, &Request::new("shutdown")).expect("shutdown responds");
    assert!(resp.is_ok(), "{:?}", resp.error);
    handle.join();
}

/// Warm served responses are byte-identical to cold CLI output for
/// analyze/energy/profile/table4 across concurrent clients 1, 2, 4.
/// The cold reference is `ops::execute` on a fresh cache — exactly the
/// strings the CLI prints (it calls the same renderers). Every first
/// response is tagged `cold` and every repeat `warm`: the repeats are
/// served from the response memo, not recomputed.
#[test]
fn warm_responses_match_cold_cli_bytes_under_concurrency() {
    let catalog: Vec<Request> = {
        let mut v = Vec::new();
        let mut r = Request::new("analyze");
        r.files = small_corpus(3);
        v.push(r);
        let mut r = Request::new("energy");
        r.params.push(("top".into(), "8".into()));
        r.files = small_corpus(3);
        v.push(r);
        let mut r = Request::new("profile");
        r.files = small_corpus(3);
        v.push(r);
        let mut r = Request::new("table4");
        r.params.push(("instances".into(), "40".into()));
        r.params.push(("folds".into(), "2".into()));
        v.push(r);
        v
    };
    // Cold CLI-equivalent bytes, computed without the daemon.
    let reference: Vec<String> = {
        let fresh = HotCache::new();
        catalog
            .iter()
            .map(|r| {
                jepo_serve::ops::execute(r, &fresh)
                    .expect("reference run")
                    .0
            })
            .collect()
    };

    let handle = boot(32);
    let addr = handle.addr().to_string();
    // Prime the daemon (cold pass), then hammer it warm.
    for (req, want) in catalog.iter().zip(&reference) {
        let resp = client::request(&addr, req).expect("cold request");
        assert!(resp.is_ok(), "{:?}", resp.error);
        assert_eq!(resp.cache, "cold", "first {} was not computed", req.verb);
        assert_eq!(&resp.body, want, "cold served bytes differ from CLI bytes");
    }
    for clients in [1usize, 2, 4] {
        let results: Vec<Vec<(String, String)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let addr = &addr;
                    let catalog = &catalog;
                    scope.spawn(move || {
                        let mut got = Vec::new();
                        for n in 0..catalog.len() {
                            let req = &catalog[(c + n) % catalog.len()];
                            let resp = client::request(addr, req).expect("warm request");
                            assert!(resp.is_ok(), "{:?}", resp.error);
                            assert_eq!(resp.cache, "warm", "repeat {} missed the memo", req.verb);
                            got.push((req.verb.clone(), resp.body));
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for per_client in results {
            for (verb, body) in per_client {
                let want = catalog
                    .iter()
                    .position(|r| r.verb == verb)
                    .map(|i| &reference[i])
                    .unwrap();
                assert_eq!(
                    &body, want,
                    "clients={clients}: warm {verb} bytes diverged from cold CLI output"
                );
            }
        }
    }
    shutdown_and_join(&addr, handle);
}

/// Satellite: a `shutdown` request drains the bounded queue — every
/// request accepted before the drain completes normally; none are
/// dropped mid-flight.
#[test]
fn graceful_shutdown_drops_no_inflight_request() {
    let handle = boot(32);
    let addr = handle.addr().to_string();
    let slow_clients = 3usize;
    let (results, shutdown_resp) = std::thread::scope(|scope| {
        let slow: Vec<_> = (0..slow_clients)
            .map(|_| {
                let addr = &addr;
                scope.spawn(move || {
                    let mut req = Request::new("ping");
                    req.params.push(("sleep_ms".into(), "250".into()));
                    client::request(addr, &req)
                })
            })
            .collect();
        // Let the slow pings get accepted, then ask for the drain.
        std::thread::sleep(Duration::from_millis(100));
        let shutdown = client::request(&addr, &Request::new("shutdown"));
        (
            slow.into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>(),
            shutdown,
        )
    });
    for r in results {
        let resp = r.expect("in-flight ping survives the drain");
        assert!(resp.is_ok(), "{:?}", resp.error);
        assert_eq!(resp.body, "pong\n");
    }
    assert!(shutdown_resp.expect("shutdown answered").is_ok());
    handle.join();
    // The daemon is gone: new connections are refused.
    assert!(TcpStream::connect(&addr).is_err());
}

/// Satellite: admission control — when the bounded queue is full the
/// daemon answers with a structured `busy` error instead of queueing
/// without bound (and the queued work still completes).
#[test]
fn full_queue_rejects_with_structured_busy() {
    // One worker slot (clamped to ≥1 core) plus a queue depth of 1.
    let handle = jepo_serve::serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 1,
        ..Default::default()
    })
    .expect("bind test daemon");
    let addr = handle.addr().to_string();

    std::thread::scope(|scope| {
        // Occupy the worker, then the single queue slot.
        let occupants: Vec<_> = (0..2)
            .map(|_| {
                let addr = &addr;
                let t = scope.spawn(move || {
                    let mut req = Request::new("ping");
                    req.params.push(("sleep_ms".into(), "700".into()));
                    client::request(addr, &req)
                });
                // Stagger so the first ping is running (not queued)
                // before the second arrives.
                std::thread::sleep(Duration::from_millis(200));
                t
            })
            .collect();
        // Worker busy + queue full: this one must bounce immediately.
        let resp = client::request(&addr, &Request::new("ping")).expect("rejection is a response");
        let (code, _msg) = resp.error.expect("expected a structured rejection");
        assert_eq!(code, "busy");
        for t in occupants {
            let resp = t.join().unwrap().expect("accepted pings complete");
            assert!(resp.is_ok(), "{:?}", resp.error);
        }
    });
    shutdown_and_join(&addr, handle);
}

/// With no queue slots a job is admitted only by an idle worker, so the
/// daemon must not accept connections before its workers are parked:
/// the very first request is answered, not bounced as `busy`.
#[test]
fn rendezvous_queue_answers_the_first_request() {
    let handle = jepo_serve::serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 0,
        ..Default::default()
    })
    .expect("bind test daemon");
    let addr = handle.addr().to_string();
    let resp = client::request(&addr, &Request::new("ping")).expect("ping responds");
    assert!(resp.is_ok(), "{:?}", resp.error);
    assert_eq!(resp.body, "pong\n");
    // Stop through the handle: a second request could race the worker's
    // return to idle and be bounced, which is what depth 0 means.
    handle.shutdown();
    handle.join();
}

/// Satellite: malformed input — garbage payloads, oversized prefixes,
/// truncated frames — produces structured errors and the daemon keeps
/// serving afterwards.
#[test]
fn malformed_frames_never_kill_the_daemon() {
    use std::io::Write;
    let handle = boot(16);
    let addr = handle.addr().to_string();

    // Garbage payload inside a well-formed frame.
    let mut stream = TcpStream::connect(&addr).unwrap();
    let resp = client::raw_request(&mut stream, b"\xff\xfeudp flood?\x00").unwrap();
    assert_eq!(
        resp.error.as_ref().map(|(c, _)| c.as_str()),
        Some("bad-request")
    );

    // Valid framing, valid UTF-8, nonsense request grammar.
    let mut stream = TcpStream::connect(&addr).unwrap();
    let resp = client::raw_request(&mut stream, b"GET / HTTP/1.1\r\n\r\n").unwrap();
    assert_eq!(
        resp.error.as_ref().map(|(c, _)| c.as_str()),
        Some("bad-request")
    );

    // Oversized length prefix: rejected before allocation.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .write_all(&(jepo_serve::MAX_FRAME + 1).to_be_bytes())
        .unwrap();
    let frame = jepo_serve::codec::read_frame(&mut stream).unwrap();
    let line = std::str::from_utf8(&frame).unwrap();
    assert!(line.contains("bad-request"), "{line}");

    // Truncated frame: declare 100 bytes, send 3, close the write half.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(&100u32.to_be_bytes()).unwrap();
    stream.write_all(b"abc").unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let frame = jepo_serve::codec::read_frame(&mut stream).unwrap();
    assert!(std::str::from_utf8(&frame).unwrap().contains("bad-request"));

    // After all of that the daemon still serves real work.
    let resp = client::request(&addr, &Request::new("ping")).expect("daemon alive");
    assert!(resp.is_ok(), "{:?}", resp.error);
    assert_eq!(resp.body, "pong\n");

    // And the stats verb reports the malformed count.
    let resp = client::request(&addr, &Request::new("stats")).expect("stats");
    assert!(resp.is_ok());
    assert!(resp.body.contains("\"malformed\":4"), "{}", resp.body);

    shutdown_and_join(&addr, handle);
}
