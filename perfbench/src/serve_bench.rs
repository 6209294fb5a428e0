//! The three workloads that drive the real `jepo serve` binary over TCP.
//!
//! Each is a closed loop: every connection sends its next request only
//! when the previous one has been answered, as CI jobs and editors waiting
//! for a verdict do. Operation `k` goes to connection `k % connections`.

use crate::daemon::{self, Daemon, Reply};
use crate::layers::{self, Registry, Spans};
use crate::stats::{median, percentile, Json};
use crate::traffic::{Kind, Sent, Traffic};
use crate::{Outcome, Run};
use jepo_core::mean;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Operations the traced run replays in-process.
const REPLAYED: usize = 48;

/// Operations per second on the reference host (2 vCPU Xeon).
fn rate(kind: Kind) -> f64 {
    match kind {
        Kind::WarmRead => 1500.0,
        Kind::EditAnalyze => 100.0,
        Kind::ProfileEdit => 90.0,
    }
}

/// Client-side timestamps of one answered operation.
struct Timing {
    k: usize,
    reply: Reply,
}

/// What one connection saw: its answered operations and every check.
type ConnRun = (Vec<Timing>, Vec<Result<(), String>>);

/// Start a daemon and send the set-up requests; each response is checked.
fn set_up(
    run: &Run,
    traffic: &Traffic,
    metrics: Option<&std::path::Path>,
    out: &mut Outcome,
) -> Result<Daemon, String> {
    let d = Daemon::launch(&run.jepo, run.jobs, metrics)?;
    for (req, want) in traffic.prime.iter().zip(&traffic.reference) {
        out.op(daemon::call(&d.addr, &req.encode()).and_then(|r| {
            if r.body == *want {
                Ok(())
            } else {
                Err(format!(
                    "set-up {}: response differs from the reference",
                    req.verb
                ))
            }
        }));
    }
    Ok(d)
}

/// Operations `0..n` over the run's connections, closed loop. Returns the
/// answered ones; every check is counted in `out`.
fn closed_loop(
    run: &Run,
    addr: &str,
    traffic: &Traffic,
    n: usize,
    out: &mut Outcome,
) -> Vec<Timing> {
    let conns = run.jobs;
    let sent = Sent::default();
    let sent = &sent;
    let per_conn: Vec<ConnRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut timings = Vec::new();
                    let mut checks = Vec::new();
                    for k in (c..n).step_by(conns) {
                        let reply: Result<Reply, String> = traffic
                            .payload(k, sent)
                            .and_then(|p| daemon::call(addr, &p))
                            .and_then(|r| traffic.check(k, &r).map(|()| r));
                        match reply {
                            Ok(mut reply) => {
                                reply.body = String::new();
                                timings.push(Timing { k, reply });
                                checks.push(Ok(()));
                            }
                            Err(e) => checks.push(Err(e)),
                        }
                    }
                    (timings, checks)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut timings = Vec::new();
    for (t, checks) in per_conn {
        timings.extend(t);
        checks.into_iter().for_each(|c| out.op(c));
    }
    timings
}

/// Latency of every answered operation, connect to `done`, in ms.
fn latencies(timings: &[Timing]) -> Vec<f64> {
    timings
        .iter()
        .map(|t| t.reply.done.as_secs_f64() * 1e3)
        .collect()
}

pub fn run(run: &Run, kind: Kind, out: &mut Outcome) -> Result<(), String> {
    let traffic = Traffic::new(kind, run.seed)?;
    let n = run.ops(rate(kind));
    if run.trace {
        return traced(run, &traffic, n, out);
    }
    let mut setups = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for _ in 0..SETUPS {
        if let Some(d) = daemon.take() {
            d.shutdown()?;
        }
        let t = Instant::now();
        daemon = Some(set_up(run, &traffic, None, out)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let daemon = daemon.expect("at least one set-up");
    let timed = closed_loop(run, &daemon.addr, &traffic, n, out);
    let rss = daemon.peak_rss_mb()?;
    daemon.shutdown()?;
    let windows = windows(&timed);
    let pick = |f: fn(&Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    out.metric("setup_s", median(&setups));
    out.metric("ops_per_s", pick(|w| w.ops_per_s));
    out.metric("p50_ms", pick(|w| w.p50_ms));
    out.metric("p90_ms", pick(|w| w.p90_ms));
    out.metric("peak_rss_mb", rss);
    out.notes.push(format!(
        "{n} operations over {} connection(s); set-up times (s): {setups:.4?}",
        run.jobs
    ));
    for (i, w) in windows.iter().enumerate() {
        out.notes.push(format!(
            "window {i}: {:.1} op/s, p50 {:.4} ms, p90 {:.4} ms",
            w.ops_per_s, w.p50_ms, w.p90_ms
        ));
    }
    Ok(())
}

/// Equal slices of a run's wall time. The end-to-end numbers are medians
/// over them, so a burst of load from outside the benchmark that covers
/// less than half the run does not move them.
const WINDOWS: usize = 5;

struct Window {
    ops_per_s: f64,
    p50_ms: f64,
    p90_ms: f64,
}

/// Throughput and latency of the operations that finished in each window.
fn windows(timings: &[Timing]) -> Vec<Window> {
    let end = |t: &Timing| t.reply.start + t.reply.done;
    let (Some(first), Some(last)) = (
        timings.iter().map(|t| t.reply.start).min(),
        timings.iter().map(end).max(),
    ) else {
        return Vec::new();
    };
    let width = (last - first).as_secs_f64() / WINDOWS as f64;
    let mut done: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
    for t in timings {
        let w = ((end(t) - first).as_secs_f64() / width) as usize;
        done[w.min(WINDOWS - 1)].push(t.reply.done.as_secs_f64() * 1e3);
    }
    done.iter()
        .map(|lat| Window {
            ops_per_s: lat.len() as f64 / width,
            p50_ms: percentile(lat, 0.5),
            p90_ms: percentile(lat, 0.9),
        })
        .collect()
}

/// Evenly spaced operations to replay.
fn sample(n: usize) -> Vec<usize> {
    let m = REPLAYED.min(n);
    (0..m).map(|i| i * n / m).collect()
}

fn stats_delta(after: &Json, before: &Json, path: &[&str]) -> f64 {
    after.num(path).unwrap_or(0.0) - before.num(path).unwrap_or(0.0)
}

/// The per-layer run: an untraced pass for the tracing overhead, the
/// daemon's registry over set-up alone and over set-up plus the timed
/// operations, and an in-process replay of a sample of the operations.
fn traced(run: &Run, traffic: &Traffic, n: usize, out: &mut Outcome) -> Result<(), String> {
    let plain = {
        let d = set_up(run, traffic, None, out)?;
        let r = closed_loop(run, &d.addr, traffic, n, out);
        d.shutdown()?;
        r
    };
    let prime_file = run
        .out_dir
        .join(format!("{}-setup.metrics.jsonl", run.workload));
    set_up(run, traffic, Some(&prime_file), out)?.shutdown()?;
    let full_file = run
        .out_dir
        .join(format!("{}-traced.metrics.jsonl", run.workload));
    let d = set_up(run, traffic, Some(&full_file), out)?;
    let before = d.stats()?;
    let mut spans = Spans::new();
    let traced = closed_loop(run, &d.addr, traffic, n, out);
    let after = d.stats()?;
    d.shutdown()?;
    let reg = Registry::read(&full_file)?.minus(&Registry::read(&prime_file)?);

    let ops = sample(n);
    for t in traced.iter().filter(|t| ops.contains(&t.k)) {
        let r = &t.reply;
        let op = spans.record(t.k, "client/op", None, r.start, Duration::ZERO, r.done);
        for (name, from, to) in [
            ("client/connect", Duration::ZERO, r.connected),
            ("client/send", r.connected, r.written),
            ("client/wait", r.written, r.first_event),
            ("client/receive", r.first_event, r.done),
        ] {
            spans.record(t.k, name, Some(op), r.start, from, to);
        }
    }
    let facts = layers::replay_serve(traffic, &ops, &mut spans)?;
    spans.write(&run.out_dir.join(format!("{}.spans.jsonl", run.workload)))?;
    let per_op = |name: &str| spans.per_op_ms(name, ops.len());

    // Split of the client-measured mean operation time.
    let op_ms = mean(&latencies(&traced));
    let (handle_us, handled) = reg.sum_prefixed("serve.latency_us.");
    let handle_ms = handle_us / handled.max(1.0) / 1e3;
    out.metric("serve.front_ms", op_ms - handle_ms);
    out.metric("serve.handle_ms", handle_ms);
    for part in ["decode", "memo_key", "assemble", "render", "events"] {
        out.metric(
            &format!("serve.{part}_ms"),
            per_op(&format!("serve.{part}")),
        );
    }
    layers::registry_metrics(&reg, n, out);
    out.metric("analyzer.rank_ms", per_op("analyzer.rank"));
    let parse_ms = per_op("jlang.parse");
    out.metric("jlang.parse_ms", parse_ms);
    out.metric(
        "jlang.files_parsed",
        stats_delta(&after, &before, &["parse_cache", "misses"]) / n as f64,
    );
    out.metric(
        "jlang.parse_mb_per_s",
        if parse_ms > 0.0 {
            facts.parsed_bytes / ops.len() as f64 / 1e6 / (parse_ms / 1e3)
        } else {
            0.0
        },
    );
    // The daemon's handle time, part by part: replayed calls plus the
    // analyzer phases from its registry.
    let engine_ms = facts.engine_ms / ops.len() as f64;
    out.metric("analyzer.engine_ms", engine_ms);
    let mut parts = layers::phases_ms(&reg) / n as f64 + engine_ms + parse_ms;
    for name in [
        "serve.memo_key",
        "serve.assemble",
        "serve.render",
        "serve.events",
        "analyzer.rank",
        "jvm.prepare",
        "jvm.exec",
        "profiler.aggregate",
        "profiler.render",
    ] {
        parts += per_op(name);
    }
    out.metric("serve.unattributed_ms", handle_ms - parts);
    sum_check(
        out,
        op_ms,
        op_ms - handle_ms + parts,
        "serve.unattributed_ms",
    );

    out.metric("serve.req_kb", facts.req_bytes / ops.len() as f64 / 1024.0);
    out.metric(
        "serve.resp_kb",
        facts.resp_bytes / ops.len() as f64 / 1024.0,
    );
    for (metric, layer) in [
        ("serve.memo_hit_ratio", "response_memo"),
        ("serve.parse_hit_ratio", "parse_cache"),
        ("serve.prepared_hit_ratio", "prepared_cache"),
    ] {
        out.metric(
            metric,
            layers::ratio(
                stats_delta(&after, &before, &[layer, "hits"]),
                stats_delta(&after, &before, &[layer, "misses"]),
            ),
        );
    }
    out.metric(
        "serve.rejected",
        stats_delta(&after, &before, &["rejected"]),
    );
    out.metric("serve.errored", stats_delta(&after, &before, &["errored"]));

    if let Some(vm) = &facts.vm {
        for part in ["prepare", "compile", "instrument", "decode", "ir", "exec"] {
            out.metric(&format!("jvm.{part}_ms"), per_op(&format!("jvm.{part}")));
        }
        out.metric(
            "jvm.mops",
            vm.ops_executed as f64 / per_op("jvm.exec") / 1e3,
        );
        out.metric("jvm.ops_executed", vm.ops_executed as f64);
        out.metric("jvm.profile_events", vm.profile_events as f64);
        out.metric("jvm.probes", vm.probes as f64);
        out.metric(
            "jvm.ic_hit_ratio",
            layers::ratio(vm.ic_hits as f64, vm.ic_misses as f64),
        );
        out.metric("jvm.ir_methods_compiled", vm.ir_methods_compiled as f64);
        out.metric("jvm.ir_methods_bailed", vm.ir_methods_bailed as f64);
        out.metric("jvm.ir_calls_inlined", vm.ir_calls_inlined as f64);
        out.metric("jvm.ir_ops_hoisted", vm.ir_ops_hoisted as f64);
        out.metric("profiler.aggregate_ms", per_op("profiler.aggregate"));
        out.metric("profiler.render_ms", per_op("profiler.render"));
        // The replayed operations differ in their edit as two seeds' do, and
        // the replay fails if their counts differ. Each run of the program
        // in the daemon must have executed exactly as many ops (a daemon
        // that skips runs, say from a cache, passes).
        let runs = reg.sum("jvm.runs");
        let executed = reg.sum("jvm.ops_executed");
        out.op(if executed == runs * vm.ops_executed as f64 {
            Ok(())
        } else {
            Err(format!(
                "exact count moved: the daemon executed {executed} ops in {runs} runs, \
                 the replay {} per run",
                vm.ops_executed
            ))
        });
        out.notes.push(format!(
            "exact counts (must repeat across runs and seeds): {vm:?}"
        ));
    }
    let overhead = percentile(&latencies(&traced), 0.5) / percentile(&latencies(&plain), 0.5) - 1.0;
    out.metric("trace.overhead_pct", overhead * 100.0);
    Ok(())
}

/// Tolerance of the per-layer split: named parts, each measured on its own,
/// may exceed the measured operation time by at most this share of it.
pub const SUM_TOLERANCE: f64 = 0.20;

/// Check that the named parts add up to the measured operation time; what
/// they leave is reported under `remainder`.
pub fn sum_check(out: &mut Outcome, op_ms: f64, parts_ms: f64, remainder: &str) {
    let left = op_ms - parts_ms;
    out.notes.push(format!(
        "split: operation {op_ms:.4} ms = named parts {parts_ms:.4} ms + {remainder} {left:.4} ms \
         ({:.1}%); tolerance: parts may exceed the operation by {:.0}%",
        left / op_ms * 100.0,
        SUM_TOLERANCE * 100.0
    ));
    out.op(if left >= -SUM_TOLERANCE * op_ms {
        Ok(())
    } else {
        Err(format!(
            "per-layer parts ({parts_ms:.4} ms) exceed the operation ({op_ms:.4} ms) by more than {:.0}%",
            SUM_TOLERANCE * 100.0
        ))
    });
}
