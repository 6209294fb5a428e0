//! Exporters: Chrome trace-event JSON and JSONL metrics.
//!
//! The Chrome export emits exactly one JSON object per line inside
//! `traceEvents`, which keeps the (dependency-free) validator and the
//! masking helper line-oriented. `tid`s are assigned by *sorted track
//! name*, not OS thread, so the export is content-identical for any
//! worker count; `ts`/`package_j` are the only fields that vary run to
//! run and `mask_timing` zeroes them for exact comparisons.

use crate::metrics::{MetricSnapshot, MetricValue};
use crate::span::{Event, EventKind, TraceData};
use std::fmt::Write as _;

/// Escape a string for a JSON literal (we control the inputs, but track
/// names embed file paths which may contain quotes/backslashes).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render an f64 as a valid JSON number.
fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0.0".to_string();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Render [`TraceData`] as Chrome trace-event JSON (`about:tracing` /
/// Perfetto's "Open trace file"). With `mask_timing`, `ts` and
/// `package_j` are zeroed so two exports can be compared for content.
pub fn chrome_trace(data: &TraceData, mask_timing: bool) -> String {
    // tid by sorted track name: deterministic under any scheduling.
    let mut order: Vec<usize> = (0..data.tracks.len()).collect();
    order.sort_by(|&a, &b| data.tracks[a].cmp(&data.tracks[b]));
    let mut tid_of = vec![0usize; data.tracks.len()];
    for (tid0, &t) in order.iter().enumerate() {
        tid_of[t] = tid0 + 1;
    }
    // Events grouped per track, each track ordered by its own sequence.
    let mut per_track: Vec<Vec<&Event>> = vec![Vec::new(); data.tracks.len()];
    for e in &data.events {
        per_track[e.track].push(e);
    }
    for evs in &mut per_track {
        evs.sort_by_key(|e| e.seq);
    }

    let mut lines: Vec<String> = Vec::with_capacity(data.events.len() + data.tracks.len() + 1);
    lines.push(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"jepo\"}}"
            .to_string(),
    );
    for &t in &order {
        lines.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            tid_of[t],
            esc(&data.tracks[t])
        ));
    }
    for &t in &order {
        for e in &per_track[t] {
            let ts_us = if mask_timing {
                0.0
            } else {
                e.ts_ns as f64 / 1_000.0
            };
            match &e.kind {
                EventKind::Begin {
                    span_id,
                    parent_id,
                    name,
                } => lines.push(format!(
                    "{{\"ph\":\"B\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"name\":\"{}\",\
                     \"args\":{{\"span_id\":\"{:016x}\",\"parent\":\"{:016x}\",\"seq\":{}}}}}",
                    tid_of[t],
                    ts_us,
                    esc(name),
                    span_id,
                    parent_id,
                    e.seq
                )),
                EventKind::End { span_id, package_j } => {
                    let j = if mask_timing { 0.0 } else { *package_j };
                    lines.push(format!(
                        "{{\"ph\":\"E\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\
                         \"args\":{{\"span_id\":\"{:016x}\",\"package_j\":{:.9},\"seq\":{}}}}}",
                        tid_of[t], ts_us, span_id, j, e.seq
                    ));
                }
                EventKind::Instant { name, package_j } => {
                    let j = if mask_timing { 0.0 } else { *package_j };
                    lines.push(format!(
                        "{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"name\":\"{}\",\
                         \"s\":\"t\",\"args\":{{\"package_j\":{:.9},\"seq\":{}}}}}",
                        tid_of[t],
                        ts_us,
                        esc(name),
                        j,
                        e.seq
                    ));
                }
            }
        }
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&lines.join(",\n"));
    out.push_str("\n]}\n");
    out
}

/// Render a metrics snapshot as JSONL — one metric per line.
pub fn metrics_jsonl(snaps: &[MetricSnapshot]) -> String {
    let mut out = String::new();
    for s in snaps {
        match &s.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(
                    out,
                    "{{\"metric\":\"{}\",\"type\":\"counter\",\"value\":{v}}}",
                    esc(&s.name)
                );
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(
                    out,
                    "{{\"metric\":\"{}\",\"type\":\"gauge\",\"value\":{}}}",
                    esc(&s.name),
                    json_f64(*v)
                );
            }
            MetricValue::Histogram {
                count,
                sum,
                buckets,
                overflow,
            } => {
                let bs: Vec<String> = buckets
                    .iter()
                    .map(|(le, n)| format!("{{\"le\":{le},\"n\":{n}}}"))
                    .collect();
                let _ = writeln!(
                    out,
                    "{{\"metric\":\"{}\",\"type\":\"histogram\",\"count\":{count},\
                     \"sum\":{sum},\"buckets\":[{}],\"overflow\":{overflow}}}",
                    esc(&s.name),
                    bs.join(",")
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{span, Tracer};

    fn sample_data() -> TraceData {
        let t = Tracer::new();
        t.enable();
        {
            let _g = t.track("work");
            let mut a = span("outer");
            a.add_joules(2.0);
            {
                let mut b = span("inner");
                b.add_joules(0.5);
            }
        }
        t.data()
    }

    #[test]
    fn chrome_trace_is_one_event_per_line() {
        let json = chrome_trace(&sample_data(), false);
        assert!(json.starts_with("{\"traceEvents\":[\n"));
        assert!(json.trim_end().ends_with("]}"));
        let events: Vec<&str> = json.lines().filter(|l| l.contains("\"ph\":")).collect();
        // 1 process meta + 1 thread meta + 2 begins + 2 ends.
        assert_eq!(events.len(), 6);
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 2);
        assert!(json.contains("\"name\":\"work\""), "track name meta");
    }

    #[test]
    fn masked_export_zeroes_timing_only() {
        let data = sample_data();
        let masked = chrome_trace(&data, true);
        assert!(masked.contains("\"ts\":0.000"));
        assert!(masked.contains("\"package_j\":0.000000000"));
        // Content (names, ids, seq) survives masking.
        assert!(masked.contains("\"name\":\"outer\""));
        assert!(masked.contains("\"seq\":0"));
    }

    #[test]
    fn jsonl_formats_all_metric_kinds() {
        let reg = crate::metrics::Registry::new();
        reg.counter("a.count").add(7);
        reg.gauge("b.gauge").set(1.5);
        reg.histogram("c.hist", &[10, 100]).observe(42);
        let out = metrics_jsonl(&reg.snapshot());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"metric\":\"a.count\",\"type\":\"counter\",\"value\":7}"
        );
        assert_eq!(
            lines[1],
            "{\"metric\":\"b.gauge\",\"type\":\"gauge\",\"value\":1.5}"
        );
        assert!(lines[2].contains("\"count\":1"), "{}", lines[2]);
        assert!(lines[2].contains("{\"le\":100,\"n\":1}"), "{}", lines[2]);
    }

    #[test]
    fn escaping_handles_quotes_and_controls() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_f64_is_always_a_valid_number() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(2.0), "2.0"); // display drops .0; re-added
        assert_eq!(json_f64(f64::NAN), "0.0");
    }
}
