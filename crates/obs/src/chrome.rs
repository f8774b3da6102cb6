//! Chrome trace-event JSON export for recorded spans.
//!
//! Renders [`TraceEvent`]s in the Trace Event Format's JSON-object form,
//! loadable in `chrome://tracing` and [Perfetto](https://ui.perfetto.dev):
//! every span becomes a `ph:"X"` *complete* event with microsecond
//! `ts`/`dur`, and each distinct span track (see [`crate::Span::track`])
//! becomes its own named timeline row via `ph:"M"` `thread_name` metadata.
//! Per-site collection rounds therefore render as parallel rows under one
//! process, which is exactly the view that makes a whole `collect.epoch`
//! legible as a timeline.
//!
//! The output is deliberately dependency-free: JSON is assembled by hand
//! with local string escaping, mirroring how [`crate::export`] emits the
//! Prometheus text format without a serializer crate.

use crate::trace::{RingRecorder, TraceEvent};
use std::fmt::Write as _;

/// The `pid` all setstream events render under (one logical process).
const PID: u64 = 1;

/// Render the recorder's retained spans as Chrome trace JSON.
pub fn render(recorder: &RingRecorder) -> String {
    render_events(&recorder.events())
}

/// Render an explicit span list as Chrome trace JSON.
///
/// Tracks are assigned `tid`s in first-appearance order: the default
/// (empty) track is `tid` 0 and named `main`; each distinct named track
/// gets the next `tid` and a `thread_name` metadata event. Span order is
/// preserved — the viewers sort by `ts` themselves.
pub fn render_events(events: &[TraceEvent]) -> String {
    let mut tracks: Vec<&str> = vec![""];
    for e in events {
        if !tracks.contains(&e.track.as_str()) {
            tracks.push(&e.track);
        }
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |out: &mut String, line: &str| {
        if !first {
            out.push_str(",\n");
        }
        out.push_str(line);
        first = false;
    };
    let process = format!(
        "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":0,\"name\":\"process_name\",\
         \"args\":{{\"name\":\"setstream\"}}}}"
    );
    push(&mut out, &process);
    for (tid, track) in tracks.iter().enumerate() {
        let name = if track.is_empty() { "main" } else { track };
        let meta = format!(
            "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        );
        push(&mut out, &meta);
    }
    for e in events {
        let tid = tracks
            .iter()
            .position(|t| *t == e.track.as_str())
            .unwrap_or(0);
        let mut line = format!(
            "{{\"ph\":\"X\",\"pid\":{PID},\"tid\":{tid},\"name\":\"{}\",\
             \"ts\":{},\"dur\":{}",
            escape(e.name),
            micros(e.start_ns),
            micros(e.duration_ns),
        );
        let _ = write!(line, ",\"args\":{{\"id\":{}", e.id);
        if e.trace_id != 0 {
            let _ = write!(line, ",\"trace\":{}", e.trace_id);
        }
        if e.parent_id != 0 {
            let _ = write!(line, ",\"parent\":{}", e.parent_id);
        }
        if !e.detail.is_empty() {
            let _ = write!(line, ",\"detail\":\"{}\"", escape(&e.detail));
        }
        line.push_str("}}");
        push(&mut out, &line);
    }
    // Stitch cross-track parent→child edges as flow events: spans that
    // share a trace (a site cut feeding a relay merge feeding a commit)
    // render as arrows between their timeline rows. A flow needs both ends
    // in the ring, so orphan children (parent evicted or remote and never
    // merged into this recorder) keep their `parent` arg but get no arrow.
    for e in events {
        if e.parent_id == 0 {
            continue;
        }
        let Some(parent) = events.iter().find(|p| p.id == e.parent_id) else {
            continue;
        };
        let ptid = tracks
            .iter()
            .position(|t| *t == parent.track.as_str())
            .unwrap_or(0);
        let ctid = tracks
            .iter()
            .position(|t| *t == e.track.as_str())
            .unwrap_or(0);
        let start = format!(
            "{{\"ph\":\"s\",\"pid\":{PID},\"tid\":{ptid},\"id\":{},\
             \"name\":\"trace-{}\",\"cat\":\"lineage\",\"ts\":{}}}",
            e.id,
            e.trace_id,
            micros(parent.start_ns),
        );
        push(&mut out, &start);
        let finish = format!(
            "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":{PID},\"tid\":{ctid},\"id\":{},\
             \"name\":\"trace-{}\",\"cat\":\"lineage\",\"ts\":{}}}",
            e.id,
            e.trace_id,
            micros(e.start_ns),
        );
        push(&mut out, &finish);
    }
    out.push_str("\n]}\n");
    out
}

/// Nanoseconds → microseconds with three decimals (the format's unit),
/// rendered without float formatting jitter.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Escape a string for a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &'static str, track: &str, start_ns: u64, duration_ns: u64) -> TraceEvent {
        TraceEvent {
            id: 42,
            trace_id: 0,
            parent_id: 0,
            name,
            detail: String::new(),
            track: track.to_string(),
            start_ns,
            duration_ns,
        }
    }

    #[test]
    fn tracks_map_to_stable_tids_with_thread_names() {
        let events = vec![
            event("engine.query", "", 1_000, 2_500),
            event("site.cut_epoch", "site-0", 3_000, 400),
            event("site.cut_epoch", "site-1", 3_100, 380),
            event("site.cut_epoch", "site-0", 4_000, 410),
        ];
        let json = render_events(&events);
        assert!(json.contains(
            "\"name\":\"thread_name\",\"args\":{\"name\":\"site-0\"}"
        ));
        assert!(json.contains("\"tid\":1,\"name\":\"site.cut_epoch\""));
        assert!(json.contains("\"tid\":2,\"name\":\"site.cut_epoch\""));
        // Both site-0 spans share tid 1.
        assert_eq!(json.matches("\"tid\":1,\"name\":\"site.cut_epoch\"").count(), 2);
    }

    #[test]
    fn timestamps_render_as_microseconds() {
        let json = render_events(&[event("x", "", 1_234_567, 89_012)]);
        assert!(json.contains("\"ts\":1234.567"), "{json}");
        assert!(json.contains("\"dur\":89.012"), "{json}");
    }

    #[test]
    fn details_and_names_are_json_escaped() {
        let mut e = event("x", "", 0, 1);
        e.detail = "quote \" back\\slash\nnewline".to_string();
        let json = render_events(&[e]);
        assert!(
            json.contains("\"detail\":\"quote \\\" back\\\\slash\\nnewline\""),
            "{json}"
        );
    }

    #[test]
    fn cross_track_traces_stitch_with_flow_events() {
        let mut cut = event("site.cut_epoch", "site-0", 1_000, 400);
        cut.id = 10;
        cut.trace_id = 10;
        let mut merge = event("collect.merge", "relay-1", 2_000, 100);
        merge.id = 11;
        merge.trace_id = 10;
        merge.parent_id = 10;
        let mut commit = event("collect.commit", "coordinator", 3_000, 50);
        commit.id = 12;
        commit.trace_id = 10;
        commit.parent_id = 11;
        let json = render_events(&[cut, merge, commit]);
        // Spans carry their trace identity in args…
        assert!(json.contains("\"args\":{\"id\":11,\"trace\":10,\"parent\":10}"));
        // …and each parent→child edge emits a flow start/finish pair.
        assert!(json.contains("\"ph\":\"s\",\"pid\":1,\"tid\":1,\"id\":11"), "{json}");
        assert!(json.contains("\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":2,\"id\":11"));
        assert!(json.contains("\"ph\":\"s\",\"pid\":1,\"tid\":2,\"id\":12"));
        assert!(json.contains("\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":3,\"id\":12"));
        assert_eq!(json.matches("\"name\":\"trace-10\"").count(), 4);
    }

    #[test]
    fn orphan_children_keep_parent_arg_but_emit_no_flow() {
        let mut child = event("collect.commit", "", 3_000, 50);
        child.trace_id = 7;
        child.parent_id = 999; // parent not in the ring
        let json = render_events(&[child]);
        assert!(json.contains("\"trace\":7,\"parent\":999"));
        assert!(!json.contains("\"ph\":\"s\""));
        assert!(!json.contains("\"ph\":\"f\""));
    }

    #[test]
    fn empty_recorder_still_renders_valid_skeleton() {
        let json = render_events(&[]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"process_name\""));
    }
}
