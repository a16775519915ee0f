//! Chrome `trace_event` / Perfetto JSON timeline output.
//!
//! Renders an [`EventRing`]'s contents as the JSON Object Format of the
//! Trace Event spec: open `chrome://tracing` or <https://ui.perfetto.dev>
//! and load the file. Durations ([`EventKind::FetchStall`]) become
//! complete (`"ph":"X"`) events; everything else is an instant
//! (`"ph":"i"`). Timestamps are core cycles, declared via
//! `otherData.clock` so the unit is self-describing.

use crate::events::{Event, EventKind};
use crate::json::write_str;
use crate::span::{dispatch_of, is_hedge_lane, Span, SpanKind};
use std::collections::BTreeMap;

/// Serializes events (oldest first) as a Chrome trace JSON document.
///
/// `process_name` labels the single process row (typically the function
/// under trace); all events land on thread 1.
pub fn chrome_trace(process_name: &str, events: &[Event]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"otherData\":{\"clock\":\"cycles\"},\"traceEvents\":[");
    // Metadata record naming the process row.
    out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":");
    write_str(&mut out, process_name);
    out.push_str("}}");
    for event in events {
        out.push(',');
        write_event(&mut out, event);
    }
    out.push_str("]}");
    out
}

fn write_event(out: &mut String, event: &Event) {
    out.push_str("{\"name\":");
    write_str(out, event.kind.label());
    out.push_str(",\"cat\":\"invocation\",\"pid\":1,\"tid\":1,\"ts\":");
    out.push_str(&event.ts.to_string());
    match event.kind {
        EventKind::FetchStall => {
            out.push_str(",\"ph\":\"X\",\"dur\":");
            out.push_str(&event.dur.to_string());
        }
        _ => out.push_str(",\"ph\":\"i\",\"s\":\"t\""),
    }
    out.push_str(",\"args\":{");
    let (ka, kb) = arg_names(event.kind);
    write_str(out, ka);
    out.push(':');
    out.push_str(&event.a.to_string());
    out.push(',');
    write_str(out, kb);
    out.push(':');
    out.push_str(&event.b.to_string());
    out.push_str("}}");
}

fn arg_names(kind: EventKind) -> (&'static str, &'static str) {
    match kind {
        EventKind::Dispatch => ("invocation", "reserved"),
        EventKind::FetchStall => ("line", "hit_level"),
        EventKind::PrefetchBatch => ("issued", "redundant"),
        EventKind::Retire => ("instructions", "cycles"),
    }
}

/// Serializes a span forest as a Chrome trace JSON document.
///
/// Each trace lane (one dispatched copy of an invocation) becomes its
/// own thread row; span times, which are invocation-relative, are
/// shifted by the root span's recorded arrival so the timeline lays out
/// in absolute simulated microseconds. Durational spans render as
/// complete (`"ph":"X"`) events, verdicts as instants — and hedged
/// pairs (both lanes of one dispatch present) are linked with flow
/// (`"ph":"s"` → `"ph":"f"`) events whose id is the dispatch index, so
/// Perfetto draws the arrow from the primary to its duplicate.
pub fn chrome_trace_spans(process_name: &str, spans: &[Span]) -> String {
    // Absolute offset and presence per lane, from the root spans.
    let mut arrivals: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.id == 0 {
            arrivals.insert(s.trace, s.b);
        }
    }
    let mut out = String::from(
        "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"clock\":\"us\"},\"traceEvents\":[",
    );
    out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":");
    write_str(&mut out, process_name);
    out.push_str("}}");
    for span in spans {
        out.push(',');
        write_span(&mut out, span, arrivals.get(&span.trace).copied().unwrap_or(0));
    }
    // Flow pairs: one arrow per dispatch with both lanes present.
    for (&trace, &arrival) in &arrivals {
        if !is_hedge_lane(trace) {
            continue;
        }
        let dispatch = dispatch_of(trace);
        let primary = trace - 1;
        let Some(&primary_arrival) = arrivals.get(&primary) else {
            continue;
        };
        out.push_str(&format!(
            ",{{\"name\":\"hedge\",\"cat\":\"fleet\",\"ph\":\"s\",\"id\":{dispatch},\
             \"pid\":1,\"tid\":{},\"ts\":{primary_arrival}}}",
            primary + 1
        ));
        out.push_str(&format!(
            ",{{\"name\":\"hedge\",\"cat\":\"fleet\",\"ph\":\"f\",\"bp\":\"e\",\
             \"id\":{dispatch},\"pid\":1,\"tid\":{},\"ts\":{arrival}}}",
            trace + 1
        ));
    }
    out.push_str("]}");
    out
}

fn write_span(out: &mut String, span: &Span, offset_us: u64) {
    out.push_str("{\"name\":");
    write_str(out, span.kind.label());
    out.push_str(&format!(
        ",\"cat\":\"fleet\",\"pid\":1,\"tid\":{},\"ts\":{}",
        span.trace + 1,
        offset_us + span.start_us
    ));
    if span.dur_us > 0 || span.kind == SpanKind::Invocation {
        out.push_str(&format!(",\"ph\":\"X\",\"dur\":{}", span.dur_us));
    } else {
        out.push_str(",\"ph\":\"i\",\"s\":\"t\"");
    }
    let (ka, kb) = span_arg_names(span.kind);
    out.push_str(&format!(
        ",\"args\":{{\"trace\":{},\"span\":{},\"parent\":{},",
        span.trace, span.id, span.parent
    ));
    write_str(out, ka);
    out.push(':');
    out.push_str(&span.a.to_string());
    out.push(',');
    write_str(out, kb);
    out.push(':');
    out.push_str(&span.b.to_string());
    out.push_str("}}");
}

fn span_arg_names(kind: SpanKind) -> (&'static str, &'static str) {
    match kind {
        SpanKind::Invocation => ("host", "arrival_us"),
        SpanKind::Route => ("host", "failed_over"),
        SpanKind::Hedge => ("primary", "hedge_host"),
        SpanKind::Reconnect => ("retry", "abandoned"),
        SpanKind::Admission => ("verdict", "reserved"),
        SpanKind::Restore => ("attempt", "degraded"),
        SpanKind::Execute => ("attempt", "outcome"),
        SpanKind::Backoff => ("attempt", "reserved"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn ev(ts: u64, dur: u64, kind: EventKind, a: u64, b: u64) -> Event {
        Event { ts, dur, kind, a, b }
    }

    #[test]
    fn trace_document_is_valid_json_with_expected_phases() {
        let events = [
            ev(0, 0, EventKind::Dispatch, 1, 0),
            ev(5, 120, EventKind::FetchStall, 42, 2),
            ev(900, 0, EventKind::Retire, 5000, 900),
        ];
        let doc = chrome_trace("Auth-G", &events);
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("displayTimeUnit").unwrap().as_str(), Some("ns"));
        assert_eq!(
            v.get("otherData").unwrap().get("clock").unwrap().as_str(),
            Some("cycles")
        );
        let te = v.get("traceEvents").unwrap().as_arr().unwrap();
        // Metadata record + 3 events.
        assert_eq!(te.len(), 4);
        assert_eq!(te[0].get("ph").unwrap().as_str(), Some("M"));
        assert_eq!(te[1].get("name").unwrap().as_str(), Some("dispatch"));
        assert_eq!(te[1].get("ph").unwrap().as_str(), Some("i"));
        let stall = &te[2];
        assert_eq!(stall.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(stall.get("dur").unwrap().as_f64(), Some(120.0));
        assert_eq!(stall.get("args").unwrap().get("line").unwrap().as_f64(), Some(42.0));
        assert_eq!(
            te[3].get("args").unwrap().get("instructions").unwrap().as_f64(),
            Some(5000.0)
        );
    }

    #[test]
    fn empty_trace_still_has_process_metadata() {
        let doc = chrome_trace("fn", &[]);
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("traceEvents").unwrap().as_arr().unwrap().len(), 1);
    }

    fn sp(trace: u64, id: u32, kind: SpanKind, start_us: u64, dur_us: u64, a: u64, b: u64) -> Span {
        Span {
            trace,
            id,
            parent: 0,
            kind,
            start_us,
            dur_us,
            a,
            b,
        }
    }

    #[test]
    fn span_trace_shifts_by_arrival_and_pairs_hedge_flows() {
        // Dispatch 3, hedged: primary on lane 6 (arrival 500µs), hedge on
        // lane 7 (arrival 500µs too — both copies leave the router at the
        // same simulated instant).
        let spans = [
            sp(6, 0, SpanKind::Invocation, 0, 900, 2, 500),
            sp(6, 4, SpanKind::Execute, 0, 900, 0, 0),
            sp(7, 0, SpanKind::Invocation, 0, 1200, 5, 500),
            sp(7, 4, SpanKind::Execute, 0, 1200, 0, 0),
        ];
        let doc = chrome_trace_spans("fleet", &spans);
        let v = parse(&doc).unwrap();
        let te = v.get("traceEvents").unwrap().as_arr().unwrap();
        // Metadata + 4 spans + flow start/finish.
        assert_eq!(te.len(), 7);
        let root = &te[1];
        assert_eq!(root.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(root.get("ts").unwrap().as_f64(), Some(500.0));
        assert_eq!(root.get("dur").unwrap().as_f64(), Some(900.0));
        assert_eq!(root.get("tid").unwrap().as_f64(), Some(7.0));
        let start = te
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("s"))
            .expect("flow start");
        let finish = te
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("f"))
            .expect("flow finish");
        // Both ends of the arrow carry the dispatch index as the flow id.
        assert_eq!(start.get("id").unwrap().as_f64(), Some(3.0));
        assert_eq!(finish.get("id").unwrap().as_f64(), Some(3.0));
        assert_eq!(start.get("tid").unwrap().as_f64(), Some(7.0));
        assert_eq!(finish.get("tid").unwrap().as_f64(), Some(8.0));
    }

    #[test]
    fn unhedged_span_trace_has_no_flow_events() {
        let spans = [
            sp(4, 0, SpanKind::Invocation, 0, 100, 0, 0),
            sp(4, 5, SpanKind::Admission, 0, 0, 0, 0),
        ];
        let doc = chrome_trace_spans("fleet", &spans);
        let v = parse(&doc).unwrap();
        let te = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(te.len(), 3);
        for e in te {
            let ph = e.get("ph").unwrap().as_str().unwrap();
            assert!(ph != "s" && ph != "f", "unexpected flow event");
        }
        // Zero-duration verdicts are instants.
        assert_eq!(te[2].get("ph").unwrap().as_str(), Some("i"));
    }
}
