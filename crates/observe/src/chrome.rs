//! Chrome `trace_event` JSON export.
//!
//! Serializes a [`Timeline`], decoding its packed records, into the Trace
//! Event Format understood by Perfetto (<https://ui.perfetto.dev>) and
//! `chrome://tracing`: one *process* per subsystem (simulation /
//! federates / coordination), one *thread* per [`Lane`], complete (`"X"`) events for spans and instant
//! (`"i"`) events for markers. Timestamps are microseconds derived from
//! virtual-time nanoseconds with integer arithmetic only, so the export
//! is byte-deterministic like everything else in this crate.

use crate::span::{Lane, SpanKind, Timeline};
use std::fmt::Write as _;

/// The (pid, tid) a lane maps to in the exported trace.
fn lane_track(lane: Lane) -> (u32, u32) {
    match lane {
        Lane::Sim => (1, 0),
        Lane::Federate(i) => (2, u32::from(i)),
        Lane::Root => (3, 0),
        Lane::Zone(z) => (3, 1 + u32::from(z)),
    }
}

fn process_name(pid: u32) -> &'static str {
    match pid {
        1 => "simulation",
        2 => "federates",
        _ => "coordination",
    }
}

fn default_lane_label(lane: Lane) -> String {
    match lane {
        Lane::Sim => "sim".to_owned(),
        Lane::Federate(i) => format!("federate {i}"),
        Lane::Zone(z) => format!("zone {z}"),
        Lane::Root => "root".to_owned(),
    }
}

/// Appends `ns` nanoseconds as a microsecond decimal (`123.456`) using
/// integer arithmetic only.
fn push_micros(out: &mut String, ns: i128) {
    let (sign, abs) = if ns < 0 {
        ("-", ns.unsigned_abs())
    } else {
        ("", ns.unsigned_abs())
    };
    let _ = write!(out, "{sign}{}.{:03}", abs / 1_000, abs % 1_000);
}

/// Appends `s` as a JSON string literal (with escaping).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Serializes a timeline to Chrome `trace_event` JSON.
///
/// Load the result in Perfetto: each federate is a thread in the
/// "federates" process, each zone coordinator (and the root) a thread in
/// "coordination". Spans carry their logical tag as an argument.
#[must_use]
pub(crate) fn chrome_trace_json(timeline: &Timeline) -> String {
    let mut out = String::with_capacity(256 + timeline.len() * 96);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let sep = |out: &mut String, first: &mut bool| {
        if *first {
            *first = false;
        } else {
            out.push(',');
        }
    };

    // Metadata: name every process and lane that appears anywhere.
    let mut lanes: Vec<Lane> = timeline.spans().map(|r| r.lane).collect();
    lanes.extend(timeline.lane_names().keys().copied());
    lanes.sort_unstable();
    lanes.dedup();
    let mut pids: Vec<u32> = lanes.iter().map(|&l| lane_track(l).0).collect();
    pids.sort_unstable();
    pids.dedup();
    for pid in pids {
        sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
            process_name(pid)
        );
    }
    for &lane in &lanes {
        let (pid, tid) = lane_track(lane);
        let label = timeline
            .lane_name(lane)
            .map_or_else(|| default_lane_label(lane), str::to_owned);
        sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":"
        );
        push_json_str(&mut out, &label);
        out.push_str("}}");
    }

    for r in timeline.spans() {
        let (pid, tid) = lane_track(r.lane);
        sep(&mut out, &mut first);
        out.push('{');
        match r.kind {
            SpanKind::Complete => {
                out.push_str("\"ph\":\"X\",\"ts\":");
                push_micros(&mut out, i128::from(r.start.as_nanos()));
                out.push_str(",\"dur\":");
                push_micros(&mut out, i128::from((r.end - r.start).as_nanos()));
            }
            SpanKind::Instant => {
                out.push_str("\"ph\":\"i\",\"s\":\"t\",\"ts\":");
                push_micros(&mut out, i128::from(r.start.as_nanos()));
            }
        }
        let _ = write!(out, ",\"pid\":{pid},\"tid\":{tid},\"name\":");
        push_json_str(&mut out, r.name);
        if let Some(tag) = r.tag {
            out.push_str(",\"args\":{\"tag\":");
            push_json_str(&mut out, &tag.to_string());
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// A minimal structural JSON validity check (objects, arrays, strings,
/// numbers, booleans, null). Used by tests and example smoke runs to
/// assert an export is loadable without an external JSON dependency.
#[must_use]
pub fn is_valid_json(s: &str) -> bool {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    if !parse_value(bytes, &mut pos) {
        return false;
    }
    skip_ws(bytes, &mut pos);
    pos == bytes.len()
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> bool {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_lit(b, pos, b"true"),
        Some(b'f') => parse_lit(b, pos, b"false"),
        Some(b'n') => parse_lit(b, pos, b"null"),
        Some(b'-' | b'0'..=b'9') => parse_number(b, pos),
        _ => false,
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &[u8]) -> bool {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        true
    } else {
        false
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> bool {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| {
        let s = *pos;
        while matches!(b.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        *pos > s
    };
    if !digits(b, pos) {
        return false;
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return false;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return false;
        }
    }
    *pos > start
}

fn parse_string(b: &[u8], pos: &mut usize) -> bool {
    if b.get(*pos) != Some(&b'"') {
        return false;
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return true;
            }
            b'\\' => {
                *pos += 2;
            }
            _ => *pos += 1,
        }
    }
    false
}

fn parse_object(b: &[u8], pos: &mut usize) -> bool {
    *pos += 1; // consume '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return true;
    }
    loop {
        skip_ws(b, pos);
        if !parse_string(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return false;
        }
        *pos += 1;
        if !parse_value(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return true;
            }
            _ => return false,
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> bool {
    *pos += 1; // consume '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return true;
    }
    loop {
        if !parse_value(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return true;
            }
            _ => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LogicalTag;
    use dear_time::Instant;

    #[test]
    fn micros_formatting_is_integer_exact() {
        let mut s = String::new();
        push_micros(&mut s, 1_234_567);
        assert_eq!(s, "1234.567");
        s.clear();
        push_micros(&mut s, 42);
        assert_eq!(s, "0.042");
        s.clear();
        push_micros(&mut s, -1_500);
        assert_eq!(s, "-1.500");
    }

    #[test]
    fn exports_valid_json_with_lanes_and_tags() {
        let mut t = Timeline::default();
        t.set_lane_name(Lane::Federate(0), "lead \"sensor\"");
        t.span(
            Lane::Federate(0),
            "tag".into(),
            Instant::from_millis(10),
            Instant::from_millis(11),
            Some(LogicalTag::at(Instant::from_millis(10))),
        );
        t.instant(
            Lane::Root,
            "fixpoint".into(),
            Instant::from_millis(10),
            None,
        );
        t.instant(
            Lane::Zone(1),
            "fixpoint".into(),
            Instant::from_millis(10),
            None,
        );
        let json = chrome_trace_json(&t);
        assert!(is_valid_json(&json), "export must be valid JSON: {json}");
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("federates"));
        assert!(json.contains("coordination"));
        assert!(json.contains("\\\"sensor\\\""));
        assert!(json.contains("(0.010000000s, 0)"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
    }

    #[test]
    fn validator_accepts_and_rejects() {
        assert!(is_valid_json("{\"a\":[1,2.5,-3e4,\"x\",true,null]}"));
        assert!(is_valid_json("[]"));
        assert!(!is_valid_json("{\"a\":}"));
        assert!(!is_valid_json("[1,2"));
        assert!(!is_valid_json("{\"a\":1} trailing"));
        assert!(!is_valid_json(""));
    }

    #[test]
    fn empty_timeline_still_valid() {
        let json = chrome_trace_json(&Timeline::default());
        assert!(is_valid_json(&json));
        assert!(json.starts_with("{\"traceEvents\":["));
    }
}
