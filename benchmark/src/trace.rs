//! Bench-side spans: the benchmark's own record of which call into the
//! stack ran when. Spans live in memory and are written once, at the end,
//! as Chrome trace-event JSON (load in `chrome://tracing` or Perfetto).
//!
//! Spans wrap whole calls (`run_det`, `run_until`, one driver batch), never
//! the inside of a hot loop, so tracing costs a few `Instant::now()` per
//! repetition. Scopes inside the stack are a later change.

use crate::report::Json;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of the span in [`Tracer::spans`].
    pub id: usize,
    /// The span open when this one began.
    pub parent: Option<usize>,
    /// What ran, e.g. `apd.run_det` or `layer.sim.event`.
    pub name: &'static str,
    /// The workload it ran for (empty for layer drivers).
    pub workload: &'static str,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    /// Microseconds since the tracer was created; equals `start_us`
    /// while the span is open.
    pub end_us: f64,
}

/// Collects spans; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span, consumed by [`Tracer::end`].
#[derive(Debug)]
#[must_use = "an open span must be ended"]
pub struct OpenSpan(Option<usize>);

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, workload: &'static str) -> OpenSpan {
        if !self.enabled {
            return OpenSpan(None);
        }
        let id = self.spans.len();
        let now = self.now_us();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            workload,
            start_us: now,
            end_us: now,
        });
        self.open.push(id);
        OpenSpan(Some(id))
    }

    /// Closes `span`, which must be the innermost open one.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order: a bug in the benchmark.
    pub fn end(&mut self, span: OpenSpan) {
        if let Some(id) = span.0 {
            assert_eq!(self.open.pop(), Some(id), "spans must nest");
            self.spans[id].end_us = self.now_us();
        }
    }

    /// Every span recorded so far, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a Chrome trace-event document (complete `X` events;
    /// id, parent and workload ride in `args`).
    #[must_use]
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Json::object([
                    ("name", Json::from(s.name)),
                    ("cat", Json::from(s.workload)),
                    ("ph", Json::from("X")),
                    ("ts", Json::from(s.start_us)),
                    ("dur", Json::from(s.end_us - s.start_us)),
                    ("pid", Json::from(1u64)),
                    ("tid", Json::from(1u64)),
                    (
                        "args",
                        Json::object([
                            ("id", Json::from(s.id as u64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                            ),
                            ("workload", Json::from(s.workload)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::object([
            ("displayTimeUnit", Json::from("ms")),
            ("traceEvents", Json::Array(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export_as_valid_chrome_trace() {
        let mut t = Tracer::new(true);
        let outer = t.begin("workload", "brake_diet");
        let inner = t.begin("rep", "brake_diet");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let [outer, inner] = t.spans() else {
            panic!("two spans expected");
        };
        assert_eq!((outer.parent, inner.parent), (None, Some(0)));
        assert!(inner.end_us - inner.start_us >= 2000.0);
        assert!(outer.start_us <= inner.start_us && inner.end_us <= outer.end_us);

        let text = t.chrome_trace().to_pretty();
        assert!(dear_observe::is_valid_json(&text), "{text}");
        let doc = Json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().elements();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let span = t.begin("rep", "fleet_flat");
        t.end(span);
        assert!(t.spans().is_empty());
        assert!(t
            .chrome_trace()
            .get("traceEvents")
            .unwrap()
            .elements()
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "spans must nest")]
    fn out_of_order_close_is_a_bug() {
        let mut t = Tracer::new(true);
        let a = t.begin("a", "");
        let b = t.begin("b", "");
        t.end(a);
        t.end(b);
    }
}
