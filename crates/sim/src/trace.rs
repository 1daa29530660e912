//! Trace recording for determinism checks and figure harnesses.
//!
//! A [`Trace`] is an append-only log of `(time, category, detail)` records.
//! Two runs of a *deterministic* system must produce byte-identical traces;
//! the integration tests compare [`Trace::fingerprint`] values across seeds
//! and executor back-ends to verify exactly that (the central claim of the
//! paper's §III).
//!
//! Details come in two shapes: free-form [`TraceDetail::Text`] lines (the
//! original model, still used by cold paths) and typed
//! [`TraceDetail::Typed`] records carrying a [`EventKind`] — interned
//! names plus logical tags, recorded by the hot paths without any
//! formatting. Both shapes render to the same canonical line, and the
//! fingerprint hashes that rendering, so the string→typed migration moved
//! **no** fingerprint.

use dear_observe::EventKind;
use dear_time::Instant;
use std::borrow::Cow;
use std::fmt;

/// The payload of a [`TraceEvent`]: a free-form line or a typed record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TraceDetail {
    /// A pre-formatted detail line.
    Text(String),
    /// A structured record; its canonical rendering is the detail line.
    Typed(EventKind),
}

impl TraceDetail {
    /// Appends the canonical detail line to `out`.
    pub(crate) fn render(&self, out: &mut String) {
        match self {
            TraceDetail::Text(s) => out.push_str(s),
            TraceDetail::Typed(kind) => kind.render(out),
        }
    }
}

impl fmt::Display for TraceDetail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceDetail::Text(s) => f.write_str(s),
            TraceDetail::Typed(kind) => write!(f, "{kind}"),
        }
    }
}

impl PartialEq<str> for TraceDetail {
    fn eq(&self, other: &str) -> bool {
        match self {
            TraceDetail::Text(s) => s == other,
            TraceDetail::Typed(kind) => {
                let mut rendered = String::new();
                kind.render(&mut rendered);
                rendered == other
            }
        }
    }
}

/// One record in a [`Trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Time at which the event was recorded (epoch depends on the recorder).
    pub at: Instant,
    /// Coarse category, e.g. `"net"`, `"reaction"`, `"error"`.
    pub(crate) category: Cow<'static, str>,
    /// Detail payload (free-form or typed).
    pub(crate) detail: TraceDetail,
}

impl TraceEvent {
    /// The canonical detail line as an owned string.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn detail_text(&self) -> String {
        let mut s = String::new();
        self.detail.render(&mut s);
        s
    }

    /// The typed record, if this event carries one.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn kind(&self) -> Option<&EventKind> {
        match &self.detail {
            TraceDetail::Typed(kind) => Some(kind),
            TraceDetail::Text(_) => None,
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.at, self.category, self.detail)
    }
}

/// An append-only event log with a deterministic fingerprint.
///
/// # Examples
///
/// ```
/// use dear_sim::Trace;
/// use dear_time::Instant;
///
/// let mut t = Trace::new();
/// t.record(Instant::from_millis(1), "net", "frame 0 delivered");
/// assert_eq!(t.len(), 1);
/// let fp = t.fingerprint();
/// let mut t2 = Trace::new();
/// t2.record(Instant::from_millis(1), "net", "frame 0 delivered");
/// assert_eq!(fp, t2.fingerprint());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    enabled: bool,
}

impl Trace {
    /// Creates an empty, enabled trace.
    #[must_use]
    pub fn new() -> Self {
        Trace {
            events: Vec::new(),
            enabled: true,
        }
    }

    /// Creates a disabled trace that drops all records (zero overhead mode).
    #[must_use]
    pub fn disabled() -> Self {
        Trace {
            events: Vec::new(),
            enabled: false,
        }
    }

    /// Enables or disables recording.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Returns whether recording is enabled.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends a record if recording is enabled.
    ///
    /// The `detail` argument is evaluated by the *caller*, so building it
    /// with `format!` pays the formatting cost even when the trace is
    /// disabled. Hot paths must use [`Trace::record_with`] instead, which
    /// defers detail construction behind the enabled check.
    pub fn record(
        &mut self,
        at: Instant,
        category: impl Into<Cow<'static, str>>,
        detail: impl Into<String>,
    ) {
        if self.enabled {
            self.events.push(TraceEvent {
                at,
                category: category.into(),
                detail: TraceDetail::Text(detail.into()),
            });
        }
    }

    /// Appends a record if recording is enabled, building the detail line
    /// lazily.
    ///
    /// When the trace is disabled this performs **zero formatting and zero
    /// heap allocation**: the closure is never called and a `&'static str`
    /// category is borrowed, not copied. This is the API the runtime hot
    /// path uses for per-reaction records.
    ///
    /// # Examples
    ///
    /// ```
    /// use dear_sim::Trace;
    /// use dear_time::Instant;
    ///
    /// let mut off = Trace::disabled();
    /// off.record_with(Instant::EPOCH, "reaction", || unreachable!("never built"));
    /// assert!(off.is_empty());
    ///
    /// let mut on = Trace::new();
    /// on.record_with(Instant::EPOCH, "reaction", || format!("r{} fired", 3));
    /// assert_eq!(on.len(), 1);
    /// ```
    pub fn record_with(
        &mut self,
        at: Instant,
        category: impl Into<Cow<'static, str>>,
        detail: impl FnOnce() -> String,
    ) {
        if self.enabled {
            self.events.push(TraceEvent {
                at,
                category: category.into(),
                detail: TraceDetail::Text(detail()),
            });
        }
    }

    /// Appends a typed record if recording is enabled, building the
    /// [`EventKind`] lazily.
    ///
    /// This is the structured twin of [`Trace::record_with`]: the hot
    /// paths hand over interned `Rc<str>` names and logical tags instead
    /// of formatting a `String` per event. Disabled-mode cost is one
    /// branch; enabled-mode cost is an `Rc` clone and a `Vec` push — the
    /// detail line is only materialized by fingerprinting or display.
    pub fn record_event(
        &mut self,
        at: Instant,
        category: impl Into<Cow<'static, str>>,
        kind: impl FnOnce() -> EventKind,
    ) {
        if self.enabled {
            self.events.push(TraceEvent {
                at,
                category: category.into(),
                detail: TraceDetail::Typed(kind()),
            });
        }
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if no events were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over the recorded events in order.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceEvent> {
        self.events.iter()
    }

    /// Iterates over the events recorded under a given category, without
    /// allocating.
    ///
    /// # Examples
    ///
    /// ```
    /// use dear_sim::Trace;
    /// use dear_time::Instant;
    ///
    /// let mut t = Trace::new();
    /// t.record(Instant::EPOCH, "net", "sent");
    /// t.record(Instant::EPOCH, "rti", "grant");
    /// assert_eq!(t.events_in("rti").count(), 1);
    /// ```
    pub fn events_in<'t, 'c>(
        &'t self,
        category: &'c str,
    ) -> impl Iterator<Item = &'t TraceEvent> + use<'t, 'c> {
        self.events.iter().filter(move |e| e.category == category)
    }

    /// A deterministic 64-bit FNV-1a fingerprint over all records.
    ///
    /// Two traces have equal fingerprints iff (with overwhelming
    /// probability) they contain the same records in the same order —
    /// the workhorse of the determinism assertions in this workspace.
    ///
    /// Typed details are hashed via their canonical rendering (into one
    /// reused scratch buffer), so a typed record and the free-form line
    /// it replaced produce identical fingerprints.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        let mut scratch = String::new();
        for e in &self.events {
            eat(&e.at.as_nanos().to_le_bytes());
            eat(e.category.as_bytes());
            eat(&[0xFF]);
            match &e.detail {
                TraceDetail::Text(s) => eat(s.as_bytes()),
                typed => {
                    scratch.clear();
                    typed.render(&mut scratch);
                    eat(scratch.as_bytes());
                }
            }
            eat(&[0xFE]);
        }
        hash
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceEvent;
    type IntoIter = std::slice::Iter<'a, TraceEvent>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let mut t = Trace::new();
        t.record(Instant::from_millis(1), "a", "one");
        t.record(Instant::from_millis(2), "b", "two");
        let cats: Vec<_> = t.iter().map(|e| e.category.as_ref()).collect();
        assert_eq!(cats, vec!["a", "b"]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn disabled_trace_drops_records() {
        let mut t = Trace::disabled();
        t.record(Instant::EPOCH, "a", "x");
        assert!(t.is_empty());
        t.set_enabled(true);
        t.record(Instant::EPOCH, "a", "x");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn fingerprint_sensitive_to_order_and_content() {
        let mut a = Trace::new();
        a.record(Instant::from_millis(1), "x", "one");
        a.record(Instant::from_millis(2), "x", "two");
        let mut b = Trace::new();
        b.record(Instant::from_millis(2), "x", "two");
        b.record(Instant::from_millis(1), "x", "one");
        assert_ne!(a.fingerprint(), b.fingerprint());

        let mut c = Trace::new();
        c.record(Instant::from_millis(1), "x", "one");
        c.record(Instant::from_millis(2), "x", "twO");
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn category_filter() {
        let mut t = Trace::new();
        t.record(Instant::EPOCH, "err", "bad");
        t.record(Instant::EPOCH, "ok", "good");
        t.record(Instant::EPOCH, "err", "worse");
        assert_eq!(t.events_in("err").count(), 2);
        assert_eq!(t.events_in("ok").count(), 1);
        assert_eq!(t.events_in("none").count(), 0);
        // The iterator form sees the same events without collecting.
        assert_eq!(t.events_in("err").count(), 2);
        assert!(t.events_in("err").all(|e| e.category == "err"));
    }

    #[test]
    fn display_format() {
        let e = TraceEvent {
            at: Instant::from_secs(1),
            category: "net".into(),
            detail: TraceDetail::Text("hello".into()),
        };
        assert_eq!(e.to_string(), "[1.000000000s] net: hello");
        assert_eq!(e.detail_text(), "hello");
        assert!(e.kind().is_none());
    }

    #[test]
    fn typed_record_fingerprints_like_its_rendering() {
        use dear_observe::{EventKind, LogicalTag};
        use std::rc::Rc;

        let tag = LogicalTag {
            time: Instant::from_millis(10),
            microstep: 1,
        };
        let name: Rc<str> = Rc::from("ctrl/apply");

        // The legacy string path...
        let mut legacy = Trace::new();
        legacy.record(tag.time, "reaction", format!("{name} at {tag}"));
        legacy.record(
            tag.time,
            "stp-violation",
            format!("action {name} requested {tag} but current is {tag}"),
        );

        // ...and the typed path must be fingerprint-identical.
        let mut typed = Trace::new();
        typed.record_event(tag.time, "reaction", || EventKind::Reaction {
            name: name.clone(),
            tag,
        });
        typed.record_event(tag.time, "stp-violation", || EventKind::StpViolation {
            name: name.clone(),
            requested: tag,
            current: tag,
        });

        assert_eq!(legacy.fingerprint(), typed.fingerprint());
        assert_eq!(
            typed.iter().next().unwrap().detail_text(),
            format!("{name} at {tag}")
        );
        assert_eq!(
            typed.iter().next().unwrap().kind().unwrap().name(),
            "ctrl/apply"
        );
    }

    #[test]
    fn record_event_skips_construction_when_disabled() {
        let mut t = Trace::disabled();
        t.record_event(Instant::EPOCH, "reaction", || {
            unreachable!("kind built despite disabled trace")
        });
        assert!(t.is_empty());
    }
}
