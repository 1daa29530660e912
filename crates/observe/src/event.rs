//! Structured trace events: the typed replacement for free-form detail
//! strings on the recording hot path.
//!
//! A [`EventKind`] carries the *data* of a trace record — the logical tag
//! and interned component names — instead of a pre-formatted `String`.
//! Recording one therefore costs an `Rc` clone and a copy of two
//! integers; the human-readable line (and the fingerprint bytes) are
//! produced on demand by [`EventKind::render`], whose output is
//! byte-identical to the `format!` strings the stack recorded before the
//! typed model existed. That canonical rendering is what keeps every
//! pre-existing `Trace::fingerprint` value stable.

use dear_time::Instant;
use std::fmt;
use std::fmt::Write as _;
use std::rc::Rc;

/// A logical tag `(time, microstep)` as used by the reactor runtime.
///
/// This is a structural twin of the runtime's `Tag` type (which lives
/// above this crate in the dependency graph); its `Display` output is
/// identical, e.g. `(1.000000000s, 2)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LogicalTag {
    /// The time component.
    pub time: Instant,
    /// The microstep component.
    pub microstep: u32,
}

impl LogicalTag {
    /// A tag at the given time, microstep 0.
    #[must_use]
    pub fn at(time: Instant) -> Self {
        LogicalTag { time, microstep: 0 }
    }
}

impl fmt::Display for LogicalTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.time, self.microstep)
    }
}

/// A typed trace record.
///
/// Each variant corresponds to one of the free-form detail lines the
/// stack used to `format!` on the recording path; [`EventKind::render`]
/// reproduces those lines byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A reaction body executed at a tag (`"{name} at {tag}"`).
    Reaction {
        /// Interned reaction name, e.g. `"sensor/sample"`.
        name: Rc<str>,
        /// The tag it executed at.
        tag: LogicalTag,
    },
    /// A deadline handler ran instead of the body (`"{name} at {tag}"`).
    DeadlineMiss {
        /// Interned reaction name.
        name: Rc<str>,
        /// The tag it executed at.
        tag: LogicalTag,
    },
    /// A safe-to-process violation was rejected at injection
    /// (`"action {name} requested {tag} but current is {last}"`).
    StpViolation {
        /// Interned action name.
        name: Rc<str>,
        /// The tag the injection asked for.
        requested: LogicalTag,
        /// The runtime's current tag at rejection time.
        current: LogicalTag,
    },
}

impl EventKind {
    /// Appends the canonical detail line to `out`.
    ///
    /// The output is byte-identical to the legacy `format!` strings, so
    /// fingerprints over rendered details are stable across the
    /// string→typed migration.
    pub fn render(&self, out: &mut String) {
        match self {
            EventKind::Reaction { name, tag } | EventKind::DeadlineMiss { name, tag } => {
                out.push_str(name);
                out.push_str(" at ");
                let _ = write!(out, "{tag}");
            }
            EventKind::StpViolation {
                name,
                requested,
                current,
            } => {
                out.push_str("action ");
                out.push_str(name);
                let _ = write!(out, " requested {requested} but current is {current}");
            }
        }
    }

    /// The component name this record is about.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            EventKind::Reaction { name, .. }
            | EventKind::DeadlineMiss { name, .. }
            | EventKind::StpViolation { name, .. } => name,
        }
    }

    /// The logical tag this record is anchored at.
    #[must_use]
    pub fn tag(&self) -> LogicalTag {
        match self {
            EventKind::Reaction { tag, .. } | EventKind::DeadlineMiss { tag, .. } => *tag,
            EventKind::StpViolation { requested, .. } => *requested,
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.render(&mut s);
        f.write_str(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_tag_display_matches_runtime_tag_format() {
        let t = LogicalTag {
            time: Instant::from_secs(1),
            microstep: 2,
        };
        assert_eq!(t.to_string(), "(1.000000000s, 2)");
        assert_eq!(
            LogicalTag::at(Instant::EPOCH).to_string(),
            "(0.000000000s, 0)"
        );
    }

    #[test]
    fn render_matches_legacy_format_strings() {
        let tag = LogicalTag {
            time: Instant::from_millis(10),
            microstep: 0,
        };
        let name: Rc<str> = Rc::from("ctrl/apply");
        let k = EventKind::Reaction {
            name: name.clone(),
            tag,
        };
        assert_eq!(k.to_string(), format!("{name} at {tag}"));

        let k = EventKind::DeadlineMiss {
            name: name.clone(),
            tag,
        };
        assert_eq!(k.to_string(), format!("{name} at {tag}"));

        let last = LogicalTag {
            time: Instant::from_millis(12),
            microstep: 1,
        };
        let k = EventKind::StpViolation {
            name: name.clone(),
            requested: tag,
            current: last,
        };
        assert_eq!(
            k.to_string(),
            format!("action {name} requested {tag} but current is {last}")
        );
    }

    #[test]
    fn accessors() {
        let tag = LogicalTag::at(Instant::from_secs(3));
        let k = EventKind::Reaction {
            name: Rc::from("r"),
            tag,
        };
        assert_eq!(k.name(), "r");
        assert_eq!(k.tag(), tag);
    }
}
