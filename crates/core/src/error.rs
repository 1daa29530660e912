//! Error types for program assembly and runtime operation.

use crate::handles::PortId;
use crate::tag::Tag;
use std::error::Error;
use std::fmt;

/// Errors detected while assembling a reactor program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssemblyError {
    /// A connection was attempted from a non-output port.
    SourceNotOutput {
        /// The offending port.
        port: PortId,
        /// Its name, for diagnostics.
        name: String,
    },
    /// A connection was attempted to a non-input port.
    TargetNotInput {
        /// The offending port.
        port: PortId,
        /// Its name, for diagnostics.
        name: String,
    },
    /// An input port was connected to more than one source.
    MultipleSources {
        /// The over-connected input port.
        port: PortId,
        /// Its name, for diagnostics.
        name: String,
    },
    /// The program's dependency graph has a zero-delay cycle.
    ///
    /// The reactor model requires an *acyclic* precedence graph; a cycle
    /// means some reactions can never be ordered. The payload lists the
    /// names of the reactions on the cycle.
    DependencyCycle(Vec<String>),
    /// A connection would link a port to itself.
    SelfLoop {
        /// The port connected to itself.
        port: PortId,
        /// Its name, for diagnostics.
        name: String,
    },
    /// Two reactors were declared with the same name.
    ///
    /// Element names are qualified as `reactor.element`; duplicate reactor
    /// names would alias those qualified names (and the replay traces
    /// built from them), so `build()` rejects them.
    DuplicateReactor {
        /// The name declared twice.
        name: String,
    },
    /// Two elements of the same kind share a qualified name.
    DuplicateElement {
        /// What was duplicated (`"port"`, `"action"`, `"timer"`, `"reaction"`).
        kind: &'static str,
        /// The qualified name (`reactor.element`) declared twice.
        name: String,
    },
    /// A connection referenced a port handle this builder never minted
    /// (e.g. a handle from a different `ProgramBuilder`).
    UnknownPort {
        /// The foreign handle's id.
        port: PortId,
    },
    /// A reaction referenced a trigger / use / effect / schedule handle
    /// this builder never minted.
    UnknownHandle {
        /// The qualified name of the offending reaction.
        reaction: String,
        /// A rendering of the foreign handle (e.g. `port7`).
        handle: String,
    },
}

impl fmt::Display for AssemblyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssemblyError::SourceNotOutput { name, .. } => {
                write!(f, "connection source `{name}` is not an output port")
            }
            AssemblyError::TargetNotInput { name, .. } => {
                write!(f, "connection target `{name}` is not an input port")
            }
            AssemblyError::MultipleSources { name, .. } => {
                write!(f, "input port `{name}` already has a source connection")
            }
            AssemblyError::DependencyCycle(names) => {
                write!(
                    f,
                    "zero-delay dependency cycle through: {}",
                    names.join(" -> ")
                )
            }
            AssemblyError::SelfLoop { name, .. } => {
                write!(f, "port `{name}` cannot be connected to itself")
            }
            AssemblyError::DuplicateReactor { name } => {
                write!(f, "reactor `{name}` is declared more than once")
            }
            AssemblyError::DuplicateElement { kind, name } => {
                write!(f, "{kind} `{name}` is declared more than once")
            }
            AssemblyError::UnknownPort { port } => {
                write!(f, "port handle `{port}` was not created by this builder")
            }
            AssemblyError::UnknownHandle { reaction, handle } => {
                write!(
                    f,
                    "reaction `{reaction}` references handle `{handle}` not created by this builder"
                )
            }
        }
    }
}

impl Error for AssemblyError {}

/// Errors raised by runtime operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The runtime was used before `start` or after it stopped.
    NotRunning,
    /// A physical action event was injected with a tag that is not
    /// strictly greater than the last processed tag.
    ///
    /// This is the *observable* safe-to-process (STP) violation of the
    /// paper's §IV.B: when the configured bounds `D + L + E` were too
    /// optimistic, the violation surfaces as an error instead of silently
    /// corrupting the event order.
    StpViolation {
        /// The tag that was requested.
        requested: Tag,
        /// The runtime's current logical tag.
        current: Tag,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::NotRunning => write!(f, "runtime is not running"),
            RuntimeError::StpViolation { requested, current } => write!(
                f,
                "safe-to-process violation: requested tag {requested} is not after current tag {current}"
            ),
        }
    }
}

impl Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = AssemblyError::DependencyCycle(vec!["a.r0".into(), "b.r1".into()]);
        assert_eq!(
            e.to_string(),
            "zero-delay dependency cycle through: a.r0 -> b.r1"
        );
        let e = RuntimeError::StpViolation {
            requested: Tag::ORIGIN,
            current: Tag::ORIGIN,
        };
        assert!(e.to_string().contains("safe-to-process violation"));
        assert_eq!(
            RuntimeError::NotRunning.to_string(),
            "runtime is not running"
        );
    }

    #[test]
    fn errors_implement_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<AssemblyError>();
        assert_err::<RuntimeError>();
    }
}
