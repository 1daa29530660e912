//! Typed, copyable handles to the elements of a reactor program.
//!
//! A reactor program is assembled through a builder that returns small
//! `Copy` handles — [`Port`], [`LogicalAction`], [`PhysicalAction`],
//! [`Timer`] — which reaction closures capture to read inputs, write
//! outputs, and schedule events. Handles carry the element's value type as
//! a phantom parameter, so wiring mistakes (connecting ports of different
//! types, scheduling the wrong payload) are compile errors rather than
//! runtime surprises.
//!
//! The untyped ids ([`ReactorId`], [`PortId`], ...) double as
//! [`dear_arena::Key`]s: program storage is a set of
//! [`TypedArena`](dear_arena::TypedArena)s addressed by these ids, so a
//! `PortId` can never index the reaction table.

use std::fmt;
use std::marker::PhantomData;

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// The raw index of this id.
            #[must_use]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl dear_arena::Key for $name {
            fn from_index(index: usize) -> Self {
                $name(u32::try_from(index).expect(concat!("too many ", $prefix, "s")))
            }
            fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_newtype!(
    /// Identifies a reactor instance within a program.
    ReactorId,
    "reactor"
);
id_newtype!(
    /// Identifies a reaction within a program.
    ReactionId,
    "reaction"
);
id_newtype!(
    /// Identifies a port within a program.
    PortId,
    "port"
);
id_newtype!(
    /// Identifies an action within a program.
    ActionId,
    "action"
);
id_newtype!(
    /// Identifies a timer within a program.
    TimerId,
    "timer"
);

/// Whether a port is an input or an output of its reactor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum PortKind {
    /// Receives values via a connection from an output port.
    Input,
    /// Written by reactions; may fan out to several input ports.
    Output,
}

/// A typed handle to a port.
///
/// Obtained from `ReactorBuilder::input` / `ReactorBuilder::output`.
/// Handles are `Copy` and can be freely captured by reaction closures.
pub struct Port<T> {
    pub(crate) id: PortId,
    pub(crate) _marker: PhantomData<fn(T) -> T>,
}

impl<T> Port<T> {
    /// The untyped id of this port.
    #[must_use]
    pub fn id(&self) -> PortId {
        self.id
    }
}

impl<T> Clone for Port<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Port<T> {}
impl<T> fmt::Debug for Port<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Port({})", self.id)
    }
}

/// A typed handle to a logical action.
///
/// Logical actions are scheduled *by reactions* with a logical delay; the
/// resulting event's tag is derived from the current tag, preserving
/// determinism.
pub struct LogicalAction<T> {
    pub(crate) id: ActionId,
    pub(crate) _marker: PhantomData<fn(T) -> T>,
}

impl<T> LogicalAction<T> {
    /// The untyped id of this action.
    #[must_use]
    pub fn id(&self) -> ActionId {
        self.id
    }
}

impl<T> Clone for LogicalAction<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for LogicalAction<T> {}
impl<T> fmt::Debug for LogicalAction<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LogicalAction({})", self.id)
    }
}

/// A typed handle to a physical action.
///
/// Physical actions are scheduled *from outside* the runtime (sporadic
/// sensors, network interrupts). Their tags are derived from the physical
/// clock — they are the explicit, controlled source of nondeterminism that
/// the reactor model admits (§III.A).
pub struct PhysicalAction<T> {
    pub(crate) id: ActionId,
    pub(crate) _marker: PhantomData<fn(T) -> T>,
}

impl<T> PhysicalAction<T> {
    /// The untyped id of this action.
    #[must_use]
    pub fn id(&self) -> ActionId {
        self.id
    }
}

impl<T> Clone for PhysicalAction<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for PhysicalAction<T> {}
impl<T> fmt::Debug for PhysicalAction<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PhysicalAction({})", self.id)
    }
}

/// A handle to a periodic or one-shot timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Timer {
    pub(crate) id: TimerId,
}

impl Timer {
    /// The untyped id of this timer.
    #[must_use]
    pub fn id(&self) -> TimerId {
        self.id
    }
}

/// The startup trigger: fires once at the very first tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Startup;

/// The shutdown trigger: fires once at the final tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Shutdown;

/// An untyped trigger reference used in reaction declarations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TriggerId {
    /// Triggered at startup.
    Startup,
    /// Triggered at shutdown.
    Shutdown,
    /// Triggered when a port becomes present.
    Port(PortId),
    /// Triggered when an action event's tag is processed.
    Action(ActionId),
    /// Triggered when a timer fires.
    Timer(TimerId),
}

/// Anything a reaction can declare as a trigger.
///
/// This trait is sealed; it is implemented for [`Port`], [`LogicalAction`],
/// [`PhysicalAction`], [`Timer`], [`Startup`] and [`Shutdown`].
pub trait TriggerSource: sealed::Sealed {
    /// The untyped trigger this source corresponds to.
    fn trigger_id(&self) -> TriggerId;
}

mod sealed {
    pub trait Sealed {}
    impl<T> Sealed for super::Port<T> {}
    impl<T> Sealed for super::LogicalAction<T> {}
    impl<T> Sealed for super::PhysicalAction<T> {}
    impl Sealed for super::Timer {}
    impl Sealed for super::Startup {}
    impl Sealed for super::Shutdown {}
}

impl<T> TriggerSource for Port<T> {
    fn trigger_id(&self) -> TriggerId {
        TriggerId::Port(self.id)
    }
}
impl<T> TriggerSource for LogicalAction<T> {
    fn trigger_id(&self) -> TriggerId {
        TriggerId::Action(self.id)
    }
}
impl<T> TriggerSource for PhysicalAction<T> {
    fn trigger_id(&self) -> TriggerId {
        TriggerId::Action(self.id)
    }
}
impl TriggerSource for Timer {
    fn trigger_id(&self) -> TriggerId {
        TriggerId::Timer(self.id)
    }
}
impl TriggerSource for Startup {
    fn trigger_id(&self) -> TriggerId {
        TriggerId::Startup
    }
}
impl TriggerSource for Shutdown {
    fn trigger_id(&self) -> TriggerId {
        TriggerId::Shutdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(ReactorId(3).to_string(), "reactor3");
        assert_eq!(PortId(0).to_string(), "port0");
        assert_eq!(ReactionId(1).to_string(), "reaction1");
        assert_eq!(ActionId(2).to_string(), "action2");
        assert_eq!(TimerId(4).to_string(), "timer4");
    }

    #[test]
    fn handles_are_copy_and_comparable() {
        let p = Port::<u32> {
            id: PortId(7),
            _marker: PhantomData,
        };
        let q = p; // Copy
        assert_eq!(p.id(), q.id());
        assert_eq!(format!("{p:?}"), "Port(port7)");
    }

    #[test]
    fn trigger_sources_map_to_ids() {
        let p = Port::<u32> {
            id: PortId(1),
            _marker: PhantomData,
        };
        let a = LogicalAction::<u32> {
            id: ActionId(2),
            _marker: PhantomData,
        };
        let ph = PhysicalAction::<u32> {
            id: ActionId(3),
            _marker: PhantomData,
        };
        let t = Timer { id: TimerId(4) };
        assert_eq!(p.trigger_id(), TriggerId::Port(PortId(1)));
        assert_eq!(a.trigger_id(), TriggerId::Action(ActionId(2)));
        assert_eq!(ph.trigger_id(), TriggerId::Action(ActionId(3)));
        assert_eq!(t.trigger_id(), TriggerId::Timer(TimerId(4)));
        assert_eq!(Startup.trigger_id(), TriggerId::Startup);
        assert_eq!(Shutdown.trigger_id(), TriggerId::Shutdown);
    }
}
