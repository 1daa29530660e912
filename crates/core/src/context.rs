//! The context handed to reaction bodies.
//!
//! A [`ReactionCtx`] is the only way a reaction interacts with the rest of
//! the program: reading input ports, writing output ports, reading action
//! payloads, scheduling logical actions, and requesting shutdown. All
//! writes and schedules are *buffered* in the reaction's own
//! [`ReactionOutcome`] and committed by the runtime as soon as the
//! reaction returns; reactions run one at a time, in reaction-id order
//! within an APG level, so the commit order is deterministic.
//!
//! A write lands in the reaction's staging slot for that port: a box
//! holding an `Option<T>` that is allocated on the first write and reused
//! after. The runtime commits it by swapping it with the port's slot, so
//! the staging slot gets back the port's emptied box and a steady-state
//! write allocates nothing.

use crate::handles::{ActionId, LogicalAction, PhysicalAction, Port, PortId};
use crate::program::{ActionMeta, PortMeta, Value};
use crate::tag::Tag;
use dear_arena::TypedArena;
use dear_time::{Duration, Instant};
use std::collections::BTreeMap;

/// A port's value slot, or a reaction's staging slot for one of its
/// effects.
#[derive(Default)]
pub(crate) struct PortSlot {
    /// The box, once the first value was written through this slot.
    pub(crate) value: Option<Value>,
    /// Whether `value` holds a value written at the current tag (for a
    /// staging slot: by the current execution).
    pub(crate) written: bool,
}

/// An action's value at the current tag, its values pending at later
/// tags and, for a physical action, its emptied slots.
#[derive(Default)]
pub(crate) struct ActionSlots {
    pub(crate) current: Option<Value>,
    pub(crate) pending: BTreeMap<Tag, Value>,
    pub(crate) free: Vec<Value>,
}

/// The buffered effects of one reaction, kept per reaction and reused by
/// each of its executions.
#[derive(Default)]
pub(crate) struct ReactionOutcome {
    /// One staging slot per entry of the reaction's `effects`: the `Vec`
    /// is sized by the reaction's first write, each box made by the
    /// first write to its port.
    pub(crate) slots: Vec<PortSlot>,
    /// Scheduled action events `(action, tag, value)`.
    pub(crate) schedules: Vec<(ActionId, Tag, Value)>,
}

/// Read access to an action's payload; implemented by both
/// [`LogicalAction`] and [`PhysicalAction`].
///
/// This trait is sealed.
pub trait ActionSource<T>: sealed::Sealed {
    /// The untyped action id.
    fn action_id(&self) -> ActionId;
}

mod sealed {
    pub trait Sealed {}
    impl<T> Sealed for super::LogicalAction<T> {}
    impl<T> Sealed for super::PhysicalAction<T> {}
}

impl<T> ActionSource<T> for LogicalAction<T> {
    fn action_id(&self) -> ActionId {
        self.id
    }
}
impl<T> ActionSource<T> for PhysicalAction<T> {
    fn action_id(&self) -> ActionId {
        self.id
    }
}

/// Execution context passed to reaction bodies and deadline handlers.
///
/// See the [`ProgramBuilder`](crate::ProgramBuilder) example for typical
/// usage inside a reaction closure.
pub struct ReactionCtx<'a> {
    pub(crate) tag: Tag,
    pub(crate) physical: Instant,
    /// The running reaction's qualified name and sorted access lists.
    pub(crate) name: &'a str,
    pub(crate) readable: &'a [PortId],
    pub(crate) effects: &'a [PortId],
    pub(crate) schedules: &'a [ActionId],
    pub(crate) port_meta: &'a TypedArena<PortId, PortMeta>,
    pub(crate) action_meta: &'a TypedArena<ActionId, ActionMeta>,
    pub(crate) ports: &'a TypedArena<PortId, PortSlot>,
    pub(crate) actions: &'a TypedArena<ActionId, ActionSlots>,
    pub(crate) outcome: &'a mut ReactionOutcome,
    /// Whether the reaction requested shutdown.
    pub(crate) shutdown: bool,
}

impl std::fmt::Debug for ReactionCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactionCtx")
            .field("tag", &self.tag)
            .field("physical", &self.physical)
            .field("reaction", &self.name)
            .finish()
    }
}

impl<'a> ReactionCtx<'a> {
    /// The tag currently being processed.
    #[must_use]
    pub fn tag(&self) -> Tag {
        self.tag
    }

    /// The logical time of the current tag.
    #[must_use]
    pub fn logical_time(&self) -> Instant {
        self.tag.time
    }

    /// The physical clock reading the runtime observed when it began
    /// processing the current tag.
    #[must_use]
    pub fn physical_time(&self) -> Instant {
        self.physical
    }

    /// How far physical time is ahead of logical time at this tag.
    #[must_use]
    pub fn lag(&self) -> Duration {
        self.tag.lag(self.physical)
    }

    fn assert_readable(&self, port: PortId, what: &str) {
        assert!(
            self.readable.binary_search(&port).is_ok(),
            "reaction `{}` reads port `{}` without declaring it as a trigger or use ({what})",
            self.name,
            self.port_meta[port].name,
        );
    }

    /// Reads an input or output port. Returns `None` if the port is absent
    /// at the current tag.
    ///
    /// # Panics
    ///
    /// Panics if the port was not declared as a trigger, use or effect of
    /// this reaction — undeclared reads would invalidate the dependency
    /// analysis that determinism rests on.
    #[must_use]
    pub fn get<T: 'static>(&self, port: Port<T>) -> Option<&T> {
        self.assert_readable(port.id, "get");
        let root = self.port_meta[port.id].root;
        // A reaction may read back what it wrote itself this tag.
        let staged = match self.effects.binary_search(&root) {
            Ok(i) => self.outcome.slots.get(i).filter(|s| s.written),
            Err(_) => None,
        };
        let slot = staged.unwrap_or(&self.ports[root]);
        slot.value.as_ref().filter(|_| slot.written).and_then(|v| {
            v.downcast_ref::<Option<T>>()
                .expect("port value type mismatch")
                .as_ref()
        })
    }

    /// Writes a value to an output port.
    ///
    /// The value becomes visible to downstream reactions at the current
    /// tag. Writing the same port twice in one reaction keeps the last
    /// value.
    ///
    /// # Panics
    ///
    /// Panics if the port was not declared as an effect of this reaction.
    pub fn set<T: 'static>(&mut self, port: Port<T>, value: T) {
        let Ok(i) = self.effects.binary_search(&port.id) else {
            panic!(
                "reaction `{}` writes port `{}` without declaring it as an effect",
                self.name, self.port_meta[port.id].name,
            );
        };
        let slots = &mut self.outcome.slots;
        if slots.is_empty() {
            slots.resize_with(self.effects.len(), PortSlot::default);
        }
        let slot = &mut slots[i];
        match &mut slot.value {
            Some(v) => {
                *v.downcast_mut::<Option<T>>()
                    .expect("port value type mismatch") = Some(value);
            }
            empty => *empty = Some(Box::new(Some(value))),
        }
        slot.written = true;
    }

    /// Reads the payload of an action that triggered at the current tag.
    ///
    /// Returns `None` if the action is not present at this tag.
    #[must_use]
    pub fn get_action<T: 'static>(&self, action: &impl ActionSource<T>) -> Option<&T> {
        self.actions[action.action_id()]
            .current
            .as_ref()
            .and_then(|v| {
                v.downcast_ref::<Option<T>>()
                    .expect("action value type mismatch")
                    .as_ref()
            })
    }

    /// Schedules a logical action with an additional delay on top of the
    /// action's minimum delay.
    ///
    /// The resulting event's tag is `current_tag.delay(min_delay + delay)`:
    /// a total delay of zero advances the microstep, a positive delay
    /// advances logical time. Determinism is preserved because the new tag
    /// is derived from the current tag, not from any clock.
    ///
    /// # Panics
    ///
    /// Panics if the action was not declared via
    /// [`schedules`](crate::ReactionDeclaration::schedules), or if `delay`
    /// is negative.
    pub fn schedule<T: 'static>(&mut self, action: LogicalAction<T>, delay: Duration, value: T) {
        assert!(!delay.is_negative(), "schedule delay must be non-negative");
        assert!(
            self.schedules.binary_search(&action.id).is_ok(),
            "reaction `{}` schedules action `{}` without declaring it",
            self.name,
            self.action_meta[action.id].name,
        );
        let min_delay = self.action_meta[action.id].min_delay;
        let tag = self.tag.delay(min_delay + delay);
        self.outcome
            .schedules
            .push((action.id, tag, Box::new(Some(value))));
    }

    /// Requests a graceful shutdown: shutdown reactions run at the next
    /// microstep and the runtime stops afterwards.
    pub fn request_shutdown(&mut self) {
        self.shutdown = true;
    }
}
