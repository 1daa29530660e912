//! Field transactors.
//!
//! "Since fields are composed of a get method, a set method and an event,
//! interaction with fields requires the use of one event and two method
//! transactors" (paper §III.B). [`FieldClientTransactor`] bundles exactly
//! that composition for the client role, against a field's [`FieldIds`].

use crate::config::{DearConfig, EventSpec, MethodSpec};
use crate::driver::PlatformDriver;
use crate::event::ClientEventTransactor;
use crate::method::ClientMethodTransactor;
use crate::outbox::Outbox;
use crate::stats::TransactorStats;
use dear_core::ProgramBuilder;
use dear_someip::Binding;
use dear_time::Duration;

/// The wire identifiers making up one field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldIds {
    /// Method id of the getter.
    pub get_method: u16,
    /// Method id of the setter.
    pub set_method: u16,
    /// Event id of the change notifier.
    pub notifier_event: u16,
    /// Eventgroup carrying the notifier.
    pub eventgroup: u16,
}

impl FieldIds {
    /// Conventional layout: getter `base`, setter `base+1`, notifier event
    /// `0x8000 | base`, eventgroup `base`.
    #[must_use]
    pub const fn conventional(base: u16) -> Self {
        FieldIds {
            get_method: base,
            set_method: base + 1,
            notifier_event: 0x8000 | base,
            eventgroup: base,
        }
    }
}

/// Client-side field transactor bundle: get + set + update notifications.
#[derive(Debug, Clone, Copy)]
pub struct FieldClientTransactor {
    /// Transactor for the field getter.
    pub(crate) get: ClientMethodTransactor,
    /// Transactor for the field setter.
    pub set: ClientMethodTransactor,
    /// Transactor receiving change notifications.
    pub(crate) updates: ClientEventTransactor,
}

impl FieldClientTransactor {
    /// Declares the three constituent transactors.
    #[must_use]
    pub fn declare(
        b: &mut ProgramBuilder,
        outbox: &Outbox,
        name: &str,
        deadline: Duration,
    ) -> Self {
        FieldClientTransactor {
            get: ClientMethodTransactor::declare(b, outbox, &format!("{name}.get"), deadline),
            set: ClientMethodTransactor::declare(b, outbox, &format!("{name}.set"), deadline),
            updates: ClientEventTransactor::declare(b, &format!("{name}.updates")),
        }
    }

    /// Binds all three transactors against a field's wire identifiers.
    pub fn bind(
        &self,
        platform: &impl PlatformDriver,
        binding: &Binding,
        service: u16,
        instance: u16,
        ids: FieldIds,
        cfg: DearConfig,
    ) -> [TransactorStats; 3] {
        let get_stats = self.get.bind(
            platform,
            binding,
            MethodSpec {
                service,
                instance,
                method: ids.get_method,
            },
            cfg,
        );
        let set_stats = self.set.bind(
            platform,
            binding,
            MethodSpec {
                service,
                instance,
                method: ids.set_method,
            },
            cfg,
        );
        let update_stats = self.updates.bind(
            platform,
            binding,
            EventSpec {
                service,
                instance,
                eventgroup: ids.eventgroup,
                event: ids.notifier_event,
            },
            cfg,
        );
        [get_stats, set_stats, update_stats]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conventional_ids_layout() {
        let ids = FieldIds::conventional(0x30);
        assert_eq!(ids.get_method, 0x30);
        assert_eq!(ids.set_method, 0x31);
        assert_eq!(ids.notifier_event, 0x8030);
        assert_eq!(ids.eventgroup, 0x30);
    }
}
