//! Service fields: get/set methods plus a change-notification event.
//!
//! "Fields are state variables exposed by the server. Each field may
//! provide a get method, a set method and an event that indicates state
//! changes" (paper §II.A). A field is therefore implemented as a
//! composition of two methods and one event — and, on the DEAR side,
//! "interaction with fields requires the use of one event and two method
//! transactors" (§III.B).
//!
//! Test-only: nothing in the case studies offers a field. The tests show
//! a stock field serving both a stock proxy and DEAR field transactors.

use crate::future::SimFuture;
use crate::proxy::{EventBuffer, MethodResult, ServiceProxy};
use crate::skeleton::ServiceSkeleton;
use dear_sim::{LatencyModel, Simulation};
use dear_someip::FrameBuf;
use dear_time::Duration;
use dear_transactors::FieldIds;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Server-side field: owns the value, serves get/set, notifies changes.
#[derive(Clone)]
struct FieldSkeleton {
    skeleton: ServiceSkeleton,
    ids: FieldIds,
    value: Rc<RefCell<FrameBuf>>,
}

impl fmt::Debug for FieldSkeleton {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FieldSkeleton({:?})", self.ids)
    }
}

impl FieldSkeleton {
    /// Attaches a field to a skeleton: registers the get/set methods and
    /// stores the initial value.
    ///
    /// `exec_time` models the server-side processing time of get/set
    /// handling (dispatched through the component's worker pool like any
    /// other method — fields inherit nondeterminism source 1).
    #[must_use]
    fn provide(
        skeleton: &ServiceSkeleton,
        ids: FieldIds,
        initial: impl Into<FrameBuf>,
        exec_time: LatencyModel,
    ) -> Self {
        let value = Rc::new(RefCell::new(initial.into()));

        let v = value.clone();
        skeleton.provide_method(ids.get_method, exec_time.clone(), move |_sim, _req| {
            v.borrow().clone()
        });

        let v = value.clone();
        let notifier = skeleton.clone();
        skeleton.provide_method(ids.set_method, exec_time, move |sim, new_value| {
            *v.borrow_mut() = new_value.clone();
            notifier.notify(sim, ids.eventgroup, ids.notifier_event, new_value.clone());
            new_value
        });

        FieldSkeleton {
            skeleton: skeleton.clone(),
            ids,
            value,
        }
    }

    /// Reads the current value (server-local access; shares, no copy).
    #[must_use]
    fn value(&self) -> FrameBuf {
        self.value.borrow().clone()
    }

    /// Server-side update: stores and notifies subscribers.
    fn update(&self, sim: &mut Simulation, new_value: impl Into<FrameBuf>) {
        let new_value = new_value.into();
        *self.value.borrow_mut() = new_value.clone();
        self.skeleton
            .notify(sim, self.ids.eventgroup, self.ids.notifier_event, new_value);
    }

    /// The field's wire identifiers.
    #[must_use]
    fn ids(&self) -> FieldIds {
        self.ids
    }
}

/// Client-side field access.
#[derive(Clone)]
struct FieldProxy {
    proxy: ServiceProxy,
    ids: FieldIds,
}

impl fmt::Debug for FieldProxy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FieldProxy({:?})", self.ids)
    }
}

impl FieldProxy {
    /// Wraps a service proxy for field access.
    #[must_use]
    fn new(proxy: ServiceProxy, ids: FieldIds) -> Self {
        FieldProxy { proxy, ids }
    }

    /// Calls the field getter.
    fn get(&self, sim: &mut Simulation) -> SimFuture<MethodResult> {
        self.proxy.call(sim, self.ids.get_method, FrameBuf::new())
    }

    /// Calls the field setter.
    fn set(&self, sim: &mut Simulation, value: impl Into<FrameBuf>) -> SimFuture<MethodResult> {
        self.proxy.call(sim, self.ids.set_method, value)
    }

    /// Subscribes to change notifications into a one-slot buffer.
    #[must_use]
    fn subscribe_updates(&self) -> EventBuffer {
        self.proxy
            .subscribe_buffered(self.ids.eventgroup, self.ids.notifier_event)
    }
}

/// Default TTL used by examples and tests when offering field services.
const DEFAULT_FIELD_TTL: Duration = Duration::from_secs(3600);

mod tests {
    use super::*;
    use crate::swc::{SoftwareComponent, SwcConfig};
    use dear_core::{ProgramBuilder, Runtime};
    use dear_sim::{LinkConfig, NetworkHandle, NodeId, VirtualClock};
    use dear_someip::{Binding, SdRegistry};
    use dear_time::Instant;
    use dear_transactors::{DearConfig, FederatedPlatform, FieldClientTransactor, Outbox};
    use std::sync::{Arc, Mutex};

    fn world() -> (Simulation, NetworkHandle, SdRegistry) {
        let sim = Simulation::new(0);
        let net = NetworkHandle::new(
            LinkConfig::ideal(Duration::from_micros(100)),
            sim.fork_rng("net"),
        );
        (sim, net, SdRegistry::new())
    }

    #[test]
    fn field_get_set_notify_roundtrip() {
        let (mut sim, net, sd) = world();
        let server = SoftwareComponent::launch(
            &sim,
            &net,
            &sd,
            SwcConfig::single_threaded("server", NodeId(1), 0x10),
        );
        let skel = server.skeleton(&sim, 0x42, 1);
        let ids = FieldIds::conventional(0x100);
        let field = FieldSkeleton::provide(
            &skel,
            ids,
            vec![0],
            LatencyModel::constant(Duration::from_micros(50)),
        );
        skel.offer(&mut sim, DEFAULT_FIELD_TTL);

        let client = SoftwareComponent::launch(
            &sim,
            &net,
            &sd,
            SwcConfig::single_threaded("client", NodeId(2), 0x20),
        );
        let fp = FieldProxy::new(client.proxy(0x42, 1), ids);
        let updates = fp.subscribe_updates();

        let got = Rc::new(RefCell::new(Vec::new()));
        let sink = got.clone();
        fp.set(&mut sim, vec![9]).then(&mut sim, move |_s, r| {
            sink.borrow_mut().push(("set", r.unwrap().to_vec()));
        });
        sim.run_to_completion();
        assert_eq!(field.value(), vec![9]);
        assert_eq!(
            updates.take().map(|f| f.to_vec()),
            Some(vec![9]),
            "notifier fired"
        );

        let sink = got.clone();
        fp.get(&mut sim).then(&mut sim, move |_s, r| {
            sink.borrow_mut().push(("get", r.unwrap().to_vec()));
        });
        sim.run_to_completion();
        assert_eq!(*got.borrow(), vec![("set", vec![9]), ("get", vec![9])]);
    }

    #[test]
    fn server_side_update_notifies_without_set() {
        let (mut sim, net, sd) = world();
        let server = SoftwareComponent::launch(
            &sim,
            &net,
            &sd,
            SwcConfig::single_threaded("server", NodeId(1), 0x10),
        );
        let skel = server.skeleton(&sim, 0x42, 1);
        let ids = FieldIds::conventional(0x200);
        let field =
            FieldSkeleton::provide(&skel, ids, vec![1], LatencyModel::constant(Duration::ZERO));
        skel.offer(&mut sim, DEFAULT_FIELD_TTL);
        let client = SoftwareComponent::launch(
            &sim,
            &net,
            &sd,
            SwcConfig::single_threaded("client", NodeId(2), 0x20),
        );
        let fp = FieldProxy::new(client.proxy(0x42, 1), ids);
        let updates = fp.subscribe_updates();
        field.update(&mut sim, vec![5]);
        sim.run_to_completion();
        assert_eq!(updates.take().map(|f| f.to_vec()), Some(vec![5]));
        assert_eq!(field.ids(), ids);
    }

    #[test]
    fn ara_field_roundtrip_over_simulated_network() {
        let mut sim = Simulation::new(5);
        let net = NetworkHandle::new(
            LinkConfig::ideal(Duration::from_micros(200)),
            sim.fork_rng("net"),
        );
        let sd = SdRegistry::new();
        let server = SoftwareComponent::launch(
            &sim,
            &net,
            &sd,
            SwcConfig::single_threaded("server", NodeId(1), 0x10),
        );
        let skel = server.skeleton(&sim, 0x99, 1);
        let ids = FieldIds::conventional(0x10);
        let field = FieldSkeleton::provide(
            &skel,
            ids,
            vec![0],
            LatencyModel::constant(Duration::from_micros(100)),
        );
        skel.offer(&mut sim, Duration::from_secs(100));

        let client = SoftwareComponent::launch(
            &sim,
            &net,
            &sd,
            SwcConfig::single_threaded("client", NodeId(2), 0x20),
        );
        let fp = FieldProxy::new(client.proxy(0x99, 1), ids);
        let updates = fp.subscribe_updates();
        let got = Rc::new(RefCell::new(Vec::new()));
        let sink = got.clone();
        fp.set(&mut sim, vec![42]).then(&mut sim, move |_sim, r| {
            sink.borrow_mut().push(r.expect("set succeeds").to_vec());
        });
        sim.run_to_completion();
        assert_eq!(*got.borrow(), vec![vec![42]]);
        assert_eq!(field.value(), vec![42]);
        assert_eq!(updates.take().map(|f| f.to_vec()), Some(vec![42]));
    }

    #[test]
    fn dear_field_transactors_bridge_reactors_to_ara_fields() {
        // A reactor-based client manipulates a field served by a plain ARA
        // component — the paper's gradual-migration story.
        let mut sim = Simulation::new(7);
        let net = NetworkHandle::new(
            LinkConfig::ideal(Duration::from_micros(200)),
            sim.fork_rng("net"),
        );
        let sd = SdRegistry::new();
        let cfg = DearConfig::new(Duration::from_millis(2), Duration::ZERO).accept_untagged();
        let ids = FieldIds::conventional(0x20);
        const SERVICE: u16 = 0x77;

        // Plain ARA field server (no tags — legacy component).
        let server = SoftwareComponent::launch(
            &sim,
            &net,
            &sd,
            SwcConfig::single_threaded("legacy-server", NodeId(1), 0x10),
        );
        let skel = server.skeleton(&sim, SERVICE, 1);
        let _field = FieldSkeleton::provide(
            &skel,
            ids,
            vec![1],
            LatencyModel::constant(Duration::from_micros(50)),
        );
        skel.offer(&mut sim, Duration::from_secs(100));

        // Reactor-based client through field transactors.
        let got: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
        let outbox = Outbox::new();
        let mut b = ProgramBuilder::new();
        let fct =
            FieldClientTransactor::declare(&mut b, &outbox, "speed", Duration::from_millis(1));
        {
            let mut logic = b.reactor("client_logic", ());
            let set_req = logic.output::<FrameBuf>("set");
            let t = logic.timer("fire", Duration::from_millis(5), None);
            logic
                .reaction("write_field")
                .triggered_by(t)
                .effects(set_req)
                .body(move |_, ctx| ctx.set(set_req, vec![99].into()));
            let sink = got.clone();
            logic
                .reaction("on_set_reply")
                .triggered_by(fct.set.response)
                .body(move |_, ctx| {
                    sink.lock()
                        .unwrap()
                        .push(ctx.get(fct.set.response).unwrap().to_vec());
                });
            logic.finish();
            b.connect(set_req, fct.set.request).unwrap();
        }
        let platform = FederatedPlatform::new(
            "client",
            Runtime::new(b.build().expect("program builds")),
            VirtualClock::ideal(),
            outbox,
            sim.fork_rng("costs"),
        );
        let binding = Binding::new(&net, &sd, NodeId(2), 0x20);
        fct.bind(&platform, &binding, SERVICE, 1, ids, cfg);
        platform.start(&mut sim);

        sim.run_until(Instant::from_millis(100));
        assert_eq!(
            *got.lock().unwrap(),
            vec![vec![99]],
            "set reply must reach the reactor client"
        );
    }
}
