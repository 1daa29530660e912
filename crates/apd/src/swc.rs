//! Software components.
//!
//! An AP application is organized in software components (SWCs); "each
//! individual SWC can be considered a full program as it is mapped to a
//! process on the target platform during deployment" (paper §II.A). A
//! [`SoftwareComponent`] bundles the process's middleware binding and its
//! worker-thread pool. The periodic OS callbacks the APD brake assistant
//! is built on ("each SWC sets up a periodic callback so that the OS
//! triggers the SWC logic every 50 ms", §IV.A) are scheduled by
//! `nondet`, with the jitter those experiments need.

use crate::proxy::ServiceProxy;
use crate::skeleton::ServiceSkeleton;
use dear_sim::{LatencyModel, NetworkHandle, NodeId, Simulation, TaskPool};
use dear_someip::{Binding, SdRegistry};
use dear_time::Duration;
use std::fmt;
use std::rc::Rc;

/// Configuration for launching a software component.
#[derive(Debug, Clone)]
pub(crate) struct SwcConfig {
    /// Component name (diagnostics and traces).
    pub(crate) name: String,
    /// The platform node the component's process runs on.
    pub(crate) node: NodeId,
    /// SOME/IP client id used by the component's binding.
    pub(crate) client_id: u16,
    /// Worker threads in the component's request-dispatch pool.
    ///
    /// AP maps each incoming method invocation to a thread by default
    /// (nondeterminism source 1); set to `1` with zero jitter for the
    /// "single thread" workaround the paper mentions.
    pub(crate) workers: usize,
    /// Scheduling delay model for dispatched work items.
    pub(crate) dispatch_jitter: LatencyModel,
}

impl SwcConfig {
    /// A conventional multi-threaded component: 4 workers, up to 200 µs of
    /// dispatch jitter.
    #[must_use]
    pub(crate) fn multi_threaded(name: &str, node: NodeId, client_id: u16) -> Self {
        SwcConfig {
            name: name.into(),
            node,
            client_id,
            workers: 4,
            dispatch_jitter: LatencyModel::uniform(Duration::ZERO, Duration::from_micros(200)),
        }
    }

    /// A single-threaded component with deterministic (zero-jitter) FIFO
    /// dispatch.
    #[must_use]
    pub(crate) fn single_threaded(name: &str, node: NodeId, client_id: u16) -> Self {
        SwcConfig {
            name: name.into(),
            node,
            client_id,
            workers: 1,
            dispatch_jitter: LatencyModel::constant(Duration::ZERO),
        }
    }
}

/// A software component: one AP process with its binding and thread pool.
///
/// Cheap to clone; clones share the underlying process.
#[derive(Clone)]
pub(crate) struct SoftwareComponent {
    name: Rc<str>,
    node: NodeId,
    binding: Binding,
    pool: TaskPool,
}

impl fmt::Debug for SoftwareComponent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SoftwareComponent")
            .field("name", &self.name)
            .field("node", &self.node)
            .finish()
    }
}

impl SoftwareComponent {
    /// Launches a component on the given network/discovery domain.
    #[must_use]
    pub(crate) fn launch(
        sim: &Simulation,
        net: &NetworkHandle,
        sd: &SdRegistry,
        config: SwcConfig,
    ) -> Self {
        let pool = TaskPool::new(
            config.workers,
            config.dispatch_jitter.clone(),
            sim.fork_rng(&format!("swc-pool:{}", config.name)),
        );
        let binding = Binding::new(net, sd, config.node, config.client_id);
        SoftwareComponent {
            name: config.name.into(),
            node: config.node,
            binding,
            pool,
        }
    }

    /// Creates a client-side proxy for a service.
    #[must_use]
    pub(crate) fn proxy(&self, service: u16, instance: u16) -> ServiceProxy {
        ServiceProxy::new(self.binding.clone(), service, instance)
    }

    /// Creates a server-side skeleton for a service this component
    /// provides.
    #[must_use]
    pub(crate) fn skeleton(
        &self,
        sim: &Simulation,
        service: u16,
        instance: u16,
    ) -> ServiceSkeleton {
        ServiceSkeleton::new(
            self.binding.clone(),
            self.pool.clone(),
            sim.fork_rng(&format!("skeleton:{}:{service:04x}", self.name)),
            service,
            instance,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dear_sim::LinkConfig;
    use dear_time::Instant;
    use std::cell::{Cell, RefCell};

    /// Cancels a periodic task when dropped or explicitly.
    #[derive(Debug, Clone, Default)]
    struct PeriodicHandle(Rc<Cell<bool>>);

    impl PeriodicHandle {
        /// Stops future activations.
        fn cancel(&self) {
            self.0.set(true);
        }

        /// Whether the task was cancelled.
        #[must_use]
        fn is_cancelled(&self) -> bool {
            self.0.get()
        }
    }

    /// Launches software components and schedules their periodic callbacks.
    #[derive(Debug, Default)]
    struct ExecutionManager {
        swcs: Vec<SoftwareComponent>,
    }

    impl ExecutionManager {
        /// Creates an empty execution manager.
        #[must_use]
        fn new() -> Self {
            Self::default()
        }

        /// Launches and registers a component.
        fn launch(
            &mut self,
            sim: &Simulation,
            net: &NetworkHandle,
            sd: &SdRegistry,
            config: SwcConfig,
        ) -> SoftwareComponent {
            let swc = SoftwareComponent::launch(sim, net, sd, config);
            self.swcs.push(swc.clone());
            swc
        }

        /// The launched components.
        #[must_use]
        fn components(&self) -> &[SoftwareComponent] {
            &self.swcs
        }

        /// Schedules `callback` every `period`, first at `offset` from now.
        ///
        /// This is the OS-level periodic trigger of the APD design. The phase
        /// `offset` "depends on when SWCs are started and is difficult to
        /// control" (§IV.A) — experiment harnesses randomize it per instance.
        fn schedule_periodic(
            sim: &mut Simulation,
            offset: Duration,
            period: Duration,
            callback: impl FnMut(&mut Simulation) + 'static,
        ) -> PeriodicHandle {
            assert!(period > Duration::ZERO, "period must be positive");
            let handle = PeriodicHandle::default();
            let h = handle.clone();
            fn tick(
                sim: &mut Simulation,
                period: Duration,
                mut callback: impl FnMut(&mut Simulation) + 'static,
                h: PeriodicHandle,
            ) {
                if h.is_cancelled() {
                    return;
                }
                callback(sim);
                sim.schedule_in(period, move |sim| tick(sim, period, callback, h));
            }
            sim.schedule_in(offset, move |sim| tick(sim, period, callback, h));
            handle
        }
    }

    fn setup() -> (Simulation, NetworkHandle, SdRegistry) {
        let sim = Simulation::new(0);
        let net = NetworkHandle::new(LinkConfig::default(), sim.fork_rng("net"));
        (sim, net, SdRegistry::new())
    }

    #[test]
    fn periodic_callback_fires_with_offset_and_period() {
        let (mut sim, _net, _sd) = setup();
        let hits = Rc::new(RefCell::new(Vec::new()));
        let sink = hits.clone();
        ExecutionManager::schedule_periodic(
            &mut sim,
            Duration::from_millis(3),
            Duration::from_millis(10),
            move |sim| sink.borrow_mut().push(sim.now()),
        );
        sim.run_until(Instant::from_millis(35));
        assert_eq!(
            *hits.borrow(),
            vec![
                Instant::from_millis(3),
                Instant::from_millis(13),
                Instant::from_millis(23),
                Instant::from_millis(33),
            ]
        );
    }

    #[test]
    fn cancel_stops_periodic_task() {
        let (mut sim, _net, _sd) = setup();
        let hits = Rc::new(RefCell::new(0u32));
        let sink = hits.clone();
        let handle = ExecutionManager::schedule_periodic(
            &mut sim,
            Duration::ZERO,
            Duration::from_millis(10),
            move |_| *sink.borrow_mut() += 1,
        );
        let h = handle.clone();
        sim.schedule_at(Instant::from_millis(25), move |_| h.cancel());
        sim.run_until(Instant::from_millis(100));
        assert_eq!(*hits.borrow(), 3); // 0, 10, 20ms
        assert!(handle.is_cancelled());
    }

    #[test]
    fn launch_registers_components() {
        let (sim, net, sd) = setup();
        let mut em = ExecutionManager::new();
        let a = em.launch(
            &sim,
            &net,
            &sd,
            SwcConfig::multi_threaded("a", NodeId(1), 0x10),
        );
        let _b = em.launch(
            &sim,
            &net,
            &sd,
            SwcConfig::single_threaded("b", NodeId(2), 0x20),
        );
        assert_eq!(em.components().len(), 2);
        assert_eq!(&*a.name, "a");
        assert_eq!(a.node, NodeId(1));
        assert_eq!(a.pool.worker_count(), 4);
        assert_eq!(em.components()[1].pool.worker_count(), 1);
    }
}
