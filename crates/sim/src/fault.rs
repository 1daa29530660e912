//! Deterministic fault injection: seeded, logical-time-scheduled link
//! degradation campaigns.
//!
//! The paper's determinism claim is only interesting if it survives the
//! cases the platform is actually built for — messages that arrive late,
//! out of order, or not at all (§IV.B discusses exactly these STP
//! violations). A [`FaultPlan`] makes failure itself a deterministic,
//! replayable scenario: a campaign of loss bursts, latency spikes, link
//! kills/heals and partitions, each pinned to a virtual instant and
//! applied to the simulated [`Network`](crate::NetworkHandle) through
//! one-shot calendar events. Two runs with the same seed and the same
//! plan produce byte-identical fault sequences — every application is
//! recorded in the simulation [`Trace`](crate::Trace) — so a failover
//! test can assert on exact tags rather than sleeping and hoping.
//!
//! Plans are built either explicitly (each event spelled out) or
//! generated from a [`SimRng`] stream with [`FaultPlan::randomized`],
//! which is how a property test sweeps fault shapes without giving up
//! reproducibility: the campaign is a pure function of `(seed, labels)`.
//!
//! # Examples
//!
//! ```
//! use dear_sim::{FaultPlan, LinkConfig, NetworkHandle, NodeId, Simulation};
//! use dear_time::{Duration, Instant};
//!
//! let mut sim = Simulation::new(3);
//! let net = NetworkHandle::new(LinkConfig::default(), sim.fork_rng("net"));
//!
//! let mut plan = FaultPlan::new();
//! plan.kill_link(Instant::from_millis(10), NodeId(1), NodeId(2));
//! plan.heal_link(Instant::from_millis(30), NodeId(1), NodeId(2));
//! plan.apply(&mut sim, &net);
//!
//! sim.run_until(Instant::from_millis(20));
//! assert!(!net.link_is_up(NodeId(1), NodeId(2)));
//! sim.run_until(Instant::from_millis(40));
//! assert!(net.link_is_up(NodeId(1), NodeId(2)));
//! ```

use crate::net::{NetworkHandle, NodeId};
use crate::rng::{LatencyModel, SimRng};
use crate::sim::Simulation;
use dear_time::{Duration, Instant};
use std::fmt;

/// One kind of link degradation a [`FaultPlan`] can schedule.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FaultAction {
    /// Overrides the link's loss probability with `probability` for
    /// `duration`, then restores the configured value.
    LossBurst {
        /// Drop probability during the burst.
        probability: f64,
        /// How long the burst lasts.
        duration: Duration,
    },
    /// Overrides the link's latency model with `model` for `duration`,
    /// then restores the configured model. The *assumed* bound `L`
    /// reported by `latency_bound` is untouched, so a spike beyond it
    /// surfaces upstream as observable STP violations.
    LatencySpike {
        /// Latency model during the spike.
        model: LatencyModel,
        /// How long the spike lasts.
        duration: Duration,
    },
    /// Takes the link down until a matching [`FaultAction::LinkUp`].
    LinkDown,
    /// Brings a downed link back up.
    LinkUp,
    /// Crashes a whole node (the event's `src`; `dst` is ignored): its
    /// sends are swallowed until a matching [`FaultAction::NodeRestore`],
    /// and every [`NetworkHandle::on_node_event`] observer fires — which
    /// is how a recovery harness drives a platform's crash/recover cycle
    /// from a seeded plan.
    NodeCrash,
    /// Restores a crashed node (the event's `src`; `dst` is ignored).
    NodeRestore,
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultAction::LossBurst {
                probability,
                duration,
            } => write!(f, "loss-burst p={probability} for {duration}"),
            FaultAction::LatencySpike { duration, .. } => {
                write!(f, "latency-spike for {duration}")
            }
            FaultAction::LinkDown => f.write_str("link-down"),
            FaultAction::LinkUp => f.write_str("link-up"),
            FaultAction::NodeCrash => f.write_str("node-crash"),
            FaultAction::NodeRestore => f.write_str("node-restore"),
        }
    }
}

/// One scheduled fault: an action applied to a directed link at a
/// virtual instant.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the fault strikes (true simulation time).
    pub(crate) at: Instant,
    /// Sending side of the affected directed link.
    pub(crate) src: NodeId,
    /// Receiving side of the affected directed link.
    pub(crate) dst: NodeId,
    /// What happens to the link.
    pub(crate) action: FaultAction,
}

/// A deterministic campaign of link faults.
///
/// The plan is inert data until [`FaultPlan::apply`] schedules its
/// events on a simulation; applying the same plan to the same seeded
/// simulation replays the identical fault sequence.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an arbitrary fault event.
    pub fn push(&mut self, event: FaultEvent) -> &mut Self {
        self.events.push(event);
        self
    }

    /// Schedules a loss burst on the directed link `src -> dst`.
    ///
    /// # Panics
    ///
    /// Panics if `probability` is outside `[0, 1]`.
    pub fn loss_burst(
        &mut self,
        at: Instant,
        src: NodeId,
        dst: NodeId,
        probability: f64,
        duration: Duration,
    ) -> &mut Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "probability out of range"
        );
        self.push(FaultEvent {
            at,
            src,
            dst,
            action: FaultAction::LossBurst {
                probability,
                duration,
            },
        })
    }

    /// Schedules a latency spike on the directed link `src -> dst`: its
    /// frames sample `model` instead of the configured one for `duration`.
    pub fn latency_spike(
        &mut self,
        at: Instant,
        src: NodeId,
        dst: NodeId,
        model: LatencyModel,
        duration: Duration,
    ) -> &mut Self {
        self.push(FaultEvent {
            at,
            src,
            dst,
            action: FaultAction::LatencySpike { model, duration },
        })
    }

    /// Schedules a permanent kill of the directed link `src -> dst`
    /// (until an explicit [`FaultPlan::heal_link`]).
    pub fn kill_link(&mut self, at: Instant, src: NodeId, dst: NodeId) -> &mut Self {
        self.push(FaultEvent {
            at,
            src,
            dst,
            action: FaultAction::LinkDown,
        })
    }

    /// Schedules a heal of the directed link `src -> dst`.
    pub fn heal_link(&mut self, at: Instant, src: NodeId, dst: NodeId) -> &mut Self {
        self.push(FaultEvent {
            at,
            src,
            dst,
            action: FaultAction::LinkUp,
        })
    }

    /// Schedules a crash of a whole node (until an explicit
    /// [`FaultPlan::restore_node`]).
    pub fn crash_node(&mut self, at: Instant, node: NodeId) -> &mut Self {
        self.push(FaultEvent {
            at,
            src: node,
            dst: node,
            action: FaultAction::NodeCrash,
        })
    }

    /// Schedules the restoration of a crashed node.
    pub fn restore_node(&mut self, at: Instant, node: NodeId) -> &mut Self {
        self.push(FaultEvent {
            at,
            src: node,
            dst: node,
            action: FaultAction::NodeRestore,
        })
    }

    /// Schedules a symmetric partition between `a` and `b`: both
    /// directions go down at `at` and heal after `duration`.
    #[cfg(test)]
    pub(crate) fn partition(
        &mut self,
        at: Instant,
        a: NodeId,
        b: NodeId,
        duration: Duration,
    ) -> &mut Self {
        self.kill_link(at, a, b);
        self.kill_link(at, b, a);
        self.heal_link(at + duration, a, b);
        self.heal_link(at + duration, b, a)
    }

    /// Generates a seed-driven campaign: `count` faults on the given
    /// directed links, uniformly spread over `(0, horizon)`, drawn from
    /// the full action repertoire (loss bursts, latency spikes and
    /// bounded partitions).
    ///
    /// The plan is a pure function of the RNG stream, so forking the
    /// simulation's master seed (`sim.fork_rng("faults")`) makes the
    /// campaign part of the experiment's `(seed, parameters)` identity.
    ///
    /// # Panics
    ///
    /// Panics if `links` is empty or `horizon` is not positive.
    #[must_use]
    pub fn randomized(
        rng: &mut SimRng,
        links: &[(NodeId, NodeId)],
        horizon: Duration,
        count: usize,
    ) -> Self {
        assert!(!links.is_empty(), "randomized plan needs links");
        assert!(horizon > Duration::ZERO, "horizon must be positive");
        let mut plan = FaultPlan::new();
        for _ in 0..count {
            let (src, dst) = links[rng.next_usize_below(links.len())];
            let at = Instant::EPOCH + rng.uniform_duration(Duration::from_nanos(1), horizon);
            // Fault durations are short relative to the horizon so that
            // campaigns overlap rather than serialize.
            let duration = rng.uniform_duration(horizon / 100, horizon / 10);
            match rng.next_u64_below(3) {
                0 => {
                    let p = 0.1 + 0.9 * rng.next_f64();
                    plan.loss_burst(at, src, dst, p, duration);
                }
                1 => {
                    let base = rng.uniform_duration(horizon / 1000, horizon / 100);
                    plan.latency_spike(
                        at,
                        src,
                        dst,
                        LatencyModel::uniform(base, base * 4),
                        duration,
                    );
                }
                _ => {
                    plan.kill_link(at, src, dst);
                    plan.heal_link(at + duration, src, dst);
                }
            }
        }
        plan
    }

    /// The scheduled fault events, in insertion order.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled fault events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules no faults.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Schedules every fault of the plan on `sim`, targeting `net`.
    ///
    /// Each application (and each restoration at the end of a bounded
    /// fault) is recorded in the simulation trace under the `"fault"`
    /// category, so trace fingerprints cover the fault sequence itself.
    ///
    /// # Panics
    ///
    /// Panics if any event lies in the simulation's past.
    pub fn apply(&self, sim: &mut Simulation, net: &NetworkHandle) {
        for event in &self.events {
            let net = net.clone();
            let (src, dst, action) = (event.src, event.dst, event.action.clone());
            sim.schedule_at(event.at, move |sim| {
                // Node faults concern one node, not a directed link.
                if matches!(action, FaultAction::NodeCrash | FaultAction::NodeRestore) {
                    sim.trace_with("fault", || format!("{src} {action}"));
                } else {
                    sim.trace_with("fault", || format!("{src}->{dst} {action}"));
                }
                match action {
                    FaultAction::LossBurst {
                        probability,
                        duration,
                    } => {
                        net.set_drop_override(src, dst, Some(probability));
                        let net = net.clone();
                        sim.schedule_in(duration, move |sim| {
                            sim.trace_with("fault", || format!("{src}->{dst} loss-burst cleared"));
                            net.set_drop_override(src, dst, None);
                        });
                    }
                    FaultAction::LatencySpike { model, duration } => {
                        net.set_latency_override(src, dst, Some(model));
                        let net = net.clone();
                        sim.schedule_in(duration, move |sim| {
                            sim.trace_with("fault", || {
                                format!("{src}->{dst} latency-spike cleared")
                            });
                            net.set_latency_override(src, dst, None);
                        });
                    }
                    FaultAction::LinkDown => net.set_link_up(src, dst, false),
                    FaultAction::LinkUp => net.set_link_up(src, dst, true),
                    FaultAction::NodeCrash => net.set_node_up(sim, src, false),
                    FaultAction::NodeRestore => net.set_node_up(sim, src, true),
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{Frame, LinkConfig};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn frame(src: u16, dst: u16, byte: u8) -> Frame {
        Frame {
            src: NodeId(src),
            dst: NodeId(dst),
            payload: vec![byte].into(),
        }
    }

    #[test]
    fn partition_downs_and_heals_both_directions() {
        let mut sim = Simulation::new(0);
        let net = NetworkHandle::new(
            LinkConfig::ideal(Duration::from_micros(1)),
            sim.fork_rng("net"),
        );
        let mut plan = FaultPlan::new();
        plan.partition(
            Instant::from_millis(5),
            NodeId(1),
            NodeId(2),
            Duration::from_millis(10),
        );
        assert_eq!(plan.len(), 4);
        plan.apply(&mut sim, &net);
        sim.run_until(Instant::from_millis(6));
        assert!(!net.link_is_up(NodeId(1), NodeId(2)));
        assert!(!net.link_is_up(NodeId(2), NodeId(1)));
        sim.run_until(Instant::from_millis(16));
        assert!(net.link_is_up(NodeId(1), NodeId(2)));
        assert!(net.link_is_up(NodeId(2), NodeId(1)));
    }

    #[test]
    fn loss_burst_restores_configured_probability() {
        let mut sim = Simulation::new(1);
        let net = NetworkHandle::new(
            LinkConfig::ideal(Duration::from_micros(1)),
            sim.fork_rng("net"),
        );
        let count = Rc::new(RefCell::new(0u32));
        let sink = count.clone();
        net.set_receiver(NodeId(2), move |_, _| *sink.borrow_mut() += 1);
        let mut plan = FaultPlan::new();
        plan.loss_burst(
            Instant::from_millis(1),
            NodeId(1),
            NodeId(2),
            1.0,
            Duration::from_millis(2),
        );
        plan.apply(&mut sim, &net);
        // During the burst: everything lost.
        sim.run_until(Instant::from_millis(2));
        net.send(&mut sim, frame(1, 2, 0));
        sim.run_until(Instant::from_millis(4));
        assert_eq!(*count.borrow(), 0);
        // After the burst: the configured lossless link is back.
        net.send(&mut sim, frame(1, 2, 1));
        sim.run_to_completion();
        assert_eq!(*count.borrow(), 1);
        assert_eq!(net.stats().dropped, 1);
    }

    #[test]
    fn applications_are_recorded_in_the_trace() {
        let mut sim = Simulation::new(0);
        sim.enable_tracing();
        let net = NetworkHandle::new(LinkConfig::default(), sim.fork_rng("net"));
        let mut plan = FaultPlan::new();
        plan.loss_burst(
            Instant::from_millis(1),
            NodeId(1),
            NodeId(2),
            0.5,
            Duration::from_millis(1),
        );
        plan.kill_link(Instant::from_millis(3), NodeId(1), NodeId(2));
        plan.apply(&mut sim, &net);
        sim.run_to_completion();
        let faults = sim
            .trace_log()
            .events_in("fault")
            .map(crate::trace::TraceEvent::detail_text)
            .collect::<Vec<_>>();
        assert_eq!(
            faults,
            vec![
                "node1->node2 loss-burst p=0.5 for 1ms".to_string(),
                "node1->node2 loss-burst cleared".to_string(),
                "node1->node2 link-down".to_string(),
            ]
        );
    }

    #[test]
    fn node_crash_fires_observers_and_is_traced() {
        let mut sim = Simulation::new(0);
        sim.enable_tracing();
        let net = NetworkHandle::new(
            LinkConfig::ideal(Duration::from_micros(1)),
            sim.fork_rng("net"),
        );
        let events = Rc::new(RefCell::new(Vec::new()));
        let sink = events.clone();
        net.on_node_event(move |sim, node, up| sink.borrow_mut().push((sim.now(), node, up)));
        let mut plan = FaultPlan::new();
        plan.crash_node(Instant::from_millis(2), NodeId(3));
        plan.restore_node(Instant::from_millis(9), NodeId(3));
        plan.apply(&mut sim, &net);
        sim.run_until(Instant::from_millis(5));
        assert!(!net.node_is_up(NodeId(3)));
        sim.run_to_completion();
        assert!(net.node_is_up(NodeId(3)));
        assert_eq!(
            *events.borrow(),
            vec![
                (Instant::from_millis(2), NodeId(3), false),
                (Instant::from_millis(9), NodeId(3), true),
            ]
        );
        let faults = sim
            .trace_log()
            .events_in("fault")
            .map(crate::trace::TraceEvent::detail_text)
            .collect::<Vec<_>>();
        assert_eq!(
            faults,
            vec![
                "node3 node-crash".to_string(),
                "node3 node-restore".to_string()
            ]
        );
    }

    #[test]
    fn randomized_plans_are_reproducible() {
        let links = [(NodeId(1), NodeId(2)), (NodeId(2), NodeId(3))];
        let mut a = SimRng::seed_from_u64(7).fork("faults");
        let mut b = SimRng::seed_from_u64(7).fork("faults");
        let pa = FaultPlan::randomized(&mut a, &links, Duration::from_secs(1), 20);
        let pb = FaultPlan::randomized(&mut b, &links, Duration::from_secs(1), 20);
        assert_eq!(pa, pb);
        assert_eq!(pa.len(), pa.events().len());
        assert!(!pa.is_empty());
        let mut c = SimRng::seed_from_u64(8).fork("faults");
        let pc = FaultPlan::randomized(&mut c, &links, Duration::from_secs(1), 20);
        assert_ne!(pa, pc, "different seeds should differ");
    }
}
