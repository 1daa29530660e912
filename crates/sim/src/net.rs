//! Simulated network: nodes, links, latency, loss, and (re)ordering.
//!
//! The paper's evaluation platform is two boards connected through an
//! Ethernet switch; message transport time is one of the three identified
//! nondeterminism sources ("the time required for message transport is
//! still unpredictable", §II.B). [`Network`] models point-to-point links
//! with a configurable [`LatencyModel`], optional FIFO enforcement
//! (in-order delivery, which AP does *not* formally require), and optional
//! frame loss.
//!
//! Frames are raw byte payloads addressed by [`NodeId`]; the SOME/IP crate
//! layers its wire format on top.

use crate::frame::FrameBuf;
use crate::rng::{LatencyModel, SimRng};
use crate::sim::{Component, Simulation};
use crate::slots::Slots;
use dear_time::{Duration, Instant};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

/// Identifies a node (platform/ECU) on the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A raw frame in flight on the network.
///
/// The payload is a [`FrameBuf`] view: queuing, fan-out and delivery
/// never copy the bytes, and the backing buffer returns to its pool once
/// the receiver is done with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Opaque payload (the SOME/IP layer serializes into this).
    pub payload: FrameBuf,
}

/// Configuration of a directed link between two nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkConfig {
    /// Per-frame transport latency distribution.
    pub(crate) latency: LatencyModel,
    /// If `true`, frames on this link never overtake each other.
    ///
    /// AP does not formally require in-order delivery (nondeterminism
    /// source 3); set to `false` to model reordering transports.
    pub(crate) fifo: bool,
    /// Probability that a frame is silently dropped.
    pub(crate) drop_probability: f64,
}

impl LinkConfig {
    /// An ideal link: constant latency, FIFO, no loss.
    #[must_use]
    pub fn ideal(latency: Duration) -> Self {
        LinkConfig {
            latency: LatencyModel::constant(latency),
            fifo: true,
            drop_probability: 0.0,
        }
    }

    /// A link with the given latency model, FIFO, no loss.
    #[must_use]
    pub fn with_latency(latency: LatencyModel) -> Self {
        LinkConfig {
            latency,
            fifo: true,
            drop_probability: 0.0,
        }
    }

    /// Disables FIFO ordering on this link (frames may overtake).
    #[must_use]
    pub fn reordering(mut self) -> Self {
        self.fifo = false;
        self
    }

    /// Sets the drop probability.
    #[must_use]
    pub fn with_drop_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.drop_probability = p;
        self
    }
}

impl Default for LinkConfig {
    /// Default: 100 µs constant latency, FIFO, lossless (a quiet switched
    /// LAN segment).
    fn default() -> Self {
        LinkConfig::ideal(Duration::from_micros(100))
    }
}

/// Delivery statistics for a network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Frames submitted for transmission.
    pub sent: u64,
    /// Frames delivered to a registered receiver.
    pub delivered: u64,
    /// Frames dropped by loss models (including fault-injected loss
    /// bursts).
    pub dropped: u64,
    /// Frames addressed to a node with no registered receiver.
    pub unroutable: u64,
    /// Frames dropped because their link was down (killed or partitioned
    /// by a fault plan).
    pub faulted: u64,
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sent={} delivered={} dropped={} unroutable={} faulted={}",
            self.sent, self.delivered, self.dropped, self.unroutable, self.faulted
        )
    }
}

type Receiver = Rc<dyn Fn(&mut Simulation, Frame)>;
type NodeObserver = Rc<dyn Fn(&mut Simulation, NodeId, bool)>;

struct LinkState {
    config: LinkConfig,
    /// Earliest time the next FIFO delivery may occur.
    next_free: Instant,
    /// Whether the link currently carries frames at all. Killed links
    /// drop everything (counted in [`NetStats::faulted`]) until healed.
    up: bool,
    /// Fault-injected loss override; when set it replaces the configured
    /// drop probability without touching the base configuration.
    drop_override: Option<f64>,
    /// Fault-injected latency override (e.g. a congestion spike). The
    /// configured model — and therefore [`NetworkHandle::latency_bound`],
    /// the *assumed* bound `L` — is untouched, which is exactly how a
    /// spike beyond the engineered bound surfaces as observable STP
    /// violations upstream.
    latency_override: Option<LatencyModel>,
}

impl LinkState {
    fn new(config: LinkConfig) -> Self {
        LinkState {
            config,
            next_free: Instant::EPOCH,
            up: true,
            drop_override: None,
            latency_override: None,
        }
    }
}

/// The simulated network fabric.
///
/// Usually accessed through the cheap-to-clone [`NetworkHandle`], which can
/// be captured by simulation event closures.
pub(crate) struct Network {
    default_link: LinkConfig,
    // BTreeMap rather than HashMap so that no observable behaviour (and no
    // future iteration over links or receivers) can ever depend on hasher
    // state — the same hardening applied to `dear-someip` and the
    // transactor platform tables.
    links: BTreeMap<(NodeId, NodeId), LinkState>,
    receivers: BTreeMap<NodeId, Receiver>,
    /// Nodes whose whole ECU is down (see [`NetworkHandle::set_node_up`]):
    /// frames *from* them are swallowed like a downed link's. Frames *to*
    /// them still deliver — a crashed federate's durable log keeps
    /// accepting inputs while the runtime is dead, which is what makes
    /// crash recovery replay byte-identical.
    downed_nodes: BTreeSet<NodeId>,
    /// Observers of node up/down transitions, so higher layers (e.g. a
    /// federation recovery harness) can react to a `FaultPlan`'s node
    /// crashes without the sim crate knowing about them.
    node_observers: Vec<NodeObserver>,
    /// Frames between send and delivery; a delivery event's token is its
    /// frame's slot.
    in_flight: Slots<Frame>,
    /// `(simulation id, component key)` once the network has registered
    /// with a simulation (at its first send there).
    key: Option<(u64, u32)>,
    rng: SimRng,
    stats: NetStats,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("links", &self.links.len())
            .field("receivers", &self.receivers.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Network {
    /// Creates a network whose unspecified links use `default_link`.
    ///
    /// The RNG stream should be forked from the simulation master seed,
    /// e.g. `sim.fork_rng("network")`.
    #[must_use]
    pub(crate) fn new(default_link: LinkConfig, rng: SimRng) -> Self {
        Network {
            default_link,
            links: BTreeMap::new(),
            receivers: BTreeMap::new(),
            downed_nodes: BTreeSet::new(),
            node_observers: Vec::new(),
            in_flight: Slots::default(),
            key: None,
            rng,
            stats: NetStats::default(),
        }
    }

    fn link_state(&mut self, src: NodeId, dst: NodeId) -> &mut LinkState {
        let default = &self.default_link;
        self.links
            .entry((src, dst))
            .or_insert_with(|| LinkState::new(default.clone()))
    }
}

/// A delivery event: the token is the slot of the frame in flight.
impl Component for RefCell<Network> {
    fn fire(self: Rc<Self>, sim: &mut Simulation, slot: u32) {
        let frame = self.borrow_mut().in_flight.remove(slot);
        NetworkHandle(self).deliver(sim, frame);
    }
}

/// A shared, clonable handle to the simulated network.
///
/// # Examples
///
/// ```
/// use dear_sim::{Frame, LinkConfig, NetworkHandle, NodeId, Simulation};
/// use dear_time::Duration;
/// use std::cell::RefCell;
/// use std::rc::Rc;
///
/// let mut sim = Simulation::new(1);
/// let net = NetworkHandle::new(LinkConfig::ideal(Duration::from_micros(100)), sim.fork_rng("net"));
///
/// let got = Rc::new(RefCell::new(Vec::new()));
/// let sink = got.clone();
/// net.set_receiver(NodeId(2), move |_sim, frame| {
///     sink.borrow_mut().push(frame.payload);
/// });
///
/// net.send(&mut sim, Frame { src: NodeId(1), dst: NodeId(2), payload: vec![0xAB].into() });
/// sim.run_to_completion();
/// assert_eq!(*got.borrow(), vec![vec![0xAB]]);
/// ```
#[derive(Clone)]
pub struct NetworkHandle(Rc<RefCell<Network>>);

impl fmt::Debug for NetworkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.borrow().fmt(f)
    }
}

impl NetworkHandle {
    /// Creates a new network behind a shared handle.
    #[must_use]
    pub fn new(default_link: LinkConfig, rng: SimRng) -> Self {
        NetworkHandle(Rc::new(RefCell::new(Network::new(default_link, rng))))
    }

    /// Configures the directed link `src -> dst`.
    pub fn configure_link(&self, src: NodeId, dst: NodeId, config: LinkConfig) {
        self.0
            .borrow_mut()
            .links
            .insert((src, dst), LinkState::new(config));
    }

    /// Registers the frame receiver for a node, replacing any previous one.
    pub fn set_receiver(&self, node: NodeId, receiver: impl Fn(&mut Simulation, Frame) + 'static) {
        self.0
            .borrow_mut()
            .receivers
            .insert(node, Rc::new(receiver));
    }

    /// Submits a frame for transmission at the current simulation time.
    ///
    /// Latency is sampled from the link's model; FIFO links additionally
    /// guarantee that this frame is delivered strictly after any frame
    /// previously sent on the same link.
    pub fn send(&self, sim: &mut Simulation, frame: Frame) {
        let (at, slot, key) = {
            let mut guard = self.0.borrow_mut();
            let net = &mut *guard;
            net.stats.sent += 1;
            // A downed node or link swallows the frame before any latency
            // or loss sampling, so killing either perturbs no other RNG
            // draws. Only the *sender* being down matters here: frames to
            // a downed node still travel (its durable inbox is alive).
            if net.downed_nodes.contains(&frame.src) {
                net.stats.faulted += 1;
                return;
            }
            // The one link lookup of the send (fields borrowed apart, so
            // the RNG and the counters stay usable alongside it).
            let default = &net.default_link;
            let state = net
                .links
                .entry((frame.src, frame.dst))
                .or_insert_with(|| LinkState::new(default.clone()));
            if !state.up {
                net.stats.faulted += 1;
                return;
            }
            // Latency first, then the drop draw. Fault overrides
            // substitute for the configured models; the base configuration
            // (and the assumed bound `L`) stays intact.
            let latency = state
                .latency_override
                .as_ref()
                .unwrap_or(&state.config.latency)
                .sample(&mut net.rng);
            let drop_p = state.drop_override.unwrap_or(state.config.drop_probability);
            if drop_p > 0.0 && net.rng.chance(drop_p) {
                net.stats.dropped += 1;
                return;
            }
            let mut at = sim.now() + latency;
            if state.config.fifo {
                at = at.max(state.next_free);
                state.next_free = at + Duration::from_nanos(1);
            }
            let key = match net.key {
                Some((id, key)) if id == sim.id() => Some(key),
                _ => None,
            };
            (at, net.in_flight.insert(frame), key)
        };
        let key = key.unwrap_or_else(|| self.register_in(sim));
        sim.schedule_fire(at, key, slot);
    }

    /// Registers the network as a component of `sim` (at its first
    /// delivery there) and returns its key.
    fn register_in(&self, sim: &mut Simulation) -> u32 {
        let key = sim.register_component(self.0.clone());
        self.0.borrow_mut().key = Some((sim.id(), key));
        key
    }

    fn deliver(&self, sim: &mut Simulation, frame: Frame) {
        // Clone the receiver out so the network is not borrowed while the
        // receiver runs (receivers commonly send further frames).
        let receiver = {
            let mut net = self.0.borrow_mut();
            let receiver = net.receivers.get(&frame.dst).cloned();
            match receiver {
                Some(_) => net.stats.delivered += 1,
                None => net.stats.unroutable += 1,
            }
            receiver
        };
        if let Some(r) = receiver {
            r(sim, frame);
        }
    }

    /// Current delivery statistics.
    #[must_use]
    pub fn stats(&self) -> NetStats {
        self.0.borrow().stats
    }

    /// The worst-case latency bound of the `src -> dst` link (the paper's
    /// `L` for that hop). Unconfigured links report the default bound.
    ///
    /// Fault overrides are deliberately ignored: this is the *assumed*
    /// engineering bound, and a fault plan that pushes real latencies
    /// beyond it is exactly how STP violations are provoked.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn latency_bound(&self, src: NodeId, dst: NodeId) -> Duration {
        let net = self.0.borrow();
        net.links
            .get(&(src, dst))
            .map(|l| l.config.latency.upper_bound())
            .unwrap_or_else(|| net.default_link.latency.upper_bound())
    }

    // --- Fault-injection controls (used by `FaultPlan`) -------------------

    /// Takes the directed link `src -> dst` down (`up = false`) or brings
    /// it back (`up = true`). Frames sent on a downed link are dropped and
    /// counted in [`NetStats::faulted`].
    pub(crate) fn set_link_up(&self, src: NodeId, dst: NodeId, up: bool) {
        self.0.borrow_mut().link_state(src, dst).up = up;
    }

    /// Whether the directed link `src -> dst` currently carries frames.
    #[must_use]
    pub fn link_is_up(&self, src: NodeId, dst: NodeId) -> bool {
        self.0.borrow().links.get(&(src, dst)).is_none_or(|l| l.up)
    }

    /// Installs (`Some`) or clears (`None`) a loss-probability override on
    /// the directed link `src -> dst`. While set, it replaces the
    /// configured drop probability.
    pub(crate) fn set_drop_override(&self, src: NodeId, dst: NodeId, p: Option<f64>) {
        if let Some(p) = p {
            assert!((0.0..=1.0).contains(&p), "probability out of range");
        }
        self.0.borrow_mut().link_state(src, dst).drop_override = p;
    }

    /// Installs (`Some`) or clears (`None`) a latency-model override on
    /// the directed link `src -> dst`. While set, it replaces the
    /// configured model for sampling; [`NetworkHandle::latency_bound`]
    /// keeps reporting the configured bound.
    pub(crate) fn set_latency_override(
        &self,
        src: NodeId,
        dst: NodeId,
        model: Option<LatencyModel>,
    ) {
        self.0.borrow_mut().link_state(src, dst).latency_override = model;
    }

    /// Takes a whole node down (`up = false`) or brings it back
    /// (`up = true`), notifying every [`NetworkHandle::on_node_event`]
    /// observer on an actual transition. While down, frames *sent by*
    /// the node are swallowed (counted in [`NetStats::faulted`]); frames
    /// *addressed to* it still deliver, because the receiving stack's
    /// durable inbox outlives its runtime — the registered receiver
    /// decides what a dead node does with an arrival.
    pub(crate) fn set_node_up(&self, sim: &mut Simulation, node: NodeId, up: bool) {
        let observers = {
            let mut net = self.0.borrow_mut();
            let changed = if up {
                net.downed_nodes.remove(&node)
            } else {
                net.downed_nodes.insert(node)
            };
            if !changed {
                return;
            }
            net.node_observers.clone()
        };
        for observer in observers {
            observer(sim, node, up);
        }
    }

    /// Whether the node is currently up (nodes start up).
    #[must_use]
    #[cfg(test)]
    pub(crate) fn node_is_up(&self, node: NodeId) -> bool {
        !self.0.borrow().downed_nodes.contains(&node)
    }

    /// Registers an observer of node up/down transitions (all observers
    /// run, in registration order, on every actual transition). This is
    /// how a recovery harness hooks a `FaultPlan`'s node crashes to
    /// platform-level crash/recover drivers without a layering inversion.
    pub fn on_node_event(&self, observer: impl Fn(&mut Simulation, NodeId, bool) + 'static) {
        self.0.borrow_mut().node_observers.push(Rc::new(observer));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn delivers_after_constant_latency() {
        let mut sim = Simulation::new(0);
        let net = NetworkHandle::new(
            LinkConfig::ideal(Duration::from_millis(5)),
            sim.fork_rng("net"),
        );
        let at = Rc::new(RefCell::new(None));
        let sink = at.clone();
        net.set_receiver(NodeId(2), move |sim, _| {
            *sink.borrow_mut() = Some(sim.now());
        });
        net.send(&mut sim, frame(1, 2, 7));
        sim.run_to_completion();
        assert_eq!(*at.borrow(), Some(Instant::from_millis(5)));
        let stats = net.stats();
        assert_eq!((stats.sent, stats.delivered), (1, 1));
    }

    #[test]
    fn a_burst_leaves_at_most_one_chunk_in_flight() {
        let mut sim = Simulation::new(0);
        let net = NetworkHandle::new(
            LinkConfig::ideal(Duration::from_micros(100)),
            sim.fork_rng("net"),
        );
        let count = Rc::new(RefCell::new(0u32));
        let sink = count.clone();
        net.set_receiver(NodeId(2), move |_, _| *sink.borrow_mut() += 1);
        for i in 0..10_000u32 {
            net.send(&mut sim, frame(1, 2, i as u8));
        }
        assert_eq!(net.0.borrow().in_flight.len(), 10_000);
        assert!(net.0.borrow().in_flight.chunks() > 100);
        sim.run_to_completion();
        assert_eq!(*count.borrow(), 10_000);
        let net = net.0.borrow();
        assert_eq!(net.in_flight.len(), 0);
        assert!(net.in_flight.chunks() <= 1, "the burst's chunks were freed");
    }

    #[test]
    fn fifo_link_preserves_order_despite_jitter() {
        let mut sim = Simulation::new(3);
        let net = NetworkHandle::new(
            LinkConfig::with_latency(LatencyModel::uniform(
                Duration::from_micros(10),
                Duration::from_millis(10),
            )),
            sim.fork_rng("net"),
        );
        let order = Rc::new(RefCell::new(Vec::new()));
        let sink = order.clone();
        net.set_receiver(NodeId(2), move |_, f| sink.borrow_mut().push(f.payload[0]));
        for i in 0..50u8 {
            net.send(&mut sim, frame(1, 2, i));
        }
        sim.run_to_completion();
        assert_eq!(*order.borrow(), (0..50).collect::<Vec<u8>>());
    }

    #[test]
    fn reordering_link_can_reorder() {
        let mut sim = Simulation::new(3);
        let net = NetworkHandle::new(
            LinkConfig::with_latency(LatencyModel::uniform(
                Duration::from_micros(10),
                Duration::from_millis(10),
            ))
            .reordering(),
            sim.fork_rng("net"),
        );
        let order = Rc::new(RefCell::new(Vec::new()));
        let sink = order.clone();
        net.set_receiver(NodeId(2), move |_, f| sink.borrow_mut().push(f.payload[0]));
        for i in 0..50u8 {
            net.send(&mut sim, frame(1, 2, i));
        }
        sim.run_to_completion();
        let received = order.borrow().clone();
        assert_eq!(received.len(), 50);
        assert_ne!(
            received,
            (0..50).collect::<Vec<u8>>(),
            "expected reordering"
        );
    }

    #[test]
    fn lossy_link_drops_frames() {
        let mut sim = Simulation::new(5);
        let net = NetworkHandle::new(
            LinkConfig::ideal(Duration::from_micros(1)).with_drop_probability(0.5),
            sim.fork_rng("net"),
        );
        let count = Rc::new(RefCell::new(0u32));
        let sink = count.clone();
        net.set_receiver(NodeId(2), move |_, _| *sink.borrow_mut() += 1);
        for i in 0..200u8 {
            net.send(&mut sim, frame(1, 2, i));
        }
        sim.run_to_completion();
        let delivered = *count.borrow();
        assert!(delivered > 50 && delivered < 150, "delivered {delivered}");
        let stats = net.stats();
        assert_eq!(stats.sent, 200);
        assert_eq!(stats.delivered + stats.dropped, 200);
    }

    #[test]
    fn unroutable_frames_are_counted() {
        let mut sim = Simulation::new(0);
        let net = NetworkHandle::new(LinkConfig::default(), sim.fork_rng("net"));
        net.send(&mut sim, frame(1, 9, 0));
        sim.run_to_completion();
        assert_eq!(net.stats().unroutable, 1);
    }

    #[test]
    fn per_link_configuration_overrides_default() {
        let mut sim = Simulation::new(0);
        let net = NetworkHandle::new(
            LinkConfig::ideal(Duration::from_millis(100)),
            sim.fork_rng("net"),
        );
        net.configure_link(
            NodeId(1),
            NodeId(2),
            LinkConfig::ideal(Duration::from_millis(1)),
        );
        let at = Rc::new(RefCell::new(Vec::new()));
        let sink = at.clone();
        net.set_receiver(NodeId(2), move |sim, _| sink.borrow_mut().push(sim.now()));
        let sink = at.clone();
        net.set_receiver(NodeId(3), move |sim, _| sink.borrow_mut().push(sim.now()));
        net.send(&mut sim, frame(1, 2, 0)); // fast configured link
        net.send(&mut sim, frame(1, 3, 0)); // default slow link
        sim.run_to_completion();
        assert_eq!(
            *at.borrow(),
            vec![Instant::from_millis(1), Instant::from_millis(100)]
        );
        assert_eq!(
            net.latency_bound(NodeId(1), NodeId(2)),
            Duration::from_millis(1)
        );
        assert_eq!(
            net.latency_bound(NodeId(1), NodeId(3)),
            Duration::from_millis(100)
        );
    }

    #[test]
    fn receivers_can_send_replies() {
        let mut sim = Simulation::new(0);
        let net = NetworkHandle::new(
            LinkConfig::ideal(Duration::from_millis(1)),
            sim.fork_rng("net"),
        );
        let reply_net = net.clone();
        net.set_receiver(NodeId(2), move |sim, f| {
            reply_net.send(
                sim,
                Frame {
                    src: f.dst,
                    dst: f.src,
                    payload: vec![f.payload[0] + 1].into(),
                },
            );
        });
        let got = Rc::new(RefCell::new(None));
        let sink = got.clone();
        net.set_receiver(NodeId(1), move |sim, f| {
            *sink.borrow_mut() = Some((sim.now(), f.payload[0]));
        });
        net.send(&mut sim, frame(1, 2, 10));
        sim.run_to_completion();
        assert_eq!(*got.borrow(), Some((Instant::from_millis(2), 11)));
    }

    #[test]
    fn downed_link_drops_until_healed() {
        let mut sim = Simulation::new(0);
        let net = NetworkHandle::new(
            LinkConfig::ideal(Duration::from_micros(1)),
            sim.fork_rng("net"),
        );
        let count = Rc::new(RefCell::new(0u32));
        let sink = count.clone();
        net.set_receiver(NodeId(2), move |_, _| *sink.borrow_mut() += 1);
        assert!(net.link_is_up(NodeId(1), NodeId(2)));
        net.set_link_up(NodeId(1), NodeId(2), false);
        assert!(!net.link_is_up(NodeId(1), NodeId(2)));
        net.send(&mut sim, frame(1, 2, 0));
        net.send(&mut sim, frame(1, 2, 1));
        sim.run_to_completion();
        assert_eq!(*count.borrow(), 0);
        assert_eq!(net.stats().faulted, 2);
        net.set_link_up(NodeId(1), NodeId(2), true);
        net.send(&mut sim, frame(1, 2, 2));
        sim.run_to_completion();
        assert_eq!(*count.borrow(), 1);
        // The reverse direction was never touched.
        assert!(net.link_is_up(NodeId(2), NodeId(1)));
    }

    #[test]
    fn downed_node_blocks_sends_but_not_arrivals() {
        let mut sim = Simulation::new(0);
        let net = NetworkHandle::new(
            LinkConfig::ideal(Duration::from_micros(1)),
            sim.fork_rng("net"),
        );
        let hits = Rc::new(RefCell::new(Vec::new()));
        for node in [1u16, 2] {
            let sink = hits.clone();
            net.set_receiver(NodeId(node), move |_, f| {
                sink.borrow_mut().push((f.dst, f.payload[0]));
            });
        }
        let events = Rc::new(RefCell::new(Vec::new()));
        let sink = events.clone();
        net.on_node_event(move |_, node, up| sink.borrow_mut().push((node, up)));

        assert!(net.node_is_up(NodeId(2)));
        net.set_node_up(&mut sim, NodeId(2), false);
        net.set_node_up(&mut sim, NodeId(2), false); // no transition, no event
        assert!(!net.node_is_up(NodeId(2)));
        net.send(&mut sim, frame(2, 1, 10)); // from the dead node: swallowed
        net.send(&mut sim, frame(1, 2, 20)); // to the dead node: delivered
        sim.run_to_completion();
        assert_eq!(*hits.borrow(), vec![(NodeId(2), 20)]);
        assert_eq!(net.stats().faulted, 1);

        net.set_node_up(&mut sim, NodeId(2), true);
        net.send(&mut sim, frame(2, 1, 30));
        sim.run_to_completion();
        assert_eq!(hits.borrow().last(), Some(&(NodeId(1), 30)));
        assert_eq!(
            *events.borrow(),
            vec![(NodeId(2), false), (NodeId(2), true)]
        );
    }

    #[test]
    fn drop_and_latency_overrides_apply_and_clear() {
        let mut sim = Simulation::new(9);
        let net = NetworkHandle::new(
            LinkConfig::ideal(Duration::from_millis(1)),
            sim.fork_rng("net"),
        );
        let hits = Rc::new(RefCell::new(Vec::new()));
        let sink = hits.clone();
        net.set_receiver(NodeId(2), move |sim, f| {
            sink.borrow_mut().push((sim.now(), f.payload[0]));
        });
        // Total loss while the override is set.
        net.set_drop_override(NodeId(1), NodeId(2), Some(1.0));
        net.send(&mut sim, frame(1, 2, 0));
        sim.run_to_completion();
        assert!(hits.borrow().is_empty());
        assert_eq!(net.stats().dropped, 1);
        // Cleared: back to the configured lossless constant-latency link.
        net.set_drop_override(NodeId(1), NodeId(2), None);
        // A latency spike does not move the assumed bound.
        net.set_latency_override(
            NodeId(1),
            NodeId(2),
            Some(LatencyModel::constant(Duration::from_millis(50))),
        );
        assert_eq!(
            net.latency_bound(NodeId(1), NodeId(2)),
            Duration::from_millis(1)
        );
        let t0 = sim.now();
        net.send(&mut sim, frame(1, 2, 1));
        sim.run_to_completion();
        assert_eq!(hits.borrow()[0], (t0 + Duration::from_millis(50), 1));
        net.set_latency_override(NodeId(1), NodeId(2), None);
        let t1 = sim.now();
        net.send(&mut sim, frame(1, 2, 2));
        sim.run_to_completion();
        assert_eq!(hits.borrow()[1], (t1 + Duration::from_millis(1), 2));
    }

    #[test]
    fn same_seed_same_delivery_schedule() {
        fn run(seed: u64) -> Vec<u8> {
            let mut sim = Simulation::new(seed);
            let net = NetworkHandle::new(
                LinkConfig::with_latency(LatencyModel::uniform(
                    Duration::from_micros(10),
                    Duration::from_millis(20),
                ))
                .reordering(),
                sim.fork_rng("net"),
            );
            let order = Rc::new(RefCell::new(Vec::new()));
            let sink = order.clone();
            net.set_receiver(NodeId(2), move |_, f| sink.borrow_mut().push(f.payload[0]));
            for i in 0..30u8 {
                net.send(&mut sim, frame(1, 2, i));
            }
            sim.run_to_completion();
            let v = order.borrow().clone();
            v
        }
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}
