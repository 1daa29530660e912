//! The network's delivery schedule, pinned as literals: which frames
//! arrive, when, and in what order, plus the [`NetStats`] counters, for
//! three seeds over every link feature at once — default and configured
//! links, jitter (uniform and normal), loss, `.reordering()`, FIFO, link
//! and node down/up, and drop and latency overrides.
//!
//! Every sampled latency and every loss draw comes from one RNG stream,
//! so the schedule is a fingerprint of the draw order inside
//! `NetworkHandle::send`: latency first, then the drop draw, and nothing
//! at all for a frame a downed sender or link swallows. A rewrite of the
//! send path that moves one draw moves these literals.

use dear_sim::{
    FaultPlan, Frame, LatencyModel, LinkConfig, NetStats, NetworkHandle, NodeId, Simulation,
};
use dear_time::{Duration, Instant};
use std::cell::RefCell;
use std::rc::Rc;

/// One delivery: `(arrival ns, src, dst, first payload byte)`.
type Delivery = (u64, u16, u16, u8);

fn us(n: i64) -> Duration {
    Duration::from_micros(n)
}

fn ms(n: i64) -> Duration {
    Duration::from_millis(n)
}

fn at_ms(n: u64) -> Instant {
    Instant::from_millis(n)
}

/// Three nodes exchanging a frame each per millisecond for 50 ms over
/// links of every kind while a fault plan degrades them.
fn schedule(seed: u64) -> (Vec<Delivery>, NetStats) {
    let mut sim = Simulation::new(seed);
    // Default: jittery FIFO links with 15 % loss (1 -> 3, 3 -> 2).
    let net = NetworkHandle::new(
        LinkConfig::with_latency(LatencyModel::uniform(us(50), ms(3))).with_drop_probability(0.15),
        sim.fork_rng("net"),
    );
    let (n1, n2, n3) = (NodeId(1), NodeId(2), NodeId(3));
    // Normal jitter, frames may overtake, lossless.
    net.configure_link(
        n1,
        n2,
        LinkConfig::with_latency(LatencyModel::normal(ms(1), us(400), us(100))).reordering(),
    );
    // Uniform jitter, reordering and lossy.
    net.configure_link(
        n2,
        n3,
        LinkConfig::with_latency(LatencyModel::uniform(us(100), ms(4)))
            .reordering()
            .with_drop_probability(0.25),
    );
    // Constant latency: no latency draw, but a drop draw.
    net.configure_link(
        n3,
        n1,
        LinkConfig::ideal(us(250)).with_drop_probability(0.1),
    );
    // Constant and lossless: no draw at all until overridden.
    net.configure_link(n2, n1, LinkConfig::ideal(us(500)));

    let deliveries = Rc::new(RefCell::new(Vec::new()));
    for node in [n1, n2, n3] {
        let sink = deliveries.clone();
        net.set_receiver(node, move |sim, frame| {
            sink.borrow_mut().push((
                sim.now().as_nanos(),
                frame.src.0,
                frame.dst.0,
                frame.payload[0],
            ));
        });
    }

    let mut plan = FaultPlan::new();
    plan.loss_burst(at_ms(5), n1, n3, 0.6, ms(10));
    plan.latency_spike(
        at_ms(12),
        n1,
        n2,
        LatencyModel::uniform(ms(2), ms(6)),
        ms(8),
    );
    plan.latency_spike(at_ms(20), n2, n1, LatencyModel::constant(ms(3)), ms(10));
    plan.kill_link(at_ms(15), n3, n2);
    plan.heal_link(at_ms(25), n3, n2);
    plan.crash_node(at_ms(30), n2);
    plan.restore_node(at_ms(38), n2);
    plan.loss_burst(at_ms(33), n3, n1, 1.0, ms(5));
    plan.apply(&mut sim, &net);

    for tick in 0..50u8 {
        let net = net.clone();
        sim.schedule_at(at_ms(u64::from(tick)), move |sim| {
            for src in 1..=3u16 {
                // Alternate between the two other nodes.
                let dst = if tick % 2 == 0 {
                    src % 3 + 1
                } else {
                    (src + 1) % 3 + 1
                };
                net.send(
                    sim,
                    Frame {
                        src: NodeId(src),
                        dst: NodeId(dst),
                        payload: vec![tick, src as u8].into(),
                    },
                );
            }
            if tick % 10 == 0 {
                // No receiver: unroutable.
                net.send(
                    sim,
                    Frame {
                        src: NodeId(1),
                        dst: NodeId(9),
                        payload: vec![tick].into(),
                    },
                );
            }
        });
    }
    sim.run_to_completion();
    let got = deliveries.borrow().clone();
    (got, net.stats())
}

/// FNV-1a over the deliveries' little-endian fields, in order.
fn fnv1a(deliveries: &[Delivery]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &(at, src, dst, byte) in deliveries {
        let bytes = at
            .to_le_bytes()
            .into_iter()
            .chain(src.to_le_bytes())
            .chain(dst.to_le_bytes())
            .chain([byte]);
        for b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

fn stats(sent: u64, delivered: u64, dropped: u64, unroutable: u64, faulted: u64) -> NetStats {
    NetStats {
        sent,
        delivered,
        dropped,
        unroutable,
        faulted,
    }
}

#[test]
fn delivery_schedule_is_pinned() {
    // (seed, first five deliveries, deliveries, FNV-1a of all, stats)
    let expected: [(u64, [Delivery; 5], usize, u64, NetStats); 3] = [
        (
            7,
            [
                (1_305_362, 1, 2, 0),
                (1_500_000, 2, 1, 1),
                (2_250_000, 3, 1, 2),
                (2_573_623, 3, 2, 1),
                (3_014_559, 2, 3, 0),
            ],
            119,
            0x7f65_02f7_f132_3586,
            stats(155, 119, 19, 4, 13),
        ),
        (
            11,
            [
                (250_000, 3, 1, 0),
                (907_708, 1, 2, 0),
                (1_500_000, 2, 1, 1),
                (2_250_000, 3, 1, 2),
                (2_628_397, 1, 2, 2),
            ],
            119,
            0x684c_9b1b_ffab_9eac,
            stats(155, 119, 18, 5, 13),
        ),
        (
            42,
            [
                (250_000, 3, 1, 0),
                (1_421_398, 1, 2, 0),
                (1_500_000, 2, 1, 1),
                (2_019_050, 3, 2, 1),
                (2_502_606, 2, 3, 0),
            ],
            117,
            0xc816_3c8e_634a_3397,
            stats(155, 117, 22, 3, 13),
        ),
    ];
    for (seed, head, len, digest, net_stats) in expected {
        let (got, got_stats) = schedule(seed);
        assert_eq!(got[..head.len()], head, "seed {seed}: first deliveries");
        assert_eq!(
            (got.len(), fnv1a(&got)),
            (len, digest),
            "seed {seed}: schedule"
        );
        assert_eq!(got_stats, net_stats, "seed {seed}: stats");
    }
}
