//! The nondeterministic brake assistant — the APD design of Figure 4.
//!
//! Five SWCs across two platforms:
//!
//! ```text
//! Platform 1                    Platform 2
//! ┌──────────────┐   frame   ┌──────────────┐ frame ┌──────────────┐
//! │Video Provider│──────────▶│Video Adapter │──────▶│Preprocessing │─┐lane
//! └──────────────┘           └──────────────┘       └──────┬───────┘ │
//!                                                     frame│         ▼
//!                                                          │  ┌──────────────┐
//!                                                          └─▶│ComputerVision│
//!                                                             └──────┬───────┘
//!                                                             vehicles│
//!                                                                     ▼
//!                                                              ┌──────────┐
//!                                                              │   EBA    │──▶ brake
//!                                                              └──────────┘
//! ```
//!
//! "Event notifications are used to transfer data from one SWC to the
//! next and the corresponding event handler stores the data in a one-slot
//! input buffer. Each SWC sets up a periodic callback so that the OS
//! triggers the SWC logic every 50 ms. ... This introduces nondeterminism
//! as data could get overwritten before it is read by a downstream
//! component, causing entire frames to be dropped. Moreover, since the
//! Computer Vision component reads not one but two inputs, this can lead
//! to misalignment between the video frames and the lane information"
//! (paper §IV.A).
//!
//! [`run_nondet`] executes one seeded instance and reports the four error
//! types of Figure 5.

use crate::det::RedundancyParams;
use crate::logic::{detect_vehicles, eba_decide, preprocess, StageTimings};
use crate::proxy::EventBuffer;
use crate::swc::{SoftwareComponent, SwcConfig};
use crate::types::{BrakeDecision, Frame, LaneBox, VehicleList};
use dear_sim::{Component, LatencyModel, LinkConfig, NetworkHandle, SimRng, Simulation};
use dear_someip::{Binding, PayloadWriter, SdRegistry, ServiceInstance};
use dear_time::{Duration, Instant};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Node ids of the five SWC processes (provider on platform 1, the rest
/// are processes on platform 2).
pub(crate) mod nodes {
    use dear_sim::NodeId;
    /// Video Provider (platform 1).
    pub(crate) const PROVIDER: NodeId = NodeId(1);
    /// Video Adapter (platform 2).
    pub(crate) const ADAPTER: NodeId = NodeId(2);
    /// Preprocessing (platform 2).
    pub(crate) const PREPROCESSING: NodeId = NodeId(3);
    /// Computer Vision (platform 2).
    pub(crate) const COMPUTER_VISION: NodeId = NodeId(4);
    /// EBA (platform 2).
    pub(crate) const EBA: NodeId = NodeId(5);
    /// The RTI, when the deterministic build runs under centralized
    /// coordination (lives on the coordination network).
    pub(crate) const RTI: NodeId = NodeId(6);
    /// The redundant (backup) Video Provider, in failover scenarios
    /// (platform 1, second board).
    pub(crate) const PROVIDER_BACKUP: NodeId = NodeId(7);
}

/// Service ids and event ids used along the pipeline.
pub(crate) mod services {
    /// Raw camera frames (provider → adapter, "proprietary protocol").
    pub(crate) const VIDEO: u16 = 0x0100;
    /// Adapted frames (adapter → preprocessing, and forwarded onwards).
    pub(crate) const ADAPTER: u16 = 0x0200;
    /// Preprocessing outputs (lane + forwarded frame → computer vision).
    pub(crate) const PREPROCESSING: u16 = 0x0300;
    /// Vehicle detections (computer vision → EBA).
    pub(crate) const COMPUTER_VISION: u16 = 0x0400;
    /// The single instance id used by every pipeline service.
    pub(crate) const INSTANCE: u16 = 1;
    /// The backup provider's instance id, in failover scenarios.
    pub(crate) const BACKUP_INSTANCE: u16 = 2;
    /// Eventgroup used by every pipeline service.
    pub(crate) const EVENTGROUP: u16 = 1;
    /// Primary event id (frames / lane / vehicles).
    pub(crate) const EVENT_MAIN: u16 = 0x8001;
    /// Secondary event id (forwarded frame from preprocessing).
    pub(crate) const EVENT_AUX: u16 = 0x8002;
}

/// Parameters of one experiment instance.
#[derive(Debug, Clone)]
pub struct NondetParams {
    /// Number of frames the provider sends.
    pub frames: u64,
    /// Nominal frame period and periodic-callback period (50 ms).
    pub period: Duration,
    /// Uniform jitter on the provider's period ("approximately every
    /// 50 ms").
    pub provider_jitter: Duration,
    /// Maximum relative clock drift between platform 1 (provider) and
    /// platform 2, in parts per million. Each instance samples a drift in
    /// `[-max, max]`; the provider's effective period is scaled by it.
    ///
    /// Drift makes the provider/callback phase sweep slowly through the
    /// critical race window, which is why real runs (the paper's
    /// Figure 5) almost never see exactly zero errors.
    pub provider_drift_ppm_max: i64,
    /// Standard deviation of the OS dispatch jitter on each periodic
    /// callback activation (gaussian, unbounded tails).
    ///
    /// This models the scheduler noise on the "OS triggers the SWC logic
    /// every 50 ms" path; its tails are what give even well-phased
    /// instances a small residual error probability.
    pub callback_jitter_std: Duration,
    /// Probability that a callback activation suffers a large scheduling
    /// delay spike (preemption under load); real OS timer dispatch is
    /// heavy-tailed, and these spikes are what keep even well-phased
    /// instances from reaching exactly zero errors over long runs.
    pub callback_spike_prob: f64,
    /// Maximum extra delay of a spike (uniform in `(0, max]`).
    pub callback_spike_max: Duration,
    /// Stage compute-time models.
    pub timings: StageTimings,
    /// Provider → adapter link (crosses the Ethernet switch).
    pub ethernet: LinkConfig,
    /// Links between processes on platform 2.
    pub loopback: LinkConfig,
    /// Run with a redundant Video Provider and kill the primary mid-run
    /// (stock-AP failover: the standby polls the stream with a periodic
    /// callback and takes over after two silent polls — so the handover
    /// instant, and which frames are lost or duplicated around it, is
    /// scheduling luck). Only `primary_dies_after` is honoured; the SD
    /// fields of [`RedundancyParams`] model the deterministic build's
    /// machinery, which the stock build lacks.
    pub redundancy: Option<RedundancyParams>,
}

impl Default for NondetParams {
    fn default() -> Self {
        NondetParams {
            frames: 1_000,
            period: Duration::from_millis(50),
            provider_jitter: Duration::from_micros(500),
            provider_drift_ppm_max: 150,
            callback_jitter_std: Duration::from_micros(1500),
            callback_spike_prob: 0.002,
            callback_spike_max: Duration::from_millis(20),
            timings: StageTimings::default(),
            ethernet: LinkConfig::with_latency(LatencyModel::normal(
                Duration::from_millis(1),
                Duration::from_micros(200),
                Duration::from_micros(100),
            )),
            loopback: LinkConfig::with_latency(LatencyModel::normal(
                Duration::from_micros(150),
                Duration::from_micros(50),
                Duration::from_micros(20),
            )),
            redundancy: None,
        }
    }
}

/// The outcome of one nondeterministic-build instance, with the four
/// error types of the paper's Figure 5.
#[derive(Debug, Clone, Default)]
pub struct NondetReport {
    /// Frames the provider sent.
    pub(crate) frames_sent: u64,
    /// Brake decisions that reached the output, in emission order.
    pub decisions: Vec<BrakeDecision>,
    /// Figure 5: "Dropped frames (Preprocessing)" — overwrites of the
    /// preprocessing input buffer.
    pub dropped_preprocessing: u64,
    /// Figure 5: "Dropped frames (Computer Vision)" — overwrites of the
    /// CV frame input buffer.
    pub dropped_cv: u64,
    /// Figure 5: "Input mismatches (Computer Vision)" — reads where frame
    /// and lane did not belong together.
    pub mismatches_cv: u64,
    /// Figure 5: "Dropped vehicles (EBA)" — overwrites of the EBA input
    /// buffer.
    pub dropped_eba: u64,
    /// Decisions whose value disagrees with the reference logic (should
    /// stay zero: the pipeline drops or misaligns, it does not corrupt).
    pub wrong_decisions: u64,
    /// When the standby provider took over (`Some` only in redundancy
    /// scenarios where the takeover happened within the horizon). Unlike
    /// the deterministic build's failover tag, this instant is pure
    /// scheduling luck and varies across seeds.
    pub backup_takeover_at: Option<Instant>,
}

impl NondetReport {
    /// Total Figure 5 errors (the four plotted types).
    #[must_use]
    pub fn total_errors(&self) -> u64 {
        self.dropped_preprocessing + self.dropped_cv + self.mismatches_cv + self.dropped_eba
    }

    /// Error prevalence in percent of sent frames.
    #[must_use]
    pub fn prevalence_pct(&self) -> f64 {
        if self.frames_sent == 0 {
            0.0
        } else {
            self.total_errors() as f64 * 100.0 / self.frames_sent as f64
        }
    }

    /// FNV fingerprint of the decision sequence (for determinism checks).
    #[must_use]
    pub fn decision_fingerprint(&self) -> u64 {
        crate::types::decision_fingerprint(&self.decisions)
    }
}

/// Schedules a periodic callback anchored at `offset + k * period`, with
/// each activation displaced by gaussian OS dispatch jitter and, rarely,
/// a delay spike (the `callback_*` fields of `params`). The jitter is
/// non-cumulative (anchors stay on the nominal grid, as an OS periodic
/// timer does).
fn schedule_periodic_jittered(
    sim: &mut Simulation,
    params: &NondetParams,
    offset: Duration,
    rng: dear_sim::SimRng,
    callback: impl FnMut(&mut Simulation) + 'static,
) {
    struct State<F> {
        period: Duration,
        jitter_std: Duration,
        spike_prob: f64,
        spike_max: Duration,
        rng: dear_sim::SimRng,
        callback: F,
        k: u64,
        start: Instant,
    }
    fn tick<F: FnMut(&mut Simulation) + 'static>(sim: &mut Simulation, mut st: State<F>) {
        (st.callback)(sim);
        st.k += 1;
        let anchor = st.start + st.period * i64::try_from(st.k).expect("activation count");
        let mut jitter = if st.jitter_std.is_zero() {
            Duration::ZERO
        } else {
            let j = st.rng.gaussian() * st.jitter_std.as_nanos() as f64;
            Duration::from_nanos(j as i64).max(-(st.period / 2))
        };
        if st.spike_prob > 0.0 && st.spike_max > Duration::ZERO && st.rng.chance(st.spike_prob) {
            jitter += st.rng.uniform_duration(Duration::ZERO, st.spike_max);
        }
        let at = anchor
            .saturating_add(jitter)
            .max(sim.now() + Duration::from_nanos(1));
        sim.schedule_at(at, move |sim| tick(sim, st));
    }
    let start = sim.now() + offset;
    let st = State {
        period: params.period,
        jitter_std: params.callback_jitter_std,
        spike_prob: params.callback_spike_prob,
        spike_max: params.callback_spike_max,
        rng,
        callback,
        k: 0,
        start,
    };
    sim.schedule_at(start, move |sim| tick(sim, st));
}

/// Runs right after a camera sent frame `id`; `true` stops the camera
/// there (a redundancy scenario's primary dying).
type DiesFn = Box<dyn Fn(&mut Simulation, u64) -> bool>;

/// A Video Provider's camera: each firing sends frame `next_id` (while
/// below `total`) and re-arms one period, plus uniform jitter when set,
/// later as a keyed calendar event.
pub(crate) struct Camera {
    binding: Binding,
    instance: ServiceInstance,
    total: u64,
    pub(crate) period: Duration,
    jitter: Duration,
    rng: RefCell<SimRng>,
    /// The next frame id to send; a warm standby raises it past every
    /// frame it sees replicated.
    pub(crate) next_id: Cell<u64>,
    pub(crate) dies: Option<DiesFn>,
    /// The calendar key, set by [`Camera::register`].
    key: Cell<u32>,
}

impl Camera {
    pub(crate) fn new(
        binding: Binding,
        instance: ServiceInstance,
        total: u64,
        period: Duration,
        jitter: Duration,
        rng: SimRng,
    ) -> Self {
        Camera {
            binding,
            instance,
            total,
            period,
            jitter,
            rng: RefCell::new(rng),
            next_id: Cell::new(0),
            dies: None,
            key: Cell::new(0),
        }
    }

    /// Registers the camera with `sim`; it first fires when armed.
    pub(crate) fn register(self, sim: &mut Simulation) -> Rc<Self> {
        let camera = Rc::new(self);
        camera.key.set(sim.register_component(camera.clone()));
        camera
    }

    /// Schedules the next firing `delay` from now.
    pub(crate) fn arm(&self, sim: &mut Simulation, delay: Duration) {
        sim.schedule_fire(sim.now() + delay, self.key.get(), 0);
    }
}

impl Component for Camera {
    fn fire(self: Rc<Self>, sim: &mut Simulation, _token: u32) {
        let id = self.next_id.get();
        if id >= self.total {
            return;
        }
        self.next_id.set(id + 1);
        let frame = Frame::new(id, sim.now().as_nanos());
        let payload = frame.encode(PayloadWriter::pooled(&self.binding.pool()));
        let (group, event) = (services::EVENTGROUP, services::EVENT_MAIN);
        self.binding
            .notify(sim, self.instance, group, event, payload);
        if self.dies.as_ref().is_some_and(|dies| dies(sim, id)) {
            return;
        }
        let next = if self.jitter.is_zero() {
            self.period
        } else {
            let jitter = self.jitter;
            self.period + self.rng.borrow_mut().uniform_duration(-jitter, jitter)
        };
        self.arm(sim, next);
    }
}

/// Runs one seeded instance of the nondeterministic brake assistant.
///
/// Per-instance randomness (callback phase offsets, provider jitter,
/// dispatch jitter, compute times, network latencies) all derive from
/// `seed`; the same seed replays the identical run.
#[must_use]
pub fn run_nondet(seed: u64, params: &NondetParams) -> NondetReport {
    use services::{
        ADAPTER, COMPUTER_VISION, EVENTGROUP, EVENT_AUX, EVENT_MAIN, INSTANCE, PREPROCESSING, VIDEO,
    };

    let mut sim = Simulation::new(seed);
    let net = NetworkHandle::new(params.loopback.clone(), sim.fork_rng("net"));
    net.configure_link(nodes::PROVIDER, nodes::ADAPTER, params.ethernet.clone());
    let sd = SdRegistry::new();
    let offer_ttl = Duration::from_secs(1 << 40 >> 10); // effectively forever

    // --- SWCs -------------------------------------------------------------
    let provider = SoftwareComponent::launch(
        &sim,
        &net,
        &sd,
        SwcConfig::single_threaded("video-provider", nodes::PROVIDER, 0x10),
    );
    let adapter = SoftwareComponent::launch(
        &sim,
        &net,
        &sd,
        SwcConfig::multi_threaded("video-adapter", nodes::ADAPTER, 0x20),
    );
    let preprocessing = SoftwareComponent::launch(
        &sim,
        &net,
        &sd,
        SwcConfig::multi_threaded("preprocessing", nodes::PREPROCESSING, 0x30),
    );
    let cv = SoftwareComponent::launch(
        &sim,
        &net,
        &sd,
        SwcConfig::multi_threaded("computer-vision", nodes::COMPUTER_VISION, 0x40),
    );
    let eba = SoftwareComponent::launch(
        &sim,
        &net,
        &sd,
        SwcConfig::multi_threaded("eba", nodes::EBA, 0x50),
    );

    // Offers.
    let provider_skel = provider.skeleton(&sim, VIDEO, INSTANCE);
    provider_skel.offer(&mut sim, offer_ttl);
    let adapter_skel = adapter.skeleton(&sim, ADAPTER, INSTANCE);
    adapter_skel.offer(&mut sim, offer_ttl);
    let preproc_skel = preprocessing.skeleton(&sim, PREPROCESSING, INSTANCE);
    preproc_skel.offer(&mut sim, offer_ttl);
    let cv_skel = cv.skeleton(&sim, COMPUTER_VISION, INSTANCE);
    cv_skel.offer(&mut sim, offer_ttl);

    // Subscriptions into one-slot buffers.
    let adapter_buf: EventBuffer = adapter
        .proxy(VIDEO, INSTANCE)
        .subscribe_buffered(EVENTGROUP, EVENT_MAIN);
    let preproc_buf: EventBuffer = preprocessing
        .proxy(ADAPTER, INSTANCE)
        .subscribe_buffered(EVENTGROUP, EVENT_MAIN);
    let cv_lane_buf: EventBuffer = cv
        .proxy(PREPROCESSING, INSTANCE)
        .subscribe_buffered(EVENTGROUP, EVENT_MAIN);
    let cv_frame_buf: EventBuffer = cv
        .proxy(PREPROCESSING, INSTANCE)
        .subscribe_buffered(EVENTGROUP, EVENT_AUX);
    let eba_buf: EventBuffer = eba
        .proxy(COMPUTER_VISION, INSTANCE)
        .subscribe_buffered(EVENTGROUP, EVENT_MAIN);

    // --- Video Provider: a frame approximately every `period` -------------
    let frames_total = params.frames;
    // With redundancy, the primary silently crashes after its kill frame.
    let primary_frames = params.redundancy.map_or(frames_total, |r| {
        (r.primary_dies_after + 1).min(frames_total)
    });
    {
        let mut rng = sim.fork_rng("provider");
        let jitter = params.provider_jitter;
        // Relative clock drift between the two platforms scales the
        // provider's effective period for this instance.
        let period = if params.provider_drift_ppm_max > 0 {
            let max = params.provider_drift_ppm_max;
            let ppm = rng.range_u64(0, 2 * max as u64 + 1) as i64 - max;
            params.period + Duration::from_nanos(params.period.as_nanos() * ppm / 1_000_000)
        } else {
            params.period
        };
        let binding = provider_skel.binding.clone();
        let instance = ServiceInstance::new(VIDEO, INSTANCE);
        Camera::new(binding, instance, primary_frames, period, jitter, rng)
            .register(&mut sim)
            .arm(&mut sim, Duration::ZERO);
    }

    // --- Periodic SWC logic ------------------------------------------------
    // Phase offsets are the paper's culprit: "the error rate is strongly
    // influenced by the offset between the individual periodic callbacks
    // of the SWCs, which depends on when SWCs are started and is
    // difficult to control."
    let mut offset_rng = sim.fork_rng("offsets");
    let mut random_offset = || offset_rng.uniform_duration(Duration::ZERO, params.period);

    // Video Adapter: republish the latest raw frame.
    {
        let buf = adapter_buf.clone();
        let skel = adapter_skel.clone();
        let timing = params.timings.adapter.clone();
        let rng = Rc::new(RefCell::new(sim.fork_rng("adapter-compute")));
        let offset = random_offset();
        let cb_rng = sim.fork_rng("adapter-callback");
        schedule_periodic_jittered(&mut sim, params, offset, cb_rng, move |sim| {
            if let Some(payload) = buf.take() {
                let d = timing.sample(&mut rng.borrow_mut());
                let skel = skel.clone();
                sim.schedule_in(d, move |sim| {
                    skel.notify(sim, EVENTGROUP, EVENT_MAIN, payload);
                });
            }
        });
    }

    // Preprocessing: compute the lane box, publish lane + forwarded frame.
    {
        let buf = preproc_buf.clone();
        let skel = preproc_skel.clone();
        let timing = params.timings.preprocessing.clone();
        let rng = Rc::new(RefCell::new(sim.fork_rng("preproc-compute")));
        let offset = random_offset();
        let cb_rng = sim.fork_rng("preproc-callback");
        schedule_periodic_jittered(&mut sim, params, offset, cb_rng, move |sim| {
            if let Some(payload) = buf.take() {
                let frame = Frame::from_payload(&payload).expect("frame payload");
                let d = timing.sample(&mut rng.borrow_mut());
                let skel = skel.clone();
                sim.schedule_in(d, move |sim| {
                    let lane = preprocess(&frame);
                    skel.notify(sim, EVENTGROUP, EVENT_MAIN, lane.to_payload());
                    skel.notify(sim, EVENTGROUP, EVENT_AUX, frame.to_payload());
                });
            }
        });
    }

    // Computer Vision: join lane + frame, detect vehicles.
    let mismatches = Rc::new(RefCell::new(0u64));
    {
        let lane_buf = cv_lane_buf.clone();
        let frame_buf = cv_frame_buf.clone();
        let skel = cv_skel.clone();
        let timing = params.timings.computer_vision.clone();
        let rng = Rc::new(RefCell::new(sim.fork_rng("cv-compute")));
        let mismatches = mismatches.clone();
        let offset = random_offset();
        let cb_rng = sim.fork_rng("cv-callback");
        schedule_periodic_jittered(&mut sim, params, offset, cb_rng, move |sim| {
            let lane = lane_buf
                .take()
                .map(|p| LaneBox::from_payload(&p).expect("lane"));
            let frame = frame_buf
                .take()
                .map(|p| Frame::from_payload(&p).expect("frame"));
            match (lane, frame) {
                (Some(lane), Some(frame)) if lane.frame_id == frame.id => {
                    let d = timing.sample(&mut rng.borrow_mut());
                    let skel = skel.clone();
                    sim.schedule_in(d, move |sim| {
                        let vehicles = detect_vehicles(&frame, &lane);
                        skel.notify(sim, EVENTGROUP, EVENT_MAIN, vehicles.to_payload());
                    });
                }
                (Some(_), Some(_)) | (Some(_), None) | (None, Some(_)) => {
                    // Misaligned inputs: either the pair disagrees or only
                    // one half arrived in time.
                    *mismatches.borrow_mut() += 1;
                }
                (None, None) => {} // silently wait for the next trigger
            }
        });
    }

    // EBA: decide on the latest vehicle list.
    let decisions = Rc::new(RefCell::new(Vec::new()));
    let wrong = Rc::new(RefCell::new(0u64));
    {
        let buf = eba_buf.clone();
        let timing = params.timings.eba.clone();
        let rng = Rc::new(RefCell::new(sim.fork_rng("eba-compute")));
        let decisions = decisions.clone();
        let wrong = wrong.clone();
        let offset = random_offset();
        let cb_rng = sim.fork_rng("eba-callback");
        schedule_periodic_jittered(&mut sim, params, offset, cb_rng, move |sim| {
            if let Some(payload) = buf.take() {
                let vehicles = VehicleList::from_payload(&payload).expect("vehicles");
                let d = timing.sample(&mut rng.borrow_mut());
                let decisions = decisions.clone();
                let wrong = wrong.clone();
                sim.schedule_in(d, move |_sim| {
                    let brake = eba_decide(&vehicles);
                    if brake != crate::logic::reference_decision(vehicles.frame_id) {
                        *wrong.borrow_mut() += 1;
                    }
                    decisions.borrow_mut().push(BrakeDecision {
                        frame_id: vehicles.frame_id,
                        brake,
                    });
                });
            }
        });
    }

    // --- Redundant Video Provider (stock-AP failover) ----------------------
    // The standby polls the primary's stream through its own one-slot
    // buffer from a periodic callback, like every other stock SWC. Two
    // consecutive empty polls mean "primary dead": it offers the service
    // and resumes the stream after the last frame it happened to see.
    // Where the handover lands — and which frames are dropped or
    // duplicated around it — depends on the callback phase and jitter,
    // i.e. on scheduling luck.
    let backup_takeover: Rc<RefCell<Option<Instant>>> = Rc::new(RefCell::new(None));
    if params.redundancy.is_some() {
        let backup = SoftwareComponent::launch(
            &sim,
            &net,
            &sd,
            SwcConfig::single_threaded("video-provider-backup", nodes::PROVIDER_BACKUP, 0x11),
        );
        let backup_skel = backup.skeleton(&sim, VIDEO, INSTANCE);
        let watch_buf: EventBuffer = backup
            .proxy(VIDEO, INSTANCE)
            .subscribe_buffered(EVENTGROUP, EVENT_MAIN);
        let takeover = backup_takeover.clone();
        let rng_send = sim.fork_rng("provider-backup");
        let cb_rng = sim.fork_rng("backup-watchdog");
        let jitter = params.provider_jitter;
        let send_period = params.period;
        let mut last_seen: Option<u64> = None;
        let mut silent = 0u32;
        let mut active = false;
        let offset = random_offset();
        schedule_periodic_jittered(&mut sim, params, offset, cb_rng, move |sim| {
            if active {
                return;
            }
            if let Some(payload) = watch_buf.take() {
                let frame = Frame::from_payload(&payload).expect("frame payload");
                last_seen = Some(last_seen.map_or(frame.id, |s| s.max(frame.id)));
                silent = 0;
            } else if last_seen.is_some() {
                silent += 1;
                if silent >= 2 {
                    active = true;
                    *takeover.borrow_mut() = Some(sim.now());
                    backup_skel.offer(sim, Duration::from_secs(1 << 30));
                    let binding = backup_skel.binding.clone();
                    let instance = ServiceInstance::new(VIDEO, INSTANCE);
                    let rng = rng_send.clone();
                    let camera =
                        Camera::new(binding, instance, frames_total, send_period, jitter, rng);
                    // Resume after the last frame seen, right now.
                    camera.next_id.set(last_seen.map_or(0, |s| s + 1));
                    camera.register(sim).fire(sim, 0);
                }
            }
        });
    }

    // Run long enough for the last frame to drain through the pipeline.
    let horizon = Instant::EPOCH
        + params.period * i64::try_from(params.frames).expect("frame count")
        + Duration::from_secs(1);
    sim.run_until(horizon);

    let decisions_out = std::mem::take(&mut *decisions.borrow_mut());
    let mismatches_cv = *mismatches.borrow();
    let wrong_decisions = *wrong.borrow();
    let backup_takeover_at = *backup_takeover.borrow();
    NondetReport {
        frames_sent: params.frames,
        decisions: decisions_out,
        dropped_preprocessing: preproc_buf.stats().overwrites,
        dropped_cv: cv_frame_buf.stats().overwrites,
        mismatches_cv,
        dropped_eba: eba_buf.stats().overwrites,
        wrong_decisions,
        backup_takeover_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> NondetParams {
        NondetParams {
            frames: 300,
            ..NondetParams::default()
        }
    }

    #[test]
    fn pipeline_produces_decisions() {
        let report = run_nondet(1, &small_params());
        assert!(
            report.decisions.len() > 100,
            "most frames should produce decisions, got {}",
            report.decisions.len()
        );
        assert_eq!(report.wrong_decisions, 0, "content is never corrupted");
    }

    #[test]
    fn same_seed_same_report() {
        let a = run_nondet(7, &small_params());
        let b = run_nondet(7, &small_params());
        assert_eq!(a.decision_fingerprint(), b.decision_fingerprint());
        assert_eq!(a.total_errors(), b.total_errors());
    }

    #[test]
    fn error_rate_varies_across_seeds() {
        let params = small_params();
        let rates: Vec<f64> = (0..12)
            .map(|s| run_nondet(s, &params).prevalence_pct())
            .collect();
        let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = rates.iter().cloned().fold(0.0, f64::max);
        assert!(
            max > min,
            "error prevalence should vary between instances: {rates:?}"
        );
        assert!(
            max > 0.0,
            "at least one instance should exhibit errors: {rates:?}"
        );
    }

    #[test]
    fn stock_failover_diverges_across_seeds() {
        // The counterpart of the deterministic build's failover claims:
        // under the identical kill scenario, the stock build's handover
        // instant and decision sequence are scheduling luck.
        let params = NondetParams {
            redundancy: Some(RedundancyParams {
                primary_dies_after: 99,
                ..RedundancyParams::default()
            }),
            ..small_params()
        };
        let runs: Vec<(u64, Option<Instant>)> = (0..8)
            .map(|s| {
                let r = run_nondet(s, &params);
                (r.decision_fingerprint(), r.backup_takeover_at)
            })
            .collect();
        for (_, takeover) in &runs {
            assert!(takeover.is_some(), "the standby must take over");
        }
        let distinct_fp: std::collections::HashSet<u64> = runs.iter().map(|&(f, _)| f).collect();
        assert!(
            distinct_fp.len() > 1,
            "stock failover should diverge: {runs:?}"
        );
        let distinct_at: std::collections::HashSet<_> =
            runs.iter().map(|&(_, t)| t.unwrap()).collect();
        assert!(
            distinct_at.len() > 1,
            "takeover instants should vary: {runs:?}"
        );
        // Same seed, same run — the simulation itself stays replayable.
        assert_eq!(
            run_nondet(3, &params).decision_fingerprint(),
            run_nondet(3, &params).decision_fingerprint()
        );
    }

    #[test]
    fn decisions_vary_across_seeds() {
        // The nondeterminism is application-visible: whenever instances
        // differ in their error counts, their decision sequences must
        // differ too (dropped frames leave gaps at different places).
        let params = small_params();
        let runs: Vec<(u64, u64)> = (0..12)
            .map(|s| {
                let r = run_nondet(s, &params);
                (r.decision_fingerprint(), r.total_errors())
            })
            .collect();
        let distinct_errors: std::collections::HashSet<u64> =
            runs.iter().map(|&(_, e)| e).collect();
        assert!(
            distinct_errors.len() > 1,
            "expected varying error counts across seeds: {runs:?}"
        );
        let distinct_fp: std::collections::HashSet<u64> = runs.iter().map(|&(fp, _)| fp).collect();
        assert!(
            distinct_fp.len() > 1,
            "all seeds produced identical decisions: {runs:?}"
        );
    }
}
