//! The pure computational logic of the brake-assistant stages.
//!
//! Both the nondeterministic (AP-style) and the deterministic (DEAR)
//! builds call these same functions — mirroring the paper's port, where
//! "the original implementation separates computational logic from the
//! communication mechanism" so only the coordination layer changes
//! (§IV.B). All functions are pure in the frame id, so output differences
//! between the two builds can only come from coordination, never from the
//! logic.

use crate::types::{mix, Frame, LaneBox, Vehicle, VehicleList};
use dear_sim::LatencyModel;
use dear_time::Duration;

/// Distance threshold below which the EBA commands an emergency brake.
pub(crate) const BRAKE_DISTANCE_MM: u32 = 30_000;

/// Computes the travel-lane bounding box for a frame (Preprocessing).
#[must_use]
pub fn preprocess(frame: &Frame) -> LaneBox {
    let h = mix(frame.id);
    LaneBox {
        frame_id: frame.id,
        x0: (h & 0xFF) as u16,
        y0: ((h >> 8) & 0xFF) as u16,
        x1: 640 - ((h >> 16) & 0x3F) as u16,
        y1: 480 - ((h >> 24) & 0x3F) as u16,
    }
}

/// Detects vehicles in the lane (Computer Vision).
///
/// Detections are a pure function of the frame id; the lane argument is
/// validated for alignment by the callers (a mismatching lane is an
/// *input mismatch* error, counted by the instrumentation).
#[must_use]
pub fn detect_vehicles(frame: &Frame, lane: &LaneBox) -> VehicleList {
    debug_assert_eq!(frame.id, lane.frame_id, "callers must check alignment");
    let h = mix(frame.id ^ 0xC0FF_EE00);
    let count = (h % 4) as u32; // 0..=3 vehicles (`MAX_VEHICLES`)
    let mut list = VehicleList::new(frame.id, frame.capture_nanos, frame.adapter_nanos);
    for i in 0..count {
        let vh = mix(h ^ u64::from(i));
        list.push(Vehicle {
            track: i,
            // 5 m .. ~85 m
            distance_mm: 5_000 + (vh % 80_000) as u32,
        });
    }
    list
}

/// Decides whether an emergency brake maneuver is required (EBA).
#[must_use]
pub fn eba_decide(vehicles: &VehicleList) -> bool {
    vehicles
        .vehicles()
        .iter()
        .any(|v| v.distance_mm < BRAKE_DISTANCE_MM)
}

/// The expected (reference) brake decision for a frame id, used by the
/// harnesses to verify end-to-end correctness of whatever made it through
/// the pipeline.
#[must_use]
pub fn reference_decision(frame_id: u64) -> bool {
    let frame = Frame::new(frame_id, 0);
    let lane = preprocess(&frame);
    eba_decide(&detect_vehicles(&frame, &lane))
}

/// Compute-time models of the pipeline stages.
///
/// The paper's deadline choices (5 / 25 / 25 / 5 ms) are "estimated upper
/// bounds" of these stage execution times on the MinnowBoard; the default
/// models keep the same relationship (mean well under the deadline,
/// jitter that stays below it in practice).
#[derive(Debug, Clone, PartialEq)]
pub struct StageTimings {
    /// Video Adapter processing time.
    pub adapter: LatencyModel,
    /// Preprocessing (lane detection) processing time.
    pub preprocessing: LatencyModel,
    /// Computer Vision (vehicle detection) processing time.
    pub computer_vision: LatencyModel,
    /// EBA decision processing time.
    pub eba: LatencyModel,
}

impl Default for StageTimings {
    fn default() -> Self {
        StageTimings {
            adapter: LatencyModel::normal(
                Duration::from_millis(2),
                Duration::from_micros(300),
                Duration::from_micros(100),
            ),
            preprocessing: LatencyModel::normal(
                Duration::from_millis(18),
                Duration::from_millis(1),
                Duration::from_millis(5),
            ),
            computer_vision: LatencyModel::normal(
                Duration::from_millis(18),
                Duration::from_millis(1),
                Duration::from_millis(5),
            ),
            eba: LatencyModel::normal(
                Duration::from_millis(1),
                Duration::from_micros(200),
                Duration::from_micros(50),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::MAX_VEHICLES;

    #[test]
    fn preprocess_is_pure_and_id_stamped() {
        let f = Frame::new(10, 123);
        let a = preprocess(&f);
        let b = preprocess(&Frame::new(10, 456)); // different capture time
        assert_eq!(a, b, "content depends only on frame id");
        assert_eq!(a.frame_id, 10);
        assert!(a.x0 < a.x1 && a.y0 < a.y1, "box is well-formed");
    }

    #[test]
    fn detection_is_pure_and_bounded() {
        let f = Frame::new(77, 0);
        let lane = preprocess(&f);
        let a = detect_vehicles(&f, &lane);
        let b = detect_vehicles(&f, &lane);
        assert_eq!(a, b);
        assert!(a.vehicles().len() <= MAX_VEHICLES);
        for v in a.vehicles() {
            assert!(v.distance_mm >= 5_000);
        }
    }

    #[test]
    fn some_frames_brake_some_dont() {
        let decisions: Vec<bool> = (0..200).map(reference_decision).collect();
        let brakes = decisions.iter().filter(|&&b| b).count();
        assert!(brakes > 10, "some frames must trigger braking ({brakes})");
        assert!(
            brakes < 190,
            "not all frames may trigger braking ({brakes})"
        );
    }

    #[test]
    fn eba_threshold_behaviour() {
        let one = |distance_mm| {
            let mut list = VehicleList::default();
            list.push(Vehicle {
                track: 0,
                distance_mm,
            });
            list
        };
        assert!(eba_decide(&one(BRAKE_DISTANCE_MM - 1)));
        assert!(!eba_decide(&one(BRAKE_DISTANCE_MM)));
        assert!(!eba_decide(&VehicleList::default()));
    }

    #[test]
    fn default_timings_respect_paper_deadlines() {
        let t = StageTimings::default();
        // The paper's deadlines: adapter 5 ms, preprocessing 25 ms,
        // CV 25 ms, EBA 5 ms.
        assert!(t.adapter.upper_bound() <= Duration::from_millis(5));
        assert!(t.preprocessing.upper_bound() <= Duration::from_millis(25));
        assert!(t.computer_vision.upper_bound() <= Duration::from_millis(25));
        assert!(t.eba.upper_bound() <= Duration::from_millis(5));
    }
}
