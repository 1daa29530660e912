//! Data types flowing through the brake-assistant pipeline, with SOME/IP
//! payload codecs and deterministic synthetic generators.
//!
//! The paper's errors are independent of actual image content — what
//! matters is frame *identity* (to detect misalignment) and timing. The
//! synthetic [`Frame`] therefore carries an id and timestamps, and the
//! "vision" results ([`LaneBox`], [`Vehicle`]) are pure functions of the
//! frame id, so that any two correct executions must produce identical
//! outputs — which is exactly what the determinism checks compare.

use dear_someip::{FrameBuf, PayloadError, PayloadReader, PayloadWriter};

/// Mixes a 64-bit value (SplitMix64 finalizer); used to derive
/// deterministic pseudo-content from frame ids.
#[must_use]
pub(crate) fn mix(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A captured video frame (synthetic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Frame {
    /// Monotone frame number assigned by the video provider.
    pub(crate) id: u64,
    /// Capture time in nanoseconds (provider clock).
    pub(crate) capture_nanos: u64,
    /// Tag time assigned by the video adapter when the frame entered the
    /// reactor network (0 in the nondeterministic build).
    pub adapter_nanos: u64,
}

impl Frame {
    /// Creates a frame at capture time.
    #[must_use]
    pub fn new(id: u64, capture_nanos: u64) -> Self {
        Frame {
            id,
            capture_nanos,
            adapter_nanos: 0,
        }
    }

    /// Serializes to a SOME/IP payload.
    #[must_use]
    pub fn to_payload(&self) -> FrameBuf {
        self.encode(PayloadWriter::new())
    }

    /// Serializes through `w` (e.g. a pooled writer).
    pub(crate) fn encode(&self, mut w: PayloadWriter) -> FrameBuf {
        w.write_u64(self.id)
            .write_u64(self.capture_nanos)
            .write_u64(self.adapter_nanos);
        w.into_frame()
    }

    /// Parses from a SOME/IP payload.
    ///
    /// # Errors
    ///
    /// Returns a [`PayloadError`] on malformed payloads.
    pub fn from_payload(bytes: &[u8]) -> Result<Self, PayloadError> {
        let mut r = PayloadReader::new(bytes);
        let frame = Frame {
            id: r.read_u64()?,
            capture_nanos: r.read_u64()?,
            adapter_nanos: r.read_u64()?,
        };
        r.finish()?;
        Ok(frame)
    }
}

/// The bounding box demarcating the current travel lane in one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaneBox {
    /// The frame this lane estimate belongs to.
    pub(crate) frame_id: u64,
    /// Left edge (pixels).
    pub(crate) x0: u16,
    /// Top edge (pixels).
    pub(crate) y0: u16,
    /// Right edge (pixels).
    pub(crate) x1: u16,
    /// Bottom edge (pixels).
    pub(crate) y1: u16,
}

impl LaneBox {
    /// Serializes to a SOME/IP payload.
    #[must_use]
    pub fn to_payload(&self) -> FrameBuf {
        self.encode(PayloadWriter::new())
    }

    /// Serializes through `w` (e.g. a pooled writer).
    pub(crate) fn encode(&self, mut w: PayloadWriter) -> FrameBuf {
        w.write_u64(self.frame_id)
            .write_u16(self.x0)
            .write_u16(self.y0)
            .write_u16(self.x1)
            .write_u16(self.y1);
        w.into_frame()
    }

    /// Parses from a SOME/IP payload.
    ///
    /// # Errors
    ///
    /// Returns a [`PayloadError`] on malformed payloads.
    pub fn from_payload(bytes: &[u8]) -> Result<Self, PayloadError> {
        let mut r = PayloadReader::new(bytes);
        let lane = LaneBox {
            frame_id: r.read_u64()?,
            x0: r.read_u16()?,
            y0: r.read_u16()?,
            x1: r.read_u16()?,
            y1: r.read_u16()?,
        };
        r.finish()?;
        Ok(lane)
    }
}

/// A detected vehicle with estimated distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub(crate) struct Vehicle {
    /// Track id within the frame.
    pub(crate) track: u32,
    /// Estimated distance in millimetres.
    pub(crate) distance_mm: u32,
}

/// The most vehicles one list holds: the detector's bound (`h % 4` in
/// [`detect_vehicles`](crate::logic::detect_vehicles)), and the wire
/// bound [`VehicleList::from_payload`] enforces.
pub(crate) const MAX_VEHICLES: usize = 3;

/// The vehicle list produced by Computer Vision for one frame.
///
/// The vehicles are stored inline, so building, decoding and copying a
/// list never touches the heap. Slots past `len` stay at their default,
/// so the derived comparisons see only the listed vehicles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct VehicleList {
    /// The frame these detections belong to.
    pub(crate) frame_id: u64,
    /// Frame capture time (carried through for latency accounting).
    pub(crate) capture_nanos: u64,
    /// Adapter tag time (carried through for latency accounting).
    pub(crate) adapter_nanos: u64,
    /// Detected vehicles in the travel lane: the first `len` slots.
    slots: [Vehicle; MAX_VEHICLES],
    len: u8,
}

impl VehicleList {
    /// An empty list for one frame.
    pub(crate) fn new(frame_id: u64, capture_nanos: u64, adapter_nanos: u64) -> Self {
        VehicleList {
            frame_id,
            capture_nanos,
            adapter_nanos,
            ..VehicleList::default()
        }
    }

    /// Appends a vehicle.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds [`MAX_VEHICLES`].
    pub(crate) fn push(&mut self, vehicle: Vehicle) {
        self.slots[usize::from(self.len)] = vehicle;
        self.len += 1;
    }

    /// The detected vehicles in the travel lane.
    pub(crate) fn vehicles(&self) -> &[Vehicle] {
        &self.slots[..usize::from(self.len)]
    }

    /// Serializes to a SOME/IP payload.
    #[must_use]
    pub fn to_payload(&self) -> FrameBuf {
        self.encode(PayloadWriter::new())
    }

    /// Serializes through `w` (e.g. a pooled writer).
    pub(crate) fn encode(&self, mut w: PayloadWriter) -> FrameBuf {
        w.write_u64(self.frame_id)
            .write_u64(self.capture_nanos)
            .write_u64(self.adapter_nanos)
            .write_u32(u32::from(self.len));
        for v in self.vehicles() {
            w.write_u32(v.track).write_u32(v.distance_mm);
        }
        w.into_frame()
    }

    /// Parses from a SOME/IP payload.
    ///
    /// # Errors
    ///
    /// Returns a [`PayloadError`] on malformed payloads, and
    /// [`PayloadError::CountOutOfBounds`] on a list of more than 3
    /// vehicles, the most one frame's detection yields.
    pub fn from_payload(bytes: &[u8]) -> Result<Self, PayloadError> {
        let mut r = PayloadReader::new(bytes);
        let mut list = VehicleList::new(r.read_u64()?, r.read_u64()?, r.read_u64()?);
        let count = r.read_u32()?;
        if count as usize > MAX_VEHICLES {
            return Err(PayloadError::CountOutOfBounds {
                count,
                max: MAX_VEHICLES as u32,
            });
        }
        for _ in 0..count {
            list.push(Vehicle {
                track: r.read_u32()?,
                distance_mm: r.read_u32()?,
            });
        }
        r.finish()?;
        Ok(list)
    }
}

/// The emergency-brake decision for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BrakeDecision {
    /// The frame the decision derives from.
    pub frame_id: u64,
    /// Whether an emergency brake maneuver is required.
    pub brake: bool,
}

/// FNV-1a fingerprint of a decision sequence (for determinism checks):
/// what both builds' `decision_fingerprint` report.
pub(crate) fn decision_fingerprint(decisions: &[BrakeDecision]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for d in decisions {
        for b in d.frame_id.to_le_bytes().iter().chain(&[u8::from(d.brake)]) {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn frame_payload_roundtrip() {
        let f = Frame {
            id: 42,
            capture_nanos: 1_000_000,
            adapter_nanos: 2_000_000,
        };
        assert_eq!(Frame::from_payload(&f.to_payload()).unwrap(), f);
    }

    #[test]
    fn lane_payload_roundtrip() {
        let l = LaneBox {
            frame_id: 7,
            x0: 1,
            y0: 2,
            x1: 3,
            y1: 4,
        };
        assert_eq!(LaneBox::from_payload(&l.to_payload()).unwrap(), l);
    }

    /// A list of `vehicles` for frame `frame_id`.
    fn list(frame_id: u64, vehicles: &[(u32, u32)]) -> VehicleList {
        let mut list = VehicleList::new(frame_id, 5, 6);
        for &(track, distance_mm) in vehicles {
            list.push(Vehicle { track, distance_mm });
        }
        list
    }

    /// The payload of a list of `vehicles`, written field by field (so
    /// it may hold more than a `VehicleList` can).
    fn raw_payload(frame_id: u64, vehicles: &[(u32, u32)]) -> FrameBuf {
        let mut w = PayloadWriter::new();
        w.write_u64(frame_id)
            .write_u64(5)
            .write_u64(6)
            .write_u32(u32::try_from(vehicles.len()).unwrap());
        for &(track, distance_mm) in vehicles {
            w.write_u32(track).write_u32(distance_mm);
        }
        w.into_frame()
    }

    #[test]
    fn vehicle_list_payload_roundtrip() {
        let v = list(9, &[(1, 25_000), (2, 60_000)]);
        assert_eq!(
            v.to_payload()[..],
            raw_payload(9, &[(1, 25_000), (2, 60_000)])[..]
        );
        assert_eq!(VehicleList::from_payload(&v.to_payload()).unwrap(), v);
    }

    #[test]
    fn truncated_payloads_error() {
        let f = Frame::new(1, 2).to_payload();
        assert!(Frame::from_payload(&f[..10]).is_err());
        let v = list(1, &[(0, 1)]).to_payload();
        assert!(VehicleList::from_payload(&v[..v.len() - 2]).is_err());
    }

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix(1), mix(1));
        assert_ne!(mix(1), mix(2));
    }

    proptest! {
        #[test]
        fn prop_frame_roundtrip(id in any::<u64>(), cap in any::<u64>(), ad in any::<u64>()) {
            let f = Frame { id, capture_nanos: cap, adapter_nanos: ad };
            prop_assert_eq!(Frame::from_payload(&f.to_payload()).unwrap(), f);
        }

        #[test]
        fn prop_vehicle_list_roundtrip(
            frame_id in any::<u64>(),
            vehicles in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..MAX_VEHICLES + 1)
        ) {
            let v = list(frame_id, &vehicles);
            prop_assert_eq!(&v.to_payload()[..], &raw_payload(frame_id, &vehicles)[..]);
            prop_assert_eq!(VehicleList::from_payload(&v.to_payload()).unwrap(), v);
        }

        #[test]
        fn prop_oversized_vehicle_lists_are_rejected(
            frame_id in any::<u64>(),
            vehicles in proptest::collection::vec((any::<u32>(), any::<u32>()), MAX_VEHICLES + 1..8)
        ) {
            let bytes = raw_payload(frame_id, &vehicles);
            prop_assert_eq!(
                VehicleList::from_payload(&bytes),
                Err(PayloadError::CountOutOfBounds {
                    count: u32::try_from(vehicles.len()).unwrap(),
                    max: MAX_VEHICLES as u32,
                })
            );
        }
    }
}
