//! The centralized-coordination service: wire messages exchanged between
//! federates and an RTI (run-time infrastructure) over SOME/IP.
//!
//! The decentralized DEAR transactors coordinate purely through the
//! `t + D + L + E` tag algebra. The Lingua Franca ecosystem the paper
//! builds on also defines a *centralized* coordinator that exchanges
//! NET/TAG/PTAG/LTC control messages with every federate. This module
//! defines those control messages and their SOME/IP carriage:
//!
//! * federate → RTI messages travel as fire-and-forget method calls on
//!   [`COORD_SERVICE`] / [`COORD_METHOD`];
//! * RTI → federate grants travel as event notifications on
//!   [`COORD_EVENT`], unicast through a per-federate eventgroup
//!   ([`coord_eventgroup`]).
//!
//! The payload encoding is a fixed 27-byte big-endian record so that
//! encode→decode is a bijection (property-tested in
//! `tests/coord_roundtrip.rs`).
//!
//! ## Batched frames (hierarchical coordination)
//!
//! A sharded federation (zone coordinators rolling up to a root, see
//! `dear-federation`) exchanges *many* records per hop: a zone's roll-up,
//! the root's floor broadcast, a zone's grant fan-out. [`CoordBatch`]
//! packs any number of records into **one** pooled frame — a leading
//! [`COORD_BATCH_MARKER`] byte (disjoint from every [`CoordKind`] value),
//! a `u16` record count, then the fixed records back to back — so a
//! roll-up is one frame, not N, and the refcounted [`FrameBuf`] fan-out
//! from the zero-copy data path serves every subscriber without copying.

use crate::wire::{WireTag, HEADER_LEN};
use dear_sim::{FrameBuf, FrameMut, FramePool};
use std::error::Error;
use std::fmt;

/// Service id of the coordination service offered by the RTI.
pub const COORD_SERVICE: u16 = 0xFEDE;
/// Instance id of the coordination service.
pub const COORD_INSTANCE: u16 = 0x0001;
/// Method id used for federate → RTI control messages.
pub const COORD_METHOD: u16 = 0x0001;
/// Event id used for RTI → federate grant notifications.
pub const COORD_EVENT: u16 = 0x8001;
/// Base of the per-federate unicast eventgroup range.
pub const COORD_EVENTGROUP_BASE: u16 = 0x4000;

/// Encoded size of every coordination payload in bytes.
pub(crate) const COORD_PAYLOAD_LEN: usize = 27;

/// Leading byte of a batched coordination frame. Disjoint from every
/// [`CoordKind`] discriminant so a receiver can tell a batch from a
/// single record by its first byte.
pub const COORD_BATCH_MARKER: u8 = 0x42;

/// Bytes of batch framing before the first record (marker + `u16` count).
pub const COORD_BATCH_HEADER_LEN: usize = 3;

/// Sentinel tag meaning "no pending event" in NET reports.
pub const TAG_NEVER: WireTag = WireTag::new(u64::MAX, u32::MAX);

/// The eventgroup through which one federate receives its grants.
#[must_use]
pub const fn coord_eventgroup(federate: u16) -> u16 {
    COORD_EVENTGROUP_BASE + federate
}

/// Discriminant of a coordination message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CoordKind {
    /// Federate → RTI: the federate has started and is reachable.
    Join = 1,
    /// Federate → RTI: next-event tag report (plus a fence, see
    /// [`CoordMsg::fence`]).
    Net = 2,
    /// Federate → RTI: logical tag complete.
    Ltc = 3,
    /// RTI → federate: tag advance grant (exclusive bound).
    Tag = 4,
    /// RTI → federate: provisional tag advance grant (inclusive, breaks
    /// zero-delay cycles).
    Ptag = 5,
    /// Federate → RTI: the federate has shut down and imposes no further
    /// constraints.
    Resign = 6,
    /// Zone ↔ root (hierarchical coordination): a zone-floor report. The
    /// `federate` field carries the **zone id**; `tag` is the zone's
    /// floor — the earliest tag any of its members may still process or
    /// send at. Upward it is the zone's roll-up; downward it is the
    /// root's relay of an upstream zone's floor.
    Floor = 7,
    /// Coordinator → federate: downstream-next-event-tag suppression
    /// state. `tag` is the horizon below which the federate's reports
    /// still matter ([`TAG_NEVER`] = unbounded); `fence.microstep`
    /// carries [`DNET_NET_LATTICE`]/[`DNET_SINK`] flag bits telling the
    /// federate which control reports it may skip.
    Dnet = 8,
    /// Federate → coordinator: declaration of the federate's periodic
    /// event lattice. `tag.nanos` is the lattice `g` in nanoseconds —
    /// a promise that every locally originated event tag is a whole
    /// multiple of `g` at microstep zero, letting the coordinator leap
    /// a stale next-event tag whole periods ahead by itself.
    Period = 9,
    /// Federate → coordinator (crash recovery): a dead federate has
    /// replayed its durable log and asks to re-enter the federation.
    /// `tag` is its last processed tag (the recovered LTC high-water
    /// mark); `fence.microstep` carries the federate's **incarnation
    /// number**, which must exceed the coordinator's stored incarnation —
    /// stale duplicates (a pre-crash frame still in flight, a repeated
    /// rejoin) are dropped by the guard. Upward through the hierarchy it
    /// also carries a zone/root floor *retreat*: the explicit,
    /// generation-guarded exception to the Floor record's monotonicity.
    Rejoin = 10,
}

/// [`CoordKind::Dnet`] flag: the coordinator knows the federate's
/// periodic lattice, so NET reports whose head merely confirms the
/// lattice prediction carry no information and may be skipped.
pub const DNET_NET_LATTICE: u32 = 1 << 0;

/// [`CoordKind::Dnet`] flag: the federate has no downstream edges at this
/// coordinator — its floor constrains nobody, so both NET and LTC
/// reports may be skipped entirely (heartbeats still flow).
pub const DNET_SINK: u32 = 1 << 1;

impl CoordKind {
    /// Parses a wire byte.
    ///
    /// # Errors
    ///
    /// Returns [`CoordError::UnknownKind`] for unassigned values.
    pub fn from_u8(v: u8) -> Result<Self, CoordError> {
        match v {
            1 => Ok(CoordKind::Join),
            2 => Ok(CoordKind::Net),
            3 => Ok(CoordKind::Ltc),
            4 => Ok(CoordKind::Tag),
            5 => Ok(CoordKind::Ptag),
            6 => Ok(CoordKind::Resign),
            7 => Ok(CoordKind::Floor),
            8 => Ok(CoordKind::Dnet),
            9 => Ok(CoordKind::Period),
            10 => Ok(CoordKind::Rejoin),
            other => Err(CoordError::UnknownKind(other)),
        }
    }
}

/// Errors produced while decoding coordination payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordError {
    /// The payload is not exactly one record (27 bytes) long.
    BadLength(usize),
    /// Unknown message kind byte.
    UnknownKind(u8),
    /// The payload does not start with [`COORD_BATCH_MARKER`].
    NotABatch(u8),
    /// A batch payload's length does not match its framing
    /// (header + `count` 27-byte records).
    BadBatchLength {
        /// Record count declared in the batch header.
        declared: u16,
        /// Total payload length received.
        got: usize,
    },
}

impl fmt::Display for CoordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordError::BadLength(got) => {
                write!(
                    f,
                    "coordination payload must be {COORD_PAYLOAD_LEN} bytes, got {got}"
                )
            }
            CoordError::UnknownKind(v) => write!(f, "unknown coordination kind 0x{v:02x}"),
            CoordError::NotABatch(v) => {
                write!(
                    f,
                    "batch frames start with 0x{COORD_BATCH_MARKER:02x}, got 0x{v:02x}"
                )
            }
            CoordError::BadBatchLength { declared, got } => {
                write!(
                    f,
                    "batch declares {declared} records ({} bytes), got {got} bytes",
                    COORD_BATCH_HEADER_LEN + *declared as usize * COORD_PAYLOAD_LEN
                )
            }
        }
    }
}

impl Error for CoordError {}

/// One coordination control message.
///
/// All kinds share the same record layout; fields irrelevant to a kind are
/// zero on the wire and ignored on reception:
///
/// ```text
/// +------+-------------+-----------------------+-----------------------+
/// | kind | federate u16| tag (u64 ns, u32 step)| fence (u64 ns, u32)   |
/// +------+-------------+-----------------------+-----------------------+
/// ```
///
/// * `tag` — NET: the earliest pending event tag ([`TAG_NEVER`] if idle);
///   LTC: the completed tag; TAG/PTAG: the granted bound; Join: unused.
/// * `fence` — NET only: a promise that no *new* event (physical
///   injection or network arrival) will be created with a tag below the
///   fence. Together `min(tag, fence)` lower-bounds every tag the
///   federate may still process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoordMsg {
    /// What this message means.
    pub kind: CoordKind,
    /// The federate this message concerns.
    pub federate: u16,
    /// Kind-dependent primary tag.
    pub tag: WireTag,
    /// NET-only fence tag (zero otherwise).
    pub fence: WireTag,
}

impl CoordMsg {
    /// Creates a message with a zero fence.
    #[must_use]
    pub const fn new(kind: CoordKind, federate: u16, tag: WireTag) -> Self {
        CoordMsg {
            kind,
            federate,
            tag,
            fence: WireTag::new(0, 0),
        }
    }

    /// Creates a NET report carrying both the pending head and the fence.
    #[must_use]
    pub const fn net(federate: u16, head: WireTag, fence: WireTag) -> Self {
        CoordMsg {
            kind: CoordKind::Net,
            federate,
            tag: head,
            fence,
        }
    }

    /// The fixed 27-byte record.
    fn record(&self) -> [u8; COORD_PAYLOAD_LEN] {
        let mut r = [0u8; COORD_PAYLOAD_LEN];
        r[0] = self.kind as u8;
        r[1..3].copy_from_slice(&self.federate.to_be_bytes());
        r[3..11].copy_from_slice(&self.tag.nanos.to_be_bytes());
        r[11..15].copy_from_slice(&self.tag.microstep.to_be_bytes());
        r[15..23].copy_from_slice(&self.fence.nanos.to_be_bytes());
        r[23..27].copy_from_slice(&self.fence.microstep.to_be_bytes());
        r
    }

    /// Serializes the payload record to owned bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        self.record().to_vec()
    }

    /// Serializes the payload record into a recycled pool buffer with
    /// SOME/IP header headroom, so the binding puts the control message
    /// on the wire without further copies or allocations. This is the
    /// path the RTI and the coordinated platforms use for all NET, TAG,
    /// PTAG and LTC traffic.
    #[must_use]
    pub fn encode_into(&self, pool: &FramePool) -> FrameBuf {
        let mut buf = pool.acquire();
        buf.reserve_headroom(HEADER_LEN);
        buf.extend_from_slice(&self.record());
        buf.freeze()
    }

    /// Parses a payload record.
    ///
    /// # Errors
    ///
    /// Returns a [`CoordError`] on wrong length or unknown kind.
    pub fn decode(bytes: &[u8]) -> Result<Self, CoordError> {
        if bytes.len() != COORD_PAYLOAD_LEN {
            return Err(CoordError::BadLength(bytes.len()));
        }
        let kind = CoordKind::from_u8(bytes[0])?;
        let be16 = |i: usize| u16::from_be_bytes([bytes[i], bytes[i + 1]]);
        let be64 = |i: usize| u64::from_be_bytes(bytes[i..i + 8].try_into().expect("slice len"));
        let be32 = |i: usize| u32::from_be_bytes(bytes[i..i + 4].try_into().expect("slice len"));
        Ok(CoordMsg {
            kind,
            federate: be16(1),
            tag: WireTag::new(be64(3), be32(11)),
            fence: WireTag::new(be64(15), be32(23)),
        })
    }
}

impl fmt::Display for CoordMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?}(fed={}, tag={})",
            self.kind, self.federate, self.tag
        )
    }
}

/// A batched coordination frame: many [`CoordMsg`] records in one pooled
/// payload (see the module docs). Built incrementally so a coordinator
/// can pack a whole recompute round — grants, floors, liveness records —
/// into a single [`FrameBuf`] without intermediate collections.
#[derive(Debug)]
pub struct CoordBatch {
    buf: FrameMut,
    count: u16,
}

impl CoordBatch {
    /// Starts an empty batch in a recycled pool buffer with SOME/IP
    /// header headroom (the same zero-copy path as
    /// [`CoordMsg::encode_into`]).
    #[must_use]
    pub fn pooled(pool: &FramePool) -> Self {
        let mut buf = pool.acquire();
        buf.reserve_headroom(HEADER_LEN);
        buf.extend_from_slice(&[COORD_BATCH_MARKER, 0, 0]);
        CoordBatch { buf, count: 0 }
    }

    /// Appends one record.
    ///
    /// # Panics
    ///
    /// Panics past `u16::MAX` records — far beyond any federation the
    /// id space admits.
    pub fn push(&mut self, msg: &CoordMsg) {
        self.count = self.count.checked_add(1).expect("batch record count");
        self.buf.extend_from_slice(&msg.record());
    }

    /// Records appended so far.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.count)
    }

    /// Whether no record has been appended yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Finishes the batch: patches the count into the header and freezes
    /// the buffer into a shareable frame view.
    #[must_use]
    pub fn freeze(mut self) -> FrameBuf {
        let count = self.count.to_be_bytes();
        self.buf.as_mut_slice()[1..3].copy_from_slice(&count);
        self.buf.freeze()
    }

    /// Parses a batch payload into a zero-copy record view.
    ///
    /// Validates the framing (marker, declared count vs actual length)
    /// and every record's kind byte up front, so iteration over the view
    /// is infallible.
    ///
    /// # Errors
    ///
    /// Returns [`CoordError::NotABatch`] when the payload does not start
    /// with the marker, [`CoordError::BadBatchLength`] on framing
    /// mismatch and [`CoordError::UnknownKind`] for any bad record.
    pub fn decode(bytes: &[u8]) -> Result<CoordBatchView<'_>, CoordError> {
        if bytes.len() < COORD_BATCH_HEADER_LEN {
            return Err(CoordError::BadLength(bytes.len()));
        }
        if bytes[0] != COORD_BATCH_MARKER {
            return Err(CoordError::NotABatch(bytes[0]));
        }
        let declared = u16::from_be_bytes([bytes[1], bytes[2]]);
        let expected = COORD_BATCH_HEADER_LEN + usize::from(declared) * COORD_PAYLOAD_LEN;
        if bytes.len() != expected {
            return Err(CoordError::BadBatchLength {
                declared,
                got: bytes.len(),
            });
        }
        let records = &bytes[COORD_BATCH_HEADER_LEN..];
        for i in 0..usize::from(declared) {
            CoordKind::from_u8(records[i * COORD_PAYLOAD_LEN])?;
        }
        Ok(CoordBatchView { records })
    }
}

/// The one decode entry point for control payloads: visits every record
/// of `payload` in wire order, whether it is a single record or a
/// [`CoordBatch`] frame, and reports which — `Some(n)` for a batch of `n`
/// records, `None` for a single record.
///
/// The whole payload is validated first: on a malformed one `visit` is
/// never called, so a receiver applies all of a frame or none of it.
///
/// # Errors
///
/// Returns the [`CoordMsg::decode`] or [`CoordBatch::decode`] error.
pub fn visit_control_records(
    payload: &[u8],
    mut visit: impl FnMut(&CoordMsg),
) -> Result<Option<usize>, CoordError> {
    if payload.first() == Some(&COORD_BATCH_MARKER) {
        let batch = CoordBatch::decode(payload)?;
        batch.iter().for_each(|msg| visit(&msg));
        Ok(Some(batch.len()))
    } else {
        visit(&CoordMsg::decode(payload)?);
        Ok(None)
    }
}

/// A validated, zero-copy view over the records of a [`CoordBatch`]
/// payload. Iterate it (or index with [`CoordBatchView::get`]) to read
/// the records in wire order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoordBatchView<'a> {
    records: &'a [u8],
}

impl CoordBatchView<'_> {
    /// Number of records in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len() / COORD_PAYLOAD_LEN
    }

    /// Whether the batch holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The `i`-th record, or `None` past the end.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<CoordMsg> {
        let start = i.checked_mul(COORD_PAYLOAD_LEN)?;
        let bytes = self.records.get(start..start + COORD_PAYLOAD_LEN)?;
        // Kinds were validated in `decode`; length is exact by slicing.
        Some(CoordMsg::decode(bytes).expect("validated record"))
    }

    /// Iterates the records in wire order.
    pub fn iter(&self) -> impl Iterator<Item = CoordMsg> + '_ {
        self.records
            .chunks_exact(COORD_PAYLOAD_LEN)
            .map(|b| CoordMsg::decode(b).expect("validated record"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_is_fixed_size_and_roundtrips() {
        let msg = CoordMsg::net(7, WireTag::new(1_000_000, 3), WireTag::new(900_000, 0));
        let bytes = msg.encode();
        assert_eq!(bytes.len(), COORD_PAYLOAD_LEN);
        assert_eq!(CoordMsg::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn all_kinds_roundtrip() {
        for kind in [
            CoordKind::Join,
            CoordKind::Net,
            CoordKind::Ltc,
            CoordKind::Tag,
            CoordKind::Ptag,
            CoordKind::Resign,
            CoordKind::Floor,
            CoordKind::Dnet,
            CoordKind::Period,
            CoordKind::Rejoin,
        ] {
            let msg = CoordMsg::new(kind, 42, WireTag::new(5, 1));
            assert_eq!(CoordMsg::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn decode_rejects_bad_length_and_kind() {
        assert_eq!(CoordMsg::decode(&[]), Err(CoordError::BadLength(0)));
        let mut bytes = CoordMsg::new(CoordKind::Net, 1, TAG_NEVER).encode();
        bytes.push(0);
        assert_eq!(
            CoordMsg::decode(&bytes),
            Err(CoordError::BadLength(COORD_PAYLOAD_LEN + 1))
        );
        let mut bytes = CoordMsg::new(CoordKind::Net, 1, TAG_NEVER).encode();
        bytes[0] = 0x7F;
        assert_eq!(CoordMsg::decode(&bytes), Err(CoordError::UnknownKind(0x7F)));
    }

    #[test]
    fn eventgroups_are_per_federate() {
        assert_ne!(coord_eventgroup(0), coord_eventgroup(1));
        assert_eq!(coord_eventgroup(3), COORD_EVENTGROUP_BASE + 3);
    }

    #[test]
    fn batch_roundtrips_and_recycles() {
        let pool = FramePool::new();
        let records = [
            CoordMsg::net(3, WireTag::new(10, 0), WireTag::new(5, 0)),
            CoordMsg::new(CoordKind::Tag, 7, WireTag::new(99, 2)),
            CoordMsg::new(CoordKind::Floor, 1, WireTag::new(42, 0)),
        ];
        for round in 0..3 {
            let mut batch = CoordBatch::pooled(&pool);
            assert!(batch.is_empty());
            for r in &records {
                batch.push(r);
            }
            assert_eq!(batch.len(), 3);
            let frame = batch.freeze();
            assert_eq!(
                frame.len(),
                COORD_BATCH_HEADER_LEN + 3 * COORD_PAYLOAD_LEN,
                "round {round}"
            );
            let view = CoordBatch::decode(&frame).unwrap();
            assert_eq!(view.len(), 3);
            assert_eq!(view.iter().collect::<Vec<_>>(), records);
            assert_eq!(view.get(1), Some(records[1]));
            assert_eq!(view.get(3), None);
        }
        assert_eq!(pool.stats().created, 1, "one buffer serves every round");
        assert_eq!(pool.stats().reused, 2);
    }

    #[test]
    fn empty_batch_is_valid() {
        let pool = FramePool::new();
        let frame = CoordBatch::pooled(&pool).freeze();
        let view = CoordBatch::decode(&frame).unwrap();
        assert!(view.is_empty());
        assert_eq!(view.iter().count(), 0);
    }

    #[test]
    fn batch_decode_rejects_bad_framing() {
        // Not a batch: single records keep decoding as before.
        let single = CoordMsg::new(CoordKind::Net, 1, TAG_NEVER).encode();
        assert_eq!(
            CoordBatch::decode(&single),
            Err(CoordError::NotABatch(CoordKind::Net as u8))
        );
        // Truncated header.
        assert_eq!(
            CoordBatch::decode(&[COORD_BATCH_MARKER]),
            Err(CoordError::BadLength(1))
        );
        // Count/length mismatch.
        let pool = FramePool::new();
        let mut batch = CoordBatch::pooled(&pool);
        batch.push(&CoordMsg::new(CoordKind::Ltc, 0, TAG_NEVER));
        let frame = batch.freeze();
        let mut bytes = frame.to_vec();
        bytes.push(0);
        assert_eq!(
            CoordBatch::decode(&bytes),
            Err(CoordError::BadBatchLength {
                declared: 1,
                got: bytes.len()
            })
        );
        // Bad record kind inside an otherwise well-framed batch.
        let mut bytes = frame.to_vec();
        bytes[COORD_BATCH_HEADER_LEN] = 0x7F;
        assert_eq!(
            CoordBatch::decode(&bytes),
            Err(CoordError::UnknownKind(0x7F))
        );
    }

    #[test]
    fn batch_marker_is_disjoint_from_kinds() {
        for k in 1..=10u8 {
            assert_ne!(k, COORD_BATCH_MARKER);
            CoordKind::from_u8(k).unwrap();
        }
    }
}
