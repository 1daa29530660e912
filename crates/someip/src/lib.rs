//! # dear-someip — SOME/IP middleware simulation with the DEAR tag extension
//!
//! AUTOSAR AP suggests SOME/IP as its communication middleware (paper
//! §II.A). This crate implements, over the `dear-sim` network:
//!
//! * the SOME/IP **wire format** ([`SomeIpMessage`], 16-byte header,
//!   big-endian payloads) including request/response correlation and
//!   error return codes;
//! * **service discovery** ([`SdRegistry`]): offer/find/subscribe with
//!   TTLs — the dynamic binding that makes AP "adaptive";
//! * the per-node **binding** ([`Binding`]): pending-request tables,
//!   method/event handler dispatch, fan-out notifications;
//! * the paper's **modified binding** (§III.B): an optional logical
//!   timestamp ([`WireTag`]) that travels with its message. A transactor
//!   passes it to a tagged send ([`Binding::call_tagged`],
//!   [`Binding::notify_tagged`], [`Responder::reply_tagged`]; Fig. 3
//!   steps 2–5 and 13–16) and reads it back from the received
//!   [`SomeIpMessage::tag`] (steps 7–10 and 18–21). The tag-free sends the
//!   standard proxy/skeleton use stay unchanged;
//! * the **coordination service** ([`CoordMsg`]): the NET/TAG/PTAG/LTC
//!   control messages a centralized coordinator (`dear-federation`'s RTI)
//!   exchanges with federates, carried as ordinary SOME/IP methods and
//!   event notifications;
//! * a **zero-copy data path**: payloads live in pooled,
//!   reference-counted [`FrameBuf`] buffers (re-exported from
//!   `dear-sim`). A pooled [`PayloadWriter`] reserves header headroom,
//!   [`SomeIpMessage::into_frame`] wraps the wire header around the
//!   payload in place, and [`SomeIpMessage::decode_frame`] yields a
//!   payload that is a view into the received frame — end to end, the
//!   payload bytes are written once and read in place.
//!
//! See the [`Binding`] example for a complete client/server round trip.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod binding;
mod coord;
mod payload;
mod sd;
mod wire;

pub use binding::{Binding, BindingError, BindingStats, Responder};
// The frame types are defined in `dear-sim` (the network layer queues
// them), but they are the middleware's payload currency, so they are
// re-exported here for the layers above.
pub use coord::{
    coord_eventgroup, visit_control_records, CoordBatch, CoordBatchView, CoordError, CoordKind,
    CoordMsg, COORD_BATCH_HEADER_LEN, COORD_BATCH_MARKER, COORD_EVENT, COORD_EVENTGROUP_BASE,
    COORD_INSTANCE, COORD_METHOD, COORD_SERVICE, DNET_NET_LATTICE, DNET_SINK, TAG_NEVER,
};
pub use dear_sim::{FrameBuf, FrameMut, FramePool, FramePoolStats};
pub use payload::{PayloadError, PayloadReader, PayloadWriter};
pub use sd::{Offer, SdRegistry, ServiceInstance, ANY_INSTANCE};
pub use wire::{
    MessageId, MessageType, RequestId, ReturnCode, SomeIpMessage, WireError, WireTag, HEADER_LEN,
};
