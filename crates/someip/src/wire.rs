//! SOME/IP wire format (per the AUTOSAR FO R1.5.0 protocol specification)
//! plus the DEAR tag extension.
//!
//! A SOME/IP message has a 16-byte header:
//!
//! ```text
//! +---------------------------+---------------------------+
//! |        Message ID (Service ID u16 / Method ID u16)    |
//! +--------------------------------------------------------+
//! |        Length (bytes from Request ID to end)           |
//! +--------------------------------------------------------+
//! |        Request ID (Client ID u16 / Session ID u16)     |
//! +------------+------------+---------------+--------------+
//! | Proto Ver  | Iface Ver  | Message Type  | Return Code  |
//! +------------+------------+---------------+--------------+
//! |                      Payload ...                       |
//! ```
//!
//! **DEAR extension** (paper §III.B): the modified binding "optionally
//! append\[s\] tags to outgoing messages and ... retrieve\[s\] tags from
//! incoming messages if available". We signal the presence of the 16-byte
//! tag trailer (magic `"DEAR"`, 8-byte nanoseconds, 4-byte microstep) by
//! bumping the protocol version to [`PROTOCOL_VERSION_DEAR`]. This keeps
//! plain SOME/IP messages byte-identical to the standard and makes the
//! extension "a new third-party middleware that extends over SOME/IP".

use dear_sim::{FrameBuf, FramePool};
use std::error::Error;
use std::fmt;

/// Standard SOME/IP protocol version.
pub(crate) const PROTOCOL_VERSION: u8 = 0x01;
/// Protocol version advertised by the DEAR-modified binding (tag trailer
/// present).
pub(crate) const PROTOCOL_VERSION_DEAR: u8 = 0x02;
/// Magic bytes opening the tag trailer.
pub(crate) const TAG_MAGIC: [u8; 4] = *b"DEAR";
/// Size of the fixed header in bytes.
pub const HEADER_LEN: usize = 16;
/// Size of the tag trailer in bytes.
pub(crate) const TAG_TRAILER_LEN: usize = 16;

/// Message ID: service + method/event identifier.
///
/// Event IDs conventionally have the top bit set (0x8000).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageId {
    /// The service this message addresses.
    pub(crate) service: u16,
    /// Method or event within the service.
    pub(crate) method: u16,
}

impl MessageId {
    /// Creates a message id.
    #[must_use]
    pub const fn new(service: u16, method: u16) -> Self {
        MessageId { service, method }
    }
}

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04x}.{:04x}", self.service, self.method)
    }
}

/// Request ID: client + session identifier, matching responses to requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RequestId {
    /// The calling client.
    pub(crate) client: u16,
    /// Session counter within the client.
    pub(crate) session: u16,
}

impl RequestId {
    /// Creates a request id.
    #[must_use]
    pub const fn new(client: u16, session: u16) -> Self {
        RequestId { client, session }
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04x}:{:04x}", self.client, self.session)
    }
}

/// SOME/IP message types (subset relevant to AP request/response/event
/// communication).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MessageType {
    /// A method call expecting a response.
    Request = 0x00,
    /// A fire-and-forget method call.
    RequestNoReturn = 0x01,
    /// An event notification.
    Notification = 0x02,
    /// A successful method response.
    Response = 0x80,
    /// An error response.
    Error = 0x81,
}

impl MessageType {
    /// Parses a wire byte.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnknownMessageType`] for unassigned values.
    pub fn from_u8(v: u8) -> Result<Self, WireError> {
        match v {
            0x00 => Ok(MessageType::Request),
            0x01 => Ok(MessageType::RequestNoReturn),
            0x02 => Ok(MessageType::Notification),
            0x80 => Ok(MessageType::Response),
            0x81 => Ok(MessageType::Error),
            other => Err(WireError::UnknownMessageType(other)),
        }
    }
}

/// SOME/IP return codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ReturnCode {
    /// No error.
    Ok = 0x00,
    /// Unspecified error.
    NotOk = 0x01,
    /// The requested service id is unknown.
    UnknownService = 0x02,
    /// The requested method id is unknown.
    UnknownMethod = 0x03,
    /// The service is not ready to serve requests.
    NotReady = 0x04,
    /// Malformed message.
    MalformedMessage = 0x09,
}

impl ReturnCode {
    /// Parses a wire byte.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnknownReturnCode`] for unassigned values.
    pub fn from_u8(v: u8) -> Result<Self, WireError> {
        match v {
            0x00 => Ok(ReturnCode::Ok),
            0x01 => Ok(ReturnCode::NotOk),
            0x02 => Ok(ReturnCode::UnknownService),
            0x03 => Ok(ReturnCode::UnknownMethod),
            0x04 => Ok(ReturnCode::NotReady),
            0x09 => Ok(ReturnCode::MalformedMessage),
            other => Err(WireError::UnknownReturnCode(other)),
        }
    }
}

/// A logical timestamp carried on the wire by the DEAR extension.
///
/// Mirrors `dear_core::Tag` but is defined independently so that the
/// middleware layer has no dependency on the reactor runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WireTag {
    /// Nanoseconds since the shared (synchronized) time epoch.
    pub nanos: u64,
    /// Microstep within the time point.
    pub microstep: u32,
}

impl WireTag {
    /// Creates a wire tag.
    #[must_use]
    pub const fn new(nanos: u64, microstep: u32) -> Self {
        WireTag { nanos, microstep }
    }
}

impl fmt::Display for WireTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}ns, {})", self.nanos, self.microstep)
    }
}

/// Errors produced while encoding or decoding SOME/IP messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than a header, or fewer than the length field claims.
    Truncated {
        /// Bytes needed.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// The length field disagrees with the frame size.
    LengthMismatch {
        /// Length field value.
        declared: u32,
        /// Actual body size.
        actual: usize,
    },
    /// Unknown message type byte.
    UnknownMessageType(u8),
    /// Unknown return code byte.
    UnknownReturnCode(u8),
    /// Unsupported protocol version byte.
    UnsupportedProtocol(u8),
    /// A DEAR frame whose trailer lacks the magic bytes.
    BadTagMagic,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            WireError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "length field {declared} disagrees with body size {actual}"
                )
            }
            WireError::UnknownMessageType(v) => write!(f, "unknown message type 0x{v:02x}"),
            WireError::UnknownReturnCode(v) => write!(f, "unknown return code 0x{v:02x}"),
            WireError::UnsupportedProtocol(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadTagMagic => write!(f, "tag trailer magic missing in DEAR frame"),
        }
    }
}

impl Error for WireError {}

/// A complete SOME/IP message (header fields + payload + optional tag).
///
/// The payload is a [`FrameBuf`] view: a message decoded with
/// [`SomeIpMessage::decode_frame`] borrows the received frame's bytes in
/// place, and one assembled with [`SomeIpMessage::into_frame`] wraps the
/// wire header around a pooled payload without copying it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SomeIpMessage {
    /// Service/method address.
    pub message_id: MessageId,
    /// Client/session correlation id.
    pub request_id: RequestId,
    /// Interface major version.
    pub interface_version: u8,
    /// Kind of message.
    pub message_type: MessageType,
    /// Result status (meaningful on responses).
    pub return_code: ReturnCode,
    /// Serialized arguments / return values.
    pub payload: FrameBuf,
    /// The DEAR logical timestamp, when sent by a modified binding.
    pub tag: Option<WireTag>,
}

impl SomeIpMessage {
    /// Creates a request message.
    #[must_use]
    pub fn request(
        message_id: MessageId,
        request_id: RequestId,
        payload: impl Into<FrameBuf>,
    ) -> Self {
        SomeIpMessage {
            message_id,
            request_id,
            interface_version: 1,
            message_type: MessageType::Request,
            return_code: ReturnCode::Ok,
            payload: payload.into(),
            tag: None,
        }
    }

    /// Creates the response to a request, reusing its addressing.
    #[must_use]
    pub(crate) fn response_to(request: &SomeIpMessage, payload: impl Into<FrameBuf>) -> Self {
        SomeIpMessage {
            message_id: request.message_id,
            request_id: request.request_id,
            interface_version: request.interface_version,
            message_type: MessageType::Response,
            return_code: ReturnCode::Ok,
            payload: payload.into(),
            tag: None,
        }
    }

    /// Creates an error response to a request.
    #[must_use]
    pub(crate) fn error_to(request: &SomeIpMessage, code: ReturnCode) -> Self {
        SomeIpMessage {
            message_id: request.message_id,
            request_id: request.request_id,
            interface_version: request.interface_version,
            message_type: MessageType::Error,
            return_code: code,
            payload: FrameBuf::new(),
            tag: None,
        }
    }

    /// Creates an event notification.
    #[must_use]
    pub fn notification(message_id: MessageId, payload: impl Into<FrameBuf>) -> Self {
        SomeIpMessage {
            message_id,
            request_id: RequestId::default(),
            interface_version: 1,
            message_type: MessageType::Notification,
            return_code: ReturnCode::Ok,
            payload: payload.into(),
            tag: None,
        }
    }

    /// Returns a copy carrying the given tag (the modified binding's
    /// "append tag" step).
    #[must_use]
    pub fn with_tag(mut self, tag: WireTag) -> Self {
        self.tag = Some(tag);
        self
    }

    /// The 16 header bytes this message puts on the wire.
    fn header_bytes(&self) -> [u8; HEADER_LEN] {
        let trailer = if self.tag.is_some() {
            TAG_TRAILER_LEN
        } else {
            0
        };
        let length = u32::try_from(8 + self.payload.len() + trailer).expect("payload too large");
        let mut h = [0u8; HEADER_LEN];
        h[0..2].copy_from_slice(&self.message_id.service.to_be_bytes());
        h[2..4].copy_from_slice(&self.message_id.method.to_be_bytes());
        h[4..8].copy_from_slice(&length.to_be_bytes());
        h[8..10].copy_from_slice(&self.request_id.client.to_be_bytes());
        h[10..12].copy_from_slice(&self.request_id.session.to_be_bytes());
        h[12] = if self.tag.is_some() {
            PROTOCOL_VERSION_DEAR
        } else {
            PROTOCOL_VERSION
        };
        h[13] = self.interface_version;
        h[14] = self.message_type as u8;
        h[15] = self.return_code as u8;
        h
    }

    /// The 16 trailer bytes of a DEAR tag.
    fn trailer_bytes(tag: WireTag) -> [u8; TAG_TRAILER_LEN] {
        let mut t = [0u8; TAG_TRAILER_LEN];
        t[0..4].copy_from_slice(&TAG_MAGIC);
        t[4..12].copy_from_slice(&tag.nanos.to_be_bytes());
        t[12..16].copy_from_slice(&tag.microstep.to_be_bytes());
        t
    }

    /// Serializes the message to owned wire bytes.
    ///
    /// This is the allocating reference encoder; the hot path uses
    /// [`SomeIpMessage::into_frame`], whose output is byte-identical
    /// (property-tested in `tests/frame_path.rs`).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let trailer = if self.tag.is_some() {
            TAG_TRAILER_LEN
        } else {
            0
        };
        let mut buf = Vec::with_capacity(HEADER_LEN + self.payload.len() + trailer);
        buf.extend_from_slice(&self.header_bytes());
        buf.extend_from_slice(&self.payload);
        if let Some(tag) = self.tag {
            buf.extend_from_slice(&Self::trailer_bytes(tag));
        }
        buf
    }

    /// Assembles the wire frame into a pooled buffer, consuming the
    /// message.
    ///
    /// When the payload is the unique view of a buffer with
    /// [`HEADER_LEN`] bytes of headroom (the state a pooled
    /// [`PayloadWriter`](crate::PayloadWriter) produces), the header and
    /// optional tag trailer are written *around the payload in place* —
    /// zero payload copies and, in steady state, zero allocations.
    /// Otherwise the frame is assembled by one copy into a fresh pooled
    /// buffer. Both paths produce bytes identical to
    /// [`SomeIpMessage::encode`].
    #[must_use]
    pub fn into_frame(self, pool: &FramePool) -> FrameBuf {
        let header = self.header_bytes();
        let trailer = self.tag.map(Self::trailer_bytes);
        let trailer: &[u8] = trailer.as_ref().map_or(&[], |t| &t[..]);
        match self.payload.extend_in_place(&header, trailer) {
            Ok(frame) => frame,
            Err(payload) => {
                let mut buf = pool.acquire();
                buf.extend_from_slice(&header);
                buf.extend_from_slice(&payload);
                buf.extend_from_slice(trailer);
                buf.freeze()
            }
        }
    }

    /// Parses the header and locates the payload: returns the message
    /// with an **empty** payload plus the payload's byte range within
    /// `bytes` (the caller decides whether to view or copy it).
    fn parse(bytes: &[u8]) -> Result<(Self, std::ops::Range<usize>), WireError> {
        if bytes.len() < HEADER_LEN {
            return Err(WireError::Truncated {
                needed: HEADER_LEN,
                got: bytes.len(),
            });
        }
        let be16 = |i: usize| u16::from_be_bytes([bytes[i], bytes[i + 1]]);
        let service = be16(0);
        let method = be16(2);
        let length = u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        let client = be16(8);
        let session = be16(10);
        let protocol = bytes[12];
        let interface_version = bytes[13];
        let message_type = MessageType::from_u8(bytes[14])?;
        let return_code = ReturnCode::from_u8(bytes[15])?;

        let body = &bytes[HEADER_LEN..];
        let declared_body = (length as usize)
            .checked_sub(8)
            .ok_or(WireError::LengthMismatch {
                declared: length,
                actual: body.len(),
            })?;
        if body.len() < declared_body {
            return Err(WireError::Truncated {
                needed: HEADER_LEN + declared_body,
                got: bytes.len(),
            });
        }
        if body.len() != declared_body {
            return Err(WireError::LengthMismatch {
                declared: length,
                actual: body.len(),
            });
        }

        let (payload_len, tag) = match protocol {
            PROTOCOL_VERSION => (body.len(), None),
            PROTOCOL_VERSION_DEAR => {
                if body.len() < TAG_TRAILER_LEN {
                    return Err(WireError::Truncated {
                        needed: HEADER_LEN + TAG_TRAILER_LEN,
                        got: bytes.len(),
                    });
                }
                let trailer = &body[body.len() - TAG_TRAILER_LEN..];
                if trailer[0..4] != TAG_MAGIC {
                    return Err(WireError::BadTagMagic);
                }
                let nanos = u64::from_be_bytes(trailer[4..12].try_into().expect("slice len"));
                let microstep = u32::from_be_bytes(trailer[12..16].try_into().expect("slice len"));
                (
                    body.len() - TAG_TRAILER_LEN,
                    Some(WireTag { nanos, microstep }),
                )
            }
            other => return Err(WireError::UnsupportedProtocol(other)),
        };

        Ok((
            SomeIpMessage {
                message_id: MessageId { service, method },
                request_id: RequestId { client, session },
                interface_version,
                message_type,
                return_code,
                payload: FrameBuf::new(),
                tag,
            },
            HEADER_LEN..HEADER_LEN + payload_len,
        ))
    }

    /// Parses a message from wire bytes, copying the payload out.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated frames, length mismatches,
    /// unknown enums, unsupported protocol versions, or a missing tag
    /// trailer in a frame that advertises one.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let (mut msg, payload) = Self::parse(bytes)?;
        msg.payload = FrameBuf::from(&bytes[payload]);
        Ok(msg)
    }

    /// Parses a message from a received frame **without copying**: the
    /// returned message's payload is a [`FrameBuf`] view into `frame`'s
    /// buffer, read in place by the layers above.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SomeIpMessage::decode`].
    pub fn decode_frame(frame: &FrameBuf) -> Result<Self, WireError> {
        let (mut msg, payload) = Self::parse(frame)?;
        msg.payload = frame.slice(payload.start, payload.end);
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn golden_bytes_plain_request() {
        let msg = SomeIpMessage {
            message_id: MessageId::new(0x1234, 0x0421),
            request_id: RequestId::new(0x0001, 0x0002),
            interface_version: 3,
            message_type: MessageType::Request,
            return_code: ReturnCode::Ok,
            payload: vec![0xDE, 0xAD].into(),
            tag: None,
        };
        let bytes = msg.encode();
        assert_eq!(
            bytes,
            vec![
                0x12, 0x34, 0x04, 0x21, // message id
                0x00, 0x00, 0x00, 0x0A, // length = 8 + 2
                0x00, 0x01, 0x00, 0x02, // request id
                0x01, 0x03, 0x00, 0x00, // proto, iface, type, retcode
                0xDE, 0xAD, // payload
            ]
        );
        assert_eq!(SomeIpMessage::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn golden_bytes_tagged_notification() {
        let msg = SomeIpMessage::notification(MessageId::new(0x00AA, 0x8001), vec![7])
            .with_tag(WireTag::new(0x0102030405060708, 9));
        let bytes = msg.encode();
        assert_eq!(bytes.len(), HEADER_LEN + 1 + TAG_TRAILER_LEN);
        assert_eq!(bytes[12], PROTOCOL_VERSION_DEAR);
        // length covers request-id half of header + payload + trailer
        assert_eq!(
            u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]),
            8 + 1 + 16
        );
        assert_eq!(&bytes[17..21], b"DEAR");
        let decoded = SomeIpMessage::decode(&bytes).unwrap();
        assert_eq!(decoded.tag, Some(WireTag::new(0x0102030405060708, 9)));
        assert_eq!(decoded.payload, vec![7]);
    }

    #[test]
    fn untagged_messages_are_standard_someip() {
        let msg = SomeIpMessage::request(MessageId::new(1, 2), RequestId::new(3, 4), vec![1, 2, 3]);
        let bytes = msg.encode();
        assert_eq!(bytes[12], PROTOCOL_VERSION, "standard protocol version");
        assert_eq!(bytes.len(), HEADER_LEN + 3, "no trailer");
    }

    #[test]
    fn decode_rejects_truncated_frames() {
        let msg = SomeIpMessage::request(MessageId::new(1, 2), RequestId::new(3, 4), vec![9; 10]);
        let bytes = msg.encode();
        for cut in [0, 5, HEADER_LEN, bytes.len() - 1] {
            assert!(
                SomeIpMessage::decode(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn decode_rejects_length_mismatch() {
        let msg = SomeIpMessage::request(MessageId::new(1, 2), RequestId::new(3, 4), vec![1]);
        let mut bytes = msg.encode();
        bytes.extend_from_slice(&[0xFF; 4]); // extra trailing garbage
        assert!(matches!(
            SomeIpMessage::decode(&bytes),
            Err(WireError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn decode_rejects_unknown_enums_and_protocols() {
        let msg = SomeIpMessage::request(MessageId::new(1, 2), RequestId::new(3, 4), vec![]);
        let mut bad_type = msg.encode();
        bad_type[14] = 0x55;
        assert_eq!(
            SomeIpMessage::decode(&bad_type),
            Err(WireError::UnknownMessageType(0x55))
        );
        let mut bad_ret = msg.encode();
        bad_ret[15] = 0x77;
        assert_eq!(
            SomeIpMessage::decode(&bad_ret),
            Err(WireError::UnknownReturnCode(0x77))
        );
        let mut bad_proto = msg.encode();
        bad_proto[12] = 0x09;
        assert_eq!(
            SomeIpMessage::decode(&bad_proto),
            Err(WireError::UnsupportedProtocol(0x09))
        );
    }

    #[test]
    fn decode_rejects_bad_tag_magic() {
        let msg =
            SomeIpMessage::notification(MessageId::new(1, 2), vec![]).with_tag(WireTag::new(5, 0));
        let mut bytes = msg.encode();
        let magic_at = bytes.len() - TAG_TRAILER_LEN;
        bytes[magic_at] = b'X';
        assert_eq!(SomeIpMessage::decode(&bytes), Err(WireError::BadTagMagic));
    }

    #[test]
    fn response_and_error_constructors_echo_addressing() {
        let req = SomeIpMessage::request(MessageId::new(10, 20), RequestId::new(30, 40), vec![1]);
        let resp = SomeIpMessage::response_to(&req, vec![2]);
        assert_eq!(resp.message_id, req.message_id);
        assert_eq!(resp.request_id, req.request_id);
        assert_eq!(resp.message_type, MessageType::Response);
        let err = SomeIpMessage::error_to(&req, ReturnCode::UnknownMethod);
        assert_eq!(err.message_type, MessageType::Error);
        assert_eq!(err.return_code, ReturnCode::UnknownMethod);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            service in any::<u16>(), method in any::<u16>(),
            client in any::<u16>(), session in any::<u16>(),
            iface in any::<u8>(),
            payload in proptest::collection::vec(any::<u8>(), 0..64),
            tag in proptest::option::of((any::<u64>(), any::<u32>())),
        ) {
            let msg = SomeIpMessage {
                message_id: MessageId::new(service, method),
                request_id: RequestId::new(client, session),
                interface_version: iface,
                message_type: MessageType::Request,
                return_code: ReturnCode::Ok,
                payload: payload.into(),
                tag: tag.map(|(n, m)| WireTag::new(n, m)),
            };
            let decoded = SomeIpMessage::decode(&msg.encode()).unwrap();
            prop_assert_eq!(decoded, msg);
        }
    }
}
