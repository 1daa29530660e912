//! Property tests for the coordination wire messages: encode→decode must
//! be the identity, and the decoder must never panic on arbitrary bytes —
//! mirroring the `fuzz_decode` guarantees for the data-plane frames.

use dear_sim::FramePool;
use dear_someip::{
    visit_control_records, CoordBatch, CoordKind, CoordMsg, MessageId, SomeIpMessage, WireTag,
    COORD_BATCH_HEADER_LEN, COORD_BATCH_MARKER, COORD_METHOD, COORD_SERVICE,
};
use proptest::prelude::*;

fn kind(index: u8) -> CoordKind {
    CoordKind::from_u8(index % 10 + 1).expect("all ten kinds are assigned")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn payload_roundtrip(
        kind_index in any::<u8>(),
        federate in any::<u16>(),
        nanos in any::<u64>(), microstep in any::<u32>(),
        fence_nanos in any::<u64>(), fence_microstep in any::<u32>(),
    ) {
        let msg = CoordMsg {
            kind: kind(kind_index),
            federate,
            tag: WireTag::new(nanos, microstep),
            fence: WireTag::new(fence_nanos, fence_microstep),
        };
        prop_assert_eq!(CoordMsg::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn roundtrip_through_a_full_someip_frame(
        kind_index in any::<u8>(),
        federate in any::<u16>(),
        nanos in any::<u64>(), microstep in any::<u32>(),
    ) {
        // The carriage the RTI client actually uses: the coordination
        // record as the payload of an ordinary SOME/IP message.
        let msg = CoordMsg::new(kind(kind_index), federate, WireTag::new(nanos, microstep));
        let frame = SomeIpMessage::notification(
            MessageId::new(COORD_SERVICE, COORD_METHOD),
            msg.encode(),
        );
        let decoded_frame = SomeIpMessage::decode(&frame.encode()).unwrap();
        prop_assert_eq!(CoordMsg::decode(&decoded_frame.payload).unwrap(), msg);
    }

    #[test]
    fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = CoordMsg::decode(&bytes);
    }

    #[test]
    fn batch_roundtrip(
        records in proptest::collection::vec(
            (any::<u8>(), any::<u16>(), any::<u64>(), any::<u32>()),
            0..48,
        ),
    ) {
        // The zone-protocol carriage: N records packed behind the batch
        // marker must come back out in order, bit for bit.
        let msgs: Vec<CoordMsg> = records
            .iter()
            .map(|&(k, federate, nanos, microstep)| {
                CoordMsg::new(kind(k), federate, WireTag::new(nanos, microstep))
            })
            .collect();
        let pool = FramePool::new();
        let mut batch = CoordBatch::pooled(&pool);
        for msg in &msgs {
            batch.push(msg);
        }
        let frame = batch.freeze();
        let view = CoordBatch::decode(frame.as_slice()).unwrap();
        prop_assert_eq!(view.len(), msgs.len());
        prop_assert_eq!(view.iter().collect::<Vec<_>>(), msgs);
    }

    #[test]
    fn batch_decode_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        force_marker in any::<bool>(),
    ) {
        // Arbitrary bytes, with and without a valid-looking marker — the
        // decoder errors cleanly on truncated or misdeclared counts.
        let mut bytes = bytes;
        if force_marker && !bytes.is_empty() {
            bytes[0] = COORD_BATCH_MARKER;
        }
        let _ = CoordBatch::decode(&bytes);
    }

    #[test]
    fn single_record_and_batch_of_one_visit_the_same_record(
        kind_index in any::<u8>(),
        federate in any::<u16>(),
        nanos in any::<u64>(), microstep in any::<u32>(),
        fence_nanos in any::<u64>(), fence_microstep in any::<u32>(),
    ) {
        // The one decode entry point: a receiver sees the same record
        // whichever carriage the sender chose, and is told which it was.
        let msg = CoordMsg {
            kind: kind(kind_index),
            federate,
            tag: WireTag::new(nanos, microstep),
            fence: WireTag::new(fence_nanos, fence_microstep),
        };
        let mut batch = CoordBatch::pooled(&FramePool::new());
        batch.push(&msg);
        let mut single = Vec::new();
        let mut batched = Vec::new();
        prop_assert_eq!(visit_control_records(&msg.encode(), |m| single.push(*m)), Ok(None));
        prop_assert_eq!(
            visit_control_records(batch.freeze().as_slice(), |m| batched.push(*m)),
            Ok(Some(1))
        );
        prop_assert_eq!(&single, &[msg]);
        prop_assert_eq!(single, batched);
    }

    #[test]
    fn truncated_batch_applies_nothing(
        records in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u64>()), 1..16),
        cut in any::<usize>(),
    ) {
        // All of a frame or none of it: a batch cut anywhere short of its
        // declared length is an error, and no record of it is visited —
        // not even the complete ones before the cut.
        let mut batch = CoordBatch::pooled(&FramePool::new());
        for &(k, federate, nanos) in &records {
            batch.push(&CoordMsg::new(kind(k), federate, WireTag::new(nanos, 0)));
        }
        let frame = batch.freeze();
        let bytes = frame.as_slice();
        let keep = COORD_BATCH_HEADER_LEN + cut % (bytes.len() - COORD_BATCH_HEADER_LEN);
        let mut visited = 0;
        prop_assert!(visit_control_records(&bytes[..keep], |_| visited += 1).is_err());
        prop_assert_eq!(visited, 0);
    }

    #[test]
    fn decode_of_mutated_valid_record_never_panics(
        kind_index in any::<u8>(),
        federate in any::<u16>(),
        nanos in any::<u64>(),
        flip_at in any::<usize>(),
        flip_bits in 1u8..=255,
    ) {
        let mut bytes = CoordMsg::new(kind(kind_index), federate, WireTag::new(nanos, 0)).encode();
        let idx = flip_at % bytes.len();
        bytes[idx] ^= flip_bits;
        // Same length, so it decodes to *some* record or a clean unknown
        // kind error; either way no panic and no silent length confusion.
        let _ = CoordMsg::decode(&bytes);
    }
}
