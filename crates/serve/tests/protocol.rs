//! Property tests for the wire protocol.
//!
//! Three families: round trips (every frame re-encodes to the identical
//! byte string after a decode — the bit-exactness the end-to-end
//! determinism check rests on), version negotiation (exactly one version
//! is spoken; any other is a typed rejection decided on the header
//! alone), and malformed-input fuzzing (arbitrary and corrupted byte
//! strings produce typed errors, never panics, and never allocations
//! beyond the length cap).

use proptest::collection::vec;
use proptest::prelude::*;
use sknn_geom::{Point2, Rect2};
use sknn_serve::protocol::{
    parse_header, ErrorCode, ErrorFrame, ExecRequestFrame, Frame, ProtocolError, QueryFrame,
    RadiusFrame, RadiusRequestFrame, RangeFrame, RangeRequestFrame, ResponseFrame, SeedsFrame,
    SeedsRequestFrame, ServerTiming, StatsFrame, TraceDumpFrame, WireNeighbor, WireObject,
    HEADER_LEN, MAX_PAYLOAD, VERSION,
};

fn short_string() -> impl Strategy<Value = String> {
    vec(any::<char>(), 0..16).prop_map(|cs| cs.into_iter().collect())
}

fn wire_f64() -> impl Strategy<Value = f64> {
    // All bit patterns, including NaNs, infinities and -0.0: the wire
    // format must preserve every one exactly.
    any::<u64>().prop_map(f64::from_bits)
}

fn error_code() -> impl Strategy<Value = ErrorCode> {
    (0u8..6).prop_map(|i| {
        [
            ErrorCode::Overloaded,
            ErrorCode::DeadlineExpired,
            ErrorCode::FaultBudgetExceeded,
            ErrorCode::ShuttingDown,
            ErrorCode::BadRequest,
            ErrorCode::Internal,
        ][i as usize]
    })
}

fn neighbor() -> impl Strategy<Value = WireNeighbor> {
    (any::<u32>(), wire_f64(), wire_f64()).prop_map(|(id, lb, ub)| WireNeighbor { id, lb, ub })
}

fn server_timing() -> impl Strategy<Value = ServerTiming> {
    (
        (any::<u32>(), any::<u32>(), any::<u32>()),
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        any::<u32>(),
        any::<u16>(),
    )
        .prop_map(|((queue_us, linger_us, exec_us), stages, stall_us, batch)| {
            let (knn2d_us, radius_us, range_us, rank_us) = stages;
            ServerTiming {
                queue_us,
                linger_us,
                exec_us,
                knn2d_us,
                radius_us,
                range_us,
                rank_us,
                stall_us,
                batch,
            }
        })
}

fn query_frame() -> impl Strategy<Value = QueryFrame> {
    (
        (any::<u64>(), any::<u32>(), wire_f64(), wire_f64(), wire_f64()),
        (any::<u32>(), any::<u32>(), any::<u64>()),
        (wire_f64(), wire_f64(), wire_f64(), wire_f64()),
    )
        .prop_map(|((req_id, tri, x, y, z), (k, deadline_ms, trace_id), (lx, ly, hx, hy))| {
            let within = Rect2::new(Point2::new(lx, ly), Point2::new(hx, hy));
            QueryFrame { req_id, tri, x, y, z, k, deadline_ms, trace_id, within }
        })
}

fn response_frame() -> impl Strategy<Value = ResponseFrame> {
    (
        any::<u64>(),
        any::<u64>(),
        vec(neighbor(), 0..24),
        any::<bool>(),
        short_string(),
        server_timing(),
        wire_f64(),
    )
        .prop_map(
            |(req_id, trace_id, neighbors, degraded_some, degraded_text, timing, radius)| {
                ResponseFrame {
                    req_id,
                    trace_id,
                    neighbors,
                    degraded: degraded_some.then_some(degraded_text),
                    timing,
                    radius,
                }
            },
        )
}

fn wire_object() -> impl Strategy<Value = WireObject> {
    (any::<u32>(), any::<u32>(), wire_f64(), wire_f64(), wire_f64())
        .prop_map(|(id, tri, x, y, z)| WireObject { id, tri, x, y, z })
}

/// Encode → decode → re-encode must reproduce the bytes exactly, and the
/// decode must consume the whole buffer. (Byte-level comparison rather
/// than `==` so NaN payloads are covered too.)
fn assert_round_trip(frame: &Frame) -> Result<(), proptest::test_runner::CaseError> {
    let bytes = frame.encode();
    let (decoded, used) = Frame::decode(&bytes).expect("valid frame must decode");
    prop_assert_eq!(used, bytes.len());
    prop_assert_eq!(decoded.encode(), bytes);
    Ok(())
}

proptest! {
    #[test]
    fn query_frames_round_trip(q in query_frame()) {
        assert_round_trip(&Frame::Query(q))?;
    }

    #[test]
    fn response_frames_round_trip(r in response_frame()) {
        assert_round_trip(&Frame::Response(r))?;
    }

    #[test]
    fn error_frames_round_trip(
        req_id in any::<u64>(),
        code in error_code(),
        detail in short_string(),
    ) {
        assert_round_trip(&Frame::Error(ErrorFrame { req_id, code, detail }))?;
    }

    #[test]
    fn stats_frames_round_trip(
        entries in vec((short_string(), any::<u64>()), 0..12),
    ) {
        assert_round_trip(&Frame::Stats(StatsFrame { entries }))?;
    }

    #[test]
    fn stats_request_round_trips(_x in any::<bool>()) {
        assert_round_trip(&Frame::StatsRequest)?;
    }

    #[test]
    fn trace_dump_frames_round_trip(jsonl in short_string()) {
        assert_round_trip(&Frame::TraceDump(TraceDumpFrame { jsonl }))?;
    }

    /// Every strict prefix of a valid frame is a typed truncation error —
    /// there is no position where a cut is silently accepted.
    #[test]
    fn truncated_frames_are_typed_errors(
        r in response_frame(),
        cut_seed in any::<u64>(),
    ) {
        let bytes = Frame::Response(r).encode();
        let cut = (cut_seed % bytes.len() as u64) as usize;
        match Frame::decode(&bytes[..cut]) {
            Err(ProtocolError::Truncated { .. }) => {}
            other => prop_assert!(false, "prefix of len {} gave {:?}", cut, other),
        }
    }

    /// Negotiation: any header version other than the one spoken is a
    /// typed `BadVersion`, decided on the header alone — whatever the
    /// tag and length fields claim, and with no payload behind it.
    #[test]
    fn foreign_versions_are_bad_version_without_reading_the_payload(
        version in any::<u16>(),
        tag in any::<u8>(),
        len in any::<u32>(),
    ) {
        prop_assume!(version != VERSION);
        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(b"SKNN");
        header[4..6].copy_from_slice(&version.to_le_bytes());
        header[6] = tag;
        header[8..12].copy_from_slice(&len.to_le_bytes());
        prop_assert_eq!(parse_header(&header), Err(ProtocolError::BadVersion(version)));
        prop_assert_eq!(Frame::decode(&header), Err(ProtocolError::BadVersion(version)));
    }

    /// Arbitrary bytes never panic the decoder; whatever comes back is a
    /// frame or a typed error.
    #[test]
    fn random_bytes_never_panic(bytes in vec(any::<u8>(), 0..64)) {
        let _ = Frame::decode(&bytes);
    }

    /// Every shard-operation frame (seeds / range / radius / exec, both
    /// directions) round-trips byte-identically.
    #[test]
    fn shard_op_frames_round_trip(
        req_id in any::<u64>(),
        trace_id in any::<u64>(),
        xy in (wire_f64(), wire_f64()),
        k in any::<u32>(),
        radius in wire_f64(),
        objects in vec(wire_object(), 0..8),
        dists in vec(wire_f64(), 0..8),
    ) {
        let (x, y) = xy;
        let seeds: Vec<(f64, WireObject)> =
            dists.iter().copied().zip(objects.iter().cloned()).collect();
        let frames = [
            Frame::SeedsRequest(SeedsRequestFrame { req_id, trace_id, x, y, k, deadline_ms: k }),
            Frame::Seeds(SeedsFrame { req_id, trace_id, seeds: seeds.clone() }),
            Frame::RangeRequest(RangeRequestFrame { req_id, trace_id, x, y, radius, deadline_ms: k }),
            Frame::Range(RangeFrame { req_id, trace_id, objects: objects.clone() }),
            Frame::RadiusRequest(RadiusRequestFrame {
                req_id, trace_id, tri: k, x, y, z: radius, deadline_ms: k,
                seeds: objects.clone(),
            }),
            Frame::Radius(RadiusFrame { req_id, trace_id, radius }),
            Frame::ExecRequest(ExecRequestFrame {
                req_id, trace_id, tri: k, x, y, z: radius, k, deadline_ms: k,
                seeds: objects.clone(), cands: objects.clone(),
            }),
        ];
        for frame in &frames {
            assert_round_trip(frame)?;
        }
    }

    /// Corrupting one header byte of a valid frame yields a typed error
    /// (or, for the payload-length bytes, possibly a shorter valid frame
    /// — but never a panic or a bogus success of the full length).
    #[test]
    fn corrupted_headers_never_panic(
        pos in 0usize..HEADER_LEN,
        val in any::<u8>(),
    ) {
        let mut bytes = Frame::Query(QueryFrame {
            req_id: 9,
            tri: 0,
            x: 1.0,
            y: 2.0,
            z: 3.0,
            k: 4,
            deadline_ms: 5,
            trace_id: 6,
            within: Rect2::UNBOUNDED,
        })
        .encode();
        let original = bytes[pos];
        bytes[pos] = val;
        let result = Frame::decode(&bytes);
        if original != val && pos != 7 {
            // Any real change outside the reserved byte must be rejected
            // (a changed length either truncates or leaves trailing
            // bytes; both are typed).
            prop_assert!(result.is_err(), "corrupt byte {} accepted: {:?}", pos, result);
        }
    }
}

#[test]
fn oversized_length_rejected_before_allocation() {
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(b"SKNN");
    header[4..6].copy_from_slice(&VERSION.to_le_bytes());
    header[6] = 1;
    header[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(parse_header(&header), Err(ProtocolError::Oversized { len: u32::MAX }));
    const { assert!(MAX_PAYLOAD < u32::MAX) };
}

#[test]
fn bad_version_and_magic_are_typed() {
    let mut bytes = Frame::StatsRequest.encode();
    bytes[4] = 99;
    assert!(matches!(Frame::decode(&bytes), Err(ProtocolError::BadVersion(_))));
    let mut bytes = Frame::StatsRequest.encode();
    bytes[0] = b'X';
    assert!(matches!(Frame::decode(&bytes), Err(ProtocolError::BadMagic(_))));
    let mut bytes = Frame::StatsRequest.encode();
    bytes[6] = 200;
    assert_eq!(Frame::decode(&bytes), Err(ProtocolError::UnknownFrameType(200)));
}
