//! Wire-format robustness properties.
//!
//! The deterministic unit tests inside `tq_cluster::wire` pin the exact
//! byte layout; these properties attack the decoder with *generated*
//! input instead:
//!
//! * every [`Request`] / [`Reply`] variant, with arbitrary ids,
//!   versions, vectors and payloads, survives an encode → decode
//!   roundtrip bit-for-bit;
//! * a frame truncated at **every** byte offset yields a typed
//!   [`DecodeError::Truncated`] — never a panic, never an over-read;
//! * arbitrary single-bit flips never panic the decoder, and any flip
//!   inside the CRC-protected 32-byte header is always rejected;
//! * oversized length fields (the header `body_len` and the body's
//!   interior length prefixes) come back as typed
//!   `BodyTooLarge` / `Truncated` / `LengthOverflow` errors;
//! * fully random buffers decode to `Err` or a bounded `Ok` — the
//!   decoder never consumes more bytes than it was given;
//! * every field sits at a fixed place, so one or more bytes after any
//!   variant's last field is `TrailingBytes`, never skipped;
//! * a frame of the previous wire version is `UnsupportedVersion`;
//! * every byte 0..=255 in each tag namespace (frame kind, request,
//!   result, response, error) is one variant's tag or a typed refusal.
//!
//! None of these properties may ever observe a panic: the decoder's
//! contract is that hostile bytes produce typed [`DecodeError`]s.

use bytes::Bytes;
use proptest::collection::vec;
use proptest::prelude::*;
use trapezoid_quorum::cluster::wire::{
    crc32, decode_frame, encode_envelope, encode_reply, DecodeError, Frame, FrameKind, Header,
    HEADER_LEN, MAX_BODY_LEN,
};
use trapezoid_quorum::cluster::{Envelope, Lane, NodeError, OpId, Reply, Request, Response};

// ---------------------------------------------------------------------
// Strategies.
// ---------------------------------------------------------------------

fn payload() -> impl Strategy<Value = Bytes> {
    vec(any::<u8>(), 0..64).prop_map(Bytes::from)
}

fn version_vec() -> impl Strategy<Value = Vec<u64>> {
    vec(any::<u64>(), 0..6)
}

/// Every [`Request`] variant with arbitrary field contents.
fn request() -> BoxedStrategy<Request> {
    prop_oneof![
        Just(Request::Ping),
        (any::<u64>(), payload()).prop_map(|(id, bytes)| Request::InitData { id, bytes }),
        (any::<u64>(), payload(), 0usize..32, version_vec()).prop_map(|(id, bytes, k, checks)| {
            Request::InitParity {
                id,
                bytes,
                k,
                checks,
            }
        }),
        any::<u64>().prop_map(|id| Request::ReadData { id }),
        (any::<u64>(), payload(), any::<u64>())
            .prop_map(|(id, bytes, version)| Request::WriteData { id, bytes, version }),
        any::<u64>().prop_map(|id| Request::VersionData { id }),
        any::<u64>().prop_map(|id| Request::VersionVector { id }),
        any::<u64>().prop_map(|id| Request::ReadParity { id }),
        (any::<u64>(), payload(), version_vec(), version_vec()).prop_map(
            |(id, bytes, versions, checks)| Request::WriteParity {
                id,
                bytes,
                versions,
                checks,
            }
        ),
        (
            any::<u64>(),
            0usize..32,
            payload(),
            any::<u64>(),
            any::<u64>(),
            any::<u8>(),
            (any::<bool>(), any::<u64>()).prop_map(|(some, v)| some.then_some(v)),
        )
            .prop_map(
                |(id, block_index, delta, expected_version, new_version, coeff, new_check)| {
                    Request::AddParity {
                        id,
                        block_index,
                        delta,
                        expected_version,
                        new_version,
                        coeff,
                        new_check,
                    }
                }
            ),
    ]
    .boxed()
}

/// Every [`Response`] variant with arbitrary field contents.
fn response() -> BoxedStrategy<Response> {
    prop_oneof![
        Just(Response::Pong),
        Just(Response::Ack),
        (payload(), any::<u64>(), any::<u64>()).prop_map(|(bytes, version, check)| {
            Response::Data {
                bytes,
                version,
                check,
            }
        }),
        (payload(), version_vec(), version_vec()).prop_map(|(bytes, versions, checks)| {
            Response::Parity {
                bytes,
                versions,
                checks,
            }
        }),
        any::<u64>().prop_map(Response::Version),
        version_vec().prop_map(Response::Versions),
    ]
    .boxed()
}

/// Every [`NodeError`] variant with arbitrary field contents.
fn node_error() -> BoxedStrategy<NodeError> {
    prop_oneof![
        Just(NodeError::Down),
        Just(NodeError::NotFound),
        Just(NodeError::WrongKind),
        (any::<u64>(), any::<u64>())
            .prop_map(|(expected, actual)| NodeError::VersionConflict { expected, actual }),
        (0usize..1024, any::<u64>(), any::<u64>())
            .prop_map(|(index, got, stored)| NodeError::VectorConflict { index, got, stored }),
        (0usize..65536, 0usize..65536)
            .prop_map(|(stored, got)| NodeError::SizeMismatch { stored, got }),
        (0usize..1024, 0usize..1024).prop_map(|(index, k)| NodeError::BadBlockIndex { index, k }),
        Just(NodeError::Corrupt),
        Just(NodeError::TransportClosed),
        Just(NodeError::TimedOut),
    ]
    .boxed()
}

fn envelope() -> impl Strategy<Value = Envelope> {
    (any::<u64>(), any::<u64>(), any::<bool>(), request()).prop_map(
        |(op, epoch, background, payload)| Envelope {
            op_id: OpId(op),
            round_epoch: epoch,
            lane: if background {
                Lane::Background
            } else {
                Lane::Foreground
            },
            payload,
        },
    )
}

fn reply() -> impl Strategy<Value = Reply> {
    let result = prop_oneof![
        response().prop_map(Ok),
        node_error().prop_map(Err::<Response, NodeError>),
    ];
    // tq-lint: allow(opid-echo) -- proptest strategy fabricating arbitrary replies to round-trip the codec; nothing echoes an envelope here.
    (any::<u64>(), any::<u64>(), result).prop_map(|(op, epoch, result)| Reply {
        op_id: OpId(op),
        round_epoch: epoch,
        result,
    })
}

/// Rewrites the header's `body_len` field (bytes 24..28) and restamps
/// the header CRC so only the *length* lies, not the checksum.
fn forge_body_len(frame: &mut [u8], claimed: u32) {
    frame[24..28].copy_from_slice(&claimed.to_le_bytes());
    let crc = crc32(&frame[0..28]);
    frame[28..32].copy_from_slice(&crc.to_le_bytes());
}

// ---------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------

proptest! {
    /// Any envelope roundtrips bit-for-bit, consumes exactly its own
    /// frame, and ignores whatever follows it in the buffer.
    #[test]
    fn envelope_roundtrips(env in envelope(), junk in vec(any::<u8>(), 0..16)) {
        let frame = encode_envelope(&env);
        let frame_len = frame.len();

        let mut stream = frame;
        stream.extend_from_slice(&junk);
        let buf = Bytes::from(stream);

        let (decoded, consumed) = decode_frame(&buf).expect("valid frame decodes");
        prop_assert_eq!(consumed, frame_len, "consumed exactly one frame");
        match decoded {
            Frame::Envelope(got) => prop_assert_eq!(got, env),
            Frame::Reply(_) => prop_assert!(false, "request frame decoded as reply"),
        }
    }

    /// Any reply — every `Response` and `NodeError` variant — roundtrips.
    #[test]
    fn reply_roundtrips(rep in reply(), junk in vec(any::<u8>(), 0..16)) {
        let frame = encode_reply(&rep);
        let frame_len = frame.len();

        let mut stream = frame;
        stream.extend_from_slice(&junk);
        let buf = Bytes::from(stream);

        let (decoded, consumed) = decode_frame(&buf).expect("valid frame decodes");
        prop_assert_eq!(consumed, frame_len, "consumed exactly one frame");
        match decoded {
            Frame::Reply(got) => prop_assert_eq!(got, rep),
            Frame::Envelope(_) => prop_assert!(false, "reply frame decoded as request"),
        }
    }

    /// Truncation at EVERY byte offset of a valid frame is a typed
    /// `Truncated` error that reports how many bytes were missing.
    #[test]
    fn truncation_at_every_offset_is_typed(env in envelope()) {
        let frame = encode_envelope(&env);
        for cut in 0..frame.len() {
            let prefix = Bytes::from(frame[..cut].to_vec());
            match decode_frame(&prefix) {
                Err(DecodeError::Truncated { needed, got }) => {
                    prop_assert_eq!(got, cut);
                    prop_assert!(
                        needed > cut,
                        "cut at {} claims to need only {}",
                        cut,
                        needed
                    );
                }
                other => {
                    prop_assert!(false, "cut at {} produced {:?}", cut, other);
                }
            }
        }
    }

    /// A single bit flip anywhere never panics the decoder, and a flip
    /// inside the 32-byte header is always rejected: bytes 0..28 are
    /// covered by the CRC, bytes 28..32 *are* the stored CRC.
    #[test]
    fn single_bit_flips_never_panic(env in envelope(), pos in any::<usize>(), bit in 0u8..8) {
        let mut frame = encode_envelope(&env);
        let idx = pos % frame.len();
        frame[idx] ^= 1 << bit;
        let buf = Bytes::from(frame);

        // An `Err` of any kind is acceptable; an `Ok` must be a bounded
        // body-region flip (payload bytes are deliberately unchecksummed).
        if let Ok((_, consumed)) = decode_frame(&buf) {
            prop_assert!(
                idx >= HEADER_LEN,
                "header flip at byte {} slipped past the CRC",
                idx
            );
            prop_assert!(consumed <= buf.len(), "decoder over-read");
        }
    }

    /// An oversized header `body_len` (with a freshly restamped CRC, so
    /// only the length lies) is a typed error: `BodyTooLarge` past the
    /// 64 MiB cap, `Truncated` below it.
    #[test]
    fn oversized_header_body_len_is_typed(env in envelope(), extra in 1u32..u32::MAX / 2) {
        let mut frame = encode_envelope(&env);
        let real = (frame.len() - HEADER_LEN) as u32;
        let claimed = real.saturating_add(extra);
        forge_body_len(&mut frame, claimed);
        let buf = Bytes::from(frame);

        match decode_frame(&buf) {
            Err(DecodeError::BodyTooLarge { len, max }) => {
                prop_assert_eq!(len, claimed);
                prop_assert_eq!(max, MAX_BODY_LEN);
                prop_assert!(claimed > MAX_BODY_LEN);
            }
            Err(DecodeError::Truncated { needed, got }) => {
                prop_assert_eq!(needed, HEADER_LEN + claimed as usize);
                prop_assert_eq!(got, buf.len());
                prop_assert!(claimed <= MAX_BODY_LEN);
            }
            other => {
                prop_assert!(false, "forged body_len {} produced {:?}", claimed, other);
            }
        }
    }

    /// An interior length prefix claiming more payload than the body
    /// holds is a `LengthOverflow` naming the field — the decoder must
    /// not walk past the declared body.
    #[test]
    fn oversized_interior_length_is_typed(
        id in any::<u64>(),
        data in vec(any::<u8>(), 0..32),
        extra in 1u32..u32::MAX / 2,
    ) {
        let env = Envelope {
            op_id: OpId(7),
            round_epoch: 0,
            lane: Lane::Foreground,
            payload: Request::InitData {
                id,
                bytes: Bytes::from(data),
            },
        };
        let mut frame = encode_envelope(&env);
        // InitData body: tag(1) + id(8) + payload length prefix (u32).
        let len_at = HEADER_LEN + 1 + 8;
        let real = u32::from_le_bytes(frame[len_at..len_at + 4].try_into().unwrap());
        let claimed = real.saturating_add(extra);
        frame[len_at..len_at + 4].copy_from_slice(&claimed.to_le_bytes());
        let buf = Bytes::from(frame);

        match decode_frame(&buf) {
            Err(DecodeError::LengthOverflow { claimed: c, remaining, .. }) => {
                prop_assert_eq!(c, claimed as u64);
                prop_assert!(c > remaining as u64, "not actually oversized");
            }
            other => {
                prop_assert!(false, "forged interior length {} produced {:?}", claimed, other);
            }
        }
    }

    /// Fully random buffers never panic and never over-read: either a
    /// typed error, or (astronomically unlikely) a bounded `Ok`.
    #[test]
    fn random_garbage_never_panics(junk in vec(any::<u8>(), 0..160)) {
        let buf = Bytes::from(junk);
        if let Ok((_, consumed)) = decode_frame(&buf) {
            prop_assert!(consumed <= buf.len(), "decoder over-read random input");
        }
    }
}

/// Appends raw bytes to a sealed frame's body and restamps `body_len`
/// plus the header CRC, so only the body's content is wrong.
fn append_to_body(frame: &mut Vec<u8>, extra: &[u8]) {
    frame.extend_from_slice(extra);
    let body_len = (frame.len() - HEADER_LEN) as u32;
    frame[24..28].copy_from_slice(&body_len.to_le_bytes());
    let crc = crc32(&frame[0..28]);
    frame[28..32].copy_from_slice(&crc.to_le_bytes());
}

proptest! {
    /// One or more bytes after the last field of any request or reply
    /// variant are `TrailingBytes` counting them: no variant has an
    /// optional tail to absorb them.
    #[test]
    fn trailing_bytes_after_any_variant_are_typed(
        env in envelope(),
        rep in reply(),
        extra in vec(any::<u8>(), 1..16),
    ) {
        for mut frame in [encode_envelope(&env), encode_reply(&rep)] {
            append_to_body(&mut frame, &extra);
            match decode_frame(&Bytes::from(frame)) {
                Err(DecodeError::TrailingBytes { extra: n }) => prop_assert_eq!(n, extra.len()),
                other => prop_assert!(false, "{} trailing bytes gave {:?}", extra.len(), other),
            }
        }
    }
}

/// A frame of wire version 1, as that encoder wrote a background-lane
/// write-data request, is refused by its header alone.
#[test]
fn a_version_1_frame_is_unsupported() {
    let v1 = "5451574601010100080706050403020109000000000000001a00000051ee917f\
              052a00000000000000070000000000000005000000a0a1a2a3a4";
    let frame: Vec<u8> = (0..v1.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&v1[i..i + 2], 16).unwrap())
        .collect();
    assert_eq!(
        decode_frame(&Bytes::from(frame)),
        Err(DecodeError::UnsupportedVersion(1))
    );
}

/// Byte-level corruption sweep outside proptest: flip every single bit
/// of one representative frame's header and demand a typed rejection
/// for each — exhaustive where the property above is sampled.
#[test]
fn every_header_bit_flip_is_rejected() {
    let env = Envelope {
        op_id: OpId(0xDEAD_BEEF),
        round_epoch: 3,
        lane: Lane::Foreground,
        payload: Request::WriteData {
            id: 9,
            bytes: Bytes::from_static(b"exhaustive"),
            version: 4,
        },
    };
    let frame = encode_envelope(&env);
    for idx in 0..HEADER_LEN {
        for bit in 0..8 {
            let mut corrupt = frame.clone();
            corrupt[idx] ^= 1 << bit;
            let buf = Bytes::from(corrupt);
            assert!(
                decode_frame(&buf).is_err(),
                "flip of header byte {idx} bit {bit} was not rejected"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Tag bytes.
// ---------------------------------------------------------------------

/// A frame of `kind` whose body is exactly `body`.
fn frame_with_body(kind: FrameKind, body: &[u8]) -> Bytes {
    let header = Header {
        kind,
        flags: 0,
        op_id: OpId(7),
        round_epoch: 0,
        body_len: body.len() as u32,
    };
    Bytes::from([&header.encode()[..], body].concat())
}

/// Runs every byte through one tag namespace, whose tag follows
/// `prefix` in a `kind` frame's body. `samples` holds one message of
/// each of the namespace's variants: each must round-trip and carry a
/// tag of its own. A byte no sample carries must be refused as
/// `UnknownTag { what, tag }`; a byte one does must not be.
fn sweep_tags(what: &'static str, kind: FrameKind, prefix: &[u8], samples: &[Frame]) {
    let at = HEADER_LEN + prefix.len();
    let mut defined = std::collections::BTreeSet::new();
    for sample in samples {
        let frame = match sample {
            Frame::Envelope(env) => encode_envelope(env),
            Frame::Reply(rep) => encode_reply(rep),
        };
        assert_eq!(frame[HEADER_LEN..at], *prefix, "{what}: {sample:?}");
        assert!(
            defined.insert(frame[at]),
            "{what}: two variants share tag {:#04x}",
            frame[at]
        );
        let (decoded, _) = decode_frame(&Bytes::from(frame)).expect("a sample decodes");
        assert_eq!(decoded, *sample);
    }
    for tag in 0..=u8::MAX {
        let got = decode_frame(&frame_with_body(kind, &[prefix, &[tag]].concat()));
        if defined.contains(&tag) {
            assert!(
                !matches!(got, Err(DecodeError::UnknownTag { .. })),
                "{what} tag {tag:#04x} is defined but refused"
            );
        } else {
            assert_eq!(got, Err(DecodeError::UnknownTag { what, tag }));
        }
    }
}

/// The behavioural form of "every tag has exactly one decoder arm": all
/// 256 bytes in each body namespace (request, result, response, error)
/// either decode as the one variant that encodes to them or are refused
/// with a typed error.
#[test]
fn every_body_tag_byte_is_one_variant_or_refused() {
    let bytes = Bytes::from_static(b"tag");
    let requests = [
        Request::Ping,
        Request::InitData {
            id: 1,
            bytes: bytes.clone(),
        },
        Request::InitParity {
            id: 2,
            bytes: bytes.clone(),
            k: 1,
            checks: vec![3],
        },
        Request::ReadData { id: 4 },
        Request::WriteData {
            id: 5,
            bytes: bytes.clone(),
            version: 6,
        },
        Request::VersionData { id: 7 },
        Request::VersionVector { id: 8 },
        Request::ReadParity { id: 9 },
        Request::WriteParity {
            id: 10,
            bytes: bytes.clone(),
            versions: vec![11],
            checks: vec![12],
        },
        Request::AddParity {
            id: 13,
            block_index: 0,
            delta: bytes.clone(),
            expected_version: 14,
            new_version: 15,
            coeff: 16,
            new_check: Some(17),
        },
    ];
    let responses = [
        Response::Pong,
        Response::Ack,
        Response::Data {
            bytes: bytes.clone(),
            version: 1,
            check: 2,
        },
        Response::Parity {
            bytes,
            versions: vec![3],
            checks: vec![4],
        },
        Response::Version(5),
        Response::Versions(vec![6, 7]),
    ];
    let errors = [
        NodeError::Down,
        NodeError::NotFound,
        NodeError::WrongKind,
        NodeError::VersionConflict {
            expected: 1,
            actual: 2,
        },
        NodeError::VectorConflict {
            index: 3,
            got: 4,
            stored: 5,
        },
        NodeError::SizeMismatch { stored: 6, got: 7 },
        NodeError::BadBlockIndex { index: 8, k: 9 },
        NodeError::TransportClosed,
        NodeError::TimedOut,
        NodeError::Corrupt,
        NodeError::Overloaded,
    ];
    let to_ping = Envelope::new(Request::Ping);
    let reply = |result| Frame::Reply(Reply::to(&to_ping, result));

    let envelopes: Vec<Frame> = requests
        .into_iter()
        .map(|req| Frame::Envelope(Envelope::new(req)))
        .collect();
    sweep_tags("request", FrameKind::Request, &[], &envelopes);
    let results = [reply(Ok(Response::Ack)), reply(Err(NodeError::Down))];
    sweep_tags("result", FrameKind::Reply, &[], &results);
    let oks: Vec<Frame> = responses.into_iter().map(|r| reply(Ok(r))).collect();
    sweep_tags("response", FrameKind::Reply, &[0x00], &oks);
    let errs: Vec<Frame> = errors.into_iter().map(|e| reply(Err(e))).collect();
    sweep_tags("error", FrameKind::Reply, &[0x01], &errs);
}

/// All 256 kind bytes: a defined one round-trips through `FrameKind`
/// and `as u8`, any other is `UnknownKind`, from `TryFrom` and from a
/// whole frame's header alike.
#[test]
fn every_frame_kind_byte_round_trips_or_is_refused() {
    let mut frame = frame_with_body(FrameKind::Request, &[0x01]).to_vec();
    let mut defined = Vec::new();
    for code in 0..=u8::MAX {
        frame[5] = code;
        let crc = crc32(&frame[0..28]);
        frame[28..32].copy_from_slice(&crc.to_le_bytes());
        let decoded = decode_frame(&Bytes::from(frame.clone()));
        match FrameKind::try_from(code) {
            Ok(kind) => {
                assert_eq!(kind as u8, code);
                defined.push(kind);
                assert!(
                    !matches!(decoded, Err(DecodeError::UnknownKind(_))),
                    "{kind:?}"
                );
            }
            Err(err) => {
                assert_eq!(err, DecodeError::UnknownKind(code));
                assert_eq!(decoded, Err(DecodeError::UnknownKind(code)));
            }
        }
    }
    assert_eq!(defined, [FrameKind::Request, FrameKind::Reply]);
}
