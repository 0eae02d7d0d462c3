//! Versioned, length-prefixed binary wire format for node commands.
//!
//! Every [`Envelope`] and [`Reply`] travels as one *frame*: a fixed
//! 32-byte header followed by a variable-length body. The header is
//! self-checking (magic, version, and a CRC-32 over its own bytes), so a
//! desynchronised or corrupted stream is detected before any body byte
//! is trusted; the body is a flat tag-plus-fields encoding — compact and
//! non-self-describing, per the Carnot-bound bandwidth accounting that
//! motivates counting every wire byte.
//!
//! ```text
//! offset  size  field
//!      0     4  magic        "TQWF"
//!      4     1  version      WIRE_VERSION (2)
//!      5     1  kind         0x01 request frame / 0x02 reply frame
//!      6     2  flags        bit 0 = background lane; rest reserved (LE)
//!      8     8  op id        Envelope/Reply op identity, little-endian
//!     16     8  round epoch  issuing round's epoch, little-endian
//!     24     4  body len     bytes following the header, little-endian
//!     28     4  header CRC   CRC-32 (IEEE) over bytes 0..28
//! ```
//!
//! # Bodies
//!
//! A body is a tag byte and then its fields, in this order and nothing
//! else: every field has one meaning and is always present. Integers
//! are little-endian; `vec` is a `u32` count and that many `u64`s;
//! `bytes` is a `u32` length and the payload, always the last field.
//! A reply body leads with a result byte (0x00 Ok, 0x01 Err) and then
//! the response's or error's tag.
//!
//! ```text
//! request         tag   fields                                          bytes
//! ping            0x01  —                                               1
//! init-data       0x02  id u64 · bytes                                  13 + B
//! init-parity     0x03  id u64 · k u64 · checks vec · bytes             25 + 8k + B
//! read-data       0x04  id u64                                          9
//! write-data      0x05  id u64 · version u64 · bytes                    21 + B
//! version-data    0x06  id u64                                          9
//! version-vector  0x07  id u64                                          9
//! read-parity     0x08  id u64                                          9
//! write-parity    0x09  id u64 · versions vec · checks vec · bytes      21 + 16k + B
//! add-parity      0x0A  id u64 · block index u64 · expected version u64
//!                       · new version u64 · coeff u8 · has new check u8
//!                       (0 or 1) · new check u64 (0 when absent) · bytes 47 + B
//!
//! response        tag   fields (after the result byte)
//! pong            0x01  —                                               2
//! ack             0x02  —                                               2
//! data            0x03  version u64 · check u64 · bytes                 22 + B
//! parity          0x04  versions vec · checks vec · bytes               14 + 16k + B
//! version         0x05  version u64                                     10
//! versions        0x06  versions vec                                    6 + 8k
//! ```
//!
//! Error bodies are the error's tag and its fields as `u64`s. A frame's
//! size is therefore the header's 32 bytes plus the body column: a
//! healthy direct read, read-data out and data back, moves
//! `(32 + 9) + (32 + 22 + B)` bytes. A byte after a body's last field is
//! [`DecodeError::TrailingBytes`], an unknown tag
//! [`DecodeError::UnknownTag`], and a frame of any other version
//! [`DecodeError::UnsupportedVersion`].
//!
//! # Zero-copy bodies
//!
//! Decoding borrows block payloads straight out of the receive buffer:
//! [`decode_frame`] takes the buffer as a [`Bytes`] and every payload
//! field in the returned [`Request`]/[`Response`] is a
//! [`Bytes::slice`] sharing that allocation. The zero-copy contract —
//! one allocation per block payload, refcounted everywhere — survives
//! serialization. Encoding a reply copies no payload either:
//! the payload is a body's last field, so `encode_reply_parts` returns
//! the frame up to it and the payload, which stays in the reply's own
//! buffer, and the TCP server writes the two with one vectored write.
//!
//! # Robustness
//!
//! [`decode_frame`] and [`Header::decode`] never panic and never read
//! past the supplied buffer, whatever the input: every failure is a
//! typed [`DecodeError`]. Length fields are validated against the bytes
//! actually present *before* any allocation, so an adversarial frame
//! cannot force an oversized allocation either.

use bytes::Bytes;
use core::fmt;

use crate::rpc::{Envelope, Lane, NodeError, OpId, Reply, Request, Response};

/// Frame magic: the first four bytes of every frame.
pub(crate) const MAGIC: [u8; 4] = *b"TQWF";

/// Header flag bit: the command travels in the background/maintenance
/// lane ([`Lane::Background`]); foreground encodes as 0.
pub(crate) const FLAG_BACKGROUND: u16 = 0x0001;

/// Current wire protocol version. Bump on any incompatible layout change.
pub const WIRE_VERSION: u8 = 2;

/// Fixed frame header length in bytes.
pub const HEADER_LEN: usize = 32;

/// Upper bound on a frame body (64 MiB). Far above any real block, and
/// low enough that a corrupted length field cannot stall a reader on a
/// multi-gigabyte read.
pub const MAX_BODY_LEN: u32 = 64 << 20;

/// Declares a `#[repr(u8)]` enum of wire codes and its one
/// `TryFrom<u8>`, both from a single list, so the two cannot drift: a
/// code given twice is a rustc error (E0081), and a byte the list does
/// not name is refused with `unknown`. Decoders `match` the enum
/// exhaustively, so a variant without a decoder arm does not compile.
macro_rules! wire_codes {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $($(#[$vmeta:meta])* $variant:ident = $code:literal,)+
        }
        unknown => $unknown:expr
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        $vis enum $name {
            $($(#[$vmeta])* $variant = $code,)+
        }

        impl TryFrom<u8> for $name {
            type Error = DecodeError;

            fn try_from(code: u8) -> Result<Self, DecodeError> {
                $(if code == $name::$variant as u8 {
                    return Ok($name::$variant);
                })+
                Err(($unknown)(code))
            }
        }
    };
}

wire_codes! {
    /// What a frame carries: the direction of the message.
    pub enum FrameKind {
        /// The frame body is a [`Request`] (an [`Envelope`] on the wire).
        Request = 0x01,
        /// The frame body is a `Result<Response, NodeError>` (a [`Reply`]).
        Reply = 0x02,
    }
    unknown => DecodeError::UnknownKind
}

/// The decoded fixed header of one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Direction of the message in the body.
    pub kind: FrameKind,
    /// Flag bits. Bit 0 (`FLAG_BACKGROUND`) marks background-lane
    /// requests; the rest are reserved (decoders must tolerate any
    /// value so future versions can set bits without breaking old
    /// peers).
    pub flags: u16,
    /// Identity of the logical command (echoed by replies).
    pub op_id: OpId,
    /// Epoch of the issuing round (0 = no round).
    pub round_epoch: u64,
    /// Length of the body following the header.
    pub body_len: u32,
}

impl Header {
    /// Encodes the header into its fixed 32-byte layout.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut buf = [0u8; HEADER_LEN];
        buf[0..4].copy_from_slice(&MAGIC);
        buf[4] = WIRE_VERSION;
        buf[5] = self.kind as u8;
        buf[6..8].copy_from_slice(&self.flags.to_le_bytes());
        buf[8..16].copy_from_slice(&self.op_id.0.to_le_bytes());
        buf[16..24].copy_from_slice(&self.round_epoch.to_le_bytes());
        buf[24..28].copy_from_slice(&self.body_len.to_le_bytes());
        let crc = crc32(&buf[0..28]);
        buf[28..32].copy_from_slice(&crc.to_le_bytes());
        buf
    }
}

/// Why a frame failed to decode. Every variant is a *detected* problem:
/// decoding never panics and never reads out of bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ends before the bytes the current field needs.
    Truncated {
        /// Bytes the decoder needed at this point.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The first four bytes are not `MAGIC` — not a frame, or a
    /// desynchronised stream.
    BadMagic([u8; 4]),
    /// The header checksum did not match its contents.
    HeaderChecksum {
        /// CRC the header carried.
        stored: u32,
        /// CRC computed over the received header bytes.
        computed: u32,
    },
    /// The frame speaks a protocol version this decoder does not.
    UnsupportedVersion(u8),
    /// The kind byte is neither request nor reply.
    UnknownKind(u8),
    /// The header's body length exceeds [`MAX_BODY_LEN`].
    BodyTooLarge {
        /// Length the header claimed.
        len: u32,
        /// The enforced maximum.
        max: u32,
    },
    /// A body tag byte (request/response/error discriminant) is unknown.
    UnknownTag {
        /// Which vocabulary the tag belongs to.
        what: &'static str,
        /// The unknown tag value.
        tag: u8,
    },
    /// A length or count field inside the body claims more bytes than
    /// the body holds.
    LengthOverflow {
        /// The field whose length is impossible.
        field: &'static str,
        /// The claimed element count or byte length.
        claimed: u64,
        /// Bytes actually remaining in the body.
        remaining: usize,
    },
    /// The body decoded cleanly but left unconsumed bytes — the header's
    /// length and the body's content disagree.
    TrailingBytes {
        /// Bytes left over after the body decoded.
        extra: usize,
    },
    /// A field value is out of range for this platform (e.g. a count
    /// that does not fit in `usize`).
    BadValue(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            DecodeError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            DecodeError::HeaderChecksum { stored, computed } => write!(
                f,
                "header checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            DecodeError::UnsupportedVersion(v) => {
                write!(f, "unsupported wire version {v} (speaking {WIRE_VERSION})")
            }
            DecodeError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            DecodeError::BodyTooLarge { len, max } => {
                write!(f, "body length {len} exceeds maximum {max}")
            }
            DecodeError::UnknownTag { what, tag } => {
                write!(f, "unknown {what} tag {tag:#04x}")
            }
            DecodeError::LengthOverflow {
                field,
                claimed,
                remaining,
            } => write!(
                f,
                "{field} claims {claimed} but only {remaining} bytes remain"
            ),
            DecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after body")
            }
            DecodeError::BadValue(what) => write!(f, "{what} out of range"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// One decoded frame: an envelope or a reply, plus how many buffer bytes
/// it consumed (header + body), so a streaming reader can advance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A request frame.
    Envelope(Envelope),
    /// A reply frame.
    Reply(Reply),
}

// ---------------------------------------------------------------------
// Body tags.
// ---------------------------------------------------------------------

wire_codes! {
    /// A request body's leading tag.
    enum RequestTag {
        Ping = 0x01,
        InitData = 0x02,
        InitParity = 0x03,
        ReadData = 0x04,
        WriteData = 0x05,
        VersionData = 0x06,
        VersionVector = 0x07,
        ReadParity = 0x08,
        WriteParity = 0x09,
        AddParity = 0x0A,
    }
    unknown => |tag| DecodeError::UnknownTag { what: "request", tag }
}

wire_codes! {
    /// A reply body's leading byte: the result discriminant.
    enum ResultTag {
        Ok = 0x00,
        Err = 0x01,
    }
    unknown => |tag| DecodeError::UnknownTag { what: "result", tag }
}

wire_codes! {
    /// A response body's tag, after the result byte.
    enum ResponseTag {
        Pong = 0x01,
        Ack = 0x02,
        Data = 0x03,
        Parity = 0x04,
        Version = 0x05,
        Versions = 0x06,
    }
    unknown => |tag| DecodeError::UnknownTag { what: "response", tag }
}

wire_codes! {
    /// A [`NodeError`] body's tag, after the result byte.
    enum ErrorTag {
        Down = 0x01,
        NotFound = 0x02,
        WrongKind = 0x03,
        VersionConflict = 0x04,
        VectorConflict = 0x05,
        SizeMismatch = 0x06,
        BadBlockIndex = 0x07,
        TransportClosed = 0x08,
        TimedOut = 0x09,
        Corrupt = 0x0A,
        Overloaded = 0x0B,
    }
    unknown => |tag| DecodeError::UnknownTag { what: "error", tag }
}

// ---------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &Bytes) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

fn put_versions(out: &mut Vec<u8>, vs: &[u64]) {
    put_u32(out, vs.len() as u32);
    for &v in vs {
        put_u64(out, v);
    }
}

fn encode_request_body(req: &Request, out: &mut Vec<u8>) {
    match req {
        Request::Ping => out.push(RequestTag::Ping as u8),
        Request::InitData { id, bytes } => {
            out.push(RequestTag::InitData as u8);
            put_u64(out, *id);
            put_bytes(out, bytes);
        }
        Request::InitParity {
            id,
            bytes,
            k,
            checks,
        } => {
            out.push(RequestTag::InitParity as u8);
            put_u64(out, *id);
            put_u64(out, *k as u64);
            put_versions(out, checks);
            put_bytes(out, bytes);
        }
        Request::ReadData { id } => {
            out.push(RequestTag::ReadData as u8);
            put_u64(out, *id);
        }
        Request::WriteData { id, bytes, version } => {
            out.push(RequestTag::WriteData as u8);
            put_u64(out, *id);
            put_u64(out, *version);
            put_bytes(out, bytes);
        }
        Request::VersionData { id } => {
            out.push(RequestTag::VersionData as u8);
            put_u64(out, *id);
        }
        Request::VersionVector { id } => {
            out.push(RequestTag::VersionVector as u8);
            put_u64(out, *id);
        }
        Request::ReadParity { id } => {
            out.push(RequestTag::ReadParity as u8);
            put_u64(out, *id);
        }
        Request::WriteParity {
            id,
            bytes,
            versions,
            checks,
        } => {
            out.push(RequestTag::WriteParity as u8);
            put_u64(out, *id);
            put_versions(out, versions);
            put_versions(out, checks);
            put_bytes(out, bytes);
        }
        Request::AddParity {
            id,
            block_index,
            delta,
            expected_version,
            new_version,
            coeff,
            new_check,
        } => {
            out.push(RequestTag::AddParity as u8);
            put_u64(out, *id);
            put_u64(out, *block_index as u64);
            put_u64(out, *expected_version);
            put_u64(out, *new_version);
            out.push(*coeff);
            out.push(u8::from(new_check.is_some()));
            put_u64(out, new_check.unwrap_or(0));
            put_bytes(out, delta);
        }
    }
}

/// Encodes a response's fields into `head`, ending with the payload's
/// length, and returns the payload, which is empty for a response
/// without one.
fn encode_response_body<'a>(resp: &'a Response, head: &mut Vec<u8>) -> &'a [u8] {
    match resp {
        Response::Pong => head.push(ResponseTag::Pong as u8),
        Response::Ack => head.push(ResponseTag::Ack as u8),
        Response::Data {
            bytes,
            version,
            check,
        } => {
            head.push(ResponseTag::Data as u8);
            put_u64(head, *version);
            put_u64(head, *check);
            put_u32(head, bytes.len() as u32);
            return bytes;
        }
        Response::Parity {
            bytes,
            versions,
            checks,
        } => {
            head.push(ResponseTag::Parity as u8);
            put_versions(head, versions);
            put_versions(head, checks);
            put_u32(head, bytes.len() as u32);
            return bytes;
        }
        Response::Version(v) => {
            head.push(ResponseTag::Version as u8);
            put_u64(head, *v);
        }
        Response::Versions(vs) => {
            head.push(ResponseTag::Versions as u8);
            put_versions(head, vs);
        }
    }
    &[]
}

fn encode_error_body(err: &NodeError, out: &mut Vec<u8>) {
    match err {
        NodeError::Down => out.push(ErrorTag::Down as u8),
        NodeError::NotFound => out.push(ErrorTag::NotFound as u8),
        NodeError::WrongKind => out.push(ErrorTag::WrongKind as u8),
        NodeError::VersionConflict { expected, actual } => {
            out.push(ErrorTag::VersionConflict as u8);
            put_u64(out, *expected);
            put_u64(out, *actual);
        }
        NodeError::VectorConflict { index, got, stored } => {
            out.push(ErrorTag::VectorConflict as u8);
            put_u64(out, *index as u64);
            put_u64(out, *got);
            put_u64(out, *stored);
        }
        NodeError::SizeMismatch { stored, got } => {
            out.push(ErrorTag::SizeMismatch as u8);
            put_u64(out, *stored as u64);
            put_u64(out, *got as u64);
        }
        NodeError::BadBlockIndex { index, k } => {
            out.push(ErrorTag::BadBlockIndex as u8);
            put_u64(out, *index as u64);
            put_u64(out, *k as u64);
        }
        NodeError::TransportClosed => out.push(ErrorTag::TransportClosed as u8),
        NodeError::TimedOut => out.push(ErrorTag::TimedOut as u8),
        NodeError::Corrupt => out.push(ErrorTag::Corrupt as u8),
        NodeError::Overloaded => out.push(ErrorTag::Overloaded as u8),
    }
}

/// A frame buffer with room for a body whose variable-length fields
/// (block payload, version and checksum vectors) total `variable` bytes,
/// and the header's place left blank at the front: the body is encoded
/// straight behind it and [`finish_frame`] fills the header in, so a
/// payload is copied once, into a buffer that never regrows.
fn start_frame(variable: usize) -> Vec<u8> {
    // The fixed fields of the largest variant (add-parity) come to 47
    // bytes.
    const FIXED_FIELDS: usize = 48;
    let mut frame = Vec::with_capacity(HEADER_LEN + FIXED_FIELDS + variable);
    frame.resize(HEADER_LEN, 0);
    frame
}

/// Writes the header over the room [`start_frame`] left at the front of
/// `frame`, now that the body's length is known.
fn finish_frame(
    kind: FrameKind,
    flags: u16,
    op_id: OpId,
    round_epoch: u64,
    frame: &mut [u8],
    body_len: usize,
) {
    debug_assert!(body_len <= MAX_BODY_LEN as usize, "body exceeds wire max");
    let header = Header {
        kind,
        flags,
        op_id,
        round_epoch,
        body_len: body_len as u32,
    };
    frame[..HEADER_LEN].copy_from_slice(&header.encode());
}

/// Bytes of a request's variable-length fields, for [`start_frame`].
fn request_variable_len(req: &Request) -> usize {
    match req {
        Request::InitData { bytes, .. } | Request::WriteData { bytes, .. } => bytes.len(),
        Request::InitParity { bytes, checks, .. } => bytes.len() + 8 * checks.len(),
        Request::WriteParity {
            bytes,
            versions,
            checks,
            ..
        } => bytes.len() + 8 * (versions.len() + checks.len()),
        Request::AddParity { delta, .. } => delta.len(),
        Request::Ping
        | Request::ReadData { .. }
        | Request::VersionData { .. }
        | Request::VersionVector { .. }
        | Request::ReadParity { .. } => 0,
    }
}

/// Bytes of a response's vector fields, for the [`start_frame`] of a
/// reply's head (the payload travels apart from it).
fn response_variable_len(resp: &Response) -> usize {
    match resp {
        Response::Parity {
            versions, checks, ..
        } => 8 * (versions.len() + checks.len()),
        Response::Versions(versions) => 8 * versions.len(),
        Response::Pong | Response::Ack | Response::Version(_) | Response::Data { .. } => 0,
    }
}

/// Encodes an [`Envelope`] into one complete frame (header + body).
pub fn encode_envelope(env: &Envelope) -> Vec<u8> {
    let mut frame = start_frame(request_variable_len(&env.payload));
    encode_request_body(&env.payload, &mut frame);
    let flags = match env.lane {
        Lane::Foreground => 0,
        Lane::Background => FLAG_BACKGROUND,
    };
    let body_len = frame.len() - HEADER_LEN;
    finish_frame(
        FrameKind::Request,
        flags,
        env.op_id,
        env.round_epoch,
        &mut frame,
        body_len,
    );
    frame
}

/// A reply frame in the two parts a server writes with one vectored
/// write, so that a served payload reaches the socket from the buffer
/// it was served in: the header and every field up to the payload's
/// length, and the payload (empty for a reply without one), which is
/// always a body's last field. [`encode_reply`] is their concatenation.
#[derive(Debug)]
pub(crate) struct ReplyParts<'a> {
    /// Header, result tag and the fields up to the payload's length.
    pub(crate) head: Vec<u8>,
    /// The payload, borrowed from the reply.
    pub(crate) payload: &'a [u8],
}

/// Encodes a [`Reply`] into its [`ReplyParts`], copying no payload byte.
pub(crate) fn encode_reply_parts(reply: &Reply) -> ReplyParts<'_> {
    let mut head = start_frame(reply.result.as_ref().map_or(0, response_variable_len));
    let payload = match &reply.result {
        Ok(resp) => {
            head.push(ResultTag::Ok as u8);
            encode_response_body(resp, &mut head)
        }
        Err(err) => {
            head.push(ResultTag::Err as u8);
            encode_error_body(err, &mut head);
            &[]
        }
    };
    let body_len = head.len() - HEADER_LEN + payload.len();
    finish_frame(
        FrameKind::Reply,
        0,
        reply.op_id,
        reply.round_epoch,
        &mut head,
        body_len,
    );
    ReplyParts { head, payload }
}

/// Encodes a [`Reply`] into one complete frame (header + body): the
/// two parts the TCP server writes, concatenated into one buffer of the
/// frame's size.
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let parts = encode_reply_parts(reply);
    [&parts.head[..], parts.payload].concat()
}

// ---------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------

mod decode;

pub(crate) use decode::decode_body;
pub use decode::{crc32, decode_frame};

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_env(env: &Envelope) -> Envelope {
        let wire = Bytes::from(encode_envelope(env));
        match decode_frame(&wire).expect("decodes") {
            (Frame::Envelope(e), n) => {
                assert_eq!(n, wire.len());
                e
            }
            (other, _) => panic!("expected envelope, got {other:?}"),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE check values.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_by_words_matches_the_bytewise_register() {
        let data: Vec<u8> = (0..257u32 + 8).map(|i| (i * 7 + 3) as u8).collect();
        for offset in 0..8 {
            for len in 0..=257 {
                let sub = &data[offset..offset + len];
                let bytewise = !sub
                    .iter()
                    .fold(0xFFFF_FFFF, |crc, &b| decode::crc32_step(crc, b));
                assert_eq!(crc32(sub), bytewise, "offset {offset} len {len}");
            }
        }
        // Recorded with the byte-at-a-time loop, before slicing-by-8.
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        assert_eq!(crc32(&data), 0x17BC_2A46);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn frames_match_the_v2_layout_table() {
        // Each expected frame is spelled out field by field from the
        // module doc's tables, a space between fields: the header
        // (magic, version 2, kind, flags, op id, epoch, body length,
        // CRC-32 of the 28 bytes before it) on the first line, then the
        // body.
        let expect = |fields: &str| fields.split_whitespace().collect::<String>();
        let env = Envelope {
            op_id: OpId(0x0102_0304_0506_0708),
            round_epoch: 9,
            lane: Lane::Background,
            payload: Request::WriteData {
                id: 42,
                bytes: Bytes::from(vec![0xA0, 0xA1, 0xA2, 0xA3, 0xA4]),
                version: 7,
            },
        };
        // Body 21 + 5: write-data, id, version, len, payload.
        assert_eq!(
            hex(&encode_envelope(&env)),
            expect(
                "54515746 02 01 0100 0807060504030201 0900000000000000 1a000000 79478f27
                 05 2a00000000000000 0700000000000000 05000000 a0a1a2a3a4"
            )
        );

        let env = Envelope {
            op_id: OpId(0x21),
            round_epoch: 0,
            lane: Lane::Foreground,
            payload: Request::AddParity {
                id: 9,
                block_index: 2,
                delta: Bytes::from(vec![5, 6]),
                expected_version: 3,
                new_version: 4,
                coeff: 0x53,
                new_check: Some(0xDEAD_BEEF_0BAD_F00D),
            },
        };
        // Body 47 + 2: add-parity, id, block index, expected version,
        // new version; coeff, has new check, new check; len, delta.
        assert_eq!(
            hex(&encode_envelope(&env)),
            expect(
                "54515746 02 01 0000 2100000000000000 0000000000000000 31000000 7c6c2571
                 0a 0900000000000000 0200000000000000 0300000000000000 0400000000000000
                 53 01 0df0ad0befbeadde
                 02000000 0506"
            )
        );

        let reply = Reply {
            op_id: OpId(0x22),
            round_epoch: 5,
            result: Ok(Response::Data {
                bytes: Bytes::from(vec![1, 2]),
                version: 7,
                check: 0x0123_4567_89AB_CDEF,
            }),
        };
        // Body 22 + 2: ok, data, version, check, len, payload.
        assert_eq!(
            hex(&encode_reply(&reply)),
            expect(
                "54515746 02 02 0000 2200000000000000 0500000000000000 18000000 2f8ff0ed
                 00 03 0700000000000000 efcdab8967452301 02000000 0102"
            )
        );

        let reply = Reply {
            op_id: OpId(0x1112_1314_1516_1718),
            round_epoch: 3,
            result: Ok(Response::Parity {
                bytes: Bytes::from(vec![1, 2, 3]),
                versions: vec![4, 5],
                checks: vec![6, 7],
            }),
        };
        // Body 14 + 16·2 + 3: ok, parity; versions; checks; len, payload.
        assert_eq!(
            hex(&encode_reply(&reply)),
            expect(
                "54515746 02 02 0000 1817161514131211 0300000000000000 31000000 f7b4c061
                 00 04
                 02000000 0400000000000000 0500000000000000
                 02000000 0600000000000000 0700000000000000
                 03000000 010203"
            )
        );
    }

    #[test]
    fn every_frame_fits_the_buffer_it_started_in() {
        // A frame that outgrew `start_frame`'s reserve would be copied,
        // payload and all, by the `Vec`'s regrowth. The variants below
        // carry every variable-length field the format has.
        let payload = Bytes::from(vec![0x5A; 4096]);
        let words: Vec<u64> = (0..255).collect();
        let requests = [
            Request::InitParity {
                id: 1,
                bytes: payload.clone(),
                k: 255,
                checks: words.clone(),
            },
            Request::WriteData {
                id: 2,
                bytes: payload.clone(),
                version: 3,
            },
            Request::WriteParity {
                id: 4,
                bytes: payload.clone(),
                versions: words.clone(),
                checks: words.clone(),
            },
            Request::AddParity {
                id: 5,
                block_index: 6,
                delta: payload.clone(),
                expected_version: 7,
                new_version: 8,
                coeff: 0x53,
                new_check: Some(9),
            },
        ];
        for req in requests {
            let reserved = start_frame(request_variable_len(&req)).capacity();
            let frame = encode_envelope(&Envelope::new(req));
            assert_eq!(frame.capacity(), reserved, "{} bytes", frame.len());
        }
        let responses = [
            Response::Data {
                bytes: payload.clone(),
                version: 1,
                check: 2,
            },
            Response::Parity {
                bytes: payload,
                versions: words.clone(),
                checks: words.clone(),
            },
            Response::Versions(words),
        ];
        // A reply's payload travels apart from its head, and the whole
        // frame is one buffer of its exact size.
        for resp in responses {
            let reserved = start_frame(response_variable_len(&resp)).capacity();
            let reply = Reply::to(&Envelope::new(Request::Ping), Ok(resp));
            let head = encode_reply_parts(&reply).head;
            assert_eq!(head.capacity(), reserved, "{} bytes", head.len());
            let frame = encode_reply(&reply);
            assert_eq!(frame.capacity(), frame.len());
        }
    }

    #[test]
    fn reply_parts_concatenate_to_the_frame_for_every_variant() {
        let payload = Bytes::from(vec![0xC3; 100]);
        let responses = [
            Response::Pong,
            Response::Ack,
            Response::Data {
                bytes: payload.clone(),
                version: 1,
                check: 2,
            },
            Response::Parity {
                bytes: payload.clone(),
                versions: vec![3, 4],
                checks: vec![5, 6],
            },
            Response::Parity {
                bytes: payload.clone(),
                versions: vec![3, 4],
                checks: vec![],
            },
            Response::Version(7),
            Response::Versions(vec![8, 9]),
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
                index: 0,
                got: 1,
                stored: 2,
            },
            NodeError::SizeMismatch { stored: 3, got: 4 },
            NodeError::BadBlockIndex { index: 5, k: 6 },
            NodeError::TimedOut,
            NodeError::Corrupt,
            NodeError::TransportClosed,
            NodeError::Overloaded,
        ];
        // Exhaustive matches: a new variant does not compile until it is
        // listed above.
        for resp in &responses {
            match resp {
                Response::Pong
                | Response::Ack
                | Response::Data { .. }
                | Response::Parity { .. }
                | Response::Version(_)
                | Response::Versions(_) => {}
            }
        }
        for err in &errors {
            match err {
                NodeError::Down
                | NodeError::NotFound
                | NodeError::WrongKind
                | NodeError::VersionConflict { .. }
                | NodeError::VectorConflict { .. }
                | NodeError::SizeMismatch { .. }
                | NodeError::BadBlockIndex { .. }
                | NodeError::TimedOut
                | NodeError::Corrupt
                | NodeError::TransportClosed
                | NodeError::Overloaded => {}
            }
        }
        let results = responses
            .into_iter()
            .map(Ok)
            .chain(errors.into_iter().map(Err));
        for result in results {
            let reply = Reply {
                op_id: OpId(0x0A0B_0C0D),
                round_epoch: 4,
                result,
            };
            let parts = encode_reply_parts(&reply);
            let joined = [&parts.head[..], parts.payload].concat();
            assert_eq!(joined, encode_reply(&reply), "{reply:?}");
            match &reply.result {
                // The payload part is the reply's own buffer, not a copy.
                Ok(Response::Data { bytes, .. } | Response::Parity { bytes, .. }) => {
                    assert_eq!(parts.payload.as_ptr(), bytes.as_ptr());
                    assert_eq!(parts.payload.len(), bytes.len());
                }
                _ => assert!(parts.payload.is_empty()),
            }
            match decode_frame(&Bytes::from(joined)).expect("decodes") {
                (Frame::Reply(r), _) => assert_eq!(r, reply),
                (other, _) => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn envelope_roundtrips_and_payload_is_zero_copy() {
        let env = Envelope::in_epoch(
            Request::WriteData {
                id: 42,
                bytes: Bytes::from(vec![9u8; 64]),
                version: 7,
            },
            3,
        );
        let wire = Bytes::from(encode_envelope(&env));
        let (frame, n) = decode_frame(&wire).expect("decodes");
        assert_eq!(n, wire.len());
        let decoded = match frame {
            Frame::Envelope(e) => e,
            other => panic!("{other:?}"),
        };
        assert_eq!(decoded, env);
        // The decoded payload is a sub-view of the receive buffer, not a copy.
        match &decoded.payload {
            Request::WriteData { bytes, .. } => {
                let off = wire.as_ptr() as usize;
                let p = bytes.as_ptr() as usize;
                assert!(
                    p >= off && p + bytes.len() <= off + wire.len(),
                    "payload must alias the receive buffer"
                );
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn reply_roundtrips_both_arms() {
        let env = Envelope::new(Request::Ping);
        for result in [
            Ok(Response::Parity {
                bytes: Bytes::from(vec![1, 2, 3]),
                versions: vec![4, 5, 6],
                checks: vec![7, 8],
            }),
            Err(NodeError::VectorConflict {
                index: 1,
                got: 2,
                stored: 9,
            }),
            Err(NodeError::Corrupt),
        ] {
            let reply = Reply::to(&env, result.clone());
            let wire = Bytes::from(encode_reply(&reply));
            match decode_frame(&wire).expect("decodes") {
                (Frame::Reply(r), n) => {
                    assert_eq!(n, wire.len());
                    assert_eq!(r, reply);
                }
                (other, _) => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn all_request_variants_roundtrip() {
        let payload = Bytes::from(vec![0xAB; 16]);
        let reqs = vec![
            Request::Ping,
            Request::InitData {
                id: 1,
                bytes: payload.clone(),
            },
            Request::InitParity {
                id: 2,
                bytes: payload.clone(),
                k: 3,
                checks: vec![0xAA, 0xBB, 0xCC],
            },
            Request::InitParity {
                id: 2,
                bytes: payload.clone(),
                k: 3,
                checks: vec![],
            },
            Request::ReadData { id: 3 },
            Request::WriteData {
                id: 4,
                bytes: payload.clone(),
                version: 5,
            },
            Request::VersionData { id: 5 },
            Request::VersionVector { id: 6 },
            Request::ReadParity { id: 7 },
            Request::WriteParity {
                id: 8,
                bytes: payload.clone(),
                versions: vec![1, 2, 3],
                checks: vec![9, 10, 11],
            },
            Request::AddParity {
                id: 9,
                block_index: 2,
                delta: payload.clone(),
                expected_version: 3,
                new_version: 4,
                coeff: 1,
                new_check: None,
            },
            Request::AddParity {
                id: 9,
                block_index: 2,
                delta: payload,
                expected_version: 3,
                new_version: 4,
                coeff: 0x53,
                new_check: Some(0xDEAD_BEEF_0BAD_F00D),
            },
        ];
        for req in reqs {
            let env = Envelope::new(req);
            assert_eq!(roundtrip_env(&env), env);
        }
    }

    #[test]
    fn truncation_at_every_offset_is_typed() {
        let env = Envelope::new(Request::WriteParity {
            id: 8,
            bytes: Bytes::from(vec![7u8; 10]),
            versions: vec![1, 2, 3],
            checks: vec![4, 5, 6],
        });
        let wire = encode_envelope(&env);
        for cut in 0..wire.len() {
            let buf = Bytes::copy_from_slice(&wire[..cut]);
            let err = decode_frame(&buf).expect_err("truncated frame must fail");
            // Every truncation is Truncated (checksum covers a full header,
            // so a short header is reported as truncation, not corruption).
            assert!(
                matches!(err, DecodeError::Truncated { .. }),
                "cut={cut}: {err:?}"
            );
        }
    }

    #[test]
    fn corrupt_header_is_rejected_by_checksum() {
        let env = Envelope::new(Request::ReadData { id: 1 });
        let mut wire = encode_envelope(&env);
        wire[9] ^= 0x40; // flip a bit inside the op id
        let err = decode_frame(&Bytes::from(wire)).expect_err("corrupt header");
        assert!(matches!(err, DecodeError::HeaderChecksum { .. }), "{err:?}");
    }

    #[test]
    fn bad_magic_and_version_and_kind() {
        let env = Envelope::new(Request::Ping);
        let good = encode_envelope(&env);

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_frame(&Bytes::from(bad)),
            Err(DecodeError::BadMagic(_))
        ));

        // Version / kind are checksummed, so flip and re-checksum.
        let mut bad = good.clone();
        bad[4] = 99;
        let crc = crc32(&bad[0..28]);
        bad[28..32].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode_frame(&Bytes::from(bad)),
            Err(DecodeError::UnsupportedVersion(99))
        ));

        let mut bad = good;
        bad[5] = 0x7F;
        let crc = crc32(&bad[0..28]);
        bad[28..32].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode_frame(&Bytes::from(bad)),
            Err(DecodeError::UnknownKind(0x7F))
        ));
    }

    #[test]
    fn oversized_length_fields_do_not_allocate_or_overread() {
        // Body claims a payload far larger than the body itself.
        let env = Envelope::new(Request::InitData {
            id: 1,
            bytes: Bytes::from(vec![1, 2, 3]),
        });
        let mut wire = encode_envelope(&env);
        // The payload length field sits right after tag(1)+id(8) in the body.
        let len_off = HEADER_LEN + 1 + 8;
        wire[len_off..len_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_frame(&Bytes::from(wire)).expect_err("oversized length");
        assert!(matches!(err, DecodeError::LengthOverflow { .. }), "{err:?}");

        // Header claims a body over the global cap.
        let reply = Reply::to(&Envelope::new(Request::Ping), Ok(Response::Pong));
        let mut wire = encode_reply(&reply);
        wire[24..28].copy_from_slice(&(MAX_BODY_LEN + 1).to_le_bytes());
        let crc = crc32(&wire[0..28]);
        wire[28..32].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode_frame(&Bytes::from(wire)),
            Err(DecodeError::BodyTooLarge { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let env = Envelope::new(Request::Ping);
        let mut wire = encode_envelope(&env);
        // Grow the body by one byte and fix up the header.
        wire.push(0);
        let body_len = (wire.len() - HEADER_LEN) as u32;
        wire[24..28].copy_from_slice(&body_len.to_le_bytes());
        let crc = crc32(&wire[0..28]);
        wire[28..32].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode_frame(&Bytes::from(wire)),
            Err(DecodeError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn a_new_check_presence_byte_is_0_or_1() {
        let env = Envelope::new(Request::AddParity {
            id: 9,
            block_index: 2,
            delta: Bytes::from(vec![5u8; 3]),
            expected_version: 3,
            new_version: 4,
            coeff: 1,
            new_check: None,
        });
        let mut wire = encode_envelope(&env);
        // tag, id, block index, expected and new version, coeff.
        let presence = HEADER_LEN + 1 + 4 * 8 + 1;
        assert_eq!(wire[presence], 0);
        wire[presence] = 2;
        assert_eq!(
            decode_frame(&Bytes::from(wire)),
            Err(DecodeError::BadValue("add-parity new-check presence"))
        );
    }

    #[test]
    fn back_to_back_frames_drain_in_a_loop() {
        let a = Envelope::new(Request::ReadData { id: 1 });
        let b = Reply::to(&a, Ok(Response::Version(9)));
        let mut wire = encode_envelope(&a);
        wire.extend_from_slice(&encode_reply(&b));
        let buf = Bytes::from(wire);

        let (first, n) = decode_frame(&buf).expect("first frame");
        assert_eq!(first, Frame::Envelope(a));
        let rest = buf.slice(n..);
        let (second, m) = decode_frame(&rest).expect("second frame");
        assert_eq!(second, Frame::Reply(b));
        assert_eq!(n + m, buf.len());
    }
}
