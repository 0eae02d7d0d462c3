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
//!      4     1  version      WIRE_VERSION (1)
//!      5     1  kind         0x01 request frame / 0x02 reply frame
//!      6     2  flags        bit 0 = background lane; rest reserved (LE)
//!      8     8  op id        Envelope/Reply op identity, little-endian
//!     16     8  round epoch  issuing round's epoch, little-endian
//!     24     4  body len     bytes following the header, little-endian
//!     28     4  header CRC   CRC-32 (IEEE) over bytes 0..28
//! ```
//!
//! # Zero-copy bodies
//!
//! Decoding borrows block payloads straight out of the receive buffer:
//! [`decode_frame`] takes the buffer as a [`Bytes`] and every payload
//! field in the returned [`Request`]/[`Response`] is a
//! [`Bytes::slice`] sharing that allocation. The PR 5 zero-copy
//! contract — one allocation per block payload, refcounted everywhere —
//! survives serialization. Encoding a reply copies no payload either:
//! `encode_reply_parts` splits the frame around the payload, which
//! stays in the reply's own buffer, and the TCP server writes the parts
//! with one vectored write.
//!
//! # Trailing extensions
//!
//! The integrity-mode fields (cross-checksum vectors, the add-parity
//! fold coefficient, per-block self-checks) ride as *trailing
//! extensions* — `tag(u8) · len(u32) · payload` triples appended after
//! the fixed fields of exactly the five extended body variants
//! (init-parity / write-parity / add-parity requests; data / parity
//! responses). A decoder skips unknown extension tags and defaults
//! absent ones, so old frames decode on new peers and vice versa with
//! no wire-version bump; every other variant still rejects trailing
//! bytes outright.
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
pub const MAGIC: [u8; 4] = *b"TQWF";

/// Header flag bit: the command travels in the background/maintenance
/// lane ([`Lane::Background`]). Foreground encodes as 0, so frames from
/// pre-lane peers decode as foreground and foreground frames stay
/// byte-identical to pre-lane encodings; peers that predate the bit
/// ignore it (flags have always been "must decode, may be any value").
pub const FLAG_BACKGROUND: u16 = 0x0001;

/// Current wire protocol version. Bump on any incompatible layout change.
pub const WIRE_VERSION: u8 = 1;

/// Fixed frame header length in bytes.
pub const HEADER_LEN: usize = 32;

/// Upper bound on a frame body (64 MiB). Far above any real block, and
/// low enough that a corrupted length field cannot stall a reader on a
/// multi-gigabyte read.
pub const MAX_BODY_LEN: u32 = 64 << 20;

/// What a frame carries: the direction of the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// The frame body is a [`Request`] (an [`Envelope`] on the wire).
    Request,
    /// The frame body is a `Result<Response, NodeError>` (a [`Reply`]).
    Reply,
}

impl FrameKind {
    fn code(self) -> u8 {
        match self {
            FrameKind::Request => 0x01,
            FrameKind::Reply => 0x02,
        }
    }

    fn from_code(code: u8) -> Result<Self, DecodeError> {
        match code {
            0x01 => Ok(FrameKind::Request),
            0x02 => Ok(FrameKind::Reply),
            other => Err(DecodeError::UnknownKind(other)),
        }
    }
}

/// The decoded fixed header of one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Direction of the message in the body.
    pub kind: FrameKind,
    /// Flag bits. Bit 0 ([`FLAG_BACKGROUND`]) marks background-lane
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
        buf[5] = self.kind.code();
        buf[6..8].copy_from_slice(&self.flags.to_le_bytes());
        buf[8..16].copy_from_slice(&self.op_id.0.to_le_bytes());
        buf[16..24].copy_from_slice(&self.round_epoch.to_le_bytes());
        buf[24..28].copy_from_slice(&self.body_len.to_le_bytes());
        let crc = crc32(&buf[0..28]);
        buf[28..32].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Decodes and validates a header from the front of `buf`.
    ///
    /// Checks, in order: enough bytes, magic, header checksum, version,
    /// kind, body length bound. Never panics, never reads past `buf`.
    pub fn decode(buf: &[u8]) -> Result<Header, DecodeError> {
        if buf.len() < HEADER_LEN {
            return Err(DecodeError::Truncated {
                needed: HEADER_LEN,
                got: buf.len(),
            });
        }
        let magic: [u8; 4] = fixed(buf, 0)?;
        if magic != MAGIC {
            return Err(DecodeError::BadMagic(magic));
        }
        // Checksum before semantic fields: a corrupt header must not be
        // interpreted, even partially.
        let stored_crc = u32::from_le_bytes(fixed(buf, 28)?);
        let covered = buf.get(0..28).ok_or(DecodeError::Truncated {
            needed: 28,
            got: buf.len(),
        })?;
        let actual_crc = crc32(covered);
        if stored_crc != actual_crc {
            return Err(DecodeError::HeaderChecksum {
                stored: stored_crc,
                computed: actual_crc,
            });
        }
        let [version] = fixed(buf, 4)?;
        if version != WIRE_VERSION {
            return Err(DecodeError::UnsupportedVersion(version));
        }
        let [kind_code] = fixed(buf, 5)?;
        let kind = FrameKind::from_code(kind_code)?;
        let flags = u16::from_le_bytes(fixed(buf, 6)?);
        let op_id = OpId(u64::from_le_bytes(fixed(buf, 8)?));
        let round_epoch = u64::from_le_bytes(fixed(buf, 16)?);
        let body_len = u32::from_le_bytes(fixed(buf, 24)?);
        if body_len > MAX_BODY_LEN {
            return Err(DecodeError::BodyTooLarge {
                len: body_len,
                max: MAX_BODY_LEN,
            });
        }
        Ok(Header {
            kind,
            flags,
            op_id,
            round_epoch,
            body_len,
        })
    }
}

/// Borrows `N` bytes at offset `at` as a fixed array, or reports
/// truncation. The index-free workhorse of [`Header::decode`].
fn fixed<const N: usize>(buf: &[u8], at: usize) -> Result<[u8; N], DecodeError> {
    buf.get(at..at + N)
        .and_then(|s| <[u8; N]>::try_from(s).ok())
        .ok_or(DecodeError::Truncated {
            needed: at + N,
            got: buf.len(),
        })
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
    /// The first four bytes are not [`MAGIC`] — not a frame, or a
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
// CRC-32 (IEEE 802.3), slicing-by-8; the tables are built at compile time.
// ---------------------------------------------------------------------

/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[j][b]`
/// is the CRC of byte `b` followed by `j` zero bytes, which is what lets
/// eight table reads advance the register over eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
};

/// One byte into the CRC register.
#[inline]
fn crc32_step(crc: u32, b: u8) -> u32 {
    (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize]
}

/// CRC-32 (IEEE) over `bytes` — the header and record checksum used
/// across the wire format and the append-only storage log.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunks_exact(8)")) ^ crc as u64;
        crc = CRC_TABLES[7][(word & 0xFF) as usize]
            ^ CRC_TABLES[6][(word >> 8 & 0xFF) as usize]
            ^ CRC_TABLES[5][(word >> 16 & 0xFF) as usize]
            ^ CRC_TABLES[4][(word >> 24 & 0xFF) as usize]
            ^ CRC_TABLES[3][(word >> 32 & 0xFF) as usize]
            ^ CRC_TABLES[2][(word >> 40 & 0xFF) as usize]
            ^ CRC_TABLES[1][(word >> 48 & 0xFF) as usize]
            ^ CRC_TABLES[0][(word >> 56) as usize];
    }
    for &b in words.remainder() {
        crc = crc32_step(crc, b);
    }
    !crc
}

// ---------------------------------------------------------------------
// Body tags.
// ---------------------------------------------------------------------

mod tag {
    // Request body.
    pub const PING: u8 = 0x01;
    pub const INIT_DATA: u8 = 0x02;
    pub const INIT_PARITY: u8 = 0x03;
    pub const READ_DATA: u8 = 0x04;
    pub const WRITE_DATA: u8 = 0x05;
    pub const VERSION_DATA: u8 = 0x06;
    pub const VERSION_VECTOR: u8 = 0x07;
    pub const READ_PARITY: u8 = 0x08;
    pub const WRITE_PARITY: u8 = 0x09;
    pub const ADD_PARITY: u8 = 0x0A;

    // Reply body leads with a result discriminant.
    pub const RESULT_OK: u8 = 0x00;
    pub const RESULT_ERR: u8 = 0x01;

    // Response body.
    pub const PONG: u8 = 0x01;
    pub const ACK: u8 = 0x02;
    pub const DATA: u8 = 0x03;
    pub const PARITY: u8 = 0x04;
    pub const VERSION: u8 = 0x05;
    pub const VERSIONS: u8 = 0x06;

    // NodeError body.
    pub const ERR_DOWN: u8 = 0x01;
    pub const ERR_NOT_FOUND: u8 = 0x02;
    pub const ERR_WRONG_KIND: u8 = 0x03;
    pub const ERR_VERSION_CONFLICT: u8 = 0x04;
    pub const ERR_VECTOR_CONFLICT: u8 = 0x05;
    pub const ERR_SIZE_MISMATCH: u8 = 0x06;
    pub const ERR_BAD_BLOCK_INDEX: u8 = 0x07;
    pub const ERR_TRANSPORT_CLOSED: u8 = 0x08;
    pub const ERR_TIMED_OUT: u8 = 0x09;
    pub const ERR_CORRUPT: u8 = 0x0A;
    pub const ERR_OVERLOADED: u8 = 0x0B;

    // Trailing extension fields (`tag(u8) · len(u32) · payload`) appended
    // after the fixed fields of the *extended* body variants only
    // (init-parity / write-parity / add-parity requests; data / parity
    // responses). Decoders skip unknown tags, so new fields can ride on
    // existing frames without a wire-version bump; absent extensions
    // decode to their documented defaults.
    pub const EXT_CHECKS: u8 = 0x01;
    pub const EXT_COEFF: u8 = 0x02;
    pub const EXT_NEW_CHECK: u8 = 0x03;
    pub const EXT_CHECK: u8 = 0x04;
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

/// Appends one `tag · len · payload` extension holding a `u64`.
fn put_ext_u64(out: &mut Vec<u8>, tag: u8, v: u64) {
    out.push(tag);
    put_u32(out, 8);
    put_u64(out, v);
}

/// Appends the cross-checksum vector as an extension — skipped entirely
/// when the vector is empty (empty and absent are the same state:
/// "no checksums known").
fn put_ext_checks(out: &mut Vec<u8>, checks: &[u64]) {
    if checks.is_empty() {
        return;
    }
    out.push(tag::EXT_CHECKS);
    put_u32(out, 4 + 8 * checks.len() as u32);
    put_versions(out, checks);
}

fn encode_request_body(req: &Request, out: &mut Vec<u8>) {
    match req {
        Request::Ping => out.push(tag::PING),
        Request::InitData { id, bytes } => {
            out.push(tag::INIT_DATA);
            put_u64(out, *id);
            put_bytes(out, bytes);
        }
        Request::InitParity {
            id,
            bytes,
            k,
            checks,
        } => {
            out.push(tag::INIT_PARITY);
            put_u64(out, *id);
            put_u64(out, *k as u64);
            put_bytes(out, bytes);
            put_ext_checks(out, checks);
        }
        Request::ReadData { id } => {
            out.push(tag::READ_DATA);
            put_u64(out, *id);
        }
        Request::WriteData { id, bytes, version } => {
            out.push(tag::WRITE_DATA);
            put_u64(out, *id);
            put_u64(out, *version);
            put_bytes(out, bytes);
        }
        Request::VersionData { id } => {
            out.push(tag::VERSION_DATA);
            put_u64(out, *id);
        }
        Request::VersionVector { id } => {
            out.push(tag::VERSION_VECTOR);
            put_u64(out, *id);
        }
        Request::ReadParity { id } => {
            out.push(tag::READ_PARITY);
            put_u64(out, *id);
        }
        Request::WriteParity {
            id,
            bytes,
            versions,
            checks,
        } => {
            out.push(tag::WRITE_PARITY);
            put_u64(out, *id);
            put_versions(out, versions);
            put_bytes(out, bytes);
            put_ext_checks(out, checks);
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
            out.push(tag::ADD_PARITY);
            put_u64(out, *id);
            put_u64(out, *block_index as u64);
            put_u64(out, *expected_version);
            put_u64(out, *new_version);
            put_bytes(out, delta);
            // coeff = 1 is the pre-extension meaning of the frame (delta
            // already scaled), so it is encoded only when it carries
            // information — old peers fold these frames correctly.
            if *coeff != 1 {
                out.push(tag::EXT_COEFF);
                put_u32(out, 1);
                out.push(*coeff);
            }
            if let Some(nc) = new_check {
                put_ext_u64(out, tag::EXT_NEW_CHECK, *nc);
            }
        }
    }
}

/// Encodes a response's fields around its payload: those before it into
/// `head`, ending with the payload's length, and those after it into
/// `tail`. Returns the payload, which is empty for a response without
/// one.
fn encode_response_body<'a>(
    resp: &'a Response,
    head: &mut Vec<u8>,
    tail: &mut Vec<u8>,
) -> &'a [u8] {
    match resp {
        Response::Pong => head.push(tag::PONG),
        Response::Ack => head.push(tag::ACK),
        Response::Data {
            bytes,
            version,
            check,
        } => {
            head.push(tag::DATA);
            put_u64(head, *version);
            put_u32(head, bytes.len() as u32);
            put_ext_u64(tail, tag::EXT_CHECK, *check);
            return bytes;
        }
        Response::Parity {
            bytes,
            versions,
            checks,
        } => {
            head.push(tag::PARITY);
            put_versions(head, versions);
            put_u32(head, bytes.len() as u32);
            put_ext_checks(tail, checks);
            return bytes;
        }
        Response::Version(v) => {
            head.push(tag::VERSION);
            put_u64(head, *v);
        }
        Response::Versions(vs) => {
            head.push(tag::VERSIONS);
            put_versions(head, vs);
        }
    }
    &[]
}

fn encode_error_body(err: &NodeError, out: &mut Vec<u8>) {
    match err {
        NodeError::Down => out.push(tag::ERR_DOWN),
        NodeError::NotFound => out.push(tag::ERR_NOT_FOUND),
        NodeError::WrongKind => out.push(tag::ERR_WRONG_KIND),
        NodeError::VersionConflict { expected, actual } => {
            out.push(tag::ERR_VERSION_CONFLICT);
            put_u64(out, *expected);
            put_u64(out, *actual);
        }
        NodeError::VectorConflict { index, got, stored } => {
            out.push(tag::ERR_VECTOR_CONFLICT);
            put_u64(out, *index as u64);
            put_u64(out, *got);
            put_u64(out, *stored);
        }
        NodeError::SizeMismatch { stored, got } => {
            out.push(tag::ERR_SIZE_MISMATCH);
            put_u64(out, *stored as u64);
            put_u64(out, *got as u64);
        }
        NodeError::BadBlockIndex { index, k } => {
            out.push(tag::ERR_BAD_BLOCK_INDEX);
            put_u64(out, *index as u64);
            put_u64(out, *k as u64);
        }
        NodeError::TransportClosed => out.push(tag::ERR_TRANSPORT_CLOSED),
        NodeError::TimedOut => out.push(tag::ERR_TIMED_OUT),
        NodeError::Corrupt => out.push(tag::ERR_CORRUPT),
        NodeError::Overloaded => out.push(tag::ERR_OVERLOADED),
    }
}

/// A frame buffer with room for a body whose variable-length fields
/// (block payload, version and checksum vectors) total `variable` bytes,
/// and the header's place left blank at the front: the body is encoded
/// straight behind it and [`finish_frame`] fills the header in, so a
/// payload is copied once, into a buffer that never regrows.
fn start_frame(variable: usize) -> Vec<u8> {
    // Tags, ids, versions, lengths and extension headers of the largest
    // variant (add-parity) come to 60 bytes.
    const FIXED_FIELDS: usize = 64;
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

/// A reply frame in the three parts a server writes with one vectored
/// write, so that a served payload reaches the socket from the buffer
/// it was served in: the header and the fields before the payload, the
/// payload (empty for a reply without one), and the fields after it.
/// [`encode_reply`] is their concatenation.
#[derive(Debug)]
pub(crate) struct ReplyParts<'a> {
    /// Header, result tag and the fields up to the payload's length.
    pub(crate) head: Vec<u8>,
    /// The payload, borrowed from the reply.
    pub(crate) payload: &'a [u8],
    /// The trailing extension fields.
    pub(crate) tail: Vec<u8>,
}

/// Encodes a [`Reply`] into its [`ReplyParts`], copying no payload byte.
pub(crate) fn encode_reply_parts(reply: &Reply) -> ReplyParts<'_> {
    let mut head = start_frame(reply.result.as_ref().map_or(0, response_variable_len));
    let mut tail = Vec::new();
    let payload = match &reply.result {
        Ok(resp) => {
            head.push(tag::RESULT_OK);
            encode_response_body(resp, &mut head, &mut tail)
        }
        Err(err) => {
            head.push(tag::RESULT_ERR);
            encode_error_body(err, &mut head);
            &[]
        }
    };
    let body_len = head.len() - HEADER_LEN + payload.len() + tail.len();
    finish_frame(
        FrameKind::Reply,
        0,
        reply.op_id,
        reply.round_epoch,
        &mut head,
        body_len,
    );
    ReplyParts {
        head,
        payload,
        tail,
    }
}

/// Encodes a [`Reply`] into one complete frame (header + body): the
/// three parts the TCP server writes, concatenated into one buffer of
/// the frame's size.
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let parts = encode_reply_parts(reply);
    [&parts.head[..], parts.payload, &parts.tail[..]].concat()
}

// ---------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------

/// Bounds-checked cursor over a frame body held as [`Bytes`], so payload
/// reads can hand out zero-copy sub-views of the receive buffer.
struct Cursor<'a> {
    buf: &'a Bytes,
    pos: usize,
    end: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a Bytes, start: usize, end: usize) -> Self {
        Cursor {
            buf,
            pos: start,
            end,
        }
    }

    fn remaining(&self) -> usize {
        self.end - self.pos
    }

    fn need(&self, n: usize) -> Result<(), DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated {
                needed: n,
                got: self.remaining(),
            });
        }
        Ok(())
    }

    /// Takes the next `N` bytes as a fixed array, advancing the cursor.
    /// Total: out-of-range is `Truncated`, never a panic.
    fn chunk<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        self.need(N)?;
        let arr = self
            .buf
            .get(self.pos..self.pos + N)
            .and_then(|s| <[u8; N]>::try_from(s).ok())
            .ok_or(DecodeError::Truncated {
                needed: N,
                got: self.remaining(),
            })?;
        self.pos += N;
        Ok(arr)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        let [v] = self.chunk::<1>()?;
        Ok(v)
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.chunk()?))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.chunk()?))
    }

    fn usize_field(&mut self, what: &'static str) -> Result<usize, DecodeError> {
        usize::try_from(self.u64()?).map_err(|_| DecodeError::BadValue(what))
    }

    /// Length-prefixed payload as a zero-copy sub-view of the buffer.
    fn bytes_field(&mut self, field: &'static str) -> Result<Bytes, DecodeError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(DecodeError::LengthOverflow {
                field,
                claimed: len as u64,
                remaining: self.remaining(),
            });
        }
        let b = self.buf.slice(self.pos..self.pos + len);
        self.pos += len;
        Ok(b)
    }

    /// Length-prefixed `Vec<u64>`; the count is validated against the
    /// bytes present before any allocation.
    fn versions_field(&mut self, field: &'static str) -> Result<Vec<u64>, DecodeError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(8) > self.remaining() {
            return Err(DecodeError::LengthOverflow {
                field,
                claimed: count as u64,
                remaining: self.remaining(),
            });
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(DecodeError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }

    /// Consumes every remaining body byte as `tag · len · payload`
    /// extension fields. Known tags are parsed (with their payload length
    /// validated); unknown tags are skipped, so frames from newer peers
    /// carrying extensions this decoder does not know still decode.
    /// Absent extensions leave the documented defaults: empty checks
    /// vector, `coeff = 1`, `new_check = None`, `check = 0`.
    fn extensions(&mut self) -> Result<Extensions, DecodeError> {
        let mut ext = Extensions::default();
        while self.remaining() > 0 {
            let tag = self.u8()?;
            let len = self.u32()? as usize;
            if len > self.remaining() {
                return Err(DecodeError::LengthOverflow {
                    field: "extension payload",
                    claimed: len as u64,
                    remaining: self.remaining(),
                });
            }
            let end = self.pos + len;
            match tag {
                tag::EXT_CHECKS => {
                    let count = self.u32()? as usize;
                    if len != 4 + count.saturating_mul(8) {
                        return Err(DecodeError::BadValue("checks extension length"));
                    }
                    let mut checks = Vec::with_capacity(count);
                    for _ in 0..count {
                        checks.push(self.u64()?);
                    }
                    ext.checks = checks;
                }
                tag::EXT_COEFF => {
                    if len != 1 {
                        return Err(DecodeError::BadValue("coeff extension length"));
                    }
                    ext.coeff = self.u8()?;
                }
                tag::EXT_NEW_CHECK => {
                    if len != 8 {
                        return Err(DecodeError::BadValue("new-check extension length"));
                    }
                    ext.new_check = Some(self.u64()?);
                }
                tag::EXT_CHECK => {
                    if len != 8 {
                        return Err(DecodeError::BadValue("check extension length"));
                    }
                    ext.check = self.u64()?;
                }
                // Unknown extension: forward compatibility — skip it.
                _ => self.pos = end,
            }
            debug_assert_eq!(self.pos, end, "extension parser must consume its payload");
        }
        Ok(ext)
    }
}

/// Extension fields decoded off the tail of an extended body variant,
/// pre-loaded with the defaults an extension-free (legacy) frame means.
struct Extensions {
    checks: Vec<u64>,
    coeff: u8,
    new_check: Option<u64>,
    check: u64,
}

impl Default for Extensions {
    fn default() -> Self {
        Extensions {
            checks: Vec::new(),
            coeff: 1,
            new_check: None,
            check: 0,
        }
    }
}

fn decode_request_body(cur: &mut Cursor<'_>) -> Result<Request, DecodeError> {
    let t = cur.u8()?;
    Ok(match t {
        tag::PING => Request::Ping,
        tag::INIT_DATA => Request::InitData {
            id: cur.u64()?,
            bytes: cur.bytes_field("init-data payload")?,
        },
        tag::INIT_PARITY => {
            let id = cur.u64()?;
            let k = cur.usize_field("init-parity k")?;
            let bytes = cur.bytes_field("init-parity payload")?;
            let ext = cur.extensions()?;
            Request::InitParity {
                id,
                k,
                bytes,
                checks: ext.checks,
            }
        }
        tag::READ_DATA => Request::ReadData { id: cur.u64()? },
        tag::WRITE_DATA => Request::WriteData {
            id: cur.u64()?,
            version: cur.u64()?,
            bytes: cur.bytes_field("write-data payload")?,
        },
        tag::VERSION_DATA => Request::VersionData { id: cur.u64()? },
        tag::VERSION_VECTOR => Request::VersionVector { id: cur.u64()? },
        tag::READ_PARITY => Request::ReadParity { id: cur.u64()? },
        tag::WRITE_PARITY => {
            let id = cur.u64()?;
            let versions = cur.versions_field("write-parity versions")?;
            let bytes = cur.bytes_field("write-parity payload")?;
            let ext = cur.extensions()?;
            Request::WriteParity {
                id,
                versions,
                bytes,
                checks: ext.checks,
            }
        }
        tag::ADD_PARITY => {
            let id = cur.u64()?;
            let block_index = cur.usize_field("add-parity block index")?;
            let expected_version = cur.u64()?;
            let new_version = cur.u64()?;
            let delta = cur.bytes_field("add-parity delta")?;
            let ext = cur.extensions()?;
            Request::AddParity {
                id,
                block_index,
                expected_version,
                new_version,
                delta,
                coeff: ext.coeff,
                new_check: ext.new_check,
            }
        }
        other => {
            return Err(DecodeError::UnknownTag {
                what: "request",
                tag: other,
            })
        }
    })
}

fn decode_response_body(cur: &mut Cursor<'_>) -> Result<Response, DecodeError> {
    let t = cur.u8()?;
    Ok(match t {
        tag::PONG => Response::Pong,
        tag::ACK => Response::Ack,
        tag::DATA => {
            let version = cur.u64()?;
            let bytes = cur.bytes_field("data payload")?;
            let ext = cur.extensions()?;
            Response::Data {
                version,
                bytes,
                check: ext.check,
            }
        }
        tag::PARITY => {
            let versions = cur.versions_field("parity versions")?;
            let bytes = cur.bytes_field("parity payload")?;
            let ext = cur.extensions()?;
            Response::Parity {
                versions,
                bytes,
                checks: ext.checks,
            }
        }
        tag::VERSION => Response::Version(cur.u64()?),
        tag::VERSIONS => Response::Versions(cur.versions_field("versions")?),
        other => {
            return Err(DecodeError::UnknownTag {
                what: "response",
                tag: other,
            })
        }
    })
}

fn decode_error_body(cur: &mut Cursor<'_>) -> Result<NodeError, DecodeError> {
    let t = cur.u8()?;
    Ok(match t {
        tag::ERR_DOWN => NodeError::Down,
        tag::ERR_NOT_FOUND => NodeError::NotFound,
        tag::ERR_WRONG_KIND => NodeError::WrongKind,
        tag::ERR_VERSION_CONFLICT => NodeError::VersionConflict {
            expected: cur.u64()?,
            actual: cur.u64()?,
        },
        tag::ERR_VECTOR_CONFLICT => NodeError::VectorConflict {
            index: cur.usize_field("vector-conflict index")?,
            got: cur.u64()?,
            stored: cur.u64()?,
        },
        tag::ERR_SIZE_MISMATCH => NodeError::SizeMismatch {
            stored: cur.usize_field("size-mismatch stored")?,
            got: cur.usize_field("size-mismatch got")?,
        },
        tag::ERR_BAD_BLOCK_INDEX => NodeError::BadBlockIndex {
            index: cur.usize_field("bad-block-index index")?,
            k: cur.usize_field("bad-block-index k")?,
        },
        tag::ERR_TRANSPORT_CLOSED => NodeError::TransportClosed,
        tag::ERR_TIMED_OUT => NodeError::TimedOut,
        tag::ERR_CORRUPT => NodeError::Corrupt,
        tag::ERR_OVERLOADED => NodeError::Overloaded,
        other => {
            return Err(DecodeError::UnknownTag {
                what: "error",
                tag: other,
            })
        }
    })
}

/// Decodes the body of a frame whose [`Header`] has already been read,
/// taking the body as a [`Bytes`] so payloads decode zero-copy.
///
/// `body` must hold exactly `header.body_len` bytes (a streaming reader
/// reads exactly that many after the header).
pub fn decode_body(header: &Header, body: &Bytes) -> Result<Frame, DecodeError> {
    if body.len() != header.body_len as usize {
        return Err(DecodeError::Truncated {
            needed: header.body_len as usize,
            got: body.len(),
        });
    }
    let mut cur = Cursor::new(body, 0, body.len());
    let frame = match header.kind {
        FrameKind::Request => Frame::Envelope(Envelope {
            op_id: header.op_id,
            round_epoch: header.round_epoch,
            lane: if header.flags & FLAG_BACKGROUND != 0 {
                Lane::Background
            } else {
                Lane::Foreground
            },
            payload: decode_request_body(&mut cur)?,
        }),
        FrameKind::Reply => {
            let result = match cur.u8()? {
                tag::RESULT_OK => Ok(decode_response_body(&mut cur)?),
                tag::RESULT_ERR => Err(decode_error_body(&mut cur)?),
                other => {
                    return Err(DecodeError::UnknownTag {
                        what: "result",
                        tag: other,
                    })
                }
            };
            Frame::Reply(Reply {
                op_id: header.op_id,
                round_epoch: header.round_epoch,
                result,
            })
        }
    };
    cur.finish()?;
    Ok(frame)
}

/// Decodes one complete frame from the front of `buf`, returning the
/// frame and the total bytes consumed (header + body), so a buffer
/// holding several back-to-back frames can be drained in a loop.
///
/// Payload fields in the returned message are zero-copy
/// [`Bytes::slice`]s of `buf`.
pub fn decode_frame(buf: &Bytes) -> Result<(Frame, usize), DecodeError> {
    let header = Header::decode(buf)?;
    let total = HEADER_LEN + header.body_len as usize;
    if buf.len() < total {
        return Err(DecodeError::Truncated {
            needed: total,
            got: buf.len(),
        });
    }
    let body = buf.slice(HEADER_LEN..total);
    let frame = decode_body(&header, &body)?;
    Ok((frame, total))
}

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
                let bytewise = !sub.iter().fold(0xFFFF_FFFF, |crc, &b| crc32_step(crc, b));
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
    fn frames_are_byte_identical_to_the_two_buffer_encoder() {
        // Both recorded at the commit before header and body shared one
        // buffer: peers on either side of it read each other's frames.
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
        assert_eq!(
            hex(&encode_envelope(&env)),
            "5451574601010100080706050403020109000000000000001a00000051ee917f\
             052a00000000000000070000000000000005000000a0a1a2a3a4"
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
        assert_eq!(
            hex(&encode_reply(&reply)),
            "54515746010200001817161514131211030000000000000036000000662509a4\
             0004020000000400000000000000050000000000000003000000010203\
             01140000000200000006000000000000000700000000000000"
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
            let joined = [&parts.head[..], parts.payload, &parts.tail[..]].concat();
            assert_eq!(joined, encode_reply(&reply), "{reply:?}");
            match &reply.result {
                // The payload part is the reply's own buffer, not a copy.
                Ok(Response::Data { bytes, .. } | Response::Parity { bytes, .. }) => {
                    assert_eq!(parts.payload.as_ptr(), bytes.as_ptr());
                    assert_eq!(parts.payload.len(), bytes.len());
                }
                _ => assert!(parts.payload.is_empty() && parts.tail.is_empty()),
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

    /// Appends raw bytes to a frame's body and re-seals the header
    /// (body length + CRC), simulating a peer that emitted extra
    /// trailing content.
    fn extend_body(mut wire: Vec<u8>, extra: &[u8]) -> Bytes {
        wire.extend_from_slice(extra);
        let body_len = (wire.len() - HEADER_LEN) as u32;
        wire[24..28].copy_from_slice(&body_len.to_le_bytes());
        let crc = crc32(&wire[0..28]);
        wire[28..32].copy_from_slice(&crc.to_le_bytes());
        Bytes::from(wire)
    }

    #[test]
    fn default_valued_extensions_are_not_encoded() {
        // coeff = 1, no new-check, no checks vector: the frame must be
        // byte-identical to the pre-extension layout so old peers still
        // fold it correctly.
        let delta = Bytes::from(vec![5u8; 24]);
        let env = Envelope::new(Request::AddParity {
            id: 9,
            block_index: 2,
            delta: delta.clone(),
            expected_version: 3,
            new_version: 4,
            coeff: 1,
            new_check: None,
        });
        let wire = encode_envelope(&env);
        let fixed = 1 + 8 * 4 + 4 + delta.len(); // tag + 4 u64s + len + payload
        assert_eq!(wire.len(), HEADER_LEN + fixed, "legacy layout changed");
        assert_eq!(roundtrip_env(&env), env);
    }

    #[test]
    fn legacy_extension_free_data_reply_decodes_with_default_check() {
        // Hand-build a data reply body with no trailing extensions, as a
        // pre-integrity peer would emit it.
        let mut body = vec![tag::RESULT_OK, tag::DATA];
        body.extend_from_slice(&7u64.to_le_bytes());
        body.extend_from_slice(&3u32.to_le_bytes());
        body.extend_from_slice(&[1, 2, 3]);
        let mut frame = start_frame(body.len());
        frame.extend_from_slice(&body);
        finish_frame(FrameKind::Reply, 0, OpId(11), 0, &mut frame, body.len());
        let wire = Bytes::from(frame);
        let (frame, _) = decode_frame(&wire).expect("legacy frame decodes");
        match frame {
            Frame::Reply(r) => assert_eq!(
                r.result,
                Ok(Response::Data {
                    version: 7,
                    bytes: Bytes::from(vec![1u8, 2, 3]),
                    check: 0,
                })
            ),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_trailing_extensions_are_skipped_on_extended_variants() {
        let env = Envelope::new(Request::InitParity {
            id: 2,
            bytes: Bytes::from(vec![9u8; 8]),
            k: 3,
            checks: vec![10, 20, 30],
        });
        // tag 0x7F (unknown) · len 3 · payload — a field from the future.
        let wire = extend_body(encode_envelope(&env), &[0x7F, 3, 0, 0, 0, 0xA, 0xB, 0xC]);
        match decode_frame(&wire).expect("unknown extension must be skipped") {
            (Frame::Envelope(e), _) => assert_eq!(e, env),
            (other, _) => panic!("{other:?}"),
        }

        // Same on the reply side.
        let reply = Reply::to(
            &env,
            Ok(Response::Parity {
                bytes: Bytes::from(vec![1, 2]),
                versions: vec![3, 4],
                checks: vec![5, 6],
            }),
        );
        let wire = extend_body(encode_reply(&reply), &[0xEE, 1, 0, 0, 0, 0xFF]);
        match decode_frame(&wire).expect("unknown reply extension must be skipped") {
            (Frame::Reply(r), _) => assert_eq!(r, reply),
            (other, _) => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_extensions_are_typed_errors() {
        let env = Envelope::new(Request::ReadParity { id: 1 });
        let parity_reply = Reply::to(
            &env,
            Ok(Response::Parity {
                bytes: Bytes::from(vec![1, 2]),
                versions: vec![3],
                checks: vec![],
            }),
        );

        // Extension length pointing past the body.
        let wire = extend_body(encode_reply(&parity_reply), &[0x7F, 200, 0, 0, 0]);
        assert!(matches!(
            decode_frame(&wire),
            Err(DecodeError::LengthOverflow { .. })
        ));

        // Known extension with the wrong payload size.
        let wire = extend_body(
            encode_reply(&parity_reply),
            &[tag::EXT_CHECK, 4, 0, 0, 0, 1, 2, 3, 4],
        );
        assert!(matches!(decode_frame(&wire), Err(DecodeError::BadValue(_))));
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
