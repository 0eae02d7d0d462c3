//! Wire decoding, total on any input: [`decode_frame`], [`decode_body`],
//! [`Header::decode`] and the CRC-32 they check. Whatever the bytes, each
//! returns a typed [`DecodeError`] and never panics, never reads past its
//! buffer; the module denies every clippy lint for a construct that could
//! panic, so that holds by construction.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::disallowed_macros
    )
)]

use bytes::Bytes;

use super::{
    DecodeError, ErrorTag, Frame, FrameKind, Header, RequestTag, ResponseTag, ResultTag,
    FLAG_BACKGROUND, HEADER_LEN, MAGIC, MAX_BODY_LEN, WIRE_VERSION,
};
use crate::rpc::{Envelope, Lane, NodeError, OpId, Reply, Request, Response};

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3), slicing-by-8; the tables are built at compile time.
// ---------------------------------------------------------------------

/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[j][b]`
/// is the CRC of byte `b` followed by `j` zero bytes, which is what lets
/// eight table reads advance the register over eight input bytes at once.
#[expect(
    clippy::indexing_slicing,
    reason = "const evaluation: every index is below the loop bound of its 8- or 256-entry table"
)]
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
#[expect(
    clippy::indexing_slicing,
    reason = "the index is masked to a byte, and the table has 256 entries"
)]
pub(super) fn crc32_step(crc: u32, b: u8) -> u32 {
    (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize]
}

/// CRC-32 (IEEE) over `bytes` — the header and record checksum used
/// across the wire format and the append-only storage log.
#[expect(
    clippy::indexing_slicing,
    reason = "every index is masked to a byte, and each table has 256 entries"
)]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let (words, rest) = bytes.as_chunks::<8>();
    for word in words {
        let word = u64::from_le_bytes(*word) ^ crc as u64;
        crc = CRC_TABLES[7][(word & 0xFF) as usize]
            ^ CRC_TABLES[6][(word >> 8 & 0xFF) as usize]
            ^ CRC_TABLES[5][(word >> 16 & 0xFF) as usize]
            ^ CRC_TABLES[4][(word >> 24 & 0xFF) as usize]
            ^ CRC_TABLES[3][(word >> 32 & 0xFF) as usize]
            ^ CRC_TABLES[2][(word >> 40 & 0xFF) as usize]
            ^ CRC_TABLES[1][(word >> 48 & 0xFF) as usize]
            ^ CRC_TABLES[0][(word >> 56) as usize];
    }
    for &b in rest {
        crc = crc32_step(crc, b);
    }
    !crc
}

// ---------------------------------------------------------------------
// Header.
// ---------------------------------------------------------------------

impl Header {
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
        let kind = FrameKind::try_from(kind_code)?;
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

    /// The add-parity `new_check`: a presence byte (0 or 1), then the
    /// `u64`, which is 0 when absent.
    fn new_check(&mut self) -> Result<Option<u64>, DecodeError> {
        let present = self.u8()?;
        let value = self.u64()?;
        match present {
            0 => Ok(None),
            1 => Ok(Some(value)),
            _ => Err(DecodeError::BadValue("add-parity new-check presence")),
        }
    }
}

fn decode_request_body(cur: &mut Cursor<'_>) -> Result<Request, DecodeError> {
    Ok(match RequestTag::try_from(cur.u8()?)? {
        RequestTag::Ping => Request::Ping,
        RequestTag::InitData => Request::InitData {
            id: cur.u64()?,
            bytes: cur.bytes_field("init-data payload")?,
        },
        RequestTag::InitParity => Request::InitParity {
            id: cur.u64()?,
            k: cur.usize_field("init-parity k")?,
            checks: cur.versions_field("init-parity checks")?,
            bytes: cur.bytes_field("init-parity payload")?,
        },
        RequestTag::ReadData => Request::ReadData { id: cur.u64()? },
        RequestTag::WriteData => Request::WriteData {
            id: cur.u64()?,
            version: cur.u64()?,
            bytes: cur.bytes_field("write-data payload")?,
        },
        RequestTag::VersionData => Request::VersionData { id: cur.u64()? },
        RequestTag::VersionVector => Request::VersionVector { id: cur.u64()? },
        RequestTag::ReadParity => Request::ReadParity { id: cur.u64()? },
        RequestTag::WriteParity => Request::WriteParity {
            id: cur.u64()?,
            versions: cur.versions_field("write-parity versions")?,
            checks: cur.versions_field("write-parity checks")?,
            bytes: cur.bytes_field("write-parity payload")?,
        },
        RequestTag::AddParity => Request::AddParity {
            id: cur.u64()?,
            block_index: cur.usize_field("add-parity block index")?,
            expected_version: cur.u64()?,
            new_version: cur.u64()?,
            coeff: cur.u8()?,
            new_check: cur.new_check()?,
            delta: cur.bytes_field("add-parity delta")?,
        },
    })
}

fn decode_response_body(cur: &mut Cursor<'_>) -> Result<Response, DecodeError> {
    Ok(match ResponseTag::try_from(cur.u8()?)? {
        ResponseTag::Pong => Response::Pong,
        ResponseTag::Ack => Response::Ack,
        ResponseTag::Data => Response::Data {
            version: cur.u64()?,
            check: cur.u64()?,
            bytes: cur.bytes_field("data payload")?,
        },
        ResponseTag::Parity => Response::Parity {
            versions: cur.versions_field("parity versions")?,
            checks: cur.versions_field("parity checks")?,
            bytes: cur.bytes_field("parity payload")?,
        },
        ResponseTag::Version => Response::Version(cur.u64()?),
        ResponseTag::Versions => Response::Versions(cur.versions_field("versions")?),
    })
}

fn decode_error_body(cur: &mut Cursor<'_>) -> Result<NodeError, DecodeError> {
    Ok(match ErrorTag::try_from(cur.u8()?)? {
        ErrorTag::Down => NodeError::Down,
        ErrorTag::NotFound => NodeError::NotFound,
        ErrorTag::WrongKind => NodeError::WrongKind,
        ErrorTag::VersionConflict => NodeError::VersionConflict {
            expected: cur.u64()?,
            actual: cur.u64()?,
        },
        ErrorTag::VectorConflict => NodeError::VectorConflict {
            index: cur.usize_field("vector-conflict index")?,
            got: cur.u64()?,
            stored: cur.u64()?,
        },
        ErrorTag::SizeMismatch => NodeError::SizeMismatch {
            stored: cur.usize_field("size-mismatch stored")?,
            got: cur.usize_field("size-mismatch got")?,
        },
        ErrorTag::BadBlockIndex => NodeError::BadBlockIndex {
            index: cur.usize_field("bad-block-index index")?,
            k: cur.usize_field("bad-block-index k")?,
        },
        ErrorTag::TransportClosed => NodeError::TransportClosed,
        ErrorTag::TimedOut => NodeError::TimedOut,
        ErrorTag::Corrupt => NodeError::Corrupt,
        ErrorTag::Overloaded => NodeError::Overloaded,
    })
}

/// Decodes the body of a frame whose [`Header`] has already been read,
/// taking the body as a [`Bytes`] so payloads decode zero-copy.
///
/// `body` must hold exactly `header.body_len` bytes (a streaming reader
/// reads exactly that many after the header).
pub(crate) fn decode_body(header: &Header, body: &Bytes) -> Result<Frame, DecodeError> {
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
            let result = match ResultTag::try_from(cur.u8()?)? {
                ResultTag::Ok => Ok(decode_response_body(&mut cur)?),
                ResultTag::Err => Err(decode_error_body(&mut cur)?),
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
