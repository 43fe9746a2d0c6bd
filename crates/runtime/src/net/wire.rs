//! Length-prefixed wire format for the streaming protocol.
//!
//! Every frame is `[len: u32 LE] [magic 0xA7] [version 0x01] [kind: u8]
//! [body]`, where `len` counts the magic, version, kind, and body bytes.
//! The body is a hand-rolled little-endian encoding (the workspace vendors
//! offline — no serde): integers as fixed-width LE, payload blobs as
//! `[len: u32 LE] [bytes]`. The same codec backs every transport — the
//! in-process `Loopback` and `Channel` endpoints round-trip the encoded
//! bytes too, so the format is exercised even when no socket is involved.

use std::io::{Read, Write};

use crate::graph::{DataClass, DataKey, TaskId};

use super::TransportError;

/// First byte after the length prefix of every frame.
pub const MAGIC: u8 = 0xA7;
/// Wire-format revision.
pub const VERSION: u8 = 0x01;
/// Upper bound on `len` (magic + version + kind + body); frames beyond it
/// are rejected before any allocation.
pub const MAX_FRAME: u32 = 1 << 30;

/// One unit of traffic between two ranks.
///
/// `Hello` is the connection handshake (socket transports only). `Data`
/// and `Retire` mirror the protocol messages ([`crate::comm::Msg`]) that
/// the distributed window routes; `modeled_bytes` carries the declared
/// datum size (what [`crate::comm::MsgStats`] counts), which generally
/// differs from the serialized payload length. The rest are control
/// frames of the SPMD run protocol: `Sync` broadcasts a step decision to
/// every peer, `Result` ships an owned datum back to rank 0 at the end,
/// and `Done` / `Fin` / `Shutdown` fence the teardown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Handshake: the connecting peer announces its rank.
    Hello { rank: u32 },
    /// A routed payload or decision message with its serialized datum.
    Data {
        key: DataKey,
        producer: Option<TaskId>,
        from: u32,
        to: u32,
        class: DataClass,
        modeled_bytes: u64,
        payload: Vec<u8>,
    },
    /// A step-retirement notice (sent to rank 0).
    Retire { step: u64, node: u32 },
    /// Decision broadcast: `(key, producing task, serialized decision)`.
    Sync {
        key: DataKey,
        producer: TaskId,
        payload: Vec<u8>,
    },
    /// Final datum hand-off to rank 0.
    Result { key: DataKey, payload: Vec<u8> },
    /// "All my protocol frames are on the wire."
    Done,
    /// "All my results are on the wire."
    Fin,
    /// Rank 0's teardown order.
    Shutdown,
}

const KIND_HELLO: u8 = 0;
const KIND_DATA: u8 = 1;
const KIND_RETIRE: u8 = 2;
const KIND_SYNC: u8 = 3;
const KIND_RESULT: u8 = 4;
const KIND_DONE: u8 = 5;
const KIND_FIN: u8 = 6;
const KIND_SHUTDOWN: u8 = 7;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_blob(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Cursor over a received frame body.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], TransportError> {
        if self.pos + n > self.buf.len() {
            return Err(TransportError::ShortRead {
                wanted: n,
                got: self.buf.len() - self.pos,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, TransportError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, TransportError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, TransportError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn blob(&mut self) -> Result<Vec<u8>, TransportError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    fn done(&self) -> Result<(), TransportError> {
        if self.pos != self.buf.len() {
            return Err(TransportError::Frame(format!(
                "{} trailing bytes after frame body",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Encode a frame into its full wire representation (length prefix
/// included).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut body = Vec::new();
    let kind = match frame {
        Frame::Hello { rank } => {
            put_u32(&mut body, *rank);
            KIND_HELLO
        }
        Frame::Data {
            key,
            producer,
            from,
            to,
            class,
            modeled_bytes,
            payload,
        } => {
            put_u64(&mut body, key.0);
            match producer {
                Some(id) => {
                    body.push(1);
                    put_u64(&mut body, *id as u64);
                }
                None => body.push(0),
            }
            put_u32(&mut body, *from);
            put_u32(&mut body, *to);
            body.push(match class {
                DataClass::Payload => 0,
                DataClass::Decision => 1,
            });
            put_u64(&mut body, *modeled_bytes);
            put_blob(&mut body, payload);
            KIND_DATA
        }
        Frame::Retire { step, node } => {
            put_u64(&mut body, *step);
            put_u32(&mut body, *node);
            KIND_RETIRE
        }
        Frame::Sync {
            key,
            producer,
            payload,
        } => {
            put_u64(&mut body, key.0);
            put_u64(&mut body, *producer as u64);
            put_blob(&mut body, payload);
            KIND_SYNC
        }
        Frame::Result { key, payload } => {
            put_u64(&mut body, key.0);
            put_blob(&mut body, payload);
            KIND_RESULT
        }
        Frame::Done => KIND_DONE,
        Frame::Fin => KIND_FIN,
        Frame::Shutdown => KIND_SHUTDOWN,
    };
    let mut out = Vec::with_capacity(4 + 3 + body.len());
    put_u32(&mut out, (3 + body.len()) as u32);
    out.push(MAGIC);
    out.push(VERSION);
    out.push(kind);
    out.extend_from_slice(&body);
    out
}

/// Decode one full wire frame (length prefix included), as produced by
/// [`encode_frame`].
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, TransportError> {
    if bytes.len() < 4 {
        return Err(TransportError::ShortRead {
            wanted: 4,
            got: bytes.len(),
        });
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().unwrap());
    if len > MAX_FRAME {
        return Err(TransportError::Frame(format!("oversized frame: {len}")));
    }
    let rest = &bytes[4..];
    if rest.len() != len as usize {
        return Err(TransportError::ShortRead {
            wanted: len as usize,
            got: rest.len(),
        });
    }
    decode_body(rest)
}

/// Decode the post-length portion (magic + version + kind + body).
fn decode_body(buf: &[u8]) -> Result<Frame, TransportError> {
    let mut r = Reader { buf, pos: 0 };
    let magic = r.u8()?;
    if magic != MAGIC {
        return Err(TransportError::Frame(format!("bad magic 0x{magic:02X}")));
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(TransportError::Frame(format!("bad version {version}")));
    }
    let kind = r.u8()?;
    let frame = match kind {
        KIND_HELLO => Frame::Hello { rank: r.u32()? },
        KIND_DATA => {
            let key = DataKey(r.u64()?);
            let producer = match r.u8()? {
                0 => None,
                1 => Some(r.u64()? as TaskId),
                t => return Err(TransportError::Frame(format!("bad producer tag {t}"))),
            };
            let from = r.u32()?;
            let to = r.u32()?;
            let class = match r.u8()? {
                0 => DataClass::Payload,
                1 => DataClass::Decision,
                c => return Err(TransportError::Frame(format!("bad data class {c}"))),
            };
            let modeled_bytes = r.u64()?;
            let payload = r.blob()?;
            Frame::Data {
                key,
                producer,
                from,
                to,
                class,
                modeled_bytes,
                payload,
            }
        }
        KIND_RETIRE => Frame::Retire {
            step: r.u64()?,
            node: r.u32()?,
        },
        KIND_SYNC => Frame::Sync {
            key: DataKey(r.u64()?),
            producer: r.u64()? as TaskId,
            payload: r.blob()?,
        },
        KIND_RESULT => Frame::Result {
            key: DataKey(r.u64()?),
            payload: r.blob()?,
        },
        KIND_DONE => Frame::Done,
        KIND_FIN => Frame::Fin,
        KIND_SHUTDOWN => Frame::Shutdown,
        k => return Err(TransportError::Frame(format!("unknown frame kind {k}"))),
    };
    r.done()?;
    Ok(frame)
}

/// Write one frame to a byte stream.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), TransportError> {
    let bytes = encode_frame(frame);
    w.write_all(&bytes)
        .and_then(|()| w.flush())
        .map_err(|e| TransportError::Frame(format!("write: {e}")))
}

/// Read one frame from a byte stream. A clean EOF before any byte of the
/// length prefix maps to [`TransportError::Closed`]; EOF anywhere else is
/// a [`TransportError::ShortRead`].
pub fn read_frame(r: &mut impl Read) -> Result<Frame, TransportError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Err(TransportError::Closed);
                }
                return Err(TransportError::ShortRead { wanted: 4, got });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(TransportError::Frame(format!("read: {e}"))),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(TransportError::Frame(format!("oversized frame: {len}")));
    }
    let mut body = vec![0u8; len as usize];
    let mut filled = 0;
    while filled < body.len() {
        match r.read(&mut body[filled..]) {
            Ok(0) => {
                return Err(TransportError::ShortRead {
                    wanted: len as usize,
                    got: filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(TransportError::Frame(format!("read: {e}"))),
        }
    }
    decode_body(&body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let bytes = encode_frame(&f);
        assert_eq!(decode_frame(&bytes).unwrap(), f);
        // And through the stream interface.
        let mut cursor = std::io::Cursor::new(bytes);
        assert_eq!(read_frame(&mut cursor).unwrap(), f);
    }

    #[test]
    fn frames_round_trip() {
        roundtrip(Frame::Hello { rank: 3 });
        roundtrip(Frame::Data {
            key: DataKey(0x0123_4567_89AB_CDEF),
            producer: Some(42),
            from: 1,
            to: 2,
            class: DataClass::Payload,
            modeled_bytes: 51_200,
            payload: vec![1, 2, 3, 4, 5],
        });
        roundtrip(Frame::Data {
            key: DataKey(7),
            producer: None,
            from: 0,
            to: 3,
            class: DataClass::Decision,
            modeled_bytes: 8,
            payload: vec![],
        });
        roundtrip(Frame::Retire { step: 9, node: 2 });
        roundtrip(Frame::Sync {
            key: DataKey(11),
            producer: 100,
            payload: vec![0xFF; 17],
        });
        roundtrip(Frame::Result {
            key: DataKey(12),
            payload: vec![9; 33],
        });
        roundtrip(Frame::Done);
        roundtrip(Frame::Fin);
        roundtrip(Frame::Shutdown);
    }

    #[test]
    fn truncated_frames_are_short_reads() {
        let bytes = encode_frame(&Frame::Retire { step: 1, node: 0 });
        for cut in 0..bytes.len() {
            let err = decode_frame(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    TransportError::ShortRead { .. } | TransportError::Closed
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_are_frame_errors() {
        let mut bytes = encode_frame(&Frame::Done);
        bytes[4] = 0x00;
        assert!(matches!(
            decode_frame(&bytes),
            Err(TransportError::Frame(_))
        ));
        let mut bytes = encode_frame(&Frame::Done);
        bytes[5] = 0x7F;
        assert!(matches!(
            decode_frame(&bytes),
            Err(TransportError::Frame(_))
        ));
    }
}
