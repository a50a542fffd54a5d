//! Binary payload codec for the protocol message types.
//!
//! The simulator moves messages as in-memory enums; the network moves
//! them as bytes. This module gives every protocol type a canonical
//! big-endian binary form via the [`WireMsg`] trait, with decoding that
//! is total over arbitrary input: truncated, oversized, or malformed
//! payloads come back as [`WireError`] values, never panics, because a
//! TCP peer can hand the decoder anything at all.
//!
//! Encodings are *exact* round-trips (`decode(encode(m)) == m`, proven
//! by property test in `tests/wire_roundtrip.rs`) and decoding is
//! *strict*: trailing bytes after a complete value are an error, so a
//! frame carries exactly one message.

use crate::error::WireError;
use shmem_algorithms::abd::ShardedAbdMsg;
use shmem_algorithms::cas::ShardedCasMsg;
use shmem_algorithms::hashed::ShardedHashedMsg;
use shmem_algorithms::multikey::{Key, MultiInv, MultiResp};
use shmem_algorithms::reg::{RegInv, RegResp};
use shmem_algorithms::tag::Tag;
use shmem_erasure::CodeError;

/// Hard cap on any encoded item count (keys per batch, shares per
/// message). Far above anything the protocols produce; exists so a
/// hostile length prefix cannot drive a multi-gigabyte allocation.
pub const MAX_ITEMS: usize = 1 << 16;

/// Hard cap on one codeword symbol's byte length.
pub const MAX_SHARE_BYTES: usize = 1 << 20;

/// Append-only encoder over a byte buffer.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// A fresh, empty writer.
    pub fn new() -> WireWriter {
        WireWriter::default()
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, big-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a `u64`, big-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a length-prefixed byte string (`u32` length).
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends an item count (`u32`).
    pub fn count(&mut self, n: usize) {
        self.u32(n as u32);
    }
}

/// Cursor-based decoder over a byte slice.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                left: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let s = self.take(4)?;
        Ok(u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let s = self.take(8)?;
        Ok(u64::from_be_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    /// Reads a length-prefixed byte string, capped at
    /// [`MAX_SHARE_BYTES`].
    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.u32()? as usize;
        if len > MAX_SHARE_BYTES {
            return Err(WireError::TooLarge {
                what: "byte string",
                len: len as u64,
                max: MAX_SHARE_BYTES as u64,
            });
        }
        Ok(self.take(len)?.to_vec())
    }

    /// Reads an item count, capped at [`MAX_ITEMS`].
    pub fn count(&mut self) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > MAX_ITEMS {
            return Err(WireError::TooLarge {
                what: "item count",
                len: n as u64,
                max: MAX_ITEMS as u64,
            });
        }
        Ok(n)
    }
}

/// A type with a canonical binary wire form.
pub trait WireMsg: Sized {
    /// Appends `self` to the writer.
    fn encode(&self, w: &mut WireWriter);

    /// Reads one value from the reader.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] on malformed input.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Encodes `self` into a fresh byte vector.
    fn to_wire(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        w.finish()
    }

    /// Decodes exactly one value from `buf`, rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] on malformed input, including
    /// [`WireError::Trailing`] when `buf` holds more than one value.
    fn from_wire(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        let v = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::Trailing {
                left: r.remaining(),
            });
        }
        Ok(v)
    }
}

fn encode_seq<T>(w: &mut WireWriter, items: &[T], each: impl Fn(&mut WireWriter, &T)) {
    w.count(items.len());
    for it in items {
        each(w, it);
    }
}

fn decode_seq<T>(
    r: &mut WireReader<'_>,
    each: impl Fn(&mut WireReader<'_>) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let n = r.count()?;
    // Cap the pre-allocation at what the remaining bytes could possibly
    // hold (≥ 1 byte per item) so a lying count can't balloon memory.
    let mut out = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        out.push(each(r)?);
    }
    Ok(out)
}

impl WireMsg for Tag {
    fn encode(&self, w: &mut WireWriter) {
        w.u64(self.seq);
        w.u32(self.writer);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Tag, WireError> {
        let seq = r.u64()?;
        let writer = r.u32()?;
        Ok(Tag { seq, writer })
    }
}

impl WireMsg for CodeError {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            CodeError::InvalidParams { n, k, field_order } => {
                w.u8(0);
                w.u64(*n as u64);
                w.u64(*k as u64);
                w.u64(*field_order);
            }
            CodeError::NotEnoughShares { have, need } => {
                w.u8(1);
                w.u64(*have as u64);
                w.u64(*need as u64);
            }
            CodeError::IndexOutOfRange { index, n } => {
                w.u8(2);
                w.u64(*index as u64);
                w.u64(*n as u64);
            }
            CodeError::DuplicateIndex { index } => {
                w.u8(3);
                w.u64(*index as u64);
            }
            CodeError::LengthMismatch => w.u8(4),
            CodeError::IntegrityMismatch => w.u8(5),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<CodeError, WireError> {
        match r.u8()? {
            0 => Ok(CodeError::InvalidParams {
                n: r.u64()? as usize,
                k: r.u64()? as usize,
                field_order: r.u64()?,
            }),
            1 => Ok(CodeError::NotEnoughShares {
                have: r.u64()? as usize,
                need: r.u64()? as usize,
            }),
            2 => Ok(CodeError::IndexOutOfRange {
                index: r.u64()? as usize,
                n: r.u64()? as usize,
            }),
            3 => Ok(CodeError::DuplicateIndex {
                index: r.u64()? as usize,
            }),
            4 => Ok(CodeError::LengthMismatch),
            5 => Ok(CodeError::IntegrityMismatch),
            tag => Err(WireError::BadTag {
                what: "CodeError",
                tag,
            }),
        }
    }
}

impl WireMsg for RegInv {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            RegInv::Write(v) => {
                w.u8(0);
                w.u64(*v);
            }
            RegInv::Read => w.u8(1),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<RegInv, WireError> {
        match r.u8()? {
            0 => Ok(RegInv::Write(r.u64()?)),
            1 => Ok(RegInv::Read),
            tag => Err(WireError::BadTag {
                what: "RegInv",
                tag,
            }),
        }
    }
}

impl WireMsg for RegResp {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            RegResp::WriteAck => w.u8(0),
            RegResp::ReadValue(v) => {
                w.u8(1);
                w.u64(*v);
            }
            RegResp::ReadFailed(e) => {
                w.u8(2);
                e.encode(w);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<RegResp, WireError> {
        match r.u8()? {
            0 => Ok(RegResp::WriteAck),
            1 => Ok(RegResp::ReadValue(r.u64()?)),
            2 => Ok(RegResp::ReadFailed(CodeError::decode(r)?)),
            tag => Err(WireError::BadTag {
                what: "RegResp",
                tag,
            }),
        }
    }
}

impl WireMsg for MultiInv {
    fn encode(&self, w: &mut WireWriter) {
        encode_seq(w, &self.ops, |w, (k, inv)| {
            w.u64(*k);
            inv.encode(w);
        });
    }

    fn decode(r: &mut WireReader<'_>) -> Result<MultiInv, WireError> {
        let ops = decode_seq(r, |r| {
            let k: Key = r.u64()?;
            let inv = RegInv::decode(r)?;
            Ok((k, inv))
        })?;
        Ok(MultiInv { ops })
    }
}

impl WireMsg for MultiResp {
    fn encode(&self, w: &mut WireWriter) {
        encode_seq(w, &self.ops, |w, (k, resp)| {
            w.u64(*k);
            resp.encode(w);
        });
    }

    fn decode(r: &mut WireReader<'_>) -> Result<MultiResp, WireError> {
        let ops = decode_seq(r, |r| {
            let k: Key = r.u64()?;
            let resp = RegResp::decode(r)?;
            Ok((k, resp))
        })?;
        Ok(MultiResp { ops })
    }
}

impl WireMsg for ShardedAbdMsg {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            ShardedAbdMsg::Query { rid, keys } => {
                w.u8(0);
                w.u64(*rid);
                encode_seq(w, keys, |w, k| w.u64(*k));
            }
            ShardedAbdMsg::QueryResp { rid, items } => {
                w.u8(1);
                w.u64(*rid);
                encode_seq(w, items, |w, (k, t, v)| {
                    w.u64(*k);
                    t.encode(w);
                    w.u64(*v);
                });
            }
            ShardedAbdMsg::Store { rid, items } => {
                w.u8(2);
                w.u64(*rid);
                encode_seq(w, items, |w, (k, t, v)| {
                    w.u64(*k);
                    t.encode(w);
                    w.u64(*v);
                });
            }
            ShardedAbdMsg::StoreAck { rid } => {
                w.u8(3);
                w.u64(*rid);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<ShardedAbdMsg, WireError> {
        let tag = r.u8()?;
        let rid = r.u64()?;
        let ktv = |r: &mut WireReader<'_>| {
            let k: Key = r.u64()?;
            let t = Tag::decode(r)?;
            let v = r.u64()?;
            Ok((k, t, v))
        };
        match tag {
            0 => Ok(ShardedAbdMsg::Query {
                rid,
                keys: decode_seq(r, |r| r.u64())?.into(),
            }),
            1 => Ok(ShardedAbdMsg::QueryResp {
                rid,
                items: decode_seq(r, ktv)?.into(),
            }),
            2 => Ok(ShardedAbdMsg::Store {
                rid,
                items: decode_seq(r, ktv)?.into(),
            }),
            3 => Ok(ShardedAbdMsg::StoreAck { rid }),
            tag => Err(WireError::BadTag {
                what: "ShardedAbdMsg",
                tag,
            }),
        }
    }
}

impl WireMsg for ShardedCasMsg {
    fn encode(&self, w: &mut WireWriter) {
        let kt = |w: &mut WireWriter, (k, t): &(Key, Tag)| {
            w.u64(*k);
            t.encode(w);
        };
        match self {
            ShardedCasMsg::QueryTag { rid, keys } => {
                w.u8(0);
                w.u64(*rid);
                encode_seq(w, keys, |w, k| w.u64(*k));
            }
            ShardedCasMsg::QueryTagResp { rid, items } => {
                w.u8(1);
                w.u64(*rid);
                encode_seq(w, items, kt);
            }
            ShardedCasMsg::PreWrite { rid, items } => {
                w.u8(2);
                w.u64(*rid);
                encode_seq(w, items, |w, (k, t, share)| {
                    w.u64(*k);
                    t.encode(w);
                    w.bytes(share);
                });
            }
            ShardedCasMsg::PreAck { rid } => {
                w.u8(3);
                w.u64(*rid);
            }
            ShardedCasMsg::Finalize { rid, items } => {
                w.u8(4);
                w.u64(*rid);
                encode_seq(w, items, kt);
            }
            ShardedCasMsg::FinAck { rid } => {
                w.u8(5);
                w.u64(*rid);
            }
            ShardedCasMsg::ReadGet { rid, items } => {
                w.u8(6);
                w.u64(*rid);
                encode_seq(w, items, kt);
            }
            ShardedCasMsg::ReadResp { rid, items } => {
                w.u8(7);
                w.u64(*rid);
                encode_seq(w, items, |w, (k, share)| {
                    w.u64(*k);
                    match share {
                        Some(s) => {
                            w.u8(1);
                            w.bytes(s);
                        }
                        None => w.u8(0),
                    }
                });
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<ShardedCasMsg, WireError> {
        let tag = r.u8()?;
        let rid = r.u64()?;
        let kt = |r: &mut WireReader<'_>| {
            let k: Key = r.u64()?;
            let t = Tag::decode(r)?;
            Ok((k, t))
        };
        match tag {
            0 => Ok(ShardedCasMsg::QueryTag {
                rid,
                keys: decode_seq(r, |r| r.u64())?,
            }),
            1 => Ok(ShardedCasMsg::QueryTagResp {
                rid,
                items: decode_seq(r, kt)?,
            }),
            2 => Ok(ShardedCasMsg::PreWrite {
                rid,
                items: decode_seq(r, |r| {
                    let k: Key = r.u64()?;
                    let t = Tag::decode(r)?;
                    let share = r.bytes()?;
                    Ok((k, t, share))
                })?,
            }),
            3 => Ok(ShardedCasMsg::PreAck { rid }),
            4 => Ok(ShardedCasMsg::Finalize {
                rid,
                items: decode_seq(r, kt)?,
            }),
            5 => Ok(ShardedCasMsg::FinAck { rid }),
            6 => Ok(ShardedCasMsg::ReadGet {
                rid,
                items: decode_seq(r, kt)?,
            }),
            7 => Ok(ShardedCasMsg::ReadResp {
                rid,
                items: decode_seq(r, |r| {
                    let k: Key = r.u64()?;
                    let share = match r.u8()? {
                        0 => None,
                        1 => Some(r.bytes()?),
                        tag => {
                            return Err(WireError::BadTag {
                                what: "Option<share>",
                                tag,
                            })
                        }
                    };
                    Ok((k, share))
                })?,
            }),
            tag => Err(WireError::BadTag {
                what: "ShardedCasMsg",
                tag,
            }),
        }
    }
}

impl WireMsg for ShardedHashedMsg {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            ShardedHashedMsg::Cas(m) => {
                w.u8(0);
                m.encode(w);
            }
            ShardedHashedMsg::HashAnnounce { rid, items } => {
                w.u8(1);
                w.u64(*rid);
                encode_seq(w, items, |w, (k, t, h)| {
                    w.u64(*k);
                    t.encode(w);
                    w.u64(*h);
                });
            }
            ShardedHashedMsg::HashAck { rid } => {
                w.u8(2);
                w.u64(*rid);
            }
            ShardedHashedMsg::ReadResp { rid, items } => {
                w.u8(3);
                w.u64(*rid);
                encode_seq(w, items, |w, (k, share, digest)| {
                    w.u64(*k);
                    match share {
                        Some(s) => {
                            w.u8(1);
                            w.bytes(s);
                        }
                        None => w.u8(0),
                    }
                    match digest {
                        Some(d) => {
                            w.u8(1);
                            w.u64(*d);
                        }
                        None => w.u8(0),
                    }
                });
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<ShardedHashedMsg, WireError> {
        match r.u8()? {
            0 => Ok(ShardedHashedMsg::Cas(ShardedCasMsg::decode(r)?)),
            1 => {
                let rid = r.u64()?;
                let items = decode_seq(r, |r| {
                    let k: Key = r.u64()?;
                    let t = Tag::decode(r)?;
                    let h = r.u64()?;
                    Ok((k, t, h))
                })?;
                Ok(ShardedHashedMsg::HashAnnounce { rid, items })
            }
            2 => Ok(ShardedHashedMsg::HashAck { rid: r.u64()? }),
            3 => {
                let rid = r.u64()?;
                let items = decode_seq(r, |r| {
                    let k: Key = r.u64()?;
                    let share = match r.u8()? {
                        0 => None,
                        1 => Some(r.bytes()?),
                        tag => {
                            return Err(WireError::BadTag {
                                what: "Option<share>",
                                tag,
                            })
                        }
                    };
                    let digest = match r.u8()? {
                        0 => None,
                        1 => Some(r.u64()?),
                        tag => {
                            return Err(WireError::BadTag {
                                what: "Option<digest>",
                                tag,
                            })
                        }
                    };
                    Ok((k, share, digest))
                })?;
                Ok(ShardedHashedMsg::ReadResp { rid, items })
            }
            tag => Err(WireError::BadTag {
                what: "ShardedHashedMsg",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_and_reg_roundtrip() {
        let t = Tag::new(42, 7);
        assert_eq!(Tag::from_wire(&t.to_wire()).unwrap(), t);
        for inv in [RegInv::Write(99), RegInv::Read] {
            assert_eq!(RegInv::from_wire(&inv.to_wire()).unwrap(), inv);
        }
        let resp = RegResp::ReadFailed(CodeError::NotEnoughShares { have: 2, need: 4 });
        assert_eq!(RegResp::from_wire(&resp.to_wire()).unwrap(), resp);
    }

    #[test]
    fn strictness_rejects_trailing() {
        let mut buf = Tag::new(1, 1).to_wire();
        buf.push(0);
        assert_eq!(Tag::from_wire(&buf), Err(WireError::Trailing { left: 1 }));
    }

    #[test]
    fn hostile_count_is_capped() {
        // A PreWrite claiming 2^32−1 items with no bodies: the count cap
        // rejects it before any allocation.
        let mut w = WireWriter::new();
        w.u8(2);
        w.u64(0);
        w.u32(u32::MAX);
        let err = ShardedCasMsg::from_wire(&w.finish()).unwrap_err();
        assert!(matches!(err, WireError::TooLarge { .. }));
    }

    #[test]
    fn empty_batch_roundtrips() {
        let m = MultiInv { ops: Vec::new() };
        assert_eq!(MultiInv::from_wire(&m.to_wire()).unwrap(), m);
    }
}
