//! The one byte codec every binary format in the workspace reads through:
//! the wire frames and body shapes (DESIGN.md §13), the `STATS` metrics
//! body, the trace context, the WAL (§8), the acceptor file and typed
//! object payloads.
//!
//! A [`Reader`] walks a byte slice and bounds-checks every read. A failed
//! read says *why*: [`CodecError::Short`] when the bytes end inside the
//! value (more bytes could complete it — a torn WAL tail, a truncated
//! frame), [`CodecError::Corrupt`] when no continuation could (an
//! over-long varint, trailing bytes after a fixed layout).
//!
//! Fixed-width integers are little-endian. Writers need no helper —
//! `out.extend_from_slice(&v.to_le_bytes())` — except for the LEB128
//! [`put_varint`].
//!
//! ```
//! use asset_common::codec::{put_varint, CodecError, Reader};
//!
//! let mut out = 7u32.to_le_bytes().to_vec();
//! put_varint(&mut out, 300);
//! let mut r = Reader::new(&out);
//! assert_eq!((r.u32(), r.varint()), (Ok(7), Ok(300)));
//! assert_eq!(r.u8(), Err(CodecError::Short));
//! r.finish()?;
//! # Ok::<(), CodecError>(())
//! ```

/// Why a [`Reader`] could not produce a value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The bytes end inside the value: more bytes may complete it.
    Short,
    /// No continuation of the bytes decodes; the message names the fault.
    Corrupt(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Short => write!(f, "bytes end inside a value"),
            CodecError::Corrupt(why) => write!(f, "{why}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A bounds-checked cursor over a byte slice. `Copy`, so a caller can
/// look ahead on a copy and consume on the original.
#[derive(Clone, Copy, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the first byte of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes, or [`CodecError::Short`] (consuming nothing)
    /// if fewer are left — checked before any caller allocates for them.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.remaining() {
            return Err(CodecError::Short);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.bytes(N)?);
        Ok(a)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        self.array::<1>().map(|[b]| b)
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        self.array().map(i64::from_le_bytes)
    }

    /// One LEB128 value of at most ten bytes. Short if the bytes end
    /// inside it; corrupt if it does not fit a `u64`.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                break;
            }
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return Ok(v);
            }
        }
        Err(CodecError::Corrupt("varint overflows u64".into()))
    }

    /// Everything not yet consumed.
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    /// End of a fixed layout: corrupt if any byte is left over.
    pub fn finish(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::Corrupt(format!("{n} trailing bytes"))),
        }
    }
}

/// Append `v` as LEB128: seven bits per byte, low bits first, the high
/// bit set on every byte but the last.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_are_little_endian_bounded_and_exact() {
        let b = [
            &[0xAB][..],
            &7u32.to_le_bytes(),
            &(-5i64).to_le_bytes(),
            &[0xFF; 7],
        ]
        .concat();
        let mut r = Reader::new(&b);
        assert_eq!((r.u8(), r.u32(), r.i64()), (Ok(0xAB), Ok(7), Ok(-5)));
        assert_eq!(Reader::new(&[0xFF; 8]).u64(), Ok(u64::MAX));
        let trailing = Err(CodecError::Corrupt("7 trailing bytes".into()));
        assert_eq!(r.finish(), trailing);
        // a short read consumes nothing, and a hostile length is short
        assert_eq!(
            (r.u64(), r.bytes(usize::MAX)),
            (Err(CodecError::Short), Err(CodecError::Short))
        );
        assert_eq!((r.pos(), r.remaining()), (13, 7));
        assert_eq!(
            (r.rest(), r.u8(), r.finish()),
            (&[0xFF; 7][..], Err(CodecError::Short), Ok(()))
        );
    }

    #[test]
    fn varint_edges_roundtrip() {
        for v in [0, 127, 128, 16_383, 16_384, u64::from(u32::MAX), u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut r = Reader::new(&out);
            assert_eq!((r.varint(), r.finish()), (Ok(v), Ok(())), "{out:?}");
        }
        // the 10-byte maximum decodes
        let mut max = Vec::new();
        put_varint(&mut max, u64::MAX);
        assert_eq!((max.len(), Reader::new(&max).varint()), (10, Ok(u64::MAX)));
        // an over-long varint is corrupt: bit 64 set, or an eleventh byte
        let bit64 = [&[0xFF; 9][..], &[0x02]].concat();
        for long in [&bit64[..], &[0xFF; 11]] {
            assert!(matches!(
                Reader::new(long).varint(),
                Err(CodecError::Corrupt(_))
            ));
        }
        // a cut-off varint is short
        for cut in 0..max.len() {
            assert_eq!(Reader::new(&max[..cut]).varint(), Err(CodecError::Short));
        }
    }
}
