//! Raw page buffers and little-endian field access.
//!
//! A page is a fixed-size byte buffer. [`slotted`](crate::slotted) imposes a
//! slotted-record structure on top; this module provides the buffer itself
//! and checked little-endian accessors used by both the slotted layout and
//! the log encoding.

use asset_common::{AssetError, Result};

/// Identifier of a page within the heap file.
pub type PageId = u32;

/// A fixed-size page buffer.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8]>,
}

impl Page {
    /// A zeroed page of `size` bytes.
    pub fn zeroed(size: usize) -> Page {
        Page {
            data: vec![0u8; size].into_boxed_slice(),
        }
    }

    /// Wrap an existing buffer.
    pub fn from_bytes(data: Vec<u8>) -> Page {
        Page {
            data: data.into_boxed_slice(),
        }
    }

    /// Page size in bytes.
    #[inline]
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// Borrow the raw bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Borrow the raw bytes mutably.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Page({} bytes)", self.data.len())
    }
}

/// Read a `u16` at `off` (little endian).
#[inline]
pub fn get_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([buf[off], buf[off + 1]])
}

/// Write a `u16` at `off` (little endian).
#[inline]
pub fn put_u16(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

/// Read a `u32` at `off` (little endian).
#[inline]
pub fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

/// Write a `u32` at `off` (little endian).
#[inline]
pub fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// Read a `u64` at `off` (little endian).
#[inline]
pub fn get_u64(buf: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[off..off + 8]);
    u64::from_le_bytes(b)
}

/// Write a `u64` at `off` (little endian).
#[inline]
pub fn put_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

/// Checked variant of [`get_u32`] for decoding possibly-corrupt input.
pub fn try_get_u32(buf: &[u8], off: usize) -> Result<u32> {
    if off + 4 > buf.len() {
        return Err(AssetError::Corrupt(format!(
            "u32 read at {off} past end ({})",
            buf.len()
        )));
    }
    Ok(get_u32(buf, off))
}

/// Checked variant of [`get_u64`].
pub fn try_get_u64(buf: &[u8], off: usize) -> Result<u64> {
    if off + 8 > buf.len() {
        return Err(AssetError::Corrupt(format!(
            "u64 read at {off} past end ({})",
            buf.len()
        )));
    }
    Ok(get_u64(buf, off))
}

/// FNV-1a 64-bit checksum used by pages and log blocks.
///
/// Not cryptographic; it detects torn writes and truncation, which is all a
/// single-node log needs.
pub fn checksum(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut buf = vec![0u8; 32];
        put_u16(&mut buf, 0, 0xBEEF);
        put_u32(&mut buf, 2, 0xDEADBEEF);
        put_u64(&mut buf, 6, 0x0123_4567_89AB_CDEF);
        assert_eq!(get_u16(&buf, 0), 0xBEEF);
        assert_eq!(get_u32(&buf, 2), 0xDEADBEEF);
        assert_eq!(get_u64(&buf, 6), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn checked_reads() {
        let buf = vec![1u8; 8];
        assert!(try_get_u32(&buf, 4).is_ok());
        assert!(try_get_u32(&buf, 5).is_err());
        assert!(try_get_u64(&buf, 0).is_ok());
        assert!(try_get_u64(&buf, 1).is_err());
    }

    #[test]
    fn checksum_changes_with_content() {
        assert_ne!(checksum(b"hello"), checksum(b"hellp"));
        assert_eq!(checksum(b""), checksum(b""));
        assert_ne!(checksum(b"a"), checksum(b"aa"));
    }

    #[test]
    fn page_basics() {
        let mut p = Page::zeroed(512);
        assert_eq!(p.size(), 512);
        p.bytes_mut()[0] = 42;
        assert_eq!(p.bytes()[0], 42);
        let q = Page::from_bytes(vec![7; 64]);
        assert_eq!(q.size(), 64);
        assert_eq!(q.bytes()[63], 7);
    }
}
