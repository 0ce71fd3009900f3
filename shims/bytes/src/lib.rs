//! Minimal in-tree stand-in for the `bytes` crate.
//!
//! Implements the subset of the real crate's API that this workspace uses:
//! [`Bytes`], an immutable, cheaply cloneable byte buffer. Cloning shares the
//! underlying allocation via `Arc` instead of copying, which is the property
//! the transaction engine relies on (buffered writes are cloned into lock
//! batches and replication messages without copying payloads). As in the real
//! crate, an empty `Bytes` owns no heap memory.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply cloneable, immutable contiguous slice of memory.
#[derive(Clone, Default)]
pub struct Bytes {
    /// `None` is the empty buffer; every constructor normalises to it, so an
    /// empty `Bytes` never allocates.
    data: Option<Arc<[u8]>>,
}

impl Bytes {
    /// Creates an empty `Bytes` (no allocation).
    pub const fn new() -> Bytes {
        Bytes { data: None }
    }

    /// Creates `Bytes` from a static slice.
    pub fn from_static(slice: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(slice)
    }

    /// Copies a slice into a new `Bytes`.
    pub fn copy_from_slice(slice: &[u8]) -> Bytes {
        Bytes {
            data: (!slice.is_empty()).then(|| Arc::from(slice)),
        }
    }

    /// Length of the buffer in bytes.
    pub fn len(&self) -> usize {
        self.deref().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_none()
    }

    /// Returns the contents as a `Vec`, copying.
    pub fn to_vec(&self) -> Vec<u8> {
        self.deref().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.data.as_deref().unwrap_or(&[])
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::from(v.into_boxed_slice())
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(v: Box<[u8]>) -> Bytes {
        Bytes {
            data: (!v.is_empty()).then(|| Arc::from(v)),
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl From<&str> for Bytes {
    fn from(v: &str) -> Bytes {
        Bytes::copy_from_slice(v.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Bytes {
        Bytes::from(v.into_bytes())
    }
}

impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(v: [u8; N]) -> Bytes {
        Bytes::copy_from_slice(&v)
    }
}

// Comparisons and hashing are those of the byte slice, so an empty `Bytes`
// behaves the same however it was made.
impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> Ordering {
        self[..].cmp(&other[..])
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter().take(32) {
            if b.is_ascii_graphic() || b == b' ' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        if self.len() > 32 {
            write!(f, "…({} bytes)", self.len())?;
        }
        write!(f, "\"")
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A growable byte buffer that can be frozen into [`Bytes`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> BytesMut {
        BytesMut { data: Vec::new() }
    }

    /// Creates an empty buffer with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Length of the buffer in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Converts the buffer into immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

/// Write access to a growable byte buffer (the subset of the real `BufMut`
/// trait that this workspace's codecs use).
pub trait BufMut {
    /// Appends a slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_sharing() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let c = b.clone();
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(b, c);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::from_static(b"xy").to_vec(), vec![b'x', b'y']);
    }

    #[test]
    fn every_empty_bytes_is_the_same_value() {
        use std::collections::hash_map::DefaultHasher;
        fn hash_of(b: &Bytes) -> u64 {
            let mut h = DefaultHasher::new();
            b.hash(&mut h);
            h.finish()
        }
        let empties = [
            Bytes::new(),
            Bytes::default(),
            Bytes::from(Vec::new()),
            Bytes::from_static(b""),
            BytesMut::new().freeze(),
        ];
        for e in &empties {
            assert!(e.is_empty() && e.data.is_none());
            assert_eq!(e.len(), 0);
            assert_eq!(e, &empties[0]);
            assert_eq!(e.cmp(&empties[0]), Ordering::Equal);
            assert_eq!(hash_of(e), hash_of(&empties[0]));
            assert!(e < &Bytes::from_static(b"\0"));
        }
        // Hashing is the slice's, as it was when the field was `Arc<[u8]>`.
        let mut h = DefaultHasher::new();
        b"ab"[..].hash(&mut h);
        assert_eq!(hash_of(&Bytes::from_static(b"ab")), h.finish());
    }

    #[test]
    fn default_and_slicing() {
        let b = Bytes::default();
        assert!(b.is_empty());
        let b = Bytes::from(b"hello".as_slice());
        assert_eq!(&b[1..3], b"el");
    }
}
