//! A cheaply-clonable immutable byte buffer.
//!
//! Message payloads are handed from application threads to the writer
//! thread and from reader threads to application threads; an
//! `Arc<Vec<u8>>`-backed buffer makes every hand-off a refcount bump
//! and lets [`Bytes::from`] *adopt* a `Vec`'s allocation instead of
//! copying it (`Arc<[u8]>` cannot: its header lives in front of the
//! bytes, so `Arc::from(vec)` reallocates and memcpys).
//!
//! The copy contract, per entry point — user-space copies of the
//! payload the library makes (checksum passes read, they do not move):
//!
//! * `Comm::send(&[u8])`: **1** — a borrowed slice cannot outlive the
//!   call, so its hand-off to the writer thread needs an owned copy;
//! * `Comm::isend(Bytes)` / `isend(Vec<u8>)` and the collectives'
//!   internal sends: **0**;
//! * receive (`recv`, `irecv(..).wait()`): **0** — the buffer the reader
//!   thread filled from the socket is the buffer the caller gets.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, reference-counted byte buffer (clone is O(1)).
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
}

impl Bytes {
    /// An empty buffer.
    pub(crate) fn new() -> Bytes {
        Bytes::default()
    }

    /// Copy a slice into a fresh buffer.
    pub(crate) fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// Length in bytes.
    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether this handle is the only one to its allocation — how the
    /// no-copy contract tests see a clone the library failed to drop.
    #[cfg(test)]
    pub(crate) fn is_unique(&self) -> bool {
        Arc::strong_count(&self.data) == 1
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

/// Adopts the allocation: O(1), the bytes do not move.
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes { data: Arc::new(v) }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<&str> for Bytes {
    fn from(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_storage() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(&a[..], &b[..]);
        assert_eq!(Arc::strong_count(&a.data), 2);
    }

    #[test]
    fn from_vec_adopts_the_allocation() {
        let v = vec![7u8; 1 << 20];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr, "the bytes must not move");
        assert_eq!(b.clone().as_ptr(), ptr);
    }

    #[test]
    fn conversions() {
        assert_eq!(&Bytes::from("hi")[..], b"hi");
        assert_eq!(Bytes::new().len(), 0);
        assert_eq!(Bytes::new().len(), 0);
        assert_eq!(&Bytes::copy_from_slice(&[9])[..], &[9]);
    }
}
