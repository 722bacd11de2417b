//! Incremental 64-bit FNV-1a, the workspace's one content hash.
//!
//! Certificate digests, result-cache keys, journal frame checksums and
//! campaign seed salts all hash with it. It detects corruption and names
//! content stably; it is not a cryptographic hash.

/// An incremental 64-bit FNV-1a hasher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the standard offset basis.
    #[must_use]
    #[inline]
    pub const fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// The digest of `bytes` alone.
    #[must_use]
    #[inline]
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Self::new();
        h.write(bytes);
        h.finish()
    }

    /// Feeds `bytes`.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    /// Feeds `v` as 8 little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest of everything fed so far.
    #[must_use]
    #[inline]
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_64_vectors() {
        assert_eq!(Fnv1a::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_writes_equal_one_write() {
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), Fnv1a::hash(b"foobar"));
        let mut n = Fnv1a::default();
        n.write_u64(0x0102_0304_0506_0708);
        assert_eq!(n.finish(), Fnv1a::hash(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }
}
