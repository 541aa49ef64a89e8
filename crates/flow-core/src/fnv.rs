//! 64-bit FNV-1a hashing.
//!
//! One accumulator shared by every subsystem that needs a
//! deterministic, dependency-free, platform-stable hash: serving cache
//! keys and model fingerprints (`flow-serve`) and the record checksums
//! of every persisted file ([`crate::persist`]). Keeping
//! the implementation here guarantees the serving fingerprint and the
//! streaming registry fingerprint can never drift apart.
//!
//! FNV-1a is not collision-resistant; callers must treat equal hashes
//! as "probably equal" and guard correctness with full-value equality
//! (the serving cache does) or use it only as a corruption check where
//! an adversary is not in the threat model (persisted-record checksums).

/// 64-bit FNV-1a accumulator.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh accumulator at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// Folds raw bytes into the hash.
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Folds a `u64` (little-endian bytes) into the hash.
    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The accumulated hash.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv64::new().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv64::new().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn u64_folds_little_endian_bytes() {
        let direct = Fnv64::new().bytes(&0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(
            Fnv64::new().u64(0x0102_0304_0506_0708).finish(),
            direct.finish()
        );
    }

    #[test]
    fn order_matters() {
        assert_ne!(
            Fnv64::new().u64(1).u64(2).finish(),
            Fnv64::new().u64(2).u64(1).finish()
        );
    }
}
