//! Cache keys for cacheable function calls (§6.1).
//!
//! The TxCache library names cache entries automatically by serializing the
//! cacheable function's name and arguments. We keep both a human-readable
//! rendering (useful for debugging and statistics) and a 64-bit hash used for
//! consistent-hashing placement across cache nodes.

use std::fmt;
use std::hash::{Hash, Hasher};

/// The identity of a cacheable call: function name plus serialized arguments.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// The cacheable function's registered name.
    pub function: String,
    /// A canonical serialization of the call's arguments.
    pub args: String,
}

impl CacheKey {
    /// Builds a key from a function name and an already-serialized argument
    /// string.
    #[must_use]
    pub fn new(function: impl Into<String>, args: impl Into<String>) -> CacheKey {
        CacheKey {
            function: function.into(),
            args: args.into(),
        }
    }

    /// Returns a stable 64-bit hash of the key, used to place the key on the
    /// consistent-hashing ring.
    ///
    /// The hash is FNV-1a over the rendered key; it must be identical across
    /// processes and runs, so we do not use `std`'s `RandomState`.
    #[must_use]
    pub fn stable_hash(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        for b in self
            .function
            .as_bytes()
            .iter()
            .chain([0u8].iter())
            .chain(self.args.as_bytes())
        {
            h ^= u64::from(*b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// Approximate size in bytes of the key, used for cache memory accounting.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.function.len() + self.args.len() + 16
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.function, self.args)
    }
}

/// Hashes an arbitrary `Hash` value with a stable seed; a convenience for
/// components (e.g. the consistent-hash ring) that need deterministic
/// placement of non-`CacheKey` items such as node identifiers.
#[must_use]
pub fn stable_hash_of<T: Hash>(value: &T) -> u64 {
    // A tiny, dependency-free FNV-based hasher. Not cryptographic; only used
    // for placement and sharding decisions.
    struct Fnv(u64);
    impl Hasher for Fnv {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
            for b in bytes {
                self.0 ^= u64::from(*b);
                self.0 = self.0.wrapping_mul(FNV_PRIME);
            }
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_with_same_content_hash_equal() {
        let a = CacheKey::new("get_item", "[42]");
        let b = CacheKey::new("get_item", "[42]");
        assert_eq!(a, b);
        assert_eq!(a.stable_hash(), b.stable_hash());
    }

    #[test]
    fn different_args_produce_different_hashes() {
        let a = CacheKey::new("get_item", "[42]");
        let b = CacheKey::new("get_item", "[43]");
        assert_ne!(a.stable_hash(), b.stable_hash());
    }

    #[test]
    fn function_and_args_are_separated_in_hash() {
        // "ab" + "c" must not collide with "a" + "bc".
        let a = CacheKey::new("ab", "c");
        let b = CacheKey::new("a", "bc");
        assert_ne!(a.stable_hash(), b.stable_hash());
    }

    #[test]
    fn display_and_size() {
        let k = CacheKey::new("get_user", "[7]");
        assert_eq!(k.to_string(), "get_user([7])");
        assert!(k.size_bytes() >= "get_user".len() + "[7]".len());
    }

    #[test]
    fn stable_hash_of_is_deterministic() {
        assert_eq!(stable_hash_of(&"node-1"), stable_hash_of(&"node-1"));
        assert_ne!(stable_hash_of(&"node-1"), stable_hash_of(&"node-2"));
    }
}
