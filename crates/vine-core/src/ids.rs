//! Typed identifiers and content-addressed naming.
//!
//! The paper requires that "any transferable data in the system has to be
//! uniquely identified and read-only" (§2.2.2) so workers can exchange files
//! peer-to-peer without coordination. We name every file by a 128-bit digest
//! of its content, computed with two independent FNV-1a passes. FNV is not
//! cryptographic, but the threat model here is *accidental* collision between
//! honest datasets, for which 128 bits of a well-mixed hash is ample — and it
//! keeps the workspace free of external crypto dependencies.

use std::fmt;

/// A 128-bit content digest. The canonical name of every immutable file.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentHash(pub u128);

const FNV64_OFFSET: u64 = 0xcbf29ce484222325;
const FNV64_PRIME: u64 = 0x100000001b3;
/// Second-lane offset: FNV offset XOR a fixed constant so the two lanes are
/// decorrelated even for short inputs.
const FNV64_OFFSET_B: u64 = FNV64_OFFSET ^ 0x9e3779b97f4a7c15;

/// One FNV-1a pass with a caller-chosen offset basis, finished with a
/// splitmix64-style avalanche so short inputs still diffuse into all bits.
fn fnv1a64(offset: u64, bytes: &[u8]) -> u64 {
    let mut h = offset;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV64_PRIME);
    }
    // splitmix64 finalizer
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58476d1ce4e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d049bb133111eb);
    h ^ (h >> 31)
}

impl ContentHash {
    /// Hash raw bytes.
    pub fn of_bytes(bytes: &[u8]) -> Self {
        let hi = fnv1a64(FNV64_OFFSET, bytes) as u128;
        let lo = fnv1a64(FNV64_OFFSET_B, bytes) as u128;
        ContentHash((hi << 64) | lo)
    }

    /// Hash a UTF-8 string.
    pub fn of_str(s: &str) -> Self {
        Self::of_bytes(s.as_bytes())
    }

    /// Combine two hashes (order-sensitive), e.g. for a file derived from two
    /// sources or a manifest of parts.
    pub fn combine(self, other: ContentHash) -> ContentHash {
        let mut buf = [0u8; 32];
        buf[..16].copy_from_slice(&self.0.to_le_bytes());
        buf[16..].copy_from_slice(&other.0.to_le_bytes());
        ContentHash::of_bytes(&buf)
    }

    /// First 16 hex characters, used as a short human-readable cache key
    /// (analogous to TaskVine naming cached files by content hash).
    pub fn short(&self) -> String {
        format!("{:016x}", (self.0 >> 64) as u64)
    }
}

impl fmt::Debug for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ContentHash({:032x})", self.0)
    }
}

impl fmt::Display for ContentHash {
    /// Renders the 128-bit digest as 32 lowercase hex digits.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

macro_rules! typed_id {
    ($(#[$meta:meta])* $name:ident, $inner:ty, $prefix:literal) => {
        $(#[$meta])*
        #[derive(
            Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord,
        )]
        pub struct $name(pub $inner);

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                $name(v)
            }
        }
    };
}

typed_id!(
    /// A worker node connected to the manager.
    WorkerId, u32, "w");
typed_id!(
    /// A submitted stateless task (paper Table 1, row "Task").
    TaskId, u64, "t");
typed_id!(
    /// A submitted function invocation (paper Table 1, row "Invocation").
    InvocationId, u64, "i");
typed_id!(
    /// One deployed instance of a library on one worker. The paper's Figure
    /// 10 counts these ("number of deployed libraries").
    LibraryInstanceId, u64, "L");
typed_id!(
    /// An immutable file known to the manager's file table. Distinct from
    /// [`ContentHash`]: the id is the handle, the hash is the name used for
    /// cache lookups and peer transfers.
    FileId, u64, "f");
typed_id!(
    /// One scheduling shard in a federated deployment: a
    /// `vine_manager::Manager` owning a partition of the workers, behind
    /// the routing front-end.
    ShardId, u32, "s");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(ContentHash::of_str("hello"), ContentHash::of_str("hello"));
        assert_eq!(ContentHash::of_bytes(b"abc"), ContentHash::of_bytes(b"abc"));
    }

    #[test]
    fn hash_distinguishes_content() {
        assert_ne!(ContentHash::of_str("hello"), ContentHash::of_str("hellp"));
        assert_ne!(ContentHash::of_str(""), ContentHash::of_str("\0"));
        // short inputs must not collide lane-wise
        assert_ne!(ContentHash::of_bytes(b"a"), ContentHash::of_bytes(b"b"));
    }

    #[test]
    fn empty_input_has_full_width_digest() {
        let h = ContentHash::of_bytes(&[]);
        // both 64-bit lanes populated
        assert_ne!((h.0 >> 64) as u64, 0);
        assert_ne!(h.0 as u64, 0);
        assert_ne!((h.0 >> 64) as u64, h.0 as u64);
    }

    #[test]
    fn combine_is_order_sensitive() {
        let a = ContentHash::of_str("a");
        let b = ContentHash::of_str("b");
        assert_ne!(a.combine(b), b.combine(a));
        assert_ne!(a.combine(b), a);
    }

    #[test]
    fn short_is_16_hex_chars() {
        let s = ContentHash::of_str("x").short();
        assert_eq!(s.len(), 16);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn display_roundtrip_width() {
        let h = ContentHash::of_str("payload");
        let s = format!("{h}");
        assert_eq!(s.len(), 32);
    }

    #[test]
    fn typed_ids_format_with_prefix() {
        assert_eq!(format!("{}", WorkerId(7)), "w7");
        assert_eq!(format!("{}", TaskId(1)), "t1");
        assert_eq!(format!("{}", InvocationId(2)), "i2");
        assert_eq!(format!("{}", LibraryInstanceId(3)), "L3");
        assert_eq!(format!("{}", FileId(4)), "f4");
    }

    #[test]
    fn avalanche_on_single_bit_flip() {
        // sanity: flipping one input bit changes roughly half the output bits
        let a = ContentHash::of_bytes(&[0b0000_0000]).0;
        let b = ContentHash::of_bytes(&[0b0000_0001]).0;
        let differing = (a ^ b).count_ones();
        assert!(
            (32..=96).contains(&differing),
            "poor diffusion: {differing} differing bits"
        );
    }
}
