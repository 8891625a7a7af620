//! The workspace's hashing primitives.
//!
//! Two hashers live here, for two different jobs:
//!
//! * [`StableHasher`] is an incremental FNV-1a over bytes, with an optional
//!   splitmix64-style avalanche finish. Unlike [`std::hash::Hash`] (whose
//!   `HashMap` hasher may be seeded per process), its output is reproducible
//!   across runs, machines and toolchains — which is what makes it usable
//!   for shard keys and for run digests that are persisted (e.g. in
//!   `BENCH_pr3.json`) and compared across versions. Every stable hash in
//!   the workspace goes through this one implementation so the constants
//!   cannot drift apart.
//! * [`FlowHasher`] is a fast, per-process-seeded hasher for the in-memory
//!   per-flow and per-socket tables on the event path ([`FlowMap`] /
//!   [`FlowSet`]). Its output is deliberately *not* stable: it must never
//!   reach a digest, a shard key or anything persisted.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// Incremental FNV-1a with a platform-stable output.
///
/// ```
/// use mop_packet::StableHasher;
/// let mut a = StableHasher::new();
/// a.write_str("example");
/// let mut b = StableHasher::new();
/// b.write_str("example");
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone)]
pub struct StableHasher(u64);

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x1000_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self(Self::FNV_OFFSET)
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.write_u8(*b);
        }
    }

    /// Feeds one byte.
    pub fn write_u8(&mut self, byte: u8) {
        self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(Self::FNV_PRIME);
    }

    /// Feeds a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds an `f64` by its bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Feeds a string, length-prefixed so `("ab","c")` ≠ `("a","bc")`.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The raw FNV-1a state. Right for equality digests; for modulo
    /// bucketing use [`StableHasher::finish_mixed`].
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// The state passed through an avalanche mix (splitmix64's finaliser).
    /// FNV alone diffuses poorly into the low bits; the mix makes
    /// `hash % buckets` spread evenly, which is what shard keys need.
    pub fn finish_mixed(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }
}

/// A `HashMap` keyed by per-flow or per-socket identity, hashed with
/// [`FlowHasher`]. Iteration order is random per process, exactly like a
/// std `HashMap`: sort before anything order-sensitive.
pub type FlowMap<K, V> = HashMap<K, V, FlowBuildHasher>;

/// A `HashSet` of per-flow or per-socket identities, hashed with
/// [`FlowHasher`]. Iteration order is random per process.
pub type FlowSet<K> = HashSet<K, FlowBuildHasher>;

/// An Fx-style word-at-a-time hasher for in-memory per-flow tables.
///
/// Each word is folded in as `hash = (hash + word) * K`, and `finish`
/// rotates the well-mixed middle bits of the last product into both ends of
/// the output, so the low bits (hashbrown's bucket index) and the top seven
/// bits (its control tag) both spread. Hashing a [`FourTuple`] costs one
/// add and multiply per hashed field, where SipHash-1-3 buffers the bytes
/// and runs its add–rotate–xor rounds over them.
///
/// **For in-memory tables only.** The state starts from a per-process
/// random seed (see [`FlowBuildHasher`]), so the same key hashes
/// differently in every process: digests, shard keys and anything
/// persisted stay on [`StableHasher`].
///
/// Hash flooding is not a concern here, which is why a non-cryptographic
/// hasher is acceptable: the keys of these tables come from generated
/// scenarios and from the engine's own socket ids, and the control plane's
/// wire protocol never accepts raw four-tuples — a client can name a
/// scenario and its parameters, never the keys that land in these maps.
///
/// [`FourTuple`]: crate::FourTuple
#[derive(Debug, Clone, Copy)]
pub struct FlowHasher {
    hash: u64,
}

impl FlowHasher {
    /// rustc-hash's multiplier: odd, with well-spread bits.
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(Self::K);
    }
}

impl Hasher for FlowHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`FlowHasher`]s from the per-process seed.
///
/// The seed is drawn once per process from std's `RandomState` and shared by
/// every table, so two `FlowBuildHasher::default()` values in one process
/// agree, while map iteration order differs between processes as it does
/// for std's `HashMap`. That keeps the test suite able to catch code that
/// lets map order leak into an output.
#[derive(Debug, Clone, Copy)]
pub struct FlowBuildHasher {
    seed: u64,
}

impl Default for FlowBuildHasher {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        let seed = *SEED.get_or_init(|| RandomState::new().hash_one(0u64));
        Self { seed }
    }
}

impl BuildHasher for FlowBuildHasher {
    type Hasher = FlowHasher;

    #[inline]
    fn build_hasher(&self) -> FlowHasher {
        FlowHasher { hash: self.seed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_values_are_stable() {
        // The empty input is the offset basis, and one pinned non-trivial
        // value guards against the constants drifting: digests derived from
        // this hasher are persisted (BENCH_pr3.json) and compared across
        // versions. (The multiplier is the workspace's long-standing
        // variant, shared with SimRng::fork — not the textbook FNV prime.)
        assert_eq!(StableHasher::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = StableHasher::new();
        h.write_u8(b'a');
        assert_eq!(h.finish(), 12_642_967_877_113_212_044);
    }

    #[test]
    fn length_prefix_disambiguates_strings() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn mixed_output_spreads_low_bits() {
        // Near-identical structured inputs must not cluster mod 8.
        let mut counts = [0usize; 8];
        for i in 0..4096u32 {
            let mut h = StableHasher::new();
            h.write_bytes(&[10, 0, (i >> 8) as u8, i as u8]);
            h.write_u64(443);
            counts[(h.finish_mixed() % 8) as usize] += 1;
        }
        assert!(counts.iter().all(|c| *c > 256), "clustered: {counts:?}");
    }
}
