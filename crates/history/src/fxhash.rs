//! A fast, non-cryptographic hasher for the crate's hot paths.
//!
//! The streaming builder hashes millions of small integer keys
//! ([`Value`](crate::Value) ids, sequence numbers) per second; the
//! standard library's SipHash is DoS-resistant but several times slower
//! than needed. This is the Fx multiply-mix scheme used by rustc
//! (firefox-derived): fold each word into the state with a rotate + xor +
//! odd-constant multiply.
//!
//! **When to use it:** only for maps whose *size* is bounded by an
//! operator-chosen parameter — the builder's buffered/pending/retired
//! maps (≤ window resp. horizon entries). Adversarial keys can at worst
//! make such a map quadratic in its small bound. Maps that are both keyed
//! by untrusted input *and* unbounded must stay on the standard hasher:
//! there, engineered collisions are a real flooding surface. Examples are
//! the stream pipeline's per-key state map (one entry per distinct NDJSON
//! key) and the value maps of [`RawHistory::validate`](crate::RawHistory::validate)
//! and [`History::from_raw`](crate::History::from_raw). A sealed segment
//! is bounded, but the same constructor builds offline histories of any
//! size, so those maps use SipHash for every input.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// Knuth's multiplicative constant (2^64 / φ), the usual Fx mixer.
const SEED: u64 = 0x517C_C1B7_2722_0A95;

/// The rustc-style Fx hasher: fast on small integer keys, not
/// collision-resistant against adversarial inputs (see module docs for
/// why that is acceptable here).
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// An order-sensitive running fingerprint of a chunked byte stream, built
/// on the same Fx mixer. Checkpoint/resume uses it to verify that the
/// input prefix a resumed audit skips over is byte-identical to the one
/// the checkpoint summarised (see `kav stream --resume`).
///
/// The digest depends on the chunk boundaries as well as the bytes (each
/// [`update`](Fingerprint::update) folds in the chunk length), so callers
/// must feed identical chunks on both sides — the NDJSON reader feeds one
/// chunk per input line. Like [`FxHasher`], this is **not** cryptographic:
/// it detects accidental divergence (a rotated log, a truncated copy, an
/// edited record), not a deliberate forgery.
///
/// # Examples
///
/// ```
/// use kav_history::fxhash::Fingerprint;
///
/// let mut a = Fingerprint::new();
/// a.update(b"line one\n");
/// a.update(b"line two\n");
///
/// let mut b = Fingerprint::new();
/// b.update(b"line one\n");
/// assert_ne!(a.value(), b.value());
/// b.update(b"line two\n");
/// assert_eq!(a.value(), b.value());
/// assert_eq!(a.bytes(), 18);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    state: u64,
    bytes: u64,
}

impl Fingerprint {
    /// A fingerprint of the empty stream.
    pub fn new() -> Self {
        Fingerprint { state: SEED, bytes: 0 }
    }

    /// Folds one chunk (for stream audits: one input line) into the digest.
    pub fn update(&mut self, chunk: &[u8]) {
        use std::hash::Hasher as _;
        let mut hasher = FxHasher { state: self.state };
        hasher.write_u64(chunk.len() as u64);
        hasher.write(chunk);
        self.state = hasher.finish();
        self.bytes += chunk.len() as u64;
    }

    /// The current 64-bit digest.
    pub fn value(&self) -> u64 {
        self.state
    }

    /// Total bytes folded in so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_and_sets_behave_like_std() {
        let mut map: FxHashMap<u64, u32> = FxHashMap::default();
        for i in 0..1000u64 {
            map.insert(i, (i * 2) as u32);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map.get(&500), Some(&1000));
        assert_eq!(map.remove(&500), Some(1000));
        assert_eq!(map.get(&500), None);

        let mut set: FxHashSet<u64> = FxHashSet::default();
        assert!(set.insert(7));
        assert!(!set.insert(7));
        assert!(set.contains(&7));
    }

    #[test]
    fn spreads_sequential_keys() {
        // Sequential integers must not collapse onto a few buckets: check
        // the low-order bits of hashes of 0..256 take many values.
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<FxHasher>::default();
        let mut low_bits: FxHashSet<u64> = FxHashSet::default();
        for i in 0..256u64 {
            low_bits.insert(build.hash_one(i) & 0xFF);
        }
        assert!(low_bits.len() > 128, "only {} distinct buckets", low_bits.len());
    }

    #[test]
    fn fingerprint_is_chunk_and_order_sensitive() {
        let digest = |chunks: &[&[u8]]| {
            let mut fp = Fingerprint::new();
            for c in chunks {
                fp.update(c);
            }
            fp.value()
        };
        // Same bytes, different chunking or order: different digests.
        assert_ne!(digest(&[b"ab", b"c"]), digest(&[b"abc"]));
        assert_ne!(digest(&[b"a", b"b"]), digest(&[b"b", b"a"]));
        // Deterministic, and the empty chunk still advances the state.
        assert_eq!(digest(&[b"x", b"y"]), digest(&[b"x", b"y"]));
        assert_ne!(digest(&[b"x"]), digest(&[b"x", b""]));
    }

    #[test]
    fn hashes_arbitrary_byte_strings() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<FxHasher>::default();
        let a = build.hash_one("short");
        let b = build.hash_one("a longer string spanning chunks");
        assert_ne!(a, b);
        assert_eq!(a, build.hash_one("short"));
    }
}
