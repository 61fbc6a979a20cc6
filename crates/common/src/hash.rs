//! A from-scratch 64-bit hash (wyhash-flavoured mix over 8-byte lanes).
//!
//! Used for shard-key routing, hash-join tables and the global secondary
//! index, all of which need a stable, seedable, well-mixed 64-bit hash that
//! is identical across processes and runs (so on-disk hash tables built by
//! one process can be probed by another).

const K0: u64 = 0x9e37_79b9_7f4a_7c15;
const K1: u64 = 0xbf58_476d_1ce4_e5b9;
const K2: u64 = 0x94d0_49bb_1331_11eb;

#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(K1);
    x ^= x >> 27;
    x = x.wrapping_mul(K2);
    x ^= x >> 31;
    x
}

/// Hash a byte slice to 64 bits.
#[inline]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    hash_bytes_seeded(bytes, 0)
}

/// Hash a byte slice with a seed (used to derive independent hash functions).
pub fn hash_bytes_seeded(bytes: &[u8], seed: u64) -> u64 {
    let mut h = K0 ^ seed.wrapping_mul(K1) ^ (bytes.len() as u64).wrapping_mul(K2);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lane = u64::from_le_bytes(c.try_into().unwrap());
        h = mix(h ^ lane.wrapping_mul(K1));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut buf = [0u8; 8];
        buf[..rem.len()].copy_from_slice(rem);
        h = mix(h ^ u64::from_le_bytes(buf).wrapping_mul(K2));
    }
    mix(h)
}

/// Combine two hashes order-sensitively (for multi-column keys).
#[inline]
pub fn combine(a: u64, b: u64) -> u64 {
    mix(a.rotate_left(17) ^ b.wrapping_mul(K1))
}

/// Hash of an `Int` value ([`crate::value::Value::hash64`] without the
/// `Value`): typed key lanes hash whole columns through this.
#[inline]
pub fn hash_i64(v: i64) -> u64 {
    hash_bytes(&v.to_le_bytes())
}

/// Hash of a `Double` value. Integral doubles hash like the equal `Int` so
/// `a == b` implies equal hashes across the numeric cross-type comparison.
#[inline]
pub fn hash_f64(v: f64) -> u64 {
    if v.fract() == 0.0 && v >= i64::MIN as f64 && v <= i64::MAX as f64 {
        hash_i64(v as i64)
    } else {
        hash_bytes(&v.to_bits().to_le_bytes())
    }
}

/// Seed of [`hash_values`]: the hash of the empty sequence.
pub const VALUES_SEED: u64 = K0;

/// Hash an ordered sequence of values into one 64-bit key hash.
pub fn hash_values<'a, I>(values: I) -> u64
where
    I: IntoIterator<Item = &'a crate::value::Value>,
{
    let mut h = VALUES_SEED;
    for v in values {
        h = combine(h, v.hash64());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn deterministic() {
        assert_eq!(hash_bytes(b"hello"), hash_bytes(b"hello"));
        assert_ne!(hash_bytes(b"hello"), hash_bytes(b"hellp"));
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
    }

    #[test]
    fn seed_changes_hash() {
        assert_ne!(hash_bytes_seeded(b"x", 1), hash_bytes_seeded(b"x", 2));
    }

    #[test]
    fn combine_is_order_sensitive() {
        assert_ne!(combine(1, 2), combine(2, 1));
    }

    #[test]
    fn value_sequence_hash() {
        let a = [Value::Int(1), Value::str("x")];
        let b = [Value::str("x"), Value::Int(1)];
        assert_ne!(hash_values(a.iter()), hash_values(b.iter()));
        assert_eq!(hash_values(a.iter()), hash_values(a.iter()));
    }

    #[test]
    fn avalanche_rough_check() {
        // Flipping one input bit should change roughly half the output bits.
        let base = hash_bytes(&42u64.to_le_bytes());
        let flipped = hash_bytes(&43u64.to_le_bytes());
        let diff = (base ^ flipped).count_ones();
        assert!((16..=48).contains(&diff), "poor avalanche: {diff} bits");
    }
}
