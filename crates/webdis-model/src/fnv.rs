//! 64-bit FNV-1a, the one hash behind every pinned digest (the living
//! web's history digest, the chaos verdict digest, the monitor's
//! series and alert-log digests). It is not a `HashMap` hasher: it is
//! chosen because its output is fixed by the spec, so a digest printed
//! today compares equal on any machine and toolchain.

use std::hash::Hasher;

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a state. [`Default`] starts at the offset basis; feed
/// bytes with [`Hasher::write`] and read the digest with
/// [`Hasher::finish`], which does not reset the state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(OFFSET_BASIS)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn known_answer_vectors() {
        assert_eq!(digest(b""), 0xcbf29ce484222325);
        assert_eq!(digest(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(digest(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn split_writes_equal_one_write() {
        let mut h = Fnv1a::default();
        h.write(b"foo");
        h.write(b"");
        h.write(b"bar");
        assert_eq!(h.finish(), digest(b"foobar"));
    }
}
