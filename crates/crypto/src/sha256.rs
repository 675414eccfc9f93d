//! A from-scratch SHA-256 (FIPS 180-4) implementation.
//!
//! Used for request digests in CLBFT, reply digests in Perpetual, and as the
//! compression function under HMAC. Verified against the standard
//! known-answer test vectors in the unit tests below.

use std::cell::Cell;
use std::fmt;

thread_local! {
    static COMPRESSIONS: Cell<u64> = const { Cell::new(0) };
}

/// SHA-256 compression-function calls made on this thread so far: the
/// exact hashing work a run did, whatever the host's clock says.
pub fn compressions() -> u64 {
    COMPRESSIONS.with(Cell::get)
}

/// A 256-bit digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest32(pub [u8; 32]);

impl Digest32 {
    /// The all-zero digest, used as a placeholder for "no digest".
    pub const ZERO: Digest32 = Digest32([0u8; 32]);

    /// The raw bytes.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Renders the first 8 bytes as lowercase hex (for logs).
    pub(crate) fn short_hex(&self) -> String {
        self.0[..8].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for Digest32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest32({}..)", self.short_hex())
    }
}

impl fmt::Display for Digest32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl AsRef<[u8]> for Digest32 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest32 {
    fn from(v: [u8; 32]) -> Self {
        Digest32(v)
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use pws_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize().to_string(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bits: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            length_bits: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.length_bits = self.length_bits.wrapping_add((data.len() as u64) * 8);
        let mut rest = data;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(rest.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        while rest.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&rest[..64]);
            self.compress(&block);
            rest = &rest[64..];
        }
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffered = rest.len();
        }
    }

    /// Absorbs a `u64` in big-endian order (convenience for codecs).
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_be_bytes());
    }

    /// Finishes and returns the digest.
    pub fn finalize(mut self) -> Digest32 {
        let bits = self.length_bits;
        // Padding: 0x80, zeros, 8-byte big-endian bit length.
        self.update_padding();
        let mut lenblock = [0u8; 8];
        lenblock.copy_from_slice(&bits.to_be_bytes());
        // update() would recount length; write directly into the buffer.
        self.buffer[56..64].copy_from_slice(&lenblock);
        let block = self.buffer;
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        Digest32(out)
    }

    fn update_padding(&mut self) {
        // Append 0x80 then zeros until 56 bytes are buffered (mod 64),
        // compressing on overflow, without touching length_bits.
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        let used = self.buffered;
        let padlen = if used < 56 { 56 - used } else { 120 - used };
        let mut rest: &[u8] = &pad[..padlen];
        while !rest.is_empty() {
            let take = (64 - self.buffered).min(rest.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        debug_assert_eq!(self.buffered, 56);
    }

    fn compress(&mut self, block: &[u8; 64]) {
        COMPRESSIONS.with(|c| c.set(c.get() + 1));
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([
                block[i * 4],
                block[i * 4 + 1],
                block[i * 4 + 2],
                block[i * 4 + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// One-shot SHA-256.
///
/// # Example
///
/// ```
/// let d = pws_crypto::sha256(b"");
/// assert_eq!(d.to_string(),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
/// ```
pub fn sha256(data: &[u8]) -> Digest32 {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(d: &Digest32) -> String {
        d.to_string()
    }

    #[test]
    fn fips_vectors() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        assert_eq!(
            hex(&sha256(b"The quick brown fox jumps over the lazy dog")),
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn boundary_lengths() {
        // 55/56/63/64/65 bytes cross the padding boundaries.
        for len in [55usize, 56, 63, 64, 65, 119, 120, 128] {
            let data = vec![0x5au8; len];
            let once = sha256(&data);
            let mut inc = Sha256::new();
            for b in &data {
                inc.update(std::slice::from_ref(b));
            }
            assert_eq!(once, inc.finalize(), "len={len}");
        }
    }

    #[test]
    fn compressions_count_message_and_padding_blocks() {
        for (len, blocks) in [
            (0usize, 1u64),
            (55, 1),
            (56, 2),
            (64, 2),
            (119, 2),
            (120, 3),
        ] {
            let before = compressions();
            sha256(&vec![0u8; len]);
            assert_eq!(compressions() - before, blocks, "len={len}");
        }
    }

    #[test]
    fn digest_display_and_debug() {
        let d = sha256(b"abc");
        assert_eq!(d.to_string().len(), 64);
        assert!(format!("{d:?}").starts_with("Digest32(ba7816bf8f01cfea"));
        assert_eq!(d.short_hex(), "ba7816bf8f01cfea");
        assert_eq!(Digest32::ZERO.as_bytes(), &[0u8; 32]);
    }

    #[test]
    fn update_u64_matches_bytes() {
        let mut a = Sha256::new();
        a.update_u64(0x0102030405060708);
        let mut b = Sha256::new();
        b.update(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(a.finalize(), b.finalize());
    }

    proptest! {
        #[test]
        fn incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512),
                                      split in 0usize..512) {
            let split = split.min(data.len());
            let once = sha256(&data);
            let mut inc = Sha256::new();
            inc.update(&data[..split]);
            inc.update(&data[split..]);
            prop_assert_eq!(once, inc.finalize());
        }

        #[test]
        fn distinct_inputs_distinct_digests(a in proptest::collection::vec(any::<u8>(), 0..64),
                                            b in proptest::collection::vec(any::<u8>(), 0..64)) {
            prop_assume!(a != b);
            prop_assert_ne!(sha256(&a), sha256(&b));
        }
    }
}
