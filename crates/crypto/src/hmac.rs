//! HMAC-SHA-256 (RFC 2104), verified against RFC 4231 test vectors.

use crate::sha256::{sha256, Sha256};

const BLOCK: usize = 64;

/// Computes `HMAC-SHA-256(key, msg)`.
///
/// Keys longer than the 64-byte block are hashed first, per RFC 2104.
///
/// # Example
///
/// ```
/// let tag = pws_crypto::hmac::hmac_sha256(b"Jefe", b"what do ya want for nothing?");
/// assert_eq!(tag[0], 0x5b);
/// ```
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; 32] {
    HmacKey::new(key).mac(msg)
}

/// A key with its ipad and opad blocks already absorbed: the two SHA-256
/// midstates every MAC under the key starts from. Kept per key, it makes a
/// MAC cost its message blocks plus two compressions instead of four.
#[derive(Clone, Debug)]
pub(crate) struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    pub(crate) fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            key_block[..32].copy_from_slice(sha256(key).as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0x36u8; BLOCK];
        let mut opad = [0x5cu8; BLOCK];
        for i in 0..BLOCK {
            ipad[i] ^= key_block[i];
            opad[i] ^= key_block[i];
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacKey { inner, outer }
    }

    /// The tag of `msg` under this key.
    pub(crate) fn mac(&self, msg: &[u8]) -> [u8; 32] {
        let mut inner = self.inner.clone();
        inner.update(msg);
        self.finish(inner)
    }

    fn finish(&self, inner: Sha256) -> [u8; 32] {
        let mut outer = self.outer.clone();
        outer.update(inner.finalize().as_bytes());
        outer.finalize().0
    }
}

/// Incremental HMAC-SHA-256, for MACs over multi-part messages without
/// intermediate copies.
#[derive(Clone, Debug)]
pub struct HmacSha256 {
    key: HmacKey,
    inner: Sha256,
}

impl HmacSha256 {
    /// Starts a MAC computation under `key`.
    pub fn new(key: &[u8]) -> Self {
        let key = HmacKey::new(key);
        let inner = key.inner.clone();
        HmacSha256 { key, inner }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, msg: &[u8]) {
        self.inner.update(msg);
    }

    /// Finishes and returns the tag.
    pub fn finalize(self) -> [u8; 32] {
        self.key.finish(self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(t: &[u8; 32]) -> String {
        t.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test cases.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let msg = [0xddu8; 50];
        let tag = hmac_sha256(&key, &msg);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case7_long_key_and_data() {
        let key = [0xaau8; 131];
        let msg: &[u8] = b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        let tag = hmac_sha256(&key, msg);
        assert_eq!(
            hex(&tag),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn a_kept_key_macs_in_two_compressions_plus_the_message() {
        let key = HmacKey::new(b"pairwise key");
        let before = crate::sha256::compressions();
        let tag = key.mac(&[7u8; 48]);
        assert_eq!(crate::sha256::compressions() - before, 2);
        assert_eq!(tag, hmac_sha256(b"pairwise key", &[7u8; 48]));
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = b"some key material";
        let mut h = HmacSha256::new(key);
        h.update(b"part one ");
        h.update(b"part two");
        assert_eq!(h.finalize(), hmac_sha256(key, b"part one part two"));
    }

    proptest! {
        #[test]
        fn key_separation(msg in proptest::collection::vec(any::<u8>(), 0..128)) {
            let a = hmac_sha256(b"key-a", &msg);
            let b = hmac_sha256(b"key-b", &msg);
            prop_assert_ne!(a, b);
        }

        #[test]
        fn incremental_equals_oneshot_prop(
            key in proptest::collection::vec(any::<u8>(), 0..100),
            msg in proptest::collection::vec(any::<u8>(), 0..256),
            split in 0usize..256,
        ) {
            let split = split.min(msg.len());
            let mut h = HmacSha256::new(&key);
            h.update(&msg[..split]);
            h.update(&msg[split..]);
            prop_assert_eq!(h.finalize(), hmac_sha256(&key, &msg));
        }
    }
}
