//! Merkle-partitioned snapshot pages.
//!
//! The application snapshot is chunked into fixed-size pages and summarized
//! by a [`PageManifest`]: one digest per page plus a binary Merkle root over
//! the digest list. Checkpoint certificates cover the root (it is part of
//! the checkpoint digest), so `f + 1` matching checkpoint votes vouch
//! for *every page digest at once* — a fetching replica can then pull pages
//! one range at a time ([`crate::FetchPagesMsg`]/[`crate::PageResponseMsg`])
//! and verify each page against the certified manifest before installing
//! anything. A Byzantine responder can stall a transfer but never corrupt
//! it, and a replica whose state differs in `k` pages fetches `O(k)` pages,
//! not `O(total)` (Castro–Liskov hierarchical state partitions).
//!
//! The same manifest drives **incremental checkpoints**: at a boundary the
//! replica re-hashes only pages whose bytes changed since the previous
//! boundary, so checkpoint CPU stops scaling with total state size.

use crate::wire::{counted, Decoder, Encoder, WireError};
use pws_crypto::sha256::{Digest32, Sha256};

/// Default page size (bytes) used by [`crate::Config::new`].
pub const DEFAULT_PAGE_SIZE: u32 = 1024;

/// Hard cap on the page count of one manifest on the wire: bounds the
/// allocation a hostile count prefix can drive (64 GiB of state at the
/// default page size — far above any simulated service).
pub(crate) const MAX_WIRE_PAGES: usize = 1 << 20;

/// Protocol cap on the pages one [`crate::FetchPagesMsg`] may request and
/// one [`crate::PageResponseMsg`] may carry. Deliberately *lower* than the
/// wire decode cap (`MAX_WIRE_PAGE_RESPONSE`): an over-cap response still
/// decodes, reaches the fetch state machine, and is rejected and counted
/// there — misbehavior is observable, not silently dropped at the codec.
pub const MAX_PAGES_PER_FETCH: u32 = 64;

/// Hard decode cap on the page count of one page response frame.
pub(crate) const MAX_WIRE_PAGE_RESPONSE: usize = 4096;

/// The content digest of one page: domain-separated and length-covered, so
/// a page can never alias a non-page hash input or a differently-sized
/// page.
pub(crate) fn page_digest(bytes: &[u8]) -> Digest32 {
    let mut h = Sha256::new();
    h.update(b"pws-page");
    h.update_u64(bytes.len() as u64);
    h.update(bytes);
    h.finalize()
}

/// An interior Merkle node over its two children.
fn merkle_node(l: &Digest32, r: &Digest32) -> Digest32 {
    let mut h = Sha256::new();
    h.update(b"pws-merkle-node");
    h.update(l.as_bytes());
    h.update(r.as_bytes());
    h.finalize()
}

/// The deterministic page table of one snapshot: per-page digests plus the
/// Merkle root the checkpoint certificate covers.
///
/// Two correct replicas chunking byte-identical snapshots with the same
/// page size produce identical manifests, so the root is exactly as
/// group-stable as the snapshot itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageManifest {
    page_size: u32,
    total_len: u64,
    digests: Vec<Digest32>,
    /// The Merkle tree's interior levels, bottom up, kept so the next
    /// incremental manifest re-hashes only nodes above a changed page.
    tree: Vec<Vec<Digest32>>,
    root: Digest32,
}

impl PageManifest {
    /// Chunks `bytes` into `page_size`-byte pages and hashes every one.
    ///
    /// # Panics
    ///
    /// Panics if `page_size == 0`.
    pub fn compute(bytes: &[u8], page_size: u32) -> PageManifest {
        let (m, _, _) = PageManifest::compute_incremental(bytes, page_size, None);
        m
    }

    /// Chunks `bytes`, reusing digests from `prev` for pages whose bytes
    /// are unchanged — the incremental-checkpoint fast path. Returns the
    /// manifest plus `(hashed, dirty)` page counts: `hashed` is how many
    /// pages were actually re-digested, `dirty` how many changed (grew,
    /// shrank, or differ byte-wise) since `prev`. Without a previous
    /// snapshot every page is both hashed and dirty.
    ///
    /// # Panics
    ///
    /// Panics if `page_size == 0`.
    pub fn compute_incremental(
        bytes: &[u8],
        page_size: u32,
        prev: Option<(&[u8], &PageManifest)>,
    ) -> (PageManifest, u64, u64) {
        assert!(page_size > 0, "page size must be positive");
        let ps = page_size as usize;
        let count = bytes.len().div_ceil(ps);
        let prev = prev.filter(|(_, m)| m.page_size == page_size);
        let mut digests = Vec::with_capacity(count);
        let (mut hashed, mut dirty) = (0u64, 0u64);
        for i in 0..count {
            let page = &bytes[i * ps..bytes.len().min((i + 1) * ps)];
            let reused = prev.and_then(|(pb, pm)| {
                let old = pb.get(i * ps..pb.len().min((i + 1) * ps))?;
                (old == page).then(|| pm.digests[i])
            });
            match reused {
                Some(d) => digests.push(d),
                None => {
                    hashed += 1;
                    dirty += 1;
                    digests.push(page_digest(page));
                }
            }
        }
        let manifest =
            PageManifest::assemble(page_size, bytes.len() as u64, digests, prev.map(|(_, m)| m));
        (manifest, hashed, dirty)
    }

    /// Builds the Merkle tree over `digests` and seals the root. An
    /// interior node whose two children equal the same two children in
    /// `prev` is taken from `prev` rather than hashed again: the tree is a
    /// pure function of the digest list, so the reused node is the one a
    /// full rebuild would compute.
    fn assemble(
        page_size: u32,
        total_len: u64,
        digests: Vec<Digest32>,
        prev: Option<&PageManifest>,
    ) -> PageManifest {
        let mut tree: Vec<Vec<Digest32>> = Vec::new();
        loop {
            let below = tree.last().unwrap_or(&digests);
            if below.len() <= 1 {
                break;
            }
            let depth = tree.len();
            let prev_below = prev.and_then(|p| match depth {
                0 => Some(&p.digests),
                _ => p.tree.get(depth - 1),
            });
            let prev_level = prev.and_then(|p| p.tree.get(depth));
            let level = below
                .chunks(2)
                .enumerate()
                .map(|(j, pair)| match pair {
                    [l, r] => {
                        let unchanged =
                            prev_below.and_then(|pb| pb.get(2 * j..2 * j + 2)) == Some(pair);
                        match prev_level.and_then(|pl| pl.get(j)) {
                            Some(node) if unchanged => *node,
                            _ => merkle_node(l, r),
                        }
                    }
                    // Odd leftover promotes unchanged; the final root hash
                    // covers the count, so a promoted leaf cannot alias an
                    // interior node of a different-sized tree.
                    _ => pair[0],
                })
                .collect();
            tree.push(level);
        }
        let mut h = Sha256::new();
        h.update(b"pws-merkle-root");
        h.update_u64(u64::from(page_size));
        h.update_u64(total_len);
        h.update_u64(digests.len() as u64);
        if let Some(top) = tree.last().unwrap_or(&digests).first() {
            h.update(top.as_bytes());
        }
        PageManifest {
            page_size,
            total_len,
            digests,
            tree,
            root: h.finalize(),
        }
    }

    /// The Merkle root (the digest checkpoint certificates cover).
    pub fn root(&self) -> Digest32 {
        self.root
    }

    /// The configured page size in bytes.
    pub(crate) fn page_size(&self) -> u32 {
        self.page_size
    }

    /// Total snapshot length in bytes.
    pub(crate) fn total_len(&self) -> u64 {
        self.total_len
    }

    /// Number of pages.
    pub(crate) fn len(&self) -> usize {
        self.digests.len()
    }

    /// Whether the snapshot is empty (zero pages).
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.digests.is_empty()
    }

    /// The digest of page `i`, if in range.
    pub(crate) fn digest(&self, i: usize) -> Option<&Digest32> {
        self.digests.get(i)
    }

    /// The byte length page `i` must have (every page is `page_size` bytes
    /// except a shorter final remainder).
    pub(crate) fn page_len(&self, i: usize) -> usize {
        let ps = u64::from(self.page_size);
        let start = i as u64 * ps;
        (self.total_len.saturating_sub(start)).min(ps) as usize
    }

    /// Verifies candidate bytes for page `i` against the manifest: the
    /// index must be in range, the length exact, and the content digest a
    /// match. With the root `f + 1`-vouched this is the page-install trust
    /// check — nothing failing it may ever be installed.
    pub(crate) fn verify_page(&self, i: usize, bytes: &[u8]) -> bool {
        match self.digests.get(i) {
            Some(want) => bytes.len() == self.page_len(i) && page_digest(bytes) == *want,
            None => false,
        }
    }

    /// Canonical encoding, mirroring [`crate::ExecutedSet::encode_into`]:
    /// geometry first, then the digest list (the root is recomputed on
    /// decode, never trusted from the wire).
    pub(crate) fn encode_into(&self, e: &mut Encoder) {
        e.put_u32(self.page_size);
        e.put_u64(self.total_len);
        e.put_u32(self.digests.len() as u32);
        for d in &self.digests {
            e.put_digest(d);
        }
    }

    /// Decodes a manifest, enforcing `max_pages` before allocating and
    /// rejecting any geometry whose page count does not match
    /// `ceil(total_len / page_size)` — a count/length mismatch cannot
    /// alias a valid manifest.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for truncated, oversized, or inconsistent
    /// input.
    pub(crate) fn decode_from(
        d: &mut Decoder<'_>,
        max_pages: usize,
    ) -> Result<PageManifest, WireError> {
        let page_size = d.u32()?;
        if page_size == 0 {
            return Err(WireError::malformed("zero page size"));
        }
        let total_len = d.u64()?;
        let digests = counted(
            d,
            max_pages,
            || WireError::malformed("too many pages"),
            |d| d.digest(),
        )?;
        if digests.len() as u64 != total_len.div_ceil(u64::from(page_size)) {
            return Err(WireError::malformed("page count/length mismatch"));
        }
        Ok(PageManifest::assemble(page_size, total_len, digests, None))
    }
}

/// Monotone counters for the page subsystem, drained by the harness into
/// the `clbft.pages.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageCounters {
    /// Pages actually re-digested at checkpoint boundaries.
    pub hashed: u64,
    /// Pages whose bytes changed since the previous boundary.
    pub dirty: u64,
    /// Pages pulled over the wire during state transfer.
    pub fetched: u64,
    /// Fetched pages that passed verification against the certified root.
    pub verified: u64,
    /// Page-response frames or pages rejected (unsolicited, wrong range,
    /// over cap, duplicate, or digest mismatch).
    pub rejected: u64,
}

impl PageCounters {
    /// Drains the counters, returning the accumulated values and zeroing
    /// them (so successive drains sum correctly).
    pub(crate) fn take(&mut self) -> PageCounters {
        std::mem::take(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bytes(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn geometry_and_digests() {
        let data = bytes(10);
        let m = PageManifest::compute(&data, 4);
        assert_eq!(m.len(), 3);
        assert_eq!(m.total_len(), 10);
        assert_eq!(m.page_size(), 4);
        assert_eq!(m.page_len(0), 4);
        assert_eq!(m.page_len(2), 2, "final remainder page is short");
        assert_eq!(m.page_len(3), 0, "out of range");
        assert!(m.verify_page(0, &data[0..4]));
        assert!(m.verify_page(2, &data[8..10]));
        assert!(!m.verify_page(2, &data[8..9]), "wrong length");
        assert!(!m.verify_page(0, &data[4..8]), "wrong content");
        assert!(!m.verify_page(3, b""), "out of range");
        let empty = PageManifest::compute(b"", 4);
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
    }

    #[test]
    fn root_covers_geometry_content_and_count() {
        let data = bytes(64);
        let base = PageManifest::compute(&data, 8);
        assert_eq!(base.root(), PageManifest::compute(&data, 8).root());
        // Different page size over identical bytes: different root.
        assert_ne!(base.root(), PageManifest::compute(&data, 16).root());
        // Any byte flip: different root.
        let mut flipped = data.clone();
        flipped[40] ^= 1;
        assert_ne!(base.root(), PageManifest::compute(&flipped, 8).root());
        // A truncated snapshot: different root (length is covered).
        assert_ne!(base.root(), PageManifest::compute(&data[..56], 8).root());
        // Empty snapshots at different page sizes do not alias.
        assert_ne!(
            PageManifest::compute(b"", 4).root(),
            PageManifest::compute(b"", 8).root()
        );
    }

    #[test]
    fn odd_page_counts_do_not_alias_even_trees() {
        // 3 pages vs 2 pages sharing a prefix: the promoted odd leaf must
        // not collide with a 2-leaf tree (count is root-covered).
        let d24 = bytes(24);
        let three = PageManifest::compute(&d24, 8);
        let two = PageManifest::compute(&d24[..16], 8);
        assert_ne!(three.root(), two.root());
        // 5 pages vs 4: same at the next level up.
        let d40 = bytes(40);
        assert_ne!(
            PageManifest::compute(&d40, 8).root(),
            PageManifest::compute(&d40[..32], 8).root()
        );
    }

    #[test]
    fn incremental_reuses_clean_page_digests() {
        let old = bytes(64);
        let mut new = old.clone();
        new[9] ^= 0xff; // dirties page 1 only
        let prev = PageManifest::compute(&old, 8);
        let (m, hashed, dirty) = PageManifest::compute_incremental(&new, 8, Some((&old, &prev)));
        assert_eq!((hashed, dirty), (1, 1), "only the touched page re-hashes");
        assert_eq!(m, PageManifest::compute(&new, 8), "digests are identical");
        // Growth: the new tail pages hash, the stable prefix does not.
        let mut grown = old.clone();
        grown.extend_from_slice(&bytes(16));
        let (g, hashed, dirty) = PageManifest::compute_incremental(&grown, 8, Some((&old, &prev)));
        assert_eq!((hashed, dirty), (2, 2));
        assert_eq!(g, PageManifest::compute(&grown, 8));
        // A page-size change forces a full rehash.
        let (_, hashed, _) = PageManifest::compute_incremental(&new, 16, Some((&old, &prev)));
        assert_eq!(hashed, 4);
        // No previous snapshot: everything hashes.
        let (_, hashed, dirty) = PageManifest::compute_incremental(&new, 8, None);
        assert_eq!((hashed, dirty), (8, 8));
    }

    #[test]
    fn incremental_rehashes_only_the_path_above_a_dirty_page() {
        let old = bytes(512); // 64 pages of 8 bytes
        let prev = PageManifest::compute(&old, 8);
        let mut new = old.clone();
        new[300] ^= 1; // dirties page 37
        let before = pws_crypto::sha256::compressions();
        let (m, _, _) = PageManifest::compute_incremental(&new, 8, Some((&old, &prev)));
        let spent = pws_crypto::sha256::compressions() - before;
        // One page digest (1 block), six interior nodes on its path to the
        // top (2 blocks each) and the sealed root (2 blocks).
        assert_eq!(spent, 1 + 6 * 2 + 2);
        assert_eq!(m, PageManifest::compute(&new, 8));
    }

    #[test]
    fn codec_roundtrip_and_prefix_truncation() {
        let m = PageManifest::compute(&bytes(100), 16);
        let mut e = Encoder::new();
        m.encode_into(&mut e);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        let back = PageManifest::decode_from(&mut d, MAX_WIRE_PAGES).unwrap();
        d.finish().unwrap();
        assert_eq!(back, m, "root recomputes identically");
        for cut in 0..buf.len() {
            let mut d = Decoder::new(&buf[..cut]);
            let r = PageManifest::decode_from(&mut d, MAX_WIRE_PAGES).and_then(|_| d.finish());
            assert!(r.is_err(), "cut={cut}");
        }
    }

    #[test]
    fn codec_rejects_inconsistent_geometry() {
        // Count not matching ceil(total_len / page_size).
        let mut e = Encoder::new();
        e.put_u32(8);
        e.put_u64(100);
        e.put_u32(5); // should be 13
        let buf = e.finish();
        assert!(PageManifest::decode_from(&mut Decoder::new(&buf), MAX_WIRE_PAGES).is_err());
        // Zero page size.
        let mut e = Encoder::new();
        e.put_u32(0);
        e.put_u64(0);
        e.put_u32(0);
        let buf = e.finish();
        assert!(PageManifest::decode_from(&mut Decoder::new(&buf), MAX_WIRE_PAGES).is_err());
        // Count over the decode cap.
        let mut e = Encoder::new();
        e.put_u32(1);
        e.put_u64(u64::MAX);
        e.put_u32(u32::MAX);
        let buf = e.finish();
        assert!(PageManifest::decode_from(&mut Decoder::new(&buf), MAX_WIRE_PAGES).is_err());
    }

    #[test]
    fn counters_drain_to_zero() {
        let mut c = PageCounters {
            hashed: 1,
            dirty: 2,
            fetched: 3,
            verified: 4,
            rejected: 5,
        };
        let d = c.take();
        assert_eq!(d.rejected, 5);
        assert_eq!(c, PageCounters::default());
    }

    proptest! {
        #[test]
        fn incremental_manifest_equals_a_full_rebuild(
            old in proptest::collection::vec(any::<u8>(), 0..400),
            edits in proptest::collection::vec(any::<u64>(), 0..6),
            resize in 0usize..480,
            ps in 1u32..24) {
            let prev = PageManifest::compute(&old, ps);
            let mut new = old.clone();
            new.resize(resize, 7);
            for edit in edits {
                if !new.is_empty() {
                    let i = (edit >> 8) as usize % new.len();
                    new[i] ^= edit as u8 | 1;
                }
            }
            let (m, _, _) = PageManifest::compute_incremental(&new, ps, Some((&old, &prev)));
            prop_assert_eq!(m, PageManifest::compute(&new, ps));
        }

        #[test]
        fn manifest_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..512),
                              ps in 1u32..64) {
            let m = PageManifest::compute(&data, ps);
            let mut e = Encoder::new();
            m.encode_into(&mut e);
            let buf = e.finish();
            let mut d = Decoder::new(&buf);
            let back = PageManifest::decode_from(&mut d, MAX_WIRE_PAGES).unwrap();
            d.finish().unwrap();
            prop_assert_eq!(back, m);
        }

        #[test]
        fn every_page_verifies_and_corruption_never_aliases(
            data in proptest::collection::vec(any::<u8>(), 1..256),
            ps in 1u32..32, flip in any::<usize>()) {
            let m = PageManifest::compute(&data, ps);
            let ps_u = ps as usize;
            for i in 0..m.len() {
                let page = &data[i * ps_u..data.len().min((i + 1) * ps_u)];
                prop_assert!(m.verify_page(i, page));
            }
            // Flip one byte anywhere: its page must stop verifying.
            let pos = flip % data.len();
            let mut bad = data.clone();
            bad[pos] ^= 0xff;
            let i = pos / ps_u;
            prop_assert!(!m.verify_page(i, &bad[i * ps_u..data.len().min((i + 1) * ps_u)]));
            prop_assert_ne!(m.root(), PageManifest::compute(&bad, ps).root());
        }

        #[test]
        fn arbitrary_bytes_never_panic_manifest(data in proptest::collection::vec(any::<u8>(), 0..128)) {
            let mut d = Decoder::new(&data);
            let _ = PageManifest::decode_from(&mut d, MAX_WIRE_PAGES);
        }
    }
}
