//! A hand-rolled, dependency-free binary codec for CLBFT messages.
//!
//! The format is length-prefixed and tag-discriminated; it exists so the
//! voter layer can ship CLBFT messages over `pws-simnet` as opaque bytes
//! without pulling a serialization framework into the digest-stable wire
//! path.

use crate::messages::{
    Batch, CheckpointMsg, CommitMsg, FetchPagesMsg, FetchStateMsg, Msg, NewViewMsg,
    PageResponseMsg, PrePrepareMsg, PrepareMsg, PreparedClaim, Request, RequestId,
    StateResponseMsg, SuffixSlot, ViewChangeMsg,
};
use crate::pages::{PageManifest, MAX_WIRE_PAGES, MAX_WIRE_PAGE_RESPONSE};
use crate::{ReplicaId, Seq, View};
use bytes::{Bytes, BytesMut};
use pws_crypto::sha256::Digest32;
use std::fmt;

/// Error produced when decoding malformed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    what: &'static str,
}

impl WireError {
    fn new(what: &'static str) -> Self {
        WireError { what }
    }

    /// A malformed-input error with an explicit cause, for codecs layered
    /// on [`Encoder`]/[`Decoder`] outside this crate (snapshot formats).
    pub fn malformed(what: &'static str) -> Self {
        WireError::new(what)
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed clbft message: {}", self.what)
    }
}

impl std::error::Error for WireError {}

/// An append-only encoder.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A fresh encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string (the bytes of
    /// [`Encoder::put_bytes`]).
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Appends a 32-byte digest.
    pub fn put_digest(&mut self, d: &Digest32) {
        self.buf.extend_from_slice(d.as_bytes());
    }

    /// Finishes, returning the encoded bytes.
    pub fn finish(self) -> Bytes {
        BytesMut::from(&self.buf[..]).freeze()
    }
}

/// A cursor-based decoder.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Wraps `buf` for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::new("truncated"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let s = self.take(4)?;
        Ok(u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let s = self.take(8)?;
        Ok(u64::from_be_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Bytes, WireError> {
        let len = self.u32()? as usize;
        if len > 64 * 1024 * 1024 {
            return Err(WireError::new("length prefix too large"));
        }
        Ok(Bytes::copy_from_slice(self.take(len)?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.bytes()?.to_vec()).map_err(|_| WireError::new("string is not UTF-8"))
    }

    /// Reads a 32-byte digest.
    pub fn digest(&mut self) -> Result<Digest32, WireError> {
        let s = self.take(32)?;
        let mut d = [0u8; 32];
        d.copy_from_slice(s);
        Ok(Digest32(d))
    }

    /// Fails unless the whole buffer was consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::new("trailing bytes"))
        }
    }
}

/// Reads a `u32`-count-prefixed sequence: a count past `cap` is rejected
/// with `err` before anything is allocated, the up-front allocation is
/// capped at 4 096 elements whatever count a peer claims, then `item`
/// decodes each element. The CLBFT, Perpetual and snapshot codecs read
/// their count-prefixed sequences through it, so the cap-then-read
/// discipline lives in one place.
///
/// # Errors
///
/// Returns `err()` for a count past `cap`, and whatever `item` or the
/// count read returns (a short buffer is `truncated`).
pub fn counted<T>(
    d: &mut Decoder<'_>,
    cap: usize,
    err: fn() -> WireError,
    mut item: impl FnMut(&mut Decoder<'_>) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let n = d.u32()? as usize;
    if n > cap {
        return Err(err());
    }
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        out.push(item(d)?);
    }
    Ok(out)
}

fn put_request(e: &mut Encoder, r: &Request) {
    e.put_u64(r.id().origin);
    e.put_u64(r.id().counter);
    e.put_u8(r.flags());
    e.put_bytes(r.payload());
}

fn get_request(d: &mut Decoder<'_>) -> Result<Request, WireError> {
    let origin = d.u64()?;
    let counter = d.u64()?;
    // Flag bitfield: bit 1 config; bit 0 is reserved-zero (reads never
    // become requests), so a plain request encodes byte 0 and a config
    // record byte 2. Anything else is rejected.
    let flags = d.u8()?;
    if flags & !2 != 0 {
        return Err(WireError::new("bad request flags"));
    }
    let payload = d.bytes()?;
    let id = RequestId::new(origin, counter);
    Ok(if flags & 2 != 0 {
        Request::config_record(id, payload)
    } else {
        Request::new(id, payload)
    })
}

/// Hard cap on the request count of one wire batch: far above any sane
/// [`crate::Config::max_batch_size`], low enough that a hostile count
/// prefix cannot drive a huge allocation.
const MAX_WIRE_BATCH: usize = 65_536;

fn put_batch(e: &mut Encoder, b: &Batch) {
    e.put_u32(b.requests.len() as u32);
    for r in &b.requests {
        put_request(e, r);
    }
}

fn get_batch(d: &mut Decoder<'_>) -> Result<Batch, WireError> {
    let requests = counted(
        d,
        MAX_WIRE_BATCH,
        || WireError::new("batch too large"),
        get_request,
    )?;
    Ok(Batch::new(requests))
}

fn put_pre_prepare(e: &mut Encoder, pp: &PrePrepareMsg) {
    e.put_u64(pp.view.0);
    e.put_u64(pp.seq.0);
    e.put_digest(&pp.digest);
    put_batch(e, &pp.batch);
}

fn get_pre_prepare(d: &mut Decoder<'_>) -> Result<PrePrepareMsg, WireError> {
    Ok(PrePrepareMsg {
        view: View(d.u64()?),
        seq: Seq(d.u64()?),
        digest: d.digest()?,
        batch: get_batch(d)?,
    })
}

const TAG_FORWARD: u8 = 1;
const TAG_PRE_PREPARE: u8 = 2;
const TAG_PREPARE: u8 = 3;
const TAG_COMMIT: u8 = 4;
const TAG_CHECKPOINT: u8 = 5;
const TAG_VIEW_CHANGE: u8 = 6;
const TAG_NEW_VIEW: u8 = 7;
const TAG_FETCH_STATE: u8 = 8;
const TAG_STATE_RESPONSE: u8 = 9;
const TAG_FETCH_PAGES: u8 = 10;
const TAG_PAGE_RESPONSE: u8 = 11;

/// Hard cap on the executed-set *wire entries* of one state response
/// (origins plus out-of-order residue counters; see
/// [`crate::ExecutedSet::wire_entries`]): bounds the allocation a hostile
/// count prefix can drive, like the wire batch cap. Public because honest
/// responders must also respect it — a dedup set past the cap cannot be
/// shipped and the responder stays silent rather than emit a frame no
/// fetcher would accept. With per-origin compaction the entry count is
/// O(origins + reorder residue), not O(executed requests), so honest sets
/// sit far below this cap for the lifetime of a deployment.
pub(crate) const MAX_WIRE_EXECUTED: usize = 1 << 20;

/// Hard cap on the prepared claims of one view-change vote.
const MAX_WIRE_PREPARED: usize = 100_000;

/// Hard cap on the voter list of one new-view message.
const MAX_WIRE_VOTERS: usize = 100_000;

/// Hard cap on the re-issued pre-prepares of one new-view message.
const MAX_WIRE_NEW_VIEW_PRE_PREPARES: usize = 1_000_000;

/// Hard cap on the log-suffix slot count of one state response: the suffix
/// spans at most a watermark window of slots in any honest response.
/// Public so responders can truncate an oversized suffix (safe: the
/// fetcher just lands earlier and re-fetches) instead of emitting an
/// undecodable frame.
pub(crate) const MAX_WIRE_SUFFIX: usize = 65_536;

/// Encodes a CLBFT message.
pub fn encode_msg(msg: &Msg) -> Bytes {
    let mut e = Encoder::new();
    match msg {
        Msg::Forward(r) => {
            e.put_u8(TAG_FORWARD);
            put_request(&mut e, r);
        }
        Msg::PrePrepare(pp) => {
            e.put_u8(TAG_PRE_PREPARE);
            put_pre_prepare(&mut e, pp);
        }
        Msg::Prepare(p) => {
            e.put_u8(TAG_PREPARE);
            e.put_u64(p.view.0);
            e.put_u64(p.seq.0);
            e.put_digest(&p.digest);
            e.put_u32(p.replica.0);
        }
        Msg::Commit(c) => {
            e.put_u8(TAG_COMMIT);
            e.put_u64(c.view.0);
            e.put_u64(c.seq.0);
            e.put_digest(&c.digest);
            e.put_u32(c.replica.0);
        }
        Msg::Checkpoint(c) => {
            e.put_u8(TAG_CHECKPOINT);
            e.put_u64(c.seq.0);
            e.put_digest(&c.state_digest);
            e.put_u32(c.replica.0);
        }
        Msg::ViewChange(vc) => {
            e.put_u8(TAG_VIEW_CHANGE);
            e.put_u64(vc.new_view.0);
            e.put_u64(vc.stable_seq.0);
            e.put_digest(&vc.stable_digest);
            e.put_u32(vc.prepared.len() as u32);
            for c in &vc.prepared {
                e.put_u64(c.view.0);
                e.put_u64(c.seq.0);
                e.put_digest(&c.digest);
                put_batch(&mut e, &c.batch);
            }
            e.put_u32(vc.replica.0);
        }
        Msg::NewView(nv) => {
            e.put_u8(TAG_NEW_VIEW);
            e.put_u64(nv.view.0);
            e.put_u32(nv.voters.len() as u32);
            for v in &nv.voters {
                e.put_u32(v.0);
            }
            e.put_u32(nv.pre_prepares.len() as u32);
            for pp in &nv.pre_prepares {
                put_pre_prepare(&mut e, pp);
            }
            e.put_u32(nv.replica.0);
        }
        Msg::FetchState(fs) => {
            e.put_u8(TAG_FETCH_STATE);
            e.put_u64(fs.have.0);
            e.put_u32(fs.replica.0);
        }
        Msg::StateResponse(sr) => {
            e.put_u8(TAG_STATE_RESPONSE);
            e.put_u64(sr.seq.0);
            e.put_u64(sr.view.0);
            e.put_digest(&sr.exec_chain);
            sr.manifest.encode_into(&mut e);
            sr.executed.encode_into(&mut e);
            e.put_u32(sr.suffix.len() as u32);
            for slot in &sr.suffix {
                e.put_u64(slot.seq.0);
                put_batch(&mut e, &slot.batch);
            }
            e.put_u32(sr.replica.0);
        }
        Msg::FetchPages(fp) => {
            e.put_u8(TAG_FETCH_PAGES);
            e.put_u64(fp.seq.0);
            e.put_u32(fp.first);
            e.put_u32(fp.count);
            e.put_u32(fp.replica.0);
        }
        Msg::PageResponse(pr) => {
            e.put_u8(TAG_PAGE_RESPONSE);
            e.put_u64(pr.seq.0);
            e.put_u32(pr.first);
            e.put_u32(pr.pages.len() as u32);
            for p in &pr.pages {
                e.put_bytes(p);
            }
            e.put_u32(pr.replica.0);
        }
    }
    e.finish()
}

/// Decodes a CLBFT message.
///
/// # Errors
///
/// Returns [`WireError`] for truncated, oversized, or unknown-tag input.
pub fn decode_msg(buf: &[u8]) -> Result<Msg, WireError> {
    let mut d = Decoder::new(buf);
    let tag = d.u8()?;
    let msg = match tag {
        TAG_FORWARD => Msg::Forward(get_request(&mut d)?),
        TAG_PRE_PREPARE => Msg::PrePrepare(get_pre_prepare(&mut d)?),
        TAG_PREPARE => Msg::Prepare(PrepareMsg {
            view: View(d.u64()?),
            seq: Seq(d.u64()?),
            digest: d.digest()?,
            replica: ReplicaId(d.u32()?),
        }),
        TAG_COMMIT => Msg::Commit(CommitMsg {
            view: View(d.u64()?),
            seq: Seq(d.u64()?),
            digest: d.digest()?,
            replica: ReplicaId(d.u32()?),
        }),
        TAG_CHECKPOINT => Msg::Checkpoint(CheckpointMsg {
            seq: Seq(d.u64()?),
            state_digest: d.digest()?,
            replica: ReplicaId(d.u32()?),
        }),
        TAG_VIEW_CHANGE => {
            let new_view = View(d.u64()?);
            let stable_seq = Seq(d.u64()?);
            let stable_digest = d.digest()?;
            let prepared = counted(
                &mut d,
                MAX_WIRE_PREPARED,
                || WireError::new("too many prepared claims"),
                |d| {
                    Ok(PreparedClaim {
                        view: View(d.u64()?),
                        seq: Seq(d.u64()?),
                        digest: d.digest()?,
                        batch: get_batch(d)?,
                    })
                },
            )?;
            Msg::ViewChange(ViewChangeMsg {
                new_view,
                stable_seq,
                stable_digest,
                prepared,
                replica: ReplicaId(d.u32()?),
            })
        }
        TAG_NEW_VIEW => {
            let view = View(d.u64()?);
            let voters = counted(
                &mut d,
                MAX_WIRE_VOTERS,
                || WireError::new("too many voters"),
                |d| Ok(ReplicaId(d.u32()?)),
            )?;
            let pre_prepares = counted(
                &mut d,
                MAX_WIRE_NEW_VIEW_PRE_PREPARES,
                || WireError::new("too many pre-prepares"),
                get_pre_prepare,
            )?;
            Msg::NewView(NewViewMsg {
                view,
                voters,
                pre_prepares,
                replica: ReplicaId(d.u32()?),
            })
        }
        TAG_FETCH_STATE => Msg::FetchState(FetchStateMsg {
            have: Seq(d.u64()?),
            replica: ReplicaId(d.u32()?),
        }),
        TAG_STATE_RESPONSE => {
            let seq = Seq(d.u64()?);
            let view = View(d.u64()?);
            let exec_chain = d.digest()?;
            let manifest = PageManifest::decode_from(&mut d, MAX_WIRE_PAGES)?;
            let executed = crate::ExecutedSet::decode_from(&mut d, MAX_WIRE_EXECUTED)?;
            let suffix = counted(
                &mut d,
                MAX_WIRE_SUFFIX,
                || WireError::new("suffix too large"),
                |d| {
                    Ok(SuffixSlot {
                        seq: Seq(d.u64()?),
                        batch: get_batch(d)?,
                    })
                },
            )?;
            Msg::StateResponse(StateResponseMsg {
                seq,
                view,
                exec_chain,
                manifest,
                executed,
                suffix,
                replica: ReplicaId(d.u32()?),
            })
        }
        TAG_FETCH_PAGES => Msg::FetchPages(FetchPagesMsg {
            seq: Seq(d.u64()?),
            first: d.u32()?,
            count: d.u32()?,
            replica: ReplicaId(d.u32()?),
        }),
        TAG_PAGE_RESPONSE => {
            let seq = Seq(d.u64()?);
            let first = d.u32()?;
            // Decode cap only: the protocol cap (MAX_PAGES_PER_FETCH) is
            // enforced — and *counted* — by the fetch state machine, so an
            // over-cap-but-decodable response is observable misbehavior,
            // not a silent codec drop.
            let pages = counted(
                &mut d,
                MAX_WIRE_PAGE_RESPONSE,
                || WireError::new("too many response pages"),
                |d| d.bytes(),
            )?;
            Msg::PageResponse(PageResponseMsg {
                seq,
                first,
                pages,
                replica: ReplicaId(d.u32()?),
            })
        }
        _ => return Err(WireError::new("unknown tag")),
    };
    d.finish()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_request(c: u64) -> Request {
        Request::new(RequestId::new(3, c), Bytes::from(vec![c as u8; 5]))
    }

    fn roundtrip(m: Msg) {
        let bytes = encode_msg(&m);
        let back = decode_msg(&bytes).expect("decode");
        assert_eq!(m, back);
    }

    #[test]
    fn roundtrip_all_variants() {
        roundtrip(Msg::Forward(sample_request(1)));
        let batch = Batch::new(vec![sample_request(1), sample_request(2)]);
        let pp = PrePrepareMsg {
            view: View(2),
            seq: Seq(9),
            digest: batch.digest(),
            batch,
        };
        roundtrip(Msg::PrePrepare(pp.clone()));
        // Null (gap-filling) batches also round-trip.
        roundtrip(Msg::PrePrepare(PrePrepareMsg {
            view: View(3),
            seq: Seq(10),
            digest: Batch::null().digest(),
            batch: Batch::null(),
        }));
        roundtrip(Msg::Prepare(PrepareMsg {
            view: View(2),
            seq: Seq(9),
            digest: sample_request(1).digest(),
            replica: ReplicaId(3),
        }));
        roundtrip(Msg::Commit(CommitMsg {
            view: View(2),
            seq: Seq(9),
            digest: sample_request(1).digest(),
            replica: ReplicaId(3),
        }));
        roundtrip(Msg::Checkpoint(CheckpointMsg {
            seq: Seq(64),
            state_digest: sample_request(2).digest(),
            replica: ReplicaId(1),
        }));
        roundtrip(Msg::ViewChange(ViewChangeMsg {
            new_view: View(4),
            stable_seq: Seq(64),
            stable_digest: sample_request(2).digest(),
            prepared: vec![PreparedClaim {
                view: View(3),
                seq: Seq(65),
                digest: Batch::of(sample_request(3)).digest(),
                batch: Batch::of(sample_request(3)),
            }],
            replica: ReplicaId(2),
        }));
        roundtrip(Msg::NewView(NewViewMsg {
            view: View(4),
            voters: vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)],
            pre_prepares: vec![pp],
            replica: ReplicaId(0),
        }));
        roundtrip(Msg::FetchState(FetchStateMsg {
            have: Seq(64),
            replica: ReplicaId(3),
        }));
        roundtrip(Msg::StateResponse(StateResponseMsg {
            seq: Seq(64),
            view: View(2),
            exec_chain: sample_request(1).digest(),
            manifest: PageManifest::compute(b"app-state", 4),
            executed: [
                RequestId::new(3, 0),
                RequestId::new(3, 1),
                RequestId::new(3, 5),
                RequestId::new(0xFEED, 9),
            ]
            .into_iter()
            .collect(),
            suffix: vec![SuffixSlot {
                seq: Seq(65),
                batch: Batch::of(sample_request(4)),
            }],
            replica: ReplicaId(1),
        }));
        roundtrip(Msg::FetchPages(FetchPagesMsg {
            seq: Seq(64),
            first: 3,
            count: 5,
            replica: ReplicaId(2),
        }));
        roundtrip(Msg::PageResponse(PageResponseMsg {
            seq: Seq(64),
            first: 3,
            pages: vec![Bytes::from_static(b"page"), Bytes::new()],
            replica: ReplicaId(0),
        }));
    }

    #[test]
    fn oversized_state_response_counts_rejected() {
        let chain = sample_request(1).digest();
        for (ranged_count, singles_count, suffix_count, what) in [
            (
                (MAX_WIRE_EXECUTED + 1) as u32,
                0,
                0,
                "executed set too large",
            ),
            (
                0,
                (MAX_WIRE_EXECUTED + 1) as u32,
                0,
                "executed set too large",
            ),
            (0, 0, (MAX_WIRE_SUFFIX + 1) as u32, "suffix too large"),
        ] {
            let mut e = Encoder::new();
            e.put_u8(TAG_STATE_RESPONSE);
            e.put_u64(64); // seq
            e.put_u64(0); // view
            e.put_digest(&chain);
            PageManifest::compute(b"snap", 4).encode_into(&mut e);
            e.put_u32(ranged_count); // executed-set ranged section
            e.put_u32(singles_count); // executed-set singleton section
            e.put_u32(suffix_count);
            let err = decode_msg(&e.finish()).unwrap_err();
            assert!(err.to_string().contains(what), "{err}");
        }
    }

    /// Every count-prefixed field of a CLBFT frame: one element past its
    /// cap fails naming the field, before any element is read, and exactly
    /// the cap with no elements behind it fails as `truncated`.
    #[test]
    fn every_count_prefix_is_capped() {
        let chain = sample_request(1).digest();
        let state_response = |e: &mut Encoder| {
            e.put_u8(TAG_STATE_RESPONSE);
            e.put_u64(64); // seq
            e.put_u64(0); // view
            e.put_digest(&chain);
        };
        let manifest = |e: &mut Encoder| {
            state_response(e);
            PageManifest::compute(b"snap", 4).encode_into(e);
        };
        type Frame<'a> = &'a dyn Fn(&mut Encoder, u32);
        let cases: [(&str, usize, Frame<'_>); 9] = [
            ("batch too large", MAX_WIRE_BATCH, &|e, n| {
                e.put_u8(TAG_PRE_PREPARE);
                e.put_u64(0); // view
                e.put_u64(1); // seq
                e.put_digest(&chain);
                e.put_u32(n);
            }),
            ("too many prepared claims", MAX_WIRE_PREPARED, &|e, n| {
                e.put_u8(TAG_VIEW_CHANGE);
                e.put_u64(1); // new view
                e.put_u64(0); // stable seq
                e.put_digest(&chain);
                e.put_u32(n);
            }),
            ("too many voters", MAX_WIRE_VOTERS, &|e, n| {
                e.put_u8(TAG_NEW_VIEW);
                e.put_u64(1); // view
                e.put_u32(n);
            }),
            (
                "too many pre-prepares",
                MAX_WIRE_NEW_VIEW_PRE_PREPARES,
                &|e, n| {
                    e.put_u8(TAG_NEW_VIEW);
                    e.put_u64(1); // view
                    e.put_u32(0); // voters
                    e.put_u32(n);
                },
            ),
            ("too many pages", MAX_WIRE_PAGES, &|e, n| {
                state_response(e);
                e.put_u32(1); // page size
                e.put_u64(u64::from(n)); // total length: n one-byte pages
                e.put_u32(n);
            }),
            ("executed set too large", MAX_WIRE_EXECUTED, &|e, n| {
                manifest(e);
                e.put_u32(n); // ranged section
            }),
            ("executed set too large", MAX_WIRE_EXECUTED, &|e, n| {
                manifest(e);
                e.put_u32(0); // ranged section
                e.put_u32(n); // singleton section
            }),
            ("suffix too large", MAX_WIRE_SUFFIX, &|e, n| {
                manifest(e);
                e.put_u32(0); // ranged section
                e.put_u32(0); // singleton section
                e.put_u32(n);
            }),
            (
                "too many response pages",
                MAX_WIRE_PAGE_RESPONSE,
                &|e, n| {
                    e.put_u8(TAG_PAGE_RESPONSE);
                    e.put_u64(64); // seq
                    e.put_u32(0); // first
                    e.put_u32(n);
                },
            ),
        ];
        for (what, cap, frame) in cases {
            for (n, expect) in [(cap + 1, what), (cap, "truncated")] {
                let mut e = Encoder::new();
                frame(&mut e, n as u32);
                let err = decode_msg(&e.finish()).unwrap_err();
                assert!(err.to_string().contains(expect), "{what}, count {n}: {err}");
            }
        }
    }

    #[test]
    fn oversized_or_inconsistent_state_response_manifest_rejected() {
        let chain = sample_request(1).digest();
        // Page count past the wire cap.
        let mut e = Encoder::new();
        e.put_u8(TAG_STATE_RESPONSE);
        e.put_u64(64);
        e.put_u64(0);
        e.put_digest(&chain);
        e.put_u32(1); // page_size
        e.put_u64(u64::MAX); // total_len
        e.put_u32(u32::MAX); // absurd page count
        let err = decode_msg(&e.finish()).unwrap_err();
        assert!(err.to_string().contains("too many pages"), "{err}");
        // Page count inconsistent with the claimed length.
        let mut e = Encoder::new();
        e.put_u8(TAG_STATE_RESPONSE);
        e.put_u64(64);
        e.put_u64(0);
        e.put_digest(&chain);
        e.put_u32(4); // page_size
        e.put_u64(100); // total_len => 25 pages
        e.put_u32(2); // but only 2 claimed
        e.put_digest(&chain);
        e.put_digest(&chain);
        let err = decode_msg(&e.finish()).unwrap_err();
        assert!(err.to_string().contains("mismatch"), "{err}");
    }

    #[test]
    fn oversized_page_response_count_rejected() {
        let mut e = Encoder::new();
        e.put_u8(TAG_PAGE_RESPONSE);
        e.put_u64(64); // seq
        e.put_u32(0); // first
        e.put_u32((MAX_WIRE_PAGE_RESPONSE + 1) as u32);
        let err = decode_msg(&e.finish()).unwrap_err();
        assert!(err.to_string().contains("too many response pages"), "{err}");
    }

    #[test]
    fn truncated_page_frames_rejected() {
        // Every proper prefix of both new frames must fail to decode.
        let fp = encode_msg(&Msg::FetchPages(FetchPagesMsg {
            seq: Seq(64),
            first: 1,
            count: 2,
            replica: ReplicaId(3),
        }));
        for cut in 0..fp.len() {
            assert!(decode_msg(&fp[..cut]).is_err(), "fetch-pages cut={cut}");
        }
        let pr = encode_msg(&Msg::PageResponse(PageResponseMsg {
            seq: Seq(64),
            first: 1,
            pages: vec![Bytes::from_static(b"abcd"), Bytes::from_static(b"efgh")],
            replica: ReplicaId(3),
        }));
        for cut in 0..pr.len() {
            assert!(decode_msg(&pr[..cut]).is_err(), "page-response cut={cut}");
        }
        // And every prefix of a manifest-bearing state response.
        let sr = encode_msg(&Msg::StateResponse(StateResponseMsg {
            seq: Seq(64),
            view: View(0),
            exec_chain: sample_request(1).digest(),
            manifest: PageManifest::compute(&[7u8; 33], 8),
            executed: [RequestId::new(1, 1)].into_iter().collect(),
            suffix: vec![],
            replica: ReplicaId(2),
        }));
        for cut in 0..sr.len() {
            assert!(decode_msg(&sr[..cut]).is_err(), "state-response cut={cut}");
        }
    }

    #[test]
    fn rejects_malformed() {
        assert!(decode_msg(&[]).is_err());
        assert!(decode_msg(&[99]).is_err(), "unknown tag");
        assert!(decode_msg(&[TAG_PREPARE, 0, 1]).is_err(), "truncated");
        // Trailing bytes rejected.
        let mut bytes = encode_msg(&Msg::Forward(sample_request(1))).to_vec();
        bytes.push(0);
        assert!(decode_msg(&bytes).is_err());
    }

    #[test]
    fn oversized_batch_count_rejected() {
        let mut e = Encoder::new();
        e.put_u8(TAG_PRE_PREPARE);
        e.put_u64(0); // view
        e.put_u64(1); // seq
        e.put_digest(&Batch::null().digest());
        e.put_u32((MAX_WIRE_BATCH + 1) as u32); // absurd request count
        let bytes = e.finish();
        let err = decode_msg(&bytes).unwrap_err();
        assert!(err.to_string().contains("batch too large"));
    }

    #[test]
    fn truncated_batch_rejected() {
        let batch = Batch::new(vec![sample_request(1), sample_request(2)]);
        let full = encode_msg(&Msg::PrePrepare(PrePrepareMsg {
            view: View(0),
            seq: Seq(1),
            digest: batch.digest(),
            batch,
        }));
        // Every proper prefix must fail to decode (the count promises more
        // requests than the frame carries).
        for cut in 1..full.len() {
            assert!(decode_msg(&full[..cut]).is_err(), "prefix len {cut}");
        }
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut e = Encoder::new();
        e.put_u8(TAG_FORWARD);
        e.put_u64(1);
        e.put_u64(2);
        e.put_u32(u32::MAX); // absurd length prefix
        let mut bytes = e.finish().to_vec();
        bytes.extend_from_slice(&[0; 16]);
        assert!(decode_msg(&bytes).is_err());
    }

    /// The decode error of a `Forward` frame whose request has `flags`.
    fn forward_flags_error(flags: u8) -> String {
        let mut e = Encoder::new();
        e.put_u8(TAG_FORWARD);
        e.put_u64(1);
        e.put_u64(2);
        e.put_u8(flags);
        e.put_bytes(b"x");
        decode_msg(&e.finish()).unwrap_err().to_string()
    }

    #[test]
    fn junk_request_flags_rejected() {
        // Only bit 1 (config) is defined.
        assert!(forward_flags_error(4).contains("request flags"));
    }

    #[test]
    fn reserved_request_flag_bit_zero_rejected() {
        // No honest encoder sets bit 0, alone or beside the config bit.
        assert!(forward_flags_error(1).contains("request flags"));
        assert!(forward_flags_error(3).contains("request flags"));
    }

    #[test]
    fn config_flag_roundtrips_and_plain_frames_stay_byte_identical() {
        roundtrip(Msg::Forward(Request::config_record(
            RequestId::new(5, 11),
            Bytes::from_static(b"cfg"),
        )));
        // Plain requests keep encoding flag byte 0, so frames without
        // config records are unchanged on the wire.
        let plain = Msg::Forward(sample_request(1));
        let mut e = Encoder::new();
        e.put_u8(TAG_FORWARD);
        e.put_u64(3);
        e.put_u64(1);
        e.put_u8(0);
        e.put_bytes(&[1u8; 5]);
        assert_eq!(encode_msg(&plain), e.finish());
    }

    #[test]
    fn wire_error_displays() {
        let err = decode_msg(&[]).unwrap_err();
        assert!(err.to_string().contains("malformed"));
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_msg(&data);
        }

        #[test]
        fn forward_roundtrip(origin in any::<u64>(), counter in any::<u64>(),
                             payload in proptest::collection::vec(any::<u8>(), 0..128)) {
            let m = Msg::Forward(Request::new(RequestId::new(origin, counter), Bytes::from(payload)));
            let back = decode_msg(&encode_msg(&m)).unwrap();
            prop_assert_eq!(m, back);
        }

        #[test]
        fn fetch_pages_roundtrip(seq in any::<u64>(), first in any::<u32>(),
                                 count in any::<u32>(), replica in any::<u32>()) {
            let m = Msg::FetchPages(FetchPagesMsg {
                seq: Seq(seq), first, count, replica: ReplicaId(replica),
            });
            prop_assert_eq!(decode_msg(&encode_msg(&m)).unwrap(), m);
        }

        #[test]
        fn page_response_roundtrip(seq in any::<u64>(), first in any::<u32>(),
                                   pages in proptest::collection::vec(
                                       proptest::collection::vec(any::<u8>(), 0..64), 0..8)) {
            let m = Msg::PageResponse(PageResponseMsg {
                seq: Seq(seq),
                first,
                pages: pages.into_iter().map(Bytes::from).collect(),
                replica: ReplicaId(1),
            });
            prop_assert_eq!(decode_msg(&encode_msg(&m)).unwrap(), m);
        }

        #[test]
        fn state_response_manifest_roundtrip(
            snapshot in proptest::collection::vec(any::<u8>(), 0..256),
            ps in 1u32..32) {
            let m = Msg::StateResponse(StateResponseMsg {
                seq: Seq(64),
                view: View(1),
                exec_chain: Digest32::ZERO,
                manifest: PageManifest::compute(&snapshot, ps),
                executed: [RequestId::new(2, 1)].into_iter().collect(),
                suffix: vec![],
                replica: ReplicaId(0),
            });
            prop_assert_eq!(decode_msg(&encode_msg(&m)).unwrap(), m);
        }
    }
}
