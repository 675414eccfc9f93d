//! Inter-node messages of the Perpetual protocol and their wire codec.

use crate::event::{get_share, put_share, shares_err, Event, MAX_WIRE_SHARES};
use crate::group::GroupId;
use bytes::Bytes;
use pws_clbft::wire::{counted, Decoder, Encoder, WireError};
use pws_crypto::auth::BundleShare;
use pws_crypto::sha256::Digest32;
use std::collections::{BTreeSet, HashMap};

/// Canonical byte tag naming a call, MACed inside bundle shares.
pub fn request_tag(caller: GroupId, req_no: u64) -> [u8; 12] {
    let mut tag = [0u8; 12];
    tag[..4].copy_from_slice(&caller.0.to_be_bytes());
    tag[4..].copy_from_slice(&req_no.to_be_bytes());
    tag
}

/// Reply shares gathered toward one quorum — by a responder building a
/// bundle, or by a caller tallying fast-path read replies — filed by reply
/// digest. One counted vote per target replica: a Byzantine replica
/// spraying conflicting replies burns its single vote, so it can neither
/// reach a quorum alone nor grow the table beyond `n_t` entries.
#[derive(Debug, Default)]
pub(crate) struct ShareVotes {
    voted: BTreeSet<u32>,
    by_digest: HashMap<Digest32, (Bytes, Vec<BundleShare>)>,
}

impl ShareVotes {
    /// Counts `replica`'s one vote; `false` if it has voted before. Called
    /// before any MAC work, so a flood costs the receiver nothing.
    pub(crate) fn vote(&mut self, replica: u32) -> bool {
        self.voted.insert(replica)
    }

    /// Files a counted voter's share under the digest it vouches for and
    /// returns how many shares now agree on it.
    pub(crate) fn add(&mut self, payload: Bytes, share: BundleShare) -> usize {
        let (_, shares) = self
            .by_digest
            .entry(share.reply_digest)
            .or_insert_with(|| (payload, Vec::new()));
        shares.push(share);
        shares.len()
    }

    /// Whether `payload` is byte-for-byte the payload already filed under
    /// `digest` — then it is consistent with `digest` without hashing it.
    pub(crate) fn holds(&self, digest: &Digest32, payload: &[u8]) -> bool {
        self.by_digest
            .get(digest)
            .is_some_and(|(p, _)| p.as_ref() == payload)
    }

    /// The replicas whose vote is counted, ascending.
    #[cfg(test)]
    pub(crate) fn voters(&self) -> Vec<u32> {
        self.voted.iter().copied().collect()
    }

    /// The payload and the shares filed under `digest`.
    pub(crate) fn take(mut self, digest: &Digest32) -> Option<(Bytes, Vec<BundleShare>)> {
        self.by_digest.remove(digest)
    }
}

/// A message between Perpetual nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum PMsg {
    /// Intra-group CLBFT traffic (opaque `pws_clbft::wire` bytes).
    Bft(Bytes),
    /// Stage 1: a calling driver submits an outcall to the target voters.
    /// The payload is the full canonical [`Event::External`].
    OutRequest(Event),
    /// Stage 5: a target voter forwards its reply share to the responder.
    ReplyShare {
        /// The calling group.
        caller: GroupId,
        /// The caller's call number.
        req_no: u64,
        /// The reply payload (the responder includes one copy in the bundle).
        payload: Bytes,
        /// This replica's MACs for every calling driver.
        share: BundleShare,
    },
    /// Stage 6: the responder forwards the reply bundle to every calling
    /// driver.
    ReplyBundle {
        /// The caller's call number.
        req_no: u64,
        /// The reply payload.
        payload: Bytes,
        /// Shares from distinct target replicas vouching for the payload.
        shares: Vec<BundleShare>,
    },
    /// Fast-path read: a caller asks every target replica to answer a
    /// read-only request directly from committed state, bypassing the
    /// ordered stages entirely.
    ReadRequest {
        /// The calling group.
        caller: GroupId,
        /// Size of the calling group (the share MACs every caller replica).
        caller_n: u32,
        /// The caller's call number. Reads share the caller's call-id space
        /// with ordered calls but consume no per-target sequence number —
        /// they are never ordered, so never deduplicated.
        req_no: u64,
        /// Application payload.
        payload: Bytes,
    },
    /// Fast-path read answer: one target replica's reply, sent straight
    /// back to the asking node. The caller accepts the result only once
    /// `2f_t + 1` replicas return matching payloads.
    ReadReply {
        /// The caller's call number.
        req_no: u64,
        /// The reply payload.
        payload: Bytes,
        /// This replica's MACed vouching share (same construction as the
        /// ordered path, so a read result can be re-submitted as an
        /// [`Event::Result`] proof).
        share: BundleShare,
    },
}

const TAG_BFT: u8 = 1;
const TAG_OUT_REQUEST: u8 = 2;
const TAG_REPLY_SHARE: u8 = 3;
const TAG_REPLY_BUNDLE: u8 = 4;
const TAG_READ_REQUEST: u8 = 5;
const TAG_READ_REPLY: u8 = 6;

/// Encodes a Perpetual message.
pub fn encode_pmsg(msg: &PMsg) -> Bytes {
    let mut e = Encoder::new();
    match msg {
        PMsg::Bft(inner) => {
            e.put_u8(TAG_BFT);
            e.put_bytes(inner);
        }
        PMsg::OutRequest(ev) => {
            e.put_u8(TAG_OUT_REQUEST);
            e.put_bytes(&ev.encode());
        }
        PMsg::ReplyShare {
            caller,
            req_no,
            payload,
            share,
        } => {
            e.put_u8(TAG_REPLY_SHARE);
            e.put_u32(caller.0);
            e.put_u64(*req_no);
            e.put_bytes(payload);
            put_share(&mut e, share);
        }
        PMsg::ReplyBundle {
            req_no,
            payload,
            shares,
        } => {
            e.put_u8(TAG_REPLY_BUNDLE);
            e.put_u64(*req_no);
            e.put_bytes(payload);
            e.put_u32(shares.len() as u32);
            for s in shares {
                put_share(&mut e, s);
            }
        }
        PMsg::ReadRequest {
            caller,
            caller_n,
            req_no,
            payload,
        } => {
            e.put_u8(TAG_READ_REQUEST);
            e.put_u32(caller.0);
            e.put_u32(*caller_n);
            e.put_u64(*req_no);
            e.put_bytes(payload);
        }
        PMsg::ReadReply {
            req_no,
            payload,
            share,
        } => {
            e.put_u8(TAG_READ_REPLY);
            e.put_u64(*req_no);
            e.put_bytes(payload);
            put_share(&mut e, share);
        }
    }
    e.finish()
}

/// Decodes a Perpetual message.
///
/// # Errors
///
/// Returns [`WireError`] on malformed input.
pub fn decode_pmsg(buf: &[u8]) -> Result<PMsg, WireError> {
    let mut d = Decoder::new(buf);
    let tag = d.u8()?;
    let msg = match tag {
        TAG_BFT => PMsg::Bft(d.bytes()?),
        TAG_OUT_REQUEST => {
            let ev_bytes = d.bytes()?;
            PMsg::OutRequest(Event::decode(&ev_bytes)?)
        }
        TAG_REPLY_SHARE => PMsg::ReplyShare {
            caller: GroupId(d.u32()?),
            req_no: d.u64()?,
            payload: d.bytes()?,
            share: get_share(&mut d)?,
        },
        TAG_REPLY_BUNDLE => {
            let req_no = d.u64()?;
            let payload = d.bytes()?;
            let shares = counted(&mut d, MAX_WIRE_SHARES, shares_err, get_share)?;
            PMsg::ReplyBundle {
                req_no,
                payload,
                shares,
            }
        }
        TAG_READ_REQUEST => PMsg::ReadRequest {
            caller: GroupId(d.u32()?),
            caller_n: d.u32()?,
            req_no: d.u64()?,
            payload: d.bytes()?,
        },
        TAG_READ_REPLY => PMsg::ReadReply {
            req_no: d.u64()?,
            payload: d.bytes()?,
            share: get_share(&mut d)?,
        },
        _ => return Err(WireError::malformed("unknown message tag")),
    };
    d.finish()?;
    Ok(msg)
}

/// Reply digest a share vouches for: SHA-256 of the payload.
pub fn reply_digest(payload: &[u8]) -> Digest32 {
    pws_crypto::sha256(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use pws_crypto::keys::{KeyTable, Principal};

    fn sample_share(keys: &mut KeyTable, from_idx: u32) -> BundleShare {
        let callers: Vec<Principal> = (0..4).map(|i| Principal::new(1, i)).collect();
        BundleShare::build(
            keys,
            Principal::new(2, from_idx),
            &request_tag(GroupId(1), 7),
            reply_digest(b"the-reply"),
            &callers,
        )
    }

    #[test]
    fn roundtrip_all_variants() {
        let mut keys = KeyTable::new(1);
        let msgs = vec![
            PMsg::Bft(Bytes::from_static(b"opaque")),
            PMsg::OutRequest(Event::External {
                caller: GroupId(1),
                caller_n: 4,
                req_no: 7,
                target_seq: 5,
                responder: 0,
                timeout_ms: 0,
                payload: Bytes::from_static(b"op"),
            }),
            PMsg::ReplyShare {
                caller: GroupId(1),
                req_no: 7,
                payload: Bytes::from_static(b"the-reply"),
                share: sample_share(&mut keys, 0),
            },
            PMsg::ReplyBundle {
                req_no: 7,
                payload: Bytes::from_static(b"the-reply"),
                shares: vec![sample_share(&mut keys, 0), sample_share(&mut keys, 1)],
            },
            PMsg::ReadRequest {
                caller: GroupId(1),
                caller_n: 4,
                req_no: 8,
                payload: Bytes::from_static(b"browse"),
            },
            PMsg::ReadReply {
                req_no: 8,
                payload: Bytes::from_static(b"the-reply"),
                share: sample_share(&mut keys, 3),
            },
        ];
        for m in msgs {
            let bytes = encode_pmsg(&m);
            assert_eq!(decode_pmsg(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn shares_survive_the_wire_and_still_verify() {
        let mut keys = KeyTable::new(1);
        let m = PMsg::ReplyShare {
            caller: GroupId(1),
            req_no: 7,
            payload: Bytes::from_static(b"the-reply"),
            share: sample_share(&mut keys, 2),
        };
        let decoded = decode_pmsg(&encode_pmsg(&m)).unwrap();
        let PMsg::ReplyShare { share, .. } = decoded else {
            panic!("wrong variant");
        };
        assert!(share.verify(&mut keys, &request_tag(GroupId(1), 7), Principal::new(1, 3)));
        assert!(!share.verify(&mut keys, &request_tag(GroupId(1), 8), Principal::new(1, 3)));
    }

    /// Both count prefixes a `PMsg` carries itself, the shares of a reply
    /// bundle and the MAC entries of a reply share: one past the cap fails
    /// naming the field, exactly the cap with no elements behind it fails
    /// as `truncated`.
    #[test]
    fn every_count_prefix_is_capped() {
        type Frame<'a> = &'a dyn Fn(&mut Encoder, u32);
        let cases: [(&str, Frame<'_>); 2] = [
            ("too many shares", &|e, n| {
                e.put_u8(TAG_REPLY_BUNDLE);
                e.put_u64(7); // req_no
                e.put_bytes(b"reply");
                e.put_u32(n);
            }),
            ("too many MAC entries", &|e, n| {
                e.put_u8(TAG_REPLY_SHARE);
                e.put_u32(1); // caller
                e.put_u64(7); // req_no
                e.put_bytes(b"reply");
                e.put_u32(1); // share: from group
                e.put_u32(0); // share: from replica
                e.put_digest(&reply_digest(b"reply"));
                e.put_u32(n);
            }),
        ];
        for (what, frame) in cases {
            for (n, expect) in [(MAX_WIRE_SHARES + 1, what), (MAX_WIRE_SHARES, "truncated")] {
                let mut e = Encoder::new();
                frame(&mut e, n as u32);
                let err = decode_pmsg(&e.finish()).unwrap_err();
                assert!(err.to_string().contains(expect), "{what}, count {n}: {err}");
            }
        }
    }

    #[test]
    fn tag_is_unique_per_call() {
        assert_ne!(request_tag(GroupId(1), 7), request_tag(GroupId(1), 8));
        assert_ne!(request_tag(GroupId(1), 7), request_tag(GroupId(2), 7));
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..200)) {
            let _ = decode_pmsg(&data);
        }
    }
}
