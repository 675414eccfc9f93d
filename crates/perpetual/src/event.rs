//! Ordered events: the payloads the voter group agrees on.
//!
//! Perpetual voters run CLBFT over a single totally-ordered stream of
//! *events* per group: external requests from calling services, results of
//! the group's own outcalls, deterministic aborts, and time votes (paper
//! §2.1.1 and §4.2). Each event is canonically encoded into a
//! `pws_clbft::Request` so every correct voter derives an identical digest.

use crate::group::GroupId;
use bytes::Bytes;
use pws_clbft::wire::{counted, Decoder, Encoder, WireError};
use pws_clbft::{Request, RequestId};
use pws_crypto::auth::{Authenticator, BundleShare};
use pws_crypto::keys::Principal;
use pws_crypto::mac::Mac;
use pws_crypto::sha256::Digest32;

pub(crate) fn put_principal(e: &mut Encoder, p: &Principal) {
    e.put_u32(p.group);
    e.put_u32(p.replica);
}

pub(crate) fn get_principal(d: &mut Decoder<'_>) -> Result<Principal, WireError> {
    Ok(Principal::new(d.u32()?, d.u32()?))
}

pub(crate) fn put_share(e: &mut Encoder, s: &BundleShare) {
    put_principal(e, &s.from);
    e.put_digest(&s.reply_digest);
    let entries: Vec<_> = s.auth.entries().cloned().collect();
    e.put_u32(entries.len() as u32);
    for (p, mac) in &entries {
        put_principal(e, p);
        e.put_bytes(mac.as_bytes());
    }
}

pub(crate) fn get_share(d: &mut Decoder<'_>) -> Result<BundleShare, WireError> {
    let from = get_principal(d)?;
    let reply_digest = d.digest()?;
    let entries = counted(
        d,
        MAX_WIRE_SHARES,
        || WireError::malformed("too many MAC entries"),
        |d| {
            let p = get_principal(d)?;
            let raw = <[u8; 32]>::try_from(&d.bytes()?[..])
                .map_err(|_| WireError::malformed("bad MAC length"))?;
            Ok((p, Mac::from_bytes(raw)))
        },
    )?;
    Ok(BundleShare {
        from,
        reply_digest,
        auth: Authenticator::from_entries(entries),
    })
}

/// An event in a voter group's total order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A request from another service (Perpetual stages 1–3).
    External {
        /// The calling group.
        caller: GroupId,
        /// Size of the calling group (determines the `f_c + 1` threshold).
        caller_n: u32,
        /// Caller-assigned call number (unique within the caller group;
        /// keys reply routing and retransmits).
        req_no: u64,
        /// Caller-assigned *per-target* sequence number: dense within
        /// `(caller, target group)`, so it keys deduplication. A caller's
        /// global `req_no` stream is scattered across shards by key
        /// routing — using it for dedup would leave permanent holes in
        /// every shard's per-origin compaction ([`pws_clbft::ExecutedSet`]
        /// would degenerate to O(history)); the per-target counter stays
        /// contiguous at each receiving group by construction.
        target_seq: u64,
        /// Index of the target replica chosen as responder for the reply.
        responder: u32,
        /// Timeout the caller wants (0 = never abort).
        timeout_ms: u64,
        /// Application payload.
        payload: Bytes,
    },
    /// The validated result of one of this group's own outcalls
    /// (stages 7–9). The event carries the reply bundle's shares as an
    /// embedded proof, so *any* voter — not just the driver that received
    /// the bundle — can check `f_t + 1` target replicas vouch for the
    /// payload before agreeing to order it. This is what defeats a
    /// responder that equivocates between calling drivers.
    Result {
        /// Our call number.
        call_no: u64,
        /// Digest of the reply payload (what the bundle shares vouch for).
        digest: Digest32,
        /// The reply payload.
        payload: Bytes,
        /// Bundle shares proving `f_t + 1` target replicas produced
        /// `payload`.
        shares: Vec<BundleShare>,
    },
    /// Deterministic abort of an outcall whose timeout expired (§4.2).
    Abort {
        /// Our call number.
        call_no: u64,
    },
    /// An agreed wall-clock value for a `currentTimeMillis`/`timestamp`
    /// query (§4.2): the primary's suggestion wins the vote.
    TimeVote {
        /// Query token (unique per group).
        token: u64,
        /// The suggested milliseconds-since-epoch value.
        millis: u64,
    },
}

const EV_EXTERNAL: u8 = 1;
const EV_RESULT: u8 = 2;
const EV_ABORT: u8 = 3;
const EV_TIME: u8 = 4;

/// Origin-name constants for CLBFT request ids, one per event family, so
/// ids never collide across families.
mod origin {
    pub(super) fn external(caller: u32) -> u64 {
        0x4558_5400_0000_0000 | caller as u64 // "EXT" | caller
    }
    pub(super) const RESULT: u64 = 0x5245_5355_4c54_0000;
    pub(super) const ABORT: u64 = 0x4142_4f52_5400_0000;
    pub(super) const TIME: u64 = 0x5449_4d45_0000_0000;

    pub(super) fn read(caller: u32) -> u64 {
        0x5244_4f00_0000_0000 | caller as u64 // "RDO" | caller
    }
}

/// Whether a CLBFT request-id origin belongs to the client-visible request
/// family (external calls). Only these open lifecycle spans — internal
/// agreement records (results, aborts, time votes) would otherwise open
/// spans that never close.
pub(crate) fn is_traced_origin(origin: u64) -> bool {
    (origin >> 32) == 0x4558_5400
}

/// The span key `(origin, counter)` of an external request from `caller`
/// with per-target dedup sequence `target_seq` — the same id
/// [`Event::request_id`] assigns, exposed so the driver can stamp span
/// phases without re-encoding the event.
pub(crate) fn external_span_id(caller: GroupId, target_seq: u64) -> (u64, u64) {
    (origin::external(caller.0), target_seq)
}

/// The span key of fast-path read `req_no` from `caller`. A read is never
/// ordered, so it has no request id; its key lives in an origin family of
/// its own and cannot collide with an ordered request's span.
pub(crate) fn read_span_id(caller: GroupId, req_no: u64) -> (u64, u64) {
    (origin::read(caller.0), req_no)
}

/// Marker prefix for configuration-record payloads (transaction decisions,
/// reshard steps, epoch flips). A caller that wraps its application payload
/// with [`config_payload`] gets the whole event ordered as a CLBFT *config
/// record* ([`pws_clbft::Request::config_record`]): digest-covered like any
/// request, but sealing a sequence slot of its own. SOAP payloads always
/// start with `<`, so the prefix cannot collide with application traffic —
/// and events without it encode byte-identically to every prior release.
pub const CONFIG_PREFIX: [u8; 4] = *b"PWSC";

/// Wraps `payload` so the event carrying it orders as a config record.
pub fn config_payload(payload: &[u8]) -> Bytes {
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&CONFIG_PREFIX);
    buf.extend_from_slice(payload);
    Bytes::from(buf)
}

/// Strips the config marker, returning the application payload if `buf`
/// is a config-record payload and `None` otherwise.
pub fn strip_config_payload(buf: &[u8]) -> Option<&[u8]> {
    buf.strip_prefix(&CONFIG_PREFIX[..])
}

impl Event {
    /// Canonically encodes this event.
    pub fn encode(&self) -> Bytes {
        let mut e = Encoder::new();
        match self {
            Event::External {
                caller,
                caller_n,
                req_no,
                target_seq,
                responder,
                timeout_ms,
                payload,
            } => {
                e.put_u8(EV_EXTERNAL);
                e.put_u32(caller.0);
                e.put_u32(*caller_n);
                e.put_u64(*req_no);
                e.put_u64(*target_seq);
                e.put_u32(*responder);
                e.put_u64(*timeout_ms);
                e.put_bytes(payload);
            }
            Event::Result {
                call_no,
                digest,
                payload,
                shares,
            } => {
                e.put_u8(EV_RESULT);
                e.put_u64(*call_no);
                e.put_digest(digest);
                e.put_bytes(payload);
                e.put_u32(shares.len() as u32);
                for s in shares {
                    put_share(&mut e, s);
                }
            }
            Event::Abort { call_no } => {
                e.put_u8(EV_ABORT);
                e.put_u64(*call_no);
            }
            Event::TimeVote { token, millis } => {
                e.put_u8(EV_TIME);
                e.put_u64(*token);
                e.put_u64(*millis);
            }
        }
        e.finish()
    }

    /// Decodes an event.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on malformed input.
    pub fn decode(buf: &[u8]) -> Result<Event, WireError> {
        let mut d = Decoder::new(buf);
        let tag = d.u8()?;
        let ev = match tag {
            EV_EXTERNAL => Event::External {
                caller: GroupId(d.u32()?),
                caller_n: d.u32()?,
                req_no: d.u64()?,
                target_seq: d.u64()?,
                responder: d.u32()?,
                timeout_ms: d.u64()?,
                payload: d.bytes()?,
            },
            EV_RESULT => {
                let call_no = d.u64()?;
                let digest = d.digest()?;
                let payload = d.bytes()?;
                let shares = counted(&mut d, MAX_WIRE_SHARES, shares_err, get_share)?;
                Event::Result {
                    call_no,
                    digest,
                    payload,
                    shares,
                }
            }
            EV_ABORT => Event::Abort { call_no: d.u64()? },
            EV_TIME => Event::TimeVote {
                token: d.u64()?,
                millis: d.u64()?,
            },
            _ => return Err(WireError::malformed("unknown event tag")),
        };
        d.finish()?;
        Ok(ev)
    }

    /// The CLBFT request id for this event.
    ///
    /// Ids deduplicate re-submissions: every voter that proposes the same
    /// logical event produces the same id. Time votes intentionally share an
    /// id per token even though payloads differ across replicas — the
    /// primary's suggestion is the one that gets ordered (§4.2).
    pub(crate) fn request_id(&self) -> RequestId {
        match self {
            // Dedup keys on the dense per-target sequence number, not the
            // caller's global `req_no`: at any one (possibly sharded)
            // target group the counters stay contiguous, so the executed
            // set compacts to a per-caller prefix instead of a sparse
            // residue.
            Event::External {
                caller, target_seq, ..
            } => RequestId::new(origin::external(caller.0), *target_seq),
            Event::Result {
                call_no, digest, ..
            } => {
                // Different digests make different requests: a conflicting
                // (equivocated) result is a distinct proposal; the first one
                // ordered wins at execution time.
                let mut lo = [0u8; 8];
                lo.copy_from_slice(&digest.as_bytes()[..8]);
                RequestId::new(origin::RESULT ^ u64::from_be_bytes(lo), *call_no)
            }
            Event::Abort { call_no } => RequestId::new(origin::ABORT, *call_no),
            Event::TimeVote { token, .. } => RequestId::new(origin::TIME, *token),
        }
    }

    /// Wraps this event into a CLBFT request. An external event whose
    /// payload carries the [`CONFIG_PREFIX`] marker becomes a config
    /// record — ordered in a sealed slot of its own.
    pub(crate) fn to_request(&self) -> Request {
        let (id, bytes) = (self.request_id(), self.encode());
        match self {
            Event::External { payload, .. } if strip_config_payload(payload).is_some() => {
                Request::config_record(id, bytes)
            }
            _ => Request::new(id, bytes),
        }
    }
}

/// Hard cap on the shares of one reply bundle and on the MAC entries of
/// one share: far above any group size, low enough that a hostile count
/// prefix cannot drive a huge decode.
pub(crate) const MAX_WIRE_SHARES: usize = 4096;

pub(crate) fn shares_err() -> WireError {
    WireError::malformed("too many shares")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pws_crypto::sha256;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::External {
                caller: GroupId(3),
                caller_n: 4,
                req_no: 77,
                target_seq: 41,
                responder: 2,
                timeout_ms: 5000,
                payload: Bytes::from_static(b"do-it"),
            },
            Event::Result {
                call_no: 9,
                digest: sha256(b"reply"),
                payload: Bytes::from_static(b"reply"),
                shares: {
                    let mut keys = pws_crypto::keys::KeyTable::new(1);
                    vec![BundleShare::build(
                        &mut keys,
                        Principal::new(2, 0),
                        b"tag",
                        sha256(b"reply"),
                        &[Principal::new(1, 0), Principal::new(1, 1)],
                    )]
                },
            },
            Event::Abort { call_no: 9 },
            Event::TimeVote {
                token: 1,
                millis: 1_190_000_000_123,
            },
        ]
    }

    #[test]
    fn roundtrip_all_variants() {
        for ev in sample_events() {
            let bytes = ev.encode();
            assert_eq!(Event::decode(&bytes).unwrap(), ev);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Event::decode(&[]).is_err());
        assert!(Event::decode(&[99]).is_err());
        assert!(Event::decode(&[EV_ABORT, 1]).is_err());
        let mut ok = sample_events()[3].encode().to_vec();
        ok.push(0);
        assert!(Event::decode(&ok).is_err(), "trailing bytes rejected");
    }

    #[test]
    fn request_ids_are_distinct_across_families() {
        let evs = sample_events();
        let ids: std::collections::HashSet<_> = evs.iter().map(|e| e.request_id()).collect();
        assert_eq!(ids.len(), evs.len());
    }

    #[test]
    fn time_votes_share_id_per_token() {
        let a = Event::TimeVote {
            token: 5,
            millis: 100,
        };
        let b = Event::TimeVote {
            token: 5,
            millis: 999,
        };
        assert_eq!(a.request_id(), b.request_id());
        let c = Event::TimeVote {
            token: 6,
            millis: 100,
        };
        assert_ne!(a.request_id(), c.request_id());
    }

    #[test]
    fn conflicting_results_get_distinct_ids() {
        let a = Event::Result {
            call_no: 1,
            digest: sha256(b"x"),
            payload: Bytes::from_static(b"x"),
            shares: vec![],
        };
        let b = Event::Result {
            call_no: 1,
            digest: sha256(b"y"),
            payload: Bytes::from_static(b"y"),
            shares: vec![],
        };
        assert_ne!(a.request_id(), b.request_id());
    }

    /// Both count prefixes of an `Event::Result`, the shares and the MAC
    /// entries of one share: one past the cap fails naming the field,
    /// exactly the cap with no elements behind it fails as `truncated`.
    #[test]
    fn every_count_prefix_is_capped() {
        let result = |e: &mut Encoder| {
            e.put_u8(EV_RESULT);
            e.put_u64(9); // call number
            e.put_digest(&sha256::sha256(b"r"));
            e.put_bytes(b"r");
        };
        type Frame<'a> = &'a dyn Fn(&mut Encoder, u32);
        let cases: [(&str, Frame<'_>); 2] = [
            ("too many shares", &|e, n| {
                result(e);
                e.put_u32(n);
            }),
            ("too many MAC entries", &|e, n| {
                result(e);
                e.put_u32(1); // one share
                put_principal(e, &Principal::new(1, 0));
                e.put_digest(&sha256::sha256(b"r"));
                e.put_u32(n);
            }),
        ];
        for (what, frame) in cases {
            for (n, expect) in [(MAX_WIRE_SHARES + 1, what), (MAX_WIRE_SHARES, "truncated")] {
                let mut e = Encoder::new();
                frame(&mut e, n as u32);
                let err = Event::decode(&e.finish()).unwrap_err();
                assert!(err.to_string().contains(expect), "{what}, count {n}: {err}");
            }
        }
    }

    #[test]
    fn to_request_is_stable() {
        let ev = &sample_events()[0];
        let r1 = ev.to_request();
        let r2 = ev.to_request();
        assert_eq!(r1.digest(), r2.digest());
        assert_eq!(r1.id(), ev.request_id());
        assert!(
            !r1.is_config(),
            "plain payloads never become config records"
        );
    }

    #[test]
    fn config_payload_marks_the_request_and_roundtrips() {
        let wrapped = config_payload(b"reshardExport:2");
        assert_eq!(
            strip_config_payload(&wrapped),
            Some(&b"reshardExport:2"[..])
        );
        assert_eq!(strip_config_payload(b"<env>..</env>"), None);
        let ev = Event::External {
            caller: GroupId(3),
            caller_n: 4,
            req_no: 77,
            target_seq: 41,
            responder: 2,
            timeout_ms: 0,
            payload: wrapped,
        };
        let r = ev.to_request();
        assert!(r.is_config(), "marked payloads order as config records");
        // Only External payloads are inspected.
        assert!(!Event::Abort { call_no: 1 }.to_request().is_config());
    }
}
