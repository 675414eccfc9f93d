//! Replica snapshot codec for checkpointing and state transfer.
//!
//! A Perpetual replica's checkpointable state has two parts: the **driver**
//! bookkeeping that must survive recovery (which external requests were
//! delivered, which calls resolved, what was replied — everything needed to
//! keep deduplicating and re-serving after a restore) and the opaque
//! **executor** snapshot (the hosted application, captured through
//! [`crate::Executor::snapshot`]). Both are serialized with the same
//! dependency-free codec as the wire frames, with every map emitted in
//! sorted key order so all correct replicas produce byte-identical
//! snapshots at the same agreed boundary — the bytes feed the checkpoint
//! digest the group votes on.
//!
//! Deliberately *excluded* is transient pre-agreement state (candidate
//! votes, the validation gate, pending bundle shares): it is re-derivable
//! from retransmissions and must not perturb the digest.

use bytes::Bytes;
pub use pws_clbft::wire::{counted, Decoder, Encoder, WireError};
use pws_clbft::ExecutedSet;

/// Upper bound on any one collection in a snapshot, mirroring the wire
/// codec's allocation caps.
const MAX_SNAPSHOT_ITEMS: usize = 1 << 20;

/// One outcall's durable state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CallSnap {
    /// The call number.
    pub(crate) call_no: u64,
    /// The target group (raw id).
    pub(crate) target: u32,
    /// The dense per-target dedup sequence assigned to the call.
    pub(crate) target_seq: u64,
    /// Whether the call has resolved (reply or abort delivered).
    pub(crate) done: bool,
    /// Whether the call travels the read-only fast path (no `target_seq`
    /// consumed; retransmits re-broadcast the read instead of an ordered
    /// request).
    pub(crate) read_only: bool,
    /// The original request payload, kept for retransmission.
    pub(crate) payload: Bytes,
}

/// The durable driver state captured at a checkpoint boundary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct DriverSnapshot {
    /// Next outcall number to assign.
    pub(crate) next_call: u64,
    /// Next time-query token to assign.
    pub(crate) next_token: u64,
    /// Next per-target dedup sequence to assign, `(target group, next)`,
    /// sorted.
    pub(crate) next_target_seq: Vec<(u32, u64)>,
    /// Outcall table, sorted by call number.
    pub(crate) calls: Vec<CallSnap>,
    /// Delivered external requests, compacted per calling group
    /// (origin = caller group id, counter = the caller's dense per-target
    /// `target_seq`): O(callers + reorder residue) bytes instead of 12
    /// per delivered request, sharded targets included.
    pub(crate) delivered: ExecutedSet,
    /// Reply routes `(caller group, req_no, responder)`, sorted by key.
    /// Bounded per caller like `replies_sent`.
    pub(crate) reply_routes: Vec<(u32, u64, u32)>,
    /// Produced replies `(caller group, req_no, payload)`, sorted by key.
    /// Bounded: the driver retains only the newest replies per caller
    /// (`ReplicaConfig::reply_retention`, default
    /// `DEFAULT_REPLY_RETENTION`), so this section no longer grows with
    /// request history.
    pub(crate) replies_sent: Vec<(u32, u64, Bytes)>,
    /// Resolved time-vote tokens, sorted.
    pub(crate) resolved_tokens: Vec<u64>,
    /// The opaque executor (application) snapshot.
    pub(crate) executor: Bytes,
}

impl DriverSnapshot {
    /// Serializes the snapshot (all collections must already be sorted;
    /// [`DriverSnapshot`] builders in this crate guarantee it).
    pub(crate) fn encode(&self) -> Bytes {
        let mut e = Encoder::new();
        // Version 4: the executor (application) bytes moved to the front,
        // directly after the version byte. The executor section is large
        // and mostly static while the driver bookkeeping ahead of it used
        // to shift in length every boundary; leading with it keeps the
        // application bytes at stable page offsets so incremental
        // checkpoint hashing and Merkle page transfer see unchanged pages
        // as unchanged. (v3 added the per-call read-only flag; v2 made
        // `delivered` a per-origin compact ExecutedSet.)
        e.put_u8(4);
        e.put_bytes(&self.executor);
        e.put_u64(self.next_call);
        e.put_u64(self.next_token);
        e.put_u32(self.next_target_seq.len() as u32);
        for (g, s) in &self.next_target_seq {
            e.put_u32(*g);
            e.put_u64(*s);
        }
        e.put_u32(self.calls.len() as u32);
        for c in &self.calls {
            e.put_u64(c.call_no);
            e.put_u32(c.target);
            e.put_u64(c.target_seq);
            e.put_u8(u8::from(c.done));
            e.put_u8(u8::from(c.read_only));
            e.put_bytes(&c.payload);
        }
        self.delivered.encode_into(&mut e);
        e.put_u32(self.reply_routes.len() as u32);
        for (g, r, resp) in &self.reply_routes {
            e.put_u32(*g);
            e.put_u64(*r);
            e.put_u32(*resp);
        }
        e.put_u32(self.replies_sent.len() as u32);
        for (g, r, payload) in &self.replies_sent {
            e.put_u32(*g);
            e.put_u64(*r);
            e.put_bytes(payload);
        }
        e.put_u32(self.resolved_tokens.len() as u32);
        for t in &self.resolved_tokens {
            e.put_u64(*t);
        }
        e.finish()
    }

    /// Deserializes a snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for truncated, oversized, or unversioned
    /// input.
    pub(crate) fn decode(buf: &[u8]) -> Result<DriverSnapshot, WireError> {
        let mut d = Decoder::new(buf);
        if d.u8()? != 4 {
            return Err(snapshot_err());
        }
        let executor = d.bytes()?;
        let next_call = d.u64()?;
        let next_token = d.u64()?;
        let next_target_seq = counted(&mut d, MAX_SNAPSHOT_ITEMS, snapshot_err, |d| {
            Ok((d.u32()?, d.u64()?))
        })?;
        let calls = counted(&mut d, MAX_SNAPSHOT_ITEMS, snapshot_err, |d| {
            Ok(CallSnap {
                call_no: d.u64()?,
                target: d.u32()?,
                target_seq: d.u64()?,
                done: d.u8()? != 0,
                read_only: d.u8()? != 0,
                payload: d.bytes()?,
            })
        })?;
        let delivered = ExecutedSet::decode_from(&mut d, MAX_SNAPSHOT_ITEMS)?;
        let reply_routes = counted(&mut d, MAX_SNAPSHOT_ITEMS, snapshot_err, |d| {
            Ok((d.u32()?, d.u64()?, d.u32()?))
        })?;
        let replies_sent = counted(&mut d, MAX_SNAPSHOT_ITEMS, snapshot_err, |d| {
            Ok((d.u32()?, d.u64()?, d.bytes()?))
        })?;
        let resolved_tokens = counted(&mut d, MAX_SNAPSHOT_ITEMS, snapshot_err, |d| d.u64())?;
        d.finish()?;
        Ok(DriverSnapshot {
            next_call,
            next_token,
            next_target_seq,
            calls,
            delivered,
            reply_routes,
            replies_sent,
            resolved_tokens,
            executor,
        })
    }
}

fn snapshot_err() -> WireError {
    WireError::malformed("malformed driver snapshot")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DriverSnapshot {
        DriverSnapshot {
            next_call: 7,
            next_token: 3,
            next_target_seq: vec![(2, 6)],
            calls: vec![
                CallSnap {
                    call_no: 1,
                    target: 2,
                    target_seq: 0,
                    done: true,
                    read_only: false,
                    payload: Bytes::from_static(b"req-1"),
                },
                CallSnap {
                    call_no: 5,
                    target: 2,
                    target_seq: 1,
                    done: false,
                    read_only: true,
                    payload: Bytes::from_static(b"req-5"),
                },
            ],
            delivered: [
                pws_clbft::RequestId::new(0, 1),
                pws_clbft::RequestId::new(0, 2),
            ]
            .into_iter()
            .collect(),
            reply_routes: vec![(0, 1, 3)],
            replies_sent: vec![(0, 1, Bytes::from_static(b"reply"))],
            resolved_tokens: vec![0, 1, 2],
            executor: Bytes::from_static(b"app-state"),
        }
    }

    #[test]
    fn roundtrip() {
        let s = sample();
        let bytes = s.encode();
        assert_eq!(DriverSnapshot::decode(&bytes).unwrap(), s);
        let empty = DriverSnapshot::default();
        assert_eq!(DriverSnapshot::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(sample().encode(), sample().encode());
    }

    #[test]
    fn truncation_and_junk_rejected() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(DriverSnapshot::decode(&bytes[..cut]).is_err(), "cut={cut}");
        }
        let mut long = bytes.to_vec();
        long.push(0);
        assert!(DriverSnapshot::decode(&long).is_err());
        assert!(DriverSnapshot::decode(&[9]).is_err(), "bad version");
        assert!(DriverSnapshot::decode(&[3]).is_err(), "v3 is not accepted");
    }

    #[test]
    fn executor_bytes_lead_the_encoding() {
        // The application snapshot sits at a fixed offset right after the
        // version byte and its length prefix, independent of how much
        // driver bookkeeping follows — that stability is what makes
        // incremental page hashing effective.
        let s = sample();
        let bytes = s.encode();
        let exec_start = 1 + 4; // version byte + u32 length prefix
        assert_eq!(
            &bytes[exec_start..exec_start + s.executor.len()],
            s.executor.as_ref()
        );
        let mut bigger = s.clone();
        bigger.resolved_tokens.extend(100..200);
        let bytes2 = bigger.encode();
        assert_eq!(
            &bytes2[exec_start..exec_start + s.executor.len()],
            s.executor.as_ref(),
            "trailing bookkeeping growth must not move the executor bytes"
        );
    }
}
