//! Protocol messages.

use crate::dedup::ExecutedSet;
use crate::pages::PageManifest;
use crate::{ReplicaId, Seq, View};
use bytes::Bytes;
use pws_crypto::sha256::{Digest32, Sha256};
use std::sync::OnceLock;

/// Identifies a request uniquely across the group's lifetime.
///
/// In Perpetual, the "client" of a voter group is a set of drivers that all
/// submit the same logical event, so the id is derived from the event
/// content and origin rather than a per-client socket.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId {
    /// Originating principal (client id, or a hash of the event source).
    pub origin: u64,
    /// Origin-local sequence counter.
    pub counter: u64,
}

impl RequestId {
    /// Creates a request id.
    pub const fn new(origin: u64, counter: u64) -> Self {
        RequestId { origin, counter }
    }
}

impl std::fmt::Debug for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req({}:{})", self.origin, self.counter)
    }
}

/// An opaque operation to be totally ordered by the group.
///
/// Immutable once built: the fields are private and every constructor
/// starts with no digest, so the digest — computed on first use and kept
/// across clones — always matches the request it belongs to.
#[derive(Clone)]
pub struct Request {
    /// Unique id (used for deduplication).
    id: RequestId,
    /// Opaque payload; the harness interprets it after `Execute`.
    payload: Bytes,
    /// Configuration-record marker: the request carries a group-management
    /// record (transaction decision, reshard step, epoch flip) rather than
    /// ordinary application traffic. A config record is ordered like any
    /// request but always seals a sequence slot of its own — never batched
    /// with application requests — so the slot boundary itself marks the
    /// atomic configuration point in the log.
    config: bool,
    /// [`Request::digest`], once computed.
    digest: OnceLock<Digest32>,
}

impl PartialEq for Request {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id && self.config == other.config && self.payload == other.payload
    }
}
impl Eq for Request {}

impl Request {
    fn build(id: RequestId, payload: Bytes, config: bool) -> Self {
        Request {
            id,
            payload,
            config,
            digest: OnceLock::new(),
        }
    }

    /// Creates an (ordered) request.
    pub fn new(id: RequestId, payload: Bytes) -> Self {
        Request::build(id, payload, false)
    }

    /// Creates an ordered configuration record: occupies a sequence slot
    /// of its own, flushing any batch accumulating ahead of it.
    pub fn config_record(id: RequestId, payload: Bytes) -> Self {
        Request::build(id, payload, true)
    }

    /// The same request — id and markers — carrying `payload` instead.
    pub fn with_payload(&self, payload: Bytes) -> Self {
        Request::build(self.id, payload, self.config)
    }

    /// The request's unique id.
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// The opaque payload.
    pub fn payload(&self) -> &Bytes {
        &self.payload
    }

    /// Whether this is a configuration record.
    pub fn is_config(&self) -> bool {
        self.config
    }

    /// The flag byte (bit 1: config) — the canonical wire and digest
    /// encoding of the request's markers. Bit 0 is reserved and always
    /// zero: reads are answered outside agreement and never become
    /// requests, and decoders reject a frame that sets it.
    pub(crate) fn flags(&self) -> u8 {
        u8::from(self.config) << 1
    }

    /// Whether `twin` is this same request — equal id, markers and payload
    /// bytes. If so and `twin` has been hashed, this copy takes its digest
    /// instead of hashing the same input again.
    pub fn adopt_digest(&self, twin: &Request) -> bool {
        if self != twin {
            return false;
        }
        if let Some(&d) = twin.digest.get() {
            let _ = self.digest.set(d);
        }
        true
    }

    /// The canonical digest of this request. Covers the flag byte so a
    /// flipped config marker cannot ride an existing authenticator.
    /// Hashed on first use only.
    pub fn digest(&self) -> Digest32 {
        *self.digest.get_or_init(|| {
            let mut h = Sha256::new();
            h.update_u64(self.id.origin);
            h.update_u64(self.id.counter);
            h.update(&[self.flags()]);
            h.update_u64(self.payload.len() as u64);
            h.update(&self.payload);
            h.finalize()
        })
    }
}

impl std::fmt::Debug for Request {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Request({:?}, {} bytes{})",
            self.id,
            self.payload.len(),
            if self.config { ", cfg" } else { "" }
        )
    }
}

/// An ordered batch of requests agreed as a single unit: one sequence slot
/// carries the whole batch, and execution unpacks it in order (the
/// Castro–Liskov request-batching optimization). A batch is ordered or
/// dropped atomically — it is never split, including across view changes,
/// because the batch digest (not per-request digests) is what prepares and
/// commits.
#[derive(Clone, PartialEq, Eq)]
pub struct Batch {
    /// The requests, in the order they will execute within the slot.
    pub requests: Vec<Request>,
}

impl Batch {
    /// A batch over `requests`, preserving their order.
    pub fn new(requests: Vec<Request>) -> Self {
        Batch { requests }
    }

    /// A batch holding a single request.
    pub fn of(request: Request) -> Self {
        Batch {
            requests: vec![request],
        }
    }

    /// The empty (null) batch used to fill sequence gaps after a view
    /// change: it commits like any batch but executes as a no-op.
    pub fn null() -> Self {
        Batch {
            requests: Vec::new(),
        }
    }

    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the batch holds no requests: a null (gap-filling) batch.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The canonical digest of the ordered batch: a hash over the request
    /// count and every request digest, in order. Reordering, dropping, or
    /// substituting any member changes the batch digest.
    pub fn digest(&self) -> Digest32 {
        let mut h = Sha256::new();
        h.update_u64(self.requests.len() as u64);
        for r in &self.requests {
            h.update(r.digest().as_bytes());
        }
        h.finalize()
    }
}

impl std::fmt::Debug for Batch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            write!(f, "Batch(null)")
        } else {
            write!(f, "Batch[{}]{:?}", self.len(), self.requests)
        }
    }
}

/// Primary's ordering proposal: one slot, one batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrePrepareMsg {
    /// The view this proposal belongs to.
    pub view: View,
    /// The proposed sequence number.
    pub seq: Seq,
    /// Digest of `batch` (redundant but matches the paper's wire format).
    pub digest: Digest32,
    /// The full batch (piggybacked, as in CLBFT).
    pub batch: Batch,
}

/// Backup's acknowledgement of a pre-prepare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrepareMsg {
    /// View of the pre-prepare being acknowledged.
    pub view: View,
    /// Sequence number being acknowledged.
    pub seq: Seq,
    /// Digest being acknowledged.
    pub digest: Digest32,
    /// Sender.
    pub replica: ReplicaId,
}

/// A replica's commitment to execute at this sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitMsg {
    /// View in which the request prepared.
    pub view: View,
    /// Sequence number.
    pub seq: Seq,
    /// Digest.
    pub digest: Digest32,
    /// Sender.
    pub replica: ReplicaId,
}

/// Periodic checkpoint announcement used for garbage collection and as
/// the evidence a lagging replica verifies fetched state against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointMsg {
    /// Last executed sequence number covered by this checkpoint.
    pub seq: Seq,
    /// The checkpoint digest over `(seq, snapshot, executed, chain)`.
    pub state_digest: Digest32,
    /// Sender.
    pub replica: ReplicaId,
}

/// The canonical digest of a checkpoint: covers the sequence number, the
/// snapshot's page-tree Merkle root ([`PageManifest::root`], which in turn
/// covers every page digest, the page geometry, and the total length), the
/// executed-request deduplication set (its canonical per-origin compact
/// encoding, [`ExecutedSet::encode`]), and the execution chain. Every
/// correct replica computes the identical digest at the same sequence
/// boundary, so `2f + 1` matching [`CheckpointMsg`]s prove the state is
/// group-stable and `f + 1` prove at least one correct replica holds it
/// (the state-transfer trust anchor). Because the root certifies the whole
/// manifest, `f + 1` votes on this digest let a fetcher trust *every
/// per-page digest* of a received manifest at once.
pub(crate) fn checkpoint_digest(
    seq: Seq,
    pages: &PageManifest,
    executed: &ExecutedSet,
    exec_chain: &Digest32,
) -> Digest32 {
    let mut h = Sha256::new();
    h.update_u64(seq.0);
    h.update(pages.root().as_bytes());
    let dedup = executed.encode();
    h.update_u64(dedup.len() as u64);
    h.update(&dedup);
    h.update(exec_chain.as_bytes());
    h.finalize()
}

/// A lagging replica's request for the latest stable checkpoint state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchStateMsg {
    /// The requester's own stable checkpoint; responders with nothing newer
    /// stay silent.
    pub have: Seq,
    /// Sender.
    pub replica: ReplicaId,
}

/// One committed slot above the checkpoint, shipped during state transfer
/// so the fetcher lands at the responder's execution frontier instead of a
/// checkpoint boundary. The checkpoint digest does not cover the suffix,
/// so the fetcher replays a slot only once `f + 1` distinct responders
/// have sent an identical batch for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuffixSlot {
    /// The slot's sequence number.
    pub seq: Seq,
    /// The slot's whole batch, in execution order.
    pub batch: Batch,
}

/// A stable checkpoint's *manifest* plus the committed log suffix,
/// answering a [`FetchStateMsg`]. The fetcher verifies the manifest (and
/// the executed set and chain) against `f + 1` matching [`CheckpointMsg`]
/// digests, then pulls only the pages it is missing with [`FetchPagesMsg`];
/// the suffix and view fields are *not* covered by that digest and only
/// count as one vote each toward their own `f + 1` bars.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateResponseMsg {
    /// The stable checkpoint's sequence number.
    pub seq: Seq,
    /// The responder's current view. A rebooted replica rejoins view `v`
    /// only once `f + 1` distinct responders report a view `>= v` — a
    /// single responder's claim is never trusted.
    pub view: View,
    /// The execution chain at `seq`.
    pub exec_chain: Digest32,
    /// The page table of the application snapshot at `seq`: per-page
    /// digests whose Merkle root the checkpoint digest covers. The pages
    /// themselves travel separately, in [`PageResponseMsg`]s.
    pub manifest: PageManifest,
    /// Request ids executed up to `seq`: the dedup table, compacted per
    /// origin ([`ExecutedSet`]).
    pub executed: ExecutedSet,
    /// Committed slots in `(seq, responder's last_exec]`, in order.
    pub suffix: Vec<SuffixSlot>,
    /// Sender.
    pub replica: ReplicaId,
}

/// A fetcher's range-bounded request for snapshot pages
/// `[first, first + count)` of the stable checkpoint at `seq` (the
/// vsr-rs `GetState` idiom: ask for an explicit range, then verify you got
/// exactly that range back). `count` never exceeds
/// [`crate::pages::MAX_PAGES_PER_FETCH`] in an honest frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchPagesMsg {
    /// The checkpoint boundary whose pages are wanted.
    pub seq: Seq,
    /// First page index of the requested range.
    pub first: u32,
    /// Number of consecutive pages requested.
    pub count: u32,
    /// Sender.
    pub replica: ReplicaId,
}

/// A responder's page range, answering a [`FetchPagesMsg`]. Pages are in
/// index order starting at `first`; the fetcher verifies every page
/// against its `f + 1`-vouched manifest and rejects — counting — anything
/// unsolicited, out of range, over the cap, duplicated, or
/// digest-mismatched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageResponseMsg {
    /// The checkpoint boundary the pages belong to.
    pub seq: Seq,
    /// Index of the first page carried.
    pub first: u32,
    /// The page contents, in index order.
    pub pages: Vec<Bytes>,
    /// Sender.
    pub replica: ReplicaId,
}

/// A prepared-batch claim carried inside a view change. The claim carries
/// the *whole* batch so the new primary can only ever re-propose it intact,
/// in the same internal order — never a subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedClaim {
    /// View in which the batch pre-prepared.
    pub view: View,
    /// Claimed sequence number.
    pub seq: Seq,
    /// Batch digest.
    pub digest: Digest32,
    /// The full batch, so the new primary can re-propose it whole.
    pub batch: Batch,
}

/// Vote to move to a new view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewChangeMsg {
    /// The view being moved to.
    pub new_view: View,
    /// Sender's last stable checkpoint.
    pub stable_seq: Seq,
    /// Digest of the stable checkpoint (ZERO if `stable_seq` is 0).
    pub stable_digest: Digest32,
    /// Requests prepared above the stable checkpoint.
    pub prepared: Vec<PreparedClaim>,
    /// Sender.
    pub replica: ReplicaId,
}

/// New primary's view installation message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NewViewMsg {
    /// The view being installed.
    pub view: View,
    /// Replicas whose view-change votes justified this new view.
    pub voters: Vec<ReplicaId>,
    /// Re-proposals (including null gap fillers) for the new view.
    pub pre_prepares: Vec<PrePrepareMsg>,
    /// Sender (the new primary).
    pub replica: ReplicaId,
}

/// Any CLBFT protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// A request forwarded to the primary by another replica.
    Forward(Request),
    /// Ordering proposal from the primary.
    PrePrepare(PrePrepareMsg),
    /// Prepare acknowledgement.
    Prepare(PrepareMsg),
    /// Commit.
    Commit(CommitMsg),
    /// Checkpoint announcement.
    Checkpoint(CheckpointMsg),
    /// View-change vote.
    ViewChange(ViewChangeMsg),
    /// New-view installation.
    NewView(NewViewMsg),
    /// State-transfer request from a lagging replica.
    FetchState(FetchStateMsg),
    /// State-transfer response: stable checkpoint manifest plus log suffix.
    StateResponse(StateResponseMsg),
    /// Range-bounded page request during state transfer.
    FetchPages(FetchPagesMsg),
    /// Page range answering a [`FetchPagesMsg`].
    PageResponse(PageResponseMsg),
}

impl Msg {
    /// A short tag for metrics and traces.
    #[cfg(test)]
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Msg::Forward(_) => "forward",
            Msg::PrePrepare(_) => "pre-prepare",
            Msg::Prepare(_) => "prepare",
            Msg::Commit(_) => "commit",
            Msg::Checkpoint(_) => "checkpoint",
            Msg::ViewChange(_) => "view-change",
            Msg::NewView(_) => "new-view",
            Msg::FetchState(_) => "fetch-state",
            Msg::StateResponse(_) => "state-response",
            Msg::FetchPages(_) => "fetch-pages",
            Msg::PageResponse(_) => "page-response",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_digest_depends_on_all_fields() {
        let r = Request::new(RequestId::new(1, 2), Bytes::from_static(b"abc"));
        let d0 = r.digest();
        assert_eq!(d0, r.digest(), "digest is deterministic");
        let r2 = Request::new(RequestId::new(1, 3), Bytes::from_static(b"abc"));
        assert_ne!(d0, r2.digest());
        let r3 = Request::new(RequestId::new(1, 2), Bytes::from_static(b"abd"));
        assert_ne!(d0, r3.digest());
        let cfg = Request::config_record(RequestId::new(1, 2), Bytes::from_static(b"abc"));
        assert_ne!(d0, cfg.digest(), "config flag is digest-covered");
        assert!(cfg.config);
        assert_eq!(r.flags(), 0);
        assert_eq!(cfg.flags(), 2, "bit 0 stays reserved");
    }

    #[test]
    fn batch_digest_covers_order_and_membership() {
        let a = Request::new(RequestId::new(1, 1), Bytes::from_static(b"a"));
        let b = Request::new(RequestId::new(1, 2), Bytes::from_static(b"b"));
        let ab = Batch::new(vec![a.clone(), b.clone()]);
        let ba = Batch::new(vec![b.clone(), a.clone()]);
        assert_eq!(ab.digest(), ab.digest(), "deterministic");
        assert_ne!(ab.digest(), ba.digest(), "order matters");
        assert_ne!(ab.digest(), Batch::of(a.clone()).digest(), "membership");
        assert_eq!(ab.len(), 2);
        assert!(!ab.is_empty());
        assert_eq!(Batch::of(a).len(), 1);
    }

    #[test]
    fn null_batches() {
        let b = Batch::null();
        assert!(b.is_empty());
        assert!(b.is_empty());
        assert_eq!(b.digest(), Batch::new(vec![]).digest());
        assert_ne!(
            b.digest(),
            Batch::of(Request::new(RequestId::new(1, 1), Bytes::new())).digest()
        );
        assert_eq!(format!("{b:?}"), "Batch(null)");
        assert_eq!(format!("{:?}", RequestId::new(3, 4)), "req(3:4)");
    }

    #[test]
    fn msg_kinds() {
        let r = Request::new(RequestId::new(0, 0), Bytes::new());
        assert_eq!(Msg::Forward(r).kind(), "forward");
        assert_eq!(
            Msg::FetchState(crate::messages::FetchStateMsg {
                have: Seq(0),
                replica: ReplicaId(0)
            })
            .kind(),
            "fetch-state"
        );
        assert_eq!(
            Msg::FetchPages(FetchPagesMsg {
                seq: Seq(8),
                first: 0,
                count: 1,
                replica: ReplicaId(0)
            })
            .kind(),
            "fetch-pages"
        );
        assert_eq!(
            Msg::PageResponse(PageResponseMsg {
                seq: Seq(8),
                first: 0,
                pages: vec![Bytes::from_static(b"p")],
                replica: ReplicaId(0)
            })
            .kind(),
            "page-response"
        );
    }

    #[test]
    fn checkpoint_digest_covers_every_component() {
        let ids: ExecutedSet = [RequestId::new(1, 1), RequestId::new(1, 2)]
            .into_iter()
            .collect();
        let one: ExecutedSet = [RequestId::new(1, 1)].into_iter().collect();
        let pages = PageManifest::compute(b"state", 4);
        let base = checkpoint_digest(Seq(64), &pages, &ids, &Digest32::ZERO);
        assert_eq!(
            base,
            checkpoint_digest(Seq(64), &pages, &ids, &Digest32::ZERO),
            "deterministic"
        );
        assert_ne!(
            base,
            checkpoint_digest(Seq(65), &pages, &ids, &Digest32::ZERO)
        );
        let other_pages = PageManifest::compute(b"statf", 4);
        assert_ne!(
            base,
            checkpoint_digest(Seq(64), &other_pages, &ids, &Digest32::ZERO),
            "any page byte flip changes the root and so the digest"
        );
        let regeometry = PageManifest::compute(b"state", 2);
        assert_ne!(
            base,
            checkpoint_digest(Seq(64), &regeometry, &ids, &Digest32::ZERO),
            "page geometry is digest-covered"
        );
        assert_ne!(
            base,
            checkpoint_digest(Seq(64), &pages, &one, &Digest32::ZERO)
        );
        let other_chain = Digest32([1u8; 32]);
        assert_ne!(base, checkpoint_digest(Seq(64), &pages, &ids, &other_chain));
    }
}
