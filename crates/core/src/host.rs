//! Hosting: bridges a poll-driven [`Service`] onto the Perpetual executor
//! interface, entirely on the simulation thread.
//!
//! One [`ServiceExecutor`] per replica translates agreed
//! [`pws_perpetual::AppEvent`]s into [`WsEvent`]s, delivers them to the
//! service filtered through its declared [`Poll`] continuation (events the
//! service is not waiting on stay queued, in agreed order), and turns
//! [`ServiceCtx`] commands back into [`pws_perpetual::AppOutput`] commands.
//! There is no per-replica OS thread, no channel handshake, and no
//! join/shutdown choreography: a replica host is a plain struct, so
//! creating and tearing one down costs nanoseconds instead of a thread
//! spawn + join.

use crate::api::{CallToken, Poll, Service, TimeToken, WsEvent};
use crate::runtime::UriMap;
use crate::wscost::WsCostModel;
use pws_perpetual::{AppEvent, AppOutput, Executor, RequestHandle};
use pws_simnet::{AuditEvent, ProtoFamily, SimDuration};
use pws_soap::engine::Engine;
use pws_soap::{Envelope, Fault, MessageContext};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Synthetic `wsa:MessageID` prefix for inbound requests that arrive
/// without one. Derived from the agreed [`RequestHandle`], so every replica
/// assigns the identical id and the request stays repliable; [`ServiceCtx::reply`]
/// keeps synthetic ids off the wire (no `RelatesTo` is fabricated from
/// them, matching the old executor's behavior for id-less requests).
const ANON_MSG_ID_PREFIX: &str = "urn:pws:anon:";

/// Persistent per-replica state shared with the service through
/// [`ServiceCtx`].
struct HostState {
    engine: Engine,
    /// This service's own URI, used as the default `wsa:ReplyTo` (§5.1
    /// stage 1: "the MessageHandler augments the MessageContext by setting
    /// the wsa:replyTo field").
    own_uri: String,
    uris: Arc<UriMap>,
    ws_cost: WsCostModel,
    /// Deterministic randomness seeded by the group-agreed seed. Snapshots
    /// carry the raw generator state (`StdRng::state_bytes`), so a restored
    /// replica continues the agreed random stream in O(1) — never by
    /// replaying the draw history, which is unbounded over a service's
    /// lifetime.
    rng: StdRng,
    /// Incoming request `wsa:MessageID` → reply handle.
    handles: BTreeMap<String, RequestHandle>,
    /// Outcall token assignment (deterministic dense counter).
    next_token: u64,
    /// Perpetual call id → token, for reply/abort correlation.
    calls: BTreeMap<u64, CallToken>,
    /// Token → request `wsa:MessageID`, for abort fault correlation.
    token_msg: BTreeMap<CallToken, String>,
    /// Sends that failed locally (unroutable endpoint, cross-shard key,
    /// marshal error), with the fault reason: surfaced as deterministic
    /// abort faults after the current event.
    failed_sends: Vec<(CallToken, String)>,
}

/// The handle through which a [`Service`] acts on the world during one
/// [`Service::on_event`] delivery.
///
/// All commands are non-blocking; answers come back as later [`WsEvent`]s.
pub struct ServiceCtx<'a> {
    st: &'a mut HostState,
    out: &'a mut AppOutput,
}

impl std::fmt::Debug for ServiceCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceCtx").finish_non_exhaustive()
    }
}

impl ServiceCtx<'_> {
    /// Sends a request message without blocking; returns the token that
    /// will identify its [`WsEvent::Reply`]. Sets `wsa:ReplyTo` to this
    /// service's own URI if unset. Sharded targets are routed by the
    /// request key (see [`crate::router`]). A request that cannot be
    /// routed or marshalled — including a **cross-shard** key set, which
    /// sharding rejects by design — resolves deterministically to an
    /// abort fault delivered after the current event (every replica does
    /// the same).
    pub fn send(&mut self, request: MessageContext) -> CallToken {
        self.send_impl(request, false)
    }

    /// [`ServiceCtx::send`], but the marshalled payload is wrapped with the
    /// Perpetual **config** marker ([`pws_perpetual::CONFIG_PREFIX`]): the
    /// target voter group gives the request a CLBFT agreement slot of its
    /// own (never batched), and the receiving host strips the marker
    /// before the service sees the request. The transport for transaction
    /// and resharding records (see [`crate::txn`]).
    pub(crate) fn send_config(&mut self, request: MessageContext) -> CallToken {
        self.send_impl(request, true)
    }

    fn send_impl(&mut self, mut request: MessageContext, config: bool) -> CallToken {
        let token = CallToken(self.st.next_token);
        self.st.next_token += 1;
        if request.addressing().reply_to.is_none() {
            request.addressing_mut().reply_to = Some(self.st.own_uri.clone());
        }
        // The routing key is part of the message body; resolve ownership
        // before the engine mutates addressing.
        let routed = {
            let to = request.addressing().to.clone().unwrap_or_default();
            self.st
                .uris
                .route(&to, crate::router::routing_key(&request))
                .map(|(_, gid)| (gid, self.st.uris.shard_count(&to).is_some()))
        };
        if self.st.engine.prepare_out(&mut request).is_err() {
            self.st
                .failed_sends
                .push((token, "request could not be marshalled".to_owned()));
            return token;
        }
        let msg_id = request.addressing().message_id.clone().unwrap_or_default();
        let timeout_ms = request.options().timeout_ms;
        let Ok(bytes) = request.to_bytes() else {
            self.st.token_msg.insert(token, msg_id);
            self.st
                .failed_sends
                .push((token, "request could not be marshalled".to_owned()));
            return token;
        };
        let bytes = if config {
            pws_perpetual::config_payload(&bytes)
        } else {
            bytes
        };
        match routed {
            Ok((target, sharded)) => {
                if sharded {
                    self.out.incr_metric("clbft.shard.routed");
                    self.out.incr_metric(format!("clbft.shard.route.{target}"));
                }
                self.out.spend(self.st.ws_cost.marshal_cost(bytes.len()));
                let call = self
                    .out
                    .call(target, bytes, timeout_ms.map(SimDuration::from_millis));
                self.st.calls.insert(call.0, token);
                self.st.token_msg.insert(token, msg_id);
            }
            Err(e) => {
                if matches!(e, crate::router::RouteError::CrossShard { .. }) {
                    self.out.incr_metric("clbft.shard.cross_rejected");
                }
                self.st.token_msg.insert(token, msg_id);
                self.st.failed_sends.push((token, e.to_string()));
            }
        }
        token
    }

    /// Sends `reply` as the response to `request` (a previously delivered
    /// [`WsEvent::Request`]). Fills in WS-Addressing correlation exactly as
    /// §5.1 stage (7): `to ← request.replyTo`, `relatesTo ←
    /// request.messageID`. Each request can be answered at most once.
    pub fn reply(&mut self, mut reply: MessageContext, request: &MessageContext) {
        let Some(req_id) = request.addressing().message_id.clone() else {
            return;
        };
        let Some(handle) = self.st.handles.get(&req_id).copied() else {
            return;
        };
        if reply.addressing().relates_to.is_none() {
            reply.addressing_mut().relates_to = Some(req_id.clone());
        }
        // Synthetic ids (requests that arrived without wsa:MessageID) stay
        // off the wire, however they got into RelatesTo.
        if reply
            .addressing()
            .relates_to
            .as_deref()
            .is_some_and(|r| r.starts_with(ANON_MSG_ID_PREFIX))
        {
            reply.addressing_mut().relates_to = None;
        }
        if reply.addressing().to.is_none() {
            reply.addressing_mut().to = request.addressing().reply_to.clone();
        }
        if self.st.engine.prepare_out(&mut reply).is_err() {
            return;
        }
        let Ok(bytes) = reply.to_bytes() else { return };
        self.st.handles.remove(&req_id);
        self.out.spend(self.st.ws_cost.marshal_cost(bytes.len()));
        self.out.reply(handle, bytes);
    }

    /// Asks the voter group to agree on the current time; the answer
    /// arrives as [`WsEvent::Time`] with the returned token. Replaces
    /// `System.currentTimeMillis()` (§4.2).
    pub fn query_time(&mut self) -> TimeToken {
        TimeToken(self.out.query_time())
    }

    /// Burns simulated CPU time at this replica — the deterministic
    /// replacement for "this computation takes a while".
    pub fn spend(&mut self, d: SimDuration) {
        self.out.spend(d);
    }

    /// Deterministic randomness seeded by the group-agreed seed. Replaces
    /// direct `java.util.Random` construction (§4.2).
    pub fn random_u64(&mut self) -> u64 {
        self.st.rng.next_u64()
    }

    /// Increments a deployment metric counter. Deterministic infrastructure
    /// telemetry (the transaction and resharding layers count protocol
    /// outcomes through this); services should not treat metrics as state.
    pub(crate) fn incr_metric(&mut self, name: impl Into<String>) {
        self.out.incr_metric(name);
    }

    /// Records a protocol-plane span phase (transaction / reshard spans).
    /// The hosting replica stamps it with sim-time and its group id; a
    /// no-op downstream when tracing is off. Purely observational.
    pub(crate) fn obs_proto(&mut self, family: ProtoFamily, id: u64, phase: usize, count: u64) {
        self.out.proto(family, id, phase, count);
    }

    /// Feeds one observation to the online protocol auditor (a no-op
    /// downstream when auditing is off). Purely observational.
    pub(crate) fn obs_audit(&mut self, ev: AuditEvent) {
        self.out.audit(ev);
    }

    /// Records a time-series gauge sample (e.g. the transaction lock-table
    /// size). A no-op downstream when tracing is off.
    pub(crate) fn gauge(&mut self, name: impl Into<String>, value: f64) {
        self.out.gauge(name, value);
    }
}

/// The simulation-side executor hosting one replica of a poll-driven
/// [`Service`].
pub struct ServiceExecutor {
    service: Box<dyn Service>,
    service_name: String,
    state: HostState,
    /// Events not yet admitted by the service's wait set, in agreed order.
    queue: VecDeque<WsEvent>,
    /// The service's current continuation.
    wait: Poll,
}

impl std::fmt::Debug for ServiceExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceExecutor")
            .field("service", &self.service_name)
            .field("queued", &self.queue.len())
            .field("wait", &self.wait)
            .finish_non_exhaustive()
    }
}

impl ServiceExecutor {
    /// Wraps `service` for one replica of the service named `name`.
    pub fn new(
        service: Box<dyn Service>,
        name: impl Into<String>,
        uris: Arc<UriMap>,
        ws_cost: WsCostModel,
    ) -> Self {
        let name = name.into();
        ServiceExecutor {
            service,
            state: HostState {
                engine: Engine::with_id_prefix(&name),
                own_uri: format!("urn:svc:{name}"),
                uris,
                ws_cost,
                rng: StdRng::seed_from_u64(0),
                handles: BTreeMap::new(),
                next_token: 0,
                calls: BTreeMap::new(),
                token_msg: BTreeMap::new(),
                failed_sends: Vec::new(),
            },
            service_name: name,
            queue: VecDeque::new(),
            wait: Poll::Next,
        }
    }

    /// Whether the service declared [`Poll::Done`].
    pub fn is_done(&self) -> bool {
        self.wait == Poll::Done
    }

    /// Typed access to the hosted service (for harvesting results after a
    /// run).
    pub fn service_mut<T: Service>(&mut self) -> Option<&mut T> {
        let any: &mut dyn std::any::Any = self.service.as_mut();
        any.downcast_mut::<T>()
    }

    /// A synthesized abort fault for `token`, correlated to the original
    /// request if its `wsa:MessageID` is known.
    fn abort_fault_with(&mut self, token: CallToken, reason: &str) -> WsEvent {
        let fault = Fault {
            code: "soap:Receiver".to_owned(),
            reason: reason.to_owned(),
        };
        let mut mc = MessageContext::from_envelope(Envelope::fault(&fault));
        mc.addressing_mut().relates_to = self.state.token_msg.remove(&token);
        WsEvent::Reply { token, reply: mc }
    }

    /// Delivers queued events admitted by the current wait set, in agreed
    /// order, until the service blocks (no admitted event) or finishes.
    fn drain(&mut self, out: &mut AppOutput) {
        loop {
            let pos = match &self.wait {
                Poll::Done => {
                    self.queue.clear();
                    return;
                }
                Poll::Next => {
                    if self.queue.is_empty() {
                        return;
                    }
                    0
                }
                Poll::Wait(ws) => match self.queue.iter().position(|e| ws.admits(e)) {
                    Some(p) => p,
                    None => return,
                },
            };
            let ev = self.queue.remove(pos).expect("position within queue");
            let mut ctx = ServiceCtx {
                st: &mut self.state,
                out,
            };
            let poll = self.service.on_event(ev, &mut ctx);
            // Locally-failed sends surface as deterministic abort faults,
            // queued after the event that issued them, carrying the typed
            // routing error (unknown endpoint, cross-shard key) as the
            // fault reason.
            let failed: Vec<(CallToken, String)> = std::mem::take(&mut self.state.failed_sends);
            for (token, reason) in failed {
                let ev = self.abort_fault_with(token, &reason);
                self.queue.push_back(ev);
            }
            self.wait = poll;
        }
    }
}

// ------------------------------------------------------------ checkpointing

use crate::api::WaitSet;
use pws_perpetual::snapshot::{counted, Decoder, Encoder, WireError};

const EV_INIT: u8 = 1;
const EV_REQUEST: u8 = 2;
const EV_REPLY: u8 = 3;
const EV_TIME: u8 = 4;

const POLL_NEXT: u8 = 0;
const POLL_WAIT: u8 = 1;
const POLL_DONE: u8 = 2;

/// Cap on any one collection in a host snapshot (mirrors the wire codec's
/// allocation caps).
const MAX_HOST_ITEMS: usize = 1 << 20;

fn put_mc(e: &mut Encoder, mc: &MessageContext) {
    let bytes = mc
        .to_bytes()
        .expect("queued agreed message must re-marshal");
    e.put_bytes(&bytes);
}

fn get_mc(d: &mut Decoder<'_>) -> Result<MessageContext, WireError> {
    let bytes = d.bytes()?;
    MessageContext::from_bytes(&bytes).map_err(|_| host_snap_err())
}

fn put_event(e: &mut Encoder, ev: &WsEvent) {
    match ev {
        WsEvent::Init { seed } => {
            e.put_u8(EV_INIT);
            e.put_u64(*seed);
        }
        WsEvent::Request { request } => {
            e.put_u8(EV_REQUEST);
            put_mc(e, request);
        }
        WsEvent::Reply { token, reply } => {
            e.put_u8(EV_REPLY);
            e.put_u64(token.0);
            put_mc(e, reply);
        }
        WsEvent::Time { token, millis } => {
            e.put_u8(EV_TIME);
            e.put_u64(token.0);
            e.put_u64(*millis);
        }
    }
}

fn get_event(d: &mut Decoder<'_>) -> Result<WsEvent, WireError> {
    Ok(match d.u8()? {
        EV_INIT => WsEvent::Init { seed: d.u64()? },
        EV_REQUEST => WsEvent::Request {
            request: get_mc(d)?,
        },
        EV_REPLY => WsEvent::Reply {
            token: CallToken(d.u64()?),
            reply: get_mc(d)?,
        },
        EV_TIME => WsEvent::Time {
            token: TimeToken(d.u64()?),
            millis: d.u64()?,
        },
        _ => return Err(host_snap_err()),
    })
}

fn put_poll(e: &mut Encoder, poll: &Poll) {
    match poll {
        Poll::Next => e.put_u8(POLL_NEXT),
        Poll::Done => e.put_u8(POLL_DONE),
        Poll::Wait(ws) => {
            e.put_u8(POLL_WAIT);
            e.put_u8(u8::from(ws.requests));
            e.put_u8(u8::from(ws.any_reply));
            e.put_u8(u8::from(ws.times));
            e.put_u32(ws.replies.len() as u32);
            for t in &ws.replies {
                e.put_u64(t.0);
            }
        }
    }
}

fn get_poll(d: &mut Decoder<'_>) -> Result<Poll, WireError> {
    Ok(match d.u8()? {
        POLL_NEXT => Poll::Next,
        POLL_DONE => Poll::Done,
        POLL_WAIT => {
            let mut ws = WaitSet::new();
            ws.requests = d.u8()? != 0;
            ws.any_reply = d.u8()? != 0;
            ws.times = d.u8()? != 0;
            for t in counted(d, MAX_HOST_ITEMS, host_snap_err, |d| d.u64())? {
                ws.replies.insert(CallToken(t));
            }
            Poll::Wait(ws)
        }
        _ => return Err(host_snap_err()),
    })
}

fn host_snap_err() -> WireError {
    WireError::malformed("malformed host snapshot")
}

impl ServiceExecutor {
    /// Serializes the whole host: the service's own snapshot plus every
    /// piece of deterministic host state a recovered replica needs to
    /// resume mid-conversation — the reply-handle table, outcall token
    /// maps, the queued (not yet admitted) events in agreed order, the
    /// declared wait set, the raw RNG state (restored in O(1), never by
    /// replaying the draw history), and the engine's message-id counter.
    /// The maps are ordered and walked in key order, so correct replicas
    /// produce byte-identical snapshots at the same boundary.
    fn encode_host(&self) -> Vec<u8> {
        let st = &self.state;
        let mut e = Encoder::new();
        // Version 2: the RNG is stored as raw state bytes (v1 stored a
        // seed + draw count to replay).
        e.put_u8(2);
        e.put_bytes(&self.service.snapshot());
        e.put_u64(st.next_token);
        e.put_bytes(&st.rng.state_bytes());
        e.put_u64(st.engine.id_counter());
        e.put_u32(st.handles.len() as u32);
        for (id, h) in &st.handles {
            e.put_str(id);
            e.put_u32(h.caller.0);
            e.put_u64(h.req_no);
        }
        e.put_u32(st.calls.len() as u32);
        for (c, t) in &st.calls {
            e.put_u64(*c);
            e.put_u64(t.0);
        }
        e.put_u32(st.token_msg.len() as u32);
        for (t, m) in &st.token_msg {
            e.put_u64(t.0);
            e.put_str(m);
        }
        put_poll(&mut e, &self.wait);
        e.put_u32(self.queue.len() as u32);
        for ev in &self.queue {
            put_event(&mut e, ev);
        }
        e.finish().to_vec()
    }

    fn decode_host(&mut self, snapshot: &[u8]) -> Result<(), WireError> {
        let mut d = Decoder::new(snapshot);
        if d.u8()? != 2 {
            return Err(host_snap_err());
        }
        let service_snap = d.bytes()?;
        let next_token = d.u64()?;
        let rng_state = d.bytes()?;
        if rng_state.len() != 32 {
            return Err(host_snap_err());
        }
        let id_counter = d.u64()?;
        let handles: BTreeMap<String, RequestHandle> =
            counted(&mut d, MAX_HOST_ITEMS, host_snap_err, |d| {
                let id = d.str()?;
                let caller = pws_perpetual::GroupId(d.u32()?);
                let req_no = d.u64()?;
                Ok((id, RequestHandle { caller, req_no }))
            })?
            .into_iter()
            .collect();
        let calls: BTreeMap<u64, CallToken> =
            counted(&mut d, MAX_HOST_ITEMS, host_snap_err, |d| {
                Ok((d.u64()?, CallToken(d.u64()?)))
            })?
            .into_iter()
            .collect();
        let token_msg: BTreeMap<CallToken, String> =
            counted(&mut d, MAX_HOST_ITEMS, host_snap_err, |d| {
                let t = CallToken(d.u64()?);
                Ok((t, d.str()?))
            })?
            .into_iter()
            .collect();
        let wait = get_poll(&mut d)?;
        let queue: VecDeque<WsEvent> =
            counted(&mut d, MAX_HOST_ITEMS, host_snap_err, get_event)?.into();
        d.finish()?;

        // Everything parsed; commit.
        self.service.restore(&service_snap);
        let st = &mut self.state;
        st.next_token = next_token;
        // Restore the generator from its raw state: the agreed random
        // stream continues exactly where the checkpointed replica left it,
        // in O(1) regardless of how many values were ever drawn.
        let mut seed = [0u8; 32];
        seed.copy_from_slice(&rng_state);
        st.rng = StdRng::from_seed(seed);
        st.engine.set_id_counter(id_counter);
        st.handles = handles;
        st.calls = calls;
        st.token_msg = token_msg;
        st.failed_sends.clear();
        self.wait = wait;
        self.queue = queue;
        Ok(())
    }
}

impl Executor for ServiceExecutor {
    fn snapshot(&self) -> Vec<u8> {
        self.encode_host()
    }

    fn restore(&mut self, snapshot: &[u8]) {
        if let Err(e) = self.decode_host(snapshot) {
            // The snapshot digest was vouched for by f+1 replicas before
            // installation, so this is a local serialization bug; failing
            // loudly beats silent divergence.
            panic!("verified host snapshot failed to decode: {e}");
        }
    }

    fn on_event(&mut self, ev: AppEvent, out: &mut AppOutput) {
        // A finished service ignores events outright: no demarshal cost,
        // no bookkeeping growth.
        if self.wait == Poll::Done {
            return;
        }
        match ev {
            AppEvent::Init { seed } => {
                self.state.rng = StdRng::seed_from_u64(seed);
                self.queue.push_back(WsEvent::Init { seed });
            }
            AppEvent::Request { handle, payload } => {
                out.spend(self.state.ws_cost.demarshal_cost(payload.len()));
                // Config-flagged requests (transaction/resharding records)
                // carry the Perpetual config marker; the envelope inside is
                // ordinary SOAP.
                let soap = pws_perpetual::strip_config_payload(&payload).unwrap_or(&payload);
                if let Ok(mut request) = MessageContext::from_bytes(soap) {
                    let id = match &request.addressing().message_id {
                        Some(id) => id.clone(),
                        None => {
                            let id = format!(
                                "{ANON_MSG_ID_PREFIX}{}:{}",
                                handle.caller.0, handle.req_no
                            );
                            request.addressing_mut().message_id = Some(id.clone());
                            id
                        }
                    };
                    self.state.handles.insert(id, handle);
                    self.queue.push_back(WsEvent::Request { request });
                } // malformed requests are dropped identically everywhere
            }
            AppEvent::Reply { call, payload } => {
                out.spend(self.state.ws_cost.demarshal_cost(payload.len()));
                let Some(token) = self.state.calls.remove(&call.0) else {
                    return;
                };
                self.state.token_msg.remove(&token);
                if let Ok(reply) = MessageContext::from_bytes(&payload) {
                    self.queue.push_back(WsEvent::Reply { token, reply });
                }
            }
            AppEvent::Aborted { call } => {
                let Some(token) = self.state.calls.remove(&call.0) else {
                    return;
                };
                let ev = self.abort_fault_with(token, "request aborted by Perpetual-WS timeout");
                self.queue.push_back(ev);
            }
            AppEvent::Time { token, millis } => {
                self.queue.push_back(WsEvent::Time {
                    token: TimeToken(token),
                    millis,
                });
            }
        }
        self.drain(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pws_perpetual::GroupId;
    use pws_soap::XmlNode;

    fn uris() -> Arc<UriMap> {
        let mut m = UriMap::default();
        m.insert("bank", GroupId(3));
        Arc::new(m)
    }

    fn request_bytes(id: &str, op: &str, text: &str) -> bytes::Bytes {
        let mut mc = MessageContext::request("urn:svc:store", op);
        mc.addressing_mut().message_id = Some(id.into());
        mc.addressing_mut().reply_to = Some("urn:svc:caller".into());
        mc.body_mut().name = op.into();
        mc.body_mut().text = text.into();
        mc.to_bytes().unwrap()
    }

    /// Records every delivered event kind; issues one call on Init.
    struct Recorder {
        events: Vec<String>,
        poll: Poll,
    }
    impl Service for Recorder {
        fn on_event(&mut self, ev: WsEvent, ctx: &mut ServiceCtx<'_>) -> Poll {
            match ev {
                WsEvent::Init { .. } => {
                    let mut req = MessageContext::request("urn:svc:bank", "check");
                    req.options_mut().set_timeout_millis(1000);
                    let t = ctx.send(req);
                    self.events.push(format!("init->{t:?}"));
                }
                WsEvent::Request { request } => {
                    self.events.push(format!("req:{}", request.body().name));
                    let reply = request.reply_with("", XmlNode::new("ok"));
                    ctx.reply(reply, &request);
                }
                WsEvent::Reply { token, reply } => {
                    let kind = if reply.envelope().as_fault().is_some() {
                        "fault"
                    } else {
                        "ok"
                    };
                    self.events.push(format!("reply:{token:?}:{kind}"));
                }
                WsEvent::Time { millis, .. } => self.events.push(format!("time:{millis}")),
            }
            self.poll.clone()
        }
    }

    #[test]
    fn init_issues_call_with_timeout() {
        let svc = Recorder {
            events: Vec::new(),
            poll: Poll::Next,
        };
        let mut exec = ServiceExecutor::new(Box::new(svc), "store", uris(), WsCostModel::FREE);
        let mut out = AppOutput::new(0, 0);
        exec.on_event(AppEvent::Init { seed: 5 }, &mut out);
        let calls: Vec<_> = out
            .cmds()
            .iter()
            .filter(|c| matches!(c, pws_perpetual::AppCmd::Call { .. }))
            .collect();
        assert_eq!(calls.len(), 1);
        if let pws_perpetual::AppCmd::Call {
            target, timeout, ..
        } = calls[0]
        {
            assert_eq!(*target, GroupId(3));
            assert_eq!(*timeout, Some(SimDuration::from_millis(1000)));
        }
        let r = exec.service_mut::<Recorder>().unwrap();
        assert_eq!(r.events, vec!["init->out#0"]);
    }

    #[test]
    fn unknown_endpoint_aborts_as_fault_reply() {
        let svc = |ev: WsEvent, ctx: &mut ServiceCtx<'_>| match ev {
            WsEvent::Init { .. } => {
                let t = ctx.send(MessageContext::request("urn:svc:nowhere", "op"));
                Poll::reply(t)
            }
            WsEvent::Reply { reply, .. } => {
                assert!(reply.envelope().as_fault().is_some(), "abort is a fault");
                Poll::Done
            }
            _ => Poll::Next,
        };
        let mut exec = ServiceExecutor::new(Box::new(svc), "store", uris(), WsCostModel::FREE);
        let mut out = AppOutput::new(0, 0);
        exec.on_event(AppEvent::Init { seed: 5 }, &mut out);
        assert!(
            out.cmds()
                .iter()
                .all(|c| !matches!(c, pws_perpetual::AppCmd::Call { .. })),
            "no call issued for unknown endpoint"
        );
        assert!(exec.is_done(), "the abort fault resumed the continuation");
    }

    #[test]
    fn wait_set_holds_back_unadmitted_events() {
        // The service waits only on its outcall's reply; a request arriving
        // first stays queued and is delivered after interest widens.
        let svc = Recorder {
            events: Vec::new(),
            poll: Poll::Next,
        };
        let mut exec = ServiceExecutor::new(Box::new(svc), "store", uris(), WsCostModel::FREE);
        let mut out = AppOutput::new(0, 0);
        exec.on_event(AppEvent::Init { seed: 5 }, &mut out);
        // Narrow the wait to the outcall's reply only.
        exec.service_mut::<Recorder>().unwrap().poll = Poll::reply(CallToken(0));
        exec.wait = Poll::Wait(crate::api::WaitSet::new().reply(CallToken(0)));
        let h = RequestHandle {
            caller: GroupId(9),
            req_no: 1,
        };
        exec.on_event(
            AppEvent::Request {
                handle: h,
                payload: request_bytes("m1", "op", "x"),
            },
            &mut out,
        );
        assert_eq!(
            exec.service_mut::<Recorder>().unwrap().events.len(),
            1,
            "request held back while waiting on the reply"
        );
        // Once the reply arrives the service widens to Next, so the queued
        // request is delivered in the same drain — reply first (agreed
        // order among admitted events), then the request.
        exec.service_mut::<Recorder>().unwrap().poll = Poll::Next;
        let reply_payload = {
            let mut mc = MessageContext::request("urn:svc:store", "checkResponse");
            mc.addressing_mut().relates_to = Some("whatever".into());
            mc.to_bytes().unwrap()
        };
        exec.on_event(
            AppEvent::Reply {
                call: pws_perpetual::CallId(0),
                payload: reply_payload,
            },
            &mut out,
        );
        let r = exec.service_mut::<Recorder>().unwrap();
        assert_eq!(r.events, vec!["init->out#0", "reply:out#0:ok", "req:op"]);
    }

    #[test]
    fn done_discards_queued_and_future_events() {
        let svc = |ev: WsEvent, _ctx: &mut ServiceCtx<'_>| match ev {
            WsEvent::Init { .. } => Poll::Done,
            _ => panic!("no event may reach a Done service"),
        };
        let mut exec = ServiceExecutor::new(Box::new(svc), "x", uris(), WsCostModel::FREE);
        let mut out = AppOutput::new(0, 0);
        exec.on_event(AppEvent::Init { seed: 1 }, &mut out);
        assert!(exec.is_done());
        exec.on_event(
            AppEvent::Time {
                token: 0,
                millis: 1,
            },
            &mut out,
        );
        exec.on_event(
            AppEvent::Request {
                handle: RequestHandle {
                    caller: GroupId(2),
                    req_no: 0,
                },
                payload: request_bytes("m1", "op", ""),
            },
            &mut out,
        );
        assert!(exec.is_done());
    }

    #[test]
    fn reply_consumes_the_request_handle() {
        let svc = Recorder {
            events: Vec::new(),
            poll: Poll::Next,
        };
        let mut exec = ServiceExecutor::new(Box::new(svc), "store", uris(), WsCostModel::FREE);
        let mut out = AppOutput::new(0, 0);
        exec.on_event(AppEvent::Init { seed: 1 }, &mut out);
        exec.on_event(
            AppEvent::Request {
                handle: RequestHandle {
                    caller: GroupId(2),
                    req_no: 5,
                },
                payload: request_bytes("req-1", "op", ""),
            },
            &mut out,
        );
        let replies = out
            .cmds()
            .iter()
            .filter(|c| matches!(c, pws_perpetual::AppCmd::Reply { to, .. } if to.req_no == 5))
            .count();
        assert_eq!(replies, 1);
        assert!(exec.state.handles.is_empty(), "handle consumed on reply");
    }

    #[test]
    fn request_without_message_id_is_still_repliable() {
        let svc = Recorder {
            events: Vec::new(),
            poll: Poll::Next,
        };
        let mut exec = ServiceExecutor::new(Box::new(svc), "store", uris(), WsCostModel::FREE);
        let mut out = AppOutput::new(0, 0);
        exec.on_event(AppEvent::Init { seed: 1 }, &mut out);
        let mut mc = MessageContext::request("urn:svc:store", "op");
        mc.addressing_mut().reply_to = Some("urn:svc:caller".into());
        assert!(mc.addressing().message_id.is_none());
        exec.on_event(
            AppEvent::Request {
                handle: RequestHandle {
                    caller: GroupId(4),
                    req_no: 9,
                },
                payload: mc.to_bytes().unwrap(),
            },
            &mut out,
        );
        let reply = out
            .cmds()
            .iter()
            .find_map(|c| match c {
                pws_perpetual::AppCmd::Reply { to, payload } if to.req_no == 9 => {
                    Some(MessageContext::from_bytes(payload).unwrap())
                }
                _ => None,
            })
            .expect("id-less request still answered via its handle");
        // The synthetic id stays off the wire: no fabricated RelatesTo.
        assert_eq!(reply.addressing().relates_to, None);
    }

    #[test]
    fn done_service_pays_nothing_for_later_events() {
        let svc = |ev: WsEvent, _ctx: &mut ServiceCtx<'_>| match ev {
            WsEvent::Init { .. } => Poll::Done,
            _ => unreachable!(),
        };
        let mut exec = ServiceExecutor::new(
            Box::new(svc),
            "x",
            uris(),
            WsCostModel::DEFAULT, // nonzero demarshal cost
        );
        let mut out = AppOutput::new(0, 0);
        exec.on_event(AppEvent::Init { seed: 1 }, &mut out);
        assert!(exec.is_done());
        exec.on_event(
            AppEvent::Request {
                handle: RequestHandle {
                    caller: GroupId(2),
                    req_no: 0,
                },
                payload: request_bytes("m1", "op", ""),
            },
            &mut out,
        );
        assert!(
            out.cmds()
                .iter()
                .all(|c| !matches!(c, pws_perpetual::AppCmd::Spend(_))),
            "no demarshal spend after Done: {:?}",
            out.cmds()
        );
        assert!(exec.state.handles.is_empty(), "no bookkeeping growth");
    }

    #[test]
    fn agreed_time_round_trips_with_token() {
        let svc = |ev: WsEvent, ctx: &mut ServiceCtx<'_>| match ev {
            WsEvent::Init { .. } => {
                let t = ctx.query_time();
                assert_eq!(t, TimeToken(0));
                Poll::time()
            }
            WsEvent::Time { token, millis } => {
                assert_eq!(token, TimeToken(0));
                assert_eq!(millis, 777);
                Poll::Done
            }
            _ => panic!("unexpected event"),
        };
        let mut exec = ServiceExecutor::new(Box::new(svc), "x", uris(), WsCostModel::FREE);
        let mut out = AppOutput::new(0, 0);
        exec.on_event(AppEvent::Init { seed: 1 }, &mut out);
        assert!(out
            .cmds()
            .iter()
            .any(|c| matches!(c, pws_perpetual::AppCmd::QueryTime { token: 0 })));
        exec.on_event(
            AppEvent::Time {
                token: 0,
                millis: 777,
            },
            &mut out,
        );
        assert!(exec.is_done());
    }

    /// A stateful service with a real snapshot/restore implementation.
    struct CountingService {
        count: u64,
    }
    impl Service for CountingService {
        fn snapshot(&self) -> Vec<u8> {
            self.count.to_be_bytes().to_vec()
        }
        fn restore(&mut self, snapshot: &[u8]) {
            let mut b = [0u8; 8];
            b.copy_from_slice(snapshot);
            self.count = u64::from_be_bytes(b);
        }
        fn on_event(&mut self, ev: WsEvent, ctx: &mut ServiceCtx<'_>) -> Poll {
            if let WsEvent::Request { request } = ev {
                self.count += 1 + ctx.random_u64() % 2;
                let reply = request.reply_with(
                    "",
                    pws_soap::XmlNode::new("n").with_text(self.count.to_string()),
                );
                ctx.reply(reply, &request);
            }
            Poll::request()
        }
    }

    #[test]
    fn host_snapshot_restores_into_an_identical_replica() {
        let mk = || {
            ServiceExecutor::new(
                Box::new(CountingService { count: 0 }),
                "ctr",
                uris(),
                WsCostModel::FREE,
            )
        };
        let mut original = mk();
        let mut out = AppOutput::new(0, 0);
        original.on_event(AppEvent::Init { seed: 11 }, &mut out);
        for i in 0..3 {
            original.on_event(
                AppEvent::Request {
                    handle: RequestHandle {
                        caller: GroupId(9),
                        req_no: i,
                    },
                    payload: request_bytes(&format!("m{i}"), "op", "x"),
                },
                &mut out,
            );
        }
        let snap = original.snapshot();

        // A blank replica restores and must be byte-identical state-wise...
        let mut recovered = mk();
        recovered.restore(&snap);
        assert_eq!(recovered.snapshot(), snap, "restore is a fixed point");
        assert_eq!(
            recovered.service_mut::<CountingService>().unwrap().count,
            original.service_mut::<CountingService>().unwrap().count
        );

        // ...and behave identically from here on (same RNG position, same
        // reply payloads, same assigned ids).
        let next = |exec: &mut ServiceExecutor| {
            let mut out = AppOutput::new(10, 10);
            exec.on_event(
                AppEvent::Request {
                    handle: RequestHandle {
                        caller: GroupId(9),
                        req_no: 99,
                    },
                    payload: request_bytes("m99", "op", "x"),
                },
                &mut out,
            );
            format!("{:?}", out.cmds())
        };
        assert_eq!(next(&mut original), next(&mut recovered));
    }

    #[test]
    fn rng_restore_continues_the_stream_after_many_draws() {
        // The snapshot carries the raw RNG state, not a draw count to
        // replay: restoring after a long drawing history must be exact
        // (and O(1), not O(draws)).
        let mk = || {
            ServiceExecutor::new(
                Box::new(CountingService { count: 0 }),
                "ctr",
                uris(),
                WsCostModel::FREE,
            )
        };
        let mut original = mk();
        let mut out = AppOutput::new(0, 0);
        original.on_event(AppEvent::Init { seed: 7 }, &mut out);
        for _ in 0..50_000 {
            original.state.rng.next_u64();
        }
        let snap = original.snapshot();
        let mut recovered = mk();
        recovered.restore(&snap);
        for _ in 0..16 {
            assert_eq!(
                original.state.rng.next_u64(),
                recovered.state.rng.next_u64(),
                "restored stream diverged"
            );
        }
    }

    #[test]
    fn host_snapshot_preserves_queued_events_and_wait_state() {
        // A service waiting on a reply with a request held back in the
        // queue: the queue and wait set must survive the round-trip.
        let svc = Recorder {
            events: Vec::new(),
            poll: Poll::Next,
        };
        let mut exec = ServiceExecutor::new(Box::new(svc), "store", uris(), WsCostModel::FREE);
        let mut out = AppOutput::new(0, 0);
        exec.on_event(AppEvent::Init { seed: 5 }, &mut out);
        exec.service_mut::<Recorder>().unwrap().poll = Poll::reply(CallToken(0));
        exec.wait = Poll::Wait(crate::api::WaitSet::new().reply(CallToken(0)));
        exec.on_event(
            AppEvent::Request {
                handle: RequestHandle {
                    caller: GroupId(9),
                    req_no: 1,
                },
                payload: request_bytes("m1", "op", "x"),
            },
            &mut out,
        );
        assert_eq!(exec.queue.len(), 1, "request held back");
        let snap = exec.snapshot();

        let mut recovered = ServiceExecutor::new(
            Box::new(Recorder {
                events: Vec::new(),
                poll: Poll::Next,
            }),
            "store",
            uris(),
            WsCostModel::FREE,
        );
        recovered.restore(&snap);
        assert_eq!(recovered.queue.len(), 1, "queued event survived");
        assert_eq!(recovered.wait, Poll::reply(CallToken(0)), "wait survived");
        assert_eq!(recovered.snapshot(), snap);
    }

    #[test]
    fn rng_is_seeded_from_init_identically() {
        let mk = || {
            let svc = |_ev: WsEvent, _ctx: &mut ServiceCtx<'_>| Poll::Next;
            ServiceExecutor::new(Box::new(svc), "x", uris(), WsCostModel::FREE)
        };
        let mut a = mk();
        let mut b = mk();
        let mut out = AppOutput::new(0, 0);
        a.on_event(AppEvent::Init { seed: 9 }, &mut out);
        b.on_event(AppEvent::Init { seed: 9 }, &mut out);
        assert_eq!(a.state.rng.next_u64(), b.state.rng.next_u64());
        assert_eq!(a.state.rng.next_u64(), b.state.rng.next_u64());
    }
}
