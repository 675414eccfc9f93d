//! The Payment Gateway Emulator (PGE): the middle tier of Fig. 5,
//! replicated with Perpetual-WS. "The PGE calls another Perpetual-WS Web
//! Service that simulates the actions of a credit card issuing bank"
//! (§6.1). The asynchronous variant keeps serving new authorizations while
//! bank calls are in flight; the synchronous variant waits per request
//! (incoming authorizations queue meanwhile, via the wait set) — the
//! comparison behind the up-to-4 % gain reported in §6.4.

use perpetual_ws::{CallToken, Poll, Service, ServiceCtx, WsEvent};
use pws_simnet::SimDuration;
use pws_soap::{MessageContext, XmlNode};
use std::collections::BTreeMap;

/// Local bookkeeping cost per authorization. The paper disregarded the
/// TPC-W minimum execution time for the PGE "to ensure that the effects of
/// replication were not masked"; we keep it similarly small.
pub(crate) const PGE_PROCESSING: SimDuration = SimDuration::from_micros(800);

/// The payment gateway service.
#[derive(Debug)]
pub struct Pge {
    bank_uri: String,
    synchronous: bool,
    /// Authorizations whose bank call is in flight, by call token.
    pending: BTreeMap<CallToken, MessageContext>,
}

impl Pge {
    /// An asynchronous PGE forwarding to service `bank`.
    pub fn new(bank: &str) -> Self {
        Pge {
            bank_uri: format!("urn:svc:{bank}"),
            synchronous: false,
            pending: BTreeMap::new(),
        }
    }

    /// The synchronous variant (§6.4 comparison).
    pub(crate) fn synchronous(bank: &str) -> Self {
        Pge {
            bank_uri: format!("urn:svc:{bank}"),
            synchronous: true,
            pending: BTreeMap::new(),
        }
    }

    fn bank_request(&self, amount: &str) -> MessageContext {
        let mut mc = MessageContext::request(&self.bank_uri, "validate");
        mc.body_mut().name = "validate".into();
        mc.body_mut().text = amount.into();
        mc
    }

    fn verdict_reply(original: &MessageContext, bank_reply: &MessageContext) -> MessageContext {
        let verdict =
            if bank_reply.envelope().as_fault().is_none() && bank_reply.body().text == "approved" {
                "approved"
            } else {
                "declined"
            };
        original.reply_with("", XmlNode::new("authorizeResult").with_text(verdict))
    }

    /// The continuation: the synchronous variant admits only its one
    /// outstanding bank reply (new requests queue); the asynchronous
    /// variant takes whatever the agreed order delivers next. `pending` is
    /// a BTreeMap so the (at most one, for sync) token choice is
    /// deterministic and identical across replicas.
    fn continuation(&self) -> Poll {
        if self.synchronous {
            match self.pending.keys().next() {
                Some(&token) => Poll::reply(token),
                None => Poll::request(),
            }
        } else {
            Poll::Next
        }
    }
}

impl Service for Pge {
    fn on_event(&mut self, ev: WsEvent, ctx: &mut ServiceCtx<'_>) -> Poll {
        match ev {
            WsEvent::Request { request } => {
                ctx.spend(PGE_PROCESSING);
                let token = ctx.send(self.bank_request(&request.body().text));
                self.pending.insert(token, request);
            }
            WsEvent::Reply { token, reply } => {
                if let Some(original) = self.pending.remove(&token) {
                    let verdict = Pge::verdict_reply(&original, &reply);
                    ctx.reply(verdict, &original);
                }
            }
            WsEvent::Init { .. } | WsEvent::Time { .. } => {}
        }
        self.continuation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_select_mode() {
        let a = Pge::new("bank");
        assert!(!a.synchronous);
        assert_eq!(a.bank_uri, "urn:svc:bank");
        let s = Pge::synchronous("bank");
        assert!(s.synchronous);
    }

    #[test]
    fn verdict_maps_bank_answers() {
        let mut orig = MessageContext::request("urn:svc:pge", "authorize");
        orig.addressing_mut().message_id = Some("m".into());
        orig.addressing_mut().reply_to = Some("urn:svc:store".into());
        let mut ok = MessageContext::request("urn:x", "r");
        ok.body_mut().text = "approved".into();
        assert_eq!(Pge::verdict_reply(&orig, &ok).body().text, "approved");
        let mut no = MessageContext::request("urn:x", "r");
        no.body_mut().text = "declined".into();
        assert_eq!(Pge::verdict_reply(&orig, &no).body().text, "declined");
        // Faults (aborted bank call) are declines.
        let fault = MessageContext::from_envelope(pws_soap::Envelope::fault(&pws_soap::Fault {
            code: "c".into(),
            reason: "r".into(),
        }));
        assert_eq!(Pge::verdict_reply(&orig, &fault).body().text, "declined");
    }

    #[test]
    fn sync_variant_waits_on_its_one_bank_call() {
        let mut pge = Pge::synchronous("bank");
        assert_eq!(pge.continuation(), Poll::request(), "idle: serve requests");
        pge.pending.insert(
            CallToken::from_raw(7),
            MessageContext::request("urn:x", "a"),
        );
        assert_eq!(
            pge.continuation(),
            Poll::reply(CallToken::from_raw(7)),
            "waiting: only the bank reply wakes it; requests queue"
        );
        let a = Pge::new("bank");
        assert_eq!(a.continuation(), Poll::Next, "async takes anything");
    }
}
