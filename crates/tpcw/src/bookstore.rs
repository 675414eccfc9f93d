//! The bookstore: the front tier of Fig. 5 — a poll-driven Perpetual-WS
//! service (unreplicated, like the paper's Tomcat deployment) that serves
//! the twelve TPC-W pages and calls the PGE asynchronously on Buy Confirm.

use crate::db::{page_cost, Db};
use crate::model::Interaction;
use perpetual_ws::{CallToken, Poll, Service, ServiceCtx, TxnService, WsEvent};
use pws_soap::{MessageContext, XmlNode};
use std::collections::HashMap;

/// The bookstore service.
#[derive(Debug)]
pub struct Bookstore {
    db: Db,
    pge_uri: String,
    /// Divisor on the emulated DB page costs. `1` is the paper
    /// calibration; large values emulate an in-memory front tier where
    /// protocol costs dominate page rendering.
    page_cost_scale: u32,
    /// Buy-confirms awaiting PGE authorization: call token → (original
    /// request, order id). The store keeps serving other pages while
    /// authorizations are in flight (asynchronous messaging, §6.1).
    awaiting: HashMap<CallToken, (MessageContext, u64)>,
    /// Orders placed through cross-shard transaction commits (exactly-once
    /// audit: across all shards this must equal keys-per-commit × commits).
    pub(crate) txn_orders: u64,
    /// Cart lines added through cross-shard transaction commits.
    pub(crate) txn_cart_lines: u64,
}

impl Bookstore {
    /// A bookstore with `item_count` books, authorizing through service
    /// `pge`.
    pub fn new(item_count: u32, pge: &str) -> Self {
        Bookstore {
            db: Db::new(item_count),
            pge_uri: format!("urn:svc:{pge}"),
            page_cost_scale: 1,
            awaiting: HashMap::new(),
            txn_orders: 0,
            txn_cart_lines: 0,
        }
    }

    /// Divides every emulated page cost by `scale` (an in-memory front
    /// tier for protocol-overhead benchmarks).
    pub fn with_page_cost_scale(mut self, scale: u32) -> Self {
        self.page_cost_scale = scale.max(1);
        self
    }

    fn page_reply(req: &MessageContext, page: Interaction, detail: String) -> MessageContext {
        req.reply_with(
            "",
            XmlNode::new(format!("{}Result", page.op_name())).with_text(detail),
        )
    }

    fn serve_page(&mut self, req: MessageContext, ctx: &mut ServiceCtx<'_>) {
        let Some(page) = Interaction::from_op_name(&req.body().name) else {
            // Unknown page: reply with a fault-ish body.
            let reply = req.reply_with("", XmlNode::new("error"));
            ctx.reply(reply, &req);
            return;
        };
        // Multi-customer keys (`a|b`) arriving on the ordinary path (all
        // owned here) serve the first session; cross-shard spreads never
        // reach this code — the transaction shim coordinates them.
        let session: u64 = req
            .body()
            .text
            .split('|')
            .next()
            .unwrap_or("")
            .parse()
            .unwrap_or(0);
        ctx.spend(pws_simnet::SimDuration::from_micros(
            page_cost(page).as_micros() / u64::from(self.page_cost_scale),
        ));
        match page {
            Interaction::ShoppingCart => {
                let item = (ctx.random_u64() % self.db.item_count() as u64) as u32;
                let lines = self.db.add_to_cart(session, item, 1);
                let reply = Bookstore::page_reply(&req, page, format!("lines={lines}"));
                ctx.reply(reply, &req);
            }
            Interaction::BuyConfirm => {
                let (order, total) = self.db.place_order(session);
                let mut pge_req = MessageContext::request(&self.pge_uri, "authorize");
                pge_req.body_mut().name = "authorize".into();
                pge_req.body_mut().text = total.to_string();
                let token = ctx.send(pge_req);
                self.awaiting.insert(token, (req, order));
            }
            Interaction::OrderDisplay => {
                let detail = self
                    .db
                    .last_order(session)
                    .map(|o| format!("order={},total={}", o.id, o.total_cents))
                    .unwrap_or_else(|| "none".to_owned());
                let reply = Bookstore::page_reply(&req, page, detail);
                ctx.reply(reply, &req);
            }
            _ => {
                let reply = Bookstore::page_reply(&req, page, String::new());
                ctx.reply(reply, &req);
            }
        }
    }

    fn settle_authorization(
        &mut self,
        token: CallToken,
        pge_reply: MessageContext,
        ctx: &mut ServiceCtx<'_>,
    ) {
        let Some((orig, order)) = self.awaiting.remove(&token) else {
            return;
        };
        let approved =
            pge_reply.envelope().as_fault().is_none() && pge_reply.body().text == "approved";
        if approved {
            self.db.authorize_order(order);
        }
        let verdict = if approved { "approved" } else { "declined" };
        let reply = Bookstore::page_reply(
            &orig,
            Interaction::BuyConfirm,
            format!("order={order},payment={verdict}"),
        );
        ctx.reply(reply, &orig);
    }
}

impl Service for Bookstore {
    fn on_event(&mut self, ev: WsEvent, ctx: &mut ServiceCtx<'_>) -> Poll {
        match ev {
            WsEvent::Request { request } => self.serve_page(request, ctx),
            WsEvent::Reply { token, reply } => self.settle_authorization(token, reply, ctx),
            WsEvent::Init { .. } | WsEvent::Time { .. } => {}
        }
        Poll::Next
    }
}

impl TxnService for Bookstore {
    /// Commit a multi-customer interaction on this shard's sessions: a
    /// `buyConfirm` places (and settles) one order per local session, a
    /// `shoppingCart` adds one line per local session. Anything else is a
    /// no-op with an empty detail. Deterministic: the cart item derives
    /// from the session id, not the RNG.
    fn txn_execute(&mut self, op: &str, keys: &[String]) -> String {
        let mut details = Vec::new();
        for k in keys {
            let session: u64 = k.parse().unwrap_or(0);
            match op {
                "shoppingCart" => {
                    let item = (session % u64::from(self.db.item_count().max(1))) as u32;
                    let lines = self.db.add_to_cart(session, item, 1);
                    self.txn_cart_lines += 1;
                    details.push(format!("cart:{session}={lines}"));
                }
                "buyConfirm" => {
                    let (order, total) = self.db.place_order(session);
                    // Cross-shard buys settle atomically with the commit
                    // (the 2PC already ordered the decision; no separate
                    // PGE authorization round).
                    self.db.authorize_order(order);
                    self.txn_orders += 1;
                    details.push(format!("order:{session}={order}/{total}"));
                }
                _ => {}
            }
        }
        details.join(",")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let b = Bookstore::new(100, "pge");
        assert_eq!(b.db.item_count(), 100);
        assert_eq!(b.pge_uri, "urn:svc:pge");
        assert!(b.awaiting.is_empty());
    }

    #[test]
    fn page_reply_names_result_elements() {
        let mut req = MessageContext::request("urn:svc:bookstore", "home");
        req.addressing_mut().message_id = Some("m".into());
        req.addressing_mut().reply_to = Some("urn:rbe".into());
        let r = Bookstore::page_reply(&req, Interaction::Home, "x".into());
        assert_eq!(r.body().name, "homeResult");
        assert_eq!(r.body().text, "x");
        assert_eq!(r.addressing().relates_to.as_deref(), Some("m"));
    }
}
