//! Remote Browser Emulators (RBEs): closed-loop clients that walk the
//! TPC-W page graph with exponential think times (§6.1).

use crate::model::{next_interaction, Interaction};
use bytes::Bytes;
use perpetual_ws::{GroupId, RendezvousRouter, Router};
use pws_perpetual::{CallId, ClientCore, ClientEvent};
use pws_simnet::{Context, Node, NodeId, SimDuration, SimTime, TimerId};
use pws_soap::engine::Engine;
use pws_soap::MessageContext;

/// One emulated browser session.
pub struct Rbe {
    core: ClientCore,
    bookstore: GroupId,
    bookstore_uri: String,
    engine: Engine,
    session: u64,
    page: Interaction,
    think_mean: SimDuration,
    /// Send browse pages down the read-only fast path (mutating pages
    /// always take the ordered path).
    read_only: bool,
    /// A partner session on a *different* bookstore shard: buy-confirm and
    /// shopping-cart pages then name both customers (`a|b`), turning them
    /// into cross-shard transactions.
    cross_partner: Option<u64>,
    /// Cross-shard buy-confirms this browser saw commit.
    pub(crate) cross_buy_commits: u64,
    /// Interactions completed (including warm-up).
    pub completed: u64,
    /// Completion timestamps, for windowed WIPS computation.
    pub(crate) completions: Vec<SimTime>,
    outstanding: Option<(CallId, SimTime)>,
    think_timer: Option<TimerId>,
    sweep_timer: Option<TimerId>,
}

impl std::fmt::Debug for Rbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rbe")
            .field("session", &self.session)
            .field("completed", &self.completed)
            .finish_non_exhaustive()
    }
}

const SWEEP: SimDuration = SimDuration::from_millis(1_500);

impl Rbe {
    /// Creates an RBE with the given session id and think-time mean.
    pub fn new(
        core: ClientCore,
        bookstore: GroupId,
        session: u64,
        think_mean: SimDuration,
    ) -> Self {
        Rbe {
            core,
            bookstore,
            bookstore_uri: "urn:svc:bookstore".to_owned(),
            engine: Engine::with_id_prefix(format!("rbe{session}")),
            session,
            page: Interaction::Home,
            think_mean,
            read_only: false,
            cross_partner: None,
            cross_buy_commits: 0,
            completed: 0,
            completions: Vec::new(),
            outstanding: None,
            think_timer: None,
            sweep_timer: None,
        }
    }

    /// Routes browse pages through the read-only fast path.
    pub fn with_read_only(mut self, on: bool) -> Self {
        self.read_only = on;
        self
    }

    /// Marks buy-confirm / shopping-cart pages as *multi-customer*: each
    /// names this session plus a deterministic partner session owned by a
    /// different shard (of `shards`), so the store must run them as
    /// cross-shard transactions. Partner probes start at a per-session
    /// offset, so concurrent browsers never contend on one partner key.
    pub(crate) fn with_cross_shard(mut self, shards: u32) -> Self {
        let router = RendezvousRouter::new();
        let own = router.shard(&self.session.to_string(), shards);
        let start = 1_000 + self.session * 101;
        self.cross_partner =
            (start..start + 64).find(|p| router.shard(&p.to_string(), shards) != own);
        self
    }

    fn schedule_think(&mut self, ctx: &mut Context<'_>) {
        let think = ctx.rng().exponential(self.think_mean.as_micros() as f64);
        self.think_timer = Some(ctx.set_timer(SimDuration::from_micros(think as u64)));
    }

    fn fire_next_page(&mut self, ctx: &mut Context<'_>) {
        self.page = next_interaction(self.page, ctx.rng());
        let mut mc = MessageContext::request(&self.bookstore_uri, self.page.op_name());
        mc.body_mut().name = self.page.op_name().to_owned();
        mc.body_mut().text = match (self.cross_partner, self.page) {
            (Some(p), Interaction::BuyConfirm | Interaction::ShoppingCart) => {
                format!("{}|{p}", self.session)
            }
            _ => self.session.to_string(),
        };
        mc.addressing_mut().reply_to = Some(format!("urn:rbe:{}", self.session));
        if self.engine.prepare_out(&mut mc).is_err() {
            return;
        }
        let Ok(bytes) = mc.to_bytes() else { return };
        let call = if self.read_only && self.page.is_read_only() {
            self.core.call_read_only(ctx, self.bookstore, bytes)
        } else {
            self.core.call(ctx, self.bookstore, bytes)
        };
        self.outstanding = Some((call, ctx.now()));
        if self.sweep_timer.is_none() {
            self.sweep_timer = Some(ctx.set_timer(SWEEP));
        }
    }
}

impl Node for Rbe {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.schedule_think(ctx);
    }

    fn on_message(&mut self, _from: NodeId, msg: Bytes, ctx: &mut Context<'_>) {
        if let Some(ClientEvent::Reply { call, payload }) = self.core.on_message(&msg, ctx) {
            if self.outstanding.map(|(c, _)| c) == Some(call) {
                if self.cross_partner.is_some() {
                    if let Ok(mc) = MessageContext::from_bytes(&payload) {
                        if mc.body().name == "buyConfirmResult"
                            && mc.body().text.starts_with("txn=commit")
                        {
                            self.cross_buy_commits += 1;
                        }
                    }
                }
                self.outstanding = None;
                self.completed += 1;
                self.completions.push(ctx.now());
                ctx.metrics().incr("tpcw.web_interactions");
                ctx.metrics()
                    .incr(&format!("tpcw.page.{}", self.page.op_name()));
                if self.page.hits_pge() {
                    ctx.metrics().incr("tpcw.pge_interactions");
                }
                self.schedule_think(ctx);
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<'_>) {
        if Some(timer) == self.think_timer {
            self.think_timer = None;
            if self.outstanding.is_none() {
                self.fire_next_page(ctx);
            }
            return;
        }
        if Some(timer) == self.sweep_timer {
            self.sweep_timer = None;
            if let Some((call, sent)) = self.outstanding {
                if ctx.now() - sent >= SWEEP {
                    self.core.retry(ctx, call);
                }
                self.sweep_timer = Some(ctx.set_timer(SWEEP));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pws_perpetual::Topology;
    use std::sync::Arc;

    #[test]
    fn construction_defaults() {
        let mut topo = Topology::new();
        topo.register(GroupId(0), vec![NodeId::from_raw(0)]);
        topo.register(GroupId(1), vec![NodeId::from_raw(1)]);
        let core = ClientCore::new(
            GroupId(1),
            Arc::new(topo),
            1,
            pws_perpetual::CostModel::FREE,
        );
        let rbe = Rbe::new(core, GroupId(0), 7, SimDuration::from_secs(7));
        assert_eq!(rbe.session, 7);
        assert_eq!(rbe.page, Interaction::Home);
        assert_eq!(rbe.completed, 0);
    }
}
