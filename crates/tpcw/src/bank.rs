//! The credit-card issuing bank: the innermost tier of the paper's Fig. 5,
//! replicated with Perpetual-WS.

use perpetual_ws::{PassiveService, PassiveUtils};
use pws_simnet::SimDuration;
use pws_soap::{MessageContext, XmlNode};

/// Validation work the bank does per authorization (the paper uses message
/// digest calculations to simulate processing time).
pub(crate) const BANK_PROCESSING: SimDuration = SimDuration::from_micros(1_500);

/// The bank service: validates card/amount pairs deterministically.
#[derive(Debug, Default)]
pub struct Bank {
    validated: u64,
}

impl Bank {
    /// A fresh bank.
    pub fn new() -> Self {
        Bank::default()
    }

    /// Deterministic approval rule: a tiny fraction of amounts is declined
    /// so both reply paths are exercised.
    pub(crate) fn approves(amount_cents: u64) -> bool {
        amount_cents % 1000 != 13
    }
}

impl PassiveService for Bank {
    fn handle(&mut self, req: MessageContext, utils: &mut PassiveUtils) -> MessageContext {
        utils.spend(BANK_PROCESSING);
        self.validated += 1;
        let amount: u64 = req.body().text.parse().unwrap_or(0);
        let verdict = if Bank::approves(amount) {
            "approved"
        } else {
            "declined"
        };
        req.reply_with("", XmlNode::new("validateResult").with_text(verdict))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pws_perpetual::{AppEvent, AppOutput, Executor, GroupId, RequestHandle};

    #[test]
    fn approves_most_amounts() {
        let approved = (0..10_000).filter(|a| Bank::approves(*a)).count();
        assert!(approved > 9_900);
        assert!(!Bank::approves(13));
        assert!(!Bank::approves(1013));
    }

    #[test]
    fn replies_with_verdict() {
        let mut exec = perpetual_ws::ServiceExecutor::new(
            Box::new(perpetual_ws::PassiveHost::new(Box::new(Bank::new()))),
            "bank",
            std::sync::Arc::new(perpetual_ws::runtime::UriMap::default()),
            perpetual_ws::WsCostModel::FREE,
        );
        let mut out = AppOutput::new(0, 0);
        exec.on_event(AppEvent::Init { seed: 1 }, &mut out);
        let mut req = MessageContext::request("urn:svc:bank", "validate");
        req.addressing_mut().message_id = Some("m1".into());
        req.addressing_mut().reply_to = Some("urn:svc:pge".into());
        req.body_mut().text = "4200".into();
        exec.on_event(
            AppEvent::Request {
                handle: RequestHandle {
                    caller: GroupId(0),
                    req_no: 0,
                },
                payload: req.to_bytes().unwrap(),
            },
            &mut out,
        );
        let reply = out
            .cmds()
            .iter()
            .find_map(|c| match c {
                pws_perpetual::AppCmd::Reply { payload, .. } => {
                    Some(MessageContext::from_bytes(payload).unwrap())
                }
                _ => None,
            })
            .expect("bank replied");
        assert_eq!(reply.body().text, "approved");
    }
}
