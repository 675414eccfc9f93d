//! XML marshaling costs.
//!
//! The paper's §6.4 observes that crypto at the ChannelAdapter dwarfs XML
//! marshal/demarshal at the Axis2 layer; these costs exist so that claim is
//! *represented* in the model rather than assumed.

use pws_simnet::SimDuration;

/// CPU cost of serializing/parsing SOAP envelopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WsCostModel {
    /// Fixed cost to marshal an envelope.
    pub(crate) marshal: SimDuration,
    /// Additional marshal cost per KiB of envelope.
    pub(crate) marshal_per_kb: SimDuration,
    /// Fixed cost to demarshal an envelope.
    pub(crate) demarshal: SimDuration,
    /// Additional demarshal cost per KiB.
    pub(crate) demarshal_per_kb: SimDuration,
}

impl WsCostModel {
    /// Calibrated default: an order of magnitude below the crypto costs in
    /// [`pws_perpetual::CostModel::DEFAULT`], per the paper's observation.
    pub(crate) const DEFAULT: WsCostModel = WsCostModel {
        marshal: SimDuration::from_micros(3),
        marshal_per_kb: SimDuration::from_micros(2),
        demarshal: SimDuration::from_micros(4),
        demarshal_per_kb: SimDuration::from_micros(3),
    };

    /// Zero-cost model for protocol tests.
    pub const FREE: WsCostModel = WsCostModel {
        marshal: SimDuration::ZERO,
        marshal_per_kb: SimDuration::ZERO,
        demarshal: SimDuration::ZERO,
        demarshal_per_kb: SimDuration::ZERO,
    };

    /// Cost of marshaling `len` bytes.
    pub(crate) fn marshal_cost(&self, len: usize) -> SimDuration {
        self.marshal + self.marshal_per_kb.saturating_mul(len as u64 / 1024)
    }

    /// Cost of demarshaling `len` bytes.
    pub(crate) fn demarshal_cost(&self, len: usize) -> SimDuration {
        self.demarshal + self.demarshal_per_kb.saturating_mul(len as u64 / 1024)
    }
}

impl Default for WsCostModel {
    fn default() -> Self {
        WsCostModel::DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pws_perpetual::CostModel;

    #[test]
    fn marshal_is_cheaper_than_crypto() {
        // The design claim from §6.4 holds in the default models.
        let ws = WsCostModel::DEFAULT;
        let crypto = CostModel::DEFAULT;
        assert!(ws.marshal_cost(512) < crypto.send_cost(512, 0));
        assert!(ws.demarshal_cost(512) < crypto.recv_cost(512, 0));
    }

    #[test]
    fn costs_scale_with_size() {
        let ws = WsCostModel::DEFAULT;
        assert!(ws.marshal_cost(64 * 1024) > ws.marshal_cost(100));
        assert_eq!(ws.marshal_cost(100), ws.marshal);
        assert_eq!(WsCostModel::FREE.marshal_cost(1 << 20), SimDuration::ZERO);
    }
}
