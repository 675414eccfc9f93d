//! Cost constants of the digital-signature baselines.
//!
//! The paper's baselines (SWS and BFT-WS) authenticate messages with RSA
//! digital signatures, and the paper's §3 argues MACs are *three orders
//! of magnitude* cheaper — the basis for Perpetual-WS's scalability
//! claim. Implementing production RSA from scratch is out of scope and
//! irrelevant to the protocol logic, so the signature baseline exists
//! only as explicit **cost constants** for the simulation's CPU model
//! (the `ablation_crypto` bench adds them to every send and receive).
//! The default costs are calibrated to the paper's claim: signing ≈ 1000×
//! a MAC computation.

/// Simulated CPU cost of producing a signature, in microseconds.
/// ≈ 1000 × [`MAC_COMPUTE_COST_US`], per the paper's three-orders claim.
pub const SIGN_COST_US: u64 = 2_000;

/// Simulated CPU cost of verifying a signature, in microseconds.
pub const VERIFY_COST_US: u64 = 100;

/// Simulated CPU cost of computing one MAC, in microseconds.
pub const MAC_COMPUTE_COST_US: u64 = 2;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_matches_paper_claim() {
        // "MAC calculations are three orders of magnitude faster than
        // digital signature calculations" (§3).
        assert_eq!(SIGN_COST_US / MAC_COMPUTE_COST_US, 1000);
    }
}
