//! The twelve TPC-W web interactions and the browsing model.
//!
//! The paper: "The benchmark simulates the operation of an online bookstore
//! with twelve distinct web pages ... Around 5-10% of the total traffic
//! received by the bookstore results in requests being issued to an
//! external Payment Gateway Emulator" (§6.1). The transition matrix below
//! is derived from the TPC-W shopping mix, tuned so the steady-state Buy
//! Confirm share sits inside that 5–10 % band (verified by a unit test).

use pws_simnet::DetRng;

/// A TPC-W web interaction (page).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum Interaction {
    /// Store home page.
    Home,
    /// New products listing.
    NewProducts,
    /// Best sellers listing.
    BestSellers,
    /// Product detail page.
    ProductDetail,
    /// Search form.
    SearchRequest,
    /// Search results.
    SearchResults,
    /// Shopping cart view/update.
    ShoppingCart,
    /// Customer registration.
    CustomerRegistration,
    /// Buy request (checkout form).
    BuyRequest,
    /// Buy confirm — triggers the PGE authorization call.
    BuyConfirm,
    /// Order inquiry form.
    OrderInquiry,
    /// Order display.
    OrderDisplay,
}

impl Interaction {
    /// All twelve interactions.
    pub(crate) const ALL: [Interaction; 12] = [
        Interaction::Home,
        Interaction::NewProducts,
        Interaction::BestSellers,
        Interaction::ProductDetail,
        Interaction::SearchRequest,
        Interaction::SearchResults,
        Interaction::ShoppingCart,
        Interaction::CustomerRegistration,
        Interaction::BuyRequest,
        Interaction::BuyConfirm,
        Interaction::OrderInquiry,
        Interaction::OrderDisplay,
    ];

    /// Wire name used in SOAP bodies.
    pub(crate) fn op_name(self) -> &'static str {
        match self {
            Interaction::Home => "home",
            Interaction::NewProducts => "newProducts",
            Interaction::BestSellers => "bestSellers",
            Interaction::ProductDetail => "productDetail",
            Interaction::SearchRequest => "searchRequest",
            Interaction::SearchResults => "searchResults",
            Interaction::ShoppingCart => "shoppingCart",
            Interaction::CustomerRegistration => "customerRegistration",
            Interaction::BuyRequest => "buyRequest",
            Interaction::BuyConfirm => "buyConfirm",
            Interaction::OrderInquiry => "orderInquiry",
            Interaction::OrderDisplay => "orderDisplay",
        }
    }

    /// Parses a wire name.
    pub(crate) fn from_op_name(s: &str) -> Option<Interaction> {
        Interaction::ALL.iter().copied().find(|i| i.op_name() == s)
    }

    /// Whether this interaction triggers a payment-gateway call.
    pub(crate) fn hits_pge(self) -> bool {
        self == Interaction::BuyConfirm
    }

    /// Whether this interaction leaves the bookstore unchanged and can
    /// travel the read-only fast path. Only the cart update and the order
    /// placement mutate store state; everything else renders from it.
    pub(crate) fn is_read_only(self) -> bool {
        !matches!(self, Interaction::ShoppingCart | Interaction::BuyConfirm)
    }
}

/// Transition weights out of each page (destinations, weight per mille).
/// Shape follows the TPC-W shopping mix: browsing pages dominate, a
/// purchase funnel Cart → BuyRequest → BuyConfirm exists from every cart
/// visit, and completed orders return home.
fn transitions(from: Interaction) -> &'static [(Interaction, u32)] {
    use Interaction::*;
    match from {
        Home => &[
            (SearchRequest, 250),
            (NewProducts, 180),
            (BestSellers, 180),
            (ProductDetail, 220),
            (OrderInquiry, 40),
            (ShoppingCart, 130),
        ],
        NewProducts => &[(ProductDetail, 600), (Home, 250), (SearchRequest, 150)],
        BestSellers => &[(ProductDetail, 600), (Home, 250), (SearchRequest, 150)],
        ProductDetail => &[
            (ShoppingCart, 450),
            (ProductDetail, 130),
            (SearchRequest, 150),
            (Home, 270),
        ],
        SearchRequest => &[(SearchResults, 900), (Home, 100)],
        SearchResults => &[(ProductDetail, 500), (SearchRequest, 250), (Home, 250)],
        ShoppingCart => &[
            (CustomerRegistration, 650),
            (ShoppingCart, 100),
            (Home, 250),
        ],
        CustomerRegistration => &[(BuyRequest, 900), (Home, 100)],
        BuyRequest => &[(BuyConfirm, 850), (Home, 150)],
        BuyConfirm => &[(Home, 1000)],
        OrderInquiry => &[(OrderDisplay, 800), (Home, 200)],
        OrderDisplay => &[(Home, 1000)],
    }
}

/// Samples the next page after `from`.
pub(crate) fn next_interaction(from: Interaction, rng: &mut DetRng) -> Interaction {
    let table = transitions(from);
    let total: u32 = table.iter().map(|(_, w)| w).sum();
    let mut pick = rng.below(total as u64) as u32;
    for (dest, w) in table {
        if pick < *w {
            return *dest;
        }
        pick -= w;
    }
    table.last().expect("nonempty").0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn twelve_distinct_pages() {
        assert_eq!(Interaction::ALL.len(), 12);
        let names: std::collections::HashSet<_> =
            Interaction::ALL.iter().map(|i| i.op_name()).collect();
        assert_eq!(names.len(), 12);
        for i in Interaction::ALL {
            assert_eq!(Interaction::from_op_name(i.op_name()), Some(i));
        }
        assert_eq!(Interaction::from_op_name("bogus"), None);
    }

    #[test]
    fn transition_weights_are_per_mille() {
        for i in Interaction::ALL {
            let total: u32 = transitions(i).iter().map(|(_, w)| w).sum();
            assert_eq!(total, 1000, "{i:?}");
        }
    }

    #[test]
    fn steady_state_pge_share_is_5_to_10_percent() {
        // Walk the chain long enough for the empirical distribution to
        // converge; the paper's claim is 5–10 % of interactions hit the PGE.
        let mut rng = DetRng::derive(42, 0);
        let mut page = Interaction::Home;
        let mut counts: HashMap<Interaction, u64> = HashMap::new();
        let steps = 200_000u64;
        for _ in 0..steps {
            page = next_interaction(page, &mut rng);
            *counts.entry(page).or_insert(0) += 1;
        }
        let pge = counts[&Interaction::BuyConfirm] as f64 / steps as f64;
        assert!(
            (0.05..=0.10).contains(&pge),
            "BuyConfirm share = {:.3} outside the paper's 5-10% band",
            pge
        );
        // Every page is reachable.
        for i in Interaction::ALL {
            assert!(
                counts.get(&i).copied().unwrap_or(0) > 0,
                "{i:?} unreachable"
            );
        }
    }

    #[test]
    fn only_buy_confirm_hits_pge() {
        assert!(Interaction::BuyConfirm.hits_pge());
        assert_eq!(Interaction::ALL.iter().filter(|i| i.hits_pge()).count(), 1);
    }

    #[test]
    fn exactly_the_two_mutating_pages_are_not_read_only() {
        let writers: Vec<_> = Interaction::ALL
            .iter()
            .copied()
            .filter(|i| !i.is_read_only())
            .collect();
        assert_eq!(
            writers,
            vec![Interaction::ShoppingCart, Interaction::BuyConfirm]
        );
    }
}
