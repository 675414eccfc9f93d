//! The bookstore's database: in-memory tables plus a MySQL-like per-query
//! latency model (the paper co-locates a MySQL image database with the
//! bookstore; queries, not the network, dominate page cost).

use crate::model::Interaction;
use pws_simnet::SimDuration;
use std::collections::HashMap;

/// An item (book) row.
#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    /// Item id.
    pub(crate) id: u32,
    /// Title.
    pub(crate) title: String,
    /// Price in cents.
    pub(crate) price_cents: u64,
    /// Remaining stock.
    pub(crate) stock: u32,
}

/// An order row.
#[derive(Debug, Clone, PartialEq)]
pub struct Order {
    /// Order id.
    pub(crate) id: u64,
    /// Session that placed it.
    pub(crate) session: u64,
    /// (item, quantity) lines.
    pub(crate) lines: Vec<(u32, u32)>,
    /// Total in cents.
    pub(crate) total_cents: u64,
    /// Whether payment was authorized.
    pub(crate) authorized: bool,
}

/// The store database.
#[derive(Debug)]
pub struct Db {
    items: Vec<Item>,
    carts: HashMap<u64, Vec<(u32, u32)>>,
    orders: Vec<Order>,
    next_order: u64,
}

impl Db {
    /// A database populated with `item_count` books (TPC-W scales by item
    /// count; the paper's image database is modeled purely as query cost).
    pub fn new(item_count: u32) -> Self {
        let items = (0..item_count)
            .map(|id| Item {
                id,
                title: format!("Book #{id}"),
                price_cents: 500 + (id as u64 * 37) % 4500,
                stock: 1000,
            })
            .collect();
        Db {
            items,
            carts: HashMap::new(),
            orders: Vec::new(),
            next_order: 1,
        }
    }

    /// Number of items.
    pub(crate) fn item_count(&self) -> u32 {
        self.items.len() as u32
    }

    /// Looks up an item.
    pub(crate) fn item(&self, id: u32) -> Option<&Item> {
        self.items.get(id as usize)
    }

    /// Adds an item to a session's cart; returns the new line count.
    pub fn add_to_cart(&mut self, session: u64, item: u32, qty: u32) -> usize {
        let item_count = self.item_count().max(1);
        let cart = self.carts.entry(session).or_default();
        cart.push((item % item_count, qty.max(1)));
        cart.len()
    }

    /// Converts the session's cart into an order; returns its id and total.
    /// An empty cart produces a one-line default order, as the TPC-W Java
    /// implementation does for direct buy-confirm hits.
    pub fn place_order(&mut self, session: u64) -> (u64, u64) {
        let mut lines = self.carts.remove(&session).unwrap_or_default();
        if lines.is_empty() {
            lines.push((session as u32 % self.item_count().max(1), 1));
        }
        let total: u64 = lines
            .iter()
            .map(|(item, qty)| self.item(*item).map_or(999, |i| i.price_cents) * *qty as u64)
            .sum();
        let id = self.next_order;
        self.next_order += 1;
        for (item, qty) in &lines {
            if let Some(row) = self.items.get_mut(*item as usize) {
                row.stock = row.stock.saturating_sub(*qty);
            }
        }
        self.orders.push(Order {
            id,
            session,
            lines,
            total_cents: total,
            authorized: false,
        });
        (id, total)
    }

    /// Marks an order authorized (after the PGE call).
    pub fn authorize_order(&mut self, order_id: u64) -> bool {
        match self.orders.iter_mut().find(|o| o.id == order_id) {
            Some(o) => {
                o.authorized = true;
                true
            }
            None => false,
        }
    }

    /// The most recent order of a session, if any.
    pub(crate) fn last_order(&self, session: u64) -> Option<&Order> {
        self.orders.iter().rev().find(|o| o.session == session)
    }
}

/// MySQL-like CPU/IO time the bookstore spends serving each page type
/// (aggregate of its queries; heavier listing pages cost more).
pub(crate) fn page_cost(i: Interaction) -> SimDuration {
    use Interaction::*;
    SimDuration::from_micros(match i {
        Home => 18_000,
        NewProducts => 42_000,
        BestSellers => 60_000,
        ProductDetail => 22_000,
        SearchRequest => 8_000,
        SearchResults => 48_000,
        ShoppingCart => 24_000,
        CustomerRegistration => 12_000,
        BuyRequest => 30_000,
        BuyConfirm => 36_000,
        OrderInquiry => 9_000,
        OrderDisplay => 28_000,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cart_and_order_flow() {
        let mut db = Db::new(100);
        assert_eq!(db.item_count(), 100);
        assert_eq!(db.carts.get(&7).map_or(0, Vec::len), 0);
        db.add_to_cart(7, 3, 2);
        db.add_to_cart(7, 5, 1);
        assert_eq!(db.carts.get(&7).map_or(0, Vec::len), 2);
        let stock_before = db.item(3).unwrap().stock;
        let (order, total) = db.place_order(7);
        assert!(total > 0);
        assert_eq!(db.carts.get(&7).map_or(0, Vec::len), 0, "cart cleared");
        assert_eq!(db.item(3).unwrap().stock, stock_before - 2);
        assert!(!db.last_order(7).unwrap().authorized);
        assert!(db.authorize_order(order));
        assert!(db.last_order(7).unwrap().authorized);
        assert_eq!(db.orders.len(), 1);
        assert_eq!(db.orders.iter().filter(|o| o.authorized).count(), 1);
        assert!(!db.authorize_order(999));
    }

    #[test]
    fn empty_cart_buy_confirm_still_orders() {
        let mut db = Db::new(10);
        let (id, total) = db.place_order(42);
        assert_eq!(id, 1);
        assert!(total > 0);
        assert_eq!(db.orders.len(), 1);
    }

    #[test]
    fn page_costs_are_tens_of_millis() {
        for i in Interaction::ALL {
            let c = page_cost(i);
            assert!(c >= SimDuration::from_millis(5), "{i:?}");
            assert!(c <= SimDuration::from_millis(100), "{i:?}");
        }
    }
}
