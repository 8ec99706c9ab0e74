//! Application-level objects returned by RUBiS cacheable functions.
//!
//! These are the "application computations that depend on database queries"
//! the paper argues are worth caching (§1): they bundle one or more query
//! results into the internal representation the page-rendering code consumes.

txcache::codec_struct! {
    /// A registered user, as shown on user-info pages.
    #[derive(Debug, Clone, PartialEq)]
    pub struct UserInfo {
        /// User id.
        pub id: i64,
        /// Unique nickname.
        pub nickname: String,
        /// Feedback rating.
        pub rating: i64,
        /// Account balance.
        pub balance: f64,
        /// Region id.
        pub region: i64,
    }
}

txcache::codec_struct! {
    /// An auction item with full details, as shown on item pages.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ItemDetails {
        /// Item id.
        pub id: i64,
        /// Item name.
        pub name: String,
        /// Item description.
        pub description: String,
        /// Seller's user id.
        pub seller: i64,
        /// Category id.
        pub category: i64,
        /// Starting price.
        pub initial_price: f64,
        /// Current highest price.
        pub current_price: f64,
        /// Number of bids placed.
        pub nb_of_bids: i64,
        /// Auction end date (abstract units).
        pub end_date: i64,
        /// Whether the item came from the `old_items` table.
        pub closed: bool,
    }
}

txcache::codec_struct! {
    /// A one-line item summary, as shown in search listings.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ItemSummary {
        /// Item id.
        pub id: i64,
        /// Item name.
        pub name: String,
        /// Current highest price.
        pub current_price: f64,
        /// Number of bids placed.
        pub nb_of_bids: i64,
    }
}

txcache::codec_struct! {
    /// A single bid in an item's bid history.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BidInfo {
        /// Bid id.
        pub id: i64,
        /// Bidding user.
        pub user_id: i64,
        /// Bid amount.
        pub amount: f64,
        /// Bid date (abstract units).
        pub date: i64,
    }
}

txcache::codec_struct! {
    /// A comment left on a user's profile.
    #[derive(Debug, Clone, PartialEq)]
    pub struct CommentInfo {
        /// Comment id.
        pub id: i64,
        /// Author.
        pub from_user: i64,
        /// Rating given.
        pub rating: i64,
        /// Comment text.
        pub text: String,
    }
}

txcache::codec_struct! {
    /// A rendered page: what the page-granularity cacheable functions return
    /// (§7.1 caches "large portions of the generated HTML output").
    #[derive(Debug, Clone, PartialEq)]
    pub struct RenderedPage {
        /// Page title.
        pub title: String,
        /// Pseudo-HTML body.
        pub body: String,
    }
}

impl RenderedPage {
    /// Builds a page from a title and body.
    #[must_use]
    pub fn new(title: impl Into<String>, body: impl Into<String>) -> RenderedPage {
        RenderedPage {
            title: title.into(),
            body: body.into(),
        }
    }

    /// Size of the rendered page in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.title.len() + self.body.len()
    }

    /// Whether the page is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_page_helpers() {
        let p = RenderedPage::new("t", "body");
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
        assert!(RenderedPage::new("", "").is_empty());
    }
}
