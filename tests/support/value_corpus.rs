//! The value-codec corpus: each of the 20 RUBiS cacheable functions called
//! over three small seeded datasets, plus edge values, as
//! `(line, value bytes)` pairs. A line reads
//!
//! ```text
//! function#case key=<encode_hex(args)> len=<value bytes> fnv=<FNV-1a 64 of the value>
//! ```
//!
//! The RUBiS cases run the real application through a backend that misses
//! every lookup and records every insert, so each pair holds exactly the key
//! and the bytes the library would have stored on a cache node. Shared by
//! `tests/value_codec.rs` (the golden file) and `tests/properties.rs` (the
//! corrupt-input property).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use bytes::Bytes;

use txcache_repro::cache_server::{CacheStats, LookupOutcome, LookupRequest, MissKind};
use txcache_repro::mvdb::{Database, DbConfig, InvalidationMessage};
use txcache_repro::pincushion::Pincushion;
use txcache_repro::rubis::{
    self, BidInfo, CommentInfo, ItemDetails, RenderedPage, RubisApp, RubisScale, UserInfo,
};
use txcache_repro::txcache::backend::CacheBackend;
use txcache_repro::txcache::codec::{self, Codec};
use txcache_repro::txcache::{BackendKind, CacheMode, Transaction, TxCache, TxCacheConfig};
use txcache_repro::txtypes::{
    CacheKey, Result, SimClock, Staleness, TagSet, Timestamp, ValidityInterval, WallClock,
};
use txcache_repro::wire::sim::{fnv1a, FNV_OFFSET};

/// A cache that never hits and remembers every value offered to it.
#[derive(Debug, Default)]
struct Recorder {
    inserts: Mutex<Vec<(CacheKey, Bytes)>>,
}

impl CacheBackend for Recorder {
    fn kind(&self) -> BackendKind {
        BackendKind::InProcess
    }

    fn node_count(&self) -> usize {
        1
    }

    fn lookup_many(&self, keys: &[CacheKey], _request: &LookupRequest) -> Vec<LookupOutcome> {
        keys.iter()
            .map(|_| LookupOutcome::Miss(MissKind::Compulsory))
            .collect()
    }

    fn insert_many(
        &self,
        entries: Vec<(CacheKey, Bytes, ValidityInterval, TagSet)>,
        _now: WallClock,
    ) {
        let mut inserts = self.inserts.lock().unwrap();
        inserts.extend(entries.into_iter().map(|(key, value, ..)| (key, value)));
    }

    fn apply_invalidations(&self, _batch: &[InvalidationMessage], _heartbeat: Timestamp) {}

    fn evict_stale(&self, _min_useful_ts: Timestamp) {}

    fn stats(&self) -> CacheStats {
        CacheStats::default()
    }

    fn reset_stats(&self) {}
}

/// The corpus being rendered, one line per case.
#[derive(Default)]
struct Corpus {
    pairs: Vec<(String, Vec<u8>)>,
    next_case: HashMap<String, usize>,
}

impl Corpus {
    /// Adds the line for one (arguments, value bytes) pair, after checking
    /// that the value reads back as `R` and re-encodes to the same bytes.
    fn push<A, R>(&mut self, function: &str, args: &A, value: &[u8])
    where
        A: Codec,
        R: Codec,
    {
        let key = codec::encode_hex(args);
        let decoded: R = codec::decode(value).unwrap();
        assert_eq!(
            &codec::encode(&decoded)[..],
            value,
            "{function}: re-encoding"
        );

        let case = self.next_case.entry(function.to_string()).or_default();
        let mut fnv = FNV_OFFSET;
        fnv1a(&mut fnv, value);
        let line = format!(
            "{function}#{case} key={key} len={} fnv={fnv:016x}",
            value.len()
        );
        self.pairs.push((line, value.to_vec()));
        *case += 1;
    }

    /// Adds a case built from values rather than from a run of the app.
    fn push_value<A, R>(&mut self, function: &str, args: &A, value: &R)
    where
        A: Codec,
        R: Codec,
    {
        self.push::<A, R>(function, args, &codec::encode(value));
    }
}

/// The RUBiS application over one small seeded dataset, caching through a
/// [`Recorder`].
struct Stack {
    app: RubisApp,
    recorder: Arc<Recorder>,
}

impl Stack {
    fn new(dataset: usize) -> Stack {
        let clock = SimClock::new();
        let db = Arc::new(Database::new(DbConfig::default(), clock.clone()));
        rubis::create_tables(&db).unwrap();
        let scale = RubisScale {
            categories: 3 + dataset,
            regions: 2 + dataset,
            ..RubisScale::tiny()
        };
        rubis::populate(&db, &scale, 11 + dataset as u64).unwrap();
        let recorder = Arc::new(Recorder::default());
        let pincushion = Arc::new(Pincushion::new(Default::default(), clock.clone()));
        let txcache = Arc::new(TxCache::with_backend(
            db,
            recorder.clone(),
            pincushion,
            clock,
            TxCacheConfig {
                mode: CacheMode::Full,
                ..TxCacheConfig::default()
            },
        ));
        Stack {
            app: RubisApp::new(txcache),
            recorder,
        }
    }

    /// Runs one top-level call in a read-only transaction and adds the line
    /// for the value it stored under `function` and `args`.
    fn call<A, R, T>(
        &self,
        corpus: &mut Corpus,
        function: &str,
        args: A,
        run: impl FnOnce(&RubisApp, &mut Transaction<'_>) -> Result<T>,
    ) where
        A: Codec,
        R: Codec,
    {
        self.recorder.inserts.lock().unwrap().clear();
        let mut tx = self.app.begin_ro(Staleness::seconds(30)).unwrap();
        run(&self.app, &mut tx).unwrap();
        tx.commit().unwrap();
        let key = CacheKey::new(function, codec::encode_hex(&args));
        let inserts = self.recorder.inserts.lock().unwrap();
        let (_, value) = inserts
            .iter()
            .rfind(|(k, _)| *k == key)
            .unwrap_or_else(|| panic!("{function} stored nothing under {key:?}"));
        corpus.push::<A, R>(function, &args, value);
    }
}

/// Calls each of the 20 RUBiS cacheable functions once on dataset `d`.
fn rubis_cases(corpus: &mut Corpus, d: usize) {
    let s = Stack::new(d);
    let di = d as i64;
    let user = [1, 57, 10_000][d];
    let item = [1, 42, 120][d];
    let nickname = ["user1", "user77", "nobody"][d].to_string();
    let (category, page) = (1 + di, d);
    let (region, rcat) = (1 + di, 2 + di);
    let newest = [0usize, 5, 20][d];
    let categories: Vec<i64> = (1..=di + 1).collect();

    s.call::<_, Option<UserInfo>, _>(corpus, "get_user", user, |a, tx| a.get_user(tx, user));
    let nick = nickname.clone();
    s.call::<_, Option<i64>, _>(corpus, "auth_user", nickname, |a, tx| {
        a.auth_user(tx, &nick)
    });
    s.call::<_, Option<ItemDetails>, _>(corpus, "get_item", item, |a, tx| a.get_item(tx, item));
    s.call::<_, Vec<BidInfo>, _>(corpus, "get_bid_history", item, |a, tx| {
        a.get_bid_history(tx, item)
    });
    s.call::<_, Vec<CommentInfo>, _>(corpus, "get_user_comments", user, |a, tx| {
        a.get_user_comments(tx, user)
    });
    s.call::<_, Vec<(i64, String)>, _>(corpus, "get_categories", (), |a, tx| a.get_categories(tx));
    s.call::<_, Vec<(i64, String)>, _>(corpus, "get_regions", (), |a, tx| a.get_regions(tx));
    s.call::<_, Vec<i64>, _>(corpus, "category_item_ids", (category, page), |a, tx| {
        a.search_items_by_category(tx, category, page)
    });
    s.call::<_, Vec<i64>, _>(corpus, "region_item_ids", (region, rcat), |a, tx| {
        a.search_items_by_region(tx, region, rcat)
    });
    s.call::<_, Vec<i64>, _>(corpus, "newest_item_ids", newest, |a, tx| {
        a.browse_newest_items(tx, newest)
    });
    let cats = categories.clone();
    s.call::<_, Vec<i64>, _>(corpus, "multi_category_item_ids", categories, |a, tx| {
        a.search_items_by_categories(tx, &cats)
    });
    s.call::<_, RenderedPage, _>(corpus, "page_home", (), |a, tx| a.page_home(tx));
    s.call::<_, RenderedPage, _>(corpus, "page_browse_categories", (), |a, tx| {
        a.page_browse_categories(tx)
    });
    s.call::<_, RenderedPage, _>(corpus, "page_browse_regions", (), |a, tx| {
        a.page_browse_regions(tx)
    });
    s.call::<_, RenderedPage, _>(corpus, "page_search_category", (category, page), |a, tx| {
        a.page_search_items_in_category(tx, category, page)
    });
    s.call::<_, RenderedPage, _>(corpus, "page_search_region", (region, rcat), |a, tx| {
        a.page_search_items_in_region(tx, region, rcat)
    });
    s.call::<_, RenderedPage, _>(corpus, "page_view_item", item, |a, tx| {
        a.page_view_item(tx, item)
    });
    s.call::<_, RenderedPage, _>(corpus, "page_view_user", user, |a, tx| {
        a.page_view_user_info(tx, user)
    });
    s.call::<_, RenderedPage, _>(corpus, "page_bid_history", item, |a, tx| {
        a.page_view_bid_history(tx, item)
    });
    s.call::<_, RenderedPage, _>(corpus, "page_about_me", user, |a, tx| {
        a.page_about_me(tx, user)
    });
}

/// Values at the edges of each encoding, as (arguments, result) pairs.
fn edge_cases(corpus: &mut Corpus) {
    corpus.push_value("balance", &0usize, &0i64);
    corpus.push_value("balance", &usize::MAX, &i64::MIN);
    corpus.push_value("balance", &7u64, &i64::MAX);
    corpus.push_value(
        "edge_ints",
        &(i64::MIN, i64::MAX, u64::MAX),
        &(i8::MIN, u16::MAX, (i32::MIN, u32::MAX, isize::MIN)),
    );
    corpus.push_value(
        "edge_floats",
        &(-0.0f64, f64::NAN, f32::NAN),
        &(
            f32::MIN_POSITIVE,
            -0.0f32,
            (f64::INFINITY, f64::MIN, 0.1f64),
        ),
    );
    corpus.push_value(
        "edge_empty",
        &(String::new(), Vec::<i64>::new(), None::<i64>),
        &(Vec::<String>::new(), (), Some(Vec::<Option<u8>>::new())),
    );
    corpus.push_value(
        "edge_text",
        &"żółw 🐢 日本語".to_string(),
        &vec![
            None,
            Some(String::new()),
            Some("naïve café — ½ €".to_string()),
        ],
    );
    corpus.push_value(
        "edge_chars",
        &('\0', '✓', char::MAX),
        &(true, false, Some(Some(false))),
    );
    corpus.push_value(
        "edge_user",
        &-1i64,
        &Some(UserInfo {
            id: i64::MIN,
            nickname: String::new(),
            rating: i64::MAX,
            balance: f64::NAN,
            region: 0,
        }),
    );
    corpus.push_value(
        "edge_item",
        &(i64::MAX,),
        &ItemDetails {
            id: 0,
            name: "Ünïcödé ✓".to_string(),
            description: String::new(),
            seller: -1,
            category: i64::MIN,
            initial_price: -0.0,
            current_price: f64::NEG_INFINITY,
            nb_of_bids: 0,
            end_date: i64::MAX,
            closed: true,
        },
    );
    corpus.push_value("edge_page", &(), &RenderedPage::new("", "日本"));
}

/// Builds the corpus: every `(line, value bytes)` pair, in a fixed order.
pub fn cases() -> Vec<(String, Vec<u8>)> {
    let mut corpus = Corpus::default();
    for dataset in 0..3 {
        rubis_cases(&mut corpus, dataset);
    }
    edge_cases(&mut corpus);
    corpus.pairs
}
