//! Microbenchmarks of the versioned cache node: lookups, inserts, and
//! invalidation-stream processing, plus the TxCache binary codec used to
//! serialize cached values.

use bytes::Bytes;
use cache_server::{CacheNode, LookupRequest, NodeConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use rubis::ItemDetails;
use txcache::codec;
use txtypes::{CacheKey, InvalidationTag, TagSet, Timestamp, ValidityInterval, WallClock};

fn key(i: u64) -> CacheKey {
    CacheKey::new("get_item", format!("[{i}]"))
}

fn warm_node(entries: u64) -> CacheNode {
    let node = CacheNode::new(
        "bench",
        NodeConfig {
            capacity_bytes: 256 << 20,
            ..NodeConfig::default()
        },
    );
    for i in 0..entries {
        let tags: TagSet = [InvalidationTag::keyed("items", format!("id={i}"))]
            .into_iter()
            .collect();
        node.insert(
            key(i),
            Bytes::from(vec![7u8; 256]),
            ValidityInterval::unbounded(Timestamp(1)),
            tags,
            WallClock::ZERO,
        );
    }
    node.apply_invalidation(Timestamp(100), &TagSet::new());
    node
}

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_node");
    group.sample_size(40);

    group.bench_function("lookup_hit", |b| {
        let node = warm_node(10_000);
        let request = LookupRequest::at(Timestamp(50));
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 10_000;
            assert!(node.lookup(&key(i), &request).is_hit());
        });
    });

    group.bench_function("insert", |b| {
        let node = warm_node(1_000);
        let mut i = 1_000_000u64;
        b.iter(|| {
            i += 1;
            node.insert(
                key(i),
                Bytes::from(vec![7u8; 256]),
                ValidityInterval::unbounded(Timestamp(2)),
                TagSet::new(),
                WallClock::ZERO,
            );
        });
    });

    group.bench_function("apply_invalidation", |b| {
        let node = warm_node(10_000);
        let mut ts = 200u64;
        let mut i = 0u64;
        b.iter(|| {
            ts += 1;
            i = (i + 1) % 10_000;
            let tags: TagSet = [InvalidationTag::keyed("items", format!("id={i}"))]
                .into_iter()
                .collect();
            node.apply_invalidation(Timestamp(ts), &tags);
        });
    });

    group.bench_function("codec_roundtrip_item", |b| {
        let item = ItemDetails {
            id: 42,
            name: "a fine vase".into(),
            description: "x".repeat(200),
            seller: 7,
            category: 3,
            initial_price: 10.0,
            current_price: 17.5,
            nb_of_bids: 4,
            end_date: 99,
            closed: false,
        };
        b.iter(|| {
            let bytes = codec::encode(&item);
            let back: ItemDetails = codec::decode(&bytes).unwrap();
            assert_eq!(back.id, 42);
        });
    });

    group.finish();
}

criterion_group!(benches, bench_cache);
criterion_main!(benches);
