//! The sharded data plane end to end: `ShardMap` routing properties,
//! `ShardedStore` over every backend, and a multi-threaded `Volume`
//! stress with per-block linearity checked against the DST history
//! oracle.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use trapezoid_quorum::sim::dst::HistoryChecker;
use trapezoid_quorum::{
    BatchWrite, BlockAddr, Cluster, LocalTransport, ProtocolConfig, QuorumStore, ShardMap,
    ShardedStore, Store, TrapErcClient, Volume, VolumeConfig,
};

// ---------------------------------------------------------------------
// ShardMap routing properties.
// ---------------------------------------------------------------------

proptest! {
    /// Routing is total (never out of range) and stable (a rebuilt map
    /// with the same parameters routes every stripe identically).
    #[test]
    fn hashed_routing_is_total_and_stable(
        shards in 1usize..=32,
        seed in any::<u64>(),
    ) {
        let map = ShardMap::hashed(shards).unwrap();
        let again = ShardMap::hashed(shards).unwrap();
        for i in 0..512u64 {
            let stripe = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let shard = map.shard_of(stripe);
            prop_assert!(shard < shards, "stripe {stripe} routed to {shard}/{shards}");
            prop_assert_eq!(shard, map.shard_of(stripe), "routing is deterministic");
            prop_assert_eq!(shard, again.shard_of(stripe), "routing is parameter-stable");
        }
    }

    /// Hashed routing balances sequential stripe ids: over `4096 · S`
    /// consecutive stripes no shard strays far from the mean.
    #[test]
    fn hashed_routing_balances_sequential_stripes(
        shards in 1usize..=16,
        base in 0u64..1_000_000,
    ) {
        let map = ShardMap::hashed(shards).unwrap();
        let mut counts = vec![0u64; shards];
        let per_shard = 4096u64;
        for stripe in base..base + per_shard * shards as u64 {
            counts[map.shard_of(stripe)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        prop_assert!(
            max as f64 <= 1.5 * min.max(1) as f64,
            "imbalanced hashed routing: {counts:?}"
        );
    }

    /// Ranged routing is exactly balanced over aligned ranges and keeps
    /// each contiguous run of `stripes_per_shard` ids on one shard.
    #[test]
    fn ranged_routing_is_contiguous_and_exact(
        shards in 1usize..=8,
        stripes_per_shard in 1u64..=64,
    ) {
        let map = ShardMap::ranged(shards, stripes_per_shard).unwrap();
        let mut counts = vec![0u64; shards];
        for stripe in 0..stripes_per_shard * shards as u64 {
            let shard = map.shard_of(stripe);
            prop_assert_eq!(
                shard,
                (stripe / stripes_per_shard) as usize % shards,
                "range layout"
            );
            counts[shard] += 1;
        }
        prop_assert!(
            counts.iter().all(|&c| c == stripes_per_shard),
            "aligned ranges split exactly: {counts:?}"
        );
    }
}

// ---------------------------------------------------------------------
// ShardedStore over every backend.
// ---------------------------------------------------------------------

/// A sharded store over boxed backends, plus its label and stripe width.
type LabeledShardedStore = (&'static str, ShardedStore<Box<dyn QuorumStore>>, usize);

/// One sharded instance per protocol: three independent groups (each its
/// own cluster), hashed routing, parallel batch fan-out.
fn sharded_backends() -> Vec<LabeledShardedStore> {
    let build = |f: &dyn Fn() -> Box<dyn QuorumStore>| {
        let shards: Vec<Box<dyn QuorumStore>> = (0..3).map(|_| f()).collect();
        ShardedStore::new(shards, ShardMap::hashed(3).unwrap()).unwrap()
    };
    vec![
        (
            "trap-erc",
            build(&|| {
                Store::trap_erc(9, 6)
                    .shape(2, 1, 1)
                    .uniform_w(2)
                    .transport(LocalTransport::new(Cluster::new(9)))
                    .build()
                    .unwrap()
            }),
            6,
        ),
        (
            "trap-fr",
            build(&|| {
                Store::trap_fr(9, 6)
                    .shape(2, 1, 1)
                    .uniform_w(2)
                    .transport(LocalTransport::new(Cluster::new(9)))
                    .build()
                    .unwrap()
            }),
            6,
        ),
        (
            "rowa",
            build(&|| {
                Store::rowa(5)
                    .transport(LocalTransport::new(Cluster::new(5)))
                    .build()
                    .unwrap()
            }),
            6,
        ),
        (
            "majority",
            build(&|| {
                Store::majority(5)
                    .transport(LocalTransport::new(Cluster::new(5)))
                    .build()
                    .unwrap()
            }),
            6,
        ),
    ]
}

/// Every backend works identically through the router: per-op and
/// batched access agree across a stripe range that spans all shards,
/// and scrubs route to the owning group.
#[test]
fn sharded_store_is_backend_agnostic() {
    for (label, store, width) in sharded_backends() {
        let stripes: Vec<u64> = (100..112).collect();
        for &stripe in &stripes {
            let blocks: Vec<Vec<u8>> = (0..width)
                .map(|b| vec![(stripe as u8).wrapping_add(b as u8); 48])
                .collect();
            store.create(stripe, blocks).unwrap_or_else(|e| {
                panic!("{label}: create stripe {stripe}: {e}");
            });
        }
        // Batched writes spanning every shard.
        let payloads: Vec<(BlockAddr, Vec<u8>)> = stripes
            .iter()
            .map(|&s| {
                (
                    BlockAddr::new(s, (s % width as u64) as usize),
                    vec![0xC0u8 ^ s as u8; 48],
                )
            })
            .collect();
        let items: Vec<BatchWrite<'_>> = payloads
            .iter()
            .map(|(addr, bytes)| BatchWrite { addr: *addr, bytes })
            .collect();
        let wrote = store.write_batch(&items);
        assert!(wrote.all_ok(), "{label}: batched writes commit");

        // Batched and per-op reads agree.
        let addrs: Vec<BlockAddr> = payloads.iter().map(|(a, _)| *a).collect();
        let batched = store.read_batch(&addrs);
        assert!(batched.all_ok(), "{label}: batched reads succeed");
        for ((addr, bytes), out) in payloads.iter().zip(&batched.outcomes) {
            let one = store.read(*addr).unwrap();
            let out = out.as_ref().unwrap();
            assert_eq!(&one.bytes, bytes, "{label}: routed read returns the write");
            assert_eq!(one.bytes, out.bytes, "{label}: batch agrees with per-op");
            assert_eq!(one.version, out.version, "{label}: versions agree");
        }

        // Scrubs route to the owning shard and report its node count.
        for &stripe in &stripes {
            let report = store.scrub(stripe).unwrap();
            assert_eq!(
                report.refreshed.len(),
                store.stripe_nodes(stripe),
                "{label}: scrub of stripe {stripe} covered its group"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Multi-threaded Volume stress across shards.
// ---------------------------------------------------------------------

fn stress_pattern(block: usize, version: u64) -> Vec<u8> {
    (0..64)
        .map(|i| (block as u64 * 31 + version * 17 + i) as u8)
        .collect()
}

/// Concurrent writers and readers across every shard of a sharded
/// volume. Each block has one writer, so per-block versions must be
/// strictly sequential (the history checker enforces it); readers check
/// per-block linearity — a read never returns a version below the floor
/// it observed before starting, and the bytes are exactly the committed
/// value of the version it served.
#[test]
fn concurrent_volume_traffic_is_linear_per_block() {
    const WRITERS: usize = 4;
    const BLOCKS: usize = 24;
    const ROUNDS: u64 = 6;

    let shards: Vec<TrapErcClient<LocalTransport>> = (0..2)
        .map(|_| {
            TrapErcClient::new(
                ProtocolConfig::with_uniform_w(15, 8, 0, 4, 1, 2).unwrap(),
                LocalTransport::new(Cluster::new(15)),
            )
            .unwrap()
        })
        .collect();
    // Ranged one-stripe-per-range routing: consecutive stripe ids
    // alternate shards, so both groups carry traffic.
    let store = ShardedStore::new(shards, ShardMap::ranged(2, 1).unwrap()).unwrap();
    let volume =
        Arc::new(Volume::with_config(store, VolumeConfig::new(7_000, 64, BLOCKS)).unwrap());

    let initial: Vec<Vec<u8>> = (0..BLOCKS).map(|b| volume.read_block(b).unwrap()).collect();
    let checker = Arc::new(Mutex::new(HistoryChecker::new(&initial)));

    std::thread::scope(|scope| {
        for writer in 0..WRITERS {
            let volume = Arc::clone(&volume);
            let checker = Arc::clone(&checker);
            scope.spawn(move || {
                for round in 1..=ROUNDS {
                    let mut block = writer;
                    while block < BLOCKS {
                        let bytes = stress_pattern(block, round);
                        volume.write_block(block, &bytes).unwrap();
                        checker
                            .lock()
                            .unwrap()
                            .commit(block, &bytes, round, (round - 1) as usize)
                            .unwrap();
                        block += WRITERS;
                    }
                }
            });
        }
        for reader in 0..3usize {
            let volume = Arc::clone(&volume);
            let checker = Arc::clone(&checker);
            let initial = &initial;
            scope.spawn(move || {
                for pass in 0..ROUNDS as usize {
                    for offset in 0..BLOCKS {
                        let block = (reader + offset * 5) % BLOCKS;
                        let floor_before = checker.lock().unwrap().floor(block);
                        let bytes = volume.read_block(block).unwrap();
                        // Which committed version are these bytes? The
                        // single writer per block makes version <-> value
                        // a bijection, so the pattern decodes it.
                        let version = (0..=ROUNDS)
                            .find(|&v| {
                                let expected = if v == 0 {
                                    initial[block].clone()
                                } else {
                                    stress_pattern(block, v)
                                };
                                expected == bytes
                            })
                            .unwrap_or_else(|| panic!("block {block} pass {pass}: foreign bytes"));
                        assert!(
                            version >= floor_before,
                            "block {block}: read v{version} below floor v{floor_before}"
                        );
                    }
                }
            });
        }
    });

    // Every block settled on its final round.
    for block in 0..BLOCKS {
        assert_eq!(checker.lock().unwrap().floor(block), ROUNDS);
        assert_eq!(
            volume.read_block(block).unwrap(),
            stress_pattern(block, ROUNDS)
        );
    }
    let stripes = BLOCKS.div_ceil(volume.blocks_per_stripe());
    assert_eq!(volume.scrub().unwrap(), stripes * 15);
}
