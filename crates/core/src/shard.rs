//! Sharded multi-stripe data plane: many trapezoid groups, one store.
//!
//! One trapezoid group scales consistency, not capacity: every stripe
//! of a [`QuorumStore`] lives on the same `n` nodes, so the group's
//! parity members bound the whole store's throughput. The paper's
//! motivating deployment (§I, VM virtual disks) needs the opposite
//! shape — many independent groups, each serving a slice of the stripe
//! namespace, so writers on different slices never share a node *or* a
//! lock. This module supplies that shape:
//!
//! * [`ShardMap`] — a deterministic, total, stable partition of stripe
//!   ids onto `S` shards, by multiplicative hashing (uniform placement
//!   for arbitrary id patterns) or by contiguous ranges (locality for
//!   sequential volumes);
//! * [`ShardedStore`] — `S` independent backends (each its own node set
//!   and transport) behind the one [`QuorumStore`] facade: single ops
//!   route to their shard, batch ops fan out shard-parallel on scoped
//!   threads, and maintenance (`scrub_shard`) iterates shards
//!   independently.
//!
//! **No global lock sits on the read/write path.** The only shared
//! mutable state is the per-shard created-stripe registry, touched by
//! `create`/`provision_striped` (provisioning) and `scrub_shard`
//! (maintenance) — `read`, `write`, `read_batch` and `write_batch`
//! never take it.
//!
//! Determinism: batch fan-out over real transports runs one scoped
//! thread per addressed shard. Simulation harnesses whose transports
//! keep a single-threaded virtual clock (the DST's `SimTransport`) must
//! opt into [`ShardedStore::sequential_batches`], which visits shards
//! in ascending index order on the caller's thread — same results, same
//! accounting, bit-for-bit replayable.

#![deny(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};

use parking_lot::Mutex;

use crate::errors::ProtocolError;
use crate::recovery::RebuildReport;
use crate::store::{
    BatchReads, BatchWrite, BatchWrites, BlockAddr, OpReport, QuorumStore, StoreInfo,
};
use crate::trap_erc::{ReadOutcome, ScrubReport, WriteOutcome};

/// SplitMix64 finalizer: a full-avalanche 64-bit mixer, so consecutive
/// stripe ids land on unrelated shards.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How a [`ShardMap`] assigns stripes to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Strategy {
    /// Multiplicative hash of the mixed stripe id — uniform for any id
    /// pattern, including clustered or strided allocations.
    Hash,
    /// Contiguous runs of `stripes_per_shard` ids per shard, round-robin
    /// over shards — preserves locality for sequentially-allocated
    /// volumes.
    Range {
        /// Run length of consecutive stripe ids kept on one shard.
        stripes_per_shard: u64,
    },
}

/// A deterministic partition of the stripe-id namespace onto `S`
/// shards.
///
/// The map is **total** (every `u64` routes), **stable** (routing is a
/// pure function of the id — no state, no reconfiguration) and
/// **balanced** (hash placement is uniform up to multiplicative-hash
/// bias; range placement is exactly even over whole runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    shards: usize,
    strategy: Strategy,
}

impl ShardMap {
    /// A hash partition over `shards` shards.
    ///
    /// # Errors
    /// [`ProtocolError::Misconfigured`] on zero shards.
    pub fn hashed(shards: usize) -> Result<Self, ProtocolError> {
        if shards == 0 {
            return Err(ProtocolError::Misconfigured(
                "shard map needs at least one shard",
            ));
        }
        Ok(ShardMap {
            shards,
            strategy: Strategy::Hash,
        })
    }

    /// A range partition: runs of `stripes_per_shard` consecutive ids
    /// per shard, striped round-robin over `shards` shards.
    ///
    /// # Errors
    /// [`ProtocolError::Misconfigured`] on zero shards or a zero run
    /// length.
    pub fn ranged(shards: usize, stripes_per_shard: u64) -> Result<Self, ProtocolError> {
        if shards == 0 {
            return Err(ProtocolError::Misconfigured(
                "shard map needs at least one shard",
            ));
        }
        if stripes_per_shard == 0 {
            return Err(ProtocolError::Misconfigured(
                "range shard map needs a positive run length",
            ));
        }
        Ok(ShardMap {
            shards,
            strategy: Strategy::Range { stripes_per_shard },
        })
    }

    /// Number of shards this map routes onto.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard serving `stripe`. Total and stable: a pure function of
    /// the id, always `< shards()`.
    pub fn shard_of(&self, stripe: u64) -> usize {
        match self.strategy {
            // Multiply-shift reduction of the mixed id: an unbiased-to-
            // 2^-64 map of the full u64 range onto 0..shards.
            Strategy::Hash => ((mix64(stripe) as u128 * self.shards as u128) >> 64) as usize,
            Strategy::Range { stripes_per_shard } => {
                ((stripe / stripes_per_shard) % self.shards as u64) as usize
            }
        }
    }
}

/// `S` independent [`QuorumStore`] backends behind one store facade.
///
/// Each shard is a complete protocol group — its own node set, its own
/// transport, its own stripe namespace slice per the [`ShardMap`].
/// Single ops route; batch ops fan out one scoped thread per addressed
/// shard (unless [`sequential_batches`](Self::sequential_batches) was
/// selected); `scrub`/`scrub_shard` keep maintenance per-shard. The
/// read/write hot path takes no lock in this layer.
///
/// Shards are expected to be homogeneous (same protocol and geometry);
/// [`StoreInfo`] is reported from shard 0 with `nodes` summed over all
/// shards and the protocol labelled `"sharded"`.
pub struct ShardedStore<S: QuorumStore> {
    shards: Vec<S>,
    map: ShardMap,
    /// Per-shard registry of provisioned stripe ids. Provisioning and
    /// maintenance only — never touched by reads or writes.
    created: Vec<Mutex<BTreeSet<u64>>>,
    parallel: bool,
}

impl<S: QuorumStore> ShardedStore<S> {
    /// Binds `shards` backends to `map`. The map's shard count must
    /// equal the number of backends.
    ///
    /// # Errors
    /// [`ProtocolError::Misconfigured`] on an empty backend list or a
    /// count mismatch.
    pub fn new(shards: Vec<S>, map: ShardMap) -> Result<Self, ProtocolError> {
        if shards.is_empty() {
            return Err(ProtocolError::Misconfigured(
                "sharded store needs at least one backend",
            ));
        }
        if shards.len() != map.shards() {
            return Err(ProtocolError::Misconfigured(
                "shard map and backend count disagree",
            ));
        }
        let created = (0..shards.len()).map(|_| Mutex::default()).collect();
        Ok(ShardedStore {
            shards,
            map,
            created,
            parallel: true,
        })
    }

    /// Switches batch fan-out from scoped threads to an in-order walk of
    /// the addressed shards on the caller's thread. Required when the
    /// shards share a transport whose clock or RNG is single-threaded
    /// (the DST's `SimTransport`); same results, deterministic order.
    #[must_use]
    pub fn sequential_batches(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The routing map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Direct access to one shard's backend (fault injection, typed
    /// extension surfaces).
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn shard_store(&self, shard: usize) -> &S {
        &self.shards[shard]
    }

    /// `true` iff batch ops fan out on scoped threads.
    pub fn is_parallel(&self) -> bool {
        self.parallel
    }

    /// Stripe ids provisioned through this store that route to `shard`,
    /// in ascending order.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn shard_stripes(&self, shard: usize) -> Vec<u64> {
        self.created[shard].lock().iter().copied().collect()
    }

    /// Scrubs every stripe this store has provisioned on `shard` —
    /// the shard-targeted maintenance entry point; other shards keep
    /// serving untouched. Must run quiesced like [`QuorumStore::scrub`].
    ///
    /// The per-stripe scrubs inherit the underlying store's maintenance
    /// behaviour: their rounds travel the background lane and, with an
    /// armed health registry on the shard's transport, route repair
    /// fetches toward healthy members — so scrubbing one shard steals
    /// as little as possible from foreground traffic on the others.
    ///
    /// # Errors
    /// Stops at the first stripe that cannot be read back.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn scrub_shard(&self, shard: usize) -> Result<Vec<(u64, ScrubReport)>, ProtocolError> {
        let stripes = self.shard_stripes(shard);
        let mut out = Vec::with_capacity(stripes.len());
        for stripe in stripes {
            out.push((stripe, self.shards[shard].scrub(stripe)?));
        }
        Ok(out)
    }

    /// Provisions `stripe_count` zero-filled stripes (`width` blocks of
    /// `block_len` bytes each) with ids `base_id..base_id +
    /// stripe_count`, fanning the creates out shard-parallel — the bulk
    /// path a volume or load harness uses to lay down millions of
    /// blocks without serialising on one group.
    ///
    /// # Errors
    /// Propagates the first stripe-creation failure.
    pub fn provision_striped(
        &self,
        base_id: u64,
        stripe_count: u64,
        width: usize,
        block_len: usize,
    ) -> Result<(), ProtocolError> {
        let mut groups: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        for s in 0..stripe_count {
            let id = base_id + s;
            groups.entry(self.map.shard_of(id)).or_default().push(id);
        }
        let create_group = |shard: usize, ids: &[u64]| -> Result<(), ProtocolError> {
            for &id in ids {
                self.shards[shard].create(id, vec![vec![0u8; block_len]; width])?;
            }
            let mut registry = self.created[shard].lock();
            registry.extend(ids.iter().copied());
            Ok(())
        };
        if self.parallel && groups.len() > 1 {
            let create_group = &create_group;
            std::thread::scope(|scope| {
                let handles: Vec<_> = groups
                    .iter()
                    .map(|(&shard, ids)| {
                        let ids = ids.as_slice();
                        scope.spawn(move || create_group(shard, ids))
                    })
                    .collect();
                for h in handles {
                    h.join().expect("shard provisioning worker")?;
                }
                Ok(())
            })
        } else {
            for (&shard, ids) in &groups {
                create_group(shard, ids)?;
            }
            Ok(())
        }
    }

    /// Groups item positions by the shard their stripe routes to,
    /// ascending by shard index (deterministic fan-out order).
    fn group_by_shard(&self, stripes: impl Iterator<Item = u64>) -> Vec<(usize, Vec<usize>)> {
        let mut buckets: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, stripe) in stripes.enumerate() {
            buckets
                .entry(self.map.shard_of(stripe))
                .or_default()
                .push(i);
        }
        buckets.into_iter().collect()
    }
}

impl<S: QuorumStore> std::fmt::Debug for ShardedStore<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("shards", &self.shards.len())
            .field("map", &self.map)
            .field("parallel", &self.parallel)
            .finish()
    }
}

impl<S: QuorumStore> QuorumStore for ShardedStore<S> {
    fn info(&self) -> StoreInfo {
        let inner = self.shards[0].info();
        StoreInfo {
            protocol: "sharded",
            nodes: self.shards.iter().map(|s| s.info().nodes).sum(),
            ..inner
        }
    }

    fn create(&self, stripe: u64, blocks: Vec<Vec<u8>>) -> Result<OpReport, ProtocolError> {
        let shard = self.map.shard_of(stripe);
        let report = self.shards[shard].create(stripe, blocks)?;
        self.created[shard].lock().insert(stripe);
        Ok(report)
    }

    fn read(&self, addr: BlockAddr) -> Result<ReadOutcome, ProtocolError> {
        self.shards[self.map.shard_of(addr.stripe)].read(addr)
    }

    fn write(&self, addr: BlockAddr, new: &[u8]) -> Result<WriteOutcome, ProtocolError> {
        self.shards[self.map.shard_of(addr.stripe)].write(addr, new)
    }

    fn read_batch(&self, addrs: &[BlockAddr]) -> BatchReads {
        let groups = self.group_by_shard(addrs.iter().map(|a| a.stripe));
        let run_group = |shard: usize, idxs: &[usize]| -> BatchReads {
            let sub: Vec<BlockAddr> = idxs.iter().map(|&i| addrs[i]).collect();
            self.shards[shard].read_batch(&sub)
        };
        let batches: Vec<BatchReads> = if self.parallel && groups.len() > 1 {
            let run_group = &run_group;
            std::thread::scope(|scope| {
                let handles: Vec<_> = groups
                    .iter()
                    .map(|(shard, idxs)| {
                        let (shard, idxs) = (*shard, idxs.as_slice());
                        scope.spawn(move || run_group(shard, idxs))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard read-batch worker"))
                    .collect()
            })
        } else {
            groups
                .iter()
                .map(|(shard, idxs)| run_group(*shard, idxs))
                .collect()
        };
        let mut outcomes: Vec<Option<Result<ReadOutcome, ProtocolError>>> =
            addrs.iter().map(|_| None).collect();
        let mut report = OpReport::default();
        for ((_, idxs), batch) in groups.iter().zip(batches) {
            debug_assert_eq!(idxs.len(), batch.outcomes.len());
            for (&i, outcome) in idxs.iter().zip(batch.outcomes) {
                outcomes[i] = Some(outcome);
            }
            report.merge_from(batch.report);
        }
        BatchReads {
            outcomes: outcomes
                .into_iter()
                .map(|o| o.expect("every batch item served by its shard"))
                .collect(),
            report,
        }
    }

    fn write_batch(&self, items: &[BatchWrite<'_>]) -> BatchWrites {
        let groups = self.group_by_shard(items.iter().map(|it| it.addr.stripe));
        let run_group = |shard: usize, idxs: &[usize]| -> BatchWrites {
            let sub: Vec<BatchWrite<'_>> = idxs.iter().map(|&i| items[i]).collect();
            self.shards[shard].write_batch(&sub)
        };
        let batches: Vec<BatchWrites> = if self.parallel && groups.len() > 1 {
            let run_group = &run_group;
            std::thread::scope(|scope| {
                let handles: Vec<_> = groups
                    .iter()
                    .map(|(shard, idxs)| {
                        let (shard, idxs) = (*shard, idxs.as_slice());
                        scope.spawn(move || run_group(shard, idxs))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard write-batch worker"))
                    .collect()
            })
        } else {
            groups
                .iter()
                .map(|(shard, idxs)| run_group(*shard, idxs))
                .collect()
        };
        let mut outcomes: Vec<Option<Result<WriteOutcome, ProtocolError>>> =
            items.iter().map(|_| None).collect();
        let mut report = OpReport::default();
        for ((_, idxs), batch) in groups.iter().zip(batches) {
            debug_assert_eq!(idxs.len(), batch.outcomes.len());
            for (&i, outcome) in idxs.iter().zip(batch.outcomes) {
                outcomes[i] = Some(outcome);
            }
            report.merge_from(batch.report);
        }
        BatchWrites {
            outcomes: outcomes
                .into_iter()
                .map(|o| o.expect("every batch item served by its shard"))
                .collect(),
            report,
        }
    }

    fn scrub(&self, stripe: u64) -> Result<ScrubReport, ProtocolError> {
        self.shards[self.map.shard_of(stripe)].scrub(stripe)
    }

    fn stripe_nodes(&self, stripe: u64) -> usize {
        self.shards[self.map.shard_of(stripe)].stripe_nodes(stripe)
    }

    /// Rebuilds `node` of the group each stripe routes to (`node` is a
    /// position within a group, as every shard's store numbers it).
    fn rebuild_node_stripes(
        &self,
        ids: &[u64],
        node: usize,
    ) -> Result<Vec<RebuildReport>, ProtocolError> {
        let mut reports = Vec::new();
        for &id in ids {
            reports.extend(self.shards[self.map.shard_of(id)].rebuild_node_stripes(&[id], node)?);
        }
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Store;
    use tq_cluster::{Cluster, LocalTransport};

    #[test]
    fn shard_map_validates_and_routes() {
        assert!(ShardMap::hashed(0).is_err());
        assert!(ShardMap::ranged(0, 4).is_err());
        assert!(ShardMap::ranged(4, 0).is_err());

        let hashed = ShardMap::hashed(5).unwrap();
        assert_eq!(hashed.shards(), 5);
        for stripe in [0u64, 1, 42, u64::MAX] {
            assert!(hashed.shard_of(stripe) < 5, "total over the id space");
            assert_eq!(
                hashed.shard_of(stripe),
                hashed.shard_of(stripe),
                "stable routing"
            );
        }

        let ranged = ShardMap::ranged(3, 4).unwrap();
        assert_eq!(ranged.shard_of(0), 0);
        assert_eq!(ranged.shard_of(3), 0, "run of 4 stays put");
        assert_eq!(ranged.shard_of(4), 1);
        assert_eq!(ranged.shard_of(11), 2);
        assert_eq!(ranged.shard_of(12), 0, "round-robin wraps");
    }

    #[test]
    fn hash_map_spreads_sequential_ids() {
        let map = ShardMap::hashed(8).unwrap();
        let mut loads = [0usize; 8];
        for stripe in 0..8_000u64 {
            loads[map.shard_of(stripe)] += 1;
        }
        let (min, max) = (*loads.iter().min().unwrap(), *loads.iter().max().unwrap());
        assert!(min > 0, "no empty shard: {loads:?}");
        assert!(
            (max as f64) / (min as f64) < 1.3,
            "sequential ids must spread evenly: {loads:?}"
        );
    }

    /// One shard per backend instance; the same blocks must round-trip
    /// whether addressed singly or through the cross-shard batch path,
    /// and batches must agree between parallel and sequential fan-out.
    #[test]
    fn sharded_store_routes_and_batches() {
        let build = |sequential: bool| {
            let shards: Vec<_> = (0..3)
                .map(|_| {
                    Store::trap_erc(9, 6)
                        .shape(2, 1, 1)
                        .uniform_w(2)
                        .transport(LocalTransport::new(Cluster::new(9)))
                        .build()
                        .unwrap()
                })
                .collect();
            let store = ShardedStore::new(shards, ShardMap::hashed(3).unwrap()).unwrap();
            if sequential {
                store.sequential_batches()
            } else {
                store
            }
        };
        for sequential in [false, true] {
            let store = build(sequential);
            assert_eq!(store.info().protocol, "sharded");
            assert_eq!(store.info().nodes, 27);
            assert_eq!(store.stripe_nodes(7), 9, "one group per stripe");

            for stripe in 0..6u64 {
                store
                    .create(stripe, (0..6).map(|i| vec![i as u8; 16]).collect())
                    .unwrap();
            }
            let addrs: Vec<BlockAddr> = (0..6u64)
                .map(|s| BlockAddr::new(s, (s % 6) as usize))
                .collect();
            let payloads: Vec<Vec<u8>> = (0..6u8).map(|i| vec![0xC0 | i; 16]).collect();
            let items: Vec<BatchWrite<'_>> = addrs
                .iter()
                .zip(&payloads)
                .map(|(&a, p)| BatchWrite::new(a, p))
                .collect();
            let writes = store.write_batch(&items);
            assert!(writes.all_ok(), "sequential={sequential}");

            let reads = store.read_batch(&addrs);
            assert!(reads.all_ok());
            for (out, want) in reads.outcomes.iter().zip(&payloads) {
                assert_eq!(&out.as_ref().unwrap().bytes, want);
            }
            // Single-op routing agrees with the batch path.
            for (&a, want) in addrs.iter().zip(&payloads) {
                assert_eq!(&store.read(a).unwrap().bytes, want);
            }
        }
    }

    #[test]
    fn provision_and_shard_scrub_cover_the_registry() {
        let shards: Vec<_> = (0..2)
            .map(|_| {
                Store::trap_erc(9, 6)
                    .shape(2, 1, 1)
                    .uniform_w(2)
                    .transport(LocalTransport::new(Cluster::new(9)))
                    .build()
                    .unwrap()
            })
            .collect();
        let store = ShardedStore::new(shards, ShardMap::hashed(2).unwrap()).unwrap();
        store.provision_striped(100, 10, 6, 8).unwrap();
        let (a, b) = (store.shard_stripes(0), store.shard_stripes(1));
        assert_eq!(a.len() + b.len(), 10, "every stripe registered once");
        for shard in 0..2 {
            let scrubbed = store.scrub_shard(shard).unwrap();
            assert_eq!(scrubbed.len(), store.shard_stripes(shard).len());
            assert!(scrubbed
                .iter()
                .all(|(_, report)| report.refreshed.len() == 9));
        }
    }

    #[test]
    fn construction_is_validated() {
        let shards: Vec<Box<dyn QuorumStore>> = vec![];
        assert!(ShardedStore::new(shards, ShardMap::hashed(1).unwrap()).is_err());
        let one = vec![Store::majority(3)
            .transport(LocalTransport::new(Cluster::new(3)))
            .build()
            .unwrap()];
        assert!(ShardedStore::new(one, ShardMap::hashed(2).unwrap()).is_err());
    }
}
