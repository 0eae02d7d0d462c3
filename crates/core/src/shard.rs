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
//!   and transport) behind the one [`QuorumStore`] facade. It is a pure
//!   router: every op goes to the shard its stripe maps to, and a batch
//!   visits its addressed shards in ascending index order on the
//!   caller's thread, so the path a simulation replays is the path that
//!   ships. Maintenance (`scrub`, `rebuild_node_stripes`) routes per
//!   stripe the same way.
//!
//! **No lock and no shared mutable state sit in this layer.**

#![deny(missing_docs)]

use std::collections::BTreeMap;

use tq_cluster::detmap::splitmix64;

use crate::errors::ProtocolError;
use crate::recovery::RebuildReport;
use crate::store::{
    BatchReads, BatchWrite, BatchWrites, BlockAddr, OpReport, QuorumStore, StoreInfo,
};
use crate::trap_erc::{ReadOutcome, ScrubReport, WriteOutcome};

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
            Strategy::Hash => ((splitmix64(stripe) as u128 * self.shards as u128) >> 64) as usize,
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
/// Every op routes to the shard its stripe maps to; a batch visits its
/// addressed shards in ascending index order on the caller's thread.
/// This layer holds no state beyond the routing map and takes no lock.
///
/// Shards are expected to be homogeneous (same protocol and geometry);
/// [`StoreInfo`] is reported from shard 0 with `nodes` summed over all
/// shards and the protocol labelled `"sharded"`.
#[derive(Debug)]
pub struct ShardedStore<S: QuorumStore> {
    shards: Vec<S>,
    map: ShardMap,
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
        Ok(ShardedStore { shards, map })
    }

    /// The shard `stripe` routes to.
    fn shard(&self, stripe: u64) -> &S {
        &self.shards[self.map.shard_of(stripe)]
    }

    /// Splits a batch by shard, runs each shard's sub-batch in ascending
    /// shard order, and merges the outcomes back into request order.
    fn batch<I: Copy, O>(
        &self,
        items: &[I],
        stripe: impl Fn(&I) -> u64,
        run: impl Fn(&S, &[I]) -> (Vec<O>, OpReport),
    ) -> (Vec<O>, OpReport) {
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, item) in items.iter().enumerate() {
            groups
                .entry(self.map.shard_of(stripe(item)))
                .or_default()
                .push(i);
        }
        let mut outcomes: Vec<Option<O>> = items.iter().map(|_| None).collect();
        let mut report = OpReport::default();
        for (shard, idxs) in groups {
            let sub: Vec<I> = idxs.iter().map(|&i| items[i]).collect();
            let (outs, sub_report) = run(&self.shards[shard], &sub);
            debug_assert_eq!(idxs.len(), outs.len());
            for (i, out) in idxs.into_iter().zip(outs) {
                outcomes[i] = Some(out);
            }
            report.merge_from(sub_report);
        }
        let outcomes = outcomes
            .into_iter()
            .map(|o| o.expect("every batch item served by its shard"))
            .collect();
        (outcomes, report)
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
        self.shard(stripe).create(stripe, blocks)
    }

    fn read(&self, addr: BlockAddr) -> Result<ReadOutcome, ProtocolError> {
        self.shard(addr.stripe).read(addr)
    }

    fn write(&self, addr: BlockAddr, new: &[u8]) -> Result<WriteOutcome, ProtocolError> {
        self.shard(addr.stripe).write(addr, new)
    }

    fn read_batch(&self, addrs: &[BlockAddr]) -> BatchReads {
        let (outcomes, report) = self.batch(
            addrs,
            |a| a.stripe,
            |shard, sub| {
                let batch = shard.read_batch(sub);
                (batch.outcomes, batch.report)
            },
        );
        BatchReads { outcomes, report }
    }

    fn write_batch(&self, items: &[BatchWrite<'_>]) -> BatchWrites {
        let (outcomes, report) = self.batch(
            items,
            |it| it.addr.stripe,
            |shard, sub| {
                let batch = shard.write_batch(sub);
                (batch.outcomes, batch.report)
            },
        );
        BatchWrites { outcomes, report }
    }

    fn scrub(&self, stripe: u64) -> Result<ScrubReport, ProtocolError> {
        self.shard(stripe).scrub(stripe)
    }

    fn stripe_nodes(&self, stripe: u64) -> usize {
        self.shard(stripe).stripe_nodes(stripe)
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
            reports.extend(self.shard(id).rebuild_node_stripes(&[id], node)?);
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
    /// whether addressed singly or through the cross-shard batch path.
    #[test]
    fn sharded_store_routes_and_batches() {
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
        assert!(store.write_batch(&items).all_ok());

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
