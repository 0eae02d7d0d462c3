//! A block-addressed volume over any [`QuorumStore`] backend.
//!
//! The paper's motivating deployment (§I) is virtual-disk storage: VMs
//! issue block reads/writes against an image that must stay strictly
//! consistent. [`Volume`] packages a store into that shape:
//!
//! * logical blocks of `block_size` bytes, striped round-robin over
//!   stripes of a validated [`VolumeConfig`] width (`lba → (stripe id,
//!   block index)`);
//! * writes serialised per block through a sharded
//!   [`StripeLockManager`], so writers on different lock shards never
//!   touch the same mutex;
//! * maintenance entry points (`scrub`, `rebuild_node`) wrapping the
//!   recovery workflows.
//!
//! The volume is generic over `S: QuorumStore`, so the same virtual disk
//! runs on TRAP-ERC, TRAP-FR, ROWA or Majority — including over
//! `Box<dyn QuorumStore>` when the backend is chosen at runtime, and
//! over a [`ShardedStore`](crate::ShardedStore) when one group is not
//! enough: its `scrub` and `rebuild_node_stripes` route each stripe to
//! its own group, so `scrub` and `rebuild_node` need no sharded variant.

use std::sync::Arc;

use crate::errors::{ProtocolError, VolumeError};
use crate::locking::StripeLockManager;
use crate::recovery::RebuildReport;
use crate::store::{BlockAddr, QuorumStore, OBJECTS_PER_STRIPE};

/// Validated geometry for a [`Volume`].
///
/// `blocks_per_stripe` is explicit: leave it `None` only when the
/// backend stripes data at a fixed width (TRAP-ERC's `k`), in which
/// case that width is adopted. Width-free (replication) backends have
/// nothing to derive from and reject `None` with
/// [`VolumeError::WidthUnknown`] — the old silent `unwrap_or(8)` is
/// gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VolumeConfig {
    /// First stripe id; the volume occupies `base_id..base_id +
    /// stripe_count`.
    pub base_id: u64,
    /// Logical block size in bytes.
    pub block_size: usize,
    /// Number of logical blocks.
    pub logical_blocks: usize,
    /// Blocks per stripe; `None` adopts the backend's fixed width.
    pub blocks_per_stripe: Option<usize>,
}

impl VolumeConfig {
    /// Geometry with the stripe width left to the backend (only valid on
    /// backends with a fixed width).
    pub fn new(base_id: u64, block_size: usize, logical_blocks: usize) -> Self {
        VolumeConfig {
            base_id,
            block_size,
            logical_blocks,
            blocks_per_stripe: None,
        }
    }

    /// Sets an explicit stripe width.
    #[must_use]
    pub fn blocks_per_stripe(mut self, width: usize) -> Self {
        self.blocks_per_stripe = Some(width);
        self
    }

    /// Validates the geometry against a backend's descriptor and
    /// resolves the effective stripe width.
    ///
    /// # Errors
    /// A typed [`VolumeError`] on zero fields, a width conflicting with
    /// the backend's fixed stripe width, a width outside the replicated
    /// object namespace, or a missing width on a width-free backend.
    fn resolve_width(&self, backend_width: Option<usize>) -> Result<usize, VolumeError> {
        if self.block_size == 0 {
            return Err(VolumeError::ZeroBlockSize);
        }
        if self.logical_blocks == 0 {
            return Err(VolumeError::ZeroBlocks);
        }
        match (self.blocks_per_stripe, backend_width) {
            (Some(0), _) => Err(VolumeError::ZeroStripeWidth),
            (Some(w), Some(fixed)) if w != fixed => Err(VolumeError::WidthMismatch {
                configured: w,
                backend: fixed,
            }),
            (Some(w), None) if w as u64 > OBJECTS_PER_STRIPE => Err(VolumeError::WidthOutOfRange {
                configured: w,
                max: OBJECTS_PER_STRIPE as usize,
            }),
            (Some(w), _) => Ok(w),
            (None, Some(fixed)) => Ok(fixed),
            (None, None) => Err(VolumeError::WidthUnknown),
        }
    }
}

/// A fixed-size logical volume on one cluster (or, over a
/// [`ShardedStore`](crate::ShardedStore), one federation of clusters).
#[derive(Debug)]
pub struct Volume<S: QuorumStore> {
    store: S,
    locks: Arc<StripeLockManager>,
    block_size: usize,
    logical_blocks: usize,
    /// Stripe ids are `base_id..base_id + stripe_count`.
    base_id: u64,
    stripe_count: u64,
    blocks_per_stripe: usize,
}

impl<S: QuorumStore> Volume<S> {
    /// Provisions a zero-filled volume with the given geometry.
    /// Requires every node live (provisioning).
    ///
    /// # Errors
    /// A typed [`VolumeError`] (wrapped in [`ProtocolError::Volume`]) on
    /// invalid geometry; otherwise propagates stripe-creation failures.
    pub fn with_config(store: S, config: VolumeConfig) -> Result<Self, ProtocolError> {
        let vol = Volume::attach(store, config)?;
        for s in 0..vol.stripe_count {
            vol.store.create(
                vol.base_id + s,
                vec![vec![0u8; vol.block_size]; vol.blocks_per_stripe],
            )?;
        }
        Ok(vol)
    }

    /// Binds a volume to already-provisioned stripes without issuing any
    /// creates — for stores laid down in bulk or reopened across client
    /// restarts. The geometry must match what was provisioned; nothing
    /// is verified against the nodes here.
    ///
    /// # Errors
    /// A typed [`VolumeError`] on invalid geometry.
    pub fn open(store: S, config: VolumeConfig) -> Result<Self, ProtocolError> {
        Volume::attach(store, config)
    }

    fn attach(store: S, config: VolumeConfig) -> Result<Self, ProtocolError> {
        let blocks_per_stripe = config.resolve_width(store.info().stripe_width)?;
        let stripe_count = config.logical_blocks.div_ceil(blocks_per_stripe) as u64;
        Ok(Volume {
            store,
            locks: StripeLockManager::new(),
            block_size: config.block_size,
            logical_blocks: config.logical_blocks,
            base_id: config.base_id,
            stripe_count,
            blocks_per_stripe,
        })
    }

    /// Provisions a zero-filled volume of `logical_blocks` blocks of
    /// `block_size` bytes, using stripe ids starting at `base_id` and
    /// the backend's fixed stripe width.
    ///
    /// # Errors
    /// [`VolumeError::WidthUnknown`] (typed, not a silent default) on
    /// width-free backends — configure those through
    /// [`Volume::with_config`]. Otherwise as [`Volume::with_config`].
    pub fn create(
        store: S,
        base_id: u64,
        block_size: usize,
        logical_blocks: usize,
    ) -> Result<Self, ProtocolError> {
        Volume::with_config(
            store,
            VolumeConfig::new(base_id, block_size, logical_blocks),
        )
    }

    /// The backing store (for fault-injection handles in tests and the
    /// typed extension surface).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Logical block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of logical blocks.
    pub fn logical_blocks(&self) -> usize {
        self.logical_blocks
    }

    /// Volume capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.logical_blocks * self.block_size
    }

    /// Blocks per stripe after validation.
    pub fn blocks_per_stripe(&self) -> usize {
        self.blocks_per_stripe
    }

    fn locate(&self, lba: usize) -> Result<BlockAddr, ProtocolError> {
        if lba >= self.logical_blocks {
            return Err(ProtocolError::SizeMismatch);
        }
        Ok(BlockAddr::new(
            self.base_id + (lba / self.blocks_per_stripe) as u64,
            lba % self.blocks_per_stripe,
        ))
    }

    /// Reads one logical block.
    ///
    /// # Errors
    /// Out-of-range `lba` or protocol read failure.
    pub fn read_block(&self, lba: usize) -> Result<Vec<u8>, ProtocolError> {
        Ok(self.store.read(self.locate(lba)?)?.bytes)
    }

    /// Writes one logical block (must be exactly `block_size` bytes),
    /// serialised against other writers of the same block.
    ///
    /// # Errors
    /// Out-of-range `lba`, wrong length, or protocol write failure.
    pub fn write_block(&self, lba: usize, data: &[u8]) -> Result<u64, ProtocolError> {
        if data.len() != self.block_size {
            return Err(ProtocolError::SizeMismatch);
        }
        let addr = self.locate(lba)?;
        let _guard = self.locks.lock(addr.stripe, addr.block);
        Ok(self.store.write(addr, data)?.version)
    }

    /// Scrubs every stripe (anti-entropy through the backend's
    /// [`QuorumStore::scrub`]); returns total node-states refreshed.
    ///
    /// # Errors
    /// Stops at the first stripe that cannot be read back.
    pub fn scrub(&self) -> Result<usize, ProtocolError> {
        let mut refreshed = 0;
        for s in 0..self.stripe_count {
            refreshed += self.store.scrub(self.base_id + s)?.refreshed.len();
        }
        Ok(refreshed)
    }

    /// Rebuilds a replaced node across every stripe of this volume
    /// (through [`QuorumStore::rebuild_node_stripes`]; over a sharded
    /// store, `node` is a position within each stripe's own group).
    ///
    /// # Errors
    /// Stops at the first stripe that cannot be rebuilt.
    pub fn rebuild_node(&self, node: usize) -> Result<Vec<RebuildReport>, ProtocolError> {
        let ids: Vec<u64> = (0..self.stripe_count).map(|s| self.base_id + s).collect();
        self.store.rebuild_node_stripes(&ids, node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use crate::shard::{ShardMap, ShardedStore};
    use crate::store::Store;
    use crate::trap_erc::TrapErcClient;
    use tq_cluster::{Cluster, LocalTransport};

    fn volume(
        blocks: usize,
        block_size: usize,
    ) -> (Volume<TrapErcClient<LocalTransport>>, Cluster) {
        let config = ProtocolConfig::with_uniform_w(15, 8, 0, 4, 1, 2).unwrap();
        let cluster = Cluster::new(15);
        let client = TrapErcClient::new(config, LocalTransport::new(cluster.clone())).unwrap();
        let vol = Volume::create(client, 100, block_size, blocks).unwrap();
        (vol, cluster)
    }

    #[test]
    fn geometry() {
        let (vol, _c) = volume(20, 512);
        assert_eq!(vol.block_size(), 512);
        assert_eq!(vol.logical_blocks(), 20);
        assert_eq!(vol.capacity(), 20 * 512);
        // 20 blocks over k = 8 ⇒ 3 stripes.
        assert_eq!(vol.stripe_count, 3);
        assert_eq!(vol.blocks_per_stripe(), 8);
    }

    #[test]
    fn block_io_round_trip() {
        let (vol, _c) = volume(20, 256);
        for lba in [0usize, 7, 8, 19] {
            let data = vec![lba as u8 + 1; 256];
            let v = vol.write_block(lba, &data).unwrap();
            assert_eq!(v, 1);
            assert_eq!(vol.read_block(lba).unwrap(), data);
        }
        // Fresh blocks read as zeros.
        assert!(vol.read_block(9).unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn bounds_checked() {
        let (vol, _c) = volume(4, 128);
        assert!(vol.read_block(4).is_err());
        assert!(vol.write_block(4, &[0; 128]).is_err());
        assert!(vol.write_block(0, &[0; 100]).is_err());
    }

    #[test]
    fn survives_failure_and_rebuild() {
        let (vol, cluster) = volume(16, 128);
        for lba in 0..16 {
            vol.write_block(lba, &[lba as u8 ^ 0x5A; 128]).unwrap();
        }
        // Data node 3 dies and is replaced with blank hardware.
        cluster.replace(3);
        // Reads still work (decode path) ...
        for lba in 0..16 {
            assert_eq!(vol.read_block(lba).unwrap(), vec![lba as u8 ^ 0x5A; 128]);
        }
        // ... and the rebuild restores direct service on every stripe.
        let reports = vol.rebuild_node(3).unwrap();
        assert_eq!(reports.len(), 2);
        let scrubbed = vol.scrub().unwrap();
        assert_eq!(scrubbed, 2 * 15);
    }

    #[test]
    fn volume_runs_on_any_backend() {
        // The same virtual-disk shape on a replication backend, through
        // a trait object — the store choice is a runtime decision. The
        // width-free backend needs an explicit stripe width.
        let cluster = Cluster::new(5);
        let store = Store::majority(5)
            .transport(LocalTransport::new(cluster.clone()))
            .build()
            .unwrap();
        let vol =
            Volume::with_config(store, VolumeConfig::new(0, 64, 16).blocks_per_stripe(8)).unwrap();
        for lba in [0usize, 7, 15] {
            vol.write_block(lba, &[lba as u8 | 0x80; 64]).unwrap();
        }
        cluster.kill(1);
        cluster.kill(4);
        for lba in [0usize, 7, 15] {
            assert_eq!(vol.read_block(lba).unwrap(), vec![lba as u8 | 0x80; 64]);
        }
        for n in 0..5 {
            cluster.revive(n);
        }
        assert!(vol.scrub().unwrap() > 0, "stale replicas refreshed");
    }

    #[test]
    fn rowa_volume_rebuilds_a_wiped_replica() {
        // Every backend has a node-targeted rebuild: a ROWA volume
        // re-installs a blank replica from the survivors, and reads from
        // it alone come back byte-exact.
        let cluster = Cluster::new(4);
        let store = Store::rowa(4)
            .transport(LocalTransport::new(cluster.clone()))
            .build()
            .unwrap();
        let vol =
            Volume::with_config(store, VolumeConfig::new(0, 64, 8).blocks_per_stripe(4)).unwrap();
        for lba in 0..8 {
            vol.write_block(lba, &[lba as u8 ^ 0x3C; 64]).unwrap();
        }
        cluster.replace(2);
        let reports = vol.rebuild_node(2).unwrap();
        assert_eq!(reports.len(), 8, "one report per object");
        assert!(reports.iter().all(|r| r.node == 2 && r.bytes_written == 64));
        for other in [0, 1, 3] {
            cluster.kill(other);
        }
        for lba in 0..8 {
            assert_eq!(vol.read_block(lba).unwrap(), vec![lba as u8 ^ 0x3C; 64]);
        }
    }

    #[test]
    fn geometry_errors_are_typed() {
        let make_majority = || {
            Store::majority(3)
                .transport(LocalTransport::new(Cluster::new(3)))
                .build()
                .unwrap()
        };
        // No width on a width-free backend: the old silent `8` is gone.
        let err = Volume::create(make_majority(), 0, 64, 16).err().unwrap();
        assert!(matches!(
            err,
            ProtocolError::Volume(VolumeError::WidthUnknown)
        ));
        // Zero fields.
        let err = Volume::with_config(make_majority(), VolumeConfig::new(0, 0, 16))
            .err()
            .unwrap();
        assert!(matches!(
            err,
            ProtocolError::Volume(VolumeError::ZeroBlockSize)
        ));
        let err = Volume::with_config(make_majority(), VolumeConfig::new(0, 64, 0))
            .err()
            .unwrap();
        assert!(matches!(
            err,
            ProtocolError::Volume(VolumeError::ZeroBlocks)
        ));
        let err = Volume::with_config(
            make_majority(),
            VolumeConfig::new(0, 64, 16).blocks_per_stripe(0),
        )
        .err()
        .unwrap();
        assert!(matches!(
            err,
            ProtocolError::Volume(VolumeError::ZeroStripeWidth)
        ));
        // Width beyond the replicated object namespace.
        let err = Volume::with_config(
            make_majority(),
            VolumeConfig::new(0, 64, 16).blocks_per_stripe(5000),
        )
        .err()
        .unwrap();
        assert!(matches!(
            err,
            ProtocolError::Volume(VolumeError::WidthOutOfRange {
                configured: 5000,
                ..
            })
        ));
        // Width conflicting with a fixed-width backend.
        let config = ProtocolConfig::with_uniform_w(15, 8, 0, 4, 1, 2).unwrap();
        let client = TrapErcClient::new(config, LocalTransport::new(Cluster::new(15))).unwrap();
        let err = Volume::with_config(client, VolumeConfig::new(0, 64, 16).blocks_per_stripe(4))
            .err()
            .unwrap();
        assert!(matches!(
            err,
            ProtocolError::Volume(VolumeError::WidthMismatch {
                configured: 4,
                backend: 8
            })
        ));
    }

    #[test]
    fn open_attaches_without_reprovisioning() {
        let config = ProtocolConfig::with_uniform_w(15, 8, 0, 4, 1, 2).unwrap();
        let cluster = Cluster::new(15);
        let client =
            TrapErcClient::new(config.clone(), LocalTransport::new(cluster.clone())).unwrap();
        let vol = Volume::create(client, 50, 64, 16).unwrap();
        vol.write_block(3, &[0xEE; 64]).unwrap();

        // A second client over the same nodes opens the volume and sees
        // the committed state; first-wins creation makes with_config
        // idempotent but `open` issues no creates at all.
        let before = cluster.io_totals().writes;
        let client2 = TrapErcClient::new(config, LocalTransport::new(cluster.clone())).unwrap();
        let vol2 = Volume::open(client2, VolumeConfig::new(50, 64, 16)).unwrap();
        assert_eq!(cluster.io_totals().writes, before, "open wrote nothing");
        assert_eq!(vol2.read_block(3).unwrap(), vec![0xEE; 64]);
    }

    #[test]
    fn sharded_volume_scrubs_and_rebuilds_per_shard() {
        let clusters: Vec<Cluster> = (0..2).map(|_| Cluster::new(15)).collect();
        let shards: Vec<TrapErcClient<LocalTransport>> = clusters
            .iter()
            .map(|c| {
                TrapErcClient::new(
                    ProtocolConfig::with_uniform_w(15, 8, 0, 4, 1, 2).unwrap(),
                    LocalTransport::new(c.clone()),
                )
                .unwrap()
            })
            .collect();
        let map = ShardMap::hashed(2).unwrap();
        let store = ShardedStore::new(shards, map).unwrap();
        let vol = Volume::with_config(store, VolumeConfig::new(300, 64, 32)).unwrap();
        for lba in 0..32 {
            vol.write_block(lba, &[lba as u8 ^ 0x3C; 64]).unwrap();
        }

        // Replace node 3 of shard 1's cluster only. The rebuild routes
        // every stripe to its own group: shard 0's intact node 3 serves
        // its own copy, and only shard 1's stripes decode around the
        // blank node.
        clusters[1].replace(3);
        let stripes_on_1 = (0..vol.stripe_count)
            .filter(|s| map.shard_of(300 + s) == 1)
            .count();
        assert!(stripes_on_1 > 0, "shard 1 serves part of the volume");
        let reports = vol.rebuild_node(3).unwrap();
        assert_eq!(reports.len(), vol.stripe_count as usize);
        assert_eq!(
            reports.iter().filter(|r| r.sources != [3]).count(),
            stripes_on_1
        );

        // The routed scrub covers all stripes of both shards.
        let refreshed = vol.scrub().unwrap();
        assert_eq!(refreshed, vol.stripe_count as usize * 15);
        for lba in 0..32 {
            assert_eq!(vol.read_block(lba).unwrap(), vec![lba as u8 ^ 0x3C; 64]);
        }
    }
}
