//! The replication baselines — TRAP-FR (§IV), ROWA and Majority (§II) —
//! as TRAP-ERC over an `(m, 1)` code.
//!
//! With `k = 1` every parity block is a scaled copy of the one data block
//! and a decode reads one shard, so full replication on `m` nodes *is*
//! [`TrapErcClient`] over an `(m, 1)` stripe ("Monotone Erasure Codes":
//! replication is the `k = 1` point of the same access structure). Each
//! baseline is only a configuration of that client:
//!
//! * **TRAP-FR** — the paper's trapezoid over `m = n − k + 1` full
//!   replicas, with the same shape and thresholds as the `(n, k)` TRAP-ERC
//!   deployment it is compared against;
//! * **ROWA** — one level of `m` nodes with `w_0 = m`, so `r_0 = 1`;
//! * **Majority** — one level of `m` nodes with `w_0 = ⌊m/2⌋ + 1` and a
//!   read floor of `⌊m/2⌋ + 1` (on an even `m` the level's own
//!   `m − w_0 + 1` would read one replica short of a majority).
//!
//! Every baseline therefore has TRAP-ERC's read plan, write walk,
//! cross-check integrity, scrub and node rebuild. [`Replicated`] keeps the
//! replication backends' flattened object namespace on top: each
//! [`BlockAddr`] is an object of its own, stored as a one-block stripe
//! whose id is [`replicated_object_id`].

use std::collections::BTreeSet;

use tq_cluster::{NodeError, Transport};
use tq_erasure::CodeParams;
use tq_quorum::trapezoid::{TrapezoidShape, WriteThresholds};

use crate::config::ProtocolConfig;
use crate::errors::ProtocolError;
use crate::recovery::RebuildReport;
use crate::store::{
    replicated_object_id, BatchReads, BatchWrite, BatchWrites, BlockAddr, OpReport, QuorumStore,
    StoreInfo, OBJECTS_PER_STRIPE,
};
use crate::trap_erc::{ReadOutcome, ScrubReport, TrapErcClient, WriteOutcome};

/// TRAP-FR for an `(n, k)` comparison: the trapezoid over
/// `m = n − k + 1` replicas (eq. 5), storing `m` blocks per data block
/// (eq. 14).
pub(crate) fn trap_fr(
    n: usize,
    k: usize,
    shape: TrapezoidShape,
    thresholds: WriteThresholds,
) -> Result<(ProtocolConfig, StoreInfo), ProtocolError> {
    let m = (n + 1)
        .checked_sub(k)
        .filter(|&m| m >= 1)
        .ok_or(ProtocolError::Misconfigured(
            "stripe k exceeds n (no trapezoid of n - k + 1 nodes exists)",
        ))?;
    let params = CodeParams::new(m, 1).map_err(ProtocolError::Params)?;
    let info = StoreInfo {
        protocol: "trap-fr",
        nodes: m,
        n,
        k,
        stripe_width: None,
        shape: Some((shape.a(), shape.b(), shape.h())),
        storage_overhead: m as f64,
        erasure_coded: false,
    };
    Ok((ProtocolConfig::new(params, shape, thresholds)?, info))
}

/// Read One, Write All over `m` replicas.
pub(crate) fn rowa(m: usize) -> Result<(ProtocolConfig, StoreInfo), ProtocolError> {
    one_level("rowa", m, m, 1)
}

/// Majority quorum consensus (Thomas 1979) over `m` replicas.
pub(crate) fn majority(m: usize) -> Result<(ProtocolConfig, StoreInfo), ProtocolError> {
    one_level("majority", m, m / 2 + 1, m / 2 + 1)
}

/// One level of `m` replicas writing to `w` and reading from at least
/// `read_floor`.
fn one_level(
    protocol: &'static str,
    m: usize,
    w: usize,
    read_floor: usize,
) -> Result<(ProtocolConfig, StoreInfo), ProtocolError> {
    if m == 0 {
        // No replica to bind a transport to.
        return Err(ProtocolError::Node(NodeError::TransportClosed));
    }
    let params = CodeParams::new(m, 1).map_err(ProtocolError::Params)?;
    let shape = TrapezoidShape::new(0, m, 0).map_err(ProtocolError::Shape)?;
    let thresholds = WriteThresholds::new(&shape, vec![w]).map_err(ProtocolError::Shape)?;
    let config = ProtocolConfig::new(params, shape, thresholds)?.with_read_floor(read_floor);
    let info = StoreInfo {
        protocol,
        nodes: m,
        n: m,
        k: 1,
        stripe_width: None,
        shape: None,
        storage_overhead: m as f64,
        erasure_coded: false,
    };
    Ok((config, info))
}

/// A replication backend: the `(m, 1)` client behind the flattened
/// object namespace, labelled as the baseline it configures.
#[derive(Debug)]
pub(crate) struct Replicated<T: Transport> {
    client: TrapErcClient<T>,
    info: StoreInfo,
}

impl<T: Transport> Replicated<T> {
    pub(crate) fn new(
        (config, info): (ProtocolConfig, StoreInfo),
        transport: T,
    ) -> Result<Self, ProtocolError> {
        Ok(Replicated {
            client: TrapErcClient::new(config, transport)?,
            info,
        })
    }

    /// The objects of `stripe` in block order, up to the first that was
    /// never created (`StripeMissing`), each through `op`.
    fn each_object<R>(
        &self,
        stripe: u64,
        mut op: impl FnMut(u64) -> Result<R, ProtocolError>,
    ) -> Result<Vec<R>, ProtocolError> {
        let mut done = Vec::new();
        for block in 0..OBJECTS_PER_STRIPE as usize {
            match op(replicated_object_id(BlockAddr::new(stripe, block))?) {
                Ok(r) => done.push(r),
                Err(ProtocolError::StripeMissing) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(done)
    }
}

/// The object's one-block stripe.
fn object(addr: BlockAddr) -> Result<BlockAddr, ProtocolError> {
    Ok(BlockAddr::new(replicated_object_id(addr)?, 0))
}

impl<T: Transport> QuorumStore for Replicated<T> {
    fn info(&self) -> StoreInfo {
        self.info.clone()
    }

    fn create(&self, stripe: u64, blocks: Vec<Vec<u8>>) -> Result<OpReport, ProtocolError> {
        let stripes = blocks
            .into_iter()
            .enumerate()
            .map(|(block, bytes)| Ok((object(BlockAddr::new(stripe, block))?.stripe, vec![bytes])))
            .collect::<Result<_, ProtocolError>>()?;
        self.client.create_stripes(stripes)
    }

    fn read(&self, addr: BlockAddr) -> Result<ReadOutcome, ProtocolError> {
        self.client.read_blocks(&[object(addr)?]).into_single()
    }

    fn write(&self, addr: BlockAddr, new: &[u8]) -> Result<WriteOutcome, ProtocolError> {
        self.client
            .write_blocks(&[BatchWrite::new(object(addr)?, new)])
            .into_single()
    }

    /// Invalid addresses fail *per item*, as on the erasure backend; the
    /// valid remainder runs as one fused batch.
    fn read_batch(&self, addrs: &[BlockAddr]) -> BatchReads {
        let mapped: Vec<_> = addrs.iter().map(|&a| object(a)).collect();
        let valid: Vec<BlockAddr> = mapped.iter().filter_map(|r| r.clone().ok()).collect();
        let batch = self.client.read_blocks(&valid);
        BatchReads {
            outcomes: per_item(mapped, batch.outcomes),
            report: batch.report,
        }
    }

    /// See [`Replicated::read_batch`] for the per-item error convention.
    fn write_batch(&self, items: &[BatchWrite<'_>]) -> BatchWrites {
        let mapped: Vec<_> = items.iter().map(|it| object(it.addr)).collect();
        let valid: Vec<BatchWrite<'_>> = mapped
            .iter()
            .zip(items)
            .filter_map(|(r, it)| r.clone().ok().map(|addr| BatchWrite::new(addr, it.bytes)))
            .collect();
        let batch = self.client.write_blocks(&valid);
        BatchWrites {
            outcomes: per_item(mapped, batch.outcomes),
            report: batch.report,
        }
    }

    /// The TRAP-ERC scrub of every object of the stripe: `refreshed`
    /// lists the nodes every object's push reached, `salvaged` the
    /// objects (by block index) whose settle superseded residue.
    fn scrub(&self, stripe: u64) -> Result<ScrubReport, ProtocolError> {
        let scrubs = self.each_object(stripe, |id| self.client.scrub_stripe(id))?;
        let mut refreshed: Option<BTreeSet<usize>> = None;
        let (mut salvaged, mut corrupt, mut report) = (Vec::new(), Vec::new(), OpReport::default());
        for (block, scrub) in scrubs.into_iter().enumerate() {
            let acked: BTreeSet<usize> = scrub.refreshed.into_iter().collect();
            refreshed = Some(match refreshed {
                None => acked,
                Some(prev) => prev.intersection(&acked).copied().collect(),
            });
            if !scrub.salvaged.is_empty() {
                salvaged.push(block);
            }
            corrupt.extend(scrub.corrupt);
            report.merge_from(scrub.report);
        }
        corrupt.sort_unstable();
        corrupt.dedup();
        Ok(ScrubReport {
            refreshed: refreshed.unwrap_or_default().into_iter().collect(),
            salvaged,
            corrupt,
            report,
        })
    }

    /// Rebuilds `node`'s replica of every object of each stripe in `ids`
    /// (one report per object).
    fn rebuild_node_stripes(
        &self,
        ids: &[u64],
        node: usize,
    ) -> Result<Vec<RebuildReport>, ProtocolError> {
        let mut reports = Vec::new();
        for &stripe in ids {
            reports.extend(self.each_object(stripe, |id| self.client.rebuild_node(id, node))?);
        }
        Ok(reports)
    }
}

/// Re-interleaves a batch's outcomes for the valid items with the
/// address errors of the invalid ones, in request order.
fn per_item<R>(
    mapped: Vec<Result<BlockAddr, ProtocolError>>,
    served: Vec<Result<R, ProtocolError>>,
) -> Vec<Result<R, ProtocolError>> {
    let mut served = served.into_iter();
    mapped
        .into_iter()
        .map(|r| match r {
            Ok(_) => served.next().expect("one outcome per valid item"),
            Err(e) => Err(e),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Store;
    use crate::trap_erc::ReadPath;
    use tq_cluster::{Cluster, LocalTransport};

    fn store(builder: crate::StoreBuilder, cluster: &Cluster) -> Box<dyn QuorumStore> {
        builder
            .transport(LocalTransport::new(cluster.clone()))
            .build()
            .unwrap()
    }

    /// Object `block` of stripe 0.
    fn obj(block: usize) -> BlockAddr {
        BlockAddr::new(0, block)
    }

    #[test]
    fn rowa_read_one_write_all() {
        let cluster = Cluster::new(5);
        let c = store(Store::rowa(5), &cluster);
        c.create(0, vec![b"none".to_vec(), b"init".to_vec()])
            .unwrap();
        c.write(obj(1), b"next").unwrap();
        // Any single live node serves reads.
        for dead in 0..4 {
            cluster.kill(dead);
        }
        assert_eq!(c.read(obj(1)).unwrap().bytes, b"next");
        // A single dead node fails writes.
        for node in 0..5 {
            cluster.revive(node);
        }
        cluster.kill(3);
        let err = c.write(obj(1), b"nope").unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::WriteQuorumNotMet {
                needed: 5,
                achieved: 4,
                ..
            }
        ));
    }

    #[test]
    fn rowa_partial_write_is_visible() {
        // The classic ROWA anomaly the paper alludes to: a failed write
        // already reached the live replicas.
        let cluster = Cluster::new(3);
        let c = store(Store::rowa(3), &cluster);
        c.create(0, vec![b"old".to_vec()]).unwrap();
        cluster.kill(2);
        let _ = c.write(obj(0), b"new").unwrap_err();
        cluster.revive(2);
        assert_eq!(c.read(obj(0)).unwrap().bytes, b"new");
    }

    #[test]
    fn majority_survives_minority_failures() {
        let cluster = Cluster::new(5);
        let c = store(Store::majority(5), &cluster);
        c.create(0, vec![b"m0".to_vec()]).unwrap();
        cluster.kill(0);
        cluster.kill(4);
        let w = c.write(obj(0), b"m1").unwrap();
        assert_eq!(w.version, 1);
        assert_eq!(w.validated, vec![1, 2, 3]);
        assert_eq!(c.read(obj(0)).unwrap().bytes, b"m1");
        // One more failure: no majority.
        cluster.kill(1);
        assert!(c.write(obj(0), b"m2").is_err());
        assert!(c.read(obj(0)).is_err());
    }

    #[test]
    fn majority_reads_see_latest_despite_stale_minority() {
        let cluster = Cluster::new(5);
        let c = store(Store::majority(5), &cluster);
        c.create(0, vec![b"v0".to_vec()]).unwrap();
        // Nodes 0 and 1 miss the write.
        cluster.kill(0);
        cluster.kill(1);
        c.write(obj(0), b"v1").unwrap();
        cluster.revive(0);
        cluster.revive(1);
        // The check asks nodes 1, 2 and then 0: two stale replicas of
        // three — the max-version rule must still surface v1 from node 2.
        let out = c.read(obj(0)).unwrap();
        assert_eq!(out.bytes, b"v1");
        assert_eq!(out.version, 1);
        // Node 0 answered with its stale block: not served. Node 2's
        // reply in the same quorum is a whole copy at v1, so no fetch.
        assert_eq!(out.path, ReadPath::Decoded { nodes: vec![2] });
        assert_eq!(out.report.network_rounds(), 1, "the check serves");
    }

    #[test]
    fn reads_report_quorum_time_version_and_accounting() {
        let cluster = Cluster::new(5);
        let rowa = store(Store::rowa(5), &cluster);
        rowa.create(7, vec![b"r0".to_vec()]).unwrap();
        let out = rowa.read(BlockAddr::new(7, 0)).unwrap();
        assert_eq!(out.version, 0);
        assert_eq!(out.path, ReadPath::Direct);
        assert_eq!(out.report.network_rounds(), 1, "one first-quorum round");
        assert_eq!(out.report.messages(), 1, "ROWA's defining one-RPC read");

        let majority = store(Store::majority(5), &cluster);
        majority.create(8, vec![b"m0".to_vec()]).unwrap();
        majority.write(BlockAddr::new(8, 0), b"m1").unwrap();
        let out = majority.read(BlockAddr::new(8, 0)).unwrap();
        assert_eq!(out.version, 1, "quorum-time latest, not first responder");
        // One round: the check asked the home replica for the data, and
        // it holds the latest version.
        assert_eq!(out.report.network_rounds(), 1);
        assert_eq!(out.report.messages(), 3, "a majority of five");
    }

    #[test]
    fn missing_objects_are_distinguished_from_dead_clusters() {
        let cluster = Cluster::new(3);
        let rowa = store(Store::rowa(3), &cluster);
        let majority = store(Store::majority(3), &cluster);
        assert_eq!(
            rowa.read(obj(99)).unwrap_err(),
            ProtocolError::StripeMissing
        );
        assert_eq!(
            majority.read(obj(99)).unwrap_err(),
            ProtocolError::StripeMissing
        );
        for n in 0..3 {
            cluster.kill(n);
        }
        assert_eq!(
            rowa.read(obj(99)).unwrap_err(),
            ProtocolError::VersionCheckFailed
        );
        assert_eq!(
            majority.read(obj(99)).unwrap_err(),
            ProtocolError::VersionCheckFailed
        );
    }

    #[test]
    fn batched_ops_fuse_rounds() {
        let cluster = Cluster::new(5);
        let c = store(Store::majority(5), &cluster);
        let initial: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8; 16]).collect();
        let report = c.create(0, initial.clone()).unwrap();
        assert_eq!(report.network_rounds(), 1, "fused provisioning");

        let payloads: Vec<Vec<u8>> = (0..6).map(|i| vec![0x40 + i as u8; 16]).collect();
        let items: Vec<BatchWrite> = (0..6)
            .map(|i| BatchWrite::new(obj(i), &payloads[i]))
            .collect();
        let batch = c.write_batch(&items);
        assert!(batch.all_ok());
        // One fused check (serving the old versions) + one fused write —
        // not 6×2.
        assert_eq!(batch.report.network_rounds(), 2);

        let addrs: Vec<BlockAddr> = (0..6).map(obj).collect();
        let reads = c.read_batch(&addrs);
        assert!(reads.all_ok());
        assert_eq!(reads.report.network_rounds(), 1, "one fused check");
        for (i, out) in reads.outcomes.iter().enumerate() {
            assert_eq!(out.as_ref().unwrap().bytes, payloads[i]);
            assert_eq!(out.as_ref().unwrap().version, 1);
        }

        let rowa = store(Store::rowa(5), &cluster);
        rowa.create(1, initial).unwrap();
        let addrs: Vec<BlockAddr> = (0..6).map(|i| BlockAddr::new(1, i)).collect();
        let reads = rowa.read_batch(&addrs);
        assert!(reads.all_ok());
        assert_eq!(reads.report.network_rounds(), 1, "one fused ROWA round");
    }

    #[test]
    fn repair_supersedes_residue_instead_of_regressing_versions() {
        // A failed ROWA write leaves residue v1 on the live replicas;
        // with the home replica down, clients can observe v1. The scrub
        // must never re-stamp a version below anything observable — it
        // installs the settled value at a version superseding the
        // residue.
        let cluster = Cluster::new(3);
        let c = store(Store::rowa(3), &cluster);
        c.create(0, vec![b"old".to_vec()]).unwrap();
        cluster.kill(0);
        let _ = c.write(obj(0), b"new").unwrap_err(); // residue v1 on nodes 1, 2
        let observed = c.read(obj(0)).unwrap();
        assert_eq!(observed.version, 1, "residue is client-visible");
        cluster.revive(0);
        // The scrub's own read serves stale node 0 (v0) — the settled
        // value — but must install it above the v1 residue.
        let scrub = c.scrub(0).unwrap();
        assert_eq!(scrub.salvaged, vec![0]);
        let out = c.read(obj(0)).unwrap();
        assert_eq!(out.bytes, b"old", "settled on the quorum-read value");
        assert_eq!(out.version, 2, "residue superseded, never regressed");
    }

    #[test]
    fn duplicate_batch_addresses_rejected() {
        let cluster = Cluster::new(3);
        let c = store(Store::rowa(3), &cluster);
        c.create(0, vec![b"x".to_vec(), b"x".to_vec()]).unwrap();
        let batch = c.write_batch(&[
            BatchWrite::new(obj(1), b"a".as_slice()),
            BatchWrite::new(obj(1), b"b".as_slice()),
        ]);
        assert!(batch.outcomes[0].is_ok());
        assert!(matches!(
            batch.outcomes[1],
            Err(ProtocolError::Misconfigured(_))
        ));
    }

    #[test]
    fn constructor_bounds() {
        let t = LocalTransport::new(Cluster::new(2));
        assert!(Store::rowa(3).transport(t.clone()).build().is_err());
        assert!(Store::majority(0).transport(t.clone()).build().is_err());
        assert!(Store::majority(2).transport(t).build().is_ok());
    }

    /// TRAP-FR on the Fig. 1 trapezoid: 15 replicas in levels of 3, 5, 7
    /// (a (15, 1) comparison, so n − k + 1 = 15).
    fn trap_fr_store() -> (Box<dyn QuorumStore>, Cluster) {
        let cluster = Cluster::new(15);
        let c = store(Store::trap_fr(15, 1).shape(2, 3, 2).uniform_w(2), &cluster);
        (c, cluster)
    }

    #[test]
    fn create_write_read_cycle() {
        let (c, _cluster) = trap_fr_store();
        c.create(0, vec![b"genesis".to_vec()]).unwrap();
        let out = c.read(obj(0)).unwrap();
        assert_eq!(out.bytes, b"genesis");
        assert_eq!(out.version, 0);
        let w = c.write(obj(0), b"updated").unwrap();
        assert_eq!(w.version, 1);
        assert_eq!(w.validated.len(), 15, "all replicas live");
        assert_eq!(c.read(obj(0)).unwrap().bytes, b"updated");
    }

    #[test]
    fn read_survives_heavy_failures() {
        let (c, cluster) = trap_fr_store();
        c.create(0, vec![b"payload".to_vec()]).unwrap();
        c.write(obj(0), b"v1-data").unwrap();
        // Kill levels 0 and 1 entirely; level 2 (positions 8..15) has
        // r_2 = 6 — keep 6 alive.
        for pos in 0..9 {
            cluster.kill(pos);
        }
        let out = c.read(obj(0)).unwrap();
        assert_eq!(out.bytes, b"v1-data");
        assert_eq!(out.version, 1);
    }

    #[test]
    fn stale_replicas_never_served() {
        let (c, cluster) = trap_fr_store();
        c.create(0, vec![b"aaaa".to_vec()]).unwrap();
        // Node 2 (level 0) misses the write.
        cluster.kill(2);
        c.write(obj(0), b"bbbb").unwrap();
        cluster.revive(2);
        // Node 2 is among the level-0 check's members, yet the check
        // must surface version 1 and serve "bbbb".
        for _ in 0..4 {
            let out = c.read(obj(0)).unwrap();
            assert_eq!(out.bytes, b"bbbb");
            assert_eq!(out.version, 1);
        }
    }

    #[test]
    fn write_fails_when_a_level_lacks_quorum() {
        let (c, cluster) = trap_fr_store();
        c.create(0, vec![b"zz".to_vec()]).unwrap();
        // Level 1 = positions 3..8, w_1 = 2: leave only one alive.
        for pos in 4..8 {
            cluster.kill(pos);
        }
        let err = c.write(obj(0), b"yy").unwrap_err();
        assert_eq!(
            err,
            ProtocolError::WriteQuorumNotMet {
                level: 1,
                needed: 2,
                achieved: 1
            }
        );
    }

    #[test]
    fn fr_version_discovery_never_blocks_a_feasible_write() {
        // Structural theorem: w_0 = ⌊b/2⌋ + 1 ≥ r_0 = s_0 − w_0 + 1, so
        // any failure pattern admitting a level-0 write quorum also
        // completes the level-0 version check, and at k = 1 a completed
        // check always holds a current replica to serve. For TRAP-FR the
        // embedded read of Algorithm 1 can never be the reason a write
        // fails. (For TRAP-ERC this is false: the read additionally needs
        // N_i or k shards, which is what tq-sim quantifies against eq. 9.)
        let cluster = Cluster::new(15);
        let shape = TrapezoidShape::new(2, 3, 2).unwrap();
        let thresholds = WriteThresholds::paper_default(&shape, 2).unwrap();
        let (config, _) = trap_fr(15, 1, shape, thresholds).unwrap();
        let c = TrapErcClient::new(config, LocalTransport::new(cluster.clone())).unwrap();
        c.create_stripe(1, vec![b"zz".to_vec()]).unwrap();
        let mut rng = 0x12345678u64;
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng
        };
        let mut ground_version = 0u64;
        for _ in 0..200 {
            let mask = next();
            let up: Vec<bool> = (0..15).map(|i| mask >> i & 1 == 1).collect();
            cluster.apply_availability(&up);
            // The write fan-out alone, at a version far above any other.
            let hinted = c.write_block_with_hint(1, 0, b"yy", b"zz", ground_version + 1000);
            match c.write_block(1, 0, b"yy") {
                Ok(w) => ground_version = w.version,
                Err(ProtocolError::OldValueUnreadable(_)) => {
                    // Version discovery failed ⇒ fewer than r_0 ≤ w_0 live
                    // at level 0 ⇒ the write fan-out must be infeasible
                    // too. A pattern where only the read fails would
                    // break the theorem.
                    assert!(
                        hinted.is_err(),
                        "embedded read failed on a write-feasible pattern: {up:?}"
                    );
                }
                Err(ProtocolError::WriteQuorumNotMet { .. }) => {
                    assert!(
                        hinted.is_err(),
                        "hinted write succeeded where fan-out failed: {up:?}"
                    );
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn missing_object_reported() {
        let (c, _cluster) = trap_fr_store();
        assert_eq!(c.read(obj(77)).unwrap_err(), ProtocolError::StripeMissing);
    }

    #[test]
    fn rejects_small_transport() {
        let err = Store::trap_fr(15, 1)
            .shape(2, 3, 2)
            .uniform_w(2)
            .transport(LocalTransport::new(Cluster::new(3)))
            .build()
            .err()
            .unwrap();
        assert!(matches!(err, ProtocolError::Node(_)));
    }
}
