//! TRAP-FR: the classical trapezoid protocol over full replication.
//!
//! §IV of the paper compares TRAP-ERC against "a full replication storage
//! system ensuring that each data block is stored on n − k + 1 nodes" —
//! i.e. the original Suzuki–Ohara trapezoid with the *same* shape and
//! thresholds, every node holding a complete copy. This client implements
//! that baseline: node `p` of the transport is trapezoid position `p`
//! (level-major).
//!
//! Reads differ from TRAP-ERC in exactly the way §II describes: "on full
//! replication, any node giving the adequate latest version of a block
//! can be used to retrieve the corresponding data" — no decode path, no
//! dependence on other blocks.

use tq_cluster::Transport;
use tq_quorum::trapezoid::{TrapezoidShape, WriteThresholds};

use crate::baselines::{poll_version, repair_contiguous_objects, ReplicaLevel, ReplicaSet};
use crate::errors::ProtocolError;
use crate::store::{BatchReads, BatchWrites, OpReport};
use crate::trap_erc::{ReadOutcome, ScrubReport, WriteOutcome};

/// Full-replication trapezoid client for one replicated object universe.
#[derive(Debug)]
pub struct TrapFrClient<T: Transport> {
    shape: TrapezoidShape,
    thresholds: WriteThresholds,
    /// The (n, k) stripe this deployment substitutes for — eq. 5 sizes
    /// the trapezoid as `n − k + 1`; kept for [`crate::store::StoreInfo`].
    stripe: (usize, usize),
    /// The trapezoid's levels `(level_range(l), r_l, w_l)` over full
    /// replicas; the shared read and write walks run on them.
    replicas: ReplicaSet<T>,
}

impl<T: Transport> TrapFrClient<T> {
    /// Binds a trapezoid to a transport; the transport must expose at
    /// least `shape.node_count()` nodes.
    ///
    /// # Errors
    /// [`ProtocolError::Node`] if the transport is too small.
    pub fn new(
        shape: TrapezoidShape,
        thresholds: WriteThresholds,
        transport: T,
    ) -> Result<Self, ProtocolError> {
        let n = shape.node_count();
        Self::with_stripe(shape, thresholds, n, 1, transport)
    }

    /// [`TrapFrClient::new`] with the (n, k) stripe identity recorded:
    /// the paper's §IV baseline stores each block on `n − k + 1` full
    /// replicas, so the trapezoid must organise exactly that many nodes.
    ///
    /// # Errors
    /// [`ProtocolError::Shape`] if `shape.node_count() ≠ n − k + 1`;
    /// [`ProtocolError::Node`] if the transport is too small.
    pub fn with_stripe(
        shape: TrapezoidShape,
        thresholds: WriteThresholds,
        n: usize,
        k: usize,
        transport: T,
    ) -> Result<Self, ProtocolError> {
        let expected =
            (n + 1)
                .checked_sub(k)
                .filter(|&e| e >= 1)
                .ok_or(ProtocolError::Misconfigured(
                    "stripe k exceeds n (no trapezoid of n - k + 1 nodes exists)",
                ))?;
        if shape.node_count() != expected {
            return Err(ProtocolError::Shape(
                tq_quorum::trapezoid::ShapeError::StripeMismatch {
                    node_count: shape.node_count(),
                    expected,
                },
            ));
        }
        let levels = (0..shape.num_levels())
            .map(|l| ReplicaLevel {
                members: shape.level_range(l),
                r: thresholds.read_threshold(&shape, l),
                w: thresholds.write_threshold(l),
            })
            .collect();
        Ok(TrapFrClient {
            replicas: ReplicaSet::new(shape.node_count(), levels, poll_version, transport)?,
            shape,
            thresholds,
            stripe: (n, k),
        })
    }

    /// The trapezoid shape.
    pub fn shape(&self) -> &TrapezoidShape {
        &self.shape
    }

    /// The thresholds.
    pub fn thresholds(&self) -> &WriteThresholds {
        &self.thresholds
    }

    /// The stripe width n this deployment substitutes for.
    pub fn stripe_n(&self) -> usize {
        self.stripe.0
    }

    /// The stripe data-block count k this deployment substitutes for.
    pub fn stripe_k(&self) -> usize {
        self.stripe.1
    }

    /// Installs the object on every replica at version 0 in one fan-out
    /// round (provisioning; requires all nodes live).
    ///
    /// # Errors
    /// [`ProtocolError::Node`] with the lowest-positioned failing
    /// replica's error.
    pub fn create(&self, id: u64, bytes: &[u8]) -> Result<OpReport, ProtocolError> {
        self.replicas.create_many(&[(id, bytes)])
    }

    /// Provisions many objects in one fused fan-out round.
    ///
    /// # Errors
    /// [`ProtocolError::Node`] with the first failing replica's error.
    pub fn create_many(&self, items: &[(u64, &[u8])]) -> Result<OpReport, ProtocolError> {
        self.replicas.create_many(items)
    }

    /// Reads the object: per level, poll `r_l` members — the level's
    /// first for its data, the rest for their versions; once a level
    /// completes, serve the bytes from a polled replica holding the
    /// latest version (straight from the poll when the first member
    /// does, else by a fetch).
    ///
    /// # Errors
    /// [`ProtocolError::VersionCheckFailed`] if no level completes its
    /// check; [`ProtocolError::StripeMissing`] if nodes answer but none
    /// stores the object.
    pub fn read(&self, id: u64) -> Result<ReadOutcome, ProtocolError> {
        self.read_many(&[id]).into_single()
    }

    /// Writes the object: discovers the current version via the read
    /// path's version check, then installs `version + 1` on at least
    /// `w_l` members of *every* level.
    ///
    /// # Errors
    /// [`ProtocolError::OldValueUnreadable`] if the version discovery
    /// fails; [`ProtocolError::WriteQuorumNotMet`] if a level validates
    /// fewer than `w_l` replicas.
    pub fn write(&self, id: u64, new: &[u8]) -> Result<WriteOutcome, ProtocolError> {
        self.write_many(&[(id, new)]).into_single()
    }

    /// The write fan-out with a caller-supplied current version — the
    /// eq. 8 predicate in executable form (used by the Monte-Carlo
    /// validation, mirroring
    /// [`crate::TrapErcClient::write_block_with_hint`]): the write walk
    /// with the version discovery skipped.
    ///
    /// # Errors
    /// [`ProtocolError::WriteQuorumNotMet`] as above.
    pub fn write_with_version(
        &self,
        id: u64,
        new: &[u8],
        old_version: u64,
    ) -> Result<WriteOutcome, ProtocolError> {
        self.replicas
            .write_levels(
                &[(id, new)],
                &[(0, old_version)],
                vec![None],
                OpReport::default(),
            )
            .into_single()
    }

    /// Batched read: fused per-level poll rounds for every object; a
    /// fused fetch round follows a level only for objects its poll
    /// resolved without hearing the data from a latest holder.
    pub fn read_many(&self, ids: &[u64]) -> BatchReads {
        self.replicas.read_many(ids)
    }

    /// Batched write: one fused version-discovery pass, then one fused
    /// `WriteData` scatter per trapezoid level for every object.
    pub fn write_many(&self, items: &[(u64, &[u8])]) -> BatchWrites {
        self.replicas.write_many(items)
    }

    /// Anti-entropy for the store facade: reads every object of the
    /// stripe's contiguous block prefix and pushes the latest state back
    /// to all replicas, refreshing stale ones. Must run quiesced.
    ///
    /// # Errors
    /// Propagates objects whose current state cannot be read back.
    pub(crate) fn repair_stripe_objects(&self, stripe: u64) -> Result<ScrubReport, ProtocolError> {
        repair_contiguous_objects(&self.replicas, stripe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tq_cluster::{Cluster, LocalTransport};

    /// Fig. 1 trapezoid: 15 replicas in levels of 3, 5, 7.
    fn client() -> (TrapFrClient<LocalTransport>, Cluster) {
        let shape = TrapezoidShape::new(2, 3, 2).unwrap();
        let th = WriteThresholds::paper_default(&shape, 2).unwrap();
        let cluster = Cluster::new(15);
        let c = TrapFrClient::new(shape, th, LocalTransport::new(cluster.clone())).unwrap();
        (c, cluster)
    }

    #[test]
    fn create_write_read_cycle() {
        let (c, _cluster) = client();
        c.create(1, b"genesis").unwrap();
        let out = c.read(1).unwrap();
        assert_eq!(out.bytes, b"genesis");
        assert_eq!(out.version, 0);
        let w = c.write(1, b"updated").unwrap();
        assert_eq!(w.version, 1);
        assert_eq!(w.validated.len(), 15, "all replicas live");
        assert_eq!(c.read(1).unwrap().bytes, b"updated");
    }

    #[test]
    fn read_survives_heavy_failures() {
        let (c, cluster) = client();
        c.create(1, b"payload").unwrap();
        c.write(1, b"v1-data").unwrap();
        // Kill levels 0 and 1 entirely; level 2 (positions 8..15) has
        // r_2 = 6 — keep 6 alive.
        for pos in 0..9 {
            cluster.kill(pos);
        }
        let out = c.read(1).unwrap();
        assert_eq!(out.bytes, b"v1-data");
        assert_eq!(out.version, 1);
    }

    #[test]
    fn stale_replicas_never_served() {
        let (c, cluster) = client();
        c.create(1, b"aaaa").unwrap();
        // Node 2 (level 0) misses the write.
        cluster.kill(2);
        c.write(1, b"bbbb").unwrap();
        cluster.revive(2);
        // Even though node 2 is polled first-ish in level 0, the check
        // must surface version 1 and serve "bbbb".
        for _ in 0..4 {
            let out = c.read(1).unwrap();
            assert_eq!(out.bytes, b"bbbb");
            assert_eq!(out.version, 1);
        }
    }

    #[test]
    fn write_fails_when_a_level_lacks_quorum() {
        let (c, cluster) = client();
        c.create(1, b"zz").unwrap();
        // Level 1 = positions 3..8, w_1 = 2: leave only one alive.
        for pos in 4..8 {
            cluster.kill(pos);
        }
        let err = c.write(1, b"yy").unwrap_err();
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
        // completes the level-0 version check — for TRAP-FR the embedded
        // read of Algorithm 1 can never be the reason a write fails.
        // (For TRAP-ERC this is false: the read additionally needs N_i or
        // a decode, which is what tq-sim quantifies against eq. 9.)
        let (c, cluster) = client();
        c.create(1, b"zz").unwrap();
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
            let hinted = c.write_with_version(1, b"yy", ground_version + 1000);
            // Reset versions drift: hinted used a sandbox version bump;
            // track actual success for the embedded-read variant.
            match c.write(1, b"yy") {
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
        let (c, _cluster) = client();
        assert_eq!(c.read(77).unwrap_err(), ProtocolError::StripeMissing);
    }

    #[test]
    fn rejects_small_transport() {
        let shape = TrapezoidShape::new(2, 3, 2).unwrap();
        let th = WriteThresholds::paper_default(&shape, 2).unwrap();
        let err = TrapFrClient::new(shape, th, LocalTransport::new(Cluster::new(3))).unwrap_err();
        assert!(matches!(err, ProtocolError::Node(_)));
    }
}
