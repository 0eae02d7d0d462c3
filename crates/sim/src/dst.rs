//! Deterministic simulation testing (DST) for the store protocols.
//!
//! The Monte-Carlo layers of this crate measure *availability* under the
//! paper's i.i.d. fail-stop model. This module attacks *consistency*
//! under schedules that model never produces: message loss, duplication
//! and reordering, asymmetric partitions, crash-restart with durable or
//! volatile disks, and at-least-once fabrics that redeliver stale
//! messages across rounds — all driven through
//! [`tq_cluster::SimTransport`]'s seeded virtual-time scheduler, so any
//! failure replays bit-for-bit from its seed.
//!
//! Three pieces compose:
//!
//! * [`HistoryChecker`] — an online oracle holding every
//!   [`QuorumStore`] operation to regular-register semantics per block:
//!   successful reads must return a version at least that of the latest
//!   *completed* write, bytes must be values that were actually written
//!   (committed or the residue of a failed write — Algorithm 1 has no
//!   rollback), a version maps to one value while the block is residue-
//!   free, committed versions strictly increase, and anti-entropy never
//!   regresses the version floor.
//! * [`Scenario`] + [`generate_ops`] — seeded adversarial workloads:
//!   writes, reads, scheduled crashes (durable or volatile), restarts,
//!   one-directional partitions, heals, gray-node degrades (a node that
//!   stays up but answers 10–100× slower), quiesced scrubs and
//!   virtual-time jumps, with fault pressure bounded so the run stays
//!   non-vacuous. Every scenario's links draw heavy-tailed service
//!   times, and [`run_case`] pins hedging on ([`HedgePolicy::P99`]) —
//!   the matrices double as the adaptive-robustness soak, and the
//!   report's sim counters prove the hedges actually fired.
//! * [`run_case`] / [`minimize`] — the explorer: build a backend over a
//!   fresh simulation, drive the workload, settle with a final scrub,
//!   and on violation shrink the reproduction to the shortest op prefix
//!   that still fails. A [`CaseConfig`] *is* the repro: same config,
//!   same history, same violation.
//!
//! ```
//! use tq_sim::dst::{run_case, Backend, CaseConfig, Scenario};
//!
//! let cfg = CaseConfig {
//!     seed: 7,
//!     backend: Backend::TrapErc,
//!     scenario: Scenario::chaos(),
//!     ops: 24,
//! };
//! let report = run_case(&cfg);
//! assert!(report.violation.is_none(), "{:?}", report.violation);
//! assert_eq!(report, run_case(&cfg), "replay is bit-for-bit");
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tq_cluster::{
    Cluster, FaultingBackend, HedgeCounters, HedgePolicy, MemoryBackend, NetworkModel, SimFault,
    SimStats, SimTransport, StorageFaults,
};
use tq_trapezoid::{
    BatchWrite, BlockAddr, ProtocolError, QuorumStore, ReadOutcome, ShardMap, ShardedStore, Store,
};

/// The first stripe id; stripe group `g` lives on `STRIPE + g`.
pub const STRIPE: u64 = 1;
/// Blocks per stripe (the TRAP-ERC `k`; replication backends emulate).
pub const BLOCKS: usize = 6;
/// Payload length per block.
pub const BLOCK_LEN: usize = 32;
/// Cluster width every backend runs on (the TRAP-ERC `n`).
pub const CLUSTER_NODES: usize = 9;
/// Stripe groups (shards) the sharded DST data plane spans.
pub const SHARDS: usize = 2;
/// Logical blocks across all stripe groups: [`run_case`] drives a
/// [`ShardedStore`] whose address space is `SHARDS` stripes wide.
pub const TOTAL_BLOCKS: usize = BLOCKS * SHARDS;

/// Address of a logical DST block: group `block / BLOCKS` lives on
/// stripe `STRIPE + group` at in-stripe index `block % BLOCKS`.
pub fn addr_of(block: usize) -> BlockAddr {
    BlockAddr::new(STRIPE + (block / BLOCKS) as u64, block % BLOCKS)
}

// ---------------------------------------------------------------------
// Backends.
// ---------------------------------------------------------------------

/// The four [`QuorumStore`] implementations under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// TRAP-ERC (9, 6) on the (2, 1, 1) trapezoid, `w = 2`.
    TrapErc,
    /// TRAP-FR over the same trapezoid's 4 full replicas.
    TrapFr,
    /// Read-One-Write-All over 5 replicas.
    Rowa,
    /// Majority quorum over 5 replicas.
    Majority,
}

impl Backend {
    /// Every backend, in a stable order.
    pub const ALL: [Backend; 4] = [
        Backend::TrapErc,
        Backend::TrapFr,
        Backend::Rowa,
        Backend::Majority,
    ];

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Backend::TrapErc => "trap-erc",
            Backend::TrapFr => "trap-fr",
            Backend::Rowa => "rowa",
            Backend::Majority => "majority",
        }
    }

    /// Builds the backend over a shared simulation transport.
    ///
    /// # Panics
    /// Panics if the fixed DST configuration stops validating — that is
    /// a bug in this module, not an input error.
    pub fn build(&self, transport: Arc<SimTransport>) -> Box<dyn QuorumStore> {
        let built = match self {
            Backend::TrapErc => Store::trap_erc(CLUSTER_NODES, BLOCKS)
                .shape(2, 1, 1)
                .uniform_w(2)
                .transport(transport)
                .build(),
            Backend::TrapFr => Store::trap_fr(CLUSTER_NODES, BLOCKS)
                .shape(2, 1, 1)
                .uniform_w(2)
                .transport(transport)
                .build(),
            Backend::Rowa => Store::rowa(5).transport(transport).build(),
            Backend::Majority => Store::majority(5).transport(transport).build(),
        };
        built.expect("DST backend configuration is valid")
    }

    /// Builds the backend as a [`SHARDS`]-way [`ShardedStore`]: one
    /// instance per stripe group, all over the same simulated cluster,
    /// with batch fan-out walked sequentially so the single-threaded
    /// virtual-time scheduler stays deterministic. Stripe `STRIPE + g`
    /// routes to its own shard (the ranged map with one stripe per
    /// range), so every workload batch that spans groups crosses the
    /// router's shard boundary.
    ///
    /// # Panics
    /// Panics if the fixed shard configuration stops validating — a bug
    /// in this module, not an input error.
    pub fn build_sharded(&self, transport: Arc<SimTransport>) -> Box<dyn QuorumStore> {
        let shards: Vec<Box<dyn QuorumStore>> = (0..SHARDS)
            .map(|_| self.build(Arc::clone(&transport)))
            .collect();
        let map = ShardMap::ranged(SHARDS, 1).expect("shard count is positive");
        let sharded = ShardedStore::new(shards, map)
            .expect("shard vector matches the map")
            .sequential_batches();
        Box::new(sharded)
    }
}

// ---------------------------------------------------------------------
// Scenarios and workloads.
// ---------------------------------------------------------------------

/// Weights and bounds describing one adversarial regime.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Name for reports and CI artifacts.
    pub name: &'static str,
    /// Network model outside quiesced (create/scrub) windows.
    pub model: NetworkModel,
    /// Op-mix weights: write, read, crash, restart, partition, heal,
    /// scrub, advance, write-batch, read-batch, scrub-shard, degrade.
    pub weights: [u32; 12],
    /// Probability a crash is volatile (loses the disk).
    pub wipe_prob: f64,
    /// Max nodes simultaneously crashed or partitioned — stays within
    /// the protocols' tolerance so the run keeps making progress.
    pub max_down: usize,
    /// Max nodes with wiped disks between scrubs.
    pub max_wiped: usize,
    /// Storage fault axis: when set, every node's backend is wrapped in
    /// a seeded [`FaultingBackend`] — crashes revert the node to its
    /// last fsync barrier (the recovery-visible equivalent of a torn
    /// final log record), automatic fsyncs silently fail, and slow reads
    /// stretch reply latency. The matrices stay clean under this *only*
    /// because every node flushes before it acks (`StorageNode::put_acked`),
    /// which pins every revert to an acknowledged state: the axis is the
    /// regression guard for that flush. Drop it and a read-one protocol
    /// promptly reuses a committed version built on a reverted replica —
    /// a `CommitRegression` the checker catches within a few seeds.
    pub storage_faults: Option<StorageFaults>,
}

impl Scenario {
    /// Lossy, duplicating, non-FIFO links — reordering and partial
    /// writes, no node failures.
    pub fn loss_and_reorder() -> Self {
        Scenario {
            name: "loss-reorder",
            model: NetworkModel {
                heavy_tail: 0.1,
                ..NetworkModel::hostile(0.08, 0.06)
            },
            weights: [10, 10, 0, 0, 0, 0, 2, 4, 5, 5, 1, 2],
            wipe_prob: 0.0,
            max_down: 0,
            max_wiped: 0,
            storage_faults: None,
        }
    }

    /// One-directional partitions over mildly lossy links.
    pub fn partitions() -> Self {
        Scenario {
            name: "partitions",
            model: NetworkModel {
                heavy_tail: 0.1,
                ..NetworkModel::hostile(0.02, 0.0)
            },
            weights: [10, 10, 0, 0, 4, 3, 2, 4, 5, 5, 1, 2],
            wipe_prob: 0.0,
            max_down: 2,
            max_wiped: 0,
            storage_faults: None,
        }
    }

    /// Crash-restart churn, including volatile crashes that lose disks.
    pub fn crash_restart() -> Self {
        Scenario {
            name: "crash-restart",
            model: NetworkModel {
                loss: 0.01,
                heavy_tail: 0.1,
                ..NetworkModel::reliable()
            },
            weights: [10, 10, 5, 5, 0, 0, 3, 4, 5, 5, 1, 2],
            wipe_prob: 0.3,
            max_down: 2,
            max_wiped: 1,
            storage_faults: None,
        }
    }

    /// Everything at once.
    pub fn chaos() -> Self {
        Scenario {
            name: "chaos",
            model: NetworkModel {
                heavy_tail: 0.15,
                ..NetworkModel::hostile(0.05, 0.04)
            },
            weights: [10, 10, 4, 4, 3, 2, 3, 4, 5, 5, 2, 2],
            wipe_prob: 0.25,
            max_down: 2,
            max_wiped: 1,
            storage_faults: None,
        }
    }

    /// An at-least-once fabric: cross-round redelivery plus heavy
    /// duplication over lossy, reordering links, with crash-restart
    /// churn — stale writes land rounds after their caller gave up, and
    /// stale acks surface in rounds that never issued them. The
    /// idempotent command API (monotone node mutations, identity-matched
    /// gathering) is what keeps this history checker-clean.
    pub fn at_least_once() -> Self {
        Scenario {
            name: "at-least-once",
            model: NetworkModel {
                heavy_tail: 0.1,
                ..NetworkModel::at_least_once(0.05, 0.25)
            },
            weights: [10, 10, 3, 3, 2, 2, 3, 4, 5, 5, 1, 2],
            wipe_prob: 0.2,
            max_down: 2,
            max_wiped: 1,
            storage_faults: None,
        }
    }

    /// The standing scenario matrix.
    pub fn all() -> Vec<Scenario> {
        vec![
            Scenario::loss_and_reorder(),
            Scenario::partitions(),
            Scenario::crash_restart(),
            Scenario::chaos(),
            Scenario::at_least_once(),
        ]
    }

    /// Turns on the storage fault axis with the aggressive default mix
    /// (see [`StorageFaults::aggressive`]).
    pub fn with_storage_faults(mut self) -> Self {
        self.storage_faults = Some(StorageFaults::aggressive());
        self
    }

    /// Turns on the *corrupting* storage axis
    /// ([`StorageFaults::corrupting`]): nodes serve bit-flipped or
    /// misdirected copies of their stored blocks at high probability.
    /// The matrices stay clean under this only because every served
    /// shard is checksummed — the node's self-check answers
    /// `NodeError::Corrupt` and the client cross-checksum catches
    /// whatever slips past; any corruption *returned* to the workload
    /// would be a `ForeignValue` violation within a few ops.
    pub fn with_corruption(mut self) -> Self {
        self.storage_faults = Some(StorageFaults::corrupting());
        self
    }
}

/// One step of a generated workload. Node indices refer to the shared
/// cluster; fault steps carry a virtual-time offset so they can land in
/// the middle of a later operation's fan-out.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadOp {
    /// Write `fill`-patterned bytes to a block.
    Write {
        /// Target block.
        block: usize,
        /// Pattern seed; the payload is `fill.wrapping_add(i)` per byte.
        fill: u8,
    },
    /// Read a block.
    Read {
        /// Target block.
        block: usize,
    },
    /// Schedule a crash `after` virtual ns from now.
    Crash {
        /// Node to crash.
        node: usize,
        /// Keep the disk across the crash?
        durable: bool,
        /// Virtual-time offset of the fault.
        after: u64,
    },
    /// Schedule the restart of a crashed node (`pick` selects among the
    /// currently-down set).
    Restart {
        /// Selector into the down set.
        pick: usize,
        /// Virtual-time offset of the fault.
        after: u64,
    },
    /// Partition a set of nodes in one direction.
    Partition {
        /// Affected nodes.
        nodes: Vec<usize>,
        /// `true` blocks replies (acks vanish, writes land); `false`
        /// blocks requests.
        replies: bool,
    },
    /// Heal all partitions.
    Heal,
    /// Quiesce (restart everything, heal, reliable links) and scrub
    /// every stripe group.
    Scrub,
    /// Jump virtual time forward.
    Advance {
        /// Virtual nanoseconds to skip.
        dt: u64,
    },
    /// Write several blocks in one batched call — on a sharded store
    /// the batch fans out across stripe groups through the router.
    WriteBatch {
        /// Distinct target blocks with their pattern seeds.
        blocks: Vec<(usize, u8)>,
    },
    /// Read several blocks in one batched call.
    ReadBatch {
        /// Distinct target blocks.
        blocks: Vec<usize>,
    },
    /// Quiesce, then scrub a single stripe group (shard-targeted
    /// anti-entropy); the other groups' stale replicas stay stale.
    ScrubShard {
        /// Stripe group selector (taken modulo the groups in play).
        shard: usize,
    },
    /// Turn a node gray: it stays up and keeps answering, just `factor`
    /// times slower — the straggler mode crash/partition axes cannot
    /// produce. A second degrade of the same node restores it instead.
    Degrade {
        /// Node to slow down (or restore).
        node: usize,
        /// Service-time multiplier while gray.
        factor: u64,
    },
}

/// Generates `count` workload steps from a seed. Truncating the count
/// yields a prefix of the longer workload — the property minimization
/// relies on.
pub fn generate_ops(seed: u64, scenario: &Scenario, count: usize) -> Vec<WorkloadOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let total: u32 = scenario.weights.iter().sum();
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        let mut pick = rng.random_range(0..total);
        let mut kind = 0usize;
        for (i, &w) in scenario.weights.iter().enumerate() {
            if pick < w {
                kind = i;
                break;
            }
            pick -= w;
        }
        ops.push(match kind {
            0 => WorkloadOp::Write {
                block: rng.random_range(0..TOTAL_BLOCKS),
                fill: rng.random_range(0..=u8::MAX),
            },
            1 => WorkloadOp::Read {
                block: rng.random_range(0..TOTAL_BLOCKS),
            },
            2 => WorkloadOp::Crash {
                node: rng.random_range(0..CLUSTER_NODES),
                durable: !rng.random_bool(scenario.wipe_prob),
                after: rng.random_range(0..5_000u64),
            },
            3 => WorkloadOp::Restart {
                pick: rng.random_range(0..CLUSTER_NODES),
                after: rng.random_range(0..5_000u64),
            },
            4 => {
                let count = rng.random_range(1..=2usize);
                let mut nodes = BTreeSet::new();
                while nodes.len() < count {
                    nodes.insert(rng.random_range(0..CLUSTER_NODES));
                }
                WorkloadOp::Partition {
                    nodes: nodes.into_iter().collect(),
                    replies: rng.random_bool(0.5),
                }
            }
            5 => WorkloadOp::Heal,
            6 => WorkloadOp::Scrub,
            7 => WorkloadOp::Advance {
                dt: rng.random_range(1_000..200_000u64),
            },
            8 => {
                let count = rng.random_range(2..=4usize);
                let mut picked = BTreeSet::new();
                while picked.len() < count {
                    picked.insert(rng.random_range(0..TOTAL_BLOCKS));
                }
                WorkloadOp::WriteBatch {
                    blocks: picked
                        .into_iter()
                        .map(|b| (b, rng.random_range(0..=u8::MAX)))
                        .collect(),
                }
            }
            9 => {
                let count = rng.random_range(2..=4usize);
                let mut picked = BTreeSet::new();
                while picked.len() < count {
                    picked.insert(rng.random_range(0..TOTAL_BLOCKS));
                }
                WorkloadOp::ReadBatch {
                    blocks: picked.into_iter().collect(),
                }
            }
            10 => WorkloadOp::ScrubShard {
                shard: rng.random_range(0..SHARDS),
            },
            _ => WorkloadOp::Degrade {
                node: rng.random_range(0..CLUSTER_NODES),
                factor: rng.random_range(10..=100u64),
            },
        });
    }
    ops
}

/// The `fill`-patterned payload a [`WorkloadOp::Write`] carries.
pub fn payload(fill: u8) -> Vec<u8> {
    (0..BLOCK_LEN).map(|i| fill.wrapping_add(i as u8)).collect()
}

// ---------------------------------------------------------------------
// The history checker.
// ---------------------------------------------------------------------

/// What a history violated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// A read returned a version below the latest completed write.
    StaleRead {
        /// Version floor at the time of the read.
        floor: u64,
        /// Version the read returned.
        got: u64,
    },
    /// A read returned bytes that were never written to the block.
    ForeignValue,
    /// Two observations of the same version carried different bytes
    /// while the block had no failed-write residue to explain it.
    VersionValueConflict {
        /// The version observed twice.
        version: u64,
    },
    /// A completed write did not advance the version.
    CommitRegression {
        /// Version floor before the write.
        floor: u64,
        /// Version the write reported.
        got: u64,
    },
    /// A scrub settled a block below the version floor.
    ScrubRegression {
        /// Version floor before the scrub.
        floor: u64,
        /// Version the scrub settled on.
        got: u64,
    },
}

/// A consistency violation, pinned to the op that exposed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// What rule broke.
    pub kind: ViolationKind,
    /// Which block.
    pub block: usize,
    /// Index of the workload op that observed the violation (the
    /// minimal repro is the op prefix of length `op_index + 1`).
    pub op_index: usize,
    /// Human-readable context.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "op {} block {}: {:?} — {}",
            self.op_index, self.block, self.kind, self.detail
        )
    }
}

impl std::error::Error for Violation {}

/// Per-block shadow state.
#[derive(Debug, Clone)]
struct BlockHistory {
    /// Version of the latest completed write or full-refresh settle.
    floor: u64,
    /// Every value that could legally surface: the initial content,
    /// committed writes, failed-write residues.
    ever: Vec<Vec<u8>>,
    /// First-observed bytes per version (reads, commits, settles).
    bindings: BTreeMap<u64, Vec<u8>>,
    /// `true` while a failed write's residue may be visible — version
    /// numbers can then legally be reused, so the one-value-per-version
    /// binding is suspended until the next full refresh.
    dirty: bool,
}

impl BlockHistory {
    fn knows(&self, bytes: &[u8]) -> bool {
        self.ever.iter().any(|v| v == bytes)
    }
    fn remember(&mut self, bytes: &[u8]) {
        if !self.knows(bytes) {
            self.ever.push(bytes.to_vec());
        }
    }
}

/// Online oracle validating a [`QuorumStore`] history against
/// regular-register semantics per block. See the [module docs](self)
/// for the exact rules and their justification.
#[derive(Debug, Clone)]
pub struct HistoryChecker {
    blocks: Vec<BlockHistory>,
}

impl HistoryChecker {
    /// Starts a history at the stripe's initial contents (version 0).
    pub fn new(initial: &[Vec<u8>]) -> Self {
        HistoryChecker {
            blocks: initial
                .iter()
                .map(|b| BlockHistory {
                    floor: 0,
                    ever: vec![b.clone()],
                    bindings: BTreeMap::from([(0, b.clone())]),
                    dirty: false,
                })
                .collect(),
        }
    }

    /// The latest completed-write version of a block.
    pub fn floor(&self, block: usize) -> u64 {
        self.blocks[block].floor
    }

    /// Number of blocks this history tracks — the workload driver
    /// derives the stripe-group count from it.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Records a *completed* write. Completed versions must strictly
    /// increase; the committed value becomes the binding for its
    /// version.
    ///
    /// # Errors
    /// [`ViolationKind::CommitRegression`] or
    /// [`ViolationKind::VersionValueConflict`].
    pub fn commit(
        &mut self,
        block: usize,
        bytes: &[u8],
        version: u64,
        op_index: usize,
    ) -> Result<(), Violation> {
        let b = &mut self.blocks[block];
        b.remember(bytes);
        if version <= b.floor {
            return Err(Violation {
                kind: ViolationKind::CommitRegression {
                    floor: b.floor,
                    got: version,
                },
                block,
                op_index,
                detail: format!("completed write reported v{version} at floor v{}", b.floor),
            });
        }
        if let Some(bound) = b.bindings.get(&version) {
            if bound != bytes && !b.dirty {
                return Err(Violation {
                    kind: ViolationKind::VersionValueConflict { version },
                    block,
                    op_index,
                    detail: "commit reused a version already observed with other bytes".to_string(),
                });
            }
        }
        b.bindings.insert(version, bytes.to_vec());
        b.floor = version;
        Ok(())
    }

    /// Records a *failed* write: its payload may still surface (partial
    /// write, lost ack), and its version stamp may collide with a later
    /// one — the block is dirty until the next full refresh.
    pub fn residue(&mut self, block: usize, bytes: &[u8]) {
        let b = &mut self.blocks[block];
        b.remember(bytes);
        b.dirty = true;
    }

    /// Validates a successful read.
    ///
    /// # Errors
    /// [`ViolationKind::StaleRead`], [`ViolationKind::ForeignValue`] or
    /// [`ViolationKind::VersionValueConflict`].
    pub fn observe_read(
        &mut self,
        block: usize,
        bytes: &[u8],
        version: u64,
        op_index: usize,
    ) -> Result<(), Violation> {
        let b = &mut self.blocks[block];
        if version < b.floor {
            return Err(Violation {
                kind: ViolationKind::StaleRead {
                    floor: b.floor,
                    got: version,
                },
                block,
                op_index,
                detail: format!(
                    "read served v{version} after a write completed at v{}",
                    b.floor
                ),
            });
        }
        if !b.knows(bytes) {
            return Err(Violation {
                kind: ViolationKind::ForeignValue,
                block,
                op_index,
                detail: format!("read returned bytes never written (v{version})"),
            });
        }
        match b.bindings.get(&version) {
            Some(bound) if bound != bytes => {
                if !b.dirty {
                    return Err(Violation {
                        kind: ViolationKind::VersionValueConflict { version },
                        block,
                        op_index,
                        detail: "two reads of one version disagreed on bytes".to_string(),
                    });
                }
            }
            Some(_) => {}
            None => {
                b.bindings.insert(version, bytes.to_vec());
            }
        }
        Ok(())
    }

    /// Notes blocks a scrub salvaged (rolled back to an older
    /// recoverable value at a superseding version): their bindings are
    /// suspect until the settle.
    pub fn note_salvaged(&mut self, blocks: &[usize]) {
        for &i in blocks {
            if let Some(b) = self.blocks.get_mut(i) {
                b.dirty = true;
            }
        }
    }

    /// Settles a block after a *full* refresh (every node acked the
    /// scrub): the settled value is the one plausible state, residues
    /// are gone, and the floor moves up to the settled version.
    ///
    /// # Errors
    /// [`ViolationKind::ScrubRegression`] if the settle went below the
    /// floor.
    pub fn settle(
        &mut self,
        block: usize,
        bytes: &[u8],
        version: u64,
        op_index: usize,
    ) -> Result<(), Violation> {
        let b = &mut self.blocks[block];
        if version < b.floor {
            return Err(Violation {
                kind: ViolationKind::ScrubRegression {
                    floor: b.floor,
                    got: version,
                },
                block,
                op_index,
                detail: format!("scrub settled on v{version} below floor v{}", b.floor),
            });
        }
        b.floor = version;
        b.ever = vec![bytes.to_vec()];
        b.bindings = BTreeMap::from([(version, bytes.to_vec())]);
        b.dirty = false;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The explorer.
// ---------------------------------------------------------------------

/// A fully-specified, replayable case. Equality of configs implies
/// equality of reports.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseConfig {
    /// Seed for both the workload and the network schedule.
    pub seed: u64,
    /// Backend under test.
    pub backend: Backend,
    /// Adversarial regime.
    pub scenario: Scenario,
    /// Number of workload steps.
    pub ops: usize,
}

/// Aggregate outcome counters of one case.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CaseStats {
    /// Completed writes.
    pub commits: u64,
    /// Failed writes (potential residue).
    pub residues: u64,
    /// Successful reads.
    pub reads_ok: u64,
    /// Successful reads served by Algorithm 2 Case 2 (decoded from `k`
    /// shards rather than read from the home node).
    pub reads_decoded: u64,
    /// Failed reads.
    pub reads_failed: u64,
    /// Scrubs that returned a report.
    pub scrubs_ok: u64,
    /// Scrubs that errored.
    pub scrubs_failed: u64,
    /// Per-block version floors at the end of the run.
    pub final_floors: Vec<u64>,
}

impl CaseStats {
    fn read_ok(&mut self, out: &ReadOutcome) {
        self.reads_ok += 1;
        self.reads_decoded += u64::from(out.decoded());
    }
}

/// Everything one case produced; [`PartialEq`] so determinism is one
/// `assert_eq!` away.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseReport {
    /// The case that ran.
    pub config: CaseConfig,
    /// Outcome counters.
    pub stats: CaseStats,
    /// The simulation's network counters.
    pub sim: SimStats,
    /// What the armed hedge policy did over the case: re-issues fired,
    /// won, absorbed, and retry tokens spent.
    pub hedges: HedgeCounters,
    /// Reads the storage fault axis served corrupted (bit-flipped or
    /// misdirected) — non-zero on a corruption-axis case proves the
    /// clean checker verdict was earned, not vacuous.
    pub corrupted_reads: u64,
    /// The first consistency violation, if any (the run stops there).
    pub violation: Option<Violation>,
}

/// Runs one case end to end: provision a [`SHARDS`]-group
/// [`ShardedStore`] under reliable links, drive the workload (including
/// cross-shard batches and shard-targeted scrubs) under the scenario's
/// model, settle with a final quiesced scrub of every group, and report.
pub fn run_case(cfg: &CaseConfig) -> CaseReport {
    let ops = generate_ops(cfg.seed, &cfg.scenario, cfg.ops);
    // Kept so the report can count how many reads the fault axis
    // actually corrupted — the proof the corruption runs are not
    // vacuously clean.
    let mut fault_backends: Vec<Arc<FaultingBackend>> = Vec::new();
    let cluster = match cfg.scenario.storage_faults {
        // The storage fault axis: every node's map sits behind a seeded
        // faulting wrapper, each node with its own fault stream derived
        // from the case seed so the whole case stays replayable.
        Some(faults) => Cluster::with_backends(CLUSTER_NODES, |i| {
            let backend = Arc::new(FaultingBackend::new(
                Arc::new(MemoryBackend::new()),
                faults,
                cfg.seed
                    .wrapping_mul(0xD6E8_FEB8_6659_FD93)
                    .wrapping_add(i as u64),
            ));
            fault_backends.push(Arc::clone(&backend));
            backend
        }),
        None => Cluster::new(CLUSTER_NODES),
    };
    let sim = Arc::new(SimTransport::with_model(
        cluster,
        cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
        NetworkModel::reliable(),
    ));
    let store = cfg.backend.build_sharded(Arc::clone(&sim));
    let initial: Vec<Vec<u8>> = (0..TOTAL_BLOCKS).map(|i| payload(i as u8)).collect();
    for group in 0..SHARDS {
        store
            .create(
                STRIPE + group as u64,
                initial[group * BLOCKS..(group + 1) * BLOCKS].to_vec(),
            )
            .expect("provisioning under reliable links succeeds");
    }
    // Hedging arms *after* provisioning (whose require-every-ack rounds
    // would turn any adaptively-timed-out slow disk into a provisioning
    // failure) and is pinned ON (P99) rather than inherited from
    // `TQ_HEDGE`: a `CaseConfig` replay must be bit-for-bit identical
    // in any environment. The dormant registry sampled RTTs throughout
    // provisioning, so the estimator starts the workload warm. The
    // matrices thereby double as the adaptive-robustness soak — hedge
    // re-issues, adaptive deadlines and retry-budget spends all run
    // under the checker, and `CaseReport::hedges` counts what fired.
    sim.health_registry().set_policy(HedgePolicy::P99);
    sim.set_model(cfg.scenario.model.clone());

    let mut checker = HistoryChecker::new(&initial);
    let (stats, violation) = run_workload(store.as_ref(), &sim, &cfg.scenario, &ops, &mut checker);
    CaseReport {
        config: cfg.clone(),
        stats,
        sim: sim.stats(),
        hedges: sim.health_registry().hedge_counters(),
        corrupted_reads: fault_backends.iter().map(|b| b.corrupted_reads()).sum(),
        violation,
    }
}

/// Shrinks a failing case to the shortest op prefix that still produces
/// a violation (workload generation is prefix-stable, so the prefix of
/// length `op_index + 1` is the canonical minimum). Returns `None` if
/// the case does not fail.
pub fn minimize(cfg: &CaseConfig) -> Option<CaseReport> {
    let report = run_case(cfg);
    let violation = report.violation.as_ref()?;
    let truncated = CaseConfig {
        ops: (violation.op_index + 1).min(cfg.ops),
        ..cfg.clone()
    };
    let minimal = run_case(&truncated);
    if minimal.violation.is_some() {
        Some(minimal)
    } else {
        Some(report)
    }
}

/// Drives one workload against one store and settles with a final
/// quiesced scrub — the driver both [`run_case`] and tests use; it is
/// public so tests can inject instrumented [`QuorumStore`] wrappers
/// (e.g. the deliberate version-regression bug demo).
pub fn run_workload(
    store: &dyn QuorumStore,
    sim: &SimTransport,
    scenario: &Scenario,
    ops: &[WorkloadOp],
    checker: &mut HistoryChecker,
) -> (CaseStats, Option<Violation>) {
    let mut stats = CaseStats::default();
    let mut runner = Runner {
        sim,
        store,
        scenario,
        down: BTreeSet::new(),
        wiped: BTreeSet::new(),
        partitioned: BTreeSet::new(),
        degraded: BTreeSet::new(),
        fault_horizon: 0,
    };
    let mut violation = None;
    for (op_index, op) in ops.iter().enumerate() {
        if let Err(v) = runner.step(op, op_index, checker, &mut stats) {
            violation = Some(v);
            break;
        }
    }
    if violation.is_none() {
        if let Err(v) = runner.scrub(ops.len(), checker, &mut stats) {
            violation = Some(v);
        }
    }
    stats.final_floors = (0..checker.block_count())
        .map(|b| checker.floor(b))
        .collect();
    (stats, violation)
}

/// Stripe groups a checker's address space spans.
fn group_count(checker: &HistoryChecker) -> usize {
    checker.block_count().div_ceil(BLOCKS).max(1)
}

/// Workload-driver state: which faults are outstanding, so fault
/// pressure stays within the scenario's bounds.
struct Runner<'a> {
    sim: &'a SimTransport,
    store: &'a dyn QuorumStore,
    scenario: &'a Scenario,
    down: BTreeSet<usize>,
    wiped: BTreeSet<usize>,
    partitioned: BTreeSet<usize>,
    degraded: BTreeSet<usize>,
    fault_horizon: u64,
}

/// Max simultaneously-gray nodes: degrades do not count against
/// `max_down` (a gray node is up and still acks), but unbounded graying
/// would starve the run of fast quorums and make it vacuous.
const MAX_DEGRADED: usize = 2;

impl Runner<'_> {
    fn pressure(&self) -> usize {
        self.down.union(&self.partitioned).count()
    }

    fn step(
        &mut self,
        op: &WorkloadOp,
        op_index: usize,
        checker: &mut HistoryChecker,
        stats: &mut CaseStats,
    ) -> Result<(), Violation> {
        match op {
            WorkloadOp::Write { block, fill } => {
                let bytes = payload(*fill);
                match self.store.write(addr_of(*block), &bytes) {
                    Ok(out) => {
                        stats.commits += 1;
                        checker.commit(*block, &bytes, out.version, op_index)?;
                    }
                    // The embedded read failed before anything was sent:
                    // no residue exists.
                    Err(ProtocolError::OldValueUnreadable(_)) => {}
                    Err(_) => {
                        stats.residues += 1;
                        checker.residue(*block, &bytes);
                    }
                }
            }
            WorkloadOp::Read { block } => match self.store.read(addr_of(*block)) {
                Ok(out) => {
                    stats.read_ok(&out);
                    checker.observe_read(*block, &out.bytes, out.version, op_index)?;
                }
                Err(_) => stats.reads_failed += 1,
            },
            WorkloadOp::WriteBatch { blocks } => {
                let payloads: Vec<Vec<u8>> =
                    blocks.iter().map(|&(_, fill)| payload(fill)).collect();
                let items: Vec<BatchWrite<'_>> = blocks
                    .iter()
                    .zip(&payloads)
                    .map(|(&(block, _), bytes)| BatchWrite {
                        addr: addr_of(block),
                        bytes,
                    })
                    .collect();
                let batch = self.store.write_batch(&items);
                for ((&(block, _), bytes), outcome) in
                    blocks.iter().zip(&payloads).zip(&batch.outcomes)
                {
                    match outcome {
                        Ok(out) => {
                            stats.commits += 1;
                            checker.commit(block, bytes, out.version, op_index)?;
                        }
                        Err(ProtocolError::OldValueUnreadable(_)) => {}
                        Err(_) => {
                            stats.residues += 1;
                            checker.residue(block, bytes);
                        }
                    }
                }
            }
            WorkloadOp::ReadBatch { blocks } => {
                let addrs: Vec<BlockAddr> = blocks.iter().map(|&b| addr_of(b)).collect();
                let batch = self.store.read_batch(&addrs);
                for (&block, outcome) in blocks.iter().zip(&batch.outcomes) {
                    match outcome {
                        Ok(out) => {
                            stats.read_ok(out);
                            checker.observe_read(block, &out.bytes, out.version, op_index)?;
                        }
                        Err(_) => stats.reads_failed += 1,
                    }
                }
            }
            WorkloadOp::Crash {
                node,
                durable,
                after,
            } => {
                let wiping = !durable;
                if !self.down.contains(node)
                    && self.pressure() < self.scenario.max_down
                    && (!wiping || self.wiped.len() < self.scenario.max_wiped)
                {
                    let at = self.sim.now() + after;
                    self.sim.schedule(
                        at,
                        SimFault::Crash {
                            node: *node,
                            durable: *durable,
                        },
                    );
                    self.fault_horizon = self.fault_horizon.max(at);
                    self.down.insert(*node);
                    if wiping {
                        self.wiped.insert(*node);
                    }
                }
            }
            WorkloadOp::Restart { pick, after } => {
                if let Some(&node) = self.down.iter().nth(pick % self.down.len().max(1)) {
                    // Never before the crash itself fires.
                    let at = (self.sim.now() + after).max(self.fault_horizon + 1);
                    self.sim.schedule(at, SimFault::Restart { node });
                    self.fault_horizon = self.fault_horizon.max(at);
                    self.down.remove(&node);
                }
            }
            WorkloadOp::Partition { nodes, replies } => {
                let fresh: Vec<usize> = nodes
                    .iter()
                    .copied()
                    .filter(|n| !self.partitioned.contains(n))
                    .collect();
                if !fresh.is_empty() && self.pressure() + fresh.len() <= self.scenario.max_down {
                    self.partitioned.extend(fresh.iter().copied());
                    let fault = if *replies {
                        SimFault::PartitionReplies { nodes: fresh }
                    } else {
                        SimFault::PartitionRequests { nodes: fresh }
                    };
                    self.sim.apply(fault);
                }
            }
            WorkloadOp::Heal => {
                self.sim.apply(SimFault::HealPartitions);
                self.partitioned.clear();
            }
            WorkloadOp::Degrade { node, factor } => {
                if self.degraded.contains(node) {
                    self.sim.apply(SimFault::Degrade {
                        node: *node,
                        factor: 1,
                    });
                    self.degraded.remove(node);
                } else if self.degraded.len() < MAX_DEGRADED {
                    self.sim.apply(SimFault::Degrade {
                        node: *node,
                        factor: *factor,
                    });
                    self.degraded.insert(*node);
                }
            }
            WorkloadOp::Scrub => self.scrub(op_index, checker, stats)?,
            WorkloadOp::ScrubShard { shard } => {
                let group = shard % group_count(checker);
                self.scrub_groups(&[group], op_index, checker, stats)?;
            }
            WorkloadOp::Advance { dt } => self.sim.advance(*dt),
        }
        Ok(())
    }

    /// Quiesce and scrub every stripe group.
    fn scrub(
        &mut self,
        op_index: usize,
        checker: &mut HistoryChecker,
        stats: &mut CaseStats,
    ) -> Result<(), Violation> {
        let groups: Vec<usize> = (0..group_count(checker)).collect();
        self.scrub_groups(&groups, op_index, checker, stats)
    }

    /// Quiesce and scrub the given stripe groups: fire outstanding
    /// scheduled faults, restart every node, heal partitions, wait out
    /// every in-flight cross-round message (anti-entropy runs behind a
    /// quiet network — a stale write landing *after* the scrub settled
    /// would undo the settle), run each group's scrub over reliable
    /// links, settle the checker from a read-back, then restore the
    /// scenario. A group's blocks settle only when *its* scrub refreshed
    /// every node the stripe spans ([`QuorumStore::stripe_nodes`] — on a
    /// sharded store that is the owning shard's node count, not the
    /// router-wide sum).
    fn scrub_groups(
        &mut self,
        groups: &[usize],
        op_index: usize,
        checker: &mut HistoryChecker,
        stats: &mut CaseStats,
    ) -> Result<(), Violation> {
        while let Some(t) = self.sim.next_planned_fault() {
            self.sim.advance_to(t);
        }
        for node in 0..CLUSTER_NODES {
            if !self.sim.cluster().node(node).is_up() {
                self.sim.apply(SimFault::Restart { node });
            }
        }
        self.sim.apply(SimFault::HealPartitions);
        // Gray nodes clear too: anti-entropy reads every member, and a
        // 100× straggler under the quiesced window would stall the
        // settle for no adversarial value the workload phase didn't
        // already extract.
        for &node in &self.degraded {
            self.sim.apply(SimFault::Degrade { node, factor: 1 });
        }
        self.degraded.clear();
        self.sim.flush_inflight();
        let saved = self.sim.model();
        self.sim.set_model(NetworkModel::reliable());

        for &group in groups {
            let stripe = STRIPE + group as u64;
            match self.store.scrub(stripe) {
                Ok(report) => {
                    stats.scrubs_ok += 1;
                    let salvaged: Vec<usize> = report
                        .salvaged
                        .iter()
                        .map(|&b| group * BLOCKS + b)
                        .collect();
                    checker.note_salvaged(&salvaged);
                    let full = report.refreshed.len() == self.store.stripe_nodes(stripe);
                    for index in 0..BLOCKS {
                        let block = group * BLOCKS + index;
                        if block >= checker.block_count() {
                            break;
                        }
                        match self.store.read(BlockAddr::new(stripe, index)) {
                            Ok(out) => {
                                stats.read_ok(&out);
                                checker.observe_read(block, &out.bytes, out.version, op_index)?;
                                if full {
                                    checker.settle(block, &out.bytes, out.version, op_index)?;
                                }
                            }
                            Err(_) => stats.reads_failed += 1,
                        }
                    }
                }
                Err(_) => stats.scrubs_failed += 1,
            }
        }

        self.sim.set_model(saved);
        self.down.clear();
        self.wiped.clear();
        self.partitioned.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_generation_is_prefix_stable() {
        let scenario = Scenario::chaos();
        let long = generate_ops(9, &scenario, 40);
        let short = generate_ops(9, &scenario, 15);
        assert_eq!(&long[..15], &short[..]);
    }

    #[test]
    fn checker_accepts_a_clean_history() {
        let initial: Vec<Vec<u8>> = (0..2).map(|i| payload(i as u8)).collect();
        let mut c = HistoryChecker::new(&initial);
        c.observe_read(0, &initial[0], 0, 0).unwrap();
        let w = payload(0xAA);
        c.commit(0, &w, 1, 1).unwrap();
        c.observe_read(0, &w, 1, 2).unwrap();
        assert_eq!(c.floor(0), 1);
        c.settle(0, &w, 1, 3).unwrap();
    }

    #[test]
    fn checker_flags_stale_reads_and_regressions() {
        let initial = vec![payload(0)];
        let mut c = HistoryChecker::new(&initial);
        let w = payload(0xBB);
        c.commit(0, &w, 1, 0).unwrap();
        let v = c.observe_read(0, &initial[0], 0, 1).unwrap_err();
        assert!(matches!(
            v.kind,
            ViolationKind::StaleRead { floor: 1, got: 0 }
        ));
        let v = c.commit(0, &w, 1, 2).unwrap_err();
        assert!(matches!(v.kind, ViolationKind::CommitRegression { .. }));
        let v = c.settle(0, &w, 0, 3).unwrap_err();
        assert!(matches!(v.kind, ViolationKind::ScrubRegression { .. }));
    }

    #[test]
    fn checker_flags_foreign_values_and_version_conflicts() {
        let initial = vec![payload(0)];
        let mut c = HistoryChecker::new(&initial);
        let v = c.observe_read(0, &payload(0xCC), 0, 0).unwrap_err();
        assert!(matches!(v.kind, ViolationKind::ForeignValue));
        // Same version, two different known values, no residue: conflict.
        let a = payload(1);
        let b = payload(2);
        c.commit(0, &a, 1, 1).unwrap();
        c.residue(0, &b); // dirty: conflict tolerated
        c.observe_read(0, &b, 1, 2).unwrap();
        let mut clean = HistoryChecker::new(&initial);
        clean.commit(0, &a, 1, 0).unwrap();
        clean.remember_for_test(0, &b);
        let v = clean.observe_read(0, &b, 1, 1).unwrap_err();
        assert!(matches!(
            v.kind,
            ViolationKind::VersionValueConflict { version: 1 }
        ));
    }

    #[test]
    fn residue_then_full_settle_clears_dirtiness() {
        let initial = vec![payload(0)];
        let mut c = HistoryChecker::new(&initial);
        c.residue(0, &payload(9));
        c.observe_read(0, &payload(9), 1, 0).unwrap();
        c.settle(0, &payload(9), 2, 1).unwrap();
        // After the settle the old initial value is gone for good.
        let v = c.observe_read(0, &initial[0], 2, 2).unwrap_err();
        assert!(matches!(v.kind, ViolationKind::ForeignValue));
    }

    #[test]
    fn every_backend_survives_a_reliable_workload() {
        for backend in Backend::ALL {
            let cfg = CaseConfig {
                seed: 5,
                backend,
                scenario: Scenario {
                    name: "calm",
                    model: NetworkModel::reliable(),
                    weights: [10, 10, 0, 0, 0, 0, 1, 2, 5, 5, 1, 0],
                    wipe_prob: 0.0,
                    max_down: 0,
                    max_wiped: 0,
                    storage_faults: None,
                },
                ops: 30,
            };
            let report = run_case(&cfg);
            assert!(
                report.violation.is_none(),
                "{}: {:?}",
                backend.label(),
                report.violation
            );
            assert!(report.stats.commits > 0, "{}", backend.label());
            assert!(report.stats.reads_ok > 0, "{}", backend.label());
        }
    }

    impl HistoryChecker {
        /// Test hook: mark bytes as known without dirtying the block.
        fn remember_for_test(&mut self, block: usize, bytes: &[u8]) {
            self.blocks[block].remember(bytes);
        }
    }
}
