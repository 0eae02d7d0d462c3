//! The unified, protocol-agnostic store API.
//!
//! The paper's claims are *comparative* — TRAP-ERC vs TRAP-FR vs ROWA vs
//! Majority on cost, availability and storage — so the repo needs one
//! surface that every protocol serves. This module supplies it:
//!
//! * [`QuorumStore`] — the facade trait: `create` / `read` / `write` /
//!   `read_batch` / `write_batch` / `scrub` / `rebuild_node_stripes`,
//!   served by all four protocols and usable as `Box<dyn QuorumStore>`;
//! * [`StoreInfo`] — a static descriptor (n, k, trapezoid shape, storage
//!   overhead) so experiments can label results without downcasting;
//! * [`OpReport`] — per-operation round/message/straggler accounting
//!   sourced from the [`tq_cluster::QuorumRound`] engine, carried by
//!   [`ReadOutcome`]/[`WriteOutcome`] and by the batch results;
//! * [`Store`] + [`StoreBuilder`] — one builder for the four protocols.
//!
//! There is one quorum client, [`TrapErcClient`]: TRAP-FR, ROWA and
//! Majority are configurations of it over an `(m, 1)` code
//! ([`Store::trap_fr`], [`Store::rowa`], [`Store::majority`]). There is
//! one protocol path: the fused plan. It fuses the per-level fan-outs
//! of all addressed blocks into one
//! [`tq_cluster::MultiRound`] scatter per level, and a single `read` /
//! `write` is that plan with one item — same rounds, same messages,
//! same error for the same cluster state. A `write_batch` of `m` blocks
//! therefore costs roughly one network round per trapezoid level
//! instead of `m` — compare [`OpReport::network_rounds`] of a batch
//! against a loop, as `tests/cost_pins.rs`'s
//! `batches_stay_flat_in_rounds` does.
//!
//! # Example
//!
//! ```
//! use tq_cluster::{Cluster, LocalTransport};
//! use tq_trapezoid::store::{BatchWrite, BlockAddr, QuorumStore, Store};
//!
//! // A (9, 6) TRAP-ERC store on a trapezoid of n-k+1 = 4 nodes.
//! let cluster = Cluster::new(9);
//! let store = Store::trap_erc(9, 6)
//!     .shape(2, 1, 1)
//!     .uniform_w(1)
//!     .transport(LocalTransport::new(cluster.clone()))
//!     .build()
//!     .unwrap();
//! assert_eq!(store.info().protocol, "trap-erc");
//!
//! store
//!     .create(1, (0..6).map(|i| vec![i as u8; 64]).collect())
//!     .unwrap();
//! let w = store.write(BlockAddr::new(1, 2), &[0xAB; 64]).unwrap();
//! assert_eq!(w.version, 1);
//!
//! // Batched writes fuse all blocks' level fan-outs into one scatter
//! // per level: the round count stays flat as the batch grows.
//! let payloads: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 64]).collect();
//! let items: Vec<BatchWrite> = payloads
//!     .iter()
//!     .enumerate()
//!     .map(|(i, p)| BatchWrite::new(BlockAddr::new(1, i), p))
//!     .collect();
//! let batch = store.write_batch(&items);
//! assert!(batch.outcomes.iter().all(|r| r.is_ok()));
//!
//! // Reads survive the data node's death (decode path).
//! cluster.kill(2);
//! let r = store.read(BlockAddr::new(1, 2)).unwrap();
//! assert_eq!(r.bytes, payloads[2]);
//! assert_eq!(r.version, 2, "the batch superseded the single write");
//! ```

#![deny(missing_docs)]

use tq_cluster::{RoundOutcome, Transport};
use tq_erasure::CodeParams;
use tq_quorum::trapezoid::{TrapezoidShape, WriteThresholds};

use crate::baselines::{self, Replicated};
use crate::config::ProtocolConfig;
use crate::errors::ProtocolError;
use crate::recovery::RebuildReport;
use crate::trap_erc::{ReadOutcome, ScrubReport, TrapErcClient, WriteOutcome};

/// Address of one logical block: a stripe and a block index within it.
///
/// For the erasure-coded backend the stripe is a real (n, k) stripe and
/// `block` indexes its data blocks (`0..k`). Replication backends map
/// each address onto an independent replicated object — a one-block
/// stripe of their `(m, 1)` code (`block` must stay below
/// [`OBJECTS_PER_STRIPE`]) — which gives all four protocols one
/// namespace for cross-protocol assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockAddr {
    /// Stripe identifier.
    pub stripe: u64,
    /// Block index within the stripe.
    pub block: usize,
}

impl BlockAddr {
    /// Builds an address.
    pub fn new(stripe: u64, block: usize) -> Self {
        BlockAddr { stripe, block }
    }
}

/// How many block slots a stripe id spans in the replication backends'
/// flattened object namespace (`object id = stripe · SLOTS + block`).
pub const OBJECTS_PER_STRIPE: u64 = 4096;

/// Maps a [`BlockAddr`] onto the replication backends' object namespace.
pub(crate) fn replicated_object_id(addr: BlockAddr) -> Result<u64, ProtocolError> {
    if addr.block as u64 >= OBJECTS_PER_STRIPE {
        return Err(ProtocolError::Misconfigured(
            "block index outside the replicated object namespace",
        ));
    }
    addr.stripe
        .checked_mul(OBJECTS_PER_STRIPE)
        .and_then(|base| base.checked_add(addr.block as u64))
        .ok_or(ProtocolError::Misconfigured(
            "stripe id outside the replicated object namespace",
        ))
}

/// Static description of a store: what protocol it runs and what that
/// costs, for experiment labelling and cross-protocol tables.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreInfo {
    /// Protocol identifier: `"trap-erc"`, `"trap-fr"`, `"rowa"` or
    /// `"majority"`.
    pub protocol: &'static str,
    /// Number of transport nodes the store occupies.
    pub nodes: usize,
    /// Code width n (replication backends: the replica count).
    pub n: usize,
    /// Data blocks per stripe k (replication backends: 1).
    pub k: usize,
    /// Fixed blocks per stripe, if the backend stripes data
    /// (`Some(k)` for TRAP-ERC; `None` where stripes are emulated).
    pub stripe_width: Option<usize>,
    /// Trapezoid `(a, b, h)` for the trapezoid protocols.
    pub shape: Option<(usize, usize, usize)>,
    /// Stored blocks per data block — eq. 14 (`n − k + 1`) for TRAP-FR,
    /// eq. 15 (`n / k`) for TRAP-ERC, `n` for full replication.
    pub storage_overhead: f64,
    /// `true` iff reads may need an erasure decode.
    pub erasure_coded: bool,
}

/// Accounting for one fan-out round (possibly fused over several logical
/// operations), sourced from the [`tq_cluster::QuorumRound`] engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundStats {
    /// Trapezoid level the round served, if it was a level round
    /// (auxiliary rounds — direct fetches, decode widening — carry
    /// `None`).
    pub level: Option<usize>,
    /// Logical operations fused into this round (1 for single ops).
    pub ops: usize,
    /// Completions observed (acks + errors); on the lazy sequential
    /// transport this equals the requests actually issued.
    pub sent: usize,
    /// Successful replies.
    pub accepted: usize,
    /// In-band failures (down nodes, guard rejections).
    pub rejected: usize,
    /// Members whose replies were never awaited (stragglers).
    pub abandoned: usize,
}

/// Per-operation network accounting: one entry per scatter-gather round
/// the operation issued, in issue order.
///
/// The batched operations' acceptance criterion lives here: a
/// `write_batch` of m blocks reports one *fused* round per trapezoid
/// level ([`RoundStats::ops`] = m), not m independent per-level rounds —
/// `network_rounds()` stays flat as m grows while `messages()` scales.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpReport {
    /// The rounds, in issue order.
    pub rounds: Vec<RoundStats>,
}

impl OpReport {
    /// Number of scatter-gather rounds the operation cost — the
    /// latency-side figure of merit (each round is one concurrent
    /// fan-out on [`tq_cluster::SimTransport`] and
    /// [`tq_cluster::TcpTransport`]).
    pub fn network_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Total completions observed across rounds — the bandwidth-side
    /// figure of merit.
    pub fn messages(&self) -> usize {
        self.rounds.iter().map(|r| r.sent).sum()
    }

    /// Total successful replies.
    pub fn accepted(&self) -> usize {
        self.rounds.iter().map(|r| r.accepted).sum()
    }

    /// Total in-band failures.
    pub fn rejected(&self) -> usize {
        self.rounds.iter().map(|r| r.rejected).sum()
    }

    /// Total abandoned stragglers.
    pub fn stragglers(&self) -> usize {
        self.rounds.iter().map(|r| r.abandoned).sum()
    }

    /// Rounds that served trapezoid level `l`.
    pub fn rounds_at_level(&self, l: usize) -> usize {
        self.rounds.iter().filter(|r| r.level == Some(l)).count()
    }

    /// Records one fused round covering `outcomes.len()` logical ops (a
    /// single-op round is a plan of one).
    pub(crate) fn absorb_fused(&mut self, level: Option<usize>, outcomes: &[RoundOutcome]) {
        let mut stats = RoundStats {
            level,
            ops: outcomes.len(),
            sent: 0,
            accepted: 0,
            rejected: 0,
            abandoned: 0,
        };
        for o in outcomes {
            stats.sent += o.accepted.len() + o.rejected.len();
            stats.accepted += o.accepted.len();
            stats.rejected += o.rejected.len();
            stats.abandoned += o.abandoned.len();
        }
        self.rounds.push(stats);
    }

    /// Appends another report's rounds (e.g. a write's embedded read).
    pub(crate) fn merge_from(&mut self, other: OpReport) {
        self.rounds.extend(other.rounds);
    }
}

/// One item of a [`QuorumStore::write_batch`].
#[derive(Debug, Clone, Copy)]
pub struct BatchWrite<'a> {
    /// Target block.
    pub addr: BlockAddr,
    /// New contents.
    pub bytes: &'a [u8],
}

impl<'a> BatchWrite<'a> {
    /// Builds one batch-write item.
    pub fn new(addr: BlockAddr, bytes: &'a [u8]) -> Self {
        BatchWrite { addr, bytes }
    }
}

/// Result of a [`QuorumStore::read_batch`]: per-item outcomes plus the
/// fused accounting of the whole batch (per-item reports are empty; the
/// rounds were shared, so they live here).
#[derive(Debug, Clone)]
pub struct BatchReads {
    /// One result per requested address, in request order.
    pub outcomes: Vec<Result<ReadOutcome, ProtocolError>>,
    /// Accounting for the fused rounds serving the whole batch.
    pub report: OpReport,
}

impl BatchReads {
    /// `true` iff every item succeeded.
    pub fn all_ok(&self) -> bool {
        self.outcomes.iter().all(|r| r.is_ok())
    }

    /// A batch of one, as the single-op result: the plan's rounds ride
    /// on the outcome.
    pub(crate) fn into_single(mut self) -> Result<ReadOutcome, ProtocolError> {
        let mut out = self.outcomes.pop().expect("one outcome per item")?;
        out.report = self.report;
        Ok(out)
    }
}

/// Result of a [`QuorumStore::write_batch`]; see [`BatchReads`] for the
/// report convention.
#[derive(Debug, Clone)]
pub struct BatchWrites {
    /// One result per item, in request order.
    pub outcomes: Vec<Result<WriteOutcome, ProtocolError>>,
    /// Accounting for the fused rounds serving the whole batch.
    pub report: OpReport,
}

impl BatchWrites {
    /// `true` iff every item succeeded.
    pub fn all_ok(&self) -> bool {
        self.outcomes.iter().all(|r| r.is_ok())
    }

    /// See [`BatchReads::into_single`].
    pub(crate) fn into_single(mut self) -> Result<WriteOutcome, ProtocolError> {
        let mut out = self.outcomes.pop().expect("one outcome per item")?;
        out.report = self.report;
        Ok(out)
    }
}

/// The protocol-agnostic store facade.
///
/// One trait served by all four protocols (TRAP-ERC directly by
/// [`TrapErcClient`], the replication baselines by that client over an
/// `(m, 1)` code), object-safe so experiments can fan over
/// `Vec<Box<dyn QuorumStore>>`. Construct implementations through
/// [`Store`].
pub trait QuorumStore: Send + Sync {
    /// Static descriptor of this store.
    fn info(&self) -> StoreInfo;

    /// Provisions stripe `stripe` with the given data blocks (all nodes
    /// must be live — provisioning sits outside the availability model).
    /// Backends with a fixed [`StoreInfo::stripe_width`] require exactly
    /// that many blocks; replication backends accept any number.
    ///
    /// Creation is **first-wins / idempotent**: the node-level installs
    /// are at-least-once safe, so re-creating a stripe id that already
    /// exists acknowledges without resetting it — the existing blocks
    /// and versions are kept, and `Ok` means "provisioned", not
    /// "reinstalled". Use a fresh stripe id for genuinely new content;
    /// there is no destructive re-create.
    ///
    /// # Errors
    /// [`ProtocolError::SizeMismatch`] on ragged or mis-sized input;
    /// node errors if provisioning could not reach every node.
    fn create(&self, stripe: u64, blocks: Vec<Vec<u8>>) -> Result<OpReport, ProtocolError>;

    /// Reads one block with strict consistency.
    ///
    /// # Errors
    /// Protocol-specific read failures (no quorum, not enough nodes to
    /// decode, missing stripe).
    fn read(&self, addr: BlockAddr) -> Result<ReadOutcome, ProtocolError>;

    /// Writes one block with strict consistency.
    ///
    /// # Errors
    /// Protocol-specific write failures (old value unreadable, quorum
    /// not met).
    fn write(&self, addr: BlockAddr, new: &[u8]) -> Result<WriteOutcome, ProtocolError>;

    /// Reads many blocks in fused per-level fan-outs (one scatter per
    /// level for the whole batch, not one per block).
    fn read_batch(&self, addrs: &[BlockAddr]) -> BatchReads;

    /// Writes many blocks in fused per-level fan-outs. Addresses must be
    /// distinct; a duplicate gets [`ProtocolError::Misconfigured`].
    fn write_batch(&self, items: &[BatchWrite<'_>]) -> BatchWrites;

    /// Anti-entropy pass over one stripe: pushes the latest readable
    /// state of every block back to all live nodes, refreshing stale
    /// replicas (and, for TRAP-ERC, salvaging poisoned blocks). Must run
    /// quiesced.
    ///
    /// # Errors
    /// Propagates blocks whose current state cannot be read back.
    fn scrub(&self, stripe: u64) -> Result<ScrubReport, ProtocolError>;

    /// Number of nodes that serve `stripe`. For single-group backends
    /// this is just [`StoreInfo::nodes`]; a sharded store overrides it to
    /// the size of the one shard the stripe routes to, so callers sizing
    /// a per-stripe operation (a scrub's "did every node refresh?" check)
    /// do not mistake the whole federation for one group.
    fn stripe_nodes(&self, stripe: u64) -> usize {
        let _ = stripe;
        self.info().nodes
    }

    /// Rebuilds a replaced node's blocks across the given stripes — the
    /// TRAP-ERC recovery workflow (decode from `k` survivors, re-install
    /// on the blank node); on a replication backend the node's replica
    /// of every object of each stripe.
    ///
    /// # Errors
    /// The first stripe that cannot be rebuilt.
    fn rebuild_node_stripes(
        &self,
        ids: &[u64],
        node: usize,
    ) -> Result<Vec<RebuildReport>, ProtocolError>;
}

impl<S: QuorumStore + ?Sized> QuorumStore for Box<S> {
    fn info(&self) -> StoreInfo {
        (**self).info()
    }
    fn create(&self, stripe: u64, blocks: Vec<Vec<u8>>) -> Result<OpReport, ProtocolError> {
        (**self).create(stripe, blocks)
    }
    fn read(&self, addr: BlockAddr) -> Result<ReadOutcome, ProtocolError> {
        (**self).read(addr)
    }
    fn write(&self, addr: BlockAddr, new: &[u8]) -> Result<WriteOutcome, ProtocolError> {
        (**self).write(addr, new)
    }
    fn read_batch(&self, addrs: &[BlockAddr]) -> BatchReads {
        (**self).read_batch(addrs)
    }
    fn write_batch(&self, items: &[BatchWrite<'_>]) -> BatchWrites {
        (**self).write_batch(items)
    }
    fn scrub(&self, stripe: u64) -> Result<ScrubReport, ProtocolError> {
        (**self).scrub(stripe)
    }
    fn stripe_nodes(&self, stripe: u64) -> usize {
        (**self).stripe_nodes(stripe)
    }
    fn rebuild_node_stripes(
        &self,
        ids: &[u64],
        node: usize,
    ) -> Result<Vec<RebuildReport>, ProtocolError> {
        (**self).rebuild_node_stripes(ids, node)
    }
}

impl<S: QuorumStore + ?Sized> QuorumStore for std::sync::Arc<S> {
    fn info(&self) -> StoreInfo {
        (**self).info()
    }
    fn create(&self, stripe: u64, blocks: Vec<Vec<u8>>) -> Result<OpReport, ProtocolError> {
        (**self).create(stripe, blocks)
    }
    fn read(&self, addr: BlockAddr) -> Result<ReadOutcome, ProtocolError> {
        (**self).read(addr)
    }
    fn write(&self, addr: BlockAddr, new: &[u8]) -> Result<WriteOutcome, ProtocolError> {
        (**self).write(addr, new)
    }
    fn read_batch(&self, addrs: &[BlockAddr]) -> BatchReads {
        (**self).read_batch(addrs)
    }
    fn write_batch(&self, items: &[BatchWrite<'_>]) -> BatchWrites {
        (**self).write_batch(items)
    }
    fn scrub(&self, stripe: u64) -> Result<ScrubReport, ProtocolError> {
        (**self).scrub(stripe)
    }
    fn stripe_nodes(&self, stripe: u64) -> usize {
        (**self).stripe_nodes(stripe)
    }
    fn rebuild_node_stripes(
        &self,
        ids: &[u64],
        node: usize,
    ) -> Result<Vec<RebuildReport>, ProtocolError> {
        (**self).rebuild_node_stripes(ids, node)
    }
}

// ---------------------------------------------------------------------
// TRAP-ERC serves the trait directly; the replication backends through
// `baselines::Replicated`.
// ---------------------------------------------------------------------

impl<T: Transport> QuorumStore for TrapErcClient<T> {
    fn info(&self) -> StoreInfo {
        let p = self.config().params();
        let shape = self.config().shape();
        StoreInfo {
            protocol: "trap-erc",
            nodes: p.n(),
            n: p.n(),
            k: p.k(),
            stripe_width: Some(p.k()),
            shape: Some((shape.a(), shape.b(), shape.h())),
            storage_overhead: p.n() as f64 / p.k() as f64,
            erasure_coded: true,
        }
    }
    fn create(&self, stripe: u64, blocks: Vec<Vec<u8>>) -> Result<OpReport, ProtocolError> {
        self.create_stripe(stripe, blocks)
    }
    fn read(&self, addr: BlockAddr) -> Result<ReadOutcome, ProtocolError> {
        self.read_block(addr.stripe, addr.block)
    }
    fn write(&self, addr: BlockAddr, new: &[u8]) -> Result<WriteOutcome, ProtocolError> {
        self.write_block(addr.stripe, addr.block, new)
    }
    fn read_batch(&self, addrs: &[BlockAddr]) -> BatchReads {
        self.read_blocks(addrs)
    }
    fn write_batch(&self, items: &[BatchWrite<'_>]) -> BatchWrites {
        self.write_blocks(items)
    }
    fn scrub(&self, stripe: u64) -> Result<ScrubReport, ProtocolError> {
        self.scrub_stripe(stripe)
    }
    fn rebuild_node_stripes(
        &self,
        ids: &[u64],
        node: usize,
    ) -> Result<Vec<RebuildReport>, ProtocolError> {
        // The inherent method on the client (recovery.rs), not a
        // recursive trait call: inherent methods win resolution.
        TrapErcClient::rebuild_node_stripes(self, ids, node)
    }
}

// ---------------------------------------------------------------------
// The builder.
// ---------------------------------------------------------------------

/// Which protocol a [`StoreBuilder`] will construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StoreKind {
    TrapErc,
    TrapFr,
    Rowa,
    Majority,
}

/// Threshold specification accumulated by the builder.
#[derive(Debug, Clone)]
enum ThresholdSpec {
    /// `w = 1` on every level `≥ 1` (the builder default).
    Default,
    /// One `w` for all levels `≥ 1` (the paper's eq. 16 parameter).
    Uniform(usize),
    /// Explicit per-level thresholds for levels `1..=h`
    /// (`w_0 = ⌊b/2⌋ + 1` is always prepended).
    PerLevel(Vec<usize>),
}

/// Entry points of the unified builder: `Store::<protocol>(..)` starts a
/// [`StoreBuilder`]; chain `.shape(..)`, `.thresholds(..)` /
/// `.uniform_w(..)` and `.transport(..)`, then `.build()` for a
/// `Box<dyn QuorumStore>` or `.build_<protocol>()` for the concrete
/// client. See the [module docs](self) for a worked example.
#[derive(Debug)]
pub struct Store;

impl Store {
    /// A TRAP-ERC store over an (n, k) MDS stripe.
    pub fn trap_erc(n: usize, k: usize) -> StoreBuilder {
        StoreBuilder::new(StoreKind::TrapErc, n, k)
    }

    /// A TRAP-FR store: the same trapezoid over `n − k + 1` full
    /// replicas (the paper's §IV comparison baseline) — TRAP-ERC over an
    /// `(n − k + 1, 1)` code.
    pub fn trap_fr(n: usize, k: usize) -> StoreBuilder {
        StoreBuilder::new(StoreKind::TrapFr, n, k)
    }

    /// A Read-One-Write-All store over `n` replicas: one level with
    /// `w = n` over an `(n, 1)` code.
    pub fn rowa(n: usize) -> StoreBuilder {
        StoreBuilder::new(StoreKind::Rowa, n, 1)
    }

    /// A Majority-quorum store over `n` replicas: one level with
    /// `w = ⌊n/2⌋ + 1` over an `(n, 1)` code, reading from as many.
    pub fn majority(n: usize) -> StoreBuilder {
        StoreBuilder::new(StoreKind::Majority, n, 1)
    }

    /// A TRAP-ERC builder preset from an already-validated
    /// [`ProtocolConfig`] (for experiment drivers that sweep configs).
    pub fn from_config(config: ProtocolConfig) -> StoreBuilder {
        let (n, k) = (config.params().n(), config.params().k());
        let mut b = StoreBuilder::new(StoreKind::TrapErc, n, k);
        b.config = Some(config);
        b
    }
}

/// Accumulates a store specification; bind a transport with
/// [`StoreBuilder::transport`] to reach the build step.
#[derive(Debug, Clone)]
pub struct StoreBuilder {
    kind: StoreKind,
    n: usize,
    k: usize,
    shape: Option<(usize, usize, usize)>,
    thresholds: ThresholdSpec,
    config: Option<ProtocolConfig>,
}

impl StoreBuilder {
    fn new(kind: StoreKind, n: usize, k: usize) -> Self {
        StoreBuilder {
            kind,
            n,
            k,
            shape: None,
            thresholds: ThresholdSpec::Default,
            config: None,
        }
    }

    /// Sets the trapezoid `(a, b, h)`. Without it, the builder picks the
    /// first enumerable shape with `n − k + 1` nodes. Ignored by the
    /// replication-only protocols.
    pub fn shape(mut self, a: usize, b: usize, h: usize) -> Self {
        self.shape = Some((a, b, h));
        self
    }

    /// Sets explicit write thresholds for levels `1..=h`
    /// (`w_0 = ⌊b/2⌋ + 1` is always prepended, as eq. 6 requires).
    pub fn thresholds(mut self, w: &[usize]) -> Self {
        self.thresholds = ThresholdSpec::PerLevel(w.to_vec());
        self
    }

    /// Sets the single eq. 16 threshold `w` for every level `≥ 1`.
    pub fn uniform_w(mut self, w: usize) -> Self {
        self.thresholds = ThresholdSpec::Uniform(w);
        self
    }

    /// Binds the transport, enabling the build step.
    pub fn transport<T: Transport>(self, transport: T) -> BoundStoreBuilder<T> {
        BoundStoreBuilder {
            spec: self,
            transport,
        }
    }

    /// Resolves the trapezoid shape and thresholds (ignored by ROWA and
    /// Majority, whose one level is fixed by `n`).
    fn resolve_trapezoid(&self) -> Result<(TrapezoidShape, WriteThresholds), ProtocolError> {
        let shape = match self.shape {
            Some((a, b, h)) => TrapezoidShape::new(a, b, h).map_err(ProtocolError::Shape)?,
            None => {
                let nbnode = self.n.checked_sub(self.k).map(|d| d + 1).unwrap_or(0);
                *TrapezoidShape::with_node_count(nbnode).first().ok_or(
                    ProtocolError::Misconfigured("no trapezoid shape organises n - k + 1 nodes"),
                )?
            }
        };
        let thresholds = match &self.thresholds {
            ThresholdSpec::Default => {
                WriteThresholds::paper_default(&shape, 1).map_err(ProtocolError::Shape)?
            }
            ThresholdSpec::Uniform(w) => {
                WriteThresholds::paper_default(&shape, *w).map_err(ProtocolError::Shape)?
            }
            ThresholdSpec::PerLevel(w) => {
                let mut all = Vec::with_capacity(w.len() + 1);
                all.push(shape.b() / 2 + 1);
                all.extend_from_slice(w);
                WriteThresholds::new(&shape, all).map_err(ProtocolError::Shape)?
            }
        };
        Ok((shape, thresholds))
    }

    /// Resolves the full TRAP-ERC configuration.
    fn resolve_config(&self) -> Result<ProtocolConfig, ProtocolError> {
        if let Some(config) = &self.config {
            return Ok(config.clone());
        }
        let params = CodeParams::new(self.n, self.k).map_err(ProtocolError::Params)?;
        let (shape, thresholds) = self.resolve_trapezoid()?;
        ProtocolConfig::new(params, shape, thresholds)
    }
}

/// A [`StoreBuilder`] with its transport bound: ready to build.
#[derive(Debug)]
pub struct BoundStoreBuilder<T: Transport> {
    spec: StoreBuilder,
    transport: T,
}

impl<T: Transport + 'static> BoundStoreBuilder<T> {
    /// Builds the store as a protocol-agnostic trait object.
    ///
    /// # Errors
    /// Parameter/shape validation failures; a transport smaller than the
    /// protocol needs.
    pub fn build(self) -> Result<Box<dyn QuorumStore>, ProtocolError> {
        let StoreBuilder { kind, n, k, .. } = self.spec;
        let replicated = match kind {
            StoreKind::TrapErc => return Ok(Box::new(self.build_trap_erc()?)),
            StoreKind::TrapFr => {
                let (shape, thresholds) = self.spec.resolve_trapezoid()?;
                baselines::trap_fr(n, k, shape, thresholds)?
            }
            StoreKind::Rowa => baselines::rowa(n)?,
            StoreKind::Majority => baselines::majority(n)?,
        };
        Ok(Box::new(Replicated::new(replicated, self.transport)?))
    }
}

impl<T: Transport> BoundStoreBuilder<T> {
    /// Builds the concrete TRAP-ERC client (needed for the typed
    /// extension surface: hinted writes, rebuilds, codec access).
    ///
    /// # Errors
    /// As [`BoundStoreBuilder::build`]; additionally
    /// [`ProtocolError::Misconfigured`] if the builder was started for a
    /// different protocol.
    pub fn build_trap_erc(self) -> Result<TrapErcClient<T>, ProtocolError> {
        if self.spec.kind != StoreKind::TrapErc {
            return Err(ProtocolError::Misconfigured(
                "builder was configured for a different protocol",
            ));
        }
        TrapErcClient::new(self.spec.resolve_config()?, self.transport)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tq_cluster::{Cluster, LocalTransport};

    fn transport(n: usize) -> LocalTransport {
        LocalTransport::new(Cluster::new(n))
    }

    #[test]
    fn builder_constructs_all_four_protocols() {
        let erc = Store::trap_erc(15, 8)
            .shape(0, 4, 1)
            .uniform_w(2)
            .transport(transport(15))
            .build()
            .unwrap();
        assert_eq!(erc.info().protocol, "trap-erc");
        assert_eq!(erc.info().stripe_width, Some(8));
        assert!((erc.info().storage_overhead - 15.0 / 8.0).abs() < 1e-12);

        let fr = Store::trap_fr(15, 8)
            .shape(0, 4, 1)
            .uniform_w(2)
            .transport(transport(15))
            .build()
            .unwrap();
        assert_eq!(fr.info().protocol, "trap-fr");
        assert_eq!(fr.info().nodes, 8);
        assert!((fr.info().storage_overhead - 8.0).abs() < 1e-12);

        let rowa = Store::rowa(5).transport(transport(5)).build().unwrap();
        assert_eq!(rowa.info().protocol, "rowa");
        let majority = Store::majority(5).transport(transport(5)).build().unwrap();
        assert_eq!(majority.info().protocol, "majority");
        assert_eq!(majority.info().nodes, 5);
    }

    #[test]
    fn builder_defaults_shape_and_thresholds() {
        // No shape given: the builder picks one with n - k + 1 nodes.
        let erc = Store::trap_erc(9, 6)
            .transport(transport(9))
            .build_trap_erc()
            .unwrap();
        assert_eq!(erc.config().shape().node_count(), 4);
        assert_eq!(
            erc.config().thresholds().as_slice()[0],
            erc.config().shape().b() / 2 + 1
        );
    }

    #[test]
    fn builder_explicit_thresholds_prepend_w0() {
        let erc = Store::trap_erc(15, 8)
            .shape(0, 4, 1)
            .thresholds(&[2])
            .transport(transport(15))
            .build_trap_erc()
            .unwrap();
        assert_eq!(erc.config().thresholds().as_slice(), &[3, 2]);
    }

    #[test]
    fn builder_rejects_protocol_mismatch_and_bad_params() {
        let err = Store::rowa(5)
            .transport(transport(5))
            .build_trap_erc()
            .unwrap_err();
        assert!(matches!(err, ProtocolError::Misconfigured(_)));
        assert!(Store::trap_erc(3, 5)
            .transport(transport(5))
            .build()
            .is_err());
        assert!(Store::trap_erc(9, 6)
            .shape(2, 3, 2)
            .transport(transport(9))
            .build()
            .is_err());
    }

    #[test]
    fn builder_invalid_shape_yields_typed_shape_errors() {
        use tq_quorum::trapezoid::ShapeError;
        // b = 0: no level-0 members.
        let err = Store::trap_erc(9, 6)
            .shape(2, 0, 1)
            .transport(transport(9))
            .build()
            .err()
            .unwrap();
        assert!(matches!(
            err,
            ProtocolError::Shape(ShapeError::EmptyBaseLevel)
        ));
        // Shape organises the wrong node count for the stripe.
        let err = Store::trap_erc(9, 6)
            .shape(2, 3, 2)
            .transport(transport(15))
            .build()
            .err()
            .unwrap();
        assert!(matches!(
            err,
            ProtocolError::Shape(ShapeError::StripeMismatch {
                node_count: 15,
                expected: 4
            })
        ));
        // Threshold above a level's size.
        let err = Store::trap_fr(9, 6)
            .shape(2, 1, 1)
            .uniform_w(7)
            .transport(transport(9))
            .build()
            .err()
            .unwrap();
        assert!(matches!(
            err,
            ProtocolError::Shape(ShapeError::ThresholdOutOfRange { .. })
        ));
        // Explicit w_0 below the level-0 majority.
        let err = Store::trap_erc(15, 8)
            .shape(0, 4, 1)
            .thresholds(&[2])
            .transport(transport(15));
        assert!(err.build().is_ok(), "w_0 is prepended, not user-supplied");
        let err = Store::trap_erc(15, 8)
            .shape(0, 4, 1)
            .thresholds(&[2, 9])
            .transport(transport(15))
            .build()
            .err()
            .unwrap();
        assert!(matches!(
            err,
            ProtocolError::Shape(ShapeError::WrongThresholdCount { .. })
        ));
    }

    #[test]
    fn builder_k_exceeding_n_yields_typed_param_errors() {
        let err = Store::trap_erc(3, 5)
            .transport(transport(5))
            .build()
            .err()
            .unwrap();
        assert!(matches!(err, ProtocolError::Params(_)), "got {err:?}");
        // TRAP-FR has no code parameters; k > n surfaces as the
        // impossible n − k + 1 trapezoid instead.
        let err = Store::trap_fr(3, 5)
            .shape(0, 1, 0)
            .transport(transport(5))
            .build()
            .err()
            .unwrap();
        assert!(
            matches!(err, ProtocolError::Misconfigured(_)),
            "got {err:?}"
        );
    }

    #[test]
    fn builder_zero_height_trapezoid_is_typed_not_a_panic() {
        // h = 0 is legal when the single level covers n − k + 1 nodes…
        let ok = Store::trap_erc(9, 6)
            .shape(0, 4, 0)
            .transport(transport(9))
            .build();
        assert!(ok.is_ok(), "single-level trapezoid of matching width");
        // …and a typed mismatch otherwise (never a panic).
        let err = Store::trap_erc(9, 6)
            .shape(0, 1, 0)
            .transport(transport(9))
            .build()
            .err()
            .unwrap();
        assert!(matches!(
            err,
            ProtocolError::Shape(tq_quorum::trapezoid::ShapeError::StripeMismatch {
                node_count: 1,
                expected: 4
            })
        ));
    }

    #[test]
    fn builder_undersized_transport_is_a_typed_error() {
        let err = Store::rowa(5)
            .transport(transport(3))
            .build()
            .err()
            .unwrap();
        assert!(matches!(err, ProtocolError::Node(_)));
        let err = Store::majority(0)
            .transport(transport(1))
            .build()
            .err()
            .unwrap();
        assert!(matches!(err, ProtocolError::Node(_)));
    }

    #[test]
    fn replicated_namespace_bounds_block_index() {
        assert!(replicated_object_id(BlockAddr::new(1, OBJECTS_PER_STRIPE as usize)).is_err());
        assert_eq!(
            replicated_object_id(BlockAddr::new(2, 3)).unwrap(),
            2 * OBJECTS_PER_STRIPE + 3
        );
    }

    #[test]
    fn op_report_accounting() {
        use crate::rounds::run_recorded;
        use tq_cluster::{NodeId, QuorumRound, Request};
        let t = transport(2);
        t.cluster().kill(1);
        let ping = |node: usize, report: &mut OpReport| {
            let calls = vec![(NodeId(node), Request::Ping)];
            run_recorded(&t, QuorumRound::await_all(0), None, calls, report);
        };
        let mut report = OpReport::default();
        ping(0, &mut report);
        ping(1, &mut report);
        assert_eq!(report.network_rounds(), 2);
        assert_eq!(report.messages(), 2);
        assert_eq!(report.accepted(), 1);
        assert_eq!(report.rejected(), 1);
        let mut other = OpReport::default();
        ping(0, &mut other);
        report.merge_from(other);
        assert_eq!(report.network_rounds(), 3);
    }
}
