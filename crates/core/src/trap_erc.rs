//! The TRAP-ERC protocol client — Algorithms 1 and 2 of the paper.
//!
//! Node mapping: cluster node `i` holds stripe block `i` (`0..k` data,
//! `k..n` parity). For each data block `b_i` the trapezoid members are
//! `{N_i} ∪ {N_k..N_{n-1}}` with `N_i` at level 0 (eq. 5), as computed by
//! [`tq_quorum::TrapErcSystem`].
//!
//! ## Fidelity notes (where the pseudocode under-specifies)
//!
//! * **Version guard placement** — Algorithm 1 reads `V(i, j−k)` from the
//!   parity node and then issues `add` if it matches (lines 25–28). We
//!   fold the comparison into the node-side `AddParity` request, which is
//!   the same decision made atomically (no TOCTOU window between the
//!   version read and the add).
//! * **"Any k updated nodes"** (Algorithm 2 line 34) — parity nodes carry
//!   a version *vector*; decoding mixes blocks from different nodes, so
//!   the k chosen blocks must reflect one stripe state. We group live
//!   parity columns by exact vector equality, take the largest group that
//!   is current for the target block, and add data nodes whose version
//!   matches that group's entry. Under sequential writes this finds every
//!   node the paper would call "updated".
//! * **Failed writes leave residue** — Algorithm 1 validates level by
//!   level and has no rollback; a write that fails at level `l` has
//!   already updated `≥ w_m` nodes at every level `m < l`. Reads may
//!   legitimately observe the new version (a classic quorum-protocol
//!   anomaly the paper inherits from \[12\]); the failure-injection tests
//!   pin down this behaviour.
//!
//! ## Integrity mode
//!
//! Every write carries the stripe's GF-linear cross-checksum state
//! (see [`tq_erasure::check`]): stripe creation installs the
//! data-block checksum vector on each parity node, and a delta write
//! updates exactly one vector entry in the same `AddParity` message
//! that folds the delta — checksums ride existing rounds, costing zero
//! extra network trips. A direct read is checked against the node's
//! stamped self-check; a decoded block is checked against the group's
//! vector, which by linearity vouches for every shard that fed it. Only
//! a mismatch sends the read through each shard's check to name the
//! culprit: a bad shard counts as one more erasure — the read routes
//! around it and proceeds — and only when too few clean shards remain
//! does the read surface [`ProtocolError::Integrity`], never silently
//! wrong bytes. [`TrapErcClient::scrub_stripe`] reports *which* nodes
//! served corrupt bytes and repairs them with its push phase.
//!
//! ## Dispatch
//!
//! There is one rendering of each algorithm: the fused plan. A read
//! ([`TrapErcClient::read_blocks`]) walks its stages — level checks,
//! the `k`-shard poll, Case-2 decode — once for *all* addressed blocks,
//! each stage one [`tq_cluster::MultiRound`] scatter carrying every
//! block still in it. The level check asks `N_i` for the block itself,
//! not just its version, so a healthy read is that one round: `N_i`'s
//! reply answers the version and the data question atomically (an `N_i`
//! fetch follows only where first-quorum completion abandoned it). A
//! block whose `N_i` refused opens Case 2 with one poll of `k` shards
//! whose parity columns double as the level check, so a read with its
//! home node down is two rounds;
//! a write ([`TrapErcClient::write_blocks`]) is that read plus one fused
//! scatter per trapezoid level. A single op is a plan of one
//! ([`TrapErcClient::read_block`], [`TrapErcClient::write_block`]), a
//! hinted write is the write plan with the embedded read skipped, and a
//! scrub reads its `k` blocks as one `k`-item plan — so an op's rounds,
//! messages, corruption attribution and error do not depend on which
//! entry point it arrived through.
//!
//! Each scatter is gathered under the paper's quorum condition. Write
//! levels await every member (the validated *set* is the durability
//! statement; every member must still be attempted) unless a hedge
//! policy is armed, when they complete on the `w_l`-th ack — one rule,
//! chosen in one place for every protocol. Read version checks
//! complete on the `r_l`-th answer (Algorithm 2 line 30; stragglers are
//! abandoned). Straggler read-around is not a second path either: a
//! block whose home node an armed registry flags takes the same poll
//! before level 0, asking `N_i` only if the poll falls short. On
//! `LocalTransport` a plan runs sequentially and its rounds and
//! messages repeat bit-for-bit; on `ChannelTransport` a stage costs
//! roughly its slowest needed responder instead of the sum over
//! members.

use std::cell::OnceCell;

use bytes::Bytes;
use tq_cluster::{
    Lane, NodeError, NodeId, PlanOp, QuorumRound, Request, Response, RoundOutcome, Transport,
};
use tq_erasure::delta::block_delta;
use tq_erasure::{
    data_checks, expected_block_check, expected_parity_check, verify_block, ReedSolomon,
};
use tq_gf256::check::block_check;
use tq_quorum::trapezoid::TrapErcSystem;

use crate::config::ProtocolConfig;
use crate::errors::ProtocolError;
use crate::rounds::{run_fused, run_recorded, Writing};
use crate::store::{BatchReads, BatchWrite, BatchWrites, BlockAddr, OpReport};
use crate::version_matrix::VersionMatrix;

/// How a read was served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadPath {
    /// Algorithm 2 Case 1: `N_i` held the latest version.
    Direct,
    /// Algorithm 2 Case 2: decoded from `k` consistent stripe nodes
    /// (their stripe indices, in the order fed to the codec).
    Decoded {
        /// The k nodes whose blocks were combined.
        nodes: Vec<usize>,
    },
}

/// Result of a successful read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOutcome {
    /// The block contents at `version`.
    pub bytes: Vec<u8>,
    /// The version served.
    pub version: u64,
    /// Which case of Algorithm 2 served it.
    pub path: ReadPath,
    /// Round/message/straggler accounting for the operation (empty on
    /// batch items — the fused rounds are reported on the batch).
    pub report: OpReport,
}

impl ReadOutcome {
    /// `true` iff the decode path was taken.
    pub fn decoded(&self) -> bool {
        matches!(self.path, ReadPath::Decoded { .. })
    }
}

/// Records `node` as having served provably corrupt bytes (once).
fn record_corrupt(corrupt: &mut Vec<usize>, node: usize) {
    if !corrupt.contains(&node) {
        corrupt.push(node);
    }
}

/// One block's state on its way through a read plan.
struct ReadItem {
    /// An armed health registry flagged the block's home node `N_i` a
    /// straggler when the plan was drawn up: the read skips `N_i` and
    /// opens with the `k`-shard poll.
    around: bool,
    /// The `k`-shard poll has been considered for this block (it runs
    /// at most once).
    polled: bool,
    matrix: VersionMatrix,
    /// The version a completed check settled on (Algorithm 2 line 30).
    latest: Option<u64>,
    /// Shard replies in hand for Case 2, in fetch order.
    shards: Vec<Shard>,
    /// Every node already asked for a shard (`N_i` too), answered or not.
    asked: Vec<usize>,
    /// `N_i`'s answer to the `ReadData` a round asked it, held for line
    /// 31 until some level's quorum settles `latest`.
    home: Option<Response>,
    /// Nodes that provably served this block's read corrupt bytes.
    corrupt: Vec<usize>,
    saw_not_found: bool,
    saw_success: bool,
    done: Option<Result<ReadOutcome, ProtocolError>>,
}

/// One shard reply in hand for Case 2.
struct Shard {
    node: usize,
    reply: Response,
    /// The reply's `block_check`, computed at most once per read and only
    /// if the per-shard pass runs (a clean decode never sums a shard).
    sum: OnceCell<u64>,
}

/// What a write plan builds one block's level scatters from.
struct Delta {
    /// The item's single payload allocation; every level's `WriteData`
    /// shares it by refcount (and the accepting node adopts it as the
    /// stored block without copying).
    new: Bytes,
    /// One raw-delta allocation per item: every parity member's
    /// `AddParity` across all levels shares it by refcount and carries
    /// its own α_{j,i} for the node to fold in place.
    raw_delta: Bytes,
    /// The written block's new cross-checksum, updating one entry of
    /// each parity node's stored vector in the same message.
    new_check: u64,
    old_version: u64,
}

/// Records every member of `outcome` that refused to serve with a
/// self-check failure: provably corrupt even though it returned no
/// bytes.
fn record_corrupt_refusals(corrupt: &mut Vec<usize>, outcome: &RoundOutcome) {
    for rejected in &outcome.rejected {
        if matches!(rejected.error, NodeError::Corrupt) {
            record_corrupt(corrupt, rejected.node.0);
        }
    }
}

/// What a scrub did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubReport {
    /// Stripe indices whose state was rewritten (live nodes).
    pub refreshed: Vec<usize>,
    /// Data block indices whose settle had to *supersede* residue: a
    /// failed write's version stamp was visible above the settled value
    /// (or the newest version was outright unrecoverable), so the
    /// recovered value was installed at a version above every observed
    /// stamp rather than rolling any node's counter back.
    pub salvaged: Vec<usize>,
    /// Stripe indices of nodes observed serving corrupt bytes during
    /// the pass — a client-side cross-checksum mismatch or a
    /// node-reported [`NodeError::Corrupt`]. The push phase re-installs
    /// every live node's state, so a node listed here that also appears
    /// in `refreshed` has been repaired.
    pub corrupt: Vec<usize>,
    /// Round/message accounting for the whole pass.
    pub report: OpReport,
}

/// Result of a successful write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOutcome {
    /// The version the write installed (`old + 1`).
    pub version: u64,
    /// Stripe indices of nodes that validated the write, level-major.
    pub validated: Vec<usize>,
    /// Round/message/straggler accounting for the operation (empty on
    /// batch items — the fused rounds are reported on the batch).
    pub report: OpReport,
}

/// The TRAP-ERC client: one per (code, trapezoid, transport) binding.
///
/// The client is stateless between operations (all state lives on the
/// nodes), so one client instance can be shared across threads if the
/// transport is `Sync`.
#[derive(Debug)]
pub struct TrapErcClient<T: Transport> {
    config: ProtocolConfig,
    rs: ReedSolomon,
    /// Per-block trapezoid membership views, indexed by block.
    systems: Vec<TrapErcSystem>,
    transport: T,
    /// Pooled parity scratch sets for the re-encode paths (provisioning
    /// and scrub): each entry is one `parity_count`-buffer set handed to
    /// [`ReedSolomon::encode_into`], recycled instead of reallocated per
    /// stripe. A stack so concurrent scrubs each get their own set.
    scratch: parking_lot::Mutex<Vec<Vec<Vec<u8>>>>,
}

/// How many parity scratch sets the client keeps around; beyond this,
/// returned sets are dropped (bounds memory under a concurrency burst).
const SCRATCH_POOL_CAP: usize = 4;

impl<T: Transport> TrapErcClient<T> {
    /// Binds a configuration to a transport.
    ///
    /// # Errors
    /// [`ProtocolError::Shape`] if the transport exposes fewer nodes than
    /// the stripe needs.
    pub fn new(config: ProtocolConfig, transport: T) -> Result<Self, ProtocolError> {
        let n = config.params().n();
        if transport.node_count() < n {
            return Err(ProtocolError::Node(NodeError::TransportClosed));
        }
        let systems = (0..config.params().k())
            .map(|i| config.system_for_block(i))
            .collect();
        Ok(TrapErcClient {
            rs: config.codec(),
            systems,
            config,
            transport,
            scratch: parking_lot::Mutex::new(Vec::new()),
        })
    }

    /// Takes a pooled parity scratch set, sized to `block_len` bytes per
    /// buffer. Pair with [`TrapErcClient::put_scratch`].
    fn take_scratch(&self, block_len: usize) -> Vec<Vec<u8>> {
        let mut bufs = self.scratch.lock().pop().unwrap_or_default();
        bufs.resize_with(self.config.params().parity_count(), Vec::new);
        for buf in &mut bufs {
            // Length is all that matters: encode_into overwrites every
            // byte (linear_combination clears first), so stale pooled
            // contents are never observable and a full re-zero here
            // would just double-memset the hot path.
            buf.resize(block_len, 0);
        }
        bufs
    }

    /// Returns a scratch set to the pool (dropped when the pool is full).
    fn put_scratch(&self, bufs: Vec<Vec<u8>>) {
        let mut pool = self.scratch.lock();
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(bufs);
        }
    }

    /// Re-encodes the stripe's parity into pooled scratch and builds the
    /// per-node install/repair payloads via `make_req`. The scratch set
    /// goes back to the pool before returning; payload `Bytes` are the
    /// only allocations that leave this function (the nodes adopt them
    /// refcounted, so the scratch itself cannot be moved in).
    fn encode_parity_calls(
        &self,
        data: &[&[u8]],
        mut make_req: impl FnMut(usize, Bytes) -> Request,
    ) -> Vec<(NodeId, Request)> {
        let mut parity = self.take_scratch(data[0].len());
        self.rs.encode_into(data, &mut parity);
        let calls = self
            .config
            .params()
            .parity_indices()
            .zip(&parity)
            .map(|(j, block)| (NodeId(j), make_req(j, Bytes::copy_from_slice(block))))
            .collect();
        self.put_scratch(parity);
        calls
    }

    /// The configuration.
    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// The codec (exposed for verification in tests/benches).
    pub fn codec(&self) -> &ReedSolomon {
        &self.rs
    }

    /// Borrow the transport (fault injection in experiments).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Provisions a stripe: installs the `k` data blocks and `n − k`
    /// encoded parity blocks, all at version 0, in one fan-out round over
    /// all `n` nodes. Requires every node live (provisioning is out of
    /// scope of the paper's availability model). First-wins: a stripe id
    /// that already exists is acknowledged without being reset (see
    /// [`QuorumStore::create`](crate::QuorumStore::create)).
    ///
    /// # Errors
    /// [`ProtocolError::Node`] with the lowest-indexed failing node's
    /// error; [`ProtocolError::SizeMismatch`] on ragged input.
    pub fn create_stripe(&self, id: u64, data: Vec<Vec<u8>>) -> Result<OpReport, ProtocolError> {
        self.create_stripes(vec![(id, data)])
    }

    /// Provisions many stripes in one fused fan-out round (one stripe
    /// is a batch of one; see [`TrapErcClient::create_stripe`]).
    pub(crate) fn create_stripes(
        &self,
        stripes: Vec<(u64, Vec<Vec<u8>>)>,
    ) -> Result<OpReport, ProtocolError> {
        let (n, k) = (self.config.params().n(), self.config.params().k());
        let mut ops = Vec::with_capacity(stripes.len());
        for (id, data) in stripes {
            if data.len() != k {
                return Err(ProtocolError::SizeMismatch);
            }
            let len = data[0].len();
            if data.iter().any(|d| d.len() != len) {
                return Err(ProtocolError::SizeMismatch);
            }
            let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            // The stripe's cross-checksum vector rides the install round.
            let checks = data_checks(&refs);
            // Parity into pooled scratch (one fused pass per parity block).
            let parity_calls = self.encode_parity_calls(&refs, |_, bytes| Request::InitParity {
                id,
                bytes,
                k,
                checks: checks.clone(),
            });
            let mut calls: Vec<(NodeId, Request)> = Vec::with_capacity(n);
            for (i, block) in data.into_iter().enumerate() {
                // The caller's block becomes the wire payload (and, on the
                // node, the stored allocation) without a copy.
                calls.push((
                    NodeId(i),
                    Request::InitData {
                        id,
                        bytes: Bytes::from(block),
                    },
                ));
            }
            calls.extend(parity_calls);
            ops.push(PlanOp {
                round: QuorumRound::await_all(n),
                calls,
            });
        }
        let mut report = OpReport::default();
        for outcome in run_fused(&self.transport, None, ops, &mut report) {
            crate::rounds::require_all(&outcome)?;
        }
        Ok(report)
    }

    /// **Algorithm 1** — writes value `new` to data block `i`: the
    /// write plan ([`TrapErcClient::write_blocks`]) with one item.
    ///
    /// Line 15 first runs READBLOCK to obtain the old chunk and version
    /// (needed for the parity deltas), then walks the trapezoid level by
    /// level; every level must validate at least `w_l` nodes.
    ///
    /// # Errors
    /// [`ProtocolError::OldValueUnreadable`] if the embedded read fails;
    /// [`ProtocolError::WriteQuorumNotMet`] if some level validates fewer
    /// than `w_l` nodes; [`ProtocolError::SizeMismatch`] if `new` has the
    /// wrong length.
    pub fn write_block(
        &self,
        id: u64,
        i: usize,
        new: &[u8],
    ) -> Result<WriteOutcome, ProtocolError> {
        self.write_blocks(&[BatchWrite::new(BlockAddr::new(id, i), new)])
            .into_single()
    }

    /// Algorithm 1 with the old chunk/version supplied by the caller —
    /// the writer that maintains a cache (or the experiment driver that
    /// tracks ground truth) skips the embedded read: the write plan of
    /// one item, entered after line 15. With the hint, the write
    /// succeeds *iff* every level has `w_l` live members, which is
    /// exactly the predicate of eq. 8/9 — `tq-sim` uses this to validate
    /// the write-availability closed form.
    ///
    /// # Errors
    /// See [`TrapErcClient::write_block`], minus the embedded read.
    pub fn write_block_with_hint(
        &self,
        id: u64,
        i: usize,
        new: &[u8],
        old_chunk: &[u8],
        old_version: u64,
    ) -> Result<WriteOutcome, ProtocolError> {
        let items = [BatchWrite::new(BlockAddr::new(id, i), new)];
        let olds = [(0, old_chunk, old_version)];
        self.write_plan(&items, &olds, vec![None], OpReport::default())
            .into_single()
    }

    /// Algorithm 1 lines 16–38 for every item whose old chunk and
    /// version are in hand (`olds`: position in `items`, old chunk, old
    /// version): level by level from the top of the trapezoid, every
    /// surviving block's scatter fused into one round per level (see
    /// [`crate::rounds::write_levels`] for the completion rule).
    fn write_plan(
        &self,
        items: &[BatchWrite<'_>],
        olds: &[(usize, &[u8], u64)],
        mut results: Vec<Option<Result<WriteOutcome, ProtocolError>>>,
        report: OpReport,
    ) -> BatchWrites {
        let mut alive: Vec<Writing<Delta>> = Vec::with_capacity(olds.len());
        for &(idx, old_chunk, old_version) in olds {
            let new = items[idx].bytes;
            if new.len() != old_chunk.len() {
                results[idx] = Some(Err(ProtocolError::SizeMismatch));
                continue;
            }
            match block_delta(old_chunk, new) {
                Ok(raw_delta) => alive.push(Writing {
                    idx,
                    version: old_version + 1,
                    payload: Delta {
                        new: Bytes::copy_from_slice(new),
                        raw_delta: Bytes::from(raw_delta),
                        new_check: block_check(new),
                        old_version,
                    },
                    validated: Vec::new(),
                }),
                Err(e) => results[idx] = Some(Err(e.into())),
            }
        }
        crate::rounds::write_levels(
            &self.transport,
            self.config.shape().num_levels(),
            alive,
            |w, l| {
                let addr = items[w.idx].addr;
                let needed = self.systems[addr.block].thresholds().write_threshold(l);
                (
                    needed,
                    self.write_level_calls(addr, l, &w.payload, w.version),
                )
            },
            results,
            report,
        )
    }

    /// Builds level `l`'s scatter for a write of block `addr`: `write(x)`
    /// to `N_i`, a guarded delta fold to every other member (Algorithm 1
    /// lines 20 and 25–28).
    ///
    /// At `k = 1` the new parity block is `α_j·x` whatever the old one
    /// was, so it is installed whole with the monotone `WriteParity`
    /// instead of folded: a replica that missed earlier writes takes
    /// this one, where a delta's version guard would refuse it until a
    /// scrub.
    fn write_level_calls(
        &self,
        addr: BlockAddr,
        l: usize,
        delta: &Delta,
        new_version: u64,
    ) -> Vec<(NodeId, Request)> {
        let (id, i) = (addr.stripe, addr.block);
        self.systems[i]
            .level_members(l)
            .iter()
            .map(|&member| {
                let req = if member == i {
                    // Line 20: write x into N_i (refcounted clone of the
                    // write's single payload allocation).
                    Request::WriteData {
                        id,
                        bytes: delta.new.clone(),
                        version: new_version,
                    }
                } else if self.config.params().k() == 1 {
                    let alpha = self.rs.coefficient(member, i);
                    let bytes = if alpha.0 == 1 {
                        delta.new.clone()
                    } else {
                        let mut scaled = vec![0u8; delta.new.len()];
                        tq_gf256::slice_ops::mul_slice(alpha, &delta.new, &mut scaled);
                        Bytes::from(scaled)
                    };
                    Request::WriteParity {
                        id,
                        bytes,
                        versions: vec![new_version],
                        checks: vec![delta.new_check],
                    }
                } else {
                    // Lines 25–28: guarded parity fold of α_{j,i}·(x − c).
                    // The raw delta is shared by refcount across every
                    // member and level; each node folds its own
                    // α_{j,i}·delta in place through the dispatched
                    // mul_add kernel — no per-member scaled copy here.
                    Request::AddParity {
                        id,
                        block_index: i,
                        delta: delta.raw_delta.clone(),
                        expected_version: delta.old_version,
                        new_version,
                        coeff: self.rs.coefficient(member, i).0,
                        new_check: Some(delta.new_check),
                    }
                };
                (NodeId(member), req)
            })
            .collect()
    }

    /// **Algorithm 2** — reads data block `i`: the read plan
    /// ([`TrapErcClient::read_blocks`]) with one item.
    ///
    /// Walks levels 0..=h; in each level polls members until
    /// `r_l = s_l − w_l + 1` have answered (the version check). Once a
    /// level completes, serves from `N_i` if it holds the latest version
    /// or has already moved past it (Case 1), or decodes from `k`
    /// consistent nodes (Case 2).
    ///
    /// # Errors
    /// [`ProtocolError::VersionCheckFailed`] if no level completes;
    /// [`ProtocolError::NotEnoughForDecode`] if Case 2 lacks nodes;
    /// [`ProtocolError::Integrity`] if detected corruption (not absence)
    /// is what left fewer than `k` clean shards;
    /// [`ProtocolError::StripeMissing`] if nodes respond but none knows
    /// the object.
    pub fn read_block(&self, id: u64, i: usize) -> Result<ReadOutcome, ProtocolError> {
        self.read_blocks(&[BlockAddr::new(id, i)]).into_single()
    }

    /// True when an armed health registry marks block `i`'s home node
    /// `N_i` a straggler: the read plan then opens with the `k`-shard
    /// poll ([`read_around`]) before asking `N_i` anything and skips
    /// the separate `N_i` fetch, so a gray home node stays off the
    /// read's critical path. This skip is the only hedge-gated part of
    /// the poll: every other read reaches it only once `N_i` has
    /// refused, after its one level-0 message. A dormant or absent
    /// registry never skips `N_i`.
    ///
    /// [`read_around`]: TrapErcClient::read_around
    fn avoid_home(&self, i: usize) -> bool {
        self.transport
            .health()
            .is_some_and(|h| h.hedging_enabled() && h.straggler(i))
    }

    /// **The `k`-shard poll** — Case 2's opening move, for a block the
    /// plan knows must be decoded: `N_i` refused the `ReadData` a round
    /// asked it for, or [`avoid_home`] skips it. One round fetches `k`
    /// shards without `N_i` (data blocks topped up from parity) and lets
    /// the parity replies' version vectors stand in for the level walk.
    /// The check is sound because every non-home member of every level
    /// is a parity node (eq. 5 membership) and any `r_l` members of a
    /// level intersect every completed write's `w_l` set — so once some
    /// level has `r_l` accepted columns, the newest block-`i` entry among
    /// all accepted columns is at least the last committed version, and
    /// any version observed at all was installed by a real write (the
    /// same residue visibility the walk admits). When everything lands
    /// the decode needs nothing more than this one round of `k`
    /// messages. Any shortfall only means the block carries on through
    /// the ordinary stages with the replies it has: no level quorum among
    /// the polled columns — the level walk runs; too few consistent,
    /// current, clean shards — Case 2 widens and fetches replacements.
    /// With a health registry the poll takes the healthiest members and
    /// leaves stragglers out (a one-round poll cannot route around a
    /// member that stalls it); without one every member is eligible, in
    /// index order. `None` (too few eligible members) polls nothing. The
    /// poll may only save messages, never weaken the read.
    ///
    /// [`avoid_home`]: TrapErcClient::avoid_home
    fn read_around(&self, id: u64, i: usize) -> Option<Vec<(NodeId, Request)>> {
        let health = self.transport.health();
        let (n, k) = (self.config.params().n(), self.config.params().k());
        let sys = &self.systems[i];
        let eligible = |node: &usize| !health.is_some_and(|h| h.straggler(*node));
        let rank = |nodes: &mut Vec<usize>| {
            if let Some(h) = health {
                h.rank_nodes(nodes);
            }
        };
        let mut data: Vec<usize> = (0..k).filter(|&t| t != i).filter(eligible).collect();
        let mut parity: Vec<usize> = (k..n).filter(eligible).collect();
        rank(&mut data);
        rank(&mut parity);
        // The walk's check needs r_l members of some level, and with the
        // home node off-limits the candidates are the level's healthy
        // parity members (every non-home member is a parity node). Pick
        // the level satisfiable with the fewest columns and pin its r_l
        // best-ranked members into the poll; their replies double as
        // decoder shards.
        let mut pinned: Vec<usize> = Vec::new();
        let mut best_cost = usize::MAX;
        for l in 0..sys.shape().num_levels() {
            let need = self.config.read_threshold(l);
            let mut have: Vec<usize> = sys
                .level_members(l)
                .iter()
                .copied()
                .filter(|m| parity.contains(m))
                .collect();
            if have.len() >= need && need < best_cost {
                rank(&mut have);
                have.truncate(need);
                best_cost = need;
                pinned = have;
            }
        }
        if pinned.is_empty() {
            return None;
        }
        // Exactly k shards (when the pinned columns allow): data blocks
        // feed the decoder verbatim, so fill the remaining slots with
        // every healthy one and only then with spare parity.
        let data_take = data.len().min(k.saturating_sub(pinned.len()));
        let mut poll_parity = pinned;
        let mut spares = parity
            .iter()
            .copied()
            .filter(|p| !poll_parity.contains(p))
            .collect::<Vec<usize>>()
            .into_iter();
        while poll_parity.len() + data_take < k {
            poll_parity.push(spares.next()?);
        }
        Some(Self::shard_calls(
            id,
            k,
            data[..data_take].iter().chain(&poll_parity),
        ))
    }

    /// Full-shard fetches: `ReadData` to data nodes, `ReadParity` (bytes,
    /// version vector and cross-checksum vector) to parity nodes.
    fn shard_calls<'a>(
        id: u64,
        k: usize,
        nodes: impl Iterator<Item = &'a usize>,
    ) -> Vec<(NodeId, Request)> {
        nodes
            .map(|&node| {
                let req = if node < k {
                    Request::ReadData { id }
                } else {
                    Request::ReadParity { id }
                };
                (NodeId(node), req)
            })
            .collect()
    }

    /// Files one shard-fetch round with the block it was fetched for:
    /// the replies join the shards in hand (issue order keeps the decode
    /// input deterministic), their version stamps refresh the matrix —
    /// a node may have changed since the version pass — and every
    /// member asked is remembered so no round asks it again.
    fn absorb_shards(&self, st: &mut ReadItem, outcome: RoundOutcome) {
        let k = self.config.params().k();
        record_corrupt_refusals(&mut st.corrupt, &outcome);
        st.asked.extend(outcome.rejected.iter().map(|r| r.node.0));
        let mut accepted = outcome.accepted;
        accepted.sort_by_key(|a| a.index);
        for a in accepted {
            let node = a.node.0;
            match &a.response {
                Response::Data { version, .. } if node < k => {
                    st.matrix.set_data_version(node, *version);
                }
                Response::Parity { versions, .. } if node >= k && versions.len() == k => {
                    st.matrix.set_column(node, versions.clone());
                }
                _ => {}
            }
            st.asked.push(node);
            st.shards.push(Shard {
                node,
                reply: a.response,
                sum: OnceCell::new(),
            });
        }
    }

    /// Level `l`'s `r_l` and check scatter for block `i` (Algorithm 2
    /// line 30): the block itself from `N_i` — its reply states its
    /// version, and is what line 31 serves — and the version vector from
    /// every other member. `N_i` is asked last of the `r_0` members a
    /// sequential transport polls: a write reaches `N_i` before any
    /// parity member, so an answer gathered after theirs is never behind
    /// them because of a write in flight (which would send the read off
    /// to decode a stripe in mid-update).
    ///
    /// At `k = 1` (replication) a parity block is a whole scaled copy,
    /// so the check asks for it instead of its version vector: the
    /// quorum that settles `latest` then also holds the one shard a
    /// decode needs, and a read whose `N_i` is down costs no poll.
    fn version_level_calls(&self, id: u64, i: usize, l: usize) -> (usize, Vec<(NodeId, Request)>) {
        let replicated = self.config.params().k() == 1;
        let r_l = self.config.read_threshold(l);
        let mut calls: Vec<(NodeId, Request)> = self.systems[i]
            .level_members(l)
            .iter()
            .map(|&member| {
                let req = if member == i {
                    Request::ReadData { id }
                } else if replicated {
                    Request::ReadParity { id }
                } else {
                    Request::VersionVector { id }
                };
                (NodeId(member), req)
            })
            .collect();
        if l == 0 {
            calls[..r_l].rotate_left(1);
        }
        (r_l, calls)
    }

    /// Case 2's opening move for every block that now knows it must be
    /// decoded — [`avoid_home`] skips its home node, or `N_i` was asked
    /// and refused — and has not polled yet: one fused round of
    /// [`read_around`] polls. Where the polled columns complete some
    /// level's check, a block still without a version has it settled
    /// from them; either way the shards join those in hand for Case 2.
    ///
    /// [`avoid_home`]: TrapErcClient::avoid_home
    /// [`read_around`]: TrapErcClient::read_around
    fn poll_stage(&self, addrs: &[BlockAddr], items: &mut [ReadItem], report: &mut OpReport) {
        let k = self.config.params().k();
        let (mut polled, mut ops) = (Vec::new(), Vec::new());
        for (idx, (st, addr)) in items.iter_mut().zip(addrs).enumerate() {
            let refused = st.asked.contains(&addr.block) && st.home.is_none();
            // A block already holding k shards has what the poll fetches.
            let stocked = st.shards.len() >= k;
            if st.done.is_some() || st.polled || stocked || !(st.around || refused) {
                continue;
            }
            st.polled = true;
            if let Some(calls) = self.read_around(addr.stripe, addr.block) {
                polled.push(idx);
                let round = QuorumRound::await_all(0);
                ops.push(PlanOp { round, calls });
            }
        }
        let polls = run_fused(&self.transport, None, ops, report);
        for (idx, outcome) in polled.into_iter().zip(polls) {
            let (st, i) = (&mut items[idx], addrs[idx].block);
            let sys = &self.systems[i];
            self.absorb_shards(st, outcome);
            let level_checked = (0..sys.shape().num_levels()).any(|l| {
                let columns = sys
                    .level_members(l)
                    .iter()
                    .filter(|&&m| m >= k && st.matrix.get(i, m).is_some())
                    .count();
                columns >= self.config.read_threshold(l)
            });
            if st.latest.is_none() && level_checked {
                st.latest = st.matrix.latest_version(i);
            }
        }
    }

    /// The read plan: Algorithm 2 for every addressed block at once,
    /// stage by stage, each stage one fused round over the blocks still
    /// in it. Returns every block's final state (its result in `done`,
    /// the corrupt nodes its read met in `corrupt`) and the plan's
    /// rounds.
    fn read_plan(&self, addrs: &[BlockAddr]) -> (Vec<ReadItem>, OpReport) {
        let (n, k) = (self.config.params().n(), self.config.params().k());
        let mut report = OpReport::default();
        let mut items: Vec<ReadItem> = addrs
            .iter()
            .map(|addr| ReadItem {
                around: addr.block < k && self.avoid_home(addr.block),
                polled: false,
                matrix: VersionMatrix::new(n, k),
                latest: None,
                shards: Vec::new(),
                asked: Vec::new(),
                home: None,
                corrupt: Vec::new(),
                saw_not_found: false,
                saw_success: false,
                done: (addr.block >= k).then_some(Err(ProtocolError::Misconfigured(
                    "block index outside the stripe",
                ))),
            })
            .collect();
        // The unresolved blocks (by position) a stage applies to.
        let stage = |items: &[ReadItem], applies: &dyn Fn(usize, &ReadItem) -> bool| {
            (0..items.len())
                .filter(|&idx| items[idx].done.is_none() && applies(idx, &items[idx]))
                .collect::<Vec<usize>>()
        };

        // Fused level checks; a block leaves the pending set once some
        // level completes its check (line 30). N_i's reply, the block
        // itself, is its version answer here and waits in `home`. Before
        // each level, a block that now knows it must be decoded takes
        // the k-shard poll instead (a flagged home node's block before
        // level 0, a refused one's right after it).
        for l in 0..self.config.shape().num_levels() {
            self.poll_stage(addrs, &mut items, &mut report);
            let pending = stage(&items, &|_, st| st.latest.is_none());
            if pending.is_empty() {
                break;
            }
            let ops: Vec<PlanOp> = pending
                .iter()
                .map(|&idx| {
                    // One first-quorum op per block: the version check
                    // is complete on the r_l-th answer; later members
                    // are abandoned stragglers.
                    let (r_l, calls) =
                        self.version_level_calls(addrs[idx].stripe, addrs[idx].block, l);
                    PlanOp {
                        round: QuorumRound::first_quorum(r_l),
                        calls,
                    }
                })
                .collect();
            let outcomes = run_fused(&self.transport, Some(l), ops, &mut report);
            for (&idx, outcome) in pending.iter().zip(outcomes) {
                let st = &mut items[idx];
                Self::absorb_home(st, addrs[idx].block, &outcome);
                st.saw_not_found |= outcome.saw_error(|e| matches!(e, NodeError::NotFound));
                st.saw_success |= !outcome.accepted.is_empty();
                let quorum_met = outcome.quorum_met();
                // The check's replies are version answers; at k = 1 they
                // are whole shards as well, kept for Case 2.
                if k == 1 {
                    self.absorb_shards(st, outcome);
                } else {
                    Self::fold_versions_into(&mut st.matrix, &outcome);
                }
                if quorum_met {
                    st.latest = Some(
                        st.matrix
                            .latest_version(addrs[idx].block)
                            .expect("quorum met implies at least one version"),
                    );
                }
                // Level incomplete (fewer than r_l live members): the
                // block tries the next level, keeping whatever columns
                // it already collected.
            }
        }
        for st in &mut items {
            if st.done.is_none() && st.latest.is_none() {
                // Line 39: data is not readable.
                st.done = Some(Err(if st.saw_not_found && !st.saw_success {
                    ProtocolError::StripeMissing
                } else {
                    ProtocolError::VersionCheckFailed
                }));
            }
        }

        // A level's first-quorum completion may have abandoned N_i's reply
        // (s_0 > 1 and r_0 other members answered first): only then is
        // N_i still to be asked, in one fused fetch. A block routing
        // around a straggler home node is headed for Case 2 regardless.
        let direct = stage(&items, &|idx, st| {
            !st.around && !st.asked.contains(&addrs[idx].block)
        });
        let ops = direct
            .iter()
            .map(|&idx| PlanOp {
                round: QuorumRound::await_all(0),
                calls: Self::shard_calls(addrs[idx].stripe, k, [addrs[idx].block].iter()),
            })
            .collect();
        let fetched = run_fused(&self.transport, None, ops, &mut report);
        for (idx, outcome) in direct.into_iter().zip(&fetched) {
            Self::absorb_home(&mut items[idx], addrs[idx].block, outcome);
        }
        // A home node that refused that fetch (or the last level's
        // check) sends its block to the poll here.
        self.poll_stage(addrs, &mut items, &mut report);

        // Line 31 compares the latest version against N_i's current one —
        // on the reply that carries the block (Case 1): `ReadData` states
        // N_i's version with its bytes, so the one message the check sent
        // N_i answers both questions atomically, where a probe followed
        // by a fetch would straddle a racing write. Once a level's quorum
        // has settled `latest`, never before, the block is served if
        // those bytes match the check N_i stamped at install time and are
        // at `latest` — or, for a fetched reply, past it: N_i is the
        // first node every write of the block touches, so a copy newer
        // than anything the check saw is a write racing this read (or its
        // residue); serving it orders the read after that write, where
        // decoding `latest` would ask for k consistent shards of a stripe
        // in mid-update. A check mismatch (or `NodeError::Corrupt`) proves
        // N_i's copy bad: it is attributed. N_i dead, stale or corrupt,
        // the block falls through to the decode path.
        for (st, addr) in items.iter_mut().zip(addrs) {
            let Some(Response::Data {
                bytes,
                version,
                check,
            }) = st.home.take()
            else {
                continue;
            };
            if st.done.is_some() || Some(version) < st.latest {
                continue;
            }
            if check == 0 || block_check(&bytes) == check {
                st.done = Some(Ok(ReadOutcome {
                    bytes: bytes.to_vec(),
                    version,
                    path: ReadPath::Direct,
                    report: OpReport::default(),
                }));
            } else {
                record_corrupt(&mut st.corrupt, addr.block);
            }
        }

        // Case 2 for the leftovers: per-block decode (the uncommon,
        // failure-mode path — fusing it would complicate the consistent
        // group selection for no steady-state gain).
        for (idx, st) in items.iter_mut().enumerate() {
            if st.done.is_none() {
                let latest = st.latest.expect("leftover items have a version");
                st.done = Some(self.decode_block_at(
                    addrs[idx].stripe,
                    addrs[idx].block,
                    latest,
                    st,
                    &mut report,
                ));
            }
        }
        (items, report)
    }

    /// decode → verify, and attribute only on a mismatch: block `i` at
    /// `latest` from the shards in hand that belong to the stripe state
    /// `column` (version stamps matching it), minus nodes this read has
    /// already proved corrupt.
    ///
    /// `block_check` is GF-linear, so it commutes with the decoder: the
    /// decoded block's check is `Σ_j D_ij · check(shard_j)`. Holding the
    /// *result* against the cross-checksum vector every consistent parity
    /// reply agrees on therefore vouches for the whole decode basis: one
    /// bad shard in it always fails the check (its error reaches all 8
    /// lanes), several escape only if their errors cancel in all 8 lanes
    /// (the 2⁻⁶⁴ class of a single shard's collision, and crafting it
    /// takes forged stamps on two nodes), and a shard outside the basis
    /// cannot change the answer. A clean decode costs one checksum pass.
    ///
    /// The per-shard pass runs only when that check fails, no vector is
    /// agreed, or fewer than `k` shards are in hand (the replacement
    /// fetch must know how many are clean). Each shard is summed at most
    /// once per read ([`Shard::sum`]) and held against its own check and
    /// then the reference vector; a mismatch is attributed to its node
    /// and counts as one more erasure, and the decode is retried from the
    /// clean shards. [`ProtocolError::NotEnoughForDecode`] reports how
    /// many clean shards there were when that is fewer than `k`. A result
    /// that fails the vector although every input matched it is the
    /// decoder's fault: [`ProtocolError::DecoderFault`].
    fn decode_shards(
        &self,
        i: usize,
        latest: u64,
        column: &[u64],
        shards: &[Shard],
        corrupt: &mut Vec<usize>,
    ) -> Result<ReadOutcome, ProtocolError> {
        let k = self.config.params().k();
        // The candidates, each with the cross-checksum vector a parity
        // reply carries.
        let consistent: Vec<_> = shards
            .iter()
            .filter(|shard| !corrupt.contains(&shard.node))
            .filter_map(|shard| match &shard.reply {
                Response::Data { bytes, version, .. } if *version == column[shard.node] => {
                    Some((shard, &bytes[..], None))
                }
                Response::Parity {
                    bytes,
                    versions,
                    checks,
                } if versions == column => Some((shard, &bytes[..], Some(&checks[..]))),
                _ => None,
            })
            .collect();
        let basis = |inputs: &[(usize, &[u8])]| -> Vec<usize> {
            inputs.iter().map(|&(node, _)| node).take(k).collect()
        };
        let decode = |inputs: &[(usize, &[u8])]| {
            self.rs.decode_block(i, inputs).map(|bytes| ReadOutcome {
                bytes,
                version: latest,
                path: ReadPath::Decoded {
                    nodes: basis(inputs),
                },
                report: OpReport::default(),
            })
        };
        let mut vectors = consistent
            .iter()
            .filter_map(|&(_, _, checks)| checks)
            .filter(|checks| checks.len() == k);
        let agreed = vectors.next().filter(|first| vectors.all(|c| c == *first));
        if let Some(checks) = agreed.filter(|_| consistent.len() >= k) {
            let inputs: Vec<(usize, &[u8])> = consistent[..k]
                .iter()
                .map(|&(shard, bytes, _)| (shard.node, bytes))
                .collect();
            if let Some(out) = decode(&inputs)
                .ok()
                .filter(|out| verify_block(&self.rs, i, &out.bytes, checks))
            {
                return Ok(out);
            }
        }
        // The per-shard pass. Each shard's own check first: a data
        // shard's stamp from the serving node, a parity shard's derived
        // from the vector it served itself — the first parity reply that
        // passes becomes the reference vector every shard is then held
        // against.
        let mut clean: Vec<(usize, &[u8], u64)> = Vec::with_capacity(consistent.len());
        let mut vector: Option<&[u64]> = None;
        for &(shard, bytes, checks) in &consistent {
            let sum = *shard.sum.get_or_init(|| block_check(bytes));
            let own = match (&shard.reply, checks) {
                (Response::Data { check, .. }, _) => *check == 0 || sum == *check,
                (_, Some(checks)) if checks.len() == k => {
                    let ok = sum == expected_parity_check(&self.rs, shard.node, checks);
                    if ok {
                        vector = vector.or(Some(checks));
                    }
                    ok
                }
                _ => true,
            };
            if own {
                clean.push((shard.node, bytes, sum));
            } else {
                record_corrupt(corrupt, shard.node);
            }
        }
        if let Some(checks) = vector {
            clean.retain(|&(node, _, sum)| {
                let ok = sum == expected_block_check(&self.rs, node, checks);
                if !ok {
                    record_corrupt(corrupt, node);
                }
                ok
            });
        }
        if clean.len() < k {
            return Err(ProtocolError::NotEnoughForDecode {
                needed: k,
                found: clean.len(),
            });
        }
        let inputs: Vec<(usize, &[u8])> = clean
            .iter()
            .map(|&(node, bytes, _)| (node, bytes))
            .collect();
        let out = decode(&inputs)?;
        if vector.is_some_and(|checks| !verify_block(&self.rs, i, &out.bytes, checks)) {
            return Err(ProtocolError::DecoderFault {
                block: i,
                nodes: basis(&inputs),
            });
        }
        Ok(out)
    }

    /// Case 2 of Algorithm 2: decode block `i` at version `latest` from
    /// `k` mutually consistent live nodes, returning it only once the
    /// decoded block matches the stripe's cross-checksum vector
    /// ([`decode_shards`]).
    ///
    /// One loop serves every way a block gets here. Each pass picks the
    /// best decode basis from the versions known so far and tries the
    /// shards in hand against it (the `k`-shard poll usually holds all
    /// `k` already); while that falls short — too few consistent shards,
    /// or a result mismatch whose per-shard pass left fewer than `k`
    /// clean — it buys one more round: first the widening version poll,
    /// then shard fetches from the basis, every fetch after the first a
    /// budgeted replacement. A node proven corrupt never re-enters a
    /// decode, and no shard is summed twice across passes.
    ///
    /// [`decode_shards`]: TrapErcClient::decode_shards
    fn decode_block_at(
        &self,
        id: u64,
        i: usize,
        latest: u64,
        st: &mut ReadItem,
        report: &mut OpReport,
    ) -> Result<ReadOutcome, ProtocolError> {
        let k = self.config.params().k();
        let health = self.transport.health();
        let (mut widened, mut fetches) = (false, 0usize);
        let mut basis: Option<(Vec<usize>, Vec<u64>, Vec<usize>)> = None;
        loop {
            // Every group of parity nodes sharing one exact version
            // vector (with block i at `latest`) is a valid decode basis;
            // data nodes whose live version matches the group's view of
            // them can join. Pick the group maximising usable nodes —
            // the largest parity group is not always the one with the
            // most matching data nodes. Once shards are being fetched
            // for a basis it stays: they were requested to fit it, and a
            // racing write moving some members on must cost those
            // members only, not the shards already in hand.
            if fetches == 0 {
                basis = None;
                let mut best_total = 0usize;
                for (parity_members, column) in st.matrix.consistent_parity_groups(i, latest) {
                    let data_members: Vec<usize> = (0..k)
                        .filter(|&t| t != i && st.matrix.data_version(t) == Some(column[t]))
                        .collect();
                    let total = parity_members.len() + data_members.len();
                    if total > best_total {
                        best_total = total;
                        basis = Some((parity_members, column, data_members));
                    }
                }
            }
            let in_hand = basis.as_ref().map(|(_, column, _)| {
                self.decode_shards(i, latest, column, &st.shards, &mut st.corrupt)
            });
            let clean = match in_hand {
                Some(Err(ProtocolError::NotEnoughForDecode { found, .. })) => found,
                Some(done) => return done,
                None => 0,
            };
            if !widened {
                // Widen V beyond the nodes the version check happened to
                // probe: ask every parity node for its column and every
                // data node for its version ("any k nodes out of n",
                // line 34) — one fan-out round, every reply awaited.
                widened = true;
                let mut calls: Vec<(NodeId, Request)> = Vec::new();
                for j in self.config.params().parity_indices() {
                    if st.matrix.get(0, j).is_none() {
                        calls.push((NodeId(j), Request::VersionVector { id }));
                    }
                }
                for t in (0..k).filter(|&t| t != i) {
                    if st.matrix.data_version(t).is_none() {
                        calls.push((NodeId(t), Request::VersionData { id }));
                    }
                }
                if !calls.is_empty() {
                    let round = QuorumRound::await_all(0);
                    let widen = run_recorded(&self.transport, round, None, calls, report);
                    Self::fold_versions_into(&mut st.matrix, &widen);
                }
                continue;
            }
            let Some((parity_members, _, data_members)) = &mut basis else {
                return Err(ProtocolError::NotEnoughForDecode {
                    needed: k,
                    found: 0,
                });
            };
            // Members of the chosen group in fetch-preference order:
            // data blocks first (they feed the decode verbatim), then
            // parity. Within each segment an armed health registry ranks
            // members — circuit-open and slow nodes sink to the spare
            // end of the pool, so the first fetch round lands on the
            // healthiest k. With no registry (or a cold one) the rank is
            // the identity and the fetch order is the seed's.
            if let Some(health) = health {
                health.rank_nodes(data_members);
                health.rank_nodes(parity_members);
            }
            let mut pool = data_members.clone();
            pool.extend(parity_members.iter());
            if pool.len() < k {
                return Err(ProtocolError::NotEnoughForDecode {
                    needed: k,
                    found: pool.len(),
                });
            }
            // Fetch as many of the pool's unasked members as are still
            // missing. A shard that fails verification is one more
            // erasure: spare members of the group are fetched in
            // follow-up rounds until k clean shards are in hand or the
            // group runs dry. Every round after the first is a
            // replacement fetch — a retry in budget terms, re-requesting
            // shards the previous round failed to produce. It must win a
            // token from the transport's retry budget; when the budget is
            // dry the read gives up with the shards in hand rather than
            // amplify load on an already-struggling group. Without a
            // health registry the loop is bounded only by the pool.
            pool.retain(|member| !st.asked.contains(member));
            pool.truncate(k - clean);
            if pool.is_empty()
                || (fetches > 0 && health.is_some_and(|h| !h.try_spend(Lane::Foreground)))
            {
                // Distinguish "nodes are missing/stale" from "nodes are
                // provably lying": only the latter is an integrity
                // verdict — judged on every node this read proved
                // corrupt, whichever round met it (the level check, the
                // poll, or a fetch here).
                return Err(if !st.corrupt.is_empty() {
                    ProtocolError::Integrity {
                        needed: k,
                        clean,
                        corrupt: st.corrupt.clone(),
                    }
                } else {
                    ProtocolError::NotEnoughForDecode {
                        needed: k,
                        found: clean,
                    }
                });
            }
            fetches += 1;
            // Gather-all with no enforced threshold: sufficiency is
            // decided above, after per-shard validation.
            let fetch = run_recorded(
                &self.transport,
                QuorumRound::await_all(0),
                None,
                Self::shard_calls(id, k, pool.iter()),
                report,
            );
            self.absorb_shards(st, fetch);
        }
    }

    /// **Scrub (extension)** — the paper defines no repair path, so a
    /// node that misses a write stays stale forever (its `AddParity`
    /// guard keeps rejecting later deltas). This extension restores full
    /// redundancy, the way production stores run anti-entropy:
    ///
    /// 1. read every data block through Algorithm 2, as one `k`-item
    ///    read plan (quorum reads, so only committed-or-residue state is
    ///    used); if a block is *poisoned* — a failed write's residue
    ///    version is visible in version checks but unrecoverable from any
    ///    k consistent nodes, which bricks the paper's protocol
    ///    permanently — **salvage** it: recover the newest version that
    ///    still decodes and install it at a version *above* the residue,
    ///    superseding it;
    /// 2. re-encode the parity blocks from that state;
    /// 3. push the reconstructed state to every *live* node — data nodes
    ///    get `write(x)`, parity nodes get the repair primitive
    ///    `WriteParity` with the matching version vector.
    ///
    /// Must run quiesced (no concurrent writers to this stripe), like an
    /// offline fsck; concurrent writes could be clobbered.
    ///
    /// Scrub traffic is maintenance traffic: its fan-out rounds travel
    /// the background lane (the wire frames carry the background flag,
    /// and the retry budget keeps a reserve that background spends may
    /// not touch), and with an armed health registry its replacement
    /// fetches prefer healthy members over slow or circuit-open ones.
    ///
    /// # Errors
    /// Propagates a block whose *every* version is unrecoverable (more
    /// than n − k nodes down).
    pub fn scrub_stripe(&self, id: u64) -> Result<ScrubReport, ProtocolError> {
        let k = self.config.params().k();
        let mut data = Vec::with_capacity(k);
        let mut versions = Vec::with_capacity(k);
        let mut salvaged = Vec::new();
        let mut corrupt = Vec::new();
        let addrs: Vec<BlockAddr> = (0..k).map(|i| BlockAddr::new(id, i)).collect();
        let (items, mut report) = self.read_plan(&addrs);
        for (i, mut st) in items.into_iter().enumerate() {
            match st.done.take().expect("every item resolved") {
                Ok(out) => {
                    versions.push(out.version);
                    data.push(out.bytes);
                }
                Err(ProtocolError::NotEnoughForDecode { .. } | ProtocolError::Integrity { .. }) => {
                    // Poisoned (or corrupted past the clean-shard floor):
                    // chase older versions for the newest one that still
                    // decodes, then supersede the residue.
                    let (bytes, recovered, max_observed) =
                        self.best_recoverable(id, i, &mut st, &mut report)?;
                    versions.push(if recovered < max_observed {
                        max_observed + 1
                    } else {
                        recovered
                    });
                    data.push(bytes);
                    salvaged.push(i);
                }
                Err(e) => return Err(e),
            }
            corrupt.append(&mut st.corrupt);
        }
        // Residue poll: every live node's version state. `WriteData` /
        // `WriteParity` are monotone (a push never regresses a node), so
        // a node holding a failed write's residue *above* the settled
        // version would reject an incomparable push and stay inconsistent
        // forever. Instead, supersede: any block whose settled version is
        // exceeded somewhere gets re-installed above the residue — the
        // same rule the replication repair and the salvage path apply.
        let mut poll_calls: Vec<(NodeId, Request)> = Vec::with_capacity(self.config.params().n());
        for t in 0..k {
            poll_calls.push((NodeId(t), Request::VersionData { id }));
        }
        for j in self.config.params().parity_indices() {
            poll_calls.push((NodeId(j), Request::VersionVector { id }));
        }
        let poll = run_recorded(
            &self.transport,
            QuorumRound::await_all(0).background(),
            None,
            poll_calls,
            &mut report,
        );
        let mut vmax = versions.clone();
        for accepted in &poll.accepted {
            match &accepted.response {
                Response::Version(v) => {
                    let i = accepted.node.0;
                    vmax[i] = vmax[i].max(*v);
                }
                Response::Versions(col) => {
                    for (entry, seen) in vmax.iter_mut().zip(col) {
                        *entry = (*entry).max(*seen);
                    }
                }
                _ => {}
            }
        }
        for (i, version) in versions.iter_mut().enumerate() {
            if vmax[i] > *version {
                *version = vmax[i] + 1;
                if !salvaged.contains(&i) {
                    salvaged.push(i);
                }
            }
        }
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        // Fresh cross-checksum vector for the reconstructed state: the
        // push below re-stamps every node — including any that served
        // corrupt bytes, which is the repair.
        let stripe_checks = data_checks(&refs);
        // Audit the parity shards explicitly: the data-block pass above
        // serves healthy blocks straight from their N_i (Case 1) and
        // would never observe a rotten parity replica. Judge only
        // replicas claiming the settled version column — stale ones are
        // legitimately different and get refreshed by the push anyway.
        let audit_calls: Vec<(NodeId, Request)> = self
            .config
            .params()
            .parity_indices()
            .map(|j| (NodeId(j), Request::ReadParity { id }))
            .collect();
        let audit = run_recorded(
            &self.transport,
            QuorumRound::await_all(0).background(),
            None,
            audit_calls,
            &mut report,
        );
        record_corrupt_refusals(&mut corrupt, &audit);
        for accepted in &audit.accepted {
            if let Response::Parity {
                bytes,
                versions: col,
                ..
            } = &accepted.response
            {
                let j = accepted.node.0;
                if *col == versions
                    && block_check(bytes) != expected_parity_check(&self.rs, j, &stripe_checks)
                {
                    record_corrupt(&mut corrupt, j);
                }
            }
        }
        // Re-encode into the pooled scratch set — scrubbing a volume is
        // one of these per stripe, and the pool keeps it allocation-flat.
        let parity_calls = self.encode_parity_calls(&refs, |_, bytes| Request::WriteParity {
            id,
            bytes,
            versions: versions.clone(),
            checks: stripe_checks.clone(),
        });
        // Push the reconstructed state to every node in one round; only
        // live nodes ack and are reported refreshed.
        let mut calls: Vec<(NodeId, Request)> = Vec::with_capacity(self.config.params().n());
        for (i, block) in data.into_iter().enumerate() {
            calls.push((
                NodeId(i),
                Request::WriteData {
                    id,
                    bytes: Bytes::from(block),
                    version: versions[i],
                },
            ));
        }
        calls.extend(parity_calls);
        let outcome = run_recorded(
            &self.transport,
            QuorumRound::await_all(0).background(),
            None,
            calls,
            &mut report,
        );
        let refreshed = outcome
            .accepted_in_issue_order()
            .iter()
            .map(|a| a.node.0)
            .collect();
        corrupt.sort_unstable();
        corrupt.dedup();
        Ok(ScrubReport {
            refreshed,
            salvaged,
            corrupt,
            report,
        })
    }

    /// Salvage search: the newest version of block `i` recoverable from
    /// the currently-live nodes, continuing from the state `st` the
    /// block's failed read left (its shards in hand, the nodes it asked,
    /// the corruption it met). Returns `(bytes, recovered_version,
    /// max_observed_version)`.
    fn best_recoverable(
        &self,
        id: u64,
        i: usize,
        st: &mut ReadItem,
        report: &mut OpReport,
    ) -> Result<(Vec<u8>, u64, u64), ProtocolError> {
        let (n, k) = (self.config.params().n(), self.config.params().k());
        st.matrix = VersionMatrix::new(n, k);
        // Gather everything live in one fan-out round: N_i's
        // bytes+version, every parity column, every other data version.
        let mut calls: Vec<(NodeId, Request)> = Vec::with_capacity(n);
        calls.push((NodeId(i), Request::ReadData { id }));
        for j in self.config.params().parity_indices() {
            calls.push((NodeId(j), Request::VersionVector { id }));
        }
        for t in (0..k).filter(|&t| t != i) {
            calls.push((NodeId(t), Request::VersionData { id }));
        }
        let outcome = run_recorded(
            &self.transport,
            QuorumRound::await_all(0).background(),
            None,
            calls,
            report,
        );
        let mut ni = None;
        for accepted in &outcome.accepted {
            if let Response::Data {
                bytes,
                version,
                check,
            } = &accepted.response
            {
                // A self-check mismatch disqualifies N_i's copy from the
                // salvage shortcut but its version still counts — the
                // decode path below can rebuild that version cleanly.
                if *check == 0 || block_check(bytes) == *check {
                    ni = Some((bytes.to_vec(), *version));
                } else {
                    record_corrupt(&mut st.corrupt, i);
                }
            }
        }
        record_corrupt_refusals(&mut st.corrupt, &outcome);
        Self::fold_versions_into(&mut st.matrix, &outcome);
        let mut candidates: Vec<u64> = self
            .config
            .params()
            .parity_indices()
            .filter_map(|j| st.matrix.get(i, j))
            .chain(ni.as_ref().map(|&(_, v)| v))
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        let Some(&max_observed) = candidates.last() else {
            return Err(ProtocolError::VersionCheckFailed);
        };
        for &v in candidates.iter().rev() {
            if let Some((bytes, niv)) = &ni {
                if *niv == v {
                    return Ok((bytes.clone(), v, max_observed));
                }
            }
            if let Ok(out) = self.decode_block_at(id, i, v, st, report) {
                return Ok((out.bytes, v, max_observed));
            }
        }
        Err(ProtocolError::NotEnoughForDecode {
            needed: k,
            found: 0,
        })
    }

    /// **Batched Algorithm 2** — reads many blocks (possibly across
    /// stripes) in *fused* per-stage fan-outs: one
    /// [`tq_cluster::MultiRound`] scatter per trapezoid level carries
    /// every pending block's check, and with it the `ReadData` that
    /// serves each current `N_i` copy. The round count stays flat as the
    /// batch grows, instead of scaling with the number of blocks.
    pub fn read_blocks(&self, addrs: &[BlockAddr]) -> BatchReads {
        let (items, report) = self.read_plan(addrs);
        BatchReads {
            outcomes: items
                .into_iter()
                .map(|st| st.done.expect("every item resolved"))
                .collect(),
            report,
        }
    }

    /// **Batched Algorithm 1** — writes many blocks in fused per-level
    /// fan-outs: the embedded READBLOCKs run as one [`read_blocks`]
    /// batch, then every surviving block's level-`l` scatter (the data
    /// write and the guarded parity folds) is fused into one round per
    /// level. Addresses must be distinct.
    ///
    /// [`read_blocks`]: TrapErcClient::read_blocks
    pub fn write_blocks(&self, items: &[BatchWrite<'_>]) -> BatchWrites {
        let k = self.config.params().k();
        let mut results: Vec<Option<Result<WriteOutcome, ProtocolError>>> = vec![None; items.len()];

        // Input validation: range + duplicate addresses.
        crate::rounds::flag_duplicates(items.iter().map(|it| it.addr), &mut results);
        for (idx, item) in items.iter().enumerate() {
            if item.addr.block >= k {
                results[idx] = Some(Err(ProtocolError::Misconfigured(
                    "block index outside the stripe",
                )));
            }
        }

        // Fused embedded read (Algorithm 1 line 15 for the whole batch).
        let read_idx: Vec<usize> = (0..items.len())
            .filter(|&idx| results[idx].is_none())
            .collect();
        let addrs: Vec<BlockAddr> = read_idx.iter().map(|&idx| items[idx].addr).collect();
        let reads = self.read_blocks(&addrs);
        let mut olds: Vec<(usize, ReadOutcome)> = Vec::with_capacity(read_idx.len());
        for (&idx, old) in read_idx.iter().zip(reads.outcomes) {
            match old {
                Ok(old) => olds.push((idx, old)),
                Err(e) => {
                    results[idx] = Some(Err(ProtocolError::OldValueUnreadable(Box::new(e))));
                }
            }
        }
        let olds: Vec<(usize, &[u8], u64)> = olds
            .iter()
            .map(|(idx, old)| (*idx, old.bytes.as_slice(), old.version))
            .collect();
        self.write_plan(items, &olds, results, reads.report)
    }

    /// Folds the version answers of a gather round into `matrix`: parity
    /// columns from `Versions` answers, data-node versions from scalar
    /// `Version` answers and from the stamp on a served block.
    fn fold_versions_into(matrix: &mut VersionMatrix, outcome: &RoundOutcome) {
        for accepted in &outcome.accepted {
            match &accepted.response {
                Response::Versions(col) => matrix.set_column(accepted.node.0, col.clone()),
                Response::Version(v) | Response::Data { version: v, .. } => {
                    matrix.set_data_version(accepted.node.0, *v)
                }
                _ => {}
            }
        }
    }

    /// Files `N_i`'s part of a round that asked it for block `i`: an
    /// answer is held for line 31, a self-check refusal is attributed,
    /// and either way `N_i` is remembered so no round asks it again.
    fn absorb_home(st: &mut ReadItem, i: usize, outcome: &RoundOutcome) {
        let refusal = outcome.rejected.iter().find(|r| r.node.0 == i);
        if refusal.is_some_and(|r| matches!(r.error, NodeError::Corrupt)) {
            record_corrupt(&mut st.corrupt, i);
        }
        let answer = outcome.accepted.iter().find(|a| a.node.0 == i);
        if refusal.is_some() || answer.is_some() {
            st.home = answer.map(|a| a.response.clone());
            st.asked.push(i);
        }
    }

    /// Crate-internal raw node access for the recovery workflows.
    #[inline]
    pub(crate) fn raw_call(&self, node: usize, req: Request) -> Result<Response, NodeError> {
        self.transport.call(NodeId(node), req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tq_cluster::{Cluster, LocalTransport};

    /// (9, 6) stripe on a 4-node trapezoid (a=2, b=1, h=1: levels 1 + 3).
    fn client_9_6() -> (TrapErcClient<LocalTransport>, Cluster) {
        let config = ProtocolConfig::with_uniform_w(9, 6, 2, 1, 1, 1).unwrap();
        let cluster = Cluster::new(9);
        let client = TrapErcClient::new(config, LocalTransport::new(cluster.clone())).unwrap();
        (client, cluster)
    }

    /// (15, 8) stripe on the Fig. 3 trapezoid (a=0, b=4, h=1).
    fn client_15_8() -> (TrapErcClient<LocalTransport>, Cluster) {
        let config = ProtocolConfig::with_uniform_w(15, 8, 0, 4, 1, 2).unwrap();
        let cluster = Cluster::new(15);
        let client = TrapErcClient::new(config, LocalTransport::new(cluster.clone())).unwrap();
        (client, cluster)
    }

    fn blocks(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| (0..len).map(|b| (i * 41 + b * 7) as u8).collect())
            .collect()
    }

    #[test]
    fn create_then_read_every_block_direct() {
        let (client, _cluster) = client_9_6();
        let data = blocks(6, 64);
        client.create_stripe(1, data.clone()).unwrap();
        for (i, expect) in data.iter().enumerate() {
            let out = client.read_block(1, i).unwrap();
            assert_eq!(&out.bytes, expect);
            assert_eq!(out.version, 0);
            assert_eq!(out.path, ReadPath::Direct);
        }
    }

    #[test]
    fn write_then_read_back() {
        let (client, _cluster) = client_9_6();
        client.create_stripe(1, blocks(6, 32)).unwrap();
        let new = vec![0xEE; 32];
        let w = client.write_block(1, 2, &new).unwrap();
        assert_eq!(w.version, 1);
        // All 4 trapezoid members validated (everything is up).
        assert_eq!(w.validated.len(), 4);
        let out = client.read_block(1, 2).unwrap();
        assert_eq!(out.bytes, new);
        assert_eq!(out.version, 1);
    }

    #[test]
    fn read_decodes_when_data_node_dead() {
        let (client, cluster) = client_9_6();
        let data = blocks(6, 48);
        client.create_stripe(1, data.clone()).unwrap();
        let new = vec![0x5A; 48];
        client.write_block(1, 0, &new).unwrap();
        cluster.kill(0);
        let out = client.read_block(1, 0).unwrap();
        assert_eq!(out.bytes, new);
        assert_eq!(out.version, 1);
        match out.path {
            ReadPath::Decoded { ref nodes } => {
                assert_eq!(nodes.len(), 6, "k nodes feed the decode");
                assert!(!nodes.contains(&0), "dead node cannot contribute");
            }
            ReadPath::Direct => panic!("must decode with N_0 dead"),
        }
    }

    #[test]
    fn read_decodes_when_data_node_stale() {
        let (client, cluster) = client_9_6();
        client.create_stripe(1, blocks(6, 16)).unwrap();
        // Kill N_3, write block 3 (level 0 of its trapezoid = {N_3} alone
        // with w_0 = 1 ⇒ the write FAILS at level 0 and leaves no residue.
        cluster.kill(3);
        let err = client.write_block(1, 3, &[1u8; 16]).unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::WriteQuorumNotMet { level: 0, .. }
        ));
        cluster.revive(3);

        // For a *stale N_i* we need the trapezoid to allow writes that
        // miss N_i: use the (15, 8) layout where level 0 has 4 members.
        let (client, cluster) = client_15_8();
        client.create_stripe(7, blocks(8, 16)).unwrap();
        cluster.kill(0); // N_0 down during the write
        let new = vec![0xA7; 16];
        let w = client.write_block(7, 0, &new).unwrap();
        assert_eq!(w.version, 1);
        assert!(!w.validated.contains(&0));
        cluster.revive(0); // back, but stale at version 0

        // The level-0 check hears N_0's stale block and parity 8's v1:
        // the quorum's `latest` is 1, N_0's answer is below it, and the
        // read decodes at `latest` without asking N_0 anything more.
        let before = cluster.node(0).io_snapshot();
        let out = client.read_block(7, 0).unwrap();
        assert_eq!(out.bytes, new, "stale N_0 must not serve the read");
        assert_eq!(out.version, 1);
        assert!(out.decoded());
        let asked = cluster.node(0).io_snapshot().since(&before);
        assert_eq!(asked.reads, 1, "N_0 is asked for its block exactly once");
        assert_eq!(asked.total_ops() + asked.rejected, 1, "and nothing else");
    }

    #[test]
    fn held_home_answer_waits_for_a_level_quorum() {
        // Level 0 of block 0 is {N_0, 8, 9, 10} with r_0 = 2. With the
        // three parity members dead N_0 still answers the check — but one
        // answer is no quorum, so its block is held, not served: level 1
        // (r_1 = 3) settles `latest`, and only then does line 31 serve
        // the reply already in hand. Two rounds, N_0 asked once.
        let (client, cluster) = client_15_8();
        let data = blocks(8, 16);
        client.create_stripe(1, data.clone()).unwrap();
        for node in [8, 9, 10] {
            cluster.kill(node);
        }
        let before = cluster.node(0).io_snapshot();
        let out = client.read_block(1, 0).unwrap();
        assert_eq!(out.bytes, data[0]);
        assert_eq!(out.path, ReadPath::Direct);
        assert_eq!(out.report.network_rounds(), 2, "level 0, level 1");
        assert_eq!(cluster.node(0).io_snapshot().since(&before).reads, 1);
        // Without any level's quorum the held answer is never served.
        cluster.kill(11);
        cluster.kill(12);
        assert_eq!(
            client.read_block(1, 0).unwrap_err(),
            ProtocolError::VersionCheckFailed
        );
    }

    #[test]
    fn write_fails_when_level_cannot_validate() {
        let (client, cluster) = client_9_6();
        client.create_stripe(1, blocks(6, 16)).unwrap();
        // Level 1 of every block's trapezoid = parity nodes {6, 7, 8};
        // w_1 = 1. Kill all three: write fails at level 1.
        for j in 6..9 {
            cluster.kill(j);
        }
        let err = client.write_block(1, 1, &[9u8; 16]).unwrap_err();
        assert_eq!(
            err,
            ProtocolError::WriteQuorumNotMet {
                level: 1,
                needed: 1,
                achieved: 0
            }
        );
    }

    #[test]
    fn failed_write_leaves_documented_residue() {
        // Algorithm 1 has no rollback: a write failing at level 1 has
        // already written N_i at level 0. The new version is then served
        // by subsequent reads (quorum-protocol anomaly, see module docs).
        let (client, cluster) = client_9_6();
        client.create_stripe(1, blocks(6, 16)).unwrap();
        for j in 6..9 {
            cluster.kill(j);
        }
        let _ = client.write_block(1, 4, &[0xBB; 16]).unwrap_err();
        for j in 6..9 {
            cluster.revive(j);
        }
        let out = client.read_block(1, 4).unwrap();
        assert_eq!(out.version, 1, "residue of the failed write is visible");
        assert_eq!(out.bytes, vec![0xBB; 16]);
    }

    #[test]
    fn read_fails_without_version_quorum() {
        let (client, cluster) = client_15_8();
        client.create_stripe(1, blocks(8, 16)).unwrap();
        // Block 0 trapezoid: level 0 = {0, 8, 9, 10} (r_0 = 2),
        // level 1 = {11..14} (r_1 = 3). Leave only N_0 and two of level 1.
        for node in [8, 9, 10, 13, 14] {
            cluster.kill(node);
        }
        for node in 1..8 {
            cluster.kill(node);
        }
        let err = client.read_block(1, 0).unwrap_err();
        assert_eq!(err, ProtocolError::VersionCheckFailed);
    }

    #[test]
    fn read_fails_when_too_few_for_decode() {
        let (client, cluster) = client_15_8();
        let data = blocks(8, 16);
        client.create_stripe(1, data).unwrap();
        // N_0 dead; kill all other data nodes too so only 7 parity nodes
        // remain — version check passes, decode needs k = 8.
        for node in 0..8 {
            cluster.kill(node);
        }
        let err = client.read_block(1, 0).unwrap_err();
        assert!(
            matches!(err, ProtocolError::NotEnoughForDecode { needed: 8, found } if found == 7),
            "{err:?}"
        );
    }

    #[test]
    fn sequential_writes_version_monotone() {
        let (client, _cluster) = client_9_6();
        client.create_stripe(1, blocks(6, 16)).unwrap();
        for round in 1..=10u64 {
            let new = vec![round as u8; 16];
            let w = client.write_block(1, 0, &new).unwrap();
            assert_eq!(w.version, round);
            let r = client.read_block(1, 0).unwrap();
            assert_eq!(r.version, round);
            assert_eq!(r.bytes, new);
        }
    }

    #[test]
    fn interleaved_writes_to_different_blocks() {
        let (client, cluster) = client_15_8();
        let mut data = blocks(8, 24);
        client.create_stripe(1, data.clone()).unwrap();
        // Rotate through blocks with occasional failures of parity nodes.
        for round in 0..16u8 {
            let i = (round as usize * 3) % 8;
            if round % 4 == 2 {
                cluster.kill(8 + (round as usize % 7));
            }
            let new: Vec<u8> = (0..24)
                .map(|b| round.wrapping_mul(b as u8 ^ 0x33))
                .collect();
            if client.write_block(1, i, &new).is_ok() {
                data[i] = new;
            }
            if round % 4 == 3 {
                for j in 8..15 {
                    cluster.revive(j);
                }
            }
        }
        for j in 8..15 {
            cluster.revive(j);
        }
        for (i, expect) in data.iter().enumerate() {
            let out = client.read_block(1, i).unwrap();
            assert_eq!(&out.bytes, expect, "block {i}");
        }
    }

    #[test]
    fn stripe_missing_detected() {
        // `NotFound` from N_i's `ReadData` counts like any member's.
        let (client, _cluster) = client_9_6();
        let err = client.read_block(99, 0).unwrap_err();
        assert_eq!(err, ProtocolError::StripeMissing);
        let (client, _cluster) = client_15_8();
        let err = client.read_block(99, 3).unwrap_err();
        assert_eq!(err, ProtocolError::StripeMissing);
    }

    #[test]
    fn create_rejects_bad_input() {
        let (client, cluster) = client_9_6();
        assert_eq!(
            client.create_stripe(1, blocks(5, 16)).unwrap_err(),
            ProtocolError::SizeMismatch
        );
        let mut ragged = blocks(6, 16);
        ragged[3].push(0);
        assert_eq!(
            client.create_stripe(1, ragged).unwrap_err(),
            ProtocolError::SizeMismatch
        );
        cluster.kill(4);
        assert!(matches!(
            client.create_stripe(1, blocks(6, 16)).unwrap_err(),
            ProtocolError::Node(NodeError::Down)
        ));
    }

    #[test]
    fn write_wrong_length_rejected() {
        let (client, _cluster) = client_9_6();
        client.create_stripe(1, blocks(6, 16)).unwrap();
        assert_eq!(
            client.write_block(1, 0, &[0u8; 17]).unwrap_err(),
            ProtocolError::SizeMismatch
        );
    }

    #[test]
    fn write_with_hint_skips_embedded_read() {
        let (client, cluster) = client_15_8();
        let data = blocks(8, 16);
        client.create_stripe(1, data.clone()).unwrap();
        // Make the embedded read impossible for block 0 while keeping the
        // write quorum alive: kill every data node except N_0 — version
        // check still works (trapezoid is N_0 + parity), but suppose the
        // driver knows the old value anyway.
        for t in 1..8 {
            cluster.kill(t);
        }
        let new = vec![0xCD; 16];
        let w = client
            .write_block_with_hint(1, 0, &new, &data[0], 0)
            .unwrap();
        assert_eq!(w.version, 1);
        // Direct read still served by N_0.
        let out = client.read_block(1, 0).unwrap();
        assert_eq!(out.bytes, new);
        assert_eq!(out.path, ReadPath::Direct);
    }

    #[test]
    fn scrub_restores_stale_nodes() {
        let (client, cluster) = client_15_8();
        let data = blocks(8, 16);
        client.create_stripe(1, data).unwrap();
        // Parity node 11 misses two writes, N_0 misses one.
        cluster.kill(11);
        client.write_block(1, 0, &[1u8; 16]).unwrap();
        cluster.kill(0);
        client.write_block(1, 0, &[2u8; 16]).unwrap();
        cluster.revive(0);
        cluster.revive(11);

        // Before the scrub: reads work but need the decode path, and the
        // largest consistent parity group excludes node 11.
        let out = client.read_block(1, 0).unwrap();
        assert_eq!(out.bytes, vec![2u8; 16]);
        assert!(out.decoded());

        let report = client.scrub_stripe(1).unwrap();
        assert_eq!(
            report.refreshed.len(),
            15,
            "all nodes live -> all refreshed"
        );
        assert!(report.salvaged.is_empty(), "nothing was poisoned");

        // After the scrub: N_0 is current again (direct reads), and node
        // 11 accepts deltas once more.
        let out = client.read_block(1, 0).unwrap();
        assert_eq!(out.bytes, vec![2u8; 16]);
        assert_eq!(out.path, ReadPath::Direct);
        let w = client.write_block(1, 0, &[3u8; 16]).unwrap();
        assert!(w.validated.contains(&11), "node 11 takes deltas again");
    }

    /// Reproduction finding: a failed write can *poison* a block
    /// permanently. Interleaved failed writes under different failure
    /// sets leave residue versions visible to version checks but spread
    /// across parity nodes with mutually inconsistent columns, so no k
    /// consistent nodes exist — reads fail forever (even fully healed),
    /// and later writes fail too (their embedded READBLOCK fails). The
    /// paper never analyses failed-write history. The scrub extension
    /// salvages: it rolls the block back to the newest recoverable value
    /// at a version that supersedes the residue.
    #[test]
    fn poisoned_block_is_salvaged_by_scrub() {
        let (client, cluster) = client_15_8();
        let initial = blocks(8, 16);
        client.create_stripe(1, initial.clone()).unwrap();
        // Minimal poisoning sequence (found by proptest shrinking):
        cluster.kill(2);
        cluster.kill(10);
        let _ = client.write_block(1, 2, &[211; 16]).unwrap_err(); // residue on parity 8, 9
        cluster.kill(8);
        let _ = client.write_block(1, 7, &[89; 16]).unwrap_err(); // residue on N_7, parity 9
        cluster.kill(9);
        let _ = client.write_block(1, 5, &[189; 16]).unwrap_err(); // residue on N_5 only

        // Fully healed — yet block 2 is bricked: the version check sees
        // v1, but parity 8 and 9 disagree on other columns and no data
        // copy of v1 exists anywhere.
        for n in 0..15 {
            cluster.revive(n);
        }
        let err = client.read_block(1, 2).unwrap_err();
        assert!(
            matches!(err, ProtocolError::NotEnoughForDecode { .. }),
            "{err:?}"
        );
        // ... and writes to it are bricked too (embedded read fails).
        let err = client.write_block(1, 2, &[1; 16]).unwrap_err();
        assert!(
            matches!(err, ProtocolError::OldValueUnreadable(_)),
            "{err:?}"
        );

        // The scrub salvages block 2 back to its newest recoverable value
        // (the initial content) at a superseding version.
        let report = client.scrub_stripe(1).unwrap();
        assert!(report.salvaged.contains(&2), "{report:?}");
        let out = client.read_block(1, 2).unwrap();
        assert_eq!(
            out.bytes, initial[2],
            "rolled back to the recoverable value"
        );
        assert!(out.version > 1, "residue version superseded, not reused");
        // The block is fully writable again.
        let w = client.write_block(1, 2, &[0x99; 16]).unwrap();
        assert_eq!(w.validated.len(), 8);
        assert_eq!(client.read_block(1, 2).unwrap().bytes, vec![0x99; 16]);
    }

    #[test]
    fn scrub_skips_down_nodes() {
        let (client, cluster) = client_15_8();
        client.create_stripe(1, blocks(8, 16)).unwrap();
        cluster.kill(12);
        let report = client.scrub_stripe(1).unwrap();
        assert_eq!(report.refreshed.len(), 14);
        assert!(!report.refreshed.contains(&12));
    }

    #[test]
    fn batched_ops_fuse_per_level_rounds() {
        let (client, _cluster) = client_15_8();
        client.create_stripe(1, blocks(8, 32)).unwrap();
        client.create_stripe(2, blocks(8, 32)).unwrap();

        // A single op is a plan of one: a healthy read costs the level-0
        // round and nothing else. The check asks N_i for the block, so
        // its `ReadData` reply is both its version answer and — once the
        // level's r_0 = 2 quorum is met — the bytes line 31 serves. A
        // write adds one round per level.
        let single = client.read_block(1, 0).unwrap();
        assert_eq!(single.report.network_rounds(), 1);
        assert_eq!(single.report.messages(), 2, "N_0 and one parity member");
        assert_eq!(single.path, ReadPath::Direct);

        // Batched read across two stripes: one fused level-0 round —
        // flat in m, not m.
        let addrs: Vec<BlockAddr> = (0..8)
            .map(|i| BlockAddr::new(1 + (i as u64 & 1), i))
            .collect();
        let reads = client.read_blocks(&addrs);
        assert!(reads.all_ok());
        assert_eq!(reads.report.network_rounds(), 1);
        assert_eq!(
            reads.report.rounds_at_level(0),
            1,
            "one fused level-0 scatter"
        );
        assert_eq!(reads.report.rounds[0].ops, 8, "all blocks share it");

        // Batched write: the fused embedded read + one fused round per
        // trapezoid level (h + 1 = 2).
        let payloads: Vec<Vec<u8>> = (0..8).map(|i| vec![0xB0 | i as u8; 32]).collect();
        let items: Vec<BatchWrite> = addrs
            .iter()
            .zip(&payloads)
            .map(|(&addr, p)| BatchWrite::new(addr, p))
            .collect();
        let batch = client.write_blocks(&items);
        assert!(batch.all_ok());
        assert_eq!(batch.report.network_rounds(), 3);
        assert_eq!(
            batch.report.rounds_at_level(0),
            2,
            "read check + write level 0"
        );
        assert_eq!(batch.report.rounds_at_level(1), 1, "write level 1");
        // Message volume still scales with m — fusion amortises rounds,
        // not payloads: every trapezoid member of every block was written.
        assert!(batch.report.messages() >= 8 * 8);

        // The batch is real: single-op reads observe its effects.
        for (addr, payload) in addrs.iter().zip(&payloads) {
            let out = client.read_block(addr.stripe, addr.block).unwrap();
            assert_eq!(&out.bytes, payload);
            assert_eq!(out.version, 1);
        }
    }

    #[test]
    fn batched_writes_grade_per_block() {
        let (client, cluster) = client_15_8();
        client.create_stripe(1, blocks(8, 16)).unwrap();
        // Block i's level 0 is {N_i, 8, 9, 10} with w_0 = 3. Killing N_5
        // and parity 8 leaves block 5 with only 2 reachable level-0
        // members (fails) while every other block still has exactly 3
        // (succeeds) — one fused scatter, divergent per-item grades.
        cluster.kill(5);
        cluster.kill(8);
        let payloads: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8; 16]).collect();
        let items: Vec<BatchWrite> = (0..8)
            .map(|i| BatchWrite::new(BlockAddr::new(1, i), payloads[i].as_slice()))
            .collect();
        let batch = client.write_blocks(&items);
        // Every block except 5 commits; block 5 fails its level-0 grade
        // (3 of {5, 8, 9, 10} needed, N_5 down) — per-item results, one
        // fused scatter.
        for (i, out) in batch.outcomes.iter().enumerate() {
            if i == 5 {
                assert!(
                    matches!(out, Err(ProtocolError::WriteQuorumNotMet { level: 0, .. })),
                    "{out:?}"
                );
            } else {
                assert_eq!(out.as_ref().unwrap().version, 1, "block {i}");
            }
        }

        // Duplicate addresses are rejected per-item.
        let dup = client.write_blocks(&[
            BatchWrite::new(BlockAddr::new(1, 0), &payloads[0]),
            BatchWrite::new(BlockAddr::new(1, 0), &payloads[1]),
        ]);
        assert!(dup.outcomes[0].is_ok());
        assert!(matches!(
            dup.outcomes[1],
            Err(ProtocolError::Misconfigured(_))
        ));
    }

    #[test]
    fn io_accounting_shows_delta_updates() {
        let (client, cluster) = client_9_6();
        client.create_stripe(1, blocks(6, 1024)).unwrap();
        let before = cluster.io_totals();
        client.write_block(1, 0, &vec![1u8; 1024]).unwrap();
        let delta = cluster.io_totals().since(&before);
        // One data write + 3 parity folds; the embedded read costs
        // version queries + one data read.
        assert_eq!(delta.writes, 1);
        assert_eq!(delta.parity_adds, 3);
        assert!(delta.reads >= 1);
    }

    // -----------------------------------------------------------------
    // Integrity mode: corrupt shards are detected, routed around,
    // attributed and repaired — never silently decoded into garbage.
    // -----------------------------------------------------------------

    /// How [`tamper`] leaves the stored self-check.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Stamp {
        /// Kept from install: latent media rot, which the node's own
        /// check refuses with `NodeError::Corrupt`.
        Stale,
        /// Re-stamped over the flipped bytes (through
        /// `StoredBlock::new_data` / `new_parity`): the node's check
        /// passes and it serves the shard, so only the client's
        /// cross-checksum vector can catch it. Not for an `N_i` the
        /// one-round direct read asks: that answer is held against the
        /// node's stamp alone, which this forges.
        Forged,
    }

    /// Flips one bit of node `node`'s stored copy of object `id` behind
    /// the node's back, keeping the version and the cross-checksum
    /// vector intact.
    fn tamper(cluster: &Cluster, node: usize, id: u64, stamp: Stamp) {
        use tq_cluster::storage::StoredBlock;
        let backend = cluster.node(node).backend();
        let flip = |bytes: &Bytes| {
            let mut b = bytes.to_vec();
            b[0] ^= 0x40;
            Bytes::from(b)
        };
        let block = backend.get(id).unwrap().expect("block stored");
        let (StoredBlock::Data { check: stale, .. } | StoredBlock::Parity { check: stale, .. }) =
            block;
        let mut tampered = match block {
            StoredBlock::Data { version, bytes, .. } => {
                StoredBlock::new_data(version, flip(&bytes))
            }
            StoredBlock::Parity {
                versions,
                bytes,
                checks,
                ..
            } => StoredBlock::new_parity(versions, flip(&bytes), checks),
        };
        if stamp == Stamp::Stale {
            let (StoredBlock::Data { check, .. } | StoredBlock::Parity { check, .. }) =
                &mut tampered;
            *check = stale;
        }
        backend.put(id, tampered).unwrap();
    }

    #[test]
    fn read_routes_around_a_self_detected_corrupt_node() {
        // Nodes verify reads: N_0 itself refuses to serve its tampered
        // copy, and the read decodes from the clean shards.
        let (client, cluster) = client_9_6();
        let data = blocks(6, 64);
        client.create_stripe(1, data.clone()).unwrap();
        tamper(&cluster, 0, 1, Stamp::Stale);
        let out = client.read_block(1, 0).unwrap();
        assert_eq!(out.bytes, data[0]);
        match out.path {
            ReadPath::Decoded { ref nodes } => {
                assert!(!nodes.contains(&0), "corrupt node cannot contribute")
            }
            ReadPath::Direct => panic!("tampered N_0 must not serve directly"),
        }
    }

    #[test]
    fn read_detects_corruption_the_node_itself_missed() {
        // A forged stamp passes the node's own check, so the node serves
        // the bytes; the client's cross-checksum vector is the only line
        // of defense for a shard feeding a decode. N_0 answers the
        // direct read, which trusts its stamp, so its rot is stale: the
        // node refuses it and the read must decode.
        let (client, cluster) = client_9_6();
        let data = blocks(6, 64);
        client.create_stripe(1, data.clone()).unwrap();
        tamper(&cluster, 0, 1, Stamp::Stale);
        let out = client.read_block(1, 0).unwrap();
        assert_eq!(out.bytes, data[0], "decoded bytes must match the original");
        assert!(matches!(out.path, ReadPath::Decoded { .. }));

        // Now also forge a parity shard: the decode for block 0 must skip
        // it (cross-checksum vector mismatch) and still come back clean.
        tamper(&cluster, 6, 1, Stamp::Forged);
        let out = client.read_block(1, 0).unwrap();
        assert_eq!(out.bytes, data[0]);
        match out.path {
            ReadPath::Decoded { ref nodes } => {
                assert!(!nodes.contains(&6), "corrupt parity cannot contribute")
            }
            ReadPath::Direct => unreachable!(),
        }
    }

    /// Reads block 0 of stripe 1 as a plan of one: its result, the
    /// nodes its read proved corrupt, and the nodes whose shard the
    /// client summed.
    fn read_block_0(
        client: &TrapErcClient<LocalTransport>,
    ) -> (Result<ReadOutcome, ProtocolError>, Vec<usize>, Vec<usize>) {
        let (mut items, _) = client.read_plan(&[BlockAddr::new(1, 0)]);
        let st = items.remove(0);
        let summed = st
            .shards
            .iter()
            .filter(|shard| shard.sum.get().is_some())
            .map(|shard| shard.node)
            .collect();
        (st.done.expect("resolved"), st.corrupt, summed)
    }

    #[test]
    fn the_decoded_block_check_catches_a_forged_shard_in_the_basis() {
        // N_0 is down, so block 0 opens Case 2 with the k-shard poll:
        // data 1, 2, 3 and parity 6, 7, 8, all of them the decode basis.
        // Data 1's bytes are forged with their stamp, so node 1 serves
        // them; only the check of the decoded block can see it. The
        // per-shard pass then names node 1, and a replacement fetch from
        // the spare data node 4 completes the decode. The replacement
        // shard is never summed: the decode it feeds checks clean.
        let (client, cluster) = client_9_6();
        let data = blocks(6, 64);
        client.create_stripe(1, data.clone()).unwrap();
        cluster.kill(0);
        tamper(&cluster, 1, 1, Stamp::Forged);
        let (out, corrupt, summed) = read_block_0(&client);
        let out = out.unwrap();
        assert_eq!(out.bytes, data[0]);
        assert_eq!(
            out.path,
            ReadPath::Decoded {
                nodes: vec![2, 3, 6, 7, 8, 4]
            }
        );
        assert_eq!(corrupt, vec![1]);
        assert_eq!(summed, vec![1, 2, 3, 6, 7, 8]);

        // With data 4 and 5 down too there is no spare: the read refuses
        // with the corruption verdict, naming node 1 alone.
        cluster.kill(4);
        cluster.kill(5);
        let (out, corrupt, _) = read_block_0(&client);
        assert_eq!(
            out.unwrap_err(),
            ProtocolError::Integrity {
                needed: 6,
                clean: 5,
                corrupt: vec![1],
            }
        );
        assert_eq!(corrupt, vec![1]);
    }

    #[test]
    fn split_cross_check_vectors_take_the_per_shard_pass() {
        // Parity 6 serves its genuine bytes under a tampered vector, so
        // the poll's parity replies disagree on the reference: no
        // decode is accepted on either vector. The per-shard pass holds
        // 6's bytes against its own vector, names it, and the read
        // completes from the spare data node 4 — on the vector 7 and 8
        // agree on.
        use tq_cluster::storage::StoredBlock;
        let (client, cluster) = client_9_6();
        let data = blocks(6, 64);
        client.create_stripe(1, data.clone()).unwrap();
        cluster.kill(0);
        let backend = cluster.node(6).backend();
        let Some(StoredBlock::Parity {
            versions,
            bytes,
            mut checks,
            ..
        }) = backend.get(1).unwrap()
        else {
            panic!("node 6 holds parity")
        };
        checks[3] ^= 1;
        backend
            .put(1, StoredBlock::new_parity(versions, bytes, checks))
            .unwrap();
        let (out, corrupt, summed) = read_block_0(&client);
        let out = out.unwrap();
        assert_eq!(out.bytes, data[0]);
        assert_eq!(
            out.path,
            ReadPath::Decoded {
                nodes: vec![1, 2, 3, 7, 8, 4]
            }
        );
        assert_eq!(corrupt, vec![6]);
        assert_eq!(summed, vec![1, 2, 3, 6, 7, 8]);
    }

    #[test]
    fn too_few_clean_shards_is_a_typed_integrity_error() {
        // Both stamps on the parity nodes: forged parity is served and
        // the client's cross-check catches it; stale parity is refused
        // with `NodeError::Corrupt`. N_0's rot is stale either way (its
        // direct answer trusts the stamp), refused in the check round.
        // The verdict is the same.
        for parity in [Stamp::Forged, Stamp::Stale] {
            too_few_clean_shards(parity);
        }
    }

    fn too_few_clean_shards(parity: Stamp) {
        let (client, cluster) = client_9_6();
        client.create_stripe(1, blocks(6, 32)).unwrap();
        // Corrupt N_0 and every parity node: block 0 has only the 5
        // other data shards left clean — one short of k = 6. The read
        // must refuse with the corruption verdict, naming the liars,
        // rather than decode garbage or claim the nodes were merely
        // missing.
        tamper(&cluster, 0, 1, Stamp::Stale);
        for node in [6, 7, 8] {
            tamper(&cluster, node, 1, parity);
        }
        // Read alone or in a batch, the verdict names the same nodes —
        // N_0 included, whose rot the level check (not the decode) met.
        let single = client.read_block(1, 0).unwrap_err();
        let mut batch = client.read_blocks(&[BlockAddr::new(1, 0), BlockAddr::new(1, 3)]);
        assert!(batch.outcomes[1].is_ok(), "a clean block rides along");
        let batched = batch.outcomes.swap_remove(0).unwrap_err();
        for (how, err) in [("alone", single), ("in a batch", batched)] {
            match err {
                ProtocolError::Integrity {
                    needed,
                    clean,
                    corrupt,
                } => {
                    assert_eq!(needed, 6, "{how}");
                    assert_eq!(clean, 5, "{how}");
                    for node in [0, 6, 7, 8] {
                        assert!(
                            corrupt.contains(&node),
                            "{how}: {node} missing from {corrupt:?}"
                        );
                    }
                }
                other => panic!("{how}: expected Integrity, got {other:?}"),
            }
        }
        // Other blocks still read directly — corruption of one shard's
        // worth of nodes is not an availability event for the rest.
        assert!(client.read_block(1, 3).is_ok());
    }

    #[test]
    fn corruption_met_before_case_2_still_makes_an_integrity_verdict() {
        // The same stripe under an armed hedge policy, with the home node
        // and data nodes 4 and 5 flagged as stragglers: the poll that
        // opens the read skips them, so it holds all three parity
        // members. Stale parity refuses right there and N_0 in the level
        // check — every liar is met before Case 2 runs, whose own
        // fetches (data 4 and 5) are clean. The verdict still counts
        // them all. Forged parity is served and caught by the decode;
        // its columns settle the version, so N_0 is never asked.
        use tq_cluster::{HedgePolicy, NetworkModel, SimTransport};
        for (parity, named) in [
            (Stamp::Stale, vec![0, 6, 7, 8]),
            (Stamp::Forged, vec![6, 7, 8]),
        ] {
            let config = ProtocolConfig::with_uniform_w(9, 6, 2, 1, 1, 1).unwrap();
            let cluster = Cluster::new(9);
            let sim = SimTransport::with_model(cluster.clone(), 5, NetworkModel::reliable());
            let client = TrapErcClient::new(config, sim).unwrap();
            client.create_stripe(1, blocks(6, 32)).unwrap();
            tamper(&cluster, 0, 1, Stamp::Stale);
            for node in [6, 7, 8] {
                tamper(&cluster, node, 1, parity);
            }
            let health = client.transport().health_registry();
            for node in 0..9 {
                let rtt = if [0, 4, 5].contains(&node) {
                    100_000
                } else {
                    200
                };
                for _ in 0..5 {
                    health.record_sample(node, rtt);
                }
            }
            health.set_policy(HedgePolicy::P99);
            match client.read_block(1, 0).unwrap_err() {
                ProtocolError::Integrity {
                    needed,
                    clean,
                    mut corrupt,
                } => {
                    assert_eq!((needed, clean), (6, 5), "{parity:?}");
                    corrupt.sort_unstable();
                    assert_eq!(corrupt, named, "{parity:?}");
                }
                other => panic!("{parity:?}: expected Integrity, got {other:?}"),
            }
        }
    }

    #[test]
    fn scrub_attributes_and_repairs_corrupt_nodes() {
        // Both stamps on parity node 7: a stale one surfaces
        // `NodeError::Corrupt`, a forged one is caught by the scrub's
        // cross-checksum audit — the scrub must attribute and heal
        // either way. Data node 2 is read directly, which trusts its
        // stamp, so its rot is stale.
        for parity in [Stamp::Stale, Stamp::Forged] {
            let (client, cluster) = client_9_6();
            let data = blocks(6, 48);
            client.create_stripe(1, data.clone()).unwrap();
            tamper(&cluster, 2, 1, Stamp::Stale);
            tamper(&cluster, 7, 1, parity);

            let report = client.scrub_stripe(1).unwrap();
            assert_eq!(
                report.corrupt,
                vec![2, 7],
                "scrub must name the nodes that served corrupt bytes ({parity:?} parity)"
            );
            assert!(report.salvaged.is_empty(), "no residue to supersede");
            assert_eq!(report.refreshed.len(), 9, "push re-stamps every node");

            // The push healed the rot in place: both nodes' stored
            // copies self-check again and the data reads back directly.
            for node in [2, 7] {
                let stored = cluster.node(node).backend().get(1).unwrap().unwrap();
                assert!(stored.self_check_ok(), "node {node} still rotten");
            }
            let out = client.read_block(1, 2).unwrap();
            assert_eq!(out.bytes, data[2]);
            assert_eq!(out.path, ReadPath::Direct);
            assert!(client.scrub_stripe(1).unwrap().corrupt.is_empty());
        }
    }

    #[test]
    fn delta_writes_keep_parity_cross_checksums_live() {
        // A chain of delta writes must leave every parity node holding a
        // cross-checksum vector that still verifies its folded bytes —
        // otherwise detection would silently degrade after the first
        // write. Verified by forging a parity shard *after* the writes
        // and expecting attribution.
        let (client, cluster) = client_9_6();
        client.create_stripe(1, blocks(6, 32)).unwrap();
        for round in 0..3u8 {
            client.write_block(1, 4, &[round; 32]).unwrap();
            client.write_block(1, 1, &[round ^ 0x5A; 32]).unwrap();
        }
        assert!(client.scrub_stripe(1).unwrap().corrupt.is_empty());
        tamper(&cluster, 8, 1, Stamp::Forged);
        let report = client.scrub_stripe(1).unwrap();
        assert_eq!(report.corrupt, vec![8]);
        assert!(client.scrub_stripe(1).unwrap().corrupt.is_empty());
    }
}
