//! Replication-control baselines from §II: ROWA and Majority quorum.
//!
//! Both manage fully-replicated objects over `n` nodes; they exist so
//! the benches can place the trapezoid protocols on the availability
//! spectrum the paper sketches (ROWA: perfect reads / fragile writes;
//! Majority: balanced; trapezoid: tunable between them).
//!
//! Every replication protocol here is a list of *levels* — a node range
//! with a read threshold and a write threshold — walked by the one read
//! walk and the one write walk of the crate-internal `ReplicaSet`: ROWA
//! is the single level `(r, w) = (1, n)` whose poll asks for the data
//! itself, Majority the single level `(⌊n/2⌋+1, ⌊n/2⌋+1)`, and TRAP-FR
//! ([`crate::TrapFrClient`]) the trapezoid's `h + 1` levels. A single
//! op is a batch of one. All populate the unified [`ReadOutcome`] fully
//! (quorum-time version, path, round accounting), so cross-protocol
//! assertions through [`QuorumStore`](crate::store::QuorumStore) are
//! possible.

use std::collections::BTreeSet;
use std::ops::Range;

use bytes::Bytes;
use tq_cluster::{NodeError, NodeId, PlanOp, QuorumRound, Request, Response, Transport};

use crate::errors::ProtocolError;
use crate::rounds::{self, run_fused, run_recorded, Writing};
use crate::store::{BatchReads, BatchWrites, OpReport, OBJECTS_PER_STRIPE};
use crate::trap_erc::{ReadOutcome, ReadPath, ScrubReport, WriteOutcome};

/// One level of a replicated layout: the nodes holding a full copy and
/// how many of them a version check (`r`) and a write (`w`) need.
#[derive(Debug, Clone)]
pub(crate) struct ReplicaLevel {
    pub members: Range<usize>,
    pub r: usize,
    pub w: usize,
}

/// The replica scaffolding ROWA, Majority and TRAP-FR share: `n` full
/// replicas on one transport organised in levels, provisioning, the
/// read walk, the write walk and the anti-entropy pass.
#[derive(Debug)]
pub(crate) struct ReplicaSet<T: Transport> {
    pub n: usize,
    levels: Vec<ReplicaLevel>,
    /// What a level's version check asks each member but the first,
    /// which is always asked for the data (`ReadData` states the
    /// version too). `VersionData` for the quorum protocols; ROWA asks
    /// everyone `ReadData`, whose answer already *is* the read (its
    /// defining one-RPC cost).
    poll: fn(u64) -> Request,
    pub transport: T,
}

pub(crate) fn poll_version(id: u64) -> Request {
    Request::VersionData { id }
}

fn poll_data(id: u64) -> Request {
    Request::ReadData { id }
}

impl<T: Transport> ReplicaSet<T> {
    pub(crate) fn new(
        n: usize,
        levels: Vec<ReplicaLevel>,
        poll: fn(u64) -> Request,
        transport: T,
    ) -> Result<Self, ProtocolError> {
        if transport.node_count() < n || n == 0 {
            return Err(ProtocolError::Node(NodeError::TransportClosed));
        }
        Ok(ReplicaSet {
            n,
            levels,
            poll,
            transport,
        })
    }

    /// Installs many objects everywhere in one fused fan-out round (one
    /// object is a batch of one).
    pub(crate) fn create_many(&self, items: &[(u64, &[u8])]) -> Result<OpReport, ProtocolError> {
        let mut report = OpReport::default();
        rounds::provision_many(&self.transport, self.n, items, &mut report)?;
        Ok(report)
    }

    /// **The read walk.** Per level, one fused first-quorum poll carries
    /// every unresolved object's version check, asking the level's first
    /// member for the data and the rest what the protocol polls; an
    /// object whose check completes is served from a polled replica
    /// holding the latest version ("any node giving the adequate latest
    /// version ... can be used") — straight from the poll when a holder
    /// was asked for the data (the healthy read: one round), otherwise
    /// by fused fetch rounds, one per holder rank, until a holder
    /// delivers. If every latest holder died between the poll
    /// and the fetch, the level counts as failed and the object moves on
    /// to the next one — restarting from level 0 would only re-poll
    /// levels already known to be short or holderless.
    pub(crate) fn read_many(&self, ids: &[u64]) -> BatchReads {
        let mut report = OpReport::default();
        let mut served: Vec<Option<ReadOutcome>> = vec![None; ids.len()];
        let mut saw_not_found = vec![false; ids.len()];
        let mut saw_success = vec![false; ids.len()];
        for (l, level) in self.levels.iter().enumerate() {
            let pending: Vec<usize> = (0..ids.len()).filter(|&x| served[x].is_none()).collect();
            if pending.is_empty() {
                break;
            }
            let ops: Vec<PlanOp> = pending
                .iter()
                .map(|&x| PlanOp {
                    round: QuorumRound::first_quorum(level.r),
                    calls: level
                        .members
                        .clone()
                        .map(|pos| {
                            let req = if pos == level.members.start {
                                Request::ReadData { id: ids[x] }
                            } else {
                                (self.poll)(ids[x])
                            };
                            (NodeId(pos), req)
                        })
                        .collect(),
                })
                .collect();
            let polls = run_fused(&self.transport, Some(l), ops, &mut report);
            // (object, quorum-time latest, replicas known to hold it)
            let mut fetch: Vec<(usize, u64, Vec<usize>)> = Vec::new();
            for (&x, poll) in pending.iter().zip(&polls) {
                saw_not_found[x] |= poll.saw_error(|e| matches!(e, NodeError::NotFound));
                saw_success[x] |= !poll.accepted.is_empty();
                if !poll.quorum_met() {
                    continue;
                }
                let version_of = |r: &Response| match r {
                    Response::Version(v) | Response::Data { version: v, .. } => Some(*v),
                    _ => None,
                };
                let Some(latest) = poll
                    .accepted
                    .iter()
                    .filter_map(|a| version_of(&a.response))
                    .max()
                else {
                    continue;
                };
                let holders = poll
                    .accepted
                    .iter()
                    .filter(|a| version_of(&a.response) == Some(latest));
                served[x] = holders.clone().find_map(|a| direct(&a.response, latest));
                if served[x].is_none() {
                    fetch.push((x, latest, holders.map(|a| a.node.0).collect()));
                }
            }
            for rank in 0..level.members.len() {
                fetch.retain(|(x, _, holders)| served[*x].is_none() && rank < holders.len());
                if fetch.is_empty() {
                    break;
                }
                let ops: Vec<PlanOp> = fetch
                    .iter()
                    .map(|(x, _, holders)| PlanOp {
                        round: QuorumRound::await_all(0),
                        calls: vec![(NodeId(holders[rank]), Request::ReadData { id: ids[*x] })],
                    })
                    .collect();
                let fetched = run_fused(&self.transport, None, ops, &mut report);
                for ((x, latest, _), outcome) in fetch.iter().zip(&fetched) {
                    served[*x] = outcome
                        .accepted
                        .first()
                        .and_then(|a| direct(&a.response, *latest));
                }
            }
        }
        BatchReads {
            outcomes: served
                .into_iter()
                .enumerate()
                .map(|(x, out)| {
                    // A stripe no contacted node knows is missing;
                    // anything else is a failed version check.
                    out.ok_or(if saw_not_found[x] && !saw_success[x] {
                        ProtocolError::StripeMissing
                    } else {
                        ProtocolError::VersionCheckFailed
                    })
                })
                .collect(),
            report,
        }
    }

    /// **The write walk.** One fused version-discovery pass through the
    /// read walk, then every object's `WriteData` scatter fused into one
    /// graded round per level. Ids must be distinct.
    ///
    /// The per-replica `WriteData` is monotone (compare-and-advance on
    /// version), so the write is safe under at-least-once delivery: a
    /// duplicated or cross-round-stale copy of any level's install acks
    /// idempotently on a replica that has since moved on, instead of
    /// rolling it back.
    pub(crate) fn write_many(&self, items: &[(u64, &[u8])]) -> BatchWrites {
        let mut results: Vec<Option<Result<WriteOutcome, ProtocolError>>> = vec![None; items.len()];
        rounds::flag_duplicates(items.iter().map(|&(id, _)| id), &mut results);
        let read_idx: Vec<usize> = (0..items.len())
            .filter(|&idx| results[idx].is_none())
            .collect();
        let ids: Vec<u64> = read_idx.iter().map(|&idx| items[idx].0).collect();
        let reads = self.read_many(&ids);
        let mut olds: Vec<(usize, u64)> = Vec::with_capacity(read_idx.len());
        for (&idx, old) in read_idx.iter().zip(reads.outcomes) {
            match old {
                Ok(old) => olds.push((idx, old.version)),
                Err(e) => results[idx] = Some(Err(ProtocolError::OldValueUnreadable(Box::new(e)))),
            }
        }
        self.write_levels(items, &olds, results, reads.report)
    }

    /// The write walk with the current versions in hand: `olds` pairs a
    /// position in `items` with that object's old version.
    pub(crate) fn write_levels(
        &self,
        items: &[(u64, &[u8])],
        olds: &[(usize, u64)],
        results: Vec<Option<Result<WriteOutcome, ProtocolError>>>,
        report: OpReport,
    ) -> BatchWrites {
        let alive: Vec<Writing<Bytes>> = olds
            .iter()
            .map(|&(idx, old_version)| Writing {
                idx,
                version: old_version + 1,
                // One shared allocation per object; per-replica clones
                // are O(1) Arc bumps.
                payload: Bytes::copy_from_slice(items[idx].1),
                validated: Vec::new(),
            })
            .collect();
        rounds::write_levels(
            &self.transport,
            self.levels.len(),
            alive,
            |w, l| {
                let level = &self.levels[l];
                let calls = rounds::write_calls(
                    level.members.clone(),
                    items[w.idx].0,
                    &w.payload,
                    w.version,
                );
                (level.w, calls)
            },
            results,
            report,
        )
    }
}

/// A `ReadData` answer at (or past) the quorum-time latest version, as
/// the read's outcome.
fn direct(response: &Response, latest: u64) -> Option<ReadOutcome> {
    match response {
        Response::Data { bytes, version, .. } if *version >= latest => Some(ReadOutcome {
            bytes: bytes.to_vec(),
            version: *version,
            path: ReadPath::Direct,
            report: OpReport::default(),
        }),
        _ => None,
    }
}

/// Anti-entropy pass shared by every replication backend (ROWA,
/// Majority, TRAP-FR): for each object of the stripe's contiguous block
/// prefix, read the latest state with the protocol's own quorum read and
/// push it back to all `n` replicas — stale replicas catch up, wiped
/// replacements are re-initialised. `refreshed` reports the replicas
/// that acked every push.
pub(crate) fn repair_contiguous_objects<T: Transport>(
    replicas: &ReplicaSet<T>,
    stripe: u64,
) -> Result<ScrubReport, ProtocolError> {
    let (transport, n) = (&replicas.transport, replicas.n);
    let mut report = OpReport::default();
    let mut refreshed: Option<BTreeSet<usize>> = None;
    for block in 0..OBJECTS_PER_STRIPE {
        let id = stripe * OBJECTS_PER_STRIPE + block;
        let mut read = replicas.read_many(&[id]);
        report.merge_from(std::mem::take(&mut read.report));
        let out = match read.into_single() {
            Ok(out) => out,
            Err(ProtocolError::StripeMissing) => break,
            Err(e) => return Err(e),
        };
        // Residue guard: a failed write may have stamped a *higher*
        // version on some replicas than the quorum read served, and a
        // client may have observed it. Versions must never regress —
        // and the node-side `WriteData` guard enforces that, acking a
        // stale push without applying it — so poll every live replica
        // and, like the TRAP-ERC scrub, install the settled value at a
        // version superseding any residue: that is what makes the push
        // dominate (and therefore actually land on) every live replica.
        let calls: Vec<(NodeId, Request)> = (0..n)
            .map(|node| (NodeId(node), Request::VersionData { id }))
            .collect();
        let poll = run_recorded(
            transport,
            QuorumRound::await_all(0),
            None,
            calls,
            &mut report,
        );
        let vmax = rounds::version_responders(&poll)
            .iter()
            .map(|&(_, v)| v)
            .max()
            .map_or(out.version, |v| v.max(out.version));
        let install = if out.version < vmax {
            vmax + 1
        } else {
            out.version
        };
        let acked = push_state(transport, n, id, &out.bytes, install, &mut report);
        refreshed = Some(match refreshed {
            None => acked,
            Some(prev) => prev.intersection(&acked).copied().collect(),
        });
    }
    Ok(ScrubReport {
        refreshed: refreshed.unwrap_or_default().into_iter().collect(),
        salvaged: Vec::new(),
        // Replication repair heals corrupt replicas by re-pushing full
        // state; attribution needs the erasure cross-checksum machinery
        // and is reported only by the TRAP-ERC scrub.
        corrupt: Vec::new(),
        report,
    })
}

/// Pushes `(bytes, version)` to all `n` replicas; replicas that lost the
/// object entirely (wiped replacements answer `NotFound`) get an
/// init-then-write follow-up. Returns the replicas holding the state.
fn push_state<T: Transport>(
    transport: &T,
    n: usize,
    id: u64,
    bytes: &[u8],
    version: u64,
    report: &mut OpReport,
) -> BTreeSet<usize> {
    let payload = Bytes::copy_from_slice(bytes);
    let calls = rounds::write_calls(0..n, id, &payload, version);
    let outcome = run_recorded(transport, QuorumRound::await_all(0), None, calls, report);
    let mut acked: BTreeSet<usize> = outcome.accepted.iter().map(|a| a.node.0).collect();
    let missing: Vec<usize> = outcome
        .rejected
        .iter()
        .filter(|r| matches!(r.error, NodeError::NotFound))
        .map(|r| r.node.0)
        .collect();
    if !missing.is_empty() {
        let init: Vec<(NodeId, Request)> = missing
            .iter()
            .map(|&node| {
                (
                    NodeId(node),
                    Request::InitData {
                        id,
                        bytes: payload.clone(),
                    },
                )
            })
            .collect();
        run_recorded(transport, QuorumRound::await_all(0), None, init, report);
        let stamp: Vec<(NodeId, Request)> = missing
            .iter()
            .map(|&node| {
                (
                    NodeId(node),
                    Request::WriteData {
                        id,
                        bytes: payload.clone(),
                        version,
                    },
                )
            })
            .collect();
        let outcome = run_recorded(transport, QuorumRound::await_all(0), None, stamp, report);
        acked.extend(outcome.accepted.iter().map(|a| a.node.0));
    }
    acked
}

/// Read One, Write All.
#[derive(Debug)]
pub struct RowaClient<T: Transport> {
    replicas: ReplicaSet<T>,
}

impl<T: Transport> RowaClient<T> {
    /// Binds `n` replicas to a transport.
    ///
    /// # Errors
    /// [`ProtocolError::Node`] if the transport is too small.
    pub fn new(n: usize, transport: T) -> Result<Self, ProtocolError> {
        let level = ReplicaLevel {
            members: 0..n,
            r: 1,
            w: n,
        };
        Ok(RowaClient {
            replicas: ReplicaSet::new(n, vec![level], poll_data, transport)?,
        })
    }

    /// The replica count n.
    pub fn replicas(&self) -> usize {
        self.replicas.n
    }

    /// Installs the object everywhere (provisioning).
    ///
    /// # Errors
    /// [`ProtocolError::Node`] with the lowest-indexed failing node's
    /// error.
    pub fn create(&self, id: u64, bytes: &[u8]) -> Result<OpReport, ProtocolError> {
        self.replicas.create_many(&[(id, bytes)])
    }

    /// Installs many objects in one fused provisioning round.
    ///
    /// # Errors
    /// See [`RowaClient::create`].
    pub fn create_many(&self, items: &[(u64, &[u8])]) -> Result<OpReport, ProtocolError> {
        self.replicas.create_many(items)
    }

    /// Reads from the first live replica — "any single block read will
    /// give the latest value" because writes reach all replicas. A
    /// first-quorum round with threshold 1 over `ReadData`: on the
    /// sequential transport this is exactly the seed's one-RPC walk
    /// (ROWA's defining read cost); on a concurrent transport the
    /// fastest replica serves. The outcome carries the serving replica's
    /// version — under ROWA's invariant that *is* the quorum-time latest.
    ///
    /// # Errors
    /// [`ProtocolError::StripeMissing`] if replicas answer but none
    /// stores the object; [`ProtocolError::VersionCheckFailed`] if every
    /// replica is down.
    pub fn read(&self, id: u64) -> Result<ReadOutcome, ProtocolError> {
        self.read_many(&[id]).into_single()
    }

    /// Batched ROWA read: one fused round carrying every object's
    /// first-live-replica poll.
    pub fn read_many(&self, ids: &[u64]) -> BatchReads {
        self.replicas.read_many(ids)
    }

    /// Writes to *all* replicas; a single failure fails the operation
    /// (the paper's "any failure prevent\[s\] these operations").
    ///
    /// # Errors
    /// [`ProtocolError::WriteQuorumNotMet`] with `needed = n` on any
    /// replica failure; [`ProtocolError::OldValueUnreadable`] if no
    /// replica serves the current version.
    pub fn write(&self, id: u64, new: &[u8]) -> Result<WriteOutcome, ProtocolError> {
        self.write_many(&[(id, new)]).into_single()
    }

    /// Batched ROWA write: one fused read round for current versions,
    /// one fused all-replica write round.
    pub fn write_many(&self, items: &[(u64, &[u8])]) -> BatchWrites {
        self.replicas.write_many(items)
    }

    /// Anti-entropy for the store facade (see
    /// [`repair_contiguous_objects`]).
    pub(crate) fn repair_stripe_objects(&self, stripe: u64) -> Result<ScrubReport, ProtocolError> {
        repair_contiguous_objects(&self.replicas, stripe)
    }
}

/// Majority quorum consensus (Thomas 1979).
#[derive(Debug)]
pub struct MajorityClient<T: Transport> {
    replicas: ReplicaSet<T>,
}

impl<T: Transport> MajorityClient<T> {
    /// Binds `n` replicas to a transport.
    ///
    /// # Errors
    /// [`ProtocolError::Node`] if the transport is too small.
    pub fn new(n: usize, transport: T) -> Result<Self, ProtocolError> {
        let level = ReplicaLevel {
            members: 0..n,
            r: n / 2 + 1,
            w: n / 2 + 1,
        };
        Ok(MajorityClient {
            replicas: ReplicaSet::new(n, vec![level], poll_version, transport)?,
        })
    }

    /// The replica count n.
    pub fn replicas(&self) -> usize {
        self.replicas.n
    }

    /// The quorum size `⌊n/2⌋ + 1`.
    pub fn quorum(&self) -> usize {
        self.replicas.n / 2 + 1
    }

    /// Installs the object everywhere (provisioning).
    ///
    /// # Errors
    /// [`ProtocolError::Node`] with the lowest-indexed failing node's
    /// error.
    pub fn create(&self, id: u64, bytes: &[u8]) -> Result<OpReport, ProtocolError> {
        self.replicas.create_many(&[(id, bytes)])
    }

    /// Installs many objects in one fused provisioning round.
    ///
    /// # Errors
    /// See [`MajorityClient::create`].
    pub fn create_many(&self, items: &[(u64, &[u8])]) -> Result<OpReport, ProtocolError> {
        self.replicas.create_many(items)
    }

    /// Polls a first-quorum round until a majority answers — the first
    /// replica with its data, the rest with their versions — then serves
    /// the bytes from a replica holding the maximum version seen: from
    /// the poll itself when the first replica does (the healthy read),
    /// else by a fetch. The outcome's `version` is that quorum-time
    /// maximum (or newer, if the replica advanced before the fetch),
    /// never a stale replica's private version.
    ///
    /// # Errors
    /// [`ProtocolError::StripeMissing`] if replicas answer but none
    /// stores the object; [`ProtocolError::VersionCheckFailed`] without
    /// a live majority.
    pub fn read(&self, id: u64) -> Result<ReadOutcome, ProtocolError> {
        self.read_many(&[id]).into_single()
    }

    /// Batched Majority read: one fused poll round, then — only for
    /// objects whose first replica was stale, dead or abandoned — fused
    /// fetch rounds from each object's latest holders.
    pub fn read_many(&self, ids: &[u64]) -> BatchReads {
        self.replicas.read_many(ids)
    }

    /// Reads the current version from a majority, then writes
    /// `version + 1` to every replica, requiring a majority of acks.
    ///
    /// # Errors
    /// [`ProtocolError::OldValueUnreadable`] /
    /// [`ProtocolError::WriteQuorumNotMet`].
    pub fn write(&self, id: u64, new: &[u8]) -> Result<WriteOutcome, ProtocolError> {
        self.write_many(&[(id, new)]).into_single()
    }

    /// Batched Majority write: one fused version-discovery pass, one
    /// fused all-replica write round graded against the majority.
    pub fn write_many(&self, items: &[(u64, &[u8])]) -> BatchWrites {
        self.replicas.write_many(items)
    }

    /// Anti-entropy for the store facade (see
    /// [`repair_contiguous_objects`]).
    pub(crate) fn repair_stripe_objects(&self, stripe: u64) -> Result<ScrubReport, ProtocolError> {
        repair_contiguous_objects(&self.replicas, stripe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tq_cluster::{Cluster, LocalTransport};

    #[test]
    fn rowa_read_one_write_all() {
        let cluster = Cluster::new(5);
        let c = RowaClient::new(5, LocalTransport::new(cluster.clone())).unwrap();
        c.create(1, b"init").unwrap();
        c.write(1, b"next").unwrap();
        // Any single live node serves reads.
        for dead in 0..4 {
            cluster.kill(dead);
        }
        assert_eq!(c.read(1).unwrap().bytes, b"next");
        // A single dead node fails writes.
        for node in 0..5 {
            cluster.revive(node);
        }
        cluster.kill(3);
        let err = c.write(1, b"nope").unwrap_err();
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
        let c = RowaClient::new(3, LocalTransport::new(cluster.clone())).unwrap();
        c.create(1, b"old").unwrap();
        cluster.kill(2);
        let _ = c.write(1, b"new").unwrap_err();
        cluster.revive(2);
        assert_eq!(c.read(1).unwrap().bytes, b"new");
    }

    #[test]
    fn majority_survives_minority_failures() {
        let cluster = Cluster::new(5);
        let c = MajorityClient::new(5, LocalTransport::new(cluster.clone())).unwrap();
        assert_eq!(c.quorum(), 3);
        c.create(1, b"m0").unwrap();
        cluster.kill(0);
        cluster.kill(4);
        let w = c.write(1, b"m1").unwrap();
        assert_eq!(w.version, 1);
        assert_eq!(w.validated, vec![1, 2, 3]);
        assert_eq!(c.read(1).unwrap().bytes, b"m1");
        // One more failure: no majority.
        cluster.kill(1);
        assert!(c.write(1, b"m2").is_err());
        assert!(c.read(1).is_err());
    }

    #[test]
    fn majority_reads_see_latest_despite_stale_minority() {
        let cluster = Cluster::new(5);
        let c = MajorityClient::new(5, LocalTransport::new(cluster.clone())).unwrap();
        c.create(1, b"v0").unwrap();
        // Nodes 0 and 1 miss the write.
        cluster.kill(0);
        cluster.kill(1);
        c.write(1, b"v1").unwrap();
        cluster.revive(0);
        cluster.revive(1);
        // Reads poll nodes in index order, so the majority {0, 1, 2}
        // contains two stale replicas — the max-version rule must still
        // surface v1 from node 2.
        let out = c.read(1).unwrap();
        assert_eq!(out.bytes, b"v1");
        assert_eq!(out.version, 1);
        // Node 0 answered the poll with its stale block: not served, and
        // the fetch goes to the holder.
        assert_eq!(out.report.network_rounds(), 2, "poll + fetch from node 2");
    }

    #[test]
    fn reads_report_quorum_time_version_and_accounting() {
        let cluster = Cluster::new(5);
        let rowa = RowaClient::new(5, LocalTransport::new(cluster.clone())).unwrap();
        rowa.create(7, b"r0").unwrap();
        let out = rowa.read(7).unwrap();
        assert_eq!(out.version, 0);
        assert_eq!(out.path, ReadPath::Direct);
        assert_eq!(out.report.network_rounds(), 1, "one first-quorum round");
        assert_eq!(out.report.messages(), 1, "ROWA's defining one-RPC read");

        let majority = MajorityClient::new(5, LocalTransport::new(cluster)).unwrap();
        majority.create(8, b"m0").unwrap();
        majority.write(8, b"m1").unwrap();
        let out = majority.read(8).unwrap();
        assert_eq!(out.version, 1, "quorum-time latest, not first responder");
        // One round: the poll asked its first member for the data, and
        // that member holds the latest version.
        assert_eq!(out.report.network_rounds(), 1);
        assert_eq!(out.report.messages(), majority.quorum());
    }

    #[test]
    fn missing_objects_are_distinguished_from_dead_clusters() {
        let cluster = Cluster::new(3);
        let rowa = RowaClient::new(3, LocalTransport::new(cluster.clone())).unwrap();
        let majority = MajorityClient::new(3, LocalTransport::new(cluster.clone())).unwrap();
        assert_eq!(rowa.read(99).unwrap_err(), ProtocolError::StripeMissing);
        assert_eq!(majority.read(99).unwrap_err(), ProtocolError::StripeMissing);
        for n in 0..3 {
            cluster.kill(n);
        }
        assert_eq!(
            rowa.read(99).unwrap_err(),
            ProtocolError::VersionCheckFailed
        );
        assert_eq!(
            majority.read(99).unwrap_err(),
            ProtocolError::VersionCheckFailed
        );
    }

    #[test]
    fn batched_ops_fuse_rounds() {
        let cluster = Cluster::new(5);
        let c = MajorityClient::new(5, LocalTransport::new(cluster.clone())).unwrap();
        let initial: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8; 16]).collect();
        let items: Vec<(u64, &[u8])> = (0..6u64)
            .map(|i| (i, initial[i as usize].as_slice()))
            .collect();
        let report = c.create_many(&items).unwrap();
        assert_eq!(report.network_rounds(), 1, "fused provisioning");

        let payloads: Vec<Vec<u8>> = (0..6).map(|i| vec![0x40 + i as u8; 16]).collect();
        let write_items: Vec<(u64, &[u8])> = (0..6u64)
            .map(|i| (i, payloads[i as usize].as_slice()))
            .collect();
        let batch = c.write_many(&write_items);
        assert!(batch.all_ok());
        // One fused poll (serving the old versions) + one fused write —
        // not 6×2.
        assert_eq!(batch.report.network_rounds(), 2);

        let ids: Vec<u64> = (0..6).collect();
        let reads = c.read_many(&ids);
        assert!(reads.all_ok());
        assert_eq!(reads.report.network_rounds(), 1, "one fused poll");
        for (i, out) in reads.outcomes.iter().enumerate() {
            assert_eq!(out.as_ref().unwrap().bytes, payloads[i]);
            assert_eq!(out.as_ref().unwrap().version, 1);
        }

        let rowa = RowaClient::new(5, LocalTransport::new(cluster)).unwrap();
        rowa.create_many(&items).unwrap();
        let reads = rowa.read_many(&ids);
        assert!(reads.all_ok());
        assert_eq!(reads.report.network_rounds(), 1, "one fused ROWA round");
    }

    #[test]
    fn repair_supersedes_residue_instead_of_regressing_versions() {
        // A failed ROWA write leaves residue v1 on the live replicas;
        // with the writer's replica down, clients can observe v1. The
        // repair pass must never re-stamp a version below anything
        // observable — like the TRAP-ERC salvage, it installs the
        // settled value at a version superseding the residue.
        let cluster = Cluster::new(3);
        let c = RowaClient::new(3, LocalTransport::new(cluster.clone())).unwrap();
        c.create(0, b"old").unwrap(); // object 0 = (stripe 0, block 0)
        cluster.kill(0);
        let _ = c.write(0, b"new").unwrap_err(); // residue v1 on nodes 1, 2
        let observed = c.read(0).unwrap();
        assert_eq!(observed.version, 1, "residue is client-visible");
        cluster.revive(0);
        // The repair's own read serves stale node 0 (v0) — the settled
        // value — but must install it above the v1 residue.
        c.repair_stripe_objects(0).unwrap();
        let out = c.read(0).unwrap();
        assert_eq!(out.bytes, b"old", "settled on the quorum-read value");
        assert_eq!(out.version, 2, "residue superseded, never regressed");
    }

    #[test]
    fn duplicate_batch_addresses_rejected() {
        let cluster = Cluster::new(3);
        let c = RowaClient::new(3, LocalTransport::new(cluster)).unwrap();
        c.create(1, b"x").unwrap();
        let batch = c.write_many(&[(1, b"a".as_slice()), (1, b"b".as_slice())]);
        assert!(batch.outcomes[0].is_ok());
        assert!(matches!(
            batch.outcomes[1],
            Err(ProtocolError::Misconfigured(_))
        ));
    }

    #[test]
    fn constructor_bounds() {
        let t = LocalTransport::new(Cluster::new(2));
        assert!(RowaClient::new(3, t.clone()).is_err());
        assert!(MajorityClient::new(0, t.clone()).is_err());
        assert!(MajorityClient::new(2, t).is_ok());
    }
}
