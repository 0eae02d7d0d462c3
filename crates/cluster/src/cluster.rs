//! A cluster: the node universe one stripe (or many) lives on.

use std::sync::Arc;

use crate::node::{NodeId, StorageNode};
use crate::stats::IoSnapshot;
use crate::storage::StorageBackend;

/// A fixed-size set of storage nodes with fail-stop switches.
///
/// Nodes are shared (`Arc`) so transports, fault injectors and protocol
/// drivers can hold references concurrently; the cluster itself is
/// immutable after construction (the paper's model has a fixed node set —
/// dynamics happen through the up/down switches, not membership).
#[derive(Debug, Clone)]
pub struct Cluster {
    nodes: Vec<Arc<StorageNode>>,
}

impl Cluster {
    /// Builds a cluster of `n` live nodes.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "cluster needs at least one node");
        Cluster {
            nodes: (0..n)
                .map(|i| Arc::new(StorageNode::new(NodeId(i))))
                .collect(),
        }
    }

    /// Builds a cluster of `n` live nodes whose persistence is supplied
    /// per node by `backend` (index → backend) — the hook the DST uses
    /// to wrap every node's storage in a seeded faulting backend, and
    /// tests use to pin a specific backend regardless of
    /// `TQ_NODE_BACKEND`. The backend is the only per-node choice: every
    /// node verifies what it serves and syncs what it acks.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn with_backends(
        n: usize,
        mut backend: impl FnMut(usize) -> Arc<dyn StorageBackend>,
    ) -> Self {
        assert!(n > 0, "cluster needs at least one node");
        Cluster {
            nodes: (0..n)
                .map(|i| Arc::new(StorageNode::builder(NodeId(i)).backend(backend(i)).build()))
                .collect(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` iff the cluster is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow node `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn node(&self, i: usize) -> &Arc<StorageNode> {
        &self.nodes[i]
    }

    /// Iterator over the nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &Arc<StorageNode>> {
        self.nodes.iter()
    }

    /// Marks node `i` failed.
    pub fn kill(&self, i: usize) {
        self.nodes[i].set_up(false);
    }

    /// Revives node `i` (its pre-failure state is still there — revived
    /// nodes are *stale*, not fresh).
    pub fn revive(&self, i: usize) {
        self.nodes[i].set_up(true);
    }

    /// Replaces node `i` with blank hardware: wipes its stored blocks and
    /// brings it up empty. Use `tq-trapezoid`'s rebuild to repopulate it.
    pub fn replace(&self, i: usize) {
        self.nodes[i].wipe();
        self.nodes[i].set_up(true);
    }

    /// Applies an availability pattern: node `i` is up iff `up[i]`.
    ///
    /// # Panics
    /// Panics if `up.len() != self.len()`.
    pub fn apply_availability(&self, up: &[bool]) {
        assert_eq!(up.len(), self.nodes.len(), "availability vector length");
        for (node, &u) in self.nodes.iter().zip(up) {
            node.set_up(u);
        }
    }

    /// Indices of currently live nodes.
    pub fn live_nodes(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.nodes[i].is_up()).collect()
    }

    /// Cluster-wide IO counters.
    pub fn io_totals(&self) -> IoSnapshot {
        self.nodes
            .iter()
            .map(|n| n.io_snapshot())
            .fold(IoSnapshot::default(), |acc, s| acc.merge(&s))
    }

    /// Total payload bytes stored across all nodes (measured `D_used`).
    pub fn stored_bytes(&self) -> usize {
        self.nodes.iter().map(|n| n.stored_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpc::{NodeError, Request, Response};
    use bytes::Bytes;

    #[test]
    fn construction_and_access() {
        let c = Cluster::new(5);
        assert_eq!(c.len(), 5);
        assert!(!c.is_empty());
        assert_eq!(c.node(3).id(), NodeId(3));
        assert_eq!(c.live_nodes(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn kill_and_revive() {
        let c = Cluster::new(3);
        c.kill(1);
        assert_eq!(c.live_nodes(), vec![0, 2]);
        assert_eq!(c.node(1).handle(Request::Ping), Err(NodeError::Down));
        c.revive(1);
        assert_eq!(c.live_nodes(), vec![0, 1, 2]);
        assert_eq!(c.node(1).handle(Request::Ping), Ok(Response::Pong));
    }

    #[test]
    fn apply_availability_pattern() {
        let c = Cluster::new(4);
        c.apply_availability(&[true, false, false, true]);
        assert_eq!(c.live_nodes(), vec![0, 3]);
        c.apply_availability(&[true, true, true, true]);
        assert_eq!(c.live_nodes(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn cluster_accounting() {
        let c = Cluster::new(2);
        c.node(0)
            .handle(Request::InitData {
                id: 1,
                bytes: Bytes::from(vec![0; 64]),
            })
            .unwrap();
        c.node(1)
            .handle(Request::InitParity {
                id: 1,
                bytes: Bytes::from(vec![0; 16]),
                k: 4,
                checks: vec![0; 4],
            })
            .unwrap();
        assert_eq!(c.stored_bytes(), 80);
        let totals = c.io_totals();
        assert_eq!(totals.writes, 2);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        let _ = Cluster::new(0);
    }
}
