//! Per-node IO accounting.
//!
//! The paper motivates ERC schemes by update/recovery IO cost ("a (9,6)
//! MDS will require 8 read and write operations for a single block
//! update"). These counters make that arithmetic observable: every node
//! tallies operations served and payload bytes moved, so benches can
//! report IO per protocol operation and the delta-update ablation can
//! show its savings against full re-encode.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic operation / byte counters for one node.
///
/// All counters are relaxed atomics: they are statistics, not
/// synchronisation, and the hot path must stay cheap.
#[derive(Debug, Default)]
pub(crate) struct IoStats {
    reads: AtomicU64,
    writes: AtomicU64,
    version_queries: AtomicU64,
    parity_adds: AtomicU64,
    rejected: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

/// A point-in-time copy of `IoStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    /// Block reads served (data or parity).
    pub reads: u64,
    /// Block writes applied.
    pub writes: u64,
    /// Version / version-vector queries served.
    pub version_queries: u64,
    /// Parity delta folds applied.
    pub parity_adds: u64,
    /// Requests rejected (down, guard failure, …).
    pub rejected: u64,
    /// Payload bytes received.
    pub bytes_in: u64,
    /// Payload bytes sent.
    pub bytes_out: u64,
}

impl IoSnapshot {
    /// Total operations served (excluding rejections).
    pub fn total_ops(&self) -> u64 {
        self.reads + self.writes + self.version_queries + self.parity_adds
    }

    /// Element-wise difference against an earlier snapshot.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            version_queries: self.version_queries - earlier.version_queries,
            parity_adds: self.parity_adds - earlier.parity_adds,
            rejected: self.rejected - earlier.rejected,
            bytes_in: self.bytes_in - earlier.bytes_in,
            bytes_out: self.bytes_out - earlier.bytes_out,
        }
    }

    /// Element-wise sum (for cluster-wide aggregation).
    pub fn merge(&self, other: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            version_queries: self.version_queries + other.version_queries,
            parity_adds: self.parity_adds + other.parity_adds,
            rejected: self.rejected + other.rejected,
            bytes_in: self.bytes_in + other.bytes_in,
            bytes_out: self.bytes_out + other.bytes_out,
        }
    }
}

impl IoStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        IoStats::default()
    }

    /// Records a block read serving `bytes` bytes.
    pub(crate) fn record_read(&self, bytes: usize) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_out.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records a block write receiving `bytes` bytes.
    pub(crate) fn record_write(&self, bytes: usize) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records a version(-vector) query.
    pub(crate) fn record_version_query(&self) {
        self.version_queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a parity fold receiving `bytes` delta bytes.
    pub(crate) fn record_parity_add(&self, bytes: usize) {
        self.parity_adds.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records a rejected request.
    pub(crate) fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot (relaxed reads; counters are
    /// monotone so any interleaving is a valid point in time for tests).
    pub(crate) fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            version_queries: self.version_queries.load(Ordering::Relaxed),
            parity_adds: self.parity_adds.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::new();
        s.record_read(100);
        s.record_read(50);
        s.record_write(200);
        s.record_version_query();
        s.record_parity_add(30);
        s.record_rejected();
        let snap = s.snapshot();
        assert_eq!(snap.reads, 2);
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.version_queries, 1);
        assert_eq!(snap.parity_adds, 1);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.bytes_out, 150);
        assert_eq!(snap.bytes_in, 230);
        assert_eq!(snap.total_ops(), 5);
    }

    #[test]
    fn snapshot_diff_and_merge() {
        let s = IoStats::new();
        s.record_read(10);
        let first = s.snapshot();
        s.record_read(10);
        s.record_write(5);
        let second = s.snapshot();
        let diff = second.since(&first);
        assert_eq!(diff.reads, 1);
        assert_eq!(diff.writes, 1);
        assert_eq!(diff.bytes_out, 10);
        let merged = first.merge(&diff);
        assert_eq!(merged, second);
    }

    #[test]
    fn concurrent_updates() {
        use std::sync::Arc;
        let s = Arc::new(IoStats::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.record_read(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.snapshot().reads, 4000);
    }
}
