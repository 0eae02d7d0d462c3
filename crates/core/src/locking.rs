//! Per-block write locking — the "classical ways" for data concurrency.
//!
//! The paper scopes itself to the coherency protocol and waves at
//! concurrency control: "if some constraints like data concurrency can be
//! solved using classical ways, others like coherency protocols need some
//! adaptations" (§I). Algorithm 1 is indeed unsafe under write-write
//! races: the data-node `write(x)` carries no guard, so two writers can
//! install the same version number with different bytes while the parity
//! guards serialise on only one of them, leaving `N_i` inconsistent with
//! parity until a scrub.
//!
//! [`StripeLockManager`] supplies the classical fix: an exclusive lock
//! per (stripe, block). [`TrapErcClient::write_block_locked`] wraps
//! Algorithm 1 in that lock, restoring write-write safety without
//! touching the protocol itself.
//!
//! The table is **sharded**: keys hash onto independent shards, each
//! with its own mutex and its own condvar. Writers contending on
//! different shards never touch the same mutex, and a release notifies
//! only its shard's waiters — releasing block A cannot thundering-herd
//! writers queued on unrelated blocks, as one global broadcast condvar
//! would. [`StripeLockManager::contended_wakeups`] counts wakeups that
//! found their key still held; the regression test pins it at zero for
//! cross-shard churn.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Condvar;
use tq_cluster::detmap::{splitmix64, DetHashSet};
use tq_cluster::Transport;

use crate::errors::ProtocolError;
use crate::trap_erc::{TrapErcClient, WriteOutcome};

/// Shard count: comfortably above any plausible writer count so
/// distinct hot blocks almost never share a condvar.
const LOCK_SHARDS: usize = 64;

/// One independent slice of the lock table. Its mutex is raw, not a
/// [`tq_cluster::sync::Mutex`]: the condvar needs the raw guard, and the
/// logical locks it records span Algorithm 1's rounds by design.
#[derive(Debug, Default)]
struct LockShard {
    #[expect(
        clippy::disallowed_types,
        reason = "the condvar waits on the raw guard"
    )]
    held: parking_lot::Mutex<DetHashSet<(u64, usize)>>,
    released: Condvar,
}

/// An in-process exclusive lock table keyed by (stripe id, block index).
///
/// Models a lock service co-located with the writers (one VM host, one
/// gateway): mutual exclusion among the writers that share it. Fairness
/// is parking-lot's; locks are released on guard drop, so a panicking
/// writer cannot leak a lock. Keys hash onto independent shards, each
/// with its own mutex and condvar, so disjoint writers neither
/// serialise on one mutex nor wake on each other's releases.
///
/// A writer holds its (stripe, block) lock across Algorithm 1's rounds
/// by design, so these locks stay outside
/// [`tq_cluster::sync::Mutex`]: a `BlockLockGuard` is not counted by
/// the debug-build check that no short lock outlives a round.
#[derive(Debug)]
pub struct StripeLockManager {
    shards: Box<[LockShard]>,
    contended_wakeups: AtomicU64,
}

impl Default for StripeLockManager {
    fn default() -> Self {
        StripeLockManager {
            shards: (0..LOCK_SHARDS).map(|_| LockShard::default()).collect(),
            contended_wakeups: AtomicU64::new(0),
        }
    }
}

/// RAII guard for one (stripe, block) lock.
#[derive(Debug)]
pub struct BlockLockGuard<'a> {
    shard: &'a LockShard,
    key: (u64, usize),
}

/// SplitMix64 over the packed key, so neighbouring blocks of one
/// stripe land on unrelated shards.
fn mix_key(id: u64, block: usize) -> u64 {
    splitmix64(id ^ (block as u64).rotate_left(32))
}

impl StripeLockManager {
    /// Creates an empty lock table.
    pub fn new() -> Arc<Self> {
        Arc::new(StripeLockManager::default())
    }

    /// The shard a (stripe, block) key routes to — diagnostics and
    /// contention tests.
    pub(crate) fn shard_of(&self, id: u64, block: usize) -> usize {
        ((mix_key(id, block) as u128 * LOCK_SHARDS as u128) >> 64) as usize
    }

    /// Blocks until the (stripe, block) lock is acquired.
    pub fn lock(&self, id: u64, block: usize) -> BlockLockGuard<'_> {
        let key = (id, block);
        let shard = &self.shards[self.shard_of(id, block)];
        let mut held = shard.held.lock();
        while held.contains(&key) {
            shard.released.wait(&mut held);
            // Still held after a wakeup: we were woken for somebody
            // else's release (or lost the race) and must wait again.
            if held.contains(&key) {
                self.contended_wakeups.fetch_add(1, Ordering::Relaxed);
            }
        }
        held.insert(key);
        BlockLockGuard { shard, key }
    }

    /// Number of locks currently held (diagnostics).
    pub fn held_count(&self) -> usize {
        self.shards.iter().map(|s| s.held.lock().len()).sum()
    }
}

impl Drop for BlockLockGuard<'_> {
    fn drop(&mut self) {
        let mut held = self.shard.held.lock();
        held.remove(&self.key);
        // Wake this shard's waiters only; contenders re-check their key.
        self.shard.released.notify_all();
    }
}

impl<T: Transport> TrapErcClient<T> {
    /// Algorithm 1 under a per-block exclusive lock: safe against
    /// write-write races among writers sharing `locks`.
    ///
    /// # Errors
    /// Same as [`TrapErcClient::write_block`].
    pub fn write_block_locked(
        &self,
        locks: &StripeLockManager,
        id: u64,
        block: usize,
        new: &[u8],
    ) -> Result<WriteOutcome, ProtocolError> {
        let _guard = locks.lock(id, block);
        self.write_block(id, block, new)
    }
}

#[cfg(test)]
impl StripeLockManager {
    /// Non-blocking acquisition attempt.
    pub(crate) fn try_lock(&self, id: u64, block: usize) -> Option<BlockLockGuard<'_>> {
        let key = (id, block);
        let shard = &self.shards[self.shard_of(id, block)];
        let mut held = shard.held.lock();
        if held.contains(&key) {
            None
        } else {
            held.insert(key);
            Some(BlockLockGuard { shard, key })
        }
    }

    /// Wakeups that found their key still held — the thundering-herd
    /// figure of merit. Releases on other shards contribute nothing;
    /// within a shard, only genuine same-shard contention counts.
    pub(crate) fn contended_wakeups(&self) -> u64 {
        self.contended_wakeups.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use crate::trap_erc::ReadPath;
    use std::sync::Arc;
    use tq_cluster::{Cluster, LocalTransport};

    #[test]
    fn lock_basics() {
        let lm = StripeLockManager::new();
        let g1 = lm.lock(1, 0);
        assert_eq!(lm.held_count(), 1);
        assert!(lm.try_lock(1, 0).is_none(), "same key blocked");
        assert!(lm.try_lock(1, 1).is_some(), "different block fine");
        assert!(lm.try_lock(2, 0).is_some(), "different stripe fine");
        drop(g1);
        assert!(lm.try_lock(1, 0).is_some(), "released on drop");
    }

    #[test]
    fn lock_blocks_until_release() {
        let lm = StripeLockManager::new();
        let lm2 = Arc::clone(&lm);
        let guard = lm.lock(7, 3);
        let waiter = std::thread::spawn(move || {
            let _g = lm2.lock(7, 3);
            std::time::Instant::now()
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        let before_release = std::time::Instant::now();
        drop(guard);
        let acquired_at = waiter.join().unwrap();
        assert!(
            acquired_at >= before_release,
            "waiter ran only after release"
        );
    }

    #[test]
    fn single_shard_still_excludes() {
        // Two keys sharing one shard: the shard's set must still tell
        // them apart.
        let lm = StripeLockManager::new();
        let home = lm.shard_of(1, 0);
        let neighbour = (2u64..)
            .find(|&id| lm.shard_of(id, 0) == home)
            .expect("some key shares the shard");
        let g = lm.lock(1, 0);
        assert!(lm.try_lock(1, 0).is_none());
        assert!(
            lm.try_lock(neighbour, 0).is_some(),
            "different key, same shard"
        );
        drop(g);
        assert_eq!(lm.held_count(), 0);
    }

    /// The thundering-herd regression: a waiter parked on one key must
    /// not be woken by lock/unlock churn on keys of *other* shards. With
    /// the old single broadcast condvar every release woke every waiter
    /// (hundreds of contended wakeups here); per-shard condvars keep the
    /// count at zero.
    #[test]
    fn cross_shard_churn_does_not_wake_foreign_waiters() {
        let lm = StripeLockManager::new();
        // Find a churn key on a different shard than the contended key.
        let contended = (1u64, 0usize);
        let home = lm.shard_of(contended.0, contended.1);
        let churn = (0u64..)
            .map(|id| (id, 1usize))
            .find(|&(id, b)| lm.shard_of(id, b) != home)
            .expect("some key lands on another shard");

        let guard = lm.lock(contended.0, contended.1);
        let lm_waiter = Arc::clone(&lm);
        let waiter = std::thread::spawn(move || {
            let _g = lm_waiter.lock(contended.0, contended.1);
        });
        // Let the waiter park, then churn the foreign shard hard.
        std::thread::sleep(std::time::Duration::from_millis(30));
        for _ in 0..200 {
            drop(lm.lock(churn.0, churn.1));
        }
        assert_eq!(
            lm.contended_wakeups(),
            0,
            "foreign releases must not wake the parked waiter"
        );
        drop(guard);
        waiter.join().unwrap();
        assert_eq!(lm.held_count(), 0);
    }

    /// The race the paper leaves open, fixed by the lock: contending
    /// writers on one block serialise, every write commits, versions are
    /// strictly sequential, and N_i never diverges from parity (direct
    /// and decode reads agree without a scrub).
    #[test]
    fn locked_contending_writers_stay_consistent() {
        let config = ProtocolConfig::with_uniform_w(15, 8, 0, 4, 1, 2).unwrap();
        let cluster = Cluster::new(15);
        let client =
            Arc::new(TrapErcClient::new(config, LocalTransport::new(cluster.clone())).unwrap());
        client
            .create_stripe(1, (0..8).map(|i| vec![i as u8; 32]).collect())
            .unwrap();
        let lm = StripeLockManager::new();

        let writers: Vec<_> = (0..4)
            .map(|t| {
                let client = Arc::clone(&client);
                let lm = Arc::clone(&lm);
                std::thread::spawn(move || {
                    let mut versions = Vec::new();
                    for round in 0..8u8 {
                        let payload = vec![t as u8 * 40 + round; 32];
                        let w = client.write_block_locked(&lm, 1, 0, &payload).unwrap();
                        versions.push(w.version);
                    }
                    versions
                })
            })
            .collect();
        let mut all_versions: Vec<u64> = writers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all_versions.sort_unstable();
        // 32 commits, versions exactly 1..=32 with no duplicates.
        assert_eq!(all_versions, (1..=32).collect::<Vec<u64>>());
        assert_eq!(lm.held_count(), 0);

        // No divergence: direct and decode reads agree *without* a scrub.
        let direct = client.read_block(1, 0).unwrap();
        assert_eq!(direct.path, ReadPath::Direct);
        assert_eq!(direct.version, 32);
        cluster.kill(0);
        let decoded = client.read_block(1, 0).unwrap();
        assert!(decoded.decoded());
        assert_eq!(decoded.bytes, direct.bytes);
        assert_eq!(decoded.version, 32);
    }
}
