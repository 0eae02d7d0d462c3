//! The one short-lock type: a mutex whose guard no round may outlive.
//!
//! A client must never wait on the network while it holds a lock: every
//! other caller of that lock would wait out the round too, and a round
//! that waits on a reply from a thread that needs the lock never ends.
//! Every lock in the modules clippy's `disallowed_types` ban covers (see
//! this crate's `lib.rs`) is a [`Mutex`] from here, and in a debug build
//! its guard counts itself in a thread-local depth. The round entry
//! points — the dispatch driver under `SimTransport` and `TcpTransport`,
//! and `LocalTransport::dispatch` — `debug_assert!` that the depth is 0,
//! so the DST matrices and every debug `cargo test` catch a guard held
//! across a round. A release build keeps no count.
//!
//! Two raw locks span rounds by design and stay outside this type: the
//! simulator's fabric state, which one round's link holds for the whole
//! round, and `StripeLockManager`'s table, whose logical stripe locks a
//! writer holds across Algorithm 1 and whose condvar needs the raw
//! guard.

use std::cell::Cell;
use std::ops::{Deref, DerefMut};

thread_local! {
    static HELD: Cell<usize> = const { Cell::new(0) };
}

/// Panics, in a debug build, if the calling thread holds a [`Mutex`]
/// guard: the round entry points call it. A release build keeps no
/// count and checks nothing.
#[track_caller]
pub(crate) fn debug_assert_unheld() {
    debug_assert!(
        HELD.with(Cell::get) == 0,
        "a sync::Mutex guard is held across a round"
    );
}

/// A mutex for state touched between rounds, never across one.
#[derive(Debug, Default)]
pub struct Mutex<T>(parking_lot::Mutex<T>);

/// RAII guard for [`Mutex`]; unlocks on drop.
pub struct MutexGuard<'a, T>(parking_lot::MutexGuard<'a, T>);

impl<T> Mutex<T> {
    /// A mutex guarding `value`.
    pub const fn new(value: T) -> Self {
        Mutex(parking_lot::Mutex::new(value))
    }

    /// Acquires the lock, blocking until it is free.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let guard = MutexGuard(self.0.lock());
        #[cfg(debug_assertions)]
        HELD.with(|held| held.set(held.get() + 1));
        guard
    }
}

#[cfg(debug_assertions)]
impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        HELD.with(|held| held.set(held.get() - 1));
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

// The check exists only in debug builds, and so do its tests.
#[cfg(test)]
#[cfg(debug_assertions)]
mod tests {
    use super::*;
    use crate::rpc::{Envelope, Request};
    use crate::{Cluster, LocalTransport, NodeId, SimTransport, Transport};

    /// Holds a guard across one ping round on `transport`.
    fn ping_under_a_guard(transport: &dyn Transport) {
        let lock = Mutex::new(());
        let _guard = lock.lock();
        let calls = vec![(NodeId(0), Envelope::new(Request::Ping))];
        transport.multicall(calls, &mut |_| true);
    }

    #[test]
    #[should_panic(expected = "a sync::Mutex guard is held across a round")]
    fn a_guard_held_across_a_local_round_panics() {
        ping_under_a_guard(&LocalTransport::new(Cluster::new(1)));
    }

    #[test]
    #[should_panic(expected = "a sync::Mutex guard is held across a round")]
    fn a_guard_held_across_a_driven_round_panics() {
        ping_under_a_guard(&SimTransport::new(Cluster::new(1), 7));
    }
}
