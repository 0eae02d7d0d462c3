//! Fault injection — the paper's fail-stop failures, replayable.
//!
//! §IV assumes: (1) every node has the same availability `p`, (2) nodes
//! fail independently, (3) failures are fail-stop, (4) links are perfect.
//! The availability figures integrate over every up-set exactly
//! (`tq_quorum::exact`), so nothing here samples patterns by `p`.
//! [`FaultInjector`] kills a seeded random set of exactly `f` nodes (the
//! "exactly f failures" workloads), and [`FaultSchedule`] runs
//! deterministic kill/revive scripts for failure-injection tests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cluster::Cluster;

/// Seeded source of failure sets for a cluster.
#[derive(Debug)]
pub struct FaultInjector {
    rng: StdRng,
}

impl FaultInjector {
    /// Creates an injector with a fixed seed (same seed ⇒ same failure
    /// sets ⇒ bit-for-bit reproducible experiments).
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws a uniformly random set of exactly `failures` distinct nodes
    /// to kill (the "exactly f failures" experiments); the rest revive.
    pub fn kill_exactly(&mut self, cluster: &Cluster, failures: usize) -> Vec<usize> {
        let n = cluster.len();
        assert!(failures <= n, "cannot fail {failures} of {n} nodes");
        // Partial Fisher-Yates over the index vector.
        let mut indices: Vec<usize> = (0..n).collect();
        for i in 0..failures {
            let j = self.rng.random_range(i..n);
            indices.swap(i, j);
        }
        let killed: Vec<usize> = indices[..failures].to_vec();
        let mut up = vec![true; n];
        for &i in &killed {
            up[i] = false;
        }
        cluster.apply_availability(&up);
        killed
    }
}

/// One step of a deterministic fault script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Mark a node failed.
    Kill(usize),
    /// Bring a node back (with its stale pre-failure state).
    Revive(usize),
}

/// An ordered fault script, applied step by step between protocol
/// operations — deterministic failure-injection for integration tests.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
    cursor: usize,
}

impl FaultSchedule {
    /// Builds a schedule from events.
    pub fn new(events: Vec<FaultEvent>) -> Self {
        FaultSchedule { events, cursor: 0 }
    }

    /// Applies the next event, if any; returns it.
    pub fn step(&mut self, cluster: &Cluster) -> Option<FaultEvent> {
        let event = *self.events.get(self.cursor)?;
        self.cursor += 1;
        match event {
            FaultEvent::Kill(i) => cluster.kill(i),
            FaultEvent::Revive(i) => cluster.revive(i),
        }
        Some(event)
    }

    /// Applies every remaining event.
    pub fn run_to_end(&mut self, cluster: &Cluster) {
        while self.step(cluster).is_some() {}
    }

    /// Remaining event count.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_patterns() {
        let (ca, cb) = (Cluster::new(20), Cluster::new(20));
        let mut a = FaultInjector::new(42);
        let mut b = FaultInjector::new(42);
        for f in 0..10 {
            assert_eq!(a.kill_exactly(&ca, f), b.kill_exactly(&cb, f));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let c = Cluster::new(30);
        let mut a = FaultInjector::new(1);
        let mut b = FaultInjector::new(2);
        let pa: Vec<Vec<usize>> = (0..5).map(|_| a.kill_exactly(&c, 15)).collect();
        let pb: Vec<Vec<usize>> = (0..5).map(|_| b.kill_exactly(&c, 15)).collect();
        assert_ne!(pa, pb);
    }

    #[test]
    fn sample_applies_to_cluster() {
        let c = Cluster::new(10);
        let mut inj = FaultInjector::new(3);
        let killed = inj.kill_exactly(&c, 4);
        for i in 0..10 {
            assert_eq!(c.node(i).is_up(), !killed.contains(&i));
        }
    }

    #[test]
    fn kill_exactly_counts() {
        let c = Cluster::new(8);
        let mut inj = FaultInjector::new(11);
        for f in 0..=8 {
            let killed = inj.kill_exactly(&c, f);
            assert_eq!(killed.len(), f);
            assert_eq!(c.live_nodes().len(), 8 - f);
            // Killed indices are distinct.
            let mut sorted = killed.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), f);
        }
    }

    #[test]
    fn schedule_runs_in_order() {
        let c = Cluster::new(3);
        let mut sched = FaultSchedule::new(vec![
            FaultEvent::Kill(0),
            FaultEvent::Kill(2),
            FaultEvent::Revive(0),
        ]);
        assert_eq!(sched.remaining(), 3);
        assert_eq!(sched.step(&c), Some(FaultEvent::Kill(0)));
        assert_eq!(c.live_nodes(), vec![1, 2]);
        sched.run_to_end(&c);
        assert_eq!(c.live_nodes(), vec![0, 1]);
        assert_eq!(sched.step(&c), None);
        assert_eq!(sched.remaining(), 0);
    }
}
