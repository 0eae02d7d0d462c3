//! Exact availability by exhaustive state enumeration.
//!
//! An operation's success set does not depend on `p`: for `N ≤
//! MAX_EXACT_NODES` nodes, [`exact_counts`] walks the `2^N` up-sets once
//! and counts the successful ones by size. That count vector `A` is the
//! predicate's reliability polynomial, and [`availability_from_counts`]
//! evaluates it at any `p`,
//!
//! ```text
//! A(p) = Σ_j A_j · p^j · (1 − p)^(N − j)
//! ```
//!
//! so one enumeration serves a whole p-sweep. It is the exact reference
//! for the paper's closed forms and, through the availability oracle
//! that proves the shipped client succeeds exactly where the structural
//! predicates say, for the executed protocol.

use crate::nodeset::NodeSet;
use crate::system::QuorumSystem;

/// Largest node count accepted by [`exact_counts`] (2^24 ≈ 16M
/// predicate evaluations — fractions of a second for bitmask predicates).
pub const MAX_EXACT_NODES: usize = 24;

/// The up-set counts of `predicate` over `n` nodes: entry `j` is the
/// number of up-sets with exactly `j` live nodes on which it holds
/// (`n + 1` entries).
///
/// # Panics
/// Panics if `n > MAX_EXACT_NODES`.
pub fn exact_counts(n: usize, predicate: impl Fn(NodeSet) -> bool) -> Vec<u64> {
    assert!(
        n <= MAX_EXACT_NODES,
        "exact enumeration limited to {MAX_EXACT_NODES} nodes, got {n}"
    );
    let mut counts = vec![0u64; n + 1];
    for bits in 0u64..(1u64 << n) {
        let up = NodeSet::from_bits(u128::from(bits));
        if predicate(up) {
            counts[up.len()] += 1;
        }
    }
    counts
}

/// Evaluates an up-set count vector (as [`exact_counts`] returns it) at
/// node availability `p`: the probability that the counted predicate
/// holds when each of `counts.len() − 1` nodes is independently live
/// with probability `p`.
///
/// # Panics
/// Panics if `counts` is empty or `p` is outside `[0, 1]`.
pub fn availability_from_counts(counts: &[u64], p: f64) -> f64 {
    assert!(!counts.is_empty(), "a count vector has n + 1 entries");
    assert!((0.0..=1.0).contains(&p), "p = {p} outside [0, 1]");
    let n = counts.len() - 1;
    let q = 1.0 - p;
    let total: f64 = counts
        .iter()
        .enumerate()
        .map(|(j, &a)| a as f64 * p.powi(j as i32) * q.powi((n - j) as i32))
        .sum();
    total.clamp(0.0, 1.0)
}

/// Exact probability that `predicate(up)` holds when each of `n` nodes is
/// independently live with probability `p`.
///
/// # Panics
/// Panics if `n > MAX_EXACT_NODES` or `p` is outside `[0, 1]`.
pub fn exact_availability(n: usize, p: f64, predicate: impl Fn(NodeSet) -> bool) -> f64 {
    availability_from_counts(&exact_counts(n, predicate), p)
}

/// Exact write availability of a [`QuorumSystem`].
///
/// # Panics
/// See [`exact_availability`].
pub fn exact_write_availability(system: &impl QuorumSystem, p: f64) -> f64 {
    exact_availability(system.node_count(), p, |up| system.is_write_available(up))
}

/// Exact read availability of a [`QuorumSystem`].
///
/// # Panics
/// See [`exact_availability`].
pub fn exact_read_availability(system: &impl QuorumSystem, p: f64) -> f64 {
    exact_availability(system.node_count(), p, |up| system.is_read_available(up))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_predicates() {
        for &p in &[0.0, 0.25, 0.5, 1.0] {
            assert_eq!(exact_availability(8, p, |_| true), 1.0);
            assert_eq!(exact_availability(8, p, |_| false), 0.0);
        }
    }

    #[test]
    fn single_node_predicate() {
        // P(node 0 live) = p.
        for &p in &[0.0, 0.3, 0.7, 1.0] {
            let v = exact_availability(5, p, |up| up.contains(0));
            assert!((v - p).abs() < 1e-12);
        }
    }

    #[test]
    fn conjunction_of_independent_nodes() {
        // P(nodes 0 and 1 both live) = p².
        let p = 0.6;
        let v = exact_availability(6, p, |up| up.contains(0) && up.contains(1));
        assert!((v - p * p).abs() < 1e-12);
    }

    #[test]
    fn popcount_threshold_matches_phi() {
        use crate::availability::phi;
        for n in [4usize, 7, 10] {
            for t in 0..=n {
                for &p in &[0.2, 0.5, 0.9] {
                    let v = exact_availability(n, p, |up| up.len() >= t);
                    assert!((v - phi(n, t, n, p)).abs() < 1e-10, "n={n} t={t} p={p}");
                }
            }
        }
    }

    #[test]
    fn counts_are_binomial_coefficients_cut_at_the_threshold() {
        use crate::availability::binomial;
        let counts = exact_counts(6, |up| up.len() >= 4);
        let expected: Vec<u64> = (0..=6)
            .map(|j| if j >= 4 { binomial(6, j) as u64 } else { 0 })
            .collect();
        assert_eq!(counts, expected);
        assert_eq!(exact_counts(5, |_| true).iter().sum::<u64>(), 32);
        assert_eq!(exact_counts(0, |_| true), vec![1]);
    }

    #[test]
    fn one_count_vector_serves_every_p() {
        let predicate = |up: NodeSet| up.contains(0) && up.len() >= 3;
        let counts = exact_counts(7, predicate);
        for p in [0.0f64, 0.2, 0.5, 0.8, 1.0] {
            // Direct summation over the 2^7 states, weight by weight.
            let direct: f64 = (0u128..1 << 7)
                .map(NodeSet::from_bits)
                .filter(|&up| predicate(up))
                .map(|up| p.powi(up.len() as i32) * (1.0 - p).powi(7 - up.len() as i32))
                .sum();
            assert!((availability_from_counts(&counts, p) - direct).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_nodes_degenerate() {
        assert_eq!(exact_availability(0, 0.5, |up| up.is_empty()), 1.0);
        assert_eq!(exact_availability(0, 0.5, |up| !up.is_empty()), 0.0);
    }

    #[test]
    #[should_panic(expected = "limited to")]
    fn too_many_nodes_panics() {
        let _ = exact_availability(25, 0.5, |_| true);
    }

    #[test]
    fn system_helpers() {
        use crate::majority::MajorityQuorum;
        let m = MajorityQuorum::new(5);
        let w = exact_write_availability(&m, 0.5);
        let r = exact_read_availability(&m, 0.5);
        assert!((w - r).abs() < 1e-15, "majority read == write");
        // Φ_5(3,5) at 0.5 = (10 + 5 + 1)/32 = 0.5.
        assert!((w - 0.5).abs() < 1e-12);
    }
}
