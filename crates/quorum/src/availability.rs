//! Closed-form availability analysis — §IV of the paper.
//!
//! All formulas assume the paper's model: node availability `p` i.i.d.
//! across nodes, fail-stop failures, perfect links. The building block is
//!
//! ```text
//! Φ_z(i, j) = Σ_{t=i..j} C(z, t) · p^t · (1 − p)^(z−t)      (eq. 7)
//! ```
//!
//! the probability that between `i` and `j` of `z` nodes are live.
//!
//! | quantity | equation | function |
//! |---|---|---|
//! | write availability (FR *and* ERC) | 8, 9 | [`write_availability`] |
//! | read availability, TRAP-FR | 10 | [`read_availability_fr`] |
//! | read availability, TRAP-ERC | 11–13 | [`read_availability_erc`] |
//! | storage per block, TRAP-FR | 14 | [`storage_fr`] |
//! | storage per block, TRAP-ERC | 15 | [`storage_erc`] |
//!
//! The FR formulas are *exact* for the structural predicates in
//! [`crate::trapezoid`] (levels are disjoint, hence independent); the ERC
//! read formula is exact in its P1 term but approximates P2 by dropping
//! the version check when `N_i` is down — [`crate::exact`] quantifies
//! that gap (the committed `figures/fig3.md` and `figures/validate.md`).
//!
//! Closed forms for the related-work baselines (majority, ROWA, grid,
//! tree) are included for the comparison benches.

use crate::trapezoid::{TrapezoidShape, WriteThresholds};

/// Binomial coefficient `C(z, t)` as `f64` (exact for `z ≤ 255` well
/// within `f64` range).
pub fn binomial(z: usize, t: usize) -> f64 {
    if t > z {
        return 0.0;
    }
    let t = t.min(z - t);
    let mut acc = 1.0f64;
    for i in 0..t {
        acc = acc * (z - i) as f64 / (i + 1) as f64;
    }
    acc
}

/// Eq. 7: probability that between `lo` and `hi` (inclusive) of `z`
/// Bernoulli(`p`) nodes are live. Out-of-range bounds are clamped;
/// an empty range yields 0.
pub fn phi(z: usize, lo: usize, hi: usize, p: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&p), "p = {p} outside [0, 1]");
    let hi = hi.min(z);
    if lo > hi {
        return 0.0;
    }
    let q = 1.0 - p;
    let mut sum = 0.0;
    for t in lo..=hi {
        sum += binomial(z, t) * p.powi(t as i32) * q.powi((z - t) as i32);
    }
    // Clamp tiny negative / >1 excursions from floating-point noise.
    sum.clamp(0.0, 1.0)
}

/// Eqs. 8 and 9 — write availability of the trapezoid protocol, identical
/// under full replication and ERC (the paper's "first noticeable point"):
/// every level `l` must have at least `w_l` live nodes.
pub fn write_availability(shape: &TrapezoidShape, th: &WriteThresholds, p: f64) -> f64 {
    (0..shape.num_levels())
        .map(|l| {
            phi(
                shape.level_size(l),
                th.write_threshold(l),
                shape.level_size(l),
                p,
            )
        })
        .product()
}

/// Eq. 10 — read availability of TRAP-FR: some level `l` has at least
/// `r_l = s_l − w_l + 1` live nodes.
pub fn read_availability_fr(shape: &TrapezoidShape, th: &WriteThresholds, p: f64) -> f64 {
    1.0 - (0..shape.num_levels())
        .map(|l| {
            1.0 - phi(
                shape.level_size(l),
                th.read_threshold(shape, l),
                shape.level_size(l),
                p,
            )
        })
        .product::<f64>()
}

/// Eqs. 11–13 — read availability of TRAP-ERC for an `(n, k)` stripe
/// whose per-block trapezoid has the given shape/thresholds
/// (`shape.node_count()` must equal `n − k + 1`; debug-asserted).
///
/// `P1` (block served by `N_i` directly): `N_i` live and the version
/// check passes on some level, where level 0 already counts `N_i`
/// (`λ_0 = s_0 − 1`, `β_0 = max(0, r_0 − 2)`) and higher levels need the
/// full `r_l` (`λ_l = s_l`, `β_l = r_l − 1`).
///
/// `P2` (decode path): `N_i` down, at least `k` of the remaining `n − 1`
/// stripe nodes live.
pub fn read_availability_erc(
    shape: &TrapezoidShape,
    th: &WriteThresholds,
    n: usize,
    k: usize,
    p: f64,
) -> f64 {
    debug_assert_eq!(
        shape.node_count(),
        n - k + 1,
        "trapezoid must organise n-k+1 nodes (eq. 5)"
    );
    // Π_l Φ_{λ_l}(0, β_l): probability the version check fails on every
    // level, given N_i live.
    let all_levels_fail: f64 = (0..shape.num_levels())
        .map(|l| {
            let r = th.read_threshold(shape, l);
            let (lambda, beta) = if l == 0 {
                (shape.level_size(0) - 1, r.saturating_sub(2)) // eq. 11/12, level 0
            } else {
                (shape.level_size(l), r - 1)
            };
            phi(lambda, 0, beta, p)
        })
        .product();
    let p1 = p * (1.0 - all_levels_fail);
    let p2 = (1.0 - p) * phi(n - 1, k, n - 1, p);
    p1 + p2
}

/// Eq. 14 — disk space (in block units) to store one data block under
/// full replication on `n − k + 1` nodes.
pub fn storage_fr(n: usize, k: usize) -> f64 {
    debug_assert!(k >= 1 && k <= n);
    (n - k + 1) as f64
}

/// Eq. 15 — disk space (in block units) to store one data block under the
/// (n, k) ERC scheme: the block itself plus `n − k` coded fragments of
/// `1/k` block each.
pub fn storage_erc(n: usize, k: usize) -> f64 {
    debug_assert!(k >= 1 && k <= n);
    n as f64 / k as f64
}

// ---------------------------------------------------------------------
// Baseline closed forms (related-work protocols, §II).
// ---------------------------------------------------------------------

/// Majority quorum availability (read = write): at least `⌊n/2⌋ + 1` of
/// `n` live.
pub fn majority_availability(n: usize, p: f64) -> f64 {
    phi(n, n / 2 + 1, n, p)
}

/// ROWA write availability: all `n` live.
pub fn rowa_write_availability(n: usize, p: f64) -> f64 {
    p.powi(n as i32)
}

/// ROWA read availability: at least one of `n` live.
pub fn rowa_read_availability(n: usize, p: f64) -> f64 {
    1.0 - (1.0 - p).powi(n as i32)
}

/// Grid read availability: every column (height `rows`) has a live node.
pub fn grid_read_availability(rows: usize, cols: usize, p: f64) -> f64 {
    let q = 1.0 - p;
    (1.0 - q.powi(rows as i32)).powi(cols as i32)
}

/// Grid write availability: every column has a live node *and* at least
/// one column is fully live. Columns are independent, so
/// `P = Π(1 − q^R) − Π(1 − q^R − p^R)` (second term: covers with no full
/// column).
pub fn grid_write_availability(rows: usize, cols: usize, p: f64) -> f64 {
    let q = 1.0 - p;
    let cover = 1.0 - q.powi(rows as i32);
    let cover_not_full = cover - p.powi(rows as i32);
    (cover.powi(cols as i32) - cover_not_full.powi(cols as i32)).clamp(0.0, 1.0)
}

/// Tree quorum availability for a complete binary tree of `depth`:
/// `A(0) = p`, `A(d) = p·(1 − (1 − A)²) + (1 − p)·A²` with `A = A(d−1)`
/// (live root continues into either subtree; dead root needs both).
pub fn tree_availability(depth: usize, p: f64) -> f64 {
    let mut a = p;
    for _ in 0..depth {
        a = p * (1.0 - (1.0 - a) * (1.0 - a)) + (1.0 - p) * a * a;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_availability;
    use crate::grid::GridQuorum;
    use crate::majority::MajorityQuorum;
    use crate::rowa::Rowa;
    use crate::system::QuorumSystem;
    use crate::trapezoid::{TrapErcSystem, TrapezoidQuorum};
    use crate::tree::TreeQuorum;

    const PS: [f64; 7] = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0];
    const TOL: f64 = 1e-12;

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(0, 0), 1.0);
        assert_eq!(binomial(5, 0), 1.0);
        assert_eq!(binomial(5, 5), 1.0);
        assert_eq!(binomial(5, 2), 10.0);
        assert_eq!(binomial(5, 6), 0.0);
        assert_eq!(binomial(14, 7), 3432.0);
        // Symmetry.
        for z in 0..30 {
            for t in 0..=z {
                assert!((binomial(z, t) - binomial(z, z - t)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn phi_basic_identities() {
        for &p in &PS {
            // Full range sums to 1.
            for z in 0..20 {
                assert!((phi(z, 0, z, p) - 1.0).abs() < TOL, "z={z} p={p}");
            }
            // Empty range.
            assert_eq!(phi(5, 3, 2, p), 0.0);
            // Single point z=0.
            assert_eq!(phi(0, 0, 0, p), 1.0);
            assert_eq!(phi(0, 1, 5, p), 0.0);
        }
        // Φ_3(2,3) at p = 0.5 = (C(3,2) + C(3,3)) / 8 = 4/8.
        assert!((phi(3, 2, 3, 0.5) - 0.5).abs() < TOL);
        // Clamped hi.
        assert!((phi(3, 2, 99, 0.5) - 0.5).abs() < TOL);
    }

    #[test]
    fn phi_monotone_in_p_for_upper_tail() {
        let mut prev = -1.0;
        for i in 0..=100 {
            let p = i as f64 / 100.0;
            let v = phi(10, 6, 10, p);
            assert!(v >= prev - TOL, "upper-tail Φ must grow with p");
            prev = v;
        }
    }

    fn fig1() -> (TrapezoidShape, WriteThresholds) {
        let s = TrapezoidShape::new(2, 3, 2).unwrap();
        let w = WriteThresholds::paper_default(&s, 2).unwrap();
        (s, w)
    }

    #[test]
    fn write_availability_bounds_and_monotonicity() {
        let (s, w) = fig1();
        let mut prev = -1.0;
        for i in 0..=50 {
            let p = i as f64 / 50.0;
            let v = write_availability(&s, &w, p);
            assert!((0.0..=1.0).contains(&v));
            assert!(v >= prev - TOL);
            prev = v;
        }
        assert_eq!(write_availability(&s, &w, 0.0), 0.0);
        assert_eq!(write_availability(&s, &w, 1.0), 1.0);
    }

    /// Eq. 8 is exact: validate against exhaustive 2^N enumeration of the
    /// structural write predicate.
    #[test]
    fn eq8_matches_exact_enumeration() {
        for (a, b, h, wparam) in [
            (2usize, 3usize, 2usize, 2usize),
            (0, 4, 1, 2),
            (1, 2, 2, 1),
            (0, 3, 1, 3),
        ] {
            let s = TrapezoidShape::new(a, b, h).unwrap();
            let th = WriteThresholds::paper_default(&s, wparam).unwrap();
            let q = TrapezoidQuorum::new(s, th.clone());
            for &p in &[0.2, 0.5, 0.8] {
                let exact = exact_availability(q.node_count(), p, |up| q.is_write_available(up));
                let formula = write_availability(&s, &th, p);
                assert!(
                    (exact - formula).abs() < 1e-9,
                    "shape ({a},{b},{h}) w={wparam} p={p}: exact {exact} vs eq8 {formula}"
                );
            }
        }
    }

    /// Eq. 10 is exact: levels are disjoint node sets.
    #[test]
    fn eq10_matches_exact_enumeration() {
        for (a, b, h, wparam) in [(2usize, 3usize, 2usize, 2usize), (0, 4, 1, 2), (1, 2, 2, 1)] {
            let s = TrapezoidShape::new(a, b, h).unwrap();
            let th = WriteThresholds::paper_default(&s, wparam).unwrap();
            let q = TrapezoidQuorum::new(s, th.clone());
            for &p in &[0.2, 0.5, 0.8] {
                let exact = exact_availability(q.node_count(), p, |up| q.is_read_available(up));
                let formula = read_availability_fr(&s, &th, p);
                assert!(
                    (exact - formula).abs() < 1e-9,
                    "shape ({a},{b},{h}) w={wparam} p={p}: exact {exact} vs eq10 {formula}"
                );
            }
        }
    }

    /// Eq. 13: the P1 term is exact; P2 drops the version check, so the
    /// formula upper-bounds the structural predicate. Check both the
    /// bound and that the gap is small for the paper's parameter ranges.
    #[test]
    fn eq13_upper_bounds_structural_predicate() {
        // (15, 8) stripe is too wide to enumerate (2^15 fine actually).
        let s = TrapezoidShape::new(0, 4, 1).unwrap();
        let th = WriteThresholds::paper_default(&s, 2).unwrap();
        let sys = TrapErcSystem::new(s, th.clone(), 15, 8, 0).unwrap();
        for &p in &[0.3, 0.5, 0.7, 0.9] {
            let exact = exact_availability(15, p, |up| sys.is_read_available(up));
            let formula = read_availability_erc(&s, &th, 15, 8, p);
            assert!(
                formula >= exact - 1e-9,
                "p={p}: eq13 {formula} below exact {exact}"
            );
            assert!(
                (formula - exact).abs() < 0.06,
                "p={p}: gap {:.4} unexpectedly large",
                formula - exact
            );
        }
    }

    /// Reproduction finding: eq. 11 sets `β_0 = max(0, r_0 − 2)`, which is
    /// only correct for `r_0 ≥ 2`. When `r_0 = 1` (i.e. `b ≤ 2`, since
    /// `r_0 = ⌈b/2⌉`), a live `N_i` alone completes the level-0 version
    /// check, so the check *never* fails given `N_i` live — but the
    /// formula still charges `Φ_{λ_0}(0, 0) = (1−p)^{λ_0} > 0` against it.
    /// eq. 13 then grossly *underestimates* availability (e.g. 0.011 vs
    /// the true 0.109 at p = 0.1 for shape (0, 2, 1), n = 15, k = 12).
    #[test]
    fn eq13_underestimates_when_r0_is_one() {
        let s = TrapezoidShape::new(0, 2, 1).unwrap(); // b = 2 ⇒ r_0 = 1
        let th = WriteThresholds::paper_default(&s, 1).unwrap();
        assert_eq!(th.read_threshold(&s, 0), 1);
        let sys = TrapErcSystem::new(s, th.clone(), 15, 12, 0).unwrap();
        let p = 0.1;
        let formula = read_availability_erc(&s, &th, 15, 12, p);
        let exact = exact_availability(15, p, |up| sys.is_read_available(up));
        assert!(
            exact > 5.0 * formula,
            "expected gross underestimate: formula {formula}, exact {exact}"
        );
        // For r_0 >= 2 shapes the formula stays an upper bound instead.
        let s2 = TrapezoidShape::new(0, 4, 0).unwrap();
        let th2 = WriteThresholds::paper_default(&s2, 1).unwrap();
        let sys2 = TrapErcSystem::new(s2, th2.clone(), 15, 12, 0).unwrap();
        let f2 = read_availability_erc(&s2, &th2, 15, 12, p);
        let e2 = exact_availability(15, p, |up| sys2.is_read_available(up));
        assert!(f2 >= e2 - 1e-9, "r_0 >= 2: formula {f2} vs exact {e2}");
    }

    #[test]
    fn erc_read_below_fr_read() {
        // The paper's Fig. 3 claim: ERC read availability never exceeds
        // FR's, and the two coincide for p >= 0.8 (within ~2%).
        let s = TrapezoidShape::new(0, 4, 1).unwrap();
        let th = WriteThresholds::paper_default(&s, 2).unwrap();
        for i in 0..=20 {
            let p = i as f64 / 20.0;
            let fr = read_availability_fr(&s, &th, p);
            let erc = read_availability_erc(&s, &th, 15, 8, p);
            assert!(erc <= fr + 0.02, "p={p}: erc {erc} > fr {fr}");
        }
        for i in 16..=20 {
            let p = i as f64 / 20.0;
            let fr = read_availability_fr(&s, &th, p);
            let erc = read_availability_erc(&s, &th, 15, 8, p);
            assert!((fr - erc).abs() < 0.02, "p={p}: curves should merge");
        }
    }

    #[test]
    fn fig3_anchor_points() {
        // §IV-D: at p = 0.5 FR reads ≈ 0.75 and ERC reads ≈ 0.63
        // (the paper says "write" but the context is Fig. 3 / reads).
        let s = TrapezoidShape::new(0, 4, 1).unwrap();
        let th = WriteThresholds::paper_default(&s, 2).unwrap();
        let fr = read_availability_fr(&s, &th, 0.5);
        let erc = read_availability_erc(&s, &th, 15, 8, 0.5);
        assert!((fr - 0.75).abs() < 0.06, "FR at p=0.5: {fr}");
        assert!((erc - 0.63).abs() < 0.06, "ERC at p=0.5: {erc}");
    }

    #[test]
    fn storage_equations() {
        // Fig. 5 example: n = 15, k = 8 — FR uses 8 blocks, ERC n/k.
        assert_eq!(storage_fr(15, 8), 8.0);
        assert!((storage_erc(15, 8) - 1.875).abs() < TOL);
        // ERC never uses more space than FR (k ≥ 1):
        for k in 1..=15 {
            assert!(storage_erc(15, k) <= storage_fr(15, k) + TOL, "k={k}");
        }
        // k = 1: both store n block-equivalents.
        assert_eq!(storage_fr(15, 15), 1.0);
        assert!((storage_erc(15, 1) - storage_fr(15, 1)).abs() < TOL);
    }

    #[test]
    fn majority_closed_form_matches_exact() {
        for n in [3usize, 5, 8, 11] {
            let m = MajorityQuorum::new(n);
            for &p in &[0.3, 0.5, 0.8] {
                let exact = exact_availability(n, p, |up| m.is_write_available(up));
                assert!((exact - majority_availability(n, p)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn rowa_closed_form_matches_exact() {
        for n in [1usize, 4, 9] {
            let r = Rowa::new(n);
            for &p in &[0.25, 0.6, 0.95] {
                let ew = exact_availability(n, p, |up| r.is_write_available(up));
                let er = exact_availability(n, p, |up| r.is_read_available(up));
                assert!((ew - rowa_write_availability(n, p)).abs() < 1e-9);
                assert!((er - rowa_read_availability(n, p)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn grid_closed_form_matches_exact() {
        for (rows, cols) in [(2usize, 2usize), (2, 3), (3, 3), (4, 2)] {
            let g = GridQuorum::new(rows, cols);
            for &p in &[0.3, 0.5, 0.8] {
                let er = exact_availability(rows * cols, p, |up| g.is_read_available(up));
                let ew = exact_availability(rows * cols, p, |up| g.is_write_available(up));
                assert!(
                    (er - grid_read_availability(rows, cols, p)).abs() < 1e-9,
                    "{rows}x{cols} read p={p}"
                );
                assert!(
                    (ew - grid_write_availability(rows, cols, p)).abs() < 1e-9,
                    "{rows}x{cols} write p={p}"
                );
            }
        }
    }

    #[test]
    fn tree_closed_form_matches_exact() {
        for depth in [0usize, 1, 2, 3] {
            let t = TreeQuorum::new(depth);
            for &p in &[0.3, 0.5, 0.8] {
                let exact = exact_availability(t.node_count(), p, |up| t.is_write_available(up));
                assert!(
                    (exact - tree_availability(depth, p)).abs() < 1e-9,
                    "depth {depth} p {p}"
                );
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn all_availabilities_in_unit_interval(
                a in 0usize..3,
                b in 1usize..4,
                h in 0usize..3,
                w in 1usize..4,
                p in 0.0f64..=1.0,
            ) {
                let Ok(s) = TrapezoidShape::new(a, b, h) else { return Ok(()); };
                let Ok(th) = WriteThresholds::paper_default(&s, w) else { return Ok(()); };
                let nb = s.node_count();
                let k = 3usize;
                let n = nb - 1 + k;
                for v in [
                    write_availability(&s, &th, p),
                    read_availability_fr(&s, &th, p),
                    read_availability_erc(&s, &th, n, k, p),
                ] {
                    prop_assert!((0.0..=1.0 + 1e-9).contains(&v), "{v}");
                }
            }

            #[test]
            fn read_erc_monotone_in_p(
                w in 1usize..4,
                steps in 2usize..20,
            ) {
                let s = TrapezoidShape::new(0, 4, 1).unwrap();
                let Ok(th) = WriteThresholds::paper_default(&s, w) else { return Ok(()); };
                let mut prev = -1.0;
                for i in 0..=steps {
                    let p = i as f64 / steps as f64;
                    let v = read_availability_erc(&s, &th, 15, 8, p);
                    prop_assert!(v >= prev - 1e-9, "p={p}: {v} < {prev}");
                    prev = v;
                }
            }

            #[test]
            fn more_parity_improves_erc_reads(p in 0.05f64..0.95) {
                // Fig. 4's claim: larger n−k ⇒ better read availability.
                // Family: h = 1, b = (n−k+1)/2 even splits, k fixed at 8.
                let mut prev = -1.0;
                for half in [2usize, 3, 4] {
                    let s = TrapezoidShape::new(0, half, 1).unwrap();
                    let th = WriteThresholds::paper_default(&s, (half / 2).max(1)).unwrap();
                    let nbnode = 2 * half;
                    let k = 8;
                    let n = nbnode - 1 + k;
                    let v = read_availability_erc(&s, &th, n, k, p);
                    prop_assert!(
                        v >= prev - 0.02,
                        "n-k = {}: {v} dropped well below previous {prev}",
                        nbnode - 1
                    );
                    prev = v;
                }
            }
        }
    }
}
