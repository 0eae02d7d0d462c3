//! The paper's figures as executable experiment definitions.
//!
//! Parameter reconstruction (the paper gives n = 15 and prose anchors but
//! not the full configurations; each figure's notes in `figures/<id>.md`
//! hold the reconstruction against those anchors):
//!
//! * **Fig. 1** — layout illustration, `a = 2, b = 3, h = 2` (stated).
//! * **Fig. 2** — write availability for n = 15: we sweep the eq. 16
//!   parameter `w ∈ 1..=4` on the (15, 8) trapezoid `(a=0, b=4, h=1)`,
//!   plus the alternative shapes for k = 10, 12.
//! * **Fig. 3** — read availability FR vs ERC. The configuration
//!   `(n, k) = (15, 8)`, shape `(0, 4, 1)`, `w = 2` reproduces the prose
//!   anchors: FR ≈ 0.75 and ERC ≈ 0.63 at p = 0.5, curves merging for
//!   p ≥ 0.8 (our closed forms give 0.785 / 0.655).
//! * **Fig. 4** — ERC read availability improves with n − k: k ∈
//!   {12, 10, 8} at n = 15.
//! * **Fig. 5** — storage per block vs k (eqs. 14/15), cross-checked by
//!   *measuring* bytes on a provisioned cluster.
//!
//! Every availability column that is not a closed form is exact: one
//! 2ⁿ enumeration counts a predicate's successful up-sets by size
//! ([`exact_counts`]), and the count vector is evaluated at each p. A
//! "protocol" column is the predicate `tests/availability_oracle.rs`
//! proves the shipped client realises on every up-set: a read succeeds
//! ⇔ the read predicate, a hinted write ⇔ the write predicate, a
//! faithful write (Algorithm 1 with its embedded READBLOCK) ⇔ both.

use tq_cluster::{Cluster, LocalTransport};
use tq_quorum::analysis::Series;
use tq_quorum::availability;
use tq_quorum::exact::{availability_from_counts, exact_counts};
use tq_quorum::system::QuorumSystem;
use tq_quorum::trapezoid::{TrapezoidQuorum, TrapezoidShape, WriteThresholds};
use tq_quorum::NodeSet;
use tq_trapezoid::{ProtocolConfig, QuorumStore, Store};

/// One regenerated figure: labelled series plus commentary.
#[derive(Debug, Clone)]
pub struct FigureData {
    /// Stable identifier (`fig2`, …) used for file names.
    pub id: &'static str,
    /// Human title echoing the paper's caption.
    pub title: String,
    /// X-axis label.
    pub x_label: &'static str,
    /// The curves.
    pub series: Vec<Series>,
    /// Shape checks and observations, rendered under the figure's table.
    pub notes: Vec<String>,
}

/// The stripe width used throughout the paper's evaluation.
pub(crate) const PAPER_N: usize = 15;

/// The exact availability curve of a predicate over `n` nodes: one
/// enumeration of its up-set counts, evaluated at every p of the sweep.
fn exact_series(
    label: impl Into<String>,
    steps: usize,
    n: usize,
    predicate: impl Fn(NodeSet) -> bool,
) -> Series {
    let counts = exact_counts(n, predicate);
    Series::sweep_p(label, steps, |p| availability_from_counts(&counts, p))
}

/// The canonical Fig. 3 configuration reconstructed from the prose
/// anchors: (15, 8) stripe, trapezoid `a=0, b=4, h=1`, `w = 2`.
pub(crate) fn fig3_config() -> ProtocolConfig {
    ProtocolConfig::with_uniform_w(PAPER_N, 8, 0, 4, 1, 2).expect("static parameters are valid")
}

/// The (shape, thresholds, k) families used in Figs. 2 and 4: for each
/// `k` a trapezoid with `n − k + 1` nodes.
pub(crate) fn shape_for_k(k: usize) -> (TrapezoidShape, WriteThresholds) {
    let nbnode = PAPER_N - k + 1;
    // b ≥ 3 keeps r_0 = ⌈b/2⌉ ≥ 2, steering clear of eq. 11's broken
    // r_0 = 1 edge case (see `eq13_underestimates_when_r0_is_one`).
    let (a, b, h, w) = match nbnode {
        4 => (0, 4, 0, 1),
        6 => (0, 3, 1, 2),
        8 => (0, 4, 1, 2),
        _ => {
            // Fallback: flattest two-level split available for the count.
            let shapes = TrapezoidShape::with_node_count(nbnode);
            let s = *shapes
                .iter()
                .find(|s| s.h() == 1)
                .or_else(|| shapes.first())
                .expect("every count has a shape");
            let th = WriteThresholds::paper_default(&s, 1).expect("w = 1 is always legal");
            return (s, th);
        }
    };
    let shape = TrapezoidShape::new(a, b, h).expect("static shape");
    let th = WriteThresholds::paper_default(&shape, w).expect("static thresholds");
    (shape, th)
}

/// Figure 1: the trapezoid layout, rendered as ASCII. For the ERC variant
/// the stripe indices of block `b_i`'s trapezoid members are shown.
pub fn fig1_layout() -> FigureData {
    let shape = TrapezoidShape::new(2, 3, 2).expect("Fig. 1 shape");
    let mut notes = Vec::new();
    notes.push(format!(
        "Fig. 1 geometry: {shape}; Nbnode = {} (paper: 15).",
        shape.node_count()
    ));
    let mut art = String::new();
    art.push_str("level | nodes (level-major positions)\n");
    let width = shape.level_size(shape.h()) * 6;
    for l in 0..shape.num_levels() {
        let row: String = shape.level_range(l).map(|p| format!("[{p:>2}] ")).collect();
        let pad = (width.saturating_sub(row.len())) / 2;
        art.push_str(&format!("  {l}   |{}{}\n", " ".repeat(pad), row.trim_end()));
    }
    notes.push(art);
    notes.push(
        "TRAP-ERC placement for block b_0 of a (15, 8) stripe on shape (0, 4, 1):".to_string(),
    );
    let sys = fig3_config().system_for_block(0);
    for l in 0..sys.shape().num_levels() {
        notes.push(format!(
            "  level {l}: stripe nodes {:?}",
            sys.level_members(l)
        ));
    }
    FigureData {
        id: "fig1",
        title: "Trapezoid protocol layout (Nbnode = 15, s_l = 2l + 3)".to_string(),
        x_label: "level",
        series: vec![Series::over_ints("s_l = 2l + 3", 0..=2, |l| {
            shape.level_size(l) as f64
        })],
        notes,
    }
}

/// Figure 2: write availability of TRAP-ERC vs p, for the eq. 16
/// parameter `w ∈ 1..=4` on the (15, 8) trapezoid and the alternative
/// k = 10, 12 shapes, with the exact availability of the client's
/// *hinted* write (the eq. 9 predicate) on the canonical w = 2 curve.
pub fn fig2_write_availability(steps: usize) -> FigureData {
    let mut series = Vec::new();
    let mut notes = Vec::new();
    let (shape8, _) = shape_for_k(8);
    for w in 1..=4usize {
        let th = WriteThresholds::paper_default(&shape8, w).expect("w within s_1 = 4");
        series.push(Series::sweep_p(format!("eq9 k=8 w={w}"), steps, |p| {
            availability::write_availability(&shape8, &th, p)
        }));
    }
    for k in [10usize, 12] {
        let (shape, th) = shape_for_k(k);
        series.push(Series::sweep_p(
            format!("eq9 k={k} w={:?}", th.as_slice()),
            steps,
            |p| availability::write_availability(&shape, &th, p),
        ));
    }
    // The client's hinted write on the canonical w = 2 curve.
    let sys = fig3_config().system_for_block(0);
    series.push(exact_series(
        "protocol (hinted) k=8 w=2",
        steps,
        PAPER_N,
        |up| sys.is_write_available(up),
    ));
    // Shape claims from §IV-D.
    let (s8, th8) = shape_for_k(8);
    let at_09: Vec<f64> = (1..=4)
        .map(|w| {
            let th = WriteThresholds::paper_default(&s8, w).unwrap();
            availability::write_availability(&s8, &th, 0.9)
        })
        .collect();
    notes.push(format!(
        "At p = 0.9 the w-family spans {:.3}..{:.3}; the spread collapses as p → 1 \
         (paper: availability 'not significantly impacted' for usual p).",
        at_09.iter().cloned().fold(f64::INFINITY, f64::min),
        at_09.iter().cloned().fold(0.0, f64::max),
    ));
    notes.push(format!(
        "eq. 8 ≡ eq. 9 identity: FR and ERC share one write formula (checked in code: \
         both call availability::write_availability; k=8 w=2 at p=0.5 gives {:.4}).",
        availability::write_availability(&s8, &th8, 0.5)
    ));
    notes.push(
        "The protocol column is the write predicate counted over all 2^15 up-sets: the \
         client's hinted write succeeds on exactly those (availability oracle, row \
         trap_erc_15_8_matches_its_predicates_on_every_up_set)."
            .to_string(),
    );
    FigureData {
        id: "fig2",
        title: "Write availability of TRAP-ERC as a function of node availability p (n = 15)"
            .to_string(),
        x_label: "p",
        series,
        notes,
    }
}

/// Figure 3: read availability of TRAP-ERC vs TRAP-FR: the paper's
/// closed forms, and the exact availability of each client's read.
pub fn fig3_read_availability(steps: usize) -> FigureData {
    let config = fig3_config();
    let (shape, th) = (*config.shape(), config.thresholds().clone());
    let (n, k) = (config.params().n(), config.params().k());

    let fr = Series::sweep_p("TRAP-FR eq10", steps, |p| {
        availability::read_availability_fr(&shape, &th, p)
    });
    let erc = Series::sweep_p("TRAP-ERC eq13", steps, |p| {
        availability::read_availability_erc(&shape, &th, n, k, p)
    });
    let sys = config.system_for_block(0);
    let erc_exact = exact_series("TRAP-ERC exact structural", steps, n, |up| {
        sys.is_read_available(up)
    });
    let fr_sys = TrapezoidQuorum::new(shape, th.clone());
    let fr_protocol = exact_series("TRAP-FR protocol", steps, shape.node_count(), |up| {
        fr_sys.is_read_available(up)
    });

    let fr_05 = fr.at(0.5);
    let erc_05 = erc.at(0.5);
    let merge = fr.merge_point(&erc, 0.02);
    let (gap_x, gap) = fr.max_gap(&erc);
    let mut notes = vec![
        format!(
            "Anchor points at p = 0.5: FR = {fr_05:.3} (paper ≈ 0.75), ERC = {erc_05:.3} \
             (paper ≈ 0.63)."
        ),
        format!(
            "Curves merge (|Δ| ≤ 0.02) from p = {} (paper: 'no difference when p ≥ 0.8').",
            merge.map_or("never".to_string(), |p| format!("{p:.2}"))
        ),
        format!("Maximum FR−ERC gap: {gap:.3} at p = {gap_x:.2}."),
        format!(
            "eq. 13 vs exact structural predicate at p = 0.5: {:.4} vs {:.4} — the P2 term \
             drops the version check, so the closed form slightly overestimates.",
            erc.at(0.5),
            erc_exact.at(0.5)
        ),
        "The TRAP-ERC client's read is the exact structural column: it succeeds on exactly \
         the up-sets where the read predicate holds (availability oracle, row \
         trap_erc_15_8_matches_its_predicates_on_every_up_set)."
            .to_string(),
        "The TRAP-FR protocol column is the read predicate of the 8-node trapezoid counted \
         over all 2^8 up-sets, where the TRAP-FR client's read succeeds (availability \
         oracle, row trap_fr_0_4_1_matches_its_predicates_on_every_up_set); \
         eq. 10 is exact for it."
            .to_string(),
    ];
    if gap < 0.0 {
        notes.push("WARNING: ERC exceeded FR somewhere — check parameters.".to_string());
    }
    FigureData {
        id: "fig3",
        title: "Read availability of TRAP-ERC and TRAP-FR as a function of p (n = 15, k = 8)"
            .to_string(),
        x_label: "p",
        series: vec![fr, erc, erc_exact, fr_protocol],
        notes,
    }
}

/// Figure 4: TRAP-ERC read availability for n − k ∈ {3, 5, 7} at n = 15,
/// by eq. 13 and exactly for the client's read.
pub fn fig4_read_redundancy(steps: usize) -> FigureData {
    let mut series = Vec::new();
    let mut notes = Vec::new();
    let mut at_half = Vec::new();
    for k in [12usize, 10, 8] {
        let (shape, th) = shape_for_k(k);
        let s = Series::sweep_p(format!("eq13 k={k} (n-k={})", PAPER_N - k), steps, |p| {
            availability::read_availability_erc(&shape, &th, PAPER_N, k, p)
        });
        at_half.push((k, s.at(0.5)));
        series.push(s);
        let config = ProtocolConfig::new(
            tq_erasure::CodeParams::new(PAPER_N, k).expect("valid"),
            shape,
            th,
        )
        .expect("valid");
        let sys = config.system_for_block(0);
        series.push(exact_series(
            format!("protocol k={k}"),
            steps,
            PAPER_N,
            |up| sys.is_read_available(up),
        ));
    }
    for w in at_half.windows(2) {
        let ((k1, v1), (k2, v2)) = (w[0], w[1]);
        notes.push(format!(
            "p = 0.5: k={k1} gives {v1:.3}, k={k2} gives {v2:.3} — more parity (larger n−k) \
             improves reads, as the paper claims."
        ));
        assert!(
            v2 >= v1 - 0.02,
            "Fig. 4 monotonicity violated: k={k2} ({v2}) < k={k1} ({v1})"
        );
    }
    notes.push(
        "Each protocol column is block 0's read predicate counted over all 2^15 up-sets, \
         where the client's read succeeds (availability oracle, rows \
         trap_erc_15_12_and_15_10_reads_match_the_read_predicate_on_every_up_set \
         for k = 12, 10 and trap_erc_15_8_matches_its_predicates_on_every_up_set \
         for k = 8)."
            .to_string(),
    );
    FigureData {
        id: "fig4",
        title: "Read availability of TRAP-ERC vs p for several redundancy levels (n = 15)"
            .to_string(),
        x_label: "p",
        series,
        notes,
    }
}

/// Figure 5: storage used per data block (in block units) vs k, for both
/// schemes — eqs. 14/15 plus bytes *measured* on a provisioned cluster.
pub fn fig5_storage(block_len: usize) -> FigureData {
    let ks: Vec<usize> = (1..=PAPER_N).collect();
    let fr = Series::over_ints("TRAP-FR eq14 (n-k+1)", ks.iter().copied(), |k| {
        availability::storage_fr(PAPER_N, k)
    });
    let erc = Series::over_ints("TRAP-ERC eq15 (n/k)", ks.iter().copied(), |k| {
        availability::storage_erc(PAPER_N, k)
    });
    // Measured: provision a real stripe through the unified store facade
    // and count stored bytes.
    let measured = Series::over_ints("TRAP-ERC measured", ks.iter().copied(), |k| {
        let cluster = Cluster::new(PAPER_N);
        let config = match nearest_config(PAPER_N, k) {
            Some(c) => c,
            // k = n has no trapezoid (Nbnode = 1 needs b = 1, h = 0 — fine)
            None => return f64::NAN,
        };
        let store = Store::from_config(config)
            .transport(LocalTransport::new(cluster.clone()))
            .build()
            .expect("transport sized");
        let data: Vec<Vec<u8>> = (0..k).map(|i| vec![i as u8; block_len]).collect();
        store.create(1, data).expect("all up");
        // The descriptor's prediction must match what the nodes hold.
        let stored = cluster.stored_bytes() as f64 / (k * block_len) as f64;
        assert!(
            (store.info().storage_overhead - stored).abs() < 1e-9,
            "StoreInfo disagrees with measured bytes at k={k}"
        );
        stored
    });
    let fr_measured = Series::over_ints("TRAP-FR measured", ks.iter().copied(), |k| {
        let nbnode = PAPER_N - k + 1;
        let shapes = TrapezoidShape::with_node_count(nbnode);
        let shape = *shapes.first().expect("some shape");
        let cluster = Cluster::new(nbnode);
        let store = Store::trap_fr(nbnode, 1)
            .shape(shape.a(), shape.b(), shape.h())
            .uniform_w(1)
            .transport(LocalTransport::new(cluster.clone()))
            .build()
            .expect("transport sized");
        store.create(1, vec![vec![0u8; block_len]]).expect("all up");
        cluster.stored_bytes() as f64 / block_len as f64
    });
    let mut notes = vec![
        format!(
            "n = 15, k = 8: FR stores {:.3} blocks per data block, ERC {:.3} — a {:.0}% saving \
             (the paper's prose says '8 blocks' vs '4 blocks'; eq. 15 actually gives n/k = 1.875. \
             We reproduce the equations and flag the prose discrepancy).",
            availability::storage_fr(PAPER_N, 8),
            availability::storage_erc(PAPER_N, 8),
            (1.0 - availability::storage_erc(PAPER_N, 8) / availability::storage_fr(PAPER_N, 8))
                * 100.0
        ),
        "Measured bytes on the provisioned cluster match eq. 14/15 exactly: data blocks \
         are stored verbatim and each parity block is one full block shared by k data \
         blocks."
            .to_string(),
    ];
    // Consistency assertion between measurement and closed form.
    for (i, &k) in ks.iter().enumerate() {
        let m = measured.points[i].1;
        if !m.is_nan() {
            let e = erc.points[i].1;
            assert!((m - e).abs() < 1e-9, "k={k}: measured {m} vs eq15 {e}");
        } else {
            notes.push(format!(
                "k={k}: no trapezoid with {} node(s) skipped.",
                PAPER_N - k + 1
            ));
        }
    }
    FigureData {
        id: "fig5",
        title: "Storage space used per data block divided by blocksize, as a function of k \
                (n = 15)"
            .to_string(),
        x_label: "k",
        series: vec![fr, erc, measured, fr_measured],
        notes,
    }
}

/// Builds *some* valid TRAP-ERC config for (n, k) by picking the first
/// enumerable trapezoid with `n − k + 1` nodes (w = 1).
fn nearest_config(n: usize, k: usize) -> Option<ProtocolConfig> {
    let shapes = TrapezoidShape::with_node_count(n - k + 1);
    let shape = *shapes.first()?;
    let th = WriteThresholds::paper_default(&shape, 1).ok()?;
    ProtocolConfig::new(tq_erasure::CodeParams::new(n, k).ok()?, shape, th).ok()
}

/// Extension figure: the trapezoid against the §II related-work quorum
/// systems (ROWA, Majority, Grid, Tree) on an equal-node-count basis
/// (8 nodes = the (15, 8) trapezoid). Closed forms, each validated
/// against exact enumeration at construction time.
pub fn baselines_comparison(steps: usize) -> FigureData {
    use tq_quorum::grid::GridQuorum;
    use tq_quorum::majority::MajorityQuorum;
    use tq_quorum::rowa::Rowa;
    use tq_quorum::tree::TreeQuorum;

    let (shape, th) = shape_for_k(8);
    let n = shape.node_count(); // 8
    let series = vec![
        Series::sweep_p("trapezoid write (eq9)", steps, |p| {
            availability::write_availability(&shape, &th, p)
        }),
        Series::sweep_p("trapezoid read (eq10)", steps, |p| {
            availability::read_availability_fr(&shape, &th, p)
        }),
        Series::sweep_p("majority r/w", steps, |p| {
            availability::majority_availability(n, p)
        }),
        Series::sweep_p("ROWA write", steps, |p| {
            availability::rowa_write_availability(n, p)
        }),
        Series::sweep_p("ROWA read", steps, |p| {
            availability::rowa_read_availability(n, p)
        }),
        Series::sweep_p("grid 2x4 write", steps, |p| {
            availability::grid_write_availability(2, 4, p)
        }),
        Series::sweep_p("grid 2x4 read", steps, |p| {
            availability::grid_read_availability(2, 4, p)
        }),
        Series::sweep_p("tree d=2 (7 nodes) r/w", steps, |p| {
            availability::tree_availability(2, p)
        }),
    ];
    // Spot-verify the closed forms against exact enumeration right here,
    // so a regenerated figure is self-checking.
    let agrees = |system: &dyn QuorumSystem, closed_form: &dyn Fn(f64) -> f64| {
        let counts = exact_counts(system.node_count(), |up| system.is_write_available(up));
        for p in [0.3, 0.6, 0.9] {
            assert!((availability_from_counts(&counts, p) - closed_form(p)).abs() < 1e-9);
        }
    };
    agrees(&MajorityQuorum::new(n), &|p| {
        availability::majority_availability(n, p)
    });
    agrees(&Rowa::new(n), &|p| {
        availability::rowa_write_availability(n, p)
    });
    agrees(&GridQuorum::new(2, 4), &|p| {
        availability::grid_write_availability(2, 4, p)
    });
    agrees(&TreeQuorum::new(2), &|p| {
        availability::tree_availability(2, p)
    });
    let notes = vec![
        "Equal-node-count framing: 8 replicas (the (15, 8) trapezoid's Nbnode); the tree \
         uses 7 (complete binary tree)."
            .to_string(),
        "ROWA bounds the spectrum (best reads, worst writes); majority balances; the \
         trapezoid with w tunes between them per level — the §II positioning, quantified."
            .to_string(),
        "All closed forms are asserted against exact 2^N enumeration when this figure is \
         generated."
            .to_string(),
    ];
    FigureData {
        id: "baselines",
        title: "Extension: trapezoid vs related-work quorum systems (8 replicas)".to_string(),
        x_label: "p",
        series,
        notes,
    }
}

/// The validation table: closed forms vs the exact availability of the
/// structural predicates and of the executed protocol at a grid of p
/// values (the quantified version of §IV's claims).
pub fn validation_table() -> FigureData {
    let config = fig3_config();
    let (shape, th) = (*config.shape(), config.thresholds().clone());
    let (n, k) = (15, 8);
    let sys = config.system_for_block(0);
    let fr_sys = TrapezoidQuorum::new(shape, th.clone());
    let ps: Vec<f64> = (1..10).map(|i| i as f64 / 10.0).collect();

    let mk = |label: &str, f: &dyn Fn(f64) -> f64| Series {
        label: label.to_string(),
        points: ps.iter().map(|&p| (p, f(p))).collect(),
    };
    let exact = |label: &str, n: usize, predicate: &dyn Fn(NodeSet) -> bool| {
        let counts = exact_counts(n, predicate);
        mk(label, &|p| availability_from_counts(&counts, p))
    };
    let series = vec![
        mk("eq9 write", &|p| {
            availability::write_availability(&shape, &th, p)
        }),
        exact("write exact", n, &|up| sys.is_write_available(up)),
        exact("write protocol faithful", n, &|up| {
            sys.is_read_available(up) && sys.is_write_available(up)
        }),
        mk("eq13 read", &|p| {
            availability::read_availability_erc(&shape, &th, n, k, p)
        }),
        exact("read exact structural", n, &|up| sys.is_read_available(up)),
        mk("eq10 FR read", &|p| {
            availability::read_availability_fr(&shape, &th, p)
        }),
        exact("FR read protocol", shape.node_count(), &|up| {
            fr_sys.is_read_available(up)
        }),
    ];
    let notes = vec![
        "eq. 9 coincides with the write exact column, and the client's hinted write \
         succeeds on exactly its up-sets (availability oracle, row \
         trap_erc_15_8_matches_its_predicates_on_every_up_set). The faithful column \
         (read ∧ write, the same row) shows Algorithm 1's embedded READBLOCK cost at low p."
            .to_string(),
        "eq. 13 upper-bounds the exact structural column (its P2 term skips the version \
         check); the client's read succeeds on exactly the read predicate's up-sets (same \
         row), so the structural column is the protocol's."
            .to_string(),
        "The FR read protocol column counts the 8-node trapezoid's read predicate, where \
         the TRAP-FR client's read succeeds (availability oracle, row \
         trap_fr_0_4_1_matches_its_predicates_on_every_up_set)."
            .to_string(),
    ];
    FigureData {
        id: "validate",
        title: "Closed forms vs exact enumeration vs executed protocol (n = 15, k = 8, w = 2)"
            .to_string(),
        x_label: "p",
        series,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_layout_renders() {
        let f = fig1_layout();
        assert_eq!(f.id, "fig1");
        let art = f.notes.join("\n");
        assert!(art.contains("level"));
        assert!(art.contains("[ 0]"));
        // ERC placement of block 0 on the (15, 8) stripe.
        assert!(art.contains("stripe nodes [0, 8, 9, 10]"));
    }

    #[test]
    fn fig2_shapes_hold() {
        let f = fig2_write_availability(10);
        assert!(f.series.len() >= 6);
        // Every analytic curve is monotone nondecreasing in p.
        for s in f.series.iter().filter(|s| s.label.starts_with("eq9")) {
            for w in s.points.windows(2) {
                assert!(w[1].1 >= w[0].1 - 1e-9, "{} not monotone", s.label);
            }
            assert!(s.points.last().unwrap().1 > 0.999);
        }
    }

    #[test]
    fn fig3_shapes_hold() {
        let f = fig3_read_availability(10);
        let fr = &f.series[0];
        let erc = &f.series[1];
        // ERC never exceeds FR by more than the closed forms' slack.
        for (a, b) in fr.points.iter().zip(&erc.points) {
            assert!(b.1 <= a.1 + 0.02, "p={}: erc {} > fr {}", a.0, b.1, a.1);
        }
        // Prose anchors.
        assert!((fr.at(0.5) - 0.75).abs() < 0.06);
        assert!((erc.at(0.5) - 0.63).abs() < 0.06);
    }

    #[test]
    fn fig4_monotone_in_redundancy() {
        // The constructor itself asserts monotonicity at p = 0.5.
        let f = fig4_read_redundancy(8);
        assert_eq!(f.series.len(), 6);
    }

    #[test]
    fn fig5_measured_matches_eq15() {
        // The constructor asserts measured == eq. 15 for every k.
        let f = fig5_storage(64);
        assert_eq!(f.series.len(), 4);
        // FR measured must match eq. 14 wherever defined.
        let fr = &f.series[0];
        let fr_measured = &f.series[3];
        for (a, b) in fr.points.iter().zip(&fr_measured.points) {
            assert!((a.1 - b.1).abs() < 1e-9, "k={}: {} vs {}", a.0, a.1, b.1);
        }
    }

    #[test]
    fn baselines_figure_self_checks() {
        // The generator asserts closed-form == exact internally.
        let f = baselines_comparison(10);
        assert_eq!(f.series.len(), 8);
        // ROWA brackets everything at p = 0.5: its read availability is
        // the maximum, its write availability the minimum.
        let at = |label: &str| {
            f.series
                .iter()
                .find(|s| s.label == label)
                .unwrap_or_else(|| panic!("missing {label}"))
                .at(0.5)
        };
        let rowa_read = at("ROWA read");
        let rowa_write = at("ROWA write");
        for s in &f.series {
            let v = s.at(0.5);
            assert!(v <= rowa_read + 1e-9, "{} above ROWA read", s.label);
            assert!(v >= rowa_write - 1e-9, "{} below ROWA write", s.label);
        }
    }

    #[test]
    fn validation_table_small() {
        let f = validation_table();
        assert_eq!(f.series.len(), 7);
        // eq13 upper-bounds exact everywhere.
        let eq13 = f.series.iter().find(|s| s.label == "eq13 read").unwrap();
        let exact = f
            .series
            .iter()
            .find(|s| s.label == "read exact structural")
            .unwrap();
        for (a, b) in eq13.points.iter().zip(&exact.points) {
            assert!(a.1 >= b.1 - 1e-9, "p={}", a.0);
        }
    }
}
