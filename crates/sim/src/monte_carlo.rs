//! Monte-Carlo availability estimation, at two fidelities.
//!
//! * [`MonteCarlo::estimate_predicate`] samples availability patterns and
//!   evaluates a structural [`tq_quorum::system::QuorumSystem`]-style
//!   predicate — cheap, for wide sweeps.
//! * The `protocol_*` functions run the actual `tq-trapezoid` client
//!   against a real cluster per sample — the ground truth for what the
//!   executable protocol delivers, including every behaviour the paper's
//!   closed forms abstract away (embedded reads, version guards,
//!   staleness after partial writes).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tq_cluster::{Cluster, FaultInjector, LocalTransport};
use tq_erasure::CodeParams;
use tq_quorum::trapezoid::{TrapezoidShape, WriteThresholds};
use tq_quorum::NodeSet;
use tq_trapezoid::{ProtocolConfig, Store, TrapErcClient};

/// A Bernoulli estimate with its sampling error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Number of successful trials.
    pub successes: usize,
    /// Total trials.
    pub trials: usize,
}

impl Estimate {
    /// Point estimate `successes / trials`.
    pub fn mean(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        self.successes as f64 / self.trials as f64
    }

    /// Standard error of the mean (binomial).
    pub fn stderr(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        let m = self.mean();
        (m * (1.0 - m) / self.trials as f64).sqrt()
    }

    /// `true` iff `analytic` lies within `z` standard errors of the
    /// estimate (with a small absolute floor for near-0/1 probabilities,
    /// where the binomial stderr collapses).
    pub fn consistent_with(&self, analytic: f64, z: f64) -> bool {
        let tol = (z * self.stderr()).max(2.5 / self.trials.max(1) as f64 + 1e-9);
        (self.mean() - analytic).abs() <= tol
    }
}

/// Seeded sampler for structural predicates.
#[derive(Debug)]
pub struct MonteCarlo {
    rng: StdRng,
    trials: usize,
}

impl MonteCarlo {
    /// `trials` samples per estimate, deterministic in `seed`.
    pub fn new(seed: u64, trials: usize) -> Self {
        assert!(trials > 0, "at least one trial");
        MonteCarlo {
            rng: StdRng::seed_from_u64(seed),
            trials,
        }
    }

    /// Estimates `P[predicate(up)]` under i.i.d. Bernoulli(`p`) node
    /// states for `n` nodes.
    pub fn estimate_predicate(
        &mut self,
        n: usize,
        p: f64,
        mut predicate: impl FnMut(NodeSet) -> bool,
    ) -> Estimate {
        let mut successes = 0;
        for _ in 0..self.trials {
            let mut up = NodeSet::EMPTY;
            for i in 0..n {
                if self.rng.random_bool(p) {
                    up.insert(i);
                }
            }
            if predicate(up) {
                successes += 1;
            }
        }
        Estimate {
            successes,
            trials: self.trials,
        }
    }
}

const MC_BLOCK_LEN: usize = 8;

fn tiny_blocks(k: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| (0..MC_BLOCK_LEN).map(|b| (i * 31 + b) as u8).collect())
        .collect()
}

/// Binds an already-validated config to a fresh cluster through the
/// unified store builder; the concrete client is kept because the
/// hinted-write extension surface is what the eq. 8/9 validation needs.
fn erc_client(config: &ProtocolConfig, cluster: &Cluster) -> TrapErcClient<LocalTransport> {
    Store::from_config(config.clone())
        .transport(LocalTransport::new(cluster.clone()))
        .build_trap_erc()
        .expect("transport sized to n")
}

/// The TRAP-FR deployment for a (shape, thresholds) pair: TRAP-ERC over
/// an `(m, 1)` code on the trapezoid's `m` nodes, the configuration
/// `Store::trap_fr` builds. The typed config is used (not the builder's
/// `.thresholds(..)`, which re-derives the eq. 6 majority `w_0`) so a
/// caller-supplied custom `w_0` reaches the simulated protocol verbatim.
fn fr_client(
    shape: &TrapezoidShape,
    thresholds: &WriteThresholds,
    cluster: &Cluster,
) -> TrapErcClient<LocalTransport> {
    let params = CodeParams::new(shape.node_count(), 1).expect("a trapezoid has 1..=255 nodes");
    let config =
        ProtocolConfig::new(params, *shape, thresholds.clone()).expect("validated thresholds");
    erc_client(&config, cluster)
}

fn all_up(cluster: &Cluster) {
    for i in 0..cluster.len() {
        cluster.revive(i);
    }
}

/// Protocol-level TRAP-ERC **write** availability: per trial, a fresh
/// stripe is provisioned with all nodes up, the Bernoulli(p) pattern is
/// applied, and Algorithm 1 runs against block 0.
///
/// With `hinted = true` the writer supplies the old chunk/version
/// (skipping the embedded READBLOCK), which makes success *exactly* the
/// eq. 8/9 predicate. With `hinted = false` the full Algorithm 1 runs,
/// READBLOCK included — the gap between the two is a finding recorded in
/// EXPERIMENTS.md.
pub fn protocol_write_availability(
    config: &ProtocolConfig,
    p: f64,
    trials: usize,
    seed: u64,
    hinted: bool,
) -> Estimate {
    let n = config.params().n();
    let cluster = Cluster::new(n);
    let client = erc_client(config, &cluster);
    let mut injector = FaultInjector::new(seed);
    let data = tiny_blocks(config.params().k());
    let new_value = vec![0xD7u8; MC_BLOCK_LEN];
    let mut successes = 0;
    for trial in 0..trials {
        let id = trial as u64;
        all_up(&cluster);
        client
            .create_stripe(id, data.clone())
            .expect("all nodes up");
        injector.sample_bernoulli(&cluster, p);
        let ok = if hinted {
            client
                .write_block_with_hint(id, 0, &new_value, &data[0], 0)
                .is_ok()
        } else {
            client.write_block(id, 0, &new_value).is_ok()
        };
        if ok {
            successes += 1;
        }
    }
    Estimate { successes, trials }
}

/// Protocol-level TRAP-ERC **read** availability: one stripe is
/// provisioned and written once with every node up (so all replicas are
/// current — the steady state the paper's formulas model); each trial
/// applies a fresh Bernoulli(p) pattern and runs Algorithm 2 on block 0.
pub fn protocol_read_availability(
    config: &ProtocolConfig,
    p: f64,
    trials: usize,
    seed: u64,
) -> Estimate {
    let n = config.params().n();
    let cluster = Cluster::new(n);
    let client = erc_client(config, &cluster);
    let mut injector = FaultInjector::new(seed);
    client
        .create_stripe(1, tiny_blocks(config.params().k()))
        .expect("all nodes up");
    client
        .write_block(1, 0, &[0x42u8; MC_BLOCK_LEN])
        .expect("all nodes up");
    let mut successes = 0;
    for _ in 0..trials {
        injector.sample_bernoulli(&cluster, p);
        if client.read_block(1, 0).is_ok() {
            successes += 1;
        }
    }
    all_up(&cluster);
    Estimate { successes, trials }
}

/// Protocol-level TRAP-FR read availability (same steady-state setup).
pub fn protocol_fr_read_availability(
    shape: &TrapezoidShape,
    thresholds: &WriteThresholds,
    p: f64,
    trials: usize,
    seed: u64,
) -> Estimate {
    let cluster = Cluster::new(shape.node_count());
    let client = fr_client(shape, thresholds, &cluster);
    let mut injector = FaultInjector::new(seed);
    client
        .create_stripe(1, vec![vec![0u8; MC_BLOCK_LEN]])
        .expect("all up");
    client
        .write_block(1, 0, &[0x42u8; MC_BLOCK_LEN])
        .expect("all up");
    let mut successes = 0;
    for _ in 0..trials {
        injector.sample_bernoulli(&cluster, p);
        if client.read_block(1, 0).is_ok() {
            successes += 1;
        }
    }
    Estimate { successes, trials }
}

/// Protocol-level TRAP-FR write availability (hinted version supply, so
/// the estimate matches the eq. 8 predicate; the FR embedded read is
/// provably never the limiting factor — see the `baselines` tests).
pub fn protocol_fr_write_availability(
    shape: &TrapezoidShape,
    thresholds: &WriteThresholds,
    p: f64,
    trials: usize,
    seed: u64,
) -> Estimate {
    let cluster = Cluster::new(shape.node_count());
    let client = fr_client(shape, thresholds, &cluster);
    let mut injector = FaultInjector::new(seed);
    let old = [0u8; MC_BLOCK_LEN];
    client.create_stripe(1, vec![old.to_vec()]).expect("all up");
    let mut successes = 0;
    for trial in 0..trials {
        injector.sample_bernoulli(&cluster, p);
        // At k = 1 the write installs whole copies, so the old chunk is
        // only its length.
        if client
            .write_block_with_hint(1, 0, &[0x42u8; MC_BLOCK_LEN], &old, trial as u64 + 1)
            .is_ok()
        {
            successes += 1;
        }
    }
    Estimate { successes, trials }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tq_quorum::availability;
    use tq_quorum::system::QuorumSystem;
    use tq_quorum::trapezoid::TrapErcSystem;

    fn fig3_config() -> ProtocolConfig {
        ProtocolConfig::with_uniform_w(15, 8, 0, 4, 1, 2).unwrap()
    }

    #[test]
    fn estimate_arithmetic() {
        let e = Estimate {
            successes: 50,
            trials: 100,
        };
        assert!((e.mean() - 0.5).abs() < 1e-12);
        assert!((e.stderr() - 0.05).abs() < 1e-12);
        assert!(e.consistent_with(0.55, 2.0));
        assert!(!e.consistent_with(0.8, 2.0));
        let zero = Estimate {
            successes: 0,
            trials: 0,
        };
        assert_eq!(zero.mean(), 0.0);
        assert_eq!(zero.stderr(), 0.0);
    }

    #[test]
    fn predicate_mc_matches_phi() {
        // P[≥ 6 of 10 live] must match Φ_10(6, 10).
        let mut mc = MonteCarlo::new(7, 4000);
        for &p in &[0.3, 0.6, 0.9] {
            let est = mc.estimate_predicate(10, p, |up| up.len() >= 6);
            let analytic = availability::phi(10, 6, 10, p);
            assert!(
                est.consistent_with(analytic, 4.0),
                "p={p}: {} vs {analytic}",
                est.mean()
            );
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let mut a = MonteCarlo::new(99, 500);
        let mut b = MonteCarlo::new(99, 500);
        let ea = a.estimate_predicate(8, 0.5, |up| up.len() >= 4);
        let eb = b.estimate_predicate(8, 0.5, |up| up.len() >= 4);
        assert_eq!(ea, eb);
    }

    #[test]
    fn predicate_mc_matches_structural_erc_read() {
        let config = fig3_config();
        let sys = config.system_for_block(0);
        let mut mc = MonteCarlo::new(11, 4000);
        let est = mc.estimate_predicate(15, 0.6, |up| sys.is_read_available(up));
        let exact = tq_quorum::exact::exact_availability(15, 0.6, |up| sys.is_read_available(up));
        assert!(est.consistent_with(exact, 4.0), "{} vs {exact}", est.mean());
    }

    #[test]
    fn hinted_protocol_write_matches_eq9() {
        let config = fig3_config();
        for &p in &[0.5, 0.8] {
            let est = protocol_write_availability(&config, p, 600, 42, true);
            let analytic = availability::write_availability(config.shape(), config.thresholds(), p);
            assert!(
                est.consistent_with(analytic, 4.5),
                "p={p}: protocol {} vs eq9 {analytic}",
                est.mean()
            );
        }
    }

    #[test]
    fn protocol_read_matches_structural_predicate() {
        // In the steady state (every node current) Algorithm 2 succeeds
        // exactly when the structural predicate holds.
        let config = fig3_config();
        let sys: TrapErcSystem = config.system_for_block(0);
        for &p in &[0.4, 0.7] {
            let est = protocol_read_availability(&config, p, 600, 23);
            let exact = tq_quorum::exact::exact_availability(15, p, |up| sys.is_read_available(up));
            assert!(
                est.consistent_with(exact, 4.5),
                "p={p}: protocol {} vs structural {exact}",
                est.mean()
            );
        }
    }

    #[test]
    fn fr_protocol_matches_eq8_and_eq10() {
        let shape = TrapezoidShape::new(0, 4, 1).unwrap();
        let th = WriteThresholds::paper_default(&shape, 2).unwrap();
        for &p in &[0.5, 0.85] {
            let w = protocol_fr_write_availability(&shape, &th, p, 600, 5);
            let analytic_w = availability::write_availability(&shape, &th, p);
            assert!(
                w.consistent_with(analytic_w, 4.5),
                "write p={p}: {} vs {analytic_w}",
                w.mean()
            );
            let r = protocol_fr_read_availability(&shape, &th, p, 600, 6);
            let analytic_r = availability::read_availability_fr(&shape, &th, p);
            assert!(
                r.consistent_with(analytic_r, 4.5),
                "read p={p}: {} vs {analytic_r}",
                r.mean()
            );
        }
    }

    #[test]
    fn faithful_write_no_higher_than_hinted() {
        // Algorithm 1's embedded READBLOCK can only remove successes.
        let config = fig3_config();
        let p = 0.5;
        let hinted = protocol_write_availability(&config, p, 500, 77, true);
        let faithful = protocol_write_availability(&config, p, 500, 77, false);
        assert!(
            faithful.mean() <= hinted.mean() + 3.0 * hinted.stderr(),
            "faithful {} vs hinted {}",
            faithful.mean(),
            hinted.mean()
        );
    }
}
