//! Per-node health tracking: a latency estimate, a consecutive-failure
//! circuit, and the retry budget.
//!
//! The paper's availability analysis assumes fail-stop nodes; real
//! deployments also meet *gray* failures — nodes that stay up but run
//! 10–100× slow. This module is the client's view of them, one
//! [`NodeHealth`] registry per transport:
//!
//! * Per node, an integer EWMA of round-trip latency (RFC 6298's `srtt`)
//!   and the length of the node's current run of availability failures.
//!   The dispatch driver feeds it latency samples and the quorum engine
//!   feeds it call outcomes; the read path asks it which nodes are
//!   stragglers and ranks members by health. A node whose failure run
//!   reaches the circuit threshold has an *open circuit*: it is a
//!   straggler and ranks last until it answers once.
//! * A token-bucket retry budget capping client-side re-issue traffic
//!   (replacement fetches, TCP reconnects) to a fraction of observed
//!   successes, so a sick cluster cannot amplify its own load into a
//!   retry storm. A spent token is a [`RetryPermit`], and the re-send
//!   paths take one by value: a re-issue that skipped the budget does
//!   not compile.
//!
//! Nothing here sets a deadline: every round waits the fabric's fixed
//! budget (see `driver.rs`). Everything here is deterministic under
//! simulation: the registry reads no clock (a latency sample is an
//! opaque `u64` duration — virtual nanoseconds under
//! [`crate::sim::SimTransport`], wall nanoseconds on TCP), state lives
//! in a `DetHashMap`, and no OS entropy is read — clippy's determinism
//! ban (see this crate's `lib.rs`) covers this file.

use crate::detmap::DetHashMap;
use crate::rpc::{Lane, NodeError};
use crate::sync::Mutex;

/// Consecutive availability failures that open a node's circuit.
const CIRCUIT_THRESHOLD: u32 = 8;
/// Samples required before the estimator is trusted.
const WARMUP_SAMPLES: u32 = 3;

/// A node whose warmed-up srtt is at least this many times the fleet's
/// median warmed-up srtt counts as a straggler for routing purposes
/// (see [`NodeHealth::straggler`]). Well clear of ordinary jitter, well
/// under the 10–100× degradation a failing disk or saturated peer
/// shows.
pub(crate) const STRAGGLER_MULT: u64 = 4;

// The retry budget, in milli-tokens: each success earns `EARN`
// (retries ≤ 10% of successes in steady state), each spend costs
// `SPEND_COST`, the balance is capped at 16 tokens and starts at 3 to
// cover cold start. A background spend must leave one token for the
// foreground.
const SPEND_COST: u64 = 1000;
const EARN: u64 = 100;
const CAP: u64 = 16 * SPEND_COST;
const INITIAL: u64 = 3 * SPEND_COST;
const BACKGROUND_RESERVE: u64 = SPEND_COST;

/// Licence for one discretionary re-issue: a Case 2 replacement fetch,
/// a TCP reconnect attempt. The re-send paths take one by value, and
/// only this module makes them — `NodeHealth::try_spend` out of the
/// budget, [`RetryPermit::spend`] for a caller whose transport may keep
/// no registry:
///
/// ```compile_fail,E0423
/// let forged = tq_cluster::health::RetryPermit(());
/// ```
#[derive(Debug)]
#[must_use = "a permit licenses the re-issue it is passed to"]
pub struct RetryPermit(());

impl RetryPermit {
    /// Spends a token from `health`. With no registry there is no
    /// budget to draw on, and the caller's own bound (Case 2's finite
    /// member pool) is the only one.
    pub fn spend(health: Option<&NodeHealth>, lane: Lane) -> Option<RetryPermit> {
        health.map_or(Some(RetryPermit(())), |h| h.try_spend(lane))
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct NodeStat {
    srtt: u64,
    samples: u32,
    consec_failures: u32,
}

impl NodeStat {
    /// RFC 6298 integer update `srtt ← ⅞·srtt + ⅛·s`; the first sample
    /// seeds `srtt = s`.
    fn sample(&mut self, rtt: u64) {
        if self.samples == 0 {
            self.srtt = rtt;
        } else {
            self.srtt = self.srtt - self.srtt / 8 + rtt / 8;
        }
        self.samples = self.samples.saturating_add(1);
    }

    fn warm(&self) -> bool {
        self.samples >= WARMUP_SAMPLES
    }

    fn open(&self) -> bool {
        self.consec_failures >= CIRCUIT_THRESHOLD
    }
}

#[derive(Debug)]
struct HealthInner {
    nodes: DetHashMap<usize, NodeStat>,
    /// The retry budget's balance, in milli-tokens.
    budget: u64,
    /// Retry tokens spent so far.
    retries: u64,
}

/// The per-node health registry. Shared (behind `Arc`) between a
/// transport, the quorum engine that feeds it outcomes, and the routing
/// code that ranks members by health.
///
/// All methods take `&self`; state is guarded by a single internal
/// mutex that is never held across a transport call.
#[derive(Debug)]
pub struct NodeHealth {
    inner: Mutex<HealthInner>,
}

impl NodeHealth {
    /// An empty registry: every node unmeasured, the budget at its
    /// cold-start balance.
    pub(crate) fn new() -> NodeHealth {
        NodeHealth {
            inner: Mutex::new(HealthInner {
                nodes: DetHashMap::default(),
                budget: INITIAL,
                retries: 0,
            }),
        }
    }

    /// Record a successful round-trip sample for `node`.
    pub fn record_sample(&self, node: usize, rtt: u64) {
        self.inner.lock().nodes.entry(node).or_default().sample(rtt);
    }

    /// Feed one call's outcome for `node`. An answer — an application
    /// refusal (version conflict, not found, bad argument) included: the
    /// node is alive — earns retry budget and ends the node's failure
    /// run. An availability failure (down, unreachable, shed load, timed
    /// out) extends the run.
    pub(crate) fn record(&self, node: usize, result: Result<(), &NodeError>) {
        let mut guard = self.inner.lock();
        let g = &mut *guard;
        let st = g.nodes.entry(node).or_default();
        match result {
            Err(
                NodeError::Down
                | NodeError::TransportClosed
                | NodeError::Overloaded
                | NodeError::TimedOut,
            ) => {
                st.consec_failures = st.consec_failures.saturating_add(1);
            }
            _ => {
                st.consec_failures = 0;
                g.budget = (g.budget + EARN).min(CAP);
            }
        }
    }

    /// True when the estimator marks `node` as one the router should
    /// read *around*: its circuit is open, or its warmed-up latency
    /// estimate sits at least `STRAGGLER_MULT`× above the fleet's
    /// median warmed-up estimate. The test is relative, not absolute — a
    /// uniformly slow fleet has no stragglers — and a cold node is never
    /// a straggler (no evidence, no demotion).
    pub fn straggler(&self, node: usize) -> bool {
        let g = self.inner.lock();
        let Some(st) = g.nodes.get(&node) else {
            return false;
        };
        if st.open() {
            return true;
        }
        if !st.warm() {
            return false;
        }
        let mut warmed: Vec<u64> = g
            .nodes
            .values()
            .filter(|s| s.warm())
            .map(|s| s.srtt)
            .collect();
        warmed.sort_unstable();
        let median = warmed[warmed.len() / 2].max(1);
        st.srtt / median >= STRAGGLER_MULT
    }

    /// Order `nodes` healthiest-first: closed circuits before open ones,
    /// then by latency estimate, then by node id for determinism.
    /// Unknown nodes rank as healthy-but-unmeasured.
    pub fn rank_nodes(&self, nodes: &mut [usize]) {
        let g = self.inner.lock();
        nodes.sort_by_key(|&n| {
            let st = g.nodes.get(&n);
            (st.is_some_and(NodeStat::open), st.map_or(0, |s| s.srtt), n)
        });
    }

    /// Spend one retry token for a discretionary re-issue (a Case 2
    /// replacement fetch, a TCP reconnect). Background-lane callers must
    /// leave a foreground reserve. `None` when the budget is exhausted —
    /// the caller skips the re-issue rather than queueing.
    pub(crate) fn try_spend(&self, lane: Lane) -> Option<RetryPermit> {
        let mut g = self.inner.lock();
        let reserve = match lane {
            Lane::Foreground => 0,
            Lane::Background => BACKGROUND_RESERVE,
        };
        if g.budget < SPEND_COST + reserve {
            return None;
        }
        g.budget -= SPEND_COST;
        g.retries += 1;
        Some(RetryPermit(()))
    }
}

#[cfg(test)]
impl NodeHealth {
    /// Retry tokens spent so far, across every re-issue path.
    pub(crate) fn retries(&self) -> u64 {
        self.inner.lock().retries
    }

    /// Latency samples recorded for `node`.
    pub(crate) fn samples(&self, node: usize) -> u32 {
        self.inner.lock().nodes.get(&node).map_or(0, |s| s.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(h: &NodeHealth, node: usize) -> NodeStat {
        h.inner.lock().nodes[&node]
    }

    fn fail(h: &NodeHealth, node: usize, times: u32) {
        for _ in 0..times {
            h.record(node, Err(&NodeError::Down));
        }
    }

    #[test]
    fn estimator_converges_on_steady_rtt() {
        let h = NodeHealth::new();
        for _ in 0..64 {
            h.record_sample(3, 800);
        }
        let srtt = stat(&h, 3).srtt;
        assert!(srtt.abs_diff(800) <= 8, "srtt={srtt}");
    }

    #[test]
    fn estimator_tracks_a_step_change() {
        let h = NodeHealth::new();
        for _ in 0..32 {
            h.record_sample(0, 200);
        }
        for _ in 0..64 {
            h.record_sample(0, 2000);
        }
        let srtt = stat(&h, 0).srtt;
        assert!(srtt > 1800, "srtt={srtt}");
    }

    #[test]
    fn cold_estimator_reports_none() {
        // A node 30x the fleet is no straggler until its estimate is
        // warm: no evidence, no demotion.
        let h = NodeHealth::new();
        for node in 1..9 {
            for _ in 0..WARMUP_SAMPLES {
                h.record_sample(node, 1_000);
            }
        }
        for _ in 1..WARMUP_SAMPLES {
            h.record_sample(0, 30_000);
            assert!(!h.straggler(0), "cold after {} samples", h.samples(0));
        }
        h.record_sample(0, 30_000);
        assert!(h.straggler(0), "warm at {WARMUP_SAMPLES} samples");
    }

    #[test]
    fn circuit_opens_at_the_threshold_and_one_answer_closes_it() {
        let h = NodeHealth::new();
        let threshold = CIRCUIT_THRESHOLD;
        fail(&h, 5, threshold - 1);
        assert!(!h.straggler(5), "one failure short of the threshold");
        fail(&h, 5, 1);
        assert!(h.straggler(5), "open at the threshold");
        let mut nodes = vec![5, 6];
        h.rank_nodes(&mut nodes);
        assert_eq!(nodes, vec![6, 5], "an open circuit ranks last");
        h.record(5, Ok(()));
        assert!(!h.straggler(5), "one answer closes it");
        h.rank_nodes(&mut nodes);
        assert_eq!(nodes, vec![5, 6]);
    }

    #[test]
    fn app_level_rejections_do_not_trip_the_circuit() {
        let h = NodeHealth::new();
        for _ in 0..32 {
            h.record(
                4,
                Err(&NodeError::VersionConflict {
                    expected: 1,
                    actual: 2,
                }),
            );
        }
        assert!(!h.straggler(4));
        assert_eq!(stat(&h, 4).consec_failures, 0);
    }

    #[test]
    fn rank_nodes_orders_by_circuit_then_latency() {
        let h = NodeHealth::new();
        for _ in 0..8 {
            h.record_sample(0, 5000); // slow but healthy
            h.record_sample(1, 100); // fast
            h.record_sample(2, 50); // fastest, but its circuit opens
        }
        fail(&h, 2, CIRCUIT_THRESHOLD);
        let mut nodes = vec![0, 1, 2, 3];
        h.rank_nodes(&mut nodes);
        // 2 has an open circuit → last; 3 unknown (srtt 0) → first;
        // 1 beats 0 on latency.
        assert_eq!(nodes, vec![3, 1, 0, 2]);
    }

    #[test]
    fn straggler_is_relative_to_the_fleet_median() {
        let h = NodeHealth::new();
        assert!(!h.straggler(0), "unknown node is not a straggler");
        for _ in 0..8 {
            h.record_sample(0, 30_000); // gray: ~30x the fleet
            for node in 1..9 {
                h.record_sample(node, 1_000);
            }
        }
        assert!(h.straggler(0), "30x the median srtt");
        assert!(!h.straggler(1), "a typical node is not");
        // Uniform slowness is not straggling: everyone at 30k.
        let u = NodeHealth::new();
        for _ in 0..8 {
            for node in 0..9 {
                u.record_sample(node, 30_000);
            }
        }
        assert!(!u.straggler(0), "a uniformly slow fleet has no stragglers");
        // An open circuit is a straggler regardless of latency.
        fail(&u, 3, 32);
        assert!(u.straggler(3), "open circuit routes around");
    }

    #[test]
    fn retry_budget_starvation_bound() {
        // With zero successes the budget allows at most its initial
        // balance, then refuses forever.
        let h = NodeHealth::new();
        let spends = (0..100)
            .filter(|_| h.try_spend(Lane::Foreground).is_some())
            .count();
        assert_eq!(spends, 3, "cold-start allowance only");
        assert!(h.try_spend(Lane::Foreground).is_none());
        assert_eq!(h.retries(), 3);
    }

    #[test]
    fn retry_budget_tracks_success_fraction() {
        let drain = |h: &NodeHealth| std::iter::from_fn(|| h.try_spend(Lane::Foreground)).count();
        let h = NodeHealth::new();
        for _ in 0..100 {
            h.record(0, Ok(()));
        }
        // 100 successes at 10% ⇒ 10 tokens + 3 initial.
        assert_eq!(drain(&h), 13);
        // Failures earn nothing back.
        fail(&h, 0, 50);
        assert_eq!(drain(&h), 0);
        // The balance is capped at 16 tokens.
        for _ in 0..1000 {
            h.record(0, Ok(()));
        }
        assert_eq!(drain(&h), 16);
    }

    #[test]
    fn background_lane_leaves_a_foreground_reserve() {
        let h = NodeHealth::new();
        // Drain to exactly one token via background spends: the last
        // token is reserved for foreground.
        let mut bg = 0;
        while h.try_spend(Lane::Background).is_some() {
            bg += 1;
        }
        assert_eq!(bg, 2, "background stops above the reserve");
        assert!(
            h.try_spend(Lane::Foreground).is_some(),
            "reserve is spendable by fg"
        );
        assert!(h.try_spend(Lane::Foreground).is_none());
    }
}
