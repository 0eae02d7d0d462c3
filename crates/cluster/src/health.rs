//! Per-node health tracking for the adaptive straggler-tolerance layer:
//! latency estimation, a consecutive-failure circuit, and the retry
//! budget.
//!
//! The paper's availability analysis assumes fail-stop nodes; real
//! deployments are dominated by *gray* failures — nodes that stay up but
//! run 10–100× slow. This module is the client-side defense, one
//! [`NodeHealth`] registry per transport:
//!
//! * Per node, an RFC-6298-style integer EWMA of round-trip latency plus
//!   variance, and the length of the node's current run of availability
//!   failures. The dispatch driver feeds it latency samples and reads
//!   back per-node deadlines and hedge delays; the quorum engine feeds it
//!   call outcomes; the read path asks it which nodes are stragglers and
//!   ranks members by health. A node whose failure run reaches the
//!   circuit threshold has an *open circuit*: it is a straggler and ranks
//!   last until it answers once.
//! * A token-bucket retry budget capping all client-side re-issue traffic
//!   (hedges, replacement fetches, TCP reconnects) to a fraction of
//!   observed successes, so a sick cluster cannot amplify its own load
//!   into a retry storm.
//! * The [`HedgePolicy`], set with [`NodeHealth::set_policy`], selecting
//!   how aggressively outstanding sends are speculatively re-issued, and
//!   [`HedgeCounters`], the ledger of what hedging did.
//!
//! Everything here is deterministic under simulation: the registry reads
//! no clock (a latency sample is an opaque `u64` duration — virtual
//! nanoseconds under [`crate::sim::SimTransport`], wall nanoseconds on
//! TCP), state lives in a [`DetHashMap`], and no OS entropy is read —
//! clippy's determinism ban (see this crate's `lib.rs`) covers this file.

use crate::detmap::DetHashMap;
use crate::rpc::{Lane, NodeError};
use std::sync::Mutex;

/// How aggressively to hedge outstanding sends, set with
/// [`NodeHealth::set_policy`].
///
/// `Off` is the default: no hedge is armed, every deadline is the
/// fabric's fixed budget, and write levels await every reply. The
/// estimator is fed, and the read path's straggler filter, member
/// ranking and budgeted replacement fetches run, under every policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HedgePolicy {
    /// No hedging; fixed per-round deadlines. The default.
    #[default]
    Off,
    /// Hedge after `srtt + 2·rttvar` (roughly the p90 of the estimate).
    P90,
    /// Hedge after `srtt + 4·rttvar` (roughly the p99 of the estimate).
    P99,
}

/// The estimator's time constants. Two scales ship because virtual sim
/// time and real wall time differ by orders of magnitude; a single floor
/// would either never clamp in one domain or always clamp in the other.
#[derive(Debug, Clone, Copy)]
struct HealthConfig {
    /// Lower clamp on adaptive per-node timeouts (cold-start floor).
    min_timeout: u64,
    /// Upper clamp on adaptive per-node timeouts.
    max_timeout: u64,
    /// Minimum hedge delay — never hedge faster than this.
    hedge_floor: u64,
}

/// Magnitudes for the virtual-nanosecond clock of
/// [`crate::sim::SimTransport`] (delays are tens to thousands of virtual
/// ns, round timeouts a few thousand).
const SIM_SCALE: HealthConfig = HealthConfig {
    min_timeout: 100,
    max_timeout: 1_000_000,
    hedge_floor: 50,
};

/// Magnitudes for real wall-clock nanoseconds (the TCP transport):
/// microseconds to seconds.
const REAL_SCALE: HealthConfig = HealthConfig {
    min_timeout: 1_000_000,     // 1 ms
    max_timeout: 2_000_000_000, // 2 s
    hedge_floor: 200_000,       // 200 µs
};

/// Deviation multiplier in the timeout formula `srtt + K·rttvar`.
const K: u64 = 4;
/// Consecutive availability failures that open a node's circuit.
const CIRCUIT_THRESHOLD: u32 = 8;
/// Samples required before the estimator is trusted.
const WARMUP_SAMPLES: u32 = 3;

/// A node whose warmed-up srtt is at least this many times the fleet's
/// median warmed-up srtt counts as a straggler for routing purposes
/// (see [`NodeHealth::straggler`]). Well clear of ordinary jitter, well
/// under the 10–100× degradation a failing disk or saturated peer
/// shows.
pub const STRAGGLER_MULT: u64 = 4;

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

#[derive(Debug, Clone, Copy, Default)]
struct NodeStat {
    srtt: u64,
    rttvar: u64,
    samples: u32,
    consec_failures: u32,
    backoff_shift: u32,
}

impl NodeStat {
    /// RFC 6298 integer update: `rttvar ← ¾·rttvar + ¼·|srtt − s|`,
    /// `srtt ← ⅞·srtt + ⅛·s`; first sample seeds `srtt = s`,
    /// `rttvar = s/2`.
    fn sample(&mut self, rtt: u64) {
        if self.samples == 0 {
            self.srtt = rtt;
            self.rttvar = rtt / 2;
        } else {
            let err = self.srtt.abs_diff(rtt);
            self.rttvar = self.rttvar - self.rttvar / 4 + err / 4;
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
    cfg: HealthConfig,
    policy: HedgePolicy,
    nodes: DetHashMap<usize, NodeStat>,
    /// The retry budget's balance, in milli-tokens.
    budget: u64,
    hedges: HedgeCounters,
}

/// Running totals of hedge activity — the one hedge ledger: the
/// dispatch driver writes it, the DST's `CaseReport` reads it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HedgeCounters {
    /// Speculative re-issues sent.
    pub fired: u64,
    /// Hedges whose reply completed the slot first.
    pub won: u64,
    /// Late duplicate replies absorbed after the slot completed.
    pub dups: u64,
    /// Retry-budget tokens spent across all re-issue paths.
    pub retries: u64,
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
    fn with(cfg: HealthConfig) -> NodeHealth {
        NodeHealth {
            inner: Mutex::new(HealthInner {
                cfg,
                policy: HedgePolicy::Off,
                nodes: DetHashMap::default(),
                budget: INITIAL,
                hedges: HedgeCounters::default(),
            }),
        }
    }

    /// Registry tuned for the sim's virtual clock, hedging off.
    pub(crate) fn sim_scale() -> NodeHealth {
        NodeHealth::with(SIM_SCALE)
    }

    /// Registry tuned for wall-clock nanoseconds, hedging off.
    pub(crate) fn real_scale() -> NodeHealth {
        NodeHealth::with(REAL_SCALE)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HealthInner> {
        // A poisoned health mutex only means a panicking thread died while
        // updating counters; the data is still internally consistent.
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Select the hedging policy (see [`HedgePolicy`]).
    pub fn set_policy(&self, policy: HedgePolicy) {
        self.lock().policy = policy;
    }

    /// True when hedging (and with it, adaptive deadlines and
    /// first-quorum write completion) is enabled.
    pub fn hedging_enabled(&self) -> bool {
        self.lock().policy != HedgePolicy::Off
    }

    /// Record a successful round-trip sample for `node`.
    pub fn record_sample(&self, node: usize, rtt: u64) {
        self.lock().nodes.entry(node).or_default().sample(rtt);
    }

    /// Feed one call's outcome for `node`. An answer — an application
    /// refusal (version conflict, not found, bad argument) included: the
    /// node is alive — earns retry budget and ends the node's failure
    /// run and its deadline backoff. An availability failure (down,
    /// unreachable, shed load, timed out) extends the run; a timeout
    /// also doubles the node's deadline.
    pub(crate) fn record(&self, node: usize, result: Result<(), &NodeError>) {
        let mut guard = self.lock();
        let g = &mut *guard;
        let st = g.nodes.entry(node).or_default();
        match result {
            Err(NodeError::Down | NodeError::TransportClosed | NodeError::Overloaded) => {
                st.consec_failures = st.consec_failures.saturating_add(1);
            }
            Err(NodeError::TimedOut) => {
                st.consec_failures = st.consec_failures.saturating_add(1);
                st.backoff_shift = st.backoff_shift.saturating_add(1);
            }
            _ => {
                st.consec_failures = 0;
                st.backoff_shift = 0;
                g.budget = (g.budget + EARN).min(CAP);
            }
        }
    }

    /// The adaptive per-node deadline (`2·(srtt + K·rttvar)`, backoff-
    /// inflated after timeouts, clamped), or `None` while the estimator
    /// is cold — callers fall back to their fixed deadline. The factor
    /// of two keeps the kill point above every hedge quantile, so a
    /// hedge always has a window to win before the call is abandoned.
    pub(crate) fn timeout_for(&self, node: usize) -> Option<u64> {
        let g = self.lock();
        let (cfg, st) = (&g.cfg, g.nodes.get(&node).filter(|s| s.warm())?);
        let base = st.srtt.saturating_add(K.saturating_mul(st.rttvar));
        // Exponential backoff after consecutive timeouts, capped so the
        // shift cannot overflow or exceed the max clamp.
        let backed_off = base
            .saturating_mul(2)
            .saturating_mul(1 << st.backoff_shift.min(6));
        Some(backed_off.clamp(cfg.min_timeout, cfg.max_timeout))
    }

    /// How long to wait before speculatively re-issuing a send to
    /// `node`: a quantile of the latency estimate selected by the
    /// policy, floored at the configured hedge floor. `None` when
    /// hedging is off or the estimator is cold.
    pub(crate) fn hedge_delay(&self, node: usize) -> Option<u64> {
        let g = self.lock();
        let mult = match g.policy {
            HedgePolicy::Off => return None,
            HedgePolicy::P90 => 2,
            HedgePolicy::P99 => 4,
        };
        let st = g.nodes.get(&node).filter(|s| s.warm())?;
        // Clamp to 2·srtt: on a stable node rttvar decays toward zero and
        // `srtt + k·rttvar` degenerates to ≈srtt, which would hedge every
        // queueing blip. A request that has waited less than twice the
        // node's typical latency is not yet a straggler.
        let d = st.srtt.saturating_add(mult * st.rttvar);
        Some(d.max(2 * st.srtt).max(g.cfg.hedge_floor))
    }

    /// True when the estimator marks `node` as one the router should
    /// read *around*: its circuit is open, or its warmed-up latency
    /// estimate sits at least [`STRAGGLER_MULT`]× above the fleet's
    /// median warmed-up estimate. The test is relative, not absolute — a
    /// uniformly slow fleet has no stragglers — and a cold node is never
    /// a straggler (no evidence, no demotion).
    pub fn straggler(&self, node: usize) -> bool {
        let g = self.lock();
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
        let g = self.lock();
        nodes.sort_by_key(|&n| {
            let st = g.nodes.get(&n);
            (st.is_some_and(NodeStat::open), st.map_or(0, |s| s.srtt), n)
        });
    }

    /// Spend one retry token for a discretionary re-issue (hedge,
    /// refetch, reconnect). Background-lane callers must leave a
    /// foreground reserve. Returns false when the budget is exhausted —
    /// the caller skips the re-issue rather than queueing.
    pub fn try_spend(&self, lane: Lane) -> bool {
        let mut g = self.lock();
        let reserve = match lane {
            Lane::Foreground => 0,
            Lane::Background => BACKGROUND_RESERVE,
        };
        if g.budget < SPEND_COST + reserve {
            return false;
        }
        g.budget -= SPEND_COST;
        g.hedges.retries += 1;
        true
    }

    /// Count a speculative re-issue actually sent.
    pub(crate) fn note_hedge_fired(&self) {
        self.lock().hedges.fired += 1;
    }

    /// Count a hedged reply that completed its slot first.
    pub(crate) fn note_hedge_won(&self) {
        self.lock().hedges.won += 1;
    }

    /// Count a late duplicate reply absorbed after its slot completed.
    pub(crate) fn note_hedge_dup(&self) {
        self.lock().hedges.dups += 1;
    }

    /// The running hedge/retry totals.
    pub fn hedge_counters(&self) -> HedgeCounters {
        self.lock().hedges
    }

    /// Latency samples recorded for `node`.
    #[cfg(test)]
    pub(crate) fn samples(&self, node: usize) -> u32 {
        self.lock().nodes.get(&node).map_or(0, |s| s.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(h: &NodeHealth, node: usize) -> NodeStat {
        h.lock().nodes[&node]
    }

    fn fail(h: &NodeHealth, node: usize, times: u32) {
        for _ in 0..times {
            h.record(node, Err(&NodeError::Down));
        }
    }

    #[test]
    fn estimator_converges_on_steady_rtt() {
        let h = NodeHealth::sim_scale();
        for _ in 0..64 {
            h.record_sample(3, 800);
        }
        let st = stat(&h, 3);
        // srtt converges to the true value; rttvar decays toward zero.
        assert!(st.srtt.abs_diff(800) <= 8, "srtt={}", st.srtt);
        assert!(st.rttvar <= 16, "rttvar={}", st.rttvar);
        let t = h.timeout_for(3).unwrap();
        assert!((100..2400).contains(&t), "timeout={t}");
    }

    #[test]
    fn estimator_tracks_a_step_change() {
        let h = NodeHealth::sim_scale();
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
        let h = NodeHealth::sim_scale();
        assert_eq!(h.timeout_for(0), None);
        h.record_sample(0, 500);
        // Below WARMUP_SAMPLES: still cold.
        assert_eq!(h.timeout_for(0), None);
        h.record_sample(0, 500);
        h.record_sample(0, 500);
        assert!(h.timeout_for(0).is_some());
    }

    #[test]
    fn timeouts_inflate_the_deadline_and_success_resets_it() {
        let h = NodeHealth::sim_scale();
        for _ in 0..8 {
            h.record_sample(1, 400);
        }
        let base = h.timeout_for(1).unwrap();
        h.record(1, Err(&NodeError::TimedOut));
        h.record(1, Err(&NodeError::TimedOut));
        let backed_off = h.timeout_for(1).unwrap();
        assert!(backed_off >= base * 2, "{backed_off} vs {base}");
        h.record(1, Ok(()));
        assert_eq!(h.timeout_for(1).unwrap(), base);
    }

    #[test]
    fn circuit_opens_at_the_threshold_and_one_answer_closes_it() {
        let h = NodeHealth::sim_scale();
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
        let h = NodeHealth::sim_scale();
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
    fn hedge_delay_follows_policy() {
        let h = NodeHealth::sim_scale();
        assert_eq!(h.hedge_delay(0), None, "off by default");
        h.set_policy(HedgePolicy::P99);
        assert_eq!(h.hedge_delay(0), None, "cold estimator");
        // Wide alternation keeps rttvar large enough that the variance
        // term dominates the 2·srtt clamp and the two policies separate.
        for i in 0..32 {
            h.record_sample(0, if i % 2 == 0 { 200 } else { 1000 });
        }
        let p99 = h.hedge_delay(0).unwrap();
        h.set_policy(HedgePolicy::P90);
        let p90 = h.hedge_delay(0).unwrap();
        assert!(p99 > p90, "p99 delay {p99} must exceed p90 {p90}");
        assert!(p90 >= 50, "floored at hedge_floor");

        // Stable node: rttvar collapses, so the delay is pinned at 2·srtt
        // rather than degenerating to ≈srtt (which would hedge every blip).
        for _ in 0..64 {
            h.record_sample(1, 500);
        }
        let stable = h.hedge_delay(1).unwrap();
        assert!(
            stable >= 900,
            "stable-node delay {stable} must be clamped to ~2x srtt"
        );
    }

    #[test]
    fn rank_nodes_orders_by_circuit_then_latency() {
        let h = NodeHealth::sim_scale();
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
        let h = NodeHealth::sim_scale();
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
        let u = NodeHealth::sim_scale();
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
        let h = NodeHealth::sim_scale();
        let spends = (0..100).filter(|_| h.try_spend(Lane::Foreground)).count();
        assert_eq!(spends, 3, "cold-start allowance only");
        assert!(!h.try_spend(Lane::Foreground));
        assert_eq!(h.hedge_counters().retries, 3);
    }

    #[test]
    fn retry_budget_tracks_success_fraction() {
        let drain = |h: &NodeHealth| {
            std::iter::from_fn(|| h.try_spend(Lane::Foreground).then_some(())).count()
        };
        let h = NodeHealth::sim_scale();
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
        let h = NodeHealth::sim_scale();
        // Drain to exactly one token via background spends: the last
        // token is reserved for foreground.
        let mut bg = 0;
        while h.try_spend(Lane::Background) {
            bg += 1;
        }
        assert_eq!(bg, 2, "background stops above the reserve");
        assert!(h.try_spend(Lane::Foreground), "reserve is spendable by fg");
        assert!(!h.try_spend(Lane::Foreground));
    }
}
