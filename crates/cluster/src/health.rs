//! Per-node health tracking: latency estimation, circuit breaking, and
//! retry budgets for the adaptive straggler-tolerance layer.
//!
//! The paper's availability analysis assumes fail-stop nodes; real
//! deployments are dominated by *gray* failures — nodes that stay up but
//! run 10–100× slow. This module is the client-side defense:
//!
//! * [`NodeHealth`] — a registry keeping, per node, an RFC-6298-style
//!   integer EWMA of round-trip latency plus variance, error/timeout
//!   rates, and a consecutive-failure circuit state
//!   ([`CircuitState`]). Quorum rounds feed it completion outcomes;
//!   the dispatch driver reads back per-node deadlines
//!   ([`NodeHealth::timeout_for`]) and hedge delays
//!   ([`NodeHealth::hedge_delay`]) and advances its clock.
//! * [`RetryBudget`] — a token bucket that caps all client-side
//!   re-issue traffic (hedges, integrity route-around refetches, TCP
//!   reconnects) to a fraction of observed successes, so a sick cluster
//!   cannot amplify its own load into a retry storm.
//! * [`HedgePolicy`] — the knob (`TQ_HEDGE=off|p90|p99`) selecting how
//!   aggressively outstanding sends are speculatively re-issued.
//!
//! Everything here is deterministic under simulation: time is an opaque
//! `u64` supplied by the caller (virtual nanoseconds under
//! [`crate::sim::SimTransport`], monotonic wall nanoseconds under the
//! real transports), state lives in [`DetHashMap`]s, and no wall clock or
//! OS entropy is read — clippy's determinism ban (see this crate's
//! `lib.rs`) covers this file.

use crate::detmap::DetHashMap;
use crate::rpc::{Lane, NodeError};
use std::sync::Mutex;

/// Per-node circuit-breaker state.
///
/// `Closed` is the healthy steady state. After
/// [`HealthConfig::circuit_threshold`] consecutive failures the circuit
/// opens: the node is deprioritized by [`NodeHealth::rank_nodes`] and
/// [`NodeHealth::allow`] refuses discretionary traffic until
/// [`HealthConfig::circuit_cooldown`] has elapsed, after which a single
/// canary request probes the node (`HalfOpen`). A canary success closes
/// the circuit; a canary failure re-opens it for another cooldown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitState {
    /// Healthy: requests flow normally.
    Closed,
    /// Tripped: discretionary requests are refused until cooldown.
    Open,
    /// Cooling down: exactly one canary probe may be in flight.
    HalfOpen,
}

/// How aggressively to hedge outstanding sends.
///
/// Selected via the `TQ_HEDGE` environment knob in benches and via
/// [`NodeHealth::set_policy`] programmatically. `Off` is the default and
/// keeps every transport's behavior bit-identical to the pre-hedging
/// code paths.
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

impl HedgePolicy {
    /// Parse the `TQ_HEDGE` knob value (`off`/`p90`/`p99`,
    /// case-insensitive). Unknown values fall back to `Off`.
    pub fn from_knob(s: &str) -> HedgePolicy {
        match s.to_ascii_lowercase().as_str() {
            "p90" => HedgePolicy::P90,
            "p99" => HedgePolicy::P99,
            _ => HedgePolicy::Off,
        }
    }
}

/// Tuning for the health estimator. Two scales ship because virtual sim
/// time and real wall time differ by orders of magnitude; a single floor
/// would either never clamp in one domain or always clamp in the other.
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Deviation multiplier in the timeout formula `srtt + k·rttvar`.
    pub k: u64,
    /// Lower clamp on adaptive per-node timeouts (cold-start floor).
    pub min_timeout: u64,
    /// Upper clamp on adaptive per-node timeouts.
    pub max_timeout: u64,
    /// Minimum hedge delay — never hedge faster than this.
    pub hedge_floor: u64,
    /// Consecutive failures that trip the circuit open.
    pub circuit_threshold: u32,
    /// Time the circuit stays open before a half-open canary probe.
    pub circuit_cooldown: u64,
    /// Samples required before the estimator is trusted for hedging.
    pub warmup_samples: u32,
}

impl HealthConfig {
    /// Magnitudes for the virtual-nanosecond clock of
    /// [`crate::sim::SimTransport`] (delays are tens to thousands of
    /// virtual ns, round timeouts a few thousand).
    pub fn sim_scale() -> HealthConfig {
        HealthConfig {
            k: 4,
            min_timeout: 100,
            max_timeout: 1_000_000,
            hedge_floor: 50,
            circuit_threshold: 8,
            circuit_cooldown: 20_000,
            warmup_samples: 3,
        }
    }

    /// Magnitudes for real wall-clock nanoseconds (channel/TCP
    /// transports): microseconds to seconds.
    pub fn real_scale() -> HealthConfig {
        HealthConfig {
            k: 4,
            min_timeout: 1_000_000,     // 1 ms
            max_timeout: 2_000_000_000, // 2 s
            hedge_floor: 200_000,       // 200 µs
            circuit_threshold: 8,
            circuit_cooldown: 1_000_000_000, // 1 s
            warmup_samples: 3,
        }
    }
}

/// A node whose warmed-up srtt is at least this many times the fleet's
/// median warmed-up srtt counts as a straggler for routing purposes
/// (see [`NodeHealth::straggler`]). Well clear of ordinary jitter, well
/// under the 10–100× degradation a failing disk or saturated peer
/// shows.
pub const STRAGGLER_MULT: u64 = 4;

/// What a completed call told us about a node. Derived from the
/// round outcome by [`outcome_of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The node answered within its deadline (any application-level
    /// verdict — an honest rejection is still a healthy node).
    Ok,
    /// The node was unreachable, timed out, or shed load: it could not
    /// answer. Feeds the failure counters and the circuit breaker.
    Unavailable {
        /// True when the failure was a deadline expiry specifically —
        /// inflates the timeout estimate in addition to the circuit.
        timed_out: bool,
    },
}

/// Classify a [`NodeError`] into a health [`Outcome`].
///
/// Application-level refusals (version conflicts, not-found, bad
/// arguments) mean the node is alive and fast — they count as `Ok` for
/// health purposes. Only availability failures feed the circuit.
pub fn outcome_of(err: &NodeError) -> Outcome {
    match err {
        NodeError::Down | NodeError::TransportClosed | NodeError::Overloaded => {
            Outcome::Unavailable { timed_out: false }
        }
        NodeError::TimedOut => Outcome::Unavailable { timed_out: true },
        _ => Outcome::Ok,
    }
}

/// A point-in-time view of one node's health, for reports and debugging.
#[derive(Debug, Clone, Copy)]
pub struct NodeSnapshot {
    /// Node index.
    pub node: usize,
    /// Smoothed round-trip estimate (time units), 0 if never sampled.
    pub srtt: u64,
    /// Smoothed deviation (time units).
    pub rttvar: u64,
    /// Current adaptive timeout, if the estimator is warm.
    pub timeout: Option<u64>,
    /// Successful completions observed.
    pub ok: u64,
    /// Availability failures observed (includes timeouts).
    pub errors: u64,
    /// Deadline expiries observed.
    pub timeouts: u64,
    /// Circuit-breaker state.
    pub circuit: CircuitState,
}

#[derive(Debug, Clone, Copy)]
struct NodeStat {
    srtt: u64,
    rttvar: u64,
    samples: u32,
    ok: u64,
    errors: u64,
    timeouts: u64,
    consec_failures: u32,
    backoff_shift: u32,
    circuit: CircuitState,
    opened_at: u64,
    canary_inflight: bool,
}

impl NodeStat {
    fn fresh() -> NodeStat {
        NodeStat {
            srtt: 0,
            rttvar: 0,
            samples: 0,
            ok: 0,
            errors: 0,
            timeouts: 0,
            consec_failures: 0,
            backoff_shift: 0,
            circuit: CircuitState::Closed,
            opened_at: 0,
            canary_inflight: false,
        }
    }

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

    fn raw_timeout(&self, cfg: &HealthConfig) -> u64 {
        let base = self.srtt.saturating_add(cfg.k.saturating_mul(self.rttvar));
        // The kill point sits a factor of two above the p99-style
        // estimate: a hedge fired at the quantile needs a window to win
        // before the deadline declares the call dead. Exponential
        // backoff after consecutive timeouts, capped so the shift
        // cannot overflow or exceed the max clamp.
        base.saturating_mul(2)
            .saturating_mul(1 << self.backoff_shift.min(6))
            .clamp(cfg.min_timeout, cfg.max_timeout)
    }
}

#[derive(Debug)]
struct HealthInner {
    cfg: HealthConfig,
    policy: HedgePolicy,
    now: u64,
    nodes: DetHashMap<usize, NodeStat>,
    budget: BudgetInner,
    hedges_fired: u64,
    hedges_won: u64,
    hedge_dups: u64,
    retries_spent: u64,
}

/// Running totals of hedge activity — the one hedge ledger: the
/// dispatch driver writes it, `OpReport` and the DST's `CaseReport` read
/// it.
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

impl HedgeCounters {
    /// Component-wise difference (`self - earlier`), saturating.
    pub fn since(&self, earlier: &HedgeCounters) -> HedgeCounters {
        HedgeCounters {
            fired: self.fired.saturating_sub(earlier.fired),
            won: self.won.saturating_sub(earlier.won),
            dups: self.dups.saturating_sub(earlier.dups),
            retries: self.retries.saturating_sub(earlier.retries),
        }
    }
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
    /// New registry with the given tuning and hedging off.
    pub fn new(cfg: HealthConfig) -> NodeHealth {
        NodeHealth {
            inner: Mutex::new(HealthInner {
                cfg,
                policy: HedgePolicy::Off,
                now: 0,
                nodes: DetHashMap::default(),
                budget: BudgetInner::new(100, 16),
                hedges_fired: 0,
                hedges_won: 0,
                hedge_dups: 0,
                retries_spent: 0,
            }),
        }
    }

    /// Registry tuned for the sim's virtual clock, hedging off.
    pub fn sim_scale() -> NodeHealth {
        NodeHealth::new(HealthConfig::sim_scale())
    }

    /// Registry tuned for wall-clock nanoseconds, hedging off.
    pub fn real_scale() -> NodeHealth {
        NodeHealth::new(HealthConfig::real_scale())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HealthInner> {
        // A poisoned health mutex only means a panicking thread died while
        // updating counters; the data is still internally consistent.
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Select the hedging policy. `Off` (the default) disables hedging
    /// and adaptive deadlines entirely, keeping transports on their
    /// fixed-deadline paths.
    pub fn set_policy(&self, policy: HedgePolicy) {
        self.lock().policy = policy;
    }

    /// The current hedging policy.
    pub fn policy(&self) -> HedgePolicy {
        self.lock().policy
    }

    /// True when hedging (and with it, adaptive deadlines and
    /// first-quorum write completion) is enabled.
    pub fn hedging_enabled(&self) -> bool {
        self.lock().policy != HedgePolicy::Off
    }

    /// Advance the registry's clock (monotone: earlier values are
    /// ignored). The dispatch driver calls this with its link's clock at
    /// every round start and completion: virtual time under the sim,
    /// monotonic wall nanoseconds on the real transports.
    pub fn advance_now(&self, now: u64) {
        let mut g = self.lock();
        if now > g.now {
            g.now = now;
        }
    }

    /// Record a successful round-trip sample for `node`.
    pub fn record_sample(&self, node: usize, rtt: u64) {
        let mut g = self.lock();
        g.nodes
            .entry(node)
            .or_insert_with(NodeStat::fresh)
            .sample(rtt);
    }

    /// Record a call outcome for `node`, driving the failure counters,
    /// the circuit breaker, and the retry budget (successes earn
    /// budget).
    pub fn record_outcome(&self, node: usize, outcome: Outcome) {
        let mut g = self.lock();
        let now = g.now;
        let threshold = g.cfg.circuit_threshold;
        match outcome {
            Outcome::Ok => {
                g.budget.earn();
                let st = g.nodes.entry(node).or_insert_with(NodeStat::fresh);
                st.ok += 1;
                st.consec_failures = 0;
                st.backoff_shift = 0;
                st.canary_inflight = false;
                st.circuit = CircuitState::Closed;
            }
            Outcome::Unavailable { timed_out } => {
                let st = g.nodes.entry(node).or_insert_with(NodeStat::fresh);
                st.errors += 1;
                if timed_out {
                    st.timeouts += 1;
                    st.backoff_shift = st.backoff_shift.saturating_add(1);
                }
                st.consec_failures = st.consec_failures.saturating_add(1);
                match st.circuit {
                    CircuitState::HalfOpen => {
                        // Canary failed: back to a full cooldown.
                        st.circuit = CircuitState::Open;
                        st.opened_at = now;
                        st.canary_inflight = false;
                    }
                    CircuitState::Closed if st.consec_failures >= threshold => {
                        st.circuit = CircuitState::Open;
                        st.opened_at = now;
                    }
                    _ => {}
                }
            }
        }
    }

    /// Feed the outcome of an erred call, classifying the error first.
    pub fn record_error(&self, node: usize, err: &NodeError) {
        self.record_outcome(node, outcome_of(err));
    }

    /// The adaptive per-node deadline (`2·(srtt + k·rttvar)`, backoff-
    /// inflated after timeouts, clamped), or `None` while the estimator
    /// is cold — callers fall back to their fixed deadline. The factor
    /// of two keeps the kill point above every hedge quantile, so a
    /// hedge always has a window to win before the call is abandoned.
    pub fn timeout_for(&self, node: usize) -> Option<u64> {
        let g = self.lock();
        let st = g.nodes.get(&node)?;
        if st.samples < g.cfg.warmup_samples {
            return None;
        }
        Some(st.raw_timeout(&g.cfg))
    }

    /// How long to wait before speculatively re-issuing a send to
    /// `node`: a quantile of the latency estimate selected by the
    /// policy, floored at [`HealthConfig::hedge_floor`]. `None` when
    /// hedging is off or the estimator is cold.
    pub fn hedge_delay(&self, node: usize) -> Option<u64> {
        let g = self.lock();
        let mult = match g.policy {
            HedgePolicy::Off => return None,
            HedgePolicy::P90 => 2,
            HedgePolicy::P99 => 4,
        };
        let st = g.nodes.get(&node)?;
        if st.samples < g.cfg.warmup_samples {
            return None;
        }
        // Clamp to 2·srtt: on a stable node rttvar decays toward zero and
        // `srtt + k·rttvar` degenerates to ≈srtt, which would hedge every
        // queueing blip. A request that has waited less than twice the
        // node's typical latency is not yet a straggler.
        let d = st.srtt.saturating_add(mult * st.rttvar);
        Some(d.max(2 * st.srtt).max(g.cfg.hedge_floor))
    }

    /// Circuit gate for discretionary traffic (maintenance routing,
    /// replacement fetches). `Closed` nodes always pass; `Open` nodes
    /// refuse until the cooldown elapses, then admit exactly one canary
    /// probe at a time (`HalfOpen`). Quorum-critical sends should *not*
    /// consult this — a required member must always be tried.
    pub fn allow(&self, node: usize) -> bool {
        let mut g = self.lock();
        let (now, cooldown) = (g.now, g.cfg.circuit_cooldown);
        let st = g.nodes.entry(node).or_insert_with(NodeStat::fresh);
        match st.circuit {
            CircuitState::Closed => true,
            CircuitState::Open => {
                if now >= st.opened_at.saturating_add(cooldown) {
                    st.circuit = CircuitState::HalfOpen;
                    st.canary_inflight = true;
                    true
                } else {
                    false
                }
            }
            CircuitState::HalfOpen => {
                if st.canary_inflight {
                    false
                } else {
                    st.canary_inflight = true;
                    true
                }
            }
        }
    }

    /// True when the estimator marks `node` as one the router should
    /// read *around*: its circuit is not closed, or its warmed-up
    /// latency estimate sits at least [`STRAGGLER_MULT`]× above the
    /// fleet's median warmed-up estimate. The test is relative, not
    /// absolute — a uniformly slow fleet has no stragglers — and a cold
    /// node is never a straggler (no evidence, no demotion).
    pub fn straggler(&self, node: usize) -> bool {
        let g = self.lock();
        let Some(st) = g.nodes.get(&node) else {
            return false;
        };
        if !matches!(st.circuit, CircuitState::Closed) {
            return true;
        }
        if st.samples < g.cfg.warmup_samples {
            return false;
        }
        let mut warmed: Vec<u64> = g
            .nodes
            .values()
            .filter(|s| s.samples >= g.cfg.warmup_samples)
            .map(|s| s.srtt)
            .collect();
        warmed.sort_unstable();
        let median = warmed[warmed.len() / 2].max(1);
        st.srtt / median >= STRAGGLER_MULT
    }

    /// Order `nodes` healthiest-first: closed circuits before half-open
    /// before open, then by latency estimate, then by node id for
    /// determinism. Unknown nodes rank as healthy-but-unmeasured.
    pub fn rank_nodes(&self, nodes: &mut [usize]) {
        let g = self.lock();
        nodes.sort_by_key(|&n| {
            let st = g.nodes.get(&n);
            let circuit_rank = match st.map_or(CircuitState::Closed, |s| s.circuit) {
                CircuitState::Closed => 0u8,
                CircuitState::HalfOpen => 1,
                CircuitState::Open => 2,
            };
            (circuit_rank, st.map_or(0, |s| s.srtt), n)
        });
    }

    /// Spend one retry token for a discretionary re-issue (hedge,
    /// refetch, reconnect). Background-lane callers must leave a
    /// foreground reserve. Returns false when the budget is exhausted —
    /// the caller skips the re-issue rather than queueing.
    pub fn try_spend(&self, lane: Lane) -> bool {
        let mut g = self.lock();
        if g.budget.try_spend(lane) {
            g.retries_spent += 1;
            true
        } else {
            false
        }
    }

    /// Count a speculative re-issue actually sent.
    pub fn note_hedge_fired(&self) {
        self.lock().hedges_fired += 1;
    }

    /// Count a hedged reply that completed its slot first.
    pub fn note_hedge_won(&self) {
        self.lock().hedges_won += 1;
    }

    /// Count a late duplicate reply absorbed after its slot completed.
    pub fn note_hedge_dup(&self) {
        self.lock().hedge_dups += 1;
    }

    /// Snapshot the running hedge/retry totals. `QuorumRound` diffs this
    /// across a `multicall` to attribute hedge activity to the round.
    pub fn hedge_counters(&self) -> HedgeCounters {
        let g = self.lock();
        HedgeCounters {
            fired: g.hedges_fired,
            won: g.hedges_won,
            dups: g.hedge_dups,
            retries: g.retries_spent,
        }
    }

    /// Per-node snapshots, ordered by node id.
    pub fn snapshot(&self) -> Vec<NodeSnapshot> {
        let g = self.lock();
        let mut ids: Vec<usize> = g.nodes.keys().copied().collect();
        ids.sort_unstable();
        ids.iter()
            .map(|&node| {
                let st = &g.nodes[&node];
                NodeSnapshot {
                    node,
                    srtt: st.srtt,
                    rttvar: st.rttvar,
                    timeout: (st.samples >= g.cfg.warmup_samples).then(|| st.raw_timeout(&g.cfg)),
                    ok: st.ok,
                    errors: st.errors,
                    timeouts: st.timeouts,
                    circuit: st.circuit,
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Retry budget
// ---------------------------------------------------------------------------

/// Token-bucket retry budget: re-issues are capped at a fraction of
/// observed successes, so retries can never multiply a cluster-wide
/// slowdown into a storm.
///
/// Accounting is in milli-tokens: each success earns `earn_permille`
/// (default 100 ⇒ retries ≤ 10% of successes in steady state), each
/// spend costs 1000. A small starting balance covers cold start;
/// background-lane spends must additionally leave a one-token foreground
/// reserve. Shareable (`&self` methods, internal mutex).
#[derive(Debug)]
pub struct RetryBudget {
    inner: Mutex<BudgetInner>,
}

#[derive(Debug, Clone, Copy)]
struct BudgetInner {
    millitokens: u64,
    earn_permille: u64,
    cap: u64,
}

const SPEND_COST: u64 = 1000;
const BACKGROUND_RESERVE: u64 = 1000;
const INITIAL_TOKENS: u64 = 3;

impl BudgetInner {
    fn new(earn_permille: u64, cap_tokens: u64) -> BudgetInner {
        BudgetInner {
            millitokens: INITIAL_TOKENS * SPEND_COST,
            earn_permille,
            cap: cap_tokens * SPEND_COST,
        }
    }

    fn earn(&mut self) {
        self.millitokens = (self.millitokens + self.earn_permille).min(self.cap);
    }

    fn try_spend(&mut self, lane: Lane) -> bool {
        let floor = match lane {
            Lane::Foreground => 0,
            Lane::Background => BACKGROUND_RESERVE,
        };
        if self.millitokens >= SPEND_COST + floor {
            self.millitokens -= SPEND_COST;
            true
        } else {
            false
        }
    }
}

impl RetryBudget {
    /// New budget earning `earn_permille`/1000 tokens per success,
    /// holding at most `cap_tokens`.
    pub fn new(earn_permille: u64, cap_tokens: u64) -> RetryBudget {
        RetryBudget {
            inner: Mutex::new(BudgetInner::new(earn_permille, cap_tokens)),
        }
    }

    /// Budget with the default 10% ratio and a 16-token cap.
    pub fn default_ratio() -> RetryBudget {
        RetryBudget::new(100, 16)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BudgetInner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Credit one observed success.
    pub fn earn(&self) {
        self.lock().earn();
    }

    /// Try to spend one retry token. See [`NodeHealth::try_spend`].
    pub fn try_spend(&self, lane: Lane) -> bool {
        self.lock().try_spend(lane)
    }

    /// Current whole-token balance (for tests and reports).
    pub fn balance(&self) -> u64 {
        self.lock().millitokens / SPEND_COST
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_converges_on_steady_rtt() {
        let h = NodeHealth::new(HealthConfig::sim_scale());
        for _ in 0..64 {
            h.record_sample(3, 800);
        }
        let snap = &h.snapshot()[0];
        // srtt converges to the true value; rttvar decays toward zero.
        assert!(snap.srtt.abs_diff(800) <= 8, "srtt={}", snap.srtt);
        assert!(snap.rttvar <= 16, "rttvar={}", snap.rttvar);
        let t = h.timeout_for(3).unwrap();
        assert!((100..2400).contains(&t), "timeout={t}");
    }

    #[test]
    fn estimator_tracks_a_step_change() {
        let h = NodeHealth::new(HealthConfig::sim_scale());
        for _ in 0..32 {
            h.record_sample(0, 200);
        }
        for _ in 0..64 {
            h.record_sample(0, 2000);
        }
        let snap = &h.snapshot()[0];
        assert!(snap.srtt > 1800, "srtt={}", snap.srtt);
    }

    #[test]
    fn cold_estimator_reports_none() {
        let h = NodeHealth::new(HealthConfig::sim_scale());
        assert_eq!(h.timeout_for(0), None);
        h.record_sample(0, 500);
        // Below warmup_samples: still cold.
        assert_eq!(h.timeout_for(0), None);
        h.record_sample(0, 500);
        h.record_sample(0, 500);
        assert!(h.timeout_for(0).is_some());
    }

    #[test]
    fn timeouts_inflate_the_deadline_and_success_resets_it() {
        let h = NodeHealth::new(HealthConfig::sim_scale());
        for _ in 0..8 {
            h.record_sample(1, 400);
        }
        let base = h.timeout_for(1).unwrap();
        h.record_outcome(1, Outcome::Unavailable { timed_out: true });
        h.record_outcome(1, Outcome::Unavailable { timed_out: true });
        let backed_off = h.timeout_for(1).unwrap();
        assert!(backed_off >= base * 2, "{backed_off} vs {base}");
        h.record_outcome(1, Outcome::Ok);
        assert_eq!(h.timeout_for(1).unwrap(), base);
    }

    #[test]
    fn circuit_opens_half_opens_and_closes() {
        let h = NodeHealth::new(HealthConfig::sim_scale());
        let cooldown = HealthConfig::sim_scale().circuit_cooldown;
        // Trip the circuit.
        for _ in 0..8 {
            h.record_outcome(5, Outcome::Unavailable { timed_out: false });
        }
        assert_eq!(h.snapshot()[0].circuit, CircuitState::Open);
        assert!(!h.allow(5), "open circuit must refuse before cooldown");
        // After the cooldown: exactly one canary is admitted.
        h.advance_now(cooldown + 1);
        assert!(h.allow(5), "first post-cooldown probe is the canary");
        assert_eq!(h.snapshot()[0].circuit, CircuitState::HalfOpen);
        assert!(!h.allow(5), "only one canary may be in flight");
        // Canary success closes the circuit.
        h.record_outcome(5, Outcome::Ok);
        assert_eq!(h.snapshot()[0].circuit, CircuitState::Closed);
        assert!(h.allow(5));
    }

    #[test]
    fn failed_canary_reopens_for_a_full_cooldown() {
        let h = NodeHealth::new(HealthConfig::sim_scale());
        let cooldown = HealthConfig::sim_scale().circuit_cooldown;
        for _ in 0..8 {
            h.record_outcome(2, Outcome::Unavailable { timed_out: false });
        }
        h.advance_now(cooldown + 1);
        assert!(h.allow(2));
        h.record_outcome(2, Outcome::Unavailable { timed_out: false });
        assert_eq!(h.snapshot()[0].circuit, CircuitState::Open);
        assert!(!h.allow(2), "re-opened circuit refuses again");
        h.advance_now(2 * cooldown + 2);
        assert!(h.allow(2), "second cooldown admits another canary");
    }

    #[test]
    fn app_level_rejections_do_not_trip_the_circuit() {
        let h = NodeHealth::new(HealthConfig::sim_scale());
        for _ in 0..32 {
            h.record_error(
                4,
                &NodeError::VersionConflict {
                    expected: 1,
                    actual: 2,
                },
            );
        }
        assert_eq!(h.snapshot()[0].circuit, CircuitState::Closed);
        assert_eq!(h.snapshot()[0].errors, 0);
    }

    #[test]
    fn hedge_delay_follows_policy() {
        let h = NodeHealth::new(HealthConfig::sim_scale());
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
        let h = NodeHealth::new(HealthConfig::sim_scale());
        for _ in 0..8 {
            h.record_sample(0, 5000); // slow but healthy
            h.record_sample(1, 100); // fast
            h.record_outcome(2, Outcome::Unavailable { timed_out: false });
        }
        let mut nodes = vec![0, 1, 2, 3];
        h.rank_nodes(&mut nodes);
        // 2 has an open circuit → last; 3 unknown (srtt 0) → first;
        // 1 beats 0 on latency.
        assert_eq!(nodes, vec![3, 1, 0, 2]);
    }

    #[test]
    fn straggler_is_relative_to_the_fleet_median() {
        let h = NodeHealth::new(HealthConfig::sim_scale());
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
        let u = NodeHealth::new(HealthConfig::sim_scale());
        for _ in 0..8 {
            for node in 0..9 {
                u.record_sample(node, 30_000);
            }
        }
        assert!(!u.straggler(0), "a uniformly slow fleet has no stragglers");
        // An open circuit is a straggler regardless of latency.
        for _ in 0..32 {
            u.record_outcome(3, Outcome::Unavailable { timed_out: false });
        }
        assert!(u.straggler(3), "open circuit routes around");
    }

    #[test]
    fn retry_budget_starvation_bound() {
        // With zero successes the budget allows at most its initial
        // balance, then refuses forever.
        let b = RetryBudget::new(100, 16);
        let mut spends = 0;
        for _ in 0..100 {
            if b.try_spend(Lane::Foreground) {
                spends += 1;
            }
        }
        assert_eq!(spends, 3, "cold-start allowance only");
        assert!(!b.try_spend(Lane::Foreground));
    }

    #[test]
    fn retry_budget_tracks_success_fraction() {
        let b = RetryBudget::new(100, 1000);
        for _ in 0..200 {
            b.earn();
        }
        // 200 successes at 10% ⇒ 20 tokens + 3 initial.
        let mut spends = 0;
        while b.try_spend(Lane::Foreground) {
            spends += 1;
        }
        assert_eq!(spends, 23);
    }

    #[test]
    fn background_lane_leaves_a_foreground_reserve() {
        let b = RetryBudget::new(100, 16);
        // Drain to exactly one token via background spends: the last
        // token is reserved for foreground.
        let mut bg = 0;
        while b.try_spend(Lane::Background) {
            bg += 1;
        }
        assert_eq!(bg, 2, "background stops above the reserve");
        assert!(b.try_spend(Lane::Foreground), "reserve is spendable by fg");
        assert!(!b.try_spend(Lane::Foreground));
    }

    #[test]
    fn hedge_counters_diff() {
        let h = NodeHealth::new(HealthConfig::sim_scale());
        h.note_hedge_fired();
        h.note_hedge_fired();
        h.note_hedge_won();
        let before = h.hedge_counters();
        h.note_hedge_fired();
        h.note_hedge_dup();
        let d = h.hedge_counters().since(&before);
        assert_eq!(
            d,
            HedgeCounters {
                fired: 1,
                won: 0,
                dups: 1,
                retries: 0
            }
        );
    }

    #[test]
    fn policy_knob_parses() {
        assert_eq!(HedgePolicy::from_knob("off"), HedgePolicy::Off);
        assert_eq!(HedgePolicy::from_knob("P90"), HedgePolicy::P90);
        assert_eq!(HedgePolicy::from_knob("p99"), HedgePolicy::P99);
        assert_eq!(HedgePolicy::from_knob("bogus"), HedgePolicy::Off);
    }
}
