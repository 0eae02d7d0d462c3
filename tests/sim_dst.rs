//! Deterministic-simulation matrix over the store backends.
//!
//! Every seed drives an adversarial workload (message loss, duplication,
//! reordering, one-directional partitions, crash-restart with durable or
//! volatile disks, and — on the at-least-once axis — cross-round
//! redelivery of stale requests and replies) against each of the four
//! `QuorumStore` backends
//! through the seeded virtual-time `SimTransport`, with every operation
//! validated online by the `dst::HistoryChecker`. A failing seed is
//! minimized to its shortest failing op prefix and written to
//! `target/sim-dst/failing-seeds.txt` so CI can upload it as an
//! artifact; replaying the same `CaseConfig` reproduces the violation
//! bit-for-bit.
//!
//! Every case runs the client exactly as `TcpTransport` ships it: each
//! round waits the fabric's fixed deadline and nothing is re-sent, and
//! every write level awaits all of its members. The scenario links draw
//! heavy-tailed service times, and the workloads degrade nodes into
//! gray stragglers. Both matrices assert the gray axis is live: the
//! health registry flagged a grayed node while many reads completed, so
//! the read path's straggler-aware `k`-shard poll and replacement
//! fetches ran under the checker. They assert the same of Case 2:
//! enough reads were decoded (a refused or stale home node, the
//! `k`-shard poll) under loss, crash and corruption schedules.
//!
//! `TQ_DST_SEED_BASE` offsets the seed range — the scheduled CI job sets
//! it to a fresh random base on every run.

use std::sync::Arc;

use trapezoid_quorum::protocol::{
    BatchReads, BatchWrite, BatchWrites, OpReport, ProtocolError, ReadOutcome, RebuildReport,
    ScrubReport, StoreInfo, WriteOutcome,
};
use trapezoid_quorum::sim::dst::{
    self, minimize, run_case, Backend, CaseConfig, HistoryChecker, Scenario, ViolationKind,
    WorkloadOp,
};
use trapezoid_quorum::{BlockAddr, NetworkModel, QuorumStore, SimTransport};

fn seed_base() -> u64 {
    match std::env::var("TQ_DST_SEED_BASE") {
        // A set-but-unparsable base must fail loudly: silently falling
        // back to 0 would make the nightly randomized sweep re-test the
        // fixed matrix forever while reporting green.
        Ok(s) => s
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("TQ_DST_SEED_BASE {s:?} is not a u64: {e}")),
        Err(_) => 0,
    }
}

/// The acceptance matrix: 64 seeds × all four backends, scenarios
/// rotating per seed so every backend meets every adversarial regime.
/// Every node runs the shipped append-only log on a simulated disk
/// whose crashes lose what was never synced; the storage fault axis
/// (failed fsyncs that poison a log until its next crash-restart, slow
/// reads) is switched on for every other seed, and the *corrupting*
/// axis (bit-flipped and misdirected payload reads) on every fourth, so
/// each scenario runs with pristine disks, with failing ones, and with
/// rotting ones. A corrupting node that slipped a bad
/// block past the checksums would surface as a `ForeignValue` or
/// `VersionValueConflict` violation here.
#[test]
fn seed_matrix_stays_checker_clean_across_all_backends() {
    let scenarios = Scenario::all();
    let base = seed_base();
    let mut failures = Vec::new();
    let (mut commits, mut reads_ok, mut corrupted) = (0u64, 0u64, 0u64);
    let (mut gray_flagged, mut decoded, mut poisoned) = (0u64, 0u64, 0u64);

    for seed in 0..64u64 {
        let mut scenario = scenarios[(seed % scenarios.len() as u64) as usize].clone();
        if seed % 2 == 1 {
            scenario = scenario.with_storage_faults();
        } else if seed % 4 == 2 {
            scenario = scenario.with_corruption();
        }
        for backend in Backend::ALL {
            let cfg = CaseConfig {
                seed: base.wrapping_add(seed),
                backend,
                scenario: scenario.clone(),
                ops: 28,
            };
            let report = run_case(&cfg);
            commits += report.stats.commits;
            reads_ok += report.stats.reads_ok;
            decoded += report.stats.reads_decoded;
            corrupted += report.disks.iter().map(|d| d.corrupted_reads).sum::<u64>();
            poisoned += report.disks.iter().map(|d| d.poisoned_replays).sum::<u64>();
            gray_flagged += report.stats.gray_flagged_reads;
            if report.violation.is_some() {
                let minimal = minimize(&cfg).expect("violation reproduces");
                failures.push(format!(
                    "seed={} backend={} scenario={} minimized_ops={} violation={}",
                    cfg.seed,
                    backend.label(),
                    scenario.name,
                    minimal.config.ops,
                    minimal
                        .violation
                        .as_ref()
                        .expect("minimized case still violates"),
                ));
            }
        }
    }

    if !failures.is_empty() {
        let dir = std::path::Path::new("target/sim-dst");
        let _ = std::fs::create_dir_all(dir);
        let _ = std::fs::write(dir.join("failing-seeds.txt"), failures.join("\n"));
        panic!(
            "{} consistency violation(s) — replay with the CaseConfig above:\n{}",
            failures.len(),
            failures.join("\n")
        );
    }

    // Non-vacuity: the adversarial schedules must still let plenty of
    // operations complete, or the checker proved nothing — and the
    // corruption seeds must have actually served corrupted copies, or
    // the integrity claim is vacuous too.
    assert!(commits > 300, "workload vacuous: only {commits} commits");
    assert!(reads_ok > 600, "workload vacuous: only {reads_ok} reads");
    assert!(
        corrupted > 200,
        "corruption axis vacuous: only {corrupted} corrupted reads served"
    );
    // A log a failed fsync poisoned must have been replayed by a later
    // crash-restart, or the fail-stop-then-recover path never ran (5–12
    // per matrix at seed bases 0, 1000, 5000 and 20000).
    assert!(
        poisoned > 0,
        "storage axis vacuous: no poisoned log was replayed"
    );
    // The gray axis must reach the health registry: reads completed
    // while a grayed node was flagged a straggler, or the clean verdict
    // says nothing about the straggler-aware read path. Seed bases 0,
    // 1000, 5000 and 20000 give 101–176 such reads.
    assert!(
        gray_flagged > 40,
        "gray axis vacuous: only {gray_flagged} reads completed while a grayed node was flagged"
    );
    // Case 2 — the k-shard poll and the decode behind it — must have
    // served reads under these schedules, not only healthy home nodes.
    assert!(
        decoded > 100,
        "decode path vacuous: only {decoded} decoded reads across the matrix"
    );
}

/// The at-least-once acceptance matrix: the same 64 seeds × 4 backends,
/// all under a schedule with cross-round redelivery and heavy
/// duplication enabled. Zero violations here is the end-to-end claim of
/// the idempotent command API: stale `WriteData`s landing rounds late
/// ack harmlessly against the monotone guards, duplicated folds are
/// absorbed by the applied-op window, and stale acks surfacing in later
/// rounds are discarded by op-id identity instead of faking quorums.
#[test]
fn at_least_once_matrix_stays_checker_clean_across_all_backends() {
    let base = seed_base();
    let mut failures = Vec::new();
    let (mut commits, mut reads_ok, mut redelivered) = (0u64, 0u64, 0u64);
    let (mut decoded, mut gray_flagged, mut poisoned) = (0u64, 0u64, 0u64);

    for seed in 0..64u64 {
        // The storage fault and corruption axes rotate through this
        // matrix too: at-least-once delivery, failing disks and rotting
        // disks all compose.
        let scenario = if seed % 2 == 1 {
            Scenario::at_least_once().with_storage_faults()
        } else if seed % 4 == 2 {
            Scenario::at_least_once().with_corruption()
        } else {
            Scenario::at_least_once()
        };
        for backend in Backend::ALL {
            let cfg = CaseConfig {
                seed: base.wrapping_add(seed),
                backend,
                scenario: scenario.clone(),
                ops: 28,
            };
            let report = run_case(&cfg);
            commits += report.stats.commits;
            reads_ok += report.stats.reads_ok;
            decoded += report.stats.reads_decoded;
            redelivered += report.sim.redelivered;
            poisoned += report.disks.iter().map(|d| d.poisoned_replays).sum::<u64>();
            gray_flagged += report.stats.gray_flagged_reads;
            if report.violation.is_some() {
                let minimal = minimize(&cfg).expect("violation reproduces");
                failures.push(format!(
                    "seed={} backend={} scenario={} minimized_ops={} violation={}",
                    cfg.seed,
                    backend.label(),
                    scenario.name,
                    minimal.config.ops,
                    minimal
                        .violation
                        .as_ref()
                        .expect("minimized case still violates"),
                ));
            }
        }
    }

    if !failures.is_empty() {
        let dir = std::path::Path::new("target/sim-dst");
        let _ = std::fs::create_dir_all(dir);
        let _ = std::fs::write(dir.join("failing-seeds.txt"), failures.join("\n"));
        panic!(
            "{} consistency violation(s) under at-least-once delivery:\n{}",
            failures.len(),
            failures.join("\n")
        );
    }

    // Non-vacuity: plenty of completed work *and* plenty of genuinely
    // stale cross-round traffic, or the at-least-once axis proved
    // nothing.
    assert!(commits > 300, "workload vacuous: only {commits} commits");
    assert!(reads_ok > 600, "workload vacuous: only {reads_ok} reads");
    assert!(
        redelivered > 500,
        "at-least-once vacuous: only {redelivered} cross-round redeliveries"
    );
    // The gray axis reaches the registry here too (91–143 reads at seed
    // bases 0, 1000, 5000 and 20000).
    assert!(
        gray_flagged > 40,
        "gray axis vacuous: only {gray_flagged} reads completed while a grayed node was flagged"
    );
    // And Case 2 must have run under redelivered, duplicated traffic.
    assert!(
        decoded > 100,
        "decode path vacuous: only {decoded} decoded reads under at-least-once"
    );
    assert!(
        poisoned > 0,
        "storage axis vacuous: no poisoned log was replayed"
    );
}

/// The repro contract: one `CaseConfig` fully determines the run.
#[test]
fn any_seed_replays_bit_for_bit() {
    for (i, backend) in Backend::ALL.into_iter().enumerate() {
        for scenario in [Scenario::chaos(), Scenario::at_least_once()] {
            let cfg = CaseConfig {
                seed: 0xDEAD_BEEF + i as u64,
                backend,
                scenario,
                ops: 30,
            };
            let first = run_case(&cfg);
            let second = run_case(&cfg);
            assert_eq!(first, second, "{} replay diverged", backend.label());
        }
    }
}

/// A clean case has nothing to minimize.
#[test]
fn minimize_returns_none_without_a_violation() {
    let cfg = CaseConfig {
        seed: 3,
        backend: Backend::Majority,
        scenario: Scenario::loss_and_reorder(),
        ops: 20,
    };
    assert!(minimize(&cfg).is_none());
}

/// A store wrapper with a deliberate version-regression bug: reads
/// report one version lower than the quorum served. The checker must
/// catch it on the first read after a completed write.
struct VersionRegressingStore {
    inner: Box<dyn QuorumStore>,
}

impl QuorumStore for VersionRegressingStore {
    fn info(&self) -> StoreInfo {
        self.inner.info()
    }
    fn create(&self, stripe: u64, blocks: Vec<Vec<u8>>) -> Result<OpReport, ProtocolError> {
        self.inner.create(stripe, blocks)
    }
    fn read(&self, addr: BlockAddr) -> Result<ReadOutcome, ProtocolError> {
        self.inner.read(addr).map(|mut out| {
            out.version = out.version.saturating_sub(1); // the bug
            out
        })
    }
    fn write(&self, addr: BlockAddr, new: &[u8]) -> Result<WriteOutcome, ProtocolError> {
        self.inner.write(addr, new)
    }
    fn read_batch(&self, addrs: &[BlockAddr]) -> BatchReads {
        self.inner.read_batch(addrs)
    }
    fn write_batch(&self, items: &[BatchWrite<'_>]) -> BatchWrites {
        self.inner.write_batch(items)
    }
    fn scrub(&self, stripe: u64) -> Result<ScrubReport, ProtocolError> {
        self.inner.scrub(stripe)
    }
    fn rebuild_node_stripes(
        &self,
        ids: &[u64],
        node: usize,
    ) -> Result<Vec<RebuildReport>, ProtocolError> {
        self.inner.rebuild_node_stripes(ids, node)
    }
}

#[test]
fn injected_version_regression_is_caught_by_the_checker() {
    let cluster = trapezoid_quorum::Cluster::new(dst::CLUSTER_NODES);
    let sim = Arc::new(SimTransport::with_model(
        cluster,
        99,
        NetworkModel::reliable(),
    ));
    let initial: Vec<Vec<u8>> = (0..dst::BLOCKS).map(|i| dst::payload(i as u8)).collect();
    let store = Backend::TrapErc.build(Arc::clone(&sim));
    store.create(dst::STRIPE, initial.clone()).unwrap();
    let buggy = VersionRegressingStore { inner: store };

    let calm = Scenario {
        name: "calm",
        model: NetworkModel::reliable(),
        weights: [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        wipe_prob: 0.0,
        max_down: 0,
        max_wiped: 0,
        storage_faults: None,
    };
    let ops = vec![
        WorkloadOp::Write {
            block: 0,
            fill: 0xAB,
        },
        WorkloadOp::Read { block: 0 },
    ];
    let mut checker = HistoryChecker::new(&initial);
    let (_stats, violation) = dst::run_workload(&buggy, &sim, &calm, &ops, &mut checker);
    let v = violation.expect("the checker must catch the injected regression");
    assert!(
        matches!(v.kind, ViolationKind::StaleRead { floor: 1, got: 0 }),
        "unexpected violation {v:?}"
    );
    assert_eq!(v.op_index, 1, "caught at the read, the minimal prefix");
    assert_eq!(v.block, 0);
}

/// Volatile crashes lose disks; the quiesced scrub reinstalls them and
/// the history stays clean through the loss-and-recovery cycle.
#[test]
fn volatile_crash_recovery_cycle_is_clean_on_every_backend() {
    for backend in Backend::ALL {
        let scenario = Scenario::crash_restart();
        let ops = vec![
            WorkloadOp::Write {
                block: 1,
                fill: 0x11,
            },
            WorkloadOp::Crash {
                node: 1,
                durable: false,
                after: 100,
            },
            WorkloadOp::Advance { dt: 10_000 },
            WorkloadOp::Read { block: 1 },
            WorkloadOp::Write {
                block: 1,
                fill: 0x22,
            },
            WorkloadOp::Scrub,
            WorkloadOp::Read { block: 1 },
            WorkloadOp::Write {
                block: 1,
                fill: 0x33,
            },
            WorkloadOp::Read { block: 1 },
        ];
        let cluster = trapezoid_quorum::Cluster::new(dst::CLUSTER_NODES);
        let sim = Arc::new(SimTransport::with_model(
            cluster,
            7,
            NetworkModel::reliable(),
        ));
        let initial: Vec<Vec<u8>> = (0..dst::BLOCKS).map(|i| dst::payload(i as u8)).collect();
        let store = backend.build(Arc::clone(&sim));
        store.create(dst::STRIPE, initial.clone()).unwrap();
        let mut checker = HistoryChecker::new(&initial);
        let (stats, violation) =
            dst::run_workload(store.as_ref(), &sim, &scenario, &ops, &mut checker);
        assert!(violation.is_none(), "{}: {:?}", backend.label(), violation);
        assert!(stats.scrubs_ok >= 1, "{}", backend.label());
    }
}
