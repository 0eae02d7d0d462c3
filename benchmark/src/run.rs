//! One run of one workload: set-up, the closed client loop, output
//! verification, and the metrics the run reports.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tq_trapezoid::{BlockAddr, StripeLockManager};

use crate::compare::END_TO_END;
use crate::gen::{mix, payload, Rng};
use crate::probes;
use crate::stats::{self, mean, median, percentile};
use crate::trace::{self, Analysis, Kind, OpBudget, NO_NODE};
use crate::workload::{addr_of, replay_lost_writes, Stack, Workload};

/// Unrecorded lead-in of every measured phase: connections are
/// established, the RTT estimators have samples, lazy tables are built.
pub const WARMUP: Duration = Duration::from_secs(1);
/// Set-ups per run; `setup_s` is their median, as the contract the
/// benchmark is run under asks (a set-up is one or two seconds, so a
/// single one is at the mercy of whatever else the host did just then).
pub const SETUP_REPEATS: usize = 3;
/// Count metrics (rounds, messages, wire bytes, decoded share) are taken
/// over this many ops from the start of client 0's stream — a fixed
/// prefix of a seeded stream, so on a deterministic stack they repeat
/// exactly, whatever number of ops the host fits into the run.
pub const PREFIX_OPS: u64 = 256;
/// Ops whose spans go to the trace file (analysis uses all of them).
const TRACE_FILE_OPS: usize = 2000;

/// Model tag of a block a failed write may have half-applied: later
/// reads of it are not compared.
const POISONED: u64 = u64::MAX;

/// The expected contents of every block: the tag of the last
/// acknowledged write (0 = the provisioned payload). A block's payload
/// is `payload(seed, block, tag)`.
pub struct Model {
    tags: Vec<AtomicU64>,
}

impl Model {
    pub fn new(blocks: u64) -> Self {
        Model {
            tags: (0..blocks).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// `(block, expected payload)` of every block a write was
    /// acknowledged for.
    fn written<'a>(&'a self, seed: u64, len: usize) -> impl Iterator<Item = (u64, Vec<u8>)> + 'a {
        self.tags.iter().enumerate().filter_map(move |(b, tag)| {
            let tag = tag.load(Ordering::Acquire);
            (tag != 0 && tag != POISONED).then(|| (b as u64, payload(seed, b as u64, tag, len)))
        })
    }
}

/// Deterministic counts over the first [`PREFIX_OPS`] ops of client 0.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Prefix {
    pub ops: u64,
    pub reads: u64,
    pub decoded_reads: u64,
    pub rounds: u64,
    pub messages: u64,
    pub wire_bytes: u64,
}

/// One measured op as its client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub latency_ns: u64,
    pub write: bool,
}

/// What the clients observed in one measured phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Ops started in the measured window.
    pub samples: Vec<Sample>,
    /// Warm-up end → last measured completion.
    pub elapsed: Duration,
    /// CPU time (user + system, every thread of the process: clients,
    /// dispatchers and the nodes' servers) spent over that window.
    pub cpu_seconds: f64,
    /// Every op issued, warm-up included: all of them are verified.
    pub attempted: u64,
    pub protocol_errors: u64,
    pub wrong_reads: u64,
    pub prefix: Prefix,
}

impl Phase {
    pub fn ops_per_s(&self) -> f64 {
        self.samples.len() as f64 / self.elapsed.as_secs_f64()
    }

    /// Ascending latencies of one op type (`None`: of every op).
    pub fn latencies(&self, write: Option<bool>) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .samples
            .iter()
            .filter(|s| write.is_none_or(|w| s.write == w))
            .map(|s| s.latency_ns)
            .collect();
        v.sort_unstable();
        v
    }
}

static TRACED_OP_SEQ: AtomicU64 = AtomicU64::new(0);

#[allow(clippy::too_many_arguments)]
fn client_loop(
    stack: &Stack,
    w: &Workload,
    model: &Model,
    locks: &StripeLockManager,
    seed: u64,
    client: u64,
    (warm_end, end): (Instant, Instant),
    traced: bool,
) -> Phase {
    let mut rng = Rng::new(mix(seed ^ mix(client + 1)));
    let keys = w.keys();
    let mut phase = Phase::default();
    let mut last_done = warm_end;
    let mut seq = 0u64;
    loop {
        if Instant::now() >= end {
            break;
        }
        let block = keys.sample(&mut rng);
        let write = rng.unit() >= w.read_share;
        let (stripe, index) = addr_of(block);
        let addr = BlockAddr::new(stripe, index);
        seq += 1;
        phase.attempted += 1;
        let in_prefix = client == 0 && seq <= PREFIX_OPS;
        let op_key = if traced {
            TRACED_OP_SEQ.fetch_add(1, Ordering::Relaxed) + 1
        } else {
            0
        };

        let (started, done, report) = if write {
            // The tag is unique per (client, op), so the payload can be
            // built before the clock starts, outside the lock.
            let tag = ((client + 1) << 40) | seq;
            let bytes = payload(seed, block, tag, w.block_len);
            let started = Instant::now();
            let span = traced.then(|| trace::enter(Kind::OpWrite, NO_NODE, op_key));
            // The write takes the block lock, as every write must
            // (Algorithm 1 is unsafe under write-write races); latency
            // includes the wait.
            let guard = {
                let _lock_span = traced.then(|| trace::enter(Kind::Lock, NO_NODE, 0));
                locks.lock(stripe, index)
            };
            let result = stack.store.write(addr, &bytes);
            drop(span);
            let done = Instant::now();
            // Still under the lock: the model changes in write order.
            let report = match result {
                Ok(out) => {
                    model.tags[block as usize].store(tag, Ordering::Release);
                    Some(out.report)
                }
                Err(_) => {
                    model.tags[block as usize].store(POISONED, Ordering::Release);
                    phase.protocol_errors += 1;
                    None
                }
            };
            drop(guard);
            (started, done, report)
        } else {
            let started = Instant::now();
            let span = traced.then(|| trace::enter(Kind::OpRead, NO_NODE, op_key));
            let result = stack.store.read(addr);
            drop(span);
            let done = Instant::now();
            let report = match result {
                Ok(out) => {
                    let tag = model.tags[block as usize].load(Ordering::Acquire);
                    let wrong_bytes =
                        tag != POISONED && out.bytes != payload(seed, block, tag, w.block_len);
                    // With the home node down, a read that was not
                    // decoded did not take the path the workload exists
                    // to measure.
                    let wrong_path = w.node0_down && !out.decoded();
                    phase.wrong_reads += u64::from(wrong_bytes || wrong_path);
                    if in_prefix {
                        phase.prefix.decoded_reads += u64::from(out.decoded());
                    }
                    Some(out.report)
                }
                Err(_) => {
                    phase.protocol_errors += 1;
                    None
                }
            };
            (started, done, report)
        };

        let wire_bytes = if traced { trace::take_wire_bytes() } else { 0 };
        if in_prefix {
            phase.prefix.ops += 1;
            phase.prefix.reads += u64::from(!write);
            phase.prefix.wire_bytes += wire_bytes;
            if let Some(report) = &report {
                phase.prefix.rounds += report.network_rounds() as u64;
                phase.prefix.messages += report.messages() as u64;
            }
        }
        if started >= warm_end {
            phase.samples.push(Sample {
                latency_ns: (done - started).as_nanos() as u64,
                write,
            });
            last_done = done;
        }
    }
    phase.elapsed = last_done - warm_end;
    phase
}

/// Runs the workload's clients against `stack`: [`WARMUP`], then
/// `seconds` measured.
pub fn drive(
    stack: &Stack,
    w: &Workload,
    model: &Model,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Phase {
    let locks = StripeLockManager::new();
    if traced {
        TRACED_OP_SEQ.store(0, Ordering::Relaxed);
    }
    let warm_end = Instant::now() + WARMUP;
    let end = warm_end + Duration::from_secs_f64(seconds);
    let mut cpu_at_warm_end = 0.0;
    let per_client: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..w.clients as u64)
            .map(|client| {
                let locks = &*locks;
                scope.spawn(move || {
                    client_loop(
                        stack,
                        w,
                        model,
                        locks,
                        seed,
                        client,
                        (warm_end, end),
                        traced,
                    )
                })
            })
            .collect();
        std::thread::sleep(warm_end.saturating_duration_since(Instant::now()));
        cpu_at_warm_end = process_cpu_seconds();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("client thread: a panic there is a benchmark bug")
            })
            .collect()
    });
    let mut phase = Phase {
        cpu_seconds: process_cpu_seconds() - cpu_at_warm_end,
        ..Phase::default()
    };
    for client in per_client {
        phase.samples.extend(client.samples);
        phase.attempted += client.attempted;
        phase.protocol_errors += client.protocol_errors;
        phase.wrong_reads += client.wrong_reads;
        if client.prefix.ops > 0 {
            phase.prefix = client.prefix;
        }
        phase.elapsed = phase.elapsed.max(client.elapsed);
    }
    phase
}

/// After a phase, outside any timed region: every written block is read
/// back through the store and compared with the model; then the cluster
/// is dropped and the logs' durable prefixes are replayed. Returns
/// `(wrong reads, lost acknowledged writes)`.
fn verify_and_drop(
    stack: Stack,
    w: &Workload,
    model: &Model,
    seed: u64,
    dir: &Path,
) -> Result<(u64, u64), String> {
    let mut wrong = 0;
    for (block, expected) in model.written(seed, w.block_len) {
        let (stripe, index) = addr_of(block);
        match stack.store.read(BlockAddr::new(stripe, index)) {
            Ok(out) if out.bytes == expected => {}
            _ => wrong += 1,
        }
    }
    let copies = if w.has_writes() && !stack.logs.is_empty() {
        stack.snapshot_durable_prefixes(dir)?
    } else {
        Vec::new()
    };
    drop(stack);
    let lost = if copies.is_empty() {
        0
    } else {
        replay_lost_writes(&copies, model.written(seed, w.block_len))?
    };
    Ok((wrong, lost))
}

/// User + system CPU time of this process so far, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks; `USER_HZ` is 100
/// on every Linux ABI).
fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after
    // its closing parenthesis, with field 3.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run reports.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines (printed before the result line).
    pub notes: Vec<String>,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// A fresh directory for this run's logs, under the benchmark's `out/`.
fn run_dir(out: &Path) -> Result<PathBuf, String> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = out.join(format!(
        "tq-benchmark-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Runs `body` with a fresh log directory and removes it afterwards,
/// whatever `body` returned.
fn in_run_dir<T>(out: &Path, body: impl FnOnce(&Path) -> Result<T, String>) -> Result<T, String> {
    let dir = run_dir(out)?;
    let result = body(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// The untraced run: every end-to-end metric.
pub fn end_to_end(w: &Workload, seed: u64, seconds: f64, out: &Path) -> Result<Outcome, String> {
    in_run_dir(out, |dir| end_to_end_in(w, seed, seconds, dir))
}

fn end_to_end_in(w: &Workload, seed: u64, seconds: f64, dir: &Path) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut stack = None;
    for _ in 0..SETUP_REPEATS {
        drop(stack.take());
        let started = Instant::now();
        stack = Some(Stack::build(w, seed, false, dir)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let stack = stack.expect("SETUP_REPEATS >= 1");
    let model = Model::new(w.blocks());
    let phase = drive(&stack, w, &model, seed, seconds, false);
    // Before verification: the replay's log copies are the checker's
    // memory, not the system's.
    let rss = peak_rss_mib();
    let (wrong_final, lost) = verify_and_drop(stack, w, &model, seed, dir)?;

    let all = phase.latencies(None);
    let writes = phase.samples.iter().filter(|s| s.write).count();
    let failed = phase.protocol_errors + phase.wrong_reads + wrong_final + lost;
    // Names, units and order come from `END_TO_END`; the pin test runs
    // this, so a metric listed there and not measured here fails it.
    let metrics = END_TO_END
        .iter()
        .map(|spec| {
            let value = match spec.name {
                "ops_per_s" => phase.ops_per_s(),
                "op_p50_us" => us(percentile(&all, 0.50)),
                "setup_s" => median(&setups),
                "peak_rss_mib" => rss,
                other => unreachable!("`{other}` is listed and not measured"),
            };
            metric(spec.name, value, spec.unit)
        })
        .collect();
    let mut notes = vec![format!(
        "{}: {} measured ops in {:.3} s ({} reads, {} writes), {} attempted, \
         {} protocol errors, {} wrong reads, {} lost acknowledged writes; logs under {}",
        w.name,
        all.len(),
        phase.elapsed.as_secs_f64(),
        all.len() - writes,
        writes,
        phase.attempted,
        phase.protocol_errors,
        phase.wrong_reads + wrong_final,
        lost,
        dir.display(),
    )];
    notes.push(format!(
        "{}: set-ups {:.3?} s; p99 {:.1} us ({} samples beyond it), {:.2} CPU s",
        w.name,
        setups,
        us(percentile(&all, 0.99)),
        stats::beyond(all.len(), 0.99),
        phase.cpu_seconds,
    ));
    Ok(Outcome {
        attempted: phase.attempted,
        failed,
        metrics,
        notes,
    })
}

/// The traced run: every per-layer metric. Half of `seconds` on an
/// undecorated stack (the reference for the trace's overhead and the
/// per-op-type latencies), half on a decorated one, then the probes.
pub fn per_layer(w: &Workload, seed: u64, seconds: f64, out: &Path) -> Result<Outcome, String> {
    in_run_dir(out, |dir| {
        let mut outcome = per_layer_in(w, seed, seconds, dir, out)?;
        outcome.metrics.extend(probes::run_all(seed, dir)?);
        Ok(outcome)
    })
}

fn per_layer_in(
    w: &Workload,
    seed: u64,
    seconds: f64,
    dir: &Path,
    out: &Path,
) -> Result<Outcome, String> {
    let half = seconds / 2.0;

    let stack = Stack::build(w, seed, false, dir)?;
    let model = Model::new(w.blocks());
    let plain = drive(&stack, w, &model, seed, half, false);
    let (plain_wrong, plain_lost) = verify_and_drop(stack, w, &model, seed, dir)?;

    let stack = Stack::build(w, seed, true, dir)?;
    drop(trace::collect()); // provisioning is not part of the trace
    let appended_before: u64 = stack
        .timed_backends
        .iter()
        .map(|b| b.appended_bytes())
        .sum();
    let model = Model::new(w.blocks());
    let traced = drive(&stack, w, &model, seed, half, true);
    let appended: u64 = stack
        .timed_backends
        .iter()
        .map(|b| b.appended_bytes())
        .sum::<u64>()
        - appended_before;
    let spans = trace::collect();
    let (traced_wrong, traced_lost) = verify_and_drop(stack, w, &model, seed, dir)?;
    drop(trace::collect()); // verification reads

    let a = trace::analyse(&spans);
    let trace_path = out.join(format!("trace-{}.jsonl", w.name));
    std::fs::File::create(&trace_path)
        .and_then(|f| {
            let mut f = std::io::BufWriter::new(f);
            trace::write_jsonl(&spans, TRACE_FILE_OPS, &mut f)?;
            std::io::Write::flush(&mut f)
        })
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    let ops = a.ops.len().max(1) as f64;
    let writes = a.ops.iter().filter(|o| o.write).count();
    let per = |total_ns: u64, n: u64| {
        if n == 0 {
            0.0
        } else {
            us(total_ns) / n as f64
        }
    };
    let prefix = traced.prefix;
    let per_prefix_op = |count: u64| count as f64 / prefix.ops.max(1) as f64;
    let mut rtts = a.rtts.clone();
    rtts.sort_unstable();
    let multicall_rounds: u64 = a.ops.iter().map(|o| o.multicall_rounds).sum();
    let round_ns: u64 = a.ops.iter().map(|o| o.round_ns).sum();
    // What a fan-out round costs beyond a lone dispatch to the same
    // node: (round span − blocking call's node.execute), less the mean
    // transport self time of the lone dispatches in this same phase.
    let transport_self_us = per(a.lone_transport_ns, a.lone_dispatches);
    let fanout_residual_us = if multicall_rounds == 0 {
        0.0
    } else {
        per(round_ns, multicall_rounds) - transport_self_us
    };
    // Both sides include the phase's warm-up: every traced write is in the
    // analysis, and `appended` was sampled around the whole phase.
    let user_bytes = (writes * w.block_len) as u64;
    let budgets = budget_tables(&a);
    let unexplained = budgets
        .iter()
        .map(|b| b.unexplained_share)
        .fold(0.0, f64::max);

    let tail_us = |sorted: &[u64]| stats::tail(sorted, 0.99).map_or(0.0, us);
    let (plain_reads, plain_writes) = (plain.latencies(Some(false)), plain.latencies(Some(true)));
    let metrics = vec![
        metric("e2e.read_p50_us", us(percentile(&plain_reads, 0.5)), "us"),
        metric("e2e.write_p50_us", us(percentile(&plain_writes, 0.5)), "us"),
        metric("e2e.read_p99_us", tail_us(&plain_reads), "us"),
        metric("e2e.write_p99_us", tail_us(&plain_writes), "us"),
        metric(
            "e2e.cpu_us_per_op",
            plain.cpu_seconds * 1e6 / plain.samples.len().max(1) as f64,
            "us",
        ),
        metric(
            "core.self_us_per_op",
            us(a.ops.iter().map(|o| o.core_ns).sum()) / ops,
            "us",
        ),
        metric("core.rounds_per_op", per_prefix_op(prefix.rounds), "count"),
        metric(
            "core.messages_per_op",
            per_prefix_op(prefix.messages),
            "count",
        ),
        metric(
            "core.decoded_read_share",
            prefix.decoded_reads as f64 / prefix.reads.max(1) as f64,
            "ratio",
        ),
        metric(
            "core.lock_wait_us_per_write",
            per(a.ops.iter().map(|o| o.lock_ns).sum(), writes as u64),
            "us",
        ),
        metric(
            "cluster.quorum_round.fanout_residual_us_per_round",
            fanout_residual_us,
            "us",
        ),
        metric(
            "cluster.transport.rtt_p50_us",
            us(percentile(&rtts, 0.5)),
            "us",
        ),
        metric("cluster.transport.self_us_per_msg", transport_self_us, "us"),
        metric(
            "cluster.transport.failed_msg_share",
            a.failed_calls as f64 / a.awaited_calls.max(1) as f64,
            "ratio",
        ),
        metric(
            "cluster.wire.bytes_per_op",
            per_prefix_op(prefix.wire_bytes),
            "B",
        ),
        metric(
            "cluster.node.self_us_per_msg",
            per(a.node_self_ns, a.node_spans),
            "us",
        ),
        metric(
            "cluster.storage.get_us_per_call",
            per(a.get_ns, a.gets),
            "us",
        ),
        metric(
            "cluster.storage.put_us_per_call",
            per(a.put_ns, a.puts),
            "us",
        ),
        metric("cluster.storage.put_max_us", us(a.put_max_ns), "us"),
        metric(
            "cluster.storage.flush_us_per_call",
            per(a.flush_ns, a.flushes),
            "us",
        ),
        metric("cluster.storage.puts_per_op", a.puts as f64 / ops, "count"),
        metric(
            "cluster.storage.flush_calls_per_op",
            a.flushes as f64 / ops,
            "count",
        ),
        metric(
            "cluster.storage.log_bytes_per_user_byte",
            if user_bytes == 0 {
                0.0
            } else {
                appended as f64 / user_bytes as f64
            },
            "ratio",
        ),
        metric(
            "trace.overhead_share",
            1.0 - traced.ops_per_s() / plain.ops_per_s(),
            "ratio",
        ),
        metric("trace.unexplained_share", unexplained, "ratio"),
    ];
    let mut notes = vec![format!(
        "{}: untraced {:.1} ops/s over {} ops, traced {:.1} ops/s over {} ops, {} spans; \
         first {} ops' spans in {}",
        w.name,
        plain.ops_per_s(),
        plain.samples.len(),
        traced.ops_per_s(),
        traced.samples.len(),
        spans.len(),
        TRACE_FILE_OPS,
        trace_path.display(),
    )];
    notes.push(format!(
        "{}: counts over the first {} ops of client 0's stream: {:?}",
        w.name, prefix.ops, prefix
    ));
    for b in &budgets {
        notes.extend(b.render(w.name));
    }
    Ok(Outcome {
        attempted: plain.attempted + traced.attempted,
        failed: plain.protocol_errors
            + plain.wrong_reads
            + plain_wrong
            + plain_lost
            + traced.protocol_errors
            + traced.wrong_reads
            + traced_wrong
            + traced_lost,
        metrics,
        notes,
    })
}

/// The blocking-path budget of the ops around one op type's median.
#[derive(Debug)]
pub struct Budget {
    pub op: &'static str,
    pub p50_us: f64,
    pub band_ops: usize,
    /// `(layer, mean microseconds over the band)`.
    pub rows: Vec<(&'static str, f64)>,
    /// Share of the band's latency billed to no layer: the trace's own
    /// wire counting plus rounds whose blocking call could not be joined
    /// to a node span.
    pub unexplained_share: f64,
}

impl Budget {
    fn render(&self, workload: &str) -> Vec<String> {
        let mut lines = vec![format!(
            "{workload}: {} budget over the {} traced ops between p45 and p55 (p50 {:.1} us):",
            self.op, self.band_ops, self.p50_us
        )];
        for (layer, us) in &self.rows {
            lines.push(format!(
                "{workload}:   {layer:<44} {us:>10.1} us  {:>5.1} %",
                100.0 * us / self.p50_us.max(1e-9)
            ));
        }
        lines.push(format!(
            "{workload}:   {:<44} {:>10} {:>9.1} %",
            "unexplained (share of the band's mean)",
            "",
            100.0 * self.unexplained_share
        ));
        lines
    }
}

/// One budget per op type the workload issues: the mean, per layer, over
/// the traced ops whose latency lies between the type's 45th and 55th
/// percentile — so the rows add up to (about) the traced p50.
pub fn budget_tables(a: &Analysis) -> Vec<Budget> {
    let mut tables = Vec::new();
    for (op, write) in [("read", false), ("write", true)] {
        let mut of_type: Vec<&OpBudget> = a.ops.iter().filter(|o| o.write == write).collect();
        if of_type.len() < 20 {
            continue;
        }
        of_type.sort_by_key(|o| o.total_ns);
        let sorted: Vec<u64> = of_type.iter().map(|o| o.total_ns).collect();
        let (lo, hi) = (percentile(&sorted, 0.45), percentile(&sorted, 0.55));
        let band: Vec<&&OpBudget> = of_type
            .iter()
            .filter(|o| (lo..=hi).contains(&o.total_ns))
            .collect();
        let avg = |f: fn(&OpBudget) -> u64| mean(band.iter().map(|o| us(f(o))));
        let total = avg(|o| o.total_ns);
        let explained = avg(|o| o.explained_ns());
        tables.push(Budget {
            op,
            p50_us: us(percentile(&sorted, 0.5)),
            band_ops: band.len(),
            rows: vec![
                (
                    "core (self: plan, delta, verify, decode)",
                    avg(|o| o.core_ns),
                ),
                ("core.lock (wait)", avg(|o| o.lock_ns)),
                (
                    "cluster.transport (lone dispatch - node)",
                    avg(|o| o.transport_ns),
                ),
                (
                    "cluster.quorum_round (multicall - node)",
                    avg(|o| o.round_ns),
                ),
                ("cluster.node (execute - storage)", avg(|o| o.node_ns)),
                ("cluster.storage.get", avg(|o| o.get_ns)),
                ("cluster.storage.put", avg(|o| o.put_ns)),
                ("cluster.storage.flush", avg(|o| o.flush_ns)),
                (
                    "trace.wire_count (the trace's own)",
                    avg(|o| o.wire_count_ns),
                ),
                ("unmatched rounds", avg(|o| o.unmatched_ns)),
            ],
            unexplained_share: if total > 0.0 {
                (total - explained) / total
            } else {
                0.0
            },
        });
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workload::{find, WORKLOADS};
    use std::sync::Mutex;

    /// The span registry is process-wide, so traced runs must not
    /// overlap; and runs that share two cores would only slow each other.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn out() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join("test")
    }

    fn value(outcome: &Outcome, name: &str) -> f64 {
        outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} missing"))
            .value
    }

    /// One second of the workload, half untraced and half traced, with
    /// every read compared, every written block read back and the logs'
    /// durable prefixes replayed.
    fn smoke(name: &str) -> Outcome {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let w = find(name).expect("known workload");
        let outcome = in_run_dir(&out(), |dir| per_layer_in(w, 7, 1.0, dir, &out())).unwrap();
        assert!(outcome.attempted > 0);
        assert_eq!(outcome.failed, 0, "failed_ops_share must be 0 on {name}");
        assert!(value(&outcome, "trace.unexplained_share") < 0.25);
        outcome
    }

    #[test]
    fn smoke_mixed_4k() {
        let o = smoke("mixed_4k");
        assert_eq!(value(&o, "core.decoded_read_share"), 0.0);
        assert!(value(&o, "cluster.storage.flush_us_per_call") > 0.0);
        assert!(value(&o, "cluster.transport.self_us_per_msg") > 0.0);
        // Data node + three parity nodes append the block once each.
        let amplification = value(&o, "cluster.storage.log_bytes_per_user_byte");
        assert!((4.0..4.5).contains(&amplification), "{amplification}");
    }

    #[test]
    fn smoke_write_4k() {
        let o = smoke("write_4k");
        assert_eq!(value(&o, "core.decoded_read_share"), 0.0);
        assert_eq!(value(&o, "e2e.read_p50_us"), 0.0, "no reads on write_4k");
        assert_eq!(value(&o, "core.rounds_per_op"), 5.0);
        assert_eq!(value(&o, "core.messages_per_op"), 7.0);
    }

    #[test]
    fn smoke_degraded_read_64k() {
        let o = smoke("degraded_read_64k");
        assert_eq!(value(&o, "core.decoded_read_share"), 1.0);
        // No write ever reaches storage, and node 0 answers `Down`.
        assert_eq!(value(&o, "cluster.storage.puts_per_op"), 0.0);
        assert_eq!(value(&o, "cluster.storage.flush_calls_per_op"), 0.0);
        assert!(value(&o, "cluster.transport.failed_msg_share") > 0.0);
    }

    #[test]
    fn smoke_local_mixed_4k_counts_repeat_exactly() {
        let a = smoke("local_mixed_4k");
        let b = smoke("local_mixed_4k");
        assert_eq!(value(&a, "core.decoded_read_share"), 0.0);
        assert_eq!(value(&a, "cluster.transport.self_us_per_msg"), 0.0);
        for name in [
            "core.rounds_per_op",
            "core.messages_per_op",
            "cluster.wire.bytes_per_op",
        ] {
            assert_eq!(
                value(&a, name).to_bits(),
                value(&b, name).to_bits(),
                "{name} must be bit-identical for one seed"
            );
        }
    }

    /// `BENCHMARK.json` is written by hand; this pins it to what the
    /// program emits and to the limits of the contract it is read under.
    #[test]
    fn benchmark_json_matches_the_program() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| spec.get(key).and_then(Value::as_array).unwrap().to_vec();
        let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();
        let legal_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let legal_unit = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (listed, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text(listed, "name"), w.name);
            assert_eq!(text(listed, "why"), w.why);
            assert!(
                w.why.chars().count() <= 200 && !w.why.contains('\n'),
                "{}",
                w.name
            );
            assert!(legal_name(w.name));
        }

        let w = find("local_mixed_4k").unwrap();
        let e2e = end_to_end(w, 7, 1.0, &out()).unwrap();
        assert_eq!(e2e.failed, 0);
        let listed = list("end_to_end");
        assert_eq!(listed.len(), END_TO_END.len());
        for ((listed, spec), emitted) in listed.iter().zip(&END_TO_END).zip(&e2e.metrics) {
            assert_eq!(text(listed, "name"), spec.name);
            assert_eq!(text(listed, "unit"), spec.unit);
            assert_eq!(text(listed, "better"), spec.better.as_str());
            assert_eq!(
                listed.get("bound").and_then(Value::as_f64),
                Some(spec.bound)
            );
            assert!(spec.bound <= 0.25);
            assert_eq!((emitted.name, emitted.unit), (spec.name, spec.unit));
            assert!(emitted.value > 0.0, "{} must never be 0", spec.name);
            assert!(legal_name(spec.name) && legal_unit(spec.unit));
        }

        let layers = per_layer(w, 7, 1.0, &out()).unwrap();
        let listed = list("per_layer");
        assert!(listed.len() <= 128);
        assert_eq!(
            listed
                .iter()
                .map(|l| (text(l, "name"), text(l, "unit")))
                .collect::<Vec<_>>(),
            layers
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect::<Vec<_>>()
        );
        for l in &listed {
            assert!(legal_name(&text(l, "name")) && legal_unit(&text(l, "unit")));
            assert!(["higher", "lower"].contains(&text(l, "better").as_str()));
        }
    }
}
