//! The four workloads and the stacks they run on.
//!
//! Common set-up: one process hosts everything; TRAP-ERC (n=9, k=6),
//! trapezoid (a=2, b=1, h=1), `uniform_w(2)`; library defaults
//! throughout (`verify_reads` on, `durable_acks` on, hedging off).
//! Closed loop: a block-device caller waits for its reply.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tq_cluster::{
    AppendLogBackend, Cluster, FsyncPolicy, LocalTransport, MemoryBackend, NodeApi, NodeId,
    StorageBackend, StorageNode, TcpNodeServer, TcpTransport,
};
use tq_trapezoid::{QuorumStore, Store};

use crate::gen::{payload, Keys, Zipf};
use crate::trace::{TimedBackend, TimedNode, TimedTransport};

pub const N: usize = 9;
pub const K: usize = 6;
/// Stripe ids start here (0 is a legal id; 1 matches the repo's benches).
pub const BASE_STRIPE: u64 = 1;
const ZIPF_THETA: f64 = 0.99;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackKind {
    /// 9 `TcpNodeServer`s on loopback, `TcpTransport::connect`,
    /// `AppendLogBackend(FsyncPolicy::Always)` — the stack that ships.
    TcpLog,
    /// `LocalTransport` + `MemoryBackend`: no sockets, threads or disk.
    LocalMemory,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyDist {
    Zipf,
    Uniform,
    HomeNodeZero,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub stack: StackKind,
    pub stripes: u64,
    pub block_len: usize,
    pub clients: usize,
    /// Share of ops that are reads.
    pub read_share: f64,
    pub keys: KeyDist,
    /// Fail-stop node 0 after provisioning (`StorageNode::set_up(false)`,
    /// the paper's failure model): every read of a block whose home is
    /// `N_0` is Algorithm 2 Case 2.
    pub node0_down: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "mixed_4k",
        why: "Reference 70/30 zipf traffic on the stack that ships (TCP + fsync'd log, 4 KiB): sockets, thread hand-offs and sequential rounds do most of the work, coding almost none.",
        stack: StackKind::TcpLog,
        stripes: 1024,
        block_len: 4096,
        clients: 1,
        read_share: 0.70,
        keys: KeyDist::Zipf,
        node0_down: false,
    },
    Workload {
        name: "write_4k",
        why: "Same stack, 2 clients, 100 % uniform writes: five rounds, seven messages and append+fsync per op; where group commit, round fusion or a read-side gain that taxes writes shows.",
        stack: StackKind::TcpLog,
        stripes: 1024,
        block_len: 4096,
        clients: 2,
        read_share: 0.0,
        keys: KeyDist::Uniform,
        node0_down: false,
    },
    Workload {
        name: "degraded_read_64k",
        why: "Home node fail-stopped, so every read fetches, verifies and decodes k shards of 64 KiB: coding, check vectors and wire bytes do most of the work, fsync none.",
        stack: StackKind::TcpLog,
        stripes: 128,
        block_len: 65536,
        clients: 1,
        read_share: 1.0,
        keys: KeyDist::HomeNodeZero,
        node0_down: true,
    },
    Workload {
        name: "local_mixed_4k",
        why: "mixed_4k traffic on LocalTransport + MemoryBackend: the instant-delivery baseline (planning, coding, node CPU only); a transport or storage change must not move it.",
        stack: StackKind::LocalMemory,
        stripes: 1024,
        block_len: 4096,
        clients: 1,
        read_share: 0.70,
        keys: KeyDist::Zipf,
        node0_down: false,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn blocks(&self) -> u64 {
        self.stripes * K as u64
    }

    pub fn keys(&self) -> Keys {
        match self.keys {
            KeyDist::Zipf => Keys::Zipf(Zipf::new(self.blocks(), ZIPF_THETA)),
            KeyDist::Uniform => Keys::Uniform {
                blocks: self.blocks(),
            },
            KeyDist::HomeNodeZero => Keys::HomeNodeZero {
                stripes: self.stripes,
                k: K as u64,
            },
        }
    }

    pub fn has_writes(&self) -> bool {
        self.read_share < 1.0
    }
}

/// `(stripe id, block index)` of a flat block number.
pub fn addr_of(block: u64) -> (u64, usize) {
    (BASE_STRIPE + block / K as u64, (block % K as u64) as usize)
}

/// A running cluster with a provisioned store in front of it.
///
/// Field order is drop order: the store (and with it the transport's
/// connections) goes first, so the servers' connection threads see EOF
/// and exit at once instead of at their next poll tick.
pub struct Stack {
    pub store: Box<dyn QuorumStore>,
    /// Held for their lifetime only: dropping a server stops its node.
    _servers: Vec<TcpNodeServer>,
    pub logs: Vec<Arc<AppendLogBackend>>,
    /// Present on a traced stack only.
    pub timed_backends: Vec<Arc<TimedBackend>>,
}

impl Stack {
    /// Builds the workload's cluster, provisions every stripe with
    /// seeded payloads through `QuorumStore::create` (not
    /// `provision_striped`, which zero-fills), and applies the
    /// workload's fault. The node logs go to a fresh subdirectory of
    /// `run_dir` and stay there until the run removes `run_dir`: the
    /// filesystem may turn an unlink into discards, and those must not
    /// land in a measured window.
    pub fn build(w: &Workload, seed: u64, traced: bool, run_dir: &Path) -> Result<Stack, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = run_dir.join(format!("stack-{}", NEXT.fetch_add(1, Ordering::Relaxed)));
        let mut logs = Vec::new();
        let mut timed_backends = Vec::new();
        let mut backends: Vec<Arc<dyn StorageBackend>> = Vec::new();
        for i in 0..N {
            let plain: Arc<dyn StorageBackend> = match w.stack {
                StackKind::TcpLog => {
                    let log = Arc::new(
                        AppendLogBackend::open(
                            dir.join(format!("node-{i}.log")),
                            FsyncPolicy::Always,
                        )
                        .map_err(|e| format!("open log for node {i}: {e}"))?,
                    );
                    logs.push(Arc::clone(&log));
                    if traced {
                        let timed = Arc::new(TimedBackend::log(log, i));
                        timed_backends.push(Arc::clone(&timed));
                        timed
                    } else {
                        log
                    }
                }
                StackKind::LocalMemory => {
                    let memory: Arc<dyn StorageBackend> = Arc::new(MemoryBackend::new());
                    if traced {
                        let timed = Arc::new(TimedBackend::memory(memory, i));
                        timed_backends.push(Arc::clone(&timed));
                        timed
                    } else {
                        memory
                    }
                }
            };
            backends.push(plain);
        }

        let builder = Store::trap_erc(N, K).shape(2, 1, 1).uniform_w(2);
        let (store, servers, nodes) = match w.stack {
            StackKind::TcpLog => {
                let nodes: Vec<Arc<StorageNode>> = backends
                    .into_iter()
                    .enumerate()
                    .map(|(i, b)| Arc::new(StorageNode::builder(NodeId(i)).backend(b).build()))
                    .collect();
                let mut servers = Vec::new();
                for node in &nodes {
                    let api: Arc<dyn NodeApi> = if traced {
                        Arc::new(TimedNode::new(Arc::clone(node)))
                    } else {
                        Arc::clone(node) as Arc<dyn NodeApi>
                    };
                    servers.push(
                        TcpNodeServer::spawn(api, "127.0.0.1:0")
                            .map_err(|e| format!("bind loopback listener: {e}"))?,
                    );
                }
                let transport =
                    TcpTransport::connect(servers.iter().map(|s| s.local_addr()).collect());
                let store = if traced {
                    builder
                        .transport(TimedTransport::concurrent(transport))
                        .build()
                } else {
                    builder.transport(transport).build()
                };
                (store, servers, nodes)
            }
            StackKind::LocalMemory => {
                let cluster = Cluster::with_backends(N, |i| Arc::clone(&backends[i]));
                let nodes: Vec<Arc<StorageNode>> = cluster.nodes().cloned().collect();
                let transport = LocalTransport::new(cluster);
                let store = if traced {
                    builder
                        .transport(TimedTransport::sequential(transport))
                        .build()
                } else {
                    builder.transport(transport).build()
                };
                (store, Vec::new(), nodes)
            }
        };
        let store = store.map_err(|e| format!("build store: {e}"))?;

        for stripe in 0..w.stripes {
            let blocks = (0..K as u64)
                .map(|b| payload(seed, stripe * K as u64 + b, 0, w.block_len))
                .collect();
            store
                .create(BASE_STRIPE + stripe, blocks)
                .map_err(|e| format!("provision stripe {stripe}: {e}"))?;
        }
        if w.node0_down {
            nodes[0].set_up(false);
        }
        Ok(Stack {
            store,
            _servers: servers,
            logs,
            timed_backends,
        })
    }

    /// Copies each node's log, truncated to its durable prefix
    /// (`synced_len()`), into `scratch` — what the worst legal crash
    /// would leave behind. Call with the stack quiet.
    pub fn snapshot_durable_prefixes(&self, scratch: &Path) -> Result<Vec<PathBuf>, String> {
        use std::io::{Read, Write};
        let mut copies = Vec::new();
        for (i, log) in self.logs.iter().enumerate() {
            let copy = scratch.join(format!("replay-{i}.log"));
            let mut prefix = Vec::new();
            std::fs::File::open(log.log_path())
                .and_then(|f| f.take(log.synced_len()).read_to_end(&mut prefix))
                .map_err(|e| format!("read {}: {e}", log.log_path().display()))?;
            std::fs::File::create(&copy)
                .and_then(|mut f| f.write_all(&prefix))
                .map_err(|e| format!("write {}: {e}", copy.display()))?;
            copies.push(copy);
        }
        Ok(copies)
    }
}

/// Durability replay, run after the cluster is dropped: reopens each
/// truncated log copy (`AppendLogBackend::open_ephemeral`: `open`, and the
/// copy is deleted when the backend drops) and reads back every
/// block the run wrote. Returns how many acknowledged writes the
/// reopened logs do not hold (`expected` yields `(block, payload)`).
pub fn replay_lost_writes(
    copies: &[PathBuf],
    expected: impl Iterator<Item = (u64, Vec<u8>)>,
) -> Result<u64, String> {
    let mut reopened = Vec::new();
    for copy in copies {
        reopened.push(
            AppendLogBackend::open_ephemeral(copy, FsyncPolicy::Manual)
                .map_err(|e| format!("reopen {}: {e}", copy.display()))?,
        );
    }
    let mut lost = 0;
    for (block, bytes) in expected {
        let (stripe, index) = addr_of(block);
        let held = match reopened[index].get(stripe) {
            Ok(Some(tq_cluster::StoredBlock::Data { bytes: held, .. })) => held[..] == bytes[..],
            _ => false,
        };
        lost += u64::from(!held);
    }
    Ok(lost)
}
