//! The exact availability oracle: the shipped client, driven through
//! every one of the 2ⁿ up-sets of its cluster, against the structural
//! predicates of its quorum system.
//!
//! For each up-set `up` and each backend:
//!
//! * a read is `Ok` ⇔ `is_read_available(up)`, and an `Ok` read returns
//!   the last written bytes;
//! * a hinted write (the embedded read reaches every node, the write
//!   fan-out only `up`) is `Ok` ⇔ `is_write_available(up)`;
//! * a faithful write is `Ok` ⇔ both, and a read that follows an `Ok`
//!   write under the same `up` returns the new bytes;
//! * every outcome is monotone: success on `A` implies success on every
//!   `B ⊇ A`, which needs no predicate at all.
//!
//! The state space is small enough to enumerate: 512 up-sets for the
//! (9, 6) stripe, 32 768 for (15, 8). Each write works on a stripe of
//! its own, so no operation sees another's residue. Mismatches must be
//! zero: a plan change that flips even one up-set fails here, where a
//! Monte-Carlo estimate at 4 σ would not notice.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use trapezoid_quorum::cluster::{Envelope, NodeError, NodeId, Reply, Transport};
use trapezoid_quorum::quorum::majority::MajorityQuorum;
use trapezoid_quorum::quorum::rowa::Rowa;
use trapezoid_quorum::quorum::{NodeSet, QuorumSystem, TrapezoidQuorum};
use trapezoid_quorum::{
    BlockAddr, Cluster, LocalTransport, ProtocolConfig, QuorumStore, Store, TrapezoidShape,
    WriteThresholds,
};

const BLOCK_LEN: usize = 16;
/// Up-sets that share one cluster before it is swapped for a blank one
/// (each up-set still works on stripes no other up-set touched).
const SETS_PER_CLUSTER: u64 = 256;

/// A `LocalTransport` behind a node mask the test sets between
/// operations. A masked node answers `Down`. With `reads_see_all` set,
/// only mutations obey the mask: that is a hinted write — the writer
/// knows the current version, the fan-out meets the failures.
#[derive(Clone)]
struct Gate(Arc<GateState>);

struct GateState {
    cluster: RwLock<LocalTransport>,
    up: AtomicU64,
    reads_see_all: AtomicBool,
}

impl Gate {
    fn new(nodes: usize) -> Self {
        Gate(Arc::new(GateState {
            cluster: RwLock::new(LocalTransport::new(Cluster::new(nodes))),
            up: AtomicU64::new(u64::MAX),
            reads_see_all: AtomicBool::new(false),
        }))
    }

    /// Swaps in a blank cluster.
    fn reset(&self) {
        let nodes = self.node_count();
        *self.0.cluster.write().unwrap() = LocalTransport::new(Cluster::new(nodes));
    }

    fn set_up(&self, mask: u64) {
        self.0.up.store(mask, Ordering::SeqCst);
    }

    fn hinted(&self, on: bool) {
        self.0.reads_see_all.store(on, Ordering::SeqCst);
    }
}

impl Transport for Gate {
    fn node_count(&self) -> usize {
        self.0.cluster.read().unwrap().node_count()
    }

    fn dispatch(&self, node: NodeId, env: Envelope) -> Reply {
        let up = self.0.up.load(Ordering::SeqCst) >> node.0 & 1 == 1;
        let sees = self.0.reads_see_all.load(Ordering::SeqCst) && !env.payload.is_mutation();
        if up || sees {
            self.0.cluster.read().unwrap().dispatch(node, env)
        } else {
            Reply::to(&env, Err(NodeError::Down))
        }
    }
}

/// One backend under the oracle.
struct Backend {
    name: &'static str,
    /// Transport nodes the store occupies (the up-set universe).
    nodes: usize,
    /// Blocks each created stripe holds.
    stripe_blocks: usize,
    /// Blocks the oracle addresses, each over every up-set.
    blocks: Vec<usize>,
    build: Box<dyn Fn(Gate) -> Box<dyn QuorumStore>>,
    /// The quorum system block `b`'s operations realise.
    system: Box<dyn Fn(usize) -> Box<dyn QuorumSystem>>,
}

fn payload(tag: u8, block: usize) -> Vec<u8> {
    vec![tag ^ (block as u8) << 4; BLOCK_LEN]
}

/// Per up-set success of each operation kind, for one block.
struct Outcomes {
    read: Vec<bool>,
    hinted: Vec<bool>,
    faithful: Vec<bool>,
}

/// Drives one block of `backend` through every up-set; returns the
/// success table and every violated expectation.
fn enumerate(backend: &Backend, block: usize) -> (Outcomes, Vec<String>) {
    let gate = Gate::new(backend.nodes);
    let store = (backend.build)(gate.clone());
    let system = (backend.system)(block);
    assert_eq!(system.node_count(), backend.nodes, "{}", backend.name);
    let sets = 1u64 << backend.nodes;
    let mut out = Outcomes {
        read: Vec::with_capacity(sets as usize),
        hinted: Vec::with_capacity(sets as usize),
        faithful: Vec::with_capacity(sets as usize),
    };
    let mut errors = Vec::new();
    let initial: Vec<Vec<u8>> = (0..backend.stripe_blocks).map(|b| payload(0, b)).collect();
    let (written, hinted_bytes, faithful_bytes) =
        (payload(1, block), payload(2, block), payload(3, block));
    // Reads leave no trace, so every up-set reads the same stripe.
    let read_stripe = 0;
    for mask in 0..sets {
        gate.set_up(u64::MAX);
        if mask % SETS_PER_CLUSTER == 0 {
            gate.reset();
            store.create(read_stripe, initial.clone()).unwrap();
            store
                .write(BlockAddr::new(read_stripe, block), &written)
                .expect("a healthy write commits");
        }
        // A fresh stripe for each write under test.
        let base = 1 + 2 * (mask % SETS_PER_CLUSTER);
        let [hinted_stripe, faithful_stripe] = [base, base + 1];
        for stripe in [hinted_stripe, faithful_stripe] {
            store.create(stripe, initial.clone()).unwrap();
        }
        let up = NodeSet::from_bits(u128::from(mask));
        let label = format!("{} block {block} up {up:?}", backend.name);
        gate.set_up(mask);

        let read = store.read(BlockAddr::new(read_stripe, block));
        if let Ok(r) = &read {
            if r.bytes != written {
                errors.push(format!("{label}: read served stale bytes"));
            }
        }
        gate.hinted(true);
        let hinted = store.write(BlockAddr::new(hinted_stripe, block), &hinted_bytes);
        gate.hinted(false);
        let faithful = store.write(BlockAddr::new(faithful_stripe, block), &faithful_bytes);
        for (ok, stripe, bytes) in [
            (hinted.is_ok(), hinted_stripe, &hinted_bytes),
            (faithful.is_ok(), faithful_stripe, &faithful_bytes),
        ] {
            if let (true, Ok(r)) = (ok, store.read(BlockAddr::new(stripe, block))) {
                if r.bytes != *bytes {
                    errors.push(format!("{label}: read after a write missed it"));
                }
            }
        }

        let (can_read, can_write) = (system.is_read_available(up), system.is_write_available(up));
        let expect = [
            ("read", read.as_ref().err().map(|e| e.to_string()), can_read),
            (
                "hinted write",
                hinted.as_ref().err().map(|e| e.to_string()),
                can_write,
            ),
            (
                "faithful write",
                faithful.as_ref().err().map(|e| e.to_string()),
                can_read && can_write,
            ),
        ];
        for (op, err, predicate) in expect {
            if err.is_none() != predicate {
                errors.push(format!(
                    "{label}: {op} predicate {predicate}, client {}",
                    err.unwrap_or_else(|| "Ok".into())
                ));
            }
        }
        out.read.push(read.is_ok());
        out.hinted.push(hinted.is_ok());
        out.faithful.push(faithful.is_ok());
    }
    for (op, table) in [
        ("read", &out.read),
        ("hinted write", &out.hinted),
        ("faithful write", &out.faithful),
    ] {
        for (mask, &ok) in table.iter().enumerate() {
            for x in (0..backend.nodes).filter(|x| mask >> x & 1 == 0) {
                if ok && !table[mask | 1 << x] {
                    errors.push(format!(
                        "{} block {block}: {op} is not monotone: ok on {mask:#b}, not after adding node {x}",
                        backend.name
                    ));
                }
            }
        }
    }
    (out, errors)
}

/// Runs every block of every backend and fails with the full list of
/// mismatches.
fn check(backends: Vec<Backend>) {
    let mut errors = Vec::new();
    for backend in &backends {
        for &block in &backend.blocks {
            let (out, mut found) = enumerate(backend, block);
            // Non-vacuity: each operation both fails and succeeds
            // somewhere over the enumeration.
            for (op, table) in [
                ("read", &out.read),
                ("hinted", &out.hinted),
                ("faithful", &out.faithful),
            ] {
                assert!(
                    table.iter().any(|&ok| ok) && table.iter().any(|&ok| !ok),
                    "{} block {block}: {op} outcome is constant",
                    backend.name
                );
            }
            errors.append(&mut found);
        }
    }
    assert!(
        errors.is_empty(),
        "{} mismatches:\n{}",
        errors.len(),
        errors.join("\n")
    );
}

fn trap_erc(n: usize, k: usize, (a, b, h): (usize, usize, usize), w: usize) -> Backend {
    let config = ProtocolConfig::with_uniform_w(n, k, a, b, h, w).unwrap();
    Backend {
        name: "trap-erc",
        nodes: n,
        stripe_blocks: k,
        blocks: (0..k).collect(),
        build: Box::new(move |gate| {
            Store::trap_erc(n, k)
                .shape(a, b, h)
                .uniform_w(w)
                .transport(gate)
                .build()
                .unwrap()
        }),
        system: Box::new(move |block| Box::new(config.system_for_block(block))),
    }
}

#[test]
fn trap_erc_9_6_matches_its_predicates_on_every_up_set() {
    check(vec![
        trap_erc(9, 6, (2, 1, 1), 1),
        trap_erc(9, 6, (2, 1, 1), 2),
    ]);
}

#[test]
fn trap_erc_15_8_matches_its_predicates_on_every_up_set() {
    // Blocks differ only by which data node is home, and the (9, 6)
    // stripe already enumerates every block: one is enough here.
    let mut backend = trap_erc(15, 8, (0, 4, 1), 2);
    backend.blocks = vec![0];
    check(vec![backend]);
}

#[test]
fn replication_backends_match_their_predicates_on_every_up_set() {
    let trap_fr = |w: usize| {
        let shape = TrapezoidShape::new(2, 1, 1).unwrap();
        let thresholds = WriteThresholds::paper_default(&shape, w).unwrap();
        Backend {
            name: "trap-fr",
            nodes: shape.node_count(),
            stripe_blocks: 6,
            blocks: vec![0, 5],
            build: Box::new(move |gate| {
                Store::trap_fr(9, 6)
                    .shape(2, 1, 1)
                    .uniform_w(w)
                    .transport(gate)
                    .build()
                    .unwrap()
            }),
            system: Box::new(move |_| Box::new(TrapezoidQuorum::new(shape, thresholds.clone()))),
        }
    };
    let rowa = |m: usize| Backend {
        name: "rowa",
        nodes: m,
        stripe_blocks: 2,
        blocks: vec![0, 1],
        build: Box::new(move |gate| Store::rowa(m).transport(gate).build().unwrap()),
        system: Box::new(move |_| Box::new(Rowa::new(m))),
    };
    let majority = |m: usize| Backend {
        name: "majority",
        nodes: m,
        stripe_blocks: 2,
        blocks: vec![0, 1],
        build: Box::new(move |gate| Store::majority(m).transport(gate).build().unwrap()),
        system: Box::new(move |_| Box::new(MajorityQuorum::new(m))),
    };
    check(vec![
        trap_fr(1),
        trap_fr(2),
        rowa(4),
        majority(4),
        majority(5),
    ]);
}
