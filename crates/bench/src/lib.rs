//! # tq-bench — shared helpers for the Criterion benchmark harness
//!
//! Each bench target regenerates one artefact of the paper's evaluation
//! (its data rows are printed to stderr at bench start-up, so `cargo
//! bench` output contains the figures) and then measures the cost of the
//! computations behind it:
//!
//! | target | regenerates | measures |
//! |---|---|---|
//! | `fig2_write_availability` | Fig. 2 rows | eq. 9 evaluation |
//! | `fig3_read_availability` | Fig. 3 rows | eq. 10/13 evaluation, protocol reads FR vs ERC |
//! | `fig4_read_redundancy` | Fig. 4 rows | eq. 13 across redundancy levels |
//! | `fig5_storage_space` | Fig. 5 rows | stripe provisioning + storage accounting |
//! | `gf256_ops` | — | GF(2⁸) slice kernels |
//! | `erasure_coding` | — | encode / decode / reconstruct / delta |
//! | `ablation_delta_update` | §I update-cost claim | delta update vs naive re-encode |

use tq_cluster::{Cluster, LocalTransport};
use tq_trapezoid::{ProtocolConfig, TrapErcClient};

/// The canonical (15, 8) Fig.-3 configuration used across benches.
pub fn paper_config() -> ProtocolConfig {
    ProtocolConfig::with_uniform_w(15, 8, 0, 4, 1, 2).expect("static parameters")
}

/// A provisioned (cluster, client) pair with one stripe of `block_len`
/// blocks at id 1.
pub fn provisioned(block_len: usize) -> (Cluster, TrapErcClient<LocalTransport>) {
    let cluster = Cluster::new(15);
    let client = TrapErcClient::new(paper_config(), LocalTransport::new(cluster.clone()))
        .expect("sized transport");
    let blocks: Vec<Vec<u8>> = (0..8)
        .map(|i| (0..block_len).map(|b| (i * 13 + b) as u8).collect())
        .collect();
    client.create_stripe(1, blocks).expect("all nodes up");
    (cluster, client)
}

/// Deterministic pseudo-random payload.
pub fn payload(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| seed.wrapping_mul(31).wrapping_add((i * 7) as u8))
        .collect()
}
