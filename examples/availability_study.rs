//! Availability study: the paper's Fig. 3 comparison, live at your
//! terminal — closed forms (eqs. 9, 10 and 13) against the exact read
//! availability of the TRAP-ERC client, counted over all 2^15 up-sets.
//!
//! ```text
//! cargo run --release --example availability_study
//! ```

use trapezoid_quorum::quorum::exact::{availability_from_counts, exact_counts};
use trapezoid_quorum::quorum::{availability, QuorumSystem};
use trapezoid_quorum::{Cluster, LocalTransport, QuorumStore, Store};

fn main() {
    // The reconstructed Fig. 3 configuration: (15, 8) stripe, trapezoid
    // a=0, b=4, h=1 (levels of 4 and 4), w = 2. The builder is the one
    // place the deployment is described; the exact count reuses the
    // resulting validated config.
    let client = Store::trap_erc(15, 8)
        .shape(0, 4, 1)
        .uniform_w(2)
        .transport(LocalTransport::new(Cluster::new(15)))
        .build_trap_erc()
        .expect("valid parameters");
    let config = client.config().clone();
    let (shape, th) = (*config.shape(), config.thresholds().clone());
    println!("configuration: {config}\n");

    // The client's read succeeds on exactly the up-sets where block 0's
    // read predicate holds (tests/availability_oracle.rs), so counting
    // those up-sets once by size gives its availability at every p.
    let sys = config.system_for_block(0);
    let erc_counts = exact_counts(15, |up| sys.is_read_available(up));
    println!("successful ERC read up-sets by live-node count: {erc_counts:?}\n");

    println!(
        "{:>5} | {:>9} | {:>9} {:>9} | {:>9}",
        "p", "eq10 FR", "eq13 ERC", "exact ERC", "eq9 write"
    );
    println!("{}", "-".repeat(52));
    for i in 1..10 {
        let p = i as f64 / 10.0;
        let erc_analytic = availability::read_availability_erc(&shape, &th, 15, 8, p);
        let erc_exact = availability_from_counts(&erc_counts, p);
        assert!(
            erc_exact <= erc_analytic + 1e-12,
            "eq. 13 upper-bounds the client"
        );
        println!(
            "{:>5.2} | {:>9.4} | {:>9.4} {:>9.4} | {:>9.4}",
            p,
            availability::read_availability_fr(&shape, &th, p),
            erc_analytic,
            erc_exact,
            availability::write_availability(&shape, &th, p),
        );
    }

    println!();
    println!("shape checks (the paper's qualitative claims):");
    let fr_05 = availability::read_availability_fr(&shape, &th, 0.5);
    let erc_05 = availability::read_availability_erc(&shape, &th, 15, 8, 0.5);
    println!("  * p = 0.5 anchors: FR = {fr_05:.3} (paper ~0.75), ERC = {erc_05:.3} (paper ~0.63)");
    let fr_08 = availability::read_availability_fr(&shape, &th, 0.8);
    let erc_08 = availability::read_availability_erc(&shape, &th, 15, 8, 0.8);
    println!(
        "  * p = 0.8: FR - ERC = {:+.4} (paper: 'no difference when p >= 0.8')",
        fr_08 - erc_08
    );

    // Eqs. 14/15 straight from the stores' own descriptors: every
    // protocol reports its storage price through one `StoreInfo`.
    println!("  * storage per data block (each store's own StoreInfo):");
    let stores: Vec<Box<dyn QuorumStore>> = vec![
        Store::trap_erc(15, 8)
            .shape(0, 4, 1)
            .uniform_w(2)
            .transport(LocalTransport::new(Cluster::new(15)))
            .build()
            .expect("valid"),
        Store::trap_fr(15, 8)
            .shape(0, 4, 1)
            .uniform_w(2)
            .transport(LocalTransport::new(Cluster::new(15)))
            .build()
            .expect("valid"),
        Store::rowa(8)
            .transport(LocalTransport::new(Cluster::new(8)))
            .build()
            .expect("valid"),
        Store::majority(8)
            .transport(LocalTransport::new(Cluster::new(8)))
            .build()
            .expect("valid"),
    ];
    for store in &stores {
        let info = store.info();
        println!(
            "      {:>9}: {:>6.3} blocks ({} nodes)",
            info.protocol, info.storage_overhead, info.nodes
        );
    }
    assert!(
        (stores[0].info().storage_overhead - availability::storage_erc(15, 8)).abs() < 1e-12,
        "StoreInfo must agree with eq. 15"
    );
    assert!(
        (stores[1].info().storage_overhead - availability::storage_fr(15, 8)).abs() < 1e-12,
        "StoreInfo must agree with eq. 14"
    );
}
