//! Node replacement and rebuild over a live volume — the recovery
//! workflow §I of the paper worries about, measured.
//!
//! A block volume serves IO while a node's disk is replaced;
//! the rebuild sources k blocks per stripe (the classical MDS repair cost
//! the paper cites) and the IO counters show exactly what that costs. The
//! volume is generic over `QuorumStore`; the rebuild entry point is the
//! TRAP-ERC-typed extension, so the store is built with
//! `build_trap_erc()`.
//!
//! ```text
//! cargo run --release --example node_replacement
//! ```

use trapezoid_quorum::protocol::Volume;
use trapezoid_quorum::{BlockAddr, Cluster, LocalTransport, QuorumStore, Store};

fn main() {
    let cluster = Cluster::new(15);
    let client = Store::trap_erc(15, 8)
        .shape(0, 4, 1)
        .uniform_w(2)
        .transport(LocalTransport::new(cluster.clone()))
        .build_trap_erc()
        .expect("valid parameters");
    let volume = Volume::create(client, 0, 2048, 64).expect("provisioning");
    println!(
        "volume: {} blocks x {} B = {} KiB over a (15, 8) stripe set",
        volume.logical_blocks(),
        volume.block_size(),
        volume.capacity() / 1024
    );

    // Fill the volume with recognisable content.
    for lba in 0..volume.logical_blocks() {
        volume
            .write_block(lba, &vec![(lba as u8).wrapping_mul(7); 2048])
            .expect("healthy cluster");
    }

    // Disk of node 5 (a data node) dies and is replaced with a blank one.
    let before = cluster.io_totals();
    cluster.replace(5);
    println!("\nnode N5 replaced with blank hardware");

    // The volume keeps serving every block — reads of N5's blocks decode.
    let mut decoded = 0;
    for lba in 0..volume.logical_blocks() {
        let bytes = volume.read_block(lba).expect("n-1 nodes live");
        assert_eq!(bytes, vec![(lba as u8).wrapping_mul(7); 2048]);
        if lba % 8 == 5 {
            decoded += 1;
        }
    }
    println!("service during repair: all 64 blocks readable ({decoded} via decode)");

    // Rebuild N5 across every stripe of the volume.
    let reports = volume.rebuild_node(5).expect("readable stripes");
    let sourced: usize = reports.iter().map(|r| r.sources.len()).sum();
    let written: usize = reports.iter().map(|r| r.bytes_written).sum();
    println!(
        "rebuild: {} stripes, {} source reads total (k = 8 per stripe), {} B written to N5",
        reports.len(),
        sourced,
        written
    );
    let io = cluster.io_totals().since(&before);
    println!(
        "measured IO since replacement: {} reads, {} writes, {} version queries",
        io.reads, io.writes, io.version_queries
    );

    // Direct service restored.
    let out = volume.store().read(BlockAddr::new(0, 5)).expect("healthy");
    assert!(!out.decoded(), "N5 serves its block directly again");
    println!("\nN5 serves direct reads again; writes validate on all 8 trapezoid members:");
    let w = volume
        .store()
        .write(BlockAddr::new(0, 5), &vec![0xEE; 2048])
        .expect("healthy");
    println!(
        "  write -> version {} validated by {:?}",
        w.version, w.validated
    );
}
