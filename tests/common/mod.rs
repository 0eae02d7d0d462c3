//! The loopback fixture the socket-backed suites share.

use std::sync::Arc;

use trapezoid_quorum::cluster::{Cluster, NodeApi, TcpNodeServer, TcpTransport};

/// Serves every node of `cluster` on its own loopback port and connects
/// a [`TcpTransport`] to them, node `i` at index `i`.
///
/// Bind the pair as `let (_servers, transport) = ...`: bindings drop in
/// reverse order, so the transport (or the client that took it) closes
/// its connections first and each server's drop finds its serving
/// threads already gone, instead of waiting out their read poll.
pub fn serve(cluster: &Cluster) -> (Vec<TcpNodeServer>, TcpTransport) {
    let servers: Vec<TcpNodeServer> = cluster
        .nodes()
        .map(|node| {
            let api: Arc<dyn NodeApi> = node.clone();
            TcpNodeServer::spawn(api, "127.0.0.1:0").expect("bind loopback server")
        })
        .collect();
    let addrs = servers.iter().map(TcpNodeServer::local_addr).collect();
    (servers, TcpTransport::connect(addrs))
}
