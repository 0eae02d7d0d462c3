//! Node recovery — rebuilding a replaced node from the surviving stripe.
//!
//! §I of the paper: "when one node fails, the blocks it owned have to be
//! reconstructed … this process may be very compute-intensive and may
//! have a significant impact on the storage system performances." The
//! paper measures availability, not recovery; this module supplies the
//! recovery workflow a deployment needs:
//!
//! * data node `i` → **exact repair**: Algorithm 2's decode rebuilds
//!   `b_i` bit-identically from k survivors (k block reads);
//! * parity node `j` → exact re-encode of its row from the k data blocks.
//!   The trapezoid protocol pins the coefficients `α_{j,·}`, so a repair
//!   that drew a fresh parity row (the paper's *functional* repair) would
//!   change the codec every client holds; the code stays systematic and
//!   exact, which is what the paper assumes for data blocks too.

use bytes::Bytes;
use tq_cluster::{Request, Transport};

use crate::errors::ProtocolError;
use crate::trap_erc::TrapErcClient;

/// What a rebuild did, for IO accounting and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebuildReport {
    /// The stripe index that was rebuilt.
    pub node: usize,
    /// Stripe indices read to source the rebuild.
    pub sources: Vec<usize>,
    /// Payload bytes written to the replacement node.
    pub bytes_written: usize,
}

impl<T: Transport> TrapErcClient<T> {
    /// Rebuilds stripe `id`'s block on a *replaced* (blank) node from the
    /// surviving nodes, installing both contents and version state.
    ///
    /// The replacement must be live; it contributes nothing to the reads
    /// (a blank node answers `NotFound`, which quorum logic ignores).
    ///
    /// # Errors
    /// Propagates read failures — a stripe that cannot be read cannot be
    /// rebuilt. [`ProtocolError::Node`] if the install on the replacement
    /// fails.
    pub fn rebuild_node(&self, id: u64, node: usize) -> Result<RebuildReport, ProtocolError> {
        let k = self.config().params().k();
        if self.config().params().is_data_index(node) {
            // Exact repair of b_node via the protocol read (Algorithm 2
            // will take the decode path, since the blank node holds
            // nothing).
            let out = self.read_block(id, node)?;
            let sources = match &out.path {
                crate::trap_erc::ReadPath::Decoded { nodes } => nodes.clone(),
                // Possible only if the "blank" node actually had data
                // (re-running a rebuild); treat its own copy as source.
                crate::trap_erc::ReadPath::Direct => vec![node],
            };
            // One shared allocation: the decoded block becomes the wire
            // payload of both the install and the version stamp.
            let bytes_written = out.bytes.len();
            let payload = Bytes::from(out.bytes);
            self.raw_call(node, Request::init_data(id, payload.clone()))
                .map_err(ProtocolError::Node)?;
            self.raw_call(node, Request::write_data(id, payload, out.version))
                .map_err(ProtocolError::Node)?;
            Ok(RebuildReport {
                node,
                sources,
                bytes_written,
            })
        } else {
            // Parity node: source all k data blocks (with versions), then
            // re-encode exactly this node's row.
            let mut data = Vec::with_capacity(k);
            let mut versions = Vec::with_capacity(k);
            let mut sources = Vec::with_capacity(k);
            for i in 0..k {
                let out = self.read_block(id, i)?;
                versions.push(out.version);
                data.push(out.bytes);
                sources.push(i);
            }
            let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            // The rebuild sources every data block anyway, so the
            // replacement gets a real cross-checksum vector, not a stub.
            let checks = tq_erasure::data_checks(&refs);
            let mut block = vec![0u8; refs[0].len()];
            // One fused register-blocked pass over all k source blocks.
            tq_gf256::slice_ops::linear_combination(
                self.codec().generator_row(node),
                &refs,
                &mut block,
            );
            let bytes_written = block.len();
            let payload = Bytes::from(block);
            self.raw_call(
                node,
                Request::init_parity(id, payload.clone(), k, checks.clone()),
            )
            .map_err(ProtocolError::Node)?;
            self.raw_call(node, Request::write_parity(id, payload, versions, checks))
                .map_err(ProtocolError::Node)?;
            Ok(RebuildReport {
                node,
                sources,
                bytes_written,
            })
        }
    }

    /// Rebuilds every stripe in `ids` on the replaced node; returns one
    /// report per stripe.
    ///
    /// # Errors
    /// Stops at the first failing stripe.
    pub fn rebuild_node_stripes(
        &self,
        ids: &[u64],
        node: usize,
    ) -> Result<Vec<RebuildReport>, ProtocolError> {
        ids.iter().map(|&id| self.rebuild_node(id, node)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use crate::trap_erc::ReadPath;
    use tq_cluster::{Cluster, LocalTransport};

    fn setup() -> (TrapErcClient<LocalTransport>, Cluster) {
        let config = ProtocolConfig::with_uniform_w(15, 8, 0, 4, 1, 2).unwrap();
        let cluster = Cluster::new(15);
        let client = TrapErcClient::new(config, LocalTransport::new(cluster.clone())).unwrap();
        let blocks: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8 * 3; 64]).collect();
        client.create_stripe(1, blocks).unwrap();
        (client, cluster)
    }

    #[test]
    fn rebuild_replaced_data_node() {
        let (client, cluster) = setup();
        client.write_block(1, 2, &[0xAA; 64]).unwrap();
        cluster.replace(2); // blank disk
                            // Blank node: reads of block 2 must decode.
        let pre = client.read_block(1, 2).unwrap();
        assert!(pre.decoded());
        let report = client.rebuild_node(1, 2).unwrap();
        assert_eq!(report.node, 2);
        assert_eq!(report.sources.len(), 8, "k source reads (the §I cost)");
        assert_eq!(report.bytes_written, 64);
        // Direct reads work again, at the right version.
        let post = client.read_block(1, 2).unwrap();
        assert_eq!(post.path, ReadPath::Direct);
        assert_eq!(post.bytes, vec![0xAA; 64]);
        assert_eq!(post.version, 1);
    }

    #[test]
    fn rebuild_replaced_parity_node() {
        let (client, cluster) = setup();
        client.write_block(1, 0, &[0x11; 64]).unwrap();
        client.write_block(1, 5, &[0x55; 64]).unwrap();
        cluster.replace(12);
        let report = client.rebuild_node(1, 12).unwrap();
        assert_eq!(report.sources, (0..8).collect::<Vec<_>>());
        // The rebuilt parity participates in writes (guard at the right
        // versions) and in decodes.
        let w = client.write_block(1, 0, &[0x12; 64]).unwrap();
        assert!(w.validated.contains(&12));
        cluster.kill(0);
        let r = client.read_block(1, 0).unwrap();
        assert_eq!(r.bytes, vec![0x12; 64]);
        assert!(r.decoded());
    }

    #[test]
    fn rebuild_needs_readable_stripe() {
        let (client, cluster) = setup();
        cluster.replace(3);
        // Kill 7 more nodes so fewer than k = 8 sources remain.
        for n in [0, 1, 2, 8, 9, 10, 11] {
            cluster.kill(n);
        }
        assert!(client.rebuild_node(1, 3).is_err());
    }

    #[test]
    fn rebuild_many_stripes() {
        let (client, cluster) = setup();
        for id in 2..6u64 {
            let blocks: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8 ^ id as u8; 64]).collect();
            client.create_stripe(id, blocks).unwrap();
        }
        cluster.replace(9);
        let reports = client.rebuild_node_stripes(&[1, 2, 3, 4, 5], 9).unwrap();
        assert_eq!(reports.len(), 5);
        for id in 1..6u64 {
            let w = client.write_block(id, 0, &[0x77; 64]).unwrap();
            assert!(w.validated.contains(&9), "stripe {id}");
        }
    }
}
