//! Protocol configuration: the (n, k) code bound to a trapezoid.

use core::fmt;

use tq_erasure::{CodeParams, ReedSolomon};
use tq_quorum::trapezoid::{TrapErcSystem, TrapezoidShape, WriteThresholds};

use crate::errors::ProtocolError;

/// Everything static about one TRAP-ERC deployment: code parameters,
/// trapezoid shape and write thresholds. Constructing it validates the
/// paper's structural constraints once, so protocol code never re-checks:
///
/// * `shape.node_count() == n − k + 1` (eq. 5);
/// * `w_0 = ⌊b/2⌋ + 1 ≤ w_0 ≤ s_0`, `1 ≤ w_l ≤ s_l` (§III-B.3);
/// * node universe: cluster node `i` holds stripe block `i`
///   (data `0..k`, parity `k..n`).
#[derive(Debug, Clone)]
pub struct ProtocolConfig {
    params: CodeParams,
    shape: TrapezoidShape,
    thresholds: WriteThresholds,
    /// A floor under every level's read threshold `s_l − w_l + 1`. Only
    /// Majority sets it: on an even replica count its read quorum
    /// `⌊m/2⌋ + 1` exceeds the `m − w_0 + 1` a single level would ask.
    read_floor: usize,
}

impl ProtocolConfig {
    /// Builds and validates a configuration.
    ///
    /// # Errors
    /// Propagates parameter and shape validation failures.
    pub fn new(
        params: CodeParams,
        shape: TrapezoidShape,
        thresholds: WriteThresholds,
    ) -> Result<Self, ProtocolError> {
        // TrapErcSystem::new enforces node_count == n - k + 1; probe with
        // block 0 (membership for other blocks only permutes N_i).
        TrapErcSystem::new(shape, thresholds.clone(), params.n(), params.k(), 0)
            .map_err(ProtocolError::Shape)?;
        Ok(ProtocolConfig {
            params,
            shape,
            thresholds,
            read_floor: 0,
        })
    }

    /// Convenience constructor from raw numbers: an `(n, k)` code on an
    /// `(a, b, h)` trapezoid with explicit per-level thresholds.
    ///
    /// # Errors
    /// Any parameter/shape/threshold validation failure.
    pub fn build(
        n: usize,
        k: usize,
        a: usize,
        b: usize,
        h: usize,
        w: &[usize],
    ) -> Result<Self, ProtocolError> {
        let params = CodeParams::new(n, k).map_err(ProtocolError::Params)?;
        let shape = TrapezoidShape::new(a, b, h).map_err(ProtocolError::Shape)?;
        let mut thresholds = Vec::with_capacity(w.len() + 1);
        thresholds.push(b / 2 + 1);
        thresholds.extend_from_slice(w);
        let thresholds = WriteThresholds::new(&shape, thresholds).map_err(ProtocolError::Shape)?;
        ProtocolConfig::new(params, shape, thresholds)
    }

    /// The eq. 16 parameterisation: single `w` for all levels `≥ 1`.
    ///
    /// # Errors
    /// Any parameter/shape/threshold validation failure.
    pub fn with_uniform_w(
        n: usize,
        k: usize,
        a: usize,
        b: usize,
        h: usize,
        w: usize,
    ) -> Result<Self, ProtocolError> {
        let params = CodeParams::new(n, k).map_err(ProtocolError::Params)?;
        let shape = TrapezoidShape::new(a, b, h).map_err(ProtocolError::Shape)?;
        let thresholds = WriteThresholds::paper_default(&shape, w).map_err(ProtocolError::Shape)?;
        ProtocolConfig::new(params, shape, thresholds)
    }

    /// Raises every level's read threshold to at least `floor`.
    pub(crate) fn with_read_floor(mut self, floor: usize) -> Self {
        self.read_floor = floor;
        self
    }

    /// Level `l`'s read threshold: `r_l = s_l − w_l + 1` (Algorithm 2
    /// line 30), or the read floor where that is higher.
    pub(crate) fn read_threshold(&self, l: usize) -> usize {
        self.thresholds
            .read_threshold(&self.shape, l)
            .max(self.read_floor)
    }

    /// The (n, k) code parameters.
    pub fn params(&self) -> CodeParams {
        self.params
    }

    /// The trapezoid shape.
    pub fn shape(&self) -> &TrapezoidShape {
        &self.shape
    }

    /// The write thresholds.
    pub fn thresholds(&self) -> &WriteThresholds {
        &self.thresholds
    }

    /// Instantiates the codec for this configuration.
    pub fn codec(&self) -> ReedSolomon {
        ReedSolomon::new(self.params)
    }

    /// The per-block trapezoid membership/availability view.
    ///
    /// # Panics
    /// Panics if `block ≥ k` (programmer error; validated shapes cannot
    /// fail the other constructor paths).
    pub fn system_for_block(&self, block: usize) -> TrapErcSystem {
        TrapErcSystem::new(
            self.shape,
            self.thresholds.clone(),
            self.params.n(),
            self.params.k(),
            block,
        )
        .expect("config validated at construction")
    }
}

impl fmt::Display for ProtocolConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {} w={:?}",
            self.params,
            self.shape,
            self.thresholds.as_slice()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tq_erasure::ParamError;
    use tq_quorum::trapezoid::ShapeError;

    #[test]
    fn build_validates_eq5() {
        // (9, 6): trapezoid must have 4 nodes.
        assert!(ProtocolConfig::build(9, 6, 2, 1, 1, &[1]).is_ok()); // 1 + 3 = 4
        let err = ProtocolConfig::build(9, 6, 2, 3, 2, &[2, 2]).unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::Shape(ShapeError::StripeMismatch { .. })
        ));
    }

    #[test]
    fn build_prepends_majority_w0() {
        let c = ProtocolConfig::build(15, 8, 0, 4, 1, &[2]).unwrap();
        assert_eq!(c.thresholds().as_slice(), &[3, 2]); // ⌊4/2⌋+1 = 3
    }

    #[test]
    fn uniform_w_matches_eq16() {
        let c = ProtocolConfig::with_uniform_w(15, 8, 0, 4, 1, 2).unwrap();
        assert_eq!(c.thresholds().as_slice(), &[3, 2]);
        assert_eq!(c.params().n(), 15);
        assert_eq!(c.shape().node_count(), 8);
    }

    #[test]
    fn rejects_bad_code_params() {
        assert!(matches!(
            ProtocolConfig::build(3, 5, 0, 1, 0, &[]),
            Err(ProtocolError::Params(ParamError::KExceedsN { .. }))
        ));
    }

    #[test]
    fn codec_and_system_agree_with_config() {
        let c = ProtocolConfig::with_uniform_w(9, 6, 2, 1, 1, 1).unwrap();
        let rs = c.codec();
        assert_eq!(rs.params(), c.params());
        let sys = c.system_for_block(5);
        assert_eq!(sys.block(), 5);
        assert_eq!(sys.n(), 9);
        // Level 0 holds N_5 (b = 1 ⇒ alone); level 1 the three parity
        // nodes 6, 7, 8.
        assert_eq!(sys.level_members(0), &[5]);
        assert_eq!(sys.level_members(1), &[6, 7, 8]);
    }

    #[test]
    fn display_is_informative() {
        let c = ProtocolConfig::with_uniform_w(15, 8, 0, 4, 1, 2).unwrap();
        let s = c.to_string();
        assert!(s.contains("(15, 8)-MDS"));
        assert!(s.contains("a=0"));
    }
}
