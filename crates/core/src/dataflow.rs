use crate::GnneratorError;
use gnnerator_graph::TraversalOrder;
use std::fmt;

/// Whether the feature dimension is blocked (Section IV-B) or processed whole
/// (the conventional dataflow of Section IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockingPolicy {
    /// Conventional dataflow: the whole feature vector of every resident node
    /// stays on-chip (`B = D`), so Algorithm 1's block loop has one iteration.
    Conventional,
    /// Feature-dimension blocking: only `block_size` dimensions are kept
    /// on-chip per pass over the shard grid.
    FeatureBlocked {
        /// Number of feature dimensions per block (the paper's `B`; 64 — the
        /// width of the Dense Engine — in the main evaluation).
        block_size: usize,
    },
}

impl fmt::Display for BlockingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockingPolicy::Conventional => f.write_str("conventional (B = D)"),
            BlockingPolicy::FeatureBlocked { block_size } => {
                write!(f, "blocked (B = {block_size})")
            }
        }
    }
}

/// The software half of GNNerator: how a GNN layer's aggregation is scheduled
/// over the shard grid.
///
/// # Examples
///
/// ```
/// use gnnerator::DataflowConfig;
///
/// let df = DataflowConfig::paper_default();
/// // Cora's 1433-dimensional features are processed in ceil(1433/64) = 23 blocks.
/// assert_eq!(df.num_blocks(1433), 23);
/// assert_eq!(df.effective_block_size(1433), 64);
/// // A hidden layer of 16 dims needs a single (clamped) block.
/// assert_eq!(df.num_blocks(16), 1);
/// assert_eq!(df.effective_block_size(16), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DataflowConfig {
    /// Feature-dimension blocking policy.
    pub blocking: BlockingPolicy,
    /// Shard-grid traversal order; `None` lets the compiler pick the cheaper
    /// order from the Table I cost model.
    pub traversal: Option<TraversalOrder>,
}

impl DataflowConfig {
    /// The dataflow used for the main results (Figure 3): feature blocking
    /// with `B = 64`, the width of the Dense Engine's systolic array, and the
    /// traversal order chosen analytically.
    pub fn paper_default() -> Self {
        Self {
            blocking: BlockingPolicy::FeatureBlocked { block_size: 64 },
            traversal: None,
        }
    }

    /// The conventional dataflow (`B = D`), the "GNNerator w/o Feature
    /// Blocking" configuration of Figure 3.
    pub fn conventional() -> Self {
        Self {
            blocking: BlockingPolicy::Conventional,
            traversal: None,
        }
    }

    /// Feature blocking with an explicit block size (the Figure 4 sweep).
    pub fn blocked(block_size: usize) -> Self {
        Self {
            blocking: BlockingPolicy::FeatureBlocked { block_size },
            traversal: None,
        }
    }

    /// Returns a copy of this dataflow with the traversal order pinned.
    pub fn with_traversal(mut self, order: TraversalOrder) -> Self {
        self.traversal = Some(order);
        self
    }

    /// The block size actually used for a feature of dimension
    /// `aggregated_dim`: the configured `B`, clamped to the dimension itself.
    pub fn effective_block_size(&self, aggregated_dim: usize) -> usize {
        match self.blocking {
            BlockingPolicy::Conventional => aggregated_dim.max(1),
            BlockingPolicy::FeatureBlocked { block_size } => block_size.min(aggregated_dim).max(1),
        }
    }

    /// Number of iterations of Algorithm 1's block loop (line 2) for a
    /// feature of dimension `aggregated_dim`.
    pub fn num_blocks(&self, aggregated_dim: usize) -> usize {
        let b = self.effective_block_size(aggregated_dim);
        aggregated_dim.max(1).div_ceil(b)
    }

    /// Validates the dataflow.
    ///
    /// # Errors
    ///
    /// Returns [`GnneratorError::InvalidDataflow`] if a zero block size was
    /// configured.
    pub fn validate(&self) -> Result<(), GnneratorError> {
        if let BlockingPolicy::FeatureBlocked { block_size: 0 } = self.blocking {
            return Err(GnneratorError::dataflow("block size must be positive"));
        }
        Ok(())
    }
}

impl Default for DataflowConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl fmt::Display for DataflowConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.traversal {
            Some(order) => write!(f, "{}, {order}", self.blocking),
            None => write!(f, "{}, auto traversal", self.blocking),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_uses_block_64() {
        let df = DataflowConfig::paper_default();
        assert_eq!(
            df.blocking,
            BlockingPolicy::FeatureBlocked { block_size: 64 }
        );
        assert_eq!(df.traversal, None);
        assert_eq!(DataflowConfig::default(), df);
        assert!(df.validate().is_ok());
    }

    #[test]
    fn conventional_uses_the_full_dimension() {
        let df = DataflowConfig::conventional();
        assert_eq!(df.effective_block_size(1433), 1433);
        assert_eq!(df.num_blocks(1433), 1);
        assert_eq!(df.num_blocks(3703), 1);
    }

    #[test]
    fn blocked_splits_the_dimension() {
        let df = DataflowConfig::blocked(64);
        assert_eq!(df.num_blocks(1433), 23);
        assert_eq!(df.num_blocks(64), 1);
        assert_eq!(df.num_blocks(65), 2);
        assert_eq!(df.effective_block_size(32), 32);
    }

    #[test]
    fn blocks_cover_the_dimension() {
        for b in [16, 32, 64, 128, 4096] {
            let df = DataflowConfig::blocked(b);
            for d in [1usize, 16, 500, 1433, 3703] {
                let blocks = df.num_blocks(d);
                let eff = df.effective_block_size(d);
                assert!(blocks * eff >= d, "B={b} D={d}");
                assert!((blocks - 1) * eff < d, "B={b} D={d}: too many blocks");
            }
        }
    }

    #[test]
    fn zero_block_size_is_rejected() {
        assert!(DataflowConfig::blocked(0).validate().is_err());
        // But never panics on use: effective size clamps to 1.
        assert_eq!(DataflowConfig::blocked(0).effective_block_size(10), 1);
    }

    #[test]
    fn zero_dimension_is_handled() {
        let df = DataflowConfig::blocked(64);
        assert_eq!(df.effective_block_size(0), 1);
        assert_eq!(df.num_blocks(0), 1);
    }

    #[test]
    fn with_traversal_pins_the_order() {
        let df = DataflowConfig::paper_default().with_traversal(TraversalOrder::SourceStationary);
        assert_eq!(df.traversal, Some(TraversalOrder::SourceStationary));
        assert!(df.to_string().contains("src-stationary"));
        assert!(DataflowConfig::paper_default().to_string().contains("auto"));
    }

    #[test]
    fn display_mentions_block_size() {
        assert!(DataflowConfig::blocked(128).to_string().contains("128"));
        assert!(DataflowConfig::conventional()
            .to_string()
            .contains("conventional"));
    }
}
