//! The Table I analytical shard-dataflow cost model.
//!
//! Processing a sharded graph means walking the `S x S` shard grid in either a
//! source-stationary or destination-stationary order (Section IV-A, Figure 1).
//! Table I gives the off-chip read and write costs of the two orders as a
//! function of `S` (the grid dimension) and `I` (the maximum number of input
//! features that must be on-chip at one time):
//!
//! | order           | read cost                     | write cost    |
//! |-----------------|-------------------------------|---------------|
//! | SRC stationary  | `S*I + (S-1)*S - S + 1`       | `S² - S + 1`  |
//! | DST stationary  | `(S² - S + 1) * I`            | `S`           |
//!
//! With equal per-unit read and write costs the better order can be chosen
//! analytically, which is what [`choose_order`] does and what the GNNerator
//! compiler uses when the dataflow does not pin an order explicitly.

use gnnerator_graph::TraversalOrder;
use std::fmt;

/// Read/write cost of walking the shard grid in a particular order, in units
/// of node-block feature transfers (the same units Table I uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardCost {
    /// Off-chip read cost.
    pub reads: u64,
    /// Off-chip write cost.
    pub writes: u64,
}

impl ShardCost {
    /// Total cost assuming reads and writes are equally expensive, as the
    /// paper assumes when comparing the two orders.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total cost with an explicit relative write cost (e.g. writes that cost
    /// `write_weight` times as much as reads).
    pub fn weighted_total(&self, write_weight: f64) -> f64 {
        self.reads as f64 + self.writes as f64 * write_weight
    }
}

impl fmt::Display for ShardCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "reads {}, writes {}", self.reads, self.writes)
    }
}

/// Cost of the source-stationary order (Table I, first row).
///
/// A block of source vertices stays on-chip for an entire grid row while the
/// destination blocks are written back and reloaded shard by shard.
///
/// # Examples
///
/// ```
/// use gnnerator::cost::source_stationary;
/// let c = source_stationary(4, 10);
/// assert_eq!(c.reads, 4 * 10 + 3 * 4 - 4 + 1);
/// assert_eq!(c.writes, 16 - 4 + 1);
/// ```
pub fn source_stationary(s: u64, i: u64) -> ShardCost {
    ShardCost {
        reads: s * i + (s.saturating_sub(1)) * s - s + 1,
        writes: s * s - s + 1,
    }
}

/// Cost of the destination-stationary order (Table I, second row).
///
/// A block of destination vertices stays on-chip until it finishes
/// aggregating; the source blocks are reloaded shard by shard.
///
/// # Examples
///
/// ```
/// use gnnerator::cost::destination_stationary;
/// let c = destination_stationary(4, 10);
/// assert_eq!(c.reads, (16 - 4 + 1) * 10);
/// assert_eq!(c.writes, 4);
/// ```
pub fn destination_stationary(s: u64, i: u64) -> ShardCost {
    ShardCost {
        reads: (s * s - s + 1) * i,
        writes: s,
    }
}

/// Cost of a given traversal order.
pub fn order_cost(order: TraversalOrder, s: u64, i: u64) -> ShardCost {
    match order {
        TraversalOrder::SourceStationary => source_stationary(s, i),
        TraversalOrder::DestinationStationary => destination_stationary(s, i),
    }
}

/// Chooses the cheaper traversal order for an `S x S` grid with `I` input
/// features resident per shard, assuming equal read and write transaction
/// costs (the paper's assumption). Ties go to destination-stationary, the
/// order Algorithm 1 uses.
pub fn choose_order(s: u64, i: u64) -> TraversalOrder {
    let src = source_stationary(s, i).total();
    let dst = destination_stationary(s, i).total();
    if src < dst {
        TraversalOrder::SourceStationary
    } else {
        TraversalOrder::DestinationStationary
    }
}

/// One evaluated row of Table I, used by the `table1` benchmark harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostTableRow {
    /// Grid dimension `S`.
    pub s: u64,
    /// On-chip input feature count `I`.
    pub i: u64,
    /// Source-stationary cost.
    pub src_stationary: ShardCost,
    /// Destination-stationary cost.
    pub dst_stationary: ShardCost,
    /// The order the analytical model picks.
    pub preferred: TraversalOrder,
}

/// Evaluates Table I for every `(S, I)` pair in the cross product of the two
/// argument slices.
pub fn evaluate_table(s_values: &[u64], i_values: &[u64]) -> Vec<CostTableRow> {
    let mut rows = Vec::with_capacity(s_values.len() * i_values.len());
    for &s in s_values {
        for &i in i_values {
            rows.push(CostTableRow {
                s,
                i,
                src_stationary: source_stationary(s, i),
                dst_stationary: destination_stationary(s, i),
                preferred: choose_order(s, i),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_formulas_at_small_sizes() {
        // S = 1: a single shard. Both orders read the inputs once and write once.
        let src = source_stationary(1, 5);
        let dst = destination_stationary(1, 5);
        assert_eq!(src.reads, 5);
        assert_eq!(src.writes, 1);
        assert_eq!(dst.reads, 5);
        assert_eq!(dst.writes, 1);
    }

    #[test]
    fn dst_stationary_writes_scale_linearly() {
        for s in 1..20 {
            assert_eq!(destination_stationary(s, 7).writes, s);
        }
    }

    #[test]
    fn src_stationary_writes_scale_quadratically() {
        assert_eq!(source_stationary(10, 1).writes, 91);
        assert_eq!(source_stationary(20, 1).writes, 381);
    }

    #[test]
    fn large_feature_count_favours_src_stationary() {
        // When I (input features resident per shard) is large, re-reading the
        // inputs S²-S+1 times is painful, so source-stationary wins.
        assert_eq!(choose_order(8, 1000), TraversalOrder::SourceStationary);
    }

    #[test]
    fn small_feature_count_favours_dst_stationary() {
        // When I is small the write savings of DST-stationary dominate.
        assert_eq!(choose_order(8, 1), TraversalOrder::DestinationStationary);
    }

    #[test]
    fn single_shard_grid_ties_to_dst() {
        assert_eq!(choose_order(1, 100), TraversalOrder::DestinationStationary);
    }

    #[test]
    fn order_cost_dispatches() {
        assert_eq!(
            order_cost(TraversalOrder::SourceStationary, 4, 2),
            source_stationary(4, 2)
        );
        assert_eq!(
            order_cost(TraversalOrder::DestinationStationary, 4, 2),
            destination_stationary(4, 2)
        );
    }

    #[test]
    fn weighted_total_scales_writes() {
        let c = ShardCost {
            reads: 10,
            writes: 5,
        };
        assert_eq!(c.total(), 15);
        assert!((c.weighted_total(2.0) - 20.0).abs() < 1e-9);
        assert!(c.to_string().contains("10"));
    }

    #[test]
    fn evaluate_table_produces_cross_product() {
        let rows = evaluate_table(&[2, 4], &[1, 10, 100]);
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().any(|r| r.s == 4 && r.i == 100));
        for row in rows {
            assert_eq!(row.preferred, choose_order(row.s, row.i));
        }
    }

    #[test]
    fn costs_grow_with_grid_dimension() {
        for i in [1, 16, 256] {
            let mut prev_src = 0;
            let mut prev_dst = 0;
            for s in 1..16 {
                let src = source_stationary(s, i).total();
                let dst = destination_stationary(s, i).total();
                assert!(src >= prev_src, "src cost must grow with S");
                assert!(dst >= prev_dst, "dst cost must grow with S");
                prev_src = src;
                prev_dst = dst;
            }
        }
    }
}
