//! Seeded synthetic graph generators.
//!
//! The paper's evaluation uses real citation graphs fetched through DGL. A
//! hermetic reproduction cannot download them, so the [`datasets`](crate::datasets)
//! module synthesises graphs with matching statistics using the generators in
//! this module. All generators are deterministic given a seed.
//!
//! The generators stream edges through the chunked
//! [`EdgeListBuilder`], whose counting sort by
//! source puts them in canonical order in linear time, instead of
//! materialising an unsorted list and comparison-sorting it at the end. That
//! keeps ogbn-scale synthesis (millions of edges) off the cold-start
//! critical path.
//!
//! R-MAT sampling runs on several workers and stays bit-identical to the
//! sequential sampler by construction: every attempt consumes exactly
//! `levels` draws of the SplitMix64 stream, so the attempt range `[a, b)`
//! starts `a · levels` draws in, where an O(1) [`StdRng::advance`] puts a
//! copy of the generator. Each worker streams its kept pairs into its own
//! builder; the builders are absorbed in worker order and the caller's
//! generator is advanced past every attempt before the sequential trim. The trim shuffles edge positions
//! rather than edges and keeps the survivors in list order, so it needs no
//! sort, and the builder writes out only the surviving edges.

use crate::edge_builder::Selection;
use crate::parallel::{even_bounds, run_bands, workers_for};
use crate::{Edge, EdgeList, EdgeListBuilder, GraphError, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::ops::Range;

/// The classic R-MAT quadrant probabilities `a`, `b`, `c` (top-left,
/// top-right, bottom-left); `d = 1 - a - b - c` is the bottom-right rest.
const RMAT_ABC: [f64; 3] = [0.57, 0.19, 0.19];

/// `2^53`: a uniform `f64` draw is a 53-bit integer scaled by `2^-53`.
const F64_DRAW_SCALE: f64 = (1u64 << 53) as f64;

/// The integer form of the cumulative quadrant thresholds `a`, `a + b` and
/// `a + b + c`.
///
/// A uniform draw `r: f64` is `m · 2^-53` for `m = next_u64() >> 11`, and
/// both that product and `t · 2^53` are exact in `f64`, so `r < t` holds
/// exactly when `m < ceil(t · 2^53)`. Comparing integers against these
/// thresholds therefore picks the same quadrant as comparing the `f64` draw
/// against `t`, for every draw.
fn rmat_thresholds() -> [u64; 3] {
    let [a, b, c] = RMAT_ABC;
    [a, a + b, a + b + c].map(|t| (t * F64_DRAW_SCALE).ceil() as u64)
}

/// The quadrant a 53-bit draw `m` falls in, without branches: the number of
/// thresholds it reaches. 0 is top-left, 1 top-right (destination bit set),
/// 2 bottom-left (source bit set) and 3 bottom-right (both bits set).
fn rmat_quadrant(m: u64, [t_a, t_ab, t_abc]: [u64; 3]) -> usize {
    usize::from(m >= t_a) + usize::from(m >= t_ab) + usize::from(m >= t_abc)
}

/// Generates an Erdős–Rényi `G(n, p)` directed graph (no self-loops).
///
/// Uses geometric skip sampling (Batagelj–Brandes): instead of flipping a
/// coin for each of the `n(n-1)` ordered pairs, the generator draws the gap
/// to the next present edge directly, so a sparse graph costs `O(edges)`
/// rather than `O(n²)`. Edges are emitted in ascending `(src, dst)` order,
/// so the result is born sorted.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `p` is not in `[0, 1]`.
///
/// # Examples
///
/// ```
/// use gnnerator_graph::generators;
/// # fn main() -> Result<(), gnnerator_graph::GraphError> {
/// let g = generators::erdos_renyi(50, 0.05, 42)?;
/// assert_eq!(g.num_nodes(), 50);
/// assert!(g.is_sorted());
/// # Ok(())
/// # }
/// ```
pub fn erdos_renyi(num_nodes: usize, p: f64, seed: u64) -> Result<EdgeList, GraphError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::invalid("p", format!("{p} is not in [0, 1]")));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    if num_nodes < 2 || p == 0.0 {
        return Ok(EdgeList::new(num_nodes));
    }
    // Linear index space over the n(n-1) ordered pairs with the diagonal
    // removed: index `i` maps to src = i / (n-1) and the i % (n-1)-th
    // non-diagonal destination. Ascending indexes are ascending (src, dst).
    let stride = (num_nodes - 1) as u64;
    let total = num_nodes as u64 * stride;
    let mut edges: Vec<Edge> = Vec::with_capacity((total as f64 * p).ceil() as usize);
    // ln(1 - p) is the geometric distribution's log-survival slope. For
    // p == 1 it is -inf and every gap below computes to 1, emitting all pairs.
    let log_survival = (1.0 - p).ln();
    let mut position = 0u64;
    while position < total {
        let u: f64 = rng.gen();
        // Gap to the next present pair, >= 1: 1 + floor(ln(1-u) / ln(1-p)).
        let skipped = ((1.0 - u).ln() / log_survival).floor();
        position = position.saturating_add(skipped as u64);
        if position >= total {
            break;
        }
        let src = (position / stride) as NodeId;
        let offset = (position % stride) as NodeId;
        let dst = offset + u32::from(offset >= src);
        edges.push(Edge::new(src, dst));
        position += 1;
    }
    Ok(EdgeList::from_sorted_edges_unchecked(num_nodes, edges))
}

/// Generates a power-law graph with approximately `target_edges` directed
/// edges using the R-MAT recursive-quadrant method.
///
/// R-MAT (with the classic `a=0.57, b=0.19, c=0.19, d=0.05` partition) yields
/// the skewed degree distributions characteristic of real-world graphs such
/// as the paper's citation networks: a few hub nodes with large
/// neighbourhoods and many low-degree nodes. Each level draws one 53-bit
/// integer and picks its quadrant without branches, by counting how many of
/// the exact integer thresholds it reaches (the same choice a `f64`
/// comparison would make). Sampled edges are streamed symmetrically (each
/// accepted edge and its reverse) through the chunked builder, whose
/// counting sort by source puts them in order and deduplicates them. The
/// result matches the historical sort-everything-then-dedup flow bit for
/// bit, on any number of workers (see the [module docs](self)).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `num_nodes` is zero or
/// `target_edges` is zero, and [`GraphError::BuildWorker`] if a build
/// worker fails.
///
/// # Examples
///
/// ```
/// use gnnerator_graph::generators;
/// # fn main() -> Result<(), gnnerator_graph::GraphError> {
/// let g = generators::rmat(1000, 5000, 1)?;
/// assert_eq!(g.num_nodes(), 1000);
/// assert!(g.num_edges() > 4000);
/// # Ok(())
/// # }
/// ```
pub fn rmat(num_nodes: usize, target_edges: usize, seed: u64) -> Result<EdgeList, GraphError> {
    rmat_with_workers(num_nodes, target_edges, seed, workers_for(target_edges * 2))
}

/// [`rmat`] on exactly `workers` workers (the output does not depend on
/// the count).
pub(crate) fn rmat_with_workers(
    num_nodes: usize,
    target_edges: usize,
    seed: u64,
    workers: usize,
) -> Result<EdgeList, GraphError> {
    if num_nodes == 0 {
        return Err(GraphError::invalid("num_nodes", "must be positive"));
    }
    if target_edges == 0 {
        return Err(GraphError::invalid("target_edges", "must be positive"));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let levels = (num_nodes as f64).log2().ceil() as u32;
    let thresholds = rmat_thresholds();

    let mut builder = EdgeListBuilder::new(num_nodes);
    // Symmetrisation halves the unique directed edge count on average, and
    // deduplication removes collisions, so oversample before trimming.
    let attempts = target_edges * 2;
    // Every attempt consumes exactly `levels` draws, so the attempt range
    // `[a, b)` starts `a · levels` draws into the stream.
    let bounds = even_bounds(attempts, workers);
    let bands: Vec<(Range<usize>, EdgeListBuilder)> = bounds
        .windows(2)
        .map(|w| (w[0]..w[1], builder.band_builder()))
        .collect();
    let bands = run_bands(bands, |(range, mut band)| {
        let mut rng = rng.clone();
        rng.advance(range.start as u64 * u64::from(levels));
        for _ in range {
            let (mut src, mut dst) = (0usize, 0usize);
            // One bit of each endpoint per level, most significant first.
            for _ in 0..levels {
                let quadrant = rmat_quadrant(rng.next_u64() >> 11, thresholds);
                src = (src << 1) | (quadrant >> 1);
                dst = (dst << 1) | (quadrant & 1);
            }
            if src < num_nodes && dst < num_nodes && src != dst {
                band.push_symmetric(Edge::new(src as NodeId, dst as NodeId))?;
            }
        }
        Ok(band)
    })?;
    for band in bands {
        builder.absorb(band);
    }
    rng.advance(attempts as u64 * u64::from(levels));
    // The trim picks its survivors by index once the distinct count is
    // known, so the builder writes out only the edges that survive.
    builder.try_finish_selected(workers, |len| trim_selection(len, target_edges, &mut rng))
}

/// Generates a power-law graph with *exactly* `target_edges` directed edges
/// (after symmetrisation and deduplication) by topping up an R-MAT sample
/// with random edges when the sample falls short.
///
/// The Table II datasets report exact edge counts, so the dataset synthesiser
/// needs an exact-count generator. Top-up candidates are membership-tested
/// with a binary search over the sorted list (the R-MAT output maintains the
/// sorted invariant), not a linear scan.
///
/// # Errors
///
/// Propagates errors from [`rmat`], rejects impossible edge counts
/// (`target_edges > num_nodes * (num_nodes - 1)`), and returns
/// [`GraphError::EdgeCountShortfall`] rather than fewer edges when the
/// top-up runs out of attempts (`100 * target_edges`), so a returned list
/// always holds exactly `target_edges` edges.
pub fn rmat_exact(
    num_nodes: usize,
    target_edges: usize,
    seed: u64,
) -> Result<EdgeList, GraphError> {
    rmat_exact_with_workers(num_nodes, target_edges, seed, workers_for(target_edges * 2))
}

/// [`rmat_exact`] on exactly `workers` workers (the output does not depend
/// on the count).
pub(crate) fn rmat_exact_with_workers(
    num_nodes: usize,
    target_edges: usize,
    seed: u64,
    workers: usize,
) -> Result<EdgeList, GraphError> {
    let max_edges = num_nodes.saturating_mul(num_nodes.saturating_sub(1));
    if target_edges > max_edges {
        return Err(GraphError::invalid(
            "target_edges",
            format!("{target_edges} exceeds the maximum simple-graph edge count {max_edges}"),
        ));
    }
    let edges = rmat_with_workers(num_nodes, target_edges, seed, workers)?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let edges = top_up(edges, target_edges, target_edges * 100, &mut rng)?;
    trim_to(edges, target_edges, &mut rng)
}

/// Tops a sorted, duplicate-free list up with uniform random edges until it
/// holds `target_edges`, giving up after `budget` further attempts.
///
/// Membership is a binary search over the (immutable, sorted) base plus a
/// BTreeSet of top-up edges, merged once at the end: inserting into the
/// sorted vector directly would memmove O(n) bytes per accepted edge, which
/// is catastrophic at ogbn-products scale.
///
/// # Errors
///
/// Returns [`GraphError::EdgeCountShortfall`] when the budget runs out first.
fn top_up(
    edges: EdgeList,
    target_edges: usize,
    budget: usize,
    rng: &mut StdRng,
) -> Result<EdgeList, GraphError> {
    if edges.num_edges() >= target_edges {
        return Ok(edges);
    }
    let num_nodes = edges.num_nodes();
    let base = edges.into_edges();
    let mut added = std::collections::BTreeSet::new();
    let mut guard = 0usize;
    while base.len() + added.len() < target_edges {
        let src = rng.gen_range(0..num_nodes as NodeId);
        let dst = rng.gen_range(0..num_nodes as NodeId);
        if src != dst {
            let candidate = Edge::new(src, dst);
            if base.binary_search(&candidate).is_err() {
                added.insert(candidate);
            }
        }
        guard += 1;
        if guard > budget {
            return Err(GraphError::EdgeCountShortfall {
                requested: target_edges,
                generated: base.len() + added.len(),
            });
        }
    }
    // Linear merge of two sorted, disjoint sequences.
    let mut all: Vec<Edge> = Vec::with_capacity(base.len() + added.len());
    let mut added = added.into_iter().peekable();
    for edge in base {
        while let Some(a) = added.next_if(|a| *a < edge) {
            all.push(a);
        }
        all.push(edge);
    }
    all.extend(added);
    Ok(EdgeList::from_sorted_edges_unchecked(num_nodes, all))
}

/// Removes random edges until the list holds at most `target` edges (see
/// [`trim_selection`]).
fn trim_to(edges: EdgeList, target: usize, rng: &mut StdRng) -> Result<EdgeList, GraphError> {
    let Some(kept) = trim_selection(edges.num_edges(), target, rng)? else {
        return Ok(edges);
    };
    let num_nodes = edges.num_nodes();
    let mut all = edges.into_edges();
    kept.retain(&mut all);
    Ok(EdgeList::from_sorted_edges_unchecked(num_nodes, all))
}

/// Which of a sorted, duplicate-free list's `len` edges survive a trim to
/// `target` edges, or `None` when nothing is trimmed.
///
/// A partial Fisher–Yates shuffle picks the survivors, sequentially (each
/// swap depends on the last). It shuffles edge positions rather than the
/// edges, with the same draws and the same swaps, so the surviving
/// positions are exactly those the historical in-place edge shuffle kept.
/// The list is sorted and free of duplicates, so keeping the edges at those
/// positions in list order yields the survivors already in `(src, dst)`
/// order: the historical re-sort is not needed.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] for more than `u32::MAX` edges.
fn trim_selection(
    len: usize,
    target: usize,
    rng: &mut StdRng,
) -> Result<Option<Selection>, GraphError> {
    if len <= target {
        return Ok(None);
    }
    let count = u32::try_from(len)
        .map_err(|_| GraphError::invalid("edges", "more than u32::MAX edges to trim"))?;
    let mut positions: Vec<u32> = (0..count).collect();
    for i in 0..target {
        let j = rng.gen_range(i..len);
        positions.swap(i, j);
    }
    let mut kept = Selection::with_len(len);
    for &position in &positions[..target] {
        kept.insert(position as usize);
    }
    Ok(Some(kept))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erdos_renyi_rejects_bad_probability() {
        assert!(erdos_renyi(10, -0.1, 0).is_err());
        assert!(erdos_renyi(10, 1.5, 0).is_err());
    }

    #[test]
    fn erdos_renyi_is_deterministic() {
        let a = erdos_renyi(30, 0.1, 7).unwrap();
        let b = erdos_renyi(30, 0.1, 7).unwrap();
        assert_eq!(a, b);
        let c = erdos_renyi(30, 0.1, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn erdos_renyi_edge_count_near_expectation() {
        let n = 100;
        let p = 0.05;
        let g = erdos_renyi(n, p, 3).unwrap();
        let expected = (n * (n - 1)) as f64 * p;
        let actual = g.num_edges() as f64;
        assert!(
            (actual - expected).abs() < expected * 0.5,
            "expected ~{expected}, got {actual}"
        );
    }

    #[test]
    fn erdos_renyi_extremes() {
        // p = 0: no edges. p = 1: every ordered non-diagonal pair.
        assert!(erdos_renyi(20, 0.0, 5).unwrap().is_empty());
        let complete = erdos_renyi(20, 1.0, 5).unwrap();
        assert_eq!(complete.num_edges(), 20 * 19);
        // Degenerate node counts.
        assert!(erdos_renyi(0, 0.5, 5).unwrap().is_empty());
        assert!(erdos_renyi(1, 0.5, 5).unwrap().is_empty());
    }

    #[test]
    fn erdos_renyi_is_simple_and_sorted() {
        let g = erdos_renyi(80, 0.07, 11).unwrap();
        assert!(g.is_sorted());
        let slice = g.as_slice();
        assert!(slice.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        assert!(slice.iter().all(|e| e.src != e.dst), "no self-loops");
        assert!(slice.iter().all(|e| e.src < 80 && e.dst < 80));
    }

    #[test]
    fn rmat_rejects_degenerate_parameters() {
        assert!(rmat(0, 10, 0).is_err());
        assert!(rmat(10, 0, 0).is_err());
    }

    #[test]
    fn rmat_is_deterministic_and_simple() {
        let a = rmat(256, 1000, 11).unwrap();
        let b = rmat(256, 1000, 11).unwrap();
        assert_eq!(a, b);
        // simple graph: no self loops, no duplicates
        let mut seen = std::collections::HashSet::new();
        for e in a.iter() {
            assert_ne!(e.src, e.dst);
            assert!(seen.insert(*e));
        }
    }

    #[test]
    fn rmat_degree_distribution_is_skewed() {
        let g = rmat(512, 4000, 5).unwrap();
        let degs = g.in_degrees();
        let max = *degs.iter().max().unwrap();
        let avg = degs.iter().sum::<usize>() as f64 / degs.len() as f64;
        assert!(
            max as f64 > 3.0 * avg,
            "power-law graph should have hubs: max {max}, avg {avg:.1}"
        );
    }

    /// The historical trim: copy, partial shuffle, truncate, comparison
    /// re-sort.
    fn historical_trim(edges: &mut EdgeList, target: usize, rng: &mut StdRng) {
        if edges.num_edges() <= target {
            return;
        }
        let mut all: Vec<Edge> = edges.iter().copied().collect();
        for i in 0..target {
            let j = rng.gen_range(i..all.len());
            all.swap(i, j);
        }
        all.truncate(target);
        all.sort_unstable();
        *edges = EdgeList::from_edges(edges.num_nodes(), all).unwrap();
    }

    /// The historical R-MAT flow: `f64` draws through a three-way branch
    /// into a plain list, then symmetrize and trim the old way.
    fn historical_rmat(n: usize, target: usize, seed: u64) -> EdgeList {
        let mut rng = StdRng::seed_from_u64(seed);
        let levels = (n as f64).log2().ceil() as u32;
        let side = 1usize << levels;
        let (a, b, c) = (0.57, 0.19, 0.19);
        let mut edges = EdgeList::new(n);
        for _ in 0..target * 2 {
            let (mut src, mut dst) = (0usize, 0usize);
            let mut span = side;
            while span > 1 {
                span /= 2;
                let r: f64 = rng.gen();
                if r < a {
                } else if r < a + b {
                    dst += span;
                } else if r < a + b + c {
                    src += span;
                } else {
                    src += span;
                    dst += span;
                }
            }
            if src < n && dst < n && src != dst {
                edges.push(Edge::new(src as NodeId, dst as NodeId)).unwrap();
            }
        }
        edges.symmetrize();
        historical_trim(&mut edges, target, &mut rng);
        edges
    }

    #[test]
    fn integer_thresholds_match_the_f64_comparison_at_their_edges() {
        // `m < ceil(t · 2^53)` must agree with the shim's `f64` draw
        // `(m as f64) · 2^-53 < t` right at each threshold, and the
        // branchless quadrant must equal the historical three-way branch
        // there.
        let [a, b, c] = RMAT_ABC;
        let thresholds = rmat_thresholds();
        for (threshold, t) in thresholds.into_iter().zip([a, a + b, a + b + c]) {
            for m in [threshold - 1, threshold, threshold + 1] {
                let r = m as f64 * (1.0 / (1u64 << 53) as f64);
                assert_eq!(m < threshold, r < t, "t = {t}, m = {m}");
                let historical = if r < a {
                    0
                } else if r < a + b {
                    1
                } else if r < a + b + c {
                    2
                } else {
                    3
                };
                assert_eq!(rmat_quadrant(m, thresholds), historical, "m = {m}");
            }
        }
    }

    /// Node counts include non-powers of two (rejected samples) and tiny
    /// graphs (few or no levels).
    const SYMMETRIZE_CASES: [(usize, usize, u64); 20] = [
        (1, 4, 3),
        (2, 2, 1),
        (3, 5, 7),
        (7, 20, 2),
        (16, 60, 4),
        (17, 80, 5),
        (31, 100, 6),
        (64, 300, 8),
        (100, 450, 9),
        (127, 600, 10),
        (128, 600, 11),
        (129, 700, 12),
        (200, 900, 17),
        (255, 1000, 13),
        (333, 1500, 14),
        (500, 2500, 15),
        (512, 4000, 16),
        (777, 3000, 18),
        (1000, 5000, 1),
        (1500, 9000, 19),
    ];

    #[test]
    fn rmat_matches_the_historical_symmetrize_flow() {
        // The branchless sampler, the counting-sort builder and the in-place
        // trim must reproduce the original build-everything-then-symmetrize
        // flow bit for bit: same RNG consumption, same sorted/deduped set,
        // same trim.
        for (n, target, seed) in SYMMETRIZE_CASES {
            let streamed = rmat(n, target, seed).unwrap();
            let historical = historical_rmat(n, target, seed);
            assert_eq!(streamed, historical, "n {n}, target {target}, seed {seed}");
            assert!(streamed.is_sorted());
        }
    }

    #[test]
    fn rmat_does_not_depend_on_the_worker_count() {
        // Counter-indexed sampling bands, per-band builders and the banded
        // counting sort must give the single-worker list at any worker
        // count, including more workers than attempts or nodes.
        for (n, target, seed) in SYMMETRIZE_CASES {
            let single = rmat_with_workers(n, target, seed, 1).unwrap();
            assert_eq!(single, historical_rmat(n, target, seed));
            for workers in [2, 7] {
                assert_eq!(
                    rmat_with_workers(n, target, seed, workers).unwrap(),
                    single,
                    "n {n}, target {target}, seed {seed}, {workers} workers"
                );
            }
        }
        for workers in [1, 2, 7] {
            assert_eq!(
                rmat_exact_with_workers(150, 1100, 21, workers).unwrap(),
                rmat_exact_with_workers(150, 1100, 21, 1).unwrap(),
                "top-up case, {workers} workers"
            );
        }
    }

    #[test]
    fn rmat_exact_hits_requested_edge_count() {
        let g = rmat_exact(300, 2000, 9).unwrap();
        assert_eq!(g.num_edges(), 2000);
        assert_eq!(g.num_nodes(), 300);
    }

    #[test]
    fn rmat_exact_rejects_impossible_counts() {
        assert!(rmat_exact(3, 100, 0).is_err());
    }

    #[test]
    fn rmat_exact_small_graph() {
        let g = rmat_exact(10, 20, 123).unwrap();
        assert_eq!(g.num_edges(), 20);
        for e in g.iter() {
            assert!(e.src < 10 && e.dst < 10);
            assert_ne!(e.src, e.dst);
        }
    }

    #[test]
    fn rmat_exact_matches_the_historical_insert_top_up() {
        // The BTreeSet + merge top-up must reproduce the original
        // insert-into-sorted-vec flow bit for bit: same RNG consumption,
        // same accept/reject decisions, same final ordering.
        let (n, target, seed) = (150usize, 1100usize, 21u64);
        let fast = rmat_exact(n, target, seed).unwrap();

        let mut edges = historical_rmat(n, target, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        if edges.num_edges() < target {
            let mut all: Vec<Edge> = edges.iter().copied().collect();
            let mut guard = 0usize;
            while all.len() < target {
                let src = rng.gen_range(0..n as NodeId);
                let dst = rng.gen_range(0..n as NodeId);
                if src != dst {
                    let candidate = Edge::new(src, dst);
                    if let Err(slot) = all.binary_search(&candidate) {
                        all.insert(slot, candidate);
                    }
                }
                guard += 1;
                if guard > target * 100 {
                    break;
                }
            }
            edges = EdgeList::from_sorted_edges_unchecked(n, all);
        }
        historical_trim(&mut edges, target, &mut rng);
        assert!(
            fast.num_edges() == target,
            "the sample must actually fall short so the top-up runs"
        );
        assert_eq!(fast, edges);
    }

    #[test]
    fn an_exhausted_top_up_is_a_typed_shortfall() {
        let sample = rmat(40, 100, 5).unwrap();
        let have = sample.num_edges();
        let mut rng = StdRng::seed_from_u64(5);
        assert!(matches!(
            top_up(sample.clone(), have + 50, 0, &mut rng),
            Err(GraphError::EdgeCountShortfall { requested, generated })
                if requested == have + 50 && generated <= have + 1
        ));
        // A list already at the target needs no attempt at all.
        assert_eq!(top_up(sample.clone(), have, 0, &mut rng), Ok(sample));
    }

    #[test]
    fn rmat_exact_output_is_sorted() {
        let g = rmat_exact(120, 800, 3).unwrap();
        assert!(g.is_sorted());
        assert!(g.as_slice().windows(2).all(|w| w[0] < w[1]));
    }
}
