//! Seeded synthetic graph generators.
//!
//! The paper's evaluation uses real citation graphs fetched through DGL. A
//! hermetic reproduction cannot download them, so the [`datasets`](crate::datasets)
//! module synthesises graphs with matching statistics using the generators in
//! this module. All generators are deterministic given a seed.
//!
//! The generators stream symmetric pairs through the chunked
//! [`EdgeListBuilder`], whose counting sort of
//! unordered pairs puts them in canonical order in linear time, instead of
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
//! generator is advanced past every attempt before the trim. The trim
//! picks surviving edge positions rather than shuffling edges and keeps the
//! survivors in list order, so it needs no sort, and the builder writes out
//! only the surviving edges. Its partial Fisher–Yates shuffle runs in
//! parallel for the same reason the sampler does: step `t`'s draw is draw
//! `t` of the stream, so every step's swap target is known up front, and
//! which positions survive follows from who hit each slot last (see
//! `trim_selection_with_workers`).
//!
//! Within a band, the sampler runs 8 consecutive attempts in lockstep
//! lanes, and the lanes are bit-identical to the one-at-a-time loop for the
//! same reason: SplitMix64 is counter-based (draw `k` is a pure mix of
//! `state + (k + 1)·γ`), so lane `l` starts from a copy of the generator
//! advanced to attempt `a + l`, draws exactly the draws that attempt draws,
//! and then skips the other 7 lanes' attempts. Kept pairs are pushed in
//! attempt order, and a tail of fewer than 8 attempts runs one at a time.
//! One lane body is compiled twice, under `#[target_feature]` for AVX-512
//! (F and DQ, for the 64-bit lane multiply) and for AVX2, which turns the
//! lane loops into vector instructions; without those features 8 lanes are
//! slower than one. Each band picks the fastest path the CPU reports with
//! `is_x86_feature_detected!`, and falls back to the one-at-a-time loop on
//! other CPUs and architectures. There is no setting for the path.

use crate::edge_builder::Selection;
use crate::parallel::{even_bounds, run_bands, split_bands, weighted_bounds, workers_for};
use crate::{Edge, EdgeList, EdgeListBuilder, GraphError, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Attempts one lane group samples in lockstep.
const LANES: usize = 8;

/// A way to run a band of R-MAT attempts. Every path streams the same pairs
/// in the same order (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SamplerPath {
    /// One attempt at a time.
    Scalar,
    /// [`LANES`] attempts at a time, compiled for AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// [`LANES`] attempts at a time, compiled for AVX-512 (DQ adds the
    /// 64-bit lane multiply SplitMix64 needs).
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl SamplerPath {
    /// The paths this CPU can run, fastest first; [`SamplerPath::Scalar`]
    /// is always last.
    fn detected() -> Vec<Self> {
        let mut paths = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if avx512_detected() {
                paths.push(Self::Avx512);
            }
            if is_x86_feature_detected!("avx2") {
                paths.push(Self::Avx2);
            }
        }
        paths.push(Self::Scalar);
        paths
    }

    /// The fastest path this CPU can run.
    fn fastest() -> Self {
        Self::detected()[0]
    }
}

/// Whether this CPU has the features [`sample_lanes_avx512`] is compiled
/// for.
#[cfg(target_arch = "x86_64")]
fn avx512_detected() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
}

/// What every R-MAT attempt shares: the node count a pair must fall below,
/// the draws (levels) per attempt and the quadrant thresholds.
#[derive(Debug, Clone, Copy)]
struct Sampler {
    num_nodes: usize,
    levels: u32,
    thresholds: [u64; 3],
}

impl Sampler {
    fn new(num_nodes: usize) -> Self {
        Self {
            num_nodes,
            levels: (num_nodes as f64).log2().ceil() as u32,
            thresholds: rmat_thresholds(),
        }
    }

    /// A copy of the stream `rng` positioned at `attempt`'s first draw:
    /// every attempt consumes exactly `levels` draws.
    fn stream_at(&self, rng: &StdRng, attempt: usize) -> StdRng {
        let mut rng = rng.clone();
        rng.advance(attempt as u64 * u64::from(self.levels));
        rng
    }

    /// Streams the kept pairs of the `attempts` of `rng`'s stream into
    /// `band`, on `path` (the scalar path if this CPU cannot run it).
    fn sample(
        &self,
        path: SamplerPath,
        rng: &StdRng,
        attempts: Range<usize>,
        band: &mut EdgeListBuilder,
    ) -> Result<(), GraphError> {
        match path {
            #[cfg(target_arch = "x86_64")]
            SamplerPath::Avx512 if avx512_detected() => {
                // SAFETY: the guard has just detected avx512f and
                // avx512dq on this CPU, the only features
                // `sample_lanes_avx512` is compiled for.
                unsafe { sample_lanes_avx512(self, rng, attempts, band) }
            }
            #[cfg(target_arch = "x86_64")]
            SamplerPath::Avx2 if is_x86_feature_detected!("avx2") => {
                // SAFETY: the guard has just detected avx2 on this CPU, the
                // only feature `sample_lanes_avx2` is compiled for.
                unsafe { sample_lanes_avx2(self, rng, attempts, band) }
            }
            _ => self.sample_scalar(rng, attempts, band),
        }
    }

    /// The attempts one at a time.
    fn sample_scalar(
        &self,
        rng: &StdRng,
        attempts: Range<usize>,
        band: &mut EdgeListBuilder,
    ) -> Result<(), GraphError> {
        let mut rng = self.stream_at(rng, attempts.start);
        for _ in attempts {
            let (mut src, mut dst) = (0usize, 0usize);
            // One bit of each endpoint per level, most significant first.
            for _ in 0..self.levels {
                let quadrant = rmat_quadrant(rng.next_u64() >> 11, self.thresholds);
                src = (src << 1) | (quadrant >> 1);
                dst = (dst << 1) | (quadrant & 1);
            }
            self.keep(src, dst, band)?;
        }
        Ok(())
    }

    /// The attempts in groups of [`LANES`] consecutive ones run in
    /// lockstep, lane `l` of a group drawing exactly the draws attempt
    /// `a + l` draws on the scalar path; a shorter tail runs scalar.
    /// Inlined into each `#[target_feature]` wrapper, whose features turn
    /// the lane loops into vector instructions.
    #[inline(always)]
    fn sample_lanes(
        &self,
        rng: &StdRng,
        attempts: Range<usize>,
        band: &mut EdgeListBuilder,
    ) -> Result<(), GraphError> {
        let groups = attempts.len() / LANES;
        let mut lanes: [StdRng; LANES] =
            std::array::from_fn(|lane| self.stream_at(rng, attempts.start + lane));
        // After one attempt, a lane skips the other lanes' attempts.
        let skip = (LANES as u64 - 1) * u64::from(self.levels);
        for _ in 0..groups {
            let mut src = [0usize; LANES];
            let mut dst = [0usize; LANES];
            for _ in 0..self.levels {
                for ((rng, src), dst) in lanes.iter_mut().zip(&mut src).zip(&mut dst) {
                    let quadrant = rmat_quadrant(rng.next_u64() >> 11, self.thresholds);
                    *src = (*src << 1) | (quadrant >> 1);
                    *dst = (*dst << 1) | (quadrant & 1);
                }
            }
            for ((rng, src), dst) in lanes.iter_mut().zip(src).zip(dst) {
                rng.advance(skip);
                self.keep(src, dst, band)?;
            }
        }
        self.sample_scalar(rng, attempts.start + groups * LANES..attempts.end, band)
    }

    /// Streams a sampled pair (and its reverse) unless it falls outside the
    /// graph or is a self-loop.
    #[inline(always)]
    fn keep(&self, src: usize, dst: usize, band: &mut EdgeListBuilder) -> Result<(), GraphError> {
        if src < self.num_nodes && dst < self.num_nodes && src != dst {
            band.push_symmetric(Edge::new(src as NodeId, dst as NodeId))?;
        }
        Ok(())
    }
}

/// [`Sampler::sample_lanes`] compiled for AVX-512. A call is `unsafe`: the
/// caller must have detected `avx512f` and `avx512dq` on this CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn sample_lanes_avx512(
    sampler: &Sampler,
    rng: &StdRng,
    attempts: Range<usize>,
    band: &mut EdgeListBuilder,
) -> Result<(), GraphError> {
    sampler.sample_lanes(rng, attempts, band)
}

/// [`Sampler::sample_lanes`] compiled for AVX2. A call is `unsafe`: the
/// caller must have detected `avx2` on this CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sample_lanes_avx2(
    sampler: &Sampler,
    rng: &StdRng,
    attempts: Range<usize>,
    band: &mut EdgeListBuilder,
) -> Result<(), GraphError> {
    sampler.sample_lanes(rng, attempts, band)
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
/// comparison would make). Sampled edges are streamed as symmetric pairs
/// (each accepted edge stands for itself and its reverse) through the
/// chunked builder, whose counting sort of unordered pairs puts them in
/// order and deduplicates them. The
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
    let sampler = Sampler::new(num_nodes);

    let mut builder = EdgeListBuilder::new(num_nodes);
    // Symmetrisation halves the unique directed edge count on average, and
    // deduplication removes collisions, so oversample before trimming.
    let attempts = target_edges * 2;
    let bounds = even_bounds(attempts, workers);
    let bands: Vec<(Range<usize>, EdgeListBuilder)> = bounds
        .windows(2)
        .map(|w| (w[0]..w[1], builder.band_builder()))
        .collect();
    let bands = run_bands(bands, |(range, mut band)| {
        sampler.sample(SamplerPath::fastest(), &rng, range, &mut band)?;
        Ok(band)
    })?;
    for band in bands {
        builder.absorb(band);
    }
    rng.advance(attempts as u64 * u64::from(sampler.levels));
    // The trim picks its survivors by index once the distinct count is
    // known, so the builder writes out only the edges that survive.
    builder.try_finish_selected(workers, |len| {
        trim_selection_with_workers(len, target_edges, &mut rng, workers)
    })
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

/// Slots per trim bucket: a bucket's last-hitter array (one `u32` per
/// slot, 1 MiB) stays in L2 while the bucket's steps hit it.
const TRIM_BUCKET_SLOTS: usize = 1 << 18;

/// "No step" in the trim's step-id arrays (a step id is below `len`, which
/// is at most `u32::MAX`).
const NO_STEP: u32 = u32::MAX;

/// Which of a sorted, duplicate-free list's `len` edges survive a trim to
/// `target` edges, or `None` when nothing is trimmed (see
/// [`trim_selection_with_workers`]).
fn trim_selection(
    len: usize,
    target: usize,
    rng: &mut StdRng,
) -> Result<Option<Selection>, GraphError> {
    trim_selection_with_workers(len, target, rng, workers_for(target))
}

/// [`trim_selection`] on `workers` workers (the selection does not depend
/// on the count).
///
/// The survivors are the positions a partial Fisher–Yates shuffle of
/// `0..len` leaves in its first `target` slots: step `t` swaps slot `t` with
/// slot `j_t = t + next_u64() % (len − t)`, draw `t` of `rng`'s stream, and
/// the caller's `rng` ends `target` draws later, as if the loop had run. The
/// list is sorted and free of duplicates, so keeping the edges at those
/// positions in list order yields the survivors already in `(src, dst)`
/// order.
///
/// The steps run in parallel, not one after another. Step `t` never
/// touches slot `t` again, so what it leaves there is what slot `j_t` held
/// just before it: `j_t` itself when no earlier step hit that slot, else
/// what the last earlier hitter `hp(t)` found in its own slot. A front slot
/// `x < target` holds `x` until step `x` unless an earlier step hit it, in
/// which case it holds what the last such step `lh(x)` found in its slot.
/// So the survivors are `{j_t : hp(t) = none} ∪ {root(hp(t))}`, where
/// `root(s)` follows `lh` from `s` until it reaches a step whose slot no
/// earlier step hit, and is that step.
///
/// Only steps up to `x` hit slot `x`, so `lh(x)` is simply the last step
/// that hit it, unless step `x` hit its own slot; such a step is never an
/// `hp` (no later step can hit slot `x`) nor an `lh` (its slot is not after
/// it), so no root walk reaches it.
///
/// 1. The draws are computed in parallel at their stream offsets, and the
///    step ids are stably bucketed by the slot they hit,
///    [`TRIM_BUCKET_SLOTS`] slots per bucket.
/// 2. One pass per bucket, in step order, through the bucket's last-hitter
///    array gives each step its `hp`, and leaves each front slot's `lh` in
///    the array. A step with no earlier hitter keeps `j_t`; the others keep
///    their `hp` for the next stage.
/// 3. Once every `lh` is known, each kept `hp` is followed to its root.
///
/// The scratch is the bucketed step ids and the front slots' `lh`,
/// `8 · target` bytes (`j_t` is recomputed from the stream rather than
/// stored), plus the `len`-bit selection and, per worker, the last hitters
/// of one bucket's other slots.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] for more than `u32::MAX` edges,
/// and [`GraphError::BuildWorker`] if a worker fails.
fn trim_selection_with_workers(
    len: usize,
    target: usize,
    rng: &mut StdRng,
    workers: usize,
) -> Result<Option<Selection>, GraphError> {
    if len <= target {
        return Ok(None);
    }
    u32::try_from(len)
        .map_err(|_| GraphError::invalid("edges", "more than u32::MAX edges to trim"))?;
    let draws = TrimDraws {
        stream: rng.clone(),
        len,
    };
    rng.advance(target as u64);
    let buckets = len.div_ceil(TRIM_BUCKET_SLOTS);
    let bucket_slots = |bucket: usize| {
        (bucket * TRIM_BUCKET_SLOTS).min(len)..((bucket + 1) * TRIM_BUCKET_SLOTS).min(len)
    };
    // 1. The step ids, grouped by the bucket they hit.
    let mut steps = vec![0u32; target];
    let bucket_bounds = bucket_steps(&draws, &mut steps, buckets, workers)?;

    // 2. One pass per bucket, buckets cut into worker bands by their steps.
    // A front slot's last hitter is its `lh`, so the front slots' entries of
    // the last-hitter array are kept, and only the other slots' entries are
    // per-worker scratch.
    let front = |bucket: usize| {
        let slots = bucket_slots(bucket);
        slots.start.min(target)..slots.end.min(target)
    };
    let band_bounds = weighted_bounds(buckets, workers, &|bucket| {
        bucket_bounds[bucket + 1] - bucket_bounds[bucket]
    });
    let step_cuts: Vec<usize> = band_bounds.iter().map(|&b| bucket_bounds[b]).collect();
    let front_cuts: Vec<usize> = band_bounds.iter().map(|&b| front(b).start).collect();
    // A bucket's slots are whole selection words, so each band owns its
    // buckets' words.
    let word_cuts: Vec<usize> = band_bounds
        .iter()
        .map(|&b| bucket_slots(b).start.div_ceil(64))
        .collect();
    let mut last_hitters = vec![0u32; target];
    let mut kept = vec![0u64; len.div_ceil(64)];
    let bands: Vec<_> = band_bounds
        .windows(2)
        .map(|w| w[0]..w[1])
        .zip(split_bands(&mut steps, &step_cuts))
        .zip(split_bands(&mut last_hitters, &front_cuts))
        .zip(split_bands(&mut kept, &word_cuts))
        .collect();
    run_bands(bands, |(((band, mut steps), mut lh), kept)| {
        let first_slot = band.start * TRIM_BUCKET_SLOTS;
        let mut back = Vec::new();
        for bucket in band {
            let slots = bucket_slots(bucket);
            let (bucket_steps, rest) = std::mem::take(&mut steps)
                .split_at_mut(bucket_bounds[bucket + 1] - bucket_bounds[bucket]);
            steps = rest;
            let (front, rest) = std::mem::take(&mut lh).split_at_mut(front(bucket).len());
            lh = rest;
            // The last step so far that hit each of the bucket's slots: its
            // front slots, then the others.
            front.fill(NO_STEP);
            back.clear();
            back.resize(slots.len() - front.len(), NO_STEP);
            for entry in bucket_steps.iter_mut() {
                let slot = draws.slot(*entry as usize);
                let k = slot - slots.start;
                let last = match front.get_mut(k) {
                    Some(last) => last,
                    None => &mut back[k - front.len()],
                };
                let previous = std::mem::replace(last, *entry);
                let local = slot - first_slot;
                kept[local / 64] |= u64::from(previous == NO_STEP) << (local % 64);
                *entry = previous;
            }
        }
        Ok(())
    })?;

    // 3. Each step that had an earlier hitter keeps its hitter's root, a
    // front slot in any band's words.
    let kept: Vec<AtomicU64> = kept.into_iter().map(AtomicU64::new).collect();
    let last_hitters = &last_hitters;
    run_bands(
        split_bands(&mut steps, &even_bounds(target, workers)),
        |band| {
            for &hitter in band.iter().filter(|&&hitter| hitter != NO_STEP) {
                let mut root = hitter as usize;
                while last_hitters[root] != NO_STEP {
                    root = last_hitters[root] as usize;
                }
                kept[root / 64].fetch_or(1 << (root % 64), Ordering::Relaxed);
            }
            Ok(())
        },
    )?;
    let words = kept.into_iter().map(AtomicU64::into_inner).collect();
    Ok(Some(Selection::from_words(words)))
}

/// The trim's swap targets: step `t` swaps slot `t` with
/// [`TrimDraws::slot`]`(t)`.
struct TrimDraws {
    /// The stream at step 0's draw.
    stream: StdRng,
    len: usize,
}

impl TrimDraws {
    /// `j_t = t + next_u64() % (len − t)`, with draw `t` of the stream.
    fn slot(&self, step: usize) -> usize {
        let mut rng = self.stream.clone();
        rng.advance(step as u64);
        step + (rng.next_u64() % (self.len - step) as u64) as usize
    }
}

/// Step 1 of the trim: writes the ids of steps `0..steps.len()` to
/// `steps`, stably grouped by the bucket of [`TRIM_BUCKET_SLOTS`] slots their
/// draw hits, and returns the bounds of each bucket's group. Each step band
/// counts its hits per bucket, then writes its step ids, band after band
/// within a bucket.
fn bucket_steps(
    draws: &TrimDraws,
    steps: &mut [u32],
    buckets: usize,
    workers: usize,
) -> Result<Vec<usize>, GraphError> {
    let target = steps.len();
    let step_bounds = even_bounds(target, workers);
    let step_bands: Vec<Range<usize>> = step_bounds.windows(2).map(|w| w[0]..w[1]).collect();
    let counts = run_bands(step_bands.clone(), |band| {
        let mut counts = vec![0usize; buckets];
        for step in band {
            counts[draws.slot(step) / TRIM_BUCKET_SLOTS] += 1;
        }
        Ok(counts)
    })?;
    let mut bucket_bounds = vec![0usize];
    let mut band_runs: Vec<Vec<&mut [u32]>> = step_bands.iter().map(|_| Vec::new()).collect();
    let mut rest = steps;
    for bucket in 0..buckets {
        for (runs, counts) in band_runs.iter_mut().zip(&counts) {
            let (run, tail) = std::mem::take(&mut rest).split_at_mut(counts[bucket]);
            runs.push(run);
            rest = tail;
        }
        bucket_bounds.push(target - rest.len());
    }
    let items = step_bands.into_iter().zip(band_runs).collect();
    run_bands(items, |(band, mut runs)| {
        let mut filled = vec![0usize; buckets];
        for step in band {
            let bucket = draws.slot(step) / TRIM_BUCKET_SLOTS;
            runs[bucket][filled[bucket]] = step as u32;
            filled[bucket] += 1;
        }
        Ok(())
    })?;
    Ok(bucket_bounds)
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
    fn lane_paths_match_the_scalar_sampler() {
        let paths = SamplerPath::detected();
        assert_eq!(paths.last(), Some(&SamplerPath::Scalar));
        // Node counts below a lane group and not powers of two (rejected
        // samples), and bands that leave 0, 1 and 7 attempts for the
        // scalar tail.
        for (n, seed) in [
            (1usize, 3u64),
            (3, 7),
            (7, 2),
            (100, 9),
            (333, 14),
            (1000, 1),
        ] {
            let sampler = Sampler::new(n);
            let rng = StdRng::seed_from_u64(seed);
            for workers in [1usize, 2, 7] {
                for tail in [0, 1, 7] {
                    let band_len = 5 * LANES + tail;
                    let bounds = even_bounds(workers * band_len, workers);
                    for range in bounds.windows(2).map(|w| w[0]..w[1]) {
                        assert_eq!(range.len() % LANES, tail);
                        let band = |path| {
                            let mut band = EdgeListBuilder::with_chunk_capacity(n, 16);
                            sampler
                                .sample(path, &rng, range.clone(), &mut band)
                                .unwrap();
                            band
                        };
                        let scalar = band(SamplerPath::Scalar);
                        for &path in &paths {
                            assert_eq!(
                                band(path),
                                scalar,
                                "{path:?}: n {n}, seed {seed}, {workers} workers, band {range:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The sequential partial Fisher–Yates loop over positions: the kept
    /// positions, ascending, and how many steps hit their own slot.
    fn sequential_trim(len: usize, target: usize, rng: &mut StdRng) -> (Vec<usize>, usize) {
        let mut positions: Vec<usize> = (0..len).collect();
        let mut self_hits = 0;
        for i in 0..target {
            let j = rng.gen_range(i..len);
            self_hits += usize::from(j == i);
            positions.swap(i, j);
        }
        positions.truncate(target);
        positions.sort_unstable();
        (positions, self_hits)
    }

    #[test]
    fn parallel_trim_matches_the_sequential_loop() {
        let bucket = TRIM_BUCKET_SLOTS;
        let mut state = 0x7e57_u64;
        let mut cases = vec![
            (2usize, 1usize),
            (5, 4),
            (1000, 1),
            (1000, 999),
            (bucket - 1, bucket / 3),
            (bucket, bucket - 1),
            (bucket + 1, bucket),
            (bucket + 1, 1),
            (3 * bucket + 5, bucket + 17),
        ];
        for _ in 0..6 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let len = 2 + (state >> 40) as usize % 3000;
            cases.push((len, 1 + (state >> 20) as usize % (len - 1)));
        }
        let mut self_hits = 0;
        for (case, (len, target)) in cases.into_iter().enumerate() {
            let seed = 17 + case as u64;
            let mut oracle_rng = StdRng::seed_from_u64(seed);
            let (expected, hits) = sequential_trim(len, target, &mut oracle_rng);
            self_hits += hits;
            for workers in [1, 2, 7] {
                let mut rng = StdRng::seed_from_u64(seed);
                let kept = trim_selection_with_workers(len, target, &mut rng, workers)
                    .unwrap()
                    .expect("a list longer than the target is trimmed");
                let mut positions = Vec::new();
                kept.for_each_in(0..len, |i| positions.push(i));
                assert_eq!(
                    positions, expected,
                    "len {len}, target {target}, {workers} workers"
                );
                // The caller's stream ends where the loop's would.
                assert_eq!(
                    rng, oracle_rng,
                    "len {len}, target {target}, {workers} workers"
                );
            }
        }
        assert!(self_hits > 0, "some step must hit its own slot");
        // Nothing to trim: no selection, and no draw.
        let mut rng = StdRng::seed_from_u64(3);
        assert!(trim_selection_with_workers(10, 10, &mut rng, 2)
            .unwrap()
            .is_none());
        assert_eq!(rng, StdRng::seed_from_u64(3));
    }

    /// The full-scale ogbn-products edge list (2.4M nodes, 60M edges, seed
    /// 5), pinned by its FNV-1a digest over `src << 32 | dst`. It reaches
    /// row lengths and trim buckets (172M slots, 658 buckets) that the small
    /// cases never do. On Linux it also bounds the process's peak resident
    /// memory (`VmHWM`), so run it alone, in release:
    /// `cargo test --release -p gnnerator-graph -- --ignored full_scale`.
    #[test]
    #[ignore = "full scale: about 10 s and 1.2 GB in a release build"]
    fn full_scale_products_edges_keep_their_digest() {
        let spec = crate::datasets::DatasetKind::OgbnProductsScale.spec();
        let edges = rmat_exact(spec.vertices, spec.edges, 5).unwrap();
        assert_eq!(edges.num_edges(), spec.edges);
        let digest = edges.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, e| {
            (h ^ (u64::from(e.src) << 32 | u64::from(e.dst))).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(format!("{digest:016x}"), "18ed8133dc997cc9");
        #[cfg(target_os = "linux")]
        {
            // 1,140,020 kB measured on 2 cores, plus 5 %, plus one `u32`
            // count per node for each further worker (the counting sort's
            // per-worker arrays).
            let workers = std::thread::available_parallelism().map_or(1, usize::from);
            let bound_kb = 1_197_000 + workers.saturating_sub(2) * spec.vertices * 4 / 1024;
            let status = std::fs::read_to_string("/proc/self/status").unwrap();
            let peak_kb: usize = status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().strip_suffix("kB"))
                .map(|kb| kb.trim().parse().unwrap())
                .expect("/proc/self/status has a VmHWM line");
            assert!(
                peak_kb <= bound_kb,
                "VmHWM {peak_kb} kB is above {bound_kb} kB"
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
