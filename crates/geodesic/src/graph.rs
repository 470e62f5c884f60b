//! Edge-weighted graphs and Dijkstra's algorithm.
//!
//! Used by DMTM upper-bound estimation (front meshes are graphs), the
//! pathnet, and the EA benchmark — everywhere the paper says "Dijkstra's
//! shortest path algorithm \[3\]" over a graph that exists. The SDN lower
//! bound runs the same algorithm over layers it never materialises
//! (`sknn_sdn::network`) and keeps this module as its test oracle.
//!
//! Two priority-queue implementations drive the runs, selected by
//! [`QueuePolicy`]: the classic binary heap and a Dial-style monotone
//! bucket queue whose width is the graph's minimum positive edge weight.
//! Both pop the globally smallest `(distance, node)` pair, so distances,
//! predecessors and settle counts are bit-identical between them (pinned
//! by property tests here and in `tests/queue_equivalence.rs`); they
//! differ only in constant factors on the relaxation hot path.

use sknn_geom::Point3;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// Typed graph-construction failure.
///
/// The `try_` constructors surface a poisoned (NaN) weight as an error
/// instead of letting it reach a priority queue, where any comparison
/// involving NaN would silently mis-order the heap.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// NaN weight: would poison every downstream distance and mis-order
    /// any comparison-based queue.
    PoisonedWeight {
        /// Index of the offending edge in the input slice.
        index: usize,
        /// Edge endpoints.
        endpoints: (u32, u32),
    },
    /// Negative weight: Dijkstra's settle invariant does not hold.
    NegativeWeight {
        /// Index of the offending edge in the input slice.
        index: usize,
        /// The weight.
        weight: f64,
    },
    /// An endpoint is outside `0..num_nodes`.
    NodeOutOfRange {
        /// Index of the offending edge in the input slice.
        index: usize,
        /// The out-of-range endpoint.
        node: u32,
        /// Number of nodes the graph was declared with.
        num_nodes: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::PoisonedWeight { index, endpoints } => write!(
                f,
                "poisoned (NaN) edge weight at edge {index} ({} - {})",
                endpoints.0, endpoints.1
            ),
            Self::NegativeWeight { index: _, weight } => {
                write!(f, "negative edge weight {weight}")
            }
            Self::NodeOutOfRange { index, node, num_nodes } => {
                write!(f, "edge {index} endpoint {node} out of range (num_nodes {num_nodes})")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A compact adjacency-list graph with non-negative edge weights.
#[derive(Debug, Clone)]
pub struct Graph {
    /// CSR offsets, one per node plus a terminator.
    offsets: Vec<u32>,
    /// (neighbor, weight) pairs, interleaved for unit-stride relaxation.
    edges: Vec<(u32, f64)>,
    /// Smallest strictly-positive edge weight (`f64::INFINITY` when the
    /// graph has none) — the Dial bucket width for [`QueuePolicy::Bucket`].
    min_pos_weight: f64,
}

impl Default for Graph {
    fn default() -> Self {
        Self { offsets: Vec::new(), edges: Vec::new(), min_pos_weight: f64::INFINITY }
    }
}

impl Graph {
    /// Build from an undirected edge list.
    ///
    /// # Panics
    /// Panics on NaN or negative weights or out-of-range endpoints.
    pub fn from_undirected(num_nodes: usize, edges: &[(u32, u32, f64)]) -> Self {
        let mut g = Self::default();
        g.rebuild_undirected(num_nodes, edges);
        g
    }

    /// Rebuild in place from an undirected edge list, reusing the CSR
    /// allocations of the previous build (ranking builds one graph per
    /// fetched front; this keeps it free of fresh allocations once the
    /// buffers have grown to a working size).
    ///
    /// # Panics
    /// Panics on NaN or negative weights or out-of-range endpoints.
    pub fn rebuild_undirected(&mut self, num_nodes: usize, edges: &[(u32, u32, f64)]) {
        self.try_rebuild_undirected(num_nodes, edges).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`rebuild_undirected`](Self::rebuild_undirected) with poisoned input
    /// surfaced as a typed [`GraphError`]. On `Err` the graph is left in an
    /// unspecified (but memory-safe) state and must be rebuilt before use.
    pub fn try_rebuild_undirected(
        &mut self,
        num_nodes: usize,
        edges: &[(u32, u32, f64)],
    ) -> Result<(), GraphError> {
        self.offsets.clear();
        self.offsets.resize(num_nodes + 1, 0);
        let mut minw = f64::INFINITY;
        // First pass: validate and count degrees in offsets[1..].
        for (i, &(a, b, w)) in edges.iter().enumerate() {
            if w.is_nan() {
                return Err(GraphError::PoisonedWeight { index: i, endpoints: (a, b) });
            }
            if w < 0.0 {
                return Err(GraphError::NegativeWeight { index: i, weight: w });
            }
            if (a as usize) >= num_nodes {
                return Err(GraphError::NodeOutOfRange { index: i, node: a, num_nodes });
            }
            if (b as usize) >= num_nodes {
                return Err(GraphError::NodeOutOfRange { index: i, node: b, num_nodes });
            }
            if w > 0.0 && w < minw {
                minw = w;
            }
            self.offsets[a as usize + 1] += 1;
            self.offsets[b as usize + 1] += 1;
        }
        for i in 0..num_nodes {
            self.offsets[i + 1] += self.offsets[i];
        }
        self.edges.clear();
        self.edges.resize(edges.len() * 2, (0u32, 0f64));
        // Second pass: place entries using offsets[0..n] as fill cursors;
        // each cursor ends at the next node's start, so shifting the array
        // right by one restores the CSR offsets without an auxiliary
        // buffer.
        for &(a, b, w) in edges {
            self.edges[self.offsets[a as usize] as usize] = (b, w);
            self.offsets[a as usize] += 1;
            self.edges[self.offsets[b as usize] as usize] = (a, w);
            self.offsets[b as usize] += 1;
        }
        for i in (1..=num_nodes).rev() {
            self.offsets[i] = self.offsets[i - 1];
        }
        if num_nodes > 0 {
            self.offsets[0] = 0;
        }
        self.min_pos_weight = minw;
        Ok(())
    }

    /// Num nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Num edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len() / 2
    }

    /// Neighbors.
    pub fn neighbors(&self, n: u32) -> &[(u32, f64)] {
        &self.edges[self.offsets[n as usize] as usize..self.offsets[n as usize + 1] as usize]
    }
}

/// Which priority queue drives a Dijkstra run.
///
/// Both implementations pop the globally smallest `(distance, node)` pair,
/// so distances, predecessors and settle counts are bit-identical; they
/// differ only in constant factors. `Bucket` is the default: with the
/// bucket width at the graph's minimum positive edge weight, pops are
/// amortized O(1) instead of O(log n) sift-downs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueuePolicy {
    /// `std::collections::BinaryHeap` — the classic baseline.
    Heap,
    /// Dial-style monotone bucket (calendar) queue with an overflow band.
    #[default]
    Bucket,
}

impl QueuePolicy {
    /// Canonical lowercase name (what `Display` prints: bench row names).
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::Heap => "heap",
            Self::Bucket => "bucket",
        }
    }
}

impl fmt::Display for QueuePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Queue-operation counters from one Dijkstra run (satellite telemetry:
/// exported per query as `queue_pushes` / `queue_pops` / `stale_pops`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueCounters {
    /// Items pushed into the queue.
    pub pushes: u64,
    /// Items popped from the queue, including stale ones.
    pub pops: u64,
    /// Popped items discarded because their node was already settled
    /// (lazy deletion — the queue holds superseded entries until popped).
    pub stale_pops: u64,
}

impl QueueCounters {
    /// Accumulate another run's counters.
    pub fn absorb(&mut self, other: &QueueCounters) {
        self.pushes += other.pushes;
        self.pops += other.pops;
        self.stale_pops += other.stale_pops;
    }
}

#[derive(Debug, PartialEq)]
struct QueueItem {
    dist: f64,
    node: u32,
}

impl Eq for QueueItem {}

impl Ord for QueueItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we pop the smallest
        // distance, ties broken towards the smallest node id. `total_cmp`
        // makes this a genuine total order even for NaN/-0.0 payloads —
        // though a NaN weight is already rejected at graph build as
        // `GraphError::PoisonedWeight`, so a poisoned weight surfaces as a
        // typed error rather than a mis-ordered heap.
        other.dist.total_cmp(&self.dist).then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for QueueItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// `(dist, node)` strict-less by the queue order: smaller distance first,
/// ties towards the smaller node id.
#[inline]
fn key_lt(a: (f64, u32), b: (f64, u32)) -> bool {
    match a.0.total_cmp(&b.0) {
        Ordering::Less => true,
        Ordering::Greater => false,
        Ordering::Equal => a.1 < b.1,
    }
}

/// Minimal priority-queue surface the Dijkstra core needs. Monomorphized
/// per implementation so the relaxation loop inlines the queue ops.
trait Pq {
    fn push(&mut self, dist: f64, node: u32);
    fn pop(&mut self) -> Option<(f64, u32)>;
}

impl Pq for BinaryHeap<QueueItem> {
    #[inline]
    fn push(&mut self, dist: f64, node: u32) {
        BinaryHeap::push(self, QueueItem { dist, node });
    }

    #[inline]
    fn pop(&mut self) -> Option<(f64, u32)> {
        BinaryHeap::pop(self).map(|q| (q.dist, q.node))
    }
}

/// Number of ring buckets before keys spill to the overflow band. At the
/// default width (minimum positive edge weight) this covers a distance
/// range of 2048 minimal edges per ring epoch, which holds every front
/// and pathnet graph in the test terrains without a single re-seed.
const RING_BUCKETS: usize = 2048;

/// Dial-style monotone bucket queue (calendar queue).
///
/// Keys are bucketed at width `delta` (the graph's minimum positive edge
/// weight). Dijkstra settles in non-decreasing key order, and a relaxation
/// from a node settled at distance `d` pushes `d + w ≥ d + delta` for any
/// positive-weight edge — so once the cursor sits on bucket `b`, no later
/// push lands before `b`, and the smallest `(dist, node)` pair in bucket
/// `b` is the global minimum. When the cursor reaches a bucket it is
/// sorted once, descending, and drained by `O(1)` pops off its tail —
/// ascending `(dist, node)` order, reproducing the binary heap's pop
/// order exactly, which is what makes the two policies bit-identical.
/// Zero-weight edges — and a goal-directed run's keys, whose increments
/// are `w − (h(u) − h(v)) ≥ 0` rather than `≥ w` — re-enter the *current*
/// bucket (never an earlier one), at their place in its descending order
/// once it is sorted. Keys beyond the ring land in an overflow
/// band; when the ring drains, the band re-seeds it at a new base
/// ("wide-range" graphs). A graph with no positive-weight edge degrades
/// to scanning the band.
#[derive(Debug, Default)]
struct BucketQueue {
    ring: Vec<Vec<(f64, u32)>>,
    /// Ring slots dirtied since the last reset (so reset clears O(touched)
    /// instead of O(RING_BUCKETS)).
    touched: Vec<u32>,
    overflow: Vec<(f64, u32)>,
    /// Bucket width; `0.0` means "no positive edge weight" (band-only).
    delta: f64,
    /// Key at the start of ring slot 0 for the current epoch.
    base: f64,
    /// Next ring slot to inspect (monotone within an epoch).
    cur: usize,
    /// Whether the cursor's bucket has been tail-sorted already.
    cur_sorted: bool,
    in_ring: usize,
}

impl BucketQueue {
    /// Prepare for a run over a graph whose minimum positive edge weight
    /// is `delta` (pass `f64::INFINITY` when there is none).
    fn reset(&mut self, delta: f64) {
        if self.ring.is_empty() {
            self.ring.resize_with(RING_BUCKETS, Vec::new);
        }
        for &slot in &self.touched {
            self.ring[slot as usize].clear();
        }
        self.touched.clear();
        self.overflow.clear();
        self.delta = if delta.is_finite() && delta > 0.0 { delta } else { 0.0 };
        self.base = 0.0;
        self.cur = 0;
        self.cur_sorted = false;
        self.in_ring = 0;
    }

    /// Scan-remove the smallest `(dist, node)` pair of a slot.
    #[inline]
    fn take_min(v: &mut Vec<(f64, u32)>) -> (f64, u32) {
        let mut mi = 0;
        for i in 1..v.len() {
            if key_lt(v[i], v[mi]) {
                mi = i;
            }
        }
        v.swap_remove(mi)
    }

    /// Sort a slot descending by `(dist, node)`, so ascending pops come
    /// off the tail in `O(1)`.
    #[inline]
    fn sort_desc(v: &mut [(f64, u32)]) {
        v.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then_with(|| b.1.cmp(&a.1)));
    }
}

impl Pq for BucketQueue {
    #[inline]
    fn push(&mut self, dist: f64, node: u32) {
        if self.delta == 0.0 {
            self.overflow.push((dist, node));
            return;
        }
        // Monotonicity guarantees dist >= base, so the cast is exact and
        // saturating-to-large for distant keys (those spill to the band).
        let rel = ((dist - self.base) / self.delta) as usize;
        if rel >= RING_BUCKETS {
            self.overflow.push((dist, node));
        } else {
            let b = &mut self.ring[rel];
            if b.is_empty() {
                self.touched.push(rel as u32);
            }
            self.in_ring += 1;
            // A zero-weight edge, or a goal-directed run's key, can land
            // in the cursor's (already sorted) bucket: it goes to its place
            // in the descending order.
            if rel == self.cur && self.cur_sorted {
                let at = b.partition_point(|&e| key_lt((dist, node), e));
                b.insert(at, (dist, node));
            } else {
                b.push((dist, node));
            }
        }
    }

    fn pop(&mut self) -> Option<(f64, u32)> {
        loop {
            if self.in_ring == 0 {
                if self.overflow.is_empty() {
                    return None;
                }
                if self.delta == 0.0 {
                    return Some(Self::take_min(&mut self.overflow));
                }
                // Ring drained: re-seed it from the overflow band. The
                // smallest band key becomes the new base (it lands in slot
                // 0, so the loop always makes progress).
                self.base = self.overflow.iter().map(|&(d, _)| d).fold(f64::INFINITY, f64::min);
                self.cur = 0;
                self.cur_sorted = false;
                self.touched.clear();
                let band = std::mem::take(&mut self.overflow);
                for (d, n) in band {
                    self.push(d, n);
                }
                continue;
            }
            // in_ring > 0 and pushes never land before `cur` (monotone), so
            // an occupied slot exists at or after the cursor.
            while self.ring[self.cur].is_empty() {
                self.cur += 1;
                self.cur_sorted = false;
            }
            if !self.cur_sorted {
                Self::sort_desc(&mut self.ring[self.cur]);
                self.cur_sorted = true;
            }
            let item = self.ring[self.cur].pop().expect("cursor slot is non-empty");
            self.in_ring -= 1;
            return Some(item);
        }
    }
}

/// Result of a Dijkstra run.
#[derive(Debug, Clone)]
pub struct Dijkstra {
    /// `f64::INFINITY` for unreachable nodes.
    pub dist: Vec<f64>,
    /// Predecessor of each settled node (`u32::MAX` for sources/unreached).
    pub prev: Vec<u32>,
    /// Nodes settled by the run (relaxation work, a CPU-cost proxy).
    pub settled: usize,
    /// Queue-operation counters for the run.
    pub queue: QueueCounters,
}

/// Slack `ε` of a goal-directed run's potential `h = (1 − ε)·|p − goal|`.
/// Every link a goal-directed run crosses is at least as long as the
/// straight line between its ends, so `h` is consistent in exact
/// arithmetic; the slack keeps it so in floating point: each link of
/// length `w` leaves a margin of `ε·w`, far above the rounding of a
/// distance of terrain size.
const POTENTIAL_SLACK: f64 = 1e-6;

/// A goal-directed run's potential of a node at `p`: `(1 − ε)·|p − goal|`,
/// a lower bound of every path from `p` to `goal` (dE ≤ dS).
#[inline]
pub fn potential(p: Point3, goal: Point3) -> f64 {
    potential_sq(p.dist_sq(goal))
}

/// [`potential`] of a squared straight-line distance: the same bits, as
/// the square root is correctly rounded.
#[inline]
pub(crate) fn potential_sq(d2: f64) -> f64 {
    (1.0 - POTENTIAL_SLACK) * d2.sqrt()
}

/// Per-node run state, SoA and indexed by node, each entry meaningful only
/// when its stamp matches the run's generation (see [`DijkstraScratch`]).
#[derive(Debug, Default)]
struct Labels {
    dist: Vec<f64>,
    prev: Vec<u32>,
    /// Generation at which `dist`/`prev`/`heur` were last written.
    seen: Vec<u32>,
    /// Generation at which the node was settled.
    done: Vec<u32>,
    /// Generation at which a run listed the node as a target.
    wanted: Vec<u32>,
    /// Potential of the node, written when a goal-directed run first
    /// reaches it.
    heur: Vec<f64>,
}

/// The arrays of [`Labels`] as slices, for the relaxation loop.
struct LabelView<'a> {
    dist: &'a mut [f64],
    prev: &'a mut [u32],
    seen: &'a mut [u32],
    done: &'a mut [u32],
    wanted: &'a mut [u32],
    heur: &'a mut [f64],
}

impl Labels {
    /// Grow to `n` nodes; `heur` only as far as a goal-directed run has
    /// needed it.
    fn grow(&mut self, n: usize, goal: bool) {
        if self.seen.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.prev.resize(n, u32::MAX);
            self.seen.resize(n, 0);
            self.done.resize(n, 0);
            self.wanted.resize(n, 0);
        }
        if goal && self.heur.len() < n {
            self.heur.resize(n, 0.0);
        }
    }

    fn view(&mut self) -> LabelView<'_> {
        LabelView {
            dist: &mut self.dist,
            prev: &mut self.prev,
            seen: &mut self.seen,
            done: &mut self.done,
            wanted: &mut self.wanted,
            heur: &mut self.heur,
        }
    }

    #[inline]
    fn get_dist(&self, v: usize, gen: u32) -> f64 {
        if self.seen[v] == gen {
            self.dist[v]
        } else {
            f64::INFINITY
        }
    }
}

/// Reusable Dijkstra working state.
///
/// [`Dijkstra::run_multi`] allocates three O(n) arrays per call; query
/// processing runs *hundreds* of Dijkstras per sk-NN query (one per
/// candidate per resolution level per restriction attempt), most of them
/// over fronts of similar size. A scratch amortises those allocations:
/// arrays grow to the largest front seen and are then reused forever.
///
/// The relaxation state is SoA — parallel `dist`/`prev`/`seen`/`done`
/// arrays indexed by node — and the inner loop over the CSR adjacency
/// (neighbor, weight interleaved per edge for unit-stride access) runs
/// without bounds checks: endpoints were validated at graph build.
///
/// Staleness is handled by **generation stamping** rather than clearing:
/// each run bumps `generation`, and a node's `dist`/`prev`/`done` entries
/// are only meaningful when its stamp matches the current generation.
/// Starting a run is therefore O(1) in the graph size (no O(n) memset),
/// which matters for the early-exit runs that settle a handful of nodes
/// in a front of thousands.
#[derive(Debug, Default)]
pub struct DijkstraScratch {
    labels: Labels,
    /// Generation at which a masked run last asked whether the node is
    /// admitted, and the answer it got, per node.
    asked: Vec<u32>,
    admitted: Vec<bool>,
    generation: u32,
    heap: BinaryHeap<QueueItem>,
    bucket: BucketQueue,
    policy: QueuePolicy,
}

impl DijkstraScratch {
    /// An empty scratch; arrays grow on first use. Uses the default
    /// [`QueuePolicy`].
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty scratch pinned to `policy`.
    pub fn with_policy(policy: QueuePolicy) -> Self {
        Self { policy, ..Self::default() }
    }

    /// Prepare for a run over `n` nodes: grow the arrays if needed and
    /// open a fresh generation.
    fn begin(&mut self, n: usize, goal: bool) {
        self.labels.grow(n, goal);
        if self.asked.len() < n {
            self.asked.resize(n, 0);
            self.admitted.resize(n, false);
        }
        // Generation 0 is reserved as "never written" for freshly grown
        // entries; on wrap-around all stamps are hard-reset once.
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.labels.seen.fill(0);
            self.labels.done.fill(0);
            self.labels.wanted.fill(0);
            self.asked.fill(0);
            self.generation = 1;
        }
    }

    /// Distance to `node` after the last run; `f64::INFINITY` when
    /// unreached.
    #[inline]
    pub(crate) fn dist(&self, node: u32) -> f64 {
        self.labels.get_dist(node as usize, self.generation)
    }
}

/// Read-only view of the most recent [`Dijkstra::run_multi_scratch`] run.
/// Borrowing the scratch keeps the arrays in place for the next run.
#[derive(Debug)]
pub struct ScratchRun<'s> {
    scratch: &'s DijkstraScratch,
    /// Nodes settled by the run (relaxation work, a CPU-cost proxy).
    pub settled: usize,
    /// Queue-operation counters for the run.
    pub queue: QueueCounters,
}

impl ScratchRun<'_> {
    /// Distance to `node`; `f64::INFINITY` when unreached.
    pub fn dist(&self, node: u32) -> f64 {
        self.scratch.dist(node)
    }

    /// Predecessor of `node`; `u32::MAX` for sources and unreached nodes.
    pub fn prev(&self, node: u32) -> u32 {
        let (v, labels) = (node as usize, &self.scratch.labels);
        if labels.seen[v] == self.scratch.generation {
            labels.prev[v]
        } else {
            u32::MAX
        }
    }

    /// The first of `exits`, in order, with the strictly smallest
    /// `dist(x) + cost`, and that total; `(f64::INFINITY, None)` when no
    /// exit was reached.
    pub fn best_exit(&self, exits: &[(u32, f64)]) -> (f64, Option<u32>) {
        let mut best = (f64::INFINITY, None);
        for &(x, cost) in exits {
            let total = self.dist(x) + cost;
            if total < best.0 {
                best = (total, Some(x));
            }
        }
        best
    }

    /// Reconstruct the node path ending at `target` (source first). Empty
    /// when `target` is unreachable.
    pub fn path_to(&self, target: u32) -> Vec<u32> {
        if !self.dist(target).is_finite() {
            return Vec::new();
        }
        let mut path = vec![target];
        let mut cur = target;
        while self.prev(cur) != u32::MAX {
            cur = self.prev(cur);
            path.push(cur);
        }
        path.reverse();
        path
    }
}

/// Where a run's links come from: a CSR [`Graph`], or a net the run
/// generates as it reaches it (the in-place region pathnet). Nodes are
/// indices into the scratch's state arrays, `< len()`.
pub(crate) trait Adjacency {
    /// Nodes appear as the run reaches them: the state arrays grow to
    /// [`len`](Self::len) after each [`load`](Self::load).
    const GROWS: bool;
    /// Keys are `g + h`, `h` being [`potential`](Self::potential); plain
    /// Dijkstra (`h = 0`) when `false`.
    const GOAL: bool;
    /// Nodes so far.
    fn len(&self) -> usize;
    /// Width of the bucket queue's buckets (any positive width keeps it
    /// exact; a good one keeps buckets short).
    fn bucket_width(&self) -> f64;
    /// Make [`edges`](Self::edges) the `(neighbour, weight)` links of `u`.
    fn load(&mut self, u: u32);
    /// The links [`load`](Self::load) made current.
    fn edges(&self) -> &[(u32, f64)];
    /// The potential of `v`: consistent (`h(u) ≤ w(u, v) + h(v)` on every
    /// link) and, for a run with exits, at most each exit's cost.
    fn potential(&self, v: u32) -> f64;
}

/// A CSR graph as an [`Adjacency`], with potential `h` when `GOAL`.
struct Csr<'g, H, const GOAL: bool> {
    graph: &'g Graph,
    lo: usize,
    hi: usize,
    h: H,
}

/// The potential of a plain run.
fn zero(_: u32) -> f64 {
    0.0
}

impl<'g> Csr<'g, fn(u32) -> f64, false> {
    fn plain(graph: &'g Graph) -> Self {
        Self { graph, lo: 0, hi: 0, h: zero }
    }
}

impl<'g, H: Fn(u32) -> f64> Csr<'g, H, true> {
    fn toward(graph: &'g Graph, h: H) -> Self {
        Self { graph, lo: 0, hi: 0, h }
    }
}

impl<H: Fn(u32) -> f64, const G: bool> Adjacency for Csr<'_, H, G> {
    const GROWS: bool = false;
    const GOAL: bool = G;

    #[inline]
    fn len(&self) -> usize {
        self.graph.num_nodes()
    }

    fn bucket_width(&self) -> f64 {
        self.graph.min_pos_weight
    }

    #[inline]
    fn load(&mut self, u: u32) {
        let u = u as usize;
        debug_assert!(u < self.len());
        // SAFETY: u < n (the core's invariant) and the CSR is well-formed
        // (offsets non-decreasing, terminated at edges.len()).
        unsafe {
            self.lo = *self.graph.offsets.get_unchecked(u) as usize;
            self.hi = *self.graph.offsets.get_unchecked(u + 1) as usize;
        }
    }

    #[inline]
    fn edges(&self) -> &[(u32, f64)] {
        // SAFETY: `lo..hi` is a node's CSR range (see `load`).
        unsafe { self.graph.edges.get_unchecked(self.lo..self.hi) }
    }

    #[inline]
    fn potential(&self, v: u32) -> f64 {
        (self.h)(v)
    }
}

/// The one relaxation loop: SoA state stamped with `gen`, generic over the
/// queue and the [`Adjacency`] so each pair gets a monomorphized, fully
/// inlined loop.
///
/// Nodes `admit` rejects are never entered, as sources or as neighbours —
/// the run equals one over the subgraph induced by the admitted nodes,
/// because skipping a neighbour leaves the order of the others as
/// filtering the edge list would. `admit` is consulted only for a node the
/// run is about to enter. With `exits` given, the run stops at the first
/// popped key *strictly* above the best settled `dist + exit cost`: every
/// node still queued is at least that far, so no unsettled exit can beat or
/// tie the best total, and the state of every settled node — distance,
/// predecessor, path — is what the run to exhaustion would have left.
/// With `left = Some(k)`, the run stops once the `k` nodes stamped `gen` in
/// `wanted` are all settled (at once for `k = 0`): a settled node's state
/// is final, so each of them reads as after the run to exhaustion.
///
/// A goal-directed run (`A::GOAL`) keys a node `g + h` (A*), `h` its
/// potential, clamped to the popped key so the queue stays monotone. With
/// `h` consistent a settled label is final, and with `h` at most each
/// exit's cost the stop above holds as it stands; the labels are the
/// plain run's, bit for bit, because both are the least solution of the
/// same Bellman equations (DESIGN §5). Only predecessors depend on the
/// order of settling: an equal-cost relaxation keeps the predecessor with
/// the smaller `(label, id)`, the one plain Dijkstra — which over links of
/// positive length settles in that order — keeps, so paths equal its paths
/// too.
///
/// # Safety invariants (all checked at build / begin time)
/// * Every node `adj` names is `< adj.len()`, and after each `load` the
///   state arrays are at least `adj.len()` long (`DijkstraScratch::begin`,
///   [`Labels::grow`]); a CSR's edge targets were validated `< n` by
///   `try_rebuild_undirected`, the only writer.
/// * Popped nodes are `< adj.len()`: only sources (asserted below) and
///   `adj`'s neighbours are ever pushed.
#[inline]
#[allow(clippy::too_many_arguments)]
fn run_core<Q: Pq, A: Adjacency>(
    adj: &mut A,
    sources: &[(u32, f64)],
    mut left: Option<usize>,
    exits: &[(u32, f64)],
    mut admit: impl FnMut(u32) -> bool,
    labels: &mut Labels,
    gen: u32,
    q: &mut Q,
) -> (usize, QueueCounters) {
    let mut counters = QueueCounters::default();
    if left == Some(0) {
        return (0, counters);
    }
    let mut s = labels.view();
    for &(src, d0) in sources {
        let si = src as usize;
        assert!(si < adj.len(), "source {src} out of range (num_nodes {})", adj.len());
        let fresh = s.seen[si] != gen;
        if d0 < (if fresh { f64::INFINITY } else { s.dist[si] }) && admit(src) {
            if A::GOAL && fresh {
                s.heur[si] = adj.potential(src);
            }
            s.dist[si] = d0;
            s.prev[si] = u32::MAX;
            s.seen[si] = gen;
            q.push(if A::GOAL { d0 + s.heur[si] } else { d0 }, src);
            counters.pushes += 1;
        }
    }
    let mut settled = 0usize;
    let mut best_exit = f64::INFINITY;
    while let Some((key, node)) = q.pop() {
        counters.pops += 1;
        if key > best_exit {
            break;
        }
        let u = node as usize;
        debug_assert!(u < adj.len());
        // SAFETY: u < adj.len() <= the arrays' length (see above).
        if unsafe { *s.done.get_unchecked(u) } == gen {
            counters.stale_pops += 1;
            continue;
        }
        unsafe { *s.done.get_unchecked_mut(u) = gen };
        settled += 1;
        if let Some(k) = left.as_mut() {
            if s.wanted[u] == gen {
                *k -= 1;
                if *k == 0 {
                    break;
                }
            }
        }
        // The label, not the key: they differ by `h` in a goal-directed
        // run, and a plain run pops each node's first entry at its label.
        let d = unsafe { *s.dist.get_unchecked(u) };
        for &(x, exit_cost) in exits {
            if x == node {
                best_exit = best_exit.min(d + exit_cost);
            }
        }
        adj.load(node);
        if A::GROWS && s.seen.len() < adj.len() {
            labels.grow(adj.len(), A::GOAL);
            s = labels.view();
        }
        let adj = &*adj;
        for &(nb, w) in adj.edges() {
            let nd = d + w;
            let v = nb as usize;
            debug_assert!(v < adj.len());
            // SAFETY: v < adj.len() <= the arrays' length (see above).
            unsafe {
                let fresh = *s.seen.get_unchecked(v) != gen;
                let cur = if fresh { f64::INFINITY } else { *s.dist.get_unchecked(v) };
                if nd < cur {
                    if admit(nb) {
                        let key = if A::GOAL {
                            if fresh {
                                *s.heur.get_unchecked_mut(v) = adj.potential(nb);
                            }
                            (nd + *s.heur.get_unchecked(v)).max(key)
                        } else {
                            nd
                        };
                        *s.dist.get_unchecked_mut(v) = nd;
                        *s.prev.get_unchecked_mut(v) = node;
                        *s.seen.get_unchecked_mut(v) = gen;
                        q.push(key, nb);
                        counters.pushes += 1;
                    }
                } else if A::GOAL && nd == cur {
                    // The tie rule: Dijkstra's predecessor is the first
                    // of the equal-cost ones it settles.
                    let p = *s.prev.get_unchecked(v);
                    if p != u32::MAX && key_lt((d, node), (*s.dist.get_unchecked(p as usize), p)) {
                        *s.prev.get_unchecked_mut(v) = node;
                    }
                }
            }
        }
    }
    (settled, counters)
}

/// One run of `adj` against `scratch` under its queue policy. `MASKED`
/// routes admission through `allowed`, memoised per node in the scratch;
/// without it every node is admitted and `allowed` is never called.
/// `targets` are stamped in the scratch and counted once each, however
/// often listed.
pub(crate) fn run_scratch<A: Adjacency, const MASKED: bool>(
    adj: &mut A,
    sources: &[(u32, f64)],
    targets: Option<&[u32]>,
    exits: &[(u32, f64)],
    allowed: impl Fn(u32) -> bool,
    scratch: &mut DijkstraScratch,
) -> (usize, QueueCounters) {
    let n = adj.len();
    scratch.begin(n, A::GOAL);
    let DijkstraScratch { labels, asked, admitted, generation, heap, bucket, policy } =
        &mut *scratch;
    let gen = *generation;
    let left = targets.map(|ts| {
        let mut k = 0;
        for &t in ts {
            assert!((t as usize) < n, "target {t} out of range (num_nodes {n})");
            if labels.wanted[t as usize] != gen {
                labels.wanted[t as usize] = gen;
                k += 1;
            }
        }
        k
    });
    let admit = |v: u32| {
        if !MASKED {
            return true;
        }
        let i = v as usize;
        if asked[i] != gen {
            asked[i] = gen;
            admitted[i] = allowed(v);
        }
        admitted[i]
    };
    match policy {
        QueuePolicy::Heap => {
            heap.clear();
            run_core(adj, sources, left, exits, admit, labels, gen, heap)
        }
        QueuePolicy::Bucket => {
            bucket.reset(adj.bucket_width());
            run_core(adj, sources, left, exits, admit, labels, gen, bucket)
        }
    }
}

impl Dijkstra {
    /// Single-source shortest paths from `source`.
    pub fn run(graph: &Graph, source: u32) -> Self {
        Self::run_multi(graph, &[(source, 0.0)], None)
    }

    /// Multi-source Dijkstra with optional early exit at `target`, using
    /// the default [`QueuePolicy`].
    ///
    /// Multiple sources with offsets implement point embedding: an off-graph
    /// query point "connects" to several graph nodes with given entry costs.
    pub fn run_multi(graph: &Graph, sources: &[(u32, f64)], target: Option<u32>) -> Self {
        Self::run_multi_with(graph, sources, target, QueuePolicy::default())
    }

    /// [`run_multi`](Self::run_multi) with an explicit queue policy.
    pub fn run_multi_with(
        graph: &Graph,
        sources: &[(u32, f64)],
        target: Option<u32>,
        policy: QueuePolicy,
    ) -> Self {
        let mut scratch = DijkstraScratch::with_policy(policy);
        let targets = target.as_ref().map(std::slice::from_ref);
        let run = Self::run_multi_scratch(graph, sources, targets, &mut scratch);
        let settled = run.settled;
        let queue = run.queue;
        let n = graph.num_nodes();
        let dist: Vec<f64> = (0..n as u32).map(|v| run.dist(v)).collect();
        let prev: Vec<u32> = (0..n as u32).map(|v| run.prev(v)).collect();
        Self { dist, prev, settled, queue }
    }

    /// [`run_multi`](Self::run_multi) against reusable working state: no
    /// O(n) allocation, no O(n) initialisation. Produces node-for-node the
    /// same distances, predecessors and settled count as the fresh
    /// allocation path and as either queue policy (property tests in this
    /// module and `tests/queue_equivalence.rs` pin both).
    ///
    /// `None` runs to exhaustion. `Some(targets)` stops as soon as every
    /// listed node is settled — at once for an empty list, at exhaustion
    /// when one is unreachable — at O(1) per pop (a per-node stamp in the
    /// scratch). A settled node's distance, predecessor and path are final,
    /// so every listed node reads as after the exhaustive run; an unlisted
    /// one may hold a tentative distance.
    pub fn run_multi_scratch<'s>(
        graph: &Graph,
        sources: &[(u32, f64)],
        targets: Option<&[u32]>,
        scratch: &'s mut DijkstraScratch,
    ) -> ScratchRun<'s> {
        let mut adj = Csr::plain(graph);
        let (settled, queue) =
            run_scratch::<_, false>(&mut adj, sources, targets, &[], |_| true, scratch);
        ScratchRun { scratch, settled, queue }
    }

    /// Multi-source Dijkstra over the subgraph induced by the nodes
    /// `allowed` admits, stopped once nothing still queued can beat the
    /// best `dist(x) + cost` over `exits`: the run that filtering the edge
    /// list and rebuilding the graph would give, at a cost set by what the
    /// run touches and not by the graph. `allowed` is evaluated lazily, at
    /// most once per node.
    ///
    /// Of a settled node, [`ScratchRun::dist`] and [`ScratchRun::path_to`]
    /// are final; of an unsettled one, `dist` is a tentative value above
    /// the best exit total (infinite when never reached or not admitted),
    /// so [`ScratchRun::best_exit`] picks the exit the exhaustive run
    /// would.
    pub fn run_masked_scratch<'s>(
        graph: &Graph,
        sources: &[(u32, f64)],
        exits: &[(u32, f64)],
        allowed: impl Fn(u32) -> bool,
        scratch: &'s mut DijkstraScratch,
    ) -> ScratchRun<'s> {
        let mut adj = Csr::plain(graph);
        let (settled, queue) =
            run_scratch::<_, true>(&mut adj, sources, None, exits, allowed, scratch);
        ScratchRun { scratch, settled, queue }
    }

    /// [`run_masked_scratch`](Self::run_masked_scratch) aimed at its exits
    /// by the potential `h` (A*): the same best exit, total and path, bit
    /// for bit, settling what lies towards the exits rather than a disc.
    /// `h` must be consistent and at most each exit's cost — [`potential`]
    /// of the node's position towards the goal the exits embed, when every
    /// link is at least as long as the straight line between its ends and
    /// every exit cost at least the straight line from its node to the
    /// goal — and is asked once per admitted node the run reaches.
    pub fn run_masked_toward<'s>(
        graph: &Graph,
        sources: &[(u32, f64)],
        exits: &[(u32, f64)],
        allowed: impl Fn(u32) -> bool,
        h: impl Fn(u32) -> f64,
        scratch: &'s mut DijkstraScratch,
    ) -> ScratchRun<'s> {
        let mut adj = Csr::toward(graph, h);
        let (settled, queue) =
            run_scratch::<_, true>(&mut adj, sources, None, exits, allowed, scratch);
        ScratchRun { scratch, settled, queue }
    }

    /// Reconstruct the node path ending at `target` (source first). Empty
    /// when `target` is unreachable.
    pub fn path_to(&self, target: u32) -> Vec<u32> {
        if !self.dist[target as usize].is_finite() {
            return Vec::new();
        }
        let mut path = vec![target];
        let mut cur = target;
        while self.prev[cur as usize] != u32::MAX {
            cur = self.prev[cur as usize];
            path.push(cur);
        }
        path.reverse();
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 -1- 1 -1- 2
    /// |         /
    /// 5       1
    /// |     /
    /// 3 -1- 4
    fn diamond() -> Graph {
        Graph::from_undirected(
            5,
            &[(0, 1, 1.0), (1, 2, 1.0), (0, 3, 5.0), (3, 4, 1.0), (4, 2, 1.0)],
        )
    }

    #[test]
    fn shortest_distances() {
        let g = diamond();
        let d = Dijkstra::run(&g, 0);
        assert_eq!(d.dist, vec![0.0, 1.0, 2.0, 4.0, 3.0]);
    }

    #[test]
    fn path_reconstruction() {
        let g = diamond();
        let d = Dijkstra::run(&g, 0);
        assert_eq!(d.path_to(3), vec![0, 1, 2, 4, 3]);
        assert_eq!(d.path_to(0), vec![0]);
    }

    #[test]
    fn early_exit_settles_fewer() {
        let g = diamond();
        let full = Dijkstra::run(&g, 0);
        let early = Dijkstra::run_multi(&g, &[(0, 0.0)], Some(1));
        assert!(early.settled < full.settled);
        assert_eq!(early.dist[1], 1.0);
    }

    #[test]
    fn multi_source_embedding() {
        let g = diamond();
        // Virtual point connected to 0 (cost 10) and 4 (cost 0.5).
        let d = Dijkstra::run_multi(&g, &[(0, 10.0), (4, 0.5)], None);
        assert_eq!(d.dist[2], 1.5);
        assert_eq!(d.dist[0], 3.5); // via 4-2-1-0 (beats the direct 10.0)
    }

    #[test]
    fn unreachable_nodes_are_infinite() {
        let g = Graph::from_undirected(3, &[(0, 1, 1.0)]);
        let d = Dijkstra::run(&g, 0);
        assert!(d.dist[2].is_infinite());
        assert!(d.path_to(2).is_empty());
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_undirected(0, &[]);
        assert_eq!(g.num_nodes(), 0);
        let d = Dijkstra::run_multi(&g, &[], None);
        assert!(d.dist.is_empty());
    }

    #[test]
    #[should_panic(expected = "negative edge weight")]
    fn rejects_negative_weights() {
        Graph::from_undirected(2, &[(0, 1, -1.0)]);
    }

    #[test]
    fn poisoned_weight_is_a_typed_error_not_a_misordered_heap() {
        // A NaN weight must never reach a priority queue (where any
        // comparison involving it silently mis-orders the heap): graph
        // construction surfaces it as a typed error instead.
        let try_build =
            |n: usize, edges: &[(u32, u32, f64)]| Graph::default().try_rebuild_undirected(n, edges);
        let err = try_build(3, &[(0, 1, 1.0), (1, 2, f64::NAN)]).expect_err("NaN weight accepted");
        assert_eq!(err, GraphError::PoisonedWeight { index: 1, endpoints: (1, 2) });
        assert!(err.to_string().contains("poisoned"));
        // Negative weights get their own variant (and the panicking
        // constructor keeps its historical message).
        let err = try_build(2, &[(0, 1, -2.0)]).unwrap_err();
        assert!(matches!(err, GraphError::NegativeWeight { .. }));
        // Out-of-range endpoints too.
        let err = try_build(2, &[(0, 7, 1.0)]).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfRange { node: 7, .. }));
    }

    #[test]
    fn min_positive_weight_ignores_zeros() {
        let g = Graph::from_undirected(3, &[(0, 1, 0.0), (1, 2, 0.25)]);
        assert_eq!(g.min_pos_weight, 0.25);
        let zeros = Graph::from_undirected(2, &[(0, 1, 0.0)]);
        assert!(zeros.min_pos_weight.is_infinite());
    }

    #[test]
    fn queue_policies_agree_on_diamond() {
        let g = diamond();
        let heap = Dijkstra::run_multi_with(&g, &[(0, 10.0), (4, 0.5)], None, QueuePolicy::Heap);
        let bucket =
            Dijkstra::run_multi_with(&g, &[(0, 10.0), (4, 0.5)], None, QueuePolicy::Bucket);
        assert_eq!(heap.settled, bucket.settled);
        for v in 0..g.num_nodes() {
            assert_eq!(heap.dist[v].to_bits(), bucket.dist[v].to_bits());
            assert_eq!(heap.prev[v], bucket.prev[v]);
        }
    }

    #[test]
    fn bucket_queue_handles_zero_weight_edges() {
        // Zero-weight edges re-enter the current bucket; the scan must
        // still pop in exact (dist, node) order.
        let g = Graph::from_undirected(
            5,
            &[(0, 1, 0.0), (1, 2, 1.0), (0, 3, 1.0), (3, 4, 0.0), (4, 2, 0.5)],
        );
        let heap = Dijkstra::run_multi_with(&g, &[(0, 0.0)], None, QueuePolicy::Heap);
        let bucket = Dijkstra::run_multi_with(&g, &[(0, 0.0)], None, QueuePolicy::Bucket);
        assert_eq!(heap.settled, bucket.settled);
        for v in 0..g.num_nodes() {
            assert_eq!(heap.dist[v].to_bits(), bucket.dist[v].to_bits());
        }
    }

    #[test]
    fn bucket_queue_wide_range_uses_overflow_band() {
        // Edge weights spanning > RING_BUCKETS * delta force the overflow
        // band and at least one re-seed.
        let g =
            Graph::from_undirected(4, &[(0, 1, 0.001), (1, 2, 50.0), (2, 3, 0.001), (0, 3, 100.0)]);
        let heap = Dijkstra::run_multi_with(&g, &[(0, 0.0)], None, QueuePolicy::Heap);
        let bucket = Dijkstra::run_multi_with(&g, &[(0, 0.0)], None, QueuePolicy::Bucket);
        assert_eq!(heap.settled, bucket.settled);
        for v in 0..g.num_nodes() {
            assert_eq!(heap.dist[v].to_bits(), bucket.dist[v].to_bits());
            assert_eq!(heap.prev[v], bucket.prev[v]);
        }
    }

    #[test]
    fn counters_track_queue_traffic() {
        let g = diamond();
        for policy in [QueuePolicy::Heap, QueuePolicy::Bucket] {
            let d = Dijkstra::run_multi_with(&g, &[(0, 0.0)], None, policy);
            assert!(d.queue.pushes >= d.settled as u64, "{policy}: fewer pushes than settles");
            assert_eq!(d.queue.pops, d.queue.pushes, "{policy}: queue drained fully");
            assert_eq!(d.queue.stale_pops, d.queue.pops - d.settled as u64, "{policy}");
        }
    }

    #[test]
    fn masked_run_stops_strictly_above_the_best_exit() {
        // Exit 1 settles at 1.0. Exit 3 also totals 1.0, but only through
        // node 2 (itself at 1.0) and a zero-weight edge: a run that stopped
        // at the first key *equal* to the best total would leave exit 3 at
        // its tentative 5.0 and pick exit 1, where the exhaustive run picks
        // exit 3, first in exit order.
        let g = Graph::from_undirected(4, &[(0, 1, 1.0), (0, 2, 1.0), (2, 3, 0.0), (0, 3, 5.0)]);
        let exits = [(3u32, 0.0), (1u32, 0.0)];
        for policy in [QueuePolicy::Heap, QueuePolicy::Bucket] {
            let mut scratch = DijkstraScratch::with_policy(policy);
            let run = Dijkstra::run_masked_scratch(&g, &[(0, 0.0)], &exits, |_| true, &mut scratch);
            assert_eq!(run.dist(3), 1.0, "{policy}");
            assert_eq!(run.path_to(3), vec![0, 2, 3], "{policy}");
        }
        // And it does stop: the far side of a long chain is never entered.
        let chain: Vec<(u32, u32, f64)> = (0..9).map(|i| (i, i + 1, 1.0)).collect();
        let g = Graph::from_undirected(10, &chain);
        let mut scratch = DijkstraScratch::new();
        let run =
            Dijkstra::run_masked_scratch(&g, &[(0, 0.0)], &[(2, 0.5)], |_| true, &mut scratch);
        assert_eq!(run.dist(2), 2.0);
        assert_eq!(run.settled, 3);
        assert!(run.dist(4).is_infinite());
    }

    #[test]
    fn scratch_run_matches_fresh_on_diamond() {
        let g = diamond();
        let mut scratch = DijkstraScratch::new();
        let fresh = Dijkstra::run_multi(&g, &[(0, 10.0), (4, 0.5)], None);
        let run = Dijkstra::run_multi_scratch(&g, &[(0, 10.0), (4, 0.5)], None, &mut scratch);
        assert_eq!(run.settled, fresh.settled);
        for v in 0..g.num_nodes() as u32 {
            assert_eq!(run.dist(v).to_bits(), fresh.dist[v as usize].to_bits());
            assert_eq!(run.path_to(v), fresh.path_to(v));
        }
    }

    #[test]
    fn scratch_survives_reuse_across_graph_sizes() {
        let big = diamond();
        let small = Graph::from_undirected(2, &[(0, 1, 3.0)]);
        let mut scratch = DijkstraScratch::new();
        // Dirty the scratch on the larger graph first.
        let _ = Dijkstra::run_multi_scratch(&big, &[(0, 0.0)], None, &mut scratch);
        // A smaller graph must not see the stale entries.
        let run = Dijkstra::run_multi_scratch(&small, &[(1, 0.0)], None, &mut scratch);
        assert_eq!(run.dist(0), 3.0);
        assert_eq!(run.path_to(0), vec![1, 0]);
        // And back to the larger graph.
        let run = Dijkstra::run_multi_scratch(&big, &[(0, 0.0)], Some(&[2]), &mut scratch);
        assert_eq!(run.dist(2), 2.0);
    }

    #[test]
    fn rebuild_reuses_buffers_and_matches_fresh_build() {
        let mut g = Graph::from_undirected(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)]);
        let edges = [(0u32, 2u32, 5.0f64), (1, 3, 1.0)];
        g.rebuild_undirected(5, &edges);
        let fresh = Graph::from_undirected(5, &edges);
        assert_eq!(g.num_nodes(), fresh.num_nodes());
        assert_eq!(g.min_pos_weight, fresh.min_pos_weight);
        for v in 0..5u32 {
            assert_eq!(g.neighbors(v), fresh.neighbors(v));
        }
        // Shrinking works too.
        g.rebuild_undirected(1, &[]);
        assert_eq!(g.num_nodes(), 1);
        assert!(g.neighbors(0).is_empty());
        assert!(g.min_pos_weight.is_infinite());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        type Edges = Vec<(u32, u32, f64)>;

        fn random_edges(seed: u64, n: usize, m: usize) -> (Edges, Vec<(u32, f64)>) {
            let mut rng = StdRng::seed_from_u64(seed);
            let edges: Edges = (0..m)
                .map(|_| {
                    (
                        rng.gen_range(0usize..n) as u32,
                        rng.gen_range(0usize..n) as u32,
                        rng.gen_range(0.0..10.0f64),
                    )
                })
                .filter(|&(a, b, _)| a != b)
                .collect();
            let sources: Vec<(u32, f64)> = (0..rng.gen_range(1usize..4))
                .map(|_| (rng.gen_range(0usize..n) as u32, rng.gen_range(0.0..3.0f64)))
                .collect();
            (edges, sources)
        }

        fn random_graph(seed: u64, n: usize, m: usize) -> (Graph, Vec<(u32, f64)>) {
            let (edges, sources) = random_edges(seed, n, m);
            (Graph::from_undirected(n, &edges), sources)
        }

        /// First exit, in order, with the strictly smallest `dist + cost`.
        fn best_exit(exits: &[(u32, f64)], dist: impl Fn(u32) -> f64) -> (f64, Option<u32>) {
            let mut best = (f64::INFINITY, None);
            for &(x, cost) in exits {
                let total = dist(x) + cost;
                if total < best.0 {
                    best = (total, Some(x));
                }
            }
            best
        }

        /// A graph whose every link is at least as long as the straight
        /// line between its ends — the property a goal-directed run
        /// needs — and of positive length. Nodes sit at distinct points of
        /// a plane lattice of pitch 1 (`ties`) or a space lattice of pitch
        /// 0.1 (so coordinates round); a link is the straight line
        /// exactly, the straight line rounded up to a whole number (many
        /// equal-cost paths), or the straight line plus a random detour.
        /// Also the positions and the sources: random ones, and those of
        /// the tie gadget [`TIE`] appends, apart from the rest.
        ///
        /// The gadget forces an equal-cost tie that a run aimed at its
        /// node `v` settles out of Dijkstra's order: sources `u₁` (entry
        /// 0, 3 from `v` in a straight line) and `u₂` (entry 1, √2 from
        /// `v` by a link of length 2) both reach `v` at 3. Dijkstra settles
        /// `u₁` first and keeps it; a run aimed at `v` settles `u₂` first
        /// (key 1 + √2 against 3), so only the tie rule makes `u₁` the
        /// predecessor.
        fn lattice_graph(
            seed: u64,
            n: usize,
            m: usize,
            ties: bool,
        ) -> (Graph, Vec<Point3>, Vec<(u32, f64)>) {
            let mut rng = StdRng::seed_from_u64(seed);
            let pitch = if ties { 1.0 } else { 0.1 };
            let mut pos: Vec<Point3> = Vec::with_capacity(n);
            while pos.len() < n {
                let mut c = || rng.gen_range(0..8) as f64 * pitch;
                let p = Point3::new(c(), c(), if ties { 0.0 } else { c() });
                if !pos.contains(&p) {
                    pos.push(p);
                }
            }
            let mut edges: Vec<(u32, u32, f64)> = Vec::new();
            for _ in 0..m {
                let (a, b) = (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32);
                if a == b {
                    continue;
                }
                let d = pos[a as usize].dist(pos[b as usize]);
                let w = match rng.gen_range(0..10) {
                    0..=3 => d,
                    4..=7 => d.ceil(),
                    _ => d + rng.gen_range(0.0..2.0),
                };
                edges.push((a, b, w));
            }
            let mut sources: Vec<(u32, f64)> = (0..rng.gen_range(1usize..4))
                .map(|_| (rng.gen_range(0..n) as u32, rng.gen_range(0..3) as f64 * pitch))
                .collect();
            let [u1, u2, v] = TIE.map(|i| (n + i) as u32);
            let at = |x: f64, y: f64| Point3::new(100.0 + x, y, 0.0);
            pos.extend([at(3.0, 0.0), at(1.0, 1.0), at(0.0, 0.0)]);
            edges.extend([(u1, v, 3.0), (u2, v, 2.0)]);
            sources.extend([(u1, 0.0), (u2, 1.0)]);
            (Graph::from_undirected(n + 3, &edges), pos, sources)
        }

        /// The tie gadget's `u₁`, `u₂` and `v`, after the lattice's `n`
        /// nodes.
        const TIE: [usize; 3] = [0, 1, 2];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]
            /// A masked run aimed at its exits' goal equals the plain
            /// masked run: the same best exit and total, bit for bit, the
            /// same path, the same label at every exit the plain run
            /// settled at or below that total — and it settles no more,
            /// under either queue.
            #[test]
            fn goal_directed_masked_run_matches_the_plain_one(
                seed in any::<u64>(),
                n in 2usize..40,
                m in 0usize..140,
                ties in any::<bool>(),
                admit_pct in 40u32..101,
            ) {
                let (g, pos, sources) = lattice_graph(seed, n, m, ties);
                let mut rng = StdRng::seed_from_u64(seed ^ 0x60A1);
                // The goal: a lattice node, or the tie gadget's `v`.
                let goal = pos[if rng.gen_range(0..2) == 0 { rng.gen_range(0..n) } else { n + TIE[2] }];
                let mask: Vec<bool> =
                    (0..n + 3).map(|v| v >= n || rng.gen_range(0u32..100) < admit_pct).collect();
                // Exit costs at least the straight line to the goal.
                let exits: Vec<(u32, f64)> = (0..rng.gen_range(1usize..5))
                    .map(|_| {
                        let x = rng.gen_range(0..n + 3) as u32;
                        let extra = rng.gen_range(0..3) as f64 * rng.gen_range(0..2) as f64;
                        (x, pos[x as usize].dist(goal) + extra)
                    })
                    .collect();
                for policy in [QueuePolicy::Heap, QueuePolicy::Bucket] {
                    let (mut plain, mut aimed) =
                        (DijkstraScratch::with_policy(policy), DijkstraScratch::with_policy(policy));
                    let want = Dijkstra::run_masked_scratch(&g, &sources, &exits, |v| mask[v as usize], &mut plain);
                    let got = Dijkstra::run_masked_toward(
                        &g,
                        &sources,
                        &exits,
                        |v| mask[v as usize],
                        |v| potential(pos[v as usize], goal),
                        &mut aimed,
                    );
                    let (best, best_node) = want.best_exit(&exits);
                    let (got_best, got_node) = got.best_exit(&exits);
                    prop_assert_eq!(got_best.to_bits(), best.to_bits());
                    prop_assert_eq!(got_node, best_node);
                    if let Some(x) = best_node {
                        prop_assert_eq!(got.path_to(x), want.path_to(x));
                    }
                    for &(x, cost) in &exits {
                        if want.dist(x) + cost <= best {
                            prop_assert_eq!(got.dist(x).to_bits(), want.dist(x).to_bits());
                        }
                    }
                    prop_assert!(got.settled <= want.settled);
                }
            }

            /// A member run aimed at its targets (the potential towards the
            /// nearest one) reads every target's label and path as the
            /// plain member run does, under either queue.
            #[test]
            fn goal_directed_member_run_matches_the_plain_one(
                seed in any::<u64>(),
                n in 2usize..40,
                m in 0usize..140,
                ties in any::<bool>(),
            ) {
                let (g, pos, sources) = lattice_graph(seed, n, m, ties);
                let mut rng = StdRng::seed_from_u64(seed ^ 0x3E3B);
                let mut targets: Vec<u32> =
                    (0..rng.gen_range(0usize..5)).map(|_| rng.gen_range(0..n + 3) as u32).collect();
                if rng.gen_range(0..2) == 0 {
                    targets.push((n + TIE[2]) as u32);
                }
                let h = |v: u32| {
                    let p = pos[v as usize];
                    targets.iter().map(|&t| potential(p, pos[t as usize])).fold(f64::INFINITY, f64::min)
                };
                for policy in [QueuePolicy::Heap, QueuePolicy::Bucket] {
                    let (mut plain, mut aimed) =
                        (DijkstraScratch::with_policy(policy), DijkstraScratch::with_policy(policy));
                    let want = Dijkstra::run_multi_scratch(&g, &sources, Some(&targets), &mut plain);
                    let (settled, queue) = run_scratch::<_, false>(
                        &mut Csr::toward(&g, h),
                        &sources,
                        Some(&targets),
                        &[],
                        |_| true,
                        &mut aimed,
                    );
                    let got = ScratchRun { scratch: &aimed, settled, queue };
                    for &t in &targets {
                        prop_assert_eq!(got.dist(t).to_bits(), want.dist(t).to_bits());
                        prop_assert_eq!(got.path_to(t), want.path_to(t));
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            /// A scratch dirtied by arbitrary earlier runs produces
            /// bit-identical distances, settled counts and paths to the
            /// fresh-allocation path, on random graphs.
            #[test]
            fn scratch_reuse_matches_fresh_allocation(
                seed in any::<u64>(),
                n in 1usize..48,
                m in 0usize..128,
            ) {
                let (g, sources) = random_graph(seed, n, m);
                // Dirty the scratch with two unrelated runs of different
                // sizes so stale stamps/dists exist at every index.
                let (decoy, dsrc) = random_graph(seed ^ 0xABCD, (n * 2).max(3), m / 2 + 3);
                let mut scratch = DijkstraScratch::new();
                let _ = Dijkstra::run_multi_scratch(&decoy, &dsrc, None, &mut scratch);
                let _ = Dijkstra::run_multi_scratch(&g, &sources, Some(&[0]), &mut scratch);

                let fresh = Dijkstra::run_multi(&g, &sources, None);
                let run = Dijkstra::run_multi_scratch(&g, &sources, None, &mut scratch);
                prop_assert_eq!(run.settled, fresh.settled);
                for v in 0..n as u32 {
                    prop_assert_eq!(run.dist(v).to_bits(), fresh.dist[v as usize].to_bits());
                    prop_assert_eq!(run.path_to(v), fresh.path_to(v));
                }
            }

            /// Bucket and heap policies produce bit-identical distances,
            /// identical predecessors and identical settle counts, with and
            /// without an early-exit target (the queue-equivalence pin; the
            /// workspace-level suite covers the end-to-end pipeline).
            #[test]
            fn bucket_matches_heap_bit_for_bit(
                seed in any::<u64>(),
                n in 1usize..48,
                m in 0usize..128,
                early_exit in any::<bool>(),
            ) {
                let (g, sources) = random_graph(seed, n, m);
                let target = if early_exit { Some((n as u32) / 2) } else { None };
                let heap = Dijkstra::run_multi_with(&g, &sources, target, QueuePolicy::Heap);
                let bucket = Dijkstra::run_multi_with(&g, &sources, target, QueuePolicy::Bucket);
                prop_assert_eq!(heap.settled, bucket.settled);
                prop_assert_eq!(heap.queue.pops, bucket.queue.pops);
                for v in 0..n as u32 {
                    prop_assert_eq!(
                        heap.dist[v as usize].to_bits(),
                        bucket.dist[v as usize].to_bits()
                    );
                    prop_assert_eq!(heap.prev[v as usize], bucket.prev[v as usize]);
                }
            }

            /// A run stopped at a target list leaves every listed node —
            /// repeated, unreachable, or none listed at all — as the run to
            /// exhaustion does, and settles no more, under either queue.
            #[test]
            fn target_list_stop_matches_exhaustive_run(
                seed in any::<u64>(),
                n in 1usize..48,
                m in 0usize..128,
                heap in any::<bool>(),
            ) {
                let (g, sources) = random_graph(seed, n, m);
                let mut rng = StdRng::seed_from_u64(seed ^ 0x7A26);
                let targets: Vec<u32> =
                    (0..rng.gen_range(0usize..6)).map(|_| rng.gen_range(0usize..n) as u32).collect();
                let policy = if heap { QueuePolicy::Heap } else { QueuePolicy::Bucket };
                let full = Dijkstra::run_multi_with(&g, &sources, None, policy);
                let mut scratch = DijkstraScratch::with_policy(policy);
                let run = Dijkstra::run_multi_scratch(&g, &sources, Some(&targets), &mut scratch);
                for &t in &targets {
                    prop_assert_eq!(run.dist(t).to_bits(), full.dist[t as usize].to_bits());
                    prop_assert_eq!(run.path_to(t), full.path_to(t));
                }
                prop_assert!(run.settled <= full.settled);
                prop_assert!(run.queue.pushes <= full.queue.pushes);
                if targets.is_empty() {
                    prop_assert_eq!(run.settled, 0);
                }
            }

            /// A masked run over the whole graph equals an exhaustive run
            /// over the graph rebuilt from the edges between admitted
            /// nodes: same best exit, same total, same path, same state at
            /// every node no farther than that total — and it settles no
            /// more, whatever mask, exits and queue.
            #[test]
            fn masked_run_matches_filter_and_rebuild(
                seed in any::<u64>(),
                n in 1usize..48,
                m in 0usize..160,
                admit_pct in 0u32..101,
                heap in any::<bool>(),
            ) {
                let (edges, sources) = random_edges(seed, n, m);
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
                let mask: Vec<bool> = (0..n).map(|_| rng.gen_range(0u32..100) < admit_pct).collect();
                let exits: Vec<(u32, f64)> = (0..rng.gen_range(0usize..4))
                    .map(|_| (rng.gen_range(0usize..n) as u32, rng.gen_range(0.0..4.0f64)))
                    .collect();
                let policy = if heap { QueuePolicy::Heap } else { QueuePolicy::Bucket };

                let kept: Edges = edges
                    .iter()
                    .filter(|&&(a, b, _)| mask[a as usize] && mask[b as usize])
                    .copied()
                    .collect();
                let kept_sources: Vec<(u32, f64)> =
                    sources.iter().filter(|&&(s, _)| mask[s as usize]).copied().collect();
                let oracle = Dijkstra::run_multi_with(
                    &Graph::from_undirected(n, &kept),
                    &kept_sources,
                    None,
                    policy,
                );
                let (want, want_exit) =
                    best_exit(&exits, |x| if mask[x as usize] { oracle.dist[x as usize] } else { f64::INFINITY });

                let full = Graph::from_undirected(n, &edges);
                let mut scratch = DijkstraScratch::with_policy(policy);
                // Dirty the memo with a run under the opposite mask.
                let _ = Dijkstra::run_masked_scratch(&full, &sources, &[], |v| !mask[v as usize], &mut scratch);
                let run = Dijkstra::run_masked_scratch(&full, &sources, &exits, |v| mask[v as usize], &mut scratch);
                let (got, got_exit) = run.best_exit(&exits);
                prop_assert_eq!(got.to_bits(), want.to_bits());
                prop_assert_eq!(got_exit, want_exit);
                if let Some(x) = want_exit {
                    prop_assert_eq!(run.path_to(x), oracle.path_to(x));
                }
                prop_assert!(run.settled <= oracle.settled);
                prop_assert!(run.queue.pushes <= oracle.queue.pushes);
                for v in 0..n as u32 {
                    if oracle.dist[v as usize] <= want {
                        prop_assert_eq!(run.dist(v).to_bits(), oracle.dist[v as usize].to_bits());
                        prop_assert_eq!(run.prev(v), oracle.prev[v as usize]);
                    }
                    if !mask[v as usize] {
                        prop_assert!(run.dist(v).is_infinite());
                    }
                }
            }
        }
    }
}
