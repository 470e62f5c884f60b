//! An R-tree over 2-D rectangles.
//!
//! Supports Sort-Tile-Recursive (STR) bulk loading, Guttman quadratic-split
//! insertion, window (range) queries, and best-first incremental nearest
//! neighbour search (Hjaltason & Samet, TODS'99) — the "distance browsing"
//! strategy the paper cites for constraint-free k-NN processing.
//!
//! Every node visited by a query increments an internal access counter;
//! the storage layer maps node visits to disk-page accesses.

use crate::kernel::{min_dists_point, min_dists_point_sq, MAX_BATCH};
use sknn_geom::{Point2, Rect2};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// Maximum entries per node.
pub const MAX_FANOUT: usize = 16;
/// Minimum entries per node after a split.
pub const MIN_FANOUT: usize = 6;

/// Nodes keep their entry rectangles and payloads in parallel arrays
/// (SoA): `rects[i]` bounds `items[i]` / `children[i]`. The contiguous
/// rectangle slice is what the batched mindist kernel consumes — one pass
/// of autovectorized lanes per node instead of a scalar call per entry.
#[derive(Debug, Clone)]
enum Node<T> {
    Leaf { rects: Vec<Rect2>, items: Vec<T> },
    Inner { rects: Vec<Rect2>, children: Vec<usize> },
}

impl<T> Node<T> {
    fn leaf(entries: Vec<(Rect2, T)>) -> Self {
        let (rects, items) = entries.into_iter().unzip();
        Node::Leaf { rects, items }
    }

    fn inner(entries: Vec<(Rect2, usize)>) -> Self {
        let (rects, children) = entries.into_iter().unzip();
        Node::Inner { rects, children }
    }
}

/// An R-tree mapping rectangles to payloads.
///
/// The access counter is atomic so concurrent queries over a shared tree
/// (batch execution) stay `Sync`; counts from overlapping queries simply
/// sum.
#[derive(Debug)]
pub struct RTree<T> {
    nodes: Vec<Node<T>>,
    root: usize,
    len: usize,
    height: usize,
    /// Node slots vacated by deletes, reused by the next split — without
    /// this, a clone-per-mutation snapshot regime would grow the node
    /// arena (and every snapshot clone) unboundedly under churn.
    free: Vec<usize>,
    accesses: AtomicU64,
}

impl<T: Clone> Clone for RTree<T> {
    fn clone(&self) -> Self {
        Self {
            nodes: self.nodes.clone(),
            root: self.root,
            len: self.len,
            height: self.height,
            free: self.free.clone(),
            accesses: AtomicU64::new(self.accesses.load(AtomicOrdering::Relaxed)),
        }
    }
}

impl<T: Clone> Default for RTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> RTree<T> {
    /// An empty tree.
    pub fn new() -> Self {
        Self {
            nodes: vec![Node::Leaf { rects: Vec::new(), items: Vec::new() }],
            root: 0,
            len: 0,
            height: 1,
            free: Vec::new(),
            accesses: AtomicU64::new(0),
        }
    }

    /// STR bulk load: sort by x, tile into vertical slices, sort each slice
    /// by y, pack leaves, then repeat on parent level.
    pub fn bulk_load(mut items: Vec<(Rect2, T)>) -> Self {
        if items.is_empty() {
            return Self::new();
        }
        let len = items.len();
        let mut nodes: Vec<Node<T>> = Vec::new();

        // Pack the leaf level.
        let leaf_count = len.div_ceil(MAX_FANOUT);
        let slices = (leaf_count as f64).sqrt().ceil() as usize;
        let per_slice = len.div_ceil(slices);
        items.sort_by(|a, b| cmp_f64(a.0.center().x, b.0.center().x));
        let mut level: Vec<(Rect2, usize)> = Vec::with_capacity(leaf_count);
        for slice in items.chunks_mut(per_slice.max(1)) {
            slice.sort_by(|a, b| cmp_f64(a.0.center().y, b.0.center().y));
            for group in slice.chunks(MAX_FANOUT) {
                let mbr = group.iter().fold(Rect2::EMPTY, |r, (g, _)| r.union(g));
                nodes.push(Node::leaf(group.to_vec()));
                level.push((mbr, nodes.len() - 1));
            }
        }
        let mut height = 1;

        // Pack upper levels the same way.
        while level.len() > 1 {
            let count = level.len().div_ceil(MAX_FANOUT);
            let slices = (count as f64).sqrt().ceil() as usize;
            let per_slice = level.len().div_ceil(slices);
            level.sort_by(|a, b| cmp_f64(a.0.center().x, b.0.center().x));
            let mut next: Vec<(Rect2, usize)> = Vec::with_capacity(count);
            let mut chunks: Vec<Vec<(Rect2, usize)>> = Vec::new();
            for slice in level.chunks(per_slice.max(1)) {
                let mut slice = slice.to_vec();
                slice.sort_by(|a, b| cmp_f64(a.0.center().y, b.0.center().y));
                for group in slice.chunks(MAX_FANOUT) {
                    chunks.push(group.to_vec());
                }
            }
            for group in chunks {
                let mbr = group.iter().fold(Rect2::EMPTY, |r, (g, _)| r.union(g));
                nodes.push(Node::inner(group));
                next.push((mbr, nodes.len() - 1));
            }
            level = next;
            height += 1;
        }
        let root = level[0].1;
        Self { nodes, root, len, height, free: Vec::new(), accesses: AtomicU64::new(0) }
    }

    /// Number of contained items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether it holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Extent along y.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Cumulative node accesses made by queries so far.
    pub fn accesses(&self) -> u64 {
        self.accesses.load(AtomicOrdering::Relaxed)
    }

    /// Reset the node-access counter (typically per query).
    pub fn reset_accesses(&self) {
        self.accesses.store(0, AtomicOrdering::Relaxed);
    }

    fn touch(&self) {
        self.accesses.fetch_add(1, AtomicOrdering::Relaxed);
    }

    // ----- insertion ------------------------------------------------------

    /// Insert one item (Guttman: least-enlargement descent, quadratic split).
    pub fn insert(&mut self, rect: Rect2, item: T) {
        self.insert_no_count(rect, item);
        self.len += 1;
    }

    /// Insert without advancing `len` — used by [`insert`](Self::insert)
    /// and by delete's reinsertion of condensed orphans (already counted).
    fn insert_no_count(&mut self, rect: Rect2, item: T) {
        let split = self.insert_at(self.root, rect, item);
        if let Some((left_mbr, right_mbr, right_id)) = split {
            // Grow the tree: new root over old root and the split sibling.
            let old_root = self.root;
            let new_root =
                self.alloc_node(Node::inner(vec![(left_mbr, old_root), (right_mbr, right_id)]));
            self.root = new_root;
            self.height += 1;
        }
    }

    /// Place a node in a free slot if one exists, else grow the arena.
    fn alloc_node(&mut self, node: Node<T>) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.nodes[slot] = node;
                slot
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        }
    }

    /// Recursive insert; returns Some((this_mbr, sibling_mbr, sibling_id))
    /// when `node` was split.
    fn insert_at(&mut self, node: usize, rect: Rect2, item: T) -> Option<(Rect2, Rect2, usize)> {
        match &self.nodes[node] {
            Node::Leaf { .. } => {
                if let Node::Leaf { rects, items } = &mut self.nodes[node] {
                    rects.push(rect);
                    items.push(item);
                    if rects.len() <= MAX_FANOUT {
                        return None;
                    }
                }
                Some(self.split_leaf(node))
            }
            Node::Inner { rects, .. } => {
                // Choose subtree with least enlargement (ties: smaller area).
                let mut best = 0usize;
                let mut best_enl = f64::INFINITY;
                let mut best_area = f64::INFINITY;
                for (i, mbr) in rects.iter().enumerate() {
                    let enl = mbr.union(&rect).area() - mbr.area();
                    let area = mbr.area();
                    if enl < best_enl || (enl == best_enl && area < best_area) {
                        best = i;
                        best_enl = enl;
                        best_area = area;
                    }
                }
                let child = match &self.nodes[node] {
                    Node::Inner { children, .. } => children[best],
                    _ => unreachable!(),
                };
                let split = self.insert_at(child, rect, item);
                if let Node::Inner { rects, children } = &mut self.nodes[node] {
                    rects[best] = rects[best].union(&rect);
                    if let Some((l_mbr, r_mbr, r_id)) = split {
                        rects[best] = l_mbr;
                        children[best] = child;
                        rects.push(r_mbr);
                        children.push(r_id);
                        if rects.len() > MAX_FANOUT {
                            return Some(self.split_inner(node));
                        }
                    }
                }
                None
            }
        }
    }

    fn split_leaf(&mut self, node: usize) -> (Rect2, Rect2, usize) {
        let entries = match std::mem::replace(
            &mut self.nodes[node],
            Node::Leaf { rects: vec![], items: vec![] },
        ) {
            Node::Leaf { rects, items } => rects.into_iter().zip(items).collect::<Vec<_>>(),
            _ => unreachable!(),
        };
        let (a, b) = quadratic_split(entries, |e| e.0);
        let a_mbr = mbr_of(&a, |e| e.0);
        let b_mbr = mbr_of(&b, |e| e.0);
        self.nodes[node] = Node::leaf(a);
        let sibling = self.alloc_node(Node::leaf(b));
        (a_mbr, b_mbr, sibling)
    }

    fn split_inner(&mut self, node: usize) -> (Rect2, Rect2, usize) {
        let entries = match std::mem::replace(
            &mut self.nodes[node],
            Node::Inner { rects: vec![], children: vec![] },
        ) {
            Node::Inner { rects, children } => rects.into_iter().zip(children).collect::<Vec<_>>(),
            _ => unreachable!(),
        };
        let (a, b) = quadratic_split(entries, |e| e.0);
        let a_mbr = mbr_of(&a, |e| e.0);
        let b_mbr = mbr_of(&b, |e| e.0);
        self.nodes[node] = Node::inner(a);
        let sibling = self.alloc_node(Node::inner(b));
        (a_mbr, b_mbr, sibling)
    }

    // ----- deletion -------------------------------------------------------

    /// Delete the entry with exactly this rectangle and payload (Guttman
    /// delete with condensation). Returns whether an entry was removed.
    ///
    /// Underfull non-root nodes along the deletion path are dissolved:
    /// their surviving entries are collected and reinserted, their slots
    /// pushed onto the free list for the next split to reuse. The root
    /// shrinks while it has a single child, so repeated deletes walk the
    /// tree back down exactly as inserts grew it.
    pub fn delete(&mut self, rect: &Rect2, item: &T) -> bool
    where
        T: PartialEq,
    {
        let mut path = Vec::with_capacity(self.height);
        if !self.find_leaf(self.root, rect, item, &mut path) {
            return false;
        }
        let leaf = *path.last().unwrap();
        if let Node::Leaf { rects, items } = &mut self.nodes[leaf] {
            let i = rects
                .iter()
                .zip(items.iter())
                .position(|(r, it)| r == rect && it == item)
                .expect("find_leaf certified the entry");
            rects.remove(i);
            items.remove(i);
        }
        self.len -= 1;

        // Condense bottom-up: dissolve underfull non-root nodes, refresh
        // the MBRs of survivors. Parents are visited after their child, so
        // each check sees the removals below it.
        let mut orphans: Vec<(Rect2, T)> = Vec::new();
        for depth in (1..path.len()).rev() {
            let node = path[depth];
            let parent = path[depth - 1];
            if self.entry_count(node) < MIN_FANOUT {
                if let Node::Inner { rects, children } = &mut self.nodes[parent] {
                    let ci = children.iter().position(|&c| c == node).expect("path parent");
                    rects.remove(ci);
                    children.remove(ci);
                }
                self.drain_subtree(node, &mut orphans);
            } else {
                let mbr = self.node_mbr(node);
                if let Node::Inner { rects, children } = &mut self.nodes[parent] {
                    let ci = children.iter().position(|&c| c == node).expect("path parent");
                    rects[ci] = mbr;
                }
            }
        }

        // Shrink the root while it has one child; an emptied inner root
        // (every child dissolved) collapses back to an empty leaf.
        loop {
            match &self.nodes[self.root] {
                Node::Inner { children, .. } if children.len() == 1 => {
                    let child = children[0];
                    let old = self.root;
                    self.nodes[old] = Node::Leaf { rects: Vec::new(), items: Vec::new() };
                    self.free.push(old);
                    self.root = child;
                    self.height -= 1;
                }
                Node::Inner { children, .. } if children.is_empty() => {
                    self.nodes[self.root] = Node::Leaf { rects: Vec::new(), items: Vec::new() };
                    self.height = 1;
                    break;
                }
                _ => break,
            }
        }

        // Reinsert the condensed orphans (already counted in `len`).
        for (r, it) in orphans {
            self.insert_no_count(r, it);
        }
        true
    }

    /// DFS for the leaf holding the exact `(rect, item)` entry; fills
    /// `path` with the node chain root → leaf when found.
    fn find_leaf(&self, node: usize, rect: &Rect2, item: &T, path: &mut Vec<usize>) -> bool
    where
        T: PartialEq,
    {
        path.push(node);
        match &self.nodes[node] {
            Node::Leaf { rects, items } => {
                if rects.iter().zip(items.iter()).any(|(r, it)| r == rect && it == item) {
                    return true;
                }
            }
            Node::Inner { rects, children } => {
                for (r, &c) in rects.iter().zip(children.iter()) {
                    if r.contains_rect(rect) && self.find_leaf(c, rect, item, path) {
                        return true;
                    }
                }
            }
        }
        path.pop();
        false
    }

    fn entry_count(&self, node: usize) -> usize {
        match &self.nodes[node] {
            Node::Leaf { rects, .. } | Node::Inner { rects, .. } => rects.len(),
        }
    }

    fn node_mbr(&self, node: usize) -> Rect2 {
        match &self.nodes[node] {
            Node::Leaf { rects, .. } | Node::Inner { rects, .. } => {
                rects.iter().fold(Rect2::EMPTY, |m, r| m.union(r))
            }
        }
    }

    /// Move every leaf entry of `node`'s subtree into `out` and free all
    /// its node slots.
    fn drain_subtree(&mut self, node: usize, out: &mut Vec<(Rect2, T)>) {
        let taken = std::mem::replace(
            &mut self.nodes[node],
            Node::Leaf { rects: Vec::new(), items: Vec::new() },
        );
        match taken {
            Node::Leaf { rects, items } => out.extend(rects.into_iter().zip(items)),
            Node::Inner { children, .. } => {
                for c in children {
                    self.drain_subtree(c, out);
                }
            }
        }
        self.free.push(node);
    }

    // ----- invariants -----------------------------------------------------

    /// Check every structural invariant the dynamic test suite pins:
    /// uniform leaf depth, SoA array parallelism, fanout bounds, each
    /// inner entry's rectangle *exactly* equal to its child subtree's MBR
    /// (exact because MBRs are min/max folds of the same inputs — no
    /// rounding slack needed), and `len` equal to the leaf-entry total.
    /// Returns a description of the first violation, if any.
    pub fn validate(&self) -> Result<(), String> {
        let mut total = 0usize;
        self.validate_rec(self.root, 1, true, &mut total)?;
        if total != self.len {
            return Err(format!("len {} but leaves hold {total} entries", self.len));
        }
        Ok(())
    }

    fn validate_rec(
        &self,
        node: usize,
        depth: usize,
        is_root: bool,
        total: &mut usize,
    ) -> Result<Rect2, String> {
        match &self.nodes[node] {
            Node::Leaf { rects, items } => {
                if rects.len() != items.len() {
                    return Err(format!(
                        "leaf {node}: SoA arrays diverge ({} rects, {} items)",
                        rects.len(),
                        items.len()
                    ));
                }
                if depth != self.height {
                    return Err(format!("leaf {node} at depth {depth}, height is {}", self.height));
                }
                if rects.len() > MAX_FANOUT {
                    return Err(format!("leaf {node} overfull: {}", rects.len()));
                }
                if !is_root && rects.is_empty() {
                    return Err(format!("non-root leaf {node} is empty"));
                }
                *total += rects.len();
                Ok(rects.iter().fold(Rect2::EMPTY, |m, r| m.union(r)))
            }
            Node::Inner { rects, children } => {
                if rects.len() != children.len() {
                    return Err(format!(
                        "inner {node}: SoA arrays diverge ({} rects, {} children)",
                        rects.len(),
                        children.len()
                    ));
                }
                if rects.len() > MAX_FANOUT {
                    return Err(format!("inner {node} overfull: {}", rects.len()));
                }
                let floor = if is_root { 2 } else { 1 };
                if rects.len() < floor {
                    return Err(format!("inner {node} underfull: {} < {floor}", rects.len()));
                }
                let mut mbr = Rect2::EMPTY;
                for (r, &c) in rects.iter().zip(children.iter()) {
                    let child_mbr = self.validate_rec(c, depth + 1, false, total)?;
                    if *r != child_mbr {
                        return Err(format!(
                            "inner {node}: entry rect {r:?} is not child {c}'s MBR {child_mbr:?}"
                        ));
                    }
                    mbr = mbr.union(r);
                }
                Ok(mbr)
            }
        }
    }

    /// Total node slots in the arena, free or live.
    pub fn arena_size(&self) -> usize {
        self.nodes.len()
    }

    // ----- queries --------------------------------------------------------

    /// All items whose rectangle intersects `window`.
    pub fn range(&self, window: &Rect2) -> Vec<(Rect2, T)> {
        let mut out = Vec::new();
        self.range_rec(self.root, window, &mut out);
        out
    }

    fn range_rec(&self, node: usize, window: &Rect2, out: &mut Vec<(Rect2, T)>) {
        self.touch();
        match &self.nodes[node] {
            Node::Leaf { rects, items } => {
                for (r, item) in rects.iter().zip(items) {
                    if r.intersects(window) {
                        out.push((*r, item.clone()));
                    }
                }
            }
            Node::Inner { rects, children } => {
                for (r, child) in rects.iter().zip(children) {
                    if r.intersects(window) {
                        self.range_rec(*child, window, out);
                    }
                }
            }
        }
    }

    /// All items whose rectangle lies within distance `radius` of `center`.
    /// This is MR3's step-3 range query (circle, not window).
    pub fn within_distance(&self, center: Point2, radius: f64) -> Vec<(Rect2, T)> {
        let window = Rect2::new(
            Point2::new(center.x - radius, center.y - radius),
            Point2::new(center.x + radius, center.y + radius),
        );
        let mut out = Vec::new();
        self.within_rec(self.root, &window, center, radius, &mut out);
        out
    }

    fn within_rec(
        &self,
        node: usize,
        window: &Rect2,
        center: Point2,
        radius: f64,
        out: &mut Vec<(Rect2, T)>,
    ) {
        self.touch();
        // One batched-kernel pass per node: all entry distances in
        // autovectorized lanes, then a branchy-but-cheap filter. The
        // squared variant spares the sqrt lane — `d² <= radius²` is the
        // same predicate (both sides non-negative).
        let mut d2 = [0.0f64; MAX_BATCH];
        let r2 = radius * radius;
        match &self.nodes[node] {
            Node::Leaf { rects, items } => {
                let n = min_dists_point_sq(center, rects, &mut d2);
                for i in 0..n {
                    if d2[i] <= r2 {
                        out.push((rects[i], items[i].clone()));
                    }
                }
            }
            Node::Inner { rects, children } => {
                let n = min_dists_point_sq(center, rects, &mut d2);
                for i in 0..n {
                    if rects[i].intersects(window) && d2[i] <= r2 {
                        self.within_rec(children[i], window, center, radius, out);
                    }
                }
            }
        }
    }

    /// The `k` items nearest to `p` by rectangle min-distance, ascending.
    /// Best-first (priority-queue) traversal.
    pub fn knn(&self, p: Point2, k: usize) -> Vec<(f64, Rect2, T)> {
        let mut out = Vec::with_capacity(k);
        let mut heap: BinaryHeap<HeapItem> = BinaryHeap::new();
        heap.push(HeapItem { dist: 0.0, kind: ItemKind::Node(self.root) });
        while let Some(HeapItem { dist, kind }) = heap.pop() {
            match kind {
                ItemKind::Node(n) => {
                    self.touch();
                    // Batched kernel: every entry's mindist in one pass,
                    // then the heap pushes read off the lane buffer.
                    let mut d = [0.0f64; MAX_BATCH];
                    match &self.nodes[n] {
                        Node::Leaf { rects, .. } => {
                            let cnt = min_dists_point(p, rects, &mut d);
                            for (i, &dist) in d[..cnt].iter().enumerate() {
                                heap.push(HeapItem { dist, kind: ItemKind::Entry(n, i) });
                            }
                        }
                        Node::Inner { rects, children } => {
                            let cnt = min_dists_point(p, rects, &mut d);
                            for (i, &dist) in d[..cnt].iter().enumerate() {
                                heap.push(HeapItem { dist, kind: ItemKind::Node(children[i]) });
                            }
                        }
                    }
                }
                ItemKind::Entry(n, i) => {
                    if let Node::Leaf { rects, items } = &self.nodes[n] {
                        out.push((dist, rects[i], items[i].clone()));
                        if out.len() == k {
                            break;
                        }
                    }
                }
            }
        }
        out
    }

    /// Exhaustive iteration (for verification in tests).
    pub fn iter_all(&self) -> Vec<(Rect2, T)> {
        let mut out = Vec::with_capacity(self.len);
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            match &self.nodes[n] {
                Node::Leaf { rects, items } => {
                    out.extend(rects.iter().copied().zip(items.iter().cloned()))
                }
                Node::Inner { children, .. } => stack.extend(children.iter().copied()),
            }
        }
        out
    }
}

fn mbr_of<E>(entries: &[E], rect: impl Fn(&E) -> Rect2) -> Rect2 {
    entries.iter().fold(Rect2::EMPTY, |r, e| r.union(&rect(e)))
}

/// Guttman quadratic split: pick the pair wasting the most area as seeds,
/// then assign each remaining entry to the group needing least enlargement,
/// respecting the minimum fill.
fn quadratic_split<E: Clone>(entries: Vec<E>, rect: impl Fn(&E) -> Rect2) -> (Vec<E>, Vec<E>) {
    debug_assert!(entries.len() > MAX_FANOUT);
    // Seed selection.
    let (mut s1, mut s2, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..entries.len() {
        for j in i + 1..entries.len() {
            let ri = rect(&entries[i]);
            let rj = rect(&entries[j]);
            let waste = ri.union(&rj).area() - ri.area() - rj.area();
            if waste > worst {
                worst = waste;
                s1 = i;
                s2 = j;
            }
        }
    }
    let mut a = vec![entries[s1].clone()];
    let mut b = vec![entries[s2].clone()];
    let mut a_mbr = rect(&entries[s1]);
    let mut b_mbr = rect(&entries[s2]);
    let mut rest: Vec<E> = entries
        .into_iter()
        .enumerate()
        .filter_map(|(i, e)| (i != s1 && i != s2).then_some(e))
        .collect();

    while let Some(e) = rest.pop() {
        let remaining = rest.len();
        // Force assignment when a group must take everything left to reach
        // the minimum fill.
        if a.len() + remaining < MIN_FANOUT {
            a_mbr = a_mbr.union(&rect(&e));
            a.push(e);
            continue;
        }
        if b.len() + remaining < MIN_FANOUT {
            b_mbr = b_mbr.union(&rect(&e));
            b.push(e);
            continue;
        }
        let r = rect(&e);
        let enl_a = a_mbr.union(&r).area() - a_mbr.area();
        let enl_b = b_mbr.union(&r).area() - b_mbr.area();
        if enl_a < enl_b || (enl_a == enl_b && a.len() <= b.len()) {
            a_mbr = a_mbr.union(&r);
            a.push(e);
        } else {
            b_mbr = b_mbr.union(&r);
            b.push(e);
        }
    }
    (a, b)
}

fn cmp_f64(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or(Ordering::Equal)
}

#[derive(PartialEq)]
struct HeapItem {
    dist: f64,
    kind: ItemKind,
}

#[derive(PartialEq, Eq)]
enum ItemKind {
    Node(usize),
    Entry(usize, usize),
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance; entries before nodes at equal distance so
        // results pop as early as possible.
        other.dist.partial_cmp(&self.dist).unwrap_or(Ordering::Equal).then_with(|| {
            match (&self.kind, &other.kind) {
                (ItemKind::Entry(..), ItemKind::Node(_)) => Ordering::Greater,
                (ItemKind::Node(_), ItemKind::Entry(..)) => Ordering::Less,
                _ => Ordering::Equal,
            }
        })
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(x: f64, y: f64) -> Rect2 {
        Rect2::from_point(Point2::new(x, y))
    }

    fn grid_points(n: usize) -> Vec<(Rect2, usize)> {
        let mut v = Vec::new();
        for i in 0..n {
            for j in 0..n {
                v.push((pt(i as f64, j as f64), i * n + j));
            }
        }
        v
    }

    #[test]
    fn bulk_load_roundtrip() {
        let items = grid_points(10);
        let t = RTree::bulk_load(items.clone());
        assert_eq!(t.len(), 100);
        let mut all: Vec<usize> = t.iter_all().into_iter().map(|(_, v)| v).collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn insert_roundtrip_and_growth() {
        let mut t = RTree::new();
        for (r, v) in grid_points(12) {
            t.insert(r, v);
        }
        assert_eq!(t.len(), 144);
        assert!(t.height() >= 2);
        let mut all: Vec<usize> = t.iter_all().into_iter().map(|(_, v)| v).collect();
        all.sort_unstable();
        assert_eq!(all, (0..144).collect::<Vec<_>>());
    }

    #[test]
    fn range_query_matches_scan() {
        let items = grid_points(15);
        let t = RTree::bulk_load(items.clone());
        let w = Rect2::new(Point2::new(2.5, 3.5), Point2::new(7.5, 9.0));
        let mut got: Vec<usize> = t.range(&w).into_iter().map(|(_, v)| v).collect();
        got.sort_unstable();
        let mut want: Vec<usize> =
            items.iter().filter(|(r, _)| w.intersects(r)).map(|&(_, v)| v).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn within_distance_matches_scan() {
        let items = grid_points(15);
        let t = RTree::bulk_load(items.clone());
        let c = Point2::new(7.2, 7.9);
        let r = 3.3;
        let mut got: Vec<usize> = t.within_distance(c, r).into_iter().map(|(_, v)| v).collect();
        got.sort_unstable();
        let mut want: Vec<usize> =
            items.iter().filter(|(rect, _)| rect.min_dist_point(c) <= r).map(|&(_, v)| v).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn knn_matches_scan_and_is_sorted() {
        let items = grid_points(15);
        let t = RTree::bulk_load(items.clone());
        let p = Point2::new(6.4, 2.1);
        let got = t.knn(p, 10);
        assert_eq!(got.len(), 10);
        for w in got.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        // Compare the k-th distance against a scan.
        let mut dists: Vec<f64> = items.iter().map(|(r, _)| r.min_dist_point(p)).collect();
        dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((got.last().unwrap().0 - dists[9]).abs() < 1e-12);
    }

    #[test]
    fn knn_more_than_len_returns_all() {
        let t = RTree::bulk_load(grid_points(3));
        let got = t.knn(Point2::new(0.0, 0.0), 100);
        assert_eq!(got.len(), 9);
    }

    #[test]
    fn empty_tree_queries() {
        let t: RTree<u32> = RTree::new();
        assert!(t.is_empty());
        assert!(t.knn(Point2::new(0.0, 0.0), 5).is_empty());
        assert!(t.range(&Rect2::new(Point2::new(0.0, 0.0), Point2::new(1.0, 1.0))).is_empty());
    }

    #[test]
    fn access_counter_moves_and_resets() {
        let t = RTree::bulk_load(grid_points(20));
        t.reset_accesses();
        assert_eq!(t.accesses(), 0);
        let _ = t.knn(Point2::new(3.0, 3.0), 5);
        let a = t.accesses();
        assert!(a > 0);
        let _ = t.range(&Rect2::new(Point2::new(0.0, 0.0), Point2::new(5.0, 5.0)));
        assert!(t.accesses() > a);
        t.reset_accesses();
        assert_eq!(t.accesses(), 0);
    }

    #[test]
    fn delete_roundtrip_down_to_empty() {
        let mut t = RTree::new();
        let items = grid_points(12); // 144 entries, several levels
        for &(r, v) in &items {
            t.insert(r, v);
        }
        t.validate().expect("valid after inserts");
        // Delete in an order unrelated to insertion order.
        let mut order: Vec<usize> = (0..items.len()).collect();
        order.reverse();
        order.rotate_left(37);
        for (step, &i) in order.iter().enumerate() {
            let (r, v) = items[i];
            assert!(t.delete(&r, &v), "entry {v} should be present");
            assert!(!t.delete(&r, &v), "double delete must fail");
            if let Err(e) = t.validate() {
                panic!("invariants broken after delete #{step}: {e}");
            }
            assert_eq!(t.len(), items.len() - step - 1);
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert!(t.knn(Point2::new(0.0, 0.0), 3).is_empty());
    }

    #[test]
    fn delete_missing_entry_is_a_clean_no_op() {
        let mut t = RTree::bulk_load(grid_points(8));
        let before = t.len();
        assert!(!t.delete(&pt(99.0, 99.0), &12345));
        // Same rect as an existing entry, different payload.
        assert!(!t.delete(&pt(1.0, 1.0), &usize::MAX));
        assert_eq!(t.len(), before);
        t.validate().unwrap();
    }

    #[test]
    fn queries_stay_correct_under_mixed_churn() {
        let mut t = RTree::new();
        let mut live: Vec<(Rect2, usize)> = Vec::new();
        // Deterministic mixed workload: 3 inserts, 1 delete, repeat.
        for (next, round) in (0..400).enumerate() {
            let x = (round * 7 % 83) as f64;
            let y = (round * 13 % 97) as f64;
            let e = (pt(x, y + 0.25 * (next % 4) as f64), next);
            t.insert(e.0, e.1);
            live.push(e);
            if round % 4 == 3 {
                let victim = live.remove((round * 31) % live.len());
                assert!(t.delete(&victim.0, &victim.1));
            }
        }
        t.validate().unwrap();
        assert_eq!(t.len(), live.len());
        // knn against a scan of the live set.
        let q = Point2::new(41.5, 33.3);
        let got = t.knn(q, 12);
        let mut want: Vec<f64> = live.iter().map(|(r, _)| r.min_dist_point(q)).collect();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (i, (d, _, _)) in got.iter().enumerate() {
            assert!((d - want[i]).abs() < 1e-12, "k={i}: {d} vs {}", want[i]);
        }
    }

    #[test]
    fn free_list_bounds_arena_growth_under_churn() {
        let mut t = RTree::new();
        for (r, v) in grid_points(10) {
            t.insert(r, v);
        }
        let arena_high = t.arena_size();
        // Sustained delete/insert churn at constant population must not
        // grow the arena without bound: freed slots are recycled.
        let items = grid_points(10);
        for round in 0..20 {
            for (r, v) in &items {
                assert!(t.delete(r, v), "round {round}");
            }
            for &(r, v) in &items {
                t.insert(r, v);
            }
            t.validate().unwrap();
        }
        assert!(
            t.arena_size() <= arena_high * 2,
            "arena grew {} → {} despite the free list",
            arena_high,
            t.arena_size()
        );
    }

    #[test]
    fn validate_catches_a_stale_parent_mbr() {
        let mut t = RTree::bulk_load(grid_points(12));
        t.validate().unwrap();
        // Corrupt one inner entry's rectangle.
        let root = t.root;
        if let Node::Inner { rects, .. } = &mut t.nodes[root] {
            rects[0] = rects[0].union(&pt(1e6, 1e6));
        }
        assert!(t.validate().is_err(), "inflated parent MBR must be flagged");
    }

    #[test]
    fn best_first_visits_fewer_nodes_than_full_scan() {
        let t = RTree::bulk_load(grid_points(32)); // 1024 points
        t.reset_accesses();
        let _ = t.knn(Point2::new(1.0, 1.0), 3);
        // A full scan would touch every node; best-first should touch a
        // small corner of the tree.
        let total_nodes = t.nodes.len() as u64;
        assert!(t.accesses() < total_nodes / 2, "{} vs {}", t.accesses(), total_nodes);
    }
}
