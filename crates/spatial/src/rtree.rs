//! An R-tree over 2-D rectangles.
//!
//! Supports Sort-Tile-Recursive (STR) bulk loading, Guttman quadratic-split
//! insertion, window (range) queries, and best-first incremental nearest
//! neighbour search (Hjaltason & Samet, TODS'99) — the "distance browsing"
//! strategy the paper cites for constraint-free k-NN processing.
//!
//! The tree is persistent: nodes are reference-counted and a clone shares
//! all of them. Insert and delete copy a node only when a clone still
//! shares it, and only along the root-to-leaf paths they change, so a
//! snapshot published before a mutation never sees it and the mutation
//! costs O(height × fanout), not O(size).
//!
//! Every node a query visits is charged to the calling thread's access
//! window on the tree; the storage layer maps them to disk-page accesses.

use crate::kernel::{min_dists_point, min_dists_point_sq, MAX_BATCH};
use sknn_geom::{Point2, Rect2};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Arc, Weak};

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
    Inner { rects: Vec<Rect2>, children: Vec<Arc<Node<T>>> },
}

impl<T> Node<T> {
    fn empty() -> Self {
        Node::Leaf { rects: Vec::new(), items: Vec::new() }
    }

    fn leaf(entries: Vec<(Rect2, T)>) -> Self {
        let (rects, items) = entries.into_iter().unzip();
        Node::Leaf { rects, items }
    }

    fn inner(entries: Vec<(Rect2, Arc<Node<T>>)>) -> Self {
        let (rects, children) = entries.into_iter().unzip();
        Node::Inner { rects, children }
    }

    fn rects(&self) -> &[Rect2] {
        match self {
            Node::Leaf { rects, .. } | Node::Inner { rects, .. } => rects,
        }
    }

    fn mbr(&self) -> Rect2 {
        self.rects().iter().fold(Rect2::EMPTY, |m, r| m.union(r))
    }
}

thread_local! {
    /// This thread's node-access window on each live tree lineage it has
    /// used, keyed by the lineage's token (held weakly).
    static WINDOWS: RefCell<Vec<(Weak<()>, u64)>> = const { RefCell::new(Vec::new()) };
}

/// An R-tree mapping rectangles to payloads.
///
/// A clone shares every node until either side mutates, and its access
/// windows, which are per thread: concurrent queries over a shared tree
/// (batch execution) each count their own.
#[derive(Debug, Clone)]
pub struct RTree<T> {
    root: Arc<Node<T>>,
    len: usize,
    height: usize,
    token: Arc<()>,
}

impl<T: Clone> Default for RTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> RTree<T> {
    /// An empty tree.
    pub fn new() -> Self {
        Self { root: Arc::new(Node::empty()), len: 0, height: 1, token: Arc::default() }
    }

    /// STR bulk load: sort by x, tile into vertical slices, sort each slice
    /// by y, pack leaves, then repeat on parent level.
    pub fn bulk_load(mut items: Vec<(Rect2, T)>) -> Self {
        if items.is_empty() {
            return Self::new();
        }
        let len = items.len();

        // Pack the leaf level.
        let leaf_count = len.div_ceil(MAX_FANOUT);
        let slices = (leaf_count as f64).sqrt().ceil() as usize;
        let per_slice = len.div_ceil(slices);
        items.sort_by(|a, b| cmp_f64(a.0.center().x, b.0.center().x));
        let mut level: Vec<(Rect2, Arc<Node<T>>)> = Vec::with_capacity(leaf_count);
        for slice in items.chunks_mut(per_slice.max(1)) {
            slice.sort_by(|a, b| cmp_f64(a.0.center().y, b.0.center().y));
            for group in slice.chunks(MAX_FANOUT) {
                let mbr = mbr_of(group, |e| e.0);
                level.push((mbr, Arc::new(Node::leaf(group.to_vec()))));
            }
        }
        let mut height = 1;

        // Pack upper levels the same way.
        while level.len() > 1 {
            let count = level.len().div_ceil(MAX_FANOUT);
            let slices = (count as f64).sqrt().ceil() as usize;
            let per_slice = level.len().div_ceil(slices);
            level.sort_by(|a, b| cmp_f64(a.0.center().x, b.0.center().x));
            let mut next: Vec<(Rect2, Arc<Node<T>>)> = Vec::with_capacity(count);
            for slice in level.chunks_mut(per_slice.max(1)) {
                slice.sort_by(|a, b| cmp_f64(a.0.center().y, b.0.center().y));
                for group in slice.chunks(MAX_FANOUT) {
                    let mbr = mbr_of(group, |e| e.0);
                    next.push((mbr, Arc::new(Node::inner(group.to_vec()))));
                }
            }
            level = next;
            height += 1;
        }
        let root = level.pop().expect("a non-empty load packs one root").1;
        Self { root, len, height, token: Arc::default() }
    }

    /// Number of contained items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether it holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Levels from the root to the leaves; 1 for a lone leaf root.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Node accesses this thread's queries made on the tree since its last
    /// [`reset_accesses`](Self::reset_accesses).
    pub fn accesses(&self) -> u64 {
        self.with_window(|n| *n)
    }

    /// Zero this thread's node-access window on the tree (typically at
    /// query start); other threads' windows are untouched.
    pub fn reset_accesses(&self) {
        self.with_window(|n| *n = 0);
    }

    fn touch(&self) {
        self.with_window(|n| *n += 1);
    }

    /// Run `f` on this thread's window on the tree, opened at zero.
    fn with_window<R>(&self, f: impl FnOnce(&mut u64) -> R) -> R {
        WINDOWS.with_borrow_mut(|windows| {
            let key = Arc::as_ptr(&self.token);
            let at = windows.iter().position(|(t, _)| std::ptr::eq(t.as_ptr(), key));
            let at = at.unwrap_or_else(|| {
                // Dropped trees' windows go; their weak keys kept the
                // addresses from being reused until now.
                windows.retain(|(t, _)| t.strong_count() > 0);
                windows.push((Arc::downgrade(&self.token), 0));
                windows.len() - 1
            });
            f(&mut windows[at].1)
        })
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
        if let Some((left_mbr, right_mbr, right)) =
            Self::insert_at(Arc::make_mut(&mut self.root), rect, item)
        {
            // Grow the tree: new root over old root and the split sibling.
            let old_root = Arc::clone(&self.root);
            self.root = Arc::new(Node::inner(vec![(left_mbr, old_root), (right_mbr, right)]));
            self.height += 1;
        }
    }

    /// Recursive insert into a node this tree owns alone; returns
    /// Some((this_mbr, sibling_mbr, sibling)) when `node` was split. The
    /// child it descends into is copied first if a clone shares it.
    fn insert_at(node: &mut Node<T>, rect: Rect2, item: T) -> Option<(Rect2, Rect2, Arc<Node<T>>)> {
        let overfull = match node {
            Node::Leaf { rects, items } => {
                rects.push(rect);
                items.push(item);
                rects.len() > MAX_FANOUT
            }
            Node::Inner { rects, children } => {
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
                let split = Self::insert_at(Arc::make_mut(&mut children[best]), rect, item);
                rects[best] = rects[best].union(&rect);
                let (l_mbr, r_mbr, right) = split?;
                rects[best] = l_mbr;
                rects.push(r_mbr);
                children.push(right);
                rects.len() > MAX_FANOUT
            }
        };
        overfull.then(|| Self::split(node))
    }

    /// Quadratic split of an overfull node: `node` keeps one group, the
    /// other becomes the returned sibling.
    fn split(node: &mut Node<T>) -> (Rect2, Rect2, Arc<Node<T>>) {
        let (a_mbr, b_mbr, a, b) = match std::mem::replace(node, Node::empty()) {
            Node::Leaf { rects, items } => {
                let (a, b) = quadratic_split(rects.into_iter().zip(items).collect(), |e| e.0);
                (mbr_of(&a, |e| e.0), mbr_of(&b, |e| e.0), Node::leaf(a), Node::leaf(b))
            }
            Node::Inner { rects, children } => {
                let (a, b) = quadratic_split(rects.into_iter().zip(children).collect(), |e| e.0);
                (mbr_of(&a, |e| e.0), mbr_of(&b, |e| e.0), Node::inner(a), Node::inner(b))
            }
        };
        *node = a;
        (a_mbr, b_mbr, Arc::new(b))
    }

    // ----- deletion -------------------------------------------------------

    /// Delete the entry with exactly this rectangle and payload (Guttman
    /// delete with condensation). Returns whether an entry was removed.
    ///
    /// Underfull non-root nodes along the deletion path are dissolved:
    /// their surviving entries are collected and reinserted. The root
    /// shrinks while it has a single child, so repeated deletes walk the
    /// tree back down exactly as inserts grew it.
    pub fn delete(&mut self, rect: &Rect2, item: &T) -> bool
    where
        T: PartialEq,
    {
        // Search read-only first, so a miss or a failed branch copies
        // nothing a clone shares.
        let mut path = Vec::with_capacity(self.height);
        if !Self::find_leaf(&self.root, rect, item, &mut path) {
            return false;
        }
        let mut orphans: Vec<(Rect2, T)> = Vec::new();
        Self::remove_at(Arc::make_mut(&mut self.root), &path, rect, item, &mut orphans);
        self.len -= 1;

        // Shrink the root while it has one child; an emptied inner root
        // (every child dissolved) collapses back to an empty leaf.
        loop {
            match &*self.root {
                Node::Inner { children, .. } if children.len() == 1 => {
                    self.root = Arc::clone(&children[0]);
                    self.height -= 1;
                }
                Node::Inner { children, .. } if children.is_empty() => {
                    self.root = Arc::new(Node::empty());
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
    /// `path` with the child positions root → leaf when found.
    fn find_leaf(node: &Node<T>, rect: &Rect2, item: &T, path: &mut Vec<usize>) -> bool
    where
        T: PartialEq,
    {
        match node {
            Node::Leaf { rects, items } => {
                rects.iter().zip(items.iter()).any(|(r, it)| r == rect && it == item)
            }
            Node::Inner { rects, children } => {
                for (i, (r, c)) in rects.iter().zip(children.iter()).enumerate() {
                    if r.contains_rect(rect) {
                        path.push(i);
                        if Self::find_leaf(c, rect, item, path) {
                            return true;
                        }
                        path.pop();
                    }
                }
                false
            }
        }
    }

    /// Remove the entry at the end of `path` and condense on the way back
    /// up: each underfull child is dissolved — unlinked, its entries
    /// appended to `orphans` — and each surviving child's rectangle is
    /// refreshed. Children are checked after the removals below them, the
    /// deepest first, so orphans arrive bottom-up in DFS order.
    fn remove_at(
        node: &mut Node<T>,
        path: &[usize],
        rect: &Rect2,
        item: &T,
        orphans: &mut Vec<(Rect2, T)>,
    ) where
        T: PartialEq,
    {
        match node {
            Node::Leaf { rects, items } => {
                let i = rects
                    .iter()
                    .zip(items.iter())
                    .position(|(r, it)| r == rect && it == item)
                    .expect("find_leaf certified the entry");
                rects.remove(i);
                items.remove(i);
            }
            Node::Inner { rects, children } => {
                let ci = path[0];
                let child = Arc::make_mut(&mut children[ci]);
                Self::remove_at(child, &path[1..], rect, item, orphans);
                if child.rects().len() < MIN_FANOUT {
                    rects.remove(ci);
                    drain_subtree(&children.remove(ci), orphans);
                } else {
                    rects[ci] = child.mbr();
                }
            }
        }
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
        self.validate_rec(&self.root, 1, true, &mut total)?;
        if total != self.len {
            return Err(format!("len {} but leaves hold {total} entries", self.len));
        }
        Ok(())
    }

    fn validate_rec(
        &self,
        node: &Node<T>,
        depth: usize,
        is_root: bool,
        total: &mut usize,
    ) -> Result<Rect2, String> {
        match node {
            Node::Leaf { rects, items } => {
                if rects.len() != items.len() {
                    return Err(format!(
                        "leaf at depth {depth}: SoA arrays diverge ({} rects, {} items)",
                        rects.len(),
                        items.len()
                    ));
                }
                if depth != self.height {
                    return Err(format!("leaf at depth {depth}, height is {}", self.height));
                }
                if rects.len() > MAX_FANOUT {
                    return Err(format!("leaf at depth {depth} overfull: {}", rects.len()));
                }
                if !is_root && rects.is_empty() {
                    return Err(format!("non-root leaf at depth {depth} is empty"));
                }
                *total += rects.len();
                Ok(node.mbr())
            }
            Node::Inner { rects, children } => {
                if rects.len() != children.len() {
                    return Err(format!(
                        "inner at depth {depth}: SoA arrays diverge ({} rects, {} children)",
                        rects.len(),
                        children.len()
                    ));
                }
                if rects.len() > MAX_FANOUT {
                    return Err(format!("inner at depth {depth} overfull: {}", rects.len()));
                }
                let floor = if is_root { 2 } else { 1 };
                if rects.len() < floor {
                    return Err(format!(
                        "inner at depth {depth} underfull: {} < {floor}",
                        rects.len()
                    ));
                }
                let mut mbr = Rect2::EMPTY;
                for (i, (r, c)) in rects.iter().zip(children.iter()).enumerate() {
                    let child_mbr = self.validate_rec(c, depth + 1, false, total)?;
                    if *r != child_mbr {
                        return Err(format!(
                            "inner at depth {depth}: entry rect {r:?} is not child {i}'s MBR \
                             {child_mbr:?}"
                        ));
                    }
                    mbr = mbr.union(r);
                }
                Ok(mbr)
            }
        }
    }

    // ----- queries --------------------------------------------------------

    /// All items whose rectangle intersects `window`.
    pub fn range(&self, window: &Rect2) -> Vec<(Rect2, T)> {
        let mut out = Vec::new();
        self.range_rec(&self.root, window, &mut out);
        out
    }

    fn range_rec(&self, node: &Node<T>, window: &Rect2, out: &mut Vec<(Rect2, T)>) {
        self.touch();
        match node {
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
                        self.range_rec(child, window, out);
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
        self.within_rec(&self.root, &window, center, radius, &mut out);
        out
    }

    fn within_rec(
        &self,
        node: &Node<T>,
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
        match node {
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
                        self.within_rec(&children[i], window, center, radius, out);
                    }
                }
            }
        }
    }

    /// The `k` items nearest to `p` by rectangle min-distance, ascending.
    /// Best-first (priority-queue) traversal.
    pub fn knn(&self, p: Point2, k: usize) -> Vec<(f64, Rect2, T)> {
        let mut out = Vec::with_capacity(k);
        let mut heap: BinaryHeap<HeapItem<'_, T>> = BinaryHeap::new();
        heap.push(HeapItem { dist: 0.0, kind: ItemKind::Node(&self.root) });
        while let Some(HeapItem { dist, kind }) = heap.pop() {
            match kind {
                ItemKind::Node(n) => {
                    self.touch();
                    // Batched kernel: every entry's mindist in one pass,
                    // then the heap pushes read off the lane buffer.
                    let mut d = [0.0f64; MAX_BATCH];
                    match n {
                        Node::Leaf { rects, .. } => {
                            let cnt = min_dists_point(p, rects, &mut d);
                            for (i, &dist) in d[..cnt].iter().enumerate() {
                                heap.push(HeapItem { dist, kind: ItemKind::Entry(n, i) });
                            }
                        }
                        Node::Inner { rects, children } => {
                            let cnt = min_dists_point(p, rects, &mut d);
                            for (i, &dist) in d[..cnt].iter().enumerate() {
                                heap.push(HeapItem { dist, kind: ItemKind::Node(&children[i]) });
                            }
                        }
                    }
                }
                ItemKind::Entry(n, i) => {
                    if let Node::Leaf { rects, items } = n {
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
        let mut stack: Vec<&Node<T>> = vec![&*self.root];
        while let Some(n) = stack.pop() {
            match n {
                Node::Leaf { rects, items } => {
                    out.extend(rects.iter().copied().zip(items.iter().cloned()))
                }
                Node::Inner { children, .. } => stack.extend(children.iter().map(|c| &**c)),
            }
        }
        out
    }
}

/// Append every leaf entry under `node` to `out`, in DFS order. The
/// entries are cloned: a clone of the tree may still share the subtree.
fn drain_subtree<T: Clone>(node: &Node<T>, out: &mut Vec<(Rect2, T)>) {
    match node {
        Node::Leaf { rects, items } => out.extend(rects.iter().copied().zip(items.iter().cloned())),
        Node::Inner { children, .. } => {
            for c in children {
                drain_subtree(c, out);
            }
        }
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

struct HeapItem<'a, T> {
    dist: f64,
    kind: ItemKind<'a, T>,
}

enum ItemKind<'a, T> {
    Node(&'a Node<T>),
    Entry(&'a Node<T>, usize),
}

impl<T> PartialEq for HeapItem<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<T> Eq for HeapItem<'_, T> {}

impl<T> Ord for HeapItem<'_, T> {
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

impl<T> PartialOrd for HeapItem<'_, T> {
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

    fn node_count<T>(node: &Node<T>) -> usize {
        match node {
            Node::Leaf { .. } => 1,
            Node::Inner { children, .. } => {
                1 + children.iter().map(|c| node_count(c)).sum::<usize>()
            }
        }
    }

    /// Nodes of `tree` that `base` does not share: a pointer walk that
    /// stops at the first shared node of each branch (its subtree is
    /// shared whole).
    fn unshared_nodes<T>(tree: &RTree<T>, base: &RTree<T>) -> usize {
        fn collect<T>(n: &Arc<Node<T>>, out: &mut std::collections::HashSet<*const Node<T>>) {
            out.insert(Arc::as_ptr(n));
            if let Node::Inner { children, .. } = &**n {
                children.iter().for_each(|c| collect(c, out));
            }
        }
        fn walk<T>(n: &Arc<Node<T>>, base: &std::collections::HashSet<*const Node<T>>) -> usize {
            if base.contains(&Arc::as_ptr(n)) {
                return 0;
            }
            match &**n {
                Node::Leaf { .. } => 1,
                Node::Inner { children, .. } => {
                    1 + children.iter().map(|c| walk(c, base)).sum::<usize>()
                }
            }
        }
        let mut seen = std::collections::HashSet::new();
        collect(&base.root, &mut seen);
        walk(&tree.root, &seen)
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

    /// Scrambled but deterministic point `i` of a 200 × 200 field.
    fn churn_point(i: usize) -> Rect2 {
        pt((i * 7919 % 2003) as f64 * 0.1, (i * 104_729 % 1999) as f64 * 0.1)
    }

    /// A move is what a store commit does to its tree: delete, then
    /// insert, while the published snapshot still shares every node.
    #[test]
    fn a_move_on_a_shared_tree_copies_only_its_paths() {
        let mut t = RTree::bulk_load((0..4000).map(|i| (churn_point(i), i)).collect());
        let total = node_count(&t.root);
        for i in 0..200usize {
            let held = t.clone();
            let held_entries = held.iter_all();
            assert_eq!(unshared_nodes(&t, &held), 0, "a clone shares every node");
            let v = i * 19 % 4000;
            let r = t.iter_all().into_iter().find(|e| e.1 == v).unwrap().0;
            assert!(t.delete(&r, &v));
            t.insert(churn_point(v + 5000 * (i + 1)), v);
            let copied = unshared_nodes(&t, &held);
            // The delete path, the insert path (the root is on both) and
            // one split sibling per level plus a new root at most.
            assert!(
                copied <= 3 * t.height(),
                "move {i} copied {copied} of {total} nodes (height {})",
                t.height()
            );
            held.validate().unwrap();
            assert_eq!(held.iter_all(), held_entries, "move {i} reached into the held clone");
        }
    }

    #[test]
    fn validate_catches_a_stale_parent_mbr() {
        let mut t = RTree::bulk_load(grid_points(12));
        t.validate().unwrap();
        // Corrupt one inner entry's rectangle.
        if let Node::Inner { rects, .. } = Arc::make_mut(&mut t.root) {
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
        let total_nodes = node_count(&t.root) as u64;
        assert!(t.accesses() < total_nodes / 2, "{} vs {}", t.accesses(), total_nodes);
    }
}
