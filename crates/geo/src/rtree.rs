//! An R-tree over geographic points (Guttman 1984), the index structure
//! DJ-Cluster's neighborhood phase loads from the distributed cache
//! (§VII-B of the paper): "computing the neighborhood of a point with such
//! a structure can be done in O(log n)".
//!
//! Two construction paths are provided, matching the paper:
//! incremental insertion with quadratic splits, and **STR bulk loading**
//! (Sort-Tile-Recursive), which is what each phase-2 reducer of the
//! MapReduce R-tree construction uses to index its partition.
//!
//! Queries: rectangle range, radius-in-meters range, and best-first
//! k-nearest-neighbors in degree space. Both range queries run one
//! descent (`descend`): a node's MBR is compared with the query rect
//! *before* the node is entered, and the query sees leaves. A leaf that
//! lies inside the query is taken whole, its entries unread; for the
//! radius query `RadiusTest` decides that, and every other candidate,
//! exactly — without trigonometry except on the disc's very edge. A
//! *stream* of radius queries that moves a few metres at a time goes
//! through a [`RadiusCursor`], which answers from a cached leaf list
//! while the stream stays near and hands whole leaves over as blocks.

use crate::distance::{haversine_m, EARTH_RADIUS_M};
use crate::Rect;
use gepeto_model::GeoPoint;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::slice::from_ref;

/// Default maximum entries per node (Guttman's M).
pub const DEFAULT_MAX_ENTRIES: usize = 16;

/// A leaf entry: an indexed point plus its payload (typically the index of
/// a mobility trace in the dataset).
#[derive(Debug, Clone)]
pub struct Entry<T> {
    /// The indexed location.
    pub point: GeoPoint,
    /// The caller's payload (typically a record offset).
    pub payload: T,
}

#[derive(Debug, Clone)]
enum Node<T> {
    Leaf { mbr: Rect, entries: Vec<Entry<T>> },
    Internal { mbr: Rect, children: Vec<Node<T>> },
}

impl<T> Node<T> {
    fn mbr(&self) -> Rect {
        match self {
            Node::Leaf { mbr, .. } | Node::Internal { mbr, .. } => *mbr,
        }
    }

    fn height(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Internal { children, .. } => 1 + children[0].height(),
        }
    }
}

/// An R-tree mapping [`GeoPoint`]s to payloads of type `T`.
#[derive(Debug, Clone)]
pub struct RTree<T> {
    root: Node<T>,
    len: usize,
    max_entries: usize,
    min_entries: usize,
}

impl<T> Default for RTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RTree<T> {
    /// An empty tree with the default node capacity.
    pub fn new() -> Self {
        Self::with_max_entries(DEFAULT_MAX_ENTRIES)
    }

    /// An empty tree with node capacity `max_entries` (min fill = 40%).
    ///
    /// # Panics
    /// If `max_entries < 2`.
    pub fn with_max_entries(max_entries: usize) -> Self {
        assert!(max_entries >= 2, "R-tree nodes need at least 2 entries");
        let min_entries = (max_entries * 2 / 5).max(1);
        Self {
            root: Node::Leaf {
                mbr: Rect::empty(),
                entries: Vec::new(),
            },
            len: 0,
            max_entries,
            min_entries,
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree indexes no point.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (1 = a single leaf).
    pub fn height(&self) -> usize {
        self.root.height()
    }

    /// MBR of all indexed points (empty rect when the tree is empty).
    pub fn bounds(&self) -> Rect {
        self.root.mbr()
    }

    /// Maximum entries per node.
    pub fn max_entries(&self) -> usize {
        self.max_entries
    }

    /// Inserts a point with its payload (Guttman insertion with quadratic
    /// node splitting).
    pub fn insert(&mut self, point: GeoPoint, payload: T) {
        let max = self.max_entries;
        let min = self.min_entries;
        if let Some(sibling) = insert_rec(&mut self.root, Entry { point, payload }, max, min) {
            // Root split: grow the tree by one level.
            let old_root = std::mem::replace(
                &mut self.root,
                Node::Internal {
                    mbr: Rect::empty(),
                    children: Vec::new(),
                },
            );
            let mut children = vec![old_root, sibling];
            let mut mbr = Rect::empty();
            for c in &children {
                mbr = mbr.union(&c.mbr());
            }
            match &mut self.root {
                Node::Internal {
                    mbr: m,
                    children: ch,
                } => {
                    *m = mbr;
                    std::mem::swap(ch, &mut children);
                }
                Node::Leaf { .. } => unreachable!(),
            }
        }
        self.len += 1;
    }

    /// Builds a tree from a batch of points with STR (Sort-Tile-Recursive)
    /// bulk loading — the O(n log n) packed construction used by the
    /// phase-2 reducers of the MapReduce R-tree build.
    pub fn bulk_load(items: Vec<(GeoPoint, T)>) -> Self {
        Self::bulk_load_with_max_entries(items, DEFAULT_MAX_ENTRIES)
    }

    /// [`Self::bulk_load`] with an explicit node capacity.
    pub fn bulk_load_with_max_entries(items: Vec<(GeoPoint, T)>, max_entries: usize) -> Self {
        assert!(max_entries >= 2);
        let len = items.len();
        let min_entries = (max_entries * 2 / 5).max(1);
        if items.is_empty() {
            return Self::with_max_entries(max_entries);
        }
        // Build leaves by sort-tile-recursive packing.
        let mut entries: Vec<Entry<T>> = items
            .into_iter()
            .map(|(point, payload)| Entry { point, payload })
            .collect();
        let leaves = str_pack_leaves(&mut entries, max_entries);
        let mut level: Vec<Node<T>> = leaves;
        while level.len() > 1 {
            level = str_pack_internal(level, max_entries);
        }
        Self {
            root: level.into_iter().next().expect("non-empty level"),
            len,
            max_entries,
            min_entries,
        }
    }

    /// Merges several trees into one — phase 3 of the paper's MapReduce
    /// R-tree construction ("executed sequentially by a single node due to
    /// its low computational complexity"), done the way Cary et al. do it:
    /// a root is built *over* the partition trees instead of re-inserting
    /// their entries. Shorter trees are padded with single-child nodes up
    /// to the tallest one's height (leaves must stay at one depth), then
    /// the roots are STR-packed level by level like any other node set.
    /// Cost is `O(p log p)` in the number of trees, independent of how
    /// many entries they hold; no entry is moved or cloned.
    ///
    /// Empty trees are dropped; the node capacity of the result is the
    /// largest of the inputs' (so no input node can be overfull in it).
    pub fn merge(trees: Vec<RTree<T>>) -> RTree<T> {
        let max_entries = trees
            .iter()
            .map(|t| t.max_entries)
            .max()
            .unwrap_or(DEFAULT_MAX_ENTRIES);
        let mut merged = Self::with_max_entries(max_entries);
        merged.len = trees.iter().map(|t| t.len).sum();
        let roots: Vec<(usize, Node<T>)> = trees
            .into_iter()
            .filter(|t| !t.is_empty())
            .map(|t| (t.root.height(), t.root))
            .collect();
        let Some(tallest) = roots.iter().map(|&(h, _)| h).max() else {
            return merged;
        };
        let mut level: Vec<Node<T>> = roots
            .into_iter()
            .map(|(height, mut root)| {
                for _ in height..tallest {
                    root = Node::Internal {
                        mbr: root.mbr(),
                        children: vec![root],
                    };
                }
                root
            })
            .collect();
        while level.len() > 1 {
            level = str_pack_internal(level, max_entries);
        }
        merged.root = level.pop().expect("at least one non-empty tree");
        merged
    }

    /// All entries whose point falls inside `rect` (inclusive borders). A
    /// leaf whose MBR lies inside `rect` is pushed wholesale.
    pub fn query_rect(&self, rect: &Rect) -> Vec<&Entry<T>> {
        let mut out = Vec::new();
        descend(from_ref(&self.root), rect, &mut 0, &mut |mbr, entries| {
            if rect.contains_rect(mbr) {
                out.extend(entries);
            } else {
                out.extend(entries.iter().filter(|e| rect.contains_point(e.point)));
            }
        });
        out
    }

    /// All entries within `radius_m` meters (Haversine) of `center` that
    /// [`radius_bounding_rect`] admits: all of them for a city-scale
    /// disc, across ±180° too. The rect steers the descent, [`RadiusTest`]
    /// decides — a leaf at a time where it can, else entry by entry,
    /// exactly. This is the neighborhood query of DJ-Cluster's second
    /// phase; a *stream* of nearby centres wants [`Self::radius_cursor`].
    pub fn within_radius_m(&self, center: GeoPoint, radius_m: f64) -> Vec<&Entry<T>> {
        let mut out = Vec::new();
        self.for_each_within_radius_m(center, radius_m, |e| out.push(e));
        out
    }

    /// [`Self::within_radius_m`] as a visitor: `visit` sees exactly the
    /// entries that call would return, in the same order, without a
    /// result vector per query — a caller issuing one query per trace
    /// keeps one buffer of its own.
    pub fn for_each_within_radius_m<'a>(
        &'a self,
        center: GeoPoint,
        radius_m: f64,
        mut visit: impl FnMut(&'a Entry<T>),
    ) {
        if radius_m < 0.0 {
            return;
        }
        let (root, disc) = (from_ref(&self.root), RadiusTest::new(center, radius_m));
        for disc in std::iter::once(&disc).chain(&disc.wrapped()) {
            descend(root, &disc.rect, &mut 0, &mut |mbr, entries| {
                if disc.contains_leaf(mbr) {
                    entries.iter().for_each(&mut visit);
                } else {
                    for e in entries.iter().filter(|e| disc.contains(e.point)) {
                        visit(e);
                    }
                }
            });
        }
    }

    /// A [`RadiusCursor`] for radius-`radius_m` queries around a stream
    /// of centres (negative: no hits).
    pub fn radius_cursor(&self, radius_m: f64) -> RadiusCursor<'_, T> {
        RadiusCursor {
            tree: self,
            radius_m,
            cover: Rect::empty(),
            leaves: Vec::new(),
            stats: CursorStats::default(),
        }
    }

    /// The `k` nearest entries to `center` in **degree space** (Euclidean
    /// on lat/lon), ordered nearest-first. Best-first traversal using node
    /// MBR lower bounds.
    pub fn nearest_k(&self, center: GeoPoint, k: usize) -> Vec<&Entry<T>> {
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        enum Item<'a, T> {
            Node(&'a Node<T>),
            Entry(&'a Entry<T>),
        }
        struct HeapItem<'a, T> {
            dist2: f64,
            item: Item<'a, T>,
        }
        impl<T> PartialEq for HeapItem<'_, T> {
            fn eq(&self, other: &Self) -> bool {
                self.dist2 == other.dist2
            }
        }
        impl<T> Eq for HeapItem<'_, T> {}
        impl<T> PartialOrd for HeapItem<'_, T> {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl<T> Ord for HeapItem<'_, T> {
            fn cmp(&self, other: &Self) -> Ordering {
                // Reverse for a min-heap; NaN-free because dist2 >= 0.
                other
                    .dist2
                    .partial_cmp(&self.dist2)
                    .unwrap_or(Ordering::Equal)
            }
        }
        let mut heap: BinaryHeap<HeapItem<'_, T>> = BinaryHeap::new();
        heap.push(HeapItem {
            dist2: self.root.mbr().min_dist2(center),
            item: Item::Node(&self.root),
        });
        let mut out = Vec::with_capacity(k);
        while let Some(HeapItem { item, .. }) = heap.pop() {
            match item {
                Item::Entry(e) => {
                    out.push(e);
                    if out.len() == k {
                        break;
                    }
                }
                Item::Node(Node::Leaf { entries, .. }) => {
                    for e in entries {
                        let dlat = e.point.lat - center.lat;
                        let dlon = e.point.lon - center.lon;
                        heap.push(HeapItem {
                            dist2: dlat * dlat + dlon * dlon,
                            item: Item::Entry(e),
                        });
                    }
                }
                Item::Node(Node::Internal { children, .. }) => {
                    for c in children {
                        heap.push(HeapItem {
                            dist2: c.mbr().min_dist2(center),
                            item: Item::Node(c),
                        });
                    }
                }
            }
        }
        out
    }

    /// Iterator over every entry (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &Entry<T>> {
        let mut stack = vec![&self.root];
        std::iter::from_fn(move || loop {
            match stack.pop()? {
                Node::Leaf { entries, .. } => {
                    if !entries.is_empty() {
                        // Flatten the leaf through a sub-stack trick:
                        // push nothing, return a slice iterator instead.
                        // Simpler: return entries one by one via index —
                        // handled by the outer flatten below.
                        return Some(entries.as_slice());
                    }
                }
                Node::Internal { children, .. } => {
                    stack.extend(children.iter());
                }
            }
        })
        .flatten()
    }

    /// Structural invariant check (test/debug helper): returns a violation
    /// description, or `None` when the tree is well-formed.
    pub fn check_invariants(&self) -> Option<String> {
        fn rec<T>(
            node: &Node<T>,
            is_root: bool,
            min: usize,
            max: usize,
            depth: usize,
            leaf_depth: &mut Option<usize>,
            count: &mut usize,
        ) -> Option<String> {
            match node {
                Node::Leaf { mbr, entries } => {
                    *count += entries.len();
                    if let Some(d) = *leaf_depth {
                        if d != depth {
                            return Some(format!("leaves at depths {d} and {depth}"));
                        }
                    } else {
                        *leaf_depth = Some(depth);
                    }
                    // Min fill is only guaranteed on the insertion path;
                    // STR bulk loading may leave the last page underfull,
                    // so only the upper bound and non-emptiness are hard
                    // invariants.
                    let _ = min;
                    if entries.len() > max {
                        return Some(format!("leaf overfull: {}", entries.len()));
                    }
                    if !is_root && entries.is_empty() {
                        return Some("empty non-root leaf".into());
                    }
                    for e in entries {
                        if !mbr.contains_point(e.point) {
                            return Some("leaf MBR does not contain an entry".into());
                        }
                    }
                    None
                }
                Node::Internal { mbr, children } => {
                    if children.is_empty() {
                        return Some("internal node with no children".into());
                    }
                    if children.len() > max {
                        return Some(format!("internal overfull: {}", children.len()));
                    }
                    for c in children {
                        if !mbr.contains_rect(&c.mbr()) && !c.mbr().is_empty() {
                            return Some("parent MBR does not contain child MBR".into());
                        }
                        if let Some(v) = rec(c, false, min, max, depth + 1, leaf_depth, count) {
                            return Some(v);
                        }
                    }
                    None
                }
            }
        }
        let mut leaf_depth = None;
        let mut count = 0;
        let v = rec(
            &self.root,
            true,
            self.min_entries,
            self.max_entries,
            0,
            &mut leaf_depth,
            &mut count,
        );
        if v.is_some() {
            return v;
        }
        if count != self.len {
            return Some(format!("len {} but {count} entries reachable", self.len));
        }
        None
    }
}

/// Degree-space rectangle around the `radius_m`-meter disc at `center`:
/// latitude-aware longitude widening, clamped at the poles, every
/// longitude once the disc is half the globe wide. The widening is the
/// small-circle one — it contains the disc at any radius GPS analyses
/// use, a continental disc or one reaching a pole outgrows it. Longitudes
/// are not wrapped: a rect leaving [−180, 180] says the disc goes on
/// across the antimeridian, where the radius queries follow it.
pub fn radius_bounding_rect(center: GeoPoint, radius_m: f64) -> Rect {
    const M_PER_DEG_LAT: f64 = 111_194.93; // pi * R / 180 for R = 6371000.8
    let dlat = radius_m / M_PER_DEG_LAT;
    let cos_lat = center.lat.to_radians().cos().max(1e-9);
    let dlon = radius_m / (M_PER_DEG_LAT * cos_lat);
    let all_lons = dlon >= 180.0;
    Rect {
        min_lat: (center.lat - dlat).max(-90.0),
        min_lon: if all_lons { -180.0 } else { center.lon - dlon },
        max_lat: (center.lat + dlat).min(90.0),
        max_lon: if all_lons { 180.0 } else { center.lon + dlon },
    }
}

fn insert_rec<T>(node: &mut Node<T>, entry: Entry<T>, max: usize, min: usize) -> Option<Node<T>> {
    match node {
        Node::Leaf { mbr, entries } => {
            *mbr = mbr.union(&Rect::point(entry.point));
            entries.push(entry);
            if entries.len() > max {
                let (a, b) =
                    quadratic_split(std::mem::take(entries), min, |e| Rect::point(e.point));
                let (mbr_a, mbr_b) = (
                    Rect::of_points(a.iter().map(|e| e.point)),
                    Rect::of_points(b.iter().map(|e| e.point)),
                );
                *entries = a;
                *mbr = mbr_a;
                return Some(Node::Leaf {
                    mbr: mbr_b,
                    entries: b,
                });
            }
            None
        }
        Node::Internal { mbr, children } => {
            *mbr = mbr.union(&Rect::point(entry.point));
            // Choose the child needing least enlargement (ties: least area).
            let target_rect = Rect::point(entry.point);
            let idx = children
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    let ea = a.mbr().enlargement(&target_rect);
                    let eb = b.mbr().enlargement(&target_rect);
                    ea.partial_cmp(&eb)
                        .unwrap_or(Ordering::Equal)
                        .then_with(|| {
                            a.mbr()
                                .area()
                                .partial_cmp(&b.mbr().area())
                                .unwrap_or(Ordering::Equal)
                        })
                })
                .map(|(i, _)| i)
                .expect("internal node has children");
            if let Some(sibling) = insert_rec(&mut children[idx], entry, max, min) {
                children.push(sibling);
                if children.len() > max {
                    let (a, b) = quadratic_split(std::mem::take(children), min, |c| c.mbr());
                    let mut mbr_a = Rect::empty();
                    for c in &a {
                        mbr_a = mbr_a.union(&c.mbr());
                    }
                    let mut mbr_b = Rect::empty();
                    for c in &b {
                        mbr_b = mbr_b.union(&c.mbr());
                    }
                    *children = a;
                    *mbr = mbr_a;
                    return Some(Node::Internal {
                        mbr: mbr_b,
                        children: b,
                    });
                }
            }
            None
        }
    }
}

/// Guttman's quadratic split: pick the two seeds wasting the most area if
/// grouped, then greedily assign the remainder by enlargement preference,
/// honoring the minimum fill on both groups.
fn quadratic_split<I>(items: Vec<I>, min: usize, rect_of: impl Fn(&I) -> Rect) -> (Vec<I>, Vec<I>) {
    debug_assert!(items.len() >= 2);
    // Seed selection.
    let (mut seed_a, mut seed_b, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..items.len() {
        for j in (i + 1)..items.len() {
            let ri = rect_of(&items[i]);
            let rj = rect_of(&items[j]);
            let dead = ri.union(&rj).area() - ri.area() - rj.area();
            if dead > worst {
                worst = dead;
                seed_a = i;
                seed_b = j;
            }
        }
    }
    let mut group_a: Vec<I> = Vec::new();
    let mut group_b: Vec<I> = Vec::new();
    let mut mbr_a = Rect::empty();
    let mut mbr_b = Rect::empty();
    let mut rest: Vec<I> = Vec::new();
    for (idx, item) in items.into_iter().enumerate() {
        if idx == seed_a {
            mbr_a = rect_of(&item);
            group_a.push(item);
        } else if idx == seed_b {
            mbr_b = rect_of(&item);
            group_b.push(item);
        } else {
            rest.push(item);
        }
    }
    let total = rest.len() + 2;
    for item in rest.into_iter() {
        let remaining_capacity_needed = |group_len: usize| min.saturating_sub(group_len);
        // Force-assign when a group must take all remaining to reach min.
        let assigned_so_far = group_a.len() + group_b.len();
        let remaining = total - assigned_so_far;
        if remaining_capacity_needed(group_a.len()) >= remaining {
            mbr_a = mbr_a.union(&rect_of(&item));
            group_a.push(item);
            continue;
        }
        if remaining_capacity_needed(group_b.len()) >= remaining {
            mbr_b = mbr_b.union(&rect_of(&item));
            group_b.push(item);
            continue;
        }
        let r = rect_of(&item);
        let ea = mbr_a.enlargement(&r);
        let eb = mbr_b.enlargement(&r);
        let to_a = match ea.partial_cmp(&eb).unwrap_or(Ordering::Equal) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => group_a.len() <= group_b.len(),
        };
        if to_a {
            mbr_a = mbr_a.union(&r);
            group_a.push(item);
        } else {
            mbr_b = mbr_b.union(&r);
            group_b.push(item);
        }
    }
    (group_a, group_b)
}

fn str_pack_leaves<T>(entries: &mut Vec<Entry<T>>, max: usize) -> Vec<Node<T>> {
    let n = entries.len();
    let pages = n.div_ceil(max);
    let slices = (pages as f64).sqrt().ceil() as usize;
    let slice_size = n.div_ceil(slices);
    entries.sort_by(|a, b| {
        a.point
            .lon
            .partial_cmp(&b.point.lon)
            .unwrap_or(Ordering::Equal)
    });
    let mut leaves = Vec::with_capacity(pages);
    let mut drained: Vec<Entry<T>> = std::mem::take(entries);
    let mut slice_start = 0;
    while slice_start < drained.len() {
        let slice_end = (slice_start + slice_size).min(drained.len());
        let slice = &mut drained[slice_start..slice_end];
        slice.sort_by(|a, b| {
            a.point
                .lat
                .partial_cmp(&b.point.lat)
                .unwrap_or(Ordering::Equal)
        });
        slice_start = slice_end;
    }
    let mut iter = drained.into_iter().peekable();
    while iter.peek().is_some() {
        let chunk: Vec<Entry<T>> = iter.by_ref().take(max).collect();
        let mbr = Rect::of_points(chunk.iter().map(|e| e.point));
        leaves.push(Node::Leaf {
            mbr,
            entries: chunk,
        });
    }
    leaves
}

fn str_pack_internal<T>(mut nodes: Vec<Node<T>>, max: usize) -> Vec<Node<T>> {
    let n = nodes.len();
    let pages = n.div_ceil(max);
    let slices = (pages as f64).sqrt().ceil() as usize;
    let slice_size = n.div_ceil(slices);
    let center_lon = |n: &Node<T>| n.mbr().center().map(|c| c.lon).unwrap_or(0.0);
    let center_lat = |n: &Node<T>| n.mbr().center().map(|c| c.lat).unwrap_or(0.0);
    nodes.sort_by(|a, b| {
        center_lon(a)
            .partial_cmp(&center_lon(b))
            .unwrap_or(Ordering::Equal)
    });
    let mut slice_start = 0;
    while slice_start < nodes.len() {
        let slice_end = (slice_start + slice_size).min(nodes.len());
        nodes[slice_start..slice_end].sort_by(|a, b| {
            center_lat(a)
                .partial_cmp(&center_lat(b))
                .unwrap_or(Ordering::Equal)
        });
        slice_start = slice_end;
    }
    let mut out = Vec::with_capacity(pages);
    let mut iter = nodes.into_iter().peekable();
    while iter.peek().is_some() {
        let children: Vec<Node<T>> = iter.by_ref().take(max).collect();
        let mut mbr = Rect::empty();
        for c in &children {
            mbr = mbr.union(&c.mbr());
        }
        out.push(Node::Internal { mbr, children });
    }
    out
}

/// [`Rect::intersects`] without the emptiness checks: an empty rect has
/// infinite inverted bounds and fails these four comparisons anyway.
#[inline]
fn meets(rect: &Rect, mbr: &Rect) -> bool {
    rect.min_lat <= mbr.max_lat
        && mbr.min_lat <= rect.max_lat
        && rect.min_lon <= mbr.max_lon
        && mbr.min_lon <= rect.max_lon
}

/// The one descent behind the range queries: `on_leaf` sees, in tree
/// order, each leaf under `nodes` whose MBR meets `rect`. A node's MBR is
/// compared *before* anything is called for it — a miss costs four
/// comparisons (`tested` counts the nodes compared).
fn descend<'a, T>(
    nodes: &'a [Node<T>],
    rect: &Rect,
    tested: &mut u64,
    on_leaf: &mut impl FnMut(&'a Rect, &'a [Entry<T>]),
) {
    *tested += nodes.len() as u64;
    for node in nodes.iter().filter(|n| meets(rect, &n.mbr())) {
        match node {
            Node::Leaf { mbr, entries } => on_leaf(mbr, entries),
            Node::Internal { children, .. } => descend(children, rect, tested, on_leaf),
        }
    }
}

/// `haversine_m(center, p) <= radius_m` for one center and many `p`,
/// answered by filter-and-refine: identical verdicts, but the
/// trigonometry runs only for candidates on the disc's very edge.
///
/// With `x = Δlat/2`, `y = Δlon/2` (radians, formed exactly as
/// [`haversine_m`] forms them) the Haversine term is
/// `h = sin²x + cos lat₁ · cos lat₂ · sin²y`, and `d ≤ r ⇔ h ≤ h*` with
/// `h* = sin²(r/2R)`. Per candidate, `t² − t⁴/3 ≤ sin²t ≤ t²` and
/// `|cos lat₂ − cos lat₁| ≤ |Δlat|` bracket `h` from four
/// multiplications; a candidate whose bracket clears `h*` by the
/// [`RadiusTest::SHELL`] margin is decided there, the rest go to
/// `haversine_m` itself. The margin (1e-9 relative) is six orders above
/// the rounding of either evaluation, so a bracket that clears it cannot
/// disagree with the reference; inside it the reference *is* the answer.
///
/// **Whole leaves.** The accept bracket `x² + cos lat₁ · (cos lat₁ +
/// |Δlat|) · y²` is sums and products of non-negative terms, so as
/// evaluated — round-to-nearest is monotone — it cannot shrink when
/// |Δlat| or |Δlon| grows. Taken at the farthest corner of a leaf MBR
/// inside the bounding rect it bounds the bracket of every entry of the
/// leaf: if the corner passes, each entry would have passed on its own,
/// and the leaf is accepted whole with no verdict changed. With the
/// brackets off (`accept_below = −∞`) no corner passes.
struct RadiusTest {
    center: GeoPoint,
    radius_m: f64,
    /// The window candidates come from: [`radius_bounding_rect`].
    rect: Rect,
    lat1: f64,
    lon1: f64,
    cos_lat1: f64,
    /// `h` bracket entirely at or below this: inside.
    accept_below: f64,
    /// `h` bracket entirely at or above this: outside.
    reject_above: f64,
}

impl RadiusTest {
    /// Relative half-width of the undecided shell around `h*`.
    const SHELL: f64 = 1e-9;

    fn new(center: GeoPoint, radius_m: f64) -> Self {
        let lat1 = center.lat.to_radians();
        let cos_lat1 = lat1.cos();
        let h_star = (radius_m / (2.0 * EARTH_RADIUS_M)).sin().powi(2);
        // The brackets are tight, and free of cancellation, only while
        // every candidate the bounding rect lets through keeps
        // |Δlat| ≤ cos lat₁ / 2 and |y| ≤ ¼: a centre within two radii of
        // a pole, or a continental radius, leaves every candidate to the
        // reference, as does a radius below GPS resolution (`h*` too
        // close to the denormals for a relative margin to mean much).
        let bracketed = radius_m >= 1e-3 && cos_lat1 * EARTH_RADIUS_M >= 2.02 * radius_m;
        let (accept_below, reject_above) = if bracketed {
            (h_star * (1.0 - Self::SHELL), h_star * (1.0 + Self::SHELL))
        } else {
            (f64::NEG_INFINITY, f64::INFINITY)
        };
        Self {
            center,
            radius_m,
            rect: radius_bounding_rect(center, radius_m),
            lat1,
            lon1: center.lon.to_radians(),
            cos_lat1,
            accept_below,
            reject_above,
        }
    }

    /// The window across the antimeridian, when `rect` leaves
    /// [−180, 180] (on one side at most: it is under 360° wide): `rect`
    /// moved by ∓360°. Brackets off — Δlon there spans the globe — so
    /// its candidates all go to `haversine_m` from the true centre.
    fn wrapped(&self) -> Option<Self> {
        let shift = if self.rect.max_lon > 180.0 {
            -360.0
        } else if self.rect.min_lon < -180.0 {
            360.0
        } else {
            return None;
        };
        let (min_lon, max_lon) = (self.rect.min_lon + shift, self.rect.max_lon + shift);
        Some(Self {
            rect: Rect {
                min_lon,
                max_lon,
                ..self.rect
            },
            accept_below: f64::NEG_INFINITY,
            reject_above: f64::INFINITY,
            ..*self
        })
    }

    /// The accept bracket of a candidate `dlat`, `dlon` radians away.
    #[inline]
    fn accepts(&self, dlat: f64, dlon: f64) -> bool {
        let a = (dlat / 2.0) * (dlat / 2.0);
        let b = (dlon / 2.0) * (dlon / 2.0);
        a + self.cos_lat1 * (self.cos_lat1 + dlat.abs()) * b <= self.accept_below
    }

    /// Whether all of `mbr` is inside (see *Whole leaves*).
    #[inline]
    fn contains_leaf(&self, mbr: &Rect) -> bool {
        let far =
            |lo: f64, hi: f64, c: f64| (lo.to_radians() - c).abs().max((hi.to_radians() - c).abs());
        let dlat = far(mbr.min_lat, mbr.max_lat, self.lat1);
        self.rect.contains_rect(mbr) && self.accepts(dlat, far(mbr.min_lon, mbr.max_lon, self.lon1))
    }

    /// Whether `p` is in the window and within the radius (the brackets
    /// assume the window's limits on Δlat and Δlon).
    #[inline]
    fn contains(&self, p: GeoPoint) -> bool {
        if !self.rect.contains_point(p) {
            return false;
        }
        let dlat = p.lat.to_radians() - self.lat1;
        let dlon = p.lon.to_radians() - self.lon1;
        if self.accepts(dlat, dlon) {
            return true;
        }
        let a = (dlat / 2.0) * (dlat / 2.0);
        let b = (dlon / 2.0) * (dlon / 2.0);
        let h_low =
            (a - a * a / 3.0) + self.cos_lat1 * (self.cos_lat1 - dlat.abs()) * (b - b * b / 3.0);
        h_low < self.reject_above && haversine_m(self.center, p) <= self.radius_m
    }
}

/// What a [`RadiusCursor`] hands its visitor.
#[derive(Debug, Clone, Copy)]
pub enum Hit<'a, T> {
    /// One entry inside the disc.
    Entry(&'a Entry<T>),
    /// A leaf wholly inside the disc, all of its entries at once.
    Leaf {
        /// The leaf's index in the cursor's leaf list: dense, and the
        /// same leaf's until [`RadiusCursor::for_each`] next returns `true`.
        slot: usize,
        /// The leaf's entries, in tree order.
        entries: &'a [Entry<T>],
    },
}

impl<'a, T> Hit<'a, T> {
    /// The hit's entries, in the order the plain query visits them.
    pub fn entries(&self) -> &'a [Entry<T>] {
        match *self {
            Hit::Entry(e) => from_ref(e),
            Hit::Leaf { entries, .. } => entries,
        }
    }
}

/// The work of a [`RadiusCursor`] in counts, for tests to pin.
/// `nodes_tested`: MBR comparisons, anchoring descents included;
/// `block_hits`: the part of `hits` that came as [`Hit::Leaf`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct CursorStats {
    pub queries: u64,
    pub reanchors: u64,
    pub nodes_tested: u64,
    pub entries_tested: u64,
    pub hits: u64,
    pub block_hits: u64,
}

/// Radius queries around a stream of centres ([`RTree::radius_cursor`]).
///
/// The first query *anchors* the cursor: one descent collects the leaves
/// meeting the bounding rect of twice the radius. A later query whose
/// own bounding rect lies inside that cover is answered from the cached
/// leaves — one MBR comparison each, no descent; any other re-anchors
/// first. The hits, blocks flattened, are
/// [`RTree::for_each_within_radius_m`]'s in the same order for *every*
/// stream; a stream that jumps more than a radius per query just pays a
/// descent over four times the area each time, so unrelated centres
/// belong to the plain query. The cover stops at ±180°; a disc crossing
/// it is not cached, runs the plain query and yields [`Hit::Entry`]s.
pub struct RadiusCursor<'a, T> {
    tree: &'a RTree<T>,
    radius_m: f64,
    /// What `leaves` is complete for; empty while there is no anchor.
    cover: Rect,
    leaves: Vec<(Rect, &'a [Entry<T>])>,
    stats: CursorStats,
}

impl<'a, T> RadiusCursor<'a, T> {
    /// Cover radius over query radius: a query may move one radius along
    /// each axis before the cursor re-anchors.
    const COVER: f64 = 2.0;

    /// Hands `visit` the neighbourhood of `center`; returns whether the
    /// cursor re-anchored, which voids every `slot` handed out before.
    pub fn for_each(&mut self, center: GeoPoint, mut visit: impl FnMut(Hit<'a, T>)) -> bool {
        let (tree, stats) = (self.tree, &mut self.stats);
        stats.queries += 1;
        let disc = RadiusTest::new(center, self.radius_m);
        let reanchor = !self.cover.contains_rect(&disc.rect);
        if reanchor {
            stats.reanchors += 1;
            self.leaves.clear();
            self.cover = radius_bounding_rect(center, Self::COVER * self.radius_m);
            self.cover.min_lon = self.cover.min_lon.max(-180.0);
            self.cover.max_lon = self.cover.max_lon.min(180.0);
            if !self.cover.contains_rect(&disc.rect) {
                self.cover = Rect::empty();
                tree.for_each_within_radius_m(center, self.radius_m, |e| {
                    stats.hits += 1;
                    visit(Hit::Entry(e));
                });
                return true;
            }
            let mut collect = |mbr: &Rect, entries| self.leaves.push((*mbr, entries));
            let root = from_ref(&tree.root);
            descend(root, &self.cover, &mut stats.nodes_tested, &mut collect);
        }
        stats.nodes_tested += self.leaves.len() as u64;
        for (slot, (mbr, entries)) in self.leaves.iter().enumerate() {
            if !meets(&disc.rect, mbr) {
                continue;
            }
            if disc.contains_leaf(mbr) {
                stats.block_hits += entries.len() as u64;
                stats.hits += entries.len() as u64;
                visit(Hit::Leaf { slot, entries });
            } else {
                stats.entries_tested += entries.len() as u64;
                for e in entries.iter().filter(|e| disc.contains(e.point)) {
                    stats.hits += 1;
                    visit(Hit::Entry(e));
                }
            }
        }
        reanchor
    }

    /// Counts of the work done so far.
    #[doc(hidden)]
    pub fn stats(&self) -> CursorStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(side: usize) -> Vec<(GeoPoint, usize)> {
        let mut v = Vec::new();
        for i in 0..side {
            for j in 0..side {
                v.push((
                    GeoPoint::new(40.0 + i as f64 * 0.001, 116.0 + j as f64 * 0.001),
                    i * side + j,
                ));
            }
        }
        v
    }

    #[test]
    fn empty_tree() {
        let t: RTree<usize> = RTree::new();
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert!(t.query_rect(&Rect::new(0.0, 0.0, 1.0, 1.0)).is_empty());
        assert!(t.nearest_k(GeoPoint::new(0.0, 0.0), 3).is_empty());
        assert!(t.within_radius_m(GeoPoint::new(0.0, 0.0), 100.0).is_empty());
        assert!(t.check_invariants().is_none());
    }

    #[test]
    fn insert_and_count() {
        let mut t = RTree::with_max_entries(4);
        for (p, i) in grid_points(10) {
            t.insert(p, i);
            assert!(t.check_invariants().is_none(), "after insert {i}");
        }
        assert_eq!(t.len(), 100);
        assert!(t.height() > 1);
        assert_eq!(t.iter().count(), 100);
    }

    #[test]
    fn query_rect_matches_brute_force() {
        let pts = grid_points(20);
        let mut t = RTree::with_max_entries(8);
        for (p, i) in pts.clone() {
            t.insert(p, i);
        }
        let rect = Rect::new(40.003, 116.002, 40.0105, 116.011);
        let mut got: Vec<usize> = t.query_rect(&rect).iter().map(|e| e.payload).collect();
        got.sort_unstable();
        let mut want: Vec<usize> = pts
            .iter()
            .filter(|(p, _)| rect.contains_point(*p))
            .map(|&(_, i)| i)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(!got.is_empty());
    }

    #[test]
    fn bulk_load_matches_insert_queries() {
        let pts = grid_points(17);
        let bulk = RTree::bulk_load_with_max_entries(pts.clone(), 8);
        assert_eq!(bulk.len(), pts.len());
        assert!(
            bulk.check_invariants().is_none(),
            "{:?}",
            bulk.check_invariants()
        );
        let mut incr = RTree::with_max_entries(8);
        for (p, i) in pts {
            incr.insert(p, i);
        }
        let rect = Rect::new(40.002, 116.004, 40.009, 116.012);
        let mut a: Vec<usize> = bulk.query_rect(&rect).iter().map(|e| e.payload).collect();
        let mut b: Vec<usize> = incr.query_rect(&rect).iter().map(|e| e.payload).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn within_radius_exact() {
        let pts = grid_points(15);
        let t = RTree::bulk_load(pts.clone());
        let center = GeoPoint::new(40.007, 116.007);
        let r = 250.0;
        let mut got: Vec<usize> = t
            .within_radius_m(center, r)
            .iter()
            .map(|e| e.payload)
            .collect();
        got.sort_unstable();
        let mut want: Vec<usize> = pts
            .iter()
            .filter(|(p, _)| haversine_m(center, *p) <= r)
            .map(|&(_, i)| i)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(!got.is_empty());
    }

    #[test]
    fn nearest_k_ordering_and_content() {
        let pts = grid_points(12);
        let t = RTree::bulk_load(pts.clone());
        let center = GeoPoint::new(40.0051, 116.0052);
        let k = 7;
        let got = t.nearest_k(center, k);
        assert_eq!(got.len(), k);
        // Nearest-first ordering in degree space.
        let d2 = |p: GeoPoint| {
            let (a, b) = (p.lat - center.lat, p.lon - center.lon);
            a * a + b * b
        };
        for w in got.windows(2) {
            assert!(d2(w[0].point) <= d2(w[1].point) + 1e-15);
        }
        // Same set as brute force.
        let mut brute: Vec<(f64, usize)> = pts.iter().map(|&(p, i)| (d2(p), i)).collect();
        brute.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let want: std::collections::BTreeSet<usize> = brute[..k].iter().map(|&(_, i)| i).collect();
        let got_set: std::collections::BTreeSet<usize> = got.iter().map(|e| e.payload).collect();
        assert_eq!(got_set, want);
    }

    #[test]
    fn nearest_k_with_k_larger_than_len() {
        let t = RTree::bulk_load(grid_points(2));
        assert_eq!(t.nearest_k(GeoPoint::new(40.0, 116.0), 100).len(), 4);
    }

    #[test]
    fn merge_preserves_all_entries() {
        let a = RTree::bulk_load(grid_points(6));
        let mut b_pts = grid_points(4);
        for (p, i) in &mut b_pts {
            p.lat += 1.0; // disjoint region
            *i += 1_000;
        }
        let b = RTree::bulk_load(b_pts);
        let merged = RTree::merge(vec![a, b]);
        assert_eq!(merged.len(), 36 + 16);
        assert!(merged.check_invariants().is_none());
        let far = merged.query_rect(&Rect::new(40.9, 115.9, 41.1, 116.1));
        assert_eq!(far.len(), 16);
    }

    #[test]
    fn merge_of_nothing_is_empty() {
        let t: RTree<usize> = RTree::merge(vec![]);
        assert!(t.is_empty());
    }

    /// Payloads within `r` metres of `c`, sorted.
    fn radius_ids(t: &RTree<usize>, c: GeoPoint, r: f64) -> Vec<usize> {
        let mut ids: Vec<usize> = t.within_radius_m(c, r).iter().map(|e| e.payload).collect();
        ids.sort_unstable();
        ids
    }

    /// `grid_points(side)` cut into `parts` runs of consecutive rows'
    /// worth of points, unequal in size (part `i` holds `i + 1` shares).
    fn uneven_parts(side: usize, parts: usize) -> Vec<Vec<(GeoPoint, usize)>> {
        let pts = grid_points(side);
        let shares = parts * (parts + 1) / 2;
        let mut out = Vec::new();
        let mut start = 0;
        for i in 0..parts {
            let end = if i + 1 == parts {
                pts.len()
            } else {
                start + pts.len() * (i + 1) / shares
            };
            out.push(pts[start..end].to_vec());
            start = end;
        }
        out
    }

    #[test]
    fn merge_pads_trees_of_unequal_height_under_one_root() {
        // 4 entries per node: 1, 2 and 3+ levels among the partitions.
        let parts = uneven_parts(24, 6);
        let trees: Vec<RTree<usize>> = parts
            .iter()
            .map(|p| RTree::bulk_load_with_max_entries(p.clone(), 4))
            .collect();
        let mut heights: Vec<usize> = trees.iter().map(RTree::height).collect();
        heights.dedup();
        assert!(heights.len() > 1, "partitions all of height {heights:?}");
        let tallest = trees.iter().map(RTree::height).max().unwrap();
        let merged = RTree::merge(trees);
        assert_eq!(merged.len(), 24 * 24);
        assert_eq!(merged.max_entries(), 4);
        assert!(merged.height() > tallest);
        assert_eq!(merged.check_invariants(), None);
        assert_eq!(merged.iter().count(), 24 * 24);

        let whole = RTree::bulk_load_with_max_entries(grid_points(24), 4);
        for (c, r) in [
            (GeoPoint::new(40.0115, 116.0115), 0.0),
            (GeoPoint::new(40.0115, 116.0115), 180.0),
            (GeoPoint::new(40.0, 116.0), 700.0),
            (GeoPoint::new(40.02, 116.01), 5_000.0),
        ] {
            assert_eq!(
                radius_ids(&merged, c, r),
                radius_ids(&whole, c, r),
                "r = {r}"
            );
        }
        // The merged tree is an ordinary R-tree: it still takes inserts.
        let mut grown = merged;
        grown.insert(GeoPoint::new(40.5, 116.5), 9_999);
        assert_eq!(grown.check_invariants(), None);
        assert_eq!(
            radius_ids(&grown, GeoPoint::new(40.5, 116.5), 1.0),
            vec![9_999]
        );
    }

    #[test]
    fn merge_packs_more_trees_than_a_node_holds() {
        // p = 23 partitions, 4 per node: the roots need two more levels.
        let parts = uneven_parts(20, 23);
        let trees: Vec<RTree<usize>> = parts
            .iter()
            .map(|p| RTree::bulk_load_with_max_entries(p.clone(), 4))
            .collect();
        let merged = RTree::merge(trees);
        assert_eq!(merged.len(), 400);
        assert_eq!(merged.check_invariants(), None);
        let whole = RTree::bulk_load(grid_points(20));
        let c = GeoPoint::new(40.0095, 116.0095);
        assert_eq!(radius_ids(&merged, c, 400.0), radius_ids(&whole, c, 400.0));
        assert!(!radius_ids(&merged, c, 400.0).is_empty());
    }

    #[test]
    fn merge_drops_empty_trees_and_keeps_the_widest_node_capacity() {
        let empty = || RTree::<usize>::with_max_entries(32);
        let all_empty = RTree::merge(vec![empty(), empty()]);
        assert!(all_empty.is_empty());
        assert_eq!(all_empty.max_entries(), 32);
        assert_eq!(all_empty.check_invariants(), None);

        let only = RTree::bulk_load_with_max_entries(grid_points(5), 4);
        let (len, height) = (only.len(), only.height());
        let merged = RTree::merge(vec![empty(), only, empty()]);
        assert_eq!((merged.len(), merged.height()), (len, height));
        assert_eq!(merged.max_entries(), 32);
        assert_eq!(merged.check_invariants(), None);
    }

    #[test]
    fn duplicate_points_are_kept() {
        let p = GeoPoint::new(40.0, 116.0);
        let mut t = RTree::with_max_entries(4);
        for i in 0..10 {
            t.insert(p, i);
        }
        assert_eq!(t.len(), 10);
        assert_eq!(t.within_radius_m(p, 1.0).len(), 10);
        assert!(t.check_invariants().is_none());
    }

    /// The query as it ran before the descent was pre-tested: into
    /// every child, `Rect::intersects` on arrival, each entry on its own
    /// against the reference distance.
    fn per_entry_scan(node: &Node<usize>, rect: &Rect, c: GeoPoint, r: f64, out: &mut Vec<usize>) {
        match node {
            Node::Leaf { mbr, entries } if rect.intersects(mbr) => out.extend(
                entries
                    .iter()
                    .filter(|e| rect.contains_point(e.point) && haversine_m(c, e.point) <= r)
                    .map(|e| e.payload),
            ),
            Node::Internal { mbr, children } if rect.intersects(mbr) => {
                for child in children {
                    per_entry_scan(child, rect, c, r, out);
                }
            }
            _ => {}
        }
    }

    /// `n` stationary traces in time order: a walker wobbles a few metres
    /// a step inside an 80 m dwell spot and moves to another of 48 spots
    /// (300 m apart) every 120 steps.
    fn dwell_stream(n: usize) -> Vec<(GeoPoint, usize)> {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let (mut spot, mut east, mut north) = (0, 0.0f64, 0.0f64);
        (0..n)
            .map(|i| {
                if i % 120 == 0 {
                    spot = (unit() * 48.0) as usize;
                }
                east = (east + (unit() - 0.5) * 8.0).clamp(-40.0, 40.0);
                north = (north + (unit() - 0.5) * 8.0).clamp(-40.0, 40.0);
                let p = GeoPoint::new(
                    39.9 + ((spot / 8) as f64 * 300.0 + north) * 8.993e-6,
                    116.4 + ((spot % 8) as f64 * 300.0 + east) * 1.172e-5,
                );
                (p, i)
            })
            .collect()
    }

    #[test]
    fn plain_query_and_cursor_visit_what_the_per_entry_scan_visited_in_its_order() {
        let stream = dwell_stream(2_000);
        let parts: Vec<RTree<usize>> = stream
            .chunks(330)
            .map(|part| RTree::bulk_load_with_max_entries(part.to_vec(), 6))
            .collect();
        let trees = [
            RTree::bulk_load(stream.clone()),
            RTree::merge(parts),
            RTree::bulk_load_with_max_entries(grid_points(15), 5),
        ];
        for (tree, r) in trees
            .iter()
            .flat_map(|t| [0.0, 7.5, 60.0, 400.0].map(|r| (t, r)))
        {
            let mut cursor = tree.radius_cursor(r);
            let mut blocks = 0;
            for &(c, _) in stream.iter().step_by(3) {
                let mut want = Vec::new();
                per_entry_scan(&tree.root, &radius_bounding_rect(c, r), c, r, &mut want);
                let mut plain = Vec::new();
                tree.for_each_within_radius_m(c, r, |e| plain.push(e.payload));
                assert_eq!(plain, want, "plain query, r = {r} at {c:?}");
                let mut flat = Vec::new();
                cursor.for_each(c, |hit| {
                    blocks += usize::from(matches!(hit, Hit::Leaf { .. }));
                    flat.extend(hit.entries().iter().map(|e| e.payload));
                });
                assert_eq!(flat, want, "cursor, r = {r} at {c:?}");
            }
            assert_eq!(blocks == 0, r == 0.0 || tree.len() == 225, "r = {r}");
        }
    }

    #[test]
    fn cursor_does_less_work_than_the_plain_query_on_a_dwell_stream() {
        let stream = dwell_stream(6_000);
        let tree = RTree::bulk_load(stream.clone());
        let mut cursor = tree.radius_cursor(60.0);
        let mut plain_nodes = 0;
        for &(c, _) in &stream {
            cursor.for_each(c, |_| {});
            let rect = radius_bounding_rect(c, 60.0);
            descend(
                from_ref(&tree.root),
                &rect,
                &mut plain_nodes,
                &mut |_, _| {},
            );
        }
        let s = cursor.stats();
        assert_eq!(s.queries, 6_000);
        // Counts, not times: they repeat exactly on every host. Per query
        // the plain descent compares 101 MBRs, the cursor 19 (anchoring
        // descents included); 78 % of the hits arrive in blocks.
        let pinned = CursorStats {
            queries: 6_000,
            reanchors: 47,
            nodes_tested: 114_627,
            entries_tested: 755_648,
            hits: 1_251_906,
            block_hits: 979_488,
        };
        assert_eq!((plain_nodes, s), (607_936, pinned));
        assert!(2 * s.nodes_tested < plain_nodes, "{s:?} vs {plain_nodes}");
        assert!(2 * s.block_hits >= s.hits, "{s:?}");
        assert!(10 * s.reanchors <= s.queries, "{s:?}");
        assert!(s.entries_tested + s.block_hits >= s.hits);
    }

    #[test]
    fn a_disc_across_the_antimeridian_is_whole() {
        let east = GeoPoint::new(0.0, 179.9999);
        let west = GeoPoint::new(0.0, -179.9999); // 22 m from `east`
        let north = GeoPoint::new(55.0, -175.0);
        let pts = [east, west, north, GeoPoint::new(0.0, 0.0)];
        let tree = RTree::bulk_load(pts.iter().copied().zip(0..).collect());
        let aleutians = GeoPoint::new(60.0, 170.0); // r: rect crosses; 2r: every longitude
        let near_pole = GeoPoint::new(89.9999, 10.0); // half the globe wide: every longitude, once
        for (c, r, want) in [
            (east, 60.0, vec![0, 1]),
            (west, 60.0, vec![0, 1]),
            (west, 0.01, vec![1]),
            (east, 5.0e6, vec![0, 1]),
            (aleutians, 5.1e6, vec![2]),
            (near_pole, 1.1e7, vec![0, 1, 2, 3]),
        ] {
            let naive: Vec<usize> = (0..4).filter(|&i| haversine_m(c, pts[i]) <= r).collect();
            assert_eq!(naive, want, "fixture, r = {r} at {c:?}");
            assert_eq!(radius_ids(&tree, c, r), want, "r = {r} at {c:?}");
            let (mut cursor, mut got) = (tree.radius_cursor(r), Vec::new());
            for _ in 0..2 {
                got.clear();
                cursor.for_each(c, |hit| got.extend(hit.entries().iter().map(|e| e.payload)));
                got.sort_unstable();
                assert_eq!(got, want, "cursor, r = {r} at {c:?}");
            }
        }
    }

    #[test]
    fn radius_bounding_rect_contains_disc() {
        let c = GeoPoint::new(48.85, 2.35); // Paris: strong lon scaling
        let r = 5_000.0;
        let rect = radius_bounding_rect(c, r);
        // Sample the disc border; every border point must be in the rect.
        for i in 0..360 {
            let theta = (i as f64).to_radians();
            let dlat = r / 111_194.93 * theta.sin();
            let dlon = r / (111_194.93 * c.lat.to_radians().cos()) * theta.cos();
            let p = GeoPoint::new(c.lat + dlat, c.lon + dlon);
            if haversine_m(c, p) <= r {
                assert!(rect.contains_point(p), "angle {i}");
            }
        }
    }
}
