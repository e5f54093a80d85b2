//! A single-order trie index: direct-indexed entry points over either
//! row-oriented, columnar CSR or compressed storage.
//!
//! This is the paper's *hybrid hashtable/trie* structure (§V-A): "the
//! hashtable indexes point to a sorted array, allowing O(1)-time sampling
//! for WJ and O(log n)-time search for CTJ". Term ids are dense (the
//! dictionary hands out `0, 1, 2, …`), so the level-0 "hashtable" is a
//! plain array indexed by the id: [`EntryPoints`] gives any 1-value prefix
//! its contiguous row range in O(1), and a 2-value prefix by a binary
//! search inside the level-0 value's sorted window of level-1 keys (the
//! in-node search of Perego, Pibiri and Venturini's compressed tries).
//! Galloping search handles the third level. Three physical layouts sit
//! behind the same position space (see [`Layout`]): leaf positions are
//! identical in all of them, so ranges, sampling and cache keys carry
//! over unchanged.

use std::sync::Arc;

use kgoa_rdf::Triple;

use crate::columnar::ColumnarTrie;
use crate::compressed::CompressedTrie;
use crate::delta::DeltaPart;
use crate::order::IndexOrder;

/// A half-open range of row positions within a [`TrieIndex`].
///
/// Row positions are `u32` (the dictionary already caps graphs at 2^32
/// terms; 2^32 triples per index is ample for in-memory graphs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowRange {
    /// First row position.
    pub start: u32,
    /// One past the last row position.
    pub end: u32,
}

impl RowRange {
    /// The empty range.
    pub const EMPTY: RowRange = RowRange { start: 0, end: 0 };

    /// Number of rows.
    #[inline]
    pub fn len(self) -> usize {
        (self.end - self.start) as usize
    }

    /// True if no rows.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.start >= self.end
    }

    /// Convert to a `usize` range for slicing.
    #[inline]
    pub fn as_usize(self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }

    /// Uniformly sample a row position from this range in O(1) — the
    /// operation at the heart of every Wander Join / Audit Join step.
    /// Returns `None` on an empty range.
    #[inline]
    pub fn pick<R: rand::Rng + ?Sized>(self, rng: &mut R) -> Option<u32> {
        kgoa_obs::metrics::SAMPLE_DRAWS.inc();
        if self.is_empty() {
            None
        } else {
            Some(rng.gen_range(self.start..self.end))
        }
    }

    /// Map one uniform `u64` onto a row of this (non-empty) range via the
    /// same multiply-shift `gen_range` uses, so it reproduces
    /// [`RowRange::pick`] bit for bit for the same raw word. Callers handle
    /// empty ranges (and the draw metric) themselves.
    #[inline]
    pub fn pick_keyed(self, raw: u64) -> u32 {
        debug_assert!(!self.is_empty(), "pick_keyed on empty range");
        let span = (self.end - self.start) as u64;
        self.start + ((raw as u128 * span as u128) >> 64) as u32
    }
}

/// Physical storage layout of a [`TrieIndex`].
///
/// All layouts expose the same leaf position space, so an exact engine or
/// sampler produces identical results on any of them — `repro
/// layout-parity` checks exactly that, and `repro index-bench` A/Bs the
/// tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Layout {
    /// Sorted `[u32; 3]` rows; seeks compare 12-byte rows.
    Rows,
    /// Columnar CSR: per-level key arrays + child offsets (the default).
    #[default]
    Csr,
    /// Compressed tier: bit-packed key blocks with a per-block directory
    /// and frequency-ordered dense-id re-encoding; offsets stay CSR-style
    /// (see [`crate::compressed`]).
    Compressed,
}

impl Layout {
    /// Every layout, for layout-generic tests and A/B benches.
    pub const ALL: [Layout; 3] = [Layout::Rows, Layout::Csr, Layout::Compressed];

    /// Parse a CLI name ("rows" / "csr" / "compressed").
    pub fn parse(s: &str) -> Option<Layout> {
        match s {
            "rows" => Some(Layout::Rows),
            "csr" => Some(Layout::Csr),
            "compressed" => Some(Layout::Compressed),
            _ => None,
        }
    }

    /// The CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            Layout::Rows => "rows",
            Layout::Csr => "csr",
            Layout::Compressed => "compressed",
        }
    }
}

impl std::fmt::Display for Layout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The physical storage behind a [`TrieIndex`].
#[derive(Debug, Clone)]
pub(crate) enum Storage {
    /// Sorted permuted rows.
    Rows(Vec<[u32; 3]>),
    /// Columnar CSR arrays.
    Csr(ColumnarTrie),
    /// Bit-packed compressed blocks.
    Compressed(CompressedTrie),
}

/// The immutable part of a [`TrieIndex`], shared across epoch snapshots
/// via `Arc` (cloning an index is O(1) regardless of graph size).
#[derive(Debug)]
pub(crate) struct IndexCore {
    order: IndexOrder,
    len: u32,
    storage: Storage,
    entry: EntryPoints,
}

/// Layout-independent entry points of a trie: the row range of every
/// 1- and 2-value prefix, from three flat `u32` arrays and no hashing.
///
/// Level-1 nodes (distinct `(a, b)` prefixes) are numbered in row order.
/// `node_of[a]..node_of[a + 1]` is `a`'s window of level-1 nodes — empty
/// for an absent id or one past the largest level-0 id — `keys1[j]` is
/// node `j`'s level-1 key (sorted within each window), and
/// `starts[j]..starts[j + 1]` are its rows.
#[derive(Debug)]
struct EntryPoints {
    /// Level-1 node window per level-0 id; length max level-0 id + 2 (one
    /// entry for an empty trie).
    node_of: Vec<u32>,
    /// Level-1 key of each node.
    keys1: Vec<u32>,
    /// First row of each node, plus the row count as a sentinel.
    starts: Vec<u32>,
    /// Number of distinct level-0 values.
    distinct_l0: u32,
}

impl EntryPoints {
    fn from_sorted_rows(rows: &[[u32; 3]]) -> Self {
        let max_a = rows.last().map_or(0, |r| r[0] as usize + 1);
        let mut node_of = Vec::with_capacity(max_a + 1);
        let mut keys1 = Vec::new();
        let mut starts = Vec::new();
        let mut distinct_l0 = 0u32;
        let mut prev: Option<[u32; 2]> = None;
        for (i, row) in rows.iter().enumerate() {
            let prefix = [row[0], row[1]];
            if prev == Some(prefix) {
                continue;
            }
            if prev.map(|p| p[0]) != Some(row[0]) {
                // Ids below `a` not seen yet get an empty window at the
                // current node count; `a`'s window opens here.
                node_of.resize(row[0] as usize + 1, keys1.len() as u32);
                distinct_l0 += 1;
            }
            keys1.push(row[1]);
            starts.push(i as u32);
            prev = Some(prefix);
        }
        node_of.resize(max_a + 1, keys1.len() as u32);
        starts.push(rows.len() as u32);
        keys1.shrink_to_fit();
        starts.shrink_to_fit();
        EntryPoints { node_of, keys1, starts, distinct_l0 }
    }

    /// `a`'s window of level-1 node ids (empty when `a` is absent).
    #[inline]
    fn window(&self, a: u32) -> std::ops::Range<usize> {
        let a = a as usize;
        match (self.node_of.get(a), self.node_of.get(a + 1)) {
            (Some(&lo), Some(&hi)) => lo as usize..hi as usize,
            _ => 0..0,
        }
    }

    #[inline]
    fn range1(&self, a: u32) -> RowRange {
        let w = self.window(a);
        if w.is_empty() {
            RowRange::EMPTY
        } else {
            RowRange { start: self.starts[w.start], end: self.starts[w.end] }
        }
    }

    #[inline]
    fn range2(&self, a: u32, b: u32) -> RowRange {
        let w = self.window(a);
        match self.keys1[w.clone()].binary_search(&b) {
            Ok(i) => {
                let j = w.start + i;
                RowRange { start: self.starts[j], end: self.starts[j + 1] }
            }
            Err(_) => RowRange::EMPTY,
        }
    }

    #[inline]
    fn children_of(&self, a: u32) -> u32 {
        self.window(a).len() as u32
    }

    fn memory_bytes(&self) -> usize {
        (self.node_of.capacity() + self.keys1.capacity() + self.starts.capacity())
            * std::mem::size_of::<u32>()
    }
}

/// A sorted trie over all triples of a graph in one attribute order.
///
/// Internally an `Arc`-shared immutable **main** part plus an optional
/// **delta** overlay (see [`crate::delta`]): inserted rows as a small trie
/// and tombstoned main positions. Plain accessors (`len`, ranges,
/// `locate`, `to_rows`, `iter_l0`) address the main part only; the
/// `*_live` family (`live_len`, `range1_live`, `locate_live`,
/// [`crate::LiveRange`], …) sees the merged logical trie. `row`,
/// `row_from` and `triple` dispatch on the *logical* position space —
/// positions `>= len()` address delta rows.
#[derive(Debug, Clone)]
pub struct TrieIndex {
    core: Arc<IndexCore>,
    delta: Option<Arc<DeltaPart>>,
}

impl TrieIndex {
    /// Build the index for `order` over a set of triples, in the default
    /// layout.
    pub fn build(order: IndexOrder, triples: &[Triple]) -> Self {
        Self::build_with_layout(order, triples, Layout::default())
    }

    /// Build the index for `order` in an explicit [`Layout`].
    pub fn build_with_layout(order: IndexOrder, triples: &[Triple], layout: Layout) -> Self {
        let mut rows: Vec<[u32; 3]> = triples.iter().map(|t| order.permute(*t)).collect();
        rows.sort_unstable();
        // Input triples are deduplicated, and permutation is injective, so
        // rows are distinct; no dedup needed.
        Self::from_sorted_rows_in(order, rows, layout)
    }

    /// Build from rows already sorted in this order's layout (used by the
    /// incremental merge path), in the default layout.
    pub fn from_sorted_rows(order: IndexOrder, rows: Vec<[u32; 3]>) -> Self {
        Self::from_sorted_rows_in(order, rows, Layout::default())
    }

    /// Build from sorted rows in an explicit [`Layout`]. Debug-asserts
    /// sortedness.
    pub fn from_sorted_rows_in(order: IndexOrder, rows: Vec<[u32; 3]>, layout: Layout) -> Self {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows must be sorted+distinct");
        let entry = EntryPoints::from_sorted_rows(&rows);
        let len = rows.len() as u32;
        let storage = match layout {
            Layout::Csr => Storage::Csr(ColumnarTrie::from_sorted_rows(&rows)),
            Layout::Compressed => Storage::Compressed(CompressedTrie::from_sorted_rows(&rows)),
            Layout::Rows => Storage::Rows(rows),
        };
        TrieIndex { core: Arc::new(IndexCore { order, len, storage, entry }), delta: None }
    }

    /// The delta overlay, if any (crate-internal; the public live API
    /// lives in [`crate::delta`]).
    #[inline]
    pub(crate) fn delta_part(&self) -> Option<&DeltaPart> {
        self.delta.as_deref()
    }

    /// Attach a delta overlay, sharing this index's main part. Callers go
    /// through [`TrieIndex::with_delta`], which normalizes the overlay.
    pub(crate) fn attach_delta(&self, part: DeltaPart) -> TrieIndex {
        TrieIndex { core: Arc::clone(&self.core), delta: Some(Arc::new(part)) }
    }

    /// Drop the delta overlay, exposing the shared main part only.
    pub fn main_only(&self) -> TrieIndex {
        TrieIndex { core: Arc::clone(&self.core), delta: None }
    }

    /// The attribute order of this index.
    #[inline]
    pub fn order(&self) -> IndexOrder {
        self.core.order
    }

    /// The physical storage layout.
    #[inline]
    pub fn layout(&self) -> Layout {
        match self.core.storage {
            Storage::Rows(_) => Layout::Rows,
            Storage::Csr(_) => Layout::Csr,
            Storage::Compressed(_) => Layout::Compressed,
        }
    }

    /// Crate-internal storage access for cursors.
    #[inline]
    pub(crate) fn storage(&self) -> &Storage {
        &self.core.storage
    }

    /// Materialize all rows in the sorted, permuted layout (used by the
    /// incremental merge path and tests; O(n) for the CSR layout).
    pub fn to_rows(&self) -> Vec<[u32; 3]> {
        match &self.core.storage {
            Storage::Rows(rows) => rows.clone(),
            Storage::Csr(c) => (0..self.core.len).map(|pos| c.row(pos)).collect(),
            Storage::Compressed(c) => c.to_rows(),
        }
    }

    /// Total number of triples.
    #[inline]
    pub fn len(&self) -> usize {
        self.core.len as usize
    }

    /// True if the index is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.core.len == 0
    }

    /// The range of all rows.
    #[inline]
    pub fn full_range(&self) -> RowRange {
        RowRange { start: 0, end: self.core.len }
    }

    /// O(1): the range of rows whose first attribute equals `a`.
    #[inline]
    pub fn range1(&self, a: u32) -> RowRange {
        self.core.entry.range1(a)
    }

    /// The range of rows whose first two attributes equal `(a, b)`: one
    /// O(1) window read plus a binary search over `a`'s level-1 keys.
    #[inline]
    pub fn range2(&self, a: u32, b: u32) -> RowRange {
        self.core.entry.range2(a, b)
    }

    /// Range lookup for a prefix of 0, 1 or 2 values.
    pub fn range_prefix(&self, prefix: &[u32]) -> RowRange {
        match prefix.len() {
            0 => self.full_range(),
            1 => self.range1(prefix[0]),
            2 => self.range2(prefix[0], prefix[1]),
            n => panic!("prefix length {n} out of range (0..=2)"),
        }
    }

    /// Position of the row `(a, b, c)` (in this order's layout), if
    /// present: the [`TrieIndex::range2`] entry point + binary search over
    /// the contiguous level-2 key slice.
    pub fn locate(&self, a: u32, b: u32, c: u32) -> Option<u32> {
        let r = self.range2(a, b);
        match &self.core.storage {
            Storage::Csr(t) => {
                Some(r.start + t.l2_slice(r).binary_search(&c).ok()? as u32)
            }
            Storage::Compressed(t) => t.l2_search(r, c),
            Storage::Rows(rows) => Some(
                r.start + rows[r.as_usize()].binary_search_by_key(&c, |row| row[2]).ok()? as u32,
            ),
        }
    }

    /// True if the *live* row `(a, b, c)` (in this order's layout)
    /// exists: a tombstoned main row does not count, a delta insert does.
    /// Identical to a plain main lookup when there is no overlay.
    #[inline]
    pub fn contains_row(&self, a: u32, b: u32, c: u32) -> bool {
        self.locate_live(a, b, c).is_some()
    }

    /// The row at a given *logical* position: positions below `len()`
    /// address main rows, positions at or above it address delta inserts.
    #[inline]
    pub fn row(&self, pos: u32) -> [u32; 3] {
        if pos < self.core.len {
            match &self.core.storage {
                Storage::Rows(rows) => rows[pos as usize],
                Storage::Csr(t) => t.row(pos),
                Storage::Compressed(t) => t.row(pos),
            }
        } else {
            let d = self.delta.as_deref().expect("position beyond main without a delta");
            d.adds.row(pos - self.core.len)
        }
    }

    /// The row at `pos`, with only the attributes at levels `>= from`
    /// guaranteed valid (earlier slots may be zero). The hot extraction
    /// path: a caller that resolved a 2-value prefix needs one `u32` load
    /// on the CSR layout instead of a 12-byte row.
    #[inline]
    pub fn row_from(&self, pos: u32, from: usize) -> [u32; 3] {
        if pos < self.core.len {
            match &self.core.storage {
                Storage::Rows(rows) => rows[pos as usize],
                Storage::Csr(t) => t.row_from(pos, from),
                Storage::Compressed(t) => t.row_from(pos, from),
            }
        } else {
            let d = self.delta.as_deref().expect("position beyond main without a delta");
            d.adds.row_from(pos - self.core.len, from)
        }
    }

    /// The row at a given position, decoded back into a [`Triple`].
    #[inline]
    pub fn triple(&self, pos: u32) -> Triple {
        self.core.order.unpermute(self.row(pos))
    }

    /// Number of distinct level-0 values.
    #[inline]
    pub fn distinct_l0(&self) -> usize {
        self.core.entry.distinct_l0 as usize
    }

    /// Number of distinct level-1 values under level-0 value `a` (e.g.
    /// for PSO: distinct subjects per predicate), in O(1). Used by the
    /// PostgreSQL-style join-size estimates that drive the tipping point.
    #[inline]
    pub fn children_of(&self, a: u32) -> u32 {
        self.core.entry.children_of(a)
    }

    /// Iterate over all distinct level-0 values with their ranges, in
    /// sorted order of the value.
    pub fn iter_l0(&self) -> impl Iterator<Item = (u32, RowRange)> + '_ {
        let mut node = 0u32;
        let mut row_pos = 0u32;
        std::iter::from_fn(move || match &self.core.storage {
            Storage::Csr(t) => {
                if node as usize >= t.l0_len() {
                    return None;
                }
                let item = (t.key0(node), t.l0_leaf_range(node));
                node += 1;
                Some(item)
            }
            Storage::Compressed(t) => {
                if node as usize >= t.l0_len() {
                    return None;
                }
                let item = (t.key0(node), t.l0_leaf_range(node));
                node += 1;
                Some(item)
            }
            Storage::Rows(rows) => {
                if row_pos >= self.core.len {
                    return None;
                }
                let a = rows[row_pos as usize][0];
                let range = self.range1(a);
                row_pos = range.end;
                Some((a, range))
            }
        })
    }

    /// Physical storage bytes of the main part only — the layout-specific
    /// arrays, excluding the (layout-independent) entry-point arrays and
    /// any delta overlay. The basis for the bytes/triple comparison in
    /// `repro index-bench`.
    pub fn storage_bytes(&self) -> usize {
        match &self.core.storage {
            Storage::Rows(rows) => rows.len() * std::mem::size_of::<[u32; 3]>(),
            Storage::Csr(t) => t.memory_bytes(),
            Storage::Compressed(t) => t.storage_bytes(),
        }
    }

    /// Heap memory used by this index, in bytes: storage, entry-point
    /// arrays and delta overlay.
    pub fn memory_bytes(&self) -> usize {
        let storage = match &self.core.storage {
            Storage::Rows(rows) => rows.len() * std::mem::size_of::<[u32; 3]>(),
            Storage::Csr(t) => t.memory_bytes(),
            Storage::Compressed(t) => t.memory_bytes(),
        };
        let delta = self.delta.as_deref().map_or(0, |d| {
            d.adds.memory_bytes() + d.tomb.capacity() * std::mem::size_of::<u32>()
        });
        storage + delta + self.core.entry.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::from([s, p, o])
    }

    fn sample_triples() -> Vec<Triple> {
        vec![t(1, 10, 100), t(1, 10, 101), t(1, 11, 100), t(2, 10, 100), t(3, 12, 103)]
    }

    #[test]
    fn build_sorts_rows() {
        for layout in Layout::ALL {
            let idx = TrieIndex::build_with_layout(IndexOrder::Pos, &sample_triples(), layout);
            assert!(idx.to_rows().windows(2).all(|w| w[0] < w[1]), "layout {layout}");
            assert_eq!(idx.len(), 5);
            assert_eq!(idx.layout(), layout);
        }
    }

    #[test]
    fn layouts_materialize_identical_rows() {
        for order in IndexOrder::ALL {
            let a = TrieIndex::build_with_layout(order, &sample_triples(), Layout::Rows);
            let b = TrieIndex::build_with_layout(order, &sample_triples(), Layout::Csr);
            assert_eq!(a.to_rows(), b.to_rows(), "order {order}");
            for pos in 0..a.len() as u32 {
                assert_eq!(a.row(pos), b.row(pos), "order {order} pos {pos}");
            }
        }
    }

    #[test]
    fn range1_and_range2() {
        for layout in Layout::ALL {
            let idx = TrieIndex::build_with_layout(IndexOrder::Spo, &sample_triples(), layout);
            assert_eq!(idx.range1(1).len(), 3);
            assert_eq!(idx.range1(2).len(), 1);
            assert_eq!(idx.range1(99).len(), 0);
            assert_eq!(idx.range2(1, 10).len(), 2);
            assert_eq!(idx.range2(1, 11).len(), 1);
            assert_eq!(idx.range2(1, 99).len(), 0);
        }
    }

    #[test]
    fn range_prefix_dispatch() {
        let idx = TrieIndex::build(IndexOrder::Pso, &sample_triples());
        assert_eq!(idx.range_prefix(&[]).len(), 5);
        assert_eq!(idx.range_prefix(&[10]).len(), 3); // predicate 10
        assert_eq!(idx.range_prefix(&[10, 1]).len(), 2); // p=10, s=1
    }

    #[test]
    fn contains_row_checks_third_level() {
        for layout in Layout::ALL {
            let idx = TrieIndex::build_with_layout(IndexOrder::Spo, &sample_triples(), layout);
            assert!(idx.contains_row(1, 10, 101), "layout {layout}");
            assert!(!idx.contains_row(1, 10, 102), "layout {layout}");
            assert!(!idx.contains_row(9, 9, 9), "layout {layout}");
        }
    }

    #[test]
    fn contains_row_agrees_with_naive_scan() {
        // Regression for the satellite fix: `contains` must agree with a
        // naive scan over every probe in a dense id cube, on both layouts.
        let triples = sample_triples();
        for layout in Layout::ALL {
            let idx = TrieIndex::build_with_layout(IndexOrder::Spo, &triples, layout);
            let rows = idx.to_rows();
            for a in 0..5u32 {
                for b in 9..13u32 {
                    for c in 99..106u32 {
                        let naive = rows.contains(&[a, b, c]);
                        assert_eq!(
                            idx.contains_row(a, b, c),
                            naive,
                            "layout {layout} probe ({a},{b},{c})"
                        );
                        let located = idx.locate(a, b, c);
                        assert_eq!(located.is_some(), naive);
                        if let Some(pos) = located {
                            assert_eq!(idx.row(pos), [a, b, c]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn triple_decoding_roundtrips() {
        for order in IndexOrder::ALL {
            for layout in Layout::ALL {
                let idx = TrieIndex::build_with_layout(order, &sample_triples(), layout);
                let mut decoded: Vec<Triple> =
                    (0..idx.len() as u32).map(|i| idx.triple(i)).collect();
                decoded.sort_unstable();
                let mut expected = sample_triples();
                expected.sort_unstable();
                assert_eq!(decoded, expected, "order {order} layout {layout}");
            }
        }
    }

    #[test]
    fn children_counts() {
        let idx = TrieIndex::build(IndexOrder::Pso, &sample_triples());
        assert_eq!(idx.children_of(10), 2); // p=10 has subjects {1, 2}
        assert_eq!(idx.children_of(11), 1);
        assert_eq!(idx.children_of(99), 0);
        assert_eq!(idx.distinct_l0(), 3); // predicates {10, 11, 12}
    }

    #[test]
    fn l0_iteration_in_sorted_order() {
        for layout in Layout::ALL {
            let idx = TrieIndex::build_with_layout(IndexOrder::Pso, &sample_triples(), layout);
            let keys: Vec<u32> = idx.iter_l0().map(|(k, _)| k).collect();
            assert_eq!(keys, vec![10, 11, 12], "layout {layout}");
            let total: usize = idx.iter_l0().map(|(_, r)| r.len()).sum();
            assert_eq!(total, idx.len());
        }
    }

    #[test]
    fn empty_index() {
        for layout in Layout::ALL {
            let idx = TrieIndex::build_with_layout(IndexOrder::Spo, &[], layout);
            assert!(idx.is_empty());
            assert_eq!(idx.full_range().len(), 0);
            assert_eq!(idx.distinct_l0(), 0);
            assert!(idx.iter_l0().next().is_none());
        }
    }

    #[test]
    fn layout_names_roundtrip() {
        for layout in Layout::ALL {
            assert_eq!(Layout::parse(layout.name()), Some(layout));
        }
        assert_eq!(Layout::parse("btree"), None);
        assert_eq!(Layout::default(), Layout::Csr);
    }

    #[test]
    fn row_range_helpers() {
        let r = RowRange { start: 3, end: 7 };
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
        assert_eq!(r.as_usize(), 3..7);
        assert!(RowRange::EMPTY.is_empty());
    }
}
