//! # kgoa-index
//!
//! Hybrid hashtable/trie indexes for the `kgoa` workspace.
//!
//! The paper's engines (§V-A) share one physical design: each of four
//! attribute orders (SPO, OPS, PSO, POS) stores the graph's triples in a
//! sorted array, with hash tables mapping 1- and 2-attribute prefixes to
//! contiguous ranges. Here the "hash table" is an array indexed directly
//! by the dense level-0 term id, with a search of the id's sorted level-1
//! keys for 2-attribute prefixes. That side gives **O(1) uniform
//! sampling** for Wander Join / Audit Join random walks; the sorted side
//! gives **O(log n) seeks** for the worst-case-optimal trie joins (LFTJ /
//! CTJ).
//!
//! Provided here:
//! - [`TrieIndex`] — one order's sorted trie + direct-indexed entry points,
//!   behind a runtime [`Layout`] (row-oriented, columnar CSR, or
//!   compressed),
//! - [`ColumnarTrie`] — the CSR per-level key/offset arrays,
//! - [`CompressedTrie`] — bit-packed key blocks with a per-block directory
//!   and frequency-ordered dense-id re-encoding,
//! - [`TrieCursor`] — the LFTJ `TrieIterator` interface over any prefix
//!   range, with galloping seeks on either layout,
//! - [`IndexedGraph`] — a graph with all its indexes and statistics,
//! - [`GraphStats`] — PostgreSQL-style cardinalities for the tipping point,
//! - [`FxHashMap`]/[`FxHasher`] — the fast integer hasher used throughout.

#![warn(missing_docs)]

pub mod batch;
pub mod columnar;
pub mod compressed;
pub mod delta;
pub mod hash;
pub mod indexed;
pub mod order;
pub mod stats;
pub mod store;
pub mod trie_iter;
pub mod update;

pub use columnar::{ColumnarTrie, SeekOutcome};
pub use compressed::{CompressedTrie, KEYS_PER_BLOCK};
pub use delta::{LivePositions, LiveRange};
pub use hash::{pack2, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use indexed::IndexedGraph;
pub use order::IndexOrder;
pub use stats::{GraphStats, PredicateStats};
pub use store::{Layout, RowRange, TrieIndex};
pub use trie_iter::TrieCursor;
pub use update::{apply_batch, UpdateBatch};
