//! Layer probes for the traced run: direct, repeated calls into the
//! index, engine and epoch layers on the set-up datasets. Each probe
//! reports a median over repetitions.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use kgoa_core::{EpochConfig, EpochManager};
use kgoa_engine::{CountEngine, CtjEngine, ExecBudget};
use kgoa_index::{
    pack2, IndexOrder, IndexedGraph, Layout, LiveRange, TrieCursor, TrieIndex, UpdateBatch,
};
use kgoa_rdf::Triple;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::data::Dataset;
use crate::scripts::Scripts;
use crate::stats::{median, quantile};

/// Repetitions per probe.
const REPS: usize = 5;
/// Probes per sorted seek sweep and per batch-seek batch.
const SWEEP: usize = 4096;
const BATCH: usize = 256;
/// Delta rows in the overlay and merge probes: the default merge
/// threshold.
pub const DELTA_ROWS: usize = 4096;

/// One sorted batch of `seek2_batch` probes.
type Probes = Vec<(u64, u32)>;

/// One named probe result.
pub type Metric = (String, f64, &'static str);

/// Fisher–Yates shuffle: lookups in random order, as walks issue them.
fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

fn reps(mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..REPS).map(|_| f()).collect::<Vec<_>>())
}

/// `TrieIndex::build_with_layout` per order on `ds`, in ms.
pub fn build(ds: &Dataset) -> Vec<Metric> {
    let triples = ds.ig.graph().triples();
    IndexOrder::PAPER_DEFAULT
        .iter()
        .map(|&order| {
            let ms = reps(|| {
                let t = Instant::now();
                black_box(TrieIndex::build_with_layout(
                    order,
                    triples,
                    Layout::default(),
                ));
                t.elapsed().as_secs_f64() * 1e3
            });
            (format!("index.build_ms.{order}"), ms, "ms")
        })
        .collect()
}

/// `range1` / `range2` over every distinct 1- and 2-key prefix of each
/// order, in shuffled order, ns per lookup.
pub fn ranges(ds: &Dataset, seed: u64) -> Vec<Metric> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for order in IndexOrder::PAPER_DEFAULT {
        let idx = ds.ig.require(order);
        let rows = idx.to_rows();
        let mut p1: Vec<u32> = rows.iter().map(|r| r[0]).collect();
        p1.dedup();
        let mut p2: Vec<(u32, u32)> = rows.iter().map(|r| (r[0], r[1])).collect();
        p2.dedup();
        shuffle(&mut p1, &mut rng);
        shuffle(&mut p2, &mut rng);
        let ns1 = reps(|| {
            let t = Instant::now();
            for &a in &p1 {
                black_box(idx.range1(a));
            }
            t.elapsed().as_nanos() as f64 / p1.len() as f64
        });
        let ns2 = reps(|| {
            let t = Instant::now();
            for &(a, b) in &p2 {
                black_box(idx.range2(a, b));
            }
            t.elapsed().as_nanos() as f64 / p2.len() as f64
        });
        out.push((format!("index.range1_ns.{order}.{}", ds.name), ns1, "ns"));
        out.push((format!("index.range2_ns.{order}.{}", ds.name), ns2, "ns"));
    }
    out
}

/// Sorted random level-0 probe keys for `idx`: hits and misses alike.
fn sweep_keys(idx: &TrieIndex, rng: &mut SmallRng) -> Vec<u32> {
    let max = idx.iter_l0().map(|(k, _)| k).max().unwrap_or(0);
    let mut keys: Vec<u32> = (0..SWEEP).map(|_| rng.gen_range(0..=max)).collect();
    keys.sort_unstable();
    keys
}

/// ns per `TrieCursor::seek` in sorted level-0 sweeps over every order of
/// every graph in `graphs`.
pub fn seek(graphs: &[&IndexedGraph], seed: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let sweeps: Vec<(&TrieIndex, Vec<u32>)> = graphs
        .iter()
        .flat_map(|g| IndexOrder::PAPER_DEFAULT.map(|o| g.require(o)))
        .map(|idx| (idx, sweep_keys(idx, &mut rng)))
        .collect();
    reps(|| {
        let mut n = 0usize;
        let t = Instant::now();
        for (idx, keys) in &sweeps {
            let mut cur = TrieCursor::over_index(idx);
            cur.open();
            for &k in keys {
                if cur.at_end() {
                    break;
                }
                black_box(cur.seek(k));
                n += 1;
            }
        }
        t.elapsed().as_nanos() as f64 / n as f64
    })
}

/// ns per probe of `seek2_batch` in key-sorted batches of 256 existing
/// 2-key prefixes, over every order of both datasets.
pub fn seek2_batch(datasets: &[Dataset], seed: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let batches: Vec<(&TrieIndex, Vec<Probes>)> = datasets
        .iter()
        .flat_map(|d| IndexOrder::PAPER_DEFAULT.map(|o| d.ig.require(o)))
        .map(|idx| {
            let rows = idx.to_rows();
            let batches = (0..16)
                .map(|_| {
                    let mut probes: Vec<(u64, u32)> = (0..BATCH as u32)
                        .map(|slot| {
                            let r = rows[rng.gen_range(0..rows.len())];
                            (pack2(r[0], r[1]), slot)
                        })
                        .collect();
                    probes.sort_unstable();
                    probes
                })
                .collect();
            (idx, batches)
        })
        .collect();
    let mut out = vec![LiveRange::EMPTY; BATCH];
    reps(|| {
        let mut n = 0usize;
        let t = Instant::now();
        for (idx, bs) in &batches {
            for probes in bs {
                idx.seek2_batch(probes, &mut out);
                black_box(&out);
                n += probes.len();
            }
        }
        t.elapsed().as_nanos() as f64 / n as f64
    })
}

/// A delta of [`DELTA_ROWS`] rows on `ig`: half deletes of a random
/// slice of existing triples, half inserts of new triples recombined
/// from existing term ids (so the dictionary does not grow).
pub fn delta(ig: &IndexedGraph, seed: u64) -> UpdateBatch {
    let mut rng = SmallRng::seed_from_u64(seed);
    let triples = ig.graph().triples();
    let half = DELTA_ROWS / 2;
    let at = rng.gen_range(0..triples.len() - half);
    let delete = triples[at..at + half].to_vec();
    let mut insert = Vec::with_capacity(half);
    while insert.len() < half {
        let pick = |rng: &mut SmallRng| triples[rng.gen_range(0..triples.len())];
        let t = Triple::new(pick(&mut rng).s, pick(&mut rng).p, pick(&mut rng).o);
        if !ig.contains(t) && !insert.contains(&t) {
            insert.push(t);
        }
    }
    UpdateBatch { insert, delete }
}

/// The seek sweep on an overlay snapshot carrying `batch`: ns per seek
/// and the overlay's delta rows.
pub fn overlay_seek(ig: &IndexedGraph, batch: &UpdateBatch, seed: u64) -> (f64, f64) {
    let live = ig.with_overlay(&batch.insert, &batch.delete);
    (seek(&[&live], seed), live.delta_rows() as f64)
}

/// Synchronous `merge_now` of `batch` into `ig`, in ms (fresh manager per
/// repetition; background merges are kept off by the thresholds).
pub fn merge(ig: &IndexedGraph, batch: &UpdateBatch) -> f64 {
    let config = EpochConfig {
        merge_threshold: usize::MAX,
        shed_threshold: usize::MAX,
        ..EpochConfig::default()
    };
    reps(|| {
        let mgr: Arc<EpochManager> = EpochManager::new(ig.clone(), config);
        mgr.append(batch, &ExecBudget::unlimited())
            .expect("unlimited budget");
        let t = Instant::now();
        mgr.merge_now();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(!mgr.pin().has_delta(), "merge_now leaves no delta");
        ms
    })
}

/// `CtjEngine::evaluate` over every distinct query once, in ms: (p50,
/// p99, queries whose counts differ from the Yannakakis ground truth).
pub fn ctj(datasets: &[Dataset], scripts: &Scripts) -> (f64, f64, usize) {
    let mut wrong = 0;
    let ms: Vec<f64> = scripts
        .queries
        .iter()
        .map(|q| {
            let t = Instant::now();
            let counts = CtjEngine.evaluate(&datasets[q.dataset].ig, &q.query);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            wrong += usize::from(counts.as_ref() != Ok(&q.truth));
            ms
        })
        .collect();
    (median(&ms), quantile(&ms, 0.99), wrong)
}
