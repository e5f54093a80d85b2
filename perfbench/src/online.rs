//! Online time-to-error: Audit Join from cold on each distinct workload
//! query, in 256-walk batches through the public batched runner, until
//! the mean absolute error against ground truth is at most 10% or a
//! per-query cap runs out; then Wander Join for a fixed walk count.
//!
//! The clock is paused while the benchmark computes the error;
//! `estimates()` — what a chart refresh costs — stays on the clock.

use std::time::{Duration, Instant};

use kgoa_core::{
    run_walks_batched, AuditJoin, AuditJoinConfig, OnlineAggregator, WalkStats, WanderJoin,
};
use kgoa_engine::{mean_absolute_error, GroupedCounts, GroupedEstimates};
use kgoa_index::{IndexOrder, IndexedGraph};
use kgoa_query::WalkPlan;

use crate::data::Dataset;
use crate::scripts::{Query, Scripts};
use crate::trace::Tracer;

/// Walks per batch: the streaming workers' batch size.
pub const BATCH: u64 = 256;
/// The error target.
pub const TARGET_MAE: f64 = 0.10;
/// Audit Join time allowed per query before it counts as a miss.
pub const CAP: Duration = Duration::from_secs(1);
/// Wander Join walks per query.
pub const WJ_WALKS: u64 = 64 * BATCH;
/// Extra cold starts per query for the first-estimate time, off the
/// clock and after the timed runs: one sub-millisecond sample per query is
/// mostly timer and cache noise, so the reported time is the median of
/// these and the run's own first estimate.
const FIRST_REPS: usize = 4;

/// One query's measurements.
#[derive(Debug, Clone)]
pub struct QuerySample {
    /// Index of the query in [`Scripts::queries`].
    pub query: usize,
    /// Dataset index.
    pub dataset: usize,
    /// Generator step of the query.
    pub step: usize,
    /// Time on the clock for the whole query (both estimators), in ms.
    pub clock_ms: f64,
    /// Time to target in ms; +∞ when the cap ran out first.
    pub ttt_ms: f64,
    /// Plan + `AuditJoin` construction + first batch + `estimates()`, in
    /// ms: the median over the run and [`FIRST_REPS`] extra cold starts
    /// with the same seed.
    pub first_ms: f64,
    /// Audit Join walk counters at the end of the run.
    pub aj: WalkStats,
    /// Time spent in the batched runner for Audit Join, in s.
    pub aj_runner_s: f64,
    /// Wander Join walk counters.
    pub wj: WalkStats,
    /// Time spent in the batched runner for Wander Join, in s.
    pub wj_runner_s: f64,
}

impl QuerySample {
    /// Audit Join completed no full walk: every walk was rejected or
    /// tipped into an exact suffix count.
    pub fn degenerate(&self) -> bool {
        self.aj.full == 0
    }
}

/// What one online pass measured.
#[derive(Default)]
pub struct OnlineRun {
    /// Per-query samples, in run order.
    pub samples: Vec<QuerySample>,
    /// Estimates naming a bar the exact chart does not have.
    pub mismatches: Vec<String>,
}

impl OnlineRun {
    /// Append another pass's measurements to this one.
    pub fn absorb(&mut self, other: OnlineRun) {
        self.samples.extend(other.samples);
        self.mismatches.extend(other.mismatches);
    }
}

/// Run query `qi` of `scripts` once, with its id taken from `next_id`.
/// It reads `copies[id % copies.len()]`. A query's estimator seeds depend
/// only on the query, so every repetition of it, in this run or another,
/// draws the same walks: the time-to-target spread between repetitions is
/// the machine's, not the estimators'.
pub fn run(
    copies: &[Vec<Dataset>],
    scripts: &Scripts,
    qi: usize,
    tr: &mut Tracer,
    next_id: &mut u64,
) -> OnlineRun {
    let mut out = OnlineRun::default();
    let q = &scripts.queries[qi];
    let id = *next_id;
    *next_id += 1;
    let ig = &copies[id as usize % copies.len()][q.dataset].ig;
    let sample = one_query(ig, q, qi, mix(qi as u64, 0), tr, id, &mut out.mismatches);
    out.samples.push(sample);
    out
}

fn one_query(
    ig: &IndexedGraph,
    q: &Query,
    qi: usize,
    seed: u64,
    tr: &mut Tracer,
    id: u64,
    mismatches: &mut Vec<String>,
) -> QuerySample {
    let (query, truth) = (&q.query, &q.truth);
    let mut firsts = Vec::with_capacity(FIRST_REPS + 1);
    let outer = tr.begin("online.query", id);
    let t0 = Instant::now();
    // `AuditJoin::new` is exactly the canonical plan plus `with_plan`;
    // the two calls are made separately so the planner gets its own span.
    let plan = tr
        .time("query.plan", id, || {
            WalkPlan::canonical(query, &IndexOrder::PAPER_DEFAULT)
        })
        .expect("generated queries are connected");
    let config = AuditJoinConfig {
        seed,
        ..AuditJoinConfig::default()
    };
    let mut aj = tr
        .time("core.aj.new", id, || {
            AuditJoin::with_plan(ig, query, plan, config)
        })
        .expect("generated queries are valid");
    let mut on_clock = t0.elapsed();
    let mut runner = Duration::ZERO;
    let mut ttt_ms = f64::INFINITY;
    let mut last = GroupedEstimates::default();
    while on_clock < CAP {
        let t = Instant::now();
        tr.time("core.aj.batch", id, || {
            run_walks_batched(&mut aj, BATCH, BATCH)
        });
        let batch = t.elapsed();
        last = tr.time("core.aj.estimates", id, || aj.estimates());
        runner += batch;
        on_clock += t.elapsed();
        let ms = on_clock.as_secs_f64() * 1e3;
        if firsts.is_empty() {
            firsts.push(ms);
        }
        if mean_absolute_error(truth, &last) <= TARGET_MAE {
            ttt_ms = ms;
            break;
        }
    }
    check_bars(truth, &last, "aj", mismatches);
    let aj_stats = aj.stats();
    drop(aj);

    let t = Instant::now();
    let mut wj =
        WanderJoin::new(ig, query, seed ^ 0x5A5A_5A5A).expect("generated queries are valid");
    let mut done = 0;
    while done < WJ_WALKS {
        tr.time("core.wj.batch", id, || {
            run_walks_batched(&mut wj, BATCH, BATCH)
        });
        done += BATCH;
    }
    let wj_runner = t.elapsed();
    let wj_est = wj.estimates();
    check_bars(truth, &wj_est, "wj", mismatches);
    tr.end(outer);
    // After the timed runs, so they do not warm the caches for them.
    firsts.extend((0..FIRST_REPS).map(|_| first_estimate(ig, q, seed)));
    QuerySample {
        query: qi,
        dataset: q.dataset,
        step: q.step,
        clock_ms: (on_clock + wj_runner).as_secs_f64() * 1e3,
        ttt_ms,
        first_ms: crate::stats::median(&firsts),
        aj: aj_stats,
        aj_runner_s: runner.as_secs_f64(),
        wj: wj.stats(),
        wj_runner_s: wj_runner.as_secs_f64(),
    }
}

/// One cold start to the first estimate, in ms.
fn first_estimate(ig: &IndexedGraph, q: &Query, seed: u64) -> f64 {
    let t = Instant::now();
    let plan = WalkPlan::canonical(&q.query, &IndexOrder::PAPER_DEFAULT).expect("connected");
    let config = AuditJoinConfig {
        seed,
        ..AuditJoinConfig::default()
    };
    let mut aj = AuditJoin::with_plan(ig, &q.query, plan, config).expect("valid");
    run_walks_batched(&mut aj, BATCH, BATCH);
    std::hint::black_box(aj.estimates());
    t.elapsed().as_secs_f64() * 1e3
}

/// A walk only completes on a real join result, so every bar an
/// estimator reports must be a bar of the exact chart.
fn check_bars(truth: &GroupedCounts, est: &GroupedEstimates, who: &str, out: &mut Vec<String>) {
    let mut bad: Vec<u32> = est
        .estimates
        .iter()
        .filter(|(g, x)| **x > 0.0 && truth.get(kgoa_rdf::TermId(**g)) == 0)
        .map(|(g, _)| *g)
        .collect();
    if !bad.is_empty() {
        bad.sort_unstable();
        out.push(format!(
            "{who} estimated bars absent from the exact chart: {bad:?}"
        ));
    }
}

/// SplitMix64 finalizer over `seed` and a counter: well-mixed derived seeds.
pub fn mix(seed: u64, n: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(n.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
