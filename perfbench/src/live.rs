//! Reads under live updates: lgd-like behind an `EpochManager`, one
//! open-loop writer thread and one closed-loop explorer.
//!
//! The writer appends a batch every [`PERIOD`]: it deletes a fresh slice
//! of [`SLICE`] existing instance triples (the class hierarchy is left
//! alone) and re-inserts the slice it deleted
//! [`WINDOW`] batches earlier, so the dictionary never grows and at most
//! `SLICE * WINDOW` (4,096) triples are missing at a time. Re-inserting
//! a triple that is still tombstoned only cancels the tombstone, so the
//! window is what lets the delta reach the default merge threshold
//! (4,096 rows): after the first merge each batch adds `2 * SLICE` delta
//! rows and a background merge starts about every 32 batches. Each
//! append is timed from when it was due, so a stalled writer shows as
//! latency.
//!
//! The explorer takes turns (see [`crate::take_turns`]) between scripted
//! chart sessions, pinning a new epoch per session with
//! `Session::root_pinned`, with the supervisor's ingest pressure read from
//! `EpochManager::under_pressure` before each session, and online queries
//! on the static copies, which compete with the writer and the merges for
//! the cores.

use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kgoa_core::{EpochManager, SupervisorConfig};
use kgoa_engine::{CountEngine, ExecBudget, YannakakisEngine};
use kgoa_explore::{Chart, GovernedChart, Session};
use kgoa_index::{IndexOrder, IndexedGraph, UpdateBatch};
use kgoa_rdf::{Graph, Triple};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::charts::{ChartRun, Explorer};
use crate::data::Dataset;
use crate::online::OnlineRun;
use crate::scripts::{Scripts, Step};
use crate::trace::Tracer;

/// Triples deleted (and later re-inserted) per batch.
pub const SLICE: usize = 64;
/// Batches a deleted slice stays deleted.
pub const WINDOW: usize = 64;
/// Writer schedule: one batch per period (20 batches/s).
pub const PERIOD: Duration = Duration::from_millis(50);
/// Exact charts kept for the after-run check (spread over the run).
const CHECK_EVERY: usize = 211;

/// What the writer measured.
#[derive(Default)]
pub struct WriterRun {
    /// Append latency from when each batch was due, in ms.
    pub due_ms: Vec<f64>,
    /// Largest delay between a batch's due time and its start, in ms.
    pub lag_ms_max: f64,
    /// Appends the manager rejected.
    pub rejected: u64,
    /// Epochs published by merges (epoch ids skipped between appends).
    pub merges: u64,
    /// Largest delta overlay seen after an append.
    pub delta_rows_max: usize,
    /// `(epoch, batch)` for every accepted append, in order.
    pub log: Vec<(u64, UpdateBatch)>,
}

/// What a live run measured.
pub struct LiveRun {
    /// The explorer's charts.
    pub charts: ChartRun,
    /// The explorer's online queries.
    pub online: OnlineRun,
    /// The writer's appends.
    pub writer: WriterRun,
}

struct LiveExplorer<'a> {
    mgr: &'a Arc<EpochManager>,
    charts_seen: usize,
    kept: Vec<(Step, Chart, u64)>,
}

impl Explorer for LiveExplorer<'_> {
    fn open(&mut self, _dataset: usize) -> Session<'_> {
        Session::root_pinned(self.mgr)
    }

    fn config(&mut self) -> SupervisorConfig {
        SupervisorConfig {
            ingest_pressure: self.mgr.under_pressure(),
            ..SupervisorConfig::default()
        }
    }

    fn check(
        &mut self,
        step: &Step,
        chart: &GovernedChart,
        epoch: Option<u64>,
    ) -> Result<(), String> {
        self.charts_seen += 1;
        if chart.is_exact() && self.charts_seen % CHECK_EVERY == 1 {
            let epoch = epoch.expect("live sessions are pinned");
            self.kept.push((*step, chart.chart.clone(), epoch));
        }
        Ok(())
    }
}

/// Run the writer and the explorer for `seconds`, then check the kept
/// exact charts against Yannakakis over a from-scratch rebuild of their
/// epoch's triple set, and the final merged main against the writer's
/// oracle. With no `sessions` the writer runs alone.
#[allow(clippy::too_many_arguments)]
pub fn run(
    mgr: &Arc<EpochManager>,
    base: &IndexedGraph,
    copies: &[Vec<Dataset>],
    scripts: &Scripts,
    sessions: &[usize],
    queries: &[usize],
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    next_id: &mut u64,
) -> LiveRun {
    let stop = AtomicBool::new(false);
    let mut writer_tr = Tracer::new(tr.on(), tr.origin());
    let (charts, online, writer) = std::thread::scope(|s| {
        let writer = s.spawn(|| write_loop(mgr, base, seed, &stop, &mut writer_tr));
        let mut explorer = LiveExplorer {
            mgr,
            charts_seen: 0,
            kept: Vec::new(),
        };
        let (mut charts, online) = if sessions.is_empty() {
            std::thread::sleep(Duration::from_secs_f64(seconds));
            Default::default()
        } else {
            crate::take_turns(
                &mut explorer,
                copies,
                scripts,
                sessions,
                queries,
                seconds,
                tr,
                next_id,
            )
        };
        stop.store(true, Ordering::SeqCst);
        let writer = writer.join().expect("writer thread panicked");
        charts
            .mismatches
            .extend(check_kept(base, &writer.log, scripts, &explorer.kept));
        (charts, online, writer)
    });
    tr.absorb(writer_tr);
    let mut charts = charts;
    charts
        .mismatches
        .extend(check_final(mgr, base, &writer.log));
    LiveRun {
        charts,
        online,
        writer,
    }
}

fn write_loop(
    mgr: &Arc<EpochManager>,
    base: &IndexedGraph,
    seed: u64,
    stop: &AtomicBool,
    tr: &mut Tracer,
) -> WriterRun {
    // Instance data only: a slice of class-hierarchy triples would cut a
    // whole subtree out of every root chart, so a few seeds would measure
    // a much smaller graph than the rest.
    let vocab = base.vocab();
    let triples: Vec<Triple> = base
        .graph()
        .triples()
        .iter()
        .filter(|t| t.p != vocab.subclass_of && t.p != vocab.subclass_of_trans)
        .copied()
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0057_0A7E);
    let mut out = WriterRun::default();
    let budget = ExecBudget::unlimited();
    // Start offsets of the deleted slices, oldest first.
    let mut missing: VecDeque<usize> = VecDeque::with_capacity(WINDOW + 1);
    let mut last_epoch = mgr.epoch();
    let start = Instant::now();
    for k in 0u32.. {
        let due = start + PERIOD * k;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        // A fresh slice that overlaps no slice currently deleted.
        let at = loop {
            let at = rng.gen_range(0..triples.len() - SLICE);
            if missing.iter().all(|&m| at + SLICE <= m || m + SLICE <= at) {
                break at;
            }
        };
        let back = if missing.len() == WINDOW {
            missing.pop_front()
        } else {
            None
        };
        let batch = UpdateBatch {
            insert: back.map_or_else(Vec::new, |m| triples[m..m + SLICE].to_vec()),
            delete: triples[at..at + SLICE].to_vec(),
        };
        missing.push_back(at);
        let began = Instant::now();
        let id = u64::from(k);
        let result = tr.time("core.epoch.append", id, || mgr.append(&batch, &budget));
        let ended = Instant::now();
        out.lag_ms_max = out
            .lag_ms_max
            .max(began.saturating_duration_since(due).as_secs_f64() * 1e3);
        out.due_ms
            .push(ended.saturating_duration_since(due).as_secs_f64() * 1e3);
        match result {
            Ok(epoch) => {
                out.merges += epoch.saturating_sub(last_epoch + 1);
                last_epoch = epoch;
                out.delta_rows_max = out.delta_rows_max.max(mgr.delta_rows());
                out.log.push((epoch, batch));
            }
            Err(_) => out.rejected += 1,
        }
    }
    out
}

/// The live triple set after every logged batch with epoch `<= epoch`.
fn triples_at(base: &IndexedGraph, log: &[(u64, UpdateBatch)], epoch: u64) -> BTreeSet<Triple> {
    let mut live: BTreeSet<Triple> = base.graph().triples().iter().copied().collect();
    for (_, batch) in log.iter().take_while(|(e, _)| *e <= epoch) {
        for t in &batch.delete {
            live.remove(t);
        }
        live.extend(batch.insert.iter().copied());
    }
    live
}

fn rebuild(base: &IndexedGraph, live: &BTreeSet<Triple>) -> IndexedGraph {
    IndexedGraph::build(Graph::from_sorted_parts(
        base.dict().clone(),
        live.iter().copied().collect(),
        base.vocab(),
    ))
}

fn check_kept(
    base: &IndexedGraph,
    log: &[(u64, UpdateBatch)],
    scripts: &Scripts,
    kept: &[(Step, Chart, u64)],
) -> Vec<String> {
    let mut out = Vec::new();
    for (step, chart, epoch) in kept {
        let truth_ig = rebuild(base, &triples_at(base, log, *epoch));
        let query = &scripts.queries[step.query].query;
        let truth = YannakakisEngine
            .evaluate(&truth_ig, query)
            .expect("ground truth");
        if Chart::from_counts(step.expansion.produces(), &truth) != *chart {
            out.push(format!(
                "live exact chart at epoch {epoch} differs from a rebuild of that epoch"
            ));
        }
    }
    out
}

/// Merge whatever delta is left, then compare the main's triples with
/// the writer's oracle: nothing lost, nothing duplicated.
fn check_final(
    mgr: &Arc<EpochManager>,
    base: &IndexedGraph,
    log: &[(u64, UpdateBatch)],
) -> Vec<String> {
    let oracle = triples_at(base, log, u64::MAX);
    let guard = loop {
        mgr.wait_merged();
        mgr.merge_now();
        let guard = mgr.pin();
        if !guard.has_delta() && !mgr.is_merging() {
            break guard;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let rows = guard.require(IndexOrder::Spo).to_rows_live();
    let mut main: Vec<Triple> = rows
        .into_iter()
        .map(|r| IndexOrder::Spo.unpermute(r))
        .collect();
    main.sort_unstable();
    let expect: Vec<Triple> = oracle.into_iter().collect();
    if main != expect {
        vec![format!(
            "final merged main holds {} triples, the writer's oracle {}",
            main.len(),
            expect.len()
        )]
    } else {
        Vec::new()
    }
}
