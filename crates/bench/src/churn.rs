//! `repro churn` — live updates under query load.
//!
//! Interleaves a sustained insert/delete stream with chart queries over
//! MVCC epoch snapshots and *gates* on two properties the PR 6 design
//! promises:
//!
//! 1. **Unbiasedness under churn** — each tick pins the current epoch,
//!    runs Audit Join walks on the pinned snapshot, and compares the
//!    estimates against ground truth recomputed for *that epoch* (an
//!    exact engine over a from-scratch rebuild of the epoch's live
//!    triple set). The estimator must stay within an MAE tolerance on
//!    every epoch, not just the final one.
//! 2. **No lost or duplicated triples** — an oracle triple set is
//!    maintained alongside the manager; after every append the pinned
//!    snapshot's live SPO rows must equal the oracle exactly, and the
//!    final (background-merged, delta-free) main must too.
//!
//! Each tick also runs the supervisor with
//! [`SupervisorConfig::ingest_pressure`] wired to
//! [`EpochManager::under_pressure`], reporting which rung served — the
//! shed policy in action.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use kgoa_core::{
    run_walks, supervise, AuditJoin, AuditJoinConfig, EpochConfig, EpochManager,
    OnlineAggregator, SupervisedResult, SupervisorConfig,
};
use kgoa_datagen::{generate, KgConfig};
use kgoa_engine::{mean_absolute_error, CountEngine, CtjEngine, ExecBudget};
use kgoa_explore::{Expansion, Session};
use kgoa_index::{IndexOrder, IndexedGraph, UpdateBatch};
use kgoa_rdf::{Graph, Triple};

use crate::workload::BenchConfig;

/// Walks per tick: enough for the MAE gate to be stable at every scale.
const WALKS_PER_TICK: u64 = 8_000;

/// MAE gate per epoch (the quiet-graph experiments sit well under this;
/// churn adds no estimator error, only fresher truths).
const MAE_GATE: f64 = 0.25;

/// Rebuild a delta-free graph from a sorted live triple set.
fn rebuild(ig: &IndexedGraph, live: &BTreeSet<Triple>) -> IndexedGraph {
    IndexedGraph::build(Graph::from_sorted_parts(
        ig.dict().clone(),
        live.iter().copied().collect(),
        ig.vocab(),
    ))
}

/// `repro churn`: returns the report and whether every gate passed.
pub fn churn_bench(cfg: &BenchConfig) -> (String, bool) {
    let mut report = String::new();
    writeln!(report, "## Churn — estimates over a mutating graph (MVCC epochs)\n").unwrap();

    // Dataset plus a pre-interned churn vocabulary (epoch appends never
    // grow the dictionary).
    let graph = generate(&KgConfig::dbpedia_like(cfg.scale));
    let mut dict = graph.dict().clone();
    let vocab = graph.vocab();
    let original = graph.triples().to_vec();
    let class = dict
        .lookup_iri("http://kgoa.dev/class/C0")
        .expect("generated graphs always have class C0");
    let churn: Vec<Triple> = (0..64)
        .map(|i| {
            let e = dict.intern_iri(format!("http://kgoa.dev/churn/e{i}"));
            Triple::new(e, vocab.rdf_type, class)
        })
        .collect();
    let victims: Vec<Triple> =
        original.iter().filter(|t| t.p == vocab.rdf_type).take(6).copied().collect();
    let mut oracle: BTreeSet<Triple> = original.iter().copied().collect();
    let graph = Graph::from_sorted_parts(dict, original, vocab);
    let ig = IndexedGraph::build(graph);

    let mgr = EpochManager::new(
        ig,
        EpochConfig { merge_threshold: 48, shed_threshold: 64, ..EpochConfig::default() },
    );
    let query = {
        let mut s = Session::root_pinned(&mgr);
        s.expansion_query(Expansion::OutProperty).unwrap()
    };
    let budget = ExecBudget::unlimited();

    writeln!(
        report,
        "{:>5} {:>7} {:>6} {:>7} {:>9} {:>8} {:>10} {:>6}",
        "tick", "epoch", "live", "delta", "aj MAE", "walks", "rung", "ok"
    )
    .unwrap();

    let ticks = cfg.ticks.max(4);
    let mut all_ok = true;
    let mut worst_mae = 0.0f64;
    for tick in 0..ticks {
        // The update stream: even ticks add the churn set and delete some
        // originals, odd ticks reverse both — the live set oscillates and
        // the background merge fires repeatedly.
        let batch = if tick.is_multiple_of(2) {
            UpdateBatch { insert: churn.clone(), delete: victims.clone() }
        } else {
            UpdateBatch { insert: victims.clone(), delete: churn.clone() }
        };
        for t in &batch.insert {
            oracle.insert(*t);
        }
        for t in &batch.delete {
            oracle.remove(t);
        }
        mgr.append(&batch, &budget).unwrap();

        // Pin the epoch the queries will see; the stream (and merges)
        // continue against newer epochs. Odd ticks drain the background
        // merge first so the run exercises both pinned shapes: a fresh
        // delta overlay (even ticks) and a merged delta-free main.
        if tick % 2 == 1 {
            mgr.wait_merged();
        }
        let guard = mgr.pin();
        let consistent =
            guard.require(IndexOrder::Spo).to_rows_live().len() == oracle.len()
                && oracle
                    .iter()
                    .all(|t| guard.contains(*t));

        // Per-epoch ground truth: exact engine over a rebuilt graph.
        let truth_ig = rebuild(&guard, &oracle);
        let truth = CtjEngine.evaluate(&truth_ig, &query).unwrap();
        // Overlay exactness: the pinned snapshot answers identically.
        let overlay_exact = CtjEngine.evaluate(&guard, &query).unwrap();
        let exact_ok = overlay_exact == truth;

        // Unbiasedness: Audit Join walks on the pinned snapshot.
        let config = AuditJoinConfig {
            seed: cfg.seed ^ (tick as u64),
            ..AuditJoinConfig::default()
        };
        let mut aj = AuditJoin::new(&guard, &query, config).unwrap();
        run_walks(&mut aj, WALKS_PER_TICK);
        let mae = mean_absolute_error(&truth, &aj.estimates());
        worst_mae = worst_mae.max(mae);

        // The shed policy: supervise with the pressure flag wired up. The
        // manager's live flag is the production wiring but races with the
        // background merge; the pinned snapshot's own delta keeps the
        // report deterministic.
        let sup = SupervisorConfig {
            ingest_pressure: mgr.under_pressure() || guard.delta_rows() >= 64,
            ..SupervisorConfig::default()
        };
        let rung = match supervise(&guard, &query, &sup) {
            Ok(SupervisedResult::Exact { .. }) => "exact",
            Ok(SupervisedResult::Degraded { provenance, .. }) => provenance.estimator,
            Err(_) => "error",
        };

        let ok = consistent && exact_ok && mae < MAE_GATE;
        all_ok &= ok;
        writeln!(
            report,
            "{:>5} {:>7} {:>6} {:>7} {:>9} {:>8} {:>10} {:>6}",
            tick,
            guard.snapshot().epoch(),
            guard.live_len(),
            guard.delta_rows(),
            crate::metrics::fmt_pct(mae),
            aj.stats().walks,
            rung,
            if ok { "yes" } else { "NO" },
        )
        .unwrap();
    }

    // Drain the background merge and verify the final delta-free main.
    mgr.wait_merged();
    let final_guard = mgr.pin();
    let final_ok = !final_guard.has_delta()
        && final_guard.live_len() == oracle.len()
        && oracle.iter().all(|t| final_guard.contains(*t))
        && CtjEngine.evaluate(&final_guard, &query).unwrap()
            == CtjEngine.evaluate(&rebuild(&final_guard, &oracle), &query).unwrap();
    all_ok &= final_ok;

    writeln!(
        report,
        "\nfinal: epoch {}, {} live triples, delta-free {} — worst MAE {} (gate {})",
        final_guard.snapshot().epoch(),
        final_guard.live_len(),
        if final_ok { "yes" } else { "NO" },
        crate::metrics::fmt_pct(worst_mae),
        crate::metrics::fmt_pct(MAE_GATE),
    )
    .unwrap();
    writeln!(
        report,
        "{}",
        if all_ok {
            "churn gate PASSED: every epoch served consistent exact answers and unbiased \
             estimates"
        } else {
            "churn gate FAILED"
        }
    )
    .unwrap();
    (report, all_ok)
}
