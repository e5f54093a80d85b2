//! Integration suite for the batch contract of the walk runner
//! (DESIGN.md §4j).
//!
//! Four properties, end to end over real graphs:
//!
//! 1. **Batch size is invisible**: `run_walks_batched` at any batch size
//!    draws the same walks as `run_walks` — same estimates, same
//!    half-widths, same walk and per-step counters, and the same RNG
//!    stream position afterwards — on all three index layouts and with
//!    and without distinct semantics.
//! 2. **The walk cap is charged per call**: governed calls admit exactly
//!    the cap, the call that crosses it is admitted in part, and the
//!    admitted walks are the ones `run_walks` would have drawn.
//! 3. **Estimates stay unbiased**: on seeded fuzz graphs the estimators
//!    converge to the exact answer.
//! 4. **Adaptive tipping converges** within the static threshold's error
//!    envelope while actually moving the threshold machinery end to end.

use kgoa::engine::mean_absolute_error;
use kgoa::index::Layout;
use kgoa::online::{run_walks, run_walks_batched, Tipping};
use kgoa::prelude::*;
use kgoa::query::TriplePattern;

/// Deterministic xorshift so fuzz graphs are reproducible without an RNG
/// dependency in the test crate.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// A seeded three-hop fuzz graph: `s -p-> m -q-> o -r-> c` with random
/// fan-outs, plus dead ends so rejection paths are exercised. Fully
/// deterministic in `seed`, so calling it twice yields identical graphs
/// (the layout tests rely on this to build each physical layout).
fn fuzz_graph(seed: u64) -> (Graph, ExplorationQuery) {
    let mut b = GraphBuilder::new();
    let p = b.dict_mut().intern_iri("u:p");
    let q = b.dict_mut().intern_iri("u:q");
    let r = b.dict_mut().intern_iri("u:r");
    let mut st = seed | 1;
    let mids: Vec<TermId> =
        (0..24).map(|i| b.dict_mut().intern_iri(format!("u:m{i}"))).collect();
    let objs: Vec<TermId> =
        (0..16).map(|i| b.dict_mut().intern_iri(format!("u:o{i}"))).collect();
    let cls: Vec<TermId> =
        (0..4).map(|i| b.dict_mut().intern_iri(format!("u:c{i}"))).collect();
    for i in 0..32 {
        let s = b.dict_mut().intern_iri(format!("u:s{i}"));
        for _ in 0..(1 + xorshift(&mut st) % 4) {
            let m = mids[(xorshift(&mut st) % mids.len() as u64) as usize];
            b.add(Triple::new(s, p, m));
        }
    }
    for (mi, &m) in mids.iter().enumerate() {
        // A quarter of the mids are dead ends: no q-edge.
        if mi % 4 == 3 {
            continue;
        }
        for _ in 0..(1 + xorshift(&mut st) % 3) {
            let o = objs[(xorshift(&mut st) % objs.len() as u64) as usize];
            b.add(Triple::new(m, q, o));
        }
    }
    for (oi, &o) in objs.iter().enumerate() {
        if oi % 3 == 2 {
            continue;
        }
        let c = cls[(xorshift(&mut st) % cls.len() as u64) as usize];
        b.add(Triple::new(o, r, c));
    }
    let query = ExplorationQuery::new(
        vec![
            TriplePattern::new(Var(0), p, Var(1)),
            TriplePattern::new(Var(1), q, Var(2)),
            TriplePattern::new(Var(2), r, Var(3)),
        ],
        Var(3),
        Var(2),
        false,
    )
    .unwrap();
    (b.build(), query)
}

/// Bit-exact fingerprint of an estimate snapshot: sorted rows of
/// `(group, estimate bits, half-width bits)`.
fn bits(est: &GroupedEstimates) -> Vec<(u32, u64, u64)> {
    let mut rows: Vec<(u32, u64, u64)> = est
        .estimates
        .iter()
        .map(|(g, x)| {
            let hw = est.half_widths.get(g).copied().unwrap_or(f64::NAN);
            (*g, x.to_bits(), hw.to_bits())
        })
        .collect();
    rows.sort_unstable();
    rows
}

/// Batch sizes the contract is checked at: one walk per call, a size
/// that does not divide the run, and the production default.
const BATCHES: [u64; 3] = [1, 7, 256];

#[test]
fn wander_join_every_batch_size_matches_run_walks() {
    // Regenerate the (deterministic) graph per layout so the runs walk
    // physically different indexes (row-oriented, CSR, compressed) over
    // identical data.
    for layout in Layout::ALL {
        let (graph, query) = fuzz_graph(0xB00B_5EED);
        let ig = IndexedGraph::build_with_layout(graph, layout);
        for distinct in [false, true] {
            let q = query.clone().with_distinct(distinct);
            let mut seq = WanderJoin::new(&ig, &q, 17).expect("wj");
            run_walks(&mut seq, 900);
            for batch in BATCHES {
                let ctx = format!("{layout:?} distinct={distinct} batch={batch}");
                let mut bat = WanderJoin::new(&ig, &q, 17).expect("wj");
                run_walks_batched(&mut bat, 900, batch);
                assert_eq!(seq.stats(), bat.stats(), "{ctx}");
                assert_eq!(
                    seq.step_stats().collect::<Vec<_>>(),
                    bat.step_stats().collect::<Vec<_>>(),
                    "{ctx}: per-step visit/reject counters"
                );
                assert_eq!(
                    bits(&seq.estimates()),
                    bits(&bat.estimates()),
                    "{ctx}: estimates + half-widths"
                );
                // Same RNG stream position afterwards: continuing both
                // runs must keep them bit-identical.
                let mut cont = WanderJoin::new(&ig, &q, 17).expect("wj");
                run_walks(&mut cont, 1_000);
                run_walks_batched(&mut bat, 100, batch);
                assert_eq!(cont.stats(), bat.stats(), "{ctx}: continued");
                assert_eq!(
                    bits(&cont.estimates()),
                    bits(&bat.estimates()),
                    "{ctx}: RNG stream diverged"
                );
            }
        }
    }
}

#[test]
fn audit_join_every_batch_size_matches_run_walks() {
    for layout in Layout::ALL {
        let (graph, query) = fuzz_graph(0xC0FF_EE00);
        let ig = IndexedGraph::build_with_layout(graph, layout);
        for distinct in [false, true] {
            // The adaptive controller retunes between walks, so it must
            // see the same walk boundaries at every batch size too.
            for tipping in [Tipping::Static(8.0), Tipping::Adaptive] {
                let q = query.clone().with_distinct(distinct);
                let cfg = AuditJoinConfig { tipping, seed: 23 };
                let mut seq = AuditJoin::new(&ig, &q, cfg).expect("aj");
                run_walks(&mut seq, 900);
                assert!(seq.stats().tipped > 0, "the threshold must actually tip");
                for batch in BATCHES {
                    let ctx =
                        format!("{layout:?} distinct={distinct} {tipping:?} batch={batch}");
                    let mut bat = AuditJoin::new(&ig, &q, cfg).expect("aj");
                    run_walks_batched(&mut bat, 900, batch);
                    assert_eq!(seq.stats(), bat.stats(), "{ctx}");
                    assert_eq!(
                        seq.step_stats().collect::<Vec<_>>(),
                        bat.step_stats().collect::<Vec<_>>(),
                        "{ctx}: per-step visit/reject/tip counters"
                    );
                    assert_eq!(
                        bits(&seq.estimates()),
                        bits(&bat.estimates()),
                        "{ctx}: estimates + half-widths"
                    );
                    assert_eq!(seq.tip_threshold(), bat.tip_threshold(), "{ctx}: threshold");
                    let mut cont = AuditJoin::new(&ig, &q, cfg).expect("aj");
                    run_walks(&mut cont, 1_000);
                    run_walks_batched(&mut bat, 100, batch);
                    assert_eq!(cont.stats(), bat.stats(), "{ctx}: continued");
                    assert_eq!(
                        bits(&cont.estimates()),
                        bits(&bat.estimates()),
                        "{ctx}: RNG stream diverged"
                    );
                }
            }
        }
    }
}

/// Drive `agg` under a 1,000-walk cap in calls of 256: three full calls,
/// a partial fourth, then a refusal.
fn drive_capped(agg: &mut dyn OnlineAggregator) {
    let budget = ExecBudget::builder().walk_limit(1_000).build();
    let admitted: Vec<u64> =
        (0..4).map(|_| agg.walks(&budget, 256).expect("under the cap")).collect();
    assert_eq!(admitted, [256, 256, 256, 232]);
    let refused = agg.walks(&budget, 256).expect_err("the cap is exhausted");
    assert_eq!(refused.reason, BudgetReason::WalkLimit { limit: 1_000 });
    assert_eq!(agg.stats().walks, 1_000);
    assert_eq!(budget.walks(), 1_000);
}

#[test]
fn walk_cap_admits_exactly_the_cap_in_governed_calls() {
    let (graph, query) = fuzz_graph(0xB00B_5EED);
    let ig = IndexedGraph::build(graph);
    let mut capped = WanderJoin::new(&ig, &query, 17).expect("wj");
    drive_capped(&mut capped);
    let mut free = WanderJoin::new(&ig, &query, 17).expect("wj");
    run_walks(&mut free, 1_000);
    assert_eq!(capped.stats(), free.stats());
    assert_eq!(bits(&capped.estimates()), bits(&free.estimates()));

    let cfg = AuditJoinConfig { tipping: Tipping::Static(8.0), seed: 23 };
    let mut capped = AuditJoin::new(&ig, &query, cfg).expect("aj");
    drive_capped(&mut capped);
    let mut free = AuditJoin::new(&ig, &query, cfg).expect("aj");
    run_walks(&mut free, 1_000);
    assert_eq!(capped.stats(), free.stats());
    assert_eq!(bits(&capped.estimates()), bits(&free.estimates()));
}

#[test]
fn batched_estimates_stay_unbiased_on_fuzz_graphs() {
    // Every batch size draws the same walks (the contract tests above), so
    // the production batch size covers them all.
    let batch = 256;
    for seed in [1u64, 2, 3] {
        let (graph, query) = fuzz_graph(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let ig = IndexedGraph::build(graph);
        let exact = CtjEngine.evaluate(&ig, &query).expect("ctj");
        let total: u64 = exact.iter().map(|(_, c)| c).sum();
        assert!(total > 0, "fuzz graph {seed} has no results");
        // WJ: slow convergence, check the grand total.
        let mut wj = WanderJoin::new(&ig, &query, seed ^ 0x5A5A).expect("wj");
        run_walks_batched(&mut wj, 120_000, batch);
        let est_total: f64 = wj.estimates().estimates.values().sum();
        let rel = (est_total - total as f64).abs() / total as f64;
        assert!(
            rel < 0.10,
            "fuzz {seed} batch {batch}: WJ total {est_total} vs {total} (rel {rel:.3})"
        );
        assert_eq!(wj.stats().walks, 120_000);
        // AJ: tipping makes per-group convergence fast.
        let cfg = AuditJoinConfig { tipping: Tipping::Static(64.0), seed: seed ^ 0xA5A5 };
        let mut aj = AuditJoin::new(&ig, &query, cfg).expect("aj");
        run_walks_batched(&mut aj, 6_000, batch);
        let mae = mean_absolute_error(&exact, &aj.estimates());
        assert!(mae < 0.10, "fuzz {seed} batch {batch}: AJ MAE {mae:.3}");
    }
}

#[test]
fn adaptive_tipping_converges_within_static_envelope() {
    let (graph, query) = fuzz_graph(0xDEAD_BEEF);
    let ig = IndexedGraph::build(graph);
    let exact = CtjEngine.evaluate(&ig, &query).expect("ctj");
    let walks = 8_000;
    let static_mae = {
        let cfg = AuditJoinConfig { tipping: Tipping::Static(1024.0), seed: 42 };
        let mut aj = AuditJoin::new(&ig, &query, cfg).expect("aj");
        run_walks_batched(&mut aj, walks, 64);
        mean_absolute_error(&exact, &aj.estimates())
    };
    let cfg = AuditJoinConfig { tipping: Tipping::Adaptive, seed: 42 };
    let mut aj = AuditJoin::new(&ig, &query, cfg).expect("aj");
    run_walks_batched(&mut aj, walks, 64);
    let adaptive_mae = mean_absolute_error(&exact, &aj.estimates());
    let threshold = aj.tip_threshold();
    assert!(threshold.is_finite() && threshold > 0.0);
    assert!(
        adaptive_mae <= (static_mae * 2.0).max(0.05),
        "adaptive MAE {adaptive_mae:.4} outside static envelope ({static_mae:.4})"
    );
}
