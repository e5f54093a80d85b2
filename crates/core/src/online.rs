//! The online-aggregation interface and time-based runners.
//!
//! The paper's protocol (§V-B): "we run each online aggregation algorithm
//! for nine seconds and report the estimate after each second". The
//! [`run_timed`] helper reproduces that — it walks an aggregator until each
//! tick boundary and snapshots the estimates — while [`run_walks`] gives
//! deterministic, walk-count-based runs for tests.

use std::time::{Duration, Instant};

use kgoa_engine::{BudgetExceeded, ExecBudget, GroupedEstimates};

use crate::accum::WalkStats;

/// An online-aggregation algorithm over one query: repeatedly walked,
/// queryable for its current estimates at any time.
pub trait OnlineAggregator {
    /// Short name for reports ("wj", "aj").
    fn name(&self) -> &'static str;

    /// Perform up to `n` random walks (estimator samples) under a
    /// cooperative budget, returning the number of walks admitted.
    ///
    /// The walk cap is charged once for the whole call
    /// ([`ExecBudget::charge_walks`]); the admitted walks then run one at
    /// a time, and [`crate::WanderJoin`] and [`crate::AuditJoin`] check
    /// the budget before every step, so a deadline or cancellation stops
    /// a walk mid-path. An aborted walk is not counted and contributes
    /// nothing. `Ok(done)` with `done < n` means the walk cap admitted
    /// only part of the call: callers must treat that as terminal, like
    /// `Err`, and stop walking. With [`ExecBudget::unlimited`] every call
    /// admits all `n` walks, and splitting a run into calls of any size
    /// draws the same walks in the same order.
    fn walks(&mut self, budget: &ExecBudget, n: u64) -> Result<u64, BudgetExceeded>;

    /// Snapshot the current per-group estimates and confidence intervals.
    fn estimates(&self) -> GroupedEstimates;

    /// Walk counters so far.
    fn stats(&self) -> WalkStats;
}

/// The shared body of [`OnlineAggregator::walks`]: charge the walk cap
/// once for `n` walks, then run each admitted walk through `walk`, which
/// performs exactly one walk under `budget` and propagates its first trip.
/// The fault hook fires immediately before each walk, so a planned panic
/// on walk `k` keeps the `k - 1` walks before it.
pub(crate) fn walk_each(
    budget: &ExecBudget,
    n: u64,
    mut walk: impl FnMut() -> Result<(), BudgetExceeded>,
) -> Result<u64, BudgetExceeded> {
    if n == 0 {
        return Ok(0);
    }
    let admitted = budget.charge_walks(n)?;
    for _ in 0..admitted {
        budget.fault_walk();
        walk()?;
    }
    Ok(admitted)
}

/// One snapshot of an aggregator's state at a tick boundary.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Wall-clock time since the run started.
    pub elapsed: Duration,
    /// The per-group estimates at this point.
    pub estimates: GroupedEstimates,
    /// Walk counters at this point.
    pub stats: WalkStats,
}

/// Run the aggregator for a fixed number of walks (deterministic).
pub fn run_walks<A: OnlineAggregator + ?Sized>(agg: &mut A, walks: u64) {
    agg.walks(&ExecBudget::unlimited(), walks)
        .expect("unlimited budget cannot trip");
}

/// Run the aggregator for a fixed number of walks in calls of `batch`
/// walks each. Every batch size draws the same walks as [`run_walks`],
/// bit for bit: the batch is only the unit of the call.
pub fn run_walks_batched<A: OnlineAggregator + ?Sized>(agg: &mut A, walks: u64, batch: u64) {
    let batch = batch.max(1);
    let mut done = 0u64;
    while done < walks {
        let n = batch.min(walks - done);
        run_walks(agg, n);
        done += n;
    }
}

/// Mean absolute 95% CI half-width over groups (0 when no group has an
/// interval yet). The one summary number a CI trajectory is tracked by:
/// [`run_traced`] records it per batch and
/// [`crate::ParallelSnapshot::mean_ci_half_width`] carries it per
/// streamed merge, so both feeds agree on the definition.
pub fn mean_ci_half_width(est: &GroupedEstimates) -> f64 {
    if est.half_widths.is_empty() {
        0.0
    } else {
        est.half_widths.values().filter(|w| w.is_finite()).sum::<f64>()
            / est.half_widths.len() as f64
    }
}

/// Walk the aggregator until its budget trips, and report why it stopped.
///
/// The budget **must** be bounded (a deadline, walk limit, or eventual
/// cancellation) — with a truly unlimited budget this would spin forever,
/// so that case returns immediately with a zero-walk
/// [`kgoa_engine::BudgetReason::WalkLimit`] violation instead.
pub fn run_governed<A: OnlineAggregator + ?Sized>(
    agg: &mut A,
    budget: &ExecBudget,
) -> BudgetExceeded {
    if budget.is_unlimited() {
        return BudgetExceeded {
            reason: kgoa_engine::BudgetReason::WalkLimit { limit: 0 },
            elapsed: Duration::ZERO,
        };
    }
    loop {
        // One walk per call, so the walk cap never reserves walks that a
        // deadline or cancellation then prevents from running.
        if let Err(stop) = agg.walks(budget, 1) {
            return stop;
        }
    }
}

/// Run the aggregator for `walks` walks in batches of `batch`, recording
/// one [`kgoa_obs::TracePoint`] per batch into a convergence trace: walk
/// count, total estimate (sum over groups), mean 95% CI half-width, and
/// elapsed wall time. This is the estimator-side feed for `repro trace`
/// and works regardless of the global telemetry flag (the trace is
/// explicitly requested, not ambient).
pub fn run_traced<A: OnlineAggregator + ?Sized>(
    agg: &mut A,
    query_id: &str,
    walks: u64,
    batch: u64,
) -> kgoa_obs::ConvergenceTrace {
    let batch = batch.max(1);
    let start = Instant::now();
    let mut trace = kgoa_obs::ConvergenceTrace::new(agg.name(), query_id);
    let mut done = 0u64;
    while done < walks {
        let n = batch.min(walks - done);
        run_walks(agg, n);
        done += n;
        let est = agg.estimates();
        let total: f64 = est.estimates.values().sum();
        trace.record(agg.stats().walks, total, mean_ci_half_width(&est), start.elapsed());
    }
    kgoa_obs::quality::record_trace("traced", &trace);
    trace
}

/// Run for `ticks` intervals of `tick` wall-clock time each, snapshotting
/// the estimates at every boundary — the measurement loop behind the
/// paper's MAE-over-time plots (Figs. 8–10).
///
/// Walks are checked against the clock in small batches so a tick boundary
/// is never overshot by more than a batch.
pub fn run_timed<A: OnlineAggregator + ?Sized>(
    agg: &mut A,
    ticks: usize,
    tick: Duration,
) -> Vec<Snapshot> {
    const BATCH: u64 = 64;
    let start = Instant::now();
    let mut snapshots = Vec::with_capacity(ticks);
    for t in 1..=ticks {
        let deadline = tick * t as u32;
        while start.elapsed() < deadline {
            run_walks(agg, BATCH);
        }
        snapshots.push(Snapshot {
            elapsed: start.elapsed(),
            estimates: agg.estimates(),
            stats: agg.stats(),
        });
    }
    snapshots
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgoa_index::FxHashMap;

    /// A fake aggregator whose estimate is the number of walks taken.
    struct Counting {
        n: u64,
    }

    impl OnlineAggregator for Counting {
        fn name(&self) -> &'static str {
            "counting"
        }

        fn walks(&mut self, budget: &ExecBudget, n: u64) -> Result<u64, BudgetExceeded> {
            walk_each(budget, n, || {
                self.n += 1;
                Ok(())
            })
        }

        fn estimates(&self) -> GroupedEstimates {
            let mut estimates = FxHashMap::default();
            estimates.insert(0u32, self.n as f64);
            GroupedEstimates { estimates, half_widths: FxHashMap::default() }
        }

        fn stats(&self) -> WalkStats {
            WalkStats { walks: self.n, ..WalkStats::default() }
        }
    }

    #[test]
    fn run_walks_steps_exactly() {
        let mut c = Counting { n: 0 };
        run_walks(&mut c, 123);
        assert_eq!(c.n, 123);
    }

    #[test]
    fn walk_each_charges_the_cap_once_and_admits_a_partial_call() {
        let mut c = Counting { n: 0 };
        let budget = ExecBudget::builder().walk_limit(10).build();
        assert_eq!(c.walks(&budget, 0).unwrap(), 0);
        assert_eq!(c.walks(&budget, 7).unwrap(), 7);
        assert_eq!(c.walks(&budget, 7).unwrap(), 3, "only 3 walks remain under the cap");
        assert_eq!((c.n, budget.walks()), (10, 10));
        assert!(c.walks(&budget, 7).is_err());
        run_walks_batched(&mut c, 100, 16);
        assert_eq!(c.n, 110);
    }

    #[test]
    fn run_timed_produces_monotone_snapshots() {
        let mut c = Counting { n: 0 };
        let snaps = run_timed(&mut c, 3, Duration::from_millis(5));
        assert_eq!(snaps.len(), 3);
        assert!(snaps[0].stats.walks <= snaps[1].stats.walks);
        assert!(snaps[1].stats.walks <= snaps[2].stats.walks);
        assert!(snaps[2].elapsed >= Duration::from_millis(15));
    }
}
