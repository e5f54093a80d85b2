//! Closed-loop chart replay: one explorer thread replays scripted
//! sessions through the production entry point
//! [`Session::expand_governed`].
//!
//! With tracing on, the benchmark performs the same steps as
//! `expand_governed` through their public parts instead
//! ([`Session::expansion_query`], [`kgoa_core::supervise`],
//! [`Chart::from_counts`] / [`Chart::from_estimates`]), each inside its
//! own span, and then [`Session::select`]; all spans of one chart share an
//! id under an enclosing `explore.chart` span, so the traced report can
//! set their sum against the chart's wall time.

use std::time::{Duration, Instant};

use kgoa_core::{supervise, SupervisedResult, SupervisorConfig, SupervisorError};
use kgoa_explore::{Chart, GovernedChart, Session};

use crate::scripts::{Scripts, Step};
use crate::trace::Tracer;

/// One chart expansion as measured.
#[derive(Debug, Clone, Copy)]
pub struct ChartSample {
    /// Index of the session in [`Scripts::scripts`].
    pub session: usize,
    /// Dataset index.
    pub dataset: usize,
    /// 1-based step of the chart within its session.
    pub step: usize,
    /// Wall time of the expansion, in ms.
    pub ms: f64,
    /// Served by the exact rung.
    pub exact: bool,
    /// Every rung failed (the chart came back empty with an error).
    pub failed: bool,
    /// Served with the exact rung shed for ingest pressure.
    pub shed: bool,
}

/// What one replay measured.
#[derive(Default)]
pub struct ChartRun {
    /// Per-chart samples, in replay order.
    pub samples: Vec<ChartSample>,
    /// Wall time of the replay, excluding output checks.
    pub wall_s: f64,
    /// Time the exact rung reported for exactly served charts, in s.
    pub exact_rung_s: f64,
    /// Charts whose check failed.
    pub mismatches: Vec<String>,
}

impl ChartRun {
    /// Append another replay's measurements to this one.
    pub fn absorb(&mut self, other: ChartRun) {
        self.samples.extend(other.samples);
        self.wall_s += other.wall_s;
        self.exact_rung_s += other.exact_rung_s;
        self.mismatches.extend(other.mismatches);
    }
}

/// How a replay reaches its graph and supervisor settings.
pub trait Explorer {
    /// Open a new session on `dataset`, at the root class bar.
    fn open(&mut self, dataset: usize) -> Session<'_>;
    /// Supervisor settings for the next chart.
    fn config(&mut self) -> SupervisorConfig;
    /// Check (or keep for a later check) one chart. Called outside the
    /// timed region; returns an error message for a wrong chart.
    fn check(
        &mut self,
        step: &Step,
        chart: &GovernedChart,
        epoch: Option<u64>,
    ) -> Result<(), String>;
}

/// Replay session `si` of `scripts`. Chart ids are taken from `next_id`.
pub fn replay(
    explorer: &mut impl Explorer,
    scripts: &Scripts,
    si: usize,
    tr: &mut Tracer,
    next_id: &mut u64,
) -> ChartRun {
    let mut run = ChartRun::default();
    let start = Instant::now();
    let script = &scripts.scripts[si];
    let mut pending = Vec::with_capacity(script.steps.len());
    {
        let config = explorer.config();
        let mut session = explorer.open(script.dataset);
        for (pos, step) in script.steps.iter().enumerate() {
            let id = *next_id;
            *next_id += 1;
            let config = SupervisorConfig {
                epoch: session.epoch(),
                ..config
            };
            let t0 = Instant::now();
            let chart = if tr.on() {
                traced_chart(&mut session, step, &config, tr, id)
            } else {
                let chart = session.expand_governed(step.expansion, &config);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                session.select(step.pick).expect("a chart is pending");
                chart.map(|c| (c, ms, None))
            };
            let (chart, ms, exact_rung) = chart.expect("scripted expansions are valid");
            if let Some(e) = exact_rung {
                run.exact_rung_s += e.as_secs_f64();
            }
            run.samples.push(ChartSample {
                session: si,
                dataset: script.dataset,
                step: pos + 1,
                ms,
                exact: chart.is_exact(),
                failed: chart.error.is_some(),
                shed: config.ingest_pressure,
            });
            pending.push((*step, chart, session.epoch()));
        }
    }
    // The checks run off the clock.
    run.wall_s = start.elapsed().as_secs_f64();
    for (step, chart, epoch) in &pending {
        if let Err(e) = explorer.check(step, chart, *epoch) {
            run.mismatches.push(e);
        }
    }
    run
}

/// One chart through `expand_governed`'s public parts, each in a span.
/// Returns the chart, its wall time in ms (expansion to chart, without
/// the selection) and the exact rung's own elapsed time when exact.
fn traced_chart(
    session: &mut Session<'_>,
    step: &Step,
    config: &SupervisorConfig,
    tr: &mut Tracer,
    id: u64,
) -> Result<(GovernedChart, f64, Option<Duration>), kgoa_explore::ExploreError> {
    let t0 = Instant::now();
    let outer = tr.begin("explore.chart", id);
    let query = tr.time("explore.expansion_query", id, || {
        session.expansion_query(step.expansion)
    })?;
    let result = tr.time("core.supervise", id, || {
        supervise(session.graph(), &query, config)
    });
    let kind = step.expansion.produces();
    let mut exact_rung = None;
    let chart = tr.time("explore.chart_build", id, || match result {
        Ok(SupervisedResult::Exact { counts, elapsed }) => {
            exact_rung = Some(elapsed);
            Ok(GovernedChart {
                chart: Chart::from_counts(kind, &counts),
                provenance: None,
                error: None,
            })
        }
        Ok(SupervisedResult::Degraded {
            estimates,
            provenance,
        }) => Ok(GovernedChart {
            chart: Chart::from_estimates(kind, &estimates),
            provenance: Some(provenance),
            error: None,
        }),
        Err(SupervisorError::Query(e)) => Err(kgoa_explore::ExploreError::Query(e)),
        Err(e @ SupervisorError::Exhausted { .. }) => Ok(GovernedChart {
            chart: Chart {
                kind,
                bars: Vec::new(),
            },
            provenance: None,
            error: Some(e),
        }),
    })?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    tr.time("explore.select", id, || session.select(step.pick))?;
    tr.end(outer);
    Ok((chart, ms, exact_rung))
}

/// The chart an exact answer must equal.
pub fn truth_chart(scripts: &Scripts, step: &Step) -> Chart {
    Chart::from_counts(
        step.expansion.produces(),
        &scripts.queries[step.query].truth,
    )
}
