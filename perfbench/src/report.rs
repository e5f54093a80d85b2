//! Metrics, the traced text report, and the final JSON line.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::PathBuf;

use crate::charts::ChartRun;
use crate::data::{bytes_per_triple, Setup, LGD};
use crate::online::{OnlineRun, QuerySample, CAP};
use crate::stats::{mean, median, median_per, quantile};
use crate::trace::Tracer;
use crate::{probes, Inputs, Measured, Workload};

/// The result of one run.
pub struct Output {
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted: charts, online queries and appends.
    pub attempted: u64,
    /// Operations that failed: exhausted charts and rejected appends.
    pub failed: u64,
    /// Wrong outputs found by the checks.
    pub mismatches: Vec<String>,
}

impl Output {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// The final JSON line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no infinity or NaN; neither is a measurement.
                let v = if value.is_finite() {
                    format!("{value}")
                } else {
                    "null".into()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.mismatches.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The chart run whose latency the workload reports: the live explorer's
/// under `live-explore`, the static replay's under `static-explore`.
fn chart_source(w: Workload, m: &Measured) -> &ChartRun {
    match w {
        Workload::Live => &m.live.as_ref().expect("live pass ran").charts,
        Workload::Static => m.exact.as_ref().expect("static pass ran"),
    }
}

/// Each chart's median latency over its replays in the run, one value
/// per session step.
fn chart_ms(charts: &ChartRun) -> Vec<f64> {
    median_per(charts.samples.iter().map(|s| ((s.session, s.step), s.ms)))
}

/// A percentile over the distinct queries of each one's median time to
/// target in the run; one that falls on a miss reads as the cap.
fn ttt(online: &OnlineRun, q: f64) -> f64 {
    let v = median_per(online.samples.iter().map(|s| (s.query, s.ttt_ms)));
    let x = quantile(&v, q);
    if x.is_finite() {
        x
    } else {
        CAP.as_secs_f64() * 1e3
    }
}

/// Walks per second of one estimator: walks over runner time, each summed
/// over the distinct queries of each one's median over its runs, so that
/// every query weighs the same however many times the run reached it.
fn walks_per_s(online: &OnlineRun, of: fn(&QuerySample) -> (u64, f64)) -> f64 {
    let walks = median_per(online.samples.iter().map(|s| (s.query, of(s).0 as f64)));
    let secs = median_per(online.samples.iter().map(|s| (s.query, of(s).1)));
    walks.iter().sum::<f64>() / secs.iter().sum::<f64>()
}

/// Wrong outputs found by a pass's checks.
pub fn wrong_outputs(m: &Measured) -> Vec<String> {
    tally(m).2
}

fn tally(m: &Measured) -> (u64, u64, Vec<String>) {
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut mismatches = Vec::new();
    for c in m.exact.iter().chain(m.live.iter().map(|l| &l.charts)) {
        attempted += c.samples.len() as u64;
        failed += c.samples.iter().filter(|s| s.failed).count() as u64;
        mismatches.extend(c.mismatches.iter().cloned());
    }
    if let Some(o) = &m.online {
        attempted += o.samples.len() as u64;
        mismatches.extend(o.mismatches.iter().cloned());
    }
    if let Some(l) = &m.live {
        attempted += l.writer.due_ms.len() as u64;
        failed += l.writer.rejected;
    }
    (attempted, failed, mismatches)
}

fn graphs_of(w: Workload, setup: &Setup) -> Vec<&kgoa_index::IndexedGraph> {
    match w {
        Workload::Live => vec![&setup.datasets()[LGD].ig],
        Workload::Static => setup.datasets().iter().map(|d| &d.ig).collect(),
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(w: Workload, setup: &Setup, m: &Measured) -> Output {
    let (attempted, failed, mismatches) = tally(m);
    let mut out = Output {
        metrics: Vec::new(),
        attempted,
        failed,
        mismatches,
    };
    out.push("setup_s", median(&setup.times_s), "s");
    out.push(
        "index_bytes_per_triple",
        bytes_per_triple(&graphs_of(w, setup)),
        "B",
    );
    let charts = chart_source(w, m);
    let per_chart = chart_ms(charts);
    out.push("chart_p50_ms", median(&per_chart), "ms");
    let all: Vec<f64> = charts.samples.iter().map(|s| s.ms).collect();
    out.push("chart_p99_ms", quantile(&all, 0.99), "ms");
    let n = charts.samples.len() as f64;
    out.push("charts_per_s", n / charts.wall_s, "1/s");
    let exact = charts.samples.iter().filter(|s| s.exact).count();
    out.push("exact_chart_ratio", exact as f64 / n, "ratio");
    let online = m.online.as_ref().expect("online pass ran");
    out.push("ttt_p50_ms", ttt(online, 0.5), "ms");
    out.push("ttt_p90_ms", ttt(online, 0.9), "ms");
    out.push(
        "aj_walks_per_s",
        walks_per_s(online, |s| (s.aj.walks, s.aj_runner_s)),
        "1/s",
    );
    out.push(
        "wj_walks_per_s",
        walks_per_s(online, |s| (s.wj.walks, s.wj_runner_s)),
        "1/s",
    );
    let queries: BTreeSet<usize> = online.samples.iter().map(|s| s.query).collect();
    eprintln!(
        "samples: {} charts of {} distinct ({:.1} s), {} online queries of {} distinct, {} appends",
        charts.samples.len(),
        per_chart.len(),
        charts.wall_s,
        online.samples.len(),
        queries.len(),
        m.live.as_ref().map_or(0, |l| l.writer.due_ms.len())
    );
    out
}

/// Per-op time of the traced pass over the untraced one, on the ops both
/// passes completed (charts and online queries).
pub fn overhead(w: Workload, base: &Measured, traced: &Measured) -> f64 {
    let ops = |m: &Measured| -> [Vec<f64>; 2] {
        match w {
            Workload::Static => {
                let charts = m.exact.as_ref().expect("the static pass ran");
                let online = m.online.as_ref().expect("the static pass ran");
                [
                    charts.samples.iter().map(|s| s.ms).collect(),
                    online.samples.iter().map(|s| s.clock_ms).collect(),
                ]
            }
            Workload::Live => {
                let charts = &m.live.as_ref().expect("the live pass ran").charts;
                let online = m.online.as_ref().expect("the live pass ran");
                [
                    charts.samples.iter().map(|s| s.ms).collect(),
                    online.samples.iter().map(|s| s.clock_ms).collect(),
                ]
            }
        }
    };
    let (a, b) = (ops(base), ops(traced));
    let (mut ta, mut tb) = (0.0, 0.0);
    for (a, b) in a.iter().zip(&b) {
        let n = a.len().min(b.len());
        ta += a[..n].iter().sum::<f64>();
        tb += b[..n].iter().sum::<f64>();
    }
    tb / ta
}

/// Where the traced run writes its spans and report.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("perfbench")
}

/// The per-layer metrics of a traced run, plus its text report and span
/// file.
pub fn traced(
    w: Workload,
    seed: u64,
    setup: &Setup,
    inp: &Inputs,
    m: &Measured,
    tr: &Tracer,
    overhead: f64,
) -> Output {
    let (attempted, failed, mut mismatches) = tally(m);
    let ds = setup.datasets();
    let lgd = &ds[LGD].ig;
    let graphs: Vec<_> = ds.iter().map(|d| &d.ig).collect();

    // Layer probes.
    let mut probe: Vec<probes::Metric> = probes::build(&ds[LGD]);
    for d in ds {
        probe.extend(probes::ranges(d, seed));
    }
    probe.push(("index.seek_ns".into(), probes::seek(&graphs, seed), "ns"));
    probe.push((
        "index.seek2_batch_ns".into(),
        probes::seek2_batch(ds, seed),
        "ns",
    ));
    let delta = probes::delta(lgd, seed);
    let (overlay_ns, overlay_rows) = probes::overlay_seek(lgd, &delta, seed);
    probe.push(("index.overlay_seek_ns".into(), overlay_ns, "ns"));
    probe.push(("index.overlay_delta_rows".into(), overlay_rows, "count"));
    let (ctj50, ctj99, ctj_wrong) = probes::ctj(ds, &inp.scripts);
    if ctj_wrong > 0 {
        mismatches.push(format!(
            "CtjEngine disagrees with Yannakakis on {ctj_wrong} queries"
        ));
    }
    let merge_ms = probes::merge(lgd, &delta);

    let mut out = Output {
        metrics: Vec::new(),
        attempted,
        failed,
        mismatches,
    };
    for (name, v, unit) in probe.drain(..) {
        out.push(name, v, unit);
    }
    let span = |name: &str, unit_ns: f64| median(&tr.durations(name, unit_ns));
    out.push("query.plan_us", span("query.plan", 1e3), "us");
    out.push(
        "explore.expansion_query_us",
        span("explore.expansion_query", 1e3),
        "us",
    );
    out.push("explore.select_us", span("explore.select", 1e3), "us");
    out.push(
        "explore.chart_build_us",
        span("explore.chart_build", 1e3),
        "us",
    );
    out.push("engine.ctj_ms_p50", ctj50, "ms");
    out.push("engine.ctj_ms_p99", ctj99, "ms");
    let hits = kgoa_obs::metrics::CTJ_CACHE_HITS.get() as f64;
    let misses = kgoa_obs::metrics::CTJ_CACHE_MISSES.get() as f64;
    out.push(
        "engine.ctj.cache_hit_ratio",
        hits / (hits + misses),
        "ratio",
    );
    out.push("core.supervise_ms", span("core.supervise", 1e6), "ms");
    let online = m.online.as_ref().expect("online pass ran");
    out.push("core.aj.new_us", span("core.aj.new", 1e3), "us");
    let first: Vec<f64> = online.samples.iter().map(|s| s.first_ms).collect();
    out.push("core.aj.first_estimate_ms", median(&first), "ms");
    out.push("core.aj.batch_us", span("core.aj.batch", 1e3), "us");
    out.push("core.aj.estimates_us", span("core.aj.estimates", 1e3), "us");
    out.push("core.wj.batch_us", span("core.wj.batch", 1e3), "us");
    let total = |f: fn(&QuerySample) -> u64| online.samples.iter().map(f).sum::<u64>() as f64;
    let aj_walks = total(|s| s.aj.walks);
    out.push(
        "core.aj.reject_ratio",
        total(|s| s.aj.rejected) / aj_walks,
        "ratio",
    );
    out.push(
        "core.aj.tip_ratio",
        total(|s| s.aj.tipped) / aj_walks,
        "ratio",
    );
    out.push(
        "core.aj.full_ratio",
        total(|s| s.aj.full) / aj_walks,
        "ratio",
    );
    out.push(
        "core.wj.reject_ratio",
        total(|s| s.wj.rejected) / total(|s| s.wj.walks),
        "ratio",
    );
    for (d, data) in ds.iter().enumerate() {
        let degenerate: BTreeSet<usize> = online
            .samples
            .iter()
            .filter(|s| s.dataset == d && s.degenerate())
            .map(|s| s.query)
            .collect();
        out.push(
            format!("core.aj.degenerate_queries.{}", data.name),
            degenerate.len() as f64,
            "count",
        );
    }
    let live = m.live.as_ref().expect("live pass ran");
    let append_us = tr.durations("core.epoch.append", 1e3);
    out.push("core.epoch.append_us_p50", median(&append_us), "us");
    out.push("core.epoch.append_us_p99", quantile(&append_us, 0.99), "us");
    out.push(
        "core.epoch.append_due_ms_p90",
        quantile(&live.writer.due_ms, 0.9),
        "ms",
    );
    out.push("core.epoch.merge_ms", merge_ms, "ms");
    out.push("core.epoch.merges", live.writer.merges as f64, "count");
    out.push(
        "core.epoch.shed_charts",
        live.charts.samples.iter().filter(|s| s.shed).count() as f64,
        "count",
    );
    out.push(
        "core.epoch.delta_rows_max",
        live.writer.delta_rows_max as f64,
        "count",
    );
    out.push("bench.writer_lag_ms_max", live.writer.lag_ms_max, "ms");
    out.push("bench.trace_overhead_ratio", overhead, "ratio");
    let attribution = Attribution::of(tr);
    out.push(
        "bench.unattributed_share",
        attribution.unattributed_share(),
        "ratio",
    );

    let text = text_report(w, seed, setup, m, tr, &attribution, &out);
    eprint!("{text}");
    let dir = out_dir();
    let stem = format!("{}-seed{seed}", workload_name(w));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("spans-{stem}.jsonl")), tr.to_jsonl()))
        .and_then(|()| std::fs::write(dir.join(format!("report-{stem}.txt")), &text));
    match written {
        Ok(()) => eprintln!("spans and report written to {}", dir.display()),
        Err(e) => eprintln!("could not write trace files to {}: {e}", dir.display()),
    }
    out
}

fn workload_name(w: Workload) -> &'static str {
    match w {
        Workload::Static => "static-explore",
        Workload::Live => "live-explore",
    }
}

/// Per-chart attribution: each `explore.chart` span against the sum of
/// its component spans.
struct Attribution {
    /// `(dataset-less chart id, wall ns, components ns by name)`.
    charts: Vec<(u64, u64, [u64; 4])>,
}

const COMPONENTS: [&str; 4] = [
    "explore.expansion_query",
    "core.supervise",
    "explore.chart_build",
    "explore.select",
];

impl Attribution {
    fn of(tr: &Tracer) -> Self {
        let spans = tr.spans();
        let mut parts: Vec<[u64; 4]> = vec![[0; 4]; spans.len()];
        for s in spans {
            if let (Some(p), Some(c)) = (s.parent, COMPONENTS.iter().position(|n| *n == s.name)) {
                parts[p][c] += s.ns();
            }
        }
        let charts = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "explore.chart")
            .map(|(i, s)| (s.id, s.ns(), parts[i]))
            .collect();
        Attribution { charts }
    }

    fn unattributed_share(&self) -> f64 {
        let wall: u64 = self.charts.iter().map(|c| c.1).sum();
        let parts: u64 = self.charts.iter().map(|c| c.2.iter().sum::<u64>()).sum();
        wall.saturating_sub(parts) as f64 / wall as f64
    }
}

fn text_report(
    w: Workload,
    seed: u64,
    setup: &Setup,
    m: &Measured,
    tr: &Tracer,
    attribution: &Attribution,
    out: &Output,
) -> String {
    let mut r = String::new();
    let names: Vec<&str> = setup.datasets().iter().map(|d| d.name).collect();
    let _ = writeln!(
        r,
        "== traced report: {} seed {seed} ({} spans)",
        workload_name(w),
        tr.spans().len()
    );
    for (label, run) in [
        ("static-explore charts", m.exact.as_ref()),
        ("live-explore charts", m.live.as_ref().map(|l| &l.charts)),
    ] {
        let Some(run) = run else { continue };
        let _ = writeln!(r, "-- {label}: latency by dataset x step (ms)");
        let _ = writeln!(
            r,
            "{:<8} {:>4} {:>6} {:>9} {:>9} {:>9} {:>7}",
            "dataset", "step", "n", "p50", "p90", "max", "exact"
        );
        for (d, name) in names.iter().enumerate() {
            for step in 1..=4 {
                let v: Vec<_> = run
                    .samples
                    .iter()
                    .filter(|s| s.dataset == d && s.step == step)
                    .collect();
                if v.is_empty() {
                    continue;
                }
                let ms: Vec<f64> = v.iter().map(|s| s.ms).collect();
                let exact = v.iter().filter(|s| s.exact).count() as f64 / v.len() as f64;
                let _ = writeln!(
                    r,
                    "{:<8} {:>4} {:>6} {:>9.3} {:>9.3} {:>9.3} {:>7.3}",
                    name,
                    step,
                    v.len(),
                    median(&ms),
                    quantile(&ms, 0.9),
                    quantile(&ms, 1.0),
                    exact
                );
            }
        }
    }
    if let Some(online) = &m.online {
        let _ = writeln!(
            r,
            "-- online queries: AJ time to MAE <= 10% by dataset x step (ms; misses count as +inf)"
        );
        let _ = writeln!(
            r,
            "{:<8} {:>4} {:>6} {:>9} {:>9} {:>7} {:>11}",
            "dataset", "step", "n", "p50", "p90", "misses", "degenerate"
        );
        for (d, name) in names.iter().enumerate() {
            for step in 1..=4 {
                let v: Vec<_> = online
                    .samples
                    .iter()
                    .filter(|s| s.dataset == d && s.step == step)
                    .collect();
                if v.is_empty() {
                    continue;
                }
                let t: Vec<f64> = v.iter().map(|s| s.ttt_ms).collect();
                let _ = writeln!(
                    r,
                    "{:<8} {:>4} {:>6} {:>9.3} {:>9.3} {:>7} {:>11}",
                    name,
                    step,
                    v.len(),
                    median(&t),
                    quantile(&t, 0.9),
                    t.iter().filter(|x| x.is_infinite()).count(),
                    v.iter().filter(|s| s.degenerate()).count()
                );
            }
        }
        for (label, degenerate) in [("degenerate", true), ("non-degenerate", false)] {
            let t: Vec<f64> = online
                .samples
                .iter()
                .filter(|s| s.degenerate() == degenerate)
                .map(|s| s.ttt_ms)
                .collect();
            let _ = writeln!(
                r,
                "{label:>15} queries: n {:>4}  ttt p50 {:>9.3} ms  p90 {:>9.3} ms",
                t.len(),
                median(&t),
                quantile(&t, 0.9)
            );
        }
    }
    if !attribution.charts.is_empty() {
        let wall: f64 = attribution.charts.iter().map(|c| c.1 as f64).sum();
        let _ = writeln!(
            r,
            "-- per-chart attribution over {} charts (share of chart wall time)",
            attribution.charts.len()
        );
        for (i, name) in COMPONENTS.iter().enumerate() {
            let part: f64 = attribution.charts.iter().map(|c| c.2[i] as f64).sum();
            let _ = writeln!(r, "{name:<26} {:>7.4}", part / wall);
        }
        let _ = writeln!(
            r,
            "{:<26} {:>7.4}",
            "unattributed",
            attribution.unattributed_share()
        );
        let shares: Vec<f64> = attribution
            .charts
            .iter()
            .map(|c| c.1.saturating_sub(c.2.iter().sum()) as f64 / c.1 as f64)
            .collect();
        let _ = writeln!(
            r,
            "per-chart unattributed share: mean {:.4}, max {:.4}",
            mean(&shares),
            quantile(&shares, 1.0)
        );
        let exact_rung: f64 = m
            .exact
            .iter()
            .chain(m.live.iter().map(|l| &l.charts))
            .map(|c| c.exact_rung_s)
            .sum();
        let supervise: f64 = tr.durations("core.supervise", 1e9).iter().sum();
        let _ = writeln!(
            r,
            "exact rung's own elapsed / supervise wall: {:.4}",
            exact_rung / supervise
        );
    }
    let _ = writeln!(r, "-- per-layer metrics");
    for (name, v, unit) in &out.metrics {
        let _ = writeln!(r, "{name:<40} {v:>14.4} {unit}");
    }
    r
}
