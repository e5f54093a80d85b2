//! `repro quality` — the estimator-quality plane, gated end to end.
//!
//! Brings up the PR 8 stack against a live epoch-managed workload and
//! gates on the acceptance criteria:
//!
//! 1. **CI honesty** — every degraded chart is offered to the background
//!    [`CoverageAuditor`] (sampling 1:1 here), which recomputes exact
//!    truth on the pinned epoch; the resulting empirical coverage must be
//!    at least the nominal level minus a small slack `ε`.
//! 2. **Convergence telemetry** — a streaming parallel run under the
//!    armed quality plane must produce per-`(engine, rung)` convergence
//!    summaries, exported both through `/quality` (JSON) and `/metrics`
//!    (labeled Prometheus series).
//! 3. **Stats-drift trip** (`--features fault-inject`) — an injected
//!    staleness scenario (a merge delivering a burst of dead-end
//!    entities) must move per-predicate rejection rates enough across
//!    epochs to fire the deterministic `stats_drift` watchdog rule and
//!    flip `/healthz`, with the rule named in the body.
//!
//! The HTTP side reuses the same zero-dependency `std::net` client as
//! `repro monitor`.

use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kgoa_core::{
    install_auditor, run_parallel_streaming, start_monitoring, uninstall_auditor,
    AuditJoinConfig, AuditorConfig, Budget, EpochConfig, EpochManager, MonitorConfig,
    ParallelAlgo, StreamConfig, SupervisorConfig,
};
use kgoa_datagen::{generate, KgConfig};
#[cfg(feature = "fault-inject")]
use kgoa_engine::ExecBudget;
use kgoa_explore::{Expansion, Session};
use kgoa_index::IndexOrder;
#[cfg(feature = "fault-inject")]
use kgoa_index::UpdateBatch;
use kgoa_obs::{Json, ObsServer, QualityPolicy, RecorderConfig, WatchdogConfig};
use kgoa_query::WalkPlan;
use kgoa_rdf::Triple;

use crate::workload::BenchConfig;

/// Slack below the nominal coverage the empirical gate tolerates. The
/// audit runs on a small seeded workload, so the binomial noise floor is
/// a few percent; a plane whose honesty drifts past this is broken, not
/// unlucky.
const COVERAGE_EPSILON: f64 = 0.10;

/// One blocking GET against the scrape listener; returns status + body.
fn http_get(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| format!("timeout: {e}"))?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: kgoa\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| format!("read: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) =
        text.split_once("\r\n\r\n").ok_or_else(|| format!("no header/body split: {text:?}"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line: {head:?}"))?;
    Ok((status, body.to_string()))
}

/// Run a round of forced-degradation governed expansions on the pinned
/// session, waiting out each offered audit so the round's coverage is
/// fully accounted before returning.
fn degraded_round(
    session: &mut Session<'_>,
    sup: &SupervisorConfig,
    auditor: &kgoa_core::CoverageAuditor,
    rounds: usize,
) -> usize {
    let mut degraded = 0;
    for _ in 0..rounds {
        for exp in [Expansion::OutProperty, Expansion::InProperty] {
            let chart = session.expand_governed(exp, sup).expect("governed expansion");
            degraded += usize::from(chart.provenance.is_some());
            let deadline = Instant::now() + Duration::from_secs(20);
            while !auditor.idle() {
                assert!(Instant::now() < deadline, "audit never drained");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
    degraded
}

/// `repro quality`: returns the report and whether every gate passed.
pub fn quality_bench(cfg: &BenchConfig) -> (String, bool) {
    let mut report = String::new();
    writeln!(report, "## Quality — estimator-quality plane gated end to end\n").unwrap();
    let mut all_ok = true;
    let mut gate = |report: &mut String, name: &str, ok: bool, detail: String| {
        all_ok &= ok;
        writeln!(report, "{:<28} {:<4} {}", name, if ok { "ok" } else { "FAIL" }, detail)
            .unwrap();
        ok
    };

    kgoa_obs::reset();
    kgoa_obs::set_enabled(true);
    let policy = QualityPolicy::default();
    kgoa_obs::quality::arm(policy.clone());

    // Watchdog thresholds for the drill: the coverage alarm sits *below*
    // this gate's own coverage assertion (nominal − ε), so a passing run
    // never trips it, and the heartbeat is generous for loaded CI hosts.
    let watchdog = WatchdogConfig {
        coverage_min_bp: ((policy.nominal_coverage - 2.0 * COVERAGE_EPSILON) * 10_000.0) as i64,
        coverage_min_audits: 3,
        drift_limit_bp: policy.drift_limit_bp,
        heartbeat_gap: Duration::from_secs(10),
        ..WatchdogConfig::default()
    };
    let mut monitor = start_monitoring(MonitorConfig {
        recorder: RecorderConfig { tick: Duration::from_millis(25), capacity: 256 },
        watchdog: watchdog.clone(),
    });
    let mut server = ObsServer::start_with("127.0.0.1:0", watchdog).expect("bind listener");
    let addr = server.local_addr();
    writeln!(report, "listener: http://{addr}\n").unwrap();

    // Live workload: epoch-managed graph with a pre-interned staleness
    // burst (entities typed into C0 with no other edges — pure dead ends
    // for property walks).
    let graph = generate(&KgConfig::dbpedia_like(cfg.scale));
    let mut dict = graph.dict().clone();
    let vocab = graph.vocab();
    let original = graph.triples().to_vec();
    let class = dict
        .lookup_iri("http://kgoa.dev/class/C0")
        .expect("generated graphs always have class C0");
    let burst: Vec<Triple> = (0..2048)
        .map(|i| {
            let e = dict.intern_iri(format!("http://kgoa.dev/quality/dead{i}"));
            Triple::new(e, vocab.rdf_type, class)
        })
        .collect();
    let graph = kgoa_rdf::Graph::from_sorted_parts(dict, original, vocab);
    let ig = kgoa_index::IndexedGraph::build(graph);
    // High thresholds keep `merge_now` the only merger (deterministic).
    let mgr = EpochManager::new(
        ig,
        EpochConfig { merge_threshold: 1 << 20, shed_threshold: 1 << 20, ..EpochConfig::default() },
    );
    let auditor = install_auditor(
        Arc::clone(&mgr),
        AuditorConfig {
            sample_every: 1,
            budget: Duration::from_secs(2),
            exact_parts: 1,
        },
    );

    // Forced degradation: a zero exact slice sends every expansion down
    // the Audit Join rung, so each chart carries CIs to audit.
    let sup = SupervisorConfig {
        deadline: Duration::from_millis(80),
        exact_fraction: 0.0,
        audit: AuditJoinConfig {
            tipping: kgoa_core::Tipping::from_threshold(cfg.tipping_threshold),
            seed: cfg.seed,
        },
        ..SupervisorConfig::default()
    };
    let mut session = Session::root_pinned(&mgr);
    let degraded = degraded_round(&mut session, &sup, &auditor, 3);

    // Gate 1: the auditor saw the charts and empirical coverage holds.
    gate(
        &mut report,
        "audits ran",
        auditor.offered() as usize >= degraded && kgoa_obs::metrics::QUALITY_AUDITS.get() > 0,
        format!(
            "{} charts degraded, {} offered, {} audited, {} skipped",
            degraded,
            auditor.offered(),
            kgoa_obs::metrics::QUALITY_AUDITS.get(),
            kgoa_obs::metrics::QUALITY_AUDIT_SKIPPED.get()
        ),
    );
    match kgoa_obs::quality::coverage() {
        Some((covered, audited)) => {
            let coverage = covered as f64 / audited as f64;
            gate(
                &mut report,
                "empirical coverage",
                coverage >= policy.nominal_coverage - COVERAGE_EPSILON,
                format!(
                    "{covered}/{audited} = {:.1}% (nominal {:.0}%, ε {:.0}pp)",
                    coverage * 100.0,
                    policy.nominal_coverage * 100.0,
                    COVERAGE_EPSILON * 100.0
                ),
            );
        }
        None => {
            gate(&mut report, "empirical coverage", false, "no audits completed".into());
        }
    }

    // Gate 2: a streaming parallel run feeds the convergence rings.
    {
        let pinned = mgr.pin();
        let mut probe = Session::root(&pinned);
        let query = probe.expansion_query(Expansion::OutProperty).expect("probe query");
        let plan = WalkPlan::canonical(&query, &IndexOrder::PAPER_DEFAULT).expect("probe plan");
        let out = run_parallel_streaming(
            &pinned,
            &query,
            &plan,
            ParallelAlgo::AuditJoin(AuditJoinConfig {
                tipping: kgoa_core::Tipping::from_threshold(cfg.tipping_threshold),
                seed: cfg.seed,
            }),
            2,
            Budget::WalksPerWorker(2048),
            cfg.seed,
            StreamConfig { refresh: Duration::from_millis(5), ..StreamConfig::default() },
            |_| {},
        );
        let summaries = kgoa_obs::quality::convergence_summary();
        gate(
            &mut report,
            "convergence telemetry",
            out.is_ok() && summaries.iter().any(|s| s.engine == "parallel"),
            format!(
                "{} (engine, rung) keys: {:?}",
                summaries.len(),
                summaries.iter().map(|s| format!("{}/{}", s.engine, s.rung)).collect::<Vec<_>>()
            ),
        );
    }

    // Gate 3: /quality serves the summary JSON with its schema.
    match http_get(addr, "/quality") {
        Ok((status, body)) => {
            let parsed = Json::parse(&body).ok();
            let schema = parsed
                .as_ref()
                .and_then(|j| j.get("schema").and_then(Json::as_str))
                .unwrap_or("")
                .to_string();
            let has_sections = parsed
                .as_ref()
                .is_some_and(|j| j.get("coverage").is_some() && j.get("convergence").is_some());
            gate(
                &mut report,
                "/quality schema",
                status == 200 && schema == kgoa_obs::QUALITY_SCHEMA && has_sections,
                format!("HTTP {status}, {schema}"),
            );
        }
        Err(e) => {
            gate(&mut report, "/quality schema", false, e);
        }
    }

    // Gate 4: /metrics carries the labeled quality series and the
    // coverage gauge.
    match http_get(addr, "/metrics") {
        Ok((status, body)) => {
            gate(
                &mut report,
                "/metrics quality series",
                status == 200
                    && body.contains("kgoa_quality_runs_total{engine=\"parallel\"")
                    && body.contains("kgoa_obs_quality_coverage_bp"),
                "labeled convergence series + coverage gauge exported".into(),
            );
        }
        Err(e) => {
            gate(&mut report, "/metrics quality series", false, e);
        }
    }

    // Gate 5: /healthz is healthy before the staleness injection...
    let rec = kgoa_obs::Recorder::global().expect("monitoring installed the recorder");
    rec.sample_now();
    match http_get(addr, "/healthz") {
        Ok((status, body)) => {
            gate(
                &mut report,
                "/healthz baseline",
                status == 200 && body.contains("\"status\": \"healthy\""),
                format!(
                    "HTTP {status}, {}",
                    body.lines().find(|l| l.contains("status")).unwrap_or("?").trim()
                ),
            );
        }
        Err(e) => {
            gate(&mut report, "/healthz baseline", false, e);
        }
    }

    // ...and the injected stats-staleness scenario trips `stats_drift`.
    #[cfg(feature = "fault-inject")]
    {
        // The burst merges in a flood of dead-end C0 members: property
        // walks over the new epoch reject far more often, while the drift
        // baseline still holds the old epoch's rates.
        mgr.append(&UpdateBatch::inserting(burst.clone()), &ExecBudget::unlimited())
            .expect("burst append");
        mgr.merge_now();
        mgr.wait_merged();
        session.repin(&mgr);
        degraded_round(&mut session, &sup, &auditor, 3);
        let drift_bp = kgoa_obs::metrics::QUALITY_STATS_DRIFT_BP.get();
        rec.sample_now();
        match http_get(addr, "/healthz") {
            Ok((status, body)) => {
                let tripped =
                    body.contains("\"status\": \"degraded\"") && body.contains("stats_drift");
                gate(
                    &mut report,
                    "stats-drift trip",
                    status == 200 && tripped,
                    format!("HTTP {status}, max drift {drift_bp}bp"),
                );
            }
            Err(e) => {
                gate(&mut report, "stats-drift trip", false, e);
            }
        }
    }
    #[cfg(not(feature = "fault-inject"))]
    {
        let _ = &burst;
        writeln!(
            report,
            "{:<28} {:<4} needs --features fault-inject",
            "stats-drift trip", "skip"
        )
        .unwrap();
    }

    uninstall_auditor();
    kgoa_obs::quality::disarm();
    server.stop();
    monitor.stop();
    kgoa_obs::set_enabled(false);
    writeln!(
        report,
        "\n{}",
        if all_ok { "quality gate PASSED" } else { "quality gate FAILED" }
    )
    .unwrap();
    (report, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgoa_datagen::Scale;

    #[test]
    fn quality_bench_passes_on_tiny_scale() {
        let _guard = kgoa_obs::metrics::test_lock();
        kgoa_obs::events::set_stderr_level(None);
        let cfg = BenchConfig { scale: Scale::Tiny, ..BenchConfig::default() };
        let (report, ok) = quality_bench(&cfg);
        kgoa_obs::events::set_stderr_level(Some(kgoa_obs::Level::Warn));
        assert!(ok, "quality gates must pass:\n{report}");
        assert!(report.contains("empirical coverage"));
    }
}
