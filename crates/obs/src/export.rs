//! Prometheus text exposition and the `obs-http` scrape listener.
//!
//! [`render_prometheus`] maps the whole telemetry state to the
//! Prometheus text exposition format (version 0.0.4):
//!
//! - dotted metric names become underscore names under a `kgoa_`
//!   prefix (`index.trie.seeks` → `kgoa_index_trie_seeks`), with the
//!   original name kept in the `# HELP` line;
//! - counters get the `_total` suffix;
//! - histograms export their log buckets as the cumulative
//!   `_bucket{le="..."}` series using [`Histogram::bucket_bound`] —
//!   bucket `b`'s inclusive upper bound is exact, so no precision is
//!   lost in the mapping — plus `_sum` and `_count`; the `+Inf` bucket
//!   always equals `_count`. Empty histograms export a zero `_count`,
//!   zero `_sum`, and a single zero `+Inf` bucket (the well-defined
//!   empty-series output the [`crate::metrics::Histogram::is_empty`]
//!   sentinel exists for);
//! - armed [SLO](crate::slo) keys export as labeled series
//!   (`kgoa_slo_queries_total{engine="...",rung="..."}`, quantile
//!   gauges), the one place label escaping matters.
//!
//! [`check_exposition`] is a tiny in-tree parser for the same format:
//! CI and the `repro monitor` experiment run every `/metrics` scrape
//! through it, so the exposition stays valid by construction.
//!
//! The listener ([`ObsServer`], feature `obs-http`) is a minimal
//! HTTP/1.1 server over `std::net` — zero dependencies, one connection
//! at a time, `Connection: close` — deliberately shaped like the
//! transport the ROADMAP's `kgoa-serve` item needs. Routes: `/metrics`,
//! `/snapshot` (v1 JSON), `/series` (recorder ring, v3), `/healthz`
//! (watchdog verdict + fired rule names; HTTP 503 when unhealthy),
//! `/quality` (the estimator-quality plane's
//! [`quality::summary_json`] document), `/profilez/<trace-id>`
//! (captured slow-query profiles, v2). It runs on its own OS thread,
//! **not** the shared worker pool: an accept loop blocks indefinitely,
//! and parking it on a pool worker would starve epoch merges on small
//! machines.

use crate::metrics::{self, Histogram, BUCKETS};
use crate::quality;
use crate::registry::Registry;
use crate::slo;

/// Map a dotted metric name to a Prometheus name: `kgoa_` prefix, with
/// every character outside `[a-zA-Z0-9_]` replaced by `_`.
pub fn prometheus_name(dotted: &str) -> String {
    let mut out = String::with_capacity(dotted.len() + 5);
    out.push_str("kgoa_");
    for ch in dotted.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escape a label value per the exposition format: backslash, double
/// quote, and newline.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn help_line(out: &mut String, name: &str, dotted: &str, kind: &str) {
    out.push_str(&format!("# HELP {name} kgoa {kind} {dotted}\n"));
    out.push_str(&format!("# TYPE {name} {kind}\n"));
}

fn render_histogram(out: &mut String, h: &Histogram) {
    let name = prometheus_name(h.name());
    help_line(out, &name, h.name(), "histogram");
    // Read every bucket exactly once and derive `+Inf`/`_count` from that
    // snapshot: a `record` racing with the render then lands in all of
    // the lines or in none, so no finite bucket can exceed `+Inf`.
    let buckets: [u64; BUCKETS] = std::array::from_fn(|b| h.bucket_count(b));
    let count: u64 = buckets.iter().sum();
    let mut cumulative = 0u64;
    if count > 0 {
        // Emit up to the highest occupied bucket; bucket 64's bound is
        // u64::MAX, which Prometheus spells +Inf, so cap at 63 and let
        // the +Inf line absorb the rest.
        let top = buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
        for (b, &c) in buckets.iter().enumerate().take(top.min(63) + 1) {
            cumulative += c;
            out.push_str(&format!(
                "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                Histogram::bucket_bound(b)
            ));
        }
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {count}\n"));
    out.push_str(&format!("{name}_sum {}\n", h.sum()));
    out.push_str(&format!("{name}_count {count}\n"));
}

/// Render all counters, gauges, histograms, and armed SLO keys to the
/// Prometheus text exposition format.
pub fn render_prometheus() -> String {
    let reg = Registry::global();
    let mut out = String::new();

    let mut counters: Vec<_> = metrics::COUNTERS.iter().copied().chain(reg.counters()).collect();
    counters.sort_by_key(|c| c.name());
    for c in counters {
        let name = format!("{}_total", prometheus_name(c.name()));
        help_line(&mut out, &name, c.name(), "counter");
        out.push_str(&format!("{name} {}\n", c.get()));
    }

    let mut gauges: Vec<_> = metrics::GAUGES.iter().copied().chain(reg.gauges()).collect();
    gauges.sort_by_key(|g| g.name());
    for g in gauges {
        let name = prometheus_name(g.name());
        help_line(&mut out, &name, g.name(), "gauge");
        out.push_str(&format!("{name} {}\n", g.get()));
    }

    let mut hists: Vec<_> = metrics::HISTOGRAMS.iter().copied().chain(reg.histograms()).collect();
    hists.sort_by_key(|h| h.name());
    for h in hists {
        render_histogram(&mut out, h);
    }

    let keys = slo::summary();
    if !keys.is_empty() {
        let label = |k: &slo::KeySummary| {
            format!(
                "engine=\"{}\",rung=\"{}\"",
                escape_label_value(k.engine),
                escape_label_value(k.rung)
            )
        };
        help_line(&mut out, "kgoa_slo_queries_total", "obs.slo (per key)", "counter");
        for k in &keys {
            out.push_str(&format!("kgoa_slo_queries_total{{{}}} {}\n", label(k), k.count));
        }
        help_line(&mut out, "kgoa_slo_breaches_total", "obs.slo (per key)", "counter");
        for k in &keys {
            out.push_str(&format!("kgoa_slo_breaches_total{{{}}} {}\n", label(k), k.breaches));
        }
        help_line(&mut out, "kgoa_slo_objective_us", "obs.slo (per key)", "gauge");
        for k in &keys {
            out.push_str(&format!("kgoa_slo_objective_us{{{}}} {}\n", label(k), k.objective_us));
        }
        help_line(&mut out, "kgoa_slo_latency_us", "obs.slo (per key)", "gauge");
        for k in &keys {
            for (q, v) in
                [("0.5", k.p50_us), ("0.95", k.p95_us), ("0.99", k.p99_us)]
            {
                out.push_str(&format!(
                    "kgoa_slo_latency_us{{{},quantile=\"{q}\"}} {v}\n",
                    label(k)
                ));
            }
        }
    }

    let quality_keys = quality::convergence_summary();
    if !quality_keys.is_empty() {
        let label = |k: &quality::ConvergenceSummary| {
            format!(
                "engine=\"{}\",rung=\"{}\"",
                escape_label_value(k.engine),
                escape_label_value(k.rung)
            )
        };
        help_line(&mut out, "kgoa_quality_runs_total", "obs.quality (per key)", "counter");
        for k in &quality_keys {
            out.push_str(&format!("kgoa_quality_runs_total{{{}}} {}\n", label(k), k.runs));
        }
        help_line(&mut out, "kgoa_quality_converged_total", "obs.quality (per key)", "counter");
        for k in &quality_keys {
            out.push_str(&format!(
                "kgoa_quality_converged_total{{{}}} {}\n",
                label(k),
                k.converged
            ));
        }
        help_line(&mut out, "kgoa_quality_time_to_ci_us", "obs.quality (per key)", "gauge");
        for k in &quality_keys {
            for (q, v) in [("0.5", k.p50_time_to_ci_us), ("0.95", k.p95_time_to_ci_us)] {
                out.push_str(&format!(
                    "kgoa_quality_time_to_ci_us{{{},quantile=\"{q}\"}} {v}\n",
                    label(k)
                ));
            }
        }
        help_line(&mut out, "kgoa_quality_ci_slope_per_sec", "obs.quality (per key)", "gauge");
        for k in &quality_keys {
            out.push_str(&format!(
                "kgoa_quality_ci_slope_per_sec{{{}}} {}\n",
                label(k),
                k.p50_slope_per_sec
            ));
        }
    }
    out
}

/// What [`check_exposition`] learned about a scrape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpositionSummary {
    /// Metric families seen (`# TYPE` lines).
    pub families: usize,
    /// Sample lines seen.
    pub samples: usize,
    /// Histogram families whose invariants were checked.
    pub histograms: usize,
}

fn valid_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// A parsed sample line: metric name, resolved labels, value.
type Sample = (String, Vec<(String, String)>, f64);

/// Split a sample line into `(name, labels, value)`. Labels come back
/// with escapes resolved.
fn parse_sample(line: &str) -> Result<Sample, String> {
    let err = |m: &str| format!("{m}: {line:?}");
    let (name_part, rest) = match line.find('{') {
        Some(open) => {
            let close =
                line.rfind('}').ok_or_else(|| err("unterminated label set"))?;
            if close < open {
                return Err(err("mismatched braces"));
            }
            (&line[..open], Some((&line[open + 1..close], &line[close + 1..])))
        }
        None => {
            let sp = line.find(' ').ok_or_else(|| err("missing value"))?;
            (&line[..sp], None)
        }
    };
    if !valid_metric_name(name_part) {
        return Err(err("invalid metric name"));
    }
    let (labels, value_part) = match rest {
        None => (Vec::new(), line[name_part.len()..].trim()),
        Some((labels_raw, tail)) => {
            let mut labels = Vec::new();
            let mut chars = labels_raw.chars().peekable();
            while chars.peek().is_some() {
                let mut key = String::new();
                for ch in chars.by_ref() {
                    if ch == '=' {
                        break;
                    }
                    key.push(ch);
                }
                if !valid_metric_name(key.trim()) {
                    return Err(err("invalid label name"));
                }
                if chars.next() != Some('"') {
                    return Err(err("label value must be quoted"));
                }
                let mut val = String::new();
                let mut closed = false;
                while let Some(ch) = chars.next() {
                    match ch {
                        '\\' => match chars.next() {
                            Some('\\') => val.push('\\'),
                            Some('"') => val.push('"'),
                            Some('n') => val.push('\n'),
                            _ => return Err(err("bad escape in label value")),
                        },
                        '"' => {
                            closed = true;
                            break;
                        }
                        other => val.push(other),
                    }
                }
                if !closed {
                    return Err(err("unterminated label value"));
                }
                labels.push((key.trim().to_string(), val));
                if chars.peek() == Some(&',') {
                    chars.next();
                }
            }
            (labels, tail.trim())
        }
    };
    let value: f64 = if value_part == "+Inf" {
        f64::INFINITY
    } else {
        value_part.parse().map_err(|_| err("unparseable value"))?
    };
    Ok((name_part.to_string(), labels, value))
}

/// Validate a Prometheus text exposition document: line syntax, `TYPE`
/// declared before its samples, and for every histogram family the
/// cumulative-bucket invariants (`le` buckets non-decreasing, the
/// `+Inf` bucket present and equal to `_count`).
pub fn check_exposition(text: &str) -> Result<ExpositionSummary, String> {
    use std::collections::HashMap;
    let mut types: HashMap<String, String> = HashMap::new();
    let mut samples = 0usize;
    // family -> (buckets in order, +inf, count, sum seen) keyed by
    // non-le label signature so labeled histograms check independently.
    #[derive(Default)]
    struct HistCheck {
        bounds: Vec<f64>,
        buckets: Vec<f64>,
        inf: Option<f64>,
        count: Option<f64>,
    }
    let mut hists: HashMap<(String, String), HistCheck> = HashMap::new();

    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.trim_start().splitn(3, ' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some("TYPE"), Some(name), Some(kind)) => {
                    if !valid_metric_name(name) {
                        return Err(format!("invalid name in TYPE line: {line:?}"));
                    }
                    if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped")
                    {
                        return Err(format!("unknown type {kind:?}: {line:?}"));
                    }
                    types.insert(name.to_string(), kind.to_string());
                }
                (Some("HELP"), Some(name), _) if valid_metric_name(name) => {}
                (Some("HELP"), _, _) => {
                    return Err(format!("invalid name in HELP line: {line:?}"));
                }
                _ => return Err(format!("malformed comment line: {line:?}")),
            }
            continue;
        }
        let (name, labels, value) = parse_sample(line)?;
        samples += 1;
        // Resolve the family: histogram samples use suffixed names.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .filter_map(|s| name.strip_suffix(s))
            .find(|f| types.get(*f).map(String::as_str) == Some("histogram"))
            .map(str::to_string);
        let declared = family.clone().unwrap_or_else(|| name.clone());
        if !types.contains_key(&declared) {
            return Err(format!("sample before TYPE declaration: {line:?}"));
        }
        if let Some(fam) = family {
            let sig: Vec<String> = labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let entry = hists.entry((fam, sig.join(","))).or_default();
            if name.ends_with("_bucket") {
                let le = labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .ok_or_else(|| format!("bucket without le label: {line:?}"))?;
                if le.1 == "+Inf" {
                    entry.inf = Some(value);
                } else {
                    let bound: f64 = le
                        .1
                        .parse()
                        .map_err(|_| format!("unparseable le bound: {line:?}"))?;
                    if entry.bounds.last().is_some_and(|prev| bound <= *prev) {
                        return Err(format!("le bounds out of order: {line:?}"));
                    }
                    entry.bounds.push(bound);
                    entry.buckets.push(value);
                }
            } else if name.ends_with("_count") {
                entry.count = Some(value);
            }
        }
    }

    for ((fam, sig), check) in &hists {
        for w in check.buckets.windows(2) {
            if w[1] < w[0] {
                return Err(format!("histogram {fam}{{{sig}}} buckets not cumulative"));
            }
        }
        let inf = check
            .inf
            .ok_or_else(|| format!("histogram {fam}{{{sig}}} missing +Inf bucket"))?;
        let count = check
            .count
            .ok_or_else(|| format!("histogram {fam}{{{sig}}} missing _count"))?;
        if inf != count {
            return Err(format!(
                "histogram {fam}{{{sig}}}: +Inf bucket {inf} != _count {count}"
            ));
        }
        if let Some(last) = check.buckets.last() {
            if *last > inf {
                return Err(format!("histogram {fam}{{{sig}}}: finite bucket above +Inf"));
            }
        }
    }

    Ok(ExpositionSummary { families: types.len(), samples, histograms: hists.len() })
}

#[cfg(feature = "obs-http")]
pub use server::ObsServer;

#[cfg(feature = "obs-http")]
mod server {
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::thread::JoinHandle;
    use std::time::Duration;

    use super::render_prometheus;
    use crate::json::Json;
    use crate::metrics;
    use crate::recorder::{Recorder, SERIES_SCHEMA};
    use crate::slo;
    use crate::snapshot::snapshot;
    use crate::watchdog::{self, Verdict, WatchdogConfig};

    /// Maximum request head we will buffer before answering 400.
    const MAX_REQUEST: usize = 8 * 1024;

    /// The scrape listener: a minimal single-threaded HTTP/1.1 server
    /// over `std::net`. See the [module docs](super) for the routes.
    pub struct ObsServer {
        addr: SocketAddr,
        stop: Arc<AtomicBool>,
        handle: Option<JoinHandle<()>>,
    }

    impl ObsServer {
        /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port)
        /// and start serving on a dedicated OS thread with the default
        /// watchdog thresholds.
        pub fn start(addr: impl ToSocketAddrs) -> std::io::Result<ObsServer> {
            Self::start_with(addr, WatchdogConfig::default())
        }

        /// [`start`](Self::start) with explicit watchdog thresholds
        /// for the `/healthz` evaluation.
        pub fn start_with(
            addr: impl ToSocketAddrs,
            watchdog: WatchdogConfig,
        ) -> std::io::Result<ObsServer> {
            let listener = TcpListener::bind(addr)?;
            let local = listener.local_addr()?;
            let stop = Arc::new(AtomicBool::new(false));
            let stop_flag = Arc::clone(&stop);
            let handle = std::thread::Builder::new()
                .name("kgoa-obs-http".into())
                .spawn(move || accept_loop(listener, &stop_flag, &watchdog))?;
            crate::events::info("export", format!("obs-http listening on {local}"));
            Ok(ObsServer { addr: local, stop, handle: Some(handle) })
        }

        /// The bound address (resolves the actual ephemeral port).
        pub fn local_addr(&self) -> SocketAddr {
            self.addr
        }

        /// Stop accepting and join the listener thread. Idempotent;
        /// also runs on drop.
        pub fn stop(&mut self) {
            if self.stop.swap(true, Ordering::Relaxed) {
                return;
            }
            // Wake the blocking accept with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
            if let Some(handle) = self.handle.take() {
                let _ = handle.join();
            }
        }
    }

    impl Drop for ObsServer {
        fn drop(&mut self) {
            self.stop();
        }
    }

    fn accept_loop(listener: TcpListener, stop: &AtomicBool, watchdog: &WatchdogConfig) {
        for conn in listener.incoming() {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            let Ok(stream) = conn else { continue };
            // One connection at a time: scrapes are rare and short;
            // serial handling keeps the server free of shared state.
            handle_connection(stream, watchdog);
        }
    }

    fn handle_connection(mut stream: TcpStream, watchdog: &WatchdogConfig) {
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        let head_end = loop {
            match stream.read(&mut chunk) {
                Ok(0) => return,
                Ok(n) => {
                    buf.extend_from_slice(&chunk[..n]);
                    if let Some(pos) =
                        buf.windows(4).position(|w| w == b"\r\n\r\n")
                    {
                        break pos;
                    }
                    if buf.len() > MAX_REQUEST {
                        respond(
                            &mut stream,
                            400,
                            "application/json",
                            &Json::Obj(vec![(
                                "error".into(),
                                Json::str("request too large"),
                            )])
                            .render(),
                        );
                        return;
                    }
                }
                Err(_) => return,
            }
        };
        let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
        let mut parts = head.lines().next().unwrap_or("").split_whitespace();
        let (method, path) =
            (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
        metrics::HTTP_REQUESTS.inc();
        if method != "GET" {
            respond(
                &mut stream,
                405,
                "application/json",
                &Json::Obj(vec![("error".into(), Json::str("method not allowed"))]).render(),
            );
            return;
        }
        route(&mut stream, path, watchdog);
    }

    fn route(stream: &mut TcpStream, path: &str, watchdog: &WatchdogConfig) {
        match path {
            "/metrics" => respond(
                stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &render_prometheus(),
            ),
            "/snapshot" => {
                respond(stream, 200, "application/json", &snapshot().to_json().pretty(2));
            }
            "/series" => {
                let body = match Recorder::global() {
                    Some(rec) => rec.to_json().pretty(2),
                    None => Json::Obj(vec![
                        ("schema".into(), Json::str(SERIES_SCHEMA)),
                        ("tick_us".into(), Json::Num(0.0)),
                        ("capacity".into(), Json::Num(0.0)),
                        ("dropped".into(), Json::Num(0.0)),
                        ("windows".into(), Json::Arr(Vec::new())),
                    ])
                    .pretty(2),
                };
                respond(stream, 200, "application/json", &body);
            }
            "/healthz" => {
                let report = watchdog::tick_global(watchdog);
                let code = if report.verdict == Verdict::Unhealthy { 503 } else { 200 };
                respond(stream, code, "application/json", &report.to_json().pretty(2));
            }
            "/quality" => {
                respond(stream, 200, "application/json", &crate::quality::summary_json().pretty(2));
            }
            _ => {
                if let Some(id) = path.strip_prefix("/profilez/") {
                    match id.parse::<u64>().ok().and_then(slo::profile_json) {
                        Some(profile) => {
                            respond(stream, 200, "application/json", &profile.pretty(2));
                            return;
                        }
                        None => {
                            respond(
                                stream,
                                404,
                                "application/json",
                                &Json::Obj(vec![(
                                    "error".into(),
                                    Json::str("no captured profile for that trace id"),
                                )])
                                .render(),
                            );
                            return;
                        }
                    }
                }
                respond(
                    stream,
                    404,
                    "application/json",
                    &Json::Obj(vec![("error".into(), Json::str("unknown path"))]).render(),
                );
            }
        }
    }

    fn respond(stream: &mut TcpStream, code: u16, content_type: &str, body: &str) {
        let reason = match code {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            503 => "Service Unavailable",
            _ => "Unknown",
        };
        let head = format!(
            "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        let _ = stream.write_all(head.as_bytes());
        let _ = stream.write_all(body.as_bytes());
        let _ = stream.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    #[test]
    fn names_and_labels_escape() {
        assert_eq!(prometheus_name("index.trie.seeks"), "kgoa_index_trie_seeks");
        assert_eq!(prometheus_name("a-b c"), "kgoa_a_b_c");
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        // Escaped values survive the round trip through the parser.
        let line = format!(
            "m_total{{k=\"{}\"}} 1",
            escape_label_value("a\"b\\c\nd")
        );
        let (_, labels, _) = parse_sample(&line).unwrap();
        assert_eq!(labels, vec![("k".to_string(), "a\"b\\c\nd".to_string())]);
    }

    #[test]
    fn empty_histogram_has_well_defined_exposition() {
        let h = Histogram::new("test.exposition.empty");
        let mut out = String::new();
        render_histogram(&mut out, &h);
        let name = "kgoa_test_exposition_empty";
        assert!(out.contains(&format!("{name}_bucket{{le=\"+Inf\"}} 0\n")));
        assert!(out.contains(&format!("{name}_sum 0\n")));
        assert!(out.contains(&format!("{name}_count 0\n")));
        check_exposition(&out).expect("empty histogram exposition is valid");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_inf_matches_count() {
        let _guard = crate::metrics::test_lock();
        let h = Histogram::new("test.exposition.filled");
        crate::set_enabled(true);
        for v in [0u64, 1, 1, 3, 700] {
            h.record(v);
        }
        crate::set_enabled(false);
        let mut out = String::new();
        render_histogram(&mut out, &h);
        let summary = check_exposition(&out).expect("valid exposition");
        assert_eq!(summary.histograms, 1);
        // Monotonicity + terminal bucket by hand, independent of the
        // parser: cumulative counts along the bucket lines.
        let counts: Vec<u64> = out
            .lines()
            .filter(|l| l.contains("_bucket{le=") && !l.contains("+Inf"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(!counts.is_empty());
        assert!(counts.windows(2).all(|w| w[1] >= w[0]), "buckets must be cumulative");
        let inf: u64 = out
            .lines()
            .find(|l| l.contains("le=\"+Inf\""))
            .and_then(|l| l.rsplit(' ').next())
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(inf, h.count(), "+Inf bucket equals _count");
        assert_eq!(*counts.last().unwrap(), h.count(), "all samples are below bucket 63");
    }

    #[test]
    fn render_racing_a_recorder_stays_valid() {
        // One thread records across many buckets while another renders;
        // every render must pass the exposition checks (reading the count
        // apart from the buckets lets a racing record put a finite bucket
        // above +Inf).
        let h = Histogram::new("test.exposition.racing");
        let stop = std::sync::atomic::AtomicBool::new(false);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                let mut v = 1u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    h.record_always(v >> (v % 41));
                    v = v.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                }
            });
            start.wait();
            for i in 0..2_000 {
                let mut out = String::new();
                render_histogram(&mut out, &h);
                if let Err(e) = check_exposition(&out) {
                    stop.store(true, std::sync::atomic::Ordering::Relaxed);
                    panic!("render {i} invalid: {e}\n{out}");
                }
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        assert!(h.count() > 0, "the recorder ran");
    }

    #[test]
    fn full_render_round_trips_through_parser() {
        let _guard = crate::metrics::test_lock();
        crate::reset();
        crate::set_enabled(true);
        metrics::TRIE_SEEKS.add(12);
        metrics::POOL_QUEUE_DEPTH.set(2);
        metrics::SUPERVISE_NS.record(4096);
        crate::set_enabled(false);
        crate::slo::arm(crate::slo::SloPolicy {
            objective: std::time::Duration::from_micros(1),
            overrides: Vec::new(),
            capture: false,
        });
        crate::events::set_stderr_level(None);
        crate::slo::record(
            "supervisor",
            "exact",
            std::time::Duration::from_millis(2),
            Some(1),
        );
        crate::events::set_stderr_level(Some(crate::events::Level::Warn));
        let text = render_prometheus();
        let summary = check_exposition(&text).expect("full render must parse");
        assert!(summary.families > 10);
        assert!(summary.samples > summary.families);
        assert!(text.contains("kgoa_index_trie_seeks_total 12\n"));
        assert!(text.contains("kgoa_core_pool_queue_depth 2\n"));
        assert!(
            text.contains("kgoa_slo_breaches_total{engine=\"supervisor\",rung=\"exact\"} 1\n")
        );
        crate::slo::disarm();
        crate::reset();
    }

    #[test]
    fn armed_quality_plane_exports_labeled_series() {
        let _guard = crate::metrics::test_lock();
        crate::reset();
        crate::quality::disarm();
        crate::quality::arm(crate::quality::QualityPolicy::default());
        crate::quality::record_convergence(
            "parallel",
            "audit_join",
            &[crate::trace::TracePoint {
                walks: 256,
                estimate: 100.0,
                ci_half_width: 2.0,
                elapsed: std::time::Duration::from_micros(750),
            }],
        );
        let text = render_prometheus();
        check_exposition(&text).expect("quality series must parse");
        assert!(text.contains(
            "kgoa_quality_runs_total{engine=\"parallel\",rung=\"audit_join\"} 1\n"
        ));
        assert!(text.contains(
            "kgoa_quality_time_to_ci_us{engine=\"parallel\",rung=\"audit_join\",quantile=\"0.5\"}"
        ));
        crate::quality::disarm();
        crate::reset();
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(check_exposition("no_type_line 1\n").is_err(), "sample before TYPE");
        assert!(check_exposition("# TYPE m wrongkind\nm 1\n").is_err());
        assert!(check_exposition("# TYPE 9bad counter\n").is_err());
        let unterminated = "# TYPE m counter\nm_total{k=\"v} 1\n";
        assert!(check_exposition(unterminated).is_err());
        let non_cumulative = "# TYPE h histogram\n\
             h_bucket{le=\"1\"} 5\nh_bucket{le=\"3\"} 2\n\
             h_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n";
        assert!(check_exposition(non_cumulative).unwrap_err().contains("not cumulative"));
        let inf_mismatch = "# TYPE h histogram\n\
             h_bucket{le=\"+Inf\"} 4\nh_sum 9\nh_count 5\n";
        assert!(check_exposition(inf_mismatch).unwrap_err().contains("+Inf"));
        let no_inf = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n";
        assert!(check_exposition(no_inf).unwrap_err().contains("missing +Inf"));
    }
}
