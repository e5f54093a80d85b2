//! `kgoa-perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! kgoa-perfbench --workload static-explore|live-explore \
//!                --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run sets up both `Scale::Small` datasets, records the §V-B
//! random-exploration workload as scripted sessions, and measures the
//! named workload for `--seconds`. `--seed` drives the replay order of
//! the sessions and queries and the writer's slices; the session
//! population and each query's estimator seeds are fixed, so that runs on
//! different seeds measure the same work (see `METRICS.md` for why).
//! Both workloads take turns between chart sessions and online queries:
//! `static-explore` on the static graphs, `live-explore` with the charts
//! read from a live graph while a writer appends and merges run. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. A wrong exact chart, a wrong estimate bar or
//! a lost or duplicated triple makes `correct` false and the exit code 1.
//!
//! The traced run measures the named workload twice, untraced and then
//! traced, to report the tracing overhead; it writes its spans (JSON
//! lines) and a text report under `$CARGO_TARGET_DIR/perfbench/`.

mod charts;
mod data;
mod live;
mod online;
mod probes;
mod report;
mod scripts;
mod stats;
mod trace;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use kgoa_core::{EpochConfig, EpochManager, SupervisorConfig};
use kgoa_explore::{GeneratorConfig, GovernedChart, Session};

use crate::charts::{ChartRun, Explorer};
use crate::data::{Dataset, Setup, LGD};
use crate::live::LiveRun;
use crate::online::OnlineRun;
use crate::scripts::{Scripts, Step};
use crate::trace::Tracer;

const USAGE: &str = "usage: kgoa-perfbench --workload static-explore|live-explore \
                     --seed N --seconds S --trace 0|1";

/// Set-up repetitions; `setup_s` is their median, and the static reads
/// rotate over the copies they build.
const SETUP_REPS: usize = 4;
/// Generator runs (sessions) per dataset replayed by the chart workloads.
const SESSIONS: usize = 100;
/// Generator runs per dataset whose distinct queries form the online
/// workload (the paper's 25).
const ONLINE_RUNS: usize = 25;
/// Writer seed of the traced `static-explore` run's writer slice.
const WRITER_SLICE_SEED: u64 = 0x5EED;
/// Length of that writer slice (the writer alone), in s: about 200
/// appends and 5 merges for the epoch-layer metrics.
const WRITER_SLICE_S: f64 = 10.0;

/// The two workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop on both static datasets: exact charts and online
    /// queries (Audit Join time-to-error, Wander Join throughput) in turn.
    Static,
    /// Charts on lgd-like while a writer appends and merges run.
    Live,
}

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "static-explore" => Workload::Static,
                    "live-explore" => Workload::Live,
                    w => return Err(format!("unknown workload {w:?}")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
                })
            }
            f => return Err(format!("unknown flag {f:?}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The scripted workload.
pub struct Inputs {
    /// Sessions and distinct queries on both datasets.
    pub scripts: Scripts,
    /// Sessions on both datasets, interleaved.
    pub sessions: Vec<usize>,
    /// Sessions on lgd-like only.
    pub lgd_sessions: Vec<usize>,
    /// The online queries: distinct queries of the first
    /// [`ONLINE_RUNS`] runs per dataset, interleaved.
    pub queries: Vec<usize>,
}

fn inputs(datasets: &[Dataset]) -> Inputs {
    let mut scripts = Scripts::default();
    let config = GeneratorConfig {
        runs: SESSIONS,
        ..GeneratorConfig::default()
    };
    for (i, d) in datasets.iter().enumerate() {
        scripts::build(&mut scripts, i, &d.ig, config);
    }
    let per: Vec<Vec<usize>> = (0..datasets.len())
        .map(|d| {
            (0..scripts.scripts.len())
                .filter(|&i| scripts.scripts[i].dataset == d)
                .collect()
        })
        .collect();
    let sessions = interleave(&per);
    let lgd_sessions = per[LGD].clone();
    let queries = interleave(
        &(0..datasets.len())
            .map(|d| scripts::queries_of_runs(&scripts, d, ONLINE_RUNS))
            .collect::<Vec<_>>(),
    );
    Inputs {
        scripts,
        sessions,
        lgd_sessions,
        queries,
    }
}

/// `order` shuffled by `seed` (Fisher–Yates).
fn shuffled(order: &[usize], seed: u64) -> Vec<usize> {
    let mut v = order.to_vec();
    for i in (1..v.len()).rev() {
        v.swap(i, (online::mix(seed, i as u64) % (i as u64 + 1)) as usize);
    }
    v
}

/// Round-robin over several lists.
fn interleave(lists: &[Vec<usize>]) -> Vec<usize> {
    let longest = lists.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| lists.iter().filter_map(move |l| l.get(i).copied()))
        .collect()
}

/// Static datasets; exact charts are checked against ground truth inline.
/// Session `n` reads `copies[n % copies.len()]`.
struct StaticExplorer<'a> {
    copies: &'a [Vec<Dataset>],
    scripts: &'a Scripts,
    opened: usize,
}

impl Explorer for StaticExplorer<'_> {
    fn open(&mut self, dataset: usize) -> Session<'_> {
        self.opened += 1;
        Session::root(&self.copies[self.opened % self.copies.len()][dataset].ig)
    }

    fn config(&mut self) -> SupervisorConfig {
        SupervisorConfig::default()
    }

    fn check(
        &mut self,
        step: &Step,
        chart: &GovernedChart,
        _epoch: Option<u64>,
    ) -> Result<(), String> {
        if chart.is_exact() && chart.chart != charts::truth_chart(self.scripts, step) {
            return Err(format!(
                "exact chart for query {} differs from Yannakakis",
                step.query
            ));
        }
        Ok(())
    }
}

/// Everything one pass over a workload measured.
#[derive(Default)]
pub struct Measured {
    /// Static chart replay.
    pub exact: Option<ChartRun>,
    /// Online time-to-error.
    pub online: Option<OnlineRun>,
    /// Live-explore.
    pub live: Option<LiveRun>,
}

/// Chart sessions through `ex` and online queries on the static `copies`
/// in turn, each in its order, cycling. Whichever of the two has had less
/// clock time goes next, so each gets half of `seconds`, spread over the
/// whole run.
#[allow(clippy::too_many_arguments)]
pub fn take_turns(
    ex: &mut impl Explorer,
    copies: &[Vec<Dataset>],
    scripts: &Scripts,
    sessions: &[usize],
    queries: &[usize],
    seconds: f64,
    tr: &mut Tracer,
    ids: &mut u64,
) -> (ChartRun, OnlineRun) {
    let mut charts = ChartRun::default();
    let mut online = OnlineRun::default();
    let mut online_s = 0.0;
    let (mut s, mut q) = (0, 0);
    while charts.wall_s.min(online_s) < seconds / 2.0 {
        if charts.wall_s <= online_s {
            let si = sessions[s % sessions.len()];
            charts.absorb(charts::replay(ex, scripts, si, tr, ids));
            s += 1;
        } else {
            let qi = queries[q % queries.len()];
            let run = online::run(copies, scripts, qi, tr, ids);
            online_s += run.samples.iter().map(|x| x.clock_ms).sum::<f64>() / 1e3;
            online.absorb(run);
            q += 1;
        }
    }
    (charts, online)
}

fn fresh_manager(setup: &Setup) -> Arc<EpochManager> {
    EpochManager::new(setup.datasets()[LGD].ig.clone(), EpochConfig::default())
}

/// The named workload for `seconds`, in the seed's replay order, into its
/// fields of `m`.
#[allow(clippy::too_many_arguments)]
fn primary(
    m: &mut Measured,
    w: Workload,
    setup: &Setup,
    mgr: &Arc<EpochManager>,
    inp: &Inputs,
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    ids: &mut u64,
) {
    match w {
        Workload::Static => {
            let mut ex = StaticExplorer {
                copies: &setup.copies,
                scripts: &inp.scripts,
                opened: 0,
            };
            let (charts, online) = take_turns(
                &mut ex,
                &setup.copies,
                &inp.scripts,
                &shuffled(&inp.sessions, seed),
                &shuffled(&inp.queries, seed),
                seconds,
                tr,
                ids,
            );
            m.exact = Some(charts);
            m.online = Some(online);
        }
        Workload::Live => {
            let base = &setup.datasets()[LGD].ig;
            let mut live = live::run(
                mgr,
                base,
                &setup.copies,
                &inp.scripts,
                &shuffled(&inp.lgd_sessions, seed),
                &shuffled(&inp.queries, seed),
                seed,
                seconds,
                tr,
                ids,
            );
            m.online = Some(std::mem::take(&mut live.online));
            m.live = Some(live);
        }
    }
}

/// The writer alone on a fresh manager, for the epoch layer's metrics
/// when the named workload is `static-explore`.
fn writer_slice(m: &mut Measured, setup: &Setup, inp: &Inputs, tr: &mut Tracer, ids: &mut u64) {
    if m.live.is_none() {
        let mgr = fresh_manager(setup);
        let base = &setup.datasets()[LGD].ig;
        let live = live::run(
            &mgr,
            base,
            &setup.copies,
            &inp.scripts,
            &[],
            &[],
            WRITER_SLICE_SEED,
            WRITER_SLICE_S,
            tr,
            ids,
        );
        m.live = Some(live);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let t = Instant::now();
    let setup = data::setup(SETUP_REPS);
    eprintln!("set-up: {:?} s", setup.times_s);
    let t_prep = Instant::now();
    let inp = inputs(setup.datasets());
    eprintln!(
        "prep: {} sessions, {} charts, {} distinct queries, {} online queries in {:.2} s",
        inp.scripts.scripts.len(),
        inp.scripts.charts(),
        inp.scripts.queries.len(),
        inp.queries.len(),
        t_prep.elapsed().as_secs_f64()
    );

    let mut ids = 0u64;
    let out = if opts.trace {
        let mut untraced = Tracer::new(false, Instant::now());
        let mut base = Measured::default();
        primary(
            &mut base,
            opts.workload,
            &setup,
            &setup.live,
            &inp,
            opts.seed,
            opts.seconds,
            &mut untraced,
            &mut ids,
        );
        kgoa_obs::reset();
        kgoa_obs::set_enabled(true);
        let mut tr = Tracer::new(true, Instant::now());
        let mgr = fresh_manager(&setup);
        let mut m = Measured::default();
        primary(
            &mut m,
            opts.workload,
            &setup,
            &mgr,
            &inp,
            opts.seed,
            opts.seconds,
            &mut tr,
            &mut ids,
        );
        let overhead = report::overhead(opts.workload, &base, &m);
        writer_slice(&mut m, &setup, &inp, &mut tr, &mut ids);
        kgoa_obs::set_enabled(false);
        let mut out = report::traced(opts.workload, opts.seed, &setup, &inp, &m, &tr, overhead);
        out.mismatches.extend(report::wrong_outputs(&base));
        out
    } else {
        let mut tr = Tracer::new(false, Instant::now());
        let mut m = Measured::default();
        primary(
            &mut m,
            opts.workload,
            &setup,
            &setup.live,
            &inp,
            opts.seed,
            opts.seconds,
            &mut tr,
            &mut ids,
        );
        report::end_to_end(opts.workload, &setup, &m)
    };
    eprintln!("total run time {:.1} s", t.elapsed().as_secs_f64());
    for e in &out.mismatches {
        eprintln!("WRONG OUTPUT: {e}");
    }
    println!("{}", out.json());
    if out.mismatches.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let o = parse(&args(
            "--workload live-explore --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload, Workload::Live);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload exact-explore --seed 1 --seconds 1 --trace 0",
            "--workload static-explore --seed x --seconds 1 --trace 0",
            "--workload static-explore --seed 1 --seconds 0 --trace 0",
            "--workload static-explore --seed 1 --seconds 1 --trace 2",
            "--workload static-explore --seconds 1",
            "--workload",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let order: Vec<usize> = (0..50).collect();
        let a = shuffled(&order, 1);
        assert_eq!(a, shuffled(&order, 1));
        assert_ne!(a, shuffled(&order, 2));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, order);
    }

    #[test]
    fn interleave_alternates_and_keeps_tails() {
        assert_eq!(interleave(&[vec![1, 2, 3], vec![10]]), vec![1, 10, 2, 3]);
    }
}
