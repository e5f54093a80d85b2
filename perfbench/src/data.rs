//! Set-up: the two paper-shaped datasets at `Scale::Small`, their
//! four-order indexes and the live-update epoch manager.
//!
//! The datasets come from the `kgoa-datagen` presets, whose own seeds are
//! fixed: every benchmark seed sees the same graphs (dbpedia-like 67,680
//! triples, lgd-like 108,782), and `--seed` varies the exploration
//! sessions, estimator streams and writer slices instead.

use std::sync::Arc;
use std::time::Instant;

use kgoa_core::{EpochConfig, EpochManager};
use kgoa_datagen::{generate, KgConfig, Scale};
use kgoa_index::IndexedGraph;

/// One indexed dataset.
pub struct Dataset {
    /// Short name used in reports and metric names.
    pub name: &'static str,
    /// The graph with its four paper-order indexes.
    pub ig: IndexedGraph,
}

/// Everything set-up produces.
pub struct Setup {
    /// dbpedia-like, then lgd-like: one copy per set-up repetition. The
    /// copies hold the same graphs at different heap addresses; the
    /// workloads rotate over them so that one run averages over memory
    /// placements instead of drawing one (placement alone moved the
    /// median chart latency by up to 25% between copies).
    pub copies: Vec<Vec<Dataset>>,
    /// The lgd-like graph behind an epoch manager with the default
    /// configuration (merge at 4,096 delta rows).
    pub live: Arc<EpochManager>,
    /// Wall time of each set-up repetition, in seconds.
    pub times_s: Vec<f64>,
}

/// Index of the lgd-like dataset in [`Setup::datasets`].
pub const LGD: usize = 1;

impl Setup {
    /// The first copy of the datasets.
    pub fn datasets(&self) -> &[Dataset] {
        &self.copies[0]
    }
}

/// Generate and index both datasets and wrap lgd-like in an epoch
/// manager, `reps` times over, keeping every copy of the datasets and the
/// last manager. Repeating also lets the reported set-up time be a median
/// rather than one noisy sample.
pub fn setup(reps: usize) -> Setup {
    let mut times_s = Vec::with_capacity(reps);
    let mut copies = Vec::with_capacity(reps);
    let mut live = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let datasets = vec![
            Dataset {
                name: "dbpedia",
                ig: IndexedGraph::build(generate(&KgConfig::dbpedia_like(Scale::Small))),
            },
            Dataset {
                name: "lgd",
                ig: IndexedGraph::build(generate(&KgConfig::lgd_like(Scale::Small))),
            },
        ];
        live = Some(EpochManager::new(
            datasets[LGD].ig.clone(),
            EpochConfig::default(),
        ));
        times_s.push(t.elapsed().as_secs_f64());
        copies.push(datasets);
    }
    Setup {
        copies,
        live: live.expect("at least one set-up repetition"),
        times_s,
    }
}

/// Index heap bytes per triple over the given graphs.
pub fn bytes_per_triple(graphs: &[&IndexedGraph]) -> f64 {
    let bytes: usize = graphs.iter().map(|g| g.memory_bytes()).sum();
    let triples: usize = graphs.iter().map(|g| g.len()).sum();
    bytes as f64 / triples as f64
}
