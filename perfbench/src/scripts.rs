//! Scripted exploration sessions: the paper's §V-B random-exploration
//! generator, recorded as replayable scripts.
//!
//! [`build`] walks the same random process as
//! [`kgoa_explore::generate_explorations`] — same RNG stream, same
//! uniform expansion choice, same size-weighted bar choice, same stop on
//! an empty chart — but keeps every session's path (expansion and the
//! chosen bar per step) instead of only the distinct queries, together
//! with each distinct query's Yannakakis ground truth. The tests pin the
//! distinct query list to the generator's output for the same seed, so
//! the replayed workload stays the paper's.

use kgoa_engine::{CountEngine, GroupedCounts, YannakakisEngine};
use kgoa_explore::{Expansion, GeneratorConfig, Session};
use kgoa_index::IndexedGraph;
use kgoa_query::ExplorationQuery;
use kgoa_rdf::TermId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One distinct exploration query with its ground truth.
pub struct Query {
    /// Dataset index.
    pub dataset: usize,
    /// 1-based step at which the generator first produced it.
    pub step: usize,
    /// The query (distinct counting, as sessions issue it).
    pub query: ExplorationQuery,
    /// Exact per-bar counts (Yannakakis).
    pub truth: GroupedCounts,
}

/// One step of a scripted session.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// The expansion the user clicks.
    pub expansion: Expansion,
    /// Index of the resulting query in [`Scripts::queries`].
    pub query: usize,
    /// The bar the user selects afterwards.
    pub pick: TermId,
}

/// One scripted session, starting at the root class bar.
pub struct Script {
    /// Dataset index.
    pub dataset: usize,
    /// The generator run that produced it.
    pub run: usize,
    /// The session's steps, in order.
    pub steps: Vec<Step>,
}

/// The scripted workload over one or more datasets.
#[derive(Default)]
pub struct Scripts {
    /// Distinct queries in generation order, per dataset in turn.
    pub queries: Vec<Query>,
    /// Sessions in generation order, per dataset in turn.
    pub scripts: Vec<Script>,
}

impl Scripts {
    /// Total chart expansions over all sessions.
    pub fn charts(&self) -> usize {
        self.scripts.iter().map(|s| s.steps.len()).sum()
    }
}

/// Record `config.runs` sessions on `ig` (dataset index `dataset`) into
/// `out`, mirroring `generate_explorations(ig, &YannakakisEngine, config)`.
pub fn build(out: &mut Scripts, dataset: usize, ig: &IndexedGraph, config: GeneratorConfig) {
    let first = out.queries.len();
    let mut rng = SmallRng::seed_from_u64(config.seed);
    for run in 0..config.runs {
        let mut session = Session::root(ig);
        let mut steps = Vec::new();
        for step in 1..=config.max_steps {
            let valid = session.valid_expansions();
            let expansion = valid[rng.gen_range(0..valid.len())];
            let query = session.expansion_query(expansion).expect("valid expansion");
            let qi = match out.queries[first..].iter().position(|q| q.query == query) {
                Some(i) => first + i,
                None => {
                    let truth = YannakakisEngine.evaluate(ig, &query).expect("ground truth");
                    if truth.is_empty() {
                        break; // the generator drops empty charts and ends the path
                    }
                    out.queries.push(Query {
                        dataset,
                        step,
                        query,
                        truth,
                    });
                    out.queries.len() - 1
                }
            };
            let bars = out.queries[qi].truth.sorted_desc();
            let total: u64 = bars.iter().map(|(_, c)| c).sum();
            let mut pick = rng.gen_range(0..total);
            let mut chosen = bars[0].0;
            for (cat, c) in &bars {
                if pick < *c {
                    chosen = *cat;
                    break;
                }
                pick -= c;
            }
            session.select(chosen).expect("a chart is pending");
            steps.push(Step {
                expansion,
                query: qi,
                pick: chosen,
            });
        }
        if !steps.is_empty() {
            out.scripts.push(Script {
                dataset,
                run,
                steps,
            });
        }
    }
}

/// Indices of the distinct queries that the first `runs` generator runs
/// on `dataset` produced, in generation order: the workload
/// `generate_explorations` yields with `runs` runs.
pub fn queries_of_runs(scripts: &Scripts, dataset: usize, runs: usize) -> Vec<usize> {
    let mut out: Vec<usize> = scripts
        .scripts
        .iter()
        .filter(|s| s.dataset == dataset && s.run < runs)
        .flat_map(|s| s.steps.iter().map(|st| st.query))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgoa_datagen::{generate, KgConfig, Scale};
    use kgoa_explore::generate_explorations;

    fn same_queries_as_generator(ig: &IndexedGraph, config: GeneratorConfig) {
        let mut scripts = Scripts::default();
        build(&mut scripts, 0, ig, config);
        let generated = generate_explorations(ig, &YannakakisEngine, config).unwrap();
        assert_eq!(
            scripts.queries.len(),
            generated.len(),
            "distinct query count"
        );
        for (s, g) in scripts.queries.iter().zip(&generated) {
            assert_eq!(s.query, g.query);
            assert_eq!(s.step, g.step);
        }
        // Every script step names a query whose chart holds the picked bar.
        for script in &scripts.scripts {
            for step in &script.steps {
                assert!(scripts.queries[step.query].truth.get(step.pick) > 0);
            }
        }
    }

    #[test]
    fn matches_generator_on_both_presets_and_several_seeds() {
        for config in [
            KgConfig::dbpedia_like(Scale::Tiny),
            KgConfig::lgd_like(Scale::Tiny),
        ] {
            let ig = IndexedGraph::build(generate(&config));
            for seed in [1, 2, 0x5EED] {
                same_queries_as_generator(
                    &ig,
                    GeneratorConfig {
                        runs: 25,
                        max_steps: 4,
                        seed,
                    },
                );
            }
        }
    }

    #[test]
    fn first_runs_of_a_longer_build_are_the_shorter_workload() {
        let ig = IndexedGraph::build(generate(&KgConfig::dbpedia_like(Scale::Tiny)));
        let short = GeneratorConfig {
            runs: 25,
            max_steps: 4,
            seed: 3,
        };
        let mut long = Scripts::default();
        build(&mut long, 0, &ig, GeneratorConfig { runs: 100, ..short });
        let generated = generate_explorations(&ig, &YannakakisEngine, short).unwrap();
        let prefix = queries_of_runs(&long, 0, short.runs);
        assert_eq!(prefix.len(), generated.len());
        for (&qi, g) in prefix.iter().zip(&generated) {
            assert_eq!(long.queries[qi].query, g.query);
        }
    }

    #[test]
    fn matches_generator_at_benchmark_scale() {
        let ig = IndexedGraph::build(generate(&KgConfig::lgd_like(Scale::Small)));
        same_queries_as_generator(
            &ig,
            GeneratorConfig {
                runs: 25,
                max_steps: 4,
                seed: 7,
            },
        );
    }
}
