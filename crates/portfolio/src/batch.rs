//! Batched synthesis: many independent problems over the worker pool.
//!
//! The paper's experiment grid (twelve Table 3 rows, twelve Table 4
//! rows, sweep curves) is embarrassingly parallel across rows; this
//! module spreads the rows over [`crate::run_indexed`] while each row
//! runs one back end on its worker, so `jobs` bounds total solver
//! threads. Results come back in input order and, with a cache attached,
//! repeated grids are served from content-addressed hits.

use std::time::Instant;

use troyhls::{SolveOptions, SynthesisError, SynthesisProblem};

use crate::backend::{synthesize_isolated, Backend, PortfolioResult};
use crate::cache::{cache_key, ResultCache};
use crate::pool::run_indexed;

/// How a batch runs.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Worker threads for the pool (clamped to the number of problems).
    pub jobs: usize,
    /// The back end every row runs; its [`Backend::name`] is the
    /// rows' cache-key tag.
    pub backend: Backend,
    /// Per-problem budget (its `cancel` token is the whole batch's
    /// parent: cancelling it stops every row).
    pub options: SolveOptions,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            jobs: default_jobs(),
            backend: Backend::Exact,
            options: SolveOptions::default(),
        }
    }
}

/// Default worker count: the `TROY_JOBS` environment variable when set
/// to a positive integer, otherwise the machine's available parallelism.
#[must_use]
pub fn default_jobs() -> usize {
    std::env::var("TROY_JOBS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
}

/// Solves every problem in `problems`, in input order, over up to
/// `config.jobs` workers; `cache` (when given) is consulted before and
/// populated after each solve.
#[must_use]
pub fn solve_batch(
    problems: &[SynthesisProblem],
    config: &BatchConfig,
    cache: Option<&ResultCache>,
) -> Vec<Result<PortfolioResult, SynthesisError>> {
    run_indexed(config.jobs, problems.len(), |i| {
        solve_one(&problems[i], config, cache)
    })
}

fn solve_one(
    problem: &SynthesisProblem,
    config: &BatchConfig,
    cache: Option<&ResultCache>,
) -> Result<PortfolioResult, SynthesisError> {
    let key = cache_key(problem, config.backend.name(), &config.options);
    if let Some(hit) = cache.and_then(|c| c.lookup(&key, problem)) {
        return Ok(hit);
    }
    let options = config
        .options
        .clone()
        .with_cancel(config.options.cancel.child());
    let t0 = Instant::now();
    let result = synthesize_isolated(config.backend, problem, &options)
        .map(|s| PortfolioResult::fresh(config.backend, s, t0.elapsed()));
    if let (Some(cache), Ok(r)) = (cache, &result) {
        cache.store(&key, r);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use troy_dfg::benchmarks;
    use troyhls::{Catalog, Mode};

    fn quick_problems() -> Vec<SynthesisProblem> {
        ["polynom", "diff2"]
            .into_iter()
            .map(|name| {
                let dfg = benchmarks::by_name(name).expect("known benchmark");
                let cp = dfg.critical_path_len();
                SynthesisProblem::builder(dfg, Catalog::paper8())
                    .mode(Mode::DetectionOnly)
                    .detection_latency(cp + 1)
                    .build()
                    .expect("well-formed")
            })
            .collect()
    }

    #[test]
    fn batch_solves_every_problem_in_order() {
        let problems = quick_problems();
        let config = BatchConfig {
            jobs: 2,
            backend: Backend::Greedy,
            options: SolveOptions::quick(),
        };
        let results = solve_batch(&problems, &config, None);
        assert_eq!(results.len(), problems.len());
        for (problem, result) in problems.iter().zip(&results) {
            let r = result.as_ref().expect("unconstrained rows are feasible");
            assert!(troyhls::validate(problem, &r.synthesis.implementation).is_empty());
            assert_eq!(r.winner, Backend::Greedy);
            assert!(!r.from_cache);
        }
    }

    #[test]
    fn second_batch_run_is_served_from_cache() {
        let problems = quick_problems();
        let config = BatchConfig {
            jobs: 1,
            backend: Backend::Greedy,
            options: SolveOptions::quick(),
        };
        let cache = ResultCache::in_memory();
        let cold = solve_batch(&problems, &config, Some(&cache));
        assert!(cold
            .iter()
            .all(|r| !r.as_ref().expect("feasible").from_cache));
        assert_eq!(cache.len(), problems.len());

        let warm = solve_batch(&problems, &config, Some(&cache));
        for (c, w) in cold.iter().zip(&warm) {
            let (c, w) = (c.as_ref().expect("feasible"), w.as_ref().expect("feasible"));
            assert!(w.from_cache);
            assert_eq!(c.synthesis.cost, w.synthesis.cost);
            assert_eq!(c.synthesis.implementation, w.synthesis.implementation);
        }
    }

    #[test]
    fn env_override_parses_defensively() {
        // default_jobs() must never return zero whatever the env holds;
        // the env itself is process-global, so only the floor is pinned.
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn default_rows_key_under_the_exact_tag() {
        // The tag is part of every on-disk batch key: changing it would
        // orphan existing cache directories.
        assert_eq!(BatchConfig::default().backend.name(), "exact");
    }
}
