//! In-process replay of a workload's inputs for the traced run.
//!
//! The replay runs on one thread and calls the same public functions a
//! request path calls, in the same order, with a span around each:
//!
//! - a daemon `synth` frame follows `handle_synth`:
//!   `parse_request` → `build_problem` → `cache_key` → `ResultCache::lookup`;
//!   on a miss `supervise` (one child span per rung attempt, read from its
//!   `Degradation`) → `troyhls::validate` → `ResultCache::store`; then
//!   `certify` + `to_json` → `Response::render`;
//! - a CLI solve follows `troyhls synth --prove`: build the problem →
//!   `ExactSolver::synthesize` → `lint` → `certify`.
//!
//! Two more spans re-run work that happens *inside* a layer, after the
//! request's own spans, so they are never added to its layer sum:
//! `dfg.parse` (the parse `build_problem` performs) and, on a miss,
//! `core.formulate` + `ilp.solve` (the ILP rung's model, solved with the
//! rung's time slice) for the solver's node and iteration counters.

use std::time::{Duration, Instant};

use troy_dfg::parse_dfg;
use troy_ilp::{SolveParams, SolveStatus};
use troy_portfolio::{cache_key, Backend, CacheKey, PortfolioResult, ResultCache};
use troy_resilience::{supervise, Chaos, SupervisorConfig, LADDER};
use troy_service::{build_problem, parse_request, Response, ServiceConfig, StatsSnapshot};
use troyhls::{
    formulate, ExactSolver, FormulationOptions, GreedySolver, Implementation, SolveOptions,
    SynthesisProblem, Synthesizer,
};

use crate::problems::Spec;
use crate::trace::Recorder;

/// The spans that make up one daemon request's layer sum.
pub const DAEMON_LAYERS: [&str; 10] = [
    "service.parse_request",
    "core.build_problem",
    "portfolio.cache_key",
    "portfolio.lookup_hit",
    "portfolio.lookup_miss",
    "resilience.supervise",
    "core.validate",
    "portfolio.store",
    "analysis.certify",
    "service.render",
];

/// The spans that make up one CLI solve's in-process time.
pub const CLI_LAYERS: [&str; 4] = [
    "core.build_problem",
    "core.exact",
    "analysis.lint",
    "analysis.certify",
];

/// What one supervised run reported.
#[derive(Debug, Clone)]
pub struct SupervisedRun {
    /// Winning rung (`ilp`, `exact`, `annealing`, `greedy`), `grace` for
    /// the grace pass, `None` when the run failed.
    pub won_by: Option<&'static str>,
    /// Attempts that actually ran, across all rungs.
    pub attempts: usize,
}

/// Counters from one re-run of the ILP rung.
#[derive(Debug, Clone)]
pub struct IlpRun {
    /// Branch-and-bound nodes.
    pub nodes: usize,
    /// Simplex iterations.
    pub lp_iterations: usize,
    /// Basis refactorizations.
    pub refactorizations: usize,
    /// Wall time of `Model::solve`.
    pub seconds: f64,
    /// Optimality proven within the slice.
    pub proven: bool,
    /// `100 · (incumbent − bound) / incumbent`, when both exist.
    pub gap_pct: Option<f64>,
}

/// Replay state: spans plus the counters read off the replayed calls.
#[derive(Default)]
pub struct Replay {
    /// The recorded spans.
    pub rec: Recorder,
    cache: Option<ResultCache>,
    /// Set while replaying set-up traffic: the frames only fill the
    /// cache, so no counters are kept and the ILP is not re-run.
    pub warming: bool,
    /// One entry per `supervise` call.
    pub supervised: Vec<SupervisedRun>,
    /// One entry per ILP re-run.
    pub ilp: Vec<IlpRun>,
    /// One entry per exact solve on the CLI path: proven or not.
    pub exact_proven: Vec<bool>,
}

fn rung_span(backend: Backend) -> &'static str {
    match backend {
        Backend::Ilp => "resilience.rung.ilp",
        Backend::Exact => "resilience.rung.exact",
        Backend::Annealing => "resilience.rung.annealing",
        Backend::Greedy => "resilience.rung.greedy",
    }
}

impl Replay {
    /// Replays one daemon `synth` frame as `handle_synth` would serve it.
    ///
    /// # Panics
    /// On a frame that does not parse or build (the benchmark's frames
    /// are known-good).
    pub fn frame(&mut self, r: usize, line: &str) {
        let rec = &mut self.rec;
        let (request, _) = rec.span(r, "service.parse_request", None, || parse_request(line));
        let request = request.expect("benchmark frames parse");
        let (problem, _) = rec.span(r, "core.build_problem", None, || build_problem(&request));
        let problem = problem.expect("benchmark frames build");
        let (key, _) = rec.span(r, "portfolio.cache_key", None, || {
            cache_key(&problem, "serve", &SolveOptions::default())
        });
        let cache = self.cache.get_or_insert_with(ResultCache::in_memory);
        let t0 = Instant::now();
        let hit = cache.lookup(&key, &problem);
        let lookup = if hit.is_some() {
            "portfolio.lookup_hit"
        } else {
            "portfolio.lookup_miss"
        };
        rec.record(r, lookup, None, t0, Instant::now());

        let deadline = request
            .deadline
            .unwrap_or(ServiceConfig::default().default_deadline);
        let mut response = Response::outcome(&request.id, "ok");
        let design = if let Some(hit) = hit {
            response.cost = Some(hit.synthesis.cost);
            response.cached = true;
            Some(hit.synthesis.implementation)
        } else {
            let config = SupervisorConfig {
                deadline,
                degrade: !request.no_degrade,
                ..SupervisorConfig::default()
            };
            self.miss(r, &problem, key, &config, &mut response)
        };
        let rec = &mut self.rec;
        if let Some(design) = &design {
            let (certificate, _) = rec.span(r, "analysis.certify", None, || {
                troy_analysis::certify(&problem, design)
                    .ok()
                    .map(|c| c.to_json())
            });
            response.certificate = certificate;
        }
        rec.span(r, "service.render", None, || {
            response.render(&StatsSnapshot::default())
        });

        if let Some(text) = &request.dfg {
            rec.span(r, "dfg.parse", None, || parse_dfg(text).is_ok());
        }
        if !response.cached && !self.warming {
            self.ilp_rung(r, &problem, deadline / LADDER.len() as u32);
        }
    }

    /// The miss path of `handle_synth`: supervise, validate, store. Fills
    /// `response`'s status and cost and returns the design to certify.
    fn miss(
        &mut self,
        r: usize,
        problem: &SynthesisProblem,
        key: CacheKey,
        config: &SupervisorConfig,
        response: &mut Response,
    ) -> Option<Implementation> {
        let rec = &mut self.rec;
        let start = Instant::now();
        let (outcome, sup_span) = rec.span(r, "resilience.supervise", None, || {
            supervise(problem, config, &Chaos::disabled())
        });
        let degradation = match &outcome {
            Ok(sup) => &sup.degradation,
            Err(e) => &e.degradation,
        };
        // Attempts run back to back; lay them out from the start.
        let mut at = start;
        for rung in &degradation.rungs {
            for a in &rung.attempts {
                rec.record_for(r, rung_span(rung.backend), Some(sup_span), at, a.elapsed);
                at += a.elapsed + a.backoff.unwrap_or_default();
            }
        }
        if !self.warming {
            let won_by = outcome.as_ref().ok().map(|sup| {
                if sup.degradation.grace {
                    "grace"
                } else {
                    sup.backend.name()
                }
            });
            self.supervised.push(SupervisedRun {
                won_by,
                attempts: degradation.attempts(),
            });
        }
        let Ok(sup) = outcome else {
            response.status = "error";
            return None;
        };
        rec.span(r, "core.validate", None, || {
            troyhls::validate(&sup.problem, &sup.synthesis.implementation)
        });
        response.cost = Some(sup.synthesis.cost);
        if sup.degraded() {
            response.status = "degraded";
            return None;
        }
        let result = PortfolioResult {
            synthesis: sup.synthesis.clone(),
            winner: sup.backend,
            timed_out: false,
            from_cache: false,
            elapsed: sup.elapsed,
        };
        let cache = self.cache.get_or_insert_with(ResultCache::in_memory);
        rec.span(r, "portfolio.store", None, || cache.store(&key, &result));
        Some(sup.synthesis.implementation)
    }

    /// Re-runs the ILP rung's solve (formulation, greedy MIP start, branch
    /// and bound under the rung's first slice) to read its counters.
    fn ilp_rung(&mut self, r: usize, problem: &SynthesisProblem, slice: Duration) {
        let start = Instant::now();
        let (ilp, _) = self.rec.span(r, "core.formulate", None, || {
            formulate(problem, &FormulationOptions::default())
        });
        let mip_start = GreedySolver::new()
            .synthesize(problem, &SolveOptions::quick())
            .ok()
            .and_then(|s| ilp.encode(&s.implementation));
        let params = SolveParams {
            time_limit: Some(slice.saturating_sub(start.elapsed())),
            integral_objective: true,
            mip_start,
            branch_priority: ilp.branch_priorities(),
            ..SolveParams::default()
        };
        let (result, _) = self
            .rec
            .span(r, "ilp.solve", None, || ilp.model.solve(&params));
        let gap_pct = match (result.objective(), result.bound()) {
            (Some(obj), Some(bound)) if bound.is_finite() && obj.abs() > f64::EPSILON => {
                Some(100.0 * (obj - bound) / obj.abs())
            }
            _ => None,
        };
        self.ilp.push(IlpRun {
            nodes: result.nodes(),
            lp_iterations: result.lp_iterations(),
            refactorizations: result.refactorizations(),
            seconds: result.elapsed().as_secs_f64(),
            proven: result.status() == SolveStatus::Optimal,
            gap_pct,
        });
    }

    /// Replays one `troyhls synth <row> --prove` in-process and returns
    /// its summed layer time in milliseconds.
    ///
    /// # Panics
    /// If the solver, lint or prover rejects a paper problem.
    pub fn cli(&mut self, r: usize, spec: &Spec) -> f64 {
        let rec = &mut self.rec;
        let (problem, a) = rec.span(r, "core.build_problem", None, || spec.problem(None));
        // The CLI's default budget: `--time-limit` 60 s, default nodes.
        let options = SolveOptions {
            time_limit: Duration::from_secs(60),
            ..SolveOptions::default()
        };
        let (solved, b) = rec.span(r, "core.exact", None, || {
            ExactSolver::new().synthesize(&problem, &options)
        });
        let solved = solved.expect("paper problems are feasible");
        self.exact_proven.push(solved.proven_optimal);
        let (_, c) = rec.span(r, "analysis.lint", None, || {
            troy_analysis::lint(&problem, Some(&solved.implementation))
        });
        let (cert, d) = rec.span(r, "analysis.certify", None, || {
            troy_analysis::certify(&problem, &solved.implementation).map(|c| c.to_string())
        });
        assert!(cert.is_ok(), "{}: the prover refused the design", spec.id);
        [a, b, c, d]
            .iter()
            .map(|&i| rec.spans()[i].us())
            .sum::<f64>()
            / 1e3
    }
}
