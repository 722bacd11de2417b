//! Simulated-annealing synthesis: a metaheuristic back end that explores
//! the binding space directly instead of the license lattice.
//!
//! Useful as an ablation point between [`crate::GreedySolver`] (pure
//! construction) and [`crate::ExactSolver`] (complete search), and as a
//! robustness fallback on instances whose structure defeats both. The
//! walk operates on a *complete* implementation at all times:
//!
//! - **moves**: re-bind one copy to a random legal-type vendor, or move one
//!   copy to a random cycle inside its phase window;
//! - **energy**: license cost plus heavy penalties for rule violations and
//!   area overflow (so the walk can cross infeasible regions);
//! - **schedule**: geometric cooling with Metropolis acceptance; the best
//!   *feasible* state ever visited is returned.

use std::time::Instant;

use troy_dfg::ScheduleWindows;

use crate::implementation::{Assignment, Implementation};
use crate::problem::SynthesisProblem;
use crate::rules::Role;
use crate::solver::{SolveOptions, Synthesis, SynthesisError, Synthesizer};
use crate::validate::validate;

/// Tunables for [`AnnealingSolver`].
#[derive(Debug, Clone)]
pub struct AnnealingConfig {
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
    /// Monte-Carlo steps per temperature level.
    pub steps_per_level: usize,
    /// Number of temperature levels.
    pub levels: usize,
    /// Initial temperature in energy units (dollars).
    pub start_temperature: f64,
    /// Geometric cooling factor per level.
    pub cooling: f64,
}

impl Default for AnnealingConfig {
    fn default() -> Self {
        AnnealingConfig {
            seed: 0x00A1_1EA1,
            steps_per_level: 400,
            levels: 60,
            start_temperature: 800.0,
            cooling: 0.9,
        }
    }
}

/// Simulated-annealing synthesizer (see the module docs).
///
/// # Examples
///
/// ```
/// use troy_dfg::benchmarks;
/// use troyhls::{
///     validate, AnnealingSolver, Catalog, Mode, SolveOptions, SynthesisProblem, Synthesizer,
/// };
///
/// let p = SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
///     .mode(Mode::DetectionRecovery)
///     .detection_latency(4)
///     .recovery_latency(3)
///     .area_limit(22_000)
///     .build()?;
/// let s = AnnealingSolver::new().synthesize(&p, &SolveOptions::quick())?;
/// assert!(validate(&p, &s.implementation).is_empty());
/// assert!(s.cost >= 4160); // never better than the exact optimum
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct AnnealingSolver {
    config: AnnealingConfig,
}

impl AnnealingSolver {
    /// Creates the solver with default parameters.
    #[must_use]
    pub fn new() -> Self {
        AnnealingSolver::default()
    }

    /// Creates the solver with explicit parameters.
    #[must_use]
    pub fn with_config(config: AnnealingConfig) -> Self {
        AnnealingSolver { config }
    }
}

/// Violation penalty: larger than any plausible license bill so feasibility
/// always dominates cost.
const PENALTY: f64 = 50_000.0;

struct Walker<'a> {
    problem: &'a SynthesisProblem,
    windows_det: &'a ScheduleWindows,
    windows_rec: Option<&'a ScheduleWindows>,
    rng: u64,
}

impl Walker<'_> {
    fn rand(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.rand() % bound as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.rand() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniformly random complete (not necessarily valid) implementation.
    fn random_state(&mut self) -> Implementation {
        let dfg = self.problem.dfg();
        let det = self.problem.detection_latency();
        let mut imp = Implementation::new(dfg.len());
        for op in dfg.node_ids() {
            let t = dfg.kind(op).ip_type();
            let vendors: Vec<_> = self.problem.catalog().vendors_for(t).collect();
            for &role in Role::for_mode(self.problem.mode()) {
                let (lo, hi) = match role {
                    Role::Nc | Role::Rc => (self.windows_det.asap(op), self.windows_det.alap(op)),
                    Role::Recovery => {
                        let w = self.windows_rec.expect("recovery mode");
                        (det + w.asap(op), det + w.alap(op))
                    }
                };
                let cycle = lo + self.below(hi - lo + 1);
                let vendor = vendors[self.below(vendors.len())];
                imp.assign(op, role, Assignment { cycle, vendor });
            }
        }
        imp
    }

    /// Applies one random move; returns an undo closure description.
    fn perturb(&mut self, imp: &mut Implementation) -> (troy_dfg::NodeId, Role, Assignment) {
        let dfg = self.problem.dfg();
        let det = self.problem.detection_latency();
        let roles = Role::for_mode(self.problem.mode());
        let op = troy_dfg::NodeId::new(self.below(dfg.len()));
        let role = roles[self.below(roles.len())];
        let old = imp.assignment(op, role).expect("complete state");
        let t = dfg.kind(op).ip_type();
        let new = if self.below(2) == 0 {
            // Re-bind vendor.
            let vendors: Vec<_> = self.problem.catalog().vendors_for(t).collect();
            Assignment {
                cycle: old.cycle,
                vendor: vendors[self.below(vendors.len())],
            }
        } else {
            // Move cycle within the phase window.
            let (lo, hi) = match role {
                Role::Nc | Role::Rc => (self.windows_det.asap(op), self.windows_det.alap(op)),
                Role::Recovery => {
                    let w = self.windows_rec.expect("recovery mode");
                    (det + w.asap(op), det + w.alap(op))
                }
            };
            Assignment {
                cycle: lo + self.below(hi - lo + 1),
                vendor: old.vendor,
            }
        };
        imp.assign(op, role, new);
        (op, role, old)
    }
}

/// Energy = license cost + PENALTY × violations (+ scaled area overflow).
fn energy(problem: &SynthesisProblem, imp: &Implementation) -> f64 {
    let violations = validate(problem, imp);
    let mut e = imp.license_cost(problem) as f64;
    e += PENALTY * violations.len() as f64;
    e
}

impl Synthesizer for AnnealingSolver {
    fn name(&self) -> &'static str {
        "annealing"
    }

    fn synthesize(
        &self,
        problem: &SynthesisProblem,
        options: &SolveOptions,
    ) -> Result<Synthesis, SynthesisError> {
        let start = Instant::now();
        let windows_det = problem.detection_windows();
        let windows_rec = problem.recovery_windows();
        let mut walker = Walker {
            problem,
            windows_det,
            windows_rec,
            rng: self.config.seed,
        };

        // Seed from greedy when it succeeds — a good basin to cool in.
        let mut state = match crate::heuristic::GreedySolver::new()
            .synthesize(problem, &SolveOptions::quick())
        {
            Ok(s) => s.implementation,
            Err(_) => walker.random_state(),
        };
        let mut current = energy(problem, &state);
        let mut best: Option<(Implementation, u64)> = validate(problem, &state)
            .is_empty()
            .then(|| (state.clone(), state.license_cost(problem)));

        let mut temperature = self.config.start_temperature;
        for _level in 0..self.config.levels {
            for _step in 0..self.config.steps_per_level {
                if options.out_of_time(start) {
                    break;
                }
                let undo = walker.perturb(&mut state);
                let proposed = energy(problem, &state);
                let accept = proposed <= current
                    || walker.unit() < ((current - proposed) / temperature).exp();
                if accept {
                    current = proposed;
                    if proposed < PENALTY {
                        // Feasible by construction of the penalty scale.
                        let cost = state.license_cost(problem);
                        if best.as_ref().is_none_or(|(_, b)| cost < *b) {
                            best = Some((state.clone(), cost));
                        }
                    }
                } else {
                    let (op, role, old) = undo;
                    state.assign(op, role, old);
                }
            }
            temperature *= self.config.cooling;
        }

        match best {
            Some((implementation, cost)) => Ok(Synthesis {
                implementation,
                cost,
                proven_optimal: false,
            }),
            None => Err(SynthesisError::BudgetExhausted),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::exact::ExactSolver;
    use crate::problem::Mode;
    use troy_dfg::benchmarks;

    fn problem(mode: Mode) -> SynthesisProblem {
        SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
            .mode(mode)
            .detection_latency(4)
            .recovery_latency(3)
            .area_limit(22_000)
            .build()
            .unwrap()
    }

    #[test]
    fn annealing_finds_valid_designs_in_both_modes() {
        for mode in [Mode::DetectionOnly, Mode::DetectionRecovery] {
            let p = problem(mode);
            let s = AnnealingSolver::new()
                .synthesize(&p, &SolveOptions::quick())
                .unwrap();
            let vs = validate(&p, &s.implementation);
            assert!(vs.is_empty(), "{mode}: {vs:?}");
            assert!(!s.proven_optimal);
        }
    }

    #[test]
    fn annealing_never_beats_exact() {
        let p = problem(Mode::DetectionRecovery);
        let a = AnnealingSolver::new()
            .synthesize(&p, &SolveOptions::quick())
            .unwrap();
        let e = ExactSolver::new()
            .synthesize(&p, &SolveOptions::quick())
            .unwrap();
        assert!(a.cost >= e.cost, "annealing {} < exact {}", a.cost, e.cost);
    }

    #[test]
    fn annealing_is_deterministic_per_seed() {
        let p = problem(Mode::DetectionOnly);
        let solver = AnnealingSolver::with_config(AnnealingConfig {
            seed: 7,
            levels: 10,
            steps_per_level: 100,
            ..AnnealingConfig::default()
        });
        let a = solver.synthesize(&p, &SolveOptions::quick()).unwrap();
        let b = solver.synthesize(&p, &SolveOptions::quick()).unwrap();
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.implementation, b.implementation);
    }

    #[test]
    fn annealing_matches_optimum_on_the_motivational_example() {
        // With the greedy seed it lands on (or keeps) the $4160 optimum.
        let p = problem(Mode::DetectionRecovery);
        let s = AnnealingSolver::new()
            .synthesize(&p, &SolveOptions::quick())
            .unwrap();
        assert_eq!(s.cost, 4160);
    }

    #[test]
    fn annealing_survives_without_a_greedy_seed() {
        // Area so tight greedy's seed set may fail: verify pure random
        // start still produces something valid (or honestly errors).
        let p = SynthesisProblem::builder(benchmarks::diff2(), Catalog::paper8())
            .mode(Mode::DetectionOnly)
            .detection_latency(6)
            .area_limit(45_000)
            .build()
            .unwrap();
        match AnnealingSolver::new().synthesize(&p, &SolveOptions::quick()) {
            Ok(s) => assert!(validate(&p, &s.implementation).is_empty()),
            Err(e) => assert!(matches!(e, SynthesisError::BudgetExhausted)),
        }
    }
}
