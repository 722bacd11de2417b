//! Common solver-facing types: options, outcomes and the `Synthesizer`
//! trait shared by the exact, ILP and heuristic back ends.

use std::fmt;
use std::time::{Duration, Instant};

use troy_ilp::{Cancellation, LpEngine};

use crate::implementation::Implementation;
use crate::problem::SynthesisProblem;

/// Budget knobs shared by every solver back end.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Wall-clock budget for the whole solve. When exceeded the best design
    /// found so far is returned with `proven_optimal = false` — mirroring
    /// the `*` rows in the paper's result tables.
    pub time_limit: Duration,
    /// Backtracking-node budget per candidate license subset (exact solver)
    /// or per improvement round (heuristic).
    pub node_limit: usize,
    /// Cooperative cancellation/deadline token. Solvers poll it in their
    /// inner loops (alongside `time_limit`) and wind down gracefully when
    /// it expires — the hook the supervisor and batch deadlines use.
    pub cancel: Cancellation,
    /// Simplex engine for the ILP back end's LP relaxations (ignored by
    /// the non-ILP back ends). The dense baseline exists for cross-checks
    /// and benchmarking; production solves use the sparse engine.
    pub lp_engine: LpEngine,
    /// Whether the ILP back end warm-starts child LPs from the parent
    /// basis (ignored by the non-ILP back ends).
    pub warm_start: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            time_limit: Duration::from_secs(60),
            node_limit: 400_000,
            cancel: Cancellation::new(),
            lp_engine: LpEngine::Sparse,
            warm_start: true,
        }
    }
}

impl SolveOptions {
    /// A small budget suitable for unit tests and doc examples.
    #[must_use]
    pub fn quick() -> Self {
        SolveOptions {
            time_limit: Duration::from_secs(10),
            node_limit: 60_000,
            ..SolveOptions::default()
        }
    }

    /// Same budgets, different cancellation token — how the portfolio
    /// derives per-backend options from one shared configuration.
    #[must_use]
    pub fn with_cancel(mut self, cancel: Cancellation) -> Self {
        self.cancel = cancel;
        self
    }

    /// `true` once the solve that started at `start` is out of budget:
    /// past `time_limit`, cancelled, or past the token's deadline. The
    /// single check every solver inner loop performs.
    #[must_use]
    pub fn out_of_time(&self, start: Instant) -> bool {
        start.elapsed() > self.time_limit || self.cancel.is_expired()
    }
}

/// Result of a synthesis attempt.
#[derive(Debug, Clone)]
pub struct Synthesis {
    /// The synthesized design.
    pub implementation: Implementation,
    /// Its total license cost (the paper's `mc`).
    pub cost: u64,
    /// `true` when the solver proved no cheaper valid design exists within
    /// the constraints; `false` for best-effort results (paper's `*`).
    pub proven_optimal: bool,
}

/// Why synthesis produced no design.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SynthesisError {
    /// No valid design exists under the given constraints (proven).
    Infeasible,
    /// The budget ran out before any valid design was found.
    BudgetExhausted,
    /// The back end panicked and was caught at an isolation boundary
    /// (portfolio race, batch pool or resilience supervisor); the payload
    /// is the panic message. A panicking back end never aborts a run — it
    /// is reported as this typed failure and demoted.
    Panicked(String),
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::Infeasible => {
                write!(f, "no design satisfies the constraints")
            }
            SynthesisError::BudgetExhausted => {
                write!(f, "solve budget exhausted before a design was found")
            }
            SynthesisError::Panicked(msg) => {
                write!(f, "solver back end panicked: {msg}")
            }
        }
    }
}

impl std::error::Error for SynthesisError {}

/// A synthesis back end.
///
/// Implementations must only return designs that pass
/// [`crate::validate`] — the integration suite enforces this for every
/// back end on every benchmark.
pub trait Synthesizer {
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Runs synthesis on `problem` within `options`' budget.
    ///
    /// # Errors
    ///
    /// [`SynthesisError::Infeasible`] when no design can exist;
    /// [`SynthesisError::BudgetExhausted`] when the budget ran out first.
    fn synthesize(
        &self,
        problem: &SynthesisProblem,
        options: &SolveOptions,
    ) -> Result<Synthesis, SynthesisError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_sane() {
        let o = SolveOptions::default();
        assert!(o.time_limit >= Duration::from_secs(1));
        assert!(o.node_limit > 1000);
        let q = SolveOptions::quick();
        assert!(q.time_limit <= o.time_limit);
    }

    #[test]
    fn errors_display() {
        assert!(SynthesisError::Infeasible.to_string().contains("no design"));
        assert!(SynthesisError::BudgetExhausted
            .to_string()
            .contains("budget"));
        assert!(SynthesisError::Panicked("index out of bounds".into())
            .to_string()
            .contains("index out of bounds"));
    }
}
