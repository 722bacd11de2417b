//! The four synthesis back ends and the panic firewall they run behind.
//!
//! Every path that solves a problem names its back end with [`Backend`]
//! and runs it through [`synthesize_isolated`], so a crashing solver
//! becomes a typed [`SynthesisError::Panicked`] instead of unwinding
//! into the batch pool, the supervisor or the caller. Combining several
//! back ends on one problem (deadlines, retries, demotion, relaxation)
//! is the supervisor's ladder in `troy-resilience`, not this crate's.

use std::time::Duration;

use troyhls::{
    AnnealingSolver, ExactSolver, GreedySolver, IlpSolver, SolveOptions, Synthesis, SynthesisError,
    SynthesisProblem, Synthesizer,
};

/// One synthesis back end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Backend {
    /// License-lattice best-first search ([`ExactSolver`]); proves.
    Exact,
    /// The paper's ILP formulation on `troy-ilp` ([`IlpSolver`]); proves.
    Ilp,
    /// Grow/shrink heuristic ([`GreedySolver`]); best effort.
    Greedy,
    /// Simulated annealing seeded from greedy ([`AnnealingSolver`]);
    /// best effort, deterministic per seed.
    Annealing,
}

impl Backend {
    /// All back ends, in priority order (see [`Backend::priority`]).
    pub const ALL: [Backend; 4] = [
        Backend::Exact,
        Backend::Ilp,
        Backend::Greedy,
        Backend::Annealing,
    ];

    /// Stable name used in reports, cache keys and the CLI.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Backend::Exact => "exact",
            Backend::Ilp => "ilp",
            Backend::Greedy => "greedy",
            Backend::Annealing => "annealing",
        }
    }

    /// Parses a [`Backend::name`] string.
    #[must_use]
    pub fn parse(s: &str) -> Option<Backend> {
        Backend::ALL.into_iter().find(|b| b.name() == s)
    }

    /// Fixed rank of the back end (its index in [`Backend::ALL`]): provers
    /// before heuristics. Per-back-end tables (breakers, chaos sites)
    /// index by it.
    #[must_use]
    pub fn priority(self) -> usize {
        match self {
            Backend::Exact => 0,
            Backend::Ilp => 1,
            Backend::Greedy => 2,
            Backend::Annealing => 3,
        }
    }

    /// Whether this back end can prove optimality or infeasibility.
    #[must_use]
    pub fn can_prove(self) -> bool {
        matches!(self, Backend::Exact | Backend::Ilp)
    }

    /// Instantiates the back end with its default configuration.
    #[must_use]
    pub fn solver(self) -> Box<dyn Synthesizer> {
        match self {
            Backend::Exact => Box::new(ExactSolver::new()),
            Backend::Ilp => Box::new(IlpSolver::new()),
            Backend::Greedy => Box::new(GreedySolver::new()),
            Backend::Annealing => Box::new(AnnealingSolver::new()),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Renders a caught panic payload as a message (the two shapes `panic!`
/// actually produces, with a fallback for exotic payloads).
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `backend` on `problem` with the panic firewall every solving
/// path uses: a back end that panics yields
/// [`SynthesisError::Panicked`] instead of unwinding into (and aborting)
/// the batch pool, the supervisor or the caller.
///
/// # Errors
///
/// Whatever the back end returns, plus [`SynthesisError::Panicked`] when
/// it panicked.
pub fn synthesize_isolated(
    backend: Backend,
    problem: &SynthesisProblem,
    options: &SolveOptions,
) -> Result<Synthesis, SynthesisError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        backend.solver().synthesize(problem, options)
    }))
    .unwrap_or_else(|payload| Err(SynthesisError::Panicked(panic_message(payload.as_ref()))))
}

/// A solved problem as the batch pool, the result cache and the daemon
/// pass it around.
#[derive(Debug, Clone)]
pub struct PortfolioResult {
    /// The design, its license cost and whether that cost is proven
    /// optimal.
    pub synthesis: Synthesis,
    /// The back end that produced the design.
    pub winner: Backend,
    /// `true` when the result is best-effort — the paper's `*` rows.
    /// Always the negation of `synthesis.proven_optimal`.
    pub timed_out: bool,
    /// `true` when the result was served from a [`crate::ResultCache`].
    pub from_cache: bool,
    /// Wall-clock time of this run (zero-ish for cache hits).
    pub elapsed: Duration,
}

impl PortfolioResult {
    /// A fresh (uncached) result of `winner`, `timed_out` exactly when
    /// the design is not proven optimal.
    #[must_use]
    pub fn fresh(winner: Backend, synthesis: Synthesis, elapsed: Duration) -> Self {
        PortfolioResult {
            timed_out: !synthesis.proven_optimal,
            synthesis,
            winner,
            from_cache: false,
            elapsed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip() {
        for b in Backend::ALL {
            assert_eq!(Backend::parse(b.name()), Some(b));
            assert_eq!(b.to_string(), b.name());
        }
        assert_eq!(Backend::parse("lingo"), None);
    }

    #[test]
    fn priorities_are_distinct_and_ordered() {
        let ps: Vec<usize> = Backend::ALL.iter().map(|b| b.priority()).collect();
        assert_eq!(ps, vec![0, 1, 2, 3]);
    }
}
