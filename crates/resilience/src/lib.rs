//! `troy-resilience` — the resilient synthesis supervisor and its chaos
//! fault-injection harness.
//!
//! The DAC'14 paper this workspace reproduces argues that a design
//! synthesized for run-time Trojan *detection and recovery* keeps
//! producing correct answers while individual IP blocks misbehave. This
//! crate applies the same standard to the synthesis pipeline itself:
//!
//! - [`supervise`] wraps every solver invocation with a **deadline**
//!   (enforced through the [`troy_ilp::Cancellation`] chain), **retry
//!   with jittered exponential backoff** for transient faults, **panic
//!   isolation** (a crashing back end is demoted, never aborts the run),
//!   and a **degradation ladder** — exact → annealing → greedy, the one
//!   prover before the heuristics, then latency relaxation — so a run
//!   always returns the best implementation it could prove, annotated
//!   with a structured [`Degradation`] report. An answer is *degraded*
//!   only when it is relaxed, came from the grace pass, or was won by a
//!   heuristic rung; the exact solver's answer on the original
//!   constraints is not, proven or not.
//! - [`Chaos`] is a seeded, deterministic fault injector (solver panics,
//!   artificial stalls, spurious cancellations, cache-file corruption)
//!   activated via `TROY_CHAOS` or `--chaos-seed`; the crate's property
//!   suite sweeps fault schedules and asserts the supervisor invariant:
//!   a valid implementation or a typed, actionable error — never a
//!   panic, never a silently wrong cost.
//!
//! ```
//! use troy_dfg::benchmarks;
//! use troy_resilience::{supervise, Chaos, SupervisorConfig};
//! use troyhls::{Catalog, Mode, SynthesisProblem};
//!
//! let problem = SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
//!     .mode(Mode::DetectionOnly)
//!     .build()
//!     .unwrap();
//! let sup = supervise(&problem, &SupervisorConfig::default(), &Chaos::disabled()).unwrap();
//! assert!(!sup.degraded());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backoff;
pub mod chaos;
mod supervisor;

pub use backoff::{parse_duration, Backoff};
pub use chaos::{
    Chaos, ClusterFault, InjectedFault, SelfHealFault, ServiceFault, CHAOS_PANIC_MARKER,
};
pub use supervisor::{
    supervise, Attempt, AttemptOutcome, Degradation, RungReport, Supervised, SupervisorConfig,
    SupervisorError, SupervisorErrorKind, GRACE_BUDGET, LADDER,
};
