//! Parallel solver portfolio for TroyHLS.
//!
//! The paper solves each Table 3/4 row with a single ILP run and marks
//! rows that hit the one-hour limit with `*` (best effort). This crate
//! generalizes that protocol into a production harness:
//!
//! - [`race`] runs the four back ends (exact license-lattice search, ILP
//!   branch & bound, greedy grow/shrink, simulated annealing) on **one**
//!   problem with cooperative cancellation: a back end that *proves*
//!   optimality cancels every rival that can no longer win, and at a
//!   deadline the best incumbent is returned marked timed-out — the
//!   paper's `*` semantics, now across a whole portfolio;
//! - [`solve_batch`] spreads **many** independent problems (all table
//!   rows, sweep grids) over a work-stealing thread pool ([`run_indexed`]);
//! - [`ResultCache`] memoizes outcomes under a canonical content hash of
//!   the problem ([`cache_key`]), in memory and as on-disk JSON, so a
//!   re-run of an unchanged experiment grid costs milliseconds.
//!
//! Determinism is a design constraint throughout: the race winner is
//! chosen by a total order (cost, then fixed backend priority), never by
//! wall-clock arrival, so `--jobs 1` and `--jobs N` produce identical
//! results whenever the solvers finish within budget, and cache hits
//! reproduce the miss byte for byte.
//!
//! # Example: race the portfolio on the paper's Figure 5 instance
//!
//! ```
//! use troy_dfg::benchmarks;
//! use troy_portfolio::race;
//! use troyhls::{Catalog, Mode, SolveOptions, SynthesisProblem};
//!
//! let problem = SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
//!     .mode(Mode::DetectionRecovery)
//!     .detection_latency(4)
//!     .recovery_latency(3)
//!     .area_limit(22_000)
//!     .build()?;
//! let won = race(&problem, &SolveOptions::default(), 1)?;
//! assert_eq!(won.synthesis.cost, 4160);
//! assert!(!won.timed_out);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod cache;
mod pool;
mod race;

pub use batch::{default_jobs, solve_batch, BatchConfig};
pub use cache::{cache_key, CacheKey, CachedEntry, ResultCache};
pub use pool::run_indexed;
pub use race::{race, synthesize_isolated, Backend, PortfolioResult};
