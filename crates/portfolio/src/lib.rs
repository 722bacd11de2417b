//! Batched synthesis and result caching for TroyHLS.
//!
//! The paper solves each Table 3/4 row with a single solver run against a
//! wall clock and marks rows that hit the limit with `*` (best effort).
//! This crate is the harness around such single-back-end runs:
//!
//! - [`Backend`] names the four back ends (exact license-lattice search,
//!   ILP branch & bound, greedy grow/shrink, simulated annealing) and
//!   [`synthesize_isolated`] runs one of them behind a panic firewall;
//! - [`solve_batch`] spreads **many** independent problems (all table
//!   rows, sweep grids) over a work-stealing thread pool
//!   ([`run_indexed`]), one back end per row;
//! - [`ResultCache`] memoizes outcomes under a canonical content hash of
//!   the problem ([`cache_key`]), in memory and as on-disk JSON, so a
//!   re-run of an unchanged experiment grid costs milliseconds.
//!
//! Running several back ends on **one** problem — deadlines, retries,
//! falling back from the exact solver to the heuristics — is the supervisor
//! ladder of `troy-resilience`, the one place that does it.
//!
//! Determinism is a design constraint throughout: results come back in
//! input order, so `--jobs 1` and `--jobs N` produce identical results
//! whenever the solvers finish within budget, and cache hits reproduce
//! the miss byte for byte.
//!
//! # Example: the paper's Figure 5 instance, alone and in a batch
//!
//! ```
//! use troy_dfg::benchmarks;
//! use troy_portfolio::{solve_batch, synthesize_isolated, Backend, BatchConfig};
//! use troyhls::{Catalog, Mode, SolveOptions, SynthesisProblem};
//!
//! let problem = SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
//!     .mode(Mode::DetectionRecovery)
//!     .detection_latency(4)
//!     .recovery_latency(3)
//!     .area_limit(22_000)
//!     .build()?;
//! let alone = synthesize_isolated(Backend::Exact, &problem, &SolveOptions::default())?;
//! assert_eq!(alone.cost, 4160);
//! assert!(alone.proven_optimal);
//!
//! let config = BatchConfig { jobs: 2, ..BatchConfig::default() };
//! let rows = solve_batch(&[problem.clone(), problem], &config, None);
//! for row in rows {
//!     let row = row?;
//!     assert_eq!((row.synthesis.cost, row.winner), (4160, Backend::Exact));
//!     assert!(!row.timed_out);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod batch;
mod cache;
mod pool;

pub use backend::{panic_message, synthesize_isolated, Backend, PortfolioResult};
pub use batch::{default_jobs, solve_batch, BatchConfig};
pub use cache::{cache_key, CacheKey, CachedEntry, ResultCache};
pub use pool::run_indexed;
