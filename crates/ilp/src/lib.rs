//! A self-contained mixed 0-1/integer linear-programming solver.
//!
//! The DAC'14 paper this workspace reproduces solves its scheduling/binding
//! formulation with the commercial solver *Lingo*. No comparable solver is
//! available as an offline dependency, so this crate implements the
//! substrate from scratch:
//!
//! - a [`Model`] builder ([`LinExpr`], [`Cmp`], bounds, integrality);
//! - a bounded-variable two-phase primal **revised** simplex for the LP
//!   relaxations (CSC sparse columns, LU + eta-file basis updates, devex
//!   pricing) — the one LP engine; its dense predecessor survives only as
//!   a test oracle the unit tests cross-check it against;
//! - LP-based branch & bound with most-fractional branching, MIP starts,
//!   warm-started child LPs, time/node limits and graceful degradation
//!   ([`SolveStatus::Feasible`] mirrors the paper's `*`-marked best-effort
//!   rows).
//!
//! All variable bounds must be finite — true by construction for the 0-1
//! scheduling formulations this workspace generates.
//!
//! # Quickstart
//!
//! ```
//! use troy_ilp::{LinExpr, Model, SolveParams, SolveStatus};
//!
//! // Pick the cheaper of two licenses covering a requirement.
//! let mut m = Model::minimize();
//! let a = m.binary("license_a");
//! let b = m.binary("license_b");
//! m.set_objective(LinExpr::term(450.0, a) + LinExpr::term(630.0, b));
//! m.add_ge("need-one", LinExpr::sum([a, b]), 1.0);
//!
//! let result = m.solve(&SolveParams::default());
//! assert_eq!(result.status(), SolveStatus::Optimal);
//! assert_eq!(result.objective().unwrap() as i64, 450);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cancel;
#[cfg(test)]
mod cross_check;
#[cfg(test)]
mod dense;
mod model;
mod simplex;
mod solve;

pub use cancel::Cancellation;
pub use model::{Cmp, Constraint, LinExpr, Model, Sense, VarId, VarKind, Variable};
pub use solve::{SolveParams, SolveResult, SolveStatus};
