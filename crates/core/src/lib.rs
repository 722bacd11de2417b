//! Diversity-based high-level synthesis for run-time hardware Trojan
//! detection and recovery — a reproduction of the DAC 2014 paper by Cui,
//! Ma, Shi and Wu.
//!
//! The flow in one pass:
//!
//! 1. describe the instance — [`Catalog`] (vendor/IP libraries: the
//!    paper's Table 1 verbatim, plus the 8-vendor experiment suite) and
//!    [`SynthesisProblem`] (DFG + catalog + latency/area constraints +
//!    closely-related pairs);
//! 2. synthesize — any [`Synthesizer`]: [`ExactSolver`] (license-lattice
//!    search, optimal), [`IlpSolver`] (the paper's equations (3)–(17) on
//!    `troy-ilp`), [`GreedySolver`] or [`AnnealingSolver`];
//! 3. check and inspect — [`validate`] (all four design rules, windows,
//!    area), [`schedule_chart`], [`implementation_dot`],
//!    [`collusion_exposure`], [`markdown_summary`];
//! 4. lower to hardware — [`allocate_registers`] (left-edge) and
//!    [`emit_verilog`] (datapath + comparator + recovery mux);
//! 5. explore — [`sweep_latency`] / [`sweep_area`] /
//!    [`min_feasible_area`] / [`unprotected_cost`].
//!
//! The single source of truth for the paper's rules is
//! [`diversity_constraints`]; every solver and the validator expand it,
//! so they cannot drift apart. Run-time behavior (trigger/payload models,
//! mission simulation, campaigns) lives in the sibling `troy-sim` crate.
//!
//! # Example: reproduce the paper's Figure 5 optimum
//!
//! ```
//! use troy_dfg::benchmarks;
//! use troyhls::{Catalog, ExactSolver, Mode, SolveOptions, SynthesisProblem, Synthesizer};
//!
//! let problem = SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
//!     .mode(Mode::DetectionRecovery)
//!     .detection_latency(4)
//!     .recovery_latency(3)
//!     .area_limit(22_000)
//!     .build()?;
//! let design = ExactSolver::new().synthesize(&problem, &SolveOptions::default())?;
//! assert_eq!(design.cost, 4160);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod annealing;
mod catalog;
mod cones;
mod exact;
mod explore;
mod formulation;
mod heuristic;
mod implementation;
mod netlist;
mod problem;
mod registers;
mod report;
mod rules;
mod solver;
mod validate;

pub use annealing::{AnnealingConfig, AnnealingSolver};
pub use catalog::{Catalog, IpOffering, License, VendorId};
pub use cones::{cone_vendors, output_cones, OutputCone};
pub use exact::{ExactSolver, ExactWork};
pub use explore::{min_feasible_area, sweep_area, sweep_latency, unprotected_cost, SweepPoint};
pub use formulation::{formulate, FormulatedIlp, FormulationOptions, IlpSolver};
pub use heuristic::{needed_types, GreedySolver};
pub use implementation::{Assignment, DesignStats, Implementation};
pub use netlist::{emit_verilog, netlist_stats, NetlistStats};
pub use problem::{Mode, ProblemBuilder, ProblemError, SynthesisProblem};
pub use registers::{allocate_registers, Lifetime, RegisterAllocation, RegisterId};
pub use report::{
    collusion_exposure, implementation_dot, interactions, markdown_summary, schedule_chart,
    Interaction,
};
pub use rules::{
    diversity_constraints, min_vendors_per_type, DiversityConstraint, OpCopy, Role, RuleKind,
};
pub use solver::{SolveOptions, Synthesis, SynthesisError, Synthesizer};
pub use troy_ilp::Cancellation;
pub use validate::{is_valid, validate, Violation};
