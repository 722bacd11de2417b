//! Data-flow-graph substrate for the TroyHLS reproduction of *"High-Level
//! Synthesis for Run-Time Hardware Trojan Detection and Recovery"*
//! (DAC 2014).
//!
//! This crate owns everything graph-shaped that the synthesis flow needs:
//!
//! - [`Dfg`]: an append-only DAG of arithmetic operations with data
//!   dependencies (the paper's function-to-be-implemented, NC);
//! - scheduling analyses ([`ScheduleWindows`], [`min_concurrency`]) used by
//!   the solvers in the `troyhls` crate;
//! - a plain-text format ([`parse_dfg`] / [`write_dfg`]) and Graphviz export
//!   ([`to_dot`]);
//! - seeded random generators ([`random_dfg`]) for stress testing;
//! - [`Fnv1a`], the content hash every crate above this one shares;
//! - [`json`], the one JSON subset reader and string escaper that the
//!   wire protocol, the on-disk result cache and the security
//!   certificate share;
//! - the paper's six evaluation benchmarks plus extras ([`benchmarks`]).
//!
//! # Quickstart
//!
//! ```
//! use troy_dfg::{benchmarks, ScheduleWindows};
//!
//! // The HAL differential-equation solver the paper calls `diff2`.
//! let g = benchmarks::diff2();
//! assert_eq!(g.len(), 11);
//!
//! // Can it be scheduled in 4 cycles? (Yes: its critical path is 4.)
//! let windows = ScheduleWindows::compute(&g, 4).expect("feasible");
//! let total_mobility: usize = g.node_ids().map(|n| windows.mobility(n)).sum();
//! assert!(total_mobility > 0, "some ops have slack");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
pub mod benchmarks;
mod dot;
mod fnv;
mod generate;
mod graph;
pub mod json;
mod op;
mod parse;

pub use analysis::{min_concurrency, ScheduleWindows};
pub use dot::{to_dot, to_dot_with};
pub use fnv::Fnv1a;
pub use generate::{random_dfg, RandomDfgConfig};
pub use graph::{Dfg, GraphError, NodeId, OpNode};
pub use op::{IpTypeId, OpKind, ParseOpKindError};
pub use parse::{parse_dfg, write_dfg, ParseDfgError, MAX_LABEL_LEN, MAX_LINE_LEN, MAX_OPS};
