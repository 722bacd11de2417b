//! `troy-service`: a hardened synthesis daemon.
//!
//! The paper's run-time protection story assumes the synthesis pipeline
//! itself stays available while designs are being produced and
//! re-synthesized; this crate gives the workspace that serving layer. It
//! exposes the supervised synthesis path (`troy-resilience` over the
//! `troy-portfolio` solvers) as a long-running TCP daemon speaking a
//! newline-delimited JSON protocol, with the robustness contract the
//! chaos suite pins down:
//!
//! - every request terminates in exactly one of {valid design, typed
//!   degradation, typed rejection} — no hangs, no silent drops;
//! - overload is shed at admission with a `retry_after_ms` hint, never
//!   buffered unboundedly ([`Admission`]);
//! - a flapping back end trips a per-backend circuit breaker
//!   ([`Breakers`]) and is skipped before burning its retry budget;
//! - a panicking request costs one connection, never the daemon;
//! - `shutdown` drains gracefully within a bounded deadline.
//!
//! Start one with [`Service::start`], or from the CLI via
//! `troyhls serve`.

pub mod admission;
pub mod breaker;
pub mod gate;
pub mod protocol;
pub mod server;
pub mod stats;
pub mod wire;

pub use admission::{Admission, Admitted, Permit};
pub use breaker::{Breaker, BreakerConfig, BreakerDecision, Breakers};
pub use gate::Gate;
pub use protocol::{parse_frame, parse_request, Cmd, RejectKind, Request, Response};
pub use server::{build_problem, request_key, Service, ServiceConfig, ServiceHandle};
pub use stats::{ServiceStats, StatsSnapshot};
pub use troy_dfg::json::{escape, Json};
pub use wire::{connect, exchange, is_unanswered, roundtrip, serve_frames, MAX_LINE};
