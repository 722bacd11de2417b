//! Library half of `service-bench`, the repository benchmark: inputs,
//! load generation, checks, tracing and statistics. The binary
//! (`src/main.rs`) drives it; see `README.md` for the workloads and
//! metrics.

// Peak memory comes from `/proc/self/status`.
#[cfg(not(target_os = "linux"))]
compile_error!("service-bench runs on Linux only");

pub mod client;
pub mod json;
pub mod layers;
pub mod problems;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod workload;
