//! The per-layer metrics of the traced run.
//!
//! Two are whole-process numbers kept here because they cannot carry a
//! bound: `process.peak_rss_mb` (`VmHWM` of the workload process, which
//! on `cli-grid` is the load generator, the CLI children being separate
//! processes) moves ±25% from run to run with glibc's per-thread arenas
//! under the daemon's thread-per-connection model, and
//! `answers.proven_ratio` is legitimately 0 while the ILP rung answers the
//! daemon's requests. The `cli.*` times are raw wall-clock times, unlike
//! `cli-grid`'s end-to-end ones, which are normalised to a reference host
//! speed.
//!
//! Every traced run prints every metric in [`PER_LAYER`]. A layer that a
//! workload's requests never reach reads 0 — `core.exact_ms_p50` on
//! `daemon-fresh` (the ILP rung wins), every `cluster.*` metric off the
//! cluster, every `service.*` metric on `cli-grid` — so the column means
//! "no time spent here", never a made-up sample. A layer the run does
//! reach but fails to measure (a round trip with no `ok` reply) fails the
//! traced run instead of reading 0. Times are medians over the replay's
//! spans; tails are end-to-end metrics only, because a replay rarely
//! holds the 100 samples a p90 needs (see `stats`).

use std::collections::BTreeMap;

use crate::replay::Replay;
use crate::stats::{mean, median};

/// `(name, unit)` of every per-layer metric, grouped by crate.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("process.peak_rss_mb", "MB"),
    ("answers.proven_ratio", "fraction"),
    ("cli.wall_ms_p50", "ms"),
    ("cli.spawn_ms_p50", "ms"),
    ("cli.bare_spawn_ms_p50", "ms"),
    ("core.build_problem_us_p50", "us"),
    ("core.exact_ms_p50", "ms"),
    ("core.exact_proven_ratio", "fraction"),
    ("core.formulate_ms_p50", "ms"),
    ("core.validate_us_p50", "us"),
    ("dfg.parse_us_p50", "us"),
    ("analysis.lint_us_p50", "us"),
    ("analysis.certify_us_p50", "us"),
    ("service.parse_request_us_p50", "us"),
    ("service.render_us_p50", "us"),
    ("service.handler_ms_p50", "ms"),
    ("service.outside_handler_ms_p50", "ms"),
    ("service.hit_persistent_us_p50", "us"),
    ("service.connect_overhead_ms_p50", "ms"),
    ("service.cache_hit_ratio", "fraction"),
    ("service.shed_ratio", "fraction"),
    ("service.degraded_ratio", "fraction"),
    ("portfolio.cache_key_us_p50", "us"),
    ("portfolio.lookup_hit_us_p50", "us"),
    ("portfolio.store_us_p50", "us"),
    ("resilience.supervise_ms_p50", "ms"),
    ("resilience.attempts_per_request", "count"),
    ("resilience.rung_ms_p50.ilp", "ms"),
    ("resilience.rung_ms_p50.exact", "ms"),
    ("resilience.rung_ms_p50.annealing", "ms"),
    ("resilience.rung_ms_p50.greedy", "ms"),
    ("resilience.won_by.ilp", "fraction"),
    ("resilience.won_by.exact", "fraction"),
    ("resilience.won_by.annealing", "fraction"),
    ("resilience.won_by.greedy", "fraction"),
    ("resilience.won_by.grace", "fraction"),
    ("ilp.nodes_per_s", "1/s"),
    ("ilp.lp_iterations_per_node", "count"),
    ("ilp.refactorizations_per_node", "count"),
    ("ilp.proven_in_slice_ratio", "fraction"),
    ("ilp.incumbent_gap_pct", "%"),
    ("cluster.probes_per_request", "count"),
    ("cluster.probe_hit_ratio", "fraction"),
    ("cluster.router_added_ms_p50", "ms"),
    ("cluster.replicas_put_per_fresh", "count"),
    ("cluster.read_repairs", "count"),
    ("cluster.failovers", "count"),
    ("loadgen.late_max_ms", "ms"),
    ("trace.layer_sum_ms_p50", "ms"),
    ("trace.replayed_requests", "count"),
    ("trace.handler_gap_pct", "%"),
];

/// Serve-path counter deltas over the timed phase (summed over the
/// cluster's workers on `cluster-mixed`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceCounters {
    /// Admitted `synth` requests.
    pub accepted: u64,
    /// Shed at admission or by open breakers.
    pub shed: u64,
    /// Answered from the result cache.
    pub cache_hits: u64,
    /// Completed degraded.
    pub degraded: u64,
}

/// Router counter deltas over the timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouterCounters {
    /// `synth` requests routed.
    pub requests: u64,
    /// Peer cache probes sent.
    pub probes: u64,
    /// Probes answered from a peer's cache.
    pub probe_hits: u64,
    /// Write-behind replicas put.
    pub replicas_put: u64,
    /// Read-repairs after a non-owner hit.
    pub read_repairs: u64,
    /// Failover re-dispatches.
    pub failovers: u64,
}

/// Everything a traced run measured, from the wire and from the replay.
#[derive(Default)]
pub struct Measured {
    /// The replay.
    pub replay: Replay,
    /// Top-level spans that add up to one request's layer sum.
    pub layers: &'static [&'static str],
    /// Request ids of the replayed *timed* requests (set-up frames that
    /// were replayed first to fill the cache fall outside it).
    pub timed: std::ops::Range<usize>,
    /// Raw wall time of each CLI solve.
    pub cli_wall_ms: Vec<f64>,
    /// Wire latency of each CLI solve minus its in-process replay.
    pub spawn_ms: Vec<f64>,
    /// Spawn time of the `cli-grid` yardstick process (`/bin/true`).
    pub bare_spawn_ms: Vec<f64>,
    /// Daemon-reported `elapsed_ms` of each wire answer.
    pub handler_ms: Vec<f64>,
    /// Wire latency minus `elapsed_ms`, per answer.
    pub outside_handler_ms: Vec<f64>,
    /// Cache-hit round trips on one persistent connection.
    pub hit_persistent_us: Vec<f64>,
    /// The same frames, one connection each.
    pub hit_per_connection_us: Vec<f64>,
    /// Cache-hit round trips through the router (µs).
    pub router_hit_us: Vec<f64>,
    /// The same frames sent straight to a daemon (µs).
    pub direct_hit_us: Vec<f64>,
    /// Serve-path counters, when a daemon served the timed phase.
    pub service: Option<ServiceCounters>,
    /// Router counters, when the cluster served the timed phase.
    pub router: Option<RouterCounters>,
    /// Fresh (cache-missing) requests in the cluster's timed phase.
    pub fresh: usize,
    /// Open-loop generator lateness per request.
    pub late_ms: Vec<f64>,
    /// Peak resident set of the processes serving the workload, in MB.
    pub peak_rss_mb: f64,
    /// Share of checked-ok answers marked proven optimal.
    pub proven_ratio: f64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn diff_of_medians(a: &[f64], b: &[f64]) -> Option<f64> {
    Some(median(a)? - median(b)?)
}

impl Measured {
    /// Median duration of the timed requests' spans named `name`.
    fn span_median(&self, name: &str, scale: f64) -> Option<f64> {
        let durations: Vec<f64> = self
            .replay
            .rec
            .spans()
            .iter()
            .filter(|s| s.name == name && self.timed.contains(&s.request))
            .map(crate::trace::Span::us)
            .collect();
        median(&durations).map(|us| us / scale)
    }

    /// Every [`PER_LAYER`] metric, in table order.
    #[must_use]
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let mut v: BTreeMap<&'static str, Option<f64>> = BTreeMap::new();
        let ms = 1e3;
        let us = 1.0;
        for (name, span, scale) in [
            ("core.build_problem_us_p50", "core.build_problem", us),
            ("core.exact_ms_p50", "core.exact", ms),
            ("core.formulate_ms_p50", "core.formulate", ms),
            ("core.validate_us_p50", "core.validate", us),
            ("dfg.parse_us_p50", "dfg.parse", us),
            ("analysis.lint_us_p50", "analysis.lint", us),
            ("analysis.certify_us_p50", "analysis.certify", us),
            ("service.parse_request_us_p50", "service.parse_request", us),
            ("service.render_us_p50", "service.render", us),
            ("portfolio.cache_key_us_p50", "portfolio.cache_key", us),
            ("portfolio.lookup_hit_us_p50", "portfolio.lookup_hit", us),
            ("portfolio.store_us_p50", "portfolio.store", us),
            ("resilience.supervise_ms_p50", "resilience.supervise", ms),
            ("resilience.rung_ms_p50.ilp", "resilience.rung.ilp", ms),
            ("resilience.rung_ms_p50.exact", "resilience.rung.exact", ms),
            (
                "resilience.rung_ms_p50.annealing",
                "resilience.rung.annealing",
                ms,
            ),
            (
                "resilience.rung_ms_p50.greedy",
                "resilience.rung.greedy",
                ms,
            ),
        ] {
            v.insert(name, self.span_median(span, scale));
        }

        v.insert("process.peak_rss_mb", Some(self.peak_rss_mb));
        v.insert("answers.proven_ratio", Some(self.proven_ratio));
        let exact = &self.replay.exact_proven;
        v.insert(
            "core.exact_proven_ratio",
            Some(ratio(
                exact.iter().filter(|&&p| p).count() as u64,
                exact.len() as u64,
            )),
        );
        v.insert("cli.wall_ms_p50", median(&self.cli_wall_ms));
        v.insert("cli.spawn_ms_p50", median(&self.spawn_ms));
        v.insert("cli.bare_spawn_ms_p50", median(&self.bare_spawn_ms));
        v.insert("service.handler_ms_p50", median(&self.handler_ms));
        v.insert(
            "service.outside_handler_ms_p50",
            median(&self.outside_handler_ms),
        );
        v.insert(
            "service.hit_persistent_us_p50",
            median(&self.hit_persistent_us),
        );
        v.insert(
            "service.connect_overhead_ms_p50",
            diff_of_medians(&self.hit_per_connection_us, &self.hit_persistent_us).map(|d| d / 1e3),
        );
        if let Some(s) = self.service {
            v.insert(
                "service.cache_hit_ratio",
                Some(ratio(s.cache_hits, s.accepted)),
            );
            v.insert(
                "service.shed_ratio",
                Some(ratio(s.shed, s.accepted + s.shed)),
            );
            v.insert(
                "service.degraded_ratio",
                Some(ratio(s.degraded, s.accepted)),
            );
        }

        let sup = &self.replay.supervised;
        let runs = sup.len() as u64;
        v.insert(
            "resilience.attempts_per_request",
            mean(&sup.iter().map(|s| s.attempts as f64).collect::<Vec<_>>()),
        );
        for (name, tag) in [
            ("resilience.won_by.ilp", "ilp"),
            ("resilience.won_by.exact", "exact"),
            ("resilience.won_by.annealing", "annealing"),
            ("resilience.won_by.greedy", "greedy"),
            ("resilience.won_by.grace", "grace"),
        ] {
            let won = sup.iter().filter(|s| s.won_by == Some(tag)).count() as u64;
            v.insert(name, Some(ratio(won, runs)));
        }

        let ilp = &self.replay.ilp;
        let nodes: usize = ilp.iter().map(|r| r.nodes).sum();
        let seconds: f64 = ilp.iter().map(|r| r.seconds).sum();
        let per_node = |f: fn(&crate::replay::IlpRun) -> usize| {
            ratio(ilp.iter().map(f).sum::<usize>() as u64, nodes as u64)
        };
        v.insert(
            "ilp.nodes_per_s",
            (seconds > 0.0).then(|| nodes as f64 / seconds),
        );
        v.insert(
            "ilp.lp_iterations_per_node",
            Some(per_node(|r| r.lp_iterations)),
        );
        v.insert(
            "ilp.refactorizations_per_node",
            Some(per_node(|r| r.refactorizations)),
        );
        v.insert(
            "ilp.proven_in_slice_ratio",
            Some(ratio(
                ilp.iter().filter(|r| r.proven).count() as u64,
                ilp.len() as u64,
            )),
        );
        v.insert(
            "ilp.incumbent_gap_pct",
            mean(&ilp.iter().filter_map(|r| r.gap_pct).collect::<Vec<_>>()),
        );

        if let Some(c) = self.router {
            v.insert(
                "cluster.probes_per_request",
                Some(ratio(c.probes, c.requests)),
            );
            v.insert(
                "cluster.probe_hit_ratio",
                Some(ratio(c.probe_hits, c.probes)),
            );
            v.insert(
                "cluster.replicas_put_per_fresh",
                Some(ratio(c.replicas_put, self.fresh as u64)),
            );
            v.insert("cluster.read_repairs", Some(c.read_repairs as f64));
            v.insert("cluster.failovers", Some(c.failovers as f64));
        }
        v.insert(
            "cluster.router_added_ms_p50",
            diff_of_medians(&self.router_hit_us, &self.direct_hit_us).map(|d| d / 1e3),
        );
        v.insert(
            "loadgen.late_max_ms",
            self.late_ms.iter().copied().reduce(f64::max),
        );

        let sums = self
            .replay
            .rec
            .layer_sums_us(self.layers, self.timed.clone());
        let layer_sum = median(&sums).map(|s| s / 1e3);
        v.insert("trace.layer_sum_ms_p50", layer_sum);
        v.insert("trace.replayed_requests", Some(sums.len() as f64));
        let handler = median(&self.handler_ms);
        v.insert(
            "trace.handler_gap_pct",
            match (layer_sum, handler) {
                (Some(sum), Some(h)) if h > 0.0 => Some(100.0 * (sum - h).abs() / h),
                _ => None,
            },
        );

        for name in v.keys() {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "{name} is missing from PER_LAYER"
            );
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = v.get(name).copied().flatten().unwrap_or(0.0);
                (name, value, unit)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_that_reaches_no_layer_reports_every_metric_as_zero() {
        let metrics = Measured::default().metrics();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert!(metrics.iter().all(|&(_, value, _)| value == 0.0));
    }
}
