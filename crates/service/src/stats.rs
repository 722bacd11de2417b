//! Serve-path counters, reported in every response's `stats` trailer.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared atomic counters. One instance lives for the daemon's lifetime;
/// all increments are relaxed (they are monotonic telemetry, not
/// synchronization).
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Requests admitted into synthesis.
    pub accepted: AtomicU64,
    /// Requests shed at admission (queue + in-flight budget full).
    pub shed_overload: AtomicU64,
    /// Requests rejected because every breaker was open.
    pub shed_circuit: AtomicU64,
    /// Admitted requests that completed un-degraded.
    pub completed_ok: AtomicU64,
    /// Admitted requests that completed degraded (relaxation, grace
    /// pass, or a design only a heuristic rung found).
    pub completed_degraded: AtomicU64,
    /// Admitted requests that ended in a typed error.
    pub failed: AtomicU64,
    /// Request handlers that panicked (isolated by the firewall).
    pub panics: AtomicU64,
    /// Lines that failed protocol parsing.
    pub malformed: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Synth responses served from the result cache.
    pub cache_hits: AtomicU64,
    /// Peer cache lookups answered (`probe` requests).
    pub probes: AtomicU64,
    /// Peer cache lookups answered with a hit.
    pub probe_hits: AtomicU64,
    /// Replicated cache inserts received (`put` requests).
    pub puts: AtomicU64,
    /// Replicated cache inserts that passed re-validation and stored.
    pub put_stores: AtomicU64,
}

impl ServiceStats {
    /// Relaxed increment helper.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy for rendering.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            shed_overload: self.shed_overload.load(Ordering::Relaxed),
            shed_circuit: self.shed_circuit.load(Ordering::Relaxed),
            completed_ok: self.completed_ok.load(Ordering::Relaxed),
            completed_degraded: self.completed_degraded.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            probe_hits: self.probe_hits.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            put_stores: self.put_stores.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`ServiceStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings documented on ServiceStats
pub struct StatsSnapshot {
    pub accepted: u64,
    pub shed_overload: u64,
    pub shed_circuit: u64,
    pub completed_ok: u64,
    pub completed_degraded: u64,
    pub failed: u64,
    pub panics: u64,
    pub malformed: u64,
    pub connections: u64,
    pub cache_hits: u64,
    pub probes: u64,
    pub probe_hits: u64,
    pub puts: u64,
    pub put_stores: u64,
}

impl StatsSnapshot {
    /// Renders the counters as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"accepted\":{},\"shed_overload\":{},\"shed_circuit\":{},\
             \"completed_ok\":{},\"completed_degraded\":{},\"failed\":{},\
             \"panics\":{},\"malformed\":{},\"connections\":{},\"cache_hits\":{},\
             \"probes\":{},\"probe_hits\":{},\"puts\":{},\"put_stores\":{}}}",
            self.accepted,
            self.shed_overload,
            self.shed_circuit,
            self.completed_ok,
            self.completed_degraded,
            self.failed,
            self.panics,
            self.malformed,
            self.connections,
            self.cache_hits,
            self.probes,
            self.probe_hits,
            self.puts,
            self.put_stores,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn snapshot_renders_as_json() {
        let stats = ServiceStats::default();
        ServiceStats::bump(&stats.accepted);
        ServiceStats::bump(&stats.accepted);
        ServiceStats::bump(&stats.shed_overload);
        let snap = stats.snapshot();
        assert_eq!(snap.accepted, 2);
        assert_eq!(snap.shed_overload, 1);
        let json = Json::parse(&snap.to_json()).expect("stats render parses");
        assert_eq!(json.get("accepted").and_then(Json::as_u64), Some(2));
        assert_eq!(json.get("cache_hits").and_then(Json::as_u64), Some(0));
    }
}
