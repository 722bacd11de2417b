//! Router-path counters, reported in every response's `stats` trailer.
//!
//! The router substitutes its own counters for the worker's in every
//! relayed response, so a client always sees cluster-level health in the
//! same frame position a single daemon reports its own.

troy_service::counters! {
    /// Shared atomic counters for the cluster router. All increments are
    /// relaxed — monotonic telemetry, not synchronization.
    pub struct ClusterStats => ClusterSnapshot {
        /// Connections accepted by the router.
        connections,
        /// Routable requests received (`synth` + `probe` + `put`).
        requests,
        /// Requests relayed with an `ok`, `degraded` or `miss` outcome.
        routed_ok,
        /// Requests relayed with (or terminated by) a typed `error`.
        routed_error,
        /// Worker rejections (overload, draining…) relayed to the client.
        relayed_rejects,
        /// Requests shed by the router itself: no live worker could accept
        /// (`unavailable` + TS006).
        sheds,
        /// Peer cache probes sent to workers.
        probes,
        /// Peer cache probes answered with a hit.
        probe_hits,
        /// Dispatch attempts re-hashed to a backup worker after a transport
        /// failure or injected fault.
        failovers,
        /// Lines that failed protocol parsing at the router.
        malformed,
        /// Dead slots revived by the supervisor (generation bumps).
        respawns,
        /// Entries replicated to ring successors by write-behind.
        replicas_put,
        /// Entries put back to the key's owner after a non-owner probe hit.
        read_repairs,
        /// Entries warmed into a respawned worker's cold cache.
        warmed,
        /// Accepted `synth` frames appended to the dispatch journal.
        journal_appends,
        /// Journal entries replayed through dispatch after a restart.
        journal_replays,
        /// Injected worker-kill faults.
        chaos_kills,
        /// Injected network-partition faults.
        chaos_partitions,
        /// Injected torn-frame faults.
        chaos_torn,
        /// Injected worker-stall faults.
        chaos_stalls,
        /// Injected respawn-storm faults (the replacement died on arrival).
        chaos_respawn_storms,
        /// Injected replica-drop faults (a write-behind copy was lost).
        chaos_replica_drops,
        /// Injected torn journal appends.
        chaos_journal_torn,
        /// Fresh router→worker connections opened for probes, dispatches
        /// and puts (the rest reuse a pooled connection).
        worker_connects,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use troy_service::Json;

    #[test]
    fn snapshot_renders_as_json() {
        let stats = ClusterStats::default();
        ClusterStats::bump(&stats.requests);
        ClusterStats::bump(&stats.requests);
        ClusterStats::bump(&stats.failovers);
        ClusterStats::bump(&stats.respawns);
        ClusterStats::bump(&stats.journal_replays);
        let snap = stats.snapshot();
        let json = Json::parse(&snap.to_json()).expect("stats render parses");
        assert_eq!(json.get("requests").and_then(Json::as_u64), Some(2));
        assert_eq!(json.get("failovers").and_then(Json::as_u64), Some(1));
        assert_eq!(json.get("sheds").and_then(Json::as_u64), Some(0));
        assert_eq!(json.get("respawns").and_then(Json::as_u64), Some(1));
        assert_eq!(json.get("replicas_put").and_then(Json::as_u64), Some(0));
        assert_eq!(json.get("journal_replays").and_then(Json::as_u64), Some(1));

        // Every counter distinct: a swapped or dropped field changes the bytes.
        let distinct = ClusterStats {
            connections: AtomicU64::new(1),
            requests: AtomicU64::new(2),
            routed_ok: AtomicU64::new(3),
            routed_error: AtomicU64::new(4),
            relayed_rejects: AtomicU64::new(5),
            sheds: AtomicU64::new(6),
            probes: AtomicU64::new(7),
            probe_hits: AtomicU64::new(8),
            failovers: AtomicU64::new(9),
            malformed: AtomicU64::new(10),
            respawns: AtomicU64::new(11),
            replicas_put: AtomicU64::new(12),
            read_repairs: AtomicU64::new(13),
            warmed: AtomicU64::new(14),
            journal_appends: AtomicU64::new(15),
            journal_replays: AtomicU64::new(16),
            chaos_kills: AtomicU64::new(17),
            chaos_partitions: AtomicU64::new(18),
            chaos_torn: AtomicU64::new(19),
            chaos_stalls: AtomicU64::new(20),
            chaos_respawn_storms: AtomicU64::new(21),
            chaos_replica_drops: AtomicU64::new(22),
            chaos_journal_torn: AtomicU64::new(23),
            worker_connects: AtomicU64::new(24),
        };
        assert_eq!(
            distinct.snapshot().to_json(),
            "{\"connections\":1,\"requests\":2,\"routed_ok\":3,\"routed_error\":4,\
             \"relayed_rejects\":5,\"sheds\":6,\"probes\":7,\"probe_hits\":8,\
             \"failovers\":9,\"malformed\":10,\"respawns\":11,\"replicas_put\":12,\
             \"read_repairs\":13,\"warmed\":14,\"journal_appends\":15,\
             \"journal_replays\":16,\"chaos_kills\":17,\"chaos_partitions\":18,\
             \"chaos_torn\":19,\"chaos_stalls\":20,\"chaos_respawn_storms\":21,\
             \"chaos_replica_drops\":22,\"chaos_journal_torn\":23,\"worker_connects\":24}"
        );
    }
}
