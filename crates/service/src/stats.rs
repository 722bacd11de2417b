//! Serve-path counters, reported in every response's `stats` trailer.
//!
//! [`counters!`](crate::counters) declares each counter table once;
//! [`ServiceStats`] is the daemon's.

/// Declares a table of relaxed atomic counters, each named once with its
/// doc comment, and generates from it:
///
/// - the counter struct (one `AtomicU64` per field, `Default`) with a
///   relaxed `bump` and a `snapshot`;
/// - the `Copy` snapshot struct with the same `pub` field names;
/// - the snapshot's `to_json`: one compact JSON object, fields in
///   declaration order, written by one `format!` into one `String`.
///
/// ```
/// troy_service::counters! {
///     /// Example counters.
///     pub struct Hits => HitsSnapshot {
///         /// Requests served.
///         served,
///         /// Requests refused.
///         refused,
///     }
/// }
///
/// let hits = Hits::default();
/// Hits::bump(&hits.served);
/// assert_eq!(hits.snapshot().refused, 0);
/// assert_eq!(hits.snapshot().to_json(), r#"{"served":1,"refused":0}"#);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $stats:ident => $snapshot:ident {
            $( $(#[doc = $doc:literal])* $name:ident, )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        pub struct $stats {
            $( $(#[doc = $doc])* pub $name: ::std::sync::atomic::AtomicU64, )+
        }

        impl $stats {
            /// Relaxed increment helper.
            pub fn bump(counter: &::std::sync::atomic::AtomicU64) {
                counter.fetch_add(1, ::std::sync::atomic::Ordering::Relaxed);
            }

            /// A point-in-time copy for rendering.
            #[must_use]
            pub fn snapshot(&self) -> $snapshot {
                $snapshot {
                    $( $name: self.$name.load(::std::sync::atomic::Ordering::Relaxed), )+
                }
            }
        }

        #[doc = concat!("A point-in-time copy of [`", stringify!($stats), "`].")]
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $snapshot {
            $( $(#[doc = $doc])* pub $name: u64, )+
        }

        impl $snapshot {
            /// Renders the counters as one compact JSON object, fields in
            /// declaration order.
            #[must_use]
            pub fn to_json(&self) -> String {
                // Each field renders as `,"name":value`; the first comma
                // becomes the opening brace.
                let mut out = format!(
                    concat!($(",\"", stringify!($name), "\":{}",)+ "}}"),
                    $(self.$name),+
                );
                out.replace_range(..1, "{");
                out
            }
        }
    };
}

counters! {
    /// Shared atomic counters. One instance lives for the daemon's lifetime;
    /// all increments are relaxed (they are monotonic telemetry, not
    /// synchronization).
    pub struct ServiceStats => StatsSnapshot {
        /// Requests admitted into synthesis.
        accepted,
        /// Requests shed at admission (queue + in-flight budget full).
        shed_overload,
        /// Requests rejected because every breaker was open.
        shed_circuit,
        /// Admitted requests that completed un-degraded.
        completed_ok,
        /// Admitted requests that completed degraded (relaxation, grace
        /// pass, or a design only a heuristic rung found).
        completed_degraded,
        /// Admitted requests that ended in a typed error.
        failed,
        /// Request handlers that panicked (isolated by the firewall).
        panics,
        /// Lines that failed protocol parsing.
        malformed,
        /// Connections accepted.
        connections,
        /// Synth responses served from the result cache.
        cache_hits,
        /// Peer cache lookups answered (`probe` requests).
        probes,
        /// Peer cache lookups answered with a hit.
        probe_hits,
        /// Replicated cache inserts received (`put` requests).
        puts,
        /// Replicated cache inserts that passed re-validation and stored.
        put_stores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Json;
    use std::sync::atomic::AtomicU64;

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

        // Every counter distinct: a swapped or dropped field changes the bytes.
        let distinct = ServiceStats {
            accepted: AtomicU64::new(1),
            shed_overload: AtomicU64::new(2),
            shed_circuit: AtomicU64::new(3),
            completed_ok: AtomicU64::new(4),
            completed_degraded: AtomicU64::new(5),
            failed: AtomicU64::new(6),
            panics: AtomicU64::new(7),
            malformed: AtomicU64::new(8),
            connections: AtomicU64::new(9),
            cache_hits: AtomicU64::new(10),
            probes: AtomicU64::new(11),
            probe_hits: AtomicU64::new(12),
            puts: AtomicU64::new(13),
            put_stores: AtomicU64::new(14),
        };
        assert_eq!(
            distinct.snapshot().to_json(),
            "{\"accepted\":1,\"shed_overload\":2,\"shed_circuit\":3,\"completed_ok\":4,\
             \"completed_degraded\":5,\"failed\":6,\"panics\":7,\"malformed\":8,\
             \"connections\":9,\"cache_hits\":10,\"probes\":11,\"probe_hits\":12,\
             \"puts\":13,\"put_stores\":14}"
        );
    }
}
