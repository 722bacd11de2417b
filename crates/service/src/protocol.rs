//! The newline-delimited JSON request/response protocol.
//!
//! One request per line, one response line per request, in order:
//!
//! ```text
//! {"id":"r1","cmd":"synth","benchmark":"polynom","mode":"recovery",
//!  "catalog":"table1","lambda_det":4,"lambda_rec":3,"area":22000,
//!  "deadline_ms":2000,"no_degrade":false}
//! {"id":"r2","cmd":"ping"}
//! {"id":"r3","cmd":"stats"}
//! {"id":"r4","cmd":"shutdown"}
//! ```
//!
//! A `synth` request names either a built-in `benchmark` or carries the
//! graph inline as `dfg` text (the `troy-dfg` format with `\n` escapes).
//! A `probe` request has the same shape but only consults the result
//! cache: `ok` (with the cached design) on a hit, `miss` otherwise —
//! no solver ever runs. Every response carries `status` — `ok`,
//! `degraded`, `miss`, `rejected` or `error` — plus a `stats` trailer
//! with the daemon's counters, so a client always learns both its own
//! outcome and the service's health.

use std::time::Duration;

use troyhls::{Catalog, Mode};

use crate::stats::StatsSnapshot;
use troy_dfg::json::{escape, Json};

/// What a request asks the daemon to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmd {
    /// Synthesize a design.
    Synth,
    /// Result-cache lookup only: a `synth`-shaped request that answers
    /// `ok` (with the cached design and its certificate) on a hit and
    /// `miss` without running any solver otherwise. This is the peer
    /// cache protocol: a cluster router probes the key-owning worker's
    /// cache over the wire before dispatching the synthesis elsewhere,
    /// so one worker's warm result serves requests landing on another.
    Probe,
    /// Result-cache insert: a `synth`-shaped request carrying a
    /// serialized cache entry (`entry`) that the daemon re-validates
    /// against the rebuilt problem — the same certified-store gate the
    /// synthesis path uses — and stores on success. This is the
    /// replication protocol: a cluster router writes a fresh result
    /// behind to the key's ring successors so the entry outlives its
    /// owner. Admission-bypassing like `probe`; no solver ever runs.
    Put,
    /// Liveness probe.
    Ping,
    /// Report the serve-path counters.
    Stats,
    /// Begin a graceful drain.
    Shutdown,
}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: String,
    /// The command.
    pub cmd: Cmd,
    /// Built-in benchmark name (`synth`).
    pub benchmark: Option<String>,
    /// Inline DFG text (`synth`), alternative to `benchmark`.
    pub dfg: Option<String>,
    /// Protection mode; defaults to detection+recovery.
    pub mode: Mode,
    /// Vendor catalog; defaults to the paper's 8-vendor catalog.
    pub catalog: Catalog,
    /// Detection-phase latency override.
    pub lambda_det: Option<usize>,
    /// Recovery-phase latency override.
    pub lambda_rec: Option<usize>,
    /// Area cap; defaults to unlimited.
    pub area: u64,
    /// Per-request deadline; `None` means the server default.
    pub deadline: Option<Duration>,
    /// `true` pins the run to the primary rung (no ladder descent).
    pub no_degrade: bool,
    /// Cache entry object carried by a `put` request, as parsed.
    pub entry: Option<Json>,
    /// `true` asks a `probe` hit to embed the raw cache entry in the
    /// response (`entry` field) so the prober can replicate it onward.
    pub want_entry: bool,
}

/// Parses one request line. The error string is relayed verbatim to the
/// client in a `malformed` rejection.
pub fn parse_request(line: &str) -> Result<Request, String> {
    parse_frame(line).map(|(request, _)| request)
}

/// Parses one request line like [`parse_request`] and also hands back
/// the frame as JSON, minus its `entry` (moved into the request), so a
/// relay can re-render it without parsing the line again.
pub fn parse_frame(line: &str) -> Result<(Request, Json), String> {
    let mut json = Json::parse(line).ok_or("request is not valid protocol JSON")?;
    let Json::Obj(fields) = &mut json else {
        return Err("request must be a JSON object".into());
    };
    // A `put`'s entry is the one large field: move it out, don't copy it.
    let entry = fields
        .iter()
        .position(|(k, _)| k == "entry")
        .map(|i| fields.remove(i).1);
    let id = match json.get("id") {
        Some(Json::Str(s)) => s.clone(),
        Some(Json::Num(n)) => n.to_string(),
        None => return Err("request is missing `id`".into()),
        Some(_) => return Err("`id` must be a string or integer".into()),
    };
    let cmd = match json.get("cmd").and_then(Json::as_str) {
        Some("synth") => Cmd::Synth,
        Some("probe") => Cmd::Probe,
        Some("put") => Cmd::Put,
        Some("ping") => Cmd::Ping,
        Some("stats") => Cmd::Stats,
        Some("shutdown") => Cmd::Shutdown,
        Some(other) => return Err(format!("unknown cmd `{other}`")),
        None => return Err("request is missing `cmd`".into()),
    };
    let mode = match json.get("mode").and_then(Json::as_str) {
        None | Some("recovery") => Mode::DetectionRecovery,
        Some("detection") => Mode::DetectionOnly,
        Some(other) => return Err(format!("unknown mode `{other}`")),
    };
    let catalog = match json.get("catalog").and_then(Json::as_str) {
        None | Some("paper8") => Catalog::paper8(),
        Some("table1") => Catalog::table1(),
        Some(other) => return Err(format!("unknown catalog `{other}`")),
    };
    let opt_usize = |key: &str| -> Result<Option<usize>, String> {
        match json.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(Json::Num(n)) => Ok(Some(*n as usize)),
            Some(_) => Err(format!("`{key}` must be a non-negative integer")),
        }
    };
    let deadline = match json.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(Json::Num(n)) => {
            if *n == 0 {
                return Err("`deadline_ms` must be positive".into());
            }
            Some(Duration::from_millis(*n))
        }
        Some(_) => return Err("`deadline_ms` must be a positive integer".into()),
    };
    let request = Request {
        id,
        cmd,
        benchmark: json
            .get("benchmark")
            .and_then(Json::as_str)
            .map(str::to_owned),
        dfg: json.get("dfg").and_then(Json::as_str).map(str::to_owned),
        mode,
        catalog,
        lambda_det: opt_usize("lambda_det")?,
        lambda_rec: opt_usize("lambda_rec")?,
        area: match json.get("area") {
            None | Some(Json::Null) => u64::MAX,
            Some(Json::Num(n)) => *n,
            Some(_) => return Err("`area` must be a non-negative integer".into()),
        },
        deadline,
        no_degrade: match json.get("no_degrade") {
            None | Some(Json::Null) => false,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err("`no_degrade` must be a boolean".into()),
        },
        entry: match entry {
            None | Some(Json::Null) => {
                if cmd == Cmd::Put {
                    return Err("`put` requires an `entry` object".into());
                }
                None
            }
            Some(obj @ Json::Obj(_)) => Some(obj),
            Some(_) => return Err("`entry` must be a JSON object".into()),
        },
        want_entry: match json.get("want_entry") {
            None | Some(Json::Null) => false,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err("`want_entry` must be a boolean".into()),
        },
    };
    Ok((request, json))
}

/// Why a request was rejected or failed — the `kind` field of a
/// `rejected`/`error` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectKind {
    /// Shed at admission: queue and in-flight budget full.
    Overloaded,
    /// Every solver back end's circuit breaker is open.
    CircuitOpen,
    /// The line was not a parseable request.
    Malformed,
    /// The problem statement is invalid (bad DFG, unknown benchmark…).
    BadRequest,
    /// The deadline expired before any back end produced a design.
    Deadline,
    /// The problem is provably infeasible or every rung failed.
    Failed,
    /// The request handler panicked (isolated; the daemon survives).
    Internal,
    /// The daemon is draining and no longer accepts work.
    Draining,
    /// No live worker could accept the request (cluster router: every
    /// worker dead, draining or breaker-demoted). Carries
    /// `retry_after_ms` like the other back-pressure rejections.
    Unavailable,
}

impl RejectKind {
    /// Stable wire tag.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RejectKind::Overloaded => "overloaded",
            RejectKind::CircuitOpen => "circuit_open",
            RejectKind::Malformed => "malformed",
            RejectKind::BadRequest => "bad_request",
            RejectKind::Deadline => "deadline",
            RejectKind::Failed => "failed",
            RejectKind::Internal => "internal",
            RejectKind::Draining => "draining",
            RejectKind::Unavailable => "unavailable",
        }
    }

    /// `rejected` covers loads the service *chose* not to take
    /// (typed load shedding); `error` covers requests it took and could
    /// not complete.
    #[must_use]
    pub fn status(self) -> &'static str {
        match self {
            RejectKind::Overloaded
            | RejectKind::CircuitOpen
            | RejectKind::Malformed
            | RejectKind::BadRequest
            | RejectKind::Draining
            | RejectKind::Unavailable => "rejected",
            RejectKind::Deadline | RejectKind::Failed | RejectKind::Internal => "error",
        }
    }
}

/// One response line under construction.
#[derive(Debug, Clone, Default)]
pub struct Response {
    /// Echoed request id (`None` when the request was unparseable).
    pub id: Option<String>,
    /// `ok`, `degraded`, `rejected`, `error` or `pong`.
    pub status: &'static str,
    /// License cost, on success.
    pub cost: Option<u64>,
    /// Winning back end, on success.
    pub backend: Option<String>,
    /// Whether the cost was proven optimal.
    pub proven: Option<bool>,
    /// Latency relaxation applied (cycles), on success.
    pub relaxation: Option<usize>,
    /// Wall-clock handling time.
    pub elapsed_ms: Option<u64>,
    /// Whether the design came from the result cache.
    pub cached: bool,
    /// `TS0xx`/`TR0xx` diagnostic codes attached to this outcome.
    pub codes: Vec<String>,
    /// Pre-rendered security-certificate JSON object (`troy-analysis`),
    /// present only on non-degraded successes whose design the prover
    /// certified. Degraded, rejected and failed outcomes never carry
    /// one — an uncertified design must not look certified.
    pub certificate: Option<String>,
    /// Rejection/error kind.
    pub kind: Option<RejectKind>,
    /// Human-readable detail for rejections and errors.
    pub message: Option<String>,
    /// Back-pressure hint for `overloaded`/`circuit_open` rejections.
    pub retry_after_ms: Option<u64>,
    /// Raw serialized cache entry (pre-rendered JSON object), embedded
    /// only in `probe` hits that asked for it via `want_entry` — the
    /// replication side channel. The cluster router strips this field
    /// before relaying a response to a client.
    pub entry: Option<String>,
}

impl Response {
    /// A success/degraded skeleton.
    #[must_use]
    pub fn outcome(id: &str, status: &'static str) -> Self {
        Response {
            id: Some(id.to_owned()),
            status,
            ..Response::default()
        }
    }

    /// A typed rejection/error.
    #[must_use]
    pub fn reject(id: Option<&str>, kind: RejectKind, message: impl Into<String>) -> Self {
        Response {
            id: id.map(str::to_owned),
            status: kind.status(),
            kind: Some(kind),
            message: Some(message.into()),
            ..Response::default()
        }
    }

    /// Renders the single response line (no trailing newline), appending
    /// the serve-path counters as the `stats` trailer.
    #[must_use]
    pub fn render(&self, stats: &StatsSnapshot) -> String {
        self.render_with(&stats.to_json())
    }

    /// Renders the single response line with a caller-supplied `stats`
    /// trailer (pre-rendered JSON object) — the cluster router reports
    /// its own counters in the same frame shape the daemon uses.
    #[must_use]
    pub fn render_with(&self, stats_json: &str) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(192);
        s.push('{');
        match &self.id {
            Some(id) => {
                s.push_str("\"id\":");
                s.push_str(&escape(id));
            }
            None => s.push_str("\"id\":null"),
        }
        s.push_str(",\"status\":");
        s.push_str(&escape(self.status));
        if let Some(cost) = self.cost {
            let _ = write!(s, ",\"cost\":{cost}");
        }
        if let Some(backend) = &self.backend {
            s.push_str(",\"backend\":");
            s.push_str(&escape(backend));
        }
        if let Some(proven) = self.proven {
            let _ = write!(s, ",\"proven\":{proven}");
        }
        if let Some(relaxation) = self.relaxation {
            let _ = write!(s, ",\"relaxation\":{relaxation}");
        }
        if let Some(elapsed) = self.elapsed_ms {
            let _ = write!(s, ",\"elapsed_ms\":{elapsed}");
        }
        if self.cached {
            s.push_str(",\"cached\":true");
        }
        if !self.codes.is_empty() {
            s.push_str(",\"codes\":[");
            for (i, code) in self.codes.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&escape(code));
            }
            s.push(']');
        }
        if let Some(cert) = &self.certificate {
            s.push_str(",\"certificate\":");
            s.push_str(cert);
        }
        if let Some(kind) = self.kind {
            s.push_str(",\"kind\":");
            s.push_str(&escape(kind.as_str()));
        }
        if let Some(message) = &self.message {
            s.push_str(",\"message\":");
            s.push_str(&escape(message));
        }
        if let Some(retry) = self.retry_after_ms {
            let _ = write!(s, ",\"retry_after_ms\":{retry}");
        }
        if let Some(entry) = &self.entry {
            s.push_str(",\"entry\":");
            s.push_str(entry);
        }
        s.push_str(",\"stats\":");
        s.push_str(stats_json);
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_synth_request() {
        let r = parse_request(
            r#"{"id":"r1","cmd":"synth","benchmark":"polynom","mode":"recovery","catalog":"table1","lambda_det":4,"lambda_rec":3,"area":22000,"deadline_ms":2000}"#,
        )
        .expect("well-formed");
        assert_eq!(r.id, "r1");
        assert_eq!(r.cmd, Cmd::Synth);
        assert_eq!(r.benchmark.as_deref(), Some("polynom"));
        assert_eq!(r.lambda_det, Some(4));
        assert_eq!(r.lambda_rec, Some(3));
        assert_eq!(r.area, 22000);
        assert_eq!(r.deadline, Some(Duration::from_secs(2)));
        assert!(!r.no_degrade);
    }

    #[test]
    fn put_requests_carry_the_parsed_entry_object() {
        let entry_text = r#"{"cost":4160,"proven_optimal":true,"timed_out":false,"winner":"exact","num_ops":9,"assignments":[[0,0,0,0]]}"#;
        let r = parse_request(&format!(
            r#"{{"id":"p1","cmd":"put","benchmark":"polynom","entry":{entry_text}}}"#
        ))
        .expect("well-formed");
        assert_eq!(r.cmd, Cmd::Put);
        let entry = r.entry.expect("entry survives the parse");
        assert_eq!(Some(&entry), Json::parse(entry_text).as_ref());
        assert_eq!(entry.get("cost").and_then(Json::as_u64), Some(4160));
        assert_eq!(entry.get("winner").and_then(Json::as_str), Some("exact"));

        let probe =
            parse_request(r#"{"id":"p2","cmd":"probe","benchmark":"polynom","want_entry":true}"#)
                .expect("well-formed");
        assert!(probe.want_entry);
        assert!(probe.entry.is_none());
    }

    #[test]
    fn typed_parse_failures() {
        for (line, fragment) in [
            ("not json", "not valid"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"cmd":"synth"}"#, "missing `id`"),
            (r#"{"id":"x"}"#, "missing `cmd`"),
            (r#"{"id":"x","cmd":"dance"}"#, "unknown cmd"),
            (r#"{"id":"x","cmd":"synth","mode":"zen"}"#, "unknown mode"),
            (
                r#"{"id":"x","cmd":"synth","deadline_ms":0}"#,
                "must be positive",
            ),
            (
                r#"{"id":"x","cmd":"synth","lambda_det":"four"}"#,
                "non-negative integer",
            ),
            (
                r#"{"id":"x","cmd":"put","benchmark":"polynom"}"#,
                "requires an `entry`",
            ),
            (
                r#"{"id":"x","cmd":"put","entry":[1]}"#,
                "must be a JSON object",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(fragment), "{line}: {err}");
        }
    }

    #[test]
    fn response_renders_to_one_parseable_line() {
        let stats = StatsSnapshot::default();
        let mut resp = Response::outcome("r7", "ok");
        resp.cost = Some(4160);
        resp.backend = Some("exact".into());
        resp.proven = Some(true);
        resp.relaxation = Some(0);
        resp.elapsed_ms = Some(42);
        resp.codes = vec!["TR001".into(), "TS002".into()];
        resp.certificate = Some(
            r#"{"design":"polynom","mode":"detection-only","single_vendor_safe":true}"#.to_owned(),
        );
        let zeros = "\"stats\":{\"accepted\":0,\"shed_overload\":0,\"shed_circuit\":0,\
             \"completed_ok\":0,\"completed_degraded\":0,\"failed\":0,\"panics\":0,\
             \"malformed\":0,\"connections\":0,\"cache_hits\":0,\"probes\":0,\
             \"probe_hits\":0,\"puts\":0,\"put_stores\":0}}";
        let line = resp.render(&stats);
        assert_eq!(
            line,
            format!(
                "{{\"id\":\"r7\",\"status\":\"ok\",\"cost\":4160,\"backend\":\"exact\",\
                 \"proven\":true,\"relaxation\":0,\"elapsed_ms\":42,\"codes\":[\"TR001\",\"TS002\"],\
                 \"certificate\":{{\"design\":\"polynom\",\"mode\":\"detection-only\",\
                 \"single_vendor_safe\":true}},{zeros}"
            )
        );
        assert!(!line.contains('\n'));
        let back = Json::parse(&line).expect("response parses");
        assert_eq!(back.get("id").and_then(Json::as_str), Some("r7"));
        assert_eq!(back.get("cost").and_then(Json::as_u64), Some(4160));
        assert!(back.get("stats").is_some());
        let cert = back.get("certificate").expect("certificate embeds");
        assert_eq!(cert.get("design").and_then(Json::as_str), Some("polynom"));
        assert_eq!(cert.get("single_vendor_safe"), Some(&Json::Bool(true)));

        let mut reject = Response::reject(None, RejectKind::Overloaded, "queue full");
        reject.retry_after_ms = Some(250);
        let line = reject.render(&stats);
        assert_eq!(
            line,
            format!(
                "{{\"id\":null,\"status\":\"rejected\",\"kind\":\"overloaded\",\
                 \"message\":\"queue full\",\"retry_after_ms\":250,{zeros}"
            )
        );
        let back = Json::parse(&line).expect("rejection parses");
        assert_eq!(back.get("id"), Some(&Json::Null));
        assert_eq!(back.get("kind").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(back.get("status").and_then(Json::as_str), Some("rejected"));
        assert_eq!(back.get("retry_after_ms").and_then(Json::as_u64), Some(250));
    }
}
