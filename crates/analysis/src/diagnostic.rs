//! The diagnostic model: stable codes, severities, locations and fix-its.

use std::fmt;

use troy_dfg::{IpTypeId, NodeId};
use troyhls::{OpCopy, VendorId};

/// How serious a diagnostic is.
///
/// Ordered: `Note < Warning < Error`, so severity filtering is a simple
/// comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational observation; never affects the exit status.
    Note,
    /// Suspicious but legal; fails the run only under `--deny warnings`.
    Warning,
    /// A constraint of the paper's formulation is violated or provably
    /// unsatisfiable; the design is not acceptable.
    Error,
}

impl Severity {
    /// Lowercase name, as printed in every output format.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// Parses a lowercase severity name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "note" => Some(Severity::Note),
            "warning" => Some(Severity::Warning),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Stable diagnostic codes.
///
/// Four families:
///
/// - `TD0xx` — **design-rule** findings: one code per [`troyhls::Violation`]
///   shape (the five vendor-diversity rules get one code each);
/// - `TP0xx` — **problem/feasibility** findings computed *before* any
///   solver runs;
/// - `TQ0xx` — **quality** lints on an otherwise complete binding;
/// - `TR0xx` — **resilience** findings: how a supervised synthesis run
///   degraded (backend demotions, constraint relaxation, transient
///   retries) on its way to the reported design;
/// - `TS0xx` — **serving** findings: how the synthesis daemon's
///   admission control, circuit breakers and deadline enforcement shaped
///   the response to one request.
///
/// Codes are append-only: a published code never changes meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// TD001: a required op copy has no assignment.
    UnassignedCopy,
    /// TD002: a copy is scheduled outside its phase window.
    OutsideWindow,
    /// TD003: a data dependency is not respected within a computation.
    DependencyOrder,
    /// TD004: a copy is bound to a vendor that does not sell its IP type.
    NoSuchCore,
    /// TD005: NC and RC copies of one op share a vendor (Rule 1, detection).
    Rule1Detection,
    /// TD006: parent and child in one computation share a vendor (Rule 2).
    Rule2ParentChild,
    /// TD007: two parents of the same child share a vendor (Rule 2).
    Rule2Siblings,
    /// TD008: a recovery copy reuses one of its own detection vendors
    /// (Rule 1, recovery).
    Rule1Recovery,
    /// TD009: a recovery copy reuses a detection vendor of a
    /// closely-related op (Rule 2, recovery).
    Rule2Related,
    /// TD010: total instantiated area exceeds the limit.
    AreaExceeded,
    /// TP001: the catalog licenses fewer vendors for an IP type than the
    /// mode's provable lower bound.
    InsufficientVendors,
    /// TP002: operations with zero scheduling mobility — the latency equals
    /// the critical path, so re-timing cannot repair vendor conflicts.
    ZeroMobility,
    /// TP003: an area lower bound derived from forced concurrency already
    /// exceeds the area limit.
    AreaInfeasible,
    /// TP004: a cataloged vendor sells no IP type the DFG uses.
    UnusableVendor,
    /// TP005: an IP type has exactly as many vendors as the mode requires —
    /// zero diversity slack.
    TightVendorPool,
    /// TP006: a phase latency is below the DFG's critical path.
    InfeasibleLatency,
    /// TQ001: a license serves a single copy that could legally move to an
    /// already-licensed vendor — its fee is avoidable.
    RedundantLicense,
    /// TQ002: two same-role copies two dependency hops apart share a vendor
    /// — one edge short of a Rule 2 pair.
    NearCollusion,
    /// TQ003: register pressure peaks with most copies live at once.
    RegisterPressure,
    /// TR001: the reported design came from a fallback back end (or the
    /// grace pass), not the primary rung of the degradation ladder — the
    /// exact solver, its one prover. Every fallback is therefore a
    /// heuristic's design, and the answer is degraded.
    DegradedBackend,
    /// TR002: the design satisfies a latency-relaxed variant of the
    /// problem, not the constraints as originally stated.
    ConstraintRelaxed,
    /// TR003: a back end faulted (panicked or returned an invalid
    /// design) and was demoted for the rest of the run.
    BackendFault,
    /// TR004: a transient fault (spurious cancellation) was absorbed by
    /// retrying with backoff.
    TransientRetried,
    /// TS001: the service shed the request at admission because its
    /// queue and in-flight budget were full.
    ServiceOverloaded,
    /// TS002: a solver back end was skipped because its circuit breaker
    /// was open when the request arrived.
    CircuitOpen,
    /// TS003: the request's deadline expired before any back end
    /// produced a design.
    RequestDeadlineExhausted,
    /// TQ004: a single vendor controls both the NC and RC copies of an
    /// output cone — it can corrupt the checked output without the
    /// comparator noticing (semantic lift of Rule 1 to cones).
    ConeSingleVendor,
    /// TQ005: one vendor holds two directly-interacting positions (an
    /// edge or a sibling pair) inside a single computation copy of a
    /// cone — a covert trigger channel (semantic lift of Rule 2).
    ConeTriggerChannel,
    /// TQ006: two vendors jointly control every NC and RC position of an
    /// output cone — that colluding pair defeats the comparator for this
    /// output.
    ConePairCollapse,
    /// TQ007: a vendor inside an output cone's detection copies also
    /// appears in the cone's recovery copy — recovery of this output is
    /// not independent of the vendors it recovers from.
    RecoveryConeExposure,
    /// TS004: the response carries no security certificate — the answer
    /// is degraded (latency-relaxed, from the grace pass, or found only
    /// by a heuristic rung) and the diversity guarantee was not
    /// machine-checked.
    UncertifiedResponse,
    /// TS005: the request was served by a backup worker after the shard
    /// owner selected by the cluster's consistent-hash ring failed
    /// mid-request or was breaker-demoted at dispatch; the result is
    /// still byte-equivalent to the owner's answer for the same key.
    WorkerFailover,
    /// TS006: the cluster shed the request because no live worker could
    /// accept it — every worker was dead, draining or breaker-demoted;
    /// the rejection carries a `retry_after_ms` hint.
    ClusterUnavailable,
    /// TS007: the request was served by a worker that the supervisor has
    /// respawned at least once — the slot died and came back under a new
    /// generation; the answer is unaffected, but the serving daemon is
    /// not the one that booted with the cluster.
    WorkerRespawned,
    /// TS008: the request was recovered from the router's dispatch
    /// journal after a restart — it had been accepted but had no
    /// recorded terminal outcome, so the router re-dispatched it.
    JournalReplayed,
}

/// Total number of published codes.
pub const NUM_CODES: usize = 35;

impl Code {
    /// Every published code, in code order.
    #[must_use]
    pub fn all() -> [Code; NUM_CODES] {
        [
            Code::UnassignedCopy,
            Code::OutsideWindow,
            Code::DependencyOrder,
            Code::NoSuchCore,
            Code::Rule1Detection,
            Code::Rule2ParentChild,
            Code::Rule2Siblings,
            Code::Rule1Recovery,
            Code::Rule2Related,
            Code::AreaExceeded,
            Code::InsufficientVendors,
            Code::ZeroMobility,
            Code::AreaInfeasible,
            Code::UnusableVendor,
            Code::TightVendorPool,
            Code::InfeasibleLatency,
            Code::RedundantLicense,
            Code::NearCollusion,
            Code::RegisterPressure,
            Code::DegradedBackend,
            Code::ConstraintRelaxed,
            Code::BackendFault,
            Code::TransientRetried,
            Code::ServiceOverloaded,
            Code::CircuitOpen,
            Code::RequestDeadlineExhausted,
            Code::ConeSingleVendor,
            Code::ConeTriggerChannel,
            Code::ConePairCollapse,
            Code::RecoveryConeExposure,
            Code::UncertifiedResponse,
            Code::WorkerFailover,
            Code::ClusterUnavailable,
            Code::WorkerRespawned,
            Code::JournalReplayed,
        ]
    }

    /// The stable code string, e.g. `"TD005"`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Code::UnassignedCopy => "TD001",
            Code::OutsideWindow => "TD002",
            Code::DependencyOrder => "TD003",
            Code::NoSuchCore => "TD004",
            Code::Rule1Detection => "TD005",
            Code::Rule2ParentChild => "TD006",
            Code::Rule2Siblings => "TD007",
            Code::Rule1Recovery => "TD008",
            Code::Rule2Related => "TD009",
            Code::AreaExceeded => "TD010",
            Code::InsufficientVendors => "TP001",
            Code::ZeroMobility => "TP002",
            Code::AreaInfeasible => "TP003",
            Code::UnusableVendor => "TP004",
            Code::TightVendorPool => "TP005",
            Code::InfeasibleLatency => "TP006",
            Code::RedundantLicense => "TQ001",
            Code::NearCollusion => "TQ002",
            Code::RegisterPressure => "TQ003",
            Code::DegradedBackend => "TR001",
            Code::ConstraintRelaxed => "TR002",
            Code::BackendFault => "TR003",
            Code::TransientRetried => "TR004",
            Code::ServiceOverloaded => "TS001",
            Code::CircuitOpen => "TS002",
            Code::RequestDeadlineExhausted => "TS003",
            Code::ConeSingleVendor => "TQ004",
            Code::ConeTriggerChannel => "TQ005",
            Code::ConePairCollapse => "TQ006",
            Code::RecoveryConeExposure => "TQ007",
            Code::UncertifiedResponse => "TS004",
            Code::WorkerFailover => "TS005",
            Code::ClusterUnavailable => "TS006",
            Code::WorkerRespawned => "TS007",
            Code::JournalReplayed => "TS008",
        }
    }

    /// Kebab-case lint name, e.g. `"rule1-detection"`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Code::UnassignedCopy => "unassigned-copy",
            Code::OutsideWindow => "outside-window",
            Code::DependencyOrder => "dependency-order",
            Code::NoSuchCore => "no-such-core",
            Code::Rule1Detection => "rule1-detection",
            Code::Rule2ParentChild => "rule2-parent-child",
            Code::Rule2Siblings => "rule2-siblings",
            Code::Rule1Recovery => "rule1-recovery",
            Code::Rule2Related => "rule2-related",
            Code::AreaExceeded => "area-exceeded",
            Code::InsufficientVendors => "insufficient-vendors",
            Code::ZeroMobility => "zero-mobility",
            Code::AreaInfeasible => "area-infeasible",
            Code::UnusableVendor => "unusable-vendor",
            Code::TightVendorPool => "tight-vendor-pool",
            Code::InfeasibleLatency => "infeasible-latency",
            Code::RedundantLicense => "redundant-license",
            Code::NearCollusion => "near-collusion",
            Code::RegisterPressure => "register-pressure",
            Code::DegradedBackend => "degraded-backend",
            Code::ConstraintRelaxed => "constraint-relaxed",
            Code::BackendFault => "backend-fault",
            Code::TransientRetried => "transient-retried",
            Code::ServiceOverloaded => "service-overloaded",
            Code::CircuitOpen => "circuit-open",
            Code::RequestDeadlineExhausted => "request-deadline-exhausted",
            Code::ConeSingleVendor => "cone-single-vendor",
            Code::ConeTriggerChannel => "cone-trigger-channel",
            Code::ConePairCollapse => "cone-pair-collapse",
            Code::RecoveryConeExposure => "recovery-cone-exposure",
            Code::UncertifiedResponse => "uncertified-response",
            Code::WorkerFailover => "worker-failover",
            Code::ClusterUnavailable => "cluster-unavailable",
            Code::WorkerRespawned => "worker-respawned",
            Code::JournalReplayed => "journal-replayed",
        }
    }

    /// One-line description shown in rule registries (SARIF, README).
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            Code::UnassignedCopy => "a required operation copy has no assignment",
            Code::OutsideWindow => "a copy is scheduled outside its phase window",
            Code::DependencyOrder => "a data dependency is not respected within a computation",
            Code::NoSuchCore => "a copy is bound to a vendor that does not sell its IP type",
            Code::Rule1Detection => "NC and RC copies of one operation share a vendor",
            Code::Rule2ParentChild => {
                "a parent and its child share a vendor within one computation"
            }
            Code::Rule2Siblings => "two parents of the same child share a vendor",
            Code::Rule1Recovery => "a recovery copy reuses one of its own detection vendors",
            Code::Rule2Related => {
                "a recovery copy reuses a detection vendor of a closely-related operation"
            }
            Code::AreaExceeded => "total instantiated area exceeds the area limit",
            Code::InsufficientVendors => {
                "the catalog licenses fewer vendors for an IP type than the mode provably needs"
            }
            Code::ZeroMobility => {
                "operations have zero scheduling mobility: the latency equals the critical path"
            }
            Code::AreaInfeasible => {
                "a concurrency-derived area lower bound already exceeds the area limit"
            }
            Code::UnusableVendor => "a cataloged vendor sells no IP type the design uses",
            Code::TightVendorPool => {
                "an IP type has exactly the minimum vendor count: zero diversity slack"
            }
            Code::InfeasibleLatency => "a phase latency is below the DFG's critical path",
            Code::RedundantLicense => {
                "a license serves a single copy that could legally use an already-licensed vendor"
            }
            Code::NearCollusion => "same-role copies two dependency hops apart share a vendor",
            Code::RegisterPressure => "register pressure peaks with most copies live at once",
            Code::DegradedBackend => {
                "the design came from a fallback back end, not the primary solver"
            }
            Code::ConstraintRelaxed => {
                "the design satisfies latency-relaxed constraints, not the original ones"
            }
            Code::BackendFault => "a back end faulted during synthesis and was demoted",
            Code::TransientRetried => "a transient fault was absorbed by retrying with backoff",
            Code::ServiceOverloaded => {
                "the request was shed at admission: queue and in-flight budget full"
            }
            Code::CircuitOpen => "a back end was skipped because its circuit breaker was open",
            Code::RequestDeadlineExhausted => {
                "the request's deadline expired before any back end produced a design"
            }
            Code::ConeSingleVendor => "one vendor controls both detection copies of an output cone",
            Code::ConeTriggerChannel => {
                "one vendor holds two directly-interacting positions in one computation copy"
            }
            Code::ConePairCollapse => {
                "two vendors jointly control every detection position of an output cone"
            }
            Code::RecoveryConeExposure => {
                "a detection vendor of an output cone reappears in the cone's recovery copy"
            }
            Code::UncertifiedResponse => {
                "the response carries no machine-checked security certificate"
            }
            Code::WorkerFailover => {
                "the request was re-dispatched to a backup worker after its shard owner failed"
            }
            Code::ClusterUnavailable => {
                "the cluster shed the request: no live worker could accept it"
            }
            Code::WorkerRespawned => {
                "the serving worker was respawned by the supervisor under a new generation"
            }
            Code::JournalReplayed => {
                "the request was re-dispatched from the dispatch journal after a router restart"
            }
        }
    }

    /// Which equation(s) of the paper the finding traces to, if any.
    #[must_use]
    pub fn paper_ref(self) -> Option<&'static str> {
        match self {
            Code::UnassignedCopy => Some("eq. (3)"),
            Code::OutsideWindow => Some("eqs. (14)-(15)"),
            Code::DependencyOrder => Some("eq. (4)"),
            Code::NoSuchCore => Some("eqs. (11)-(12)"),
            Code::Rule1Detection => Some("eq. (5)"),
            Code::Rule2ParentChild => Some("eq. (6)"),
            Code::Rule2Siblings => Some("eq. (7)"),
            Code::Rule1Recovery => Some("eqs. (8)-(9)"),
            Code::Rule2Related => Some("eq. (10)"),
            Code::AreaExceeded => Some("eq. (13)"),
            Code::InsufficientVendors => Some("eqs. (5), (8)-(9)"),
            Code::ZeroMobility => Some("eqs. (14)-(15)"),
            Code::AreaInfeasible => Some("eqs. (13), (16)"),
            Code::UnusableVendor => None,
            Code::TightVendorPool => Some("eqs. (5), (8)-(9)"),
            Code::InfeasibleLatency => Some("eqs. (14)-(15)"),
            Code::RedundantLicense => Some("eqs. (11)-(12)"),
            Code::NearCollusion => Some("eqs. (6)-(7)"),
            Code::RegisterPressure => None,
            Code::ConeSingleVendor => Some("eq. (5)"),
            Code::ConeTriggerChannel => Some("eqs. (6)-(7)"),
            Code::ConePairCollapse => Some("eq. (5)"),
            Code::RecoveryConeExposure => Some("eqs. (8)-(10)"),
            Code::UncertifiedResponse => None,
            Code::DegradedBackend
            | Code::ConstraintRelaxed
            | Code::BackendFault
            | Code::TransientRetried
            | Code::ServiceOverloaded
            | Code::CircuitOpen
            | Code::RequestDeadlineExhausted
            | Code::WorkerFailover
            | Code::ClusterUnavailable
            | Code::WorkerRespawned
            | Code::JournalReplayed => None,
        }
    }

    /// The severity this code is reported at.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            Code::UnassignedCopy
            | Code::OutsideWindow
            | Code::DependencyOrder
            | Code::NoSuchCore
            | Code::Rule1Detection
            | Code::Rule2ParentChild
            | Code::Rule2Siblings
            | Code::Rule1Recovery
            | Code::Rule2Related
            | Code::AreaExceeded
            | Code::InsufficientVendors
            | Code::AreaInfeasible
            | Code::InfeasibleLatency
            | Code::ConeSingleVendor
            | Code::ConeTriggerChannel => Severity::Error,
            Code::UnusableVendor
            | Code::ConePairCollapse
            | Code::UncertifiedResponse
            | Code::RedundantLicense
            | Code::NearCollusion
            | Code::DegradedBackend
            | Code::ConstraintRelaxed
            | Code::BackendFault
            | Code::ServiceOverloaded
            | Code::CircuitOpen
            | Code::RequestDeadlineExhausted
            | Code::WorkerFailover
            | Code::ClusterUnavailable => Severity::Warning,
            Code::ZeroMobility
            | Code::TightVendorPool
            | Code::RegisterPressure
            | Code::RecoveryConeExposure
            | Code::TransientRetried
            | Code::WorkerRespawned
            | Code::JournalReplayed => Severity::Note,
        }
    }

    /// Parses either a code string (`"TD005"`, case-insensitive) or a lint
    /// name (`"rule1-detection"`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Code> {
        let upper = s.to_ascii_uppercase();
        Code::all()
            .into_iter()
            .find(|c| c.as_str() == upper || c.name() == s)
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a finding points, as precisely as the finding allows.
///
/// All fields are optional; global findings (e.g. [`Code::AreaExceeded`])
/// carry an empty location.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Location {
    /// The scheduled op copy (operation + role), when role-specific.
    pub copy: Option<OpCopy>,
    /// The DFG node, when the finding is role-independent.
    pub node: Option<NodeId>,
    /// The schedule cycle.
    pub cycle: Option<usize>,
    /// The vendor involved.
    pub vendor: Option<VendorId>,
    /// The IP type involved.
    pub ip_type: Option<IpTypeId>,
}

impl Location {
    /// An empty (global) location.
    #[must_use]
    pub fn none() -> Self {
        Location::default()
    }

    /// Points at an op copy.
    #[must_use]
    pub fn copy(copy: OpCopy) -> Self {
        Location {
            copy: Some(copy),
            ..Location::default()
        }
    }

    /// Points at a role-independent DFG node.
    #[must_use]
    pub fn node(node: NodeId) -> Self {
        Location {
            node: Some(node),
            ..Location::default()
        }
    }

    /// Adds the schedule cycle.
    #[must_use]
    pub fn at_cycle(mut self, cycle: usize) -> Self {
        self.cycle = Some(cycle);
        self
    }

    /// Adds the vendor.
    #[must_use]
    pub fn on_vendor(mut self, vendor: VendorId) -> Self {
        self.vendor = Some(vendor);
        self
    }

    /// Adds the IP type.
    #[must_use]
    pub fn of_type(mut self, ip_type: IpTypeId) -> Self {
        self.ip_type = Some(ip_type);
        self
    }

    /// `true` when no field is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == Location::default()
    }

    /// The most specific single name for this location, used as the SARIF
    /// logical-location name: the op copy, the node, the IP type, the
    /// vendor — in that preference order.
    #[must_use]
    pub fn logical_name(&self) -> Option<String> {
        if let Some(c) = self.copy {
            return Some(c.to_string());
        }
        if let Some(n) = self.node {
            return Some(n.to_string());
        }
        if let Some(t) = self.ip_type {
            return Some(t.name().to_string());
        }
        self.vendor.map(|v| v.to_string())
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        let sep = |f: &mut fmt::Formatter<'_>, wrote: &mut bool| -> fmt::Result {
            if *wrote {
                f.write_str(", ")?;
            }
            *wrote = true;
            Ok(())
        };
        if let Some(c) = self.copy {
            sep(f, &mut wrote)?;
            write!(f, "{c}")?;
        } else if let Some(n) = self.node {
            sep(f, &mut wrote)?;
            write!(f, "{n}")?;
        }
        if let Some(cy) = self.cycle {
            sep(f, &mut wrote)?;
            write!(f, "cycle {cy}")?;
        }
        if let Some(v) = self.vendor {
            sep(f, &mut wrote)?;
            write!(f, "vendor {v}")?;
        }
        if let Some(t) = self.ip_type {
            sep(f, &mut wrote)?;
            write!(f, "type {}", t.name())?;
        }
        if !wrote {
            f.write_str("(design)")?;
        }
        Ok(())
    }
}

/// A machine-applicable (or at least machine-checkable) repair suggestion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixIt {
    /// Human-readable instruction, e.g. `"rebind o1[RC] to another vendor"`.
    pub description: String,
    /// The copy the suggestion rebinds or reschedules, if any.
    pub copy: Option<OpCopy>,
    /// Legal alternative vendors, when the repair is a rebind.
    pub alternatives: Vec<VendorId>,
}

impl FixIt {
    /// A rebind suggestion listing the legal alternative vendors.
    #[must_use]
    pub fn rebind(copy: OpCopy, alternatives: Vec<VendorId>) -> Self {
        let list = alternatives
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        FixIt {
            description: format!("rebind {copy} to one of: {list}"),
            copy: Some(copy),
            alternatives,
        }
    }

    /// A free-form suggestion with no vendor list.
    #[must_use]
    pub fn advice(description: impl Into<String>) -> Self {
        FixIt {
            description: description.into(),
            copy: None,
            alternatives: Vec::new(),
        }
    }
}

impl fmt::Display for FixIt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.description)
    }
}

/// One finding: a coded, located, explained observation with optional
/// repair suggestions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: Code,
    /// Severity (defaults to [`Code::severity`]).
    pub severity: Severity,
    /// The human-readable, instance-specific message.
    pub message: String,
    /// Where the finding points.
    pub location: Location,
    /// Repair suggestions, possibly empty.
    pub fixits: Vec<FixIt>,
}

impl Diagnostic {
    /// Creates a diagnostic at the code's default severity.
    #[must_use]
    pub fn new(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            message: message.into(),
            location: Location::none(),
            fixits: Vec::new(),
        }
    }

    /// Sets the location.
    #[must_use]
    pub fn at(mut self, location: Location) -> Self {
        self.location = location;
        self
    }

    /// Appends a fix-it suggestion.
    #[must_use]
    pub fn with_fixit(mut self, fixit: FixIt) -> Self {
        self.fixits.push(fixit);
        self
    }

    /// Deterministic ordering key: severity (most severe first), then
    /// code, then operation index, then cycle.
    #[must_use]
    pub fn sort_key(&self) -> (std::cmp::Reverse<Severity>, Code, usize, usize) {
        let op = self
            .location
            .copy
            .map(|c| c.op.index() * 4 + c.role.index() + 1)
            .or_else(|| self.location.node.map(|n| n.index() * 4))
            .unwrap_or(usize::MAX);
        (
            std::cmp::Reverse(self.severity),
            self.code,
            op,
            self.location.cycle.unwrap_or(usize::MAX),
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if !self.location.is_empty() {
            write!(f, "\n  --> {}", self.location)?;
        }
        if let Some(eq) = self.code.paper_ref() {
            write!(f, "\n  = note: paper {eq}")?;
        }
        for fix in &self.fixits {
            write!(f, "\n  = help: {fix}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use troyhls::Role;

    #[test]
    fn codes_are_unique_and_parse_back() {
        let all = Code::all();
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.as_str(), b.as_str());
                assert_ne!(a.name(), b.name());
            }
            assert_eq!(Code::parse(a.as_str()), Some(*a));
            assert_eq!(Code::parse(&a.as_str().to_lowercase()), Some(*a));
            assert_eq!(Code::parse(a.name()), Some(*a));
        }
        assert_eq!(Code::parse("XX123"), None);
    }

    #[test]
    fn families_match_prefixes() {
        for c in Code::all() {
            let s = c.as_str();
            assert!(
                s.starts_with("TD")
                    || s.starts_with("TP")
                    || s.starts_with("TQ")
                    || s.starts_with("TR")
                    || s.starts_with("TS")
            );
            assert_eq!(s.len(), 5);
        }
    }

    #[test]
    fn severity_ordering_supports_filtering() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::parse("warning"), Some(Severity::Warning));
    }

    #[test]
    fn display_renders_location_paper_ref_and_fixit() {
        let copy = OpCopy::new(NodeId::new(0), Role::Rc);
        let d = Diagnostic::new(Code::Rule1Detection, "o1[NC] and o1[RC] share Ven1")
            .at(Location::copy(copy).at_cycle(2).on_vendor(VendorId::new(0)))
            .with_fixit(FixIt::rebind(
                copy,
                vec![VendorId::new(2), VendorId::new(3)],
            ));
        let text = d.to_string();
        assert!(text.starts_with("error[TD005]:"), "{text}");
        assert!(text.contains("--> o1[RC], cycle 2, vendor Ven1"), "{text}");
        assert!(text.contains("paper eq. (5)"), "{text}");
        assert!(
            text.contains("rebind o1[RC] to one of: Ven3, Ven4"),
            "{text}"
        );
    }
}
