//! Problem statement: the DFG to implement, the catalog, latency/area
//! constraints and the protection mode.

use std::fmt;
use std::sync::{Arc, OnceLock};

use troy_dfg::{Dfg, IpTypeId, NodeId, ScheduleWindows};

use crate::catalog::{Catalog, MAX_VENDORS};
use crate::cones::{output_cones, OutputCone};
use crate::rules::{expand_diversity_constraints, DiversityConstraint};

/// Which protection the synthesized design must provide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Detection only (the Rajendran et al. IOLTS'13 baseline, Table 3):
    /// every operation runs twice (NC + RC) on diverse vendors.
    DetectionOnly,
    /// Detection plus the paper's fast-recovery phase (Table 4): on a
    /// mismatch the DFG is re-executed with re-bound vendors.
    DetectionRecovery,
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Mode::DetectionOnly => "detection-only",
            Mode::DetectionRecovery => "detection+recovery",
        })
    }
}

/// Errors raised when assembling a [`SynthesisProblem`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProblemError {
    /// The DFG has no operations.
    EmptyDfg,
    /// The detection latency is shorter than the DFG's critical path.
    DetectionLatencyTooShort {
        /// Requested detection-phase latency.
        latency: usize,
        /// The DFG's critical-path length.
        critical_path: usize,
    },
    /// The recovery latency is shorter than the DFG's critical path.
    RecoveryLatencyTooShort {
        /// Requested recovery-phase latency.
        latency: usize,
        /// The DFG's critical-path length.
        critical_path: usize,
    },
    /// Some operation's IP type is offered by no vendor in the catalog.
    MissingIpType(troy_dfg::IpTypeId),
    /// A closely-related pair references a node outside the DFG or has
    /// mismatching operation types.
    BadRelatedPair(NodeId, NodeId),
    /// The catalog has more vendors than the solvers can track
    /// ([`MAX_VENDORS`]: one bit per vendor in a 64-bit mask).
    TooManyVendors {
        /// Vendors in the catalog.
        vendors: usize,
    },
}

impl fmt::Display for ProblemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProblemError::EmptyDfg => write!(f, "the DFG has no operations"),
            ProblemError::DetectionLatencyTooShort {
                latency,
                critical_path,
            } => write!(
                f,
                "detection latency {latency} is below the critical path {critical_path}"
            ),
            ProblemError::RecoveryLatencyTooShort {
                latency,
                critical_path,
            } => write!(
                f,
                "recovery latency {latency} is below the critical path {critical_path}"
            ),
            ProblemError::MissingIpType(t) => {
                write!(f, "no vendor offers IP type `{t}`")
            }
            ProblemError::BadRelatedPair(a, b) => {
                write!(f, "invalid closely-related pair ({a}, {b})")
            }
            ProblemError::TooManyVendors { vendors } => write!(
                f,
                "the catalog has {vendors} vendors; at most {MAX_VENDORS} are supported"
            ),
        }
    }
}

impl std::error::Error for ProblemError {}

/// A complete synthesis instance.
///
/// Built with [`SynthesisProblem::builder`]; validated on
/// [`ProblemBuilder::build`].
///
/// # Examples
///
/// The paper's Figure 5 motivational instance:
///
/// ```
/// use troy_dfg::benchmarks;
/// use troyhls::{Catalog, Mode, SynthesisProblem};
///
/// let problem = SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
///     .mode(Mode::DetectionRecovery)
///     .detection_latency(4)
///     .recovery_latency(3)
///     .area_limit(22_000)
///     .build()?;
/// assert_eq!(problem.total_latency(), 7);
/// # Ok::<(), troyhls::ProblemError>(())
/// ```
///
/// A problem never changes once built, so the structure every solver and
/// checker derives from it — topological order, schedule windows,
/// diversity constraints, sibling pairs and output cones — is computed at
/// most once, on first use, and shared: a clone costs one reference
/// count and shares all of it (the DFG and the catalog included).
#[derive(Clone)]
pub struct SynthesisProblem {
    inner: Arc<Inner>,
}

/// The fields of a [`SynthesisProblem`] and the structure derived from
/// them.
struct Inner {
    dfg: Arc<Dfg>,
    catalog: Arc<Catalog>,
    mode: Mode,
    detection_latency: usize,
    recovery_latency: usize,
    area_limit: u64,
    related_pairs: Vec<(NodeId, NodeId)>,
    /// The builder needs it for the critical path, so it is kept.
    topo: Vec<NodeId>,
    windows: OnceLock<PhaseWindows>,
    constraints: OnceLock<Vec<DiversityConstraint>>,
    siblings: OnceLock<Vec<(NodeId, NodeId)>>,
    cones: OnceLock<Vec<OutputCone>>,
}

/// Per-phase schedule windows, in phase-local cycles.
struct PhaseWindows {
    detection: ScheduleWindows,
    recovery: Option<ScheduleWindows>,
}

impl fmt::Debug for SynthesisProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = &self.inner;
        f.debug_struct("SynthesisProblem")
            .field("dfg", &p.dfg)
            .field("catalog", &p.catalog)
            .field("mode", &p.mode)
            .field("detection_latency", &p.detection_latency)
            .field("recovery_latency", &p.recovery_latency)
            .field("area_limit", &p.area_limit)
            .field("related_pairs", &p.related_pairs)
            .finish()
    }
}

impl SynthesisProblem {
    /// Starts a builder over a DFG and catalog (owned, or already shared
    /// behind an [`Arc`]).
    #[must_use]
    pub fn builder(dfg: impl Into<Arc<Dfg>>, catalog: impl Into<Arc<Catalog>>) -> ProblemBuilder {
        ProblemBuilder {
            dfg: dfg.into(),
            catalog: catalog.into(),
            mode: Mode::DetectionRecovery,
            detection_latency: None,
            recovery_latency: None,
            area_limit: u64::MAX,
            related_pairs: Vec::new(),
        }
    }

    /// A builder preset to this problem, sharing its DFG and catalog: the
    /// way to derive a variant (say, with relaxed latencies). The variant
    /// derives its own structure.
    #[must_use]
    pub fn to_builder(&self) -> ProblemBuilder {
        let p = &self.inner;
        ProblemBuilder {
            dfg: Arc::clone(&p.dfg),
            catalog: Arc::clone(&p.catalog),
            mode: p.mode,
            detection_latency: Some(p.detection_latency),
            recovery_latency: Some(p.recovery_latency),
            area_limit: p.area_limit,
            related_pairs: p.related_pairs.clone(),
        }
    }

    /// The function-to-be-implemented.
    #[must_use]
    pub fn dfg(&self) -> &Dfg {
        &self.inner.dfg
    }

    /// The vendor/IP library.
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.inner.catalog
    }

    /// Protection mode.
    #[must_use]
    pub fn mode(&self) -> Mode {
        self.inner.mode
    }

    /// Cycles available to the detection phase (NC ∥ RC).
    #[must_use]
    pub fn detection_latency(&self) -> usize {
        self.inner.detection_latency
    }

    /// Cycles available to the recovery phase (0 in detection-only mode).
    #[must_use]
    pub fn recovery_latency(&self) -> usize {
        match self.inner.mode {
            Mode::DetectionOnly => 0,
            Mode::DetectionRecovery => self.inner.recovery_latency,
        }
    }

    /// Total schedule length (the paper's λ: detection plus recovery).
    #[must_use]
    pub fn total_latency(&self) -> usize {
        self.inner.detection_latency + self.recovery_latency()
    }

    /// Maximum total silicon area (the paper's `A̅`).
    #[must_use]
    pub fn area_limit(&self) -> u64 {
        self.inner.area_limit
    }

    /// Closely-related operation pairs (Rule 2 for fast recovery).
    #[must_use]
    pub fn related_pairs(&self) -> &[(NodeId, NodeId)] {
        &self.inner.related_pairs
    }

    /// A topological order of the DFG ([`Dfg::topo_order`]).
    #[must_use]
    pub fn topo_order(&self) -> &[NodeId] {
        &self.inner.topo
    }

    /// ASAP/ALAP windows of the detection phase, cycles `1..=λ_det`.
    #[must_use]
    pub fn detection_windows(&self) -> &ScheduleWindows {
        &self.windows().detection
    }

    /// ASAP/ALAP windows of the recovery phase in phase-local cycles
    /// `1..=λ_rec` (offset by `λ_det` in the global schedule); `None` in
    /// detection-only mode.
    #[must_use]
    pub fn recovery_windows(&self) -> Option<&ScheduleWindows> {
        self.windows().recovery.as_ref()
    }

    fn windows(&self) -> &PhaseWindows {
        self.inner.windows.get_or_init(|| {
            let compute = |latency| {
                ScheduleWindows::compute_in(self.dfg(), self.topo_order(), latency)
                    .expect("the builder checked the latency against the critical path")
            };
            PhaseWindows {
                detection: compute(self.detection_latency()),
                recovery: (self.mode() == Mode::DetectionRecovery)
                    .then(|| compute(self.recovery_latency())),
            }
        })
    }

    /// The expanded design rules; read them through
    /// [`crate::diversity_constraints`].
    pub(crate) fn constraints(&self) -> &[DiversityConstraint] {
        self.inner
            .constraints
            .get_or_init(|| expand_diversity_constraints(self))
    }

    /// The DFG's sibling pairs ([`Dfg::sibling_pairs`]).
    #[must_use]
    pub fn sibling_pairs(&self) -> &[(NodeId, NodeId)] {
        self.inner
            .siblings
            .get_or_init(|| self.dfg().sibling_pairs())
    }

    /// The output cone of every sink, in ascending sink order
    /// ([`crate::output_cones`]).
    #[must_use]
    pub fn output_cones(&self) -> &[OutputCone] {
        self.inner.cones.get_or_init(|| output_cones(self.dfg()))
    }

    /// The shared state, for tests that check what clones share.
    #[cfg(test)]
    fn shared(&self) -> &Arc<Inner> {
        &self.inner
    }
}

/// Builder for [`SynthesisProblem`]; see there for an example.
#[derive(Debug, Clone)]
pub struct ProblemBuilder {
    dfg: Arc<Dfg>,
    catalog: Arc<Catalog>,
    mode: Mode,
    detection_latency: Option<usize>,
    recovery_latency: Option<usize>,
    area_limit: u64,
    related_pairs: Vec<(NodeId, NodeId)>,
}

impl ProblemBuilder {
    /// Sets the protection mode (default: detection + recovery).
    #[must_use]
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the detection-phase latency bound (default: critical path).
    #[must_use]
    pub fn detection_latency(mut self, cycles: usize) -> Self {
        self.detection_latency = Some(cycles);
        self
    }

    /// Sets the recovery-phase latency bound (default: critical path).
    #[must_use]
    pub fn recovery_latency(mut self, cycles: usize) -> Self {
        self.recovery_latency = Some(cycles);
        self
    }

    /// Splits a paper-style *total* λ evenly across the two phases
    /// (detection gets the extra cycle when λ is odd).
    #[must_use]
    pub fn total_latency(mut self, lambda: usize) -> Self {
        let rec = lambda / 2;
        self.detection_latency = Some(lambda - rec);
        self.recovery_latency = Some(rec);
        self
    }

    /// Sets the total-area bound (default: unlimited).
    #[must_use]
    pub fn area_limit(mut self, area: u64) -> Self {
        self.area_limit = area;
        self
    }

    /// Declares two operations closely related (Rule 2 for fast recovery):
    /// their recovery copies must avoid each other's detection vendors.
    #[must_use]
    pub fn related_pair(mut self, a: NodeId, b: NodeId) -> Self {
        self.related_pairs.push((a, b));
        self
    }

    /// Validates and produces the problem.
    ///
    /// # Errors
    ///
    /// See [`ProblemError`]: empty DFG, latency below the critical path, an
    /// op type no vendor offers, or an invalid related pair.
    pub fn build(self) -> Result<SynthesisProblem, ProblemError> {
        if self.dfg.is_empty() {
            return Err(ProblemError::EmptyDfg);
        }
        if self.catalog.num_vendors() > MAX_VENDORS {
            return Err(ProblemError::TooManyVendors {
                vendors: self.catalog.num_vendors(),
            });
        }
        let topo = self.dfg.topo_order();
        let cp = self.dfg.critical_path_len_in(&topo);
        let detection_latency = self.detection_latency.unwrap_or(cp);
        let recovery_latency = self.recovery_latency.unwrap_or(cp);
        if detection_latency < cp {
            return Err(ProblemError::DetectionLatencyTooShort {
                latency: detection_latency,
                critical_path: cp,
            });
        }
        if self.mode == Mode::DetectionRecovery && recovery_latency < cp {
            return Err(ProblemError::RecoveryLatencyTooShort {
                latency: recovery_latency,
                critical_path: cp,
            });
        }
        let mut offered = [false; IpTypeId::COUNT];
        for n in self.dfg.node_ids() {
            let t = self.dfg.kind(n).ip_type();
            if !offered[t.index()] {
                if self.catalog.vendors_for(t).next().is_none() {
                    return Err(ProblemError::MissingIpType(t));
                }
                offered[t.index()] = true;
            }
        }
        for &(a, b) in &self.related_pairs {
            let valid = a != b
                && a.index() < self.dfg.len()
                && b.index() < self.dfg.len()
                && self.dfg.kind(a).ip_type() == self.dfg.kind(b).ip_type();
            if !valid {
                return Err(ProblemError::BadRelatedPair(a, b));
            }
        }
        Ok(SynthesisProblem {
            inner: Arc::new(Inner {
                dfg: self.dfg,
                catalog: self.catalog,
                mode: self.mode,
                detection_latency,
                recovery_latency,
                area_limit: self.area_limit,
                related_pairs: self.related_pairs,
                topo,
                windows: OnceLock::new(),
                constraints: OnceLock::new(),
                siblings: OnceLock::new(),
                cones: OnceLock::new(),
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use troy_dfg::benchmarks;

    #[test]
    fn builder_defaults_to_critical_path() {
        let p = SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
            .build()
            .unwrap();
        assert_eq!(p.detection_latency(), 3);
        assert_eq!(p.recovery_latency(), 3);
        assert_eq!(p.total_latency(), 6);
        assert_eq!(p.area_limit(), u64::MAX);
    }

    #[test]
    fn detection_only_has_no_recovery_window() {
        let p = SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
            .mode(Mode::DetectionOnly)
            .detection_latency(4)
            .build()
            .unwrap();
        assert_eq!(p.recovery_latency(), 0);
        assert_eq!(p.total_latency(), 4);
    }

    #[test]
    fn total_latency_split_matches_paper_convention() {
        let p = SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
            .total_latency(7)
            .build()
            .unwrap();
        assert_eq!(p.detection_latency(), 4);
        assert_eq!(p.recovery_latency(), 3);
    }

    #[test]
    fn short_detection_latency_rejected() {
        let err = SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
            .detection_latency(2)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ProblemError::DetectionLatencyTooShort {
                latency: 2,
                critical_path: 3
            }
        ));
    }

    #[test]
    fn short_recovery_latency_rejected_only_in_recovery_mode() {
        let err = SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
            .detection_latency(4)
            .recovery_latency(1)
            .build()
            .unwrap_err();
        assert!(matches!(err, ProblemError::RecoveryLatencyTooShort { .. }));
        // Same bounds are fine when recovery is disabled.
        assert!(
            SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
                .mode(Mode::DetectionOnly)
                .detection_latency(4)
                .recovery_latency(1)
                .build()
                .is_ok()
        );
    }

    #[test]
    fn missing_ip_type_rejected() {
        // diff2 contains a comparison; Table 1 has no "other" cores.
        let err = SynthesisProblem::builder(benchmarks::diff2(), Catalog::table1())
            .build()
            .unwrap_err();
        assert!(matches!(err, ProblemError::MissingIpType(_)));
        // paper8 offers all three types.
        assert!(
            SynthesisProblem::builder(benchmarks::diff2(), Catalog::paper8())
                .build()
                .is_ok()
        );
    }

    #[test]
    fn empty_dfg_rejected() {
        let err = SynthesisProblem::builder(Dfg::new("empty"), Catalog::table1())
            .build()
            .unwrap_err();
        assert_eq!(err, ProblemError::EmptyDfg);
    }

    #[test]
    fn related_pair_validation() {
        let g = benchmarks::polynom(); // t1..t3 mul, t4..t5 add
        let mul_a = NodeId::new(0);
        let mul_b = NodeId::new(1);
        let add = NodeId::new(3);
        assert!(SynthesisProblem::builder(g.clone(), Catalog::table1())
            .related_pair(mul_a, mul_b)
            .build()
            .is_ok());
        // Type mismatch.
        assert!(matches!(
            SynthesisProblem::builder(g.clone(), Catalog::table1())
                .related_pair(mul_a, add)
                .build(),
            Err(ProblemError::BadRelatedPair(..))
        ));
        // Self pair.
        assert!(SynthesisProblem::builder(g.clone(), Catalog::table1())
            .related_pair(mul_a, mul_a)
            .build()
            .is_err());
        // Out of range.
        assert!(SynthesisProblem::builder(g, Catalog::table1())
            .related_pair(mul_a, NodeId::new(99))
            .build()
            .is_err());
    }

    #[test]
    fn mode_display() {
        assert_eq!(Mode::DetectionOnly.to_string(), "detection-only");
        assert_eq!(Mode::DetectionRecovery.to_string(), "detection+recovery");
    }

    #[test]
    fn more_than_max_vendors_is_rejected() {
        let err = SynthesisProblem::builder(benchmarks::polynom(), Catalog::random(65, 1))
            .build()
            .unwrap_err();
        assert_eq!(err, ProblemError::TooManyVendors { vendors: 65 });
        assert!(err.to_string().contains("at most 64"));
    }

    use troy_dfg::Dfg;

    mod shared {
        use super::*;
        use crate::rules::expand_diversity_constraints;
        use proptest::prelude::*;
        use troy_dfg::{random_dfg, RandomDfgConfig};

        /// A random problem with up to two same-type related pairs.
        fn problem() -> impl Strategy<Value = SynthesisProblem> {
            (
                2usize..=24,
                1usize..=6,
                any::<u64>(),
                0usize..=2,
                prop_oneof![Just(Mode::DetectionOnly), Just(Mode::DetectionRecovery)],
            )
                .prop_map(|(ops, depth, seed, slack, mode)| {
                    let cfg = RandomDfgConfig {
                        ops,
                        max_depth: depth,
                        mul_ratio_percent: 40,
                        edge_bias_percent: 70,
                    };
                    let dfg = random_dfg(&cfg, seed);
                    let cp = dfg.critical_path_len();
                    let ids: Vec<NodeId> = dfg.node_ids().collect();
                    let pairs: Vec<(NodeId, NodeId)> = ids
                        .iter()
                        .flat_map(|&a| ids.iter().map(move |&b| (a, b)))
                        .filter(|&(a, b)| a < b && dfg.kind(a).ip_type() == dfg.kind(b).ip_type())
                        .take(2)
                        .collect();
                    let mut builder = SynthesisProblem::builder(dfg, Catalog::paper8())
                        .mode(mode)
                        .detection_latency(cp + slack)
                        .recovery_latency(cp + slack);
                    for (a, b) in pairs {
                        builder = builder.related_pair(a, b);
                    }
                    builder.build().expect("feasible by construction")
                })
        }

        /// Sibling pairs by brute force: two parents sharing a child.
        fn siblings_from_scratch(dfg: &Dfg) -> Vec<(NodeId, NodeId)> {
            let ids: Vec<NodeId> = dfg.node_ids().collect();
            let mut out = Vec::new();
            for &a in &ids {
                for &b in &ids {
                    let share_child = dfg.succs(a).iter().any(|c| dfg.succs(b).contains(c));
                    if a < b && share_child {
                        out.push((a, b));
                    }
                }
            }
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            #[test]
            fn shared_structure_equals_a_recomputation(p in problem()) {
                let dfg = p.dfg();
                prop_assert_eq!(p.topo_order(), &dfg.topo_order()[..]);
                let det = ScheduleWindows::compute(dfg, p.detection_latency());
                prop_assert_eq!(Some(p.detection_windows()), det.as_ref());
                let rec = (p.mode() == Mode::DetectionRecovery)
                    .then(|| ScheduleWindows::compute(dfg, p.recovery_latency()).unwrap());
                prop_assert_eq!(p.recovery_windows(), rec.as_ref());
                prop_assert_eq!(p.sibling_pairs(), &siblings_from_scratch(dfg)[..]);
                prop_assert_eq!(p.output_cones(), &output_cones(dfg)[..]);
                let fresh = p.to_builder().build().unwrap();
                prop_assert_eq!(
                    crate::diversity_constraints(&p),
                    &expand_diversity_constraints(&fresh)[..]
                );
            }

            #[test]
            fn clones_share_and_relaxed_variants_derive_their_own(p in problem()) {
                let clone = p.clone();
                prop_assert!(Arc::ptr_eq(p.shared(), clone.shared()));
                // Derived through one handle, read through the other.
                let cones = p.output_cones();
                prop_assert!(std::ptr::eq(cones, clone.output_cones()));
                prop_assert!(std::ptr::eq(
                    crate::diversity_constraints(&clone),
                    crate::diversity_constraints(&p),
                ));

                let relaxed = p
                    .to_builder()
                    .detection_latency(p.detection_latency() + 1)
                    .recovery_latency(p.recovery_latency() + 1)
                    .build()
                    .unwrap();
                prop_assert!(!Arc::ptr_eq(p.shared(), relaxed.shared()));
                prop_assert!(Arc::ptr_eq(&p.shared().dfg, &relaxed.shared().dfg));
                prop_assert!(Arc::ptr_eq(&p.shared().catalog, &relaxed.shared().catalog));
                prop_assert_eq!(
                    relaxed.detection_windows().alap(p.topo_order()[0]),
                    p.detection_windows().alap(p.topo_order()[0]) + 1
                );
            }
        }
    }
}
