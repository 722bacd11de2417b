//! The design rules as a single source of truth.
//!
//! Every consumer — the ILP formulation, the exact domain solver, the
//! heuristic and the validator — derives its vendor-diversity constraints
//! from [`diversity_constraints`], so the four rules are encoded exactly
//! once:
//!
//! - **Rule 1 (detection)**: `vendor(NC_i) ≠ vendor(RC_i)` for every op `i`.
//! - **Rule 2 (detection)**: within each computation (NC, RC and the
//!   recovery run alike), a parent and its child, and two parents of the
//!   same child, use different vendors (collusion prevention).
//! - **Rule 1 (recovery)**: `vendor(R_i) ∉ {vendor(NC_i), vendor(RC_i)}`.
//! - **Rule 2 (recovery)**: for a closely-related pair `(i, j)`,
//!   `vendor(R_i) ∉ {vendor(NC_j), vendor(RC_j)}` and symmetrically.

use std::fmt;

use troy_dfg::NodeId;

use crate::problem::{Mode, SynthesisProblem};

/// Which execution an operation copy belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Role {
    /// Normal computation (the original function) in the detection phase.
    Nc,
    /// Redundant re-computation in the detection phase.
    Rc,
    /// The re-bound computation in the recovery phase.
    Recovery,
}

impl Role {
    /// All roles relevant to a mode, in scheduling order.
    #[must_use]
    pub fn for_mode(mode: Mode) -> &'static [Role] {
        match mode {
            Mode::DetectionOnly => &[Role::Nc, Role::Rc],
            Mode::DetectionRecovery => &[Role::Nc, Role::Rc, Role::Recovery],
        }
    }

    /// Dense index (NC=0, RC=1, Recovery=2) used by per-copy tables.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Role::Nc => 0,
            Role::Rc => 1,
            Role::Recovery => 2,
        }
    }
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Role::Nc => "NC",
            Role::Rc => "RC",
            Role::Recovery => "R",
        })
    }
}

/// One scheduled copy of an operation: the paper's `D`, `D'` and `R`
/// families correspond to roles `Nc`, `Rc` and `Recovery`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpCopy {
    /// The operation in the DFG.
    pub op: NodeId,
    /// Which execution this copy belongs to.
    pub role: Role,
}

impl OpCopy {
    /// Convenience constructor.
    #[must_use]
    pub fn new(op: NodeId, role: Role) -> Self {
        OpCopy { op, role }
    }
}

impl fmt::Display for OpCopy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.op, self.role)
    }
}

/// Which design rule produced a constraint (for diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleKind {
    /// Rule 1 for detection: NC and RC copies of one op differ.
    DetectionDuplicate,
    /// Rule 2 for detection: parent and child within one computation differ.
    DetectionParentChild,
    /// Rule 2 for detection: two parents of the same child differ.
    DetectionSiblings,
    /// Rule 1 for fast recovery: recovery copy differs from both detection
    /// copies of the same op.
    RecoveryRebind,
    /// Rule 2 for fast recovery: recovery copy differs from the detection
    /// copies of a closely-related op.
    RecoveryRelated,
}

impl fmt::Display for RuleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RuleKind::DetectionDuplicate => "rule 1 (detection)",
            RuleKind::DetectionParentChild => "rule 2 (detection, parent-child)",
            RuleKind::DetectionSiblings => "rule 2 (detection, siblings)",
            RuleKind::RecoveryRebind => "rule 1 (recovery)",
            RuleKind::RecoveryRelated => "rule 2 (recovery, related ops)",
        })
    }
}

/// A pairwise requirement: the two copies must be bound to IP cores from
/// *different vendors*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiversityConstraint {
    /// First copy.
    pub a: OpCopy,
    /// Second copy.
    pub b: OpCopy,
    /// Which rule demands it.
    pub rule: RuleKind,
}

/// The four design rules expanded into the full pairwise constraint list
/// for a problem.
///
/// The list is expanded once per problem, on first use, and shared by
/// every solver and checker that reads it (and by the problem's clones).
///
/// # Examples
///
/// ```
/// use troy_dfg::benchmarks;
/// use troyhls::{diversity_constraints, Catalog, Mode, RuleKind, SynthesisProblem};
///
/// let p = SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
///     .mode(Mode::DetectionOnly)
///     .build()?;
/// let cs = diversity_constraints(&p);
/// // 5 ops -> 5 NC/RC pairs, plus parent-child and sibling pairs per copy.
/// assert_eq!(
///     cs.iter().filter(|c| c.rule == RuleKind::DetectionDuplicate).count(),
///     5
/// );
/// # Ok::<(), troyhls::ProblemError>(())
/// ```
#[must_use]
pub fn diversity_constraints(problem: &SynthesisProblem) -> &[DiversityConstraint] {
    problem.constraints()
}

/// Expands the rules from scratch, in the order [`diversity_constraints`]
/// lists them: rule 1 (detection) per op; then per role, parent-child
/// pairs and sibling pairs; then, in recovery mode, rule 1 (recovery) per
/// op and rule 2 (recovery) per related pair.
pub(crate) fn expand_diversity_constraints(problem: &SynthesisProblem) -> Vec<DiversityConstraint> {
    let dfg = problem.dfg();
    let mode = problem.mode();
    let mut out = Vec::new();

    // Rule 1 for detection.
    for op in dfg.node_ids() {
        out.push(DiversityConstraint {
            a: OpCopy::new(op, Role::Nc),
            b: OpCopy::new(op, Role::Rc),
            rule: RuleKind::DetectionDuplicate,
        });
    }

    // Rule 2 for detection, applied within every computation. The paper
    // writes eq. (6) with the generic `H` (all of D, D', R) and eq. (7) for
    // D; collusion prevention concerns any two directly-interacting cores,
    // so both checks apply inside each of NC, RC and the recovery run.
    for &role in Role::for_mode(mode) {
        for (parent, child) in dfg.edges() {
            out.push(DiversityConstraint {
                a: OpCopy::new(parent, role),
                b: OpCopy::new(child, role),
                rule: RuleKind::DetectionParentChild,
            });
        }
        for &(a, b) in problem.sibling_pairs() {
            out.push(DiversityConstraint {
                a: OpCopy::new(a, role),
                b: OpCopy::new(b, role),
                rule: RuleKind::DetectionSiblings,
            });
        }
    }

    if mode == Mode::DetectionRecovery {
        // Rule 1 for fast recovery.
        for op in dfg.node_ids() {
            for det in [Role::Nc, Role::Rc] {
                out.push(DiversityConstraint {
                    a: OpCopy::new(op, Role::Recovery),
                    b: OpCopy::new(op, det),
                    rule: RuleKind::RecoveryRebind,
                });
            }
        }
        // Rule 2 for fast recovery over declared closely-related pairs.
        for &(i, j) in problem.related_pairs() {
            for (rec, det_op) in [(i, j), (j, i)] {
                for det in [Role::Nc, Role::Rc] {
                    out.push(DiversityConstraint {
                        a: OpCopy::new(rec, Role::Recovery),
                        b: OpCopy::new(det_op, det),
                        rule: RuleKind::RecoveryRelated,
                    });
                }
            }
        }
    }

    out
}

/// Lower bound on the number of distinct vendors required per IP type.
///
/// Three ingredients, all exact necessary conditions:
///
/// - any type that occurs needs ≥ 2 vendors (NC vs RC, Rule 1 detection),
///   and ≥ 3 in recovery mode (Rule 1 recovery);
/// - within one computation, an operation and its parents form a clique in
///   the diversity graph (parents are pairwise siblings, each is
///   parent-child with the op), so a type needs at least as many vendors as
///   its largest per-op clique share.
///
/// Used to prune license subsets cheaply before a full feasibility check.
#[must_use]
pub fn min_vendors_per_type(problem: &SynthesisProblem) -> Vec<(troy_dfg::IpTypeId, usize)> {
    let base = match problem.mode() {
        Mode::DetectionOnly => 2,
        Mode::DetectionRecovery => 3,
    };
    let dfg = problem.dfg();
    let mut need: Vec<(troy_dfg::IpTypeId, usize)> = Vec::new();
    for (kind, _) in dfg.op_histogram() {
        let t = kind.ip_type();
        if !need.iter().any(|&(at, _)| at == t) {
            need.push((t, base));
        }
    }
    // Clique bound: {op} ∪ parents(op) are pairwise diverse within a role.
    for op in dfg.node_ids() {
        let mut counts = [0usize; troy_dfg::IpTypeId::COUNT];
        counts[dfg.kind(op).ip_type().index()] += 1;
        for &p in dfg.preds(op) {
            counts[dfg.kind(p).ip_type().index()] += 1;
        }
        for (t, n) in &mut need {
            *n = (*n).max(counts[t.index()]);
        }
    }
    need
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use troy_dfg::{benchmarks, IpTypeId};

    fn polynom_problem(mode: Mode) -> SynthesisProblem {
        SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
            .mode(mode)
            .detection_latency(4)
            .recovery_latency(3)
            .build()
            .unwrap()
    }

    #[test]
    fn detection_only_constraint_counts() {
        let p = polynom_problem(Mode::DetectionOnly);
        let cs = diversity_constraints(&p);
        let count = |k: RuleKind| cs.iter().filter(|c| c.rule == k).count();
        // polynom: 5 ops, 4 edges, sibling pairs: (t1,t2) into t4 and
        // (t4,t3) into t5 -> 2 sibling pairs.
        assert_eq!(count(RuleKind::DetectionDuplicate), 5);
        assert_eq!(count(RuleKind::DetectionParentChild), 4 * 2); // NC + RC
        assert_eq!(count(RuleKind::DetectionSiblings), 2 * 2);
        assert_eq!(count(RuleKind::RecoveryRebind), 0);
        assert_eq!(count(RuleKind::RecoveryRelated), 0);
    }

    #[test]
    fn recovery_mode_adds_rebind_and_third_role() {
        let p = polynom_problem(Mode::DetectionRecovery);
        let cs = diversity_constraints(&p);
        let count = |k: RuleKind| cs.iter().filter(|c| c.rule == k).count();
        assert_eq!(count(RuleKind::DetectionDuplicate), 5);
        assert_eq!(count(RuleKind::DetectionParentChild), 4 * 3); // NC, RC, R
        assert_eq!(count(RuleKind::DetectionSiblings), 2 * 3);
        assert_eq!(count(RuleKind::RecoveryRebind), 5 * 2);
    }

    #[test]
    fn related_pairs_expand_symmetrically() {
        let g = benchmarks::polynom();
        let a = troy_dfg::NodeId::new(0);
        let b = troy_dfg::NodeId::new(1);
        let p = SynthesisProblem::builder(g, Catalog::table1())
            .detection_latency(4)
            .recovery_latency(3)
            .related_pair(a, b)
            .build()
            .unwrap();
        let cs = diversity_constraints(&p);
        let related: Vec<_> = cs
            .iter()
            .filter(|c| c.rule == RuleKind::RecoveryRelated)
            .collect();
        // (R_a vs NC_b, RC_b) + (R_b vs NC_a, RC_a) = 4 constraints.
        assert_eq!(related.len(), 4);
        assert!(related
            .iter()
            .all(|c| c.a.role == Role::Recovery && c.b.role != Role::Recovery));
    }

    #[test]
    fn min_vendors_reflects_mode() {
        let det = polynom_problem(Mode::DetectionOnly);
        let rec = polynom_problem(Mode::DetectionRecovery);
        let det_needs = min_vendors_per_type(&det);
        let rec_needs = min_vendors_per_type(&rec);
        assert!(det_needs.iter().all(|&(_, n)| n == 2));
        assert!(rec_needs.iter().all(|&(_, n)| n == 3));
        let types: Vec<IpTypeId> = det_needs.iter().map(|&(t, _)| t).collect();
        assert!(types.contains(&IpTypeId::ADDER));
        assert!(types.contains(&IpTypeId::MULTIPLIER));
        assert_eq!(types.len(), 2);
    }

    #[test]
    fn roles_for_mode() {
        assert_eq!(Role::for_mode(Mode::DetectionOnly).len(), 2);
        assert_eq!(Role::for_mode(Mode::DetectionRecovery).len(), 3);
        assert_eq!(Role::Recovery.index(), 2);
    }

    #[test]
    fn displays() {
        let c = OpCopy::new(troy_dfg::NodeId::new(0), Role::Rc);
        assert_eq!(c.to_string(), "o1[RC]");
        assert!(RuleKind::RecoveryRebind.to_string().contains("recovery"));
    }
}
