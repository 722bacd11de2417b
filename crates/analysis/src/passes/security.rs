//! The security pass: a semantic prover for the diversity guarantee.
//!
//! The design-rule pass checks the paper's *syntactic* rules; this pass
//! proves the *property the rules exist for*. The threat model: a
//! vendor coalition controls every op copy bound to its vendors and can
//! make them emit arbitrary values. The run-time comparator checks each
//! DFG output by comparing its NC and RC values, so a coalition defeats
//! detection of an output exactly when it can corrupt both detection
//! copies of that output's cone consistently.
//!
//! Over the bit-set cones from [`troyhls::output_cones`], the pass
//! exhaustively enumerates vendor coalitions of size one and two:
//!
//! - **TQ004** (error): a single vendor owns both the NC and RC copy of
//!   some cone member — injecting the same corruption at the same
//!   position in both copies commutes with the identical downstream
//!   data flow, so the comparator sees agreeing (wrong) outputs.
//! - **TQ005** (error): one vendor holds two directly-interacting
//!   positions (producer→consumer edge, or two parents of one child)
//!   inside a single computation copy — the covert marker channel of
//!   `troy-sim`'s `ColludingTrojan`, proven exploitable there.
//! - **TQ006** (warning): a vendor *pair* jointly controls every NC and
//!   RC position of a cone. Such a pair needs no shared position: it
//!   owns both copies outright. Legal bindings over small catalogs can
//!   exhibit this (a one-op cone always does), so it warns rather than
//!   blocks — and the certificate records the count.
//! - **TQ007** (note): in recovery mode, a detection vendor of the cone
//!   reappears in the cone's recovery copy, so recovery of that output
//!   is not vendor-independent of what it recovers from.
//!
//! The pass recomputes everything from the binding itself — it shares
//! no code with [`troyhls::validate`] — which is what makes it a useful
//! mutation oracle: a solver bug that slips past the syntactic rules
//! still has to get past an independent semantic check.

use std::collections::BTreeSet;

use troy_dfg::{Fnv1a, NodeId};
use troyhls::{
    cone_vendors, diversity_constraints, validate, Implementation, Mode, OpCopy, OutputCone, Role,
    SynthesisProblem, VendorId,
};

use crate::certificate::SecurityCertificate;
use crate::diagnostic::{Code, Diagnostic, FixIt, Location, Severity};
use crate::passes::{legal_vendors, LintContext, LintPass};

/// Proves per-cone coalition safety; emits TQ004–TQ007 (see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct SecurityPass;

impl LintPass for SecurityPass {
    fn name(&self) -> &'static str {
        "security-cones"
    }

    fn description(&self) -> &'static str {
        "proves no single or colluding vendor coalition defeats the comparator (TQ004-TQ007)"
    }

    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let Some(imp) = cx.implementation else {
            return;
        };
        out.extend(cone_findings(cx.problem, imp));
    }
}

/// Attaches a rebind fix-it for `copy` when a legal alternative exists.
fn with_rebind(
    d: Diagnostic,
    problem: &SynthesisProblem,
    imp: &Implementation,
    copy: OpCopy,
) -> Diagnostic {
    let alts = legal_vendors(problem, imp, copy);
    if alts.is_empty() {
        d
    } else {
        d.with_fixit(FixIt::rebind(copy, alts))
    }
}

fn vendor_list(vendors: &BTreeSet<VendorId>) -> String {
    vendors
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

/// The sink of the first (lowest-sink) cone containing `op`, for
/// witness messages. Every node is in at least one cone.
fn witness_cone(cones: &[OutputCone], op: NodeId) -> NodeId {
    cones.iter().find(|c| c.contains(op)).map_or(op, |c| c.sink)
}

/// All security findings for one binding, in deterministic order:
/// single-vendor witnesses, then trigger channels, then pair collapses,
/// then recovery exposures. Positions with missing assignments are
/// skipped — incompleteness is TD001's business, not this pass's.
#[must_use]
pub fn cone_findings(problem: &SynthesisProblem, imp: &Implementation) -> Vec<Diagnostic> {
    let dfg = problem.dfg();
    let cones = problem.output_cones();
    let mut out = Vec::new();

    // TQ004 — single vendor controls both detection copies of a cone
    // member. Deduplicated across overlapping cones by op.
    let mut flagged: BTreeSet<usize> = BTreeSet::new();
    for cone in cones {
        for &op in &cone.members {
            if flagged.contains(&op.index()) {
                continue;
            }
            let (Some(nc), Some(rc)) = (imp.assignment(op, Role::Nc), imp.assignment(op, Role::Rc))
            else {
                continue;
            };
            if nc.vendor == rc.vendor {
                flagged.insert(op.index());
                let copy = OpCopy::new(op, Role::Rc);
                let d = Diagnostic::new(
                    Code::ConeSingleVendor,
                    format!(
                        "vendor {} alone corrupts output cone {}: it owns both detection \
                         copies of {op}, so identical corruption there evades the comparator",
                        nc.vendor, cone.sink,
                    ),
                )
                .at(Location::copy(copy).at_cycle(rc.cycle).on_vendor(rc.vendor));
                out.push(with_rebind(d, problem, imp, copy));
            }
        }
    }

    // TQ005 — one vendor on two directly-interacting positions within a
    // single computation copy: the covert marker channel. Edges and
    // sibling pairs always lie inside a common cone, so no cone filter
    // is needed; the witness names the first cone containing the pair.
    for role in Role::for_mode(problem.mode()) {
        let interactions = dfg.edges().map(|(a, b)| (a, b, "feeds")).chain(
            problem
                .sibling_pairs()
                .iter()
                .map(|&(a, b)| (a, b, "joins")),
        );
        for (a, b, how) in interactions {
            let (Some(xa), Some(xb)) = (imp.assignment(a, *role), imp.assignment(b, *role)) else {
                continue;
            };
            if xa.vendor != xb.vendor {
                continue;
            }
            let copy = OpCopy::new(b, *role);
            let d = Diagnostic::new(
                Code::ConeTriggerChannel,
                format!(
                    "vendor {} holds {} and {copy}, where {a} {how} {b} in cone {}: a covert \
                     marker between its own units triggers untestable payloads",
                    xa.vendor,
                    OpCopy::new(a, *role),
                    witness_cone(cones, b),
                ),
            )
            .at(Location::copy(copy).at_cycle(xb.cycle).on_vendor(xb.vendor));
            out.push(with_rebind(d, problem, imp, copy));
        }
    }

    // TQ006 — a vendor pair jointly controls every detection position
    // of a cone.
    for cone in cones {
        let (Some(nc), Some(rc)) = (
            cone_vendors(imp, cone, Role::Nc),
            cone_vendors(imp, cone, Role::Rc),
        ) else {
            continue;
        };
        let union: BTreeSet<VendorId> = nc.union(&rc).copied().collect();
        if union.len() <= 2 {
            out.push(
                Diagnostic::new(
                    Code::ConePairCollapse,
                    format!(
                        "vendors {{{}}} jointly control all {} detection position(s) of output \
                         cone {}: that colluding pair corrupts NC and RC consistently",
                        vendor_list(&union),
                        2 * cone.len(),
                        cone.sink,
                    ),
                )
                .at(Location::node(cone.sink))
                .with_fixit(FixIt::advice(
                    "spread the cone's detection copies over at least three vendors",
                )),
            );
        }
    }

    // TQ007 — recovery mode: a detection vendor of the cone recurs in
    // its recovery copy.
    if problem.mode() == Mode::DetectionRecovery {
        for cone in cones {
            let (Some(nc), Some(rc), Some(rec)) = (
                cone_vendors(imp, cone, Role::Nc),
                cone_vendors(imp, cone, Role::Rc),
                cone_vendors(imp, cone, Role::Recovery),
            ) else {
                continue;
            };
            let detection: BTreeSet<VendorId> = nc.union(&rc).copied().collect();
            let overlap: BTreeSet<VendorId> = detection.intersection(&rec).copied().collect();
            if !overlap.is_empty() {
                out.push(
                    Diagnostic::new(
                        Code::RecoveryConeExposure,
                        format!(
                            "recovery of output cone {} is not vendor-independent: {{{}}} \
                             appear(s) in both its detection and recovery copies",
                            cone.sink,
                            vendor_list(&overlap),
                        ),
                    )
                    .at(Location::node(cone.sink)),
                );
            }
        }
    }

    out
}

/// Runs the full prover over `problem` + `imp` and issues a
/// [`SecurityCertificate`], or returns every blocking finding.
///
/// A certificate requires *all* of: the binding passes
/// [`troyhls::validate`] (complete, scheduled, area-legal, rule-
/// compliant), and the coalition enumeration finds no error-level
/// exposure (no TQ004 single-vendor cone control, no TQ005 trigger
/// channel). Warning/note findings (TQ006/TQ007) do not block; their
/// counts are recorded in the certificate so a zero there is itself a
/// proven claim.
///
/// # Errors
///
/// The `Err` payload is the sorted list of blocking diagnostics —
/// design-rule violations first-class among them, each with witness
/// location and rebind fix-its where a repair exists.
pub fn certify(
    problem: &SynthesisProblem,
    imp: &Implementation,
) -> Result<SecurityCertificate, Vec<Diagnostic>> {
    let findings = cone_findings(problem, imp);
    let mut blocking: Vec<Diagnostic> = validate(problem, imp)
        .iter()
        .map(|v| crate::passes::diagnostic_for_violation(problem, imp, v))
        .collect();
    blocking.extend(
        findings
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .cloned(),
    );
    if !blocking.is_empty() {
        blocking.sort_by_key(Diagnostic::sort_key);
        return Err(blocking);
    }

    let dfg = problem.dfg();
    let cones = problem.output_cones();
    let count = |code: Code| findings.iter().filter(|d| d.code == code).count();

    let mut h = Fnv1a::new();
    h.write(dfg.name().as_bytes());
    h.write(problem.mode().to_string().as_bytes());
    for (copy, a) in imp.iter() {
        h.write_u64(copy.op.index() as u64);
        h.write_u64(copy.role.index() as u64);
        h.write_u64(a.cycle as u64);
        h.write_u64(a.vendor.index() as u64);
    }
    h.write_u64(cones.len() as u64);
    h.write_u64(diversity_constraints(problem).len() as u64);

    Ok(SecurityCertificate {
        design: dfg.name().to_string(),
        mode: problem.mode(),
        cones: cones.len(),
        ops_covered: dfg.len(),
        single_vendor_safe: true,
        min_collusion_size: 2,
        pair_exposed_cones: count(Code::ConePairCollapse),
        recovery_exposed_cones: count(Code::RecoveryConeExposure),
        vendors_enumerated: problem.catalog().num_vendors(),
        checksum: h.finish(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use troy_dfg::{benchmarks, NodeId};
    use troyhls::{Assignment, Catalog, ExactSolver, SolveOptions, Synthesizer};

    fn problem(mode: Mode) -> SynthesisProblem {
        SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
            .mode(mode)
            .detection_latency(4)
            .recovery_latency(3)
            .area_limit(22_000)
            .build()
            .unwrap()
    }

    fn solved(mode: Mode) -> (SynthesisProblem, Implementation) {
        let p = problem(mode);
        let s = ExactSolver::new()
            .synthesize(&p, &SolveOptions::quick())
            .unwrap();
        (p, s.implementation)
    }

    #[test]
    fn exact_solution_earns_a_certificate_in_both_modes() {
        for mode in [Mode::DetectionOnly, Mode::DetectionRecovery] {
            let (p, imp) = solved(mode);
            let cert = certify(&p, &imp).expect("rule-compliant optimum certifies");
            assert_eq!(cert.cones, 1, "polynom has one output");
            assert_eq!(cert.ops_covered, 5);
            assert!(cert.single_vendor_safe);
            assert_eq!(cert.min_collusion_size, 2);
            assert_eq!(
                cert.pair_exposed_cones, 0,
                "a 5-op cone needs >= 3 vendors per copy"
            );
            assert!(cert.verify(&p, &imp));
        }
    }

    #[test]
    fn certificate_checksum_is_bound_to_the_binding() {
        let (p, imp) = solved(Mode::DetectionOnly);
        let cert = certify(&p, &imp).unwrap();
        assert!(cert.verify(&p, &imp));
        assert_eq!(
            cert,
            certify(&p, &imp).unwrap(),
            "same binding, same certificate"
        );
        // Rebind one copy to a different (still legal) vendor: the
        // certified artifact changed, so the old certificate is stale.
        let copy = OpCopy::new(NodeId::new(0), Role::Nc);
        let alt = legal_vendors(&p, &imp, copy)
            .into_iter()
            .next()
            .expect("table 1 leaves rebind slack");
        let mut moved = imp.clone();
        let a = moved.assignment(copy.op, copy.role).unwrap();
        moved.assign(
            copy.op,
            copy.role,
            Assignment {
                cycle: a.cycle,
                vendor: alt,
            },
        );
        assert!(
            !cert.verify(&p, &moved),
            "stale certificate must not verify"
        );
    }

    #[test]
    fn single_vendor_cone_control_is_refused_with_a_witness() {
        let (p, mut imp) = solved(Mode::DetectionOnly);
        let nc = imp.assignment(NodeId::new(3), Role::Nc).unwrap();
        let rc = imp.assignment(NodeId::new(3), Role::Rc).unwrap();
        imp.assign(
            NodeId::new(3),
            Role::Rc,
            Assignment {
                cycle: rc.cycle,
                vendor: nc.vendor,
            },
        );
        let diags = certify(&p, &imp).expect_err("single-vendor control must block");
        let tq = diags
            .iter()
            .find(|d| d.code == Code::ConeSingleVendor)
            .expect("TQ004 witness present");
        assert_eq!(tq.location.vendor, Some(nc.vendor));
        assert!(
            tq.message.contains("o5"),
            "names the cone sink: {}",
            tq.message
        );
        assert!(
            tq.fixits.iter().any(|f| !f.alternatives.is_empty()),
            "witness carries legal rebind alternatives"
        );
    }

    #[test]
    fn trigger_channel_within_one_copy_is_refused() {
        // o1 → o4 in polynom: put both NC copies on one vendor. Rule 2
        // (TD006) sees it; TQ005 must find it *independently*.
        let (p, mut imp) = solved(Mode::DetectionOnly);
        let parent = imp.assignment(NodeId::new(0), Role::Nc).unwrap();
        let child = imp.assignment(NodeId::new(3), Role::Nc).unwrap();
        imp.assign(
            NodeId::new(3),
            Role::Nc,
            Assignment {
                cycle: child.cycle,
                vendor: parent.vendor,
            },
        );
        let diags = certify(&p, &imp).expect_err("trigger channel must block");
        assert!(
            diags.iter().any(|d| d.code == Code::ConeTriggerChannel),
            "{diags:?}"
        );
    }

    #[test]
    fn two_vendor_cone_warns_pair_collapse_but_still_certifies() {
        // A 2-op chain, NC/RC woven from exactly two vendors: fully
        // rule-compliant, yet the pair {Ven1, Ven2} owns every
        // detection position. The syntactic rules cannot see this.
        let mut g = troy_dfg::Dfg::new("chain2");
        let a = g.add_op_with(troy_dfg::OpKind::Mul, "a", 2);
        let b = g.add_op_with(troy_dfg::OpKind::Mul, "b", 1);
        g.add_edge(a, b).unwrap();
        let p = SynthesisProblem::builder(g, Catalog::table1())
            .mode(Mode::DetectionOnly)
            .detection_latency(4)
            .build()
            .unwrap();
        let mut imp = Implementation::new(2);
        let asg = |c, v| Assignment {
            cycle: c,
            vendor: VendorId::new(v),
        };
        imp.assign(a, Role::Nc, asg(1, 0));
        imp.assign(b, Role::Nc, asg(2, 1));
        imp.assign(a, Role::Rc, asg(2, 1));
        imp.assign(b, Role::Rc, asg(3, 0));
        assert!(validate(&p, &imp).is_empty(), "binding is rule-compliant");
        let cert = certify(&p, &imp).expect("warnings do not block");
        assert_eq!(cert.pair_exposed_cones, 1);
        let findings = cone_findings(&p, &imp);
        let pair = findings
            .iter()
            .find(|d| d.code == Code::ConePairCollapse)
            .expect("TQ006 present");
        assert!(pair.message.contains("Ven1") && pair.message.contains("Ven2"));
    }

    #[test]
    fn recovery_vendor_overlap_is_noted_in_the_certificate() {
        let (p, imp) = solved(Mode::DetectionRecovery);
        let cert = certify(&p, &imp).unwrap();
        // Table 1 has 4 vendors; a 5-op cone uses >= 3 per detection
        // copy, so the recovery copy cannot avoid all detection vendors.
        assert_eq!(cert.recovery_exposed_cones, 1);
        let findings = cone_findings(&p, &imp);
        assert!(findings
            .iter()
            .any(|d| d.code == Code::RecoveryConeExposure && d.severity == Severity::Note));
    }

    #[test]
    fn incomplete_bindings_are_never_certified() {
        let p = problem(Mode::DetectionOnly);
        let imp = Implementation::new(p.dfg().len());
        let diags = certify(&p, &imp).expect_err("nothing bound");
        assert!(diags.iter().all(|d| d.severity == Severity::Error));
        assert!(!diags.is_empty());
    }
}
