//! Machine-checked security certificates for synthesized bindings.
//!
//! A [`SecurityCertificate`] is the positive result of the security
//! pass (`passes::security`): a record that the prover enumerated every
//! vendor coalition of size one and two over every output cone of the
//! binding and found no coalition that defeats the run-time comparator.
//! The certificate is *checkable*, not just a stamp: it carries a
//! checksum over the exact binding it certifies, and
//! [`SecurityCertificate::verify`] re-runs the prover and compares —
//! any drift between the certificate and the implementation it claims
//! to cover is detected.
//!
//! The JSON rendering stays inside the service wire subset (objects,
//! strings, unsigned integers, booleans), so the daemon can attach a
//! certificate to a response and clients can parse it with the same
//! minimal reader they use for everything else.

use std::fmt;

use troyhls::Mode;

use troy_dfg::json::escape;

/// Proof record: no single vendor and no colluding vendor pair defeats
/// the comparator on any output cone of the certified binding.
///
/// Produced only by [`crate::certify`]; the fields are a faithful
/// summary of what the prover enumerated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecurityCertificate {
    /// The certified design's name.
    pub design: String,
    /// The synthesis mode the binding was certified under.
    pub mode: Mode,
    /// Number of output cones checked (one per DFG sink).
    pub cones: usize,
    /// Total operations covered across all cones (every DFG op).
    pub ops_covered: usize,
    /// Proven: no single vendor controls both detection copies of any
    /// cone, and no vendor holds a trigger channel within one copy.
    pub single_vendor_safe: bool,
    /// Size of the smallest vendor coalition that could corrupt both
    /// detection copies of some output consistently. A certificate
    /// always has `>= 2`; rule-compliant bindings cannot do better,
    /// since the two vendors of one op's NC/RC pair always suffice.
    pub min_collusion_size: usize,
    /// Cones whose full NC+RC vendor set collapses to two vendors (a
    /// colluding *pair* controls every detection position). Recorded,
    /// not certified away: small cones over small catalogs exhibit this
    /// legally, and the TQ006 warning points at each instance.
    pub pair_exposed_cones: usize,
    /// Cones whose recovery copy shares a vendor with their detection
    /// copies (TQ007), when the mode synthesizes recovery at all.
    pub recovery_exposed_cones: usize,
    /// Vendors in the catalog the coalition enumeration ranged over.
    pub vendors_enumerated: usize,
    /// FNV-1a digest of the certified binding (every op copy's cycle
    /// and vendor) plus the claim fields; binds the certificate to one
    /// concrete implementation.
    pub checksum: u64,
}

impl SecurityCertificate {
    /// Renders the certificate as a JSON object inside the service wire
    /// subset (no floats, no negatives).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"design\":{},\"mode\":{},\"cones\":{},\"ops_covered\":{},",
                "\"single_vendor_safe\":{},\"min_collusion_size\":{},",
                "\"pair_exposed_cones\":{},\"recovery_exposed_cones\":{},",
                "\"vendors_enumerated\":{},\"checksum\":{}}}"
            ),
            escape(&self.design),
            escape(&self.mode.to_string()),
            self.cones,
            self.ops_covered,
            self.single_vendor_safe,
            self.min_collusion_size,
            self.pair_exposed_cones,
            self.recovery_exposed_cones,
            self.vendors_enumerated,
            self.checksum,
        )
    }

    /// Re-runs the prover on `problem` + `imp` and checks that it
    /// reissues exactly this certificate. `false` means the certificate
    /// does not belong to that binding (or the binding regressed).
    #[must_use]
    pub fn verify(
        &self,
        problem: &troyhls::SynthesisProblem,
        imp: &troyhls::Implementation,
    ) -> bool {
        crate::certify(problem, imp).as_ref() == Ok(self)
    }
}

impl fmt::Display for SecurityCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "security certificate: {} ({} mode)",
            self.design, self.mode
        )?;
        writeln!(
            f,
            "  proven: no single vendor controls both detection copies of any of {} output cone(s) ({} ops, {} vendors enumerated)",
            self.cones, self.ops_covered, self.vendors_enumerated
        )?;
        writeln!(
            f,
            "  minimum evading coalition: {} vendors",
            self.min_collusion_size
        )?;
        if self.pair_exposed_cones == 0 {
            writeln!(
                f,
                "  proven: no colluding vendor pair controls a full output cone"
            )?;
        } else {
            writeln!(
                f,
                "  warning: {} cone(s) fully controlled by a vendor pair (see TQ006)",
                self.pair_exposed_cones
            )?;
        }
        if self.recovery_exposed_cones > 0 {
            writeln!(
                f,
                "  note: {} cone(s) with detection vendors recurring in recovery (see TQ007)",
                self.recovery_exposed_cones
            )?;
        }
        write!(f, "  checksum: {:016x}", self.checksum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SecurityCertificate {
        SecurityCertificate {
            design: "polynom".into(),
            mode: Mode::DetectionRecovery,
            cones: 1,
            ops_covered: 5,
            single_vendor_safe: true,
            min_collusion_size: 2,
            pair_exposed_cones: 0,
            recovery_exposed_cones: 1,
            vendors_enumerated: 4,
            checksum: 0xdead_beef,
        }
    }

    #[test]
    fn json_stays_in_the_wire_subset() {
        let j = sample().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"design\":\"polynom\""));
        assert!(j.contains("\"mode\":\"detection+recovery\""));
        assert!(j.contains("\"single_vendor_safe\":true"));
        assert!(j.contains("\"checksum\":3735928559"));
        assert!(!j.contains('.') || j.contains("detection"), "{j}");
        assert_eq!(
            j,
            "{\"design\":\"polynom\",\"mode\":\"detection+recovery\",\"cones\":1,\
             \"ops_covered\":5,\"single_vendor_safe\":true,\"min_collusion_size\":2,\
             \"pair_exposed_cones\":0,\"recovery_exposed_cones\":1,\"vendors_enumerated\":4,\
             \"checksum\":3735928559}"
        );
    }

    #[test]
    fn text_rendering_states_both_claims() {
        let text = sample().to_string();
        assert!(text.contains("no single vendor"), "{text}");
        assert!(text.contains("no colluding vendor pair"), "{text}");
        assert!(text.contains("minimum evading coalition: 2"), "{text}");
        assert!(text.contains("TQ007"), "{text}");
    }

    #[test]
    fn figure5_digest_matches_its_golden_value() {
        // Recorded before the digest moved to `troy_dfg::Fnv1a`: the
        // certificates served for the same binding keep their checksum.
        use troyhls::{Catalog, ExactSolver, SolveOptions, SynthesisProblem, Synthesizer};
        let problem = SynthesisProblem::builder(troy_dfg::benchmarks::polynom(), Catalog::table1())
            .mode(Mode::DetectionRecovery)
            .detection_latency(4)
            .recovery_latency(3)
            .area_limit(22_000)
            .build()
            .expect("well-formed");
        let design = ExactSolver::new()
            .synthesize(&problem, &SolveOptions::quick())
            .expect("figure 5 is feasible");
        assert_eq!(design.cost, 4160);
        let cert = crate::certify(&problem, &design.implementation).expect("certifiable");
        assert_eq!(cert.checksum, 0x9d59_d4f4_1e52_e5e1);
    }
}
