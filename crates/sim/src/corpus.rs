//! Seeded, stratified Trojan-corpus generation for campaign grids.
//!
//! A corpus is a deterministic population of [`TrojanSpec`]s stratified by
//! trigger rarity, payload kind (Section 3.1 taxonomy plus the Fig. 3
//! latched contrast and a clean negative control), infected-vendor
//! coalition size and trigger shape (combinational vs sequential). Each
//! spec is *abstract* — [`plant`] instantiates it against one synthesized
//! design, infecting products the design actually licenses so every cell
//! of a campaign grid demonstrably exercises the threat model.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use troy_dfg::NodeId;
use troyhls::{Implementation, License, Role, SynthesisProblem};

use crate::datapath::CoreLibrary;
use crate::trojan::{rarity_mask, Payload, Trigger, Trojan};

/// Derives a child seed from a base seed and a salt (SplitMix64 finalizer).
///
/// The campaign layers use this everywhere a deterministic sub-stream is
/// needed, so identical `(seed, identity)` pairs replay bit-for-bit
/// regardless of execution order or parallelism.
#[must_use]
pub fn derive_seed(base: u64, salt: u64) -> u64 {
    let mut z = base ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Payload stratum of a corpus entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PayloadKind {
    /// No Trojan at all — the negative control pinning the false-alarm
    /// rate at zero.
    Clean,
    /// Memory-less XOR payload ([`Payload::XorMask`]).
    XorMask,
    /// Memory-less additive payload ([`Payload::AddOffset`]).
    AddOffset,
    /// Memoryful latched payload ([`Payload::Latched`], Fig. 3) — outside
    /// the paper's recovery scope, included to measure *why*.
    Latched,
}

impl PayloadKind {
    /// Whether this payload is memory-less (the paper's recovery scope).
    #[must_use]
    pub fn is_memoryless(self) -> bool {
        matches!(self, PayloadKind::XorMask | PayloadKind::AddOffset)
    }

    /// Short stable tag used in cell identifiers and JSON rows.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            PayloadKind::Clean => "clean",
            PayloadKind::XorMask => "xor",
            PayloadKind::AddOffset => "offset",
            PayloadKind::Latched => "latched",
        }
    }
}

/// One stratified corpus entry: everything needed to instantiate the same
/// Trojan against any design, deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrojanSpec {
    /// Position in the generated corpus (stable across runs).
    pub index: usize,
    /// Trigger selectivity: the trigger watches the low `rarity_bits`
    /// bits of an operand (see [`rarity_mask`]).
    pub rarity_bits: u32,
    /// Payload stratum.
    pub kind: PayloadKind,
    /// Number of distinct same-type products infected with the identical
    /// Trojan (the coordinated supply-chain coalition; the paper assumes 1).
    pub coalition: usize,
    /// Sequential (counter) trigger instead of a combinational one.
    pub sequential: bool,
    /// Seed driving every random choice made when planting this entry.
    pub entry_seed: u64,
}

impl TrojanSpec {
    /// Compact stratum label, e.g. `r12-xor-c1` / `r4-latched-c2-seq` /
    /// `clean`.
    #[must_use]
    pub fn stratum(&self) -> String {
        if self.kind == PayloadKind::Clean {
            return "clean".to_owned();
        }
        let seq = if self.sequential { "-seq" } else { "" };
        format!(
            "r{}-{}-c{}{seq}",
            self.rarity_bits,
            self.kind.tag(),
            self.coalition
        )
    }
}

/// Corpus strata: the cartesian product of these dimensions (clean entries
/// collapse the rarity/coalition/trigger dimensions, which do not apply).
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Trigger rarity levels (bits of selectivity) to cover.
    pub rarity_levels: Vec<u32>,
    /// Payload kinds to cover.
    pub payload_kinds: Vec<PayloadKind>,
    /// Coalition sizes to cover.
    pub coalitions: Vec<usize>,
    /// Trigger shapes to cover (`false` = combinational, `true` =
    /// sequential).
    pub sequential_triggers: Vec<bool>,
    /// Entries generated per stratum.
    pub per_stratum: usize,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            rarity_levels: vec![0, 4, 12],
            payload_kinds: vec![
                PayloadKind::XorMask,
                PayloadKind::AddOffset,
                PayloadKind::Latched,
                PayloadKind::Clean,
            ],
            coalitions: vec![1, 2],
            sequential_triggers: vec![false, true],
            per_stratum: 1,
        }
    }
}

/// Generates the stratified corpus for `config`, deterministically from
/// `seed`. Entry seeds depend on the stratum coordinates (not the entry's
/// position), so narrowing one dimension never reshuffles the others.
#[must_use]
pub fn generate_corpus(config: &CorpusConfig, seed: u64) -> Vec<TrojanSpec> {
    let mut specs = Vec::new();
    for &rarity_bits in &config.rarity_levels {
        for &kind in &config.payload_kinds {
            if kind == PayloadKind::Clean {
                continue; // handled once below: rarity/coalition don't apply
            }
            for &coalition in &config.coalitions {
                for &sequential in &config.sequential_triggers {
                    for k in 0..config.per_stratum {
                        let salt = (u64::from(rarity_bits) << 40)
                            | ((kind.tag().len() as u64) << 32)
                            | ((coalition as u64) << 16)
                            | (u64::from(sequential) << 8)
                            | k as u64;
                        specs.push(TrojanSpec {
                            index: specs.len(),
                            rarity_bits,
                            kind,
                            coalition,
                            sequential,
                            entry_seed: derive_seed(
                                seed,
                                derive_seed(salt, kind.tag().as_bytes()[0].into()),
                            ),
                        });
                    }
                }
            }
        }
    }
    if config.payload_kinds.contains(&PayloadKind::Clean) {
        for k in 0..config.per_stratum {
            specs.push(TrojanSpec {
                index: specs.len(),
                rarity_bits: 64,
                kind: PayloadKind::Clean,
                coalition: 0,
                sequential: false,
                entry_seed: derive_seed(seed, 0xC1EA_u64 << 16 | k as u64),
            });
        }
    }
    specs
}

/// A [`TrojanSpec`] instantiated against one synthesized design: the
/// infected core library plus everything a campaign needs to *target* the
/// trigger (craft inputs that provably reach the infected product).
#[derive(Debug, Clone)]
pub struct PlantedTrojan {
    /// The spec this was planted from.
    pub spec: TrojanSpec,
    /// Core library with the coalition's products infected (empty for
    /// clean entries).
    pub library: CoreLibrary,
    /// Every infected product, primary first.
    pub infected: Vec<License>,
    /// Preferred crafting target: a DFG op of the infected type whose NC
    /// or RC copy is bound to the primary infected vendor.
    pub victim: Option<NodeId>,
    /// Whether the trigger watches operand `b` (set when the victim's
    /// slot-`a` operand is produced by another op, so a crafted primary
    /// input lands on `b`).
    pub watch_b: bool,
    /// Trigger operand mask (`rarity_mask(spec.rarity_bits)`).
    pub mask: u64,
    /// Required operand bits under `mask`.
    pub pattern: u64,
}

impl PlantedTrojan {
    /// The Trojan embedded in the primary product, if any.
    #[must_use]
    pub fn trojan(&self) -> Option<Trojan> {
        self.infected.first().and_then(|&l| self.library.trojan(l))
    }
}

/// Instantiates `spec` against a synthesized design.
///
/// The primary infected product is drawn (seeded by `spec.entry_seed`)
/// from the licenses the implementation's detection copies (NC or RC)
/// use; coalition members are further products of the *same IP type*, so
/// an operation's NC and RC copies can both be hit. Clean specs yield an
/// empty library.
#[must_use]
pub fn plant(
    spec: &TrojanSpec,
    problem: &SynthesisProblem,
    implementation: &Implementation,
) -> PlantedTrojan {
    let mut planted = PlantedTrojan {
        spec: *spec,
        library: CoreLibrary::new(),
        infected: Vec::new(),
        victim: None,
        watch_b: false,
        mask: 0,
        pattern: 0,
    };
    if spec.kind == PayloadKind::Clean {
        return planted;
    }

    let mut rng = StdRng::seed_from_u64(spec.entry_seed);
    let dfg = problem.dfg();
    let licenses: Vec<License> = implementation.licenses_used(problem).into_iter().collect();
    // The primary product comes from the licenses some NC or RC copy uses:
    // a product only recovery copies use has no victim to craft for, so
    // its trigger could never fire.
    let in_detection = |l: &License| {
        implementation.iter().any(|(copy, a)| {
            copy.role != Role::Recovery
                && a.vendor == l.vendor
                && dfg.kind(copy.op).ip_type() == l.ip_type
        })
    };
    let detection: Vec<License> = licenses.iter().copied().filter(in_detection).collect();
    let primary = detection[rng.random_range(0..detection.len())];
    planted.mask = rarity_mask(spec.rarity_bits);
    planted.pattern = rng.random::<u64>() & planted.mask;

    // Crafting target: an op of the infected type, with a primary input to
    // override, whose detection-phase copies touch the infected vendor.
    // Leaf ops are preferred — their crafted value *is* operand `a`, which
    // is the only operand sequential triggers watch.
    let is_candidate = |o: NodeId| {
        dfg.kind(o).ip_type() == primary.ip_type
            && dfg.node(o).primary_inputs() > 0
            && [Role::Nc, Role::Rc]
                .iter()
                .any(|&r| implementation.assignment(o, r).map(|a| a.vendor) == Some(primary.vendor))
    };
    planted.victim = dfg
        .node_ids()
        .find(|&o| is_candidate(o) && dfg.preds(o).is_empty())
        .or_else(|| dfg.node_ids().find(|&o| is_candidate(o)));
    planted.watch_b = planted.victim.is_some_and(|v| !dfg.preds(v).is_empty());

    let trigger = if spec.sequential {
        Trigger::Sequential {
            mask: planted.mask,
            pattern: planted.pattern,
            threshold: rng.random_range(1..4),
        }
    } else if planted.watch_b {
        Trigger::Combinational {
            mask_a: 0,
            pattern_a: 0,
            mask_b: planted.mask,
            pattern_b: planted.pattern,
        }
    } else {
        Trigger::Combinational {
            mask_a: planted.mask,
            pattern_a: planted.pattern,
            mask_b: 0,
            pattern_b: 0,
        }
    };
    let payload = match spec.kind {
        PayloadKind::XorMask => Payload::XorMask(rng.random::<u64>() | 1),
        PayloadKind::AddOffset => Payload::AddOffset(rng.random_range(1..u64::MAX)),
        PayloadKind::Latched => Payload::Latched(rng.random::<u64>() | 1),
        PayloadKind::Clean => unreachable!("handled above"),
    };

    planted.library.infect(primary, Trojan { trigger, payload });
    planted.infected.push(primary);
    // Coalition members: further same-type products, deterministic order.
    let mut extra = spec.coalition.saturating_sub(1);
    for &cand in &licenses {
        if extra == 0 {
            break;
        }
        if cand != primary && cand.ip_type == primary.ip_type {
            planted.library.infect(cand, Trojan { trigger, payload });
            planted.infected.push(cand);
            extra -= 1;
        }
    }
    planted
}

#[cfg(test)]
mod tests {
    use super::*;
    use troy_dfg::benchmarks;
    use troyhls::{Catalog, ExactSolver, Mode, SolveOptions, Synthesizer};

    fn design() -> (SynthesisProblem, Implementation) {
        let p = SynthesisProblem::builder(benchmarks::diff2(), Catalog::paper8())
            .mode(Mode::DetectionRecovery)
            .detection_latency(5)
            .recovery_latency(5)
            .build()
            .unwrap();
        let s = ExactSolver::new()
            .synthesize(&p, &SolveOptions::quick())
            .unwrap();
        (p, s.implementation)
    }

    #[test]
    fn corpus_covers_every_stratum_exactly_once() {
        let cfg = CorpusConfig::default();
        let specs = generate_corpus(&cfg, 7);
        // 3 rarity × 3 infected kinds × 2 coalitions × 2 trigger shapes
        // + 1 clean control.
        assert_eq!(specs.len(), 3 * 3 * 2 * 2 + 1);
        let mut strata: Vec<String> = specs.iter().map(TrojanSpec::stratum).collect();
        strata.sort();
        strata.dedup();
        assert_eq!(strata.len(), specs.len(), "strata are distinct");
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(s.index, i);
        }
    }

    #[test]
    fn corpus_is_seed_deterministic_and_seed_sensitive() {
        let cfg = CorpusConfig::default();
        assert_eq!(generate_corpus(&cfg, 1), generate_corpus(&cfg, 1));
        let a = generate_corpus(&cfg, 1);
        let b = generate_corpus(&cfg, 2);
        assert!(a.iter().zip(&b).any(|(x, y)| x.entry_seed != y.entry_seed));
    }

    #[test]
    fn planting_is_deterministic_and_respects_coalition_size() {
        let (p, imp) = design();
        let cfg = CorpusConfig::default();
        for spec in generate_corpus(&cfg, 42) {
            let a = plant(&spec, &p, &imp);
            let b = plant(&spec, &p, &imp);
            assert_eq!(a.infected, b.infected, "{spec:?}");
            assert_eq!(a.pattern, b.pattern, "{spec:?}");
            if spec.kind == PayloadKind::Clean {
                assert!(a.infected.is_empty());
                assert_eq!(a.library.infected_licenses().count(), 0);
            } else {
                assert!(!a.infected.is_empty());
                assert!(a.infected.len() <= spec.coalition);
                assert_eq!(a.library.infected_licenses().count(), a.infected.len());
                let ty = a.infected[0].ip_type;
                assert!(a.infected.iter().all(|l| l.ip_type == ty));
                assert_eq!(a.mask, rarity_mask(spec.rarity_bits));
                assert_eq!(a.pattern & !a.mask, 0);
                assert!(a.trojan().is_some());
            }
        }
    }

    #[test]
    fn planted_victim_is_bound_to_the_infected_vendor() {
        let (p, imp) = design();
        let spec = TrojanSpec {
            index: 0,
            rarity_bits: 8,
            kind: PayloadKind::XorMask,
            coalition: 1,
            sequential: false,
            entry_seed: 99,
        };
        let planted = plant(&spec, &p, &imp);
        let victim = planted.victim.expect("diff2 has candidate ops");
        let primary = planted.infected[0];
        assert_eq!(p.dfg().kind(victim).ip_type(), primary.ip_type);
        assert!([Role::Nc, Role::Rc]
            .iter()
            .any(|&r| imp.assignment(victim, r).map(|a| a.vendor) == Some(primary.vendor)));
    }

    /// Two independent leaf adds: NC on vendor 0, RC on vendor 1, recovery
    /// on vendor 2. Vendor 2's adder serves only recovery copies, so no
    /// victim could be crafted for it.
    #[test]
    fn recovery_only_license_is_never_the_primary() {
        let mut g = troy_dfg::Dfg::new("pair");
        g.add_op(troy_dfg::OpKind::Add);
        g.add_op(troy_dfg::OpKind::Add);
        let p = SynthesisProblem::builder(g, Catalog::table1())
            .mode(Mode::DetectionRecovery)
            .detection_latency(1)
            .recovery_latency(1)
            .build()
            .unwrap();
        let mut imp = Implementation::new(2);
        for op in [NodeId::new(0), NodeId::new(1)] {
            for (role, cycle, vendor) in
                [(Role::Nc, 1, 0), (Role::Rc, 1, 1), (Role::Recovery, 2, 2)]
            {
                let vendor = troyhls::VendorId::new(vendor);
                imp.assign(op, role, troyhls::Assignment { cycle, vendor });
            }
        }
        assert!(troyhls::validate(&p, &imp).is_empty());
        for spec in generate_corpus(&CorpusConfig::default(), 42) {
            let planted = plant(&spec, &p, &imp);
            if spec.kind != PayloadKind::Clean {
                assert!(planted.victim.is_some(), "{spec:?}: {:?}", planted.infected);
            }
        }
    }

    #[test]
    fn derive_seed_separates_salts() {
        assert_eq!(derive_seed(5, 9), derive_seed(5, 9));
        assert_ne!(derive_seed(5, 9), derive_seed(5, 10));
        assert_ne!(derive_seed(5, 9), derive_seed(6, 9));
    }
}
