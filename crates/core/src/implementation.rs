//! The output of synthesis: a schedule plus a vendor binding for every
//! operation copy, with cost/area/diversity accounting.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use troy_dfg::IpTypeId;

use crate::catalog::{License, VendorId};
use crate::problem::{Mode, SynthesisProblem};
use crate::rules::{OpCopy, Role};

/// Where and on whose core one operation copy executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// Global schedule step, 1-based. Detection copies occupy
    /// `1..=λ_det`; recovery copies occupy `λ_det+1..=λ_det+λ_rec`.
    pub cycle: usize,
    /// The vendor whose IP core executes the copy.
    pub vendor: VendorId,
}

/// A complete synthesized design: per-copy assignments.
///
/// Use [`Implementation::stats`] for the paper's `u`/`t`/`v`/`mc` columns
/// and `crate::validate` to check it against the design rules.
///
/// # Examples
///
/// ```
/// use troy_dfg::NodeId;
/// use troyhls::{Assignment, Implementation, Role, VendorId};
///
/// let mut imp = Implementation::new(2);
/// imp.assign(NodeId::new(0), Role::Nc, Assignment { cycle: 1, vendor: VendorId::new(0) });
/// imp.assign(NodeId::new(0), Role::Rc, Assignment { cycle: 1, vendor: VendorId::new(1) });
/// assert_eq!(imp.assignment(NodeId::new(0), Role::Nc).unwrap().cycle, 1);
/// assert!(imp.assignment(NodeId::new(1), Role::Nc).is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Implementation {
    /// `slots[op][role]`.
    slots: Vec<[Option<Assignment>; 3]>,
}

impl Implementation {
    /// An empty implementation for a DFG with `num_ops` operations.
    #[must_use]
    pub fn new(num_ops: usize) -> Self {
        Implementation {
            slots: vec![[None; 3]; num_ops],
        }
    }

    /// Records the assignment of one copy (overwrites an earlier one).
    pub fn assign(&mut self, op: troy_dfg::NodeId, role: Role, a: Assignment) {
        self.slots[op.index()][role.index()] = Some(a);
    }

    /// Clears the assignment of one copy.
    pub fn unassign(&mut self, op: troy_dfg::NodeId, role: Role) {
        self.slots[op.index()][role.index()] = None;
    }

    /// The assignment of one copy, if made.
    #[must_use]
    pub fn assignment(&self, op: troy_dfg::NodeId, role: Role) -> Option<Assignment> {
        self.slots[op.index()][role.index()]
    }

    /// Assignment looked up by [`OpCopy`].
    #[must_use]
    pub fn assignment_of(&self, copy: OpCopy) -> Option<Assignment> {
        self.assignment(copy.op, copy.role)
    }

    /// Number of operations this implementation covers.
    #[must_use]
    pub fn num_ops(&self) -> usize {
        self.slots.len()
    }

    /// Iterates over all made assignments as `(copy, assignment)`.
    pub fn iter(&self) -> impl Iterator<Item = (OpCopy, Assignment)> + '_ {
        self.slots.iter().enumerate().flat_map(|(i, roles)| {
            let op = troy_dfg::NodeId::new(i);
            [Role::Nc, Role::Rc, Role::Recovery]
                .into_iter()
                .filter_map(move |role| roles[role.index()].map(|a| (OpCopy::new(op, role), a)))
        })
    }

    /// The set of licenses actually used by the assignments.
    #[must_use]
    pub fn licenses_used(&self, problem: &SynthesisProblem) -> BTreeSet<License> {
        self.licensed(problem).map(|(lic, _)| lic).collect()
    }

    /// Physical instance count per license: the peak number of copies bound
    /// to `(vendor, type)` in any single cycle. Instances persist across the
    /// detection and recovery phases (same silicon), so the maximum is taken
    /// over the whole schedule.
    #[must_use]
    pub fn instances(&self, problem: &SynthesisProblem) -> BTreeMap<License, usize> {
        let mut peak = BTreeMap::new();
        self.for_each_peak(problem, |lic, n| {
            peak.insert(lic, n);
        });
        peak
    }

    /// Calls `f(license, peak)` once per used license, in license order:
    /// sorted by `(license, cycle)`, each license's copies are one run and
    /// each of its cycles a sub-run, so its peak is its longest sub-run.
    fn for_each_peak(&self, problem: &SynthesisProblem, mut f: impl FnMut(License, usize)) {
        let mut placed: Vec<(License, usize)> = self.licensed(problem).collect();
        placed.sort_unstable();
        for run in placed.chunk_by(|a, b| a.0 == b.0) {
            let peak = run.chunk_by(|a, b| a.1 == b.1).map(<[_]>::len).max();
            f(run[0].0, peak.unwrap_or(0));
        }
    }

    /// Every copy's `(license, cycle)`.
    fn licensed<'a>(
        &'a self,
        problem: &'a SynthesisProblem,
    ) -> impl Iterator<Item = (License, usize)> + 'a {
        self.iter().map(|(copy, a)| {
            let lic = License {
                vendor: a.vendor,
                ip_type: problem.dfg().kind(copy.op).ip_type(),
            };
            (lic, a.cycle)
        })
    }

    /// Total silicon area of the instantiated cores.
    ///
    /// # Panics
    ///
    /// Panics if a used license is not offered by the problem's catalog
    /// (validate first for a graceful diagnostic).
    #[must_use]
    pub fn area(&self, problem: &SynthesisProblem) -> u64 {
        let mut total = 0;
        self.for_each_peak(problem, |lic, n| {
            let off = problem
                .catalog()
                .offering_of(lic)
                .unwrap_or_else(|| panic!("license {lic} not in catalog"));
            total += off.area * n as u64;
        });
        total
    }

    /// Total license cost in dollars (the paper's `mc` once minimized).
    ///
    /// # Panics
    ///
    /// Panics if a used license is not offered by the catalog.
    #[must_use]
    pub fn license_cost(&self, problem: &SynthesisProblem) -> u64 {
        // The vendors bought per type, one bit each: a problem has at
        // most `MAX_VENDORS` (64). A vendor past bit 63 gets no bit, so
        // `cost_of` reaches it and panics: it is not in the catalog.
        let mut bought = [0u64; IpTypeId::COUNT];
        let mut cost = 0;
        for (lic, _) in self.licensed(problem) {
            let bit = u32::try_from(lic.vendor.index())
                .ok()
                .and_then(|v| 1u64.checked_shl(v))
                .unwrap_or(0);
            let vendors = &mut bought[lic.ip_type.index()];
            if *vendors & bit == 0 {
                *vendors |= bit;
                cost += problem.catalog().cost_of([lic]);
            }
        }
        cost
    }

    /// The paper's table columns for this design.
    #[must_use]
    pub fn stats(&self, problem: &SynthesisProblem) -> DesignStats {
        let licenses = self.licenses_used(problem);
        let instances = self.instances(problem);
        DesignStats {
            instances_used: instances.values().sum(),
            licenses_used: licenses.len(),
            vendors_used: licenses
                .iter()
                .map(|l| l.vendor)
                .collect::<BTreeSet<_>>()
                .len(),
            license_cost: self.license_cost(problem),
            area: self.area(problem),
        }
    }

    /// Per-cycle, per-type occupancy table (for reports): cycle →
    /// `(vendor, type)` → ops bound there.
    #[must_use]
    pub fn occupancy(
        &self,
        problem: &SynthesisProblem,
    ) -> BTreeMap<usize, BTreeMap<(VendorId, IpTypeId), Vec<OpCopy>>> {
        let mut table: BTreeMap<usize, BTreeMap<(VendorId, IpTypeId), Vec<OpCopy>>> =
            BTreeMap::new();
        for (copy, a) in self.iter() {
            table
                .entry(a.cycle)
                .or_default()
                .entry((a.vendor, problem.dfg().kind(copy.op).ip_type()))
                .or_default()
                .push(copy);
        }
        table
    }

    /// Whether every required copy for the mode has an assignment.
    #[must_use]
    pub fn is_complete(&self, mode: Mode) -> bool {
        self.slots.iter().all(|roles| {
            Role::for_mode(mode)
                .iter()
                .all(|r| roles[r.index()].is_some())
        })
    }
}

/// The paper's result columns: `u` instances of `t` license types from `v`
/// vendors, at minimum cost `mc`, plus the occupied area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesignStats {
    /// `u`: number of physical IP-core instances.
    pub instances_used: usize,
    /// `t`: number of distinct `(vendor, type)` licenses bought.
    pub licenses_used: usize,
    /// `v`: number of distinct vendors involved.
    pub vendors_used: usize,
    /// `mc`: total license cost in dollars.
    pub license_cost: u64,
    /// Total silicon area of the instantiated cores.
    pub area: u64,
}

impl fmt::Display for DesignStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "u={} t={} v={} mc=${} area={}",
            self.instances_used,
            self.licenses_used,
            self.vendors_used,
            self.license_cost,
            self.area
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::problem::SynthesisProblem;
    use troy_dfg::{benchmarks, NodeId};

    fn tiny_problem() -> SynthesisProblem {
        SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
            .mode(Mode::DetectionOnly)
            .detection_latency(4)
            .build()
            .unwrap()
    }

    /// polynom ops: o1,o2,o3 = mul; o4,o5 = add.
    fn sample_impl() -> Implementation {
        let mut imp = Implementation::new(5);
        let a = |c: usize, v: usize| Assignment {
            cycle: c,
            vendor: VendorId::new(v),
        };
        // NC: t1,t2 cycle1; t3 cycle2; t4 cycle2... t4 needs t1,t2 -> c2; t5 c3.
        imp.assign(NodeId::new(0), Role::Nc, a(1, 0));
        imp.assign(NodeId::new(1), Role::Nc, a(1, 1));
        imp.assign(NodeId::new(2), Role::Nc, a(2, 0));
        imp.assign(NodeId::new(3), Role::Nc, a(2, 2));
        imp.assign(NodeId::new(4), Role::Nc, a(3, 1));
        // RC shifted by one cycle, vendors rotated.
        imp.assign(NodeId::new(0), Role::Rc, a(2, 1));
        imp.assign(NodeId::new(1), Role::Rc, a(2, 2));
        imp.assign(NodeId::new(2), Role::Rc, a(3, 1));
        imp.assign(NodeId::new(3), Role::Rc, a(3, 3));
        imp.assign(NodeId::new(4), Role::Rc, a(4, 0));
        imp
    }

    #[test]
    fn completeness_tracks_mode() {
        let imp = sample_impl();
        assert!(imp.is_complete(Mode::DetectionOnly));
        assert!(!imp.is_complete(Mode::DetectionRecovery));
    }

    #[test]
    fn licenses_and_vendors_counted() {
        let p = tiny_problem();
        let imp = sample_impl();
        let stats = imp.stats(&p);
        // Mults on vendors {0,1,2} (NC: 0,1,0 / RC: 1,2,1) -> mult licenses
        // {0,1,2}; adds on vendors {2,1} NC and {3,0} RC -> adder licenses
        // {0,1,2,3}. t = 3 + 4 = 7.
        assert_eq!(stats.licenses_used, 7);
        assert_eq!(stats.vendors_used, 4);
    }

    #[test]
    fn instances_take_peak_concurrency() {
        let p = tiny_problem();
        let imp = sample_impl();
        let inst = imp.instances(&p);
        // Vendor0 mults: NC t1@1, NC t3@2 -> never concurrent: 1 instance.
        let v0mul = License {
            vendor: VendorId::new(0),
            ip_type: IpTypeId::MULTIPLIER,
        };
        assert_eq!(inst[&v0mul], 1);
        // Vendor1 mults: NC t2@1, RC t1@2, RC t3@3 -> 1 instance.
        let v1mul = License {
            vendor: VendorId::new(1),
            ip_type: IpTypeId::MULTIPLIER,
        };
        assert_eq!(inst[&v1mul], 1);
        // Total u = sum of instances.
        assert_eq!(imp.stats(&p).instances_used, inst.values().sum::<usize>());
    }

    #[test]
    fn concurrent_same_license_needs_two_instances() {
        let p = tiny_problem();
        let mut imp = Implementation::new(5);
        let a = |c: usize, v: usize| Assignment {
            cycle: c,
            vendor: VendorId::new(v),
        };
        // Two mults on vendor 0 in the same cycle.
        imp.assign(NodeId::new(0), Role::Nc, a(1, 0));
        imp.assign(NodeId::new(1), Role::Nc, a(1, 0));
        let v0mul = License {
            vendor: VendorId::new(0),
            ip_type: IpTypeId::MULTIPLIER,
        };
        assert_eq!(imp.instances(&p)[&v0mul], 2);
        assert_eq!(imp.area(&p), 2 * 6843);
    }

    #[test]
    fn cost_counts_each_license_once() {
        let p = tiny_problem();
        let mut imp = Implementation::new(5);
        let a = |c: usize, v: usize| Assignment {
            cycle: c,
            vendor: VendorId::new(v),
        };
        imp.assign(NodeId::new(0), Role::Nc, a(1, 0));
        imp.assign(NodeId::new(1), Role::Nc, a(1, 0));
        imp.assign(NodeId::new(2), Role::Nc, a(2, 0));
        // Three mults, one vendor -> one license fee.
        assert_eq!(imp.license_cost(&p), 950);
    }

    #[test]
    fn unassign_clears_slot() {
        let mut imp = sample_impl();
        imp.unassign(NodeId::new(0), Role::Nc);
        assert!(imp.assignment(NodeId::new(0), Role::Nc).is_none());
        assert!(!imp.is_complete(Mode::DetectionOnly));
    }

    #[test]
    fn occupancy_groups_by_cycle_and_core() {
        let p = tiny_problem();
        let imp = sample_impl();
        let occ = imp.occupancy(&p);
        let cycle1 = &occ[&1];
        assert_eq!(cycle1.len(), 2); // two distinct (vendor,type) cores used
        let total: usize = occ.values().flat_map(|m| m.values()).map(Vec::len).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn stats_display_mentions_all_columns() {
        let p = tiny_problem();
        let s = sample_impl().stats(&p);
        let text = s.to_string();
        for needle in ["u=", "t=", "v=", "mc=$", "area="] {
            assert!(text.contains(needle), "{text}");
        }
    }

    #[test]
    fn iter_yields_all_assignments() {
        let imp = sample_impl();
        assert_eq!(imp.iter().count(), 10);
        assert!(imp.iter().all(|(c, _)| c.role != Role::Recovery));
    }

    mod accounting {
        use super::*;
        use proptest::prelude::*;
        use troy_dfg::{random_dfg, RandomDfgConfig};

        /// The map-based peak count `instances` replaced, kept as its oracle.
        fn instances_oracle(
            imp: &Implementation,
            problem: &SynthesisProblem,
        ) -> BTreeMap<License, usize> {
            let mut per_cycle: BTreeMap<(License, usize), usize> = BTreeMap::new();
            for (copy, a) in imp.iter() {
                let lic = License {
                    vendor: a.vendor,
                    ip_type: problem.dfg().kind(copy.op).ip_type(),
                };
                *per_cycle.entry((lic, a.cycle)).or_insert(0) += 1;
            }
            let mut peak: BTreeMap<License, usize> = BTreeMap::new();
            for ((lic, _), count) in per_cycle {
                let e = peak.entry(lic).or_insert(0);
                *e = (*e).max(count);
            }
            peak
        }

        /// The set-then-vector license cost `license_cost` replaced.
        fn license_cost_oracle(imp: &Implementation, problem: &SynthesisProblem) -> u64 {
            problem
                .catalog()
                .cost_of(imp.licenses_used(problem).into_iter().collect::<Vec<_>>())
        }

        /// A random problem and a random (not necessarily valid) design on
        /// it: every copy of the mode is bound to an offered vendor at a
        /// random cycle, or left unbound.
        fn design() -> impl Strategy<Value = (SynthesisProblem, Implementation)> {
            (
                2usize..=40,
                1usize..=8,
                any::<u64>(),
                prop_oneof![Just(Mode::DetectionOnly), Just(Mode::DetectionRecovery)],
                proptest::collection::vec(any::<u64>(), 120),
            )
                .prop_map(|(ops, depth, seed, mode, draws)| {
                    let cfg = RandomDfgConfig {
                        ops,
                        max_depth: depth,
                        mul_ratio_percent: 40,
                        edge_bias_percent: 70,
                    };
                    let dfg = random_dfg(&cfg, seed);
                    let cp = dfg.critical_path_len();
                    let problem = SynthesisProblem::builder(dfg, Catalog::paper8())
                        .mode(mode)
                        .detection_latency(cp)
                        .recovery_latency(cp)
                        .build()
                        .expect("feasible by construction");
                    let mut imp = Implementation::new(problem.dfg().len());
                    let cycles = problem.total_latency();
                    let mut draw = draws.iter().cycle();
                    for op in problem.dfg().node_ids() {
                        let vendors: Vec<VendorId> = problem
                            .catalog()
                            .vendors_for(problem.dfg().kind(op).ip_type())
                            .collect();
                        for &role in Role::for_mode(mode) {
                            let d = *draw.next().expect("cycled") as usize;
                            if d % 8 == 0 {
                                continue;
                            }
                            let a = Assignment {
                                cycle: 1 + (d >> 3) % cycles,
                                vendor: vendors[(d >> 32) % vendors.len()],
                            };
                            imp.assign(op, role, a);
                        }
                    }
                    (problem, imp)
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn accounting_equals_the_map_based_oracle((problem, imp) in design()) {
                let expected = instances_oracle(&imp, &problem);
                let area: u64 = expected
                    .iter()
                    .map(|(&lic, &n)| problem.catalog().offering_of(lic).unwrap().area * n as u64)
                    .sum();
                prop_assert_eq!(imp.instances(&problem), expected);
                prop_assert_eq!(imp.area(&problem), area);
                prop_assert_eq!(imp.license_cost(&problem), license_cost_oracle(&imp, &problem));
            }
        }
    }
}
