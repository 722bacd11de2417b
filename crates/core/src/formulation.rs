//! The paper's ILP formulation (Section 4.1, equations (3)–(17)) built on
//! [`troy_ilp`].
//!
//! Decision variables follow the paper: `D`/`D'`/`R` schedule binaries
//! (here one family `H[i, role, l, k, m]`), instance-usage binaries
//! `ε(k, t, m)` and license binaries `δ(k, t)`; the objective (17)
//! minimizes `Σ c(k,t)·δ(k,t)`.
//!
//! Two deliberate deviations, both documented in `DESIGN.md`:
//!
//! - phase ordering (eqs. (14)–(15)) is encoded by *time windows* — `D`/`D'`
//!   variables exist only for cycles `1..=λ_det` and `R` variables only for
//!   `λ_det+1..=λ_det+λ_rec` — which is equivalent and dominates the
//!   big-constant form;
//! - the `ε`/`δ` linking (eqs. (11)–(12)) defaults to the *tight* per-cycle
//!   form `Σ_i H[i,·,l,k,m] ≤ ε(k,t,m)` (which subsumes eq. (16)) because
//!   it yields a far stronger LP relaxation; set
//!   [`FormulationOptions::faithful_big_z`] to reproduce the paper's
//!   literal big-`Z` constraints instead.
//!
//! The paper's `|τ(t)|` (instances available per type) is an explicit
//! input; here it defaults to a derived bound but can be overridden via
//! [`FormulationOptions::instances_per_vendor_type`].

use std::time::Instant;

use troy_dfg::{IpTypeId, NodeId, ScheduleWindows};
use troy_ilp::{LinExpr, Model, SolveParams, SolveStatus, VarId};

use crate::catalog::VendorId;
use crate::implementation::{Assignment, Implementation};
use crate::problem::{Mode, SynthesisProblem};
use crate::rules::{diversity_constraints, OpCopy, Role};
use crate::solver::{SolveOptions, Synthesis, SynthesisError, Synthesizer};

/// Knobs for [`formulate`].
#[derive(Debug, Clone, Default)]
pub struct FormulationOptions {
    /// Cap on instances per `(vendor, type)` (the paper's `|τ(t)|`).
    /// `None` derives `max(2, minimum-concurrency bound)` per type.
    pub instances_per_vendor_type: Option<usize>,
    /// Use the paper's literal big-`Z` linking (eqs. (11), (12), (16))
    /// instead of the tight per-cycle linking. Slower to solve; exists for
    /// fidelity comparisons.
    pub faithful_big_z: bool,
}

/// A formulated instance: the ILP model plus the decoding table.
#[derive(Debug)]
pub struct FormulatedIlp {
    /// The 0-1 program.
    pub model: Model,
    /// For each schedule binary: copy/cycle/vendor/instance it encodes.
    decode: Vec<(VarId, OpCopy, usize, VendorId, usize)>,
    /// ε(k, t, m) variables.
    eps: Vec<(VarId, VendorId, IpTypeId, usize)>,
    /// δ(k, t) variables.
    delta: Vec<(VarId, VendorId, IpTypeId)>,
    /// IP type per op (for ε reconstruction in [`FormulatedIlp::encode`]).
    type_of: Vec<IpTypeId>,
    num_ops: usize,
}

impl FormulatedIlp {
    /// Decodes an ILP assignment back into an [`Implementation`].
    ///
    /// # Panics
    ///
    /// Panics if `values` does not cover the model's variables.
    #[must_use]
    pub fn decode(&self, values: &[f64]) -> Implementation {
        let mut imp = Implementation::new(self.num_ops);
        for &(var, copy, cycle, vendor, _) in &self.decode {
            if values[var.index()] > 0.5 {
                imp.assign(copy.op, copy.role, Assignment { cycle, vendor });
            }
        }
        imp
    }

    /// Encodes an implementation as a complete MIP start for this model,
    /// including consistent `ε`/`δ` values.
    ///
    /// Instance indices are assigned first-free per `(vendor, type, cycle)`
    /// so the symmetry-breaking order `ε_m ≥ ε_{m+1}` holds. Returns `None`
    /// if the implementation does not fit this formulation (e.g. more
    /// concurrent ops on one core than `|τ(t)|`).
    #[must_use]
    pub fn encode(&self, imp: &Implementation) -> Option<Vec<f64>> {
        use std::collections::HashMap;

        let mut values = vec![0.0; self.model.num_vars()];
        // First-free instance index per (vendor, type, cycle), so that
        // slot 0 fills before slot 1 and the symmetry order holds.
        let mut next_m: HashMap<(usize, usize, usize), usize> = HashMap::new();
        // Peak instance count per (vendor, type) drives ε and δ.
        let mut peak_inst: HashMap<(usize, usize), usize> = HashMap::new();

        for (copy, a) in imp.iter() {
            let t = self.type_of[copy.op.index()];
            let key = (a.vendor.index(), t.index(), a.cycle);
            let m = {
                let e = next_m.entry(key).or_insert(0);
                let m = *e;
                *e += 1;
                m
            };
            let var = self
                .decode
                .iter()
                .find(|&&(_, c, l, k, vm)| c == copy && l == a.cycle && k == a.vendor && vm == m)
                .map(|&(v, ..)| v)?;
            values[var.index()] = 1.0;
            let e = peak_inst.entry((a.vendor.index(), t.index())).or_insert(0);
            *e = (*e).max(m + 1);
        }

        for &(e, k, t, m) in &self.eps {
            if m < peak_inst.get(&(k.index(), t.index())).copied().unwrap_or(0) {
                values[e.index()] = 1.0;
            }
        }
        for &(d, k, t) in &self.delta {
            if peak_inst.get(&(k.index(), t.index())).copied().unwrap_or(0) > 0 {
                values[d.index()] = 1.0;
            }
        }
        Some(values)
    }

    /// Branching priorities for [`troy_ilp::SolveParams::branch_priority`]:
    /// license variables (δ) first — they carry the objective — then
    /// instance variables (ε), then the schedule binaries.
    #[must_use]
    pub fn branch_priorities(&self) -> Vec<i32> {
        let mut priority = vec![0i32; self.model.num_vars()];
        for &(e, ..) in &self.eps {
            priority[e.index()] = 1;
        }
        for &(d, ..) in &self.delta {
            priority[d.index()] = 2;
        }
        priority
    }
}

/// Builds the paper's ILP for a problem.
///
/// # Examples
///
/// ```
/// use troy_dfg::benchmarks;
/// use troyhls::{formulate, Catalog, FormulationOptions, Mode, SynthesisProblem};
///
/// let p = SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
///     .mode(Mode::DetectionOnly)
///     .detection_latency(4)
///     .build()?;
/// let ilp = formulate(&p, &FormulationOptions::default());
/// assert!(ilp.model.num_vars() > 0);
/// assert!(ilp.model.num_constraints() > 0);
/// # Ok::<(), troyhls::ProblemError>(())
/// ```
#[must_use]
pub fn formulate(problem: &SynthesisProblem, options: &FormulationOptions) -> FormulatedIlp {
    let dfg = problem.dfg();
    let catalog = problem.catalog();
    let det = problem.detection_latency();
    let total = problem.total_latency();
    let roles = Role::for_mode(problem.mode());

    let det_w = ScheduleWindows::compute(dfg, det).expect("validated");
    let rec_w = (problem.mode() == Mode::DetectionRecovery)
        .then(|| ScheduleWindows::compute(dfg, problem.recovery_latency()).expect("validated"));

    // Instance cap per type (the paper's |τ(t)|).
    let cap_for = |t: IpTypeId| -> usize {
        options.instances_per_vendor_type.unwrap_or_else(|| {
            let single = det_w.interval_bound(dfg, t, 1);
            // Detection runs two copies of everything.
            (2 * single).max(2)
        })
    };

    let mut model = Model::minimize();

    // H variables, windowed per role.
    let mut h: Vec<(VarId, OpCopy, usize, VendorId, usize)> = Vec::new();
    // Index: (copy, vendor) -> list of vars; (copy) -> list; used to build
    // constraints without rescanning.
    let window_of = |op: NodeId, role: Role| -> (usize, usize) {
        match role {
            Role::Nc | Role::Rc => (det_w.asap(op), det_w.alap(op)),
            Role::Recovery => {
                let w = rec_w.as_ref().expect("recovery mode");
                (det + w.asap(op), det + w.alap(op))
            }
        }
    };

    for op in dfg.node_ids() {
        let t = dfg.kind(op).ip_type();
        for &role in roles {
            let (lo, hi) = window_of(op, role);
            for l in lo..=hi {
                for k in catalog.vendors_for(t) {
                    for m in 0..cap_for(t) {
                        let var = model.binary(format!("H_{op}_{role}_{l}_{k}_{m}"));
                        h.push((var, OpCopy::new(op, role), l, k, m));
                    }
                }
            }
        }
    }

    // ε and δ variables.
    let mut eps: Vec<(VarId, VendorId, IpTypeId, usize)> = Vec::new();
    let mut delta: Vec<(VarId, VendorId, IpTypeId)> = Vec::new();
    for t in IpTypeId::all() {
        for k in catalog.vendors_for(t) {
            if dfg.node_ids().all(|o| dfg.kind(o).ip_type() != t) {
                continue;
            }
            let d = model.binary(format!("delta_{k}_{t}"));
            delta.push((d, k, t));
            for m in 0..cap_for(t) {
                let e = model.binary(format!("eps_{k}_{t}_{m}"));
                eps.push((e, k, t, m));
            }
        }
    }

    let vars_of_copy = |copy: OpCopy| -> Vec<(VarId, usize, VendorId)> {
        h.iter()
            .filter(|&&(_, c, ..)| c == copy)
            .map(|&(v, _, l, k, _)| (v, l, k))
            .collect()
    };

    // (3): each copy scheduled exactly once.
    for op in dfg.node_ids() {
        for &role in roles {
            let copy = OpCopy::new(op, role);
            let expr = LinExpr::sum(vars_of_copy(copy).into_iter().map(|(v, ..)| v));
            model.add_eq(format!("assign_{copy}"), expr, 1.0);
        }
    }

    // (4): dependencies, per role: Σ l·H_child − Σ l·H_parent ≥ 1.
    for (p, c) in dfg.edges() {
        for &role in roles {
            let mut expr = LinExpr::new();
            for (v, l, _) in vars_of_copy(OpCopy::new(c, role)) {
                expr.add_term(l as f64, v);
            }
            for (v, l, _) in vars_of_copy(OpCopy::new(p, role)) {
                expr.add_term(-(l as f64), v);
            }
            model.add_ge(format!("dep_{p}_{c}_{role}"), expr, 1.0);
        }
    }

    // (5)-(10): all diversity rules — for each constrained pair and vendor:
    // Σ H_a on k + Σ H_b on k ≤ 1.
    for dc in diversity_constraints(problem) {
        for k in catalog.vendors() {
            let mut expr = LinExpr::new();
            let mut any = false;
            for (v, _, vk) in vars_of_copy(dc.a) {
                if vk == k {
                    expr.add_term(1.0, v);
                    any = true;
                }
            }
            for (v, _, vk) in vars_of_copy(dc.b) {
                if vk == k {
                    expr.add_term(1.0, v);
                    any = true;
                }
            }
            if any {
                model.add_le(format!("div_{}_{}_{k}", dc.a, dc.b), expr, 1.0);
            }
        }
    }

    // Instance-usage linking. `h` rows carry (copy, l, k); m is implicit in
    // creation order — reconstruct it by counting.
    // Build per (k, t, m, l) sums.
    let mut per_slot: std::collections::BTreeMap<(usize, usize, usize, usize), Vec<VarId>> =
        std::collections::BTreeMap::new();
    {
        // Recreate m by iterating in the same creation order.
        let mut iter = h.iter();
        for op in dfg.node_ids() {
            let t = dfg.kind(op).ip_type();
            for &role in roles {
                let (lo, hi) = window_of(op, role);
                for l in lo..=hi {
                    for k in catalog.vendors_for(t) {
                        for m in 0..cap_for(t) {
                            let &(v, ..) = iter.next().expect("same iteration order");
                            per_slot
                                .entry((k.index(), t.index(), m, l))
                                .or_default()
                                .push(v);
                        }
                    }
                }
            }
        }
    }

    let z_big = (3 * dfg.len() * total) as f64 + 1.0;
    for &(e, k, t, m) in &eps {
        if options.faithful_big_z {
            // (11): Σ H / Z ≤ ε ≤ Σ H, plus (16) per cycle.
            let mut all = LinExpr::new();
            for l in 1..=total {
                if let Some(vs) = per_slot.get(&(k.index(), t.index(), m, l)) {
                    for &v in vs {
                        all.add_term(1.0, v);
                    }
                    let per_cycle = LinExpr::sum(vs.iter().copied());
                    model.add_le(format!("excl_{k}_{t}_{m}_{l}"), per_cycle, 1.0);
                }
            }
            let mut lhs = all.clone() * (1.0 / z_big);
            lhs.add_term(-1.0, e);
            model.add_le(format!("eps_lo_{k}_{t}_{m}"), lhs, 0.0);
            let mut rhs = LinExpr::term(1.0, e);
            rhs += all * -1.0;
            model.add_le(format!("eps_hi_{k}_{t}_{m}"), rhs, 0.0);
        } else {
            // Tight: per cycle, Σ H ≤ ε — subsumes (16) and (11)'s lower
            // half; add ε ≤ Σ_l Σ H for the upper half.
            let mut all = LinExpr::new();
            for l in 1..=total {
                if let Some(vs) = per_slot.get(&(k.index(), t.index(), m, l)) {
                    let mut per_cycle = LinExpr::sum(vs.iter().copied());
                    for &v in vs {
                        all.add_term(1.0, v);
                    }
                    per_cycle.add_term(-1.0, e);
                    model.add_le(format!("use_{k}_{t}_{m}_{l}"), per_cycle, 0.0);
                }
            }
            let mut upper = LinExpr::term(1.0, e);
            upper += all * -1.0;
            model.add_le(format!("eps_hi_{k}_{t}_{m}"), upper, 0.0);
        }
    }

    // Symmetry breaking between interchangeable instances: ε_m ≥ ε_{m+1}.
    for pair in eps.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        if a.1 == b.1 && a.2 == b.2 && a.3 + 1 == b.3 {
            let mut expr = LinExpr::term(1.0, b.0);
            expr.add_term(-1.0, a.0);
            model.add_le(format!("sym_{}_{}_{}", a.1, a.2, b.3), expr, 0.0);
        }
    }

    // (12): δ links — tight (ε ≤ δ) plus δ ≤ Σ ε.
    for &(d, k, t) in &delta {
        let mut sum = LinExpr::new();
        for &(e, ek, et, _) in &eps {
            if ek == k && et == t {
                if options.faithful_big_z {
                    sum.add_term(1.0, e);
                } else {
                    let mut expr = LinExpr::term(1.0, e);
                    expr.add_term(-1.0, d);
                    model.add_le(format!("lic_{k}_{t}"), expr, 0.0);
                    sum.add_term(1.0, e);
                }
            }
        }
        if options.faithful_big_z {
            let mut lhs = sum.clone() * (1.0 / z_big);
            lhs.add_term(-1.0, d);
            model.add_le(format!("delta_lo_{k}_{t}"), lhs, 0.0);
        }
        let mut upper = LinExpr::term(1.0, d);
        upper += sum * -1.0;
        model.add_le(format!("delta_hi_{k}_{t}"), upper, 0.0);
    }

    // (13): area.
    let mut area = LinExpr::new();
    for &(e, k, t, _) in &eps {
        let off = catalog.offering(k, t).expect("eps only for offerings");
        area.add_term(off.area as f64, e);
    }
    if problem.area_limit() < u64::MAX {
        model.add_le("area", area, problem.area_limit() as f64);
    }

    // (17): objective.
    let mut obj = LinExpr::new();
    for &(d, k, t) in &delta {
        let off = catalog.offering(k, t).expect("delta only for offerings");
        obj.add_term(off.cost as f64, d);
    }
    model.set_objective(obj);

    let type_of: Vec<IpTypeId> = dfg.node_ids().map(|o| dfg.kind(o).ip_type()).collect();
    FormulatedIlp {
        model,
        decode: h,
        eps,
        delta,
        type_of,
        num_ops: dfg.len(),
    }
}

/// Synthesizer backed by the paper's ILP formulation and the `troy-ilp`
/// branch & bound.
///
/// Practical on the small benchmarks; larger instances exceed the LP sizes
/// this pure-Rust simplex handles comfortably — exactly mirroring the
/// paper, where Lingo also ran out of its hour on the big rows. Use
/// [`crate::ExactSolver`] for production runs.
#[derive(Debug, Clone, Default)]
pub struct IlpSolver {
    options: FormulationOptions,
}

impl IlpSolver {
    /// Creates the solver with default formulation options.
    #[must_use]
    pub fn new() -> Self {
        IlpSolver::default()
    }

    /// Creates the solver with explicit formulation options.
    #[must_use]
    pub fn with_options(options: FormulationOptions) -> Self {
        IlpSolver { options }
    }
}

impl Synthesizer for IlpSolver {
    fn name(&self) -> &'static str {
        "ilp"
    }

    fn synthesize(
        &self,
        problem: &SynthesisProblem,
        options: &SolveOptions,
    ) -> Result<Synthesis, SynthesisError> {
        let start = Instant::now();
        let ilp = formulate(problem, &self.options);
        // A greedy warm start lets the branch & bound prune against a
        // near-optimal incumbent from node one.
        let mip_start = crate::heuristic::GreedySolver::new()
            .synthesize(problem, &SolveOptions::quick())
            .ok()
            .and_then(|s| ilp.encode(&s.implementation));
        let params = SolveParams {
            time_limit: Some(options.time_limit.saturating_sub(start.elapsed())),
            integral_objective: true,
            mip_start,
            branch_priority: ilp.branch_priorities(),
            cancel: options.cancel.clone(),
            ..SolveParams::default()
        };
        let result = ilp.model.solve(&params);
        match result.status() {
            SolveStatus::Infeasible => Err(SynthesisError::Infeasible),
            SolveStatus::Unknown => Err(SynthesisError::BudgetExhausted),
            status @ (SolveStatus::Optimal | SolveStatus::Feasible) => {
                let values = result.values().expect("feasible has values");
                let imp = ilp.decode(values);
                let cost = imp.license_cost(problem);
                Ok(Synthesis {
                    implementation: imp,
                    cost,
                    proven_optimal: status == SolveStatus::Optimal,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::exact::ExactSolver;
    use crate::validate::validate;
    use std::time::Duration;
    use troy_dfg::benchmarks;

    fn polynom_detection() -> SynthesisProblem {
        SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
            .mode(Mode::DetectionOnly)
            .detection_latency(4)
            .area_limit(40_000)
            .build()
            .unwrap()
    }

    #[test]
    fn formulation_size_is_sane() {
        let p = polynom_detection();
        let ilp = formulate(&p, &FormulationOptions::default());
        // 5 ops x 2 roles, windows, 4 vendors: a few hundred binaries.
        assert!(ilp.model.num_vars() > 100);
        assert!(ilp.model.num_vars() < 2_000);
        assert!(ilp.model.num_constraints() > 50);
    }

    #[test]
    fn ilp_matches_exact_on_polynom_detection() {
        let p = polynom_detection();
        let opts = SolveOptions {
            time_limit: Duration::from_secs(60),
            ..SolveOptions::default()
        };
        let e = ExactSolver::new().synthesize(&p, &opts).unwrap();
        let i = IlpSolver::new().synthesize(&p, &opts).unwrap();
        let vs = validate(&p, &i.implementation);
        assert!(vs.is_empty(), "{vs:?}");
        assert_eq!(i.cost, e.cost, "ILP {} vs exact {}", i.cost, e.cost);
    }

    #[test]
    fn decoded_solution_validates() {
        let p = polynom_detection();
        let opts = SolveOptions {
            time_limit: Duration::from_secs(60),
            ..SolveOptions::default()
        };
        let s = IlpSolver::new().synthesize(&p, &opts).unwrap();
        assert!(validate(&p, &s.implementation).is_empty());
        assert!(s.implementation.area(&p) <= 40_000);
    }

    #[test]
    fn faithful_big_z_variant_builds_and_solves() {
        let p = polynom_detection();
        let solver = IlpSolver::with_options(FormulationOptions {
            faithful_big_z: true,
            ..FormulationOptions::default()
        });
        let opts = SolveOptions {
            time_limit: Duration::from_secs(45),
            ..SolveOptions::default()
        };
        match solver.synthesize(&p, &opts) {
            Ok(s) => {
                assert!(validate(&p, &s.implementation).is_empty());
            }
            Err(SynthesisError::BudgetExhausted) => {
                // The weak relaxation may legitimately time out; the tight
                // default must not (covered above).
            }
            Err(e) => panic!("unexpected: {e}"),
        }
    }

    #[test]
    fn instance_cap_is_respected() {
        let p = polynom_detection();
        let opts = FormulationOptions {
            instances_per_vendor_type: Some(1),
            ..FormulationOptions::default()
        };
        let ilp_small = formulate(&p, &opts);
        let ilp_default = formulate(&p, &FormulationOptions::default());
        assert!(ilp_small.model.num_vars() < ilp_default.model.num_vars());
    }

    #[test]
    fn encode_round_trips_an_exact_solution() {
        let p = polynom_detection();
        let e = ExactSolver::new()
            .synthesize(&p, &SolveOptions::quick())
            .unwrap();
        let ilp = formulate(&p, &FormulationOptions::default());
        let values = ilp.encode(&e.implementation).expect("fits");
        let decoded = ilp.decode(&values);
        assert_eq!(decoded, e.implementation);
    }
}
