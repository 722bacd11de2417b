//! The exact domain solver.
//!
//! The objective (total license cost) depends only on *which* licenses are
//! bought, not on the schedule. The solver therefore searches the space of
//! license subsets in nondecreasing cost order (a best-first enumeration
//! over a canonical subset lattice) and, for each candidate subset, runs a
//! complete backtracking scheduler/binder. The first subset that admits a
//! valid design is cost-optimal, provided no cheaper subset's feasibility
//! check was cut short by the budget — in that case the result is flagged
//! best-effort (`proven_optimal = false`), exactly like the `*` rows in the
//! paper's tables.
//!
//! Each subset's feasibility check first refutes or finds a vendor
//! coloring that satisfies the diversity rules, ignoring cycles. It then
//! tries, in order: a first descent capped at four nodes per copy; a
//! descent with every copy's vendor pinned to that coloring, searching
//! only the cycles; a burst of randomized restarts; and an exhaustive
//! pass with the rest of the node budget. A pinned dead end refutes one
//! coloring, not the subset, so only a pinned success counts.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::time::Instant;

use troy_dfg::{IpTypeId, NodeId};

use crate::catalog::{Catalog, License, VendorId};
use crate::implementation::{Assignment, Implementation};
use crate::problem::SynthesisProblem;
use crate::rules::{diversity_constraints, min_vendors_per_type, OpCopy, Role};
use crate::solver::{SolveOptions, Synthesis, SynthesisError, Synthesizer};

/// Exact branch-and-bound synthesis (see the module docs).
///
/// # Examples
///
/// Reproduce the paper's Figure 5 optimum ($4160):
///
/// ```
/// use troy_dfg::benchmarks;
/// use troyhls::{Catalog, ExactSolver, Mode, SolveOptions, SynthesisProblem, Synthesizer};
///
/// let problem = SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
///     .mode(Mode::DetectionRecovery)
///     .detection_latency(4)
///     .recovery_latency(3)
///     .area_limit(22_000)
///     .build()?;
/// let result = ExactSolver::new()
///     .synthesize(&problem, &SolveOptions::default())
///     .expect("the motivational example is feasible");
/// assert_eq!(result.cost, 4160);
/// assert!(result.proven_optimal);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExactSolver {
    _private: (),
}

impl ExactSolver {
    /// Creates the solver.
    #[must_use]
    pub fn new() -> Self {
        ExactSolver::default()
    }

    /// [`Synthesizer::synthesize`], plus the work the search did. The
    /// counts depend only on the problem and `options.node_limit`, never
    /// on timing (unless the time limit cuts the solve short), so they
    /// repeat exactly from run to run and machine to machine.
    ///
    /// # Errors
    ///
    /// As [`Synthesizer::synthesize`].
    pub fn synthesize_counted(
        &self,
        problem: &SynthesisProblem,
        options: &SolveOptions,
    ) -> (Result<Synthesis, SynthesisError>, ExactWork) {
        let mut work = ExactWork::default();
        let result = solve(problem, options, &mut work);
        (result, work)
    }
}

/// Deterministic work counters of one exact solve (see
/// [`ExactSolver::synthesize_counted`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactWork {
    /// License subsets that reached a feasibility check (past the area
    /// prune).
    pub subsets: usize,
    /// Search nodes visited: every descent's nodes plus the vendor
    /// coloring pre-check's.
    pub nodes: usize,
    /// License-lattice entries materialized: the per-type vendor subsets
    /// the walk's frontier reached, plus those that share a cost band
    /// with them.
    pub choices: usize,
}

impl Synthesizer for ExactSolver {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn synthesize(
        &self,
        problem: &SynthesisProblem,
        options: &SolveOptions,
    ) -> Result<Synthesis, SynthesisError> {
        self.synthesize_counted(problem, options).0
    }
}

/// The lattice walk behind [`ExactSolver::synthesize_counted`].
fn solve(
    problem: &SynthesisProblem,
    options: &SolveOptions,
    work: &mut ExactWork,
) -> Result<Synthesis, SynthesisError> {
    let start = Instant::now();
    let ctx = SearchContext::new(problem);
    let catalog = problem.catalog();

    // Feasibility depends only on the *per-type vendor sets*, and the
    // objective is additive across types. Each needed type's vendor
    // subsets meeting the minimum-diversity bound form a list sorted by
    // cost, materialized lazily; the per-type lists are merged in global
    // cost order with a heap over index tuples.
    let mut lattices: Vec<TypeLattice> = Vec::new();
    for (ip_type, need) in min_vendors_per_type(problem) {
        let lattice = TypeLattice::new(catalog, ip_type, need);
        if lattice.offers.len() < need {
            return Err(SynthesisError::Infeasible);
        }
        lattices.push(lattice);
    }
    // The walk reads rank `i` of a type only after rank `i - 1`.
    let choice = |lattices: &mut [TypeLattice], d: usize, rank: u32, work: &mut ExactWork| {
        lattices[d]
            .get(rank as usize, work, || options.out_of_time(start))
            .map_err(|TimedOut| SynthesisError::BudgetExhausted)
    };

    let dims = lattices.len();
    let mut heap: BinaryHeap<Reverse<(u64, LatticeIndex)>> = BinaryHeap::new();
    let mut seen: HashSet<LatticeIndex> = HashSet::new();
    let root: LatticeIndex = [0; IpTypeId::COUNT];
    let mut root_cost = 0;
    for d in 0..dims {
        root_cost += choice(&mut lattices, d, 0, work)?
            .expect("a type with enough offers has a cheapest subset")
            .cost;
    }
    heap.push(Reverse((root_cost, root)));
    seen.insert(root);
    let mut uncertain = false;

    while let Some(Reverse((cost, idx))) = heap.pop() {
        if options.out_of_time(start) {
            return Err(SynthesisError::BudgetExhausted);
        }
        // Expand neighbors (increment one coordinate each).
        for d in 0..dims {
            let Some(next) = choice(&mut lattices, d, idx[d] + 1, work)? else {
                continue;
            };
            let mut child = idx;
            child[d] += 1;
            if seen.insert(child) {
                let here = lattices[d].choices[idx[d] as usize].cost;
                heap.push(Reverse((cost - here + next.cost, child)));
            }
        }

        // Area lower bound: any schedule instantiates at least
        // `min_instances[t]` cores of each type, each no smaller than
        // the subset's cheapest-area offering.
        let choices = || {
            idx.iter()
                .zip(&lattices)
                .map(|(&i, l)| (l, l.choices[i as usize]))
        };
        let area_lb: u64 = choices()
            .map(|(_, c)| c.min_area * ctx.min_instances[c.ip_type.index()] as u64)
            .sum();
        if area_lb > problem.area_limit() {
            continue;
        }

        let licensed: Vec<License> = choices().flat_map(|(l, c)| l.licenses(c)).collect();
        match ctx.feasible(problem, &licensed, options.node_limit, start, options, work) {
            Feasibility::Feasible(imp) => {
                debug_assert_eq!(imp.license_cost(problem), cost);
                return Ok(Synthesis {
                    implementation: imp,
                    cost,
                    proven_optimal: !uncertain,
                });
            }
            Feasibility::Infeasible => {}
            Feasibility::Unknown => uncertain = true,
            Feasibility::TimedOut => return Err(SynthesisError::BudgetExhausted),
        }
    }

    if uncertain {
        Err(SynthesisError::BudgetExhausted)
    } else {
        Err(SynthesisError::Infeasible)
    }
}

/// Crate-internal find-only facade over the backtracking checker, reused by
/// the greedy heuristic: "does this license set admit a valid design, and
/// if so, give me one".
pub(crate) struct FeasibilityChecker<'a> {
    problem: &'a SynthesisProblem,
    ctx: SearchContext,
}

impl<'a> FeasibilityChecker<'a> {
    pub(crate) fn new(problem: &'a SynthesisProblem) -> Self {
        FeasibilityChecker {
            problem,
            ctx: SearchContext::new(problem),
        }
    }

    pub(crate) fn find(
        &self,
        licensed: &[License],
        node_limit: usize,
        start: Instant,
        options: &SolveOptions,
    ) -> Option<Implementation> {
        match self.ctx.feasible(
            self.problem,
            licensed,
            node_limit,
            start,
            options,
            &mut ExactWork::default(),
        ) {
            Feasibility::Feasible(imp) => Some(imp),
            _ => None,
        }
    }
}

/// One candidate vendor subset for a single IP type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TypeChoice {
    cost: u64,
    min_area: u64,
    /// Bit `i` set: the `i`-th vendor of [`Catalog::vendors_for`] is bought.
    mask: u64,
    ip_type: IpTypeId,
}

/// One vendor's offering of a lattice's type.
#[derive(Debug, Clone, Copy)]
struct Offer {
    cost: u64,
    area: u64,
    /// The vendor's bit in [`TypeChoice::mask`].
    bit: u32,
}

/// The deadline passed while a lattice was being materialized.
struct TimedOut;

/// The vendor subsets of one IP type that meet its diversity bound, in
/// `(cost, mask)` order — what a stable sort by cost over ascending masks
/// gives — materialized only as far as the walk reads.
///
/// `choices` always holds every subset costing less than `covered`,
/// sorted, so its ranks are final. Reading past them raises `covered`
/// by a step that doubles each time and appends the subsets of the new
/// cost band, found by a depth-first search over the vendors in cost
/// order that prunes every branch whose cheapest completion is past the
/// band.
#[derive(Debug)]
struct TypeLattice {
    ip_type: IpTypeId,
    need: usize,
    /// The vendors selling the type, in [`Catalog::vendors_for`] order.
    vendors: Vec<VendorId>,
    /// Their offers, cheapest first (ties by bit).
    offers: Vec<Offer>,
    /// `prefix[i]`: the total cost of `offers[..i]`.
    prefix: Vec<u64>,
    choices: Vec<TypeChoice>,
    /// Every subset costing less than this is in `choices`.
    covered: u64,
    step: u64,
}

impl TypeLattice {
    fn new(catalog: &Catalog, ip_type: IpTypeId, need: usize) -> Self {
        let vendors: Vec<VendorId> = catalog.vendors_for(ip_type).collect();
        let mut offers: Vec<Offer> = vendors
            .iter()
            .enumerate()
            .map(|(bit, &v)| {
                let off = catalog.offering(v, ip_type).expect("listed vendor");
                Offer {
                    cost: off.cost,
                    area: off.area,
                    bit: bit as u32,
                }
            })
            .collect();
        offers.sort_by_key(|o| (o.cost, o.bit));
        let prefix = std::iter::once(0)
            .chain(offers.iter().scan(0, |sum, o| {
                *sum += o.cost;
                Some(*sum)
            }))
            .collect();
        // A first band an eighth of the cheapest offer wide: a few
        // single-vendor swaps away from the cheapest subset.
        let step = offers.first().map_or(1, |o| (o.cost / 8).max(1));
        TypeLattice {
            ip_type,
            need,
            vendors,
            offers,
            prefix,
            choices: Vec::new(),
            covered: 0,
            step,
        }
    }

    /// The choice at `rank`, or `None` past the last one. Materializes
    /// cost bands until `rank` is covered, counting each entry into
    /// `work.choices` and polling `out_of_time` as it searches.
    fn get(
        &mut self,
        rank: usize,
        work: &mut ExactWork,
        out_of_time: impl Fn() -> bool,
    ) -> Result<Option<TypeChoice>, TimedOut> {
        // The dearest subset buys every vendor.
        let total = self.prefix[self.offers.len()];
        while rank >= self.choices.len() && self.covered <= total && self.offers.len() >= self.need
        {
            // The first band starts at the cheapest subset's cost.
            let floor = self.covered.max(self.prefix[self.need.max(1)]);
            let upto = floor.saturating_add(self.step);
            self.step = self.step.saturating_mul(2);
            let before = self.choices.len();
            let mut visits = 0usize;
            self.collect(
                0,
                (0, 0, u64::MAX, 0),
                (self.covered, upto),
                &mut visits,
                &out_of_time,
            )?;
            self.choices[before..].sort_unstable_by_key(|c| (c.cost, c.mask));
            work.choices += self.choices.len() - before;
            self.covered = upto;
        }
        Ok(self.choices.get(rank).copied())
    }

    /// Pushes every subset extending `(mask, cost, min_area, count)` by
    /// offers from `from` on whose cost lies in `band` (`lo..hi`) and
    /// that has at least `need` vendors.
    fn collect(
        &mut self,
        from: usize,
        (mask, cost, min_area, count): (u64, u64, u64, usize),
        band: (u64, u64),
        visits: &mut usize,
        out_of_time: &impl Fn() -> bool,
    ) -> Result<(), TimedOut> {
        let (lo, hi) = band;
        let k = self.offers.len();
        for j in from..k {
            *visits += 1;
            if *visits % 1024 == 0 && out_of_time() {
                return Err(TimedOut);
            }
            // The cheapest subset through offer `j` adds the next
            // `more` offers; sliding `j` right only makes it dearer.
            let more = self.need.saturating_sub(count + 1);
            if j + 1 + more > k {
                break;
            }
            let with = cost + self.offers[j].cost;
            if with + (self.prefix[j + 1 + more] - self.prefix[j + 1]) >= hi {
                break;
            }
            let offer = self.offers[j];
            let next = (
                mask | 1 << offer.bit,
                with,
                min_area.min(offer.area),
                count + 1,
            );
            if more == 0 && with >= lo {
                self.choices.push(TypeChoice {
                    cost: with,
                    min_area: next.2,
                    mask: next.0,
                    ip_type: self.ip_type,
                });
            }
            self.collect(j + 1, next, band, visits, out_of_time)?;
        }
        Ok(())
    }

    /// The licenses `choice` buys, in vendor index order.
    fn licenses(&self, choice: TypeChoice) -> impl Iterator<Item = License> + '_ {
        self.vendors
            .iter()
            .enumerate()
            .filter(move |&(i, _)| choice.mask & (1 << i) != 0)
            .map(move |(_, &vendor)| License {
                vendor,
                ip_type: self.ip_type,
            })
    }
}

/// A point of the license lattice: one rank per needed type into its
/// [`TypeLattice`] (unused trailing slots stay 0).
type LatticeIndex = [u32; IpTypeId::COUNT];

enum Feasibility {
    Feasible(Implementation),
    Infeasible,
    /// Node budget exhausted — completeness lost for this subset.
    Unknown,
    /// Global wall-clock expired.
    TimedOut,
}

/// Outcome of [`SearchContext::vendor_coloring`].
enum Coloring {
    /// A diversity-respecting vendor per copy, indexed by copy index.
    Found(Vec<Option<VendorId>>),
    /// No vendor coloring exists: the subset is infeasible.
    Impossible,
    /// The node budget ran out first.
    Unknown,
}

/// Copy index: `role.index() * n + op.index()`.
fn cidx(n: usize, c: OpCopy) -> usize {
    c.role.index() * n + c.op.index()
}

/// Static, problem-level search data shared across all subsets.
struct SearchContext {
    n: usize,
    /// Copies in assignment order: detection copies in topo order
    /// (NC and RC interleaved per op), then recovery copies in topo order.
    order: Vec<OpCopy>,
    /// Diversity adjacency: for each copy, the copies it must differ from.
    diff: Vec<Vec<usize>>,
    /// Schedule window per copy (global 1-based cycles).
    window: Vec<(usize, usize)>,
    /// Same-role parents per copy.
    parents: Vec<Vec<usize>>,
    /// IP type per op.
    op_type: Vec<IpTypeId>,
    /// IP types present in the DFG.
    needed_types: Vec<IpTypeId>,
    /// Minimum total instances per type over the whole design (area prune).
    min_instances: [usize; IpTypeId::COUNT],
    /// `area[v * IpTypeId::COUNT + t]`: the area of vendor `v`'s core of
    /// type `t`, `u64::MAX` where it sells none.
    area: Vec<u64>,
    /// Cycles in the whole schedule.
    total_cycles: usize,
}

impl SearchContext {
    fn new(problem: &SynthesisProblem) -> Self {
        let dfg = problem.dfg();
        let n = dfg.len();
        let det = problem.detection_latency();
        let roles = Role::for_mode(problem.mode());

        let det_windows = problem.detection_windows();
        let rec_windows = problem.recovery_windows();

        // All copies of one op are assigned back-to-back: the recovery
        // rebind rule (R must avoid both detection vendors of its op) then
        // fails immediately next to the detection choices that caused it,
        // instead of deep below them in the chronological stack.
        let mut order = Vec::with_capacity(n * roles.len());
        for &op in problem.topo_order() {
            order.push(OpCopy::new(op, Role::Nc));
            order.push(OpCopy::new(op, Role::Rc));
            if rec_windows.is_some() {
                order.push(OpCopy::new(op, Role::Recovery));
            }
        }

        let total_copies = 3 * n;
        let mut diff = vec![Vec::new(); total_copies];
        for dc in diversity_constraints(problem) {
            let (a, b) = (cidx(n, dc.a), cidx(n, dc.b));
            diff[a].push(b);
            diff[b].push(a);
        }
        for d in &mut diff {
            d.sort_unstable();
            d.dedup();
        }

        let mut window = vec![(0, 0); total_copies];
        let mut parents = vec![Vec::new(); total_copies];
        for op in dfg.node_ids() {
            for &role in roles {
                let c = OpCopy::new(op, role);
                window[cidx(n, c)] = match role {
                    Role::Nc | Role::Rc => (det_windows.asap(op), det_windows.alap(op)),
                    Role::Recovery => {
                        let w = rec_windows.expect("recovery windows exist");
                        (det + w.asap(op), det + w.alap(op))
                    }
                };
                parents[cidx(n, c)] = dfg
                    .preds(op)
                    .iter()
                    .map(|&p| cidx(n, OpCopy::new(p, role)))
                    .collect();
            }
        }

        let op_type: Vec<IpTypeId> = dfg.node_ids().map(|o| dfg.kind(o).ip_type()).collect();
        let mut needed_types: Vec<IpTypeId> = op_type.clone();
        needed_types.sort_unstable();
        needed_types.dedup();

        // Minimum physical instances per type: the detection phase schedules
        // every op twice inside λ_det, the recovery phase once in λ_rec.
        let mut min_instances = [0usize; IpTypeId::COUNT];
        for &t in &needed_types {
            let det_need = det_windows.interval_bound(dfg, t, 2);
            let rec_need = rec_windows.map_or(0, |w| w.interval_bound(dfg, t, 1));
            min_instances[t.index()] = det_need.max(rec_need);
        }

        let catalog = problem.catalog();
        let num_vendors = catalog.num_vendors();
        let mut area = vec![u64::MAX; num_vendors * IpTypeId::COUNT];
        for v in catalog.vendors() {
            for t in IpTypeId::all() {
                if let Some(o) = catalog.offering(v, t) {
                    area[v.index() * IpTypeId::COUNT + t.index()] = o.area;
                }
            }
        }

        SearchContext {
            n,
            order,
            diff,
            window,
            parents,
            op_type,
            needed_types,
            min_instances,
            area,
            total_cycles: problem.total_latency(),
        }
    }

    /// Area of one core of `(v, t)`, `u64::MAX` if `v` sells none.
    fn area_of(&self, v: VendorId, t: IpTypeId) -> u64 {
        self.area[v.index() * IpTypeId::COUNT + t.index()]
    }

    /// Feasibility check for one license subset. The attempts, in order:
    ///
    /// 1. a first descent capped at four nodes per copy — enough for a
    ///    greedy descent with little backtracking;
    /// 2. a *pinned* descent: every copy's vendor is fixed to the coloring
    ///    [`Self::vendor_coloring`] found, so only the cycles are searched;
    /// 3. a burst of randomized-restart descents;
    /// 4. an exhaustive backtracking pass with the rest of `node_limit`.
    ///
    /// `Exhausted` from any unpinned attempt proves the subset infeasible:
    /// randomization only reorders the candidates. The pinned descent
    /// refutes one coloring, not the subset, so only its `Found` counts.
    fn feasible(
        &self,
        problem: &SynthesisProblem,
        licensed: &[License],
        node_limit: usize,
        start: Instant,
        options: &SolveOptions,
        work: &mut ExactWork,
    ) -> Feasibility {
        work.subsets += 1;
        let Some((vendors_of_type, min_area)) = self.subset(licensed) else {
            return Feasibility::Infeasible;
        };

        // Vendor-colorability pre-check: the diversity rules are
        // cycle-independent, so an uncolorable subset is infeasible no
        // matter the schedule — and refuting the coloring alone avoids
        // multiplying the conflict by every cycle permutation.
        let coloring = match self.vendor_coloring(&vendors_of_type, node_limit, work) {
            Coloring::Impossible => return Feasibility::Infeasible,
            Coloring::Found(color) => Some(color),
            Coloring::Unknown => None,
        };
        let pin = coloring.as_deref();

        // Restart schedule: quick probes find feasible schedules on easy
        // subsets; the final exhaustive pass proves infeasibility (or runs
        // out of budget -> Unknown). The budgets sum to `node_limit`,
        // except that the exhaustive pass gets at least one probe's worth.
        let first_budget = (4 * self.order.len()).min(node_limit);
        let pinned_budget = pin.map_or(0, |_| node_limit.min(20_000));
        let probe_budget = (node_limit / 20).clamp(500, 20_000);
        let probes = 6;
        let exhaustive_budget = node_limit
            .saturating_sub(first_budget + pinned_budget + probe_budget * probes)
            .max(probe_budget);
        // (budget, rng seed, pinned coloring)
        let mut schedule = vec![(first_budget, 0, None)];
        if pin.is_some() {
            schedule.push((pinned_budget, u64::MAX, pin));
        }
        schedule.extend((0..probes as u64).map(|seed| (probe_budget, seed, None)));
        schedule.push((exhaustive_budget, u64::MAX, None));

        // One state for every attempt: each descent resets it in place.
        let mut state = SearchState::new(self, problem, &vendors_of_type);
        for (attempt, &(budget, seed, pin)) in schedule.iter().enumerate() {
            let exhaustive = attempt + 1 == schedule.len();
            let r = self.descend(
                problem.area_limit(),
                &mut state,
                &vendors_of_type,
                &min_area,
                budget,
                seed,
                pin,
                start,
                options,
            );
            work.nodes += state.nodes;
            match r {
                SearchResult::Found => return Feasibility::Feasible(self.implementation(&state)),
                // A pinned descent refutes only its one coloring.
                SearchResult::Exhausted | SearchResult::NodeBudget if pin.is_some() => {}
                SearchResult::Exhausted => return Feasibility::Infeasible,
                SearchResult::NodeBudget => {
                    if exhaustive {
                        return Feasibility::Unknown;
                    }
                }
                SearchResult::TimedOut => return Feasibility::TimedOut,
            }
        }
        Feasibility::Unknown
    }

    /// The licensed vendors per type and the cheapest instantiable area per
    /// type (for the in-search bound); `None` if a needed type has no
    /// licensed vendor.
    fn subset(&self, licensed: &[License]) -> Option<(Vec<Vec<VendorId>>, [u64; IpTypeId::COUNT])> {
        let mut vendors_of_type: Vec<Vec<VendorId>> = vec![Vec::new(); IpTypeId::COUNT];
        for l in licensed {
            vendors_of_type[l.ip_type.index()].push(l.vendor);
        }
        let mut min_area = [u64::MAX; IpTypeId::COUNT];
        for &t in &self.needed_types {
            if vendors_of_type[t.index()].is_empty() {
                return None;
            }
            for &v in &vendors_of_type[t.index()] {
                min_area[t.index()] = min_area[t.index()].min(self.area_of(v, t));
            }
        }
        Some((vendors_of_type, min_area))
    }

    /// One backtracking descent with `budget` nodes from a freshly reset
    /// `state`. `pin`, when given, fixes every copy's vendor to that
    /// coloring. On `Found` the design is left in `state`.
    #[allow(clippy::too_many_arguments)]
    fn descend(
        &self,
        area_limit: u64,
        state: &mut SearchState,
        vendors_of_type: &[Vec<VendorId>],
        min_area: &[u64; IpTypeId::COUNT],
        budget: usize,
        seed: u64,
        pin: Option<&[Option<VendorId>]>,
        start: Instant,
        options: &SolveOptions,
    ) -> SearchResult {
        state.reset(self, vendors_of_type, seed);
        if let Some(coloring) = pin {
            state.pin(self, coloring);
        }
        self.search(
            area_limit,
            vendors_of_type,
            state,
            0,
            budget,
            min_area,
            start,
            options,
        )
    }

    /// Reads the design out of a search state that reached `Found`.
    fn implementation(&self, state: &SearchState) -> Implementation {
        let mut imp = Implementation::new(self.n);
        for (i, slot) in state.assignment.iter().enumerate() {
            if let Some((cycle, vendor)) = slot {
                let role = match i / self.n {
                    0 => Role::Nc,
                    1 => Role::Rc,
                    _ => Role::Recovery,
                };
                imp.assign(
                    NodeId::new(i % self.n),
                    role,
                    Assignment {
                        cycle: *cycle,
                        vendor: *vendor,
                    },
                );
            }
        }
        imp
    }

    /// Cycle-free backtracking over vendor assignments only: a valid vendor
    /// per copy (indexed by copy index), a proof that none exists, or
    /// `Unknown` when the node budget ran out. Adds its nodes to `work`.
    fn vendor_coloring(
        &self,
        vendors_of_type: &[Vec<VendorId>],
        node_limit: usize,
        work: &mut ExactWork,
    ) -> Coloring {
        let copies = self.order.len();
        let mut color: Vec<Option<VendorId>> = vec![None; 3 * self.n];
        let mut nodes = 0usize;

        fn go(
            ctx: &SearchContext,
            vendors_of_type: &[Vec<VendorId>],
            color: &mut Vec<Option<VendorId>>,
            depth: usize,
            copies: usize,
            nodes: &mut usize,
            node_limit: usize,
        ) -> Option<bool> {
            if depth == copies {
                return Some(true);
            }
            *nodes += 1;
            if *nodes > node_limit {
                return None;
            }
            let ci = cidx(ctx.n, ctx.order[depth]);
            let t = ctx.op_type[ctx.order[depth].op.index()];
            let mut forbidden = 0u64;
            for &nb in &ctx.diff[ci] {
                if let Some(v) = color[nb] {
                    forbidden |= 1 << v.index();
                }
            }
            for &v in &vendors_of_type[t.index()] {
                if forbidden & (1 << v.index()) != 0 {
                    continue;
                }
                color[ci] = Some(v);
                match go(
                    ctx,
                    vendors_of_type,
                    color,
                    depth + 1,
                    copies,
                    nodes,
                    node_limit,
                ) {
                    Some(false) => {}
                    other => return other,
                }
            }
            color[ci] = None;
            Some(false)
        }

        let colored = go(
            self,
            vendors_of_type,
            &mut color,
            0,
            copies,
            &mut nodes,
            node_limit,
        );
        work.nodes += nodes;
        match colored {
            Some(true) => Coloring::Found(color),
            Some(false) => Coloring::Impossible,
            None => Coloring::Unknown,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn search(
        &self,
        area_limit: u64,
        vendors_of_type: &[Vec<VendorId>],
        state: &mut SearchState,
        depth: usize,
        node_limit: usize,
        min_area: &[u64; IpTypeId::COUNT],
        start: Instant,
        options: &SolveOptions,
    ) -> SearchResult {
        if depth == self.order.len() {
            return SearchResult::Found;
        }
        state.nodes += 1;
        if state.nodes > node_limit {
            return SearchResult::NodeBudget;
        }
        if state.nodes % 4096 == 0 && options.out_of_time(start) {
            return SearchResult::TimedOut;
        }

        let copy = self.order[depth];
        let ci = cidx(self.n, copy);
        let t = self.op_type[copy.op.index()];

        // Cycle window tightened by already-assigned same-role parents.
        let (mut lo, hi) = self.window[ci];
        for &p in &self.parents[ci] {
            if let Some((pc, _)) = state.assignment[p] {
                lo = lo.max(pc + 1);
            }
        }
        if lo > hi {
            return SearchResult::Exhausted;
        }

        // The area the copies after this one still force depends only on
        // whether this copy adds an instance.
        let rest_if_kept = state.remaining_area_bound(self, t, false, min_area);
        let rest_if_grown = state.remaining_area_bound(self, t, true, min_area);

        // Candidate (cycle, vendor) pairs, cheapest-impact first: prefer
        // slots that reuse an existing instance (zero area growth), then
        // lightly-loaded cycles. A small random tiebreak diversifies the
        // restart probes. This depth's candidates sit on the shared stack
        // from `base`; deeper levels push above them and pop back.
        let base = state.candidates.len();
        for &v in &vendors_of_type[t.index()] {
            if state.forbid[ci * 64 + v.index()] > 0 {
                continue;
            }
            let inst = state.instance_count(v, t);
            let area = self.area_of(v, t);
            for cycle in lo..=hi {
                let u = state.usage_at(self.total_cycles, v, t, cycle);
                let grows = u >= inst;
                let (area_penalty, rest) = if grows {
                    (area, rest_if_grown)
                } else {
                    (0, rest_if_kept)
                };
                if state.area + area_penalty + rest > area_limit {
                    continue;
                }
                let jitter = state.rng_below(16);
                let key = area_penalty * 1_000 + u as u64 * 64 + cycle as u64 * 4 + jitter;
                state.candidates.push((key, cycle, v));
            }
        }
        let end = state.candidates.len();
        state.candidates[base..].sort_unstable_by_key(|&(k, _, _)| k);

        for k in base..end {
            let (_, cycle, v) = state.candidates[k];
            let area = self.area_of(v, t);
            let grew = state.apply(self.total_cycles, v, t, cycle, area);
            state.assignment[ci] = Some((cycle, v));
            // Forward checking: shrink neighbours' vendor domains; a
            // wiped-out domain makes this value a dead end immediately.
            let wiped = state.forbid_neighbors(self, ci, v);
            let r = if wiped {
                SearchResult::Exhausted
            } else {
                self.search(
                    area_limit,
                    vendors_of_type,
                    state,
                    depth + 1,
                    node_limit,
                    min_area,
                    start,
                    options,
                )
            };
            match r {
                SearchResult::Exhausted => {
                    state.unforbid_neighbors(self, ci, v);
                    state.assignment[ci] = None;
                    state.undo(self.total_cycles, v, t, cycle, grew, area);
                }
                // Keep the assignment intact on success so the caller can
                // read the full solution out of `state`.
                other => return other,
            }
        }
        state.candidates.truncate(base);
        SearchResult::Exhausted
    }
}

enum SearchResult {
    Found,
    Exhausted,
    NodeBudget,
    TimedOut,
}

struct SearchState {
    /// Per copy: `(cycle, vendor)`.
    assignment: Vec<Option<(usize, VendorId)>>,
    /// usage[(v * TYPES + t) * (total+1) + cycle]
    usage: Vec<u16>,
    /// instances[v * TYPES + t]
    instances: Vec<u16>,
    /// forbid[copy * 64 + vendor]: how many assigned diversity neighbours
    /// pin this vendor.
    forbid: Vec<u8>,
    /// Per copy: licensed vendors still available (forward checking).
    avail: Vec<u16>,
    /// Remaining unassigned copies per type (for the area bound).
    remaining: [usize; IpTypeId::COUNT],
    /// Bitmask of licensed vendors per type.
    licensed: [u64; IpTypeId::COUNT],
    /// Current instances per type (across vendors).
    type_instances: [usize; IpTypeId::COUNT],
    area: u64,
    nodes: usize,
    rng: u64,
    /// Candidate `(key, cycle, vendor)` triples of every open depth,
    /// stacked in depth order.
    candidates: Vec<(u64, usize, VendorId)>,
}

impl SearchState {
    /// A state sized for `problem` under one license subset; call
    /// [`Self::reset`] before each descent.
    fn new(
        ctx: &SearchContext,
        problem: &SynthesisProblem,
        vendors_of_type: &[Vec<VendorId>],
    ) -> Self {
        let copies = 3 * ctx.n;
        let num_vendors = problem.catalog().num_vendors();
        let mut licensed = [0u64; IpTypeId::COUNT];
        for (t, vendors) in vendors_of_type.iter().enumerate() {
            for v in vendors {
                licensed[t] |= 1 << v.index();
            }
        }
        SearchState {
            assignment: vec![None; copies],
            usage: vec![0u16; num_vendors * IpTypeId::COUNT * (problem.total_latency() + 1)],
            instances: vec![0u16; num_vendors * IpTypeId::COUNT],
            forbid: vec![0u8; copies * 64],
            avail: vec![0u16; copies],
            remaining: [0; IpTypeId::COUNT],
            licensed,
            type_instances: [0; IpTypeId::COUNT],
            area: 0,
            nodes: 0,
            rng: 0,
            candidates: Vec::with_capacity(copies * 8),
        }
    }

    /// Empties the design and the counters and reseeds the tiebreak; a
    /// descent cut short by its budget leaves assignments behind.
    fn reset(&mut self, ctx: &SearchContext, vendors_of_type: &[Vec<VendorId>], seed: u64) {
        self.assignment.fill(None);
        self.usage.fill(0);
        self.instances.fill(0);
        self.forbid.fill(0);
        self.avail.fill(0);
        self.remaining = [0; IpTypeId::COUNT];
        for &c in &ctx.order {
            let i = cidx(ctx.n, c);
            let t = ctx.op_type[c.op.index()];
            self.avail[i] = vendors_of_type[t.index()].len() as u16;
            self.remaining[t.index()] += 1;
        }
        self.type_instances = [0; IpTypeId::COUNT];
        self.area = 0;
        self.nodes = 0;
        self.rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xDEAD_BEEF;
        self.candidates.clear();
    }

    fn rng_below(&mut self, bound: u64) -> u64 {
        if self.rng == u64::MAX {
            return 0; // deterministic exhaustive pass
        }
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % bound
    }

    /// Restricts every copy to its vendor in `coloring`: all other licensed
    /// vendors start forbidden, so the search explores only cycles.
    fn pin(&mut self, ctx: &SearchContext, coloring: &[Option<VendorId>]) {
        for &c in &ctx.order {
            let ci = cidx(ctx.n, c);
            let pinned = coloring[ci].expect("a coloring covers every copy");
            let t = ctx.op_type[c.op.index()];
            for v in 0..64 {
                if v != pinned.index() && self.licensed[t.index()] & (1 << v) != 0 {
                    self.forbid[ci * 64 + v] += 1;
                }
            }
            self.avail[ci] = 1;
        }
    }

    /// Marks `v` forbidden for every unassigned diversity neighbour of `ci`;
    /// returns `true` if some neighbour lost its last licensed vendor.
    fn forbid_neighbors(&mut self, ctx: &SearchContext, ci: usize, v: VendorId) -> bool {
        let mut wiped = false;
        for &nb in &ctx.diff[ci] {
            if self.assignment[nb].is_some() {
                continue;
            }
            let slot = nb * 64 + v.index();
            if self.forbid[slot] == 0 {
                // Only vendors licensed for the neighbour's type were
                // counted into `avail`.
                let t = ctx.op_type[nb % ctx.n];
                if self.licensed[t.index()] & (1 << v.index()) != 0 {
                    self.avail[nb] -= 1;
                    if self.avail[nb] == 0 {
                        wiped = true;
                    }
                }
            }
            self.forbid[slot] += 1;
        }
        wiped
    }

    fn unforbid_neighbors(&mut self, ctx: &SearchContext, ci: usize, v: VendorId) {
        for &nb in &ctx.diff[ci] {
            if self.assignment[nb].is_some() {
                continue;
            }
            let slot = nb * 64 + v.index();
            self.forbid[slot] -= 1;
            if self.forbid[slot] == 0 {
                let t = ctx.op_type[nb % ctx.n];
                if self.licensed[t.index()] & (1 << v.index()) != 0 {
                    self.avail[nb] += 1;
                }
            }
        }
    }

    /// Lower bound on further area forced by the copies not yet assigned:
    /// each type still needing more instances than currently exist must
    /// grow by at least the cheapest offering.
    fn remaining_area_bound(
        &self,
        ctx: &SearchContext,
        assigning_type: IpTypeId,
        grows: bool,
        min_area: &[u64; IpTypeId::COUNT],
    ) -> u64 {
        let mut bound = 0u64;
        #[allow(clippy::needless_range_loop)] // parallel fixed-size arrays
        for t in 0..IpTypeId::COUNT {
            let need = ctx.min_instances[t];
            let mut have = self.type_instances[t];
            if t == assigning_type.index() && grows {
                have += 1;
            }
            if need > have && min_area[t] != u64::MAX {
                bound += (need - have) as u64 * min_area[t];
            }
        }
        bound
    }

    fn usage_at(&self, total: usize, v: VendorId, t: IpTypeId, cycle: usize) -> u16 {
        self.usage[(v.index() * IpTypeId::COUNT + t.index()) * (total + 1) + cycle]
    }

    fn instance_count(&self, v: VendorId, t: IpTypeId) -> u16 {
        self.instances[v.index() * IpTypeId::COUNT + t.index()]
    }

    /// Books one op on `(v, t)` at `cycle`, a core of `area`; returns
    /// whether a new physical instance had to be added (area grew).
    fn apply(&mut self, total: usize, v: VendorId, t: IpTypeId, cycle: usize, area: u64) -> bool {
        let ui = (v.index() * IpTypeId::COUNT + t.index()) * (total + 1) + cycle;
        self.usage[ui] += 1;
        self.remaining[t.index()] -= 1;
        let ii = v.index() * IpTypeId::COUNT + t.index();
        if self.usage[ui] > self.instances[ii] {
            self.instances[ii] += 1;
            self.type_instances[t.index()] += 1;
            self.area += area;
            true
        } else {
            false
        }
    }

    fn undo(
        &mut self,
        total: usize,
        v: VendorId,
        t: IpTypeId,
        cycle: usize,
        grew: bool,
        area: u64,
    ) {
        let ui = (v.index() * IpTypeId::COUNT + t.index()) * (total + 1) + cycle;
        self.usage[ui] -= 1;
        self.remaining[t.index()] += 1;
        if grew {
            let ii = v.index() * IpTypeId::COUNT + t.index();
            self.instances[ii] -= 1;
            self.type_instances[t.index()] -= 1;
            self.area -= area;
        }
    }
}

/// Memoized convenience wrapper used by reporting code: solve and cache by
/// problem identity is intentionally *not* provided — solves are explicit.
#[doc(hidden)]
pub fn _internal_cidx_for_tests(n: usize, c: OpCopy) -> usize {
    cidx(n, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::problem::{Mode, ProblemError};
    use crate::validate::validate;
    use troy_dfg::benchmarks;

    fn solve(problem: &SynthesisProblem) -> Result<Synthesis, SynthesisError> {
        ExactSolver::new().synthesize(problem, &SolveOptions::default())
    }

    #[test]
    fn motivational_example_costs_4160() {
        let p = SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
            .mode(Mode::DetectionRecovery)
            .detection_latency(4)
            .recovery_latency(3)
            .area_limit(22_000)
            .build()
            .unwrap();
        let s = solve(&p).expect("feasible");
        assert_eq!(s.cost, 4160, "paper's Figure 5 optimum");
        assert!(s.proven_optimal);
        let vs = validate(&p, &s.implementation);
        assert!(vs.is_empty(), "{vs:?}");
        assert!(s.implementation.area(&p) <= 22_000);
    }

    #[test]
    fn detection_only_is_cheaper_than_recovery() {
        let det = SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
            .mode(Mode::DetectionOnly)
            .detection_latency(4)
            .area_limit(22_000)
            .build()
            .unwrap();
        let rec = SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
            .mode(Mode::DetectionRecovery)
            .detection_latency(4)
            .recovery_latency(3)
            .area_limit(22_000)
            .build()
            .unwrap();
        let sd = solve(&det).unwrap();
        let sr = solve(&rec).unwrap();
        assert!(
            sd.cost < sr.cost,
            "detection {} vs recovery {}",
            sd.cost,
            sr.cost
        );
        assert!(validate(&det, &sd.implementation).is_empty());
    }

    #[test]
    fn infeasible_area_detected() {
        // polynom needs >= 2 multiplier vendors; even one multiplier
        // instance needs ~5700 area.
        let p = SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
            .mode(Mode::DetectionOnly)
            .detection_latency(4)
            .area_limit(5_000)
            .build()
            .unwrap();
        assert_eq!(solve(&p).unwrap_err(), SynthesisError::Infeasible);
    }

    #[test]
    fn tight_latency_forces_more_instances() {
        // At λ_det = 3 polynom's NC+RC (6 muls, 4 adds) pack tighter than
        // at λ_det = 6; the loose schedule should never cost more.
        let tight = SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
            .mode(Mode::DetectionOnly)
            .detection_latency(3)
            .build()
            .unwrap();
        let loose = SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
            .mode(Mode::DetectionOnly)
            .detection_latency(6)
            .build()
            .unwrap();
        let st = solve(&tight).unwrap();
        let sl = solve(&loose).unwrap();
        assert!(sl.cost <= st.cost);
        assert!(validate(&tight, &st.implementation).is_empty());
        assert!(validate(&loose, &sl.implementation).is_empty());
    }

    #[test]
    fn diff2_with_paper8_catalog_solves() {
        let p = SynthesisProblem::builder(benchmarks::diff2(), Catalog::paper8())
            .mode(Mode::DetectionOnly)
            .detection_latency(4)
            .area_limit(50_000)
            .build()
            .unwrap();
        let s = solve(&p).expect("diff2 detection-only is feasible");
        assert!(validate(&p, &s.implementation).is_empty());
        let stats = s.implementation.stats(&p);
        assert!(stats.vendors_used >= 2);
        assert_eq!(stats.license_cost, s.cost);
    }

    #[test]
    fn recovery_uses_at_least_three_vendors_per_type() {
        let p = SynthesisProblem::builder(benchmarks::polynom(), Catalog::table1())
            .mode(Mode::DetectionRecovery)
            .detection_latency(4)
            .recovery_latency(3)
            .build()
            .unwrap();
        let s = solve(&p).unwrap();
        let imp = &s.implementation;
        for t in [IpTypeId::ADDER, IpTypeId::MULTIPLIER] {
            let vendors: std::collections::BTreeSet<_> = imp
                .licenses_used(&p)
                .into_iter()
                .filter(|l| l.ip_type == t)
                .map(|l| l.vendor)
                .collect();
            assert!(vendors.len() >= 3, "{t}: {vendors:?}");
        }
    }

    /// dtmf with recovery at λ_det = λ_rec = 4 under a 40000 area cap: on
    /// the optimal license set the first descent runs out of nodes and the
    /// coloring `vendor_coloring` returns admits no schedule, yet another
    /// coloring does. A pinned `Exhausted` must not read as "infeasible".
    #[test]
    fn pinned_descent_refutes_only_its_coloring() {
        let p = SynthesisProblem::builder(benchmarks::dtmf(), Catalog::paper8())
            .mode(Mode::DetectionRecovery)
            .detection_latency(4)
            .recovery_latency(4)
            .area_limit(40_000)
            .build()
            .unwrap();
        let options = SolveOptions::default();
        let s = solve(&p).expect("feasible");
        assert_eq!(s.cost, 5350);
        assert!(s.proven_optimal);

        let ctx = SearchContext::new(&p);
        let licensed: Vec<License> = s.implementation.licenses_used(&p).into_iter().collect();
        let (vendors_of_type, min_area) = ctx.subset(&licensed).expect("covers every type");
        let Coloring::Found(coloring) = ctx.vendor_coloring(
            &vendors_of_type,
            options.node_limit,
            &mut ExactWork::default(),
        ) else {
            panic!("the optimal license set is colorable");
        };
        let start = Instant::now();
        let mut state = SearchState::new(&ctx, &p, &vendors_of_type);
        let mut descend = |budget, seed, pin| {
            ctx.descend(
                p.area_limit(),
                &mut state,
                &vendors_of_type,
                &min_area,
                budget,
                seed,
                pin,
                start,
                &options,
            )
        };
        assert!(matches!(
            descend(4 * ctx.order.len(), 0, None),
            SearchResult::NodeBudget
        ));
        assert!(matches!(
            descend(20_000, u64::MAX, Some(&coloring[..])),
            SearchResult::Exhausted
        ));
        assert!(matches!(
            ctx.feasible(
                &p,
                &licensed,
                options.node_limit,
                start,
                &options,
                &mut ExactWork::default()
            ),
            Feasibility::Feasible(_)
        ));
    }

    #[test]
    fn related_pairs_can_force_extra_vendors() {
        // Make all three muls of polynom closely related: their recovery
        // copies must avoid the union of their detection vendors.
        let g = benchmarks::polynom();
        let base = SynthesisProblem::builder(g.clone(), Catalog::table1())
            .detection_latency(4)
            .recovery_latency(3)
            .build()
            .unwrap();
        let related = SynthesisProblem::builder(g, Catalog::table1())
            .detection_latency(4)
            .recovery_latency(3)
            .related_pair(NodeId::new(0), NodeId::new(1))
            .related_pair(NodeId::new(0), NodeId::new(2))
            .related_pair(NodeId::new(1), NodeId::new(2))
            .build()
            .unwrap();
        let sb = solve(&base).unwrap();
        let sr = solve(&related).unwrap();
        assert!(sr.cost >= sb.cost);
        assert!(validate(&related, &sr.implementation).is_empty());
    }

    /// Polynom detection-only over a catalog of `vendors` random vendors.
    fn many_vendor_problem(vendors: usize, seed: u64) -> Result<SynthesisProblem, ProblemError> {
        SynthesisProblem::builder(benchmarks::polynom(), Catalog::random(vendors, seed))
            .mode(Mode::DetectionOnly)
            .build()
    }

    #[test]
    fn forty_vendors_solve_without_materializing_the_lattice() {
        let options = SolveOptions {
            time_limit: std::time::Duration::from_secs(20),
            ..SolveOptions::default()
        };
        for seed in 0..3 {
            let p = many_vendor_problem(40, seed).expect("40 vendors are supported");
            let (result, work) = ExactSolver::new().synthesize_counted(&p, &options);
            let s = result.expect("polynom is feasible");
            assert!(s.proven_optimal, "seed {seed}");
            let vs = validate(&p, &s.implementation);
            assert!(vs.is_empty(), "seed {seed}: {vs:?}");
            let greedy = crate::GreedySolver::new()
                .synthesize(&p, &options)
                .expect("greedy finds a design");
            assert!(s.cost <= greedy.cost, "seed {seed}");
            // Two types of about 2^40 subsets each; the walk reads a few.
            assert!(work.choices < 10_000, "seed {seed}: {}", work.choices);
        }
    }

    #[test]
    fn more_than_sixty_four_vendors_is_a_typed_error() {
        assert!(many_vendor_problem(64, 0).is_ok());
        assert_eq!(
            many_vendor_problem(65, 0).unwrap_err(),
            ProblemError::TooManyVendors { vendors: 65 }
        );
    }

    /// The full materialization the lazy lattice replaced, kept as its
    /// oracle: every mask with at least `need` bits over the vendors of
    /// [`Catalog::vendors_for`], stably sorted by cost.
    fn full_lattice(catalog: &Catalog, ip_type: IpTypeId, need: usize) -> Vec<TypeChoice> {
        let offers: Vec<(u64, u64)> = catalog
            .vendors_for(ip_type)
            .map(|v| {
                let off = catalog.offering(v, ip_type).expect("listed vendor");
                (off.cost, off.area)
            })
            .collect();
        // (cost, min area) of every mask, each from the mask without its
        // lowest bit.
        let mut sums = vec![(0u64, u64::MAX); 1 << offers.len()];
        let mut choices = Vec::new();
        for mask in 1u64..(1 << offers.len()) {
            let (cost, area) = offers[mask.trailing_zeros() as usize];
            let (rest_cost, rest_area) = sums[(mask & (mask - 1)) as usize];
            let (cost, min_area) = (rest_cost + cost, rest_area.min(area));
            sums[mask as usize] = (cost, min_area);
            if mask.count_ones() as usize >= need {
                choices.push(TypeChoice {
                    cost,
                    min_area,
                    mask,
                    ip_type,
                });
            }
        }
        choices.sort_by_key(|c| c.cost);
        choices
    }

    mod lattice {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Offers are `(cost step, area)`: four cost levels force ties.
            #[test]
            fn lazy_lattice_yields_the_full_sorted_sequence(
                offers in proptest::collection::vec((1u64..=4, 1u64..=1_000), 1..=12),
            ) {
                let mut catalog = Catalog::new();
                for (i, &(step, area)) in offers.iter().enumerate() {
                    catalog.insert(
                        VendorId::new(i),
                        IpTypeId::ADDER,
                        crate::catalog::IpOffering { area, cost: step * 50 },
                    );
                }
                for need in 1..=offers.len() {
                    let oracle = full_lattice(&catalog, IpTypeId::ADDER, need);
                    let mut lazy = TypeLattice::new(&catalog, IpTypeId::ADDER, need);
                    let mut work = ExactWork::default();
                    let mut got = Vec::new();
                    while let Ok(Some(c)) = lazy.get(got.len(), &mut work, || false) {
                        got.push(c);
                    }
                    prop_assert_eq!(&got, &oracle, "need {}", need);
                    prop_assert_eq!(work.choices, oracle.len(), "need {}", need);
                }
            }
        }
    }
}
