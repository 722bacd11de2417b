//! LP relaxation plumbing and the branch-and-bound driver.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cancel::Cancellation;
use crate::model::{Cmp, Model, Sense, VarKind};
use crate::simplex::{solve_lp, Basis, LpOutcome, LpProblem, LpResult, SparseCol};

/// Per-LP simplex iteration cap; a node LP that exhausts it counts as an
/// LP failure and voids proof claims.
const LP_ITER_LIMIT: usize = 50_000;
/// Absolute integrality tolerance when rounding LP values.
const INT_TOL: f64 = 1e-6;

/// The node-LP solver branch and bound calls: problem, iteration cap,
/// deadline, cancellation token and the parent's basis to warm-start from.
/// Production always passes the sparse [`solve_lp`]; the seam exists so
/// tests can swap in a reference engine.
pub(crate) type NodeLp =
    fn(&LpProblem, usize, Option<Instant>, Option<&Cancellation>, Option<&Basis>) -> LpResult;

/// Knobs for [`Model::solve`].
///
/// Everything else is fixed: node LPs run the sparse revised simplex,
/// child nodes always warm-start from their parent's optimal basis, each
/// LP is capped at 50,000 iterations, and integrality is judged to 1e-6.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use troy_ilp::SolveParams;
///
/// let params = SolveParams {
///     time_limit: Some(Duration::from_secs(5)),
///     ..SolveParams::default()
/// };
/// assert!(params.node_limit > 0);
/// ```
#[derive(Debug, Clone)]
pub struct SolveParams {
    /// Wall-clock budget; on expiry the best incumbent is returned with
    /// [`SolveStatus::Feasible`]. `None` = unlimited.
    pub time_limit: Option<Duration>,
    /// Maximum branch-and-bound nodes to explore.
    pub node_limit: usize,
    /// Optional known-feasible assignment used as the initial incumbent
    /// (a MIP start); must be feasible for the model — integrality of the
    /// integer variables included — or it is ignored.
    pub mip_start: Option<Vec<f64>>,
    /// If `true`, objective coefficients are assumed integral for all
    /// integer variables and bounds are rounded up when pruning.
    pub integral_objective: bool,
    /// Optional branching priority per variable (higher branches first);
    /// variables beyond the vector's length default to priority 0. Among
    /// the fractional integer variables of the highest priority present,
    /// the most fractional one is chosen.
    pub branch_priority: Vec<i32>,
    /// Cooperative cancellation token polled once per branch-and-bound
    /// node. Expiry behaves exactly like the time limit: the best
    /// incumbent (if any) is returned as [`SolveStatus::Feasible`].
    pub cancel: Cancellation,
}

impl Default for SolveParams {
    fn default() -> Self {
        SolveParams {
            time_limit: Some(Duration::from_secs(30)),
            node_limit: 2_000_000,
            mip_start: None,
            integral_objective: false,
            branch_priority: Vec::new(),
            cancel: Cancellation::new(),
        }
    }
}

/// Termination status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// Proven optimal solution.
    Optimal,
    /// A feasible solution was found but optimality was not proven before a
    /// limit was hit (the paper marks such rows `*`).
    Feasible,
    /// Proven infeasible.
    Infeasible,
    /// No feasible solution found before a limit was hit (inconclusive).
    Unknown,
}

/// Outcome of [`Model::solve`]: status, best solution (if any), statistics.
#[derive(Debug, Clone)]
pub struct SolveResult {
    status: SolveStatus,
    values: Option<Vec<f64>>,
    objective: Option<f64>,
    /// Best proven bound on the objective (lower bound when minimizing).
    bound: Option<f64>,
    nodes: usize,
    elapsed: Duration,
    lp_iterations: usize,
    refactorizations: usize,
    lp_failures: bool,
}

impl SolveResult {
    /// Termination status.
    #[must_use]
    pub fn status(&self) -> SolveStatus {
        self.status
    }

    /// Best objective value found, in the model's own sense.
    #[must_use]
    pub fn objective(&self) -> Option<f64> {
        self.objective
    }

    /// Best proven bound (lower bound when minimizing, upper when
    /// maximizing); equals the objective at optimality.
    #[must_use]
    pub fn bound(&self) -> Option<f64> {
        self.bound
    }

    /// Branch-and-bound nodes explored.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Wall-clock time spent.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Total simplex iterations across every node LP.
    #[must_use]
    pub fn lp_iterations(&self) -> usize {
        self.lp_iterations
    }

    /// Total basis (re)factorizations across every node LP.
    #[must_use]
    pub fn refactorizations(&self) -> usize {
        self.refactorizations
    }

    /// Whether any node LP failed outright (iteration exhaustion or
    /// numerical breakdown — *not* deadline/cancel trips), voiding proof
    /// claims for the search.
    #[must_use]
    pub fn lp_failures(&self) -> bool {
        self.lp_failures
    }

    /// The variable assignment, if a feasible solution was found.
    #[must_use]
    pub fn values(&self) -> Option<&[f64]> {
        self.values.as_deref()
    }
}

/// Big finite bound used for slack variables of inequality rows.
const SLACK_BIG: f64 = 1e12;

struct Relaxation {
    /// Standard-form problem; structural columns first, then slacks.
    prob: LpProblem,
    n_structural: usize,
    /// Minimization objective sign (+1 for Minimize, -1 for Maximize).
    obj_sign: f64,
}

fn build_relaxation(model: &Model) -> Relaxation {
    let n = model.num_vars();
    let m = model.num_constraints();
    let mut cols: Vec<SparseCol> = vec![Vec::new(); n];
    let mut b = Vec::with_capacity(m);
    for (r, c) in model.constraints().iter().enumerate() {
        for &(v, a) in c.terms() {
            cols[v.index()].push((r, a));
        }
        b.push(c.rhs());
    }
    let obj_sign = match model.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let mut cost = vec![0.0; n];
    for &(v, c) in model.objective() {
        cost[v.index()] = obj_sign * c;
    }
    let mut lo: Vec<f64> = (0..n)
        .map(|i| model.variable(crate::model::VarId(i as u32)).lower())
        .collect();
    let mut hi: Vec<f64> = (0..n)
        .map(|i| model.variable(crate::model::VarId(i as u32)).upper())
        .collect();
    for (r, c) in model.constraints().iter().enumerate() {
        cols.push(vec![(r, 1.0)]);
        cost.push(0.0);
        match c.sense() {
            Cmp::Le => {
                lo.push(0.0);
                hi.push(SLACK_BIG);
            }
            Cmp::Eq => {
                lo.push(0.0);
                hi.push(0.0);
            }
            Cmp::Ge => {
                lo.push(-SLACK_BIG);
                hi.push(0.0);
            }
        }
    }
    Relaxation {
        prob: LpProblem::from_cols(&cols, cost, lo, hi, b),
        n_structural: n,
        obj_sign,
    }
}

#[derive(Debug, Clone)]
struct Node {
    /// (var index, lower, upper) overrides accumulated on this path.
    overrides: Vec<(usize, f64, f64)>,
    /// Parent LP bound (minimization sense) for best-first ordering.
    bound: f64,
    /// Parent's optimal basis for warm-starting this node's LP; shared
    /// between siblings (the basis matrix is bound-independent, so the
    /// parent's factorization stays valid under the child's overrides).
    basis: Option<Arc<Basis>>,
}

impl Model {
    /// Solves the model by LP-based branch & bound.
    ///
    /// Returns the best solution found together with its proof status; see
    /// [`SolveStatus`]. Infeasibility and optimality are proven exactly
    /// (up to tolerances); hitting a limit downgrades the status to
    /// [`SolveStatus::Feasible`] or [`SolveStatus::Unknown`] — a truncated
    /// search never reports [`SolveStatus::Infeasible`] or
    /// [`SolveStatus::Optimal`].
    ///
    /// # Examples
    ///
    /// ```
    /// use troy_ilp::{LinExpr, Model, SolveParams, SolveStatus};
    ///
    /// // min x + y  s.t.  x + y >= 3, binaries -> infeasible.
    /// let mut m = Model::minimize();
    /// let x = m.binary("x");
    /// let y = m.binary("y");
    /// m.add_ge("c", LinExpr::sum([x, y]), 3.0);
    /// assert_eq!(m.solve(&SolveParams::default()).status(), SolveStatus::Infeasible);
    /// ```
    #[must_use]
    pub fn solve(&self, params: &SolveParams) -> SolveResult {
        self.branch_and_bound(params, solve_lp)
    }

    /// [`Model::solve`] with the node-LP solver as a parameter.
    #[allow(clippy::too_many_lines)]
    pub(crate) fn branch_and_bound(&self, params: &SolveParams, node_lp: NodeLp) -> SolveResult {
        let start = Instant::now();
        let relax = build_relaxation(self);
        let int_vars: Vec<usize> = (0..self.num_vars())
            .filter(|&i| self.variable(crate::model::VarId(i as u32)).kind() == VarKind::Integer)
            .collect();

        // Incumbent from the MIP start, if it checks out — which requires
        // integrality of the integer variables on top of linear
        // feasibility, or a fractional warm start would seed a bogus
        // pruning bound.
        let mut incumbent: Option<(Vec<f64>, f64)> = params.mip_start.as_ref().and_then(|v| {
            let integral = v.len() == self.num_vars()
                && int_vars
                    .iter()
                    .all(|&i| (v[i] - v[i].round()).abs() <= INT_TOL);
            if integral && self.check_feasible(v, 1e-5).is_none() {
                Some((
                    v.clone(),
                    relax.obj_sign * (self.objective_value(v) - self.objective_offset()),
                ))
            } else {
                None
            }
        });

        // The wall-clock bound is threaded into every LP solve as well:
        // between-node checks alone let one degenerate LP overrun the
        // limit by minutes on large models.
        let lp_deadline = params.time_limit.map(|l| start + l);
        let mut stack: Vec<Node> = vec![Node {
            overrides: Vec::new(),
            bound: f64::NEG_INFINITY,
            basis: None,
        }];
        let mut nodes = 0usize;
        let mut lp_iterations = 0usize;
        let mut refactorizations = 0usize;
        let mut limit_hit = false;
        let mut lp_failures = false; // IterLimit/Numerics abandoned a subtree
        let mut infeasible_proven = true; // stays true only if every leaf was pruned exactly

        // Node bounds are applied to one shared problem and reverted before
        // the next node, instead of cloning the whole LpProblem per node.
        let mut prob = relax.prob.clone();
        let root_lo = relax.prob.lo.clone();
        let root_hi = relax.prob.hi.clone();
        let mut touched: Vec<usize> = Vec::new();

        loop {
            // Limits are checked *before* popping: a node popped and then
            // abandoned on break would silently vanish from the open set
            // and tighten the reported bound past what was proven.
            if let Some(limit) = params.time_limit {
                if start.elapsed() > limit {
                    limit_hit = true;
                    break;
                }
            }
            if params.cancel.is_expired() {
                limit_hit = true;
                break;
            }
            if nodes >= params.node_limit {
                limit_hit = true;
                break;
            }
            let Some(node) = stack.pop() else { break };
            // Prune against the incumbent before paying for the LP.
            if let Some((_, inc_obj)) = &incumbent {
                if prune(node.bound, *inc_obj, params) {
                    continue;
                }
            }
            nodes += 1;

            // Apply this node's bound overrides in place.
            for &v in &touched {
                prob.lo[v] = root_lo[v];
                prob.hi[v] = root_hi[v];
            }
            touched.clear();
            for &(v, lo, hi) in &node.overrides {
                prob.lo[v] = lo;
                prob.hi[v] = hi;
                touched.push(v);
            }

            let lp = node_lp(
                &prob,
                LP_ITER_LIMIT,
                lp_deadline,
                Some(&params.cancel),
                node.basis.as_deref(),
            );
            lp_iterations += lp.iterations;
            refactorizations += lp.refactorizations;

            match lp.outcome {
                LpOutcome::Infeasible => {}
                LpOutcome::Cancelled => {
                    // Clean budget stop, exactly like the between-node
                    // deadline check: the node goes back to the open set
                    // (its bound is still unproven territory) and the
                    // search winds down without poisoning proof claims.
                    stack.push(node);
                    limit_hit = true;
                    break;
                }
                LpOutcome::IterLimit | LpOutcome::Numerics => {
                    // Cannot bound or explore this subtree: give up on it
                    // and downgrade every proof-dependent claim.
                    limit_hit = true;
                    infeasible_proven = false;
                    lp_failures = true;
                }
                LpOutcome::Optimal {
                    x,
                    objective,
                    basis,
                } => {
                    if let Some((_, inc_obj)) = &incumbent {
                        if prune(objective, *inc_obj, params) {
                            continue;
                        }
                    }
                    // Find the most fractional integer variable within the
                    // highest branching-priority class that has one.
                    let mut branch_var: Option<(usize, f64)> = None;
                    let mut best_prio = i32::MIN;
                    for &v in &int_vars {
                        let frac = (x[v] - x[v].round()).abs();
                        if frac <= INT_TOL {
                            continue;
                        }
                        let prio = params.branch_priority.get(v).copied().unwrap_or(0);
                        let better = prio > best_prio
                            || (prio == best_prio && branch_var.is_none_or(|(_, bf)| frac > bf));
                        if better {
                            branch_var = Some((v, frac));
                            best_prio = prio;
                        }
                    }
                    match branch_var {
                        None => {
                            // Integral: candidate incumbent. Snap and verify.
                            let mut vals: Vec<f64> = x[..relax.n_structural].to_vec();
                            for &v in &int_vars {
                                vals[v] = vals[v].round();
                            }
                            if self.check_feasible(&vals, 1e-5).is_none() {
                                let obj = relax.obj_sign
                                    * (self.objective_value(&vals) - self.objective_offset());
                                if incumbent.as_ref().is_none_or(|(_, best)| obj < *best) {
                                    incumbent = Some((vals, obj));
                                }
                            }
                        }
                        Some((v, _)) => {
                            let floor = x[v].floor();
                            let lo = prob.lo[v];
                            let hi = prob.hi[v];
                            // Both children inherit this node's optimal
                            // basis: the basis matrix does not depend on
                            // bounds, so the child LP re-solves in a few
                            // dual-infeasibility-repair pivots instead of
                            // from the all-slack basis.
                            let parent_basis = Some(Arc::new(basis));
                            // Depth-first: push the "closer" child last so it
                            // pops first (dive toward the LP value).
                            let mut down = node.overrides.clone();
                            down.push((v, lo, floor));
                            let mut up = node.overrides.clone();
                            up.push((v, floor + 1.0, hi));
                            let frac = x[v] - floor;
                            let (first, second) = if frac > 0.5 { (down, up) } else { (up, down) };
                            stack.push(Node {
                                overrides: first,
                                bound: objective,
                                basis: parent_basis.clone(),
                            });
                            stack.push(Node {
                                overrides: second,
                                bound: objective,
                                basis: parent_basis,
                            });
                        }
                    }
                }
            }
        }

        // Proven bound on the optimum, in minimization space: the optimum
        // lies either in an open subtree (bounded below by its recorded LP
        // bound) or equals the incumbent. Abandoned subtrees (LP failures)
        // void the proof.
        let open_bound = stack.iter().map(|n| n.bound).fold(f64::INFINITY, f64::min);
        let min_bound = |inc: Option<f64>| -> Option<f64> {
            if lp_failures {
                return None;
            }
            match (stack.is_empty(), inc) {
                (true, Some(obj)) => Some(obj),
                (false, Some(obj)) => Some(obj.min(open_bound)),
                (true, None) => None, // infeasible: no bound to speak of
                (false, None) => open_bound.is_finite().then_some(open_bound),
            }
        };

        // A truncated search (limit trip, or nodes left open for any other
        // reason) proves nothing terminal.
        let truncated = limit_hit || !stack.is_empty();
        let elapsed = start.elapsed();
        match incumbent {
            Some((vals, min_obj)) => {
                let objective = self.objective_offset() + relax.obj_sign * min_obj;
                let bound =
                    min_bound(Some(min_obj)).map(|b| self.objective_offset() + relax.obj_sign * b);
                SolveResult {
                    status: if truncated {
                        SolveStatus::Feasible
                    } else {
                        SolveStatus::Optimal
                    },
                    bound,
                    values: Some(vals),
                    objective: Some(objective),
                    nodes,
                    elapsed,
                    lp_iterations,
                    refactorizations,
                    lp_failures,
                }
            }
            None => SolveResult {
                status: if !truncated && infeasible_proven {
                    SolveStatus::Infeasible
                } else {
                    SolveStatus::Unknown
                },
                values: None,
                objective: None,
                bound: min_bound(None).map(|b| self.objective_offset() + relax.obj_sign * b),
                nodes,
                elapsed,
                lp_iterations,
                refactorizations,
                lp_failures,
            },
        }
    }
}

/// Should a node with LP bound `bound` (minimization) be pruned against the
/// incumbent objective `inc` (minimization)?
fn prune(bound: f64, inc: f64, params: &SolveParams) -> bool {
    let effective = if params.integral_objective {
        // All integer costs: any better solution is at least 1 cheaper...
        // conservatively, bound can be rounded up to the next integer.
        (bound - 1e-6).ceil()
    } else {
        bound
    };
    effective >= inc - 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, Model};

    fn solve(m: &Model) -> SolveResult {
        m.solve(&SolveParams::default())
    }

    #[test]
    fn knapsack_binary() {
        // max 10a+13b+7c s.t. 5a+6b+4c<=10 -> {b,c} = 20.
        let mut m = Model::maximize();
        let a = m.binary("a");
        let b = m.binary("b");
        let c = m.binary("c");
        m.set_objective(LinExpr::term(10.0, a) + LinExpr::term(13.0, b) + LinExpr::term(7.0, c));
        m.add_le(
            "cap",
            LinExpr::term(5.0, a) + LinExpr::term(6.0, b) + LinExpr::term(4.0, c),
            10.0,
        );
        let r = solve(&m);
        assert_eq!(r.status(), SolveStatus::Optimal);
        assert_eq!(r.objective().unwrap().round() as i64, 20);
        let x = r.values().unwrap();
        assert_eq!(x[b.index()].round() as i64, 1);
        assert_eq!(x[c.index()].round() as i64, 1);
        assert_eq!(x[a.index()].round() as i64, 0);
    }

    #[test]
    fn assignment_problem() {
        // 3x3 assignment, costs; optimal = 1+2+1 = 4 on the permutation
        // (0->1), (1->0)... verify by brute force below.
        let costs = [[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 1.0]];
        let mut m = Model::minimize();
        let mut x = Vec::new();
        for i in 0..3 {
            let mut row = Vec::new();
            for j in 0..3 {
                row.push(m.binary(format!("x{i}{j}")));
            }
            x.push(row);
        }
        let mut obj = LinExpr::new();
        for i in 0..3 {
            for j in 0..3 {
                obj.add_term(costs[i][j], x[i][j]);
            }
        }
        m.set_objective(obj);
        #[allow(clippy::needless_range_loop)] // row/column duality reads clearer indexed
        for i in 0..3 {
            m.add_eq(format!("row{i}"), LinExpr::sum(x[i].clone()), 1.0);
            m.add_eq(
                format!("col{i}"),
                LinExpr::sum((0..3).map(|r| x[r][i])),
                1.0,
            );
        }
        // Brute-force optimum over all 6 permutations.
        let perms = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let best = perms
            .iter()
            .map(|p| (0..3).map(|i| costs[i][p[i]]).sum::<f64>())
            .fold(f64::INFINITY, f64::min);
        let r = solve(&m);
        assert_eq!(r.status(), SolveStatus::Optimal);
        assert!((r.objective().unwrap() - best).abs() < 1e-6);
    }

    #[test]
    fn set_cover() {
        // Universe {0..4}; sets: A={0,1,2} cost 3, B={2,3} cost 2,
        // C={3,4} cost 2, D={0,4} cost 2, E={1,3} cost 1.
        // Optimal: A+C = 5 or D+E+{2?}... A={0,1,2}, C={3,4} -> cost 5.
        // D+E covers {0,1,3,4}, + B covers 2: cost 5. Check = 5.
        let mut m = Model::minimize();
        let sets: Vec<(Vec<usize>, f64)> = vec![
            (vec![0, 1, 2], 3.0),
            (vec![2, 3], 2.0),
            (vec![3, 4], 2.0),
            (vec![0, 4], 2.0),
            (vec![1, 3], 1.0),
        ];
        let vars: Vec<_> = (0..sets.len()).map(|i| m.binary(format!("s{i}"))).collect();
        let mut obj = LinExpr::new();
        for (v, (_, c)) in vars.iter().zip(&sets) {
            obj.add_term(*c, *v);
        }
        m.set_objective(obj);
        for e in 0..5 {
            let covering = sets
                .iter()
                .enumerate()
                .filter(|(_, (els, _))| els.contains(&e))
                .map(|(i, _)| vars[i]);
            m.add_ge(format!("cover{e}"), LinExpr::sum(covering), 1.0);
        }
        let r = solve(&m);
        assert_eq!(r.status(), SolveStatus::Optimal);
        assert_eq!(r.objective().unwrap().round() as i64, 5);
    }

    #[test]
    fn infeasible_binary_model() {
        let mut m = Model::minimize();
        let x = m.binary("x");
        let y = m.binary("y");
        m.add_ge("hi", LinExpr::sum([x, y]), 3.0);
        assert_eq!(solve(&m).status(), SolveStatus::Infeasible);
    }

    #[test]
    fn general_integers() {
        // min 3x + 4y s.t. 2x + y >= 7, x + 3y >= 9, x,y in [0,10] integer.
        // LP optimum fractional; brute force integer optimum below.
        let mut m = Model::minimize();
        let x = m.integer("x", 0.0, 10.0);
        let y = m.integer("y", 0.0, 10.0);
        m.set_objective(LinExpr::term(3.0, x) + LinExpr::term(4.0, y));
        m.add_ge("c1", LinExpr::term(2.0, x) + LinExpr::term(1.0, y), 7.0);
        m.add_ge("c2", LinExpr::term(1.0, x) + LinExpr::term(3.0, y), 9.0);
        let mut best = f64::INFINITY;
        for xi in 0..=10 {
            for yi in 0..=10 {
                let (xf, yf) = (f64::from(xi), f64::from(yi));
                if 2.0 * xf + yf >= 7.0 && xf + 3.0 * yf >= 9.0 {
                    best = best.min(3.0 * xf + 4.0 * yf);
                }
            }
        }
        let r = solve(&m);
        assert_eq!(r.status(), SolveStatus::Optimal);
        assert!((r.objective().unwrap() - best).abs() < 1e-6);
    }

    #[test]
    fn mip_start_is_used_and_improved() {
        let mut m = Model::maximize();
        let a = m.binary("a");
        let b = m.binary("b");
        m.set_objective(LinExpr::term(2.0, a) + LinExpr::term(3.0, b));
        m.add_le("cap", LinExpr::sum([a, b]), 1.0);
        let params = SolveParams {
            mip_start: Some(vec![1.0, 0.0]), // objective 2; optimum is 3
            ..SolveParams::default()
        };
        let r = m.solve(&params);
        assert_eq!(r.status(), SolveStatus::Optimal);
        assert_eq!(r.objective().unwrap().round() as i64, 3);
    }

    #[test]
    fn infeasible_mip_start_ignored() {
        let mut m = Model::minimize();
        let a = m.binary("a");
        m.set_objective(LinExpr::term(1.0, a));
        m.add_ge("one", LinExpr::term(1.0, a), 1.0);
        let params = SolveParams {
            mip_start: Some(vec![0.0]), // violates `one`
            ..SolveParams::default()
        };
        let r = m.solve(&params);
        assert_eq!(r.status(), SolveStatus::Optimal);
        assert_eq!(r.objective().unwrap().round() as i64, 1);
    }

    #[test]
    fn fractional_mip_start_rejected() {
        // max a + b s.t. a + b <= 1, binaries. The point (0.5, 0.5) is
        // *linearly* feasible with objective 1.0 — accepting it as the
        // incumbent would prune both genuine optima (objective 1) and
        // report the fractional vector as the solution.
        let mut m = Model::maximize();
        let a = m.binary("a");
        let b = m.binary("b");
        m.set_objective(LinExpr::sum([a, b]));
        m.add_le("cap", LinExpr::sum([a, b]), 1.0);
        let params = SolveParams {
            mip_start: Some(vec![0.5, 0.5]),
            ..SolveParams::default()
        };
        let r = m.solve(&params);
        assert_eq!(r.status(), SolveStatus::Optimal);
        assert_eq!(r.objective().unwrap().round() as i64, 1);
        let vals = r.values().unwrap();
        for v in vals {
            assert!(
                (v - v.round()).abs() < 1e-6,
                "solution must be integral, got {v}"
            );
        }
    }

    #[test]
    fn wrong_length_mip_start_ignored() {
        let mut m = Model::minimize();
        let a = m.binary("a");
        m.set_objective(LinExpr::term(1.0, a));
        m.add_ge("one", LinExpr::term(1.0, a), 1.0);
        let params = SolveParams {
            mip_start: Some(vec![1.0, 0.0, 1.0]), // three values, one var
            ..SolveParams::default()
        };
        let r = m.solve(&params);
        assert_eq!(r.status(), SolveStatus::Optimal);
        assert_eq!(r.objective().unwrap().round() as i64, 1);
    }

    #[test]
    fn node_limit_degrades_gracefully() {
        let mut m = Model::maximize();
        let vars: Vec<_> = (0..12).map(|i| m.binary(format!("v{i}"))).collect();
        let mut obj = LinExpr::new();
        let mut cap = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            obj.add_term(f64::from(i as u32 % 5 + 1), v);
            cap.add_term(f64::from(i as u32 % 7 + 2), v);
        }
        m.set_objective(obj);
        m.add_le("cap", cap, 17.0);
        let params = SolveParams {
            node_limit: 1,
            ..SolveParams::default()
        };
        let r = m.solve(&params);
        // With one node we cannot prove anything, but must not claim Optimal
        // unless the root LP was already integral.
        if r.status() == SolveStatus::Optimal {
            assert!(r.nodes() <= 1);
        } else {
            assert!(matches!(
                r.status(),
                SolveStatus::Feasible | SolveStatus::Unknown
            ));
        }
    }

    #[test]
    fn equality_bound_binary_chain() {
        // Exactly-one over 5 binaries with distinct costs picks the cheapest.
        let mut m = Model::minimize();
        let vars: Vec<_> = (0..5).map(|i| m.binary(format!("v{i}"))).collect();
        let mut obj = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            obj.add_term(f64::from(5 - i as u32), v);
        }
        m.set_objective(obj);
        m.add_eq("pick", LinExpr::sum(vars.clone()), 1.0);
        let r = solve(&m);
        assert_eq!(r.objective().unwrap().round() as i64, 1);
        assert_eq!(r.values().unwrap()[vars[4].index()].round() as i64, 1);
    }

    #[test]
    fn bound_equals_objective_at_optimality() {
        let mut m = Model::minimize();
        let x = m.binary("x");
        let y = m.binary("y");
        m.set_objective(LinExpr::term(3.0, x) + LinExpr::term(5.0, y));
        m.add_ge("one", LinExpr::sum([x, y]), 1.0);
        let r = solve(&m);
        assert_eq!(r.status(), SolveStatus::Optimal);
        assert_eq!(r.bound(), r.objective());
    }

    #[test]
    fn bound_never_exceeds_objective_when_truncated() {
        // Minimization: the proven lower bound must not exceed the
        // incumbent, even when the node limit truncates the tree.
        let mut m = Model::minimize();
        let vars: Vec<_> = (0..14).map(|i| m.binary(format!("v{i}"))).collect();
        let mut obj = LinExpr::new();
        let mut cover = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            obj.add_term(f64::from(i as u32 % 6 + 1), v);
            cover.add_term(f64::from(i as u32 % 4 + 1), v);
        }
        m.set_objective(obj);
        m.add_ge("cover", cover, 11.0);
        let params = SolveParams {
            node_limit: 3,
            ..SolveParams::default()
        };
        let r = m.solve(&params);
        if let (Some(b), Some(o)) = (r.bound(), r.objective()) {
            assert!(b <= o + 1e-9, "bound {b} above objective {o}");
        }
    }

    #[test]
    fn maximization_objective_sign_round_trip() {
        let mut m = Model::maximize();
        let x = m.integer("x", 0.0, 9.0);
        m.set_objective(LinExpr::term(2.0, x) + 100.0);
        m.add_le("cap", LinExpr::term(1.0, x), 4.0);
        let r = solve(&m);
        assert_eq!(r.objective().unwrap().round() as i64, 108);
    }

    #[test]
    fn cancelled_mid_search_never_reports_infeasible() {
        // A feasible covering model whose search is cancelled before the
        // first node: the regression was LP Cancelled outcomes being
        // conflated with LP failures, and truncated searches reporting
        // the leftover `infeasible_proven` flag as a proof.
        let mut m = Model::minimize();
        let vars: Vec<_> = (0..16).map(|i| m.binary(format!("v{i}"))).collect();
        let mut obj = LinExpr::new();
        let mut cover = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            obj.add_term(f64::from(i as u32 % 6 + 1), v);
            cover.add_term(f64::from(i as u32 % 4 + 1), v);
        }
        m.set_objective(obj);
        m.add_ge("cover", cover, 13.0);
        let cancel = Cancellation::new();
        cancel.cancel();
        let params = SolveParams {
            cancel,
            ..SolveParams::default()
        };
        let r = m.solve(&params);
        assert_ne!(
            r.status(),
            SolveStatus::Infeasible,
            "truncated search claimed an infeasibility proof"
        );
        assert_ne!(r.status(), SolveStatus::Optimal);
        assert!(!r.lp_failures(), "cancellation is not an LP failure");
    }

    #[test]
    fn cancelled_lp_outcomes_do_not_set_lp_failures() {
        // Cancel *during* the search (deadline in the near future) so the
        // trip lands inside a node LP, not only at the between-node check.
        let mut m = Model::minimize();
        let vars: Vec<_> = (0..18).map(|i| m.binary(format!("v{i}"))).collect();
        let mut obj = LinExpr::new();
        let mut cover = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            obj.add_term(f64::from(i as u32 % 7 + 1), v);
            cover.add_term(f64::from(i as u32 % 5 + 1), v);
        }
        m.set_objective(obj);
        m.add_ge("cover", cover, 19.0);
        let params = SolveParams {
            cancel: Cancellation::with_deadline(Duration::from_micros(200)),
            time_limit: None,
            ..SolveParams::default()
        };
        let r = m.solve(&params);
        assert_ne!(r.status(), SolveStatus::Infeasible);
        assert!(!r.lp_failures(), "cancellation is not an LP failure");
    }

    #[test]
    fn solve_result_reports_lp_effort() {
        let mut m = Model::minimize();
        let x = m.integer("x", 0.0, 10.0);
        let y = m.integer("y", 0.0, 10.0);
        m.set_objective(LinExpr::term(3.0, x) + LinExpr::term(4.0, y));
        m.add_ge("c1", LinExpr::term(2.0, x) + LinExpr::term(1.0, y), 7.0);
        m.add_ge("c2", LinExpr::term(1.0, x) + LinExpr::term(3.0, y), 9.0);
        let r = solve(&m);
        assert_eq!(r.status(), SolveStatus::Optimal);
        assert!(r.lp_iterations() > 0, "LP effort must be accounted");
        assert!(
            r.refactorizations() > 0,
            "every LP factorizes at least once"
        );
        assert!(!r.lp_failures());
    }
}
