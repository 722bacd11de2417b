#![allow(clippy::needless_range_loop)] // dense linear algebra reads clearer indexed

//! The dense predecessor of the sparse revised simplex — a test-only
//! reference engine, compiled under `cfg(test)` alone.
//!
//! Same bounded-variable two-phase primal algorithm as [`crate::simplex`],
//! but with the original data structures: an explicit dense `m×m` basis
//! inverse rewritten with elementary row operations on every pivot
//! (Gauss-Jordan refactorization every [`REFACTOR_EVERY`] iterations) and
//! Dantzig pricing (most-negative reduced cost). It always cold-starts from
//! the all-slack basis.
//!
//! Its one job is cross-checking: the property tests in
//! `crate::cross_check` drive the same branch and bound through both
//! engines and require identical optima, which pins the sparse core's
//! algebra to an independently written implementation. The speedup of the
//! sparse core over this engine was last measured at 2f63976; the frozen
//! record is in `EXPERIMENTS.md`.
//!
//! It shares [`LpProblem`], [`LpOutcome`] and [`LpResult`] with the sparse
//! engine, so either plugs into the branch-and-bound seam.

use crate::simplex::{Basis, LpOutcome, LpProblem, LpResult, VarStatus};

/// Feasibility / optimality tolerance on variable values.
const FEAS_TOL: f64 = 1e-7;
/// Reduced-cost tolerance.
const COST_TOL: f64 = 1e-7;
/// Minimum pivot magnitude.
const PIVOT_TOL: f64 = 1e-9;
/// Iterations between basis refactorizations.
const REFACTOR_EVERY: usize = 256;

/// How often the LP loops poll the caller's cancellation token.
const CANCEL_POLL_EVERY: usize = 64;
/// Degenerate iterations before switching to Bland's rule.
const BLAND_AFTER: usize = 64;

struct Tableau<'a> {
    prob: &'a LpProblem,
    m: usize,
    /// Dense row-major m×m basis inverse.
    binv: Vec<f64>,
    /// Variable occupying each basis row.
    basis: Vec<usize>,
    status: Vec<VarStatus>,
    /// Current value of every variable.
    x: Vec<f64>,
    degenerate_streak: usize,
    refactorizations: usize,
}

impl<'a> Tableau<'a> {
    /// Starts from the all-slack basis: the *last* `m` variables are assumed
    /// to form an identity block (guaranteed by the caller).
    fn new(prob: &'a LpProblem) -> Self {
        let m = prob.num_rows();
        let n = prob.num_vars();
        let mut status = vec![VarStatus::Lower; n];
        let mut basis = Vec::with_capacity(m);
        for (row, var) in (n - m..n).enumerate() {
            debug_assert!(
                {
                    let col: Vec<(usize, f64)> = prob.csc.col(var).collect();
                    col == vec![(row, 1.0)]
                },
                "slack block must be the identity"
            );
            status[var] = VarStatus::Basic(row);
            basis.push(var);
        }
        // Nonbasic structural vars start at the bound nearer to zero to keep
        // initial activities small.
        let mut x = vec![0.0; n];
        for j in 0..n {
            if matches!(status[j], VarStatus::Basic(_)) {
                continue;
            }
            x[j] = if prob.lo[j].abs() <= prob.hi[j].abs() {
                prob.lo[j]
            } else {
                status[j] = VarStatus::Upper;
                prob.hi[j]
            };
        }
        let mut binv = vec![0.0; m * m];
        for i in 0..m {
            binv[i * m + i] = 1.0;
        }
        let mut t = Tableau {
            prob,
            m,
            binv,
            basis,
            status,
            x,
            degenerate_streak: 0,
            refactorizations: 1,
        };
        t.recompute_basics();
        t
    }

    /// Recomputes basic variable values `x_B = B⁻¹ (b − N x_N)`.
    fn recompute_basics(&mut self) {
        let m = self.m;
        let mut rhs = self.prob.b.clone();
        for j in 0..self.prob.num_vars() {
            if matches!(self.status[j], VarStatus::Basic(_)) || self.x[j] == 0.0 {
                continue;
            }
            let xj = self.x[j];
            for (row, a) in self.prob.csc.col(j) {
                rhs[row] -= a * xj;
            }
        }
        for i in 0..m {
            let mut v = 0.0;
            for k in 0..m {
                v += self.binv[i * m + k] * rhs[k];
            }
            self.x[self.basis[i]] = v;
        }
    }

    /// Rebuilds the dense basis inverse by Gauss-Jordan elimination.
    /// Returns `false` when the basis matrix is numerically singular.
    fn refactorize(&mut self) -> bool {
        let m = self.m;
        // Assemble B column-by-column from the basis variables.
        let mut a = vec![0.0; m * m]; // B, row-major
        for (col_idx, &var) in self.basis.iter().enumerate() {
            for (row, coeff) in self.prob.csc.col(var) {
                a[row * m + col_idx] = coeff;
            }
        }
        let mut inv = vec![0.0; m * m];
        for i in 0..m {
            inv[i * m + i] = 1.0;
        }
        for col in 0..m {
            // Partial pivoting.
            let mut best = col;
            for r in col + 1..m {
                if a[r * m + col].abs() > a[best * m + col].abs() {
                    best = r;
                }
            }
            if a[best * m + col].abs() < PIVOT_TOL {
                return false;
            }
            if best != col {
                for k in 0..m {
                    a.swap(col * m + k, best * m + k);
                    inv.swap(col * m + k, best * m + k);
                }
            }
            let p = a[col * m + col];
            for k in 0..m {
                a[col * m + k] /= p;
                inv[col * m + k] /= p;
            }
            for r in 0..m {
                if r == col {
                    continue;
                }
                let f = a[r * m + col];
                if f == 0.0 {
                    continue;
                }
                for k in 0..m {
                    a[r * m + k] -= f * a[col * m + k];
                    inv[r * m + k] -= f * inv[col * m + k];
                }
            }
        }
        self.binv = inv;
        self.refactorizations += 1;
        true
    }

    /// Total bound violation over basic variables (phase-1 objective).
    fn infeasibility(&self) -> f64 {
        self.basis
            .iter()
            .map(|&v| {
                let x = self.x[v];
                (self.prob.lo[v] - x).max(0.0) + (x - self.prob.hi[v]).max(0.0)
            })
            .sum()
    }

    /// Phase-1 cost of a basic variable given its current value.
    fn phase1_cost(&self, var: usize) -> f64 {
        let x = self.x[var];
        if x > self.prob.hi[var] + FEAS_TOL {
            1.0
        } else if x < self.prob.lo[var] - FEAS_TOL {
            -1.0
        } else {
            0.0
        }
    }

    /// `y = c_B^T B⁻¹` for the given basic cost vector.
    fn duals(&self, cb: &[f64]) -> Vec<f64> {
        let m = self.m;
        let mut y = vec![0.0; m];
        for (i, &c) in cb.iter().enumerate() {
            if c == 0.0 {
                continue;
            }
            let row = &self.binv[i * m..(i + 1) * m];
            for (k, &b) in row.iter().enumerate() {
                y[k] += c * b;
            }
        }
        y
    }

    /// `α = B⁻¹ A_j`.
    fn ftran(&self, col: usize) -> Vec<f64> {
        let m = self.m;
        let mut alpha = vec![0.0; m];
        for (row, a) in self.prob.csc.col(col) {
            if a == 0.0 {
                continue;
            }
            for i in 0..m {
                alpha[i] += self.binv[i * m + row] * a;
            }
        }
        alpha
    }

    /// One simplex iteration for the given variable costs.
    /// `phase1` relaxes the ratio test so infeasible basics block only at
    /// the bound they currently violate.
    /// Returns `true` if a step was taken, `false` at (phase-)optimality.
    fn iterate(&mut self, costs: &[f64], phase1: bool) -> Result<bool, SimplexNumerics> {
        let bland = self.degenerate_streak >= BLAND_AFTER;
        let cb: Vec<f64> = self.basis.iter().map(|&v| costs[v]).collect();
        let y = self.duals(&cb);

        // Dantzig pricing: pick the most improving nonbasic column.
        let mut entering: Option<(usize, f64, bool)> = None; // (var, |d|, increase)
        for j in 0..self.prob.num_vars() {
            let dir = match self.status[j] {
                VarStatus::Basic(_) => continue,
                VarStatus::Lower => true,
                VarStatus::Upper => false,
            };
            if self.prob.hi[j] - self.prob.lo[j] < FEAS_TOL {
                continue; // fixed variable can never improve
            }
            let mut d = costs[j];
            for (row, a) in self.prob.csc.col(j) {
                d -= y[row] * a;
            }
            let improving = if dir { d < -COST_TOL } else { d > COST_TOL };
            if !improving {
                continue;
            }
            if bland {
                entering = Some((j, d.abs(), dir));
                break;
            }
            if entering.as_ref().is_none_or(|&(_, best, _)| d.abs() > best) {
                entering = Some((j, d.abs(), dir));
            }
        }
        let Some((j, _, increase)) = entering else {
            return Ok(false);
        };

        let alpha = self.ftran(j);
        // Basic variable i changes at rate `rate_i` per unit step t>=0.
        // increase: x_j := lo_j + t  => x_B -= alpha t   (rate -alpha)
        // decrease: x_j := hi_j - t  => x_B += alpha t   (rate +alpha)
        let sign = if increase { -1.0 } else { 1.0 };

        let mut t_limit = self.prob.hi[j] - self.prob.lo[j]; // bound flip
        let mut leaving: Option<(usize, f64, bool)> = None; // (row, |pivot|, at_upper)
        for (i, &a) in alpha.iter().enumerate() {
            let rate = sign * a;
            if rate.abs() < PIVOT_TOL {
                continue;
            }
            let v = self.basis[i];
            let xv = self.x[v];
            let (limit, at_upper) = if rate > 0.0 {
                // Variable increases: blocks at its upper bound. In phase 1 a
                // basic below its lower bound blocks at the *lower* bound
                // (where it becomes feasible).
                if phase1 && xv < self.prob.lo[v] - FEAS_TOL {
                    ((self.prob.lo[v] - xv) / rate, false)
                } else {
                    ((self.prob.hi[v] - xv) / rate, true)
                }
            } else {
                // Variable decreases: blocks at its lower bound; in phase 1 a
                // basic above its upper bound blocks at the upper bound.
                if phase1 && xv > self.prob.hi[v] + FEAS_TOL {
                    ((self.prob.hi[v] - xv) / rate, true)
                } else {
                    ((self.prob.lo[v] - xv) / rate, false)
                }
            };
            let limit = limit.max(0.0);
            let replace = match leaving {
                _ if limit > t_limit + FEAS_TOL => false,
                None => limit < t_limit - FEAS_TOL || limit <= t_limit,
                Some((row, best_piv, _)) => {
                    if limit < t_limit - FEAS_TOL {
                        true
                    } else if bland {
                        self.basis[i] < self.basis[row]
                    } else {
                        rate.abs() > best_piv
                    }
                }
            };
            if replace {
                if limit < t_limit {
                    t_limit = limit;
                }
                leaving = Some((i, rate.abs(), at_upper));
            }
        }

        let t = t_limit.max(0.0);
        if t < FEAS_TOL {
            self.degenerate_streak += 1;
            if self.degenerate_streak > BLAND_AFTER * 64 {
                return Err(SimplexNumerics);
            }
        } else {
            self.degenerate_streak = 0;
        }

        // Apply the step to all basic variables.
        for (i, &a) in alpha.iter().enumerate() {
            let rate = sign * a;
            if rate != 0.0 {
                let v = self.basis[i];
                self.x[v] += rate * t;
            }
        }

        match leaving {
            None => {
                // Bound flip: entering variable runs to its other bound.
                self.status[j] = if increase {
                    self.x[j] = self.prob.hi[j];
                    VarStatus::Upper
                } else {
                    self.x[j] = self.prob.lo[j];
                    VarStatus::Lower
                };
            }
            Some((row, _, at_upper)) => {
                let piv = alpha[row];
                if piv.abs() < PIVOT_TOL {
                    return Err(SimplexNumerics);
                }
                // Entering variable takes its new value.
                self.x[j] = if increase {
                    self.prob.lo[j] + t
                } else {
                    self.prob.hi[j] - t
                };
                // Leaving variable snaps exactly to its blocking bound.
                let leave_var = self.basis[row];
                self.x[leave_var] = if at_upper {
                    self.prob.hi[leave_var]
                } else {
                    self.prob.lo[leave_var]
                };
                self.status[leave_var] = if at_upper {
                    VarStatus::Upper
                } else {
                    VarStatus::Lower
                };
                self.status[j] = VarStatus::Basic(row);
                self.basis[row] = j;
                // Update B⁻¹: eliminate the entering column.
                let m = self.m;
                let pivot_row: Vec<f64> = (0..m).map(|k| self.binv[row * m + k] / piv).collect();
                for i in 0..m {
                    if i == row {
                        continue;
                    }
                    let f = alpha[i];
                    if f == 0.0 {
                        continue;
                    }
                    for k in 0..m {
                        self.binv[i * m + k] -= f * pivot_row[k];
                    }
                }
                self.binv[row * m..(row + 1) * m].copy_from_slice(&pivot_row);
            }
        }
        Ok(true)
    }
}

/// Internal marker for numerical breakdown (triggers refactorize/retry).
struct SimplexNumerics;

/// Solves a standard-form LP with the dense baseline engine (always a
/// cold start from the all-slack basis; any warm basis is ignored by the
/// dispatching caller).
pub(crate) fn solve_lp_dense(
    prob: &LpProblem,
    max_iters: usize,
    deadline: Option<std::time::Instant>,
    cancel: Option<&crate::Cancellation>,
) -> LpResult {
    debug_assert!(prob.num_vars() >= prob.num_rows());
    let mut t = Tableau::new(prob);
    let mut iters = 0usize;

    let cancelled = |iters: usize| {
        iters % CANCEL_POLL_EVERY == 0
            && (cancel.is_some_and(crate::Cancellation::is_expired)
                || deadline.is_some_and(|d| std::time::Instant::now() > d))
    };
    macro_rules! done {
        ($outcome:expr) => {
            return LpResult {
                outcome: $outcome,
                iterations: iters,
                refactorizations: t.refactorizations,
            }
        };
    }

    // Phase 1: drive out infeasibility. Costs are recomputed every
    // iteration because they depend on which basics are out of bounds.
    while t.infeasibility() > FEAS_TOL * (1.0 + t.m as f64) {
        if iters >= max_iters {
            done!(LpOutcome::IterLimit);
        }
        if cancelled(iters) {
            done!(LpOutcome::Cancelled);
        }
        iters += 1;
        if iters % REFACTOR_EVERY == 0 && t.refactorize() {
            t.recompute_basics();
        }
        let mut costs = vec![0.0; prob.num_vars()];
        for &v in &t.basis {
            costs[v] = t.phase1_cost(v);
        }
        match t.iterate(&costs, true) {
            Ok(true) => {}
            Ok(false) => {
                // Phase-1 optimal with residual infeasibility: no solution.
                if t.infeasibility() > 1e-5 {
                    done!(LpOutcome::Infeasible);
                }
                // Numerically tiny residual: accept and continue.
                break;
            }
            Err(SimplexNumerics) => {
                if !t.refactorize() {
                    done!(LpOutcome::Numerics);
                }
                t.recompute_basics();
            }
        }
    }

    // Phase 2: optimize the true objective from the feasible basis.
    loop {
        if iters >= max_iters {
            done!(LpOutcome::IterLimit);
        }
        if cancelled(iters) {
            done!(LpOutcome::Cancelled);
        }
        iters += 1;
        if iters % REFACTOR_EVERY == 0 && t.refactorize() {
            t.recompute_basics();
        }
        match t.iterate(&prob.cost, false) {
            Ok(true) => {
                // A phase-2 step must never reintroduce infeasibility; if it
                // does (numerics), refactorize and clean up.
                if t.infeasibility() > 1e-5 {
                    if !t.refactorize() {
                        done!(LpOutcome::Numerics);
                    }
                    t.recompute_basics();
                    if t.infeasibility() > 1e-5 {
                        // Fall back to a fresh phase-1 pass.
                        if let Some(out) =
                            resume_phase1(&mut t, &mut iters, max_iters, deadline, cancel)
                        {
                            done!(out);
                        }
                    }
                }
            }
            Ok(false) => break,
            Err(SimplexNumerics) => {
                if !t.refactorize() {
                    done!(LpOutcome::Numerics);
                }
                t.recompute_basics();
            }
        }
    }

    let objective = prob.cost.iter().zip(&t.x).map(|(c, x)| c * x).sum::<f64>();
    let basis = Basis {
        status: t.status.clone(),
        basis: t.basis.clone(),
    };
    done!(LpOutcome::Optimal {
        x: t.x,
        objective,
        basis,
    });
}

fn resume_phase1(
    t: &mut Tableau,
    iters: &mut usize,
    max_iters: usize,
    deadline: Option<std::time::Instant>,
    cancel: Option<&crate::Cancellation>,
) -> Option<LpOutcome> {
    while t.infeasibility() > FEAS_TOL * (1.0 + t.m as f64) {
        if *iters >= max_iters {
            return Some(LpOutcome::IterLimit);
        }
        let expired = *iters % CANCEL_POLL_EVERY == 0
            && (cancel.is_some_and(crate::Cancellation::is_expired)
                || deadline.is_some_and(|d| std::time::Instant::now() > d));
        if expired {
            return Some(LpOutcome::Cancelled);
        }
        *iters += 1;
        let mut costs = vec![0.0; t.prob.num_vars()];
        for &v in &t.basis {
            costs[v] = t.phase1_cost(v);
        }
        match t.iterate(&costs, true) {
            Ok(true) => {}
            Ok(false) => return Some(LpOutcome::Infeasible),
            Err(SimplexNumerics) => {
                if !t.refactorize() {
                    return Some(LpOutcome::Numerics);
                }
                t.recompute_basics();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::tests::build;

    fn assert_optimal(prob: &LpProblem, expect_obj: f64) -> Vec<f64> {
        match solve_lp_dense(prob, 10_000, None, None).outcome {
            LpOutcome::Optimal { x, objective, .. } => {
                assert!(
                    (objective - expect_obj).abs() < 1e-5,
                    "objective {objective} != {expect_obj}"
                );
                x
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn dense_classic_max_lp() {
        let p = build(
            &[-3.0, -5.0],
            &[(0.0, 100.0), (0.0, 100.0)],
            &[
                (&[1.0, 0.0], -1, 4.0),
                (&[0.0, 2.0], -1, 12.0),
                (&[3.0, 2.0], -1, 18.0),
            ],
        );
        let x = assert_optimal(&p, -36.0);
        assert!((x[0] - 2.0).abs() < 1e-6);
        assert!((x[1] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn dense_equality_constraints_phase1() {
        let p = build(
            &[2.0, 3.0],
            &[(0.0, 100.0), (0.0, 100.0)],
            &[(&[1.0, 1.0], 0, 10.0), (&[1.0, -1.0], 0, 2.0)],
        );
        let x = assert_optimal(&p, 24.0);
        assert!((x[0] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn dense_infeasible_detected() {
        let p = build(
            &[1.0],
            &[(0.0, 10.0)],
            &[(&[1.0], -1, 1.0), (&[1.0], 1, 3.0)],
        );
        assert!(matches!(
            solve_lp_dense(&p, 10_000, None, None).outcome,
            LpOutcome::Infeasible
        ));
    }

    #[test]
    fn dense_deadline_trips_as_cancelled() {
        let p = build(
            &[-3.0, -5.0],
            &[(0.0, 100.0), (0.0, 100.0)],
            &[
                (&[1.0, 0.0], -1, 4.0),
                (&[0.0, 2.0], -1, 12.0),
                (&[3.0, 2.0], -1, 18.0),
            ],
        );
        let past = std::time::Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(matches!(
            solve_lp_dense(&p, 10_000, Some(past), None).outcome,
            LpOutcome::Cancelled
        ));
    }

    #[test]
    fn dense_optimum_matches_sparse_on_transportation() {
        let p = build(
            &[4.0, 6.0, 2.0, 3.0],
            &[(0.0, 10.0); 4],
            &[
                (&[1.0, 1.0, 0.0, 0.0], 0, 3.0),
                (&[0.0, 0.0, 1.0, 1.0], 0, 4.0),
                (&[1.0, 0.0, 1.0, 0.0], 0, 5.0),
                (&[0.0, 1.0, 0.0, 1.0], 0, 2.0),
            ],
        );
        assert_optimal(&p, 22.0);
        let sparse = crate::simplex::solve_lp(&p, 10_000, None, None, None);
        let LpOutcome::Optimal { objective, .. } = sparse.outcome else {
            panic!("sparse engine must agree");
        };
        assert!((objective - 22.0).abs() < 1e-5);
    }
}
