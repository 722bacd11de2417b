#![allow(clippy::needless_range_loop)] // factorization kernels read clearer indexed

//! Bounded-variable two-phase primal **revised** simplex over sparse
//! columns.
//!
//! The solver works on an internal standard form: minimize `c·x` subject to
//! `A x = b` with finite bounds `lo ≤ x ≤ hi` on every variable (slack
//! columns included — their bounds encode the original sense). It is the
//! crate's one LP engine. Compared to its dense predecessor (kept only as
//! a test oracle) this core:
//!
//! - stores the constraint matrix in **CSC** (compressed sparse column)
//!   form — one flat `(row, value)` stream with column pointers — so
//!   pricing and FTRAN touch only structural nonzeros;
//! - represents the basis inverse as an **LU factorization plus an
//!   eta-file** (product-form updates): each pivot appends one sparse eta
//!   vector instead of rewriting an m×m inverse, and the basis is
//!   refactorized from scratch every [`REFACTOR_EVERY`] pivots (or on
//!   numerical breakdown) for hygiene;
//! - prices with **devex** reference weights instead of Dantzig's rule,
//!   falling back to Bland's rule under prolonged degeneracy;
//! - accepts a **warm-start basis** (and returns the optimal basis), the
//!   hook branch-and-bound uses to re-solve child LPs in a handful of
//!   iterations instead of from the all-slack basis.

/// Feasibility / optimality tolerance on variable values.
const FEAS_TOL: f64 = 1e-7;
/// Reduced-cost tolerance.
const COST_TOL: f64 = 1e-7;
/// Minimum pivot magnitude.
const PIVOT_TOL: f64 = 1e-9;
/// Eta vectors accumulated between basis refactorizations.
pub(crate) const REFACTOR_EVERY: usize = 96;

/// How often the LP loops poll the caller's cancellation token; a clock
/// read every 64 iterations is noise next to the algebra.
const CANCEL_POLL_EVERY: usize = 64;
/// Degenerate iterations before switching to Bland's rule.
const BLAND_AFTER: usize = 64;
/// Devex weights above this trigger a reference-framework reset.
const DEVEX_RESET: f64 = 1e12;

/// A sparse column of the constraint matrix, as `(row, value)` pairs in
/// strictly increasing row order.
pub(crate) type SparseCol = Vec<(usize, f64)>;

/// Compressed sparse column storage for the constraint matrix.
#[derive(Debug, Clone)]
pub(crate) struct Csc {
    /// `col_ptr[j]..col_ptr[j+1]` slices `row_idx`/`val` for column `j`.
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    val: Vec<f64>,
}

impl Csc {
    /// Flattens per-column `(row, value)` lists into CSC form.
    fn from_cols(m: usize, cols: &[SparseCol]) -> Csc {
        let nnz: usize = cols.iter().map(Vec::len).sum();
        let mut col_ptr = Vec::with_capacity(cols.len() + 1);
        let mut row_idx = Vec::with_capacity(nnz);
        let mut val = Vec::with_capacity(nnz);
        col_ptr.push(0);
        for col in cols {
            debug_assert!(
                col.windows(2).all(|w| w[0].0 < w[1].0),
                "column rows must be strictly increasing"
            );
            for &(row, a) in col {
                debug_assert!(row < m, "row {row} out of range for {m} rows");
                if a != 0.0 {
                    row_idx.push(row);
                    val.push(a);
                }
            }
            col_ptr.push(row_idx.len());
        }
        Csc {
            col_ptr,
            row_idx,
            val,
        }
    }

    fn num_cols(&self) -> usize {
        self.col_ptr.len() - 1
    }

    /// Iterates column `j` as `(row, value)` pairs.
    pub(crate) fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        self.row_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.val[lo..hi].iter().copied())
    }
}

/// Standard-form LP: minimize `cost·x` s.t. `A x = b`, `lo ≤ x ≤ hi`.
#[derive(Debug, Clone)]
pub(crate) struct LpProblem {
    pub csc: Csc,
    pub cost: Vec<f64>,
    pub lo: Vec<f64>,
    pub hi: Vec<f64>,
    pub b: Vec<f64>,
}

impl LpProblem {
    /// Builds the problem from per-column sparse lists (rows ascending).
    pub(crate) fn from_cols(
        cols: &[SparseCol],
        cost: Vec<f64>,
        lo: Vec<f64>,
        hi: Vec<f64>,
        b: Vec<f64>,
    ) -> LpProblem {
        let csc = Csc::from_cols(b.len(), cols);
        debug_assert_eq!(csc.num_cols(), cost.len());
        LpProblem {
            csc,
            cost,
            lo,
            hi,
            b,
        }
    }

    pub(crate) fn num_rows(&self) -> usize {
        self.b.len()
    }

    pub(crate) fn num_vars(&self) -> usize {
        self.cost.len()
    }
}

/// Basic/nonbasic state of one standard-form variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VarStatus {
    /// Basic, occupying the given row of the basis.
    Basic(usize),
    /// Nonbasic at its lower bound.
    Lower,
    /// Nonbasic at its upper bound.
    Upper,
}

/// A simplex basis: enough state to warm-start a related LP (same columns,
/// possibly different bounds) from a previous optimum.
#[derive(Debug, Clone)]
pub(crate) struct Basis {
    /// Per-variable status.
    pub status: Vec<VarStatus>,
    /// Variable occupying each basis row.
    pub basis: Vec<usize>,
}

impl Basis {
    /// Structural sanity check against a problem's dimensions.
    fn fits(&self, prob: &LpProblem) -> bool {
        self.status.len() == prob.num_vars()
            && self.basis.len() == prob.num_rows()
            && self
                .basis
                .iter()
                .enumerate()
                .all(|(row, &v)| v < self.status.len() && self.status[v] == VarStatus::Basic(row))
            && self
                .status
                .iter()
                .filter(|s| matches!(s, VarStatus::Basic(_)))
                .count()
                == self.basis.len()
    }
}

/// Result of an LP solve.
#[derive(Debug, Clone)]
pub(crate) enum LpOutcome {
    /// Optimal solution found; `x` covers every standard-form variable and
    /// `basis` can warm-start a neighbouring LP.
    Optimal {
        x: Vec<f64>,
        objective: f64,
        basis: Basis,
    },
    /// No feasible point exists.
    Infeasible,
    /// Genuine iteration exhaustion: `max_iters` pivots without
    /// convergence. Poisons proof claims upstream.
    IterLimit,
    /// The caller's deadline or cancellation token tripped mid-solve: a
    /// clean budget stop, *not* a solver failure.
    Cancelled,
    /// Numerical breakdown (singular basis that refactorization could not
    /// repair). Poisons proof claims upstream.
    Numerics,
}

/// An LP outcome plus the effort it took.
#[derive(Debug, Clone)]
pub(crate) struct LpResult {
    pub outcome: LpOutcome,
    /// Simplex iterations (phase 1 + phase 2).
    pub iterations: usize,
    /// Basis (re)factorizations, the initial one included.
    pub refactorizations: usize,
}

/// Dense row-major LU factors of the basis matrix with partial pivoting:
/// `P·B = L·U`, L unit-lower (strict part stored below the diagonal), U
/// upper. Solves skip zero right-hand-side entries, so FTRANs of sparse
/// columns stay cheap even though storage is dense.
struct LuFactors {
    m: usize,
    lu: Vec<f64>,
    /// Row swapped with row `k` at elimination step `k`.
    piv: Vec<usize>,
}

impl LuFactors {
    /// Factorizes the basis columns of `prob`; `None` when singular.
    fn factorize(prob: &LpProblem, basis: &[usize]) -> Option<LuFactors> {
        let m = basis.len();
        let mut lu = vec![0.0; m * m];
        for (col_idx, &var) in basis.iter().enumerate() {
            for (row, a) in prob.csc.col(var) {
                lu[row * m + col_idx] = a;
            }
        }
        let mut piv = vec![0; m];
        for k in 0..m {
            let mut best = k;
            let mut best_abs = lu[k * m + k].abs();
            for r in k + 1..m {
                let a = lu[r * m + k].abs();
                if a > best_abs {
                    best = r;
                    best_abs = a;
                }
            }
            if best_abs < PIVOT_TOL {
                return None;
            }
            piv[k] = best;
            if best != k {
                for c in 0..m {
                    lu.swap(k * m + c, best * m + c);
                }
            }
            let pivot = lu[k * m + k];
            for r in k + 1..m {
                let e = lu[r * m + k];
                if e == 0.0 {
                    continue; // sparse skip: most basis columns are slacks
                }
                let f = e / pivot;
                lu[r * m + k] = f;
                for c in k + 1..m {
                    let u = lu[k * m + c];
                    if u != 0.0 {
                        lu[r * m + c] -= f * u;
                    }
                }
            }
        }
        Some(LuFactors { m, lu, piv })
    }

    /// Solves `B x = rhs` in place.
    fn solve(&self, x: &mut [f64]) {
        let m = self.m;
        for k in 0..m {
            let p = self.piv[k];
            if p != k {
                x.swap(k, p);
            }
        }
        // L forward solve (unit diagonal), column-oriented to skip zeros.
        for k in 0..m {
            let xk = x[k];
            if xk == 0.0 {
                continue;
            }
            for r in k + 1..m {
                let l = self.lu[r * m + k];
                if l != 0.0 {
                    x[r] -= l * xk;
                }
            }
        }
        // U back solve, column-oriented.
        for k in (0..m).rev() {
            let xk = x[k] / self.lu[k * m + k];
            x[k] = xk;
            if xk == 0.0 {
                continue;
            }
            for r in 0..k {
                let u = self.lu[r * m + k];
                if u != 0.0 {
                    x[r] -= u * xk;
                }
            }
        }
    }

    /// Solves `Bᵀ y = rhs` in place.
    fn solve_transpose(&self, x: &mut [f64]) {
        let m = self.m;
        // Uᵀ forward solve (Uᵀ is lower-triangular).
        for k in 0..m {
            let xk = x[k] / self.lu[k * m + k];
            x[k] = xk;
            if xk == 0.0 {
                continue;
            }
            for c in k + 1..m {
                let u = self.lu[k * m + c];
                if u != 0.0 {
                    x[c] -= u * xk;
                }
            }
        }
        // Lᵀ back solve (unit diagonal).
        for k in (0..m).rev() {
            let xk = x[k];
            if xk == 0.0 {
                continue;
            }
            for r in 0..k {
                let l = self.lu[k * m + r];
                if l != 0.0 {
                    x[r] -= l * xk;
                }
            }
        }
        for k in (0..m).rev() {
            let p = self.piv[k];
            if p != k {
                x.swap(k, p);
            }
        }
    }
}

/// One product-form update: after a pivot on row `row` with column
/// `alpha`, the new basis inverse is `E·B⁻¹` where `E` is the identity
/// with column `row` replaced by the eta vector stored here.
struct Eta {
    row: usize,
    /// `1 / alpha[row]`.
    diag: f64,
    /// `(i, -alpha[i] / alpha[row])` for `i != row`, nonzeros only.
    entries: Vec<(usize, f64)>,
}

impl Eta {
    fn from_pivot(alpha: &[f64], row: usize) -> Eta {
        let piv = alpha[row];
        let diag = 1.0 / piv;
        let entries = alpha
            .iter()
            .enumerate()
            .filter(|&(i, &a)| i != row && a != 0.0)
            .map(|(i, &a)| (i, -a * diag))
            .collect();
        Eta { row, diag, entries }
    }

    /// `x := E x` (FTRAN step).
    fn ftran(&self, x: &mut [f64]) {
        let t = x[self.row];
        if t == 0.0 {
            return;
        }
        x[self.row] = self.diag * t;
        for &(i, v) in &self.entries {
            x[i] += v * t;
        }
    }

    /// `y := Eᵀ y` (BTRAN step).
    fn btran(&self, x: &mut [f64]) {
        let mut v = self.diag * x[self.row];
        for &(i, w) in &self.entries {
            v += w * x[i];
        }
        x[self.row] = v;
    }
}

struct Tableau<'a> {
    prob: &'a LpProblem,
    m: usize,
    lu: LuFactors,
    etas: Vec<Eta>,
    /// Variable occupying each basis row.
    basis: Vec<usize>,
    status: Vec<VarStatus>,
    /// Current value of every variable.
    x: Vec<f64>,
    /// Devex reference weights, per variable.
    devex: Vec<f64>,
    degenerate_streak: usize,
    refactorizations: usize,
}

impl<'a> Tableau<'a> {
    /// Builds the tableau from a warm-start basis when one is given and
    /// still factorizes; otherwise from the all-slack basis (the *last*
    /// `m` columns form an identity block, guaranteed by the caller).
    fn new(prob: &'a LpProblem, warm: Option<&Basis>) -> Tableau<'a> {
        let m = prob.num_rows();
        let n = prob.num_vars();
        let warm = warm.filter(|b| b.fits(prob));
        let (status, basis, lu) = match warm {
            Some(b) => match LuFactors::factorize(prob, &b.basis) {
                Some(lu) => (b.status.clone(), b.basis.clone(), Some(lu)),
                None => Tableau::all_slack(prob),
            },
            None => Tableau::all_slack(prob),
        };
        let lu = lu.expect("the all-slack identity basis always factorizes");
        let mut x = vec![0.0; n];
        for j in 0..n {
            match status[j] {
                VarStatus::Basic(_) => {}
                VarStatus::Lower => x[j] = prob.lo[j],
                VarStatus::Upper => x[j] = prob.hi[j],
            }
        }
        let mut t = Tableau {
            prob,
            m,
            lu,
            etas: Vec::new(),
            basis,
            status,
            x,
            devex: vec![1.0; n],
            degenerate_streak: 0,
            refactorizations: 1,
        };
        t.recompute_basics();
        t
    }

    /// The all-slack starting basis with nonbasics at the bound nearer
    /// zero (keeps initial activities small).
    fn all_slack(prob: &LpProblem) -> (Vec<VarStatus>, Vec<usize>, Option<LuFactors>) {
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
        for j in 0..n - m {
            if prob.lo[j].abs() > prob.hi[j].abs() {
                status[j] = VarStatus::Upper;
            }
        }
        let lu = LuFactors::factorize(prob, &basis);
        (status, basis, lu)
    }

    /// Extracts the basis for warm-starting a neighbouring LP.
    fn snapshot(&self) -> Basis {
        Basis {
            status: self.status.clone(),
            basis: self.basis.clone(),
        }
    }

    /// `α := B⁻¹ rhs` in place, through the LU factors and the eta file.
    fn ftran(&self, x: &mut [f64]) {
        self.lu.solve(x);
        for eta in &self.etas {
            eta.ftran(x);
        }
    }

    /// `y := B⁻ᵀ rhs` in place (etas in reverse, then the factors).
    fn btran(&self, x: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            eta.btran(x);
        }
        self.lu.solve_transpose(x);
    }

    /// `α = B⁻¹ A_j` for a structural column.
    fn ftran_col(&self, j: usize) -> Vec<f64> {
        let mut alpha = vec![0.0; self.m];
        for (row, a) in self.prob.csc.col(j) {
            alpha[row] = a;
        }
        self.ftran(&mut alpha);
        alpha
    }

    /// Recomputes basic variable values `x_B = B⁻¹ (b − N x_N)`.
    fn recompute_basics(&mut self) {
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
        self.ftran(&mut rhs);
        for (i, v) in rhs.into_iter().enumerate() {
            self.x[self.basis[i]] = v;
        }
    }

    /// Refactorizes the basis from scratch, clearing the eta file.
    /// Returns `false` when the basis matrix is numerically singular (the
    /// previous factors are kept in that case).
    fn refactorize(&mut self) -> bool {
        match LuFactors::factorize(self.prob, &self.basis) {
            Some(lu) => {
                self.lu = lu;
                self.etas.clear();
                self.refactorizations += 1;
                true
            }
            None => false,
        }
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

    /// `y = B⁻ᵀ c_B` for the given basic cost vector.
    fn duals(&self, cb: &[f64]) -> Vec<f64> {
        let mut y = cb.to_vec();
        self.btran(&mut y);
        y
    }

    /// Devex weight maintenance after a pivot: entering column `q` took
    /// over row `r` from `leave_var`, with tableau column `alpha`.
    fn update_devex(&mut self, q: usize, r: usize, leave_var: usize, alpha: &[f64]) {
        let ar = alpha[r];
        let wq = self.devex[q].max(1.0);
        // Pivot row of the tableau over nonbasic columns: ρ = eᵣᵀ B⁻¹ A.
        let mut z = vec![0.0; self.m];
        z[r] = 1.0;
        self.btran(&mut z);
        let scale = wq / (ar * ar);
        let mut overflow = false;
        for j in 0..self.prob.num_vars() {
            if j == q || matches!(self.status[j], VarStatus::Basic(_)) {
                continue;
            }
            let mut rho = 0.0;
            for (row, a) in self.prob.csc.col(j) {
                let zr = z[row];
                if zr != 0.0 {
                    rho += zr * a;
                }
            }
            if rho != 0.0 {
                let cand = rho * rho * scale;
                if cand > self.devex[j] {
                    self.devex[j] = cand;
                    overflow |= cand > DEVEX_RESET;
                }
            }
        }
        let lw = scale.max(1.0);
        self.devex[leave_var] = lw;
        if overflow || lw > DEVEX_RESET {
            // Start a fresh reference framework.
            self.devex.fill(1.0);
        }
    }

    /// One simplex iteration for the given variable costs.
    /// `phase1` relaxes the ratio test so infeasible basics block only at
    /// the bound they currently violate.
    /// Returns `true` if a step was taken, `false` at (phase-)optimality.
    fn iterate(&mut self, costs: &[f64], phase1: bool) -> Result<bool, SimplexNumerics> {
        let bland = self.degenerate_streak >= BLAND_AFTER;
        let cb: Vec<f64> = self.basis.iter().map(|&v| costs[v]).collect();
        let y = self.duals(&cb);

        // Devex pricing: among improving nonbasic columns, maximize
        // d²/weight (Bland: lowest index, unweighted).
        let mut entering: Option<(usize, f64, bool)> = None; // (var, score, increase)
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
                let yr = y[row];
                if yr != 0.0 {
                    d -= yr * a;
                }
            }
            let improving = if dir { d < -COST_TOL } else { d > COST_TOL };
            if !improving {
                continue;
            }
            if bland {
                entering = Some((j, d * d, dir));
                break;
            }
            let score = d * d / self.devex[j];
            if entering.as_ref().is_none_or(|&(_, best, _)| score > best) {
                entering = Some((j, score, dir));
            }
        }
        let Some((j, _, increase)) = entering else {
            return Ok(false);
        };

        let alpha = self.ftran_col(j);
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
                if !bland {
                    // Weight updates need the *pre-pivot* basis inverse.
                    let leave_var = self.basis[row];
                    self.update_devex(j, row, leave_var, &alpha);
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
                // Product-form update: one sparse eta instead of an m×m
                // inverse rewrite.
                self.etas.push(Eta::from_pivot(&alpha, row));
            }
        }
        Ok(true)
    }
}

/// Internal marker for numerical breakdown (triggers refactorize/retry).
struct SimplexNumerics;

/// Solves a standard-form LP.
///
/// The last `b.len()` columns must form an identity (the slack block built
/// by the caller). With `warm = None` the solve starts from the all-slack
/// basis; a warm basis from a related LP (same columns, possibly tightened
/// bounds) typically converges in a handful of phase-1/phase-2 pivots. A
/// warm basis that no longer fits or factorizes falls back to cold start.
pub(crate) fn solve_lp(
    prob: &LpProblem,
    max_iters: usize,
    deadline: Option<std::time::Instant>,
    cancel: Option<&crate::Cancellation>,
    warm: Option<&Basis>,
) -> LpResult {
    debug_assert!(prob.num_vars() >= prob.num_rows());
    let mut t = Tableau::new(prob, warm);
    let mut iters = 0usize;

    // On large models a single degenerate LP can grind through the full
    // iteration limit for minutes — far past any caller deadline that is
    // only checked between branch-and-bound nodes. So the iteration loops
    // poll the caller's deadline and cancellation token as well (every
    // CANCEL_POLL_EVERY iterations; one iteration is O(m·nnz) algebra, so
    // the clock read is noise). A trip reports `Cancelled` — a clean
    // budget stop the branch-and-bound must *not* count as a failed or
    // abandoned subtree.
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
        if t.etas.len() >= REFACTOR_EVERY {
            if !t.refactorize() {
                done!(LpOutcome::Numerics);
            }
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
                t.degenerate_streak = BLAND_AFTER; // keep Bland engaged
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
        if t.etas.len() >= REFACTOR_EVERY {
            if !t.refactorize() {
                done!(LpOutcome::Numerics);
            }
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
                t.degenerate_streak = BLAND_AFTER;
            }
        }
    }

    let objective = prob.cost.iter().zip(&t.x).map(|(c, x)| c * x).sum::<f64>();
    let basis = t.snapshot();
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
        if t.etas.len() >= REFACTOR_EVERY {
            if !t.refactorize() {
                return Some(LpOutcome::Numerics);
            }
            t.recompute_basics();
        }
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
                t.degenerate_streak = BLAND_AFTER;
            }
        }
    }
    None
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Builds a standard-form problem from dense rows `a·x (sense) b` with
    /// auto-generated slack columns. sense: -1 ≤, 0 =, +1 ≥.
    pub(crate) fn build(
        cost: &[f64],
        bounds: &[(f64, f64)],
        rows: &[(&[f64], i8, f64)],
    ) -> LpProblem {
        let n = cost.len();
        let m = rows.len();
        let mut cols: Vec<SparseCol> = vec![Vec::new(); n];
        let mut b = Vec::with_capacity(m);
        for (r, &(coeffs, _, rhs)) in rows.iter().enumerate() {
            assert_eq!(coeffs.len(), n);
            for (j, &a) in coeffs.iter().enumerate() {
                if a != 0.0 {
                    cols[j].push((r, a));
                }
            }
            b.push(rhs);
        }
        let mut lo: Vec<f64> = bounds.iter().map(|b| b.0).collect();
        let mut hi: Vec<f64> = bounds.iter().map(|b| b.1).collect();
        let mut full_cost = cost.to_vec();
        const BIG: f64 = 1e9;
        for (r, &(_, sense, _)) in rows.iter().enumerate() {
            cols.push(vec![(r, 1.0)]);
            full_cost.push(0.0);
            match sense {
                -1 => {
                    lo.push(0.0);
                    hi.push(BIG);
                }
                0 => {
                    lo.push(0.0);
                    hi.push(0.0);
                }
                1 => {
                    lo.push(-BIG);
                    hi.push(0.0);
                }
                _ => unreachable!(),
            }
        }
        LpProblem::from_cols(&cols, full_cost, lo, hi, b)
    }

    fn assert_optimal(prob: &LpProblem, expect_obj: f64) -> Vec<f64> {
        match solve_lp(prob, 10_000, None, None, None).outcome {
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
    fn trivial_min_at_lower_bounds() {
        // min x + y, x,y in [1,5], no constraints beyond a loose row.
        let p = build(
            &[1.0, 1.0],
            &[(1.0, 5.0), (1.0, 5.0)],
            &[(&[1.0, 1.0], -1, 100.0)],
        );
        let x = assert_optimal(&p, 2.0);
        assert!((x[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn classic_max_lp() {
        // max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18  (Dantzig's example),
        // optimum 36 at (2, 6). As minimization of -obj.
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
    fn equality_constraints_phase1() {
        // min 2x + 3y s.t. x + y = 10, x - y = 2 -> x=6, y=4, obj 24.
        let p = build(
            &[2.0, 3.0],
            &[(0.0, 100.0), (0.0, 100.0)],
            &[(&[1.0, 1.0], 0, 10.0), (&[1.0, -1.0], 0, 2.0)],
        );
        let x = assert_optimal(&p, 24.0);
        assert!((x[0] - 6.0).abs() < 1e-6);
        assert!((x[1] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn ge_constraints_need_phase1() {
        // min x + 2y s.t. x + y >= 4, y >= 1 -> x=3, y=1, obj 5.
        let p = build(
            &[1.0, 2.0],
            &[(0.0, 50.0), (0.0, 50.0)],
            &[(&[1.0, 1.0], 1, 4.0), (&[0.0, 1.0], 1, 1.0)],
        );
        let x = assert_optimal(&p, 5.0);
        assert!((x[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        // x <= 1 and x >= 3 with x in [0,10].
        let p = build(
            &[1.0],
            &[(0.0, 10.0)],
            &[(&[1.0], -1, 1.0), (&[1.0], 1, 3.0)],
        );
        assert!(matches!(
            solve_lp(&p, 10_000, None, None, None).outcome,
            LpOutcome::Infeasible
        ));
    }

    #[test]
    fn bounds_act_as_constraints() {
        // min -x with x in [0, 7] and a loose row: answer -7 (upper bound).
        let p = build(&[-1.0], &[(0.0, 7.0)], &[(&[1.0], -1, 100.0)]);
        let x = assert_optimal(&p, -7.0);
        assert!((x[0] - 7.0).abs() < 1e-6);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x + y, x in [-5, 5], y in [-3, 3], x + y >= -6:
        // x+y >= -6 binds: optimum -6 (e.g. x=-5, y=-1).
        let p = build(
            &[1.0, 1.0],
            &[(-5.0, 5.0), (-3.0, 3.0)],
            &[(&[1.0, 1.0], 1, -6.0)],
        );
        let x = assert_optimal(&p, -6.0);
        assert!(x[0] + x[1] >= -6.0 - 1e-6);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Multiple redundant constraints at the optimum.
        let p = build(
            &[-1.0, -1.0],
            &[(0.0, 10.0), (0.0, 10.0)],
            &[
                (&[1.0, 1.0], -1, 4.0),
                (&[1.0, 1.0], -1, 4.0),
                (&[2.0, 2.0], -1, 8.0),
                (&[1.0, 0.0], -1, 4.0),
                (&[0.0, 1.0], -1, 4.0),
            ],
        );
        assert_optimal(&p, -4.0);
    }

    #[test]
    fn fractional_lp_relaxation_of_knapsack() {
        // max 10a + 13b + 7c s.t. 5a + 6b + 4c <= 10, vars in [0,1].
        // LP optimum: b=1, a=4/5 -> 13 + 8 = 21.
        let p = build(
            &[-10.0, -13.0, -7.0],
            &[(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)],
            &[(&[5.0, 6.0, 4.0], -1, 10.0)],
        );
        assert_optimal(&p, -21.0);
    }

    #[test]
    fn fixed_variables_respected() {
        // y fixed at 2 by bounds; min x s.t. x + y >= 5 -> x=3.
        let p = build(
            &[1.0, 0.0],
            &[(0.0, 10.0), (2.0, 2.0)],
            &[(&[1.0, 1.0], 1, 5.0)],
        );
        let x = assert_optimal(&p, 3.0);
        assert!((x[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn klee_minty_cube_terminates() {
        // The classic worst case for Dantzig pricing in 3-D (devex does
        // not fall for it, but the optimum is what matters here):
        // max 100 x1 + 10 x2 + x3
        // s.t. x1 <= 1; 20 x1 + x2 <= 100; 200 x1 + 20 x2 + x3 <= 10000.
        // Optimum 10000 at (0, 0, 10000).
        let p = build(
            &[-100.0, -10.0, -1.0],
            &[(0.0, 1e6), (0.0, 1e6), (0.0, 1e6)],
            &[
                (&[1.0, 0.0, 0.0], -1, 1.0),
                (&[20.0, 1.0, 0.0], -1, 100.0),
                (&[200.0, 20.0, 1.0], -1, 10_000.0),
            ],
        );
        let x = assert_optimal(&p, -10_000.0);
        assert!((x[2] - 10_000.0).abs() < 1e-4);
    }

    #[test]
    fn expired_deadline_and_cancellation_abort_the_lp_promptly() {
        // A perfectly solvable LP must still be abandoned as `Cancelled`
        // when the caller's wall-clock budget is already gone — the
        // regression was a single degenerate LP grinding through the
        // full iteration limit for minutes between deadline checks.
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
            solve_lp(&p, 10_000, Some(past), None, None).outcome,
            LpOutcome::Cancelled
        ));
        let expired = crate::Cancellation::with_deadline(std::time::Duration::ZERO);
        assert!(matches!(
            solve_lp(&p, 10_000, None, Some(&expired), None).outcome,
            LpOutcome::Cancelled
        ));
        // With live budgets the same LP still solves.
        let live = crate::Cancellation::with_deadline(std::time::Duration::from_secs(60));
        assert!(matches!(
            solve_lp(
                &p,
                10_000,
                Some(std::time::Instant::now() + std::time::Duration::from_secs(60)),
                Some(&live),
                None,
            )
            .outcome,
            LpOutcome::Optimal { .. }
        ));
    }

    #[test]
    fn iteration_exhaustion_reports_iter_limit_not_cancelled() {
        let p = build(
            &[-3.0, -5.0],
            &[(0.0, 100.0), (0.0, 100.0)],
            &[
                (&[1.0, 0.0], -1, 4.0),
                (&[0.0, 2.0], -1, 12.0),
                (&[3.0, 2.0], -1, 18.0),
            ],
        );
        assert!(matches!(
            solve_lp(&p, 0, None, None, None).outcome,
            LpOutcome::IterLimit
        ));
    }

    #[test]
    fn highly_redundant_degenerate_cluster() {
        // Many constraints intersecting at the optimum; exercises the
        // Bland fallback anti-cycling path.
        let rows: Vec<(Vec<f64>, i8, f64)> = (0..12)
            .map(|k| {
                let a = 1.0 + (k % 3) as f64;
                let b = 1.0 + ((k + 1) % 3) as f64;
                (vec![a, b], -1i8, a + b) // all tight at (1, 1)
            })
            .collect();
        let rows_ref: Vec<(&[f64], i8, f64)> = rows
            .iter()
            .map(|(v, s, r)| (v.as_slice(), *s, *r))
            .collect();
        let p = build(&[-1.0, -1.0], &[(0.0, 10.0), (0.0, 10.0)], &rows_ref);
        let x = assert_optimal(&p, -2.0);
        assert!((x[0] - 1.0).abs() < 1e-6 && (x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn transportation_like_equalities() {
        // Two supplies (3, 4), two demands (5, 2); min cost flows.
        // vars: f11,f12,f21,f22; cost 4,6,2,3.
        // supply rows: f11+f12=3, f21+f22=4; demand: f11+f21=5, f12+f22=2.
        // Optimum: f11=3,f12=0,f21=2,f22=2 cost=12+4+6=22.
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
    }

    #[test]
    fn warm_start_from_own_optimum_resolves_in_a_handful_of_pivots() {
        let p = build(
            &[-3.0, -5.0],
            &[(0.0, 100.0), (0.0, 100.0)],
            &[
                (&[1.0, 0.0], -1, 4.0),
                (&[0.0, 2.0], -1, 12.0),
                (&[3.0, 2.0], -1, 18.0),
            ],
        );
        let cold = solve_lp(&p, 10_000, None, None, None);
        let LpOutcome::Optimal { basis, .. } = cold.outcome else {
            panic!("cold solve must be optimal");
        };
        let warm = solve_lp(&p, 10_000, None, None, Some(&basis));
        let LpOutcome::Optimal { objective, .. } = warm.outcome else {
            panic!("warm solve must be optimal");
        };
        assert!((objective - -36.0).abs() < 1e-5);
        assert!(
            warm.iterations <= 2,
            "re-solving from the optimal basis took {} pivots",
            warm.iterations
        );
        assert!(warm.iterations < cold.iterations);
    }

    #[test]
    fn warm_start_survives_bound_tightening() {
        // Branch-and-bound's exact usage: tighten one variable's bounds
        // and re-solve from the parent basis.
        let p = build(
            &[-10.0, -13.0, -7.0],
            &[(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)],
            &[(&[5.0, 6.0, 4.0], -1, 10.0)],
        );
        let cold = solve_lp(&p, 10_000, None, None, None);
        let LpOutcome::Optimal { basis, .. } = cold.outcome else {
            panic!("cold solve must be optimal");
        };
        // Branch a = 0 (a was fractional 4/5 at the LP optimum).
        let mut child = p.clone();
        child.hi[0] = 0.0;
        let warm = solve_lp(&child, 10_000, None, None, Some(&basis));
        let LpOutcome::Optimal { objective, .. } = warm.outcome else {
            panic!("warm child must be optimal");
        };
        // b=1, c=1 -> 20.
        assert!((objective - -20.0).abs() < 1e-5);
        let coldc = solve_lp(&child, 10_000, None, None, None);
        let LpOutcome::Optimal {
            objective: cold_obj,
            ..
        } = coldc.outcome
        else {
            panic!("cold child must be optimal");
        };
        assert!((objective - cold_obj).abs() < 1e-6, "warm == cold optimum");
    }

    #[test]
    fn stale_basis_falls_back_to_cold_start() {
        let p = build(
            &[1.0, 1.0],
            &[(1.0, 5.0), (1.0, 5.0)],
            &[(&[1.0, 1.0], -1, 100.0)],
        );
        // A basis for a different (larger) problem must be rejected.
        let bogus = Basis {
            status: vec![VarStatus::Lower; 99],
            basis: vec![0; 7],
        };
        assert!(matches!(
            solve_lp(&p, 10_000, None, None, Some(&bogus)).outcome,
            LpOutcome::Optimal { .. }
        ));
    }

    #[test]
    fn eta_file_matches_fresh_refactorization_after_long_pivot_runs() {
        // Drive a transportation-like LP to optimality (many pivots), then
        // verify the eta-file representation of B⁻¹ agrees with a fresh
        // LU refactorization on FTRANs of every structural column.
        let p = build(
            &[4.0, 6.0, 2.0, 3.0, 1.0, 2.5],
            &[(0.0, 10.0); 6],
            &[
                (&[1.0, 1.0, 0.0, 0.0, 1.0, 0.0], 0, 3.0),
                (&[0.0, 0.0, 1.0, 1.0, 0.0, 1.0], 0, 4.0),
                (&[1.0, 0.0, 1.0, 0.0, 1.0, 1.0], 0, 5.0),
                (&[0.0, 1.0, 0.0, 1.0, 0.0, 0.0], 0, 2.0),
            ],
        );
        let mut t = Tableau::new(&p, None);
        let mut pivots = 0usize;
        // Phase 1 until feasible, then phase 2 — accumulating etas.
        for _ in 0..200 {
            let phase1 = t.infeasibility() > FEAS_TOL * (1.0 + t.m as f64);
            let costs = if phase1 {
                let mut c = vec![0.0; p.num_vars()];
                for &v in &t.basis {
                    c[v] = t.phase1_cost(v);
                }
                c
            } else {
                p.cost.clone()
            };
            match t.iterate(&costs, phase1) {
                Ok(true) => pivots += 1,
                Ok(false) | Err(SimplexNumerics) => break,
            }
        }
        assert!(pivots >= 2, "expected a real pivot run, got {pivots}");
        assert!(!t.etas.is_empty(), "pivot run must populate the eta file");
        // FTRAN every column through LU+etas, then through fresh factors.
        let via_etas: Vec<Vec<f64>> = (0..p.num_vars()).map(|j| t.ftran_col(j)).collect();
        assert!(t.refactorize(), "optimal basis must factorize");
        assert!(t.etas.is_empty());
        for (j, old) in via_etas.iter().enumerate() {
            let fresh = t.ftran_col(j);
            for (a, b) in old.iter().zip(&fresh) {
                assert!(
                    (a - b).abs() < 1e-8,
                    "column {j}: eta-file {a} vs refactorized {b}"
                );
            }
        }
    }

    #[test]
    fn refactorization_happens_on_long_runs() {
        // A chain model that needs > REFACTOR_EVERY pivots end to end.
        let n = REFACTOR_EVERY + 40;
        let rows: Vec<(Vec<f64>, i8, f64)> = (0..n)
            .map(|i| {
                let mut coeffs = vec![0.0; n];
                coeffs[i] = 1.0;
                if i > 0 {
                    coeffs[i - 1] = -0.5;
                }
                (coeffs, 1i8, 1.0)
            })
            .collect();
        let rows_ref: Vec<(&[f64], i8, f64)> = rows
            .iter()
            .map(|(v, s, r)| (v.as_slice(), *s, *r))
            .collect();
        let cost = vec![1.0; n];
        let bounds = vec![(0.0, 1e6); n];
        let p = build(&cost, &bounds, &rows_ref);
        let r = solve_lp(&p, 100_000, None, None, None);
        assert!(matches!(r.outcome, LpOutcome::Optimal { .. }));
        assert!(
            r.refactorizations >= 2,
            "a {}-pivot run must refactorize at least once beyond the \
             initial factorization (iterations: {}, refactorizations: {})",
            n,
            r.iterations,
            r.refactorizations
        );
    }
}
