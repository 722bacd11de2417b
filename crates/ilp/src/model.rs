//! Model-building API: variables, linear expressions, constraints and an
//! objective, assembled into a [`Model`] that the solver consumes.

use std::fmt;
use std::ops::{Add, AddAssign, Mul};

/// Handle to a decision variable inside a [`Model`].
///
/// # Examples
///
/// ```
/// use troy_ilp::Model;
///
/// let mut m = Model::minimize();
/// let x = m.binary("x");
/// let y = m.binary("y");
/// assert_ne!(x, y);
/// assert_eq!(m.num_vars(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// Dense index of this variable in its model.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Whether a variable must take integer values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Real-valued within its bounds.
    Continuous,
    /// Integer-valued within its bounds (binaries are `Integer` in `[0,1]`).
    Integer,
}

/// A decision variable: bounds, integrality and a debug name.
#[derive(Debug, Clone)]
pub struct Variable {
    pub(crate) name: String,
    pub(crate) kind: VarKind,
    pub(crate) lower: f64,
    pub(crate) upper: f64,
}

impl Variable {
    /// The variable's debug name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Lower bound.
    #[must_use]
    pub fn lower(&self) -> f64 {
        self.lower
    }

    /// Upper bound.
    #[must_use]
    pub fn upper(&self) -> f64 {
        self.upper
    }

    /// Integrality.
    #[must_use]
    pub fn kind(&self) -> VarKind {
        self.kind
    }

    /// `true` for an integer variable bounded within `[0, 1]`.
    #[must_use]
    pub fn is_binary(&self) -> bool {
        self.kind == VarKind::Integer && self.lower >= 0.0 && self.upper <= 1.0
    }
}

/// Sparse linear expression `Σ coeff·var + constant`.
///
/// Built with [`LinExpr::term`], `+` and `*`, or collected from an iterator
/// of `(VarId, f64)` pairs.
///
/// # Examples
///
/// ```
/// use troy_ilp::{LinExpr, Model};
///
/// let mut m = Model::minimize();
/// let x = m.binary("x");
/// let y = m.binary("y");
/// let e = LinExpr::term(2.0, x) + LinExpr::term(3.0, y) + 1.0;
/// assert_eq!(e.coeff(x), 2.0);
/// assert_eq!(e.constant(), 1.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinExpr {
    /// Term list; duplicates are merged lazily by [`LinExpr::normalize`].
    terms: Vec<(VarId, f64)>,
    constant: f64,
}

impl LinExpr {
    /// The zero expression.
    #[must_use]
    pub fn new() -> Self {
        LinExpr::default()
    }

    /// Single term `coeff * var`.
    #[must_use]
    pub fn term(coeff: f64, var: VarId) -> Self {
        LinExpr {
            terms: vec![(var, coeff)],
            constant: 0.0,
        }
    }

    /// Sum of variables, each with coefficient 1.
    #[must_use]
    pub fn sum(vars: impl IntoIterator<Item = VarId>) -> Self {
        LinExpr {
            terms: vars.into_iter().map(|v| (v, 1.0)).collect(),
            constant: 0.0,
        }
    }

    /// Adds `coeff * var` in place.
    pub fn add_term(&mut self, coeff: f64, var: VarId) {
        self.terms.push((var, coeff));
    }

    /// Adds a constant in place.
    pub fn add_constant(&mut self, c: f64) {
        self.constant += c;
    }

    /// The merged coefficient of `var`.
    #[must_use]
    pub fn coeff(&self, var: VarId) -> f64 {
        self.terms
            .iter()
            .filter(|(v, _)| *v == var)
            .map(|(_, c)| c)
            .sum()
    }

    /// The constant offset.
    #[must_use]
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// Merges duplicate variables and drops zero coefficients; returns the
    /// sorted `(var, coeff)` list.
    #[must_use]
    pub fn normalize(&self) -> Vec<(VarId, f64)> {
        let mut terms = self.terms.clone();
        terms.sort_by_key(|(v, _)| *v);
        let mut out: Vec<(VarId, f64)> = Vec::with_capacity(terms.len());
        for (v, c) in terms {
            match out.last_mut() {
                Some((lv, lc)) if *lv == v => *lc += c,
                _ => out.push((v, c)),
            }
        }
        out.retain(|(_, c)| c.abs() > 1e-12);
        out
    }

    /// Consumes the expression, returning its normalized terms and its
    /// constant part.
    #[must_use]
    pub fn into_parts(self) -> (Vec<(VarId, f64)>, f64) {
        let constant = self.constant;
        (self.normalize(), constant)
    }

    /// Evaluates the expression against a dense assignment.
    #[must_use]
    pub fn eval(&self, values: &[f64]) -> f64 {
        self.constant
            + self
                .terms
                .iter()
                .map(|(v, c)| c * values[v.index()])
                .sum::<f64>()
    }
}

impl FromIterator<(VarId, f64)> for LinExpr {
    fn from_iter<T: IntoIterator<Item = (VarId, f64)>>(iter: T) -> Self {
        LinExpr {
            terms: iter.into_iter().collect(),
            constant: 0.0,
        }
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        self.terms.extend(rhs.terms);
        self.constant += rhs.constant;
        self
    }
}

impl Add<f64> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: f64) -> LinExpr {
        self.constant += rhs;
        self
    }
}

impl AddAssign for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        self.terms.extend(rhs.terms);
        self.constant += rhs.constant;
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, rhs: f64) -> LinExpr {
        for (_, c) in &mut self.terms {
            *c *= rhs;
        }
        self.constant *= rhs;
        self
    }
}

/// Constraint sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `expr ≤ rhs`
    Le,
    /// `expr = rhs`
    Eq,
    /// `expr ≥ rhs`
    Ge,
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Cmp::Le => "<=",
            Cmp::Eq => "=",
            Cmp::Ge => ">=",
        })
    }
}

/// One linear constraint `expr sense rhs` (constant folded into rhs).
#[derive(Debug, Clone)]
pub struct Constraint {
    pub(crate) name: String,
    pub(crate) terms: Vec<(VarId, f64)>,
    pub(crate) sense: Cmp,
    pub(crate) rhs: f64,
}

impl Constraint {
    /// Debug name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Normalized terms.
    #[must_use]
    pub fn terms(&self) -> &[(VarId, f64)] {
        &self.terms
    }

    /// Sense.
    #[must_use]
    pub fn sense(&self) -> Cmp {
        self.sense
    }

    /// Right-hand side (after folding the expression constant).
    #[must_use]
    pub fn rhs(&self) -> f64 {
        self.rhs
    }

    /// Whether a dense assignment satisfies this constraint within `tol`.
    #[must_use]
    pub fn satisfied_by(&self, values: &[f64], tol: f64) -> bool {
        let lhs: f64 = self.terms.iter().map(|(v, c)| c * values[v.index()]).sum();
        match self.sense {
            Cmp::Le => lhs <= self.rhs + tol,
            Cmp::Eq => (lhs - self.rhs).abs() <= tol,
            Cmp::Ge => lhs >= self.rhs - tol,
        }
    }
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// A mixed 0-1/integer/continuous linear program.
///
/// # Examples
///
/// A tiny knapsack:
///
/// ```
/// use troy_ilp::{LinExpr, Model, SolveParams};
///
/// let mut m = Model::maximize();
/// let a = m.binary("a");
/// let b = m.binary("b");
/// let c = m.binary("c");
/// m.set_objective(LinExpr::term(10.0, a) + LinExpr::term(13.0, b) + LinExpr::term(7.0, c));
/// m.add_le("cap", LinExpr::term(5.0, a) + LinExpr::term(6.0, b) + LinExpr::term(4.0, c), 10.0);
/// let result = m.solve(&SolveParams::default());
/// assert_eq!(result.objective().expect("solvable").round() as i64, 20);
/// assert_eq!(result.values().expect("solvable")[b.index()].round() as i64, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Model {
    sense: Sense,
    vars: Vec<Variable>,
    constraints: Vec<Constraint>,
    objective: Vec<(VarId, f64)>,
    objective_offset: f64,
}

impl Model {
    /// New minimization model.
    #[must_use]
    pub fn minimize() -> Self {
        Model::with_sense(Sense::Minimize)
    }

    /// New maximization model.
    #[must_use]
    pub fn maximize() -> Self {
        Model::with_sense(Sense::Maximize)
    }

    /// New model with an explicit sense.
    #[must_use]
    pub fn with_sense(sense: Sense) -> Self {
        Model {
            sense,
            vars: Vec::new(),
            constraints: Vec::new(),
            objective: Vec::new(),
            objective_offset: 0.0,
        }
    }

    /// Optimization direction.
    #[must_use]
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Adds a binary (0/1 integer) variable.
    pub fn binary(&mut self, name: impl Into<String>) -> VarId {
        self.var(name, VarKind::Integer, 0.0, 1.0)
    }

    /// Adds a general integer variable with inclusive bounds.
    pub fn integer(&mut self, name: impl Into<String>, lower: f64, upper: f64) -> VarId {
        self.var(name, VarKind::Integer, lower, upper)
    }

    /// Adds a continuous variable with inclusive bounds.
    pub fn continuous(&mut self, name: impl Into<String>, lower: f64, upper: f64) -> VarId {
        self.var(name, VarKind::Continuous, lower, upper)
    }

    fn var(&mut self, name: impl Into<String>, kind: VarKind, lower: f64, upper: f64) -> VarId {
        assert!(
            lower <= upper,
            "variable bounds must satisfy lower <= upper"
        );
        assert!(
            lower.is_finite() && upper.is_finite(),
            "this solver requires finite variable bounds"
        );
        let id = VarId(u32::try_from(self.vars.len()).expect("var count fits u32"));
        self.vars.push(Variable {
            name: name.into(),
            kind,
            lower,
            upper,
        });
        id
    }

    /// Number of variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    #[must_use]
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Variable metadata.
    #[must_use]
    pub fn variable(&self, id: VarId) -> &Variable {
        &self.vars[id.index()]
    }

    /// All constraints.
    #[must_use]
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Sets the objective expression (its constant becomes a fixed offset).
    pub fn set_objective(&mut self, expr: LinExpr) {
        let (terms, constant) = expr.into_parts();
        self.objective = terms;
        self.objective_offset = constant;
    }

    /// The normalized objective terms.
    #[must_use]
    pub fn objective(&self) -> &[(VarId, f64)] {
        &self.objective
    }

    /// Constant offset added to the objective value.
    #[must_use]
    pub fn objective_offset(&self) -> f64 {
        self.objective_offset
    }

    /// Adds `expr <= rhs`.
    pub fn add_le(&mut self, name: impl Into<String>, expr: LinExpr, rhs: f64) {
        self.add_constraint(name, expr, Cmp::Le, rhs);
    }

    /// Adds `expr = rhs`.
    pub fn add_eq(&mut self, name: impl Into<String>, expr: LinExpr, rhs: f64) {
        self.add_constraint(name, expr, Cmp::Eq, rhs);
    }

    /// Adds `expr >= rhs`.
    pub fn add_ge(&mut self, name: impl Into<String>, expr: LinExpr, rhs: f64) {
        self.add_constraint(name, expr, Cmp::Ge, rhs);
    }

    /// Adds a constraint with an explicit sense.
    ///
    /// # Panics
    ///
    /// Panics if the expression references a variable not in this model.
    pub fn add_constraint(&mut self, name: impl Into<String>, expr: LinExpr, sense: Cmp, rhs: f64) {
        let (terms, constant) = expr.into_parts();
        for &(v, _) in &terms {
            assert!(
                v.index() < self.vars.len(),
                "constraint references unknown variable {v}"
            );
        }
        self.constraints.push(Constraint {
            name: name.into(),
            terms,
            sense,
            rhs: rhs - constant,
        });
    }

    /// Objective value of a dense assignment (including offset).
    #[must_use]
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        self.objective_offset
            + self
                .objective
                .iter()
                .map(|(v, c)| c * values[v.index()])
                .sum::<f64>()
    }

    /// Checks a dense assignment against bounds, integrality and all
    /// constraints. Returns the name of the first violated item.
    #[must_use]
    pub fn check_feasible(&self, values: &[f64], tol: f64) -> Option<String> {
        if values.len() != self.vars.len() {
            return Some(format!(
                "assignment has {} values for {} variables",
                values.len(),
                self.vars.len()
            ));
        }
        for (i, var) in self.vars.iter().enumerate() {
            let x = values[i];
            if x < var.lower - tol || x > var.upper + tol {
                return Some(format!("variable {} out of bounds: {x}", var.name));
            }
            if var.kind == VarKind::Integer && (x - x.round()).abs() > tol {
                return Some(format!("variable {} not integral: {x}", var.name));
            }
        }
        self.constraints
            .iter()
            .find(|c| !c.satisfied_by(values, tol))
            .map(|c| format!("constraint {} violated", c.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_building_and_eval() {
        let mut m = Model::minimize();
        let x = m.binary("x");
        let y = m.binary("y");
        let e = LinExpr::term(2.0, x) + LinExpr::term(3.0, y) + LinExpr::term(1.0, x) + 5.0;
        assert_eq!(e.coeff(x), 3.0);
        assert_eq!(e.constant(), 5.0);
        assert_eq!(e.eval(&[1.0, 1.0]), 11.0);
        let n = e.normalize();
        assert_eq!(n, vec![(x, 3.0), (y, 3.0)]);
    }

    #[test]
    fn expr_sum_and_scale() {
        let mut m = Model::minimize();
        let vars: Vec<VarId> = (0..3).map(|i| m.binary(format!("v{i}"))).collect();
        let e = LinExpr::sum(vars.clone()) * 2.0;
        for &v in &vars {
            assert_eq!(e.coeff(v), 2.0);
        }
    }

    #[test]
    fn zero_coefficients_dropped() {
        let mut m = Model::minimize();
        let x = m.binary("x");
        let e = LinExpr::term(1.0, x) + LinExpr::term(-1.0, x);
        assert!(e.normalize().is_empty());
    }

    #[test]
    fn constraint_constant_folds_into_rhs() {
        let mut m = Model::minimize();
        let x = m.binary("x");
        m.add_le("c", LinExpr::term(1.0, x) + 2.0, 3.0);
        assert_eq!(m.constraints()[0].rhs(), 1.0);
    }

    #[test]
    fn check_feasible_flags_violations() {
        let mut m = Model::minimize();
        let x = m.binary("x");
        let y = m.continuous("y", 0.0, 10.0);
        m.add_ge("min", LinExpr::term(1.0, x) + LinExpr::term(1.0, y), 2.0);
        assert!(m.check_feasible(&[1.0, 1.0], 1e-6).is_none());
        assert!(m
            .check_feasible(&[0.5, 1.5], 1e-6)
            .is_some_and(|s| s.contains("not integral")));
        assert!(m
            .check_feasible(&[0.0, 1.0], 1e-6)
            .is_some_and(|s| s.contains("violated")));
        assert!(m
            .check_feasible(&[0.0, 11.0], 1e-6)
            .is_some_and(|s| s.contains("out of bounds")));
        assert!(m.check_feasible(&[0.0], 1e-6).is_some());
    }

    #[test]
    fn satisfied_by_all_senses() {
        let mut m = Model::minimize();
        let x = m.continuous("x", 0.0, 10.0);
        m.add_le("le", LinExpr::term(1.0, x), 5.0);
        m.add_eq("eq", LinExpr::term(1.0, x), 5.0);
        m.add_ge("ge", LinExpr::term(1.0, x), 5.0);
        let cs = m.constraints();
        assert!(cs[0].satisfied_by(&[4.0], 1e-9));
        assert!(!cs[1].satisfied_by(&[4.0], 1e-9));
        assert!(!cs[2].satisfied_by(&[4.0], 1e-9));
        assert!(cs.iter().all(|c| c.satisfied_by(&[5.0], 1e-9)));
    }

    #[test]
    #[should_panic(expected = "lower <= upper")]
    fn inverted_bounds_panic() {
        let mut m = Model::minimize();
        let _ = m.continuous("bad", 2.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn foreign_variable_panics() {
        let mut m1 = Model::minimize();
        let mut m2 = Model::minimize();
        let _ = m1.binary("x");
        let x1 = m1.binary("y");
        let _ = m2.binary("z");
        // m2 has 1 var; x1 has index 1 -> unknown in m2.
        m2.add_le("c", LinExpr::term(1.0, x1), 1.0);
    }

    #[test]
    fn objective_value_includes_offset() {
        let mut m = Model::minimize();
        let x = m.binary("x");
        m.set_objective(LinExpr::term(4.0, x) + 10.0);
        assert_eq!(m.objective_value(&[1.0]), 14.0);
        assert_eq!(m.objective_offset(), 10.0);
    }

    #[test]
    fn variable_metadata() {
        let mut m = Model::minimize();
        let x = m.integer("x", -2.0, 7.0);
        let v = m.variable(x);
        assert_eq!(v.name(), "x");
        assert_eq!(v.lower(), -2.0);
        assert_eq!(v.upper(), 7.0);
        assert_eq!(v.kind(), VarKind::Integer);
        assert!(!v.is_binary());
        let b = m.binary("b");
        assert!(m.variable(b).is_binary());
    }
}
