//! Linear-program builder.
//!
//! All variables are non-negative; upper bounds are expressed as explicit
//! `x ≤ u` rows (the scheduling LPs of the paper have only `[0,1]`-bounded
//! variables, so the extra rows are cheap relative to the assignment
//! constraints). Constraints may be `≤`, `≥` or `=`.

use crate::simplex::{solve_standard, SimplexOutcome};

/// Handle to a variable of an [`LpProblem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Index of the variable in solution vectors.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Constraint relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
    /// `Σ aᵢxᵢ = b`
    Eq,
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Min,
    /// Maximize the objective.
    Max,
}

/// Solver status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal basic solution was found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
}

/// Result of [`LpProblem::solve`].
#[derive(Debug, Clone)]
pub struct LpResult {
    /// Termination status.
    pub status: LpStatus,
    /// Objective value (meaningful only for [`LpStatus::Optimal`]).
    pub objective: f64,
    /// Value per variable (meaningful only for [`LpStatus::Optimal`]).
    /// This is a *basic* solution — a vertex of the feasible polytope —
    /// which the pseudoforest roundings of Sections 3.3.1/3.3.2 rely on.
    pub values: Vec<f64>,
    /// Dual multiplier per constraint row, in the order the rows were added
    /// (upper-bound rows from [`LpProblem::add_var`] included). Meaningful
    /// only for [`LpStatus::Optimal`]. Sign convention: for [`Sense::Min`],
    /// `y_r ≤ 0` on `≤` rows and `y_r ≥ 0` on `≥` rows with
    /// `c_j − Σ_r y_r a_rj ≥ 0`; for [`Sense::Max`] all three flip. In both
    /// senses `Σ_r y_r b_r` equals the optimal objective (strong duality) —
    /// [`crate::certify::certify`] checks all of this independently.
    pub duals: Vec<f64>,
}

impl LpResult {
    /// Value of variable `v` in the solution.
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.0]
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Row {
    pub coeffs: Vec<(usize, f64)>,
    pub rel: Relation,
    pub rhs: f64,
}

/// A linear program under construction.
#[derive(Debug, Clone)]
pub struct LpProblem {
    sense: Sense,
    obj: Vec<f64>,
    rows: Vec<Row>,
}

impl LpProblem {
    /// Creates an empty program with the given optimization direction.
    pub fn new(sense: Sense) -> LpProblem {
        LpProblem { sense, obj: Vec::new(), rows: Vec::new() }
    }

    /// Adds a non-negative variable with objective coefficient `obj` and an
    /// optional upper bound.
    pub fn add_var(&mut self, obj: f64, upper: Option<f64>) -> VarId {
        let id = VarId(self.obj.len());
        self.obj.push(obj);
        if let Some(u) = upper {
            assert!(u >= 0.0, "upper bound must be non-negative");
            self.rows.push(Row { coeffs: vec![(id.0, 1.0)], rel: Relation::Le, rhs: u });
        }
        id
    }

    /// Number of variables added so far.
    pub fn num_vars(&self) -> usize {
        self.obj.len()
    }

    /// Number of constraint rows (including upper-bound rows).
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Adds the constraint `Σ coeffs ⋈ rhs`. Repeated variables in `coeffs`
    /// are summed.
    pub fn add_constraint(&mut self, coeffs: &[(VarId, f64)], rel: Relation, rhs: f64) {
        let mut merged: std::collections::BTreeMap<usize, f64> = std::collections::BTreeMap::new();
        for &(v, c) in coeffs {
            assert!(v.0 < self.obj.len(), "constraint references unknown variable");
            *merged.entry(v.0).or_insert(0.0) += c;
        }
        self.rows.push(Row {
            coeffs: merged.into_iter().filter(|&(_, c)| c != 0.0).collect(),
            rel,
            rhs,
        });
    }

    /// Solves the program with the two-phase primal simplex method.
    pub fn solve(&self) -> LpResult {
        // Internally always minimize; flip the objective for Max.
        let minimize_obj: Vec<f64> = match self.sense {
            Sense::Min => self.obj.clone(),
            Sense::Max => self.obj.iter().map(|c| -c).collect(),
        };
        match solve_standard(self.obj.len(), &minimize_obj, &self.rows) {
            SimplexOutcome::Optimal { values, objective, duals } => LpResult {
                status: LpStatus::Optimal,
                objective: match self.sense {
                    Sense::Min => objective,
                    Sense::Max => -objective,
                },
                values,
                duals: match self.sense {
                    // Internally min(−c) was solved; the user-facing max
                    // duals are the negated multipliers (strong duality then
                    // reads y·b = +max objective).
                    Sense::Min => duals,
                    Sense::Max => duals.into_iter().map(|y| -y).collect(),
                },
            },
            SimplexOutcome::Infeasible => LpResult {
                status: LpStatus::Infeasible,
                objective: f64::NAN,
                values: vec![],
                duals: vec![],
            },
            SimplexOutcome::Unbounded => LpResult {
                status: LpStatus::Unbounded,
                objective: match self.sense {
                    Sense::Min => f64::NEG_INFINITY,
                    Sense::Max => f64::INFINITY,
                },
                values: vec![],
                duals: vec![],
            },
        }
    }

    /// Optimization direction of the program.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    pub(crate) fn rows(&self) -> &[Row] {
        &self.rows
    }

    pub(crate) fn objective_coeffs(&self) -> &[f64] {
        &self.obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_merges_duplicate_coefficients() {
        let mut lp = LpProblem::new(Sense::Max);
        let x = lp.add_var(1.0, None);
        lp.add_constraint(&[(x, 1.0), (x, 2.0)], Relation::Le, 6.0);
        let res = lp.solve();
        assert_eq!(res.status, LpStatus::Optimal);
        assert!((res.value(x) - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn constraint_on_unknown_variable_panics() {
        let mut lp = LpProblem::new(Sense::Min);
        lp.add_constraint(&[(VarId(3), 1.0)], Relation::Le, 1.0);
    }
}
