//! Sparse revised simplex engine: CSC column storage, LU-factorized
//! basis with product-form updates, partial pricing, Harris ratio test.
//!
//! This is the solver's only LP engine. It consumes the [`InternalForm`]
//! built by [`crate::simplex`] and honors the contract documented there —
//! warm [`Basis`] snapshots, deadline polling, deterministic scan orders —
//! and its per-iteration cost scales with the *nonzeros* of the
//! constraint matrix rather than `m × n`:
//!
//! * the matrix is stored once in compressed sparse column form
//!   ([`CscMatrix`]) and never modified by pivots;
//! * the basis inverse is carried as an LU factorization plus a chain of
//!   product-form eta updates ([`crate::lu::LuFactors`]), refactorized on
//!   a fixed interval, on tiny eta pivots, and on drift of the
//!   incrementally maintained basic values against a fresh
//!   `B⁻¹(b − N·x_N)` solve;
//! * pricing is partial (cyclic candidate sections,
//!   [`crate::pricing::PartialPricing`]) with exact optimality proofs,
//!   falling back to full Bland scans under the anti-cycling rule;
//! * the primal ratio test is the Harris two-pass variant: pass one
//!   relaxes bounds by [`HARRIS_RELAX`] to widen the pivot pool, pass two
//!   picks the largest pivot within the relaxed step — degeneracy-driven
//!   tiny steps get a numerically safer pivot without losing
//!   feasibility. The Bland fallback reverts to the exact textbook test.
//!
//! The warm dual path uses a bound-flipping ratio test (Maros;
//! Koberstein): flips accumulate into one row-space vector and cost a
//! single extra `ftran`, not one per flip.

use crate::lu::{LuFactors, REFACTOR_INTERVAL};
use crate::pricing::PartialPricing;
use crate::simplex::{
    lp_terminal, recover_values, Basis, BasisCol, FactorStats, InternalForm, InternalRow,
    LpProblem, LpResult, LpStatus, Recover, SimplexWorkspace,
};
use crate::tolerances::{
    COST_TOL, DRIFT_TOL, DUAL_PERTURB, FEAS_TOL, HARRIS_RELAX, PIVOT_TOL, SINGULAR_TOL,
};
use std::time::Instant;

/// Where a column of the internal form currently sits: basic in a row
/// slot, or nonbasic at one of its bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum VarStatus {
    Basic(usize),
    AtLower,
    AtUpper,
}

/// Compressed-sparse-column constraint matrix over the internal form:
/// structural + slack columns first, then one unit column per row that
/// needs an artificial. Rebuilt per solve (bound changes shift
/// coefficients), never modified by pivots.
#[derive(Debug, Default)]
pub(crate) struct CscMatrix {
    pub(crate) m: usize,
    pub(crate) n: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    val: Vec<f64>,
    /// Build-time write cursors, kept to avoid a per-solve allocation.
    cursor: Vec<usize>,
}

impl CscMatrix {
    /// Rebuilds the matrix from an internal form (artificial unit columns
    /// included, so the cold start needs no second assembly).
    pub(crate) fn build(&mut self, form: &InternalForm) {
        let m = form.rows.len();
        let n = form.n_struct_slack + form.n_art;
        self.m = m;
        self.n = n;
        self.col_ptr.clear();
        self.col_ptr.resize(n + 1, 0);
        for row in &form.rows {
            for &(c, _) in &row.coeffs {
                self.col_ptr[c + 1] += 1;
            }
        }
        let mut art = form.n_struct_slack;
        for &need in &form.needs_artificial {
            if need {
                self.col_ptr[art + 1] += 1;
                art += 1;
            }
        }
        for k in 0..n {
            self.col_ptr[k + 1] += self.col_ptr[k];
        }
        let nnz = self.col_ptr[n];
        self.row_idx.clear();
        self.row_idx.resize(nnz, 0);
        self.val.clear();
        self.val.resize(nnz, 0.0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.col_ptr[..n]);
        for (i, row) in form.rows.iter().enumerate() {
            for &(c, a) in &row.coeffs {
                let p = self.cursor[c];
                self.cursor[c] += 1;
                self.row_idx[p] = i as u32;
                self.val[p] = a;
            }
        }
        let mut art = form.n_struct_slack;
        for (i, &need) in form.needs_artificial.iter().enumerate() {
            if need {
                let p = self.cursor[art];
                self.cursor[art] += 1;
                self.row_idx[p] = i as u32;
                self.val[p] = 1.0;
                art += 1;
            }
        }
    }

    /// A matrix from explicit columns of `(row, value)` entries, for
    /// tests that need bases the internal form cannot easily express.
    #[cfg(test)]
    pub(crate) fn from_columns(m: usize, cols: &[Vec<(u32, f64)>]) -> Self {
        let mut a = CscMatrix {
            m,
            n: cols.len(),
            ..CscMatrix::default()
        };
        a.col_ptr.push(0);
        for col in cols {
            for &(r, v) in col {
                a.row_idx.push(r);
                a.val.push(v);
            }
            a.col_ptr.push(a.row_idx.len());
        }
        a
    }

    /// Row indices and values of column `j`.
    #[inline]
    pub(crate) fn col(&self, j: usize) -> (&[u32], &[f64]) {
        let (p0, p1) = (self.col_ptr[j], self.col_ptr[j + 1]);
        (&self.row_idx[p0..p1], &self.val[p0..p1])
    }

    /// Nonzero count of column `j`.
    #[inline]
    pub(crate) fn col_nnz(&self, j: usize) -> usize {
        self.col_ptr[j + 1] - self.col_ptr[j]
    }

    /// Sparse dot product of column `j` with a dense row-space vector.
    #[inline]
    fn col_dot(&self, j: usize, dense: &[f64]) -> f64 {
        let (rows, vals) = self.col(j);
        rows.iter()
            .zip(vals)
            .map(|(&r, &v)| v * dense[r as usize])
            .sum()
    }
}

/// Sets `reached[j]` for every column `j < ntot` with an entry in a row
/// where `dense` is nonzero, reading the internal form's rows as the
/// matrix's row-wise pattern. Any other column's [`CscMatrix::col_dot`]
/// with `dense` sums only products with `±0.0`, so it is `±0.0` (the
/// model rejects non-finite coefficients).
fn mark_reached(rows: &[InternalRow], dense: &[f64], ntot: usize, reached: &mut [bool]) {
    for (row, &x) in rows.iter().zip(dense) {
        if x == 0.0 {
            continue;
        }
        for &(j, _) in &row.coeffs {
            if j < ntot {
                reached[j] = true;
            }
        }
    }
}

/// Per-workspace scratch for the sparse engine: the CSC matrix, the LU
/// arenas, and every dense work vector a solve needs. Embedded in
/// [`SimplexWorkspace`] so branch and bound allocates once per search.
#[derive(Debug, Default)]
pub(crate) struct SparseScratch {
    a: CscMatrix,
    lu: LuFactors,
    basis: Vec<usize>,
    status: Vec<VarStatus>,
    beta: Vec<f64>,
    banned: Vec<bool>,
    /// Normalized right-hand side per row.
    b: Vec<f64>,
    /// Dense row-space `ftran` input (all-zero between uses).
    rhs: Vec<f64>,
    /// `ftran` output (slot space): the entering column `B⁻¹·a_j`.
    w: Vec<f64>,
    /// `btran` output (row space): the duals `y`.
    y: Vec<f64>,
    /// `btran` input (slot space), consumed per call.
    cb: Vec<f64>,
    /// Unit `btran` input (slot space) selecting the dual leaving row.
    e_r: Vec<f64>,
    /// `btran` output for a single basis-inverse row (dual leaving row).
    rho: Vec<f64>,
    /// Per column: has an entry in a row where `rho` is nonzero (dual
    /// ratio-test screening; all-false between iterations).
    reached: Vec<bool>,
    /// Fresh-beta scratch for drift checks and flip application.
    beta_check: Vec<f64>,
    /// Phase-1 / extended phase-2 cost vector.
    cost_buf: Vec<f64>,
    pricing: PartialPricing,
}

/// The revised simplex working state: borrows the scratch buffers and the
/// internal form's bound vector for the duration of one warm or cold
/// attempt.
struct Rev<'w> {
    m: usize,
    /// Columns visible to this attempt (warm: structural + slack only;
    /// cold: artificials included).
    ntot: usize,
    a: &'w CscMatrix,
    /// The internal form's rows: the matrix's row-wise pattern.
    rows: &'w [InternalRow],
    lu: &'w mut LuFactors,
    basis: &'w mut Vec<usize>,
    status: &'w mut Vec<VarStatus>,
    beta: &'w mut Vec<f64>,
    ub: &'w mut Vec<f64>,
    banned: &'w mut Vec<bool>,
    b: &'w [f64],
    rhs: &'w mut Vec<f64>,
    w: &'w mut Vec<f64>,
    y: &'w mut Vec<f64>,
    cb: &'w mut Vec<f64>,
    e_r: &'w mut Vec<f64>,
    rho: &'w mut Vec<f64>,
    reached: &'w mut Vec<bool>,
    beta_check: &'w mut Vec<f64>,
    pricing: &'w mut PartialPricing,
    iterations: usize,
    degenerate_streak: usize,
    use_bland: bool,
    deadline: Option<Instant>,
}

/// Outcome of a primal ratio test.
enum Limit {
    /// The entering variable reaches its own opposite bound first.
    OwnBound { delta: f64 },
    /// Basic slot `r` leaves at its lower (`to_upper = false`) or upper
    /// bound after a step of `delta`.
    Slot {
        r: usize,
        to_upper: bool,
        delta: f64,
    },
    /// No finite step limits the entering variable.
    Unbounded,
}

impl Rev<'_> {
    fn nonbasic_value(&self, j: usize) -> f64 {
        match self.status[j] {
            VarStatus::Basic(slot) => self.beta[slot],
            VarStatus::AtLower => 0.0,
            VarStatus::AtUpper => self.ub[j],
        }
    }

    /// `w ← B⁻¹·a_j` via scatter + `ftran`. Leaves `rhs` all-zero.
    fn ftran_col(&mut self, j: usize) {
        let (rows, vals) = self.a.col(j);
        for (&r, &v) in rows.iter().zip(vals) {
            self.rhs[r as usize] += v;
        }
        self.lu.ftran(self.rhs, self.w);
    }

    /// `cb ← c_B`: the basic columns' costs, per basis slot.
    fn load_basic_costs(&mut self, cost: &[f64]) {
        self.cb.clear();
        self.cb.resize(self.m, 0.0);
        for (slot, &col) in self.basis.iter().enumerate() {
            self.cb[slot] = cost[col];
        }
    }

    /// `y ← B⁻ᵀ·c_B`: the duals for the given cost vector.
    fn compute_duals(&mut self, cost: &[f64]) {
        self.load_basic_costs(cost);
        self.lu.btran(self.cb, self.y);
    }

    /// Reduced cost `d_j = c_j − y·a_j` against the current duals.
    #[inline]
    fn reduced_cost(&self, j: usize, cost: &[f64]) -> f64 {
        cost[j] - self.a.col_dot(j, self.y)
    }

    /// Recomputes `beta = B⁻¹(b − N·x_N)` from scratch into `out`
    /// (which may be `self.beta` or the drift-check buffer). Leaves
    /// `rhs` all-zero.
    #[allow(clippy::too_many_arguments)] // free fn over split borrows of Rev's fields
    fn fresh_beta_into(
        lu: &LuFactors,
        a: &CscMatrix,
        b: &[f64],
        status: &[VarStatus],
        ub: &[f64],
        ntot: usize,
        rhs: &mut [f64],
        out: &mut Vec<f64>,
    ) {
        for (r, &bv) in rhs.iter_mut().zip(b) {
            *r = bv;
        }
        for j in 0..ntot {
            if status[j] == VarStatus::AtUpper {
                let xj = ub[j];
                if xj != 0.0 {
                    let (rows, vals) = a.col(j);
                    for (&r, &v) in rows.iter().zip(vals) {
                        rhs[r as usize] -= v * xj;
                    }
                }
            }
        }
        lu.ftran(rhs, out);
    }

    /// Refactorizes the current basis and recomputes `beta` fresh.
    /// `Err(())` means the basis went numerically singular mid-solve.
    fn refactorize(&mut self) -> Result<(), ()> {
        self.lu.factorize(self.a, self.basis)?;
        Self::fresh_beta_into(
            self.lu,
            self.a,
            self.b,
            self.status,
            self.ub,
            self.ntot,
            self.rhs,
            self.beta,
        );
        Ok(())
    }

    /// Drift check: compares the incrementally maintained `beta` against
    /// a fresh solve and refactorizes when they disagree beyond
    /// [`DRIFT_TOL`]. Cheap no-op when the eta chain is empty (the
    /// factors are fresh).
    fn check_drift(&mut self) -> Result<(), ()> {
        if self.lu.eta_count() == 0 {
            return Ok(());
        }
        Self::fresh_beta_into(
            self.lu,
            self.a,
            self.b,
            self.status,
            self.ub,
            self.ntot,
            self.rhs,
            self.beta_check,
        );
        let drift = self
            .beta
            .iter()
            .zip(self.beta_check.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);
        if drift > DRIFT_TOL {
            self.refactorize()?;
        }
        Ok(())
    }

    /// Pricing: picks the entering column and its movement direction, or
    /// `None` at optimality. Partial (sectioned) scan normally; full
    /// first-improving-index scan under the Bland fallback.
    fn price(&mut self, cost: &[f64]) -> Option<(usize, f64)> {
        if self.use_bland {
            for j in 0..self.ntot {
                if self.banned[j] || self.ub[j] == 0.0 {
                    continue;
                }
                match self.status[j] {
                    VarStatus::Basic(_) => {}
                    VarStatus::AtLower => {
                        if self.reduced_cost(j, cost) < -COST_TOL {
                            return Some((j, 1.0));
                        }
                    }
                    VarStatus::AtUpper => {
                        if self.reduced_cost(j, cost) > COST_TOL {
                            return Some((j, -1.0));
                        }
                    }
                }
            }
            return None;
        }
        let (a, y, status, banned, ub, ntot) = (
            self.a,
            &*self.y,
            &*self.status,
            &*self.banned,
            &*self.ub,
            self.ntot,
        );
        self.pricing.select(ntot, |j| {
            if banned[j] || ub[j] == 0.0 {
                return None;
            }
            let d = match status[j] {
                VarStatus::Basic(_) => return None,
                VarStatus::AtLower | VarStatus::AtUpper => cost[j] - a.col_dot(j, y),
            };
            match status[j] {
                VarStatus::AtLower if d < -COST_TOL => Some((1.0, -d)),
                VarStatus::AtUpper if d > COST_TOL => Some((-1.0, d)),
                _ => None,
            }
        })
    }

    /// Harris two-pass ratio test over the ftran'd entering column `w`.
    /// Pass one finds the minimum *relaxed* ratio (bounds stretched by
    /// [`HARRIS_RELAX`]); pass two picks the largest-magnitude pivot among
    /// slots whose *exact* ratio fits inside it. The entering variable's
    /// own bound is kept exact.
    fn ratio_test_harris(&self, j: usize, dir: f64) -> Limit {
        let own = self.ub[j];
        let mut theta_rel = own;
        let mut any_slot = false;
        for slot in 0..self.m {
            let d = self.w[slot] * dir;
            let rel = if d > PIVOT_TOL {
                (self.beta[slot] + HARRIS_RELAX) / d
            } else if d < -PIVOT_TOL {
                let u = self.ub[self.basis[slot]];
                if !u.is_finite() {
                    continue;
                }
                (u - self.beta[slot] + HARRIS_RELAX) / (-d)
            } else {
                continue;
            };
            any_slot = true;
            if rel < theta_rel {
                theta_rel = rel;
            }
        }
        if !any_slot {
            return if own.is_finite() {
                Limit::OwnBound { delta: own }
            } else {
                Limit::Unbounded
            };
        }
        // Pass two: largest pivot whose exact ratio fits the relaxed step.
        let mut best: Option<(usize, bool, f64, f64)> = None; // (slot, to_upper, exact, |d|)
        for slot in 0..self.m {
            let d = self.w[slot] * dir;
            let (exact, to_upper) = if d > PIVOT_TOL {
                (self.beta[slot] / d, false)
            } else if d < -PIVOT_TOL {
                let u = self.ub[self.basis[slot]];
                if !u.is_finite() {
                    continue;
                }
                ((u - self.beta[slot]) / (-d), true)
            } else {
                continue;
            };
            if exact <= theta_rel {
                let mag = d.abs();
                // Strict improvement keeps the smallest slot on magnitude
                // ties — deterministic.
                if best.is_none_or(|(_, _, _, bm)| mag > bm) {
                    best = Some((slot, to_upper, exact, mag));
                }
            }
        }
        match best {
            #[expect(
                clippy::disallowed_methods,
                reason = "guard is exactly !(own < exact): an incomparable pair must take the slot branch, not the own-bound one"
            )]
            Some((r, to_upper, exact, _))
                if own.partial_cmp(&exact) != Some(std::cmp::Ordering::Less) =>
            {
                Limit::Slot {
                    r,
                    to_upper,
                    delta: exact.max(0.0),
                }
            }
            // Every limiting slot sits beyond the entering variable's own
            // range (or no slot fit the relaxed step): bound flip.
            _ => {
                if own.is_finite() {
                    Limit::OwnBound { delta: own }
                } else {
                    // theta_rel came from a slot; its exact ratio fits by
                    // construction, so best is Some and we cannot be here
                    // with an infinite own bound.
                    unreachable!("pass 2 must select a slot when pass 1 was slot-limited")
                }
            }
        }
    }

    /// Bland-mode ratio test: exact textbook rule, smallest leaving index
    /// on ties (the entering variable's own bound counts as index `j`).
    fn ratio_test_bland(&self, j: usize, dir: f64) -> Limit {
        let mut delta = self.ub[j];
        let mut limit: Option<(usize, bool)> = None;
        for slot in 0..self.m {
            let d = self.w[slot] * dir;
            let (ratio, to_upper) = if d > PIVOT_TOL {
                (self.beta[slot] / d, false)
            } else if d < -PIVOT_TOL {
                let u = self.ub[self.basis[slot]];
                if !u.is_finite() {
                    continue;
                }
                ((u - self.beta[slot]) / (-d), true)
            } else {
                continue;
            };
            let better = if ratio < delta - PIVOT_TOL {
                true
            } else if ratio < delta + PIVOT_TOL {
                let current = match limit {
                    None => j,
                    Some((cr, _)) => self.basis[cr],
                };
                self.basis[slot] < current
            } else {
                false
            };
            if better {
                delta = ratio.max(0.0);
                limit = Some((slot, to_upper));
            }
        }
        if delta.is_infinite() {
            return Limit::Unbounded;
        }
        match limit {
            Some((r, to_upper)) => Limit::Slot { r, to_upper, delta },
            None => Limit::OwnBound { delta },
        }
    }

    /// Bound flip: the entering variable runs to its opposite bound; no
    /// basis change, `beta` moves by `w·dir·delta`.
    fn bound_flip(&mut self, j: usize, dir: f64, delta: f64) {
        for slot in 0..self.m {
            let wv = self.w[slot];
            if wv != 0.0 {
                self.beta[slot] -= wv * dir * delta;
            }
        }
        self.status[j] = match self.status[j] {
            VarStatus::AtLower => VarStatus::AtUpper,
            VarStatus::AtUpper => VarStatus::AtLower,
            VarStatus::Basic(_) => unreachable!("entering var is nonbasic"),
        };
    }

    /// Basis change: column `j` enters at slot `r` (step `delta` in
    /// direction `dir`), the leaving variable rests at its lower or upper
    /// bound. Appends a product-form eta; refactorizes when the eta pivot
    /// is too small or the chain hits [`REFACTOR_INTERVAL`]. `Err(())`
    /// means the basis went singular.
    fn apply_pivot(
        &mut self,
        r: usize,
        j: usize,
        dir: f64,
        delta: f64,
        to_upper: bool,
    ) -> Result<(), ()> {
        for slot in 0..self.m {
            let wv = self.w[slot];
            if wv != 0.0 {
                self.beta[slot] -= wv * dir * delta;
            }
        }
        let start = match self.status[j] {
            VarStatus::AtLower => 0.0,
            VarStatus::AtUpper => self.ub[j],
            VarStatus::Basic(_) => unreachable!("entering var is nonbasic"),
        };
        let leaving = self.basis[r];
        self.status[leaving] = if to_upper {
            VarStatus::AtUpper
        } else {
            VarStatus::AtLower
        };
        self.basis[r] = j;
        self.status[j] = VarStatus::Basic(r);
        self.beta[r] = start + dir * delta;

        if !self.lu.push_eta(r, self.w) || self.lu.eta_count() >= REFACTOR_INTERVAL {
            self.refactorize()?;
        }
        Ok(())
    }

    /// Primal simplex phase over the given cost vector. `Ok(())` at
    /// optimality; `Err` carries unboundedness, the iteration budget, the
    /// deadline, or `IterationLimit` for a mid-solve singular basis.
    fn primal_optimize(&mut self, cost: &[f64], max_iterations: usize) -> Result<(), LpStatus> {
        loop {
            if self.iterations >= max_iterations {
                return Err(LpStatus::IterationLimit);
            }
            if self.iterations.is_multiple_of(64) {
                if let Some(deadline) = self.deadline {
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "coarse deadline poll every 64 pivots; milp-solver is dependency-free by design"
                    )]
                    if Instant::now() >= deadline {
                        return Err(LpStatus::TimedOut);
                    }
                }
            }
            self.compute_duals(cost);
            let Some((j, dir)) = self.price(cost) else {
                return Ok(()); // full improving-column scan empty: optimal
            };
            // Counted only now: a barren optimality scan is not a pivot,
            // and the warm path's exact-cost cleanup usually ends here
            // with zero iterations (mirrors `dual_optimize`).
            self.iterations += 1;
            if self.iterations.is_multiple_of(100) && self.check_drift().is_err() {
                return Err(LpStatus::IterationLimit);
            }
            self.ftran_col(j);
            let limit = if self.use_bland {
                self.ratio_test_bland(j, dir)
            } else {
                self.ratio_test_harris(j, dir)
            };
            let delta = match limit {
                Limit::Unbounded => return Err(LpStatus::Unbounded),
                Limit::OwnBound { delta } | Limit::Slot { delta, .. } => delta,
            };
            if delta < PIVOT_TOL {
                self.degenerate_streak += 1;
                if self.degenerate_streak > 2 * (self.m + self.ntot) {
                    self.use_bland = true;
                }
            } else {
                self.degenerate_streak = 0;
            }
            match limit {
                Limit::OwnBound { delta } => self.bound_flip(j, dir, delta),
                Limit::Slot { r, to_upper, delta } => {
                    if self.apply_pivot(r, j, dir, delta, to_upper).is_err() {
                        return Err(LpStatus::IterationLimit);
                    }
                }
                Limit::Unbounded => unreachable!("handled above"),
            }
        }
    }

    /// Dual simplex with the bound-flipping ratio test: the leaving slot
    /// is the largest bound violation, entering candidates are walked in
    /// ratio order (ties by pivot size, then column), and an empty
    /// candidate set is an exact infeasibility certificate. Bound flips
    /// accumulate into one row-space vector and are applied to `beta`
    /// with a single `ftran` before the entering pivot.
    fn dual_optimize(&mut self, cost: &[f64], max_iterations: usize) -> Result<(), LpStatus> {
        struct Cand {
            j: usize,
            t_sig: f64,
            ratio: f64,
        }
        let mut cands: Vec<Cand> = Vec::new();
        loop {
            if self.iterations >= max_iterations {
                return Err(LpStatus::IterationLimit);
            }
            if self.iterations.is_multiple_of(64) {
                if let Some(deadline) = self.deadline {
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "coarse deadline poll every 64 pivots; milp-solver is dependency-free by design"
                    )]
                    if Instant::now() >= deadline {
                        return Err(LpStatus::TimedOut);
                    }
                }
            }

            // --- Leaving slot: the largest primal bound violation. ---
            let mut leave: Option<(usize, f64, bool)> = None;
            for slot in 0..self.m {
                let below = -self.beta[slot];
                let u = self.ub[self.basis[slot]];
                let above = if u.is_finite() {
                    self.beta[slot] - u
                } else {
                    f64::NEG_INFINITY
                };
                let (v, to_upper) = if below >= above {
                    (below, false)
                } else {
                    (above, true)
                };
                if v > FEAS_TOL && leave.is_none_or(|(_, best, _)| v > best) {
                    leave = Some((slot, v, to_upper));
                }
            }
            let Some((r, violation, to_upper)) = leave else {
                return Ok(());
            };
            self.iterations += 1;

            // Row `r` of `B⁻¹` (for the pivot-row entries `alpha_j`) and
            // the duals (for the reduced costs), in one sweep.
            let sigma = if to_upper { -1.0 } else { 1.0 };
            self.e_r.clear();
            self.e_r.resize(self.m, 0.0);
            self.e_r[r] = 1.0;
            self.load_basic_costs(cost);
            self.lu.btran2(self.e_r, self.rho, self.cb, self.y);

            // Only columns reaching a nonzero of `rho` can be eligible: any
            // other column's `t_sig` is `±0.0`, which both sign tests below
            // reject.
            mark_reached(self.rows, self.rho, self.ntot, self.reached);
            cands.clear();
            for j in 0..self.ntot {
                let reached = std::mem::take(&mut self.reached[j]);
                if !reached || self.banned[j] || self.ub[j] == 0.0 {
                    continue;
                }
                let t_sig = sigma * self.a.col_dot(j, self.rho);
                let cost_mag = match self.status[j] {
                    VarStatus::Basic(_) => continue,
                    VarStatus::AtLower => {
                        if t_sig >= -PIVOT_TOL {
                            continue;
                        }
                        self.reduced_cost(j, cost).max(0.0)
                    }
                    VarStatus::AtUpper => {
                        if t_sig <= PIVOT_TOL {
                            continue;
                        }
                        (-self.reduced_cost(j, cost)).max(0.0)
                    }
                };
                cands.push(Cand {
                    j,
                    t_sig,
                    ratio: cost_mag / t_sig.abs(),
                });
            }
            if cands.is_empty() {
                return Err(LpStatus::Infeasible);
            }
            // Both orders end on the unique column index, so an unstable
            // sort yields the same sequence without a merge buffer.
            if self.use_bland {
                cands.sort_unstable_by(|a, b| a.ratio.total_cmp(&b.ratio).then(a.j.cmp(&b.j)));
            } else {
                cands.sort_unstable_by(|a, b| {
                    a.ratio
                        .total_cmp(&b.ratio)
                        .then_with(|| b.t_sig.abs().total_cmp(&a.t_sig.abs()))
                        .then(a.j.cmp(&b.j))
                });
            }

            // --- Bound-flipping walk (flips accumulate into `rhs`). ---
            let mut remaining = violation;
            let mut flipped = false;
            let mut entering: Option<(usize, f64, f64)> = None;
            for c in &cands {
                let dir = match self.status[c.j] {
                    VarStatus::AtLower => 1.0,
                    VarStatus::AtUpper => -1.0,
                    VarStatus::Basic(_) => unreachable!("candidates are nonbasic"),
                };
                let cap = self.ub[c.j] * c.t_sig.abs();
                if cap < remaining - FEAS_TOL {
                    let step = dir * self.ub[c.j];
                    let (rows, vals) = self.a.col(c.j);
                    for (&row, &v) in rows.iter().zip(vals) {
                        self.rhs[row as usize] += v * step;
                    }
                    flipped = true;
                    self.status[c.j] = match self.status[c.j] {
                        VarStatus::AtLower => VarStatus::AtUpper,
                        VarStatus::AtUpper => VarStatus::AtLower,
                        VarStatus::Basic(_) => unreachable!("candidates are nonbasic"),
                    };
                    remaining -= cap;
                } else {
                    let delta = remaining / c.t_sig.abs();
                    entering = Some((c.j, dir, delta));
                    if delta < PIVOT_TOL {
                        self.degenerate_streak += 1;
                        if self.degenerate_streak > 2 * (self.m + self.ntot) {
                            self.use_bland = true;
                        }
                    } else {
                        self.degenerate_streak = 0;
                    }
                    break;
                }
            }
            if flipped {
                // One ftran covers every flip: beta -= B⁻¹·Σ a_f·dir_f·u_f.
                self.lu.ftran(self.rhs, self.beta_check);
                for (bv, fv) in self.beta.iter_mut().zip(self.beta_check.iter()) {
                    *bv -= fv;
                }
            }
            let Some((j, dir, delta)) = entering else {
                // Every eligible column flipped and the violation remains:
                // primal infeasible (exact certificate).
                return Err(LpStatus::Infeasible);
            };
            self.ftran_col(j);
            if self.apply_pivot(r, j, dir, delta, to_upper).is_err() {
                return Err(LpStatus::IterationLimit);
            }
        }
    }
}

/// Snapshot of the LU layer's lifetime counters for [`LpResult::factor`].
fn factor_stats(lu: &LuFactors) -> FactorStats {
    FactorStats {
        refactorizations: lu.refactorizations,
        eta_updates: lu.eta_updates,
        max_eta_chain: lu.max_eta_chain,
        max_fill_in: lu.max_fill_in,
    }
}

/// Recovers original-variable values from an optimal revised-simplex
/// state and captures a [`Basis`] snapshot.
#[allow(clippy::too_many_arguments)]
fn finish(
    rev: &Rev<'_>,
    recover: &[Recover],
    problem: &LpProblem,
    n_struct_slack: usize,
    pivots: usize,
    dual_pivots: usize,
    phase1: bool,
    warm_used: bool,
) -> LpResult {
    let values = recover_values(recover, |j| rev.nonbasic_value(j));
    let objective = values
        .iter()
        .zip(&problem.cost)
        .map(|(x, c)| x * c)
        .sum::<f64>();
    let mut cols = Vec::with_capacity(n_struct_slack);
    let mut basic = 0usize;
    for j in 0..n_struct_slack {
        cols.push(match rev.status[j] {
            VarStatus::Basic(_) => {
                basic += 1;
                BasisCol::Basic
            }
            VarStatus::AtLower => BasisCol::AtLower,
            VarStatus::AtUpper => BasisCol::AtUpper,
        });
    }
    // A basic artificial (degenerate phase-1 leftover) means the real
    // columns alone cannot seed a basis — skip the snapshot.
    let basis = (basic == rev.m).then_some(Basis { cols, basic });
    LpResult {
        status: LpStatus::Optimal,
        objective,
        values,
        pivots,
        dual_pivots,
        phase1,
        warm_used,
        basis,
        factor: factor_stats(rev.lu),
    }
}

/// The sparse revised simplex engine: warm dual attempt, then cold
/// two-phase primal.
pub(crate) fn solve_sparse(
    problem: &LpProblem,
    form: &mut InternalForm,
    deadline: Option<Instant>,
    workspace: &mut SimplexWorkspace,
    warm: Option<&Basis>,
) -> LpResult {
    let SparseScratch {
        a,
        lu,
        basis,
        status,
        beta,
        banned,
        b,
        rhs,
        w,
        y,
        cb,
        e_r,
        rho,
        reached,
        beta_check,
        cost_buf,
        pricing,
    } = &mut workspace.sparse;
    let m = form.rows.len();
    let n_struct_slack = form.n_struct_slack;
    let n_art = form.n_art;

    a.build(form);
    b.clear();
    b.extend(form.rows.iter().map(|r| r.rhs));
    rhs.clear();
    rhs.resize(m, 0.0);
    reached.clear();
    reached.resize(a.n, false);
    lu.reset_counters();
    pricing.reset();

    // --- Warm start: factorize the inherited basis, dual-simplex it. ---
    let mut dual_pivots = 0usize;
    'warm: {
        let Some(snapshot) = warm else { break 'warm };
        if snapshot.cols.len() != n_struct_slack || snapshot.basic != m {
            break 'warm;
        }
        let ntot = n_struct_slack;
        basis.clear();
        status.clear();
        for (j, col) in snapshot.cols.iter().enumerate() {
            status.push(match col {
                BasisCol::Basic => {
                    basis.push(j);
                    VarStatus::Basic(basis.len() - 1)
                }
                BasisCol::AtLower => VarStatus::AtLower,
                BasisCol::AtUpper => VarStatus::AtUpper,
            });
        }
        // The snapshot rests a now-unbounded column at its upper bound —
        // structure drifted, start cold.
        if (0..ntot).any(|j| status[j] == VarStatus::AtUpper && !form.ub[j].is_finite()) {
            break 'warm;
        }
        if lu.factorize(a, basis).is_err() {
            break 'warm;
        }
        banned.clear();
        banned.resize(ntot, false);
        let mut rev = Rev {
            m,
            ntot,
            a: &*a,
            rows: &form.rows,
            lu: &mut *lu,
            basis: &mut *basis,
            status: &mut *status,
            beta: &mut *beta,
            ub: &mut form.ub,
            banned: &mut *banned,
            b: &b[..],
            rhs: &mut *rhs,
            w: &mut *w,
            y: &mut *y,
            cb: &mut *cb,
            e_r: &mut *e_r,
            rho: &mut *rho,
            reached: &mut *reached,
            beta_check: &mut *beta_check,
            pricing: &mut *pricing,
            iterations: 0,
            degenerate_streak: 0,
            use_bland: false,
            deadline,
        };
        Rev::fresh_beta_into(
            rev.lu, rev.a, rev.b, rev.status, rev.ub, ntot, rev.rhs, rev.beta,
        );
        rev.compute_duals(&form.cost);
        // The inherited basis must be dual-feasible for the dual simplex
        // to apply (fixed columns can never move, so their sign is moot).
        let dual_ok = (0..ntot).all(|j| match rev.status[j] {
            VarStatus::Basic(_) => true,
            VarStatus::AtLower => rev.ub[j] == 0.0 || rev.reduced_cost(j, &form.cost) >= -FEAS_TOL,
            VarStatus::AtUpper => rev.ub[j] == 0.0 || rev.reduced_cost(j, &form.cost) <= FEAS_TOL,
        });
        if !dual_ok {
            break 'warm;
        }
        // The clique and loss-cut rows of the assignment MILP leave the
        // exact warm duals massively degenerate: every dual ratio ties at
        // zero and the bound-flipping walk wanders without dual progress.
        // Nudge each movable nonbasic cost away from its bound (positive
        // at lower, negative at upper, so the inherited basis stays
        // dual-feasible) by a column-hashed deterministic amount; the
        // perturbed ratios are then strictly positive and distinct, and
        // every dual iteration makes real progress.
        cost_buf.clear();
        cost_buf.extend_from_slice(&form.cost[..ntot]);
        for (j, c) in cost_buf.iter_mut().enumerate() {
            let sign = match rev.status[j] {
                VarStatus::Basic(_) => continue,
                VarStatus::AtLower => 1.0,
                VarStatus::AtUpper => -1.0,
            };
            if rev.ub[j] == 0.0 {
                continue;
            }
            let hash = (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            #[allow(clippy::cast_precision_loss)]
            let frac = (hash >> 11) as f64 / (1u64 << 53) as f64;
            *c += sign * DUAL_PERTURB * (1.0 + form.cost[j].abs()) * (0.5 + frac);
        }
        // Warm re-optimization should take a handful of pivots; past this
        // budget a cold start is the better bet.
        let dual_cap = 1_000 + 10 * (m + ntot);
        match rev.dual_optimize(cost_buf, dual_cap) {
            Ok(()) => {
                // Optimal for the perturbed costs: primal-feasible for the
                // true LP but possibly a few reduced costs shy of dual
                // feasibility. A short exact primal pass restores a sound
                // branch-and-bound bound (usually zero pivots).
                let dual_iters = rev.iterations;
                match rev.primal_optimize(&form.cost, dual_iters + 1_000) {
                    Ok(()) => {
                        return finish(
                            &rev,
                            &form.recover,
                            problem,
                            n_struct_slack,
                            rev.iterations - dual_iters,
                            dual_iters,
                            false,
                            true,
                        );
                    }
                    Err(LpStatus::TimedOut) => {
                        let mut r =
                            lp_terminal(LpStatus::TimedOut, 0, rev.iterations, false, false);
                        r.factor = factor_stats(rev.lu);
                        return r;
                    }
                    Err(_) => {
                        // Cleanup stalled (or claimed unboundedness the
                        // perturbed dual contradicts): distrust the warm
                        // path and start cold.
                        dual_pivots = rev.iterations;
                    }
                }
            }
            Err(LpStatus::Infeasible) => {
                // Exact certificate — the child LP is infeasible.
                let mut r = lp_terminal(LpStatus::Infeasible, 0, rev.iterations, false, true);
                r.factor = factor_stats(rev.lu);
                return r;
            }
            Err(LpStatus::TimedOut) => {
                let mut r = lp_terminal(LpStatus::TimedOut, 0, rev.iterations, false, false);
                r.factor = factor_stats(rev.lu);
                return r;
            }
            Err(LpStatus::IterationLimit) => {
                // Dual stall or mid-solve singularity: abandon the warm
                // path, keep the effort on record, and start cold.
                dual_pivots = rev.iterations;
            }
            Err(status @ (LpStatus::Optimal | LpStatus::Unbounded)) => {
                unreachable!("dual simplex cannot report {status:?}")
            }
        }
    }

    // --- Cold start: two-phase primal with artificials. ---
    let ntot = n_struct_slack + n_art;
    form.ub.truncate(n_struct_slack);
    form.ub.extend(std::iter::repeat_n(f64::INFINITY, n_art));
    basis.clear();
    basis.resize(m, usize::MAX);
    status.clear();
    status.resize(ntot, VarStatus::AtLower);
    banned.clear();
    banned.resize(ntot, false);
    cost_buf.clear();
    cost_buf.resize(ntot, 0.0);
    let mut art_col = n_struct_slack;
    for (i, row) in form.rows.iter().enumerate() {
        if form.needs_artificial[i] {
            basis[i] = art_col;
            status[art_col] = VarStatus::Basic(i);
            cost_buf[art_col] = 1.0;
            art_col += 1;
        } else {
            let Some(s) = row.slack else {
                unreachable!("slack exists when no artificial needed")
            };
            basis[i] = s;
            status[s] = VarStatus::Basic(i);
        }
    }
    let mut rev = Rev {
        m,
        ntot,
        a: &*a,
        rows: &form.rows,
        lu: &mut *lu,
        basis: &mut *basis,
        status: &mut *status,
        beta: &mut *beta,
        ub: &mut form.ub,
        banned: &mut *banned,
        b: &b[..],
        rhs: &mut *rhs,
        w: &mut *w,
        y: &mut *y,
        cb: &mut *cb,
        e_r: &mut *e_r,
        rho: &mut *rho,
        reached: &mut *reached,
        beta_check: &mut *beta_check,
        pricing: &mut *pricing,
        iterations: 0,
        degenerate_streak: 0,
        use_bland: false,
        deadline,
    };
    let phase1 = n_art > 0;
    if rev.refactorize().is_err() {
        // The all-unit initial basis cannot be singular in exact
        // arithmetic; treat it as numerical trouble.
        let mut r = lp_terminal(LpStatus::IterationLimit, 0, dual_pivots, phase1, false);
        r.factor = factor_stats(rev.lu);
        return r;
    }
    rev.pricing.reset();
    let max_iterations = 50_000 + 100 * (m + ntot);

    // --- Phase 1. ---
    if phase1 {
        match rev.primal_optimize(&cost_buf[..], max_iterations) {
            Ok(()) => {}
            Err(status @ (LpStatus::IterationLimit | LpStatus::TimedOut)) => {
                let mut r = lp_terminal(status, rev.iterations, dual_pivots, phase1, false);
                r.factor = factor_stats(rev.lu);
                return r;
            }
            Err(_) => unreachable!("phase 1 objective is bounded below by zero"),
        }
        let infeasibility: f64 = (0..m)
            .filter(|&i| rev.basis[i] >= n_struct_slack)
            .map(|i| rev.beta[i])
            .sum();
        if infeasibility > FEAS_TOL {
            let mut r = lp_terminal(
                LpStatus::Infeasible,
                rev.iterations,
                dual_pivots,
                phase1,
                false,
            );
            r.factor = factor_stats(rev.lu);
            return r;
        }
        // Drive basic artificials out where possible; ban all artificials.
        for slot in 0..m {
            if rev.basis[slot] >= n_struct_slack {
                rev.cb.clear();
                rev.cb.resize(m, 0.0);
                rev.cb[slot] = 1.0;
                rev.lu.btran(rev.cb, rev.rho);
                let pivot_col = (0..n_struct_slack).find(|&j| {
                    !matches!(rev.status[j], VarStatus::Basic(_))
                        && rev.a.col_dot(j, rev.rho).abs() > SINGULAR_TOL
                });
                if let Some(j) = pivot_col {
                    rev.ftran_col(j);
                    if rev.apply_pivot(slot, j, 1.0, 0.0, false).is_err() {
                        let mut r = lp_terminal(
                            LpStatus::IterationLimit,
                            rev.iterations,
                            dual_pivots,
                            phase1,
                            false,
                        );
                        r.factor = factor_stats(rev.lu);
                        return r;
                    }
                }
            }
        }
        for bflag in rev.banned[n_struct_slack..].iter_mut() {
            *bflag = true;
        }
        rev.pricing.reset();
    }

    // --- Phase 2. ---
    form.cost.resize(ntot, 0.0);
    match rev.primal_optimize(&form.cost, max_iterations) {
        Ok(()) => {}
        Err(status) => {
            let mut r = lp_terminal(status, rev.iterations, dual_pivots, phase1, false);
            r.factor = factor_stats(rev.lu);
            return r;
        }
    }

    finish(
        &rev,
        &form.recover,
        problem,
        n_struct_slack,
        rev.iterations,
        dual_pivots,
        phase1,
        false,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Sense;
    use crate::simplex::{build_internal_form, LpRow};

    fn two_row_form() -> InternalForm {
        // 2x + y ≤ 4, x + 3y ≤ 6 over x, y ≥ 0: internal columns are
        // x, y, s0, s1 — no artificials.
        let p = LpProblem {
            cost: vec![0.0, 0.0],
            lower: vec![0.0, 0.0],
            upper: vec![f64::INFINITY, f64::INFINITY],
            rows: vec![
                LpRow {
                    coeffs: vec![(0, 2.0), (1, 1.0)],
                    sense: Sense::Le,
                    rhs: 4.0,
                },
                LpRow {
                    coeffs: vec![(0, 1.0), (1, 3.0)],
                    sense: Sense::Le,
                    rhs: 6.0,
                },
            ],
        };
        build_internal_form(&p, &|j| p.lower[j], &|j| p.upper[j])
    }

    #[test]
    fn csc_build_matches_rows() {
        let form = two_row_form();
        let mut a = CscMatrix::default();
        a.build(&form);
        assert_eq!((a.m, a.n), (2, 4));
        assert_eq!(a.col(0), (&[0u32, 1][..], &[2.0, 1.0][..]));
        assert_eq!(a.col(1), (&[0u32, 1][..], &[1.0, 3.0][..]));
        assert_eq!(a.col(2), (&[0u32][..], &[1.0][..]));
        assert_eq!(a.col(3), (&[1u32][..], &[1.0][..]));
        assert_eq!(a.col_nnz(0), 2);
        assert_eq!(a.col_nnz(3), 1);
    }

    #[test]
    fn screening_marks_exactly_the_columns_a_nonzero_row_reaches() {
        // Only row 1 is nonzero: x, y and s1 have an entry there, s0 does
        // not, and its dot product with the vector is an exact zero.
        let form = two_row_form();
        let mut a = CscMatrix::default();
        a.build(&form);
        let rho = [0.0, -0.5];
        let mut reached = vec![false; 4];
        mark_reached(&form.rows, &rho, 4, &mut reached);
        assert_eq!(reached, [true, true, false, true]);
        assert_eq!(a.col_dot(2, &rho), 0.0);
        // Columns at or beyond `ntot` are never marked.
        let mut reached = vec![false; 4];
        mark_reached(&form.rows, &rho, 3, &mut reached);
        assert_eq!(reached, [true, true, false, false]);
    }

    #[test]
    fn lu_ftran_btran_roundtrip() {
        // Basis B = [[2, 1], [1, 3]] (columns x, y).
        let form = two_row_form();
        let mut a = CscMatrix::default();
        a.build(&form);
        let mut lu = LuFactors::default();
        lu.factorize(&a, &[0, 1]).expect("nonsingular basis");

        // ftran: B·x = [4, 6] → x = (1.2, 1.6); slot order matches basis.
        let mut rhs = vec![4.0, 6.0];
        let mut out = Vec::new();
        lu.ftran(&mut rhs, &mut out);
        assert!((out[0] - 1.2).abs() < 1e-12);
        assert!((out[1] - 1.6).abs() < 1e-12);
        assert!(rhs.iter().all(|&v| v == 0.0), "ftran must re-zero rhs");

        // btran: Bᵀ·y = e_slot0 → y = (0.6, −0.2).
        let mut c = vec![1.0, 0.0];
        let mut yv = Vec::new();
        lu.btran(&mut c, &mut yv);
        assert!((yv[0] - 0.6).abs() < 1e-12);
        assert!((yv[1] + 0.2).abs() < 1e-12);
    }

    #[test]
    fn eta_update_tracks_basis_change() {
        // Replace slot 0's column (x) with s0 = e0: the eta-updated
        // factors must solve against B' = [[1, 1], [0, 3]].
        let form = two_row_form();
        let mut a = CscMatrix::default();
        a.build(&form);
        let mut lu = LuFactors::default();
        lu.factorize(&a, &[0, 1]).expect("nonsingular basis");

        // w = B⁻¹·e0 = first column of B⁻¹ = (0.6, −0.2).
        let mut rhs = vec![1.0, 0.0];
        let mut w = Vec::new();
        lu.ftran(&mut rhs, &mut w);
        assert!(lu.push_eta(0, &w));
        assert_eq!(lu.eta_count(), 1);

        // B'·x = [4, 6] → y-slot = 2, s0-slot = 2.
        let mut rhs = vec![4.0, 6.0];
        let mut out = Vec::new();
        lu.ftran(&mut rhs, &mut out);
        assert!((out[0] - 2.0).abs() < 1e-12, "slot 0 (now s0): {}", out[0]);
        assert!((out[1] - 2.0).abs() < 1e-12, "slot 1 (y): {}", out[1]);

        // And btran against B'ᵀ: B'ᵀ·y = e_slot1 → y = (0, 1/3).
        let mut c = vec![0.0, 1.0];
        let mut yv = Vec::new();
        lu.btran(&mut c, &mut yv);
        assert!(yv[0].abs() < 1e-12);
        assert!((yv[1] - 1.0 / 3.0).abs() < 1e-12);
    }
}
