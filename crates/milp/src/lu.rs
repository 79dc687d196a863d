//! Sparse LU factorization of the simplex basis with product-form
//! updates.
//!
//! The revised simplex never forms `B⁻¹` explicitly; it needs two linear
//! solves per iteration — `ftran` (`B·x = v`, for the entering column and
//! the basic values) and `btran` (`Bᵀ·y = c`, for the duals and the
//! leaving row) — against a basis matrix that changes by one column per
//! pivot. [`LuFactors`] supports exactly that:
//!
//! * **Factorization** is left-looking (Gilbert–Peierls style with a dense
//!   work vector): basis columns are processed in a static sparsest-first
//!   order with threshold partial pivoting inside each column — a
//!   Markowitz-flavored compromise that keeps both fill-in and pivot
//!   growth small on the assignment models' near-triangular bases. `L` is
//!   stored as per-step multiplier columns, `U` column-wise over pivot
//!   steps. Each column is eliminated only against the earlier steps its
//!   nonzeros reach (see [`LuFactors::factorize`]), not against all of
//!   them.
//! * **Updates** are product-form etas: replacing the column of basis slot
//!   `p` with the ftran'd entering column `w` multiplies the factorization
//!   by an elementary matrix whose inverse needs only `w` and its pivot
//!   `w_p`. Etas compound, so the chain is capped
//!   ([`REFACTOR_INTERVAL`]) and a too-small `w_p`
//!   ([`crate::tolerances::ETA_PIVOT_TOL`]) or drift in the incrementally
//!   maintained basic values forces a fresh factorization. The etas live
//!   in flat arena vectors, so a pivot allocates nothing.
//! * **Dual iterations** need two solves with `Bᵀ` against the same
//!   factors (the leaving row and the duals); [`LuFactors::btran2`] runs
//!   both in one sweep.
//!
//! Every solve applies exactly the floating-point operations of the
//! textbook dense-scan formulation, in the same order, so the simplex
//! takes the same pivots whichever of these shortcuts are in play.
//!
//! Counters (factorization count, eta updates, fill-in, longest eta
//! chain) feed [`crate::simplex::FactorStats`] and from there the solver
//! statistics.

use crate::sparse::CscMatrix;
use crate::tolerances::{ETA_PIVOT_TOL, SINGULAR_TOL};

/// Refactorize once this many product-form etas have accumulated. Each
/// eta lengthens every subsequent `ftran`/`btran` by its nonzero count,
/// so past a few dozen updates a fresh factorization is cheaper than the
/// chain it replaces.
pub(crate) const REFACTOR_INTERVAL: usize = 64;

/// `step_of_row` entry of a row no elimination step has pivoted on yet.
const UNPIVOTED: u32 = u32::MAX;

/// LU factors of the current basis plus the eta chain appended since the
/// last refactorization. All storage is arena-style and reused across
/// factorizations.
#[derive(Debug, Default)]
pub(crate) struct LuFactors {
    m: usize,
    /// Elimination step `k` pivoted on matrix row `pivot_row[k]`,
    /// factoring the basis column of slot `pivot_pos[k]`.
    pivot_row: Vec<u32>,
    pivot_pos: Vec<u32>,
    /// `L` multipliers per step (rows still active below the pivot).
    l_ptr: Vec<usize>,
    l_row: Vec<u32>,
    l_val: Vec<f64>,
    /// `U` column per step: entries over *earlier* steps plus a diagonal.
    /// An entry is stored by the matrix row its step pivoted on
    /// (`pivot_row[step]`), which is where both solves read or write it.
    u_ptr: Vec<usize>,
    u_row: Vec<u32>,
    u_val: Vec<f64>,
    u_diag: Vec<f64>,
    /// Eta chain: eta `e` replaced basis slot `eta_pos[e]` with pivot
    /// `eta_pivot[e]`; its off-pivot entries are
    /// `eta_idx/eta_val[eta_ptr[e]..eta_ptr[e + 1]]`.
    eta_pos: Vec<u32>,
    eta_pivot: Vec<f64>,
    eta_ptr: Vec<usize>,
    eta_idx: Vec<u32>,
    eta_val: Vec<f64>,
    /// Scratch: dense work column, its touched-row list and membership
    /// marks, the step that pivoted each row ([`UNPIVOTED`] if none), the
    /// bitset of earlier steps the current column reaches, and the column
    /// elimination order.
    work: Vec<f64>,
    touched: Vec<u32>,
    in_touch: Vec<bool>,
    step_of_row: Vec<u32>,
    pending: Vec<u64>,
    order: Vec<u32>,
    /// Lifetime counters, reset by [`Self::reset_counters`].
    pub(crate) refactorizations: usize,
    pub(crate) eta_updates: usize,
    pub(crate) max_eta_chain: usize,
    pub(crate) max_fill_in: usize,
}

impl LuFactors {
    /// Clears the per-solve counters (the factors themselves are
    /// overwritten by the next [`Self::factorize`]).
    pub(crate) fn reset_counters(&mut self) {
        self.refactorizations = 0;
        self.eta_updates = 0;
        self.max_eta_chain = 0;
        self.max_fill_in = 0;
    }

    /// Number of etas appended since the last factorization.
    pub(crate) fn eta_count(&self) -> usize {
        self.eta_pos.len()
    }

    /// Adds row `r` to the current column's touched set on its first
    /// touch, marking the earlier step that pivoted on it (if any) as
    /// pending elimination.
    #[inline]
    fn touch(&mut self, r: usize) {
        if !self.in_touch[r] {
            self.in_touch[r] = true;
            self.touched.push(r as u32);
            let t = self.step_of_row[r];
            if t != UNPIVOTED {
                self.pending[t as usize / 64] |= 1 << (t % 64);
            }
        }
    }

    /// Factorizes the basis `B = A[:, basis]`. Returns `Err(())` when the
    /// basis is numerically singular (best available pivot below
    /// [`SINGULAR_TOL`]); the factors are unusable in that case.
    ///
    /// Column `k` is eliminated against the earlier steps whose pivot row
    /// it reaches, in increasing step order. That is exactly the set of
    /// steps a scan over all of `0..k` would apply: a step whose pivot row
    /// was never touched holds an exact `0.0` there, which the scan skips.
    /// A step's `L` rows were unpivoted when it ran, so applying it can
    /// only mark later steps, and one forward sweep over the bitset sees
    /// every mark. The `U`, `L` and touched-row sequences therefore come
    /// out in the scan's order, bit for bit.
    pub(crate) fn factorize(&mut self, a: &CscMatrix, basis: &[usize]) -> Result<(), ()> {
        let m = basis.len();
        debug_assert_eq!(m, a.m, "basis must be square over the row space");
        self.m = m;
        self.refactorizations += 1;
        self.eta_pos.clear();
        self.eta_pivot.clear();
        self.eta_ptr.clear();
        self.eta_ptr.push(0);
        self.eta_idx.clear();
        self.eta_val.clear();
        self.pivot_row.clear();
        self.pivot_pos.clear();
        self.l_ptr.clear();
        self.l_ptr.push(0);
        self.l_row.clear();
        self.l_val.clear();
        self.u_ptr.clear();
        self.u_ptr.push(0);
        self.u_row.clear();
        self.u_val.clear();
        self.u_diag.clear();
        self.work.clear();
        self.work.resize(m, 0.0);
        self.touched.clear();
        self.in_touch.clear();
        self.in_touch.resize(m, false);
        self.step_of_row.clear();
        self.step_of_row.resize(m, UNPIVOTED);
        self.pending.clear();
        self.pending.resize(m.div_ceil(64), 0);

        // Static sparsest-column-first elimination order (ties by slot for
        // determinism): cheap to compute and close to a Markowitz ordering
        // on these mostly-unit bases.
        self.order.clear();
        self.order.extend(0..m as u32);
        self.order
            .sort_by_key(|&slot| (a.col_nnz(basis[slot as usize]), slot));

        let mut basis_nnz = 0usize;
        for k in 0..m {
            let slot = self.order[k] as usize;
            // Scatter the basis column into the dense work vector.
            let (rows, vals) = a.col(basis[slot]);
            basis_nnz += rows.len();
            for (&r, &v) in rows.iter().zip(vals) {
                self.touch(r as usize);
                self.work[r as usize] += v;
            }
            // Left-looking elimination against the reached earlier steps;
            // the value at an earlier pivot row right before its
            // elimination is the `U` entry for this column. A step's bit
            // is set at most once per column (on the first touch of its
            // pivot row), so 64 rounds drain any word, and bits set while
            // draining always belong to later steps.
            for word in 0..k.div_ceil(64) {
                for _ in 0..64 {
                    let bits = self.pending[word];
                    if bits == 0 {
                        break;
                    }
                    self.pending[word] = bits & (bits - 1);
                    let t = word * 64 + bits.trailing_zeros() as usize;
                    let pr = self.pivot_row[t];
                    let xv = self.work[pr as usize];
                    if xv == 0.0 {
                        continue;
                    }
                    self.u_row.push(pr);
                    self.u_val.push(xv);
                    for idx in self.l_ptr[t]..self.l_ptr[t + 1] {
                        let r = self.l_row[idx] as usize;
                        self.touch(r);
                        self.work[r] -= self.l_val[idx] * xv;
                    }
                }
            }
            self.u_ptr.push(self.u_row.len());
            // Partial pivoting over the still-active rows: largest
            // magnitude, ties to the smallest row index.
            let mut best_r = usize::MAX;
            let mut best_mag = SINGULAR_TOL;
            for &r in &self.touched {
                let r = r as usize;
                if self.step_of_row[r] != UNPIVOTED {
                    continue;
                }
                let mag = self.work[r].abs();
                if mag > best_mag || (mag == best_mag && r < best_r) {
                    best_mag = mag;
                    best_r = r;
                }
            }
            if best_r == usize::MAX {
                for &r in &self.touched {
                    self.work[r as usize] = 0.0;
                    self.in_touch[r as usize] = false;
                }
                self.touched.clear();
                return Err(());
            }
            let diag = self.work[best_r];
            self.pivot_row.push(best_r as u32);
            self.pivot_pos.push(slot as u32);
            self.u_diag.push(diag);
            self.step_of_row[best_r] = k as u32;
            for &r in &self.touched {
                let r = r as usize;
                if self.step_of_row[r] == UNPIVOTED && self.work[r] != 0.0 {
                    self.l_row.push(r as u32);
                    self.l_val.push(self.work[r] / diag);
                }
                self.work[r] = 0.0;
                self.in_touch[r] = false;
            }
            self.touched.clear();
            self.l_ptr.push(self.l_row.len());
        }
        let factored_nnz = self.l_row.len() + self.u_row.len() + m;
        self.max_fill_in = self.max_fill_in.max(factored_nnz.saturating_sub(basis_nnz));
        Ok(())
    }

    /// Solves `B·x = v`. `rhs` is a dense row-space vector, consumed and
    /// left all-zero; the solution lands in `out` indexed by *basis slot*.
    pub(crate) fn ftran(&self, rhs: &mut [f64], out: &mut Vec<f64>) {
        let m = self.m;
        // Forward L solve over rows, in elimination order.
        for t in 0..m {
            let xv = rhs[self.pivot_row[t] as usize];
            if xv == 0.0 {
                continue;
            }
            for idx in self.l_ptr[t]..self.l_ptr[t + 1] {
                rhs[self.l_row[idx] as usize] -= self.l_val[idx] * xv;
            }
        }
        // Backward U solve; every matrix row is some step's pivot row, so
        // this pass also re-zeroes `rhs` for the caller.
        out.clear();
        out.resize(m, 0.0);
        for k in (0..m).rev() {
            let pr = self.pivot_row[k] as usize;
            let xv = rhs[pr];
            rhs[pr] = 0.0;
            if xv == 0.0 {
                continue;
            }
            let xq = xv / self.u_diag[k];
            for idx in self.u_ptr[k]..self.u_ptr[k + 1] {
                rhs[self.u_row[idx] as usize] -= self.u_val[idx] * xq;
            }
            out[self.pivot_pos[k] as usize] = xq;
        }
        // Product-form updates, oldest first.
        for e in 0..self.eta_pos.len() {
            let pos = self.eta_pos[e] as usize;
            let t = out[pos];
            if t == 0.0 {
                continue;
            }
            let t = t / self.eta_pivot[e];
            out[pos] = t;
            for idx in self.eta_ptr[e]..self.eta_ptr[e + 1] {
                out[self.eta_idx[idx] as usize] -= self.eta_val[idx] * t;
            }
        }
    }

    /// Solves `Bᵀ·y = c`. `c` is a dense *slot-space* vector (entry per
    /// basis slot), consumed; the solution lands in `out` over matrix
    /// rows.
    pub(crate) fn btran(&self, c: &mut [f64], out: &mut Vec<f64>) {
        let m = self.m;
        // Transposed updates, newest first.
        for e in (0..self.eta_pos.len()).rev() {
            let pos = self.eta_pos[e] as usize;
            let mut s = c[pos];
            for idx in self.eta_ptr[e]..self.eta_ptr[e + 1] {
                s -= self.eta_val[idx] * c[self.eta_idx[idx] as usize];
            }
            c[pos] = s / self.eta_pivot[e];
        }
        // Forward Uᵀ solve into row space.
        out.clear();
        out.resize(m, 0.0);
        for k in 0..m {
            let mut s = c[self.pivot_pos[k] as usize];
            for idx in self.u_ptr[k]..self.u_ptr[k + 1] {
                s -= self.u_val[idx] * out[self.u_row[idx] as usize];
            }
            out[self.pivot_row[k] as usize] = s / self.u_diag[k];
        }
        // Backward Lᵀ solve.
        for t in (0..m).rev() {
            let pr = self.pivot_row[t] as usize;
            let mut s = out[pr];
            for idx in self.l_ptr[t]..self.l_ptr[t + 1] {
                s -= self.l_val[idx] * out[self.l_row[idx] as usize];
            }
            out[pr] = s;
        }
    }

    /// Two [`Self::btran`] solves in one sweep over the factors:
    /// `Bᵀ·a_out = a` and `Bᵀ·b_out = b`. Each vector receives exactly the
    /// operations, in the order, a lone `btran` would apply to it; only
    /// the index loads are shared.
    pub(crate) fn btran2(
        &self,
        a: &mut [f64],
        a_out: &mut Vec<f64>,
        b: &mut [f64],
        b_out: &mut Vec<f64>,
    ) {
        let m = self.m;
        for e in (0..self.eta_pos.len()).rev() {
            let pos = self.eta_pos[e] as usize;
            let (mut sa, mut sb) = (a[pos], b[pos]);
            for idx in self.eta_ptr[e]..self.eta_ptr[e + 1] {
                let (i, v) = (self.eta_idx[idx] as usize, self.eta_val[idx]);
                sa -= v * a[i];
                sb -= v * b[i];
            }
            a[pos] = sa / self.eta_pivot[e];
            b[pos] = sb / self.eta_pivot[e];
        }
        a_out.clear();
        a_out.resize(m, 0.0);
        b_out.clear();
        b_out.resize(m, 0.0);
        for k in 0..m {
            let pos = self.pivot_pos[k] as usize;
            let (mut sa, mut sb) = (a[pos], b[pos]);
            for idx in self.u_ptr[k]..self.u_ptr[k + 1] {
                let (r, v) = (self.u_row[idx] as usize, self.u_val[idx]);
                sa -= v * a_out[r];
                sb -= v * b_out[r];
            }
            let pr = self.pivot_row[k] as usize;
            a_out[pr] = sa / self.u_diag[k];
            b_out[pr] = sb / self.u_diag[k];
        }
        for t in (0..m).rev() {
            let pr = self.pivot_row[t] as usize;
            let (mut sa, mut sb) = (a_out[pr], b_out[pr]);
            for idx in self.l_ptr[t]..self.l_ptr[t + 1] {
                let (r, v) = (self.l_row[idx] as usize, self.l_val[idx]);
                sa -= v * a_out[r];
                sb -= v * b_out[r];
            }
            a_out[pr] = sa;
            b_out[pr] = sb;
        }
    }

    /// Records the basis change "slot `pos` takes the column whose ftran
    /// image is `w`" as a product-form eta. Returns `false` (chain
    /// unchanged) when `w[pos]` is too small to divide by — the caller
    /// must refactorize instead.
    pub(crate) fn push_eta(&mut self, pos: usize, w: &[f64]) -> bool {
        let pivot = w[pos];
        if pivot.abs() < ETA_PIVOT_TOL {
            return false;
        }
        for (i, &v) in w.iter().enumerate() {
            if i != pos && v != 0.0 {
                self.eta_idx.push(i as u32);
                self.eta_val.push(v);
            }
        }
        self.eta_pos.push(pos as u32);
        self.eta_pivot.push(pivot);
        self.eta_ptr.push(self.eta_idx.len());
        self.eta_updates += 1;
        self.max_eta_chain = self.max_eta_chain.max(self.eta_pos.len());
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The factorization and solves as they were before the sparse-reach
    /// sweep, the eta arena, the stored `U` rows and the fused `btran`:
    /// every column scans all earlier steps, each eta owns two `Vec`s,
    /// and `U` entries are stored by step. Kept verbatim as the oracle the
    /// production code must match bit for bit.
    mod oracle {
        use crate::sparse::CscMatrix;
        use crate::tolerances::{ETA_PIVOT_TOL, SINGULAR_TOL};

        #[derive(Debug)]
        pub(super) struct Eta {
            pub(super) pos: usize,
            pub(super) pivot: f64,
            pub(super) idx: Vec<u32>,
            pub(super) val: Vec<f64>,
        }

        #[derive(Debug, Default)]
        pub(super) struct OldLu {
            m: usize,
            pub(super) pivot_row: Vec<u32>,
            pub(super) pivot_pos: Vec<u32>,
            pub(super) l_ptr: Vec<usize>,
            pub(super) l_row: Vec<u32>,
            pub(super) l_val: Vec<f64>,
            pub(super) u_ptr: Vec<usize>,
            pub(super) u_step: Vec<u32>,
            pub(super) u_val: Vec<f64>,
            pub(super) u_diag: Vec<f64>,
            pub(super) etas: Vec<Eta>,
            work: Vec<f64>,
            touched: Vec<u32>,
            in_touch: Vec<bool>,
            row_used: Vec<bool>,
            order: Vec<u32>,
            pub(super) max_fill_in: usize,
        }

        impl OldLu {
            pub(super) fn factorize(&mut self, a: &CscMatrix, basis: &[usize]) -> Result<(), ()> {
                let m = basis.len();
                self.m = m;
                self.etas.clear();
                self.pivot_row.clear();
                self.pivot_pos.clear();
                self.l_ptr.clear();
                self.l_ptr.push(0);
                self.l_row.clear();
                self.l_val.clear();
                self.u_ptr.clear();
                self.u_ptr.push(0);
                self.u_step.clear();
                self.u_val.clear();
                self.u_diag.clear();
                self.work.clear();
                self.work.resize(m, 0.0);
                self.touched.clear();
                self.in_touch.clear();
                self.in_touch.resize(m, false);
                self.row_used.clear();
                self.row_used.resize(m, false);
                self.order.clear();
                self.order.extend(0..m as u32);
                self.order
                    .sort_by_key(|&slot| (a.col_nnz(basis[slot as usize]), slot));
                let mut basis_nnz = 0usize;
                for k in 0..m {
                    let slot = self.order[k] as usize;
                    let (rows, vals) = a.col(basis[slot]);
                    basis_nnz += rows.len();
                    for (&r, &v) in rows.iter().zip(vals) {
                        let r = r as usize;
                        if !self.in_touch[r] {
                            self.in_touch[r] = true;
                            self.touched.push(r as u32);
                        }
                        self.work[r] += v;
                    }
                    for t in 0..k {
                        let pr = self.pivot_row[t] as usize;
                        let xv = self.work[pr];
                        if xv == 0.0 {
                            continue;
                        }
                        self.u_step.push(t as u32);
                        self.u_val.push(xv);
                        for idx in self.l_ptr[t]..self.l_ptr[t + 1] {
                            let r = self.l_row[idx] as usize;
                            if !self.in_touch[r] {
                                self.in_touch[r] = true;
                                self.touched.push(r as u32);
                            }
                            self.work[r] -= self.l_val[idx] * xv;
                        }
                    }
                    self.u_ptr.push(self.u_step.len());
                    let mut best_r = usize::MAX;
                    let mut best_mag = SINGULAR_TOL;
                    for &r in &self.touched {
                        let r = r as usize;
                        if self.row_used[r] {
                            continue;
                        }
                        let mag = self.work[r].abs();
                        if mag > best_mag || (mag == best_mag && r < best_r) {
                            best_mag = mag;
                            best_r = r;
                        }
                    }
                    if best_r == usize::MAX {
                        for &r in &self.touched {
                            self.work[r as usize] = 0.0;
                            self.in_touch[r as usize] = false;
                        }
                        self.touched.clear();
                        return Err(());
                    }
                    let diag = self.work[best_r];
                    self.pivot_row.push(best_r as u32);
                    self.pivot_pos.push(slot as u32);
                    self.u_diag.push(diag);
                    self.row_used[best_r] = true;
                    for &r in &self.touched {
                        let r = r as usize;
                        if !self.row_used[r] && self.work[r] != 0.0 {
                            self.l_row.push(r as u32);
                            self.l_val.push(self.work[r] / diag);
                        }
                        self.work[r] = 0.0;
                        self.in_touch[r] = false;
                    }
                    self.touched.clear();
                    self.l_ptr.push(self.l_row.len());
                }
                let factored_nnz = self.l_row.len() + self.u_step.len() + m;
                self.max_fill_in = self.max_fill_in.max(factored_nnz.saturating_sub(basis_nnz));
                Ok(())
            }

            pub(super) fn ftran(&self, rhs: &mut [f64], out: &mut Vec<f64>) {
                let m = self.m;
                for t in 0..m {
                    let xv = rhs[self.pivot_row[t] as usize];
                    if xv == 0.0 {
                        continue;
                    }
                    for idx in self.l_ptr[t]..self.l_ptr[t + 1] {
                        rhs[self.l_row[idx] as usize] -= self.l_val[idx] * xv;
                    }
                }
                out.clear();
                out.resize(m, 0.0);
                for k in (0..m).rev() {
                    let pr = self.pivot_row[k] as usize;
                    let xv = rhs[pr];
                    rhs[pr] = 0.0;
                    if xv == 0.0 {
                        continue;
                    }
                    let xq = xv / self.u_diag[k];
                    for idx in self.u_ptr[k]..self.u_ptr[k + 1] {
                        rhs[self.pivot_row[self.u_step[idx] as usize] as usize] -=
                            self.u_val[idx] * xq;
                    }
                    out[self.pivot_pos[k] as usize] = xq;
                }
                for eta in &self.etas {
                    let t = out[eta.pos];
                    if t == 0.0 {
                        continue;
                    }
                    let t = t / eta.pivot;
                    out[eta.pos] = t;
                    for (&i, &v) in eta.idx.iter().zip(&eta.val) {
                        out[i as usize] -= v * t;
                    }
                }
            }

            pub(super) fn btran(&self, c: &mut [f64], out: &mut Vec<f64>) {
                let m = self.m;
                for eta in self.etas.iter().rev() {
                    let mut s = c[eta.pos];
                    for (&i, &v) in eta.idx.iter().zip(&eta.val) {
                        s -= v * c[i as usize];
                    }
                    c[eta.pos] = s / eta.pivot;
                }
                out.clear();
                out.resize(m, 0.0);
                for k in 0..m {
                    let mut s = c[self.pivot_pos[k] as usize];
                    for idx in self.u_ptr[k]..self.u_ptr[k + 1] {
                        s -= self.u_val[idx]
                            * out[self.pivot_row[self.u_step[idx] as usize] as usize];
                    }
                    out[self.pivot_row[k] as usize] = s / self.u_diag[k];
                }
                for t in (0..m).rev() {
                    let pr = self.pivot_row[t] as usize;
                    let mut s = out[pr];
                    for idx in self.l_ptr[t]..self.l_ptr[t + 1] {
                        s -= self.l_val[idx] * out[self.l_row[idx] as usize];
                    }
                    out[pr] = s;
                }
            }

            pub(super) fn push_eta(&mut self, pos: usize, w: &[f64]) -> bool {
                let pivot = w[pos];
                if pivot.abs() < ETA_PIVOT_TOL {
                    return false;
                }
                let mut idx = Vec::new();
                let mut val = Vec::new();
                for (i, &v) in w.iter().enumerate() {
                    if i != pos && v != 0.0 {
                        idx.push(i as u32);
                        val.push(v);
                    }
                }
                self.etas.push(Eta {
                    pos,
                    pivot,
                    idx,
                    val,
                });
                true
            }
        }
    }

    use oracle::OldLu;

    /// SplitMix64: a self-contained generator so one drawn seed fixes a
    /// whole case.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// Small integers and dyadic fractions, so that elimination often
        /// cancels to an exact `0.0`.
        fn coeff(&mut self) -> f64 {
            const VALUES: [f64; 10] = [1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 3.0, -0.25, 4.0, 1.5];
            VALUES[self.below(VALUES.len())]
        }

        /// A dense vector with about half its entries zero.
        fn dense(&mut self, n: usize) -> Vec<f64> {
            (0..n)
                .map(|_| {
                    if self.below(2) == 0 {
                        0.0
                    } else {
                        self.coeff() * (1.0 + self.below(7) as f64 / 8.0)
                    }
                })
                .collect()
        }
    }

    /// A random `m`-row matrix with `2m` columns and a basis of `m` of
    /// them. Each basis column gets a nonzero on its own row of a random
    /// permutation (so most bases are nonsingular) plus a few random
    /// entries; every fourth or so is the sum of two earlier columns plus
    /// a unit entry, which makes exact cancellation during elimination
    /// common. The other `m` columns are random sparse entering columns.
    fn random_instance(m: usize, rng: &mut Mix) -> (CscMatrix, Vec<usize>) {
        let mut perm: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        let mut cols: Vec<Vec<(u32, f64)>> = Vec::with_capacity(2 * m);
        for i in 0..2 * m {
            let mut dense = vec![0.0; m];
            if i < m && i >= 2 && rng.below(4) == 0 {
                let (p, q) = (rng.below(i), rng.below(i));
                for &(r, v) in cols[p].iter().chain(&cols[q]) {
                    dense[r as usize] += v;
                }
                dense[perm[i]] += 1.0;
            } else {
                if i < m {
                    dense[perm[i]] = rng.coeff();
                }
                for _ in 0..rng.below(4) {
                    dense[rng.below(m)] += rng.coeff();
                }
            }
            cols.push(
                dense
                    .iter()
                    .enumerate()
                    .filter(|(_, &v)| v != 0.0)
                    .map(|(r, &v)| (r as u32, v))
                    .collect(),
            );
        }
        let mut basis: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            basis.swap(i, rng.below(i + 1));
        }
        (CscMatrix::from_columns(m, &cols), basis)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Asserts the new factors (and eta chain) equal the oracle's.
    fn assert_same_factors(new: &LuFactors, old: &OldLu) -> Result<(), TestCaseError> {
        prop_assert_eq!(&new.pivot_row, &old.pivot_row);
        prop_assert_eq!(&new.pivot_pos, &old.pivot_pos);
        prop_assert_eq!(&new.l_ptr, &old.l_ptr);
        prop_assert_eq!(&new.l_row, &old.l_row);
        prop_assert_eq!(bits(&new.l_val), bits(&old.l_val));
        prop_assert_eq!(&new.u_ptr, &old.u_ptr);
        let old_u_row: Vec<u32> = old
            .u_step
            .iter()
            .map(|&t| old.pivot_row[t as usize])
            .collect();
        prop_assert_eq!(&new.u_row, &old_u_row);
        prop_assert_eq!(bits(&new.u_val), bits(&old.u_val));
        prop_assert_eq!(bits(&new.u_diag), bits(&old.u_diag));
        prop_assert_eq!(new.max_fill_in, old.max_fill_in);
        prop_assert_eq!(new.eta_count(), old.etas.len());
        for (e, eta) in old.etas.iter().enumerate() {
            let span = new.eta_ptr[e]..new.eta_ptr[e + 1];
            prop_assert_eq!(new.eta_pos[e] as usize, eta.pos);
            prop_assert_eq!(new.eta_pivot[e].to_bits(), eta.pivot.to_bits());
            prop_assert_eq!(&new.eta_idx[span.clone()], &eta.idx[..]);
            prop_assert_eq!(bits(&new.eta_val[span]), bits(&eta.val));
        }
        Ok(())
    }

    /// Runs `ftran`, `btran` and `btran2` on random vectors through both
    /// implementations and asserts bit-identical outputs.
    fn assert_same_solves(
        new: &LuFactors,
        old: &OldLu,
        m: usize,
        rng: &mut Mix,
    ) -> Result<(), TestCaseError> {
        let v = rng.dense(m);
        let (mut rn, mut ro) = (v.clone(), v);
        let (mut xn, mut xo) = (Vec::new(), Vec::new());
        new.ftran(&mut rn, &mut xn);
        old.ftran(&mut ro, &mut xo);
        prop_assert_eq!(bits(&xn), bits(&xo));
        prop_assert!(rn.iter().all(|&x| x == 0.0), "ftran must re-zero rhs");

        let (ca, cb) = (rng.dense(m), rng.dense(m));
        let (mut an, mut ao, mut bo) = (ca.clone(), ca.clone(), cb.clone());
        let (mut yn, mut ya, mut yb) = (Vec::new(), Vec::new(), Vec::new());
        new.btran(&mut an, &mut yn);
        old.btran(&mut ao, &mut ya);
        prop_assert_eq!(bits(&yn), bits(&ya));
        prop_assert_eq!(bits(&an), bits(&ao));
        old.btran(&mut bo, &mut yb);

        let (mut a2, mut b2) = (ca, cb);
        let (mut ya2, mut yb2) = (Vec::new(), Vec::new());
        new.btran2(&mut a2, &mut ya2, &mut b2, &mut yb2);
        prop_assert_eq!(bits(&ya2), bits(&ya));
        prop_assert_eq!(bits(&yb2), bits(&yb));
        prop_assert_eq!(bits(&a2), bits(&ao));
        prop_assert_eq!(bits(&b2), bits(&bo));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Factorization, the three solves and eta updates agree with the
        /// full-scan oracle bit for bit on random sparse bases of 2–60
        /// rows with exact cancellations and eta chains of up to 64
        /// updates.
        #[test]
        fn prop_lu_matches_the_full_scan_oracle(
            m in 2usize..61,
            seed in any::<u64>(),
            chain in 0usize..65,
        ) {
            let mut rng = Mix(seed);
            let (a, basis) = random_instance(m, &mut rng);
            let mut new = LuFactors::default();
            let mut old = OldLu::default();
            let got = new.factorize(&a, &basis);
            prop_assert_eq!(got, old.factorize(&a, &basis));
            if got.is_err() {
                return Ok(());
            }
            assert_same_factors(&new, &old)?;
            assert_same_solves(&new, &old, m, &mut rng)?;
            for _ in 0..chain {
                // Enter a random column at the slot of its largest ftran
                // entry, or at a random slot (often a tiny or zero pivot
                // the update must refuse).
                let j = rng.below(a.n);
                let (rows, vals) = a.col(j);
                let mut rhs = vec![0.0; m];
                for (&r, &v) in rows.iter().zip(vals) {
                    rhs[r as usize] += v;
                }
                let mut w = Vec::new();
                new.ftran(&mut rhs.clone(), &mut w);
                let mut w_old = Vec::new();
                old.ftran(&mut rhs, &mut w_old);
                prop_assert_eq!(bits(&w), bits(&w_old));
                let pos = if rng.below(4) == 0 {
                    rng.below(m)
                } else {
                    (0..m).fold(0, |best, i| if w[i].abs() > w[best].abs() { i } else { best })
                };
                prop_assert_eq!(new.push_eta(pos, &w), old.push_eta(pos, &w));
                assert_same_factors(&new, &old)?;
                assert_same_solves(&new, &old, m, &mut rng)?;
            }
        }
    }

    #[test]
    fn a_reached_step_whose_entry_cancels_adds_no_u_entry() {
        // Slots 0, 1, 3 (two nonzeros each) factor first and pivot rows
        // 0, 1, 2 with multipliers on rows 1, 2, 3. Slot 2 = e0 + e1 + e3
        // then reaches steps 0 and 1; step 0 cancels its row-1 entry to an
        // exact 0.0, so step 1, although reached, must add no `U` entry —
        // as the full scan skips it.
        let a = CscMatrix::from_columns(
            4,
            &[
                vec![(0, 1.0), (1, 1.0)],
                vec![(1, 1.0), (2, 1.0)],
                vec![(0, 1.0), (1, 1.0), (3, 1.0)],
                vec![(2, 1.0), (3, 1.0)],
            ],
        );
        let mut lu = LuFactors::default();
        lu.factorize(&a, &[0, 1, 2, 3]).expect("nonsingular");
        let mut old = OldLu::default();
        old.factorize(&a, &[0, 1, 2, 3]).expect("nonsingular");
        assert_same_factors(&lu, &old).expect("same factors as the oracle");
        assert_eq!(lu.pivot_row, [0, 1, 2, 3]);
        assert_eq!(lu.pivot_pos, [0, 1, 3, 2]);
        assert_eq!(lu.l_row, [1, 2, 3]);
        assert_eq!(lu.u_row, [0]);
    }
}
