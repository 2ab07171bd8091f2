//! Numeric phase of the sparse-LU pipeline: left-looking factorization with
//! threshold partial pivoting and KLU-style refactorization, running
//! entirely in the permuted index space of a [`SymbolicAnalysis`].
//!
//! The pipeline has three explicit phases:
//!
//! 1. **ordering** ([`super::order`]) — a fill-reducing permutation computed
//!    from the symmetrized pattern (natural / RCM / AMD, selected by
//!    [`OrderingChoice`]);
//! 2. **symbolic** ([`SymbolicAnalysis`]) — the permuted compressed-column
//!    structure plus the CSR→CSC value shuffle, built once per pattern;
//! 3. **numeric** (this module) — the Gilbert–Peierls column factorization
//!    and the values-only refactorization.
//!
//! The numeric algorithm is the Gilbert–Peierls column method: for each
//! permuted column `j` a sparse triangular solve `L·x = A'(:, j)` is
//! performed symbolically (a DFS over the pattern of `L` yielding a
//! topological order) and numerically, after which the pivot is chosen among
//! the not-yet-pivotal rows. Diagonal entries are preferred when within a
//! threshold of the magnitude-maximal candidate, which keeps the permutation
//! stable across the nearly identical matrices of consecutive transient
//! time steps.
//!
//! That stability is what [`SparseLu::refactor`] exploits: once a matrix has
//! been factored, subsequent matrices with the *same sparsity pattern* (the
//! situation in every Newton iteration, SWEC step and Euler–Maruyama step,
//! where only device conductances change) skip the symbolic analysis and the
//! pivot search entirely and run a values-only numeric pass over the cached
//! `L`/`U` structure — the factor-once/refactor-many strategy of production
//! simulators such as KLU. A refactorization that encounters a new nonzero
//! or a numerically degraded pivot reports [`NumericError::PatternChanged`]
//! so callers can fall back to a full factorization with fresh pivoting
//! ([`SparseLu::refactor_or_factor`] packages that policy, preserving the
//! ordering choice).
//!
//! Callers never see permuted vectors: the fill permutation is applied on
//! scatter-in ([`SymbolicAnalysis::scatter_values`] and the right-hand-side
//! load of [`SparseLu::solve_into`]) and inverted on the way out, so
//! `solve` takes and returns vectors in original MNA numbering whatever the
//! ordering. With [`OrderingChoice::Natural`] every code path degenerates
//! to the identity and results are bit-identical to the pre-ordering
//! pipeline.
//!
//! Factors are stored as flat compressed-column arrays (`colptr`/`rows`/
//! `vals`), not nested `Vec<Vec<_>>`, so the refactor and solve passes are
//! cache-friendly and allocation-free.

use super::kernels::{
    count_col_fma, nonzero_lanes, panel_update, panel_update_multi, SupernodePlan, MAX_SUPERNODE,
};
use super::order::OrderingChoice;
use super::symbolic::SymbolicAnalysis;
use super::CsrMatrix;
use crate::error::NumericError;
use crate::flops::FlopCounter;
use crate::Result;

/// Pivoting policy for [`SparseLu::factor_with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PivotStrategy {
    /// Pick the largest-magnitude candidate in the column (classic partial
    /// pivoting; maximal numerical robustness).
    PartialPivoting,
    /// Prefer the diagonal entry when its magnitude is at least `threshold`
    /// times the column maximum (0 < threshold <= 1). MNA matrices are close
    /// to diagonally dominant, and a stable permutation keeps fill-in and
    /// pattern identical across transient steps.
    ThresholdDiagonal {
        /// Fraction of the column maximum the diagonal must reach.
        threshold: f64,
    },
}

impl Default for PivotStrategy {
    fn default() -> Self {
        PivotStrategy::ThresholdDiagonal { threshold: 0.1 }
    }
}

/// A refactorization pivot whose magnitude drops below this fraction of its
/// column maximum is considered numerically degraded; the strict refactor
/// bails out so the caller can re-pivot from scratch, while the tolerant
/// refactor completes and reports the worst ratio so
/// [`crate::solve::SparseLuSolver`] can try iterative refinement first.
pub(crate) const REFACTOR_PIVOT_RATIO: f64 = 1e-6;

/// A refactorization whose worst `|pivot| / column-max` ratio falls below
/// this is treated as numerically singular by [`crate::solve::SparseLuSolver`]:
/// a pivot twelve decades below its column leaves no trustworthy digits in
/// f64, so iterative refinement is not attempted and the failure is
/// surfaced for the engine-level rescue ladder instead. Full
/// factorizations can never trip this — fresh pivoting bounds the ratio at
/// the pivot threshold.
pub const PIVOT_COLLAPSE_RATIO: f64 = 1e-12;

/// Sparse LU factors of a square matrix under a fill-reducing ordering
/// (`P·A(q,q) = L·U` with `q` the fill permutation and `P` the pivot
/// permutation), with the symbolic analysis cached for cheap values-only
/// refactorization.
///
/// # Example
/// ```
/// use nanosim_numeric::sparse::{SparseLu, TripletMatrix};
/// use nanosim_numeric::flops::FlopCounter;
/// # fn main() -> Result<(), nanosim_numeric::NumericError> {
/// let mut t = TripletMatrix::new(2, 2);
/// t.push(0, 0, 2.0);
/// t.push(1, 1, 4.0);
/// let mut flops = FlopCounter::new();
/// let mut lu = SparseLu::factor(&t.to_csr(), &mut flops)?;
/// let x = lu.solve(&[2.0, 8.0], &mut flops)?;
/// assert_eq!(x, vec![1.0, 2.0]);
///
/// // Same pattern, new values: reuse the symbolic analysis.
/// let mut t2 = TripletMatrix::new(2, 2);
/// t2.push(0, 0, 4.0);
/// t2.push(1, 1, 8.0);
/// lu.refactor(&t2.to_csr(), &mut flops)?;
/// let x = lu.solve(&[2.0, 8.0], &mut flops)?;
/// assert_eq!(x, vec![0.5, 1.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SparseLu {
    pub(crate) n: usize,
    /// Column pointers into `l_rows`/`l_vals`; L column `k` holds entries
    /// strictly below the pivot, already divided by the pivot, with rows in
    /// *permuted* numbering.
    pub(crate) l_colptr: Vec<usize>,
    pub(crate) l_rows: Vec<usize>,
    pub(crate) l_vals: Vec<f64>,
    /// Column pointers into `u_rows`/`u_vals`; U column `j` holds entries
    /// strictly above the diagonal keyed by *pivot index*, ascending.
    pub(crate) u_colptr: Vec<usize>,
    pub(crate) u_rows: Vec<usize>,
    pub(crate) u_vals: Vec<f64>,
    /// Diagonal of U by pivot index.
    pub(crate) u_diag: Vec<f64>,
    /// `perm[k]` = permuted row chosen as the k-th pivot.
    pub(crate) perm: Vec<usize>,
    /// Strategy used for the original factorization (reused on fallback).
    pub(crate) strategy: PivotStrategy,
    /// Cached symbolic analysis: fill ordering, permuted CSC structure,
    /// value shuffle, pattern fingerprint.
    pub(crate) sym: SymbolicAnalysis,
    /// Scratch buffers reused by `refactor` (values in permuted CSC order,
    /// dense working column).
    pub(crate) csc_vals: Vec<f64>,
    pub(crate) work: Vec<f64>,
    /// Blocked-kernel plan: supernode partition, pivot-space index maps and
    /// dense value panels mirroring the supernodal factor entries (see the
    /// internal `kernels` module).
    pub(crate) plan: SupernodePlan,
    /// Smallest `|pivot| / column-max` ratio seen by the most recent
    /// numeric pass (factor or refactor) — the reciprocal pivot-growth
    /// health monitor.
    pub(crate) worst_ratio: f64,
    /// Pivot column at which `worst_ratio` occurred.
    pub(crate) worst_col: usize,
}

impl SparseLu {
    /// Factors `a` with the default pivoting strategy in natural order
    /// (no fill-reducing permutation — bit-identical to the pre-pipeline
    /// behavior; use [`SparseLu::factor_ordered`] for AMD/RCM).
    ///
    /// # Errors
    /// Returns [`NumericError::SingularMatrix`] when a column has no usable
    /// pivot and [`NumericError::DimensionMismatch`] for non-square input.
    pub fn factor(a: &CsrMatrix, flops: &mut FlopCounter) -> Result<Self> {
        Self::factor_with(a, PivotStrategy::default(), flops)
    }

    /// Factors `a` with an explicit [`PivotStrategy`] in natural order.
    ///
    /// # Errors
    /// Same as [`SparseLu::factor`]; additionally rejects non-finite values.
    pub fn factor_with(
        a: &CsrMatrix,
        strategy: PivotStrategy,
        flops: &mut FlopCounter,
    ) -> Result<Self> {
        Self::factor_ordered(a, OrderingChoice::Natural, strategy, flops)
    }

    /// The full three-phase entry point: computes (or resolves) the fill
    /// ordering, builds the symbolic analysis, and runs the numeric factor.
    ///
    /// # Errors
    /// Same as [`SparseLu::factor`].
    pub fn factor_ordered(
        a: &CsrMatrix,
        ordering: OrderingChoice,
        strategy: PivotStrategy,
        flops: &mut FlopCounter,
    ) -> Result<Self> {
        let sym = SymbolicAnalysis::analyze(a, ordering)?;
        Self::factor_symbolic(sym, a, strategy, flops)
    }

    /// Numeric factorization against an already-computed
    /// [`SymbolicAnalysis`] (phase 3 alone — share one analysis across many
    /// factorizations of the same pattern).
    ///
    /// # Errors
    /// [`NumericError::PatternChanged`] when `a` does not match the
    /// analyzed pattern, otherwise as [`SparseLu::factor`].
    pub fn factor_symbolic(
        sym: SymbolicAnalysis,
        a: &CsrMatrix,
        strategy: PivotStrategy,
        flops: &mut FlopCounter,
    ) -> Result<Self> {
        if !sym.matches(a) {
            return Err(NumericError::PatternChanged {
                context: format!(
                    "numeric factor of {}x{} ({} nnz) against analysis of {}x{} ({} nnz)",
                    a.rows(),
                    a.cols(),
                    a.nnz(),
                    sym.dim(),
                    sym.dim(),
                    sym.nnz()
                ),
            });
        }
        let n = sym.dim();
        // Scatter the values through the cached shuffle: from here on the
        // factorization works exclusively in permuted index space.
        let mut values = Vec::new();
        sym.scatter_values(a, &mut values);
        let col_ptr = &sym.csc_colptr;
        let row_idx = &sym.csc_rows;

        let mut l_colptr = Vec::with_capacity(n + 1);
        let mut l_rows: Vec<usize> = Vec::new();
        let mut l_vals: Vec<f64> = Vec::new();
        let mut u_colptr = Vec::with_capacity(n + 1);
        let mut u_rows: Vec<usize> = Vec::new();
        let mut u_vals: Vec<f64> = Vec::new();
        l_colptr.push(0);
        u_colptr.push(0);
        let mut u_diag = vec![0.0; n];
        let mut perm = vec![usize::MAX; n];
        // pinv[row] = pivot index of `row`, or usize::MAX when not pivotal yet.
        let mut pinv = vec![usize::MAX; n];

        let mut x = vec![0.0f64; n]; // dense working column
        let mut visited = vec![usize::MAX; n]; // marks per column j
        let mut topo: Vec<usize> = Vec::with_capacity(n);
        let mut dfs_stack: Vec<(usize, usize)> = Vec::new();
        let mut ucol: Vec<(usize, f64)> = Vec::new();
        let mut worst_ratio = f64::INFINITY;
        let mut worst_col = 0usize;

        for j in 0..n {
            // Scatter A'(:, j) and collect the reachable pattern via DFS.
            topo.clear();
            for p in col_ptr[j]..col_ptr[j + 1] {
                let r = row_idx[p];
                x[r] = values[p];
            }
            for p in col_ptr[j]..col_ptr[j + 1] {
                let start = row_idx[p];
                if visited[start] == j {
                    continue;
                }
                // Iterative DFS producing a post-order.
                dfs_stack.push((start, 0));
                visited[start] = j;
                while let Some(&(node, child)) = dfs_stack.last() {
                    let k = pinv[node];
                    let next = if k != usize::MAX && child < l_colptr[k + 1] - l_colptr[k] {
                        Some(l_rows[l_colptr[k] + child])
                    } else {
                        None
                    };
                    match next {
                        Some(next) => {
                            dfs_stack.last_mut().expect("stack nonempty").1 += 1;
                            if visited[next] != j {
                                visited[next] = j;
                                dfs_stack.push((next, 0));
                            }
                        }
                        None => {
                            topo.push(node);
                            dfs_stack.pop();
                        }
                    }
                }
            }

            // Numeric sparse triangular solve in reverse post-order
            // (dependencies first).
            for &r in topo.iter().rev() {
                let k = pinv[r];
                if k == usize::MAX {
                    continue;
                }
                let xr = x[r];
                if xr != 0.0 {
                    for p in l_colptr[k]..l_colptr[k + 1] {
                        x[l_rows[p]] -= xr * l_vals[p];
                    }
                    flops.fma((l_colptr[k + 1] - l_colptr[k]) as u64);
                }
            }

            // Pivot selection among non-pivotal rows in the pattern.
            let mut max_abs = 0.0f64;
            let mut max_row = usize::MAX;
            let mut diag_abs = -1.0f64;
            for &r in &topo {
                if pinv[r] == usize::MAX {
                    let v = x[r].abs();
                    if !v.is_finite() {
                        return Err(NumericError::SingularMatrix { pivot: j });
                    }
                    if v > max_abs {
                        max_abs = v;
                        max_row = r;
                    }
                    if r == j {
                        diag_abs = v;
                    }
                }
            }
            if max_row == usize::MAX || max_abs == 0.0 {
                return Err(NumericError::SingularMatrix { pivot: j });
            }
            let pivot_row = match strategy {
                PivotStrategy::PartialPivoting => max_row,
                PivotStrategy::ThresholdDiagonal { threshold } => {
                    if diag_abs >= threshold * max_abs {
                        j
                    } else {
                        max_row
                    }
                }
            };
            let pivot_val = x[pivot_row];
            // Health monitor: reciprocal pivot growth of the fresh pivot
            // (observation only — no floating-point behavior changes).
            let ratio = pivot_val.abs() / max_abs;
            if ratio < worst_ratio {
                worst_ratio = ratio;
                worst_col = j;
            }
            perm[j] = pivot_row;
            pinv[pivot_row] = j;
            u_diag[j] = pivot_val;

            // Split the pattern into U (pivotal rows) and L (the rest). The
            // *entire* reached pattern is kept — including exact numerical
            // zeros — so the stored structure is valid for any values with
            // the same input pattern (a refactor requirement).
            ucol.clear();
            for &r in &topo {
                let v = x[r];
                x[r] = 0.0; // clear for next column
                if r == pivot_row {
                    continue;
                }
                let k = pinv[r];
                if k != usize::MAX && k < j {
                    ucol.push((k, v));
                } else if k == usize::MAX {
                    l_rows.push(r);
                    l_vals.push(v / pivot_val);
                    flops.div(1);
                }
            }
            // Sorted U columns make back-substitution cache-friendly,
            // deterministic, and give refactor its topological order.
            ucol.sort_unstable_by_key(|&(k, _)| k);
            for &(k, v) in &ucol {
                u_rows.push(k);
                u_vals.push(v);
            }
            u_colptr.push(u_rows.len());
            l_colptr.push(l_rows.len());
        }

        // The symbolic analysis is kept for refactorization, and the values
        // buffer becomes its scratch space. The supernode plan is built
        // once per numeric pattern (the pivot order is now fixed) and its
        // value panels mirror the fresh factors.
        let mut plan = SupernodePlan::build(
            n,
            &perm,
            &sym.fill_perm,
            &sym.csc_rows,
            &l_colptr,
            &l_rows,
            &u_colptr,
            &u_rows,
            None,
        );
        plan.refresh(&l_vals, &u_vals);
        Ok(SparseLu {
            n,
            l_colptr,
            l_rows,
            l_vals,
            u_colptr,
            u_rows,
            u_vals,
            u_diag,
            perm,
            strategy,
            sym,
            csc_vals: values,
            work: x,
            plan,
            worst_ratio,
            worst_col,
        })
    }

    /// Recomputes the numeric factors of `a`, reusing the cached symbolic
    /// analysis (ordering, pattern, pivot order, fill structure). This
    /// skips the ordering, the DFS and the pivot search and is the hot path
    /// for the nearly identical matrices of consecutive Newton iterations /
    /// transient steps.
    ///
    /// # Errors
    /// Returns [`NumericError::PatternChanged`] when `a`'s sparsity pattern
    /// differs from the factored one (detected up front — the factors are
    /// left unchanged) *or* when a cached pivot has become numerically
    /// degraded (magnitude below `1e-6` of its column maximum), and
    /// [`NumericError::SingularMatrix`] for an exactly zero pivot. The
    /// latter two abort **mid-pass**, leaving the numeric factors partially
    /// updated and unusable: the caller must re-factor before solving
    /// again ([`SparseLu::refactor_or_factor`] packages exactly that
    /// fallback).
    pub fn refactor(&mut self, a: &CsrMatrix, flops: &mut FlopCounter) -> Result<()> {
        self.refactor_blocked(a, flops, true).map(|_| ())
    }

    /// Values-only refactorization that **tolerates degraded pivots**:
    /// instead of aborting when a cached pivot decays below the degradation
    /// threshold, the pass completes with the weak pivot and returns the
    /// worst `|pivot| / column-max` ratio seen, so the caller can recover
    /// accuracy with one iterative-refinement step at solve time (see
    /// [`crate::solve::SparseLuSolver`]) instead of paying a full
    /// re-pivoting factorization.
    ///
    /// # Errors
    /// [`NumericError::PatternChanged`] on a pattern mismatch (detected up
    /// front) and [`NumericError::SingularMatrix`] on an exactly zero or
    /// non-finite pivot (aborts mid-pass like [`SparseLu::refactor`]).
    pub fn refactor_tolerant(&mut self, a: &CsrMatrix, flops: &mut FlopCounter) -> Result<f64> {
        self.refactor_blocked(a, flops, false)
    }

    /// The blocked refactorization shared by [`SparseLu::refactor`]
    /// (`strict`, errors on degraded pivots) and
    /// [`SparseLu::refactor_tolerant`]. Runs in pivot index space and
    /// eliminates with supernodal panel kernels; bit-identical to
    /// [`SparseLu::refactor_scalar`].
    fn refactor_blocked(
        &mut self,
        a: &CsrMatrix,
        flops: &mut FlopCounter,
        strict: bool,
    ) -> Result<f64> {
        if !self.plan.enabled {
            return self.refactor_scalar_impl(a, flops, strict);
        }
        if !self.sym.matches(a) {
            return Err(NumericError::PatternChanged {
                context: format!(
                    "refactor of {}x{} ({} nnz) against analysis of {}x{} ({} nnz)",
                    a.rows(),
                    a.cols(),
                    a.nnz(),
                    self.n,
                    self.n,
                    self.sym.nnz()
                ),
            });
        }

        // Shuffle the new values into the cached permuted CSC order.
        for (p, &v) in a.values().iter().enumerate() {
            self.csc_vals[self.sym.csr_to_csc[p]] = v;
        }

        let n = self.n;
        let SparseLu {
            ref mut work,
            ref mut l_vals,
            ref mut u_vals,
            ref mut u_diag,
            ref mut plan,
            ref l_colptr,
            ref u_colptr,
            ref u_rows,
            ref sym,
            ref csc_vals,
            ..
        } = *self;
        let mut worst_ratio = f64::INFINITY;
        let mut worst_col = 0usize;
        // Kernel scratch hoisted out of the hot loop (zeroing a 32-wide
        // stack array per supernode measurably hurts narrow supernodes).
        let mut uk = [0.0f64; MAX_SUPERNODE];
        let mut active = [0usize; MAX_SUPERNODE];
        for j in 0..n {
            // Zero the pivot-space working column over this column's
            // pattern, then scatter A'(:, j).
            for p in u_colptr[j]..u_colptr[j + 1] {
                work[u_rows[p]] = 0.0;
            }
            work[j] = 0.0;
            for p in l_colptr[j]..l_colptr[j + 1] {
                work[plan.l_rows_piv[p] as usize] = 0.0;
            }
            for p in sym.csc_colptr[j]..sym.csc_colptr[j + 1] {
                work[plan.csc_rows_piv[p] as usize] = csc_vals[p];
            }

            // Eliminate with already-final columns in ascending pivot order,
            // grouping consecutive sources that sit in one supernode into a
            // panel update. (The factor pattern is closed under fill, so any
            // source run inside a supernode is contiguous.)
            let (ustart, uend) = (u_colptr[j], u_colptr[j + 1]);
            let mut p = ustart;
            while p < uend {
                let k = u_rows[p];
                let s = plan.sn_of[k];
                let (s0, s1) = (plan.sn_ptr[s], plan.sn_ptr[s + 1]);
                let w = s1 - s0;
                let mut q = p + 1;
                while q < uend && u_rows[q] == u_rows[q - 1] + 1 && u_rows[q] < s1 {
                    q += 1;
                }
                let run = q - p;
                // The panel kernel requires the source supernode's panels
                // to be up to date, which holds exactly when the supernode
                // completed before this target column (`s1 <= j`). Sources
                // inside the target's own supernode were refreshed this
                // very pass and eliminate per-entry against the live
                // `l_vals` instead.
                if run >= 2 && w >= 2 && s1 <= j && plan.l_use[s] {
                    let tri = &plan.l_tri[plan.l_tri_ptr[s]..plan.l_tri_ptr[s + 1]];
                    let rows = &plan.l_sn_rows[plan.l_rows_ptr[s]..plan.l_rows_ptr[s + 1]];
                    let nr = rows.len();
                    let mut na = 0usize;
                    for t in 0..run {
                        let c = k + t - s0;
                        let ukj = work[k + t];
                        u_vals[p + t] = ukj;
                        uk[c] = ukj;
                        if ukj != 0.0 {
                            active[na] = c;
                            na += 1;
                            let base = c * (2 * w - c - 1) / 2;
                            for (r, &tv) in (c + 1..w).zip(&tri[base..base + (w - 1 - c)]) {
                                work[s0 + r] -= ukj * tv;
                            }
                            // True (unpadded) column length — the flop
                            // accounting matches the scalar path exactly.
                            flops.fma((l_colptr[k + t + 1] - l_colptr[k + t]) as u64);
                        }
                    }
                    if na > 0 && nr > 0 {
                        let panel = &plan.l_panel[plan.l_panel_ptr[s]..plan.l_panel_ptr[s + 1]];
                        panel_update(work, rows, panel, w, &uk[..w], &active[..na]);
                    }
                    p = q;
                } else {
                    let ukj = work[k];
                    u_vals[p] = ukj;
                    if ukj != 0.0 {
                        for q2 in l_colptr[k]..l_colptr[k + 1] {
                            work[plan.l_rows_piv[q2] as usize] -= ukj * l_vals[q2];
                        }
                        flops.fma((l_colptr[k + 1] - l_colptr[k]) as u64);
                    }
                    p += 1;
                }
            }

            // Fixed pivot: check it is still numerically sound.
            let pivot_val = work[j];
            let mut col_max = pivot_val.abs();
            for p in l_colptr[j]..l_colptr[j + 1] {
                col_max = col_max.max(work[plan.l_rows_piv[p] as usize].abs());
            }
            if !pivot_val.is_finite() || pivot_val == 0.0 {
                if pivot_val == 0.0 && col_max > 0.0 && strict {
                    // Exactly-zero pivot over a live column: degraded, the
                    // strict path reports it as a pattern-level failure so
                    // `refactor_or_factor` re-pivots.
                    return Err(NumericError::PatternChanged {
                        context: format!(
                            "pivot {j} collapsed to 0 against column max {col_max:.3e}"
                        ),
                    });
                }
                return Err(NumericError::SingularMatrix { pivot: j });
            }
            let ratio = pivot_val.abs() / col_max;
            if strict && ratio < REFACTOR_PIVOT_RATIO {
                return Err(NumericError::PatternChanged {
                    context: format!(
                        "pivot {j} degraded to {:.3e} against column max {:.3e}",
                        pivot_val.abs(),
                        col_max
                    ),
                });
            }
            if ratio < worst_ratio {
                worst_ratio = ratio;
                worst_col = j;
            }
            u_diag[j] = pivot_val;
            for p in l_colptr[j]..l_colptr[j + 1] {
                l_vals[p] = work[plan.l_rows_piv[p] as usize] / pivot_val;
            }
            flops.div((l_colptr[j + 1] - l_colptr[j]) as u64);

            // Panels of a completed supernode refresh immediately so later
            // columns eliminate against the new values.
            let s = plan.sn_of[j];
            if j + 1 == plan.sn_ptr[s + 1] && plan.sn_ptr[s + 1] - plan.sn_ptr[s] >= 2 {
                plan.refresh_supernode(s, l_vals, u_vals);
            }
        }
        self.worst_ratio = worst_ratio;
        self.worst_col = worst_col;
        Ok(worst_ratio)
    }

    /// The scalar reference refactorization — the pre-supernode per-entry
    /// column loops, kept verbatim (plus a panel refresh so subsequent
    /// blocked solves see the new values) for bit-exactness tests and the
    /// `benches/solve.rs` scalar baseline. Produces bit-identical factors
    /// to [`SparseLu::refactor`]. Factors below the blocked-kernel gate
    /// run through this path by default.
    ///
    /// # Errors
    /// Same as [`SparseLu::refactor`].
    pub fn refactor_scalar(&mut self, a: &CsrMatrix, flops: &mut FlopCounter) -> Result<()> {
        self.refactor_scalar_impl(a, flops, true).map(|_| ())
    }

    /// Shared scalar refactor body (`strict` as in
    /// [`SparseLu::refactor_blocked`]); returns the worst pivot ratio.
    fn refactor_scalar_impl(
        &mut self,
        a: &CsrMatrix,
        flops: &mut FlopCounter,
        strict: bool,
    ) -> Result<f64> {
        if !self.sym.matches(a) {
            return Err(NumericError::PatternChanged {
                context: format!(
                    "refactor of {}x{} ({} nnz) against analysis of {}x{} ({} nnz)",
                    a.rows(),
                    a.cols(),
                    a.nnz(),
                    self.n,
                    self.n,
                    self.sym.nnz()
                ),
            });
        }

        // Shuffle the new values into the cached permuted CSC order.
        for (p, &v) in a.values().iter().enumerate() {
            self.csc_vals[self.sym.csr_to_csc[p]] = v;
        }

        let n = self.n;
        let mut worst_ratio = f64::INFINITY;
        let mut worst_col = 0usize;
        for j in 0..n {
            // Zero the working column over this column's pattern, then
            // scatter A'(:, j). The pattern is exactly: the pivot rows of
            // the U entries, the pivot row itself, and the L rows.
            for p in self.u_colptr[j]..self.u_colptr[j + 1] {
                self.work[self.perm[self.u_rows[p]]] = 0.0;
            }
            self.work[self.perm[j]] = 0.0;
            for p in self.l_colptr[j]..self.l_colptr[j + 1] {
                self.work[self.l_rows[p]] = 0.0;
            }
            for p in self.sym.csc_colptr[j]..self.sym.csc_colptr[j + 1] {
                self.work[self.sym.csc_rows[p]] = self.csc_vals[p];
            }

            // Eliminate with already-final columns in ascending pivot order
            // (a topological order, since L[r, k] with pinv[r] = k' implies
            // k < k').
            for p in self.u_colptr[j]..self.u_colptr[j + 1] {
                let k = self.u_rows[p];
                let ukj = self.work[self.perm[k]];
                self.u_vals[p] = ukj;
                if ukj != 0.0 {
                    for q in self.l_colptr[k]..self.l_colptr[k + 1] {
                        self.work[self.l_rows[q]] -= ukj * self.l_vals[q];
                    }
                    flops.fma((self.l_colptr[k + 1] - self.l_colptr[k]) as u64);
                }
            }

            // Fixed pivot: check it is still numerically sound.
            let pivot_row = self.perm[j];
            let pivot_val = self.work[pivot_row];
            let mut col_max = pivot_val.abs();
            for p in self.l_colptr[j]..self.l_colptr[j + 1] {
                col_max = col_max.max(self.work[self.l_rows[p]].abs());
            }
            if !pivot_val.is_finite() || pivot_val == 0.0 {
                if pivot_val == 0.0 && col_max > 0.0 && strict {
                    return Err(NumericError::PatternChanged {
                        context: format!(
                            "pivot {j} collapsed to 0 against column max {col_max:.3e}"
                        ),
                    });
                }
                return Err(NumericError::SingularMatrix { pivot: j });
            }
            let ratio = pivot_val.abs() / col_max;
            if strict && ratio < REFACTOR_PIVOT_RATIO {
                return Err(NumericError::PatternChanged {
                    context: format!(
                        "pivot {j} degraded to {:.3e} against column max {:.3e}",
                        pivot_val.abs(),
                        col_max
                    ),
                });
            }
            if ratio < worst_ratio {
                worst_ratio = ratio;
                worst_col = j;
            }
            self.u_diag[j] = pivot_val;
            for p in self.l_colptr[j]..self.l_colptr[j + 1] {
                self.l_vals[p] = self.work[self.l_rows[p]] / pivot_val;
            }
            flops.div((self.l_colptr[j + 1] - self.l_colptr[j]) as u64);
        }
        // Keep the blocked kernels' panels coherent with the refreshed
        // factors (the blocked refactor does this incrementally; a gated
        // plan has no panels to maintain).
        if self.plan.enabled {
            self.plan.refresh(&self.l_vals, &self.u_vals);
        }
        self.worst_ratio = worst_ratio;
        self.worst_col = worst_col;
        Ok(worst_ratio)
    }

    /// Refactors `a` in place, falling back to a full numeric
    /// factorization with fresh pivoting when the pattern changed or a
    /// pivot degraded. A degraded pivot on an unchanged pattern reuses the
    /// cached symbolic analysis (the ordering and permuted structure are
    /// still exact); only a genuine pattern change re-runs the ordering
    /// under the same [`OrderingChoice`]. Returns `true` when the cached
    /// numeric factors were refreshed in place, `false` when a full
    /// factorization ran.
    ///
    /// # Errors
    /// Returns [`NumericError::SingularMatrix`] /
    /// [`NumericError::DimensionMismatch`] when even the full factorization
    /// fails; the factors are then in an unspecified (but valid) state.
    pub fn refactor_or_factor(&mut self, a: &CsrMatrix, flops: &mut FlopCounter) -> Result<bool> {
        match self.refactor(a, flops) {
            Ok(()) => Ok(true),
            Err(NumericError::PatternChanged { .. }) | Err(NumericError::SingularMatrix { .. }) => {
                *self = if self.sym.matches(a) {
                    SparseLu::factor_symbolic(self.sym.clone(), a, self.strategy, flops)?
                } else {
                    SparseLu::factor_ordered(a, self.sym.choice(), self.strategy, flops)?
                };
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Total stored entries in `L` and `U` (fill-in diagnostic).
    pub fn nnz(&self) -> usize {
        self.l_vals.len() + self.u_vals.len() + self.n
    }

    /// Nonzeros of the factored input matrix `A`.
    pub fn nnz_a(&self) -> usize {
        self.sym.nnz()
    }

    /// Fill ratio `nnz(L + U) / nnz(A)` — 1.0 means zero fill-in.
    pub fn fill_ratio(&self) -> f64 {
        self.nnz() as f64 / self.nnz_a().max(1) as f64
    }

    /// Name of the fill ordering actually applied ("natural", "rcm",
    /// "amd").
    pub fn ordering_name(&self) -> &'static str {
        self.sym.ordering_name()
    }

    /// Number of multi-column supernodes (adjacent factor columns with
    /// nesting patterns, stored as dense panels) the blocked kernels
    /// detected in this factorization.
    pub fn supernode_count(&self) -> usize {
        self.plan.supernode_count()
    }

    /// Number of factor columns covered by multi-column supernodes (out of
    /// [`SparseLu::dim`]) — the fraction of the triangular solves running
    /// through the dense panel kernels.
    pub fn supernode_cols(&self) -> usize {
        self.plan.supernode_cols()
    }

    /// Whether the blocked panel kernels are engaged (factors below the
    /// size gate route through the scalar sweeps).
    pub fn blocked_kernels(&self) -> bool {
        self.plan.enabled
    }

    /// Overrides the blocked-kernel size gate, rebuilding the kernel plan
    /// (hidden: lets tests and benches exercise the panel kernels on
    /// factors below the gate, or measure the scalar path above it).
    #[doc(hidden)]
    pub fn set_blocked_kernels(&mut self, on: bool) {
        let mut plan = SupernodePlan::build(
            self.n,
            &self.perm,
            &self.sym.fill_perm,
            &self.sym.csc_rows,
            &self.l_colptr,
            &self.l_rows,
            &self.u_colptr,
            &self.u_rows,
            Some(on),
        );
        plan.refresh(&self.l_vals, &self.u_vals);
        self.plan = plan;
    }

    /// The cached symbolic analysis.
    pub fn symbolic(&self) -> &SymbolicAnalysis {
        &self.sym
    }

    /// Smallest `|pivot| / column-max` ratio of the most recent numeric
    /// pass — the reciprocal pivot-growth health monitor. `1.0` means
    /// every pivot dominated its column; values below the `1e-6`
    /// degradation threshold indicate decayed pivots, and below
    /// [`PIVOT_COLLAPSE_RATIO`] the factors carry no trustworthy digits.
    pub fn min_recip_pivot(&self) -> f64 {
        self.worst_ratio
    }

    /// Pivot column at which [`SparseLu::min_recip_pivot`] occurred.
    pub fn worst_pivot_col(&self) -> usize {
        self.worst_col
    }

    /// Solves `A·x = b` with the stored factors.
    ///
    /// # Errors
    /// Returns [`NumericError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64], flops: &mut FlopCounter) -> Result<Vec<f64>> {
        let mut x = vec![0.0; self.n];
        let mut work = vec![0.0; self.n];
        self.solve_into(b, &mut x, &mut work, flops)?;
        Ok(x)
    }

    /// Allocation-free solve `A·x = b` into caller-provided buffers. `x`
    /// receives the solution *in original numbering* — the fill permutation
    /// is applied to `b` on the way in and inverted on the way out, so
    /// callers are ordering-agnostic. `work` is scratch. Both are resized
    /// to the matrix dimension, so reusing the same buffers across calls
    /// performs no allocation after the first.
    ///
    /// This is the **blocked fast path**: the triangular solves run in
    /// pivot index space over the supernodal panel kernels (internal
    /// `kernels` module), bit-identical to the scalar reference
    /// [`SparseLu::solve_into_scalar`] (locked by `tests/solve_kernels.rs`).
    ///
    /// # Errors
    /// Returns [`NumericError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve_into(
        &self,
        b: &[f64],
        x: &mut Vec<f64>,
        work: &mut Vec<f64>,
        flops: &mut FlopCounter,
    ) -> Result<()> {
        if !self.plan.enabled {
            // Small factors (below the blocked-kernel gate) keep the exact
            // pre-blocking scalar hot path.
            return self.solve_into_scalar(b, x, work, flops);
        }
        if b.len() != self.n {
            return Err(NumericError::DimensionMismatch {
                context: format!("sparse lu solve: rhs of {} for n={}", b.len(), self.n),
            });
        }
        let n = self.n;
        x.resize(n, 0.0);
        work.resize(n, 0.0);
        let z = &mut work[..n];
        let plan = &self.plan;
        // One combined gather replaces the scalar path's fill-permutation
        // load plus per-column pivot-permutation indirection.
        for (k, zk) in z.iter_mut().enumerate() {
            *zk = b[plan.in_perm[k]];
        }
        let ns = plan.sn_ptr.len() - 1;
        let mut xs = [0.0f64; MAX_SUPERNODE];
        let mut active = [0usize; MAX_SUPERNODE];
        // Forward solve L·z = b' (unit lower triangular, pivot space):
        // push-form supernode panels — each shared row takes one gather,
        // a contiguous dot-chain over the supernode's columns, and one
        // scatter, with per-row chains independent across rows so the
        // floating-point latency overlaps.
        for s in 0..ns {
            let (k0, k1) = (plan.sn_ptr[s], plan.sn_ptr[s + 1]);
            let w = k1 - k0;
            if w == 1 || !plan.l_use[s] {
                // Width-1 or panel-gated supernode: per-entry scalar
                // columns in pivot space (identical update chains).
                for k in k0..k1 {
                    let val = z[k];
                    if val != 0.0 {
                        for p in self.l_colptr[k]..self.l_colptr[k + 1] {
                            z[plan.l_rows_piv[p] as usize] -= val * self.l_vals[p];
                        }
                        flops.fma((self.l_colptr[k + 1] - self.l_colptr[k]) as u64);
                    }
                }
                continue;
            }
            let tri = &plan.l_tri[plan.l_tri_ptr[s]..plan.l_tri_ptr[s + 1]];
            let rows = &plan.l_sn_rows[plan.l_rows_ptr[s]..plan.l_rows_ptr[s + 1]];
            let nr = rows.len();
            let mut na = 0usize;
            for c in 0..w {
                let val = z[k0 + c];
                xs[c] = val;
                if val != 0.0 {
                    active[na] = c;
                    na += 1;
                    let base = c * (2 * w - c - 1) / 2;
                    for (r, &tv) in (c + 1..w).zip(&tri[base..base + (w - 1 - c)]) {
                        z[k0 + r] -= val * tv;
                    }
                    // True (unpadded) column length — matches the scalar
                    // path's accounting exactly.
                    flops.fma((self.l_colptr[k0 + c + 1] - self.l_colptr[k0 + c]) as u64);
                }
            }
            if na > 0 && nr > 0 {
                let panel = &plan.l_panel[plan.l_panel_ptr[s]..plan.l_panel_ptr[s + 1]];
                panel_update(z, rows, panel, w, &xs[..w], &active[..na]);
            }
        }
        // Backward solve U·y = z: push-form supernode panels, columns
        // descending, per-row chains in descending column order.
        for s in (0..ns).rev() {
            let (k0, k1) = (plan.sn_ptr[s], plan.sn_ptr[s + 1]);
            let w = k1 - k0;
            if w == 1 || !plan.u_use[s] {
                for k in (k0..k1).rev() {
                    z[k] /= self.u_diag[k];
                    let xk = z[k];
                    if xk != 0.0 {
                        for p in self.u_colptr[k]..self.u_colptr[k + 1] {
                            z[plan.u_rows32[p] as usize] -= self.u_vals[p] * xk;
                        }
                    }
                }
                continue;
            }
            let tri = &plan.u_tri[plan.u_tri_ptr[s]..plan.u_tri_ptr[s + 1]];
            let rows = &plan.u_sn_rows[plan.u_rows_ptr[s]..plan.u_rows_ptr[s + 1]];
            let nr = rows.len();
            let mut na = 0usize;
            for c in (0..w).rev() {
                z[k0 + c] /= self.u_diag[k0 + c];
                let val = z[k0 + c];
                xs[c] = val;
                if val != 0.0 {
                    // Appended in descending column order: the panel chain
                    // then matches the scalar backward sweep per row.
                    active[na] = c;
                    na += 1;
                    let base = (c * c - c) / 2;
                    for r in 0..c {
                        z[k0 + r] -= tri[base + r] * val;
                    }
                }
            }
            if na > 0 && nr > 0 {
                let panel = &plan.u_panel[plan.u_panel_ptr[s]..plan.u_panel_ptr[s + 1]];
                panel_update(z, rows, panel, w, &xs[..w], &active[..na]);
            }
        }
        // Flop accounting mirrors the scalar sweep exactly: one division
        // per column, plus each column's true length when its (final)
        // multiplier is nonzero — read off the finished solution.
        flops.div(n as u64);
        for (k, &zk) in z.iter().enumerate() {
            if zk != 0.0 {
                flops.fma((self.u_colptr[k + 1] - self.u_colptr[k]) as u64);
            }
        }
        // Undo the fill permutation: x_out[fill_perm[k]] = y[k].
        for (k, &zk) in z.iter().enumerate() {
            x[self.sym.fill_perm[k]] = zk;
        }
        Ok(())
    }

    /// Batched multi-RHS solve `A·X = B` over `nrhs` right-hand sides,
    /// column-major (`b[j*n..][..n]` is column `j`, and the solution lands
    /// in `x[j*n..][..n]`). One factor traversal serves every column: the
    /// kernels walk the supernodal structure once and update all `nrhs`
    /// lanes per entry, which is what makes batching beat `nrhs`
    /// independent [`SparseLu::solve_into`] calls from `nrhs >= 4` or so
    /// (see `benches/solve.rs`). Results are **bit-identical** to `nrhs`
    /// independent solves; per-lane flop accounting matches too.
    ///
    /// # Errors
    /// Returns [`NumericError::DimensionMismatch`] if
    /// `b.len() != nrhs * self.dim()` or `nrhs == 0`.
    pub fn solve_many_into(
        &self,
        b: &[f64],
        nrhs: usize,
        x: &mut Vec<f64>,
        work: &mut Vec<f64>,
        flops: &mut FlopCounter,
    ) -> Result<()> {
        let n = self.n;
        if nrhs == 0 || b.len() != n * nrhs {
            return Err(NumericError::DimensionMismatch {
                context: format!(
                    "sparse lu multi-solve: rhs block of {} for n={} x k={}",
                    b.len(),
                    n,
                    nrhs
                ),
            });
        }
        x.resize(n * nrhs, 0.0);
        // One buffer carries the interleaved lanes plus the supernode
        // scratch, so a reused `work` keeps the solve allocation-free.
        work.resize((n + MAX_SUPERNODE) * nrhs, 0.0);
        let (z, xs_buf) = work.split_at_mut(n * nrhs);
        let plan = &self.plan;
        // Interleaved layout: lanes of one pivot slot are contiguous.
        for k in 0..n {
            let src = plan.in_perm[k];
            for r in 0..nrhs {
                z[k * nrhs + r] = b[r * n + src];
            }
        }
        let ns = plan.sn_ptr.len() - 1;
        let mut active = [0usize; MAX_SUPERNODE];
        // Forward.
        for s in 0..ns {
            let (k0, k1) = (plan.sn_ptr[s], plan.sn_ptr[s + 1]);
            let w = k1 - k0;
            if w == 1 || !plan.l_use[s] {
                for k in k0..k1 {
                    let (head, tail) = z.split_at_mut((k + 1) * nrhs);
                    let vals = &head[k * nrhs..];
                    let nz = nonzero_lanes(vals);
                    if nz > 0 {
                        for p in self.l_colptr[k]..self.l_colptr[k + 1] {
                            let row = plan.l_rows_piv[p] as usize;
                            let lv = self.l_vals[p];
                            let dst = &mut tail[(row - k - 1) * nrhs..(row - k) * nrhs];
                            for (d, &v) in dst.iter_mut().zip(vals) {
                                *d -= v * lv;
                            }
                        }
                        count_col_fma(flops, self.l_colptr[k + 1] - self.l_colptr[k], nz);
                    }
                }
                continue;
            }
            let tri = &plan.l_tri[plan.l_tri_ptr[s]..plan.l_tri_ptr[s + 1]];
            let rows = &plan.l_sn_rows[plan.l_rows_ptr[s]..plan.l_rows_ptr[s + 1]];
            let nr = rows.len();
            let mut na = 0usize;
            for c in 0..w {
                xs_buf[c * nrhs..(c + 1) * nrhs]
                    .copy_from_slice(&z[(k0 + c) * nrhs..(k0 + c + 1) * nrhs]);
                let vals = &xs_buf[c * nrhs..(c + 1) * nrhs];
                let nz = nonzero_lanes(vals);
                if nz > 0 {
                    active[na] = c;
                    na += 1;
                    let base = c * (2 * w - c - 1) / 2;
                    for (r, &tv) in (c + 1..w).zip(&tri[base..base + (w - 1 - c)]) {
                        let dst = &mut z[(k0 + r) * nrhs..(k0 + r + 1) * nrhs];
                        for (d, &v) in dst.iter_mut().zip(vals.iter()) {
                            *d -= v * tv;
                        }
                    }
                    count_col_fma(flops, self.l_colptr[k0 + c + 1] - self.l_colptr[k0 + c], nz);
                }
            }
            if na > 0 && nr > 0 {
                let panel = &plan.l_panel[plan.l_panel_ptr[s]..plan.l_panel_ptr[s + 1]];
                panel_update_multi(z, rows, panel, w, &xs_buf[..w * nrhs], &active[..na], nrhs);
            }
        }
        // Backward.
        for s in (0..ns).rev() {
            let (k0, k1) = (plan.sn_ptr[s], plan.sn_ptr[s + 1]);
            let w = k1 - k0;
            if w == 1 || !plan.u_use[s] {
                for k in (k0..k1).rev() {
                    let d = self.u_diag[k];
                    for v in z[k * nrhs..(k + 1) * nrhs].iter_mut() {
                        *v /= d;
                    }
                    flops.div(nrhs as u64);
                    let (head, tail) = z.split_at_mut(k * nrhs);
                    let vals = &tail[..nrhs];
                    let nz = nonzero_lanes(vals);
                    if nz > 0 {
                        for p in self.u_colptr[k]..self.u_colptr[k + 1] {
                            let row = plan.u_rows32[p] as usize;
                            let uv = self.u_vals[p];
                            let dst = &mut head[row * nrhs..(row + 1) * nrhs];
                            for (d, &v) in dst.iter_mut().zip(vals) {
                                *d -= uv * v;
                            }
                        }
                        count_col_fma(flops, self.u_colptr[k + 1] - self.u_colptr[k], nz);
                    }
                }
                continue;
            }
            let tri = &plan.u_tri[plan.u_tri_ptr[s]..plan.u_tri_ptr[s + 1]];
            let rows = &plan.u_sn_rows[plan.u_rows_ptr[s]..plan.u_rows_ptr[s + 1]];
            let nr = rows.len();
            let mut na = 0usize;
            for c in (0..w).rev() {
                let d = self.u_diag[k0 + c];
                for v in z[(k0 + c) * nrhs..(k0 + c + 1) * nrhs].iter_mut() {
                    *v /= d;
                }
                flops.div(nrhs as u64);
                xs_buf[c * nrhs..(c + 1) * nrhs]
                    .copy_from_slice(&z[(k0 + c) * nrhs..(k0 + c + 1) * nrhs]);
                let vals = &xs_buf[c * nrhs..(c + 1) * nrhs];
                let nz = nonzero_lanes(vals);
                if nz > 0 {
                    active[na] = c;
                    na += 1;
                    let base = (c * c - c) / 2;
                    for r in 0..c {
                        let tv = tri[base + r];
                        let dst = &mut z[(k0 + r) * nrhs..(k0 + r + 1) * nrhs];
                        for (d, &v) in dst.iter_mut().zip(vals.iter()) {
                            *d -= tv * v;
                        }
                    }
                    count_col_fma(flops, self.u_colptr[k0 + c + 1] - self.u_colptr[k0 + c], nz);
                }
            }
            if na > 0 && nr > 0 {
                let panel = &plan.u_panel[plan.u_panel_ptr[s]..plan.u_panel_ptr[s + 1]];
                panel_update_multi(z, rows, panel, w, &xs_buf[..w * nrhs], &active[..na], nrhs);
            }
        }
        // Scatter out, undoing the fill permutation per lane.
        for k in 0..n {
            let dst = self.sym.fill_perm[k];
            for r in 0..nrhs {
                x[r * n + dst] = z[k * nrhs + r];
            }
        }
        Ok(())
    }

    /// Convenience wrapper over [`SparseLu::solve_many_into`] allocating
    /// the `n × nrhs` solution block.
    ///
    /// # Errors
    /// Same as [`SparseLu::solve_many_into`].
    pub fn solve_many(&self, b: &[f64], nrhs: usize, flops: &mut FlopCounter) -> Result<Vec<f64>> {
        let mut x = Vec::new();
        let mut work = Vec::new();
        self.solve_many_into(b, nrhs, &mut x, &mut work, flops)?;
        Ok(x)
    }

    /// The scalar reference solve — the pre-supernode permuted-row-space
    /// column loops, kept verbatim for bit-exactness tests and the
    /// `benches/solve.rs` scalar baseline. Produces bit-identical results
    /// (and flop counts) to the blocked [`SparseLu::solve_into`].
    ///
    /// # Errors
    /// Returns [`NumericError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve_into_scalar(
        &self,
        b: &[f64],
        x: &mut Vec<f64>,
        work: &mut Vec<f64>,
        flops: &mut FlopCounter,
    ) -> Result<()> {
        if b.len() != self.n {
            return Err(NumericError::DimensionMismatch {
                context: format!("sparse lu solve: rhs of {} for n={}", b.len(), self.n),
            });
        }
        let n = self.n;
        x.resize(n, 0.0);
        work.resize(n, 0.0);
        // Forward solve L·z = P·b', working in permuted row numbering
        // (b'[i] = b[q[i]]; the identity fast path keeps the natural-order
        // pipeline bit-exact).
        if self.sym.identity {
            work.copy_from_slice(b);
        } else {
            for (i, w) in work.iter_mut().enumerate() {
                *w = b[self.sym.fill_perm[i]];
            }
        }
        for k in 0..n {
            let val = work[self.perm[k]];
            x[k] = val;
            if val != 0.0 {
                for p in self.l_colptr[k]..self.l_colptr[k + 1] {
                    work[self.l_rows[p]] -= val * self.l_vals[p];
                }
                flops.fma((self.l_colptr[k + 1] - self.l_colptr[k]) as u64);
            }
        }
        // Backward solve U·y = z; the solution index equals the permuted
        // column index.
        for k in (0..n).rev() {
            x[k] /= self.u_diag[k];
            flops.div(1);
            let xk = x[k];
            if xk != 0.0 {
                for p in self.u_colptr[k]..self.u_colptr[k + 1] {
                    x[self.u_rows[p]] -= self.u_vals[p] * xk;
                }
                flops.fma((self.u_colptr[k + 1] - self.u_colptr[k]) as u64);
            }
        }
        // Undo the fill permutation: x_out[q[k]] = y[k].
        if !self.sym.identity {
            work[..n].copy_from_slice(&x[..n]);
            for (k, &w) in work.iter().enumerate() {
                x[self.sym.fill_perm[k]] = w;
            }
        }
        Ok(())
    }

    /// Determinant of the original matrix (product of pivots times the
    /// pivot-permutation parity; the symmetric fill permutation has even
    /// combined parity and never changes the sign).
    pub fn determinant(&self) -> f64 {
        let mut det: f64 = self.u_diag.iter().product();
        // Parity of the permutation perm.
        let mut seen = vec![false; self.n];
        for start in 0..self.n {
            if seen[start] {
                continue;
            }
            let mut len = 0usize;
            let mut cur = start;
            while !seen[cur] {
                seen[cur] = true;
                cur = self.perm[cur];
                len += 1;
            }
            if len % 2 == 0 {
                det = -det;
            }
        }
        det
    }

    /// The pivot permutation (`perm[k]` = permuted row chosen as the k-th
    /// pivot). Exposed for tests.
    #[cfg(test)]
    pub(crate) fn pivot_perm(&self) -> &[usize] {
        &self.perm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::sparse::TripletMatrix;

    fn solve_via_sparse(entries: &[(usize, usize, f64)], n: usize, b: &[f64]) -> Vec<f64> {
        let a = CsrMatrix::from_triplets(n, n, entries);
        let lu = SparseLu::factor(&a, &mut FlopCounter::new()).unwrap();
        lu.solve(b, &mut FlopCounter::new()).unwrap()
    }

    #[test]
    fn diagonal_system() {
        let x = solve_via_sparse(
            &[(0, 0, 2.0), (1, 1, 4.0), (2, 2, 8.0)],
            3,
            &[2.0, 4.0, 8.0],
        );
        assert_eq!(x, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn dense_agreement_on_fixed_matrix() {
        let entries = [
            (0, 0, 4.0),
            (0, 1, -1.0),
            (0, 2, 0.5),
            (1, 0, -1.0),
            (1, 1, 3.0),
            (1, 2, -1.0),
            (2, 0, 0.5),
            (2, 1, -1.0),
            (2, 2, 5.0),
        ];
        let b = [1.0, -2.0, 3.0];
        let xs = solve_via_sparse(&entries, 3, &b);
        let dense = TripletMatrix::new(3, 3);
        let mut t = dense;
        t.extend(entries.iter().cloned());
        let xd = t.to_dense().solve(&b, &mut FlopCounter::new()).unwrap();
        for (a, b) in xs.iter().zip(xd.iter()) {
            assert!(approx_eq(*a, *b, 1e-12), "{a} vs {b}");
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // a11 = 0 forces off-diagonal pivot.
        let entries = [(0, 1, 1.0), (1, 0, 1.0)];
        let x = solve_via_sparse(&entries, 2, &[5.0, 9.0]);
        assert!(approx_eq(x[0], 9.0, 1e-15));
        assert!(approx_eq(x[1], 5.0, 1e-15));
    }

    #[test]
    fn singular_matrix_detected() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 0, 1.0)]);
        match SparseLu::factor(&a, &mut FlopCounter::new()) {
            Err(NumericError::SingularMatrix { .. }) => {}
            other => panic!("expected singular, got {other:?}"),
        }
    }

    #[test]
    fn structurally_empty_column_is_singular() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 0.0)]);
        assert!(SparseLu::factor(&a, &mut FlopCounter::new()).is_err());
    }

    #[test]
    fn non_square_rejected() {
        let a = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]);
        assert!(SparseLu::factor(&a, &mut FlopCounter::new()).is_err());
    }

    #[test]
    fn rhs_length_checked() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        let lu = SparseLu::factor(&a, &mut FlopCounter::new()).unwrap();
        assert!(lu.solve(&[1.0], &mut FlopCounter::new()).is_err());
    }

    #[test]
    fn determinant_matches_dense() {
        let entries = [(0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)];
        let a = CsrMatrix::from_triplets(2, 2, &entries);
        let lu = SparseLu::factor(&a, &mut FlopCounter::new()).unwrap();
        assert!(approx_eq(lu.determinant(), 5.0, 1e-12));
    }

    #[test]
    fn determinant_sign_with_permutation() {
        let entries = [(0, 1, 1.0), (1, 0, 1.0)];
        let a = CsrMatrix::from_triplets(2, 2, &entries);
        let lu = SparseLu::factor_with(&a, PivotStrategy::PartialPivoting, &mut FlopCounter::new())
            .unwrap();
        assert!(approx_eq(lu.determinant(), -1.0, 1e-12));
    }

    #[test]
    fn partial_pivoting_strategy_picks_max() {
        // Column 0 has entries 1.0 (row 0) and -10.0 (row 1): PP must pick row 1.
        let entries = [(0, 0, 1.0), (1, 0, -10.0), (0, 1, 1.0), (1, 1, 1.0)];
        let a = CsrMatrix::from_triplets(2, 2, &entries);
        let lu = SparseLu::factor_with(&a, PivotStrategy::PartialPivoting, &mut FlopCounter::new())
            .unwrap();
        assert_eq!(lu.pivot_perm()[0], 1);
    }

    #[test]
    fn threshold_diagonal_prefers_diagonal() {
        let entries = [(0, 0, 1.0), (1, 0, -5.0), (0, 1, 1.0), (1, 1, 1.0)];
        let a = CsrMatrix::from_triplets(2, 2, &entries);
        let lu = SparseLu::factor_with(
            &a,
            PivotStrategy::ThresholdDiagonal { threshold: 0.1 },
            &mut FlopCounter::new(),
        )
        .unwrap();
        assert_eq!(lu.pivot_perm()[0], 0);
        // And the solve is still correct.
        let x = lu.solve(&[2.0, -4.0], &mut FlopCounter::new()).unwrap();
        // A = [[1, 1], [-5, 1]]; b = [2, -4] -> x = [1, 1]
        assert!(approx_eq(x[0], 1.0, 1e-12));
        assert!(approx_eq(x[1], 1.0, 1e-12));
    }

    #[test]
    fn tridiagonal_large_system() {
        // -u'' discretization: tridiagonal [-1, 2, -1], solution recoverable.
        let n = 50;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0);
            if i > 0 {
                t.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
            }
        }
        let a = t.to_csr();
        let lu = SparseLu::factor(&a, &mut FlopCounter::new()).unwrap();
        let b = vec![1.0; n];
        let x = lu.solve(&b, &mut FlopCounter::new()).unwrap();
        // Verify A·x = b.
        let ax = a.matvec(&x, &mut FlopCounter::new()).unwrap();
        for (l, r) in ax.iter().zip(b.iter()) {
            assert!(approx_eq(*l, *r, 1e-9), "{l} vs {r}");
        }
        // Fill-in for a tridiagonal matrix with diagonal pivoting is zero.
        assert_eq!(lu.nnz(), a.nnz());
        assert!(approx_eq(lu.fill_ratio(), 1.0, 1e-15));
    }

    #[test]
    fn flops_counted_during_factor_and_solve() {
        let entries = [(0, 0, 4.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 3.0)];
        let a = CsrMatrix::from_triplets(2, 2, &entries);
        let mut f = FlopCounter::new();
        let lu = SparseLu::factor(&a, &mut f).unwrap();
        assert!(f.total() > 0);
        let before = f;
        lu.solve(&[1.0, 1.0], &mut f).unwrap();
        assert!(f.total() > before.total());
    }

    #[test]
    fn refactor_matches_fresh_factor() {
        // Same pattern, different values: refactor must reproduce a fresh
        // factorization's solution exactly (identical pivot order => the
        // same floating-point operations).
        let n = 30;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 3.0 + i as f64 * 0.1);
            if i > 0 {
                t.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                t.push(i, i + 1, -0.5);
            }
            if i + 5 < n {
                t.push(i, i + 5, 0.25);
            }
        }
        let a1 = t.to_csr();
        let mut lu = SparseLu::factor(&a1, &mut FlopCounter::new()).unwrap();

        // Perturb every value, keeping the pattern.
        let mut a2 = a1.clone();
        for (i, v) in a2.values_mut().iter_mut().enumerate() {
            *v += 0.01 * (i as f64 % 7.0 - 3.0);
        }
        lu.refactor(&a2, &mut FlopCounter::new()).unwrap();
        let fresh = SparseLu::factor(&a2, &mut FlopCounter::new()).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let xr = lu.solve(&b, &mut FlopCounter::new()).unwrap();
        let xf = fresh.solve(&b, &mut FlopCounter::new()).unwrap();
        for (r, f) in xr.iter().zip(xf.iter()) {
            assert!(approx_eq(*r, *f, 1e-12), "{r} vs {f}");
        }
    }

    #[test]
    fn refactor_detects_new_nonzero() {
        let a1 = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 4.0)]);
        let mut lu = SparseLu::factor(&a1, &mut FlopCounter::new()).unwrap();
        // A new structural nonzero must be rejected, not silently dropped.
        let a2 = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (0, 1, 1.0), (1, 1, 4.0)]);
        match lu.refactor(&a2, &mut FlopCounter::new()) {
            Err(NumericError::PatternChanged { .. }) => {}
            other => panic!("expected PatternChanged, got {other:?}"),
        }
        // The original factors survive the failed refactor.
        let x = lu.solve(&[2.0, 8.0], &mut FlopCounter::new()).unwrap();
        assert_eq!(x, vec![1.0, 2.0]);
        // The fallback wrapper recovers by re-factoring.
        let reused = lu.refactor_or_factor(&a2, &mut FlopCounter::new()).unwrap();
        assert!(!reused);
        let x = lu.solve(&[2.0, 4.0], &mut FlopCounter::new()).unwrap();
        assert!(approx_eq(x[0], 0.5, 1e-15), "{}", x[0]);
        assert!(approx_eq(x[1], 1.0, 1e-15), "{}", x[1]);
    }

    #[test]
    fn refactor_detects_degraded_pivot() {
        // Factor with a healthy diagonal, then refactor with the diagonal
        // collapsed so the cached pivot is 1e-9 of the column max: the
        // refactor must refuse rather than amplify rounding error.
        let entries = [(0, 0, 5.0), (1, 0, 1.0), (0, 1, 1.0), (1, 1, 5.0)];
        let a1 = CsrMatrix::from_triplets(2, 2, &entries);
        let mut lu = SparseLu::factor(&a1, &mut FlopCounter::new()).unwrap();
        let degraded = [(0, 0, 1e-9), (1, 0, 1.0), (0, 1, 1.0), (1, 1, 5.0)];
        let a2 = CsrMatrix::from_triplets(2, 2, &degraded);
        match lu.refactor(&a2, &mut FlopCounter::new()) {
            Err(NumericError::PatternChanged { .. }) => {}
            other => panic!("expected degraded-pivot rejection, got {other:?}"),
        }
        // The fallback re-pivots and solves correctly.
        let reused = lu.refactor_or_factor(&a2, &mut FlopCounter::new()).unwrap();
        assert!(!reused);
        let x = lu.solve(&[1.0, 6.0], &mut FlopCounter::new()).unwrap();
        let ax0 = 1e-9 * x[0] + 1.0 * x[1];
        let ax1 = 1.0 * x[0] + 5.0 * x[1];
        assert!(approx_eq(ax0, 1.0, 1e-9), "{ax0}");
        assert!(approx_eq(ax1, 6.0, 1e-9), "{ax1}");
    }

    #[test]
    fn refactor_or_factor_reuses_on_same_pattern() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 4.0)]);
        let mut lu = SparseLu::factor(&a, &mut FlopCounter::new()).unwrap();
        let mut a2 = a.clone();
        a2.values_mut()[0] = 3.0;
        let reused = lu.refactor_or_factor(&a2, &mut FlopCounter::new()).unwrap();
        assert!(reused);
        let x = lu.solve(&[3.0, 8.0], &mut FlopCounter::new()).unwrap();
        assert_eq!(x, vec![1.0, 2.0]);
    }

    #[test]
    fn refactor_handles_permuted_factors() {
        // Force an off-diagonal pivot, then refactor with new values: the
        // permuted structure must still round-trip.
        let entries = [(0, 1, 2.0), (1, 0, 3.0), (1, 1, 0.5)];
        let a1 = CsrMatrix::from_triplets(2, 2, &entries);
        let mut lu =
            SparseLu::factor_with(&a1, PivotStrategy::PartialPivoting, &mut FlopCounter::new())
                .unwrap();
        let entries2 = [(0, 1, 4.0), (1, 0, 5.0), (1, 1, 1.0)];
        let a2 = CsrMatrix::from_triplets(2, 2, &entries2);
        lu.refactor(&a2, &mut FlopCounter::new()).unwrap();
        let x = lu.solve(&[4.0, 6.0], &mut FlopCounter::new()).unwrap();
        // [[0, 4], [5, 1]] x = [4, 6] -> x = [1, 1]
        assert!(approx_eq(x[0], 1.0, 1e-12), "{}", x[0]);
        assert!(approx_eq(x[1], 1.0, 1e-12), "{}", x[1]);
    }

    #[test]
    fn refactor_with_fill_in_columns() {
        // A matrix whose factorization has fill-in: refactor must scatter
        // zeros into fill positions that A does not touch.
        let entries = [
            (0, 0, 4.0),
            (0, 2, 1.0),
            (1, 0, 1.0),
            (1, 1, 4.0),
            (2, 1, 1.0),
            (2, 2, 4.0),
        ];
        let a1 = CsrMatrix::from_triplets(3, 3, &entries);
        let mut lu = SparseLu::factor(&a1, &mut FlopCounter::new()).unwrap();
        let entries2 = [
            (0, 0, 5.0),
            (0, 2, 2.0),
            (1, 0, 2.0),
            (1, 1, 5.0),
            (2, 1, 2.0),
            (2, 2, 5.0),
        ];
        let a2 = CsrMatrix::from_triplets(3, 3, &entries2);
        lu.refactor(&a2, &mut FlopCounter::new()).unwrap();
        let b = [1.0, 2.0, 3.0];
        let x = lu.solve(&b, &mut FlopCounter::new()).unwrap();
        let ax = a2.matvec(&x, &mut FlopCounter::new()).unwrap();
        for (l, r) in ax.iter().zip(b.iter()) {
            assert!(approx_eq(*l, *r, 1e-12), "{l} vs {r}");
        }
    }

    #[test]
    fn solve_into_reuses_buffers() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 4.0)]);
        let lu = SparseLu::factor(&a, &mut FlopCounter::new()).unwrap();
        let mut x = Vec::new();
        let mut work = Vec::new();
        lu.solve_into(&[2.0, 8.0], &mut x, &mut work, &mut FlopCounter::new())
            .unwrap();
        assert_eq!(x, vec![1.0, 2.0]);
        let cap_x = x.capacity();
        lu.solve_into(&[4.0, 4.0], &mut x, &mut work, &mut FlopCounter::new())
            .unwrap();
        assert_eq!(x, vec![2.0, 1.0]);
        assert_eq!(x.capacity(), cap_x, "no reallocation on reuse");
    }

    /// Arrow matrix: dense first row/column + diagonal. Natural order
    /// fills completely; minimum degree keeps L+U as sparse as A.
    fn arrow(n: usize) -> CsrMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 4.0 + i as f64 * 0.01);
            if i > 0 {
                t.push(0, i, 1.0);
                t.push(i, 0, 1.0);
            }
        }
        t.to_csr()
    }

    #[test]
    fn amd_ordering_eliminates_arrow_fill() {
        let a = arrow(40);
        let mut f = FlopCounter::new();
        let nat = SparseLu::factor_ordered(
            &a,
            OrderingChoice::Natural,
            PivotStrategy::default(),
            &mut f,
        )
        .unwrap();
        let amd =
            SparseLu::factor_ordered(&a, OrderingChoice::Amd, PivotStrategy::default(), &mut f)
                .unwrap();
        assert!(
            amd.nnz() < nat.nnz(),
            "amd nnz {} !< natural nnz {}",
            amd.nnz(),
            nat.nnz()
        );
        // AMD eliminates the hub last: zero fill on an arrow matrix.
        assert_eq!(amd.nnz(), a.nnz());
        assert_eq!(amd.ordering_name(), "amd");
        assert_eq!(nat.ordering_name(), "natural");
    }

    #[test]
    fn ordered_solutions_match_natural() {
        let a = arrow(25);
        let b: Vec<f64> = (0..25).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut f = FlopCounter::new();
        let x_nat = SparseLu::factor(&a, &mut f)
            .unwrap()
            .solve(&b, &mut f)
            .unwrap();
        for choice in [OrderingChoice::Rcm, OrderingChoice::Amd] {
            let x = SparseLu::factor_ordered(&a, choice, PivotStrategy::default(), &mut f)
                .unwrap()
                .solve(&b, &mut f)
                .unwrap();
            for (o, n) in x.iter().zip(x_nat.iter()) {
                assert!(approx_eq(*o, *n, 1e-10), "{choice:?}: {o} vs {n}");
            }
        }
    }

    #[test]
    fn ordered_refactor_round_trips() {
        // Refactor under a fill-reducing ordering must solve as exactly as
        // a fresh ordered factor.
        let a1 = arrow(20);
        let mut lu = SparseLu::factor_ordered(
            &a1,
            OrderingChoice::Amd,
            PivotStrategy::default(),
            &mut FlopCounter::new(),
        )
        .unwrap();
        let mut a2 = a1.clone();
        for (i, v) in a2.values_mut().iter_mut().enumerate() {
            *v += 0.02 * ((i % 5) as f64 - 2.0);
        }
        lu.refactor(&a2, &mut FlopCounter::new()).unwrap();
        let b: Vec<f64> = (0..20).map(|i| (i as f64).sin()).collect();
        let x = lu.solve(&b, &mut FlopCounter::new()).unwrap();
        let ax = a2.matvec(&x, &mut FlopCounter::new()).unwrap();
        for (l, r) in ax.iter().zip(b.iter()) {
            assert!(approx_eq(*l, *r, 1e-10), "{l} vs {r}");
        }
    }

    #[test]
    fn ordered_fallback_keeps_ordering_choice() {
        let a1 = arrow(15);
        let mut lu = SparseLu::factor_ordered(
            &a1,
            OrderingChoice::Amd,
            PivotStrategy::default(),
            &mut FlopCounter::new(),
        )
        .unwrap();
        // Different pattern forces the full-factor fallback, which must
        // re-analyze under the same ordering choice.
        let a2 = arrow(16);
        let reused = lu.refactor_or_factor(&a2, &mut FlopCounter::new()).unwrap();
        assert!(!reused);
        assert_eq!(lu.ordering_name(), "amd");
        assert_eq!(lu.dim(), 16);
    }

    #[test]
    fn factor_symbolic_shares_analysis() {
        let a = arrow(12);
        let sym = SymbolicAnalysis::analyze(&a, OrderingChoice::Amd).unwrap();
        let lu1 = SparseLu::factor_symbolic(
            sym.clone(),
            &a,
            PivotStrategy::default(),
            &mut FlopCounter::new(),
        )
        .unwrap();
        let mut a2 = a.clone();
        for v in a2.values_mut() {
            *v *= 1.5;
        }
        let lu2 = SparseLu::factor_symbolic(
            sym.clone(),
            &a2,
            PivotStrategy::default(),
            &mut FlopCounter::new(),
        )
        .unwrap();
        assert_eq!(lu1.nnz(), lu2.nnz());
        // A mismatched matrix is rejected up front.
        let b = arrow(13);
        assert!(matches!(
            SparseLu::factor_symbolic(sym, &b, PivotStrategy::default(), &mut FlopCounter::new()),
            Err(NumericError::PatternChanged { .. })
        ));
    }

    fn mesh(m: usize) -> CsrMatrix {
        // 2-D grid conductance pattern (the structure supernodes grow on).
        let n = m * m;
        let mut t = TripletMatrix::new(n, n);
        for r in 0..m {
            for c in 0..m {
                let v = r * m + c;
                t.push(v, v, 4.0 + (v as f64) * 0.01);
                if c + 1 < m {
                    t.push(v, v + 1, -1.0);
                    t.push(v + 1, v, -1.0);
                }
                if r + 1 < m {
                    t.push(v, v + m, -1.0);
                    t.push(v + m, v, -1.0);
                }
            }
        }
        t.to_csr()
    }

    #[test]
    fn blocked_solve_bit_identical_to_scalar() {
        for choice in [
            OrderingChoice::Natural,
            OrderingChoice::Rcm,
            OrderingChoice::Amd,
        ] {
            let a = mesh(9);
            let mut lu = SparseLu::factor_ordered(
                &a,
                choice,
                PivotStrategy::default(),
                &mut FlopCounter::new(),
            )
            .unwrap();
            // Below the size gate: force the panel kernels on so the
            // comparison exercises them.
            assert!(!lu.blocked_kernels());
            lu.set_blocked_kernels(true);
            let b: Vec<f64> = (0..a.rows()).map(|i| (i as f64 * 0.31).sin()).collect();
            let (mut x1, mut w1) = (Vec::new(), Vec::new());
            let (mut x2, mut w2) = (Vec::new(), Vec::new());
            let mut f1 = FlopCounter::new();
            let mut f2 = FlopCounter::new();
            lu.solve_into(&b, &mut x1, &mut w1, &mut f1).unwrap();
            lu.solve_into_scalar(&b, &mut x2, &mut w2, &mut f2).unwrap();
            assert_eq!(x1, x2, "{choice:?}: blocked vs scalar bits");
            assert_eq!(f1, f2, "{choice:?}: flop accounting");
        }
    }

    #[test]
    fn blocked_refactor_bit_identical_to_scalar() {
        let a1 = mesh(8);
        let mut a2 = a1.clone();
        for (i, v) in a2.values_mut().iter_mut().enumerate() {
            *v += 0.01 * ((i % 5) as f64 - 2.0);
        }
        for choice in [OrderingChoice::Natural, OrderingChoice::Amd] {
            let mut blocked = SparseLu::factor_ordered(
                &a1,
                choice,
                PivotStrategy::default(),
                &mut FlopCounter::new(),
            )
            .unwrap();
            blocked.set_blocked_kernels(true);
            let mut scalar = blocked.clone();
            let mut fb = FlopCounter::new();
            let mut fs = FlopCounter::new();
            blocked.refactor(&a2, &mut fb).unwrap();
            scalar.refactor_scalar(&a2, &mut fs).unwrap();
            assert_eq!(blocked.l_vals, scalar.l_vals, "{choice:?}: L values");
            assert_eq!(blocked.u_vals, scalar.u_vals, "{choice:?}: U values");
            assert_eq!(blocked.u_diag, scalar.u_diag, "{choice:?}: pivots");
            assert_eq!(fb, fs, "{choice:?}: refactor flops");
            let b: Vec<f64> = (0..a1.rows()).map(|i| (i as f64).cos()).collect();
            let xb = blocked.solve(&b, &mut FlopCounter::new()).unwrap();
            let xs = scalar.solve(&b, &mut FlopCounter::new()).unwrap();
            assert_eq!(xb, xs);
        }
    }

    #[test]
    fn mesh_factor_detects_supernodes() {
        let a = mesh(10);
        let lu = SparseLu::factor_ordered(
            &a,
            OrderingChoice::Amd,
            PivotStrategy::default(),
            &mut FlopCounter::new(),
        )
        .unwrap();
        assert!(lu.supernode_count() > 0, "AMD mesh factor grows supernodes");
        assert!(lu.supernode_cols() >= 2 * lu.supernode_count());
        assert!(lu.supernode_cols() <= lu.dim());
    }

    #[test]
    fn solve_many_matches_independent_solves() {
        let a = mesh(7);
        let n = a.rows();
        let mut lu = SparseLu::factor_ordered(
            &a,
            OrderingChoice::Amd,
            PivotStrategy::default(),
            &mut FlopCounter::new(),
        )
        .unwrap();
        lu.set_blocked_kernels(true);
        let k = 5;
        let b: Vec<f64> = (0..n * k).map(|i| ((i as f64) * 0.17).sin()).collect();
        let mut fm = FlopCounter::new();
        let xm = lu.solve_many(&b, k, &mut fm).unwrap();
        let mut fs = FlopCounter::new();
        for j in 0..k {
            let xj = lu.solve(&b[j * n..(j + 1) * n], &mut fs).unwrap();
            assert_eq!(&xm[j * n..(j + 1) * n], &xj[..], "column {j} bits");
        }
        assert_eq!(fm, fs, "multi-RHS flops match k independent solves");
    }

    #[test]
    fn solve_many_validates_shapes() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]);
        let lu = SparseLu::factor(&a, &mut FlopCounter::new()).unwrap();
        assert!(lu
            .solve_many(&[1.0, 2.0], 0, &mut FlopCounter::new())
            .is_err());
        assert!(lu
            .solve_many(&[1.0, 2.0, 3.0], 2, &mut FlopCounter::new())
            .is_err());
        let x = lu
            .solve_many(&[1.0, 2.0, 3.0, 4.0], 2, &mut FlopCounter::new())
            .unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn tolerant_refactor_reports_degraded_ratio() {
        let entries = [(0, 0, 5.0), (1, 0, 1.0), (0, 1, 1.0), (1, 1, 5.0)];
        let a1 = CsrMatrix::from_triplets(2, 2, &entries);
        let mut lu = SparseLu::factor(&a1, &mut FlopCounter::new()).unwrap();
        // Healthy values: ratio close to 1.
        let ratio = lu.refactor_tolerant(&a1, &mut FlopCounter::new()).unwrap();
        assert!(ratio > REFACTOR_PIVOT_RATIO, "healthy ratio {ratio}");
        // Collapsed diagonal: strict refuses, tolerant completes and
        // reports how weak the pivot is.
        let degraded = [(0, 0, 1e-9), (1, 0, 1.0), (0, 1, 1.0), (1, 1, 5.0)];
        let a2 = CsrMatrix::from_triplets(2, 2, &degraded);
        assert!(lu.refactor(&a2, &mut FlopCounter::new()).is_err());
        let ratio = lu.refactor_tolerant(&a2, &mut FlopCounter::new()).unwrap();
        assert!(ratio < REFACTOR_PIVOT_RATIO, "degraded ratio {ratio}");
        // The weak factors still solve approximately; one refinement step
        // recovers full accuracy (the SparseLuSolver policy).
        let b = [1.0, 6.0];
        let mut x = lu.solve(&b, &mut FlopCounter::new()).unwrap();
        let r: Vec<f64> = {
            let ax = a2.matvec(&x, &mut FlopCounter::new()).unwrap();
            b.iter().zip(ax.iter()).map(|(bi, ai)| bi - ai).collect()
        };
        let dx = lu.solve(&r, &mut FlopCounter::new()).unwrap();
        for (xi, di) in x.iter_mut().zip(dx.iter()) {
            *xi += di;
        }
        let ax = a2.matvec(&x, &mut FlopCounter::new()).unwrap();
        assert!((ax[0] - 1.0).abs() < 1e-9 && (ax[1] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn determinant_invariant_under_ordering() {
        let a = arrow(9);
        let mut f = FlopCounter::new();
        let d_nat = SparseLu::factor(&a, &mut f).unwrap().determinant();
        for choice in [OrderingChoice::Rcm, OrderingChoice::Amd] {
            let d = SparseLu::factor_ordered(&a, choice, PivotStrategy::default(), &mut f)
                .unwrap()
                .determinant();
            let rel = (d - d_nat).abs() / d_nat.abs().max(1e-300);
            assert!(rel < 1e-9, "{choice:?}: {d} vs {d_nat}");
        }
    }
}
