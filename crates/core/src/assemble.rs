//! Shared matrix-assembly state used by every engine.
//!
//! [`CircuitMatrices`] holds the per-circuit constants; [`AssemblyWorkspace`]
//! holds the per-run mutable state that makes the hot loops allocation-free:
//! a CSR matrix whose sparsity pattern (linear G + every possible device
//! stamp + optionally C) is computed **once per circuit**, value-scatter maps
//! from each device to its slots in that pattern, a cached LU factorization
//! that is *refactored* (values-only) instead of re-analyzed every solve,
//! and reusable right-hand-side/solution buffers.

use crate::Result;
use nanosim_circuit::{Circuit, MnaSystem};
use nanosim_numeric::solve::{LinearSolver, LuStats, SparseLuSolver};
use nanosim_numeric::sparse::{CsrMatrix, OrderingChoice, TripletMatrix};
use nanosim_numeric::{BudgetMeter, FaultPlan, FlopCounter};

/// Pre-stamped circuit matrices: the linear part of `G`, the full `C`, and
/// the MNA structure. Engines build an [`AssemblyWorkspace`] from these and
/// re-stamp only the device values each step/iteration.
#[derive(Debug, Clone)]
pub(crate) struct CircuitMatrices {
    pub mna: MnaSystem,
    /// Linear (time-invariant) part of `G` as triplets.
    pub g_lin: TripletMatrix,
    /// Capacitance/inductance matrix `C` as triplets (for re-stamping).
    pub c_triplets: TripletMatrix,
    /// `C` in CSR form (for `C·x` products).
    pub c_csr: CsrMatrix,
}

impl CircuitMatrices {
    pub fn new(circuit: &Circuit) -> Result<Self> {
        let mna = MnaSystem::new(circuit)?;
        let dim = mna.dim();
        let mut g_lin = TripletMatrix::new(dim, dim);
        mna.stamp_linear_g(&mut g_lin);
        let mut c_triplets = TripletMatrix::new(dim, dim);
        mna.stamp_c(&mut c_triplets);
        let c_csr = c_triplets.to_csr();
        Ok(CircuitMatrices {
            mna,
            g_lin,
            c_triplets,
            c_csr,
        })
    }
}

/// Value-slot indices of one two-terminal conductance stamp
/// (`+g` at `(p,p)`/`(m,m)`, `-g` at `(p,m)`/`(m,p)`); `None` = grounded
/// terminal, no slot.
#[derive(Debug, Clone, Copy, Default)]
struct CondSites {
    pp: Option<usize>,
    pm: Option<usize>,
    mp: Option<usize>,
    mm: Option<usize>,
}

impl CondSites {
    fn lookup(a: &CsrMatrix, p: Option<usize>, m: Option<usize>) -> CondSites {
        let (pm, mp) = match (p, m) {
            (Some(i), Some(j)) => (Some(slot(a, i, j)), Some(slot(a, j, i))),
            _ => (None, None),
        };
        CondSites {
            pp: p.map(|i| slot(a, i, i)),
            pm,
            mp,
            mm: m.map(|i| slot(a, i, i)),
        }
    }
}

/// Value-slot indices of one MOSFET's stamps: the drain–source conductance
/// plus (when Newton transconductance stamps are enabled) the `gm` entries
/// at `(d,g)`, `(d,s)`, `(s,g)`, `(s,s)`.
#[derive(Debug, Clone, Copy, Default)]
struct MosSites {
    cond: CondSites,
    dg: Option<usize>,
    ds: Option<usize>,
    sg: Option<usize>,
    ss: Option<usize>,
}

fn slot(a: &CsrMatrix, r: usize, c: usize) -> usize {
    a.position(r, c)
        .expect("stamp site present in prebuilt pattern")
}

/// Per-run assembly + solve state: a prebuilt sparsity pattern re-stamped in
/// place, a pattern-reusing cached LU, and reusable vectors. After the first
/// solve, one `begin → stamp → solve` cycle performs zero heap allocations.
#[derive(Debug, Clone)]
pub(crate) struct AssemblyWorkspace {
    /// The system matrix; pattern fixed, values rewritten per assembly.
    a: CsrMatrix,
    /// Linear-G values aligned with `a`'s value slots (structural zeros at
    /// device/C sites).
    base_vals: Vec<f64>,
    /// `(slot, c)` pairs; `add_c_over_h` adds `c/h` at each slot.
    c_sites: Vec<(usize, f64)>,
    /// Stamp sites per nonlinear two-terminal binding.
    nl_sites: Vec<CondSites>,
    /// Stamp sites per MOSFET binding.
    mos_sites: Vec<MosSites>,
    /// Caching sparse solver (factor once, refactor on same pattern).
    solver: SparseLuSolver,
    /// Armed fault-injection plan: advanced once per factor-solve, right
    /// after assembly and before factorization (so injected faults hit the
    /// exact matrix the solver sees). `None` — the production default —
    /// costs one branch per solve.
    fault: Option<FaultPlan>,
}

/// The value-and-scatter half of a workspace: everything derived from the
/// circuit's matrices except the caching solver. Split out so
/// [`AssemblyWorkspace::rebind`] can rebuild it for a same-pattern circuit
/// while the solver (and its symbolic analysis) survives.
#[derive(Debug)]
struct PatternParts {
    a: CsrMatrix,
    base_vals: Vec<f64>,
    c_sites: Vec<(usize, f64)>,
    nl_sites: Vec<CondSites>,
    mos_sites: Vec<MosSites>,
}

impl PatternParts {
    fn build(mats: &CircuitMatrices, with_mos_gm: bool, with_c: bool) -> Self {
        let mna = &mats.mna;
        let dim = mna.dim();
        let mut trip: Vec<(usize, usize, f64)> = mats.g_lin.iter().cloned().collect();
        let push_pair = |t: &mut Vec<(usize, usize, f64)>, p: Option<usize>, m: Option<usize>| {
            if let Some(i) = p {
                t.push((i, i, 0.0));
            }
            if let Some(i) = m {
                t.push((i, i, 0.0));
            }
            if let (Some(i), Some(j)) = (p, m) {
                t.push((i, j, 0.0));
                t.push((j, i, 0.0));
            }
        };
        for b in mna.nonlinear_bindings() {
            push_pair(&mut trip, b.var_plus, b.var_minus);
        }
        for m in mna.mosfet_bindings() {
            push_pair(&mut trip, m.var_drain, m.var_source);
            if with_mos_gm {
                if let Some(d) = m.var_drain {
                    if let Some(g) = m.var_gate {
                        trip.push((d, g, 0.0));
                    }
                    if let Some(s) = m.var_source {
                        trip.push((d, s, 0.0));
                    }
                }
                if let Some(s) = m.var_source {
                    if let Some(g) = m.var_gate {
                        trip.push((s, g, 0.0));
                    }
                    trip.push((s, s, 0.0));
                }
            }
        }
        if with_c {
            for &(r, c, _) in mats.c_triplets.iter() {
                trip.push((r, c, 0.0));
            }
        }
        let a = CsrMatrix::from_triplets(dim, dim, &trip);
        let base_vals = a.values().to_vec();

        let c_sites = if with_c {
            // Duplicate C triplets at one position are pre-summed so the
            // per-step loop touches each slot once.
            let mut summed: Vec<(usize, f64)> = Vec::new();
            for &(r, c, v) in mats.c_triplets.iter() {
                let s = slot(&a, r, c);
                match summed.iter_mut().find(|(slot, _)| *slot == s) {
                    Some((_, acc)) => *acc += v,
                    None => summed.push((s, v)),
                }
            }
            summed
        } else {
            Vec::new()
        };
        let nl_sites = mna
            .nonlinear_bindings()
            .iter()
            .map(|b| CondSites::lookup(&a, b.var_plus, b.var_minus))
            .collect();
        let mos_sites = mna
            .mosfet_bindings()
            .iter()
            .map(|m| {
                let cond = CondSites::lookup(&a, m.var_drain, m.var_source);
                let mut sites = MosSites {
                    cond,
                    ..MosSites::default()
                };
                if with_mos_gm {
                    if let Some(d) = m.var_drain {
                        sites.dg = m.var_gate.map(|g| slot(&a, d, g));
                        sites.ds = m.var_source.map(|s| slot(&a, d, s));
                    }
                    if let Some(s) = m.var_source {
                        sites.sg = m.var_gate.map(|g| slot(&a, s, g));
                        sites.ss = Some(slot(&a, s, s));
                    }
                }
                sites
            })
            .collect();

        PatternParts {
            a,
            base_vals,
            c_sites,
            nl_sites,
            mos_sites,
        }
    }
}

impl AssemblyWorkspace {
    /// Builds the workspace for a circuit. `with_mos_gm` reserves slots for
    /// the Newton transconductance stamps (NR/MLA engines); `with_c` merges
    /// the C pattern into the matrix so `G + C/h` systems assemble in place
    /// (transient engines); `ordering` selects the fill-reducing ordering
    /// the embedded sparse solver applies inside its cached symbolic
    /// analysis (the scatter maps are in original numbering either
    /// way — the solver permutes on scatter-in/solve-out, so per-step
    /// assembly stays zero-alloc and ordering-agnostic).
    pub fn new(
        mats: &CircuitMatrices,
        with_mos_gm: bool,
        with_c: bool,
        ordering: OrderingChoice,
    ) -> Self {
        let parts = PatternParts::build(mats, with_mos_gm, with_c);
        AssemblyWorkspace {
            a: parts.a,
            base_vals: parts.base_vals,
            c_sites: parts.c_sites,
            nl_sites: parts.nl_sites,
            mos_sites: parts.mos_sites,
            solver: SparseLuSolver::with_ordering(ordering),
            fault: None,
        }
    }

    /// Rebinds the workspace to a *different circuit with the same sparsity
    /// pattern*: rebuilds the base values and scatter maps from `mats`
    /// (built with the same `with_mos_gm`/`with_c` flags as this workspace)
    /// while keeping the cached solver — and with it the symbolic analysis
    /// and supernode plan — alive, so the next solve refactors instead of
    /// re-analyzing. Returns `false` (workspace untouched) when the new
    /// pattern differs; the caller must then build a fresh workspace.
    pub fn rebind(&mut self, mats: &CircuitMatrices, with_mos_gm: bool, with_c: bool) -> bool {
        let parts = PatternParts::build(mats, with_mos_gm, with_c);
        if parts.a.structure() != self.a.structure() {
            return false;
        }
        self.a = parts.a;
        self.base_vals = parts.base_vals;
        self.c_sites = parts.c_sites;
        self.nl_sites = parts.nl_sites;
        self.mos_sites = parts.mos_sites;
        true
    }

    /// Arms a deterministic fault-injection plan: each subsequent
    /// factor-solve advances the plan by one call, applying whatever
    /// faults are scheduled at that call number. Cloning the workspace
    /// clones the plan's position, so sharded sweeps replay the same fault
    /// schedule per chunk at every worker count.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// The armed fault plan, if any (for inspecting injected/missed
    /// counters after a run).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Advances the armed fault plan (if any) against the assembled
    /// matrix, returning an error for a scheduled singular pivot.
    fn apply_faults(&mut self) -> nanosim_numeric::Result<()> {
        if let Some(plan) = &mut self.fault {
            let action = plan.advance(&mut self.a);
            if let Some(pivot) = action.singular_pivot {
                return Err(nanosim_numeric::NumericError::SingularMatrix { pivot });
            }
            if action.degrade {
                self.solver.force_degraded();
            }
        }
        Ok(())
    }

    /// Starts a fresh assembly: resets the matrix values to the linear part
    /// of `G` (device and C slots back to zero).
    pub fn begin(&mut self) {
        self.a.values_mut().copy_from_slice(&self.base_vals);
    }

    /// Adds conductance `g` across nonlinear binding `i`'s terminals.
    pub fn stamp_nonlinear(&mut self, i: usize, g: f64) {
        Self::stamp_cond(self.a.values_mut(), &self.nl_sites[i], g);
    }

    /// Adds conductance `g` across MOSFET `k`'s drain–source terminals.
    pub fn stamp_mosfet_cond(&mut self, k: usize, g: f64) {
        let sites = self.mos_sites[k].cond;
        Self::stamp_cond(self.a.values_mut(), &sites, g);
    }

    /// Adds the Newton transconductance stamps of MOSFET `k` (requires the
    /// workspace to have been built `with_mos_gm`).
    pub fn stamp_mosfet_gm(&mut self, k: usize, gm: f64) {
        let sites = self.mos_sites[k];
        let vals = self.a.values_mut();
        if let Some(p) = sites.dg {
            vals[p] += gm;
        }
        if let Some(p) = sites.ds {
            vals[p] -= gm;
        }
        if let Some(p) = sites.sg {
            vals[p] -= gm;
        }
        if let Some(p) = sites.ss {
            vals[p] += gm;
        }
    }

    fn stamp_cond(vals: &mut [f64], sites: &CondSites, g: f64) {
        if let Some(p) = sites.pp {
            vals[p] += g;
        }
        if let Some(p) = sites.mm {
            vals[p] += g;
        }
        if let Some(p) = sites.pm {
            vals[p] -= g;
        }
        if let Some(p) = sites.mp {
            vals[p] -= g;
        }
    }

    /// Adds conductance `g` on the diagonal of the first `rows` rows (the
    /// node rows) wherever the pattern has a diagonal slot — the shunt
    /// behind the rescue ladder's gmin-stepping and pseudo-transient
    /// rungs. Rows without a diagonal slot (possible for a node touched
    /// only by branch-current constraints) are skipped, which is safe: the
    /// shunt is a regularization aid, not a correctness requirement.
    pub fn stamp_diag_shunt(&mut self, rows: usize, g: f64) {
        for r in 0..rows.min(self.a.rows()) {
            if let Some(p) = self.a.position(r, r) {
                self.a.values_mut()[p] += g;
            }
        }
    }

    /// Adds `C/h` over the merged C pattern (requires `with_c`).
    pub fn add_c_over_h(&mut self, h: f64, flops: &mut FlopCounter) {
        let vals = self.a.values_mut();
        for &(s, c) in &self.c_sites {
            vals[s] += c / h;
        }
        flops.div(self.c_sites.len() as u64);
    }

    /// Scales every assembled value by `alpha` (trapezoidal's `G/2`).
    pub fn scale_values(&mut self, alpha: f64, flops: &mut FlopCounter) {
        for v in self.a.values_mut() {
            *v *= alpha;
        }
        flops.mul(self.a.nnz() as u64);
    }

    /// The assembled matrix (for matvec products against the current state).
    pub fn matrix(&self) -> &CsrMatrix {
        &self.a
    }

    /// Snapshots the assembled values into `out` (e.g. the G-only values
    /// before `C/h` is added).
    pub fn snapshot_values(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(self.a.values());
    }

    /// Accumulates `y += alpha · A(vals)·x` where `vals` is a value snapshot
    /// over this workspace's pattern.
    pub fn matvec_acc_with(
        &self,
        vals: &[f64],
        alpha: f64,
        x: &[f64],
        y: &mut [f64],
        flops: &mut FlopCounter,
    ) {
        let (row_ptr, col_idx) = self.a.structure();
        debug_assert_eq!(vals.len(), col_idx.len());
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for p in row_ptr[r]..row_ptr[r + 1] {
                acc += vals[p] * x[col_idx[p]];
            }
            *yr += alpha * acc;
        }
        flops.fma(vals.len() as u64 + y.len() as u64);
    }

    /// Per-row sums of `|A(vals)|` over the first `out.len()` rows (the RC
    /// time-step constraint of the SWEC controller).
    pub fn row_abs_sums(&self, vals: &[f64], out: &mut [f64]) {
        let (row_ptr, _) = self.a.structure();
        for (r, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for p in row_ptr[r]..row_ptr[r + 1] {
                acc += vals[p].abs();
            }
            *o = acc;
        }
    }

    /// Factors (or refactors, when the cached symbolic analysis applies) the
    /// assembled matrix and solves into `x`.
    ///
    /// # Errors
    /// Propagates singular-matrix errors from the factorization.
    pub fn factor_solve(
        &mut self,
        rhs: &[f64],
        x: &mut Vec<f64>,
        flops: &mut FlopCounter,
    ) -> nanosim_numeric::Result<()> {
        self.apply_faults()?;
        self.solver.solve_into(&self.a, rhs, x, flops)
    }

    /// Batched variant of [`AssemblyWorkspace::factor_solve`]: one factor
    /// (or refactor) of the assembled matrix serves `nrhs` right-hand
    /// sides given column-major in `rhs` (`rhs[j*n..][..n]` is column
    /// `j`), solutions written column-major into `x`. The solver walks the
    /// factor structure once for the whole block; results are
    /// bit-identical to `nrhs` separate [`AssemblyWorkspace::factor_solve`]
    /// calls on the same assembled values.
    ///
    /// # Errors
    /// Propagates singular-matrix errors and shape mismatches.
    pub fn factor_solve_many(
        &mut self,
        rhs: &[f64],
        nrhs: usize,
        x: &mut Vec<f64>,
        flops: &mut FlopCounter,
    ) -> nanosim_numeric::Result<()> {
        self.apply_faults()?;
        self.solver.solve_many_into(&self.a, rhs, nrhs, x, flops)
    }

    /// Cumulative sparse-LU telemetry of the embedded solver: factor /
    /// refactor counts, the flop split between them, and the fill of the
    /// cached analysis. Engines delta-account this into
    /// [`crate::report::EngineStats`] via
    /// [`crate::report::EngineStats::absorb_lu`].
    pub fn lu_stats(&self) -> LuStats {
        self.solver.lu_stats()
    }

    /// Name of the fill ordering the solver applies ("natural", "rcm",
    /// "amd"; the configured tag while cold).
    pub fn ordering_name(&self) -> &'static str {
        self.solver.ordering_name()
    }
}

/// Names of all MNA variables in column order: non-ground node names first,
/// then `I(<element>)` for every branch-current variable.
pub(crate) fn mna_var_names(mna: &MnaSystem) -> Vec<String> {
    let circuit = mna.circuit();
    let mut names: Vec<String> = Vec::with_capacity(mna.dim());
    for (id, name) in circuit.nodes().iter() {
        if !id.is_ground() {
            names.push(name.to_string());
        }
    }
    for (i, e) in circuit.elements().iter().enumerate() {
        if mna.branch_var(i).is_some() {
            names.push(format!("I({})", e.name()));
        }
    }
    names
}

/// Branch voltage `v(+) - v(-)` of a two-terminal binding given the MNA
/// solution vector.
#[inline]
pub(crate) fn branch_voltage(x: &[f64], var_plus: Option<usize>, var_minus: Option<usize>) -> f64 {
    let vp = var_plus.map_or(0.0, |i| x[i]);
    let vm = var_minus.map_or(0.0, |i| x[i]);
    vp - vm
}

/// Number of points of a DC sweep from `start` to `stop` (inclusive) in
/// increments of `step` — the one point formula every sweep engine uses.
///
/// # Errors
/// [`crate::SimError::InvalidConfig`] for a zero, non-finite or
/// wrong-signed step, and for a point count so large that one `f64`
/// column of it could not be allocated.
pub(crate) fn sweep_point_count(start: f64, stop: f64, step: f64) -> crate::Result<usize> {
    let invalid = |why: &str| crate::SimError::InvalidConfig {
        context: format!("dc sweep {start}..{stop} with step {step}{why}"),
    };
    if step == 0.0 || !step.is_finite() || !((stop - start) * step >= 0.0) {
        return Err(invalid(""));
    }
    // The longest `Vec<f64>` an allocation can describe.
    let max_points = (isize::MAX as usize / std::mem::size_of::<f64>()) as f64;
    let intervals = ((stop - start) / step).round();
    if !(intervals < max_points) {
        return Err(invalid(": too many points"));
    }
    Ok(intervals as usize + 1)
}

/// Charges a DC sweep's whole result — `n_points` rows of `n_cols` `f64`
/// columns — to `meter`. Sweeps call this before any solve or allocation
/// that grows with the point count, so a byte budget too small for the
/// sweep fails first, and identically at every worker count.
///
/// # Errors
/// [`crate::SimError::BudgetExceeded`] when the result passes the byte cap.
pub(crate) fn charge_sweep_result(
    meter: &mut BudgetMeter,
    n_points: usize,
    n_cols: usize,
) -> crate::Result<()> {
    let bytes = (n_points as u64).saturating_mul(8 * n_cols as u64);
    meter.charge_bytes(bytes).map_err(|stop| {
        crate::SimError::budget_exceeded(stop, format!("dc sweep of {n_points} points"))
    })
}

/// Validates that `source` names an *independent* V/I source that a DC
/// sweep can drive. Dependent (E/G/F/H) sources and passives have no
/// waveform to override — rejecting them here keeps
/// [`override_source_rhs`] from silently no-oping through a whole sweep.
pub(crate) fn require_sweepable_source(mna: &MnaSystem, source: &str) -> crate::Result<()> {
    let circuit = mna.circuit();
    let Some(index) = find_element_index(circuit, source) else {
        return Err(crate::SimError::InvalidConfig {
            context: format!("unknown sweep source `{source}`"),
        });
    };
    if mna.source_waveform(index).is_none() {
        return Err(crate::SimError::InvalidConfig {
            context: format!(
                "sweep source `{source}` is a `{}` element, not an independent V/I source",
                circuit.elements()[index].kind().type_tag()
            ),
        });
    }
    Ok(())
}

/// Element index by name — exact match first, then case-insensitive (SPICE
/// decks are case-insensitive, so `.dc v1 ...` must find `V1`). Shared by
/// [`require_sweepable_source`] and [`override_source_rhs`] so validation
/// and the per-point override always resolve the same element.
fn find_element_index(circuit: &nanosim_circuit::Circuit, name: &str) -> Option<usize> {
    circuit
        .elements()
        .iter()
        .position(|e| e.name() == name)
        .or_else(|| {
            circuit
                .elements()
                .iter()
                .position(|e| e.name().eq_ignore_ascii_case(name))
        })
}

/// Adjusts an already-stamped right-hand side so the named independent
/// source takes `value` instead of its waveform value at `time`. Used by the
/// DC sweep engines.
pub(crate) fn override_source_rhs(
    mna: &MnaSystem,
    element_name: &str,
    value: f64,
    time: f64,
    rhs: &mut [f64],
) -> bool {
    let circuit = mna.circuit();
    let Some(i) = find_element_index(circuit, element_name) else {
        return false;
    };
    let e = &circuit.elements()[i];
    if let Some(wf) = mna.source_waveform(i) {
        let delta = value - wf.value(time);
        if let Some(br) = mna.branch_var(i) {
            // Voltage source: branch row carries the source value.
            rhs[br] += delta;
        } else {
            // Current source: node injections.
            if let Some(p) = mna.var_of_node(e.node_plus()) {
                rhs[p] -= delta;
            }
            if let Some(m) = mna.var_of_node(e.nodes()[1]) {
                rhs[m] += delta;
            }
        }
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanosim_devices::sources::SourceWaveform;

    fn divider() -> Circuit {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", a, b, 1e3).unwrap();
        ckt.add_resistor("R2", b, Circuit::GROUND, 1e3).unwrap();
        ckt.add_capacitor("C1", b, Circuit::GROUND, 1e-12).unwrap();
        ckt
    }

    #[test]
    fn matrices_have_consistent_shapes() {
        let m = CircuitMatrices::new(&divider()).unwrap();
        assert_eq!(m.mna.dim(), 3);
        assert_eq!(m.g_lin.rows(), 3);
        assert_eq!(m.c_csr.rows(), 3);
        assert_eq!(m.c_csr.get(1, 1), 1e-12);
    }

    #[test]
    fn branch_voltage_handles_ground() {
        let x = [2.0, 0.5];
        assert_eq!(branch_voltage(&x, Some(0), Some(1)), 1.5);
        assert_eq!(branch_voltage(&x, Some(0), None), 2.0);
        assert_eq!(branch_voltage(&x, None, Some(1)), -0.5);
        assert_eq!(branch_voltage(&x, None, None), 0.0);
    }

    #[test]
    fn override_voltage_source() {
        let ckt = divider();
        let m = CircuitMatrices::new(&ckt).unwrap();
        let mut rhs = vec![0.0; 3];
        m.mna.stamp_rhs(0.0, &mut rhs);
        assert_eq!(rhs[2], 1.0);
        assert!(override_source_rhs(&m.mna, "V1", 2.5, 0.0, &mut rhs));
        assert_eq!(rhs[2], 2.5);
        assert!(!override_source_rhs(&m.mna, "R1", 2.5, 0.0, &mut rhs));
        assert!(!override_source_rhs(&m.mna, "nope", 2.5, 0.0, &mut rhs));
    }

    #[test]
    fn sweep_source_resolution_is_case_insensitive() {
        let ckt = divider();
        let m = CircuitMatrices::new(&ckt).unwrap();
        assert!(require_sweepable_source(&m.mna, "V1").is_ok());
        assert!(require_sweepable_source(&m.mna, "v1").is_ok());
        assert!(require_sweepable_source(&m.mna, "V9").is_err());
        // Passives are not sweepable, whatever the case.
        assert!(require_sweepable_source(&m.mna, "r1").is_err());
        // The per-point override resolves the same element.
        let mut rhs = vec![0.0; 3];
        m.mna.stamp_rhs(0.0, &mut rhs);
        assert!(override_source_rhs(&m.mna, "v1", 2.5, 0.0, &mut rhs));
        assert_eq!(rhs[2], 2.5);
    }

    #[test]
    fn dependent_source_not_sweepable() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        ckt.add_vcvs("E1", b, Circuit::GROUND, a, Circuit::GROUND, 2.0)
            .unwrap();
        ckt.add_resistor("RL", b, Circuit::GROUND, 1e3).unwrap();
        let m = CircuitMatrices::new(&ckt).unwrap();
        let err = require_sweepable_source(&m.mna, "E1").unwrap_err();
        assert!(err.to_string().contains("independent"), "{err}");
    }

    #[test]
    fn armed_faults_fire_once_then_clear() {
        let m = CircuitMatrices::new(&divider()).unwrap();
        let mut ws = AssemblyWorkspace::new(&m, false, false, OrderingChoice::default());
        ws.arm_faults(FaultPlan::new().with_singular_pivot(0, 1));
        ws.begin();
        let mut rhs = vec![0.0; 3];
        m.mna.stamp_rhs(0.0, &mut rhs);
        let mut x = Vec::new();
        let mut flops = FlopCounter::new();
        let err = ws.factor_solve(&rhs, &mut x, &mut flops).unwrap_err();
        assert!(matches!(
            err,
            nanosim_numeric::NumericError::SingularMatrix { pivot: 1 }
        ));
        // The fault was one-shot: a clean re-assembly solves fine.
        ws.begin();
        ws.factor_solve(&rhs, &mut x, &mut flops).unwrap();
        assert_eq!(ws.fault_plan().unwrap().injected(), 1);
        // And the result matches an unfaulted workspace bit for bit.
        let mut clean = AssemblyWorkspace::new(&m, false, false, OrderingChoice::default());
        clean.begin();
        let mut xc = Vec::new();
        clean.factor_solve(&rhs, &mut xc, &mut flops).unwrap();
        assert_eq!(x, xc);
    }

    #[test]
    fn diag_shunt_stamps_node_rows() {
        let m = CircuitMatrices::new(&divider()).unwrap();
        let mut ws = AssemblyWorkspace::new(&m, false, false, OrderingChoice::default());
        ws.begin();
        let before: Vec<f64> = (0..2).map(|i| ws.matrix().get(i, i)).collect();
        ws.stamp_diag_shunt(2, 1e-3);
        for (i, b) in before.iter().enumerate() {
            assert!((ws.matrix().get(i, i) - b - 1e-3).abs() < 1e-15);
        }
    }

    #[test]
    fn rebind_same_pattern_refactors_instead_of_reanalyzing() {
        let m = CircuitMatrices::new(&divider()).unwrap();
        let mut ws = AssemblyWorkspace::new(&m, false, false, OrderingChoice::default());
        ws.begin();
        let mut rhs = vec![0.0; 3];
        m.mna.stamp_rhs(0.0, &mut rhs);
        let mut x = Vec::new();
        let mut flops = FlopCounter::new();
        ws.factor_solve(&rhs, &mut x, &mut flops).unwrap();
        assert_eq!(ws.lu_stats().full_factors, 1);

        // Same topology, different values: rebind keeps the analysis.
        let mut ckt2 = Circuit::new();
        let a = ckt2.node("a");
        let b = ckt2.node("b");
        ckt2.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(2.0))
            .unwrap();
        ckt2.add_resistor("R1", a, b, 2e3).unwrap();
        ckt2.add_resistor("R2", b, Circuit::GROUND, 2e3).unwrap();
        ckt2.add_capacitor("C1", b, Circuit::GROUND, 2e-12).unwrap();
        let m2 = CircuitMatrices::new(&ckt2).unwrap();
        assert!(ws.rebind(&m2, false, false));
        ws.begin();
        let mut rhs2 = vec![0.0; 3];
        m2.mna.stamp_rhs(0.0, &mut rhs2);
        ws.factor_solve(&rhs2, &mut x, &mut flops).unwrap();
        let stats = ws.lu_stats();
        assert_eq!(stats.full_factors, 1, "rebind must not force a re-analysis");
        assert_eq!(stats.refactors, 1);
        assert!((x[1] - 1.0).abs() < 1e-12, "divider midpoint at 2 V supply");

        // A different pattern is rejected and leaves the workspace intact.
        let mut ckt3 = Circuit::new();
        let a3 = ckt3.node("a");
        ckt3.add_voltage_source("V1", a3, Circuit::GROUND, SourceWaveform::dc(1.0))
            .unwrap();
        ckt3.add_resistor("R1", a3, Circuit::GROUND, 1e3).unwrap();
        let m3 = CircuitMatrices::new(&ckt3).unwrap();
        assert!(!ws.rebind(&m3, false, false));
        ws.begin();
        ws.factor_solve(&rhs2, &mut x, &mut flops).unwrap();
        assert_eq!(ws.lu_stats().full_factors, 1);
    }

    #[test]
    fn override_current_source() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_current_source("I1", a, Circuit::GROUND, SourceWaveform::dc(1e-3))
            .unwrap();
        ckt.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        let m = CircuitMatrices::new(&ckt).unwrap();
        let mut rhs = vec![0.0; 1];
        m.mna.stamp_rhs(0.0, &mut rhs);
        assert_eq!(rhs[0], -1e-3);
        assert!(override_source_rhs(&m.mna, "I1", 3e-3, 0.0, &mut rhs));
        assert_eq!(rhs[0], -3e-3);
    }
}
