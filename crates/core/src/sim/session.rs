//! The [`Simulator`] session: one circuit, many analyses, shared solver
//! state.

use crate::assemble::{
    branch_voltage, charge_sweep_result, mna_var_names, require_sweepable_source,
    sweep_point_count, AssemblyWorkspace, CircuitMatrices,
};
use crate::em::EmEngine;
use crate::error::Forensics;
use crate::mla::MlaEngine;
use crate::pwl::PwlEngine;
use crate::report::EngineStats;
use crate::sim::dataset::{AnalysisKind, Axis, Dataset};
use crate::sim::plan::ExecPlan;
use crate::sim::request::{
    Analysis, BaselineRequest, DcSweep, EmEnsemble, Mla, Op, Pwl, Transient,
};
use crate::swec::dc::DcBuffers;
use crate::swec::{DcMode, SwecDcSweep, SwecTransient};
use crate::{Result, SimError};
use nanosim_circuit::Circuit;
use nanosim_numeric::parallel::{try_par_map, try_par_map_partial};
use nanosim_numeric::solve::LuStats;
use nanosim_numeric::sparse::OrderingChoice;
use nanosim_numeric::{Budget, BudgetMeter, CancelToken, FlopCounter};
use std::time::Instant;

/// Sweep points per shard chunk. Chunk boundaries are a function of the
/// point index only (never of the worker count), which is what keeps
/// sharded DC sweeps bit-identical at any parallelism level — the same
/// contract as [`crate::em::PATH_CHUNK`] for Monte-Carlo ensembles.
pub const SWEEP_CHUNK: usize = 16;

/// Non-iterative warm-up solves a shard performs to approach its first
/// point from the sweep's start value (the per-shard continuation ramp).
const WARM_START_RAMP: usize = 8;

/// What the session does with the preflight static-analysis report
/// ([`nanosim_circuit::lint`]) computed when it opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PreflightMode {
    /// Run the analyzer; error-severity diagnostics abort session
    /// construction with [`SimError::Preflight`] before any matrix is
    /// assembled. Warnings are kept and surface in [`EngineStats`]. The
    /// default.
    #[default]
    Enforce,
    /// Run the analyzer and keep the report (warnings still surface), but
    /// never refuse a circuit — structurally singular decks proceed and
    /// fail numerically, which is what the `min_recip_pivot` cross-check
    /// tests exercise.
    WarnOnly,
    /// Skip the analyzer entirely; [`Simulator::preflight`] returns an
    /// empty report.
    Off,
}

/// Session-wide options applying to every analysis run through one
/// [`Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimOptions {
    /// Fill-reducing ordering for the session's sparse-LU pipeline. The
    /// default [`OrderingChoice::Auto`] picks AMD for systems of at least
    /// [`OrderingChoice::AUTO_AMD_THRESHOLD`] unknowns and the natural
    /// order below; [`OrderingChoice::Natural`] reproduces the
    /// pre-ordering pipeline bit-for-bit. The choice is applied inside the
    /// cached symbolic analyses of the session workspaces, so `swec` DC
    /// sweeps, transients and every analysis sharing those workspaces
    /// inherit it — `Dataset` results stay in original MNA numbering
    /// whatever the ordering, and [`crate::EngineStats`] reports the
    /// resulting `nnz_lu` / `fill_ratio`.
    pub ordering: OrderingChoice,
    /// Preflight static-analysis behavior (default: run and enforce).
    /// Preflight is pattern-only — it performs no factorization and no
    /// numeric solve, so results are bit-identical with it on or off.
    pub preflight: PreflightMode,
}

/// A simulation session bound to one circuit.
///
/// `Simulator::new` assembles the MNA structure once; every analysis run
/// through the session shares it, along with cached assembly workspaces
/// whose sparse-LU symbolic analyses survive across analyses (an `.op`
/// followed by a `.dc` refactors instead of re-analyzing). Analyses are
/// typed [`Analysis`] requests built with builders, every result is a
/// [`Dataset`], and scale-out is an [`ExecPlan`] — not a different engine.
///
/// # Example
/// ```
/// use nanosim_core::sim::{Analysis, ExecPlan, Simulator};
/// use nanosim_circuit::Circuit;
/// use nanosim_devices::rtd::Rtd;
/// use nanosim_devices::sources::SourceWaveform;
///
/// # fn main() -> Result<(), nanosim_core::SimError> {
/// let mut ckt = Circuit::new();
/// let vin = ckt.node("in");
/// let mid = ckt.node("mid");
/// ckt.add_voltage_source("V1", vin, Circuit::GROUND, SourceWaveform::dc(0.0))?;
/// ckt.add_resistor("R1", vin, mid, 50.0)?;
/// ckt.add_rtd("X1", mid, Circuit::GROUND, Rtd::date2005())?;
///
/// let mut sim = Simulator::new(ckt)?;
/// let sweep = sim.run(Analysis::dc_sweep("V1", 0.0, 2.5, 0.1))?;
/// assert_eq!(sweep.points(), 26);
/// // The same request sharded over 4 workers is bit-identical.
/// let sharded = sim.run(
///     Analysis::dc_sweep("V1", 0.0, 2.5, 0.1).plan(ExecPlan::sharded(4)),
/// )?;
/// assert_eq!(sweep.column("mid"), sharded.column("mid"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulator {
    circuit: Circuit,
    mats: CircuitMatrices,
    opts: SimOptions,
    /// Cached no-C assembly workspace (operating points, DC sweeps).
    dc_ws: Option<AssemblyWorkspace>,
    /// Cached with-C assembly workspace (transients).
    tran_ws: Option<AssemblyWorkspace>,
    /// Armed fault-injection plan; cloned onto every workspace the session
    /// creates (testing/robustness harness — see
    /// [`nanosim_numeric::FaultPlan`]).
    fault: Option<nanosim_numeric::FaultPlan>,
    /// Preflight lint report computed at session construction (empty when
    /// [`PreflightMode::Off`]).
    preflight: nanosim_circuit::LintReport,
    /// Run budget applied to every analysis (default: unlimited — the
    /// budget machinery is completely inert and results are bit-identical
    /// to an unbudgeted session).
    budget: Budget,
    /// Cooperative cancellation token shared with callers; tripping it
    /// stops any running analysis at its next checkpoint with
    /// [`SimError::BudgetExceeded`].
    cancel: CancelToken,
}

impl Simulator {
    /// Opens a session on `circuit` with default [`SimOptions`],
    /// assembling its MNA structure once.
    ///
    /// # Errors
    /// Propagates circuit validation / MNA construction failures.
    pub fn new(circuit: Circuit) -> Result<Simulator> {
        Self::with_options(circuit, SimOptions::default())
    }

    /// Opens a session with explicit [`SimOptions`] (e.g. a pinned
    /// [`OrderingChoice`] or a [`PreflightMode`]).
    ///
    /// Unless preflight is [`PreflightMode::Off`], the static analyzer
    /// runs here — before any matrix is assembled — and, under
    /// [`PreflightMode::Enforce`], error-severity diagnostics (guaranteed
    /// singular topologies, duplicate names, ...) abort construction with
    /// [`SimError::Preflight`].
    ///
    /// # Errors
    /// Returns [`SimError::Preflight`] for circuits the analyzer rejects,
    /// and propagates circuit validation / MNA construction failures.
    pub fn with_options(circuit: Circuit, opts: SimOptions) -> Result<Simulator> {
        let preflight = match opts.preflight {
            PreflightMode::Off => nanosim_circuit::LintReport::default(),
            PreflightMode::Enforce | PreflightMode::WarnOnly => {
                let report = nanosim_circuit::lint_circuit(&circuit);
                if opts.preflight == PreflightMode::Enforce && report.has_errors() {
                    return Err(SimError::Preflight(Box::new(report)));
                }
                report
            }
        };
        let mats = CircuitMatrices::new(&circuit)?;
        Ok(Simulator {
            circuit,
            mats,
            opts,
            dc_ws: None,
            tran_ws: None,
            fault: None,
            preflight,
            budget: Budget::unlimited(),
            cancel: CancelToken::new(),
        })
    }

    /// Sets the run budget applied to every subsequent analysis. The
    /// default is [`Budget::unlimited`]; with it, every checkpoint reduces
    /// to one relaxed atomic load and results are bit-identical to an
    /// unbudgeted session.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// The session's run budget.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// The session's cancellation token. Clone it (cloning shares the
    /// flag) and call [`CancelToken::cancel`] from another thread — or
    /// before [`Simulator::run`] — to stop analyses at their next
    /// deterministic checkpoint with [`SimError::BudgetExceeded`].
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Replaces the session's cancellation token (e.g. a service layer
    /// installing one token per request so runs are individually
    /// cancellable).
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = token;
    }

    /// Rebinds the session to a new circuit, preserving warm solver state
    /// when the new circuit has the same MNA sparsity pattern.
    ///
    /// This is the cross-request session-reuse hook: a parameter study (or
    /// a service-layer session pool) submits many circuits that differ
    /// only in component values. Rebinding refreshes the assembled base
    /// values and device scatter maps while keeping each cached workspace's
    /// solver — symbolic analysis, fill ordering and supernode plan — so
    /// the next analysis *refactors* instead of re-analyzing. Returns
    /// `Ok(true)` when at least one warmed workspace survived the swap
    /// (every subsequent solve reuses its analysis); `Ok(false)` means the
    /// session was rebound cold (no warm workspaces, or a sparsity-pattern
    /// mismatch forced a rebuild).
    ///
    /// Preflight runs on the new circuit under the session's configured
    /// [`PreflightMode`] exactly as in [`Simulator::with_options`]; on a
    /// preflight or assembly error the session keeps its previous circuit
    /// and remains usable.
    ///
    /// # Errors
    /// Returns [`SimError::Preflight`] for circuits the analyzer rejects
    /// under [`PreflightMode::Enforce`], and propagates circuit validation
    /// / MNA construction failures.
    ///
    /// # Example
    /// ```
    /// use nanosim_circuit::parse_netlist;
    /// use nanosim_core::{Analysis, Simulator};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let a = parse_netlist("V1 in 0 DC 1\nR1 in out 100\nR2 out 0 100\n.end\n")?;
    /// let b = parse_netlist("V1 in 0 DC 1\nR1 in out 220\nR2 out 0 100\n.end\n")?;
    /// let mut sim = Simulator::new(a.circuit)?;
    /// let cold = sim.run(Analysis::op())?;
    /// assert_eq!(cold.stats.full_factors, 1);
    /// assert!(sim.rebind(b.circuit)?); // warm: same sparsity pattern
    /// let warm = sim.run(Analysis::op())?;
    /// assert_eq!(warm.stats.full_factors, 0); // values-only refactor
    /// # Ok(())
    /// # }
    /// ```
    pub fn rebind(&mut self, circuit: Circuit) -> Result<bool> {
        let preflight = match self.opts.preflight {
            PreflightMode::Off => nanosim_circuit::LintReport::default(),
            PreflightMode::Enforce | PreflightMode::WarnOnly => {
                let report = nanosim_circuit::lint_circuit(&circuit);
                if self.opts.preflight == PreflightMode::Enforce && report.has_errors() {
                    return Err(SimError::Preflight(Box::new(report)));
                }
                report
            }
        };
        let mats = CircuitMatrices::new(&circuit)?;
        let had_warm = self.dc_ws.is_some() || self.tran_ws.is_some();
        let mut all_rebound = true;
        if let Some(mut ws) = self.dc_ws.take() {
            if ws.rebind(&mats, false, false) {
                self.dc_ws = Some(ws);
            } else {
                all_rebound = false;
            }
        }
        if let Some(mut ws) = self.tran_ws.take() {
            if ws.rebind(&mats, false, true) {
                self.tran_ws = Some(ws);
            } else {
                all_rebound = false;
            }
        }
        self.circuit = circuit;
        self.mats = mats;
        self.preflight = preflight;
        Ok(had_warm && all_rebound)
    }

    /// The preflight lint report computed when the session opened (empty
    /// when preflight was [`PreflightMode::Off`]). Under
    /// [`PreflightMode::Enforce`] the report never contains errors — a
    /// session that constructed successfully passed.
    pub fn preflight(&self) -> &nanosim_circuit::LintReport {
        &self.preflight
    }

    /// Arms a deterministic fault-injection plan: every assembly workspace
    /// the session uses (existing and future) gets its own clone, so the
    /// scheduled faults fire at the same factorization calls regardless of
    /// how analyses share or clone workspaces. Testing harness — see
    /// [`nanosim_numeric::FaultPlan`].
    pub fn arm_faults(&mut self, plan: nanosim_numeric::FaultPlan) {
        if let Some(ws) = self.dc_ws.as_mut() {
            ws.arm_faults(plan.clone());
        }
        if let Some(ws) = self.tran_ws.as_mut() {
            ws.arm_faults(plan.clone());
        }
        self.fault = Some(plan);
    }

    /// Total faults actually injected so far across the session's
    /// workspaces (zero when no plan is armed or nothing has fired yet).
    pub fn injected_faults(&self) -> u64 {
        self.dc_ws
            .iter()
            .chain(self.tran_ws.iter())
            .filter_map(|ws| ws.fault_plan())
            .map(|p| p.injected())
            .sum()
    }

    /// The session's circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The session options.
    pub fn options(&self) -> &SimOptions {
        &self.opts
    }

    /// Name of the fill ordering the session's solver applies ("natural",
    /// "rcm", "amd"). Before the first analysis warms a workspace this is
    /// the configured choice's tag (`Auto` reports "auto" until resolved
    /// against the system size).
    pub fn ordering_name(&self) -> &'static str {
        self.dc_ws
            .as_ref()
            .or(self.tran_ws.as_ref())
            .map(|ws| ws.ordering_name())
            .unwrap_or_else(|| self.opts.ordering.name())
    }

    /// Names of all MNA variables in solution order (node voltages, then
    /// branch currents).
    pub fn var_names(&self) -> Vec<String> {
        mna_var_names(&self.mats.mna)
    }

    /// Runs one analysis and returns its [`Dataset`].
    ///
    /// # Errors
    /// Propagates request validation failures ([`SimError::InvalidConfig`])
    /// and engine failures.
    pub fn run(&mut self, analysis: impl Into<Analysis>) -> Result<Dataset> {
        let analysis = analysis.into();
        analysis.validate()?;
        // One meter per run: the deadline clock starts here and is shared
        // (via forks) by every engine, loop and sweep chunk the analysis
        // spawns. A pre-cancelled token or zero deadline trips right away.
        let meter = BudgetMeter::new(self.budget, self.cancel.clone());
        meter
            .checkpoint()
            .map_err(|stop| SimError::budget_exceeded(stop, "analysis start"))?;
        let mut ds = match analysis {
            Analysis::Op(op) => self.run_op(op, &meter),
            Analysis::DcSweep(sweep) => self.run_dc_sweep(sweep, &meter),
            Analysis::Transient(tran) => self.run_transient(tran, &meter),
            Analysis::EmEnsemble(em) => self.run_em(em, &meter),
            Analysis::Mla(mla) => self.run_mla(mla, &meter),
            Analysis::Pwl(pwl) => self.run_pwl(pwl),
        }?;
        ds.stats.preflight_warnings = self.preflight.warning_count() as u64;
        Ok(ds)
    }

    /// Lazily creates the no-C workspace, arming any session fault plan.
    fn ensure_dc_ws(&mut self) {
        if self.dc_ws.is_none() {
            let mut ws = AssemblyWorkspace::new(&self.mats, false, false, self.opts.ordering);
            if let Some(plan) = &self.fault {
                ws.arm_faults(plan.clone());
            }
            self.dc_ws = Some(ws);
        }
    }

    /// Lazily creates the with-C workspace, arming any session fault plan.
    fn ensure_tran_ws(&mut self) {
        if self.tran_ws.is_none() {
            let mut ws = AssemblyWorkspace::new(&self.mats, false, true, self.opts.ordering);
            if let Some(plan) = &self.fault {
                ws.arm_faults(plan.clone());
            }
            self.tran_ws = Some(ws);
        }
    }

    fn run_op(&mut self, op: Op, meter: &BudgetMeter) -> Result<Dataset> {
        let t0 = Instant::now();
        self.ensure_dc_ws();
        let ws = self.dc_ws.as_mut().expect("created above");
        let lu0 = ws.lu_stats();
        let engine = SwecDcSweep::new(op.options).with_meter(meter.fork());
        let mut stats = EngineStats::new();
        let values = engine.solve_op_ws(&self.mats, ws, &mut stats)?;
        stats.absorb_lu(&lu0, &ws.lu_stats());
        stats.steps += 1;
        stats.elapsed = t0.elapsed();
        let names = mna_var_names(&self.mats.mna);
        Ok(Dataset::from_op("swec", names, values, stats))
    }

    fn run_transient(&mut self, tran: Transient, meter: &BudgetMeter) -> Result<Dataset> {
        self.ensure_tran_ws();
        self.ensure_dc_ws();
        let ws = self.tran_ws.as_mut().expect("created above");
        let op_ws = self.dc_ws.as_mut().expect("created above");
        let engine = SwecTransient::new(tran.options).with_meter(meter.fork());
        let result = engine.run_with(&self.mats, ws, Some(op_ws), tran.tstep, tran.tstop)?;
        Ok(Dataset::from_transient("swec", result))
    }

    fn run_em(&mut self, em: EmEnsemble, meter: &BudgetMeter) -> Result<Dataset> {
        let mut options = em.options;
        // The plan owns scheduling: Serial runs one worker, Sharded{n} runs
        // n (`ExecPlan::sharded(0)` already resolved auto at build time).
        options.threads = em.plan.workers();
        let result = EmEngine::new(options)
            .with_meter(meter.fork())
            .run(&self.circuit, em.horizon)?;
        Ok(Dataset::from_em(result))
    }

    fn run_mla(&mut self, mla: Mla, meter: &BudgetMeter) -> Result<Dataset> {
        let engine = MlaEngine::new(mla.options).with_meter(meter.fork());
        match mla.request {
            BaselineRequest::DcSweep {
                source,
                start,
                stop,
                step,
            } => {
                let r = engine.run_dc_sweep(&self.circuit, &source, start, stop, step)?;
                Ok(Dataset::from_dc_sweep("mla", &source, r))
            }
            BaselineRequest::Transient { tstep, tstop } => {
                let r = engine.run_transient(&self.circuit, tstep, tstop)?;
                if let Some((t, outcome)) = r.failures.first() {
                    return Err(SimError::non_convergence(
                        *t,
                        format!(
                            "MLA transient: {} steps failed (first: {outcome:?})",
                            r.failures.len()
                        ),
                    ));
                }
                Ok(Dataset::from_transient("mla", r.result))
            }
        }
    }

    fn run_pwl(&mut self, pwl: Pwl) -> Result<Dataset> {
        let engine = PwlEngine::new(pwl.options);
        match pwl.request {
            BaselineRequest::DcSweep {
                source,
                start,
                stop,
                step,
            } => {
                let r = engine.run_dc_sweep(&self.circuit, &source, start, stop, step)?;
                Ok(Dataset::from_dc_sweep("pwl", &source, r))
            }
            BaselineRequest::Transient { tstep, tstop } => {
                let r = engine.run_transient(&self.circuit, tstep, tstop)?;
                Ok(Dataset::from_transient("pwl", r))
            }
        }
    }

    /// Sharded (or serial — same algorithm, one worker) SWEC DC sweep.
    ///
    /// The sweep is cut into fixed [`SWEEP_CHUNK`]-point chunks. The session
    /// workspace is first warmed with one assembly + solve at the sweep
    /// start, so every chunk clone inherits the same cached LU symbolic
    /// analysis and refactors instead of re-factoring. Chunk 0 reproduces
    /// the legacy serial sweep exactly (full fixed point at the first
    /// value, continuation after); later chunks warm-start with a forward
    /// non-iterative continuation ramp from the sweep start to the point
    /// *before* their range — tracking the same branch a serial
    /// continuation chain selects through NDR/hysteresis regions — then
    /// refine that point to self-consistency (keeping the ramp iterate at a
    /// genuine bistability fold) and continue like the serial sweep would.
    /// Because chunk boundaries and warm-starts depend only on the point
    /// index, results are bit-identical for every worker count.
    ///
    /// All chunks' *first* ramp points share one state (`x = 0`, the
    /// warmed `Geq(0)` matrix), so they are computed up front by a single
    /// batched multi-RHS solve ([`AssemblyWorkspace::factor_solve_many`])
    /// before the fan-out — one refactor and one factor traversal replace
    /// one refactor per chunk, bit-identically.
    fn run_dc_sweep(&mut self, req: DcSweep, meter: &BudgetMeter) -> Result<Dataset> {
        let DcSweep {
            source,
            start,
            stop,
            step,
            options,
            plan,
        } = req;
        let n_points = sweep_point_count(start, stop, step)?;
        require_sweepable_source(&self.mats.mna, &source)?;
        let t0 = Instant::now();
        self.ensure_dc_ws();
        let engine = SwecDcSweep::new(options);
        let mut run_meter = meter.fork();
        // The result shape is known up front: charge the whole payload
        // (axis + every output column) before the warm solve and before
        // any chunk work is fanned out, so a byte budget too small for the
        // sweep fails immediately and identically at every worker count.
        let n_cols = 1
            + self.mats.mna.dim()
            + self.mats.mna.nonlinear_bindings().len()
            + self.mats.mna.mosfet_bindings().len();
        charge_sweep_result(&mut run_meter, n_points, n_cols)?;
        let mut warm_stats = EngineStats::new();
        let warm_lu = {
            // Warm the session workspace with one assembly + solve at the
            // sweep start (the matrix the first chunk assembles first), so
            // every chunk clone starts from the same cached symbolic
            // analysis and refactors instead of paying a full factor.
            let ws = self.dc_ws.as_mut().expect("created above");
            let lu0 = ws.lu_stats();
            let mut buf = DcBuffers::default();
            let x0 = vec![0.0; self.mats.mna.dim()];
            engine.solve_noniterative_ws(
                &self.mats,
                ws,
                &mut buf,
                Some((&source, start)),
                &x0,
                &mut warm_stats,
                &mut run_meter.fork(),
            )?;
            let warm_lu = ws.lu_stats();
            warm_stats.absorb_lu(&lu0, &warm_lu);
            warm_lu
        };
        let values: Vec<f64> = (0..n_points).map(|k| start + step * k as f64).collect();
        let n_chunks = n_points.div_ceil(SWEEP_CHUNK);

        // Every chunk past the first begins its continuation ramp at the
        // same state (`x = 0`, `Geq(0)` — exactly the warmed matrix), so
        // all first ramp points are computed up front with **one** batched
        // multi-RHS solve instead of one refactor per chunk. Each seed is
        // bit-identical to the solve the chunk would have performed, and
        // the batch happens before the fan-out, so worker counts cannot
        // affect it.
        let (warm_lu, seeds) = if n_chunks > 1 {
            let ramp_values: Vec<f64> = (1..n_chunks)
                .map(|ci| {
                    let prev = values[ci * SWEEP_CHUNK - 1];
                    start + (prev - start) / WARM_START_RAMP as f64
                })
                .collect();
            let ws = self.dc_ws.as_mut().expect("created above");
            let lu0 = ws.lu_stats();
            let mut buf = DcBuffers::default();
            let x0 = vec![0.0; self.mats.mna.dim()];
            let seeds = engine.solve_noniterative_batch_ws(
                &self.mats,
                ws,
                &mut buf,
                &source,
                &ramp_values,
                &x0,
                &mut warm_stats,
                &run_meter,
            )?;
            let warm_lu = ws.lu_stats();
            warm_stats.absorb_lu(&lu0, &warm_lu);
            (warm_lu, seeds)
        } else {
            (warm_lu, Vec::new())
        };
        let base_ws = self.dc_ws.as_ref().expect("created above");
        let mats = &self.mats;

        let rescue_enabled = engine.options().rescue.enabled;
        let chunk_meter = &run_meter;
        let (chunks, failure) = try_par_map_partial(n_chunks, plan.workers(), |ci| {
            let lo = ci * SWEEP_CHUNK;
            let hi = n_points.min(lo + SWEEP_CHUNK);
            let seed = if ci > 0 {
                Some(&seeds[ci - 1][..])
            } else {
                None
            };
            match sweep_chunk(
                &engine,
                mats,
                base_ws,
                warm_lu,
                &source,
                start,
                &values,
                lo,
                hi,
                seed,
                WARM_START_RAMP,
                chunk_meter,
            ) {
                Ok(c) => Ok(c),
                Err(SimError::NonConvergence { .. } | SimError::Numeric(_)) if rescue_enabled => {
                    // Rescue: retry the whole chunk with an 8x finer
                    // continuation ramp, recomputed locally (the batched
                    // seed only applies to the default ramp). Healthy
                    // chunks never take this path, and the decision
                    // depends only on the chunk index — never the worker
                    // count — so sharded results stay bit-identical.
                    // Budget stops are excluded: a chunk killed by the
                    // budget must not burn 8x the work retrying.
                    match sweep_chunk(
                        &engine,
                        mats,
                        base_ws,
                        warm_lu,
                        &source,
                        start,
                        &values,
                        lo,
                        hi,
                        None,
                        WARM_START_RAMP * 8,
                        chunk_meter,
                    ) {
                        Ok(mut c) => {
                            c.stats.rescues += 1;
                            c.stats.rescue_rungs += 1;
                            Ok(c)
                        }
                        Err(e) => Err(tag_chunk_failure(e, ci)),
                    }
                }
                Err(e) => Err(tag_chunk_failure(e, ci)),
            }
        });

        // Partial salvage: a sweep killed by its budget keeps the accepted
        // chunk prefix when the caller opted in. `try_par_map_partial`
        // reports the smallest failing chunk index, so chunks `0..fi` are
        // all present and the salvaged prefix is bit-identical at every
        // worker count. Non-budget failures (and budget stops with nothing
        // accepted) propagate as errors exactly as before.
        let (kept_chunks, truncated_after) = match failure {
            None => (n_chunks, None),
            Some((fi, e)) => {
                let salvage = engine.options().allow_partial
                    && matches!(e, SimError::BudgetExceeded { .. })
                    && fi > 0;
                if !salvage {
                    return Err(e);
                }
                (fi, Some(values[fi * SWEEP_CHUNK - 1]))
            }
        };

        // Deterministic stitch: solutions and statistics in chunk order.
        let mut stats = warm_stats;
        let mut solutions: Vec<Vec<f64>> = Vec::with_capacity(n_points);
        for chunk in chunks.into_iter().take(kept_chunks) {
            let chunk = chunk.expect("chunks before the smallest failing index all succeeded");
            solutions.extend(chunk.xs);
            stats.merge(&chunk.stats);
        }
        let mut values = values;
        values.truncate(solutions.len());

        // Output columns: node voltages / branch currents, then per-device
        // currents (same layout as the legacy engine result).
        let var_names = mna_var_names(&mats.mna);
        let mut names = var_names.clone();
        for b in mats.mna.nonlinear_bindings() {
            names.push(format!("I({})", b.name));
        }
        for m in mats.mna.mosfet_bindings() {
            names.push(format!("I({})", m.name));
        }
        let mut columns: Vec<Vec<f64>> = vec![Vec::with_capacity(n_points); names.len()];
        let mut flops = FlopCounter::new();
        for x in &solutions {
            for (i, &xi) in x.iter().enumerate() {
                columns[i].push(xi);
            }
            let mut col = var_names.len();
            for b in mats.mna.nonlinear_bindings() {
                let v = branch_voltage(x, b.var_plus, b.var_minus);
                columns[col].push(b.device.current(v, &mut flops));
                col += 1;
            }
            for m in mats.mna.mosfet_bindings() {
                let vd = m.var_drain.map_or(0.0, |i| x[i]);
                let vg = m.var_gate.map_or(0.0, |i| x[i]);
                let vs = m.var_source.map_or(0.0, |i| x[i]);
                columns[col].push(m.model.ids(vg - vs, vd - vs, &mut flops));
                col += 1;
            }
        }
        stats.flops += flops;
        stats.elapsed = t0.elapsed();
        let ds = Dataset::new(
            AnalysisKind::Dc,
            "swec",
            Axis::Sweep { source, values },
            names,
            columns,
            stats,
        );
        Ok(match truncated_after {
            Some(at) => ds.truncated(at),
            None => ds,
        })
    }
}

/// One chunk's solutions and work accounting.
struct SweepChunk {
    xs: Vec<Vec<f64>>,
    stats: EngineStats,
}

/// Annotates a failed chunk's error with the chunk index (the failing
/// point index and sweep value ride in the forensics payload).
fn tag_chunk_failure(e: SimError, ci: usize) -> SimError {
    match e {
        SimError::NonConvergence {
            at,
            context,
            forensics,
        } => SimError::NonConvergence {
            at,
            context: format!("{context} [sweep chunk {ci}]"),
            forensics,
        },
        SimError::BudgetExceeded {
            stop,
            context,
            forensics,
        } => SimError::BudgetExceeded {
            stop,
            context: format!("{context} [sweep chunk {ci}]"),
            forensics,
        },
        other => other,
    }
}

/// Attaches the failing point index and sweep value to a per-point
/// non-convergence error.
fn tag_sweep_failure(e: SimError, k: usize, value: f64) -> SimError {
    match e {
        SimError::NonConvergence {
            at,
            context,
            forensics,
        } => {
            let mut fx = forensics.map_or_else(Forensics::default, |b| *b);
            fx.point_index = Some(k);
            fx.sweep_value = Some(value);
            SimError::non_convergence_with(at, context, fx)
        }
        SimError::BudgetExceeded {
            stop,
            context,
            forensics,
        } => {
            let mut fx = forensics.map_or_else(Forensics::default, |b| *b);
            fx.point_index = Some(k);
            fx.sweep_value = Some(value);
            SimError::budget_exceeded_with(stop, context, fx)
        }
        other => other,
    }
}

/// Solves sweep points `lo..hi` on a fresh clone of `base_ws` (see
/// [`Simulator::run_dc_sweep`] for the warm-start contract).
#[allow(clippy::too_many_arguments)]
fn sweep_chunk(
    engine: &SwecDcSweep,
    mats: &CircuitMatrices,
    base_ws: &AssemblyWorkspace,
    base_lu: LuStats,
    source: &str,
    sweep_start: f64,
    values: &[f64],
    lo: usize,
    hi: usize,
    warm_seed: Option<&[f64]>,
    ramp_steps: usize,
    meter: &BudgetMeter,
) -> Result<SweepChunk> {
    let mut ws = base_ws.clone();
    let mut buf = DcBuffers::default();
    let mut stats = EngineStats::new();
    let dim = mats.mna.dim();
    let fixed_point = engine.options().dc_mode == DcMode::FixedPoint;

    // Per-shard warm start: approach the point *before* this chunk with a
    // forward non-iterative continuation ramp from the sweep start — the
    // quasi-transient the paper runs — so through an NDR/hysteresis region
    // the shard lands on the same branch the serial continuation chain
    // selects (a fixed point solved from zero could silently converge to
    // the other branch of a bistable circuit). The ramp iterate is then
    // refined to self-consistency; at a genuine fold (no unique fixed
    // point) the ramp iterate is kept, exactly like the serial sweep's
    // fold fallback.
    let mut x = vec![0.0; dim];
    if lo > 0 {
        let prev = values[lo - 1];
        meter.checkpoint().map_err(|stop| {
            SimError::budget_exceeded(stop, format!("dc sweep warm start for point {lo}"))
        })?;
        // The first ramp point is normally computed centrally by the
        // batched multi-RHS warm start (bit-identical to solving it here);
        // the shard continues the ramp from that seed. On the finer-ramp
        // rescue retry there is no seed and the whole ramp is recomputed
        // locally.
        let first_step = match warm_seed {
            Some(seed) => {
                x = seed.to_vec();
                2
            }
            None => 1,
        };
        for s in first_step..=ramp_steps {
            let frac = s as f64 / ramp_steps as f64;
            let v = sweep_start + (prev - sweep_start) * frac;
            x = engine
                .solve_noniterative_ws(
                    mats,
                    &mut ws,
                    &mut buf,
                    Some((source, v)),
                    &x,
                    &mut stats,
                    &mut meter.fork(),
                )
                .map_err(|e| tag_sweep_failure(e, lo - 1, v))?;
        }
        match engine.solve_point_ws(
            mats,
            &mut ws,
            &mut buf,
            Some((source, prev)),
            &x,
            None,
            &mut stats,
            &mut meter.fork(),
        ) {
            Ok(x_new) => x = x_new,
            Err(SimError::NonConvergence { .. }) => {}
            Err(e) => return Err(tag_sweep_failure(e, lo - 1, prev)),
        }
    }

    let mut xs = Vec::with_capacity(hi - lo);
    for k in lo..hi {
        let value = values[k];
        meter
            .checkpoint()
            .map_err(|stop| SimError::budget_exceeded(stop, format!("dc sweep point {k}")))?;
        // Same per-point policy as the legacy serial engine: the very first
        // sweep point is always solved to self-consistency; afterwards the
        // non-iterative mode performs exactly one solve per point, and the
        // fixed-point mode falls back to a non-iterative step across
        // bistability folds.
        x = if k == 0 || fixed_point {
            match engine.solve_point_ws(
                mats,
                &mut ws,
                &mut buf,
                Some((source, value)),
                &x,
                None,
                &mut stats,
                &mut meter.fork(),
            ) {
                Ok(x_new) => x_new,
                Err(SimError::NonConvergence { .. }) if k > 0 => engine
                    .solve_noniterative_ws(
                        mats,
                        &mut ws,
                        &mut buf,
                        Some((source, value)),
                        &x,
                        &mut stats,
                        &mut meter.fork(),
                    )
                    .map_err(|e| tag_sweep_failure(e, k, value))?,
                Err(e) => return Err(tag_sweep_failure(e, k, value)),
            }
        } else {
            engine
                .solve_noniterative_ws(
                    mats,
                    &mut ws,
                    &mut buf,
                    Some((source, value)),
                    &x,
                    &mut stats,
                    &mut meter.fork(),
                )
                .map_err(|e| tag_sweep_failure(e, k, value))?
        };
        stats.steps += 1;
        xs.push(x.clone());
    }
    stats.absorb_lu(&base_lu, &ws.lu_stats());
    Ok(SweepChunk { xs, stats })
}

/// Runs the same analysis over many circuit variants in parallel — the
/// parameter-sweep / Monte-Carlo-over-process-variation workload. Each
/// variant gets its own [`Simulator`] (and therefore its own workspaces),
/// results come back in variant order, and
/// [`nanosim_numeric::parallel::par_map`]'s determinism contract makes the
/// output independent of the worker count.
///
/// The per-variant `analysis` is typically [`ExecPlan::Serial`]; a sharded
/// inner plan multiplies thread counts.
///
/// # Errors
/// Returns the failure of the smallest failing variant index, if any.
pub fn run_ensemble(
    variants: &[Circuit],
    analysis: &Analysis,
    plan: ExecPlan,
) -> Result<Vec<Dataset>> {
    plan.validate()?;
    analysis.validate()?;
    try_par_map(variants.len(), plan.workers(), |i| {
        Simulator::new(variants[i].clone())?.run(analysis.clone())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::request::Analysis;
    use nanosim_devices::rtd::Rtd;
    use nanosim_devices::sources::SourceWaveform;

    fn rtd_divider() -> Circuit {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let mid = ckt.node("mid");
        ckt.add_voltage_source("V1", vin, Circuit::GROUND, SourceWaveform::dc(0.0))
            .unwrap();
        ckt.add_resistor("R1", vin, mid, 50.0).unwrap();
        ckt.add_rtd("X1", mid, Circuit::GROUND, Rtd::date2005())
            .unwrap();
        ckt
    }

    fn rc_divider() -> Circuit {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(2.0))
            .unwrap();
        ckt.add_resistor("R1", a, b, 1e3).unwrap();
        ckt.add_resistor("R2", b, Circuit::GROUND, 1e3).unwrap();
        ckt.add_capacitor("C1", b, Circuit::GROUND, 1e-12).unwrap();
        ckt
    }

    #[test]
    fn op_then_sweep_share_the_solver_cache() {
        let mut sim = Simulator::new(rc_divider()).unwrap();
        let op = sim.run(Analysis::op()).unwrap();
        assert_eq!(op.kind(), AnalysisKind::Op);
        assert!((op.value("b").unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(op.stats.full_factors, 1, "cold session factors once");
        // Second op reuses the cached symbolic analysis: zero full factors.
        let op2 = sim.run(Analysis::op()).unwrap();
        assert_eq!(op2.stats.full_factors, 0);
        assert!(op2.stats.refactors >= 1);
        // And so does a sweep: the warm-up solve plus every chunk refactor
        // against the analysis cached by the ops.
        let sweep = sim.run(Analysis::dc_sweep("V1", 0.0, 2.0, 0.05)).unwrap();
        assert_eq!(sweep.stats.full_factors, 0);
        assert!(sweep.stats.refactors > sweep.points() as u64);
    }

    #[test]
    fn cold_sweep_factors_once_and_refactors_the_rest() {
        // The pre-warm guarantee: one full factor for the whole sweep, no
        // matter how many chunks it spans — every chunk clone inherits the
        // warmed analysis.
        let mut sim = Simulator::new(rtd_divider()).unwrap();
        let ds = sim.run(Analysis::dc_sweep("V1", 0.0, 5.0, 0.02)).unwrap();
        assert!(ds.points() > 10 * SWEEP_CHUNK);
        assert_eq!(ds.stats.full_factors, 1, "{}", ds.stats);
        assert!(ds.stats.refactors >= ds.points() as u64);
    }

    #[test]
    fn session_transient_matches_engine() {
        let mut sim = Simulator::new(rc_divider()).unwrap();
        let ds = sim.run(Analysis::transient(0.05e-9, 5e-9)).unwrap();
        assert_eq!(ds.kind(), AnalysisKind::Tran);
        let legacy = SwecTransient::new(Default::default())
            .run(&rc_divider(), 0.05e-9, 5e-9)
            .unwrap();
        assert_eq!(ds.points(), legacy.points());
        assert_eq!(ds.column("b").unwrap(), legacy.column("b").unwrap());
        // A second transient on the same session reuses both cached
        // workspaces (the transient LU and the initial operating point's
        // no-C workspace): zero full factors.
        let ds2 = sim.run(Analysis::transient(0.05e-9, 5e-9)).unwrap();
        assert_eq!(ds2.stats.full_factors, 0, "{}", ds2.stats);
        assert_eq!(ds2.column("b").unwrap(), ds.column("b").unwrap());
    }

    #[test]
    fn first_chunk_matches_legacy_serial_sweep_exactly() {
        // Chunk 0 is algorithmically identical to the legacy engine, so a
        // sweep short enough to fit one chunk must be bit-equal to it.
        let mut sim = Simulator::new(rtd_divider()).unwrap();
        let n = SWEEP_CHUNK as f64;
        let ds = sim
            .run(Analysis::dc_sweep("V1", 0.0, (n - 1.0) * 0.05, 0.05))
            .unwrap();
        assert_eq!(ds.points(), SWEEP_CHUNK);
        let legacy = SwecDcSweep::new(Default::default())
            .run(&rtd_divider(), "V1", 0.0, (n - 1.0) * 0.05, 0.05)
            .unwrap();
        assert_eq!(ds.column("mid").unwrap(), legacy.column("mid").unwrap());
        assert_eq!(ds.column("I(X1)").unwrap(), legacy.column("I(X1)").unwrap());
    }

    #[test]
    fn invalid_sweeps_rejected_with_structured_errors() {
        let mut sim = Simulator::new(rtd_divider()).unwrap();
        assert!(matches!(
            sim.run(Analysis::dc_sweep("V1", 0.0, 1.0, 0.0)),
            Err(SimError::InvalidConfig { .. })
        ));
        assert!(matches!(
            sim.run(Analysis::dc_sweep("Vmissing", 0.0, 1.0, 0.1)),
            Err(SimError::InvalidConfig { .. })
        ));
        assert!(matches!(
            sim.run(Analysis::dc_sweep("V1", 0.0, 1.0, 0.1).plan(ExecPlan::Sharded { workers: 0 })),
            Err(SimError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn ensemble_runs_variants_in_order() {
        let variants: Vec<Circuit> = [40.0, 50.0, 60.0, 70.0, 80.0]
            .iter()
            .map(|r| {
                let mut ckt = Circuit::new();
                let vin = ckt.node("in");
                let mid = ckt.node("mid");
                ckt.add_voltage_source("V1", vin, Circuit::GROUND, SourceWaveform::dc(0.0))
                    .unwrap();
                ckt.add_resistor("R1", vin, mid, *r).unwrap();
                ckt.add_rtd("X1", mid, Circuit::GROUND, Rtd::date2005())
                    .unwrap();
                ckt
            })
            .collect();
        let analysis: Analysis = Analysis::dc_sweep("V1", 0.0, 1.0, 0.1).into();
        let serial = run_ensemble(&variants, &analysis, ExecPlan::Serial).unwrap();
        let parallel = run_ensemble(&variants, &analysis, ExecPlan::sharded(4)).unwrap();
        assert_eq!(serial.len(), 5);
        for (s, p) in serial.iter().zip(parallel.iter()) {
            assert_eq!(s.column("mid"), p.column("mid"), "variant order + bits");
        }
        // Heavier series resistance sags the mid node harder at full drive.
        let v0 = serial[0].at("mid", 1.0).unwrap();
        let v4 = serial[4].at("mid", 1.0).unwrap();
        assert!(v4 < v0, "{v4} !< {v0}");
    }
}
