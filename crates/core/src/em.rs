//! Euler–Maruyama stochastic transient engine (paper §4, Figure 10).
//!
//! Circuits with white-noise ("uncertain") inputs obey the nodal SDE of
//! paper eq. (13)/(17),
//!
//! ```text
//! C·dx = (b(t) - G(x,t)·x)·dt + B·dW
//! ```
//!
//! which the EM method (eq. 18) discretizes as
//!
//! ```text
//! x_{j+1} = x_j + C⁻¹·(b - G·x_j)·Δt + C⁻¹·B·ΔW_j .
//! ```
//!
//! `G` is re-evaluated each step with the SWEC equivalent conductance, so
//! nonlinear nano-devices are handled exactly as the paper notes ("Since G
//! is time variant, Equation (13) also includes cases with the nonlinear
//! nanodevices"). The engine factors `C` once, runs an ensemble of Wiener
//! paths, and reports per-node mean/std envelopes, a sample path, and
//! running-maximum ("peak performance") statistics.
//!
//! **Parallelism and determinism.** Monte-Carlo paths are independent, so
//! the ensemble executes on a scoped-thread worker pool
//! ([`nanosim_numeric::parallel`]) in fixed-size chunks of
//! [`PATH_CHUNK`] paths. Every path's PCG64 generator is derived
//! *deterministically up front* by splitting the seed stream in path order,
//! per-chunk statistics are accumulated with Welford's algorithm and merged
//! in chunk order, and per-path maxima are concatenated in path order —
//! none of which depends on scheduling. Results are therefore **bit
//! identical for every [`EmOptions::threads`] setting**, including the
//! serial `threads = 1`; `tests/stochastic.rs` locks this guarantee in.
//!
//! **Batched solves.** Within a chunk the paths advance in *lockstep*:
//! every path shares the one factorization of `C`, so each time step
//! assembles all paths' right-hand sides and performs a single
//! multi-RHS [`SparseLu::solve_many_into`] instead of one factor-structure
//! walk per path. Per-path arithmetic is bit-identical to the serial
//! per-path stepping (the batched kernel's lanes match independent solves
//! bit for bit), so this is purely a throughput optimization.
//!
//! **Supported circuits**: every MNA unknown must be a node voltage with
//! capacitance to ground (no voltage sources, no inductors) — the standard
//! state-space form. Drive the circuit with current sources; a Thevenin
//! source becomes a Norton equivalent.

use crate::assemble::{branch_voltage, mna_var_names, AssemblyWorkspace, CircuitMatrices};
use crate::report::EngineStats;
use crate::waveform::{TransientResult, Waveform};
use crate::{Result, SimError};
use nanosim_circuit::Circuit;
use nanosim_numeric::parallel::try_par_map;
use nanosim_numeric::rng::Pcg64;
use nanosim_numeric::sparse::{CsrMatrix, OrderingChoice, PivotStrategy, SparseLu};
use nanosim_numeric::stats::{percentile, RunningStats};
use nanosim_numeric::{BudgetMeter, FlopCounter};
use nanosim_sde::wiener::WienerPath;
use std::time::Instant;

/// Monte-Carlo paths per work-stealing chunk. Chunk boundaries are a
/// function of the path index only (never of the thread count), which is
/// what keeps ensemble statistics bit-identical at any parallelism level.
pub const PATH_CHUNK: usize = 8;

/// Options of the EM engine.
#[derive(Debug, Clone, PartialEq)]
pub struct EmOptions {
    /// Fixed integration step `Δt` (s).
    pub dt: f64,
    /// Number of Monte-Carlo paths.
    pub paths: usize,
    /// RNG seed (runs are reproducible).
    pub seed: u64,
    /// Re-evaluate nonlinear `Geq` every step (`true`) or freeze it at the
    /// initial state (`false`, linear-circuit fast path).
    pub update_geq: bool,
    /// Parallel conductance across nonlinear devices.
    pub gmin: f64,
    /// Worker threads for the ensemble: `0` = one per hardware thread,
    /// `1` = serial. Results are bit-identical for every setting (see the
    /// module docs), so this is purely a wall-clock knob.
    pub threads: usize,
    /// Relative per-path device-parameter spread `s` (`0 ≤ s < 1`). Each
    /// Monte-Carlo path scales every capacitance entry and the conductance
    /// stamp by independent factors drawn uniformly from `[1-s, 1+s]`
    /// (path-ordered stream seeded from [`EmOptions::seed`]). With
    /// `s > 0` every chunk factors its first path's `C` once and refactors
    /// a copy of that factorization for each path's own `C`; `s = 0` (the
    /// default) keeps the single shared factorization. Ignored by
    /// [`EmEngine::run_with_paths`], which integrates nominal parameters.
    pub param_spread: f64,
}

impl Default for EmOptions {
    fn default() -> Self {
        EmOptions {
            dt: 1e-12,
            paths: 200,
            seed: 0x5eed_cafe,
            update_geq: true,
            gmin: 1e-12,
            threads: 0,
            param_spread: 0.0,
        }
    }
}

/// Peak ("performance") summary of one node over the ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct PeakSummary {
    /// Mean of per-path running maxima.
    pub mean_peak: f64,
    /// 95th percentile of per-path maxima.
    pub p95_peak: f64,
    /// Largest maximum seen in the ensemble.
    pub worst_peak: f64,
}

/// Ensemble result of a stochastic transient.
#[derive(Debug, Clone)]
pub struct EmResult {
    times: Vec<f64>,
    names: Vec<String>,
    mean: Vec<Vec<f64>>,
    std_dev: Vec<Vec<f64>>,
    maxima: Vec<Vec<f64>>,
    sample: TransientResult,
    /// Work accounting over the whole ensemble.
    pub stats: EngineStats,
}

impl EmResult {
    /// The shared time axis.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Node/variable names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of paths simulated.
    pub fn paths(&self) -> usize {
        self.maxima.first().map_or(0, Vec::len)
    }

    /// Ensemble-mean waveform of a node.
    pub fn mean_waveform(&self, name: &str) -> Option<Waveform> {
        let i = self.names.iter().position(|n| n == name)?;
        Some(Waveform::from_samples(
            self.times.clone(),
            self.mean[i].clone(),
        ))
    }

    /// Ensemble standard-deviation envelope of a node.
    pub fn std_waveform(&self, name: &str) -> Option<Waveform> {
        let i = self.names.iter().position(|n| n == name)?;
        Some(Waveform::from_samples(
            self.times.clone(),
            self.std_dev[i].clone(),
        ))
    }

    /// The first simulated path (the "one realization" plotted in
    /// Figure 10).
    pub fn sample_path(&self) -> &TransientResult {
        &self.sample
    }

    /// Running-maximum statistics of a node over the ensemble.
    pub fn peak_summary(&self, name: &str) -> Option<PeakSummary> {
        let i = self.names.iter().position(|n| n == name)?;
        peak_summary_of(&self.maxima[i])
    }

    /// Fraction of paths whose running maximum of `name` reached `level`.
    pub fn exceedance(&self, name: &str, level: f64) -> Option<f64> {
        let i = self.names.iter().position(|n| n == name)?;
        Some(exceedance_of(&self.maxima[i], level))
    }

    /// Decomposes into `(times, names, mean, std_dev, maxima, stats)` — the
    /// [`crate::sim::Dataset`] conversion path (the sample path is dropped).
    #[allow(clippy::type_complexity)]
    pub(crate) fn into_parts(
        self,
    ) -> (
        Vec<f64>,
        Vec<String>,
        Vec<Vec<f64>>,
        Vec<Vec<f64>>,
        Vec<Vec<f64>>,
        EngineStats,
    ) {
        (
            self.times,
            self.names,
            self.mean,
            self.std_dev,
            self.maxima,
            self.stats,
        )
    }
}

/// [`PeakSummary`] of one variable's per-path running maxima (shared by
/// [`EmResult`] and [`crate::sim::Dataset`] so the two stay in lockstep).
pub(crate) fn peak_summary_of(maxima: &[f64]) -> Option<PeakSummary> {
    let stats: RunningStats = maxima.iter().copied().collect();
    Some(PeakSummary {
        mean_peak: stats.mean(),
        p95_peak: percentile(maxima, 0.95)?,
        worst_peak: stats.max(),
    })
}

/// Fraction of per-path maxima at or above `level`.
pub(crate) fn exceedance_of(maxima: &[f64], level: f64) -> f64 {
    let hits = maxima.iter().filter(|&&m| m >= level).count();
    hits as f64 / maxima.len() as f64
}

/// The Euler–Maruyama circuit engine.
#[derive(Debug, Clone, Default)]
pub struct EmEngine {
    opts: EmOptions,
    meter: BudgetMeter,
}

impl EmEngine {
    /// Creates the engine with the given options.
    pub fn new(opts: EmOptions) -> Self {
        EmEngine {
            opts,
            meter: BudgetMeter::unlimited(),
        }
    }

    /// Attaches a run budget. Checkpoints are placed per integration step
    /// inside every path chunk, so cancellation and deadlines take effect
    /// within one step's worth of work per worker.
    #[must_use]
    pub fn with_meter(mut self, meter: BudgetMeter) -> Self {
        self.meter = meter;
        self
    }

    /// The engine options.
    pub fn options(&self) -> &EmOptions {
        &self.opts
    }

    /// Checks the circuit satisfies the state-space restrictions and
    /// returns its matrices.
    fn prepare(&self, circuit: &Circuit) -> Result<CircuitMatrices> {
        let mats = CircuitMatrices::new(circuit)?;
        if mats.mna.num_branches() > 0 {
            return Err(SimError::UnsupportedCircuit {
                reason: "EM engine needs a pure state-space circuit: replace voltage sources \
                         with Norton equivalents and remove inductors"
                    .into(),
            });
        }
        // Every node needs capacitance for C to be invertible.
        let caps = mats.mna.node_capacitance();
        if let Some(j) = caps.iter().position(|&c| c <= 0.0) {
            let name = mna_var_names(&mats.mna)[j].clone();
            return Err(SimError::UnsupportedCircuit {
                reason: format!("node {name} has no capacitance; C must be nonsingular"),
            });
        }
        Ok(mats)
    }

    /// Runs the Monte-Carlo ensemble from `t = 0` to `horizon`, distributing
    /// paths over [`EmOptions::threads`] workers. Statistics stream through
    /// per-chunk Welford accumulators merged in chunk order, so no path
    /// series is ever materialized beyond the recorded sample path and the
    /// result is bit-identical at any thread count.
    ///
    /// # Errors
    /// Fails on unsupported circuits, invalid options or singular matrices.
    pub fn run(&self, circuit: &Circuit, horizon: f64) -> Result<EmResult> {
        if !(self.opts.dt > 0.0 && horizon > self.opts.dt) {
            return Err(SimError::InvalidConfig {
                context: format!(
                    "em needs 0 < dt < horizon (dt={}, horizon={horizon})",
                    self.opts.dt
                ),
            });
        }
        if self.opts.paths == 0 {
            return Err(SimError::InvalidConfig {
                context: "em needs at least one path".into(),
            });
        }
        if !(0.0..1.0).contains(&self.opts.param_spread) {
            return Err(SimError::InvalidConfig {
                context: format!(
                    "em needs 0 <= param_spread < 1 (got {})",
                    self.opts.param_spread
                ),
            });
        }
        let t0 = Instant::now();
        let mats = self.prepare(circuit)?;
        let dim = mats.mna.dim();
        let steps = (horizon / self.opts.dt).round() as usize;
        let paths = self.opts.paths;
        let mut stats = EngineStats::new();
        let mut flops = FlopCounter::new();

        // The result shape (mean + std-dev + sample series, per-path
        // maxima) is known up front: charge it before any path work so a
        // byte budget too small for the ensemble fails immediately and
        // identically at every worker count.
        let mut run_meter = self.meter.fork();
        let result_f64s = (steps as u64 + 1) * (1 + 3 * dim as u64) + (paths as u64) * dim as u64;
        run_meter.charge_bytes(8 * result_f64s).map_err(|stop| {
            SimError::budget_exceeded(
                stop,
                format!("em ensemble of {paths} paths x {steps} steps"),
            )
        })?;

        // Per-path parameter variation, drawn in path order from its own
        // seed-derived stream so enabling it never perturbs the noise RNGs.
        let variation = if self.opts.param_spread > 0.0 {
            Some(PathVariation::build(
                &mats,
                paths,
                self.opts.param_spread,
                self.opts.seed,
            ))
        } else {
            None
        };
        // Nominal parameters: factor C once; the factorization is immutable
        // and shared by every worker (each solves into its own buffers).
        // With per-path spread each chunk instead refactors one copy of
        // its first path's factorization per path.
        let c_lu = if variation.is_none() {
            Some(SparseLu::factor(&mats.c_csr, &mut flops)?)
        } else {
            None
        };
        let names = mna_var_names(&mats.mna);
        let times: Vec<f64> = (0..=steps).map(|k| k as f64 * self.opts.dt).collect();

        // Per-path generators derived up front in path order: the stream of
        // splits depends only on the seed, never on scheduling.
        let mut rng = Pcg64::seed_from_u64(self.opts.seed);
        let path_rngs: Vec<Pcg64> = (0..paths).map(|_| rng.split()).collect();

        let n_chunks = paths.div_ceil(PATH_CHUNK);
        let chunk_meter = &run_meter;
        let chunks = try_par_map(n_chunks, self.opts.threads, |ci| {
            let lo = ci * PATH_CHUNK;
            let hi = paths.min(lo + PATH_CHUNK);
            self.simulate_chunk(
                &mats,
                c_lu.as_ref(),
                steps,
                &path_rngs[lo..hi],
                lo,
                variation.as_ref(),
                chunk_meter,
            )
        })?;

        // Order-deterministic reduction: Welford-merge chunk accumulators
        // and concatenate per-path maxima, both in chunk order.
        let mut welford = vec![RunningStats::new(); dim * (steps + 1)];
        let mut maxima: Vec<Vec<f64>> = vec![Vec::with_capacity(paths); dim];
        let mut sample_columns: Vec<Vec<f64>> = Vec::new();
        for chunk in &chunks {
            for (total, part) in welford.iter_mut().zip(chunk.welford.iter()) {
                total.merge(part);
            }
            for (i, m) in maxima.iter_mut().enumerate() {
                m.extend_from_slice(&chunk.maxima[i]);
            }
            stats.merge(&chunk.stats);
        }
        if let Some(cols) = chunks.into_iter().next().and_then(|c| c.sample) {
            sample_columns = cols;
        }

        let mean: Vec<Vec<f64>> = (0..dim)
            .map(|i| {
                welford[i * (steps + 1)..(i + 1) * (steps + 1)]
                    .iter()
                    .map(RunningStats::mean)
                    .collect()
            })
            .collect();
        let std_dev: Vec<Vec<f64>> = (0..dim)
            .map(|i| {
                welford[i * (steps + 1)..(i + 1) * (steps + 1)]
                    .iter()
                    .map(RunningStats::std_dev)
                    .collect()
            })
            .collect();

        stats.flops += flops;
        stats.steps = steps * paths;
        stats.elapsed = t0.elapsed();
        let sample = TransientResult::new(
            times.clone(),
            names.clone(),
            sample_columns,
            EngineStats::new(),
        );
        Ok(EmResult {
            times,
            names,
            mean,
            std_dev,
            maxima,
            sample,
            stats,
        })
    }

    /// Integrates a single realization along caller-provided Wiener paths
    /// (one per stochastic source, in binding order). This is how Figure 10
    /// compares EM against the exact solution *of the same path*.
    ///
    /// # Errors
    /// Fails when the number or shape of the paths does not match the
    /// circuit's noise sources.
    pub fn run_with_paths(
        &self,
        circuit: &Circuit,
        wieners: &[WienerPath],
    ) -> Result<TransientResult> {
        let t0 = Instant::now();
        let mats = self.prepare(circuit)?;
        let noise_count = mats.mna.noise_bindings().len();
        if wieners.len() != noise_count {
            return Err(SimError::InvalidConfig {
                context: format!(
                    "{} wiener paths supplied for {} stochastic sources",
                    wieners.len(),
                    noise_count
                ),
            });
        }
        let steps = wieners.first().map_or(0, WienerPath::steps);
        if steps == 0 || wieners.iter().any(|w| w.steps() != steps) {
            return Err(SimError::InvalidConfig {
                context: "wiener paths must be nonempty and equal length".into(),
            });
        }
        let dt = wieners[0].dt();
        let mut stats = EngineStats::new();
        let mut flops = FlopCounter::new();
        let dim = mats.mna.dim();
        let mut run_meter = self.meter.fork();
        run_meter
            .charge_bytes(8 * (steps as u64 + 1) * (1 + dim as u64))
            .map_err(|stop| {
                SimError::budget_exceeded(stop, format!("em realization of {steps} steps"))
            })?;
        let c_lu = SparseLu::factor(&mats.c_csr, &mut flops)?;
        let mut state = PathState::new(&mats);
        let mut columns: Vec<Vec<f64>> = (0..dim).map(|i| vec![state.x[i]]).collect();
        let mut times = vec![0.0];
        for k in 0..steps {
            run_meter.checkpoint().map_err(|stop| {
                SimError::budget_exceeded(stop, format!("em realization at step {k}"))
            })?;
            let t = k as f64 * dt;
            for (dw, w) in state.dws.iter_mut().zip(wieners.iter()) {
                *dw = w.increment(k);
            }
            self.em_step(&mats, &c_lu, &mut state, t, dt, &mut stats, &mut flops)?;
            times.push(t + dt);
            for (i, c) in columns.iter_mut().enumerate() {
                c.push(state.x[i]);
            }
        }
        stats.steps = steps;
        stats.flops += flops;
        stats.elapsed = t0.elapsed();
        Ok(TransientResult::new(
            times,
            mna_var_names(&mats.mna),
            columns,
            stats,
        ))
    }

    /// Simulates one chunk of consecutive paths (global indices
    /// `lo..lo + path_rngs.len()`), streaming every sample into chunk-local
    /// Welford accumulators (`welford[i * (steps+1) + k]`) and per-path
    /// running maxima. The first chunk (`lo == 0`) captures the first
    /// path's series (the Figure 10 "one realization").
    ///
    /// Paths advance in **lockstep**: at each time step every path's
    /// right-hand side is assembled (each with its own generator and
    /// state, so per-path sequences are untouched), then one batched
    /// multi-RHS solve against the shared `C` factorization advances them
    /// all — amortizing the factor traversal across the chunk. For every
    /// `(variable, step)` accumulator the paths still push in ascending
    /// path order, so the reduction is bit-identical to per-path stepping.
    ///
    /// With `variation` set the chunk instead factors its first path's
    /// capacitance matrix once, refactors one copy of that factorization
    /// per path (same ordering and pivot order, the path's own values) and
    /// solves each path against its own factors every step.
    fn simulate_chunk(
        &self,
        mats: &CircuitMatrices,
        c_lu: Option<&SparseLu>,
        steps: usize,
        path_rngs: &[Pcg64],
        lo: usize,
        variation: Option<&PathVariation>,
        meter: &BudgetMeter,
    ) -> Result<ChunkStats> {
        let record_sample = lo == 0;
        let dim = mats.mna.dim();
        let npaths = path_rngs.len();
        let sqrt_dt = self.opts.dt.sqrt();
        let mut state = PathState::new(mats);
        let mut stats = EngineStats::new();
        let mut flops = FlopCounter::new();

        // Per-path C factors: one pivoting factorization of the first
        // path's matrix fixes the structure, then each path refactors its
        // own copy with its own values.
        let path_lus = match variation {
            Some(var) => {
                let cap_mats = &var.cap_mats[lo..lo + npaths];
                let before = flops.total();
                let base = SparseLu::factor_ordered(
                    &cap_mats[0],
                    OrderingChoice::Natural,
                    PivotStrategy::default(),
                    &mut flops,
                )?;
                stats.full_factors += 1;
                stats.factor_flops += flops.total() - before;
                let before = flops.total();
                let mut lus = Vec::with_capacity(npaths);
                for c in cap_mats {
                    let mut lu = base.clone();
                    let ratio = lu.refactor_tolerant(c, &mut flops)?;
                    stats.min_recip_pivot = stats.min_recip_pivot.min(ratio);
                    lus.push(lu);
                }
                stats.refactors += npaths as u64;
                stats.refactor_flops += flops.total() - before;
                Some(lus)
            }
            None => None,
        };
        let mut welford = vec![RunningStats::new(); dim * (steps + 1)];
        let mut maxima: Vec<Vec<f64>> = vec![Vec::with_capacity(npaths); dim];
        let mut sample: Option<Vec<Vec<f64>>> = None;

        // Per-path evolution state; the assembly workspace and scratch
        // vectors in `state` are shared across paths (re-stamped per
        // path), the batched blocks are column-major `dim × npaths`.
        let mut rngs: Vec<Pcg64> = path_rngs.to_vec();
        let mut xs: Vec<Vec<f64>> = vec![vec![0.0; dim]; npaths];
        let mut max_v = vec![vec![f64::NEG_INFINITY; dim]; npaths];
        let mut rhs_block = vec![0.0f64; dim * npaths];
        let mut delta_block: Vec<f64> = Vec::new();
        let mut solve_work: Vec<f64> = Vec::new();

        for (p, (x, mv)) in xs.iter().zip(max_v.iter_mut()).enumerate() {
            for (i, m) in mv.iter_mut().enumerate() {
                let v = x[i];
                welford[i * (steps + 1)].push(v);
                *m = v;
            }
            if record_sample && p == 0 {
                sample = Some((0..dim).map(|i| vec![x[i]]).collect());
            }
        }
        for k in 0..steps {
            // Deterministic budget checkpoint: once per lockstep time step.
            // `try_par_map` keeps the smallest failing chunk index, so a
            // tripped budget reports the same chunk at every worker count.
            meter.checkpoint().map_err(|stop| {
                SimError::budget_exceeded(stop, format!("em paths {lo}.. at step {k}"))
            })?;
            let t = k as f64 * self.opts.dt;
            for (p, (x, rng)) in xs.iter().zip(rngs.iter_mut()).enumerate() {
                for dw in state.dws.iter_mut() {
                    *dw = sqrt_dt * rng.next_gaussian();
                }
                state.x.copy_from_slice(x);
                let g_scale = variation.map_or(1.0, |v| v.g_scale[lo + p]);
                self.assemble_rhs(
                    mats,
                    &mut state,
                    t,
                    self.opts.dt,
                    g_scale,
                    &mut stats,
                    &mut flops,
                )?;
                rhs_block[p * dim..(p + 1) * dim].copy_from_slice(&state.rhs);
            }
            // Nominal parameters: one factor traversal advances the whole
            // chunk. With spread every path solves against its own factors.
            match (&path_lus, c_lu) {
                (Some(lus), _) => {
                    delta_block.resize(dim * npaths, 0.0);
                    for (p, lu) in lus.iter().enumerate() {
                        let span = p * dim..(p + 1) * dim;
                        lu.solve_into(
                            &rhs_block[span.clone()],
                            &mut state.delta,
                            &mut solve_work,
                            &mut flops,
                        )?;
                        delta_block[span].copy_from_slice(&state.delta);
                    }
                }
                (None, Some(lu)) => lu.solve_many_into(
                    &rhs_block,
                    npaths,
                    &mut delta_block,
                    &mut solve_work,
                    &mut flops,
                )?,
                (None, None) => unreachable!("run() factors C when no per-path variation is set"),
            }
            stats.linear_solves += npaths as u64;
            for (p, (x, mv)) in xs.iter_mut().zip(max_v.iter_mut()).enumerate() {
                for (i, xi) in x.iter_mut().enumerate() {
                    *xi += delta_block[p * dim + i];
                    let v = *xi;
                    welford[i * (steps + 1) + k + 1].push(v);
                    if v > mv[i] {
                        mv[i] = v;
                    }
                }
                if p == 0 {
                    if let Some(cols) = sample.as_mut() {
                        for (i, c) in cols.iter_mut().enumerate() {
                            c.push(x[i]);
                        }
                    }
                }
            }
            flops.add((dim * npaths) as u64);
        }
        for mv in &max_v {
            for (i, m) in maxima.iter_mut().enumerate() {
                m.push(mv[i]);
            }
        }
        stats.flops += flops;
        Ok(ChunkStats {
            welford,
            maxima,
            sample,
            stats,
        })
    }

    /// Assembles one path's right-hand side
    /// `rhs = (b - g_scale·G(x)·x)·dt + B·dW` into `state.rhs` (`G`
    /// re-stamped at the path's current state; the increments already in
    /// `state.dws`). `g_scale` is the path's conductance spread factor;
    /// `1.0` (nominal) is bit-identical to the unscaled assembly. Shared
    /// by the serial stepper and the lockstep batched chunks.
    fn assemble_rhs(
        &self,
        mats: &CircuitMatrices,
        state: &mut PathState,
        t: f64,
        dt: f64,
        g_scale: f64,
        stats: &mut EngineStats,
        flops: &mut FlopCounter,
    ) -> Result<()> {
        let mna = &mats.mna;
        let dim = mna.dim();
        // Assemble G (linear + SWEC conductances at the current state).
        state.ws.begin();
        for (i, b) in mna.nonlinear_bindings().iter().enumerate() {
            let v = branch_voltage(&state.x, b.var_plus, b.var_minus);
            let geq = if self.opts.update_geq {
                stats.device_evals += 1;
                b.device.equivalent_conductance(v, flops) + self.opts.gmin
            } else {
                self.opts.gmin
            };
            state.ws.stamp_nonlinear(i, geq);
        }
        for (k, m) in mna.mosfet_bindings().iter().enumerate() {
            let vd = m.var_drain.map_or(0.0, |i| state.x[i]);
            let vg = m.var_gate.map_or(0.0, |i| state.x[i]);
            let vs = m.var_source.map_or(0.0, |i| state.x[i]);
            let geq = m.model.geq(vg - vs, vd - vs, flops) + self.opts.gmin;
            stats.device_evals += 1;
            state.ws.stamp_mosfet_cond(k, geq);
        }
        // rhs = (b - G x) dt + B dW.
        mna.stamp_rhs(t, &mut state.rhs);
        state
            .ws
            .matrix()
            .matvec_into(&state.x, &mut state.gx, flops)?;
        for i in 0..dim {
            // `1.0 * x == x` bitwise, so the nominal path is unchanged.
            state.rhs[i] = (state.rhs[i] - g_scale * state.gx[i]) * dt;
        }
        flops.fma(dim as u64);
        if g_scale != 1.0 {
            flops.mul(dim as u64);
        }
        for (nb, &dw) in mna.noise_bindings().iter().zip(state.dws.iter()) {
            for &(row, coeff) in &nb.rows {
                state.rhs[row] += coeff * dw;
                flops.fma(1);
            }
        }
        Ok(())
    }

    /// One EM step in place: `x += C^{-1}[(b - Gx)·dt + B·dW]`, with the
    /// increments already in `state.dws`. Assembly scatter-updates the
    /// workspace pattern and every vector lives in `state` — zero heap
    /// allocations per step.
    fn em_step(
        &self,
        mats: &CircuitMatrices,
        c_lu: &SparseLu,
        state: &mut PathState,
        t: f64,
        dt: f64,
        stats: &mut EngineStats,
        flops: &mut FlopCounter,
    ) -> Result<()> {
        let dim = mats.mna.dim();
        self.assemble_rhs(mats, state, t, dt, 1.0, stats, flops)?;
        // x += C^{-1} rhs.
        c_lu.solve_into(&state.rhs, &mut state.delta, &mut state.solve_work, flops)?;
        stats.linear_solves += 1;
        for i in 0..dim {
            state.x[i] += state.delta[i];
        }
        flops.add(dim as u64);
        Ok(())
    }
}

/// Per-path parameter realizations for [`EmOptions::param_spread`]: the
/// jittered capacitance matrix and conductance scale of every path, drawn
/// in path order from a dedicated seed-derived stream (independent of the
/// noise generators, so enabling spread never shifts the Wiener paths).
#[derive(Debug)]
struct PathVariation {
    /// One capacitance matrix per path, identical sparsity pattern to the
    /// nominal `C` (values jittered, structure untouched) — what lets each
    /// path refactor a copy of its chunk's first factorization.
    cap_mats: Vec<CsrMatrix>,
    /// Per-path conductance scale applied to `G·x` during RHS assembly.
    g_scale: Vec<f64>,
}

impl PathVariation {
    fn build(mats: &CircuitMatrices, paths: usize, spread: f64, seed: u64) -> Self {
        let mut rng = Pcg64::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut cap_mats = Vec::with_capacity(paths);
        let mut g_scale = Vec::with_capacity(paths);
        for _ in 0..paths {
            let mut c = mats.c_csr.clone();
            for v in c.values_mut() {
                *v *= 1.0 + spread * rng.uniform(-1.0, 1.0);
            }
            cap_mats.push(c);
            g_scale.push(1.0 + spread * rng.uniform(-1.0, 1.0));
        }
        PathVariation { cap_mats, g_scale }
    }
}

/// Per-worker integration state: the assembly workspace plus every vector
/// the stepper touches, so a path advances with zero allocation per step.
#[derive(Debug)]
struct PathState {
    ws: AssemblyWorkspace,
    x: Vec<f64>,
    rhs: Vec<f64>,
    gx: Vec<f64>,
    delta: Vec<f64>,
    solve_work: Vec<f64>,
    dws: Vec<f64>,
}

impl PathState {
    fn new(mats: &CircuitMatrices) -> Self {
        let dim = mats.mna.dim();
        PathState {
            ws: AssemblyWorkspace::new(
                mats,
                false,
                false,
                nanosim_numeric::sparse::OrderingChoice::default(),
            ),
            x: vec![0.0; dim],
            rhs: vec![0.0; dim],
            gx: vec![0.0; dim],
            delta: Vec::with_capacity(dim),
            solve_work: Vec::with_capacity(dim),
            dws: vec![0.0; mats.mna.noise_bindings().len()],
        }
    }
}

/// One chunk's contribution to the ensemble reduction.
#[derive(Debug)]
struct ChunkStats {
    /// Flattened `dim x (steps + 1)` Welford accumulators.
    welford: Vec<RunningStats>,
    /// Per-variable running maxima, one entry per path in the chunk.
    maxima: Vec<Vec<f64>>,
    /// The first path's series (only from the first chunk).
    sample: Option<Vec<Vec<f64>>>,
    /// Work accounting of the chunk.
    stats: EngineStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanosim_devices::sources::SourceWaveform;
    use nanosim_sde::ou::OrnsteinUhlenbeck;

    /// Noisy RC node: g = 1 mS, c = 1 pF, mean drive 0, noise intensity
    /// sigma_i.
    fn noisy_rc(sigma_i: f64, i_dc: f64) -> Circuit {
        let mut ckt = Circuit::new();
        let n = ckt.node("v");
        ckt.add_current_source(
            "In",
            Circuit::GROUND,
            n,
            SourceWaveform::white_noise(i_dc, sigma_i).unwrap(),
        )
        .unwrap();
        ckt.add_resistor("R1", n, Circuit::GROUND, 1e3).unwrap();
        ckt.add_capacitor("C1", n, Circuit::GROUND, 1e-12).unwrap();
        ckt
    }

    fn ou_equivalent(sigma_i: f64, i_dc: f64) -> OrnsteinUhlenbeck {
        // theta = G/C, mu = i_dc/G, sigma = sigma_i/C.
        OrnsteinUhlenbeck::from_rc_node(1e-3, 1e-12, i_dc, sigma_i)
    }

    #[test]
    fn rejects_unsupported_circuits() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", a, Circuit::GROUND, 1.0).unwrap();
        ckt.add_capacitor("C1", a, Circuit::GROUND, 1e-12).unwrap();
        let e = EmEngine::new(EmOptions::default());
        assert!(matches!(
            e.run(&ckt, 1e-9),
            Err(SimError::UnsupportedCircuit { .. })
        ));
        // Node without capacitance.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_current_source("I1", Circuit::GROUND, a, SourceWaveform::dc(1e-3))
            .unwrap();
        ckt.add_resistor("R1", a, Circuit::GROUND, 1.0).unwrap();
        assert!(matches!(
            e.run(&ckt, 1e-9),
            Err(SimError::UnsupportedCircuit { .. })
        ));
    }

    #[test]
    fn invalid_options_rejected() {
        let ckt = noisy_rc(1e-9, 0.0);
        let e = EmEngine::new(EmOptions {
            dt: 0.0,
            ..EmOptions::default()
        });
        assert!(e.run(&ckt, 1e-9).is_err());
        let e = EmEngine::new(EmOptions {
            paths: 0,
            ..EmOptions::default()
        });
        assert!(e.run(&ckt, 1e-9).is_err());
        let e = EmEngine::new(EmOptions {
            param_spread: 1.0,
            ..EmOptions::default()
        });
        assert!(e.run(&ckt, 1e-9).is_err());
        let e = EmEngine::new(EmOptions {
            param_spread: -0.1,
            ..EmOptions::default()
        });
        assert!(e.run(&ckt, 1e-9).is_err());
    }

    #[test]
    fn param_spread_batches_factors_and_stays_thread_deterministic() {
        // 21 paths over PATH_CHUNK=8 -> 3 chunks (8 + 8 + 5 paths). Each
        // chunk factors its first path's C once and refactors one copy per
        // path. The chunk decomposition depends only on path indices, so
        // the spread ensemble is bit-identical at every worker count,
        // exactly like the nominal path. A coupling cap makes C
        // non-diagonal so the elimination does real work.
        let mut ckt = noisy_rc(1e-9, 1e-3);
        let n = ckt.node("v");
        let n2 = ckt.node("v2");
        ckt.add_capacitor("Cc", n, n2, 2e-13).unwrap();
        ckt.add_capacitor("C2", n2, Circuit::GROUND, 1e-12).unwrap();
        ckt.add_resistor("R2", n2, Circuit::GROUND, 1e3).unwrap();
        let opts = EmOptions {
            dt: 5e-12,
            paths: 21,
            seed: 77,
            threads: 1,
            param_spread: 0.05,
            ..EmOptions::default()
        };
        let serial = EmEngine::new(opts.clone()).run(&ckt, 1e-10).unwrap();
        assert_eq!(serial.stats.full_factors, 3, "one factor per chunk");
        assert_eq!(serial.stats.refactors, 21, "one refactor per path");
        assert_eq!(serial.stats.batched_factors, 0);
        assert!(serial.stats.factor_flops > 0);
        assert!(serial.stats.refactor_flops > 0);
        assert_eq!(serial.stats.linear_solves, 21 * 20);
        // Spread jitters C and scales G per path: with drive the paths now
        // disagree even before noise does.
        let sd = serial.std_waveform("v").unwrap();
        assert!(sd.final_value() > 0.0);
        // Per-node final mean and peak statistics recorded from the
        // interleaved batch factorization this path replaced, checked to
        // the 1e-12-of-scale bound that factorization was held to.
        let reference = [
            (
                "v",
                0.08248021245715348,
                0.08250463952104305,
                0.09045151729640272,
            ),
            (
                "v2",
                0.013196410155559583,
                0.013202960078100264,
                0.014764010060796294,
            ),
        ];
        let close = |got: f64, want: f64| (got - want).abs() <= 1e-12 * want.abs().max(1.0);
        for (name, mean, mean_peak, p95_peak) in reference {
            let got_mean = serial.mean_waveform(name).unwrap().final_value();
            let peak = serial.peak_summary(name).unwrap();
            assert!(close(got_mean, mean), "{name} mean {got_mean} vs {mean}");
            assert!(
                close(peak.mean_peak, mean_peak),
                "{name} mean peak {} vs {mean_peak}",
                peak.mean_peak
            );
            assert!(
                close(peak.p95_peak, p95_peak),
                "{name} p95 peak {} vs {p95_peak}",
                peak.p95_peak
            );
        }
        for threads in [2, 3, 4, 8] {
            let par = EmEngine::new(EmOptions {
                threads,
                ..opts.clone()
            })
            .run(&ckt, 1e-10)
            .unwrap();
            assert_eq!(par.stats.full_factors, 3);
            assert_eq!(par.stats.refactors, 21);
            for name in par.names() {
                let a = serial.mean_waveform(name).unwrap();
                let b = par.mean_waveform(name).unwrap();
                assert_eq!(a.values(), b.values(), "threads={threads} {name}");
                let a = serial.std_waveform(name).unwrap();
                let b = par.std_waveform(name).unwrap();
                assert_eq!(a.values(), b.values(), "threads={threads} {name}");
                assert_eq!(
                    serial.peak_summary(name),
                    par.peak_summary(name),
                    "threads={threads} {name}"
                );
            }
        }
    }

    #[test]
    fn zero_spread_is_bitwise_nominal() {
        // `param_spread: 0.0` must take the shared-factor path and produce
        // exactly the stats/values of a build without the feature.
        let ckt = noisy_rc(2e-9, 0.0);
        let opts = EmOptions {
            dt: 5e-12,
            paths: 9,
            seed: 5,
            ..EmOptions::default()
        };
        let r = EmEngine::new(opts).run(&ckt, 1e-10).unwrap();
        assert_eq!(r.stats.batched_factors, 0);
        assert_eq!(r.stats.full_factors, 0);
    }

    #[test]
    fn ensemble_statistics_match_ou_theory() {
        // Var[X(t)] -> sigma^2/(2 theta); tau = 1 ns, run 3 tau.
        let sigma_i = 2e-9; // A sqrt(s)
        let ckt = noisy_rc(sigma_i, 0.0);
        let engine = EmEngine::new(EmOptions {
            dt: 5e-12,
            paths: 400,
            seed: 42,
            ..EmOptions::default()
        });
        let r = engine.run(&ckt, 3e-9).unwrap();
        let ou = ou_equivalent(sigma_i, 0.0);
        let sd = r.std_waveform("v").unwrap();
        let expected_sd = ou.variance(3e-9).sqrt();
        let got = sd.final_value();
        assert!(
            (got - expected_sd).abs() < 0.15 * expected_sd,
            "sd {got} vs {expected_sd}"
        );
        // Mean stays near zero.
        let mean = r.mean_waveform("v").unwrap();
        assert!(mean.final_value().abs() < 0.2 * expected_sd);
        assert_eq!(r.paths(), 400);
    }

    #[test]
    fn deterministic_drive_reaches_dc_level() {
        // i_dc = 1 mA into 1 kOhm -> 1 V, no noise.
        let ckt = noisy_rc(0.0, 1e-3);
        let engine = EmEngine::new(EmOptions {
            dt: 5e-12,
            paths: 3,
            ..EmOptions::default()
        });
        let r = engine.run(&ckt, 5e-9).unwrap();
        let mean = r.mean_waveform("v").unwrap();
        assert!(
            (mean.final_value() - 1.0).abs() < 0.02,
            "{}",
            mean.final_value()
        );
        // All paths identical without noise.
        let sd = r.std_waveform("v").unwrap();
        assert!(sd.final_value() < 1e-12);
    }

    #[test]
    fn em_path_matches_ou_em_on_same_wiener_path() {
        // Integrating the circuit along an explicit Wiener path must equal
        // the scalar OU EM integration of the same path (the engine *is*
        // that equation in matrix form).
        let sigma_i = 1e-9;
        let ckt = noisy_rc(sigma_i, 0.0);
        let engine = EmEngine::new(EmOptions {
            dt: 1e-12,
            ..EmOptions::default()
        });
        let mut rng = Pcg64::seed_from_u64(7);
        let path = WienerPath::generate(1e-9, 1000, &mut rng);
        let r = engine.run_with_paths(&ckt, &[path.clone()]).unwrap();
        let ou = ou_equivalent(sigma_i, 0.0);
        let scalar = ou.em_path(0.0, &path);
        let circuit_v = r.column("v").unwrap();
        for (a, b) in circuit_v.iter().zip(scalar.iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn run_with_paths_validates_shape() {
        let ckt = noisy_rc(1e-9, 0.0);
        let engine = EmEngine::new(EmOptions::default());
        assert!(engine.run_with_paths(&ckt, &[]).is_err());
        let mut rng = Pcg64::seed_from_u64(1);
        let p1 = WienerPath::generate(1e-9, 100, &mut rng);
        let p2 = WienerPath::generate(1e-9, 50, &mut rng);
        assert!(engine.run_with_paths(&ckt, &[p1.clone(), p2]).is_err());
        assert!(engine.run_with_paths(&ckt, &[p1]).is_ok());
    }

    #[test]
    fn peak_summary_and_exceedance() {
        let ckt = noisy_rc(2e-9, 0.0);
        let engine = EmEngine::new(EmOptions {
            dt: 5e-12,
            paths: 100,
            seed: 9,
            ..EmOptions::default()
        });
        let r = engine.run(&ckt, 2e-9).unwrap();
        let peak = r.peak_summary("v").unwrap();
        assert!(peak.mean_peak > 0.0, "noise pushes the max above 0");
        assert!(peak.p95_peak >= peak.mean_peak);
        assert!(peak.worst_peak >= peak.p95_peak);
        let p_low = r.exceedance("v", 0.0).unwrap();
        assert!(p_low > 0.9, "almost every path exceeds 0 at some point");
        let p_high = r.exceedance("v", peak.worst_peak * 1.01).unwrap();
        assert_eq!(p_high, 0.0);
        assert!(r.peak_summary("zz").is_none());
    }

    #[test]
    fn nonlinear_devices_enter_through_swec_geq() {
        // A noisy node loaded by an RTD: "Since G is time variant, Equation
        // (13) also includes cases with the nonlinear nanodevices" (§4.1).
        // Drive the node near 1 V where the RTD conducts strongly; the
        // mean must settle where I_rtd(v) + v/R = i_dc.
        use nanosim_devices::rtd::Rtd;
        use nanosim_devices::traits::NonlinearTwoTerminal as _;
        let mut ckt = Circuit::new();
        let n = ckt.node("v");
        ckt.add_current_source(
            "In",
            Circuit::GROUND,
            n,
            SourceWaveform::white_noise(8e-3, 1e-9).unwrap(),
        )
        .unwrap();
        ckt.add_rtd("X1", n, Circuit::GROUND, Rtd::date2005())
            .unwrap();
        ckt.add_resistor("R1", n, Circuit::GROUND, 1e3).unwrap();
        ckt.add_capacitor("C1", n, Circuit::GROUND, 1e-12).unwrap();
        let engine = EmEngine::new(EmOptions {
            dt: 2e-12,
            paths: 60,
            seed: 11,
            ..EmOptions::default()
        });
        let r = engine.run(&ckt, 3e-9).unwrap();
        let v_end = r.mean_waveform("v").unwrap().final_value();
        // Self-consistency of the mean operating point.
        let mut f = nanosim_numeric::FlopCounter::new();
        let residual = Rtd::date2005().current(v_end, &mut f) + v_end / 1e3 - 8e-3;
        assert!(
            residual.abs() < 8e-4,
            "operating point residual {residual} at v = {v_end}"
        );
        // Frozen-Geq mode solves the same circuit but linearized at 0 —
        // a different (higher) voltage, demonstrating the update matters.
        let frozen = EmEngine::new(EmOptions {
            dt: 2e-12,
            paths: 20,
            seed: 11,
            update_geq: false,
            ..EmOptions::default()
        });
        let rf = frozen.run(&ckt, 3e-9).unwrap();
        let v_frozen = rf.mean_waveform("v").unwrap().final_value();
        assert!(
            (v_frozen - v_end).abs() > 0.05,
            "frozen {v_frozen} vs updated {v_end} should differ"
        );
    }

    #[test]
    fn sample_path_is_recorded() {
        let ckt = noisy_rc(1e-9, 0.0);
        let engine = EmEngine::new(EmOptions {
            dt: 1e-11,
            paths: 5,
            ..EmOptions::default()
        });
        let r = engine.run(&ckt, 1e-9).unwrap();
        assert_eq!(r.sample_path().points(), r.times().len());
        assert_eq!(r.names(), r.sample_path().names());
    }
}
