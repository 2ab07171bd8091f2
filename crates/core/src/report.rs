//! Engine statistics — the accounting behind the paper's Table I.

use nanosim_numeric::solve::LuStats;
use nanosim_numeric::FlopCounter;
use std::fmt;
use std::time::Duration;

/// Work performed by one engine run.
///
/// The floating point counts are gathered with the same rules in every
/// engine (solver FLOPs via `nanosim-numeric`, model-evaluation FLOPs via
/// the device implementations), so SWEC-vs-baseline ratios are meaningful.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineStats {
    /// Accepted time points / sweep points.
    pub steps: usize,
    /// Rejected (redone) steps.
    pub rejected_steps: usize,
    /// Newton (or fixed-point) iterations summed over all points.
    pub iterations: u64,
    /// Sparse/dense LU factorizations + solves performed.
    pub linear_solves: u64,
    /// Full (ordering + symbolic + numeric) sparse LU factorizations.
    pub full_factors: u64,
    /// Values-only refactorizations that reused a cached symbolic analysis.
    pub refactors: u64,
    /// Floating point operations spent in full factorizations (a subset of
    /// `flops`).
    pub factor_flops: u64,
    /// Floating point operations spent in refactorizations (a subset of
    /// `flops`).
    pub refactor_flops: u64,
    /// Floating point operations spent in triangular solves (a subset of
    /// `flops`) — the per-solve attribution behind the solve benches.
    pub solve_flops: u64,
    /// Iterative-refinement steps taken on degraded-pivot refactorizations
    /// (each one kept a cached analysis alive past a pivot decay instead
    /// of paying a full re-pivoting factorization).
    pub refinement_steps: u64,
    /// Stored nonzeros of `L + U` in the run's sparse-LU analysis (the
    /// largest seen when several analyses were involved; 0 when the run
    /// never factored).
    pub nnz_lu: u64,
    /// Fill ratio `nnz(L + U) / nnz(A)` of that analysis (1.0 = no
    /// fill-in; 0 when the run never factored).
    pub fill_ratio: f64,
    /// Multi-column supernodes of that analysis's blocked kernel plan.
    pub supernodes: u64,
    /// Factor columns covered by those supernodes.
    pub supernode_cols: u64,
    /// Always 0: every solve runs in f64, so no run performs an f32 panel
    /// solve. The field stays only because the benchmark harness reads it
    /// (`benchmark/src/run.rs:205-206`) and `benchmark/` may change only
    /// together with the benchmark definition; remove both in that change.
    pub f32_panel_solves: u64,
    /// Always 0: EM parameter spread refactors one factorization per path
    /// instead of batching factors. The field stays only because the
    /// benchmark harness reads it (`benchmark/src/run.rs:205-206`) and
    /// `benchmark/` may change only together with the benchmark
    /// definition; remove both in that change.
    pub batched_factors: u64,
    /// Nonlinear device model evaluations.
    pub device_evals: u64,
    /// Convergence rescues: points/steps that initially failed and were
    /// recovered by the rescue ladder (0 on a healthy run — the golden
    /// decks gate on this in CI).
    pub rescues: u64,
    /// Total rescue-ladder rungs climbed across all rescues (a rescue that
    /// needed damped-retry *and* gmin-stepping counts 2).
    pub rescue_rungs: u64,
    /// Smallest reciprocal pivot-growth ratio observed by the run's sparse
    /// LU factorizations (`+inf` when the run never factored). Values near
    /// 1.0 are well-conditioned pivot sequences; below `1e-6` the solver
    /// switched to refinement; below `1e-12` it declared collapse.
    pub min_recip_pivot: f64,
    /// Warning-severity diagnostics the session's preflight static
    /// analyzer reported for the circuit (0 with preflight off or a clean
    /// deck). A session property stamped onto every run, not per-run work.
    pub preflight_warnings: u64,
    /// Floating point operations (solves + model evaluations).
    pub flops: FlopCounter,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl Default for EngineStats {
    fn default() -> Self {
        EngineStats {
            steps: 0,
            rejected_steps: 0,
            iterations: 0,
            linear_solves: 0,
            full_factors: 0,
            refactors: 0,
            factor_flops: 0,
            refactor_flops: 0,
            solve_flops: 0,
            refinement_steps: 0,
            nnz_lu: 0,
            fill_ratio: 0.0,
            supernodes: 0,
            supernode_cols: 0,
            f32_panel_solves: 0,
            batched_factors: 0,
            device_evals: 0,
            rescues: 0,
            rescue_rungs: 0,
            min_recip_pivot: f64::INFINITY,
            preflight_warnings: 0,
            flops: FlopCounter::new(),
            elapsed: Duration::ZERO,
        }
    }
}

/// Summary verdict of a run's numerical health, computed from the
/// [`EngineStats`] counters by [`EngineStats::health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthVerdict {
    /// No rescues, no refinement, pivot ratios comfortably above the
    /// degradation threshold.
    Healthy,
    /// The run completed but leaned on the numerical safety nets: pivot
    /// decay forced iterative refinement, or the reciprocal pivot ratio
    /// dipped below `1e-6`.
    Degraded,
    /// At least one point failed outright and was recovered by the
    /// convergence-rescue ladder.
    Rescued,
}

impl fmt::Display for HealthVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HealthVerdict::Healthy => "healthy",
            HealthVerdict::Degraded => "degraded",
            HealthVerdict::Rescued => "rescued",
        })
    }
}

impl EngineStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        EngineStats::default()
    }

    /// Average nonlinear iterations per accepted point (0 when no points).
    pub fn iterations_per_step(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.iterations as f64 / self.steps as f64
        }
    }

    /// Classifies the run's numerical health from the recorded counters.
    ///
    /// `Rescued` dominates `Degraded` dominates `Healthy`: a run that
    /// needed the ladder is flagged even when its final factorizations
    /// were pristine.
    pub fn health(&self) -> HealthVerdict {
        if self.rescues > 0 {
            HealthVerdict::Rescued
        } else if self.refinement_steps > 0 || self.min_recip_pivot < 1e-6 {
            HealthVerdict::Degraded
        } else {
            HealthVerdict::Healthy
        }
    }

    /// Merges another run's statistics into this one.
    pub fn merge(&mut self, other: &EngineStats) {
        self.steps += other.steps;
        self.rejected_steps += other.rejected_steps;
        self.iterations += other.iterations;
        self.linear_solves += other.linear_solves;
        self.full_factors += other.full_factors;
        self.refactors += other.refactors;
        self.factor_flops += other.factor_flops;
        self.refactor_flops += other.refactor_flops;
        self.solve_flops += other.solve_flops;
        self.refinement_steps += other.refinement_steps;
        // Fill/supernode diagnostics describe an analysis, not a quantity
        // of work: adopt the largest analysis seen, keeping its
        // (nnz_lu, fill_ratio, supernodes) tuple coherent (never mixing
        // one analysis's nnz with another's ratio).
        if other.nnz_lu > self.nnz_lu
            || (other.nnz_lu == self.nnz_lu && other.fill_ratio > self.fill_ratio)
        {
            self.nnz_lu = other.nnz_lu;
            self.fill_ratio = other.fill_ratio;
            self.supernodes = other.supernodes;
            self.supernode_cols = other.supernode_cols;
        }
        self.device_evals += other.device_evals;
        self.rescues += other.rescues;
        self.rescue_rungs += other.rescue_rungs;
        // Health minima are not quantities of work: merging keeps the worst
        // (smallest) ratio seen by either run.
        self.min_recip_pivot = self.min_recip_pivot.min(other.min_recip_pivot);
        // Preflight warnings describe the session's circuit, not work done
        // by a run: shards of the same session all carry the same count,
        // so max-folding (not summing) keeps the merged value truthful.
        self.preflight_warnings = self.preflight_warnings.max(other.preflight_warnings);
        self.flops += other.flops;
        self.elapsed += other.elapsed;
    }

    /// Delta-accounts a solver's cumulative [`LuStats`] into this run:
    /// counts and flop splits accumulate as `after - before` (workspaces
    /// are cached across analyses, so absolute counts would double-bill),
    /// while the fill diagnostics adopt the solver's current analysis.
    pub fn absorb_lu(&mut self, before: &LuStats, after: &LuStats) {
        self.full_factors += after.full_factors - before.full_factors;
        self.refactors += after.refactors - before.refactors;
        self.factor_flops += after.factor_flops - before.factor_flops;
        self.refactor_flops += after.refactor_flops - before.refactor_flops;
        self.solve_flops += after.solve_flops - before.solve_flops;
        self.refinement_steps += after.refinement_steps - before.refinement_steps;
        if after.nnz_lu > self.nnz_lu
            || (after.nnz_lu == self.nnz_lu && after.fill_ratio() > self.fill_ratio)
        {
            self.nnz_lu = after.nnz_lu;
            self.fill_ratio = after.fill_ratio();
            self.supernodes = after.supernodes;
            self.supernode_cols = after.supernode_cols;
        }
        // `after.min_recip_pivot` is the solver's lifetime minimum, which
        // already includes everything `before` saw — min-folding it is both
        // correct and idempotent across repeated absorptions.
        self.min_recip_pivot = self.min_recip_pivot.min(after.min_recip_pivot);
    }
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The factor/refactor/solve flop split and the refinement count
        // print unconditionally (zeros included) so bench report bins show
        // one consistent table whatever the run did.
        write!(
            f,
            "{} steps ({} rejected), {} iterations, {} solves ({} factor / {} refactor, \
             {} refinement), lu flops {} factor / {} refactor / {} solve, \
             lu nnz {} (fill {:.2}x, {} supernodes over {} cols), \
             {} device evals, \
             {} rescues ({} rungs), min pivot ratio {:.1e}, health {}, \
             {} preflight warnings, {}, {:.3} ms",
            self.steps,
            self.rejected_steps,
            self.iterations,
            self.linear_solves,
            self.full_factors,
            self.refactors,
            self.refinement_steps,
            self.factor_flops,
            self.refactor_flops,
            self.solve_flops,
            self.nnz_lu,
            self.fill_ratio,
            self.supernodes,
            self.supernode_cols,
            self.device_evals,
            self.rescues,
            self.rescue_rungs,
            self.min_recip_pivot,
            self.health(),
            self.preflight_warnings,
            self.flops,
            self.elapsed.as_secs_f64() * 1e3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_zero() {
        let s = EngineStats::new();
        assert_eq!(s.steps, 0);
        assert_eq!(s.flops.total(), 0);
        assert_eq!(s.iterations_per_step(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = EngineStats::new();
        a.steps = 10;
        a.iterations = 30;
        a.flops.add(100);
        let mut b = EngineStats::new();
        b.steps = 5;
        b.iterations = 10;
        b.rejected_steps = 2;
        b.flops.mul(50);
        a.merge(&b);
        assert_eq!(a.steps, 15);
        assert_eq!(a.iterations, 40);
        assert_eq!(a.rejected_steps, 2);
        assert_eq!(a.flops.total(), 150);
    }

    #[test]
    fn iterations_per_step_average() {
        let mut s = EngineStats::new();
        s.steps = 4;
        s.iterations = 10;
        assert!((s.iterations_per_step() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn absorb_lu_is_delta_based() {
        let mut s = EngineStats::new();
        let before = LuStats {
            full_factors: 2,
            refactors: 10,
            factor_flops: 100,
            refactor_flops: 50,
            solve_flops: 7,
            refinement_steps: 0,
            nnz_lu: 40,
            nnz_a: 20,
            supernodes: 3,
            supernode_cols: 9,
            ..LuStats::default()
        };
        let after = LuStats {
            full_factors: 3,
            refactors: 25,
            factor_flops: 180,
            refactor_flops: 90,
            solve_flops: 27,
            refinement_steps: 2,
            nnz_lu: 40,
            nnz_a: 20,
            supernodes: 3,
            supernode_cols: 9,
            min_recip_pivot: 1e-3,
        };
        s.absorb_lu(&before, &after);
        assert_eq!(s.full_factors, 1);
        assert_eq!(s.refactors, 15);
        assert_eq!(s.factor_flops, 80);
        assert_eq!(s.refactor_flops, 40);
        assert_eq!(s.solve_flops, 20);
        assert_eq!(s.refinement_steps, 2);
        assert_eq!(s.supernodes, 3);
        assert_eq!(s.supernode_cols, 9);
        assert_eq!(s.nnz_lu, 40);
        assert!((s.fill_ratio - 2.0).abs() < 1e-12);
        assert_eq!(s.min_recip_pivot, 1e-3);
        // Merging keeps the largest analysis's coherent (nnz, fill) pair —
        // never the small analysis's higher ratio paired with the large
        // analysis's nnz — and sums the work.
        let mut other = EngineStats::new();
        other.nnz_lu = 10;
        other.fill_ratio = 3.0;
        other.refactor_flops = 1;
        s.merge(&other);
        assert_eq!(s.nnz_lu, 40);
        assert!((s.fill_ratio - 2.0).abs() < 1e-12);
        assert_eq!(s.refactor_flops, 41);
        // A larger analysis replaces the pair wholesale.
        let mut bigger = EngineStats::new();
        bigger.nnz_lu = 100;
        bigger.fill_ratio = 1.5;
        s.merge(&bigger);
        assert_eq!(s.nnz_lu, 100);
        assert!((s.fill_ratio - 1.5).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_key_numbers() {
        let mut s = EngineStats::new();
        s.steps = 7;
        s.device_evals = 3;
        let out = s.to_string();
        assert!(out.contains("7 steps"));
        assert!(out.contains("3 device evals"));
        assert!(out.contains("0 rescues"));
        assert!(!out.contains("f32"));
        assert!(!out.contains("batched"));
        assert!(out.contains("health healthy"));
        assert!(out.contains("0 preflight warnings"));
    }

    #[test]
    fn merge_max_folds_preflight_warnings() {
        let mut a = EngineStats::new();
        a.preflight_warnings = 2;
        let mut b = EngineStats::new();
        b.preflight_warnings = 2;
        a.merge(&b);
        // Same-session shards don't double-count the shared report.
        assert_eq!(a.preflight_warnings, 2);
        a.merge(&EngineStats::new());
        assert_eq!(a.preflight_warnings, 2);
    }

    #[test]
    fn health_verdict_ladder() {
        let mut s = EngineStats::new();
        assert_eq!(s.health(), HealthVerdict::Healthy);
        assert_eq!(s.min_recip_pivot, f64::INFINITY);
        s.min_recip_pivot = 0.5;
        assert_eq!(s.health(), HealthVerdict::Healthy);
        s.refinement_steps = 1;
        assert_eq!(s.health(), HealthVerdict::Degraded);
        s.refinement_steps = 0;
        s.min_recip_pivot = 1e-9;
        assert_eq!(s.health(), HealthVerdict::Degraded);
        s.rescues = 1;
        assert_eq!(s.health(), HealthVerdict::Rescued);
    }

    #[test]
    fn merge_folds_health_counters() {
        let mut a = EngineStats::new();
        a.min_recip_pivot = 0.3;
        let mut b = EngineStats::new();
        b.rescues = 2;
        b.rescue_rungs = 5;
        b.min_recip_pivot = 1e-8;
        a.merge(&b);
        assert_eq!(a.rescues, 2);
        assert_eq!(a.rescue_rungs, 5);
        assert_eq!(a.min_recip_pivot, 1e-8);
        // Merging a run that never factored leaves the minimum alone.
        a.merge(&EngineStats::new());
        assert_eq!(a.min_recip_pivot, 1e-8);
    }
}
