//! ACES-like piecewise-linear baseline engine (paper reference \[2\],
//! Le–Pileggi–Devgan, ICCAD 2003).
//!
//! The device I-V curve is tabulated into linear segments; each analysis
//! point stamps the **differential segment conductance** (the segment's
//! slope) plus a companion current source, non-iteratively. The paper's
//! Figure 3 contrasts exactly this linearization with SWEC: in an NDR
//! region the segment slope — and therefore the stamped conductance — is
//! *negative*, while SWEC's `I/V` secant stays positive. The engine keeps
//! the step small enough that the trajectory stays within one segment per
//! step (the "adaptive time step control mechanism together with the
//! current stepping approach" of \[2\]).

use crate::assemble::{
    branch_voltage, mna_var_names, override_source_rhs, require_sweepable_source,
    sweep_point_count, CircuitMatrices,
};
use crate::report::EngineStats;
use crate::waveform::{DcSweepResult, TransientResult};
use crate::{Result, SimError};
use nanosim_circuit::element::SharedDevice;
use nanosim_circuit::{Circuit, MnaSystem};
use nanosim_numeric::interp::PwlFunction;
use nanosim_numeric::sparse::SparseLu;
use nanosim_numeric::FlopCounter;
use std::time::Instant;

/// A piecewise-linear tabulation of a device I-V curve.
///
/// # Example
/// ```
/// use nanosim_circuit::element::SharedDevice;
/// use nanosim_core::pwl::PwlDeviceTable;
/// use nanosim_devices::rtd::Rtd;
/// use std::sync::Arc;
///
/// let rtd = Rtd::date2005();
/// let peak = rtd.peak().unwrap();
/// let device: SharedDevice = Arc::new(rtd);
/// let table = PwlDeviceTable::tabulate(&device, -1.0, 6.0, 200);
/// // Right after the peak the PWL segment slope is negative (Figure 3(a)).
/// assert!(table.segment_conductance(peak.voltage + 0.3) < 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct PwlDeviceTable {
    table: PwlFunction,
}

impl PwlDeviceTable {
    /// Samples `device` on `[v_min, v_max]` into `segments + 1` breakpoints.
    ///
    /// # Panics
    /// Panics if `segments < 1` or `v_min >= v_max`.
    pub fn tabulate(device: &SharedDevice, v_min: f64, v_max: f64, segments: usize) -> Self {
        assert!(segments >= 1, "need at least one segment");
        assert!(v_min < v_max, "invalid voltage range");
        let flops = std::cell::RefCell::new(FlopCounter::new());
        let table = PwlFunction::from_samples(v_min, v_max, segments + 1, |v| {
            device.current(v, &mut flops.borrow_mut())
        })
        .expect("validated sampling parameters");
        PwlDeviceTable { table }
    }

    /// Interpolated current at `v` (clamped outside the tabulated range).
    pub fn current(&self, v: f64, flops: &mut FlopCounter) -> f64 {
        flops.mul(2);
        flops.add(3);
        flops.div(1);
        self.table.eval(v)
    }

    /// Differential conductance of the segment containing `v` — negative in
    /// an NDR region (the Figure 3(a) linearization).
    pub fn segment_conductance(&self, v: f64) -> f64 {
        self.table.slope(v)
    }

    /// Companion model of the segment at `v`: `(g_seg, i_eq)` such that the
    /// branch is `i = g_seg·v + i_eq` within the segment.
    pub fn companion(&self, v: f64, flops: &mut FlopCounter) -> (f64, f64) {
        let g = self.segment_conductance(v);
        let i = self.current(v, flops);
        flops.fma(1);
        (g, i - g * v)
    }

    /// Width of the tabulation segments (V).
    pub fn segment_width(&self) -> f64 {
        let pts = self.table.points();
        (pts[pts.len() - 1].0 - pts[0].0) / (pts.len() - 1) as f64
    }

    /// Tabulated voltage range.
    pub fn range(&self) -> (f64, f64) {
        (self.table.x_min(), self.table.x_max())
    }
}

/// Options of the PWL engine.
#[derive(Debug, Clone, PartialEq)]
pub struct PwlOptions {
    /// Segments per device table.
    pub segments: usize,
    /// Tabulation range lower bound (V).
    pub v_min: f64,
    /// Tabulation range upper bound (V).
    pub v_max: f64,
    /// Parallel conductance keeping matrices nonsingular.
    pub gmin: f64,
    /// Minimum transient step before giving up.
    pub h_min: f64,
}

impl Default for PwlOptions {
    fn default() -> Self {
        PwlOptions {
            segments: 200,
            v_min: -8.0,
            v_max: 8.0,
            gmin: 1e-12,
            h_min: 1e-18,
        }
    }
}

/// The ACES-like piecewise-linear engine.
#[derive(Debug, Clone, Default)]
pub struct PwlEngine {
    opts: PwlOptions,
}

impl PwlEngine {
    /// Creates the engine with the given options.
    pub fn new(opts: PwlOptions) -> Self {
        PwlEngine { opts }
    }

    /// The engine options.
    pub fn options(&self) -> &PwlOptions {
        &self.opts
    }

    /// DC sweep: one linear solve per point with segment companions taken
    /// at the previous point's voltages (non-iterative, like \[2\]).
    ///
    /// # Errors
    /// Fails on invalid parameters or a singular stamped matrix — which
    /// *can* genuinely happen here when a negative segment conductance
    /// cancels the load, unlike with SWEC.
    pub fn run_dc_sweep(
        &self,
        circuit: &Circuit,
        source: &str,
        start: f64,
        stop: f64,
        step: f64,
    ) -> Result<DcSweepResult> {
        let n_points = sweep_point_count(start, stop, step)?;
        let t0 = Instant::now();
        let mats = CircuitMatrices::new(circuit)?;
        require_sweepable_source(&mats.mna, source)?;
        let tables = self.tabulate_all(&mats);
        let mut stats = EngineStats::new();

        let var_names = mna_var_names(&mats.mna);
        let mut names = var_names.clone();
        for b in mats.mna.nonlinear_bindings() {
            names.push(format!("I({})", b.name));
        }
        let mut columns: Vec<Vec<f64>> = vec![Vec::with_capacity(n_points); names.len()];
        let mut sweep = Vec::with_capacity(n_points);
        let mut x = vec![0.0; mats.mna.dim()];
        for k in 0..n_points {
            let value = start + step * k as f64;
            x = self.solve_point(&mats, &tables, Some((source, value)), &x, &mut stats)?;
            sweep.push(value);
            for (i, &xi) in x.iter().enumerate() {
                columns[i].push(xi);
            }
            let mut col = var_names.len();
            let mut flops = FlopCounter::new();
            for (bi, b) in mats.mna.nonlinear_bindings().iter().enumerate() {
                let v = branch_voltage(&x, b.var_plus, b.var_minus);
                columns[col].push(tables[bi].current(v, &mut flops));
                col += 1;
            }
            stats.flops += flops;
            stats.steps += 1;
        }
        stats.elapsed = t0.elapsed();
        Ok(DcSweepResult::new(sweep, names, columns, stats))
    }

    /// Transient analysis: backward Euler with segment companions, step
    /// halving whenever a device crosses more than one segment per step.
    ///
    /// # Errors
    /// Fails on invalid parameters, singular matrices or step underflow.
    pub fn run_transient(
        &self,
        circuit: &Circuit,
        tstep: f64,
        tstop: f64,
    ) -> Result<TransientResult> {
        if !(tstep > 0.0 && tstop > 0.0 && tstep <= tstop) {
            return Err(SimError::InvalidConfig {
                context: format!("transient needs 0 < tstep <= tstop (got {tstep}, {tstop})"),
            });
        }
        let t0 = Instant::now();
        let mats = CircuitMatrices::new(circuit)?;
        let mna = &mats.mna;
        let dim = mna.dim();
        let tables = self.tabulate_all(&mats);
        let mut stats = EngineStats::new();

        // Operating point via the same companion stamping, iterated a few
        // times (the tables are linear, so this settles fast).
        let mut x = vec![0.0; dim];
        for _ in 0..8 {
            x = self.solve_point(&mats, &tables, None, &x, &mut stats)?;
        }

        let names = mna_var_names(mna);
        let mut times = vec![0.0];
        let mut columns: Vec<Vec<f64>> = (0..dim).map(|i| vec![x[i]]).collect();
        let seg_w = tables
            .iter()
            .map(PwlDeviceTable::segment_width)
            .fold(f64::INFINITY, f64::min);

        let mut t = 0.0;
        let t_end = tstop * (1.0 - 1e-12);
        while t < t_end {
            let mut h = tstep.min(tstop - t);
            loop {
                if h < self.opts.h_min {
                    return Err(SimError::step_underflow(t, h));
                }
                let x_new = self.solve_step(&mats, &tables, &x, t, h, &mut stats)?;
                // Segment-crossing control: each device may move at most one
                // segment width per step.
                let mut ok = true;
                for (bi, b) in mna.nonlinear_bindings().iter().enumerate() {
                    let v_old = branch_voltage(&x, b.var_plus, b.var_minus);
                    let v_new = branch_voltage(&x_new, b.var_plus, b.var_minus);
                    if (v_new - v_old).abs() > tables[bi].segment_width() {
                        ok = false;
                        break;
                    }
                }
                if ok || seg_w.is_infinite() {
                    x = x_new;
                    break;
                }
                stats.rejected_steps += 1;
                h *= 0.5;
            }
            t += h;
            stats.steps += 1;
            times.push(t);
            for (i, c) in columns.iter_mut().enumerate() {
                c.push(x[i]);
            }
        }
        stats.flops += FlopCounter::new();
        stats.elapsed = t0.elapsed();
        Ok(TransientResult::new(times, names, columns, stats))
    }

    fn tabulate_all(&self, mats: &CircuitMatrices) -> Vec<PwlDeviceTable> {
        mats.mna
            .nonlinear_bindings()
            .iter()
            .map(|b| {
                PwlDeviceTable::tabulate(
                    &b.device,
                    self.opts.v_min,
                    self.opts.v_max,
                    self.opts.segments,
                )
            })
            .collect()
    }

    /// One DC solve with segment companions at `x0`.
    fn solve_point(
        &self,
        mats: &CircuitMatrices,
        tables: &[PwlDeviceTable],
        override_src: Option<(&str, f64)>,
        x0: &[f64],
        stats: &mut EngineStats,
    ) -> Result<Vec<f64>> {
        let mna = &mats.mna;
        let dim = mna.dim();
        let mut flops = FlopCounter::new();
        let mut g = mats.g_lin.clone();
        let mut rhs = vec![0.0; dim];
        mna.stamp_rhs(0.0, &mut rhs);
        if let Some((name, value)) = override_src {
            override_source_rhs(mna, name, value, 0.0, &mut rhs);
        }
        self.stamp_companions(mats, tables, x0, &mut g, &mut rhs, stats, &mut flops);
        let lu = SparseLu::factor(&g.to_csr(), &mut flops)?;
        let x = lu.solve(&rhs, &mut flops)?;
        stats.linear_solves += 1;
        stats.iterations += 1;
        stats.flops += flops;
        Ok(x)
    }

    /// One backward-Euler step with segment companions at `x0`.
    fn solve_step(
        &self,
        mats: &CircuitMatrices,
        tables: &[PwlDeviceTable],
        x0: &[f64],
        t: f64,
        h: f64,
        stats: &mut EngineStats,
    ) -> Result<Vec<f64>> {
        let mna = &mats.mna;
        let dim = mna.dim();
        let mut flops = FlopCounter::new();
        let mut g = mats.g_lin.clone();
        for &(r, c, v) in mats.c_triplets.iter() {
            g.push(r, c, v / h);
        }
        flops.div(mats.c_triplets.len() as u64);
        let mut rhs = vec![0.0; dim];
        mna.stamp_rhs(t + h, &mut rhs);
        mats.c_csr.matvec_acc(1.0 / h, x0, &mut rhs, &mut flops)?;
        self.stamp_companions(mats, tables, x0, &mut g, &mut rhs, stats, &mut flops);
        let lu = SparseLu::factor(&g.to_csr(), &mut flops)?;
        let x = lu.solve(&rhs, &mut flops)?;
        stats.linear_solves += 1;
        stats.flops += flops;
        Ok(x)
    }

    #[allow(clippy::too_many_arguments)]
    fn stamp_companions(
        &self,
        mats: &CircuitMatrices,
        tables: &[PwlDeviceTable],
        x0: &[f64],
        g: &mut nanosim_numeric::sparse::TripletMatrix,
        rhs: &mut [f64],
        stats: &mut EngineStats,
        flops: &mut FlopCounter,
    ) {
        let mna = &mats.mna;
        for (bi, b) in mna.nonlinear_bindings().iter().enumerate() {
            let v = branch_voltage(x0, b.var_plus, b.var_minus);
            let (g_seg, i_eq) = tables[bi].companion(v, flops);
            stats.device_evals += 1;
            MnaSystem::stamp_conductance(g, b.var_plus, b.var_minus, g_seg + self.opts.gmin);
            if let Some(p) = b.var_plus {
                rhs[p] -= i_eq;
            }
            if let Some(m) = b.var_minus {
                rhs[m] += i_eq;
            }
            flops.add(2);
        }
        // MOSFETs are stamped with their (positive) SWEC channel conductance
        // — [2]'s PWL treatment targets the nano-devices; the FET is not the
        // problem device.
        for m in mna.mosfet_bindings() {
            let vd = m.var_drain.map_or(0.0, |i| x0[i]);
            let vg = m.var_gate.map_or(0.0, |i| x0[i]);
            let vs = m.var_source.map_or(0.0, |i| x0[i]);
            let geq = m.model.geq(vg - vs, vd - vs, flops) + self.opts.gmin;
            stats.device_evals += 1;
            MnaSystem::stamp_conductance(g, m.var_drain, m.var_source, geq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanosim_devices::rtd::Rtd;
    use nanosim_devices::sources::SourceWaveform;
    use nanosim_devices::traits::NonlinearTwoTerminal;
    use std::sync::Arc;

    fn rtd_table() -> PwlDeviceTable {
        let dev: SharedDevice = Arc::new(Rtd::date2005());
        PwlDeviceTable::tabulate(&dev, -1.0, 6.0, 350)
    }

    #[test]
    fn table_matches_device_current() {
        let t = rtd_table();
        let rtd = Rtd::date2005();
        let mut f = FlopCounter::new();
        for v in [0.3, 1.0, 2.7, 4.0, 5.5] {
            let exact = rtd.current(v, &mut f);
            let approx = t.current(v, &mut f);
            assert!((exact - approx).abs() < 2e-4, "v={v}: {exact} vs {approx}");
        }
    }

    #[test]
    fn figure3_contrast_pwl_negative_swec_positive() {
        // The heart of Figure 3: same device, same bias, opposite signs.
        let t = rtd_table();
        let rtd = Rtd::date2005();
        let mut f = FlopCounter::new();
        let peak = rtd.peak().unwrap();
        let v_ndr = peak.voltage + 0.4;
        assert!(t.segment_conductance(v_ndr) < 0.0, "PWL slope in NDR");
        assert!(
            rtd.equivalent_conductance(v_ndr, &mut f) > 0.0,
            "SWEC secant in NDR"
        );
        // And in PDR1 both are positive.
        assert!(t.segment_conductance(0.5) > 0.0);
    }

    #[test]
    fn companion_reproduces_segment_line() {
        let t = rtd_table();
        let mut f = FlopCounter::new();
        let v = 2.05;
        let (g, ieq) = t.companion(v, &mut f);
        let i_lin = g * v + ieq;
        assert!((i_lin - t.current(v, &mut f)).abs() < 1e-12);
    }

    #[test]
    fn segment_width_and_range() {
        let t = rtd_table();
        assert!((t.segment_width() - 0.02).abs() < 1e-12);
        assert_eq!(t.range(), (-1.0, 6.0));
    }

    fn rtd_divider() -> Circuit {
        let mut ckt = Circuit::new();
        let a = ckt.node("in");
        let b = ckt.node("mid");
        ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(0.0))
            .unwrap();
        ckt.add_resistor("R1", a, b, 50.0).unwrap();
        ckt.add_rtd("X1", b, Circuit::GROUND, Rtd::date2005())
            .unwrap();
        ckt
    }

    #[test]
    fn dc_sweep_tracks_rtd_curve() {
        let engine = PwlEngine::new(PwlOptions::default());
        let sweep = engine
            .run_dc_sweep(&rtd_divider(), "V1", 0.0, 5.0, 0.02)
            .unwrap();
        let iv = sweep.curve("I(X1)").unwrap();
        // The non-iterative companion lags the true curve by roughly one
        // sweep step, so allow a loose window around the true 3.3 V peak.
        let (v_peak, _) = iv.peak().unwrap();
        assert!(v_peak > 2.5 && v_peak < 4.5, "peak at {v_peak}");
    }

    #[test]
    fn transient_rc_sanity() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("out");
        ckt.add_voltage_source(
            "V1",
            a,
            Circuit::GROUND,
            SourceWaveform::pwl(vec![(0.0, 0.0), (1e-12, 1.0), (1.0, 1.0)]).unwrap(),
        )
        .unwrap();
        ckt.add_resistor("R1", a, b, 1e3).unwrap();
        ckt.add_capacitor("C1", b, Circuit::GROUND, 1e-12).unwrap();
        let r = PwlEngine::new(PwlOptions::default())
            .run_transient(&ckt, 0.02e-9, 5e-9)
            .unwrap();
        let out = r.waveform("out").unwrap();
        let expected = 1.0 - (-1.0f64).exp();
        assert!((out.value_at(1e-9) - expected).abs() < 0.02);
    }

    #[test]
    fn transient_rtd_ramp_with_segment_control() {
        let mut ckt = Circuit::new();
        let a = ckt.node("in");
        let b = ckt.node("mid");
        ckt.add_voltage_source(
            "V1",
            a,
            Circuit::GROUND,
            SourceWaveform::pwl(vec![(0.0, 0.0), (10e-9, 5.0), (20e-9, 5.0)]).unwrap(),
        )
        .unwrap();
        ckt.add_resistor("R1", a, b, 50.0).unwrap();
        ckt.add_rtd("X1", b, Circuit::GROUND, Rtd::date2005())
            .unwrap();
        ckt.add_capacitor("C1", b, Circuit::GROUND, 1e-13).unwrap();
        let r = PwlEngine::new(PwlOptions::default())
            .run_transient(&ckt, 0.05e-9, 20e-9)
            .unwrap();
        let end = r.waveform("mid").unwrap().final_value();
        assert!(end > 4.0 && end < 5.0, "end {end}");
        // The segment-crossing control had to shrink steps somewhere.
        assert!(r.stats.steps > 0);
    }

    #[test]
    fn invalid_configs_rejected() {
        let engine = PwlEngine::new(PwlOptions::default());
        let ckt = rtd_divider();
        assert!(engine.run_dc_sweep(&ckt, "V1", 0.0, 1.0, 0.0).is_err());
        assert!(engine.run_dc_sweep(&ckt, "zz", 0.0, 1.0, 0.1).is_err());
        assert!(engine.run_transient(&ckt, 1.0, 0.5).is_err());
    }
}
