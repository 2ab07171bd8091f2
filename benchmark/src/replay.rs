//! Replays: the benchmark times a layer's public function on the same
//! inputs as a job, beside the call that really runs it, because the
//! program does that work inside another call (LU and device evaluation
//! inside `Simulator::run`, Wiener paths inside the EM engine). Every
//! number from here is labelled as a replay estimate.

use nanosim::circuit::{Circuit, MnaSystem};
use nanosim::numeric::rng::Pcg64;
use nanosim::numeric::sparse::{OrderingChoice, PivotStrategy, SparseLu};
use nanosim::numeric::{CsrMatrix, FlopCounter, TripletMatrix};
use nanosim::sde::wiener::WienerPath;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Each replay loop runs at least this long, so one number averages many
/// calls even on the smallest matrices.
const MIN_REPLAY: Duration = Duration::from_millis(4);

/// Mean nanoseconds per call of `f`, over at least [`MIN_REPLAY`].
pub fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0u64;
    while calls < 3 || t0.elapsed() < MIN_REPLAY {
        f();
        calls += 1;
    }
    t0.elapsed().as_nanos() as f64 / calls as f64
}

/// Per-call LU costs on one workload's matrix, in microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LuCost {
    pub factor_us: f64,
    pub refactor_us: f64,
    pub solve_us: f64,
}

/// The circuit's SWEC matrix `G_lin + Geq(v) (+ C/h)` at a uniform device
/// bias `v`, with MOSFET channels stamped as a conductance so the pattern
/// matches the engine's.
fn swec_matrix(mna: &MnaSystem, bias: f64, c_over: Option<f64>) -> CsrMatrix {
    let mut flops = FlopCounter::new();
    let mut t = TripletMatrix::new(mna.dim(), mna.dim());
    mna.stamp_linear_g(&mut t);
    for b in mna.nonlinear_bindings() {
        let geq = b.device.equivalent_conductance(bias, &mut flops) + 1e-12;
        MnaSystem::stamp_conductance(&mut t, b.var_plus, b.var_minus, geq);
    }
    for m in mna.mosfet_bindings() {
        MnaSystem::stamp_conductance(&mut t, m.var_drain, m.var_source, 1e-3 * (1.0 + bias));
    }
    if let Some(h) = c_over {
        let mut c = TripletMatrix::new(mna.dim(), mna.dim());
        mna.stamp_c(&mut c);
        for &(r, col, v) in c.iter() {
            t.push(r, col, v / h);
        }
    }
    t.to_csr()
}

/// Times `SparseLu` factor, `refactor` and `solve_into` on the circuit's
/// matrix (a transient matrix when `step` is given), with the session's
/// default ordering.
pub fn lu_cost(circuit: &Circuit, step: Option<f64>) -> LuCost {
    let mna = MnaSystem::new(circuit).expect("benchmark circuits assemble");
    let a1 = swec_matrix(&mna, 0.4, step);
    let a2 = swec_matrix(&mna, 0.7, step);
    let mut flops = FlopCounter::new();
    let factor = |a: &CsrMatrix, flops: &mut FlopCounter| {
        SparseLu::factor_ordered(a, OrderingChoice::Auto, PivotStrategy::default(), flops)
            .expect("replay matrix factors")
    };
    let factor_ns = ns_per_call(|| {
        black_box(factor(black_box(&a1), &mut flops));
    });
    let mut lu = factor(&a1, &mut flops);
    let mut flip = false;
    let refactor_ns = ns_per_call(|| {
        flip = !flip;
        let a = if flip { &a2 } else { &a1 };
        lu.refactor(black_box(a), &mut flops)
            .expect("same pattern refactors");
    });
    let b: Vec<f64> = (0..a1.rows()).map(|i| (i as f64 * 0.37).sin()).collect();
    let (mut x, mut work) = (Vec::new(), Vec::new());
    let solve_ns = ns_per_call(|| {
        lu.solve_into(black_box(&b), &mut x, &mut work, &mut flops)
            .expect("replay solve");
        black_box(&x);
    });
    LuCost {
        factor_us: factor_ns / 1e3,
        refactor_us: refactor_ns / 1e3,
        solve_us: solve_ns / 1e3,
    }
}

/// Mean nanoseconds per device-model evaluation over the circuit's
/// nonlinear two-terminals (`equivalent_conductance`) and MOSFETs (`ids`),
/// swept over 0–3 V.
pub fn device_eval_ns(circuit: &Circuit) -> f64 {
    let mna = MnaSystem::new(circuit).expect("benchmark circuits assemble");
    let (two, fets) = (mna.nonlinear_bindings(), mna.mosfet_bindings());
    let per_pass = (two.len() + fets.len()).max(1) as f64;
    let mut flops = FlopCounter::new();
    let mut k = 0u32;
    ns_per_call(|| {
        k = (k + 1) % 300;
        let v = 0.01 * f64::from(k);
        for b in two {
            black_box(b.device.equivalent_conductance(black_box(v), &mut flops));
        }
        for m in fets {
            black_box(m.model.ids(black_box(v + 1.0), black_box(v), &mut flops));
        }
    }) / per_pass
}

/// Milliseconds to draw `paths` Wiener paths of `steps` steps over
/// `horizon` — the noise an EM ensemble of that size integrates.
pub fn wiener_ms(horizon: f64, steps: usize, paths: usize, seed: u64) -> f64 {
    let mut rng = Pcg64::seed_from_u64(seed);
    let t0 = Instant::now();
    for _ in 0..paths {
        black_box(WienerPath::generate(horizon, steps, &mut rng));
    }
    t0.elapsed().as_secs_f64() * 1e3
}
