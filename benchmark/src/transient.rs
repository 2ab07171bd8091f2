//! `paper_transient`: the many-small-steps path. Jobs rotate over the
//! paper's transient figures: the Fig 8 inverter and its NDR stress
//! variant, the Fig 9 RTD D flip-flop, and the Fig 10 EM ensemble. SWEC
//! step control, EM and per-call LU overhead on tiny matrices do all the
//! work; parse, lint and the service do none, so a kernel change that only
//! pays on big meshes must show no change here.

use crate::replay;
use crate::rng::Rng;
use crate::run::{add_engine, BusyModel, Check, Job, Values, Workload};
use crate::stats::mean;
use crate::trace::Tracer;
use nanosim::circuit::{lint_circuit, Circuit};
use nanosim::core::em::EmOptions;
use nanosim::core::{Analysis, Dataset, ExecPlan, Simulator};
use nanosim::workloads;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Fig8Inverter,
    Fig8Stress,
    Fig9Dff,
    Fig10Em,
}

pub const KINDS: [Kind; 4] = [
    Kind::Fig8Inverter,
    Kind::Fig8Stress,
    Kind::Fig9Dff,
    Kind::Fig10Em,
];

/// One round: every figure once, and the Fig 10 ensemble a second time
/// with another seed. With four equal classes the median and p75 would sit
/// on a boundary between two classes' latencies and jump from run to run;
/// with five slots each quantile the benchmark reports falls inside one.
const ROUND: [Kind; 5] = [
    Kind::Fig8Inverter,
    Kind::Fig8Stress,
    Kind::Fig9Dff,
    Kind::Fig10Em,
    Kind::Fig10Em,
];

/// Fig 10: 500 paths of 500 steps over 1 ns, on 2 workers.
const EM_HORIZON: f64 = 1e-9;
const EM_STEPS: usize = 500;
const EM_PATHS: usize = 500;
const EM_WORKERS: usize = 2;

/// The Fig 10 p95 peak must be near the paper's 0.6 V callout (0.603 to
/// 0.628 V over 480 seeded ensembles).
const EM_P95_V: (f64, f64) = (0.58, 0.66);

/// Fig 8/9 outputs are sampled at this many evenly spaced times and must
/// match `reference/transient.txt` to within this many volts.
const SAMPLES: usize = 26;
const TOLERANCE_V: f64 = 1e-3;
const REFERENCE: &str = include_str!("../reference/transient.txt");

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig8Inverter => "fig8_inverter",
            Kind::Fig8Stress => "fig8_stress",
            Kind::Fig9Dff => "fig9_dff",
            Kind::Fig10Em => "fig10_em",
        }
    }

    fn circuit(self) -> Circuit {
        match self {
            Kind::Fig8Inverter => workloads::fet_rtd_inverter(),
            Kind::Fig8Stress => workloads::fet_rtd_inverter_stress(),
            Kind::Fig9Dff => workloads::rtd_d_flip_flop(),
            Kind::Fig10Em => workloads::noisy_rc_node_fig10(),
        }
    }

    /// `(tstep, tstop)` of the SWEC transient, or the EM step and horizon.
    fn times(self) -> (f64, f64) {
        match self {
            Kind::Fig8Inverter => (0.2e-9, 100e-9),
            Kind::Fig8Stress => (0.5e-9, 30e-9),
            Kind::Fig9Dff => (0.2e-9, 500e-9),
            Kind::Fig10Em => (EM_HORIZON / EM_STEPS as f64, EM_HORIZON),
        }
    }

    fn analysis(self, em_seed: u64) -> Analysis {
        let (tstep, tstop) = self.times();
        match self {
            Kind::Fig10Em => Analysis::em_ensemble(tstop)
                .options(EmOptions {
                    dt: tstep,
                    paths: EM_PATHS,
                    seed: em_seed,
                    ..EmOptions::default()
                })
                .plan(ExecPlan::sharded(EM_WORKERS))
                .into(),
            _ => Analysis::transient(tstep, tstop).into(),
        }
    }

    fn workers(self) -> usize {
        if self == Kind::Fig10Em {
            EM_WORKERS
        } else {
            1
        }
    }
}

/// One job's inputs: the figure, and the EM seed (used by Fig 10 only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub kind: Kind,
    pub em_seed: u64,
}

/// The seeded job sequence: every round runs [`ROUND`] in a drawn order.
#[derive(Debug, Clone)]
pub struct Specs {
    rng: Rng,
    specs: Vec<Spec>,
}

impl Specs {
    pub fn new(seed: u64) -> Specs {
        Specs {
            rng: Rng::new(seed),
            specs: Vec::new(),
        }
    }

    pub fn get(&mut self, i: usize) -> Spec {
        while self.specs.len() <= i {
            let mut order = ROUND;
            self.rng.shuffle(&mut order);
            for kind in order {
                let em_seed = self.rng.next_u64();
                self.specs.push(Spec { kind, em_seed });
            }
        }
        self.specs[i]
    }
}

fn samples(ds: &Dataset, tstop: f64) -> Option<Vec<f64>> {
    (0..SAMPLES)
        .map(|k| ds.at("out", tstop * k as f64 / (SAMPLES - 1) as f64))
        .collect()
}

/// The reference file's text: `out` of each Fig 8/9 transient at
/// [`SAMPLES`] evenly spaced times. Regenerate it (only for an intended
/// change of results) with `--print-reference`.
pub fn reference_text() -> String {
    let mut out = String::from(
        "# paper_transient reference: figure, sample index, V(out) at tstop*k/(SAMPLES-1)\n",
    );
    for kind in &KINDS[..3] {
        let (_, tstop) = kind.times();
        let ds = Simulator::new(kind.circuit())
            .and_then(|mut s| s.run(kind.analysis(0)))
            .expect("reference transient runs");
        for (k, v) in samples(&ds, tstop).expect("node out").iter().enumerate() {
            out.push_str(&format!("{} {k} {v:e}\n", kind.name()));
        }
    }
    out
}

fn reference() -> BTreeMap<&'static str, Vec<f64>> {
    let mut map: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for line in REFERENCE.lines().filter(|l| !l.starts_with('#')) {
        let mut f = line.split_whitespace();
        let (Some(name), Some(_), Some(v)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        if let (Some(kind), Ok(v)) = (KINDS.iter().find(|k| k.name() == name), v.parse()) {
            map.entry(kind.name()).or_default().push(v);
        }
    }
    map
}

#[derive(Debug)]
pub struct PaperTransient {
    circuits: BTreeMap<Kind, Circuit>,
    reference: BTreeMap<&'static str, Vec<f64>>,
    specs: Specs,
    counters: Values,
    checks: Vec<Check>,
    elements: f64,
    /// Kind of every job run so far.
    kinds: Vec<Kind>,
    lint_ms: Vec<f64>,
    /// Round-0 engine stats and run ms, per job.
    round0: Vec<(Kind, nanosim::core::EngineStats, f64)>,
}

impl PaperTransient {
    fn run_job(
        &self,
        spec: Spec,
        tracer: &mut Tracer,
    ) -> Result<(Simulator, Dataset, f64), String> {
        let circuit = self.circuits[&spec.kind].clone();
        let mut sim = tracer
            .span("sim.new", || Simulator::new(circuit))
            .map_err(|e| format!("new: {e}"))?;
        let t0 = Instant::now();
        let ds = tracer
            .span("sim.run", || sim.run(spec.kind.analysis(spec.em_seed)))
            .map_err(|e| format!("run: {e}"))?;
        Ok((sim, ds, t0.elapsed().as_secs_f64() * 1e3))
    }

    fn check(&mut self, index: usize, spec: Spec, ds: &Dataset) -> bool {
        let name = spec.kind.name();
        let (ok, detail) = if spec.kind == Kind::Fig10Em {
            match ds.peak_summary("v") {
                Some(p) => (
                    p.p95_peak >= EM_P95_V.0 && p.p95_peak <= EM_P95_V.1,
                    format!("p95 peak {:.4} V, expected within {EM_P95_V:?}", p.p95_peak),
                ),
                None => (false, "no peak summary for node v".to_string()),
            }
        } else {
            let (_, tstop) = spec.kind.times();
            let want = &self.reference[name];
            match samples(ds, tstop) {
                Some(got) if got.len() == want.len() => {
                    let worst = got
                        .iter()
                        .zip(want)
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0, f64::max);
                    (
                        worst <= TOLERANCE_V,
                        format!("largest deviation from reference {worst:.3e} V (tolerance {TOLERANCE_V:e} V)"),
                    )
                }
                _ => (false, "output samples missing".to_string()),
            }
        };
        self.checks.push(Check::new(
            format!("job {index} ({name}) output"),
            ok,
            detail,
        ));
        ok
    }
}

impl Workload for PaperTransient {
    const NAME: &'static str = "paper_transient";
    const TAIL: f64 = 95.0;

    fn new(seed: u64) -> PaperTransient {
        let reference = reference();
        assert!(
            KINDS[..3]
                .iter()
                .all(|k| reference.get(k.name()).is_some_and(|v| v.len() == SAMPLES)),
            "reference/transient.txt holds {SAMPLES} samples per Fig 8/9 transient"
        );
        let w = PaperTransient {
            circuits: KINDS.iter().map(|&k| (k, k.circuit())).collect(),
            reference,
            specs: Specs::new(seed),
            counters: Values::new(),
            checks: Vec::new(),
            elements: 0.0,
            kinds: Vec::new(),
            lint_ms: Vec::new(),
            round0: Vec::new(),
        };
        let warm = Spec {
            kind: Kind::Fig8Stress,
            em_seed: 0,
        };
        w.run_job(warm, &mut Tracer::new(false))
            .expect("warm-up job runs");
        w
    }

    fn round_len(&self) -> usize {
        ROUND.len()
    }

    fn job(&mut self, index: usize, tracer: &mut Tracer) -> Job {
        let spec = self.specs.get(index);
        self.kinds.push(spec.kind);
        let class = spec.kind.name();
        let t0 = Instant::now();
        let job_span = tracer.begin("job");
        let result = self.run_job(spec, tracer);
        tracer.end(job_span);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let (sim, ds, run_ms) = match result {
            Ok(r) => r,
            Err(e) => {
                self.checks
                    .push(Check::new(format!("job {index} ({class}) runs"), false, e));
                return Job::new(class, ms, false);
            }
        };
        let ok = self.check(index, spec, &ds);
        if tracer.enabled()
            && tracer
                .replay("circuit.lint", || lint_circuit(sim.circuit()))
                .is_some()
        {
            let last = tracer.spans().last().expect("replay recorded");
            self.lint_ms.push(last.ns() as f64 / 1e6);
        }
        if index < self.round_len() {
            add_engine(&mut self.counters, &ds.stats, spec.kind == Kind::Fig10Em);
            self.elements += sim.circuit().elements().len() as f64;
            self.round0.push((spec.kind, ds.stats.clone(), run_ms));
        }
        Job::new(class, ms, ok)
    }

    fn counters(&self) -> Values {
        let mut c = self.counters.clone();
        c.insert("circuit.elements", self.elements);
        c
    }

    fn checks(&self) -> &[Check] {
        &self.checks
    }

    fn layer(&mut self, tracer: &Tracer, notes: &mut Vec<String>) -> Values {
        let mut v = Values::new();
        let lint = mean(&self.lint_ms);
        v.insert("circuit.lint_ms", lint);
        v.insert("sim.new_ms", (mean(&tracer.ms("sim.new")) - lint).max(0.0));
        v.insert("sim.run_ms", mean(&tracer.ms("sim.run")));
        let em_runs: Vec<f64> = tracer
            .ms_by_job("sim.run")
            .into_iter()
            .filter(|&(job, _)| self.kinds.get(job) == Some(&Kind::Fig10Em))
            .map(|(_, ms)| ms)
            .collect();
        v.insert("em.run_ms", mean(&em_runs));
        v.insert(
            "sde.wiener_ms",
            replay::wiener_ms(EM_HORIZON, EM_STEPS, EM_PATHS, 2005),
        );
        notes.push(format!(
            "sde.wiener_ms: replay of WienerPath::generate for one Fig 10 ensemble ({EM_PATHS} paths x {EM_STEPS} steps)"
        ));
        let mut busy = BusyModel::default();
        let mut costs = BTreeMap::new();
        for (kind, stats, run_ms) in &self.round0 {
            let (lu, eval) = *costs.entry(*kind).or_insert_with(|| {
                let c = &self.circuits[kind];
                (
                    replay::lu_cost(c, Some(kind.times().0)),
                    replay::device_eval_ns(c),
                )
            });
            busy.add(stats, &lu, eval, *run_ms, kind.workers());
        }
        busy.metrics(&mut v);
        for (k, why) in [
            (
                "circuit.parse_ms",
                "paper_transient builds its circuits, it parses no deck",
            ),
            ("circuit.lint_ratio_60_20", "paper_transient has no meshes"),
            (
                "sim.rebind_ms",
                "every paper_transient job opens a fresh session",
            ),
            ("sim.shard_speedup", "measured on the table1_dc sweep"),
            (
                "serve.json_parse_ms",
                "paper_transient bypasses the service",
            ),
            (
                "serve.json_render_ms",
                "paper_transient bypasses the service",
            ),
            ("serve.key_ms", "paper_transient bypasses the service"),
            ("serve.self_ms", "paper_transient bypasses the service"),
        ] {
            v.insert(k, 0.0);
            notes.push(format!("{k} = 0: not applicable ({why})"));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_jobs_other_seed_other_jobs() {
        let draw = |seed| {
            let mut s = Specs::new(seed);
            (0..10).map(|i| s.get(i)).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        for round in draw(7).chunks(ROUND.len()) {
            let mut kinds: Vec<Kind> = round.iter().map(|s| s.kind).collect();
            kinds.sort();
            assert_eq!(kinds, ROUND, "each round runs the same mix");
            let seeds: Vec<u64> = round
                .iter()
                .filter(|s| s.kind == Kind::Fig10Em)
                .map(|s| s.em_seed)
                .collect();
            assert_ne!(seeds[0], seeds[1], "the two ensembles of a round differ");
        }
    }

    #[test]
    fn reference_file_covers_every_deterministic_figure() {
        let r = reference();
        for k in &KINDS[..3] {
            assert_eq!(r[k.name()].len(), SAMPLES, "{}", k.name());
        }
    }
}
