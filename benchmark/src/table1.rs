//! `table1_dc`: the cold, no-sharing, numeric-heavy path. Every job is one
//! Table I RTD mesh deck parsed, opened (preflight on) and swept from cold
//! with a 2-worker sharded plan. The sparse LU, device evaluation and sweep
//! sharding do most of the work; parse and lint are a visible share that
//! grows with the mesh; the service layer is bypassed.

use crate::replay::{self, LuCost};
use crate::rng::Rng;
use crate::run::{add_engine, digest, BusyModel, Check, Job, Values, Workload};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use nanosim::circuit::{lint_circuit, parse_netlist_with_params, Circuit};
use nanosim::core::{Analysis, Dataset, ExecPlan, Simulator};
use std::collections::BTreeMap;
use std::time::Instant;

pub const SIZES: [usize; 3] = [20, 40, 60];
const WORKERS: usize = 2;

/// The DC sweep of every job: 121 points.
fn sweep() -> nanosim::core::sim::request::DcSweep {
    Analysis::dc_sweep("V1", 0.0, 3.0, 0.025)
}

/// The peak of the source current must lie in this window of `V1` for
/// every drawn `rgrid`/`rfeed` (the RTD mesh's negative-resistance knee).
/// The corner RTD, next to the feed, carries the most current. At the
/// corners of the drawn `rgrid`/`rfeed` box its peak over the sweep is 6.25
/// to 13.45 mA at every mesh size, so it must lie in this window (amperes).
const PEAK_SIGNAL: &str = "I(YRTD1.X0_0)";
const PEAK_A: (f64, f64) = (6.0e-3, 14.0e-3);

/// One job's inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub n: usize,
    pub rgrid: f64,
    pub rfeed: f64,
}

/// The seeded job sequence: each round is the three mesh sizes in a drawn
/// order, each job with its own grid and feed resistances.
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
            let mut order = SIZES;
            self.rng.shuffle(&mut order);
            for n in order {
                let rgrid = self.rng.value(60.0, 160.0);
                let rfeed = self.rng.value(25.0, 100.0);
                self.specs.push(Spec { n, rgrid, rfeed });
            }
        }
        self.specs[i].clone()
    }
}

#[derive(Debug)]
pub struct Table1 {
    decks: BTreeMap<usize, String>,
    specs: Specs,
    counters: Values,
    checks: Vec<Check>,
    /// Traced-pass records: (mesh size, lint replay ms) per job.
    lint_ms: Vec<(usize, f64)>,
    /// Round-0 sharded run ms and their serial-reference ms.
    shard_pairs: Vec<(f64, f64)>,
    /// Round-0 circuits and engine stats, for the replay cost model.
    round0: Vec<(Circuit, nanosim::core::EngineStats, f64)>,
    elements: f64,
}

impl Table1 {
    /// Parse, open and sweep one deck; returns the session, the sweep and
    /// the sweep's wall time in ms.
    fn run_job(
        &self,
        spec: &Spec,
        tracer: &mut Tracer,
    ) -> Result<(Simulator, Dataset, f64), String> {
        let overrides = [
            ("rgrid".to_string(), spec.rgrid),
            ("rfeed".to_string(), spec.rfeed),
        ];
        let deck = &self.decks[&spec.n];
        let parsed = tracer
            .span("circuit.parse", || {
                parse_netlist_with_params(deck, &overrides)
            })
            .map_err(|e| format!("parse: {e}"))?;
        let mut sim = tracer
            .span("sim.new", || Simulator::new(parsed.circuit))
            .map_err(|e| format!("new: {e}"))?;
        let t0 = Instant::now();
        let ds = tracer
            .span("sim.run", || {
                sim.run(sweep().plan(ExecPlan::sharded(WORKERS)))
            })
            .map_err(|e| format!("run: {e}"))?;
        Ok((sim, ds, t0.elapsed().as_secs_f64() * 1e3))
    }
}

impl Workload for Table1 {
    const NAME: &'static str = "table1_dc";
    const TAIL: f64 = 75.0;

    fn new(seed: u64) -> Table1 {
        let decks = SIZES
            .iter()
            .map(|&n| (n, nanosim::workloads::rtd_mesh_param_deck(n)))
            .collect();
        let w = Table1 {
            decks,
            specs: Specs::new(seed),
            counters: Values::new(),
            checks: Vec::new(),
            lint_ms: Vec::new(),
            shard_pairs: Vec::new(),
            round0: Vec::new(),
            elements: 0.0,
        };
        let warm = Spec {
            n: SIZES[0],
            rgrid: 100.0,
            rfeed: 50.0,
        };
        w.run_job(&warm, &mut Tracer::new(false))
            .map(|_| ())
            .expect("warm-up job runs");
        w
    }

    fn round_len(&self) -> usize {
        SIZES.len()
    }

    fn job(&mut self, index: usize, tracer: &mut Tracer) -> Job {
        let spec = self.specs.get(index);
        let class = match spec.n {
            20 => "mesh20",
            40 => "mesh40",
            _ => "mesh60",
        };
        let t0 = Instant::now();
        let job_span = tracer.begin("job");
        let result = self.run_job(&spec, tracer);
        tracer.end(job_span);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let (sim, ds, run_ms) = match result {
            Ok(pair) => pair,
            Err(e) => {
                self.checks
                    .push(Check::new(format!("job {index} ({class}) runs"), false, e));
                return Job::new(class, ms, false);
            }
        };
        let peak = ds.peak(PEAK_SIGNAL).map(|(_, i)| i);
        let mut ok = peak.is_some_and(|i| i >= PEAK_A.0 && i <= PEAK_A.1);
        self.checks.push(Check::new(
            format!("job {index} ({class}) corner RTD peak current"),
            ok,
            format!("peak of {PEAK_SIGNAL} = {peak:?} A, expected within {PEAK_A:?}"),
        ));
        // Kirchhoff at the feed resistor holds at every sweep point: the
        // source delivers (V(in) - V(g0_0)) / rfeed.
        let kcl = match (ds.column("I(V1)"), ds.column("in"), ds.column("g0_0")) {
            (Some(i), Some(vin), Some(g)) => i
                .iter()
                .zip(vin.iter().zip(g))
                .map(|(i, (a, b))| (i + (a - b) / spec.rfeed).abs())
                .fold(0.0, f64::max),
            _ => f64::INFINITY,
        };
        let kcl_ok = kcl <= 1e-9;
        ok &= kcl_ok;
        self.checks.push(Check::new(
            format!("job {index} ({class}) feed-resistor current balance"),
            kcl_ok,
            format!("largest imbalance {kcl:.3e} A (limit 1e-9 A)"),
        ));
        if tracer.enabled() {
            let lint = tracer.replay("circuit.lint", || lint_circuit(sim.circuit()));
            if lint.is_some() {
                let last = tracer.spans().last().expect("replay recorded");
                self.lint_ms.push((spec.n, last.ns() as f64 / 1e6));
            }
        }
        if index < self.round_len() {
            add_engine(&mut self.counters, &ds.stats, false);
            let circuit = sim.circuit().clone();
            self.elements += circuit.elements().len() as f64;
            self.round0
                .push((circuit.clone(), ds.stats.clone(), run_ms));
            // The serial reference: a fresh session, same deck, one worker.
            let sharded = digest(&ds);
            drop((sim, ds));
            let t1 = Instant::now();
            let serial = Simulator::new(circuit).and_then(|mut s| s.run(sweep()));
            let serial_ms = t1.elapsed().as_secs_f64() * 1e3;
            let same = serial.as_ref().is_ok_and(|s| digest(s) == sharded);
            self.checks.push(Check::new(
                format!("job {index} ({class}) sharded sweep bit-identical to serial"),
                same,
                if same {
                    String::new()
                } else {
                    "columns differ or serial run failed".into()
                },
            ));
            ok &= same;
            self.shard_pairs.push((run_ms, serial_ms));
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
        v.insert("circuit.parse_ms", mean(&tracer.ms("circuit.parse")));
        let lint: Vec<f64> = self.lint_ms.iter().map(|&(_, ms)| ms).collect();
        v.insert("circuit.lint_ms", mean(&lint));
        let lint_of = |n: usize| {
            median(
                &self
                    .lint_ms
                    .iter()
                    .filter(|&&(m, _)| m == n)
                    .map(|&(_, ms)| ms)
                    .collect::<Vec<_>>(),
            )
        };
        let (l20, l60) = (lint_of(20), lint_of(60));
        v.insert(
            "circuit.lint_ratio_60_20",
            if l20 > 0.0 { l60 / l20 } else { 0.0 },
        );
        notes.push(format!(
            "circuit.lint_ratio_60_20 = median lint_circuit replay on mesh60 ({l60:.2} ms) / mesh20 ({l20:.2} ms); linear in elements would be {:.1}x",
            (2.0 + 3600.0 + 2.0 * 60.0 * 59.0) / (2.0 + 400.0 + 2.0 * 20.0 * 19.0)
        ));
        // Simulator::new self time: the span minus the lint it runs inside.
        v.insert(
            "sim.new_ms",
            (mean(&tracer.ms("sim.new")) - mean(&lint)).max(0.0),
        );
        v.insert("sim.run_ms", mean(&tracer.ms("sim.run")));
        let (sharded, serial): (f64, f64) = self
            .shard_pairs
            .iter()
            .fold((0.0, 0.0), |(a, b), &(x, y)| (a + x, b + y));
        v.insert(
            "sim.shard_speedup",
            if sharded > 0.0 { serial / sharded } else { 0.0 },
        );
        let mut busy = BusyModel::default();
        let mut costs: BTreeMap<usize, (LuCost, f64)> = BTreeMap::new();
        for (circuit, stats, run_ms) in &self.round0 {
            let (lu, eval) = *costs.entry(circuit.elements().len()).or_insert_with(|| {
                (
                    replay::lu_cost(circuit, None),
                    replay::device_eval_ns(circuit),
                )
            });
            busy.add(stats, &lu, eval, *run_ms, WORKERS);
        }
        busy.metrics(&mut v);
        for (k, why) in [
            ("sim.rebind_ms", "every table1_dc job opens a fresh session"),
            ("em.run_ms", "no EM ensembles in table1_dc"),
            ("sde.wiener_ms", "no EM ensembles in table1_dc"),
            ("serve.json_parse_ms", "table1_dc bypasses the service"),
            ("serve.json_render_ms", "table1_dc bypasses the service"),
            ("serve.key_ms", "table1_dc bypasses the service"),
            ("serve.self_ms", "table1_dc bypasses the service"),
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
            (0..9).map(|i| s.get(i)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        let jobs = draw(3);
        for round in jobs.chunks(3) {
            let mut sizes: Vec<usize> = round.iter().map(|s| s.n).collect();
            sizes.sort_unstable();
            assert_eq!(sizes, SIZES, "each round runs every mesh size once");
        }
    }
}
