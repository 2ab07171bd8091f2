//! What every workload shares: the job loop, counters, checks and the
//! summary of one run.

use crate::stats::{median, quantile, samples_for_tail};
use crate::trace::Tracer;
use nanosim::core::{Dataset, EngineStats};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

pub type Values = BTreeMap<&'static str, f64>;

/// One timed job: its class within the workload, its latency and whether
/// it ran and answered correctly.
#[derive(Debug, Clone)]
pub struct Job {
    pub class: &'static str,
    pub ms: f64,
    pub ok: bool,
}

impl Job {
    pub fn new(class: &'static str, ms: f64, ok: bool) -> Job {
        Job { class, ms, ok }
    }
}

/// Milliseconds of a fixed pseudo-random walk over a 256 KiB buffer, timed
/// on its second pass so the job before it does not decide how much of the
/// buffer is cached. It shares no code with the simulator: shared hosts
/// switch for tens of seconds to minutes between speed states up to 1.6x
/// apart, and this number tells a slow run on a slow host from a slow
/// program.
fn host_probe_ms(buf: &mut [u32]) -> f64 {
    let walk = |buf: &mut [u32]| {
        let n = buf.len();
        let (mut i, mut acc) = (1usize, 0u32);
        for _ in 0..100_000 {
            let v = buf[i];
            acc = acc.wrapping_add(v);
            buf[i] = v.rotate_left(5) ^ 0x9e37;
            i = (i
                .wrapping_mul(1_103_515_245)
                .wrapping_add(12_345 + v as usize))
                % n;
        }
        black_box(acc);
    };
    walk(buf);
    let t0 = Instant::now();
    walk(buf);
    t0.elapsed().as_secs_f64() * 1e3
}

/// One correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// The percentile `job_ms_tail` reports. Each run takes enough jobs
    /// for at least ten samples beyond it.
    const TAIL: f64;

    /// Generates the seeded inputs and sets the program up, including one
    /// untimed warm-up job, so lazy set-up is paid here and not by job 0.
    fn new(seed: u64) -> Self;

    /// Jobs per round. Runs stop only at round ends, so every run has the
    /// same job mix; round 0 is the counter pass.
    fn round_len(&self) -> usize;

    /// Runs job `index`, timing only the calls into the program.
    fn job(&mut self, index: usize, tracer: &mut Tracer) -> Job;

    /// Exact work counters of the counter pass (round 0).
    fn counters(&self) -> Values;

    /// Correctness checks made so far (a failing one also marked its job).
    fn checks(&self) -> &[Check];

    /// Facts about the inputs the run realised (shown in every mode).
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }

    /// Per-layer numbers of a traced pass: span statistics plus replays.
    /// Metrics that do not apply to the workload are explained in `notes`.
    fn layer(&mut self, tracer: &Tracer, notes: &mut Vec<String>) -> Values;
}

/// Runs whole rounds of jobs until `seconds` of job time and the tail's
/// sample count are reached (or exactly `jobs` jobs when given), stopping
/// early at a round end once `deadline` has passed. Returns the jobs and
/// the host probe taken at every round start.
pub fn pass<W: Workload>(
    w: &mut W,
    seconds: f64,
    jobs: Option<usize>,
    deadline: Instant,
    tracer: &mut Tracer,
) -> (Vec<Job>, Vec<f64>) {
    let min_jobs = samples_for_tail(W::TAIL);
    let round = w.round_len();
    let mut out = Vec::new();
    let mut probes = Vec::new();
    let mut buf: Vec<u32> = (0..1u32 << 16)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect();
    let mut busy_ms = 0.0;
    loop {
        let i = out.len();
        if i % round == 0 {
            let done = match jobs {
                Some(n) => i >= n,
                None => busy_ms >= seconds * 1e3 && i >= min_jobs,
            };
            if done || (i > 0 && Instant::now() >= deadline) {
                return (out, probes);
            }
            probes.push(host_probe_ms(&mut buf));
        }
        tracer.set_job(i);
        let job = w.job(i, tracer);
        busy_ms += job.ms;
        out.push(job);
    }
}

/// Timing summary of a pass.
#[derive(Debug, Clone)]
pub struct Timing {
    pub jobs: usize,
    pub jobs_per_s: f64,
    pub p50_ms: f64,
    pub tail_ms: f64,
}

impl Timing {
    pub fn of(jobs: &[Job], tail: f64) -> Timing {
        let ms: Vec<f64> = jobs.iter().map(|j| j.ms).collect();
        let busy_s = ms.iter().sum::<f64>() / 1e3;
        Timing {
            jobs: ms.len(),
            jobs_per_s: if busy_s > 0.0 {
                ms.len() as f64 / busy_s
            } else {
                0.0
            },
            p50_ms: median(&ms),
            tail_ms: quantile(&ms, tail / 100.0),
        }
    }
}

/// Median latency per job class, in first-seen order.
pub fn class_p50(jobs: &[Job]) -> Vec<(&'static str, usize, f64)> {
    let mut classes: Vec<&'static str> = Vec::new();
    for j in jobs {
        if !classes.contains(&j.class) {
            classes.push(j.class);
        }
    }
    classes
        .into_iter()
        .map(|c| {
            let ms: Vec<f64> = jobs.iter().filter(|j| j.class == c).map(|j| j.ms).collect();
            (c, ms.len(), median(&ms))
        })
        .collect()
}

/// Adds one run's engine counters to `c`. EM ensembles count path steps,
/// the SWEC engines count accepted points.
pub fn add_engine(c: &mut Values, s: &EngineStats, em: bool) {
    let mut add = |k: &'static str, v: f64| *c.entry(k).or_insert(0.0) += v;
    if em {
        add("em.path_steps", s.steps as f64);
    } else {
        add("swec.steps", s.steps as f64);
        add("swec.rejected_steps", s.rejected_steps as f64);
        add("swec.iterations", s.iterations as f64);
    }
    add("numeric.full_factors", s.full_factors as f64);
    add("numeric.refactors", s.refactors as f64);
    add("numeric.linear_solves", s.linear_solves as f64);
    add("numeric.factor_flops", s.factor_flops as f64);
    add("numeric.refactor_flops", s.refactor_flops as f64);
    add("numeric.solve_flops", s.solve_flops as f64);
    add("numeric.refinement_steps", s.refinement_steps as f64);
    add("numeric.f32_panel_solves", s.f32_panel_solves as f64);
    add("numeric.batched_factors", s.batched_factors as f64);
    add("devices.evals", s.device_evals as f64);
    add("rescue.rescues", s.rescues as f64);
    add("rescue.rungs", s.rescue_rungs as f64);
    // The largest analysis seen, its fill and supernodes kept together.
    if s.nnz_lu as f64 > c.get("numeric.nnz_lu").copied().unwrap_or(0.0) {
        c.insert("numeric.nnz_lu", s.nnz_lu as f64);
        c.insert("numeric.fill_ratio", s.fill_ratio);
        c.insert("numeric.supernodes", s.supernodes as f64);
    }
    if s.min_recip_pivot.is_finite() {
        let v = c.entry("numeric.min_recip_pivot").or_insert(f64::INFINITY);
        *v = v.min(s.min_recip_pivot);
    }
}

/// The counters' derived ratios.
pub fn derived(c: &Values) -> Values {
    let get = |k: &str| c.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut out = Values::new();
    out.insert(
        "swec.reject_ratio",
        ratio(
            get("swec.rejected_steps"),
            get("swec.steps") + get("swec.rejected_steps"),
        ),
    );
    out.insert(
        "serve.hit_ratio",
        ratio(
            get("serve.result_hits"),
            get("serve.result_hits") + get("serve.result_misses"),
        ),
    );
    out
}

/// Per-call LU and device costs of one job's matrix, weighted into the
/// workload's replay metrics by the job's exact counts.
#[derive(Debug, Default)]
pub struct BusyModel {
    lu_ms: f64,
    dev_ms: f64,
    run_ms: f64,
    refactor_us: (f64, f64),
    solve_us: (f64, f64),
    eval_ns: (f64, f64),
}

impl BusyModel {
    /// Adds one job: its engine stats, the replayed costs of its matrix
    /// and devices, and the wall time of its `Simulator::run` on `workers`
    /// threads.
    pub fn add(
        &mut self,
        s: &EngineStats,
        lu: &crate::replay::LuCost,
        eval_ns: f64,
        run_ms: f64,
        workers: usize,
    ) {
        let (ff, rf, ls) = (
            s.full_factors as f64,
            s.refactors as f64,
            s.linear_solves as f64,
        );
        self.lu_ms += (ff * lu.factor_us + rf * lu.refactor_us + ls * lu.solve_us) / 1e3;
        self.dev_ms += s.device_evals as f64 * eval_ns / 1e6;
        self.run_ms += run_ms * workers as f64;
        self.refactor_us.0 += rf * lu.refactor_us;
        self.refactor_us.1 += rf;
        self.solve_us.0 += ls * lu.solve_us;
        self.solve_us.1 += ls;
        self.eval_ns.0 += s.device_evals as f64 * eval_ns;
        self.eval_ns.1 += s.device_evals as f64;
    }

    pub fn metrics(&self, out: &mut Values) {
        let ratio = |(a, b): (f64, f64)| if b > 0.0 { a / b } else { 0.0 };
        out.insert("numeric.refactor_us", ratio(self.refactor_us));
        out.insert("numeric.solve_us", ratio(self.solve_us));
        out.insert("devices.eval_ns", ratio(self.eval_ns));
        out.insert("numeric.busy_share", ratio((self.lu_ms, self.run_ms)));
        out.insert("devices.busy_share", ratio((self.dev_ms, self.run_ms)));
    }
}

/// FNV-1a over a dataset's names, axis and every column's bits: equal
/// digests mean bit-identical results, without keeping two large datasets
/// alive at once (which would show in `peak_rss_mb`).
pub fn digest(ds: &Dataset) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for name in ds.names() {
        eat(name.as_bytes());
        for v in ds.column(name).unwrap_or(&[]) {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    for v in ds.axis_values() {
        eat(&v.to_bits().to_le_bytes());
    }
    h
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
