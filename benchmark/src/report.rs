//! The summary of one run: the human report, the result file, the final
//! JSON line, and compare mode over two result files.

use crate::json::{self, Value};
use crate::metrics::{COUNTERS, END_TO_END, PER_LAYER};
use crate::run::{class_p50, derived, peak_rss_mb, Check, Job, Timing, Values};
use crate::stats::median;
use std::process::ExitCode;

/// Everything one run measured.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tail: f64,
    pub setup_s: Vec<f64>,
    /// The host-speed probe at every round start of the untraced pass.
    pub host_probe_ms: Vec<f64>,
    /// The untraced pass: end-to-end metrics come from it.
    pub jobs: Vec<Job>,
    /// The traced pass over the same jobs (`--trace 1` only).
    pub traced: Option<Vec<Job>>,
    pub counters: Values,
    pub layer: Values,
    pub checks: Vec<Check>,
    pub notes: Vec<String>,
}

impl Outcome {
    fn all_jobs(&self) -> impl Iterator<Item = &Job> {
        self.jobs.iter().chain(self.traced.iter().flatten())
    }

    pub fn attempted(&self) -> usize {
        self.all_jobs().count()
    }

    pub fn failed(&self) -> usize {
        self.all_jobs().filter(|j| !j.ok).count()
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.checks.iter().all(|c| c.ok)
    }

    fn timing(&self) -> Timing {
        Timing::of(&self.jobs, self.tail)
    }

    pub fn end_to_end(&self) -> Values {
        let t = self.timing();
        let mut v = Values::new();
        v.insert("setup_s", median(&self.setup_s));
        v.insert("jobs_per_s", t.jobs_per_s);
        v.insert("job_ms_p50", t.p50_ms);
        v.insert("job_ms_tail", t.tail_ms);
        v.insert("peak_rss_mb", peak_rss_mb());
        v
    }

    /// Every per-layer metric; ones the workload has no number for are 0
    /// and explained in the notes.
    pub fn per_layer(&mut self) -> Values {
        let mut v = self.counters.clone();
        v.extend(derived(&self.counters));
        v.extend(self.layer.clone());
        let attempted = self.attempted().max(1) as f64;
        v.insert("fail_ratio", self.failed() as f64 / attempted);
        let classes = class_p50(&self.jobs);
        for (class, name) in [
            ("cold", "cold_ms_p50"),
            ("warm", "warm_ms_p50"),
            ("hit", "hit_ms_p50"),
            ("fetch", "fetch_ms_p50"),
        ] {
            match classes.iter().find(|c| c.0 == class) {
                Some(&(_, _, p50)) => {
                    v.insert(name, p50);
                }
                None => {
                    self.notes.push(format!(
                        "{name} = 0: not applicable ({} has no `{class}` requests; it is a serve_study class)",
                        self.workload
                    ));
                }
            }
        }
        if let Some(traced) = &self.traced {
            let base = Timing::of(&self.jobs, self.tail).p50_ms;
            let with = Timing::of(traced, self.tail).p50_ms;
            v.insert(
                "trace.overhead_pct",
                if base > 0.0 {
                    (with / base - 1.0) * 1e2
                } else {
                    0.0
                },
            );
        }
        for m in PER_LAYER {
            if !v.contains_key(m.name) {
                v.insert(m.name, 0.0);
                if !self.notes.iter().any(|n| n.starts_with(m.name)) {
                    self.notes
                        .push(format!("{} = 0: not measured on {}", m.name, self.workload));
                }
            }
        }
        v
    }

    pub fn print_human(&self, e2e: &Values, layer: Option<&Values>) {
        let t = self.timing();
        println!("== nanosim benchmark: workload {} ==", self.workload);
        println!(
            "seed {}  run_seconds {}  trace {}  available_parallelism {}  profile {}",
            self.seed,
            self.seconds,
            u8::from(self.trace),
            available_parallelism(),
            profile()
        );
        println!(
            "jobs {} (untraced pass), setup runs {}, job_ms_tail is p{}, host probe {:.3} ms",
            t.jobs,
            self.setup_s.len(),
            self.tail,
            median(&self.host_probe_ms)
        );
        println!("\nend-to-end (tracing off):");
        for m in END_TO_END {
            println!(
                "  {:<16} {:>14.4} {:<6} ({} is better)",
                m.name, e2e[m.name], m.unit, m.better
            );
        }
        println!(
            "  {:<16} {:>14.4} ratio  ({} failed or wrong of {} attempted)",
            "fail_ratio",
            self.failed() as f64 / self.attempted().max(1) as f64,
            self.failed(),
            self.attempted()
        );
        println!("\nlatency by job class (untraced pass):");
        for (class, n, p50) in class_p50(&self.jobs) {
            println!("  {class:<16} n={n:<5} p50 {p50:>10.3} ms");
        }
        println!("\ndeterministic counters (counter pass = round 0; compare mode gates on these):");
        for (k, v) in &self.counters {
            println!("  {k:<28} {}", json::number(*v));
        }
        if let Some(layer) = layer {
            println!("\nper-layer (traced pass; *_ms/_us/_ns of replays are replay estimates):");
            for m in PER_LAYER {
                println!(
                    "  {:<28} {:>16} {:<6} [{}] should move: {}",
                    m.name,
                    json::number(layer[m.name]),
                    m.unit,
                    m.layer,
                    m.moves
                );
            }
        }
        let passed = self.checks.iter().filter(|c| c.ok).count();
        println!("\nchecks: {passed} of {} passed", self.checks.len());
        for c in self.checks.iter().filter(|c| !c.ok) {
            println!("  FAILED {}: {}", c.name, c.detail);
        }
        for n in &self.notes {
            println!("note: {n}");
        }
    }

    pub fn result_file(&self, e2e: &Values, layer: Option<&Values>) -> Value {
        let obj = |v: &Values| {
            Value::Obj(
                v.iter()
                    .map(|(k, x)| (k.to_string(), Value::Num(*x)))
                    .collect(),
            )
        };
        let t = self.timing();
        let mut members = vec![
            ("workload".to_string(), Value::Str(self.workload.into())),
            ("seed".to_string(), Value::Num(self.seed as f64)),
            (
                "meta".to_string(),
                Value::Obj(vec![
                    (
                        "available_parallelism".into(),
                        Value::Num(available_parallelism() as f64),
                    ),
                    ("profile".into(), Value::Str(profile().into())),
                    ("run_seconds".into(), Value::Num(self.seconds)),
                    ("trace".into(), Value::Bool(self.trace)),
                    ("jobs".into(), Value::Num(t.jobs as f64)),
                    (
                        "host_probe_ms".into(),
                        Value::Num(median(&self.host_probe_ms)),
                    ),
                    ("attempted".into(), Value::Num(self.attempted() as f64)),
                    ("failed".into(), Value::Num(self.failed() as f64)),
                    ("tail_percentile".into(), Value::Num(self.tail)),
                    ("setup_runs".into(), Value::Num(self.setup_s.len() as f64)),
                ]),
            ),
            ("end_to_end".to_string(), obj(e2e)),
            ("counters".to_string(), obj(&self.counters)),
            (
                "classes".to_string(),
                Value::Obj(
                    class_p50(&self.jobs)
                        .into_iter()
                        .map(|(c, n, p50)| {
                            (
                                c.to_string(),
                                Value::Obj(vec![
                                    ("jobs".into(), Value::Num(n as f64)),
                                    ("p50_ms".into(), Value::Num(p50)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(layer) = layer {
            members.push(("per_layer".to_string(), obj(layer)));
        }
        members.push((
            "failed_checks".to_string(),
            Value::Arr(
                self.checks
                    .iter()
                    .filter(|c| !c.ok)
                    .map(|c| Value::Str(format!("{}: {}", c.name, c.detail)))
                    .collect(),
            ),
        ));
        members.push((
            "notes".to_string(),
            Value::Arr(self.notes.iter().map(|n| Value::Str(n.clone())).collect()),
        ));
        Value::Obj(members)
    }

    /// The last line of standard output: `correct`, `attempted`, `failed`
    /// and every metric of the mode with its unit.
    pub fn final_line(&self, metrics: &Values) -> String {
        let list = if self.trace { PER_LAYER } else { END_TO_END };
        let members = list
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::Obj(vec![
                        ("value".into(), Value::Num(metrics[m.name])),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Num(self.attempted() as f64)),
            ("failed".into(), Value::Num(self.failed() as f64)),
            ("metrics".into(), Value::Obj(members)),
        ])
        .render()
    }
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Compares two result files of the same workload and seed: fails on any
/// drift of a deterministic counter, and only prints wall-clock changes.
pub fn compare(a: &str, b: &str) -> ExitCode {
    let (ra, rb) = match (load(a), load(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let field = |r: &Value, k: &str| r.get(k).map(Value::render).unwrap_or_default();
    for k in ["workload", "seed"] {
        if field(&ra, k) != field(&rb, k) {
            eprintln!(
                "compare: {k} differs ({} vs {}); counters are only comparable for one workload and seed",
                field(&ra, k),
                field(&rb, k)
            );
            return ExitCode::from(2);
        }
    }
    println!("counters ({a} -> {b}):");
    let mut drift = 0;
    for name in COUNTERS {
        let get = |r: &Value| {
            r.get("counters")
                .and_then(|c| c.get(name))
                .and_then(Value::as_f64)
        };
        let (x, y) = (get(&ra), get(&rb));
        let same = x.map(f64::to_bits) == y.map(f64::to_bits);
        if !same {
            drift += 1;
        }
        println!(
            "  {} {name:<28} {} -> {}",
            if same { "  " } else { "!!" },
            x.map_or("missing".into(), json::number),
            y.map_or("missing".into(), json::number)
        );
    }
    println!("wall clock (informational, never gated here):");
    let probe = |r: &Value| {
        r.get("meta")
            .and_then(|m| m.get("host_probe_ms"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    println!(
        "     {:<28} {:>12.4} -> {:>12.4} ms     (host speed, not the program)",
        "host_probe_ms",
        probe(&ra),
        probe(&rb)
    );
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let get = |r: &Value| {
            ["end_to_end", "per_layer"]
                .iter()
                .find_map(|s| r.get(s).and_then(|o| o.get(m.name)).and_then(Value::as_f64))
        };
        if COUNTERS.contains(&m.name) {
            continue;
        }
        if let (Some(x), Some(y)) = (get(&ra), get(&rb)) {
            let delta = if x != 0.0 {
                format!("{:+.1}%", (y / x - 1.0) * 1e2)
            } else {
                "-".into()
            };
            println!(
                "     {:<28} {x:>12.4} -> {y:>12.4} {:<6} {delta}",
                m.name, m.unit
            );
        }
    }
    if drift > 0 {
        println!("FAIL: {drift} counter(s) drifted");
        ExitCode::FAILURE
    } else {
        println!("OK: all {} counters identical", COUNTERS.len());
        ExitCode::SUCCESS
    }
}
