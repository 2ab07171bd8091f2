//! The Nano-Sim benchmark: one command runs a named workload with a seed,
//! prints every end-to-end metric (or, traced, every per-layer metric)
//! with its unit, checks the program's answers, and ends with one JSON
//! line. `BENCHMARK.json` at the repository root names the workloads and
//! metrics; `benchmark/README.md` explains how to run it.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload table1_dc --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --compare a.json b.json
//! ```

mod json;
mod metrics;
mod replay;
mod report;
mod rng;
mod run;
mod serve_study;
mod stats;
mod table1;
mod trace;
mod transient;

use report::Outcome;
use run::{pass, Workload};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

pub const WORKLOADS: [&str; 3] = ["table1_dc", "paper_transient", "serve_study"];

/// Set-up runs per benchmark run; `setup_s` is their median.
const SETUP_RUNS: usize = 9;

/// Wall-clock limits that keep a run well inside 180 seconds: the untraced
/// pass of a traced run, and the whole run.
const TRACED_FIRST_PASS: Duration = Duration::from_secs(65);
const WHOLE_RUN: Duration = Duration::from_secs(140);

const USAGE: &str = "usage: nanosim-perfbench --workload <table1_dc|paper_transient|serve_study> \
--seed <n> --seconds <s> --trace <0|1> [--out <result.json>]\n       \
nanosim-perfbench --compare <a.json> <b.json>\n       \
nanosim-perfbench --print-reference";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--out" => out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn execute<W: Workload>(args: &Args) -> Outcome {
    let start = Instant::now();
    let mut setup_s = Vec::new();
    let mut w = None;
    for _ in 0..SETUP_RUNS {
        drop(w.take());
        let t0 = Instant::now();
        w = Some(W::new(args.seed));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut w = w.expect("set up at least once");
    let first_deadline = start
        + if args.trace {
            TRACED_FIRST_PASS
        } else {
            WHOLE_RUN
        };
    let (jobs, host_probe_ms) = pass(
        &mut w,
        args.seconds,
        None,
        first_deadline,
        &mut Tracer::new(false),
    );
    let mut checks = w.checks().to_vec();
    let counters = w.counters();
    let mut notes = w.notes();
    let (traced, layer) = if args.trace {
        // The same jobs again on a fresh set-up, traced.
        drop(w);
        let mut w = W::new(args.seed);
        let mut tracer = Tracer::new(true);
        let (traced, _) = pass(
            &mut w,
            args.seconds,
            Some(jobs.len()),
            start + WHOLE_RUN,
            &mut tracer,
        );
        let layer = w.layer(&tracer, &mut notes);
        notes.push(format!(
            "job self time (job span minus the layer spans inside it): {:.3} ms mean",
            stats::mean(&tracer.self_ms("job"))
        ));
        checks.extend(w.checks().iter().cloned());
        if w.counters() != counters {
            checks.push(run::Check::new(
                "counters repeat exactly in the traced pass",
                false,
                "the traced pass's round 0 counted different work",
            ));
        }
        (Some(traced), layer)
    } else {
        (None, run::Values::new())
    };
    Outcome {
        workload: W::NAME,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tail: W::TAIL,
        setup_s,
        host_probe_ms,
        jobs,
        traced,
        // Counters of layers a workload does not use read 0.
        counters: metrics::COUNTERS
            .iter()
            .map(|&k| (k, counters.get(k).copied().unwrap_or(0.0)))
            .collect(),
        layer,
        checks,
        notes,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--compare") if argv.len() == 3 => return report::compare(&argv[1], &argv[2]),
        Some("--print-reference") if argv.len() == 1 => {
            print!("{}", transient::reference_text());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match args.workload.as_str() {
        "table1_dc" => execute::<table1::Table1>(&args),
        "paper_transient" => execute::<transient::PaperTransient>(&args),
        _ => execute::<serve_study::ServeStudy>(&args),
    };
    let e2e = outcome.end_to_end();
    let layer = args.trace.then(|| outcome.per_layer());
    outcome.print_human(&e2e, layer.as_ref());

    let path = args.out.clone().unwrap_or_else(|| {
        format!(
            ".bench_results/{}-seed{}-trace{}.json",
            args.workload,
            args.seed,
            u8::from(args.trace)
        )
    });
    if let Some(dir) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(
        &path,
        outcome.result_file(&e2e, layer.as_ref()).render() + "\n",
    ) {
        Ok(()) => println!("result file: {path}"),
        Err(e) => println!("result file not written ({path}: {e})"),
    }
    println!("{}", outcome.final_line(layer.as_ref().unwrap_or(&e2e)));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
