//! `serve_study`: the shared-work, frontend-heavy path. One client in a
//! closed loop calls `handle_line` in-process on a `SimService` with
//! default options, sending a seeded JSON-lines mix of Table I mesh decks
//! (sizes 10–20: more topologies than the session pool holds, so cold
//! requests recur) in four classes: cold submits, warm submits (same
//! topology, new parameters, so the pooled session rebinds), identical
//! resubmits (result-cache hits) and `result` fetches. The JSON codec,
//! fingerprinting, parse, lint and the pool and cache carry most of the
//! time; the engine carries little.
//!
//! The loop runs in episodes: each starts a fresh service and sends
//! [`EPISODE`] requests, so the working set, and the process's memory, is
//! the same in every run however many episodes fit in it.

use crate::json::quote;
use crate::replay::{self, LuCost};
use crate::rng::Rng;
use crate::run::{add_engine, digest, BusyModel, Check, Job, Values, Workload};
use crate::stats::mean;
use crate::trace::Tracer;
use nanosim::circuit::{lint_circuit, parse_netlist, parse_netlist_with_params};
use nanosim::core::{Analysis, Dataset, Simulator};
use nanosim::serve::{self, handle_line, DeckKey, RunId, ServiceOptions, SimService, TopologyKey};
use std::collections::BTreeMap;
use std::time::Instant;

pub const SIZES: std::ops::RangeInclusive<usize> = 10..=20;
/// Requests per episode (one round): per mesh size a cold submit, a warm
/// submit, an identical resubmit and a fetch, plus one more fetch. Every
/// episode has the same mix, so the latency quantiles of runs with
/// different seeds are comparable, and an odd count keeps the median
/// inside one request's latency instead of between two.
pub const EPISODE: usize = 4 * 11 + 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Cold,
    Warm,
    Hit,
    Fetch,
}

/// One request of an episode, with what the client expects of it.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub class: Class,
    pub line: String,
    /// Mesh size and `(rgrid, rfeed)` of a submit.
    pub deck: Option<(usize, f64, f64)>,
    /// The run id a submit will be given (ids count from 1 per service).
    pub run: Option<u64>,
    /// For a hit: the index of the request it repeats.
    pub repeats: Option<usize>,
}

/// Draws episodes. Each episode visits the mesh sizes in a drawn order;
/// for each size it sends a cold submit (a topology the fresh service has
/// not seen), a warm submit with new parameters (the pooled session
/// rebinds), a resubmit identical to one of the two (a result-cache hit)
/// and a fetch of one of that size's runs. A last fetch reads any earlier
/// run. Sizes outnumber the session pool, so sessions are evicted as the
/// episode goes on.
#[derive(Debug, Clone)]
pub struct Episodes {
    rng: Rng,
    decks: BTreeMap<usize, String>,
}

impl Episodes {
    pub fn new(seed: u64) -> Episodes {
        let decks = SIZES
            .map(|n| {
                let mut q = String::new();
                quote(&nanosim::workloads::rtd_mesh_param_deck(n), &mut q);
                (n, q)
            })
            .collect();
        Episodes {
            rng: Rng::new(seed),
            decks,
        }
    }

    fn submit_line(&self, n: usize, rgrid: f64, rfeed: f64) -> String {
        format!(
            "{{\"cmd\":\"submit\",\"deck\":{},\"params\":{{\"rgrid\":{rgrid},\"rfeed\":{rfeed}}}}}",
            self.decks[&n]
        )
    }

    pub fn next(&mut self) -> Vec<Request> {
        let mut sizes: Vec<usize> = SIZES.collect();
        self.rng.shuffle(&mut sizes);
        let mut out: Vec<Request> = Vec::with_capacity(EPISODE);
        let mut runs = 0;
        let mut submit = |out: &mut Vec<Request>, class, deck: (usize, f64, f64), line, repeats| {
            runs += 1;
            out.push(Request {
                class,
                line,
                deck: Some(deck),
                run: Some(runs),
                repeats,
            });
        };
        let fetch = |of: u64| Request {
            class: Class::Fetch,
            line: format!("{{\"cmd\":\"result\",\"run\":{of}}}"),
            deck: None,
            run: None,
            repeats: None,
        };
        for n in sizes {
            let first = out.len();
            for class in [Class::Cold, Class::Warm] {
                let (rgrid, rfeed) = (self.rng.value(60.0, 160.0), self.rng.value(25.0, 100.0));
                let line = self.submit_line(n, rgrid, rfeed);
                submit(&mut out, class, (n, rgrid, rfeed), line, None);
            }
            let orig = first + self.rng.below(2);
            let (deck, line) = (out[orig].deck.expect("a submit"), out[orig].line.clone());
            submit(&mut out, Class::Hit, deck, line, Some(orig));
            let of = out[first + self.rng.below(3)].run.expect("a submit");
            out.push(fetch(of));
        }
        out.push(fetch(1 + self.rng.below(runs as usize) as u64));
        out
    }
}

fn realized(class: Class, response: &str) -> &'static str {
    if class == Class::Fetch {
        return "fetch";
    }
    match response
        .split("\"cache\":\"")
        .nth(1)
        .and_then(|r| r.split('"').next())
    {
        Some("cold") => "cold",
        Some("warm") => "warm",
        Some("same-deck") => "same-deck",
        Some("result-hit") => "hit",
        _ => "unknown",
    }
}

/// The run id in a submit response (`{"ok":true,"runs":[{"run":N,...`).
fn response_run(response: &str) -> Option<u64> {
    let rest = response.split("\"run\":").nth(1)?;
    rest.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// Runs a replay and returns its result with its duration in ms; `None`
/// with tracing off.
fn timed<T>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> Option<(T, f64)> {
    let out = tracer.replay(name, f)?;
    let ms = tracer.spans().last().map_or(0.0, |s| s.ns() as f64 / 1e6);
    Some((out, ms))
}

/// Replays, beside one served request, the public functions `handle_line`
/// runs inside: the JSON codec, deck parse, fingerprints, and for requests
/// that reach the engine, lint plus `Simulator::new` or `rebind` plus
/// `run` on the benchmark's own session of that topology. Returns each
/// replay's name and ms.
fn replay_request(
    decks: &BTreeMap<usize, String>,
    sims: &mut BTreeMap<usize, Simulator>,
    req: &Request,
    class: &'static str,
    response: &str,
    tracer: &mut Tracer,
) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    if let Some((_, ms)) = timed(tracer, "serve.json_parse", || serve::json::parse(&req.line)) {
        out.push(("serve.json_parse", ms));
    }
    if let Ok(v) = serve::json::parse(response) {
        if let Some((_, ms)) = timed(tracer, "serve.json_render", || v.render()) {
            out.push(("serve.json_render", ms));
        }
    }
    let Some((n, rgrid, rfeed)) = req.deck else {
        return out;
    };
    let overrides = [("rgrid".to_string(), rgrid), ("rfeed".to_string(), rfeed)];
    let Some((Ok(parsed), ms)) = timed(tracer, "circuit.parse", || {
        parse_netlist_with_params(&decks[&n], &overrides)
    }) else {
        return out;
    };
    out.push(("circuit.parse", ms));
    let circuit = parsed.circuit;
    if let Some((_, ms)) = timed(tracer, "serve.key", || {
        (DeckKey::of(&circuit), TopologyKey::of(&circuit))
    }) {
        out.push(("serve.key", ms));
    }
    if class != "cold" && class != "warm" {
        return out;
    }
    if let Some((_, ms)) = timed(tracer, "circuit.lint", || lint_circuit(&circuit)) {
        out.push(("circuit.lint", ms));
    }
    let warm = class == "warm" && sims.contains_key(&n);
    if warm {
        let sim = sims.get_mut(&n).expect("checked above");
        if let Some((_, ms)) = timed(tracer, "sim.rebind", || sim.rebind(circuit)) {
            out.push(("sim.rebind", ms));
        }
    } else if let Some((Ok(sim), ms)) = timed(tracer, "sim.new", || Simulator::new(circuit)) {
        if class == "cold" {
            out.push(("sim.new", ms));
        }
        sims.insert(n, sim);
    }
    if let Some(sim) = sims.get_mut(&n) {
        if let Some((_, ms)) = timed(tracer, "sim.run", || {
            sim.run(Analysis::dc_sweep("V1", 0.0, 3.0, 0.5))
        }) {
            out.push(("sim.run", ms));
        }
    }
    out
}

/// What one served request did.
#[derive(Debug, Clone)]
struct Served {
    class: &'static str,
    run: Option<u64>,
    ms: f64,
    /// Sum of the replay estimates of the work inside `handle_line`.
    replays_ms: f64,
    /// The `Simulator::run` replay, for requests that reach the engine.
    run_ms: f64,
}

#[derive(Debug)]
pub struct ServeStudy {
    episodes: Episodes,
    /// Raw deck text per mesh size, for the replays.
    decks: BTreeMap<usize, String>,
    episode: Vec<Request>,
    served: Vec<Served>,
    svc: SimService,
    counters: Values,
    checks: Vec<Check>,
    /// Realised request-class shares of episode 0, from `ServeStats`.
    shares: Vec<(&'static str, f64)>,
    /// The benchmark's own session per mesh size, for the replays.
    sims: BTreeMap<usize, Simulator>,
    /// Every replay of the traced pass: (replay, request class, ms).
    breakdown: Vec<(&'static str, &'static str, f64)>,
    /// Every request of the traced pass.
    traced: Vec<Served>,
    /// Episode-0 engine runs: mesh size, engine stats, run replay ms.
    round0: Vec<(usize, nanosim::core::EngineStats, f64)>,
}

impl ServeStudy {
    fn dataset(&mut self, id: u64) -> Option<Dataset> {
        let rec = self.svc.result(RunId(id)).ok()?;
        rec.result.as_ref().map(|r| r.dataset.clone())
    }

    /// Takes episode 0's counters from the service and its runs.
    fn count_episode(&mut self) {
        let st = self.svc.stats().clone();
        for (k, v) in [
            ("serve.result_hits", st.result_hits),
            ("serve.result_misses", st.result_misses),
            ("serve.session_cold", st.session_cold),
            ("serve.session_warm", st.session_warm),
            ("serve.session_same_deck", st.session_same_deck),
            ("serve.store_evictions", st.store_evictions),
            ("serve.errors", st.errors),
            ("serve.shed", st.shed),
        ] {
            self.counters.insert(k, v as f64);
        }
        let requests = st.requests.max(1) as f64;
        self.shares = vec![
            ("cold", st.session_cold as f64 / requests),
            ("warm", st.session_warm as f64 / requests),
            ("same-deck", st.session_same_deck as f64 / requests),
            ("hit", st.result_hits as f64 / requests),
            (
                "fetch",
                st.requests.saturating_sub(st.runs) as f64 / requests,
            ),
        ];
        let mut elements: BTreeMap<usize, f64> = BTreeMap::new();
        let mut total = 0.0;
        for k in 0..self.served.len() {
            let (deck, s) = (self.episode[k].deck, self.served[k].clone());
            let Some((n, _, _)) = deck else { continue };
            let decks = &self.decks;
            total += *elements.entry(n).or_insert_with(|| {
                parse_netlist(&decks[&n]).map_or(0.0, |p| p.circuit.elements().len() as f64)
            });
            if s.class == "hit" {
                continue;
            }
            if let Some(ds) = s.run.and_then(|id| self.dataset(id)) {
                add_engine(&mut self.counters, &ds.stats, false);
                self.round0.push((n, ds.stats.clone(), s.run_ms));
            }
        }
        self.counters.insert("circuit.elements", total);
    }
}

impl Workload for ServeStudy {
    const NAME: &'static str = "serve_study";
    const TAIL: f64 = 95.0;

    fn new(seed: u64) -> ServeStudy {
        let mut episodes = Episodes::new(seed);
        let episode = episodes.next();
        let mut scratch = SimService::new(ServiceOptions::default());
        let warm = handle_line(&mut scratch, &episodes.submit_line(10, 100.0, 50.0));
        assert!(
            warm.starts_with("{\"ok\":true"),
            "warm-up request served: {warm}"
        );
        ServeStudy {
            decks: SIZES
                .map(|n| (n, nanosim::workloads::rtd_mesh_param_deck(n)))
                .collect(),
            episodes,
            episode,
            served: Vec::new(),
            svc: SimService::new(ServiceOptions::default()),
            counters: Values::new(),
            checks: Vec::new(),
            shares: Vec::new(),
            sims: BTreeMap::new(),
            breakdown: Vec::new(),
            traced: Vec::new(),
            round0: Vec::new(),
        }
    }

    fn round_len(&self) -> usize {
        EPISODE
    }

    fn job(&mut self, index: usize, tracer: &mut Tracer) -> Job {
        let k = index % EPISODE;
        if k == 0 && index > 0 {
            self.episode = self.episodes.next();
            self.served.clear();
            self.svc = SimService::new(ServiceOptions::default());
        }
        let t0 = Instant::now();
        let job_span = tracer.begin("job");
        let response = tracer.span("serve.handle_line", || {
            handle_line(&mut self.svc, &self.episode[k].line)
        });
        tracer.end(job_span);
        let ms = t0.elapsed().as_secs_f64() * 1e3;

        let req = self.episode[k].clone();
        let class = realized(req.class, &response);
        let mut ok = response.starts_with("{\"ok\":true");
        if !ok {
            let head: String = response.chars().take(300).collect();
            self.checks.push(Check::new(
                format!("request {index} ({class}) answered ok"),
                false,
                head,
            ));
        }
        let run = req.run.and(response_run(&response));
        if req.run.is_some() && run != req.run {
            ok = false;
            self.checks.push(Check::new(
                format!("request {index} run id"),
                false,
                format!("expected run {:?}, got {run:?}", req.run),
            ));
        }
        if let (Some(orig), Some(id)) = (req.repeats, run) {
            // A result hit must be bit-identical to the run it repeats.
            let first = self.served.get(orig).and_then(|s| s.run);
            let (a, b) = (self.dataset(id), first.and_then(|f| self.dataset(f)));
            let same = matches!((&a, &b), (Some(a), Some(b)) if digest(a) == digest(b));
            ok &= same;
            self.checks.push(Check::new(
                format!("request {index} ({class}) identical to its first run"),
                same,
                if same {
                    String::new()
                } else {
                    format!("run {id} differs from run {first:?}")
                },
            ));
        }
        let mut served = Served {
            class,
            run,
            ms,
            replays_ms: 0.0,
            run_ms: 0.0,
        };
        if tracer.enabled() {
            for (name, ms) in
                replay_request(&self.decks, &mut self.sims, &req, class, &response, tracer)
            {
                // new and rebind run lint inside, so lint is not added again.
                if name != "circuit.lint" {
                    served.replays_ms += ms;
                }
                if name == "sim.run" {
                    served.run_ms = ms;
                }
                self.breakdown.push((name, class, ms));
            }
            self.traced.push(served.clone());
        }
        self.served.push(served);
        if index == EPISODE - 1 {
            self.count_episode();
        }
        Job::new(class, ms, ok)
    }

    fn counters(&self) -> Values {
        self.counters.clone()
    }

    fn notes(&self) -> Vec<String> {
        let shares: Vec<String> = self
            .shares
            .iter()
            .map(|(c, x)| format!("{c} {x:.3}"))
            .collect();
        vec![format!(
            "realised request-class shares of episode 0 (ServeStats): {}",
            shares.join(", ")
        )]
    }

    fn checks(&self) -> &[Check] {
        &self.checks
    }

    fn layer(&mut self, _tracer: &Tracer, notes: &mut Vec<String>) -> Values {
        let replays = |name: &str, classes: &[&str]| -> Vec<f64> {
            self.breakdown
                .iter()
                .filter(|(n, c, _)| *n == name && (classes.is_empty() || classes.contains(c)))
                .map(|&(_, _, ms)| ms)
                .collect()
        };
        const SUBMITS: &[&str] = &["cold", "warm", "same-deck", "hit"];
        const ENGINE: &[&str] = &["cold", "warm", "same-deck"];
        let mut v = Values::new();
        v.insert(
            "serve.json_parse_ms",
            mean(&replays("serve.json_parse", SUBMITS)),
        );
        v.insert(
            "serve.json_render_ms",
            mean(&replays("serve.json_render", &[])),
        );
        v.insert("serve.key_ms", mean(&replays("serve.key", SUBMITS)));
        v.insert("circuit.parse_ms", mean(&replays("circuit.parse", SUBMITS)));
        v.insert("circuit.lint_ms", mean(&replays("circuit.lint", ENGINE)));
        let new = mean(&replays("sim.new", &["cold"])) - mean(&replays("circuit.lint", &["cold"]));
        v.insert("sim.new_ms", new.max(0.0));
        let rebind =
            mean(&replays("sim.rebind", &["warm"])) - mean(&replays("circuit.lint", &["warm"]));
        v.insert("sim.rebind_ms", rebind.max(0.0));
        v.insert("sim.run_ms", mean(&replays("sim.run", ENGINE)));
        let selfs: Vec<f64> = self
            .traced
            .iter()
            .map(|s| (s.ms - s.replays_ms).max(0.0))
            .collect();
        v.insert("serve.self_ms", mean(&selfs));
        notes.push(
            "serve.*_ms, circuit.*_ms and sim.*_ms are replay estimates timed beside handle_line; \
             sim.new_ms and sim.rebind_ms exclude the lint they run; serve.self_ms is handle_line \
             minus those replays"
                .to_string(),
        );
        for class in ["cold", "warm", "hit", "fetch"] {
            let of = |name: &str| mean(&replays(name, &[class]));
            let total: Vec<f64> = self
                .traced
                .iter()
                .filter(|s| s.class == class)
                .map(|s| s.ms)
                .collect();
            let own: Vec<f64> = self
                .traced
                .iter()
                .filter(|s| s.class == class)
                .map(|s| (s.ms - s.replays_ms).max(0.0))
                .collect();
            notes.push(format!(
                "{class} requests (traced, mean ms): handle_line {:.3} = json_parse {:.3} + parse {:.3} + keys {:.3} + new {:.3} + rebind {:.3} + run {:.3} + render {:.3} + self {:.3}",
                mean(&total),
                of("serve.json_parse"),
                of("circuit.parse"),
                of("serve.key"),
                of("sim.new"),
                of("sim.rebind"),
                of("sim.run"),
                of("serve.json_render"),
                mean(&own)
            ));
        }
        let mut busy = BusyModel::default();
        let mut costs: BTreeMap<usize, (LuCost, f64)> = BTreeMap::new();
        for (n, stats, run_ms) in &self.round0 {
            let (lu, eval) = *costs.entry(*n).or_insert_with(|| {
                let c = parse_netlist(&self.decks[n])
                    .expect("mesh deck parses")
                    .circuit;
                (replay::lu_cost(&c, None), replay::device_eval_ns(&c))
            });
            busy.add(stats, &lu, eval, *run_ms, 1);
        }
        busy.metrics(&mut v);
        for (k, why) in [
            (
                "circuit.lint_ratio_60_20",
                "serve_study meshes are 10 to 20 wide",
            ),
            (
                "sim.shard_speedup",
                "the service runs its sweeps serially by default",
            ),
            ("em.run_ms", "no EM ensembles in serve_study"),
            ("sde.wiener_ms", "no EM ensembles in serve_study"),
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
    fn same_seed_same_requests_other_seed_other_requests() {
        let draw = |seed| {
            let mut e = Episodes::new(seed);
            (e.next(), e.next())
        };
        assert_eq!(draw(11), draw(11));
        assert_ne!(draw(11).0, draw(12).0);
        let (first, second) = draw(13);
        assert_ne!(first, second, "episodes differ within a run");
        assert_eq!(first.len(), EPISODE);
        let count = |c| first.iter().filter(|r| r.class == c).count();
        assert_eq!(
            [
                count(Class::Cold),
                count(Class::Warm),
                count(Class::Hit),
                count(Class::Fetch)
            ],
            [11, 11, 11, 12],
            "every episode has the same mix"
        );
        for (k, r) in first.iter().enumerate() {
            if let Some(o) = r.repeats {
                assert!(
                    o < k && first[o].line == r.line,
                    "a hit repeats an earlier submit"
                );
            }
        }
    }

    #[test]
    fn responses_are_classified() {
        assert_eq!(
            realized(
                Class::Cold,
                r#"{"ok":true,"runs":[{"run":3,"cache":"result-hit"}]}"#
            ),
            "hit"
        );
        assert_eq!(
            response_run(r#"{"ok":true,"runs":[{"run":12,"analysis":"dc"}]}"#),
            Some(12)
        );
        assert_eq!(realized(Class::Fetch, "{}"), "fetch");
    }
}
