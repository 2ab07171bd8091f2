//! JSON-lines protocol over the [`SimService`].
//!
//! One request object per line in, one response object per line out.
//! Commands (the `cmd` member selects one):
//!
//! | cmd      | fields                                         | response |
//! |----------|------------------------------------------------|----------|
//! | `submit` | `deck`, opt. `params` (obj), `workers`, `timeout_ms`, `budget` (obj), `allow_partial`, `hold` | `runs`: per-directive `{run, analysis, status, cache, full_factors}` |
//! | `batch`  | `deck`, `grid` (array of objs) or `sweep` (obj of arrays), opt. `workers` | `runs` as above |
//! | `status` | `run`                                          | `{run, analysis, status[, error]}` |
//! | `result` | `run`, opt. `data` (bool, default true)        | status + dataset columns + engine stats |
//! | `cancel` | `run`                                          | `{run, cancelled}` |
//! | `run`    | `run`                                          | starts a held run; run summary |
//! | `stats`  | —                                              | [`crate::stats::ServeStats`] rendering + gauges |
//! | `evict`  | `run`                                          | `{run, evicted}` |
//!
//! The optional `budget` object takes `deadline_ms`, `max_newton_iterations`,
//! `max_transient_steps`, and `max_result_bytes`; `timeout_ms` is shorthand
//! for a deadline and intersects (minimum wins) with whichever budget
//! applies. Requests past the service's admission limits answer
//! `{"ok":false,"code":"overloaded",...}` without registering anything.
//!
//! Every response carries `"ok"`; failures are `{"ok":false,"error":{...}}`
//! with a structured [`ServeError`] body — junk input can never panic this
//! layer (property-tested).

use crate::error::ServeError;
use crate::json::{self, Json};
use crate::service::{BatchRequest, SimService, SubmitOptions};
use crate::store::{RunId, RunRecord, RunStatus};
use nanosim_core::Budget;
use std::time::Duration;

/// Handles one request line, returning exactly one JSON response line
/// (without trailing newline). Never panics; malformed input yields a
/// structured error response.
pub fn handle_line(svc: &mut SimService, line: &str) -> String {
    svc.stats_mut().requests += 1;
    let response = match dispatch(svc, line) {
        Ok(v) => v,
        Err(e) => {
            svc.stats_mut().errors += 1;
            e.to_response()
        }
    };
    response.render()
}

fn dispatch(svc: &mut SimService, line: &str) -> Result<Json, ServeError> {
    let req =
        json::parse(line.trim()).map_err(|m| ServeError::protocol(format!("bad JSON: {m}")))?;
    let cmd = req
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::protocol("request needs a string `cmd` member"))?;
    match cmd {
        "submit" => submit(svc, &req),
        "batch" => batch(svc, &req),
        "status" => status(svc, &req),
        "result" => result(svc, &req),
        "cancel" => cancel(svc, &req),
        "run" => run_held(svc, &req),
        "stats" => Ok(stats(svc)),
        "evict" => evict(svc, &req),
        other => Err(ServeError::protocol(format!("unknown cmd `{other}`"))),
    }
}

fn deck_of(req: &Json) -> Result<&str, ServeError> {
    req.get("deck")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::protocol("request needs a string `deck` member"))
}

fn workers_of(req: &Json) -> Result<Option<usize>, ServeError> {
    match req.get("workers") {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(|n| Some(n as usize))
            .ok_or_else(|| ServeError::protocol("`workers` must be a non-negative integer")),
    }
}

fn run_of(req: &Json) -> Result<RunId, ServeError> {
    req.get("run")
        .and_then(Json::as_u64)
        .map(RunId)
        .ok_or_else(|| ServeError::protocol("request needs an integer `run` member"))
}

fn overrides_of(v: &Json) -> Result<Vec<(String, f64)>, ServeError> {
    let members = v
        .as_object()
        .ok_or_else(|| ServeError::protocol("parameter overrides must be an object"))?;
    members
        .iter()
        .map(|(k, v)| {
            v.as_f64()
                .map(|v| (k.clone(), v))
                .ok_or_else(|| ServeError::protocol(format!("override `{k}` must be a number")))
        })
        .collect()
}

fn bool_of(req: &Json, key: &str) -> Result<bool, ServeError> {
    match req.get(key) {
        None => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| ServeError::protocol(format!("`{key}` must be a boolean"))),
    }
}

fn budget_limit(obj: &Json, key: &str) -> Result<Option<u64>, ServeError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| ServeError::protocol(format!("budget `{key}` must be an integer"))),
    }
}

/// Parses the optional `budget` object and `timeout_ms` member of a submit
/// request into [`SubmitOptions`] fields.
fn budget_of(req: &Json) -> Result<(Option<Budget>, Option<Duration>), ServeError> {
    let timeout = match req.get("timeout_ms") {
        None => None,
        Some(v) => Some(Duration::from_millis(v.as_u64().ok_or_else(|| {
            ServeError::protocol("`timeout_ms` must be a non-negative integer")
        })?)),
    };
    let budget = match req.get("budget") {
        None => None,
        Some(obj) => {
            if obj.as_object().is_none() {
                return Err(ServeError::protocol("`budget` must be an object"));
            }
            let mut b = Budget::unlimited();
            b.max_newton_iterations = budget_limit(obj, "max_newton_iterations")?;
            b.max_transient_steps = budget_limit(obj, "max_transient_steps")?;
            b.max_result_bytes = budget_limit(obj, "max_result_bytes")?;
            b.deadline = budget_limit(obj, "deadline_ms")?.map(Duration::from_millis);
            Some(b)
        }
    };
    Ok((budget, timeout))
}

fn submit(svc: &mut SimService, req: &Json) -> Result<Json, ServeError> {
    let deck = deck_of(req)?;
    let overrides = match req.get("params") {
        None => Vec::new(),
        Some(v) => overrides_of(v)?,
    };
    let workers = workers_of(req)?;
    let (budget, timeout) = budget_of(req)?;
    let opts = SubmitOptions {
        overrides,
        workers,
        timeout,
        budget,
        allow_partial: bool_of(req, "allow_partial")?,
        hold: bool_of(req, "hold")?,
    };
    let ids = svc.submit_with(deck, &opts)?;
    Ok(runs_response(svc, &ids))
}

fn cancel(svc: &mut SimService, req: &Json) -> Result<Json, ServeError> {
    let id = run_of(req)?;
    let cancelled = svc.cancel(id)?;
    Ok(Json::Obj(vec![
        ("ok".to_string(), Json::Bool(true)),
        ("run".to_string(), Json::from(id.0)),
        ("cancelled".to_string(), Json::Bool(cancelled)),
    ]))
}

fn run_held(svc: &mut SimService, req: &Json) -> Result<Json, ServeError> {
    let id = run_of(req)?;
    svc.run_queued(id)?;
    let rec = svc.status(id)?;
    let mut members = vec![("ok".to_string(), Json::Bool(true))];
    if let Json::Obj(rest) = run_summary(rec) {
        members.extend(rest);
    }
    Ok(Json::Obj(members))
}

fn batch(svc: &mut SimService, req: &Json) -> Result<Json, ServeError> {
    let deck = deck_of(req)?.to_string();
    let workers = workers_of(req)?;
    let grid = match (req.get("grid"), req.get("sweep")) {
        (Some(_), Some(_)) => {
            return Err(ServeError::protocol(
                "give either `grid` or `sweep`, not both",
            ));
        }
        (Some(g), None) => g
            .as_array()
            .ok_or_else(|| ServeError::protocol("`grid` must be an array of objects"))?
            .iter()
            .map(overrides_of)
            .collect::<Result<Vec<_>, _>>()?,
        (None, Some(s)) => {
            let axes = s
                .as_object()
                .ok_or_else(|| ServeError::protocol("`sweep` must be an object of arrays"))?
                .iter()
                .map(|(name, values)| {
                    let values = values
                        .as_array()
                        .ok_or_else(|| {
                            ServeError::protocol(format!("sweep axis `{name}` must be an array"))
                        })?
                        .iter()
                        .map(|v| {
                            v.as_f64().ok_or_else(|| {
                                ServeError::protocol(format!(
                                    "sweep axis `{name}` must contain numbers"
                                ))
                            })
                        })
                        .collect::<Result<Vec<f64>, _>>()?;
                    Ok((name.clone(), values))
                })
                .collect::<Result<Vec<_>, ServeError>>()?;
            crate::service::expand_axes(&axes)
        }
        (None, None) => {
            return Err(ServeError::protocol(
                "batch needs a `grid` or `sweep` member",
            ));
        }
    };
    let ids = svc.batch(&BatchRequest {
        deck,
        grid,
        workers,
    })?;
    Ok(runs_response(svc, &ids))
}

fn runs_response(svc: &SimService, ids: &[RunId]) -> Json {
    let runs = ids
        .iter()
        .map(|&id| {
            // Submitting registered the id; the record must exist.
            let rec = svc.status(id).expect("submitted run is registered");
            run_summary(rec)
        })
        .collect();
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(true)),
        ("runs".to_string(), Json::Arr(runs)),
    ])
}

fn run_summary(rec: &RunRecord) -> Json {
    let mut members = vec![
        ("run".to_string(), Json::from(rec.id.0)),
        ("analysis".to_string(), Json::str(rec.analysis)),
        ("status".to_string(), Json::str(rec.status.tag())),
    ];
    match &rec.status {
        RunStatus::Done => {
            members.push(("cache".to_string(), Json::str(rec.cache.tag())));
            members.push(("full_factors".to_string(), Json::from(rec.full_factors)));
            members.push(("refactors".to_string(), Json::from(rec.refactors)));
        }
        RunStatus::Failed { error } => {
            let serve_err = ServeError::Sim {
                error: (**error).clone(),
            };
            members.push(("error".to_string(), serve_err.to_json()));
        }
        RunStatus::Queued | RunStatus::Running | RunStatus::Cancelled => {}
    }
    members.push(("evicted".to_string(), Json::Bool(rec.evicted)));
    Json::Obj(members)
}

fn status(svc: &mut SimService, req: &Json) -> Result<Json, ServeError> {
    let id = run_of(req)?;
    let rec = svc.status(id)?;
    let mut members = vec![("ok".to_string(), Json::Bool(true))];
    if let Json::Obj(rest) = run_summary(rec) {
        members.extend(rest);
    }
    Ok(Json::Obj(members))
}

fn result(svc: &mut SimService, req: &Json) -> Result<Json, ServeError> {
    let id = run_of(req)?;
    let with_data = req.get("data").and_then(Json::as_bool).unwrap_or(true);
    let rec = svc.result(id)?;
    let mut members = vec![("ok".to_string(), Json::Bool(true))];
    if let Json::Obj(rest) = run_summary(rec) {
        members.extend(rest);
    }
    if let Some(payload) = &rec.result {
        members.push((
            "dataset".to_string(),
            dataset_json(&payload.dataset, with_data),
        ));
        members.push((
            "stats".to_string(),
            engine_stats_json(&payload.dataset.stats),
        ));
    }
    Ok(Json::Obj(members))
}

fn dataset_json(ds: &nanosim_core::Dataset, with_data: bool) -> Json {
    let mut members = vec![
        ("kind".to_string(), Json::str(ds.kind().as_str())),
        ("engine".to_string(), Json::str(ds.engine())),
        ("axis".to_string(), Json::str(ds.axis().label())),
        ("points".to_string(), Json::from(ds.points())),
        (
            "names".to_string(),
            Json::Arr(ds.names().iter().map(|n| Json::str(n.clone())).collect()),
        ),
    ];
    if with_data {
        members.push((
            "axis_values".to_string(),
            Json::Arr(ds.axis_values().iter().map(|&v| Json::Num(v)).collect()),
        ));
        let columns = ds
            .names()
            .iter()
            .map(|n| {
                let col = ds.column(n).unwrap_or(&[]);
                Json::Arr(col.iter().map(|&v| Json::Num(v)).collect())
            })
            .collect();
        members.push(("columns".to_string(), Json::Arr(columns)));
    }
    Json::Obj(members)
}

fn engine_stats_json(s: &nanosim_core::EngineStats) -> Json {
    Json::Obj(vec![
        ("steps".to_string(), Json::from(s.steps)),
        ("iterations".to_string(), Json::from(s.iterations)),
        ("linear_solves".to_string(), Json::from(s.linear_solves)),
        ("full_factors".to_string(), Json::from(s.full_factors)),
        ("refactors".to_string(), Json::from(s.refactors)),
        ("nnz_lu".to_string(), Json::from(s.nnz_lu)),
        ("fill_ratio".to_string(), Json::Num(s.fill_ratio)),
        ("supernodes".to_string(), Json::from(s.supernodes)),
        ("device_evals".to_string(), Json::from(s.device_evals)),
        ("rescues".to_string(), Json::from(s.rescues)),
        (
            "preflight_warnings".to_string(),
            Json::from(s.preflight_warnings),
        ),
        (
            "elapsed_ms".to_string(),
            Json::Num(s.elapsed.as_secs_f64() * 1e3),
        ),
    ])
}

fn stats(svc: &SimService) -> Json {
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(true)),
        ("stats".to_string(), svc.stats().to_json()),
        ("sessions".to_string(), Json::from(svc.sessions())),
        (
            "cached_results".to_string(),
            Json::from(svc.cached_results()),
        ),
        ("store_bytes".to_string(), Json::from(svc.store_bytes())),
    ])
}

fn evict(svc: &mut SimService, req: &Json) -> Result<Json, ServeError> {
    let id = run_of(req)?;
    let evicted = svc.evict(id)?;
    Ok(Json::Obj(vec![
        ("ok".to_string(), Json::Bool(true)),
        ("run".to_string(), Json::from(id.0)),
        ("evicted".to_string(), Json::Bool(evicted)),
    ]))
}

/// Volatile response fields that differ run-to-run (timings) or carry
/// deep diagnostic payloads (forensics): masked before golden-corpus
/// comparison.
pub const VOLATILE_KEYS: [&str; 3] = ["elapsed_ms", "forensics", "wall_clock"];

/// Replaces the values of [`VOLATILE_KEYS`] members (recursively) with
/// `"<masked>"`, so responses compare stably against a golden corpus.
/// Lines that are not valid JSON pass through unchanged.
pub fn mask_volatile(line: &str) -> String {
    match json::parse(line) {
        Ok(mut v) => {
            mask(&mut v);
            v.render()
        }
        Err(_) => line.to_string(),
    }
}

fn mask(v: &mut Json) {
    match v {
        Json::Obj(members) => {
            for (k, v) in members.iter_mut() {
                if VOLATILE_KEYS.contains(&k.as_str()) {
                    *v = Json::str("<masked>");
                } else {
                    mask(v);
                }
            }
        }
        Json::Arr(items) => items.iter_mut().for_each(mask),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_round_trip() {
        let mut svc = SimService::default();
        let r = handle_line(
            &mut svc,
            r#"{"cmd":"submit","deck":"V1 in 0 DC 1\nR1 in out 100\nR2 out 0 100\n.op\n.end\n"}"#,
        );
        assert!(r.contains("\"ok\":true") && r.contains("\"run\":1"), "{r}");
        let r = handle_line(&mut svc, r#"{"cmd":"result","run":1}"#);
        assert!(r.contains("\"columns\":[[0.5]") || r.contains("0.5"), "{r}");
        let r = handle_line(&mut svc, r#"{"cmd":"status","run":99}"#);
        assert!(
            r.contains("\"ok\":false") && r.contains("unknown-run"),
            "{r}"
        );
        let r = handle_line(&mut svc, "not json at all");
        assert!(r.contains("\"ok\":false") && r.contains("protocol"), "{r}");
        let r = handle_line(&mut svc, r#"{"cmd":"stats"}"#);
        assert!(r.contains("\"requests\":5"), "{r}");
    }

    #[test]
    fn masking_hides_volatile_fields_only() {
        let masked = mask_volatile(r#"{"ok":true,"stats":{"elapsed_ms":12.5,"steps":3}}"#);
        assert!(masked.contains("\"elapsed_ms\":\"<masked>\""), "{masked}");
        assert!(masked.contains("\"steps\":3"), "{masked}");
        assert_eq!(mask_volatile("junk"), "junk");
    }
}
