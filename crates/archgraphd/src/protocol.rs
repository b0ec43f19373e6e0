//! The line-delimited JSON wire protocol.
//!
//! Every request is one JSON object on one line; every response is one
//! JSON object on one line. Malformed input produces a structured
//! `{"type":"error",...}` response and *keeps the connection open* —
//! a typo must not cost a client its stream.
//!
//! # Requests
//!
//! ```text
//! {"op":"ping"}
//! {"op":"status"}
//! {"op":"shutdown"}
//! {"op":"cancel","job":"j1"}
//! {"op":"list"}
//! {"op":"submit","cells":[ <spec>, ... ]}
//! {"op":"submit","cells":[ <spec>, ... ],"budget_cycles":N}
//! {"op":"submit","cells":[ <spec>, ... ],"budget_host_ms":N}
//! ```
//!
//! A cell `<spec>` is either a bench-suite reference
//! `{"cell":"fig2/mta/p8"}` or a structured spec
//! `{"kernel":"color","machine":"mta","p":8,"n":2048,"m":10240}`.
//! Both forms accept the optional overrides `engine`, `p`, `n`, `m`,
//! `max_cycles`, and `faults`. `engine` takes `trace`, `single-step`,
//! `compiled` and `partitioned`, four labels for the one issue loop (an
//! unknown name is still an error) that change nothing about the run;
//! `workers` (1..=256) is still accepted, range-checked and otherwise
//! discarded — it set the worker count of the removed partitioned engine,
//! and requests that carry it stay valid. Unknown keys are rejected — a
//! misspelled override must not silently run the wrong experiment.
//!
//! # Responses
//!
//! `submit` may carry an optional `budget_cycles` quota: the job's
//! cells are metered against it and fail with a structured
//! `BudgetExceeded` error once it runs out (cache hits are free). An
//! optional `budget_host_ms` caps the job's *host* wall-clock instead:
//! simulated cycles say nothing about how long a pathological spec
//! occupies a worker, so the host cap is checked at every cell boundary
//! and the remaining cells fail with the same structured error shape.
//! The two budgets compose; either alone may be present.
//!
//! `list` answers one `{"type":"list","cells":[...]}` line enumerating
//! the bench suite with each cell's content-address `key` and a
//! `cached` flag, so clients can discover runnable cells (and what is
//! already warm) without shelling out to `--bin bench`.
//!
//! `submit` answers `{"type":"accepted","job":"j1","cells":N}`, then
//! streams one `{"type":"cell",...}` line per cell in completion order
//! (carrying the spec's content-address `key`, a `cached` flag, and the
//! `sim` fingerprint rendered byte-identically to bench JSON — or an
//! `error` / `"cancelled":true` marker), and terminates with one
//! `{"type":"done",...}` summary line. The other ops answer with a
//! single line (`pong`, `status`, `bye`, `cancelled`).
//!
//! Reached by: every `archgraphd` op (request parsing and reply lines).

use archgraph_bench::cells::{self, CellSpec, Kernel, MachineKind};

use crate::json::{escape, push_sim, push_uint, Json};
use crate::queue::{CellEvent, CellStatus, JobSummary, ListEntry, Snapshot};

/// A parsed, validated client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Scheduler counters.
    Status,
    /// Graceful daemon shutdown.
    Shutdown,
    /// Cancel a job by id.
    Cancel {
        /// The job id from the `accepted` response.
        job: String,
    },
    /// Enumerate the bench suite with cache status.
    List,
    /// Run a batch of cells.
    Submit {
        /// Validated cell specs, in submit order.
        cells: Vec<CellSpec>,
        /// Optional cycle quota for the whole job.
        budget_cycles: Option<u64>,
        /// Optional host wall-clock cap (milliseconds) for the whole job.
        budget_host_ms: Option<u64>,
    },
}

/// Parse and validate one request line. The error string is ready to be
/// wrapped in an [`error`] response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = Json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
    let obj = v.as_obj().ok_or("request must be a JSON object")?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or("request needs a string \"op\" field")?;
    match op {
        "ping" => Ok(Request::Ping),
        "status" => Ok(Request::Status),
        "shutdown" => Ok(Request::Shutdown),
        "list" => Ok(Request::List),
        "cancel" => {
            let job = v
                .get("job")
                .and_then(Json::as_str)
                .ok_or("cancel needs a string \"job\" field")?;
            Ok(Request::Cancel {
                job: job.to_string(),
            })
        }
        "submit" => {
            let cells_json = v
                .get("cells")
                .and_then(Json::as_arr)
                .ok_or("submit needs a \"cells\" array")?;
            if cells_json.is_empty() {
                return Err("submit needs at least one cell".into());
            }
            if obj.keys().any(|k| !SUBMIT_KEYS.contains(&k.as_str())) {
                return Err("submit accepts only \"op\", \"cells\", \"budget_cycles\", \
                            and \"budget_host_ms\""
                    .into());
            }
            let budget_cycles = uint(v.get("budget_cycles"), "budget_cycles")?;
            let budget_host_ms = uint(v.get("budget_host_ms"), "budget_host_ms")?;
            let mut specs = Vec::with_capacity(cells_json.len());
            for (i, cj) in cells_json.iter().enumerate() {
                specs.push(parse_spec(cj).map_err(|e| format!("cells[{i}]: {e}"))?);
            }
            Ok(Request::Submit {
                cells: specs,
                budget_cycles,
                budget_host_ms,
            })
        }
        other => Err(format!(
            "unknown op {other:?} (expected ping, status, shutdown, cancel, list, submit)"
        )),
    }
}

/// Every key a `submit` may carry.
const SUBMIT_KEYS: [&str; 4] = ["op", "cells", "budget_cycles", "budget_host_ms"];

/// Every key a cell spec may carry; anything else is a rejected typo.
const SPEC_KEYS: [&str; 10] = [
    "cell",
    "kernel",
    "machine",
    "engine",
    "workers",
    "p",
    "n",
    "m",
    "max_cycles",
    "faults",
];

/// The optional member `key`, given as `j`, as an exact unsigned integer
/// that fits `T`.
fn uint<T: TryFrom<u64>>(j: Option<&Json>, key: &str) -> Result<Option<T>, String> {
    let as_t = |j: &Json| j.as_u64().and_then(|u| T::try_from(u).ok());
    j.map(|j| as_t(j).ok_or_else(|| format!("\"{key}\" must be a non-negative integer")))
        .transpose()
}

/// Parse one cell spec (bench-suite reference or structured form),
/// apply overrides, and validate the result.
pub fn parse_spec(v: &Json) -> Result<CellSpec, String> {
    let obj = v.as_obj().ok_or("cell spec must be a JSON object")?;
    // One pass over the members, each to its key's slot; the first unknown
    // key in name order is the one reported.
    let mut slots = [None; SPEC_KEYS.len()];
    for (k, member) in obj {
        let at = SPEC_KEYS.iter().position(|known| known == k);
        slots[at.ok_or_else(|| format!("unknown spec key {k:?}"))?] = Some(member);
    }
    let [cell, kernel, machine, engine, workers, p, n, m, max_cycles, faults] = slots;

    let mut spec = if let Some(cell) = cell {
        let name = cell.as_str().ok_or("\"cell\" must be a string")?;
        if kernel.is_some() || machine.is_some() {
            return Err("give either \"cell\" or \"kernel\"/\"machine\", not both".into());
        }
        cells::find(name).ok_or_else(|| format!("unknown bench cell {name:?}"))?
    } else {
        let kernel_name = kernel
            .and_then(Json::as_str)
            .ok_or("spec needs \"cell\" or \"kernel\"")?;
        let kernel =
            Kernel::parse(kernel_name).ok_or_else(|| format!("unknown kernel {kernel_name:?}"))?;
        let machine_name = machine.and_then(Json::as_str).unwrap_or("mta");
        let machine = MachineKind::parse(machine_name)
            .ok_or_else(|| format!("unknown machine {machine_name:?}"))?;
        let default_p = if machine == MachineKind::Native { 0 } else { 8 };
        CellSpec::new(kernel, machine, default_p)
    };

    if let Some(p) = uint(p, "p")? {
        spec.p = p;
    }
    if let Some(n) = uint(n, "n")? {
        spec.n = n;
    }
    if let Some(m) = uint(m, "m")? {
        spec.m = m;
    }
    // Accepted for old clients, checked because it is outside input, and
    // then dropped: nothing reads a worker count any more.
    if let Some(w) = uint::<usize>(workers, "workers")? {
        if w == 0 || w > 256 {
            return Err(format!("workers={w} out of range (1..=256)"));
        }
    }
    // Its own, older wording: error texts are part of the protocol.
    if let Some(b) =
        uint(max_cycles, "max_cycles").map_err(|_| "\"max_cycles\" must be an integer")?
    {
        spec.max_cycles = Some(b);
    }
    if let Some(e) = engine {
        let name = e.as_str().ok_or("\"engine\" must be a string")?;
        spec.engine =
            Some(cells::parse_engine(name).ok_or_else(|| format!("unknown engine {name:?}"))?);
    }
    if let Some(f) = faults {
        spec.faults = Some(
            f.as_str()
                .ok_or("\"faults\" must be a string (\"<spec>:<seed>\")")?
                .to_string(),
        );
    }

    spec.validate()?;
    Ok(spec)
}

/// `{"type":"pong"}`
pub fn pong() -> String {
    r#"{"type":"pong"}"#.to_string()
}

/// `{"type":"bye"}` — acknowledged shutdown.
pub fn bye() -> String {
    r#"{"type":"bye"}"#.to_string()
}

/// `{"type":"error","message":...}`
pub fn error(message: &str) -> String {
    format!(r#"{{"type":"error","message":"{}"}}"#, escape(message))
}

/// `{"type":"accepted","job":...,"cells":N}`
pub fn accepted(job: &str, cells: usize) -> String {
    format!(
        r#"{{"type":"accepted","job":"{}","cells":{cells}}}"#,
        escape(job)
    )
}

/// `{"type":"cancelled","job":...}`
pub fn cancelled(job: &str) -> String {
    format!(r#"{{"type":"cancelled","job":"{}"}}"#, escape(job))
}

/// `{"type":"status",...}` — scheduler counters, the result-cache
/// footprint and lifetime eviction counters, then the `stages` object: per
/// request and cell stage (`crate::stages`), `{"count":N,"sum_ns":N,
/// "log2_us":[...]}`.
pub fn status(snap: &Snapshot) -> String {
    let mut out = format!(
        concat!(
            r#"{{"type":"status","workers":{},"queued":{},"inflight":{},"#,
            r#""active_jobs":{},"jobs":{},"cells_run":{},"cache_hits":{},"failures":{},"#,
            r#""cache_entries":{},"cache_bytes":{},"evictions":{},"evicted_bytes":{},"#,
            r#""stages":{{"#
        ),
        snap.workers,
        snap.queued,
        snap.inflight,
        snap.active_jobs,
        snap.stats.jobs,
        snap.stats.cells_run,
        snap.stats.cache_hits,
        snap.stats.failures,
        snap.cache.entries,
        snap.cache.bytes,
        snap.cache.evictions,
        snap.cache.evicted_bytes,
    );
    for (i, (name, counts)) in snap.stages.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(name);
        out.push_str(r#"":{"count":"#);
        push_uint(&mut out, counts.count);
        out.push_str(r#","sum_ns":"#);
        push_uint(&mut out, counts.sum_ns);
        out.push_str(r#","log2_us":["#);
        for (b, n) in counts.buckets.iter().enumerate() {
            if b > 0 {
                out.push(',');
            }
            push_uint(&mut out, *n);
        }
        out.push_str("]}");
    }
    out.push_str("}}");
    out
}

/// `{"type":"list","cells":[{"name":...,"key":...,"cached":...},...]}` —
/// the bench suite with per-cell cache status, on one line.
pub fn list_line(entries: &[ListEntry]) -> String {
    let mut out = String::from(r#"{"type":"list","cells":["#);
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            r#"{{"name":"{}","key":"{}","cached":{}}}"#,
            escape(&e.name),
            escape(&e.key),
            e.cached
        ));
    }
    out.push_str("]}");
    out
}

/// One streamed cell-result line. The `sim` sub-object is rendered
/// byte-identically to the bench driver's JSON (`{ "k": v, ... }`) so
/// `tests/daemon.rs` can diff daemon output against `BENCH_archgraph.json`.
/// Written piece by piece into one buffer sized up front: a warm resubmit
/// renders one of these per cell.
pub fn cell_line(job: &str, ev: &CellEvent) -> String {
    // The fixed text with a 20-digit index and the longest status tail,
    // less the sim's or the error's own bytes.
    const FIXED: usize = 104;
    let tail = match &ev.status {
        // `"label": ` plus up to 20 digits and `, `.
        CellStatus::Done { sim, .. } => sim.iter().map(|(k, _)| k.len() + 26).sum(),
        CellStatus::Failed { error } => error.len(),
        CellStatus::Cancelled => 0,
    };
    let mut out = String::with_capacity(FIXED + job.len() + ev.name.len() + ev.key.len() + tail);
    out.push_str(r#"{"type":"cell","job":""#);
    push_escaped(&mut out, job);
    out.push_str(r#"","index":"#);
    push_uint(&mut out, ev.index as u64);
    out.push_str(r#","name":""#);
    push_escaped(&mut out, &ev.name);
    out.push_str(r#"","key":""#);
    push_escaped(&mut out, &ev.key);
    match &ev.status {
        CellStatus::Done { sim, cached } => {
            out.push_str(if *cached {
                r#"","cached":true,"sim":"#
            } else {
                r#"","cached":false,"sim":"#
            });
            push_sim(&mut out, sim);
            out.push('}');
        }
        CellStatus::Failed { error } => {
            out.push_str(r#"","error":""#);
            push_escaped(&mut out, error);
            out.push_str("\"}");
        }
        CellStatus::Cancelled => out.push_str(r#"","cancelled":true}"#),
    }
    out
}

/// The terminal job-summary line, written like [`cell_line`].
pub fn done_line(job: &str, s: &JobSummary) -> String {
    let mut out = String::with_capacity(176 + job.len());
    out.push_str(r#"{"type":"done","job":""#);
    push_escaped(&mut out, job);
    for (field, count) in [
        (r#"","cells":"#, s.cells),
        (r#","ok":"#, s.ok),
        (r#","failed":"#, s.failed),
        (r#","cached":"#, s.cached),
        (r#","cancelled":"#, s.cancelled),
    ] {
        out.push_str(field);
        push_uint(&mut out, count as u64);
    }
    out.push('}');
    out
}

/// `s` as the body of a JSON string literal, appended to `out`: copied as
/// it is when nothing in it needs an escape, which holds for every job id,
/// cell name and cache key the daemon makes.
fn push_escaped(out: &mut String, s: &str) {
    if s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(&escape(s));
    } else {
        out.push_str(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgraph_bench::cells::find;
    use archgraph_mta_sim::machine::MtaEngine;

    #[test]
    fn parses_the_simple_ops() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#), Ok(Request::Ping));
        assert_eq!(parse_request(r#"{"op":"status"}"#), Ok(Request::Status));
        assert_eq!(parse_request(r#"{"op":"shutdown"}"#), Ok(Request::Shutdown));
        assert_eq!(
            parse_request(r#"{"op":"cancel","job":"j7"}"#),
            Ok(Request::Cancel { job: "j7".into() })
        );
        assert_eq!(parse_request(r#"{"op":"list"}"#), Ok(Request::List));
    }

    #[test]
    fn malformed_input_is_a_structured_reject() {
        for bad in [
            "not json at all",
            "{\"op\":",
            "[1,2,3]",
            r#"{"noop":"ping"}"#,
            r#"{"op":"frobnicate"}"#,
            r#"{"op":"cancel"}"#,
            r#"{"op":"submit"}"#,
            r#"{"op":"submit","cells":[]}"#,
            r#"{"op":"submit","cells":[{"cell":"no/such/cell"}]}"#,
            r#"{"op":"submit","cells":[{"kernel":"msf","machine":"mta"}]}"#,
            r#"{"op":"submit","cells":[{"cell":"fig2/mta/p8","typo_key":1}]}"#,
            r#"{"op":"submit","cells":[{"cell":"fig2/mta/p8","faults":"bogus"}]}"#,
            r#"{"op":"submit","cells":[{"cell":"fig2/mta/p8","workers":0}]}"#,
            r#"{"op":"submit","cells":[{"cell":"fig2/mta/p8","workers":257}]}"#,
            r#"{"op":"submit","cells":[{"cell":"fig2/mta/p8","workers":"four"}]}"#,
            r#"{"op":"submit","extra":true,"cells":[{"cell":"fig2/mta/p8"}]}"#,
            r#"{"op":"submit","budget_cycles":-4,"cells":[{"cell":"fig2/mta/p8"}]}"#,
            r#"{"op":"submit","budget_cycles":"lots","cells":[{"cell":"fig2/mta/p8"}]}"#,
            r#"{"op":"submit","budget_host_ms":-1,"cells":[{"cell":"fig2/mta/p8"}]}"#,
            r#"{"op":"submit","budget_host_ms":"ages","cells":[{"cell":"fig2/mta/p8"}]}"#,
        ] {
            let err = parse_request(bad).expect_err(bad);
            // The error doubles as the protocol reply; it must render.
            let line = error(&err);
            let parsed = Json::parse(&line).expect("error response is valid JSON");
            assert_eq!(parsed.get("type").and_then(Json::as_str), Some("error"));
        }
    }

    #[test]
    fn a_repeated_member_name_is_a_reject_not_the_last_value() {
        // Keeping the last value would make this line a shutdown.
        assert_eq!(
            parse_request(r#"{"op":"ping","op":"shutdown"}"#),
            Err("malformed JSON: duplicate member name at offset 13".to_string())
        );
        // An escape that spells the same name is the same name.
        assert!(parse_request(r#"{"op":"ping","\u006fp":"shutdown"}"#).is_err());
        let dup_cell = r#"{"op":"submit","cells":[{"cell":"fig2/mta/p8","p":2,"p":8}]}"#;
        assert!(parse_request(dup_cell).is_err());
        // Once per object is fine, at any depth.
        assert!(parse_request(r#"{"op":"submit","cells":[{"cell":"fig2/mta/p8","p":2}]}"#).is_ok());
    }

    #[test]
    fn bench_cell_references_resolve_to_suite_specs() {
        let req = parse_request(
            r#"{"op":"submit","cells":[{"cell":"fig2/mta/p8"},{"cell":"msf/native"}]}"#,
        )
        .unwrap();
        let Request::Submit {
            cells,
            budget_cycles,
            budget_host_ms,
        } = req
        else {
            panic!("not a submit")
        };
        assert_eq!(cells[0], find("fig2/mta/p8").unwrap());
        assert_eq!(cells[1], find("msf/native").unwrap());
        assert_eq!(budget_cycles, None, "budgets are opt-in");
        assert_eq!(budget_host_ms, None, "host budgets are opt-in");
    }

    #[test]
    fn submit_parses_an_optional_budget() {
        let req = parse_request(
            r#"{"op":"submit","budget_cycles":500000,"cells":[{"cell":"fig2/mta/p8"}]}"#,
        )
        .unwrap();
        let Request::Submit { budget_cycles, .. } = req else {
            panic!("not a submit")
        };
        assert_eq!(budget_cycles, Some(500_000));
    }

    #[test]
    fn submit_parses_an_optional_host_budget() {
        let req = parse_request(
            r#"{"op":"submit","budget_host_ms":2500,"budget_cycles":9,"cells":[{"cell":"fig2/mta/p8"}]}"#,
        )
        .unwrap();
        let Request::Submit {
            budget_host_ms,
            budget_cycles,
            ..
        } = req
        else {
            panic!("not a submit")
        };
        assert_eq!(budget_host_ms, Some(2_500));
        assert_eq!(budget_cycles, Some(9), "the two budgets compose");
    }

    #[test]
    fn structured_specs_parse_with_overrides() {
        let req = parse_request(
            r#"{"op":"submit","cells":[{"kernel":"color","machine":"mta","engine":"compiled","workers":4,"p":2,"n":128,"m":384,"max_cycles":1000000,"faults":"mem-latency=30,rate=1:9"}]}"#,
        )
        .unwrap();
        let Request::Submit { cells, .. } = req else {
            panic!("not a submit")
        };
        let s = &cells[0];
        assert_eq!(s.kernel.name(), "color");
        assert_eq!(s.machine, MachineKind::Mta);
        assert_eq!(s.engine, Some(MtaEngine::Compiled));
        assert_eq!((s.p, s.n, s.m), (2, 128, 384));
        assert_eq!(s.max_cycles, Some(1_000_000));
        assert_eq!(s.faults.as_deref(), Some("mem-latency=30,rate=1:9"));
    }

    #[test]
    fn cell_references_accept_overrides_too() {
        let req = parse_request(
            r#"{"op":"submit","cells":[{"cell":"fig2/mta/p8","engine":"partitioned","workers":4}]}"#,
        )
        .unwrap();
        let Request::Submit { cells, .. } = req else {
            panic!("not a submit")
        };
        assert_eq!(cells[0].engine, Some(MtaEngine::Partitioned));
        // Overrides never change the content address.
        assert_eq!(
            cells[0].cache_key(),
            find("fig2/mta/p8").unwrap().cache_key()
        );
    }

    #[test]
    fn response_lines_are_valid_single_line_json() {
        let ev = CellEvent {
            index: 3,
            name: "fig2/mta/p8".into(),
            key: "0123456789abcdef".into(),
            status: CellStatus::Done {
                sim: vec![("cycles".to_string(), 10), ("issued".to_string(), 20)],
                cached: true,
            },
        };
        let failed = CellEvent {
            status: CellStatus::Failed {
                error: "boom\n\"quoted\"".into(),
            },
            ..ev.clone()
        };
        let cancelled = CellEvent {
            status: CellStatus::Cancelled,
            ..ev.clone()
        };
        let sum = JobSummary {
            cells: 4,
            ok: 2,
            failed: 1,
            cached: 1,
            cancelled: 1,
        };
        let snap = Snapshot {
            stats: crate::queue::Stats {
                jobs: 1,
                cells_run: 2,
                cache_hits: 3,
                failures: 4,
            },
            queued: 5,
            inflight: 1,
            active_jobs: 1,
            workers: 2,
            cache: crate::cache::CacheUsage {
                entries: 6,
                bytes: 84,
                evictions: 2,
                evicted_bytes: 28,
            },
            stages: crate::stages::Stages::default().snapshot(),
        };
        for line in [
            pong(),
            bye(),
            error("oh \"no\"\nnewline"),
            accepted("j1", 4),
            cancelled_resp(),
            status(&snap),
            list_line(&[
                ListEntry {
                    name: "fig2/mta/p8".into(),
                    key: "0123456789abcdef".into(),
                    cached: true,
                },
                ListEntry {
                    name: "bfs/smp/p8".into(),
                    key: "fedcba9876543210".into(),
                    cached: false,
                },
            ]),
            list_line(&[]),
            cell_line("j1", &ev),
            cell_line("j1", &failed),
            cell_line("j1", &cancelled),
            done_line("j1", &sum),
        ] {
            assert!(!line.contains('\n'), "one line only: {line}");
            Json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        let parsed = Json::parse(&cell_line("j1", &ev)).unwrap();
        assert_eq!(parsed.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(
            parsed
                .get("sim")
                .and_then(|s| s.get("cycles"))
                .and_then(Json::as_u64),
            Some(10)
        );
        // The sim sub-object is rendered in bench-JSON style, verbatim.
        assert!(
            cell_line("j1", &ev).contains(r#""sim":{ "cycles": 10, "issued": 20 }"#),
            "bench-identical sim rendering"
        );
        let parsed = Json::parse(&done_line("j1", &sum)).unwrap();
        assert_eq!(parsed.get("ok").and_then(Json::as_u64), Some(2));

        let parsed = Json::parse(&status(&snap)).unwrap();
        assert_eq!(parsed.get("cache_entries").and_then(Json::as_u64), Some(6));
        assert_eq!(parsed.get("evictions").and_then(Json::as_u64), Some(2));

        let parsed = Json::parse(&list_line(&[ListEntry {
            name: "fig2/mta/p8".into(),
            key: "0123456789abcdef".into(),
            cached: true,
        }]))
        .unwrap();
        let cells = parsed.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(
            cells[0].get("name").and_then(Json::as_str),
            Some("fig2/mta/p8")
        );
        assert_eq!(cells[0].get("cached"), Some(&Json::Bool(true)));
    }

    /// The `format!` templates the two line renderers replaced, kept as
    /// the reference for their bytes.
    fn cell_line_by_template(job: &str, ev: &CellEvent) -> String {
        let head = format!(
            r#"{{"type":"cell","job":"{}","index":{},"name":"{}","key":"{}""#,
            escape(job),
            ev.index,
            escape(&ev.name),
            escape(&ev.key),
        );
        match &ev.status {
            CellStatus::Done { sim, cached } => format!(
                "{head},\"cached\":{cached},\"sim\":{}}}",
                crate::json::render_sim(sim)
            ),
            CellStatus::Failed { error } => format!("{head},\"error\":\"{}\"}}", escape(error)),
            CellStatus::Cancelled => format!("{head},\"cancelled\":true}}"),
        }
    }

    #[test]
    fn result_lines_keep_the_bytes_of_the_format_templates() {
        let statuses = [
            CellStatus::Done {
                sim: vec![("cycles".to_string(), 0), ("issued".to_string(), u64::MAX)],
                cached: true,
            },
            CellStatus::Done {
                sim: Vec::new(),
                cached: false,
            },
            CellStatus::Failed {
                error: "boom\n\"quoted\" \\ \u{1} é".into(),
            },
            CellStatus::Failed {
                error: String::new(),
            },
            CellStatus::Cancelled,
        ];
        for (job, name) in [("j1", "fig2/mta/p8"), ("j\"2", "n\\ame\t"), ("", "")] {
            for (status, index) in statuses
                .iter()
                .flat_map(|s| [0, 7, usize::MAX].map(|i| (s, i)))
            {
                let ev = CellEvent {
                    index,
                    name: name.into(),
                    key: "0123456789abcdef".into(),
                    status: status.clone(),
                };
                assert_eq!(cell_line(job, &ev), cell_line_by_template(job, &ev));
            }
            let sum = JobSummary {
                cells: usize::MAX,
                ok: 0,
                failed: 12,
                cached: 3,
                cancelled: 100,
            };
            let by_template = format!(
                r#"{{"type":"done","job":"{}","cells":{},"ok":{},"failed":{},"cached":{},"cancelled":{}}}"#,
                escape(job),
                sum.cells,
                sum.ok,
                sum.failed,
                sum.cached,
                sum.cancelled,
            );
            assert_eq!(done_line(job, &sum), by_template);
        }
    }

    fn cancelled_resp() -> String {
        cancelled("j1")
    }
}
