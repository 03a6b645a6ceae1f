//! The newline-delimited JSON wire protocol.
//!
//! Every request is one JSON object per line carrying a `cmd` field
//! (`submit`, `status`, `result`, `cancel`, `stats`, `metrics`,
//! `shutdown`); every
//! response is one JSON object per line with an `ok` boolean. Failures are
//! *structured*: `{"ok":false,"error":{"code":...,"message":...}}` — a bad
//! request never tears down the worker pool, only (at worst) its own
//! connection. See `docs/protocol.md` for the full schema and a worked
//! session.
//!
//! [`dispatch`] is shared by the TCP server and any in-process harness: it
//! decodes one request line, calls the [`ServiceHandle`] (the same API
//! in-process users call directly), and emits one or more response lines
//! through a sink — more than one when a waiting `submit` streams progress
//! events before the final result.

use std::sync::Arc;
use std::time::Duration;

use nvpim_sweep::{CampaignControl, SweepPlan};
use serde::{Serialize, Value};

use crate::service::ServiceHandle;
use crate::ServiceError;

/// Maximum accepted request-line length in bytes; longer lines get a
/// `line_too_long` error and the connection is closed.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// What the connection loop should do after a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Keep serving this connection.
    Continue,
    /// The client asked for daemon shutdown.
    Shutdown,
}

/// Receives each encoded response line (compact JSON, no trailing
/// newline); an error means the connection is gone.
pub type Sink<'a> = dyn FnMut(&str) -> std::io::Result<()> + 'a;

/// Encodes one response as its compact wire line (no trailing newline).
pub(crate) fn encode(value: &Value) -> String {
    // Encoding a `Value` cannot fail (every object key is a string); the
    // fallback keeps the connection thread panic-free regardless.
    serde_json::to_string(value).unwrap_or_else(|_| {
        r#"{"ok":false,"error":{"code":"internal_error","message":"response encoding failed"}}"#
            .to_string()
    })
}

/// Builds `{"ok":true, ...fields}`.
pub fn ok_response(fields: Vec<(String, Value)>) -> Value {
    let mut pairs = vec![("ok".to_string(), Value::Bool(true))];
    pairs.extend(fields);
    Value::Object(pairs)
}

/// Builds the structured error response `{"ok":false,"error":{...}}`.
pub fn error_response(code: &str, message: impl Into<String>) -> Value {
    Value::Object(vec![
        ("ok".to_string(), Value::Bool(false)),
        (
            "error".to_string(),
            Value::Object(vec![
                ("code".to_string(), Value::Str(code.to_string())),
                ("message".to_string(), Value::Str(message.into())),
            ]),
        ),
    ])
}

/// The wire code for a [`ServiceError`].
fn error_code(err: &ServiceError) -> &'static str {
    match err {
        ServiceError::Overloaded { .. } => "overloaded",
        ServiceError::ShuttingDown => "shutting_down",
        ServiceError::UnknownJob(_) => "unknown_job",
        ServiceError::InvalidPlan(_) => "invalid_plan",
        ServiceError::PlanTooLarge { .. } => "plan_too_large",
        ServiceError::BadShard(_) => "bad_shard",
        ServiceError::JobFailed(_) => "job_failed",
        ServiceError::JobCancelled => "job_cancelled",
        ServiceError::NotDone => "not_done",
    }
}

fn service_error(err: &ServiceError) -> Value {
    // An overload rejection carries its machine-readable backoff hint
    // inside the error object, next to `code`/`message`.
    if let ServiceError::Overloaded { retry_after_ms } = err {
        return Value::Object(vec![
            ("ok".to_string(), Value::Bool(false)),
            (
                "error".to_string(),
                Value::Object(vec![
                    ("code".to_string(), Value::Str(error_code(err).to_string())),
                    ("message".to_string(), Value::Str(err.to_string())),
                    ("retry_after_ms".to_string(), Value::UInt(*retry_after_ms)),
                ]),
            ),
        ]);
    }
    error_response(error_code(err), err.to_string())
}

fn to_value<T: Serialize>(v: &T) -> Value {
    v.to_json()
}

/// Decodes the `plan` field: an inline plan object, or the named shorthands
/// `"quick"` / `"paper_scale"` / `"accuracy_quick"`.
fn decode_plan(value: &Value) -> Result<SweepPlan, String> {
    if let Some(name) = value.as_str() {
        return SweepPlan::named(name).ok_or_else(|| {
            format!("unknown named plan `{name}` (expected quick, paper_scale or accuracy_quick)")
        });
    }
    SweepPlan::from_json_value(value).map_err(|e| e.to_string())
}

fn u64_arg(request: &Value, key: &str) -> Result<u64, Value> {
    request
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| error_response("bad_request", format!("missing or invalid `{key}` field")))
}

/// Handles one request line, passing every encoded response line to `sink`.
///
/// `sink` returning an error (a dead connection) aborts the request; the
/// error is propagated so the connection loop can drop the socket. Progress
/// streaming for `{"cmd":"submit","wait":true}` emits one
/// `{"ok":true,"event":"progress",...}` line whenever the completed-trial
/// count advances, then the final `result`-shaped line.
pub fn dispatch(
    service: &ServiceHandle,
    line: &str,
    sink: &mut Sink<'_>,
) -> std::io::Result<Outcome> {
    let mut emit = |value: &Value| sink(&encode(value));
    let request = match serde_json::from_str(line) {
        Ok(v) => v,
        Err(e) => {
            emit(&error_response("malformed_json", e.to_string()))?;
            return Ok(Outcome::Continue);
        }
    };
    let cmd = match request.get("cmd").and_then(Value::as_str) {
        Some(c) => c,
        None => {
            emit(&error_response(
                "bad_request",
                "request must be an object with a string `cmd` field",
            ))?;
            return Ok(Outcome::Continue);
        }
    };

    match cmd {
        "submit" => {
            let plan_field = match request.get("plan") {
                Some(p) => p,
                None => {
                    emit(&error_response("bad_request", "missing `plan` field"))?;
                    return Ok(Outcome::Continue);
                }
            };
            let plan = match decode_plan(plan_field) {
                Ok(p) => p,
                Err(msg) => {
                    emit(&error_response("invalid_plan", msg))?;
                    return Ok(Outcome::Continue);
                }
            };
            let priority = request
                .get("priority")
                .and_then(Value::as_u64)
                .unwrap_or(0)
                .min(9) as u8;
            let wait = request
                .get("wait")
                .and_then(Value::as_bool)
                .unwrap_or(false);
            let outcome = match service.submit(plan, priority) {
                Ok(o) => o,
                Err(e) => {
                    emit(&service_error(&e))?;
                    return Ok(Outcome::Continue);
                }
            };
            emit(&ok_response(vec![
                ("event".into(), Value::Str("accepted".into())),
                ("job".into(), Value::UInt(outcome.job)),
                ("digest".into(), Value::Str(outcome.digest.clone())),
                ("cached".into(), Value::Bool(outcome.cached)),
                ("coalesced".into(), Value::Bool(outcome.coalesced)),
                ("trials_total".into(), Value::UInt(outcome.trials_total)),
            ]))?;
            if wait {
                stream_until_done(service, outcome.job, sink)?;
            }
            Ok(Outcome::Continue)
        }
        "status" => {
            let job = match u64_arg(&request, "job") {
                Ok(j) => j,
                Err(resp) => {
                    emit(&resp)?;
                    return Ok(Outcome::Continue);
                }
            };
            match service.status(job) {
                Ok(status) => emit(&ok_response(vec![("status".into(), to_value(&status))]))?,
                Err(e) => emit(&service_error(&e))?,
            }
            Ok(Outcome::Continue)
        }
        "result" => {
            let job = match u64_arg(&request, "job") {
                Ok(j) => j,
                Err(resp) => {
                    emit(&resp)?;
                    return Ok(Outcome::Continue);
                }
            };
            let wait = request
                .get("wait")
                .and_then(Value::as_bool)
                .unwrap_or(false);
            let timeout = request
                .get("timeout_ms")
                .and_then(Value::as_u64)
                .map(Duration::from_millis);
            let result = if wait {
                service.wait(job, timeout)
            } else {
                service.result(job)
            };
            sink(&result_line(service, job, result))?;
            Ok(Outcome::Continue)
        }
        "cancel" => {
            let job = match u64_arg(&request, "job") {
                Ok(j) => j,
                Err(resp) => {
                    emit(&resp)?;
                    return Ok(Outcome::Continue);
                }
            };
            match service.cancel(job) {
                Ok(accepted) => emit(&ok_response(vec![
                    ("job".into(), Value::UInt(job)),
                    ("cancelled".into(), Value::Bool(accepted)),
                ]))?,
                Err(e) => emit(&service_error(&e))?,
            }
            Ok(Outcome::Continue)
        }
        "stats" => {
            emit(&ok_response(vec![(
                "stats".into(),
                to_value(&service.stats()),
            )]))?;
            Ok(Outcome::Continue)
        }
        "metrics" => {
            emit(&ok_response(vec![(
                "metrics".into(),
                Value::Str(service.metrics_text()),
            )]))?;
            Ok(Outcome::Continue)
        }
        "ping" => {
            // The fleet heartbeat: cheap, never queued, and it carries the
            // drain flag so a coordinator can tell "unschedulable but
            // alive" from "dead".
            emit(&ok_response(vec![
                ("event".into(), Value::Str("pong".into())),
                ("draining".into(), Value::Bool(service.is_draining())),
                (
                    "shutting_down".into(),
                    Value::Bool(service.is_shutting_down()),
                ),
            ]))?;
            Ok(Outcome::Continue)
        }
        "run_shard" => {
            let plan_field = match request.get("plan") {
                Some(p) => p,
                None => {
                    emit(&error_response("bad_request", "missing `plan` field"))?;
                    return Ok(Outcome::Continue);
                }
            };
            let plan = match decode_plan(plan_field) {
                Ok(p) => p,
                Err(msg) => {
                    emit(&error_response("invalid_plan", msg))?;
                    return Ok(Outcome::Continue);
                }
            };
            let (start, end) = match (u64_arg(&request, "start"), u64_arg(&request, "end")) {
                (Ok(s), Ok(e)) => (s, e),
                (Err(resp), _) | (_, Err(resp)) => {
                    emit(&resp)?;
                    return Ok(Outcome::Continue);
                }
            };
            // Older coordinators also send `chunk_trials`; it is ignored —
            // this daemon streams at its own checkpoint cadence.
            // Structural range checks happen before acceptance; bounds
            // against the plan's trial count surface from the service as
            // a later `bad_shard` line.
            if start > end {
                emit(&service_error(&ServiceError::BadShard(format!(
                    "range {start}..{end} is inverted"
                ))))?;
                return Ok(Outcome::Continue);
            }
            emit(&ok_response(vec![
                ("event".into(), Value::Str("shard_accepted".into())),
                ("start".into(), Value::UInt(start)),
                ("end".into(), Value::UInt(end)),
            ]))?;
            // Stream each checkpoint's per-point tallies, at the daemon's
            // checkpoint cadence: the coordinator's checkpoint and
            // heartbeat. If the coordinator goes away the failed emit
            // cancels the shard; if this daemon starts draining, the shard
            // stops at the next checkpoint and the coordinator re-assigns
            // the remainder elsewhere.
            let mut io_err: Option<std::io::Error> = None;
            let result = service.run_shard(&plan, start, end, |cp| {
                let line = ok_response(vec![
                    ("event".into(), Value::Str("shard_chunk".into())),
                    ("trials_done".into(), Value::UInt(cp.progress.trials_done)),
                    ("trials_total".into(), Value::UInt(cp.progress.trials_total)),
                    ("tallies".into(), cp.new_tallies.to_json()),
                ]);
                if let Err(err) = emit(&line) {
                    io_err = Some(err);
                    return CampaignControl::Cancel;
                }
                if service.is_draining() {
                    return CampaignControl::Cancel;
                }
                CampaignControl::Continue
            });
            if let Some(err) = io_err {
                return Err(err);
            }
            match result {
                Ok(tallies) => emit(&ok_response(vec![
                    ("event".into(), Value::Str("shard_done".into())),
                    ("start".into(), Value::UInt(start)),
                    ("end".into(), Value::UInt(end)),
                    ("trials".into(), Value::UInt(tallies.trials())),
                ]))?,
                Err(ServiceError::JobCancelled) if service.is_draining() => {
                    emit(&service_error(&ServiceError::ShuttingDown))?;
                }
                Err(e) => emit(&service_error(&e))?,
            }
            Ok(Outcome::Continue)
        }
        "shutdown" => {
            emit(&ok_response(vec![(
                "shutting_down".into(),
                Value::Bool(true),
            )]))?;
            Ok(Outcome::Shutdown)
        }
        other => {
            emit(&error_response(
                "unknown_command",
                format!("unknown command `{other}`"),
            ))?;
            Ok(Outcome::Continue)
        }
    }
}

/// Encodes the `result` line. The stored report is spliced in as text,
/// compacted but otherwise verbatim, never parsed into a `Value`.
fn result_line(
    service: &ServiceHandle,
    job: u64,
    result: Result<Arc<String>, ServiceError>,
) -> String {
    match result {
        Ok(report_json) => {
            let cached = service
                .job(job)
                .map(|core| core.from_cache)
                .unwrap_or(false);
            // Stored reports are written by the engine and always
            // well-formed; a corrupt document (bit rot the store's
            // integrity check could not catch, say) becomes a structured
            // error for this one request rather than a malformed frame.
            result_frame(job, cached, &report_json).unwrap_or_else(|err| {
                encode(&error_response(
                    "internal_error",
                    format!("stored report for job {job} is not valid JSON: {err}"),
                ))
            })
        }
        Err(e) => encode(&service_error(&e)),
    }
}

/// Builds `{"ok":true,"event":"result","job":N,"cached":B,"report":R}`
/// where `R` is `report` with the whitespace between its tokens removed.
/// For a document the `serde_json` writer produced, the line is identical to
/// encoding the parsed report inside an [`ok_response`].
///
/// # Errors
///
/// A `report` that is not a single well-formed document (see
/// `compact_into`).
fn result_frame(job: u64, cached: bool, report: &str) -> Result<String, String> {
    let mut line = encode(&ok_response(vec![
        ("event".into(), Value::Str("result".into())),
        ("job".into(), Value::UInt(job)),
        ("cached".into(), Value::Bool(cached)),
    ]));
    line.pop(); // the closing `}`
    line.reserve(report.len() + 12);
    line.push_str(",\"report\":");
    compact_into(report, &mut line)?;
    line.push('}');
    Ok(line)
}

/// Appends `doc` to `out` without the whitespace outside its strings, in
/// one linear pass. Rejects what cannot be a single JSON document: an
/// unterminated string, unbalanced or mismatched brackets, characters
/// after the closing bracket, and a blank document.
fn compact_into(doc: &str, out: &mut String) -> Result<(), String> {
    let bytes = doc.as_bytes();
    let mut open: Vec<u8> = Vec::new();
    let mut closed = false;
    let mut empty = true;
    // Start of the pending run of non-whitespace bytes.
    let mut run = 0;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            out.push_str(&doc[run..i]);
            i += 1;
            run = i;
            continue;
        }
        if closed {
            return Err(format!(
                "at byte {i}: trailing characters after the document"
            ));
        }
        empty = false;
        match b {
            b'"' => {
                let start = i;
                i += 1;
                loop {
                    match bytes.get(i) {
                        None => return Err(format!("at byte {start}: unterminated string")),
                        Some(b'"') => break,
                        Some(b'\\') => i += 2,
                        Some(_) => i += 1,
                    }
                }
            }
            b'{' | b'[' => open.push(b),
            b'}' | b']' => {
                let expected = if b == b'}' { b'{' } else { b'[' };
                if open.pop() != Some(expected) {
                    return Err(format!("at byte {i}: unbalanced `{}`", b as char));
                }
                closed = open.is_empty();
            }
            _ => {}
        }
        i += 1;
    }
    if empty {
        return Err("empty document".into());
    }
    if let Some(&b) = open.last() {
        return Err(format!("truncated document: unclosed `{}`", b as char));
    }
    out.push_str(&doc[run..]);
    Ok(())
}

/// Streams progress events for `job` until it reaches a terminal state,
/// then emits the final result line.
fn stream_until_done(
    service: &ServiceHandle,
    job: u64,
    sink: &mut Sink<'_>,
) -> std::io::Result<()> {
    let mut emit = |value: &Value| sink(&encode(value));
    if let Some(core) = service.job(job) {
        let mut last_done = u64::MAX;
        loop {
            let state = core.wait_terminal(Some(Duration::from_millis(25)));
            let done = core.trials_done();
            if state.is_terminal() {
                break;
            }
            if done != last_done {
                last_done = done;
                let mut fields = vec![
                    ("event".into(), Value::Str("progress".into())),
                    ("job".into(), Value::UInt(job)),
                    ("state".into(), Value::Str(state.label().into())),
                    ("trials_done".into(), Value::UInt(done)),
                    ("trials_total".into(), Value::UInt(core.trials_total)),
                    ("percent".into(), Value::Float(core.percent())),
                    (
                        "trials_per_sec".into(),
                        core.trials_per_sec().map_or(Value::Null, Value::Float),
                    ),
                ];
                // Accuracy campaigns additionally stream their running
                // task-accuracy tally; error campaigns omit the keys
                // entirely, keeping their progress lines byte-stable.
                if let Some((correct, evaluated)) = core.accuracy_progress() {
                    fields.push(("correct_trials".into(), Value::UInt(correct)));
                    fields.push(("evaluated_trials".into(), Value::UInt(evaluated)));
                    fields.push((
                        "accuracy".into(),
                        Value::Float(correct as f64 / evaluated as f64),
                    ));
                }
                emit(&ok_response(fields))?;
            }
        }
    }
    sink(&result_line(service, job, service.result(job)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compact(doc: &str) -> Result<String, String> {
        let mut out = String::new();
        compact_into(doc, &mut out).map(|()| out)
    }

    #[test]
    fn compaction_strips_whitespace_outside_strings_only() {
        let doc = "{\n  \"a b\": [1, 2.5],\n  \"c\": \"x \\\" y\\\\\",\t\"d\": {}\r\n}\n";
        assert_eq!(
            compact(doc).unwrap(),
            r#"{"a b":[1,2.5],"c":"x \" y\\","d":{}}"#
        );
        // A pretty report compacts to exactly what parse + compact encode
        // gives, the construction the splice replaces.
        let value = serde_json::from_str(doc).unwrap();
        assert_eq!(compact(doc).unwrap(), encode(&value));
        assert_eq!(compact(" \"s p\" ").unwrap(), "\"s p\"");
    }

    #[test]
    fn compaction_rejects_truncated_documents() {
        let doc = serde_json::to_string_pretty(&ok_response(vec![(
            "points".into(),
            Value::Array(vec![Value::UInt(1), Value::Str("two".into())]),
        )]))
        .unwrap();
        for cut in 1..doc.len() {
            if doc[..cut].trim().is_empty() {
                continue;
            }
            assert!(compact(&doc[..cut]).is_err(), "accepted {:?}", &doc[..cut]);
        }
        assert!(compact(&doc).is_ok());
        assert_eq!(compact("").unwrap_err(), "empty document");
        assert_eq!(compact(" \n ").unwrap_err(), "empty document");
    }

    #[test]
    fn compaction_rejects_unterminated_strings() {
        for doc in ["{\"a\": \"open}", "\"abc", "[\"x\\\"]", "{\"k\\"] {
            let err = compact(doc).unwrap_err();
            assert!(err.contains("unterminated string"), "{doc:?}: {err}");
        }
    }

    #[test]
    fn compaction_rejects_unbalanced_brackets() {
        for doc in ["{\"a\": [1, 2}", "[1]]", "}", "{\"a\": 1]", "[[]"] {
            assert!(compact(doc).is_err(), "accepted {doc:?}");
        }
        let err = compact("{} {}").unwrap_err();
        assert!(err.contains("trailing characters"), "{err}");
        // Brackets inside strings are text, not structure.
        assert_eq!(compact("[\"]\", \"{\"]").unwrap(), r#"["]","{"]"#);
    }

    #[test]
    fn corrupt_stored_report_yields_no_frame() {
        assert!(result_frame(3, true, "{\"points\": [1, 2").is_err());
        assert_eq!(
            result_frame(3, true, "{\"points\": [1, 2]}\n").unwrap(),
            r#"{"ok":true,"event":"result","job":3,"cached":true,"report":{"points":[1,2]}}"#
        );
    }
}
