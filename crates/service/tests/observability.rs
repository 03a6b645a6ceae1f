//! Service observability: the `metrics` exposition, the `stats`
//! latency/counter extensions, the `trials_per_sec` null semantics and the
//! opt-in NDJSON event log.

use std::sync::Arc;
use std::time::Duration;

use nvpim_service::protocol::{dispatch, Outcome};
use nvpim_service::service::{ServiceConfig, ServiceHandle};
use nvpim_sweep::{ScalarBackend, SweepPlan};
use serde::Value;

fn tiny_plan(seed: u64) -> SweepPlan {
    let mut plan = SweepPlan::quick();
    plan.seeds_per_point = 2;
    plan.campaign_seed = seed;
    plan
}

/// Dispatches one request line against the in-process handle (the same
/// code path the TCP server runs) and returns the response lines.
fn roundtrip(service: &ServiceHandle, line: &str) -> Vec<Value> {
    let mut out = Vec::new();
    let outcome = dispatch(service, line, &mut |frame| {
        out.push(serde_json::from_str(frame).expect("response lines are JSON"));
        Ok(())
    })
    .expect("in-memory sink never fails");
    assert_eq!(outcome, Outcome::Continue);
    out
}

/// Extracts the value of a plain (unlabeled) series from Prometheus text.
fn series_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()).is_some_and(|b| *b == b' '))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

#[test]
fn fresh_service_reports_null_rate_and_no_latency_data() {
    let service = ServiceHandle::start(ServiceConfig {
        workers: 1,
        ..Default::default()
    });
    let stats = service.stats();
    assert_eq!(
        stats.trials_per_sec, None,
        "a service that never ran a trial has no rate, not a rate of 0"
    );
    assert!(stats.queue_wait.is_none() && stats.run_latency.is_none());
    // On the wire the distinction is `null`, not `0.0`.
    let lines = roundtrip(&service, r#"{"cmd":"stats"}"#);
    let stats_json = serde_json::to_string(&lines[0]).expect("serialize");
    assert!(
        stats_json.contains("\"trials_per_sec\":null"),
        "wire stats must carry null, got: {stats_json}"
    );
    service.shutdown();
}

#[test]
fn metrics_round_trip_exposes_core_series_and_stays_monotone() {
    let service = ServiceHandle::start(ServiceConfig {
        workers: 1,
        ..Default::default()
    });
    let plan = tiny_plan(90);
    let trials = plan.trial_count();
    let submitted = service.submit(plan, 0).unwrap();
    service.wait(submitted.job, None).unwrap();

    let lines = roundtrip(&service, r#"{"cmd":"metrics"}"#);
    assert_eq!(lines.len(), 1);
    let text = lines[0]
        .get("metrics")
        .and_then(Value::as_str)
        .expect("metrics payload is text")
        .to_string();

    // Service-level series.
    assert_eq!(series_value(&text, "nvpim_jobs_completed_total"), Some(1.0));
    assert_eq!(
        series_value(&text, "nvpim_service_trials_executed_total"),
        Some(trials as f64)
    );
    // Engine-level series flow through the shared sink.
    assert_eq!(
        series_value(&text, "nvpim_trials_executed_total"),
        Some(trials as f64)
    );
    assert!(text.contains("nvpim_phase_nanos_total{phase=\"gate_execution\"}"));
    assert!(text.contains("nvpim_phase_spans_total{phase=\"plan_validation\"}"));
    assert!(text.contains("nvpim_clean_settled_trials_total"));
    // Per-scheme labeled trial counters.
    assert!(text.contains("nvpim_trials_by_scheme{scheme="));
    // Latency summaries render as quantile series once data exists.
    assert!(text.contains("nvpim_queue_wait_ns{quantile=\"0.5\"}"));
    assert!(text.contains("nvpim_run_latency_ns{quantile=\"0.99\"}"));

    // Monotonicity: a second campaign only moves counters up.
    let again = service.submit(tiny_plan(91), 0).unwrap();
    service.wait(again.job, None).unwrap();
    let text2 = roundtrip(&service, r#"{"cmd":"metrics"}"#)[0]
        .get("metrics")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    for name in [
        "nvpim_jobs_completed_total",
        "nvpim_service_trials_executed_total",
        "nvpim_trials_executed_total",
        "nvpim_jobs_submitted_total",
    ] {
        let before = series_value(&text, name).unwrap();
        let after = series_value(&text2, name).unwrap();
        assert!(
            after > before,
            "{name} must be monotone: {before} -> {after}"
        );
    }

    let stats = service.stats();
    assert_eq!(stats.queue_wait.as_ref().map(|s| s.count), Some(2));
    assert_eq!(stats.run_latency.as_ref().map(|s| s.count), Some(2));
    assert!(stats.trials_per_sec.unwrap_or(0.0) > 0.0);
    service.shutdown();
}

#[test]
fn event_log_records_the_job_lifecycle_as_valid_ndjson() {
    let log_path = std::env::temp_dir().join(format!(
        "nvpim-events-{}-{:?}.ndjson",
        std::process::id(),
        std::thread::current().id()
    ));
    let service = ServiceHandle::start(ServiceConfig {
        workers: 1,
        checkpoint_ms: 0,
        log_json: Some(log_path.clone()),
        ..Default::default()
    });
    let submitted = service.submit(tiny_plan(92), 0).unwrap();
    service.wait(submitted.job, None).unwrap();
    // A cache hit also logs its submission.
    let cached = service.submit(tiny_plan(92), 0).unwrap();
    assert!(cached.cached);
    service.shutdown();

    let text = std::fs::read_to_string(&log_path).expect("event log was written");
    let _ = std::fs::remove_file(&log_path);
    let events: Vec<Value> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("every event line is valid JSON"))
        .collect();
    assert!(events.len() >= 4, "expected a full lifecycle, got:\n{text}");

    let kinds: Vec<&str> = events
        .iter()
        .map(|e| e.get("event").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(kinds.iter().filter(|k| **k == "submitted").count(), 2);
    assert!(kinds.contains(&"running"));
    assert!(kinds.contains(&"chunk"));
    assert_eq!(*kinds.last().unwrap(), "submitted", "cached submit is last");
    assert!(kinds.contains(&"done"));

    // Every event carries the standard envelope; all first-job events
    // share one trace id, and `seq` strictly increases.
    let trace = events[0].get("trace").and_then(Value::as_str).unwrap();
    assert!(trace.starts_with(&format!("job-{}-", submitted.job)));
    let mut last_seq = None;
    for event in &events {
        assert!(event.get("ts_ms").and_then(Value::as_u64).is_some());
        let seq = event.get("seq").and_then(Value::as_u64).unwrap();
        assert!(Some(seq) > last_seq, "seq must strictly increase");
        last_seq = Some(seq);
    }
    for event in events.iter().take(events.len() - 1) {
        assert_eq!(event.get("trace").and_then(Value::as_str), Some(trace));
    }
}

#[test]
fn cancelled_jobs_emit_a_cancelled_event() {
    let log_path =
        std::env::temp_dir().join(format!("nvpim-events-cancel-{}.ndjson", std::process::id()));
    let service = ServiceHandle::start(ServiceConfig {
        workers: 1,
        // One-trial tasks, a checkpoint (and cancellation check) after each.
        checkpoint_ms: 0,
        execution_backend: Some(&ScalarBackend),
        log_json: Some(log_path.clone()),
        ..Default::default()
    });
    let mut plan = tiny_plan(93);
    plan.seeds_per_point = 64;
    let submitted = service.submit(plan, 0).unwrap();
    while service.status(submitted.job).unwrap().state == "queued" {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(service.cancel(submitted.job).unwrap());
    let _ = service.wait(submitted.job, Some(Duration::from_secs(30)));
    service.shutdown();

    let text = std::fs::read_to_string(&log_path).expect("event log was written");
    let _ = std::fs::remove_file(&log_path);
    assert!(
        text.lines().any(|l| {
            let v: Value = serde_json::from_str(l).expect("valid JSON");
            v.get("event").and_then(Value::as_str) == Some("cancelled")
        }),
        "expected a cancelled event in:\n{text}"
    );
}

#[test]
fn coalesced_submissions_trace_back_to_the_primary_job() {
    let log_path = std::env::temp_dir().join(format!(
        "nvpim-events-coalesce-{}.ndjson",
        std::process::id()
    ));
    let service = ServiceHandle::start(ServiceConfig {
        workers: 1,
        checkpoint_ms: 0,
        log_json: Some(log_path.clone()),
        ..Default::default()
    });
    // Occupy the single worker so the next two submissions coalesce
    // while the first is queued or running.
    let mut blocker = tiny_plan(94);
    blocker.seeds_per_point = 64;
    let first = service.submit(blocker.clone(), 0).unwrap();
    let second = service.submit(blocker, 0).unwrap();
    assert!(second.coalesced);
    let a = service.wait(first.job, None).unwrap();
    let b = service.wait(second.job, None).unwrap();
    assert!(Arc::ptr_eq(&a, &b));
    service.shutdown();

    let text = std::fs::read_to_string(&log_path).expect("event log was written");
    let _ = std::fs::remove_file(&log_path);
    let coalesced: Vec<Value> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("valid JSON"))
        .filter(|v: &Value| v.get("event").and_then(Value::as_str) == Some("coalesced"))
        .collect();
    assert_eq!(coalesced.len(), 1);
    assert_eq!(
        coalesced[0].get("onto_job").and_then(Value::as_u64),
        Some(first.job)
    );
}

/// Value of one series in a `metrics` exposition.
fn metric(text: &str, series: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
        .and_then(|value| value.trim().parse().ok())
        .unwrap_or_else(|| panic!("series {series} missing from:\n{text}"))
}

/// A durable paper-scale submit at the default cadence journals submit,
/// start, its checkpoints and done: one checkpoint unless the run outlasts
/// a cadence period, so at most five records. `metrics` shows what the
/// journal wrote and how often jobs and shards checkpointed.
#[test]
fn durable_paper_scale_submit_journals_at_most_five_records() {
    let dir = std::env::temp_dir().join(format!("nvpim-journal-cost-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service = ServiceHandle::start(ServiceConfig {
        workers: 1,
        state_dir: Some(dir.clone()),
        ..Default::default()
    });
    let mut plan = SweepPlan::paper_scale();
    plan.campaign_seed = 0x10c0_5eed;
    let job = service.submit(plan, 0).unwrap().job;
    service.wait(job, Some(Duration::from_secs(120))).unwrap();

    let text = service.metrics_text();
    let journal = std::fs::read_to_string(dir.join(nvpim_service::journal::JOURNAL_FILE))
        .expect("journal written");
    let records = metric(&text, "nvpim_journal_records_total");
    assert!(
        (4..=5).contains(&records),
        "{records} journal records for one campaign:\n{journal}"
    );
    assert_eq!(journal.lines().count() as u64, records);
    assert_eq!(
        metric(&text, "nvpim_journal_bytes_total"),
        journal.len() as u64
    );
    assert_eq!(
        metric(&text, "nvpim_journal_fsyncs_total"),
        records,
        "the durable default syncs every record"
    );
    assert_eq!(
        metric(&text, "nvpim_checkpoints_total{path=\"job\"}"),
        records - 3,
        "every journaled chunk record is one job checkpoint"
    );
    assert_eq!(metric(&text, "nvpim_checkpoints_total{path=\"shard\"}"), 0);

    // Shards checkpoint on their own path and journal nothing.
    let shard_plan = tiny_plan(95);
    service
        .run_shard(&shard_plan, 0, shard_plan.trial_count(), |_| {
            nvpim_sweep::CampaignControl::Continue
        })
        .unwrap();
    let text = service.metrics_text();
    assert!(metric(&text, "nvpim_checkpoints_total{path=\"shard\"}") >= 1);
    assert_eq!(metric(&text, "nvpim_journal_records_total"), records);
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
