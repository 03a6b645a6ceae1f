//! Service observability: the `metrics` exposition, the `stats`
//! latency/counter extensions, the `trials_per_sec` null semantics and the
//! opt-in NDJSON event log.

use std::sync::Arc;
use std::time::Duration;

use nvpim_service::protocol::{dispatch, Outcome};
use nvpim_service::service::{ServiceConfig, ServiceHandle};
use nvpim_service::ServiceError;
use nvpim_sweep::{ProtectionConfig, ScalarBackend, SweepPlan, SweepWorkload};
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

    // Every other kind of traffic: a cache hit, a job that fails at
    // preparation, two accuracy jobs (the second reuses the first's
    // kernels), a cancel and a fleet shard.
    assert!(service.submit(tiny_plan(90), 0).unwrap().cached);
    let mut spills = tiny_plan(95);
    spills.workloads = vec![SweepWorkload::Multiplier { bits: 24 }];
    spills.protections = vec![ProtectionConfig::TRIM];
    let failed = service.submit(spills, 0).unwrap();
    assert!(matches!(
        service.wait(failed.job, None),
        Err(ServiceError::JobFailed(_))
    ));
    for seed in [1, 2] {
        let mut accuracy = SweepPlan::accuracy_quick();
        accuracy.seeds_per_point = 2;
        accuracy.campaign_seed = seed;
        let job = service.submit(accuracy, 0).unwrap().job;
        service.wait(job, None).unwrap();
    }
    let mut long = tiny_plan(96);
    long.seeds_per_point = 64;
    let blocker = service.submit(long, 9).unwrap();
    let victim = service.submit(tiny_plan(97), 0).unwrap();
    assert!(service.cancel(victim.job).unwrap());
    assert!(matches!(
        service.wait(victim.job, None),
        Err(ServiceError::JobCancelled)
    ));
    service.wait(blocker.job, None).unwrap();
    let shard = tiny_plan(98);
    service
        .run_shard(&shard, 0, shard.trial_count(), |_| {
            nvpim_sweep::CampaignControl::Continue
        })
        .unwrap();

    let stats = roundtrip(&service, r#"{"cmd":"stats"}"#)[0]
        .get("stats")
        .cloned()
        .expect("stats payload");
    let text = roundtrip(&service, r#"{"cmd":"metrics"}"#)[0]
        .get("metrics")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    assert_well_formed(&text);
    assert_agrees(&stats, &text);
    for field in [
        "jobs_failed",
        "jobs_cancelled",
        "report_cache_hits",
        "accuracy_jobs",
        "shards_executed",
        "schedule_cache_hits",
    ] {
        assert!(stat(&stats, field) > 0, "{field} never moved: {stats:?}");
    }
    let samples = sample_names(&text);
    for series in STABLE_SERIES {
        assert!(samples.contains(*series), "{series} is no longer exported");
    }
    for phase in PHASES {
        for family in ["nvpim_phase_spans_total", "nvpim_phase_nanos_total"] {
            let series = format!("{family}{{phase=\"{phase}\"}}");
            assert!(samples.contains(&series), "{series} is no longer exported");
        }
    }
    service.shutdown();
}

/// Series that scrapers, perfbench and CI read by name (phase series
/// aside, see [`PHASES`]). Series may be added, never dropped.
const STABLE_SERIES: &[&str] = &[
    "nvpim_jobs_submitted_total",
    "nvpim_jobs_completed_total",
    "nvpim_jobs_failed_total",
    "nvpim_jobs_cancelled_total",
    "nvpim_jobs_coalesced_total",
    "nvpim_jobs_rejected_total",
    "nvpim_service_trials_executed_total",
    "nvpim_report_cache_hits_total",
    "nvpim_report_cache_misses_total",
    "nvpim_estimator_jobs_total",
    "nvpim_accuracy_jobs_total",
    "nvpim_accuracy_trials_evaluated_total",
    "nvpim_accuracy_trials_correct_total",
    "nvpim_journal_records_total",
    "nvpim_journal_bytes_total",
    "nvpim_journal_fsyncs_total",
    "nvpim_checkpoints_total{path=\"job\"}",
    "nvpim_checkpoints_total{path=\"shard\"}",
    "nvpim_queue_depth",
    "nvpim_report_cache_entries",
    "nvpim_clean_settled_trials_total",
    "nvpim_clean_settled_batches_total",
    "nvpim_estimator_redraws_total",
    "nvpim_trials_executed_total",
    "nvpim_schedule_compiles_total",
    "nvpim_schedule_cache_hits_total",
    "nvpim_recovered_jobs_total",
    "nvpim_resumed_chunks_total",
    "nvpim_journal_records_replayed_total",
    "nvpim_shards_reassigned_total",
    "nvpim_worker_evictions_total",
    "nvpim_heartbeat_misses_total",
    "nvpim_trials_by_scheme{scheme=\"ECiM\"}",
    "nvpim_queue_wait_ns{quantile=\"0.5\"}",
    "nvpim_queue_wait_ns{quantile=\"0.95\"}",
    "nvpim_queue_wait_ns{quantile=\"0.99\"}",
    "nvpim_queue_wait_ns_sum",
    "nvpim_queue_wait_ns_count",
    "nvpim_run_latency_ns{quantile=\"0.5\"}",
    "nvpim_run_latency_ns{quantile=\"0.95\"}",
    "nvpim_run_latency_ns{quantile=\"0.99\"}",
    "nvpim_run_latency_ns_sum",
    "nvpim_run_latency_ns_count",
];

/// The pipeline phases, each exported as a span-count and a nanosecond
/// series.
const PHASES: &[&str] = &[
    "plan_validation",
    "schedule_compile",
    "schedule_cache_hit",
    "clean_probe",
    "fault_injection",
    "gate_execution",
    "analytic_clean_settle",
    "estimator_redraw",
    "aggregation",
    "report_serialization",
];

/// `stats.<field>` as an integer.
fn stat(stats: &Value, field: &str) -> u64 {
    stats
        .get(field)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("stats.{field} missing or not an integer"))
}

/// Sample names (labels included) of a text exposition.
fn sample_names(text: &str) -> std::collections::BTreeSet<String> {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| line.rsplit_once(' ').map(|(name, _)| name.to_string()))
        .collect()
}

/// Every `stats` key equals the series it is exported as, or is on the
/// short list of keys that have no series (configuration and derived
/// rates). A new `stats` field must be added to one of the two lists.
fn assert_agrees(stats: &Value, text: &str) {
    const SERIES: &[(&str, &str)] = &[
        ("trials_executed", "nvpim_service_trials_executed_total"),
        ("queue_depth", "nvpim_queue_depth"),
        ("jobs_submitted", "nvpim_jobs_submitted_total"),
        ("jobs_completed", "nvpim_jobs_completed_total"),
        ("jobs_failed", "nvpim_jobs_failed_total"),
        ("jobs_cancelled", "nvpim_jobs_cancelled_total"),
        ("jobs_coalesced", "nvpim_jobs_coalesced_total"),
        ("jobs_rejected", "nvpim_jobs_rejected_total"),
        ("recovered_jobs", "nvpim_recovered_jobs_total"),
        ("resumed_chunks", "nvpim_resumed_chunks_total"),
        (
            "journal_records_replayed",
            "nvpim_journal_records_replayed_total",
        ),
        ("shards_executed", "nvpim_shards_executed_total"),
        ("report_cache_entries", "nvpim_report_cache_entries"),
        ("report_cache_hits", "nvpim_report_cache_hits_total"),
        ("report_cache_misses", "nvpim_report_cache_misses_total"),
        ("schedule_cache_hits", "nvpim_schedule_cache_hits_total"),
        ("schedule_cache_compiles", "nvpim_schedule_compiles_total"),
        ("estimator_jobs", "nvpim_estimator_jobs_total"),
        ("accuracy_jobs", "nvpim_accuracy_jobs_total"),
        (
            "accuracy_trials_evaluated",
            "nvpim_accuracy_trials_evaluated_total",
        ),
        (
            "accuracy_trials_correct",
            "nvpim_accuracy_trials_correct_total",
        ),
        ("clean_settled_trials", "nvpim_clean_settled_trials_total"),
        ("clean_settled_batches", "nvpim_clean_settled_batches_total"),
        ("estimator_redraws", "nvpim_estimator_redraws_total"),
    ];
    const NO_SERIES: &[&str] = &[
        "workers",
        "trials_per_sec",
        "queue_capacity",
        "schedule_cache_entries",
        "queue_wait",
        "run_latency",
    ];
    let Value::Object(fields) = stats else {
        panic!("stats is not an object: {stats:?}");
    };
    for (key, _) in fields {
        assert!(
            SERIES.iter().any(|(field, _)| field == key) || NO_SERIES.contains(&key.as_str()),
            "stats.{key} is neither mapped to a series nor listed as having none"
        );
    }
    for (field, series) in SERIES {
        assert_eq!(
            stat(stats, field),
            metric(text, series),
            "stats.{field} disagrees with {series}"
        );
    }
    for (field, series) in [
        ("queue_wait", "nvpim_queue_wait_ns_count"),
        ("run_latency", "nvpim_run_latency_ns_count"),
    ] {
        let count = stats.get(field).and_then(|s| s.get("count"));
        assert_eq!(
            count.and_then(Value::as_u64),
            Some(metric(text, series)),
            "stats.{field}.count disagrees with {series}"
        );
    }
}

/// Every sample's family has exactly one `# TYPE` line, and every `# TYPE`
/// line has at least one sample. A summary's `_sum` and `_count` samples
/// belong to the summary's family.
fn assert_well_formed(text: &str) {
    let mut types = std::collections::BTreeMap::<&str, usize>::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            *types.entry(rest.split(' ').next().unwrap()).or_default() += 1;
        }
    }
    for (family, count) in &types {
        assert_eq!(*count, 1, "{family} has {count} TYPE lines");
    }
    let family_of = |sample: &str| -> Option<String> {
        let name = sample.split('{').next().unwrap();
        [
            name,
            name.trim_end_matches("_sum"),
            name.trim_end_matches("_count"),
        ]
        .into_iter()
        .find(|f| types.contains_key(f))
        .map(str::to_string)
    };
    let mut sampled = std::collections::BTreeSet::new();
    for sample in sample_names(text) {
        let family = family_of(&sample)
            .unwrap_or_else(|| panic!("sample {sample} has no TYPE line:\n{text}"));
        sampled.insert(family);
    }
    for family in types.keys() {
        assert!(
            sampled.contains(*family),
            "TYPE {family} has no sample:\n{text}"
        );
    }
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
/// its checkpoints and done: one checkpoint unless the run outlasts a
/// cadence period, so at most four records. `metrics` shows what the
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
        (3..=4).contains(&records),
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
        records - 2,
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
