//! Chaos suite: crash/recovery drills for the durable campaign service.
//!
//! Six failure families, per the robustness tentpole:
//!
//! 1. **Checkpoint/resume byte-identity** — a crafted journal (exactly what
//!    a daemon killed after its second checkpoint leaves behind) is replayed for
//!    every estimator on the campaign path and on the scalar oracle
//!    (injected through the `ServiceConfig::execution_backend` seam); the
//!    resumed report must be byte-identical to an uninterrupted run.
//! 2. **Panic isolation** — a test-only panicking [`ExecutionBackend`]
//!    injected through the `ServiceConfig::execution_backend` seam fails
//!    only its own job, on its one attempt (a re-run of a pure function
//!    would panic again), and the worker pool keeps serving healthy jobs.
//! 3. **Journal/store corruption** — empty journals, torn tails, duplicate
//!    terminal transitions and store files whose contents no longer match
//!    their digest all degrade to recomputation, never to wrong bytes.
//! 4. **SIGKILL + restart** — the real `nvpim-serviced` binary is killed
//!    mid-campaign and restarted over the same `--state-dir`; the recovered
//!    report must match a clean baseline and no job may be orphaned.
//! 5. **Fleet chaos** — three real daemons serve one sharded campaign
//!    through the coordinator while one is SIGKILLed and another SIGSTOPped
//!    mid-run; losing workers must shrink throughput, never correctness:
//!    the merged report stays byte-identical to a single-node run for every
//!    estimator, with the re-assignments recorded.
//! 6. **Restart coalescing** — clients racing duplicate submissions against
//!    a daemon restart coalesce onto the one recovered campaign instead of
//!    forking duplicate executions.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use nvpim_service::client::{request, Client};
use nvpim_service::coordinator::{run_fleet, FleetConfig};
use nvpim_service::journal::JOURNAL_FILE;
use nvpim_service::service::{ServiceConfig, ServiceHandle};
use nvpim_service::{Journal, JournalRecord, ServiceError};
use nvpim_sweep::{
    prepare_campaign, prepare_campaign_with_telemetry, run_campaign, run_campaign_on,
    CampaignControl, EstimatorMode, ExecutionBackend, PointContext, PointTally, ScalarBackend,
    ScheduleCache, SlicedBackend, SweepPlan, SweepWorkload, Tallies, TrialArena,
};
use nvpim_telemetry::{Counter, Telemetry};
use serde::Value;

/// Fresh scratch state directory for one test.
fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nvpim-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create state dir");
    dir
}

/// Report bytes stored on disk for `digest` (the body after the integrity
/// header line) — the ground truth the byte-identity assertions compare.
fn store_body(dir: &Path, digest: &str) -> String {
    let path = dir.join("reports").join(format!("{digest}.json"));
    let raw = std::fs::read_to_string(&path).expect("stored report exists");
    let (_header, body) = raw.split_once('\n').expect("store file has a header");
    body.to_string()
}

/// A small multi-chunk plan: 9 points × 2 seeds = 18 trials.
fn tiny_plan(seed: u64) -> SweepPlan {
    let mut plan = SweepPlan::quick();
    plan.seeds_per_point = 2;
    plan.campaign_seed = seed;
    plan
}

fn submit_record(plan: &SweepPlan, job: u64) -> JournalRecord {
    JournalRecord::Submit {
        job,
        digest: plan.content_digest(),
        priority: 0,
        trials_total: 18,
        plan_json: plan.canonical_json(),
    }
}

/// The tallies of a campaign's first `chunks` four-trial prefix segments,
/// one entry per segment — exactly the `chunk` records a worker killed
/// after checkpointing trials `0 .. 4 * chunks` in four-trial steps would
/// have journaled. Each segment runs as a shard of its own, so the
/// geometry does not depend on when the engine's clock fires.
fn first_chunks(plan: &SweepPlan, backend: &dyn ExecutionBackend, chunks: usize) -> Vec<Tallies> {
    let mut cache = ScheduleCache::new();
    let prepared = prepare_campaign(plan, &mut cache).expect("prepare");
    (0..chunks as u64)
        .map(|chunk| {
            prepared
                .run_shard(backend, 4 * chunk, 4 * (chunk + 1), Duration::MAX, |_| {
                    CampaignControl::Continue
                })
                .expect("segment runs")
        })
        .collect()
}

/// Tentpole assertion 1: for both estimator modes, on the campaign path
/// and on the scalar oracle, a campaign resumed from a crafted mid-flight
/// journal produces report bytes identical to an uninterrupted run,
/// recomputing only the unfinished trials.
#[test]
fn resume_from_checkpoint_is_byte_identical_across_backends_and_estimators() {
    let backends: [&'static dyn ExecutionBackend; 2] = [&ScalarBackend, &SlicedBackend];
    for (i, backend) in backends.into_iter().enumerate() {
        for (j, estimator) in [EstimatorMode::Exact, EstimatorMode::Stratified]
            .into_iter()
            .enumerate()
        {
            let mut plan = tiny_plan(0xc4a0_5000 + (i * 2 + j) as u64);
            plan.estimator = estimator;
            let clean = run_campaign_on(&plan, backend)
                .expect("clean run")
                .to_json();

            // Capture the first two chunks (4 trials each) the way a real
            // worker would have journaled them before dying.
            let captured = first_chunks(&plan, backend, 2);
            assert_eq!(captured.len(), 2, "two four-trial chunks captured");

            let dir = state_dir(&format!("resume-{i}-{j}"));
            {
                let mut journal =
                    Journal::open(dir.join(JOURNAL_FILE)).expect("open crafted journal");
                journal.append(&submit_record(&plan, 1)).expect("submit");
                for (i, tallies) in captured.into_iter().enumerate() {
                    journal
                        .append(&JournalRecord::Chunk {
                            job: 1,
                            trials_done: 4 * (i as u64 + 1),
                            tallies,
                        })
                        .expect("chunk");
                }
            }

            let service = ServiceHandle::start(ServiceConfig {
                workers: 1,
                checkpoint_ms: 0,
                execution_backend: Some(backend),
                state_dir: Some(dir.clone()),
                ..ServiceConfig::default()
            });
            let report = service
                .wait(1, Some(Duration::from_secs(120)))
                .expect("recovered job runs to completion");
            assert_eq!(
                report.as_str(),
                clean,
                "resumed report must be byte-identical ({estimator:?})"
            );

            let stats = service.stats();
            assert_eq!(stats.recovered_jobs, 1);
            assert_eq!(stats.resumed_chunks, 2);
            assert_eq!(stats.journal_records_replayed, 3);
            assert_eq!(
                stats.trials_executed, 10,
                "only the 10 unfinished trials recompute; 8 resume from the journal"
            );
            assert_eq!(store_body(&dir, &plan.content_digest()), clean);
            service.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Accuracy campaigns are as crash-safe as error campaigns: a job resumed
/// from a mid-flight journal reproduces the uninterrupted report byte for
/// byte (stuck-at defect maps and inference predictions included), its
/// cumulative accuracy tally is re-seeded from the checkpointed prefix,
/// and the service's accuracy counters track only newly executed trials.
#[test]
fn accuracy_job_resumes_from_checkpoint_byte_identically() {
    let mut plan = SweepPlan::accuracy_quick();
    plan.seeds_per_point = 4;
    plan.campaign_seed = 0xACC_0C4A;
    let clean = run_campaign(&plan).expect("clean run").to_json();
    assert!(clean.contains("\"schema_version\": 3"));

    // Capture the first two chunks the way a worker killed at the third
    // chunk boundary would have journaled them.
    let captured = first_chunks(&plan, &SlicedBackend, 2);
    let mut resumed = Tallies::new();
    captured.iter().for_each(|chunk| resumed.merge(chunk));
    assert_eq!(resumed.trials(), 8, "two four-trial chunks captured");
    assert_eq!(
        resumed.total().evaluated_trials,
        8,
        "accuracy tallies count predictions"
    );

    let dir = state_dir("accuracy-resume");
    {
        let mut journal = Journal::open(dir.join(JOURNAL_FILE)).expect("open crafted journal");
        journal
            .append(&JournalRecord::Submit {
                job: 1,
                digest: plan.content_digest(),
                priority: 0,
                trials_total: plan.trial_count(),
                plan_json: plan.canonical_json(),
            })
            .expect("submit");
        for (i, tallies) in captured.into_iter().enumerate() {
            journal
                .append(&JournalRecord::Chunk {
                    job: 1,
                    trials_done: 4 * (i as u64 + 1),
                    tallies,
                })
                .expect("chunk");
        }
    }

    let service = ServiceHandle::start(ServiceConfig {
        workers: 1,
        checkpoint_ms: 0,
        state_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    });
    let report = service
        .wait(1, Some(Duration::from_secs(300)))
        .expect("recovered accuracy job runs to completion");
    assert_eq!(
        report.as_str(),
        clean,
        "resumed accuracy report must be byte-identical"
    );

    let total = plan.trial_count();
    let stats = service.stats();
    assert_eq!(stats.recovered_jobs, 1);
    assert_eq!(stats.resumed_chunks, 2);
    assert_eq!(stats.trials_executed, total - 8);
    assert_eq!(
        stats.accuracy_trials_evaluated,
        total - 8,
        "resumed tallies must not be re-counted as executed work"
    );
    assert!(stats.accuracy_trials_correct <= stats.accuracy_trials_evaluated);
    // The job's own streamed tally is cumulative across the restart:
    // checkpointed prefix plus newly executed trials.
    let core = service.job(1).expect("job tracked");
    let (correct, evaluated) = core.accuracy_progress().expect("accuracy progress present");
    assert_eq!(evaluated, total);
    assert_eq!(
        correct,
        stats.accuracy_trials_correct + resumed.total().correct_trials
    );
    // Accuracy demand is counted at acceptance, so journal recovery (which
    // bypasses submit) contributes nothing — but a resubmission of the same
    // plan, served byte-identically from the store, does.
    assert_eq!(stats.accuracy_jobs, 0);
    let resubmit = service.submit(plan.clone(), 0).expect("resubmit");
    assert!(resubmit.cached, "report store serves the recovered bytes");
    assert_eq!(service.stats().accuracy_jobs, 1);
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A chaos-only backend: behaves exactly like the sliced backend, except
/// that campaigns whose seed matches `poison_seed` panic on the
/// `panics_after`-th (and, if `once` is false, every later) task.
#[derive(Debug)]
struct PanicAfterN {
    poison_seed: u64,
    panics_after: usize,
    once: bool,
    calls: AtomicUsize,
}

impl PanicAfterN {
    fn leaked(poison_seed: u64, panics_after: usize, once: bool) -> &'static Self {
        Box::leak(Box::new(Self {
            poison_seed,
            panics_after,
            once,
            calls: AtomicUsize::new(0),
        }))
    }
}

impl ExecutionBackend for PanicAfterN {
    fn task_width(&self, point: &PointContext) -> usize {
        SlicedBackend.task_width(point)
    }

    fn run_task(
        &self,
        point: &PointContext,
        campaign_seed: u64,
        point_index: u64,
        first_trial: u64,
        count: usize,
        arena: &mut TrialArena,
    ) -> PointTally {
        if campaign_seed == self.poison_seed {
            let call = self.calls.fetch_add(1, Ordering::Relaxed);
            let hit = if self.once {
                call == self.panics_after
            } else {
                call >= self.panics_after
            };
            if hit {
                panic!("injected chaos panic (task call {call})");
            }
        }
        SlicedBackend.run_task(point, campaign_seed, point_index, first_trial, count, arena)
    }
}

/// Tentpole assertion 2a: a single injected panic is contained and fails
/// its job on the first attempt — a trial is a pure function of its inputs,
/// so the job is never re-run (no second prepare) — and a restart over the
/// same state dir restores the job as failed without executing a trial.
#[test]
fn injected_panic_fails_its_job_on_the_first_attempt() {
    const POISON: u64 = 0xdead_0001;
    let plan = tiny_plan(POISON);
    // The schedule-cache lookups of exactly one prepare of this plan.
    let one_prepare = Telemetry::new();
    prepare_campaign_with_telemetry(&plan, &mut ScheduleCache::new(), one_prepare.clone())
        .expect("prepare");
    let one_prepare = one_prepare.snapshot();
    let dir = state_dir("panic-once");
    let service = ServiceHandle::start(ServiceConfig {
        workers: 1,
        checkpoint_ms: 0,
        state_dir: Some(dir.clone()),
        execution_backend: Some(PanicAfterN::leaked(POISON, 5, true)),
        ..ServiceConfig::default()
    });
    let outcome = service.submit(plan, 0).expect("submit");
    match service.wait(outcome.job, Some(Duration::from_secs(120))) {
        Err(ServiceError::JobFailed(msg)) => assert!(
            msg.starts_with("campaign panicked: injected chaos panic"),
            "failure carries the panic payload, got: {msg}"
        ),
        other => panic!("expected JobFailed, got {other:?}"),
    }
    let stats = service.stats();
    assert_eq!(stats.jobs_failed, 1);
    assert_eq!(stats.jobs_completed, 0);
    assert_eq!(
        (stats.schedule_cache_compiles, stats.schedule_cache_hits),
        (
            one_prepare.counter(Counter::ScheduleCompiles),
            one_prepare.counter(Counter::ScheduleCacheHits)
        ),
        "the campaign was prepared once"
    );
    service.shutdown();

    let service = ServiceHandle::start(ServiceConfig {
        workers: 1,
        state_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    });
    let status = service.status(outcome.job).expect("status");
    assert_eq!(status.state, "failed");
    assert!(status
        .error
        .as_deref()
        .is_some_and(|e| e.starts_with("campaign panicked")));
    let stats = service.stats();
    assert_eq!(stats.recovered_jobs, 1);
    assert_eq!(stats.trials_executed, 0, "a failed job does not re-run");
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tentpole assertion 2b: a persistently panicking campaign fails
/// *terminally and alone* — concurrent healthy jobs
/// complete with correct bytes, and the pool keeps serving afterwards.
#[test]
fn persistent_panic_fails_only_its_own_job_and_pool_survives() {
    const POISON: u64 = 0xdead_0002;
    let healthy_a = tiny_plan(0x600d_0001);
    let healthy_b = tiny_plan(0x600d_0002);
    let clean_a = run_campaign(&healthy_a).expect("clean run").to_json();
    let service = ServiceHandle::start(ServiceConfig {
        workers: 2,
        checkpoint_ms: 0,
        execution_backend: Some(PanicAfterN::leaked(POISON, 0, false)),
        ..ServiceConfig::default()
    });
    let poison = service.submit(tiny_plan(POISON), 0).expect("submit poison");
    let job_a = service.submit(healthy_a, 0).expect("submit healthy A");
    let job_b = service.submit(healthy_b, 0).expect("submit healthy B");

    let err = service
        .wait(poison.job, Some(Duration::from_secs(120)))
        .expect_err("poison job must fail terminally");
    match err {
        ServiceError::JobFailed(msg) => {
            assert!(
                msg.contains("campaign panicked"),
                "failure carries the panic payload, got: {msg}"
            );
        }
        other => panic!("expected JobFailed, got {other:?}"),
    }
    let report_a = service
        .wait(job_a.job, Some(Duration::from_secs(120)))
        .expect("healthy job A completes");
    assert_eq!(report_a.as_str(), clean_a);
    service
        .wait(job_b.job, Some(Duration::from_secs(120)))
        .expect("healthy job B completes");

    // The pool still serves new work after containing the panics.
    let after = service
        .submit(tiny_plan(0x600d_0003), 0)
        .expect("submit after panic");
    service
        .wait(after.job, Some(Duration::from_secs(120)))
        .expect("post-panic submission completes");

    let stats = service.stats();
    assert_eq!(stats.jobs_failed, 1);
    assert_eq!(stats.jobs_completed, 3);
    service.shutdown();
}

/// Satellite (c): an empty journal file is a valid empty state.
#[test]
fn empty_journal_recovers_to_empty_state() {
    let dir = state_dir("empty-journal");
    std::fs::write(dir.join(JOURNAL_FILE), b"").expect("write empty journal");
    let service = ServiceHandle::start(ServiceConfig {
        workers: 1,
        state_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    });
    let stats = service.stats();
    assert_eq!(stats.journal_records_replayed, 0);
    assert_eq!(stats.recovered_jobs, 0);
    // Fresh ids start at 1.
    let outcome = service.submit(tiny_plan(0xe321), 0).expect("submit");
    assert_eq!(outcome.job, 1);
    service
        .wait(1, Some(Duration::from_secs(120)))
        .expect("job completes");
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite (c): a torn final record (crash mid-append) is discarded; the
/// intact prefix still recovers, the job recomputes byte-identically, and —
/// because reopening truncates the tear — a *second* restart still replays
/// everything, including records appended after the tear.
#[test]
fn torn_journal_tail_recovers_and_survives_a_second_restart() {
    let plan = tiny_plan(0x7042);
    let clean = run_campaign(&plan).expect("clean run").to_json();
    let dir = state_dir("torn-tail");
    {
        let mut journal = Journal::open(dir.join(JOURNAL_FILE)).expect("open journal");
        journal.append(&submit_record(&plan, 1)).expect("submit");
    }
    // Crash mid-append: a partial chunk record with no trailing newline.
    let mut bytes = std::fs::read(dir.join(JOURNAL_FILE)).expect("read journal");
    bytes.extend_from_slice(br#"{"type":"chunk","job":1,"trials_done":4,"outc"#);
    std::fs::write(dir.join(JOURNAL_FILE), &bytes).expect("tear journal");

    let service = ServiceHandle::start(ServiceConfig {
        workers: 1,
        checkpoint_ms: 0,
        state_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    });
    let report = service
        .wait(1, Some(Duration::from_secs(120)))
        .expect("job recovered from the intact prefix");
    assert_eq!(report.as_str(), clean);
    let stats = service.stats();
    assert_eq!(stats.recovered_jobs, 1);
    assert_eq!(stats.resumed_chunks, 0, "the torn chunk never counts");
    service.shutdown();

    // Second restart: the tear was truncated at first reopen, so the
    // records appended after it (chunks + done) replay cleanly and the
    // finished job is restored straight from the store.
    let service = ServiceHandle::start(ServiceConfig {
        workers: 1,
        state_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    });
    let report = service
        .wait(1, Some(Duration::from_secs(120)))
        .expect("done job restored on second restart");
    assert_eq!(report.as_str(), clean);
    let status = service.status(1).expect("status");
    assert_eq!(status.state, "done");
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite (c): duplicate terminal transitions — the first one wins, the
/// conflicting later record is discarded.
#[test]
fn duplicate_terminal_transitions_keep_the_first() {
    let plan = tiny_plan(0xd0d0);
    let dir = state_dir("dup-terminal");
    {
        let mut journal = Journal::open(dir.join(JOURNAL_FILE)).expect("open journal");
        journal.append(&submit_record(&plan, 1)).expect("submit");
        journal
            .append(&JournalRecord::Failed {
                job: 1,
                error: "first terminal wins".into(),
            })
            .expect("failed");
        journal
            .append(&JournalRecord::Done { job: 1 })
            .expect("done");
    }
    let service = ServiceHandle::start(ServiceConfig {
        workers: 1,
        state_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    });
    let status = service.status(1).expect("status");
    assert_eq!(status.state, "failed");
    assert_eq!(status.error.as_deref(), Some("first terminal wins"));
    match service.result(1) {
        Err(ServiceError::JobFailed(msg)) => assert!(msg.contains("first terminal wins")),
        other => panic!("expected JobFailed, got {other:?}"),
    }
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite (c): a store file whose contents no longer match its digest
/// filename is rejected on read; the `done` job demotes to in-flight and
/// recomputes byte-identical bytes, healing the store.
#[test]
fn corrupt_store_entry_recomputes_byte_identical_report() {
    let plan = tiny_plan(0xbadc);
    let clean = run_campaign(&plan).expect("clean run").to_json();
    let digest = plan.content_digest();
    let dir = state_dir("corrupt-store");
    {
        let mut journal = Journal::open(dir.join(JOURNAL_FILE)).expect("open journal");
        journal.append(&submit_record(&plan, 1)).expect("submit");
        journal
            .append(&JournalRecord::Done { job: 1 })
            .expect("done");
    }
    // The journal says done, but the stored report was flipped: the header
    // hash no longer matches the body.
    let reports = dir.join("reports");
    std::fs::create_dir_all(&reports).expect("create reports dir");
    std::fs::write(
        reports.join(format!("{digest}.json")),
        format!("{}\n{{\"tampered\":true}}", "0".repeat(64)),
    )
    .expect("plant corrupt store file");

    let service = ServiceHandle::start(ServiceConfig {
        workers: 1,
        checkpoint_ms: 0,
        state_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    });
    let report = service
        .wait(1, Some(Duration::from_secs(120)))
        .expect("job recomputes after store corruption");
    assert_eq!(
        report.as_str(),
        clean,
        "recomputation matches the clean run"
    );
    assert_eq!(store_body(&dir, &digest), clean, "the store is healed");
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reads the `nvpim-serviced listening on <addr>` announcement from a
/// freshly spawned daemon's stdout.
fn scrape_announced_addr(child: &mut std::process::Child) -> String {
    let stdout = child.stdout.take().expect("daemon stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    std::io::BufRead::read_line(&mut reader, &mut line).expect("read announcement");
    line.trim()
        .rsplit(' ')
        .next()
        .expect("announcement carries the address")
        .to_string()
}

/// Spawns the real daemon binary over `dir`, scraping the OS-assigned port
/// from its announcement line.
fn spawn_daemon_process(dir: &Path) -> (std::process::Child, String) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_nvpim-serviced"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--checkpoint-ms",
            "0",
            "--state-dir",
        ])
        .arg(dir)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn nvpim-serviced");
    let addr = scrape_announced_addr(&mut child);
    (child, addr)
}

/// Tentpole assertion 4: SIGKILL the real daemon mid-campaign, restart it
/// over the same state directory, and the recovered report bytes equal a
/// clean in-process baseline; the job reaches `done` and nothing is
/// orphaned in the queue. (The kill races the campaign by design — both
/// outcomes, killed-in-flight and killed-after-done, must recover.)
#[test]
fn sigkill_and_restart_recovers_byte_identical_report() {
    let plan = SweepPlan::quick(); // 72 trials, a checkpoint per task
    let clean = run_campaign(&plan).expect("clean run").to_json();
    let digest = plan.content_digest();
    let plan_value: Value = serde_json::from_str(&plan.canonical_json()).expect("plan JSON parses");
    let dir = state_dir("sigkill");

    let (mut child, addr) = spawn_daemon_process(&dir);
    let mut client = Client::connect(&addr).expect("connect to first daemon");
    let accepted = client
        .request(&request(
            "submit",
            vec![("plan".to_string(), plan_value.clone())],
        ))
        .expect("submit");
    assert_eq!(accepted.get("ok").and_then(Value::as_bool), Some(true));
    let job = accepted.get("job").and_then(Value::as_u64).expect("job id");
    // The acceptance response means the submit record is journaled and
    // fsync'd — SIGKILL now, wherever the
    // campaign happens to be.
    child.kill().expect("SIGKILL the daemon");
    let _ = child.wait();

    let (mut child2, addr2) = spawn_daemon_process(&dir);
    let mut client2 = Client::connect(&addr2).expect("connect to restarted daemon");
    let result = client2
        .request(&request(
            "result",
            vec![
                ("job".to_string(), Value::UInt(job)),
                ("wait".to_string(), Value::Bool(true)),
                ("timeout_ms".to_string(), Value::UInt(120_000)),
            ],
        ))
        .expect("result after recovery");
    assert_eq!(
        result.get("ok").and_then(Value::as_bool),
        Some(true),
        "recovered job must complete: {result:?}"
    );
    assert_eq!(
        store_body(&dir, &digest),
        clean,
        "recovered bytes match the clean baseline"
    );

    // No orphans: the job is terminal and the queue is drained.
    let stats = client2.request(&request("stats", vec![])).expect("stats");
    let stats = stats.get("stats").expect("stats payload");
    assert_eq!(stats.get("queue_depth").and_then(Value::as_u64), Some(0));
    assert_eq!(
        stats.get("recovered_jobs").and_then(Value::as_u64),
        Some(1),
        "the killed daemon's job was recovered from the journal"
    );
    let status = client2
        .request(&request(
            "status",
            vec![("job".to_string(), Value::UInt(job))],
        ))
        .expect("status");
    assert_eq!(
        status
            .get("status")
            .and_then(|s| s.get("state"))
            .and_then(Value::as_str),
        Some("done")
    );

    // A resubmission of the same plan now hits the durable report store.
    let resubmit = client2
        .request(&request("submit", vec![("plan".to_string(), plan_value)]))
        .expect("resubmit");
    assert_eq!(resubmit.get("cached").and_then(Value::as_bool), Some(true));

    let shutdown = client2
        .request(&request("shutdown", vec![]))
        .expect("shutdown");
    assert_eq!(shutdown.get("ok").and_then(Value::as_bool), Some(true));
    let _ = child2.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spawns a stateless fleet worker daemon on an OS-assigned port.
fn spawn_fleet_worker() -> (std::process::Child, String) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_nvpim-serviced"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--checkpoint-ms",
            "0",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn fleet worker");
    let addr = scrape_announced_addr(&mut child);
    (child, addr)
}

/// Sends `sig` (e.g. `-STOP`, `-CONT`) to process `pid` via `kill(1)`.
fn signal(pid: u32, sig: &str) {
    let status = std::process::Command::new("kill")
        .args([sig, &pid.to_string()])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill {sig} {pid} failed");
}

/// The daemon at `addr`'s `nvpim_checkpoints_total{path="shard"}` series:
/// the shard checkpoints it has streamed so far. `None` if it cannot be
/// read.
fn shard_checkpoints(addr: &str) -> Option<u64> {
    let mut client = Client::connect(addr).ok()?;
    let response = client.request(&request("metrics", vec![])).ok()?;
    let text = response.get("metrics")?.as_str()?;
    Some(
        text.lines()
            .find_map(|line| line.strip_prefix("nvpim_checkpoints_total{path=\"shard\"} "))
            .map_or(0, |value| value.trim().parse().unwrap_or(0)),
    )
}

/// Polls the daemon at `addr` until its shard-checkpoint series exceeds
/// `above`, and returns the new value. `None` when `over()` says the
/// campaign has ended first, the series cannot be read, or a minute has
/// passed.
fn await_shard_checkpoints(addr: &str, above: u64, over: impl Fn() -> bool) -> Option<u64> {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !over() && Instant::now() < deadline {
        let seen = shard_checkpoints(addr)?;
        if seen > above {
            return Some(seen);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    None
}

/// A heavyweight-per-trial fleet plan: one 16-bit multiplier workload
/// across the paper's protection trio and a dense error-rate grid — 9
/// points, `seeds_per_point` seeds each. The dense rates keep the
/// stratified estimator's conditioned trials as expensive as exact ones,
/// so both modes give chaos a wide mid-campaign window.
fn fleet_chaos_plan(seed: u64, estimator: EstimatorMode, seeds_per_point: u64) -> SweepPlan {
    let mut plan = SweepPlan::quick();
    plan.workloads = vec![SweepWorkload::Multiplier { bits: 16 }];
    plan.gate_error_rates = vec![3e-3, 1e-2, 3e-2];
    plan.seeds_per_point = seeds_per_point;
    plan.campaign_seed = seed;
    plan.estimator = estimator;
    plan
}

/// Tentpole assertion 5: three real daemons serve one sharded campaign;
/// one is SIGKILLed (disconnect) and another SIGSTOPped (stall past the
/// heartbeat deadline) mid-run. For both estimator modes the merged
/// report must be byte-identical to a single-node run,
/// both chaos victims must be evicted, and the shard hand-offs must be
/// recorded in the fleet stats and the telemetry registry.
///
/// The signals follow the victims' own progress, read from each daemon's
/// shard-checkpoint series: worker 0 is SIGKILLed once it has streamed a
/// shard checkpoint, and worker 1 SIGSTOPped once it has streamed another
/// since the kill — so both are mid-shard, whatever the host's speed.
#[test]
fn fleet_survives_sigkill_and_sigstop_with_byte_identical_reports() {
    for (j, estimator) in [EstimatorMode::Exact, EstimatorMode::Stratified]
        .into_iter()
        .enumerate()
    {
        // Trial cost varies severalfold across the protection schemes
        // inside one plan — 360 seeds per point keep a multi-second chaos
        // window for each estimator, and workers checkpointing every task
        // stream far inside the heartbeat deadline.
        let plan = fleet_chaos_plan(0xf1ee_7002 + j as u64, estimator, 360);
        let clean = run_campaign(&plan).expect("clean run").to_json();

        let mut daemons: Vec<(std::process::Child, String)> =
            (0..3).map(|_| spawn_fleet_worker()).collect();
        let cfg = FleetConfig {
            workers: daemons.iter().map(|(_, addr)| addr.clone()).collect(),
            shards: 9,
        };
        let telemetry = Telemetry::new();
        let (fleet_result, chaos) = std::thread::scope(|scope| {
            let fleet = scope.spawn(|| run_fleet(&plan, &cfg, &telemetry));
            let over = || fleet.is_finished();
            let mut chaos = || -> Result<(), &str> {
                await_shard_checkpoints(&daemons[0].1, 0, over)
                    .ok_or("worker 0 streamed no shard checkpoint")?;
                daemons[0].0.kill().expect("SIGKILL worker 0");
                let since = shard_checkpoints(&daemons[1].1).ok_or("worker 1 has no metrics")?;
                await_shard_checkpoints(&daemons[1].1, since, over)
                    .ok_or("worker 1 streamed no shard checkpoint after the kill")?;
                signal(daemons[1].0.id(), "-STOP");
                Ok(())
            };
            let chaos = chaos();
            (fleet.join().expect("fleet thread"), chaos)
        });

        // Clean up the processes before asserting so a failed assertion
        // never leaves a SIGSTOPped daemon behind.
        signal(daemons[1].0.id(), "-CONT");
        for (child, _) in &mut daemons {
            let _ = child.kill();
            let _ = child.wait();
        }

        chaos.unwrap_or_else(|miss| panic!("chaos missed its window ({estimator:?}): {miss}"));
        let outcome = fleet_result.expect("fleet survives the chaos");
        assert_eq!(
            outcome.report.to_json(),
            clean,
            "merged fleet report must be byte-identical to a single-node \
             run ({estimator:?})"
        );
        assert!(
            outcome.stats.shards_reassigned > 0,
            "killing and stalling workers mid-shard must hand shards off \
             ({estimator:?}): {:?}",
            outcome.stats
        );
        assert_eq!(
            outcome.stats.worker_evictions, 2,
            "both chaos victims are evicted ({estimator:?})"
        );
        assert!(
            outcome.stats.heartbeat_misses > 0,
            "the SIGSTOPped worker misses its heartbeat deadline"
        );
        let survivor = outcome
            .stats
            .workers
            .iter()
            .find(|w| !w.evicted)
            .expect("one worker survives");
        assert!(survivor.shards_completed > 0);

        let snapshot = telemetry.snapshot();
        assert_eq!(
            snapshot.counter(Counter::ShardsReassigned),
            outcome.stats.shards_reassigned,
            "telemetry mirrors the fleet's re-assignment count"
        );
        let rendered = snapshot.render_prometheus();
        assert!(rendered.contains("nvpim_shards_reassigned_total"));
        assert!(rendered.contains("nvpim_worker_evictions_total"));
        assert!(rendered.contains("nvpim_heartbeat_misses_total"));
    }
}

/// Tentpole assertion 6: two clients submitting the same plan digest while
/// the daemon restarts coalesce onto the one recovered campaign — a single
/// execution, byte-identical report bytes for everyone.
#[test]
fn concurrent_resubmission_during_restart_coalesces_to_one_campaign() {
    // Heavyweight trials so the first daemon is killed mid-campaign and the
    // restarted daemon's recovery run is still in flight when the two
    // resubmitters race it.
    let plan = fleet_chaos_plan(0xc0a1_e5ce, EstimatorMode::Exact, 100);
    let clean = run_campaign(&plan).expect("clean run").to_json();
    let digest = plan.content_digest();
    let plan_value: Value = serde_json::from_str(&plan.canonical_json()).expect("plan JSON parses");
    let dir = state_dir("coalesce-restart");

    let (mut child, addr) = spawn_daemon_process(&dir);
    let mut client = Client::connect(&addr).expect("connect to first daemon");
    let accepted = client
        .request(&request(
            "submit",
            vec![("plan".to_string(), plan_value.clone())],
        ))
        .expect("submit");
    assert_eq!(accepted.get("ok").and_then(Value::as_bool), Some(true));
    child.kill().expect("SIGKILL the daemon");
    let _ = child.wait();

    // Restart over the same state dir; the journaled job recovers and two
    // clients race duplicate submissions against that recovery.
    let (mut child2, addr2) = spawn_daemon_process(&dir);
    let responses: Vec<(bool, bool, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let addr2 = &addr2;
                let plan_value = plan_value.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(addr2).expect("connect resubmitter");
                    let resubmit = client
                        .request(&request("submit", vec![("plan".to_string(), plan_value)]))
                        .expect("resubmit");
                    assert_eq!(
                        resubmit.get("ok").and_then(Value::as_bool),
                        Some(true),
                        "resubmission accepted: {resubmit:?}"
                    );
                    let job = resubmit.get("job").and_then(Value::as_u64).expect("job id");
                    let coalesced = resubmit
                        .get("coalesced")
                        .and_then(Value::as_bool)
                        .unwrap_or(false);
                    let cached = resubmit
                        .get("cached")
                        .and_then(Value::as_bool)
                        .unwrap_or(false);
                    let result = client
                        .request(&request(
                            "result",
                            vec![
                                ("job".to_string(), Value::UInt(job)),
                                ("wait".to_string(), Value::Bool(true)),
                                ("timeout_ms".to_string(), Value::UInt(120_000)),
                            ],
                        ))
                        .expect("result");
                    assert_eq!(
                        result.get("ok").and_then(Value::as_bool),
                        Some(true),
                        "result delivered: {result:?}"
                    );
                    let report = serde_json::to_string(result.get("report").expect("report"))
                        .expect("serialize report");
                    (coalesced, cached, report)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("resubmitter thread"))
            .collect()
    });

    for (coalesced, cached, _) in &responses {
        assert!(
            *coalesced || *cached,
            "a duplicate digest must coalesce onto the recovered job (or hit \
             the store if recovery already finished), never fork a new run"
        );
    }
    assert_eq!(
        responses[0].2, responses[1].2,
        "both clients read identical report bytes"
    );
    assert_eq!(
        store_body(&dir, &digest),
        clean,
        "the one recovered campaign produced the clean baseline bytes"
    );

    let mut client2 = Client::connect(&addr2).expect("connect for stats");
    let stats = client2.request(&request("stats", vec![])).expect("stats");
    let stats = stats.get("stats").expect("stats payload");
    assert_eq!(
        stats.get("jobs_completed").and_then(Value::as_u64),
        Some(1),
        "exactly one campaign executed: {stats:?}"
    );
    assert_eq!(stats.get("recovered_jobs").and_then(Value::as_u64), Some(1));
    assert_eq!(stats.get("queue_depth").and_then(Value::as_u64), Some(0));

    let shutdown = client2
        .request(&request("shutdown", vec![]))
        .expect("shutdown");
    assert_eq!(shutdown.get("ok").and_then(Value::as_bool), Some(true));
    let _ = child2.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The poison pill: a quick plan asking for 2^40 seeds per point passes
/// validation (its trial count fits a `u64`), so the admission budget is
/// what stands between it and the daemon.
fn poison_plan() -> SweepPlan {
    let mut plan = SweepPlan::quick();
    plan.seeds_per_point = 1 << 40;
    plan
}

/// Spawns the real daemon binary with extra arguments and no state dir.
fn spawn_daemon_with(args: &[&str]) -> (std::process::Child, String) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_nvpim-serviced"))
        .args(["--addr", "127.0.0.1:0", "--workers", "1"])
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn nvpim-serviced");
    let addr = scrape_announced_addr(&mut child);
    (child, addr)
}

fn plan_value(plan: &SweepPlan) -> Value {
    serde_json::from_str(&plan.canonical_json()).expect("plan JSON parses")
}

fn error_code(resp: &Value) -> Option<&str> {
    resp.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Value::as_str)
}

fn job_status(client: &mut Client, job: u64) -> Value {
    let resp = client
        .request(&request(
            "status",
            vec![("job".to_string(), Value::UInt(job))],
        ))
        .expect("status");
    resp.get("status").cloned().expect("status payload")
}

/// A poison plan is refused with `plan_too_large` and the daemon keeps
/// serving. The same plan journaled as accepted (by a daemon without the
/// budget) fails its job on replay instead of re-running it, and a second
/// restart finds it failed too: no crash loop.
#[test]
fn poison_plan_is_refused_and_a_journaled_one_fails_instead_of_crash_looping() {
    let poison = poison_plan();
    assert!(poison.validate().is_ok(), "the plan itself is well-formed");
    let dir = state_dir("poison");
    {
        let mut journal = Journal::open(dir.join(JOURNAL_FILE)).expect("open journal");
        journal
            .append(&JournalRecord::Submit {
                job: 1,
                digest: poison.content_digest(),
                priority: 0,
                trials_total: poison.trial_count(),
                plan_json: poison.canonical_json(),
            })
            .expect("submit");
    }
    for restart in 0..2 {
        let (mut child, addr) = spawn_daemon_process(&dir);
        let mut client = Client::connect(&addr).expect("connect");
        let status = job_status(&mut client, 1);
        assert_eq!(
            status.get("state").and_then(Value::as_str),
            Some("failed"),
            "restart {restart}: {status:?}"
        );
        let error = status.get("error").and_then(Value::as_str).unwrap_or("");
        assert!(error.contains("budget"), "restart {restart}: {error}");

        let refused = client
            .request(&request(
                "submit",
                vec![("plan".to_string(), plan_value(&poison))],
            ))
            .expect("submit poison");
        assert_eq!(error_code(&refused), Some("plan_too_large"), "{refused:?}");

        // The daemon is alive and still runs healthy work.
        let healthy = client
            .request(&request(
                "submit",
                vec![
                    ("plan".to_string(), plan_value(&tiny_plan(0x9015 + restart))),
                    ("wait".to_string(), Value::Bool(true)),
                ],
            ))
            .expect("submit healthy");
        assert_eq!(healthy.get("ok").and_then(Value::as_bool), Some(true));
        let mut result = healthy;
        while result.get("event").and_then(Value::as_str) != Some("result") {
            result = client.recv().expect("recv").expect("stream line");
        }
        assert_eq!(result.get("ok").and_then(Value::as_bool), Some(true));
        let stats = client.request(&request("stats", vec![])).expect("stats");
        let stats = stats.get("stats").expect("stats payload");
        assert_eq!(stats.get("queue_depth").and_then(Value::as_u64), Some(0));
        client
            .request(&request("shutdown", vec![]))
            .expect("shutdown");
        let _ = child.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resident set size of a process, in kB.
fn rss_kb(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmRSS:"))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .expect("VmRSS readable")
}

/// Polls `job` until at least `trials` trials are done.
fn await_trials(client: &mut Client, job: u64, trials: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let done = job_status(client, job)
            .get("trials_done")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        if done >= trials {
            return;
        }
        assert!(Instant::now() < deadline, "stuck at {done} trials");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Admitted under a raised budget, the poison plan runs in flat memory —
/// nothing grows with its 10^13 trials — and cancels cleanly.
#[test]
fn an_admitted_poison_plan_runs_in_flat_memory_and_cancels() {
    let (mut child, addr) = spawn_daemon_with(&["--max-trials-per-job", &u64::MAX.to_string()]);
    let mut client = Client::connect(&addr).expect("connect");
    let accepted = client
        .request(&request(
            "submit",
            vec![("plan".to_string(), plan_value(&poison_plan()))],
        ))
        .expect("submit");
    assert_eq!(accepted.get("ok").and_then(Value::as_bool), Some(true));
    let job = accepted.get("job").and_then(Value::as_u64).expect("job id");

    await_trials(&mut client, job, 2_000);
    let early = rss_kb(child.id());
    await_trials(&mut client, job, 20_000);
    let late = rss_kb(child.id());
    assert!(
        late < early + 16 * 1024,
        "RSS grew from {early} kB to {late} kB over 18k trials"
    );

    let cancel = client
        .request(&request(
            "cancel",
            vec![("job".to_string(), Value::UInt(job))],
        ))
        .expect("cancel");
    assert_eq!(cancel.get("cancelled").and_then(Value::as_bool), Some(true));
    let deadline = Instant::now() + Duration::from_secs(60);
    while job_status(&mut client, job)
        .get("state")
        .and_then(Value::as_str)
        != Some("cancelled")
    {
        assert!(Instant::now() < deadline, "cancel never landed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let pong = client.request(&request("ping", vec![])).expect("ping");
    assert_eq!(pong.get("event").and_then(Value::as_str), Some("pong"));
    client
        .request(&request("shutdown", vec![]))
        .expect("shutdown");
    let _ = child.wait();
}

/// Journal bytes and `chunk` records of one job run at `checkpoint_ms`.
fn journal_cost(plan: &SweepPlan, checkpoint_ms: u64) -> (usize, Vec<usize>) {
    let dir = state_dir(&format!("journal-cost-{checkpoint_ms}"));
    let service = ServiceHandle::start(ServiceConfig {
        workers: 1,
        checkpoint_ms,
        state_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    });
    let job = service.submit(plan.clone(), 0).expect("submit").job;
    service
        .wait(job, Some(Duration::from_secs(120)))
        .expect("job completes");
    service.shutdown();
    let journal = std::fs::read_to_string(dir.join(JOURNAL_FILE)).expect("read journal");
    let chunks = journal
        .lines()
        .filter(|line| line.contains(r#""rec":"chunk""#))
        .map(str::len)
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    (journal.len(), chunks)
}

/// What one campaign journals is bounded independently of the checkpoint
/// cadence: a `chunk` record carries per-point tallies, so it costs bytes
/// per point it covers, never per trial, and there is at most one record
/// per task (64 trials of one point) however often the clock fires.
#[test]
fn journal_bytes_per_campaign_do_not_depend_on_the_cadence() {
    let mut plan = tiny_plan(0xb17e);
    plan.seeds_per_point = 256;
    let tasks = plan.point_count() * 256 / 64;
    // One checkpoint covering every trial of every point: the largest
    // record the plan can produce.
    let (whole_bytes, whole) = journal_cost(&plan, u64::MAX);
    assert_eq!(
        whole.len(),
        1,
        "a cadence longer than the run checkpoints once"
    );
    let largest = whole[0];
    let envelope = whole_bytes - largest;
    let bound = envelope + tasks * largest;
    for checkpoint_ms in [0, 250] {
        let (bytes, chunks) = journal_cost(&plan, checkpoint_ms);
        assert!(
            (1..=tasks).contains(&chunks.len()),
            "{checkpoint_ms} ms: {} chunk records for {tasks} tasks",
            chunks.len()
        );
        assert!(
            chunks.iter().all(|&len| len <= largest),
            "{checkpoint_ms} ms: a record outgrew the whole-campaign record ({largest} B)"
        );
        assert!(
            bytes <= bound,
            "{checkpoint_ms} ms: {bytes} B journaled, bound {bound} B"
        );
    }
}
