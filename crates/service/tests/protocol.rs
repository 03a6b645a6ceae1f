//! Wire-protocol integration tests: a real `TcpListener` + the real
//! connection loop, driven through the blocking [`Client`].
//!
//! The satellite requirements: malformed JSON, unknown commands, oversized
//! lines and mid-job cancellation all produce *structured* errors and never
//! poison the worker pool (a subsequent well-formed submission still runs
//! to completion).

use std::io::Read;
use std::net::TcpListener;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use nvpim_service::client::{request, Client};
use nvpim_service::service::{ServiceConfig, ServiceHandle};
use nvpim_sweep::{
    ExecutionBackend, PointContext, PointTally, ScalarBackend, SlicedBackend, SweepPlan, TrialArena,
};
use serde::Value;

/// Starts a daemon on an OS-assigned loopback port; returns its address
/// and the serving thread (joined via `shutdown`).
fn spawn_daemon(cfg: ServiceConfig) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let service = ServiceHandle::start(cfg);
    let handle = std::thread::spawn(move || {
        nvpim_service::serve(&service, listener).expect("serve");
    });
    (addr, handle)
}

fn shutdown(addr: &str, daemon: std::thread::JoinHandle<()>) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    let resp = client
        .request(&request("shutdown", vec![]))
        .expect("shutdown");
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    daemon.join().expect("daemon thread exits");
}

fn error_code(resp: &Value) -> &str {
    assert_eq!(
        resp.get("ok").and_then(Value::as_bool),
        Some(false),
        "expected an error response, got: {resp:?}"
    );
    resp.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Value::as_str)
        .expect("structured errors carry a code")
}

fn tiny_plan_value(seed: u64) -> Value {
    let mut plan = SweepPlan::quick();
    plan.seeds_per_point = 2;
    plan.campaign_seed = seed;
    serde_json::from_str(&plan.canonical_json()).expect("plan JSON parses")
}

fn submit_and_wait(client: &mut Client, seed: u64) -> Value {
    let accepted = client
        .request(&request(
            "submit",
            vec![("plan".to_string(), tiny_plan_value(seed))],
        ))
        .expect("submit");
    assert_eq!(accepted.get("ok").and_then(Value::as_bool), Some(true));
    let job = accepted.get("job").and_then(Value::as_u64).expect("job id");
    let result = client
        .request(&request(
            "result",
            vec![
                ("job".to_string(), Value::UInt(job)),
                ("wait".to_string(), Value::Bool(true)),
            ],
        ))
        .expect("result");
    assert_eq!(result.get("ok").and_then(Value::as_bool), Some(true));
    result
}

#[test]
fn malformed_and_unknown_requests_get_structured_errors() {
    let (addr, daemon) = spawn_daemon(ServiceConfig {
        workers: 1,
        ..Default::default()
    });
    let mut client = Client::connect(&addr).expect("connect");

    client.send_raw("this is not json{{{").expect("send");
    let resp = client.recv().expect("recv").expect("response");
    assert_eq!(error_code(&resp), "malformed_json");

    let resp = client
        .request(&request("frobnicate", vec![]))
        .expect("request");
    assert_eq!(error_code(&resp), "unknown_command");

    // No `cmd` field at all.
    client.send_raw("{\"plan\":\"quick\"}").expect("send");
    let resp = client.recv().expect("recv").expect("response");
    assert_eq!(error_code(&resp), "bad_request");

    // Bad plan shape is invalid_plan, not a connection teardown.
    let resp = client
        .request(&request(
            "submit",
            vec![("plan".to_string(), Value::Str("warp_speed".into()))],
        ))
        .expect("request");
    assert_eq!(error_code(&resp), "invalid_plan");

    // Unknown job ids.
    let resp = client
        .request(&request(
            "status",
            vec![("job".to_string(), Value::UInt(999))],
        ))
        .expect("request");
    assert_eq!(error_code(&resp), "unknown_job");

    // The same connection still serves real work afterwards.
    let result = submit_and_wait(&mut client, 101);
    assert!(result.get("report").is_some());

    shutdown(&addr, daemon);
}

#[test]
fn oversized_lines_error_and_do_not_poison_the_pool() {
    let (addr, daemon) = spawn_daemon(ServiceConfig {
        workers: 1,
        ..Default::default()
    });

    let mut client = Client::connect(&addr).expect("connect");
    let huge = "x".repeat(nvpim_service::MAX_LINE_BYTES + 10);
    client.send_raw(&huge).expect("send oversized");
    let resp = client.recv().expect("recv").expect("response");
    assert_eq!(error_code(&resp), "line_too_long");
    // The server closes this connection afterwards.
    assert!(client.recv().expect("eof read").is_none());

    // The pool is intact: a fresh connection runs a job fine.
    let mut client2 = Client::connect(&addr).expect("reconnect");
    let result = submit_and_wait(&mut client2, 102);
    assert!(result.get("report").is_some());

    shutdown(&addr, daemon);
}

#[test]
fn mid_job_cancel_returns_structured_errors_and_pool_survives() {
    let (addr, daemon) = spawn_daemon(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        // One-trial tasks, a checkpoint (and cancellation check) after each.
        checkpoint_ms: 0,
        execution_backend: Some(&ScalarBackend),
        ..Default::default()
    });
    let mut client = Client::connect(&addr).expect("connect");

    // A long job (9 points × 400 seeds = 3,600 one-trial tasks).
    let mut plan = SweepPlan::quick();
    plan.seeds_per_point = 400;
    plan.campaign_seed = 103;
    let plan_value: Value = serde_json::from_str(&plan.canonical_json()).expect("parses");
    let accepted = client
        .request(&request("submit", vec![("plan".to_string(), plan_value)]))
        .expect("submit");
    let job = accepted.get("job").and_then(Value::as_u64).expect("job id");

    // Wait until it is actually running.
    loop {
        let status = client
            .request(&request(
                "status",
                vec![("job".to_string(), Value::UInt(job))],
            ))
            .expect("status");
        let state = status
            .get("status")
            .and_then(|s| s.get("state"))
            .and_then(Value::as_str)
            .expect("state");
        if state == "running" {
            break;
        }
        assert_eq!(state, "queued", "job must not finish before cancellation");
        std::thread::sleep(Duration::from_millis(2));
    }

    let cancel = client
        .request(&request(
            "cancel",
            vec![("job".to_string(), Value::UInt(job))],
        ))
        .expect("cancel");
    assert_eq!(cancel.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(cancel.get("cancelled").and_then(Value::as_bool), Some(true));

    // Result is now a structured job_cancelled error.
    let resp = client
        .request(&request(
            "result",
            vec![
                ("job".to_string(), Value::UInt(job)),
                ("wait".to_string(), Value::Bool(true)),
            ],
        ))
        .expect("result");
    assert_eq!(error_code(&resp), "job_cancelled");

    // The worker survived the cancellation and still runs new jobs.
    let result = submit_and_wait(&mut client, 104);
    assert!(result.get("report").is_some());

    shutdown(&addr, daemon);
}

/// A memory-only daemon cannot resume what a stop leaves behind, so the
/// stop cancels it: a client waiting on a running job over one connection
/// gets a terminal `job_cancelled` frame when another connection sends
/// `shutdown`, instead of hanging or waiting out the whole campaign.
#[test]
fn shutdown_cancels_a_waited_job_on_a_memory_only_daemon() {
    let (addr, daemon) = spawn_daemon(ServiceConfig {
        workers: 1,
        checkpoint_ms: 0,
        execution_backend: Some(&ScalarBackend),
        ..Default::default()
    });
    let mut plan = SweepPlan::quick();
    plan.seeds_per_point = 400;
    plan.campaign_seed = 106;
    let plan_value: Value = serde_json::from_str(&plan.canonical_json()).expect("parses");
    let mut waiter = Client::connect_with_timeouts(
        &addr,
        Some(Duration::from_secs(5)),
        Some(Duration::from_secs(20)),
    )
    .expect("connect");
    waiter
        .send(&request(
            "submit",
            vec![
                ("plan".to_string(), plan_value),
                ("wait".to_string(), Value::Bool(true)),
            ],
        ))
        .expect("send");
    let accepted = waiter.recv().expect("recv").expect("accepted line");
    assert_eq!(
        accepted.get("event").and_then(Value::as_str),
        Some("accepted")
    );
    loop {
        let line = waiter.recv().expect("recv").expect("progress line");
        assert_eq!(line.get("event").and_then(Value::as_str), Some("progress"));
        if line.get("state").and_then(Value::as_str) == Some("running") {
            break;
        }
    }

    let stopper = std::thread::spawn(move || shutdown(&addr, daemon));
    let terminal = loop {
        let line = waiter.recv().expect("a terminal frame").expect("line");
        if line.get("event").and_then(Value::as_str) != Some("progress") {
            break line;
        }
    };
    assert_eq!(error_code(&terminal), "job_cancelled");
    stopper.join().expect("daemon stops");
}

/// Longest a [`HoldAfterFirstChunk`] holds a trial: long enough for any
/// client to read a frame, short enough that a broken stream fails the
/// test instead of hanging it.
const HOLD_LIMIT: Duration = Duration::from_secs(20);

/// A test backend: runs exactly like [`SlicedBackend`], except that every
/// task after the first `first_chunk` plan-ordered trials — the first
/// task, hence the first checkpoint — waits (at most [`HOLD_LIMIT`]) until
/// [`Self::release`], whichever thread runs it. So a job cannot finish
/// before a waiting client has seen its progress.
#[derive(Debug)]
struct HoldAfterFirstChunk {
    first_chunk: u64,
    seeds_per_point: u64,
    released: Mutex<bool>,
    wake: Condvar,
}

impl HoldAfterFirstChunk {
    fn leaked(first_chunk: u64, seeds_per_point: u64) -> &'static Self {
        Box::leak(Box::new(Self {
            first_chunk,
            seeds_per_point,
            released: Mutex::new(false),
            wake: Condvar::new(),
        }))
    }

    fn release(&self) {
        *self.released.lock().expect("hold lock") = true;
        self.wake.notify_all();
    }
}

impl ExecutionBackend for HoldAfterFirstChunk {
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
        if point_index * self.seeds_per_point + first_trial >= self.first_chunk {
            let released = self.released.lock().expect("hold lock");
            drop(
                self.wake
                    .wait_timeout_while(released, HOLD_LIMIT, |released| !*released)
                    .expect("hold lock"),
            );
            // A timed-out hold releases every later trial too, so a broken
            // stream fails the test within one limit instead of one per task.
            self.release();
        }
        SlicedBackend.run_task(point, campaign_seed, point_index, first_trial, count, arena)
    }
}

#[test]
fn submit_wait_streams_progress_then_byte_identical_result() {
    let mut plan = SweepPlan::quick();
    plan.seeds_per_point = 96;
    plan.campaign_seed = 105;
    // The job is held after its first task (64 lanes of point 0) until this
    // client has read a progress frame, so it cannot finish between two
    // progress polls.
    let hold = HoldAfterFirstChunk::leaked(64, plan.seeds_per_point);
    let (addr, daemon) = spawn_daemon(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        checkpoint_ms: 0,
        execution_backend: Some(hold),
        ..Default::default()
    });
    let direct = nvpim_sweep::run_campaign(&plan).expect("direct run");

    let mut client = Client::connect(&addr).expect("connect");
    let plan_value: Value = serde_json::from_str(&plan.canonical_json()).expect("parses");
    client
        .send(&request(
            "submit",
            vec![
                ("plan".to_string(), plan_value),
                ("wait".to_string(), Value::Bool(true)),
            ],
        ))
        .expect("send");
    let accepted = client.recv().expect("recv").expect("accepted line");
    assert_eq!(
        accepted.get("event").and_then(Value::as_str),
        Some("accepted")
    );
    let mut progress_events = 0;
    let report = loop {
        let line = client.recv().expect("recv").expect("line");
        assert_eq!(line.get("ok").and_then(Value::as_bool), Some(true));
        match line.get("event").and_then(Value::as_str) {
            Some("progress") => {
                progress_events += 1;
                hold.release();
                let done = line
                    .get("trials_done")
                    .and_then(Value::as_u64)
                    .expect("trials_done");
                assert!(done <= plan.trial_count());
            }
            Some("result") => break line.get("report").expect("report").clone(),
            other => panic!("unexpected event {other:?}"),
        }
    };
    // The embedded report re-renders to exactly the bytes a direct
    // `run_campaign` produces (parse → pretty-print is lossless).
    assert_eq!(
        serde_json::to_string_pretty(&report).expect("serialize"),
        direct.to_json()
    );
    // The hold keeps the job running until the first progress frame
    // arrived; later checkpoints may land between polls and go unreported.
    assert!(progress_events >= 1, "expected streamed progress events");

    shutdown(&addr, daemon);
}

#[test]
fn four_concurrent_clients_get_identical_cached_reports() {
    // The acceptance criterion: 4 concurrent clients submitting the same
    // plan each receive the identical report, served without extra
    // campaigns (coalesced in flight or content-address hits after).
    let (addr, daemon) = spawn_daemon(ServiceConfig {
        workers: 2,
        queue_capacity: 16,
        checkpoint_ms: 0,
        ..Default::default()
    });
    let mut plan = SweepPlan::quick();
    plan.seeds_per_point = 4;
    plan.campaign_seed = 106;
    let canonical = plan.canonical_json();

    let addr = Arc::new(addr);
    let reports: Vec<String> = (0..4)
        .map(|_| {
            let addr = Arc::clone(&addr);
            let canonical = canonical.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let plan_value: Value = serde_json::from_str(&canonical).expect("parses");
                let accepted = client
                    .request(&request("submit", vec![("plan".to_string(), plan_value)]))
                    .expect("submit");
                assert_eq!(accepted.get("ok").and_then(Value::as_bool), Some(true));
                let job = accepted.get("job").and_then(Value::as_u64).expect("job");
                let result = client
                    .request(&request(
                        "result",
                        vec![
                            ("job".to_string(), Value::UInt(job)),
                            ("wait".to_string(), Value::Bool(true)),
                        ],
                    ))
                    .expect("result");
                assert_eq!(result.get("ok").and_then(Value::as_bool), Some(true));
                serde_json::to_string_pretty(result.get("report").expect("report"))
                    .expect("serialize")
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();

    for pair in reports.windows(2) {
        assert_eq!(pair[0], pair[1], "all clients see identical bytes");
    }
    // And they match direct execution.
    assert_eq!(
        reports[0],
        nvpim_sweep::run_campaign(&plan).unwrap().to_json()
    );

    // Exactly one campaign ran: submissions minus one were coalesced or
    // cache hits.
    let mut client = Client::connect(addr.as_str()).expect("connect");
    let stats = client.request(&request("stats", vec![])).expect("stats");
    let stats = stats.get("stats").expect("stats payload");
    let completed = stats
        .get("jobs_completed")
        .and_then(Value::as_u64)
        .expect("jobs_completed");
    let coalesced = stats
        .get("jobs_coalesced")
        .and_then(Value::as_u64)
        .expect("jobs_coalesced");
    let hits = stats
        .get("report_cache_hits")
        .and_then(Value::as_u64)
        .expect("report_cache_hits");
    assert_eq!(completed, 1, "one campaign serves all four clients");
    assert_eq!(coalesced + hits, 3);

    shutdown(&addr, daemon);
}

#[test]
fn warm_resubmission_recompiles_nothing() {
    let (addr, daemon) = spawn_daemon(ServiceConfig {
        workers: 1,
        ..Default::default()
    });
    let mut client = Client::connect(&addr).expect("connect");

    let first = submit_and_wait(&mut client, 107);
    let first_report =
        serde_json::to_string_pretty(first.get("report").expect("report")).expect("serialize");

    let stats_before = client.request(&request("stats", vec![])).expect("stats");
    let compiles_before = stats_before
        .get("stats")
        .and_then(|s| s.get("schedule_cache_compiles"))
        .and_then(Value::as_u64)
        .expect("compiles");

    // Resubmit the identical plan: byte-identical report, zero compiles.
    let second = submit_and_wait(&mut client, 107);
    let second_report =
        serde_json::to_string_pretty(second.get("report").expect("report")).expect("serialize");
    assert_eq!(first_report, second_report);
    assert_eq!(second.get("cached").and_then(Value::as_bool), Some(true));

    let stats_after = client.request(&request("stats", vec![])).expect("stats");
    let stats_after = stats_after.get("stats").expect("payload");
    assert_eq!(
        stats_after
            .get("schedule_cache_compiles")
            .and_then(Value::as_u64),
        Some(compiles_before),
        "cache-hit submissions must not compile schedules"
    );
    assert!(
        stats_after
            .get("report_cache_hits")
            .and_then(Value::as_u64)
            .unwrap()
            >= 1
    );

    shutdown(&addr, daemon);
}

/// A scheme that landed through the registry's plugin path (ParityDetect)
/// runs end-to-end through the daemon with zero service-side dispatch
/// edits: the wire protocol parses it like any built-in, the campaign
/// executes, and the served report is byte-identical to a direct
/// `run_campaign` of the same plan.
#[test]
fn plugin_scheme_runs_through_the_daemon_byte_identically() {
    let (addr, daemon) = spawn_daemon(ServiceConfig::default());
    let mut plan = SweepPlan::quick();
    plan.protections = vec![
        nvpim_sweep::ProtectionConfig::PARITY_DETECT,
        nvpim_sweep::ProtectionConfig::PARITY_DETECT_SINGLE_OUTPUT,
    ];
    plan.seeds_per_point = 3;
    plan.campaign_seed = 0x9a41;
    let plan_value: Value = serde_json::from_str(&plan.canonical_json()).expect("plan JSON parses");

    let mut client = Client::connect(&addr).expect("connect");
    let accepted = client
        .request(&request("submit", vec![("plan".to_string(), plan_value)]))
        .expect("submit");
    assert_eq!(
        accepted.get("ok").and_then(Value::as_bool),
        Some(true),
        "ParityDetect submission must be accepted: {accepted:?}"
    );
    let job = accepted.get("job").and_then(Value::as_u64).expect("job id");
    let result = client
        .request(&request(
            "result",
            vec![
                ("job".to_string(), Value::UInt(job)),
                ("wait".to_string(), Value::Bool(true)),
            ],
        ))
        .expect("result");
    assert_eq!(result.get("ok").and_then(Value::as_bool), Some(true));
    let served = result.get("report").expect("result carries a report");
    let direct = nvpim_sweep::run_campaign(&plan).expect("direct run");
    assert_eq!(
        serde_json::to_string_pretty(served).expect("serialize"),
        direct.to_json(),
        "daemon-served ParityDetect report must match direct execution byte for byte"
    );
    let summary = direct
        .points
        .iter()
        .find(|p| p.protection == "parity/m-o")
        .expect("parity point present");
    assert_eq!(summary.corrections_written_back, 0, "detection-only");
    shutdown(&addr, daemon);
}

/// `ping` is the fleet heartbeat: cheap, never queued, and it reports the
/// drain/shutdown flags so a coordinator can tell "unschedulable but
/// alive" from "dead".
#[test]
fn ping_reports_liveness_over_the_wire() {
    let (addr, daemon) = spawn_daemon(ServiceConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    let resp = client.request(&request("ping", vec![])).expect("ping");
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(resp.get("event").and_then(Value::as_str), Some("pong"));
    assert_eq!(resp.get("draining").and_then(Value::as_bool), Some(false));
    assert_eq!(
        resp.get("shutting_down").and_then(Value::as_bool),
        Some(false)
    );
    shutdown(&addr, daemon);
}

/// `run_shard` streams `shard_accepted`, tally checkpoints of contiguous
/// prefix segments, and `shard_done`; the streamed tallies merge into the
/// exact byte-identical report of a whole-campaign run. Bad ranges get the
/// structured `bad_shard` error, not a teardown.
#[test]
fn run_shard_streams_resumable_chunk_checkpoints() {
    let (addr, daemon) = spawn_daemon(ServiceConfig {
        checkpoint_ms: 0,
        ..ServiceConfig::default()
    });
    let mut plan = SweepPlan::quick();
    plan.seeds_per_point = 2;
    plan.campaign_seed = 0x5a4d;
    let total = plan.trial_count();
    let plan_value: Value = serde_json::from_str(&plan.canonical_json()).expect("plan JSON parses");

    let mut client = Client::connect(&addr).expect("connect");
    client
        .send(&request(
            "run_shard",
            vec![
                ("plan".to_string(), plan_value.clone()),
                ("start".to_string(), Value::UInt(0)),
                ("end".to_string(), Value::UInt(total)),
                // Sent by coordinators that predate checkpoint cadences:
                // accepted and ignored, the daemon streams at its own.
                ("chunk_trials".to_string(), Value::UInt(4)),
            ],
        ))
        .expect("send run_shard");
    let accepted = client.recv().expect("recv").expect("shard_accepted");
    assert_eq!(
        accepted.get("event").and_then(Value::as_str),
        Some("shard_accepted")
    );
    let mut tallies = nvpim_sweep::Tallies::new();
    let mut chunks = 0;
    loop {
        let line = client.recv().expect("recv").expect("stream line");
        assert_eq!(line.get("ok").and_then(Value::as_bool), Some(true));
        match line.get("event").and_then(Value::as_str) {
            Some("shard_chunk") => {
                let chunk = nvpim_sweep::Tallies::from_json_value(
                    line.get("tallies").expect("chunk tallies"),
                )
                .expect("tallies decode");
                // Each frame extends the streamed prefix by exactly the
                // trials it carries.
                let done = line
                    .get("trials_done")
                    .and_then(Value::as_u64)
                    .expect("trials_done");
                assert!(
                    chunk.covers_range(tallies.trials(), done, plan.seeds_per_point),
                    "frame ending at {done} is not the next prefix segment"
                );
                tallies.merge(&chunk);
                chunks += 1;
            }
            Some("shard_done") => {
                assert_eq!(line.get("trials").and_then(Value::as_u64), Some(total));
                break;
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
    assert_eq!(tallies.trials(), total);
    assert!(chunks >= 1);

    // The streamed tallies aggregate to the exact single-run report.
    let mut cache = nvpim_sweep::ScheduleCache::new();
    let prepared = nvpim_sweep::prepare_campaign(&plan, &mut cache).expect("prepare");
    let report = prepared
        .report_from_tallies(&tallies)
        .expect("complete tallies merge");
    let direct = nvpim_sweep::run_campaign(&plan).expect("direct run");
    assert_eq!(report.to_json(), direct.to_json());

    // Inverted range: structured error, connection stays usable.
    let resp = client
        .request(&request(
            "run_shard",
            vec![
                ("plan".to_string(), plan_value),
                ("start".to_string(), Value::UInt(5)),
                ("end".to_string(), Value::UInt(1)),
            ],
        ))
        .expect("request");
    assert_eq!(error_code(&resp), "bad_shard");
    let pong = client.request(&request("ping", vec![])).expect("ping");
    assert_eq!(pong.get("event").and_then(Value::as_str), Some("pong"));
    shutdown(&addr, daemon);
}

/// The admission budget: a plan (or shard range) over
/// `max_trials_per_job` is refused with a structured `plan_too_large`
/// error naming both numbers, and the connection keeps serving.
#[test]
fn plans_over_the_trial_budget_are_refused_as_plan_too_large() {
    let (addr, daemon) = spawn_daemon(ServiceConfig {
        workers: 1,
        max_trials_per_job: 17,
        ..Default::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    // `tiny_plan_value` is 9 points × 2 seeds = 18 trials: one too many.
    let resp = client
        .request(&request(
            "submit",
            vec![("plan".to_string(), tiny_plan_value(0xb06e7))],
        ))
        .expect("request");
    assert_eq!(error_code(&resp), "plan_too_large");
    let message = resp
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Value::as_str)
        .unwrap_or("");
    assert!(
        message.contains("18") && message.contains("17"),
        "{message}"
    );

    // A shard range is held to the same budget; a smaller one runs.
    let shard = |client: &mut Client, end: u64| {
        client
            .send(&request(
                "run_shard",
                vec![
                    ("plan".to_string(), tiny_plan_value(0xb06e7)),
                    ("start".to_string(), Value::UInt(0)),
                    ("end".to_string(), Value::UInt(end)),
                ],
            ))
            .expect("send run_shard");
        let accepted = client.recv().expect("recv").expect("shard_accepted");
        assert_eq!(
            accepted.get("event").and_then(Value::as_str),
            Some("shard_accepted")
        );
        loop {
            let line = client.recv().expect("recv").expect("stream line");
            if line.get("event").and_then(Value::as_str) != Some("shard_chunk") {
                return line;
            }
        }
    };
    assert_eq!(error_code(&shard(&mut client, 18)), "plan_too_large");
    let done = shard(&mut client, 17);
    assert_eq!(
        done.get("event").and_then(Value::as_str),
        Some("shard_done")
    );
    assert_eq!(done.get("trials").and_then(Value::as_u64), Some(17));
    shutdown(&addr, daemon);
}

/// Backpressure over the wire: a full bounded queue answers `overloaded`
/// with a `retry_after_ms` hint inside the structured error — the value
/// clients feed into their backoff loop.
#[test]
fn overloaded_reply_carries_a_retry_hint() {
    let (addr, daemon) = spawn_daemon(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        ..Default::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    // A slow job to occupy the single worker...
    let mut slow = SweepPlan::quick();
    slow.seeds_per_point = 64;
    slow.campaign_seed = 0xb10c;
    let slow_value: Value = serde_json::from_str(&slow.canonical_json()).expect("plan JSON");
    let accepted = client
        .request(&request("submit", vec![("plan".to_string(), slow_value)]))
        .expect("submit slow");
    assert_eq!(accepted.get("ok").and_then(Value::as_bool), Some(true));
    // ...then fill the queue and overflow it with distinct digests.
    let mut saw_overloaded = false;
    for seed in 0..8u64 {
        let resp = client
            .request(&request(
                "submit",
                vec![("plan".to_string(), tiny_plan_value(0x0f00 + seed))],
            ))
            .expect("submit");
        if resp.get("ok").and_then(Value::as_bool) == Some(false) {
            assert_eq!(error_code(&resp), "overloaded");
            let hint = resp
                .get("error")
                .and_then(|e| e.get("retry_after_ms"))
                .and_then(Value::as_u64)
                .expect("overloaded error carries retry_after_ms");
            assert!(
                (10..=10_000).contains(&hint),
                "hint {hint} outside the clamp band"
            );
            saw_overloaded = true;
            break;
        }
    }
    assert!(saw_overloaded, "the bounded queue never reported overload");
    shutdown(&addr, daemon);
}

/// Runs `{"cmd":"submit","wait":true}` through `dispatch` (the connection
/// loop's code path, minus the socket) and returns the final frame.
fn submit_wait_frame(service: &ServiceHandle, plan: &str) -> String {
    let line = format!(r#"{{"cmd":"submit","plan":{plan},"wait":true}}"#);
    let mut frames = Vec::new();
    nvpim_service::protocol::dispatch(service, &line, &mut |frame| {
        frames.push(frame.to_string());
        Ok(())
    })
    .expect("in-memory sink never fails");
    frames.pop().expect("a result frame")
}

/// The `result` frame splices the stored report in as compacted text. It
/// must be byte-identical to the frame built by parsing the stored report
/// and encoding it inside an `ok_response`, for every report shape the
/// daemon serves and for both cold and cached jobs.
#[test]
fn spliced_result_frames_match_the_parse_and_encode_construction() {
    use nvpim_service::protocol::ok_response;

    let service = ServiceHandle::start(ServiceConfig {
        workers: 2,
        ..Default::default()
    });
    // Two seeds per point keep the mnist inference trials cheap in debug
    // builds; the report shape (schema_version 3, accuracy blocks) is the
    // same at any seed count.
    let mut accuracy = SweepPlan::accuracy_quick();
    accuracy.seeds_per_point = 2;
    for plan in [
        "\"quick\"".to_string(),
        "\"paper_scale\"".to_string(),
        accuracy.canonical_json(),
    ] {
        for cached in [false, true] {
            let frame = submit_wait_frame(&service, &plan);
            let parsed: Value = serde_json::from_str(&frame).expect("frame is JSON");
            assert_eq!(parsed.get("cached").and_then(Value::as_bool), Some(cached));
            let job = parsed.get("job").and_then(Value::as_u64).expect("job id");
            let stored = service.result(job).expect("stored report");
            let expected = ok_response(vec![
                ("event".into(), Value::Str("result".into())),
                ("job".into(), Value::UInt(job)),
                ("cached".into(), Value::Bool(cached)),
                (
                    "report".into(),
                    serde_json::from_str(&stored).expect("stored report parses"),
                ),
            ]);
            assert_eq!(
                frame,
                serde_json::to_string(&expected).expect("encode"),
                "frame for plan {plan} (cached: {cached})"
            );
        }
    }
    service.shutdown();
}

/// `Client::recv` frames by newline only: a large frame dribbled in one
/// byte per write decodes whole, two frames in one write decode as two,
/// and the byte counter sees exactly what the peer wrote.
#[test]
fn client_recv_reassembles_dribbled_and_coalesced_frames() {
    use std::io::Write;

    let big = format!(
        r#"{{"ok":true,"blob":"{}","tail":[1,2,3]}}"#,
        "x\u{e9}".repeat(200_000 / 3)
    ) + "\n";
    let pair = "{\"ok\":true,\"n\":1}\n{\"ok\":false,\"n\":2}\n".to_string();
    let written = (big.len() + pair.len()) as u64;
    assert!(big.len() > 195_000);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let peer = {
        let (big, pair) = (big.clone(), pair.clone());
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            stream.set_nodelay(true).expect("nodelay");
            for byte in big.as_bytes() {
                stream
                    .write_all(std::slice::from_ref(byte))
                    .expect("write byte");
            }
            stream.write_all(pair.as_bytes()).expect("write pair");
        })
    };

    let mut client = Client::connect(&addr).expect("connect");
    let first = client.recv().expect("recv").expect("big frame");
    assert_eq!(first, serde_json::from_str(big.trim_end()).unwrap());
    let second = client.recv().expect("recv").expect("first of pair");
    assert_eq!(second.get("n").and_then(Value::as_u64), Some(1));
    let third = client.recv().expect("recv").expect("second of pair");
    assert_eq!(third.get("n").and_then(Value::as_u64), Some(2));
    peer.join().expect("peer thread");
    assert!(client.recv().expect("clean eof").is_none());
    assert_eq!(client.bytes_received(), written);
}

/// `nvpim-serviced` refuses a checkpoint cadence that could starve a fleet
/// coordinator's heartbeat deadline: 1 s is half the default 2 s.
#[test]
fn daemon_refuses_a_checkpoint_cadence_of_a_second_or_more() {
    for cadence in ["1000", "60000"] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_nvpim-serviced"))
            .args(["--addr", "127.0.0.1:0", "--checkpoint-ms", cadence])
            .output()
            .expect("run nvpim-serviced");
        assert_eq!(output.status.code(), Some(2), "--checkpoint-ms {cadence}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("--checkpoint-ms"), "{stderr}");
    }
}

/// `nvpim-serviced` refuses a flag it does not know (a misspelling, or a
/// flag older builds took) and a flag missing its value, instead of
/// starting a daemon configured otherwise than asked. A daemon that starts
/// serving anyway is killed after 5 s and fails the test.
#[test]
fn daemon_refuses_unknown_flags_and_flags_without_a_value() {
    let tmp = std::env::temp_dir().join(format!("nvpim-unknown-flag-{}", std::process::id()));
    let tmp = tmp.to_str().expect("utf-8 temp path");
    // The retry budget flag older daemons took, spelled in two pieces so
    // that only this refusal names it.
    let retries = concat!("--max-job", "-retries");
    for (args, flag) in [
        (vec![retries, "2"], retries),
        (vec!["--journal-fsync-every", "0"], "--journal-fsync-every"),
        (vec!["--state_dir", tmp], "--state_dir"),
        (vec!["--state-dir"], "--state-dir"),
    ] {
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_nvpim-serviced"))
            .args(["--addr", "127.0.0.1:0"])
            .args(&args)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn nvpim-serviced");
        let deadline = Instant::now() + Duration::from_secs(5);
        let status = loop {
            if let Some(status) = child.try_wait().expect("poll nvpim-serviced") {
                break status;
            }
            if Instant::now() >= deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("nvpim-serviced {args:?} was still running after 5 s");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut stderr = String::new();
        child
            .stderr
            .take()
            .expect("piped stderr")
            .read_to_string(&mut stderr)
            .expect("read stderr");
        assert_eq!(status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
    assert!(
        !std::path::Path::new(tmp).exists(),
        "a refused daemon creates no state"
    );
}
