//! `nvpim-cli` — client for the `nvpim-serviced` campaign daemon.
//!
//! ```text
//! nvpim-cli submit  [--addr A] (--plan plan.json | --quick | --paper-scale
//!                   | --accuracy-quick) [--priority N] [--wait]
//! nvpim-cli status  [--addr A] --job ID
//! nvpim-cli result  [--addr A] --job ID [--wait]
//! nvpim-cli cancel  [--addr A] --job ID
//! nvpim-cli stats   [--addr A] [--watch] [--interval-ms N] [--count N]
//! nvpim-cli metrics [--addr A]      # Prometheus-style text exposition
//! nvpim-cli shutdown [--addr A]
//! nvpim-cli run     (--plan plan.json | --quick | --paper-scale
//!                   | --accuracy-quick)
//!                   [--estimator exact|stratified]
//!                   [--kind error|accuracy] [--stuck-at DENSITY]
//!                   [--timings]                                    # no daemon
//! nvpim-cli run     --fleet HOST:PORT[,HOST:PORT...]               # sharded
//!                   [--shards N] [--heartbeat-ms N]
//!                   [--max-reassignments N] (--plan ... | --quick | ...)
//!                   [--stats-out PATH] [--metrics-out PATH]
//! nvpim-cli schemes [--json]        # the protection-scheme registry
//! ```
//!
//! Every daemon-facing subcommand also accepts the shared connection
//! flags `--connect-timeout-ms N` (default 5000; 0 = no timeout),
//! `--read-timeout-ms N` (default: none), `--retries N` (default 2) and
//! `--retry-backoff-ms N` (default 200). `submit` and `result` survive a
//! daemon restart mid-command: on a transport failure they reconnect with
//! jittered exponential backoff and resubmit — safe because submission is
//! idempotent, keyed by the plan's content digest, so the restarted daemon
//! coalesces or serves the cached report instead of re-running the
//! campaign twice. A daemon answering `overloaded` (bounded queue full)
//! also lands in the retry loop: the structured error carries a
//! `retry_after_ms` hint derived from observed run latency and queue
//! depth, and the client backs off for at least that long before
//! resubmitting.
//!
//! `run --fleet` shards the campaign across several daemons through the
//! fleet coordinator (see `docs/robustness.md`); the merged report on
//! stdout is byte-identical to a local `run` of the same plan even when
//! workers die, stall, or drain mid-campaign. `--stats-out` writes the
//! fleet stats (per-worker accounting, evictions) as JSON and
//! `--metrics-out` the fleet counters as Prometheus text; a one-line
//! summary always lands on stderr.
//!
//! `submit --wait` streams progress to stderr and prints the final report
//! JSON (pretty, byte-identical to a direct `run_campaign` of the same
//! plan) on stdout. `run` executes the plan locally without a daemon —
//! used by CI to diff daemon output against direct execution; `run
//! --timings` additionally prints a per-phase timing/counter breakdown to
//! stderr (the report on stdout stays byte-identical). `stats --watch`
//! polls the daemon and prints counter deltas between refreshes;
//! `metrics` dumps the daemon's Prometheus-style text exposition. `schemes`
//! enumerates the compile-time scheme registry with per-scheme
//! capabilities — any scheme listed there is accepted in plan JSON with
//! zero CLI changes.

use nvpim::service::client::{request, Client};
use nvpim::service::coordinator::{jittered_backoff, run_fleet, FleetConfig};
use nvpim::service::flags::{has_flag, value_of};
use nvpim::sweep::{prepare_campaign_with_telemetry, ScheduleCache};
use nvpim::telemetry::{Counter, Phase, Telemetry};
use nvpim::{CampaignKind, EstimatorMode, SweepPlan};
use serde::{Serialize, Value};

const DEFAULT_ADDR: &str = "127.0.0.1:7171";

fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("nvpim-cli: {msg}");
    std::process::exit(1)
}

/// Resolves the plan selection flags into a request `plan` value.
fn plan_value(args: &[String]) -> Value {
    if has_flag(args, "--quick") {
        return Value::Str("quick".into());
    }
    if has_flag(args, "--paper-scale") {
        return Value::Str("paper_scale".into());
    }
    if has_flag(args, "--accuracy-quick") {
        return Value::Str("accuracy_quick".into());
    }
    let path = value_of(args, "--plan")
        .unwrap_or_else(|| die("expected --plan FILE, --quick, --paper-scale or --accuracy-quick"));
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| die(format!("reading {path}: {e}")));
    serde_json::from_str(&text).unwrap_or_else(|e| die(format!("parsing {path}: {e}")))
}

/// Decodes the same plan selection locally (for `run`).
fn plan_local(args: &[String]) -> SweepPlan {
    let value = plan_value(args);
    match value.as_str() {
        Some(name) => {
            SweepPlan::named(name).unwrap_or_else(|| die(format!("unknown named plan `{name}`")))
        }
        None => SweepPlan::from_json_value(&value).unwrap_or_else(|e| die(e)),
    }
}

fn write_or_die(path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| die(format!("writing {path}: {e}")));
}

/// The shared daemon-connection settings: address, timeouts and the
/// bounded-retry policy, parsed once from the command line.
struct Conn {
    addr: String,
    connect_timeout: Option<std::time::Duration>,
    read_timeout: Option<std::time::Duration>,
    retries: u32,
    backoff_ms: u64,
}

impl Conn {
    fn from_args(args: &[String]) -> Self {
        let ms_flag = |flag: &str, default: Option<u64>| -> Option<u64> {
            match value_of(args, flag) {
                None => default,
                Some(text) => {
                    let ms: u64 = text
                        .parse()
                        .unwrap_or_else(|_| die(format!("{flag} expects milliseconds")));
                    (ms > 0).then_some(ms)
                }
            }
        };
        Self {
            addr: value_of(args, "--addr").unwrap_or_else(|| DEFAULT_ADDR.to_string()),
            connect_timeout: ms_flag("--connect-timeout-ms", Some(5000))
                .map(std::time::Duration::from_millis),
            read_timeout: ms_flag("--read-timeout-ms", None).map(std::time::Duration::from_millis),
            retries: value_of(args, "--retries")
                .map(|t| {
                    t.parse()
                        .unwrap_or_else(|_| die("--retries expects a number"))
                })
                .unwrap_or(2),
            backoff_ms: value_of(args, "--retry-backoff-ms")
                .map(|t| {
                    t.parse()
                        .unwrap_or_else(|_| die("--retry-backoff-ms expects milliseconds"))
                })
                .unwrap_or(200),
        }
    }

    fn connect_once(&self) -> std::io::Result<Client> {
        Client::connect_with_timeouts(&self.addr, self.connect_timeout, self.read_timeout)
    }

    /// Runs `attempt` with bounded retry: each transport failure reconnects
    /// after a jittered exponential backoff, up to `--retries` extra tries.
    /// Protocol-level errors (`"ok": false`) are not retried — `check_ok`
    /// inside the attempt exits directly — with one exception: an attempt
    /// can return a retryable [`AttemptError`] carrying the server's
    /// `retry_after_ms` hint (the `overloaded` backpressure reply), which
    /// becomes the floor for that retry's delay.
    fn with_retry<T>(&self, what: &str, attempt: impl Fn(&Self) -> Result<T, AttemptError>) -> T {
        let mut tries = 0u32;
        loop {
            match attempt(self) {
                Ok(value) => return value,
                Err(failure) if tries < self.retries => {
                    tries += 1;
                    let delay = jittered_backoff(self.backoff_ms, tries - 1)
                        .max(failure.min_delay.unwrap_or_default());
                    eprintln!(
                        "nvpim-cli: {what} failed ({}); retry {tries}/{} in {}ms",
                        failure.err,
                        self.retries,
                        delay.as_millis()
                    );
                    std::thread::sleep(delay);
                }
                Err(failure) => die(format!("{what} (after {tries} retries): {}", failure.err)),
            }
        }
    }
}

/// A failed attempt inside [`Conn::with_retry`]: the error plus an
/// optional server-provided minimum back-off (from `retry_after_ms`).
struct AttemptError {
    err: std::io::Error,
    min_delay: Option<std::time::Duration>,
}

impl From<std::io::Error> for AttemptError {
    fn from(err: std::io::Error) -> Self {
        Self {
            err,
            min_delay: None,
        }
    }
}

/// Classifies an `overloaded` backpressure reply: returns the retry as an
/// [`AttemptError`] honoring the server's `retry_after_ms` hint, `None`
/// for every other response (success or a fatal protocol error).
fn overloaded_retry(response: &Value) -> Option<AttemptError> {
    if response.get("ok").and_then(Value::as_bool) == Some(true) {
        return None;
    }
    let error = response.get("error")?;
    if error.get("code").and_then(Value::as_str) != Some("overloaded") {
        return None;
    }
    let hint_ms = error.get("retry_after_ms").and_then(Value::as_u64)?;
    Some(AttemptError {
        err: std::io::Error::other(format!("server overloaded; retry in ~{hint_ms}ms")),
        min_delay: Some(std::time::Duration::from_millis(hint_ms)),
    })
}

fn connect(args: &[String]) -> Client {
    let conn = Conn::from_args(args);
    conn.with_retry("connecting", |conn| Ok(conn.connect_once()?))
}

fn job_arg(args: &[String]) -> u64 {
    value_of(args, "--job")
        .unwrap_or_else(|| die("expected --job ID"))
        .parse()
        .unwrap_or_else(|_| die("--job expects a number"))
}

/// Exits with status 1 when a response carries `"ok": false`.
fn check_ok(response: &Value) -> &Value {
    if response.get("ok").and_then(Value::as_bool) != Some(true) {
        let code = response
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Value::as_str)
            .unwrap_or("unknown");
        let message = response
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Value::as_str)
            .unwrap_or("malformed error response");
        die(format!("server error [{code}]: {message}"));
    }
    response
}

fn print_pretty(value: &Value) {
    println!(
        "{}",
        serde_json::to_string_pretty(value).expect("serialize")
    );
}

/// Prints the embedded report of a `result`-shaped response.
fn print_report(response: &Value) {
    let report = response
        .get("report")
        .unwrap_or_else(|| die("result response carries no report"));
    print_pretty(report);
}

/// `recv` result → frame, turning a clean server close into a retryable
/// transport error (a restarting daemon drops connections; resubmission is
/// idempotent, so the retry loop should pick it up).
fn must_frame(frame: Option<Value>) -> std::io::Result<Value> {
    frame.ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        )
    })
}

fn cmd_submit(args: &[String]) {
    let conn = Conn::from_args(args);
    let wait = has_flag(args, "--wait");
    let plan = plan_value(args);
    let priority: Option<u64> = value_of(args, "--priority").map(|p| {
        p.parse()
            .unwrap_or_else(|_| die("--priority expects a number"))
    });
    // The whole exchange lives inside the retry loop: if the daemon
    // restarts mid-stream, we reconnect and resubmit the same plan. The
    // service keys submissions by the plan's content digest, so the
    // resubmission coalesces onto the recovered job (or hits the report
    // cache) instead of running the campaign twice.
    conn.with_retry("submit", |conn| {
        let mut client = conn.connect_once()?;
        let mut fields = vec![("plan".to_string(), plan.clone())];
        if let Some(p) = priority {
            fields.push(("priority".to_string(), Value::UInt(p)));
        }
        if wait {
            fields.push(("wait".to_string(), Value::Bool(true)));
        }
        client.send(&request("submit", fields))?;
        // First line: acceptance (or error). Backpressure (`overloaded`)
        // re-enters the retry loop honoring the server's hint; any other
        // protocol error is fatal.
        let accepted = must_frame(client.recv()?)?;
        if let Some(retry) = overloaded_retry(&accepted) {
            return Err(retry);
        }
        check_ok(&accepted);
        if !wait {
            print_pretty(&accepted);
            return Ok(());
        }
        let job = accepted.get("job").and_then(Value::as_u64).unwrap_or(0);
        eprintln!(
            "job {job} accepted (digest {}, cached: {})",
            accepted
                .get("digest")
                .and_then(Value::as_str)
                .unwrap_or("?"),
            accepted
                .get("cached")
                .and_then(Value::as_bool)
                .unwrap_or(false),
        );
        // Then: progress events until the result line.
        loop {
            let line = must_frame(client.recv()?)?;
            check_ok(&line);
            match line.get("event").and_then(Value::as_str) {
                Some("progress") => {
                    let percent = line.get("percent").and_then(Value::as_f64).unwrap_or(0.0);
                    let done = line.get("trials_done").and_then(Value::as_u64).unwrap_or(0);
                    let total = line
                        .get("trials_total")
                        .and_then(Value::as_u64)
                        .unwrap_or(0);
                    // Accuracy campaigns stream their running tally too.
                    match line.get("accuracy").and_then(Value::as_f64) {
                        Some(accuracy) => eprintln!(
                            "job {job}: {done}/{total} trials ({percent:.1}%), \
                             accuracy {accuracy:.3}"
                        ),
                        None => eprintln!("job {job}: {done}/{total} trials ({percent:.1}%)"),
                    }
                }
                Some("result") => {
                    print_report(&line);
                    return Ok(());
                }
                other => die(format!("unexpected event {other:?}")),
            }
        }
    });
}

fn cmd_result(args: &[String]) {
    let conn = Conn::from_args(args);
    let job = job_arg(args);
    let wait = has_flag(args, "--wait");
    // `result` is a pure read — retrying after a dropped connection is
    // always safe, and a daemon restarted with `--state-dir` still knows
    // the job (recovered from the journal).
    conn.with_retry("result", |conn| {
        let mut client = conn.connect_once()?;
        let mut fields = vec![("job".to_string(), Value::UInt(job))];
        if wait {
            fields.push(("wait".to_string(), Value::Bool(true)));
        }
        let response = client.request(&request("result", fields))?;
        check_ok(&response);
        print_report(&response);
        Ok(())
    });
}

fn simple_command(args: &[String], cmd: &str, fields: Vec<(String, Value)>) {
    let mut client = connect(args);
    let response = client
        .request(&request(cmd, fields))
        .unwrap_or_else(|e| die(e));
    check_ok(&response);
    print_pretty(&response);
}

fn cmd_run(args: &[String]) {
    let mut plan = plan_local(args);
    // `--estimator stratified` switches the campaign to the rare-event
    // estimator (conditioned trials, reweighted rates, Wilson CIs, schema
    // version 2); the default leaves the plan's own mode — Exact unless the
    // plan file says otherwise — and its byte-stable report format.
    if let Some(text) = value_of(args, "--estimator") {
        let estimator: EstimatorMode = text.parse().unwrap_or_else(|e| die(e));
        plan.estimator = estimator;
    }
    // `--kind accuracy` promotes the campaign to inference-accuracy
    // evaluation (labelled workloads only, schema version 3); `--stuck-at
    // DENSITY` seeds permanent SA0/SA1 defects at that per-cell density,
    // derived deterministically from the campaign seed.
    if let Some(text) = value_of(args, "--kind") {
        let kind: CampaignKind = text.parse().unwrap_or_else(|e| die(e));
        plan.kind = kind;
    }
    if let Some(text) = value_of(args, "--stuck-at") {
        plan.stuck_at_rate = text
            .parse()
            .unwrap_or_else(|_| die("--stuck-at expects a defect density in [0, 1]"));
    }
    plan.validate().unwrap_or_else(|e| die(e));
    // `--fleet A,B,...` shards the campaign across several daemons via
    // the coordinator. The merged report is byte-identical to the local
    // path below — sharding and worker failure never change report
    // bytes — so the same stdout contract holds. `--timings` is a
    // local-run flag.
    if let Some(fleet) = value_of(args, "--fleet") {
        let numeric = |flag: &str, default: u64| -> u64 {
            value_of(args, flag)
                .map(|t| {
                    t.parse()
                        .unwrap_or_else(|_| die(format!("{flag} expects a number")))
                })
                .unwrap_or(default)
        };
        let defaults = FleetConfig::default();
        let cfg = FleetConfig {
            workers: fleet
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect(),
            shards: numeric("--shards", defaults.shards as u64) as usize,
            heartbeat_timeout_ms: numeric("--heartbeat-ms", defaults.heartbeat_timeout_ms),
            connect_timeout_ms: numeric("--connect-timeout-ms", defaults.connect_timeout_ms),
            max_shard_reassignments: numeric(
                "--max-reassignments",
                u64::from(defaults.max_shard_reassignments),
            ) as u32,
            retry_backoff_ms: numeric("--retry-backoff-ms", defaults.retry_backoff_ms),
        };
        let telemetry = Telemetry::new();
        let outcome = run_fleet(&plan, &cfg, &telemetry).unwrap_or_else(|e| die(e));
        println!("{}", outcome.report.to_json());
        if let Some(path) = value_of(args, "--stats-out") {
            let stats = serde_json::to_string(&outcome.stats.to_json()).unwrap_or_default();
            write_or_die(&path, &stats);
        }
        if let Some(path) = value_of(args, "--metrics-out") {
            write_or_die(&path, &telemetry.snapshot().render_prometheus());
        }
        eprintln!(
            "fleet: {} shard(s) across {} worker(s); {} reassigned, {} eviction(s), \
             {} heartbeat miss(es)",
            outcome.stats.shards_total,
            outcome.stats.workers.len(),
            outcome.stats.shards_reassigned,
            outcome.stats.worker_evictions,
            outcome.stats.heartbeat_misses,
        );
        return;
    }
    // `--timings` attaches a live telemetry sink and prints the per-phase
    // breakdown to stderr. The report on stdout stays byte-identical —
    // telemetry only observes, it never touches the RNG stream or trial
    // outcomes.
    let timings = has_flag(args, "--timings");
    let telemetry = if timings {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    };
    let mut cache = ScheduleCache::new();
    let report = prepare_campaign_with_telemetry(&plan, &mut cache, telemetry.clone())
        .and_then(|campaign| campaign.run())
        .unwrap_or_else(|e| die(e));
    let json = telemetry.time(Phase::ReportSerialization, || report.to_json());
    println!("{json}");
    if timings {
        print_timings(&telemetry.snapshot());
    }
}

/// Prints the `run --timings` per-phase breakdown and the counters the
/// run moved to stderr.
fn print_timings(snap: &nvpim::TelemetrySnapshot) {
    eprintln!();
    eprintln!(
        "{:<24} {:>10} {:>14} {:>12}",
        "phase", "spans", "total ms", "mean \u{b5}s"
    );
    for phase in Phase::ALL {
        let count = snap.phase_count(phase);
        let nanos = snap.phase_nanos(phase);
        let mean_us = if count == 0 {
            0.0
        } else {
            nanos as f64 / count as f64 / 1_000.0
        };
        eprintln!(
            "{:<24} {:>10} {:>14.3} {:>12.2}",
            phase.name(),
            count,
            nanos as f64 / 1e6,
            mean_us
        );
    }
    // The registry also holds the daemon's counters, which a local run
    // never moves: list only the counters this run moved.
    eprintln!();
    eprintln!("{:<24} {:>10}", "counter", "value");
    for counter in Counter::ALL {
        let value = snap.counter(counter);
        if value != 0 {
            eprintln!("{:<24} {:>10}", counter.name(), value);
        }
    }
}

/// `nvpim-cli metrics`: dumps the daemon's Prometheus-style text
/// exposition (raw, not JSON-wrapped — ready for scraping or diffing).
fn cmd_metrics(args: &[String]) {
    let mut client = connect(args);
    let response = client
        .request(&request("metrics", vec![]))
        .unwrap_or_else(|e| die(e));
    check_ok(&response);
    let text = response
        .get("metrics")
        .and_then(Value::as_str)
        .unwrap_or_else(|| die("metrics response carries no text payload"));
    print!("{text}");
}

/// One `stats --watch` refresh: prints the counters that moved since the
/// previous snapshot as `name value (+delta)` lines.
fn print_stats_delta(stats: &Value, previous: Option<&Value>) {
    const WATCHED: &[&str] = &[
        "jobs_submitted",
        "jobs_completed",
        "jobs_failed",
        "jobs_cancelled",
        "trials_executed",
        "clean_settled_trials",
        "estimator_redraws",
        "report_cache_hits",
        "queue_depth",
    ];
    let mut parts = Vec::new();
    for key in WATCHED {
        let now = stats.get(key).and_then(Value::as_u64).unwrap_or(0);
        let before = previous
            .and_then(|p| p.get(key))
            .and_then(Value::as_u64)
            .unwrap_or(now);
        if previous.is_none() || now != before {
            let delta = now.wrapping_sub(before);
            if previous.is_some() && delta > 0 {
                parts.push(format!("{key}={now} (+{delta})"));
            } else {
                parts.push(format!("{key}={now}"));
            }
        }
    }
    let rate = stats
        .get("trials_per_sec")
        .and_then(Value::as_f64)
        .map(|r| format!("rate={r:.0}/s"))
        .unwrap_or_else(|| "rate=n/a".to_string());
    if parts.is_empty() {
        println!("(idle) {rate}");
    } else {
        println!("{} {rate}", parts.join(" "));
    }
}

/// `nvpim-cli stats --watch`: polls the daemon every `--interval-ms`
/// (default 1000) and prints counter deltas, for `--count` refreshes
/// (default: until the connection drops).
fn cmd_stats_watch(args: &[String]) {
    let interval = value_of(args, "--interval-ms")
        .map(|t| {
            t.parse()
                .unwrap_or_else(|_| die("--interval-ms expects a number"))
        })
        .unwrap_or(1000u64);
    let count: u64 = value_of(args, "--count")
        .map(|t| {
            t.parse()
                .unwrap_or_else(|_| die("--count expects a number"))
        })
        .unwrap_or(u64::MAX);
    let mut client = connect(args);
    let mut previous: Option<Value> = None;
    let mut ticks = 0u64;
    while ticks < count {
        let response = client
            .request(&request("stats", vec![]))
            .unwrap_or_else(|e| die(e));
        check_ok(&response);
        let stats = response
            .get("stats")
            .cloned()
            .unwrap_or_else(|| die("stats response carries no payload"));
        print_stats_delta(&stats, previous.as_ref());
        previous = Some(stats);
        ticks += 1;
        if ticks < count {
            std::thread::sleep(std::time::Duration::from_millis(interval));
        }
    }
}

/// `nvpim-cli schemes`: enumerates the protection-scheme registry with
/// per-scheme capabilities, evaluated against the paper's standard design
/// point (STT-MRAM, Hamming r = 8). Human-readable table by default,
/// machine-readable with `--json`.
fn cmd_schemes(args: &[String]) {
    let rows = nvpim::scheme_capabilities();
    if has_flag(args, "--json") {
        let entries: Vec<Value> = rows
            .iter()
            .map(|(scheme, caps)| {
                Value::Object(vec![
                    ("scheme".into(), Value::Str(scheme.wire_name().into())),
                    ("display".into(), Value::Str(scheme.name().into())),
                    ("detect_only".into(), Value::Bool(caps.detect_only)),
                    ("parity_bits".into(), Value::UInt(caps.parity_bits as u64)),
                    (
                        "metadata_columns".into(),
                        Value::UInt(caps.metadata_columns as u64),
                    ),
                    (
                        "cells_per_value".into(),
                        Value::UInt(caps.cells_per_value as u64),
                    ),
                    ("analytic_clean".into(), Value::Bool(caps.analytic_clean)),
                    ("recompute".into(), Value::Bool(caps.recompute)),
                    ("stuck_at_aware".into(), Value::Bool(caps.stuck_at_aware)),
                ])
            })
            .collect();
        print_pretty(&Value::Array(entries));
        return;
    }
    println!(
        "{:<16} {:<16} {:>11} {:>11} {:>16} {:>15} {:>14} {:>9} {:>13}",
        "scheme",
        "display",
        "detect-only",
        "parity bits",
        "metadata columns",
        "cells per value",
        "analytic-clean",
        "recompute",
        "stuck-at-aware"
    );
    for (scheme, caps) in rows {
        println!(
            "{:<16} {:<16} {:>11} {:>11} {:>16} {:>15} {:>14} {:>9} {:>13}",
            scheme.wire_name(),
            scheme.name(),
            caps.detect_only,
            caps.parity_bits,
            caps.metadata_columns,
            caps.cells_per_value,
            caps.analytic_clean,
            caps.recompute,
            caps.stuck_at_aware
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("submit") => cmd_submit(&args),
        Some("status") => simple_command(
            &args,
            "status",
            vec![("job".to_string(), Value::UInt(job_arg(&args)))],
        ),
        Some("result") => cmd_result(&args),
        Some("cancel") => simple_command(
            &args,
            "cancel",
            vec![("job".to_string(), Value::UInt(job_arg(&args)))],
        ),
        Some("stats") => {
            if has_flag(&args, "--watch") {
                cmd_stats_watch(&args)
            } else {
                simple_command(&args, "stats", vec![])
            }
        }
        Some("metrics") => cmd_metrics(&args),
        Some("shutdown") => simple_command(&args, "shutdown", vec![]),
        Some("run") => cmd_run(&args),
        Some("schemes") => cmd_schemes(&args),
        _ => {
            eprintln!(
                "usage: nvpim-cli <submit|status|result|cancel|stats|metrics|shutdown|run|schemes> [flags]\n\
                 see `docs/protocol.md` for the full protocol, `docs/observability.md` for metrics"
            );
            std::process::exit(2);
        }
    }
}
