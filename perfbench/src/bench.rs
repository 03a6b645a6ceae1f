//! One benchmark run: reference phase, repeated setup, the closed-loop
//! measured phase, counter reconciliation, and the metrics.

use std::path::{Path, PathBuf};
use std::time::Instant;

use nvpim_service::client::request;
use nvpim_service::coordinator::run_fleet;
use nvpim_service::{FleetConfig, FleetStats};
use nvpim_sweep::digest::{sha256, to_hex};
use nvpim_sweep::{
    prepare_campaign, prepare_campaign_with_telemetry, Phase, ScheduleCache, SweepPlan, Telemetry,
    TelemetryCounter,
};
use serde::Value;

use crate::daemon::{self, Daemon, Snapshot};
use crate::plans::{self, Class};
use crate::stats::{median_or_zero, percentile, ratio};

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Error campaigns a run collects at least, so that p90 has ten samples
/// beyond it. The measured phase runs past `--seconds` until it has them.
pub const MIN_ERROR_SAMPLES: usize = 100;
/// The measured phase stops here whatever it has collected.
const HARD_CAP_S: f64 = 100.0;
/// `rss_peak_mb` is read after this many measured requests (or at the end
/// of a shorter phase): a fixed amount of work, so a faster program that
/// serves more requests in `--seconds` is not charged for the reports its
/// daemon keeps.
const RSS_AFTER_REQUESTS: usize = MIN_ERROR_SAMPLES * plans::CYCLE / (plans::CYCLE - 1);
/// Requests one after another that may fail before the run gives up.
const MAX_CONSECUTIVE_FAILURES: usize = 5;
/// Daemons in the fleet.
const FLEET_WORKERS: usize = 2;
/// `stats` round trips timed for the protocol floor.
const STATS_PROBES: usize = 20;

/// The four user paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process `prepare_campaign` → `run` → `to_json`, cold per campaign.
    Direct,
    /// Cold submits to a `--state-dir` daemon.
    DaemonDurable,
    /// Resubmits of primed plans to an in-memory daemon.
    DaemonCached,
    /// `run_fleet` over two single-worker daemons.
    Fleet,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "direct" => Some(Workload::Direct),
            "daemon_durable" => Some(Workload::DaemonDurable),
            "daemon_cached" => Some(Workload::DaemonCached),
            "fleet" => Some(Workload::Fleet),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Direct => "direct",
            Workload::DaemonDurable => "daemon_durable",
            Workload::DaemonCached => "daemon_cached",
            Workload::Fleet => "fleet",
        }
    }
}

/// What one run measures.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which path.
    pub workload: Workload,
    /// Workload seed every campaign seed derives from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run: alternate requests carry spans, and per-layer metrics are
    /// reported instead of end-to-end ones.
    pub trace: bool,
    /// The `nvpim-serviced` binary.
    pub daemon_bin: PathBuf,
    /// Scratch directory for plan files, daemon logs and state dirs.
    pub work: PathBuf,
}

/// A run's result.
pub struct Outcome {
    /// Every request delivered a report matching the reference.
    pub correct: bool,
    /// Requests sent in the measured phase.
    pub attempted: usize,
    /// Of those, requests refused, timed out or answered with wrong bytes.
    pub failed: usize,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

struct Request {
    class: Class,
    plan: SweepPlan,
    body: Value,
    reference: String,
}

impl Request {
    fn new((class, plan): (Class, SweepPlan)) -> Self {
        let body = serde_json::from_str(&plan.canonical_json()).expect("a plan's JSON parses");
        Self {
            class,
            plan,
            body,
            reference: String::new(),
        }
    }
}

/// Fills in each request's reference digest: the SHA-256 of the report a
/// direct library run produces. Runs in a child process, so the engine's
/// memory never counts toward the benchmark process's peak.
fn compute_references(cfg: &Config, requests: Vec<&mut Request>) -> Result<(), String> {
    if requests.is_empty() {
        return Ok(());
    }
    let file = cfg.work.join("plans.ndjson");
    let lines: Vec<String> = requests.iter().map(|r| r.plan.canonical_json()).collect();
    std::fs::write(&file, lines.join("\n") + "\n").map_err(|e| format!("{file:?}: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let output = std::process::Command::new(exe)
        .arg("references")
        .arg(&file)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("reference process: {e}"))?;
    if !output.status.success() {
        return Err(format!("reference process failed: {}", output.status));
    }
    let digests: Vec<&str> = std::str::from_utf8(&output.stdout)
        .map_err(|e| format!("reference digests: {e}"))?
        .lines()
        .collect();
    if digests.len() != requests.len() {
        return Err(format!(
            "{} reference digests for {} plans",
            digests.len(),
            requests.len()
        ));
    }
    for (request, digest) in requests.into_iter().zip(digests) {
        request.reference = digest.to_string();
    }
    Ok(())
}

/// The `references <plans.ndjson>` child: one report digest per plan line,
/// in order. Plans are shared out over `nproc` threads.
pub fn print_references(file: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("{file:?}: {e}"))?;
    let plans = text
        .lines()
        .map(|line| SweepPlan::from_json_str(line).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let digests = std::sync::Mutex::new(vec![String::new(); plans.len()]);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| -> Result<(), String> {
                    let mut cache = ScheduleCache::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(plan) = plans.get(i) else {
                            return Ok(());
                        };
                        let report = prepare_campaign(plan, &mut cache)
                            .and_then(|prepared| prepared.run())
                            .map_err(|e| e.to_string())?;
                        let digest = to_hex(&sha256(report.to_json().as_bytes()));
                        digests.lock().expect("no reference thread panics")[i] = digest;
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("reference thread panicked"))
    })?;
    for digest in digests.into_inner().expect("no reference thread panics") {
        println!("{digest}");
    }
    Ok(())
}

/// The path requests take.
enum Target {
    Direct,
    Daemon(Daemon),
    Fleet(Vec<Daemon>, FleetConfig),
}

impl Target {
    fn daemons(&self) -> &[Daemon] {
        match self {
            Target::Direct => &[],
            Target::Daemon(d) => std::slice::from_ref(d),
            Target::Fleet(ds, _) => ds,
        }
    }

    fn shut_down(self) -> Result<(), String> {
        let daemons = match self {
            Target::Direct => Vec::new(),
            Target::Daemon(d) => vec![d],
            Target::Fleet(ds, _) => ds,
        };
        daemons.into_iter().try_for_each(Daemon::shutdown)
    }
}

/// Engine counters of one traced direct campaign.
#[derive(Default, Clone, Copy)]
struct Engine {
    gate_ns: f64,
    phase_ns: f64,
    compiles: f64,
    clean_settled: f64,
    trials: f64,
}

/// What came back for one request, besides the report text.
#[derive(Default)]
struct Delivery {
    frames: u64,
    bytes_sent: u64,
    bytes_received: u64,
    fleet: Option<FleetStats>,
    engine: Option<Engine>,
}

/// A span recorded by the benchmark around a call into one layer.
struct Span {
    request: usize,
    name: &'static str,
    parent: &'static str,
    start_us: f64,
    end_us: f64,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn record(&mut self, request: usize, name: &'static str, started: Instant) {
        let parent = if name == "campaign" { "" } else { "campaign" };
        self.spans.push(Span {
            request,
            name,
            parent,
            start_us: (started - self.origin).as_secs_f64() * 1e6,
            end_us: self.origin.elapsed().as_secs_f64() * 1e6,
        });
    }

    /// Durations (ms) of `name` spans on traced requests of `class`.
    fn ms(&self, records: &[Record], name: &str, class: Class) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && records[s.request].class == class)
            .map(|s| (s.end_us - s.start_us) / 1e3)
            .collect()
    }

    /// Writes the spans as NDJSON.
    fn write(&self, path: &Path) -> Result<(), String> {
        let lines: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"request\":{},\"name\":\"{}\",\"parent\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
                    s.request, s.name, s.parent, s.start_us, s.end_us
                )
            })
            .collect();
        std::fs::write(path, lines.join("\n") + "\n").map_err(|e| format!("{path:?}: {e}"))
    }
}

/// Optional span recording for one request.
struct Trace<'a> {
    tracer: Option<&'a mut Tracer>,
    request: usize,
}

impl Trace<'_> {
    fn span(&mut self, name: &'static str, started: Instant) {
        if let Some(tracer) = self.tracer.as_deref_mut() {
            tracer.record(self.request, name, started);
        }
    }

    fn on(&self) -> bool {
        self.tracer.is_some()
    }
}

fn run_direct(plan: &SweepPlan, trace: &mut Trace) -> Result<(String, Delivery), String> {
    let mut cache = ScheduleCache::new();
    if !trace.on() {
        let report = prepare_campaign(plan, &mut cache)
            .and_then(|prepared| prepared.run())
            .map_err(|e| e.to_string())?;
        return Ok((report.to_json(), Delivery::default()));
    }
    let telemetry = Telemetry::new();
    let t = Instant::now();
    let prepared = prepare_campaign_with_telemetry(plan, &mut cache, telemetry.clone())
        .map_err(|e| e.to_string())?;
    trace.span("sweep.prepare", t);
    let t = Instant::now();
    let report = prepared.run().map_err(|e| e.to_string())?;
    trace.span("sweep.run", t);
    let t = Instant::now();
    let text = report.to_json();
    trace.span("sweep.to_json", t);
    let snap = telemetry.snapshot();
    let engine = Engine {
        gate_ns: snap.phase_nanos(Phase::GateExecution) as f64,
        phase_ns: Phase::ALL.iter().map(|&p| snap.phase_nanos(p) as f64).sum(),
        compiles: snap.counter(TelemetryCounter::ScheduleCompiles) as f64,
        clean_settled: snap.counter(TelemetryCounter::CleanSettledTrials) as f64,
        trials: plan.trial_count() as f64,
    };
    Ok((
        text,
        Delivery {
            engine: Some(engine),
            ..Delivery::default()
        },
    ))
}

/// `submit` with `wait: true` on a fresh connection, as `nvpim-cli submit
/// --wait` does; the report is rendered the way the CLI prints it.
fn run_submit(addr: &str, body: &Value, trace: &mut Trace) -> Result<(String, Delivery), String> {
    let t = Instant::now();
    let mut client = daemon::connect(addr)?;
    trace.span("client.connect", t);
    let submit = request(
        "submit",
        vec![
            ("plan".to_string(), body.clone()),
            ("wait".to_string(), Value::Bool(true)),
        ],
    );
    let t = Instant::now();
    client.send(&submit).map_err(|e| format!("send: {e}"))?;
    let mut frames = 0;
    let mut next = |frames: &mut u64| -> Result<Value, String> {
        let frame = client
            .recv()
            .map_err(|e| format!("recv: {e}"))?
            .ok_or("daemon closed the connection")?;
        *frames += 1;
        if frame.get("ok").and_then(Value::as_bool) != Some(true) {
            let code = frame
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str)
                .unwrap_or("?");
            return Err(format!("error frame `{code}`"));
        }
        Ok(frame)
    };
    let accepted = next(&mut frames)?;
    if accepted.get("event").and_then(Value::as_str) != Some("accepted") {
        return Err(format!("expected `accepted`, got {accepted:?}"));
    }
    trace.span("client.ack", t);
    let t = Instant::now();
    let report = loop {
        let frame = next(&mut frames)?;
        match frame.get("event").and_then(Value::as_str) {
            Some("progress") => {}
            Some("result") => {
                break frame
                    .get("report")
                    .cloned()
                    .ok_or("result without report")?
            }
            other => return Err(format!("unexpected event {other:?}")),
        }
    };
    trace.span("client.result", t);
    let t = Instant::now();
    let text = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    trace.span("client.render", t);
    let delivery = Delivery {
        frames,
        bytes_sent: client.bytes_sent(),
        bytes_received: client.bytes_received(),
        ..Delivery::default()
    };
    Ok((text, delivery))
}

fn run_fleet_request(
    plan: &SweepPlan,
    fleet: &FleetConfig,
    trace: &mut Trace,
) -> Result<(String, Delivery), String> {
    let t = Instant::now();
    let outcome = run_fleet(plan, fleet, &Telemetry::disabled()).map_err(|e| e.to_string())?;
    trace.span("coordinator.run_fleet", t);
    let t = Instant::now();
    let text = outcome.report.to_json();
    trace.span("sweep.to_json", t);
    Ok((
        text,
        Delivery {
            fleet: Some(outcome.stats),
            ..Delivery::default()
        },
    ))
}

/// One request through `target`, timed from the call to a verified report.
fn execute(target: &Target, req: &Request, trace: &mut Trace) -> Attempt {
    let started = Instant::now();
    let result = match target {
        Target::Direct => run_direct(&req.plan, trace),
        Target::Daemon(d) => run_submit(&d.addr, &req.body, trace),
        Target::Fleet(_, fleet) => run_fleet_request(&req.plan, fleet, trace),
    };
    let result = result.and_then(|(text, delivery)| {
        let t = Instant::now();
        let digest = to_hex(&sha256(text.as_bytes()));
        trace.span("verify", t);
        if digest == req.reference {
            Ok((text, delivery))
        } else {
            Err(format!(
                "report digest {digest} != reference {}",
                req.reference
            ))
        }
    });
    trace.span("campaign", started);
    Attempt {
        ms: started.elapsed().as_secs_f64() * 1e3,
        result,
    }
}

struct Attempt {
    ms: f64,
    result: Result<(String, Delivery), String>,
}

struct Record {
    class: Class,
    traced: bool,
    ms: f64,
    ok: bool,
    trials: u64,
    delivery: Delivery,
    parse_ms: Option<f64>,
}

/// Starts the workload's daemons, primes and warms them up; returns the
/// target and the warm-up cycle's duration.
fn set_up(
    cfg: &Config,
    round: usize,
    primed: &[Request],
    warm_up: &[&Request],
) -> Result<(Target, f64), String> {
    let bin = &cfg.daemon_bin;
    let target = match cfg.workload {
        Workload::Direct => Target::Direct,
        Workload::DaemonDurable => Target::Daemon(Daemon::spawn(
            bin,
            &cfg.work,
            &format!("durable{round}"),
            &[],
            &[],
            true,
        )?),
        Workload::DaemonCached => Target::Daemon(Daemon::spawn(
            bin,
            &cfg.work,
            &format!("cached{round}"),
            &[],
            &[],
            false,
        )?),
        Workload::Fleet => {
            let daemons = (0..FLEET_WORKERS)
                .map(|w| {
                    Daemon::spawn(
                        bin,
                        &cfg.work,
                        &format!("fleet{round}-{w}"),
                        &["--workers", "1"],
                        &[("RAYON_NUM_THREADS", "1")],
                        false,
                    )
                })
                .collect::<Result<Vec<_>, _>>()?;
            let fleet = FleetConfig {
                workers: daemons.iter().map(|d| d.addr.clone()).collect(),
                ..FleetConfig::default()
            };
            Target::Fleet(daemons, fleet)
        }
    };
    // Priming is setup, not measured traffic: it uses up to `nproc`
    // connections at once, one per daemon worker.
    let connections = std::thread::available_parallelism().map_or(1, usize::from);
    let chunk = primed.len().div_ceil(connections).max(1);
    std::thread::scope(|scope| {
        let primers: Vec<_> = primed
            .chunks(chunk)
            .map(|share| {
                let target = &target;
                scope.spawn(move || {
                    let mut untraced = Trace {
                        tracer: None,
                        request: 0,
                    };
                    share.iter().try_for_each(|req| {
                        execute(target, req, &mut untraced)
                            .result
                            .map(drop)
                            .map_err(|e| format!("priming: {e}"))
                    })
                })
            })
            .collect();
        primers
            .into_iter()
            .try_for_each(|p| p.join().expect("priming thread panicked"))
    })?;
    let mut untraced = Trace {
        tracer: None,
        request: 0,
    };
    let started = Instant::now();
    for req in warm_up {
        execute(&target, req, &mut untraced)
            .result
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok((target, started.elapsed().as_secs_f64()))
}

/// Counter deltas over the measured phase, summed over the target's daemons.
struct Deltas {
    start: Vec<Snapshot>,
    end: Vec<Snapshot>,
}

impl Deltas {
    fn stat(&self, key: &str) -> f64 {
        self.sum(|s| s.stat(key))
    }

    fn metric(&self, series: &str) -> f64 {
        self.sum(|s| s.metric(series))
    }

    fn sum(&self, f: impl Fn(&Snapshot) -> f64) -> f64 {
        self.end.iter().map(&f).sum::<f64>() - self.start.iter().map(&f).sum::<f64>()
    }

    fn phase_ns(&self, phase: Phase) -> f64 {
        self.metric(&format!(
            "nvpim_phase_nanos_total{{phase=\"{}\"}}",
            phase.name()
        ))
    }
}

fn snapshots(target: &Target) -> Result<Vec<Snapshot>, String> {
    target
        .daemons()
        .iter()
        .map(|d| d.snapshot(&mut daemon::connect(&d.addr)?))
        .collect()
}

/// The measured traffic.
enum Traffic {
    /// Cycled in order.
    Pool(Vec<Request>),
    /// Each sent once; the phase ends if they run out.
    Fresh(Vec<Request>),
    /// Primed plans resent in a fixed order.
    Cached(Vec<Request>, Vec<usize>),
}

impl Traffic {
    fn get(&self, i: usize) -> Option<&Request> {
        match self {
            Traffic::Pool(pool) => pool.get(i % pool.len()),
            Traffic::Fresh(fresh) => fresh.get(i),
            Traffic::Cached(primed, order) => order.get(i).map(|&slot| &primed[slot]),
        }
    }
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload end to end.
///
/// # Errors
///
/// A setup, reference or teardown step failed, or a percentile had too few
/// samples.
pub fn run(mut cfg: Config) -> Result<Outcome, String> {
    cfg.work = cfg
        .work
        .join(format!("run-{}-{}", cfg.seed, std::process::id()));
    std::fs::create_dir_all(&cfg.work).map_err(|e| format!("{:?}: {e}", cfg.work))?;
    let _work = WorkDir(cfg.work.clone());
    let seed = cfg.seed;
    let stream = |stream: u64, n: usize| -> Vec<Request> {
        (0..n)
            .map(|i| Request::new(plans::plan_at(seed, stream, i)))
            .collect()
    };

    // Reference phase: digests for everything setup sends and for the
    // pooled traffic, before any daemon starts.
    let (mut warm, mut primed, mut pool) = match cfg.workload {
        Workload::Direct | Workload::Fleet => {
            (Vec::new(), Vec::new(), stream(plans::MEASURED, plans::POOL))
        }
        Workload::DaemonCached => (
            Vec::new(),
            plans::cached_plans(seed)
                .into_iter()
                .map(Request::new)
                .collect(),
            Vec::new(),
        ),
        // Each setup warms up on its own fresh cycle, so it runs cold.
        Workload::DaemonDurable => (
            (0..SETUPS)
                .flat_map(|r| stream(1 + r as u64, plans::CYCLE))
                .collect(),
            Vec::new(),
            Vec::new(),
        ),
    };
    compute_references(
        &cfg,
        warm.iter_mut()
            .chain(primed.iter_mut())
            .chain(pool.iter_mut())
            .collect(),
    )?;

    // Setup, repeated; the last target is the one measured.
    let mut setup_s = Vec::new();
    let mut warm_up_s = Vec::new();
    let mut target: Option<Target> = None;
    for round in 0..SETUPS {
        if let Some(previous) = target.take() {
            previous.shut_down()?;
        }
        let warm_up: Vec<&Request> = match cfg.workload {
            Workload::DaemonDurable => warm[round * plans::CYCLE..][..plans::CYCLE]
                .iter()
                .collect(),
            Workload::DaemonCached => plans::cached_order(seed, plans::CYCLE)
                .into_iter()
                .map(|slot| &primed[slot])
                .collect(),
            Workload::Direct | Workload::Fleet => pool[..plans::CYCLE].iter().collect(),
        };
        let started = Instant::now();
        let (t, warm_s) = set_up(&cfg, round, &primed, &warm_up)?;
        setup_s.push(started.elapsed().as_secs_f64());
        warm_up_s.push(warm_s);
        target = Some(t);
    }
    let target = target.expect("at least one setup");

    let traffic = match cfg.workload {
        Workload::Direct | Workload::Fleet => Traffic::Pool(pool),
        Workload::DaemonCached => Traffic::Cached(primed, plans::cached_order(seed, 100_000)),
        Workload::DaemonDurable => {
            // Fresh plans, enough for 1.5x the rate the warm-up showed.
            let per_request = median_or_zero(&warm_up_s) / plans::CYCLE as f64;
            let wanted = (1.5 * cfg.seconds / per_request.max(1e-3)).ceil() as usize;
            let floor = RSS_AFTER_REQUESTS + plans::CYCLE;
            let n = wanted.clamp(floor, 4_000).next_multiple_of(plans::CYCLE);
            let mut fresh = stream(plans::MEASURED, n);
            compute_references(&cfg, fresh.iter_mut().collect())?;
            Traffic::Fresh(fresh)
        }
    };

    let result = measure(&cfg, &target, &traffic, &setup_s);
    let shutdown = target.shut_down();
    let outcome = result?;
    shutdown?;
    Ok(outcome)
}

fn measure(
    cfg: &Config,
    target: &Target,
    traffic: &Traffic,
    setup_s: &[f64],
) -> Result<Outcome, String> {
    let start = snapshots(target)?;
    let mut tracer = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut records: Vec<Record> = Vec::new();
    let mut large_report: Option<String> = None;
    let mut failures = Vec::new();
    let mut consecutive = 0;
    let mut pids: Vec<String> = target
        .daemons()
        .iter()
        .map(|d| d.pid().to_string())
        .collect();
    if matches!(target, Target::Direct | Target::Fleet(..)) {
        pids.push("self".to_string());
    }
    let peak_rss_kb =
        || -> Result<u64, String> { pids.iter().map(|pid| daemon::peak_rss_kb(pid)).sum() };
    let mut rss_kb = None;
    let started = Instant::now();
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        let errors = records
            .iter()
            .filter(|r| r.ok && r.class == Class::Error)
            .count();
        if (elapsed >= cfg.seconds && errors >= MIN_ERROR_SAMPLES) || elapsed >= HARD_CAP_S {
            break;
        }
        let i = records.len();
        let Some(req) = traffic.get(i) else { break };
        let traced = cfg.trace && i % 2 == 1;
        let mut trace = Trace {
            tracer: traced.then_some(&mut tracer),
            request: i,
        };
        let attempt = execute(target, req, &mut trace);
        let (ok, delivery, parse_ms) = match attempt.result {
            Ok((text, delivery)) => {
                consecutive = 0;
                // Re-parse the delivered report (traced requests only,
                // outside the campaign span).
                let parse_ms = traced.then(|| {
                    let t = Instant::now();
                    std::hint::black_box(serde_json::from_str(&text).is_ok());
                    t.elapsed().as_secs_f64() * 1e3
                });
                if cfg.trace && req.class == Class::Error && large_report.is_none() {
                    large_report = Some(text);
                }
                (true, delivery, parse_ms)
            }
            Err(e) => {
                consecutive += 1;
                failures.push(format!("request {i}: {e}"));
                (false, Delivery::default(), None)
            }
        };
        records.push(Record {
            class: req.class,
            traced,
            ms: attempt.ms,
            ok,
            trials: req.plan.trial_count(),
            delivery,
            parse_ms,
        });
        if records.len() == RSS_AFTER_REQUESTS {
            rss_kb = Some(peak_rss_kb()?);
        }
        if consecutive >= MAX_CONSECUTIVE_FAILURES {
            break;
        }
    }
    let wall_s = started.elapsed().as_secs_f64();

    // Protocol floor, rss and counters, read before shutdown.
    let mut stats_rtt = Vec::new();
    if cfg.trace {
        if let Some(d) = target.daemons().first() {
            let mut control = daemon::connect(&d.addr)?;
            for _ in 0..STATS_PROBES {
                let t = Instant::now();
                daemon::call(&mut control, "stats")?;
                stats_rtt.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    let end = snapshots(target)?;
    let rss_kb = match rss_kb {
        Some(kb) => kb,
        None => peak_rss_kb()?,
    };
    let deltas = Deltas { start, end };

    let attempted = records.len();
    let failed = records.iter().filter(|r| !r.ok).count();
    let mut notes = vec![format!(
        "nproc {} load_threads 1 connections {} daemons {} measured_s {wall_s:.2}",
        std::thread::available_parallelism().map_or(1, usize::from),
        match cfg.workload {
            Workload::Direct => 0,
            Workload::DaemonDurable | Workload::DaemonCached => 1,
            Workload::Fleet => FLEET_WORKERS,
        },
        target.daemons().len(),
    )];
    notes.extend(failures.iter().take(5).cloned());
    let mismatches = reconcile(cfg.workload, &records, &deltas);
    notes.extend(mismatches.iter().map(|m| format!("counter mismatch: {m}")));

    let e2e = |traced: bool, class: Class| -> Vec<f64> {
        records
            .iter()
            .filter(|r| r.ok && r.traced == traced && r.class == class)
            .map(|r| r.ms)
            .collect()
    };
    let errors_ms = e2e(false, Class::Error);
    let accuracy_ms = e2e(false, Class::Accuracy);
    let setup = percentile(setup_s, 0.5)?;
    let mut metrics = Vec::new();
    if !cfg.trace {
        let p50 = percentile(&errors_ms, 0.5)?;
        let p90 = percentile(&errors_ms, 0.9)?;
        let accuracy_trials = accuracy_ms.len() as f64 * plans::ACCURACY_TRIALS as f64;
        let accuracy_s: f64 = accuracy_ms.iter().sum::<f64>() / 1e3;
        notes.push(format!(
            "campaign_ms: {} error campaigns; accuracy: {} campaigns; setup: median of {} setups",
            p50.samples,
            accuracy_ms.len(),
            setup.samples
        ));
        notes.push(format!(
            "failed_share = {} fraction ({failed}/{attempted})",
            ratio(failed as f64, attempted as f64)
        ));
        metrics.push(("campaign_ms.p50".into(), p50.value, "ms"));
        metrics.push(("campaign_ms.p90".into(), p90.value, "ms"));
        metrics.push((
            "accuracy_trials_per_s".into(),
            ratio(accuracy_trials, accuracy_s),
            "trials/s",
        ));
        metrics.push(("rss_peak_mb".into(), rss_kb as f64 / 1024.0, "MB"));
        metrics.push(("setup_s".into(), setup.value, "s"));
    } else {
        let traced_errors = e2e(true, Class::Error);
        let probe = match &large_report {
            Some(large) => {
                let mut quick = SweepPlan::quick();
                quick.campaign_seed = cfg.seed;
                let small = nvpim_sweep::run_campaign(&quick)
                    .map_err(|e| e.to_string())?
                    .to_json();
                Some(crate::probe::probe(&small, large)?)
            }
            None => None,
        };
        metrics = per_layer(&PerLayer {
            workload: cfg.workload,
            records: &records,
            tracer: &tracer,
            deltas: &deltas,
            stats_rtt: &stats_rtt,
            wall_s,
            probe,
            untraced_p50: median_or_zero(&errors_ms),
            traced_p50: median_or_zero(&traced_errors),
        });
        let spans = cfg.work.parent().unwrap_or(&cfg.work).join(format!(
            "spans-{}-{}.ndjson",
            cfg.workload.name(),
            cfg.seed
        ));
        tracer.write(&spans)?;
        notes.push(format!("spans written to {}", spans.display()));
    }
    Ok(Outcome {
        correct: failed == 0 && mismatches.is_empty(),
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// Checks the daemons' counter deltas against the traffic sent.
fn reconcile(workload: Workload, records: &[Record], deltas: &Deltas) -> Vec<String> {
    if workload == Workload::Direct {
        return Vec::new();
    }
    let sent_trials: u64 = records.iter().map(|r| r.trials).sum();
    let (cold_trials, cache_hits) = match workload {
        Workload::DaemonCached => (0, records.len() as u64),
        _ => (sent_trials, 0),
    };
    let fleet_sum = |f: fn(&FleetStats) -> u64| -> u64 {
        records
            .iter()
            .filter_map(|r| r.delivery.fleet.as_ref())
            .map(f)
            .sum()
    };
    let checks = [
        (
            "trials_executed",
            deltas.stat("trials_executed"),
            cold_trials,
        ),
        (
            "report_cache_hits",
            deltas.stat("report_cache_hits"),
            cache_hits,
        ),
        ("jobs_failed", deltas.stat("jobs_failed"), 0),
        ("jobs_rejected", deltas.stat("jobs_rejected"), 0),
        (
            "shards_reassigned",
            fleet_sum(|s| s.shards_reassigned) as f64,
            0,
        ),
        (
            "worker_evictions",
            fleet_sum(|s| s.worker_evictions) as f64,
            0,
        ),
    ];
    checks
        .iter()
        .filter(|(_, got, want)| *got != *want as f64)
        .map(|(name, got, want)| format!("{name} moved by {got}, traffic says {want}"))
        .collect()
}

struct PerLayer<'a> {
    workload: Workload,
    records: &'a [Record],
    tracer: &'a Tracer,
    deltas: &'a Deltas,
    stats_rtt: &'a [f64],
    wall_s: f64,
    probe: Option<crate::probe::JsonProbe>,
    untraced_p50: f64,
    traced_p50: f64,
}

/// The per-layer split. A metric reads 0 on a workload whose traffic never
/// enters that layer.
fn per_layer(p: &PerLayer) -> Vec<(String, f64, &'static str)> {
    let (records, tracer, d) = (p.records, p.tracer, p.deltas);
    let requests = records.len() as f64;
    let traced_errors: Vec<&Record> = records
        .iter()
        .filter(|r| r.ok && r.traced && r.class == Class::Error)
        .collect();
    let per_traced_error = |f: &dyn Fn(&Record) -> f64| -> f64 {
        ratio(
            traced_errors.iter().map(|r| f(r)).sum(),
            traced_errors.len() as f64,
        )
    };
    let span_p50 = |name: &str, class: Class| median_or_zero(&tracer.ms(records, name, class));
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut push =
        |name: &str, value: f64, unit: &'static str| m.push((name.to_string(), value, unit));

    // sweep: direct spans and engine telemetry; daemons' exported counters.
    let engines: Vec<Engine> = records.iter().filter_map(|r| r.delivery.engine).collect();
    let engine_sum = |f: fn(&Engine) -> f64| -> f64 { engines.iter().map(f).sum() };
    push(
        "sweep.prepare_ms",
        span_p50("sweep.prepare", Class::Error),
        "ms",
    );
    push("sweep.run_ms", span_p50("sweep.run", Class::Error), "ms");
    push(
        "sweep.to_json_ms",
        span_p50("sweep.to_json", Class::Error),
        "ms",
    );
    push(
        "sweep.accuracy_run_ms",
        span_p50("sweep.run", Class::Accuracy),
        "ms",
    );
    let daemon_trials = d.stat("trials_executed");
    let (compiles, gate_share, clean_share) = if p.workload == Workload::Direct {
        (
            ratio(engine_sum(|e| e.compiles), engines.len() as f64),
            ratio(engine_sum(|e| e.gate_ns), engine_sum(|e| e.phase_ns)),
            ratio(engine_sum(|e| e.clean_settled), engine_sum(|e| e.trials)),
        )
    } else {
        let phases: f64 = Phase::ALL.iter().map(|&ph| d.phase_ns(ph)).sum();
        (
            ratio(d.stat("schedule_cache_compiles"), requests),
            ratio(d.phase_ns(Phase::GateExecution), phases),
            ratio(d.stat("clean_settled_trials"), daemon_trials),
        )
    };
    push("sweep.schedule_compiles_per_campaign", compiles, "count");
    push("sweep.gate_execution_share", gate_share, "fraction");
    push("sweep.clean_settled_share", clean_share, "fraction");

    // serde_json.
    let probe = p.probe.unwrap_or(crate::probe::JsonProbe {
        parse_us_per_kb_small: 0.0,
        parse_us_per_kb_large: 0.0,
        encode_us_per_kb_large: 0.0,
    });
    push(
        "serde_json.parse_us_per_kb.small",
        probe.parse_us_per_kb_small,
        "us/KB",
    );
    push(
        "serde_json.parse_us_per_kb.large",
        probe.parse_us_per_kb_large,
        "us/KB",
    );
    push(
        "serde_json.encode_us_per_kb.large",
        probe.encode_us_per_kb_large,
        "us/KB",
    );
    let parses: Vec<f64> = traced_errors.iter().filter_map(|r| r.parse_ms).collect();
    push(
        "serde_json.parse_ms_per_campaign",
        median_or_zero(&parses),
        "ms",
    );

    // service.client.
    let ack = span_p50("client.ack", Class::Error);
    let result = span_p50("client.result", Class::Error);
    let is_daemon = matches!(p.workload, Workload::DaemonDurable | Workload::DaemonCached);
    push(
        "client.connect_ms",
        span_p50("client.connect", Class::Error),
        "ms",
    );
    push("client.ack_ms", ack, "ms");
    push("client.result_ms", result, "ms");
    push(
        "client.remainder_ms",
        if is_daemon {
            p.traced_p50 - ack - result
        } else {
            0.0
        },
        "ms",
    );
    push(
        "client.frames_per_campaign",
        per_traced_error(&|r| r.delivery.frames as f64),
        "count",
    );
    push(
        "client.bytes_sent_per_campaign",
        per_traced_error(&|r| r.delivery.bytes_sent as f64),
        "B",
    );
    push(
        "client.bytes_received_per_campaign",
        per_traced_error(&|r| r.delivery.bytes_received as f64),
        "B",
    );
    push("client.stats_rtt_ms", median_or_zero(p.stats_rtt), "ms");

    // service (daemon): stats and metrics deltas.
    let end = |f: fn(&Snapshot) -> f64| -> f64 { d.end.iter().map(f).fold(0.0, f64::max) };
    push(
        "service.run_latency_ms.p50",
        end(|s| s.p50_ms("run_latency")),
        "ms",
    );
    push(
        "service.queue_wait_ms.p50",
        end(|s| s.p50_ms("queue_wait")),
        "ms",
    );
    let hits = d.stat("report_cache_hits");
    push(
        "service.report_cache_hit_ratio",
        ratio(hits, hits + d.stat("report_cache_misses")),
        "fraction",
    );
    let sched_hits = d.stat("schedule_cache_hits");
    push(
        "service.schedule_cache_hit_ratio",
        ratio(sched_hits, sched_hits + d.stat("schedule_cache_compiles")),
        "fraction",
    );
    push(
        "service.trials_executed_per_campaign",
        ratio(daemon_trials, requests),
        "count",
    );
    push("service.jobs_failed", d.stat("jobs_failed"), "count");
    push("service.jobs_rejected", d.stat("jobs_rejected"), "count");
    push("service.jobs_retried", d.stat("jobs_retried"), "count");
    push(
        "service.cpu_ms_per_campaign",
        ratio(
            d.sum(|s| s.cpu_ticks as f64) * daemon::MS_PER_TICK,
            requests,
        ),
        "ms",
    );
    let mean_rtt = ratio(records.iter().map(|r| r.ms).sum(), requests);
    let server_ms =
        (d.metric("nvpim_run_latency_ns_sum") + d.metric("nvpim_queue_wait_ns_sum")) / 1e6;
    push(
        "service.unattributed_ms",
        if is_daemon {
            mean_rtt - ratio(server_ms, requests)
        } else {
            0.0
        },
        "ms",
    );

    // service.journal and service.store: state-dir growth.
    push(
        "journal.bytes_per_campaign",
        ratio(d.sum(|s| s.journal_bytes as f64), requests),
        "B",
    );
    push(
        "journal.records_per_campaign",
        ratio(d.sum(|s| s.journal_records as f64), requests),
        "count",
    );
    push(
        "store.bytes_per_campaign",
        ratio(d.sum(|s| s.store_bytes as f64), requests),
        "B",
    );

    // service.coordinator: FleetStats.
    let fleets: Vec<&FleetStats> = records
        .iter()
        .filter_map(|r| r.delivery.fleet.as_ref())
        .collect();
    let fleet_errors: Vec<&FleetStats> = records
        .iter()
        .filter(|r| r.class == Class::Error)
        .filter_map(|r| r.delivery.fleet.as_ref())
        .collect();
    let worker_sum = |stats: &[&FleetStats], f: fn(&nvpim_service::WorkerStats) -> f64| -> f64 {
        stats.iter().flat_map(|s| s.workers.iter()).map(f).sum()
    };
    let per_fleet_error = |f: fn(&nvpim_service::WorkerStats) -> f64| {
        ratio(worker_sum(&fleet_errors, f), fleet_errors.len() as f64)
    };
    push(
        "coordinator.bytes_received_per_campaign",
        per_fleet_error(|w| w.bytes_received as f64),
        "B",
    );
    push(
        "coordinator.bytes_sent_per_campaign",
        per_fleet_error(|w| w.bytes_sent as f64),
        "B",
    );
    push(
        "coordinator.shards_per_campaign",
        ratio(
            fleets.iter().map(|s| s.shards_total as f64).sum(),
            fleets.len() as f64,
        ),
        "count",
    );
    let fleet_total = |f: fn(&FleetStats) -> u64| fleets.iter().map(|s| f(s)).sum::<u64>() as f64;
    push(
        "coordinator.shards_reassigned",
        fleet_total(|s| s.shards_reassigned),
        "count",
    );
    push(
        "coordinator.heartbeat_misses",
        fleet_total(|s| s.heartbeat_misses),
        "count",
    );
    push(
        "coordinator.worker_evictions",
        fleet_total(|s| s.worker_evictions),
        "count",
    );
    let fleet_wall_s: f64 = tracer
        .spans
        .iter()
        .filter(|s| s.name == "coordinator.run_fleet")
        .map(|s| (s.end_us - s.start_us) / 1e6)
        .sum();
    let traced_fleets: Vec<&FleetStats> = records
        .iter()
        .filter(|r| r.traced)
        .filter_map(|r| r.delivery.fleet.as_ref())
        .collect();
    push(
        "coordinator.worker_busy_share",
        ratio(
            worker_sum(&traced_fleets, |w| w.busy_seconds),
            FLEET_WORKERS as f64 * fleet_wall_s,
        ),
        "fraction",
    );

    // The benchmark itself.
    push(
        "trace.overhead_share",
        ratio(p.traced_p50 - p.untraced_p50, p.untraced_p50),
        "fraction",
    );
    push("campaign_ms.p50_traced", p.traced_p50, "ms");
    push(
        "campaign_ms.samples",
        records
            .iter()
            .filter(|r| r.ok && r.class == Class::Error)
            .count() as f64,
        "count",
    );
    push("bench.requests_per_s", ratio(requests, p.wall_s), "1/s");
    m
}
