//! The campaign service: worker pool, shared caches, job bookkeeping.
//!
//! [`ServiceHandle`] is the in-process API; the TCP layer
//! ([`crate::server`]) is a thin codec over exactly these methods, so
//! tests exercising the handle cover the same code path as network
//! clients.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use nvpim_sweep::{
    prepare_campaign_with_telemetry, CampaignControl, CampaignKind, ChunkCheckpoint, EstimatorMode,
    ExecutionBackend, ScheduleCache, SlicedBackend, SweepError, SweepPlan, Tallies,
};
use nvpim_telemetry::{Counter, EventLog, Phase, Telemetry};
use serde::{Serialize, Value};

use crate::job::{CancelOutcome, JobCore, JobId, JobState};
use crate::journal::{self, Journal, JournalRecord, ReplayedTerminal};
use crate::queue::BoundedPriorityQueue;
use crate::store::ReportStore;
use crate::ServiceError;

/// Locks a mutex, recovering from poison: every unlock point in this
/// module leaves the protected state consistent, and a contained worker
/// panic must not wedge the rest of the service behind a poisoned lock.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tunables for a service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing campaigns.
    pub workers: usize,
    /// Maximum queued (not yet running) jobs before submissions are
    /// rejected with `queue_full` (backpressure).
    pub queue_capacity: usize,
    /// Checkpoint cadence in milliseconds: a running job journals a
    /// `chunk` checkpoint, streams progress and checks for cancellation or
    /// drain at most this often (and once at the end), and a `run_shard`
    /// stream sends a `shard_chunk` frame — its heartbeat — at the same
    /// cadence. It bounds what a crash loses, and a cancel or drain takes
    /// effect within it plus one task. `0` checkpoints on every advance of
    /// the completed prefix. The cadence never affects report bytes.
    pub checkpoint_ms: u64,
    /// Admission budget: a submission (or a `run_shard` range) with more
    /// trials than this is rejected with `plan_too_large` instead of
    /// queued, and a journaled job over it fails on replay instead of
    /// re-running.
    pub max_trials_per_job: u64,
    /// Soft cap on tracked job records. When exceeded, the oldest
    /// *terminal* jobs are evicted (their ids then answer `unknown_job`);
    /// queued/running jobs are never evicted. Bounds daemon memory under
    /// sustained traffic.
    pub max_tracked_jobs: usize,
    /// Opt-in structured NDJSON event log: when set, the service appends
    /// one event per job transition (and per checkpoint) to this file,
    /// each line carrying a `trace` id correlating a job's whole history.
    /// `None` (the default) logs nothing.
    pub log_json: Option<std::path::PathBuf>,
    /// Durable-state directory. When set, the service keeps a write-ahead
    /// job journal (`jobs.journal`) and a disk-backed report store
    /// (`reports/`) under it: on startup the journal is replayed,
    /// completed reports are restored, and in-flight campaigns resume
    /// from their last checkpoint — byte-identically, thanks to checkpoint
    /// invariance. `None` (the default) keeps all state in memory.
    pub state_dir: Option<std::path::PathBuf>,
    /// Test seam: the execution backend every campaign this service runs
    /// on. `None` (the default) runs [`SlicedBackend`]; tests substitute
    /// the [`ScalarBackend`](nvpim_sweep::ScalarBackend) oracle or
    /// fault-injecting fakes (the chaos suite's panicking backend).
    pub execution_backend: Option<&'static dyn ExecutionBackend>,
    /// Drain budget of [`ServiceHandle::shutdown`], in milliseconds. A
    /// stop rejects new work, abandons queued jobs and stops running ones
    /// at their next checkpoint, then waits at most this long for the
    /// workers to exit, so the daemon exits within roughly this budget
    /// even if a job is wedged. With a state dir the stopped jobs stay in
    /// flight in the journal and resume on restart; without one they are
    /// cancelled. Health probes (`ping`) report `draining: true`
    /// throughout so fleet coordinators treat the node as unschedulable
    /// rather than dead.
    pub shutdown_grace_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            checkpoint_ms: DEFAULT_CHECKPOINT_MS,
            max_trials_per_job: DEFAULT_MAX_TRIALS_PER_JOB,
            max_tracked_jobs: 4096,
            log_json: None,
            state_dir: None,
            execution_backend: None,
            shutdown_grace_ms: DEFAULT_SHUTDOWN_GRACE_MS,
        }
    }
}

/// Default [`ServiceConfig::checkpoint_ms`]: well inside the fleet's 2 s
/// default heartbeat deadline, since `shard_chunk` frames double as
/// heartbeats.
pub const DEFAULT_CHECKPOINT_MS: u64 = 250;

/// Default [`ServiceConfig::max_trials_per_job`]: ten billion trials, hours
/// of compute on one daemon and far beyond the paper's campaigns.
pub const DEFAULT_MAX_TRIALS_PER_JOB: u64 = 10_000_000_000;

/// Default [`ServiceConfig::shutdown_grace_ms`]: twenty default checkpoint
/// intervals, ample for every running job to reach its next checkpoint.
pub const DEFAULT_SHUTDOWN_GRACE_MS: u64 = 5_000;

/// What `submit` tells the client about its new job.
#[derive(Debug, Clone, Serialize)]
pub struct SubmitOutcome {
    /// The job id to poll.
    pub job: JobId,
    /// Content digest of the submitted plan.
    pub digest: String,
    /// Served instantly from the content-addressed report store.
    pub cached: bool,
    /// Attached to an identical in-flight job instead of queueing a new
    /// campaign.
    pub coalesced: bool,
    /// Total trials the campaign runs.
    pub trials_total: u64,
}

/// A job-status snapshot.
#[derive(Debug, Clone, Serialize)]
pub struct JobStatus {
    /// The queried job id.
    pub job: JobId,
    /// Lifecycle state label (`queued`/`running`/`done`/`failed`/`cancelled`).
    pub state: String,
    /// Completion percentage in `[0, 100]`.
    pub percent: f64,
    /// Trials completed so far.
    pub trials_done: u64,
    /// Total trials.
    pub trials_total: u64,
    /// Observed trial throughput of this campaign: completed trials per
    /// second of running wall time, frozen at the value reached when the
    /// job went terminal. `None` (wire `null`) for jobs that never ran —
    /// queued, cancelled while queued, or served from the report cache.
    pub trials_per_sec: Option<f64>,
    /// Plan content digest.
    pub digest: String,
    /// Whether the job was served from the report cache at submit time.
    pub cached: bool,
    /// Failure description when `state == "failed"`.
    pub error: Option<String>,
}

/// Aggregate service counters (the `stats` command payload).
#[derive(Debug, Clone, Serialize)]
pub struct ServiceStats {
    /// Worker threads.
    pub workers: usize,
    /// Monte Carlo trials executed across all campaigns (cache hits and
    /// coalesced submissions recompute nothing and add nothing here).
    pub trials_executed: u64,
    /// Lifetime trial throughput: executed trials divided by total
    /// campaign wall time across the worker pool. `None` (wire `null`)
    /// until the first campaign accrues measurable wall time — a fresh
    /// service has no data, which is different from a measured rate of 0.
    pub trials_per_sec: Option<f64>,
    /// Queue capacity.
    pub queue_capacity: usize,
    /// Jobs currently queued.
    pub queue_depth: usize,
    /// Total submissions accepted (including cached and coalesced).
    pub jobs_submitted: u64,
    /// Campaigns run to completion.
    pub jobs_completed: u64,
    /// Campaigns that failed to run.
    pub jobs_failed: u64,
    /// Jobs cancelled (queued or mid-run).
    pub jobs_cancelled: u64,
    /// Submissions attached to an identical in-flight job.
    pub jobs_coalesced: u64,
    /// Submissions rejected by queue backpressure.
    pub jobs_rejected: u64,
    /// Jobs restored from the durable journal at startup (terminal and
    /// resumed in-flight jobs alike).
    pub recovered_jobs: u64,
    /// Checkpointed chunks whose tallies were resumed — not recomputed —
    /// when in-flight campaigns were restarted from the journal.
    pub resumed_chunks: u64,
    /// Journal records successfully replayed at startup.
    pub journal_records_replayed: u64,
    /// Shard ranges executed to completion for a fleet coordinator (the
    /// `run_shard` protocol command).
    pub shards_executed: u64,
    /// Distinct reports in the content-addressed store.
    pub report_cache_entries: usize,
    /// Submissions served byte-identically from the store.
    pub report_cache_hits: u64,
    /// Store lookups that missed.
    pub report_cache_misses: u64,
    /// Distinct compiled schedules in the shared cache.
    pub schedule_cache_entries: usize,
    /// Schedule lookups served without compiling.
    pub schedule_cache_hits: u64,
    /// Schedule lookups that compiled.
    pub schedule_cache_compiles: u64,
    /// Submissions whose plan requested the stratified rare-event
    /// estimator (counted at acceptance, including cached and coalesced
    /// submissions — the demand signal, not the work done).
    pub estimator_jobs: u64,
    /// Submissions whose plan ran the inference-accuracy campaign kind
    /// (counted at acceptance, like [`estimator_jobs`](Self::estimator_jobs)).
    pub accuracy_jobs: u64,
    /// Accuracy-campaign trials that produced a prediction, across all
    /// campaigns (resumed checkpoints are not re-counted).
    pub accuracy_trials_evaluated: u64,
    /// Of those, trials whose prediction matched the clean model's.
    pub accuracy_trials_correct: u64,
    /// Trials settled by the analytic zero-fault fast path without
    /// executing a gate (first-class telemetry counter).
    pub clean_settled_trials: u64,
    /// Whole 64-lane batches settled by the analytic zero-fault fast path.
    pub clean_settled_batches: u64,
    /// Trials/lanes redrawn into the at-least-one-fault stratum by the
    /// stratified estimator.
    pub estimator_redraws: u64,
    /// Queue-wait latency summary (submission → worker pickup), `None`
    /// until the first job is picked up.
    pub queue_wait: Option<LatencySummary>,
    /// Job run-latency summary (worker pickup → terminal), `None` until
    /// the first campaign finishes.
    pub run_latency: Option<LatencySummary>,
}

/// Deterministic percentile summary of a service latency histogram
/// (log2-bucketed: quantiles are bucket upper bounds, in microseconds).
#[derive(Debug, Clone, Serialize)]
pub struct LatencySummary {
    /// Observations recorded.
    pub count: u64,
    /// Median, microseconds (bucket upper bound).
    pub p50_us: u64,
    /// 95th percentile, microseconds (bucket upper bound).
    pub p95_us: u64,
    /// 99th percentile, microseconds (bucket upper bound).
    pub p99_us: u64,
    /// Mean, microseconds.
    pub mean_us: f64,
}

impl LatencySummary {
    /// Builds a summary from a nanosecond-valued histogram, or `None` when
    /// it has no observations.
    fn from_nanos_histogram(hist: &nvpim_telemetry::Histogram) -> Option<Self> {
        if hist.count() == 0 {
            return None;
        }
        let to_us = |q: f64| hist.quantile(q).unwrap_or(0) / 1_000;
        Some(Self {
            count: hist.count(),
            p50_us: to_us(0.50),
            p95_us: to_us(0.95),
            p99_us: to_us(0.99),
            mean_us: hist.mean().unwrap_or(0.0) / 1_000.0,
        })
    }
}

struct WorkItem {
    core: Arc<JobCore>,
    plan: SweepPlan,
    /// Tallies restored from journal checkpoints: the campaign resumes
    /// after this prefix instead of recomputing it. Empty for fresh jobs.
    resume: Tallies,
}

struct Inner {
    cfg: ServiceConfig,
    queue: BoundedPriorityQueue<WorkItem>,
    jobs: Mutex<HashMap<JobId, Arc<JobCore>>>,
    /// digest → in-flight (queued or running) core, for coalescing.
    active: Mutex<HashMap<String, Arc<JobCore>>>,
    /// One process-wide schedule cache shared by every job.
    schedule_cache: Mutex<ScheduleCache>,
    store: Mutex<ReportStore>,
    next_id: AtomicU64,
    shutting_down: AtomicBool,
    /// Set by [`ServiceHandle::begin_drain`]: the daemon is still serving
    /// reads (`status`/`result`/`stats`/`ping`) but accepts no new work
    /// and is checkpointing in-flight jobs for a bounded exit.
    draining: AtomicBool,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Always-enabled telemetry sink: the service's one counter registry.
    /// Every campaign's phase timings and engine counters, the job, cache,
    /// store and journal counters, the per-scheme trial counters and the
    /// queue-wait / run-latency histograms all land here, and `stats` and
    /// `metrics` both read it.
    telemetry: Telemetry,
    /// Opt-in NDJSON event log (see [`ServiceConfig::log_json`]).
    event_log: Option<EventLog>,
    /// Write-ahead job journal (see [`ServiceConfig::state_dir`]).
    journal: Option<Mutex<Journal>>,
}

/// The `retry_after_ms` hint attached to an overload rejection: the
/// median observed campaign run latency times the queue depth, divided
/// across the worker pool — a rough estimate of when a queue slot frees
/// up — clamped to a sane band. With no latency data yet (a cold daemon
/// slammed at startup), a fixed 100 ms placeholder applies.
fn overload_retry_hint_ms(inner: &Inner) -> u64 {
    let snapshot = inner.telemetry.snapshot();
    let p50_ms = snapshot
        .histograms
        .get("run_latency_ns")
        .and_then(|hist| hist.quantile(0.50))
        .map_or(100, |ns| ns / 1_000_000);
    let depth = inner.queue.len().max(1) as u64;
    let workers = inner.cfg.workers.max(1) as u64;
    p50_ms
        .max(1)
        .saturating_mul(depth)
        .div_ceil(workers)
        .clamp(10, 10_000)
}

/// The event-log trace id correlating every event of one job: the primary
/// job id plus the leading 8 hex chars of the plan digest.
fn trace_id(job: JobId, digest: &str) -> String {
    format!("job-{job}-{}", &digest[..digest.len().min(8)])
}

impl Inner {
    fn emit_event(&self, job: JobId, digest: &str, event: &str, fields: Vec<(String, Value)>) {
        if let Some(log) = &self.event_log {
            log.emit(event, &trace_id(job, digest), fields);
        }
    }

    /// Appends one record to the write-ahead journal (a no-op without a
    /// state dir). A failed append degrades durability, never service:
    /// the error is reported and the in-memory state machine proceeds.
    fn journal_append(&self, record: &JournalRecord) {
        if let Some(journal) = &self.journal {
            if let Err(err) = lock_unpoisoned(journal).append(record) {
                eprintln!("nvpim-serviced: journal append failed: {err}");
            }
        }
    }

    /// The checkpoint cadence jobs and shards run with.
    fn checkpoint_every(&self) -> Duration {
        Duration::from_millis(self.cfg.checkpoint_ms)
    }

    /// The execution backend campaigns run on: the configured test
    /// override, or [`SlicedBackend`].
    fn backend(&self) -> &'static dyn ExecutionBackend {
        self.cfg.execution_backend.unwrap_or(&SlicedBackend)
    }
}

/// Checks a plan (or shard) against the admission budget.
fn admit(inner: &Inner, trials: u64) -> Result<(), ServiceError> {
    let limit = inner.cfg.max_trials_per_job;
    if trials > limit {
        return Err(ServiceError::PlanTooLarge { trials, limit });
    }
    Ok(())
}

/// Cloneable handle to a running service (see module docs).
#[derive(Clone)]
pub struct ServiceHandle {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceHandle")
            .field("workers", &self.inner.cfg.workers)
            .field("queue_depth", &self.inner.queue.len())
            .finish()
    }
}

impl ServiceHandle {
    /// Starts a service: spawns the worker pool and returns the handle.
    ///
    /// With [`ServiceConfig::state_dir`] set, startup first replays the
    /// write-ahead journal: terminal jobs are restored as queryable
    /// records (completed reports re-verified out of the durable store),
    /// and in-flight jobs are re-queued with their checkpointed tallies so
    /// only un-checkpointed trials recompute.
    pub fn start(cfg: ServiceConfig) -> Self {
        let workers = cfg.workers.max(1);
        let event_log = cfg.log_json.as_deref().and_then(|path| {
            EventLog::create(path)
                .map_err(|e| eprintln!("nvpim-service: cannot open event log {path:?}: {e}"))
                .ok()
        });
        let telemetry = Telemetry::new();
        let (store, journal, replay) = match cfg.state_dir.as_deref() {
            None => (ReportStore::new(), None, None),
            Some(dir) => {
                let store = ReportStore::persistent(dir.join("reports")).unwrap_or_else(|err| {
                    eprintln!(
                        "nvpim-serviced: cannot open report store under {dir:?} \
                         ({err}); continuing without persistence"
                    );
                    ReportStore::new()
                });
                let journal_path = dir.join(journal::JOURNAL_FILE);
                let replay = journal::replay(&journal_path)
                    .map_err(|err| {
                        eprintln!("nvpim-serviced: journal replay failed: {err}");
                    })
                    .ok();
                let journal = Journal::open(&journal_path)
                    .map_err(|err| {
                        eprintln!(
                            "nvpim-serviced: cannot open journal {journal_path:?} \
                             ({err}); continuing without durability"
                        );
                    })
                    .ok()
                    .map(|journal| Mutex::new(journal.with_telemetry(telemetry.clone())));
                (store, journal, replay)
            }
        };
        let next_id = replay.as_ref().map_or(1, |r| r.next_id);
        let inner = Arc::new(Inner {
            queue: BoundedPriorityQueue::new(cfg.queue_capacity),
            cfg: ServiceConfig { workers, ..cfg },
            jobs: Mutex::new(HashMap::new()),
            active: Mutex::new(HashMap::new()),
            schedule_cache: Mutex::new(ScheduleCache::new()),
            store: Mutex::new(store.with_telemetry(telemetry.clone())),
            next_id: AtomicU64::new(next_id),
            shutting_down: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            workers: Mutex::new(Vec::new()),
            telemetry,
            event_log,
            journal,
        });
        if let Some(replay) = replay {
            restore_replayed_jobs(&inner, replay);
        }
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let inner2 = Arc::clone(&inner);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("nvpim-worker-{i}"))
                    .spawn(move || worker_loop(&inner2))
                    .expect("spawn worker thread"),
            );
        }
        *lock_unpoisoned(&inner.workers) = handles;
        Self { inner }
    }

    /// Submits a campaign plan at `priority` (0–9, higher runs first).
    ///
    /// Fast paths, in order: a content-addressed report-store hit returns a
    /// job that is already `Done` (zero recompute); an identical in-flight
    /// plan coalesces onto the running job. Otherwise the plan is queued.
    ///
    /// # Errors
    ///
    /// [`ServiceError::ShuttingDown`], [`ServiceError::InvalidPlan`],
    /// [`ServiceError::PlanTooLarge`] and — the backpressure signal —
    /// [`ServiceError::Overloaded`].
    pub fn submit(&self, plan: SweepPlan, priority: u8) -> Result<SubmitOutcome, ServiceError> {
        let inner = &self.inner;
        if inner.draining.load(Ordering::SeqCst) {
            return Err(ServiceError::ShuttingDown);
        }
        plan.validate().map_err(ServiceError::InvalidPlan)?;
        admit(inner, plan.trial_count())?;
        if plan.estimator != EstimatorMode::Exact {
            inner.telemetry.add(Counter::EstimatorJobs, 1);
        }
        if plan.kind == CampaignKind::Accuracy {
            inner.telemetry.add(Counter::AccuracyJobs, 1);
        }
        let digest = plan.content_digest();
        let trials_total = plan.trial_count();
        let id = inner.next_id.fetch_add(1, Ordering::SeqCst);

        // 1. Content-addressed report cache.
        if let Some(report) = lock_unpoisoned(&inner.store).get(&digest) {
            let core = JobCore::done_from_cache(id, digest.clone(), trials_total, report);
            let mut jobs = lock_unpoisoned(&inner.jobs);
            jobs.insert(id, core);
            evict_terminal_jobs(&mut jobs, inner.cfg.max_tracked_jobs, id);
            drop(jobs);
            inner.telemetry.add(Counter::JobsSubmitted, 1);
            inner.emit_event(
                id,
                &digest,
                "submitted",
                vec![
                    ("cached".to_string(), Value::Bool(true)),
                    ("trials_total".to_string(), Value::UInt(trials_total)),
                ],
            );
            return Ok(SubmitOutcome {
                job: id,
                digest,
                cached: true,
                coalesced: false,
                trials_total,
            });
        }

        // 2. Coalesce with an identical in-flight job, or queue a new one.
        // The coalesce check, in-flight registration AND the queue push all
        // happen under the `active` lock: a racing identical submitter can
        // therefore never attach to a job whose push is about to fail (it
        // would observe either no entry, or an entry that is durably
        // queued), and two racing submitters cannot both queue one digest.
        let core = {
            let mut active = lock_unpoisoned(&inner.active);
            // A terminal core can linger here (cancelled-while-queued jobs
            // stay registered until a worker pops their stale queue item);
            // coalescing onto it — or onto a running job whose cancellation
            // is already requested — would hand this client a cancellation
            // it never asked for, so only live, uncancelled cores coalesce.
            match active.get(&digest) {
                Some(existing)
                    if !existing.state().is_terminal() && !existing.cancel_requested() =>
                {
                    let existing = Arc::clone(existing);
                    let primary = existing.id;
                    lock_unpoisoned(&inner.jobs).insert(id, existing);
                    inner.telemetry.add(Counter::JobsSubmitted, 1);
                    inner.telemetry.add(Counter::JobsCoalesced, 1);
                    inner.emit_event(
                        id,
                        &digest,
                        "coalesced",
                        vec![("onto_job".to_string(), Value::UInt(primary))],
                    );
                    return Ok(SubmitOutcome {
                        job: id,
                        digest,
                        cached: false,
                        coalesced: true,
                        trials_total,
                    });
                }
                _ => {}
            }
            let core = JobCore::new(id, digest.clone(), trials_total);
            // Write-ahead: the submit record lands in the journal before
            // the item becomes poppable, so a worker's `start`/`chunk`
            // records can never precede it. Appending under the `active`
            // lock also serializes journal order across racing submitters.
            inner.journal_append(&JournalRecord::Submit {
                job: id,
                digest: digest.clone(),
                priority: u64::from(priority.min(9)),
                trials_total,
                plan_json: plan.canonical_json(),
            });
            let item = WorkItem {
                core: Arc::clone(&core),
                plan,
                resume: Tallies::new(),
            };
            // Backpressure on overflow. (Lock order is `active` → queue
            // mutex; workers only take `active` after `pop` has released
            // the queue mutex, so this cannot deadlock.)
            if inner.queue.try_push(item, priority.min(9)).is_err() {
                // Void the write-ahead record: without this, a replay
                // would resurrect a job the client was told to retry.
                inner.journal_append(&JournalRecord::Cancelled { job: id });
                drop(active);
                if inner.draining.load(Ordering::SeqCst) {
                    return Err(ServiceError::ShuttingDown);
                }
                // Only genuine backpressure counts as a rejection; a push
                // refused by an abandoned queue is a stop, not load-shed.
                inner.telemetry.add(Counter::JobsRejected, 1);
                return Err(ServiceError::Overloaded {
                    retry_after_ms: overload_retry_hint_ms(inner),
                });
            }
            // May replace a stale terminal entry (see above).
            active.insert(digest.clone(), Arc::clone(&core));
            core
        };

        let mut jobs = lock_unpoisoned(&inner.jobs);
        jobs.insert(id, core);
        evict_terminal_jobs(&mut jobs, inner.cfg.max_tracked_jobs, id);
        drop(jobs);
        inner.telemetry.add(Counter::JobsSubmitted, 1);
        inner.emit_event(
            id,
            &digest,
            "submitted",
            vec![
                ("cached".to_string(), Value::Bool(false)),
                ("trials_total".to_string(), Value::UInt(trials_total)),
                (
                    "queue_depth".to_string(),
                    Value::UInt(inner.queue.len() as u64),
                ),
            ],
        );
        Ok(SubmitOutcome {
            job: id,
            digest,
            cached: false,
            coalesced: false,
            trials_total,
        })
    }

    /// The shared core behind a job id.
    pub fn job(&self, job: JobId) -> Option<Arc<JobCore>> {
        lock_unpoisoned(&self.inner.jobs).get(&job).cloned()
    }

    /// A status snapshot for a job.
    pub fn status(&self, job: JobId) -> Result<JobStatus, ServiceError> {
        let core = self.job(job).ok_or(ServiceError::UnknownJob(job))?;
        let state = core.state();
        Ok(JobStatus {
            job,
            state: state.label().to_string(),
            percent: core.percent(),
            trials_done: core.trials_done(),
            trials_total: core.trials_total,
            trials_per_sec: core.trials_per_sec(),
            digest: core.digest.clone(),
            cached: core.from_cache,
            error: match state {
                JobState::Failed(e) => Some(e),
                _ => None,
            },
        })
    }

    /// The finished report JSON for a job, without waiting.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownJob`], [`ServiceError::NotDone`] while the
    /// job is queued/running, [`ServiceError::JobFailed`] /
    /// [`ServiceError::JobCancelled`] for terminal failures.
    pub fn result(&self, job: JobId) -> Result<Arc<String>, ServiceError> {
        let core = self.job(job).ok_or(ServiceError::UnknownJob(job))?;
        match core.state() {
            JobState::Done => Ok(core.report().expect("done jobs carry a report")),
            JobState::Failed(e) => Err(ServiceError::JobFailed(e)),
            JobState::Cancelled => Err(ServiceError::JobCancelled),
            JobState::Queued | JobState::Running => Err(ServiceError::NotDone),
        }
    }

    /// Blocks until a job finishes (or `timeout` elapses) and returns its
    /// report JSON.
    ///
    /// # Errors
    ///
    /// As [`Self::result`]; [`ServiceError::NotDone`] means the timeout
    /// elapsed first, and [`ServiceError::ShuttingDown`] that the service
    /// stopped with the job still in flight.
    pub fn wait(&self, job: JobId, timeout: Option<Duration>) -> Result<Arc<String>, ServiceError> {
        let core = self.job(job).ok_or(ServiceError::UnknownJob(job))?;
        if !core.wait_terminal(timeout).is_terminal() && self.is_shutting_down() {
            return Err(ServiceError::ShuttingDown);
        }
        self.result(job)
    }

    /// Requests cancellation of a job. Returns whether the request took
    /// effect (the job was not already terminal). Note that coalesced job
    /// ids share one campaign — cancelling any of them cancels it for all.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownJob`].
    pub fn cancel(&self, job: JobId) -> Result<bool, ServiceError> {
        let core = self.job(job).ok_or(ServiceError::UnknownJob(job))?;
        match core.request_cancel() {
            CancelOutcome::AlreadyTerminal => Ok(false),
            // Running jobs are counted by the worker that observes the
            // cancelled run; counting here too would double-count.
            CancelOutcome::RunningFlagged => Ok(true),
            CancelOutcome::CancelledWhileQueued => {
                self.inner.telemetry.add(Counter::JobsCancelled, 1);
                self.inner
                    .journal_append(&JournalRecord::Cancelled { job: core.id });
                Ok(true)
            }
        }
    }

    /// Aggregate counters, read from one telemetry snapshot plus the live
    /// queue and cache sizes.
    pub fn stats(&self) -> ServiceStats {
        let inner = &self.inner;
        let t = inner.telemetry.snapshot();
        let trials_executed = t.counter(Counter::ServiceTrialsExecuted);
        let busy_secs = t.counter(Counter::ServiceBusyNanos) as f64 / 1e9;
        let latency = |name: &str| {
            t.histograms
                .get(name)
                .and_then(LatencySummary::from_nanos_histogram)
        };
        ServiceStats {
            workers: inner.cfg.workers,
            trials_executed,
            trials_per_sec: if busy_secs > 0.0 {
                Some(trials_executed as f64 / busy_secs)
            } else {
                None
            },
            queue_capacity: inner.queue.capacity(),
            queue_depth: inner.queue.len(),
            jobs_submitted: t.counter(Counter::JobsSubmitted),
            jobs_completed: t.counter(Counter::JobsCompleted),
            jobs_failed: t.counter(Counter::JobsFailed),
            jobs_cancelled: t.counter(Counter::JobsCancelled),
            jobs_coalesced: t.counter(Counter::JobsCoalesced),
            jobs_rejected: t.counter(Counter::JobsRejected),
            recovered_jobs: t.counter(Counter::RecoveredJobs),
            resumed_chunks: t.counter(Counter::ResumedChunks),
            journal_records_replayed: t.counter(Counter::JournalRecordsReplayed),
            shards_executed: t.counter(Counter::ShardsExecuted),
            report_cache_entries: lock_unpoisoned(&inner.store).len(),
            report_cache_hits: t.counter(Counter::ReportCacheHits),
            report_cache_misses: t.counter(Counter::ReportCacheMisses),
            schedule_cache_entries: lock_unpoisoned(&inner.schedule_cache).len(),
            schedule_cache_hits: t.counter(Counter::ScheduleCacheHits),
            schedule_cache_compiles: t.counter(Counter::ScheduleCompiles),
            estimator_jobs: t.counter(Counter::EstimatorJobs),
            accuracy_jobs: t.counter(Counter::AccuracyJobs),
            accuracy_trials_evaluated: t.counter(Counter::AccuracyTrialsEvaluated),
            accuracy_trials_correct: t.counter(Counter::AccuracyTrialsCorrect),
            clean_settled_trials: t.counter(Counter::CleanSettledTrials),
            clean_settled_batches: t.counter(Counter::CleanSettledBatches),
            estimator_redraws: t.counter(Counter::EstimatorRedraws),
            queue_wait: latency("queue_wait_ns"),
            run_latency: latency("run_latency_ns"),
        }
    }

    /// The service's always-on telemetry sink: its one counter registry
    /// (phase timings, engine and service counters, per-scheme trial
    /// counters, latency histograms).
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// Renders the full metrics payload as Prometheus-style text
    /// exposition: every telemetry series, then the two live gauges
    /// (`nvpim_queue_depth`, `nvpim_report_cache_entries`). The `metrics`
    /// protocol command returns exactly this text.
    pub fn metrics_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = self.inner.telemetry.render_prometheus();
        for (name, help, value) in [
            (
                "queue_depth",
                "Jobs currently queued.",
                self.inner.queue.len(),
            ),
            (
                "report_cache_entries",
                "Distinct reports in the content-addressed store.",
                lock_unpoisoned(&self.inner.store).len(),
            ),
        ] {
            let _ = writeln!(out, "# HELP nvpim_{name} {help}");
            let _ = writeln!(out, "# TYPE nvpim_{name} gauge");
            let _ = writeln!(out, "nvpim_{name} {value}");
        }
        out
    }

    /// Runs one shard of a campaign synchronously on the calling thread
    /// (helped by the process-wide pool): trials `start .. end` of the
    /// plan's trial list, invoking `observer` with the tallies of each
    /// checkpoint, at most once per [`ServiceConfig::checkpoint_ms`] (the
    /// streaming seam `run_shard` connections checkpoint through), and
    /// returns the shard's tallies.
    ///
    /// Shards bypass the job queue — they are driven by a fleet
    /// coordinator that owns scheduling — but share the process-wide
    /// schedule cache, telemetry sink, backend override and trial
    /// accounting with queued jobs.
    ///
    /// # Errors
    ///
    /// [`ServiceError::ShuttingDown`] once a stop has begun,
    /// [`ServiceError::InvalidPlan`], [`ServiceError::PlanTooLarge`] for a
    /// range over the admission budget, [`ServiceError::BadShard`] for bad
    /// ranges, and [`ServiceError::JobCancelled`] when the observer cancels.
    pub fn run_shard(
        &self,
        plan: &SweepPlan,
        start: u64,
        end: u64,
        mut observer: impl FnMut(ChunkCheckpoint<'_>) -> CampaignControl,
    ) -> Result<Tallies, ServiceError> {
        let inner = &self.inner;
        if inner.draining.load(Ordering::SeqCst) {
            return Err(ServiceError::ShuttingDown);
        }
        plan.validate().map_err(ServiceError::InvalidPlan)?;
        admit(inner, end.saturating_sub(start))?;
        let prepared = {
            let mut cache = lock_unpoisoned(&inner.schedule_cache);
            prepare_campaign_with_telemetry(plan, &mut cache, inner.telemetry.clone())
                .map_err(ServiceError::InvalidPlan)?
        };
        let run_started = std::time::Instant::now();
        let result = prepared.run_shard(
            inner.backend(),
            start,
            end,
            inner.checkpoint_every(),
            |checkpoint| {
                inner.telemetry.add(Counter::ShardCheckpoints, 1);
                observer(checkpoint)
            },
        );
        inner.telemetry.add(
            Counter::ServiceBusyNanos,
            run_started.elapsed().as_nanos() as u64,
        );
        match result {
            Ok(tallies) => {
                inner
                    .telemetry
                    .add(Counter::ServiceTrialsExecuted, tallies.trials());
                inner.telemetry.add(Counter::ShardsExecuted, 1);
                Ok(tallies)
            }
            Err(SweepError::Cancelled) => Err(ServiceError::JobCancelled),
            Err(SweepError::BadCheckpoint(detail)) => Err(ServiceError::BadShard(detail)),
            Err(err) => Err(ServiceError::JobFailed(err.to_string())),
        }
    }

    /// Whether a stop has finished draining: the daemon stops serving.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutting_down.load(Ordering::SeqCst)
    }

    /// Whether a stop has begun: the service still answers reads but
    /// accepts no new work.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// Begins a stop: new submissions are rejected and the queue is
    /// abandoned. With a journal, queued jobs stay in flight there and
    /// running jobs stop at their next checkpoint *without* a terminal
    /// record, so a restart resumes them from that checkpoint. Without
    /// one nothing could resume them, so every in-flight job is
    /// cancelled and its waiters wake. Non-blocking; `ping` reports
    /// `draining: true` from here on, and the daemon keeps answering
    /// reads (status/result/ping) until the drain completes — a draining
    /// worker is unschedulable, not dead. `shutting_down` flips only when
    /// [`Self::shutdown`] finishes.
    pub fn begin_drain(&self) {
        let inner = &self.inner;
        inner.draining.store(true, Ordering::SeqCst);
        inner.queue.abandon();
        if inner.journal.is_none() {
            // Taken after `abandon`: a submission holds `active` across
            // its push and registration, so every job that got queued is
            // registered here by now.
            for core in lock_unpoisoned(&inner.active).values() {
                // Running jobs are counted by the worker that observes
                // the cancelled run.
                if core.request_cancel() == CancelOutcome::CancelledWhileQueued {
                    inner.telemetry.add(Counter::JobsCancelled, 1);
                }
            }
        }
    }

    /// Stops the service: [`Self::begin_drain`], then waits up to
    /// [`ServiceConfig::shutdown_grace_ms`] for the workers to checkpoint
    /// and exit. Returns `true` when every worker exited within the
    /// budget; `false` means at least one is wedged mid-task and is left
    /// detached (its last journaled checkpoint still makes restart-resume
    /// exact). Idempotent: a second call returns once the first is done.
    pub fn shutdown(&self) -> bool {
        self.begin_drain();
        let deadline =
            std::time::Instant::now() + Duration::from_millis(self.inner.cfg.shutdown_grace_ms);
        // Held for the whole wait, so a concurrent call cannot report the
        // stop finished while this one is still waiting.
        let mut workers = lock_unpoisoned(&self.inner.workers);
        let mut clean = true;
        for handle in workers.drain(..) {
            while !handle.is_finished() && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
            if handle.is_finished() {
                let _ = handle.join();
            } else {
                clean = false;
            }
        }
        // Drain complete (or budget spent): now the daemon stops serving,
        // and nothing waits for the jobs the drain left in flight.
        self.inner.shutting_down.store(true, Ordering::SeqCst);
        for core in lock_unpoisoned(&self.inner.jobs).values() {
            core.release_waiters();
        }
        clean
    }
}

/// Evicts the oldest terminal job records once the map exceeds `max`,
/// never touching `keep` (the id the current submission just handed to its
/// client — evicting it would turn an accepted submission into an
/// immediate `unknown_job`). Job ids are monotonically increasing, so
/// "oldest" is "smallest id".
fn evict_terminal_jobs(jobs: &mut HashMap<JobId, Arc<JobCore>>, max: usize, keep: JobId) {
    if jobs.len() <= max {
        return;
    }
    let mut terminal: Vec<JobId> = jobs
        .iter()
        .filter(|(&id, core)| id != keep && core.state().is_terminal())
        .map(|(&id, _)| id)
        .collect();
    terminal.sort_unstable();
    for id in terminal {
        if jobs.len() <= max {
            break;
        }
        jobs.remove(&id);
    }
}

/// Deregisters `core` from the in-flight map — but only if it is still the
/// registered core for its digest. A cancelled-while-queued job's stale
/// entry may have been replaced by a newer resubmission of the same plan;
/// blindly removing by digest would orphan that newer job's registration.
fn remove_from_active(inner: &Inner, core: &Arc<JobCore>) {
    let mut active = lock_unpoisoned(&inner.active);
    if let Some(current) = active.get(&core.digest) {
        if Arc::ptr_eq(current, core) {
            active.remove(&core.digest);
        }
    }
}

/// Credits one finished campaign's trials to the per-scheme labeled
/// telemetry series (visible in the `metrics` exposition as
/// `nvpim_trials_by_scheme{scheme="..."}`).
fn credit_labeled_trials(inner: &Inner, plan: &SweepPlan, trials: u64) {
    // Every protection design point runs the same share of the cartesian
    // product: workloads × technologies × rates × seeds.
    let per_scheme = trials / plan.protections.len().max(1) as u64;
    for prot in &plan.protections {
        inner.telemetry.add_labeled(
            "trials_by_scheme",
            "scheme",
            &prot.scheme.to_string(),
            per_scheme,
        );
    }
}

/// Applies a journal replay to a freshly constructed (not yet serving)
/// service: terminal jobs become queryable records, in-flight jobs
/// re-queue with their checkpointed tallies.
fn restore_replayed_jobs(inner: &Arc<Inner>, replay: journal::Replay) {
    inner
        .telemetry
        .add(Counter::JournalRecordsReplayed, replay.records_replayed);
    for job in replay.jobs {
        let id = job.id;
        let digest = job.digest.clone();
        let trials_done = job.tallies.trials();
        // A `done` record is only journaled after its report reached the
        // durable store, so a verified store hit restores the report; a
        // missing or corrupt store file demotes the job to an in-flight
        // resume (the recomputed report is byte-identical).
        let core = match &job.terminal {
            Some(ReplayedTerminal::Done) => match lock_unpoisoned(&inner.store).get(&digest) {
                Some(report) => JobCore::restored(
                    id,
                    digest.clone(),
                    job.trials_total,
                    JobState::Done,
                    Some(report),
                    job.trials_total,
                ),
                None => restore_in_flight(inner, &job),
            },
            Some(ReplayedTerminal::Failed(error)) => JobCore::restored(
                id,
                digest.clone(),
                job.trials_total,
                JobState::Failed(error.clone()),
                None,
                trials_done,
            ),
            Some(ReplayedTerminal::Cancelled) => JobCore::restored(
                id,
                digest.clone(),
                job.trials_total,
                JobState::Cancelled,
                None,
                trials_done,
            ),
            None => restore_in_flight(inner, &job),
        };
        let state = core.state().label().to_string();
        lock_unpoisoned(&inner.jobs).insert(id, core);
        inner.telemetry.add(Counter::RecoveredJobs, 1);
        inner.emit_event(
            id,
            &digest,
            "recovered",
            vec![
                ("state".to_string(), Value::Str(state)),
                ("trials_done".to_string(), Value::UInt(trials_done)),
            ],
        );
    }
}

/// Re-queues one replayed in-flight job, merging its checkpointed tallies
/// back in so only the un-checkpointed suffix recomputes. A job whose
/// journaled plan no longer decodes, validates or fits the admission
/// budget fails terminally instead: it is never re-queued, so one bad
/// record cannot crash-loop the daemon.
fn restore_in_flight(inner: &Arc<Inner>, job: &journal::ReplayedJob) -> Arc<JobCore> {
    let admitted = SweepPlan::from_json_str(&job.plan_json)
        .map_err(|err| format!("recovered job's journaled plan failed to decode: {err}"))
        .and_then(|plan| {
            plan.validate()
                .map_err(ServiceError::InvalidPlan)
                .and_then(|()| admit(inner, plan.trial_count()))
                .map(|()| plan)
                .map_err(|err| format!("recovered job's journaled plan was refused: {err}"))
        });
    let plan = match admitted {
        Ok(plan) => plan,
        Err(error) => {
            inner.journal_append(&JournalRecord::Failed {
                job: job.id,
                error: error.clone(),
            });
            return JobCore::restored(
                job.id,
                job.digest.clone(),
                job.trials_total,
                JobState::Failed(error),
                None,
                0,
            );
        }
    };
    let core = JobCore::new(job.id, job.digest.clone(), job.trials_total);
    core.note_progress(job.tallies.trials());
    // Re-seed the job's accuracy progress from the checkpointed prefix so
    // streamed progress stays cumulative across the restart (the service's
    // executed-work counters deliberately skip resumed tallies).
    let resumed = job.tallies.total();
    if resumed.evaluated_trials > 0 {
        core.note_accuracy(resumed.correct_trials, resumed.evaluated_trials);
    }
    let item = WorkItem {
        core: Arc::clone(&core),
        plan,
        resume: job.tallies.clone(),
    };
    if inner
        .queue
        .try_push(item, job.priority.min(9) as u8)
        .is_err()
    {
        fail_job(
            inner,
            &core,
            "recovered job could not re-queue (queue full at startup)".to_string(),
        );
        return core;
    }
    inner
        .telemetry
        .add(Counter::ResumedChunks, job.chunks_accepted);
    lock_unpoisoned(&inner.active).insert(job.digest.clone(), Arc::clone(&core));
    core
}

/// Best-effort text of a caught panic payload (`&str` and `String`
/// payloads cover `panic!` and `expect`; anything else is opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn worker_loop(inner: &Inner) {
    while let Some(item) = inner.queue.pop() {
        let core = Arc::clone(&item.core);
        if !core.set_running() {
            // Cancelled while queued (already counted by `cancel`).
            remove_from_active(inner, &core);
            continue;
        }
        inner.telemetry.record_histogram(
            "queue_wait_ns",
            core.submitted_at.elapsed().as_nanos() as u64,
        );
        inner.emit_event(
            core.id,
            &core.digest,
            "running",
            vec![("trials_total".to_string(), Value::UInt(core.trials_total))],
        );
        // A trial is a pure function of (point, campaign seed, trial
        // index), so a campaign that panicked would panic again: the job
        // fails on its one attempt and the worker survives.
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run_job(inner, item))) {
            let message = panic_message(payload.as_ref());
            fail_job(inner, &core, format!("campaign panicked: {message}"));
        }
        remove_from_active(inner, &core);
    }
}

/// Drives a job to the terminal `Failed` state: counts it, journals the
/// failure, logs the event, then wakes waiters. Counters and the journal
/// precede the (waiter-waking) state transition, so a client that
/// observed the failure also observes them.
fn fail_job(inner: &Inner, core: &JobCore, error: String) {
    inner.telemetry.add(Counter::JobsFailed, 1);
    inner.journal_append(&JournalRecord::Failed {
        job: core.id,
        error: error.clone(),
    });
    inner.emit_event(
        core.id,
        &core.digest,
        "failed",
        vec![("error".to_string(), Value::Str(error.clone()))],
    );
    core.fail(error);
}

/// Runs one job to its terminal state: prepare through the shared schedule
/// cache, run the trials after the resumed prefix as one shard of the
/// campaign (journaling every checkpoint) and aggregate the report. Runs
/// under `catch_unwind` in [`worker_loop`], which fails the job on a panic.
fn run_job(inner: &Inner, item: WorkItem) {
    let WorkItem {
        core,
        plan,
        resume: mut tallies,
    } = item;
    // Compile through the process-wide shared cache; the lock is held
    // only for preparation, never while trials run. The campaign runs
    // with the service-wide telemetry sink attached, so every phase
    // span and counter from the sweep engine lands in this service's
    // metrics.
    let prepared = {
        let mut cache = lock_unpoisoned(&inner.schedule_cache);
        prepare_campaign_with_telemetry(&plan, &mut cache, inner.telemetry.clone())
    };
    let prepared = match prepared {
        Ok(prepared) => prepared,
        Err(err) => return fail_job(inner, &core, err.to_string()),
    };
    let total = prepared.trial_count();
    // The resumed tallies must cover exactly the first `resumed_trials`
    // trials: the run below skips them, so tallies of any other trials
    // would aggregate into a wrong report.
    let resumed_trials = tallies.trials();
    if resumed_trials > total || !tallies.covers_range(0, resumed_trials, plan.seeds_per_point) {
        let err = SweepError::BadCheckpoint(format!(
            "checkpoint tallies {resumed_trials} trials that are not a prefix of the \
             campaign's {total} trials"
        ));
        return fail_job(inner, &core, err.to_string());
    }
    let run_started = std::time::Instant::now();
    let ran = prepared.run_shard(
        inner.backend(),
        resumed_trials,
        total,
        inner.checkpoint_every(),
        |chunk| {
            // Journal records and job progress count the whole campaign.
            let trials_done = resumed_trials + chunk.progress.trials_done;
            inner.telemetry.add(Counter::JobCheckpoints, 1);
            inner.journal_append(&JournalRecord::Chunk {
                job: core.id,
                trials_done,
                tallies: chunk.new_tallies.clone(),
            });
            core.note_progress(trials_done);
            let new = chunk.new_tallies.total();
            let (correct, evaluated) = (new.correct_trials, new.evaluated_trials);
            if evaluated > 0 {
                core.note_accuracy(correct, evaluated);
                inner.telemetry.add(Counter::AccuracyTrialsCorrect, correct);
                inner
                    .telemetry
                    .add(Counter::AccuracyTrialsEvaluated, evaluated);
            }
            inner.emit_event(
                core.id,
                &core.digest,
                "chunk",
                vec![
                    ("trials_done".to_string(), Value::UInt(trials_done)),
                    ("trials_total".to_string(), Value::UInt(core.trials_total)),
                ],
            );
            if core.cancel_requested() || inner.draining.load(Ordering::SeqCst) {
                CampaignControl::Cancel
            } else {
                CampaignControl::Continue
            }
        },
    );
    let outcome = ran.and_then(|shard| {
        tallies.merge(&shard);
        prepared.report_from_tallies(&tallies)
    });
    let run_nanos = run_started.elapsed().as_nanos() as u64;
    inner.telemetry.add(Counter::ServiceBusyNanos, run_nanos);
    inner
        .telemetry
        .record_histogram("run_latency_ns", run_nanos);
    inner.telemetry.add(
        Counter::ServiceTrialsExecuted,
        core.trials_done().saturating_sub(resumed_trials),
    );
    match outcome {
        Ok(report) => {
            let json = Arc::new(
                inner
                    .telemetry
                    .time(Phase::ReportSerialization, || report.to_json()),
            );
            // The store write (durable tier included) precedes the `done`
            // journal record, so replay can trust a `done` record to have
            // its report on disk.
            lock_unpoisoned(&inner.store).insert(core.digest.clone(), Arc::clone(&json));
            inner.telemetry.add(Counter::JobsCompleted, 1);
            credit_labeled_trials(inner, &plan, core.trials_total);
            inner.journal_append(&JournalRecord::Done { job: core.id });
            inner.emit_event(
                core.id,
                &core.digest,
                "done",
                vec![
                    ("trials_total".to_string(), Value::UInt(core.trials_total)),
                    ("run_nanos".to_string(), Value::UInt(run_nanos)),
                ],
            );
            core.complete(json);
        }
        Err(SweepError::Cancelled) => {
            if inner.draining.load(Ordering::SeqCst)
                && inner.journal.is_some()
                && !core.cancel_requested()
            {
                // Stopped by a drain, not a client: the job stays
                // *in-flight* in the journal (no terminal record), so a
                // restart over the same state dir resumes it from the
                // checkpoint this run just journaled. Without a
                // journal it is cancelled below.
                inner.emit_event(
                    core.id,
                    &core.digest,
                    "drained",
                    vec![("trials_done".to_string(), Value::UInt(core.trials_done()))],
                );
                return;
            }
            inner.telemetry.add(Counter::JobsCancelled, 1);
            inner.journal_append(&JournalRecord::Cancelled { job: core.id });
            inner.emit_event(
                core.id,
                &core.digest,
                "cancelled",
                vec![("trials_done".to_string(), Value::UInt(core.trials_done()))],
            );
            core.mark_cancelled();
        }
        Err(err) => fail_job(inner, &core, err.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvpim_sweep::ScalarBackend;

    fn tiny_plan(seed: u64) -> SweepPlan {
        let mut plan = SweepPlan::quick();
        plan.seeds_per_point = 2;
        plan.campaign_seed = seed;
        plan
    }

    #[test]
    fn estimator_submissions_are_counted_and_reported() {
        let service = ServiceHandle::start(ServiceConfig {
            workers: 1,
            ..Default::default()
        });
        let exact = tiny_plan(7);
        let first = service.submit(exact, 0).unwrap();
        service.wait(first.job, None).unwrap();
        assert_eq!(service.stats().estimator_jobs, 0);

        let mut stratified = tiny_plan(7);
        stratified.estimator = EstimatorMode::Stratified;
        let second = service.submit(stratified, 0).unwrap();
        assert!(
            !second.cached,
            "a stratified plan must not hit the exact plan's cached report"
        );
        let report = service.wait(second.job, None).unwrap();
        assert!(report.contains("\"schema_version\": 2"));
        assert!(report.contains("\"estimator\""));
        assert_eq!(service.stats().estimator_jobs, 1);
        service.shutdown();
    }

    #[test]
    fn resubmission_hits_the_report_cache_with_identical_bytes() {
        let service = ServiceHandle::start(ServiceConfig {
            workers: 1,
            ..Default::default()
        });
        let plan = tiny_plan(1);
        let plan_trials = plan.trial_count();
        let first = service.submit(plan.clone(), 0).unwrap();
        assert!(!first.cached);
        let report_a = service.wait(first.job, None).unwrap();

        let compiles_before = service.stats().schedule_cache_compiles;
        let second = service.submit(plan, 0).unwrap();
        assert!(second.cached, "warm resubmission must be a cache hit");
        let report_b = service.wait(second.job, None).unwrap();
        assert!(Arc::ptr_eq(&report_a, &report_b), "same stored bytes");

        let stats = service.stats();
        assert_eq!(stats.report_cache_hits, 1);
        assert_eq!(
            stats.schedule_cache_compiles, compiles_before,
            "cache hit must not recompile schedules"
        );
        // Throughput accounting: exactly one campaign executed (the cache
        // hit recomputed nothing).
        assert_eq!(stats.trials_executed, plan_trials);
        assert!(
            stats.trials_per_sec.unwrap_or(0.0) > 0.0,
            "a completed campaign must yield a positive trial rate"
        );
        let status = service.status(first.job).unwrap();
        assert!(
            status.trials_per_sec.unwrap_or(0.0) > 0.0,
            "a completed job must report its trial rate"
        );
        assert_eq!(
            service.status(second.job).unwrap().trials_per_sec,
            None,
            "a cache-served job never ran, so it has no rate"
        );
        service.shutdown();
    }

    #[test]
    fn concurrent_identical_submissions_coalesce_and_agree() {
        let service = ServiceHandle::start(ServiceConfig {
            workers: 2,
            ..Default::default()
        });
        let plan = tiny_plan(2);
        let outcomes: Vec<SubmitOutcome> = (0..4)
            .map(|_| service.submit(plan.clone(), 0).unwrap())
            .collect();
        let reports: Vec<Arc<String>> = outcomes
            .iter()
            .map(|o| service.wait(o.job, None).unwrap())
            .collect();
        for pair in reports.windows(2) {
            assert_eq!(pair[0].as_str(), pair[1].as_str());
        }
        let stats = service.stats();
        // First submission queued; with one campaign in flight the others
        // either coalesced onto it or (having completed) hit the store.
        assert_eq!(stats.jobs_submitted, 4);
        assert_eq!(
            stats.jobs_coalesced + stats.report_cache_hits,
            3,
            "identical concurrent plans must not run extra campaigns: {stats:?}"
        );
        service.shutdown();
    }

    #[test]
    fn queue_backpressure_rejects_structurally() {
        let service = ServiceHandle::start(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            ..Default::default()
        });
        // Distinct digests so nothing coalesces: vary the seed.
        let mut errors = 0;
        for seed in 0..16u64 {
            match service.submit(tiny_plan(1000 + seed), 0) {
                Ok(_) => {}
                Err(ServiceError::Overloaded { retry_after_ms }) => {
                    errors += 1;
                    assert!(
                        (10..=10_000).contains(&retry_after_ms),
                        "retry hint {retry_after_ms} ms outside the clamp band"
                    );
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(errors > 0, "a 1-deep queue must shed load");
        assert_eq!(service.stats().jobs_rejected, errors);
        service.shutdown();
    }

    #[test]
    fn run_shard_slices_match_a_full_campaign() {
        let service = ServiceHandle::start(ServiceConfig {
            workers: 1,
            ..Default::default()
        });
        let plan = tiny_plan(60);
        let total = plan.trial_count();
        // Whole-campaign shard through the service == direct engine run.
        let mut streamed = Tallies::new();
        let tallies = service
            .run_shard(&plan, 0, total, |cp| {
                streamed.merge(cp.new_tallies);
                CampaignControl::Continue
            })
            .unwrap();
        assert_eq!(tallies, streamed);
        let mut cache = ScheduleCache::new();
        let report = nvpim_sweep::prepare_campaign(&plan, &mut cache)
            .unwrap()
            .report_from_tallies(&tallies)
            .unwrap();
        assert_eq!(
            report.to_json(),
            nvpim_sweep::run_campaign(&plan).unwrap().to_json()
        );
        let stats = service.stats();
        assert_eq!(stats.shards_executed, 1);
        assert_eq!(stats.trials_executed, total);
        // Bad ranges are structured errors, not panics.
        assert!(matches!(
            service.run_shard(&plan, 3, 2, |_| CampaignControl::Continue),
            Err(ServiceError::BadShard(_))
        ));
        service.shutdown();
        assert!(matches!(
            service.run_shard(&plan, 0, total, |_| CampaignControl::Continue),
            Err(ServiceError::ShuttingDown)
        ));
    }

    #[test]
    fn drain_abandons_queued_jobs_and_checkpoints_running_ones() {
        let dir = std::env::temp_dir().join(format!("nvpim-drain-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServiceConfig {
            workers: 1,
            // One-trial tasks and a checkpoint per prefix advance: fine-
            // grained drain points.
            checkpoint_ms: 0,
            execution_backend: Some(&ScalarBackend),
            state_dir: Some(dir.clone()),
            ..Default::default()
        };
        let service = ServiceHandle::start(cfg.clone());
        let mut running = tiny_plan(70);
        running.seeds_per_point = 64; // long enough to drain mid-run
        let active = service.submit(running.clone(), 9).unwrap();
        let queued_plan = tiny_plan(71);
        let queued = service.submit(queued_plan.clone(), 0).unwrap();
        while service.status(active.job).unwrap().state == "queued" {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(service.shutdown());
        assert!(service.is_draining());
        // Neither job was journaled terminal: both are still in flight.
        assert_eq!(service.status(queued.job).unwrap().state, "queued");
        assert!(matches!(
            service.submit(tiny_plan(72), 0),
            Err(ServiceError::ShuttingDown)
        ));

        // A restart over the same state dir resumes both jobs — the
        // running one past its checkpointed chunks — and their reports
        // match clean runs byte-for-byte.
        let service2 = ServiceHandle::start(cfg);
        let recovered_running = service2
            .wait(active.job, Some(Duration::from_secs(60)))
            .unwrap();
        let recovered_queued = service2
            .wait(queued.job, Some(Duration::from_secs(60)))
            .unwrap();
        assert_eq!(
            *recovered_running,
            nvpim_sweep::run_campaign(&running).unwrap().to_json()
        );
        assert_eq!(
            *recovered_queued,
            nvpim_sweep::run_campaign(&queued_plan).unwrap().to_json()
        );
        let stats = service2.stats();
        assert_eq!(stats.recovered_jobs, 2);
        assert!(
            stats.resumed_chunks > 0,
            "the drained running job must resume from its checkpoint: {stats:?}"
        );
        service2.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_tallies_that_are_not_a_prefix() {
        let dir = std::env::temp_dir().join(format!("nvpim-bad-prefix-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = tiny_plan(90);
        let spp = plan.seeds_per_point;
        // Four trials straddling point boundaries: as many trials as the
        // prefix 0..4, but trials 1..5, split across three points.
        let mut cache = ScheduleCache::new();
        let straddle = nvpim_sweep::prepare_campaign(&plan, &mut cache)
            .unwrap()
            .run_shard(
                &nvpim_sweep::SlicedBackend,
                spp - 1,
                spp + 3,
                Duration::ZERO,
                |_| CampaignControl::Continue,
            )
            .unwrap();
        assert_eq!(straddle.trials(), 4);
        {
            let mut journal = journal::Journal::open(dir.join(journal::JOURNAL_FILE)).unwrap();
            for record in [
                JournalRecord::Submit {
                    job: 1,
                    digest: plan.content_digest(),
                    priority: 0,
                    trials_total: plan.trial_count(),
                    plan_json: plan.canonical_json(),
                },
                JournalRecord::Chunk {
                    job: 1,
                    trials_done: 4,
                    tallies: straddle,
                },
            ] {
                journal.append(&record).unwrap();
            }
        }
        let service = ServiceHandle::start(ServiceConfig {
            workers: 1,
            state_dir: Some(dir.clone()),
            ..Default::default()
        });
        let err = service
            .wait(1, Some(Duration::from_secs(60)))
            .expect_err("a checkpoint that is not a prefix must fail the job");
        let ServiceError::JobFailed(message) = err else {
            panic!("unexpected error {err:?}");
        };
        assert!(
            message.starts_with("invalid resume checkpoint — "),
            "{message}"
        );
        assert_eq!(service.stats().trials_executed, 0, "no trial ran");
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn waiters_on_jobs_a_journaled_stop_leaves_in_flight_wake() {
        let dir = std::env::temp_dir().join(format!("nvpim-drain-wait-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = ServiceHandle::start(ServiceConfig {
            workers: 1,
            checkpoint_ms: 0,
            execution_backend: Some(&ScalarBackend),
            state_dir: Some(dir.clone()),
            ..Default::default()
        });
        let mut running = tiny_plan(80);
        running.seeds_per_point = 64;
        let active = service.submit(running, 9).unwrap();
        let queued = service.submit(tiny_plan(81), 0).unwrap();
        while service.status(active.job).unwrap().state == "queued" {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(service.shutdown());
        // Wait on detached threads, so a waiter that never wakes fails the
        // test at the timeout instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        for job in [active.job, queued.job] {
            let (service, tx) = (service.clone(), tx.clone());
            std::thread::spawn(move || {
                let _ = tx.send((job, service.wait(job, None)));
            });
        }
        for _ in 0..2 {
            let (job, result) = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("wait on a job left in flight by the stop must return");
            assert!(
                matches!(result, Err(ServiceError::ShuttingDown)),
                "job {job}: {result:?}"
            );
        }
        // The jobs themselves stay in flight, to resume on restart.
        assert_eq!(service.status(queued.job).unwrap().state, "queued");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn priorities_order_queued_work() {
        // One worker, and the queue drains strictly by priority once the
        // worker picks jobs up.
        let service = ServiceHandle::start(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            ..Default::default()
        });
        let low = service.submit(tiny_plan(10), 1).unwrap();
        let high = service.submit(tiny_plan(11), 9).unwrap();
        service.wait(low.job, None).unwrap();
        service.wait(high.job, None).unwrap();
        let stats = service.stats();
        assert_eq!(stats.jobs_completed, 2);
        service.shutdown();
    }

    #[test]
    fn mid_job_cancel_stops_at_a_chunk_boundary() {
        let service = ServiceHandle::start(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            // One-trial tasks and a checkpoint per prefix advance: fine-
            // grained cancellation points.
            checkpoint_ms: 0,
            execution_backend: Some(&ScalarBackend),
            ..Default::default()
        });
        let mut plan = tiny_plan(20);
        plan.seeds_per_point = 640; // long enough to catch mid-run
        let out = service.submit(plan, 0).unwrap();
        // Wait for it to start, then cancel.
        while service.status(out.job).unwrap().state == "queued" {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(service.cancel(out.job).unwrap());
        let err = service
            .wait(out.job, Some(Duration::from_secs(30)))
            .unwrap_err();
        assert!(matches!(err, ServiceError::JobCancelled));
        // The pool survives: a fresh job still runs to completion.
        let ok = service.submit(tiny_plan(21), 0).unwrap();
        service.wait(ok.job, None).unwrap();
        assert_eq!(service.stats().jobs_cancelled, 1);
        service.shutdown();
    }

    #[test]
    fn resubmitting_a_cancelled_queued_plan_runs_a_fresh_campaign() {
        // One worker, kept busy by a long job so the next job sits queued.
        let service = ServiceHandle::start(ServiceConfig {
            workers: 1,
            queue_capacity: 8,
            ..Default::default()
        });
        let mut long = tiny_plan(50);
        long.seeds_per_point = 64;
        let blocker = service.submit(long, 9).unwrap();

        let victim = service.submit(tiny_plan(51), 0).unwrap();
        assert!(service.cancel(victim.job).unwrap());
        assert!(matches!(
            service.wait(victim.job, Some(Duration::from_secs(30))),
            Err(ServiceError::JobCancelled)
        ));

        // The identical plan resubmitted must NOT coalesce onto the
        // cancelled core — it gets a fresh campaign and completes.
        let retry = service.submit(tiny_plan(51), 0).unwrap();
        assert!(!retry.cached && !retry.coalesced);
        assert!(service.wait(retry.job, None).is_ok());
        service.wait(blocker.job, None).unwrap();
        service.shutdown();
    }

    #[test]
    fn terminal_job_records_are_evicted_beyond_the_cap() {
        let service = ServiceHandle::start(ServiceConfig {
            workers: 1,
            max_tracked_jobs: 3,
            ..Default::default()
        });
        // One real campaign, then repeated cached submissions of it: every
        // submission adds a (terminal-at-birth) job record.
        let plan = tiny_plan(40);
        let first = service.submit(plan.clone(), 0).unwrap();
        service.wait(first.job, None).unwrap();
        let mut last = 0;
        for _ in 0..8 {
            last = service.submit(plan.clone(), 0).unwrap().job;
        }
        // The oldest records are gone, the newest survives, and the report
        // itself is still served from the content-addressed store.
        assert!(matches!(
            service.result(first.job),
            Err(ServiceError::UnknownJob(_))
        ));
        assert!(service.result(last).is_ok());
        assert!(service.submit(plan, 0).unwrap().cached);
        service.shutdown();
    }

    #[test]
    fn shutdown_drains_and_rejects_new_work() {
        let service = ServiceHandle::start(ServiceConfig {
            workers: 2,
            checkpoint_ms: 0,
            execution_backend: Some(&ScalarBackend),
            ..Default::default()
        });
        let mut long = tiny_plan(30);
        long.seeds_per_point = 640;
        let out = service.submit(long, 0).unwrap();
        assert!(service.shutdown());
        assert!(service.is_draining() && service.is_shutting_down());
        // No state dir: the drained job cannot resume, so it is cancelled
        // instead of run to completion.
        assert!(matches!(
            service.result(out.job),
            Err(ServiceError::JobCancelled)
        ));
        assert!(matches!(
            service.submit(tiny_plan(31), 0),
            Err(ServiceError::ShuttingDown)
        ));
        // A second stop is a no-op.
        assert!(service.shutdown());
    }

    #[test]
    fn memory_only_shutdown_cancels_running_and_queued_jobs_and_wakes_waiters() {
        let service = ServiceHandle::start(ServiceConfig {
            workers: 1,
            checkpoint_ms: 0,
            execution_backend: Some(&ScalarBackend),
            ..Default::default()
        });
        let mut long = tiny_plan(32);
        long.seeds_per_point = 640;
        let running = service.submit(long, 9).unwrap().job;
        let queued = service.submit(tiny_plan(33), 0).unwrap().job;
        while service.status(running).unwrap().state == "queued" {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(service.status(queued).unwrap().state, "queued");
        let waiters: Vec<_> = [running, queued]
            .into_iter()
            .map(|job| {
                let service = service.clone();
                std::thread::spawn(move || service.wait(job, Some(Duration::from_secs(30))))
            })
            .collect();

        let started = std::time::Instant::now();
        assert!(service.shutdown(), "the running job reached a checkpoint");
        assert!(started.elapsed() < Duration::from_millis(DEFAULT_SHUTDOWN_GRACE_MS));
        for waiter in waiters {
            assert!(matches!(
                waiter.join().unwrap(),
                Err(ServiceError::JobCancelled)
            ));
        }
        assert_eq!(service.stats().jobs_cancelled, 2);
    }
}
