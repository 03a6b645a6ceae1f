//! Job lifecycle tracking.
//!
//! Every submission gets a [`JobId`]; the id maps to a shared [`JobCore`]
//! holding the job's state machine, progress counters and (eventually) its
//! report. Identical in-flight plans are *coalesced*: several job ids can
//! point at one core, so N clients submitting the same plan concurrently
//! cost one campaign and all observe the same completion.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Identifier handed back to a client for one submission.
pub type JobId = u64;

/// The lifecycle state of a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and waiting in the priority queue.
    Queued,
    /// A worker is running the campaign.
    Running,
    /// Finished; the report is available.
    Done,
    /// The campaign could not run (carries the error description).
    Failed(String),
    /// Cancelled before completion.
    Cancelled,
}

impl JobState {
    /// Stable lowercase label used on the wire.
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed(_) => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the state is final (no further transitions).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed(_) | JobState::Cancelled
        )
    }
}

/// What a cancellation request achieved. The state transition happens
/// under the job lock exactly once, so whoever observes
/// [`CancelledWhileQueued`](Self::CancelledWhileQueued) is the unique
/// party that performed it — which is what lets the service count each
/// cancellation exactly once (running jobs are counted by the worker when
/// `run_shard` reports `Cancelled`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job had already finished; nothing to cancel.
    AlreadyTerminal,
    /// The job is running; the flag is set and the worker will stop at its
    /// next checkpoint.
    RunningFlagged,
    /// The job was still queued and this call transitioned it to
    /// `Cancelled`.
    CancelledWhileQueued,
}

struct Slot {
    state: JobState,
    report: Option<Arc<String>>,
    /// When the worker started running the campaign.
    run_started: Option<Instant>,
    /// Total run duration, frozen at the terminal transition (so the
    /// reported rate stops decaying once the job is done).
    run_elapsed: Option<Duration>,
    /// Set when the service stopped with the job still in flight: waiters
    /// wake without a terminal state.
    stopped: bool,
}

/// Shared state of one campaign execution (possibly serving several
/// coalesced job ids).
pub struct JobCore {
    /// The primary (first-submitted) job id for this campaign.
    pub id: JobId,
    /// Content digest of the plan.
    pub digest: String,
    /// Total trials the campaign runs.
    pub trials_total: u64,
    /// Whether the job completed at submit time from the report store.
    pub from_cache: bool,
    /// When the submission was accepted — the anchor for queue-wait
    /// latency accounting.
    pub submitted_at: Instant,
    trials_done: AtomicU64,
    /// Accuracy-campaign progress: trials whose inference matched the
    /// clean model so far (zero for error campaigns).
    correct_trials: AtomicU64,
    /// Accuracy-campaign progress: trials that produced a prediction so
    /// far (zero for error campaigns, which carry no accuracy data).
    evaluated_trials: AtomicU64,
    cancel: AtomicBool,
    slot: Mutex<Slot>,
    terminal: Condvar,
}

impl std::fmt::Debug for JobCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobCore")
            .field("id", &self.id)
            .field("digest", &self.digest)
            .field("state", &self.state().label())
            .finish()
    }
}

impl JobCore {
    /// Locks the slot, recovering from poison: a panicking worker (now
    /// contained by `catch_unwind`) may have poisoned the mutex, but the
    /// slot's invariants hold at every unlock point, and a poisoned job
    /// must stay observable — and failable — rather than wedging every
    /// status query behind a propagated panic.
    fn lock_slot(&self) -> std::sync::MutexGuard<'_, Slot> {
        self.slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A freshly queued job.
    pub fn new(id: JobId, digest: String, trials_total: u64) -> Arc<Self> {
        Arc::new(Self {
            id,
            digest,
            trials_total,
            from_cache: false,
            submitted_at: Instant::now(),
            trials_done: AtomicU64::new(0),
            correct_trials: AtomicU64::new(0),
            evaluated_trials: AtomicU64::new(0),
            cancel: AtomicBool::new(false),
            slot: Mutex::new(Slot {
                state: JobState::Queued,
                report: None,
                run_started: None,
                run_elapsed: None,
                stopped: false,
            }),
            terminal: Condvar::new(),
        })
    }

    /// A job reconstructed from the durable journal at daemon startup.
    /// `state` is the recovered terminal state (with, for `Done`, the
    /// report restored from the durable store); `trials_done` reflects the
    /// journal's last accepted checkpoint.
    pub fn restored(
        id: JobId,
        digest: String,
        trials_total: u64,
        state: JobState,
        report: Option<Arc<String>>,
        trials_done: u64,
    ) -> Arc<Self> {
        Arc::new(Self {
            id,
            digest,
            trials_total,
            from_cache: false,
            submitted_at: Instant::now(),
            trials_done: AtomicU64::new(trials_done),
            correct_trials: AtomicU64::new(0),
            evaluated_trials: AtomicU64::new(0),
            cancel: AtomicBool::new(false),
            slot: Mutex::new(Slot {
                state,
                report,
                run_started: None,
                run_elapsed: None,
                stopped: false,
            }),
            terminal: Condvar::new(),
        })
    }

    /// A job born `Done` because the report store already had its plan's
    /// report (a content-address hit).
    pub fn done_from_cache(
        id: JobId,
        digest: String,
        trials_total: u64,
        report: Arc<String>,
    ) -> Arc<Self> {
        Arc::new(Self {
            id,
            digest,
            trials_total,
            from_cache: true,
            submitted_at: Instant::now(),
            trials_done: AtomicU64::new(trials_total),
            correct_trials: AtomicU64::new(0),
            evaluated_trials: AtomicU64::new(0),
            cancel: AtomicBool::new(false),
            slot: Mutex::new(Slot {
                state: JobState::Done,
                report: Some(report),
                run_started: None,
                run_elapsed: None,
                stopped: false,
            }),
            terminal: Condvar::new(),
        })
    }

    /// Current state snapshot.
    pub fn state(&self) -> JobState {
        self.lock_slot().state.clone()
    }

    /// The finished report, when state is `Done`.
    pub fn report(&self) -> Option<Arc<String>> {
        self.lock_slot().report.clone()
    }

    /// Trials completed so far.
    pub fn trials_done(&self) -> u64 {
        self.trials_done.load(Ordering::Relaxed)
    }

    /// Completion percentage in `[0, 100]`.
    pub fn percent(&self) -> f64 {
        if self.trials_total == 0 {
            100.0
        } else {
            100.0 * self.trials_done() as f64 / self.trials_total as f64
        }
    }

    /// The campaign's observed trial throughput: completed trials divided
    /// by running wall time so far (frozen at the value reached when the
    /// job went terminal, so a finished job's rate never decays). `None`
    /// for jobs that never ran — still queued, cancelled while queued, or
    /// served instantly from the report cache — distinguishing "no
    /// throughput data" from a measured rate of zero.
    pub fn trials_per_sec(&self) -> Option<f64> {
        let slot = self.lock_slot();
        let secs = match (slot.run_elapsed, slot.run_started) {
            (Some(elapsed), _) => elapsed.as_secs_f64(),
            (None, Some(started)) => started.elapsed().as_secs_f64(),
            (None, None) => return None,
        };
        if secs <= 0.0 {
            None
        } else {
            Some(self.trials_done() as f64 / secs)
        }
    }

    /// Records cumulative progress (called by the running worker at each
    /// checkpoint).
    pub(crate) fn note_progress(&self, trials_done: u64) {
        self.trials_done.store(trials_done, Ordering::Relaxed);
    }

    /// Accumulates accuracy-campaign progress (called by the running
    /// worker at each checkpoint with its newly evaluated trials, and
    /// at recovery with the checkpointed prefix).
    pub(crate) fn note_accuracy(&self, correct: u64, evaluated: u64) {
        self.correct_trials.fetch_add(correct, Ordering::Relaxed);
        self.evaluated_trials
            .fetch_add(evaluated, Ordering::Relaxed);
    }

    /// Accuracy progress so far as `(correct, evaluated)`, or `None` when
    /// no trial has produced a prediction (error campaigns never do).
    pub fn accuracy_progress(&self) -> Option<(u64, u64)> {
        let evaluated = self.evaluated_trials.load(Ordering::Relaxed);
        (evaluated > 0).then(|| (self.correct_trials.load(Ordering::Relaxed), evaluated))
    }

    /// Requests cancellation. A queued job transitions to `Cancelled`
    /// immediately; a running one stops at its next checkpoint.
    ///
    /// Note: a `JobCore` may serve several coalesced job ids — cancelling
    /// any one of them cancels the shared campaign for all of them.
    pub fn request_cancel(&self) -> CancelOutcome {
        let mut slot = self.lock_slot();
        if slot.state.is_terminal() {
            return CancelOutcome::AlreadyTerminal;
        }
        self.cancel.store(true, Ordering::SeqCst);
        if slot.state == JobState::Queued {
            slot.state = JobState::Cancelled;
            drop(slot);
            self.terminal.notify_all();
            CancelOutcome::CancelledWhileQueued
        } else {
            CancelOutcome::RunningFlagged
        }
    }

    /// Whether cancellation was requested.
    pub fn cancel_requested(&self) -> bool {
        self.cancel.load(Ordering::SeqCst)
    }

    /// Transitions `Queued → Running`; returns `false` when the job was
    /// cancelled while queued (the worker must skip it).
    pub(crate) fn set_running(&self) -> bool {
        let mut slot = self.lock_slot();
        if slot.state != JobState::Queued {
            return false;
        }
        slot.state = JobState::Running;
        slot.run_started = Some(Instant::now());
        true
    }

    fn finish(&self, state: JobState, report: Option<Arc<String>>) {
        let mut slot = self.lock_slot();
        if slot.state.is_terminal() {
            return;
        }
        slot.state = state;
        slot.report = report;
        slot.run_elapsed = slot.run_started.map(|started| started.elapsed());
        drop(slot);
        self.terminal.notify_all();
    }

    /// Wakes every waiter for good: the service has stopped, and the job
    /// stays queued or running (a journaled job resumes on restart).
    pub(crate) fn release_waiters(&self) {
        self.lock_slot().stopped = true;
        self.terminal.notify_all();
    }

    /// Transitions to `Done` with the finished report.
    pub(crate) fn complete(&self, report: Arc<String>) {
        self.trials_done.store(self.trials_total, Ordering::Relaxed);
        self.finish(JobState::Done, Some(report));
    }

    /// Transitions to `Failed`.
    pub(crate) fn fail(&self, error: String) {
        self.finish(JobState::Failed(error), None);
    }

    /// Transitions to `Cancelled`.
    pub(crate) fn mark_cancelled(&self) {
        self.finish(JobState::Cancelled, None);
    }

    /// Blocks until the job reaches a terminal state, the service stops
    /// with the job in flight (see [`Self::release_waiters`]) or the
    /// timeout elapses, returning the state observed last.
    pub fn wait_terminal(&self, timeout: Option<Duration>) -> JobState {
        // `checked_add` guards against client-supplied huge timeouts
        // (u64::MAX ms would overflow `Instant` addition and panic); an
        // unrepresentable deadline simply waits without one.
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        let mut slot = self.lock_slot();
        while !slot.state.is_terminal() && !slot.stopped {
            match deadline {
                None => {
                    slot = self
                        .terminal
                        .wait(slot)
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                }
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let (next, timed_out) = self
                        .terminal
                        .wait_timeout(slot, deadline - now)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    slot = next;
                    if timed_out.timed_out() && !slot.state.is_terminal() {
                        break;
                    }
                }
            }
        }
        slot.state.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queued_jobs_cancel_immediately() {
        let core = JobCore::new(1, "d".into(), 10);
        assert_eq!(core.state(), JobState::Queued);
        assert_eq!(core.request_cancel(), CancelOutcome::CancelledWhileQueued);
        assert_eq!(core.state(), JobState::Cancelled);
        assert_eq!(
            core.request_cancel(),
            CancelOutcome::AlreadyTerminal,
            "already terminal"
        );
        assert!(!core.set_running(), "worker must skip cancelled jobs");
    }

    #[test]
    fn running_jobs_only_get_flagged() {
        let core = JobCore::new(4, "d".into(), 10);
        assert!(core.set_running());
        assert_eq!(core.request_cancel(), CancelOutcome::RunningFlagged);
        assert_eq!(
            core.state(),
            JobState::Running,
            "worker owns the transition"
        );
        assert!(core.cancel_requested());
    }

    #[test]
    fn huge_timeouts_do_not_panic() {
        let core = JobCore::new(5, "d".into(), 10);
        core.complete(Arc::new("{}".into()));
        let state = core.wait_terminal(Some(Duration::from_millis(u64::MAX)));
        assert_eq!(state, JobState::Done);
    }

    #[test]
    fn completion_wakes_waiters_and_pins_progress() {
        let core = JobCore::new(2, "d".into(), 8);
        assert!(core.set_running());
        core.note_progress(4);
        assert_eq!(core.percent(), 50.0);
        let waiter = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || core.wait_terminal(None))
        };
        std::thread::sleep(Duration::from_millis(20));
        core.complete(Arc::new("{}".into()));
        assert_eq!(waiter.join().unwrap(), JobState::Done);
        assert_eq!(core.percent(), 100.0);
        assert!(core.report().is_some());
    }

    #[test]
    fn wait_times_out_on_stuck_jobs() {
        let core = JobCore::new(3, "d".into(), 8);
        let state = core.wait_terminal(Some(Duration::from_millis(30)));
        assert_eq!(state, JobState::Queued);
    }
}
