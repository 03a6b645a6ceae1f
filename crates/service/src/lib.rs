//! # nvpim-service
//!
//! A concurrent campaign server over the `nvpim-sweep` Monte Carlo engine:
//! the one-shot `run_campaign` path becomes a long-running daemon that
//! amortizes compilation and caches whole reports across many concurrent
//! campaign submissions.
//!
//! * [`service::ServiceHandle`] — the in-process API: a bounded **priority
//!   job queue** with backpressure, a **worker pool** sharing one
//!   process-wide [`nvpim_sweep::ScheduleCache`], and a
//!   **content-addressed report store** ([`store::ReportStore`]) keyed by
//!   the plan's canonical-JSON SHA-256 — resubmitting an identical plan
//!   returns byte-identical report JSON with zero recompute, and identical
//!   *in-flight* plans coalesce onto one campaign.
//! * [`protocol`] — the newline-delimited JSON wire protocol (`submit`,
//!   `status`, `result`, `cancel`, `stats`, `metrics`, `ping`,
//!   `run_shard`, `shutdown`) with structured errors and streamed
//!   per-chunk progress events.
//! * [`server`] — the TCP front end behind the `nvpim-serviced` binary.
//! * [`client`] — the blocking client used by `nvpim-cli` and the tests.
//! * [`coordinator`] — the fleet layer behind `nvpim-cli run --fleet`:
//!   shards one campaign's trial grid across several daemons,
//!   health-checks them over the protocol, and re-assigns shards away
//!   from dead, stalled, or draining workers without recomputing their
//!   checkpointed chunks. Checkpoints everywhere — journal records, shard
//!   streams, the fleet merge — are mergeable per-point tallies
//!   ([`nvpim_sweep::Tallies`]), never per-trial outcomes. See
//!   `docs/robustness.md`.
//!
//! The implementation is std-only (threads + channels/condvars, no async
//! runtime): the build environment is offline and the workspace's external
//! dependencies are local stubs.
//!
//! # Examples
//!
//! ```
//! use nvpim_service::service::{ServiceConfig, ServiceHandle};
//! use nvpim_sweep::SweepPlan;
//!
//! let service = ServiceHandle::start(ServiceConfig::default());
//! let mut plan = SweepPlan::quick();
//! plan.seeds_per_point = 2;
//! let submitted = service.submit(plan.clone(), 5).expect("queue has room");
//! let report = service.wait(submitted.job, None).expect("campaign runs");
//! // An identical resubmission is a content-address hit: same bytes, no work.
//! let again = service.submit(plan, 5).expect("queue has room");
//! assert!(again.cached);
//! assert_eq!(*service.wait(again.job, None).unwrap(), *report);
//! service.shutdown();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod coordinator;
pub mod flags;
pub mod job;
pub mod journal;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod service;
pub mod store;

pub use client::Client;
pub use coordinator::{FleetConfig, FleetError, FleetOutcome, FleetStats, WorkerStats};
pub use job::{CancelOutcome, JobId, JobState};
pub use journal::{Journal, JournalRecord, Replay, ReplayedJob, ReplayedTerminal};
pub use protocol::MAX_LINE_BYTES;
pub use server::{run_server, serve};
pub use service::{
    JobStatus, LatencySummary, ServiceConfig, ServiceHandle, ServiceStats, SubmitOutcome,
};
pub use store::ReportStore;

/// Errors surfaced by the in-process service API (the wire protocol maps
/// each to a structured `{"code", "message"}` error object).
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The bounded job queue is full — backpressure. Carries a hint for
    /// when a slot is likely to free up (derived from observed run
    /// latency and queue depth); the wire error is `overloaded` with a
    /// `retry_after_ms` field clients feed into their backoff loop.
    Overloaded {
        /// Suggested client back-off before resubmitting, in milliseconds.
        retry_after_ms: u64,
    },
    /// The service is shutting down (or draining) and accepts no new work.
    ShuttingDown,
    /// No job with this id.
    UnknownJob(u64),
    /// The submitted plan failed validation or decoding.
    InvalidPlan(nvpim_sweep::SweepError),
    /// The plan (or `run_shard` range) runs more trials than the daemon's
    /// admission budget (`--max-trials-per-job`) allows.
    PlanTooLarge {
        /// Trials the request would run.
        trials: u64,
        /// The daemon's per-job trial budget.
        limit: u64,
    },
    /// A `run_shard` request carried an invalid range.
    BadShard(String),
    /// The job's campaign failed to run (carries the description).
    JobFailed(String),
    /// The job was cancelled.
    JobCancelled,
    /// The job has not finished yet (or a wait timed out).
    NotDone,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded { retry_after_ms } => {
                write!(f, "job queue is full — retry in ~{retry_after_ms} ms")
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::UnknownJob(id) => write!(f, "no job with id {id}"),
            ServiceError::InvalidPlan(e) => write!(f, "invalid plan: {e}"),
            ServiceError::PlanTooLarge { trials, limit } => write!(
                f,
                "plan runs {trials} trials, over this daemon's budget of {limit} per job"
            ),
            ServiceError::BadShard(detail) => write!(f, "invalid shard request: {detail}"),
            ServiceError::JobFailed(e) => write!(f, "job failed: {e}"),
            ServiceError::JobCancelled => write!(f, "job was cancelled"),
            ServiceError::NotDone => write!(f, "job has not finished yet"),
        }
    }
}

impl std::error::Error for ServiceError {}
