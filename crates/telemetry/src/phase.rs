//! The fixed phase and counter taxonomy the pipeline is instrumented with.
//!
//! Phases and counters are closed enums rather than string names so the
//! per-thread fold state is a pair of plain `u64` arrays (no hashing, no
//! allocation on the hot path) and so the exposition output enumerates in a
//! single stable order.

/// A named pipeline phase whose wall-clock time is accumulated by span
/// timers.
///
/// The taxonomy covers the full campaign pipeline, from plan intake to
/// report emission. Per-trial phases (fault injection, gate execution,
/// analytic clean settle, estimator redraw) are recorded through the
/// per-thread [`LocalTelemetry`](crate::LocalTelemetry) fold so the sliced
/// hot path never touches a shared atomic per trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Validating the campaign plan before any compilation.
    PlanValidation,
    /// Compiling a kernel schedule on a schedule-cache miss.
    ScheduleCompile,
    /// Serving a kernel schedule from the schedule cache.
    ScheduleCacheHit,
    /// Capturing (and double-probing) the analytic zero-fault clean profile.
    CleanProbe,
    /// Drawing fault positions / resetting injectors for a trial or batch.
    FaultInjection,
    /// Executing compiled gate schedules against the simulated array.
    GateExecution,
    /// Settling a trial or batch analytically via the zero-fault fast path.
    AnalyticCleanSettle,
    /// Redrawing a conditioned trial for the stratified estimator.
    EstimatorRedraw,
    /// Aggregating per-trial outcomes into per-point summaries.
    Aggregation,
    /// Serializing the final report to JSON.
    ReportSerialization,
}

/// Number of phases in the taxonomy (array sizes derive from this).
pub const PHASE_COUNT: usize = 10;

impl Phase {
    /// Every phase, in stable exposition order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::PlanValidation,
        Phase::ScheduleCompile,
        Phase::ScheduleCacheHit,
        Phase::CleanProbe,
        Phase::FaultInjection,
        Phase::GateExecution,
        Phase::AnalyticCleanSettle,
        Phase::EstimatorRedraw,
        Phase::Aggregation,
        Phase::ReportSerialization,
    ];

    /// Stable snake_case name used in exposition output and timing tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::PlanValidation => "plan_validation",
            Phase::ScheduleCompile => "schedule_compile",
            Phase::ScheduleCacheHit => "schedule_cache_hit",
            Phase::CleanProbe => "clean_probe",
            Phase::FaultInjection => "fault_injection",
            Phase::GateExecution => "gate_execution",
            Phase::AnalyticCleanSettle => "analytic_clean_settle",
            Phase::EstimatorRedraw => "estimator_redraw",
            Phase::Aggregation => "aggregation",
            Phase::ReportSerialization => "report_serialization",
        }
    }

    /// Dense array index of this phase.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A first-class event counter: every counter the engine, the daemon and
/// the fleet coordinator keep lives here, so `stats` and `metrics` read one
/// registry and cannot drift apart.
///
/// Each counter exports as `nvpim_<family>_total`, with its label pair
/// when it has one (see [`Counter::family`] and [`Counter::label`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Trials settled by the analytic zero-fault fast path without
    /// executing any gates.
    CleanSettledTrials,
    /// Whole 64-lane batches settled by the analytic zero-fault fast path.
    CleanSettledBatches,
    /// Trials (or lanes) whose fault draw was redrawn/conditioned by the
    /// stratified estimator.
    EstimatorRedraws,
    /// Trials the engine executed (including analytically settled ones),
    /// counted as they run.
    TrialsExecuted,
    /// Schedule-cache lookups that compiled a schedule.
    ScheduleCompiles,
    /// Schedule-cache lookups served without compiling.
    ScheduleCacheHits,
    /// Submissions accepted (including cached and coalesced ones).
    JobsSubmitted,
    /// Campaigns run to completion.
    JobsCompleted,
    /// Jobs that failed terminally.
    JobsFailed,
    /// Jobs cancelled, queued or mid-run.
    JobsCancelled,
    /// Submissions attached to an identical in-flight job.
    JobsCoalesced,
    /// Submissions rejected by queue backpressure.
    JobsRejected,
    /// Accepted submissions whose plan requested the stratified estimator.
    EstimatorJobs,
    /// Accepted submissions whose plan runs the accuracy campaign kind.
    AccuracyJobs,
    /// Trials the service executed, accounted from job progress and shard
    /// results when a run ends (resumed checkpoints are not re-counted).
    ServiceTrialsExecuted,
    /// Wall-clock nanoseconds the worker pool spent running campaigns and
    /// shards.
    ServiceBusyNanos,
    /// Accuracy-campaign trials that produced a prediction.
    AccuracyTrialsEvaluated,
    /// Of those, predictions matching the clean model's.
    AccuracyTrialsCorrect,
    /// Shard ranges executed to completion for a fleet coordinator.
    ShardsExecuted,
    /// Checkpoints handed to job observers (one journal `chunk` record
    /// each on a durable daemon).
    JobCheckpoints,
    /// Checkpoints streamed as `shard_chunk` frames.
    ShardCheckpoints,
    /// Report-store lookups served without recompute.
    ReportCacheHits,
    /// Report-store lookups that missed.
    ReportCacheMisses,
    /// Durable report-store entries deleted because their body no longer
    /// hashed to their header.
    ReportStoreCorruptDiscarded,
    /// Records appended to the job journal.
    JournalRecords,
    /// Bytes appended to the job journal, newlines included.
    JournalBytes,
    /// Journal fsyncs issued.
    JournalFsyncs,
    /// Jobs restored from the durable journal on daemon startup (terminal
    /// and resumed in-flight jobs alike).
    RecoveredJobs,
    /// Checkpointed chunks whose tallies were resumed (not recomputed)
    /// when an in-flight campaign was restarted from the journal.
    ResumedChunks,
    /// Journal records successfully replayed on daemon startup.
    JournalRecordsReplayed,
    /// Shards handed to a replacement worker after their original worker
    /// died, stalled past its heartbeat deadline, or disconnected.
    ShardsReassigned,
    /// Workers evicted from a coordinator fleet after a missed heartbeat
    /// deadline or transport failure.
    WorkerEvictions,
    /// Heartbeat deadlines missed by fleet workers (a worker may miss
    /// several before the campaign ends).
    HeartbeatMisses,
}

/// Number of counters in the taxonomy (array sizes derive from this).
pub const COUNTER_COUNT: usize = 33;

impl Counter {
    /// Every counter, in stable exposition order. Counters sharing a
    /// [`family`](Counter::family) are adjacent.
    pub const ALL: [Counter; COUNTER_COUNT] = [
        Counter::CleanSettledTrials,
        Counter::CleanSettledBatches,
        Counter::EstimatorRedraws,
        Counter::TrialsExecuted,
        Counter::ScheduleCompiles,
        Counter::ScheduleCacheHits,
        Counter::JobsSubmitted,
        Counter::JobsCompleted,
        Counter::JobsFailed,
        Counter::JobsCancelled,
        Counter::JobsCoalesced,
        Counter::JobsRejected,
        Counter::EstimatorJobs,
        Counter::AccuracyJobs,
        Counter::ServiceTrialsExecuted,
        Counter::ServiceBusyNanos,
        Counter::AccuracyTrialsEvaluated,
        Counter::AccuracyTrialsCorrect,
        Counter::ShardsExecuted,
        Counter::JobCheckpoints,
        Counter::ShardCheckpoints,
        Counter::ReportCacheHits,
        Counter::ReportCacheMisses,
        Counter::ReportStoreCorruptDiscarded,
        Counter::JournalRecords,
        Counter::JournalBytes,
        Counter::JournalFsyncs,
        Counter::RecoveredJobs,
        Counter::ResumedChunks,
        Counter::JournalRecordsReplayed,
        Counter::ShardsReassigned,
        Counter::WorkerEvictions,
        Counter::HeartbeatMisses,
    ];

    /// Stable snake_case name, unique per counter (timing tables use it).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::CleanSettledTrials => "clean_settled_trials",
            Counter::CleanSettledBatches => "clean_settled_batches",
            Counter::EstimatorRedraws => "estimator_redraws",
            Counter::TrialsExecuted => "trials_executed",
            Counter::ScheduleCompiles => "schedule_compiles",
            Counter::ScheduleCacheHits => "schedule_cache_hits",
            Counter::JobsSubmitted => "jobs_submitted",
            Counter::JobsCompleted => "jobs_completed",
            Counter::JobsFailed => "jobs_failed",
            Counter::JobsCancelled => "jobs_cancelled",
            Counter::JobsCoalesced => "jobs_coalesced",
            Counter::JobsRejected => "jobs_rejected",
            Counter::EstimatorJobs => "estimator_jobs",
            Counter::AccuracyJobs => "accuracy_jobs",
            Counter::ServiceTrialsExecuted => "service_trials_executed",
            Counter::ServiceBusyNanos => "service_busy_nanos",
            Counter::AccuracyTrialsEvaluated => "accuracy_trials_evaluated",
            Counter::AccuracyTrialsCorrect => "accuracy_trials_correct",
            Counter::ShardsExecuted => "shards_executed",
            Counter::JobCheckpoints => "job_checkpoints",
            Counter::ShardCheckpoints => "shard_checkpoints",
            Counter::ReportCacheHits => "report_cache_hits",
            Counter::ReportCacheMisses => "report_cache_misses",
            Counter::ReportStoreCorruptDiscarded => "report_store_corrupt_discarded",
            Counter::JournalRecords => "journal_records",
            Counter::JournalBytes => "journal_bytes",
            Counter::JournalFsyncs => "journal_fsyncs",
            Counter::RecoveredJobs => "recovered_jobs",
            Counter::ResumedChunks => "resumed_chunks",
            Counter::JournalRecordsReplayed => "journal_records_replayed",
            Counter::ShardsReassigned => "shards_reassigned",
            Counter::WorkerEvictions => "worker_evictions",
            Counter::HeartbeatMisses => "heartbeat_misses",
        }
    }

    /// Exposition family: the series is `nvpim_<family>_total`. Labeled
    /// counters share one family and differ in [`label`](Counter::label).
    #[must_use]
    pub fn family(self) -> &'static str {
        match self {
            Counter::JobCheckpoints | Counter::ShardCheckpoints => "checkpoints",
            other => other.name(),
        }
    }

    /// The `(label, value)` pair distinguishing this counter within its
    /// family, if the family is labeled.
    #[must_use]
    pub fn label(self) -> Option<(&'static str, &'static str)> {
        match self {
            Counter::JobCheckpoints => Some(("path", "job")),
            Counter::ShardCheckpoints => Some(("path", "shard")),
            _ => None,
        }
    }

    /// `# HELP` text of the counter's exposition family.
    #[must_use]
    pub fn help(self) -> &'static str {
        match self {
            Counter::CleanSettledTrials => {
                "Trials settled by the analytic zero-fault fast path without executing a gate."
            }
            Counter::CleanSettledBatches => {
                "Whole 64-lane batches settled by the analytic zero-fault fast path."
            }
            Counter::EstimatorRedraws => {
                "Trials or lanes redrawn into the at-least-one-fault stratum."
            }
            Counter::TrialsExecuted => "Trials the engine executed, counted as they run.",
            Counter::ScheduleCompiles => "Schedule-cache lookups that compiled a schedule.",
            Counter::ScheduleCacheHits => "Schedule-cache lookups served without compiling.",
            Counter::JobsSubmitted => "Submissions accepted (including cached and coalesced).",
            Counter::JobsCompleted => "Campaigns run to completion.",
            Counter::JobsFailed => "Jobs that failed terminally.",
            Counter::JobsCancelled => "Jobs cancelled.",
            Counter::JobsCoalesced => "Submissions attached to an identical in-flight job.",
            Counter::JobsRejected => "Submissions rejected by queue backpressure.",
            Counter::EstimatorJobs => "Submissions requesting the stratified estimator.",
            Counter::AccuracyJobs => "Submissions running the inference-accuracy campaign kind.",
            Counter::ServiceTrialsExecuted => {
                "Trials the service executed, accounted per job and shard when a run ends."
            }
            Counter::ServiceBusyNanos => "Wall-clock nanoseconds spent running campaigns.",
            Counter::AccuracyTrialsEvaluated => {
                "Accuracy-campaign trials that produced a prediction."
            }
            Counter::AccuracyTrialsCorrect => {
                "Accuracy-campaign predictions matching the clean model."
            }
            Counter::ShardsExecuted => "Shard ranges executed to completion (run_shard).",
            Counter::JobCheckpoints | Counter::ShardCheckpoints => {
                "Checkpoints taken, by path (job: journaled job checkpoints; \
                 shard: streamed shard_chunk frames)."
            }
            Counter::ReportCacheHits => {
                "Submissions served byte-identically from the report store."
            }
            Counter::ReportCacheMisses => "Report store lookups that missed.",
            Counter::ReportStoreCorruptDiscarded => {
                "Durable report-store entries discarded because they failed verification."
            }
            Counter::JournalRecords => "Records appended to the job journal.",
            Counter::JournalBytes => "Bytes appended to the job journal.",
            Counter::JournalFsyncs => "Journal fsyncs issued.",
            Counter::RecoveredJobs => "Jobs restored from the durable journal at startup.",
            Counter::ResumedChunks => {
                "Checkpointed chunks resumed, not recomputed, after a restart."
            }
            Counter::JournalRecordsReplayed => "Journal records replayed at startup.",
            Counter::ShardsReassigned => "Shards handed to a replacement fleet worker.",
            Counter::WorkerEvictions => "Fleet workers evicted after a missed heartbeat.",
            Counter::HeartbeatMisses => "Heartbeat deadlines missed by fleet workers.",
        }
    }

    /// Dense array index of this counter.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_match_all_order() {
        for (i, phase) in Phase::ALL.iter().enumerate() {
            assert_eq!(phase.index(), i);
        }
        for (i, counter) in Counter::ALL.iter().enumerate() {
            assert_eq!(counter.index(), i);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.extend(Counter::ALL.iter().map(|c| c.name()));
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len());
    }
}
