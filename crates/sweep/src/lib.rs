//! # nvpim-sweep
//!
//! Batched, parallel Monte Carlo fault-injection campaign engine for the
//! `nvpim` reproduction of *"On Error Correction for Nonvolatile
//! Processing-In-Memory"* (ISCA 2024).
//!
//! The paper's evaluation (Fig. 7, Table V) and its single-error-protection
//! claims rest on large fault-injection campaigns. The seed codebase could
//! only run one `ProtectedExecutor::run` trial at a time; this crate layers
//! a campaign engine on top of `core` / `sim` / `compiler` / `workloads`:
//!
//! * [`plan::SweepPlan`] — the cartesian product of workload × technology ×
//!   protection scheme (× gate style) × gate-error-rate grid, times N seeds;
//! * [`engine::ScheduleCache`] — compiled `(workload, kind, layout)` schedules are
//!   shared by every trial instead of recompiled per trial;
//! * [`engine::run_campaign`] — expands the plan into independent trials,
//!   runs them in parallel via `rayon` with per-trial `ChaCha8Rng` seeds
//!   derived deterministically from the campaign seed, and aggregates
//!   detection / correction / silent-error counts, output-error rates and
//!   the system model's cycle/energy estimates;
//! * [`report::SweepReport`] — a serde-serializable report whose JSON is
//!   byte-identical for any thread count (`RAYON_NUM_THREADS=1` vs default).
//!
//! # Examples
//!
//! ```
//! use nvpim_sweep::{run_campaign, SweepPlan};
//!
//! let mut plan = SweepPlan::quick();
//! plan.seeds_per_point = 4;
//! let report = run_campaign(&plan).expect("quick campaign runs");
//! assert_eq!(report.total_trials, plan.trial_count());
//! // Schedules are compiled once per (workload, layout), not per trial.
//! assert!(report.schedules_compiled < report.points.len());
//! println!("{}", report.to_json());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod digest;
pub mod engine;
pub mod json;
pub mod plan;
pub mod report;

pub use engine::{
    derive_trial_seed, prepare_campaign, prepare_campaign_with_telemetry, run_campaign,
    run_campaign_on, shard_ranges, trial_stream_seeds, CampaignControl, CampaignProgress,
    ChunkCheckpoint, CompiledKernel, ExecutionBackend, PointContext, PreparedCampaign,
    ScalarBackend, ScheduleCache, SlicedBackend, TrialArena, TrialHarness,
};
pub use nvpim_telemetry::{Counter as TelemetryCounter, Phase, Telemetry, TelemetrySnapshot};
pub use plan::{CampaignKind, EstimatorMode, ProtectionConfig, SweepPlan, SweepWorkload};
pub use report::{
    AccuracySummary, EstimatorSummary, PointSummary, PointTally, SweepReport, Tallies, TrialOutcome,
};

/// Errors raised while setting up a campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// A plan axis is empty (names the axis).
    EmptyPlan(&'static str),
    /// A gate error rate is outside `[0, 1]`.
    InvalidErrorRate(f64),
    /// Mapping a workload netlist onto a row layout failed.
    Map {
        /// Workload name.
        workload: String,
        /// Mapping error description.
        detail: String,
    },
    /// The compiled schedule spills and cannot run on a single row.
    NotDirectlyExecutable {
        /// Workload name.
        workload: String,
        /// Human-readable layout description.
        layout_label: String,
    },
    /// A plan's JSON encoding could not be decoded.
    Parse(String),
    /// The plan combines campaign features that cannot run together (e.g.
    /// an accuracy campaign on an unlabelled workload).
    UnsupportedCampaign(String),
    /// A chunked campaign was cancelled by its progress observer.
    Cancelled,
    /// A resume checkpoint or merge is inconsistent with the campaign it
    /// claims to checkpoint (e.g. its tallies are not those of a prefix of
    /// the plan's trial list).
    BadCheckpoint(String),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::EmptyPlan(axis) => write!(f, "sweep plan has an empty `{axis}` axis"),
            SweepError::InvalidErrorRate(rate) => {
                write!(f, "gate error rate {rate} is outside [0, 1]")
            }
            SweepError::Map { workload, detail } => {
                write!(f, "mapping workload `{workload}` failed: {detail}")
            }
            SweepError::NotDirectlyExecutable {
                workload,
                layout_label,
            } => write!(
                f,
                "workload `{workload}` spills under layout ({layout_label}) and cannot run \
                 functional fault-injection trials"
            ),
            SweepError::Parse(detail) => write!(f, "invalid sweep plan encoding — {detail}"),
            SweepError::UnsupportedCampaign(detail) => {
                write!(f, "unsupported campaign combination — {detail}")
            }
            SweepError::Cancelled => write!(f, "campaign cancelled by its observer"),
            SweepError::BadCheckpoint(detail) => {
                write!(f, "invalid resume checkpoint — {detail}")
            }
        }
    }
}

impl std::error::Error for SweepError {}
