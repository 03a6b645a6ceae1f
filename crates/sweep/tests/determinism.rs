//! Campaign-level determinism: the serialized report must be a pure
//! function of the plan — independent of thread count and checkpoint
//! cadence, and repeatable across runs — and distinct campaign seeds must
//! actually change results.
//!
//! NOTE: this file must contain exactly one `#[test]`, because it mutates
//! the process-global `RAYON_NUM_THREADS` variable — sibling tests in the
//! same binary would run concurrently and race the env reads (the reason
//! `set_var` is unsafe in edition 2024). Campaign tests that don't touch
//! the environment belong in other test files (separate binaries, which
//! cargo runs sequentially).

use std::time::Duration;

use nvpim_sweep::{
    prepare_campaign, run_campaign, run_campaign_on, CampaignControl, ScalarBackend, ScheduleCache,
    SlicedBackend, SweepPlan,
};

/// Checkpoint cadences: one checkpoint per prefix advance, the daemon
/// default, and only the final one.
const CADENCES: [Duration; 3] = [
    Duration::ZERO,
    Duration::from_millis(250),
    Duration::from_millis(u64::MAX),
];

/// Runs `plan` with a checkpoint every `cadence`, checking that the
/// observer saw strictly increasing progress ending at the full count.
fn run_checkpointed_json(plan: &SweepPlan, cadence: Duration) -> String {
    let mut cache = ScheduleCache::new();
    let mut done = 0;
    let prepared = prepare_campaign(plan, &mut cache).unwrap();
    let tallies = prepared
        .run_shard(&SlicedBackend, 0, plan.trial_count(), cadence, |cp| {
            let progress = cp.progress;
            assert!(progress.trials_done > done, "progress must advance");
            done = progress.trials_done;
            CampaignControl::Continue
        })
        .unwrap();
    let report = prepared.report_from_tallies(&tallies).unwrap().to_json();
    assert_eq!(done, plan.trial_count(), "the last checkpoint is the total");
    report
}

#[test]
fn report_json_is_byte_identical_across_thread_counts_and_runs() {
    let plan = SweepPlan::quick();

    std::env::set_var("RAYON_NUM_THREADS", "1");
    let single_threaded = run_campaign(&plan).unwrap().to_json();
    let single_threaded_again = run_campaign(&plan).unwrap().to_json();
    let single_threaded_scalar = run_campaign_on(&plan, &ScalarBackend).unwrap().to_json();
    let mut checkpointed = Vec::new();
    for threads in ["1", "4"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        for cadence in CADENCES {
            checkpointed.push((threads, cadence, run_checkpointed_json(&plan, cadence)));
        }
    }

    std::env::set_var("RAYON_NUM_THREADS", "4");
    let four_threads = run_campaign(&plan).unwrap().to_json();
    let four_threads_scalar = run_campaign_on(&plan, &ScalarBackend).unwrap().to_json();

    std::env::remove_var("RAYON_NUM_THREADS");
    let default_threads = run_campaign(&plan).unwrap().to_json();

    assert_eq!(
        single_threaded, single_threaded_again,
        "same plan, same thread count → identical JSON"
    );
    assert_eq!(
        single_threaded, four_threads,
        "RAYON_NUM_THREADS=1 vs 4 must not change the report"
    );
    assert_eq!(
        single_threaded, default_threads,
        "default thread count must not change the report"
    );
    // Tasks are claimed dynamically by whichever thread is free, and
    // checkpoints cut the completed prefix wherever the clock says; neither
    // may leak into report bytes.
    for (threads, cadence, json) in &checkpointed {
        assert_eq!(
            &single_threaded, json,
            "RAYON_NUM_THREADS={threads} with a checkpoint every {cadence:?} must match"
        );
    }
    // The scalar backend is the reference semantics: the (default) sliced
    // backend must emit the same bytes at every thread count — lane
    // batching, like checkpointing, is pure scheduling.
    assert_eq!(
        single_threaded, single_threaded_scalar,
        "sliced vs scalar backend must agree at one thread"
    );
    assert_eq!(
        single_threaded, four_threads_scalar,
        "sliced vs scalar backend must agree at four threads"
    );

    // A different campaign seed must actually change trial outcomes
    // (otherwise the determinism above would be vacuous).
    let mut reseeded = plan.clone();
    reseeded.campaign_seed ^= 0xDEAD_BEEF;
    let other = run_campaign(&reseeded).unwrap().to_json();
    assert_ne!(single_threaded, other, "campaign seed must matter");
}
