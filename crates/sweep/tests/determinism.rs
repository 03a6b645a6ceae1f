//! Campaign-level determinism: the serialized report must be a pure
//! function of the plan — independent of thread count and repeatable
//! across runs — and distinct campaign seeds must actually change results.
//!
//! NOTE: this file must contain exactly one `#[test]`, because it mutates
//! the process-global `RAYON_NUM_THREADS` variable — sibling tests in the
//! same binary would run concurrently and race the env reads (the reason
//! `set_var` is unsafe in edition 2024). Campaign tests that don't touch
//! the environment belong in other test files (separate binaries, which
//! cargo runs sequentially).

use nvpim_sweep::{
    prepare_campaign, run_campaign, run_campaign_on, CampaignControl, ScalarBackend, ScheduleCache,
    SweepPlan,
};

fn run_chunked_json(plan: &SweepPlan, chunk: usize) -> String {
    let mut cache = ScheduleCache::new();
    prepare_campaign(plan, &mut cache)
        .unwrap()
        .run_chunked(chunk, |_| CampaignControl::Continue)
        .unwrap()
        .to_json()
}

#[test]
fn report_json_is_byte_identical_across_thread_counts_and_runs() {
    let plan = SweepPlan::quick();

    std::env::set_var("RAYON_NUM_THREADS", "1");
    let single_threaded = run_campaign(&plan).unwrap().to_json();
    let single_threaded_again = run_campaign(&plan).unwrap().to_json();
    let single_threaded_chunked = run_chunked_json(&plan, 5);
    let single_threaded_scalar = run_campaign_on(&plan, &ScalarBackend).unwrap().to_json();

    std::env::set_var("RAYON_NUM_THREADS", "4");
    let four_threads = run_campaign(&plan).unwrap().to_json();
    let four_threads_chunked = run_chunked_json(&plan, 7);
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
    // The packed-arena engine hands per-thread arenas to arbitrary trial
    // subsets; neither chunking nor the thread count those chunks fan out
    // to may leak into report bytes.
    assert_eq!(
        single_threaded, single_threaded_chunked,
        "chunked single-thread run must match"
    );
    assert_eq!(
        single_threaded, four_threads_chunked,
        "chunked multi-thread run must match"
    );
    // The scalar backend is the reference semantics: the (default) sliced
    // backend must emit the same bytes at every thread count — lane
    // batching, like chunking, is pure scheduling.
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
