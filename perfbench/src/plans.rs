//! The generated traffic: every campaign plan derives from the workload
//! seed, so the same seed replays the same requests and a daemon never sees
//! a plan it already holds unless the workload means it to.

use nvpim_sweep::{ProtectionConfig, SweepPlan};

/// Requests per traffic cycle: four error campaigns, then one accuracy
/// campaign.
pub const CYCLE: usize = 5;
/// Plans `direct` and `fleet` cycle through. Neither path keeps reports
/// between requests, so a repeated plan costs what a fresh one does, and a
/// fixed pool keeps the untimed reference phase short.
pub const POOL: usize = 8 * CYCLE;
/// Error plans primed into `daemon_cached`'s report store.
pub const CACHED_ERROR_PLANS: usize = 16;
/// Accuracy plans primed beside them.
pub const CACHED_ACCURACY_PLANS: usize = 4;
/// Trials in one accuracy campaign.
pub const ACCURACY_TRIALS: u64 = 8;

/// Stream of the measured requests; setup `r` warms up on stream `1 + r`.
pub const MEASURED: u64 = 0;

/// The two request classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `SweepPlan::paper_scale()` with a fresh campaign seed.
    Error,
    /// One mnist accuracy-under-fault point with a fresh campaign seed.
    Accuracy,
}

impl Class {
    /// The class of request `index` in any stream.
    pub fn at(index: usize) -> Self {
        if index % CYCLE == CYCLE - 1 {
            Class::Accuracy
        } else {
            Class::Error
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The campaign seed of request `index` in `stream`.
pub fn campaign_seed(seed: u64, stream: u64, index: usize) -> u64 {
    splitmix64(splitmix64(seed ^ splitmix64(stream)) ^ index as u64)
}

/// The paper-scale error campaign: 120 points, 3,000 trials.
pub fn error_plan(campaign_seed: u64) -> SweepPlan {
    let mut plan = SweepPlan::paper_scale();
    plan.campaign_seed = campaign_seed;
    plan
}

/// One accuracy point: mnist wb1 on the ReRAM crossbar under
/// detect-and-recompute, gate error rate 1e-3, stuck-at density 1e-4.
pub fn accuracy_plan(campaign_seed: u64) -> SweepPlan {
    let mut plan = SweepPlan::accuracy_quick();
    plan.protections = vec![ProtectionConfig::DETECT_RECOMPUTE];
    plan.gate_error_rates = vec![1e-3];
    plan.seeds_per_point = ACCURACY_TRIALS;
    plan.campaign_seed = campaign_seed;
    plan
}

/// Request `index` of `stream`: its class and plan.
pub fn plan_at(seed: u64, stream: u64, index: usize) -> (Class, SweepPlan) {
    let class = Class::at(index);
    let campaign_seed = campaign_seed(seed, stream, index);
    let plan = match class {
        Class::Error => error_plan(campaign_seed),
        Class::Accuracy => accuracy_plan(campaign_seed),
    };
    (class, plan)
}

/// `daemon_cached`'s request order over the primed plans: a seed-shuffled
/// permutation of the error plans, cycled, with an accuracy plan in every
/// accuracy slot. Values index the primed list, whose first
/// [`CACHED_ERROR_PLANS`] entries are the error plans.
pub fn cached_order(seed: u64, requests: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..CACHED_ERROR_PLANS).collect();
    let mut state = splitmix64(seed ^ 0xcac4_ed00);
    for i in (1..perm.len()).rev() {
        state = splitmix64(state);
        perm.swap(i, (state % (i as u64 + 1)) as usize);
    }
    let (mut errors, mut accuracies) = (0, 0);
    (0..requests)
        .map(|i| match Class::at(i) {
            Class::Error => {
                errors += 1;
                perm[(errors - 1) % CACHED_ERROR_PLANS]
            }
            Class::Accuracy => {
                accuracies += 1;
                CACHED_ERROR_PLANS + (accuracies - 1) % CACHED_ACCURACY_PLANS
            }
        })
        .collect()
}

/// The plans `daemon_cached` primes: [`CACHED_ERROR_PLANS`] error plans,
/// then [`CACHED_ACCURACY_PLANS`] accuracy plans.
pub fn cached_plans(seed: u64) -> Vec<(Class, SweepPlan)> {
    let errors = (0..).filter(|&i| Class::at(i) == Class::Error);
    let accuracies = (0..).filter(|&i| Class::at(i) == Class::Accuracy);
    errors
        .take(CACHED_ERROR_PLANS)
        .chain(accuracies.take(CACHED_ACCURACY_PLANS))
        .map(|i| plan_at(seed, MEASURED, i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn plan_stream_is_deterministic_from_the_seed() {
        for index in 0..2 * CYCLE {
            let (class, plan) = plan_at(7, MEASURED, index);
            let (again_class, again) = plan_at(7, MEASURED, index);
            assert_eq!(class, again_class);
            assert_eq!(plan.canonical_json(), again.canonical_json());
            let (_, other_seed) = plan_at(8, MEASURED, index);
            assert_ne!(plan.content_digest(), other_seed.content_digest());
            let (_, warm_up) = plan_at(7, 1, index);
            assert_ne!(plan.content_digest(), warm_up.content_digest());
        }
        assert_eq!(cached_order(3, 50), cached_order(3, 50));
        assert_ne!(cached_order(3, 50), cached_order(4, 50));
    }

    #[test]
    fn cycle_is_four_error_campaigns_then_one_accuracy_campaign() {
        let classes: Vec<Class> = (0..CYCLE).map(Class::at).collect();
        assert_eq!(classes[..4], [Class::Error; 4]);
        assert_eq!(classes[4], Class::Accuracy);
        let (_, error) = plan_at(1, MEASURED, 0);
        assert_eq!(error.trial_count(), 3_000);
        let (_, accuracy) = plan_at(1, MEASURED, 4);
        assert_eq!(accuracy.trial_count(), ACCURACY_TRIALS);
        accuracy.validate().expect("accuracy plan is valid");
    }

    #[test]
    fn cached_plans_yield_distinct_digests_and_every_one_is_requested() {
        let plans = cached_plans(11);
        let digests: HashSet<String> = plans.iter().map(|(_, p)| p.content_digest()).collect();
        assert_eq!(digests.len(), CACHED_ERROR_PLANS + CACHED_ACCURACY_PLANS);
        assert!(plans[..CACHED_ERROR_PLANS]
            .iter()
            .all(|(class, _)| *class == Class::Error));
        let order = cached_order(11, 4 * CYCLE * CACHED_ERROR_PLANS);
        let requested: HashSet<usize> = order.iter().copied().collect();
        assert_eq!(requested.len(), plans.len());
        for (i, &slot) in order.iter().enumerate() {
            assert_eq!(plans[slot].0, Class::at(i));
        }
    }
}
