//! End-to-end service throughput: jobs/sec through `ServiceHandle` for
//! cold submissions (every plan unique — full campaign per job) vs
//! report-cache hits (identical plan resubmitted — zero recompute).
//!
//! Run with `cargo bench -p nvpim-service`.

use criterion::{criterion_group, criterion_main, Criterion};
use nvpim_service::service::{ServiceConfig, ServiceHandle};
use nvpim_sweep::SweepPlan;

/// A small-but-real campaign (3 points × 2 seeds = 6 trials).
fn base_plan() -> SweepPlan {
    let mut plan = SweepPlan::quick();
    plan.seeds_per_point = 2;
    plan
}

fn bench_service_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_throughput");

    group.bench_function("submit_wait_cold", |b| {
        let service = ServiceHandle::start(ServiceConfig {
            workers: 2,
            queue_capacity: 1024,
            checkpoint_ms: 250,
            ..Default::default()
        });
        // Unique campaign seed per iteration → every submission is a cache
        // miss and runs a full campaign.
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut plan = base_plan();
            plan.campaign_seed = seed;
            let out = service.submit(plan, 0).expect("queue has room");
            criterion::black_box(service.wait(out.job, None).expect("job runs"));
        });
        service.shutdown();
    });

    group.bench_function("submit_wait_cache_hit", |b| {
        let service = ServiceHandle::start(ServiceConfig {
            workers: 2,
            queue_capacity: 1024,
            checkpoint_ms: 250,
            ..Default::default()
        });
        // Warm the content-addressed store once; every iteration after is
        // a pure digest-lookup + Arc clone.
        let plan = base_plan();
        let out = service.submit(plan.clone(), 0).expect("queue has room");
        service.wait(out.job, None).expect("warmup job runs");
        b.iter(|| {
            let out = service.submit(plan.clone(), 0).expect("queue has room");
            criterion::black_box(service.wait(out.job, None).expect("cache hit"));
        });
        service.shutdown();
    });

    group.finish();
}

criterion_group!(benches, bench_service_throughput);
criterion_main!(benches);
