//! `RowSchedule::levels` partitions every schedule the sweep engine runs
//! into its logic levels: the slices concatenate back to `gates`, each
//! holds one level, levels strictly increase, and there are `depth()` of
//! them.

use nvpim_compiler::schedule::{map_netlist, RowSchedule};
use nvpim_core::config::{DesignConfig, ProtectionScheme};
use nvpim_sim::technology::Technology;
use nvpim_sweep::{ScheduleCache, SweepPlan, SweepWorkload, Telemetry};
use nvpim_workloads::Benchmark;

fn assert_levels_partition(schedule: &RowSchedule, label: &str) {
    assert!(
        schedule.levels().flatten().eq(schedule.gates.iter()),
        "{label}: levels do not concatenate back to the gates"
    );
    let mut previous: Option<usize> = None;
    for level in schedule.levels() {
        let first = level[0].level;
        assert!(
            level.iter().all(|g| g.level == first),
            "{label}: a slice mixes levels"
        );
        assert!(
            previous.is_none_or(|p| p < first),
            "{label}: level {first} follows level {previous:?}"
        );
        previous = Some(first);
    }
    assert_eq!(schedule.levels().count(), schedule.depth(), "{label}");
}

#[test]
fn levels_partition_every_named_plan_schedule() {
    let telemetry = Telemetry::disabled();
    for name in ["quick", "paper_scale", "accuracy_quick"] {
        let plan = SweepPlan::named(name).expect("named plan");
        let mut cache = ScheduleCache::new();
        for &workload in &plan.workloads {
            for &technology in &plan.technologies {
                for &protection in &plan.protections {
                    let config = protection.design_config(technology);
                    let kernel = cache
                        .get_or_compile(workload, plan.kind, &config, &telemetry)
                        .expect("named plans compile");
                    let label = format!("{name}/{}/{protection:?}", workload.name());
                    assert_levels_partition(&kernel.schedule, &label);
                }
            }
        }
    }
}

#[test]
fn levels_partition_the_mnist_wb1_row() {
    let netlist = SweepWorkload::Benchmark(Benchmark::Mnist { weight_bits: 1 }).netlist();
    for scheme in [ProtectionScheme::Unprotected, ProtectionScheme::Ecim] {
        let layout = DesignConfig::for_scheme(scheme, Technology::SttMram).row_layout();
        let schedule = map_netlist(&netlist, layout).expect("mnist wb1 maps");
        assert_levels_partition(&schedule, &format!("mnist1/{scheme:?}"));
    }
}
