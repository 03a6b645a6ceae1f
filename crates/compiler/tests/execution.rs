//! Compiled schedules run as real in-array gate operations: the mapped
//! columns driven through `ProtectedExecutor` on an unprotected design
//! reproduce the netlist's reference evaluation, reclaims included, and the
//! executor rejects schedules and arrays it cannot run.

use nvpim_compiler::builder::CircuitBuilder;
use nvpim_compiler::layout::RowLayout;
use nvpim_compiler::netlist::Netlist;
use nvpim_compiler::schedule::{map_netlist, RowSchedule};
use nvpim_core::config::DesignConfig;
use nvpim_core::executor::{ProtectedExecError, ProtectedExecutor};
use nvpim_sim::array::PimArray;
use nvpim_sim::fault::{ErrorRates, FaultInjector};
use nvpim_sim::technology::Technology;

fn to_bits(value: u64, width: usize) -> Vec<bool> {
    (0..width).map(|i| (value >> i) & 1 == 1).collect()
}

fn from_bits(bits: &[bool]) -> u64 {
    bits.iter()
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i))
}

fn adder_netlist(width: usize) -> Netlist {
    let mut b = CircuitBuilder::new();
    let a = b.input_word(width);
    let c = b.input_word(width);
    let (sum, carry) = b.ripple_add(&a, &c, None);
    b.mark_output_word(&sum);
    b.mark_output(carry);
    b.finish()
}

/// An unprotected design whose row layout is `columns` wide — the layout
/// `RowLayout::unprotected(columns)` the schedules below are mapped onto.
fn executor(technology: Technology, columns: usize) -> ProtectedExecutor {
    ProtectedExecutor::new(DesignConfig {
        array_columns: columns,
        ..DesignConfig::unprotected(technology)
    })
}

/// Runs `schedule` in row 0 and returns the primary outputs read back.
fn run(
    schedule: &RowSchedule,
    netlist: &Netlist,
    array: &mut PimArray,
    inputs: &[bool],
) -> Result<Vec<bool>, ProtectedExecError> {
    executor(array.technology(), schedule.layout.total_columns)
        .run(netlist, schedule, array, 0, inputs)
        .map(|report| report.outputs)
}

#[test]
fn in_array_adder_matches_reference_for_all_technologies() {
    let netlist = adder_netlist(6);
    let schedule = map_netlist(&netlist, RowLayout::unprotected(256)).unwrap();
    for tech in Technology::ALL {
        let mut array = PimArray::new(tech, 2, 256);
        for (a, b) in [(0u64, 0u64), (63, 1), (17, 45), (32, 31)] {
            let mut inputs = to_bits(a, 6);
            inputs.extend(to_bits(b, 6));
            let reference = netlist.evaluate(&inputs);
            let measured = run(&schedule, &netlist, &mut array, &inputs).unwrap();
            assert_eq!(measured, reference, "{tech}: {a}+{b}");
            assert_eq!(from_bits(&measured), a + b);
        }
    }
}

#[test]
fn in_array_multiplier_matches_reference_even_with_reclaims() {
    let mut b = CircuitBuilder::new();
    let x = b.input_word(4);
    let y = b.input_word(4);
    let p = b.mul_unsigned(&x, &y);
    b.mark_output_word(&p);
    let netlist = b.finish();
    // Narrow scratch to force reclaims, but wide enough to avoid spills.
    let layout = RowLayout {
        total_columns: 64,
        metadata_columns: 0,
        cells_per_value: 1,
    };
    let schedule = map_netlist(&netlist, layout).unwrap();
    assert!(
        schedule.reclaim_count() > 0,
        "test should exercise reclaims"
    );
    assert!(schedule.is_directly_executable());
    let mut array = PimArray::new(Technology::SttMram, 1, 64);
    for (a, c) in [(3u64, 5u64), (15, 15), (9, 11), (0, 7)] {
        let mut inputs = to_bits(a, 4);
        inputs.extend(to_bits(c, 4));
        let out = run(&schedule, &netlist, &mut array, &inputs).unwrap();
        assert_eq!(from_bits(&out), a * c, "{a}*{c}");
    }
}

#[test]
fn spilled_schedule_is_rejected() {
    let netlist = adder_netlist(8);
    let layout = RowLayout {
        total_columns: 12,
        metadata_columns: 0,
        cells_per_value: 1,
    };
    let schedule = map_netlist(&netlist, layout).unwrap();
    let mut array = PimArray::new(Technology::SttMram, 1, 12);
    let err = run(&schedule, &netlist, &mut array, &[false; 16]);
    assert_eq!(err, Err(ProtectedExecError::NotDirectlyExecutable));
}

#[test]
fn wrong_input_arity_rejected() {
    let netlist = adder_netlist(4);
    let schedule = map_netlist(&netlist, RowLayout::unprotected(128)).unwrap();
    let mut array = PimArray::new(Technology::ReRam, 1, 128);
    let err = run(&schedule, &netlist, &mut array, &[true; 3]);
    assert_eq!(
        err,
        Err(ProtectedExecError::InputArityMismatch {
            expected: 8,
            got: 3
        })
    );
}

#[test]
fn narrow_array_rejected() {
    let netlist = adder_netlist(4);
    let schedule = map_netlist(&netlist, RowLayout::unprotected(128)).unwrap();
    let mut array = PimArray::new(Technology::ReRam, 1, 64);
    let err = run(&schedule, &netlist, &mut array, &[false; 8]);
    assert_eq!(err, Err(ProtectedExecError::ArrayTooSmall));
}

#[test]
fn gate_faults_corrupt_in_array_results() {
    // With a high gate error rate, the in-array result must diverge from
    // the reference for at least some input combinations — demonstrating
    // why unprotected PiM computation needs ECiM / TRiM.
    let netlist = adder_netlist(8);
    let schedule = map_netlist(&netlist, RowLayout::unprotected(256)).unwrap();
    let mut array =
        PimArray::new(Technology::SttMram, 1, 256).with_fault_injector(FaultInjector::new(
            ErrorRates {
                gate: 0.05,
                ..ErrorRates::NONE
            },
            13,
        ));
    let mut mismatches = 0;
    for a in 0..16u64 {
        let mut inputs = to_bits(a * 7, 8);
        inputs.extend(to_bits(a * 11, 8));
        let reference = netlist.evaluate(&inputs);
        let measured = run(&schedule, &netlist, &mut array, &inputs).unwrap();
        if measured != reference {
            mismatches += 1;
        }
    }
    assert!(
        mismatches > 0,
        "5% gate error rate must corrupt some results"
    );
}
