//! Criterion micro-benchmarks of the PiM substrate and compiler: in-array
//! gate execution, the two-step XOR, netlist synthesis and row mapping.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use nvpim_compiler::builder::CircuitBuilder;
use nvpim_compiler::layout::RowLayout;
use nvpim_compiler::schedule::map_netlist;
use nvpim_sim::array::PimArray;
use nvpim_sim::gates::GateKind;
use nvpim_sim::technology::Technology;

fn bench_gate_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("in_array_gates");
    for tech in Technology::ALL {
        group.bench_with_input(
            BenchmarkId::new("nor22_plus_thr", tech.to_string()),
            &tech,
            |b, &tech| {
                let mut array = PimArray::new(tech, 1, 16);
                array.poke(0, 0, true).unwrap();
                array.poke(0, 1, false).unwrap();
                b.iter(|| {
                    array
                        .execute_gate_with(GateKind::NOR22, 0, black_box(&[0, 1]), &[2, 3])
                        .unwrap();
                    array
                        .execute_gate_with(GateKind::THR, 0, black_box(&[0, 1, 2, 3]), &[4])
                        .unwrap()
                })
            },
        );
    }
    group.finish();
}

fn multiplier_netlist(bits: usize) -> nvpim_compiler::netlist::Netlist {
    let mut b = CircuitBuilder::new();
    let x = b.input_word(bits);
    let y = b.input_word(bits);
    let p = b.mul_unsigned(&x, &y);
    b.mark_output_word(&p);
    b.finish()
}

fn bench_synthesis(c: &mut Criterion) {
    let mut group = c.benchmark_group("synthesis");
    group.sample_size(30);
    for bits in [4usize, 8, 16] {
        group.bench_with_input(BenchmarkId::new("multiplier", bits), &bits, |b, &bits| {
            b.iter(|| multiplier_netlist(black_box(bits)))
        });
    }
    group.finish();
}

fn bench_mapping(c: &mut Criterion) {
    let mut group = c.benchmark_group("row_mapping");
    group.sample_size(20);
    let netlist = multiplier_netlist(8);
    for (label, layout) in [
        ("unprotected", RowLayout::unprotected(256)),
        (
            "ecim_iso_area",
            RowLayout {
                total_columns: 256,
                metadata_columns: 32,
                cells_per_value: 1,
            },
        ),
        (
            "trim_iso_area",
            RowLayout {
                total_columns: 256,
                metadata_columns: 0,
                cells_per_value: 3,
            },
        ),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &layout, |b, layout| {
            b.iter(|| map_netlist(black_box(&netlist), *layout).unwrap())
        });
    }
    group.finish();
}

fn bench_behavioral_evaluation(c: &mut Criterion) {
    let mut group = c.benchmark_group("behavioral_simulation");
    let netlist = multiplier_netlist(8);
    let inputs: Vec<bool> = (0..16).map(|i| i % 3 == 0).collect();
    group.bench_function("mul8x8_reference", |b| {
        b.iter(|| netlist.evaluate(black_box(&inputs)))
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().warm_up_time(std::time::Duration::from_millis(300)).measurement_time(std::time::Duration::from_millis(800)).sample_size(20);
    targets =
    bench_gate_execution,
    bench_synthesis,
    bench_mapping,
    bench_behavioral_evaluation
);
criterion_main!(benches);
