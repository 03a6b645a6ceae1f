//! Regenerates Table V: energy overhead of ECiM and TRiM (multi-output and
//! single-output gate designs) relative to the unprotected iso-area
//! baseline, for all three technologies.
//!
//! Pass `--sweep` to additionally run the Monte Carlo fault-injection
//! campaign (protection efficacy alongside the analytic cost table). The
//! same campaign runs on a daemon with `nvpim-cli submit --quick --wait`
//! (or `--paper-scale`).

use nvpim_bench::{finish_harness, print_table, sweep_benchmark, HarnessOptions};
use nvpim_sim::technology::Technology;
use serde::Serialize;

#[derive(Serialize)]
struct EnergyRow {
    benchmark: String,
    technology: String,
    ecim_multi_output: f64,
    ecim_single_output: f64,
    trim_multi_output: f64,
    trim_single_output: f64,
}

fn main() {
    let opts = HarnessOptions::from_args();
    println!("Table V — energy overhead vs unprotected iso-area baseline (ratio)\n");
    let mut rows = Vec::new();
    for bench in opts.suite() {
        for tech in Technology::ALL {
            let sweep = sweep_benchmark(bench, tech);
            rows.push(EnergyRow {
                benchmark: sweep.benchmark.clone(),
                technology: sweep.technology.clone(),
                ecim_multi_output: sweep.ecim.energy_overhead,
                ecim_single_output: sweep.ecim_single_output_energy,
                trim_multi_output: sweep.trim.energy_overhead,
                trim_single_output: sweep.trim_single_output_energy,
            });
        }
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                r.technology.clone(),
                format!("{:.2}", r.ecim_multi_output),
                format!("{:.2}", r.ecim_single_output),
                format!("{:.2}", r.trim_multi_output),
                format!("{:.2}", r.trim_single_output),
            ]
        })
        .collect();
    print_table(
        &[
            "benchmark",
            "technology",
            "ECiM m-o",
            "ECiM s-o",
            "TRiM m-o",
            "TRiM s-o",
        ],
        &table,
    );
    finish_harness(&opts, &rows);
}
