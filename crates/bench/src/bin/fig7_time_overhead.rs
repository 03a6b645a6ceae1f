//! Regenerates Fig. 7: the time overhead (%) of ECiM and TRiM relative to
//! the unprotected iso-area baseline, with multi-output gates.
//!
//! Pass `--sweep` to additionally run the Monte Carlo fault-injection
//! campaign (protection efficacy alongside the analytic cost table). The
//! same campaign runs on a daemon with `nvpim-cli submit --quick --wait`
//! (or `--paper-scale`).

use nvpim_bench::{finish_harness, print_table, sweep_suite, HarnessOptions};
use nvpim_sim::technology::Technology;

fn main() {
    let opts = HarnessOptions::from_args();
    println!("Fig. 7 — time overhead (%) vs unprotected iso-area baseline\n");
    let rows = sweep_suite(&opts.suite(), Technology::SttMram);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                format!("{:.1}", r.ecim.time_overhead_pct),
                format!("{:.1}", r.trim.time_overhead_pct),
                r.ecim.reclaims.to_string(),
                r.trim.reclaims.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "benchmark",
            "ECiM time overhead (%)",
            "TRiM time overhead (%)",
            "ECiM reclaims",
            "TRiM reclaims",
        ],
        &table,
    );
    finish_harness(&opts, &rows);
}
