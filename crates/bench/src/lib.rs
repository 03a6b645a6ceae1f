//! # nvpim-bench
//!
//! Shared harness for regenerating every table and figure of the paper's
//! evaluation. Each `src/bin/*.rs` binary reproduces one artifact:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table2_design_space`  | Table II — asymptotic SEP design space |
//! | `table3_technology`    | Table III — technology parameters |
//! | `table4_area_reclaims` | Table IV — number of area reclaims |
//! | `table5_energy_overhead` | Table V — energy overhead vs unprotected baseline |
//! | `fig6_sep_cases`       | Fig. 6 — SEP guarantee case analysis |
//! | `fig7_time_overhead`   | Fig. 7 — time overhead vs unprotected baseline |
//! | `fig8_parity_bits`     | Fig. 8 — parity bits vs correctable errors |
//! | `fig9_electrical`      | Fig. 9 — noise margins and bias voltages |
//!
//! Every binary accepts `--quick` to run the reduced smoke suite instead of
//! the full twelve-benchmark sweep, and `--json` to emit machine-readable
//! output alongside the human-readable table.

#![warn(missing_docs)]

use nvpim::core::system::{compare, evaluate, ExecutionEstimate, OverheadReport};
use nvpim::{Benchmark, DesignConfig, Technology};
use serde::Serialize;

/// Command-line options shared by the harness binaries.
#[derive(Debug, Clone, Default)]
pub struct HarnessOptions {
    /// Run the reduced smoke suite instead of the full paper suite.
    pub quick: bool,
    /// Also emit JSON to stdout after the table.
    pub json: bool,
    /// Additionally run a Monte Carlo fault-injection campaign
    /// (`nvpim-sweep`) alongside the analytic table.
    pub sweep: bool,
}

impl HarnessOptions {
    /// Parses options from `std::env::args`. `--list-schemes` prints the
    /// protection-scheme registry (with per-scheme capabilities) and exits,
    /// so every harness binary answers "which schemes can I sweep?" without
    /// running anything.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        if nvpim::service::flags::has_flag(&args, "--list-schemes") {
            print_scheme_registry();
            std::process::exit(0);
        }
        Self::parse(&args)
    }

    /// Parses options from an explicit argument list (testable core of
    /// [`Self::from_args`]).
    pub fn parse(args: &[String]) -> Self {
        use nvpim::service::flags::has_flag;
        Self {
            quick: has_flag(args, "--quick"),
            json: has_flag(args, "--json"),
            sweep: has_flag(args, "--sweep"),
        }
    }

    /// The benchmark suite selected by these options.
    pub fn suite(&self) -> Vec<Benchmark> {
        if self.quick {
            Benchmark::smoke_suite()
        } else {
            Benchmark::paper_suite()
        }
    }
}

/// One row of a benchmark sweep: the protected designs' overheads relative
/// to the iso-area unprotected baseline.
#[derive(Debug, Clone, Serialize)]
pub struct SweepRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Technology.
    pub technology: String,
    /// ECiM (multi-output) overheads.
    pub ecim: OverheadReport,
    /// TRiM (multi-output) overheads.
    pub trim: OverheadReport,
    /// ECiM single-output energy overhead.
    pub ecim_single_output_energy: f64,
    /// TRiM single-output energy overhead.
    pub trim_single_output_energy: f64,
}

/// Evaluates one benchmark on one technology across the unprotected
/// baseline, ECiM and TRiM (both gate styles), reusing the per-design
/// compiled schedules.
pub fn sweep_benchmark(bench: Benchmark, technology: Technology) -> SweepRow {
    let netlist = bench.row_netlist();
    let shape = bench.shape();
    let run = |config: &DesignConfig| -> ExecutionEstimate {
        evaluate(&netlist, &shape, config).expect("paper workloads fit the 256-column row")
    };
    let baseline = run(&DesignConfig::unprotected(technology));
    let ecim = run(&DesignConfig::ecim(technology));
    let trim = run(&DesignConfig::trim(technology));
    let ecim_so = run(&DesignConfig::ecim(technology).with_single_output_gates());
    let trim_so = run(&DesignConfig::trim(technology).with_single_output_gates());
    SweepRow {
        benchmark: bench.name(),
        technology: technology.to_string(),
        ecim: compare(&ecim, &baseline),
        trim: compare(&trim, &baseline),
        ecim_single_output_energy: compare(&ecim_so, &baseline).energy_overhead,
        trim_single_output_energy: compare(&trim_so, &baseline).energy_overhead,
    }
}

/// Runs the sweep for every benchmark in the suite on one technology.
pub fn sweep_suite(suite: &[Benchmark], technology: Technology) -> Vec<SweepRow> {
    suite
        .iter()
        .map(|&b| sweep_benchmark(b, technology))
        .collect()
}

/// Prints the compile-time protection-scheme registry with per-scheme
/// capabilities (evaluated at the paper's standard STT-MRAM design point)
/// — the `--list-schemes` output shared by every harness binary.
pub fn print_scheme_registry() {
    let rows: Vec<Vec<String>> = nvpim::scheme_capabilities()
        .into_iter()
        .map(|(scheme, caps)| {
            vec![
                scheme.wire_name().to_string(),
                scheme.name().to_string(),
                caps.detect_only.to_string(),
                caps.parity_bits.to_string(),
                caps.metadata_columns.to_string(),
                caps.cells_per_value.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "scheme",
            "display",
            "detect-only",
            "parity bits",
            "metadata cols",
            "cells/value",
        ],
        &rows,
    );
}

/// Prints a simple fixed-width table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect();
        println!("| {} |", joined.join(" | "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row);
    }
}

/// Serializes a value as pretty JSON for the `--json` flag.
pub fn print_json<T: Serialize>(value: &T) {
    println!(
        "{}",
        serde_json::to_string_pretty(value).expect("harness results serialize to JSON")
    );
}

/// Runs the Monte Carlo fault-injection campaign behind the `--sweep` flag
/// and prints its per-point table (plus JSON when `json` is set).
///
/// The analytic tables above estimate *cost*; this campaign measures
/// *efficacy*: how often injected faults corrupt the final output under
/// each protection scheme, with detection / correction / silent-error
/// counters per campaign point.
pub fn run_monte_carlo_sweep(opts: &HarnessOptions) {
    let plan = if opts.quick {
        nvpim::SweepPlan::quick()
    } else {
        nvpim::SweepPlan::paper_scale()
    };
    println!(
        "\nMonte Carlo fault sweep — {} points x {} seeds = {} trials",
        plan.point_count(),
        plan.seeds_per_point,
        plan.trial_count()
    );
    let report = nvpim::sweep::run_campaign(&plan).expect("sweep campaign plans are executable");
    let rows: Vec<Vec<String>> = report
        .points
        .iter()
        .map(|p| {
            vec![
                p.workload.clone(),
                p.technology.clone(),
                p.protection.clone(),
                format!("{:.0e}", p.gate_error_rate),
                p.faults_injected.to_string(),
                p.errors_detected.to_string(),
                p.corrections_written_back.to_string(),
                p.failed_trials.to_string(),
                p.silent_failures.to_string(),
                p.exec_errors.to_string(),
                format!("{:.3}", p.output_error_rate),
            ]
        })
        .collect();
    print_table(
        &[
            "workload",
            "technology",
            "protection",
            "rate",
            "faults",
            "detected",
            "corrected",
            "failed",
            "silent",
            "exec errs",
            "out err rate",
        ],
        &rows,
    );
    println!(
        "({} schedules compiled for {} points; schedule cache shared the rest)",
        report.schedules_compiled,
        report.points.len()
    );
    if report.total_exec_errors > 0 {
        println!(
            "WARNING: {} trials failed to execute at all — the error rates above \
             rest on fewer trials than planned",
            report.total_exec_errors
        );
    }
    if opts.json {
        println!("{}", report.to_json());
    }
}

/// The shared tail of every harness binary: emit JSON when requested, then
/// run the `--sweep` Monte Carlo campaign. To run that campaign on a daemon
/// instead, submit the same named plan with `nvpim-cli submit --wait`.
pub fn finish_harness<T: Serialize>(opts: &HarnessOptions, rows: &T) {
    if opts.json {
        print_json(rows);
    }
    if opts.sweep {
        run_monte_carlo_sweep(opts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_smoke_benchmark_produces_positive_overheads() {
        let row = sweep_benchmark(Benchmark::MatMul { dim: 8 }, Technology::SttMram);
        assert_eq!(row.benchmark, "mm8");
        assert!(row.ecim.time_overhead_pct > 0.0);
        assert!(row.trim.time_overhead_pct > 0.0);
        assert!(row.ecim.energy_overhead > 0.0);
        assert!(row.ecim_single_output_energy > row.ecim.energy_overhead);
        assert!(row.trim_single_output_energy > row.trim.energy_overhead);
    }

    #[test]
    fn options_default_to_full_suite() {
        let opts = HarnessOptions::default();
        assert_eq!(opts.suite().len(), 12);
        let quick = HarnessOptions {
            quick: true,
            ..Default::default()
        };
        assert_eq!(quick.suite().len(), 3);
    }

    #[test]
    fn parse_handles_service_flags() {
        let args: Vec<String> = ["bin", "--quick", "--sweep", "--unknown"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = HarnessOptions::parse(&args);
        assert!(opts.quick && opts.sweep && !opts.json);
        let json: Vec<String> = ["bin", "--json"].iter().map(|s| s.to_string()).collect();
        let opts = HarnessOptions::parse(&json);
        assert!(opts.json && !opts.quick && !opts.sweep);
    }
}
