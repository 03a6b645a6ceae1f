//! Campaign-builder quickstart: run a Monte Carlo fault-injection campaign
//! through the `nvpim` facade's one-stop entry point — no internal crate
//! imports, no hand-assembled plan.
//!
//! The scheme axis is open-ended: any scheme in the compile-time registry
//! works, including the detection-only `ParityDetect` regime that landed
//! purely through the scheme-as-plugin path.
//!
//! Run with: `cargo run --release --example campaign_builder`

use nvpim::{Campaign, ProtectionScheme, Technology};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let campaign = Campaign::builder()
        .technology(Technology::SttMram)
        .scheme(ProtectionScheme::Unprotected)
        .scheme(ProtectionScheme::Ecim)
        .scheme(ProtectionScheme::ParityDetect)
        .rate_grid([1e-4, 1e-3])
        .trials(64)
        .seed(0x5eed)
        .build()?;

    println!(
        "running {} points x {} trials",
        campaign.plan().point_count(),
        campaign.plan().seeds_per_point
    );
    let report = campaign.run()?;

    println!(
        "{:<16} {:>8} {:>9} {:>8} {:>7}",
        "protection", "rate", "detected", "failed", "silent"
    );
    for point in &report.points {
        println!(
            "{:<16} {:>8.0e} {:>9} {:>8} {:>7}",
            point.protection,
            point.gate_error_rate,
            point.errors_detected,
            point.failed_trials,
            point.silent_failures
        );
    }
    println!(
        "total: {} trials, {} failed, {} exec errors",
        report.total_trials, report.total_failed_trials, report.total_exec_errors
    );
    Ok(())
}
