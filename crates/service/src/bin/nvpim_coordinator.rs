//! `nvpim-coordinator` — shard one campaign across a fleet of
//! `nvpim-serviced` workers and merge the result.
//!
//! ```text
//! nvpim-coordinator --fleet HOST:PORT[,HOST:PORT...]
//!     [--plan quick|paper_scale|@FILE.json] [--shards N]
//!     [--heartbeat-ms N] [--connect-timeout-ms N] [--max-reassignments N]
//!     [--backoff-ms N] [--out PATH] [--stats-out PATH] [--metrics-out PATH]
//! ```
//!
//! The merged report JSON goes to stdout (or `--out`) and is
//! byte-identical to a single-daemon run of the same plan: workers that
//! die, stall, or drain mid-campaign cost throughput, never correctness.
//! Fleet robustness counters and per-worker transfer accounting go to
//! `--stats-out` as JSON and `--metrics-out` as Prometheus text; a
//! one-line summary always lands on stderr. See `docs/robustness.md`.

use nvpim_service::coordinator::{run_fleet, FleetConfig};
use nvpim_service::flags::value_of;
use nvpim_sweep::{SweepPlan, Telemetry};
use serde::Serialize;

fn numeric<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    match value_of(args, flag) {
        None => default,
        Some(text) => text.parse().unwrap_or_else(|_| {
            eprintln!("nvpim-coordinator: {flag} expects a number, got `{text}`");
            std::process::exit(2);
        }),
    }
}

fn load_plan(spec: &str) -> SweepPlan {
    match spec {
        "quick" => SweepPlan::quick(),
        "paper_scale" => SweepPlan::paper_scale(),
        other => {
            let Some(path) = other.strip_prefix('@') else {
                eprintln!(
                    "nvpim-coordinator: --plan expects quick, paper_scale, or @FILE.json, \
                     got `{other}`"
                );
                std::process::exit(2);
            };
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("nvpim-coordinator: cannot read plan file `{path}`: {e}");
                std::process::exit(2);
            });
            let value = serde_json::from_str(&text).unwrap_or_else(|e| {
                eprintln!("nvpim-coordinator: plan file `{path}` is not valid JSON: {e}");
                std::process::exit(2);
            });
            SweepPlan::from_json_value(&value).unwrap_or_else(|e| {
                eprintln!("nvpim-coordinator: plan file `{path}` is not a valid plan: {e}");
                std::process::exit(2);
            })
        }
    }
}

fn write_or_die(path: &str, contents: &str, what: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("nvpim-coordinator: cannot write {what} to `{path}`: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "nvpim-coordinator --fleet HOST:PORT[,HOST:PORT...] \
             [--plan quick|paper_scale|@FILE.json] [--shards N] \
             [--heartbeat-ms N] [--connect-timeout-ms N] [--max-reassignments N] \
             [--backoff-ms N] [--out PATH] [--stats-out PATH] [--metrics-out PATH]\n\n  \
             --fleet A,B,...         worker daemon addresses (required)\n  \
             --plan SPEC             named plan or @FILE.json (default quick)\n  \
             --shards N              shard count; 0 = one per worker (default 0)\n  \
             --heartbeat-ms N        stall deadline per worker (default 2000)\n  \
             --connect-timeout-ms N  TCP connect timeout (default 1000)\n  \
             --max-reassignments N   per-shard retry budget (default 8)\n  \
             --backoff-ms N          base jittered-backoff delay (default 50)\n  \
             --out PATH              merged report JSON (default stdout)\n  \
             --stats-out PATH        fleet stats JSON (also printed to stderr)\n  \
             --metrics-out PATH      Prometheus metrics text for scraping/CI"
        );
        return;
    }
    let Some(fleet) = value_of(&args, "--fleet") else {
        eprintln!("nvpim-coordinator: --fleet HOST:PORT[,HOST:PORT...] is required (see --help)");
        std::process::exit(2);
    };
    let workers: Vec<String> = fleet
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    let plan = load_plan(&value_of(&args, "--plan").unwrap_or_else(|| "quick".to_string()));
    let defaults = FleetConfig::default();
    let cfg = FleetConfig {
        workers,
        shards: numeric(&args, "--shards", defaults.shards),
        heartbeat_timeout_ms: numeric(&args, "--heartbeat-ms", defaults.heartbeat_timeout_ms),
        connect_timeout_ms: numeric(&args, "--connect-timeout-ms", defaults.connect_timeout_ms),
        max_shard_reassignments: numeric(
            &args,
            "--max-reassignments",
            defaults.max_shard_reassignments,
        ),
        retry_backoff_ms: numeric(&args, "--backoff-ms", defaults.retry_backoff_ms),
    };
    let telemetry = Telemetry::new();
    let outcome = match run_fleet(&plan, &cfg, &telemetry) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("nvpim-coordinator: {e}");
            std::process::exit(1);
        }
    };
    let report_json = outcome.report.to_json();
    match value_of(&args, "--out") {
        Some(path) => write_or_die(&path, &report_json, "report"),
        None => println!("{report_json}"),
    }
    let stats_json = serde_json::to_string(&outcome.stats.to_json()).unwrap_or_default();
    if let Some(path) = value_of(&args, "--stats-out") {
        write_or_die(&path, &stats_json, "fleet stats");
    }
    if let Some(path) = value_of(&args, "--metrics-out") {
        write_or_die(
            &path,
            &telemetry.snapshot().render_prometheus(),
            "fleet metrics",
        );
    }
    eprintln!(
        "nvpim-coordinator: {} shard(s) across {} worker(s); {} reassigned, {} eviction(s), \
         {} heartbeat miss(es)",
        outcome.stats.shards_total,
        outcome.stats.workers.len(),
        outcome.stats.shards_reassigned,
        outcome.stats.worker_evictions,
        outcome.stats.heartbeat_misses,
    );
    eprintln!("{stats_json}");
}
