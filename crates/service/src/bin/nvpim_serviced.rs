//! `nvpim-serviced` — the campaign daemon.
//!
//! ```text
//! nvpim-serviced [--addr HOST:PORT] [--workers N] [--queue-capacity N] [--checkpoint-ms N]
//!                [--log-json PATH] [--state-dir DIR]
//!                [--shutdown-grace-ms N] [--max-trials-per-job N]
//! ```
//!
//! Every flag takes a value; an unknown flag, or one without its value,
//! exits with status 2 before anything starts.
//!
//! Binds the address (default `127.0.0.1:7171`; use port `0` for an
//! OS-assigned port), prints `nvpim-serviced listening on <addr>`, and
//! serves the NDJSON protocol until a client sends `{"cmd":"shutdown"}`.
//! A shutdown drains: running campaigns stop at their next checkpoint,
//! queued ones never start, and the daemon exits within
//! `--shutdown-grace-ms` (default 5000).
//!
//! With `--state-dir`, the daemon keeps a durable job journal and a
//! disk-backed report store under that directory and recovers jobs —
//! including in-flight campaigns, resumed from their last checkpoint — on
//! restart, drained ones included. Without it, the jobs a shutdown stops
//! end `cancelled`. `--checkpoint-ms` sets how often a running campaign
//! checkpoints (the crash-loss window); see `docs/robustness.md`.

use nvpim_service::flags::value_of;
use nvpim_service::service::{ServiceConfig, ServiceHandle};

/// Every flag the daemon takes, each followed by its value.
const FLAGS: [&str; 8] = [
    "--addr",
    "--workers",
    "--queue-capacity",
    "--checkpoint-ms",
    "--log-json",
    "--state-dir",
    "--shutdown-grace-ms",
    "--max-trials-per-job",
];

/// Cadences at or above this are refused: half the fleet's default 2 s
/// heartbeat deadline, since `shard_chunk` frames double as heartbeats.
const MAX_CHECKPOINT_MS: u64 = 1_000;

fn numeric_arg(args: &[String], flag: &str, default: usize) -> usize {
    match value_of(args, flag) {
        None => default,
        Some(text) => text.parse().unwrap_or_else(|_| {
            eprintln!("nvpim-serviced: {flag} expects a number, got `{text}`");
            std::process::exit(2);
        }),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "nvpim-serviced [--addr HOST:PORT] [--workers N] [--queue-capacity N] \
             [--checkpoint-ms N] [--log-json PATH] \
             [--state-dir DIR] [--shutdown-grace-ms N] [--max-trials-per-job N]\n\n  \
             --checkpoint-ms N       checkpoint a running campaign (journal record, progress,\n                          \
             cancel/drain check, run_shard frame) at most every N ms;\n                          \
             the crash-loss window; 0 = every completed task; must be\n                          \
             below 1000 (default 250)\n  \
             --log-json PATH         append one NDJSON event per job transition/checkpoint to PATH\n  \
             --state-dir DIR         durable journal (fsync'd per record) + report store;\n                          \
             recover jobs on restart\n  \
             --max-trials-per-job N  reject plans (and shard ranges) over N trials with\n                          \
             `plan_too_large` (default 10000000000)\n  \
             --shutdown-grace-ms N   shutdown drains: running jobs stop at their next checkpoint,\n                          \
             queued jobs never start, and the daemon exits within ~N ms;\n                          \
             with --state-dir they resume on restart, without it they\n                          \
             end cancelled (default 5000)"
        );
        return;
    }
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        if !FLAGS.contains(&flag.as_str()) {
            eprintln!("nvpim-serviced: unknown flag `{flag}` (see --help)");
            std::process::exit(2);
        }
        if rest.next().is_none() {
            eprintln!("nvpim-serviced: {flag} expects a value");
            std::process::exit(2);
        }
    }
    let addr = value_of(&args, "--addr").unwrap_or_else(|| "127.0.0.1:7171".to_string());
    let defaults = ServiceConfig::default();
    let log_json = value_of(&args, "--log-json").map(std::path::PathBuf::from);
    let state_dir = value_of(&args, "--state-dir").map(std::path::PathBuf::from);
    let checkpoint_ms =
        numeric_arg(&args, "--checkpoint-ms", defaults.checkpoint_ms as usize) as u64;
    if checkpoint_ms >= MAX_CHECKPOINT_MS {
        eprintln!(
            "nvpim-serviced: --checkpoint-ms {checkpoint_ms} must be below {MAX_CHECKPOINT_MS}: \
             run_shard streams double as fleet heartbeats"
        );
        std::process::exit(2);
    }
    let cfg = ServiceConfig {
        workers: numeric_arg(&args, "--workers", defaults.workers),
        queue_capacity: numeric_arg(&args, "--queue-capacity", defaults.queue_capacity),
        checkpoint_ms,
        max_trials_per_job: numeric_arg(
            &args,
            "--max-trials-per-job",
            defaults.max_trials_per_job as usize,
        ) as u64,
        log_json,
        state_dir,
        shutdown_grace_ms: numeric_arg(
            &args,
            "--shutdown-grace-ms",
            defaults.shutdown_grace_ms as usize,
        ) as u64,
        ..defaults
    };
    let service = ServiceHandle::start(cfg);
    if let Err(e) = nvpim_service::run_server(&addr, &service) {
        eprintln!("nvpim-serviced: {e}");
        std::process::exit(1);
    }
}
