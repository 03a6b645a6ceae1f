//! The fleet coordinator: one campaign, many daemons, zero recompute on
//! failure.
//!
//! [`run_fleet`] cuts a plan's plan-ordered trial list into contiguous
//! shards ([`nvpim_sweep::shard_ranges`]) and drives them across a fleet of
//! `nvpim-serviced` workers over the NDJSON protocol's `ping`/`run_shard`
//! commands. Chunk-invariance makes this legal: every trial outcome is a
//! pure function of `(point, campaign seed, trial index)`, and workers
//! stream per-point tallies, which merge in any order into the tallies of
//! the whole campaign — whose report is byte-identical to a single-daemon
//! run.
//!
//! The failure model (see `docs/robustness.md`):
//!
//! * **Heartbeats.** Each worker agent pings before claiming work, and
//!   the `shard_chunk` stream doubles as a heartbeat while a shard runs —
//!   the read timeout is the heartbeat deadline, so a SIGSTOPped or
//!   wedged daemon surfaces as a timeout, not a hang.
//! * **Shard leases.** A claimed shard belongs to its worker until the
//!   worker completes it, misses its deadline, disconnects, or drains.
//!   Every streamed chunk's tallies are merged as they arrive; on failure
//!   the shard returns to the pending pool and its next owner runs only
//!   the trials after the last chunk checkpoint.
//! * **Bounded retry.** Re-assignments back off with jittered exponential
//!   delay and are bounded per shard; a shard failing everywhere aborts
//!   the fleet rather than looping forever.
//! * **Degraded merge.** Losing workers shrinks throughput, never
//!   correctness: every chunk is checked against the trials it must cover
//!   before it is merged, the merged tallies are aggregated locally, and
//!   the merge fails loudly if any trial is missing.

mod board;
mod worker;

use std::time::{Duration, Instant};

use serde::{Serialize, Value};

use board::{Abort, Board, ShardSpec};
use worker::{AttemptEnd, Ping, WorkerLink};

use nvpim_sweep::{
    prepare_campaign, shard_ranges, ScheduleCache, SweepError, SweepPlan, SweepReport,
};
use nvpim_telemetry::{Counter, Telemetry};

/// Heartbeat deadline: a worker that streams no chunk (or answers no
/// ping) for this long is considered stalled. Workers stream chunks at
/// their own checkpoint cadence (`nvpim-serviced --checkpoint-ms`, default
/// 250 ms, which the daemon caps below 1 s), so the deadline must
/// comfortably exceed that cap plus the longest single task: a shorter one
/// would evict healthy workers.
const HEARTBEAT_TIMEOUT: Duration = Duration::from_millis(2_000);
/// TCP connect timeout per worker.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(1_000);
/// Per-shard re-assignment budget before the fleet gives up.
const MAX_SHARD_REASSIGNMENTS: u32 = 8;
/// Base for the jittered exponential backoff between re-assignments of the
/// same shard.
const RETRY_BACKOFF_MS: u64 = 50;

/// Fleet topology: which workers serve the campaign, cut into how many
/// shards.
#[derive(Debug, Clone, Default)]
pub struct FleetConfig {
    /// Worker daemon addresses (`host:port`).
    pub workers: Vec<String>,
    /// Shard count; `0` means one shard per worker. More shards than
    /// workers gives finer-grained re-assignment (less lost work per
    /// failure) at the cost of more protocol round-trips.
    pub shards: usize,
}

/// Errors raised by [`run_fleet`].
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// The config listed no workers.
    NoWorkers,
    /// The plan failed validation or preparation.
    InvalidPlan(SweepError),
    /// One shard exceeded its re-assignment budget.
    ShardExhausted {
        /// Index of the failing shard.
        shard: usize,
        /// Attempts consumed.
        attempts: u32,
        /// The last classified failure.
        last_error: String,
    },
    /// Every worker died or drained with shards still unfinished.
    WorkersExhausted {
        /// Shards not yet completed when the last worker left.
        unfinished: usize,
    },
    /// The merged tallies failed to aggregate (a coordinator bug —
    /// chunk-invariance means complete tallies always aggregate).
    Merge(SweepError),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::NoWorkers => write!(f, "no worker addresses configured"),
            FleetError::InvalidPlan(e) => write!(f, "invalid plan: {e}"),
            FleetError::ShardExhausted {
                shard,
                attempts,
                last_error,
            } => write!(
                f,
                "shard {shard} failed on every worker ({attempts} attempts; last: {last_error})"
            ),
            FleetError::WorkersExhausted { unfinished } => write!(
                f,
                "every worker died or drained with {unfinished} shard(s) unfinished"
            ),
            FleetError::Merge(e) => write!(f, "merge failed: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// Per-worker accounting for the fleet-wide stats view.
#[derive(Debug, Clone, Serialize)]
pub struct WorkerStats {
    /// The worker's address.
    pub addr: String,
    /// Shards this worker ran to completion.
    pub shards_completed: u64,
    /// Trials whose tallies this worker streamed and the coordinator
    /// merged (trials other attempts checkpointed are never re-run).
    pub trials_computed: u64,
    /// Bytes written to this worker across all connections.
    pub bytes_sent: u64,
    /// Bytes read from this worker across all connections.
    pub bytes_received: u64,
    /// Wall-clock seconds spent inside shard attempts on this worker.
    pub busy_seconds: f64,
    /// Heartbeat deadline misses observed (stalls).
    pub heartbeat_misses: u64,
    /// Whether the coordinator evicted this worker (dead or stalled).
    pub evicted: bool,
    /// Whether the worker reported draining (unschedulable, not dead).
    pub drained: bool,
}

impl WorkerStats {
    fn new(addr: &str) -> Self {
        Self {
            addr: addr.to_string(),
            shards_completed: 0,
            trials_computed: 0,
            bytes_sent: 0,
            bytes_received: 0,
            busy_seconds: 0.0,
            heartbeat_misses: 0,
            evicted: false,
            drained: false,
        }
    }
}

/// Fleet-wide robustness counters plus the per-worker breakdown.
#[derive(Debug, Clone, Serialize)]
pub struct FleetStats {
    /// Shards the trial list was cut into.
    pub shards_total: u64,
    /// Shard re-assignments (every hand-off to a different attempt).
    pub shards_reassigned: u64,
    /// Workers evicted for death or stalls.
    pub worker_evictions: u64,
    /// Heartbeat deadline misses across the fleet.
    pub heartbeat_misses: u64,
    /// Per-worker accounting.
    pub workers: Vec<WorkerStats>,
}

/// A merged fleet run: the report (byte-identical to a one-daemon run)
/// plus the robustness accounting.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The merged campaign report.
    pub report: SweepReport,
    /// Fleet-wide stats.
    pub stats: FleetStats,
}

/// Jittered exponential backoff before retry `attempt` (0-based) — of a
/// shard here, of a connection in `nvpim-cli`: the ceiling is
/// `base_ms · 2^attempt` (capped at 5 s) and the delay lands uniformly in
/// `[ceiling/2, ceiling]` so simultaneous failures don't retry in
/// lockstep. The jitter comes from a SystemTime-seeded xorshift: retry
/// timing is outside every determinism guarantee, which covers report
/// bytes only.
pub fn jittered_backoff(base_ms: u64, attempt: u32) -> Duration {
    let ceiling = base_ms
        .max(1)
        .saturating_mul(1 << attempt.min(6))
        .min(5_000);
    let seed = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0x9e37_79b9, |d| d.subsec_nanos() as u64 | 1);
    let mut x = seed;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    let half = ceiling / 2;
    Duration::from_millis(half + x % (ceiling - half + 1))
}

/// Runs `plan` across the fleet and merges the shards into one report.
///
/// The returned report is byte-identical to `run_campaign(plan)` on a
/// single machine — sharding, worker failure, and re-assignment never
/// change report bytes (the chaos suite enforces this under SIGKILL,
/// SIGSTOP, and disconnects). Robustness counters are mirrored into
/// `telemetry` (`shards_reassigned`, `worker_evictions`,
/// `heartbeat_misses`) alongside per-worker labeled transfer series.
///
/// # Errors
///
/// [`FleetError`] on an empty fleet, invalid plan, exhausted shard
/// budget, or total worker loss.
pub fn run_fleet(
    plan: &SweepPlan,
    cfg: &FleetConfig,
    telemetry: &Telemetry,
) -> Result<FleetOutcome, FleetError> {
    if cfg.workers.is_empty() {
        return Err(FleetError::NoWorkers);
    }
    let mut cache = ScheduleCache::new();
    let prepared = prepare_campaign(plan, &mut cache).map_err(FleetError::InvalidPlan)?;
    let shard_count = if cfg.shards == 0 {
        cfg.workers.len()
    } else {
        cfg.shards
    };
    let specs: Vec<ShardSpec> = shard_ranges(prepared.trial_count(), shard_count)
        .into_iter()
        .enumerate()
        .map(|(index, (start, end))| ShardSpec { index, start, end })
        .collect();
    let shards_total = specs.len() as u64;
    let board = Board::new(specs, cfg.workers.len(), plan.seeds_per_point);
    let plan_json = plan.to_json();

    let worker_stats: Vec<WorkerStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = cfg
            .workers
            .iter()
            .map(|addr| {
                let board = &board;
                let plan_json = &plan_json;
                scope.spawn(move || worker_loop(addr, plan_json, board, telemetry))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("worker agent never panics"))
            .collect()
    });

    let stats = FleetStats {
        shards_total,
        shards_reassigned: board.reassigned(),
        worker_evictions: worker_stats.iter().filter(|w| w.evicted).count() as u64,
        heartbeat_misses: worker_stats.iter().map(|w| w.heartbeat_misses).sum(),
        workers: worker_stats,
    };
    for worker in &stats.workers {
        telemetry.add_labeled(
            "fleet_worker_trials",
            "worker",
            &worker.addr,
            worker.trials_computed,
        );
        telemetry.add_labeled(
            "fleet_worker_bytes_sent",
            "worker",
            &worker.addr,
            worker.bytes_sent,
        );
        telemetry.add_labeled(
            "fleet_worker_bytes_received",
            "worker",
            &worker.addr,
            worker.bytes_received,
        );
    }

    let tallies = board.finish().map_err(|abort| match abort {
        Abort::ShardExhausted {
            shard,
            attempts,
            last_error,
        } => FleetError::ShardExhausted {
            shard,
            attempts,
            last_error,
        },
        Abort::WorkersExhausted { unfinished } => FleetError::WorkersExhausted { unfinished },
    })?;
    let report = prepared
        .report_from_tallies(&tallies)
        .map_err(FleetError::Merge)?;
    Ok(FleetOutcome { report, stats })
}

/// One worker agent: claims shards off the board and drives them on a
/// single daemon until the work runs out or the worker stops cooperating.
fn worker_loop(addr: &str, plan_json: &Value, board: &Board, telemetry: &Telemetry) -> WorkerStats {
    let mut link = WorkerLink::new(addr, CONNECT_TIMEOUT, HEARTBEAT_TIMEOUT);
    let mut stats = WorkerStats::new(addr);
    let mut busy = Duration::ZERO;
    loop {
        // Health-check before claiming, so a dead or draining worker
        // never holds a shard lease it cannot serve.
        match link.ping() {
            Ping::Healthy => {}
            Ping::Draining => {
                stats.drained = true;
                break;
            }
            Ping::Stalled => {
                stats.heartbeat_misses += 1;
                telemetry.add(Counter::HeartbeatMisses, 1);
                evict(&mut stats, telemetry);
                break;
            }
            Ping::Unreachable => {
                evict(&mut stats, telemetry);
                break;
            }
        }
        let Some(claim) = board.claim() else {
            break; // all shards done (or the fleet aborted)
        };
        let spec = claim.spec;
        let attempts = claim.attempts;
        let started = Instant::now();
        let end = link.run_shard(plan_json, claim.remaining(), &mut |tallies| {
            board.checkpoint(spec.index, tallies)?;
            stats.trials_computed += tallies.trials();
            Ok(())
        });
        busy += started.elapsed();
        let (next_attempts, backoff, why) = match end {
            AttemptEnd::Completed => {
                stats.shards_completed += 1;
                board.complete(spec.index);
                continue;
            }
            // Unschedulable, not dead: hand the shard off and stop
            // scheduling here, without an eviction or a retry penalty.
            AttemptEnd::Draining => {
                stats.drained = true;
                (attempts, Duration::ZERO, "worker draining".to_string())
            }
            AttemptEnd::HeartbeatMiss => {
                stats.heartbeat_misses += 1;
                telemetry.add(Counter::HeartbeatMisses, 1);
                evict(&mut stats, telemetry);
                let why = "heartbeat deadline missed".to_string();
                (
                    attempts + 1,
                    jittered_backoff(RETRY_BACKOFF_MS, attempts),
                    why,
                )
            }
            AttemptEnd::Disconnect => {
                evict(&mut stats, telemetry);
                let why = "worker disconnected".to_string();
                (
                    attempts + 1,
                    jittered_backoff(RETRY_BACKOFF_MS, attempts),
                    why,
                )
            }
            // The worker answered coherently — the shard request itself
            // failed. Requeue with a penalty but keep the worker in the
            // pool.
            AttemptEnd::Rejected(why) => (
                attempts + 1,
                jittered_backoff(RETRY_BACKOFF_MS, attempts),
                why,
            ),
        };
        if board.requeue(
            spec.index,
            next_attempts,
            MAX_SHARD_REASSIGNMENTS,
            backoff,
            &why,
        ) {
            telemetry.add(Counter::ShardsReassigned, 1);
        }
        if stats.drained || stats.evicted {
            break;
        }
    }
    board.worker_gone();
    let (sent, received) = link.bytes();
    stats.bytes_sent = sent;
    stats.bytes_received = received;
    stats.busy_seconds = busy.as_secs_f64();
    stats
}

fn evict(stats: &mut WorkerStats, telemetry: &Telemetry) {
    if !stats.evicted {
        stats.evicted = true;
        telemetry.add(Counter::WorkerEvictions, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ServiceConfig, ServiceHandle};

    fn spawn_daemon(cfg: ServiceConfig) -> (String, ServiceHandle) {
        let service = ServiceHandle::start(cfg);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        let serve_handle = service.clone();
        std::thread::spawn(move || {
            let _ = crate::server::serve(&serve_handle, listener);
        });
        (addr, service)
    }

    fn tiny_plan() -> SweepPlan {
        let mut plan = SweepPlan::quick();
        plan.seeds_per_point = 2;
        plan
    }

    #[test]
    fn fleet_report_matches_a_single_node_run() {
        let (addr_a, _svc_a) = spawn_daemon(ServiceConfig::default());
        let (addr_b, _svc_b) = spawn_daemon(ServiceConfig::default());
        let plan = tiny_plan();
        let baseline = nvpim_sweep::run_campaign(&plan).expect("baseline runs");
        let cfg = FleetConfig {
            workers: vec![addr_a, addr_b],
            shards: 4,
        };
        let outcome = run_fleet(&plan, &cfg, &Telemetry::disabled()).expect("fleet runs");
        assert_eq!(
            outcome.report.to_json(),
            baseline.to_json(),
            "sharded fleet run must be byte-identical to one-daemon run"
        );
        assert_eq!(outcome.stats.shards_total, 4);
        let completed: u64 = outcome
            .stats
            .workers
            .iter()
            .map(|w| w.shards_completed)
            .sum();
        assert_eq!(completed, 4);
        let computed: u64 = outcome
            .stats
            .workers
            .iter()
            .map(|w| w.trials_computed)
            .sum();
        assert_eq!(computed, plan.trial_count());
        for worker in &outcome.stats.workers {
            assert!(worker.bytes_sent > 0, "request bytes accounted");
            assert!(worker.bytes_received > 0, "response bytes accounted");
        }
    }

    #[test]
    fn draining_worker_is_unschedulable_not_fatal() {
        let (addr_live, _svc_live) = spawn_daemon(ServiceConfig::default());
        let (addr_drain, svc_drain) = spawn_daemon(ServiceConfig::default());
        svc_drain.begin_drain();
        let plan = tiny_plan();
        let baseline = nvpim_sweep::run_campaign(&plan).expect("baseline runs");
        let cfg = FleetConfig {
            workers: vec![addr_live, addr_drain.clone()],
            shards: 2,
        };
        let outcome = run_fleet(&plan, &cfg, &Telemetry::disabled()).expect("fleet survives");
        assert_eq!(outcome.report.to_json(), baseline.to_json());
        let drained = outcome
            .stats
            .workers
            .iter()
            .find(|w| w.addr == addr_drain)
            .expect("drained worker accounted");
        assert!(drained.drained, "ping classified the worker as draining");
        assert!(!drained.evicted, "draining is not an eviction");
        assert_eq!(drained.shards_completed, 0);
        assert_eq!(outcome.stats.worker_evictions, 0);
    }

    #[test]
    fn dead_worker_address_is_evicted_and_work_reroutes() {
        let (addr_live, _svc) = spawn_daemon(ServiceConfig::default());
        // A port nothing listens on: connect fails fast with ECONNREFUSED.
        let dead = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr_dead = dead.local_addr().expect("local addr").to_string();
        drop(dead);
        let plan = tiny_plan();
        let baseline = nvpim_sweep::run_campaign(&plan).expect("baseline runs");
        let telemetry = Telemetry::new();
        let cfg = FleetConfig {
            workers: vec![addr_live, addr_dead],
            shards: 3,
        };
        let outcome = run_fleet(&plan, &cfg, &telemetry).expect("fleet survives one death");
        assert_eq!(outcome.report.to_json(), baseline.to_json());
        assert_eq!(outcome.stats.worker_evictions, 1);
        let snapshot = telemetry.snapshot();
        assert_eq!(snapshot.counter(Counter::WorkerEvictions), 1);
    }

    #[test]
    fn empty_fleet_and_backoff_bounds_are_sane() {
        let err = run_fleet(
            &tiny_plan(),
            &FleetConfig::default(),
            &Telemetry::disabled(),
        )
        .expect_err("no workers");
        assert_eq!(err, FleetError::NoWorkers);
        for attempt in 0..10 {
            let delay = jittered_backoff(50, attempt);
            assert!(delay >= Duration::from_millis(25));
            assert!(delay <= Duration::from_millis(5_000));
        }
    }
}
