//! `nvpim-serviced` processes under the benchmark's control: spawned on an
//! ephemeral loopback port, ready once `ping` answers, always shut down and
//! reaped (and their state dir removed) even when a run fails.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use nvpim_service::client::{request, Client};
use serde::Value;

/// Connect timeout for every benchmark connection.
pub const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// Read timeout for every request: a wedged daemon fails the request
/// instead of hanging the run.
pub const READ_TIMEOUT: Duration = Duration::from_secs(30);
const READY_TIMEOUT: Duration = Duration::from_secs(20);

/// Opens a protocol connection with the benchmark's timeouts.
pub fn connect(addr: &str) -> Result<Client, String> {
    Client::connect_with_timeouts(addr, Some(CONNECT_TIMEOUT), Some(READ_TIMEOUT))
        .map_err(|e| format!("connect {addr}: {e}"))
}

/// Sends one request and returns its single response, refusing error
/// frames.
pub fn call(client: &mut Client, cmd: &str) -> Result<Value, String> {
    let response = client
        .request(&request(cmd, vec![]))
        .map_err(|e| format!("{cmd}: {e}"))?;
    if response.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{cmd} refused: {response:?}"));
    }
    Ok(response)
}

/// A running daemon.
pub struct Daemon {
    /// Its `host:port`.
    pub addr: String,
    /// Its durable state directory, when started with one.
    state_dir: Option<PathBuf>,
    child: Option<Child>,
}

impl Daemon {
    /// Starts `bin` on `127.0.0.1:0` with `args`, logging to `<work>/<name>.log`,
    /// and waits until it answers `ping`. With `durable`, it keeps its journal
    /// and report store in `<work>/<name>-state`.
    pub fn spawn(
        bin: &Path,
        work: &Path,
        name: &str,
        args: &[&str],
        envs: &[(&str, &str)],
        durable: bool,
    ) -> Result<Self, String> {
        let log = work.join(format!("{name}.log"));
        let out = std::fs::File::create(&log).map_err(|e| format!("create {log:?}: {e}"))?;
        let err = out.try_clone().map_err(|e| format!("dup {log:?}: {e}"))?;
        let state_dir = durable.then(|| work.join(format!("{name}-state")));
        let mut command = Command::new(bin);
        command.args(["--addr", "127.0.0.1:0"]).args(args);
        if let Some(dir) = &state_dir {
            command.arg("--state-dir").arg(dir);
        }
        for (key, value) in envs {
            command.env(key, value);
        }
        let child = command
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawn {bin:?}: {e}"))?;
        let mut daemon = Self {
            addr: String::new(),
            state_dir,
            child: Some(child),
        };
        daemon.addr = daemon.await_listening(&log)?;
        daemon.await_pong()?;
        Ok(daemon)
    }

    /// Reads the `listening on <addr>` line the daemon prints at bind time.
    fn await_listening(&mut self, log: &Path) -> Result<String, String> {
        let started = Instant::now();
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(rest) = text.split("listening on ").nth(1) {
                if let Some(addr) = rest.lines().next() {
                    return Ok(addr.trim().to_string());
                }
            }
            if let Some(status) = self.child_mut().try_wait().ok().flatten() {
                return Err(format!("daemon exited at startup ({status}): {text}"));
            }
            if started.elapsed() > READY_TIMEOUT {
                return Err(format!("daemon did not bind within {READY_TIMEOUT:?}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn await_pong(&self) -> Result<(), String> {
        let started = Instant::now();
        loop {
            let pong = connect(&self.addr).and_then(|mut c| call(&mut c, "ping"));
            match pong {
                Ok(frame) if frame.get("event").and_then(Value::as_str) == Some("pong") => {
                    return Ok(())
                }
                _ if started.elapsed() > READY_TIMEOUT => {
                    return Err(format!("{} never answered ping", self.addr))
                }
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    fn child_mut(&mut self) -> &mut Child {
        self.child
            .as_mut()
            .expect("child is present until shutdown")
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Reads the counters this daemon exports: `stats`, `metrics`, its CPU
    /// time, and its state-dir size.
    pub fn snapshot(&self, control: &mut Client) -> Result<Snapshot, String> {
        let stats = call(control, "stats")?
            .get("stats")
            .cloned()
            .ok_or("stats frame without stats")?;
        let metrics_text = call(control, "metrics")?
            .get("metrics")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or("metrics frame without text")?;
        let (journal_bytes, journal_records, store_bytes) = match &self.state_dir {
            None => (0, 0, 0),
            Some(dir) => state_usage(dir)?,
        };
        Ok(Snapshot {
            stats,
            metrics: parse_metrics(&metrics_text),
            cpu_ticks: cpu_ticks(self.pid())?,
            journal_bytes,
            journal_records,
            store_bytes,
        })
    }

    /// Asks the daemon to exit, waits for it, and removes its state dir.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = connect(&self.addr).and_then(|mut c| call(&mut c, "shutdown"));
        let exited = self.reap(Duration::from_secs(10));
        asked?;
        exited
    }

    /// Waits up to `patience` for the process to exit, then kills it.
    fn reap(&mut self, patience: Duration) -> Result<(), String> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        let started = Instant::now();
        let result = loop {
            match child.try_wait() {
                Ok(Some(_)) => break Ok(()),
                Ok(None) if started.elapsed() < patience => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => break Err(format!("{} ignored shutdown; killed", self.addr)),
                Err(e) => break Err(format!("wait on {}: {e}", self.addr)),
            }
        };
        if result.is_err() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(dir) = &self.state_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        result
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
        }
        let _ = self.reap(Duration::ZERO);
    }
}

/// One daemon's exported counters at one instant.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The `stats` payload.
    pub stats: Value,
    /// `metrics` samples by series name (labels included).
    pub metrics: HashMap<String, f64>,
    /// User plus system CPU time, in clock ticks.
    pub cpu_ticks: u64,
    /// Size of `jobs.journal`.
    pub journal_bytes: u64,
    /// Records (lines) in `jobs.journal`.
    pub journal_records: u64,
    /// Total size of the report store directory.
    pub store_bytes: u64,
}

impl Snapshot {
    /// `stats.<key>` as a number (0 when absent or null).
    pub fn stat(&self, key: &str) -> f64 {
        self.stats.get(key).and_then(Value::as_f64).unwrap_or(0.0)
    }

    /// `stats.<summary>.p50_us` in milliseconds (0 when the histogram is empty).
    pub fn p50_ms(&self, summary: &str) -> f64 {
        self.stats
            .get(summary)
            .and_then(|s| s.get("p50_us"))
            .and_then(Value::as_f64)
            .map_or(0.0, |us| us / 1_000.0)
    }

    /// A `metrics` sample (0 when absent).
    pub fn metric(&self, series: &str) -> f64 {
        self.metrics.get(series).copied().unwrap_or(0.0)
    }
}

/// Parses Prometheus text exposition into `series → value`.
fn parse_metrics(text: &str) -> HashMap<String, f64> {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}

fn state_usage(dir: &Path) -> Result<(u64, u64, u64), String> {
    let journal = std::fs::read(dir.join("jobs.journal")).unwrap_or_default();
    let records = journal.iter().filter(|&&b| b == b'\n').count() as u64;
    let mut store = 0;
    if let Ok(entries) = std::fs::read_dir(dir.join("reports")) {
        for entry in entries {
            let meta = entry
                .and_then(|e| e.metadata())
                .map_err(|e| format!("report store: {e}"))?;
            store += meta.len();
        }
    }
    Ok((journal.len() as u64, records, store))
}

/// Peak resident set size (`VmHWM`) of `pid`, in kB.
pub fn peak_rss_kb(pid: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("/proc/{pid}/status has no VmHWM"))
}

/// User plus system CPU time of `pid`, in clock ticks (`utime + stime`).
fn cpu_ticks(pid: u32) -> Result<u64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let field = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (field(11), field(12)) {
        (Some(utime), Some(stime)) => Ok(utime + stime),
        _ => Err(format!("/proc/{pid}/stat is malformed")),
    }
}

/// Milliseconds per clock tick: Linux reports `/proc` CPU times in
/// `USER_HZ` = 100 ticks per second on every mainstream architecture.
pub const MS_PER_TICK: f64 = 10.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_prometheus_samples_with_labels() {
        let parsed = parse_metrics(
            "# HELP x y\n# TYPE x counter\nnvpim_phase_nanos_total{phase=\"gate_execution\"} 42\n\
             nvpim_run_latency_ns_sum 7\n",
        );
        assert_eq!(
            parsed["nvpim_phase_nanos_total{phase=\"gate_execution\"}"],
            42.0
        );
        assert_eq!(parsed["nvpim_run_latency_ns_sum"], 7.0);
    }

    #[test]
    fn reads_its_own_process_counters() {
        let pid = std::process::id();
        assert!(peak_rss_kb(&pid.to_string()).expect("VmHWM") > 0);
        cpu_ticks(pid).expect("utime + stime");
    }
}
