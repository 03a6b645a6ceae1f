//! Write-ahead job journal: the durable half of the crash-safe daemon.
//!
//! Every job-state transition the daemon performs is first appended to an
//! NDJSON journal file (`jobs.journal` under `--state-dir`) — one JSON
//! object per line, fsync'd as it is appended. On startup the
//! daemon [replays](replay) the journal to reconstruct its job table:
//! terminal jobs are restored as queryable records, and in-flight jobs are
//! re-queued with the per-point tallies of their checkpointed chunks
//! merged back in, so only the un-checkpointed suffix is recomputed.
//! Checkpoint invariance (report bytes do not depend on where or how often
//! a run checkpoints) makes the resumed report byte-identical to an
//! uninterrupted run.
//!
//! ## Record format
//!
//! | `rec`       | extra fields                                          |
//! |-------------|-------------------------------------------------------|
//! | `submit`    | `job`, `digest`, `priority`, `trials_total`, `plan_json` |
//! | `chunk`     | `job`, `trials_done` (cumulative), `tallies` (array)  |
//! | `done`      | `job`                                                 |
//! | `failed`    | `job`, `error`                                        |
//! | `cancelled` | `job`                                                 |
//!
//! A `chunk` record's `tallies` hold one entry per campaign point the chunk
//! touched (see [`Tallies`]), so its size depends on the points a chunk
//! spans, never on how many trials it ran. It is accepted during replay
//! only when its cumulative `trials_done` equals the trials already
//! accumulated plus the record's own — anything else (a duplicated or
//! reordered chunk) is discarded and those trials recompute, which
//! determinism makes harmless.
//!
//! Replay stops at the first line that is not JSON: an append-only journal
//! can only be torn at its tail, so everything before the tear is trusted
//! and the torn tail is dropped. A line that is JSON but not a record this
//! version understands — such as a `chunk` record written before tallies
//! replaced per-trial `outcomes` arrays, or the `start` record older
//! daemons wrote when a worker picked a job up — is discarded on its own
//! and replay continues.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

use nvpim_sweep::Tallies;
use nvpim_telemetry::{Counter, Telemetry};
use serde::{Serialize, Value};

/// File name of the job journal under the daemon's state directory.
pub const JOURNAL_FILE: &str = "jobs.journal";

/// One durable job-state transition.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A job was accepted into the queue.
    Submit {
        /// Job id assigned by the daemon.
        job: u64,
        /// Content digest of the submitted plan.
        digest: String,
        /// Scheduling priority.
        priority: u64,
        /// Total trials the plan expands to.
        trials_total: u64,
        /// The plan's canonical JSON (replayed to re-prepare the campaign).
        plan_json: String,
    },
    /// A checkpoint: the contiguous completed prefix advanced; `tallies`
    /// sum the results of the trials since the previous checkpoint and
    /// `trials_done` is the cumulative count including them.
    Chunk {
        /// Job id.
        job: u64,
        /// Cumulative trials completed after this chunk.
        trials_done: u64,
        /// Per-point tallies of the chunk's newly computed trials.
        tallies: Tallies,
    },
    /// The job finished successfully (its report is in the store).
    Done {
        /// Job id.
        job: u64,
    },
    /// The job failed terminally.
    Failed {
        /// Job id.
        job: u64,
        /// Failure description (e.g. captured panic payload).
        error: String,
    },
    /// The job was cancelled.
    Cancelled {
        /// Job id.
        job: u64,
    },
}

impl JournalRecord {
    /// Encodes the record as one compact JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let value = match self {
            JournalRecord::Submit {
                job,
                digest,
                priority,
                trials_total,
                plan_json,
            } => Value::Object(vec![
                ("rec".into(), Value::Str("submit".into())),
                ("job".into(), Value::UInt(*job)),
                ("digest".into(), Value::Str(digest.clone())),
                ("priority".into(), Value::UInt(*priority)),
                ("trials_total".into(), Value::UInt(*trials_total)),
                ("plan_json".into(), Value::Str(plan_json.clone())),
            ]),
            JournalRecord::Chunk {
                job,
                trials_done,
                tallies,
            } => Value::Object(vec![
                ("rec".into(), Value::Str("chunk".into())),
                ("job".into(), Value::UInt(*job)),
                ("trials_done".into(), Value::UInt(*trials_done)),
                ("tallies".into(), tallies.to_json()),
            ]),
            JournalRecord::Done { job } => Value::Object(vec![
                ("rec".into(), Value::Str("done".into())),
                ("job".into(), Value::UInt(*job)),
            ]),
            JournalRecord::Failed { job, error } => Value::Object(vec![
                ("rec".into(), Value::Str("failed".into())),
                ("job".into(), Value::UInt(*job)),
                ("error".into(), Value::Str(error.clone())),
            ]),
            JournalRecord::Cancelled { job } => Value::Object(vec![
                ("rec".into(), Value::Str("cancelled".into())),
                ("job".into(), Value::UInt(*job)),
            ]),
        };
        serde_json::to_string(&value).expect("journal records serialize")
    }

    /// Decodes one journal line. `Err` carries a description of why the
    /// line is unusable (torn tail, unknown record type, missing field).
    pub fn from_line(line: &str) -> Result<Self, String> {
        let value = serde_json::from_str(line).map_err(|e| format!("unparseable JSON: {e}"))?;
        Self::from_value(&value)
    }

    /// Decodes one parsed journal line (see [`Self::from_line`]).
    ///
    /// # Errors
    ///
    /// Unknown record types and missing or mistyped fields.
    pub fn from_value(value: &Value) -> Result<Self, String> {
        let str_field = |key: &str| -> Result<String, String> {
            value
                .get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("journal record missing string field `{key}`"))
        };
        let u64_field = |key: &str| -> Result<u64, String> {
            value
                .get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("journal record missing integer field `{key}`"))
        };
        let rec = str_field("rec")?;
        match rec.as_str() {
            "submit" => Ok(JournalRecord::Submit {
                job: u64_field("job")?,
                digest: str_field("digest")?,
                priority: u64_field("priority")?,
                trials_total: u64_field("trials_total")?,
                plan_json: str_field("plan_json")?,
            }),
            "chunk" => Ok(JournalRecord::Chunk {
                job: u64_field("job")?,
                trials_done: u64_field("trials_done")?,
                tallies: Tallies::from_json_value(
                    value
                        .get("tallies")
                        .ok_or("journal chunk record missing `tallies`")?,
                )?,
            }),
            "done" => Ok(JournalRecord::Done {
                job: u64_field("job")?,
            }),
            "failed" => Ok(JournalRecord::Failed {
                job: u64_field("job")?,
                error: str_field("error")?,
            }),
            "cancelled" => Ok(JournalRecord::Cancelled {
                job: u64_field("job")?,
            }),
            other => Err(format!("unknown journal record type `{other}`")),
        }
    }
}

/// Append-only writer for the job journal.
///
/// Every appended record is synced to disk before [`Journal::append`]
/// returns. Records, bytes and fsyncs are counted into the telemetry sink
/// attached with [`Journal::with_telemetry`].
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    telemetry: Telemetry,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path` for appending.
    ///
    /// A torn final line — a crash mid-append — is truncated away first.
    /// Appending after a partial line would fuse the next record onto it,
    /// and [`replay`] (which stops at the first unparseable line, the
    /// torn-tail assumption) would then discard every record from the tear
    /// onward on the *next* restart.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        if let Ok(bytes) = std::fs::read(&path) {
            if !bytes.is_empty() && bytes.last() != Some(&b'\n') {
                let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
                let trunc = OpenOptions::new().write(true).open(&path)?;
                trunc.set_len(keep as u64)?;
                trunc.sync_all()?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Self {
            file,
            path,
            telemetry: Telemetry::disabled(),
        })
    }

    /// Records this journal's appends and fsyncs into `telemetry`.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Path of the journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record (as one NDJSON line) and syncs it to disk.
    pub fn append(&mut self, record: &JournalRecord) -> io::Result<()> {
        let mut line = record.to_line();
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.telemetry.add(Counter::JournalRecords, 1);
        self.telemetry.add(Counter::JournalBytes, line.len() as u64);
        self.file.sync_all()?;
        self.telemetry.add(Counter::JournalFsyncs, 1);
        Ok(())
    }
}

/// Terminal state of a replayed job.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayedTerminal {
    /// Completed; its report should be in the durable store.
    Done,
    /// Failed with the recorded error.
    Failed(String),
    /// Cancelled before completion.
    Cancelled,
}

/// One job reconstructed from the journal.
#[derive(Debug, Clone)]
pub struct ReplayedJob {
    /// Job id from the submit record.
    pub id: u64,
    /// Plan content digest.
    pub digest: String,
    /// Scheduling priority.
    pub priority: u64,
    /// Total trials the plan expands to.
    pub trials_total: u64,
    /// The plan's canonical JSON.
    pub plan_json: String,
    /// Tallies merged from accepted `chunk` records: the trials before the
    /// job's resume cursor, `tallies.trials()`.
    pub tallies: Tallies,
    /// Terminal state, if any terminal record was seen (first one wins).
    pub terminal: Option<ReplayedTerminal>,
    /// Number of `chunk` records whose tallies were accepted.
    pub chunks_accepted: u64,
}

/// Result of replaying a journal file.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Reconstructed jobs in submit order.
    pub jobs: Vec<ReplayedJob>,
    /// The next job id the daemon should hand out (max replayed id + 1).
    pub next_id: u64,
    /// Records successfully applied.
    pub records_replayed: u64,
    /// Records dropped (torn tail, unknown or outdated record, inconsistent
    /// chunk, reference to an unknown job, or duplicate terminal).
    pub records_discarded: u64,
}

/// Replays the journal at `path`, tolerating a torn tail.
///
/// A missing file replays to an empty state. Replay stops at the first
/// line that is not JSON (only the tail of an append-only file can be
/// torn); JSON lines that are not usable records (unknown or outdated
/// record shape, chunk count mismatch, unknown job id, duplicate terminal)
/// are discarded individually and replay continues.
pub fn replay(path: &Path) -> io::Result<Replay> {
    let mut out = Replay {
        jobs: Vec::new(),
        next_id: 1,
        records_replayed: 0,
        records_discarded: 0,
    };
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    let mut jobs = ReplayedJobs::default();
    let reader = BufReader::new(file);
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let Ok(value) = serde_json::from_str(&line) else {
            // Torn tail: everything after the first bad line is
            // untrustworthy in an append-only file.
            out.records_discarded += 1;
            break;
        };
        let applied = match JournalRecord::from_value(&value) {
            Ok(record) => apply(&mut jobs, record),
            Err(_) => false,
        };
        if applied {
            out.records_replayed += 1;
        } else {
            out.records_discarded += 1;
        }
    }
    out.jobs = jobs.jobs;
    out.next_id = out.jobs.iter().map(|j| j.id + 1).max().unwrap_or(1);
    Ok(out)
}

/// The jobs reconstructed so far, in submit order, indexed by id so each
/// record finds its job in constant time.
#[derive(Default)]
struct ReplayedJobs {
    jobs: Vec<ReplayedJob>,
    /// Job id → position in `jobs`.
    index: HashMap<u64, usize>,
}

impl ReplayedJobs {
    fn get_mut(&mut self, job: u64) -> Option<&mut ReplayedJob> {
        self.index.get(&job).map(|&at| &mut self.jobs[at])
    }
}

/// Applies one record to the reconstructed job list. Returns whether the
/// record was accepted.
fn apply(jobs: &mut ReplayedJobs, record: JournalRecord) -> bool {
    match record {
        JournalRecord::Submit {
            job,
            digest,
            priority,
            trials_total,
            plan_json,
        } => {
            if jobs.index.contains_key(&job) {
                return false; // duplicate submit: first wins
            }
            jobs.index.insert(job, jobs.jobs.len());
            jobs.jobs.push(ReplayedJob {
                id: job,
                digest,
                priority,
                trials_total,
                plan_json,
                tallies: Tallies::new(),
                terminal: None,
                chunks_accepted: 0,
            });
            true
        }
        JournalRecord::Chunk {
            job,
            trials_done,
            tallies,
        } => {
            let Some(j) = jobs.get_mut(job) else {
                return false;
            };
            let expected = j.tallies.trials().saturating_add(tallies.trials());
            if j.terminal.is_some() || trials_done != expected || expected > j.trials_total {
                return false; // duplicated/reordered chunk — recompute instead
            }
            j.tallies.merge(&tallies);
            j.chunks_accepted += 1;
            true
        }
        JournalRecord::Done { job } => set_terminal(jobs, job, ReplayedTerminal::Done),
        JournalRecord::Failed { job, error } => {
            set_terminal(jobs, job, ReplayedTerminal::Failed(error))
        }
        JournalRecord::Cancelled { job } => set_terminal(jobs, job, ReplayedTerminal::Cancelled),
    }
}

fn set_terminal(jobs: &mut ReplayedJobs, job: u64, terminal: ReplayedTerminal) -> bool {
    match jobs.get_mut(job) {
        Some(j) if j.terminal.is_none() => {
            j.terminal = Some(terminal);
            true
        }
        _ => false, // unknown job or duplicate terminal: first wins
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use nvpim_sweep::PointTally;

    /// Tallies of `trials` trials of point 0.
    fn tallies(trials: u64) -> Tallies {
        let mut tallies = Tallies::new();
        tallies.add(
            0,
            &PointTally {
                trials,
                faults_injected: trials,
                checks: 2 * trials,
                ..PointTally::default()
            },
        );
        tallies
    }

    #[test]
    fn records_round_trip_through_lines() {
        let records = vec![
            JournalRecord::Submit {
                job: 3,
                digest: "d".repeat(64),
                priority: 7,
                trials_total: 12,
                plan_json: "{\"workloads\":[\"full_adder_1b\"]}".into(),
            },
            JournalRecord::Chunk {
                job: 3,
                trials_done: 2,
                tallies: tallies(2),
            },
            JournalRecord::Done { job: 3 },
            JournalRecord::Failed {
                job: 4,
                error: "panicked: boom".into(),
            },
            JournalRecord::Cancelled { job: 5 },
        ];
        for record in records {
            let line = record.to_line();
            assert!(!line.contains('\n'), "one record = one line");
            assert_eq!(JournalRecord::from_line(&line).unwrap(), record);
        }
    }

    #[test]
    fn replay_reconstructs_in_flight_and_terminal_jobs() {
        let dir = std::env::temp_dir().join(format!("nvpim-journal-test-{}", std::process::id()));
        let path = dir.join(JOURNAL_FILE);
        let _ = std::fs::remove_file(&path);
        {
            let mut journal = Journal::open(&path).unwrap();
            for record in [
                JournalRecord::Submit {
                    job: 1,
                    digest: "a".repeat(64),
                    priority: 0,
                    trials_total: 4,
                    plan_json: "{}".into(),
                },
                JournalRecord::Chunk {
                    job: 1,
                    trials_done: 2,
                    tallies: tallies(2),
                },
                JournalRecord::Submit {
                    job: 2,
                    digest: "b".repeat(64),
                    priority: 0,
                    trials_total: 2,
                    plan_json: "{}".into(),
                },
                JournalRecord::Done { job: 2 },
            ] {
                journal.append(&record).unwrap();
            }
        }
        let replay = replay(&path).unwrap();
        assert_eq!(replay.records_replayed, 4);
        assert_eq!(replay.records_discarded, 0);
        assert_eq!(replay.next_id, 3);
        assert_eq!(replay.jobs.len(), 2);
        let j1 = &replay.jobs[0];
        assert!(j1.terminal.is_none());
        assert_eq!(j1.tallies.trials(), 2);
        assert_eq!(replay.jobs[1].terminal, Some(ReplayedTerminal::Done));
        std::fs::remove_file(&path).unwrap();
    }

    /// On-CPU nanoseconds of the calling thread, from the scheduler's
    /// per-thread accounting, or `None` where it is unreadable. Unlike wall
    /// time it does not grow while other threads hold the CPUs.
    fn thread_cpu_ns() -> Option<u64> {
        std::fs::read_to_string("/proc/thread-self/schedstat")
            .ok()?
            .split_whitespace()
            .next()?
            .parse()
            .ok()
    }

    /// Replay finds each record's job by id in constant time: replaying
    /// 2N `submit`/`done` pairs costs about twice N, not four times. A ratio of medians of the replaying thread's CPU time (wall
    /// time where that is unavailable), so the bound holds on a slow or
    /// busy host. N is large enough that the scheduler's accounting,
    /// which can advance in ticks of several milliseconds, resolves it.
    #[test]
    fn replay_time_grows_linearly_with_the_journal() {
        const N: u64 = 15_000;
        let dir = std::env::temp_dir().join(format!("nvpim-journal-linear-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |jobs: u64, name: &str| {
            let path = dir.join(name);
            let mut text = String::new();
            for job in 1..=jobs {
                for record in [
                    JournalRecord::Submit {
                        job,
                        digest: format!("{job:064x}"),
                        priority: 0,
                        trials_total: 1,
                        plan_json: "{}".into(),
                    },
                    JournalRecord::Done { job },
                ] {
                    text.push_str(&record.to_line());
                    text.push('\n');
                }
            }
            std::fs::write(&path, text).unwrap();
            path
        };
        let (small, large) = (write(N, "small.journal"), write(2 * N, "large.journal"));
        let time = |path: &Path, jobs: u64| {
            let (cpu_start, started) = (thread_cpu_ns(), std::time::Instant::now());
            let replay = replay(path).unwrap();
            let elapsed = match (cpu_start, thread_cpu_ns()) {
                (Some(start), Some(end)) => std::time::Duration::from_nanos(end - start),
                _ => started.elapsed(),
            };
            assert_eq!(replay.records_replayed, 2 * jobs);
            elapsed
        };
        let (mut small_runs, mut large_runs) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            small_runs.push(time(&small, N));
            large_runs.push(time(&large, 2 * N));
        }
        small_runs.sort();
        large_runs.sort();
        let ratio = large_runs[1].as_secs_f64() / small_runs[1].as_secs_f64();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            ratio <= 2.5,
            "replaying {} jobs took {ratio:.2}x the time of {N} ({:?} vs {:?})",
            2 * N,
            large_runs[1],
            small_runs[1]
        );
    }

    #[test]
    fn inconsistent_chunks_and_duplicate_terminals_are_discarded() {
        let mut jobs = ReplayedJobs::default();
        assert!(apply(
            &mut jobs,
            JournalRecord::Submit {
                job: 1,
                digest: "a".repeat(64),
                priority: 0,
                trials_total: 4,
                plan_json: "{}".into(),
            },
        ));
        // Cumulative count skips ahead: rejected.
        assert!(!apply(
            &mut jobs,
            JournalRecord::Chunk {
                job: 1,
                trials_done: 3,
                tallies: tallies(1),
            },
        ));
        assert!(jobs.jobs[0].tallies.is_empty());
        // Chunk for an unknown job: rejected.
        assert!(!apply(
            &mut jobs,
            JournalRecord::Chunk {
                job: 9,
                trials_done: 1,
                tallies: tallies(1),
            },
        ));
        // First terminal wins; the conflicting duplicate is dropped.
        assert!(apply(
            &mut jobs,
            JournalRecord::Failed {
                job: 1,
                error: "boom".into(),
            },
        ));
        assert!(!apply(&mut jobs, JournalRecord::Done { job: 1 }));
        assert_eq!(
            jobs.jobs[0].terminal,
            Some(ReplayedTerminal::Failed("boom".into()))
        );
    }

    #[test]
    fn reopening_truncates_a_torn_tail_so_later_appends_stay_replayable() {
        let dir = std::env::temp_dir().join(format!("nvpim-journal-torn-{}", std::process::id()));
        let path = dir.join(JOURNAL_FILE);
        let _ = std::fs::remove_file(&path);
        {
            let mut journal = Journal::open(&path).unwrap();
            journal
                .append(&JournalRecord::Submit {
                    job: 1,
                    digest: "a".repeat(64),
                    priority: 0,
                    trials_total: 2,
                    plan_json: "{}".into(),
                })
                .unwrap();
        }
        // Simulate a crash mid-append: a partial record with no newline.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(br#"{"type":"chunk","job":1,"tri"#);
        std::fs::write(&path, &bytes).unwrap();
        // Reopening must drop the torn tail; the next record then lands on
        // its own line instead of fusing with the partial one.
        {
            let mut journal = Journal::open(&path).unwrap();
            journal.append(&JournalRecord::Done { job: 1 }).unwrap();
        }
        let replay = replay(&path).unwrap();
        assert_eq!(replay.records_discarded, 0, "tear was truncated, not kept");
        assert_eq!(replay.records_replayed, 2);
        assert_eq!(replay.jobs[0].terminal, Some(ReplayedTerminal::Done));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn legacy_outcome_chunks_are_discarded_and_replay_continues() {
        let dir = std::env::temp_dir().join(format!("nvpim-journal-legacy-{}", std::process::id()));
        let path = dir.join(JOURNAL_FILE);
        let _ = std::fs::remove_file(&path);
        std::fs::create_dir_all(&dir).unwrap();
        let submit = |job: u64| JournalRecord::Submit {
            job,
            digest: "c".repeat(64),
            priority: 0,
            trials_total: 4,
            plan_json: "{}".into(),
        };
        // A journal written by older daemons: a `start` record per picked-up
        // job, and chunk records carrying per-trial `outcomes` arrays.
        let legacy_start = r#"{"rec":"start","job":1}"#;
        let legacy_chunk = r#"{"rec":"chunk","job":1,"trials_done":1,"outcomes":[{"faults_injected":0,"checks":2,"errors_detected":0,"corrections_written_back":0,"uncorrectable":0,"wrong_output_bits":0,"exec_error":null}]}"#;
        let lines = [
            submit(1).to_line(),
            legacy_start.to_string(),
            legacy_chunk.to_string(),
            submit(2).to_line(),
            JournalRecord::Done { job: 2 }.to_line(),
        ];
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let replay = replay(&path).unwrap();
        assert_eq!(replay.records_discarded, 2, "only the legacy records");
        assert_eq!(replay.records_replayed, 3, "records after them still apply");
        let j1 = &replay.jobs[0];
        assert!(j1.terminal.is_none());
        assert!(j1.tallies.is_empty(), "job 1 recomputes from trial 0");
        assert_eq!(replay.jobs[1].terminal, Some(ReplayedTerminal::Done));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn chunk_record_size_does_not_grow_with_its_trial_count() {
        let line = |trials: u64| {
            JournalRecord::Chunk {
                job: 1,
                trials_done: trials,
                tallies: tallies(trials),
            }
            .to_line()
            .len()
        };
        // Only the counters' digits grow: 4 trials and 4 million trials of
        // one point cost about the same journal bytes.
        assert!(
            line(4_000_000) < line(4) + 64,
            "{} vs {}",
            line(4_000_000),
            line(4)
        );
    }
}
