//! Opt-in structured NDJSON event log.
//!
//! One JSON object per line, written through a buffered writer behind a
//! mutex. Each line carries a wall-clock timestamp (`ts_ms`, UNIX epoch
//! milliseconds), a process-monotone sequence number (`seq`), a `trace`
//! id correlating every event of one job, the `event` name, and any
//! event-specific fields. The log is append-only and flushed per line so
//! a crashed process leaves complete records behind.

use serde::Value;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// An append-only NDJSON event log.
#[derive(Debug)]
pub struct EventLog {
    writer: Mutex<BufWriter<File>>,
    seq: AtomicU64,
}

impl EventLog {
    /// Creates (truncating) the log file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be created.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Self {
            writer: Mutex::new(BufWriter::new(file)),
            seq: AtomicU64::new(0),
        })
    }

    /// Appends one event line.
    ///
    /// `fields` are appended after the standard `ts_ms` / `seq` / `trace`
    /// / `event` keys, preserving their order. Write errors are swallowed:
    /// the event log is telemetry, and a full disk must never take down
    /// the service.
    pub fn emit(&self, event: &str, trace: &str, fields: Vec<(String, Value)>) {
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut object = vec![
            ("ts_ms".to_string(), Value::UInt(ts_ms)),
            ("seq".to_string(), Value::UInt(seq)),
            ("trace".to_string(), Value::Str(trace.to_string())),
            ("event".to_string(), Value::Str(event.to_string())),
        ];
        object.extend(fields);
        let line = match serde_json::to_string(&Value::Object(object)) {
            Ok(line) => line,
            Err(_) => return,
        };
        if let Ok(mut writer) = self.writer.lock() {
            let _ = writer.write_all(line.as_bytes());
            let _ = writer.write_all(b"\n");
            let _ = writer.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_lines_are_valid_ordered_ndjson() {
        let path = std::env::temp_dir().join(format!(
            "nvpim-telemetry-events-{}.ndjson",
            std::process::id()
        ));
        let log = EventLog::create(&path).expect("create log");
        log.emit(
            "submitted",
            "job-1-deadbeef",
            vec![("queue_depth".to_string(), Value::UInt(3))],
        );
        log.emit("running", "job-1-deadbeef", Vec::new());

        let contents = std::fs::read_to_string(&path).expect("read log");
        let lines: Vec<&str> = contents.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = serde_json::from_str(lines[0]).expect("parse first");
        assert_eq!(first.get("seq").and_then(Value::as_u64), Some(0));
        assert_eq!(
            first.get("trace").and_then(Value::as_str),
            Some("job-1-deadbeef")
        );
        assert_eq!(
            first.get("event").and_then(Value::as_str),
            Some("submitted")
        );
        assert_eq!(first.get("queue_depth").and_then(Value::as_u64), Some(3));
        // Standard keys lead every line, in fixed order.
        let keys: Vec<&str> = first
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(&keys[..4], &["ts_ms", "seq", "trace", "event"]);
        let second = serde_json::from_str(lines[1]).expect("parse second");
        assert_eq!(second.get("seq").and_then(Value::as_u64), Some(1));
        let _ = std::fs::remove_file(&path);
    }
}
