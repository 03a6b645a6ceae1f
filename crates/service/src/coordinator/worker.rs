//! One worker link: drives `ping` and `run_shard` against a single
//! `nvpim-serviced` daemon and classifies every way the worker can stop
//! cooperating.
//!
//! The link keeps one TCP connection with the read timeout set to the
//! fleet's heartbeat deadline, so the streamed `shard_chunk` lines double
//! as the worker's heartbeat: a daemon that is SIGSTOPped, wedged, or
//! partitioned keeps the socket open but goes silent, and the next `recv`
//! times out instead of blocking forever.

use std::io::ErrorKind;
use std::time::Duration;

use serde::Value;

use crate::client::{request, Client};

use nvpim_sweep::Tallies;

/// Result of a health-check ping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ping {
    /// Alive and accepting work.
    Healthy,
    /// Alive but draining (or shutting down): unschedulable, not dead.
    Draining,
    /// No response within the heartbeat deadline: stalled.
    Stalled,
    /// Connection refused, reset, or closed: dead or partitioned.
    Unreachable,
}

/// How one shard attempt ended. Every chunk streamed before the end is
/// already checkpointed through the attempt's chunk callback, so a failed
/// attempt loses nothing it reported.
#[derive(Debug)]
pub(crate) enum AttemptEnd {
    /// `shard_done` observed after every trial of the range streamed.
    Completed,
    /// The daemon began draining mid-shard: it checkpointed and bowed out.
    Draining,
    /// No chunk arrived within the heartbeat deadline.
    HeartbeatMiss,
    /// The connection died mid-stream (or could not be established).
    Disconnect,
    /// The daemon answered with a structured error or a malformed stream.
    Rejected(String),
}

/// A lazily connected client for one worker address, with lifetime byte
/// accounting that survives reconnects.
pub(crate) struct WorkerLink {
    addr: String,
    connect_timeout: Duration,
    heartbeat_timeout: Duration,
    client: Option<Client>,
    bytes_sent: u64,
    bytes_received: u64,
}

impl WorkerLink {
    pub fn new(addr: &str, connect_timeout: Duration, heartbeat_timeout: Duration) -> Self {
        Self {
            addr: addr.to_string(),
            connect_timeout,
            heartbeat_timeout,
            client: None,
            bytes_sent: 0,
            bytes_received: 0,
        }
    }

    fn client(&mut self) -> std::io::Result<&mut Client> {
        if self.client.is_none() {
            self.client = Some(Client::connect_with_timeouts(
                &self.addr,
                Some(self.connect_timeout),
                Some(self.heartbeat_timeout),
            )?);
        }
        Ok(self.client.as_mut().expect("client just connected"))
    }

    /// Folds the live connection's byte counters into the lifetime totals
    /// and drops it (the next call reconnects).
    fn drop_client(&mut self) {
        if let Some(client) = self.client.take() {
            self.bytes_sent += client.bytes_sent();
            self.bytes_received += client.bytes_received();
        }
    }

    /// Lifetime `(sent, received)` bytes across every connection.
    pub fn bytes(&self) -> (u64, u64) {
        let (live_sent, live_received) = self
            .client
            .as_ref()
            .map_or((0, 0), |c| (c.bytes_sent(), c.bytes_received()));
        (
            self.bytes_sent + live_sent,
            self.bytes_received + live_received,
        )
    }

    /// Health-checks the worker over the protocol's `ping` command.
    pub fn ping(&mut self) -> Ping {
        let client = match self.client() {
            Ok(client) => client,
            Err(_) => {
                self.drop_client();
                return Ping::Unreachable;
            }
        };
        match client.request(&request("ping", Vec::new())) {
            Ok(resp) => {
                let draining = resp.get("draining").and_then(Value::as_bool) == Some(true);
                let stopping = resp.get("shutting_down").and_then(Value::as_bool) == Some(true);
                if draining || stopping {
                    Ping::Draining
                } else {
                    Ping::Healthy
                }
            }
            Err(err) if is_timeout(&err) => {
                self.drop_client();
                Ping::Stalled
            }
            Err(_) => {
                self.drop_client();
                Ping::Unreachable
            }
        }
    }

    /// Runs trials `start .. end` as one shard attempt, handing every
    /// streamed chunk's tallies to `on_chunk` (the checkpoint). The worker
    /// daemon streams chunks at its own checkpoint cadence. A chunk
    /// `on_chunk` refuses ends the attempt as a rejection.
    pub fn run_shard(
        &mut self,
        plan_json: &Value,
        (start, end): (u64, u64),
        on_chunk: &mut dyn FnMut(&Tallies) -> Result<(), String>,
    ) -> AttemptEnd {
        let req = request(
            "run_shard",
            vec![
                ("plan".into(), plan_json.clone()),
                ("start".into(), Value::UInt(start)),
                ("end".into(), Value::UInt(end)),
            ],
        );
        let client = match self.client() {
            Ok(client) => client,
            Err(_) => {
                self.drop_client();
                return AttemptEnd::Disconnect;
            }
        };
        if client.send(&req).is_err() {
            self.drop_client();
            return AttemptEnd::Disconnect;
        }
        let mut streamed = 0u64;
        loop {
            let line = match client.recv() {
                Ok(Some(line)) => line,
                Ok(None) => {
                    self.drop_client();
                    return AttemptEnd::Disconnect;
                }
                Err(err) if is_timeout(&err) => {
                    self.drop_client();
                    return AttemptEnd::HeartbeatMiss;
                }
                Err(_) => {
                    self.drop_client();
                    return AttemptEnd::Disconnect;
                }
            };
            if line.get("ok").and_then(Value::as_bool) == Some(false) {
                let code = error_code(&line);
                // A drained worker checkpoints the shard and reports
                // `shutting_down`; everything else is a rejection.
                if code == "shutting_down" {
                    return AttemptEnd::Draining;
                }
                return AttemptEnd::Rejected(code.to_string());
            }
            let rejection = match line.get("event").and_then(Value::as_str) {
                Some("shard_accepted") => continue,
                Some("shard_chunk") => match accept_chunk(&line, &mut streamed, on_chunk) {
                    Ok(()) => continue,
                    Err(why) => why,
                },
                Some("shard_done") if streamed == end - start => return AttemptEnd::Completed,
                Some("shard_done") => "shard_done before every trial streamed".to_string(),
                _ => "unexpected response event mid-shard".to_string(),
            };
            // The stream is still flowing: drop the connection so its
            // unread lines never reach the next request.
            self.drop_client();
            return AttemptEnd::Rejected(rejection);
        }
    }
}

/// Decodes one `shard_chunk` line, checks its cumulative `trials_done`
/// against the trials streamed so far, and hands its tallies to
/// `on_chunk`.
fn accept_chunk(
    line: &Value,
    streamed: &mut u64,
    on_chunk: &mut dyn FnMut(&Tallies) -> Result<(), String>,
) -> Result<(), String> {
    let tallies =
        Tallies::from_json_value(line.get("tallies").ok_or("shard_chunk without tallies")?)
            .map_err(|err| format!("undecodable chunk tallies: {err}"))?;
    *streamed = streamed.saturating_add(tallies.trials());
    if line.get("trials_done").and_then(Value::as_u64) != Some(*streamed) {
        return Err("shard_chunk progress disagrees with its tallies".to_string());
    }
    on_chunk(&tallies)
}

fn is_timeout(err: &std::io::Error) -> bool {
    matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

fn error_code(line: &Value) -> &str {
    line.get("error")
        .and_then(|e| e.get("code"))
        .and_then(Value::as_str)
        .unwrap_or("unknown_error")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    /// A worker that answers `ping` as healthy, but answers `run_shard`
    /// with a chunk whose tallies are refused, followed by a line that
    /// would read as a draining `pong` if it were taken for the reply to
    /// the next request.
    fn spawn_rogue_worker() -> String {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                std::thread::spawn(move || {
                    let mut writer = stream.try_clone().expect("clone stream");
                    for line in BufReader::new(stream).lines().map_while(Result::ok) {
                        let reply = if line.contains(r#""cmd":"ping""#) {
                            concat!(
                                r#"{"ok":true,"event":"pong","draining":false,"shutting_down":false}"#,
                                "\n"
                            )
                        } else {
                            concat!(
                                r#"{"ok":true,"event":"shard_accepted","start":0,"end":4}"#,
                                "\n",
                                r#"{"ok":true,"event":"shard_chunk","trials_done":0,"trials_total":4,"tallies":[]}"#,
                                "\n",
                                r#"{"ok":true,"event":"pong","draining":true,"shutting_down":false}"#,
                                "\n"
                            )
                        };
                        if writer.write_all(reply.as_bytes()).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        addr
    }

    #[test]
    fn a_refused_chunk_drops_the_connection_with_its_unread_stream() {
        let addr = spawn_rogue_worker();
        let timeout = Duration::from_secs(5);
        let mut link = WorkerLink::new(&addr, timeout, timeout);
        assert_eq!(link.ping(), Ping::Healthy);
        let end = link.run_shard(&Value::Null, (0, 4), &mut |_| {
            Err("tallies do not line up".to_string())
        });
        assert!(
            matches!(&end, AttemptEnd::Rejected(why) if why == "tallies do not line up"),
            "{end:?}"
        );
        // The rest of the refused stream must not answer the next ping.
        assert_eq!(link.ping(), Ping::Healthy);
        let (sent, received) = link.bytes();
        assert!(
            sent > 0 && received > 0,
            "dropped connections stay accounted"
        );
    }
}
