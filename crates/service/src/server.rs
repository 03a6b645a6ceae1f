//! The TCP front end: one thread per connection, newline-delimited JSON.
//!
//! `nvpim-serviced` binds a [`TcpListener`], prints
//! `nvpim-serviced listening on <addr>` (so scripts can scrape an
//! OS-assigned port), and serves until a client issues `shutdown`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};

use crate::protocol::{dispatch, encode, error_response, Outcome, MAX_LINE_BYTES};
use crate::service::ServiceHandle;

/// One request line read from a connection.
enum Line {
    /// End of stream.
    Eof,
    /// The line exceeded [`MAX_LINE_BYTES`].
    TooLong,
    /// A complete line (without the trailing newline).
    Text(String),
}

/// Reads one `\n`-terminated line, refusing lines whose *content*
/// (excluding the line terminator) exceeds `max` bytes.
fn read_bounded_line<R: Read>(reader: &mut BufReader<R>, max: usize) -> std::io::Result<Line> {
    let mut buf = Vec::new();
    // `take` caps how much one oversized line can pull before we give up:
    // content + "\r\n" at the limit needs max + 2 bytes.
    let mut limited = reader.by_ref().take(max as u64 + 2);
    limited.read_until(b'\n', &mut buf)?;
    if buf.is_empty() {
        return Ok(Line::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    if buf.len() > max {
        return Ok(Line::TooLong);
    }
    match String::from_utf8(buf) {
        Ok(text) => Ok(Line::Text(text)),
        Err(_) => Ok(Line::Text(String::from("\u{fffd}"))), // let dispatch reject it
    }
}

fn write_line(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    // One write per frame: a separate newline write could sit behind
    // Nagle's algorithm waiting for the peer's delayed ACK.
    let mut frame = Vec::with_capacity(line.len() + 1);
    frame.extend_from_slice(line.as_bytes());
    frame.push(b'\n');
    stream.write_all(&frame)?;
    stream.flush()
}

fn handle_connection(service: ServiceHandle, stream: TcpStream, self_addr: std::net::SocketAddr) {
    // Frames are whole lines written in one call each: send them at once
    // instead of holding the next small frame behind Nagle's algorithm
    // until the peer's delayed ACK arrives.
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        match read_bounded_line(&mut reader, MAX_LINE_BYTES) {
            Err(_) | Ok(Line::Eof) => break,
            Ok(Line::TooLong) => {
                let _ = write_line(
                    &mut writer,
                    &encode(&error_response(
                        "line_too_long",
                        format!("request lines are capped at {MAX_LINE_BYTES} bytes"),
                    )),
                );
                break; // the rest of the oversized line is unrecoverable
            }
            Ok(Line::Text(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                let outcome =
                    dispatch(&service, &line, &mut |frame| write_line(&mut writer, frame));
                match outcome {
                    Ok(Outcome::Continue) => {}
                    Ok(Outcome::Shutdown) => {
                        // The daemon keeps serving other connections (ping
                        // answers `draining: true`) while workers
                        // checkpoint; `shutdown` blocks this connection
                        // thread until the drain completes and flips
                        // `shutting_down`, after which the accept loop can
                        // observe it and exit.
                        if !service.shutdown() {
                            eprintln!(
                                "nvpim-serviced: drain grace elapsed with a worker still \
                                 mid-task; exiting without it"
                            );
                        }
                        // Wake the accept loop so it can observe the flag.
                        // A wildcard bind address (0.0.0.0 / ::) is not
                        // connectable everywhere — dial loopback instead.
                        let mut wake = self_addr;
                        if wake.ip().is_unspecified() {
                            wake.set_ip(match wake.ip() {
                                std::net::IpAddr::V4(_) => {
                                    std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST)
                                }
                                std::net::IpAddr::V6(_) => {
                                    std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST)
                                }
                            });
                        }
                        let _ = TcpStream::connect(wake);
                        break;
                    }
                    Err(_) => break, // client went away mid-response
                }
            }
        }
    }
}

/// Serves connections on `listener` until a `shutdown` request has
/// drained the service's worker pool.
///
/// # Errors
///
/// Propagates listener I/O failures (binding problems surface in the
/// caller; per-connection errors only drop that connection).
pub fn serve(service: &ServiceHandle, listener: TcpListener) -> std::io::Result<()> {
    let self_addr = listener.local_addr()?;
    for stream in listener.incoming() {
        if service.is_shutting_down() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let connection = service.clone();
        // A refused thread costs this one connection (the stream drops
        // with the closure), never the accept loop.
        if let Err(err) = std::thread::Builder::new()
            .name("nvpim-conn".to_string())
            .spawn(move || handle_connection(connection, stream, self_addr))
        {
            eprintln!("nvpim-serviced: cannot start a connection thread ({err}); dropped it");
        }
    }
    Ok(())
}

/// Binds `addr`, announces the bound address on stdout, and serves forever
/// (until a `shutdown` request). This is the whole `nvpim-serviced` main
/// loop.
///
/// # Errors
///
/// Bind/accept failures.
pub fn run_server(addr: &str, service: &ServiceHandle) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    println!("nvpim-serviced listening on {}", listener.local_addr()?);
    serve(service, listener)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{request, Client};
    use crate::service::ServiceConfig;

    /// Both ends of a protocol connection disable Nagle's algorithm, so a
    /// small frame written after another never waits for a delayed ACK.
    #[test]
    fn both_ends_of_a_connection_set_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let service = ServiceHandle::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        for connect in [
            Client::connect as fn(&str) -> std::io::Result<Client>,
            |addr| {
                Client::connect_with_timeouts(addr, Some(std::time::Duration::from_secs(5)), None)
            },
        ] {
            let mut client = connect(&addr.to_string()).expect("connect");
            let (accepted, _) = listener.accept().expect("accept");
            let server_end = accepted.try_clone().expect("clone accepted socket");
            let connection = {
                let service = service.clone();
                std::thread::spawn(move || handle_connection(service, accepted, addr))
            };
            // A served request proves the connection loop is past its setup.
            let pong = client.request(&request("ping", vec![])).expect("ping");
            assert_eq!(
                pong.get("event").and_then(serde::Value::as_str),
                Some("pong")
            );
            assert!(client.socket().nodelay().expect("client nodelay"));
            assert!(server_end.nodelay().expect("server nodelay"));
            drop(client);
            connection.join().expect("connection thread");
        }
        service.shutdown();
    }
}
