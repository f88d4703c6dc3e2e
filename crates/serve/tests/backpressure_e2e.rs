//! End-to-end tests of the reactor's three backpressure bounds, run
//! against live in-process daemons on loopback:
//!
//! * `max_inflight` pauses reading a connection at the cap; it never drops
//!   or reorders the connection's pipelined requests;
//! * `max_write_buffer` evicts a peer that pipelines plan-table queries and
//!   never reads the replies;
//! * `slow_reader_ms` evicts a peer whose replies sit unread that long.
//!
//! After every eviction a fresh connection is still served.

#![cfg(target_os = "linux")]

use rush_serve::protocol::{Decision, JobSubmission, Request, Response};
use rush_serve::server::{serve, ServeConfig, ServerHandle};
use rush_serve::Client;
use rush_utility::TimeUtility;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Plan rows in every full plan-table reply of the eviction tests: enough
/// to make each reply several kilobytes, so a few hundred unread replies
/// overflow the kernel's socket buffers into the reactor's write buffer.
const JOBS: usize = 64;

fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        capacity: 4096,
        epoch_max_batch: 8,
        epoch_ms: 10,
        // An hour-long slot keeps the clock at 0: plans never go stale.
        ms_per_slot: 3_600_000,
        ..ServeConfig::default()
    }
}

/// Submits `n` small jobs so a full plan table has `n` rows.
fn populate(addr: SocketAddr, n: usize) {
    let mut client = Client::connect(addr).expect("connect");
    for i in 0..n {
        let sub = JobSubmission {
            label: format!("tpl-{i}"),
            tasks: 4,
            runtime_hint: Some(40.0),
            utility: TimeUtility::linear(5000.0, 3.0, 0.01).expect("valid"),
            budget: Some(5000),
            priority: 1,
        };
        let (decision, _, _, _) = client.submit(sub).expect("submit");
        assert_eq!(decision, Decision::Admit, "job {i}");
    }
}

/// A fresh connection gets its reply, then the daemon shuts down cleanly.
fn fresh_connection_is_served_then_shutdown(handle: ServerHandle) {
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client.stats().expect("a fresh connection is served");
    assert!(!client.shutdown(false).expect("shutdown"));
    handle.join().expect("join");
}

/// Writes `frames` full plan-table queries in one write. `Err` means the
/// daemon closed the connection.
fn pipeline_queries(stream: &mut TcpStream, frames: usize) -> std::io::Result<()> {
    let frame = Request::QueryPlan { job: None }.encode() + "\n";
    stream.write_all(frame.repeat(frames).as_bytes())
}

/// Never reads: pipelines up to `queries` plan-table queries in batches
/// of `batch`, then probes with one small `stats` request every few
/// milliseconds, until a write fails (the daemon closed the connection)
/// or `deadline` passes. Returns when the write failed, measured from
/// `start`, or `None` if the connection was never closed. The reply
/// volume a daemon without the bound under test buffers stays bounded.
fn flood_until_closed(
    stream: &mut TcpStream,
    queries: usize,
    batch: usize,
    start: Instant,
    deadline: Duration,
) -> Option<Duration> {
    stream.set_write_timeout(Some(deadline)).expect("write timeout");
    let probe = Request::Stats.encode() + "\n";
    let mut sent = 0;
    while start.elapsed() < deadline {
        let written = if sent < queries {
            sent += batch;
            pipeline_queries(stream, batch)
        } else {
            stream.write_all(probe.as_bytes())
        };
        if written.is_err() {
            return Some(start.elapsed());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    None
}

#[test]
fn a_connection_at_max_inflight_gets_every_pipelined_reply_in_order() {
    const REQUESTS: u64 = 40;
    let handle = serve(ServeConfig { max_inflight: 1, ..config() }).expect("serve");
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // Forty distinguishable requests in one write, none read yet: the
    // reactor parses one, pauses the connection until its reply is
    // serialized, and parses the next from the buffer.
    let burst: String =
        (0..REQUESTS).map(|i| Request::Predict { job: 1000 + i }.encode() + "\n").collect();
    stream.write_all(burst.as_bytes()).expect("write");

    for i in 0..REQUESTS {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        match Response::decode(line.trim()).expect("decode") {
            Response::Error(e) => {
                assert_eq!(e.code.as_str(), "unknown-job", "{e}");
                assert!(e.message.contains(&format!("job {} ", 1000 + i)), "reply {i}: {e}");
            }
            other => panic!("reply {i}: expected unknown-job, got {other:?}"),
        }
    }
    drop(reader);
    drop(stream);
    fresh_connection_is_served_then_shutdown(handle);
}

#[test]
fn a_client_that_never_reads_is_evicted_by_the_write_buffer_cap() {
    let cfg = ServeConfig {
        max_write_buffer: 64 * 1024,
        // Far beyond the test's length: only the cap can evict.
        slow_reader_ms: 600_000,
        ..config()
    };
    let handle = serve(cfg).expect("serve");
    populate(handle.local_addr(), JOBS);

    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    let closed =
        flood_until_closed(&mut stream, 4000, 200, Instant::now(), Duration::from_secs(10));
    assert!(closed.is_some(), "an unread reply stream grew past the cap without an eviction");
    drop(stream);
    fresh_connection_is_served_then_shutdown(handle);
}

#[test]
fn a_client_that_stops_reading_is_evicted_after_slow_reader_ms() {
    const SLOW_MS: u64 = 50;
    let cfg = ServeConfig {
        // Far beyond what the test writes: only the slow-reader timer can
        // evict.
        max_write_buffer: 1 << 30,
        slow_reader_ms: SLOW_MS,
        ..config()
    };
    let handle = serve(cfg).expect("serve");
    populate(handle.local_addr(), JOBS);

    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    // The replies to the first burst outgrow the kernel's socket buffers,
    // so the reactor's write buffer stays non-empty from some instant
    // after `start`; the eviction comes `SLOW_MS` after that instant. The
    // `stats` probes after it only ask whether the socket is still open.
    let start = Instant::now();
    pipeline_queries(&mut stream, 1000).expect("first burst");
    let closed = flood_until_closed(&mut stream, 0, 1, start, Duration::from_secs(10))
        .expect("a reader that stopped reading was never evicted");
    assert!(closed >= Duration::from_millis(SLOW_MS), "evicted after {closed:?}");
    drop(stream);
    fresh_connection_is_served_then_shutdown(handle);
}
