//! End-to-end tests for the epoll reactor frontend, run against live
//! in-process daemons:
//!
//! * the full request lifecycle over the reactor in both codecs (JSON and
//!   binary), single- and multi-shard;
//! * pipelined requests answered strictly in order;
//! * the epoch-tick regression — a lone submission must be planned within
//!   one epoch with **no** further traffic on any connection;
//! * the frontend/codec differential — identical request streams driven
//!   through `threads`×JSON, `threads`×binary, `reactor`×JSON and
//!   `reactor`×binary must leave byte-identical snapshots (the planner
//!   state cannot depend on the transport).

#![cfg(target_os = "linux")]

use rush_serve::protocol::{Decision, Request, Response};
use rush_serve::server::{serve, Frontend, ServeConfig};
use rush_serve::Client;
use rush_utility::TimeUtility;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn reactor_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        capacity: 16,
        epoch_max_batch: 8,
        epoch_ms: 10,
        ms_per_slot: 3_600_000,
        frontend: Frontend::Reactor,
        ..ServeConfig::default()
    }
}

fn submission(label: &str, tasks: u64) -> rush_serve::protocol::JobSubmission {
    rush_serve::protocol::JobSubmission {
        label: label.into(),
        tasks,
        runtime_hint: Some(40.0),
        utility: TimeUtility::linear(5000.0, 3.0, 0.01).expect("valid"),
        budget: Some(5000),
        priority: 1,
    }
}

/// The full session lifecycle from `server_e2e.rs`, replayed against a
/// reactor daemon with the given client constructor.
fn lifecycle(cfg: ServeConfig, connect: fn(std::net::SocketAddr) -> Client) {
    let handle = serve(cfg).expect("serve");
    let mut client = connect(handle.local_addr());

    let (decision, id, epoch, _) = client.submit(submission("session", 10)).expect("submit");
    assert_eq!(decision, Decision::Admit);
    let id = id.expect("admitted");
    assert!(epoch >= 1);

    let rows = client.query_plan(Some(id)).expect("plan");
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].label, "session");
    assert_eq!(rows[0].remaining_tasks, 10);

    let bound = client.predict(id).expect("predict");
    assert_eq!(bound, rows[0].target + rows[0].task_len as f64);

    for _ in 0..10 {
        client.report_sample(id, 40).expect("sample");
    }
    let err = client.predict(id).expect_err("job completed");
    assert!(err.to_string().contains("unknown-job"), "{err}");

    let (_, id2, _, _) = client.submit(submission("doomed", 4)).expect("submit");
    client.cancel(id2.expect("admitted")).expect("cancel");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.admitted, 2);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.cancelled, 1);

    assert!(!client.shutdown(false).expect("shutdown"));
    handle.join().expect("join");
}

fn json_client(addr: std::net::SocketAddr) -> Client {
    Client::connect(addr).expect("connect")
}

fn binary_client(addr: std::net::SocketAddr) -> Client {
    Client::connect_binary(addr).expect("connect binary")
}

#[test]
fn reactor_serves_the_json_lifecycle() {
    lifecycle(reactor_config(), json_client);
}

#[test]
fn reactor_serves_the_binary_lifecycle() {
    lifecycle(reactor_config(), binary_client);
}

#[test]
fn sharded_reactor_serves_both_codecs() {
    // Four planner shards under two reactor threads: per-job requests
    // route by wire id, broadcasts merge across shards, and the two
    // codecs interoperate on the same daemon.
    let cfg = ServeConfig { shards: 4, reactors: 2, ..reactor_config() };
    let handle = serve(cfg).expect("serve");
    let mut json = Client::connect(handle.local_addr()).expect("connect");
    let mut bin = Client::connect_binary(handle.local_addr()).expect("connect binary");

    let mut ids = Vec::new();
    for i in 0..8 {
        let client = if i % 2 == 0 { &mut json } else { &mut bin };
        let (decision, id, _, _) =
            client.submit(submission(&format!("tpl-{i}"), 4)).expect("submit");
        assert_eq!(decision, Decision::Admit);
        ids.push(id.expect("admitted"));
    }
    assert_eq!(
        ids.iter().collect::<std::collections::BTreeSet<_>>().len(),
        8,
        "wire ids stay unique across shards"
    );

    for &id in &ids {
        let rows = bin.query_plan(Some(id)).expect("plan");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].job, id);
    }
    // Broadcast merge across shards, through both codecs.
    assert_eq!(json.query_plan(None).expect("full table").len(), 8);
    assert_eq!(bin.query_plan(None).expect("full table").len(), 8);

    let stats = bin.stats().expect("stats");
    assert_eq!(stats.admitted, 8);
    assert_eq!(stats.active_jobs, 8);

    assert!(!json.shutdown(false).expect("shutdown"));
    handle.join().expect("join");
}

#[test]
fn pipelined_requests_answer_in_order() {
    // Fire a burst of distinguishable requests in one write, before
    // reading anything: the reactor must answer them strictly in request
    // order even though they complete on planner threads asynchronously.
    let cfg = ServeConfig { shards: 2, ..reactor_config() };
    let handle = serve(cfg).expect("serve");
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    let mut burst = String::new();
    burst.push_str(&(Request::Stats.encode() + "\n"));
    burst.push_str("{\"v\":1,\"op\":\"warp\"}\n"); // BadOp — completes locally
    burst.push_str(&(Request::QueryPlan { job: None }.encode() + "\n"));
    burst.push_str(&(Request::Predict { job: 9999 }.encode() + "\n")); // unknown job
    burst.push_str(&(Request::Stats.encode() + "\n"));
    stream.write_all(burst.as_bytes()).expect("write");

    let mut replies = Vec::new();
    for _ in 0..5 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        replies.push(Response::decode(line.trim()).expect("decode"));
    }
    assert!(matches!(replies[0], Response::Stats(_)), "{:?}", replies[0]);
    assert!(matches!(&replies[1], Response::Error(e) if e.code.as_str() == "bad-op"));
    assert!(matches!(replies[2], Response::PlanTable { .. }), "{:?}", replies[2]);
    assert!(matches!(&replies[3], Response::Error(e) if e.code.as_str() == "unknown-job"));
    assert!(matches!(replies[4], Response::Stats(_)), "{:?}", replies[4]);

    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client.shutdown(false).expect("shutdown");
    handle.join().expect("join");
}

/// Satellite regression: a lone submission must be planned within one
/// epoch deadline with no further traffic — the reactor's timer wheel
/// (and the planner's own deadline check) close the epoch, not some later
/// request happening to poke the daemon.
fn idle_epoch_closes(frontend: Frontend) {
    let cfg = ServeConfig {
        // Only the deadline can close the epoch: the batch trigger is
        // out of reach for a single submission.
        epoch_max_batch: 1000,
        epoch_ms: 50,
        frontend,
        ..reactor_config()
    };
    let epoch_ms = cfg.epoch_ms;
    let handle = serve(cfg).expect("serve");
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let started = Instant::now();
    let (decision, id, epoch, _) = client.submit(submission("lonely", 4)).expect("submit");
    let elapsed = started.elapsed();
    assert_eq!(decision, Decision::Admit);
    assert!(id.is_some());
    assert_eq!(epoch, 1, "exactly one epoch closed");
    assert!(
        elapsed < Duration::from_millis(epoch_ms * 20),
        "submission sat {elapsed:?} — the epoch deadline did not fire while idle"
    );

    // The job is really planned, not merely acknowledged.
    let rows = client.query_plan(id).expect("plan");
    assert_eq!(rows.len(), 1);

    client.shutdown(false).expect("shutdown");
    handle.join().expect("join");
}

#[test]
fn idle_epoch_closes_under_the_reactor() {
    idle_epoch_closes(Frontend::Reactor);
}

#[test]
fn idle_epoch_closes_under_threads() {
    idle_epoch_closes(Frontend::Threads);
}

/// Drives one fixed request stream through a daemon and returns its
/// snapshot bytes.
fn snapshot_after_stream(frontend: Frontend, binary: bool, tag: &str) -> Vec<u8> {
    let snap: PathBuf = std::env::temp_dir()
        .join(format!("rushd-differential-{}-{tag}.json", std::process::id()));
    std::fs::remove_file(&snap).ok();
    let cfg = ServeConfig {
        frontend,
        snapshot_path: Some(snap.clone()),
        ..reactor_config()
    };
    let handle = serve(cfg).expect("serve");
    let mut client = if binary {
        Client::connect_binary(handle.local_addr()).expect("connect binary")
    } else {
        Client::connect(handle.local_addr()).expect("connect")
    };

    // A deterministic sequential stream: the hour-long logical slot keeps
    // the clock at 0 for every daemon, so the final state depends only on
    // the requests.
    let mut ids = Vec::new();
    for (label, tasks) in [("grep", 12), ("terasort", 40), ("wordcount", 25)] {
        let (decision, id, _, _) = client.submit(submission(label, tasks)).expect("submit");
        assert_eq!(decision, Decision::Admit);
        ids.push(id.expect("admitted"));
    }
    for _ in 0..5 {
        client.report_sample(ids[0], 38).expect("sample");
    }
    client.cancel(ids[1]).expect("cancel");
    assert!(client.shutdown(true).expect("shutdown writes the snapshot"));
    handle.join().expect("join");

    let bytes = std::fs::read(&snap).expect("snapshot file");
    std::fs::remove_file(&snap).ok();
    bytes
}

#[test]
fn frontends_and_codecs_produce_identical_planner_state() {
    let reference = snapshot_after_stream(Frontend::Threads, false, "threads-json");
    let threads_bin = snapshot_after_stream(Frontend::Threads, true, "threads-bin");
    let reactor_json = snapshot_after_stream(Frontend::Reactor, false, "reactor-json");
    let reactor_bin = snapshot_after_stream(Frontend::Reactor, true, "reactor-bin");
    assert_eq!(reference, threads_bin, "threads×binary diverged from threads×JSON");
    assert_eq!(reference, reactor_json, "reactor×JSON diverged from threads×JSON");
    assert_eq!(reference, reactor_bin, "reactor×binary diverged from threads×JSON");
}

/// Satellite regression: `shutdown {snapshot:true}` reaches every planner
/// thread at once, so the shards write their `.shard<i>` files
/// concurrently. Each write must stage in a file of its own — with a
/// shared temp file one shard renames another's bytes into place (or
/// finds its temp file already renamed away and fails).
#[test]
fn concurrent_shard_snapshots_each_restore_their_own_jobs() {
    const SHARDS: usize = 4;
    let snap: PathBuf =
        std::env::temp_dir().join(format!("rushd-shard-snap-{}.json", std::process::id()));
    let shard_path = |i: usize| PathBuf::from(format!("{}.shard{i}", snap.display()));
    for i in 0..SHARDS {
        std::fs::remove_file(shard_path(i)).ok();
    }
    let cfg = ServeConfig {
        shards: SHARDS,
        reactors: 2,
        snapshot_path: Some(snap.clone()),
        ..reactor_config()
    };
    let (capacity, rush) = (cfg.capacity, cfg.rush);
    let handle = serve(cfg).expect("serve");
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    // Same-label jobs share a shard: keep submitting fresh labels until
    // every shard owns at least two jobs.
    let mut owned: Vec<Vec<String>> = vec![Vec::new(); SHARDS];
    let mut next = 0;
    while owned.iter().any(|labels| labels.len() < 2) {
        let label = format!("tpl-{next}");
        next += 1;
        let (decision, _, _, _) = client.submit(submission(&label, 2)).expect("submit");
        assert_eq!(decision, Decision::Admit);
        owned[rush_planner::shard_of_label(&label, SHARDS)].push(label);
    }

    assert!(client.shutdown(true).expect("shutdown"), "snapshot_written must be true");
    handle.join().expect("join");

    let slices = rush_planner::even_split(capacity, SHARDS);
    for (i, want) in owned.iter_mut().enumerate() {
        let path = shard_path(i);
        let (state, _) = rush_serve::snapshot::read(&path, rush, slices[i])
            .unwrap_or_else(|e| panic!("shard {i} snapshot: {e}"));
        std::fs::remove_file(&path).ok();
        let mut have: Vec<String> = state.jobs().map(|(_, j)| j.submission.label).collect();
        have.sort();
        want.sort();
        assert_eq!(&have, want, "shard {i} restored another shard's jobs");
    }
}
