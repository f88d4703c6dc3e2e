//! End-to-end protocol scenarios against a live in-process daemon: full
//! request lifecycle (both codecs), sharding, capacity changes, admission
//! verdicts, and the connection-survives-a-bad-frame contract whose
//! pure-codec halves live in `malformed_frames.rs`. What is specific to the
//! transport (pipelining order, the idle epoch clock, multi-reactor
//! fan-out, snapshot transport-independence) lives in `reactor_e2e.rs`;
//! how the planner cuts queued submissions into epochs is unit-tested in
//! `server.rs`, where the queue can be filled before the planner runs.

#![cfg(target_os = "linux")]

use rush_serve::protocol::{Decision, ErrorCode, Request, Response};
use rush_serve::server::{serve, ServeConfig};
use rush_serve::Client;
use rush_utility::TimeUtility;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        capacity: 16,
        epoch_max_batch: 8,
        epoch_ms: 10,
        ms_per_slot: 3_600_000,
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

fn full_session_lifecycle(
    connect: fn(std::net::SocketAddr) -> Result<Client, rush_serve::ServeError>,
) {
    let handle = serve(test_config()).expect("serve");
    let mut client = connect(handle.local_addr()).expect("connect");

    // Submit, then exercise every read/write op against the job.
    let (decision, id, epoch, _) = client.submit(submission("session", 10)).expect("submit");
    assert_eq!(decision, Decision::Admit);
    let id = id.expect("admitted");
    assert!(epoch >= 1);

    let rows = client.query_plan(Some(id)).expect("plan");
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].label, "session");
    assert_eq!(rows[0].remaining_tasks, 10);
    assert!(rows[0].eta >= 10 * 40, "robust demand inflates the hint");

    let bound = client.predict(id).expect("predict");
    assert_eq!(bound, rows[0].target + rows[0].task_len as f64);

    for _ in 0..9 {
        client.report_sample(id, 41).expect("sample");
    }
    client.report_sample(id, 39).expect("last sample completes the job");
    let err = client.predict(id).expect_err("job is gone");
    let msg = err.to_string();
    assert!(msg.contains("unknown-job"), "completion removes the job: {msg}");

    // A second job can still be cancelled explicitly.
    let (_, id2, _, _) = client.submit(submission("doomed", 4)).expect("submit");
    client.cancel(id2.expect("admitted")).expect("cancel");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.active_jobs, 0);
    assert_eq!(stats.admitted, 2);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.samples, 10);

    assert!(!client.shutdown(false).expect("shutdown"));
    handle.join().expect("join");
}

#[test]
fn full_session_lifecycle_over_json() {
    full_session_lifecycle(Client::connect);
}

#[test]
fn full_session_lifecycle_over_rush1() {
    full_session_lifecycle(Client::connect_binary);
}

#[test]
fn sharded_daemon_serves_the_same_lifecycle() {
    // Four planner shards: submissions route by label hash, wire ids
    // encode the owner shard, and cluster-wide requests (full table,
    // stats, shutdown) merge across shards.
    let cfg = ServeConfig { shards: 4, ..test_config() };
    let handle = serve(cfg).expect("serve");
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let mut ids = Vec::new();
    for i in 0..8 {
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

    // Per-job reads route to the owner shard.
    for &id in &ids {
        let rows = client.query_plan(Some(id)).expect("plan");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].job, id);
        let _ = client.predict(id).expect("predict");
    }

    // The merged full table sees every shard's jobs.
    let all = client.query_plan(None).expect("full table");
    assert_eq!(all.len(), 8);

    // Samples route by wire id; completing one job updates merged stats.
    for _ in 0..4 {
        client.report_sample(ids[0], 40).expect("sample");
    }
    client.cancel(ids[1]).expect("cancel");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.admitted, 8);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.samples, 4);
    assert_eq!(stats.active_jobs, 6);

    assert!(!client.shutdown(false).expect("shutdown"));
    handle.join().expect("join");
}

#[test]
fn set_capacity_resizes_across_shards_and_codecs() {
    let cfg = ServeConfig { shards: 4, ..test_config() };
    let handle = serve(cfg).expect("serve");
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    // A resident job keeps its plan through both resizes.
    let (d, id, _, _) = client.submit(submission("survivor", 4)).expect("submit");
    assert_eq!(d, Decision::Admit);
    let id = id.expect("admitted");

    // Shrink: every shard re-slices; the reply sums back to the total.
    assert_eq!(client.set_capacity(8).expect("shrink"), 8);
    assert_eq!(client.query_plan(Some(id)).expect("plan").len(), 1);

    // Grow, over the binary codec this time.
    let mut bin = Client::connect_binary(handle.local_addr()).expect("connect binary");
    assert_eq!(bin.set_capacity(24).expect("grow"), 24);
    assert_eq!(bin.query_plan(Some(id)).expect("plan").len(), 1);

    // A capacity the shards cannot split is refused atomically …
    let err = client.set_capacity(3).expect_err("4 shards need >= 4 containers");
    assert!(err.to_string().contains("bad-field"), "{err}");
    // … and zero dies in the decoder before reaching any planner.
    let err = client.set_capacity(0).expect_err("zero capacity");
    assert!(err.to_string().contains("bad-field"), "{err}");
    // Neither failed resize moved the cluster off 24.
    assert_eq!(client.set_capacity(24).expect("idempotent resize"), 24);

    client.shutdown(false).expect("shutdown");
    handle.join().expect("join");
}

#[test]
fn spot_revocation_defers_awaiting_restock_over_the_wire() {
    use rush_core::cluster::ClusterModel;
    use rush_serve::protocol::DeferReason;

    let cfg = ServeConfig {
        cluster: Some(ClusterModel::tiered(8, 0, 8)),
        ..test_config()
    };
    let handle = serve(cfg).expect("serve");
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    // The whole spot pool is revoked: 16 → 8 containers.
    assert_eq!(client.set_capacity(8).expect("revoke"), 8);

    // Size the job from the same estimator the daemon runs: a budget of
    // η/8 − 1 is infeasible at the depressed 8 but feasible at the
    // provisioned 16 even after the 60-slot spot reclaim horizon.
    let (eta, _) = rush_planner::estimate_eta(
        &rush_core::RushConfig::default(),
        &[],
        Some(40.0),
        400,
    )
    .expect("estimate");
    let budget = eta / 8 - 1;
    let spiky = rush_serve::protocol::JobSubmission {
        label: "spiky".into(),
        tasks: 400,
        runtime_hint: Some(40.0),
        utility: TimeUtility::linear(budget as f64, 3.0, 0.01).expect("valid"),
        budget: Some(budget),
        priority: 1,
    };
    let job = match client.call(&Request::Submit(spiky)).expect("submit") {
        Response::Submitted { decision, defer_reason, job, .. } => {
            assert_eq!(decision, Decision::Defer);
            assert_eq!(defer_reason, Some(DeferReason::AwaitingRestock));
            job.expect("parked job keeps its id")
        }
        other => panic!("expected a submit verdict, got {other:?}"),
    };
    assert_eq!(client.stats().expect("stats").deferred_jobs, 1);

    // The market restocks; the next epoch re-probes and admits.
    assert_eq!(client.set_capacity(16).expect("restock"), 16);
    let (d, _, _, _) = client.submit(submission("epoch-trigger", 1)).expect("submit");
    assert_eq!(d, Decision::Admit);
    assert_eq!(client.stats().expect("stats").deferred_jobs, 0);
    assert_eq!(client.query_plan(Some(job)).expect("plan").len(), 1);

    client.shutdown(false).expect("shutdown");
    handle.join().expect("join");
}

#[test]
fn cluster_model_requires_a_single_shard() {
    use rush_core::cluster::ClusterModel;
    let cfg = ServeConfig {
        cluster: Some(ClusterModel::tiered(8, 0, 8)),
        shards: 4,
        ..test_config()
    };
    assert!(serve(cfg).is_err(), "a shard slice cannot observe the cluster-wide deficit");
}

#[test]
fn sharded_daemon_rejects_thin_capacity() {
    let cfg = ServeConfig { shards: 32, capacity: 16, ..test_config() };
    assert!(serve(cfg).is_err(), "capacity must cover one container per shard");
}

/// Raw-socket client: sends `line`, returns the response line.
fn raw_call(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    stream.write_all(line.as_bytes()).expect("write");
    stream.write_all(b"\n").expect("write");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read");
    reply
}

#[test]
fn connection_survives_malformed_frames() {
    let handle = serve(test_config()).expect("serve");
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // Three different malformed frames, each answered with a structured
    // error on the SAME connection.
    for (bad, want) in [
        ("{\"v\":1,\"op\":\"stats\"", ErrorCode::BadJson),
        ("{\"v\":9,\"op\":\"stats\"}", ErrorCode::BadVersion),
        ("{\"v\":1,\"op\":\"warp\"}", ErrorCode::BadOp),
    ] {
        let reply = raw_call(&mut stream, &mut reader, bad);
        match Response::decode(reply.trim()) {
            Ok(Response::Error(e)) => assert_eq!(e.code, want, "frame {bad:?}"),
            other => panic!("expected structured error for {bad:?}, got {other:?}"),
        }
    }

    // ...and the connection is still perfectly usable afterwards.
    let reply = raw_call(&mut stream, &mut reader, &Request::Stats.encode());
    match Response::decode(reply.trim()) {
        Ok(Response::Stats(s)) => assert_eq!(s.active_jobs, 0),
        other => panic!("expected stats after bad frames, got {other:?}"),
    }

    let reply = raw_call(&mut stream, &mut reader, &Request::Shutdown { snapshot: false }.encode());
    match Response::decode(reply.trim()) {
        Ok(Response::ShuttingDown { snapshot_written }) => assert!(!snapshot_written),
        other => panic!("expected shutdown ack, got {other:?}"),
    }
    handle.join().expect("join");
}

#[test]
fn overcommit_draws_reject_and_deferred_is_queryable_later() {
    // Tiny cluster: one container, short horizon. A huge deadline-
    // sensitive job is rejected; an insensitive one is deferred and its
    // plan/predict queries answer `deferred` until room frees up.
    let rush = rush_core::RushConfig { horizon: 500.0, ..rush_core::RushConfig::default() };
    let cfg = ServeConfig { capacity: 1, rush, ..test_config() };
    let handle = serve(cfg).expect("serve");
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    // Fills most of the single 500-slot container.
    let (d1, id1, _, _) = client.submit(submission("filler", 4)).expect("submit");
    assert_eq!(d1, Decision::Admit);
    let _ = id1.expect("admitted");

    // Deadline-sensitive and far too big: rejected outright, no id.
    let (d2, id2, _, _) = client.submit(submission("too-big", 400)).expect("submit");
    assert_eq!(d2, Decision::Reject);
    assert!(id2.is_none());

    // Deadline-insensitive and too big *now*: deferred with an id.
    let insensitive = rush_serve::protocol::JobSubmission {
        label: "patient".into(),
        tasks: 8,
        runtime_hint: Some(40.0),
        utility: TimeUtility::constant(1.0).expect("valid"),
        budget: None,
        priority: 1,
    };
    let (d3, id3, _, _) = client.submit(insensitive).expect("submit");
    assert_eq!(d3, Decision::Defer);
    let id3 = id3.expect("deferred jobs get ids");

    let err = client.predict(id3).expect_err("parked job has no plan row");
    assert!(err.to_string().contains("deferred"), "{err}");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.deferred_jobs, 1);
    assert_eq!(stats.rejected, 1);

    client.shutdown(false).expect("shutdown");
    handle.join().expect("join");
}
