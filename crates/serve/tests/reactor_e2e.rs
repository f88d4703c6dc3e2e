//! End-to-end tests of what is specific to the epoll reactor transport,
//! run against live in-process daemons (the protocol scenarios are in
//! `server_e2e.rs`):
//!
//! * several reactor threads over several shards, both codecs on one
//!   daemon;
//! * pipelined requests answered strictly in order over both codecs,
//!   including a 64-request burst, so one loop turn lands many replies
//!   on one connection;
//! * the idle-epoch regression — a lone submission must be planned within
//!   one epoch with **no** further traffic on any connection;
//! * transport independence — a fixed request stream must leave the
//!   snapshot the retired thread-per-connection frontend left, byte for
//!   byte, over both codecs (`fixtures/differential_snapshot.json`);
//! * concurrent shard snapshots at shutdown, and a restart that finds
//!   another shard count's snapshot files.

#![cfg(target_os = "linux")]

use rush_serve::binary::{self, Scan};
use rush_serve::protocol::{Decision, Request, Response};
use rush_serve::server::{even_split, serve, shard_of_label, ServeConfig};
use rush_serve::{Client, ServeError};
use rush_utility::TimeUtility;
use std::io::{BufRead, BufReader, Read, Write};
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

/// One codec's side of a raw pipelined connection: the test writes a
/// whole burst of frames at once, before reading anything.
#[derive(Clone, Copy, Debug)]
enum Codec {
    Json,
    Rush1,
}

impl Codec {
    /// The bytes that open the connection (RUSH1's hello; nothing for
    /// JSON).
    fn opening(self) -> Vec<u8> {
        match self {
            Codec::Json => Vec::new(),
            Codec::Rush1 => binary::hello(binary::BINARY_VERSION).to_vec(),
        }
    }

    fn frame(self, req: &Request) -> Vec<u8> {
        match self {
            Codec::Json => (req.encode() + "\n").into_bytes(),
            Codec::Rush1 => binary::frame_request(req),
        }
    }

    /// A well-framed request with an unknown op: the reactor answers it
    /// `bad-op` itself, without a planner.
    fn bad_op(self) -> Vec<u8> {
        match self {
            Codec::Json => b"{\"v\":1,\"op\":\"warp\"}\n".to_vec(),
            Codec::Rush1 => {
                let mut frame = Vec::new();
                binary::frame_into(&[0xEE], &mut frame);
                frame
            }
        }
    }

    /// Reads the daemon's opening bytes (RUSH1's hello, which must agree
    /// on the version).
    fn read_opening(self, reader: &mut impl Read) {
        if let Codec::Rush1 = self {
            let mut hello = [0u8; 6];
            reader.read_exact(&mut hello).expect("server hello");
            assert_eq!(hello, binary::hello(binary::BINARY_VERSION));
        }
    }

    /// Reads and decodes one reply.
    fn read(self, reader: &mut BufReader<TcpStream>) -> Response {
        match self {
            Codec::Json => {
                let mut line = String::new();
                reader.read_line(&mut line).expect("read");
                Response::decode(line.trim()).expect("decode")
            }
            Codec::Rush1 => {
                let mut frame = Vec::new();
                let payload = loop {
                    let mut byte = [0u8; 1];
                    reader.read_exact(&mut byte).expect("read");
                    frame.extend_from_slice(&byte);
                    if let Scan::Done { item, .. } = binary::scan_frame(&frame).expect("frame") {
                        break item;
                    }
                };
                binary::decode_response(&frame[payload]).expect("decode")
            }
        }
    }
}

/// Writes `burst` (a request stream of `codec` frames) in one write on a
/// fresh connection to a two-shard daemon, before reading anything, and
/// returns the `replies` replies. Broadcasts merge both shards' parts,
/// per-job requests alternate between the shards and `bad-op` completes
/// on the reactor, so the replies complete out of order; the reactor must
/// still answer in request order.
fn pipelined_replies(codec: Codec, burst: &[u8], replies: usize) -> Vec<Response> {
    let cfg = ServeConfig { shards: 2, ..reactor_config() };
    let handle = serve(cfg).expect("serve");
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut bytes = codec.opening();
    bytes.extend_from_slice(burst);
    stream.write_all(&bytes).expect("write");
    codec.read_opening(&mut reader);
    let answers = (0..replies).map(|_| codec.read(&mut reader)).collect();

    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client.shutdown(false).expect("shutdown");
    handle.join().expect("join");
    answers
}

#[test]
fn pipelined_requests_answer_in_order() {
    // Fire a burst of distinguishable requests in one write, before
    // reading anything: the reactor must answer them strictly in request
    // order even though they complete on planner threads asynchronously.
    for codec in [Codec::Json, Codec::Rush1] {
        let mut burst = codec.frame(&Request::Stats);
        burst.extend(codec.bad_op());
        burst.extend(codec.frame(&Request::QueryPlan { job: None }));
        burst.extend(codec.frame(&Request::Predict { job: 9999 })); // unknown job
        burst.extend(codec.frame(&Request::Stats));
        let replies = pipelined_replies(codec, &burst, 5);
        assert!(matches!(replies[0], Response::Stats(_)), "{codec:?}: {:?}", replies[0]);
        assert!(matches!(&replies[1], Response::Error(e) if e.code.as_str() == "bad-op"));
        assert!(matches!(replies[2], Response::PlanTable { .. }), "{codec:?}: {:?}", replies[2]);
        assert!(
            matches!(&replies[3], Response::Error(e) if e.code.as_str() == "unknown-job"
                && e.message == "job 9999 is not resident"),
            "{codec:?}: {:?}",
            replies[3]
        );
        assert!(matches!(replies[4], Response::Stats(_)), "{codec:?}: {:?}", replies[4]);
    }
}

/// A 64-request burst of every kind of reply path (epoch-batched
/// submissions, per-job requests on both shards, broadcasts, requests the
/// reactor answers itself) lands many completions on one connection in
/// one loop turn. The kinds follow no period, so a reply that lands in
/// another request's place shows up as a reply of the wrong kind.
#[test]
fn a_mixed_burst_of_64_answers_in_order() {
    const REQUESTS: u64 = 64;
    // Knuth's multiplicative hash spreads the six kinds without a period.
    let kind = |i: u64| (i.wrapping_mul(2_654_435_761) >> 16) % 6;
    for codec in [Codec::Json, Codec::Rush1] {
        let mut burst = Vec::new();
        for i in 0..REQUESTS {
            burst.extend(match kind(i) {
                0 => codec.frame(&Request::Predict { job: 1000 + i }),
                1 => codec.frame(&Request::Submit(submission(&format!("tpl-{i}"), 2))),
                2 => codec.frame(&Request::Stats),
                3 => codec.bad_op(),
                4 => codec.frame(&Request::QueryPlan { job: None }),
                _ => codec.frame(&Request::Cancel { job: 1000 + i }),
            });
        }
        let replies = pipelined_replies(codec, &burst, REQUESTS as usize);
        for (i, reply) in (0..REQUESTS).zip(&replies) {
            let ok = match (kind(i), reply) {
                // Shard-local id 500 + i/2: the message names the wire id.
                (0 | 5, Response::Error(e)) => {
                    e.code.as_str() == "unknown-job"
                        && e.message == format!("job {} is not resident", 1000 + i)
                }
                (3, Response::Error(e)) => e.code.as_str() == "bad-op",
                (1, Response::Submitted { .. })
                | (2, Response::Stats(_))
                | (4, Response::PlanTable { .. }) => true,
                _ => false,
            };
            assert!(ok, "{codec:?} reply {i}: {reply:?}");
        }
    }
}

/// A JSON frame whose bytes are not UTF-8 is refused as `bad-json`, as
/// RUSH1 refuses the same bytes: never decoded with a replacement
/// character and admitted. The connection survives the refusal.
#[test]
fn invalid_utf8_json_frame_is_refused_and_the_connection_survives() {
    let handle = serve(reactor_config()).expect("serve");
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut reply = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        Response::decode(line.trim()).expect("decode")
    };

    let mut frame = br#"{"v":1,"op":"submit","label":"gr"#.to_vec();
    frame.push(0xFF);
    frame.extend_from_slice(br#"p","tasks":8,"utility":"sigmoid:700,5,0.02","priority":2}"#);
    frame.push(b'\n');
    stream.write_all(&frame).expect("write");
    match reply() {
        Response::Error(e) => {
            assert_eq!(e.code.as_str(), "bad-json", "{e}");
            assert!(e.message.contains("UTF-8"), "{e}");
        }
        other => panic!("a non-UTF-8 frame must be refused, got {other:?}"),
    }

    stream.write_all((Request::Stats.encode() + "\n").as_bytes()).expect("write");
    match reply() {
        Response::Stats(stats) => {
            assert_eq!((stats.admitted, stats.deferred, stats.rejected), (0, 0, 0));
            assert_eq!(stats.active_jobs, 0);
        }
        other => panic!("the connection must survive a refused frame, got {other:?}"),
    }

    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client.shutdown(false).expect("shutdown");
    handle.join().expect("join");
}

/// Satellite regression: a lone submission must be planned within one
/// epoch deadline with no further traffic — the planner closes the epoch
/// itself once it finds its queue empty, not some later request happening
/// to poke the daemon.
#[test]
fn idle_epoch_closes_under_the_reactor() {
    let cfg = ServeConfig {
        // The batch trigger is out of reach for a single submission, so
        // only the planner's idle close (or, failing it, the deadline)
        // can answer it.
        epoch_max_batch: 1000,
        epoch_ms: 50,
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
        "submission sat {elapsed:?} — the epoch did not close while idle"
    );

    // The job is really planned, not merely acknowledged.
    let rows = client.query_plan(id).expect("plan");
    assert_eq!(rows.len(), 1);

    client.shutdown(false).expect("shutdown");
    handle.join().expect("join");
}

/// Drives one fixed request stream through a daemon and returns its
/// snapshot bytes.
fn snapshot_after_stream(
    connect: fn(std::net::SocketAddr) -> Result<Client, rush_serve::ServeError>,
    tag: &str,
) -> Vec<u8> {
    let snap: PathBuf = std::env::temp_dir()
        .join(format!("rushd-differential-{}-{tag}.json", std::process::id()));
    std::fs::remove_file(&snap).ok();
    let cfg = ServeConfig { snapshot_path: Some(snap.clone()), ..reactor_config() };
    let handle = serve(cfg).expect("serve");
    let mut client = connect(handle.local_addr()).expect("connect");

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

fn differential_fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/differential_snapshot.json")
}

/// The planner state cannot depend on the transport.
/// `fixtures/differential_snapshot.json` is what the thread-per-connection
/// frontend (over JSON; deleted since) wrote for
/// [`snapshot_after_stream`]'s request stream at commit 236b405, where the
/// live four-way differential (`threads`/`reactor` × JSON/RUSH1) held; the
/// reactor must reproduce it byte for byte over both codecs. Re-run
/// [`regenerate_differential_snapshot`] only when the snapshot format or
/// the stream is changed on purpose.
#[test]
fn both_codecs_reproduce_the_thread_frontend_snapshot() {
    let golden = std::fs::read(differential_fixture()).expect("fixture");
    assert_eq!(snapshot_after_stream(Client::connect, "json"), golden, "JSON diverged");
    assert_eq!(snapshot_after_stream(Client::connect_binary, "rush1"), golden, "RUSH1 diverged");
}

#[test]
#[ignore = "rewrites the golden snapshot from the daemon under test"]
fn regenerate_differential_snapshot() {
    std::fs::write(differential_fixture(), snapshot_after_stream(Client::connect, "regen"))
        .expect("write fixture");
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
        owned[shard_of_label(&label, SHARDS)].push(label);
    }

    assert!(client.shutdown(true).expect("shutdown"), "snapshot_written must be true");
    handle.join().expect("join");

    let slices = even_split(capacity, SHARDS);
    for (i, want) in owned.iter_mut().enumerate() {
        let path = shard_path(i);
        let (state, _) = rush_serve::snapshot::read(&path, rush, slices[i])
            .unwrap_or_else(|e| panic!("shard {i} snapshot: {e}"));
        std::fs::remove_file(&path).ok();
        let mut have: Vec<String> = state.jobs().map(|(_, j)| j.submission.label.clone()).collect();
        have.sort();
        want.sort();
        assert_eq!(&have, want, "shard {i} restored another shard's jobs");
    }
}

/// A restart finds the snapshot files its own shard count writes, or
/// none: a two-shard daemon restarted with two shards answers every wire
/// id it handed out with the same plan row, and the same files are refused
/// — naming the file — under one shard (which would silently start empty)
/// and under four shards with the capacity doubled (which would restore
/// shards 0 and 1 under a new wire-id stride).
#[test]
fn restart_needs_the_snapshot_layout_of_its_shard_count() {
    let snap: PathBuf =
        std::env::temp_dir().join(format!("rushd-restart-{}.json", std::process::id()));
    let shard_path = |i: usize| PathBuf::from(format!("{}.shard{i}", snap.display()));
    let cleanup = || {
        for i in 0..4 {
            std::fs::remove_file(shard_path(i)).ok();
        }
        std::fs::remove_file(&snap).ok();
    };
    cleanup();
    let cfg = ServeConfig { shards: 2, snapshot_path: Some(snap.clone()), ..reactor_config() };

    let handle = serve(cfg.clone()).expect("serve");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let mut ids = Vec::new();
    for i in 0..6 {
        let (decision, id, _, _) =
            client.submit(submission(&format!("tpl-{i}"), 4 + i)).expect("submit");
        assert_eq!(decision, Decision::Admit);
        ids.push(id.expect("admitted"));
    }
    let before: Vec<_> = ids.iter().map(|&id| client.query_plan(Some(id)).expect("plan")).collect();
    assert!(client.shutdown(true).expect("shutdown"), "snapshot_written must be true");
    handle.join().expect("join");

    let handle = serve(cfg.clone()).expect("restart under the same shard count");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    for (&id, rows) in ids.iter().zip(&before) {
        assert_eq!(&client.query_plan(Some(id)).expect("plan"), rows, "wire id {id}");
    }
    assert!(client.shutdown(true).expect("shutdown"), "snapshot_written must be true");
    handle.join().expect("join");

    let refusals = [(1, cfg.capacity, shard_path(0)), (4, 2 * cfg.capacity, shard_path(2))];
    for (shards, capacity, names) in refusals {
        match serve(ServeConfig { shards, capacity, ..cfg.clone() }) {
            Err(ServeError::Snapshot(msg)) => {
                assert!(msg.contains(&names.display().to_string()), "{shards} shards: {msg}")
            }
            Err(e) => panic!("{shards} shards: expected a snapshot refusal, got {e}"),
            Ok(_) => panic!("{shards} shards: started from another shard count's snapshots"),
        }
    }
    cleanup();
}
