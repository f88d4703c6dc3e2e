//! Golden wire corpus: the bytes `rushd` put on the wire *before* the
//! codecs were derived from `wire.rs`, replayed against today's codecs.
//!
//! `fixtures/wire_corpus.txt` holds one line per value of [`corpus`], in
//! order: `req|resp`, the JSON frame, and the RUSH1 payload as hex,
//! tab-separated. It was written by [`regenerate_fixtures`] at commit
//! 95637bd (hand-enumerated codecs), so a passing run proves the derived
//! encoders emit the same bytes and both decoders return the original
//! value. `fixtures/parent_snapshot.json` is a snapshot document the same
//! commit wrote. Re-run the ignored test only when the wire format is
//! changed on purpose (with a version bump).

use rush_core::cluster::ClusterModel;
use rush_core::RushConfig;
use rush_planner::JobRecord;
use rush_serve::binary;
use rush_serve::json::{parse, Json};
use rush_serve::protocol::{
    Decision, DeferReason, ErrorCode, JobSubmission, PlanRow, Request, Response, StatsReport,
    WireError,
};
use rush_serve::snapshot;
use rush_serve::state::{Counters, ServeState};
use rush_utility::TimeUtility;
use std::path::PathBuf;

#[derive(Debug, Clone, PartialEq)]
enum Entry {
    Req(Request),
    Resp(Response),
}

const ALL_CODES: [ErrorCode; 9] = [
    ErrorCode::BadJson,
    ErrorCode::BadFrame,
    ErrorCode::BadVersion,
    ErrorCode::BadOp,
    ErrorCode::BadField,
    ErrorCode::UnknownJob,
    ErrorCode::Deferred,
    ErrorCode::Shutdown,
    ErrorCode::Internal,
];

/// Largest integer the JSON codec carries exactly.
const MAX_INT: u64 = (1 << 53) - 1;

/// Finite `f64` edge values (JSON cannot carry NaN or infinities).
const FLOATS: [f64; 7] =
    [0.0, -0.0, f64::MIN_POSITIVE, 5e-324, 1.0 / 3.0, 1e300, f64::MAX];

fn row(job: u64, label: &str, target: f64, level: f64) -> PlanRow {
    PlanRow {
        job,
        label: label.into(),
        eta: 2400 + job,
        task_len: 60,
        target,
        level,
        desired_now: 5,
        planned_completion: 480,
        impossible: job % 2 == 1,
        remaining_tasks: 31,
    }
}

/// Every variant × every optional-field presence combination, plus the
/// edge values the issue names. Order is the fixture's line order.
fn corpus() -> Vec<Entry> {
    let mut out = Vec::new();
    let utilities = [
        TimeUtility::sigmoid(700.0, 5.0, 0.02).expect("valid"),
        TimeUtility::linear(1200.5, 2.0, 0.001).expect("valid"),
        TimeUtility::constant(2.0).expect("valid"),
        TimeUtility::step(900.0, 3.5).expect("valid"),
    ];
    let labels = ["terasort", "", "caña 木 🚀", "esc \" \\ \n \t \u{1} end"];
    let mut k = 0usize;
    for hint in [None, Some(55.5)] {
        for budget in [None, Some(700u64)] {
            out.push(Entry::Req(Request::Submit(JobSubmission {
                label: labels[k % labels.len()].into(),
                tasks: 1 + 39 * k as u64,
                runtime_hint: hint,
                utility: utilities[k % utilities.len()],
                budget,
                priority: 1 + k as u32,
            })));
            k += 1;
        }
    }
    out.push(Entry::Req(Request::Submit(JobSubmission {
        label: "edge".into(),
        tasks: MAX_INT,
        runtime_hint: Some(f64::MIN_POSITIVE),
        utility: utilities[3],
        budget: Some(MAX_INT),
        priority: u32::MAX,
    })));
    out.push(Entry::Req(Request::ReportSample { job: 7, runtime: 61 }));
    out.push(Entry::Req(Request::ReportSample { job: MAX_INT, runtime: 0 }));
    out.push(Entry::Req(Request::QueryPlan { job: None }));
    out.push(Entry::Req(Request::QueryPlan { job: Some(3) }));
    out.push(Entry::Req(Request::Predict { job: 9 }));
    out.push(Entry::Req(Request::Cancel { job: 0 }));
    out.push(Entry::Req(Request::Stats));
    out.push(Entry::Req(Request::SetCapacity { capacity: 1 }));
    out.push(Entry::Req(Request::SetCapacity { capacity: u32::MAX }));
    out.push(Entry::Req(Request::Shutdown { snapshot: false }));
    out.push(Entry::Req(Request::Shutdown { snapshot: true }));

    for decision in [Decision::Admit, Decision::Defer, Decision::Reject] {
        for job in [None, Some(12u64)] {
            for defer_reason in
                [None, Some(DeferReason::Overcommit), Some(DeferReason::AwaitingRestock)]
            {
                out.push(Entry::Resp(Response::Submitted {
                    job,
                    decision,
                    epoch: 4,
                    waited_us: 1800,
                    defer_reason,
                }));
            }
        }
    }
    out.push(Entry::Resp(Response::Submitted {
        job: Some(MAX_INT),
        decision: Decision::Admit,
        epoch: MAX_INT,
        waited_us: 0,
        defer_reason: None,
    }));
    out.push(Entry::Resp(Response::Ack));
    out.push(Entry::Resp(Response::PlanTable { now_slot: 17, epoch: 6, rows: Vec::new() }));
    out.push(Entry::Resp(Response::PlanTable {
        now_slot: 18,
        epoch: 7,
        rows: vec![
            row(12, "grep", 512.25, 4.75),
            row(13, "caña 木 🚀", 0.0, 0.0),
            row(14, "quote\"back\\slash\nnewline", 1e300, f64::MIN_POSITIVE),
        ],
    }));
    for (i, &x) in FLOATS.iter().enumerate() {
        out.push(Entry::Resp(Response::PlanTable {
            now_slot: i as u64,
            epoch: 1,
            rows: vec![row(i as u64, "f", x, FLOATS[FLOATS.len() - 1 - i])],
        }));
        out.push(Entry::Resp(Response::Prediction {
            job: i as u64,
            target: x,
            task_len: 60,
            bound: x + 60.0,
            planned_completion: 480,
            impossible: i % 2 == 0,
        }));
    }
    out.push(Entry::Resp(Response::Stats(StatsReport::default())));
    out.push(Entry::Resp(Response::Stats(StatsReport {
        active_jobs: 3,
        deferred_jobs: 1,
        epochs: 9,
        admitted: 10,
        deferred: 2,
        rejected: 1,
        cancelled: 4,
        completed: 5,
        samples: 230,
        cache_hits: 40,
        cache_misses: 8,
        now_slot: MAX_INT,
    })));
    out.push(Entry::Resp(Response::CapacitySet { capacity: 48 }));
    out.push(Entry::Resp(Response::CapacitySet { capacity: u32::MAX }));
    out.push(Entry::Resp(Response::ShuttingDown { snapshot_written: true }));
    out.push(Entry::Resp(Response::ShuttingDown { snapshot_written: false }));
    for (i, code) in ALL_CODES.into_iter().enumerate() {
        let message = if i % 2 == 0 { "job 99 is not resident" } else { "campo \"tasks\": 木\n" };
        out.push(Entry::Resp(Response::Error(WireError { code, message: message.into() })));
    }
    out
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).expect("fixture hex"))
        .collect()
}

fn line_of(e: &Entry) -> String {
    match e {
        Entry::Req(r) => format!("req\t{}\t{}", r.encode(), hex(&binary::encode_request(r))),
        Entry::Resp(r) => format!("resp\t{}\t{}", r.encode(), hex(&binary::encode_response(r))),
    }
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// The state behind `parent_snapshot.json`: hinted and unhinted, budgeted
/// and unbudgeted, sampled, parked, under a tiered cluster model.
fn snapshot_state() -> (ServeState, u64) {
    let job = |label: &str, hint, budget, utility, parked| JobRecord {
        submission: JobSubmission {
            label: label.into(),
            tasks: 12,
            runtime_hint: hint,
            utility,
            budget,
            priority: 4,
        },
        samples: if parked { Vec::new() } else { vec![38, 44, 41] },
        remaining_tasks: if parked { 12 } else { 9 },
        arrived_slot: 3,
        parked,
    };
    let sig = TimeUtility::sigmoid(2000.0, 4.0, 0.005).expect("valid");
    let flat = TimeUtility::constant(1.0).expect("valid");
    let jobs = vec![
        (0, job("grep", Some(40.0), Some(2000), sig, false)),
        (2, job("caña 木", None, Some(900), TimeUtility::step(900.0, 2.0).expect("valid"), false)),
        (3, job("bulk", Some(12.5), None, flat, false)),
        (5, job("parked", None, None, flat, true)),
    ];
    let counters = Counters {
        epochs: 9,
        admitted: 5,
        deferred: 1,
        rejected: 2,
        cancelled: 1,
        completed: 1,
        samples: 9,
    };
    let state = ServeState::from_parts(RushConfig::default(), 16, jobs, 6, counters)
        .expect("state")
        .with_cluster_model(ClusterModel::tiered(8, 4, 4))
        .expect("model");
    (state, 7)
}

/// Object keys sorted recursively: the snapshot contract is keys and
/// values, not key order.
fn canon(v: &Json) -> Json {
    match v {
        Json::Obj(fields) => {
            let mut fields: Vec<_> = fields.iter().map(|(k, v)| (k.clone(), canon(v))).collect();
            fields.sort_by(|a, b| a.0.cmp(&b.0));
            Json::Obj(fields)
        }
        Json::Arr(items) => Json::Arr(items.iter().map(canon).collect()),
        other => other.clone(),
    }
}

#[test]
fn encoders_reproduce_the_parent_bytes_and_decoders_the_values() {
    let text = std::fs::read_to_string(fixture("wire_corpus.txt")).expect("fixture");
    let lines: Vec<&str> = text.lines().collect();
    let entries = corpus();
    assert_eq!(lines.len(), entries.len(), "one fixture line per corpus value");
    for (want, entry) in lines.iter().zip(&entries) {
        assert_eq!(line_of(entry), *want, "{entry:?}");
        let mut parts = want.split('\t');
        let (kind, json, payload) = (
            parts.next().expect("kind"),
            parts.next().expect("json"),
            unhex(parts.next().expect("hex")),
        );
        let (via_json, via_rush1) = match kind {
            "req" => (
                Entry::Req(Request::decode(json).expect("json decodes")),
                Entry::Req(binary::decode_request(&payload).expect("rush1 decodes")),
            ),
            _ => (
                Entry::Resp(Response::decode(json).expect("json decodes")),
                Entry::Resp(binary::decode_response(&payload).expect("rush1 decodes")),
            ),
        };
        assert_eq!(via_json, *entry, "{json}");
        assert_eq!(via_rush1, *entry, "{json}");
    }
}

#[test]
fn parent_written_snapshot_restores_and_re_encodes_to_the_same_document() {
    let text = std::fs::read_to_string(fixture("parent_snapshot.json")).expect("fixture");
    let (want_state, slot) = snapshot_state();
    let (state, restored_slot) =
        snapshot::decode(text.trim_end(), RushConfig::default(), 16).expect("restores");
    assert_eq!(restored_slot, slot);
    assert_eq!(state.jobs().collect::<Vec<_>>(), want_state.jobs().collect::<Vec<_>>());
    assert_eq!(state.counters(), want_state.counters());
    let again = snapshot::encode(&state, restored_slot);
    assert_eq!(again.len(), text.trim_end().len(), "serve.snapshot.bytes must not move");
    assert_eq!(
        canon(&parse(&again).expect("json")),
        canon(&parse(text.trim_end()).expect("json"))
    );
}

#[test]
#[ignore = "rewrites the golden fixtures from the codecs under test"]
fn regenerate_fixtures() {
    let mut text = String::new();
    for e in corpus() {
        text.push_str(&line_of(&e));
        text.push('\n');
    }
    std::fs::create_dir_all(fixture("")).expect("fixture dir");
    std::fs::write(fixture("wire_corpus.txt"), text).expect("write corpus");
    let (state, slot) = snapshot_state();
    std::fs::write(fixture("parent_snapshot.json"), snapshot::encode(&state, slot) + "\n")
        .expect("write snapshot");
}
