//! Property tests for the wire codecs: every request and response variant
//! must survive encode → decode unchanged (PartialEq, which for the float
//! fields means bit-identical thanks to shortest-round-trip `f64`
//! formatting on both the JSON layer and the utility text form).
//!
//! One strategy corpus feeds **both** codecs: each variant round-trips
//! through the newline-JSON codec and the length-prefixed binary codec,
//! and a differential property asserts the two decoders produce identical
//! values from their respective encodings of the same frame.

use proptest::prelude::*;
use rush_serve::binary::{self, Scan};
use rush_serve::json::{self, Json};
use rush_serve::protocol::{
    Decision, DeferReason, ErrorCode, JobSubmission, PlanRow, Request, Response, StatsReport,
    WireError,
};
use rush_utility::TimeUtility;

/// Characters chosen to stress the string escaper: quotes, backslashes,
/// control characters, multi-byte UTF-8 and an astral-plane emoji.
const PALETTE: &[char] =
    &['a', 'Z', '7', ' ', '-', '_', '"', '\\', '\n', '\t', '\r', '\u{1}', 'é', '木', '🚀'];

/// `text` re-encoded with every object's members in reverse order.
fn reversed(text: &str) -> String {
    fn flip(v: Json) -> Json {
        match v {
            Json::Obj(members) => {
                Json::Obj(members.into_iter().rev().map(|(k, v)| (k, flip(v))).collect())
            }
            Json::Arr(items) => Json::Arr(items.into_iter().map(flip).collect()),
            other => other,
        }
    }
    flip(json::parse(text).expect("encoded frame parses")).encode()
}

fn label_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..PALETTE.len(), 0..12)
        .prop_map(|ix| ix.into_iter().map(|i| PALETTE[i]).collect())
}

fn utility_strategy() -> BoxedStrategy<TimeUtility> {
    prop_oneof![
        (100.0f64..5000.0, 0.5f64..10.0, 0.001f64..1.0)
            .prop_map(|(b, w, beta)| TimeUtility::linear(b, w, beta).expect("valid linear")),
        (100.0f64..5000.0, 0.5f64..10.0, 0.001f64..1.0)
            .prop_map(|(b, w, beta)| TimeUtility::sigmoid(b, w, beta).expect("valid sigmoid")),
        (0.5f64..10.0).prop_map(|w| TimeUtility::constant(w).expect("valid constant")),
        (100.0f64..5000.0, 0.5f64..10.0)
            .prop_map(|(b, w)| TimeUtility::step(b, w).expect("valid step")),
    ]
    .boxed()
}

fn submission_strategy() -> impl Strategy<Value = JobSubmission> {
    (
        label_strategy(),
        1u64..500,
        prop_oneof![Just(None), (1.0f64..500.0).prop_map(Some)],
        utility_strategy(),
        prop_oneof![Just(None), (1u64..100_000).prop_map(Some)],
        1u64..20,
    )
        .prop_map(|(label, tasks, runtime_hint, utility, budget, priority)| JobSubmission {
            label,
            tasks,
            runtime_hint,
            utility,
            budget,
            priority: priority as u32,
        })
}

fn request_strategy() -> BoxedStrategy<Request> {
    prop_oneof![
        submission_strategy().prop_map(Request::Submit),
        (0u64..1000, 1u64..10_000)
            .prop_map(|(job, runtime)| Request::ReportSample { job, runtime }),
        prop_oneof![Just(None), (0u64..1000).prop_map(Some)]
            .prop_map(|job| Request::QueryPlan { job }),
        (0u64..1000).prop_map(|job| Request::Predict { job }),
        (0u64..1000).prop_map(|job| Request::Cancel { job }),
        Just(Request::Stats),
        (1u32..100_000).prop_map(|capacity| Request::SetCapacity { capacity }),
        prop_oneof![Just(true), Just(false)]
            .prop_map(|snapshot| Request::Shutdown { snapshot }),
    ]
    .boxed()
}

fn plan_row_strategy() -> impl Strategy<Value = PlanRow> {
    (
        (0u64..1000, label_strategy(), 1u64..1_000_000, 1u64..500),
        (0.0f64..100_000.0, 0.0f64..50.0, 0u64..64, 0u64..1_000_000),
        prop_oneof![Just(true), Just(false)],
        0u64..500,
    )
        .prop_map(|((job, label, eta, task_len), (target, level, desired, planned), imp, rem)| {
            PlanRow {
                job,
                label,
                eta,
                task_len,
                target,
                level,
                desired_now: desired as u32,
                planned_completion: planned,
                impossible: imp,
                remaining_tasks: rem,
            }
        })
}

fn decision_strategy() -> BoxedStrategy<Decision> {
    prop_oneof![Just(Decision::Admit), Just(Decision::Defer), Just(Decision::Reject)]
    .boxed()
}

fn error_code_strategy() -> BoxedStrategy<ErrorCode> {
    prop_oneof![
        Just(ErrorCode::BadJson),
        Just(ErrorCode::BadFrame),
        Just(ErrorCode::BadVersion),
        Just(ErrorCode::BadOp),
        Just(ErrorCode::BadField),
        Just(ErrorCode::UnknownJob),
        Just(ErrorCode::Deferred),
        Just(ErrorCode::Shutdown),
        Just(ErrorCode::Internal),
    ]
    .boxed()
}

fn defer_reason_strategy() -> BoxedStrategy<Option<DeferReason>> {
    prop_oneof![
        Just(None),
        Just(Some(DeferReason::Overcommit)),
        Just(Some(DeferReason::AwaitingRestock)),
    ]
    .boxed()
}

fn response_strategy() -> BoxedStrategy<Response> {
    prop_oneof![
        (
            prop_oneof![Just(None), (0u64..1000).prop_map(Some)],
            decision_strategy(),
            0u64..10_000,
            0u64..100_000_000,
            defer_reason_strategy(),
        )
            .prop_map(|(job, decision, epoch, waited_us, defer_reason)| Response::Submitted {
                job,
                decision,
                epoch,
                waited_us,
                defer_reason,
            }),
        (1u32..100_000).prop_map(|capacity| Response::CapacitySet { capacity }),
        Just(Response::Ack),
        (0u64..100_000, 0u64..10_000, prop::collection::vec(plan_row_strategy(), 0..6))
            .prop_map(|(now_slot, epoch, rows)| Response::PlanTable { now_slot, epoch, rows }),
        (
            (0u64..1000, 0.0f64..100_000.0, 1u64..500),
            (0.0f64..100_500.0, 0u64..1_000_000),
            prop_oneof![Just(true), Just(false)],
        )
            .prop_map(|((job, target, task_len), (bound, planned), impossible)| {
                Response::Prediction {
                    job,
                    target,
                    task_len,
                    bound,
                    planned_completion: planned,
                    impossible,
                }
            }),
        (
            (0u64..100, 0u64..100, 0u64..10_000, 0u64..10_000),
            (0u64..10_000, 0u64..10_000, 0u64..10_000, 0u64..10_000),
            (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000),
        )
            .prop_map(
                |(
                    (active_jobs, deferred_jobs, epochs, admitted),
                    (deferred, rejected, cancelled, completed),
                    (samples, cache_hits, cache_misses, now_slot),
                )| {
                    Response::Stats(StatsReport {
                        active_jobs,
                        deferred_jobs,
                        epochs,
                        admitted,
                        deferred,
                        rejected,
                        cancelled,
                        completed,
                        samples,
                        cache_hits,
                        cache_misses,
                        now_slot,
                    })
                }
            ),
        prop_oneof![Just(true), Just(false)]
            .prop_map(|snapshot_written| Response::ShuttingDown { snapshot_written }),
        (error_code_strategy(), label_strategy())
            .prop_map(|(code, message)| Response::Error(WireError { code, message })),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Encode → decode is the identity on every request variant, and the
    /// encoded frame is always a single line.
    #[test]
    fn request_encode_decode_round_trips(req in request_strategy()) {
        let line = req.encode();
        prop_assert!(!line.contains('\n'), "frame must be one line: {:?}", line);
        let back = Request::decode(&line);
        prop_assert!(back.is_ok(), "decode failed on {:?}: {:?}", line, back);
        prop_assert_eq!(req, back.expect("checked ok"));
    }

    /// Encode → decode is the identity on every response variant.
    #[test]
    fn response_encode_decode_round_trips(resp in response_strategy()) {
        let line = resp.encode();
        prop_assert!(!line.contains('\n'), "frame must be one line: {:?}", line);
        let back = Response::decode(&line);
        prop_assert!(back.is_ok(), "decode failed on {:?}: {:?}", line, back);
        prop_assert_eq!(resp, back.expect("checked ok"));
    }

    /// A reader looks members up by key, not by position: a frame whose
    /// objects list their members in reverse decodes to the same value.
    #[test]
    fn reversed_member_order_decodes_the_same(
        req in request_strategy(),
        resp in response_strategy(),
    ) {
        let req_back = Request::decode(&reversed(&req.encode()));
        prop_assert_eq!(req, req_back.expect("reversed request decodes"));
        let resp_back = Response::decode(&reversed(&resp.encode()));
        prop_assert_eq!(resp, resp_back.expect("reversed response decodes"));
    }

    /// Truncating an encoded request anywhere never panics the decoder:
    /// it either still parses (the cut fell inside trailing whitespace —
    /// impossible here, frames end at the closing brace) or returns a
    /// structured error.
    #[test]
    fn truncated_requests_never_panic(req in request_strategy(), frac in 0.0f64..1.0) {
        let line = req.encode();
        let mut cut = (line.len() as f64 * frac) as usize;
        while cut < line.len() && !line.is_char_boundary(cut) {
            cut += 1;
        }
        if cut < line.len() {
            let e = Request::decode(&line[..cut]);
            prop_assert!(e.is_err(), "truncation at {} decoded: {:?}", cut, e);
        }
    }

    /// Differential: the JSON and binary codecs decode their respective
    /// encodings of the same request to identical values.
    #[test]
    fn request_codecs_agree(req in request_strategy()) {
        let via_json = Request::decode(&req.encode());
        prop_assert!(via_json.is_ok(), "json decode failed: {:?}", via_json);
        let via_binary = binary::decode_request(&binary::encode_request(&req));
        prop_assert!(via_binary.is_ok(), "binary decode failed: {:?}", via_binary);
        let via_binary = via_binary.expect("checked ok");
        prop_assert_eq!(via_json.expect("checked ok"), via_binary.clone());
        prop_assert_eq!(req, via_binary);
    }

    /// Differential: the JSON and binary codecs decode their respective
    /// encodings of the same response to identical values.
    #[test]
    fn response_codecs_agree(resp in response_strategy()) {
        let via_json = Response::decode(&resp.encode());
        prop_assert!(via_json.is_ok(), "json decode failed: {:?}", via_json);
        let via_binary = binary::decode_response(&binary::encode_response(&resp));
        prop_assert!(via_binary.is_ok(), "binary decode failed: {:?}", via_binary);
        let via_binary = via_binary.expect("checked ok");
        prop_assert_eq!(via_json.expect("checked ok"), via_binary.clone());
        prop_assert_eq!(resp, via_binary);
    }

    /// A complete binary frame scans back exactly, and every proper prefix
    /// is `Incomplete` — the incremental scanner never misparses a frame
    /// boundary mid-stream.
    #[test]
    fn binary_frames_scan_incrementally(req in request_strategy()) {
        let frame = binary::frame_request(&req);
        for cut in 0..frame.len() {
            let scan = binary::scan_frame(&frame[..cut]);
            prop_assert_eq!(scan, Ok(Scan::Incomplete), "cut at {}", cut);
        }
        match binary::scan_frame(&frame) {
            Ok(Scan::Done { item, consumed }) => {
                prop_assert_eq!(consumed, frame.len(), "one frame, nothing left over");
                let back = binary::decode_request(&frame[item]);
                prop_assert!(back.is_ok(), "framed payload must decode: {:?}", back);
                prop_assert_eq!(req, back.expect("checked ok"));
            }
            other => prop_assert!(false, "complete frame must scan Done: {:?}", other),
        }
    }

    /// Truncating a binary request payload anywhere yields a structured
    /// error, never a panic or a silently shorter value (the payload
    /// reader demands exact consumption).
    #[test]
    fn truncated_binary_requests_never_panic(req in request_strategy(), frac in 0.0f64..1.0) {
        let payload = binary::encode_request(&req);
        let cut = (payload.len() as f64 * frac) as usize;
        if cut < payload.len() {
            let e = binary::decode_request(&payload[..cut]);
            prop_assert!(e.is_err(), "truncation at {} decoded: {:?}", cut, e);
        }
    }

    /// The response payload decoder has the same truncation contract.
    #[test]
    fn truncated_binary_responses_never_panic(resp in response_strategy(), frac in 0.0f64..1.0) {
        let payload = binary::encode_response(&resp);
        let cut = (payload.len() as f64 * frac) as usize;
        if cut < payload.len() {
            let e = binary::decode_response(&payload[..cut]);
            prop_assert!(e.is_err(), "truncation at {} decoded: {:?}", cut, e);
        }
    }
}
