//! Fixture tests for malformed wire frames — JSON and binary: every one
//! must produce a *structured* error with the right [`ErrorCode`] — never
//! a panic, and never a silently-coerced value. The live-daemon halves of
//! these cases (connection survives a bad frame; framing errors are
//! connection-fatal) are in `server_e2e.rs` and `reactor_e2e.rs`.

use rush_serve::binary::{self, Scan};
use rush_serve::protocol::{ErrorCode, Request, Response};

fn code_of(line: &str) -> ErrorCode {
    Request::decode(line).expect_err(&format!("should be rejected: {line:?}")).code
}

#[test]
fn truncated_frames() {
    let whole = r#"{"v":1,"op":"submit","label":"grep","tasks":8,"utility":"sigmoid:700,5,0.02","priority":2}"#;
    assert!(Request::decode(whole).is_ok(), "fixture itself must be valid");
    for cut in 1..whole.len() {
        assert_eq!(code_of(&whole[..cut]), ErrorCode::BadJson, "cut at {cut}");
    }
}

#[test]
fn non_object_and_garbage_frames() {
    for bad in ["", "   ", "null", "42", "[1,2]", "\"submit\"", "submit", "{]", "{\"v\":1,}"] {
        assert_eq!(code_of(bad), ErrorCode::BadJson, "{bad:?}");
    }
}

#[test]
fn bad_versions() {
    for bad in [
        r#"{"op":"stats"}"#,
        r#"{"v":0,"op":"stats"}"#,
        r#"{"v":2,"op":"stats"}"#,
        r#"{"v":"1","op":"stats"}"#,
        r#"{"v":1.5,"op":"stats"}"#,
        r#"{"v":null,"op":"stats"}"#,
    ] {
        assert_eq!(code_of(bad), ErrorCode::BadVersion, "{bad:?}");
    }
}

#[test]
fn unknown_ops() {
    for bad in [
        r#"{"v":1}"#,
        r#"{"v":1,"op":"frobnicate"}"#,
        r#"{"v":1,"op":""}"#,
        r#"{"v":1,"op":17}"#,
        r#"{"v":1,"op":"SUBMIT"}"#,
    ] {
        assert_eq!(code_of(bad), ErrorCode::BadOp, "{bad:?}");
    }
}

#[test]
fn missing_and_mistyped_submit_fields() {
    let cases = [
        // missing label
        r#"{"v":1,"op":"submit","tasks":8,"utility":"constant:1","priority":2}"#,
        // missing tasks
        r#"{"v":1,"op":"submit","label":"x","utility":"constant:1","priority":2}"#,
        // zero tasks
        r#"{"v":1,"op":"submit","label":"x","tasks":0,"utility":"constant:1","priority":2}"#,
        // fractional tasks
        r#"{"v":1,"op":"submit","label":"x","tasks":2.5,"utility":"constant:1","priority":2}"#,
        // negative hint
        r#"{"v":1,"op":"submit","label":"x","tasks":2,"hint":-4,"utility":"constant:1","priority":2}"#,
        // unknown utility kind
        r#"{"v":1,"op":"submit","label":"x","tasks":2,"utility":"warp:1,2","priority":2}"#,
        // malformed utility args
        r#"{"v":1,"op":"submit","label":"x","tasks":2,"utility":"sigmoid:1","priority":2}"#,
        // utility args that fail validation (negative weight)
        r#"{"v":1,"op":"submit","label":"x","tasks":2,"utility":"constant:-3","priority":2}"#,
        // missing priority
        r#"{"v":1,"op":"submit","label":"x","tasks":2,"utility":"constant:1"}"#,
        // zero priority
        r#"{"v":1,"op":"submit","label":"x","tasks":2,"utility":"constant:1","priority":0}"#,
        // priority beyond u32
        r#"{"v":1,"op":"submit","label":"x","tasks":2,"utility":"constant:1","priority":5000000000}"#,
        // mistyped budget
        r#"{"v":1,"op":"submit","label":"x","tasks":2,"utility":"constant:1","priority":2,"budget":"soon"}"#,
    ];
    for bad in cases {
        assert_eq!(code_of(bad), ErrorCode::BadField, "{bad:?}");
    }
}

#[test]
fn mistyped_job_references() {
    for bad in [
        r#"{"v":1,"op":"report-sample","runtime":10}"#,
        r#"{"v":1,"op":"report-sample","job":1}"#,
        r#"{"v":1,"op":"report-sample","job":-1,"runtime":10}"#,
        r#"{"v":1,"op":"report-sample","job":"j1","runtime":10}"#,
        r#"{"v":1,"op":"predict"}"#,
        r#"{"v":1,"op":"predict","job":3.25}"#,
        r#"{"v":1,"op":"cancel","job":null}"#,
        r#"{"v":1,"op":"query-plan","job":"all"}"#,
        // 2^53 + 1: not exactly representable, must not be silently rounded
        r#"{"v":1,"op":"predict","job":9007199254740993}"#,
    ] {
        assert_eq!(code_of(bad), ErrorCode::BadField, "{bad:?}");
    }
}

#[test]
fn duplicate_keys_and_deep_nesting_are_bad_json() {
    assert_eq!(code_of(r#"{"v":1,"op":"stats","op":"shutdown"}"#), ErrorCode::BadJson);
    let deep = format!(r#"{{"v":1,"op":"stats","x":{}{}}}"#, "[".repeat(80), "]".repeat(80));
    assert_eq!(code_of(&deep), ErrorCode::BadJson);
}

#[test]
fn trailing_garbage_is_rejected() {
    assert_eq!(code_of(r#"{"v":1,"op":"stats"} extra"#), ErrorCode::BadJson);
    assert_eq!(code_of(r#"{"v":1,"op":"stats"}{"v":1,"op":"stats"}"#), ErrorCode::BadJson);
}

#[test]
fn error_messages_locate_the_problem() {
    let e = Request::decode(r#"{"v":1,"op":"submit","label":"x"}"#).expect_err("rejected");
    assert!(e.message.contains("tasks"), "message should name the field: {e}");
    let e = Request::decode("{\"v\":1,\"op\"").expect_err("rejected");
    assert!(e.message.contains("byte"), "json errors carry a position: {e}");
}

#[test]
fn binary_bad_magic_is_connection_fatal() {
    // Wrong magic: the peer is not speaking RUSH1 at all.
    let e = binary::scan_hello(b"RUSX1\x01").expect_err("bad magic");
    assert_eq!(e.code, ErrorCode::BadFrame);
    // A JSON frame's first byte is `{`, never `R`: the codec sniff in the
    // reactor is unambiguous, and feeding JSON to the hello scanner is
    // caught immediately.
    assert_eq!(binary::scan_hello(br#"{"v":1,"op":"stats"}"#).expect_err("json").code, ErrorCode::BadFrame);
}

#[test]
fn binary_truncated_hello_waits_for_more() {
    let hello = binary::hello(binary::BINARY_VERSION);
    for cut in 0..hello.len() {
        assert_eq!(
            binary::scan_hello(&hello[..cut]).expect("prefix of a valid hello"),
            Scan::Incomplete,
            "cut at {cut}"
        );
    }
    match binary::scan_hello(&hello).expect("complete hello") {
        Scan::Done { item, consumed } => {
            assert_eq!(item, binary::BINARY_VERSION);
            assert_eq!(consumed, hello.len());
        }
        Scan::Incomplete => panic!("complete hello must scan"),
    }
}

#[test]
fn binary_version_mismatch_negotiates_to_zero() {
    assert_eq!(binary::negotiate(0), 0, "a client offering nothing gets nothing");
    assert_eq!(binary::negotiate(binary::BINARY_VERSION), binary::BINARY_VERSION);
    assert_eq!(binary::negotiate(250), binary::BINARY_VERSION, "future client downgrades");
    // The zero verdict survives the hello round trip: the client can tell
    // "no common version" apart from any negotiated one.
    match binary::scan_hello(&binary::hello(0)).expect("hello") {
        Scan::Done { item, .. } => assert_eq!(item, 0),
        Scan::Incomplete => panic!("complete hello must scan"),
    }
}

#[test]
fn binary_truncated_length_prefix_waits_for_more() {
    let frame = binary::frame_request(&Request::Stats);
    for cut in 0..frame.len() {
        assert_eq!(
            binary::scan_frame(&frame[..cut]).expect("prefix of a valid frame"),
            Scan::Incomplete,
            "cut at {cut}"
        );
    }
}

#[test]
fn binary_oversized_frame_is_fatal() {
    // A varint length prefix announcing one byte more than the cap.
    let mut prefix = Vec::new();
    let mut n = binary::MAX_FRAME_LEN + 1;
    while n >= 0x80 {
        prefix.push((n as u8 & 0x7f) | 0x80);
        n >>= 7;
    }
    prefix.push(n as u8);
    let e = binary::scan_frame(&prefix).expect_err("oversized frame");
    assert_eq!(e.code, ErrorCode::BadFrame);
}

#[test]
fn binary_runaway_length_prefix_is_fatal() {
    // Endless continuation bits: the scanner must give up rather than
    // wait for bytes that cannot complete a legal length.
    let e = binary::scan_frame(&[0x80u8; 11]).expect_err("runaway varint");
    assert_eq!(e.code, ErrorCode::BadFrame);
}

#[test]
fn binary_unknown_tags_and_empty_payloads_are_structured_errors() {
    assert_eq!(binary::decode_request(&[]).expect_err("empty").code, ErrorCode::BadFrame);
    assert_eq!(binary::decode_request(&[0xEE]).expect_err("unknown tag").code, ErrorCode::BadOp);
    assert!(binary::decode_response(&[]).is_err());
    assert!(binary::decode_response(&[0xEE]).is_err());
}

#[test]
fn binary_trailing_bytes_in_a_payload_are_rejected() {
    let mut payload = binary::encode_request(&Request::Stats);
    payload.push(0);
    assert_eq!(binary::decode_request(&payload).expect_err("trailing byte").code, ErrorCode::BadFrame);
}

#[test]
fn binary_field_validation_matches_the_json_codec() {
    // The binary decoder applies the same semantic validation as JSON:
    // zero tasks must draw `bad-field`, not a structural error. Encode a
    // valid submit, then surgically zero the tasks varint (it follows the
    // 1-byte label-length prefix + label).
    let sub = rush_serve::protocol::JobSubmission {
        label: "x".into(),
        tasks: 1,
        runtime_hint: None,
        utility: rush_utility::TimeUtility::constant(1.0).expect("valid"),
        budget: None,
        priority: 1,
    };
    let mut payload = binary::encode_request(&Request::Submit(sub));
    // payload = [tag, label_len=1, 'x', tasks=1, ...]
    assert_eq!(payload[3], 1, "tasks varint sits after the 1-byte label");
    payload[3] = 0;
    assert_eq!(binary::decode_request(&payload).expect_err("zero tasks").code, ErrorCode::BadField);
}

#[test]
fn malformed_responses_are_structured_errors_too() {
    for bad in [
        "",
        "{}",
        r#"{"ok":"yes"}"#,
        r#"{"ok":true}"#,
        r#"{"ok":true,"kind":"prize"}"#,
        r#"{"ok":false,"code":"made-up","message":"x"}"#,
        r#"{"ok":false,"code":"bad-json"}"#,
        r#"{"ok":true,"kind":"submitted","decision":"maybe","epoch":1,"waited_us":1}"#,
        r#"{"ok":true,"kind":"plan","now_slot":1,"epoch":1,"rows":[{"job":1}]}"#,
    ] {
        assert!(Response::decode(bad).is_err(), "{bad:?}");
    }
}

/// One rule for both codecs: a `submit` with several invalid fields is
/// refused for the *first* of them in declaration order (`tasks`, `hint`,
/// `utility`, `priority`), with `bad-field` naming it — whichever codec
/// carried the frame. (`label` and `budget` have no invalid value RUSH1
/// can express; their JSON-only rows follow.)
#[test]
fn the_first_faulty_field_in_declaration_order_wins_in_both_codecs() {
    const ORDER: [&str; 4] = ["tasks", "hint", "utility", "priority"];
    let varint_str = |s: &str, out: &mut Vec<u8>| {
        out.push(s.len() as u8);
        out.extend_from_slice(s.as_bytes());
    };
    for mask in 1u8..16 {
        let faulty = |field: &str| ORDER.iter().position(|f| *f == field).is_some_and(|i| mask >> i & 1 == 1);
        let want = ORDER.iter().find(|f| faulty(f)).expect("mask is non-zero");
        let (tasks, hint, utility, priority) = (
            if faulty("tasks") { 0u8 } else { 2 },
            if faulty("hint") { -4.0f64 } else { 4.0 },
            if faulty("utility") { "warp:1" } else { "constant:1" },
            if faulty("priority") { 0u8 } else { 1 },
        );

        let json = format!(
            r#"{{"v":1,"op":"submit","priority":{priority},"utility":"{utility}","hint":{hint},"tasks":{tasks},"label":"x"}}"#
        );
        let mut rush1 = vec![0u8]; // submit tag
        varint_str("x", &mut rush1);
        rush1.push(tasks);
        rush1.push(1); // hint present
        rush1.extend_from_slice(&hint.to_bits().to_le_bytes());
        varint_str(utility, &mut rush1);
        rush1.push(0); // no budget
        rush1.push(priority);

        for (codec, e) in [
            ("json", Request::decode(&json).expect_err("faulty frame")),
            ("rush1", binary::decode_request(&rush1).expect_err("faulty frame")),
        ] {
            assert_eq!(e.code, ErrorCode::BadField, "{codec} mask {mask:04b}: {e}");
            assert!(e.message.contains(&format!("\"{want}\"")), "{codec} mask {mask:04b}: {e}");
        }
    }
    // JSON alone can mistype a field; declaration order still decides.
    for (line, want) in [
        (r#"{"v":1,"op":"submit","label":7,"tasks":0,"utility":"constant:1","priority":0}"#, "label"),
        (r#"{"v":1,"op":"submit","label":"x","tasks":2,"utility":"constant:1","budget":"soon","priority":0}"#, "budget"),
    ] {
        let e = Request::decode(line).expect_err("faulty frame");
        assert_eq!(e.code, ErrorCode::BadField, "{line}");
        assert!(e.message.contains(&format!("\"{want}\"")), "{line}: {e}");
    }
}

/// A label that is not UTF-8 is refused by RUSH1 as a malformed frame,
/// never decoded with a replacement character. (The JSON half, whose
/// frame is a line of bytes, is the live case in `reactor_e2e.rs`.)
#[test]
fn binary_invalid_utf8_label_is_a_bad_frame() {
    let mut payload = vec![0u8, 4, b'g', b'r', 0xFF, b'p']; // submit tag, label
    payload.push(8); // tasks
    payload.push(0); // no hint
    let utility = b"sigmoid:700,5,0.02";
    payload.push(utility.len() as u8);
    payload.extend_from_slice(utility);
    payload.push(0); // no budget
    payload.push(2); // priority
    let mut valid = payload.clone();
    valid[4] = b'e';
    assert!(binary::decode_request(&valid).is_ok(), "fixture itself must be valid");
    let e = binary::decode_request(&payload).expect_err("invalid UTF-8");
    assert_eq!(e.code, ErrorCode::BadFrame, "{e}");
    assert!(e.message.contains("UTF-8"), "{e}");
}
