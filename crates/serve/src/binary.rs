//! The version-negotiated, length-prefixed binary wire codec.
//!
//! A compact alternative to the newline-JSON protocol carrying exactly the
//! same [`Request`]/[`Response`] values — the codec differential suite
//! proves both decode to identical values and drive the planner to
//! byte-identical snapshots.
//!
//! ## Negotiation handshake
//!
//! A binary connection opens with a 6-byte client hello: the magic
//! `b"RUSH1"` followed by the highest frame version the client speaks.
//! The server answers with the same magic and the negotiated version
//! (`min(client, server)`), or version `0` ("no common version") and a
//! close. The magic's first byte (`R`, 0x52) is how the daemon sniffs
//! binary from JSON on one port: a JSON frame always starts with `{`.
//!
//! ## Framing
//!
//! After the handshake, each frame in either direction is an LEB128
//! varint payload length followed by the payload. Payloads are capped at
//! [`MAX_FRAME_LEN`]; an oversized or unparseable length prefix is
//! connection-fatal (there is no way to resynchronize), while a
//! well-framed but malformed payload yields a structured
//! `ErrorCode::BadFrame`/`ErrorCode::BadField` error and the
//! connection keeps serving — mirroring the JSON codec's contract.
//!
//! ## Field encoding
//!
//! * `u64`/`u32` — LEB128 varint (u32 widened).
//! * `f64` — 8 bytes, little-endian IEEE-754 bits (bit-exact round trip).
//! * `String` — varint byte length + UTF-8 bytes.
//! * `bool` — one byte, `0` or `1` (anything else is malformed).
//! * `Option<T>` — one presence byte (`0`/`1`) then `T` when present.
//! * Utilities travel in the same text form as JSON
//!   (`sigmoid:700,5,0.02`), so all wire formats share one grammar.
//!
//! Every payload starts with a one-byte variant tag. The tags, the field
//! order and the field codecs themselves live in `wire.rs`, the one
//! description both wire formats are derived from; this file keeps the
//! handshake and the framing. The tag tables are documented in
//! `DESIGN.md` §15.

use crate::protocol::{Request, Response, WireError};
use crate::wire::{self, bad_frame};

/// The 5-byte connection magic both hellos open with.
pub const MAGIC: &[u8; 5] = b"RUSH1";

/// The highest binary frame version this build speaks.
pub const BINARY_VERSION: u8 = 1;

/// Hard cap on a frame payload; larger length prefixes are
/// connection-fatal.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Result of scanning a byte buffer for one complete item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scan<T> {
    /// More bytes are needed; read again and re-scan.
    Incomplete,
    /// One complete item, consuming `consumed` buffer bytes.
    Done {
        /// The decoded item.
        item: T,
        /// Bytes to drop from the front of the buffer.
        consumed: usize,
    },
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

/// The negotiated version for a client that offered `client_max`, or `0`
/// when there is no common version.
pub fn negotiate(client_max: u8) -> u8 {
    client_max.min(BINARY_VERSION)
}

/// The 6-byte hello either side sends: magic + version byte.
pub fn hello(version: u8) -> [u8; 6] {
    let mut h = [0u8; 6];
    h[..5].copy_from_slice(MAGIC);
    h[5] = version; // bound: h is a fixed [u8; 6], index 5 is its last byte
    h
}

/// Scans a buffer for a complete 6-byte hello.
///
/// # Errors
///
/// `ErrorCode::BadFrame` when the magic does not match (connection-fatal:
/// the peer is not speaking this protocol).
pub fn scan_hello(buf: &[u8]) -> Result<Scan<u8>, WireError> {
    if buf.iter().zip(MAGIC).any(|(got, want)| got != want) {
        return Err(bad_frame("bad magic: expected RUSH1"));
    }
    match buf.get(5) {
        Some(&version) => Ok(Scan::Done { item: version, consumed: 6 }),
        None => Ok(Scan::Incomplete),
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Appends a varint length prefix + `payload` to `out`.
pub fn frame_into(payload: &[u8], out: &mut Vec<u8>) {
    wire::put_varint(payload.len() as u64, out);
    out.extend_from_slice(payload);
}

/// Scans a buffer for one complete length-prefixed frame, returning the
/// payload byte range (relative to the buffer start).
///
/// # Errors
///
/// `ErrorCode::BadFrame` for an oversized or malformed length prefix —
/// connection-fatal, since the stream cannot be resynchronized.
pub fn scan_frame(buf: &[u8]) -> Result<Scan<std::ops::Range<usize>>, WireError> {
    let mut len: u64 = 0;
    let mut shift = 0u32;
    let mut idx = 0usize;
    loop {
        let Some(&byte) = buf.get(idx) else {
            // A length prefix longer than 5 bytes already exceeds the
            // frame cap; don't wait for more bytes that cannot help.
            return if idx >= 5 { Err(bad_frame("length prefix too long")) } else { Ok(Scan::Incomplete) };
        };
        len |= u64::from(byte & 0x7f) << shift;
        idx += 1;
        if byte & 0x80 == 0 {
            break;
        }
        shift += 7;
        if shift >= 35 {
            return Err(bad_frame("length prefix too long"));
        }
    }
    if len > MAX_FRAME_LEN as u64 {
        return Err(bad_frame(format!("frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap")));
    }
    let len = len as usize;
    if buf.len() < idx + len {
        return Ok(Scan::Incomplete);
    }
    Ok(Scan::Done { item: idx..idx + len, consumed: idx + len })
}

// ---------------------------------------------------------------------------
// Payloads
// ---------------------------------------------------------------------------

/// Encodes a request payload (tag + fields, no length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    wire::request_rush1_into(req, &mut out);
    out
}

/// Decodes a request payload, applying exactly the validation the JSON
/// decoder applies (both walk the one description in `wire.rs`).
///
/// # Errors
///
/// `ErrorCode::BadFrame` for structural problems, `ErrorCode::BadOp`
/// for an unknown tag, `ErrorCode::BadField` for validation failures —
/// the connection stays usable after any of them.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    wire::request_from_rush1(payload)
}

/// Encodes a response payload (tag + fields, no length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    wire::response_rush1_into(resp, &mut out);
    out
}

/// Decodes a response payload (the client side of the codec).
///
/// # Errors
///
/// [`WireError`] when the payload is not a well-formed response.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    wire::response_from_rush1(payload)
}

/// Appends one frame to `out`: the payload `write` appends, behind its
/// length prefix. The prefix's first byte is reserved before the payload
/// and filled in once the length is known; a payload of 128 bytes or more
/// moves up, in place, by the 1–3 bytes more its prefix takes.
fn frame_with(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.push(0);
    write(out);
    let (prefix, n) = wire::varint((out.len() - start - 1) as u64);
    if let (Some(slot), Some(&first)) = (out.get_mut(start), prefix.first()) {
        *slot = first;
    }
    let more = prefix.get(1..n).unwrap_or_default();
    if !more.is_empty() {
        out.splice(start + 1..start + 1, more.iter().copied());
    }
}

/// Encodes a request as one complete frame (length prefix + payload).
pub fn frame_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    frame_with(&mut out, |payload| wire::request_rush1_into(req, payload));
    out
}

/// Encodes a response as one complete frame (length prefix + payload).
pub fn frame_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    frame_response_into(resp, &mut out);
    out
}

/// Appends a response as one complete frame (length prefix + payload) to
/// `out`; into a buffer with room, this allocates nothing.
pub fn frame_response_into(resp: &Response, out: &mut Vec<u8>) {
    frame_with(out, |payload| wire::response_rush1_into(resp, payload));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Decision, DeferReason, ErrorCode, JobSubmission, PlanRow, StatsReport};
    use crate::wire::put_varint;
    use rush_utility::TimeUtility;

    // Hand-rolled payload bytes, independent of the encoder under test.
    const REQ_SUBMIT: u8 = 0;
    const REQ_SHUTDOWN: u8 = 6;
    const REQ_SET_CAPACITY: u8 = 7;
    const RESP_SUBMITTED: u8 = 0;

    fn put_str(s: &str, out: &mut Vec<u8>) {
        put_varint(s.len() as u64, out);
        out.extend_from_slice(s.as_bytes());
    }

    fn put_opt_varint(v: Option<u64>, out: &mut Vec<u8>) {
        out.push(u8::from(v.is_some()));
        if let Some(v) = v {
            put_varint(v, out);
        }
    }

    fn put_opt_f64(v: Option<f64>, out: &mut Vec<u8>) {
        out.push(u8::from(v.is_some()));
        if let Some(v) = v {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    fn sub() -> JobSubmission {
        JobSubmission {
            label: "terasort".into(),
            tasks: 40,
            runtime_hint: Some(55.5),
            utility: TimeUtility::sigmoid(700.0, 5.0, 0.02).expect("valid"),
            budget: Some(700),
            priority: 3,
        }
    }

    #[test]
    fn handshake_negotiates_the_minimum() {
        assert_eq!(negotiate(0), 0);
        assert_eq!(negotiate(1), 1);
        assert_eq!(negotiate(200), BINARY_VERSION);
        let h = hello(1);
        assert_eq!(&h[..5], MAGIC);
        match scan_hello(&h).expect("valid hello") {
            Scan::Done { item, consumed } => {
                assert_eq!(item, 1);
                assert_eq!(consumed, 6);
            }
            Scan::Incomplete => unreachable!("complete hello"),
        }
    }

    #[test]
    fn partial_hello_waits_and_bad_magic_is_fatal() {
        assert_eq!(scan_hello(b"RUS").expect("prefix ok"), Scan::Incomplete);
        assert!(scan_hello(b"RUSX1\x01").is_err());
        assert!(scan_hello(b"{\"v\":1").is_err(), "JSON opener is not binary magic");
    }

    #[test]
    fn frames_round_trip_through_the_scanner() {
        let mut buf = Vec::new();
        frame_into(b"abc", &mut buf);
        frame_into(b"", &mut buf);
        frame_into(&[7u8; 300], &mut buf);

        let Scan::Done { item, consumed } = scan_frame(&buf).expect("frame") else {
            unreachable!("complete frame")
        };
        assert_eq!(&buf[item], b"abc");
        buf.drain(..consumed);

        let Scan::Done { item, consumed } = scan_frame(&buf).expect("frame") else {
            unreachable!("complete frame")
        };
        assert!(buf[item.clone()].is_empty());
        buf.drain(..consumed);

        let Scan::Done { item, consumed } = scan_frame(&buf).expect("frame") else {
            unreachable!("complete frame")
        };
        assert_eq!(buf[item.clone()].len(), 300);
        assert_eq!(consumed, buf.len());
    }

    #[test]
    fn frames_written_in_place_match_framed_payloads() {
        // Payloads under 128 bytes, over 128 bytes and over 16 KiB: length
        // prefixes of 1, 2 and 3 bytes.
        for rows in [0, 4, 600] {
            let rows = (0..rows)
                .map(|job| PlanRow { job, label: format!("job-{job}"), ..PlanRow::default() })
                .collect();
            let resp = Response::PlanTable { now_slot: 1, epoch: 2, rows };
            let mut want = Vec::new();
            frame_into(&encode_response(&resp), &mut want);
            let mut queued = b"queued".to_vec();
            frame_response_into(&resp, &mut queued);
            assert_eq!(queued[..6], *b"queued", "bytes ahead of the frame stay");
            assert_eq!(queued[6..], want[..]);
            assert_eq!(frame_response(&resp), want);
        }
    }

    #[test]
    fn truncated_length_prefix_and_payload_wait_for_more() {
        // 300-byte frame: 2-byte prefix. One prefix byte alone: incomplete.
        let mut buf = Vec::new();
        frame_into(&[7u8; 300], &mut buf);
        assert_eq!(scan_frame(&buf[..1]).expect("scan"), Scan::Incomplete);
        assert_eq!(scan_frame(&buf[..50]).expect("scan"), Scan::Incomplete);
    }

    #[test]
    fn oversized_frames_are_fatal() {
        let mut buf = Vec::new();
        put_varint(MAX_FRAME_LEN as u64 + 1, &mut buf);
        let e = scan_frame(&buf).expect_err("over cap");
        assert_eq!(e.code, ErrorCode::BadFrame);
        // A length prefix that never terminates is fatal too.
        let e = scan_frame(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff]).expect_err("runaway varint");
        assert_eq!(e.code, ErrorCode::BadFrame);
    }

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            Request::Submit(sub()),
            Request::Submit(JobSubmission {
                runtime_hint: None,
                budget: None,
                utility: TimeUtility::constant(2.0).expect("valid"),
                ..sub()
            }),
            Request::ReportSample { job: 7, runtime: 61 },
            Request::QueryPlan { job: None },
            Request::QueryPlan { job: Some(3) },
            Request::Predict { job: 9 },
            Request::Cancel { job: 0 },
            Request::Stats,
            Request::SetCapacity { capacity: 24 },
            Request::Shutdown { snapshot: false },
        ];
        for r in reqs {
            let payload = encode_request(&r);
            let back = decode_request(&payload).unwrap_or_else(|e| panic!("{r:?}: {e}"));
            assert_eq!(r, back);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = vec![
            Response::Submitted {
                job: Some(12),
                decision: Decision::Admit,
                epoch: 4,
                waited_us: 1800,
                defer_reason: None,
            },
            Response::Submitted {
                job: None,
                decision: Decision::Reject,
                epoch: 4,
                waited_us: 90,
                defer_reason: None,
            },
            Response::Submitted {
                job: Some(3),
                decision: Decision::Defer,
                epoch: 2,
                waited_us: 40,
                defer_reason: Some(DeferReason::AwaitingRestock),
            },
            Response::Submitted {
                job: Some(4),
                decision: Decision::Defer,
                epoch: 2,
                waited_us: 41,
                defer_reason: Some(DeferReason::Overcommit),
            },
            Response::CapacitySet { capacity: 48 },
            Response::Ack,
            Response::PlanTable {
                now_slot: 17,
                epoch: 6,
                rows: vec![PlanRow {
                    job: 12,
                    label: "grep".into(),
                    eta: 2400,
                    task_len: 60,
                    target: 512.25,
                    level: 4.75,
                    desired_now: 5,
                    planned_completion: 480,
                    impossible: false,
                    remaining_tasks: 31,
                }],
            },
            Response::Prediction {
                job: 12,
                target: 512.25,
                task_len: 60,
                bound: 572.25,
                planned_completion: 480,
                impossible: false,
            },
            Response::Stats(StatsReport { active_jobs: 3, samples: 230, ..StatsReport::default() }),
            Response::ShuttingDown { snapshot_written: true },
            Response::error(ErrorCode::UnknownJob, "job 99 is not resident"),
        ];
        for r in resps {
            let payload = encode_response(&r);
            let back = decode_response(&payload).unwrap_or_else(|e| panic!("{r:?}: {e}"));
            assert_eq!(r, back);
        }
    }

    #[test]
    fn set_capacity_and_defer_reason_are_validated() {
        // capacity == 0 mirrors the JSON decoder's BadField.
        let p = vec![REQ_SET_CAPACITY, 0];
        assert_eq!(decode_request(&p).expect_err("zero capacity").code, ErrorCode::BadField);
        // capacity beyond u32.
        let mut p = vec![REQ_SET_CAPACITY];
        put_varint(5_000_000_000, &mut p);
        assert_eq!(decode_request(&p).expect_err("huge capacity").code, ErrorCode::BadField);
        // An unknown defer-reason tag in a Submitted frame is a framing
        // error: the byte is ours, not the client's.
        let mut p = vec![RESP_SUBMITTED];
        put_opt_varint(Some(1), &mut p);
        p.push(0); // Admit
        put_varint(1, &mut p); // epoch
        put_varint(2, &mut p); // waited_us
        p.push(9); // bogus reason tag
        assert_eq!(decode_response(&p).expect_err("bad reason").code, ErrorCode::BadFrame);
    }

    #[test]
    fn validation_mirrors_the_json_decoder() {
        // tasks == 0
        let mut p = encode_request(&Request::Submit(sub()));
        // Rebuild by hand: tag, label, tasks=0 ...
        p.clear();
        p.push(REQ_SUBMIT);
        put_str("x", &mut p);
        put_varint(0, &mut p);
        put_opt_f64(None, &mut p);
        put_str("constant:1", &mut p);
        put_opt_varint(None, &mut p);
        put_varint(1, &mut p);
        assert_eq!(decode_request(&p).expect_err("zero tasks").code, ErrorCode::BadField);

        // hint <= 0 and non-finite hints.
        for bad_hint in [0.0, -4.0, f64::NAN, f64::INFINITY] {
            let mut p = Vec::new();
            p.push(REQ_SUBMIT);
            put_str("x", &mut p);
            put_varint(2, &mut p);
            put_opt_f64(Some(bad_hint), &mut p);
            put_str("constant:1", &mut p);
            put_opt_varint(None, &mut p);
            put_varint(1, &mut p);
            assert_eq!(decode_request(&p).expect_err("bad hint").code, ErrorCode::BadField);
        }

        // unknown utility grammar
        let mut p = Vec::new();
        p.push(REQ_SUBMIT);
        put_str("x", &mut p);
        put_varint(2, &mut p);
        put_opt_f64(None, &mut p);
        put_str("warp:1,2", &mut p);
        put_opt_varint(None, &mut p);
        put_varint(1, &mut p);
        assert_eq!(decode_request(&p).expect_err("bad utility").code, ErrorCode::BadField);

        // priority 0 and priority beyond u32
        for bad_priority in [0u64, 5_000_000_000] {
            let mut p = Vec::new();
            p.push(REQ_SUBMIT);
            put_str("x", &mut p);
            put_varint(2, &mut p);
            put_opt_f64(None, &mut p);
            put_str("constant:1", &mut p);
            put_opt_varint(None, &mut p);
            put_varint(bad_priority, &mut p);
            assert_eq!(decode_request(&p).expect_err("bad priority").code, ErrorCode::BadField);
        }
    }

    #[test]
    fn structural_garbage_is_bad_frame_or_bad_op() {
        assert_eq!(decode_request(&[]).expect_err("empty").code, ErrorCode::BadFrame);
        assert_eq!(decode_request(&[99]).expect_err("unknown tag").code, ErrorCode::BadOp);
        assert_eq!(decode_response(&[99]).expect_err("unknown tag").code, ErrorCode::BadOp);
        // Truncated mid-field.
        let whole = encode_request(&Request::Submit(sub()));
        for cut in 1..whole.len() {
            let e = decode_request(&whole[..cut]).expect_err("truncated");
            assert_eq!(e.code, ErrorCode::BadFrame, "cut at {cut}");
        }
        // Trailing bytes after a complete payload.
        let mut padded = encode_request(&Request::Stats);
        padded.push(0);
        assert_eq!(decode_request(&padded).expect_err("trailing").code, ErrorCode::BadFrame);
        // Bad boolean byte.
        assert_eq!(decode_request(&[REQ_SHUTDOWN, 7]).expect_err("bad bool").code, ErrorCode::BadFrame);
    }

    #[test]
    fn float_fields_are_bit_exact() {
        let resp = Response::Prediction {
            job: 1,
            target: f64::MIN_POSITIVE,
            task_len: 1,
            bound: 1.0 / 3.0,
            planned_completion: 0,
            impossible: false,
        };
        let back = decode_response(&encode_response(&resp)).expect("round trip");
        let Response::Prediction { target, bound, .. } = back else {
            unreachable!("prediction")
        };
        assert_eq!(target.to_bits(), f64::MIN_POSITIVE.to_bits());
        assert_eq!(bound.to_bits(), (1.0f64 / 3.0).to_bits());
    }
}
