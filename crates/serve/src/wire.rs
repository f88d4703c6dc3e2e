//! The one description of what `rushd` puts on a wire or in a snapshot.
//!
//! Every message is stated **once**, as a function generic over a
//! [`Format`]: [`request`], [`response`], [`plan_row`], [`submission`]
//! (and, in [`crate::snapshot`], the snapshot records that embed
//! [`submission`]). A description names each field in wire order with its
//! type, optionality and validation; [`request_id`] / [`response_id`] pair
//! each variant with its JSON `op`/`kind` string and RUSH1 tag byte; the
//! [`Choice`] tables do the same for the closed enums. Four back-ends walk
//! those descriptions — [`JsonWriter`], [`JsonReader`], [`Rush1Writer`],
//! [`Rush1Reader`] — so the two codecs cannot disagree about a field's
//! name, order or validity, and a new field reaches every encoding.
//!
//! A description has the shape `fn(&mut F, &T) -> Wire<T>`. A **writer**
//! emits the fields of its argument; what it returns is an echo nobody
//! reads (scalars as given, strings and lists empty). A **reader** ignores
//! its argument — a blank of the right variant, which is how it picks the
//! `match` arm — and returns the decoded value. Validation sits between
//! the fields as [`Format::reject`], which only readers enforce, so the
//! first faulty field in declaration order wins in every codec.
//!
//! Adding a field: add it to the struct or variant in `protocol.rs` and
//! give it one line, in wire position, in its description here (rustc
//! points at both the pattern and the blank). Adding a message: a variant,
//! an arm in the description, an id in `request_id`/`response_id`, a
//! blank in `request_blanks`/`response_blanks`. Nothing else in the crate
//! enumerates fields.
//!
//! This file parses attacker-controlled bytes on the event-loop thread:
//! checked access only (the crate denies the panic family and
//! `clippy::indexing_slicing`, see `lib.rs`).

use crate::json::{self, Json, MAX_SAFE_INT};
use crate::protocol::{
    Decision, DeferReason, ErrorCode, JobSubmission, PlanRow, Request, Response, StatsReport,
    WireError, PROTOCOL_VERSION,
};
use rush_utility::{utility_from_text, utility_to_text};
use std::fmt::Write as _;

/// Result of walking a description.
pub(crate) type Wire<T> = Result<T, WireError>;

/// A description: walks one `T` in format `F`.
pub(crate) type Walk<F, T> = fn(&mut F, &T) -> Wire<T>;

/// One scalar field method of `F`, as [`Format::opt`] takes it.
type Field<F, T> = fn(&mut F, &str, T) -> Wire<T>;

/// A text grammar's parser, as [`Format::text`] takes it.
type Parse<T> = fn(&str) -> Result<T, String>;

pub(crate) fn bad_field(name: &str, why: &str) -> WireError {
    WireError::new(ErrorCode::BadField, format!("field \"{name}\": {why}"))
}

pub(crate) fn bad_frame(why: impl Into<String>) -> WireError {
    WireError::new(ErrorCode::BadFrame, why)
}

// ---------------------------------------------------------------------------
// Closed enums: value ↔ JSON string ↔ RUSH1 tag (the table position)
// ---------------------------------------------------------------------------

/// A closed enum that travels as a string in JSON and as its table
/// position in RUSH1.
pub(crate) trait Choice: Copy + PartialEq + 'static {
    /// What error messages call the enum.
    const WHAT: &'static str;
    /// Every value with its JSON string, in RUSH1 tag order.
    const TABLE: &'static [(Self, &str)];
}

impl Choice for ErrorCode {
    const WHAT: &'static str = "error code";
    const TABLE: &'static [(Self, &str)] = &[
        (ErrorCode::BadJson, "bad-json"),
        (ErrorCode::BadFrame, "bad-frame"),
        (ErrorCode::BadVersion, "bad-version"),
        (ErrorCode::BadOp, "bad-op"),
        (ErrorCode::BadField, "bad-field"),
        (ErrorCode::UnknownJob, "unknown-job"),
        (ErrorCode::Deferred, "deferred"),
        (ErrorCode::Shutdown, "shutdown"),
        (ErrorCode::Internal, "internal"),
    ];
}

impl Choice for Decision {
    const WHAT: &'static str = "decision";
    const TABLE: &'static [(Self, &str)] =
        &[(Decision::Admit, "admit"), (Decision::Defer, "defer"), (Decision::Reject, "reject")];
}

/// The optional reason is one choice of three: RUSH1 spends a single byte
/// on it, and JSON spells the empty name by leaving the key out.
impl Choice for Option<DeferReason> {
    const WHAT: &'static str = "defer reason";
    const TABLE: &'static [(Self, &str)] = &[
        (None, ""),
        (Some(DeferReason::Overcommit), "overcommit"),
        (Some(DeferReason::AwaitingRestock), "awaiting-restock"),
    ];
}

/// The JSON string of `v` (empty only if `v` is missing from its table).
pub(crate) fn name_of<E: Choice>(v: E) -> &'static str {
    E::TABLE.iter().find(|(e, _)| *e == v).map_or("", |(_, name)| name)
}

fn tag_of<E: Choice>(v: E) -> u8 {
    E::TABLE.iter().position(|(e, _)| *e == v).and_then(|i| u8::try_from(i).ok()).unwrap_or(u8::MAX)
}

fn by_name<E: Choice>(name: &str, s: &str) -> Wire<E> {
    let hit = E::TABLE.iter().find(|(_, n)| *n == s);
    hit.map(|(e, _)| *e).ok_or_else(|| match s {
        "" => bad_field(name, "missing"),
        _ => bad_field(name, &format!("unknown {}", E::WHAT)),
    })
}

fn by_tag<E: Choice>(tag: u8) -> Wire<E> {
    let hit = E::TABLE.get(usize::from(tag));
    hit.map(|(e, _)| *e).ok_or_else(|| bad_frame(format!("unknown {} tag {tag}", E::WHAT)))
}

// ---------------------------------------------------------------------------
// The format interface the descriptions are written against
// ---------------------------------------------------------------------------

/// One direction of one encoding. See the module docs for the echo/blank
/// convention every method follows.
pub(crate) trait Format: Sized {
    /// Whether this back-end decodes (and therefore validates).
    const READS: bool;

    fn u64(&mut self, name: &str, v: u64) -> Wire<u64>;
    fn f64(&mut self, name: &str, v: f64) -> Wire<f64>;
    fn boolean(&mut self, name: &str, v: bool) -> Wire<bool>;
    fn string(&mut self, name: &str, v: &str) -> Wire<String>;
    /// Whether an optional field is there: writers record `is_some`
    /// (RUSH1 as a presence byte, JSON by omission), readers look.
    fn present(&mut self, name: &str, is_some: bool) -> Wire<bool>;
    /// A value whose [`Choice`] name is empty is the one JSON spells by
    /// omitting the key.
    fn choice<E: Choice>(&mut self, name: &str, v: E) -> Wire<E>;
    /// A list of records, each walked by `item`.
    fn list<T>(&mut self, name: &str, items: &[T], blank: &T, item: Walk<Self, T>) -> Wire<Vec<T>>;

    fn u32(&mut self, name: &str, v: u32) -> Wire<u32> {
        u32::try_from(self.u64(name, u64::from(v))?).map_err(|_| bad_field(name, "must fit in u32"))
    }

    /// A value that travels as a string with its own grammar.
    fn text<T: Copy>(&mut self, name: &str, v: T, to: fn(&T) -> String, from: Parse<T>) -> Wire<T> {
        if Self::READS {
            from(&self.string(name, "")?).map_err(|e| bad_field(name, &e))
        } else {
            self.string(name, &to(&v)).map(|_| v)
        }
    }

    /// A bool a JSON reader may find omitted.
    fn boolean_or(&mut self, name: &str, v: bool, _default: bool) -> Wire<bool> {
        self.boolean(name, v)
    }

    fn opt<T: Copy + Default>(
        &mut self,
        name: &str,
        v: Option<T>,
        field: Field<Self, T>,
    ) -> Wire<Option<T>> {
        if self.present(name, v.is_some())? {
            field(self, name, v.unwrap_or_default()).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Validation between fields: a reader fails with `bad-field`, a
    /// writer emits whatever it was given.
    fn reject(&self, bad: bool, name: &str, why: &str) -> Wire<()> {
        if Self::READS && bad {
            Err(bad_field(name, why))
        } else {
            Ok(())
        }
    }
}

/// The shapes only documents (snapshots) use; RUSH1 has no spelling for
/// them.
pub(crate) trait DocFormat: Format {
    fn u64s(&mut self, name: &str, v: &[u64]) -> Wire<Vec<u64>>;
    fn nested<T>(&mut self, name: &str, v: &T, inner: Walk<Self, T>) -> Wire<T>;
}

// ---------------------------------------------------------------------------
// The descriptions
// ---------------------------------------------------------------------------

/// A variant's JSON `op`/`kind` string and its RUSH1 tag byte.
type Id = (&'static str, u8);

fn request_id(r: &Request) -> Id {
    match r {
        Request::Submit(_) => ("submit", 0),
        Request::ReportSample { .. } => ("report-sample", 1),
        Request::QueryPlan { .. } => ("query-plan", 2),
        Request::Predict { .. } => ("predict", 3),
        Request::Cancel { .. } => ("cancel", 4),
        Request::Stats => ("stats", 5),
        Request::Shutdown { .. } => ("shutdown", 6),
        Request::SetCapacity { .. } => ("set-capacity", 7),
    }
}

/// `Error` has a tag but no `kind`: JSON spells it `"ok":false`.
fn response_id(r: &Response) -> Id {
    match r {
        Response::Submitted { .. } => ("submitted", 0),
        Response::Ack => ("ack", 1),
        Response::PlanTable { .. } => ("plan", 2),
        Response::Prediction { .. } => ("prediction", 3),
        Response::Stats(_) => ("stats", 4),
        Response::ShuttingDown { .. } => ("shutting-down", 5),
        Response::Error(_) => ("", 6),
        Response::CapacitySet { .. } => ("capacity-set", 7),
    }
}

fn blank_error() -> Response {
    Response::Error(WireError { code: ErrorCode::Internal, message: String::new() })
}

fn request_blanks() -> [Request; 8] {
    [
        Request::Submit(JobSubmission::default()),
        Request::ReportSample { job: 0, runtime: 0 },
        Request::QueryPlan { job: None },
        Request::Predict { job: 0 },
        Request::Cancel { job: 0 },
        Request::Stats,
        Request::SetCapacity { capacity: 0 },
        Request::Shutdown { snapshot: false },
    ]
}

fn response_blanks() -> [Response; 8] {
    [
        Response::Submitted {
            job: None,
            decision: Decision::Admit,
            epoch: 0,
            waited_us: 0,
            defer_reason: None,
        },
        Response::Ack,
        Response::PlanTable { now_slot: 0, epoch: 0, rows: Vec::new() },
        Response::Prediction {
            job: 0,
            target: 0.0,
            task_len: 0,
            bound: 0.0,
            planned_completion: 0,
            impossible: false,
        },
        Response::Stats(StatsReport::default()),
        Response::CapacitySet { capacity: 0 },
        Response::ShuttingDown { snapshot_written: false },
        blank_error(),
    ]
}

/// The paper's Sec. IV job-configuration interface; also the core of a
/// snapshot's job record.
pub(crate) fn submission<F: Format>(f: &mut F, s: &JobSubmission) -> Wire<JobSubmission> {
    let label = f.string("label", &s.label)?;
    let tasks = f.u64("tasks", s.tasks)?;
    f.reject(tasks == 0, "tasks", "must be >= 1")?;
    let runtime_hint = f.opt("hint", s.runtime_hint, F::f64)?;
    f.reject(runtime_hint.is_some_and(|h| !(h.is_finite() && h > 0.0)), "hint", "must be > 0")?;
    let utility = f.text("utility", s.utility, utility_to_text, utility_from_text)?;
    let budget = f.opt("budget", s.budget, F::u64)?;
    let priority = f.u32("priority", s.priority)?;
    f.reject(priority == 0, "priority", "must be >= 1")?;
    Ok(JobSubmission { label, tasks, runtime_hint, utility, budget, priority })
}

fn request<F: Format>(f: &mut F, r: &Request) -> Wire<Request> {
    Ok(match r {
        Request::Submit(s) => Request::Submit(submission(f, s)?),
        Request::ReportSample { job, runtime } => {
            Request::ReportSample { job: f.u64("job", *job)?, runtime: f.u64("runtime", *runtime)? }
        }
        Request::QueryPlan { job } => Request::QueryPlan { job: f.opt("job", *job, F::u64)? },
        Request::Predict { job } => Request::Predict { job: f.u64("job", *job)? },
        Request::Cancel { job } => Request::Cancel { job: f.u64("job", *job)? },
        Request::Stats => Request::Stats,
        Request::SetCapacity { capacity } => {
            let capacity = f.u32("capacity", *capacity)?;
            f.reject(capacity == 0, "capacity", "must be >= 1")?;
            Request::SetCapacity { capacity }
        }
        Request::Shutdown { snapshot } => {
            Request::Shutdown { snapshot: f.boolean_or("snapshot", *snapshot, true)? }
        }
    })
}

fn plan_row<F: Format>(f: &mut F, r: &PlanRow) -> Wire<PlanRow> {
    Ok(PlanRow {
        job: f.u64("job", r.job)?,
        label: f.string("label", &r.label)?,
        eta: f.u64("eta", r.eta)?,
        task_len: f.u64("task_len", r.task_len)?,
        target: f.f64("target", r.target)?,
        level: f.f64("level", r.level)?,
        desired_now: f.u32("desired_now", r.desired_now)?,
        planned_completion: f.u64("planned_completion", r.planned_completion)?,
        impossible: f.boolean("impossible", r.impossible)?,
        remaining_tasks: f.u64("remaining_tasks", r.remaining_tasks)?,
    })
}

fn stats<F: Format>(f: &mut F, s: &StatsReport) -> Wire<StatsReport> {
    Ok(StatsReport {
        active_jobs: f.u64("active_jobs", s.active_jobs)?,
        deferred_jobs: f.u64("deferred_jobs", s.deferred_jobs)?,
        epochs: f.u64("epochs", s.epochs)?,
        admitted: f.u64("admitted", s.admitted)?,
        deferred: f.u64("deferred", s.deferred)?,
        rejected: f.u64("rejected", s.rejected)?,
        cancelled: f.u64("cancelled", s.cancelled)?,
        completed: f.u64("completed", s.completed)?,
        samples: f.u64("samples", s.samples)?,
        cache_hits: f.u64("cache_hits", s.cache_hits)?,
        cache_misses: f.u64("cache_misses", s.cache_misses)?,
        now_slot: f.u64("now_slot", s.now_slot)?,
    })
}

fn response<F: Format>(f: &mut F, r: &Response) -> Wire<Response> {
    Ok(match r {
        Response::Submitted { job, decision, epoch, waited_us, defer_reason } => {
            Response::Submitted {
                job: f.opt("job", *job, F::u64)?,
                decision: f.choice("decision", *decision)?,
                epoch: f.u64("epoch", *epoch)?,
                waited_us: f.u64("waited_us", *waited_us)?,
                defer_reason: f.choice("defer_reason", *defer_reason)?,
            }
        }
        Response::Ack => Response::Ack,
        Response::PlanTable { now_slot, epoch, rows } => Response::PlanTable {
            now_slot: f.u64("now_slot", *now_slot)?,
            epoch: f.u64("epoch", *epoch)?,
            rows: f.list("rows", rows, &PlanRow::default(), plan_row)?,
        },
        Response::Prediction { job, target, task_len, bound, planned_completion, impossible } => {
            Response::Prediction {
                job: f.u64("job", *job)?,
                target: f.f64("target", *target)?,
                task_len: f.u64("task_len", *task_len)?,
                bound: f.f64("bound", *bound)?,
                planned_completion: f.u64("planned_completion", *planned_completion)?,
                impossible: f.boolean("impossible", *impossible)?,
            }
        }
        Response::Stats(s) => Response::Stats(stats(f, s)?),
        Response::CapacitySet { capacity } => {
            Response::CapacitySet { capacity: f.u32("capacity", *capacity)? }
        }
        Response::ShuttingDown { snapshot_written } => Response::ShuttingDown {
            snapshot_written: f.boolean("snapshot_written", *snapshot_written)?,
        },
        Response::Error(e) => Response::Error(WireError {
            code: f.choice("code", e.code)?,
            message: f.string("message", &e.message)?,
        }),
    })
}

// ---------------------------------------------------------------------------
// JSON back-ends
// ---------------------------------------------------------------------------

/// Writes the fields of one JSON object straight into the output text.
pub(crate) struct JsonWriter {
    out: String,
}

impl JsonWriter {
    /// `,` unless this is the first member, then `"name":`.
    fn key(&mut self, name: &str) {
        if !self.out.ends_with('{') {
            self.out.push(',');
        }
        self.out.push('"');
        self.out.push_str(name);
        self.out.push_str("\":");
    }

    /// `,` unless this is the first element.
    fn element(&mut self) {
        if !self.out.ends_with('[') {
            self.out.push(',');
        }
    }

    /// Integers at or above 2^53 saturate, as in [`Json::u64`].
    fn integer(&mut self, v: u64) {
        // Writing to a String cannot fail.
        let _ = write!(self.out, "{}", v.min(MAX_SAFE_INT - 1));
    }
}

impl Format for JsonWriter {
    const READS: bool = false;

    fn u64(&mut self, name: &str, v: u64) -> Wire<u64> {
        self.key(name);
        self.integer(v);
        Ok(v)
    }

    fn f64(&mut self, name: &str, v: f64) -> Wire<f64> {
        self.key(name);
        json::write_num(v, &mut self.out);
        Ok(v)
    }

    fn boolean(&mut self, name: &str, v: bool) -> Wire<bool> {
        self.key(name);
        self.out.push_str(if v { "true" } else { "false" });
        Ok(v)
    }

    fn string(&mut self, name: &str, v: &str) -> Wire<String> {
        self.key(name);
        json::write_escaped(v, &mut self.out);
        Ok(String::new())
    }

    fn present(&mut self, _name: &str, is_some: bool) -> Wire<bool> {
        Ok(is_some)
    }

    fn choice<E: Choice>(&mut self, name: &str, v: E) -> Wire<E> {
        let spelled = name_of(v);
        if !spelled.is_empty() {
            self.string(name, spelled)?;
        }
        Ok(v)
    }

    fn list<T>(&mut self, name: &str, items: &[T], _: &T, item: Walk<Self, T>) -> Wire<Vec<T>> {
        self.key(name);
        self.out.push('[');
        for it in items {
            self.element();
            self.out.push('{');
            item(self, it)?;
            self.out.push('}');
        }
        self.out.push(']');
        Ok(Vec::new())
    }
}

impl DocFormat for JsonWriter {
    fn u64s(&mut self, name: &str, v: &[u64]) -> Wire<Vec<u64>> {
        self.key(name);
        self.out.push('[');
        for &x in v {
            self.element();
            self.integer(x);
        }
        self.out.push(']');
        Ok(Vec::new())
    }

    fn nested<T>(&mut self, name: &str, v: &T, inner: Walk<Self, T>) -> Wire<T> {
        self.key(name);
        self.out.push('{');
        let echo = inner(self, v)?;
        self.out.push('}');
        Ok(echo)
    }
}

/// Writes one JSON object whose members `body` emits.
pub(crate) fn to_json(body: impl FnOnce(&mut JsonWriter) -> Wire<()>) -> String {
    let mut w = JsonWriter { out: String::from("{") };
    // Writers have no failure path; `Wire` is only the shared signature.
    let _ = body(&mut w);
    w.out.push('}');
    w.out
}

/// Reads fields, by key, out of one parsed JSON object.
pub(crate) struct JsonReader<'a> {
    obj: &'a Json,
}

impl<'a> JsonReader<'a> {
    fn need<T>(&self, name: &str, expected: &str, get: fn(&'a Json) -> Option<T>) -> Wire<T> {
        let v = self.obj.get(name).ok_or_else(|| bad_field(name, "missing"))?;
        get(v).ok_or_else(|| bad_field(name, expected))
    }

    fn str(&self, name: &str) -> Wire<&'a str> {
        self.need(name, "expected a string", Json::as_str)
    }
}

impl Format for JsonReader<'_> {
    const READS: bool = true;

    fn u64(&mut self, name: &str, _v: u64) -> Wire<u64> {
        self.need(name, "expected a non-negative integer", Json::as_u64)
    }

    fn f64(&mut self, name: &str, _v: f64) -> Wire<f64> {
        self.need(name, "expected a number", Json::as_f64)
    }

    fn boolean(&mut self, name: &str, _v: bool) -> Wire<bool> {
        self.need(name, "expected a boolean", Json::as_bool)
    }

    fn boolean_or(&mut self, name: &str, v: bool, default: bool) -> Wire<bool> {
        if self.present(name, false)? {
            self.boolean(name, v)
        } else {
            Ok(default)
        }
    }

    fn string(&mut self, name: &str, _v: &str) -> Wire<String> {
        self.str(name).map(str::to_string)
    }

    fn present(&mut self, name: &str, _is_some: bool) -> Wire<bool> {
        Ok(!matches!(self.obj.get(name), None | Some(Json::Null)))
    }

    fn choice<E: Choice>(&mut self, name: &str, _v: E) -> Wire<E> {
        by_name(name, if self.present(name, false)? { self.str(name)? } else { "" })
    }

    fn list<T>(&mut self, name: &str, _: &[T], blank: &T, item: Walk<Self, T>) -> Wire<Vec<T>> {
        let elements = self.need(name, "expected an array", Json::as_arr)?;
        elements.iter().map(|obj| item(&mut JsonReader { obj }, blank)).collect()
    }
}

impl DocFormat for JsonReader<'_> {
    fn u64s(&mut self, name: &str, _v: &[u64]) -> Wire<Vec<u64>> {
        let elements = self.need(name, "expected an array", Json::as_arr)?;
        elements.iter().map(|x| x.as_u64().ok_or_else(|| bad_field(name, "non-integer"))).collect()
    }

    fn nested<T>(&mut self, name: &str, v: &T, inner: Walk<Self, T>) -> Wire<T> {
        let obj = self.obj.get(name).ok_or_else(|| bad_field(name, "missing"))?;
        inner(&mut JsonReader { obj }, v)
    }
}

/// Parses one JSON object and hands `body` a reader over it.
pub(crate) fn from_json<T>(
    text: &str,
    body: impl FnOnce(&mut JsonReader<'_>) -> Wire<T>,
) -> Wire<T> {
    let obj = json::parse(text).map_err(|e| WireError::new(ErrorCode::BadJson, e.to_string()))?;
    if !matches!(obj, Json::Obj(_)) {
        return Err(WireError::new(ErrorCode::BadJson, "frame must be a JSON object"));
    }
    body(&mut JsonReader { obj: &obj })
}

// ---------------------------------------------------------------------------
// RUSH1 back-ends
// ---------------------------------------------------------------------------

pub(crate) fn put_varint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends fields to one RUSH1 payload.
struct Rush1Writer {
    out: Vec<u8>,
}

impl Format for Rush1Writer {
    const READS: bool = false;

    fn u64(&mut self, _name: &str, v: u64) -> Wire<u64> {
        put_varint(v, &mut self.out);
        Ok(v)
    }

    fn f64(&mut self, _name: &str, v: f64) -> Wire<f64> {
        self.out.extend_from_slice(&v.to_bits().to_le_bytes());
        Ok(v)
    }

    fn boolean(&mut self, _name: &str, v: bool) -> Wire<bool> {
        self.out.push(u8::from(v));
        Ok(v)
    }

    fn string(&mut self, _name: &str, v: &str) -> Wire<String> {
        put_varint(v.len() as u64, &mut self.out);
        self.out.extend_from_slice(v.as_bytes());
        Ok(String::new())
    }

    fn present(&mut self, name: &str, is_some: bool) -> Wire<bool> {
        self.boolean(name, is_some)
    }

    fn choice<E: Choice>(&mut self, _name: &str, v: E) -> Wire<E> {
        self.out.push(tag_of(v));
        Ok(v)
    }

    fn list<T>(&mut self, _: &str, items: &[T], _: &T, item: Walk<Self, T>) -> Wire<Vec<T>> {
        put_varint(items.len() as u64, &mut self.out);
        for it in items {
            item(self, it)?;
        }
        Ok(Vec::new())
    }
}

/// A checked cursor over one RUSH1 payload.
struct Rush1Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rush1Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Wire<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let bytes = end.and_then(|e| self.buf.get(self.pos..e));
        let bytes = bytes.ok_or_else(|| bad_frame(format!("truncated payload reading {what}")))?;
        self.pos += n;
        Ok(bytes)
    }

    fn byte(&mut self, what: &str) -> Wire<u8> {
        let bytes = self.take(1, what)?;
        Ok(bytes.first().copied().unwrap_or(0))
    }

    fn varint(&mut self, what: &str) -> Wire<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.byte(what)?;
            if shift > 63 || (shift == 63 && byte > 1) {
                return Err(bad_frame(format!("varint overflow in {what}")));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn str(&mut self, what: &str) -> Wire<&'a str> {
        let len = usize::try_from(self.varint(what)?).unwrap_or(usize::MAX);
        let bytes = self.take(len, what)?;
        std::str::from_utf8(bytes).map_err(|_| bad_frame(format!("invalid UTF-8 in {what}")))
    }

    fn finish(&self) -> Wire<()> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(bad_frame(format!("{n} trailing bytes after payload"))),
        }
    }
}

impl Format for Rush1Reader<'_> {
    const READS: bool = true;

    fn u64(&mut self, name: &str, _v: u64) -> Wire<u64> {
        self.varint(name)
    }

    fn f64(&mut self, name: &str, _v: f64) -> Wire<f64> {
        let mut bits = [0u8; 8];
        bits.copy_from_slice(self.take(8, name)?);
        Ok(f64::from_bits(u64::from_le_bytes(bits)))
    }

    fn boolean(&mut self, name: &str, _v: bool) -> Wire<bool> {
        match self.byte(name)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(bad_frame(format!("bad boolean byte {b} in {name}"))),
        }
    }

    fn string(&mut self, name: &str, _v: &str) -> Wire<String> {
        self.str(name).map(str::to_string)
    }

    fn present(&mut self, name: &str, _is_some: bool) -> Wire<bool> {
        self.boolean(name, false)
    }

    fn choice<E: Choice>(&mut self, name: &str, _v: E) -> Wire<E> {
        by_tag(self.byte(name)?)
    }

    fn list<T>(&mut self, name: &str, _: &[T], blank: &T, item: Walk<Self, T>) -> Wire<Vec<T>> {
        let count = self.varint(name)?;
        // Every record takes at least a byte, so a count beyond the payload
        // is a lie; the vector still grows only as records really decode.
        if count > self.buf.len() as u64 {
            return Err(bad_frame(format!("{name} count exceeds payload size")));
        }
        (0..count).map(|_| item(self, blank)).collect()
    }
}

// ---------------------------------------------------------------------------
// Frames: the entry points `protocol.rs` and `binary.rs` forward to
// ---------------------------------------------------------------------------

fn bad_op(why: String) -> WireError {
    WireError::new(ErrorCode::BadOp, why)
}

pub(crate) fn request_to_json(req: &Request) -> String {
    to_json(|w| {
        w.u64("v", PROTOCOL_VERSION)?;
        w.string("op", request_id(req).0)?;
        request(w, req).map(drop)
    })
}

pub(crate) fn request_from_json(line: &str) -> Wire<Request> {
    from_json(line, |r| {
        let v = r.obj.get("v").and_then(Json::as_u64);
        if v != Some(PROTOCOL_VERSION) {
            let why = match v {
                Some(v) => {
                    format!("unsupported protocol version {v} (expected {PROTOCOL_VERSION})")
                }
                None => "missing \"v\" field".into(),
            };
            return Err(WireError::new(ErrorCode::BadVersion, why));
        }
        let op = r.obj.get("op").and_then(Json::as_str);
        let op = op.ok_or_else(|| bad_op("missing \"op\" field".into()))?;
        let blank = request_blanks().into_iter().find(|b| request_id(b).0 == op);
        request(r, &blank.ok_or_else(|| bad_op(format!("unknown op \"{op}\"")))?)
    })
}

pub(crate) fn response_to_json(resp: &Response) -> String {
    to_json(|w| {
        let ok = !matches!(resp, Response::Error(_));
        w.boolean("ok", ok)?;
        if ok {
            w.string("kind", response_id(resp).0)?;
        }
        response(w, resp).map(drop)
    })
}

pub(crate) fn response_from_json(line: &str) -> Wire<Response> {
    from_json(line, |r| {
        if !r.boolean("ok", true)? {
            return response(r, &blank_error());
        }
        let kind = r.obj.get("kind").and_then(Json::as_str);
        let kind = kind.ok_or_else(|| bad_op("missing \"kind\" field".into()))?;
        let blank = response_blanks()
            .into_iter()
            .find(|b| !matches!(b, Response::Error(_)) && response_id(b).0 == kind);
        response(r, &blank.ok_or_else(|| bad_op(format!("unknown kind \"{kind}\"")))?)
    })
}

/// One RUSH1 payload: the tag byte, then the fields `body` emits.
fn to_rush1(tag: u8, body: impl FnOnce(&mut Rush1Writer) -> Wire<()>) -> Vec<u8> {
    let mut w = Rush1Writer { out: Vec::with_capacity(32) };
    w.out.push(tag);
    // Writers have no failure path; `Wire` is only the shared signature.
    let _ = body(&mut w);
    w.out
}

pub(crate) fn request_to_rush1(req: &Request) -> Vec<u8> {
    to_rush1(request_id(req).1, |w| request(w, req).map(drop))
}

pub(crate) fn request_from_rush1(payload: &[u8]) -> Wire<Request> {
    let mut r = Rush1Reader { buf: payload, pos: 0 };
    let tag = r.byte("request tag")?;
    let blank = request_blanks().into_iter().find(|b| request_id(b).1 == tag);
    let req = request(&mut r, &blank.ok_or_else(|| bad_op(format!("unknown request tag {tag}")))?)?;
    r.finish().map(|()| req)
}

pub(crate) fn response_to_rush1(resp: &Response) -> Vec<u8> {
    to_rush1(response_id(resp).1, |w| response(w, resp).map(drop))
}

pub(crate) fn response_from_rush1(payload: &[u8]) -> Wire<Response> {
    let mut r = Rush1Reader { buf: payload, pos: 0 };
    let tag = r.byte("response tag")?;
    let blank = response_blanks().into_iter().find(|b| response_id(b).1 == tag);
    let resp =
        response(&mut r, &blank.ok_or_else(|| bad_op(format!("unknown response tag {tag}")))?)?;
    r.finish().map(|()| resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// A reader finds its `match` arm through a blank, so every variant
    /// needs exactly one; the ids are dense, which makes "all distinct"
    /// the same as "none missing".
    #[test]
    fn every_variant_has_one_blank_and_a_distinct_id() {
        let req: Vec<Id> = request_blanks().iter().map(request_id).collect();
        let resp: Vec<Id> = response_blanks().iter().map(response_id).collect();
        for ids in [req, resp] {
            let tags: BTreeSet<u8> = ids.iter().map(|id| id.1).collect();
            let names: BTreeSet<&str> = ids.iter().map(|id| id.0).collect();
            assert_eq!(tags, (0..ids.len() as u8).collect::<BTreeSet<u8>>());
            assert_eq!(names.len(), ids.len());
        }
    }
}
