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
//! The writers append to a caller's byte buffer: the reactor hands them a
//! connection's write buffer, so a reply is serialized once, in place
//! (`json.rs` has what each value costs). [`JsonReader`] looks members up
//! by key on the tape of `json.rs`'s one tokenizer, and [`Format::str`]
//! hands a string back borrowed where it can, so a reader copies only the
//! strings the decoded value keeps.
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

use crate::json::{self, Doc, Node, MAX_SAFE_INT};
use crate::protocol::{
    Decision, DeferReason, ErrorCode, JobSubmission, PlanRow, Request, Response, StatsReport,
    WireError, PROTOCOL_VERSION,
};
use rush_utility::{utility_from_text, utility_to_text};
use std::borrow::Cow;
use std::cell::Cell;

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
    /// A string a reader hands back borrowed where it can (writers echo
    /// an empty one).
    fn str(&mut self, name: &str, v: &str) -> Wire<Cow<'_, str>>;
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

    /// A string the decoded value keeps.
    fn string(&mut self, name: &str, v: &str) -> Wire<String> {
        self.str(name, v).map(Cow::into_owned)
    }

    /// A value that travels as a string with its own grammar; a reader
    /// parses the text where it lies.
    fn text<T: Copy>(&mut self, name: &str, v: T, to: fn(&T) -> String, from: Parse<T>) -> Wire<T> {
        if Self::READS {
            from(&self.str(name, "")?).map_err(|e| bad_field(name, &e))
        } else {
            self.str(name, &to(&v)).map(|_| v)
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

/// Writes the fields of one JSON object straight into the output bytes.
pub(crate) struct JsonWriter<'o> {
    out: &'o mut Vec<u8>,
}

impl JsonWriter<'_> {
    /// `,` unless this is the first member, then `"name":`.
    fn key(&mut self, name: &str) {
        if self.out.last() != Some(&b'{') {
            self.out.push(b',');
        }
        self.out.push(b'"');
        self.out.extend_from_slice(name.as_bytes());
        self.out.extend_from_slice(b"\":");
    }

    /// `,` unless this is the first element.
    fn element(&mut self) {
        if self.out.last() != Some(&b'[') {
            self.out.push(b',');
        }
    }

    /// Integers at or above 2^53 saturate, as in [`json::Json::u64`].
    fn integer(&mut self, v: u64) {
        json::write_u64(v.min(MAX_SAFE_INT - 1), self.out);
    }
}

impl Format for JsonWriter<'_> {
    const READS: bool = false;

    fn u64(&mut self, name: &str, v: u64) -> Wire<u64> {
        self.key(name);
        self.integer(v);
        Ok(v)
    }

    fn f64(&mut self, name: &str, v: f64) -> Wire<f64> {
        self.key(name);
        json::write_num(v, self.out);
        Ok(v)
    }

    fn boolean(&mut self, name: &str, v: bool) -> Wire<bool> {
        self.key(name);
        self.out.extend_from_slice(if v { b"true" } else { b"false" });
        Ok(v)
    }

    fn str(&mut self, name: &str, v: &str) -> Wire<Cow<'_, str>> {
        self.key(name);
        json::write_escaped(v, self.out);
        Ok(Cow::Borrowed(""))
    }

    fn present(&mut self, _name: &str, is_some: bool) -> Wire<bool> {
        Ok(is_some)
    }

    fn choice<E: Choice>(&mut self, name: &str, v: E) -> Wire<E> {
        let spelled = name_of(v);
        if !spelled.is_empty() {
            self.str(name, spelled)?;
        }
        Ok(v)
    }

    fn list<T>(&mut self, name: &str, items: &[T], _: &T, item: Walk<Self, T>) -> Wire<Vec<T>> {
        self.key(name);
        self.out.push(b'[');
        for it in items {
            self.element();
            self.out.push(b'{');
            item(self, it)?;
            self.out.push(b'}');
        }
        self.out.push(b']');
        Ok(Vec::new())
    }
}

impl DocFormat for JsonWriter<'_> {
    fn u64s(&mut self, name: &str, v: &[u64]) -> Wire<Vec<u64>> {
        self.key(name);
        self.out.push(b'[');
        for &x in v {
            self.element();
            self.integer(x);
        }
        self.out.push(b']');
        Ok(Vec::new())
    }

    fn nested<T>(&mut self, name: &str, v: &T, inner: Walk<Self, T>) -> Wire<T> {
        self.key(name);
        self.out.push(b'{');
        let echo = inner(self, v)?;
        self.out.push(b'}');
        Ok(echo)
    }
}

/// Appends one JSON object whose members `body` emits to `out`.
pub(crate) fn json_into(out: &mut Vec<u8>, body: impl FnOnce(&mut JsonWriter<'_>) -> Wire<()>) {
    out.push(b'{');
    // Writers have no failure path; `Wire` is only the shared signature.
    let _ = body(&mut JsonWriter { out: &mut *out });
    out.push(b'}');
}

/// One JSON object whose members `body` emits, as text.
pub(crate) fn to_json(body: impl FnOnce(&mut JsonWriter<'_>) -> Wire<()>) -> String {
    let mut out = Vec::with_capacity(128);
    json_into(&mut out, body);
    json::into_text(out)
}

/// Reads fields, by key, out of one object of a tokenized document.
pub(crate) struct JsonReader<'a> {
    doc: Doc<'a>,
    /// The object's node.
    at: usize,
}

impl<'a> JsonReader<'a> {
    fn new(doc: Doc<'a>, at: usize) -> Self {
        JsonReader { doc, at }
    }

    /// The value of member `name`, if the object has one.
    fn get(&self, name: &str) -> Option<usize> {
        self.doc.member(self.at, name)
    }

    fn need<T>(&self, name: &str, expected: &str, get: fn(Doc<'a>, usize) -> Option<T>) -> Wire<T> {
        let v = self.get(name).ok_or_else(|| bad_field(name, "missing"))?;
        get(self.doc, v).ok_or_else(|| bad_field(name, expected))
    }

    /// The value of member `name` as an array node.
    fn array(&self, name: &str) -> Wire<usize> {
        self.need(name, "expected an array", |doc, at| doc.is_arr(at).then_some(at))
    }

    /// The string naming the frame's kind (`op`, `kind`): `None` when it
    /// is absent or not a string.
    fn tag(&self, name: &str) -> Option<Cow<'a, str>> {
        self.get(name).and_then(|at| self.doc.str(at))
    }
}

impl Format for JsonReader<'_> {
    const READS: bool = true;

    fn u64(&mut self, name: &str, _v: u64) -> Wire<u64> {
        self.need(name, "expected a non-negative integer", |doc, at| {
            doc.num(at).and_then(json::exact_u64)
        })
    }

    fn f64(&mut self, name: &str, _v: f64) -> Wire<f64> {
        self.need(name, "expected a number", Doc::num)
    }

    fn boolean(&mut self, name: &str, _v: bool) -> Wire<bool> {
        self.need(name, "expected a boolean", Doc::boolean)
    }

    fn boolean_or(&mut self, name: &str, v: bool, default: bool) -> Wire<bool> {
        if self.present(name, false)? {
            self.boolean(name, v)
        } else {
            Ok(default)
        }
    }

    fn str(&mut self, name: &str, _v: &str) -> Wire<Cow<'_, str>> {
        self.need(name, "expected a string", Doc::str)
    }

    fn present(&mut self, name: &str, _is_some: bool) -> Wire<bool> {
        Ok(self.get(name).is_some_and(|at| !self.doc.is_null(at)))
    }

    fn choice<E: Choice>(&mut self, name: &str, _v: E) -> Wire<E> {
        if !self.present(name, false)? {
            return by_name(name, "");
        }
        by_name(name, &self.str(name, "")?)
    }

    fn list<T>(&mut self, name: &str, _: &[T], blank: &T, item: Walk<Self, T>) -> Wire<Vec<T>> {
        let doc = self.doc;
        doc.elements(self.array(name)?)
            .map(|at| item(&mut JsonReader::new(doc, at), blank))
            .collect()
    }
}

impl DocFormat for JsonReader<'_> {
    fn u64s(&mut self, name: &str, _v: &[u64]) -> Wire<Vec<u64>> {
        let doc = self.doc;
        let elements = doc.elements(self.array(name)?);
        elements
            .map(|at| {
                doc.num(at).and_then(json::exact_u64).ok_or_else(|| bad_field(name, "non-integer"))
            })
            .collect()
    }

    fn nested<T>(&mut self, name: &str, v: &T, inner: Walk<Self, T>) -> Wire<T> {
        let at = self.get(name).ok_or_else(|| bad_field(name, "missing"))?;
        inner(&mut JsonReader::new(self.doc, at), v)
    }
}

/// A tape this large or smaller stays with its thread for the next frame;
/// a larger one (a snapshot's) is freed.
const KEPT_TAPE_NODES: usize = 4096;

thread_local! {
    /// The tape [`from_json`] tokenizes into, reused across the thread's
    /// frames so a frame's decode allocates only what its value keeps.
    static TAPE: Cell<Vec<Node>> = const { Cell::new(Vec::new()) };
}

/// Tokenizes one JSON object and hands `body` a reader over it.
pub(crate) fn from_json<T>(
    text: &str,
    body: impl FnOnce(&mut JsonReader<'_>) -> Wire<T>,
) -> Wire<T> {
    let mut nodes = TAPE.take();
    let read = match json::tokenize(text, &mut nodes) {
        Err(e) => Err(WireError::new(ErrorCode::BadJson, e.to_string())),
        Ok(()) => {
            let doc = Doc { text, nodes: &nodes };
            if doc.is_obj(0) {
                body(&mut JsonReader::new(doc, 0))
            } else {
                Err(WireError::new(ErrorCode::BadJson, "frame must be a JSON object"))
            }
        }
    };
    if nodes.capacity() <= KEPT_TAPE_NODES {
        TAPE.set(nodes);
    }
    read
}

// ---------------------------------------------------------------------------
// RUSH1 back-ends
// ---------------------------------------------------------------------------

/// Hands `v`'s LEB128 bytes, low seven bits first, to `push`.
fn leb128(mut v: u64, mut push: impl FnMut(u8)) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            push(byte);
            return;
        }
        push(byte | 0x80);
    }
}

/// `v` as an LEB128 varint: the bytes, and how many of them it takes.
pub(crate) fn varint(v: u64) -> ([u8; 10], usize) {
    let mut bytes = [0u8; 10];
    let mut n = 0;
    leb128(v, |byte| {
        if let Some(slot) = bytes.get_mut(n) {
            *slot = byte;
        }
        n += 1;
    });
    (bytes, n)
}

/// Appends `v` as an LEB128 varint. Byte by byte: copying [`varint`]'s
/// array instead is a variable-length copy per field, which made a
/// one-row plan's payload take over twice as long to encode.
pub(crate) fn put_varint(v: u64, out: &mut Vec<u8>) {
    leb128(v, |byte| out.push(byte));
}

/// Appends fields to one RUSH1 payload.
struct Rush1Writer<'o> {
    out: &'o mut Vec<u8>,
}

impl Format for Rush1Writer<'_> {
    const READS: bool = false;

    fn u64(&mut self, _name: &str, v: u64) -> Wire<u64> {
        put_varint(v, self.out);
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

    fn str(&mut self, _name: &str, v: &str) -> Wire<Cow<'_, str>> {
        put_varint(v.len() as u64, self.out);
        self.out.extend_from_slice(v.as_bytes());
        Ok(Cow::Borrowed(""))
    }

    fn present(&mut self, name: &str, is_some: bool) -> Wire<bool> {
        self.boolean(name, is_some)
    }

    fn choice<E: Choice>(&mut self, _name: &str, v: E) -> Wire<E> {
        self.out.push(tag_of(v));
        Ok(v)
    }

    fn list<T>(&mut self, _: &str, items: &[T], _: &T, item: Walk<Self, T>) -> Wire<Vec<T>> {
        put_varint(items.len() as u64, self.out);
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

    fn str(&mut self, name: &str, _v: &str) -> Wire<Cow<'_, str>> {
        let len = usize::try_from(self.varint(name)?).unwrap_or(usize::MAX);
        let bytes = self.take(len, name)?;
        let s = std::str::from_utf8(bytes)
            .map_err(|_| bad_frame(format!("invalid UTF-8 in {name}")))?;
        Ok(Cow::Borrowed(s))
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

pub(crate) fn request_json_into(req: &Request, out: &mut Vec<u8>) {
    json_into(out, |w| {
        w.u64("v", PROTOCOL_VERSION)?;
        w.str("op", request_id(req).0)?;
        request(w, req).map(drop)
    });
}

pub(crate) fn request_from_json(line: &str) -> Wire<Request> {
    from_json(line, |r| {
        let v = r.get("v").and_then(|at| r.doc.num(at)).and_then(json::exact_u64);
        if v != Some(PROTOCOL_VERSION) {
            let why = match v {
                Some(v) => {
                    format!("unsupported protocol version {v} (expected {PROTOCOL_VERSION})")
                }
                None => "missing \"v\" field".into(),
            };
            return Err(WireError::new(ErrorCode::BadVersion, why));
        }
        let op = r.tag("op").ok_or_else(|| bad_op("missing \"op\" field".into()))?;
        let blank = request_blanks().into_iter().find(|b| request_id(b).0 == op);
        request(r, &blank.ok_or_else(|| bad_op(format!("unknown op \"{op}\"")))?)
    })
}

pub(crate) fn response_json_into(resp: &Response, out: &mut Vec<u8>) {
    json_into(out, |w| {
        let ok = !matches!(resp, Response::Error(_));
        w.boolean("ok", ok)?;
        if ok {
            w.str("kind", response_id(resp).0)?;
        }
        response(w, resp).map(drop)
    });
}

pub(crate) fn response_from_json(line: &str) -> Wire<Response> {
    from_json(line, |r| {
        if !r.boolean("ok", true)? {
            return response(r, &blank_error());
        }
        let kind = r.tag("kind").ok_or_else(|| bad_op("missing \"kind\" field".into()))?;
        let blank = response_blanks()
            .into_iter()
            .find(|b| !matches!(b, Response::Error(_)) && response_id(b).0 == kind);
        response(r, &blank.ok_or_else(|| bad_op(format!("unknown kind \"{kind}\"")))?)
    })
}

/// Appends one RUSH1 payload to `out`: the tag byte, then the fields `body`
/// emits.
fn rush1_into(out: &mut Vec<u8>, tag: u8, body: impl FnOnce(&mut Rush1Writer<'_>) -> Wire<()>) {
    out.push(tag);
    // Writers have no failure path; `Wire` is only the shared signature.
    let _ = body(&mut Rush1Writer { out });
}

pub(crate) fn request_rush1_into(req: &Request, out: &mut Vec<u8>) {
    rush1_into(out, request_id(req).1, |w| request(w, req).map(drop));
}

pub(crate) fn request_from_rush1(payload: &[u8]) -> Wire<Request> {
    let mut r = Rush1Reader { buf: payload, pos: 0 };
    let tag = r.byte("request tag")?;
    let blank = request_blanks().into_iter().find(|b| request_id(b).1 == tag);
    let req = request(&mut r, &blank.ok_or_else(|| bad_op(format!("unknown request tag {tag}")))?)?;
    r.finish().map(|()| req)
}

pub(crate) fn response_rush1_into(resp: &Response, out: &mut Vec<u8>) {
    rush1_into(out, response_id(resp).1, |w| response(w, resp).map(drop));
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
