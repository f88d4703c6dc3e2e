//! Spans recorded by the harness around its calls into each layer.
//!
//! Spans live in memory until the run ends and are then written out as one
//! JSON file. A layer's *self time* is its spans' duration minus the part
//! of that interval its child spans cover, so a parent (`experiment.run`)
//! and its children (the scheduler callbacks) never double-count.

use rush_serve::json::Json;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span (its position in the recorder).
pub type SpanId = u32;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.state.predict`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Identifier shared by every span of one request (the driver's op
    /// number); `None` for spans that serve no single request.
    pub request: Option<u64>,
}

/// In-memory span store with a common time origin.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// Creates a recorder whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the recorder's epoch to `t` (0 for earlier times).
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> SpanId {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    /// Reserves a span whose end is not known yet (a parent recorded before
    /// its children); finish it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, start: Instant) -> SpanId {
        self.record(name, start, start, None, None)
    }

    /// Sets the end of a span reserved with [`Recorder::open`].
    pub fn close(&mut self, id: SpanId, end: Instant) {
        let end_ns = self.ns(end);
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end_ns;
        }
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON document.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_json(&self, path: &Path, header: Vec<(String, Json)>) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let mut head = Json::Obj(header).encode();
        head.pop(); // reopen the header object to append the span array
        write!(out, "{head},\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(
                out,
                "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.name, s.start_ns, s.end_ns
            )?;
            match s.parent {
                Some(p) => write!(out, "{p}")?,
                None => out.write_all(b"null")?,
            }
            match s.request {
                Some(r) => write!(out, ",\"request\":{r}}}")?,
                None => out.write_all(b",\"request\":null}")?,
            }
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

/// Per-name totals derived from a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus what their direct children cover.
    pub self_ns: u64,
}

/// Aggregates spans by name, subtracting from every parent the time its
/// direct children cover (children are clipped to the parent's interval
/// and assumed not to overlap each other — true for the synchronous calls
/// the harness nests).
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        let Some(parent) = s
            .parent
            .and_then(|p| spans.get(p as usize).map(|ps| (p, ps)))
        else {
            continue;
        };
        let (pid, ps) = parent;
        let start = s.start_ns.max(ps.start_ns);
        let end = s.end_ns.min(ps.end_ns);
        if let Some(slot) = child_ns.get_mut(pid as usize) {
            *slot += end.saturating_sub(start);
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut rec = Recorder::new(t0);
        let run = rec.open("experiment.run", at(0));
        let a = rec.record("scheduler.assign", at(10), at(40), Some(run), None);
        // A grandchild is subtracted from its parent only, not from the root.
        rec.record("core.pass", at(15), at(35), Some(a), None);
        rec.record("scheduler.assign", at(50), at(60), Some(run), None);
        // A child overhanging its parent is clipped to the parent's interval.
        rec.record(
            "scheduler.on_task_complete",
            at(90),
            at(130),
            Some(run),
            None,
        );
        rec.close(run, at(100));

        let totals = totals_by_name(rec.spans());
        let run_t = totals["experiment.run"];
        assert_eq!((run_t.count, run_t.total_ns), (1, 100_000));
        assert_eq!(run_t.self_ns, 100_000 - 30_000 - 10_000 - 10_000);
        let assign = totals["scheduler.assign"];
        assert_eq!(
            (assign.count, assign.total_ns, assign.self_ns),
            (2, 40_000, 20_000)
        );
        assert_eq!(totals["core.pass"].self_ns, 20_000);
        // Self times of a tree sum to the root's duration (up to clipping).
        let sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(sum, 100_000 + 30_000);
    }

    #[test]
    fn trace_file_round_trips_through_the_json_parser() {
        let t0 = Instant::now();
        let mut rec = Recorder::new(t0);
        let root = rec.open("root", t0);
        rec.record(
            "leaf",
            t0,
            t0 + Duration::from_nanos(5),
            Some(root),
            Some(7),
        );
        rec.close(root, t0 + Duration::from_nanos(9));
        // Inside the package's git-ignored `out/`, like the real trace files.
        let dir = Path::new("out").join(format!("unit-test-{}", std::process::id()));
        let path = dir.join("t.trace.json");
        rec.write_json(&path, vec![("workload".into(), Json::str("unit"))])
            .expect("write");
        let text = std::fs::read_to_string(&path).expect("read");
        let doc = rush_serve::json::parse(&text).expect("valid json");
        assert_eq!(doc.get("workload").and_then(Json::as_str), Some("unit"));
        let spans = doc.get("spans").and_then(Json::as_arr).expect("spans");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(spans[1].get("request").and_then(Json::as_u64), Some(7));
        assert_eq!(spans[0].get("end_ns").and_then(Json::as_u64), Some(9));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
